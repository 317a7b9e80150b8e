//! Greedy engine timing: the exact loop's two strategies on one prebuilt
//! CSR per instance, written to `BENCH_20.json`.
//!
//! The paper's greedy is Algorithm 1 (§4). `eager` finds every round's
//! argmax with a scan of the exact marginals; `lazy`, which serving runs,
//! starts with CELF's heap and hands the run to the scan once one round's
//! stale pops show the scan is cheaper. Which one is faster depends on
//! the instance's shape and weights, so the sweep covers three shapes:
//!
//! * `tripadvisor` — `synth::tripadvisor` under paper bucketing, the
//!   repository the service benchmarks serve;
//! * `serve` — the population `configs/serve.json` serves, built by
//!   podium-sim's [`build_initial`]: 32 properties, 6 scores per user at
//!   the scenario's bucket scores, equal-width buckets (96 groups, each
//!   user in 6);
//! * `sparse` — `n / 2` overlapping groups of 3–18 users drawn uniformly,
//!   the size a property bucket reaches on the review datasets, with no
//!   bucketing pass.
//!
//! Each cell times both strategies by the rule of [`crate::timing`]: the
//! median of [`CALLS`] interleaved calls. Both read the same exact
//! marginals and break ties to the smaller user id, so their selections
//! must be identical, scores bit for bit.

use podium_core::bucket::BucketingConfig;
use podium_core::engine::{select, CsrGraph, SelectSpec, Strategy};
use podium_core::greedy::TieBreak;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::rng::Rng;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::tripadvisor;
use podium_service::protocol::{num_f64, num_u64};
use podium_sim::population::build_initial;
use serde_json::Value;

use crate::serving_exp::serve_scenario;
use crate::timing::{interleaved_medians, CALLS};

/// Budgets swept: the paper's B and the serving benchmark's session B.
const BUDGETS: [usize; 2] = [8, 64];

/// Weight schemes swept, with their wire names.
const WEIGHTS: [(&str, WeightScheme); 2] = [
    ("lbs", WeightScheme::LinearBySize),
    ("iden", WeightScheme::Identical),
];

/// One engine's timing on one (instance, budget, weights) cell.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRow {
    /// Instance shape: `tripadvisor`, `serve` or `sparse`.
    pub instance: &'static str,
    /// Users in the instance.
    pub users: usize,
    /// Groups in the instance.
    pub groups: usize,
    /// User–group memberships (CSR edges).
    pub edges: usize,
    /// Selection budget.
    pub budget: usize,
    /// Weight scheme (`lbs` or `iden`); coverage is `Single`.
    pub weights: &'static str,
    /// `eager` (the scan) or `lazy` (CELF's heap, handing over to the
    /// scan).
    pub strategy: &'static str,
    /// Median wall time of one select call (µs).
    pub median_us: f64,
    /// Score of the selection.
    pub score: f64,
}

/// The three instance shapes at `scale` (1.0: 4,475 TripAdvisor users and
/// 10,000 users in the other two).
fn instances(scale: f64, seed: u64) -> [(&'static str, GroupSet); 3] {
    let users = ((10_000.0 * scale) as usize).max(100);
    let trip = tripadvisor(scale, seed).generate().repo;
    let trip_buckets = BucketingConfig::paper_default().bucketize(&trip);
    [
        ("tripadvisor", GroupSet::build(&trip, &trip_buckets)),
        ("serve", serve_groups(users, seed)),
        ("sparse", sparse_groups(users, seed)),
    ]
}

/// `configs/serve.json`'s population with `users` users, grouped by the
/// buckets the service is started with.
fn serve_groups(users: usize, seed: u64) -> GroupSet {
    let mut scenario = serve_scenario();
    scenario.population.users = users;
    let (repo, buckets, _) = build_initial(&scenario, &mut Rng::new(seed));
    GroupSet::build(&repo, &buckets)
}

/// `users / 2` overlapping groups of 3–18 members drawn uniformly.
fn sparse_groups(users: usize, seed: u64) -> GroupSet {
    let mut rng = Rng::new(seed);
    let memberships = (0..users / 2)
        .map(|_| {
            let size = 3 + rng.below(16);
            (0..size)
                .map(|_| UserId::from_index(rng.below(users)))
                .collect()
        })
        .collect();
    GroupSet::from_memberships(users, memberships)
}

/// Selects once under `spec`, keeping the users and the score.
fn call(
    inst: &DiversificationInstance<'_, f64>,
    csr: &CsrGraph,
    spec: &SelectSpec<'_>,
    out: &mut (Vec<UserId>, f64),
) {
    let selection = select(inst, csr, spec).expect("a plain select completes");
    *out = (selection.users, selection.score);
}

/// Times eager and lazy on every instance × budget × weights cell: two
/// rows per cell, eager first.
pub fn run(scale: f64, seed: u64) -> Vec<EngineRow> {
    let mut rows = Vec::new();
    for (instance, groups) in instances(scale, seed) {
        let csr = CsrGraph::from_group_set(&groups);
        for budget in BUDGETS {
            for (weights, scheme) in WEIGHTS {
                let inst = DiversificationInstance::from_schemes(
                    &groups,
                    scheme,
                    CovScheme::Single,
                    budget,
                );
                let scan = Strategy::Eager {
                    tie_break: TieBreak::FirstUser,
                };
                let (eager_spec, lazy_spec) = (
                    SelectSpec::new(budget, scan),
                    SelectSpec::new(budget, Strategy::Lazy),
                );
                let (mut eager, mut lazy) = ((Vec::new(), 0.0), (Vec::new(), 0.0));
                let [eager_time, lazy_time] = interleaved_medians([
                    &mut || call(&inst, &csr, &eager_spec, &mut eager),
                    &mut || call(&inst, &csr, &lazy_spec, &mut lazy),
                ]);
                assert!(
                    eager.0 == lazy.0 && eager.1.to_bits() == lazy.1.to_bits(),
                    "eager and lazy select the same users and score on {instance}, \
                     B = {budget}, {weights}"
                );
                for (strategy, median, score) in
                    [("eager", eager_time, eager.1), ("lazy", lazy_time, lazy.1)]
                {
                    rows.push(EngineRow {
                        instance,
                        users: groups.user_count(),
                        groups: groups.len(),
                        edges: csr.edge_count(),
                        budget,
                        weights,
                        strategy,
                        median_us: median.as_secs_f64() * 1e6,
                        score,
                    });
                }
            }
        }
    }
    rows
}

/// The printed table: one line per cell, eager and lazy side by side.
pub fn render(rows: &[EngineRow]) -> String {
    let mut out = format!(
        "\nengine timing (median of {CALLS} interleaved calls on one prebuilt CSR, \u{b5}s):\n\
         {:>13} {:>6} {:>6} {:>7} {:>3} {:>5} {:>9} {:>9} {:>12}\n",
        "instance", "users", "groups", "edges", "B", "w", "eager", "lazy", "score"
    );
    for pair in rows.chunks(2) {
        if let [eager, lazy] = pair {
            out.push_str(&format!(
                "{:>13} {:>6} {:>6} {:>7} {:>3} {:>5} {:>9.0} {:>9.0} {:>12.1}\n",
                eager.instance,
                eager.users,
                eager.groups,
                eager.edges,
                eager.budget,
                eager.weights,
                eager.median_us,
                lazy.median_us,
                eager.score
            ));
        }
    }
    out
}

/// The checked-in artifact (`podium.bench-ablation/1`): one row per
/// engine and cell.
pub fn bench20_json(rows: &[EngineRow], scale: f64, seed: u64) -> serde_json::Result<String> {
    let count = |n: usize| num_u64(u64::try_from(n).unwrap_or(u64::MAX));
    let row = |r: &EngineRow| {
        Value::Object(vec![
            ("instance".to_owned(), Value::String(r.instance.to_owned())),
            ("users".to_owned(), count(r.users)),
            ("groups".to_owned(), count(r.groups)),
            ("edges".to_owned(), count(r.edges)),
            ("budget".to_owned(), count(r.budget)),
            ("weights".to_owned(), Value::String(r.weights.to_owned())),
            ("strategy".to_owned(), Value::String(r.strategy.to_owned())),
            ("median_us".to_owned(), num_f64(r.median_us)),
            ("score".to_owned(), num_f64(r.score)),
        ])
    };
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::String("ablation".to_owned())),
        (
            "schema".to_owned(),
            Value::String("podium.bench-ablation/1".to_owned()),
        ),
        ("scale".to_owned(), num_f64(scale)),
        ("seed".to_owned(), num_u64(seed)),
        ("calls".to_owned(), count(CALLS)),
        (
            "rows".to_owned(),
            Value::Array(rows.iter().map(row).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_has_equal_eager_and_lazy_scores() {
        let rows = run(0.02, 7);
        assert_eq!(rows.len(), 3 * BUDGETS.len() * WEIGHTS.len() * 2);
        for pair in rows.chunks(2) {
            let [eager, lazy] = pair else { unreachable!() };
            assert_eq!((eager.strategy, lazy.strategy), ("eager", "lazy"));
            assert_eq!(eager.score.to_bits(), lazy.score.to_bits(), "{pair:?}");
            assert!(eager.median_us > 0.0 && lazy.median_us > 0.0, "{pair:?}");
        }
        let doc: Value = serde_json::from_str(&bench20_json(&rows, 0.02, 7).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("podium.bench-ablation/1")
        );
        assert_eq!(
            doc.get("rows").and_then(Value::as_array).map(Vec::len),
            Some(rows.len())
        );
    }
}
