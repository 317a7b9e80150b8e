//! Greedy engine timing: Algorithm 1's eager scan against CELF on one
//! prebuilt CSR per instance, written to `BENCH_20.json`.
//!
//! The paper's greedy is Algorithm 1 (§4); serving runs CELF. Which loop
//! is faster depends on the instance's shape and weights, so the sweep
//! covers three shapes:
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
//! Each cell times both engines [`CALLS`] times, interleaved with the
//! first engine alternating, and keeps the median. Both engines keep the
//! same exact marginals and break ties to the smaller user id, so their
//! selections must be identical, scores bit for bit.

use std::time::Instant;

use podium_core::bucket::BucketingConfig;
use podium_core::engine::{select, CsrGraph, SelectSpec, Strategy};
use podium_core::greedy::TieBreak;
use podium_core::group::GroupSet;
use podium_core::ids::UserId;
use podium_core::instance::DiversificationInstance;
use podium_core::rng::splitmix64;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_data::synth::tripadvisor;
use podium_service::protocol::{num_f64, num_u64};
use podium_sim::population::build_initial;
use podium_sim::rng::SimRng;
use serde_json::Value;

use crate::serving_exp::serve_scenario;

/// Calls per engine and cell; the median of an odd count is one call.
pub const CALLS: usize = 31;

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
    /// `eager` (Algorithm 1's scan) or `lazy` (CELF).
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
    let (repo, buckets, _) = build_initial(&scenario, &mut SimRng::new(seed));
    GroupSet::build(&repo, &buckets)
}

/// `users / 2` overlapping groups of 3–18 members drawn uniformly.
fn sparse_groups(users: usize, seed: u64) -> GroupSet {
    let mut state = seed;
    let mut draw =
        |bound: usize| usize::try_from(splitmix64(&mut state)).unwrap_or(usize::MAX) % bound;
    let memberships = (0..users / 2)
        .map(|_| {
            let size = 3 + draw(16);
            (0..size).map(|_| UserId::from_index(draw(users))).collect()
        })
        .collect();
    GroupSet::from_memberships(users, memberships)
}

/// One engine's calls on one cell and its last selection.
struct Engine<'s> {
    name: &'static str,
    spec: SelectSpec<'s>,
    micros: Vec<f64>,
    users: Vec<UserId>,
    score: f64,
}

impl<'s> Engine<'s> {
    fn new(name: &'static str, spec: SelectSpec<'s>) -> Self {
        Self {
            name,
            spec,
            micros: Vec::with_capacity(CALLS),
            users: Vec::new(),
            score: 0.0,
        }
    }

    fn call(&mut self, inst: &DiversificationInstance<'_, f64>, csr: &CsrGraph) {
        let t0 = Instant::now();
        let selection = select(inst, csr, &self.spec).expect("a plain select completes");
        self.micros.push(t0.elapsed().as_secs_f64() * 1e6);
        self.users = selection.users;
        self.score = selection.score;
    }

    /// The median call time (µs) and the score.
    fn into_median(mut self) -> (f64, f64) {
        self.micros.sort_by(f64::total_cmp);
        let median = self.micros.get(CALLS / 2).copied().unwrap_or(0.0);
        (median, self.score)
    }
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
                let eager_loop = Strategy::Eager {
                    tie_break: TieBreak::FirstUser,
                };
                let mut eager = Engine::new("eager", SelectSpec::new(budget, eager_loop));
                let mut lazy = Engine::new("lazy", SelectSpec::new(budget, Strategy::Lazy));
                for call in 0..CALLS {
                    // Alternate the first engine so a change in the
                    // host's load hits both alike.
                    let (first, second) = if call.is_multiple_of(2) {
                        (&mut eager, &mut lazy)
                    } else {
                        (&mut lazy, &mut eager)
                    };
                    first.call(&inst, &csr);
                    second.call(&inst, &csr);
                }
                assert!(
                    eager.users == lazy.users && eager.score.to_bits() == lazy.score.to_bits(),
                    "eager and lazy select the same users and score on {instance}, \
                     B = {budget}, {weights}"
                );
                for engine in [eager, lazy] {
                    let strategy = engine.name;
                    let (median_us, score) = engine.into_median();
                    rows.push(EngineRow {
                        instance,
                        users: groups.user_count(),
                        groups: groups.len(),
                        edges: csr.edge_count(),
                        budget,
                        weights,
                        strategy,
                        median_us,
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
