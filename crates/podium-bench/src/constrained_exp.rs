//! Constrained-selection experiment (`BENCH_9.json`): quota-constrained
//! lazy greedy vs. the same slate refined by seeded simulated annealing
//! at a matched wall-clock budget.
//!
//! For each quota tightness level the experiment times the
//! feasibility-aware greedy, calibrates the annealer's step count so one
//! refinement pass spends roughly the wall-clock the greedy did (a probe
//! run measures the per-step cost), and reports both scores. Every time
//! is a median of interleaved calls by the rule of [`crate::timing`]
//! (the greedy's alternating with the probe's), so the step budget comes
//! from the greedy's median call. The
//! annealer's best-so-far guarantee makes `anneal_score >= greedy_score`
//! an invariant, so `improvement_pct` is never negative; what the
//! artifact actually measures is how much of the constrained gap a
//! time-matched refinement pass recovers at each tightness.

use std::hint::black_box;

use podium_core::bucket::BucketingConfig;
use podium_core::engine::{
    anneal_refine, constrained_lazy_select, AnnealSchedule, CsrGraph, Quota, QuotaBound, QuotaSet,
};
use podium_core::group::GroupSet;
use podium_core::instance::DiversificationInstance;
use podium_core::weights::{CovScheme, WeightScheme};
use podium_service::protocol::{num_f64, num_u64};
use serde_json::Value;

use crate::datasets;
use crate::timing::interleaved_medians;

/// Step count of the calibration probe. Small enough to be cheap next
/// to the measured run, large enough to average out timer noise.
const PROBE_STEPS: u32 = 4096;
/// Calibrated step counts are clamped into this window so a very fast
/// (or very slow) greedy still produces a meaningful refinement pass.
const STEP_RANGE: (u32, u32) = (1024, 1 << 20);

/// One row of the tightness sweep.
#[derive(Debug, Clone)]
pub struct ConstrainedRow {
    /// Human label for the quota mix ("loose", "mixed", "tight").
    pub tightness: &'static str,
    /// Number of quota'd groups.
    pub quotas: usize,
    /// Whether a feasible slate exists (rows can legitimately be
    /// infeasible at the tight end; scores are then absent).
    pub feasible: bool,
    /// Constrained greedy score.
    pub greedy_score: f64,
    /// Constrained greedy wall-clock, milliseconds.
    pub greedy_ms: f64,
    /// Score after the time-matched annealing pass.
    pub anneal_score: f64,
    /// Annealing wall-clock, milliseconds.
    pub anneal_ms: f64,
    /// Calibrated step count the annealer actually ran.
    pub anneal_steps: u32,
    /// `100 * (anneal - greedy) / greedy` (0 when greedy scored 0).
    pub improvement_pct: f64,
}

/// The full experiment result.
#[derive(Debug, Clone)]
pub struct ConstrainedReport {
    /// Users in the instance.
    pub users: usize,
    /// Groups in the instance.
    pub groups: usize,
    /// Selection budget.
    pub budget: usize,
    /// Base seed (annealer streams derive from it).
    pub seed: u64,
    /// One row per tightness level.
    pub rows: Vec<ConstrainedRow>,
}

/// The quota mixes swept, from least to most binding: floors pull small
/// groups into the slate, ceilings cap how much of it the biggest
/// groups may occupy.
fn quota_mixes(by_size: &[(u32, usize)], budget: usize) -> Vec<(&'static str, Vec<Quota>)> {
    let floor = |group: u32| Quota {
        group,
        min: QuotaBound::Count(1),
        max: None,
    };
    let ceiling = |group: u32, r: f64| Quota {
        group,
        min: QuotaBound::Count(0),
        max: Some(QuotaBound::Ratio(r)),
    };
    // Floors go on the smallest non-trivial groups (greedy would skip
    // them on its own), ceilings on the largest (greedy over-draws from
    // them), so the quotas actually bind.
    let small: Vec<u32> = by_size
        .iter()
        .filter(|&&(_, size)| size >= 2)
        .map(|&(g, _)| g)
        .take(4)
        .collect();
    let large: Vec<u32> = by_size.iter().rev().map(|&(g, _)| g).take(2).collect();
    let mut mixes = Vec::new();
    let loose: Vec<Quota> = small.iter().take(2).map(|&g| floor(g)).collect();
    mixes.push(("loose", loose));
    let mut mixed: Vec<Quota> = small.iter().take(3).map(|&g| floor(g)).collect();
    if let Some(&g) = large.first() {
        mixed.push(ceiling(g, 0.5));
    }
    mixes.push(("mixed", mixed));
    let mut tight: Vec<Quota> = small
        .iter()
        .take(budget.min(4))
        .map(|&g| floor(g))
        .collect();
    for &g in &large {
        tight.push(ceiling(g, 0.5));
    }
    mixes.push(("tight", tight));
    // Distinct groups only: with very few groups "small" and "large"
    // overlap and QuotaSet::build would reject the duplicate.
    for (_, quotas) in &mut mixes {
        quotas.sort_by_key(|q| q.group);
        quotas.dedup_by_key(|q| q.group);
    }
    mixes
}

/// Runs the tightness sweep on the TripAdvisor-like dataset.
pub fn run(scale: f64, budget: usize, seed: u64) -> ConstrainedReport {
    let dataset = datasets::ta_dataset(scale, seed);
    let repo = &dataset.repo;
    let buckets = BucketingConfig::adaptive_default().bucketize(repo);
    let groups = GroupSet::build(repo, &buckets);
    let inst = DiversificationInstance::from_schemes(
        &groups,
        WeightScheme::LinearBySize,
        CovScheme::Single,
        budget,
    );
    let csr = CsrGraph::from_group_set(&groups);

    let mut by_size: Vec<(u32, usize)> = groups
        .iter()
        .map(|(g, grp)| (g.0, grp.members.len()))
        .collect();
    by_size.sort_by_key(|&(g, size)| (size, g));

    let mut rows = Vec::new();
    for (tightness, quotas) in quota_mixes(&by_size, budget) {
        let quota_count = quotas.len();
        let quota_set = QuotaSet::build(quotas, groups.len(), budget)
            .expect("swept quota mixes are well-formed by construction");
        let greedy = match constrained_lazy_select(&inst, &csr, budget, &quota_set) {
            Ok(sel) => sel,
            Err(_) => {
                rows.push(ConstrainedRow {
                    tightness,
                    quotas: quota_count,
                    feasible: false,
                    greedy_score: 0.0,
                    greedy_ms: 0.0,
                    anneal_score: 0.0,
                    anneal_ms: 0.0,
                    anneal_steps: 0,
                    improvement_pct: 0.0,
                });
                continue;
            }
        };
        // Temperature that makes swaps losing one smallest marginal
        // gain plausible early on, then cools geometrically.
        let temp = greedy
            .gains
            .last()
            .copied()
            .unwrap_or(1.0)
            .max(f64::MIN_POSITIVE);
        // Probe: measure the per-step cost so the real pass can be
        // budgeted to roughly the greedy's own wall-clock.
        let probe = AnnealSchedule {
            seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            steps: PROBE_STEPS,
            t0: temp,
            cooling: 0.999,
        };
        let [greedy_time, probe_time] = interleaved_medians([
            &mut || {
                drop(black_box(constrained_lazy_select(
                    &inst, &csr, budget, &quota_set,
                )))
            },
            &mut || {
                drop(black_box(anneal_refine(
                    &inst, &csr, &quota_set, &greedy, &probe,
                )))
            },
        ]);
        let greedy_secs = greedy_time.as_secs_f64();
        let per_step = probe_time.as_secs_f64().max(1e-9) / f64::from(PROBE_STEPS);
        // podium-lint: allow(as-cast) — clamped into STEP_RANGE (far below
        // u32::MAX) before the cast
        let steps = ((greedy_secs / per_step) as u32).clamp(STEP_RANGE.0, STEP_RANGE.1);

        let schedule = AnnealSchedule {
            seed,
            steps,
            t0: temp,
            cooling: 0.999,
        };
        let mut annealed = greedy.clone();
        let [anneal_time] = interleaved_medians([&mut || {
            annealed = anneal_refine(&inst, &csr, &quota_set, &greedy, &schedule);
        }]);
        let anneal_secs = anneal_time.as_secs_f64();

        let improvement_pct = if greedy.score > 0.0 {
            100.0 * (annealed.score - greedy.score) / greedy.score
        } else {
            0.0
        };
        rows.push(ConstrainedRow {
            tightness,
            quotas: quota_count,
            feasible: true,
            greedy_score: greedy.score,
            greedy_ms: greedy_secs * 1e3,
            anneal_score: annealed.score,
            anneal_ms: anneal_secs * 1e3,
            anneal_steps: steps,
            improvement_pct,
        });
    }

    ConstrainedReport {
        users: repo.user_count(),
        groups: groups.len(),
        budget,
        seed,
        rows,
    }
}

/// Renders the report in the driver's table style.
pub fn render(report: &ConstrainedReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "instance: {} users, {} groups, budget {}, seed {}",
        report.users, report.groups, report.budget, report.seed
    );
    let _ = writeln!(
        out,
        "{:>8} {:>7} {:>13} {:>10} {:>13} {:>10} {:>9} {:>8}",
        "quotas",
        "groups",
        "greedy score",
        "greedy ms",
        "anneal score",
        "anneal ms",
        "steps",
        "gain"
    );
    for r in &report.rows {
        if r.feasible {
            let _ = writeln!(
                out,
                "{:>8} {:>7} {:>13.1} {:>10.2} {:>13.1} {:>10.2} {:>9} {:>7.2}%",
                r.tightness,
                r.quotas,
                r.greedy_score,
                r.greedy_ms,
                r.anneal_score,
                r.anneal_ms,
                r.anneal_steps,
                r.improvement_pct
            );
        } else {
            let _ = writeln!(
                out,
                "{:>8} {:>7} {:>13}",
                r.tightness, r.quotas, "infeasible"
            );
        }
    }
    out
}

fn row_value(r: &ConstrainedRow) -> Value {
    Value::Object(vec![
        (
            "tightness".to_owned(),
            Value::String(r.tightness.to_owned()),
        ),
        ("quotas".to_owned(), num_u64(r.quotas as u64)),
        ("feasible".to_owned(), Value::Bool(r.feasible)),
        ("greedy_score".to_owned(), num_f64(r.greedy_score)),
        ("greedy_ms".to_owned(), num_f64(r.greedy_ms)),
        ("anneal_score".to_owned(), num_f64(r.anneal_score)),
        ("anneal_ms".to_owned(), num_f64(r.anneal_ms)),
        (
            "anneal_steps".to_owned(),
            num_u64(u64::from(r.anneal_steps)),
        ),
        ("improvement_pct".to_owned(), num_f64(r.improvement_pct)),
    ])
}

/// Serializes the sweep as the `BENCH_9.json` artifact.
pub fn bench9_json(report: &ConstrainedReport) -> serde_json::Result<String> {
    let doc = Value::Object(vec![
        ("bench".to_owned(), Value::String("constrained".to_owned())),
        (
            "schema".to_owned(),
            Value::String("podium.bench-constrained/1".to_owned()),
        ),
        ("users".to_owned(), num_u64(report.users as u64)),
        ("groups".to_owned(), num_u64(report.groups as u64)),
        ("budget".to_owned(), num_u64(report.budget as u64)),
        ("seed".to_owned(), num_u64(report.seed)),
        (
            "rows".to_owned(),
            Value::Array(report.rows.iter().map(row_value).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc)
}

/// The status-row `details`: one line, greppable for the per-tightness
/// greedy-vs-anneal outcome without rerunning.
pub fn details_json(report: &ConstrainedReport) -> String {
    serde_json::to_string(&Value::Object(vec![(
        "rows".to_owned(),
        Value::Array(report.rows.iter().map(row_value).collect()),
    )]))
    .expect("details serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_reports_all_mixes_and_anneal_never_loses() {
        let report = run(0.05, 4, 2020);
        assert_eq!(report.rows.len(), 3, "{report:?}");
        assert!(
            report.rows.iter().any(|r| r.feasible),
            "at least one mix is feasible: {report:?}"
        );
        for r in &report.rows {
            if r.feasible {
                assert!(
                    r.anneal_score >= r.greedy_score,
                    "best-so-far annealing cannot lose: {r:?}"
                );
                assert!(r.anneal_steps >= STEP_RANGE.0);
                assert!(r.improvement_pct >= 0.0);
            }
        }
        let table = render(&report);
        assert!(table.contains("greedy score"), "{table}");
        assert!(table.contains("loose"), "{table}");
    }

    #[test]
    fn artifact_and_details_are_valid_json() {
        let report = ConstrainedReport {
            users: 100,
            groups: 40,
            budget: 8,
            seed: 7,
            rows: vec![
                ConstrainedRow {
                    tightness: "loose",
                    quotas: 2,
                    feasible: true,
                    greedy_score: 123.0,
                    greedy_ms: 1.5,
                    anneal_score: 125.0,
                    anneal_ms: 1.4,
                    anneal_steps: 2048,
                    improvement_pct: 1.6,
                },
                ConstrainedRow {
                    tightness: "tight",
                    quotas: 6,
                    feasible: false,
                    greedy_score: 0.0,
                    greedy_ms: 0.0,
                    anneal_score: 0.0,
                    anneal_ms: 0.0,
                    anneal_steps: 0,
                    improvement_pct: 0.0,
                },
            ],
        };
        let doc: Value = serde_json::from_str(&bench9_json(&report).unwrap()).unwrap();
        assert_eq!(
            doc.get("bench").and_then(Value::as_str),
            Some("constrained")
        );
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("podium.bench-constrained/1")
        );
        assert_eq!(
            doc.get("rows").and_then(Value::as_array).map(Vec::len),
            Some(2)
        );
        let details = details_json(&report);
        assert!(
            !details.contains('\n'),
            "status-row details must be one line"
        );
        let doc: Value = serde_json::from_str(&details).unwrap();
        let rows = doc.get("rows").and_then(Value::as_array).unwrap();
        assert_eq!(rows[0].get("feasible"), Some(&Value::Bool(true)));
        assert_eq!(rows[1].get("feasible"), Some(&Value::Bool(false)));
    }
}
