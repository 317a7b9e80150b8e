//! `offline_pipeline`: the analyst's offline path, with no service code.
//! Back-to-back repetitions on one thread, each loading the JSON text of
//! Fig. 5's largest point (8,000 users, about 15 MB) and running
//! `profiles_from_json` → `Podium::new().fit` → `.select(8)` →
//! `.explain(8, &selection, 200)`. The first, cold repetition is the
//! set-up time and stays out of the percentiles.

use std::hint::black_box;
use std::time::Instant;

use podium_core::bucket::BucketingConfig;
use podium_core::pipeline::Podium;
use podium_core::profile::UserRepository;
use podium_data::json::{profiles_from_json, profiles_to_json};

use super::{micros, names, op_percentiles, Check, Outcome, Plan};
use crate::host::Probes;
use crate::inputs::fig5_config;
use crate::rng::Digest;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Slate size.
const BUDGET: usize = 8;
/// Explanation depth.
const TOP_K: usize = 200;

/// One repetition: the selected names, the repository it loaded, and its
/// duration in µs.
fn repetition(
    text: &str,
    request: u64,
    tracer: &Tracer,
) -> Result<(Vec<String>, f64, UserRepository, f64), String> {
    let t0 = Instant::now();
    let repo = profiles_from_json(text).map_err(|e| format!("profiles_from_json: {e}"))?;
    let t1 = Instant::now();
    let fitted = Podium::new().fit(&repo);
    let t2 = Instant::now();
    let selection = fitted.select(BUDGET);
    let t3 = Instant::now();
    black_box(fitted.explain(BUDGET, &selection, TOP_K));
    let t4 = Instant::now();
    let mut spans = tracer.request(request);
    let root = spans.span(0, "pipeline", t0, t4);
    spans.span(root, "json.load", t0, t1);
    spans.span(root, "pipeline.fit", t1, t2);
    spans.span(root, "pipeline.select", t2, t3);
    spans.span(root, "pipeline.explain", t3, t4);
    tracer.commit(spans);
    let picked = names(&repo, &selection.users);
    drop(fitted);
    Ok((picked, selection.score, repo, micros(t0, t4)))
}

/// Runs the workload. The host probe runs between repetitions.
pub fn run(plan: &Plan, tracer: &Tracer, mut probes: Probes) -> Result<Outcome, String> {
    let dataset = fig5_config(plan.seed, plan.quick).generate();
    let text = profiles_to_json(&dataset.repo).map_err(|e| format!("profiles_to_json: {e}"))?;
    drop(dataset);
    let mut digest = Digest::default();
    digest.write(text.as_bytes());

    // A process runs the pipeline cold once only, so there is one set-up.
    probes.boundary();
    let (first, score, _, cold_us) = repetition(&text, 0, tracer)?;
    probes.boundary();
    let setups = vec![(cold_us / 1e6, probes.factor(0))];
    probes.clear();
    let mut latency = Samples::default();
    let mut changed = 0u64;
    let mut repo = UserRepository::new();
    let start = Instant::now();
    let mut window = probes.boundary();
    while start.elapsed() < plan.window {
        let (picked, s, r, us) = repetition(&text, latency.len() as u64 + 1, tracer)?;
        if picked != first || s != score {
            changed += 1;
        }
        latency.push(window, us);
        repo = r;
        window = probes.boundary();
    }
    let peak_rss_mb = super::peak_rss_mb();

    let lazy = Podium::new().lazy(true).fit(&repo).select(BUDGET);
    let lazy_names = names(&repo, &lazy.users);
    let checks = vec![
        Check {
            name: "offline_pipeline.repeatable",
            passed: changed == 0,
            detail: format!(
                "{changed} of {} repetitions selected differently from the first",
                latency.len()
            ),
        },
        Check {
            name: "offline_pipeline.matches_lazy",
            passed: lazy_names == first && lazy.score == score,
            detail: format!(
                "eager {first:?} score {score} / lazy {lazy_names:?} score {}",
                lazy.score
            ),
        },
    ];
    let details = op_percentiles("pipeline", 90, &latency.scaled(&probes), "ms").to_vec();
    Ok(Outcome {
        attempted: latency.len() as u64 + 1,
        failed: 0,
        checks,
        setups,
        ops: latency.per_window(),
        latency,
        probes,
        peak_rss_mb,
        tail: 80.0,
        details,
        digest: digest.finish(),
        final_input: tracer
            .enabled()
            .then(|| (repo, BucketingConfig::adaptive_default())),
    })
}
