//! `hot_select`: a closed loop of one in-process client rotating four
//! `select` parameter sets, with no writes. After the warm-up every
//! select is a memo hit, so the request path (decode, queue wait,
//! snapshot capture, memo lookup and clone, encode) is the whole cost and
//! CELF, publish and the WAL do no work: an engine change must show no
//! change here.

use std::time::{Duration, Instant};

use podium_core::bucket::BucketingConfig;
use podium_core::weights::WeightScheme;

use super::{
    is_ok, log_failure, micros, op_percentiles, reference, same_selection, served, setup_inproc,
    Check, Clock, Metric, Outcome, Plan, SUBWINDOWS,
};
use crate::host::Probes;
use crate::inputs::{repo_digest, select_line, serving_repo};
use crate::rng::Digest;
use crate::stats::Samples;
use crate::trace::Tracer;

/// Budget 8/16 × LBS/Identical weights, rotated by the client.
const PARAMS: [(u64, &str, WeightScheme); 4] = [
    (8, "lbs", WeightScheme::LinearBySize),
    (16, "lbs", WeightScheme::LinearBySize),
    (8, "iden", WeightScheme::Identical),
    (16, "iden", WeightScheme::Identical),
];

/// A traced run records the spans of one request in this many.
const TRACE_EVERY: u64 = 16;

/// The `"users":[…],"score":…` part of a select response.
fn selection_part(response: &str) -> Option<&str> {
    let start = response.find("\"users\":")?;
    let end = response.find(",\"elapsed_us\":")?;
    response.get(start..end)
}

/// The response's `elapsed_us` (time inside the service's select path).
pub fn elapsed_us(response: &str) -> Option<f64> {
    let rest = &response[response.find("\"elapsed_us\":")? + "\"elapsed_us\":".len()..];
    let digits = rest.split(|c: char| !c.is_ascii_digit()).next()?;
    digits.parse().ok()
}

/// Runs the workload. One client, on this thread: with two, four threads
/// competed for two CPUs and where the scheduler placed them moved the
/// median latency by 15% from run to run (3% with one). The client runs
/// the host probe itself at each sub-window boundary, when no request is
/// in flight.
pub fn run(plan: &Plan, tracer: &Tracer, mut probes: Probes) -> Outcome {
    let repo = serving_repo(plan.seed, plan.quick);
    let lines: Vec<String> = PARAMS.iter().map(|(b, w, _)| select_line(*b, w)).collect();
    let mut digest = Digest::default();
    repo_digest(&repo, &mut digest);
    for l in &lines {
        digest.write(l.as_bytes());
    }
    let ((service, _buckets), setups) = setup_inproc(&repo, &mut probes);

    let clock = Clock::new(plan);
    let mut latency = Samples::default();
    let (mut attempted, mut failed, mut mismatches) = (0u64, 0u64, 0u64);
    // The `users`/`score` part of the first response per parameter set.
    let mut served_part: [Option<String>; 4] = Default::default();
    let mut window = None;
    let mut next_boundary = 0;
    for i in 0u64.. {
        let p = (i % PARAMS.len() as u64) as usize;
        if Instant::now() >= clock.boundary(next_boundary) {
            probes.boundary();
            if next_boundary == SUBWINDOWS {
                break;
            }
            window = Some(next_boundary as usize);
            next_boundary += 1;
        }
        let t0 = Instant::now();
        let response = service.handle_line(&lines[p]);
        let t1 = Instant::now();
        attempted += 1;
        match (is_ok(&response), selection_part(&response)) {
            (true, Some(part)) => match &served_part[p] {
                None => served_part[p] = Some(part.to_owned()),
                Some(first) if first != part => mismatches += 1,
                Some(_) => {}
            },
            _ => {
                log_failure("hot_select", &response);
                failed += 1;
            }
        }
        if let Some(w) = window {
            latency.push(w, micros(t0, t1));
            if tracer.enabled() && i % TRACE_EVERY == 0 {
                let mut spans = tracer.request(i);
                let root = spans.span(0, "select", t0, t1);
                if let Some(e) = elapsed_us(&response) {
                    let inner = t1 - Duration::from_secs_f64(e / 1e6).min(t1 - t0);
                    spans.span(root, "service.select", inner, t1);
                }
                tracer.commit(spans);
            }
        }
    }
    let peak_rss_mb = super::peak_rss_mb();

    let mut checks = vec![Check {
        name: "hot_select.stable_responses",
        passed: mismatches == 0,
        detail: format!("{mismatches} responses differed from the first of their parameter set"),
    }];
    for weights in [WeightScheme::LinearBySize, WeightScheme::Identical] {
        let sets: Vec<usize> = (0..PARAMS.len())
            .filter(|&p| PARAMS[p].2 == weights)
            .collect();
        let budgets: Vec<usize> = sets.iter().map(|&p| PARAMS[p].0 as usize).collect();
        for (p, want) in sets.into_iter().zip(reference(&repo, weights, &budgets)) {
            let got = served_part[p]
                .as_deref()
                .and_then(|part| serde_json::from_str(&format!("{{{part}}}")).ok())
                .and_then(|v| served(&v))
                .unwrap_or_default();
            checks.push(same_selection("hot_select.matches_reference", &got, &want));
        }
    }

    let mut details = vec![Metric::new(
        "select_rps",
        "req/s",
        latency.len() as f64 / plan.window.as_secs_f64(),
        latency.len(),
    )];
    details.extend(op_percentiles("select", 99, &latency.scaled(&probes), "us"));
    details.extend(super::stats_details(&service));
    Outcome {
        attempted,
        failed,
        checks,
        setups,
        ops: latency.per_window(),
        latency,
        probes,
        peak_rss_mb,
        tail: 99.0,
        details,
        digest: digest.finish(),
        final_input: tracer
            .enabled()
            .then(|| (repo, BucketingConfig::paper_default())),
    }
}
