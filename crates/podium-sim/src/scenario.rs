//! Versioned scenario definitions.
//!
//! A scenario is a JSON document (checked in under `configs/`) tagged
//! `"schema": "podium.scenario/1"` that fixes every stochastic knob of
//! a simulation: population shape, process rates, the opinion-drift
//! Markov matrix, session mix, closed-loop client count, and the service
//! configuration under test. Together with a `--seed` it fully
//! determines the event trace.

use podium_core::engine::{AnnealSchedule, Quota, QuotaBound};
use serde_json::Value;

use crate::SimError;

/// The scenario schema tag this build understands.
pub const SCENARIO_SCHEMA: &str = "podium.scenario/1";

/// Initial-population shape.
#[derive(Debug, Clone)]
pub struct PopulationSpec {
    /// Users present at virtual time zero.
    pub users: usize,
    /// Distinct properties (`topic-0 … topic-{n-1}`).
    pub properties: usize,
    /// Scores per user (the rotating property window of
    /// [`podium_data::synth::assigned_property`]).
    pub scores_per_user: usize,
}

/// Opinion-drift process: per-(user, property) bucket states stepped by
/// a Markov transition matrix; a bucket change emits `update-profile`.
#[derive(Debug, Clone)]
pub struct DriftSpec {
    /// Drift-batch events per virtual second (Poisson).
    pub rate_hz: f64,
    /// Markov steps attempted per drift event (batching knob).
    pub batch: usize,
    /// Representative score for each bucket; `bucket_scores[i]` must
    /// fall inside equal-width bucket `i` of `[0, 1)`.
    pub bucket_scores: Vec<f64>,
    /// Row-stochastic transition matrix over the buckets.
    pub matrix: Vec<Vec<f64>>,
}

/// Session process: open → selects → refines → close.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// Session arrivals per virtual second (Poisson).
    pub rate_hz: f64,
    /// Plain selects per session before refinement starts.
    pub selects: usize,
    /// Refine rounds per session.
    pub refines: usize,
    /// Selection budget `B` for every select/refine in the session.
    pub budget: usize,
    /// Virtual think time between session steps, in milliseconds.
    pub think_ms: u64,
    /// Probability a select opts into bounded-staleness reads.
    pub stale_ok_prob: f64,
}

/// Quota constraints attached to a fraction of session selects.
#[derive(Debug, Clone)]
pub struct ConstraintSpec {
    /// Probability a session select carries the quota block.
    pub select_prob: f64,
    /// Quota windows shipped on constrained selects. Groups are
    /// validated against the scenario's static group universe
    /// (`population.properties × drift buckets`).
    pub quotas: Vec<Quota>,
    /// Optional annealing schedule for constrained selects.
    pub anneal: Option<AnnealSchedule>,
}

/// Service-under-test configuration.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Executor worker threads.
    pub workers: usize,
    /// Bounded queue capacity (admission control).
    pub queue_capacity: usize,
    /// Default per-request deadline in milliseconds.
    pub deadline_ms: u64,
}

/// A fully validated scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (reported in the rollup).
    pub name: String,
    /// Simulated horizon in virtual seconds.
    pub duration_s: f64,
    /// Initial population.
    pub population: PopulationSpec,
    /// User arrivals per virtual second (Poisson).
    pub arrival_rate_hz: f64,
    /// User departures per virtual second (Poisson).
    pub churn_rate_hz: f64,
    /// Opinion drift.
    pub drift: DriftSpec,
    /// Session mix.
    pub session: SessionSpec,
    /// Monitoring `stats` polls per virtual second.
    pub observer_rate_hz: f64,
    /// Service-under-test knobs.
    pub service: ServiceSpec,
    /// Quota constraints on session selects; `None` when the scenario
    /// has no `constraints` section.
    pub constraints: Option<ConstraintSpec>,
    /// Closed-loop clients, each sending `select` at `session.budget`
    /// back-to-back for the whole run. Any client paces the event loop
    /// to wall-clock time, so rates and `duration_s` become real.
    pub clients: usize,
}

fn bad(msg: impl Into<String>) -> SimError {
    SimError::Scenario(msg.into())
}

fn get_f64(obj: &Value, key: &str, default: f64) -> Result<f64, SimError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(format!("field '{key}' must be a number"))),
    }
}

fn get_usize(obj: &Value, key: &str, default: usize) -> Result<usize, SimError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .map(|n| n.min(usize::MAX as u64) as usize) // podium-lint: allow(as-cast) — clamped to usize::MAX first
            .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn get_u64(obj: &Value, key: &str, default: u64) -> Result<u64, SimError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| bad(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn section<'v>(root: &'v Value, key: &str) -> Result<Option<&'v Value>, SimError> {
    match root.get(key) {
        None => Ok(None),
        Some(v) if v.is_object() => Ok(Some(v)),
        Some(_) => Err(bad(format!("section '{key}' must be an object"))),
    }
}

/// Default drift matrix: sticky diagonal with symmetric spill.
fn default_matrix(k: usize) -> Vec<Vec<f64>> {
    let mut rows = Vec::with_capacity(k);
    for i in 0..k {
        let mut row = vec![0.0; k];
        let spill = 0.2 / ((k.saturating_sub(1)).max(1) as f64);
        for (j, cell) in row.iter_mut().enumerate() {
            *cell = if i == j { 0.8 } else { spill };
        }
        rows.push(row);
    }
    rows
}

/// Equal-width bucket midpoints for `k` buckets of `[0, 1)`.
fn default_bucket_scores(k: usize) -> Vec<f64> {
    (0..k).map(|i| (i as f64 + 0.5) / k as f64).collect()
}

/// Parses and validates a scenario document.
pub fn parse_scenario(text: &str) -> Result<Scenario, SimError> {
    let root: Value =
        serde_json::from_str(text).map_err(|e| bad(format!("scenario is not valid JSON: {e}")))?;
    if !root.is_object() {
        return Err(bad("scenario must be a JSON object"));
    }
    let schema = root
        .get("schema")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("scenario is missing the 'schema' tag"))?;
    if schema != SCENARIO_SCHEMA {
        return Err(bad(format!(
            "unsupported scenario schema '{schema}' (this build reads '{SCENARIO_SCHEMA}')"
        )));
    }
    let name = root
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("scenario is missing 'name'"))?
        .to_owned();
    let duration_s = get_f64(&root, "duration_s", 0.0)?;
    if duration_s <= 0.0 || !duration_s.is_finite() {
        return Err(bad("'duration_s' must be a positive number"));
    }

    let pop = section(&root, "population")?.ok_or_else(|| bad("missing 'population' section"))?;
    let population = PopulationSpec {
        users: get_usize(pop, "users", 0)?,
        properties: get_usize(pop, "properties", 0)?,
        scores_per_user: get_usize(pop, "scores_per_user", 0)?,
    };
    if population.users == 0 || population.properties == 0 || population.scores_per_user == 0 {
        return Err(bad(
            "'population.users', 'population.properties' and 'population.scores_per_user' must all be >= 1",
        ));
    }
    if population.scores_per_user > population.properties {
        return Err(bad(
            "'population.scores_per_user' cannot exceed 'population.properties'",
        ));
    }

    let arrival_rate_hz = match section(&root, "arrival")? {
        Some(s) => get_f64(s, "rate_hz", 0.0)?,
        None => 0.0,
    };
    let churn_rate_hz = match section(&root, "churn")? {
        Some(s) => get_f64(s, "rate_hz", 0.0)?,
        None => 0.0,
    };

    let drift = match section(&root, "drift")? {
        None => DriftSpec {
            rate_hz: 0.0,
            batch: 1,
            bucket_scores: default_bucket_scores(3),
            matrix: default_matrix(3),
        },
        Some(s) => parse_drift(s)?,
    };

    let session = match section(&root, "session")? {
        None => SessionSpec {
            rate_hz: 0.0,
            selects: 2,
            refines: 1,
            budget: 8,
            think_ms: 50,
            stale_ok_prob: 0.0,
        },
        Some(s) => {
            let spec = SessionSpec {
                rate_hz: get_f64(s, "rate_hz", 0.0)?,
                selects: get_usize(s, "selects", 2)?,
                refines: get_usize(s, "refines", 1)?,
                budget: get_usize(s, "budget", 8)?,
                think_ms: get_u64(s, "think_ms", 50)?,
                stale_ok_prob: get_f64(s, "stale_ok_prob", 0.0)?,
            };
            if spec.budget == 0 {
                return Err(bad("'session.budget' must be >= 1"));
            }
            if !(0.0..=1.0).contains(&spec.stale_ok_prob) {
                return Err(bad("'session.stale_ok_prob' must be in [0, 1]"));
            }
            spec
        }
    };

    let clients = get_usize(&root, "clients", 0)?;

    let observer_rate_hz = match section(&root, "observer")? {
        Some(s) => get_f64(s, "rate_hz", 1.0)?,
        None => 1.0,
    };

    let service = match section(&root, "service")? {
        None => ServiceSpec {
            workers: 2,
            queue_capacity: 64,
            deadline_ms: 2000,
        },
        Some(s) => ServiceSpec {
            workers: get_usize(s, "workers", 2)?.max(1),
            queue_capacity: get_usize(s, "queue_capacity", 64)?.max(1),
            deadline_ms: get_u64(s, "deadline_ms", 2000)?.max(1),
        },
    };

    for (label, rate) in [
        ("arrival.rate_hz", arrival_rate_hz),
        ("churn.rate_hz", churn_rate_hz),
        ("drift.rate_hz", drift.rate_hz),
        ("session.rate_hz", session.rate_hz),
        ("observer.rate_hz", observer_rate_hz),
    ] {
        if !rate.is_finite() || rate < 0.0 {
            return Err(bad(format!("'{label}' must be a finite non-negative rate")));
        }
    }

    let constraints = match section(&root, "constraints")? {
        None => None,
        Some(s) => Some(parse_constraints(
            s,
            population.properties,
            drift.bucket_scores.len(),
            session.budget,
        )?),
    };

    Ok(Scenario {
        name,
        duration_s,
        population,
        arrival_rate_hz,
        churn_rate_hz,
        drift,
        session,
        observer_rate_hz,
        service,
        constraints,
        clients,
    })
}

/// Parses and validates the `constraints` section. The static group
/// universe is `properties × buckets` (every property contributes one
/// group per drift bucket), so a quota naming a group outside it could
/// never be satisfiable. Errors name the exact offending field.
fn parse_constraints(
    s: &Value,
    properties: usize,
    buckets: usize,
    budget: usize,
) -> Result<ConstraintSpec, SimError> {
    let select_prob = get_f64(s, "select_prob", 1.0)?;
    if !(0.0..=1.0).contains(&select_prob) {
        return Err(bad("'constraints.select_prob' must be in [0, 1]"));
    }
    let universe = properties * buckets;
    let mut quotas: Vec<Quota> = Vec::new();
    let list = s
        .get("quotas")
        .ok_or_else(|| bad("'constraints' requires a 'quotas' array"))?
        .as_array()
        .ok_or_else(|| bad("'constraints.quotas' must be an array"))?;
    for (i, q) in list.iter().enumerate() {
        if !q.is_object() {
            return Err(bad(format!("'constraints.quotas[{i}]' must be an object")));
        }
        let group = q.get("group").and_then(Value::as_u64).ok_or_else(|| {
            bad(format!(
                "'constraints.quotas[{i}].group' must be a group id"
            ))
        })?;
        if group >= universe as u64 {
            return Err(bad(format!(
                "'constraints.quotas[{i}].group' = {group} is outside the scenario's group \
                 universe ({universe} groups: {properties} properties x {buckets} buckets)"
            )));
        }
        let group = group as u32;
        if quotas.iter().any(|prev| prev.group == group) {
            return Err(bad(format!(
                "'constraints.quotas[{i}].group' = {group} duplicates an earlier quota"
            )));
        }
        let min =
            parse_quota_bound(q, i, "min_count", "min_ratio")?.unwrap_or(QuotaBound::Count(0));
        let max = parse_quota_bound(q, i, "max_count", "max_ratio")?;
        // Resolve against the session budget (the budget every session
        // select uses) so min > max is caught at load time, not as a
        // per-request bad_request mid-run.
        let floor = resolve_bound(&min, budget, true);
        if floor > budget as u32 {
            return Err(bad(format!(
                "'constraints.quotas[{i}]': floor {floor} exceeds 'session.budget' ({budget})"
            )));
        }
        if let Some(max) = &max {
            let ceiling = resolve_bound(max, budget, false);
            if floor > ceiling {
                return Err(bad(format!(
                    "'constraints.quotas[{i}]': min resolves to {floor} but max resolves to \
                     {ceiling} at budget {budget} (empty window)"
                )));
            }
        }
        quotas.push(Quota { group, min, max });
    }
    let anneal = match s.get("anneal") {
        None | Some(Value::Null) => None,
        Some(a) => {
            if !a.is_object() {
                return Err(bad("'constraints.anneal' must be an object"));
            }
            let schedule = AnnealSchedule {
                seed: get_u64(a, "seed", 0)?,
                steps: get_u64(a, "steps", 0)?.min(u32::MAX as u64) as u32, // podium-lint: allow(as-cast) — clamped to u32::MAX first
                t0: get_f64(a, "t0", 0.0)?,
                cooling: get_f64(a, "cooling", 1.0)?,
            };
            if !schedule.t0.is_finite() || schedule.t0 < 0.0 {
                return Err(bad(
                    "'constraints.anneal.t0' must be a finite non-negative number",
                ));
            }
            if !(schedule.cooling > 0.0 && schedule.cooling <= 1.0) {
                return Err(bad("'constraints.anneal.cooling' must be in (0, 1]"));
            }
            Some(schedule)
        }
    };
    Ok(ConstraintSpec {
        select_prob,
        quotas,
        anneal,
    })
}

fn parse_quota_bound(
    q: &Value,
    i: usize,
    count_key: &str,
    ratio_key: &str,
) -> Result<Option<QuotaBound>, SimError> {
    match (q.get(count_key), q.get(ratio_key)) {
        (Some(_), Some(_)) => Err(bad(format!(
            "'constraints.quotas[{i}]': '{count_key}' and '{ratio_key}' are mutually exclusive"
        ))),
        (Some(v), None) => {
            let n = v.as_u64().ok_or_else(|| {
                bad(format!(
                    "'constraints.quotas[{i}].{count_key}' must be a non-negative integer"
                ))
            })?;
            Ok(Some(QuotaBound::Count(n.min(u32::MAX as u64) as u32))) // podium-lint: allow(as-cast) — clamped to u32::MAX first
        }
        (None, Some(v)) => {
            let r = v.as_f64().ok_or_else(|| {
                bad(format!(
                    "'constraints.quotas[{i}].{ratio_key}' must be a number"
                ))
            })?;
            if !(0.0..=1.0).contains(&r) {
                return Err(bad(format!(
                    "'constraints.quotas[{i}].{ratio_key}' must be in [0, 1]"
                )));
            }
            Ok(Some(QuotaBound::Ratio(r)))
        }
        (None, None) => Ok(None),
    }
}

/// Mirrors `QuotaSet::build`'s conservative ratio resolution: floors
/// round up, ceilings round down.
fn resolve_bound(bound: &QuotaBound, budget: usize, is_floor: bool) -> u32 {
    match bound {
        QuotaBound::Count(c) => *c,
        QuotaBound::Ratio(r) => {
            let exact = r * budget as f64;
            let resolved = if is_floor {
                exact.ceil()
            } else {
                exact.floor()
            };
            resolved.clamp(0.0, u32::MAX as f64) as u32 // podium-lint: allow(as-cast) — clamped first
        }
    }
}

fn parse_drift(s: &Value) -> Result<DriftSpec, SimError> {
    let rate_hz = get_f64(s, "rate_hz", 0.0)?;
    let batch = get_usize(s, "batch", 1)?.max(1);
    let matrix: Vec<Vec<f64>> = match s.get("matrix") {
        None => default_matrix(3),
        Some(v) => {
            let rows = v
                .as_array()
                .ok_or_else(|| bad("'drift.matrix' must be an array of rows"))?;
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let cells = row
                    .as_array()
                    .ok_or_else(|| bad("'drift.matrix' rows must be arrays of numbers"))?;
                let mut r = Vec::with_capacity(cells.len());
                for c in cells {
                    r.push(
                        c.as_f64()
                            .ok_or_else(|| bad("'drift.matrix' cells must be numbers"))?,
                    );
                }
                out.push(r);
            }
            out
        }
    };
    let k = matrix.len();
    if k < 2 {
        return Err(bad("'drift.matrix' needs at least 2 buckets"));
    }
    for row in &matrix {
        if row.len() != k {
            return Err(bad(format!(
                "'drift.matrix' must be square ({k} buckets, found a row of {})",
                row.len()
            )));
        }
        let mut sum = 0.0;
        for p in row {
            if !(0.0..=1.0).contains(p) {
                return Err(bad(
                    "'drift.matrix' entries must be probabilities in [0, 1]",
                ));
            }
            sum += *p;
        }
        if !(0.999..=1.001).contains(&sum) {
            return Err(bad(format!(
                "'drift.matrix' rows must sum to 1 (found {sum})"
            )));
        }
    }
    let bucket_scores: Vec<f64> = match s.get("bucket_scores") {
        None => default_bucket_scores(k),
        Some(v) => {
            let arr = v
                .as_array()
                .ok_or_else(|| bad("'drift.bucket_scores' must be an array of numbers"))?;
            let mut out = Vec::with_capacity(arr.len());
            for c in arr {
                out.push(
                    c.as_f64()
                        .ok_or_else(|| bad("'drift.bucket_scores' cells must be numbers"))?,
                );
            }
            out
        }
    };
    if bucket_scores.len() != k {
        return Err(bad(format!(
            "'drift.bucket_scores' must have one score per bucket ({k})"
        )));
    }
    for (i, score) in bucket_scores.iter().enumerate() {
        let lo = i as f64 / k as f64;
        let hi = (i as f64 + 1.0) / k as f64;
        if !(*score >= lo && *score < hi) {
            return Err(bad(format!(
                "'drift.bucket_scores[{i}]' = {score} must land inside equal-width bucket {i} \
                 ([{lo}, {hi}) for {k} buckets), so repository grouping matches drift state"
            )));
        }
    }
    Ok(DriftSpec {
        rate_hz,
        batch,
        bucket_scores,
        matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"{
        "schema": "podium.scenario/1",
        "name": "t",
        "duration_s": 1.0,
        "population": {"users": 10, "properties": 4, "scores_per_user": 2}
    }"#;

    #[test]
    fn minimal_scenario_defaults() {
        let s = parse_scenario(MINIMAL).unwrap();
        assert_eq!(s.name, "t");
        assert_eq!(s.population.users, 10);
        assert_eq!(s.arrival_rate_hz, 0.0);
        assert_eq!(s.drift.matrix.len(), 3);
        assert_eq!(s.drift.bucket_scores.len(), 3);
        assert_eq!(s.observer_rate_hz, 1.0);
        assert_eq!(s.service.workers, 2);
        assert_eq!(s.clients, 0, "no clients: an unpaced run");
    }

    #[test]
    fn clients_is_a_top_level_count() {
        let text = MINIMAL.replace(
            "\"duration_s\": 1.0,",
            "\"duration_s\": 1.0, \"clients\": 3,",
        );
        assert_eq!(parse_scenario(&text).unwrap().clients, 3);
        let text = MINIMAL.replace(
            "\"duration_s\": 1.0,",
            "\"duration_s\": 1.0, \"clients\": -1,",
        );
        let e = parse_scenario(&text).unwrap_err();
        assert!(e.to_string().contains("'clients'"), "{e}");
    }

    #[test]
    fn rejects_missing_or_wrong_schema() {
        let e = parse_scenario(r#"{"name":"x"}"#).unwrap_err();
        assert!(e.to_string().contains("schema"), "{e}");
        let e = parse_scenario(
            r#"{"schema":"podium.scenario/99","name":"x","duration_s":1,
                "population":{"users":1,"properties":1,"scores_per_user":1}}"#,
        )
        .unwrap_err();
        assert!(e.to_string().contains("podium.scenario/99"), "{e}");
    }

    #[test]
    fn rejects_non_square_matrix() {
        let text = r#"{
            "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
            "population": {"users": 2, "properties": 2, "scores_per_user": 1},
            "drift": {"rate_hz": 1.0, "matrix": [[0.5, 0.5], [1.0]]}
        }"#;
        let e = parse_scenario(text).unwrap_err();
        assert!(e.to_string().contains("square"), "{e}");
    }

    #[test]
    fn rejects_non_stochastic_rows() {
        let text = r#"{
            "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
            "population": {"users": 2, "properties": 2, "scores_per_user": 1},
            "drift": {"rate_hz": 1.0, "matrix": [[0.9, 0.2], [0.5, 0.5]]}
        }"#;
        let e = parse_scenario(text).unwrap_err();
        assert!(e.to_string().contains("sum to 1"), "{e}");
    }

    #[test]
    fn rejects_bucket_scores_outside_their_bucket() {
        let text = r#"{
            "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
            "population": {"users": 2, "properties": 2, "scores_per_user": 1},
            "drift": {"rate_hz": 1.0, "matrix": [[0.5,0.5],[0.5,0.5]],
                      "bucket_scores": [0.8, 0.9]}
        }"#;
        let e = parse_scenario(text).unwrap_err();
        assert!(e.to_string().contains("bucket_scores[0]"), "{e}");
    }

    #[test]
    fn rejects_oversubscribed_scores_per_user() {
        let text = r#"{
            "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
            "population": {"users": 2, "properties": 2, "scores_per_user": 3}
        }"#;
        assert!(parse_scenario(text).is_err());
    }

    /// Scenario skeleton with a pluggable `constraints` section:
    /// 4 properties × 2 drift buckets = an 8-group universe, budget 4.
    fn with_constraints(block: &str) -> Result<Scenario, SimError> {
        parse_scenario(&format!(
            r#"{{
                "schema": "podium.scenario/1", "name": "t", "duration_s": 1,
                "population": {{"users": 6, "properties": 4, "scores_per_user": 2}},
                "drift": {{"rate_hz": 0.0, "matrix": [[0.5,0.5],[0.5,0.5]]}},
                "session": {{"rate_hz": 1.0, "budget": 4}},
                "constraints": {block}
            }}"#
        ))
    }

    #[test]
    fn constraints_section_parses_with_anneal() {
        let s = with_constraints(
            r#"{"select_prob": 0.5,
                "quotas": [{"group": 3, "min_count": 1, "max_count": 3},
                           {"group": 7, "min_ratio": 0.25}],
                "anneal": {"seed": 9, "steps": 200, "t0": 0.5, "cooling": 0.95}}"#,
        )
        .unwrap();
        let c = s.constraints.expect("constraints parsed");
        assert_eq!(c.select_prob, 0.5);
        assert_eq!(c.quotas.len(), 2);
        assert_eq!(c.quotas[0].group, 3);
        assert_eq!(c.quotas[1].min, QuotaBound::Ratio(0.25));
        let a = c.anneal.expect("anneal parsed");
        assert_eq!((a.seed, a.steps, a.t0, a.cooling), (9, 200, 0.5, 0.95));
    }

    #[test]
    fn constraint_validation_errors_name_the_field() {
        for (block, needle) in [
            (
                r#"{"select_prob": 1.5, "quotas": []}"#,
                "'constraints.select_prob' must be in [0, 1]",
            ),
            (
                r#"{"quotas": [{"group": 0, "min_ratio": -0.1}]}"#,
                "'constraints.quotas[0].min_ratio' must be in [0, 1]",
            ),
            (
                r#"{"quotas": [{"group": 0, "max_ratio": 1.2}]}"#,
                "'constraints.quotas[0].max_ratio' must be in [0, 1]",
            ),
            (
                r#"{"quotas": [{"group": 1}, {"group": 2, "min_count": 3, "max_count": 1}]}"#,
                "'constraints.quotas[1]': min resolves to 3 but max resolves to 1",
            ),
            (
                r#"{"quotas": [{"group": 8, "min_count": 1}]}"#,
                "'constraints.quotas[0].group' = 8 is outside the scenario's group universe",
            ),
            (
                r#"{"quotas": [{"group": 2}, {"group": 2, "min_count": 1}]}"#,
                "'constraints.quotas[1].group' = 2 duplicates",
            ),
            (
                r#"{"quotas": [{"group": 0, "min_count": 2, "min_ratio": 0.5}]}"#,
                "'min_count' and 'min_ratio' are mutually exclusive",
            ),
            (
                r#"{"quotas": [{"group": 0, "min_count": 9}]}"#,
                "floor 9 exceeds 'session.budget' (4)",
            ),
            (
                r#"{"quotas": [], "anneal": {"cooling": 0.0}}"#,
                "'constraints.anneal.cooling' must be in (0, 1]",
            ),
            (
                r#"{"quotas": [], "anneal": {"t0": -1.0}}"#,
                "'constraints.anneal.t0' must be a finite non-negative number",
            ),
        ] {
            let e = with_constraints(block).unwrap_err();
            assert!(
                e.to_string().contains(needle),
                "block {block}: {e} (wanted {needle})"
            );
        }
    }

    #[test]
    fn default_matrix_is_row_stochastic() {
        for k in 2..6 {
            for row in default_matrix(k) {
                let sum: f64 = row.iter().sum();
                assert!((sum - 1.0).abs() < 1e-9, "k={k} sum={sum}");
            }
        }
    }
}
