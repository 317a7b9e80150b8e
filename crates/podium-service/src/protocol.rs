//! The line-delimited JSON protocol: one request object per line in, one
//! response object per line out.
//!
//! Requests carry an `op` discriminator:
//!
//! | op               | fields                                                        |
//! |------------------|---------------------------------------------------------------|
//! | `select`         | `budget`, `weights?`, `cov?`, `deadline_ms?`, `stale_ok?`, `constraints?`, `session?` |
//! | `explain`        | `budget`, `weights?`, `cov?`, `top_k?`                        |
//! | `open-session`   | —                                                             |
//! | `refine`         | `session`, `budget`, `must_have?`, `must_not?`, `priority?`, `standard?`, `reset?`, `weights?`, `cov?` |
//! | `close-session`  | `session`                                                     |
//! | `update-profile` | `user`, `property`, `score` (number or `null` to retract)     |
//! | `stats`          | —                                                             |
//!
//! A request line is at most [`crate::wal::MAX_FRAME_BYTES`] (16 MiB)
//! long. A longer one gets one `bad_request` line and the connection
//! closes, on every transport. A socket server reads and discards what
//! the client is still sending (up to the cap) before it closes, so the
//! close does not reset the connection under the error line.
//!
//! Every response carries `ok` (boolean) and, on success, the `epoch` the
//! request was served from. Failures carry a stable `error` code (see
//! [`crate::error::ServiceError::code`]) and a human-readable `message`.
//! The full code set — clients branch on these strings, so they are part
//! of the wire contract:
//!
//! | `error`             | meaning                                        | client action          |
//! |---------------------|------------------------------------------------|------------------------|
//! | `overloaded`        | admission control rejected: queue full         | retry with backoff     |
//! | `deadline_exceeded` | deadline expired before selection completed    | retry or relax deadline|
//! | `bad_request`       | malformed request or unknown entity            | fix the request        |
//! | `unknown_session`   | session id never opened or already closed      | reopen a session       |
//! | `session_retired`   | pinned epoch fell behind `max_session_lag`     | reopen and replay      |
//! | `shutting_down`     | service is draining; no new work accepted      | fail over              |
//! | `infeasible`        | quota windows admit no assignment within budget| relax a quota or raise the budget |
//! | `core`              | selection-layer error (e.g. zero budget)       | fix the request        |
//! | `durability`        | WAL append/fsync or checkpoint/recovery failed | fail over; the update was not made durable |
//!
//! Wire flags — optional request fields that change serving semantics:
//!
//! | flag          | op       | meaning                                                        |
//! |---------------|----------|----------------------------------------------------------------|
//! | `deadline_ms` | `select` | the request's deadline, counted from when the service accepts it (queue wait included). Omitted: the service's default deadline, which is also the deadline of every `explain`. A selection still computing at the deadline fails with `deadline_exceeded` and no partial slate — constrained or not; a memoized selection is served even past it. |
//! | `stale_ok`    | `select` | bounded-staleness read mode: the response may carry a selection computed on an earlier epoch (fields `stale: true`, `epoch` = compute epoch, `certified_score_lb`) instead of recomputing against the current one. Omitted or `false`: always fresh — the default behavior is unchanged. Ignored with `session`: the response then carries `stale: false` and the pinned epoch. Constrained selections are never carried, so with `constraints` it always recomputes. |
//! | `constraints` | `select` | quota-constrained selection: an object `{"quotas": [{"group": G, "min_count"\|"min_ratio"?, "max_count"\|"max_ratio"?}, …], "anneal"?: {"seed", "steps", "t0", "cooling"}}`. Each quota window is enforced as a hard floor/ceiling on the group's selected-member count (ratios resolve against the budget); `anneal` additionally refines the greedy solution with that seeded schedule. Unsatisfiable windows fail with the `infeasible` code. The greedy run stops at `deadline_ms` like any select; the anneal pass, bounded by its `steps`, runs to completion. Omitted: plain unconstrained select. |
//! | `session`     | `select` | pins the select to the epoch a session was opened on instead of the current one, always fresh on that epoch (`stale_ok` does not apply). Subject to the same retirement rule as `refine` (`session_retired`). Omitted: serve from the newest epoch. |
//!
//! The `stats` response's publish fields (cumulative since start unless
//! marked *last*; see [`crate::snapshot::EpochBuildStats`]):
//!
//! | field                     | meaning                                                 |
//! |---------------------------|---------------------------------------------------------|
//! | `publishes`               | epochs published                                        |
//! | `patched_publishes`       | publishes whose CSR was patched from the previous epoch |
//! | `rebuilt_publishes`       | publishes whose CSR was rebuilt: an epoch that added users, or every epoch under `full-rebuild` |
//! | `memos_carried`           | memoized selects carried into a new epoch               |
//! | `memos_invalidated`       | memoized selects dropped at a publish                   |
//! | `member_lists_rewritten`  | group member lists written element by element           |
//! | `reverse_links_rewritten` | user → group link rows written element by element       |
//! | `csr_rows_written`        | CSR user rows written element by element                |
//! | `publish_batch_size`      | *last*: updates the newest epoch absorbed               |
//! | `csr_patch_micros`        | *last*: µs patching the CSR (0 when rebuilt)            |
//! | `full_rebuild_micros`     | *last*: µs rebuilding the CSR (0 when patched)          |
//! | `publish_p50_micros`, `publish_p99_micros` | publish latency over the last 512 publishes |
//!
//! The three work counters are deterministic for a given update stream
//! and reader pattern: a patch writes only the rows and lists its delta
//! changed (rows merely renumbered after a slot emptied or filled are not
//! counted), a rebuild writes every one.
//!
//! The parser is hand-rolled over [`serde_json::Value`]: the vendored
//! serde stand-in has no tagged-enum derive, and a by-hand reader keeps
//! the error messages precise anyway.

use serde_json::Value;

use crate::error::ServiceError;
use crate::session::FeedbackDelta;
use crate::snapshot::{ProfileUpdate, SelectConstraints, SelectParams};
use podium_core::engine::{AnnealSchedule, Quota, QuotaBound};
use podium_core::weights::{CovScheme, WeightScheme};

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run BASE-DIVERSITY selection.
    Select {
        /// Scheme and budget. Invariant: `params.quota_hash` is the
        /// fingerprint of `constraints` (0 when unconstrained) — the
        /// parser derives it, clients never put it on the wire.
        params: SelectParams,
        /// Quota windows (and optional anneal schedule) for a
        /// constrained select; `None` is the plain unconstrained path.
        constraints: Option<SelectConstraints>,
        /// Pin the select to this session's opening epoch instead of the
        /// current one (same retirement rule as `refine`).
        session: Option<u64>,
        /// Per-request deadline override, in milliseconds.
        deadline_ms: Option<u64>,
        /// Bounded-staleness read mode: permit serving a carried-forward
        /// selection from an earlier epoch (tagged `stale` with a
        /// certified score lower bound) instead of recomputing.
        stale_ok: bool,
    },
    /// Run a selection and return the full explanation report.
    Explain {
        /// Scheme and budget.
        params: SelectParams,
        /// Top-k bound of the headline coverage statistic.
        top_k: usize,
    },
    /// Open a customization session pinned to the current epoch.
    OpenSession,
    /// Merge feedback into a session and re-run CUSTOM-DIVERSITY.
    Refine {
        /// Session id from `open-session`.
        session: u64,
        /// Feedback delta to merge.
        delta: FeedbackDelta,
        /// Scheme and budget for the refined selection.
        params: SelectParams,
    },
    /// Close a session.
    CloseSession {
        /// Session id to close.
        session: u64,
    },
    /// Apply one profile update and publish a new epoch.
    UpdateProfile {
        /// The update.
        update: ProfileUpdate,
    },
    /// Service counters and current epoch.
    Stats,
}

fn bad(msg: impl Into<String>) -> ServiceError {
    ServiceError::BadRequest(msg.into())
}

fn field<'v>(obj: &'v Value, name: &str) -> Result<&'v Value, ServiceError> {
    obj.get(name)
        .ok_or_else(|| bad(format!("missing field '{name}'")))
}

fn usize_field(obj: &Value, name: &str) -> Result<usize, ServiceError> {
    field(obj, name)?
        .as_u64()
        .map(|n| n as usize)
        .ok_or_else(|| bad(format!("field '{name}' must be a non-negative integer")))
}

fn u64_field(obj: &Value, name: &str) -> Result<u64, ServiceError> {
    field(obj, name)?
        .as_u64()
        .ok_or_else(|| bad(format!("field '{name}' must be a non-negative integer")))
}

fn str_field<'v>(obj: &'v Value, name: &str) -> Result<&'v str, ServiceError> {
    field(obj, name)?
        .as_str()
        .ok_or_else(|| bad(format!("field '{name}' must be a string")))
}

fn group_list(obj: &Value, name: &str) -> Result<Vec<u32>, ServiceError> {
    match obj.get(name) {
        None => Ok(Vec::new()),
        Some(v) => v
            .as_array()
            .ok_or_else(|| bad(format!("field '{name}' must be an array of group ids")))?
            .iter()
            .map(|e| {
                e.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| bad(format!("field '{name}' holds a non-id element")))
            })
            .collect(),
    }
}

fn parse_weights(obj: &Value) -> Result<WeightScheme, ServiceError> {
    match obj.get("weights").and_then(Value::as_str) {
        None => Ok(WeightScheme::LinearBySize),
        Some("lbs") | Some("linear_by_size") => Ok(WeightScheme::LinearBySize),
        Some("iden") | Some("identical") => Ok(WeightScheme::Identical),
        Some(other) => Err(bad(format!(
            "unknown weight scheme '{other}' (expected lbs|iden)"
        ))),
    }
}

fn parse_cov(obj: &Value) -> Result<CovScheme, ServiceError> {
    match obj.get("cov").and_then(Value::as_str) {
        None => Ok(CovScheme::Single),
        Some("single") => Ok(CovScheme::Single),
        Some("prop") | Some("proportional") => Ok(CovScheme::Proportional),
        Some(other) => Err(bad(format!(
            "unknown coverage scheme '{other}' (expected single|prop)"
        ))),
    }
}

fn parse_select_params(obj: &Value) -> Result<SelectParams, ServiceError> {
    Ok(SelectParams {
        budget: usize_field(obj, "budget")?,
        weight: parse_weights(obj)?,
        cov: parse_cov(obj)?,
        quota_hash: 0,
    })
}

fn u32_of(v: &Value, name: &str) -> Result<u32, ServiceError> {
    v.as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            bad(format!(
                "field '{name}' must be a 32-bit non-negative integer"
            ))
        })
}

fn f64_of(v: &Value, name: &str) -> Result<f64, ServiceError> {
    v.as_f64()
        .ok_or_else(|| bad(format!("field '{name}' must be a number")))
}

/// One quota bound: at most one of the count/ratio spellings.
fn parse_bound(
    obj: &Value,
    count_key: &str,
    ratio_key: &str,
) -> Result<Option<QuotaBound>, ServiceError> {
    match (obj.get(count_key), obj.get(ratio_key)) {
        (Some(_), Some(_)) => Err(bad(format!(
            "fields '{count_key}' and '{ratio_key}' are mutually exclusive"
        ))),
        (Some(v), None) => Ok(Some(QuotaBound::Count(u32_of(v, count_key)?))),
        (None, Some(v)) => Ok(Some(QuotaBound::Ratio(f64_of(v, ratio_key)?))),
        (None, None) => Ok(None),
    }
}

/// The optional `constraints` object of a select: quota windows plus an
/// optional anneal schedule. Shape errors are typed `bad_request`s naming
/// the offending field; *semantic* validation (ratio range, window order,
/// unknown groups) happens against the snapshot in `QuotaSet::build`.
fn parse_constraints(obj: &Value) -> Result<Option<SelectConstraints>, ServiceError> {
    let v = match obj.get("constraints") {
        None | Some(Value::Null) => return Ok(None),
        Some(v) => v,
    };
    if v.as_object().is_none() {
        return Err(bad("field 'constraints' must be an object"));
    }
    let mut quotas = Vec::new();
    if let Some(list) = v.get("quotas") {
        let list = list
            .as_array()
            .ok_or_else(|| bad("field 'constraints.quotas' must be an array"))?;
        for q in list {
            if q.as_object().is_none() {
                return Err(bad("each entry of 'constraints.quotas' must be an object"));
            }
            quotas.push(Quota {
                group: u32_of(field(q, "group")?, "group")?,
                min: parse_bound(q, "min_count", "min_ratio")?.unwrap_or(QuotaBound::Count(0)),
                max: parse_bound(q, "max_count", "max_ratio")?,
            });
        }
    }
    let anneal = match v.get("anneal") {
        None | Some(Value::Null) => None,
        Some(a) => {
            if a.as_object().is_none() {
                return Err(bad("field 'constraints.anneal' must be an object"));
            }
            Some(AnnealSchedule {
                seed: u64_field(a, "seed")?,
                steps: u32_of(field(a, "steps")?, "steps")?,
                t0: f64_of(field(a, "t0")?, "t0")?,
                cooling: f64_of(field(a, "cooling")?, "cooling")?,
            })
        }
    };
    Ok(Some(SelectConstraints { quotas, anneal }))
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServiceError> {
    let value: Value =
        serde_json::from_str(line).map_err(|e| bad(format!("request is not valid JSON: {e}")))?;
    if value.as_object().is_none() {
        return Err(bad("request must be a JSON object"));
    }
    let op = str_field(&value, "op")?;
    match op {
        "select" => {
            let constraints = parse_constraints(&value)?;
            let mut params = parse_select_params(&value)?;
            if let Some(c) = &constraints {
                params.quota_hash = c.fingerprint();
            }
            Ok(Request::Select {
                params,
                constraints,
                session: match value.get("session") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or_else(|| bad("field 'session' must be a non-negative integer"))?,
                    ),
                },
                deadline_ms: match value.get("deadline_ms") {
                    None | Some(Value::Null) => None,
                    Some(v) => Some(v.as_u64().ok_or_else(|| {
                        bad("field 'deadline_ms' must be a non-negative integer")
                    })?),
                },
                stale_ok: match value.get("stale_ok") {
                    None | Some(Value::Null) => false,
                    Some(v) => v
                        .as_bool()
                        .ok_or_else(|| bad("field 'stale_ok' must be a boolean"))?,
                },
            })
        }
        "explain" => Ok(Request::Explain {
            params: parse_select_params(&value)?,
            top_k: match value.get("top_k") {
                None => 10,
                Some(v) => v
                    .as_u64()
                    .map(|n| n as usize)
                    .ok_or_else(|| bad("field 'top_k' must be a non-negative integer"))?,
            },
        }),
        "open-session" => Ok(Request::OpenSession),
        "close-session" => Ok(Request::CloseSession {
            session: u64_field(&value, "session")?,
        }),
        "refine" => Ok(Request::Refine {
            session: u64_field(&value, "session")?,
            delta: FeedbackDelta {
                must_have: group_list(&value, "must_have")?,
                must_not: group_list(&value, "must_not")?,
                priority: group_list(&value, "priority")?,
                standard: match value.get("standard") {
                    None | Some(Value::Null) => None,
                    Some(_) => Some(group_list(&value, "standard")?),
                },
                reset: value.get("reset").and_then(Value::as_bool).unwrap_or(false),
            },
            params: parse_select_params(&value)?,
        }),
        "update-profile" => {
            let score = match field(&value, "score")? {
                Value::Null => None,
                v => Some(
                    v.as_f64()
                        .ok_or_else(|| bad("field 'score' must be a number or null"))?,
                ),
            };
            Ok(Request::UpdateProfile {
                update: ProfileUpdate {
                    user: str_field(&value, "user")?.to_owned(),
                    property: str_field(&value, "property")?.to_owned(),
                    score,
                },
            })
        }
        "stats" => Ok(Request::Stats),
        other => Err(bad(format!("unknown op '{other}'"))),
    }
}

// ---------------------------------------------------------------------------
// Request encoding (the client side of the wire).

fn group_id_array(ids: &[u32]) -> Value {
    Value::Array(ids.iter().map(|&g| num_u64(g as u64)).collect())
}

fn weights_tag(scheme: WeightScheme) -> &'static str {
    match scheme {
        WeightScheme::LinearBySize => "lbs",
        WeightScheme::Identical => "iden",
    }
}

fn cov_tag(scheme: CovScheme) -> &'static str {
    match scheme {
        CovScheme::Single => "single",
        CovScheme::Proportional => "prop",
    }
}

fn bound_pair(
    pairs: &mut Vec<(String, Value)>,
    bound: &QuotaBound,
    count_key: &str,
    ratio_key: &str,
) {
    match bound {
        QuotaBound::Count(c) => pairs.push((count_key.to_owned(), num_u64(*c as u64))),
        QuotaBound::Ratio(r) => pairs.push((ratio_key.to_owned(), num_f64(*r))),
    }
}

fn push_constraints(pairs: &mut Vec<(String, Value)>, constraints: &SelectConstraints) {
    let quotas: Vec<Value> = constraints
        .quotas
        .iter()
        .map(|q| {
            let mut qp: Vec<(String, Value)> = vec![("group".to_owned(), num_u64(q.group as u64))];
            // A `Count(0)` floor is the parse-side default, so it is
            // omitted — keeping encode/parse exact inverses.
            if q.min != QuotaBound::Count(0) {
                bound_pair(&mut qp, &q.min, "min_count", "min_ratio");
            }
            if let Some(max) = &q.max {
                bound_pair(&mut qp, max, "max_count", "max_ratio");
            }
            Value::Object(qp)
        })
        .collect();
    let mut body: Vec<(String, Value)> = vec![("quotas".to_owned(), Value::Array(quotas))];
    if let Some(a) = &constraints.anneal {
        body.push((
            "anneal".to_owned(),
            Value::Object(vec![
                ("seed".to_owned(), num_u64(a.seed)),
                ("steps".to_owned(), num_u64(a.steps as u64)),
                ("t0".to_owned(), num_f64(a.t0)),
                ("cooling".to_owned(), num_f64(a.cooling)),
            ]),
        ));
    }
    pairs.push(("constraints".to_owned(), Value::Object(body)));
}

fn push_select_params(pairs: &mut Vec<(String, Value)>, params: &SelectParams) {
    pairs.push(("budget".to_owned(), num_u64(params.budget as u64)));
    pairs.push((
        "weights".to_owned(),
        Value::String(weights_tag(params.weight).to_owned()),
    ));
    pairs.push((
        "cov".to_owned(),
        Value::String(cov_tag(params.cov).to_owned()),
    ));
}

/// Encodes a request as one protocol line (no trailing newline), the exact
/// inverse of [`parse_request`]: `parse_request(&encode_request(r)) == r`
/// for every well-formed request. This is what [`crate::client`] puts on
/// the wire and what the round-trip proptests pivot on.
pub fn encode_request(request: &Request) -> String {
    let mut pairs: Vec<(String, Value)> = Vec::new();
    let mut op = |tag: &str| pairs.push(("op".to_owned(), Value::String(tag.to_owned())));
    match request {
        Request::Select {
            params,
            constraints,
            session,
            deadline_ms,
            stale_ok,
        } => {
            op("select");
            push_select_params(&mut pairs, params);
            if let Some(c) = constraints {
                push_constraints(&mut pairs, c);
            }
            if let Some(s) = session {
                pairs.push(("session".to_owned(), num_u64(*s)));
            }
            if let Some(ms) = deadline_ms {
                pairs.push(("deadline_ms".to_owned(), num_u64(*ms)));
            }
            if *stale_ok {
                pairs.push(("stale_ok".to_owned(), Value::Bool(true)));
            }
        }
        Request::Explain { params, top_k } => {
            op("explain");
            push_select_params(&mut pairs, params);
            pairs.push(("top_k".to_owned(), num_u64(*top_k as u64)));
        }
        Request::OpenSession => op("open-session"),
        Request::CloseSession { session } => {
            op("close-session");
            pairs.push(("session".to_owned(), num_u64(*session)));
        }
        Request::Refine {
            session,
            delta,
            params,
        } => {
            op("refine");
            pairs.push(("session".to_owned(), num_u64(*session)));
            pairs.push(("must_have".to_owned(), group_id_array(&delta.must_have)));
            pairs.push(("must_not".to_owned(), group_id_array(&delta.must_not)));
            pairs.push(("priority".to_owned(), group_id_array(&delta.priority)));
            if let Some(standard) = &delta.standard {
                pairs.push(("standard".to_owned(), group_id_array(standard)));
            }
            pairs.push(("reset".to_owned(), Value::Bool(delta.reset)));
            push_select_params(&mut pairs, params);
        }
        Request::UpdateProfile { update } => {
            op("update-profile");
            pairs.push(("user".to_owned(), Value::String(update.user.clone())));
            pairs.push((
                "property".to_owned(),
                Value::String(update.property.clone()),
            ));
            pairs.push((
                "score".to_owned(),
                match update.score {
                    Some(s) => num_f64(s),
                    None => Value::Null,
                },
            ));
        }
        Request::Stats => op("stats"),
    }
    // podium-lint: allow(expect) — value trees built from plain strings/numbers/bools cannot fail to serialize
    serde_json::to_string(&Value::Object(pairs)).expect("request serialization is infallible")
}

// ---------------------------------------------------------------------------
// Response construction.

/// Builds a success response line from `(key, value)` fields (prefixed
/// with `"ok": true`).
pub fn ok_response(fields: Vec<(&str, Value)>) -> String {
    let mut pairs = vec![("ok".to_owned(), Value::Bool(true))];
    pairs.extend(fields.into_iter().map(|(k, v)| (k.to_owned(), v)));
    // podium-lint: allow(expect) — value trees built from plain strings/numbers/bools cannot fail to serialize
    serde_json::to_string(&Value::Object(pairs)).expect("response serialization is infallible")
}

/// Builds the failure response line for an error.
pub fn error_response(err: &ServiceError) -> String {
    let pairs = vec![
        ("ok".to_owned(), Value::Bool(false)),
        ("error".to_owned(), Value::String(err.code().to_owned())),
        ("message".to_owned(), Value::String(err.to_string())),
    ];
    // podium-lint: allow(expect) — value trees built from plain strings/numbers/bools cannot fail to serialize
    serde_json::to_string(&Value::Object(pairs)).expect("response serialization is infallible")
}

/// The one response to a request line longer than
/// [`crate::wal::MAX_FRAME_BYTES`]: an update that large could not be
/// logged, so every line transport answers it once and closes the
/// connection instead of buffering toward the newline.
pub(crate) fn oversized_line_response() -> String {
    error_response(&ServiceError::BadRequest(format!(
        "request line exceeds {} bytes",
        crate::wal::MAX_FRAME_BYTES
    )))
}

/// A `u64` JSON number.
pub fn num_u64(n: u64) -> Value {
    Value::Number(serde_json::Number::PosInt(n))
}

/// An `f64` JSON number.
pub fn num_f64(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

/// A JSON string.
pub fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// A JSON array of strings.
pub fn string_array<S: AsRef<str>>(items: &[S]) -> Value {
    Value::Array(
        items
            .iter()
            .map(|s| Value::String(s.as_ref().to_owned()))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_select() {
        let req = parse_request(r#"{"op":"select","budget":5}"#).unwrap();
        assert_eq!(
            req,
            Request::Select {
                params: SelectParams {
                    budget: 5,
                    weight: WeightScheme::LinearBySize,
                    cov: CovScheme::Single,
                    quota_hash: 0,
                },
                constraints: None,
                session: None,
                deadline_ms: None,
                stale_ok: false,
            }
        );
    }

    #[test]
    fn parses_full_select() {
        let req = parse_request(
            r#"{"op":"select","budget":8,"weights":"iden","cov":"prop","deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Select {
                params: SelectParams {
                    budget: 8,
                    weight: WeightScheme::Identical,
                    cov: CovScheme::Proportional,
                    quota_hash: 0,
                },
                constraints: None,
                session: None,
                deadline_ms: Some(250),
                stale_ok: false,
            }
        );
    }

    #[test]
    fn parses_constrained_select_and_derives_the_quota_hash() {
        let req = parse_request(
            r#"{"op":"select","budget":6,"session":11,"constraints":{"quotas":[{"group":1,"min_count":2,"max_count":3},{"group":4,"min_ratio":0.25}],"anneal":{"seed":99,"steps":128,"t0":0.5,"cooling":0.875}}}"#,
        )
        .unwrap();
        let Request::Select {
            params,
            constraints: Some(constraints),
            session,
            ..
        } = req
        else {
            panic!("wrong parse");
        };
        assert_eq!(session, Some(11));
        assert_eq!(
            constraints.quotas,
            vec![
                Quota {
                    group: 1,
                    min: QuotaBound::Count(2),
                    max: Some(QuotaBound::Count(3)),
                },
                Quota {
                    group: 4,
                    min: QuotaBound::Ratio(0.25),
                    max: None,
                },
            ]
        );
        assert_eq!(
            constraints.anneal,
            Some(AnnealSchedule {
                seed: 99,
                steps: 128,
                t0: 0.5,
                cooling: 0.875,
            })
        );
        assert_eq!(params.quota_hash, constraints.fingerprint());
        assert_ne!(
            params.quota_hash, 0,
            "constrained selects have a nonzero hash"
        );
    }

    #[test]
    fn parses_refine_with_feedback() {
        let req = parse_request(
            r#"{"op":"refine","session":3,"budget":4,"must_have":[1,2],"must_not":[7],"standard":[0],"reset":true}"#,
        )
        .unwrap();
        match req {
            Request::Refine {
                session,
                delta,
                params,
            } => {
                assert_eq!(session, 3);
                assert_eq!(delta.must_have, vec![1, 2]);
                assert_eq!(delta.must_not, vec![7]);
                assert!(delta.priority.is_empty());
                assert_eq!(delta.standard, Some(vec![0]));
                assert!(delta.reset);
                assert_eq!(params.budget, 4);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_update_profile_set_and_retract() {
        let set = parse_request(
            r#"{"op":"update-profile","user":"Ada","property":"avgRating Thai","score":0.8}"#,
        )
        .unwrap();
        assert_eq!(
            set,
            Request::UpdateProfile {
                update: ProfileUpdate {
                    user: "Ada".into(),
                    property: "avgRating Thai".into(),
                    score: Some(0.8),
                },
            }
        );
        let retract = parse_request(
            r#"{"op":"update-profile","user":"Ada","property":"avgRating Thai","score":null}"#,
        )
        .unwrap();
        assert_eq!(
            retract,
            Request::UpdateProfile {
                update: ProfileUpdate {
                    user: "Ada".into(),
                    property: "avgRating Thai".into(),
                    score: None,
                },
            }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for (line, needle) in [
            ("not json", "not valid JSON"),
            ("[1,2]", "must be a JSON object"),
            (r#"{"budget":5}"#, "missing field 'op'"),
            (r#"{"op":"frobnicate"}"#, "unknown op"),
            (r#"{"op":"select"}"#, "missing field 'budget'"),
            (r#"{"op":"select","budget":-3}"#, "non-negative"),
            (
                r#"{"op":"select","budget":3,"weights":"ebs"}"#,
                "unknown weight scheme",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":7}"#,
                "field 'constraints' must be an object",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":{"quotas":{}}}"#,
                "field 'constraints.quotas' must be an array",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":{"quotas":[{"min_count":1}]}}"#,
                "missing field 'group'",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":{"quotas":[{"group":0,"min_count":1,"min_ratio":0.5}]}}"#,
                "'min_count' and 'min_ratio' are mutually exclusive",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":{"quotas":[{"group":0,"max_ratio":"x"}]}}"#,
                "field 'max_ratio' must be a number",
            ),
            (
                r#"{"op":"select","budget":3,"constraints":{"quotas":[],"anneal":{"seed":1,"steps":10,"t0":0.5}}}"#,
                "missing field 'cooling'",
            ),
            (
                r#"{"op":"select","budget":3,"session":"nope"}"#,
                "field 'session' must be a non-negative integer",
            ),
            (
                r#"{"op":"update-profile","user":"a","property":"p"}"#,
                "missing field 'score'",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "line {line}: {err} (wanted {needle})"
            );
            assert_eq!(err.code(), "bad_request", "line {line}");
        }
    }

    #[test]
    fn encode_request_inverts_parse_request() {
        let constrained = SelectConstraints {
            quotas: vec![
                Quota {
                    group: 1,
                    min: QuotaBound::Count(2),
                    max: Some(QuotaBound::Count(3)),
                },
                Quota {
                    group: 4,
                    min: QuotaBound::Ratio(0.25),
                    max: Some(QuotaBound::Ratio(0.5)),
                },
                Quota {
                    group: 6,
                    min: QuotaBound::Count(0),
                    max: None,
                },
            ],
            anneal: Some(AnnealSchedule {
                seed: 99,
                steps: 128,
                t0: 0.5,
                cooling: 0.875,
            }),
        };
        let requests = vec![
            Request::Select {
                params: SelectParams {
                    budget: 5,
                    weight: WeightScheme::LinearBySize,
                    cov: CovScheme::Single,
                    quota_hash: 0,
                },
                constraints: None,
                session: None,
                deadline_ms: None,
                stale_ok: false,
            },
            Request::Select {
                params: SelectParams {
                    budget: 8,
                    weight: WeightScheme::Identical,
                    cov: CovScheme::Proportional,
                    quota_hash: 0,
                },
                constraints: None,
                session: None,
                deadline_ms: Some(250),
                stale_ok: true,
            },
            Request::Select {
                params: SelectParams {
                    budget: 6,
                    weight: WeightScheme::LinearBySize,
                    cov: CovScheme::Single,
                    quota_hash: constrained.fingerprint(),
                },
                constraints: Some(constrained.clone()),
                session: Some(11),
                deadline_ms: Some(40),
                stale_ok: false,
            },
            Request::Select {
                params: SelectParams {
                    budget: 2,
                    weight: WeightScheme::Identical,
                    cov: CovScheme::Single,
                    quota_hash: SelectConstraints::default().fingerprint(),
                },
                constraints: Some(SelectConstraints::default()),
                session: None,
                deadline_ms: None,
                stale_ok: false,
            },
            Request::Explain {
                params: SelectParams {
                    budget: 3,
                    weight: WeightScheme::LinearBySize,
                    cov: CovScheme::Proportional,
                    quota_hash: 0,
                },
                top_k: 7,
            },
            Request::OpenSession,
            Request::CloseSession { session: 42 },
            Request::Refine {
                session: 3,
                delta: FeedbackDelta {
                    must_have: vec![1, 2],
                    must_not: vec![7],
                    priority: vec![],
                    standard: Some(vec![0]),
                    reset: true,
                },
                params: SelectParams {
                    budget: 4,
                    weight: WeightScheme::LinearBySize,
                    cov: CovScheme::Single,
                    quota_hash: 0,
                },
            },
            Request::UpdateProfile {
                update: ProfileUpdate {
                    user: "Ada \"quoted\"".into(),
                    property: "avgRating Thai".into(),
                    score: Some(0.8),
                },
            },
            Request::UpdateProfile {
                update: ProfileUpdate {
                    user: "Ada".into(),
                    property: "avgRating Thai".into(),
                    score: None,
                },
            },
            Request::Stats,
        ];
        for request in requests {
            let line = encode_request(&request);
            let parsed = parse_request(&line).unwrap_or_else(|e| panic!("line {line}: {e}"));
            assert_eq!(parsed, request, "round trip through {line}");
        }
    }

    #[test]
    fn responses_have_stable_shape() {
        let ok = ok_response(vec![("epoch", num_u64(4)), ("users", string_array(&["a"]))]);
        let v: Value = serde_json::from_str(&ok).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("epoch").and_then(Value::as_u64), Some(4));
        let err = error_response(&ServiceError::Overloaded);
        let v: Value = serde_json::from_str(&err).unwrap();
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("overloaded"));
    }
}
