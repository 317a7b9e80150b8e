//! The serving-side subcommands of `podium-cli`: `serve`, `bench-serve`,
//! and the `quarantine` tool family.
//!
//! The classic subcommands (`stats`, `groups`, `select`) live in
//! [`crate::cli`]; this module hosts the front-end for the
//! [`podium_service`] subsystem plus the quarantine-report workflow of
//! `podium_data::report`:
//!
//! * `serve` — load a profile file, build a [`PodiumService`], and serve
//!   the line-delimited JSON protocol over stdin/stdout or a Unix socket;
//! * `bench-serve` — closed-loop load generator against an in-process
//!   service, reporting throughput and latency percentiles as one JSONL
//!   row;
//! * `quarantine scan` — lenient-load a document and persist its
//!   quarantine report;
//! * `quarantine inspect` — pretty-print a persisted report;
//! * `quarantine replay` — re-attempt loading the quarantined records of
//!   an (edited) document and classify each as fixed or still defective.
//!
//! Parsing and rendering are factored apart from file/socket I/O so the
//! logic is testable on in-memory strings, mirroring [`crate::cli::run`].

use std::time::Duration;

use podium_core::rng::unit_float;
use podium_data::report::{load_report, replay, save_report, ReplayFormat, ReplayStatus};
use podium_service::bench::{next_row_seq, run_bench_with, BenchConfig, BenchTransport};
use podium_service::snapshot::PublishMode;
use podium_service::{
    DurabilityOptions, FsyncPolicy, PodiumService, RecoveryReport, ServiceConfig, TcpServerConfig,
};

use crate::cli::bucketing_from;

/// Usage text for the serving-side subcommands (appended to
/// [`crate::cli::USAGE`] by the binary).
pub const SERVICE_USAGE: &str = "\
serving subcommands:
  serve --profiles FILE [--strategy S] [--buckets K] [--socket PATH]
        [--tcp ADDR] [--max-conns N] [--idle-timeout-ms MS]
        [--session-lag N] [--workers N] [--queue N] [--deadline-ms MS]
        [--data-dir DIR] [--fsync always|batch|off]
        [--checkpoint-every N]
      serve the line-delimited JSON protocol (select/explain/refine/
      update-profile/stats) over stdin/stdout, over a Unix domain
      socket when --socket is given, or over TCP when --tcp is given
      (e.g. --tcp 127.0.0.1:7474; --max-conns and --idle-timeout-ms
      bound the TCP listener). With --data-dir, accepted updates are
      written to a checksummed WAL in DIR before acknowledgement and
      recovered on restart; --fsync picks the durability/latency
      trade-off and --checkpoint-every the frames between checkpoints
      (0 disables checkpoints).
  bench-serve [--transport inproc|tcp] [--users N] [--properties N]
        [--scores-per-user N] [--budget B] [--clients N] [--workers N]
        [--queue N] [--duration-s SECS] [--update-hz HZ]
        [--drift-hz HZ] [--publish-mode incremental|full-rebuild]
        [--deadline-ms MS] [--seed S] [--out FILE] [--data-dir DIR]
        [--fsync always|batch|off] [--checkpoint-every N]
      closed-loop load generator over a synthetic repository, either
      in-process or through a loopback TCP server with the resilient
      client; appends one JSONL row to --out
      (default target/bench-serve.jsonl). --drift-hz is the profile-
      drift alias of --update-hz; with --publish-mode it compares
      incremental CSR patching against full epoch rebuilds. With
      --data-dir the run is durable and the row additionally reports
      wal_bytes, last_checkpoint_epoch, and how long a cold recovery
      of the data directory takes (recovery_ms / recovered_epoch).
  quarantine scan <document> [--format F] [--report FILE]
      lenient-load the document, print its quarantine, and (with
      --report) persist the report JSON for later replay.
  quarantine inspect <report.json>
      pretty-print a persisted quarantine report.
  quarantine replay <report.json> <document> [--max-attempts N]
        [--backoff-base-ms MS] [--backoff-cap-ms MS] [--seed S]
      re-attempt loading just the quarantined records against the
      (edited) document; exits non-zero unless every defect is fixed
      and no new ones appeared. With --max-attempts > 1 the replay is
      retried until clean, re-reading the document before each attempt
      and sleeping a seeded, jittered exponential backoff (capped at
      --backoff-cap-ms) between attempts.

  formats F: json-profiles | csv-profiles | taxonomy | rules
";

/// Parsed `serve` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Path to the JSON profiles file.
    pub profiles: String,
    /// Bucketing strategy name (same vocabulary as `select`).
    pub strategy: String,
    /// Buckets per property.
    pub buckets: usize,
    /// Unix-socket path; `None` serves stdin/stdout.
    pub socket: Option<String>,
    /// TCP listen address (e.g. `127.0.0.1:7474`); takes precedence over
    /// `socket` when both are given.
    pub tcp: Option<String>,
    /// TCP listener sizing (connection limit, idle timeout).
    pub tcp_config: TcpServerConfig,
    /// Service sizing.
    pub config: ServiceConfig,
    /// Durable-mode options; `None` serves purely in memory.
    pub durability: Option<DurabilityOptions>,
}

/// Parses `serve` arguments (everything after the subcommand word).
pub fn parse_serve_args(argv: &[String]) -> Result<ServeArgs, String> {
    let mut args = ServeArgs {
        profiles: String::new(),
        strategy: "quantile".into(),
        buckets: 3,
        socket: None,
        tcp: None,
        tcp_config: TcpServerConfig::default(),
        config: ServiceConfig::default(),
        durability: None,
    };
    let mut durable = DurabilityFlags::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--profiles" => args.profiles = value("--profiles")?,
            "--strategy" => args.strategy = value("--strategy")?,
            "--buckets" => args.buckets = parse_num(&value("--buckets")?, "--buckets")?,
            "--socket" => args.socket = Some(value("--socket")?),
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--max-conns" => {
                args.tcp_config.max_connections = parse_num(&value("--max-conns")?, "--max-conns")?
            }
            "--idle-timeout-ms" => {
                args.tcp_config.idle_timeout = Duration::from_millis(parse_num(
                    &value("--idle-timeout-ms")?,
                    "--idle-timeout-ms",
                )?)
            }
            "--session-lag" => {
                args.config.max_session_lag = parse_num(&value("--session-lag")?, "--session-lag")?
            }
            "--workers" => args.config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => args.config.queue_capacity = parse_num(&value("--queue")?, "--queue")?,
            "--deadline-ms" => {
                args.config.default_deadline_ms =
                    parse_num(&value("--deadline-ms")?, "--deadline-ms")?
            }
            "--data-dir" => durable.data_dir = Some(value("--data-dir")?),
            "--fsync" => durable.fsync = Some(parse_fsync(&value("--fsync")?)?),
            "--checkpoint-every" => {
                durable.checkpoint_every = Some(parse_num(
                    &value("--checkpoint-every")?,
                    "--checkpoint-every",
                )?)
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if args.profiles.is_empty() {
        return Err("--profiles is required".to_owned());
    }
    if args.config.workers == 0 {
        return Err("--workers must be at least 1".to_owned());
    }
    if args.tcp_config.max_connections == 0 {
        return Err("--max-conns must be at least 1".to_owned());
    }
    args.durability = durable.assemble()?;
    Ok(args)
}

/// Raw `--data-dir` / `--fsync` / `--checkpoint-every` flags, shared by
/// `serve` and `bench-serve` parsing.
#[derive(Debug, Default)]
struct DurabilityFlags {
    data_dir: Option<String>,
    fsync: Option<FsyncPolicy>,
    checkpoint_every: Option<u64>,
}

impl DurabilityFlags {
    /// Turns the raw flags into options, rejecting durability knobs
    /// without the data directory that gives them meaning.
    fn assemble(self) -> Result<Option<DurabilityOptions>, String> {
        match self.data_dir {
            Some(dir) => {
                let mut opts = DurabilityOptions::new(dir);
                if let Some(fsync) = self.fsync {
                    opts.fsync = fsync;
                }
                if let Some(every) = self.checkpoint_every {
                    opts.checkpoint_every = every;
                }
                Ok(Some(opts))
            }
            None if self.fsync.is_some() || self.checkpoint_every.is_some() => {
                Err("--fsync/--checkpoint-every need --data-dir".to_owned())
            }
            None => Ok(None),
        }
    }
}

fn parse_fsync(tag: &str) -> Result<FsyncPolicy, String> {
    FsyncPolicy::from_tag(tag)
        .ok_or_else(|| format!("unknown fsync policy '{tag}' (always | batch | off)"))
}

/// Builds the service from already-loaded profile JSON: parse, bucketize
/// with the requested strategy, then stand up the worker pool. With
/// `--data-dir`, recovery runs first (checkpoint load + WAL replay over
/// the genesis profiles) and its report is returned alongside.
pub fn build_service(
    profiles_json: &str,
    args: &ServeArgs,
) -> Result<(PodiumService, Option<RecoveryReport>), String> {
    let repo = podium_data::json::profiles_from_json(profiles_json)
        .map_err(|e| format!("cannot parse profiles: {e}"))?;
    let bucketing = bucketing_from(&args.strategy, args.buckets)?;
    let buckets = bucketing.bucketize(&repo);
    match &args.durability {
        None => Ok((PodiumService::new(repo, &buckets, args.config), None)),
        Some(opts) => {
            let (service, report) =
                PodiumService::with_durability(repo, &buckets, args.config, opts.clone())
                    .map_err(|e| format!("cannot recover data dir: {e}"))?;
            Ok((service, Some(report)))
        }
    }
}

/// One-line human rendering of a recovery report, for serve startup
/// stderr and bench-serve summaries.
pub fn describe_recovery(report: &RecoveryReport) -> String {
    let mut line = format!(
        "recovered epoch {} (checkpoint seq {} @ epoch {}, {} frames / {} updates replayed, wal {} bytes)",
        report.recovered_epoch,
        report.checkpoint_seq,
        report.checkpoint_epoch,
        report.replayed_frames,
        report.replayed_updates,
        report.wal_bytes,
    );
    if report.checkpoints_rejected > 0 {
        line.push_str(&format!(
            ", {} corrupt checkpoint(s) rejected",
            report.checkpoints_rejected
        ));
    }
    if let Some(reason) = &report.quarantined {
        line.push_str(&format!(
            ", quarantined {} torn byte(s): {reason}",
            report.quarantined_bytes
        ));
    }
    line
}

/// Parsed `bench-serve` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchServeArgs {
    /// Load-generator knobs.
    pub config: BenchConfig,
    /// JSONL output path the binary appends the report row to.
    pub out: String,
    /// Durable-mode options; `None` benches a purely in-memory service.
    pub durability: Option<DurabilityOptions>,
}

/// Parses `bench-serve` arguments (everything after the subcommand word).
pub fn parse_bench_serve_args(argv: &[String]) -> Result<BenchServeArgs, String> {
    let mut config = BenchConfig::default();
    let mut out = "target/bench-serve.jsonl".to_owned();
    let mut durable = DurabilityFlags::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--transport" => {
                config.transport = match value("--transport")?.as_str() {
                    "inproc" | "in-process" => BenchTransport::InProcess,
                    "tcp" => BenchTransport::Tcp,
                    other => return Err(format!("unknown transport '{other}' (inproc | tcp)")),
                }
            }
            "--users" => config.users = parse_num(&value("--users")?, "--users")?,
            "--properties" => {
                config.properties = parse_num(&value("--properties")?, "--properties")?
            }
            "--scores-per-user" => {
                config.scores_per_user =
                    parse_num(&value("--scores-per-user")?, "--scores-per-user")?
            }
            "--budget" => config.budget = parse_num(&value("--budget")?, "--budget")?,
            "--clients" => config.clients = parse_num(&value("--clients")?, "--clients")?,
            "--workers" => config.workers = parse_num(&value("--workers")?, "--workers")?,
            "--queue" => config.queue_capacity = parse_num(&value("--queue")?, "--queue")?,
            "--duration-s" => {
                let secs: f64 = value("--duration-s")?
                    .parse()
                    .map_err(|_| "--duration-s needs a number".to_owned())?;
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err("--duration-s must be positive".to_owned());
                }
                config.duration = Duration::from_secs_f64(secs);
            }
            "--update-hz" => config.update_hz = parse_num(&value("--update-hz")?, "--update-hz")?,
            "--drift-hz" => config.update_hz = parse_num(&value("--drift-hz")?, "--drift-hz")?,
            "--publish-mode" => {
                config.publish_mode = match value("--publish-mode")?.as_str() {
                    "incremental" => PublishMode::Incremental,
                    "full-rebuild" | "full_rebuild" => PublishMode::FullRebuild,
                    other => {
                        return Err(format!(
                            "unknown publish mode '{other}' (incremental | full-rebuild)"
                        ))
                    }
                }
            }
            "--deadline-ms" => {
                config.deadline_ms = parse_num(&value("--deadline-ms")?, "--deadline-ms")?
            }
            "--seed" => config.seed = parse_num(&value("--seed")?, "--seed")?,
            "--out" => out = value("--out")?,
            "--data-dir" => durable.data_dir = Some(value("--data-dir")?),
            "--fsync" => durable.fsync = Some(parse_fsync(&value("--fsync")?)?),
            "--checkpoint-every" => {
                durable.checkpoint_every = Some(parse_num(
                    &value("--checkpoint-every")?,
                    "--checkpoint-every",
                )?)
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if config.users == 0 || config.budget == 0 || config.clients == 0 || config.workers == 0 {
        return Err("--users/--budget/--clients/--workers must be at least 1".to_owned());
    }
    Ok(BenchServeArgs {
        config,
        out,
        durability: durable.assemble()?,
    })
}

/// Runs the load generator; returns the human-readable summary and the
/// JSONL row the binary appends to `args.out`.
pub fn run_bench_serve(args: &BenchServeArgs) -> (String, String) {
    use std::fmt::Write as _;
    let mut report = run_bench_with(&args.config, args.durability.as_ref());
    // Sequence numbers continue across appends to the same JSONL file so
    // readers can detect truncation/reordering (podium.bench-serve/1).
    report.seq = next_row_seq(&std::fs::read_to_string(&args.out).unwrap_or_default());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "bench-serve: {} users, budget {}, {} clients / {} workers, updates {} Hz",
        report.users, report.budget, report.clients, report.workers, report.update_hz
    );
    let _ = writeln!(
        out,
        "served {} requests in {:.2} s ({:.1} req/s) over {}",
        report.served, report.duration_s, report.throughput_rps, report.transport
    );
    let _ = writeln!(
        out,
        "latency us: p50 {}  p90 {}  p99 {}  max {}",
        report.p50_us, report.p90_us, report.p99_us, report.max_us
    );
    let _ = writeln!(
        out,
        "failed {} (deadline {}, transport {}, other {}), overloaded {}, inconsistent {}",
        report.failed,
        report.failed_deadline,
        report.failed_transport,
        report.failed_other,
        report.overloaded,
        report.inconsistent,
    );
    let _ = writeln!(
        out,
        "{} updates applied (final epoch {}); cache {} hits / {} misses; max queue depth {}",
        report.updates_applied,
        report.final_epoch,
        report.cache_hits,
        report.cache_misses,
        report.queue_depth_max
    );
    if args.durability.is_some() {
        let _ = writeln!(
            out,
            "durable: wal {} bytes, last checkpoint epoch {}; cold recovery {:.1} ms to epoch {}",
            report.wal_bytes,
            report.last_checkpoint_epoch,
            report.recovery_ms,
            report.recovered_epoch
        );
    }
    (out, report.to_json())
}

/// Parsed `quarantine` command line.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineCmd {
    /// Lenient-load a document and report (optionally persist) its
    /// quarantine.
    Scan {
        /// Path of the document to scan.
        input: String,
        /// Loader format.
        format: ReplayFormat,
        /// Where to persist the report JSON, if anywhere.
        report_out: Option<String>,
    },
    /// Pretty-print a persisted report.
    Inspect {
        /// Path of the report JSON.
        report: String,
    },
    /// Replay a persisted report against an (edited) document.
    Replay {
        /// Path of the report JSON.
        report: String,
        /// Path of the edited document.
        input: String,
        /// Attempts before giving up; `1` replays exactly once (the
        /// historical behaviour).
        max_attempts: u32,
        /// Base of the exponential backoff between attempts.
        backoff_base_ms: u64,
        /// Backoff ceiling: no sleep exceeds this many milliseconds.
        backoff_cap_ms: u64,
        /// Seed of the backoff jitter stream.
        seed: u64,
    },
}

/// Default `--max-attempts` for `quarantine replay`.
pub const REPLAY_DEFAULT_MAX_ATTEMPTS: u32 = 1;
/// Default `--backoff-base-ms` for `quarantine replay`.
pub const REPLAY_DEFAULT_BACKOFF_BASE_MS: u64 = 50;
/// Default `--backoff-cap-ms` for `quarantine replay`.
pub const REPLAY_DEFAULT_BACKOFF_CAP_MS: u64 = 5_000;
/// Default `--seed` for the replay backoff jitter.
pub const REPLAY_DEFAULT_SEED: u64 = 0xB0FF;

/// Seeded jittered exponential backoff for `quarantine replay`:
/// `base_ms * 2^(attempt-1)` capped at `cap_ms`, then jittered into
/// `[50%, 100%)` of the capped value (the same scheme as the TCP
/// client's reconnect backoff) so repeated replays of a shared document
/// don't synchronize. `attempt` counts from 1 = the sleep after the
/// first failed attempt.
pub fn compute_backoff_ms(base_ms: u64, cap_ms: u64, attempt: u32, seed: &mut u64) -> u64 {
    let exponent = attempt.saturating_sub(1).min(32);
    let uncapped = base_ms.saturating_mul(1u64 << exponent);
    let capped = uncapped.min(cap_ms);
    let unit = unit_float(seed);
    // podium-lint: allow(as-cast) — capped ≤ cap_ms (a CLI millisecond count, far below 2^53); the product is non-negative so the u64 round-trip is lossless
    (capped as f64 * (0.5 + 0.5 * unit)).round() as u64
}

/// Parses `quarantine` arguments (everything after the `quarantine` word).
pub fn parse_quarantine_args(argv: &[String]) -> Result<QuarantineCmd, String> {
    let (mode, rest) = argv
        .split_first()
        .ok_or_else(|| "quarantine needs a mode: scan | inspect | replay".to_owned())?;
    match mode.as_str() {
        "scan" => {
            let mut input = None;
            let mut format = ReplayFormat::JsonProfiles;
            let mut report_out = None;
            let mut it = rest.iter();
            while let Some(word) = it.next() {
                match word.as_str() {
                    "--format" => {
                        let tag = it
                            .next()
                            .ok_or_else(|| "--format needs a value".to_owned())?;
                        format = ReplayFormat::from_tag(tag)
                            .ok_or_else(|| format!("unknown format '{tag}'"))?;
                    }
                    "--report" => {
                        report_out = Some(
                            it.next()
                                .cloned()
                                .ok_or_else(|| "--report needs a value".to_owned())?,
                        )
                    }
                    flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
                    path if input.is_none() => input = Some(path.to_owned()),
                    extra => return Err(format!("unexpected argument '{extra}'")),
                }
            }
            Ok(QuarantineCmd::Scan {
                input: input.ok_or_else(|| "quarantine scan needs a document path".to_owned())?,
                format,
                report_out,
            })
        }
        "inspect" => match rest {
            [report] => Ok(QuarantineCmd::Inspect {
                report: report.clone(),
            }),
            _ => Err("usage: quarantine inspect <report.json>".to_owned()),
        },
        "replay" => {
            let mut positional = Vec::new();
            let mut max_attempts = REPLAY_DEFAULT_MAX_ATTEMPTS;
            let mut backoff_base_ms = REPLAY_DEFAULT_BACKOFF_BASE_MS;
            let mut backoff_cap_ms = REPLAY_DEFAULT_BACKOFF_CAP_MS;
            let mut seed = REPLAY_DEFAULT_SEED;
            let mut it = rest.iter();
            while let Some(word) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match word.as_str() {
                    "--max-attempts" => {
                        max_attempts = parse_num(&value("--max-attempts")?, "--max-attempts")?
                    }
                    "--backoff-base-ms" => {
                        backoff_base_ms =
                            parse_num(&value("--backoff-base-ms")?, "--backoff-base-ms")?
                    }
                    "--backoff-cap-ms" => {
                        backoff_cap_ms = parse_num(&value("--backoff-cap-ms")?, "--backoff-cap-ms")?
                    }
                    "--seed" => seed = parse_num(&value("--seed")?, "--seed")?,
                    flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
                    path => positional.push(path.to_owned()),
                }
            }
            if max_attempts == 0 {
                return Err("--max-attempts must be at least 1".to_owned());
            }
            match positional.as_slice() {
                [report, input] => Ok(QuarantineCmd::Replay {
                    report: report.clone(),
                    input: input.clone(),
                    max_attempts,
                    backoff_base_ms,
                    backoff_cap_ms,
                    seed,
                }),
                _ => Err("usage: quarantine replay <report.json> <document>".to_owned()),
            }
        }
        other => Err(format!("unknown quarantine mode '{other}'")),
    }
}

/// Lenient-loads `document` and renders its quarantine; returns the human
/// summary and the persistable report JSON.
pub fn quarantine_scan(document: &str, format: ReplayFormat) -> Result<(String, String), String> {
    let report = format
        .lenient_report(document)
        .map_err(|e| format!("cannot load document: {e}"))?;
    let json = save_report(&report, format);
    // Round-trip through the persisted form so the rendering below is
    // exactly what `inspect` will show later.
    let human = quarantine_inspect(&json)?;
    Ok((human, json))
}

/// Pretty-prints a persisted quarantine report.
pub fn quarantine_inspect(report_json: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    let saved = load_report(report_json).map_err(|e| format!("cannot parse report: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "format {}: {} accepted, {} quarantined",
        saved.format.tag(),
        saved.accepted,
        saved.entries.len()
    );
    for entry in &saved.entries {
        let _ = writeln!(out, "  {}", entry.describe());
        if !entry.snippet.is_empty() {
            let _ = writeln!(out, "      {}", entry.snippet);
        }
    }
    Ok(out)
}

/// Replays a persisted report against `document`; returns the human
/// summary and whether the replay came back clean.
pub fn quarantine_replay(report_json: &str, document: &str) -> Result<(String, bool), String> {
    use std::fmt::Write as _;
    let saved = load_report(report_json).map_err(|e| format!("cannot parse report: {e}"))?;
    let outcome = replay(&saved, document).map_err(|e| format!("cannot re-load document: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} quarantined records against {} format: {} fixed, {} still defective, {} new",
        saved.entries.len(),
        saved.format.tag(),
        outcome.fixed(),
        outcome.still_defective(),
        outcome.new_defects.len()
    );
    for entry in &outcome.entries {
        match &entry.status {
            ReplayStatus::Fixed => {
                let _ = writeln!(out, "  fixed: {}", entry.saved.describe());
            }
            ReplayStatus::StillDefective { kind, message } => {
                let _ = writeln!(out, "  still defective [{kind}]: {message}");
            }
        }
    }
    for fresh in &outcome.new_defects {
        let _ = writeln!(out, "  new defect: {}", fresh.describe());
    }
    let _ = writeln!(out, "accepted {} records", outcome.accepted);
    Ok((out, outcome.is_clean()))
}

fn parse_num<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("{flag} needs an integer"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_data::fault::{FaultInjector, FaultKind};
    use podium_data::json::profiles_to_json;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    const SAMPLE: &str = r#"{
        "users": [
            { "name": "Alice", "properties": { "livesIn Tokyo": 1.0, "avgRating Mexican": 0.95 } },
            { "name": "Bob",   "properties": { "livesIn NYC": 1.0,   "avgRating Mexican": 0.3 } },
            { "name": "Carol", "properties": { "livesIn Bali": 1.0 } }
        ]
    }"#;

    #[test]
    fn parse_serve_flags() {
        let a = parse_serve_args(&argv(
            "--profiles p.json --strategy paper --socket /tmp/s.sock \
             --workers 2 --queue 16 --deadline-ms 500",
        ))
        .unwrap();
        assert_eq!(a.profiles, "p.json");
        assert_eq!(a.strategy, "paper");
        assert_eq!(a.socket.as_deref(), Some("/tmp/s.sock"));
        assert_eq!(a.tcp, None);
        assert_eq!(a.config.workers, 2);
        assert_eq!(a.config.queue_capacity, 16);
        assert_eq!(a.config.default_deadline_ms, 500);
        assert_eq!(a.durability, None);

        assert!(parse_serve_args(&argv("")).is_err(), "--profiles required");
        assert!(parse_serve_args(&argv("--profiles p --workers 0")).is_err());
        assert!(parse_serve_args(&argv("--profiles p --wat 1")).is_err());
    }

    #[test]
    fn parse_serve_durability_flags() {
        let a = parse_serve_args(&argv(
            "--profiles p.json --data-dir /tmp/podium-data --fsync batch --checkpoint-every 64",
        ))
        .unwrap();
        let opts = a.durability.expect("durability options");
        assert_eq!(opts.data_dir, std::path::PathBuf::from("/tmp/podium-data"));
        assert_eq!(opts.fsync, FsyncPolicy::Batch);
        assert_eq!(opts.checkpoint_every, 64);

        // Defaults: always-fsync, default checkpoint cadence.
        let a = parse_serve_args(&argv("--profiles p.json --data-dir d")).unwrap();
        let opts = a.durability.expect("durability options");
        assert_eq!(opts.fsync, FsyncPolicy::Always);
        assert_eq!(
            opts.checkpoint_every,
            podium_service::recovery::DEFAULT_CHECKPOINT_EVERY
        );

        // Durability knobs without --data-dir are a user error, as is an
        // unknown policy.
        assert!(parse_serve_args(&argv("--profiles p --fsync batch")).is_err());
        assert!(parse_serve_args(&argv("--profiles p --checkpoint-every 8")).is_err());
        assert!(parse_serve_args(&argv("--profiles p --data-dir d --fsync sometimes")).is_err());
    }

    #[test]
    fn parse_serve_tcp_flags() {
        let a = parse_serve_args(&argv(
            "--profiles p.json --tcp 127.0.0.1:7474 --max-conns 32 \
             --idle-timeout-ms 5000 --session-lag 16",
        ))
        .unwrap();
        assert_eq!(a.tcp.as_deref(), Some("127.0.0.1:7474"));
        assert_eq!(a.tcp_config.max_connections, 32);
        assert_eq!(a.tcp_config.idle_timeout, Duration::from_secs(5));
        assert_eq!(a.config.max_session_lag, 16);

        assert!(parse_serve_args(&argv("--profiles p --max-conns 0")).is_err());
        assert!(parse_serve_args(&argv("--profiles p --tcp")).is_err());
    }

    #[test]
    fn built_service_answers_the_protocol() {
        let a = parse_serve_args(&argv("--profiles p.json --strategy paper --workers 1")).unwrap();
        let (service, recovery) = build_service(SAMPLE, &a).unwrap();
        assert!(recovery.is_none(), "no --data-dir, no recovery");
        let response = service.handle_line(r#"{"op":"select","budget":2}"#);
        assert!(response.contains(r#""ok":true"#), "{response}");
        assert!(
            response.contains("Alice") || response.contains("Bob"),
            "{response}"
        );
    }

    #[test]
    fn built_durable_service_recovers_across_builds() {
        let dir = std::env::temp_dir().join(format!(
            "podium-cli-durable-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let flags = format!(
            "--profiles p.json --strategy paper --workers 1 --data-dir {}",
            dir.display()
        );
        let a = parse_serve_args(&argv(&flags)).unwrap();
        {
            let (service, recovery) = build_service(SAMPLE, &a).unwrap();
            let report = recovery.expect("durable build reports recovery");
            assert_eq!(report.recovered_epoch, 0);
            assert!(describe_recovery(&report).contains("recovered epoch 0"));
            let response = service.handle_line(
                r#"{"op":"update-profile","user":"Dave","property":"avgRating Mexican","score":0.7}"#,
            );
            assert!(response.contains(r#""ok":true"#), "{response}");
        }
        let (service, recovery) = build_service(SAMPLE, &a).unwrap();
        let report = recovery.expect("durable build reports recovery");
        assert_eq!(report.replayed_updates, 1, "{report:?}");
        assert_eq!(report.recovered_epoch, 1, "{report:?}");
        let response = service.handle_line(r#"{"op":"stats"}"#);
        assert!(response.contains(r#""users":4"#), "{response}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_bench_serve_flags() {
        let a = parse_bench_serve_args(&argv(
            "--users 500 --budget 8 --clients 2 --workers 2 --duration-s 0.25 \
             --update-hz 5 --seed 7 --out /tmp/x.jsonl",
        ))
        .unwrap();
        assert_eq!(a.config.users, 500);
        assert_eq!(a.config.budget, 8);
        assert_eq!(a.config.duration, Duration::from_millis(250));
        assert_eq!(a.config.update_hz, 5);
        assert_eq!(a.config.seed, 7);
        assert_eq!(a.config.transport, BenchTransport::InProcess);
        assert_eq!(a.out, "/tmp/x.jsonl");

        let a = parse_bench_serve_args(&argv("--transport tcp")).unwrap();
        assert_eq!(a.config.transport, BenchTransport::Tcp);
        assert_eq!(a.durability, None);

        let a = parse_bench_serve_args(&argv("--data-dir /tmp/d --fsync off")).unwrap();
        let opts = a.durability.expect("durability options");
        assert_eq!(opts.fsync, FsyncPolicy::Off);

        assert!(parse_bench_serve_args(&argv("--users 0")).is_err());
        assert!(parse_bench_serve_args(&argv("--duration-s -1")).is_err());
        assert!(parse_bench_serve_args(&argv("--transport carrier-pigeon")).is_err());
        assert!(parse_bench_serve_args(&argv("--fsync batch")).is_err());
    }

    #[test]
    fn parse_bench_serve_drift_flags() {
        let a =
            parse_bench_serve_args(&argv("--drift-hz 500 --publish-mode full-rebuild")).unwrap();
        assert_eq!(a.config.update_hz, 500, "--drift-hz aliases --update-hz");
        assert_eq!(a.config.publish_mode, PublishMode::FullRebuild);
        let a = parse_bench_serve_args(&argv("--publish-mode incremental")).unwrap();
        assert_eq!(a.config.publish_mode, PublishMode::Incremental);
        assert!(parse_bench_serve_args(&argv("--publish-mode sometimes")).is_err());
        assert!(parse_bench_serve_args(&argv("--drift-hz")).is_err());
    }

    #[test]
    fn bench_serve_summary_and_row_agree() {
        let args = BenchServeArgs {
            config: BenchConfig {
                users: 150,
                properties: 8,
                scores_per_user: 3,
                budget: 4,
                clients: 2,
                workers: 2,
                queue_capacity: 32,
                duration: Duration::from_millis(150),
                update_hz: 20,
                deadline_ms: 1_000,
                seed: 11,
                transport: BenchTransport::InProcess,
                publish_mode: PublishMode::Incremental,
            },
            out: "unused".into(),
            durability: None,
        };
        let (human, row) = run_bench_serve(&args);
        assert!(human.contains("bench-serve: 150 users"), "{human}");
        assert!(
            human.contains("failed 0 (deadline 0, transport 0, other 0)"),
            "{human}"
        );
        let v: serde_json::Value = serde_json::from_str(&row).unwrap();
        assert_eq!(
            v["schema"].as_str(),
            Some(podium_service::bench::BENCH_SERVE_SCHEMA)
        );
        assert_eq!(v["seq"].as_u64(), Some(0));
        assert_eq!(v["bench"].as_str(), Some("serve"));
        assert_eq!(v["transport"].as_str(), Some("inproc"));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["inconsistent"].as_u64(), Some(0));
        assert!(v["served"].as_u64().unwrap() > 0);
        assert_eq!(
            v["failed"].as_u64().unwrap(),
            v["failed_deadline"].as_u64().unwrap()
                + v["failed_transport"].as_u64().unwrap()
                + v["failed_other"].as_u64().unwrap()
        );
    }

    #[test]
    fn parse_quarantine_modes() {
        assert_eq!(
            parse_quarantine_args(&argv("scan d.json --format taxonomy --report r.json")).unwrap(),
            QuarantineCmd::Scan {
                input: "d.json".into(),
                format: ReplayFormat::Taxonomy,
                report_out: Some("r.json".into()),
            }
        );
        assert_eq!(
            parse_quarantine_args(&argv("inspect r.json")).unwrap(),
            QuarantineCmd::Inspect {
                report: "r.json".into()
            }
        );
        assert_eq!(
            parse_quarantine_args(&argv("replay r.json d.json")).unwrap(),
            QuarantineCmd::Replay {
                report: "r.json".into(),
                input: "d.json".into(),
                max_attempts: REPLAY_DEFAULT_MAX_ATTEMPTS,
                backoff_base_ms: REPLAY_DEFAULT_BACKOFF_BASE_MS,
                backoff_cap_ms: REPLAY_DEFAULT_BACKOFF_CAP_MS,
                seed: REPLAY_DEFAULT_SEED,
            }
        );
        assert_eq!(
            parse_quarantine_args(&argv(
                "replay r.json d.json --max-attempts 5 --backoff-base-ms 10 \
                 --backoff-cap-ms 200 --seed 42"
            ))
            .unwrap(),
            QuarantineCmd::Replay {
                report: "r.json".into(),
                input: "d.json".into(),
                max_attempts: 5,
                backoff_base_ms: 10,
                backoff_cap_ms: 200,
                seed: 42,
            }
        );
        assert!(parse_quarantine_args(&argv("")).is_err());
        assert!(parse_quarantine_args(&argv("scan")).is_err());
        assert!(parse_quarantine_args(&argv("scan d --format wat")).is_err());
        assert!(parse_quarantine_args(&argv("inspect a b")).is_err());
        assert!(parse_quarantine_args(&argv("frobnicate x")).is_err());
        assert!(parse_quarantine_args(&argv("replay r d --max-attempts 0")).is_err());
        assert!(parse_quarantine_args(&argv("replay r d --max-attempts")).is_err());
        assert!(parse_quarantine_args(&argv("replay r d --wat 1")).is_err());
        assert!(parse_quarantine_args(&argv("replay r d extra")).is_err());
    }

    #[test]
    fn backoff_is_seeded_capped_and_grows() {
        // Same seed, same schedule; the jitter stays within [50%, 100%]
        // of the capped exponential envelope.
        let schedule = |mut seed: u64| -> Vec<u64> {
            (1..=8)
                .map(|a| compute_backoff_ms(50, 2_000, a, &mut seed))
                .collect()
        };
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let mut seed = 7;
        for attempt in 1..=12u32 {
            let envelope = 50u64
                .saturating_mul(1 << u64::from(attempt.saturating_sub(1).min(32)))
                .min(2_000);
            let ms = compute_backoff_ms(50, 2_000, attempt, &mut seed);
            assert!(
                ms >= envelope / 2 && ms <= envelope,
                "attempt {attempt}: {ms} outside [{}, {envelope}]",
                envelope / 2
            );
        }
        // Huge attempt numbers must not overflow.
        let mut seed = 1;
        assert!(compute_backoff_ms(50, 2_000, u32::MAX, &mut seed) <= 2_000);
    }

    /// End-to-end scan → inspect → replay over an actually corrupted
    /// document, through the same string-level entry points the binary
    /// uses.
    #[test]
    fn quarantine_workflow_round_trips() {
        let mut repo = podium_core::profile::UserRepository::new();
        for i in 0..6 {
            let u = repo.add_user(format!("u{i}"));
            let p = repo.intern_property("p0");
            repo.set_score(u, p, 0.1 + 0.1 * i as f64).unwrap();
        }
        let clean = profiles_to_json(&repo).unwrap();
        let corrupted = FaultInjector::new(3)
            .corrupt_json(
                &clean,
                &[FaultKind::OutOfRangeScore, FaultKind::MissingField],
            )
            .unwrap();

        let (human, report_json) = quarantine_scan(&corrupted, ReplayFormat::JsonProfiles).unwrap();
        assert!(human.contains("4 accepted, 2 quarantined"), "{human}");

        let inspected = quarantine_inspect(&report_json).unwrap();
        assert_eq!(inspected, human, "scan shows what inspect will show");

        // Replaying the still-broken document: nothing fixed, nothing new.
        let (summary, clean_replay) = quarantine_replay(&report_json, &corrupted).unwrap();
        assert!(!clean_replay);
        assert!(
            summary.contains("0 fixed, 2 still defective, 0 new"),
            "{summary}"
        );

        // Replaying the original clean document: everything fixed.
        let (summary, clean_replay) = quarantine_replay(&report_json, &clean).unwrap();
        assert!(clean_replay, "{summary}");
        assert!(
            summary.contains("2 fixed, 0 still defective, 0 new"),
            "{summary}"
        );
        assert!(summary.contains("accepted 6 records"), "{summary}");
    }

    #[test]
    fn quarantine_errors_are_reported_not_panicked() {
        assert!(quarantine_inspect("not json").is_err());
        assert!(quarantine_scan("not json", ReplayFormat::JsonProfiles).is_err());
        assert!(quarantine_replay("not json", "{}").is_err());
    }
}
