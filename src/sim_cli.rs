//! The simulator subcommands of `podium-cli`: `sim run` and
//! `sim report`.
//!
//! * `sim run` — drives the workload generator
//!   ([`podium_sim::run_sim_with`]) from a versioned scenario file against
//!   a service deployed in memory or durable, writing three artifacts
//!   into `--out-dir`: `trace.jsonl` (byte-identical per seed),
//!   `requests.jsonl` (wall-clock latencies/outcomes/staleness, and every
//!   closed-loop client request), and `rollup.json` (the deterministic
//!   counter rollup). A scenario with `clients` is the serving
//!   throughput benchmark (`configs/serve.json`).
//! * `sim report` — the unified dashboard: validates any mix of
//!   experiment-status, podium-lint, and simulator JSONL files and
//!   renders one human dashboard plus the machine
//!   `podium.dashboard-rollup/1` document (checked in as
//!   `BENCH_8.json`).

use podium_service::snapshot::PublishMode;
use podium_sim::driver::{run_sim_with, Deployment, SimOptions};
use podium_sim::report::render;
use podium_sim::scenario::parse_scenario;
use podium_sim::stream::read_streams;
use podium_sim::transport::TransportSpec;

use crate::service_cli::DurabilityFlags;

/// Usage text for the `sim` subcommand family; appended to the main
/// usage output.
pub const SIM_USAGE: &str = "\
podium-cli sim — deterministic workload simulation + dashboard

USAGE:
  sim run --scenario FILE [--seed N] [--transport inproc|unix|tcp]
      [--chaos] [--out-dir DIR] [--publish-mode incremental|full-rebuild]
      [--data-dir DIR] [--fsync always|batch|off] [--checkpoint-every N]
      Drive the scenario against a real in-process service; write
      trace.jsonl / requests.jsonl / rollup.json under --out-dir
      (default target/sim). Same --seed and scenario => byte-identical
      trace and rollup. --chaos (tcp only) interposes the
      virtual-clock chaos proxy. A scenario with closed-loop clients
      (configs/serve.json) runs them for its whole window, paced to
      wall-clock time, and prints select req/s and the failure
      breakdown. --publish-mode picks how epochs are materialized;
      with --data-dir the service is durable (same flags as serve)
      and the run ends with a timed cold recovery of DIR.
  sim report --in FILE [--in FILE ...] [--out FILE]
      Render the unified dashboard over any mix of experiment-status,
      podium-lint, and sim trace/request JSONL files; print the human
      dashboard and write the machine rollup to --out (default
      BENCH_8.json).
";

/// Parsed `sim run` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct SimRunArgs {
    /// Scenario file path (`podium.scenario/1` JSON).
    pub scenario: String,
    /// Master seed.
    pub seed: u64,
    /// Transport name (`inproc` | `unix` | `tcp`).
    pub transport: String,
    /// Interpose the chaos proxy (tcp only).
    pub chaos: bool,
    /// Directory the three artifacts are written into.
    pub out_dir: String,
    /// Publish mode and durability of the service under test.
    pub deployment: Deployment,
}

/// Parsed `sim report` command line.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReportArgs {
    /// Input JSONL paths, each auto-detected by schema tag.
    pub inputs: Vec<String>,
    /// Where the machine rollup is written.
    pub out: String,
}

/// Parses `sim run` arguments (everything after the two command words).
pub fn parse_sim_run_args(argv: &[String]) -> Result<SimRunArgs, String> {
    let mut scenario: Option<String> = None;
    let mut seed = 0u64;
    let mut transport = "inproc".to_owned();
    let mut chaos = false;
    let mut out_dir = "target/sim".to_owned();
    let mut publish_mode = PublishMode::default();
    let mut durable = DurabilityFlags::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--scenario" => scenario = Some(value("--scenario")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?
            }
            "--transport" => transport = value("--transport")?,
            "--chaos" => chaos = true,
            "--out-dir" => out_dir = value("--out-dir")?,
            "--publish-mode" => publish_mode = parse_publish_mode(&value("--publish-mode")?)?,
            other => {
                if !durable.parse(other, &mut value)? {
                    return Err(format!("unknown flag '{other}'"));
                }
            }
        }
    }
    let scenario = scenario.ok_or_else(|| "--scenario is required".to_owned())?;
    if chaos && transport != "tcp" {
        return Err("--chaos requires --transport tcp".to_owned());
    }
    // Validate the transport name eagerly so errors surface before any run.
    TransportSpec::parse(&transport, chaos)?;
    Ok(SimRunArgs {
        scenario,
        seed,
        transport,
        chaos,
        out_dir,
        deployment: Deployment {
            publish_mode,
            durability: durable.assemble()?,
        },
    })
}

fn parse_publish_mode(tag: &str) -> Result<PublishMode, String> {
    match tag {
        "incremental" => Ok(PublishMode::Incremental),
        "full-rebuild" | "full_rebuild" => Ok(PublishMode::FullRebuild),
        other => Err(format!(
            "unknown publish mode '{other}' (incremental | full-rebuild)"
        )),
    }
}

/// Parses `sim report` arguments.
pub fn parse_sim_report_args(argv: &[String]) -> Result<SimReportArgs, String> {
    let mut inputs = Vec::new();
    let mut out = "BENCH_8.json".to_owned();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--in" => inputs.push(value("--in")?),
            "--out" => out = value("--out")?,
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if inputs.is_empty() {
        return Err("at least one --in FILE is required".to_owned());
    }
    Ok(SimReportArgs { inputs, out })
}

/// The artifacts of one `sim run`, ready to be written to disk.
#[derive(Debug)]
pub struct SimRunOutput {
    /// Wall-clock summary for stdout.
    pub human: String,
    /// Event-trace JSONL (deterministic per seed).
    pub trace: String,
    /// Request-log JSONL.
    pub requests: String,
    /// Deterministic rollup, serialized.
    pub rollup_json: String,
}

/// Reads the scenario and runs the simulation. Pure compute plus one
/// file read; the binary owns writing the artifacts.
pub fn run_sim_run(args: &SimRunArgs) -> Result<SimRunOutput, String> {
    let text = std::fs::read_to_string(&args.scenario)
        .map_err(|e| format!("cannot read scenario '{}': {e}", args.scenario))?;
    let scenario = parse_scenario(&text).map_err(|e| e.to_string())?;
    let transport = TransportSpec::parse(&args.transport, args.chaos)?;
    let options = SimOptions {
        seed: args.seed,
        transport,
    };
    let output = run_sim_with(&scenario, &options, &args.deployment).map_err(|e| e.to_string())?;
    // podium-lint: allow(expect) — the rollup is built from plain strings/numbers and cannot fail to serialize
    let rollup_json =
        serde_json::to_string(&output.rollup).expect("rollup serialization is infallible");
    Ok(SimRunOutput {
        human: output.human,
        trace: output.trace,
        requests: output.requests,
        rollup_json,
    })
}

/// Reads and validates every input stream, renders the dashboard.
/// Returns `(human_dashboard, rollup_json)`.
pub fn run_sim_report(args: &SimReportArgs) -> Result<(String, String), String> {
    let mut documents = Vec::new();
    for path in &args.inputs {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read input '{path}': {e}"))?;
        documents.push((path.clone(), text));
    }
    let streams = read_streams(&documents).map_err(|e| e.to_string())?;
    // The rollup about to be overwritten is the previous run's — parse
    // it (best-effort) so the lint section can report the debt delta.
    let previous = std::fs::read_to_string(&args.out)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok());
    let (human, rollup) = render(&streams, previous.as_ref());
    // podium-lint: allow(expect) — the rollup is built from plain strings/numbers and cannot fail to serialize
    let rollup_json = serde_json::to_string(&rollup).expect("rollup serialization is infallible");
    Ok((human, rollup_json))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_run_flags() {
        let a = parse_sim_run_args(&argv(
            "--scenario configs/sim_smoke.json --seed 42 --transport tcp --chaos --out-dir /tmp/x",
        ))
        .unwrap();
        assert_eq!(a.scenario, "configs/sim_smoke.json");
        assert_eq!(a.seed, 42);
        assert_eq!(a.transport, "tcp");
        assert!(a.chaos);
        assert_eq!(a.out_dir, "/tmp/x");
        assert_eq!(a.deployment, Deployment::default());
    }

    #[test]
    fn parse_run_deployment_flags() {
        let a = parse_sim_run_args(&argv(
            "--scenario s.json --publish-mode full-rebuild --data-dir /tmp/d --fsync batch \
             --checkpoint-every 64",
        ))
        .unwrap();
        assert_eq!(a.deployment.publish_mode, PublishMode::FullRebuild);
        let opts = a.deployment.durability.expect("durability options");
        assert_eq!(opts.data_dir, std::path::PathBuf::from("/tmp/d"));
        assert_eq!(opts.fsync, podium_service::FsyncPolicy::Batch);
        assert_eq!(opts.checkpoint_every, 64);
        let a = parse_sim_run_args(&argv("--scenario s.json --publish-mode incremental")).unwrap();
        assert_eq!(a.deployment.publish_mode, PublishMode::Incremental);
        for bad in [
            "--scenario s.json --publish-mode sometimes",
            "--scenario s.json --publish-mode",
            "--scenario s.json --fsync batch",
            "--scenario s.json --data-dir d --fsync sometimes",
        ] {
            assert!(parse_sim_run_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn closed_loop_run_prints_the_failure_breakdown() {
        let dir = std::env::temp_dir().join(format!("podium-sim-cli-serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let scenario = dir.join("serve.json");
        std::fs::write(
            &scenario,
            r#"{"schema": "podium.scenario/1", "name": "cli-serve", "duration_s": 0.3,
                "clients": 2,
                "population": {"users": 150, "properties": 8, "scores_per_user": 3},
                "drift": {"rate_hz": 20.0, "matrix": [[0,0.5,0.5],[0.5,0,0.5],[0.5,0.5,0]]},
                "session": {"budget": 4},
                "observer": {"rate_hz": 20.0},
                "service": {"workers": 2, "queue_capacity": 32}}"#,
        )
        .unwrap();
        let args = parse_sim_run_args(&argv(&format!(
            "--scenario {} --seed 11 --data-dir {}",
            scenario.display(),
            dir.join("data").display()
        )))
        .unwrap();
        let out = run_sim_run(&args).unwrap();
        assert!(out.human.contains("closed loop: "), "{}", out.human);
        assert!(
            out.human
                .contains("failed 0 (deadline 0, transport 0, other 0)"),
            "{}",
            out.human
        );
        assert!(out.human.contains("inconsistent 0"), "{}", out.human);
        assert!(out.human.contains("durable: wal "), "{}", out.human);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_run_defaults_and_errors() {
        let a = parse_sim_run_args(&argv("--scenario s.json")).unwrap();
        assert_eq!(a.seed, 0);
        assert_eq!(a.transport, "inproc");
        assert_eq!(a.out_dir, "target/sim");
        assert!(parse_sim_run_args(&argv("")).is_err());
        assert!(parse_sim_run_args(&argv("--scenario s.json --chaos")).is_err());
        assert!(parse_sim_run_args(&argv("--scenario s.json --transport pigeon")).is_err());
        assert!(parse_sim_run_args(&argv("--scenario s.json --seed nope")).is_err());
    }

    #[test]
    fn parse_report_flags() {
        let a = parse_sim_report_args(&argv("--in a.jsonl --in b.jsonl --out R.json")).unwrap();
        assert_eq!(a.inputs, vec!["a.jsonl".to_owned(), "b.jsonl".to_owned()]);
        assert_eq!(a.out, "R.json");
        let a = parse_sim_report_args(&argv("--in a.jsonl")).unwrap();
        assert_eq!(a.out, "BENCH_8.json");
        assert!(parse_sim_report_args(&argv("--out R.json")).is_err());
    }

    #[test]
    fn report_rejects_invalid_streams_with_the_typed_message() {
        let dir = std::env::temp_dir().join(format!("podium-sim-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "{\"schema\":\"podium.mystery/9\",\"seq\":0}\n").unwrap();
        let args = SimReportArgs {
            inputs: vec![bad.to_string_lossy().into_owned()],
            out: "unused".into(),
        };
        let err = run_sim_report(&args).unwrap_err();
        assert!(err.contains("unknown stream schema"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
