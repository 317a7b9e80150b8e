//! `podium-cli` — diverse user selection over JSON profile files, plus the
//! serving-side front-end (`serve`, `quarantine`) and the workload
//! simulator (`sim`).
//!
//! See `podium::cli::USAGE` / `podium::service_cli::SERVICE_USAGE` or run
//! with `--help`.

use std::sync::Arc;

use podium::service_cli::{self, QuarantineCmd};
use podium::sim_cli;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") || argv.is_empty() {
        eprint!(
            "{}\n{}\n{}",
            podium::cli::USAGE,
            service_cli::SERVICE_USAGE,
            sim_cli::SIM_USAGE
        );
        std::process::exit(if argv.is_empty() { 2 } else { 0 });
    }
    if let Some((cmd, rest)) = argv.split_first() {
        match cmd.as_str() {
            "serve" => run_serve(rest),
            "quarantine" => run_quarantine(rest),
            "sim" => run_sim(rest),
            _ => run_classic(&argv),
        }
    }
}

/// `sim run` / `sim report` dispatch: the library computes, this binary
/// owns every file write.
fn run_sim(argv: &[String]) {
    let Some((sub, rest)) = argv.split_first() else {
        usage_error("sim needs a subcommand: run | report");
    };
    match sub.as_str() {
        "run" => {
            let args = match sim_cli::parse_sim_run_args(rest) {
                Ok(a) => a,
                Err(e) => usage_error(&e),
            };
            let output = match sim_cli::run_sim_run(&args) {
                Ok(o) => o,
                Err(e) => fail(&e),
            };
            let dir = std::path::Path::new(&args.out_dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                fail(&format!("cannot create '{}': {e}", dir.display()));
            }
            for (name, contents) in [
                ("trace.jsonl", &output.trace),
                ("requests.jsonl", &output.requests),
                ("rollup.json", &output.rollup_json),
            ] {
                let path = dir.join(name);
                if let Err(e) = std::fs::write(&path, contents) {
                    fail(&format!("cannot write '{}': {e}", path.display()));
                }
            }
            print!("{}", output.human);
            println!(
                "recorded: {}/{{trace.jsonl,requests.jsonl,rollup.json}}",
                args.out_dir
            );
        }
        "report" => {
            let args = match sim_cli::parse_sim_report_args(rest) {
                Ok(a) => a,
                Err(e) => usage_error(&e),
            };
            let (human, rollup_json) = match sim_cli::run_sim_report(&args) {
                Ok(r) => r,
                Err(e) => fail(&e),
            };
            print!("{human}");
            if let Err(e) = std::fs::write(&args.out, format!("{rollup_json}\n")) {
                fail(&format!("cannot write '{}': {e}", args.out));
            }
            println!("wrote {}", args.out);
        }
        other => usage_error(&format!("unknown sim subcommand '{other}' (run | report)")),
    }
}

/// The original stats/groups/select path.
fn run_classic(argv: &[String]) {
    let args = match podium::cli::parse_args(argv) {
        Ok(a) => a,
        Err(e) => usage_error(&e),
    };
    let profiles = read_file(&args.profiles);
    let config = args.config.as_deref().map(read_file);
    match podium::cli::run(&args, &profiles, config.as_deref()) {
        Ok(out) => print!("{out}"),
        Err(e) => fail(&e),
    }
}

fn run_serve(argv: &[String]) {
    let args = match service_cli::parse_serve_args(argv) {
        Ok(a) => a,
        Err(e) => usage_error(&e),
    };
    let profiles = read_file(&args.profiles);
    let (service, recovery) = match service_cli::build_service(&profiles, &args) {
        Ok(s) => s,
        Err(e) => fail(&e),
    };
    if let Some(report) = &recovery {
        eprintln!("podium-cli: {}", service_cli::describe_recovery(report));
    }
    if let Some(addr) = &args.tcp {
        // TCP serving: the listener runs on background threads, so this
        // thread just parks; the process is stopped by signal.
        let server =
            match podium::service::tcp::TcpServer::bind(Arc::new(service), addr, args.tcp_config) {
                Ok(s) => s,
                Err(e) => fail(&format!("cannot bind tcp {addr}: {e}")),
            };
        // The actual bound address matters when ':0' asked for an
        // ephemeral port; print it so clients (and tests) can connect.
        eprintln!("podium-cli: serving on tcp {}", server.local_addr());
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let result = match &args.socket {
        Some(path) => {
            eprintln!("podium-cli: serving on unix socket {path}");
            podium::service::server::serve_unix(Arc::new(service), std::path::Path::new(path))
        }
        None => podium::service::server::serve_stdio(&service),
    };
    if let Err(e) = result {
        fail(&format!("serve failed: {e}"));
    }
}

fn run_quarantine(argv: &[String]) {
    let cmd = match service_cli::parse_quarantine_args(argv) {
        Ok(c) => c,
        Err(e) => usage_error(&e),
    };
    match cmd {
        QuarantineCmd::Scan {
            input,
            format,
            report_out,
        } => {
            let document = read_file(&input);
            match service_cli::quarantine_scan(&document, format) {
                Ok((human, report_json)) => {
                    print!("{human}");
                    if let Some(out) = report_out {
                        if let Err(e) = std::fs::write(&out, report_json + "\n") {
                            fail(&format!("cannot write '{out}': {e}"));
                        }
                        println!("report written: {out}");
                    }
                }
                Err(e) => fail(&e),
            }
        }
        QuarantineCmd::Inspect { report } => {
            let report_json = read_file(&report);
            match service_cli::quarantine_inspect(&report_json) {
                Ok(human) => print!("{human}"),
                Err(e) => fail(&e),
            }
        }
        QuarantineCmd::Replay {
            report,
            input,
            max_attempts,
            backoff_base_ms,
            backoff_cap_ms,
            mut seed,
        } => {
            let report_json = read_file(&report);
            // The document is re-read before every attempt: the point of
            // retrying is that someone (or something) is editing it.
            for attempt in 1..=max_attempts {
                let document = read_file(&input);
                match service_cli::quarantine_replay(&report_json, &document) {
                    Ok((human, clean)) => {
                        print!("{human}");
                        if clean {
                            return;
                        }
                        if attempt == max_attempts {
                            std::process::exit(1);
                        }
                        let sleep_ms = service_cli::compute_backoff_ms(
                            backoff_base_ms,
                            backoff_cap_ms,
                            attempt,
                            &mut seed,
                        );
                        eprintln!(
                            "podium-cli: replay attempt {attempt}/{max_attempts} not clean; \
                             retrying in {sleep_ms} ms"
                        );
                        std::thread::sleep(std::time::Duration::from_millis(sleep_ms));
                    }
                    Err(e) => fail(&e),
                }
            }
        }
    }
}

fn read_file(path: &str) -> String {
    match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => fail(&format!("cannot read '{path}': {e}")),
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}\n");
    eprint!(
        "{}\n{}",
        podium::cli::USAGE,
        podium::service_cli::SERVICE_USAGE
    );
    std::process::exit(2);
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}
