//! Integration tests for the `experiments` driver's failure isolation:
//! a panicking or stalling experiment must not abort the run, must be
//! recorded in the JSONL status file, and must flip the exit code.

use std::path::PathBuf;
use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

fn temp_status(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "podium-exp-status-{name}-{}.jsonl",
        std::process::id()
    ));
    p
}

/// Parses the one-line JSON entries written by the driver (no serde in
/// this crate's dev-deps; the format is flat and fully driver-controlled).
fn entries(path: &PathBuf) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(path).expect("status file written");
    text.lines()
        .map(|l| {
            let field = |key: &str| {
                let tag = format!("\"{key}\":\"");
                let start = l.find(&tag).unwrap_or_else(|| panic!("{key} in {l}")) + tag.len();
                l[start..start + l[start..].find('"').unwrap()].to_owned()
            };
            (field("name"), field("outcome"))
        })
        .collect()
}

#[test]
fn panicking_experiment_does_not_abort_the_run() {
    let status = temp_status("panic");
    let out = experiments()
        .args([
            "selftest-panic,table2",
            "--scale",
            "0.05",
            "--status-file",
            status.to_str().unwrap(),
        ])
        .output()
        .expect("run experiments binary");
    assert!(
        !out.status.success(),
        "a failed experiment must flip the exit code"
    );
    let got = entries(&status);
    assert_eq!(
        got,
        vec![
            ("selftest-panic".to_owned(), "panicked".to_owned()),
            ("table2".to_owned(), "ok".to_owned()),
        ],
        "the panic is recorded AND the following experiment still ran"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("Table 2"),
        "table2 output produced after the panic:\n{stdout}"
    );
    assert!(stdout.contains("1/2 ok"), "summary line present:\n{stdout}");
    std::fs::remove_file(&status).ok();
}

#[test]
fn watchdog_times_out_stalled_experiments() {
    let status = temp_status("slow");
    let out = experiments()
        .args([
            "selftest-slow,table2",
            "--timeout-secs",
            "1",
            "--status-file",
            status.to_str().unwrap(),
        ])
        .output()
        .expect("run experiments binary");
    assert!(!out.status.success());
    let got = entries(&status);
    assert_eq!(
        got,
        vec![
            ("selftest-slow".to_owned(), "timed_out".to_owned()),
            ("table2".to_owned(), "ok".to_owned()),
        ],
        "the stall is bounded by the watchdog and the run continues"
    );
    std::fs::remove_file(&status).ok();
}

#[test]
fn clean_run_exits_zero_with_ok_entries() {
    let status = temp_status("clean");
    let out = experiments()
        .args(["table2", "--status-file", status.to_str().unwrap()])
        .output()
        .expect("run experiments binary");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        entries(&status),
        vec![("table2".to_owned(), "ok".to_owned())]
    );
    std::fs::remove_file(&status).ok();
}

#[test]
fn failed_artifact_write_fails_the_experiment() {
    // A directory where `ablation` writes BENCH_20.json makes the write
    // fail after the experiment's work is done.
    let dir = std::env::temp_dir().join(format!("podium-exp-artifact-{}", std::process::id()));
    std::fs::create_dir_all(dir.join("BENCH_20.json")).expect("create the blocking directory");
    let status = temp_status("artifact");
    let out = experiments()
        .args([
            "ablation",
            "--scale",
            "0.05",
            "--status-file",
            status.to_str().unwrap(),
        ])
        .current_dir(&dir)
        .output()
        .expect("run experiments binary");
    assert!(
        !out.status.success(),
        "a failed artifact write must flip the exit code"
    );
    assert_eq!(
        entries(&status),
        vec![("ablation".to_owned(), "panicked".to_owned())]
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("could not write BENCH_20.json"),
        "the panic names the artifact:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&status).ok();
}

#[test]
fn unknown_experiment_is_a_usage_error() {
    let out = experiments()
        .args(["fig9000"])
        .output()
        .expect("run experiments binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown experiment"));
}
