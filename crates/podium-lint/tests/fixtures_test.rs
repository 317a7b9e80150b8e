//! Integration tests over the checked-in fixture corpus: the runner
//! must report exactly the violations the fixtures plant — same file,
//! same line, same rule — nothing more, nothing less.

use std::path::PathBuf;
use std::process::Command;

use podium_lint::{runner, Rule};

fn fixture_run(paths: &[&str]) -> runner::Outcome {
    fixture_run_with_manifest(paths, None)
}

fn fixture_run_with_manifest(paths: &[&str], det_manifest: Option<&str>) -> runner::Outcome {
    let opts = runner::Options {
        workspace: false,
        paths: paths.iter().map(PathBuf::from).collect(),
        allowlist: None,
        det_manifest: det_manifest.map(PathBuf::from),
        deny_all: true,
        cwd: Some(PathBuf::from(env!("CARGO_MANIFEST_DIR"))),
    };
    runner::run(&opts).expect("fixture run succeeds")
}

/// `(line, rule)` of every unsuppressed violation, sorted.
fn denied(outcome: &runner::Outcome) -> Vec<(u32, Rule)> {
    let mut v: Vec<(u32, Rule)> = outcome
        .violations
        .iter()
        .filter(|v| v.allowed.is_none())
        .map(|v| (v.line, v.rule))
        .collect();
    v.sort();
    v
}

#[test]
fn panics_fixture_reports_the_exact_violation_set() {
    let outcome = fixture_run(&["tests/fixtures/panics.rs"]);
    assert_eq!(
        denied(&outcome),
        vec![
            (6, Rule::Unwrap),
            (7, Rule::Expect),
            (9, Rule::Panic),
            (12, Rule::Todo),
            (15, Rule::Unimplemented),
            (17, Rule::Index),
            (19, Rule::Unreachable),
            (26, Rule::BadAllow),
        ],
    );
    // The justified suppression on line 22 is recorded, not denied.
    let suppressed: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.allowed.is_some())
        .collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 22);
    assert_eq!(suppressed[0].rule, Rule::Unwrap);
    assert!(suppressed[0]
        .allowed
        .as_deref()
        .unwrap()
        .contains("justified suppression"));
    // Test-module code (`v[0]`, `.unwrap()` inside `#[cfg(test)]`) is
    // exempt: no violation points past the module opening.
    assert!(outcome.violations.iter().all(|v| v.line < 28));
}

#[test]
fn locks_fixture_reports_poison_sites_and_the_cycle() {
    let outcome = fixture_run(&["tests/fixtures/locks.rs"]);
    let poison: Vec<u32> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockPoison)
        .map(|v| v.line)
        .collect();
    assert_eq!(poison, vec![13, 14, 19, 20]);
    // The panic pass independently flags the same bare unwraps.
    let unwraps = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::Unwrap)
        .count();
    assert_eq!(unwraps, 4);
    let cycles: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockOrder)
        .collect();
    assert_eq!(cycles.len(), 1, "one canonical cycle, reported once");
    // Receiver resolution type-qualifies the nodes (`Pair::a`), since
    // the fixture declares the fields.
    assert!(
        cycles[0].message.contains("Pair::a -> Pair::b"),
        "{}",
        cycles[0].message
    );
    assert!(
        cycles[0].message.contains("Pair::b -> Pair::a"),
        "{}",
        cycles[0].message
    );
    // Both edges appear in the merged lock graph with resolved flags.
    assert_eq!(outcome.lock_graph.len(), 2);
    assert!(outcome
        .lock_graph
        .iter()
        .all(|e| e.held_resolved && e.acquired_resolved));
}

#[test]
fn discarded_fixture_reports_the_exact_violation_set() {
    let outcome = fixture_run(&["tests/fixtures/discarded.rs"]);
    // Line 17 is the durability-PR checkpoint-swallow shape: a fallible
    // `maybe_checkpoint` discarded on the update path.
    assert_eq!(
        denied(&outcome),
        vec![
            (17, Rule::DiscardedResult),
            (25, Rule::DiscardedResult),
            (29, Rule::DiscardedResult),
        ],
    );
    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.line == 17 && v.message.contains("self.maybe_checkpoint")),
        "checkpoint-swallow message names the call"
    );
    // The justified best-effort removal is recorded, not denied.
    let suppressed: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.allowed.is_some())
        .collect();
    assert_eq!(suppressed.len(), 1);
    assert_eq!(suppressed[0].line, 34);
    assert_eq!(suppressed[0].rule, Rule::DiscardedResult);
}

#[test]
fn determinism_fixture_flags_only_manifest_listed_files() {
    let outcome = fixture_run_with_manifest(
        &["tests/fixtures/determinism.rs"],
        Some("tests/fixtures/deterministic.manifest"),
    );
    // Hash membership (`get`) and BTreeMap iteration stay clean; the
    // wall clock, hash iteration/drain, thread id and `.par_*` don't.
    assert_eq!(
        denied(&outcome),
        vec![
            (10, Rule::DeterminismHygiene),
            (15, Rule::DeterminismHygiene),
            (22, Rule::DeterminismHygiene),
            (38, Rule::DeterminismHygiene),
            (42, Rule::DeterminismHygiene),
        ],
    );
    // Every finding cites the manifest's note so the operator sees why
    // the module is held to the rule.
    assert!(outcome
        .violations
        .iter()
        .all(|v| v.message.contains("byte-identical")));
    // Without the manifest the same file is clean: the rule is opt-in.
    let unlisted = fixture_run(&["tests/fixtures/determinism.rs"]);
    assert_eq!(denied(&unlisted), vec![]);
}

#[test]
fn deadlock_fixtures_cycle_only_when_merged_across_files() {
    // Each half on its own is cycle-free…
    for half in [
        &["tests/fixtures/deadlock_a.rs"][..],
        &["tests/fixtures/deadlock_b.rs"][..],
    ] {
        let solo = fixture_run(half);
        assert_eq!(denied(&solo), vec![], "half {half:?} must be clean solo");
    }
    // …but merging the graphs through receiver-type resolution finds
    // the Conn::state ⇄ Conn::queue inversion, even though the two
    // halves reach the mutexes through differently-named fields.
    let outcome = fixture_run(&[
        "tests/fixtures/deadlock_a.rs",
        "tests/fixtures/deadlock_b.rs",
    ]);
    let cycles: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::LockOrder)
        .collect();
    assert_eq!(cycles.len(), 1, "{:?}", denied(&outcome));
    assert!(
        cycles[0].message.contains("Conn::state -> Conn::queue"),
        "{}",
        cycles[0].message
    );
    assert!(
        cycles[0].message.contains("Conn::queue -> Conn::state"),
        "{}",
        cycles[0].message
    );
    assert_eq!(denied(&outcome).len(), 1, "the cycle is the only finding");
    // The merged graph carries both resolved edges for the JSONL dump.
    assert_eq!(outcome.lock_graph.len(), 2);
    assert!(outcome
        .lock_graph
        .iter()
        .all(|e| e.held_resolved && e.acquired_resolved));
}

#[test]
fn cfg_fixture_flags_only_the_undeclared_feature() {
    let outcome = fixture_run(&["tests/fixtures/cfgcrate/src/lib.rs"]);
    let cfg: Vec<_> = outcome
        .violations
        .iter()
        .filter(|v| v.rule == Rule::CfgFeature)
        .collect();
    assert_eq!(cfg.len(), 1);
    assert_eq!(cfg[0].line, 7);
    assert!(cfg[0].message.contains("\"undeclared\""));
    assert!(cfg[0].message.contains("declared"));
}

#[test]
fn clean_fixture_is_violation_free() {
    let outcome = fixture_run(&["tests/fixtures/clean.rs"]);
    assert!(
        outcome.violations.is_empty(),
        "clean fixture must stay clean: {:?}",
        outcome.violations
    );
}

#[test]
fn binary_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_podium-lint");
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));

    // Violations → exit 1.
    let dirty = Command::new(bin)
        .current_dir(&root)
        .args(["tests/fixtures/panics.rs", "--deny-all"])
        .output()
        .expect("spawn podium-lint");
    assert_eq!(dirty.status.code(), Some(1));

    // Clean input → exit 0.
    let clean = Command::new(bin)
        .current_dir(&root)
        .args(["tests/fixtures/clean.rs", "--deny-all"])
        .output()
        .expect("spawn podium-lint");
    assert_eq!(clean.status.code(), Some(0), "{:?}", clean);

    // Usage error → exit 2.
    let usage = Command::new(bin)
        .current_dir(&root)
        .output()
        .expect("spawn podium-lint");
    assert_eq!(usage.status.code(), Some(2));
}
