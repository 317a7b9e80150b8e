//! `podium-lint` — workspace-native static analysis for the Podium
//! serving system.
//!
//! Five passes run over every workspace crate's library source:
//!
//! 1. **panic-freedom** ([`passes::panic`]): `.unwrap()`, `.expect(…)`,
//!    `panic!`, `todo!`, `unimplemented!`, `unreachable!`, and `[expr]`
//!    indexing are violations in library code unless carried by an
//!    inline allow comment or a checked-in allowlist entry with a
//!    reason (grammar in [`allow`]).
//! 2. **lock-discipline** ([`passes::locks`]): collects
//!    `.lock()`/`.read()`/`.write()` acquisition sites per function,
//!    infers the lock nesting-order graph per crate, flags cycles
//!    (potential deadlock) and bare `.lock().unwrap()`
//!    poison-propagation.
//! 3. **protocol exhaustiveness** ([`passes::protocol`]): cross-checks
//!    `ServiceError` / `DataErrorKind` variants against their wire
//!    codes, the simulator's failure-cause classifier, the protocol
//!    module docs, and DESIGN.md.
//! 4. **cfg/feature hygiene** ([`passes::cfg_features`]): every
//!    `#[cfg(feature = "…")]` / `cfg!(feature = "…")` must name a
//!    feature declared in the owning crate's `Cargo.toml`.
//! 5. **numeric `as`-cast audit** ([`passes::casts`]): every `as` cast
//!    to a numeric primitive is flagged (advisory by default, denied in
//!    CI) — it truncates, wraps, or rounds silently, so each site must
//!    be rewritten with `From`/`TryFrom` or carry a justified
//!    suppression.
//! 6. **discarded results** ([`passes::discarded`]): `let _ = …` and
//!    bare-statement discards of calls whose *resolved* return type is
//!    `Result` (workspace item index plus a small table of std
//!    fallibles) silently swallow errors — the exact shape of the PR 7
//!    checkpoint-failure bug.
//! 7. **determinism hygiene** ([`passes::determinism`]): modules
//!    declared deterministic in the `podium-lint.deterministic`
//!    manifest must not iterate `HashMap`/`HashSet`, read wall clocks
//!    (`Instant::now` / `SystemTime::now`), branch on
//!    `thread::current().id()`, or run unordered `par_*` reductions.
//!
//! Passes 6–7 and the workspace-wide deadlock analysis sit on the
//! item-level syntax layer: [`items`] parses modules, `fn` signatures,
//! `impl` blocks, structs, and `use` paths with spans, and [`index`]
//! builds a workspace item index that resolves method-call receivers
//! (`self.field.lock()`, local `let` bindings of known types, free
//! fns) to their defining type — which is what lets per-crate
//! lock-order graphs merge into one cross-crate graph.
//!
//! The implementation is deliberately `syn`-free: a hand-written lexer
//! ([`lexer`]) plus token-pattern matching. That keeps the crate at
//! zero dependencies (it gates CI and must not share failure modes
//! with the code it checks) at the cost of being a heuristic, not a
//! semantic analysis — see DESIGN.md "Static analysis" for the known
//! limitations.

pub mod allow;
pub mod index;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod runner;
pub mod scan;

/// Every rule a pass can flag. Rule names are stable: they appear in
/// allow comments, allowlist entries, JSONL output, and CI logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rule {
    /// `.unwrap()` in library code.
    Unwrap,
    /// `.expect(…)` in library code.
    Expect,
    /// `panic!(…)`.
    Panic,
    /// `todo!(…)`.
    Todo,
    /// `unimplemented!(…)`.
    Unimplemented,
    /// `unreachable!(…)`.
    Unreachable,
    /// `expr[index]` indexing or slicing (can panic on out-of-bounds).
    Index,
    /// Bare `.lock().unwrap()` / `.read().unwrap()` / `.write().unwrap()`
    /// — propagates poison instead of applying an explicit policy.
    LockPoison,
    /// A cycle in the inferred lock nesting-order graph.
    LockOrder,
    /// An error variant with no wire mapping, or a wire code absent from
    /// the protocol surface.
    ProtocolUnmapped,
    /// A wire code or quarantine tag not documented in DESIGN.md.
    ProtocolUndocumented,
    /// A string in a wire-code classifier that matches no known code.
    ProtocolStale,
    /// `feature = "…"` naming a feature the crate does not declare.
    CfgFeature,
    /// A malformed allow comment (unknown rule or missing
    /// justification).
    BadAllow,
    /// A numeric `as` cast (`expr as u32`, `expr as f64`, …) — converts
    /// silently, truncating, wrapping, or rounding out of range.
    AsCast,
    /// `let _ = …` or a bare statement discarding a call whose resolved
    /// return type is `Result` — errors are silently swallowed.
    DiscardedResult,
    /// A nondeterminism source (`HashMap`/`HashSet` iteration, wall
    /// clocks, thread ids, unordered parallel reductions) inside a
    /// module the `podium-lint.deterministic` manifest declares
    /// deterministic.
    DeterminismHygiene,
}

impl Rule {
    /// The stable name used in allow comments, the allowlist, and output.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Unwrap => "unwrap",
            Rule::Expect => "expect",
            Rule::Panic => "panic",
            Rule::Todo => "todo",
            Rule::Unimplemented => "unimplemented",
            Rule::Unreachable => "unreachable",
            Rule::Index => "index",
            Rule::LockPoison => "lock-poison",
            Rule::LockOrder => "lock-order",
            Rule::ProtocolUnmapped => "protocol-unmapped",
            Rule::ProtocolUndocumented => "protocol-undocumented",
            Rule::ProtocolStale => "protocol-stale",
            Rule::CfgFeature => "cfg-feature",
            Rule::BadAllow => "bad-allow",
            Rule::AsCast => "as-cast",
            Rule::DiscardedResult => "discarded-result",
            Rule::DeterminismHygiene => "determinism-hygiene",
        }
    }

    /// Parses a rule name (as written in allow comments / the allowlist).
    pub fn from_name(name: &str) -> Option<Rule> {
        ALL_RULES.iter().copied().find(|r| r.name() == name)
    }
}

/// All rules, for `--help` and allow-comment validation.
pub const ALL_RULES: [Rule; 17] = [
    Rule::Unwrap,
    Rule::Expect,
    Rule::Panic,
    Rule::Todo,
    Rule::Unimplemented,
    Rule::Unreachable,
    Rule::Index,
    Rule::LockPoison,
    Rule::LockOrder,
    Rule::ProtocolUnmapped,
    Rule::ProtocolUndocumented,
    Rule::ProtocolStale,
    Rule::CfgFeature,
    Rule::BadAllow,
    Rule::AsCast,
    Rule::DiscardedResult,
    Rule::DeterminismHygiene,
];

/// One finding. `allowed` carries the justification when an inline
/// allow comment or allowlist entry suppressed it; suppressed findings
/// still appear in JSONL output (flagged) so dashboards can track the
/// suppression debt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path (forward slashes).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable description.
    pub message: String,
    /// `Some(justification)` when suppressed.
    pub allowed: Option<String>,
}

impl Violation {
    /// Builds an unsuppressed violation.
    pub fn new(file: &str, line: u32, col: u32, rule: Rule, message: impl Into<String>) -> Self {
        Self {
            file: file.to_owned(),
            line,
            col,
            rule,
            message: message.into(),
            allowed: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_round_trip() {
        for r in ALL_RULES {
            assert_eq!(Rule::from_name(r.name()), Some(r), "{}", r.name());
        }
        assert_eq!(Rule::from_name("no-such-rule"), None);
    }
}
