//! Output rendering: human-readable text and machine-readable JSONL.
//! JSON is emitted by hand (the linter has no dependencies, by design);
//! only string escaping and integer formatting are needed.

use crate::passes::locks::LockEdge;
use crate::Violation;

/// Schema tag on every JSONL row; bump the version when the row shape
/// changes so stream readers can reject mixed files.
pub const LINT_SCHEMA: &str = "podium.lint/1";

/// Schema tag on merged lock-order graph rows.
pub const LOCKGRAPH_SCHEMA: &str = "podium.lockgraph/1";

/// Escapes `s` for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", u32::from(c)));
            }
            c => out.push(c),
        }
    }
    out
}

/// One JSONL line per violation:
/// `{"schema":…,"seq":…,"file":…,"line":…,"col":…,"rule":…,"message":…,"allowed":bool,"justification":…}`.
/// Suppressed findings are included (with `allowed: true`) so the
/// dashboard can track suppression debt over time.
pub fn to_jsonl(violations: &[Violation]) -> String {
    let mut out = String::new();
    for (seq, v) in violations.iter().enumerate() {
        let justification = match &v.allowed {
            Some(j) => format!(",\"justification\":\"{}\"", json_escape(j)),
            None => String::new(),
        };
        out.push_str(&format!(
            "{{\"schema\":\"{LINT_SCHEMA}\",\"seq\":{seq},\"file\":\"{}\",\"line\":{},\"col\":{},\"rule\":\"{}\",\"message\":\"{}\",\"allowed\":{}{}}}\n",
            json_escape(&v.file),
            v.line,
            v.col,
            v.rule.name(),
            json_escape(&v.message),
            v.allowed.is_some(),
            justification,
        ));
    }
    out
}

/// One JSONL line per merged lock-order graph edge:
/// `{"schema":…,"seq":…,"held":…,"held_resolved":…,"acquired":…,"acquired_resolved":…,"function":…,"file":…,"line":…}`.
/// Node names are type-qualified (`Conn::state`) where receiver
/// resolution succeeded and crate-qualified (`{crate}/{receiver}`)
/// where it did not. CI diffs this artifact against a checked-in
/// baseline so new nesting edges are reviewed, not discovered in
/// production.
pub fn lockgraph_to_jsonl(edges: &[LockEdge]) -> String {
    let mut out = String::new();
    for (seq, e) in edges.iter().enumerate() {
        out.push_str(&format!(
            "{{\"schema\":\"{LOCKGRAPH_SCHEMA}\",\"seq\":{seq},\"held\":\"{}\",\"held_resolved\":{},\"acquired\":\"{}\",\"acquired_resolved\":{},\"function\":\"{}\",\"file\":\"{}\",\"line\":{}}}\n",
            json_escape(&e.held),
            e.held_resolved,
            json_escape(&e.acquired),
            e.acquired_resolved,
            json_escape(&e.function),
            json_escape(&e.file),
            e.line,
        ));
    }
    out
}

/// Human-readable report: one line per unsuppressed violation, then a
/// summary including the suppression count.
pub fn to_text(violations: &[Violation], verbose_allowed: bool) -> String {
    let mut out = String::new();
    let mut denied = 0usize;
    let mut allowed = 0usize;
    for v in violations {
        match &v.allowed {
            None => {
                denied += 1;
                out.push_str(&format!(
                    "{}:{}:{}: [{}] {}\n",
                    v.file,
                    v.line,
                    v.col,
                    v.rule.name(),
                    v.message
                ));
            }
            Some(reason) => {
                allowed += 1;
                if verbose_allowed {
                    out.push_str(&format!(
                        "{}:{}:{}: [{}] allowed — {}\n",
                        v.file,
                        v.line,
                        v.col,
                        v.rule.name(),
                        reason
                    ));
                }
            }
        }
    }
    out.push_str(&format!(
        "podium-lint: {denied} violation(s), {allowed} suppressed with justification\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rule;

    #[test]
    fn jsonl_escapes_and_flags() {
        let mut v = Violation::new("a\"b.rs", 3, 7, Rule::Unwrap, "line1\nline2");
        let plain = to_jsonl(std::slice::from_ref(&v));
        assert!(plain.contains("\"schema\":\"podium.lint/1\",\"seq\":0,"));
        assert!(plain.contains("\"file\":\"a\\\"b.rs\""));
        assert!(plain.contains("\"message\":\"line1\\nline2\""));
        assert!(plain.contains("\"allowed\":false"));
        v.allowed = Some("why".into());
        let suppressed = to_jsonl(std::slice::from_ref(&v));
        assert!(suppressed.contains("\"allowed\":true,\"justification\":\"why\""));
    }

    #[test]
    fn lockgraph_rows_carry_resolution_flags() {
        let edges = vec![LockEdge {
            held: "Conn::state".into(),
            acquired: "podium-core/engine.inner".into(),
            held_resolved: true,
            acquired_resolved: false,
            function: "tick".into(),
            file: "crates/x/src/lib.rs".into(),
            line: 42,
        }];
        let rows = lockgraph_to_jsonl(&edges);
        assert!(rows.contains("\"schema\":\"podium.lockgraph/1\",\"seq\":0,"));
        assert!(rows.contains("\"held\":\"Conn::state\",\"held_resolved\":true"));
        assert!(
            rows.contains("\"acquired\":\"podium-core/engine.inner\",\"acquired_resolved\":false")
        );
        assert!(rows.contains("\"line\":42"));
    }

    #[test]
    fn text_counts_denied_and_allowed() {
        let mut ok = Violation::new("f.rs", 1, 1, Rule::Index, "idx");
        ok.allowed = Some("checked".into());
        let bad = Violation::new("f.rs", 2, 1, Rule::Panic, "boom");
        let text = to_text(&[ok, bad], false);
        assert!(text.contains("f.rs:2:1: [panic] boom"));
        assert!(!text.contains("checked"));
        assert!(text.contains("1 violation(s), 1 suppressed"));
    }
}
