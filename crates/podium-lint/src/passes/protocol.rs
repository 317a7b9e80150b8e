//! Pass 3 — protocol exhaustiveness.
//!
//! The wire protocol's error surface is maintained by hand in four
//! places that nothing but convention keeps in sync:
//!
//! * `ServiceError` variants and their stable codes
//!   (`crates/podium-service/src/error.rs`, `fn code`);
//! * the protocol module docs, which enumerate the codes clients can
//!   receive (`crates/podium-service/src/protocol.rs`);
//! * the failure-cause classifier the simulator's failure breakdown
//!   counts by (`crates/podium-sim/src/transport.rs`,
//!   `fn classify_error_code`);
//! * DESIGN.md, the operator-facing contract.
//!
//! Likewise `DataErrorKind` variants and their quarantine-report tags
//! (`crates/podium-data/src/load.rs`, `fn tag`). This pass parses the
//! enums and match arms out of the token streams and flags:
//!
//! * a variant with no explicit code/tag arm (`protocol-unmapped`);
//! * a code missing from the protocol.rs docs (`protocol-unmapped`);
//! * a code or tag not documented in DESIGN.md (`protocol-undocumented`);
//! * a classifier string that matches no known code (`protocol-stale`).

use std::path::Path;

use crate::scan::FileScan;
use crate::{Rule, Violation};

/// Relative paths of everything the pass reads.
const ERROR_RS: &str = "crates/podium-service/src/error.rs";
const PROTOCOL_RS: &str = "crates/podium-service/src/protocol.rs";
const CLASSIFIER_RS: &str = "crates/podium-sim/src/transport.rs";
const LOAD_RS: &str = "crates/podium-data/src/load.rs";
const DESIGN_MD: &str = "DESIGN.md";

/// Runs the pass against the workspace at `root`.
pub fn run(root: &Path) -> Vec<Violation> {
    let mut out = Vec::new();

    let Some(error_src) = read(root, ERROR_RS, &mut out) else {
        return out;
    };
    let Some(protocol_src) = read(root, PROTOCOL_RS, &mut out) else {
        return out;
    };
    let Some(classifier_src) = read(root, CLASSIFIER_RS, &mut out) else {
        return out;
    };
    let Some(load_src) = read(root, LOAD_RS, &mut out) else {
        return out;
    };
    let Some(design_src) = read(root, DESIGN_MD, &mut out) else {
        return out;
    };
    let protocol_text = String::from_utf8_lossy(&protocol_src).into_owned();
    let design_text = String::from_utf8_lossy(&design_src).into_owned();

    // ServiceError: variants ↔ code() arms ↔ protocol docs ↔ DESIGN.md.
    let error_scan = FileScan::new(&error_src);
    let variants = enum_variants(&error_scan, b"ServiceError");
    if variants.is_empty() {
        out.push(Violation::new(
            ERROR_RS,
            1,
            1,
            Rule::ProtocolUnmapped,
            "could not find `enum ServiceError` — protocol pass inputs moved?",
        ));
    }
    let arms = variant_string_arms(&error_scan, b"code", b"ServiceError");
    for (variant, line) in &variants {
        if !arms.iter().any(|(v, _, _)| v == variant) {
            out.push(Violation::new(
                ERROR_RS,
                *line,
                1,
                Rule::ProtocolUnmapped,
                format!("ServiceError::{variant} has no explicit wire code in `fn code` — the wire would drop it"),
            ));
        }
    }
    for (variant, code, line) in &arms {
        if !mentions(&protocol_text, code) {
            out.push(Violation::new(
                ERROR_RS,
                *line,
                1,
                Rule::ProtocolUnmapped,
                format!("wire code `{code}` (ServiceError::{variant}) is not named in {PROTOCOL_RS} — clients cannot discover it"),
            ));
        }
        if !mentions(&design_text, code) {
            out.push(Violation::new(
                ERROR_RS,
                *line,
                1,
                Rule::ProtocolUndocumented,
                format!(
                    "wire code `{code}` (ServiceError::{variant}) is not documented in {DESIGN_MD}"
                ),
            ));
        }
    }

    // Failure-classifier strings must be real codes.
    let classifier_scan = FileScan::new(&classifier_src);
    for (code, line) in string_match_arms(&classifier_scan, b"classify_error_code") {
        if !arms.iter().any(|(_, c, _)| *c == code) {
            out.push(Violation::new(
                CLASSIFIER_RS,
                line,
                1,
                Rule::ProtocolStale,
                format!(
                    "classify_error_code matches `{code}`, which is not a ServiceError wire code"
                ),
            ));
        }
    }

    // DataErrorKind: variants ↔ tag() arms ↔ DESIGN.md.
    let load_scan = FileScan::new(&load_src);
    let kinds = enum_variants(&load_scan, b"DataErrorKind");
    if kinds.is_empty() {
        out.push(Violation::new(
            LOAD_RS,
            1,
            1,
            Rule::ProtocolUnmapped,
            "could not find `enum DataErrorKind` — protocol pass inputs moved?",
        ));
    }
    let tags = variant_string_arms(&load_scan, b"tag", b"DataErrorKind");
    for (variant, line) in &kinds {
        if !tags.iter().any(|(v, _, _)| v == variant) {
            out.push(Violation::new(
                LOAD_RS,
                *line,
                1,
                Rule::ProtocolUnmapped,
                format!("DataErrorKind::{variant} has no stable tag in `fn tag` — quarantine reports would drop it"),
            ));
        }
    }
    for (variant, tag, line) in &tags {
        if !mentions(&design_text, tag) {
            out.push(Violation::new(
                LOAD_RS,
                *line,
                1,
                Rule::ProtocolUndocumented,
                format!("quarantine tag `{tag}` (DataErrorKind::{variant}) is not documented in {DESIGN_MD}"),
            ));
        }
    }

    out
}

/// Reads `rel` under `root`, recording a violation when it is missing
/// (a silent skip would disable the pass on a rename and mask drift).
fn read(root: &Path, rel: &str, out: &mut Vec<Violation>) -> Option<Vec<u8>> {
    match std::fs::read(root.join(rel)) {
        Ok(bytes) => Some(bytes),
        Err(_) => {
            out.push(Violation::new(
                rel,
                1,
                1,
                Rule::ProtocolUnmapped,
                format!(
                    "protocol pass input {rel} is missing — update passes/protocol.rs if it moved"
                ),
            ));
            None
        }
    }
}

/// `text` names `code` either backtick-quoted (docs) or string-quoted
/// (source).
fn mentions(text: &str, code: &str) -> bool {
    text.contains(&format!("`{code}`")) || text.contains(&format!("\"{code}\""))
}

/// The variants of `enum <name>`, with their lines.
pub fn enum_variants(scan: &FileScan<'_>, name: &[u8]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some(open) = (0..scan.sig.len()).find_map(|si| {
        if scan.is_ident(si, b"enum") && scan.is_ident(si + 1, name) && scan.is_punct(si + 2, b'{')
        {
            Some(si + 2)
        } else {
            None
        }
    }) else {
        return out;
    };
    let Some(close) = scan.match_delim(open) else {
        return out;
    };
    let mut depth = 0usize;
    let mut expect_variant = true;
    let mut si = open + 1;
    while si < close {
        // Attributes on variants are skipped wholesale.
        if depth == 0 {
            if let Some((_, attr_close, _)) = scan.attr_at(si) {
                si = attr_close + 1;
                continue;
            }
        }
        match scan.text(si) {
            b"{" | b"(" | b"[" => depth += 1,
            b"}" | b")" | b"]" => depth = depth.saturating_sub(1),
            b"," if depth == 0 => expect_variant = true,
            _ => {
                if depth == 0 && expect_variant && scan.is_any_ident(si) {
                    let (line, _) = scan.pos(si);
                    out.push((String::from_utf8_lossy(scan.text(si)).into_owned(), line));
                    expect_variant = false;
                }
            }
        }
        si += 1;
    }
    out
}

/// In `fn <fn_name>`, pairs `Enum::Variant … => "string"`: returns
/// `(variant, string, line)` triples. Or-patterns map every pending
/// variant to the arm's string.
pub fn variant_string_arms(
    scan: &FileScan<'_>,
    fn_name: &[u8],
    enum_name: &[u8],
) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    let Some((open, close)) = scan.find_function(fn_name) else {
        return out;
    };
    let mut pending: Vec<String> = Vec::new();
    for si in open..=close {
        if scan.is_ident(si, enum_name)
            && scan.is_punct(si + 1, b':')
            && scan.is_punct(si + 2, b':')
            && scan.is_any_ident(si + 3)
        {
            pending.push(String::from_utf8_lossy(scan.text(si + 3)).into_owned());
        } else if let Some(code) = string_literal(scan, si) {
            let (line, _) = scan.pos(si);
            for v in pending.drain(..) {
                out.push((v, code.clone(), line));
            }
        }
    }
    out
}

/// In `fn <fn_name>`, string literals used as match patterns
/// (`"string" … =>`): returns `(string, line)` pairs. Heuristic: any
/// string literal that is *followed* by `=>` or `|` before another
/// string is a pattern; this matches the shape of the classifier fns.
pub fn string_match_arms(scan: &FileScan<'_>, fn_name: &[u8]) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    let Some((open, close)) = scan.find_function(fn_name) else {
        return out;
    };
    for si in open..=close {
        let Some(code) = string_literal(scan, si) else {
            continue;
        };
        // Pattern position: `=>` or `|` follows immediately.
        let is_pattern = (scan.is_punct(si + 1, b'=') && scan.is_punct(si + 2, b'>'))
            || scan.is_punct(si + 1, b'|');
        if is_pattern {
            let (line, _) = scan.pos(si);
            out.push((code, line));
        }
    }
    out
}

/// The unquoted contents of a plain string literal token at `si`.
fn string_literal(scan: &FileScan<'_>, si: usize) -> Option<String> {
    use crate::lexer::TokenKind;
    let tok = scan.tok(si)?;
    if tok.kind != TokenKind::Str {
        return None;
    }
    let text = String::from_utf8_lossy(scan.text(si)).into_owned();
    Some(
        text.trim_start_matches(['b', 'c'])
            .trim_matches('"')
            .to_owned(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_enum_variants_with_payloads_and_attrs() {
        let src = br#"
pub enum ServiceError {
    /// Doc.
    Overloaded,
    BadRequest(String),
    #[allow(dead_code)]
    SessionRetired { session: u64, pinned: u64 },
    Core(CoreError),
}
"#;
        let scan = FileScan::new(src);
        let names: Vec<String> = enum_variants(&scan, b"ServiceError")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(
            names,
            vec!["Overloaded", "BadRequest", "SessionRetired", "Core"]
        );
    }

    #[test]
    fn extracts_code_arms_including_or_patterns() {
        let src = br#"
impl ServiceError {
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Overloaded => "overloaded",
            ServiceError::BadRequest(_) | ServiceError::Core(_) => "client",
        }
    }
}
"#;
        let scan = FileScan::new(src);
        let arms = variant_string_arms(&scan, b"code", b"ServiceError");
        assert_eq!(
            arms.iter()
                .map(|(v, c, _)| (v.as_str(), c.as_str()))
                .collect::<Vec<_>>(),
            vec![
                ("Overloaded", "overloaded"),
                ("BadRequest", "client"),
                ("Core", "client")
            ]
        );
    }

    #[test]
    fn extracts_string_patterns_not_return_values() {
        let src = br#"
fn classify_error_code(code: &str) -> Cause {
    match code {
        "deadline_exceeded" => Cause::Deadline,
        "overloaded" | "shutting_down" => Cause::Admission,
        _ => Cause::Other,
    }
}
"#;
        let scan = FileScan::new(src);
        let arms: Vec<String> = string_match_arms(&scan, b"classify_error_code")
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(
            arms,
            vec!["deadline_exceeded", "overloaded", "shutting_down"]
        );
    }

    /// The pass over a copy of the workspace's real inputs, with the
    /// classifier file's text passed through `edit`.
    fn run_with_classifier(edit: impl Fn(&str) -> String) -> Vec<Violation> {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = std::env::temp_dir().join(format!(
            "podium-lint-protocol-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        for rel in [ERROR_RS, PROTOCOL_RS, CLASSIFIER_RS, LOAD_RS, DESIGN_MD] {
            let text = std::fs::read_to_string(workspace.join(rel)).unwrap();
            let text = if rel == CLASSIFIER_RS {
                edit(&text)
            } else {
                text
            };
            let dest = root.join(rel);
            std::fs::create_dir_all(dest.parent().unwrap()).unwrap();
            std::fs::write(dest, text).unwrap();
        }
        let found = run(&root);
        let _ = std::fs::remove_dir_all(&root);
        found
    }

    #[test]
    fn the_sim_classifier_is_read_and_checked() {
        let workspace = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let src = std::fs::read(workspace.join(CLASSIFIER_RS)).unwrap();
        let arms: Vec<String> = string_match_arms(&FileScan::new(&src), b"classify_error_code")
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(arms, vec!["deadline_exceeded", "overloaded"]);
        assert_eq!(run_with_classifier(str::to_owned), Vec::new());
        // A classifier arm naming no wire code is stale.
        let stale = run_with_classifier(|text| {
            text.replacen(
                "\"overloaded\" => Cause::Admission,",
                "\"overloaded\" | \"queue_full\" => Cause::Admission,",
                1,
            )
        });
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert_eq!(stale[0].rule, Rule::ProtocolStale);
        assert!(stale[0].message.contains("`queue_full`"), "{stale:?}");
    }
}
