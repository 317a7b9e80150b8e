//! Pass 4 — cfg/feature hygiene.
//!
//! A `#[cfg(feature = "x")]` (or `cfg!(feature = "x")`,
//! `#[cfg_attr(feature = "x", …)]`) naming a feature the crate's
//! `Cargo.toml` does not declare silently evaluates false: the gated
//! code never compiles anywhere, and no compiler error says so. This
//! pass parses the `[features]` section of the owning crate's manifest
//! (plus implicit features from `optional = true` dependencies) and
//! flags every undeclared feature name used in source.

use crate::scan::FileScan;
use crate::{Rule, Violation};

/// Extracts declared feature names from `Cargo.toml` text: entries of
/// the `[features]` table and implicit features from optional
/// dependencies. This is a line-oriented parse, sufficient for the
/// hand-maintained manifests in this workspace (no inline tables
/// spanning `[features]`, no `dep:` renames).
pub fn declared_features(manifest: &str) -> Vec<String> {
    let mut features = Vec::new();
    let mut section = String::new();
    for raw in manifest.lines() {
        let line = raw.trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_owned();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_owned();
        if key.is_empty() || key.starts_with('#') {
            continue;
        }
        let declares = section == "features"
            || (section.ends_with("dependencies")
                && value.contains("optional")
                && value.contains("true"));
        if declares {
            features.push(key);
        }
    }
    features
}

/// Runs the pass over one file given its crate's declared features.
pub fn run(
    scan: &FileScan<'_>,
    file: &str,
    declared: &[String],
    manifest_name: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut si = 0usize;
    while si < scan.sig.len() {
        let is_cfg = scan.is_ident(si, b"cfg") || scan.is_ident(si, b"cfg_attr");
        if !is_cfg {
            si += 1;
            continue;
        }
        // `cfg(` in an attribute, or `cfg!(` as a macro.
        let open = if scan.is_punct(si + 1, b'(') {
            si + 1
        } else if scan.is_punct(si + 1, b'!') && scan.is_punct(si + 2, b'(') {
            si + 2
        } else {
            si += 1;
            continue;
        };
        let Some(close) = scan.match_delim(open) else {
            si += 1;
            continue;
        };
        for i in open + 1..close {
            if scan.is_ident(i, b"feature")
                && scan.is_punct(i + 1, b'=')
                && scan.tok(i + 2).is_some()
            {
                let raw = String::from_utf8_lossy(scan.text(i + 2)).into_owned();
                let name = raw.trim_matches('"');
                if !name.is_empty() && !declared.iter().any(|f| f == name) {
                    let (line, col) = scan.pos(i + 2);
                    out.push(Violation::new(
                        file,
                        line,
                        col,
                        Rule::CfgFeature,
                        format!(
                            "feature \"{name}\" is not declared in {manifest_name} (declared: {})",
                            if declared.is_empty() {
                                "none".to_owned()
                            } else {
                                declared.join(", ")
                            }
                        ),
                    ));
                }
            }
        }
        si = close + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_features_and_optional_deps() {
        let manifest = r#"
[package]
name = "x"

[features]
default = []
fast = ["dep-a/fast"]

[dependencies]
dep-a = { path = "../a", optional = true }
dep-b = { path = "../b" }
"#;
        let fs = declared_features(manifest);
        assert!(fs.contains(&"default".to_owned()));
        assert!(fs.contains(&"fast".to_owned()));
        assert!(fs.contains(&"dep-a".to_owned()));
        assert!(!fs.contains(&"dep-b".to_owned()));
    }

    #[test]
    fn flags_undeclared_features_only() {
        let src = br#"
#[cfg(feature = "fast")]
fn fast() {}
#[cfg(all(unix, feature = "shiny"))]
fn shiny() {}
fn probe() { if cfg!(feature = "fast") {} }
"#;
        let scan = FileScan::new(src);
        let declared = vec!["fast".to_owned()];
        let vs = run(&scan, "f.rs", &declared, "Cargo.toml");
        assert_eq!(vs.len(), 1);
        assert!(vs[0].message.contains("\"shiny\""));
        assert_eq!(vs[0].line, 4);
    }

    #[test]
    fn cfg_not_feature_forms_are_checked_too() {
        let src = b"#[cfg(not(feature = \"gone\"))]\nfn f() {}";
        let scan = FileScan::new(src);
        let vs = run(&scan, "f.rs", &[], "Cargo.toml");
        assert_eq!(vs.len(), 1);
    }
}
