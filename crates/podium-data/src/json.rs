//! The JSON profile interchange format of the Podium prototype (§7).
//!
//! "The input to Podium is a set of user profiles … in JSON format." The
//! schema is a flat list of users with a `properties` map from label to
//! normalized score:
//!
//! ```json
//! {
//!   "users": [
//!     { "name": "Alice",
//!       "properties": { "livesIn Tokyo": 1.0, "avgRating Mexican": 0.95 } }
//!   ]
//! }
//! ```

use std::collections::{BTreeMap, HashSet};

use podium_core::error::{CoreError, Result};
use podium_core::profile::UserRepository;
use serde::{Deserialize, Serialize};

use crate::load::{DataError, DataErrorKind, LoadOptions, LoadReport, Provenance};

/// Serde schema of one user entry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JsonUser {
    /// Display name.
    pub name: String,
    /// Property label → normalized score. `BTreeMap` keeps serialization
    /// deterministic.
    pub properties: BTreeMap<String, f64>,
}

/// Serde schema of the whole document.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JsonRepository {
    /// All users.
    pub users: Vec<JsonUser>,
}

/// Parses a repository from the JSON interchange format.
///
/// Scores outside `[0, 1]` are rejected with
/// [`CoreError::ScoreOutOfRange`]; malformed JSON surfaces as
/// [`JsonError::Syntax`].
pub fn profiles_from_json(text: &str) -> std::result::Result<UserRepository, JsonError> {
    let doc: JsonRepository = serde_json::from_str(text)?;
    let mut repo = UserRepository::new();
    for user in &doc.users {
        let u = repo.add_user(&user.name);
        for (label, &score) in &user.properties {
            let p = repo.intern_property(label);
            repo.set_score(u, p, score)?;
        }
    }
    Ok(repo)
}

/// Serializes a repository to the JSON interchange format (pretty-printed,
/// deterministic key order).
pub fn profiles_to_json(repo: &UserRepository) -> std::result::Result<String, JsonError> {
    let mut doc = JsonRepository::default();
    for (u, profile) in repo.iter() {
        let mut properties = BTreeMap::new();
        for (p, s) in profile.iter() {
            let label = repo.property_label(p).map_err(JsonError::Core)?.to_owned();
            properties.insert(label, s);
        }
        doc.users.push(JsonUser {
            name: repo.user_name(u).map_err(JsonError::Core)?.to_owned(),
            properties,
        });
    }
    Ok(serde_json::to_string_pretty(&doc)?)
}

/// Source tag used in [`Provenance`] entries of this loader.
const SOURCE: &str = "json profiles";

/// One record span located by [`scan_user_records`]: byte offsets into the
/// source text plus the 1-based line the record starts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RawRecord {
    pub start: usize,
    pub end: usize,
    pub line: usize,
}

/// The salvageable structure of a (possibly corrupted) profile document.
#[derive(Debug, Clone, Default)]
pub(crate) struct UserArrayScan {
    /// Complete (brace-balanced) record spans, in document order.
    pub records: Vec<RawRecord>,
    /// An incomplete final record — the document ended mid-object
    /// (truncation).
    pub trailing: Option<RawRecord>,
}

/// Locates the `"users"` array and extracts each balanced `{…}` record span
/// without requiring the document as a whole to parse — the salvage pass
/// behind [`LoadOptions::Lenient`]. String-aware: braces, brackets, and
/// commas inside JSON strings (with escapes) are ignored. Returns a
/// document-level [`DataError`] when no `"users"` array can be found at
/// all; that is an envelope fault, fatal in both load modes.
pub(crate) fn scan_user_records(text: &str) -> std::result::Result<UserArrayScan, DataError> {
    let bytes = text.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;

    // Phase 1: find the `"users"` key (outside strings) followed by `:` `[`.
    let mut array_open = None;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'"' => {
                let (content_start, mut j) = (i + 1, i + 1);
                let mut escaped = false;
                while j < bytes.len() {
                    match bytes[j] {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'\n' => line += 1,
                        b'"' => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    break; // unterminated string; no key found
                }
                let key = &text[content_start..j];
                i = j + 1;
                if key == "users" {
                    let mut k = i;
                    while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                        if bytes[k] == b'\n' {
                            line += 1;
                        }
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k] == b':' {
                        k += 1;
                        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                            if bytes[k] == b'\n' {
                                line += 1;
                            }
                            k += 1;
                        }
                        if k < bytes.len() && bytes[k] == b'[' {
                            array_open = Some(k + 1);
                            break;
                        }
                    }
                }
            }
            _ => i += 1,
        }
    }
    let Some(start) = array_open else {
        return Err(DataError::new(
            DataErrorKind::Syntax {
                message: "no \"users\" array found in document".into(),
            },
            Provenance::document(SOURCE),
        ));
    };

    // Phase 2: walk the array, extracting balanced records. A non-object
    // token (stray garbage) is consumed up to the next top-level `,`/`]` and
    // reported as a record span so it can be quarantined individually.
    let mut scan = UserArrayScan::default();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b',' | b' ' | b'\t' | b'\r' => i += 1,
            b']' => return Ok(scan),
            _ => {
                let rec_start = i;
                let rec_line = line;
                let mut depth = 0usize;
                let mut in_string = false;
                let mut escaped = false;
                let mut complete = false;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b == b'\n' {
                        line += 1;
                    }
                    if in_string {
                        match b {
                            _ if escaped => escaped = false,
                            b'\\' => escaped = true,
                            b'"' => in_string = false,
                            _ => {}
                        }
                    } else {
                        match b {
                            b'"' => in_string = true,
                            b'{' | b'[' => depth += 1,
                            b'}' | b']' if depth > 0 => {
                                depth -= 1;
                                if depth == 0 {
                                    i += 1;
                                    complete = true;
                                    break;
                                }
                            }
                            b']' => break, // array close while scanning a stray token
                            b',' if depth == 0 => break, // end of a stray token
                            _ => {}
                        }
                    }
                    i += 1;
                }
                let rec = RawRecord {
                    start: rec_start,
                    end: i,
                    line: rec_line,
                };
                if complete || (i < bytes.len() && depth == 0 && !in_string) {
                    scan.records.push(rec);
                } else {
                    // Ran off the end of the document mid-record.
                    scan.trailing = Some(rec);
                    return Ok(scan);
                }
            }
        }
    }
    Ok(scan)
}

/// Validates one parsed record against the repository being built: the name
/// must be fresh and every score finite and inside `[0, 1]`. Nothing is
/// committed here — callers only commit records that validate in full, so a
/// rejected record leaves no partial state.
fn validate_record(
    user: &JsonUser,
    seen: &HashSet<String>,
    prov: &Provenance,
) -> std::result::Result<(), DataError> {
    if seen.contains(&user.name) {
        return Err(DataError::new(
            DataErrorKind::Duplicate {
                name: user.name.clone(),
            },
            prov.clone().named(&user.name),
        ));
    }
    for (label, &score) in &user.properties {
        if !score.is_finite() || !(0.0..=1.0).contains(&score) {
            return Err(DataError::new(
                DataErrorKind::BadScore {
                    property: label.clone(),
                    value: format!("{score}"),
                },
                prov.clone().named(&user.name),
            ));
        }
    }
    Ok(())
}

/// Commits a fully-validated record.
fn commit_record(
    repo: &mut UserRepository,
    user: &JsonUser,
    prov: &Provenance,
) -> std::result::Result<(), DataError> {
    let u = repo.add_user(&user.name);
    for (label, &score) in &user.properties {
        let p = repo.intern_property(label);
        repo.set_score(u, p, score)
            .map_err(|e| DataError::new(DataErrorKind::Core(e), prov.clone().named(&user.name)))?;
    }
    Ok(())
}

/// Parses a repository with an explicit failure policy and full accounting.
///
/// [`LoadOptions::Strict`] requires the document to parse as a whole and
/// fails on the first defective record, with record/line provenance in the
/// returned [`DataError`]. [`LoadOptions::Lenient`] salvages: records are
/// located by a string-aware scan of the `"users"` array, so even a
/// document with a truncated tail or garbage bytes inside one record
/// yields every other record; each defective record becomes exactly one
/// quarantine entry in the [`LoadReport`]. In both modes a record is
/// validated in full (fresh name, finite in-range scores) before any of it
/// is committed, and a missing `"users"` array is fatal.
pub fn profiles_from_json_opts(
    text: &str,
    opts: LoadOptions,
) -> std::result::Result<(UserRepository, LoadReport), DataError> {
    if !opts.is_lenient() {
        // Strict mode demands a syntactically complete document, not just a
        // salvageable users array.
        serde_json::from_str::<serde::value::Value>(text).map_err(|e| {
            DataError::new(
                DataErrorKind::Syntax {
                    message: e.to_string(),
                },
                Provenance::document(SOURCE).at_line(e.line()),
            )
        })?;
    }
    let scan = scan_user_records(text)?;
    let mut repo = UserRepository::new();
    let mut report = LoadReport::default();
    let mut seen: HashSet<String> = HashSet::new();
    for (idx, rec) in scan.records.iter().enumerate() {
        let raw = &text[rec.start..rec.end];
        let prov = Provenance::record(SOURCE, idx).at_line(rec.line);
        let outcome = serde_json::from_str::<JsonUser>(raw)
            .map_err(|e| {
                DataError::new(
                    DataErrorKind::Syntax {
                        message: e.to_string(),
                    },
                    prov.clone(),
                )
            })
            .and_then(|user| validate_record(&user, &seen, &prov).map(|()| user));
        match outcome {
            Ok(user) => {
                commit_record(&mut repo, &user, &prov)?;
                seen.insert(user.name.clone());
                report.accepted += 1;
            }
            Err(e) if opts.is_lenient() => report.quarantine(e, raw),
            Err(e) => return Err(e),
        }
    }
    if let Some(tail) = scan.trailing {
        let idx = scan.records.len();
        let e = DataError::new(
            DataErrorKind::Syntax {
                message: "document ends inside a record (truncated input)".into(),
            },
            Provenance::record(SOURCE, idx).at_line(tail.line),
        );
        if opts.is_lenient() {
            report.quarantine(e, &text[tail.start..tail.end]);
        } else {
            return Err(e);
        }
    }
    Ok((repo, report))
}

/// Errors from JSON profile I/O.
#[derive(Debug)]
pub enum JsonError {
    /// JSON syntax or schema error.
    Syntax(serde_json::Error),
    /// Semantic error (e.g. score out of range).
    Core(CoreError),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(e) => write!(f, "JSON error: {e}"),
            JsonError::Core(e) => write!(f, "profile error: {e}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<serde_json::Error> for JsonError {
    fn from(e: serde_json::Error) -> Self {
        JsonError::Syntax(e)
    }
}

impl From<CoreError> for JsonError {
    fn from(e: CoreError) -> Self {
        JsonError::Core(e)
    }
}

/// Convenience: loads profiles from a file path.
pub fn profiles_from_path(
    path: impl AsRef<std::path::Path>,
) -> std::result::Result<UserRepository, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(profiles_from_json(&text)?)
}

/// Convenience: saves profiles to a file path.
pub fn profiles_to_path(
    repo: &UserRepository,
    path: impl AsRef<std::path::Path>,
) -> std::result::Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, profiles_to_json(repo)?)?;
    Ok(())
}

/// Serializes a review corpus to JSON — dataset snapshots for sharing the
/// exact ground-truth opinions an experiment ran against.
pub fn corpus_to_json(
    corpus: &crate::reviews::ReviewCorpus,
) -> std::result::Result<String, JsonError> {
    Ok(serde_json::to_string(corpus)?)
}

/// Parses a review corpus back from JSON.
pub fn corpus_from_json(
    text: &str,
) -> std::result::Result<crate::reviews::ReviewCorpus, JsonError> {
    Ok(serde_json::from_str(text)?)
}

// Re-exported so callers can use the crate-level Result alias if desired.
#[allow(unused)]
type CoreResult<T> = Result<T>;

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
        "users": [
            { "name": "Alice",
              "properties": { "livesIn Tokyo": 1.0, "avgRating Mexican": 0.95 } },
            { "name": "Bob",
              "properties": { "avgRating Mexican": 0.3 } },
            { "name": "Carol", "properties": {} }
        ]
    }"#;

    #[test]
    fn parse_sample() {
        let repo = profiles_from_json(SAMPLE).unwrap();
        assert_eq!(repo.user_count(), 3);
        assert_eq!(repo.property_count(), 2);
        let alice = repo.user_by_name("Alice").unwrap();
        let mex = repo.property_id("avgRating Mexican").unwrap();
        assert_eq!(repo.score(alice, mex), Some(0.95));
        let carol = repo.user_by_name("Carol").unwrap();
        assert!(repo.profile(carol).unwrap().is_empty());
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let repo = profiles_from_json(SAMPLE).unwrap();
        let json = profiles_to_json(&repo).unwrap();
        let back = profiles_from_json(&json).unwrap();
        assert_eq!(back.user_count(), repo.user_count());
        assert_eq!(back.property_count(), repo.property_count());
        for (u, profile) in repo.iter() {
            let name = repo.user_name(u).unwrap();
            let bu = back.user_by_name(name).unwrap();
            for (p, s) in profile.iter() {
                let label = repo.property_label(p).unwrap();
                let bp = back.property_id(label).unwrap();
                assert_eq!(back.score(bu, bp), Some(s));
            }
        }
    }

    #[test]
    fn out_of_range_score_rejected() {
        let bad = r#"{ "users": [ { "name": "X", "properties": { "p": 1.5 } } ] }"#;
        assert!(matches!(
            profiles_from_json(bad),
            Err(JsonError::Core(CoreError::ScoreOutOfRange { .. }))
        ));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            profiles_from_json("{ not json"),
            Err(JsonError::Syntax(_))
        ));
    }

    #[test]
    fn non_ascii_names_and_labels_roundtrip() {
        let mut repo = UserRepository::new();
        let zoe = repo.add_user("Zoé Müller");
        let kenji = repo.add_user("健二 \"Ken\" 🎌");
        let cafe = repo.intern_property("visitFreq Café Ñandú");
        let tokyo = repo.intern_property("livesIn 東京\\Shibuya");
        repo.set_score(zoe, cafe, 0.65).unwrap();
        repo.set_score(kenji, cafe, 0.4).unwrap();
        repo.set_score(kenji, tokyo, 1.0).unwrap();
        let json = profiles_to_json(&repo).unwrap();
        for opts in [LoadOptions::Strict, LoadOptions::Lenient] {
            let (back, _) = profiles_from_json_opts(&json, opts).unwrap();
            assert_eq!(back.user_count(), 2);
            assert_eq!(back.user_name(zoe).unwrap(), "Zoé Müller");
            assert_eq!(back.user_name(kenji).unwrap(), "健二 \"Ken\" 🎌");
            let cafe = back.property_id("visitFreq Café Ñandú").unwrap();
            let tokyo = back.property_id("livesIn 東京\\Shibuya").unwrap();
            assert_eq!(back.score(zoe, cafe), Some(0.65));
            assert_eq!(back.score(kenji, cafe), Some(0.4));
            assert_eq!(back.score(kenji, tokyo), Some(1.0));
            assert_eq!(profiles_to_json(&back).unwrap(), json);
        }
    }

    #[test]
    fn table2_roundtrips() {
        let repo = crate::table2::table2();
        let json = profiles_to_json(&repo).unwrap();
        let back = profiles_from_json(&json).unwrap();
        assert_eq!(back.user_count(), 5);
        let eve = back.user_by_name("Eve").unwrap();
        let p = back.property_id("visitFreq CheapEats").unwrap();
        assert_eq!(back.score(eve, p), Some(0.3));
    }

    #[test]
    fn corpus_roundtrip() {
        use crate::reviews::{
            Destination, DestinationId, Review, ReviewCorpus, Sentiment, TopicId,
        };
        use crate::taxonomy::CategoryId;
        use podium_core::ids::UserId;
        let corpus = ReviewCorpus {
            destinations: vec![Destination {
                name: "d".into(),
                category: CategoryId(2),
                city: 1,
                topics: vec![TopicId(0)],
                base_quality: 3.5,
            }],
            reviews: vec![Review {
                user: UserId(4),
                destination: DestinationId(0),
                rating: 5,
                topics: vec![(TopicId(0), Sentiment::Negative)],
                useful_votes: 2,
            }],
            topic_names: vec!["food".into()],
        };
        let json = corpus_to_json(&corpus).unwrap();
        let back = corpus_from_json(&json).unwrap();
        assert_eq!(back.destinations, corpus.destinations);
        assert_eq!(back.reviews, corpus.reviews);
        assert_eq!(back.topic_names, corpus.topic_names);
    }

    #[test]
    fn opts_loader_matches_plain_loader_on_clean_input() {
        for opts in [LoadOptions::Strict, LoadOptions::Lenient] {
            let (repo, report) = profiles_from_json_opts(SAMPLE, opts).unwrap();
            assert_eq!(repo.user_count(), 3, "{opts:?}");
            assert_eq!(report.accepted, 3);
            assert!(report.is_clean());
            let alice = repo.user_by_name("Alice").unwrap();
            let mex = repo.property_id("avgRating Mexican").unwrap();
            assert_eq!(repo.score(alice, mex), Some(0.95));
        }
    }

    #[test]
    fn lenient_salvages_truncated_document() {
        // Cut SAMPLE in the middle of Carol's record.
        let cut = SAMPLE.find("Carol").unwrap() + 2;
        let truncated = &SAMPLE[..cut];
        let (repo, report) = profiles_from_json_opts(truncated, LoadOptions::Lenient).unwrap();
        assert_eq!(repo.user_count(), 2, "Alice and Bob survive");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.quarantined_count(), 1);
        let q = &report.quarantined[0];
        assert!(matches!(q.error.kind, DataErrorKind::Syntax { .. }));
        assert_eq!(q.error.provenance.record, Some(2));
    }

    #[test]
    fn strict_rejects_truncated_document() {
        let cut = SAMPLE.find("Carol").unwrap() + 2;
        let err = profiles_from_json_opts(&SAMPLE[..cut], LoadOptions::Strict).unwrap_err();
        assert!(matches!(err.kind, DataErrorKind::Syntax { .. }));
        assert!(err.provenance.line.is_some(), "provenance carries a line");
    }

    #[test]
    fn lenient_quarantines_bad_scores_and_duplicates() {
        let doc = r#"{ "users": [
            { "name": "A", "properties": { "p": 0.5 } },
            { "name": "B", "properties": { "p": 42.5 } },
            { "name": "A", "properties": { "p": 0.1 } },
            { "name": "C", "properties": {} }
        ] }"#;
        let (repo, report) = profiles_from_json_opts(doc, LoadOptions::Lenient).unwrap();
        assert_eq!(repo.user_count(), 2, "A (first) and C");
        assert_eq!(report.accepted, 2);
        assert_eq!(report.quarantined_count(), 2);
        assert!(matches!(
            report.quarantined[0].error.kind,
            DataErrorKind::BadScore { .. }
        ));
        assert!(matches!(
            report.quarantined[1].error.kind,
            DataErrorKind::Duplicate { .. }
        ));
        // First occurrence of "A" won: its score is intact.
        let a = repo.user_by_name("A").unwrap();
        let p = repo.property_id("p").unwrap();
        assert_eq!(repo.score(a, p), Some(0.5));
        // Strict mode fails on the first defective record with provenance.
        let err = profiles_from_json_opts(doc, LoadOptions::Strict).unwrap_err();
        assert!(matches!(err.kind, DataErrorKind::BadScore { .. }));
        assert_eq!(err.provenance.record, Some(1));
        assert_eq!(err.provenance.name.as_deref(), Some("B"));
    }

    #[test]
    fn lenient_quarantines_garbage_record() {
        let doc = r#"{ "users": [
            { "name": "A", "properties": {} },
            { "name": @@garbage@@, "properties": {} },
            { "name": "B", "properties": {} }
        ] }"#;
        let (repo, report) = profiles_from_json_opts(doc, LoadOptions::Lenient).unwrap();
        assert_eq!(repo.user_count(), 2);
        assert_eq!(report.quarantined_count(), 1);
        assert!(matches!(
            report.quarantined[0].error.kind,
            DataErrorKind::Syntax { .. }
        ));
    }

    #[test]
    fn missing_users_array_is_fatal_in_both_modes() {
        for opts in [LoadOptions::Strict, LoadOptions::Lenient] {
            let err = profiles_from_json_opts(r#"{ "records": [] }"#, opts).unwrap_err();
            assert!(matches!(err.kind, DataErrorKind::Syntax { .. }), "{opts:?}");
        }
    }

    #[test]
    fn missing_name_field_quarantined() {
        let doc = r#"{ "users": [
            { "properties": { "p": 0.5 } },
            { "name": "B", "properties": {} }
        ] }"#;
        let (repo, report) = profiles_from_json_opts(doc, LoadOptions::Lenient).unwrap();
        assert_eq!(repo.user_count(), 1);
        assert_eq!(report.quarantined_count(), 1);
        let msg = report.quarantined[0].error.to_string();
        assert!(msg.contains("name"), "{msg}");
    }

    #[test]
    fn file_roundtrip() {
        let repo = profiles_from_json(SAMPLE).unwrap();
        let dir = std::env::temp_dir().join("podium-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profiles.json");
        profiles_to_path(&repo, &path).unwrap();
        let back = profiles_from_path(&path).unwrap();
        assert_eq!(back.user_count(), 3);
        std::fs::remove_file(path).ok();
    }
}
