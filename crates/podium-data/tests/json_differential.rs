//! Differential test of the profile JSON loaders and writer against a
//! reference kept here: the serde-model loader (parse into
//! `{"users": [{"name": String, "properties": BTreeMap<String, f64>}]}`,
//! then intern), `profiles_from_json_opts` as a whole-document `Value`
//! parse plus a per-record `from_str`, and the writer as
//! `to_string_pretty` of that model.
//!
//! Inputs: random repositories written by the writer; generated documents
//! with shuffled and repeated labels, extra fields, duplicate `users`,
//! `name` and `properties` keys, escaped and non-ASCII strings, and every
//! number shape (integers, exponents, `-0`, `1e999`, scores one ulp
//! outside `[0, 1]`, invalid and out-of-range literals); schema defects;
//! byte-level mutations; and `fault.rs` corruptions, single and stacked.
//!
//! Checks: an accepted document gives a bit-identical repository (names,
//! labels in id order, every entry's `f64` bits); a rejected one gives the
//! same error text; `profiles_from_json_opts` gives the same `LoadReport`
//! (accepted count, each quarantine entry's error and snippet) in both
//! modes; the writer's text is byte-identical.

// The reference returns `DataError` by value, as the loaders do.
#![allow(clippy::result_large_err)]

use std::collections::BTreeMap;

use podium_core::profile::UserRepository;
use podium_data::fault::{FaultInjector, FaultKind};
use podium_data::json::{profiles_from_json, profiles_from_json_opts, profiles_to_json};
use podium_data::load::{
    DataError, DataErrorKind, LoadOptions, LoadReport, Provenance, QuarantinedRecord,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use serde::{Deserialize, Serialize};

// ------------------------------------------------------------- reference

#[derive(Serialize, Deserialize)]
struct JsonUser {
    name: String,
    properties: BTreeMap<String, f64>,
}

#[derive(Default, Serialize, Deserialize)]
struct JsonRepository {
    users: Vec<JsonUser>,
}

/// The serde-model loader; errors as their `Display` text.
fn reference_from_json(text: &str) -> Result<UserRepository, String> {
    let doc: JsonRepository = serde_json::from_str(text).map_err(|e| format!("JSON error: {e}"))?;
    let mut repo = UserRepository::new();
    for user in &doc.users {
        let u = repo.add_user(&user.name);
        for (label, &score) in &user.properties {
            let p = repo.intern_property(label);
            repo.set_score(u, p, score)
                .map_err(|e| format!("profile error: {e}"))?;
        }
    }
    Ok(repo)
}

/// The serde-model writer.
fn reference_to_json(repo: &UserRepository) -> String {
    let mut doc = JsonRepository::default();
    for (u, profile) in repo.iter() {
        let mut properties = BTreeMap::new();
        for (p, s) in profile.iter() {
            properties.insert(repo.property_label(p).unwrap().to_owned(), s);
        }
        doc.users.push(JsonUser {
            name: repo.user_name(u).unwrap().to_owned(),
            properties,
        });
    }
    serde_json::to_string_pretty(&doc).unwrap()
}

const SOURCE: &str = "json profiles";

struct Span {
    start: usize,
    end: usize,
    line: usize,
}

#[derive(Default)]
struct Scan {
    records: Vec<Span>,
    trailing: Option<Span>,
}

/// The salvage scan, fixed to take only the root object's first `users`
/// key: it tracks nesting depth outside strings, and the first `"users"`
/// key at depth 1 of a root object decides.
fn reference_scan(text: &str) -> Result<Scan, DataError> {
    let bytes = text.as_bytes();
    let mut line = 1usize;
    let mut i = 0usize;
    let mut depth = 0usize;
    let mut root_object = false;
    let mut array_open = None;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b'{' | b'[' => {
                if depth == 0 {
                    root_object = bytes[i] == b'{';
                }
                depth += 1;
                i += 1;
            }
            b'}' | b']' => {
                depth = depth.saturating_sub(1);
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
                    break;
                }
                let key = &text[content_start..j];
                i = j + 1;
                if key == "users" && depth == 1 && root_object {
                    let mut k = i;
                    let mut ws_lines = 0;
                    while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                        ws_lines += usize::from(bytes[k] == b'\n');
                        k += 1;
                    }
                    if k < bytes.len() && bytes[k] == b':' {
                        k += 1;
                        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                            ws_lines += usize::from(bytes[k] == b'\n');
                            k += 1;
                        }
                        if k < bytes.len() && bytes[k] == b'[' {
                            line += ws_lines;
                            array_open = Some(k + 1);
                        }
                        break;
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
    let mut scan = Scan::default();
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
                            b']' => break,
                            b',' if depth == 0 => break,
                            _ => {}
                        }
                    }
                    i += 1;
                }
                let rec = Span {
                    start: rec_start,
                    end: i,
                    line: rec_line,
                };
                if complete || (i < bytes.len() && depth == 0 && !in_string) {
                    scan.records.push(rec);
                } else {
                    scan.trailing = Some(rec);
                    return Ok(scan);
                }
            }
        }
    }
    Ok(scan)
}

/// `profiles_from_json_opts` as a `Value` pre-parse (strict), the fixed
/// scan, and a `from_str::<JsonUser>` of every record span.
fn reference_opts(
    text: &str,
    opts: LoadOptions,
) -> Result<(UserRepository, LoadReport), DataError> {
    if !opts.is_lenient() {
        serde_json::from_str::<serde_json::Value>(text).map_err(|e| {
            DataError::new(
                DataErrorKind::Syntax {
                    message: e.to_string(),
                },
                Provenance::document(SOURCE).at_line(e.line()),
            )
        })?;
    }
    let scan = reference_scan(text)?;
    let mut repo = UserRepository::new();
    let mut report = LoadReport::default();
    let mut seen = std::collections::HashSet::new();
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
            .and_then(|user| {
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
                Ok(user)
            });
        match outcome {
            Ok(user) => {
                let u = repo.add_user(&user.name);
                for (label, &score) in &user.properties {
                    let p = repo.intern_property(label);
                    repo.set_score(u, p, score).unwrap();
                }
                seen.insert(user.name);
                report.accepted += 1;
            }
            Err(e) if opts.is_lenient() => report.quarantined.push(QuarantinedRecord::new(e, raw)),
            Err(e) => return Err(e),
        }
    }
    if let Some(tail) = scan.trailing {
        let e = DataError::new(
            DataErrorKind::Syntax {
                message: "document ends inside a record (truncated input)".into(),
            },
            Provenance::record(SOURCE, scan.records.len()).at_line(tail.line),
        );
        if !opts.is_lenient() {
            return Err(e);
        }
        report
            .quarantined
            .push(QuarantinedRecord::new(e, &text[tail.start..tail.end]));
    }
    Ok((repo, report))
}

// ------------------------------------------------------------- comparison

/// Names, labels in id order, and every profile entry with its score bits.
type Fingerprint = (Vec<String>, Vec<String>, Vec<Vec<(u32, u64)>>);

fn fingerprint(repo: &UserRepository) -> Fingerprint {
    let names = repo
        .iter()
        .map(|(u, _)| repo.user_name(u).unwrap().to_owned())
        .collect();
    let labels = (0..repo.property_count())
        .map(|i| {
            let p = podium_core::ids::PropertyId::from_index(i);
            repo.property_label(p).unwrap().to_owned()
        })
        .collect();
    let entries = repo
        .iter()
        .map(|(_, profile)| profile.iter().map(|(p, s)| (p.0, s.to_bits())).collect())
        .collect();
    (names, labels, entries)
}

fn fail(what: &str, text: &str, detail: String) -> TestCaseError {
    TestCaseError::fail(format!("{what} differs on {text:?}: {detail}"))
}

/// Runs `f`; `None` when it panics. The reference panics only where the
/// workspace parser's surrogate arithmetic overflows in a debug build.
fn guarded<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Option<T> {
    std::panic::catch_unwind(f).ok()
}

/// Checks all three loaders against the reference on `text`, and the
/// writer on every repository they accept.
fn check(text: &str) -> Result<(), TestCaseError> {
    let actual = profiles_from_json(text).map_err(|e| e.to_string());
    if let Some(expected) = guarded(|| reference_from_json(text)) {
        match (&actual, &expected) {
            (Ok(a), Ok(b)) if fingerprint(a) == fingerprint(b) => {}
            (Err(a), Err(b)) if a == b => {}
            _ => {
                let show = |r: &Result<UserRepository, String>| match r {
                    Ok(repo) => format!("{:?}", fingerprint(repo)),
                    Err(e) => e.clone(),
                };
                return Err(fail(
                    "profiles_from_json",
                    text,
                    format!("{} / reference {}", show(&actual), show(&expected)),
                ));
            }
        }
    }
    if let Ok(repo) = &actual {
        let written = profiles_to_json(repo).unwrap();
        if written != reference_to_json(repo) {
            return Err(fail("profiles_to_json", text, written));
        }
    }
    for opts in [LoadOptions::Strict, LoadOptions::Lenient] {
        let actual = profiles_from_json_opts(text, opts);
        let Some(expected) = guarded(|| reference_opts(text, opts)) else {
            continue;
        };
        let same = match (&actual, &expected) {
            (Ok((a, ra)), Ok((b, rb))) => fingerprint(a) == fingerprint(b) && ra == rb,
            (Err(a), Err(b)) => a == b && a.to_string() == b.to_string(),
            _ => false,
        };
        if !same {
            let show = |r: &Result<(UserRepository, LoadReport), DataError>| match r {
                Ok((repo, report)) => format!("{:?} {report:?}", fingerprint(repo)),
                Err(e) => format!("{e:?}"),
            };
            return Err(fail(
                &format!("profiles_from_json_opts({opts:?})"),
                text,
                format!("{} / reference {}", show(&actual), show(&expected)),
            ));
        }
    }
    Ok(())
}

// ------------------------------------------------------------- generation

struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        podium_core::rng::splitmix64(&mut self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `1 / n`.
    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'p, T>(&mut self, pool: &'p [T]) -> &'p T {
        &pool[self.below(pool.len())]
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Whitespace, mostly none or one space.
    fn ws(&mut self) -> &'static str {
        const WS: &[&str] = &[
            "", "", "", " ", " ", "\n", "\n  ", "\t", "\r\n", "  ", "\u{c}",
        ];
        WS[self.below(WS.len())]
    }
}

const NAMES: &[&str] = &[
    "Alice",
    "Bob",
    "Carol",
    "Zoé Müller",
    "健二 \"Ken\" 🎌",
    "tab\there",
    "line\nbreak",
    "back\\slash",
    "ctl\u{1}\u{1f}x",
    "slash/ok",
    "",
    "A",
];

const LABELS: &[&str] = &[
    "livesIn Tokyo",
    "avgRating Mexican",
    "p",
    "P",
    "p ",
    "q",
    "",
    "visitFreq Café Ñandú",
    "livesIn 東京\\Shibuya",
    "🎉",
    "a\"b",
    "users",
    "name",
];

/// Number literals: in range, out of range by one ulp, integers,
/// exponents, `-0`, overflow to infinity, and malformed or out-of-range
/// literals the parser rejects.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "0.5",
    "1.0",
    "0.0",
    "-0",
    "-0.0",
    "0e0",
    "1e0",
    "5e-1",
    "1E-1",
    "0.25e+1",
    "2.5E-1",
    "1e999",
    "-1e999",
    "1.0000000000000002",
    "0.9999999999999999",
    "-5e-324",
    "5e-324",
    "01",
    "-01",
    "00.5",
    "2",
    "-1",
    "18446744073709551615",
    "9007199254740993",
    "-9223372036854775807",
    "1.",
    "1e5",
];

const BAD_NUMBERS: &[&str] = &[
    "18446744073709551616",
    "-9223372036854775808",
    "1-2",
    "1e",
    "-",
    "--1",
    "1.2.3",
    "1e+",
    "0x1",
];

impl Gen {
    fn number(&mut self) -> String {
        match self.below(8) {
            0 => format!("{:?}", self.unit()),
            1 => format!("{:e}", self.unit()),
            2 => self.below(3).to_string(),
            _ => (*self.pick(NUMBERS)).to_owned(),
        }
    }

    /// `s` as a JSON string literal, with escapes chosen at random
    /// (raw control characters included, which the parser accepts).
    fn string(&mut self, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            let fancy = self.one_in(6);
            match c {
                '"' if fancy => out.push_str("\\u0022"),
                '"' => out.push_str("\\\""),
                '\\' if fancy => out.push_str("\\u005C"),
                '\\' => out.push_str("\\\\"),
                '\n' if !fancy => out.push_str("\\n"),
                '\t' if !fancy => out.push_str("\\t"),
                '/' if fancy => out.push_str("\\/"),
                c if (c as u32) < 0x20 && !fancy => out.push_str(&format!("\\u{:04x}", c as u32)),
                c if fancy && (c as u32) > 0xFFFF => {
                    let v = c as u32 - 0x10000;
                    out.push_str(&format!(
                        "\\u{:04x}\\u{:04X}",
                        0xD800 + (v >> 10),
                        0xDC00 + (v & 0x3FF)
                    ));
                }
                c if fancy => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// A key, sometimes spelled with an escape.
    fn key(&mut self, k: &str) -> String {
        if self.one_in(12) {
            let mut chars = k.chars();
            let first = chars.next().map_or(0, |c| c as u32);
            format!("\"\\u{first:04x}{}\"", chars.as_str())
        } else {
            format!("\"{k}\"")
        }
    }

    /// Any JSON value, nested up to `depth`; objects may hold `users`,
    /// `name` and `properties` keys.
    fn value(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 5 } else { 7 }) {
            0 => "null".into(),
            1 => (*self.pick(&["true", "false"])).into(),
            2 => self.number(),
            3 => {
                let s = *self.pick(NAMES);
                self.string(s)
            }
            4 => "[]".into(),
            5 => {
                let items: Vec<String> =
                    (0..self.below(3)).map(|_| self.value(depth - 1)).collect();
                format!("[{}]", items.join(", "))
            }
            _ => {
                let fields: Vec<String> = (0..self.below(3))
                    .map(|_| {
                        let k = *self.pick(&["users", "name", "properties", "x", "meta"]);
                        format!("{}: {}", self.key(k), self.value(depth - 1))
                    })
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }

    /// A `properties` object: labels shuffled and sometimes repeated,
    /// occasionally a non-number value or a malformed number.
    fn properties(&mut self) -> String {
        let n = self.below(6);
        let entries: Vec<String> = (0..n)
            .map(|_| {
                let label = *self.pick(LABELS);
                let value = match self.below(40) {
                    0 => self.value(1),
                    1 => (*self.pick(BAD_NUMBERS)).to_owned(),
                    _ => self.number(),
                };
                let sep = self.ws();
                format!("{}{sep}:{}{value}", self.string(label), self.ws())
            })
            .collect();
        let sep = format!(",{}", self.ws());
        format!("{{{}{}}}", self.ws(), entries.join(&sep))
    }

    /// One user record: fields in random order, extra and duplicate
    /// fields, and now and then a field of the wrong type or missing.
    fn record(&mut self) -> String {
        if self.one_in(40) {
            return self.value(1);
        }
        let mut fields = Vec::new();
        if !self.one_in(30) {
            let name = if self.one_in(30) {
                self.value(1)
            } else {
                let s = *self.pick(NAMES);
                self.string(s)
            };
            fields.push(format!("{}: {name}", self.key("name")));
        }
        if !self.one_in(30) {
            let props = if self.one_in(30) {
                self.value(1)
            } else {
                self.properties()
            };
            fields.push(format!("{}: {props}", self.key("properties")));
        }
        for _ in 0..self.below(3) {
            let k = *self.pick(&["name", "properties", "extra", "users"]);
            let v = match k {
                "properties" if self.one_in(2) => self.properties(),
                _ => self.value(2),
            };
            fields.push(format!("{}: {v}", self.key(k)));
        }
        for i in (1..fields.len()).rev() {
            let j = self.below(i + 1);
            fields.swap(i, j);
        }
        let sep = format!(",{}", self.ws());
        format!("{{{}{}{}}}", self.ws(), fields.join(&sep), self.ws())
    }

    /// A whole document: mostly a root object with one `users` array,
    /// sometimes nested or duplicate `users` keys, other top-level
    /// fields, or a root that is not an object.
    fn document(&mut self) -> String {
        if self.one_in(40) {
            return self.value(2);
        }
        let records: Vec<String> = (0..self.below(6)).map(|_| self.record()).collect();
        let sep = format!(",{}", self.ws());
        let array = if self.one_in(40) {
            self.value(1)
        } else {
            format!("[{}{}{}]", self.ws(), records.join(&sep), self.ws())
        };
        let mut fields = vec![format!("{}:{}{array}", self.key("users"), self.ws())];
        for _ in 0..self.below(3) {
            let k = *self.pick(&["users", "meta", "version"]);
            let v = self.value(2);
            fields.push(format!("{}: {v}", self.key(k)));
        }
        if self.one_in(2) {
            let j = self.below(fields.len());
            fields.swap(0, j);
        }
        format!(
            "{{{}{}{}}}{}",
            self.ws(),
            fields.join(&sep),
            self.ws(),
            self.ws()
        )
    }

    /// A random repository with in-range scores.
    fn repository(&mut self) -> UserRepository {
        let mut repo = UserRepository::new();
        for i in 0..self.below(6) {
            let name = format!("{}{i}", self.pick(NAMES));
            let u = repo.add_user(name);
            for _ in 0..self.below(5) {
                let p = repo.intern_property(self.pick(LABELS));
                let s = match self.below(4) {
                    0 => *self.pick(&[0.0, 1.0, 0.1 + 0.2, 5e-324, 0.9999999999999999, 1e-7]),
                    _ => self.unit(),
                };
                repo.set_score(u, p, s).unwrap();
            }
        }
        repo
    }

    /// `text` with one edit on a char boundary: a cut, a deletion, an
    /// insertion or a replacement of a JSON-significant token.
    fn mutate(&mut self, text: &str) -> String {
        let bounds: Vec<usize> = (0..=text.len())
            .filter(|&i| text.is_char_boundary(i))
            .collect();
        let at = *self.pick(&bounds);
        let next = bounds.iter().copied().find(|&i| i > at).unwrap_or(at);
        let token = *self.pick(&[
            "{", "}", "[", "]", ",", ":", "\"", "\\", " ", "\n", "0", "-", "e", ".", "n", "t", "@",
            "é", "\\u", "+",
        ]);
        match self.below(4) {
            0 => text[..at].to_owned(),
            1 => format!("{}{}", &text[..at], &text[next..]),
            2 => format!("{}{token}{}", &text[..at], &text[at..]),
            _ => format!("{}{token}{}", &text[..at], &text[next..]),
        }
    }
}

// ------------------------------------------------------------- tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn loaders_and_writer_match_the_serde_model(seed in any::<u64>()) {
        let mut g = Gen(seed);
        let written = profiles_to_json(&g.repository()).unwrap();
        check(&written)?;
        check(&g.mutate(&written))?;
        let generated = g.document();
        check(&generated)?;
        check(&g.mutate(&generated))?;
        let twice = g.mutate(&generated);
        check(&g.mutate(&twice))?;
    }

    #[test]
    fn fault_injected_documents_match_the_serde_model(
        seed in any::<u64>(),
        mask in 1u8..64,
        extra in 1usize..5,
    ) {
        let faults: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, f)| *f)
            .collect();
        let mut g = Gen(seed);
        let mut repo = UserRepository::new();
        for i in 0..faults.len() + 1 + extra {
            let u = repo.add_user(format!("u{i} {}", g.pick(NAMES)));
            for _ in 0..1 + g.below(3) {
                let p = repo.intern_property(g.pick(LABELS));
                repo.set_score(u, p, g.unit()).unwrap();
            }
        }
        let clean = profiles_to_json(&repo).unwrap();
        for k in 1..=faults.len() {
            let corrupted = FaultInjector::new(seed).corrupt_json(&clean, &faults[..k]);
            prop_assert!(corrupted.is_some(), "{:?} applies to {} records", &faults[..k], repo.user_count());
            check(&corrupted.unwrap())?;
        }
    }
}

/// Documents that pin single rules: which `users` key counts, the number
/// and escape grammar at its edges, label order, score bits and error
/// precedence.
#[test]
fn fixed_documents_match_the_serde_model() {
    let docs = [
        r#"{"meta": {"users": []}, "users": [{"name": "A", "properties": {"p": 0.5}}]}"#,
        r#"{"meta": {"users": [1]}, "users": [{"name": "A", "properties": {"p": 0.5}}]}"#,
        r#"{"users": [{"name": "A", "properties": {}}], "users": 7}"#,
        r#"{"users": 7, "users": [{"name": "A", "properties": {}}]}"#,
        r#"[{"users": [{"name": "A", "properties": {}}]}]"#,
        r#"{"\u0075sers": [{"name": "A", "properties": {}}]}"#,
        r#"{"a": "users", "users": [{"name": "A", "properties": {"p": 1}}]}"#,
        "",
        " \n ",
        "{",
        r#"{"users": [],}"#,
        r#"{"users": [1,]}"#,
        r#"{"users": []} x"#,
        r#"{"users" []}"#,
        r#"{"users": [nul]}"#,
        r#"{"users": [01, -0, 1., 1e5, 1E+2, 18446744073709551615]}"#,
        r#"{"users": [18446744073709551616]}"#,
        r#"{"users": [-9223372036854775808]}"#,
        r#"{"users": [1e999, .5]}"#,
        r#"{"users": ["\u12"]}"#,
        r#"{"users": ["\u+041", "é🎉", "\u00e9\ud83c\udf89\/\b\f"]}"#,
        r#"{"users": ["\udf89"]}"#,
        r#"{"users": ["\ud83cx"]}"#,
        "{\"users\": [\"Zoé\\",
        "{\"users\":\n [\n\"abc",
        r#"{"users": [{"name": "A", "properties": {"a": -0, "b": -0.0, "c": 1e-400, "d": 1}}]}"#,
        r#"{"users": [{"name": "A", "properties": {"b": 0.1, "a": 0.2, "b": 0.3}}]}"#,
        r#"{"users": [{"name": "A", "properties": {"b": 2, "b": 0.3}}]}"#,
        r#"{"users": [{"name": "A", "properties": {"z": 2, "y": 3}}]}"#,
        r#"{"users": [{"name": "A", "properties": {"p": 2}}, {"properties": {}}]}"#,
        r#"{"users": [{"name": "A", "properties": {"p": 0.5}}, {"name": "A", "properties": {}}]}"#,
    ];
    for doc in docs {
        check(doc).unwrap();
    }
}
