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
//!
//! Profile documents are read in one pass by a pull reader that goes from
//! the text straight into a [`UserRepository`]: strings are borrowed from
//! the text unless they hold escapes, numbers are parsed in place, and any
//! other field is syntax-checked and skipped without building a value. The
//! reader accepts exactly the grammar of the workspace's `serde_json` and
//! words and places its errors the same way, so every loader reports what
//! a parse into `{"users": [{"name": String, "properties": BTreeMap<String,
//! f64>}]}` would: the first `users`, `name` and `properties` key wins, and
//! within a record labels are interned in sorted order, a repeated label
//! keeping its last score. [`profiles_to_json`] writes the same pretty text
//! that model prints, straight from the repository.

use std::borrow::Cow;
use std::collections::HashSet;

use podium_core::error::CoreError;
use podium_core::profile::UserRepository;

use crate::load::{DataError, DataErrorKind, LoadOptions, LoadReport, Provenance};

/// Parses a repository from the JSON interchange format.
///
/// Malformed JSON, and a document or record that does not fit the schema,
/// surface as [`JsonError::Syntax`]; a syntax error anywhere beats a schema
/// error, which names the first bad record. Scores outside `[0, 1]` are
/// rejected with [`CoreError::ScoreOutOfRange`], for the first bad record
/// and its first bad label in sorted order, once the whole document fits
/// the schema.
pub fn profiles_from_json(text: &str) -> Result<UserRepository, JsonError> {
    let mut repo = UserRepository::new();
    let mut labels = Vec::new();
    let mut schema = None;
    let mut score = None;
    let envelope = Reader::new(text)
        .document(true, |reader, _| {
            match reader.record(&mut labels)? {
                Err(message) => {
                    schema.get_or_insert(message);
                }
                Ok(name) if schema.is_none() && score.is_none() => {
                    score = commit(&mut repo, name, &labels).err();
                }
                // The load has failed; later records only need checking.
                Ok(_) => {}
            }
            Ok(())
        })
        .map_err(|e| JsonError::Syntax(e.message))?;
    if let Some(message) = envelope.err().or(schema) {
        return Err(JsonError::Syntax(message));
    }
    match score {
        Some(e) => Err(JsonError::Core(e)),
        None => Ok(repo),
    }
}

/// Adds user `name` with a read record's scores, interning its labels in
/// their sorted order.
fn commit(
    repo: &mut UserRepository,
    name: impl Into<String>,
    labels: &[(Cow<'_, str>, f64)],
) -> Result<(), CoreError> {
    let u = repo.add_user(name);
    labels.iter().try_for_each(|(label, score)| {
        let p = repo.intern_property(label);
        repo.set_score(u, p, *score)
    })
}

/// Serializes a repository to the JSON interchange format: two-space
/// indentation, users in id order, each user's labels sorted, scores in
/// Rust's shortest round-trip form (`{:?}`).
pub fn profiles_to_json(repo: &UserRepository) -> Result<String, JsonError> {
    let mut out = String::from("{\n  \"users\": [");
    let mut labels = Vec::new();
    for (u, profile) in repo.iter() {
        if u.index() > 0 {
            out.push(',');
        }
        out.push_str("\n    {\n      \"name\": ");
        push_string(&mut out, repo.user_name(u)?);
        out.push_str(",\n      \"properties\": {");
        labels.clear();
        for (p, score) in profile.iter() {
            labels.push((repo.property_label(p)?, score));
        }
        sort_last_wins(&mut labels);
        for (i, &(label, score)) in labels.iter().enumerate() {
            out.push_str(if i == 0 { "\n        " } else { ",\n        " });
            push_string(&mut out, label);
            out.push_str(": ");
            push_score(&mut out, score);
        }
        out.push_str(if labels.is_empty() { "}" } else { "\n      }" });
        out.push_str("\n    }");
    }
    out.push_str(if repo.user_count() == 0 {
        "]\n}"
    } else {
        "\n  ]\n}"
    });
    Ok(out)
}

/// Appends `s` as a JSON string literal.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(at) = rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)
    {
        // The byte at `at` is ASCII, so both halves are `str`s.
        let (run, tail) = rest.split_at(at);
        out.push_str(run);
        let mut chars = tail.chars();
        match chars.next() {
            Some('"') => out.push_str("\\\""),
            Some('\\') => out.push_str("\\\\"),
            Some('\n') => out.push_str("\\n"),
            Some('\r') => out.push_str("\\r"),
            Some('\t') => out.push_str("\\t"),
            Some(c) => {
                out.push_str("\\u00");
                let code = u32::from(c);
                out.extend(char::from_digit(code >> 4, 16));
                out.extend(char::from_digit(code & 0xF, 16));
            }
            None => {}
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out.push('"');
}

/// Appends a score as `{:?}` prints it, or `null` when it is not finite.
fn push_score(out: &mut String, score: f64) {
    use std::fmt::Write as _;
    if score.is_finite() {
        // podium-lint: allow(discarded-result) — fmt::Write into a String cannot fail
        let _ = write!(out, "{score:?}");
    } else {
        out.push_str("null");
    }
}

/// Sorts `(label, score)` pairs by label, stably, and keeps one pair per
/// label with the last of its scores — what collecting them into a
/// `BTreeMap` does.
fn sort_last_wins<L: Ord>(labels: &mut Vec<(L, f64)>) {
    // Written documents list each record's labels sorted and unique.
    if labels.is_sorted_by(|a, b| a.0 < b.0) {
        return;
    }
    labels.sort_by(|a, b| a.0.cmp(&b.0));
    labels.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
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

/// The document-level error of a profile document without a `users`
/// array; fatal in both load modes.
fn no_users_array() -> DataError {
    DataError::new(
        DataErrorKind::Syntax {
            message: "no \"users\" array found in document".into(),
        },
        Provenance::document(SOURCE),
    )
}

/// Locates the `"users"` array and extracts each balanced `{…}` record span
/// without requiring the document as a whole to parse — the salvage pass
/// behind [`LoadOptions::Lenient`]. String-aware: braces, brackets, and
/// commas inside JSON strings (with escapes) are ignored. Returns a
/// document-level [`DataError`] when the root object's first `"users"` key
/// is missing or does not open an array.
pub(crate) fn scan_user_records(text: &str) -> Result<UserArrayScan, DataError> {
    let bytes = text.as_bytes();
    let (mut i, mut line) = users_array_start(bytes).ok_or_else(no_users_array)?;

    // Walk the array, extracting balanced records. A non-object token
    // (stray garbage) is consumed up to the next top-level `,`/`]` and
    // reported as a record span so it can be quarantined individually.
    let mut scan = UserArrayScan::default();
    while let Some(&b) = bytes.get(i) {
        match b {
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
                while let Some(&b) = bytes.get(i) {
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

/// Finds the root object's first `"users"` key — a string outside other
/// strings, at nesting depth 1 of a document that opens with `{`, followed
/// by `:` — and returns the offset just past the `[` of its array with the
/// line that `[` is on. `None` when there is no such key, or its value is
/// not an array. Keys are compared as written, escapes undecoded.
fn users_array_start(bytes: &[u8]) -> Option<(usize, usize)> {
    let mut line = 1usize;
    let mut depth = 0usize;
    let mut root_object = false;
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        i += 1;
        match b {
            b'\n' => line += 1,
            b'{' | b'[' => {
                if depth == 0 {
                    root_object = b == b'{';
                }
                depth += 1;
            }
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' => {
                // Find the closing quote. An escaped byte is skipped
                // unexamined, a raw newline included.
                let (start, mut escaped) = (i, false);
                loop {
                    match *bytes.get(i)? {
                        _ if escaped => escaped = false,
                        b'\\' => escaped = true,
                        b'\n' => line += 1,
                        b'"' => break,
                        _ => {}
                    }
                    i += 1;
                }
                let key = bytes.get(start..i)?;
                i += 1;
                if depth == 1 && root_object && key == b"users" {
                    // ASCII whitespace, form feed included, may surround
                    // the colon.
                    let skip = |from: usize| {
                        let rest = bytes.get(from..).unwrap_or_default();
                        from + rest.iter().take_while(|b| b.is_ascii_whitespace()).count()
                    };
                    let colon = skip(i);
                    if bytes.get(colon) == Some(&b':') {
                        let open = skip(colon + 1);
                        if bytes.get(open) != Some(&b'[') {
                            return None;
                        }
                        line += newlines(bytes.get(i..open)?);
                        return Some((open + 1, line));
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// Length of the JSON whitespace run `bytes` starts with.
fn ws_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        .count()
}

/// Number of `\n` bytes in `bytes`.
fn newlines(bytes: &[u8]) -> usize {
    bytes.iter().filter(|&&b| b == b'\n').count()
}

/// The records a load has admitted: the repository they built and their
/// names.
#[derive(Default)]
struct Admitted<'a> {
    repo: UserRepository,
    names: HashSet<Cow<'a, str>>,
}

impl<'a> Admitted<'a> {
    /// Validates one read record in full — it fits the schema, its name is
    /// fresh and every score is finite and inside `[0, 1]` — and only then
    /// commits it, so a rejected record leaves no partial state. `labels`
    /// holds the record's scores as [`Reader::record`] left them.
    fn admit(
        &mut self,
        record: Record<'a>,
        labels: &[(Cow<'a, str>, f64)],
        prov: impl Fn() -> Provenance,
    ) -> Result<(), DataError> {
        let name = match record {
            Ok(name) => name,
            Err(message) => return Err(DataError::new(DataErrorKind::Syntax { message }, prov())),
        };
        if self.names.contains(name.as_ref()) {
            let kind = DataErrorKind::Duplicate {
                name: name.to_string(),
            };
            return Err(DataError::new(kind, prov().named(name)));
        }
        let bad = labels
            .iter()
            .find(|(_, s)| !s.is_finite() || !(0.0..=1.0).contains(s));
        if let Some((label, score)) = bad {
            let kind = DataErrorKind::BadScore {
                property: label.to_string(),
                value: score.to_string(),
            };
            return Err(DataError::new(kind, prov().named(name)));
        }
        commit(&mut self.repo, name.as_ref(), labels)
            .map_err(|e| DataError::new(DataErrorKind::Core(e), prov().named(name.as_ref())))?;
        self.names.insert(name);
        Ok(())
    }
}

/// Parses a repository with an explicit failure policy and full accounting.
///
/// [`LoadOptions::Strict`] requires the document to parse as a whole and
/// fails on the first defective record, with record/line provenance in the
/// returned [`DataError`]; a syntax error anywhere comes first, then a
/// missing `"users"` array. [`LoadOptions::Lenient`] salvages: records are
/// located by a string-aware scan of the `"users"` array, so even a
/// document with a truncated tail or garbage bytes inside one record
/// yields every other record; each defective record becomes exactly one
/// quarantine entry in the [`LoadReport`]. In both modes a record is
/// validated in full (fresh name, finite in-range scores) before any of it
/// is committed, and a missing `"users"` array is fatal. Both modes take
/// the root object's first `"users"` key as written, without decoding
/// escapes.
pub fn profiles_from_json_opts(
    text: &str,
    opts: LoadOptions,
) -> Result<(UserRepository, LoadReport), DataError> {
    let mut admitted = Admitted::default();
    let mut report = LoadReport::default();
    let mut labels = Vec::new();
    if !opts.is_lenient() {
        let mut defect = None;
        let envelope = Reader::new(text).document(false, |reader, idx| {
            let start = reader.pos;
            let record = reader.record(&mut labels)?;
            if defect.is_none() {
                let prov = || Provenance::record(SOURCE, idx).at_line(line_at(text, start));
                match admitted.admit(record, &labels, prov) {
                    Ok(()) => report.accepted += 1,
                    Err(e) => defect = Some(e),
                }
            }
            Ok(())
        });
        let envelope = envelope.map_err(|e| {
            let kind = DataErrorKind::Syntax { message: e.message };
            DataError::new(kind, Provenance::document(SOURCE).at_line(e.line))
        })?;
        if envelope.is_err() {
            return Err(no_users_array());
        }
        return match defect {
            Some(e) => Err(e),
            None => Ok((admitted.repo, report)),
        };
    }
    let scan = scan_user_records(text)?;
    for (idx, rec) in scan.records.iter().enumerate() {
        let raw = text.get(rec.start..rec.end).unwrap_or_default();
        let prov = || Provenance::record(SOURCE, idx).at_line(rec.line);
        let mut reader = Reader::new(raw);
        let outcome = match reader
            .record(&mut labels)
            .and_then(|r| reader.end().map(|()| r))
        {
            Ok(record) => admitted.admit(record, &labels, prov),
            Err(e) => Err(DataError::new(
                DataErrorKind::Syntax { message: e.message },
                prov(),
            )),
        };
        match outcome {
            Ok(()) => report.accepted += 1,
            Err(e) => report.quarantine(e, raw),
        }
    }
    if let Some(tail) = scan.trailing {
        let e = DataError::new(
            DataErrorKind::Syntax {
                message: "document ends inside a record (truncated input)".into(),
            },
            Provenance::record(SOURCE, scan.records.len()).at_line(tail.line),
        );
        report.quarantine(e, text.get(tail.start..tail.end).unwrap_or_default());
    }
    Ok((admitted.repo, report))
}

/// The 1-based line of byte `pos` of `text`.
fn line_at(text: &str, pos: usize) -> usize {
    1 + newlines(text.as_bytes().get(..pos).unwrap_or_default())
}

/// A JSON syntax error, worded and placed as `serde_json` words and places
/// it.
#[derive(Debug)]
struct SyntaxError {
    /// `"<what> at line <l> column <c>"`.
    message: String,
    /// The 1-based line.
    line: usize,
}

/// The kind of a JSON value, as schema errors name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Null,
    Boolean,
    Number,
    String,
    Array,
    Object,
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Kind::Null => "null",
            Kind::Boolean => "boolean",
            Kind::Number => "number",
            Kind::String => "string",
            Kind::Array => "array",
            Kind::Object => "object",
        })
    }
}

/// A value read without syntax errors, checked against the profile
/// schema: `Err` holds the schema error as `serde_json` words it (with no
/// position, as the schema is checked only once the text parses).
type Schema<T> = Result<T, String>;

/// A user record read without syntax errors: its name, or its schema
/// error.
type Record<'a> = Schema<Cow<'a, str>>;

/// A pull reader over JSON text with the grammar of `serde_json`: its
/// number syntax, escapes and surrogate pairs, no trailing commas and
/// nothing but whitespace after the document. It stops at the first
/// syntax error, placed where `serde_json` places it.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Self {
        Self { text, pos: 0 }
    }

    /// The bytes not read yet.
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// A syntax error at the current position.
    fn fail(&self, what: impl std::fmt::Display) -> SyntaxError {
        let before = self.text.as_bytes().get(..self.pos).unwrap_or_default();
        let line = 1 + newlines(before);
        let column = 1 + before.iter().rev().take_while(|&&b| b != b'\n').count();
        SyntaxError {
            message: format!("{what} at line {line} column {column}"),
            line,
        }
    }

    fn skip_ws(&mut self) {
        self.pos += ws_len(self.rest());
    }

    /// Consumes the punctuation byte `b`, which must come next.
    fn punct(&mut self, b: u8) -> Result<(), SyntaxError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(format_args!("expected `{}`", char::from(b))))
        }
    }

    /// The kind of the value starting at the current position, if a value
    /// can start there.
    fn kind(&self) -> Option<Kind> {
        Some(match self.peek()? {
            b'n' => Kind::Null,
            b't' | b'f' => Kind::Boolean,
            b'"' => Kind::String,
            b'[' => Kind::Array,
            b'{' => Kind::Object,
            b'-' | b'0'..=b'9' => Kind::Number,
            _ => return None,
        })
    }

    /// Syntax-checks and skips one value, returning its kind.
    fn skip_value(&mut self) -> Result<Kind, SyntaxError> {
        self.skip_ws();
        let Some(kind) = self.kind() else {
            return Err(match self.peek() {
                Some(b) => self.fail(format_args!("unexpected character `{}`", char::from(b))),
                None => self.fail("unexpected end of input"),
            });
        };
        match kind {
            Kind::Null => self.keyword("null")?,
            Kind::Boolean if self.peek() == Some(b't') => self.keyword("true")?,
            Kind::Boolean => self.keyword("false")?,
            Kind::Number => {
                self.number()?;
            }
            Kind::String => {
                self.string()?;
            }
            Kind::Array => self.array(|r| r.skip_value().map(|_| ()))?,
            Kind::Object => self.object(|r, _| r.skip_value().map(|_| ()))?,
        }
        Ok(kind)
    }

    fn keyword(&mut self, word: &str) -> Result<(), SyntaxError> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.fail(format_args!("expected `{word}`")))
        }
    }

    /// Reads a number in place. An integer goes through `u64`/`i64` first,
    /// so it must fit one, and its value is the nearest `f64` — `+0.0` for
    /// `-0`.
    fn number(&mut self) -> Result<f64, SyntaxError> {
        let rest = self.rest();
        let sign = usize::from(rest.first() == Some(&b'-'));
        let body = rest.get(sign..).unwrap_or_default();
        let len = sign
            + body
                .iter()
                .take_while(|&&b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
                .count();
        let is_float = body.iter().take(len - sign).any(|&b| !b.is_ascii_digit());
        let text = self.text.get(self.pos..self.pos + len).unwrap_or_default();
        self.pos += len;
        if !is_float {
            let fits = match text.strip_prefix('-') {
                Some(digits) => digits.parse::<i64>().is_ok(),
                None => text.parse::<u64>().is_ok(),
            };
            if !fits {
                return Err(self.fail("integer out of range"));
            }
        }
        // An integer's digits parse to the same nearest `f64` as the
        // integer converts to, except that `-0` would keep its sign.
        match text.parse::<f64>() {
            Ok(value) if !is_float && value == 0.0 => Ok(0.0),
            Ok(value) => Ok(value),
            Err(_) => Err(self.fail("invalid number")),
        }
    }

    /// Reads a string, borrowed from the text unless it holds escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, SyntaxError> {
        self.punct(b'"')?;
        let start = self.pos;
        self.pos += self.run();
        match self.peek() {
            Some(b'"') => {
                let s = self.text.get(start..self.pos).unwrap_or_default();
                self.pos += 1;
                Ok(Cow::Borrowed(s))
            }
            Some(_) => self.escaped_string(start).map(Cow::Owned),
            None => Err(self.fail("unterminated string")),
        }
    }

    /// Length of the run up to the next `"` or `\`. Both are ASCII, so the
    /// run ends on a char boundary.
    fn run(&self) -> usize {
        let rest = self.rest();
        rest.iter()
            .position(|&b| b == b'"' || b == b'\\')
            .unwrap_or(rest.len())
    }

    /// Decodes a string whose content starts at `start` and whose first
    /// escape is at the current position.
    fn escaped_string(&mut self, start: usize) -> Result<String, SyntaxError> {
        let mut out = String::from(self.text.get(start..self.pos).unwrap_or_default());
        loop {
            // At a backslash.
            self.pos += 1;
            let c = match self.peek() {
                Some(b'u') => {
                    self.pos += 1;
                    self.unicode_escape()?
                }
                Some(b) => {
                    let c = match b {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        _ => return Err(self.fail("invalid escape")),
                    };
                    self.pos += 1;
                    c
                }
                None => return Err(self.fail("invalid escape")),
            };
            out.push(c);
            let run = self.run();
            out.push_str(self.text.get(self.pos..self.pos + run).unwrap_or_default());
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => {}
                None => return Err(self.fail("unterminated string")),
            }
        }
    }

    /// Decodes the four hex digits after `\u`, and after a high surrogate
    /// the `\u` escape that follows it.
    fn unicode_escape(&mut self) -> Result<char, SyntaxError> {
        let cp = self.hex4()?;
        let c = if (0xD800..0xDC00).contains(&cp) {
            if self.rest().starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                // `serde_json`'s arithmetic as a release build runs it: a
                // second escape below 0xDC00 wraps instead of failing.
                let high = 0x10000 + ((cp - 0xD800) << 10);
                char::from_u32(high.wrapping_add(lo.wrapping_sub(0xDC00)))
            } else {
                None
            }
        } else {
            char::from_u32(cp)
        };
        c.ok_or_else(|| self.fail("invalid \\u escape"))
    }

    /// Reads four hex digits. Like `serde_json`, it takes whatever
    /// `u32::from_str_radix` takes, a leading `+` included.
    fn hex4(&mut self) -> Result<u32, SyntaxError> {
        let Some(digits) = self.rest().get(..4) else {
            return Err(self.fail("truncated \\u escape"));
        };
        let value = std::str::from_utf8(digits)
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.fail("invalid \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    /// Reads an array, calling `element` at the start of each element; it
    /// must consume exactly one value.
    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), SyntaxError>,
    ) -> Result<(), SyntaxError> {
        self.punct(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected `,` or `]`")),
            }
        }
    }

    /// Reads an object, calling `field` with each key at the start of its
    /// value; it must consume exactly one value.
    fn object(
        &mut self,
        mut field: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), SyntaxError>,
    ) -> Result<(), SyntaxError> {
        self.punct(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.punct(b':')?;
            self.skip_ws();
            field(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.fail("expected `,` or `}`")),
            }
        }
    }

    /// Checks that nothing but whitespace is left.
    fn end(&mut self) -> Result<(), SyntaxError> {
        self.skip_ws();
        if self.rest().is_empty() {
            Ok(())
        } else {
            Err(self.fail("trailing characters"))
        }
    }

    /// Reads a whole profile document, handing `record` each element of
    /// the root object's first `users` array with its index. Later `users`
    /// keys and every other field are syntax-checked and skipped. With
    /// `escaped_users_key` false, a `users` key written with escapes does
    /// not count. The schema error is the envelope's: a root that is not an
    /// object, or a `users` key that is missing or holds no array.
    fn document(
        &mut self,
        escaped_users_key: bool,
        mut record: impl FnMut(&mut Self, usize) -> Result<(), SyntaxError>,
    ) -> Result<Schema<()>, SyntaxError> {
        self.skip_ws();
        let mut users = None;
        if self.kind() == Some(Kind::Object) {
            self.object(|r, key| {
                let is_users = match key {
                    Cow::Borrowed(key) => key == "users",
                    Cow::Owned(key) => escaped_users_key && key == "users",
                };
                if !is_users || users.is_some() {
                    return r.skip_value().map(|_| ());
                }
                if r.kind() != Some(Kind::Array) {
                    let kind = r.skip_value()?;
                    users = Some(Err(format!("expected array, found {kind}")));
                    return Ok(());
                }
                users = Some(Ok(()));
                let mut idx = 0;
                r.array(|r| {
                    record(r, idx)?;
                    idx += 1;
                    Ok(())
                })
            })?;
        } else {
            let kind = self.skip_value()?;
            users = Some(Err(format!("expected object, found {kind}")));
        }
        self.end()?;
        Ok(users.unwrap_or_else(|| Err("missing field `users`".into())))
    }

    /// Reads one user record, pushing its `(label, score)` pairs onto the
    /// cleared `labels`, sorted by label with a repeated label keeping its
    /// last score. The first `name` and `properties` keys count; anything
    /// else is syntax-checked and skipped.
    fn record(&mut self, labels: &mut Vec<(Cow<'a, str>, f64)>) -> Result<Record<'a>, SyntaxError> {
        labels.clear();
        self.skip_ws();
        if self.kind() != Some(Kind::Object) {
            let kind = self.skip_value()?;
            return Ok(Err(format!("expected object, found {kind}")));
        }
        let mut name = None;
        let mut properties = None;
        self.object(|r, key| {
            match &*key {
                "name" if name.is_none() => {
                    name = Some(if r.kind() == Some(Kind::String) {
                        Ok(r.string()?)
                    } else {
                        Err(r.skip_value()?)
                    });
                }
                "properties" if properties.is_none() => properties = Some(r.scores(labels)?),
                _ => {
                    r.skip_value()?;
                }
            }
            Ok(())
        })?;
        let name = match name {
            None => return Ok(Err("missing field `name`".into())),
            Some(Err(kind)) => return Ok(Err(format!("expected string, found {kind}"))),
            Some(Ok(name)) => name,
        };
        Ok(match properties {
            None => Err("missing field `properties`".into()),
            Some(Err(message)) => Err(message),
            Some(Ok(())) => {
                sort_last_wins(labels);
                Ok(name)
            }
        })
    }

    /// Reads a `properties` value onto `labels`; its schema error when it
    /// is not an object of numbers.
    fn scores(&mut self, labels: &mut Vec<(Cow<'a, str>, f64)>) -> Result<Schema<()>, SyntaxError> {
        if self.kind() != Some(Kind::Object) {
            let kind = self.skip_value()?;
            return Ok(Err(format!("expected object, found {kind}")));
        }
        let mut not_number = None;
        self.object(|r, label| {
            if r.kind() == Some(Kind::Number) {
                labels.push((label, r.number()?));
            } else {
                let kind = r.skip_value()?;
                not_number.get_or_insert(kind);
            }
            Ok(())
        })?;
        Ok(match not_number {
            Some(kind) => Err(format!("expected number, found {kind}")),
            None => Ok(()),
        })
    }
}

/// Errors from JSON profile I/O.
#[derive(Debug)]
pub enum JsonError {
    /// JSON syntax or schema error. A syntax error's message ends with
    /// its line and column.
    Syntax(String),
    /// Semantic error (e.g. score out of range).
    Core(CoreError),
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonError::Syntax(message) => write!(f, "JSON error: {message}"),
            JsonError::Core(e) => write!(f, "profile error: {e}"),
        }
    }
}

impl std::error::Error for JsonError {}

impl From<serde_json::Error> for JsonError {
    fn from(e: serde_json::Error) -> Self {
        JsonError::Syntax(e.to_string())
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
) -> Result<UserRepository, Box<dyn std::error::Error>> {
    let text = std::fs::read_to_string(path)?;
    Ok(profiles_from_json(&text)?)
}

/// Convenience: saves profiles to a file path.
pub fn profiles_to_path(
    repo: &UserRepository,
    path: impl AsRef<std::path::Path>,
) -> Result<(), Box<dyn std::error::Error>> {
    std::fs::write(path, profiles_to_json(repo)?)?;
    Ok(())
}

/// Serializes a review corpus to JSON — dataset snapshots for sharing the
/// exact ground-truth opinions an experiment ran against.
pub fn corpus_to_json(corpus: &crate::reviews::ReviewCorpus) -> Result<String, JsonError> {
    Ok(serde_json::to_string(corpus)?)
}

/// Parses a review corpus back from JSON.
pub fn corpus_from_json(text: &str) -> Result<crate::reviews::ReviewCorpus, JsonError> {
    Ok(serde_json::from_str(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use podium_core::ids::UserId;

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

    /// A `users` key nested in another top-level value is not the users
    /// array, in any loader.
    #[test]
    fn nested_users_key_is_not_the_users_array() {
        for nested in ["[]", "[1]"] {
            let doc = format!(
                r#"{{"meta": {{"users": {nested}}}, "users": [{{"name": "A", "properties": {{"p": 0.5}}}}]}}"#
            );
            assert_eq!(profiles_from_json(&doc).unwrap().user_count(), 1);
            for opts in [LoadOptions::Strict, LoadOptions::Lenient] {
                let (repo, report) = profiles_from_json_opts(&doc, opts).unwrap();
                assert_eq!(repo.user_count(), 1, "{opts:?}: {doc}");
                assert_eq!(report.summary(), "1 accepted, 0 quarantined");
            }
        }
    }

    /// A high surrogate followed by an escape below 0xDC00 decodes with the
    /// wrapping arithmetic a release build of `serde_json` uses.
    #[test]
    fn surrogate_arithmetic_wraps() {
        let doc = r#"{"users": [{"name": "\ud800\u0041", "properties": {}}]}"#;
        let repo = profiles_from_json(doc).unwrap();
        assert_eq!(repo.user_name(UserId(0)).unwrap(), "\u{2441}");
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
