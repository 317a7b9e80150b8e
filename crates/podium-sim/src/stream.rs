//! Schema-validated JSONL stream ingestion.
//!
//! Every JSONL emitter in the workspace tags its rows with a
//! `"schema": "podium.<kind>/<version>"` field and a monotone `"seq"`
//! number. The dashboard refuses to guess: a stream with a missing or
//! unknown schema tag, mixed versions, or a sequence regression is
//! rejected with a typed [`StreamError`] naming the file and line —
//! never a parse panic halfway through a render.

use serde_json::Value;

/// The stream kinds the dashboard understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// `podium.experiment-status/1` — experiment harness status rows.
    ExperimentStatus,
    /// `podium.lint/1` — podium-lint findings.
    Lint,
    /// `podium.sim-trace/1` — simulator event-trace rows.
    SimTrace,
    /// `podium.sim-requests/1` — simulator request-log rows.
    SimRequests,
}

impl StreamKind {
    /// The schema tag this build reads for each kind.
    pub fn schema(self) -> &'static str {
        match self {
            Self::ExperimentStatus => "podium.experiment-status/1",
            Self::Lint => "podium.lint/1",
            Self::SimTrace => "podium.sim-trace/1",
            Self::SimRequests => "podium.sim-requests/1",
        }
    }

    fn from_schema(tag: &str) -> Option<Self> {
        [
            Self::ExperimentStatus,
            Self::Lint,
            Self::SimTrace,
            Self::SimRequests,
        ]
        .into_iter()
        .find(|k| k.schema() == tag)
    }
}

/// Why a stream was rejected. Each variant names the offending file and
/// (1-based) line so the fix is one `sed -n` away.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A line is not a JSON object.
    Parse {
        /// Source label (usually the path).
        path: String,
        /// 1-based line number.
        line: usize,
        /// Parser message.
        message: String,
    },
    /// A row has no `schema` field.
    MissingSchema {
        /// Source label.
        path: String,
        /// 1-based line number.
        line: usize,
    },
    /// A row's schema tag is not one this build reads.
    UnknownSchema {
        /// Source label.
        path: String,
        /// 1-based line number.
        line: usize,
        /// The offending tag.
        schema: String,
    },
    /// Rows in one file carry different schema tags (e.g. an appended
    /// file spanning two emitter versions).
    MixedSchema {
        /// Source label.
        path: String,
        /// 1-based line number of the first divergent row.
        line: usize,
        /// The tag the file started with.
        expected: String,
        /// The divergent tag.
        found: String,
    },
    /// A row has no `seq` field.
    MissingSeq {
        /// Source label.
        path: String,
        /// 1-based line number.
        line: usize,
    },
    /// `seq` went backwards or repeated — rows are missing, reordered,
    /// or two writers interleaved.
    NonMonotoneSeq {
        /// Source label.
        path: String,
        /// 1-based line number.
        line: usize,
        /// The previous row's sequence number.
        prev: u64,
        /// The offending row's sequence number.
        found: u64,
    },
    /// The file exists but holds no rows.
    Empty {
        /// Source label.
        path: String,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Parse {
                path,
                line,
                message,
            } => write!(f, "{path}:{line}: not a JSON object: {message}"),
            StreamError::MissingSchema { path, line } => {
                write!(f, "{path}:{line}: row has no 'schema' tag")
            }
            StreamError::UnknownSchema { path, line, schema } => write!(
                f,
                "{path}:{line}: unknown stream schema '{schema}' (this build reads: {})",
                known_schemas().join(", ")
            ),
            StreamError::MixedSchema {
                path,
                line,
                expected,
                found,
            } => write!(
                f,
                "{path}:{line}: mixed stream versions: file started as '{expected}' but this row is '{found}'"
            ),
            StreamError::MissingSeq { path, line } => {
                write!(f, "{path}:{line}: row has no 'seq' field")
            }
            StreamError::NonMonotoneSeq {
                path,
                line,
                prev,
                found,
            } => write!(
                f,
                "{path}:{line}: seq went backwards ({prev} then {found}): rows missing, reordered, or two writers interleaved"
            ),
            StreamError::Empty { path } => write!(f, "{path}: stream holds no rows"),
        }
    }
}

impl std::error::Error for StreamError {}

fn known_schemas() -> Vec<&'static str> {
    vec![
        StreamKind::ExperimentStatus.schema(),
        StreamKind::Lint.schema(),
        StreamKind::SimTrace.schema(),
        StreamKind::SimRequests.schema(),
    ]
}

/// One validated stream: its detected kind and parsed rows.
#[derive(Debug)]
pub struct JsonlStream {
    /// Source label (the path as given).
    pub path: String,
    /// The detected kind.
    pub kind: StreamKind,
    /// Parsed rows, file order.
    pub rows: Vec<Value>,
}

/// Parses and validates one JSONL document. The kind is auto-detected
/// from the first row's schema tag; every row must carry the same tag
/// and a strictly increasing `seq`.
pub fn parse_stream(path: &str, text: &str) -> Result<JsonlStream, StreamError> {
    let mut kind: Option<(StreamKind, String)> = None;
    let mut rows = Vec::new();
    let mut prev_seq: Option<u64> = None;
    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let value: Value = serde_json::from_str(trimmed).map_err(|e| StreamError::Parse {
            path: path.to_owned(),
            line,
            message: e.to_string(),
        })?;
        if !value.is_object() {
            return Err(StreamError::Parse {
                path: path.to_owned(),
                line,
                message: "expected a JSON object per line".to_owned(),
            });
        }
        let schema = value
            .get("schema")
            .and_then(Value::as_str)
            .ok_or(StreamError::MissingSchema {
                path: path.to_owned(),
                line,
            })?
            .to_owned();
        match &kind {
            None => {
                let k =
                    StreamKind::from_schema(&schema).ok_or_else(|| StreamError::UnknownSchema {
                        path: path.to_owned(),
                        line,
                        schema: schema.clone(),
                    })?;
                kind = Some((k, schema));
            }
            Some((_, expected)) if *expected != schema => {
                return Err(StreamError::MixedSchema {
                    path: path.to_owned(),
                    line,
                    expected: expected.clone(),
                    found: schema,
                });
            }
            Some(_) => {}
        }
        let seq = value
            .get("seq")
            .and_then(Value::as_u64)
            .ok_or(StreamError::MissingSeq {
                path: path.to_owned(),
                line,
            })?;
        if let Some(prev) = prev_seq {
            if seq <= prev {
                return Err(StreamError::NonMonotoneSeq {
                    path: path.to_owned(),
                    line,
                    prev,
                    found: seq,
                });
            }
        }
        prev_seq = Some(seq);
        rows.push(value);
    }
    let (kind, _) = kind.ok_or(StreamError::Empty {
        path: path.to_owned(),
    })?;
    Ok(JsonlStream {
        path: path.to_owned(),
        kind,
        rows,
    })
}

/// Parses many `(path, text)` documents, failing on the first invalid
/// one.
pub fn read_streams(inputs: &[(String, String)]) -> Result<Vec<JsonlStream>, StreamError> {
    inputs
        .iter()
        .map(|(path, text)| parse_stream(path, text))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(schema: &str, seq: u64) -> String {
        format!(r#"{{"schema":"{schema}","seq":{seq},"x":1}}"#)
    }

    #[test]
    fn detects_kind_and_keeps_rows() {
        let text = format!(
            "{}\n{}\n",
            row("podium.sim-trace/1", 0),
            row("podium.sim-trace/1", 1)
        );
        let s = parse_stream("t.jsonl", &text).unwrap();
        assert_eq!(s.kind, StreamKind::SimTrace);
        assert_eq!(s.rows.len(), 2);
    }

    #[test]
    fn rejects_mixed_versions_with_typed_error() {
        let text = format!(
            "{}\n{}\n",
            row("podium.sim-requests/1", 0),
            row("podium.sim-requests/2", 1)
        );
        let err = parse_stream("r.jsonl", &text).unwrap_err();
        match &err {
            StreamError::MixedSchema {
                line,
                expected,
                found,
                ..
            } => {
                assert_eq!(*line, 2);
                assert_eq!(expected, "podium.sim-requests/1");
                assert_eq!(found, "podium.sim-requests/2");
            }
            other => panic!("expected MixedSchema, got {other:?}"),
        }
        assert!(err.to_string().contains("mixed stream versions"));
    }

    #[test]
    fn rejects_unknown_schema_naming_known_ones() {
        let err = parse_stream("x.jsonl", &row("podium.mystery/7", 0)).unwrap_err();
        assert!(matches!(err, StreamError::UnknownSchema { .. }));
        assert!(err.to_string().contains("podium.sim-requests/1"), "{err}");
    }

    #[test]
    fn rejects_missing_schema_and_seq() {
        let err = parse_stream("x.jsonl", r#"{"seq":0}"#).unwrap_err();
        assert!(matches!(err, StreamError::MissingSchema { line: 1, .. }));
        let err = parse_stream("x.jsonl", r#"{"schema":"podium.lint/1","rule":"r"}"#).unwrap_err();
        assert!(matches!(err, StreamError::MissingSeq { line: 1, .. }));
    }

    #[test]
    fn rejects_seq_regression() {
        let text = format!(
            "{}\n{}\n{}\n",
            row("podium.lint/1", 0),
            row("podium.lint/1", 1),
            row("podium.lint/1", 1)
        );
        let err = parse_stream("l.jsonl", &text).unwrap_err();
        match err {
            StreamError::NonMonotoneSeq {
                line, prev, found, ..
            } => {
                assert_eq!((line, prev, found), (3, 1, 1));
            }
            other => panic!("expected NonMonotoneSeq, got {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage_and_empty() {
        let err = parse_stream("g.jsonl", "not json\n").unwrap_err();
        assert!(matches!(err, StreamError::Parse { line: 1, .. }));
        let err = parse_stream("e.jsonl", "\n\n").unwrap_err();
        assert!(matches!(err, StreamError::Empty { .. }));
        let err = parse_stream("a.jsonl", "[1,2]\n").unwrap_err();
        assert!(matches!(err, StreamError::Parse { .. }));
    }

    #[test]
    fn seq_gaps_are_fine_only_regressions_reject() {
        // Appended or filtered logs may skip numbers; seq may jump but
        // not regress.
        let text = format!(
            "{}\n{}\n",
            row("podium.experiment-status/1", 3),
            row("podium.experiment-status/1", 10)
        );
        assert!(parse_stream("s.jsonl", &text).is_ok());
    }
}
