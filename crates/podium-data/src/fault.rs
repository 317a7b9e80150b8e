//! Deterministic, seeded corruption injection for ingestion robustness
//! tests.
//!
//! A [`FaultInjector`] takes a *clean* profile document (the JSON
//! interchange format of [`crate::json`] or the unquoted CSV dialect
//! produced by [`crate::csv::profiles_to_csv`]) and applies a list of
//! [`FaultKind`]s, each defecting **exactly one distinct record**. That
//! contract is what makes quarantine accounting testable: a corpus
//! corrupted with `k` faults must load under
//! [`crate::load::LoadOptions::Lenient`] with exactly `k` quarantine
//! entries, and must be rejected under
//! [`crate::load::LoadOptions::Strict`] with record provenance.
//!
//! The first record is never targeted — it stays pristine as the donor
//! name for [`FaultKind::DuplicateUser`] (guaranteeing the duplicate
//! actually collides with an *accepted* record) and keeps every corrupted
//! corpus partially loadable. [`FaultKind::TruncateDocument`] always cuts
//! inside the final record, so the damage it does is also confined to one
//! record.
//!
//! All randomness comes from the workspace's seeded stream
//! ([`podium_core::rng::Rng`]), seeded at construction: the same seed,
//! document, and fault list always produce byte-identical corruption.

use podium_core::rng::Rng;

/// One class of corruption the injector can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cut the document short inside its final record.
    TruncateDocument,
    /// Splice non-JSON/non-numeric garbage bytes into one record.
    GarbageBytes,
    /// Replace one score with a `NaN` token.
    NanScore,
    /// Replace one score with a value far outside `[0, 1]`.
    OutOfRangeScore,
    /// Rename one record to collide with the first record's name.
    DuplicateUser,
    /// Remove/mangle the record's required `name` field.
    MissingField,
}

impl FaultKind {
    /// Every fault kind.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::TruncateDocument,
        FaultKind::GarbageBytes,
        FaultKind::NanScore,
        FaultKind::OutOfRangeScore,
        FaultKind::DuplicateUser,
        FaultKind::MissingField,
    ];
}

/// Seeded corruption source. See the module docs for the one-fault /
/// one-record contract.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: Rng,
}

impl FaultInjector {
    /// A new injector; identical seeds replay identical corruption.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: Rng::new(seed ^ 0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Corrupts a clean JSON profile document with `faults`, one distinct
    /// record per fault. Returns `None` when the document cannot honor the
    /// contract: fewer than `faults.len() + 1` records (the first record
    /// is never targeted), more than one [`FaultKind::TruncateDocument`],
    /// or a score-fault target without any numeric score to corrupt.
    pub fn corrupt_json(&mut self, clean: &str, faults: &[FaultKind]) -> Option<String> {
        let scan = crate::json::scan_user_records(clean).ok()?;
        if scan.trailing.is_some() {
            return None; // not a clean document
        }
        let records = scan.records;
        let n = records.len();
        let truncates = faults
            .iter()
            .filter(|f| **f == FaultKind::TruncateDocument)
            .count();
        if truncates > 1 || faults.len() + 1 > n {
            return None;
        }
        // Targets: truncation owns the last record; everything else draws
        // from records 1..(n-1 if truncating else n), all distinct.
        let others: Vec<FaultKind> = faults
            .iter()
            .copied()
            .filter(|f| *f != FaultKind::TruncateDocument)
            .collect();
        let upper = if truncates == 1 { n - 1 } else { n };
        // The length checks above leave at least `others.len()` records.
        let mut targets: Vec<usize> = (1..upper).collect();
        self.rng.shuffle_prefix(&mut targets, others.len());

        // Truncation goes first (while the last record's clean-text span is
        // still valid), then record-local edits from the highest span
        // downward so earlier offsets stay valid. Every other target lies
        // strictly before the truncated record, so the cut never disturbs
        // their spans.
        let mut edits: Vec<(usize, FaultKind)> = others
            .into_iter()
            .zip(targets)
            .map(|(f, t)| (t, f))
            .collect();
        edits.sort_by_key(|&(t, _)| std::cmp::Reverse(t));
        let donor_name = json_name_value(&clean[records[0].start..records[0].end])?;
        let mut text = clean.to_owned();
        if truncates == 1 {
            let span = records[n - 1];
            // Any proper prefix of a balanced object is unbalanced, so any
            // cut strictly inside the span truncates exactly this record.
            let mut cut = span.start + 1 + self.rng.below(span.end - span.start - 1);
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text.truncate(cut.max(span.start + 1));
        }
        for (t, fault) in edits {
            let span = records[t];
            let local = text[span.start..span.end].to_owned();
            let patched = match fault {
                FaultKind::NanScore => replace_first_score(&local, "NaN")?,
                FaultKind::OutOfRangeScore => replace_first_score(&local, "42.5")?,
                FaultKind::DuplicateUser => replace_name_value(&local, &donor_name)?,
                FaultKind::MissingField => mangle_name_key(&local)?,
                FaultKind::GarbageBytes => {
                    let garbage: String = (0..1 + self.rng.below(8))
                        .map(|_| {
                            const SAFE: &[u8] = b"@#$%^&*;~";
                            SAFE[self.rng.below(SAFE.len())] as char
                        })
                        .collect();
                    let mut s = local.clone();
                    // Right after the opening `{`: stays brace-balanced so
                    // only this record is lost, but is no longer JSON.
                    s.insert_str(1, &garbage);
                    s
                }
                // podium-lint: allow(unreachable) — TruncateDocument is handled by the document-level branch, never per-record
                FaultKind::TruncateDocument => unreachable!("handled below"),
            };
            text.replace_range(span.start..span.end, &patched);
        }
        Some(text)
    }

    /// Corrupts a clean CSV profile document (the unquoted dialect written
    /// by [`crate::csv::profiles_to_csv`]) with `faults`, one distinct row
    /// per fault. Same contract and `None` conditions as
    /// [`FaultInjector::corrupt_json`].
    pub fn corrupt_csv(&mut self, clean: &str, faults: &[FaultKind]) -> Option<String> {
        let mut lines: Vec<String> = clean.lines().map(str::to_owned).collect();
        if lines.len() < 2 {
            return None;
        }
        let rows = lines.len() - 1; // minus header
        let truncates = faults
            .iter()
            .filter(|f| **f == FaultKind::TruncateDocument)
            .count();
        if truncates > 1 || faults.len() + 1 > rows {
            return None;
        }
        let others: Vec<FaultKind> = faults
            .iter()
            .copied()
            .filter(|f| *f != FaultKind::TruncateDocument)
            .collect();
        let upper = if truncates == 1 { rows - 1 } else { rows };
        // The length checks above leave at least `others.len()` rows.
        let mut targets: Vec<usize> = (1..upper).collect();
        self.rng.shuffle_prefix(&mut targets, others.len());
        let donor_name = lines[1].split(',').next()?.to_owned();
        for (fault, t) in others.into_iter().zip(targets) {
            let row = &lines[1 + t];
            let mut fields: Vec<String> = row.split(',').map(str::to_owned).collect();
            match fault {
                FaultKind::NanScore | FaultKind::OutOfRangeScore | FaultKind::GarbageBytes => {
                    let col = fields
                        .iter()
                        .enumerate()
                        .skip(1)
                        .find(|(_, c)| !c.trim().is_empty())
                        .map(|(i, _)| i)?;
                    fields[col] = match fault {
                        FaultKind::NanScore => "NaN".into(),
                        FaultKind::OutOfRangeScore => "7.7".into(),
                        _ => format!("{}@#$", fields[col]),
                    };
                }
                FaultKind::DuplicateUser => fields[0] = donor_name.clone(),
                FaultKind::MissingField => {
                    fields.pop();
                    if fields.is_empty() {
                        return None;
                    }
                }
                // podium-lint: allow(unreachable) — TruncateDocument is handled by the document-level branch, never per-record
                FaultKind::TruncateDocument => unreachable!("handled below"),
            }
            lines[1 + t] = fields.join(",");
        }
        if truncates == 1 {
            let last = lines.len() - 1;
            // Cut at the row's last comma: the row loses a field and
            // becomes ragged no matter how many columns it has.
            let cut = lines[last].rfind(',')?;
            lines[last].truncate(cut);
        }
        Some(lines.join("\n") + "\n")
    }
}

/// One class of corruption for the *structured* JSON documents (taxonomy
/// and inference rules), applied by [`FaultInjector::corrupt_taxonomy`]
/// and [`FaultInjector::corrupt_rules`]. Same one-fault / one-record
/// contract as [`FaultKind`]: the corrupted document stays valid JSON and
/// each fault defects exactly one record, so `k` faults quarantine
/// exactly `k` records under Lenient and fail Strict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructuredFault {
    /// Remove/mangle a required field (`name` for taxonomy records,
    /// `premise`/`prefix` for rules).
    MissingField,
    /// Rename one taxonomy category to collide with the first record's
    /// name. Taxonomy only.
    DuplicateName,
    /// Point one category's `parent` at a name defined nowhere. Taxonomy
    /// only.
    UnknownReference,
    /// Close a cycle: a category becomes its own parent; an implication's
    /// conclusion becomes its premise.
    CycleEdge,
    /// Set an implication's `threshold` far outside `[0, 1]`. Rules only.
    BadThreshold,
    /// Set a rule's `type` to an unknown discriminator. Rules only.
    WrongType,
}

impl StructuredFault {
    /// Faults applicable to taxonomy documents.
    pub const TAXONOMY: [StructuredFault; 4] = [
        StructuredFault::MissingField,
        StructuredFault::DuplicateName,
        StructuredFault::UnknownReference,
        StructuredFault::CycleEdge,
    ];
    /// Faults applicable to inference-rule documents.
    pub const RULES: [StructuredFault; 4] = [
        StructuredFault::MissingField,
        StructuredFault::BadThreshold,
        StructuredFault::WrongType,
        StructuredFault::CycleEdge,
    ];
}

use serde::value::Value;

/// Returns the string value of `key` in an object record.
fn obj_str(rec: &Value, key: &str) -> Option<String> {
    rec.get(key).and_then(Value::as_str).map(str::to_owned)
}

/// Sets (or inserts) `key` in an object record.
fn obj_set(rec: &mut Value, key: &str, value: Value) -> Option<()> {
    let Value::Object(pairs) = rec else {
        return None;
    };
    match pairs.iter_mut().find(|(k, _)| k == key) {
        Some((_, v)) => *v = value,
        None => pairs.push((key.to_owned(), value)),
    }
    Some(())
}

/// Renames `key` in an object record (making the original field missing).
fn obj_rename_key(rec: &mut Value, key: &str, to: &str) -> Option<()> {
    let Value::Object(pairs) = rec else {
        return None;
    };
    let (k, _) = pairs.iter_mut().find(|(k, _)| k == key)?;
    *k = to.to_owned();
    Some(())
}

/// Removes `key` from an object record.
fn obj_remove(rec: &mut Value, key: &str) -> Option<()> {
    let Value::Object(pairs) = rec else {
        return None;
    };
    let at = pairs.iter().position(|(k, _)| k == key)?;
    pairs.remove(at);
    Some(())
}

impl FaultInjector {
    /// Corrupts a clean taxonomy JSON document (the format of
    /// [`crate::taxonomy::taxonomy_from_json`]) with `faults`, one
    /// distinct record per fault.
    ///
    /// Targets are restricted to records no other record references as a
    /// parent — defecting a referenced category would cascade-quarantine
    /// its whole subtree and break the `k` faults / `k` quarantines
    /// contract. The first record is never targeted (it donates its name
    /// for [`StructuredFault::DuplicateName`]). Returns `None` when the
    /// document cannot honor the contract: a fault not in
    /// [`StructuredFault::TAXONOMY`], or fewer unreferenced non-first
    /// records than faults.
    pub fn corrupt_taxonomy(&mut self, clean: &str, faults: &[StructuredFault]) -> Option<String> {
        if faults
            .iter()
            .any(|f| !StructuredFault::TAXONOMY.contains(f))
        {
            return None;
        }
        let mut doc: Value = serde_json::from_str(clean).ok()?;
        let records_ro = doc.get("categories")?.as_array()?;
        let names: Vec<String> = records_ro
            .iter()
            .map(|r| obj_str(r, "name"))
            .collect::<Option<_>>()?;
        let referenced: Vec<String> = records_ro
            .iter()
            .filter_map(|r| obj_str(r, "parent"))
            .collect();
        let donor = names.first()?.clone();
        // A parent name no record defines; lengthen until it cannot clash.
        let mut missing = "__missing_parent__".to_owned();
        while names.contains(&missing) {
            missing.push('_');
        }
        let mut targets: Vec<usize> = (1..names.len())
            .filter(|&i| !referenced.contains(&names[i]))
            .collect();
        if targets.len() < faults.len() {
            return None;
        }
        self.rng.shuffle_prefix(&mut targets, faults.len());

        let Value::Object(top) = &mut doc else {
            return None;
        };
        let (_, Value::Array(records)) = top.iter_mut().find(|(k, _)| k == "categories")? else {
            return None;
        };
        for (&fault, &t) in faults.iter().zip(&targets) {
            let own_name = names[t].clone();
            let rec = &mut records[t];
            match fault {
                StructuredFault::MissingField => obj_rename_key(rec, "name", "xame")?,
                StructuredFault::DuplicateName => {
                    obj_set(rec, "name", Value::String(donor.clone()))?
                }
                StructuredFault::UnknownReference => {
                    obj_set(rec, "parent", Value::String(missing.clone()))?
                }
                StructuredFault::CycleEdge => obj_set(rec, "parent", Value::String(own_name))?,
                // podium-lint: allow(unreachable) — the applicable-fault filter above admits only the matched kinds
                _ => unreachable!("filtered above"),
            }
        }
        serde_json::to_string_pretty(&doc).ok()
    }

    /// Corrupts a clean inference-rules JSON document (the format of
    /// [`crate::inference::rules_from_json`]) with `faults`, one distinct
    /// record per fault.
    ///
    /// Rules do not cascade (rejecting one rule never invalidates
    /// another in a cycle-free document), so any record but the first is
    /// a candidate; [`StructuredFault::BadThreshold`] and
    /// [`StructuredFault::CycleEdge`] additionally need an `implies`
    /// record. Constrained faults pick their targets first. Returns
    /// `None` when a fault is not in [`StructuredFault::RULES`] or not
    /// enough compatible records exist.
    pub fn corrupt_rules(&mut self, clean: &str, faults: &[StructuredFault]) -> Option<String> {
        if faults.iter().any(|f| !StructuredFault::RULES.contains(f)) {
            return None;
        }
        let mut doc: Value = serde_json::from_str(clean).ok()?;
        let records_ro = doc.get("rules")?.as_array()?;
        let kinds: Vec<String> = records_ro
            .iter()
            .map(|r| obj_str(r, "type"))
            .collect::<Option<_>>()?;
        if faults.len() + 1 > kinds.len() {
            return None;
        }
        // Assign implies-only faults first so unconstrained ones cannot
        // starve them of targets.
        let mut order: Vec<StructuredFault> = faults.to_vec();
        order.sort_by_key(|f| {
            !matches!(
                f,
                StructuredFault::BadThreshold | StructuredFault::CycleEdge
            )
        });
        let mut free: Vec<usize> = (1..kinds.len()).collect();
        let mut assignment: Vec<(usize, StructuredFault)> = Vec::with_capacity(order.len());
        for fault in order {
            let eligible: Vec<usize> = free
                .iter()
                .copied()
                .filter(|&i| {
                    !matches!(
                        fault,
                        StructuredFault::BadThreshold | StructuredFault::CycleEdge
                    ) || kinds[i] == "implies"
                })
                .collect();
            if eligible.is_empty() {
                return None;
            }
            let t = eligible[self.rng.below(eligible.len())];
            free.retain(|&i| i != t);
            assignment.push((t, fault));
        }

        let Value::Object(top) = &mut doc else {
            return None;
        };
        let (_, Value::Array(records)) = top.iter_mut().find(|(k, _)| k == "rules")? else {
            return None;
        };
        for (t, fault) in assignment {
            let rec = &mut records[t];
            match fault {
                StructuredFault::MissingField => {
                    let key = if kinds[t] == "implies" {
                        "premise"
                    } else {
                        "prefix"
                    };
                    obj_remove(rec, key)?
                }
                StructuredFault::BadThreshold => obj_set(
                    rec,
                    "threshold",
                    Value::Number(serde::value::Number::Float(42.5)),
                )?,
                StructuredFault::WrongType => {
                    obj_set(rec, "type", Value::String("frobnicate".to_owned()))?
                }
                StructuredFault::CycleEdge => {
                    let premise = obj_str(rec, "premise")?;
                    obj_set(rec, "conclusion", Value::String(premise))?
                }
                // podium-lint: allow(unreachable) — the applicable-fault filter above admits only the matched kinds
                _ => unreachable!("filtered above"),
            }
        }
        serde_json::to_string_pretty(&doc).ok()
    }
}

/// Extracts the value of the `"name"` field from a clean JSON record.
fn json_name_value(record: &str) -> Option<String> {
    let (_, key_end) = find_string_token(record, "name")?;
    let rest = &record[key_end + 1..]; // past the key's closing quote
    let open = rest.find('"')?;
    let close = rest[open + 1..].find('"')?;
    Some(rest[open + 1..open + 1 + close].to_owned())
}

/// Replaces the value of the `"name"` field with `new_name`.
fn replace_name_value(record: &str, new_name: &str) -> Option<String> {
    let (_, key_end) = find_string_token(record, "name")?;
    let rest = &record[key_end + 1..]; // past the key's closing quote
    let open = key_end + 1 + rest.find('"')? + 1;
    let close = open + record[open..].find('"')?;
    let mut out = record.to_owned();
    out.replace_range(open..close, new_name);
    Some(out)
}

/// Mangles the `"name"` key so the required field is missing.
fn mangle_name_key(record: &str) -> Option<String> {
    let (start, _) = find_string_token(record, "name")?;
    let mut out = record.to_owned();
    out.replace_range(start..start + 4, "xame");
    Some(out)
}

/// Finds the content span `(start, end)` of the first JSON string token
/// equal to `content`, scanning string-aware (escapes honored).
fn find_string_token(text: &str, content: &str) -> Option<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let start = i + 1;
            let mut j = start;
            let mut escaped = false;
            while j < bytes.len() {
                match bytes[j] {
                    _ if escaped => escaped = false,
                    b'\\' => escaped = true,
                    b'"' => break,
                    _ => {}
                }
                j += 1;
            }
            if j >= bytes.len() {
                return None;
            }
            if &text[start..j] == content {
                return Some((start, j));
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    None
}

/// Replaces the first number that appears after the `"properties"` key
/// (outside strings) with `replacement`.
fn replace_first_score(record: &str, replacement: &str) -> Option<String> {
    let (_, props_end) = find_string_token(record, "properties")?;
    let bytes = record.as_bytes();
    let mut i = props_end + 1; // past the key's closing quote
    let mut in_string = false;
    let mut escaped = false;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_string = false,
                _ => {}
            }
        } else if b == b'"' {
            in_string = true;
        } else if b.is_ascii_digit() || b == b'-' {
            let start = i;
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
            let mut out = record.to_owned();
            out.replace_range(start..i, replacement);
            return Some(out);
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{DataErrorKind, LoadOptions};

    fn clean_json(users: usize) -> String {
        let mut repo = podium_core::profile::UserRepository::new();
        for i in 0..users {
            let u = repo.add_user(format!("u{i}"));
            let p = repo.intern_property(format!("p{}", i % 3));
            repo.set_score(u, p, 0.25).unwrap();
        }
        crate::json::profiles_to_json(&repo).unwrap()
    }

    #[test]
    fn injection_is_deterministic() {
        let doc = clean_json(6);
        let faults = [FaultKind::NanScore, FaultKind::DuplicateUser];
        let a = FaultInjector::new(7).corrupt_json(&doc, &faults).unwrap();
        let b = FaultInjector::new(7).corrupt_json(&doc, &faults).unwrap();
        let c = FaultInjector::new(8).corrupt_json(&doc, &faults).unwrap();
        assert_eq!(a, b, "same seed, same corruption");
        assert_ne!(a, c, "different seed, different sites");
    }

    #[test]
    fn each_json_fault_quarantines_exactly_one_record() {
        let doc = clean_json(8);
        for fault in FaultKind::ALL {
            let corrupted = FaultInjector::new(3)
                .corrupt_json(&doc, &[fault])
                .unwrap_or_else(|| panic!("{fault:?} not applicable"));
            let (repo, report) =
                crate::json::profiles_from_json_opts(&corrupted, LoadOptions::Lenient)
                    .unwrap_or_else(|e| panic!("{fault:?}: lenient load failed: {e}"));
            assert_eq!(report.quarantined_count(), 1, "{fault:?}");
            assert_eq!(report.accepted, 7, "{fault:?}");
            assert_eq!(repo.user_count(), 7, "{fault:?}");
            assert!(
                crate::json::profiles_from_json_opts(&corrupted, LoadOptions::Strict).is_err(),
                "{fault:?} must fail strict"
            );
        }
    }

    #[test]
    fn each_csv_fault_quarantines_exactly_one_row() {
        let mut repo = podium_core::profile::UserRepository::new();
        for i in 0..8 {
            let u = repo.add_user(format!("u{i}"));
            let p = repo.intern_property("p0");
            repo.set_score(u, p, 0.5).unwrap();
        }
        let doc = crate::csv::profiles_to_csv(&repo);
        for fault in FaultKind::ALL {
            let corrupted = FaultInjector::new(11)
                .corrupt_csv(&doc, &[fault])
                .unwrap_or_else(|| panic!("{fault:?} not applicable"));
            let (_, report) = crate::csv::profiles_from_csv_opts(&corrupted, LoadOptions::Lenient)
                .unwrap_or_else(|e| panic!("{fault:?}: lenient load failed: {e}"));
            assert_eq!(report.quarantined_count(), 1, "{fault:?}\n{corrupted}");
            assert_eq!(report.accepted, 7, "{fault:?}");
            assert!(
                crate::csv::profiles_from_csv_opts(&corrupted, LoadOptions::Strict).is_err(),
                "{fault:?} must fail strict"
            );
        }
    }

    #[test]
    fn duplicate_fault_collides_with_first_record() {
        let doc = clean_json(5);
        let corrupted = FaultInjector::new(1)
            .corrupt_json(&doc, &[FaultKind::DuplicateUser])
            .unwrap();
        let (_, report) =
            crate::json::profiles_from_json_opts(&corrupted, LoadOptions::Lenient).unwrap();
        match &report.quarantined[0].error.kind {
            DataErrorKind::Duplicate { name } => assert_eq!(name, "u0"),
            other => panic!("expected Duplicate, got {other:?}"),
        }
    }

    #[test]
    fn too_few_records_refused() {
        let doc = clean_json(2);
        assert!(FaultInjector::new(0)
            .corrupt_json(&doc, &[FaultKind::NanScore, FaultKind::GarbageBytes])
            .is_none());
    }

    #[test]
    fn each_taxonomy_fault_quarantines_exactly_one_record() {
        let doc = crate::taxonomy::taxonomy_to_json(&crate::taxonomy::Taxonomy::generate(3, 3));
        for fault in StructuredFault::TAXONOMY {
            let corrupted = FaultInjector::new(5)
                .corrupt_taxonomy(&doc, &[fault])
                .unwrap_or_else(|| panic!("{fault:?} not applicable"));
            let (_, report) = crate::taxonomy::taxonomy_from_json(&corrupted, LoadOptions::Lenient)
                .unwrap_or_else(|e| panic!("{fault:?}: lenient load failed: {e}"));
            assert_eq!(report.quarantined_count(), 1, "{fault:?}\n{corrupted}");
            assert_eq!(report.accepted, 12, "{fault:?}");
            assert!(
                crate::taxonomy::taxonomy_from_json(&corrupted, LoadOptions::Strict).is_err(),
                "{fault:?} must fail strict"
            );
        }
    }

    #[test]
    fn each_rules_fault_quarantines_exactly_one_record() {
        let mut engine = crate::inference::InferenceEngine::new();
        for i in 0..6 {
            engine = engine.with_rule(crate::inference::Rule::Implies {
                premise: format!("p{i}"),
                conclusion: format!("q{i}"),
                threshold: 0.5,
            });
        }
        engine = engine.with_rule(crate::inference::Rule::Functional {
            prefix: "livesIn ".into(),
        });
        let doc = crate::inference::rules_to_json(&engine);
        for fault in StructuredFault::RULES {
            let corrupted = FaultInjector::new(5)
                .corrupt_rules(&doc, &[fault])
                .unwrap_or_else(|| panic!("{fault:?} not applicable"));
            let (_, report) = crate::inference::rules_from_json(&corrupted, LoadOptions::Lenient)
                .unwrap_or_else(|e| panic!("{fault:?}: lenient load failed: {e}"));
            assert_eq!(report.quarantined_count(), 1, "{fault:?}\n{corrupted}");
            assert_eq!(report.accepted, 6, "{fault:?}");
            assert!(
                crate::inference::rules_from_json(&corrupted, LoadOptions::Strict).is_err(),
                "{fault:?} must fail strict"
            );
        }
    }

    #[test]
    fn structured_faults_reject_wrong_document_kind() {
        let taxonomy =
            crate::taxonomy::taxonomy_to_json(&crate::taxonomy::Taxonomy::example_cuisines());
        assert!(FaultInjector::new(0)
            .corrupt_taxonomy(&taxonomy, &[StructuredFault::BadThreshold])
            .is_none());
        let rules = crate::inference::rules_to_json(
            &crate::inference::InferenceEngine::new()
                .with_rule(crate::inference::Rule::Functional { prefix: "x".into() }),
        );
        assert!(FaultInjector::new(0)
            .corrupt_rules(&rules, &[StructuredFault::DuplicateName])
            .is_none());
        // Rules doc with no implies record cannot host an implies-only fault.
        assert!(FaultInjector::new(0)
            .corrupt_rules(&rules, &[StructuredFault::CycleEdge])
            .is_none());
    }

    #[test]
    fn structured_injection_is_deterministic() {
        let doc = crate::taxonomy::taxonomy_to_json(&crate::taxonomy::Taxonomy::generate(4, 4));
        let faults = [StructuredFault::CycleEdge, StructuredFault::MissingField];
        let a = FaultInjector::new(3)
            .corrupt_taxonomy(&doc, &faults)
            .unwrap();
        let b = FaultInjector::new(3)
            .corrupt_taxonomy(&doc, &faults)
            .unwrap();
        assert_eq!(a, b);
    }
}
