//! Pass 7 — determinism hygiene.
//!
//! The engine, the sim generator, the chaos schedule, and WAL replay
//! promise bit-identical behavior per seed. Modules carrying that
//! promise are declared in a `podium-lint.deterministic` manifest at
//! the workspace root (one `<path-prefix> <note>` pair per line, `#`
//! comments); inside them, non-test code must not:
//!
//! * iterate a `HashMap`/`HashSet` (`.iter()`, `.keys()`, `.drain()`,
//!   `for … in &map`, …) — iteration order varies per process;
//! * read wall clocks (`Instant::now()`, `SystemTime::now()`);
//! * branch on `thread::current().id()`;
//! * run unordered parallel reductions (any `.par_*(…)` call).
//!
//! Membership-only `HashMap`/`HashSet` use (`insert`, `get`,
//! `contains`, `remove`, `len`) is fine and not flagged. Collection
//! iteration resolves receivers through the workspace item index
//! (bindings, params, `self.field` chains); an unresolvable receiver
//! is not flagged — like pass 6, this pass under-approximates.

use crate::index::{
    chain_ending_at, outer_segment, peel, resolve_chain, Bindings, Resolved, Seg, WorkspaceIndex,
};
use crate::items::Item;
use crate::scan::FileScan;
use crate::{Rule, Violation};

/// Order-dependent methods on hash collections.
const ITER_METHODS: &[&[u8]] = &[
    b"iter",
    b"iter_mut",
    b"keys",
    b"values",
    b"values_mut",
    b"into_iter",
    b"drain",
    b"retain",
    b"into_keys",
    b"into_values",
];

/// One manifest entry: workspace-relative path prefix and the note
/// explaining which guarantee the module carries.
pub type ManifestEntry = (String, String);

/// Parses the `podium-lint.deterministic` manifest: one
/// `<path-prefix> <note…>` per line, `#`-comments and blanks skipped.
pub fn parse_manifest(text: &str) -> Vec<ManifestEntry> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match line.split_once(char::is_whitespace) {
            Some((prefix, note)) => out.push((prefix.to_owned(), note.trim().to_owned())),
            None => out.push((line.to_owned(), String::new())),
        }
    }
    out
}

/// The note of the first entry whose prefix matches `file`, if any.
pub fn manifest_note<'a>(entries: &'a [ManifestEntry], file: &str) -> Option<&'a str> {
    entries
        .iter()
        .find(|(prefix, _)| file.starts_with(prefix.as_str()))
        .map(|(_, note)| note.as_str())
}

/// Runs the pass over one declared-deterministic file.
pub fn run(
    scan: &FileScan<'_>,
    file: &str,
    index: &WorkspaceIndex,
    items: &[Item],
    note: &str,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let ctx = if note.is_empty() {
        String::new()
    } else {
        format!(" ({note})")
    };

    // Context-free token patterns.
    for si in 0..scan.sig.len() {
        if scan.in_test_region(si) {
            continue;
        }
        if (scan.is_ident(si, b"Instant") || scan.is_ident(si, b"SystemTime"))
            && scan.is_punct(si + 1, b':')
            && scan.is_punct(si + 2, b':')
            && scan.is_ident(si + 3, b"now")
            && scan.is_punct(si + 4, b'(')
        {
            let (line, col) = scan.pos(si);
            out.push(Violation::new(
                file,
                line,
                col,
                Rule::DeterminismHygiene,
                format!(
                    "`{}::now()` reads the wall clock in a deterministic module{ctx}",
                    String::from_utf8_lossy(scan.text(si)),
                ),
            ));
        }
        if scan.is_ident(si, b"thread")
            && scan.is_punct(si + 1, b':')
            && scan.is_punct(si + 2, b':')
            && scan.is_ident(si + 3, b"current")
            && scan.is_punct(si + 4, b'(')
            && scan.is_punct(si + 5, b')')
            && scan.is_punct(si + 6, b'.')
            && scan.is_ident(si + 7, b"id")
        {
            let (line, col) = scan.pos(si);
            out.push(Violation::new(
                file,
                line,
                col,
                Rule::DeterminismHygiene,
                format!("`thread::current().id()` in a deterministic module{ctx}"),
            ));
        }
        if scan.is_punct(si, b'.')
            && scan.is_any_ident(si + 1)
            && scan.text(si + 1).starts_with(b"par_")
            && scan.is_punct(si + 2, b'(')
        {
            let (line, col) = scan.pos(si + 1);
            out.push(Violation::new(
                file,
                line,
                col,
                Rule::DeterminismHygiene,
                format!(
                    "unordered parallel reduction `.{}(…)` in a deterministic module{ctx} — use an ordered collect/reduce",
                    String::from_utf8_lossy(scan.text(si + 1)),
                ),
            ));
        }
    }

    // Hash-collection iteration, resolved per function body.
    crate::index::for_each_fn_body(
        scan,
        index,
        items,
        &mut |item, _sig, self_type, bindings, open, close| {
            if scan.in_test_region(item.span.0) {
                return;
            }
            check_iteration(
                scan, file, index, self_type, bindings, open, close, &ctx, &mut out,
            );
        },
    );
    out.sort_by_key(|v| (v.line, v.col));
    out
}

/// Whether a (peeled) type text names a hash collection.
fn is_hash_collection(ty: &str) -> bool {
    matches!(outer_segment(peel(ty)), "HashMap" | "HashSet")
}

/// Resolves a call-free receiver chain to its type text.
fn receiver_type(
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    segs: &[Seg],
) -> Option<String> {
    match segs {
        [] => None,
        [only] if !only.call => {
            if only.name == "self" {
                return None;
            }
            bindings.get(&only.name).cloned()
        }
        _ => match resolve_chain(index, self_type, bindings, segs) {
            Resolved::Type(ty) => Some(ty),
            _ => None,
        },
    }
}

/// Flags `.iter()`-family calls and `for … in` loops whose receiver
/// resolves to a `HashMap`/`HashSet`.
#[allow(clippy::too_many_arguments)]
fn check_iteration(
    scan: &FileScan<'_>,
    file: &str,
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    open: usize,
    close: usize,
    ctx: &str,
    out: &mut Vec<Violation>,
) {
    let mut si = open;
    while si < close {
        // `.iter()` family on a resolvable receiver.
        if scan.is_punct(si, b'.')
            && ITER_METHODS.contains(&scan.text(si + 1))
            && scan.is_punct(si + 2, b'(')
        {
            if let Some(segs) = chain_ending_at(scan, si + 2) {
                let recv = segs.get(..segs.len().saturating_sub(1)).unwrap_or(&[]);
                if let Some(ty) = receiver_type(index, self_type, bindings, recv) {
                    if is_hash_collection(&ty) {
                        let (line, col) = scan.pos(si + 1);
                        out.push(Violation::new(
                            file,
                            line,
                            col,
                            Rule::DeterminismHygiene,
                            format!(
                                "`.{}()` iterates a `{}` in a deterministic module{ctx} — use BTreeMap/BTreeSet or sort first",
                                String::from_utf8_lossy(scan.text(si + 1)),
                                outer_segment(peel(&ty)),
                            ),
                        ));
                    }
                }
            }
        }
        // `for pat in [&[mut]] chain {`.
        if scan.is_ident(si, b"for") {
            if let Some((recv_from, recv_to)) = for_loop_receiver(scan, si, close) {
                if let Some(segs) = chain_of_range(scan, recv_from, recv_to) {
                    if let Some(ty) = receiver_type(index, self_type, bindings, &segs) {
                        if is_hash_collection(&ty) {
                            let (line, col) = scan.pos(si);
                            out.push(Violation::new(
                                file,
                                line,
                                col,
                                Rule::DeterminismHygiene,
                                format!(
                                    "`for … in` iterates a `{}` in a deterministic module{ctx} — use BTreeMap/BTreeSet or sort first",
                                    outer_segment(peel(&ty)),
                                ),
                            ));
                        }
                    }
                }
            }
        }
        si += 1;
    }
}

/// For the `for` keyword at `si`, locates the iterated expression:
/// the tokens between the depth-zero `in` and the loop's `{`, with
/// leading `&`/`mut` stripped. `None` when the shape is not a plain
/// `for`-loop header.
fn for_loop_receiver(scan: &FileScan<'_>, si: usize, close: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    let mut at = si + 1;
    let mut in_at = None;
    while at < close {
        let text = scan.text(at);
        match text {
            b"(" | b"[" | b"<" => depth += 1,
            b")" | b"]" | b">" => depth = depth.saturating_sub(1),
            b"in" if depth == 0 => {
                in_at = Some(at);
                break;
            }
            b"{" | b";" => return None,
            _ => {}
        }
        at += 1;
    }
    let mut from = in_at? + 1;
    while scan.is_punct(from, b'&') || scan.is_ident(from, b"mut") {
        from += 1;
    }
    let mut to = from;
    while to < close && !scan.is_punct(to, b'{') {
        to += 1;
    }
    (to > from && to < close).then_some((from, to))
}

/// Builds a call-free segment chain from `ident (. ident)*` tokens in
/// `[from, to)`; `None` when the range holds anything else.
fn chain_of_range(scan: &FileScan<'_>, from: usize, to: usize) -> Option<Vec<Seg>> {
    let mut segs = Vec::new();
    let mut si = from;
    while si < to {
        if !scan.is_any_ident(si) {
            return None;
        }
        segs.push(Seg {
            name: String::from_utf8_lossy(scan.text(si)).into_owned(),
            call: false,
            path_sep: false,
        });
        si += 1;
        if si == to {
            break;
        }
        if !scan.is_punct(si, b'.') {
            return None;
        }
        si += 1;
    }
    (!segs.is_empty()).then_some(segs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn run_on(src: &str) -> Vec<(u32, String)> {
        let scan = FileScan::new(src.as_bytes());
        let items = parse_items(&scan);
        let mut index = WorkspaceIndex::default();
        index.add_file(&items);
        run(&scan, "t.rs", &index, &items, "engine determinism")
            .into_iter()
            .map(|v| (v.line, v.message))
            .collect()
    }

    #[test]
    fn manifest_parses_prefix_and_note() {
        let entries = parse_manifest(
            "# comment\n\ncrates/podium-core/src/engine/ selection is bit-identical per seed\nsrc/solo\n",
        );
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "crates/podium-core/src/engine/");
        assert!(entries[0].1.contains("bit-identical"));
        assert_eq!(entries[1], ("src/solo".to_owned(), String::new()));
        assert_eq!(
            manifest_note(&entries, "crates/podium-core/src/engine/algorithm1.rs"),
            Some("selection is bit-identical per seed")
        );
        assert_eq!(
            manifest_note(&entries, "crates/podium-sim/src/rng.rs"),
            None
        );
    }

    #[test]
    fn wall_clocks_and_thread_id_are_flagged() {
        let vs = run_on(
            "fn f() {\n let t = Instant::now();\n let s = SystemTime::now();\n let id = thread::current().id();\n}",
        );
        assert_eq!(vs.iter().map(|v| v.0).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert!(vs[0].1.contains("Instant::now"));
        assert!(vs[2].1.contains("thread::current"));
    }

    #[test]
    fn par_reduction_is_flagged() {
        let vs = run_on("fn f(xs: &[u8]) -> u64 {\n xs.par_iter().map(score).sum()\n}");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].0, 2);
        assert!(vs[0].1.contains("par_iter"));
    }

    #[test]
    fn hashmap_iteration_is_flagged_membership_is_not() {
        let vs = run_on(
            "struct S { index: HashMap<u32, u32> }\nimpl S {\n fn f(&self, m: &HashMap<u32, u32>) {\n let _ = m.get(&1);\n for (k, v) in &self.index { use_it(k, v); }\n let ks: Vec<_> = m.keys().collect();\n }\n}",
        );
        assert_eq!(
            vs.iter().map(|v| v.0).collect::<Vec<_>>(),
            vec![5, 6],
            "{vs:?}"
        );
        assert!(vs[0].1.contains("for … in"));
        assert!(vs[1].1.contains(".keys()"));
    }

    #[test]
    fn local_hashmap_binding_is_tracked() {
        let vs = run_on(
            "fn f() {\n let mut m = HashMap::new();\n m.insert(1, 2);\n for k in m.keys() { go(k); }\n}",
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].0, 4);
    }

    #[test]
    fn btreemap_and_unknown_receivers_are_clean() {
        let vs = run_on(
            "fn f(b: &BTreeMap<u32, u32>) {\n for (k, v) in b { go(k, v); }\n let _ = b.iter();\n let _ = mystery.keys();\n}",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn test_regions_are_exempt() {
        let vs = run_on(
            "#[cfg(test)]\nmod tests {\n fn t(m: &HashMap<u8, u8>) { for k in m.keys() { go(k); } let t = Instant::now(); }\n}",
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}
