//! Pass 2 — lock discipline.
//!
//! Two checks over non-test library code:
//!
//! * **poison propagation** (`lock-poison`): a zero-argument
//!   `.lock()` / `.read()` / `.write()` immediately followed by
//!   `.unwrap()` propagates lock poisoning as a panic instead of
//!   applying an explicit policy (`podium_service::poison::recover`,
//!   or a typed shutdown error).
//! * **nesting order** (`lock-order`): acquisition sites are collected
//!   per function with the receiver expression as the lock's name
//!   (`self.` stripped, so `self.shared.state` and `shared.state` are
//!   one node). While a guard is live, acquiring a different lock adds
//!   a `held → acquired` edge; a cycle in the resulting per-crate graph
//!   is a potential deadlock.
//!
//! Guard lifetimes are inferred structurally: a `let`-bound guard lives
//! to the end of its enclosing block (or an explicit `drop(binding)`);
//! a guard acquired inside a larger expression lives to the end of the
//! statement. `if let` / `match` scrutinee guards are treated as
//! statement-scoped — an under-approximation that can miss edges but
//! never invents them. The zero-argument requirement keeps
//! `io::Read::read(&mut buf)` and friends (which take arguments) out
//! of the graph.

use std::collections::BTreeMap;

use crate::scan::FileScan;
use crate::{Rule, Violation};

/// One inferred nesting edge: `held` was live when `acquired` was taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Lock already held.
    pub held: String,
    /// Lock acquired under it.
    pub acquired: String,
    /// `held` is a type-qualified node (`Conn::state`) resolved through
    /// the workspace item index; false means a textual receiver name.
    pub held_resolved: bool,
    /// Same for `acquired`.
    pub acquired_resolved: bool,
    /// Function in which the nesting occurs.
    pub function: String,
    /// File of the acquisition site.
    pub file: String,
    /// Line of the acquisition site.
    pub line: u32,
}

/// Per-file result: poison violations plus raw nesting edges (the
/// cycle check runs crate-wide over the merged edge set).
pub struct FileLocks {
    /// `lock-poison` findings.
    pub violations: Vec<Violation>,
    /// Nesting edges discovered in this file.
    pub edges: Vec<LockEdge>,
}

/// A live guard inside a function body.
struct Guard {
    lock: String,
    resolved: bool,
    binding: Option<Vec<u8>>,
    /// Brace depth at acquisition; `let`-bound guards expire when this
    /// depth closes.
    depth: usize,
    /// Statement-scoped (not `let`-bound): expires at `;`.
    temporary: bool,
}

/// Receiver-resolution context for one function body: the workspace
/// item index plus the enclosing impl's `Self` type and the local
/// bindings. With it, field-chain receivers resolve to type-qualified
/// lock nodes (`self.conn.state` → `Conn::state`) so the same lock
/// names the same node in every crate.
struct ResolveCtx<'a> {
    index: &'a crate::index::WorkspaceIndex,
    self_type: Option<&'a str>,
    bindings: &'a crate::index::Bindings,
}

/// Collects poison violations and nesting edges from one file with
/// textual receiver names only (no workspace index).
pub fn collect(scan: &FileScan<'_>, file: &str) -> FileLocks {
    let mut out = FileLocks {
        violations: Vec::new(),
        edges: Vec::new(),
    };
    let mut si = 0usize;
    while si < scan.sig.len() {
        if scan.is_ident(si, b"fn") && !scan.in_test_region(si) {
            if let Some((name, body_open, body_close)) = scan.function_at(si) {
                analyze_body(scan, file, &name, body_open, body_close, None, &mut out);
                si = body_close + 1;
                continue;
            }
        }
        si += 1;
    }
    out
}

/// Collects with receiver resolution through the workspace item index:
/// each function body is analyzed with its impl `Self` type and local
/// bindings, so field-chain lock receivers become type-qualified nodes.
pub fn collect_resolved(
    scan: &FileScan<'_>,
    file: &str,
    index: &crate::index::WorkspaceIndex,
    items: &[crate::items::Item],
) -> FileLocks {
    let mut out = FileLocks {
        violations: Vec::new(),
        edges: Vec::new(),
    };
    crate::index::for_each_fn_body(
        scan,
        index,
        items,
        &mut |item, _sig, self_type, bindings, open, close| {
            if scan.in_test_region(item.span.0) {
                return;
            }
            let ctx = ResolveCtx {
                index,
                self_type,
                bindings,
            };
            // `open` is one past the body `{`; analyze_body expects the
            // brace indices themselves.
            analyze_body(
                scan,
                file,
                &item.name,
                open.saturating_sub(1),
                close,
                Some(&ctx),
                &mut out,
            );
        },
    );
    out
}

/// Walks one function body tracking guard lifetimes.
fn analyze_body(
    scan: &FileScan<'_>,
    file: &str,
    function: &str,
    body_open: usize,
    body_close: usize,
    ctx: Option<&ResolveCtx<'_>>,
    out: &mut FileLocks,
) {
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Statement state: does the current statement start with `let`, and
    // what is the first binding identifier after it?
    let mut stmt_is_let = false;
    let mut stmt_binding: Option<Vec<u8>> = None;
    let mut at_stmt_start = true;

    let mut si = body_open;
    while si <= body_close {
        let text = scan.text(si);
        match text {
            b"{" => {
                depth += 1;
                at_stmt_start = true;
                stmt_is_let = false;
                stmt_binding = None;
            }
            b"}" => {
                // Everything acquired at this depth dies with the block,
                // `let`-bound or not.
                guards.retain(|g| g.depth < depth);
                depth = depth.saturating_sub(1);
                at_stmt_start = true;
                stmt_is_let = false;
                stmt_binding = None;
            }
            b";" => {
                guards.retain(|g| !g.temporary);
                at_stmt_start = true;
                stmt_is_let = false;
                stmt_binding = None;
            }
            _ => {
                if at_stmt_start {
                    at_stmt_start = false;
                    if scan.is_ident(si, b"let") {
                        stmt_is_let = true;
                        stmt_binding = first_binding(scan, si + 1);
                    }
                }
                // drop(binding) releases a guard early.
                if scan.is_ident(si, b"drop")
                    && scan.is_punct(si + 1, b'(')
                    && scan.is_punct(si + 3, b')')
                {
                    let dropped = scan.text(si + 2).to_vec();
                    guards.retain(|g| g.binding.as_deref() != Some(dropped.as_slice()));
                }
                if let Some(segments) = acquisition_at(scan, si) {
                    let (lock, resolved) = resolve_node(&segments, ctx);
                    let (line, col) = scan.pos(si + 1);
                    // Nesting edges against everything currently held.
                    for g in &guards {
                        if g.lock != lock {
                            out.edges.push(LockEdge {
                                held: g.lock.clone(),
                                acquired: lock.clone(),
                                held_resolved: g.resolved,
                                acquired_resolved: resolved,
                                function: function.to_owned(),
                                file: file.to_owned(),
                                line,
                            });
                        }
                    }
                    // Bare .unwrap() right after the acquisition.
                    if scan.is_punct(si + 4, b'.')
                        && scan.is_ident(si + 5, b"unwrap")
                        && scan.is_punct(si + 6, b'(')
                        && scan.is_punct(si + 7, b')')
                    {
                        out.violations.push(Violation::new(
                            file,
                            line,
                            col,
                            Rule::LockPoison,
                            format!(
                                "bare `.{}().unwrap()` on `{lock}` propagates poisoning as a panic — apply an explicit poison policy",
                                String::from_utf8_lossy(scan.text(si + 1)),
                            ),
                        ));
                    }
                    guards.push(Guard {
                        lock,
                        resolved,
                        binding: stmt_binding.clone().filter(|_| stmt_is_let),
                        depth,
                        temporary: !stmt_is_let,
                    });
                }
            }
        }
        si += 1;
    }
}

/// First identifier after `let` (skipping `mut` and pattern openers).
fn first_binding(scan: &FileScan<'_>, mut si: usize) -> Option<Vec<u8>> {
    for _ in 0..4 {
        if scan.is_ident(si, b"mut") || scan.is_punct(si, b'(') || scan.is_punct(si, b'&') {
            si += 1;
            continue;
        }
        if scan.is_any_ident(si) {
            return Some(scan.text(si).to_vec());
        }
        return None;
    }
    None
}

/// If `si` is the `.` of a zero-argument `.lock()` / `.read()` /
/// `.write()`, returns the raw receiver chain segments (`self`
/// included).
fn acquisition_at(scan: &FileScan<'_>, si: usize) -> Option<Vec<String>> {
    if !scan.is_punct(si, b'.') {
        return None;
    }
    let method_ok = scan.is_ident(si + 1, b"lock")
        || scan.is_ident(si + 1, b"read")
        || scan.is_ident(si + 1, b"write");
    if !method_ok || !scan.is_punct(si + 2, b'(') || !scan.is_punct(si + 3, b')') {
        return None;
    }
    // Walk backwards over the `ident (. ident)*` receiver chain.
    let mut segments: Vec<String> = Vec::new();
    let mut j = si;
    while j >= 1 && scan.is_any_ident(j - 1) {
        segments.push(String::from_utf8_lossy(scan.text(j - 1)).into_owned());
        if j >= 2 && scan.is_punct(j - 2, b'.') {
            j -= 2;
        } else {
            break;
        }
    }
    if segments.is_empty() {
        return None;
    }
    segments.reverse();
    Some(segments)
}

/// The graph node for an acquisition's receiver chain: the
/// type-qualified field (`Conn::state`) when the chain resolves through
/// the index, else the textual name with `self.` stripped (the
/// pre-resolution behavior).
fn resolve_node(segments: &[String], ctx: Option<&ResolveCtx<'_>>) -> (String, bool) {
    if let Some(ctx) = ctx {
        let segs: Vec<crate::index::Seg> = segments
            .iter()
            .map(|name| crate::index::Seg {
                name: name.clone(),
                call: false,
                path_sep: false,
            })
            .collect();
        if let Some(node) =
            crate::index::resolve_field_chain(ctx.index, ctx.self_type, ctx.bindings, &segs)
        {
            return (node, true);
        }
    }
    let stripped: Vec<&str> =
        if segments.first().map(String::as_str) == Some("self") && segments.len() > 1 {
            segments.iter().skip(1).map(String::as_str).collect()
        } else {
            segments.iter().map(String::as_str).collect()
        };
    (stripped.join("."), false)
}

/// Runs cycle detection over a merged edge set, reporting one
/// `lock-order` violation per distinct cycle (canonicalized by its
/// node set). An edge `u → v` closes a cycle iff `u` is reachable from
/// `v`; the graphs are tiny (a handful of locks), so a BFS per edge is
/// plenty.
pub fn cycle_violations(edges: &[LockEdge]) -> Vec<Violation> {
    // One representative edge per (held, acquired) pair.
    let mut rep: BTreeMap<(&str, &str), &LockEdge> = BTreeMap::new();
    for e in edges {
        rep.entry((e.held.as_str(), e.acquired.as_str()))
            .or_insert(e);
    }
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for &(u, v) in rep.keys() {
        adj.entry(u).or_default().push(v);
    }

    let mut seen_cycles: Vec<Vec<String>> = Vec::new();
    let mut out = Vec::new();
    for (&(u, v), &edge) in &rep {
        let Some(path) = find_path(v, u, &adj) else {
            continue;
        };
        // Cycle node set: u, v, and the v→…→u path (which ends at u).
        let mut nodes: Vec<String> = vec![u.to_owned(), v.to_owned()];
        nodes.extend(path.iter().map(|n| n.to_string()));
        nodes.sort();
        nodes.dedup();
        if seen_cycles.contains(&nodes) {
            continue;
        }
        seen_cycles.push(nodes);
        // Describe the full loop: u → v, then each hop along the path.
        let mut hops: Vec<(&str, &str)> = vec![(u, v)];
        let mut prev = v;
        for &next in &path {
            if next != prev {
                hops.push((prev, next));
                prev = next;
            }
        }
        let desc = hops
            .iter()
            .filter_map(|key| rep.get(key))
            .map(|e| {
                format!(
                    "{} -> {} (fn {} at {}:{})",
                    e.held, e.acquired, e.function, e.file, e.line
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        out.push(Violation::new(
            &edge.file,
            edge.line,
            1,
            Rule::LockOrder,
            format!("lock-order cycle (potential deadlock): {desc}"),
        ));
    }
    out
}

/// BFS path from `from` to `to` (inclusive of both ends, excluding
/// `from` itself in the returned list); `None` if unreachable.
fn find_path<'g>(
    from: &'g str,
    to: &'g str,
    adj: &BTreeMap<&'g str, Vec<&'g str>>,
) -> Option<Vec<&'g str>> {
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            // Reconstruct from `to` back to `from`.
            let mut path = vec![to];
            let mut cur = to;
            while let Some(&p) = prev.get(cur) {
                path.push(p);
                cur = p;
            }
            path.pop(); // drop `from` itself
            path.reverse();
            return Some(path);
        }
        for &next in adj.get(n).map(Vec::as_slice).unwrap_or(&[]) {
            if next != from && !prev.contains_key(next) {
                prev.insert(next, n);
                queue.push_back(next);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locks_of(src: &str) -> FileLocks {
        let scan = FileScan::new(src.as_bytes());
        collect(&scan, "f.rs")
    }

    #[test]
    fn bare_lock_unwrap_is_poison() {
        let fl = locks_of("fn f(&self) { let g = self.state.lock().unwrap(); }");
        assert_eq!(fl.violations.len(), 1);
        assert_eq!(fl.violations[0].rule, Rule::LockPoison);
        assert!(fl.violations[0].message.contains("state"));
    }

    #[test]
    fn recovering_unwrap_or_else_is_clean() {
        let fl = locks_of(
            "fn f(&self) { let g = self.state.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert!(fl.violations.is_empty());
    }

    #[test]
    fn io_read_with_args_is_not_an_acquisition() {
        let fl = locks_of("fn f(s: &mut TcpStream) { s.read(&mut buf).unwrap_or(0); }");
        assert!(fl.violations.is_empty());
        assert!(fl.edges.is_empty());
    }

    #[test]
    fn nested_acquisitions_make_edges() {
        let fl = locks_of(
            "fn f(&self) { let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner()); \
             let b = self.beta.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert_eq!(fl.edges.len(), 1);
        assert_eq!(fl.edges[0].held, "alpha");
        assert_eq!(fl.edges[0].acquired, "beta");
    }

    #[test]
    fn statement_temporary_does_not_outlive_statement() {
        let fl = locks_of(
            "fn f(&self) { self.alpha.lock().unwrap_or_else(|e| e.into_inner()).push(1); \
             let b = self.beta.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert!(fl.edges.is_empty());
    }

    #[test]
    fn drop_releases_guard() {
        let fl = locks_of(
            "fn f(&self) { let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner()); drop(a); \
             let b = self.beta.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert!(fl.edges.is_empty());
    }

    #[test]
    fn block_scope_expires_guard() {
        let fl = locks_of(
            "fn f(&self) { { let a = self.alpha.lock().unwrap_or_else(|e| e.into_inner()); } \
             let b = self.beta.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        assert!(fl.edges.is_empty());
    }

    #[test]
    fn cycle_is_detected_and_reported_once() {
        let edges = vec![
            LockEdge {
                held: "a".into(),
                acquired: "b".into(),
                held_resolved: false,
                acquired_resolved: false,
                function: "f".into(),
                file: "x.rs".into(),
                line: 3,
            },
            LockEdge {
                held: "b".into(),
                acquired: "a".into(),
                held_resolved: false,
                acquired_resolved: false,
                function: "g".into(),
                file: "x.rs".into(),
                line: 9,
            },
        ];
        let vs = cycle_violations(&edges);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, Rule::LockOrder);
        assert!(vs[0].message.contains("a -> b"));
        assert!(vs[0].message.contains("b -> a"));
    }

    #[test]
    fn acyclic_order_is_clean() {
        let edges = vec![LockEdge {
            held: "a".into(),
            acquired: "b".into(),
            held_resolved: false,
            acquired_resolved: false,
            function: "f".into(),
            file: "x.rs".into(),
            line: 3,
        }];
        assert!(cycle_violations(&edges).is_empty());
    }

    #[test]
    fn resolved_receivers_become_type_qualified_nodes() {
        let decl = "struct Conn { state: Mutex<u32>, queue: Mutex<u32> }";
        let body = "struct Hub { conn: Arc<Conn> }\n\
                    impl Hub { fn a(&self) { \
                    let g = self.conn.state.lock().unwrap_or_else(|e| e.into_inner()); \
                    let h = self.conn.queue.lock().unwrap_or_else(|e| e.into_inner()); } }";
        let decl_scan = FileScan::new(decl.as_bytes());
        let body_scan = FileScan::new(body.as_bytes());
        let decl_items = crate::items::parse_items(&decl_scan);
        let body_items = crate::items::parse_items(&body_scan);
        let mut index = crate::index::WorkspaceIndex::default();
        index.add_file(&decl_items);
        index.add_file(&body_items);
        let fl = collect_resolved(&body_scan, "b.rs", &index, &body_items);
        assert_eq!(fl.edges.len(), 1);
        assert_eq!(fl.edges[0].held, "Conn::state");
        assert_eq!(fl.edges[0].acquired, "Conn::queue");
        assert!(fl.edges[0].held_resolved && fl.edges[0].acquired_resolved);
    }

    #[test]
    fn self_prefix_is_normalized() {
        let fl = locks_of(
            "fn f(&self, other: &S) { let a = self.shared.state.lock().unwrap_or_else(|e| e.into_inner()); \
             let b = other.shared.state.lock().unwrap_or_else(|e| e.into_inner()); }",
        );
        // Both normalize differently: `shared.state` vs `other.shared.state`.
        assert_eq!(fl.edges.len(), 1);
        assert_eq!(fl.edges[0].held, "shared.state");
    }
}
