//! Pass 6 — discarded results.
//!
//! Flags two shapes of silent error swallowing in non-test library
//! code:
//!
//! * `let _ = expr;` where `expr` is exactly a call whose *resolved*
//!   return type is `Result` (the PR 7 checkpoint-swallow shape:
//!   `let _ = self.maybe_checkpoint(epoch);` dropped durability
//!   failures on the floor);
//! * a bare statement `expr;` discarding such a call.
//!
//! Resolution uses the workspace item index
//! ([`crate::index::WorkspaceIndex`]): `self.field.method()` chains,
//! local bindings of known types, `Type::assoc(…)` paths, and free
//! fns. When the receiver cannot be resolved, two conservative
//! fallbacks apply: a small table of std fallibles (`sync_all`,
//! `write_all`, `writeln!`, `fs::remove_file`, …), and a name-only
//! lookup that fires only when *every* impl of that method name in the
//! workspace returns `Result`. Anything still unknown is not flagged —
//! the pass under-approximates rather than guessing.

use crate::index::{
    chain_ending_at, is_result_type, resolve_chain, Bindings, Resolved, Seg, WorkspaceIndex,
};
use crate::items::Item;
use crate::scan::FileScan;
use crate::{Rule, Violation};

/// Zero-/few-argument std methods returning `Result` that the index
/// cannot see (defined outside the workspace). Deliberately excludes
/// high-noise names like `join` and `send`.
const BUILTIN_FALLIBLE_METHODS: &[&[u8]] = &[
    b"sync_all",
    b"sync_data",
    b"write_all",
    b"flush",
    b"set_nodelay",
    b"set_read_timeout",
    b"set_write_timeout",
    b"shutdown",
    b"set_len",
    b"wait",
];

/// std free fns returning `Result` (path-called: `fs::remove_file(…)`).
const BUILTIN_FALLIBLE_FREE_FNS: &[&str] = &[
    "remove_file",
    "remove_dir_all",
    "create_dir_all",
    "rename",
    "copy",
];

/// Macros expanding to a `Result` expression.
const BUILTIN_FALLIBLE_MACROS: &[&[u8]] = &[b"write", b"writeln"];

/// Runs the pass over one file with workspace context.
pub fn run(
    scan: &FileScan<'_>,
    file: &str,
    index: &WorkspaceIndex,
    items: &[Item],
) -> Vec<Violation> {
    let mut out = Vec::new();
    crate::index::for_each_fn_body(
        scan,
        index,
        items,
        &mut |item, _sig, self_type, bindings, open, close| {
            if scan.in_test_region(item.span.0) {
                return;
            }
            scan_body(
                scan, file, index, self_type, bindings, open, close, &mut out,
            );
        },
    );
    out.sort_by_key(|v| (v.line, v.col));
    out
}

/// Walks one function body statement-by-statement. Braces are treated
/// as statement boundaries, so nested blocks and closure bodies are
/// examined at every depth while multi-token control-flow headers
/// (`if`, `match`, …) fail the exact-call check and drop out naturally.
#[allow(clippy::too_many_arguments)]
fn scan_body(
    scan: &FileScan<'_>,
    file: &str,
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    open: usize,
    close: usize,
    out: &mut Vec<Violation>,
) {
    let mut stmt_start = open;
    let mut si = open;
    while si < close {
        if scan.is_punct(si, b'{') || scan.is_punct(si, b'}') {
            stmt_start = si + 1;
        } else if scan.is_punct(si, b';') {
            check_statement(scan, file, index, self_type, bindings, stmt_start, si, out);
            stmt_start = si + 1;
        }
        si += 1;
    }
}

/// Examines the statement `[from, semi)`.
#[allow(clippy::too_many_arguments)]
fn check_statement(
    scan: &FileScan<'_>,
    file: &str,
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    from: usize,
    semi: usize,
    out: &mut Vec<Violation>,
) {
    // `let _ = expr;` — a deliberate discard of the value.
    let (expr_from, discard_kind) = if scan.is_ident(from, b"let")
        && scan.tok(from + 1).is_some()
        && scan.text(from + 1) == b"_"
        && scan.is_punct(from + 2, b'=')
    {
        (from + 3, "`let _ =` discards")
    } else {
        // A bare expression statement; non-call statements fail the
        // exact-span check below.
        (from, "bare statement discards")
    };
    let Some(call) = classify_call(scan, index, self_type, bindings, expr_from, semi) else {
        return;
    };
    if !call.returns_result {
        return;
    }
    let (line, col) = scan.pos(from);
    out.push(Violation::new(
        file,
        line,
        col,
        Rule::DiscardedResult,
        format!(
            "{discard_kind} the `Result` of `{}` — handle the error, or count and surface it",
            call.display
        ),
    ));
}

/// A recognized discarded call.
struct CallInfo {
    display: String,
    returns_result: bool,
}

/// Returns `Some` iff `[from, to)` is *exactly* one call expression (a
/// simple receiver chain ending in a call, or a builtin macro
/// invocation), with its resolved fallibility.
fn classify_call(
    scan: &FileScan<'_>,
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    from: usize,
    to: usize,
) -> Option<CallInfo> {
    if to <= from {
        return None;
    }
    // Macro invocation: `name ! ( … )` spanning the whole expression.
    if scan.is_any_ident(from) && scan.is_punct(from + 1, b'!') && scan.is_punct(from + 2, b'(') {
        let close = scan.match_delim(from + 2)?;
        if close + 1 != to {
            return None;
        }
        let name = scan.text(from);
        return Some(CallInfo {
            display: format!("{}!(…)", String::from_utf8_lossy(name)),
            returns_result: BUILTIN_FALLIBLE_MACROS.contains(&name),
        });
    }
    // Chain call: the final token must close the call's argument list.
    if !scan.is_punct(to - 1, b')') {
        return None;
    }
    let open = open_of(scan, from, to - 1)?;
    let segs = chain_ending_at(scan, open)?;
    // The chain plus its argument list must span the expression
    // exactly; prefixed forms (`return c()`, `x = c()`, `&c()`) are not
    // discards of a whole statement.
    if open.checked_sub(chain_token_len(&segs))? != from {
        return None;
    }
    let display = display_chain(&segs);
    match resolve_chain(index, self_type, bindings, &segs) {
        Resolved::Type(ty) => Some(CallInfo {
            returns_result: is_result_type(&ty),
            display,
        }),
        Resolved::Unit => Some(CallInfo {
            returns_result: false,
            display,
        }),
        Resolved::Unknown => Some(CallInfo {
            returns_result: unknown_receiver_fallible(index, &segs),
            display,
        }),
    }
}

/// The significant index of the `(` matching the `)` at `close`,
/// bounded below by `from`.
fn open_of(scan: &FileScan<'_>, from: usize, close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut si = close;
    loop {
        if scan.is_punct(si, b')') {
            depth += 1;
        } else if scan.is_punct(si, b'(') {
            depth -= 1;
            if depth == 0 {
                return Some(si);
            }
        }
        if si == from {
            return None;
        }
        si = si.checked_sub(1)?;
    }
}

/// Number of significant tokens the chain's receiver+name occupy:
/// one per segment plus 1 (`.`) or 2 (`::`) separator tokens.
fn chain_token_len(segs: &[Seg]) -> usize {
    let mut n = 0usize;
    for (i, seg) in segs.iter().enumerate() {
        if i == 0 {
            n += 1;
        } else if seg.path_sep {
            n += 3;
        } else {
            n += 2;
        }
    }
    n
}

/// `self.store.flush` / `fs::remove_file` display form.
fn display_chain(segs: &[Seg]) -> String {
    let mut out = String::new();
    for (i, seg) in segs.iter().enumerate() {
        if i > 0 {
            out.push_str(if seg.path_sep { "::" } else { "." });
        }
        out.push_str(&seg.name);
    }
    out
}

/// Fallibility of a call whose receiver could not be resolved.
/// Workspace knowledge wins when it is unanimous: a name every
/// workspace definition agrees returns `Result` is flagged, and one
/// they agree returns something else is not — `server.shutdown()` on a
/// workspace `TcpServer` must not inherit `TcpStream::shutdown`'s
/// `io::Result` just because the names collide. Only when the
/// workspace is silent (or split) does the builtin std table decide.
fn unknown_receiver_fallible(index: &WorkspaceIndex, segs: &[Seg]) -> bool {
    let Some(last) = segs.last() else {
        return false;
    };
    if !last.call {
        return false;
    }
    let workspace = if !last.path_sep && segs.len() >= 2 {
        index.uniform_method_ret(&last.name)
    } else {
        index.uniform_free_fn_ret(&last.name)
    };
    match workspace {
        Some(ret) => ret.as_deref().is_some_and(is_result_type),
        None => builtin_fallible(segs),
    }
}

/// Std-library fallibles the workspace index cannot resolve.
fn builtin_fallible(segs: &[Seg]) -> bool {
    let Some(last) = segs.last() else {
        return false;
    };
    if !last.call {
        return false;
    }
    if segs.len() >= 2 && !last.path_sep {
        // A method call: `.sync_all()`, `.write_all(buf)`, …
        return BUILTIN_FALLIBLE_METHODS.contains(&last.name.as_bytes());
    }
    // A free/path call: `remove_file(p)`, `fs::remove_file(p)`,
    // `std::fs::write(p, b)` (`write` requires the `fs` path to avoid
    // clashing with io write methods).
    if BUILTIN_FALLIBLE_FREE_FNS.contains(&last.name.as_str()) {
        return true;
    }
    last.name == "write" && segs.iter().any(|s| s.name == "fs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn run_on(srcs: &[&str], target: usize) -> Vec<(u32, String)> {
        let mut parsed = Vec::new();
        for src in srcs {
            let scan = FileScan::new(src.as_bytes());
            parsed.push(parse_items(&scan));
        }
        let mut index = WorkspaceIndex::default();
        for items in &parsed {
            index.add_file(items);
        }
        let scan = FileScan::new(srcs[target].as_bytes()); // podium-lint: allow(index) — test fixture, caller passes a valid index
        let items = parse_items(&scan);
        run(&scan, "t.rs", &index, &items)
            .into_iter()
            .map(|v| (v.line, v.message))
            .collect()
    }

    #[test]
    fn checkpoint_swallow_shape_is_flagged() {
        let vs = run_on(
            &["struct Svc;\nimpl Svc {\n fn maybe_checkpoint(&self, e: u64) -> io::Result<()> { x() }\n fn tick(&self, e: u64) {\n let _ = self.maybe_checkpoint(e);\n }\n}"],
            0,
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].0, 5);
        assert!(vs[0].1.contains("self.maybe_checkpoint"));
    }

    #[test]
    fn non_result_discard_is_clean() {
        let vs = run_on(
            &["struct Svc;\nimpl Svc {\n fn count(&self) -> usize { 0 }\n fn tick(&self) {\n let _ = self.count();\n }\n}"],
            0,
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn bare_statement_discard_is_flagged() {
        let vs = run_on(
            &["struct Svc;\nimpl Svc {\n fn persist(&self) -> Result<(), E> { x() }\n fn tick(&self) {\n self.persist();\n }\n}"],
            0,
        );
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].0, 5);
        assert!(vs[0].1.contains("bare statement"));
    }

    #[test]
    fn handled_results_are_clean() {
        let vs = run_on(
            &["struct Svc;\nimpl Svc {\n fn persist(&self) -> Result<(), E> { x() }\n fn tick(&self) -> Result<(), E> {\n self.persist()?;\n let r = self.persist();\n r\n }\n}"],
            0,
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn builtin_fallibles_are_flagged() {
        let vs = run_on(
            &["fn f(file: &File, out: &mut W) {\n let _ = file.sync_all();\n let _ = std::fs::remove_file(p);\n let _ = writeln!(out, \"x\");\n}"],
            0,
        );
        assert_eq!(
            vs.iter().map(|v| v.0).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "{vs:?}"
        );
    }

    #[test]
    fn unknown_receivers_are_not_flagged() {
        let vs = run_on(&["fn f() { let _ = mystery.call(); let _ = helper(); }"], 0);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn workspace_uniform_non_result_overrides_builtin_table() {
        // `shutdown` is in the builtin fallible-method table (for
        // `TcpStream::shutdown`), but every workspace definition of
        // the name returns unit — the unresolved receiver must not
        // inherit the std heuristic.
        let vs = run_on(
            &[
                "struct Server;\nimpl Server {\n fn shutdown(self) { x() }\n}",
                "fn f(server: Mystery) {\n server.shutdown();\n}",
            ],
            1,
        );
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn workspace_uniform_result_free_fn_is_flagged() {
        let vs = run_on(
            &[
                "pub fn serve(s: S) -> io::Result<()> { x() }",
                "fn f(s: S) {\n let _ = server::serve(s);\n}",
            ],
            1,
        );
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].0, 2);
        assert!(vs[0].1.contains("server::serve"));
    }

    #[test]
    fn test_code_is_exempt() {
        let vs = run_on(
            &["struct S;\nimpl S { fn p(&self) -> Result<(), E> { x() } }\n#[cfg(test)]\nmod tests {\n fn t(s: S) { let _ = s.p(); }\n}"],
            0,
        );
        assert!(vs.is_empty(), "{vs:?}");
    }
}
