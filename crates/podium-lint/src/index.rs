//! The workspace item index: aggregates the parsed items of every
//! scanned file ([`crate::items`]) into lookup tables that resolve
//! method-call receivers to their defining type.
//!
//! Resolution is deliberately conservative. Types are keyed by their
//! bare last path segment (so `service::Store` and `sim::Store` merge —
//! a documented limitation that errs toward *more* merged lock edges,
//! never fewer), generics and trait objects are not resolved, and any
//! chain segment that cannot be resolved makes the whole chain
//! unresolved. Passes treat "unresolved" as "no conclusion": the
//! discarded-result pass stays silent unless every known candidate
//! returns `Result`, and the deadlock merge falls back to textual,
//! crate-qualified node names.

use crate::items::{walk_fns, FnSig, Item, ItemKind};
use crate::scan::FileScan;
use std::collections::BTreeMap;

/// Everything the index records about one named type.
#[derive(Debug, Default, Clone)]
pub struct TypeInfo {
    /// Field name → normalized type text.
    pub fields: BTreeMap<String, String>,
    /// Method name → return types seen across all `impl` blocks for
    /// this (bare) type name. `None` = unit return.
    pub methods: BTreeMap<String, Vec<Option<String>>>,
}

/// The workspace-wide item index.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    /// Bare type name → struct fields and impl methods.
    pub types: BTreeMap<String, TypeInfo>,
    /// Free-fn name → return types seen across the workspace.
    pub free_fns: BTreeMap<String, Vec<Option<String>>>,
}

impl WorkspaceIndex {
    /// Folds one file's parsed items into the index.
    pub fn add_file(&mut self, items: &[Item]) {
        self.add_items(items);
    }

    fn add_items(&mut self, items: &[Item]) {
        for item in items {
            match &item.kind {
                ItemKind::Struct { fields } => {
                    let info = self.types.entry(item.name.clone()).or_default();
                    for f in fields {
                        info.fields.insert(f.name.clone(), f.ty.clone());
                    }
                }
                ItemKind::Impl { self_type, items } => {
                    if !self_type.is_empty() {
                        let info = self.types.entry(self_type.clone()).or_default();
                        for kid in items {
                            if let ItemKind::Fn(sig) = &kid.kind {
                                info.methods
                                    .entry(kid.name.clone())
                                    .or_default()
                                    .push(sig.ret.clone());
                            }
                        }
                    }
                    // Nested non-fn items (rare) still contribute.
                    self.add_items(items);
                }
                ItemKind::Fn(sig) => {
                    self.free_fns
                        .entry(item.name.clone())
                        .or_default()
                        .push(sig.ret.clone());
                }
                ItemKind::Module { items } => self.add_items(items),
                _ => {}
            }
        }
    }

    /// Looks up the (peeled) type of `type_name.field_name`.
    pub fn field_type(&self, type_name: &str, field_name: &str) -> Option<&str> {
        self.types
            .get(type_name)
            .and_then(|t| t.fields.get(field_name))
            .map(String::as_str)
    }

    /// All return types recorded for `type_name::method_name`.
    pub fn method_rets(&self, type_name: &str, method_name: &str) -> Option<&[Option<String>]> {
        self.types
            .get(type_name)
            .and_then(|t| t.methods.get(method_name))
            .map(Vec::as_slice)
    }

    /// If every impl of `method_name` on *any* type returns the same
    /// type, that type; used as a name-only fallback when the receiver
    /// could not be resolved. Requires at least one definition and
    /// perfect agreement.
    pub fn uniform_method_ret(&self, method_name: &str) -> Option<&Option<String>> {
        let mut found: Option<&Option<String>> = None;
        for info in self.types.values() {
            if let Some(rets) = info.methods.get(method_name) {
                for ret in rets {
                    match found {
                        None => found = Some(ret),
                        Some(prev) if prev == ret => {}
                        Some(_) => return None,
                    }
                }
            }
        }
        found
    }

    /// If every free fn of this name agrees on a return type, that
    /// type.
    pub fn uniform_free_fn_ret(&self, fn_name: &str) -> Option<&Option<String>> {
        let rets = self.free_fns.get(fn_name)?;
        let first = rets.first()?;
        rets.iter().all(|r| r == first).then_some(first)
    }
}

/// Strips references/`dyn`/`mut` prefixes and takes the last `::` path
/// segment before any generic arguments: `&mut io::Result<()>` →
/// `Result`, `Arc<Mutex<u8>>` → `Arc`.
pub fn outer_segment(ty: &str) -> &str {
    let mut s = ty.trim();
    loop {
        let t = s
            .trim_start_matches('&')
            .trim_start_matches("mut ")
            .trim_start_matches("dyn ")
            .trim_start();
        if t == s {
            break;
        }
        s = t;
    }
    let head = match s.find('<') {
        Some(lt) => s.get(..lt).unwrap_or(s),
        None => s,
    };
    match head.rfind("::") {
        Some(sep) => head.get(sep + 2..).unwrap_or(head),
        None => head,
    }
}

/// The first top-level generic argument of `ty`, if any:
/// `Arc<Mutex<State>>` → `Mutex<State>`.
fn first_generic_arg(ty: &str) -> Option<&str> {
    let lt = ty.find('<')?;
    let inner = ty.get(lt + 1..)?;
    let mut depth = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '<' => depth += 1,
            '>' if depth == 0 => return inner.get(..i).map(str::trim),
            '>' => depth -= 1,
            ',' if depth == 0 => return inner.get(..i).map(str::trim),
            _ => {}
        }
    }
    None
}

/// Smart-pointer / cell wrappers that forward method calls and field
/// reads to their first generic argument.
const TRANSPARENT_WRAPPERS: &[&str] =
    &["Arc", "Rc", "Box", "RefCell", "Cell", "Pin", "ManuallyDrop"];

/// Unwraps transparent wrappers until a non-wrapper type remains:
/// `Arc<RefCell<Conn>>` → `Conn`.
pub fn peel(ty: &str) -> &str {
    let mut cur = ty.trim();
    for _ in 0..8 {
        let seg = outer_segment(cur);
        if TRANSPARENT_WRAPPERS.contains(&seg) {
            match first_generic_arg(cur) {
                Some(inner) => cur = inner,
                None => break,
            }
        } else {
            break;
        }
    }
    cur
}

/// Whether a return-type text is a `Result` of any path spelling
/// (`Result<…>`, `io::Result<()>`, `anyhow::Result<T>`).
pub fn is_result_type(ty: &str) -> bool {
    outer_segment(ty) == "Result"
}

/// One segment of a receiver chain: `self.conn.lock()` is
/// `[self, conn, lock()]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Seg {
    /// Segment identifier.
    pub name: String,
    /// Followed by `(…)` — a call.
    pub call: bool,
    /// Reached via `::` rather than `.` (path segment).
    pub path_sep: bool,
}

/// Flow-insensitive local bindings for one function body:
/// binding name → normalized type text.
pub type Bindings = BTreeMap<String, String>;

/// Collects `let`-binding types in `[body_open, body_close)`:
/// explicit annotations (`let g: MutexGuard<_> = …`), constructor
/// calls (`let s = Store::open(…)` via the indexed return type, else
/// the type itself), and struct literals (`let d = Durability { … }`).
pub fn collect_bindings(
    scan: &FileScan<'_>,
    index: &WorkspaceIndex,
    sig: &FnSig,
    body_open: usize,
    body_close: usize,
) -> Bindings {
    let mut out = Bindings::new();
    for (name, ty) in &sig.params {
        out.insert(name.clone(), ty.clone());
    }
    let mut si = body_open;
    while si < body_close {
        if !scan.is_ident(si, b"let") {
            si += 1;
            continue;
        }
        // `let [mut] name …`
        let mut at = si + 1;
        if scan.is_ident(at, b"mut") {
            at += 1;
        }
        if !scan.is_any_ident(at) {
            si += 1;
            continue;
        }
        let name = String::from_utf8_lossy(scan.text(at)).into_owned();
        if name == "_" {
            si += 1;
            continue;
        }
        at += 1;
        if scan.is_punct(at, b':') {
            // `let name: Type = …` — type text up to `=` or `;`.
            let ty_from = at + 1;
            let mut ty_to = ty_from;
            while ty_to < body_close && !scan.is_punct(ty_to, b'=') && !scan.is_punct(ty_to, b';') {
                ty_to += 1;
            }
            let ty = crate::items::type_text(scan, ty_from, ty_to);
            if !ty.is_empty() {
                out.insert(name, ty);
            }
            si = ty_to + 1;
            continue;
        }
        if scan.is_punct(at, b'=') && scan.is_any_ident(at + 1) {
            let head = String::from_utf8_lossy(scan.text(at + 1)).into_owned();
            if head.starts_with(|c: char| c.is_ascii_uppercase()) {
                if scan.is_punct(at + 2, b':') && scan.is_punct(at + 3, b':') {
                    // `let s = Type::assoc(…)` — prefer the indexed
                    // return type, else assume the constructor returns
                    // the type itself.
                    let method = String::from_utf8_lossy(scan.text(at + 4)).into_owned();
                    let ret = index.method_rets(&head, &method).and_then(uniform).cloned();
                    match ret {
                        // `Result<Self>`-style constructors resolve
                        // through the Ok type only when it names the
                        // type; otherwise assume the type.
                        Some(Some(r)) if outer_segment(&r) == head || !is_result_type(&r) => {
                            out.insert(name, r);
                        }
                        _ => {
                            out.insert(name, head);
                        }
                    }
                } else if scan.is_punct(at + 2, b'{') {
                    // `let d = Type { … }` struct literal.
                    out.insert(name, head);
                }
            }
        }
        si += 1;
    }
    out
}

/// `Some(&ret)` when all entries agree.
fn uniform(rets: &[Option<String>]) -> Option<&Option<String>> {
    let first = rets.first()?;
    rets.iter().all(|r| r == first).then_some(first)
}

/// Parses the `ident (.|:: ident [(…)])*` chain *ending* at the call
/// whose `(` is at `open_si`, walking backward. Returns the segments in
/// source order, or `None` when the receiver is not a simple chain
/// (e.g. it starts after `)` or `]`).
pub fn chain_ending_at(scan: &FileScan<'_>, open_si: usize) -> Option<Vec<Seg>> {
    // The call itself: `name (`.
    let mut si = open_si.checked_sub(1)?;
    if !scan.is_any_ident(si) {
        return None;
    }
    let mut segs = vec![Seg {
        name: String::from_utf8_lossy(scan.text(si)).into_owned(),
        call: true,
        path_sep: false,
    }];
    // Preceding separator: `.` or `::`.
    while let Some(prev) = si.checked_sub(1) {
        if scan.is_punct(prev, b'.') {
            let p2 = prev.checked_sub(1)?;
            if !scan.is_any_ident(p2) {
                // `foo().bar()` / `xs[i].bar()` — receiver is an
                // expression we do not model.
                return None;
            }
            segs.push(Seg {
                name: String::from_utf8_lossy(scan.text(p2)).into_owned(),
                call: false,
                path_sep: false,
            });
            si = p2;
        } else if scan.is_punct(prev, b':') && prev >= 1 && scan.is_punct(prev - 1, b':') {
            let p2 = prev.checked_sub(2)?;
            if !scan.is_any_ident(p2) {
                return None;
            }
            // Mark the *later* segment as path-reached.
            if let Some(last) = segs.last_mut() {
                last.path_sep = true;
            }
            segs.push(Seg {
                name: String::from_utf8_lossy(scan.text(p2)).into_owned(),
                call: false,
                path_sep: false,
            });
            si = p2;
        } else {
            break;
        }
    }
    segs.reverse();
    Some(segs)
}

/// What a chain resolves to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Resolved {
    /// The chain's value has this (peeled) type text.
    Type(String),
    /// The chain resolves to a call returning unit/unknown-non-Result.
    Unit,
    /// Could not resolve.
    Unknown,
}

/// Resolves a receiver chain in the context of (`self_type`, local
/// `bindings`). Returns the type of the *full chain's value*: for
/// `self.store.load()` that is `load`'s (peeled) return type.
pub fn resolve_chain(
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    segs: &[Seg],
) -> Resolved {
    let Some(first) = segs.first() else {
        return Resolved::Unknown;
    };
    // Seed the chain: `self`, a local binding/param, or a type path.
    let mut cur: Option<String>;
    let mut rest = 1;
    if first.name == "self" && !first.call {
        match self_type {
            Some(t) => cur = Some(t.to_owned()),
            None => return Resolved::Unknown,
        }
    } else if !first.call {
        if let Some(ty) = bindings.get(&first.name) {
            cur = Some(peel(ty).to_owned());
        } else if segs.get(1).is_some_and(|s| s.path_sep) {
            // `Type::method(…)` / `path::Type::method(…)`: scan forward
            // through `::`-reached segments to the last one before a
            // call — that is the type name.
            let mut last_path = first.name.clone();
            let mut i = 1;
            while let Some(seg) = segs.get(i) {
                if !seg.path_sep || seg.call {
                    break;
                }
                last_path = seg.name.clone();
                i += 1;
            }
            cur = Some(last_path);
            rest = i;
        } else {
            return Resolved::Unknown;
        }
    } else {
        // Chain starts with a free-fn call: `open(path).store()`.
        match index.uniform_free_fn_ret(&first.name) {
            Some(Some(ret)) => cur = Some(peel(ret).to_owned()),
            Some(None) => {
                return if segs.len() == 1 {
                    Resolved::Unit
                } else {
                    Resolved::Unknown
                }
            }
            None => return Resolved::Unknown,
        }
    }
    for seg in segs.get(rest..).unwrap_or(&[]) {
        let Some(ty) = cur.take() else {
            return Resolved::Unknown;
        };
        let owner = peel(&ty);
        let owner_name = outer_segment(owner).to_owned();
        if seg.call {
            match index.method_rets(&owner_name, &seg.name).and_then(uniform) {
                Some(Some(ret)) => cur = Some(ret.clone()),
                Some(None) => cur = None,
                None => return Resolved::Unknown,
            }
        } else {
            match index.field_type(&owner_name, &seg.name) {
                Some(fty) => cur = Some(fty.to_owned()),
                None => return Resolved::Unknown,
            }
        }
    }
    match cur {
        Some(ty) => Resolved::Type(peel(&ty).to_owned()),
        None => Resolved::Unit,
    }
}

/// Resolves a *field-only* chain (no calls) to `Type::field` form for
/// lock-graph node naming: `self.conn.state` with `conn: Arc<Conn>` and
/// `Conn.state: Mutex<u32>` resolves to `Conn::state`. Returns `None`
/// when any hop is unknown.
pub fn resolve_field_chain(
    index: &WorkspaceIndex,
    self_type: Option<&str>,
    bindings: &Bindings,
    segs: &[Seg],
) -> Option<String> {
    if segs.iter().any(|s| s.call) || segs.len() < 2 {
        return None;
    }
    let first = segs.first()?;
    let mut owner = if first.name == "self" {
        self_type?.to_owned()
    } else {
        outer_segment(peel(bindings.get(&first.name)?)).to_owned()
    };
    let mut node = None;
    for seg in segs.get(1..)? {
        let fty = index.field_type(&owner, &seg.name)?;
        node = Some(format!("{owner}::{}", seg.name));
        owner = outer_segment(peel(fty)).to_owned();
    }
    node
}

/// Builds the index from `(scan, items)` pairs for the whole workspace.
pub fn build<'a>(files: impl IntoIterator<Item = &'a [Item]>) -> WorkspaceIndex {
    let mut index = WorkspaceIndex::default();
    for items in files {
        index.add_file(items);
    }
    index
}

/// A pass's per-fn callback: the item, its signature, the impl
/// self-type, the collected bindings, and the body's scan-level span.
pub type FnBodyVisitor<'a> = dyn FnMut(&Item, &FnSig, Option<&str>, &Bindings, usize, usize) + 'a;

/// Convenience for passes: visit each fn in `items` with its scan-level
/// body span, signature, impl self-type, and collected bindings.
pub fn for_each_fn_body(
    scan: &FileScan<'_>,
    index: &WorkspaceIndex,
    items: &[Item],
    visit: &mut FnBodyVisitor<'_>,
) {
    walk_fns(items, &mut |item, sig, self_type| {
        if let Some((open, close)) = sig.body {
            let bindings = collect_bindings(scan, index, sig, open + 1, close);
            visit(item, sig, self_type, &bindings, open + 1, close);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_items;

    fn index_of(srcs: &[&str]) -> (WorkspaceIndex, Vec<Vec<Item>>) {
        let mut all = Vec::new();
        for src in srcs {
            let scan = FileScan::new(src.as_bytes());
            all.push(parse_items(&scan));
        }
        let mut index = WorkspaceIndex::default();
        for items in &all {
            index.add_file(items);
        }
        (index, all)
    }

    #[test]
    fn outer_segment_and_peel() {
        assert_eq!(outer_segment("io::Result<()>"), "Result");
        assert_eq!(outer_segment("&mut Vec<u8>"), "Vec");
        assert_eq!(outer_segment("&'a str"), "'a str"); // lifetimes un-modelled, harmless
        assert_eq!(peel("Arc<Mutex<State>>"), "Mutex<State>");
        assert_eq!(peel("Arc<RefCell<Conn>>"), "Conn");
        assert_eq!(peel("Vec<u8>"), "Vec<u8>");
        assert!(is_result_type("io::Result<Vec<u8>>"));
        assert!(is_result_type("Result<(), Error>"));
        assert!(!is_result_type("Option<Result<u8, E>>"));
    }

    #[test]
    fn resolves_self_field_method() {
        let (index, _) = index_of(&[
            "struct Store { dir: PathBuf } impl Store { fn flush(&self) -> io::Result<()> { ok() } }",
            "struct Svc { store: Arc<Store> } impl Svc { fn run(&self) {} }",
        ]);
        let scan = FileScan::new(b"fn f() { self.store.flush(); }");
        let open = (0..scan.sig.len())
            .find(|&si| scan.is_punct(si, b'(') && scan.is_ident(si.wrapping_sub(1), b"flush"))
            .expect("call site"); // podium-lint: allow(expect) — test fixture, token known present
        let segs = chain_ending_at(&scan, open).expect("chain"); // podium-lint: allow(expect) — test fixture, chain known simple
        let resolved = resolve_chain(&index, Some("Svc"), &Bindings::new(), &segs);
        assert_eq!(resolved, Resolved::Type("io::Result<()>".to_owned()));
    }

    #[test]
    fn resolves_local_binding_constructor() {
        let (index, _) = index_of(&[
            "struct Wal; impl Wal { fn open(p: &str) -> Result<Wal, E> { x() } fn sync(&self) -> io::Result<()> { y() } }",
        ]);
        let src = b"fn f() { let w = Wal::open(p); w.sync(); }";
        let scan = FileScan::new(src);
        let sig = FnSig {
            has_self: false,
            params: Vec::new(),
            ret: None,
            body: None,
        };
        let bindings = collect_bindings(&scan, &index, &sig, 0, scan.sig.len());
        // Result<Wal, E> constructor: binding assumed to be the type.
        assert_eq!(bindings.get("w").map(String::as_str), Some("Wal"));
        let open = (0..scan.sig.len())
            .find(|&si| scan.is_punct(si, b'(') && scan.is_ident(si.wrapping_sub(1), b"sync"))
            .expect("call site"); // podium-lint: allow(expect) — test fixture, token known present
        let segs = chain_ending_at(&scan, open).expect("chain"); // podium-lint: allow(expect) — test fixture, chain known simple
        assert_eq!(
            resolve_chain(&index, None, &bindings, &segs),
            Resolved::Type("io::Result<()>".to_owned())
        );
    }

    #[test]
    fn unresolvable_receiver_is_unknown() {
        let (index, _) = index_of(&["struct S;"]);
        let scan = FileScan::new(b"fn f() { mystery.call(); foo().bar(); }");
        for name in [&b"call"[..], &b"bar"[..]] {
            let open = (0..scan.sig.len())
                .find(|&si| scan.is_punct(si, b'(') && scan.is_ident(si.wrapping_sub(1), name))
                .expect("call site"); // podium-lint: allow(expect) — test fixture, token known present
            let resolved = chain_ending_at(&scan, open)
                .map(|segs| resolve_chain(&index, None, &Bindings::new(), &segs))
                .unwrap_or(Resolved::Unknown);
            assert_eq!(resolved, Resolved::Unknown);
        }
    }

    #[test]
    fn field_chain_resolves_to_type_qualified_node() {
        let (index, _) = index_of(&[
            "struct Conn { state: Mutex<u32>, queue: Mutex<Vec<u32>> }",
            "struct Hub { conn: Arc<Conn> }",
        ]);
        let scan = FileScan::new(b"fn f() { self.conn.state.lock(); }");
        let open = (0..scan.sig.len())
            .find(|&si| scan.is_punct(si, b'(') && scan.is_ident(si.wrapping_sub(1), b"lock"))
            .expect("call site"); // podium-lint: allow(expect) — test fixture, token known present

        // Strip the trailing `.lock()` call segment — the lock pass
        // resolves the receiver, not the call.
        let segs = chain_ending_at(&scan, open).expect("chain"); // podium-lint: allow(expect) — test fixture, chain known simple
        let recv = &segs[..segs.len() - 1];
        assert_eq!(
            resolve_field_chain(&index, Some("Hub"), &Bindings::new(), recv),
            Some("Conn::state".to_owned())
        );
    }

    #[test]
    fn type_path_static_call_resolves() {
        let (index, _) = index_of(&[
            "struct Codec; impl Codec { fn encode(x: u8) -> Result<Vec<u8>, E> { z() } }",
        ]);
        let scan = FileScan::new(b"fn f() { let _ = Codec::encode(b); }");
        let open = (0..scan.sig.len())
            .find(|&si| scan.is_punct(si, b'(') && scan.is_ident(si.wrapping_sub(1), b"encode"))
            .expect("call site"); // podium-lint: allow(expect) — test fixture, token known present
        let segs = chain_ending_at(&scan, open).expect("chain"); // podium-lint: allow(expect) — test fixture, chain known simple
        let resolved = resolve_chain(&index, None, &Bindings::new(), &segs);
        assert_eq!(resolved, Resolved::Type("Result<Vec<u8>,E>".to_owned()));
    }

    #[test]
    fn uniform_method_fallback() {
        let (index, _) = index_of(&[
            "struct A; impl A { fn persist(&self) -> io::Result<()> { x() } }",
            "struct B; impl B { fn persist(&self) -> io::Result<()> { y() } }",
            "struct C; impl C { fn helper(&self) -> u32 { 1 } }",
            "struct D; impl D { fn helper(&self) -> bool { true } }",
        ]);
        // All persist impls agree → usable fallback.
        assert_eq!(
            index.uniform_method_ret("persist"),
            Some(&Some("io::Result<()>".to_owned()))
        );
        // helper impls disagree → no conclusion.
        assert_eq!(index.uniform_method_ret("helper"), None);
        assert_eq!(index.uniform_method_ret("no_such_method"), None);
    }
}
