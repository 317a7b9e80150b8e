//! The item-level syntax layer: a recursive-descent parser over the
//! significant-token view of a file ([`crate::scan::FileScan`]) that
//! recovers the item structure the resolution-based passes need —
//! modules, `fn` signatures (name, params, return type, body span),
//! `impl Type { … }` blocks, `struct` definitions with typed fields,
//! and `use` paths.
//!
//! Like the lexer underneath it, the parser is total and
//! panic-free: any token sequence it does not recognize is skipped one
//! token at a time (error recovery), so arbitrary byte input yields a
//! (possibly empty) item list rather than an error. The invariants the
//! property tests in `tests/item_parser_props.rs` enforce:
//!
//! 1. `parse_items` never panics, for arbitrary input bytes;
//! 2. every item span is within bounds of the significant-token stream
//!    and non-empty (`start < end <= sig.len()`);
//! 3. sibling items are in order and non-overlapping
//!    (`item[i].span.1 <= item[i+1].span.0`); children nest strictly
//!    inside their parent's span.
//!
//! The parser is a heuristic, not a grammar: generics are skipped by
//! balanced `<`/`>` counting (with `->` excluded), patterns reduce to
//! their last identifier, and macros/`extern` blocks become opaque
//! [`ItemKind::Other`] items. See DESIGN.md "Static analysis" for what
//! the downstream resolution conservatively refuses to conclude.

use crate::scan::FileScan;

/// One parsed function signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnSig {
    /// Whether the first parameter is a `self` receiver.
    pub has_self: bool,
    /// `(binding, type)` pairs for named, typed parameters. Pattern
    /// parameters keep their last identifier; unnameable patterns are
    /// dropped.
    pub params: Vec<(String, String)>,
    /// Normalized return-type text (`io::Result<()>`), `None` for `()`.
    pub ret: Option<String>,
    /// Significant-index span of the body braces `{ … }`, `None` for
    /// bodiless declarations.
    pub body: Option<(usize, usize)>,
}

/// One `struct` field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Normalized type text (`Arc<Mutex<State>>`).
    pub ty: String,
}

/// What an item is, with the kind-specific payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemKind {
    /// `mod name { … }` (inline) or `mod name;` (no children).
    Module {
        /// Items inside an inline module body.
        items: Vec<Item>,
    },
    /// A function with its parsed signature.
    Fn(FnSig),
    /// `impl Type { … }` / `impl Trait for Type { … }`.
    Impl {
        /// The `Self` type's last path segment (`Guard` for
        /// `impl Display for poison::Guard<'_>`); empty when the type
        /// is not a named path.
        self_type: String,
        /// Items (typically fns) inside the impl body.
        items: Vec<Item>,
    },
    /// A struct definition with its named fields (empty for tuple and
    /// unit structs).
    Struct {
        /// Named fields in declaration order.
        fields: Vec<Field>,
    },
    /// A `use` declaration, groups expanded to one full path per leaf.
    Use {
        /// Full `::`-joined paths (`std::collections::HashMap`).
        paths: Vec<String>,
    },
    /// Anything else (enum, trait, const, static, type alias, macro,
    /// extern block) — recorded for span coverage, not introspected.
    Other,
}

/// One parsed item: kind, name, and its significant-index span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// The kind-specific payload.
    pub kind: ItemKind,
    /// Item name (fn/mod/struct name, empty for impls and uses).
    pub name: String,
    /// Half-open significant-index span `[start, end)` covering the
    /// whole item including attributes and visibility.
    pub span: (usize, usize),
    /// 1-based line of the item's first token.
    pub line: u32,
}

/// Parses the whole file into a top-level item list.
pub fn parse_items(scan: &FileScan<'_>) -> Vec<Item> {
    parse_range(scan, 0, scan.sig.len())
}

/// Parses the items in the significant-index range `[from, to)`.
fn parse_range(scan: &FileScan<'_>, from: usize, to: usize) -> Vec<Item> {
    let mut items = Vec::new();
    let mut si = from;
    while si < to {
        let start = si;
        let mut at = si;
        // Attributes and visibility precede every item form.
        while let Some((_, close, _)) = scan.attr_at(at) {
            at = close + 1;
        }
        at = skip_visibility(scan, at);
        let Some((kw_si, kw)) = item_keyword(scan, at, to) else {
            // Not an item here: recover by skipping one token.
            si = start + 1;
            continue;
        };
        let line = scan.pos(start).0;
        let parsed = match kw {
            Kw::Mod => parse_module(scan, start, kw_si, to),
            Kw::Fn => parse_fn(scan, start, kw_si, to),
            Kw::Impl => parse_impl(scan, start, kw_si, to),
            Kw::Struct => parse_struct(scan, start, kw_si, to),
            Kw::Use => parse_use(scan, start, kw_si, to),
            Kw::Other => {
                let end = scan.item_end(kw_si + 1).min(to).max(kw_si + 1);
                Some(Item {
                    kind: ItemKind::Other,
                    name: ident_text(scan, kw_si + 1),
                    span: (start, end),
                    line,
                })
            }
        };
        match parsed {
            Some(item) => {
                // Guarantee forward progress and clamp to the range so
                // sibling spans never overlap.
                let end = item.span.1.clamp(start + 1, to);
                let mut item = item;
                item.span = (start, end);
                item.line = line;
                si = end;
                items.push(item);
            }
            None => si = start + 1,
        }
    }
    items
}

/// Item-defining keywords the parser dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kw {
    Mod,
    Fn,
    Impl,
    Struct,
    Use,
    Other,
}

/// Scans a short modifier window (`const`, `async`, `unsafe`,
/// `extern "C"`, `default`) for the defining keyword. Returns the
/// keyword's significant index. `const` and `extern` only resolve to
/// [`Kw::Other`] when no `fn` follows within the window.
fn item_keyword(scan: &FileScan<'_>, at: usize, to: usize) -> Option<(usize, Kw)> {
    let mut si = at;
    // Up to five modifier tokens before the defining keyword
    // (`pub const unsafe extern "C" fn`).
    for _ in 0..6 {
        if si >= to {
            return None;
        }
        if scan.is_ident(si, b"mod") {
            return Some((si, Kw::Mod));
        }
        if scan.is_ident(si, b"fn") {
            return Some((si, Kw::Fn));
        }
        if scan.is_ident(si, b"impl") {
            return Some((si, Kw::Impl));
        }
        if scan.is_ident(si, b"struct") || scan.is_ident(si, b"union") {
            return Some((si, Kw::Struct));
        }
        if scan.is_ident(si, b"use") {
            return Some((si, Kw::Use));
        }
        if scan.is_ident(si, b"enum")
            || scan.is_ident(si, b"trait")
            || scan.is_ident(si, b"static")
            || scan.is_ident(si, b"type")
            || scan.is_ident(si, b"macro_rules")
        {
            return Some((si, Kw::Other));
        }
        if scan.is_ident(si, b"const") {
            // `const fn` is a function; `const NAME: T = …` / `const {`
            // is its own item.
            if window_has_fn(scan, si + 1, to) {
                si += 1;
                continue;
            }
            return Some((si, Kw::Other));
        }
        if scan.is_ident(si, b"extern") {
            // `extern "C" fn` is a function; `extern "C" { … }` /
            // `extern crate x;` are opaque items.
            if window_has_fn(scan, si + 1, to) {
                si += 1;
                continue;
            }
            return Some((si, Kw::Other));
        }
        if scan.is_ident(si, b"async")
            || scan.is_ident(si, b"unsafe")
            || scan.is_ident(si, b"default")
        {
            si += 1;
            continue;
        }
        // A string literal inside `extern "C"`.
        if scan
            .tok(si)
            .is_some_and(|t| t.kind == crate::lexer::TokenKind::Str)
        {
            si += 1;
            continue;
        }
        return None;
    }
    None
}

/// Whether an `fn` keyword appears within the next few tokens (used to
/// classify `const`/`extern` prefixes).
fn window_has_fn(scan: &FileScan<'_>, at: usize, to: usize) -> bool {
    (at..(at + 4).min(to)).any(|si| scan.is_ident(si, b"fn"))
}

/// Skips `pub`, `pub(crate)`, `pub(in path)`, `pub(super)`.
fn skip_visibility(scan: &FileScan<'_>, si: usize) -> usize {
    if !scan.is_ident(si, b"pub") {
        return si;
    }
    if scan.is_punct(si + 1, b'(') {
        match scan.match_delim(si + 1) {
            Some(close) => close + 1,
            None => si + 1,
        }
    } else {
        si + 1
    }
}

/// The identifier text at `si`, or empty.
fn ident_text(scan: &FileScan<'_>, si: usize) -> String {
    if scan.is_any_ident(si) {
        String::from_utf8_lossy(scan.text(si)).into_owned()
    } else {
        String::new()
    }
}

/// `mod name { … }` / `mod name;`.
fn parse_module(scan: &FileScan<'_>, start: usize, kw_si: usize, to: usize) -> Option<Item> {
    let name = ident_text(scan, kw_si + 1);
    let line = scan.pos(start).0;
    let after = kw_si + 2;
    if scan.is_punct(after, b'{') {
        let close = scan.match_delim(after)?;
        let children = parse_range(scan, after + 1, close.min(to));
        Some(Item {
            kind: ItemKind::Module { items: children },
            name,
            span: (start, (close + 1).min(to)),
            line,
        })
    } else if scan.is_punct(after, b';') {
        Some(Item {
            kind: ItemKind::Module { items: Vec::new() },
            name,
            span: (start, (after + 1).min(to)),
            line,
        })
    } else {
        None
    }
}

/// Skips a balanced `<…>` generic-parameter or generic-argument list
/// starting at `si` (which must be `<`), excluding `->` arrows from the
/// count. Returns the index one past the closing `>`.
fn skip_generics(scan: &FileScan<'_>, si: usize, to: usize) -> usize {
    if !scan.is_punct(si, b'<') {
        return si;
    }
    let mut depth = 0usize;
    let mut at = si;
    while at < to {
        if scan.is_punct(at, b'<') {
            depth += 1;
        } else if scan.is_punct(at, b'>') && !(at > 0 && scan.is_punct(at - 1, b'-')) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return at + 1;
            }
        }
        at += 1;
    }
    to
}

/// Splits `[from, to)` at top-level commas, tracking `()`/`[]`/`{}`
/// and `<>` depth (with `->` excluded from the angle count). Returns
/// half-open subranges; empty subranges are dropped.
fn split_top_commas(scan: &FileScan<'_>, from: usize, to: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut seg_start = from;
    let mut si = from;
    while si < to {
        let text = scan.text(si);
        match text {
            b"(" | b"[" | b"{" | b"<" => depth += 1,
            b")" | b"]" | b"}" => depth = depth.saturating_sub(1),
            b">" if !(si > 0 && scan.is_punct(si - 1, b'-')) => depth = depth.saturating_sub(1),
            b"," if depth == 0 => {
                if si > seg_start {
                    out.push((seg_start, si));
                }
                seg_start = si + 1;
            }
            _ => {}
        }
        si += 1;
    }
    if to > seg_start {
        out.push((seg_start, to));
    }
    out
}

/// Joins the tokens of `[from, to)` into normalized type text:
/// concatenation, with one space between adjacent word-like tokens so
/// `dyn Fn` and `impl Trait` stay separated.
pub(crate) fn type_text(scan: &FileScan<'_>, from: usize, to: usize) -> String {
    use crate::lexer::TokenKind;
    let mut out = String::new();
    let mut prev_wordy = false;
    for si in from..to {
        let Some(tok) = scan.tok(si) else {
            continue;
        };
        let wordy = matches!(
            tok.kind,
            TokenKind::Ident | TokenKind::Number | TokenKind::Lifetime
        );
        if prev_wordy && wordy {
            out.push(' ');
        }
        out.push_str(&String::from_utf8_lossy(scan.text(si)));
        prev_wordy = wordy;
    }
    out
}

/// `fn name<…>(params) -> Ret where … { body }`.
fn parse_fn(scan: &FileScan<'_>, start: usize, kw_si: usize, to: usize) -> Option<Item> {
    let name = ident_text(scan, kw_si + 1);
    if name.is_empty() {
        return None;
    }
    let line = scan.pos(start).0;
    let mut at = skip_generics(scan, kw_si + 2, to);
    if !scan.is_punct(at, b'(') {
        return None;
    }
    let params_open = at;
    let params_close = scan.match_delim(params_open)?;

    let mut has_self = false;
    let mut params = Vec::new();
    for (pf, pt) in split_top_commas(scan, params_open + 1, params_close) {
        if parse_param(scan, pf, pt, &mut params) {
            has_self = true;
        }
    }

    // Return type: `-> …` up to `where` / `{` / `;` at depth zero.
    at = params_close + 1;
    let mut ret = None;
    if scan.is_punct(at, b'-') && scan.is_punct(at + 1, b'>') {
        let ret_from = at + 2;
        let mut depth = 0usize;
        let mut si = ret_from;
        while si < to {
            let text = scan.text(si);
            match text {
                b"(" | b"[" | b"<" => depth += 1,
                b")" | b"]" => depth = depth.saturating_sub(1),
                b">" if !(si > 0 && scan.is_punct(si - 1, b'-')) => depth = depth.saturating_sub(1),
                b"{" | b";" if depth == 0 => break,
                b"where" if depth == 0 => break,
                _ => {}
            }
            si += 1;
        }
        let text = type_text(scan, ret_from, si);
        if !text.is_empty() {
            ret = Some(text);
        }
        at = si;
    }
    // Skip a `where` clause to the body/terminator.
    let mut depth = 0usize;
    while at < to {
        let text = scan.text(at);
        match text {
            b"(" | b"[" | b"<" => depth += 1,
            b")" | b"]" => depth = depth.saturating_sub(1),
            b">" if !(at > 0 && scan.is_punct(at - 1, b'-')) => depth = depth.saturating_sub(1),
            b"{" | b";" if depth == 0 => break,
            _ => {}
        }
        at += 1;
    }
    let (body, end) = if scan.is_punct(at, b'{') {
        let close = scan.match_delim(at)?;
        (Some((at, close)), close + 1)
    } else {
        // `;` (trait declaration) or EOF.
        (None, (at + 1).min(to).max(kw_si + 2))
    };
    Some(Item {
        kind: ItemKind::Fn(FnSig {
            has_self,
            params,
            ret,
            body,
        }),
        name,
        span: (start, end.min(to)),
        line,
    })
}

/// Parses one parameter range; pushes a `(binding, type)` pair when it
/// has a nameable binding and a type. Returns true when the parameter
/// is a `self` receiver.
fn parse_param(
    scan: &FileScan<'_>,
    from: usize,
    to: usize,
    out: &mut Vec<(String, String)>,
) -> bool {
    // `self`, `&self`, `&mut self`, `mut self`, `self: Pin<…>`.
    for si in from..to.min(from + 3) {
        if scan.is_ident(si, b"self") {
            return true;
        }
    }
    // Find the `:` separating pattern from type at depth zero.
    let mut depth = 0usize;
    for si in from..to {
        let text = scan.text(si);
        match text {
            b"(" | b"[" | b"{" | b"<" => depth += 1,
            b")" | b"]" | b"}" => depth = depth.saturating_sub(1),
            b">" if !(si > 0 && scan.is_punct(si - 1, b'-')) => depth = depth.saturating_sub(1),
            b":" if depth == 0 => {
                // Binding: the last identifier of the pattern part.
                let binding = (from..si)
                    .rev()
                    .find(|&p| scan.is_any_ident(p) && !scan.is_ident(p, b"mut"))
                    .map(|p| String::from_utf8_lossy(scan.text(p)).into_owned());
                let ty = type_text(scan, si + 1, to);
                if let Some(b) = binding {
                    if !ty.is_empty() {
                        out.push((b, ty));
                    }
                }
                return false;
            }
            _ => {}
        }
    }
    false
}

/// `impl<…> Type { … }` / `impl<…> Trait for Type { … }`.
fn parse_impl(scan: &FileScan<'_>, start: usize, kw_si: usize, to: usize) -> Option<Item> {
    let line = scan.pos(start).0;
    let mut at = skip_generics(scan, kw_si + 1, to);
    // Collect the type expression up to `{`, restarting after `for`.
    let mut ty_from = at;
    let mut depth = 0usize;
    while at < to {
        let text = scan.text(at);
        match text {
            b"(" | b"[" | b"<" => depth += 1,
            b")" | b"]" => depth = depth.saturating_sub(1),
            b">" if !(at > 0 && scan.is_punct(at - 1, b'-')) => depth = depth.saturating_sub(1),
            b"for" if depth == 0 => ty_from = at + 1,
            b"where" if depth == 0 => break,
            b"{" if depth == 0 => break,
            _ => {}
        }
        at += 1;
    }
    let ty_to = at;
    // Skip a `where` clause.
    while at < to && !scan.is_punct(at, b'{') {
        at += 1;
    }
    if !scan.is_punct(at, b'{') {
        return None;
    }
    let close = scan.match_delim(at)?;
    let self_type = last_path_segment(scan, ty_from, ty_to);
    let children = parse_range(scan, at + 1, close.min(to));
    Some(Item {
        kind: ItemKind::Impl {
            self_type,
            items: children,
        },
        name: String::new(),
        span: (start, (close + 1).min(to)),
        line,
    })
}

/// The last path segment of a type expression before its generic
/// arguments: `poison::Guard<'a>` → `Guard`; empty when the range holds
/// no identifier path (references are skipped).
fn last_path_segment(scan: &FileScan<'_>, from: usize, to: usize) -> String {
    let mut last = String::new();
    let mut si = from;
    while si < to {
        if scan.is_punct(si, b'<') {
            break;
        }
        if scan.is_any_ident(si) && !scan.is_ident(si, b"dyn") && !scan.is_ident(si, b"mut") {
            last = String::from_utf8_lossy(scan.text(si)).into_owned();
        }
        si += 1;
    }
    last
}

/// `struct Name<…> { fields } | (…); | ;`.
fn parse_struct(scan: &FileScan<'_>, start: usize, kw_si: usize, to: usize) -> Option<Item> {
    let name = ident_text(scan, kw_si + 1);
    if name.is_empty() {
        return None;
    }
    let line = scan.pos(start).0;
    let mut at = skip_generics(scan, kw_si + 2, to);
    // Skip a `where` clause (bounded walk to `{`, `(`, or `;`).
    while at < to
        && !scan.is_punct(at, b'{')
        && !scan.is_punct(at, b'(')
        && !scan.is_punct(at, b';')
    {
        at += 1;
    }
    if scan.is_punct(at, b'{') {
        let close = scan.match_delim(at)?;
        let mut fields = Vec::new();
        for (ff, ft) in split_top_commas(scan, at + 1, close) {
            parse_field(scan, ff, ft, &mut fields);
        }
        Some(Item {
            kind: ItemKind::Struct { fields },
            name,
            span: (start, (close + 1).min(to)),
            line,
        })
    } else if scan.is_punct(at, b'(') {
        // Tuple struct: fields are unnamed, skip to the `;`.
        let close = scan.match_delim(at)?;
        let end = if scan.is_punct(close + 1, b';') {
            close + 2
        } else {
            close + 1
        };
        Some(Item {
            kind: ItemKind::Struct { fields: Vec::new() },
            name,
            span: (start, end.min(to)),
            line,
        })
    } else {
        // Unit struct `struct Name;`.
        Some(Item {
            kind: ItemKind::Struct { fields: Vec::new() },
            name,
            span: (start, (at + 1).min(to)),
            line,
        })
    }
}

/// One field range: `#[attr] pub name: Type`.
fn parse_field(scan: &FileScan<'_>, from: usize, to: usize, out: &mut Vec<Field>) {
    let mut at = from;
    while let Some((_, close, _)) = scan.attr_at(at) {
        at = close + 1;
    }
    at = skip_visibility(scan, at);
    if !scan.is_any_ident(at) || !scan.is_punct(at + 1, b':') {
        return;
    }
    let name = String::from_utf8_lossy(scan.text(at)).into_owned();
    let ty = type_text(scan, at + 2, to);
    if !ty.is_empty() {
        out.push(Field { name, ty });
    }
}

/// `use a::b::{c, d::e};` — expands groups into one full path per leaf.
fn parse_use(scan: &FileScan<'_>, start: usize, kw_si: usize, to: usize) -> Option<Item> {
    let line = scan.pos(start).0;
    // Find the terminating `;` at top level.
    let mut depth = 0usize;
    let mut semi = kw_si + 1;
    while semi < to {
        let text = scan.text(semi);
        match text {
            b"{" => depth += 1,
            b"}" => depth = depth.saturating_sub(1),
            b";" if depth == 0 => break,
            _ => {}
        }
        semi += 1;
    }
    let mut paths = Vec::new();
    expand_use(scan, kw_si + 1, semi, "", &mut paths, 0);
    Some(Item {
        kind: ItemKind::Use { paths },
        name: String::new(),
        span: (start, (semi + 1).min(to).max(kw_si + 2)),
        line,
    })
}

/// Recursively expands one use-tree range under `prefix`.
fn expand_use(
    scan: &FileScan<'_>,
    from: usize,
    to: usize,
    prefix: &str,
    out: &mut Vec<String>,
    fuel: usize,
) {
    if fuel > 8 {
        return; // pathological nesting in garbage input
    }
    let mut segs: Vec<String> = Vec::new();
    let mut si = from;
    while si < to {
        if scan.is_any_ident(si) || scan.is_punct(si, b'*') {
            segs.push(String::from_utf8_lossy(scan.text(si)).into_owned());
            si += 1;
        } else if scan.is_punct(si, b':') {
            si += 1; // path separators
        } else if scan.is_punct(si, b'{') {
            let close = match scan.match_delim(si) {
                Some(c) => c.min(to),
                None => to,
            };
            let new_prefix = join_path(prefix, &segs);
            for (gf, gt) in split_top_commas(scan, si + 1, close) {
                expand_use(scan, gf, gt, &new_prefix, out, fuel + 1);
            }
            return;
        } else {
            si += 1; // `as alias` and anything else: skip
        }
    }
    let full = join_path(prefix, &segs);
    if !full.is_empty() {
        out.push(full);
    }
}

/// Joins a prefix and path segments with `::`.
fn join_path(prefix: &str, segs: &[String]) -> String {
    let tail = segs.join("::");
    if prefix.is_empty() {
        tail
    } else if tail.is_empty() {
        prefix.to_owned()
    } else {
        format!("{prefix}::{tail}")
    }
}

/// Depth-first walk over an item tree, visiting every `fn` with the
/// innermost enclosing impl's `Self` type (or `None` for free fns).
pub fn walk_fns<'a>(
    items: &'a [Item],
    visit: &mut dyn FnMut(&'a Item, &'a FnSig, Option<&'a str>),
) {
    walk_fns_in(items, None, visit);
}

fn walk_fns_in<'a>(
    items: &'a [Item],
    self_type: Option<&'a str>,
    visit: &mut dyn FnMut(&'a Item, &'a FnSig, Option<&'a str>),
) {
    for item in items {
        match &item.kind {
            ItemKind::Fn(sig) => visit(item, sig, self_type),
            ItemKind::Module { items } => walk_fns_in(items, None, visit),
            ItemKind::Impl { self_type, items } => {
                let st = (!self_type.is_empty()).then_some(self_type.as_str());
                walk_fns_in(items, st, visit);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> Vec<Item> {
        let scan = FileScan::new(src.as_bytes());
        parse_items(&scan)
    }

    #[test]
    fn fn_signature_with_ret_and_params() {
        let items =
            parse("pub fn load(&self, path: &Path, n: usize) -> io::Result<Vec<u8>> { body() }");
        assert_eq!(items.len(), 1);
        let ItemKind::Fn(sig) = &items[0].kind else {
            panic!("expected fn, got {:?}", items[0].kind);
        };
        assert_eq!(items[0].name, "load");
        assert!(sig.has_self);
        assert_eq!(
            sig.params,
            vec![
                ("path".to_owned(), "&Path".to_owned()),
                ("n".to_owned(), "usize".to_owned())
            ]
        );
        assert_eq!(sig.ret.as_deref(), Some("io::Result<Vec<u8>>"));
        assert!(sig.body.is_some());
    }

    #[test]
    fn generic_fn_with_where_clause() {
        let items = parse("fn pick<T: Ord>(xs: &[T]) -> Option<&T> where T: Clone { xs.first() }");
        let ItemKind::Fn(sig) = &items[0].kind else {
            panic!("expected fn");
        };
        assert_eq!(sig.ret.as_deref(), Some("Option<&T>"));
        assert!(sig.body.is_some());
    }

    #[test]
    fn impl_block_yields_self_type_and_methods() {
        let items = parse(
            "impl<'a> fmt::Display for poison::Guard<'a> { fn fmt(&self) -> fmt::Result { ok() } }",
        );
        let ItemKind::Impl {
            self_type,
            items: kids,
        } = &items[0].kind
        else {
            panic!("expected impl");
        };
        assert_eq!(self_type, "Guard");
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].name, "fmt");
    }

    #[test]
    fn struct_fields_are_typed() {
        let items = parse(
            "pub struct Hub { pub conn: Arc<Conn>, count: u64, #[serde(skip)] state: Mutex<State> }",
        );
        let ItemKind::Struct { fields } = &items[0].kind else {
            panic!("expected struct");
        };
        assert_eq!(
            fields
                .iter()
                .map(|f| (f.name.as_str(), f.ty.as_str()))
                .collect::<Vec<_>>(),
            vec![
                ("conn", "Arc<Conn>"),
                ("count", "u64"),
                ("state", "Mutex<State>")
            ]
        );
    }

    #[test]
    fn use_groups_expand_to_full_paths() {
        let items = parse("use std::collections::{HashMap, btree_map::Entry};");
        let ItemKind::Use { paths } = &items[0].kind else {
            panic!("expected use");
        };
        assert_eq!(
            paths,
            &vec![
                "std::collections::HashMap".to_owned(),
                "std::collections::btree_map::Entry".to_owned()
            ]
        );
    }

    #[test]
    fn modules_nest_and_spans_are_ordered() {
        let items = parse("mod outer { fn a() {} mod inner { fn b() {} } } fn c() {}");
        assert_eq!(items.len(), 2);
        let ItemKind::Module { items: kids } = &items[0].kind else {
            panic!("expected module");
        };
        assert_eq!(kids.len(), 2);
        assert!(
            items[0].span.1 <= items[1].span.0,
            "siblings must not overlap"
        );
        // Children nest inside the parent.
        for k in kids {
            assert!(k.span.0 >= items[0].span.0 && k.span.1 <= items[0].span.1);
        }
    }

    #[test]
    fn const_fn_vs_const_item() {
        let items = parse("const N: usize = 3; const fn f() -> usize { N }");
        assert!(matches!(items[0].kind, ItemKind::Other));
        assert!(matches!(items[1].kind, ItemKind::Fn(_)));
        assert_eq!(items[1].name, "f");
    }

    #[test]
    fn tuple_and_unit_structs_parse_without_fields() {
        let items = parse("struct Wrap(u32); struct Marker;");
        assert_eq!(items.len(), 2);
        for item in &items {
            let ItemKind::Struct { fields } = &item.kind else {
                panic!("expected struct");
            };
            assert!(fields.is_empty());
        }
    }

    #[test]
    fn garbage_recovers_and_keeps_parsing() {
        let items = parse("@@@ ; } fn ok() {} ]]] struct S { x: u8 }");
        assert!(items.iter().any(|i| i.name == "ok"));
        assert!(items.iter().any(|i| i.name == "S"));
    }

    #[test]
    fn walk_fns_carries_impl_context() {
        let items = parse(
            "fn free() {} impl Hub { fn method(&self) {} } mod m { impl Relay { fn pump(&self) {} } }",
        );
        let mut seen = Vec::new();
        walk_fns(&items, &mut |item, _, self_ty| {
            seen.push((item.name.clone(), self_ty.map(str::to_owned)));
        });
        assert_eq!(
            seen,
            vec![
                ("free".to_owned(), None),
                ("method".to_owned(), Some("Hub".to_owned())),
                ("pump".to_owned(), Some("Relay".to_owned())),
            ]
        );
    }
}
