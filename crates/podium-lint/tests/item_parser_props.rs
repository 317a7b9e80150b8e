//! Property tests for the item parser, enforcing the invariants its
//! module docs promise:
//!
//! 1. `parse_items` never panics on arbitrary bytes — the parser is
//!    total, recovering from any garbage by skipping tokens;
//! 2. item spans are sane: in significant-index bounds, half-open and
//!    non-empty, monotonically ordered and non-overlapping among
//!    siblings, with children strictly inside their parent's span;
//! 3. generated well-formed sources round-trip: every planted item is
//!    found with its name, kind and (for fns) self/return shape.

use podium_lint::items::{parse_items, walk_fns, Item, ItemKind};
use podium_lint::scan::FileScan;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Asserts span sanity for `items` and recursively for their children.
/// `lo..hi` is the significant-index window the items must live in.
fn check_spans(items: &[Item], lo: usize, hi: usize) -> Result<(), TestCaseError> {
    let mut prev_end = lo;
    for item in items {
        let (start, end) = item.span;
        prop_assert!(start < end, "empty span {:?} on {:?}", item.span, item.name);
        prop_assert!(start >= prev_end, "overlap/regression at {:?}", item.name);
        prop_assert!(end <= hi, "span {:?} escapes window {lo}..{hi}", item.span);
        match &item.kind {
            ItemKind::Module { items: children }
            | ItemKind::Impl {
                items: children, ..
            } => {
                // Children sit strictly inside the parent (the parent's
                // keyword precedes them and its closing brace follows).
                check_spans(children, start + 1, end)?;
            }
            _ => {}
        }
        prev_end = end;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic_and_spans_stay_sane(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        let scan = FileScan::new(&bytes);
        let items = parse_items(&scan);
        check_spans(&items, 0, scan.sig.len())?;
    }

    #[test]
    fn rust_flavored_token_soup_never_panics(
        words in prop::collection::vec(0usize..TOKENS.len(), 0..200),
    ) {
        // Keyword-heavy soup exercises the recovery paths far harder
        // than uniform random bytes, which rarely spell `impl`.
        let src: String = words
            .iter()
            .map(|&w| TOKENS[w])
            .collect::<Vec<_>>()
            .join(" ");
        let scan = FileScan::new(src.as_bytes());
        let items = parse_items(&scan);
        check_spans(&items, 0, scan.sig.len())?;
    }

    #[test]
    fn planted_items_round_trip(specs in prop::collection::vec(0u8..5, 1..12)) {
        let mut src = String::new();
        for (i, sel) in specs.iter().enumerate() {
            src.push_str(&render_item(*sel, i));
            src.push('\n');
        }
        let scan = FileScan::new(src.as_bytes());
        let items = parse_items(&scan);
        check_spans(&items, 0, scan.sig.len())?;
        prop_assert_eq!(items.len(), specs.len(), "source was: {}", src);
        for (i, (sel, item)) in specs.iter().zip(&items).enumerate() {
            // Impls carry their type in the kind, not the name.
            if *sel == 2 {
                let ItemKind::Impl { self_type, .. } = &item.kind else {
                    return Err(TestCaseError::fail(format!("item {i} not an impl in: {src}")));
                };
                prop_assert_eq!(self_type, "Widget", "item {i} in: {}", src);
            } else {
                let want = expected_name(*sel, i);
                prop_assert_eq!(&item.name, &want, "item {i} in: {}", src);
            }
        }
        // Every planted fn — free or in an impl — is visited with the
        // right self-type context and return type.
        let mut seen = Vec::new();
        walk_fns(&items, &mut |_, sig, self_type| {
            seen.push((sig.ret.clone(), self_type.map(str::to_owned)));
        });
        let want: Vec<_> = specs
            .iter()
            .filter_map(|&sel| match sel {
                0 => Some((None, None)),
                1 => Some((Some("io::Result<()>".to_owned()), None)),
                2 => Some((Some("u64".to_owned()), Some("Widget".to_owned()))),
                _ => None,
            })
            .collect();
        prop_assert_eq!(seen, want, "source was: {}", src);
    }
}

/// Tokens for the keyword-soup generator: every item keyword, the
/// delimiters the parser matches, and some glue.
const TOKENS: &[&str] = &[
    "fn", "impl", "struct", "mod", "use", "pub", "const", "extern", "for", "where", "self", "<",
    ">", "{", "}", "(", ")", ";", ",", "::", "->", "=", "#", "[", "]", "x", "Type", "'a", "&",
    "mut", "dyn", "unsafe", "async", "crate", "trait", "enum", "let",
];

/// Renders one well-formed top-level item; `i` uniquifies the name.
fn render_item(sel: u8, i: usize) -> String {
    match sel {
        0 => format!("fn free{i}(x: u32) {{ body(); }}"),
        1 => format!("pub fn fall{i}(path: &Path) -> io::Result<()> {{ body() }}"),
        2 => format!("impl Widget {{ pub fn m{i}(&self, k: usize) -> u64 {{ 0 }} }}"),
        3 => format!("pub struct S{i} {{ pub a: Mutex<u32>, b: Arc<Conn> }}"),
        _ => format!("mod inner{i} {{ }}"),
    }
}

/// The name the parser must report for `render_item(sel, i)` — not
/// called for impls (sel 2), whose type is checked via the kind.
fn expected_name(sel: u8, i: usize) -> String {
    match sel {
        0 => format!("free{i}"),
        1 => format!("fall{i}"),
        3 => format!("S{i}"),
        _ => format!("inner{i}"),
    }
}
