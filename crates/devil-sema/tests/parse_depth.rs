//! Hostile nesting ends in `E-PARSE-DEPTH`, not a stack overflow.
//!
//! Each input is the 8259A spec with one part of its serialization
//! order blown up: its `if` condition wrapped in 10,000 parentheses, a
//! 30,000-term `||` chain, or 100,000 nested `{ }` groups. Each runs
//! through `check_source` on a default test thread. The trees the
//! limit still admits, up to twice [`MAX_DEPTH`] deep, check cleanly on
//! the same thread. The diagnostics of the one-line inputs render in a
//! few KB, not in the length of the line.

use devil_syntax::parser::MAX_DEPTH;
use devil_syntax::span::SourceMap;
use devil_syntax::ErrorCode;

const PIC8259: &str = include_str!("../../../specs/pic8259.dil");
const GUARD: &str = "if (sngl == CASCADED) icw3;";

/// The 8259A spec with its `sngl` guard item replaced by `item`.
fn pic_with(item: &str) -> String {
    assert!(PIC8259.contains(GUARD));
    PIC8259.replacen(GUARD, item, 1)
}

/// `n` nested parentheses around `inner`.
fn parens(n: usize, inner: &str) -> String {
    format!("{}{inner}{}", "(".repeat(n), ")".repeat(n))
}

/// A `||` chain of `n` guard terms.
fn chain(n: usize) -> String {
    vec!["sngl == CASCADED"; n].join(" || ")
}

fn assert_depth_error(src: &str) {
    let diags = devil_sema::check_source(src, &[]).expect_err("rejected");
    assert!(
        diags.has_code(ErrorCode::ParseDepth),
        "no E-PARSE-DEPTH among {:?}",
        diags.all().iter().map(|d| d.code).collect::<Vec<_>>()
    );
}

#[test]
fn ten_thousand_nested_parentheses_end_in_a_depth_error() {
    assert_depth_error(&pic_with(&format!("if {} icw3;", parens(10_000, "sngl == CASCADED"))));
}

#[test]
fn a_thirty_thousand_term_chain_ends_in_a_depth_error() {
    assert_depth_error(&pic_with(&format!("if ({}) icw3;", chain(30_000))));
}

#[test]
fn a_hundred_thousand_nested_braces_end_in_a_depth_error() {
    let n = 100_000;
    assert_depth_error(&pic_with(&format!("{}{GUARD}{}", "{ ".repeat(n), " }".repeat(n))));
}

#[test]
fn the_diagnostics_of_a_long_line_render_in_a_few_kilobytes() {
    let braces = 100_000;
    for item in [
        format!("if ({}) icw3;", chain(30_000)),
        format!("{}{GUARD}{}", "{ ".repeat(braces), " }".repeat(braces)),
    ] {
        let src = pic_with(&item);
        let diags = devil_sema::check_source(&src, &[]).expect_err("rejected");
        let rendered = diags.render_all(&SourceMap::new("pic8259.dil", src.as_str()));
        assert!(rendered.len() < 4_096, "{} bytes:\n{rendered}", rendered.len());
    }
}

#[test]
fn the_depth_limit_is_exact() {
    // The `if` takes one level, each parenthesis inside its own one
    // more: `if` and n parentheses nest n deep.
    let levels = MAX_DEPTH as usize;
    let at_limit = pic_with(&format!("if {} icw3;", parens(levels, "sngl == CASCADED")));
    assert!(devil_sema::check_source(&at_limit, &[]).is_ok());
    assert_depth_error(&pic_with(&format!("if {} icw3;", parens(levels + 1, "sngl == CASCADED"))));
    let braces = MAX_DEPTH as usize;
    let at_limit =
        pic_with(&format!("{}{GUARD}{}", "{ ".repeat(braces - 1), " }".repeat(braces - 1)));
    assert!(devil_sema::check_source(&at_limit, &[]).is_ok());
    assert_depth_error(&pic_with(&format!(
        "{}{GUARD}{}",
        "{ ".repeat(braces),
        " }".repeat(braces)
    )));
}

#[test]
fn a_long_chain_leaves_the_full_depth_to_the_bodies_after_it() {
    // The chain's levels end with its condition: the body of an `if`
    // starts one level below the `if` however long the chain was.
    let cond = chain(MAX_DEPTH as usize - 1);
    // Serialization: the `if`, n braces and the guard's `if` nest n + 2
    // deep.
    let ser =
        |n: usize| pic_with(&format!("if ({cond}) {}{GUARD}{}", "{ ".repeat(n), " }".repeat(n)));
    let levels = MAX_DEPTH as usize - 2;
    assert!(devil_sema::check_source(&ser(levels), &[]).is_ok());
    assert_depth_error(&ser(levels + 1));
    // Declarations: the outer `if` and n inner ones nest n + 1 deep.
    let decl = |n: usize| {
        let inner = "if (sngl == CASCADED) { ".repeat(n);
        let src = PIC8259.replacen(
            "  structure init",
            &format!("if ({cond}) {{ {inner}{} structure init", "} ".repeat(n + 1)),
            1,
        );
        devil_syntax::parse(&src).1.has_code(ErrorCode::ParseDepth)
    };
    assert!(!decl(MAX_DEPTH as usize - 1));
    assert!(decl(MAX_DEPTH as usize));
}

#[test]
fn the_deepest_tree_the_limit_admits_checks_on_a_test_thread() {
    // A first term of `!` nodes nested to the limit, then a chain to
    // the limit: its leftmost leaf sits about 2 × MAX_DEPTH nodes down
    // the tree (parentheses add levels but no nodes).
    let deep = format!("{}(sngl == CASCADED)", "!".repeat(MAX_DEPTH as usize - 2));
    let rest = chain(MAX_DEPTH as usize - 1);
    let src = pic_with(&format!("if ({deep} || {rest}) icw3;"));
    let checked = devil_sema::check_source(&src, &[]);
    assert!(checked.is_ok(), "{:?}", checked.err().map(|d| d.all().to_vec()));
}
