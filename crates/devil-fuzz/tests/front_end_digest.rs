//! One digest over everything the front end says about a fixed input
//! set: the 13 library specs and `sampled_corpus(1)`'s mutants.
//!
//! For each source the digest folds in every diagnostic that
//! `check_source_with_warnings` reports (code, level, span, message and
//! notes, in order) and, when the parse is accepted, the canonical
//! `pretty::print_device` text of the tree. A change to the lexer, the
//! parser, the AST, the printer or the checker's diagnostics that moves
//! any of these moves the digest; a pure refactor must leave it alone.

use devil_syntax::diag::Diagnostic;
use devil_syntax::pretty::print_device;
use std::fmt::Write;

/// The digest at the time the front end's behaviour was pinned.
const DIGEST: u64 = 0xb4af_ec92_03ad_e80e;

/// FNV-1a over everything written into it.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

fn fold_diag(h: &mut Fnv, d: &Diagnostic) {
    write!(h, "{}|{}|{:?}|{}", d.code, d.level, d.span, d.message).unwrap();
    for (msg, span) in &d.notes {
        write!(h, "|note {msg} {span:?}").unwrap();
    }
    h.write_char('\n').unwrap();
}

fn fold_source(h: &mut Fnv, src: &str) {
    let (_, diags) = devil_sema::check_source_with_warnings(src, &[]);
    for d in diags.all() {
        fold_diag(h, d);
    }
    let (device, parse_diags) = devil_syntax::parse(src);
    match device.filter(|_| !parse_diags.has_errors()) {
        Some(device) => h.write_str(&print_device(&device)).unwrap(),
        None => h.write_str("<rejected by the parser>").unwrap(),
    }
    h.write_str("\n--\n").unwrap();
}

#[test]
fn front_end_output_over_specs_and_mutants_is_pinned() {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let library = drivers::specs::ALL.iter().chain(devil_fuzz::synthetic::ALL);
    let mut sources = 0usize;
    for &(_, src) in library {
        fold_source(&mut h, src);
        sources += 1;
    }
    assert_eq!(sources, 13, "library size changed");
    let mutants = devil_fuzz::corpus::sampled_corpus(1);
    assert_eq!(mutants.len(), 895, "mutant sample changed");
    for m in &mutants {
        fold_source(&mut h, m);
    }
    assert_eq!(h.0, DIGEST, "front-end digest moved: {:#018x}", h.0);
}
