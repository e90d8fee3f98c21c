//! Synthetic specifications pinning the formerly-fallback guard-split
//! shapes: each names a structural access pattern that used to drop to
//! a general interpreter and now compiles to straight/guarded plans.
//!
//! They join the shipped spec library in the differential fuzz targets
//! (`tests/differential.rs`, `tests/fallback.rs`) and — where the plan
//! is emittable — the compiled-C oracle (`tests/compiled_diff.rs`).
//! CI's nightly `fuzz-extended` and `compiled-diff` jobs enumerate the
//! same lists at raised case counts.

/// A write order testing the variable being written: the reference
/// interpreter stores the bits before evaluating the condition, so the compiled
/// plan guards on the caller's *input* (`GuardSource::Input`) while the
/// skipped-flush variant stores the bits cache-only.
pub const SELF_TESTED: &str = r#"device selfw (base : bit[8] port @ {0..0}) {
    register a = write base @ 0 : bit[8];
    variable rest = a[7..1] : int(7);
    variable w = a[0] : bool serialized as { if (w == true) a; };
}"#;

/// A write order testing a private memory cell: the plan guards on the
/// cell (`GuardSource::Cell`). Cells store values masked to their
/// variable's width, so every cell value selects a variant.
pub const MEM_TESTED: &str = r#"device memw (base : bit[8] port @ {0..1}) {
    private variable m : bool;
    register a = write base @ 0 : bit[8];
    register c = write base @ 1 : bit[8];
    variable resta = a[7..1] : int(7);
    variable restc = c[7..1] : int(7);
    variable w = c[0] # a[0] : int(2) serialized as { a; if (m == true) c; };
}"#;

/// A nested conditional order reached through a pre-action: the
/// action assigns the tested field a constant, so the condition folds
/// statically and the whole access (struct flush + data read) compiles
/// to one straight-line plan.
pub const NESTED_ACTION: &str = r#"device nestedc (base : bit[8] port @ {0..2}) {
    register a = write base @ 0 : bit[8];
    register c = write base @ 1 : bit[8];
    structure s = {
      variable sel = a[0] : bool;
      variable rest = a[7..1] : int(7);
      variable v = c : int(8);
    } serialized as { a; if (sel == true) c; };
    register data = read base @ 2, pre {s = {sel => true; rest => 1; v => 2}} : bit[8];
    variable payload = data, volatile : int(8);
}"#;

/// A nested conditional whose tested field the action does *not*
/// assign: its entry-state value joins the outer guard enumeration, so
/// the read guard-splits on the cached `sel` bit.
pub const NESTED_ENTRY: &str = r#"device nestede (base : bit[8] port @ {0..2}) {
    register a = write base @ 0 : bit[8];
    register c = write base @ 1 : bit[8];
    structure s = {
      variable sel = a[0] : bool;
      variable rest = a[7..1] : int(7);
      variable v = c : int(8);
    } serialized as { a; if (sel == true) c; };
    register data = read base @ 2, pre {s = {rest => 1; v => 2}} : bit[8];
    variable payload = data, volatile : int(8);
}"#;

/// A nested conditional testing the *outer written variable*: register
/// `a`'s set action flushes the struct, whose order tests `w` — the
/// very variable being written. The discovered dimension sources w's
/// bits from the caller's input (they were stored before the nested
/// condition is evaluated), while `rest`'s write discovers the same
/// dimension as an entry-state (cache-sourced) guard.
pub const SELF_TESTED_ACTION: &str = r#"device selfact (base : bit[8] port @ {0..1}) {
    register a = write base @ 0, set {s = {v => 5}} : bit[8];
    register c = write base @ 1 : bit[8];
    structure s = {
      variable w = a[0] : bool;
      variable rest = a[7..1] : int(7);
      variable v = c : int(8);
    } serialized as { if (w == true) c; };
}"#;

/// Every synthetic spec, named like `drivers::specs::ALL`.
pub const ALL: &[(&str, &str)] = &[
    ("selfw", SELF_TESTED),
    ("memw", MEM_TESTED),
    ("nestedc", NESTED_ACTION),
    ("nestede", NESTED_ENTRY),
    ("selfact", SELF_TESTED_ACTION),
];
