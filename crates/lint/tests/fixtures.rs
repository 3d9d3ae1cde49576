//! Fixture-based rule tests: each `*_bad.rs` fixture trips exactly its
//! rule, each `*_ok.rs` twin is clean, and the path-based exemptions
//! (wall module, anr-par, binaries, test code) hold.
//!
//! Fixtures live in `tests/fixtures/` — a directory the workspace
//! walker deliberately skips, so the bad ones never show up in a real
//! lint run.

use anr_lint::scan_source;

/// Distinct rule ids tripped by scanning `src` as `rel_path`.
fn rules_at(rel_path: &str, src: &str) -> Vec<&'static str> {
    let mut rules: Vec<_> = scan_source(rel_path, src).iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

/// The bad fixture trips exactly `rule` (at `bad_path`); the ok fixture
/// is clean at the same path.
fn check_pair(rule: &str, bad_path: &str, bad: &str, ok: &str) {
    assert_eq!(
        rules_at(bad_path, bad),
        vec![rule],
        "bad fixture for {rule} should trip exactly {rule}"
    );
    assert_eq!(
        rules_at(bad_path, ok),
        Vec::<&str>::new(),
        "ok fixture for {rule} should be clean"
    );
}

const LIB: &str = "crates/core/src/fixture.rs";

#[test]
fn d1_hash_collections() {
    let bad = include_str!("fixtures/d1_bad.rs");
    check_pair("D1", LIB, bad, include_str!("fixtures/d1_ok.rs"));
    // The identical code is fine in a test target.
    assert!(rules_at("crates/core/tests/fixture.rs", bad).is_empty());
}

#[test]
fn d2_wall_clock() {
    let bad = include_str!("fixtures/d2_bad.rs");
    check_pair("D2", LIB, bad, include_str!("fixtures/d2_ok.rs"));
    // The trace crate's wall module is the one sanctioned reader.
    assert!(rules_at("crates/trace/src/wall.rs", bad).is_empty());
}

#[test]
fn d3_raw_threads() {
    let bad = include_str!("fixtures/d3_bad.rs");
    check_pair("D3", LIB, bad, include_str!("fixtures/d3_ok.rs"));
    // anr-par is where threads are allowed to live.
    assert!(rules_at("crates/par/src/pool.rs", bad).is_empty());
}

#[test]
fn d4_unseeded_rng() {
    check_pair(
        "D4",
        LIB,
        include_str!("fixtures/d4_bad.rs"),
        include_str!("fixtures/d4_ok.rs"),
    );
}

#[test]
fn p1_library_panics() {
    let bad = include_str!("fixtures/p1_bad.rs");
    check_pair("P1", LIB, bad, include_str!("fixtures/p1_ok.rs"));
    // Binaries may fail fast; the rule is library-only.
    assert!(rules_at("crates/cli/src/fixture.rs", bad).is_empty());
}

#[test]
fn f1_partial_cmp_unwrap() {
    // Checked at a binary path so the P1 overlap stays out of the way;
    // at a library path the same code trips F1 *and* P1.
    let bad = include_str!("fixtures/f1_bad.rs");
    check_pair(
        "F1",
        "crates/cli/src/fixture.rs",
        bad,
        include_str!("fixtures/f1_ok.rs"),
    );
    assert_eq!(rules_at(LIB, bad), vec!["F1", "P1"]);
}

#[test]
fn t1_span_guards_and_twins() {
    check_pair(
        "T1",
        LIB,
        include_str!("fixtures/t1_span_bad.rs"),
        include_str!("fixtures/t1_ok.rs"),
    );
    check_pair(
        "T1",
        LIB,
        include_str!("fixtures/t1_twin_bad.rs"),
        include_str!("fixtures/t1_ok.rs"),
    );
    // The span-guard fixture has two drop sites: the bare statement and
    // the `let _ =` binding.
    let hits = scan_source(LIB, include_str!("fixtures/t1_span_bad.rs"));
    assert_eq!(hits.len(), 2);
}

#[test]
fn h1_crate_headers() {
    // H1 only fires on crate roots, so the pair runs at src/lib.rs.
    let bad = include_str!("fixtures/h1_bad.rs");
    check_pair(
        "H1",
        "crates/core/src/lib.rs",
        bad,
        include_str!("fixtures/h1_ok.rs"),
    );
    // Non-root modules are exempt.
    assert!(rules_at(LIB, bad).is_empty());
}

#[test]
fn binary_heap_with_custom_ord_is_clean() {
    // The discrete-event queue idiom — a BinaryHeap over a manual
    // key-only Ord — must not trip any rule at a library path: heaps
    // are ordered (D1 is about hash maps), and an integer-keyed total
    // order has no partial_cmp unwrap (F1) or panic path (P1).
    let src = include_str!("fixtures/heap_ord_ok.rs");
    assert!(rules_at(LIB, src).is_empty());
    // Same verdict inside the simulator crate.
    assert!(rules_at("crates/distsim/src/fixture.rs", src).is_empty());
}

#[test]
fn findings_carry_positions_and_hints() {
    let hits = scan_source(LIB, include_str!("fixtures/p1_bad.rs"));
    assert!(!hits.is_empty());
    for f in &hits {
        assert!(f.line > 0 && f.col > 0);
        assert!(!f.hint.is_empty());
        assert!(!f.baselined);
    }
}
