//! The byte-deterministic exports, pinned: the `--trace-jsonl` trace, the
//! `--bench-e8 --quick` rows and the §5 attack matrix (E3: each row's
//! attack, protocol variant, `blocked` and full detail) must equal the
//! golden files beside this test byte for byte. A change that alters one
//! on purpose regenerates its file and says why in CHANGES.md:
//!
//! ```text
//! E="cargo run --release -q -p tpnr-bench --bin experiments --"
//! $E --trace-jsonl crates/bench/tests/trace_2026.jsonl
//! $E --bench-e8 crates/bench/tests/e8_quick.jsonl --quick
//! $E --e3-matrix crates/bench/tests/e3_matrix.tsv
//! ```

use tpnr_bench::report::jsonl;
use tpnr_bench::{e3_matrix_text, e8_chaos, trace_jsonl};

/// Fails naming the first line where `actual` departs from `golden`.
fn assert_matches_golden(actual: &str, golden: &str, file: &str) {
    if actual == golden {
        return;
    }
    let mismatch = actual.lines().zip(golden.lines()).position(|(a, g)| a != g);
    let line = mismatch.unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
    panic!(
        "{file} differs from the export at line {}:\n  export: {}\n  golden: {}",
        line + 1,
        actual.lines().nth(line).unwrap_or("<end of export>"),
        golden.lines().nth(line).unwrap_or("<end of golden file>"),
    );
}

#[test]
fn the_trace_export_matches_its_golden_file() {
    assert_matches_golden(&trace_jsonl(2026), include_str!("trace_2026.jsonl"), "trace_2026.jsonl");
}

#[test]
fn the_quick_e8_export_matches_its_golden_file() {
    let rows = jsonl(&e8_chaos(&[0, 150, 300], 10));
    assert_matches_golden(&rows, include_str!("e8_quick.jsonl"), "e8_quick.jsonl");
}

#[test]
fn the_attack_matrix_matches_its_golden_file() {
    assert_matches_golden(&e3_matrix_text(), include_str!("e3_matrix.tsv"), "e3_matrix.tsv");
}
