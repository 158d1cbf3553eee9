#!/usr/bin/env bash
# Repo CI gate. Run from the repo root before pushing:
#
#   ./ci.sh            # full gate: format, lints, build, every test
#   ./ci.sh --quick    # skip the release build (iteration loop)
#
# Everything here runs offline against the vendored workspace (the
# proptest/criterion shims in crates/ — no network, no external deps).
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[ "${1:-}" = "--quick" ] && quick=1

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Protocol-invariant lint (crates/lint): the per-file textual rules plus
# the call-graph semantic passes — PANIC-REACH (no panic reachable from a
# protocol entry point), SECRET-FLOW (key material never reaches a
# formatting/observability sink), ALLOC-HOT (allocation discipline on the
# fixed-limb kernel path and the evidence hot loop; subsumes the old
# limbs.rs allocation grep and the E4 deep-copy grep). The binary exits
# nonzero on any finding not justified in lint-allow.toml AND on stale
# allowlist entries, so no wrapper grep is needed. Full mode also writes
# the SARIF artifact code-scanning UIs ingest.
echo "==> tpnr-lint (rules + semantic passes)"
if [ "$quick" -eq 0 ]; then
    mkdir -p target/artifacts
    cargo run -q -p tpnr-lint -- --sarif target/artifacts/lint.sarif
    echo "    sarif: target/artifacts/lint.sarif"
else
    cargo run -q -p tpnr-lint
fi

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# Bench targets have `test = false` (the criterion shim runs no harness),
# so the test sweep above never compiles them — check they still build.
echo "==> cargo check --benches --workspace"
cargo check --benches --workspace

# The E4 perf exhibit must stay machine-readable and copy-free: emit the
# quick sweep (≤ 1 MiB payloads) and re-validate it with the JSONL checker.
echo "==> experiments --bench-e4 --quick"
bench_e4="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e4 "$bench_e4" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e4"
rm -f "$bench_e4"

# Chaos smoke: the E8 sweep must stay machine-readable, and no crashed run
# may lose sealed evidence — "limbo"/"evidence_loss" must be 0 in every row.
echo "==> experiments --bench-e8 --quick"
bench_e8="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e8 "$bench_e8" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e8"
if grep -Eq '"(limbo|evidence_loss)":[1-9]' "$bench_e8"; then
    echo "error: chaos sweep reported evidence-less limbo" >&2
    exit 1
fi
rm -f "$bench_e8"

# Scale smoke: the E10 sweep must stay machine-readable, the delivery
# conservation law (delivered + dropped == sent + duplicated) must hold in
# every lane, and eviction to the archive may never lose evidence —
# "conservation_violations"/"evidence_loss" must be 0 in every row, and
# "evicted" must be non-zero (the bounded-memory path actually engaged).
echo "==> experiments --bench-e10 --quick"
bench_e10="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e10 "$bench_e10" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e10"
if grep -Eq '"(conservation_violations|evidence_loss)":[1-9]' "$bench_e10"; then
    echo "error: scale sweep broke conservation or lost evidence" >&2
    exit 1
fi
if grep -q '"evicted":0,' "$bench_e10"; then
    echo "error: scale sweep never evicted — bounded-memory path untested" >&2
    exit 1
fi
rm -f "$bench_e10"

# RSA-kernel smoke: the E12 sweep must stay machine-readable, batch
# verification must not be slower than serial at n=64, signing must stay
# under the recorded per-width floors (both booleans are computed by the
# measurement code itself), and a tampered batch member must be attributed.
echo "==> experiments --bench-e12 --quick"
bench_e12="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e12 "$bench_e12" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e12"
if grep -Eq '"(batch_not_slower|sign_floor_ok|tampered_attributed)":false' "$bench_e12"; then
    echo "error: E12 kernel sweep failed a perf/soundness gate" >&2
    grep -E '"(batch_not_slower|sign_floor_ok|tampered_attributed)":false' "$bench_e12" >&2
    exit 1
fi
rm -f "$bench_e12"

# Work-stealing smoke: the E13 worker sweep must stay machine-readable,
# every worker count must reproduce the serial run byte-for-byte in the
# non-timing fields ("deterministic_vs_serial"), meet its honest
# core-scaled speedup floor ("scaling_ok" — both booleans are computed by
# the measurement code itself), and the usual E10 conservation/evidence
# laws must hold in every row.
echo "==> experiments --bench-e13 --quick"
bench_e13="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e13 "$bench_e13" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e13"
if grep -Eq '"(scaling_ok|deterministic_vs_serial)":false' "$bench_e13"; then
    echo "error: E13 worker sweep failed a scaling/determinism gate" >&2
    grep -E '"(scaling_ok|deterministic_vs_serial)":false' "$bench_e13" >&2
    exit 1
fi
if grep -Eq '"(conservation_violations|evidence_loss)":[1-9]' "$bench_e13"; then
    echo "error: E13 worker sweep broke conservation or lost evidence" >&2
    exit 1
fi
rm -f "$bench_e13"

# Transport smoke: the E14 backend comparison must stay machine-readable,
# and the same protocol code must hold the delivery conservation law, lose
# no evidence, and reject all five §5 attacks on every backend that ran
# ("attacks_ok" is computed by the measurement code; the tcp row may be
# "skipped" on hosts that refuse the loopback bind, but the simulator and
# the in-process channel wire must always run).
echo "==> experiments --bench-e14 --quick"
bench_e14="$(mktemp)"
cargo run -q -p tpnr-bench --bin experiments -- --bench-e14 "$bench_e14" --quick
cargo run -q -p tpnr-bench --bin experiments -- --validate-jsonl "$bench_e14"
if grep -Eq '"(conservation_violations|evidence_loss)":[1-9]' "$bench_e14"; then
    echo "error: E14 transport comparison broke conservation or lost evidence" >&2
    exit 1
fi
if grep -q '"attacks_ok":false' "$bench_e14"; then
    echo "error: E14 transport comparison let a §5 attack through" >&2
    grep '"attacks_ok":false' "$bench_e14" >&2
    exit 1
fi
# JSONL rows are single lines, so `.*` stays within one row. The gate's
# own self-check: the pattern must match a synthetic skipped-channel row.
e14_skipped='"backend":"(simnet|channel)".*"skipped":true'
e14_skipped_row='{"kind":"e14","backend":"channel","txns":0,"conservation_violations":0,"skipped":true}'
if ! grep -Eq "$e14_skipped" <<<"$e14_skipped_row"; then
    echo "error: the E14 skipped-backend gate cannot match a skipped row" >&2
    exit 1
fi
if grep -Eq "$e14_skipped" "$bench_e14"; then
    echo "error: an in-process E14 backend was skipped" >&2
    exit 1
fi
rm -f "$bench_e14"

if [ "$quick" -eq 0 ]; then
    # The observability export must stay machine-readable: produce a trace
    # and re-validate it with the binary's own JSONL checker.
    echo "==> experiments --trace-jsonl / --validate-jsonl"
    trace="$(mktemp)"
    trap 'rm -f "$trace"' EXIT
    cargo run --release -q -p tpnr-bench --bin experiments -- --trace-jsonl "$trace"
    cargo run --release -q -p tpnr-bench --bin experiments -- --validate-jsonl "$trace"
fi

echo "CI green."
