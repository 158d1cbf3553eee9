#!/usr/bin/env bash
# Repo CI gate. Run from the repo root before pushing:
#
#   ./ci.sh            # full gate: format, lints, build, every test
#   ./ci.sh --quick    # skip the release build (iteration loop)
#
# Everything here runs offline against the vendored workspace (the
# proptest shim in crates/ — no network, no external deps). Full mode also
# runs every example: four of them assert their outcomes, and each one's
# stdout is compared with its golden file under tests/examples/.
set -euo pipefail
cd "$(dirname "$0")"

quick=0
[ "${1:-}" = "--quick" ] && quick=1

# A benchmark result (the last line `benchmark --workload W` prints)
# passes when it reports every check correct and no operation failed.
bench_result_ok() {
    grep -q '"correct":true' <<<"$1" && grep -Eq '"failed":0[,}]' <<<"$1"
}

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
# allowlist entries, so no wrapper grep is needed.
echo "==> tpnr-lint (rules + semantic passes)"
cargo run -q -p tpnr-lint

# Intra-doc links are checked like code: a deletion that leaves a link to
# a removed or private item fails here.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps

if [ "$quick" -eq 0 ]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# The allocation budgets may differ per profile, and the run above has
# debug assertions on, so the release budgets are gated here. The crypto
# crate's own tests run in release too: the hashes, the HMAC and the
# envelope build on wrapping arithmetic and fixed-size stack buffers that
# the debug run only exercises with overflow checks and debug assertions
# on. So do tpnr-par's: the CRT helper's job slot (crypto) and the
# fan-out count it reads (par) are atomics whose interleavings an
# optimized build reorders differently. And so do tpnr-net's: `TcpNet`'s
# reader threads, its arrival queue's `Condvar` and the `Bytes` copy
# counters are the other code whose interleavings an optimized build
# changes.
if [ "$quick" -eq 0 ]; then
    echo "==> cargo test --release -p tpnr-core --test alloc_budget"
    cargo test --release -q -p tpnr-core --test alloc_budget
    echo "==> cargo test --release -p tpnr-crypto -p tpnr-par -p tpnr-net"
    cargo test --release -q -p tpnr-crypto -p tpnr-par -p tpnr-net
fi

# perfbench/ is a workspace of its own (own lockfile, profile and target
# dir), so nothing above compiles it. It builds against the core runner API
# (`w.client`, `w.clients`, `with_principals_on`, …); build and test it here
# so an API break fails CI instead of the next benchmark run.
echo "==> cargo test --manifest-path perfbench/Cargo.toml"
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# Those tests build perfbench's test profile; the benchmark judges its
# release binary. Full mode builds that and runs each workload BENCHMARK.json
# names at --quick size, failing unless the result (the last line) reports
# every check correct and no operation failed.
if [ "$quick" -eq 0 ]; then
    cargo build -q --release --offline --manifest-path perfbench/Cargo.toml --bin benchmark
    for workload in session fleet tcp-ladder; do
        echo "==> perfbench benchmark --workload $workload --quick (release)"
        result="$(perfbench/target/release/benchmark --workload "$workload" --quick | tail -n 1)"
        if ! bench_result_ok "$result"; then
            echo "error: benchmark --workload $workload --quick: $result" >&2
            exit 1
        fi
    done
fi

# Experiment smoke: regenerate each JSONL exhibit at --quick size and run
# it through the binary's gate table (`experiments --check`, gates in
# crates/bench/src/report.rs). --check exits 1 naming every failed line,
# kind and gate, and also fails on a missing gate field, an unknown or
# missing kind, an unparsable line, or an empty file.
experiments=(cargo run -q -p tpnr-bench --bin experiments --)
for exhibit in e4 e8 e9 e10 e12 e13 e14 x1 platforms; do
    echo "==> experiments --bench-$exhibit --quick / --check"
    out="$(mktemp)"
    "${experiments[@]}" --bench-$exhibit "$out" --quick
    "${experiments[@]}" --check "$out"
    rm -f "$out"
done

# The committed artifacts must pass the same gates, so a regenerated one
# that fails cannot be committed unnoticed.
echo "==> experiments --check BENCH_e*.json"
for f in BENCH_e*.json; do
    "${experiments[@]}" --check "$f"
done

# The gate engine's own self-check: --check must exit 1 (not 0, and not a
# crash) on a row that fails a gate.
echo "==> experiments --check rejects a failing row"
bad="$(mktemp)"
echo '{"kind":"e14","backend":"channel","conservation_violations":0,"evidence_loss":0,"attacks_ok":true,"skipped":true}' >"$bad"
status=0
"${experiments[@]}" --check "$bad" 2>/dev/null || status=$?
rm -f "$bad"
if [ "$status" -ne 1 ]; then
    echo "error: experiments --check exited $status on a failing row, expected 1" >&2
    exit 1
fi

# The benchmark result check's own self-check: it must accept a passing
# result and reject one with a failed check or with failed operations.
echo "==> the benchmark result check accepts a pass and rejects each failure"
result='{"correct":true,"attempted":2048,"failed":0,"metrics":{}}'
if ! bench_result_ok "$result"; then
    echo "error: the benchmark result check rejected a passing result: $result" >&2
    exit 1
fi
for result in \
    '{"correct":false,"attempted":2048,"failed":0,"metrics":{}}' \
    '{"correct":true,"attempted":2048,"failed":3,"metrics":{}}' \
    '{"correct":true,"attempted":2048,"failed":10,"metrics":{}}'; do
    if bench_result_ok "$result"; then
        echo "error: the benchmark result check accepted a failing result: $result" >&2
        exit 1
    fi
done

if [ "$quick" -eq 0 ]; then
    release=(cargo run --release -q -p tpnr-bench --bin experiments --)
    first="$(mktemp)"
    second="$(mktemp)"
    trap 'rm -f "$first" "$second"' EXIT

    # The observability export must stay machine-readable: produce a trace
    # and re-validate it with the binary's own JSONL checker.
    echo "==> experiments --trace-jsonl / --validate-jsonl"
    "${release[@]}" --trace-jsonl "$first"
    "${release[@]}" --validate-jsonl "$first"

    # The trace and the E8 export are byte-deterministic. Each process
    # seeds its own hash keys, so a HashMap iteration that reaches either
    # output shows up as a difference between two runs.
    echo "==> experiments --trace-jsonl / --bench-e8 --quick: two runs are identical"
    "${release[@]}" --trace-jsonl "$second"
    cmp "$first" "$second"
    "${release[@]}" --bench-e8 "$first" --quick
    "${release[@]}" --bench-e8 "$second" --quick
    cmp "$first" "$second"

    # attack_gauntlet, blackmail_arbitration, multi_tenant and storage_audit
    # assert their outcomes, so a non-zero exit from any example fails CI.
    # The examples print simulated time only, so each one's stdout must
    # match its golden file byte for byte. After a deliberate change to an
    # example's output, regenerate the files with
    #   for e in examples/*.rs; do n="$(basename "$e" .rs)"; cargo run --release -q --example "$n" >"tests/examples/$n.stdout"; done
    echo "==> examples (release), stdout against tests/examples/*.stdout"
    for example in examples/*.rs; do
        name="$(basename "$example" .rs)"
        cargo run --release -q --example "$name" >"$first"
        diff -u "tests/examples/$name.stdout" "$first"
    done
fi

echo "CI green."
