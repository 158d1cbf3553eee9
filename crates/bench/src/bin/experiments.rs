//! Regenerates every experiment table from EXPERIMENTS.md.
//!
//! Run with `cargo run --release -p tpnr-bench --bin experiments`.
//!
//! Extra modes:
//! - `--trace-jsonl [path|-]` exports the observability stream of a faulted
//!   multi-client run as JSONL (stdout when the path is `-` or omitted);
//! - `--e3-matrix [path|-]` writes the §5 attack matrix as tab-separated
//!   text, one row per line with its full detail (the golden file
//!   `crates/bench/tests/e3_matrix.tsv`);
//! - `--bench-<exhibit> [path|-] [--quick]` emits one exhibit's rows as
//!   JSONL (`BENCH_eN.json`, stdout likewise); `--quick` shrinks the sweep
//!   for the CI smoke step. The rows timed per call (E4's primitives, E9,
//!   X1, the platform flows) report the median of 7 rounds, 3 under
//!   `--quick`:
//!   - `e4`: evidence-cost sweep, the zero-copy transport probes and the
//!     primitive timings (hashes, HMAC, ChaCha20, RSA encrypt/decrypt and
//!     key generation); quick caps payloads at 1 MiB and keeps 512-bit RSA;
//!   - `e8`: crash-recovery chaos sweep; quick trims probabilities and
//!     trial counts;
//!   - `e9`: Shamir split/combine for the SKS schemes at four (k, n);
//!   - `e10`: deadline-index + sharded-state scale sweep; quick caps the
//!     client sweep at 50k;
//!   - `e12`: fixed-limb RSA kernel sweep (sign/verify by key size × alg,
//!     allocations per sign); quick keeps 512-bit keys and fewer timing
//!     rounds;
//!   - `e13`: worker scaling sweep (the E10 scenario at fixed load
//!     across pool worker counts, in interleaved rounds); quick shrinks the
//!     client load;
//!   - `e14`: transport comparison (the same protocol workload on the
//!     simulator, the in-process channel wire and loopback TCP); quick
//!     shrinks the transaction count;
//!   - `x1`: single-chunk Merkle audit vs download-and-compare;
//!   - `platforms`: the F2–F4 / Table 1 Azure, AWS and GAE security flows;
//! - `--check <file>` evaluates every row of such an export against the
//!   gate table (`report::gates`) and exits 1 naming each failed line,
//!   kind and gate;
//! - `--validate-jsonl <file>` syntax-checks any JSONL export, the trace
//!   included.

use tpnr_bench::report::*;
use tpnr_bench::*;
use tpnr_crypto::hash::HashAlg;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let quick = rest.iter().any(|a| a == "--quick");
    let path = rest.iter().map(String::as_str).rfind(|a| *a != "--quick");
    match args.first().map(String::as_str) {
        None => print_tables(),
        Some("--trace-jsonl") => emit(path, &trace_jsonl(2026)),
        Some("--e3-matrix") => emit(path, &e3_matrix_text()),
        Some(mode @ ("--check" | "--validate-jsonl")) => {
            let Some(path) = path else {
                eprintln!("usage: experiments {mode} <file>");
                std::process::exit(2);
            };
            let contents = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read {path}: {e}");
                std::process::exit(1);
            });
            let verdict = if mode == "--check" {
                check_jsonl(&contents).map(|n| format!("{n} rows pass every gate"))
            } else {
                validate_jsonl(&contents)
                    .map(|n| format!("{n} valid JSONL lines"))
                    .map_err(|e| vec![e])
            };
            match verdict {
                Ok(summary) => eprintln!("{path}: {summary}"),
                Err(errors) => {
                    for e in errors {
                        eprintln!("error: {path}: {e}");
                    }
                    std::process::exit(1);
                }
            }
        }
        Some(flag) => match bench_jsonl(flag, quick) {
            Some(jsonl) => emit(path, &jsonl),
            None => {
                eprintln!(
                    "unknown flag {flag}; supported: --trace-jsonl [path|-], \
                     --e3-matrix [path|-], \
                     --bench-eN [path|-] [--quick] for N in 4, 8, 9, 10, 12, 13, 14, \
                     --bench-x1 and --bench-platforms likewise, \
                     --check <file>, --validate-jsonl <file>"
                );
                std::process::exit(2);
            }
        },
    }
}

/// The JSONL export of a `--bench-*` flag, or `None` for any other flag.
fn bench_jsonl(flag: &str, quick: bool) -> Option<String> {
    let rounds = if quick { 3 } else { 7 };
    Some(match flag {
        "--bench-e4" => {
            let sizes: &[usize] = if quick {
                &[1 << 10, 1 << 16, 1 << 20]
            } else {
                &[1 << 10, 1 << 16, 1 << 20, 16 << 20]
            };
            let rows = e4_evidence_cost(sizes, &[HashAlg::Md5, HashAlg::Sha256]);
            let transport: Vec<E4Transport> =
                sizes.iter().map(|&s| e4_transport_copies(s)).collect();
            let rsa_bits: &[usize] = if quick { &[512] } else { &[512, 1024] };
            jsonl(&rows) + &jsonl(&transport) + &jsonl(&e4_primitives(rsa_bits, rounds))
        }
        "--bench-e8" => {
            let (permilles, trials): (&[u32], usize) =
                if quick { (&[0, 150, 300], 10) } else { (&[0, 100, 200, 300], 40) };
            jsonl(&e8_chaos(permilles, trials))
        }
        "--bench-e9" => jsonl(&e9_shamir(rounds)),
        "--bench-e10" => {
            let counts: &[usize] = if quick {
                &[1_000, 10_000, 50_000]
            } else {
                &[1_000, 10_000, 100_000, 250_000, 1_000_000]
            };
            jsonl(&e10_scale(counts, 2026))
        }
        "--bench-e12" => {
            let bit_sizes: &[usize] = if quick { &[512] } else { &[512, 1024, 2048] };
            jsonl(&e12_rsa_kernels(bit_sizes, quick))
        }
        "--bench-e13" => jsonl(&e13_worker_sweep(if quick { 2_048 } else { 20_480 }, 2026)),
        "--bench-e14" => jsonl(&e14_backend_comparison(2026, quick)),
        "--bench-x1" => jsonl(&x1_audit_vs_download(rounds)),
        "--bench-platforms" => jsonl(&platform_flows(rounds)),
        _ => return None,
    })
}

/// Writes an export to `path`, or to stdout when the path is `-` or omitted.
fn emit(path: Option<&str>, jsonl: &str) {
    match path {
        None | Some("-") => print!("{jsonl}"),
        Some(p) => {
            if let Err(e) = std::fs::write(p, jsonl) {
                eprintln!("error: cannot write {p}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {} lines to {p}", jsonl.lines().count());
        }
    }
}

fn print_tables() {
    println!("{}", table(&platform_flows(7)));
    println!("{}", table(&e1_vulnerability_matrix(2026)));
    println!("{}", table(&e2_protocol_comparison(&[10, 50, 100, 300], &[1024, 1 << 20, 16 << 20])));
    println!("{}", table(&e3_attack_matrix()));
    println!(
        "{}",
        table(&e4_evidence_cost(
            &[1 << 10, 1 << 16, 1 << 20, 16 << 20],
            &[HashAlg::Md5, HashAlg::Sha256],
        ))
    );
    println!("{}", table(&e4_primitives(&[512, 1024], 7)));
    println!("{}", table(&e5_shipping_overhead(&[24, 48, 72, 120])));
    println!("{}", table(&e6_ttp_load(&[0.0, 0.05, 0.1, 0.2, 0.3, 0.5], 40)));
    println!("{}", table(&e7_bridge_schemes(2026)));
    println!("{}", table(&e8_chaos(&[0, 100, 200, 300], 40)));
    println!("{}", table(&e9_shamir(7)));
    println!("{}", table(&e10_scale(&[1_000, 5_000], 2026)));
    println!("{}", table(&e12_rsa_kernels(&[512, 1024], false)));
    println!("{}", table(&e13_worker_sweep(2_048, 2026)));
    println!("{}", table(&e14_backend_comparison(2026, true)));
    println!("{}", table(&x1_audit_vs_download(7)));
}
