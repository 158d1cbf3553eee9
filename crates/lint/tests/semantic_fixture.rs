//! Integration test for the interprocedural passes, driven by the
//! fixture mini-crate under `tests/fixtures/`. Each fixture file is
//! posed at a synthetic workspace path so module names, crate roots,
//! and cross-crate `use` resolution behave exactly as in a real run.

use tpnr_lint::{allow::Allowlist, lint_files, FileInput, Finding};

fn fixture_workspace() -> Vec<FileInput> {
    vec![
        FileInput {
            path: "crates/core/src/client.rs".into(),
            source: include_str!("fixtures/core_client.rs").into(),
        },
        FileInput {
            path: "crates/storage/src/blob.rs".into(),
            source: include_str!("fixtures/storage_blob.rs").into(),
        },
        FileInput {
            path: "crates/crypto/src/keys.rs".into(),
            source: include_str!("fixtures/crypto_keys.rs").into(),
        },
        FileInput {
            path: "crates/core/src/validator.rs".into(),
            source: include_str!("fixtures/core_validator.rs").into(),
        },
    ]
}

fn run() -> Vec<Finding> {
    lint_files(&fixture_workspace(), &Allowlist::empty())
}

/// The acceptance case for the call-graph rewrite: the seeded
/// `.unwrap()` lives in `crates/storage`, a crate the old per-file
/// NO-PANIC-PATH rule never scanned; it is a finding only because
/// `Client::handle` (another crate) reaches it through a `use`-resolved
/// call edge. The finding is reported at the *seed site* so the
/// allowlist stays local, with the entry point and chain in the message.
#[test]
fn cross_crate_panic_is_caught_at_the_seed_site() {
    let hits: Vec<_> = run().into_iter().filter(|f| f.rule == "PANIC-REACH").collect();
    assert_eq!(hits.len(), 1, "exactly the seeded unwrap: {hits:?}");
    let f = &hits[0];
    assert_eq!(f.file, "crates/storage/src/blob.rs");
    assert_eq!((f.line, f.col), (7, 18));
    assert!(f.message.contains("`.unwrap()`"), "{}", f.message);
    assert!(f.message.contains("core::client::Client::handle"), "{}", f.message);
    assert!(
        f.message.contains("core::client::Client::handle -> storage::blob::fetch_latest"),
        "chain should name every hop: {}",
        f.message
    );
}

/// Taint through a same-module helper: `audit` passes the private
/// exponent to `log_value`, which formats its parameter. The leak is
/// reported at the call site inside `audit`, where the secret actually
/// escapes.
#[test]
fn secret_flow_through_helper_is_reported_at_the_call_site() {
    let hits: Vec<_> = run().into_iter().filter(|f| f.rule == "SECRET-FLOW").collect();
    assert_eq!(hits.len(), 1, "{hits:?}");
    let f = &hits[0];
    assert_eq!(f.file, "crates/crypto/src/keys.rs");
    assert!(f.message.contains("private_exp"), "{}", f.message);
    assert!(f.message.contains("crypto::keys::log_value"), "{}", f.message);
    assert!(f.message.contains("leaks that parameter"), "{}", f.message);
}

/// `#[cfg(test)]` code may panic freely: `Validator` is an entry-point
/// owner, but its only unwrap is inside a test module, so the fixture
/// must contribute zero findings of any rule.
#[test]
fn cfg_test_panics_are_not_findings() {
    let noise: Vec<_> =
        run().into_iter().filter(|f| f.file == "crates/core/src/validator.rs").collect();
    assert!(noise.is_empty(), "test-only code flagged: {noise:?}");
}

/// A second workspace whose calls carry turbofishes (`r.array::<4>()`,
/// `frames::first::<u8>()`): the call graph must see `name::<…>(` as a
/// call, or the panics and allocations behind such calls go unreported.
/// Its bench crate defines a panicking method named like the one core
/// calls, which core's manifest does not let it reach.
fn turbofish_run() -> Vec<Finding> {
    lint_files(&turbofish_workspace(true), &Allowlist::empty())
}

fn turbofish_workspace(with_manifests: bool) -> Vec<FileInput> {
    let sources = [
        ("crates/core/src/provider.rs", include_str!("fixtures/core_provider_turbofish.rs")),
        ("crates/core/src/evidence.rs", include_str!("fixtures/core_evidence_turbofish.rs")),
        ("crates/net/src/frames.rs", include_str!("fixtures/net_frames.rs")),
        ("crates/bench/src/report.rs", include_str!("fixtures/bench_report.rs")),
    ];
    let manifests = [
        (
            "crates/core/Cargo.toml",
            "[package]\nname = \"tpnr-core\"\n[dependencies]\ntpnr-net.workspace = true\n",
        ),
        ("crates/net/Cargo.toml", "[package]\nname = \"tpnr-net\"\n"),
        ("crates/bench/Cargo.toml", "[dependencies]\ntpnr-core.workspace = true\n"),
    ];
    let manifests = if with_manifests { &manifests[..] } else { &[] };
    sources
        .iter()
        .chain(manifests)
        .map(|(path, source)| FileInput { path: path.to_string(), source: source.to_string() })
        .collect()
}

#[test]
fn panics_behind_turbofish_calls_are_reached() {
    let hits: Vec<_> = turbofish_run().into_iter().filter(|f| f.rule == "PANIC-REACH").collect();
    let what: Vec<_> = hits.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(what, [("crates/net/src/frames.rs", 8), ("crates/net/src/frames.rs", 21)]);
    assert!(hits[0]
        .message
        .contains("core::provider::Provider::handle -> net::frames::Frames::array"));
    assert!(hits[1].message.contains("core::provider::Provider::handle -> net::frames::first"));
}

#[test]
fn allocations_behind_turbofish_calls_are_reached() {
    let hits: Vec<_> = turbofish_run().into_iter().filter(|f| f.rule == "ALLOC-HOT").collect();
    let what: Vec<_> = hits.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(what, [("crates/net/src/frames.rs", 16), ("crates/net/src/frames.rs", 25)]);
    assert!(hits.iter().all(|f| f.message.contains("core::evidence::seal")), "{hits:?}");
}

/// `Provider::handle`'s `r.array::<4>()` names a method that
/// `bench::report::JsonParser` also defines, and that one panics. Core's
/// manifest does not reach tpnr-bench, so PANIC-REACH must stay silent
/// on it; without the manifests nothing bounds the resolution and the
/// same workspace charges that panic to the entry point.
#[test]
fn a_same_named_method_in_a_crate_core_cannot_reach_is_not_called() {
    let in_bench = |findings: Vec<Finding>| -> Vec<Finding> {
        findings.into_iter().filter(|f| f.file == "crates/bench/src/report.rs").collect()
    };
    assert!(in_bench(turbofish_run()).is_empty());
    let unbounded = in_bench(lint_files(&turbofish_workspace(false), &Allowlist::empty()));
    assert_eq!(unbounded.len(), 1, "{unbounded:?}");
    assert_eq!(unbounded[0].rule, "PANIC-REACH");
    assert!(unbounded[0]
        .message
        .contains("core::provider::Provider::handle -> bench::report::JsonParser::array"));
}

/// `core::evidence::seal(w: &mut Writer)` calls `w.str(…)` and
/// `w.fixed(…)`, which `Reader` defines too, allocating. The receiver is a
/// parameter of a written workspace type, so ALLOC-HOT must not charge
/// `Reader`'s allocations to `seal`; `open_and_verify`'s receiver has an
/// `impl` type, so its call still resolves by name and reaches
/// `Reader::fixed`.
#[test]
fn a_typed_parameter_receiver_reaches_only_its_types_methods() {
    let files = [
        ("crates/core/src/evidence.rs", include_str!("fixtures/core_evidence_writer.rs")),
        ("crates/net/src/codec.rs", include_str!("fixtures/net_codec.rs")),
    ]
    .map(|(path, source)| FileInput { path: path.to_string(), source: source.to_string() });
    let hits: Vec<_> = lint_files(&files, &Allowlist::empty())
        .into_iter()
        .filter(|f| f.rule == "ALLOC-HOT")
        .collect();
    let what: Vec<_> = hits.iter().map(|f| (f.file.as_str(), f.line)).collect();
    assert_eq!(what, [("crates/net/src/codec.rs", 26)], "{hits:?}");
    assert!(hits[0]
        .message
        .contains("core::evidence::open_and_verify -> net::codec::Reader::fixed"));
}
