//! Golden test: `tpnr-lint`'s report is byte-stable for a fixed input set.

use tpnr_lint::{allow::Allowlist, lint_files, render, FileInput, Summary};

/// A four-file mini-workspace that lights up a textual rule, an
/// allowlisted rule, and an interprocedural pass (the PANIC-REACH
/// finding only exists because `core::client` reaches `storage::blob`
/// through a `use`-resolved cross-crate call edge).
fn fixture() -> Vec<FileInput> {
    vec![
        FileInput {
            path: "crates/bench/src/lib.rs".into(),
            source: "fn t0() { let _ = std::time::Instant::now(); }\n".into(),
        },
        FileInput {
            path: "crates/core/src/client.rs".into(),
            source: "use tpnr_storage::blob;\npub struct Client;\nimpl Client {\n    \
                     pub fn handle(&self) -> u32 { blob::fetch_latest() }\n}\n"
                .into(),
        },
        FileInput {
            path: "crates/core/src/obs.rs".into(),
            source: "use std::collections::HashMap;\n".into(),
        },
        FileInput {
            path: "crates/storage/src/blob.rs".into(),
            source: "pub fn fetch_latest() -> u32 { head().unwrap() }\n\
                     fn head() -> Option<u32> { None }\n"
                .into(),
        },
    ]
}

#[test]
fn text_output_is_stable() {
    let files = fixture();
    let report = |allow: &Allowlist| {
        let findings = lint_files(&files, allow);
        render(&findings, &Summary::of(&files, &findings))
    };
    let wallclock = "crates/bench/src/lib.rs:1:30 NO-WALLCLOCK `Instant` outside net::time; \
                     protocol time must come from the sim clock (use Clock / \
                     tpnr_net::time::HostStopwatch)\n";
    let rest = concat!(
        "crates/core/src/obs.rs:1:23 DET-ORDER `HashMap` in a deterministic-output module; ",
        "iteration order is randomized — use BTreeMap\n",
        "crates/storage/src/blob.rs:1:39 PANIC-REACH `.unwrap()` can panic and is reachable ",
        "from protocol entry `core::client::Client::handle` (core::client::Client::handle -> ",
        "storage::blob::fetch_latest); degrade into ValidationError instead\n",
    );
    // Without an allowlist every finding is reported.
    assert_eq!(
        report(&Allowlist::empty()),
        format!("{wallclock}{rest}4 files, 8 rules, 3 findings, 0 allowlisted\n")
    );
    // An allowlisted finding is counted in the summary but not printed.
    let allow = Allowlist::parse(
        "[[allow]]\nrule = \"NO-WALLCLOCK\"\npath = \"crates/bench/src/lib.rs\"\n\
         justification = \"fixture: host-facing measurement\"\n",
    )
    .unwrap();
    assert_eq!(report(&allow), format!("{rest}4 files, 8 rules, 3 findings, 1 allowlisted\n"));
}
