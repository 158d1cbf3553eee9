//! **DET-ORDER** — `HashMap` / `HashSet` forbidden in modules that render
//! traces, reports, or serialized evidence, in the scheduler/runner
//! layer, in the network's accounting, and in the three actors (Alice,
//! Bob and the TTP). The modules are `obs`, `report`, `codec`, `runner`,
//! `multi`, `sched`, `par`, `transport`, `sim`, `tcp`, `ttp`, `client`
//! and `provider`.
//!
//! PR 2's JSONL trace validator checks output the paper's auditor is
//! supposed to replay; hash-map iteration order is randomized per process,
//! so any hash container feeding serialized output makes traces
//! non-reproducible. `BTreeMap` / `BTreeSet` give deterministic order.
//! `multi` and `sched` are in scope since the timer-wheel refactor: the
//! event loop's dispatch and state-diff order feeds the observability
//! stream directly, so iteration there must be deterministic too. `runner`
//! joined when the single- and multi-client runners became one. `par`
//! joined with the parallel pool: its index-ordered join is the
//! determinism anchor for every parallel fan-out in the workspace, so no
//! hash container may sit anywhere near that scheduling/result path.
//! `transport` (the wire core every backend shares) and the `sim` and
//! `tcp` links joined when the three transports got one core: the core's
//! `NetEvent` order and `tagged_txns()` feed `--trace-jsonl`, and the
//! simulator's delivery order is what a seeded trace replays. `ttp`
//! joined once its pending resolves became a `BTreeMap`: its timeout sweep
//! declares failures in map order, and those replies reach the wire and
//! the trace. `client` and `provider` joined once their transaction
//! tables and Bob's object store became `BTreeMap`s: a restart walks a
//! restored table (`txn_ids`) to re-evict the records the archive already
//! holds, so that order must not depend on hash seeding either, and
//! `txn_ids` needs no sort.
//! The rule applies to the whole file, tests included — deterministic
//! fixtures keep golden tests stable.

use crate::{FileCtx, Finding};

pub const ID: &str = "DET-ORDER";

/// Module leaf names whose output must be deterministic.
const SCOPE_LEAVES: &[&str] = &[
    "obs",
    "report",
    "codec",
    "runner",
    "multi",
    "sched",
    "par",
    "transport",
    "sim",
    "tcp",
    "ttp",
    "client",
    "provider",
];

pub fn check(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !SCOPE_LEAVES.contains(&ctx.module_leaf()) {
        return;
    }
    for t in ctx.tokens {
        if let Some(name) = t.ident() {
            if name == "HashMap" || name == "HashSet" {
                let fix = if name == "HashMap" { "BTreeMap" } else { "BTreeSet" };
                out.push(Finding {
                    file: ctx.path.to_string(),
                    line: t.line,
                    col: t.col,
                    rule: ID,
                    message: format!(
                        "`{name}` in a deterministic-output module; iteration order is \
                         randomized — use {fix}"
                    ),
                    allowed: false,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::run_rule;

    #[test]
    fn fires_on_hashmap_in_obs() {
        let hits = run_rule(
            check,
            "crates/core/src/obs.rs",
            "use std::collections::HashMap;\nstruct Obs { per_txn: HashMap<u64, TxnObs> }",
        );
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].rule, ID);
    }

    #[test]
    fn fires_on_hashset_in_report() {
        let hits = run_rule(
            check,
            "crates/bench/src/report.rs",
            "fn f() { let seen: HashSet<u64> = HashSet::new(); }",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn silent_on_btreemap_form() {
        let hits = run_rule(
            check,
            "crates/core/src/obs.rs",
            "use std::collections::BTreeMap;\nstruct Obs { per_txn: BTreeMap<u64, TxnObs> }",
        );
        assert!(hits.is_empty());
    }

    #[test]
    fn fires_on_hashmap_in_multi_and_sched() {
        let hits = run_rule(
            check,
            "crates/core/src/multi.rs",
            "use std::collections::HashMap;\nstruct W { txn_meta: HashMap<u64, M> }",
        );
        assert_eq!(hits.len(), 2);
        let hits = run_rule(
            check,
            "crates/core/src/runner.rs",
            "use std::collections::HashSet;\nstruct R { ttp_touched: HashSet<u64> }",
        );
        assert_eq!(hits.len(), 2);
        let hits = run_rule(
            check,
            "crates/core/src/sched.rs",
            "fn f() { let m: HashSet<usize> = HashSet::new(); }",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn fires_on_hashmap_in_par() {
        // The pool's result join must stay deterministic; a hash
        // container in its scheduling path would leak iteration order
        // into fan-out behaviour.
        let hits = run_rule(
            check,
            "crates/par/src/lib.rs",
            "use std::collections::HashMap;\nstruct S { m: HashMap<usize, u64> }",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn fires_on_hashmap_in_the_net_accounting() {
        // The wire core's per-txn stats and the links' tables order what
        // `tagged_txns()`, the event buffer and the simulator hand on.
        let hits = run_rule(
            check,
            "crates/net/src/transport.rs",
            "use std::collections::HashMap;\nstruct Ledger { txns: HashMap<u64, TxnNetStats> }",
        );
        assert_eq!(hits.len(), 2);
        let hits = run_rule(
            check,
            "crates/net/src/sim.rs",
            "use std::collections::HashMap;\nstruct SimLink { links: HashMap<(u32, u32), L> }",
        );
        assert_eq!(hits.len(), 2);
        let hits = run_rule(
            check,
            "crates/net/src/tcp.rs",
            "fn f() { let conns: HashSet<u32> = HashSet::new(); }",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn fires_on_hashmap_in_ttp() {
        // The TTP's timeout sweep declares failures in `pending` order, and
        // each declaration draws a nonce and reaches the wire.
        let hits = run_rule(
            check,
            "crates/core/src/ttp.rs",
            "use std::collections::HashMap;\nstruct Ttp { pending: HashMap<u64, P> }",
        );
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn fires_on_hashmap_in_client_and_provider() {
        let hits = run_rule(
            check,
            "crates/core/src/client.rs",
            "use std::collections::HashMap;\nstruct Client { txns: HashMap<u64, T> }",
        );
        assert_eq!(hits.len(), 2);
        let hits = run_rule(
            check,
            "crates/core/src/provider.rs",
            "struct Provider { storage: HashMap<Vec<u8>, Bytes> }",
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn silent_outside_scope() {
        let hits = run_rule(
            check,
            "crates/core/src/principal.rs",
            "use std::collections::HashMap;\nstruct Directory { entries: HashMap<u64, K> }",
        );
        assert!(hits.is_empty());
    }
}
