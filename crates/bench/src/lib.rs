//! # tpnr-bench
//!
//! Experiment harness: every exhibit in EXPERIMENTS.md is regenerated by a
//! function here (structured rows) and printed by the `experiments` binary.
//! [`report`] turns rows into tables and JSONL and holds the gate table
//! that `experiments --check` evaluates. Host-timed exhibits are rows too:
//! the primitive timings (E4), Shamir sharing (E9), the X1 audit and the
//! F2–F4 platform flows each carry a correctness field that a gate reads.
//!
//! The paper itself reports no measurements (evaluation is explicitly
//! future work), so these experiments quantify the paper's *claims*; the
//! per-experiment mapping is in DESIGN.md §5.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;

pub use experiments::*;

/// Index-ordered parallel map, re-exported from [`tpnr_par`] — a thin
/// wrapper over the shared range-cursor [`tpnr_par::Pool`], used by the
/// embarrassingly parallel experiment trial grids (E6, E8) and the Merkle
/// leaf-hash pipeline in `tpnr-crypto`. Do not spawn scoped threads
/// directly in this crate: route every fan-out through the pool so range
/// splitting, claiming, and the index-ordered deterministic join stay in
/// one audited place.
pub use tpnr_par::par_map_indexed;
