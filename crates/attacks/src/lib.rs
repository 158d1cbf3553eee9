//! # tpnr-attacks
//!
//! Executable robustness analysis for paper §5: each of the five classic
//! attacks (man-in-the-middle, reflection, interleaving, replay,
//! timeliness) written once, as an adversary that acts only on the wire,
//! and run against the full TPNR protocol **and** against ablated variants
//! with the matching defence switched off — on any transport backend.
//!
//! The headline result (experiment E3): the full protocol blocks all five;
//! removing key authentication admits the MITM, removing sequence numbers
//! admits replay, removing time limits admits stale delivery. Reflection
//! and interleaving are blocked *structurally* (role asymmetry, one-round
//! sessions, transaction binding under the signature), which the
//! deliberately symmetric [`toy`] protocol demonstrates by falling to both.

#![forbid(unsafe_code)]

pub mod harness;
pub mod interleave;
pub mod mitm;
pub mod reflection;
pub mod replay;
pub mod timeliness;
pub mod toy;

pub use harness::{matrix, run, run_on, AttackKind, AttackOutcome};
