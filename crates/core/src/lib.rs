//! # tpnr-core
//!
//! The TPNR (Two-Party Non-Repudiation) protocol of Feng, Chen, Ku & Liu
//! (SCC @ ICPP 2010), plus everything around it:
//!
//! * [`principal`] — parties and the authenticated key directory;
//! * [`config`] — protocol parameters and the §5 defence ablations;
//! * [`evidence`] — NRO/NRR construction and verification (§4.1);
//! * [`message`] — the wire messages of all three modes;
//! * [`session`] — validation, replay windows, payloads;
//! * [`client`] / [`provider`] / [`ttp`] — the Alice / Bob / TTP state
//!   machines (Normal, Abort and Resolve modes, §4.1–4.3);
//! * [`arbiter`] — dispute judgement (Figure 6d), including the blackmail
//!   defence;
//! * [`runner`] — the one runner: the actors wired over any `tpnr-net`
//!   transport, seating one client or many, with per-transaction reports;
//! * [`bridge`] — the four §3 bridging schemes (±TAC × ±SKS);
//! * [`baseline`] — a traditional four-step in-line-TTP fair NR protocol,
//!   the comparison target for the "2 steps vs 4 steps" claim;
//! * [`cert`] — the "TAC-certified" key distribution made concrete: a
//!   certificate authority, chain verification, and directories built from
//!   verified certificates;
//! * [`chunked`] — Merkle-commitment mode and remote storage audits for the
//!   paper's TB-scale setting (an extension);
//! * [`multi`] — the runner seating many interleaved clients on one
//!   provider (Figure 1 at population scale);
//! * [`obs`] — the unified observability layer: one structured event stream
//!   plus metrics, shared by every deployment;
//! * [`archive`] — integrity-protected evidence bundles that survive until
//!   the dispute.
//!
//! * [`fault`] — deterministic fault injection (crash plans, TTP outages),
//!   durable snapshots and the retry policy.
//!
//! ## Quickstart
//!
//! ```
//! use tpnr_core::prelude::*;
//!
//! let mut world = World::new(42, ProtocolConfig::full());
//! let up = world.upload(b"backup/q3", b"financial data".to_vec(),
//!                       TimeoutStrategy::AbortFirst);
//! assert_eq!(up.report.messages, 2);   // Normal mode: two messages
//! assert!(!up.report.ttp_used);        // TTP stays off-line
//! let down = world.download(b"backup/q3", TimeoutStrategy::AbortFirst);
//! assert_eq!(down.data.clone().unwrap(), b"financial data");
//! assert_eq!(
//!     world.client.verify_download_against_upload(up.txn_id, down.txn_id),
//!     Some(true),                      // the upload-to-download integrity link
//! );
//! ```

#![forbid(unsafe_code)]

pub mod arbiter;
pub mod archive;
pub mod baseline;
pub mod bridge;
pub mod cert;
pub mod chunked;
pub mod client;
pub mod config;
pub mod evidence;
pub mod fault;
pub mod message;
pub mod multi;
pub mod obs;
pub mod principal;
pub mod provider;
pub mod runner;
pub mod sched;
pub mod session;
pub mod ttp;

pub use arbiter::{Arbitrator, DisputeCase, Verdict};
pub use cert::{Certificate, CertificateAuthority};
pub use client::{Client, TimeoutStrategy};
pub use config::{Ablation, ProtocolConfig};
pub use evidence::{EvidencePlaintext, Flag, SealedEvidence, VerifiedEvidence};
pub use fault::{CrashPoint, Durable, FaultPlan, FaultStats, RetryPolicy};
pub use message::Message;
pub use multi::{GenericMultiWorld, MultiWorld, TxnHandle};
pub use obs::{ActorStats, Event, EventKind, Metrics, Obs, TxnObs};
pub use principal::{Directory, Principal, PrincipalId};
pub use provider::Provider;
pub use runner::{GenericWorld, TxnReport, TxnRequest, TxnResult, World};
pub use sched::{Actor, SettleOutcome, SettleReport};
pub use session::{Outgoing, Payload, TxnState, ValidationError};
pub use ttp::Ttp;

/// One-stop imports for driving the simulation: runners (simulator-backed
/// and transport-generic), strategies, settle/fault reporting, the
/// [`Transport`](tpnr_net::transport::Transport) contract, and the config
/// builder.
pub mod prelude {
    pub use crate::client::{Client, TimeoutStrategy};
    pub use crate::config::{Ablation, Commitment, ProtocolConfig, ProtocolConfigBuilder};
    pub use crate::fault::{CrashPoint, Durable, FaultPlan, FaultStats, RetryPolicy, RetryStats};
    pub use crate::multi::{GenericMultiWorld, MultiWorld, TxnHandle};
    pub use crate::provider::Provider;
    pub use crate::runner::{GenericWorld, TxnReport, TxnRequest, TxnResult, World};
    pub use crate::sched::{Actor, SettleOutcome, SettleReport};
    pub use crate::session::TxnState;
    pub use crate::ttp::Ttp;
    pub use tpnr_net::transport::Transport;
}
