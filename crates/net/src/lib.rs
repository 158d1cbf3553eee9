//! # tpnr-net
//!
//! Deterministic network substrate for the TPNR reproduction:
//!
//! * [`bytes`] — shared immutable payload buffers ([`Bytes`]) so large
//!   objects cross the simulator, the codec and storage without deep
//!   copies;
//! * [`time`] — virtual time ([`SimTime`]) so protocol timeouts are
//!   simulated, not slept;
//! * [`codec`] — canonical length-prefixed binary encoding (evidence is
//!   signed, so wire forms must be byte-unique);
//! * [`sim`] — discrete-event network with per-link latency/jitter/loss/
//!   duplication and an adversary [`sim::Interceptor`] hook (the §5 attacker
//!   owns the wire);
//! * [`secure`] — the paper-era "SSL" session layer: per-session
//!   confidentiality + integrity + in-order replay protection, and nothing
//!   more — which is precisely why the in-storage integrity gap of paper
//!   §2.4 exists;
//! * [`transport`] — the [`Transport`] contract the scheduler drives and
//!   its one implementation, the wire core [`transport::Net`]: nodes,
//!   outages, the adversary and all accounting, over a pluggable link, so
//!   the same protocol code runs on the simulator and on real wires;
//! * [`tcp`] — the real-wire links: loopback TCP ([`tcp::TcpNet`]) and
//!   an in-process deterministic pipe ([`tcp::ChannelNet`]), sharing one
//!   length-prefixed frame format.

#![forbid(unsafe_code)]

pub mod bytes;
pub mod codec;
pub mod secure;
pub mod sim;
pub mod tcp;
pub mod time;
pub mod transport;

pub use bytes::Bytes;
pub use codec::{CodecError, Reader, Wire, Writer};
pub use secure::{ChannelError, SecureSession};
pub use sim::{Action, Envelope, Interceptor, LinkConfig, NetStats, NodeId, SimNet, TxnNetStats};
pub use tcp::{ChannelNet, TcpNet};
pub use time::{Clock, SimDuration, SimTime};
pub use transport::Transport;
