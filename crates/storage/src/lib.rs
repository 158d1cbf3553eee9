//! # tpnr-storage
//!
//! Simulated 2010-era cloud storage platforms, faithful to the security
//! mechanics paper §2 describes, plus the tamper-injection machinery used
//! to demonstrate the §2.4 integrity vulnerability:
//!
//! * [`object`] — the provider-side store with [`object::Tamper`] (including
//!   the metadata-consistent tamper only a provider can perform);
//! * [`rest`] — Table 1's REST request model with `SharedKey` HMAC-SHA256
//!   signing and `Content-MD5`;
//! * [`azure`] — Windows Azure storage: account keys, signed requests,
//!   blobs and Table 1's block upload, stored-MD5-returned-on-GET
//!   semantics;
//! * [`aws`] — Amazon S3 + Import/Export: manifest + signature files,
//!   device shipping on the simulated clock, status emails,
//!   recomputed-MD5-on-GET semantics;
//! * [`gae`] — Google App Engine datastore behind a Secure Data Connector
//!   with fully-populated signed requests and resource rules;
//! * [`platform`] — one trait over all three for the Figure-5 experiments.

#![forbid(unsafe_code)]

pub mod aws;
pub mod azure;
pub mod gae;
pub mod object;
pub mod platform;
pub mod rest;

pub use object::{ObjectStore, StoredObject, Tamper, TamperReport};
pub use platform::{all_platforms, ChecksumSource, ClientVerdict, Download, Platform};
