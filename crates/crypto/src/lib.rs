//! # tpnr-crypto
//!
//! From-scratch cryptographic primitives for the TPNR reproduction
//! (Feng, Chen, Ku & Liu, *Analysis of Integrity Vulnerabilities and a
//! Non-repudiation Protocol for Cloud Data Storage Platforms*, SCC@ICPP
//! 2010).
//!
//! The offline-crate policy of this reproduction provides no cryptography
//! crate, so everything the paper's platforms and protocol need is
//! implemented here:
//!
//! * [`bigint`] — arbitrary-precision arithmetic with Montgomery
//!   exponentiation (the RSA substrate);
//! * [`limbs`] — stack-allocated fixed-width kernels (CIOS Montgomery,
//!   sliding-window exponentiation) that `bigint` auto-selects for RSA-sized
//!   odd moduli;
//! * `crt_split` (crate-private) — the CRT helper thread: outside
//!   `tpnr_par` fan-outs, an RSA private operation's q-half runs on a
//!   second core while the caller computes the p-half;
//! * [`md5`], [`sha1`], [`sha2`] — the 2010-era hash suite (MD5 is what the
//!   platforms under study used for content integrity; SHA-256 is the
//!   library default);
//! * [`hmac`] — RFC 2104 MAC (Azure's `SharedKey` request auth);
//! * [`rsa`] — PKCS#1 v1.5 signatures and encryption (the evidence
//!   primitives of paper §4.1);
//! * [`chacha20`] + [`envelope`] — hybrid public-key encryption of evidence;
//! * [`shamir`] — secret sharing for the SKS bridging schemes of paper §3;
//! * [`merkle`] — hash trees for partial verification of TB-scale objects;
//! * [`rng`] — a deterministic ChaCha20 DRBG so simulations replay exactly;
//! * [`encoding`], [`ct`], [`prime`], [`error`] — supporting utilities.
//!
//! ## Security status
//!
//! Every algorithm passes its RFC/FIPS test vectors and the signatures are
//! interoperable PKCS#1 v1.5, but the implementations are **not hardened
//! against local side channels** (no blinding; constant-time code only where
//! noted). They are faithful research artifacts, not a production TLS stack.
//! MD5 and SHA-1 are included solely to model the platforms the paper
//! analyses.

#![forbid(unsafe_code)]

pub mod bigint;
pub mod chacha20;
mod crt_split;
pub mod ct;
pub mod encoding;
pub mod envelope;
pub mod error;
pub mod hash;
pub mod hmac;
pub mod limbs;
pub mod md5;
pub mod merkle;
pub mod prime;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod sha2;
pub mod shamir;

pub use bigint::BigUint;
pub use error::CryptoError;
pub use hash::{Digest, HashAlg};
pub use hmac::Hmac;
pub use rng::ChaChaRng;
pub use rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
