//! Protocol configuration and ablation switches.
//!
//! Section 5 of the paper argues TPNR resists five classic attacks, each
//! defeated by a specific design element. To show those elements are
//! *load-bearing* (experiment E3), every one can be switched off
//! individually; `tpnr-attacks` then demonstrates the matching attack
//! succeeding against the weakened variant.

use crate::fault::{FaultPlan, RetryPolicy};
use tpnr_crypto::hash::HashAlg;
use tpnr_net::time::SimDuration;

/// How evidence commits to a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Commitment {
    /// A flat hash of the canonical payload bytes (the paper's MD5-style
    /// commitment).
    Flat,
    /// A Merkle-tree root over fixed-size chunks of the payload bytes —
    /// same binding strength, but enables partial verification and the
    /// storage-audit extension (`tpnr_core::chunked`), which matters at the
    /// paper's TB scale.
    Merkle {
        /// Chunk size in bytes.
        chunk_size: usize,
    },
}

/// Tunable protocol parameters plus the §5 defence switches.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// Hash algorithm for data integrity inside evidence.
    pub hash_alg: HashAlg,
    /// Payload commitment scheme (flat hash or Merkle root).
    pub commitment: Commitment,
    /// How long a party waits for the counterparty before invoking
    /// Abort/Resolve (the paper's "pre-set time-out limit").
    pub response_timeout: SimDuration,
    /// Validity window stamped into each message ("we add a time limit
    /// field into the message in order to limit the reception time").
    pub message_time_limit: SimDuration,

    // ---- §5 defence ablations (all true = the full TPNR protocol) ----
    /// §5.1: authenticate public keys against the certified directory.
    /// Off → man-in-the-middle key substitution succeeds.
    pub authenticate_keys: bool,
    /// §5.4: bind a strictly-increasing per-transaction sequence number
    /// under the sender's signature. Off → replayed messages are accepted.
    pub check_sequence_numbers: bool,
    /// §5.2/§5.3: include sender/recipient/TTP identities (direction
    /// binding) in the signed plaintext. Off → reflection/interleaving
    /// succeed.
    pub bind_identities: bool,
    /// §5.5: enforce the per-message time limit on reception.
    /// Off → stale messages are accepted indefinitely.
    pub enforce_time_limits: bool,
    /// §4.1: require the evidence signature over the data hash. Off → the
    /// protocol degrades to unauthenticated checksums (repudiation returns).
    pub require_signatures: bool,

    // ---- crash-recovery subsystem ----
    /// Retry schedule for timeout-driven Abort/Resolve resends. The default
    /// ([`RetryPolicy::legacy`]) reproduces the fixed `response_timeout`
    /// behaviour exactly.
    pub retry: RetryPolicy,
    /// Deterministic fault-injection schedule. The default is inert.
    pub faults: FaultPlan,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            hash_alg: HashAlg::Sha256,
            commitment: Commitment::Flat,
            response_timeout: SimDuration::from_secs(30),
            message_time_limit: SimDuration::from_secs(120),
            authenticate_keys: true,
            check_sequence_numbers: true,
            bind_identities: true,
            enforce_time_limits: true,
            require_signatures: true,
            retry: RetryPolicy::legacy(),
            faults: FaultPlan::none(),
        }
    }
}

impl ProtocolConfig {
    /// The full protocol exactly as the paper specifies.
    pub fn full() -> Self {
        Self::default()
    }

    /// Typed builder starting from the fully-defended defaults. Preferred
    /// over raw struct construction now that the config carries fault and
    /// retry sub-structures.
    pub fn builder() -> ProtocolConfigBuilder {
        ProtocolConfigBuilder { cfg: Self::default() }
    }

    /// MD5 evidence hashing, mirroring the 2010 platforms.
    pub fn with_md5(mut self) -> Self {
        self.hash_alg = HashAlg::Md5;
        self
    }

    /// Merkle-root commitments with the given chunk size (enables the
    /// storage-audit extension).
    pub fn with_merkle(mut self, chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.commitment = Commitment::Merkle { chunk_size };
        self
    }

    /// Named ablations used by the attack-matrix experiment.
    pub fn ablated(which: Ablation) -> Self {
        Self::builder().ablation(which).build()
    }
}

/// Typed builder for [`ProtocolConfig`]. Starts from the fully-defended
/// defaults; a defence comes off through [`ProtocolConfigBuilder::ablation`],
/// and MD5 hashing and Merkle commitments through
/// [`ProtocolConfig::with_md5`] and [`ProtocolConfig::with_merkle`].
#[derive(Debug, Clone)]
pub struct ProtocolConfigBuilder {
    cfg: ProtocolConfig,
}

impl ProtocolConfigBuilder {
    /// Abort/Resolve base timeout (the paper's "pre-set time-out limit").
    pub fn response_timeout(mut self, d: SimDuration) -> Self {
        self.cfg.response_timeout = d;
        self
    }

    /// Per-message validity window.
    pub fn message_time_limit(mut self, d: SimDuration) -> Self {
        self.cfg.message_time_limit = d;
        self
    }

    /// Apply a named E3 ablation on top of the current settings.
    pub fn ablation(mut self, which: Ablation) -> Self {
        match which {
            Ablation::None => {}
            Ablation::NoKeyAuthentication => self.cfg.authenticate_keys = false,
            Ablation::NoSequenceNumbers => self.cfg.check_sequence_numbers = false,
            Ablation::NoIdentityBinding => self.cfg.bind_identities = false,
            Ablation::NoTimeLimits => self.cfg.enforce_time_limits = false,
            Ablation::NoSignatures => self.cfg.require_signatures = false,
        }
        self
    }

    /// Retry schedule for timeout-driven resends.
    pub fn retry_policy(mut self, p: RetryPolicy) -> Self {
        self.cfg.retry = p;
        self
    }

    /// Deterministic fault-injection schedule.
    pub fn fault_plan(mut self, p: FaultPlan) -> Self {
        self.cfg.faults = p;
        self
    }

    /// Finish, yielding the configured [`ProtocolConfig`].
    pub fn build(self) -> ProtocolConfig {
        self.cfg
    }
}

/// One defence removed (for the E3 attack matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ablation {
    /// Full protocol, nothing removed.
    None,
    /// Drop §5.1 public-key authentication.
    NoKeyAuthentication,
    /// Drop §5.4 sequence-number checking.
    NoSequenceNumbers,
    /// Drop §5.2/§5.3 identity/direction binding.
    NoIdentityBinding,
    /// Drop §5.5 message time limits.
    NoTimeLimits,
    /// Drop §4.1 evidence signatures.
    NoSignatures,
}

impl Ablation {
    /// All variants, full protocol first.
    pub fn all() -> [Ablation; 6] {
        [
            Ablation::None,
            Ablation::NoKeyAuthentication,
            Ablation::NoSequenceNumbers,
            Ablation::NoIdentityBinding,
            Ablation::NoTimeLimits,
            Ablation::NoSignatures,
        ]
    }

    /// Display label for experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            Ablation::None => "full-TPNR",
            Ablation::NoKeyAuthentication => "-key-auth",
            Ablation::NoSequenceNumbers => "-seq-numbers",
            Ablation::NoIdentityBinding => "-identity-binding",
            Ablation::NoTimeLimits => "-time-limits",
            Ablation::NoSignatures => "-signatures",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_defended() {
        let c = ProtocolConfig::default();
        assert!(c.authenticate_keys && c.check_sequence_numbers && c.bind_identities);
        assert!(c.enforce_time_limits && c.require_signatures);
        assert_eq!(c.hash_alg, HashAlg::Sha256);
    }

    #[test]
    fn each_ablation_disables_exactly_one_defence() {
        let full = ProtocolConfig::full();
        let flags = |c: &ProtocolConfig| {
            [
                c.authenticate_keys,
                c.check_sequence_numbers,
                c.bind_identities,
                c.enforce_time_limits,
                c.require_signatures,
            ]
        };
        for a in Ablation::all() {
            let c = ProtocolConfig::ablated(a);
            let diff = flags(&full).iter().zip(flags(&c).iter()).filter(|(x, y)| x != y).count();
            let expected = if a == Ablation::None { 0 } else { 1 };
            assert_eq!(diff, expected, "{:?}", a);
        }
    }

    #[test]
    fn md5_mode() {
        assert_eq!(ProtocolConfig::full().with_md5().hash_alg, HashAlg::Md5);
    }

    #[test]
    fn merkle_mode() {
        let c = ProtocolConfig::full().with_merkle(4096);
        assert_eq!(c.commitment, Commitment::Merkle { chunk_size: 4096 });
        assert_eq!(ProtocolConfig::full().commitment, Commitment::Flat);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn merkle_zero_chunk_panics() {
        let _ = ProtocolConfig::full().with_merkle(0);
    }

    #[test]
    fn builder_defaults_match_default() {
        let b = ProtocolConfig::builder().build();
        let d = ProtocolConfig::default();
        assert_eq!(b.hash_alg, d.hash_alg);
        assert_eq!(b.commitment, d.commitment);
        assert_eq!(b.response_timeout, d.response_timeout);
        assert_eq!(b.message_time_limit, d.message_time_limit);
        assert_eq!(b.retry, d.retry);
        assert_eq!(b.faults, d.faults);
        assert!(b.authenticate_keys && b.check_sequence_numbers && b.bind_identities);
        assert!(b.enforce_time_limits && b.require_signatures);
    }

    #[test]
    fn builder_setters_apply() {
        let c = ProtocolConfig::builder()
            .response_timeout(SimDuration::from_secs(5))
            .message_time_limit(SimDuration::from_secs(10))
            .retry_policy(RetryPolicy::exponential(3))
            .fault_plan(FaultPlan::none().with_seed(9))
            .build();
        assert_eq!(c.response_timeout, SimDuration::from_secs(5));
        assert_eq!(c.message_time_limit, SimDuration::from_secs(10));
        assert_eq!(c.retry.max_attempts, Some(3));
        assert_eq!(c.faults.seed, 9);
    }

    #[test]
    fn builder_ablation_matches_ablated() {
        for a in Ablation::all() {
            let via_builder = ProtocolConfig::builder().ablation(a).build();
            let via_fn = ProtocolConfig::ablated(a);
            assert_eq!(via_builder.authenticate_keys, via_fn.authenticate_keys, "{a:?}");
            assert_eq!(via_builder.check_sequence_numbers, via_fn.check_sequence_numbers, "{a:?}");
            assert_eq!(via_builder.bind_identities, via_fn.bind_identities, "{a:?}");
            assert_eq!(via_builder.enforce_time_limits, via_fn.enforce_time_limits, "{a:?}");
            assert_eq!(via_builder.require_signatures, via_fn.require_signatures, "{a:?}");
        }
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<_> =
            Ablation::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
