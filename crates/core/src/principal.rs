//! Principals (Alice, Bob, TTP, Arbitrator) and the public-key directory.
//!
//! Paper §5.1: "when the party gets the other's public key, they should
//! authenticate the validity to avoid the MITM." The [`Directory`] models
//! that authenticated key distribution; the
//! [`Ablation::NoKeyAuthentication`](crate::config::Ablation::NoKeyAuthentication)
//! ablation replaces it with trust-whatever-arrives-on-the-wire, which is
//! what the MITM attack experiment exploits.

use tpnr_crypto::{ChaChaRng, RsaKeyPair, RsaPublicKey};

/// Stable identifier of a principal: the fingerprint of its public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrincipalId(pub [u8; 32]);

impl PrincipalId {
    /// Hex rendering for logs.
    pub fn short_hex(&self) -> String {
        tpnr_crypto::encoding::hex_encode(&self.0[..6])
    }
}

/// A named party with a key pair.
#[derive(Debug, Clone)]
pub struct Principal {
    /// Human-readable name ("alice", "cloud-provider", …).
    pub name: String,
    /// The key pair.
    pub keys: RsaKeyPair,
}

impl Principal {
    /// Creates a principal with a freshly generated key pair.
    pub fn generate(name: &str, bits: usize, rng: &mut ChaChaRng) -> Self {
        Principal { name: name.to_string(), keys: RsaKeyPair::generate(bits, rng) }
    }

    /// Creates a principal with a deterministic test key (fast; 512-bit).
    pub fn test(name: &str, seed: u64) -> Self {
        Principal { name: name.to_string(), keys: RsaKeyPair::insecure_test_key(seed) }
    }

    /// The principal's identifier.
    pub fn id(&self) -> PrincipalId {
        PrincipalId(self.keys.public.fingerprint())
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.keys.public
    }
}

/// An authenticated public-key directory (out-of-band certified, the paper's
/// assumption for the healthy protocol).
#[derive(Default, Clone)]
pub struct Directory {
    entries: std::collections::HashMap<PrincipalId, RsaPublicKey>,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a principal's public key under its fingerprint id.
    pub fn register(&mut self, p: &Principal) {
        self.entries.insert(p.id(), p.public().clone());
    }

    /// Looks up an authenticated key.
    pub fn lookup(&self, id: &PrincipalId) -> Option<&RsaPublicKey> {
        self.entries.get(id)
    }

    /// Checks that a key claimed on the wire matches the directory: this is
    /// the key-authentication step of §5.1.
    pub fn authenticate(&self, id: &PrincipalId, claimed: &RsaPublicKey) -> bool {
        self.lookup(id).is_some_and(|pk| pk == claimed && PrincipalId(claimed.fingerprint()) == *id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_is_key_fingerprint() {
        let p = Principal::test("alice", 1);
        assert_eq!(p.id().0, p.public().fingerprint());
        assert_eq!(p.id().short_hex().len(), 12);
    }

    #[test]
    fn distinct_principals_distinct_ids() {
        let a = Principal::test("alice", 1);
        let b = Principal::test("bob", 2);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn directory_lookup_and_authenticate() {
        let a = Principal::test("alice", 1);
        let b = Principal::test("bob", 2);
        let mut dir = Directory::new();
        dir.register(&a);
        assert!(dir.lookup(&a.id()).is_some());
        assert!(dir.lookup(&b.id()).is_none());
        assert!(dir.authenticate(&a.id(), a.public()));
        assert!(!dir.authenticate(&a.id(), b.public()), "key substitution caught");
        assert!(!dir.authenticate(&b.id(), b.public()), "unregistered key rejected");
    }
}
