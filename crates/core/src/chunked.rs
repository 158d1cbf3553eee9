//! Storage audits over Merkle commitments — an extension for the paper's
//! TB-scale setting.
//!
//! With [`crate::config::Commitment::Merkle`], TPNR evidence signs a Merkle
//! root instead of a flat hash. That unlocks **remote integrity audits**:
//! the client challenges the provider to produce a randomly chosen chunk of
//! a stored object together with an inclusion proof, and verifies both
//! against the root inside the NRR it archived at upload time — *without
//! downloading the object*. A provider who lost or tampered with any
//! audited chunk cannot answer; the failed audit plus the signed NRR is
//! arbitration-grade evidence.
//!
//! This is the natural follow-up the paper's §6 gestures at (auditing TB
//! archives where full downloads are impractical) and a precursor of the
//! provable-data-possession line of work.

use crate::client::Client;
use crate::config::{Commitment, ProtocolConfig};
use crate::evidence::Flag;
use crate::provider::Provider;
use crate::session::Payload;
use tpnr_crypto::merkle::{MerkleProof, MerkleTree};
use tpnr_net::codec::Wire;
use tpnr_net::Bytes;

/// A challenge naming one chunk of one object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditChallenge {
    /// Object key.
    pub object: Vec<u8>,
    /// Chunk index to prove.
    pub chunk_index: usize,
}

/// The provider's answer: the chunk bytes and the inclusion proof.
#[derive(Debug, Clone)]
pub struct AuditResponse {
    /// Echo of the challenge.
    pub challenge: AuditChallenge,
    /// The chunk of the canonical payload encoding — a zero-copy view into
    /// the provider's encoding buffer, not a per-response copy.
    pub chunk: Bytes,
    /// Merkle path to the committed root.
    pub proof: MerkleProof,
}

/// Why an audit could not be answered or did not verify.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditError {
    /// Protocol is not in Merkle commitment mode.
    NotMerkleMode,
    /// The provider has no such object.
    NoSuchObject,
    /// Chunk index beyond the object.
    IndexOutOfRange,
    /// The client has no archived receipt for that object.
    NoEvidence,
    /// The response failed verification against the signed root.
    ProofRejected,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::NotMerkleMode => write!(f, "commitment scheme is not Merkle"),
            AuditError::NoSuchObject => write!(f, "no such stored object"),
            AuditError::IndexOutOfRange => write!(f, "chunk index out of range"),
            AuditError::NoEvidence => write!(f, "no archived receipt for object"),
            AuditError::ProofRejected => write!(f, "audit proof failed verification"),
        }
    }
}

impl std::error::Error for AuditError {}

impl Provider {
    /// Answers an audit challenge from current storage.
    ///
    /// The tree is rebuilt over the canonical payload bytes — exactly what
    /// the upload evidence committed to — so a provider whose storage
    /// drifted produces a proof that fails at the client.
    pub fn answer_audit(
        &self,
        cfg: &ProtocolConfig,
        challenge: &AuditChallenge,
    ) -> Result<AuditResponse, AuditError> {
        let Commitment::Merkle { chunk_size } = cfg.commitment else {
            return Err(AuditError::NotMerkleMode);
        };
        // The stored object is a shared handle: building the payload bumps
        // a refcount instead of cloning the whole object per audit (the old
        // code copied every byte of a TB-scale archive to answer for one
        // chunk). The canonical encoding is produced once, and the answered
        // chunk is a zero-copy slice of it.
        let data = self.stored(&challenge.object).ok_or(AuditError::NoSuchObject)?;
        let payload = Payload { key: challenge.object.clone(), data: data.clone() };
        let bytes = payload.to_wire_bytes();
        let tree = MerkleTree::build(cfg.hash_alg, &bytes, chunk_size);
        let proof = tree.prove(challenge.chunk_index).ok_or(AuditError::IndexOutOfRange)?;
        let start = challenge.chunk_index * chunk_size;
        let end = (start + chunk_size).min(bytes.len());
        Ok(AuditResponse { challenge: challenge.clone(), chunk: bytes.slice(start..end), proof })
    }
}

impl Client {
    /// Verifies an audit response against the Merkle root inside the NRR
    /// archived for `upload_txn`.
    pub fn verify_audit(
        &self,
        cfg: &ProtocolConfig,
        upload_txn: u64,
        response: &AuditResponse,
    ) -> Result<(), AuditError> {
        if !matches!(cfg.commitment, Commitment::Merkle { .. }) {
            return Err(AuditError::NotMerkleMode);
        }
        let txn = self.txn(upload_txn).ok_or(AuditError::NoEvidence)?;
        let nrr = txn.nrr().ok().flatten().ok_or(AuditError::NoEvidence)?;
        if nrr.plaintext.flag != Flag::UploadReceipt
            || nrr.plaintext.object != response.challenge.object
        {
            return Err(AuditError::NoEvidence);
        }
        if response.proof.index != response.challenge.chunk_index {
            return Err(AuditError::ProofRejected);
        }
        let root = &nrr.plaintext.data_hash;
        if response.proof.verify(cfg.hash_alg, &response.chunk, root) {
            Ok(())
        } else {
            Err(AuditError::ProofRejected)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TimeoutStrategy;
    use crate::runner::World;
    use crate::session::TxnState;

    const CHUNK: usize = 256;

    fn merkle_world() -> (World, u64) {
        let cfg = ProtocolConfig::full().with_merkle(CHUNK);
        let mut w = World::new(21, cfg);
        let data: Vec<u8> = (0..4000u32).map(|i| (i % 251) as u8).collect();
        let r = w.upload(b"archive/big", data, TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        (w, r.txn_id)
    }

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::full().with_merkle(CHUNK)
    }

    #[test]
    fn merkle_mode_protocol_roundtrips() {
        let (mut w, up) = merkle_world();
        let down = w.download(b"archive/big", TimeoutStrategy::AbortFirst);
        assert_eq!(down.outcome, TxnState::Completed);
        assert_eq!(down.data.as_ref().unwrap().as_ref().len(), 4000);
        assert_eq!(w.client.verify_download_against_upload(up, down.txn_id), Some(true));
    }

    #[test]
    fn honest_audit_passes_for_every_chunk() {
        let (w, up) = merkle_world();
        // Payload wire = 8 bytes of prefixes + 11-byte key + 4000 data.
        let total_chunks = (8 + 11 + 4000usize).div_ceil(CHUNK);
        for i in 0..total_chunks {
            let challenge = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: i };
            let resp = w.provider.answer_audit(&cfg(), &challenge).unwrap();
            w.client.verify_audit(&cfg(), up, &resp).unwrap_or_else(|e| panic!("chunk {i}: {e}"));
        }
    }

    #[test]
    fn tampered_storage_fails_the_audit() {
        let (mut w, up) = merkle_world();
        let mut data = w.provider.peek_storage(b"archive/big").unwrap().to_vec();
        data[1000] ^= 1; // one silent bit-flip deep inside the object
        w.provider.tamper_storage(b"archive/big", data);

        // The chunk containing the flip fails…
        let bad_index = (8 + 11 + 1000) / CHUNK;
        let challenge = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: bad_index };
        let resp = w.provider.answer_audit(&cfg(), &challenge).unwrap();
        assert_eq!(w.client.verify_audit(&cfg(), up, &resp), Err(AuditError::ProofRejected));
        // …and so does every other chunk: the whole tree root moved, so
        // even intact chunks cannot be proven against the signed root.
        let challenge = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: 0 };
        let resp = w.provider.answer_audit(&cfg(), &challenge).unwrap();
        assert!(w.client.verify_audit(&cfg(), up, &resp).is_err());
    }

    #[test]
    fn a_download_after_tampering_names_the_tampered_root() {
        let (mut w, up) = merkle_world();
        let down = w.download(b"archive/big", TimeoutStrategy::AbortFirst);
        assert_eq!(w.client.verify_download_against_upload(up, down.txn_id), Some(true));

        let mut data = w.provider.peek_storage(b"archive/big").unwrap().to_vec();
        data[1000] ^= 1;
        w.provider.tamper_storage(b"archive/big", data.clone());
        let down = w.download(b"archive/big", TimeoutStrategy::AbortFirst);
        assert_eq!(down.outcome, TxnState::Completed);
        // Bob's receipt commits to the whole tree of what he served.
        let tampered = Payload { key: b"archive/big".to_vec(), data: data.into() };
        let nrr = down.nrr.expect("the download receipt");
        assert_eq!(nrr.plaintext.data_hash, tampered.commit(&cfg()));
        assert_eq!(w.client.verify_download_against_upload(up, down.txn_id), Some(false));
    }

    #[test]
    fn audit_requires_merkle_mode() {
        let mut w = World::new(22, ProtocolConfig::full());
        let r = w.upload(b"k", vec![0u8; 100], TimeoutStrategy::AbortFirst);
        let challenge = AuditChallenge { object: b"k".to_vec(), chunk_index: 0 };
        assert_eq!(
            w.provider.answer_audit(&ProtocolConfig::full(), &challenge).unwrap_err(),
            AuditError::NotMerkleMode
        );
        let flat = ProtocolConfig::full();
        let fake = AuditResponse {
            challenge,
            chunk: Bytes::new(),
            proof: MerkleProof { index: 0, siblings: vec![] },
        };
        assert_eq!(w.client.verify_audit(&flat, r.txn_id, &fake), Err(AuditError::NotMerkleMode));
    }

    #[test]
    fn missing_object_and_bad_index_reported() {
        let (w, _) = merkle_world();
        let c = AuditChallenge { object: b"nope".to_vec(), chunk_index: 0 };
        assert_eq!(w.provider.answer_audit(&cfg(), &c).unwrap_err(), AuditError::NoSuchObject);
        let c = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: 10_000 };
        assert_eq!(w.provider.answer_audit(&cfg(), &c).unwrap_err(), AuditError::IndexOutOfRange);
    }

    #[test]
    fn forged_response_index_rejected() {
        let (w, up) = merkle_world();
        let c0 = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: 0 };
        let c1 = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: 1 };
        let mut resp = w.provider.answer_audit(&cfg(), &c1).unwrap();
        // The provider tries to answer challenge 0 with chunk 1's proof.
        resp.challenge = c0;
        assert_eq!(w.client.verify_audit(&cfg(), up, &resp), Err(AuditError::ProofRejected));
    }

    #[test]
    fn audit_without_archived_receipt_rejected() {
        let (w, _) = merkle_world();
        let c = AuditChallenge { object: b"archive/big".to_vec(), chunk_index: 0 };
        let resp = w.provider.answer_audit(&cfg(), &c).unwrap();
        assert_eq!(w.client.verify_audit(&cfg(), 999_999, &resp), Err(AuditError::NoEvidence));
    }
}
