//! TPNR wire messages.
//!
//! Each message bundles the §4.1 signed plaintext, the sealed evidence, and
//! whatever payload the step carries (the data itself on upload/download).
//! Messages cross the `tpnr-net` simulator as canonical bytes, so the
//! adversary in the attack harnesses manipulates exactly what a real
//! network attacker could.

use crate::evidence::{EvidencePlaintext, SealedEvidence, VerifiedEvidence};
use tpnr_net::codec::{CodecError, Reader, Wire, Writer};
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// Outcome carried by an Abort response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortOutcome {
    /// Bob accepts the cancellation.
    Accept,
    /// Bob rejects (e.g. transaction already completed on his side).
    Reject,
    /// Bob could not validate the abort request and asks Alice to
    /// regenerate it (the paper's "Error" answer).
    Error,
}

impl AbortOutcome {
    fn wire_id(self) -> u8 {
        match self {
            AbortOutcome::Accept => 1,
            AbortOutcome::Reject => 2,
            AbortOutcome::Error => 3,
        }
    }
    fn from_wire_id(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            1 => AbortOutcome::Accept,
            2 => AbortOutcome::Reject,
            3 => AbortOutcome::Error,
            other => return Err(CodecError::BadDiscriminant("abort outcome", other as u64)),
        })
    }
}

/// Action a resolve response announces (paper §4.3: "Bob may agree to
/// continue the transaction; or, he may require Alice to restart").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveAction {
    /// Continue the disrupted transaction.
    Continue,
    /// Restart the session from scratch.
    Restart,
    /// Session failed; TTP reports the counterparty unresponsive.
    Failed,
}

impl ResolveAction {
    fn wire_id(self) -> u8 {
        match self {
            ResolveAction::Continue => 1,
            ResolveAction::Restart => 2,
            ResolveAction::Failed => 3,
        }
    }
    fn from_wire_id(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            1 => ResolveAction::Continue,
            2 => ResolveAction::Restart,
            3 => ResolveAction::Failed,
            other => return Err(CodecError::BadDiscriminant("resolve action", other as u64)),
        })
    }
}

/// Every message that crosses the wire in the TPNR protocol.
// Variant sizes differ because some carry payloads/evidence and some don't;
// messages are built once and moved to the wire, so boxing the large
// variants would only add indirection on the hot encode path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Alice → Bob: upload `data` with evidence (NRO). Also used for
    /// download requests, where `data` is the request description (object
    /// key) rather than bulk payload.
    Transfer {
        /// Signed plaintext.
        plaintext: EvidencePlaintext,
        /// Payload bytes (data on upload; object key on download request).
        /// Shared handle: cloning the message never copies the object.
        data: Bytes,
        /// Sealed NRO.
        evidence: SealedEvidence,
    },
    /// Bob → Alice: receipt with evidence (NRR). On download this carries
    /// the requested data.
    Receipt {
        /// Signed plaintext.
        plaintext: EvidencePlaintext,
        /// Payload bytes (empty on upload receipt; data on download).
        /// Shared handle: cloning the message never copies the object.
        data: Bytes,
        /// Sealed NRR.
        evidence: SealedEvidence,
    },
    /// Alice → Bob: abort the transaction (off-line TTP mode, §4.2).
    Abort {
        /// Signed plaintext (flag = AbortRequest).
        plaintext: EvidencePlaintext,
        /// Sealed abort-NRO.
        evidence: SealedEvidence,
    },
    /// Bob → Alice: response to an abort.
    AbortReply {
        /// Accept / Reject / Error.
        outcome: AbortOutcome,
        /// Signed plaintext (flag = AbortResponse).
        plaintext: EvidencePlaintext,
        /// Sealed abort-NRR.
        evidence: SealedEvidence,
    },
    /// Initiator → TTP: resolve a stuck transaction (§4.3). Carries the
    /// initiator's archived evidence so the TTP can check genuineness.
    Resolve {
        /// Signed plaintext (flag = ResolveRequest).
        plaintext: EvidencePlaintext,
        /// The initiator's NRO for the stuck transaction (already verified
        /// by the initiator when built, re-checked by the TTP).
        nro: VerifiedEvidence,
        /// Free-form anomaly report.
        report: String,
    },
    /// TTP → counterparty: forwarded resolve query with TTP timestamp.
    ResolveForward {
        /// Signed plaintext (flag = ResolveForward, sender = TTP).
        plaintext: EvidencePlaintext,
        /// TTP's receipt timestamp.
        ttp_timestamp: SimTime,
    },
    /// Counterparty → TTP → initiator: resolution.
    ResolveReply {
        /// What happens next.
        action: ResolveAction,
        /// Signed plaintext (flag = ResolveResponse).
        plaintext: EvidencePlaintext,
        /// Sealed NRR for the stuck transaction (present unless `Failed`).
        evidence: Option<SealedEvidence>,
    },
}

impl Message {
    /// The transaction this message belongs to.
    pub fn txn_id(&self) -> u64 {
        self.plaintext().txn_id
    }

    /// The signed plaintext of any variant.
    pub fn plaintext(&self) -> &EvidencePlaintext {
        match self {
            Message::Transfer { plaintext, .. }
            | Message::Receipt { plaintext, .. }
            | Message::Abort { plaintext, .. }
            | Message::AbortReply { plaintext, .. }
            | Message::Resolve { plaintext, .. }
            | Message::ResolveForward { plaintext, .. }
            | Message::ResolveReply { plaintext, .. } => plaintext,
        }
    }

    /// Which of the seven messages this is.
    pub fn kind(&self) -> MsgKind {
        match self {
            Message::Transfer { .. } => MsgKind::Transfer,
            Message::Receipt { .. } => MsgKind::Receipt,
            Message::Abort { .. } => MsgKind::Abort,
            Message::AbortReply { .. } => MsgKind::AbortReply,
            Message::Resolve { .. } => MsgKind::Resolve,
            Message::ResolveForward { .. } => MsgKind::ResolveForward,
            Message::ResolveReply { .. } => MsgKind::ResolveReply,
        }
    }
}

/// A [`Message`] variant without its contents: one byte, so the events
/// that name a message stay small.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgKind {
    /// [`Message::Transfer`].
    Transfer,
    /// [`Message::Receipt`].
    Receipt,
    /// [`Message::Abort`].
    Abort,
    /// [`Message::AbortReply`].
    AbortReply,
    /// [`Message::Resolve`].
    Resolve,
    /// [`Message::ResolveForward`].
    ResolveForward,
    /// [`Message::ResolveReply`].
    ResolveReply,
}

impl MsgKind {
    /// The variant's name (`Transfer`, `Receipt`, …): the label traces and
    /// experiment logs print, and what a
    /// [`FaultPlan::crash_on_msg`](crate::fault::FaultPlan::crash_on_msg)
    /// rule names.
    pub fn label(self) -> &'static str {
        match self {
            MsgKind::Transfer => "Transfer",
            MsgKind::Receipt => "Receipt",
            MsgKind::Abort => "Abort",
            MsgKind::AbortReply => "AbortReply",
            MsgKind::Resolve => "Resolve",
            MsgKind::ResolveForward => "ResolveForward",
            MsgKind::ResolveReply => "ResolveReply",
        }
    }
}

impl std::fmt::Display for MsgKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Wire for Message {
    fn encode(&self, w: &mut Writer) {
        match self {
            Message::Transfer { plaintext, data, evidence } => {
                w.u8(1);
                plaintext.encode(w);
                w.bytes(data);
                evidence.encode(w);
            }
            Message::Receipt { plaintext, data, evidence } => {
                w.u8(2);
                plaintext.encode(w);
                w.bytes(data);
                evidence.encode(w);
            }
            Message::Abort { plaintext, evidence } => {
                w.u8(3);
                plaintext.encode(w);
                evidence.encode(w);
            }
            Message::AbortReply { outcome, plaintext, evidence } => {
                w.u8(4);
                w.u8(outcome.wire_id());
                plaintext.encode(w);
                evidence.encode(w);
            }
            Message::Resolve { plaintext, nro, report } => {
                w.u8(5);
                plaintext.encode(w);
                nro.encode(w);
                w.str(report);
            }
            Message::ResolveForward { plaintext, ttp_timestamp } => {
                w.u8(6);
                plaintext.encode(w);
                w.u64(ttp_timestamp.0);
            }
            Message::ResolveReply { action, plaintext, evidence } => {
                w.u8(7);
                w.u8(action.wire_id());
                plaintext.encode(w);
                match evidence {
                    Some(e) => {
                        w.bool(true);
                        e.encode(w);
                    }
                    None => {
                        w.bool(false);
                    }
                }
            }
        }
    }

    fn encoded_len(&self) -> usize {
        // The variant tag, then each variant's fields as `encode` writes them.
        1 + match self {
            Message::Transfer { plaintext, data, evidence }
            | Message::Receipt { plaintext, data, evidence } => {
                plaintext.encoded_len() + 4 + data.len() + evidence.encoded_len()
            }
            Message::Abort { plaintext, evidence } => {
                plaintext.encoded_len() + evidence.encoded_len()
            }
            Message::AbortReply { plaintext, evidence, .. } => {
                1 + plaintext.encoded_len() + evidence.encoded_len()
            }
            Message::Resolve { plaintext, nro, report } => {
                plaintext.encoded_len() + nro.encoded_len() + 4 + report.len()
            }
            Message::ResolveForward { plaintext, .. } => plaintext.encoded_len() + 8,
            Message::ResolveReply { plaintext, evidence, .. } => {
                1 + plaintext.encoded_len() + 1 + evidence.as_ref().map_or(0, Wire::encoded_len)
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.u8()? {
            1 => Message::Transfer {
                plaintext: EvidencePlaintext::decode(r)?,
                data: r.bytes_shared()?,
                evidence: SealedEvidence::decode(r)?,
            },
            2 => Message::Receipt {
                plaintext: EvidencePlaintext::decode(r)?,
                data: r.bytes_shared()?,
                evidence: SealedEvidence::decode(r)?,
            },
            3 => Message::Abort {
                plaintext: EvidencePlaintext::decode(r)?,
                evidence: SealedEvidence::decode(r)?,
            },
            4 => Message::AbortReply {
                outcome: AbortOutcome::from_wire_id(r.u8()?)?,
                plaintext: EvidencePlaintext::decode(r)?,
                evidence: SealedEvidence::decode(r)?,
            },
            5 => Message::Resolve {
                plaintext: EvidencePlaintext::decode(r)?,
                nro: VerifiedEvidence::decode(r)?,
                report: r.str()?,
            },
            6 => Message::ResolveForward {
                plaintext: EvidencePlaintext::decode(r)?,
                ttp_timestamp: SimTime(r.u64()?),
            },
            7 => Message::ResolveReply {
                action: ResolveAction::from_wire_id(r.u8()?)?,
                plaintext: EvidencePlaintext::decode(r)?,
                evidence: if r.bool()? { Some(SealedEvidence::decode(r)?) } else { None },
            },
            other => return Err(CodecError::BadDiscriminant("message", other as u64)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::Flag;
    use crate::principal::PrincipalId;
    use tpnr_crypto::hash::HashAlg;

    fn pt(flag: Flag) -> EvidencePlaintext {
        EvidencePlaintext {
            flag,
            sender: PrincipalId([1; 32]),
            recipient: PrincipalId([2; 32]),
            ttp: PrincipalId([3; 32]),
            txn_id: 7,
            seq: 3,
            nonce: 99,
            time_limit: SimTime(123),
            object: b"obj".to_vec(),
            hash_alg: HashAlg::Sha256,
            data_hash: vec![0xaa; 32],
        }
    }

    fn sealed() -> SealedEvidence {
        SealedEvidence { sealed: vec![1, 2, 3, 4] }
    }

    fn all_messages() -> Vec<Message> {
        vec![
            Message::Transfer {
                plaintext: pt(Flag::UploadRequest),
                data: b"d".to_vec().into(),
                evidence: sealed(),
            },
            Message::Receipt {
                plaintext: pt(Flag::UploadReceipt),
                data: Bytes::new(),
                evidence: sealed(),
            },
            Message::Abort { plaintext: pt(Flag::AbortRequest), evidence: sealed() },
            Message::AbortReply {
                outcome: AbortOutcome::Accept,
                plaintext: pt(Flag::AbortResponse),
                evidence: sealed(),
            },
            Message::Resolve {
                plaintext: pt(Flag::ResolveRequest),
                nro: VerifiedEvidence {
                    plaintext: pt(Flag::UploadRequest),
                    sig_data_hash: vec![5; 64],
                    sig_plaintext: vec![6; 64],
                },
                report: "no response before timeout".into(),
            },
            Message::ResolveForward {
                plaintext: pt(Flag::ResolveForward),
                ttp_timestamp: SimTime(55),
            },
            Message::ResolveReply {
                action: ResolveAction::Continue,
                plaintext: pt(Flag::ResolveResponse),
                evidence: Some(sealed()),
            },
            Message::ResolveReply {
                action: ResolveAction::Failed,
                plaintext: pt(Flag::ResolveResponse),
                evidence: None,
            },
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in all_messages() {
            let enc = m.to_wire();
            let dec = Message::from_wire(&enc).unwrap();
            assert_eq!(dec, m, "{}", m.kind());
            assert_eq!(dec.to_wire(), enc, "canonical: {}", m.kind());
            // The buffer is sized once, exactly: no growth, no slack.
            assert_eq!(m.encoded_len(), enc.len(), "encoded_len: {}", m.kind());
            let frame = m.to_wire_bytes();
            assert_eq!(frame.pinned_len(), frame.len(), "spare capacity: {}", m.kind());
        }
    }

    #[test]
    fn transfer_data_decodes_as_a_view_into_the_frame() {
        let m = Message::Transfer {
            plaintext: pt(Flag::UploadRequest),
            data: vec![0x5au8; 8192].into(),
            evidence: sealed(),
        };
        let frame = m.to_wire_bytes();
        let decoded = Message::from_wire_bytes(&frame).unwrap();
        assert_eq!(decoded, m);
        let Message::Transfer { data, .. } = decoded else { unreachable!() };
        assert!(
            data.same_allocation(&frame.slice(0..frame.len())),
            "bulk data must alias the received frame, not be re-allocated"
        );
    }

    #[test]
    fn txn_id_and_kind_accessors() {
        for m in all_messages() {
            assert_eq!(m.txn_id(), 7);
            assert!(!m.kind().label().is_empty());
        }
    }

    #[test]
    fn unknown_discriminants_rejected() {
        assert!(Message::from_wire(&[0]).is_err());
        assert!(Message::from_wire(&[8]).is_err());
        assert!(AbortOutcome::from_wire_id(0).is_err());
        assert!(ResolveAction::from_wire_id(9).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        for m in all_messages() {
            let enc = m.to_wire();
            for cut in [0, 1, enc.len() / 2, enc.len() - 1] {
                assert!(Message::from_wire(&enc[..cut]).is_err(), "{} cut {}", m.kind(), cut);
            }
        }
    }
}
