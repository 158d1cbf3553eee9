//! The cloud storage provider (Bob) — TPNR responder.
//!
//! Bob accepts upload/download transfers, stores objects, answers every
//! valid Transfer with a Receipt carrying his NRR, handles Abort requests
//! (paper §4.2: verify consistency, answer Accept/Reject, or Error for a
//! malformed request), and answers TTP Resolve forwards by re-issuing the
//! NRR (§4.3).
//!
//! For experiments the provider can be made *misbehaving* via
//! [`ProviderBehavior`]: silent (never answers — the unfair counterparty the
//! Resolve mode exists for) and/or tampering with stored objects (the
//! Figure-5 integrity threat).

use crate::config::Ablation;
use crate::evidence::{
    open_and_verify, seal, seal_and_own, seal_signatures, EvidencePair, EvidencePlaintext, Flag,
    Principals, Record,
};
use crate::message::{AbortOutcome, Message, ResolveAction};
use crate::principal::PrincipalId;
use crate::session::{Outgoing, Party, Payload, TxnState, ValidationError};
use std::collections::BTreeMap;
use std::sync::Arc;
use tpnr_net::codec::Wire;
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// Behaviour knobs for misbehaving-provider experiments.
#[derive(Debug, Clone)]
pub struct ProviderBehavior {
    /// Answer Transfer messages (off → Alice's receipts never come).
    pub respond_transfers: bool,
    /// Answer Abort requests.
    pub respond_aborts: bool,
    /// Answer TTP Resolve forwards.
    pub respond_resolves: bool,
}

impl Default for ProviderBehavior {
    fn default() -> Self {
        ProviderBehavior { respond_transfers: true, respond_aborts: true, respond_resolves: true }
    }
}

/// Bob's durable record of one transaction: the NRO he received and, for
/// a served transfer, the NRR he signed, in one shared buffer that
/// indexes his principals and that [`Provider::txn`] reads
/// ([`Record::nro`], [`Record::nrr`]). The buffer is the record's only
/// heap block: a durable snapshot shares it by pointer, and nothing
/// changes a record once it is written.
#[derive(Debug, Clone)]
pub struct ProviderTxn {
    evidence: EvidencePair<Arc<[u8]>>,
}

impl ProviderTxn {
    /// Transaction state from Bob's perspective: `Completed` for a served
    /// transfer, the one kind of record that holds an NRR, and `Aborted`
    /// for an accepted abort, which holds Alice's abort request alone.
    pub fn state(&self) -> TxnState {
        match self.evidence.lens() {
            Ok((_, Some(_))) => TxnState::Completed,
            _ => TxnState::Aborted,
        }
    }
}

/// The provider actor.
pub struct Provider {
    /// Identity, config, keys, RNG, validator and restart epoch.
    pub party: Party,
    /// Stored objects as shared immutable buffers: upload, archive and
    /// download-response all hold the same allocation.
    storage: BTreeMap<Vec<u8>, Bytes>,
    /// Records, each one shared buffer: a durable snapshot holds the same
    /// allocation.
    txns: BTreeMap<u64, ProviderTxn>,
    /// Misbehaviour switches.
    pub behavior: ProviderBehavior,
}

impl Provider {
    /// Creates a provider actor.
    pub fn new(party: Party) -> Self {
        Provider {
            party,
            storage: BTreeMap::new(),
            txns: BTreeMap::new(),
            behavior: ProviderBehavior::default(),
        }
    }

    /// This provider's principal id.
    pub fn id(&self) -> PrincipalId {
        self.party.id()
    }

    /// Provider-side storage tamper (Eve's move in the Figure-5 scenario).
    ///
    /// The tampered bytes go into a **fresh allocation** (`Bytes::from` the
    /// owned vec): stored buffers are immutable-by-sharing, so every other
    /// holder of the old object keeps seeing the old bytes, and the next
    /// download commits to the new ones.
    pub fn tamper_storage(&mut self, key: &[u8], new_data: Vec<u8>) -> bool {
        match self.storage.get_mut(key) {
            Some(slot) => {
                *slot = Bytes::from(new_data);
                true
            }
            None => false,
        }
    }

    /// Direct storage read (assertions in tests/experiments).
    pub fn peek_storage(&self, key: &[u8]) -> Option<&[u8]> {
        self.storage.get(key).map(|v| &v[..])
    }

    /// Shared handle to a stored object — clone it to hold the object
    /// without copying (audits and experiments use this).
    pub fn stored(&self, key: &[u8]) -> Option<&Bytes> {
        self.storage.get(key)
    }

    /// Bob's archived record for a transaction.
    pub fn txn(&self, txn_id: u64) -> Option<Record<'_, ProviderTxn>> {
        let t = self.txns.get(&txn_id)?;
        Some(Record::new(t, &t.evidence, &self.party.principals))
    }

    /// Number of transactions archived.
    pub fn txn_count(&self) -> usize {
        self.txns.len()
    }

    /// Ids of the transactions Bob holds a record for, ascending.
    pub(crate) fn txn_ids(&self) -> Vec<u64> {
        self.txns.keys().copied().collect()
    }

    /// Evicts a settled transaction's session record (the stored object
    /// itself stays — it is the service, not session state; the caller
    /// reads the record's evidence for its archive first) and retires its
    /// validator window.
    pub fn evict_txn(&mut self, txn_id: u64) {
        self.txns.remove(&txn_id);
        self.party.validator.retire_txn(txn_id);
    }

    /// Handles one incoming protocol message; returns outgoing messages.
    ///
    /// Invalid messages are dropped with the error surfaced to the caller
    /// (the runner records them in traces).
    pub fn handle(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        match msg {
            Message::Transfer { plaintext, data, evidence } => {
                if !self.behavior.respond_transfers {
                    return Ok(Vec::new());
                }
                self.handle_transfer(from, plaintext, data, evidence, now)
            }
            Message::Abort { plaintext, evidence } => {
                if !self.behavior.respond_aborts {
                    return Ok(Vec::new());
                }
                self.handle_abort(from, plaintext, evidence, now)
            }
            Message::ResolveForward { plaintext, .. } => {
                if !self.behavior.respond_resolves {
                    return Ok(Vec::new());
                }
                self.handle_resolve_forward(from, plaintext, now)
            }
            other => Err(ValidationError::UnexpectedFlag(other.plaintext().flag)),
        }
    }

    fn handle_transfer(
        &mut self,
        from: PrincipalId,
        pt: &EvidencePlaintext,
        data: &Bytes,
        evidence: &crate::evidence::SealedEvidence,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        if !matches!(pt.flag, Flag::UploadRequest | Flag::DownloadRequest) {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        // The claimed plaintext sender must be who the wire says delivered it
        // (when identity binding is on).
        let p = &mut self.party;
        p.validator.verdict(&p.cfg, pt, Some(from), now)?;

        // Decode from the Bytes frame: the bulk data stays a view into the
        // received message, and the same view goes into storage below.
        let payload = Payload::from_wire_bytes(data).map_err(|_| ValidationError::HashMismatch)?;
        let commitment = payload.commit(&p.cfg);
        if !tpnr_crypto::ct::eq(&pt.data_hash, &commitment) || pt.object != payload.key {
            return Err(ValidationError::HashMismatch);
        }
        let sender_pk = p.key(pt.sender)?;
        let nro = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence)
            .map_err(ValidationError::Evidence)?;
        p.validator.accept(&p.cfg, pt);

        // Serve the request. Bytes clones are refcount bumps, so storing an
        // upload and serving a download never copy the object.
        let (reply_flag, response_hash, reply_data) = match pt.flag {
            // An upload receipt acknowledges the payload just verified and
            // carries no bulk data back.
            Flag::UploadRequest => {
                self.storage.insert(payload.key, payload.data);
                (Flag::UploadReceipt, commitment, Bytes::new())
            }
            // Guarded to UploadRequest | DownloadRequest at the top.
            _ => {
                let stored = self.storage.get(&payload.key).cloned().unwrap_or_default();
                let response = Payload { key: payload.key, data: stored };
                (Flag::DownloadResponse, response.commit(&p.cfg), response.to_wire_bytes())
            }
        };

        // The receipt names the response's hash: on a download, that of
        // the object Bob serves.
        let seq = p.validator.alloc_seq(pt.txn_id);
        let nrr_pt = p.stamp_hash(pt, response_hash, reply_flag, pt.sender, seq, now);
        let (sealed, nrr) = seal_and_own(&p.cfg, &p.me, &sender_pk, &nrr_pt, &mut p.rng)
            .map_err(ValidationError::Evidence)?;

        let evidence = EvidencePair::new(&mut p.principals, &nro, Some(&nrr));
        self.txns.insert(pt.txn_id, ProviderTxn { evidence });
        Ok(vec![Outgoing {
            to: pt.sender,
            msg: Message::Receipt { plaintext: nrr_pt, data: reply_data, evidence: sealed },
        }])
    }

    fn handle_abort(
        &mut self,
        from: PrincipalId,
        pt: &EvidencePlaintext,
        evidence: &crate::evidence::SealedEvidence,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        if pt.flag != Flag::AbortRequest {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        let p = &mut self.party;
        p.validator.verdict(&p.cfg, pt, Some(from), now)?;
        let sender_pk = p.key(pt.sender)?;

        // Verify consistency of the request; an unverifiable abort gets the
        // paper's "Error" answer asking Alice to regenerate it, and leaves
        // its sequence number to the genuine one.
        let abort_nro = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence);
        if abort_nro.is_ok() {
            p.validator.accept(&p.cfg, pt);
        }
        let outcome = match (&abort_nro, self.txns.get(&pt.txn_id)) {
            (Err(_), _) => AbortOutcome::Error,
            // Transaction already completed on our side: too late to cancel.
            (Ok(_), Some(rec)) if rec.state() == TxnState::Completed => AbortOutcome::Reject,
            (Ok(_), _) => AbortOutcome::Accept,
        };
        if let (Ok(nro), AbortOutcome::Accept) = (abort_nro, outcome) {
            // Record the aborted transaction with the abort evidence. An
            // existing record is not Completed (that is a Reject), so it
            // is already Aborted.
            self.txns.entry(pt.txn_id).or_insert_with(|| ProviderTxn {
                evidence: EvidencePair::new(&mut p.principals, &nro, None),
            });
        }

        let seq = p.validator.alloc_seq(pt.txn_id);
        let reply_pt = p.stamp(pt, Flag::AbortResponse, pt.sender, seq, now);
        let sealed = seal(&p.cfg, &p.me, &sender_pk, &reply_pt, &mut p.rng)
            .map_err(ValidationError::Evidence)?;
        Ok(vec![Outgoing {
            to: pt.sender,
            msg: Message::AbortReply { outcome, plaintext: reply_pt, evidence: sealed },
        }])
    }

    fn handle_resolve_forward(
        &mut self,
        from: PrincipalId,
        pt: &EvidencePlaintext,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        if pt.flag != Flag::ResolveForward {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        // Resolve forwards must come from the agreed TTP.
        let p = &mut self.party;
        if p.cfg.ablation != Ablation::NoIdentityBinding && (from != p.ttp || pt.sender != p.ttp) {
            return Err(ValidationError::IdentityMismatch);
        }
        p.validator.check(&p.cfg, pt, None, now)?;

        let record = self.txns.get(&pt.txn_id).map(|t| t.evidence.decode(&p.principals));
        let record = record.transpose();
        let (action, plaintext, evidence) = match record.map_err(ValidationError::Evidence)? {
            Some((nro, Some(nrr))) => {
                // Re-issue the NRR, re-sealed for Alice (she may have never
                // received the original receipt).
                let peer_pk = p.key(nro.plaintext.sender)?;
                let sealed =
                    seal_signatures(&peer_pk, &mut p.rng, &nrr.sig_data_hash, &nrr.sig_plaintext)
                        .map_err(ValidationError::Evidence)?;
                (ResolveAction::Continue, nrr.plaintext, Some(sealed))
            }
            // We never saw the transaction (the NRO was lost in flight):
            // ask Alice, via the TTP, to restart the session.
            _ => {
                let seq = p.validator.alloc_seq(pt.txn_id);
                let reply = p.stamp(pt, Flag::ResolveResponse, pt.sender, seq, now);
                (ResolveAction::Restart, reply, None)
            }
        };
        Ok(vec![Outgoing { to: p.ttp, msg: Message::ResolveReply { action, plaintext, evidence } }])
    }
}

/// Durable image of a [`Provider`]: object store, transaction records
/// (including each re-issuable NRR) with the principal table they index,
/// and validator sequence state.
#[derive(Debug, Clone)]
pub struct ProviderSnapshot {
    storage: BTreeMap<Vec<u8>, Bytes>,
    txns: BTreeMap<u64, ProviderTxn>,
    principals: Principals,
    validator: crate::session::ValidatorSnapshot,
    bytes: u64,
}

impl ProviderSnapshot {
    /// Approximate serialized size of this snapshot.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Provider {
    /// Captures the durable protocol state (the contract is in
    /// [`crate::fault`]).
    pub(crate) fn snapshot(&self) -> ProviderSnapshot {
        let mut bytes = self.party.validator.state_bytes() + 8;
        for (key, data) in &self.storage {
            bytes += (key.len() + data.as_ref().len()) as u64;
        }
        for t in self.txns.values() {
            // Weighed by field lengths: a sync decodes no record.
            let (nro, nrr) = t.evidence.lens().unwrap_or_default();
            bytes += (nro.object + nrr.map_or(0, |e| e.sigs) + 64) as u64;
            bytes += crate::fault::evidence_bytes(nro);
        }
        ProviderSnapshot {
            storage: self.storage.clone(),
            txns: self.txns.clone(),
            principals: self.party.principals.clone(),
            validator: self.party.validator.snapshot(),
            bytes,
        }
    }

    /// Replaces the protocol state with `snap`'s, advancing sequence
    /// counters past the crash epoch.
    pub(crate) fn restore(&mut self, snap: &ProviderSnapshot) {
        self.party.restore(&snap.validator);
        self.storage = snap.storage.clone();
        self.txns = snap.txns.clone();
        // Every restored record indexes the snapshot's table.
        self.party.principals = snap.principals.clone();
    }
}

/// The provider is purely reactive: it answers transfers, aborts and
/// resolve forwards but owns no timers, so the `Actor` timer hooks keep
/// their no-op defaults.
impl crate::sched::Actor for Provider {
    fn on_message(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        self.handle(from, msg, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TimeoutStrategy;
    use crate::config::ProtocolConfig;
    use crate::evidence::EvidenceError;
    use crate::multi::MultiWorld;
    use crate::runner::World;
    use tpnr_net::transport::Transport as _;

    #[test]
    fn a_snapshot_restored_into_another_provider_decodes_every_record_alike() {
        // Two providers whose tables number the same two clients in
        // opposite orders: each world's clients upload in its order.
        let [a, mut b] = [[0, 1], [1, 0]].map(|order| {
            let mut w = MultiWorld::new(9, ProtocolConfig::full(), 2);
            for c in order {
                w.start_upload(c, b"k", vec![c as u8; 8], TimeoutStrategy::AbortFirst);
                w.settle();
            }
            w
        });
        assert_ne!(a.provider.party.principals, b.provider.party.principals);
        let evidence = |p: &Provider| -> Vec<_> {
            let decoded = |t| (t, p.txn(t).unwrap().evidence().unwrap());
            p.txn_ids().into_iter().map(decoded).collect()
        };
        let before = evidence(&a.provider);
        assert_eq!(before.len(), 2);
        b.provider.restore(&a.provider.snapshot());
        assert_eq!(evidence(&b.provider), before);
        // Records written after the restore index the same table.
        let h = b.start_upload(1, b"k2", vec![7; 8], TimeoutStrategy::AbortFirst);
        b.settle();
        let nro = b.provider.txn(h.txn_id).unwrap().nro().unwrap();
        assert_eq!(nro.plaintext.sender, b.clients[1].id());
        for (t, ev) in &before {
            assert_eq!(b.provider.txn(*t).unwrap().evidence().as_ref(), Ok(ev));
        }
    }

    #[test]
    fn a_record_that_does_not_decode_gives_errors_never_a_panic() {
        // Bob serves an upload whose receipt never reaches Alice, and the
        // TTP forwards her resolve to him.
        let mut w = World::new(5, ProtocolConfig::full());
        let (alice, ttp, now) = (w.client.id(), w.ttp.id(), w.net().now());
        let strategy = TimeoutStrategy::ResolveImmediately;
        let (txn, out) = w.client.begin_upload(b"k", b"data".to_vec(), now, strategy).unwrap();
        w.provider.handle(alice, &out[0].msg, now).unwrap();
        let later = now.after(w.client.party.cfg.response_timeout);
        let resolve = w.client.poll_timeouts(later);
        let forward = w.ttp.handle(alice, &resolve[0].msg, later).unwrap();

        let bad = w.provider.txns[&txn].evidence.undecodable(&w.provider.party.principals);
        for (i, bad) in bad.into_iter().enumerate() {
            w.provider.txns.get_mut(&txn).unwrap().evidence = bad;
            let t = w.provider.txn(txn).unwrap();
            assert_eq!(t.nrr(), Err(EvidenceError::Malformed), "buffer {i}");
            assert_eq!(t.nro().is_ok(), i == 2 || i == 3, "buffer {i}");
            assert!(w.provider.snapshot().bytes() > 0);
        }
        // The record cannot be re-issued: the forward is refused.
        let refused = w.provider.handle(ttp, &forward[0].msg, later);
        assert_eq!(refused.unwrap_err(), ValidationError::Evidence(EvidenceError::Malformed));
    }
}
