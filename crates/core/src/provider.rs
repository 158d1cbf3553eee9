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
    open_and_verify, seal, seal_and_own, seal_signatures, EvidencePlaintext, Flag, VerifiedEvidence,
};
use crate::message::{AbortOutcome, Message, ResolveAction};
use crate::principal::PrincipalId;
use crate::session::{Outgoing, Party, Payload, TxnState, ValidationError};
use std::collections::BTreeMap;
use std::sync::Arc;
use tpnr_crypto::hash::DigestCache;
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

/// Bob's durable record of one transaction.
#[derive(Debug, Clone)]
pub struct ProviderTxn {
    /// The NRO Bob received and verified (his proof of what Alice sent).
    /// Its plaintext names the counterparty (its sender), the object and
    /// the kind: an upload or download request, or Alice's abort request
    /// for an aborted transaction.
    pub nro: VerifiedEvidence,
    /// The NRR Bob signed for a served transfer (his commitment, kept to
    /// re-issue on Resolve); `None` for an aborted transaction, where Bob
    /// committed to nothing.
    pub nrr: Option<VerifiedEvidence>,
    /// Transaction state from Bob's perspective.
    pub state: TxnState,
}

/// The provider actor.
pub struct Provider {
    /// Identity, config, keys, RNG, validator and restart epoch.
    pub party: Party,
    /// Stored objects as shared immutable buffers: upload, archive and
    /// download-response all hold the same allocation.
    storage: BTreeMap<Vec<u8>, Bytes>,
    /// Records behind shared pointers, as in the client: a durable
    /// snapshot holds the same allocation.
    txns: BTreeMap<u64, Arc<ProviderTxn>>,
    /// Memoizes payload commitments by buffer identity: a stored object
    /// served to N downloaders hashes once, not N times.
    cache: DigestCache,
    /// Misbehaviour switches.
    pub behavior: ProviderBehavior,
    /// Message/tick counters, maintained by the scheduler-facing
    /// [`Actor`](crate::sched::Actor) impl.
    pub actor_stats: crate::obs::ActorStats,
}

impl Provider {
    /// Creates a provider actor.
    pub fn new(party: Party) -> Self {
        Provider {
            party,
            storage: BTreeMap::new(),
            txns: BTreeMap::new(),
            cache: DigestCache::new(32),
            behavior: ProviderBehavior::default(),
            actor_stats: crate::obs::ActorStats::default(),
        }
    }

    /// This provider's principal id.
    pub fn id(&self) -> PrincipalId {
        self.party.id()
    }

    /// Provider-side storage tamper (Eve's move in the Figure-5 scenario).
    ///
    /// The tampered bytes go into a **fresh allocation** (`Bytes::from` the
    /// owned vec): stored buffers are immutable-by-sharing, and a new
    /// allocation means a new digest-cache identity — a tampered object can
    /// never be answered with the old object's memoized hash.
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
    pub fn txn(&self, txn_id: u64) -> Option<&ProviderTxn> {
        self.txns.get(&txn_id).map(Arc::as_ref)
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
    /// itself stays — it is the service, not session state) and retires its
    /// validator window. Returns the record for the caller's archive.
    pub fn evict_txn(&mut self, txn_id: u64) -> Option<ProviderTxn> {
        let record = self.txns.remove(&txn_id)?;
        self.party.validator.retire_txn(txn_id);
        Some(Arc::unwrap_or_clone(record))
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
        p.validator.check(&p.cfg, pt, Some(from), now)?;

        // Decode from the Bytes frame: the bulk data stays a view into the
        // received message, and the same view goes into storage below.
        let payload = Payload::from_wire_bytes(data).map_err(|_| ValidationError::HashMismatch)?;
        let commitment = payload.commit_cached(&p.cfg, &mut self.cache);
        if !tpnr_crypto::ct::eq(&pt.data_hash, &commitment) || pt.object != payload.key {
            return Err(ValidationError::HashMismatch);
        }
        let sender_pk = p.key(pt.sender)?;
        let nro = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence)
            .map_err(ValidationError::Evidence)?;

        // Serve the request. Bytes clones are refcount bumps, so storing an
        // upload and serving a download never copy the object.
        let response_payload = match pt.flag {
            Flag::UploadRequest => {
                self.storage.insert(payload.key.clone(), payload.data.clone());
                // Upload receipt acknowledges the same payload hash; carries
                // no bulk data back.
                payload
            }
            // Guarded to UploadRequest | DownloadRequest at the top.
            _ => {
                let stored = self.storage.get(&payload.key).cloned().unwrap_or_default();
                Payload { key: payload.key, data: stored }
            }
        };
        let response_hash = response_payload.commit_cached(&p.cfg, &mut self.cache);
        let (reply_flag, reply_data) = match pt.flag {
            Flag::UploadRequest => (Flag::UploadReceipt, Bytes::new()),
            _ => (Flag::DownloadResponse, response_payload.to_wire_bytes()),
        };

        // The receipt names the response's hash: on a download, that of
        // the object Bob serves.
        let seq = p.validator.alloc_seq(pt.txn_id);
        let nrr_pt = p.stamp_hash(pt, response_hash, reply_flag, pt.sender, seq, now);
        let (sealed, nrr) = seal_and_own(&p.cfg, &p.me, &sender_pk, &nrr_pt, &mut p.rng)
            .map_err(ValidationError::Evidence)?;

        self.txns.insert(
            pt.txn_id,
            Arc::new(ProviderTxn { nro, nrr: Some(nrr), state: TxnState::Completed }),
        );
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
        p.validator.check(&p.cfg, pt, Some(from), now)?;
        let sender_pk = p.key(pt.sender)?;

        // Verify consistency of the request; an unverifiable abort gets the
        // paper's "Error" answer asking Alice to regenerate it.
        let abort_nro = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence);
        let outcome = match (&abort_nro, self.txns.get(&pt.txn_id)) {
            (Err(_), _) => AbortOutcome::Error,
            // Transaction already completed on our side: too late to cancel.
            (Ok(_), Some(rec)) if rec.state == TxnState::Completed => AbortOutcome::Reject,
            (Ok(_), _) => AbortOutcome::Accept,
        };
        if let (Ok(nro), AbortOutcome::Accept) = (abort_nro, outcome) {
            // Record the aborted transaction with the abort evidence. An
            // existing record is not Completed (that is a Reject), so it
            // is already Aborted.
            self.txns.entry(pt.txn_id).or_insert_with(|| {
                Arc::new(ProviderTxn { nro, nrr: None, state: TxnState::Aborted })
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

        let (action, plaintext, evidence) = match self.txns.get(&pt.txn_id).map(Arc::as_ref) {
            Some(ProviderTxn { nro, nrr: Some(nrr), .. }) => {
                // Re-issue the NRR, re-sealed for Alice (she may have never
                // received the original receipt).
                let peer_pk = p.key(nro.plaintext.sender)?;
                let sealed =
                    seal_signatures(&peer_pk, &mut p.rng, &nrr.sig_data_hash, &nrr.sig_plaintext)
                        .map_err(ValidationError::Evidence)?;
                (ResolveAction::Continue, nrr.plaintext.clone(), Some(sealed))
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
/// (including each re-issuable NRR) and validator sequence state.
#[derive(Debug, Clone)]
pub struct ProviderSnapshot {
    storage: BTreeMap<Vec<u8>, Bytes>,
    txns: BTreeMap<u64, Arc<ProviderTxn>>,
    validator: crate::session::ValidatorSnapshot,
    bytes: u64,
}

impl ProviderSnapshot {
    /// Approximate serialized size of this snapshot.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl crate::fault::Durable for Provider {
    type Snapshot = ProviderSnapshot;

    fn snapshot(&self) -> ProviderSnapshot {
        let mut bytes = self.party.validator.state_bytes() + 8;
        for (key, data) in &self.storage {
            bytes += (key.len() + data.as_ref().len()) as u64;
        }
        for t in self.txns.values() {
            let sigs = t.nrr.as_ref().map_or(0, |e| e.sig_data_hash.len() + e.sig_plaintext.len());
            bytes += (t.nro.plaintext.object.len() + sigs + 64) as u64;
            bytes += crate::fault::evidence_bytes(&t.nro);
        }
        ProviderSnapshot {
            storage: self.storage.clone(),
            txns: self.txns.clone(),
            validator: self.party.validator.snapshot(),
            bytes,
        }
    }

    fn restore(&mut self, snap: &ProviderSnapshot) {
        self.party.restore(&snap.validator);
        self.storage = snap.storage.clone();
        self.txns = snap.txns.clone();
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
        let result = self.handle(from, msg, now);
        self.actor_stats.note_message(&result);
        result
    }
}
