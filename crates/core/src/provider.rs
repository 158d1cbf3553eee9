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

use crate::config::ProtocolConfig;
use crate::evidence::{open_and_verify, EvidencePlaintext, Flag, VerifiedEvidence};
use crate::message::{AbortOutcome, Message, ResolveAction};
use crate::principal::{Directory, Principal, PrincipalId};
use crate::session::{Outgoing, Payload, TxnState, ValidationError, Validator};
use std::collections::HashMap;
use std::sync::Arc;
use tpnr_crypto::hash::DigestCache;
use tpnr_crypto::{ChaChaRng, RsaPublicKey};
use tpnr_net::codec::Wire;
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// Sealed NRR plus the raw `(data-sig, plaintext-sig)` pair, kept so the
/// receipt can be re-issued on a Resolve forward.
type SealedWithSigs = (crate::evidence::SealedEvidence, (Vec<u8>, Vec<u8>));

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
    /// Counterparty (Alice).
    pub peer: PrincipalId,
    /// Object this transaction concerns.
    pub object: Vec<u8>,
    /// Upload or download.
    pub kind: Flag,
    /// The NRO Bob received and verified (his proof of what Alice sent).
    pub nro: VerifiedEvidence,
    /// The NRR plaintext Bob signed (his commitment).
    pub nrr_plaintext: EvidencePlaintext,
    /// Signatures Bob produced for the NRR (kept to re-issue on Resolve).
    pub nrr_sigs: (Vec<u8>, Vec<u8>),
    /// Transaction state from Bob's perspective.
    pub state: TxnState,
}

/// The provider actor.
pub struct Provider {
    me: Principal,
    cfg: ProtocolConfig,
    dir: Directory,
    ttp: PrincipalId,
    rng: ChaChaRng,
    validator: Validator,
    /// Stored objects as shared immutable buffers: upload, archive and
    /// download-response all hold the same allocation.
    storage: HashMap<Vec<u8>, Bytes>,
    /// Records behind shared pointers, as in the client: a durable
    /// snapshot holds the same allocation.
    txns: HashMap<u64, Arc<ProviderTxn>>,
    wire_keys: HashMap<PrincipalId, RsaPublicKey>,
    /// Memoizes payload commitments by buffer identity: a stored object
    /// served to N downloaders hashes once, not N times.
    cache: DigestCache,
    /// Misbehaviour switches.
    pub behavior: ProviderBehavior,
    /// Message/tick counters, maintained by the scheduler-facing
    /// [`Actor`](crate::sched::Actor) impl.
    pub actor_stats: crate::obs::ActorStats,
    /// Crash-recovery epochs survived; scales the sequence skip applied on
    /// each restore.
    restarts: u64,
}

impl Provider {
    /// Creates a provider actor.
    pub fn new(
        me: Principal,
        cfg: ProtocolConfig,
        dir: Directory,
        ttp: PrincipalId,
        rng: ChaChaRng,
    ) -> Self {
        let my_id = me.id();
        Provider {
            me,
            cfg,
            dir,
            ttp,
            rng,
            validator: Validator::new(my_id, ttp),
            storage: HashMap::new(),
            txns: HashMap::new(),
            wire_keys: HashMap::new(),
            cache: DigestCache::new(32),
            behavior: ProviderBehavior::default(),
            actor_stats: crate::obs::ActorStats::default(),
            restarts: 0,
        }
    }

    /// Crash-recovery epochs this provider has survived.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// This provider's principal id.
    pub fn id(&self) -> PrincipalId {
        self.me.id()
    }

    /// Learns a key from the wire (only honoured when key authentication is
    /// ablated; attack harnesses use this to poison the key store).
    pub fn learn_wire_key(&mut self, id: PrincipalId, pk: RsaPublicKey) {
        self.wire_keys.insert(id, pk);
    }

    fn lookup_key(&self, id: &PrincipalId) -> Option<RsaPublicKey> {
        if self.cfg.authenticate_keys {
            self.dir.lookup(id).cloned()
        } else {
            self.wire_keys.get(id).cloned().or_else(|| self.dir.lookup(id).cloned())
        }
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
        let mut ids: Vec<u64> = self.txns.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Evicts a settled transaction's session record (the stored object
    /// itself stays — it is the service, not session state) and retires its
    /// validator window. Returns the record for the caller's archive.
    pub fn evict_txn(&mut self, txn_id: u64) -> Option<ProviderTxn> {
        let record = self.txns.remove(&txn_id)?;
        self.validator.retire_txn(txn_id);
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
        let expected = if self.cfg.bind_identities { Some(from) } else { None };
        self.validator.check(&self.cfg, pt, expected, now)?;

        // Decode from the Bytes frame: the bulk data stays a view into the
        // received message, and the same view goes into storage below.
        let payload = Payload::from_wire_bytes(data).map_err(|_| ValidationError::HashMismatch)?;
        let commitment = payload.commit_cached(&self.cfg, &mut self.cache);
        if !tpnr_crypto::ct::eq(&pt.data_hash, &commitment) || pt.object != payload.key {
            return Err(ValidationError::HashMismatch);
        }
        let sender_pk = self.lookup_key(&pt.sender).ok_or(ValidationError::NoKey(pt.sender))?;
        let nro = open_and_verify(&self.cfg, &self.me, &sender_pk, pt, evidence)
            .map_err(ValidationError::Evidence)?;

        // Serve the request. Bytes clones are refcount bumps, so storing an
        // upload and serving a download never copy the object.
        let response_payload = match pt.flag {
            Flag::UploadRequest => {
                self.storage.insert(payload.key.clone(), payload.data.clone());
                // Upload receipt acknowledges the same payload hash; carries
                // no bulk data back.
                Payload { key: payload.key.clone(), data: payload.data }
            }
            // Guarded to UploadRequest | DownloadRequest at the top.
            _ => {
                let stored = self.storage.get(&payload.key).cloned().unwrap_or_default();
                Payload { key: payload.key.clone(), data: stored }
            }
        };
        let response_hash = response_payload.commit_cached(&self.cfg, &mut self.cache);
        let (reply_flag, reply_data) = match pt.flag {
            Flag::UploadRequest => (Flag::UploadReceipt, Bytes::new()),
            _ => (Flag::DownloadResponse, response_payload.to_wire_bytes()),
        };

        let nrr_pt = EvidencePlaintext {
            flag: reply_flag,
            sender: self.me.id(),
            recipient: pt.sender,
            ttp: self.ttp,
            txn_id: pt.txn_id,
            seq: self.validator.alloc_seq(pt.txn_id),
            nonce: self.rng.next_u64(),
            time_limit: now.after(self.cfg.message_time_limit),
            object: payload.key.clone(),
            hash_alg: pt.hash_alg,
            data_hash: response_hash,
        };
        let (sealed, sigs) =
            self.sign_and_seal(&nrr_pt, &sender_pk).map_err(ValidationError::Evidence)?;

        self.txns.insert(
            pt.txn_id,
            Arc::new(ProviderTxn {
                peer: pt.sender,
                object: payload.key,
                kind: pt.flag,
                nro,
                nrr_plaintext: nrr_pt.clone(),
                nrr_sigs: sigs,
                state: TxnState::Completed,
            }),
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
        let expected = if self.cfg.bind_identities { Some(from) } else { None };
        self.validator.check(&self.cfg, pt, expected, now)?;
        let sender_pk = self.lookup_key(&pt.sender).ok_or(ValidationError::NoKey(pt.sender))?;

        // Verify consistency of the request; an unverifiable abort gets the
        // paper's "Error" answer asking Alice to regenerate it.
        let abort_nro = open_and_verify(&self.cfg, &self.me, &sender_pk, pt, evidence);
        let outcome = match (&abort_nro, self.txns.get(&pt.txn_id)) {
            (Err(_), _) => AbortOutcome::Error,
            // Transaction already completed on our side: too late to cancel.
            (Ok(_), Some(rec)) if rec.state == TxnState::Completed => AbortOutcome::Reject,
            (Ok(_), _) => AbortOutcome::Accept,
        };
        if let (Ok(nro), AbortOutcome::Accept) = (&abort_nro, outcome) {
            // Record the aborted transaction with the abort evidence. An
            // existing record is not Completed (that is a Reject), so it
            // is already Aborted.
            self.txns.entry(pt.txn_id).or_insert_with(|| {
                Arc::new(ProviderTxn {
                    peer: pt.sender,
                    object: pt.object.clone(),
                    kind: Flag::AbortRequest,
                    nro: nro.clone(),
                    nrr_plaintext: pt.clone(),
                    nrr_sigs: (Vec::new(), Vec::new()),
                    state: TxnState::Aborted,
                })
            });
        }

        let reply_pt = EvidencePlaintext {
            flag: Flag::AbortResponse,
            sender: self.me.id(),
            recipient: pt.sender,
            ttp: self.ttp,
            txn_id: pt.txn_id,
            seq: self.validator.alloc_seq(pt.txn_id),
            nonce: self.rng.next_u64(),
            time_limit: now.after(self.cfg.message_time_limit),
            object: pt.object.clone(),
            hash_alg: pt.hash_alg,
            data_hash: pt.data_hash.clone(),
        };
        let (sealed, _) =
            self.sign_and_seal(&reply_pt, &sender_pk).map_err(ValidationError::Evidence)?;
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
        if self.cfg.bind_identities && (from != self.ttp || pt.sender != self.ttp) {
            return Err(ValidationError::IdentityMismatch);
        }
        self.validator.check(&self.cfg, pt, None, now)?;

        let (action, evidence) = match self.txns.get(&pt.txn_id) {
            Some(rec) if !rec.nrr_sigs.0.is_empty() => {
                // Re-issue the NRR, re-sealed for Alice (she may have never
                // received the original receipt).
                let peer_pk = self.lookup_key(&rec.peer).ok_or(ValidationError::NoKey(rec.peer))?;
                let sealed = crate::evidence::seal_signatures(
                    &peer_pk,
                    &mut self.rng,
                    &rec.nrr_sigs.0,
                    &rec.nrr_sigs.1,
                )
                .map_err(ValidationError::Evidence)?;
                (ResolveAction::Continue, Some((sealed, rec.nrr_plaintext.clone())))
            }
            // We never saw the transaction (the NRO was lost in flight):
            // ask Alice to restart the session.
            _ => (ResolveAction::Restart, None),
        };

        let (reply_pt, sealed_evidence) = match evidence {
            Some((sealed, nrr_pt)) => (nrr_pt, Some(sealed)),
            None => (
                EvidencePlaintext {
                    flag: Flag::ResolveResponse,
                    sender: self.me.id(),
                    recipient: pt.sender, // routed back via the TTP
                    ttp: self.ttp,
                    txn_id: pt.txn_id,
                    seq: self.validator.alloc_seq(pt.txn_id),
                    nonce: self.rng.next_u64(),
                    time_limit: now.after(self.cfg.message_time_limit),
                    object: pt.object.clone(),
                    hash_alg: pt.hash_alg,
                    data_hash: pt.data_hash.clone(),
                },
                None,
            ),
        };
        Ok(vec![Outgoing {
            to: self.ttp,
            msg: Message::ResolveReply { action, plaintext: reply_pt, evidence: sealed_evidence },
        }])
    }

    fn sign_and_seal(
        &mut self,
        pt: &EvidencePlaintext,
        recipient_pk: &RsaPublicKey,
    ) -> Result<SealedWithSigs, crate::evidence::EvidenceError> {
        // Sign once, keep the signatures for Resolve re-issue, and seal —
        // both steps through the core::evidence constructors so the
        // sign-then-encrypt order is witnessed by the API.
        let (s1, s2) = crate::evidence::sign_pair(&self.cfg, &self.me, pt)?;
        let sealed = crate::evidence::seal_signatures(recipient_pk, &mut self.rng, &s1, &s2)?;
        Ok((sealed, (s1, s2)))
    }
}

/// Durable image of a [`Provider`]: object store, transaction records
/// (including re-issuable NRR signatures) and validator sequence state.
#[derive(Debug, Clone)]
pub struct ProviderSnapshot {
    storage: HashMap<Vec<u8>, Bytes>,
    txns: HashMap<u64, Arc<ProviderTxn>>,
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
        let mut bytes = self.validator.state_bytes() + 8;
        for (key, data) in &self.storage {
            bytes += (key.len() + data.as_ref().len()) as u64;
        }
        for t in self.txns.values() {
            bytes += (t.object.len() + t.nrr_sigs.0.len() + t.nrr_sigs.1.len() + 64) as u64;
            bytes += crate::fault::evidence_bytes(&t.nro);
        }
        ProviderSnapshot {
            storage: self.storage.clone(),
            txns: self.txns.clone(),
            validator: self.validator.snapshot(),
            bytes,
        }
    }

    fn restore(&mut self, snap: &ProviderSnapshot) {
        self.restarts += 1;
        let skip = self.restarts.saturating_mul(crate::fault::SEQ_RECOVERY_SKIP);
        self.storage = snap.storage.clone();
        self.txns = snap.txns.clone();
        self.validator.restore_with_skip(&snap.validator, skip);
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
