//! The trusted third party — in-line only for the Resolve mode (§4.3).
//!
//! The TTP receives a Resolve request with the initiator's NRO, verifies its
//! genuineness and consistency, forwards the query to the counterparty with
//! a timestamp, relays the reply, and — if the counterparty stays silent
//! past the deadline — tells the initiator the session failed.
//!
//! That Failed reply, like a Restart it relays, is a `ResolveReply` with
//! `evidence: None`: a plaintext the TTP stamps under its own authority,
//! signed by nobody, which the initiator acts on but does not keep. After a
//! TTP-declared failure the initiator holds only her own NRO. A signed
//! failure statement the arbitrator can rule on is ROADMAP.md item 1.
//!
//! Note what the TTP does **not** do: it never stores or forwards the data
//! itself (paper: "normally the size of the data set is very large, which is
//! not feasible to be stored and/or forwarded by the TTP").

use crate::config::Ablation;
use crate::evidence::{EvidencePlaintext, Flag, VerifiedEvidence};
use crate::message::{Message, ResolveAction};
use crate::principal::PrincipalId;
use crate::session::{Outgoing, Party, ValidationError};
use std::collections::BTreeMap;
use tpnr_crypto::ct;
use tpnr_net::time::SimTime;

/// Sequence number of the TTP's own Resolve replies: outside any normal
/// window, it carries the TTP's authority.
const AUTHORITY_SEQ: u64 = u64::MAX / 2;

/// A resolve in flight at the TTP.
#[derive(Debug, Clone)]
struct PendingResolve {
    initiator: PrincipalId,
    deadline: SimTime,
    /// The forward sent to the respondent (its recipient). The TTP's own
    /// reply to the initiator names the same object and data hash.
    forward: EvidencePlaintext,
}

/// The TTP actor.
pub struct Ttp {
    /// Identity, config, keys, RNG, validator and restart epoch; the
    /// party's TTP is this TTP itself.
    pub party: Party,
    /// Resolves awaiting a respondent, by txn id: the timeout sweep
    /// declares failures in this order, so the replies, their nonces and
    /// the event stream are reproducible.
    pending: BTreeMap<u64, PendingResolve>,
}

impl Ttp {
    /// Creates a TTP actor over a party whose TTP is itself.
    pub fn new(party: Party) -> Self {
        Ttp { party, pending: BTreeMap::new() }
    }

    /// This TTP's principal id.
    pub fn id(&self) -> PrincipalId {
        self.party.id()
    }

    /// Resolves currently waiting on a respondent.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Ids of the transactions with a resolve waiting on a respondent,
    /// ascending.
    pub(crate) fn pending_txns(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    /// Evicts a settled transaction: drops any (stale) pending-resolve
    /// entry and retires the validator window, so late Resolve replays for
    /// it are refused instead of opening a fresh window.
    pub fn evict_txn(&mut self, txn_id: u64) {
        self.pending.remove(&txn_id);
        self.party.validator.retire_txn(txn_id);
    }

    /// Earliest respondent deadline among pending resolves (the scheduler's
    /// view of this TTP's pending timers). Replaces the old runners' blind
    /// one-hour clock jumps whenever `pending_count() > 0`.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.pending.values().map(|p| p.deadline).min()
    }

    /// Handles one incoming message.
    pub fn handle(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        match msg {
            Message::Resolve { plaintext, nro, report } => {
                self.handle_resolve(from, plaintext, nro, report, now)
            }
            Message::ResolveReply { action, plaintext, evidence } => {
                self.handle_reply(from, *action, plaintext, evidence.clone(), now)
            }
            other => Err(ValidationError::UnexpectedFlag(other.plaintext().flag)),
        }
    }

    fn handle_resolve(
        &mut self,
        from: PrincipalId,
        pt: &EvidencePlaintext,
        nro: &VerifiedEvidence,
        _report: &str,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        if pt.flag != Flag::ResolveRequest {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        let p = &mut self.party;
        if p.cfg.ablation != Ablation::NoIdentityBinding
            && (pt.sender != from || pt.recipient != p.id())
        {
            return Err(ValidationError::IdentityMismatch);
        }
        p.validator.verdict(&p.cfg, pt, None, now)?;

        // Consistency: the Resolve's own hash is unsigned, so it must name
        // what the NRO signed, or the forward and every reply would name a
        // hash neither party signed.
        let signed = &nro.plaintext;
        if pt.hash_alg != signed.hash_alg || !ct::eq(&pt.data_hash, &signed.data_hash) {
            return Err(ValidationError::HashMismatch);
        }
        // Genuineness: the attached NRO must be validly signed by the
        // initiator, belong to the same transaction, and name us as TTP.
        let genuine = nro.plaintext.txn_id == pt.txn_id
            && nro.plaintext.sender == pt.sender
            && nro.plaintext.ttp == p.id()
            && p.key(nro.plaintext.sender).is_ok_and(|pk| nro.reverify(&p.cfg, &pk).is_ok());
        if !genuine {
            return Err(ValidationError::Evidence(crate::evidence::EvidenceError::BadSignature));
        }
        p.validator.accept(&p.cfg, pt);

        // The forward names the NRO's object and hash: what the respondent
        // was sent. Only the NRO is signed, so the initiator (or the wire)
        // picks the resolve's seq; saturate as `Validator::alloc_seq` does.
        let respondent = nro.plaintext.recipient;
        let seq = pt.seq.saturating_add(1);
        let forward = p.stamp(&nro.plaintext, Flag::ResolveForward, respondent, seq, now);
        let deadline = now.after(p.cfg.response_timeout);
        let pending = PendingResolve { initiator: pt.sender, deadline, forward: forward.clone() };
        self.pending.insert(pt.txn_id, pending);
        Ok(vec![Outgoing {
            to: respondent,
            msg: Message::ResolveForward { plaintext: forward, ttp_timestamp: now },
        }])
    }

    fn handle_reply(
        &mut self,
        from: PrincipalId,
        action: ResolveAction,
        pt: &EvidencePlaintext,
        evidence: Option<crate::evidence::SealedEvidence>,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        let pending =
            self.pending.remove(&pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        if self.party.cfg.ablation != Ablation::NoIdentityBinding
            && from != pending.forward.recipient
        {
            // Not from the party we queried — put it back and refuse.
            self.pending.insert(pt.txn_id, pending);
            return Err(ValidationError::IdentityMismatch);
        }
        // A Continue reply is relayed verbatim: its plaintext is the
        // respondent's re-issued receipt and the evidence inside is sealed
        // for the initiator, not for us — the TTP never learns the data or
        // the receipts. A Restart/Failed reply carries no evidence and its
        // plaintext is addressed to us (the respondent answers the forward),
        // so we re-issue it under our own authority, addressed to the
        // initiator; otherwise the initiator's identity binding would reject
        // the relay and re-resolve forever.
        let to = pending.initiator;
        let plaintext = if evidence.is_some() {
            pt.clone()
        } else {
            self.party.stamp(&pending.forward, Flag::ResolveResponse, to, AUTHORITY_SEQ, now)
        };
        Ok(vec![Outgoing { to, msg: Message::ResolveReply { action, plaintext, evidence } }])
    }

    /// Declares failed any pending resolve whose respondent missed the
    /// deadline ("the TTP will respond to Alice by telling her that this
    /// session is failed and Bob did not respond").
    pub fn poll_timeouts(&mut self, now: SimTime) -> Vec<Outgoing> {
        let expired: Vec<u64> =
            self.pending.iter().filter(|(_, p)| now >= p.deadline).map(|(id, _)| *id).collect();
        let mut out = Vec::new();
        for txn_id in expired {
            let Some(p) = self.pending.remove(&txn_id) else { continue };
            let to = p.initiator;
            let plaintext =
                self.party.stamp(&p.forward, Flag::ResolveResponse, to, AUTHORITY_SEQ, now);
            let msg =
                Message::ResolveReply { action: ResolveAction::Failed, plaintext, evidence: None };
            out.push(Outgoing { to, msg });
        }
        out
    }
}

/// Durable image of a [`Ttp`]: the pending-resolve table and validator
/// sequence state.
#[derive(Debug, Clone)]
pub struct TtpSnapshot {
    pending: BTreeMap<u64, PendingResolve>,
    validator: crate::session::ValidatorSnapshot,
    bytes: u64,
}

impl TtpSnapshot {
    /// Approximate serialized size of this snapshot.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Ttp {
    /// Captures the durable protocol state (the contract is in
    /// [`crate::fault`]).
    pub(crate) fn snapshot(&self) -> TtpSnapshot {
        let validator = self.party.validator.snapshot();
        let mut bytes = self.party.validator.state_bytes() + 8;
        for p in self.pending.values() {
            bytes += (p.forward.object.len() + p.forward.data_hash.len() + 80) as u64;
        }
        TtpSnapshot { pending: self.pending.clone(), validator, bytes }
    }

    /// Replaces the protocol state with `snap`'s, advancing sequence
    /// counters past the crash epoch.
    pub(crate) fn restore(&mut self, snap: &TtpSnapshot) {
        self.party.restore(&snap.validator);
        self.pending = snap.pending.clone();
    }
}

impl crate::sched::Actor for Ttp {
    fn on_message(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        self.handle(from, msg, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Ttp::next_deadline(self)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.poll_timeouts(now)
    }
}
