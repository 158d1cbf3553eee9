//! The trusted third party — in-line only for the Resolve mode (§4.3).
//!
//! The TTP receives a Resolve request with the initiator's NRO, verifies its
//! genuineness and consistency, forwards the query to the counterparty with
//! a timestamp, relays the reply, and — if the counterparty stays silent
//! past the deadline — tells the initiator the session failed, signing that
//! statement (the initiator's protection in later disputes).
//!
//! Note what the TTP does **not** do: it never stores or forwards the data
//! itself (paper: "normally the size of the data set is very large, which is
//! not feasible to be stored and/or forwarded by the TTP").

use crate::config::ProtocolConfig;
use crate::evidence::{EvidencePlaintext, Flag, VerifiedEvidence};
use crate::message::{Message, ResolveAction};
use crate::principal::{Directory, Principal, PrincipalId};
use crate::session::{Outgoing, ValidationError, Validator};
use std::collections::BTreeMap;
use tpnr_crypto::ChaChaRng;
use tpnr_net::time::SimTime;

/// Sequence number of the TTP's own Resolve replies: outside any normal
/// window, it carries the TTP's authority.
const AUTHORITY_SEQ: u64 = u64::MAX / 2;

/// A resolve in flight at the TTP.
#[derive(Debug, Clone)]
struct PendingResolve {
    initiator: PrincipalId,
    respondent: PrincipalId,
    deadline: SimTime,
    object: Vec<u8>,
    hash_alg: tpnr_crypto::hash::HashAlg,
    data_hash: Vec<u8>,
}

/// Statistics for the TTP-load experiment (E6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TtpStats {
    /// Resolve requests received.
    pub resolves_received: u64,
    /// Resolve requests rejected as inconsistent/forged.
    pub resolves_rejected: u64,
    /// Queries forwarded to respondents.
    pub forwards_sent: u64,
    /// Replies relayed back to initiators.
    pub replies_relayed: u64,
    /// Sessions declared failed after respondent timeout.
    pub failures_declared: u64,
}

/// The TTP actor.
pub struct Ttp {
    me: Principal,
    cfg: ProtocolConfig,
    dir: Directory,
    rng: ChaChaRng,
    validator: Validator,
    /// Resolves awaiting a respondent, by txn id: the timeout sweep
    /// declares failures in this order, so the replies, their nonces and
    /// the event stream are reproducible.
    pending: BTreeMap<u64, PendingResolve>,
    /// Counters for experiments.
    pub stats: TtpStats,
    /// Message/tick counters, maintained by the scheduler-facing
    /// [`Actor`](crate::sched::Actor) impl.
    pub actor_stats: crate::obs::ActorStats,
    /// Crash-recovery epochs survived; scales the sequence skip applied on
    /// each restore.
    restarts: u64,
}

impl Ttp {
    /// Creates a TTP actor.
    pub fn new(me: Principal, cfg: ProtocolConfig, dir: Directory, rng: ChaChaRng) -> Self {
        let my_id = me.id();
        Ttp {
            me,
            cfg,
            dir,
            rng,
            validator: Validator::new(my_id, my_id),
            pending: BTreeMap::new(),
            stats: TtpStats::default(),
            actor_stats: crate::obs::ActorStats::default(),
            restarts: 0,
        }
    }

    /// Crash-recovery epochs this TTP has survived.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// This TTP's principal id.
    pub fn id(&self) -> PrincipalId {
        self.me.id()
    }

    /// Resolves currently waiting on a respondent.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Evicts a settled transaction: drops any (stale) pending-resolve
    /// entry and retires the validator window, so late Resolve replays for
    /// it are refused instead of opening a fresh window.
    pub fn evict_txn(&mut self, txn_id: u64) {
        self.pending.remove(&txn_id);
        self.validator.retire_txn(txn_id);
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
        self.stats.resolves_received += 1;
        if pt.flag != Flag::ResolveRequest {
            self.stats.resolves_rejected += 1;
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        if self.cfg.bind_identities && (pt.sender != from || pt.recipient != self.me.id()) {
            self.stats.resolves_rejected += 1;
            return Err(ValidationError::IdentityMismatch);
        }
        self.validator.check(&self.cfg, pt, None, now).inspect_err(|_e| {
            self.stats.resolves_rejected += 1;
        })?;

        // Genuineness: the attached NRO must be validly signed by the
        // initiator, belong to the same transaction, and name us as TTP.
        let genuine = nro.plaintext.txn_id == pt.txn_id
            && nro.plaintext.sender == pt.sender
            && nro.plaintext.ttp == self.me.id()
            && self
                .dir
                .lookup(&nro.plaintext.sender)
                .is_some_and(|pk| nro.reverify(&self.cfg, pk).is_ok());
        if !genuine {
            self.stats.resolves_rejected += 1;
            return Err(ValidationError::Evidence(crate::evidence::EvidenceError::BadSignature));
        }

        let respondent = nro.plaintext.recipient;
        let fwd_pt = EvidencePlaintext {
            flag: Flag::ResolveForward,
            sender: self.me.id(),
            recipient: respondent,
            ttp: self.me.id(),
            txn_id: pt.txn_id,
            // Only the NRO is signed, so the initiator (or the wire) picks
            // the resolve's seq; saturate as `Validator::alloc_seq` does.
            seq: pt.seq.saturating_add(1),
            nonce: self.rng.next_u64(),
            time_limit: now.after(self.cfg.message_time_limit),
            object: nro.plaintext.object.clone(),
            hash_alg: pt.hash_alg,
            data_hash: pt.data_hash.clone(),
        };
        self.pending.insert(
            pt.txn_id,
            PendingResolve {
                initiator: pt.sender,
                respondent,
                deadline: now.after(self.cfg.response_timeout),
                object: nro.plaintext.object.clone(),
                hash_alg: pt.hash_alg,
                data_hash: pt.data_hash.clone(),
            },
        );
        self.stats.forwards_sent += 1;
        Ok(vec![Outgoing {
            to: respondent,
            msg: Message::ResolveForward { plaintext: fwd_pt, ttp_timestamp: now },
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
        if self.cfg.bind_identities && from != pending.respondent {
            // Not from the party we queried — put it back and refuse.
            self.pending.insert(pt.txn_id, pending);
            return Err(ValidationError::IdentityMismatch);
        }
        self.stats.replies_relayed += 1;
        // A Continue reply is relayed verbatim: its plaintext is the
        // respondent's re-issued receipt and the evidence inside is sealed
        // for the initiator, not for us — the TTP never learns the data or
        // the receipts. A Restart/Failed reply carries no evidence and its
        // plaintext is addressed to us (the respondent answers the forward),
        // so we re-issue it under our own authority, addressed to the
        // initiator; otherwise the initiator's identity binding would reject
        // the relay and re-resolve forever.
        let plaintext = if evidence.is_some() {
            pt.clone()
        } else {
            EvidencePlaintext {
                flag: Flag::ResolveResponse,
                sender: self.me.id(),
                recipient: pending.initiator,
                ttp: self.me.id(),
                txn_id: pt.txn_id,
                seq: AUTHORITY_SEQ,
                nonce: self.rng.next_u64(),
                time_limit: now.after(self.cfg.message_time_limit),
                object: pending.object.clone(),
                hash_alg: pending.hash_alg,
                data_hash: pending.data_hash.clone(),
            }
        };
        Ok(vec![Outgoing {
            to: pending.initiator,
            msg: Message::ResolveReply { action, plaintext, evidence },
        }])
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
            self.stats.failures_declared += 1;
            let pt = EvidencePlaintext {
                flag: Flag::ResolveResponse,
                sender: self.me.id(),
                recipient: p.initiator,
                ttp: self.me.id(),
                txn_id,
                seq: AUTHORITY_SEQ,
                nonce: self.rng.next_u64(),
                time_limit: now.after(self.cfg.message_time_limit),
                object: p.object,
                hash_alg: p.hash_alg,
                data_hash: p.data_hash,
            };
            out.push(Outgoing {
                to: p.initiator,
                msg: Message::ResolveReply {
                    action: ResolveAction::Failed,
                    plaintext: pt,
                    evidence: None,
                },
            });
        }
        out
    }
}

/// Durable image of a [`Ttp`]: the pending-resolve table and validator
/// sequence state. Load statistics stay live (monotone telemetry).
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

impl crate::fault::Durable for Ttp {
    type Snapshot = TtpSnapshot;

    fn snapshot(&self) -> TtpSnapshot {
        let mut bytes = self.validator.state_bytes() + 8;
        for p in self.pending.values() {
            bytes += (p.object.len() + p.data_hash.len() + 80) as u64;
        }
        TtpSnapshot { pending: self.pending.clone(), validator: self.validator.snapshot(), bytes }
    }

    fn restore(&mut self, snap: &TtpSnapshot) {
        self.restarts += 1;
        let skip = self.restarts.saturating_mul(crate::fault::SEQ_RECOVERY_SKIP);
        self.pending = snap.pending.clone();
        self.validator.restore_with_skip(&snap.validator, skip);
    }
}

impl crate::sched::Actor for Ttp {
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

    fn next_deadline(&self) -> Option<SimTime> {
        Ttp::next_deadline(self)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Outgoing> {
        let out = self.poll_timeouts(now);
        self.actor_stats.note_tick(&out);
        out
    }
}
