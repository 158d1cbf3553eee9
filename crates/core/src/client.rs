//! The storage client (Alice) — TPNR initiator.
//!
//! Alice starts upload and download transactions (Normal mode, two messages
//! total), falls back to the Abort sub-protocol or the Resolve sub-protocol
//! on timeout (paper §4.2–4.3), archives every piece of evidence, and can
//! check a download against the upload-time receipt — the "integrity link"
//! the paper adds between the two sessions.

use crate::config::Ablation;
use crate::evidence::{
    open_and_verify, seal, seal_and_own, EvidencePair, EvidencePlaintext, Flag, Principals, Record,
    SealedEvidence,
};
use crate::message::{AbortOutcome, Message, ResolveAction};
use crate::principal::PrincipalId;
use crate::session::{Outgoing, Party, Payload, TxnState, ValidationError};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use tpnr_crypto::ct;
use tpnr_net::codec::Wire;
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// What Alice does when the provider goes quiet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutStrategy {
    /// Send an Abort request directly to Bob (off-line TTP, §4.2),
    /// escalating to Resolve if even the abort goes unanswered.
    AbortFirst,
    /// Go straight to the TTP (§4.3).
    ResolveImmediately,
}

/// Alice's record of one transaction. [`Client::txn`] reads it with her
/// NRO and, once received and verified, Bob's NRR ([`Record::nro`],
/// [`Record::nrr`]).
#[derive(Debug, Clone)]
pub struct ClientTxn {
    /// Her NRO and Bob's NRR, in one buffer that indexes her principals.
    evidence: EvidencePair,
    /// Download payload once received. Boxed: only downloads fill it, and
    /// inline it would widen every upload's record by 40 bytes.
    pub received: Option<Box<Payload>>,
    /// Current state.
    pub state: TxnState,
    /// When the pending step times out.
    pub deadline: SimTime,
    /// Timeout handling policy.
    pub strategy: TimeoutStrategy,
    /// Whether an abort has been attempted already.
    pub abort_attempted: bool,
    /// Timeout-driven sends (abort/resolve) spent so far; drives the
    /// [`RetryPolicy`](crate::fault::RetryPolicy) backoff and give-up bound.
    pub attempts: u32,
}

/// The client actor.
pub struct Client {
    /// Identity, config, keys, RNG, validator and restart epoch.
    pub party: Party,
    provider: PrincipalId,
    /// Records behind shared pointers: a durable snapshot holds the same
    /// allocation, and a record is copied only on its first change after
    /// the snapshot ([`Client::txn_mut`]).
    txns: BTreeMap<u64, Arc<ClientTxn>>,
    /// Ids of the non-terminal transactions in `txns`: the only ones with
    /// a live deadline. Timeout scans walk this set, in id order, instead
    /// of every transaction the client ever ran.
    open: BTreeSet<u64>,
    next_txn: u64,
    /// Retry-policy counters (resends, give-ups). Monotone: excluded from
    /// durable snapshots so restarts never undercount.
    pub retry_stats: crate::fault::RetryStats,
}

impl Client {
    /// Creates a client bound to one provider and to the party's TTP.
    pub fn new(mut party: Party, provider: PrincipalId) -> Self {
        let next_txn = party.rng.gen_range(1, 1 << 48); // unique ids across clients
        Client {
            party,
            provider,
            txns: BTreeMap::new(),
            open: BTreeSet::new(),
            next_txn,
            retry_stats: crate::fault::RetryStats::default(),
        }
    }

    /// This client's principal id.
    pub fn id(&self) -> PrincipalId {
        self.party.id()
    }

    /// Alice's record for a transaction.
    pub fn txn(&self, txn_id: u64) -> Option<Record<'_, ClientTxn>> {
        let t = self.txns.get(&txn_id)?;
        Some(Record::new(t.as_ref(), &t.evidence, &self.party.principals))
    }

    /// A record for writing, copied first if a durable snapshot still
    /// shares it.
    fn txn_mut(&mut self, txn_id: u64) -> Option<&mut ClientTxn> {
        self.txns.get_mut(&txn_id).map(Arc::make_mut)
    }

    /// State of a transaction (None when unknown).
    pub fn txn_state(&self, txn_id: u64) -> Option<TxnState> {
        self.txns.get(&txn_id).map(|t| t.state)
    }

    /// All transaction ids Alice has started, ascending.
    pub fn txn_ids(&self) -> Vec<u64> {
        self.txns.keys().copied().collect()
    }

    /// Ids of the transactions still awaiting an outcome, ascending.
    pub(crate) fn open_txns(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.iter().copied()
    }

    /// Data received by a completed download.
    pub fn download_result(&self, txn_id: u64) -> Option<&Payload> {
        self.txns.get(&txn_id)?.received.as_deref()
    }

    /// Evicts a settled transaction to the runner's archived-evidence log
    /// (the caller reads its evidence first): removes the in-memory record
    /// and retires the validator's replay window for it (late traffic is
    /// then rejected as `archived-transaction` instead of being offered a
    /// fresh window).
    pub fn evict_txn(&mut self, txn_id: u64) {
        self.txns.remove(&txn_id);
        self.open.remove(&txn_id);
        self.party.validator.retire_txn(txn_id);
    }

    /// Earliest timeout deadline over all non-terminal transactions (the
    /// scheduler's view of this client's pending timers).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.open.iter().filter_map(|id| self.txns.get(id)).map(|t| t.deadline).min()
    }

    /// Moves a known transaction to `state`, keeping `open` in step.
    fn set_state(&mut self, txn_id: u64, state: TxnState) {
        if let Some(txn) = self.txn_mut(txn_id) {
            txn.state = state;
            if state.is_terminal() {
                self.open.remove(&txn_id);
            }
        }
    }

    fn build_transfer(
        &mut self,
        flag: Flag,
        payload: Payload,
        now: SimTime,
        strategy: TimeoutStrategy,
    ) -> Result<(u64, Vec<Outgoing>), ValidationError> {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        // The transaction's subject is born here, so this is the one
        // plaintext not stamped from an earlier one.
        let p = &mut self.party;
        let pt = EvidencePlaintext {
            flag,
            sender: p.me.id(),
            recipient: self.provider,
            ttp: p.ttp,
            txn_id,
            seq: p.validator.alloc_seq(txn_id),
            nonce: p.rng.next_u64(),
            time_limit: now.after(p.cfg.message_time_limit),
            object: payload.key.clone(),
            hash_alg: p.cfg.hash_alg,
            data_hash: payload.commit(&p.cfg),
        };
        let provider_pk = p.key(self.provider)?;
        // One sign_pair serves both artifacts: the sealed evidence for Bob
        // and Alice's own archived NRO (still built through the
        // core::evidence signing constructors — EVIDENCE-CTOR).
        let (sealed, nro) = seal_and_own(&p.cfg, &p.me, &provider_pk, &pt, &mut p.rng)
            .map_err(ValidationError::Evidence)?;
        self.txns.insert(
            txn_id,
            Arc::new(ClientTxn {
                evidence: EvidencePair::new(&mut p.principals, &nro, None),
                received: None,
                state: TxnState::Pending,
                deadline: now.after(p.cfg.response_timeout),
                strategy,
                abort_attempted: false,
                attempts: 0,
            }),
        );
        self.open.insert(txn_id);
        Ok((
            txn_id,
            vec![Outgoing {
                to: self.provider,
                msg: Message::Transfer {
                    plaintext: pt,
                    data: payload.to_wire_bytes(),
                    evidence: sealed,
                },
            }],
        ))
    }

    /// Starts an upload (Normal mode message 1 of 2).
    ///
    /// `data` is anything convertible to [`Bytes`]; passing an owned
    /// `Vec<u8>` (or an existing `Bytes` clone) moves the buffer in without
    /// copying it.
    pub fn begin_upload(
        &mut self,
        key: &[u8],
        data: impl Into<Bytes>,
        now: SimTime,
        strategy: TimeoutStrategy,
    ) -> Result<(u64, Vec<Outgoing>), ValidationError> {
        self.build_transfer(
            Flag::UploadRequest,
            Payload { key: key.to_vec(), data: data.into() },
            now,
            strategy,
        )
    }

    /// Starts a download (Normal mode message 1 of 2).
    pub fn begin_download(
        &mut self,
        key: &[u8],
        now: SimTime,
        strategy: TimeoutStrategy,
    ) -> Result<(u64, Vec<Outgoing>), ValidationError> {
        self.build_transfer(
            Flag::DownloadRequest,
            Payload { key: key.to_vec(), data: Bytes::new() },
            now,
            strategy,
        )
    }

    /// Handles one incoming message.
    pub fn handle(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        match msg {
            Message::Receipt { plaintext, data, evidence } => {
                self.handle_receipt(plaintext, data, evidence, now)
            }
            Message::AbortReply { outcome, plaintext, evidence } => {
                self.handle_abort_reply(*outcome, plaintext, evidence, now)
            }
            Message::ResolveReply { action, plaintext, evidence } => {
                self.handle_resolve_reply(from, *action, plaintext, evidence.as_ref(), now)
            }
            other => Err(ValidationError::UnexpectedFlag(other.plaintext().flag)),
        }
    }

    fn handle_receipt(
        &mut self,
        pt: &EvidencePlaintext,
        data: &Bytes,
        evidence: &SealedEvidence,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        let p = &mut self.party;
        p.validator.verdict(&p.cfg, pt, Some(self.provider), now)?;
        let txn = self.txns.get(&pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        let nro = txn.evidence.nro(&p.principals).map_err(ValidationError::Evidence)?;
        let sent = &nro.plaintext;
        let ok_flag = matches!(
            (sent.flag, pt.flag),
            (Flag::UploadRequest, Flag::UploadReceipt)
                | (Flag::DownloadRequest, Flag::DownloadResponse)
        );
        if !ok_flag {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        // On upload the receipt must acknowledge exactly what we sent.
        if sent.flag == Flag::UploadRequest && !ct::eq(&pt.data_hash, &sent.data_hash) {
            return Err(ValidationError::HashMismatch);
        }
        // On download the carried data must match the signed hash. Decoding
        // from the Bytes frame keeps the bulk data shared with the received
        // message rather than copying it out.
        let received = if sent.flag == Flag::DownloadRequest {
            let payload =
                Payload::from_wire_bytes(data).map_err(|_| ValidationError::HashMismatch)?;
            let commitment = payload.commit(&p.cfg);
            if !ct::eq(&commitment, &pt.data_hash) || payload.key != sent.object {
                return Err(ValidationError::HashMismatch);
            }
            Some(Box::new(payload))
        } else {
            None
        };
        let sender_pk = p.key(pt.sender)?;
        let nrr = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence)
            .map_err(ValidationError::Evidence)?;
        p.validator.accept(&p.cfg, pt);
        let evidence = EvidencePair::new(&mut p.principals, &nro, Some(&nrr));
        let txn = self.txn_mut(pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        txn.evidence = evidence;
        txn.received = received;
        self.set_state(pt.txn_id, TxnState::Completed);
        Ok(Vec::new())
    }

    fn handle_abort_reply(
        &mut self,
        outcome: AbortOutcome,
        pt: &EvidencePlaintext,
        evidence: &SealedEvidence,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        let p = &mut self.party;
        p.validator.verdict(&p.cfg, pt, Some(self.provider), now)?;
        if pt.flag != Flag::AbortResponse {
            return Err(ValidationError::UnexpectedFlag(pt.flag));
        }
        let sender_pk = p.key(pt.sender)?;
        let nrr = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, evidence)
            .map_err(ValidationError::Evidence)?;
        p.validator.accept(&p.cfg, pt);
        let txn = self.txns.get(&pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        // A late abort reply must not reopen or rewrite a settled state:
        // a receipt that overtook the Abort already completed the upload.
        if txn.state.is_terminal() {
            return Ok(Vec::new());
        }
        let nro = txn.evidence.nro(&p.principals).map_err(ValidationError::Evidence)?;
        let state = match outcome {
            AbortOutcome::Accept => TxnState::Aborted,
            // Bob completed the transaction; his NRR-abort still proves he
            // answered. Alice treats the original as completed-ish but
            // flags the rejection.
            AbortOutcome::Reject => TxnState::AbortRejected,
            AbortOutcome::Error => {
                // Regenerate the abort request (paper: "double check the
                // parameters … regenerate it, and re-submit").
                let txn = self.txn_mut(pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
                txn.abort_attempted = false;
                txn.deadline = now; // retry immediately on next poll
                return Ok(Vec::new());
            }
        };
        let evidence = EvidencePair::new(&mut p.principals, &nro, Some(&nrr));
        let txn = self.txn_mut(pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        txn.evidence = evidence;
        self.set_state(pt.txn_id, state);
        Ok(Vec::new())
    }

    fn handle_resolve_reply(
        &mut self,
        from: PrincipalId,
        action: ResolveAction,
        pt: &EvidencePlaintext,
        evidence: Option<&SealedEvidence>,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        // Resolve replies are routed through the TTP.
        let p = &mut self.party;
        if p.cfg.ablation != Ablation::NoIdentityBinding && from != p.ttp {
            return Err(ValidationError::IdentityMismatch);
        }
        // A Continue reply relays Bob's receipt, recovered by the agreed TTP
        // while Alice's resolve is open: that resolve, not the receipt's own
        // time limit, makes it fresh, however long the recovery took.
        // Judged by its limit, a receipt recovered after it expired would
        // be refused and resolved again forever.
        let open = self.txns.get(&pt.txn_id).is_some_and(|t| t.state == TxnState::Resolving);
        let relayed = action == ResolveAction::Continue && open && from == p.ttp;
        let judged_at = if relayed { now.min(pt.time_limit) } else { now };
        p.validator.verdict(&p.cfg, pt, None, judged_at)?;
        // A Restart or Failed reply carries no evidence to verify first.
        if action != ResolveAction::Continue {
            p.validator.accept(&p.cfg, pt);
        }
        let txn = self.txns.get(&pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
        // A late/replayed resolve reply must not overwrite a settled state.
        if txn.state != TxnState::Resolving {
            return Ok(Vec::new());
        }
        match action {
            ResolveAction::Continue => {
                // The reply plaintext is Bob's re-issued NRR plaintext.
                let sender_pk = p.key(pt.sender)?;
                let sealed = evidence
                    .ok_or(ValidationError::Evidence(crate::evidence::EvidenceError::Malformed))?;
                let nrr = open_and_verify(&p.cfg, &p.me, &sender_pk, pt, sealed)
                    .map_err(ValidationError::Evidence)?;
                p.validator.accept(&p.cfg, pt);
                // On upload the re-issued receipt must match what we sent.
                let nro = txn.evidence.nro(&p.principals).map_err(ValidationError::Evidence)?;
                let sent = &nro.plaintext;
                if sent.flag == Flag::UploadRequest && !ct::eq(&pt.data_hash, &sent.data_hash) {
                    return Err(ValidationError::HashMismatch);
                }
                let evidence = EvidencePair::new(&mut p.principals, &nro, Some(&nrr));
                let txn = self.txn_mut(pt.txn_id).ok_or(ValidationError::UnknownTxn(pt.txn_id))?;
                txn.evidence = evidence;
                self.set_state(pt.txn_id, TxnState::Completed);
            }
            // Restart: Bob never saw the transfer; Alice marks it failed
            // locally (the application decides whether to retry as a new
            // txn).
            ResolveAction::Restart | ResolveAction::Failed => {
                self.set_state(pt.txn_id, TxnState::Failed);
            }
        }
        Ok(Vec::new())
    }

    /// Drives timeouts: for every pending transaction past its deadline, in
    /// id order, emits the Abort or Resolve step per its strategy.
    pub fn poll_timeouts(&mut self, now: SimTime) -> Vec<Outgoing> {
        let due: Vec<u64> = self
            .open
            .iter()
            .copied()
            .filter(|id| self.txns.get(id).is_some_and(|t| now >= t.deadline))
            .collect();
        let mut out = Vec::new();
        for txn_id in due {
            let (strategy, abort_attempted, state, attempts) = {
                let t = &self.txns[&txn_id];
                (t.strategy, t.abort_attempted, t.state, t.attempts)
            };
            // Retry budget spent: give up. The transaction is declared
            // failed but all sealed evidence (the NRO, any NRR) is
            // retained, so a dispute stays arbitrable. Surfaced as
            // `SettleOutcome::Degraded` and the `gave_up` counter.
            if self.party.cfg.retry.exhausted(attempts) {
                self.set_state(txn_id, TxnState::Failed);
                self.retry_stats.gave_up += 1;
                continue;
            }
            let escalate_to_resolve = state == TxnState::Resolving
                || strategy == TimeoutStrategy::ResolveImmediately
                || abort_attempted;
            if escalate_to_resolve {
                out.extend(self.send_resolve(txn_id, now));
            } else {
                out.extend(self.send_abort(txn_id, now));
            }
        }
        out
    }

    /// Computes the deadline for the (0-based) `attempt`th timeout-driven
    /// send: retry-policy backoff over `base` plus deterministic jitter
    /// drawn from the client's seeded RNG. With the legacy policy this is
    /// exactly `now + base` and draws nothing.
    fn retry_deadline(
        &mut self,
        now: SimTime,
        base: tpnr_net::time::SimDuration,
        attempt: u32,
    ) -> SimTime {
        let retry = &self.party.cfg.retry;
        let mut us = retry.backoff(base, attempt).micros();
        if retry.jitter_pct > 0 {
            let span = (us / 100).saturating_mul(u64::from(retry.jitter_pct));
            if span > 0 {
                us = us.saturating_add(self.party.rng.gen_below(span + 1));
            }
        }
        now.after(tpnr_net::time::SimDuration::from_micros(us))
    }

    /// Accounts one timeout-driven send on `txn_id` and returns the attempt
    /// index to back off with. Sends beyond the first count as retries.
    fn note_attempt(&mut self, txn_id: u64) -> u32 {
        let Some(txn) = self.txn_mut(txn_id) else { return 0 };
        let attempt = txn.attempts;
        txn.attempts = txn.attempts.saturating_add(1);
        if attempt > 0 {
            self.retry_stats.retries += 1;
        }
        attempt
    }

    fn send_abort(&mut self, txn_id: u64, now: SimTime) -> Vec<Outgoing> {
        let Some(Ok(nro)) = self.txn(txn_id).map(|t| t.nro()) else { return Vec::new() };
        let p = &mut self.party;
        let seq = p.validator.alloc_seq(txn_id);
        let pt = p.stamp(&nro.plaintext, Flag::AbortRequest, self.provider, seq, now);
        let Ok(provider_pk) = p.key(self.provider) else { return Vec::new() };
        let Ok(sealed) = seal(&p.cfg, &p.me, &provider_pk, &pt, &mut p.rng) else {
            return Vec::new();
        };
        let attempt = self.note_attempt(txn_id);
        let deadline = self.retry_deadline(now, self.party.cfg.response_timeout, attempt);
        let Some(txn) = self.txn_mut(txn_id) else { return Vec::new() };
        txn.abort_attempted = true;
        txn.deadline = deadline;
        vec![Outgoing {
            to: self.provider,
            msg: Message::Abort { plaintext: pt, evidence: sealed },
        }]
    }

    fn send_resolve(&mut self, txn_id: u64, now: SimTime) -> Vec<Outgoing> {
        let Some(Ok(nro)) = self.txn(txn_id).map(|t| t.nro()) else { return Vec::new() };
        let p = &mut self.party;
        let seq = p.validator.alloc_seq(txn_id);
        let pt = p.stamp(&nro.plaintext, Flag::ResolveRequest, p.ttp, seq, now);
        let attempt = self.note_attempt(txn_id);
        let deadline = self.retry_deadline(now, self.party.cfg.response_timeout.times(2), attempt);
        let Some(txn) = self.txn_mut(txn_id) else { return Vec::new() };
        txn.state = TxnState::Resolving;
        txn.deadline = deadline;
        vec![Outgoing {
            to: self.party.ttp,
            msg: Message::Resolve {
                plaintext: pt,
                nro,
                report: "no response from provider before timeout".to_string(),
            },
        }]
    }

    /// The integrity link: checks a completed download of `download_txn`
    /// against the NRR archived for `upload_txn` (same object). Returns
    /// `None` when either transaction lacks evidence.
    pub fn verify_download_against_upload(
        &self,
        upload_txn: u64,
        download_txn: u64,
    ) -> Option<bool> {
        let up = self.txn(upload_txn)?.nrr().ok()??;
        let down = self.txn(download_txn)?.nrr().ok()??;
        if up.plaintext.object != down.plaintext.object {
            return None;
        }
        Some(ct::eq(&up.plaintext.data_hash, &down.plaintext.data_hash))
    }
}

/// Durable image of a [`Client`]: session table, archived evidence with
/// the principal table it indexes, and validator sequence state. The RNG
/// and monotone telemetry stay live — rolling an RNG back would replay
/// nonces.
#[derive(Debug, Clone)]
pub struct ClientSnapshot {
    txns: BTreeMap<u64, Arc<ClientTxn>>,
    principals: Principals,
    validator: crate::session::ValidatorSnapshot,
    next_txn: u64,
    bytes: u64,
}

impl ClientSnapshot {
    /// Approximate serialized size of this snapshot.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Client {
    /// Captures the durable protocol state (the contract is in
    /// [`crate::fault`]).
    pub(crate) fn snapshot(&self) -> ClientSnapshot {
        let mut bytes = self.party.validator.state_bytes() + 16;
        for t in self.txns.values() {
            // Weighed by field lengths: a sync decodes no record.
            let (nro, nrr) = t.evidence.lens().unwrap_or_default();
            bytes += (nro.object + nro.data_hash + 64) as u64;
            bytes += crate::fault::evidence_bytes(nro);
            if let Some(nrr) = nrr {
                bytes += crate::fault::evidence_bytes(nrr);
            }
            if let Some(p) = &t.received {
                bytes += (p.key.len() + p.data.as_ref().len()) as u64;
            }
        }
        ClientSnapshot {
            txns: self.txns.clone(),
            principals: self.party.principals.clone(),
            validator: self.party.validator.snapshot(),
            next_txn: self.next_txn,
            bytes,
        }
    }

    /// Replaces the protocol state with `snap`'s, advancing sequence
    /// counters past the crash epoch.
    pub(crate) fn restore(&mut self, snap: &ClientSnapshot) {
        let skip = self.party.restore(&snap.validator);
        self.txns = snap.txns.clone();
        // Every restored record indexes the snapshot's table.
        self.party.principals = snap.principals.clone();
        self.open =
            self.txns.iter().filter(|(_, t)| !t.state.is_terminal()).map(|(&id, _)| id).collect();
        // Transaction ids allocated in the lost dirty window must never be
        // reused either; jump past anything the window could have minted.
        self.next_txn = snap.next_txn.saturating_add(skip);
    }
}

impl crate::sched::Actor for Client {
    fn on_message(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError> {
        self.handle(from, msg, now)
    }

    fn next_deadline(&self) -> Option<SimTime> {
        Client::next_deadline(self)
    }

    fn on_tick(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.poll_timeouts(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::EvidenceBundle;
    use crate::config::ProtocolConfig;
    use crate::evidence::EvidenceError;
    use crate::runner::World;
    use tpnr_net::transport::Transport as _;

    #[test]
    fn a_record_is_48_bytes_and_only_a_download_fills_its_payload() {
        // Every settled transaction keeps its record, so the payload only
        // downloads receive sits behind a pointer.
        let size = std::mem::size_of::<ClientTxn>();
        assert!(size <= 48, "{size} B");
        let mut w = World::new(5, ProtocolConfig::full());
        let up = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst).txn_id;
        let down = w.download(b"k", TimeoutStrategy::AbortFirst).txn_id;
        assert_eq!(w.client.download_result(up), None);
        let got = w.client.download_result(down).map(|p| (&p.key[..], &p.data[..]));
        assert_eq!(got, Some((&b"k"[..], &b"data"[..])));
    }

    #[test]
    fn a_record_restored_into_a_fresh_client_decodes_alike() {
        let mut w = World::new(5, ProtocolConfig::full());
        let up = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst).txn_id;
        let down = w.download(b"k", TimeoutStrategy::AbortFirst).txn_id;
        let mut fresh = World::new(5, ProtocolConfig::full());
        fresh.client.restore(&w.client.snapshot());
        for txn in [up, down] {
            let evidence = w.client.txn(txn).unwrap().evidence();
            assert!(evidence.is_ok());
            assert_eq!(fresh.client.txn(txn).unwrap().evidence(), evidence);
        }
    }

    #[test]
    fn a_record_that_does_not_decode_gives_errors_never_a_panic() {
        let mut w = World::new(5, ProtocolConfig::full());
        let up = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst).txn_id;
        let down = w.download(b"k", TimeoutStrategy::AbortFirst).txn_id;
        assert_eq!(w.client.verify_download_against_upload(up, down), Some(true));
        let now = w.net().now();
        let bad = w.client.txns[&up].evidence.undecodable(&w.client.party.principals);
        for (i, bad) in bad.into_iter().enumerate() {
            w.client.txn_mut(up).unwrap().evidence = bad;
            let t = w.client.txn(up).unwrap();
            assert_eq!(t.nrr(), Err(EvidenceError::Malformed), "buffer {i}");
            assert_eq!(t.nro().is_ok(), i == 2 || i == 3, "buffer {i}");
            assert_eq!(w.client.verify_download_against_upload(up, down), None, "buffer {i}");
            assert!(EvidenceBundle::from_client_txn(&w.client, up).is_none(), "buffer {i}");
            let r = w.result(up, now);
            assert!(r.nro.is_none() && r.nrr.is_none() && !r.arbitrable(), "buffer {i}");
            assert!(w.client.snapshot().bytes() > 0);
        }

        // An open transaction whose record does not decode refuses its
        // receipt, and its timeout sends nothing.
        let (bob, cfg) = (w.provider.id(), w.client.party.cfg.clone());
        let (txn, out) = w
            .client
            .begin_upload(b"k2", b"data".to_vec(), now, TimeoutStrategy::AbortFirst)
            .unwrap();
        let receipt = w.provider.handle(w.client.id(), &out[0].msg, now).unwrap();
        w.client.txn_mut(txn).unwrap().evidence = EvidencePair::from_raw(&[1]);
        let refused = w.client.handle(bob, &receipt[0].msg, now);
        assert_eq!(refused.unwrap_err(), ValidationError::Evidence(EvidenceError::Malformed));
        assert!(w.client.poll_timeouts(now.after(cfg.response_timeout.times(4))).is_empty());
    }
}
