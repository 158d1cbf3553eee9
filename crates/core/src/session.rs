//! Shared session machinery: transaction payloads, outgoing-message
//! addressing, plaintext validation, the per-transaction replay window, and
//! the [`Party`] core every actor is built on.
//!
//! Every actor (client, provider, TTP) funnels every incoming message
//! through [`Validator::check`], which enforces the §5 defences according to
//! the active [`ProtocolConfig`]: identity/direction binding, strictly
//! increasing sequence numbers, and message time limits. Every plaintext an
//! actor writes, but the client's Transfer, comes from `Party::stamp`; a
//! relayed or re-issued receipt resends one already written.

use crate::config::{Ablation, ProtocolConfig};
use crate::evidence::{EvidencePlaintext, Flag, Principals};
use crate::principal::{Directory, Principal, PrincipalId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use tpnr_crypto::{ChaChaRng, RsaPublicKey};
use tpnr_net::codec::{CodecError, Reader, Wire, Writer};
use tpnr_net::time::SimTime;
use tpnr_net::Bytes;

/// The payload carried inside a Transfer/Receipt `data` field.
///
/// Hashing the canonical encoding of this structure (rather than the raw
/// data alone) binds the object key to the data under every signature.
///
/// `data` is a shared immutable [`Bytes`] handle: cloning a payload (or the
/// message carrying it) bumps a refcount instead of copying the object, and
/// decoding from a [`Bytes`]-backed frame shares the frame's allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Payload {
    /// Object key.
    pub key: Vec<u8>,
    /// Object bytes (empty for download requests).
    pub data: Bytes,
}

impl Wire for Payload {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.key);
        w.bytes(&self.data);
    }
    fn encoded_len(&self) -> usize {
        4 + self.key.len() + 4 + self.data.len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Payload { key: r.bytes()?, data: r.bytes_shared()? })
    }
}

impl Payload {
    /// Canonical hash under the configured algorithm.
    pub fn hash(&self, alg: tpnr_crypto::hash::HashAlg) -> Vec<u8> {
        alg.hash(&self.to_wire())
    }

    /// Evidence commitment under the configured scheme: a flat hash, or a
    /// Merkle root over the canonical payload bytes (same length either
    /// way, so it drops into the signature layer unchanged).
    pub fn commit(&self, cfg: &ProtocolConfig) -> Vec<u8> {
        match cfg.commitment {
            crate::config::Commitment::Flat => self.hash(cfg.hash_alg),
            crate::config::Commitment::Merkle { chunk_size } => {
                tpnr_crypto::merkle::MerkleTree::build(cfg.hash_alg, &self.to_wire(), chunk_size)
                    .root()
                    .to_vec()
            }
        }
    }
}

/// A message addressed to a principal (the actor APIs return these; the
/// runner maps principal ids to simulator nodes).
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Destination principal.
    pub to: PrincipalId,
    /// The message.
    pub msg: crate::message::Message,
}

/// Client-visible state of one transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Sent, awaiting the counterparty.
    Pending,
    /// Completed normally (evidence exchanged).
    Completed,
    /// Aborted by mutual agreement.
    Aborted,
    /// Abort was rejected by the counterparty.
    AbortRejected,
    /// Handed to the TTP, awaiting resolution.
    Resolving,
    /// TTP reported the counterparty unresponsive.
    Failed,
}

impl TxnState {
    /// True when no further protocol action is expected.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            TxnState::Completed | TxnState::Aborted | TxnState::AbortRejected | TxnState::Failed
        )
    }
}

/// Why an incoming message was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// Sender/recipient/TTP identities do not match this conversation.
    IdentityMismatch,
    /// Sequence number not strictly newer than the last accepted one.
    StaleSequence {
        /// Highest sequence already accepted for the transaction.
        last: u64,
        /// The offending message's sequence.
        got: u64,
    },
    /// Received after the embedded time limit.
    Expired {
        /// The limit carried in the message.
        limit: SimTime,
        /// Local receive time.
        now: SimTime,
    },
    /// The flag does not fit the current transaction state.
    UnexpectedFlag(Flag),
    /// The data hash in the plaintext does not match the payload.
    HashMismatch,
    /// Evidence failed to open/verify.
    Evidence(crate::evidence::EvidenceError),
    /// Unknown transaction.
    UnknownTxn(u64),
    /// Signer's public key unavailable/unauthenticated.
    NoKey(PrincipalId),
    /// Transaction settled and evicted to the archived-evidence log; live
    /// protocol traffic for it is refused (arbitration reads the archive).
    ArchivedTransaction(u64),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::IdentityMismatch => write!(f, "identity binding mismatch"),
            ValidationError::StaleSequence { last, got } => {
                write!(f, "stale sequence: last accepted {last}, got {got}")
            }
            ValidationError::Expired { limit, now } => {
                write!(f, "message expired (limit {} < now {})", limit.0, now.0)
            }
            ValidationError::UnexpectedFlag(flag) => write!(f, "unexpected flag {flag:?}"),
            ValidationError::HashMismatch => write!(f, "payload hash mismatch"),
            ValidationError::Evidence(e) => write!(f, "evidence error: {e}"),
            ValidationError::UnknownTxn(id) => write!(f, "unknown transaction {id}"),
            ValidationError::NoKey(id) => write!(f, "no authenticated key for {}", id.short_hex()),
            ValidationError::ArchivedTransaction(id) => {
                write!(f, "transaction {id} is settled and archived")
            }
        }
    }
}

impl ValidationError {
    /// Stable kebab-case variant label, used as the key of the per-variant
    /// rejection counters in [`crate::obs::Metrics::rejected_by`] and in
    /// JSONL exports (payload details stay out of the key so counts
    /// aggregate across transactions).
    pub fn variant(&self) -> &'static str {
        match self {
            ValidationError::IdentityMismatch => "identity-mismatch",
            ValidationError::StaleSequence { .. } => "stale-sequence",
            ValidationError::Expired { .. } => "expired",
            ValidationError::UnexpectedFlag(_) => "unexpected-flag",
            ValidationError::HashMismatch => "hash-mismatch",
            ValidationError::Evidence(_) => "evidence",
            ValidationError::UnknownTxn(_) => "unknown-txn",
            ValidationError::NoKey(_) => "no-key",
            ValidationError::ArchivedTransaction(_) => "archived-transaction",
        }
    }
}

impl std::error::Error for ValidationError {}

/// Per-conversation replay window and identity expectations.
///
/// Receive windows are scoped per `(transaction, sender)` direction: each
/// sender numbers its own messages 1, 2, 3 … within a transaction, and the
/// receiver only accepts strictly increasing numbers from that sender. This
/// is what defeats replay (§5.4) without tripping over lost receipts.
///
/// A settled transaction's windows stay resident as long as its evidence
/// does, so they are kept compact: one map entry per transaction holds our
/// send counter and the window of the first sender accepted in it, naming
/// that sender by an index into an append-only table of the principals
/// this validator has accepted a message from. A transaction's further
/// senders (the TTP, or anyone an ablation lets through) get windows in a
/// small overflow map. Retiring a transaction removes its entries by key.
pub struct Validator {
    /// Our own id (expected `recipient`).
    pub me: PrincipalId,
    /// Agreed TTP id (expected `ttp`).
    pub ttp: PrincipalId,
    /// Every principal a message was accepted from, with its index in
    /// order of first acceptance. Append-only, and kept across a restore,
    /// so an index a snapshot holds names the same principal afterwards.
    senders: HashMap<PrincipalId, u32>,
    /// Send counter and first sender's window per transaction.
    txns: HashMap<u64, TxnWindows>,
    /// Highest accepted sequence per (transaction, sender index) for every
    /// sender of a transaction but its first.
    more: BTreeMap<(u64, u32), u64>,
    /// Post-restore floor below which no sequence number is ever handed
    /// out again. Runtime state, deliberately NOT part of the snapshot:
    /// it encodes how many times this principal has restarted, which the
    /// crash itself must not be able to erase.
    seq_floor: u64,
    /// Transactions retired to the archived-evidence log. Their per-sender
    /// windows and send counters are gone (that is the point of eviction),
    /// so live traffic for them is refused outright instead of falling back
    /// to a fresh — and therefore replayable — window.
    archived: BTreeSet<u64>,
}

/// One transaction's send counter and its first sender's receive window.
/// Zero stands for "none" in both counters: an accepted sequence number is
/// above the window's previous value, so at least 1, and a handed-out one
/// is at least 1 too.
#[derive(Debug, Clone, Copy, Default)]
struct TxnWindows {
    /// Last sequence number handed out for the transaction.
    sent: u64,
    /// Highest sequence accepted from `first`.
    first_last: u64,
    /// Index of the transaction's first accepted sender.
    first: u32,
}

impl Validator {
    /// Fresh validator for a principal.
    pub fn new(me: PrincipalId, ttp: PrincipalId) -> Self {
        Validator {
            me,
            ttp,
            senders: HashMap::new(),
            txns: HashMap::new(),
            more: BTreeMap::new(),
            seq_floor: 0,
            archived: BTreeSet::new(),
        }
    }

    /// Validates an incoming plaintext under the active config and records
    /// its sequence number: [`Validator::verdict`], then
    /// [`Validator::accept`]. For messages that carry no evidence; one
    /// whose evidence is still to be verified takes the two steps apart.
    pub fn check(
        &mut self,
        cfg: &ProtocolConfig,
        pt: &EvidencePlaintext,
        expected_sender: Option<PrincipalId>,
        now: SimTime,
    ) -> Result<(), ValidationError> {
        self.verdict(cfg, pt, expected_sender, now)?;
        self.accept(cfg, pt);
        Ok(())
    }

    /// Judges an incoming plaintext under the active config without
    /// recording anything.
    ///
    /// `expected_sender` of `None` accepts any sender (provider accepting
    /// new clients); `Some(id)` pins the conversation partner.
    pub fn verdict(
        &self,
        cfg: &ProtocolConfig,
        pt: &EvidencePlaintext,
        expected_sender: Option<PrincipalId>,
        now: SimTime,
    ) -> Result<(), ValidationError> {
        if cfg.ablation != Ablation::NoIdentityBinding {
            if pt.recipient != self.me || pt.ttp != self.ttp {
                return Err(ValidationError::IdentityMismatch);
            }
            if let Some(sender) = expected_sender {
                if pt.sender != sender {
                    return Err(ValidationError::IdentityMismatch);
                }
            }
        }
        if cfg.ablation != Ablation::NoTimeLimits && now > pt.time_limit {
            return Err(ValidationError::Expired { limit: pt.time_limit, now });
        }
        if self.archived.contains(&pt.txn_id) {
            return Err(ValidationError::ArchivedTransaction(pt.txn_id));
        }
        if cfg.ablation != Ablation::NoSequenceNumbers {
            let last = self.last_seq(pt.txn_id, pt.sender);
            if pt.seq <= last {
                return Err(ValidationError::StaleSequence { last, got: pt.seq });
            }
        }
        Ok(())
    }

    /// Advances the sender's window to `pt.seq`, for a plaintext that
    /// passed [`Validator::verdict`] and whose evidence verified: a forged
    /// message must not spend the sequence number of the genuine one
    /// (§5.4).
    pub fn accept(&mut self, cfg: &ProtocolConfig, pt: &EvidencePlaintext) {
        if cfg.ablation == Ablation::NoSequenceNumbers {
            return;
        }
        // Four billion principals would not fit in memory first.
        let next = u32::try_from(self.senders.len()).unwrap_or(u32::MAX);
        let sender = *self.senders.entry(pt.sender).or_insert(next);
        let e = self.txns.entry(pt.txn_id).or_default();
        if e.first_last == 0 || e.first == sender {
            e.first = sender;
            e.first_last = pt.seq;
        } else {
            self.more.insert((pt.txn_id, sender), pt.seq);
        }
    }

    /// Highest sequence accepted from `sender` within a transaction.
    pub fn last_seq(&self, txn_id: u64, sender: PrincipalId) -> u64 {
        let (Some(&sender), Some(e)) = (self.senders.get(&sender), self.txns.get(&txn_id)) else {
            return 0;
        };
        if e.first_last != 0 && e.first == sender {
            e.first_last
        } else {
            self.more.get(&(txn_id, sender)).copied().unwrap_or(0)
        }
    }

    /// Allocates the next outgoing sequence number for a transaction
    /// (paper: "the sequence number increases one by one").
    ///
    /// Saturates at `u64::MAX` instead of wrapping: a wrapped counter would
    /// restart at 1 and every subsequent message would be rejected as a
    /// replay by the peer's strictly-increasing window — saturation keeps
    /// the last message valid and makes the exhaustion observable (the
    /// counter stops moving) rather than a silent self-DoS.
    pub fn alloc_seq(&mut self, txn_id: u64) -> u64 {
        let e = self.txns.entry(txn_id).or_default();
        e.sent = e.sent.max(self.seq_floor).saturating_add(1);
        e.sent
    }

    /// Drops a settled transaction's replay windows and send counter,
    /// remembering only its id in the compact archived set. Live traffic
    /// for the transaction is rejected from then on
    /// ([`ValidationError::ArchivedTransaction`]) — without the tombstone a
    /// late replay would be greeted by a fresh window and accepted. Only
    /// the transaction's own entries are looked up; the sender table keeps
    /// its principals.
    pub fn retire_txn(&mut self, txn_id: u64) {
        self.txns.remove(&txn_id);
        while let Some((&key, _)) = self.more.range((txn_id, 0)..=(txn_id, u32::MAX)).next() {
            self.more.remove(&key);
        }
        self.archived.insert(txn_id);
    }

    /// Transactions retired so far.
    pub fn archived_count(&self) -> usize {
        self.archived.len()
    }

    /// Principals in the sender table: those a message has been accepted
    /// from since the validator was built.
    pub fn known_senders(&self) -> usize {
        self.senders.len()
    }

    /// Captures the replay-window and send-counter state for a durable
    /// snapshot (crash-recovery subsystem).
    pub fn snapshot(&self) -> ValidatorSnapshot {
        ValidatorSnapshot {
            senders: self.senders.clone(),
            txns: self.txns.clone(),
            more: self.more.clone(),
            archived: self.archived.clone(),
        }
    }

    /// Restores from a snapshot, advancing every send counter by `skip`.
    ///
    /// A crash may lose sends made after the snapshot (the dirty window);
    /// replaying those sequence numbers would be rejected by peers'
    /// strictly-increasing windows — or worse, collide with evidence already
    /// sealed under them. Skipping ahead by more than the dirty window could
    /// have consumed guarantees freshness. Saturating, like `alloc_seq`.
    ///
    /// The sender table is kept when it extends the snapshot's, as it does
    /// for any snapshot this validator took, and replaced by the
    /// snapshot's otherwise, so every restored window names the principal
    /// it was accepted from.
    pub fn restore_with_skip(&mut self, snap: &ValidatorSnapshot, skip: u64) {
        if !snap.senders.iter().all(|(p, i)| self.senders.get(p) == Some(i)) {
            self.senders = snap.senders.clone();
        }
        self.txns = snap.txns.clone();
        for e in self.txns.values_mut() {
            if e.sent != 0 {
                e.sent = e.sent.saturating_add(skip);
            }
        }
        self.more = snap.more.clone();
        self.archived = snap.archived.clone();
        // Transactions born inside the dirty window have no snapshot entry
        // at all; the floor keeps their numbering from restarting at 1.
        self.seq_floor = self.seq_floor.max(skip);
    }

    /// Approximate serialized size of the validator state, for snapshot
    /// accounting: key (8 + 32) + value (8) per receive window, key (8) +
    /// value (8) per send counter, 8 per archived tombstone.
    pub fn state_bytes(&self) -> u64 {
        let windows = self.more.len() + self.txns.values().filter(|e| e.first_last != 0).count();
        let sends = self.txns.values().filter(|e| e.sent != 0).count();
        (windows * 48 + sends * 16 + self.archived.len() * 8) as u64
    }
}

/// Durable image of a [`Validator`]'s sequence state (private fields stay
/// private; this is the only way to persist/restore them).
#[derive(Debug, Clone)]
pub struct ValidatorSnapshot {
    senders: HashMap<PrincipalId, u32>,
    txns: HashMap<u64, TxnWindows>,
    more: BTreeMap<(u64, u32), u64>,
    archived: BTreeSet<u64>,
}

/// What Alice, Bob and the TTP each hold alike: the principal, config, key
/// sources, agreed TTP, RNG, replay validator, the table of principals its
/// records index, and restart epoch, with the one key lookup, restore step
/// and plaintext stamper they share.
pub struct Party {
    /// This party's principal (its id and its signing/opening keys).
    pub(crate) me: Principal,
    /// The active protocol configuration.
    pub(crate) cfg: ProtocolConfig,
    /// Authenticated keys.
    dir: Directory,
    /// Keys learned from the wire, honoured only while key authentication
    /// is ablated.
    wire_keys: HashMap<PrincipalId, RsaPublicKey>,
    /// The agreed TTP (the TTP's own id, for the TTP).
    pub(crate) ttp: PrincipalId,
    /// Nonces, envelope keys and retry jitter. Never restored: rolling it
    /// back would replay nonces.
    pub(crate) rng: ChaChaRng,
    /// Replay windows and send counters.
    pub(crate) validator: Validator,
    /// The principals this party's evidence records name, by index.
    pub(crate) principals: Principals,
    /// Crash-recovery epochs survived; scales the sequence skip applied on
    /// each restore.
    restarts: u64,
}

impl Party {
    /// A party at epoch zero that has learned no wire key.
    pub fn new(
        me: Principal,
        cfg: ProtocolConfig,
        dir: Directory,
        ttp: PrincipalId,
        rng: ChaChaRng,
    ) -> Self {
        let validator = Validator::new(me.id(), ttp);
        let principals = Principals::default();
        Party {
            me,
            cfg,
            dir,
            wire_keys: HashMap::new(),
            ttp,
            rng,
            validator,
            principals,
            restarts: 0,
        }
    }

    /// This party's principal id.
    pub fn id(&self) -> PrincipalId {
        self.me.id()
    }

    /// Learns a key from the wire (honoured only when key authentication is
    /// ablated; attack harnesses use this to poison the key store).
    pub fn learn_wire_key(&mut self, id: PrincipalId, pk: RsaPublicKey) {
        self.wire_keys.insert(id, pk);
    }

    /// `id`'s public key, which this party verifies `id`'s evidence with and
    /// seals evidence for `id` under: the directory's, or, with key
    /// authentication ablated, a wire-learned one first.
    pub(crate) fn key(&self, id: PrincipalId) -> Result<RsaPublicKey, ValidationError> {
        let learned = if self.cfg.ablation == Ablation::NoKeyAuthentication {
            self.wire_keys.get(&id)
        } else {
            None
        };
        learned.or_else(|| self.dir.lookup(&id)).cloned().ok_or(ValidationError::NoKey(id))
    }

    /// Crash-recovery epochs this party has survived.
    pub fn restart_count(&self) -> u64 {
        self.restarts
    }

    /// Enters the next crash-recovery epoch: restores the validator from
    /// `snap` with every send counter advanced by epoch ×
    /// [`SEQ_RECOVERY_SKIP`](crate::fault::SEQ_RECOVERY_SKIP), so no
    /// counter spent in the lost dirty window is reused, and returns that
    /// skip.
    pub(crate) fn restore(&mut self, snap: &ValidatorSnapshot) -> u64 {
        self.restarts += 1;
        let skip = self.restarts.saturating_mul(crate::fault::SEQ_RECOVERY_SKIP);
        self.validator.restore_with_skip(snap, skip);
        skip
    }

    /// The plaintext of a `flag` step to `recipient` at `seq`. Sender,
    /// TTP, a fresh nonce and `now + message_time_limit` come from this
    /// party; txn id, object, hash alg and data hash from `on`, the
    /// plaintext the step answers or follows.
    pub(crate) fn stamp(
        &mut self,
        on: &EvidencePlaintext,
        flag: Flag,
        recipient: PrincipalId,
        seq: u64,
        now: SimTime,
    ) -> EvidencePlaintext {
        self.stamp_hash(on, on.data_hash.clone(), flag, recipient, seq, now)
    }

    /// [`Party::stamp`] naming `data_hash` instead of `on`'s.
    pub(crate) fn stamp_hash(
        &mut self,
        on: &EvidencePlaintext,
        data_hash: Vec<u8>,
        flag: Flag,
        recipient: PrincipalId,
        seq: u64,
        now: SimTime,
    ) -> EvidencePlaintext {
        EvidencePlaintext {
            flag,
            sender: self.me.id(),
            recipient,
            ttp: self.ttp,
            txn_id: on.txn_id,
            seq,
            nonce: self.rng.next_u64(),
            time_limit: now.after(self.cfg.message_time_limit),
            object: on.object.clone(),
            hash_alg: on.hash_alg,
            data_hash,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Ablation, ProtocolConfig};
    use tpnr_crypto::hash::HashAlg;

    fn pt(sender: [u8; 8], txn: u64, seq: u64, limit: u64) -> EvidencePlaintext {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&sender);
        EvidencePlaintext {
            flag: Flag::UploadRequest,
            sender: PrincipalId(s),
            recipient: PrincipalId([9; 32]),
            ttp: PrincipalId([7; 32]),
            txn_id: txn,
            seq,
            nonce: 1,
            time_limit: SimTime(limit),
            object: b"k".to_vec(),
            hash_alg: HashAlg::Sha256,
            data_hash: vec![0; 32],
        }
    }

    fn validator() -> Validator {
        Validator::new(PrincipalId([9; 32]), PrincipalId([7; 32]))
    }

    #[test]
    fn accepts_well_formed_in_order() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        let p = pt(*b"alice\0\0\0", 1, 1, 100);
        let alice = p.sender;
        v.check(&cfg, &p, None, SimTime(50)).unwrap();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 2, 100), None, SimTime(60)).unwrap();
        assert_eq!(v.last_seq(1, alice), 2);
    }

    #[test]
    fn windows_are_per_sender() {
        // Bob's seq 1 is accepted even after Alice's seq 5: directions are
        // independent, which is what keeps lost-receipt recovery working.
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 5, 100), None, SimTime(0)).unwrap();
        v.check(&cfg, &pt(*b"bob\0\0\0\0\0", 1, 1, 100), None, SimTime(0)).unwrap();
    }

    #[test]
    fn alloc_seq_is_monotonic_per_txn() {
        let mut v = validator();
        assert_eq!(v.alloc_seq(1), 1);
        assert_eq!(v.alloc_seq(1), 2);
        assert_eq!(v.alloc_seq(2), 1);
    }

    #[test]
    fn alloc_seq_saturates_at_u64_max() {
        // A counter one step from the edge must not wrap to 0: a wrapped
        // counter restarts at 1, and every message after that is rejected
        // as stale by the peer's strictly-increasing window.
        let mut v = validator();
        v.txns.insert(7, TxnWindows { sent: u64::MAX - 1, ..TxnWindows::default() });
        assert_eq!(v.alloc_seq(7), u64::MAX);
        assert_eq!(v.alloc_seq(7), u64::MAX, "exhausted counter holds, never wraps");
        assert_eq!(v.alloc_seq(7), u64::MAX);
    }

    #[test]
    fn snapshot_restore_skips_send_counters_but_keeps_receive_windows() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        assert_eq!(v.alloc_seq(1), 1);
        assert_eq!(v.alloc_seq(1), 2);
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 3, 100), None, SimTime(0)).unwrap();
        let snap = v.snapshot();
        // Dirty-window sends lost by the crash.
        assert_eq!(v.alloc_seq(1), 3);
        assert_eq!(v.alloc_seq(1), 4);
        v.restore_with_skip(&snap, 1 << 16);
        // Receive window survives unchanged; send counter jumps past
        // anything the dirty window could have used.
        let mut alice = [0u8; 32];
        alice[..8].copy_from_slice(b"alice\0\0\0");
        assert_eq!(v.last_seq(1, PrincipalId(alice)), 3);
        assert_eq!(v.alloc_seq(1), 2 + (1 << 16) + 1);
    }

    #[test]
    fn restore_with_skip_saturates() {
        let mut v = validator();
        v.txns.insert(7, TxnWindows { sent: u64::MAX - 10, ..TxnWindows::default() });
        let snap = v.snapshot();
        v.restore_with_skip(&snap, 1 << 16);
        assert_eq!(v.alloc_seq(7), u64::MAX);
    }

    #[test]
    fn receive_window_at_u64_max_rejects_everything_after() {
        // Once a peer has spent seq u64::MAX, no strictly-greater number
        // exists: the window closes rather than reopening at small values.
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, u64::MAX, 100), None, SimTime(0)).unwrap();
        let err =
            v.check(&cfg, &pt(*b"alice\0\0\0", 1, u64::MAX, 100), None, SimTime(0)).unwrap_err();
        assert_eq!(err, ValidationError::StaleSequence { last: u64::MAX, got: u64::MAX });
        let err = v.check(&cfg, &pt(*b"alice\0\0\0", 1, 1, 100), None, SimTime(0)).unwrap_err();
        assert_eq!(err, ValidationError::StaleSequence { last: u64::MAX, got: 1 });
    }

    #[test]
    fn replay_rejected() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 1, 100), None, SimTime(0)).unwrap();
        let err = v.check(&cfg, &pt(*b"alice\0\0\0", 1, 1, 100), None, SimTime(0)).unwrap_err();
        assert_eq!(err, ValidationError::StaleSequence { last: 1, got: 1 });
    }

    #[test]
    fn replay_accepted_when_ablated() {
        let cfg = ProtocolConfig::ablated(Ablation::NoSequenceNumbers);
        let mut v = validator();
        let p = pt(*b"alice\0\0\0", 1, 1, 100);
        v.check(&cfg, &p, None, SimTime(0)).unwrap();
        v.check(&cfg, &p, None, SimTime(0)).unwrap();
    }

    #[test]
    fn wrong_recipient_or_ttp_rejected() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        let mut p = pt(*b"alice\0\0\0", 1, 1, 100);
        p.recipient = PrincipalId([1; 32]);
        assert_eq!(v.check(&cfg, &p, None, SimTime(0)), Err(ValidationError::IdentityMismatch));
        let mut p = pt(*b"alice\0\0\0", 1, 1, 100);
        p.ttp = PrincipalId([1; 32]);
        assert_eq!(v.check(&cfg, &p, None, SimTime(0)), Err(ValidationError::IdentityMismatch));
    }

    #[test]
    fn pinned_sender_enforced() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        let p = pt(*b"mallory\0", 1, 1, 100);
        let alice = pt(*b"alice\0\0\0", 0, 0, 0).sender;
        assert_eq!(
            v.check(&cfg, &p, Some(alice), SimTime(0)),
            Err(ValidationError::IdentityMismatch)
        );
    }

    #[test]
    fn expiry_enforced_and_ablatable() {
        let full = ProtocolConfig::full();
        let mut v = validator();
        let p = pt(*b"alice\0\0\0", 1, 1, 100);
        assert!(matches!(
            v.check(&full, &p, None, SimTime(101)),
            Err(ValidationError::Expired { .. })
        ));
        let ablated = ProtocolConfig::ablated(Ablation::NoTimeLimits);
        let mut v = validator();
        v.check(&ablated, &p, None, SimTime(1_000_000)).unwrap();
    }

    #[test]
    fn sequence_isolated_per_txn() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 5, 100), None, SimTime(0)).unwrap();
        // Different transaction starts its own window.
        v.check(&cfg, &pt(*b"alice\0\0\0", 2, 1, 100), None, SimTime(0)).unwrap();
    }

    #[test]
    fn retired_txn_rejects_live_traffic_and_frees_window_state() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 1, 100), None, SimTime(0)).unwrap();
        v.alloc_seq(1);
        let before = v.state_bytes();
        v.retire_txn(1);
        assert!(v.state_bytes() < before, "tombstone is smaller than the window it replaces");
        assert_eq!(v.archived_count(), 1);
        let err = v.check(&cfg, &pt(*b"alice\0\0\0", 1, 2, 100), None, SimTime(0)).unwrap_err();
        assert_eq!(err, ValidationError::ArchivedTransaction(1));
        assert_eq!(err.variant(), "archived-transaction");
        // Other transactions are untouched.
        v.check(&cfg, &pt(*b"alice\0\0\0", 2, 1, 100), None, SimTime(0)).unwrap();
        // The tombstone survives crash recovery: without it, a restored
        // actor would hand a late replay a fresh window.
        let snap = v.snapshot();
        let mut restored = validator();
        restored.restore_with_skip(&snap, 1 << 16);
        assert_eq!(
            restored.check(&cfg, &pt(*b"alice\0\0\0", 1, 5, 100), None, SimTime(0)),
            Err(ValidationError::ArchivedTransaction(1))
        );
    }

    #[test]
    fn retiring_a_txn_drops_only_its_own_windows() {
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        let from_ttp = |txn, seq| EvidencePlaintext {
            sender: PrincipalId([7; 32]),
            ..pt(*b"alice\0\0\0", txn, seq, 100)
        };
        for txn in [1, 2] {
            v.check(&cfg, &pt(*b"alice\0\0\0", txn, 1, 100), None, SimTime(0)).unwrap();
            v.check(&cfg, &from_ttp(txn, 5), None, SimTime(0)).unwrap();
            v.alloc_seq(txn);
        }
        v.retire_txn(1);
        let (alice, ttp) = (pt(*b"alice\0\0\0", 0, 0, 0).sender, PrincipalId([7; 32]));
        assert_eq!((v.last_seq(1, alice), v.last_seq(1, ttp)), (0, 0));
        assert_eq!((v.last_seq(2, alice), v.last_seq(2, ttp)), (1, 5));
        assert_eq!(v.alloc_seq(2), 2);
        assert_eq!(v.state_bytes(), 2 * 48 + 16 + 8);
        assert_eq!(v.known_senders(), 2, "the sender table outlives the windows");
    }

    #[test]
    fn a_snapshot_restored_elsewhere_keeps_its_windows_senders() {
        // The sender table is not in the snapshot; a validator whose table
        // gave index 0 to someone else must not hand Alice's window to them.
        let cfg = ProtocolConfig::full();
        let mut v = validator();
        v.check(&cfg, &pt(*b"alice\0\0\0", 1, 3, 100), None, SimTime(0)).unwrap();
        let snap = v.snapshot();
        let mut other = validator();
        other.check(&cfg, &pt(*b"mallory\0", 2, 1, 100), None, SimTime(0)).unwrap();
        other.restore_with_skip(&snap, 0);
        let (alice, mallory) =
            (pt(*b"alice\0\0\0", 0, 0, 0).sender, pt(*b"mallory\0", 0, 0, 0).sender);
        assert_eq!((other.last_seq(1, alice), other.last_seq(1, mallory)), (3, 0));
        other.check(&cfg, &pt(*b"mallory\0", 1, 1, 100), None, SimTime(0)).unwrap();
        assert_eq!(other.known_senders(), 2);
    }

    const BOB_RNG_SEED: u64 = 41;

    /// Bob's party (full directory: Alice, Bob, the TTP), with Alice's and
    /// the TTP's principals.
    fn bob_party(cfg: ProtocolConfig) -> (Party, Principal, Principal) {
        let (alice, bob, ttp) =
            (Principal::test("alice", 1), Principal::test("bob", 2), Principal::test("ttp", 3));
        let mut dir = Directory::new();
        for p in [&alice, &bob, &ttp] {
            dir.register(p);
        }
        let rng = ChaChaRng::seed_from_u64(BOB_RNG_SEED);
        (Party::new(bob, cfg, dir, ttp.id(), rng), alice, ttp)
    }

    #[test]
    fn stamp_copies_the_subject_and_takes_the_rest_from_the_party() {
        let (mut bob, alice, ttp) = bob_party(ProtocolConfig::full());
        let mut on = pt(*b"alice\0\0\0", 42, 9, 5);
        on.object = b"the object".to_vec();
        on.hash_alg = HashAlg::Md5;
        on.data_hash = vec![3; 16];
        let now = SimTime(1_000);
        let mut rng = ChaChaRng::seed_from_u64(BOB_RNG_SEED);

        let st = bob.stamp(&on, Flag::AbortResponse, alice.id(), 7, now);
        let expected = EvidencePlaintext {
            flag: Flag::AbortResponse,
            sender: bob.id(),
            recipient: alice.id(),
            ttp: ttp.id(),
            txn_id: 42,
            seq: 7,
            nonce: rng.next_u64(),
            time_limit: now.after(bob.cfg.message_time_limit),
            object: on.object.clone(),
            hash_alg: HashAlg::Md5,
            data_hash: on.data_hash.clone(),
        };
        assert_eq!(st, expected);
        // `stamp_hash` differs only in the hash it names; each stamp draws
        // one fresh nonce.
        let st = bob.stamp_hash(&on, vec![8; 16], Flag::AbortResponse, alice.id(), 7, now);
        let nonce = rng.next_u64();
        assert_eq!(st, EvidencePlaintext { nonce, data_hash: vec![8; 16], ..expected });
    }

    #[test]
    fn key_prefers_a_wire_key_only_without_key_authentication() {
        let mallory = Principal::test("mallory", 13);
        let unknown = mallory.id();
        for (cfg, poisoned) in [
            (ProtocolConfig::full(), false),
            (ProtocolConfig::ablated(Ablation::NoKeyAuthentication), true),
        ] {
            let (mut bob, alice, ttp) = bob_party(cfg);
            bob.learn_wire_key(alice.id(), mallory.public().clone());
            let expected = if poisoned { mallory.public() } else { alice.public() };
            assert_eq!(bob.key(alice.id()).as_ref(), Ok(expected));
            assert_eq!(bob.key(ttp.id()).as_ref(), Ok(ttp.public()));
            assert_eq!(bob.key(unknown), Err(ValidationError::NoKey(unknown)));
        }
    }

    #[test]
    fn restore_bumps_the_epoch_and_skips_seqs_by_epoch_times_the_recovery_skip() {
        use crate::fault::SEQ_RECOVERY_SKIP as SKIP;
        let (mut bob, ..) = bob_party(ProtocolConfig::full());
        assert_eq!(bob.validator.alloc_seq(1), 1);
        let snap = bob.validator.snapshot();
        assert_eq!(bob.validator.alloc_seq(1), 2, "spent in the dirty window");
        assert_eq!((bob.restore(&snap), bob.restart_count()), (SKIP, 1));
        assert_eq!(bob.validator.alloc_seq(1), 1 + SKIP + 1);
        assert_eq!((bob.restore(&snap), bob.restart_count()), (2 * SKIP, 2));
        assert_eq!(bob.validator.alloc_seq(1), 1 + 2 * SKIP + 1);
        // A transaction the snapshot never saw starts above the floor.
        assert_eq!(bob.validator.alloc_seq(5), 2 * SKIP + 1);
    }

    #[test]
    fn payload_roundtrip_and_hash_binds_key() {
        let p1 = Payload { key: b"k1".to_vec(), data: b"d".to_vec().into() };
        let p2 = Payload { key: b"k2".to_vec(), data: b"d".to_vec().into() };
        assert_eq!(Payload::from_wire(&p1.to_wire()).unwrap(), p1);
        assert_ne!(p1.hash(HashAlg::Sha256), p2.hash(HashAlg::Sha256));
    }

    #[test]
    fn payload_decode_from_bytes_frame_shares_the_allocation() {
        let p = Payload { key: b"k".to_vec(), data: vec![0xabu8; 4096].into() };
        let frame = p.to_wire_bytes();
        let decoded = Payload::from_wire_bytes(&frame).unwrap();
        assert_eq!(decoded, p);
        assert!(
            decoded.data.same_allocation(&frame.slice(0..frame.len())),
            "decoded payload data must be a view into the frame, not a copy"
        );
    }

    #[test]
    fn commit_discriminates_key_and_mode() {
        use crate::config::Commitment;
        let data: tpnr_net::Bytes = vec![7u8; 2048].into();
        let p1 = Payload { key: b"k1".to_vec(), data: data.clone() };
        let p2 = Payload { key: b"k2".to_vec(), data };
        let flat = ProtocolConfig::full();
        let merkle =
            ProtocolConfig { commitment: Commitment::Merkle { chunk_size: 256 }, ..flat.clone() };
        // Same data allocation, different key or commitment mode.
        assert_ne!(p1.commit(&flat), p2.commit(&flat));
        assert_ne!(p1.commit(&flat), p1.commit(&merkle));
    }

    #[test]
    fn terminal_states() {
        assert!(TxnState::Completed.is_terminal());
        assert!(TxnState::Aborted.is_terminal());
        assert!(TxnState::AbortRejected.is_terminal());
        assert!(TxnState::Failed.is_terminal());
        assert!(!TxnState::Pending.is_terminal());
        assert!(!TxnState::Resolving.is_terminal());
    }
}
