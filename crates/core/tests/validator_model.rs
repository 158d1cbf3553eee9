//! The replay validator against a reference model. `Model` is the
//! validator as it was first written: one map of receive windows keyed by
//! `(transaction, sender)` and one of send counters keyed by transaction.
//! Seeded random sequences drive both through the public API under the full
//! protocol and under each ablation: `check` from the counterparty, the TTP
//! and strangers with sequence numbers that include 0, repeats and
//! `u64::MAX`; `verdict` alone, which must record nothing; `alloc_seq`,
//! also near `u64::MAX`; `retire_txn`; and `snapshot` /
//! `restore_with_skip`. Every verdict, `last_seq`, `alloc_seq` value,
//! `state_bytes` and `archived_count` must agree after every step.

use std::collections::{BTreeSet, HashMap};
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::evidence::{EvidencePlaintext, Flag};
use tpnr_core::principal::PrincipalId;
use tpnr_core::session::{ValidationError, Validator, ValidatorSnapshot};
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::ChaChaRng;
use tpnr_net::time::SimTime;

const ME: PrincipalId = PrincipalId([9; 32]);
const TTP: PrincipalId = PrincipalId([7; 32]);
const ALICE: PrincipalId = PrincipalId([1; 32]);
/// The counterparty, the TTP and three strangers.
const SENDERS: [PrincipalId; 5] =
    [ALICE, TTP, PrincipalId([2; 32]), PrincipalId([3; 32]), PrincipalId([4; 32])];
/// Transactions a sequence touches: few, so windows, retirements and
/// restores keep meeting each other.
const TXNS: u64 = 6;
const STEPS: usize = 3_000;
const SEEDS: u64 = 8;
/// Messages expire after this instant; `now` ranges a little past it.
const LIMIT: u64 = 1_000;

/// The two-map validator, kept as the reference.
#[derive(Clone)]
struct Model {
    last_recv: HashMap<(u64, PrincipalId), u64>,
    send_seq: HashMap<u64, u64>,
    seq_floor: u64,
    archived: BTreeSet<u64>,
}

struct ModelSnapshot {
    last_recv: HashMap<(u64, PrincipalId), u64>,
    send_seq: HashMap<u64, u64>,
    archived: BTreeSet<u64>,
}

impl Model {
    fn new() -> Self {
        Model {
            last_recv: HashMap::new(),
            send_seq: HashMap::new(),
            seq_floor: 0,
            archived: BTreeSet::new(),
        }
    }

    fn check(
        &mut self,
        cfg: &ProtocolConfig,
        pt: &EvidencePlaintext,
        expected_sender: Option<PrincipalId>,
        now: SimTime,
    ) -> Result<(), ValidationError> {
        if cfg.ablation != Ablation::NoIdentityBinding {
            if pt.recipient != ME || pt.ttp != TTP {
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
            let key = (pt.txn_id, pt.sender);
            let last = self.last_recv.get(&key).copied().unwrap_or(0);
            if pt.seq <= last {
                return Err(ValidationError::StaleSequence { last, got: pt.seq });
            }
            self.last_recv.insert(key, pt.seq);
        }
        Ok(())
    }

    fn last_seq(&self, txn_id: u64, sender: PrincipalId) -> u64 {
        self.last_recv.get(&(txn_id, sender)).copied().unwrap_or(0)
    }

    fn alloc_seq(&mut self, txn_id: u64) -> u64 {
        let cur = self.send_seq.get(&txn_id).copied().unwrap_or(0).max(self.seq_floor);
        let next = cur.saturating_add(1);
        self.send_seq.insert(txn_id, next);
        next
    }

    fn retire_txn(&mut self, txn_id: u64) {
        self.last_recv.retain(|&(txn, _), _| txn != txn_id);
        self.send_seq.remove(&txn_id);
        self.archived.insert(txn_id);
    }

    fn snapshot(&self) -> ModelSnapshot {
        ModelSnapshot {
            last_recv: self.last_recv.clone(),
            send_seq: self.send_seq.clone(),
            archived: self.archived.clone(),
        }
    }

    fn restore_with_skip(&mut self, snap: &ModelSnapshot, skip: u64) {
        self.last_recv = snap.last_recv.clone();
        self.send_seq =
            snap.send_seq.iter().map(|(txn, seq)| (*txn, seq.saturating_add(skip))).collect();
        self.archived = snap.archived.clone();
        self.seq_floor = self.seq_floor.max(skip);
    }

    fn state_bytes(&self) -> u64 {
        (self.last_recv.len() * 48 + self.send_seq.len() * 16 + self.archived.len() * 8) as u64
    }
}

/// One of a few sequence numbers a replay or a wrap would hit, or a
/// small fresh one.
fn seq(rng: &mut ChaChaRng, recent: u64) -> u64 {
    match rng.gen_below(8) {
        0 => 0,
        1 => u64::MAX,
        2 => u64::MAX - rng.gen_below(3),
        3 | 4 => recent,
        5 => recent.saturating_add(1),
        _ => rng.gen_below(12),
    }
}

/// A restore skip: none, the recovery skip, or one that saturates.
fn skip(rng: &mut ChaChaRng) -> u64 {
    match rng.gen_below(5) {
        0 => 0,
        1 => 1,
        2 => 1 << 16,
        3 => u64::MAX - rng.gen_below(4),
        _ => rng.gen_below(100),
    }
}

/// Asserts that every observable of `v` equals the model's.
fn assert_agrees(v: &Validator, m: &Model, step: usize) {
    for txn in 0..=TXNS {
        for s in SENDERS {
            assert_eq!(v.last_seq(txn, s), m.last_seq(txn, s), "step {step}: last_seq({txn})");
        }
    }
    assert_eq!(v.state_bytes(), m.state_bytes(), "step {step}: state_bytes");
    assert_eq!(v.archived_count(), m.archived.len(), "step {step}: archived_count");
}

/// Runs one seeded sequence of `STEPS` operations under `cfg`.
fn drive(cfg: &ProtocolConfig, seed: u64) {
    let mut rng = ChaChaRng::seed_from_u64(seed);
    let mut v = Validator::new(ME, TTP);
    let mut m = Model::new();
    let mut snaps: Vec<(ValidatorSnapshot, ModelSnapshot)> = Vec::new();
    let mut recent = 1u64;
    // Every sender the validator has accepted a message from.
    let mut accepted = BTreeSet::new();
    for step in 0..STEPS {
        let txn = rng.gen_below(TXNS + 1);
        match rng.gen_below(22) {
            kind @ 0..=13 => {
                let sender = SENDERS[rng.gen_below(SENDERS.len() as u64) as usize];
                let got = seq(&mut rng, recent);
                let pt = EvidencePlaintext {
                    flag: Flag::UploadReceipt,
                    sender,
                    recipient: if rng.gen_below(10) == 0 { ALICE } else { ME },
                    ttp: if rng.gen_below(10) == 0 { ME } else { TTP },
                    txn_id: txn,
                    seq: got,
                    nonce: rng.next_u64(),
                    time_limit: SimTime(LIMIT),
                    object: b"k".to_vec(),
                    hash_alg: HashAlg::Sha256,
                    data_hash: vec![0; 32],
                };
                let expected = match rng.gen_below(3) {
                    0 => None,
                    1 => Some(ALICE),
                    _ => Some(SENDERS[rng.gen_below(SENDERS.len() as u64) as usize]),
                };
                let now = SimTime(rng.gen_below(LIMIT + LIMIT / 10));
                recent = got;
                if kind >= 12 {
                    // A verdict alone changes no window, send counter or
                    // table entry: the model is left as it was, and the
                    // checks after this step compare against it.
                    let verdict = v.verdict(cfg, &pt, expected, now);
                    let model = m.clone().check(cfg, &pt, expected, now);
                    assert_eq!(verdict, model, "step {step}: verdict");
                } else {
                    let before = v.known_senders();
                    let verdict = v.check(cfg, &pt, expected, now);
                    assert_eq!(verdict, m.check(cfg, &pt, expected, now), "step {step}: check");
                    if verdict.is_err() {
                        assert_eq!(
                            v.known_senders(),
                            before,
                            "step {step}: a refusal grew the table"
                        );
                    } else if cfg.ablation != Ablation::NoSequenceNumbers {
                        accepted.insert(sender.0);
                    }
                }
            }
            14..=16 => assert_eq!(v.alloc_seq(txn), m.alloc_seq(txn), "step {step}: alloc_seq"),
            17 => {
                v.retire_txn(txn);
                m.retire_txn(txn);
            }
            18 | 19 => {
                snaps.push((v.snapshot(), m.snapshot()));
                if snaps.len() > 3 {
                    snaps.remove(0);
                }
            }
            _ => {
                if let Some((vs, ms)) = snaps.get(rng.gen_below(snaps.len().max(1) as u64) as usize)
                {
                    let skip = skip(&mut rng);
                    v.restore_with_skip(vs, skip);
                    m.restore_with_skip(ms, skip);
                }
            }
        }
        assert_agrees(&v, &m, step);
        // The table holds exactly the senders ever accepted.
        assert_eq!(v.known_senders(), accepted.len(), "step {step}: sender table");
    }
}

#[test]
fn the_validator_agrees_with_the_two_map_model_under_every_config() {
    let configs = std::iter::once(ProtocolConfig::full())
        .chain(Ablation::all().into_iter().map(ProtocolConfig::ablated));
    for (c, cfg) in configs.enumerate() {
        for seed in 0..SEEDS {
            drive(&cfg, (c as u64) << 32 | seed);
        }
    }
}

/// Restoring a snapshot into a validator that never took it: its windows
/// must keep naming the principals they were accepted from.
#[test]
fn a_snapshot_restored_into_a_fresh_validator_agrees_with_the_model() {
    let cfg = ProtocolConfig::full();
    let mut rng = ChaChaRng::seed_from_u64(77);
    let mut v = Validator::new(ME, TTP);
    let mut m = Model::new();
    for step in 0..500 {
        let sender = SENDERS[rng.gen_below(SENDERS.len() as u64) as usize];
        let pt = EvidencePlaintext {
            flag: Flag::UploadReceipt,
            sender,
            recipient: ME,
            ttp: TTP,
            txn_id: rng.gen_below(TXNS),
            seq: rng.gen_below(20),
            nonce: 0,
            time_limit: SimTime(LIMIT),
            object: Vec::new(),
            hash_alg: HashAlg::Sha256,
            data_hash: Vec::new(),
        };
        assert_eq!(v.check(&cfg, &pt, None, SimTime(0)), m.check(&cfg, &pt, None, SimTime(0)));
        if step % 50 == 49 {
            // A fresh validator that first accepts the senders in reverse
            // order, so its table numbers them differently.
            let (vs, ms) = (v.snapshot(), m.snapshot());
            v = Validator::new(ME, TTP);
            for (i, s) in SENDERS.iter().rev().enumerate() {
                let first =
                    EvidencePlaintext { sender: *s, txn_id: 100 + i as u64, seq: 1, ..pt.clone() };
                v.check(&cfg, &first, None, SimTime(0)).unwrap();
            }
            v.restore_with_skip(&vs, 0);
            m.restore_with_skip(&ms, 0);
        }
        assert_agrees(&v, &m, step);
    }
}
