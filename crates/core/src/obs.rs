//! Unified observability: one structured event stream plus a metrics
//! registry, shared by every runner.
//!
//! The paper's evaluation is pure message accounting (2 steps in the Normal
//! mode, TTP touched only on faults), so the reproduction lives or dies on
//! *exact, inspectable* accounting of what happened on the wire. Before this
//! module, `World` kept a private trace that `MultiWorld` never got — there,
//! garbled payloads and validation rejections vanished without a record —
//! and drops/duplications inside [`SimNet`](tpnr_net::sim::SimNet) were
//! invisible to both. [`Obs`] is the single sink of the one runner that
//! has since replaced both:
//!
//! - an [`Event`] ring buffer (bounded, so 50-client floods cannot grow
//!   memory without bound; eviction is counted, never silent),
//! - global [`Metrics`] counters with per-`ValidationError`-variant
//!   rejection counts and latency/settle-step [`Histogram`]s,
//! - exact per-transaction tallies ([`TxnObs`]) that partition the global
//!   counters: for fully tagged traffic, summing any field over
//!   [`Obs::txns`] reproduces the global number, and each transaction's
//!   inbox total equals its `TxnNetStats::delivered`.
//!
//! Attribution is `Option<u64>`: an undecodable flood payload belongs to no
//! transaction (it used to be reported as `txn_id: 0`). Decodable traffic
//! prefers the sender's wire tag and falls back to the protocol header's
//! transaction id, so adversary *injections* — untagged on the wire — are
//! still attributed to the session they replay into.
//!
//! Events name actors by [`NodeId`], never by a copied display name; the
//! bench crate renders events and metrics as JSONL
//! (`tpnr-bench::report`), resolving each id through the transport's node
//! table, and `experiments --trace-jsonl` exports a full run.

use crate::message::MsgKind;
use crate::session::{Outgoing, TxnState, ValidationError};
use std::collections::{BTreeMap, VecDeque};
use tpnr_net::sim::NodeId;
use tpnr_net::time::SimTime;

/// Default ring-buffer capacity (events, not bytes). Large enough to hold a
/// full 50-client faulted run; floods beyond it evict the oldest events and
/// bump [`Obs::evicted`] while every counter stays exact.
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// One observable happening, attributed to a point in simulated time, an
/// actor (the affected receiver), and — when one exists — a transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// When it happened.
    pub at: SimTime,
    /// Transaction this event belongs to. `None` for traffic no transaction
    /// claims: undecodable floods, untagged raw sends, timer rounds.
    pub txn: Option<u64>,
    /// Node of the actor the event happened *to* (the receiver for wire
    /// events, the timer owner for `TimerFired`, the state owner for
    /// `StateTransition`).
    pub actor: NodeId,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy. Wire-facing variants carry the sender's node so a
/// trace line reads as "who did what to whom".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A protocol message was decoded and accepted by its receiver.
    Delivered {
        /// Sender's node.
        from: NodeId,
        /// Which message (`Transfer`, `Receipt`, …).
        msg: MsgKind,
    },
    /// A protocol message was decoded but refused by validation.
    Rejected {
        /// Sender's node.
        from: NodeId,
        /// Which message.
        msg: MsgKind,
        /// Why it was refused. Boxed: rejections are the cold path, and
        /// inline this one variant would set every event's size.
        error: Box<ValidationError>,
    },
    /// An arriving payload did not decode as a protocol message.
    Garbled {
        /// Sender's node.
        from: NodeId,
    },
    /// The network lost a copy (link loss or adversary drop).
    Dropped {
        /// Sender's node.
        from: NodeId,
    },
    /// The link created an extra copy of a message.
    Duplicated {
        /// Sender's node.
        from: NodeId,
    },
    /// An actor's due protocol timers fired.
    TimerFired {
        /// How many messages the tick produced.
        messages: usize,
    },
    /// A transaction moved to a new client-visible state.
    StateTransition {
        /// Previous state; `None` when first observed.
        from: Option<TxnState>,
        /// New state.
        to: TxnState,
    },
    /// Fault injection crashed this actor; in-flight work is lost until it
    /// restarts from its durable snapshot.
    Crashed,
    /// A crashed actor came back up, restored from its last synced
    /// snapshot.
    Restarted {
        /// Approximate size of the snapshot it restored from.
        snapshot_bytes: u64,
    },
}

impl EventKind {
    /// Stable kebab-case label (JSONL `kind` field).
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::Delivered { .. } => "delivered",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Garbled { .. } => "garbled",
            EventKind::Dropped { .. } => "dropped",
            EventKind::Duplicated { .. } => "duplicated",
            EventKind::TimerFired { .. } => "timer-fired",
            EventKind::StateTransition { .. } => "state-transition",
            EventKind::Crashed => "crashed",
            EventKind::Restarted { .. } => "restarted",
        }
    }
}

impl Event {
    /// The protocol message kind this event carries, when it carries one
    /// (`Delivered` and `Rejected`).
    pub fn msg_kind(&self) -> Option<MsgKind> {
        match &self.kind {
            EventKind::Delivered { msg, .. } | EventKind::Rejected { msg, .. } => Some(*msg),
            _ => None,
        }
    }
}

/// Values below this are bucketed exactly (one bucket per value).
const HIST_EXACT: usize = 32;
/// Sub-buckets per power of two above the exact region (log-linear).
const HIST_SUB: usize = 16;
/// 32 exact buckets + 16 sub-buckets for each exponent 5..=63.
const HIST_BUCKETS: usize = HIST_EXACT + (64 - 5) * HIST_SUB;

/// Fixed-bucket **log-linear** histogram: values below 32 get one bucket
/// each (exact), larger values get 16 sub-buckets per power of two — the
/// bucket of `v` is keyed by `(ilog2(v), top 4 bits after the leading 1)`,
/// so quantiles resolve to ≈6% relative error instead of the 2× error a
/// pure log2 scheme gives. (The old log2 buckets made the E10 latency
/// exhibit degenerate: every settle latency landed in one bucket and
/// p50 == p99.) No allocation, O(1) record, exact count/sum/min/max
/// alongside the bucketed shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl Histogram {
    /// Bucket index of `value` in the log-linear layout.
    fn bucket_index(value: u64) -> usize {
        if value < HIST_EXACT as u64 {
            value as usize
        } else {
            let e = value.ilog2() as usize; // ≥ 5 here
            let sub = ((value >> (e - 4)) & 0xF) as usize;
            HIST_EXACT + (e - 5) * HIST_SUB + sub
        }
    }

    /// Largest value bucket `i` can hold (inverse of [`Self::bucket_index`]).
    fn bucket_upper(i: usize) -> u64 {
        if i < HIST_EXACT {
            i as u64
        } else {
            let e = 5 + (i - HIST_EXACT) / HIST_SUB;
            let sub = ((i - HIST_EXACT) % HIST_SUB) as u64;
            let width = 1u64 << (e - 4);
            (HIST_SUB as u64 + sub) * width + (width - 1)
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// How many values were recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest recorded value, if any.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value, if any.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merges another histogram into this one: bucket-wise addition with
    /// exact count/sum/min/max. Lets sharded runners combine per-lane
    /// latency distributions into one global quantile surface.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Upper bound of the bucket containing the q-quantile (q in 0..=1),
    /// clamped to the exact max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Self::bucket_upper(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Global counters and distributions, updated on every [`Obs::record`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Protocol messages accepted by their receiver.
    pub delivered: u64,
    /// Protocol messages refused by validation.
    pub rejected: u64,
    /// Arriving payloads that did not decode.
    pub garbled: u64,
    /// Copies the network lost.
    pub dropped: u64,
    /// Extra copies the link created.
    pub duplicated: u64,
    /// Timer rounds that fired on some actor.
    pub timer_fires: u64,
    /// Client-visible transaction state changes.
    pub state_transitions: u64,
    /// Rejections by [`ValidationError::variant`] label.
    pub rejected_by: BTreeMap<&'static str, u64>,
    /// Actor crashes injected by the fault plan.
    pub crashes: u64,
    /// Restarts from durable snapshots.
    pub restarts: u64,
    /// Client resends driven by the retry policy (synced from the clients'
    /// retry counters by the runners' settle wrappers).
    pub retries: u64,
    /// Persisted snapshot sizes summed over durable syncs (synced from the
    /// fault controller by the runners' settle wrappers); see
    /// [`FaultStats::snapshot_bytes`](crate::fault::FaultStats::snapshot_bytes).
    pub snapshot_bytes: u64,
    /// Per-transaction settlement latency in microseconds (recorded when a
    /// transaction first reaches a terminal state).
    pub latency_us: Histogram,
    /// Steps (deliveries + timer rounds) per settle run.
    pub settle_steps: Histogram,
}

/// Exact per-transaction event tallies. For fully tagged traffic,
/// `accepted + rejected + garbled` equals the transaction's
/// `TxnNetStats::delivered` and each field sums over all transactions to
/// the matching global [`Metrics`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnObs {
    /// Deliveries accepted.
    pub accepted: u64,
    /// Deliveries refused by validation.
    pub rejected: u64,
    /// Arrivals that did not decode.
    pub garbled: u64,
    /// Copies lost in the network.
    pub dropped: u64,
    /// Extra copies the link created.
    pub duplicated: u64,
}

impl TxnObs {
    /// Everything that reached an inbox for this transaction (equals
    /// `TxnNetStats::delivered` for tagged traffic).
    pub fn inbox_total(&self) -> u64 {
        self.accepted + self.rejected + self.garbled
    }
}

/// Per-actor message/tick counters. Each actor carries its own, so tests
/// and experiments can read "how did Bob fare" without scanning the event
/// stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ActorStats {
    /// Messages this actor accepted.
    pub accepted: u64,
    /// Messages this actor refused.
    pub rejected: u64,
    /// Messages this actor produced (replies and timer output).
    pub produced: u64,
    /// Ticks that produced at least one message.
    pub productive_ticks: u64,
}

impl ActorStats {
    /// Accounts one handled message.
    pub fn note_message(&mut self, result: &Result<Vec<Outgoing>, ValidationError>) {
        match result {
            Ok(out) => {
                self.accepted += 1;
                self.produced += out.len() as u64;
            }
            Err(_) => self.rejected += 1,
        }
    }

    /// Accounts one timer tick.
    pub fn note_tick(&mut self, out: &[Outgoing]) {
        if !out.is_empty() {
            self.productive_ticks += 1;
            self.produced += out.len() as u64;
        }
    }
}

/// What obs keeps per transaction, in one 32-byte entry: the [`TxnObs`]
/// tallies as saturating `u32`s, the last observed state and the start
/// time. A settled transaction keeps its entry until it is retired.
#[derive(Debug, Clone, Copy, Default)]
struct TxnEntry {
    /// When its first message hit the wire; meaningful once `has_started`.
    started: SimTime,
    /// Accepted, rejected, garbled, dropped and duplicated, in that order.
    tallies: [u32; 5],
    /// Last client-visible state observed.
    state: Option<TxnState>,
    /// Whether `started` was noted.
    has_started: bool,
}

/// Each tally's index in `TxnEntry::tallies`, in `TxnObs` field order.
const ACCEPTED: usize = 0;
const REJECTED: usize = 1;
const GARBLED: usize = 2;
const DROPPED: usize = 3;
const DUPLICATED: usize = 4;

impl TxnEntry {
    /// Counts one more event in tally `i`.
    fn bump(&mut self, i: usize) {
        self.tallies[i] = self.tallies[i].saturating_add(1);
    }
}

/// The shared observability sink: bounded event ring plus metrics.
///
/// Besides its events (48 bytes each: a message is named by a one-byte
/// [`MsgKind`]), a transaction costs one 32-byte map entry holding its
/// tallies, last state and start time until it is retired.
#[derive(Debug, Clone)]
pub struct Obs {
    events: VecDeque<Event>,
    capacity: usize,
    evicted: u64,
    /// Global counters and distributions.
    pub metrics: Metrics,
    txns: BTreeMap<u64, TxnEntry>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Sink with the default ring capacity.
    pub fn new() -> Self {
        Obs::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// Sink with an explicit ring capacity (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Obs {
            events: VecDeque::new(),
            capacity: capacity.max(1),
            evicted: 0,
            metrics: Metrics::default(),
            txns: BTreeMap::new(),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Re-bounds the ring, evicting oldest events immediately if needed.
    pub fn set_capacity(&mut self, capacity: usize) {
        self.capacity = capacity.max(1);
        while self.events.len() > self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
    }

    /// Events evicted from the ring so far (counters are unaffected by
    /// eviction).
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<Event> {
        &self.events
    }

    /// Tallies for one transaction (zeroes if it was never seen). Each
    /// tally saturates at `u32::MAX`.
    pub fn txn(&self, txn: u64) -> TxnObs {
        let [accepted, rejected, garbled, dropped, duplicated] =
            self.txns.get(&txn).map_or([0; 5], |e| e.tallies).map(u64::from);
        TxnObs { accepted, rejected, garbled, dropped, duplicated }
    }

    /// Transactions with recorded events, ascending.
    pub fn txns(&self) -> Vec<u64> {
        self.txns.iter().filter(|(_, e)| e.tallies != [0; 5]).map(|(&t, _)| t).collect()
    }

    /// Counts one event in tally `i` of the transaction it belongs to.
    fn tally(&mut self, txn: Option<u64>, i: usize) {
        if let Some(t) = txn {
            self.txns.entry(t).or_default().bump(i);
        }
    }

    /// Records one event: updates the metrics, the per-transaction tallies,
    /// and the ring (evicting the oldest event when full).
    pub fn record(&mut self, event: Event) {
        match &event.kind {
            EventKind::Delivered { .. } => {
                self.metrics.delivered += 1;
                self.tally(event.txn, ACCEPTED);
            }
            EventKind::Rejected { error, .. } => {
                self.metrics.rejected += 1;
                *self.metrics.rejected_by.entry(error.variant()).or_insert(0) += 1;
                self.tally(event.txn, REJECTED);
            }
            EventKind::Garbled { .. } => {
                self.metrics.garbled += 1;
                self.tally(event.txn, GARBLED);
            }
            EventKind::Dropped { .. } => {
                self.metrics.dropped += 1;
                self.tally(event.txn, DROPPED);
            }
            EventKind::Duplicated { .. } => {
                self.metrics.duplicated += 1;
                self.tally(event.txn, DUPLICATED);
            }
            EventKind::TimerFired { .. } => self.metrics.timer_fires += 1,
            EventKind::StateTransition { .. } => self.metrics.state_transitions += 1,
            EventKind::Crashed => self.metrics.crashes += 1,
            EventKind::Restarted { .. } => self.metrics.restarts += 1,
        }
        if self.events.len() >= self.capacity {
            self.events.pop_front();
            self.evicted += 1;
        }
        self.events.push_back(event);
    }

    /// Marks when a transaction's first message hit the wire (idempotent;
    /// the first call wins). Terminal-state latency is measured from here.
    pub fn note_txn_started(&mut self, txn: u64, at: SimTime) {
        let e = self.txns.entry(txn).or_default();
        if !e.has_started {
            (e.started, e.has_started) = (at, true);
        }
    }

    /// Observes a transaction's current client-visible state, emitting a
    /// [`EventKind::StateTransition`] only when it changed. The first
    /// transition into a terminal state records settlement latency.
    pub fn note_state(&mut self, at: SimTime, actor: NodeId, txn: u64, state: TxnState) {
        let e = self.txns.entry(txn).or_default();
        let prev = e.state.replace(state);
        if prev == Some(state) {
            return;
        }
        if state.is_terminal() && !prev.is_some_and(TxnState::is_terminal) && e.has_started {
            self.metrics.latency_us.record(at.since(e.started).micros());
        }
        self.record(Event {
            at,
            txn: Some(txn),
            actor,
            kind: EventKind::StateTransition { from: prev, to: state },
        });
    }

    /// Records the size of one settle run (deliveries + timer rounds).
    pub fn note_settle(&mut self, steps: u64) {
        self.metrics.settle_steps.record(steps);
    }

    /// Drops a settled transaction's per-txn tracking state: its tallies,
    /// last state and start time. Global counters and histograms are
    /// untouched — they were already updated when the events happened.
    pub fn retire_txn(&mut self, txn: u64) {
        self.txns.remove(&txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALICE: NodeId = NodeId(0);
    const BOB: NodeId = NodeId(1);

    fn ev(at: u64, txn: Option<u64>, kind: EventKind) -> Event {
        Event { at: SimTime(at), txn, actor: BOB, kind }
    }

    fn delivered(from: NodeId) -> EventKind {
        EventKind::Delivered { from, msg: MsgKind::Transfer }
    }

    #[test]
    fn counters_and_per_txn_partition() {
        let mut o = Obs::new();
        o.record(ev(1, Some(1), delivered(ALICE)));
        o.record(ev(2, Some(2), delivered(ALICE)));
        o.record(ev(
            3,
            Some(1),
            EventKind::Rejected {
                from: ALICE,
                msg: MsgKind::Transfer,
                error: Box::new(ValidationError::StaleSequence { last: 2, got: 1 }),
            },
        ));
        o.record(ev(4, None, EventKind::Garbled { from: ALICE }));
        o.record(ev(5, Some(2), EventKind::Dropped { from: ALICE }));
        o.record(ev(5, Some(2), EventKind::Duplicated { from: ALICE }));

        assert_eq!(o.metrics.delivered, 2);
        assert_eq!(o.metrics.rejected, 1);
        assert_eq!(o.metrics.garbled, 1);
        assert_eq!(o.metrics.dropped, 1);
        assert_eq!(o.metrics.duplicated, 1);
        assert_eq!(o.metrics.rejected_by.get("stale-sequence"), Some(&1));
        assert_eq!(o.txns(), vec![1, 2]);
        assert_eq!(o.txn(1), TxnObs { accepted: 1, rejected: 1, ..Default::default() });
        assert_eq!(
            o.txn(2),
            TxnObs { accepted: 1, dropped: 1, duplicated: 1, ..Default::default() }
        );
        // The untagged garbled event is global-only.
        let tallied: u64 = o.txns().iter().map(|&t| o.txn(t).garbled).sum();
        assert_eq!(tallied, 0);
        assert_eq!(o.txn(1).inbox_total(), 2);
    }

    #[test]
    fn ring_evicts_oldest_but_counters_stay_exact() {
        let mut o = Obs::with_capacity(3);
        for i in 0..10 {
            o.record(ev(i, None, delivered(ALICE)));
        }
        assert_eq!(o.events().len(), 3);
        assert_eq!(o.evicted(), 7);
        assert_eq!(o.metrics.delivered, 10);
        assert_eq!(o.events()[0].at, SimTime(7), "oldest retained is #7");

        o.set_capacity(1);
        assert_eq!(o.events().len(), 1);
        assert_eq!(o.evicted(), 9);
        assert_eq!(o.events()[0].at, SimTime(9));
    }

    #[test]
    fn state_transitions_dedup_and_measure_latency() {
        let mut o = Obs::new();
        o.note_txn_started(1, SimTime(1_000));
        o.note_state(SimTime(1_000), ALICE, 1, TxnState::Pending);
        o.note_state(SimTime(2_000), ALICE, 1, TxnState::Pending); // no change
        o.note_state(SimTime(51_000), ALICE, 1, TxnState::Completed);
        o.note_state(SimTime(60_000), ALICE, 1, TxnState::Completed); // no change

        assert_eq!(o.metrics.state_transitions, 2);
        let kinds: Vec<_> = o
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StateTransition { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            kinds,
            vec![(None, TxnState::Pending), (Some(TxnState::Pending), TxnState::Completed),]
        );
        assert_eq!(o.metrics.latency_us.count(), 1);
        assert_eq!(o.metrics.latency_us.max(), Some(50_000));
        // Re-entering a terminal state never records a second latency.
        o.note_state(SimTime(70_000), ALICE, 1, TxnState::Failed);
        assert_eq!(o.metrics.latency_us.count(), 1);
    }

    #[test]
    fn retire_txn_forgets_the_txn_but_keeps_the_totals() {
        let mut o = Obs::new();
        o.note_txn_started(1, SimTime(1_000));
        o.record(ev(2_000, Some(1), delivered(ALICE)));
        o.record(ev(3_000, Some(2), delivered(ALICE)));
        o.note_state(SimTime(4_000), ALICE, 1, TxnState::Completed);
        let totals = o.metrics.clone();
        assert_eq!(totals.latency_us.count(), 1);

        o.retire_txn(1);
        assert_eq!(o.txn(1), TxnObs::default());
        assert_eq!(o.txns(), vec![2]);
        assert_eq!(o.metrics, totals);
        // The start time went too: a late terminal state is a transition,
        // but it has nothing to measure a latency from.
        o.note_state(SimTime(9_000), ALICE, 1, TxnState::Failed);
        assert_eq!(o.metrics.latency_us, totals.latency_us);
        assert_eq!(o.metrics.delivered, totals.delivered);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        for v in [0, 1, 2, 3, 100, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1_000_000));
        assert!((h.mean() - (1_000_106.0 / 6.0)).abs() < 1e-9);
        assert_eq!(h.quantile(0.0), Some(0), "values below 32 bucket exactly");
        assert_eq!(h.quantile(1.0), Some(1_000_000), "clamped to exact max");
        assert_eq!(h.quantile(0.5), Some(2), "median is exact in the low region");
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_log_linear_resolution() {
        // Above the exact region quantiles resolve to the 16-sub-bucket
        // grid: relative error stays under 1/16 ≈ 6.25%, where the old
        // log2 buckets could be off by nearly 2×.
        for v in [40u64, 1_000, 50_000, 123_456, 7_000_000] {
            let mut h = Histogram::default();
            h.record(v);
            let q = h.quantile(0.5).expect("non-empty");
            assert!(q >= v, "bucket upper bound is an upper bound: {q} < {v}");
            assert!(
                (q - v) as f64 <= v as f64 / 16.0 + 1.0,
                "resolution worse than a sub-bucket: v={v} q={q}"
            );
        }
        // Distinct latencies land in distinct buckets (the degenerate E10
        // exhibit regression: p50 must be able to differ from p99).
        let mut h = Histogram::default();
        for v in [25_000u64, 25_000, 25_000, 45_000] {
            h.record(v);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert!(p50 < p99, "p50 {p50} must separate from p99 {p99}");
    }

    #[test]
    fn histogram_merge_combines_lanes_exactly() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let mut whole = Histogram::default();
        for v in [1u64, 5, 9] {
            a.record(v);
            whole.record(v);
        }
        for v in [0u64, 1_000_000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge equals recording everything in one histogram");
        a.merge(&Histogram::default());
        assert_eq!(a, whole, "merging an empty histogram is the identity");
    }

    #[test]
    fn actor_stats_track_messages_and_ticks() {
        let mut s = ActorStats::default();
        s.note_message(&Ok(Vec::new()));
        s.note_message(&Err(ValidationError::HashMismatch));
        s.note_tick(&[]);
        assert_eq!(s, ActorStats { accepted: 1, rejected: 1, ..Default::default() });
    }

    #[test]
    fn an_event_fits_in_48_bytes_and_a_txn_entry_in_32() {
        // The ring keeps tens of thousands of events, about four per
        // settled upload, and every settled transaction keeps its entry; a
        // variant or field that grows past these grows them all.
        assert!(std::mem::size_of::<Event>() <= 48, "{} B", std::mem::size_of::<Event>());
        assert!(std::mem::size_of::<TxnEntry>() <= 32, "{} B", std::mem::size_of::<TxnEntry>());
    }

    #[test]
    fn tallies_saturate_and_widen_to_u64() {
        let mut o = Obs::with_capacity(1);
        o.txns.entry(7).or_default().tallies[ACCEPTED] = u32::MAX - 1;
        for _ in 0..3 {
            o.record(ev(1, Some(7), delivered(ALICE)));
        }
        assert_eq!(o.txn(7).accepted, u64::from(u32::MAX));
        assert_eq!(o.metrics.delivered, 3, "the global counter stays exact");
    }

    #[test]
    fn a_txn_seen_only_by_state_or_start_has_no_tallies() {
        let mut o = Obs::new();
        o.note_txn_started(3, SimTime(5));
        o.note_state(SimTime(6), ALICE, 4, TxnState::Pending);
        assert_eq!(o.txns(), Vec::<u64>::new());
        assert_eq!(o.txn(3), TxnObs::default());
        // The first start wins.
        o.note_txn_started(3, SimTime(9));
        o.note_state(SimTime(15), ALICE, 3, TxnState::Completed);
        assert_eq!(o.metrics.latency_us.max(), Some(10));
    }
}
