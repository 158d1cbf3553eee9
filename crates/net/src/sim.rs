//! Deterministic discrete-event network simulator.
//!
//! Models the "Internet" of the paper's Figure 1: named nodes exchange
//! opaque payloads over links with configurable latency, jitter, loss,
//! duplication and reordering. An optional [`Interceptor`] sits on the wire
//! and can drop, modify, delay, or inject traffic — that is the §5
//! adversary (MITM, replay, reflection, …).
//!
//! The simulator is single-threaded and fully deterministic: all randomness
//! comes from a seeded [`ChaChaRng`] and all time from a shared
//! [`SimClock`], so any attack trace replays byte-for-byte.

use crate::bytes::Bytes;
use crate::time::{SimClock, SimDuration, SimTime};
use crate::transport::Transport;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use tpnr_crypto::ChaChaRng;

/// Identifies a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// A message sitting in a node's inbox.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Opaque payload. A shared immutable view: queueing, duplication and
    /// inbox delivery all clone the handle (refcount bump), never the
    /// bytes — the allocation the sender handed in is the one every
    /// receiver reads.
    pub payload: Bytes,
    /// When the message reached the inbox.
    pub delivered_at: SimTime,
    /// Transaction the sender attributed this message to (simulator
    /// metadata, not on the wire). Duplicates keep the tag; payloads the
    /// adversary modifies keep the original sender's tag; adversary
    /// injections are untagged.
    pub txn: Option<u64>,
}

/// Per-link behaviour.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Base one-way latency.
    pub latency: SimDuration,
    /// Uniform jitter added on top of `latency` (0..=jitter).
    pub jitter: SimDuration,
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is duplicated.
    pub dup_prob: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency: SimDuration::from_millis(25),
            jitter: SimDuration::ZERO,
            drop_prob: 0.0,
            dup_prob: 0.0,
        }
    }
}

impl LinkConfig {
    /// An ideal loss-free, jitter-free link with the given one-way latency.
    pub fn ideal(latency: SimDuration) -> Self {
        LinkConfig { latency, ..Default::default() }
    }

    /// A lossy link.
    pub fn lossy(latency: SimDuration, drop_prob: f64) -> Self {
        LinkConfig { latency, drop_prob, ..Default::default() }
    }
}

/// What the network did to a message copy. Drops and duplications happen
/// inside the simulator where no actor can observe them, so the simulator
/// records them as events for the runner to drain into its observability
/// sink (see [`SimNet::take_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetEventKind {
    /// A copy was lost (link loss or adversary drop).
    Dropped,
    /// The link created an extra copy of a message.
    Duplicated,
}

/// One recorded network happening, ready to be drained by the runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetEvent {
    /// When it happened (send time for drops/duplications).
    pub at: SimTime,
    /// Sending node of the affected message.
    pub src: NodeId,
    /// Intended receiver of the affected message.
    pub dst: NodeId,
    /// Transaction tag of the affected message, if any.
    pub txn: Option<u64>,
    /// What happened.
    pub kind: NetEventKind,
}

/// What the wire adversary decides to do with an in-flight message.
#[derive(Debug, Clone)]
pub enum Action {
    /// Deliver unchanged.
    Deliver,
    /// Silently drop.
    Drop,
    /// Deliver a modified payload instead.
    Modify(Vec<u8>),
    /// Deliver unchanged and also inject extra messages (src, dst, payload)
    /// scheduled with the same link rules.
    InjectAfter(Vec<(NodeId, NodeId, Vec<u8>)>),
    /// Hold the message back by the given extra delay.
    Delay(SimDuration),
}

/// Wire-level adversary hook. Sees every message at send time.
///
/// `Send` so a whole `SimNet` (and the worlds built on it) can be moved
/// across the scoped-thread boundary `tpnr-par` uses to drive sharded
/// lanes concurrently; interceptors capturing shared tape use
/// `Arc<Mutex<…>>` rather than `Rc<RefCell<…>>`.
pub trait Interceptor: Send {
    /// Chooses the fate of an in-flight message.
    fn intercept(&mut self, src: NodeId, dst: NodeId, payload: &[u8], now: SimTime) -> Action;
}

/// Blanket impl so plain closures can serve as interceptors.
impl<F> Interceptor for F
where
    F: FnMut(NodeId, NodeId, &[u8], SimTime) -> Action + Send,
{
    fn intercept(&mut self, src: NodeId, dst: NodeId, payload: &[u8], now: SimTime) -> Action {
        self(src, dst, payload, now)
    }
}

#[derive(Debug)]
struct ScheduledDelivery {
    at: SimTime,
    /// Tie-breaker preserving send order for equal timestamps.
    seq: u64,
    env: Envelope,
}

impl PartialEq for ScheduledDelivery {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for ScheduledDelivery {}
impl PartialOrd for ScheduledDelivery {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ScheduledDelivery {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// The simulated network.
pub struct SimNet {
    clock: SimClock,
    rng: ChaChaRng,
    nodes: Vec<String>,
    /// Nodes currently down (fault outage windows): copies addressed to a
    /// down node are dropped at delivery time and counted.
    down: Vec<bool>,
    inboxes: Vec<VecDeque<Envelope>>,
    links: HashMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    queue: BinaryHeap<Reverse<ScheduledDelivery>>,
    seq: u64,
    interceptor: Option<Box<dyn Interceptor>>,
    /// Counters for experiment reports.
    pub stats: NetStats,
    txn_stats: HashMap<u64, TxnNetStats>,
    /// Pending drop/duplication events awaiting [`SimNet::take_events`].
    events: Vec<NetEvent>,
    /// Events discarded because the pending buffer hit its cap (a runner
    /// that never drains must not leak memory; counters above stay exact).
    pub events_lost: u64,
}

/// Aggregate traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to `send`.
    pub sent: u64,
    /// Messages that reached an inbox.
    pub delivered: u64,
    /// Messages dropped by loss or the adversary.
    pub dropped: u64,
    /// Duplicates created by the link.
    pub duplicated: u64,
    /// Messages the adversary modified.
    pub modified: u64,
    /// Messages the adversary injected.
    pub injected: u64,
    /// Total payload bytes handed to `send`.
    pub bytes_sent: u64,
    /// Frames a real wire received naming a node it never registered:
    /// traffic no node of this transport sent (a hostile peer on the
    /// loopback port). Discarded on arrival and kept out of the
    /// conservation law — counted neither sent, delivered nor dropped.
    pub foreign: u64,
}

/// Traffic counters for one transaction (see [`SimNet::send_tagged`]).
///
/// These are exact per-transaction attributions: every tagged send is
/// counted against its own transaction, so interleaved sessions never bleed
/// into each other the way before/after deltas of the global [`NetStats`]
/// do. Untagged traffic (adversary injections, raw `send`) appears only in
/// the global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnNetStats {
    /// Messages handed to `send_tagged` for this transaction.
    pub sent: u64,
    /// Payload bytes handed to `send_tagged` for this transaction.
    pub bytes_sent: u64,
    /// Deliveries that reached an inbox (duplicates count per copy).
    pub delivered: u64,
    /// Copies dropped by loss or the adversary.
    pub dropped: u64,
    /// Extra copies the link created for this transaction's messages.
    pub duplicated: u64,
    /// Time of the most recent delivery for this transaction.
    pub last_delivered_at: SimTime,
}

impl SimNet {
    /// Creates an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        SimNet {
            clock: SimClock::new(),
            rng: ChaChaRng::seed_from_u64(seed),
            nodes: Vec::new(),
            down: Vec::new(),
            inboxes: Vec::new(),
            links: HashMap::new(),
            default_link: LinkConfig::default(),
            queue: BinaryHeap::new(),
            seq: 0,
            interceptor: None,
            stats: NetStats::default(),
            txn_stats: HashMap::new(),
            events: Vec::new(),
            events_lost: 0,
        }
    }

    /// Cap on pending undrained events; beyond this, events are counted in
    /// [`SimNet::events_lost`] and discarded.
    const EVENT_BUFFER_CAP: usize = 1 << 16;

    /// The shared simulation clock (hand it to protocol actors).
    pub fn clock(&self) -> SimClock {
        self.clock.clone()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        use crate::time::Clock as _;
        self.clock.now()
    }

    /// Registers a named node and returns its id.
    pub fn register(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(name.to_string());
        self.down.push(false);
        self.inboxes.push(VecDeque::new());
        id
    }

    /// Marks a node down (or back up). Copies addressed to a down node are
    /// dropped *at delivery time* — a message sent during an outage still
    /// arrives if the node restarts before the link latency elapses, just
    /// as on a real wire.
    pub fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.down[node.0 as usize] = down;
    }

    /// The display name of a node.
    pub fn name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize]
    }

    /// Sets the link configuration for the directed pair `(src, dst)`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.links.insert((src, dst), cfg);
    }

    /// Sets the link configuration for both directions.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link(a, b, cfg);
        self.set_link(b, a, cfg);
    }

    /// Sets the fallback link used for pairs without an explicit config.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.default_link = cfg;
    }

    /// Installs (or replaces) the wire adversary.
    pub fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.interceptor = Some(i);
    }

    /// Removes the wire adversary.
    pub fn clear_interceptor(&mut self) {
        self.interceptor = None;
    }

    fn link_for(&self, src: NodeId, dst: NodeId) -> LinkConfig {
        self.links.get(&(src, dst)).copied().unwrap_or(self.default_link)
    }

    /// Sends a payload; delivery is scheduled according to the link and the
    /// adversary's decision. Accepts anything convertible to [`Bytes`];
    /// passing a `Vec<u8>` moves the buffer without copying.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: impl Into<Bytes>) {
        self.send_tagged(src, dst, payload, None);
    }

    /// Like [`SimNet::send`], but attributes the message to a transaction so
    /// per-session traffic can be reported exactly (see
    /// [`SimNet::txn_stats`]).
    pub fn send_tagged(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: impl Into<Bytes>,
        txn: Option<u64>,
    ) {
        let payload = payload.into();
        assert!((dst.0 as usize) < self.nodes.len(), "unknown destination");
        self.stats.sent += 1;
        self.stats.bytes_sent += payload.len() as u64;
        if let Some(t) = txn {
            let ts = self.txn_stats.entry(t).or_default();
            ts.sent += 1;
            ts.bytes_sent += payload.len() as u64;
        }
        let now = self.now();

        let action = match self.interceptor.as_mut() {
            Some(i) => i.intercept(src, dst, &payload, now),
            None => Action::Deliver,
        };
        let mut extra_delay = SimDuration::ZERO;
        let mut payload = payload;
        let mut injections: Vec<(NodeId, NodeId, Vec<u8>)> = Vec::new();
        match action {
            Action::Deliver => {}
            Action::Drop => {
                self.drop_copy(src, dst, txn);
                return;
            }
            Action::Modify(p) => {
                // The adversary supplies a fresh buffer (`Action` carries
                // `Vec<u8>` by design): shared payload bytes are never
                // mutated in place, so other holders of the original
                // allocation are unaffected.
                self.stats.modified += 1;
                payload = Bytes::from(p);
            }
            Action::InjectAfter(msgs) => {
                self.stats.injected += msgs.len() as u64;
                injections = msgs;
            }
            Action::Delay(d) => extra_delay = d,
        }

        self.schedule(src, dst, payload, extra_delay, txn);
        for (isrc, idst, ipayload) in injections {
            self.schedule(isrc, idst, Bytes::from(ipayload), SimDuration::ZERO, None);
        }
    }

    /// Accounts one lost copy (counters + observable event).
    fn drop_copy(&mut self, src: NodeId, dst: NodeId, txn: Option<u64>) {
        self.stats.dropped += 1;
        if let Some(t) = txn {
            self.txn_stats.entry(t).or_default().dropped += 1;
        }
        self.push_event(NetEventKind::Dropped, src, dst, txn);
    }

    fn push_event(&mut self, kind: NetEventKind, src: NodeId, dst: NodeId, txn: Option<u64>) {
        if self.events.len() >= Self::EVENT_BUFFER_CAP {
            self.events_lost += 1;
            return;
        }
        let at = self.now();
        self.events.push(NetEvent { at, src, dst, txn, kind });
    }

    /// Drains the pending drop/duplication events. The scheduler calls this
    /// every settle step and feeds the result to the shared observability
    /// sink; counters in [`NetStats`]/[`TxnNetStats`] are independent of
    /// whether anyone drains.
    pub fn take_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.events)
    }

    fn roll_jitter(&mut self, cfg: &LinkConfig) -> SimDuration {
        if cfg.jitter.micros() > 0 {
            SimDuration::from_micros(self.rng.gen_below(cfg.jitter.micros() + 1))
        } else {
            SimDuration::ZERO
        }
    }

    fn schedule(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: Bytes,
        extra: SimDuration,
        txn: Option<u64>,
    ) {
        let cfg = self.link_for(src, dst);
        if cfg.drop_prob > 0.0 && self.rng.gen_bool(cfg.drop_prob) {
            self.drop_copy(src, dst, txn);
            return;
        }
        let jitter = self.roll_jitter(&cfg);
        let at = self.now().after(cfg.latency).after(jitter).after(extra);
        let env = Envelope { src, dst, payload, delivered_at: at, txn };
        self.seq += 1;
        // Cloning an envelope clones the payload *handle* only — the queued
        // copy, any duplicate, and the inbox all share one allocation.
        self.queue.push(Reverse(ScheduledDelivery { at, seq: self.seq, env: env.clone() }));
        if cfg.dup_prob > 0.0 && self.rng.gen_bool(cfg.dup_prob) {
            // The copy traverses the link again behind the original, so it
            // re-rolls loss and jitter independently: a duplicating link
            // must never be *more* reliable than a loss-free one.
            self.stats.duplicated += 1;
            if let Some(t) = txn {
                self.txn_stats.entry(t).or_default().duplicated += 1;
            }
            self.push_event(NetEventKind::Duplicated, src, dst, txn);
            if cfg.drop_prob > 0.0 && self.rng.gen_bool(cfg.drop_prob) {
                self.drop_copy(src, dst, txn);
            } else {
                let jitter2 = self.roll_jitter(&cfg);
                let at2 = at.after(cfg.latency).after(jitter2);
                self.seq += 1;
                self.queue.push(Reverse(ScheduledDelivery { at: at2, seq: self.seq, env }));
            }
        }
    }

    /// Delivers the next scheduled message (advancing the clock to its
    /// delivery time). Returns the delivered envelope, or `None` if the
    /// network is quiet *or* the copy was dropped at delivery (down
    /// destination) — check [`SimNet::in_flight`] to distinguish.
    pub fn step(&mut self) -> Option<Envelope> {
        let Reverse(mut d) = self.queue.pop()?;
        self.clock.set(d.at);
        if self.down[d.env.dst.0 as usize] {
            self.drop_copy(d.env.src, d.env.dst, d.env.txn);
            return None;
        }
        d.env.delivered_at = d.at;
        self.inboxes[d.env.dst.0 as usize].push_back(d.env.clone());
        self.stats.delivered += 1;
        if let Some(t) = d.env.txn {
            let ts = self.txn_stats.entry(t).or_default();
            ts.delivered += 1;
            ts.last_delivered_at = d.at;
        }
        Some(d.env)
    }

    /// Runs until no messages remain in flight. Returns how many were
    /// delivered.
    pub fn run_until_quiet(&mut self) -> usize {
        let mut n = 0;
        while self.in_flight() {
            if self.step().is_some() {
                n += 1;
            }
        }
        n
    }

    /// Delivers everything scheduled up to and including `t`, then advances
    /// the clock to `t`.
    pub fn advance_to(&mut self, t: SimTime) {
        while let Some(Reverse(d)) = self.queue.peek() {
            if d.at > t {
                break;
            }
            self.step();
        }
        if self.now() < t {
            self.clock.set(t);
        }
    }

    /// Advances by a duration (delivering everything due in the window).
    pub fn advance(&mut self, d: SimDuration) {
        let t = self.now().after(d);
        self.advance_to(t);
    }

    /// Pops the oldest message from a node's inbox.
    pub fn recv(&mut self, node: NodeId) -> Option<Envelope> {
        self.inboxes[node.0 as usize].pop_front()
    }

    /// How many messages are waiting in a node's inbox.
    pub fn inbox_len(&self, node: NodeId) -> usize {
        self.inboxes[node.0 as usize].len()
    }

    /// True if messages are still in flight.
    pub fn in_flight(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Delivery time of the next scheduled message, if any (lets callers
    /// interleave protocol timers with in-flight traffic).
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(d)| d.at)
    }

    /// Traffic counters for one tagged transaction (zeroes if it never sent
    /// anything).
    pub fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.txn_stats.get(&txn).copied().unwrap_or_default()
    }

    /// Transactions that have tagged traffic on record.
    pub fn tagged_txns(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.txn_stats.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Drops one transaction's traffic counters, returning the final
    /// values for the caller's archive index. Global [`NetStats`] — and
    /// with them the conservation law — are unaffected. Late tagged
    /// traffic for the transaction would simply open a fresh entry.
    pub fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.txn_stats.remove(&txn).unwrap_or_default()
    }

    /// Advances the clock to `t` *without* delivering anything, for firing
    /// a protocol timer due strictly before the next delivery. Panics if a
    /// delivery is scheduled before `t` (stepping over it would reorder the
    /// simulation); a `t` in the past is a no-op (the clock is monotone).
    pub fn advance_clock_to(&mut self, t: SimTime) {
        if t <= self.now() {
            return;
        }
        if let Some(at) = self.next_event_at() {
            assert!(at >= t, "advance_clock_to would skip a scheduled delivery");
        }
        self.clock.set(t);
    }
}

/// The simulator behind the transport seam. Delegates to the inherent
/// methods, so driving a `SimNet` through `&mut dyn Transport` is
/// behaviorally identical to driving it directly (the backend-parity
/// proptest in `tpnr-core` pins this down).
impl Transport for SimNet {
    fn now(&self) -> SimTime {
        SimNet::now(self)
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        SimNet::advance_clock_to(self, t);
    }

    fn register(&mut self, name: &str) -> NodeId {
        SimNet::register(self, name)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.nodes.get(node.0 as usize).map(String::as_str)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        SimNet::send_tagged(self, src, dst, payload, txn);
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        let mut out = Vec::new();
        while self.next_event_at().is_some_and(|at| at <= now) {
            if let Some(env) = self.step() {
                out.push(env);
            }
        }
        out
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        self.next_event_at()
    }

    fn in_flight(&self) -> bool {
        SimNet::in_flight(self)
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        SimNet::take_events(self)
    }

    fn stats(&self) -> NetStats {
        self.stats
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        SimNet::txn_stats(self, txn)
    }

    fn tagged_txns(&self) -> Vec<u64> {
        SimNet::tagged_txns(self)
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        SimNet::retire_txn(self, txn)
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        SimNet::set_interceptor(self, i);
    }

    fn clear_interceptor(&mut self) {
        SimNet::clear_interceptor(self);
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        SimNet::set_node_down(self, node, down);
    }

    fn events_lost(&self) -> u64 {
        self.events_lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes(seed: u64) -> (SimNet, NodeId, NodeId) {
        let mut net = SimNet::new(seed);
        let a = net.register("alice");
        let b = net.register("bob");
        (net, a, b)
    }

    #[test]
    fn basic_delivery_with_latency() {
        let (mut net, a, b) = two_nodes(1);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(50)));
        net.send(a, b, b"hello".to_vec());
        assert!(net.recv(b).is_none(), "nothing before stepping");
        let env = net.step().unwrap();
        assert_eq!(env.payload, b"hello");
        assert_eq!(net.now().micros(), 50_000);
        let got = net.recv(b).unwrap();
        assert_eq!(got.src, a);
        assert_eq!(got.delivered_at.micros(), 50_000);
    }

    #[test]
    fn fifo_order_on_equal_latency() {
        let (mut net, a, b) = two_nodes(2);
        for i in 0..10u8 {
            net.send(a, b, vec![i]);
        }
        net.run_until_quiet();
        for i in 0..10u8 {
            assert_eq!(net.recv(b).unwrap().payload, vec![i]);
        }
    }

    #[test]
    fn drops_are_deterministic_per_seed() {
        let run = |seed| {
            let (mut net, a, b) = two_nodes(seed);
            net.set_link(a, b, LinkConfig::lossy(SimDuration::from_millis(1), 0.5));
            for i in 0..100u8 {
                net.send(a, b, vec![i]);
            }
            net.run_until_quiet();
            let mut got = Vec::new();
            while let Some(e) = net.recv(b) {
                got.push(e.payload[0]);
            }
            got
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let got = run(7);
        assert!(got.len() > 20 && got.len() < 80, "loss rate wildly off: {}", got.len());
    }

    #[test]
    fn duplication_creates_copies() {
        let (mut net, a, b) = two_nodes(3);
        net.set_link(
            a,
            b,
            LinkConfig { dup_prob: 1.0, ..LinkConfig::ideal(SimDuration::from_millis(1)) },
        );
        net.send(a, b, b"once".to_vec());
        net.run_until_quiet();
        assert_eq!(net.inbox_len(b), 2);
        assert_eq!(net.stats.duplicated, 1);
    }

    #[test]
    fn jitter_varies_latency_within_bounds() {
        let (mut net, a, b) = two_nodes(4);
        net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(10),
                jitter: SimDuration::from_millis(5),
                ..Default::default()
            },
        );
        let mut times = Vec::new();
        for _ in 0..50 {
            let mut n2 = SimNet::new(net.rng.next_u64());
            let a2 = n2.register("a");
            let b2 = n2.register("b");
            n2.set_link(
                a2,
                b2,
                LinkConfig {
                    latency: SimDuration::from_millis(10),
                    jitter: SimDuration::from_millis(5),
                    ..Default::default()
                },
            );
            n2.send(a2, b2, vec![0]);
            let env = n2.step().unwrap();
            times.push(env.delivered_at.micros());
        }
        assert!(times.iter().all(|&t| (10_000..=15_000).contains(&t)));
        assert!(times.iter().any(|&t| t != times[0]), "jitter should vary");
        let _ = (a, b);
    }

    #[test]
    fn interceptor_can_drop_and_modify() {
        let (mut net, a, b) = two_nodes(5);
        net.set_interceptor(Box::new(|_s, _d, payload: &[u8], _t| {
            if payload == b"secret" {
                Action::Modify(b"tampered".to_vec())
            } else if payload == b"kill" {
                Action::Drop
            } else {
                Action::Deliver
            }
        }));
        net.send(a, b, b"secret".to_vec());
        net.send(a, b, b"kill".to_vec());
        net.send(a, b, b"ok".to_vec());
        net.run_until_quiet();
        assert_eq!(net.recv(b).unwrap().payload, b"tampered");
        assert_eq!(net.recv(b).unwrap().payload, b"ok");
        assert!(net.recv(b).is_none());
        assert_eq!(net.stats.modified, 1);
        assert_eq!(net.stats.dropped, 1);
    }

    #[test]
    fn interceptor_can_inject_replays() {
        let (mut net, a, b) = two_nodes(6);
        net.set_interceptor(Box::new(|s, d, payload: &[u8], _t| {
            Action::InjectAfter(vec![(s, d, payload.to_vec())]) // replay every message
        }));
        net.send(a, b, b"msg".to_vec());
        net.run_until_quiet();
        assert_eq!(net.inbox_len(b), 2, "original + replay");
        assert_eq!(net.stats.injected, 1);
    }

    #[test]
    fn advance_only_delivers_due_messages() {
        let (mut net, a, b) = two_nodes(7);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(100)));
        net.send(a, b, b"x".to_vec());
        net.advance(SimDuration::from_millis(50));
        assert_eq!(net.inbox_len(b), 0);
        assert_eq!(net.now().micros(), 50_000);
        net.advance(SimDuration::from_millis(60));
        assert_eq!(net.inbox_len(b), 1);
    }

    #[test]
    fn delay_action_postpones() {
        let (mut net, a, b) = two_nodes(8);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        net.set_interceptor(Box::new(|_s, _d, _p: &[u8], _t| {
            Action::Delay(SimDuration::from_millis(90))
        }));
        net.send(a, b, b"slow".to_vec());
        let env = net.step().unwrap();
        assert_eq!(env.delivered_at.micros(), 100_000);
    }

    #[test]
    fn stats_track_traffic() {
        let (mut net, a, b) = two_nodes(9);
        net.send(a, b, vec![0; 100]);
        net.send(b, a, vec![0; 50]);
        net.run_until_quiet();
        assert_eq!(net.stats.sent, 2);
        assert_eq!(net.stats.delivered, 2);
        assert_eq!(net.stats.bytes_sent, 150);
    }

    #[test]
    #[should_panic(expected = "unknown destination")]
    fn unknown_destination_panics() {
        let mut net = SimNet::new(0);
        let a = net.register("a");
        net.send(a, NodeId(99), Bytes::new());
    }

    #[test]
    fn tagged_sends_attribute_per_transaction() {
        let (mut net, a, b) = two_nodes(10);
        net.send_tagged(a, b, vec![0; 100], Some(1));
        net.send_tagged(b, a, vec![0; 40], Some(1));
        net.send_tagged(a, b, vec![0; 7], Some(2));
        net.send(a, b, vec![0; 3]); // untagged
        net.run_until_quiet();
        let t1 = net.txn_stats(1);
        assert_eq!((t1.sent, t1.bytes_sent, t1.delivered, t1.dropped), (2, 140, 2, 0));
        let t2 = net.txn_stats(2);
        assert_eq!((t2.sent, t2.bytes_sent, t2.delivered), (1, 7, 1));
        assert_eq!(net.txn_stats(99), TxnNetStats::default());
        assert_eq!(net.tagged_txns(), vec![1, 2]);
        // Untagged traffic appears only in the global counters.
        assert_eq!(net.stats.sent, 4);
        assert_eq!(t1.sent + t2.sent, 3);
    }

    #[test]
    fn tagged_drops_and_duplicates_are_attributed() {
        let (mut net, a, b) = two_nodes(11);
        net.set_link(a, b, LinkConfig { drop_prob: 1.0, ..Default::default() });
        net.set_link(
            b,
            a,
            LinkConfig { dup_prob: 1.0, ..LinkConfig::ideal(SimDuration::from_millis(1)) },
        );
        net.send_tagged(a, b, vec![1], Some(7));
        net.send_tagged(b, a, vec![2], Some(7));
        net.run_until_quiet();
        let t = net.txn_stats(7);
        assert_eq!(t.sent, 2);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.duplicated, 1);
        assert_eq!(t.delivered, 2, "the duplicate copy keeps the tag");
        assert_eq!(t.last_delivered_at.micros(), 2_000);
    }

    #[test]
    fn duplicate_copies_reroll_link_loss() {
        // A duplicating lossy link must be able to lose the copy too; the
        // old model scheduled copies unconditionally, making duplicating
        // links *more* reliable than loss-free ones.
        let (mut net, a, b) = two_nodes(14);
        net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::ZERO,
                drop_prob: 0.5,
                dup_prob: 1.0,
            },
        );
        for i in 0..200u8 {
            net.send_tagged(a, b, vec![i], Some(1));
        }
        net.run_until_quiet();
        let s = net.stats;
        // Conservation: every copy (original or duplicate) ends up
        // delivered or dropped, globally and per transaction.
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        let t = net.txn_stats(1);
        assert_eq!(t.delivered + t.dropped, t.sent + t.duplicated);
        assert_eq!(t.duplicated, s.duplicated);
        assert!(s.duplicated > 50, "every undropped original rolls a duplicate");
        assert!(s.delivered < 2 * s.duplicated, "duplicate copies must re-roll link loss");
    }

    #[test]
    fn duplicate_copies_reroll_jitter() {
        let mut gaps = Vec::new();
        for seed in 0..30 {
            let (mut net, a, b) = two_nodes(100 + seed);
            net.set_link(
                a,
                b,
                LinkConfig {
                    latency: SimDuration::from_millis(10),
                    jitter: SimDuration::from_millis(5),
                    drop_prob: 0.0,
                    dup_prob: 1.0,
                },
            );
            net.send(a, b, vec![0]);
            let first = net.step().unwrap().delivered_at;
            let second = net.step().unwrap().delivered_at;
            gaps.push(second.since(first).micros());
        }
        // The copy trails the original by latency plus a *fresh* jitter
        // roll; the old fixed-offset model pinned every gap at exactly
        // `latency`.
        assert!(gaps.iter().all(|&g| (10_000..=15_000).contains(&g)), "gaps: {gaps:?}");
        assert!(gaps.iter().any(|&g| g != 10_000), "copy jitter must be re-rolled: {gaps:?}");
    }

    #[test]
    fn drop_and_duplication_events_are_drained() {
        let (mut net, a, b) = two_nodes(15);
        net.set_link(a, b, LinkConfig { drop_prob: 1.0, ..Default::default() });
        net.set_link(
            b,
            a,
            LinkConfig { dup_prob: 1.0, ..LinkConfig::ideal(SimDuration::from_millis(1)) },
        );
        net.send_tagged(a, b, vec![1], Some(9));
        net.send(b, a, vec![2]);
        net.run_until_quiet();
        let evs = net.take_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(
            evs[0],
            NetEvent {
                at: SimTime::ZERO,
                src: a,
                dst: b,
                txn: Some(9),
                kind: NetEventKind::Dropped
            }
        );
        assert_eq!(evs[1].kind, NetEventKind::Duplicated);
        assert_eq!(evs[1].txn, None, "untagged traffic yields untagged events");
        assert!(net.take_events().is_empty(), "drain empties the buffer");
    }

    #[test]
    fn event_buffer_is_bounded() {
        let (mut net, a, b) = two_nodes(16);
        net.set_link(a, b, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let n = (1u64 << 16) + 10;
        for _ in 0..n {
            net.send(a, b, vec![0]);
        }
        assert_eq!(net.take_events().len(), 1 << 16);
        assert_eq!(net.events_lost, 10);
        assert_eq!(net.stats.dropped, n, "counters stay exact past the cap");
    }

    #[test]
    fn duplicated_large_payload_shares_one_allocation() {
        // Zero-copy acceptance: a 1 MiB payload duplicated by the link
        // reaches the inbox twice with no payload allocation beyond the
        // sender's original buffer, and the byte accounting is identical to
        // the deep-copying implementation's.
        let (mut net, a, b) = two_nodes(42);
        net.set_link(
            a,
            b,
            LinkConfig { dup_prob: 1.0, ..LinkConfig::ideal(SimDuration::from_millis(1)) },
        );
        let payload = Bytes::from(vec![0xabu8; 1 << 20]);
        assert_eq!(payload.strong_count(), 1);
        net.send_tagged(a, b, payload.clone(), Some(3));
        net.run_until_quiet();
        assert_eq!(net.inbox_len(b), 2, "original + duplicate");
        let first = net.recv(b).unwrap();
        let second = net.recv(b).unwrap();
        assert!(first.payload.same_allocation(&payload));
        assert!(second.payload.same_allocation(&payload));
        assert_eq!(first.payload, second.payload);
        // Handles: ours + the two inbox envelopes we popped. Nothing else
        // holds the buffer once the queue drained.
        assert_eq!(payload.strong_count(), 3);
        drop(first);
        drop(second);
        assert_eq!(payload.strong_count(), 1, "no hidden retained copies");
        // Byte tallies match the pre-change semantics: bytes are counted
        // once at send, duplicates are counted as deliveries, and the
        // conservation law holds.
        assert_eq!(net.stats.bytes_sent, 1 << 20);
        assert_eq!(net.stats.sent, 1);
        assert_eq!(net.stats.delivered, 2);
        assert_eq!(net.stats.duplicated, 1);
        assert_eq!(net.stats.delivered + net.stats.dropped, net.stats.sent + net.stats.duplicated);
        let t = net.txn_stats(3);
        assert_eq!((t.sent, t.bytes_sent, t.delivered, t.duplicated), (1, 1 << 20, 2, 1));
    }

    #[test]
    fn forwarding_a_payload_performs_no_deep_copies() {
        // The per-hop copy counter: with `Bytes` payloads, moving a message
        // src → dst (queue, duplicate, inbox, recv) never copies payload
        // bytes. Counter deltas are safe to assert here because this test
        // only *reads* the global counter around its own allocations-free
        // region after constructing the payload.
        let (mut net, a, b) = two_nodes(43);
        net.set_link(
            a,
            b,
            LinkConfig { dup_prob: 1.0, ..LinkConfig::ideal(SimDuration::from_millis(1)) },
        );
        let payload = Bytes::from(vec![7u8; 4096]);
        let env = {
            net.send(a, b, payload.clone());
            net.run_until_quiet();
            net.recv(b).unwrap()
        };
        // Every observable copy of the payload shares the allocation; a
        // deep copy anywhere in the path would break ptr equality.
        assert!(env.payload.same_allocation(&payload));
        assert!(net.recv(b).unwrap().payload.same_allocation(&payload));
    }

    #[test]
    fn advance_clock_only_never_delivers() {
        let (mut net, a, b) = two_nodes(12);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        net.send(a, b, vec![0]);
        net.advance_clock_to(SimTime(9_000));
        assert_eq!(net.now().micros(), 9_000);
        assert_eq!(net.inbox_len(b), 0);
        net.advance_clock_to(SimTime(1_000)); // past: no-op
        assert_eq!(net.now().micros(), 9_000);
        // Advancing exactly to the delivery time is allowed (timers fire
        // before same-instant deliveries); beyond it would panic.
        net.advance_clock_to(SimTime(10_000));
        assert_eq!(net.inbox_len(b), 0);
    }

    #[test]
    #[should_panic(expected = "skip a scheduled delivery")]
    fn advance_clock_past_delivery_panics() {
        let (mut net, a, b) = two_nodes(13);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        net.send(a, b, vec![0]);
        net.advance_clock_to(SimTime(10_001));
    }
}
