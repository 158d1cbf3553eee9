//! Deterministic discrete-event network simulator, and the wire types
//! every backend shares.
//!
//! Models the "Internet" of the paper's Figure 1: named nodes exchange
//! opaque payloads over links with configurable latency, jitter, loss,
//! duplication and reordering. An optional [`Interceptor`] sits on the wire
//! and can drop, modify, delay, or inject traffic — that is the §5
//! adversary (MITM, replay, reflection, …).
//!
//! [`SimNet`] is the wire core ([`Net`]) over a [`SimLink`]: the core owns
//! nodes, outages, the adversary and the accounting, the link owns the
//! seeded link model and the delivery queue. It is single-threaded and
//! fully deterministic: all randomness comes from a seeded [`ChaChaRng`]
//! and all time from the link's virtual clock, so any attack trace replays
//! byte-for-byte. A delivered envelope is handed to the caller and nothing
//! else keeps it: [`SimNet::step`], [`SimNet::run_until_quiet`] and
//! [`Transport::poll_deliverable`] return what they deliver.

use crate::bytes::Bytes;
use crate::time::{SimDuration, SimTime};
use crate::transport::{Ledger, Link, Net, Transport};
use std::collections::BTreeMap;
use tpnr_crypto::ChaChaRng;

/// Identifies a registered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// One message copy: on the wire, or handed to the runner on delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Opaque payload. A shared immutable view: queueing and duplication
    /// clone the handle (refcount bump), never the bytes — the allocation
    /// the sender handed in is the one every receiver reads.
    pub payload: Bytes,
    /// When the message was delivered (while in flight: when it is due).
    pub delivered_at: SimTime,
    /// Transaction the sender attributed this message to (metadata beside
    /// the payload, never inside it). Duplicates keep the tag; payloads the
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
/// on the wire where no actor can observe them, so the wire core records
/// them as events for the runner to drain into its observability sink
/// (see [`Transport::take_events`]).
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
    /// When it happened: send time for adversary and link drops and for
    /// duplications, arrival time for a copy dropped at a down node.
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

/// Aggregate traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages handed to `send`.
    pub sent: u64,
    /// Messages delivered to their destination.
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
    /// Frames the wire received naming a node it never registered:
    /// traffic no node of this transport sent (a hostile peer on the
    /// loopback port). Discarded on arrival and kept out of the
    /// conservation law — counted neither sent, delivered nor dropped.
    pub foreign: u64,
}

/// Traffic counters for one transaction (see [`Transport::send_tagged`]).
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
    /// Deliveries to the destination (duplicates count per copy).
    pub delivered: u64,
    /// Copies dropped by loss or the adversary.
    pub dropped: u64,
    /// Extra copies the link created for this transaction's messages.
    pub duplicated: u64,
    /// Time of the most recent delivery for this transaction.
    pub last_delivered_at: SimTime,
}

/// The simulator behind the wire core. See the module docs.
pub type SimNet = Net<SimLink>;

/// The simulated link model: a virtual clock, a seeded RNG, per-pair
/// [`LinkConfig`]s and the delivery queue.
pub struct SimLink {
    now: SimTime,
    rng: ChaChaRng,
    links: BTreeMap<(NodeId, NodeId), LinkConfig>,
    default_link: LinkConfig,
    /// Copies in flight by due time; `seq` breaks ties in send order.
    queue: BTreeMap<(SimTime, u64), Envelope>,
    seq: u64,
}

impl SimLink {
    fn roll(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p)
    }

    fn jitter(&mut self, cfg: LinkConfig) -> SimDuration {
        match cfg.jitter.micros() {
            0 => SimDuration::ZERO,
            j => SimDuration::from_micros(self.rng.gen_below(j + 1)),
        }
    }

    fn push(&mut self, env: Envelope) {
        self.seq += 1;
        self.queue.insert((env.delivered_at, self.seq), env);
    }

    fn due(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Takes the next copy due by `until`, moving the clock to its arrival.
    fn pop(&mut self, until: SimTime) -> Option<Envelope> {
        let env = self.queue.first_entry().filter(|e| e.key().0 <= until)?.remove();
        self.now = env.delivered_at;
        Some(env)
    }
}

impl Link for SimLink {
    fn now(&self) -> SimTime {
        self.now
    }

    /// Panics if a delivery is scheduled before `t`: stepping over it would
    /// reorder the simulation.
    fn advance_clock_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(at) = self.due() {
            assert!(at >= t, "advance_clock_to would skip a scheduled delivery");
        }
        self.now = t;
    }

    /// Rolls, in this order: loss, jitter, duplication, then the
    /// duplicate's own loss and jitter.
    fn transmit(&mut self, ledger: &mut Ledger, mut env: Envelope, extra: SimDuration) {
        let cfg = self.links.get(&(env.src, env.dst)).copied().unwrap_or(self.default_link);
        if self.roll(cfg.drop_prob) {
            return ledger.lost(self.now, &env);
        }
        env.delivered_at = self.now.after(cfg.latency).after(self.jitter(cfg)).after(extra);
        // Cloning an envelope clones the payload *handle* only.
        self.push(env.clone());
        if self.roll(cfg.dup_prob) {
            // The copy traverses the link again behind the original, so it
            // re-rolls loss and jitter independently: a duplicating link
            // must never be *more* reliable than a loss-free one.
            ledger.duplicated(self.now, &env);
            if self.roll(cfg.drop_prob) {
                ledger.lost(self.now, &env);
            } else {
                env.delivered_at = env.delivered_at.after(cfg.latency).after(self.jitter(cfg));
                self.push(env);
            }
        }
    }

    fn arrivals(&mut self, _: &mut Ledger, now: SimTime) -> Vec<Envelope> {
        std::iter::from_fn(|| self.pop(now)).collect()
    }

    fn next_due(&mut self, _: &mut Ledger) -> Option<SimTime> {
        self.due()
    }
}

impl SimNet {
    /// Creates an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Net::with_link(SimLink {
            now: SimTime::ZERO,
            rng: ChaChaRng::seed_from_u64(seed),
            links: BTreeMap::new(),
            default_link: LinkConfig::default(),
            queue: BTreeMap::new(),
            seq: 0,
        })
    }

    /// Sets the link configuration for the directed pair `(src, dst)`.
    pub fn set_link(&mut self, src: NodeId, dst: NodeId, cfg: LinkConfig) {
        self.link.links.insert((src, dst), cfg);
    }

    /// Sets the link configuration for both directions.
    pub fn set_link_bidi(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) {
        self.set_link(a, b, cfg);
        self.set_link(b, a, cfg);
    }

    /// Sets the fallback link used for pairs without an explicit config.
    pub fn set_default_link(&mut self, cfg: LinkConfig) {
        self.link.default_link = cfg;
    }

    /// Delivers the next scheduled message (advancing the clock to its
    /// delivery time). Returns the delivered envelope, or `None` if the
    /// network is quiet *or* the copy was dropped at delivery (down
    /// destination) — check [`Transport::in_flight`] to distinguish.
    pub fn step(&mut self) -> Option<Envelope> {
        self.link.pop(SimTime(u64::MAX)).filter(|env| self.admit(env))
    }

    /// Runs until no messages remain in flight; returns what was
    /// delivered, in delivery order.
    pub fn run_until_quiet(&mut self) -> Vec<Envelope> {
        self.poll_deliverable(SimTime(u64::MAX))
    }

    /// Advances the clock by `d`, delivering (and returning) everything
    /// due in the window.
    pub fn advance(&mut self, d: SimDuration) -> Vec<Envelope> {
        let t = self.now().after(d);
        let delivered = self.poll_deliverable(t);
        self.advance_clock_to(t);
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::drain;

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
        assert_eq!(net.stats().delivered, 0, "nothing before stepping");
        let env = net.step().unwrap();
        assert_eq!(env.payload, b"hello");
        assert_eq!(net.now().micros(), 50_000);
        assert_eq!(env.src, a);
        assert_eq!(env.delivered_at.micros(), 50_000);
    }

    #[test]
    fn fifo_order_on_equal_latency() {
        let (mut net, a, b) = two_nodes(2);
        for i in 0..10u8 {
            net.send(a, b, vec![i]);
        }
        let got = net.run_until_quiet();
        for i in 0..10u8 {
            assert_eq!(got[i as usize].payload, vec![i]);
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
            net.run_until_quiet().iter().map(|e| e.payload[0]).collect::<Vec<_>>()
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
        assert_eq!(net.run_until_quiet().len(), 2);
        assert_eq!(net.stats().duplicated, 1);
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
            let mut n2 = SimNet::new(net.link.rng.next_u64());
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
    fn advance_only_delivers_due_messages() {
        let (mut net, a, b) = two_nodes(7);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(100)));
        net.send(a, b, b"x".to_vec());
        assert!(net.advance(SimDuration::from_millis(50)).is_empty());
        assert_eq!(net.now().micros(), 50_000);
        assert_eq!(net.advance(SimDuration::from_millis(60)).len(), 1);
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
        assert_eq!(net.stats().sent, 2);
        assert_eq!(net.stats().delivered, 2);
        assert_eq!(net.stats().bytes_sent, 150);
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
        assert_eq!(net.stats().sent, 4);
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
        let s = net.stats();
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
        assert_eq!(net.events_lost(), 10);
        assert_eq!(net.stats().dropped, n, "counters stay exact past the cap");
    }

    #[test]
    fn duplicated_large_payload_shares_one_allocation() {
        // Zero-copy acceptance: a 1 MiB payload duplicated by the link
        // is delivered twice with no payload allocation beyond the
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
        let mut got = net.run_until_quiet();
        assert_eq!(got.len(), 2, "original + duplicate");
        let (second, first) = (got.pop().unwrap(), got.pop().unwrap());
        assert!(first.payload.same_allocation(&payload));
        assert!(second.payload.same_allocation(&payload));
        assert_eq!(first.payload, second.payload);
        // Handles: ours + the two delivered envelopes. Nothing else
        // holds the buffer once the queue drained.
        assert_eq!(payload.strong_count(), 3);
        drop(first);
        drop(second);
        assert_eq!(payload.strong_count(), 1, "no hidden retained copies");
        // Byte tallies match the pre-change semantics: bytes are counted
        // once at send, duplicates are counted as deliveries, and the
        // conservation law holds.
        let s = net.stats();
        assert_eq!(s.bytes_sent, 1 << 20);
        assert_eq!(s.sent, 1);
        assert_eq!(s.delivered, 2);
        assert_eq!(s.duplicated, 1);
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        let t = net.txn_stats(3);
        assert_eq!((t.sent, t.bytes_sent, t.delivered, t.duplicated), (1, 1 << 20, 2, 1));
    }

    #[test]
    fn forwarding_a_payload_performs_no_deep_copies() {
        // The per-hop copy counter: with `Bytes` payloads, moving a message
        // src → dst (queue, duplicate, delivery) never copies payload
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
        net.send(a, b, payload.clone());
        let got = net.run_until_quiet();
        // Every observable copy of the payload shares the allocation; a
        // deep copy anywhere in the path would break ptr equality.
        assert!(got[0].payload.same_allocation(&payload));
        assert!(got[1].payload.same_allocation(&payload));
    }

    #[test]
    fn delivered_payloads_are_not_retained() {
        // The runner's delivery path: once it drops what `poll_deliverable`
        // handed over, the network holds no copy of the payload.
        let (mut net, a, b) = two_nodes(44);
        let payload = Bytes::from(vec![9u8; 4096]);
        net.send_tagged(a, b, payload.clone(), Some(1));
        net.send(b, a, payload.clone());
        let got = drain(&mut net);
        assert_eq!(got.len(), 2);
        assert_eq!(payload.strong_count(), 3, "ours + the two delivered envelopes");
        drop(got);
        assert_eq!(payload.strong_count(), 1, "the network kept a copy");
    }

    #[test]
    fn advance_clock_only_never_delivers() {
        let (mut net, a, b) = two_nodes(12);
        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        net.send(a, b, vec![0]);
        net.advance_clock_to(SimTime(9_000));
        assert_eq!(net.now().micros(), 9_000);
        assert_eq!(net.stats().delivered, 0);
        net.advance_clock_to(SimTime(1_000)); // past: no-op
        assert_eq!(net.now().micros(), 9_000);
        // Advancing exactly to the delivery time is allowed (timers fire
        // before same-instant deliveries); beyond it would panic.
        net.advance_clock_to(SimTime(10_000));
        assert_eq!(net.stats().delivered, 0);
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
