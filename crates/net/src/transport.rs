//! The runner ↔ network seam: one [`Transport`] contract, one wire core,
//! three links.
//!
//! The protocol state machines (client, provider, TTP) never touch a
//! network type directly — they emit outgoing messages and the *runner*
//! moves bytes. [`Transport`] is that seam, and [`Net`] is its only
//! implementation: the wire core every backend shares. It owns the node
//! table, the outage flags, the §5 adversary's [`Interceptor`] dispatch,
//! and the [`Ledger`] — [`NetStats`], per-transaction [`TxnNetStats`],
//! the capped [`NetEvent`] buffer and the in-flight count — plus the
//! filters every arrival passes (frames naming unregistered nodes, copies
//! addressed to a down node). A backend is a [`Link`]: how a copy travels
//! and what time it is.
//!
//! * [`crate::sim::SimNet`] = `Net<SimLink>` — the deterministic
//!   discrete-event simulator (virtual clock, seeded RNG, per-link
//!   loss/jitter/duplication);
//! * [`crate::tcp::ChannelNet`] = `Net<ChannelLink>` — an in-process pipe
//!   whose frames cross the same codec as TCP, zero-latency and
//!   deterministic (CI-friendly);
//! * [`crate::tcp::TcpNet`] = `Net<TcpLink>` — real loopback TCP sockets
//!   with reader threads and host-monotonic time.
//!
//! Time comes from the link ([`Transport::now`] /
//! [`Transport::advance_clock_to`] — a virtual `SimTime` for the
//! simulator and the pipe, a host-monotonic reading for real sockets),
//! deliveries are *pulled* ([`Transport::poll_deliverable`]), and
//! wire-level happenings the actors cannot observe (drops, duplications)
//! surface as [`NetEvent`]s for the observability sink.
//!
//! Every backend upholds the conservation law
//! `delivered + dropped == sent + duplicated + injected` over its
//! [`NetStats`] once quiescent: each accepted copy is eventually counted
//! delivered or counted dropped, never silently lost. `foreign` frames
//! were never sent by the transport and stand outside the law.

use crate::bytes::Bytes;
use crate::sim::{
    Action, Envelope, Interceptor, NetEvent, NetEventKind, NetStats, NodeId, TxnNetStats,
};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A wire the scheduler can drive: named nodes, tagged sends, pull-based
/// delivery, drained wire events, per-transaction accounting, and a clock.
///
/// Object-safe — the scheduler works through `&mut dyn Transport` so the
/// settle loop itself carries zero per-backend code.
pub trait Transport: Send {
    /// Current transport time: virtual for the simulator and the pipe,
    /// host-monotonic microseconds since the transport started for real
    /// sockets.
    fn now(&self) -> SimTime;

    /// Advances the clock to `t` without delivering anything (fires a
    /// protocol timer due before the next delivery). Simulated backends
    /// jump; real-time backends sleep the remainder. A `t` in the past is
    /// a no-op — transport time is monotone.
    fn advance_clock_to(&mut self, t: SimTime);

    /// Registers a named node and returns its id.
    fn register(&mut self, name: &str) -> NodeId;

    /// The display name of a node, if it is registered. The one-pass event
    /// drain in the scheduler uses this to translate ids without
    /// re-borrowing the backend.
    fn node_name(&self, node: NodeId) -> Option<&str>;

    /// Sends a payload attributed to a transaction (`None` = untagged).
    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>);

    /// Sends an untagged payload.
    fn send(&mut self, src: NodeId, dst: NodeId, payload: Bytes) {
        self.send_tagged(src, dst, payload, None);
    }

    /// Delivers every message due at or before `now`, in wire order. May
    /// return an empty vector even when [`Transport::next_deliverable_at`]
    /// reported a due time — the due copies may all have been dropped
    /// (down destination, link loss); the drop is then counted and a
    /// [`NetEvent`] recorded.
    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope>;

    /// When the next delivery is due, if one is queued. Real backends
    /// report arrivals already buffered; they cannot predict the future,
    /// so `None` here does not mean quiescent — see
    /// [`Transport::wait_for_activity`].
    fn next_deliverable_at(&mut self) -> Option<SimTime>;

    /// True while accepted copies are still somewhere between send and
    /// delivered/dropped accounting.
    fn in_flight(&self) -> bool;

    /// Drains pending wire events (drops, duplications) for the
    /// observability sink.
    fn take_events(&mut self) -> Vec<NetEvent>;

    /// Aggregate traffic counters.
    fn stats(&self) -> NetStats;

    /// Traffic counters for one tagged transaction.
    fn txn_stats(&self, txn: u64) -> TxnNetStats;

    /// Transactions with tagged traffic on record, ascending.
    fn tagged_txns(&self) -> Vec<u64>;

    /// Drops one transaction's counters, returning the final values.
    fn retire_txn(&mut self, txn: u64) -> TxnNetStats;

    /// Installs (or replaces) the wire adversary.
    fn set_interceptor(&mut self, i: Box<dyn Interceptor>);

    /// Removes the wire adversary.
    fn clear_interceptor(&mut self);

    /// Marks a node down (or back up). While a node is down the transport
    /// drops copies addressed to it at delivery time, counting each drop —
    /// fault-plan outage windows become ordinary transport-level link
    /// drops, visible to the conservation law like any other loss.
    fn set_node_down(&mut self, node: NodeId, down: bool);

    /// Blocks until new work *may* be available, or until the transport is
    /// sure none is coming. Returns `true` if the caller should re-poll
    /// (something arrived or may have), `false` if it is safe to proceed
    /// (fire the timer at `until`, or — with `until == None` — conclude
    /// the wire is quiescent).
    ///
    /// Simulated backends are omniscient about their own queue and always
    /// return `false` immediately. Real backends block here: with
    /// `Some(t)` until host time reaches `t` or a frame lands, with `None`
    /// until in-flight frames drain or a bounded grace period expires.
    fn wait_for_activity(&mut self, until: Option<SimTime>) -> bool {
        let _ = until;
        false
    }

    /// Wire events discarded because nobody drained them in time.
    fn events_lost(&self) -> u64 {
        0
    }
}

/// How copies travel and what time it is: the one thing a backend adds to
/// the wire core ([`crate::sim::SimLink`], [`crate::tcp::ChannelLink`],
/// [`crate::tcp::TcpLink`]). A link reports what happens to the copies it
/// carries through the [`Ledger`] it is handed; it never counts on its
/// own.
pub trait Link: Send {
    /// Current link time.
    fn now(&self) -> SimTime;

    /// Moves the clock to `t` (see [`Transport::advance_clock_to`]).
    fn advance_clock_to(&mut self, t: SimTime);

    /// Carries one accepted copy (already counted in flight), held back
    /// `delay` past now. `env.delivered_at` holds the send time; the link
    /// restamps it.
    fn transmit(&mut self, ledger: &mut Ledger, env: Envelope, delay: SimDuration);

    /// The copies that arrived by `now`, in wire order, each stamped with
    /// its arrival time. The core filters and counts them.
    fn arrivals(&mut self, ledger: &mut Ledger, now: SimTime) -> Vec<Envelope>;

    /// When the next arrival is due, if the link knows.
    fn next_due(&mut self, ledger: &mut Ledger) -> Option<SimTime>;

    /// See [`Transport::wait_for_activity`]; links that know their whole
    /// queue decline at once.
    fn wait_for_activity(&mut self, ledger: &mut Ledger, until: Option<SimTime>) -> bool {
        let _ = (ledger, until);
        false
    }
}

/// Cap on pending undrained events; beyond it events are counted in
/// [`Transport::events_lost`] and discarded (a runner that never drains
/// must not leak memory; the counters stay exact).
const EVENT_BUFFER_CAP: usize = 1 << 16;

/// The one place traffic is counted: [`NetStats`], per-transaction
/// [`TxnNetStats`], the capped [`NetEvent`] buffer and the in-flight count.
#[derive(Default)]
pub struct Ledger {
    stats: NetStats,
    txns: BTreeMap<u64, TxnTally>,
    events: Vec<NetEvent>,
    events_lost: u64,
    /// Copies handed to the link and not yet counted delivered or dropped.
    pub(crate) in_flight: u64,
}

/// One transaction's [`TxnNetStats`] as the ledger keeps it until the
/// transaction is retired, in 32 bytes instead of 48: its copy counts
/// as `u32`s that saturate, widened on read.
#[derive(Debug, Clone, Copy, Default)]
struct TxnTally {
    sent: u32,
    delivered: u32,
    dropped: u32,
    duplicated: u32,
    bytes_sent: u64,
    last_delivered_at: SimTime,
}

impl TxnTally {
    /// The counters as [`TxnNetStats`].
    fn widen(self) -> TxnNetStats {
        TxnNetStats {
            sent: self.sent.into(),
            bytes_sent: self.bytes_sent,
            delivered: self.delivered.into(),
            dropped: self.dropped.into(),
            duplicated: self.duplicated.into(),
            last_delivered_at: self.last_delivered_at,
        }
    }
}

/// Counts one more copy in `count`.
fn bump(count: &mut u32) {
    *count = count.saturating_add(1);
}

impl Ledger {
    fn txn(&mut self, txn: Option<u64>) -> Option<&mut TxnTally> {
        txn.map(|t| self.txns.entry(t).or_default())
    }

    fn event(&mut self, at: SimTime, kind: NetEventKind, env: &Envelope) {
        if self.events.len() >= EVENT_BUFFER_CAP {
            self.events_lost += 1;
            return;
        }
        self.events.push(NetEvent { at, src: env.src, dst: env.dst, txn: env.txn, kind });
    }

    /// Counts one copy dropped at `at` (adversary, outage or link loss).
    fn dropped(&mut self, at: SimTime, env: &Envelope) {
        self.stats.dropped += 1;
        if let Some(t) = self.txn(env.txn) {
            bump(&mut t.dropped);
        }
        self.event(at, NetEventKind::Dropped, env);
    }

    /// A copy in flight was lost on the link.
    pub(crate) fn lost(&mut self, at: SimTime, env: &Envelope) {
        self.in_flight = self.in_flight.saturating_sub(1);
        self.dropped(at, env);
    }

    /// The link minted one more in-flight copy of `env`.
    pub(crate) fn duplicated(&mut self, at: SimTime, env: &Envelope) {
        self.in_flight += 1;
        self.stats.duplicated += 1;
        if let Some(t) = self.txn(env.txn) {
            bump(&mut t.duplicated);
        }
        self.event(at, NetEventKind::Duplicated, env);
    }
}

/// The wire core: one node table, outage model, adversary hook and
/// [`Ledger`] over a [`Link`]. See the module docs.
pub struct Net<L> {
    nodes: Vec<String>,
    /// Nodes currently down (fault outage windows): copies addressed to a
    /// down node are dropped at delivery time and counted.
    down: Vec<bool>,
    interceptor: Option<Box<dyn Interceptor>>,
    ledger: Ledger,
    pub(crate) link: L,
}

impl<L: Link> Net<L> {
    /// An empty network over `link`.
    pub(crate) fn with_link(link: L) -> Self {
        Net {
            nodes: Vec::new(),
            down: Vec::new(),
            interceptor: None,
            ledger: Ledger::default(),
            link,
        }
    }

    /// [`Transport::send`] for anything convertible to [`Bytes`]; passing a
    /// `Vec<u8>` moves the buffer without copying.
    pub fn send(&mut self, src: NodeId, dst: NodeId, payload: impl Into<Bytes>) {
        Transport::send_tagged(self, src, dst, payload.into(), None);
    }

    /// [`Transport::send_tagged`] for anything convertible to [`Bytes`].
    pub fn send_tagged(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: impl Into<Bytes>,
        txn: Option<u64>,
    ) {
        Transport::send_tagged(self, src, dst, payload.into(), txn);
    }

    /// True when both endpoints are nodes this transport registered.
    fn routable(&self, env: &Envelope) -> bool {
        let n = self.nodes.len();
        (env.src.0 as usize) < n && (env.dst.0 as usize) < n
    }

    /// Hands one copy to the link. A copy naming an unregistered node
    /// (an adversary injection can) has nowhere to go: it is dropped here,
    /// so everything in flight can be delivered.
    fn put(&mut self, env: Envelope, delay: SimDuration) {
        if !self.routable(&env) {
            return self.ledger.dropped(env.delivered_at, &env);
        }
        self.ledger.in_flight += 1;
        self.link.transmit(&mut self.ledger, env, delay);
    }

    /// The filters every arrival passes, then its accounting. Returns
    /// whether `env` is delivered.
    pub(crate) fn admit(&mut self, env: &Envelope) -> bool {
        // A frame naming a node never registered here was not sent by this
        // transport (a hostile peer on a real wire's listener): discarded
        // before any bookkeeping and counted on its own.
        if !self.routable(env) {
            self.ledger.stats.foreign += 1;
            return false;
        }
        // Frames forging registered ids (out of reach without connection
        // authentication) must still not wrap the in-flight count.
        self.ledger.in_flight = self.ledger.in_flight.saturating_sub(1);
        if self.down[env.dst.0 as usize] {
            self.ledger.dropped(env.delivered_at, env);
            return false;
        }
        self.ledger.stats.delivered += 1;
        if let Some(t) = self.ledger.txn(env.txn) {
            bump(&mut t.delivered);
            t.last_delivered_at = env.delivered_at;
        }
        true
    }
}

impl<L: Link> Transport for Net<L> {
    fn now(&self) -> SimTime {
        self.link.now()
    }

    fn advance_clock_to(&mut self, t: SimTime) {
        self.link.advance_clock_to(t);
    }

    fn register(&mut self, name: &str) -> NodeId {
        self.nodes.push(name.to_string());
        self.down.push(false);
        NodeId(self.nodes.len() as u32 - 1)
    }

    fn node_name(&self, node: NodeId) -> Option<&str> {
        self.nodes.get(node.0 as usize).map(String::as_str)
    }

    fn send_tagged(&mut self, src: NodeId, dst: NodeId, payload: Bytes, txn: Option<u64>) {
        assert!((dst.0 as usize) < self.nodes.len(), "unknown destination");
        self.ledger.stats.sent += 1;
        self.ledger.stats.bytes_sent += payload.len() as u64;
        if let Some(t) = self.ledger.txn(txn) {
            bump(&mut t.sent);
            t.bytes_sent += payload.len() as u64;
        }
        let now = self.link.now();
        let env = Envelope { src, dst, payload, delivered_at: now, txn };
        let action = match self.interceptor.as_mut() {
            Some(i) => i.intercept(src, dst, &env.payload, now),
            None => Action::Deliver,
        };
        let (env, delay, injections) = match action {
            Action::Deliver => (env, SimDuration::ZERO, Vec::new()),
            Action::Drop => return self.ledger.dropped(now, &env),
            Action::Modify(p) => {
                // The adversary supplies a fresh buffer: shared payload
                // bytes are never mutated in place, so other holders of
                // the original allocation are unaffected.
                self.ledger.stats.modified += 1;
                (Envelope { payload: Bytes::from(p), ..env }, SimDuration::ZERO, Vec::new())
            }
            Action::InjectAfter(msgs) => {
                self.ledger.stats.injected += msgs.len() as u64;
                (env, SimDuration::ZERO, msgs)
            }
            Action::Delay(d) => (env, d, Vec::new()),
        };
        self.put(env, delay);
        for (src, dst, p) in injections {
            let payload = Bytes::from(p);
            self.put(
                Envelope { src, dst, payload, delivered_at: now, txn: None },
                SimDuration::ZERO,
            );
        }
    }

    fn poll_deliverable(&mut self, now: SimTime) -> Vec<Envelope> {
        let mut arrived = self.link.arrivals(&mut self.ledger, now);
        arrived.retain(|env| self.admit(env));
        arrived
    }

    fn next_deliverable_at(&mut self) -> Option<SimTime> {
        self.link.next_due(&mut self.ledger)
    }

    fn in_flight(&self) -> bool {
        self.ledger.in_flight > 0
    }

    fn take_events(&mut self) -> Vec<NetEvent> {
        std::mem::take(&mut self.ledger.events)
    }

    fn stats(&self) -> NetStats {
        self.ledger.stats
    }

    fn txn_stats(&self, txn: u64) -> TxnNetStats {
        self.ledger.txns.get(&txn).map_or_else(TxnNetStats::default, |t| t.widen())
    }

    fn tagged_txns(&self) -> Vec<u64> {
        self.ledger.txns.keys().copied().collect()
    }

    fn retire_txn(&mut self, txn: u64) -> TxnNetStats {
        self.ledger.txns.remove(&txn).map_or_else(TxnNetStats::default, TxnTally::widen)
    }

    fn set_interceptor(&mut self, i: Box<dyn Interceptor>) {
        self.interceptor = Some(i);
    }

    fn clear_interceptor(&mut self) {
        self.interceptor = None;
    }

    fn set_node_down(&mut self, node: NodeId, down: bool) {
        self.down[node.0 as usize] = down;
    }

    fn wait_for_activity(&mut self, until: Option<SimTime>) -> bool {
        self.link.wait_for_activity(&mut self.ledger, until)
    }

    fn events_lost(&self) -> u64 {
        self.ledger.events_lost
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sim::{LinkConfig, SimNet};
    use crate::tcp::{ChannelNet, TcpNet};

    /// Drives any backend to quiescence through the trait, like settle's
    /// delivery arm does.
    pub(crate) fn drain(net: &mut dyn Transport) -> Vec<Envelope> {
        let mut out = Vec::new();
        loop {
            match net.next_deliverable_at() {
                Some(at) => {
                    let now = net.now().max(at);
                    net.advance_clock_to(now);
                    out.extend(net.poll_deliverable(now));
                }
                None => {
                    if !net.wait_for_activity(None) {
                        break;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn simnet_is_drivable_through_dyn_transport() {
        let mut net = SimNet::new(1);
        let t: &mut dyn Transport = &mut net;
        let a = t.register("alice");
        let b = t.register("bob");
        t.send_tagged(a, b, Bytes::from(b"ping".to_vec()), Some(1));
        let got = drain(t);
        let stats = t.stats();
        assert_eq!(stats.sent, 1);
        assert_eq!(stats.delivered, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].payload, b"ping");
        assert_eq!(got[0].delivered_at, SimTime::ZERO.after(SimDuration::from_millis(25)));
        assert_eq!(net.node_name(got[0].dst), Some("bob"));
        assert_eq!(net.node_name(NodeId(99)), None);
        assert_eq!(Transport::txn_stats(&net, 1).delivered, 1);
    }

    /// What every backend must agree on after [`adversary_and_outage`].
    type Accounting = (NetStats, TxnNetStats, Vec<NetEventKind>, Vec<Vec<u8>>);

    /// The adversary and outage surface, written once over the trait:
    /// every `Action`, copies sent to a node before and during its outage,
    /// and a tagged transaction.
    fn adversary_and_outage(net: &mut dyn Transport) -> Accounting {
        let a = net.register("a");
        let b = net.register("b");
        let c = net.register("c");
        net.set_interceptor(Box::new(|s: NodeId, d: NodeId, p: &[u8], _t| match p {
            b"secret" => Action::Modify(b"tampered".to_vec()),
            b"kill" => Action::Drop,
            b"echo" => Action::InjectAfter(vec![(s, d, p.to_vec())]),
            b"slow" => Action::Delay(SimDuration::from_millis(50)),
            _ => Action::Deliver,
        }));
        net.send_tagged(a, c, Bytes::from(b"to-down".to_vec()), Some(7));
        // The outage takes effect at delivery time: the copy already sent
        // is dropped when it arrives, like the one sent during it.
        net.set_node_down(c, true);
        net.send_tagged(a, c, Bytes::from(b"lost".to_vec()), Some(7));
        for p in [&b"secret"[..], b"kill", b"echo", b"slow"] {
            net.send_tagged(a, b, Bytes::from(p.to_vec()), Some(7));
        }
        let got = drain(net);
        assert!(!net.in_flight());
        let kinds = net.take_events().iter().map(|e| (e.kind, e.txn)).collect::<Vec<_>>();
        assert!(kinds.iter().all(|&(_, txn)| txn == Some(7)), "events keep the tag: {kinds:?}");
        // The delayed copy left only once the clock passed its hold-back.
        let txn = net.txn_stats(7);
        assert!(txn.last_delivered_at >= SimTime(50_000), "{txn:?}");
        // Back up: traffic flows again.
        net.set_node_down(c, false);
        net.send(a, c, Bytes::from(b"back".to_vec()));
        assert_eq!(drain(net).len(), 1);
        let s = net.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated + s.injected, "{s:?}");
        let txn = TxnNetStats { last_delivered_at: SimTime::ZERO, ..txn };
        let payloads = got.iter().map(|e| e.payload.to_vec()).collect();
        (s, txn, kinds.into_iter().map(|(k, _)| k).collect(), payloads)
    }

    #[test]
    fn every_backend_accounts_the_adversary_and_outages_alike() {
        let want: Accounting = (
            NetStats {
                sent: 7,
                delivered: 5,
                dropped: 3,
                modified: 1,
                injected: 1,
                bytes_sent: 7 + 4 + 6 + 4 + 4 + 4 + 4,
                ..NetStats::default()
            },
            TxnNetStats { sent: 6, bytes_sent: 29, delivered: 3, dropped: 3, ..Default::default() },
            vec![NetEventKind::Dropped; 3],
            vec![b"tampered".to_vec(), b"echo".to_vec(), b"echo".to_vec(), b"slow".to_vec()],
        );
        assert_eq!(adversary_and_outage(&mut SimNet::new(1)), want, "simnet");
        assert_eq!(adversary_and_outage(&mut ChannelNet::new()), want, "channel");
        match TcpNet::new() {
            Ok(mut net) => assert_eq!(adversary_and_outage(&mut net), want, "tcp"),
            Err(e) => eprintln!("loopback bind unavailable ({e}); skipping the tcp backend"),
        }
    }

    #[test]
    fn injections_naming_unregistered_nodes_are_counted_drops() {
        let mut net = ChannelNet::new();
        let a = net.register("a");
        net.set_interceptor(Box::new(|s: NodeId, _d, p: &[u8], _t| {
            Action::InjectAfter(vec![(s, NodeId(9), p.to_vec())])
        }));
        net.send(a, a, b"x".to_vec());
        assert_eq!(drain(&mut net).len(), 1);
        let s = net.stats();
        assert_eq!((s.injected, s.dropped, s.foreign), (1, 1, 0));
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated + s.injected);
        assert!(!net.in_flight());
    }

    #[test]
    fn a_txns_counts_saturate_instead_of_wrapping() {
        let mut net = SimNet::new(1);
        let (a, b) = (net.register("a"), net.register("b"));
        net.send_tagged(a, b, vec![1u8], Some(7));
        net.ledger.txns.get_mut(&7).unwrap().sent = u32::MAX - 1;
        net.send_tagged(a, b, vec![2u8, 3], Some(7));
        net.send_tagged(a, b, vec![4u8], Some(7));
        let t = Transport::txn_stats(&net, 7);
        assert_eq!((t.sent, t.bytes_sent), (u64::from(u32::MAX), 4));
        assert_eq!(Transport::retire_txn(&mut net, 7), t);
        assert_eq!(Transport::txn_stats(&net, 7), TxnNetStats::default());
    }

    #[test]
    fn lossy_link_conservation_through_trait() {
        let mut net = SimNet::new(3);
        let a = net.register("a");
        let b = net.register("b");
        net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::ZERO,
                drop_prob: 0.4,
                dup_prob: 0.4,
            },
        );
        for i in 0..200u8 {
            Transport::send_tagged(&mut net, a, b, Bytes::from(vec![i]), Some(7));
        }
        let t: &mut dyn Transport = &mut net;
        while let Some(at) = t.next_deliverable_at() {
            t.advance_clock_to(at);
            t.poll_deliverable(at);
        }
        assert!(!t.in_flight());
        let s = t.stats();
        assert_eq!(s.delivered + s.dropped, s.sent + s.duplicated);
        let ts = t.txn_stats(7);
        assert_eq!(ts.delivered + ts.dropped, ts.sent + ts.duplicated);
        assert_eq!(t.tagged_txns(), vec![7]);
        assert_eq!(t.retire_txn(7), ts);
    }
}
