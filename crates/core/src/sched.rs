//! The event scheduler behind the one [`Runner`](crate::runner::Runner),
//! whether it seats one client ([`World`](crate::runner::World)) or many
//! ([`MultiWorld`](crate::multi::MultiWorld)).
//!
//! One deadline-ordered loop merges network deliveries with every actor's
//! protocol timers and fails loudly when the step cap is hit.
//!
//! Ordering rules (see DESIGN.md §4):
//!
//! - The next step is whichever of (earliest pending timer, earliest
//!   scheduled delivery) comes first in simulated time.
//! - **Tie-break: timers fire before deliveries at the same instant.** A
//!   reply that lands exactly at the deadline is late — the timeout
//!   sub-protocol starts, deterministically.
//! - An overdue timer (deadline already in the past) fires immediately at
//!   the current simulated time; it can never be pushed behind further
//!   traffic.
//! - A timer that fires without producing output and without moving its
//!   deadline is *barren*; it is masked until the world changes (a delivery
//!   happens or the deadline moves), so a wedged actor cannot livelock the
//!   loop.

use crate::fault::FaultStats;
use crate::message::Message;
use crate::obs::{Event, EventKind, Obs};
use crate::principal::PrincipalId;
use crate::session::{Outgoing, ValidationError};
use std::collections::BTreeSet;
use tpnr_net::sim::{Envelope, NetEvent, NetEventKind};
use tpnr_net::time::SimTime;
use tpnr_net::transport::Transport;

/// A protocol participant the scheduler can drive: it receives messages and
/// owns zero or more pending timers.
pub trait Actor {
    /// Handles one delivered protocol message.
    fn on_message(
        &mut self,
        from: PrincipalId,
        msg: &Message,
        now: SimTime,
    ) -> Result<Vec<Outgoing>, ValidationError>;

    /// Earliest pending protocol timer, if any. Actors without timers (the
    /// provider is purely reactive) use the default.
    fn next_deadline(&self) -> Option<SimTime> {
        None
    }

    /// Fires every timer due at `now` and returns the messages produced.
    fn on_tick(&mut self, _now: SimTime) -> Vec<Outgoing> {
        Vec::new()
    }
}

/// How a settle run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SettleOutcome {
    /// Nothing left to do: no deliveries in flight and no live timers.
    Quiescent,
    /// Drained, but at least one transaction was abandoned by the retry
    /// policy's give-up bound (`SettleReport::faults.gave_up`). Evidence is
    /// retained, so disputes stay arbitrable; the run is still quiescent.
    Degraded,
    /// The step cap was hit with work still pending. The world is *not*
    /// settled; raise `max_steps` or investigate the livelock (see the
    /// README troubleshooting section).
    StepCapExceeded,
}

impl SettleOutcome {
    /// True when the run drained every delivery and timer (including
    /// degraded runs — degradation is about retry give-up, not residue).
    pub fn is_quiescent(self) -> bool {
        matches!(self, SettleOutcome::Quiescent | SettleOutcome::Degraded)
    }
}

/// What a settle run did.
#[derive(Debug, Clone, Copy)]
pub struct SettleReport {
    /// How the run ended.
    pub outcome: SettleOutcome,
    /// Messages delivered to inboxes.
    pub delivered: usize,
    /// Timer rounds fired.
    pub timer_rounds: usize,
    /// Fault-injection counters (crashes, restarts, retries, give-ups,
    /// snapshot bytes) as of the end of the run; all-zero for hubs without
    /// fault machinery.
    pub faults: FaultStats,
}

/// What a runner must expose for [`settle`] to drive it. The runner keeps
/// ownership of the actors and the routing tables; the scheduler only sees
/// deadlines, deliveries, and opaque dispatch.
pub trait EventHub {
    /// The wire the runner is driving — any [`Transport`] backend: the
    /// deterministic simulator, the in-process channel, or loopback TCP.
    /// The settle loop is written against this seam only, so it carries
    /// zero per-backend code.
    fn transport(&mut self) -> &mut dyn Transport;
    /// Earliest pending timer across every actor.
    fn next_timer(&self) -> Option<SimTime>;
    /// Fires all timers due at `now` on every actor and dispatches whatever
    /// they produce. Returns how many messages were dispatched.
    fn fire_timers(&mut self, now: SimTime) -> usize;
    /// Routes one delivered envelope to its actor and dispatches the
    /// actor's replies.
    fn deliver(&mut self, env: Envelope);
    /// The runner's observability sink, if it keeps one. The scheduler
    /// records a settle-size sample in it on exit. Headless hubs use the
    /// default.
    fn obs_mut(&mut self) -> Option<&mut Obs> {
        None
    }
    /// Records one network event (a drop or a duplication) drained from
    /// the transport, in the [`EventHub::obs_mut`] sink if there is one.
    fn record_net_event(&mut self, e: NetEvent) {
        if let Some(obs) = self.obs_mut() {
            obs.record(net_event(&e));
        }
    }
    /// Cumulative fault-injection counters (crash/restart/retry/give-up/
    /// snapshot bytes), copied into `SettleReport::faults` when the run
    /// ends. Hubs without fault machinery use the all-zero default.
    fn fault_stats(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// Hands pending network events (drops, duplications) to the hub. The
/// buffer is drained even by a hub without a sink, so it cannot
/// accumulate.
fn drain_net_events(hub: &mut dyn EventHub) {
    for e in hub.transport().take_events() {
        hub.record_net_event(e);
    }
}

/// A network event as an observability event. Events keep the
/// transport's node ids; names are resolved only where a trace is
/// rendered.
pub(crate) fn net_event(e: &NetEvent) -> Event {
    let kind = match e.kind {
        NetEventKind::Dropped => EventKind::Dropped { from: e.src },
        NetEventKind::Duplicated => EventKind::Duplicated { from: e.src },
    };
    Event { at: e.at, txn: e.txn, actor: e.dst, kind }
}

/// Runs the world until quiescence or the step cap: the single settle loop
/// every deployment (`World`, `MultiWorld`) runs on.
pub fn settle(hub: &mut dyn EventHub, max_steps: usize) -> SettleReport {
    let mut report = SettleReport {
        outcome: SettleOutcome::Quiescent,
        delivered: 0,
        timer_rounds: 0,
        faults: FaultStats::default(),
    };
    let mut barren: Option<SimTime> = None;
    // Envelopes polled off the transport but not yet routed. Deliveries
    // are handed out one per step with the timer tie-break re-checked in
    // between, so batching the poll preserves the old per-step ordering.
    // The poll's own vector is the queue, so routing it allocates nothing.
    let mut pending = Vec::<Envelope>::new().into_iter();
    for _ in 0..max_steps {
        drain_net_events(hub);
        let timer = hub.next_timer().filter(|t| barren != Some(*t));
        let delivery = pending
            .as_slice()
            .first()
            .map(|e| e.delivered_at)
            .or_else(|| hub.transport().next_deliverable_at());
        match (timer, delivery) {
            // Timer first, including on ties (t == at).
            (Some(t), at) if at.is_none_or(|at| t <= at) => {
                // Real backends block here until host time reaches `t` or
                // a frame lands first; simulated backends are omniscient
                // about their queue and decline immediately.
                if hub.transport().wait_for_activity(Some(t)) {
                    continue;
                }
                let now = hub.transport().now().max(t);
                hub.transport().advance_clock_to(now);
                let produced = hub.fire_timers(now);
                report.timer_rounds += 1;
                // A fire that neither produced output nor moved the
                // deadline would repeat forever; mask it until something
                // else changes the world.
                barren = (produced == 0 && hub.next_timer() == Some(t)).then_some(t);
            }
            (_, Some(at)) => {
                if pending.as_slice().is_empty() {
                    let now = hub.transport().now().max(at);
                    hub.transport().advance_clock_to(now);
                    pending = hub.transport().poll_deliverable(now).into_iter();
                }
                // The poll can come back empty (every due copy was dropped
                // — down node, link loss); the step is then consumed
                // without a delivery, exactly as the old loop tolerated a
                // raced-empty queue.
                if let Some(env) = pending.next() {
                    report.delivered += 1;
                    barren = None;
                    hub.deliver(env);
                }
            }
            // Only reachable with no timer (a pending timer and no delivery
            // is the first arm); kept non-literal for exhaustiveness.
            (_, None) => {
                // A real wire may still have frames in sockets that no
                // queue reflects yet; give the transport a chance to
                // surface them before declaring quiescence.
                if hub.transport().wait_for_activity(None) {
                    continue;
                }
                finish(hub, &mut report);
                return report;
            }
        }
    }
    report.outcome = SettleOutcome::StepCapExceeded;
    finish(hub, &mut report);
    report
}

/// End-of-run bookkeeping: drain any events the final step produced, record
/// the run's size in the settle-step histogram, and copy the hub's fault
/// counters into the report (downgrading Quiescent to Degraded when the
/// retry policy abandoned work).
fn finish(hub: &mut dyn EventHub, report: &mut SettleReport) {
    drain_net_events(hub);
    if let Some(obs) = hub.obs_mut() {
        obs.note_settle((report.delivered + report.timer_rounds) as u64);
    }
    report.faults = hub.fault_stats();
    if report.outcome == SettleOutcome::Quiescent && report.faults.gave_up > 0 {
        report.outcome = SettleOutcome::Degraded;
    }
}

/// The scheduler's deadline index: each actor slot's earliest armed
/// deadline, kept in order so [`EventHub::next_timer`] reads the minimum
/// instead of polling every actor.
///
/// The runner re-arms a slot ([`Deadlines::set`]) whenever that actor's
/// state changes and disarms it when the actor crashes. A runner holds at
/// most one entry per actor, so every operation is O(log k) in the k armed
/// slots.
#[derive(Default)]
pub struct Deadlines {
    /// Armed `(deadline, slot)` pairs, earliest first.
    order: BTreeSet<(SimTime, usize)>,
    /// `armed[slot]`: the slot's deadline in `order`, if it is armed.
    armed: Vec<Option<SimTime>>,
}

impl Deadlines {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of armed slots.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when no slot is armed.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The earliest armed deadline, if any.
    pub fn peek(&self) -> Option<SimTime> {
        self.order.first().map(|&(d, _)| d)
    }

    /// Arms `slot` at `deadline`, replacing any earlier arming, or disarms
    /// it on `None` (the runner feeds an actor's `next_deadline()` straight
    /// in). Disarming a slot never armed is a no-op.
    pub fn set(&mut self, slot: usize, deadline: Option<SimTime>) {
        if slot >= self.armed.len() {
            if deadline.is_none() {
                return;
            }
            self.armed.resize(slot + 1, None);
        }
        let old = std::mem::replace(&mut self.armed[slot], deadline);
        if old != deadline {
            if let Some(d) = old {
                self.order.remove(&(d, slot));
            }
            if let Some(d) = deadline {
                self.order.insert((d, slot));
            }
        }
    }

    /// Disarms every slot due at or before `now` and returns them in
    /// ascending slot order (all fire at the same instant, so slot order —
    /// the runner's actor order — is the deterministic tie-break).
    pub fn advance(&mut self, now: SimTime) -> Vec<usize> {
        let mut due = Vec::new();
        while let Some(&(d, slot)) = self.order.first() {
            if d > now {
                break;
            }
            self.order.pop_first();
            self.armed[slot] = None;
            due.push(slot);
        }
        due.sort_unstable();
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tpnr_net::sim::{LinkConfig, NodeId, SimNet};
    use tpnr_net::time::SimDuration;

    /// A scripted hub: one synthetic timer plus whatever is in the network
    /// queue. Records the exact order of timer fires and deliveries. A
    /// `productive` timer "sends" once and disarms; a barren one produces
    /// nothing and stays armed (a wedged actor).
    struct ScriptHub {
        net: SimNet,
        deadline: Option<SimTime>,
        productive: bool,
        log: Vec<(String, u64)>,
        obs: Option<Obs>,
        faults: FaultStats,
    }

    impl EventHub for ScriptHub {
        fn transport(&mut self) -> &mut dyn Transport {
            &mut self.net
        }
        fn next_timer(&self) -> Option<SimTime> {
            self.deadline
        }
        fn obs_mut(&mut self) -> Option<&mut Obs> {
            self.obs.as_mut()
        }
        fn fire_timers(&mut self, now: SimTime) -> usize {
            self.log.push(("timer".into(), now.micros()));
            if self.productive {
                self.deadline = None;
                1
            } else {
                0
            }
        }
        fn deliver(&mut self, env: Envelope) {
            self.log.push(("deliver".into(), env.delivered_at.micros()));
        }
        fn fault_stats(&self) -> FaultStats {
            self.faults
        }
    }

    fn hub_with_traffic(n_msgs: u64, spacing_ms: u64) -> (ScriptHub, NodeId, NodeId) {
        let mut net = SimNet::new(42);
        let a = net.register("a");
        let b = net.register("b");
        let mut hub = ScriptHub {
            net,
            deadline: None,
            productive: true,
            log: Vec::new(),
            obs: None,
            faults: FaultStats::default(),
        };
        for i in 0..n_msgs {
            hub.net.set_link(
                a,
                b,
                LinkConfig::ideal(SimDuration::from_millis((i + 1) * spacing_ms)),
            );
            hub.net.send(a, b, vec![0]);
        }
        (hub, a, b)
    }

    #[test]
    fn overdue_timer_is_never_starved_by_traffic() {
        // Deliveries at 10, 20, …, 100 ms; a one-shot timer due at 35 ms.
        // The old loop skipped overdue timers while the queue was busy; the
        // shared scheduler must fire it between the 30 ms and 40 ms
        // deliveries.
        let (mut hub, _, _) = hub_with_traffic(10, 10);
        hub.deadline = Some(SimTime(35_000));
        let r = settle(&mut hub, 1000);
        assert!(r.outcome.is_quiescent());
        let timer_pos = hub.log.iter().position(|(k, _)| k == "timer").unwrap();
        assert_eq!(hub.log[timer_pos], ("timer".into(), 35_000));
        assert_eq!(timer_pos, 3, "after the 10/20/30 ms deliveries, before 40 ms");
        assert_eq!(r.delivered, 10);
    }

    #[test]
    fn timer_fires_before_delivery_on_equal_timestamp() {
        let (mut hub, _, _) = hub_with_traffic(3, 10); // deliveries at 10/20/30 ms
        hub.deadline = Some(SimTime(20_000)); // tie with the second delivery
        let r = settle(&mut hub, 100);
        assert!(r.outcome.is_quiescent());
        assert_eq!(
            hub.log,
            vec![
                ("deliver".into(), 10_000),
                ("timer".into(), 20_000),
                ("deliver".into(), 20_000),
                ("deliver".into(), 30_000),
            ],
            "ties resolve timer-first, deterministically"
        );
    }

    #[test]
    fn barren_timer_does_not_livelock() {
        // A timer that produces nothing and never moves must not spin the
        // loop: deliveries drain, then the run is quiescent.
        let (mut hub, _, _) = hub_with_traffic(5, 10);
        hub.deadline = Some(SimTime(1)); // overdue immediately, forever
        hub.productive = false;
        let r = settle(&mut hub, 1000);
        assert!(r.outcome.is_quiescent());
        assert_eq!(r.delivered, 5);
        // It got one chance per world change, not one per step.
        assert!(r.timer_rounds <= 6, "fired {} rounds", r.timer_rounds);
    }

    #[test]
    fn step_cap_is_reported_not_swallowed() {
        let (mut hub, _, _) = hub_with_traffic(10, 10);
        let r = settle(&mut hub, 3);
        assert_eq!(r.outcome, SettleOutcome::StepCapExceeded);
        assert!(!r.outcome.is_quiescent());
        assert_eq!(r.delivered, 3, "stopped exactly at the cap");
        assert!(hub.net.in_flight(), "work was genuinely left over");
    }

    #[test]
    fn quiescent_empty_world() {
        let mut net = SimNet::new(1);
        net.register("only");
        let mut hub = ScriptHub {
            net,
            deadline: None,
            productive: true,
            log: Vec::new(),
            obs: None,
            faults: FaultStats::default(),
        };
        let r = settle(&mut hub, 10);
        assert!(r.outcome.is_quiescent());
        assert_eq!(r.delivered, 0);
        assert_eq!(r.timer_rounds, 0);
    }

    #[test]
    fn wheel_insert_cancel_peek() {
        let mut w = Deadlines::new();
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
        w.set(0, Some(SimTime(500)));
        w.set(1, Some(SimTime(100)));
        w.set(2, Some(SimTime(70_000)));
        assert_eq!(w.len(), 3);
        assert_eq!(w.peek(), Some(SimTime(100)));
        w.set(1, None);
        assert_eq!(w.peek(), Some(SimTime(500)));
        w.set(0, Some(SimTime(60))); // re-arm earlier
        assert_eq!(w.peek(), Some(SimTime(60)));
        w.set(0, Some(SimTime(800))); // re-arm later: the minimum moves
        assert_eq!(w.peek(), Some(SimTime(800)));
        w.set(0, None);
        w.set(2, None);
        assert!(w.is_empty());
        assert_eq!(w.peek(), None);
        w.set(99, None); // unknown slot: no-op
    }

    #[test]
    fn wheel_advance_pops_due_in_key_order_and_cascades() {
        let mut w = Deadlines::new();
        w.set(3, Some(SimTime(5_000)));
        w.set(1, Some(SimTime(5_000)));
        w.set(2, Some(SimTime(4_000)));
        w.set(0, Some(SimTime(1 << 20)));
        assert_eq!(w.advance(SimTime(5_000)), vec![1, 2, 3], "due slots, slot order");
        assert_eq!(w.len(), 1);
        assert_eq!(w.peek(), Some(SimTime(1 << 20)));
        assert_eq!(w.advance(SimTime((1 << 20) - 1)), Vec::<usize>::new());
        assert_eq!(w.peek(), Some(SimTime(1 << 20)), "survives an advance just short of it");
        assert_eq!(w.advance(SimTime(1 << 20)), vec![0]);
        assert!(w.is_empty());
    }

    #[test]
    fn wheel_overdue_and_far_entries_fire_exactly_once() {
        let mut w = Deadlines::new();
        w.advance(SimTime(10_000));
        w.set(0, Some(SimTime(3_000))); // already overdue
        w.set(1, Some(SimTime(1 << 52)));
        assert_eq!(w.peek(), Some(SimTime(3_000)), "overdue entries keep their deadline");
        assert_eq!(w.advance(SimTime(10_000)), vec![0], "overdue fires at now >= deadline");
        assert_eq!(w.peek(), Some(SimTime(1 << 52)));
        assert_eq!(w.advance(SimTime(1 << 52)), vec![1]);
        assert!(w.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Model check: the index matches a naive `BTreeMap<key, deadline>`
        /// on random arm/disarm/advance sequences — same `peek`, same
        /// `len`, and the same (key-sorted) due set on every advance.
        #[test]
        fn wheel_matches_btreemap_model(
            ops in proptest::collection::vec(
                (0u8..4, 0usize..8, any::<u64>(), 0u32..51),
                1..80,
            ),
        ) {
            let mut index = Deadlines::new();
            let mut model: std::collections::BTreeMap<usize, u64> =
                std::collections::BTreeMap::new();
            let mut now: u64 = 0;
            for (action, key, raw, shift) in ops {
                let mag = raw & ((1u64 << shift) | ((1u64 << shift) - 1));
                match action {
                    0 | 1 => {
                        // Arm relative to now; action 1 biases near-past
                        // deadlines to exercise the overdue path.
                        let d = if action == 1 {
                            now.saturating_sub(mag % 1_000)
                        } else {
                            now.saturating_add(mag)
                        };
                        index.set(key, Some(SimTime(d)));
                        model.insert(key, d);
                    }
                    2 => {
                        index.set(key, None);
                        model.remove(&key);
                    }
                    _ => {
                        now = now.saturating_add(mag);
                        let due = index.advance(SimTime(now));
                        let mut expect: Vec<usize> = model
                            .iter()
                            .filter(|&(_, &d)| d <= now)
                            .map(|(&k, _)| k)
                            .collect();
                        expect.sort_unstable();
                        model.retain(|_, &mut d| d > now);
                        prop_assert_eq!(due, expect);
                    }
                }
                prop_assert_eq!(
                    index.peek().map(|t| t.micros()),
                    model.values().min().copied()
                );
                prop_assert_eq!(index.len(), model.len());
            }
        }
    }

    /// Synthetic actor for the index-vs-poll equivalence property. Modes:
    /// 0 = one-shot (send one message, disarm; re-arms when a delivery
    /// lands), 1 = barren (produce nothing, never move — the wedged actor
    /// the masking rule exists for), 2 = periodic (send and re-arm),
    /// 3 = silent re-arm (produce nothing but move the deadline).
    #[derive(Clone)]
    struct SynthActor {
        deadline: Option<u64>,
        mode: u8,
        period: u64,
    }

    /// One hub, two scheduling back-ends: `index: None` re-derives
    /// `next_timer` by polling every actor, `index: Some` answers from the
    /// deadline index with refresh-on-change hooks. The settle loop on top
    /// is byte-identical, so any divergence in the logs is the index's
    /// fault.
    struct SynthHub {
        net: SimNet,
        nodes: Vec<NodeId>,
        actors: Vec<SynthActor>,
        sends_left: u32,
        log: Vec<(&'static str, u64, usize)>,
        index: Option<Deadlines>,
    }

    impl SynthHub {
        fn new(seed: u64, actors: Vec<SynthActor>, sends_left: u32, indexed: bool) -> Self {
            let mut net = SimNet::new(seed);
            let nodes: Vec<NodeId> =
                (0..actors.len()).map(|i| net.register(&format!("s{i}"))).collect();
            for &a in &nodes {
                for &b in &nodes {
                    if a != b {
                        net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(1)));
                    }
                }
            }
            let mut hub = SynthHub {
                net,
                nodes,
                actors,
                sends_left,
                log: Vec::new(),
                index: indexed.then(Deadlines::new),
            };
            for i in 0..hub.actors.len() {
                hub.refresh(i);
            }
            hub
        }

        fn refresh(&mut self, i: usize) {
            if let Some(index) = &mut self.index {
                index.set(i, self.actors[i].deadline.map(SimTime));
            }
        }

        /// Fires actor `i` at `now`; returns messages produced. Pure
        /// function of (actor state, budget), shared by both back-ends.
        fn fire(&mut self, i: usize, now: SimTime) -> usize {
            self.log.push(("timer", now.micros(), i));
            let (mode, period) = (self.actors[i].mode, self.actors[i].period);
            let budget = self.sends_left > 0;
            let produced = match mode {
                1 => 0, // barren: deadline untouched
                3 => {
                    self.actors[i].deadline = budget.then(|| now.micros().saturating_add(period));
                    0
                }
                _ => {
                    // one-shot / periodic
                    self.actors[i].deadline =
                        (mode == 2 && budget).then(|| now.micros().saturating_add(period));
                    if budget {
                        self.sends_left -= 1;
                        let dst = self.nodes[(i + 1) % self.nodes.len()];
                        self.net.send(self.nodes[i], dst, vec![i as u8]);
                        1
                    } else {
                        0
                    }
                }
            };
            if mode != 1 && !budget {
                self.actors[i].deadline = None;
            }
            produced
        }
    }

    impl EventHub for SynthHub {
        fn transport(&mut self) -> &mut dyn Transport {
            &mut self.net
        }
        fn next_timer(&self) -> Option<SimTime> {
            match &self.index {
                Some(index) => index.peek(),
                None => self.actors.iter().filter_map(|a| a.deadline).min().map(SimTime),
            }
        }
        fn fire_timers(&mut self, now: SimTime) -> usize {
            let mut produced = 0;
            if let Some(index) = &mut self.index {
                let due = index.advance(now);
                for i in due {
                    produced += self.fire(i, now);
                    self.refresh(i);
                }
            } else {
                for i in 0..self.actors.len() {
                    if self.actors[i].deadline.is_some_and(|d| now.micros() >= d) {
                        produced += self.fire(i, now);
                    }
                }
            }
            produced
        }
        fn deliver(&mut self, env: Envelope) {
            let dst = self.nodes.iter().position(|&n| n == env.dst).unwrap();
            self.log.push(("deliver", env.delivered_at.micros(), dst));
            // A delivery re-arms an idle one-shot actor: exercises the
            // refresh-after-deliver hook on the index side.
            if self.actors[dst].mode == 0
                && self.actors[dst].deadline.is_none()
                && self.sends_left > 0
            {
                self.actors[dst].deadline =
                    Some(env.delivered_at.micros().saturating_add(self.actors[dst].period));
            }
            self.refresh(dst);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// On random actor populations and initial traffic, the
        /// index-backed hub is observationally identical to the
        /// poll-everyone hub — same interleaved timer/delivery log (order,
        /// instants, actor attribution), same `SettleOutcome`, same step
        /// counts.
        #[test]
        fn wheel_is_observationally_identical_to_poll_loop(
            seed in any::<u64>(),
            specs in proptest::collection::vec(
                (0u8..4, 0u64..200_000, 1u64..150_000),
                1..6,
            ),
            budget in 0u32..12,
            kicks in 0usize..4,
        ) {
            let actors: Vec<SynthActor> = specs
                .iter()
                .map(|&(mode, start, period)| SynthActor {
                    // Half the actors start armed (deadline near start),
                    // half disarmed until traffic wakes them.
                    deadline: (start % 2 == 0).then_some(start),
                    mode,
                    period,
                })
                .collect();
            let run = |indexed: bool| {
                let mut hub = SynthHub::new(seed, actors.clone(), budget, indexed);
                for k in 0..kicks.min(hub.nodes.len()) {
                    let dst = hub.nodes[k];
                    let src = hub.nodes[(k + 1) % hub.nodes.len()];
                    if src != dst {
                        hub.net.send(src, dst, vec![0xAA]);
                    }
                }
                let report = settle(&mut hub, 5_000);
                (hub.log, report.outcome, report.delivered, report.timer_rounds)
            };
            let (poll_log, poll_out, poll_del, poll_rounds) = run(false);
            let (index_log, index_out, index_del, index_rounds) = run(true);
            prop_assert_eq!(poll_log, index_log);
            prop_assert_eq!(poll_out, index_out);
            prop_assert_eq!(poll_del, index_del);
            prop_assert_eq!(poll_rounds, index_rounds);
        }
    }

    #[test]
    fn settle_drains_net_events_and_records_run_size() {
        let mut net = SimNet::new(9);
        let a = net.register("a");
        let b = net.register("b");
        net.set_link(a, b, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let mut hub = ScriptHub {
            net,
            deadline: None,
            productive: true,
            log: Vec::new(),
            obs: Some(Obs::new()),
            faults: FaultStats::default(),
        };
        hub.net.send_tagged(a, b, vec![0], Some(4)); // lost on the wire
        hub.net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(1)));
        hub.net.send(a, b, vec![1]); // delivered
        let r = settle(&mut hub, 100);
        assert!(r.outcome.is_quiescent());
        let obs = hub.obs.as_ref().unwrap();
        assert_eq!(obs.metrics.dropped, 1);
        assert_eq!(obs.txn(4).dropped, 1);
        let drop_ev =
            obs.events().iter().find(|e| matches!(e.kind, EventKind::Dropped { .. })).unwrap();
        assert_eq!(drop_ev.actor, b);
        assert_eq!(drop_ev.txn, Some(4));
        assert_eq!(obs.metrics.settle_steps.count(), 1);
        assert_eq!(obs.metrics.settle_steps.max(), Some(1), "one delivery, no timer rounds");
    }
}
