//! Deterministic fault injection and crash recovery.
//!
//! The paper's central robustness claim (§4.4) is that TPNR evidence stays
//! arbitrable *across faults*: the off-line TTP is contacted only when
//! something breaks, and whatever has been sealed before a failure must
//! still settle a dispute afterwards. This module supplies the machinery to
//! test that claim under *process* failure, not just message-level loss:
//!
//! - [`FaultPlan`] — a seed-driven, fully deterministic schedule of crashes
//!   (per-delivery probability, crash-at-Nth-delivery, crash-on-message-kind
//!   before/after processing) and TTP outage windows. Probabilities are
//!   integer permille so plans are `Eq` and runs are replayable bit-for-bit.
//! - Snapshots — `Client`, `Provider` and `Ttp` each have a `snapshot` and
//!   a `restore` (the contract is below). An actor restarts from its last
//!   *synced* snapshot; anything newer is the "lost dirty state" window,
//!   configurable via [`FaultPlan::sync_interval`]. Evidence-producing
//!   steps are write-ahead: a reply is only emitted after the state it
//!   acknowledges has been persisted, so sealed evidence is never lost by
//!   a crash.
//! - [`RetryPolicy`] — exponential backoff with deterministic jitter, a cap
//!   and an optional give-up bound, generalising the single fixed
//!   `response_timeout` the client used before. The default reproduces the
//!   legacy behaviour exactly (constant backoff, no jitter, never give up).
//! - [`FaultCtl`] — the runtime injector owned by the runner (single- or
//!   multi-client alike) and driven from `sched::settle` via the hub's
//!   timer surface: restart deadlines and outage boundaries show up as
//!   ordinary scheduler timers, so fault handling obeys the same deadline
//!   ordering as protocol timers.
//!
//! The snapshot contract. `Client` and `Provider` keep their transaction
//! records behind `Arc`s and their stored objects as `Bytes` handles, so a
//! snapshot shares them with the live actor by pointer; `Arc::make_mut`
//! copies a record only on its first change after the snapshot that
//! shares it. `restore` replaces the actor's *protocol* state (session
//! table, archived evidence, validator sequence state) with the
//! snapshot's, then applies a per-epoch sequence skip
//! ([`SEQ_RECOVERY_SKIP`]) so counters allocated in the lost dirty window
//! are never reused. Monotone telemetry (the clients' retry counters) and
//! the RNG are deliberately *not* restored: rolling an RNG back would
//! replay nonces, which is exactly the freshness violation the protocol
//! defends against.
//!
//! Determinism guarantee: a fault decision is a pure function of the plan,
//! the plan seed, and the (deterministic) sequence of deliveries and timer
//! rounds — no wall-clock, no ambient entropy. Same seed + same plan ⇒ the
//! same crashes at the same sim-times, byte-identical observability output.

use crate::message::MsgKind;
use tpnr_crypto::ChaChaRng;
use tpnr_net::time::{SimDuration, SimTime};

/// Sequence-number skip applied per restart epoch when a `Validator` is
/// restored from a snapshot. Any sends made in the lost dirty window used at
/// most this many sequence numbers, so skipping ahead guarantees a restarted
/// actor never reuses a (txn, seq) pair its peers may already have seen.
pub const SEQ_RECOVERY_SKIP: u64 = 1 << 16;

/// Where a [`FaultPlan::crash_on_msg`] crash lands relative to processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Crash on receipt: the message is lost, no state changes.
    Before,
    /// Crash after processing and durably persisting the resulting state
    /// (write-ahead), but before any reply leaves the machine. This models
    /// "Bob stored the object and sealed the receipt, but the receipt never
    /// made it onto the wire".
    After,
}

/// Verdict for a single delivery, computed by [`FaultCtl::delivery_verdict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliveryVerdict {
    /// Deliver and process normally.
    Proceed,
    /// Crash the recipient before it sees the message; the message is lost.
    CrashBefore,
    /// Process the message, persist the recipient's state, drop its replies,
    /// then crash it.
    CrashAfter,
}

/// Outcome of a durable-sync attempt ([`FaultCtl::sync_due`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncDecision {
    /// Not due yet (within the configured sync interval) — state stays dirty.
    Skip,
    /// Take and persist a fresh snapshot.
    Persist,
}

/// A deterministic, seed-driven fault schedule. The default plan is inert
/// (no faults, zero overhead in the runners).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the injector's private RNG (chaos rolls). Independent from
    /// the protocol actors' RNGs.
    pub seed: u64,
    /// Per-delivery crash probability (permille) for actors listed in
    /// `chaos_targets`. 300 ⇒ 30% chance per delivered message.
    pub crash_prob_permille: u32,
    /// Display names ("alice", "bob", "ttp", "client-0", …) of actors
    /// subject to random chaos crashes.
    pub chaos_targets: Vec<String>,
    /// Upper bound on random chaos crashes, so every run terminates. Does
    /// not bound the explicitly scheduled crashes below.
    pub max_chaos_crashes: u32,
    /// Crash an actor immediately before it processes its Nth delivery
    /// (1-based count of messages actually reaching it). One-shot.
    pub crash_at_delivery: Vec<(String, u64)>,
    /// Crash an actor the first time it receives a message of the given
    /// kind (a [`MsgKind::label`]), at the given point. One-shot.
    pub crash_on_msg: Vec<(String, String, CrashPoint)>,
    /// TTP outage windows `[start, end)` in sim-time; must be sorted by
    /// start. During a window the TTP is down and restores at `end`.
    pub ttp_outages: Vec<(SimTime, SimTime)>,
    /// How long a crashed actor stays down before restarting from snapshot.
    pub restart_delay: SimDuration,
    /// Durable-sync cadence: state is persisted when it is older than this
    /// (and always, write-ahead, when a step produces outgoing messages).
    /// Zero means sync after every processed event.
    pub sync_interval: SimDuration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no crashes, no outages.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            crash_prob_permille: 0,
            chaos_targets: Vec::new(),
            max_chaos_crashes: 0,
            crash_at_delivery: Vec::new(),
            crash_on_msg: Vec::new(),
            ttp_outages: Vec::new(),
            restart_delay: SimDuration::from_secs(2),
            sync_interval: SimDuration::from_micros(0),
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_inert(&self) -> bool {
        (self.crash_prob_permille == 0
            || self.chaos_targets.is_empty()
            || self.max_chaos_crashes == 0)
            && self.crash_at_delivery.is_empty()
            && self.crash_on_msg.is_empty()
            && self.ttp_outages.is_empty()
    }

    /// Seed the injector RNG.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable random chaos crashes for the named actors.
    pub fn with_chaos(mut self, targets: &[&str], prob_permille: u32, max_crashes: u32) -> Self {
        self.chaos_targets = targets.iter().map(|s| s.to_string()).collect();
        self.crash_prob_permille = prob_permille.min(1000);
        self.max_chaos_crashes = max_crashes;
        self
    }

    /// Crash `actor` just before its `n`th (1-based) processed delivery.
    pub fn with_crash_at_delivery(mut self, actor: &str, n: u64) -> Self {
        self.crash_at_delivery.push((actor.to_string(), n));
        self
    }

    /// Crash `actor` the first time it receives a `kind` message.
    pub fn with_crash_on_msg(mut self, actor: &str, kind: &str, point: CrashPoint) -> Self {
        self.crash_on_msg.push((actor.to_string(), kind.to_string(), point));
        self
    }

    /// Add a TTP outage window `[start, end)`.
    pub fn with_ttp_outage(mut self, start: SimTime, end: SimTime) -> Self {
        self.ttp_outages.push((start, end));
        self.ttp_outages.sort_by_key(|w| w.0);
        self
    }

    /// Downtime before a crashed actor restarts from its snapshot.
    pub fn with_restart_delay(mut self, delay: SimDuration) -> Self {
        self.restart_delay = delay;
        self
    }

    /// The "lost dirty state" window: how stale durable state may be.
    pub fn with_sync_interval(mut self, interval: SimDuration) -> Self {
        self.sync_interval = interval;
        self
    }
}

/// Retry schedule for the client's timeout-driven Abort/Resolve resends.
///
/// The nth wait (0-based attempt counter) is
/// `base × (backoff_factor_pct / 100)^n`, capped at `max_backoff`, plus a
/// deterministic jitter of up to `jitter_pct`% drawn from the client's
/// seeded RNG. `Default` reproduces the legacy fixed-timeout behaviour
/// exactly: constant backoff, no jitter (no RNG draws), never give up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Multiplier per attempt, in percent; 100 = constant (legacy),
    /// 200 = doubling. Values below 100 are clamped to 100.
    pub backoff_factor_pct: u32,
    /// Upper bound on a single wait.
    pub max_backoff: Option<SimDuration>,
    /// Deterministic jitter as a percentage of the computed wait (0 = none;
    /// when zero the client draws nothing from its RNG, preserving legacy
    /// nonce streams).
    pub jitter_pct: u32,
    /// Give up (declare the transaction `Failed`, evidence retained) after
    /// this many timeout-driven sends. `None` = retry forever (legacy).
    pub max_attempts: Option<u32>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::legacy()
    }
}

impl RetryPolicy {
    /// The pre-fault-subsystem behaviour: fixed timeout, unlimited retries.
    pub fn legacy() -> Self {
        RetryPolicy {
            backoff_factor_pct: 100,
            max_backoff: None,
            jitter_pct: 0,
            max_attempts: None,
        }
    }

    /// A sensible chaos-tolerant policy: doubling backoff capped at 4
    /// minutes, 10% jitter, bounded attempts.
    pub fn exponential(max_attempts: u32) -> Self {
        RetryPolicy {
            backoff_factor_pct: 200,
            max_backoff: Some(SimDuration::from_secs(240)),
            jitter_pct: 10,
            max_attempts: Some(max_attempts),
        }
    }

    /// The wait before the (0-based) `attempt`th timeout fires, without
    /// jitter. Saturating; capped at `max_backoff`.
    pub fn backoff(&self, base: SimDuration, attempt: u32) -> SimDuration {
        let factor = self.backoff_factor_pct.max(100) as u64;
        let cap = self.max_backoff.map(|c| c.micros()).unwrap_or(u64::MAX);
        let mut us = base.micros().min(cap);
        if factor > 100 {
            // 64 doublings saturate u64; no need to loop further.
            for _ in 0..attempt.min(64) {
                let next = u128::from(us) * u128::from(factor) / 100;
                us = u64::try_from(next).unwrap_or(u64::MAX);
                if us >= cap {
                    us = cap;
                    break;
                }
            }
        }
        SimDuration::from_micros(us)
    }

    /// True once `attempts` timeout-driven sends have been spent.
    pub fn exhausted(&self, attempts: u32) -> bool {
        match self.max_attempts {
            Some(m) => attempts >= m,
            None => false,
        }
    }
}

/// Monotone counters kept by the client for its retry machinery; excluded
/// from snapshots so restarts never undercount.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Timeout-driven sends beyond a transaction's first (resends).
    pub retries: u64,
    /// Transactions abandoned after `max_attempts` (evidence retained).
    pub gave_up: u64,
}

/// Aggregate fault-injection counters, surfaced in `SettleReport::faults`
/// and assembled by `Runner::fault_counters` from their one owner each.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Actor crashes injected (chaos + scheduled + outage starts): the
    /// obs sink's count of `Crashed` events.
    pub crashes: u64,
    /// Restarts completed (restore from snapshot): the obs sink's count of
    /// `Restarted` events.
    pub restarts: u64,
    /// Client resends driven by the retry policy, summed over the clients'
    /// retry counters.
    pub retries: u64,
    /// Transactions the retry policy abandoned (still arbitrable), summed
    /// the same way.
    pub gave_up: u64,
    /// The persisted snapshot's size (each actor's `bytes()`), summed over
    /// syncs by the fault injector: how much durable state the syncs
    /// covered. It is not bytes copied, since a snapshot shares records and
    /// stored objects with the actor by pointer.
    pub snapshot_bytes: u64,
}

/// Fault wakeups processed by [`FaultCtl::poll`] at the top of a timer
/// round: outage-initiated crashes and restarts that have come due, as
/// actor slots.
#[derive(Debug, Default)]
pub struct FaultEvents {
    /// Slots crashed by an outage window opening at this instant (the TTP's).
    pub crashed: Vec<usize>,
    /// Slots whose downtime ended, ascending; the hub must restore each
    /// from its snapshot.
    pub restarted: Vec<usize>,
}

/// Runtime fault injector. Owned by the runner (`core::runner::Runner`),
/// which addresses actors by slot: with `n` clients, client `i` is slot
/// `i`, the provider slot `n` and the TTP slot `n + 1`. The plan names
/// actors; the names are resolved to slots once, at construction, and
/// every per-actor counter is a `Vec` indexed by slot, so no ruling
/// allocates and same-instant restarts come back in slot order.
pub struct FaultCtl {
    plan: FaultPlan,
    rng: ChaChaRng,
    /// The TTP's slot (the last), which outage windows take down.
    ttp: usize,
    /// Per slot: the restart instant while the actor is down.
    down_until: Vec<Option<SimTime>>,
    /// The earliest of `down_until`, read by the scheduler every step.
    next_restart: Option<SimTime>,
    /// Per slot: deliveries that reached the actor.
    delivery_count: Vec<u64>,
    /// Per slot: the last durable sync instant, `None` before the first.
    last_sync: Vec<Option<SimTime>>,
    /// Per slot: whether chaos rolls target the actor.
    chaos_target: Vec<bool>,
    /// The slot of each `plan.crash_at_delivery` rule; `None` once the
    /// one-shot rule fired, or when no actor bears its name.
    at_delivery: Vec<Option<usize>>,
    /// The slot of each `plan.crash_on_msg` rule, consumed the same way.
    on_msg: Vec<Option<usize>>,
    /// Next unentered outage window index.
    outage_idx: usize,
    chaos_injected: u32,
    /// Snapshot sizes summed over the syncs persisted so far; see
    /// [`FaultStats::snapshot_bytes`].
    pub(crate) snapshot_bytes: u64,
}

impl FaultCtl {
    /// Build an injector for `plan` over actors with display names `names`,
    /// in slot order (clients, provider, TTP). A plan name resolves to the
    /// first slot bearing it; a rule naming no actor never fires, but still
    /// counts towards `active()`. Inert plans cost nothing at runtime:
    /// `active()` is false and the runners skip all fault paths.
    pub fn new(plan: &FaultPlan, names: &[&str]) -> Self {
        let slot = |name: &String| names.iter().position(|n| n == name);
        let mut chaos_target = vec![false; names.len()];
        for s in plan.chaos_targets.iter().filter_map(slot) {
            chaos_target[s] = true;
        }
        FaultCtl {
            rng: ChaChaRng::seed_from_u64(plan.seed ^ 0xfa017),
            ttp: names.len().saturating_sub(1),
            down_until: vec![None; names.len()],
            next_restart: None,
            delivery_count: vec![0; names.len()],
            last_sync: vec![None; names.len()],
            chaos_target,
            at_delivery: plan.crash_at_delivery.iter().map(|(a, _)| slot(a)).collect(),
            on_msg: plan.crash_on_msg.iter().map(|(a, _, _)| slot(a)).collect(),
            outage_idx: 0,
            chaos_injected: 0,
            snapshot_bytes: 0,
            plan: plan.clone(),
        }
    }

    /// Whether any fault machinery (snapshots, crash rolls) must run.
    pub fn active(&self) -> bool {
        !self.plan.is_inert()
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True while the actor in `slot` is crashed and awaiting restart.
    /// Restarts are processed by `poll` at the scheduler's timer phase,
    /// which the tie-break runs *before* same-instant deliveries, so a
    /// marked-down actor is genuinely down for every delivery that
    /// observes it.
    pub fn is_down(&self, slot: usize) -> bool {
        self.down_until[slot].is_some()
    }

    /// Decide the fate of a delivery of a `kind` message to the (live)
    /// actor in `slot`. Consumes one-shot schedule entries and chaos RNG
    /// rolls.
    pub fn delivery_verdict(&mut self, slot: usize, kind: MsgKind) -> DeliveryVerdict {
        self.delivery_count[slot] += 1;
        let n = self.delivery_count[slot];
        let mut rules = self.at_delivery.iter_mut().zip(&self.plan.crash_at_delivery);
        if let Some((rule, _)) = rules.find(|(s, (_, at))| **s == Some(slot) && *at == n) {
            *rule = None;
            return DeliveryVerdict::CrashBefore;
        }
        let mut rules = self.on_msg.iter_mut().zip(&self.plan.crash_on_msg);
        if let Some((rule, (_, _, point))) =
            rules.find(|(s, (_, k, _))| **s == Some(slot) && k == kind.label())
        {
            *rule = None;
            return match point {
                CrashPoint::Before => DeliveryVerdict::CrashBefore,
                CrashPoint::After => DeliveryVerdict::CrashAfter,
            };
        }
        if self.plan.crash_prob_permille > 0
            && self.chaos_injected < self.plan.max_chaos_crashes
            && self.chaos_target[slot]
            && self.rng.gen_below(1000) < u64::from(self.plan.crash_prob_permille)
        {
            self.chaos_injected += 1;
            return if self.rng.gen_below(2) == 0 {
                DeliveryVerdict::CrashBefore
            } else {
                DeliveryVerdict::CrashAfter
            };
        }
        DeliveryVerdict::Proceed
    }

    /// Keeps the actor in `slot` down until at least `until`: extends an
    /// existing downtime rather than shortening it. Returns the restart
    /// instant.
    fn down_until_at_least(&mut self, slot: usize, until: SimTime) -> SimTime {
        let until = self.down_until[slot].map_or(until, |t| t.max(until));
        self.down_until[slot] = Some(until);
        self.next_restart = self.down_until.iter().flatten().min().copied();
        until
    }

    /// Mark the actor in `slot` down now; returns the restart instant (a
    /// scheduler timer). Extends existing downtime rather than shortening
    /// it.
    pub fn crash(&mut self, slot: usize, now: SimTime) -> SimTime {
        // A zero delay still needs one timer round to restart, so keep the
        // restart strictly after `now`.
        let delay_us = self.plan.restart_delay.micros().max(1);
        self.down_until_at_least(slot, now.after(SimDuration::from_micros(delay_us)))
    }

    /// Process fault wakeups at timer phase: open outage windows (crashing
    /// the TTP) and complete restarts that have come due, in slot order.
    pub fn poll(&mut self, now: SimTime) -> FaultEvents {
        let mut ev = FaultEvents::default();
        while let Some(&(start, end)) = self.plan.ttp_outages.get(self.outage_idx) {
            if now < start {
                break;
            }
            self.outage_idx += 1;
            if now < end {
                self.down_until_at_least(self.ttp, end);
                ev.crashed.push(self.ttp);
            }
        }
        if self.next_restart.is_some_and(|t| now >= t) {
            for (slot, until) in self.down_until.iter_mut().enumerate() {
                if until.is_some_and(|t| now >= t) {
                    *until = None;
                    ev.restarted.push(slot);
                }
            }
            self.next_restart = self.down_until.iter().flatten().min().copied();
        }
        ev
    }

    /// The earliest fault wakeup: a pending restart or the next outage
    /// start. Feeds the hub's `next_timer` so `sched::settle` advances the
    /// clock through downtime instead of stalling.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let outage = self.plan.ttp_outages.get(self.outage_idx).map(|w| w.0);
        match (self.next_restart, outage) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Decide whether the durable state of the actor in `slot` should be
    /// synced now. `force` bypasses the interval check (write-ahead before
    /// emitting output).
    pub fn sync_due(&mut self, slot: usize, now: SimTime, force: bool) -> SyncDecision {
        // An actor with no recorded sync has never persisted: always due.
        let last = &mut self.last_sync[slot];
        if !force && last.is_some_and(|t| now < t.after(self.plan.sync_interval)) {
            return SyncDecision::Skip;
        }
        *last = Some(now);
        SyncDecision::Persist
    }

    /// Account a persisted snapshot of `bytes` bytes.
    pub fn note_snapshot(&mut self, bytes: u64) {
        self.snapshot_bytes += bytes;
    }
}

/// Rough serialized weight of one piece of evidence, from the lengths of
/// its variable fields: plaintext fields + both signatures. Used to size
/// snapshots honestly without an encode or a decode pass.
pub(crate) fn evidence_bytes(e: crate::evidence::EvidenceLens) -> u64 {
    // Fixed plaintext fields: flag (1) + three principal ids (32 each) +
    // txn/seq/nonce/time-limit (8 each) + alg tag (1).
    let fixed = 1 + 3 * 32 + 4 * 8 + 1;
    (fixed + e.object + e.data_hash + e.sigs) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `World`'s actors in slot order.
    const NAMES: &[&str] = &["alice", "bob", "ttp"];
    const ALICE: usize = 0;
    const BOB: usize = 1;
    const TTP: usize = 2;

    #[test]
    fn default_plan_is_inert() {
        assert!(FaultPlan::none().is_inert());
        assert!(!FaultCtl::new(&FaultPlan::none(), NAMES).active());
    }

    #[test]
    fn chaos_without_budget_is_inert() {
        let plan = FaultPlan::none().with_chaos(&["alice"], 300, 0);
        assert!(plan.is_inert());
        let plan = FaultPlan::none().with_chaos(&[], 300, 8);
        assert!(plan.is_inert());
        let plan = FaultPlan::none().with_chaos(&["alice"], 300, 8);
        assert!(!plan.is_inert());
    }

    #[test]
    fn legacy_policy_is_constant_and_unbounded() {
        let p = RetryPolicy::legacy();
        let base = SimDuration::from_secs(30);
        for attempt in [0, 1, 5, 1000] {
            assert_eq!(p.backoff(base, attempt), base);
            assert!(!p.exhausted(attempt));
        }
    }

    #[test]
    fn exponential_backoff_doubles_and_caps() {
        let p = RetryPolicy {
            backoff_factor_pct: 200,
            max_backoff: Some(SimDuration::from_secs(120)),
            jitter_pct: 0,
            max_attempts: Some(4),
        };
        let base = SimDuration::from_secs(30);
        assert_eq!(p.backoff(base, 0), SimDuration::from_secs(30));
        assert_eq!(p.backoff(base, 1), SimDuration::from_secs(60));
        assert_eq!(p.backoff(base, 2), SimDuration::from_secs(120));
        assert_eq!(p.backoff(base, 3), SimDuration::from_secs(120));
        assert_eq!(p.backoff(base, 10_000), SimDuration::from_secs(120));
        assert!(!p.exhausted(3));
        assert!(p.exhausted(4));
    }

    #[test]
    fn backoff_saturates_without_cap() {
        let p = RetryPolicy {
            backoff_factor_pct: 200,
            max_backoff: None,
            jitter_pct: 0,
            max_attempts: None,
        };
        let big = p.backoff(SimDuration::from_secs(30), 1_000);
        assert_eq!(big.micros(), u64::MAX);
    }

    #[test]
    fn crash_at_delivery_is_one_shot_and_counts_per_actor() {
        let plan = FaultPlan::none().with_crash_at_delivery("bob", 2);
        let mut ctl = FaultCtl::new(&plan, NAMES);
        assert_eq!(ctl.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::Proceed);
        assert_eq!(ctl.delivery_verdict(ALICE, MsgKind::Receipt), DeliveryVerdict::Proceed);
        assert_eq!(ctl.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::CrashBefore);
        // One-shot: the next 2nd-style delivery does not crash again.
        assert_eq!(ctl.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::Proceed);
    }

    #[test]
    fn crash_on_msg_kind_honours_point_and_is_one_shot() {
        let plan = FaultPlan::none()
            .with_crash_on_msg("ttp", "Resolve", CrashPoint::Before)
            .with_crash_on_msg("bob", "Transfer", CrashPoint::After);
        let mut ctl = FaultCtl::new(&plan, NAMES);
        assert_eq!(ctl.delivery_verdict(TTP, MsgKind::Resolve), DeliveryVerdict::CrashBefore);
        assert_eq!(ctl.delivery_verdict(TTP, MsgKind::Resolve), DeliveryVerdict::Proceed);
        assert_eq!(ctl.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::CrashAfter);
        assert_eq!(ctl.delivery_verdict(BOB, MsgKind::Transfer), DeliveryVerdict::Proceed);
    }

    #[test]
    fn crash_and_poll_round_trip() {
        let plan = FaultPlan::none()
            .with_crash_on_msg("bob", "Transfer", CrashPoint::Before)
            .with_restart_delay(SimDuration::from_secs(5));
        let mut ctl = FaultCtl::new(&plan, NAMES);
        let t0 = SimTime::ZERO.after(SimDuration::from_secs(1));
        let until = ctl.crash(BOB, t0);
        assert_eq!(until, t0.after(SimDuration::from_secs(5)));
        assert!(ctl.is_down(BOB));
        assert_eq!(ctl.next_wakeup(), Some(until));
        let ev = ctl.poll(t0.after(SimDuration::from_secs(4)));
        assert!(ev.restarted.is_empty());
        assert!(ctl.is_down(BOB));
        let ev = ctl.poll(until);
        assert_eq!(ev.restarted, vec![BOB]);
        assert!(!ctl.is_down(BOB));
        assert_eq!(ctl.next_wakeup(), None);
    }

    #[test]
    fn outage_window_downs_ttp_until_end() {
        let s = SimTime::ZERO.after(SimDuration::from_secs(10));
        let e = SimTime::ZERO.after(SimDuration::from_secs(20));
        let plan = FaultPlan::none().with_ttp_outage(s, e);
        let mut ctl = FaultCtl::new(&plan, NAMES);
        assert!(!ctl.is_down(TTP));
        assert_eq!(ctl.next_wakeup(), Some(s));
        let ev = ctl.poll(s);
        assert_eq!(ev.crashed, vec![TTP]);
        assert!(ctl.is_down(TTP));
        assert_eq!(ctl.next_wakeup(), Some(e));
        let ev = ctl.poll(e);
        assert_eq!(ev.restarted, vec![TTP]);
        assert!(!ctl.is_down(TTP));
    }

    #[test]
    fn plan_names_resolve_to_slots_once_and_restarts_come_back_in_slot_order() {
        // Slot order is not name order here: "zed" sits before "amy".
        let names = &["zed", "amy", "bob", "ttp"];
        let plan = FaultPlan::none().with_crash_at_delivery("absent", 1);
        let mut ctl = FaultCtl::new(&plan, names);
        assert!(ctl.active(), "a rule naming no actor still keeps the injector on");
        assert_eq!(ctl.delivery_verdict(0, MsgKind::Transfer), DeliveryVerdict::Proceed);
        let until = ctl.crash(1, SimTime::ZERO);
        assert_eq!(ctl.crash(0, SimTime::ZERO), until);
        assert!(ctl.is_down(0) && ctl.is_down(1) && !ctl.is_down(2));
        assert_eq!(ctl.poll(until).restarted, vec![0, 1]);
        assert_eq!(ctl.next_wakeup(), None);
    }

    #[test]
    fn sync_interval_gates_and_force_overrides() {
        let plan = FaultPlan::none()
            .with_crash_on_msg("bob", "Transfer", CrashPoint::Before)
            .with_sync_interval(SimDuration::from_secs(10));
        let mut ctl = FaultCtl::new(&plan, NAMES);
        let t0 = SimTime::ZERO;
        // First sync at t=0 is due (never synced).
        assert_eq!(ctl.sync_due(ALICE, t0, false), SyncDecision::Persist);
        let t1 = t0.after(SimDuration::from_secs(5));
        assert_eq!(ctl.sync_due(ALICE, t1, false), SyncDecision::Skip);
        assert_eq!(ctl.sync_due(ALICE, t1, true), SyncDecision::Persist);
        let t2 = t1.after(SimDuration::from_secs(10));
        assert_eq!(ctl.sync_due(ALICE, t2, false), SyncDecision::Persist);
    }

    #[test]
    fn chaos_rolls_are_deterministic_and_bounded() {
        let plan = FaultPlan::none().with_seed(7).with_chaos(&["bob"], 500, 3);
        let run = |plan: &FaultPlan| {
            let mut ctl = FaultCtl::new(plan, NAMES);
            (0..200).map(|_| ctl.delivery_verdict(BOB, MsgKind::Transfer)).collect::<Vec<_>>()
        };
        let a = run(&plan);
        let b = run(&plan);
        assert_eq!(a, b);
        let crashes = a.iter().filter(|v| **v != DeliveryVerdict::Proceed).count();
        assert_eq!(crashes, 3, "chaos budget caps injections");
    }
}
