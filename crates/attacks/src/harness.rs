//! The attack harness: the five attack kinds, the `Stage` each attack is
//! played on, and the E3 attack × ablation matrix.
//!
//! Every attack is written once, against [`GenericWorld`] over any
//! [`Transport`]. The adversary owns the network and nothing else: it acts
//! only through the wire (interceptor taps, `Modify`, `Drop`, `Delay`, and
//! spoofed `send_tagged` frames), and each attack is judged from the
//! deployment's state once the world has settled. E3 runs the suite on
//! [`SimNet`] for every ablation ([`run`], [`matrix`]); E14 runs it under
//! the full protocol on every backend ([`run_on`]).

use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Mutex, MutexGuard};
use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::obs::EventKind;
use tpnr_core::runner::{GenericWorld, TxnResult};
use tpnr_core::sched::SettleOutcome;
use tpnr_net::sim::{Action, NodeId, SimNet};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// The step cap of every settle an attack runs: four times the most steps
/// one settle of the ten E3 runs was measured to take, 17. That is
/// interleaving's second session on loopback TCP, where a frame landing
/// during a timer wait costs a step of its own (10 to 17 over a dozen
/// runs); on SimNet and ChannelNet it takes 10. On a real wire a livelock
/// waits out a 500 ms timer per step, so the cap is what ends it.
const MAX_STEPS: usize = 68;

/// The five §5 attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// §5.1 man-in-the-middle key substitution.
    Mitm,
    /// §5.2 reflection.
    Reflection,
    /// §5.3 interleaving.
    Interleaving,
    /// §5.4 replay.
    Replay,
    /// §5.5 timeliness (indefinite delay).
    Timeliness,
}

impl AttackKind {
    /// All five, paper order.
    pub fn all() -> [AttackKind; 5] {
        [
            AttackKind::Mitm,
            AttackKind::Reflection,
            AttackKind::Interleaving,
            AttackKind::Replay,
            AttackKind::Timeliness,
        ]
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::Mitm => "man-in-the-middle",
            AttackKind::Reflection => "reflection",
            AttackKind::Interleaving => "interleaving",
            AttackKind::Replay => "replay",
            AttackKind::Timeliness => "timeliness",
        }
    }

    /// The ablation that removes this attack's §5 defence (None where the
    /// defence is structural and cannot be toggled — see [`crate::toy`]).
    pub fn matching_ablation(self) -> Ablation {
        match self {
            AttackKind::Mitm => Ablation::NoKeyAuthentication,
            AttackKind::Reflection => Ablation::NoIdentityBinding,
            AttackKind::Interleaving => Ablation::NoIdentityBinding,
            AttackKind::Replay => Ablation::NoSequenceNumbers,
            AttackKind::Timeliness => Ablation::NoTimeLimits,
        }
    }

    /// The seed of the world this attack is played in.
    fn seed(self) -> u64 {
        match self {
            AttackKind::Mitm => 31,
            AttackKind::Replay => 41,
            AttackKind::Timeliness => 51,
            AttackKind::Reflection => 61,
            AttackKind::Interleaving => 71,
        }
    }
}

/// Result of one attack run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackOutcome {
    /// Attack that ran.
    pub attack: AttackKind,
    /// Protocol variant it ran against.
    pub ablation: Ablation,
    /// Whether the protocol stopped the attack.
    pub blocked: bool,
    /// Human-readable explanation of what happened.
    pub detail: String,
}

/// Runs `attack` against `ablation`'s protocol variant on `net`.
pub fn run_on<T: Transport>(attack: AttackKind, ablation: Ablation, net: T) -> AttackOutcome {
    match attack {
        AttackKind::Mitm => crate::mitm::run(net, ablation),
        AttackKind::Reflection => crate::reflection::run(net, ablation),
        AttackKind::Interleaving => crate::interleave::run(net, ablation),
        AttackKind::Replay => crate::replay::run(net, ablation),
        AttackKind::Timeliness => crate::timeliness::run(net, ablation),
    }
}

/// One row of the E3 matrix, on the deterministic simulator.
pub fn run(attack: AttackKind, ablation: Ablation) -> AttackOutcome {
    run_on(attack, ablation, SimNet::new(attack.seed()))
}

/// The full E3 matrix: every attack against the full protocol and against
/// its matching ablation.
pub fn matrix() -> Vec<AttackOutcome> {
    let pair = |a: AttackKind| [run(a, Ablation::None), run(a, a.matching_ablation())];
    AttackKind::all().into_iter().flat_map(pair).collect()
}

/// A frame on the wire: its source, its destination and its bytes.
type Frame = (NodeId, NodeId, Vec<u8>);

/// Frames a wiretap recorded, in wire order.
#[derive(Clone, Default)]
pub(crate) struct Tape(Arc<Mutex<Vec<Frame>>>);

impl Tape {
    fn frames(&self) -> MutexGuard<'_, Vec<Frame>> {
        self.0.lock().expect("nothing panics while holding the tape")
    }

    /// The first frame recorded from `src` to `dst`.
    pub(crate) fn first(&self, src: NodeId, dst: NodeId) -> Vec<u8> {
        let frames = self.frames();
        let found = frames.iter().find(|(s, d, _)| (*s, *d) == (src, dst));
        found.expect("the tap recorded a frame on this link").2.clone()
    }

    /// Every frame recorded so far, emptying the tape.
    pub(crate) fn take(&self) -> Vec<Frame> {
        std::mem::take(&mut self.frames())
    }
}

/// The deployment one attack is played on: Alice, Bob and the TTP over
/// the attack's wire, running the protocol variant under attack.
pub(crate) struct Stage<T: Transport> {
    w: GenericWorld<T>,
    /// The protocol configuration every honest party runs.
    pub(crate) cfg: ProtocolConfig,
    attack: AttackKind,
    ablation: Ablation,
}

impl<T: Transport> Stage<T> {
    /// The world `attack` is played in on `net`. Every attack waits 500 ms
    /// for a response, so a real wire waits out a timer in under a second,
    /// and gives evidence a 150 ms time limit, which timeliness's 300 ms
    /// hold outlives. A session the TTP recovers, as interleaving's second
    /// is, gets Bob's receipt relayed after that limit; Alice takes it as
    /// fresh because her resolve is open.
    pub(crate) fn new(net: T, attack: AttackKind, ablation: Ablation) -> Self {
        let cfg = ProtocolConfig::builder()
            .ablation(ablation)
            .response_timeout(SimDuration::from_millis(500))
            .message_time_limit(SimDuration::from_millis(150))
            .build();
        let mut w = GenericWorld::with_transport(net, attack.seed(), cfg.clone());
        w.max_steps = MAX_STEPS;
        Stage { w, cfg, attack, ablation }
    }

    /// Settles the world, panicking — naming the attack — unless it went
    /// quiet: an attack never judges a half-settled world.
    pub(crate) fn settle(&mut self) {
        let outcome = self.w.settle().outcome;
        self.expect_quiet(outcome);
    }

    fn expect_quiet(&self, outcome: SettleOutcome) {
        assert!(
            outcome.is_quiescent(),
            "{} attack: the world did not settle within {MAX_STEPS} steps ({outcome:?})",
            self.attack.label()
        );
    }

    /// An honest upload by Alice, settled.
    pub(crate) fn alice_uploads(&mut self, key: &[u8], data: &[u8]) -> TxnResult {
        let r = self.w.upload(key, data.to_vec(), TimeoutStrategy::AbortFirst);
        self.expect_quiet(r.settle.expect("initiation"));
        r
    }

    /// Installs a passive wiretap: every frame is recorded, then delivered.
    pub(crate) fn tap(&mut self) -> Tape {
        let tape = Tape::default();
        let rec = tape.clone();
        self.w.net_mut().set_interceptor(Box::new(move |src, dst, frame: &[u8], _| {
            rec.frames().push((src, dst, frame.to_vec()));
            Action::Deliver
        }));
        tape
    }

    /// Puts `frame` on the wire as if `src` had sent it to `dst`, untagged,
    /// and settles.
    pub(crate) fn spoof(&mut self, src: NodeId, dst: NodeId, frame: impl Into<Bytes>) {
        self.w.net_mut().send_tagged(src, dst, frame.into(), None);
        self.settle();
    }

    /// Why `actor` refused the attack: the first rejection it recorded, or
    /// `otherwise` when it rejected nothing.
    pub(crate) fn refusal(&self, actor: NodeId, otherwise: &str) -> String {
        let first = self.w.obs.events().iter().find_map(|e| match &e.kind {
            EventKind::Rejected { error, .. } if e.actor == actor => Some(error.to_string()),
            _ => None,
        });
        first.unwrap_or_else(|| otherwise.to_string())
    }

    /// The verdict: `hit` describes the attack succeeding, `refused` the
    /// protocol blocking it.
    pub(crate) fn outcome(&self, succeeded: bool, hit: &str, refused: String) -> AttackOutcome {
        AttackOutcome {
            attack: self.attack,
            ablation: self.ablation,
            blocked: !succeeded,
            detail: if succeeded { hit.to_string() } else { refused },
        }
    }
}

impl<T: Transport> Deref for Stage<T> {
    type Target = GenericWorld<T>;

    fn deref(&self) -> &GenericWorld<T> {
        &self.w
    }
}

impl<T: Transport> DerefMut for Stage<T> {
    fn deref_mut(&mut self) -> &mut GenericWorld<T> {
        &mut self.w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_ablations_cover_all() {
        for a in AttackKind::all() {
            assert!(!a.label().is_empty());
            let _ = a.matching_ablation();
        }
    }
}
