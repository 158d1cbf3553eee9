//! Guards the *shape* of every experiment against regressions: these are
//! the qualitative results EXPERIMENTS.md reports (who wins, what is
//! detected, where the TTP is needed). If a change flips any of these, the
//! reproduction no longer matches the paper.

use tpnr_bench_shapes::*;

/// Thin re-exports so the assertions below read like the EXPERIMENTS.md
/// tables. (The bench crate is not a dependency of the root package; the
/// experiments are re-run here through the public APIs they wrap.)
mod tpnr_bench_shapes {
    pub use tpnr::core::bridge::{DisputeScenario, SchemeKind};
    pub use tpnr::core::client::TimeoutStrategy;
    pub use tpnr::core::config::{Ablation, ProtocolConfig};
    pub use tpnr::core::message::MsgKind;
    pub use tpnr::core::runner::World;
    pub use tpnr::core::session::TxnState;
    pub use tpnr_attacks::{matrix, AttackKind};
    pub use tpnr_net::sim::LinkConfig;
    pub use tpnr_net::time::SimDuration;
}

#[test]
fn e2_shape_two_vs_four_steps() {
    // TPNR: 2 messages, 1 RTT. Baseline: 5 messages, 2 RTT. At every RTT.
    for rtt_ms in [10u64, 50, 100, 300] {
        let one_way = SimDuration::from_millis(rtt_ms / 2);
        let mut w = World::new(rtt_ms, ProtocolConfig::full());
        w.set_all_links(LinkConfig::ideal(one_way));
        let r = w.upload(b"k", vec![0u8; 1024], TimeoutStrategy::AbortFirst);
        assert_eq!(r.report.messages, 2);
        assert!(!r.report.ttp_used);

        let b = tpnr::core::baseline::run_exchange(rtt_ms, &[0u8; 1024], one_way).unwrap();
        assert!(b.messages >= 4);
        assert!(b.ttp_used);
        assert!(
            r.report.latency.micros() * 2 == b.latency.micros(),
            "TPNR settles in half the wall time ({} vs {})",
            r.report.latency.micros(),
            b.latency.micros()
        );
    }
}

#[test]
fn e3_shape_attack_matrix() {
    let rows = matrix();
    // Full protocol blocks all five attacks.
    assert!(rows.iter().filter(|r| r.ablation == Ablation::None).all(|r| r.blocked));
    // The three toggleable defences are each load-bearing.
    let succeeded: Vec<_> =
        rows.iter().filter(|r| !r.blocked).map(|r| (r.attack, r.ablation)).collect();
    assert!(succeeded.contains(&(AttackKind::Mitm, Ablation::NoKeyAuthentication)));
    assert!(succeeded.contains(&(AttackKind::Replay, Ablation::NoSequenceNumbers)));
    assert!(succeeded.contains(&(AttackKind::Timeliness, Ablation::NoTimeLimits)));
    // Reflection/interleaving are blocked structurally in every variant.
    assert!(rows
        .iter()
        .filter(|r| matches!(r.attack, AttackKind::Reflection | AttackKind::Interleaving))
        .all(|r| r.blocked));
    // …and the toy symmetric protocol demonstrates the attack class.
    assert!(tpnr_attacks::toy::reflection_attack_succeeds());
    assert!(tpnr_attacks::toy::interleaving_attack_succeeds());
}

#[test]
fn e6_shape_ttp_offline_at_zero_faults() {
    let mut w = World::new(60, ProtocolConfig::full());
    for i in 0..10u32 {
        let r = w.upload(
            format!("k{i}").as_bytes(),
            vec![0u8; 64],
            TimeoutStrategy::ResolveImmediately,
        );
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(!r.report.ttp_used, "healthy network must never touch the TTP");
    }
    let ttp = w.ttp_node;
    let resolves = w.obs.events().iter().filter(|e| e.msg_kind() == Some(MsgKind::Resolve));
    assert_eq!(resolves.filter(|e| e.actor == ttp).count(), 0, "no Resolve reached the TTP");
}

#[test]
fn e6_shape_ttp_engaged_under_faults() {
    let mut engaged = 0;
    for seed in 0..10u64 {
        let mut w = World::new(600 + seed, ProtocolConfig::full());
        let (a, b) = (w.alice_node, w.bob_node);
        w.net_mut().set_link(b, a, LinkConfig::lossy(SimDuration::from_millis(25), 0.9));
        let r = w.upload(b"k", vec![0u8; 64], TimeoutStrategy::ResolveImmediately);
        assert!(r.outcome.is_terminal());
        if r.report.ttp_used {
            engaged += 1;
        }
    }
    assert!(engaged >= 7, "90% receipt loss should engage the TTP almost always: {engaged}/10");
}

#[test]
fn e7_shape_bridging_schemes() {
    use tpnr::core::bridge::make_scheme;
    let coop = DisputeScenario { counterparty_cooperates: true, tac_available: true };
    let alone = DisputeScenario { counterparty_cooperates: false, tac_available: true };
    let lonely = DisputeScenario { counterparty_cooperates: false, tac_available: false };

    for kind in SchemeKind::all() {
        let mut s = make_scheme(kind, 70);
        s.upload(b"agreed");
        s.tamper(b"not agreed");
        // Everyone proves the tamper with full cooperation.
        assert_eq!(s.tamper_proven(coop), Some(true), "{}", kind.label());
        match kind {
            SchemeKind::Plain => {
                assert_eq!(s.tamper_proven(lonely), Some(true));
                assert!(s.dispute_power(lonely).attributable);
            }
            SchemeKind::SksOnly => {
                assert_eq!(s.tamper_proven(alone), None);
                assert!(!s.dispute_power(coop).attributable);
            }
            SchemeKind::TacOnly => {
                assert_eq!(s.tamper_proven(alone), Some(true));
                assert_eq!(s.tamper_proven(lonely), None);
            }
            SchemeKind::TacAndSks => {
                assert_eq!(s.tamper_proven(alone), Some(true));
            }
        }
    }
}

#[test]
fn e5_shape_protocol_negligible_vs_shipping() {
    let mut w = World::new(50, ProtocolConfig::full());
    w.set_all_links(LinkConfig::ideal(SimDuration::from_millis(50)));
    let r = w.upload(b"manifest", vec![0u8; 4096], TimeoutStrategy::AbortFirst);
    let protocol = r.report.latency.as_secs_f64();
    let shipping = SimDuration::from_hours(72).as_secs_f64();
    assert!(protocol / shipping < 1e-5);
}
