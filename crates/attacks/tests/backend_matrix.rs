//! The §5 attack suite is written once, against any transport: the E3
//! matrix must read the same, flag for flag, on the in-process channel
//! wire and over loopback TCP as on the deterministic simulator.

use tpnr_attacks::{matrix, run_on, AttackKind};
use tpnr_core::config::Ablation;
use tpnr_net::tcp::{ChannelNet, TcpNet};
use tpnr_net::transport::Transport;

/// `(attack, ablation, blocked)` for every E3 row, each run on a fresh
/// wire from `wire`, in [`matrix`] order.
fn flags<T: Transport>(mut wire: impl FnMut() -> T) -> Vec<(AttackKind, Ablation, bool)> {
    let mut rows = Vec::new();
    for attack in AttackKind::all() {
        for ablation in [Ablation::None, attack.matching_ablation()] {
            rows.push((attack, ablation, run_on(attack, ablation, wire()).blocked));
        }
    }
    rows
}

/// The E3 matrix's flags on the simulator.
fn simnet_flags() -> Vec<(AttackKind, Ablation, bool)> {
    matrix().into_iter().map(|o| (o.attack, o.ablation, o.blocked)).collect()
}

#[test]
fn the_matrix_reads_the_same_on_the_channel_wire() {
    assert_eq!(flags(ChannelNet::new), simnet_flags());
}

#[test]
fn the_matrix_reads_the_same_over_loopback_tcp() {
    if TcpNet::new().is_err() {
        eprintln!("loopback bind unavailable; skipping tcp test");
        return;
    }
    assert_eq!(flags(|| TcpNet::new().expect("loopback bind")), simnet_flags());
}

#[test]
fn unrelated_ablations_stay_blocked_on_the_channel_wire() {
    let unrelated = [
        (AttackKind::Mitm, Ablation::NoTimeLimits),
        (AttackKind::Replay, Ablation::NoKeyAuthentication),
        (AttackKind::Timeliness, Ablation::NoSequenceNumbers),
        (AttackKind::Interleaving, Ablation::NoSequenceNumbers),
    ];
    for (attack, ablation) in unrelated {
        let o = run_on(attack, ablation, ChannelNet::new());
        assert!(o.blocked, "{} vs {}: {}", attack.label(), ablation.label(), o.detail);
    }
}
