//! Adversarial runs must be visible in the observability layer: every
//! injected replay the provider refuses shows up as a Rejected event with
//! the right `ValidationError` variant, and the counters tie out against
//! the simulator's own adversary statistics.

use tpnr_core::client::TimeoutStrategy;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::message::MsgKind;
use tpnr_core::obs::EventKind;
use tpnr_core::runner::World;
use tpnr_net::sim::Action;
use tpnr_net::transport::Transport;

#[test]
fn injected_replays_show_up_in_rejected_counters() {
    let mut w = World::new(77, ProtocolConfig::full());
    let (alice, bob) = (w.alice_node, w.bob_node);
    // The adversary replays every alice→bob frame verbatim. Injections are
    // untagged on the wire, so attribution must come from the decoded
    // protocol header.
    w.net_mut().set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
        if src == alice && dst == bob {
            Action::InjectAfter(vec![(src, dst, payload.to_vec())])
        } else {
            Action::Deliver
        }
    }));

    let r1 = w.upload(b"doc", b"version 1".to_vec(), TimeoutStrategy::AbortFirst);
    let r2 = w.upload(b"doc", b"version 2".to_vec(), TimeoutStrategy::AbortFirst);
    assert_eq!(w.provider.peek_storage(b"doc"), Some(&b"version 2"[..]));

    // One Transfer per upload was replayed; both replays were refused as
    // stale and both refusals are on the record.
    assert_eq!(w.net().stats().injected, 2);
    let m = &w.obs.metrics;
    assert_eq!(m.rejected, 2);
    assert_eq!(m.rejected_by.get("stale-sequence"), Some(&2));
    assert_eq!(m.rejected_by.values().sum::<u64>(), 2);
    assert_eq!(m.garbled, 0, "replays decode fine; they are rejected, not garbled");

    // The provider's share of the sink agrees: one genuine Transfer
    // accepted and one replay refused per upload, at Bob's node.
    let at_bob = |kind: fn(&EventKind) -> bool| {
        w.obs.events().iter().filter(|e| e.actor == w.bob_node && kind(&e.kind)).count()
    };
    assert_eq!(at_bob(|k| matches!(k, EventKind::Delivered { .. })), 2);
    assert_eq!(at_bob(|k| matches!(k, EventKind::Rejected { .. })), 2);

    // Each Rejected event is attributed to the session it replays into,
    // via the decoded header (the wire tag is absent on injections).
    let rejected: Vec<_> =
        w.obs.events().iter().filter(|e| matches!(e.kind, EventKind::Rejected { .. })).collect();
    assert_eq!(rejected.len(), 2);
    let mut txns: Vec<_> = rejected.iter().map(|e| e.txn).collect();
    txns.sort_unstable();
    let mut expected = vec![Some(r1.txn_id), Some(r2.txn_id)];
    expected.sort_unstable();
    assert_eq!(txns, expected);
    assert!(rejected
        .iter()
        .all(|e| e.actor == w.bob_node && e.msg_kind() == Some(MsgKind::Transfer)));
}
