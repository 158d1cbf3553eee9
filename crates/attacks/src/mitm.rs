//! §5.1 man-in-the-middle: key substitution.
//!
//! Mallory binds her own public key to Alice's identity in the provider's
//! key store and then forges an upload "from Alice" carrying planted data,
//! signed with Mallory's key, and puts it on the wire from Alice's node.
//! If the provider authenticates public keys against the certified
//! directory (the paper's prescription), the forged evidence fails
//! verification; with authentication ablated, the provider accepts the
//! upload, stores the planted data, and archives "evidence" that frames
//! Alice.

use crate::harness::{AttackKind, AttackOutcome, Stage};
use tpnr_core::config::Ablation;
use tpnr_core::evidence::{seal, EvidencePlaintext, Flag};
use tpnr_core::message::Message;
use tpnr_core::principal::Principal;
use tpnr_core::session::Payload;
use tpnr_crypto::ChaChaRng;
use tpnr_net::codec::Wire;
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Runs the MITM attack against the given protocol variant on `net`.
pub fn run<T: Transport>(net: T, ablation: Ablation) -> AttackOutcome {
    let mut s = Stage::new(net, AttackKind::Mitm, ablation);
    let alice_id = s.client.id();
    let bob_id = s.provider.id();
    let mallory = Principal::test("mallory", 0xbad);
    let mut rng = ChaChaRng::seed_from_u64(0xbad_0bad);

    // Poison the provider's wire-learned key store: "Alice's key" is now
    // Mallory's. (Only consulted when key authentication is off.)
    s.provider.learn_wire_key(alice_id, mallory.public().clone());

    // Forge the transfer.
    let payload = Payload { key: b"ledger".to_vec(), data: b"planted by mallory".to_vec().into() };
    let pt = EvidencePlaintext {
        flag: Flag::UploadRequest,
        sender: alice_id, // the lie
        recipient: bob_id,
        ttp: s.ttp.id(),
        txn_id: 5555,
        seq: 1,
        nonce: rng.next_u64(),
        time_limit: s.net().now().after(SimDuration::from_secs(120)),
        object: payload.key.clone(),
        hash_alg: s.cfg.hash_alg,
        data_hash: payload.hash(s.cfg.hash_alg),
    };
    let bob_pk = s.dir.lookup(&bob_id).expect("bob registered").clone();
    let sealed = seal(&s.cfg, &mallory, &bob_pk, &pt, &mut rng).expect("sealing");
    let forged =
        Message::Transfer { plaintext: pt, data: payload.to_wire_bytes(), evidence: sealed };
    let (a, b) = (s.alice_node, s.bob_node);
    s.spoof(a, b, forged.to_wire_bytes());

    let planted = s.provider.peek_storage(b"ledger") == Some(&b"planted by mallory"[..]);
    s.outcome(
        planted,
        "provider accepted a forged upload attributed to Alice and archived framing 'evidence' \
         signed by Mallory's substituted key",
        format!("provider rejected the forged transfer: {}", s.refusal("bob", "no data stored")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;

    #[test]
    fn full_protocol_blocks_mitm() {
        let o = harness::run(AttackKind::Mitm, Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn ablated_key_auth_admits_mitm() {
        let o = harness::run(AttackKind::Mitm, Ablation::NoKeyAuthentication);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_mitm() {
        // Removing time limits must not open the key-substitution hole.
        let o = harness::run(AttackKind::Mitm, Ablation::NoTimeLimits);
        assert!(o.blocked);
    }
}
