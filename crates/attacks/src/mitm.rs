//! §5.1 man-in-the-middle: key substitution.
//!
//! Mallory binds her own public key to Alice's identity in the provider's
//! key store and then forges an upload "from Alice" carrying planted data,
//! signed with Mallory's key. If the provider authenticates public keys
//! against the certified directory (the paper's prescription), the forged
//! evidence fails verification; with authentication ablated, the provider
//! accepts the upload, stores the planted data, and archives "evidence"
//! that frames Alice.

use crate::harness::{AttackKind, AttackOutcome};
use tpnr_core::config::{Ablation, ProtocolConfig};
use tpnr_core::evidence::{seal, EvidencePlaintext, Flag};
use tpnr_core::message::Message;
use tpnr_core::principal::Principal;
use tpnr_core::runner::World;
use tpnr_core::session::Payload;
use tpnr_crypto::ChaChaRng;
use tpnr_net::codec::Wire;
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Runs the MITM attack against the given protocol variant.
pub fn run(ablation: Ablation) -> AttackOutcome {
    let cfg = ProtocolConfig::ablated(ablation);
    let mut w = World::new(31, cfg.clone());
    let alice_id = w.client.id();
    let bob_id = w.provider.id();
    let ttp_id = w.ttp.id();
    let now = w.net().now();

    let mallory = Principal::test("mallory", 0xbad);
    let mut rng = ChaChaRng::seed_from_u64(0xbad_0bad);

    // Poison the provider's wire-learned key store: "Alice's key" is now
    // Mallory's. (Only consulted when key authentication is off.)
    w.provider.learn_wire_key(alice_id, mallory.public().clone());

    // Forge the transfer.
    let payload = Payload { key: b"ledger".to_vec(), data: b"planted by mallory".to_vec().into() };
    let pt = EvidencePlaintext {
        flag: Flag::UploadRequest,
        sender: alice_id, // the lie
        recipient: bob_id,
        ttp: ttp_id,
        txn_id: 5555,
        seq: 1,
        nonce: rng.next_u64(),
        time_limit: now.after(SimDuration::from_secs(120)),
        object: payload.key.clone(),
        hash_alg: cfg.hash_alg,
        data_hash: payload.hash(cfg.hash_alg),
    };
    let bob_pk = w.dir.lookup(&bob_id).expect("bob registered").clone();
    let sealed = seal(&cfg, &mallory, &bob_pk, &pt, &mut rng).expect("sealing");
    let msg = Message::Transfer { plaintext: pt, data: payload.to_wire_bytes(), evidence: sealed };

    let result = w.provider.handle(alice_id, &msg, now);
    let planted = w.provider.peek_storage(b"ledger") == Some(&b"planted by mallory"[..]);
    let succeeded = result.is_ok() && planted;

    AttackOutcome {
        attack: AttackKind::Mitm,
        ablation,
        blocked: !succeeded,
        detail: if succeeded {
            "provider accepted a forged upload attributed to Alice and archived \
             framing 'evidence' signed by Mallory's substituted key"
                .to_string()
        } else {
            format!(
                "provider rejected the forged transfer: {}",
                result.err().map(|e| e.to_string()).unwrap_or_else(|| "no data stored".into())
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_protocol_blocks_mitm() {
        let o = run(Ablation::None);
        assert!(o.blocked, "{}", o.detail);
    }

    #[test]
    fn ablated_key_auth_admits_mitm() {
        let o = run(Ablation::NoKeyAuthentication);
        assert!(!o.blocked, "{}", o.detail);
    }

    #[test]
    fn unrelated_ablation_does_not_admit_mitm() {
        // Removing time limits must not open the key-substitution hole.
        let o = run(Ablation::NoTimeLimits);
        assert!(o.blocked);
    }
}
