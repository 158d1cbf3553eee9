//! Baseline: a traditional four-step fair non-repudiation protocol.
//!
//! The paper's efficiency claim is comparative: "in the Normal and Abort
//! models, it takes Alice and Bob merely two steps without TTP … the same
//! operation takes four steps in the traditional non-repudiation protocol."
//! This module implements that comparator in the Zhou–Gollmann style the
//! paper's reference [13] surveys:
//!
//! 1. A → B : `c = Enc_K(data)`, NRO = Sign_A(B ‖ L ‖ H(c))
//! 2. B → A : NRR = Sign_B(A ‖ L ‖ H(c))
//! 3. A → TTP : sub_K = Sign_A(B ‖ L ‖ K)  (submit the key)
//! 4. TTP → A, TTP → B : con_K = Sign_TTP(A ‖ B ‖ L ‖ K)
//!
//! The TTP is **in-line for every transaction** (it publishes the key), so
//! TTP load is 100% of sessions — the contrast measured in experiment E6 —
//! and settlement needs two extra one-way latencies beyond TPNR's two.

use crate::principal::{Principal, PrincipalId};
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::{chacha20, ChaChaRng, CryptoError};
use tpnr_net::sim::{LinkConfig, SimNet};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

/// Evidence bundle both parties hold after a successful baseline run.
#[derive(Debug, Clone)]
pub struct BaselineEvidence {
    /// Alice's NRO over the ciphertext (held by Bob).
    pub nro: Vec<u8>,
    /// Bob's NRR over the ciphertext (held by Alice).
    pub nrr: Vec<u8>,
    /// Alice's signed key submission (held by the TTP).
    pub sub_k: Vec<u8>,
    /// The TTP's key confirmation (held by both).
    pub con_k: Vec<u8>,
}

/// Outcome of one baseline exchange.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    /// Messages placed on the wire.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Simulated wall time from first send to last delivery.
    pub latency: SimDuration,
    /// Always true here: the TTP participates in every baseline session.
    pub ttp_used: bool,
    /// Evidence both parties archived.
    pub evidence: BaselineEvidence,
    /// The data as recovered by Bob (must equal the input).
    pub recovered: Vec<u8>,
}

fn label_bytes(a: &PrincipalId, b: &PrincipalId, label: u64, tail: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(72 + tail.len());
    v.extend_from_slice(&a.0);
    v.extend_from_slice(&b.0);
    v.extend_from_slice(&label.to_be_bytes());
    v.extend_from_slice(tail);
    v
}

/// Runs one complete traditional-NR exchange of `data` from Alice to Bob
/// over a fresh simulated network with the given per-link latency.
///
/// All four steps execute with real cryptography (ChaCha20 bulk encryption,
/// RSA signatures over SHA-256) so latency and byte counts are comparable
/// with the TPNR runner.
pub fn run_exchange(
    seed: u64,
    data: &[u8],
    latency: SimDuration,
) -> Result<BaselineReport, CryptoError> {
    let alice = Principal::test("alice", seed.wrapping_mul(7).wrapping_add(11));
    let bob = Principal::test("bob", seed.wrapping_mul(7).wrapping_add(12));
    let ttp = Principal::test("ttp", seed.wrapping_mul(7).wrapping_add(13));
    let mut rng = ChaChaRng::seed_from_u64(seed ^ 0xba5e);

    let mut net = SimNet::new(seed);
    let a = net.register("alice");
    let b = net.register("bob");
    let t = net.register("ttp");
    net.set_default_link(LinkConfig::ideal(latency));

    let label: u64 = rng.next_u64(); // the protocol run label L

    // Step 1: A → B with c = Enc_K(data) and NRO.
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let nonce = [0u8; 12];
    let ciphertext = chacha20::encrypt(&key, &nonce, data);
    let c_hash = HashAlg::Sha256.hash(&ciphertext);
    let nro = alice
        .keys
        .private
        .sign(HashAlg::Sha256, &label_bytes(&alice.id(), &bob.id(), label, &c_hash))?;
    let mut msg1 = ciphertext.clone();
    msg1.extend_from_slice(&nro);
    net.send(a, b, msg1);
    net.run_until_quiet();

    // Bob verifies the NRO before answering.
    alice.public().verify(
        HashAlg::Sha256,
        &label_bytes(&alice.id(), &bob.id(), label, &c_hash),
        &nro,
    )?;

    // Step 2: B → A with NRR.
    let nrr = bob
        .keys
        .private
        .sign(HashAlg::Sha256, &label_bytes(&bob.id(), &alice.id(), label, &c_hash))?;
    net.send(b, a, nrr.clone());
    net.run_until_quiet();
    bob.public().verify(
        HashAlg::Sha256,
        &label_bytes(&bob.id(), &alice.id(), label, &c_hash),
        &nrr,
    )?;

    // Step 3: A → TTP submits the key.
    let sub_k = alice
        .keys
        .private
        .sign(HashAlg::Sha256, &label_bytes(&alice.id(), &bob.id(), label, &key))?;
    let mut msg3 = key.to_vec();
    msg3.extend_from_slice(&sub_k);
    net.send(a, t, msg3);
    net.run_until_quiet();
    alice.public().verify(
        HashAlg::Sha256,
        &label_bytes(&alice.id(), &bob.id(), label, &key),
        &sub_k,
    )?;

    // Step 4: TTP publishes con_K to both parties.
    let con_k = ttp
        .keys
        .private
        .sign(HashAlg::Sha256, &label_bytes(&alice.id(), &bob.id(), label, &key))?;
    let mut msg4 = key.to_vec();
    msg4.extend_from_slice(&con_k);
    net.send(t, a, msg4.clone());
    net.send(t, b, msg4);
    net.run_until_quiet();
    ttp.public().verify(
        HashAlg::Sha256,
        &label_bytes(&alice.id(), &bob.id(), label, &key),
        &con_k,
    )?;

    // Bob decrypts with the confirmed key.
    let recovered = chacha20::decrypt(&key, &nonce, &ciphertext);

    Ok(BaselineReport {
        messages: net.stats().sent,
        bytes: net.stats().bytes_sent,
        latency: net.now().since(tpnr_net::time::SimTime::ZERO),
        ttp_used: true,
        evidence: BaselineEvidence { nro, nrr, sub_k, con_k },
        recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_completes_and_recovers_data() {
        let r = run_exchange(1, b"bulk backup data", SimDuration::from_millis(10)).unwrap();
        assert_eq!(r.recovered, b"bulk backup data");
        assert!(r.ttp_used);
    }

    #[test]
    fn baseline_needs_five_wire_messages_four_steps() {
        // Steps 1–3 are one message each; step 4 fans out to both parties.
        let r = run_exchange(2, b"x", SimDuration::from_millis(10)).unwrap();
        assert_eq!(r.messages, 5);
    }

    #[test]
    fn baseline_latency_is_four_sequential_legs() {
        // 4 sequential one-way legs at 10 ms = 40 ms (step 4's two sends are
        // parallel), versus TPNR's 2 legs = 20 ms.
        let r = run_exchange(3, b"x", SimDuration::from_millis(10)).unwrap();
        assert_eq!(r.latency.micros(), 40_000);
    }

    #[test]
    fn evidence_chain_is_verifiable() {
        let r = run_exchange(4, b"data", SimDuration::from_millis(1)).unwrap();
        assert!(!r.evidence.nro.is_empty());
        assert!(!r.evidence.nrr.is_empty());
        assert!(!r.evidence.sub_k.is_empty());
        assert!(!r.evidence.con_k.is_empty());
    }

    #[test]
    fn latency_scales_with_link() {
        let fast = run_exchange(5, b"x", SimDuration::from_millis(5)).unwrap();
        let slow = run_exchange(5, b"x", SimDuration::from_millis(50)).unwrap();
        assert_eq!(slow.latency.micros(), fast.latency.micros() * 10);
    }
}
