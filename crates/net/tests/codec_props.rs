//! Property tests for the canonical wire codec and the simulator: round-trip
//! identity, canonicity (decode ∘ encode ∘ decode is stable), hostile-input
//! safety, conservation of messages under loss/duplication, and
//! secure-channel soundness under random frame corruption.

use proptest::prelude::*;
use tpnr_crypto::{ChaChaRng, RsaKeyPair};
use tpnr_net::codec::{Reader, Wire, Writer};
use tpnr_net::secure;
use tpnr_net::sim::{LinkConfig, SimNet};
use tpnr_net::time::SimDuration;
use tpnr_net::transport::Transport;

#[derive(Debug, Clone, PartialEq)]
struct Record {
    id: u64,
    tag: u8,
    name: String,
    blob: Vec<u8>,
    ok: bool,
}

impl Wire for Record {
    fn encode(&self, w: &mut Writer) {
        w.u64(self.id).u8(self.tag).str(&self.name).bytes(&self.blob).bool(self.ok);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, tpnr_net::codec::CodecError> {
        Ok(Record { id: r.u64()?, tag: r.u8()?, name: r.str()?, blob: r.bytes()?, ok: r.bool()? })
    }
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        any::<u64>(),
        any::<u8>(),
        "[a-zA-Z0-9 ]{0,32}",
        proptest::collection::vec(any::<u8>(), 0..256),
        any::<bool>(),
    )
        .prop_map(|(id, tag, name, blob, ok)| Record { id, tag, name, blob, ok })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn codec_roundtrip_and_canonicity(rec in record_strategy()) {
        let enc = rec.to_wire();
        let dec = Record::from_wire(&enc).unwrap();
        prop_assert_eq!(&dec, &rec);
        prop_assert_eq!(dec.to_wire(), enc);
    }

    #[test]
    fn codec_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Decoding arbitrary bytes must fail cleanly, never panic or
        // over-allocate.
        let _ = Record::from_wire(&bytes);
    }

    #[test]
    fn codec_rejects_all_truncations(rec in record_strategy()) {
        let enc = rec.to_wire();
        for cut in 0..enc.len() {
            prop_assert!(Record::from_wire(&enc[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn simulator_conserves_messages(
        seed in any::<u64>(),
        n in 1usize..50,
        drop_prob in 0.0f64..1.0,
    ) {
        let mut net = SimNet::new(seed);
        let a = net.register("a");
        let b = net.register("b");
        net.set_link(a, b, LinkConfig::lossy(SimDuration::from_millis(1), drop_prob));
        for i in 0..n {
            net.send(a, b, vec![i as u8]);
        }
        let delivered = net.run_until_quiet().len() as u64;
        prop_assert_eq!(net.stats().sent, n as u64);
        prop_assert_eq!(delivered + net.stats().dropped, n as u64);
    }

    #[test]
    fn simulator_is_deterministic(seed in any::<u64>(), n in 1usize..30) {
        let run = |seed: u64| {
            let mut net = SimNet::new(seed);
            let a = net.register("a");
            let b = net.register("b");
            net.set_link(a, b, LinkConfig {
                latency: SimDuration::from_millis(5),
                jitter: SimDuration::from_millis(5),
                drop_prob: 0.3,
                dup_prob: 0.2,
            });
            for i in 0..n {
                net.send(a, b, vec![i as u8]);
            }
            net.run_until_quiet()
                .into_iter()
                .map(|e| (e.payload, e.delivered_at))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn secure_channel_sound_under_corruption(
        frames in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 1..8),
        corrupt_at in any::<usize>(),
    ) {
        let server = RsaKeyPair::insecure_test_key(200);
        let mut rng = ChaChaRng::seed_from_u64(7);
        let (mut client, mut sserver) = secure::establish_pair(&server, &mut rng).unwrap();
        for (i, f) in frames.iter().enumerate() {
            let sealed = client.seal(f);
            if i == corrupt_at % frames.len() {
                let mut bad = sealed.clone();
                let j = corrupt_at % bad.len();
                bad[j] ^= 0x80;
                // A corrupted frame must be rejected without advancing state…
                prop_assert!(sserver.open(&bad).is_err());
            }
            // …so the genuine frame still lands.
            prop_assert_eq!(&sserver.open(&sealed).unwrap(), f);
        }
    }
}
