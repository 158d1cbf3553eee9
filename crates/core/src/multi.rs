//! Multi-client deployments: one provider, one TTP, many clients.
//!
//! The paper's Figure 1 shows a provider serving a population of users.
//! [`MultiWorld`] seats N clients on the one [`Runner`] with interleaved
//! transactions, which exercises properties the two-party runs cannot:
//! per-(transaction, sender) replay windows under concurrency,
//! cross-client isolation of objects and evidence, and aggregate TTP load.

use crate::client::{Client, TimeoutStrategy};
use crate::config::ProtocolConfig;
use crate::principal::Principal;
use crate::runner::{Runner, Seats, TxnReport, TxnResult};
use crate::session::TxnState;
use tpnr_net::sim::{LinkConfig, SimNet};
use tpnr_net::transport::Transport;

/// A typed handle to a transaction started on a [`MultiWorld`]: which
/// client owns it and its id. Replaces the bare `u64` returns of
/// `start_upload` / `start_download`, so accessors no longer take
/// easy-to-swap `(usize, u64)` pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnHandle {
    /// Index of the owning client in `MultiWorld::clients`.
    pub client: usize,
    /// Transaction id (0 is the failed-initiation sentinel; real ids start
    /// at 1).
    pub txn_id: u64,
}

/// The seats of [`MultiWorld`]: N clients sharing the provider and the TTP.
pub struct Fleet {
    /// The clients (index-aligned with the runner's `client_nodes`).
    pub clients: Vec<Client>,
}

impl Seats for Fleet {
    fn clients(&self) -> &[Client] {
        &self.clients
    }

    fn clients_mut(&mut self) -> &mut [Client] {
        &mut self.clients
    }
}

/// N clients sharing one provider and one TTP over a [`Transport`].
pub type GenericMultiWorld<T = SimNet> = Runner<T, Fleet>;

/// The classic deterministic multi-client world: [`GenericMultiWorld`]
/// over [`SimNet`].
pub type MultiWorld = GenericMultiWorld<SimNet>;

impl MultiWorld {
    /// Builds a world with `n_clients` clients (fresh deterministic keys).
    pub fn new(seed: u64, cfg: ProtocolConfig, n_clients: usize) -> Self {
        assert!(n_clients > 0);
        let bob = Principal::test("bob", seed.wrapping_mul(11).wrapping_add(1));
        let ttp_p = Principal::test("ttp", seed.wrapping_mul(11).wrapping_add(2));
        let client_principals: Vec<Principal> = (0..n_clients)
            .map(|i| Principal::test(&format!("client-{i}"), seed.wrapping_mul(11) + 10 + i as u64))
            .collect();
        Self::with_principals(seed, cfg, &client_principals, &bob, &ttp_p)
    }

    /// Builds a world from pre-generated principals. Key generation is the
    /// scale wall at E10 client counts, so sharded runners generate one
    /// fixed pool of keys and reuse it across lanes instead of paying a
    /// fresh RSA keypair per simulated client. Each client gets a minimal
    /// directory ({self, provider, TTP} — all it ever verifies); the
    /// provider and TTP hold the full population directory.
    pub fn with_principals(
        seed: u64,
        cfg: ProtocolConfig,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
    ) -> Self {
        Self::with_principals_on(SimNet::new(seed), seed, cfg, client_principals, bob, ttp_p)
    }

    /// Overrides the bidirectional client ⇄ provider link for client
    /// `idx`. E10 gives every client a distinct deterministic latency
    /// through this, so settle-latency percentiles measure a real
    /// distribution instead of the constant default-link round trip.
    pub fn set_client_provider_link(&mut self, idx: usize, cfg: LinkConfig) {
        self.net.set_link_bidi(self.client_nodes[idx], self.bob_node, cfg);
    }
}

impl<T: Transport> GenericMultiWorld<T> {
    /// Builds a world from pre-generated principals over an arbitrary
    /// [`Transport`] backend ([`MultiWorld::with_principals`] is the
    /// simulator shorthand). `seed` derives each actor's RNG exactly as
    /// on the simulator, so backends host byte-identical actor populations.
    pub fn with_principals_on(
        net: T,
        seed: u64,
        cfg: ProtocolConfig,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
    ) -> Self {
        Runner::assemble(net, seed, cfg, client_principals, bob, ttp_p, |clients, _, _| Fleet {
            clients,
        })
    }

    /// Starts an upload from client `idx` without settling (so many
    /// transactions can be in flight together). Returns a typed handle; a
    /// failed initiation yields the sentinel handle (`txn_id` 0, never a
    /// real id) and a recorded rejection in [`Obs`](crate::obs::Obs), never
    /// a panic.
    pub fn start_upload(
        &mut self,
        idx: usize,
        key: &[u8],
        data: impl Into<tpnr_net::Bytes>,
        strategy: TimeoutStrategy,
    ) -> TxnHandle {
        TxnHandle { client: idx, txn_id: self.start(idx, key, Some(data.into()), strategy) }
    }

    /// Starts a download from client `idx` without settling. Initiation
    /// failures degrade exactly as in [`MultiWorld::start_upload`].
    pub fn start_download(
        &mut self,
        idx: usize,
        key: &[u8],
        strategy: TimeoutStrategy,
    ) -> TxnHandle {
        TxnHandle { client: idx, txn_id: self.start(idx, key, None, strategy) }
    }

    /// Final state of a client's transaction (live or archived).
    pub fn state(&self, client: usize, txn: u64) -> Option<TxnState> {
        self.clients[client].txn_state(txn).or_else(|| {
            self.archive.get(txn).filter(|r| r.client == client).map(|r| r.report.state)
        })
    }

    /// Final state of a handled transaction (live or archived).
    pub fn state_of(&self, h: TxnHandle) -> Option<TxnState> {
        self.clients.get(h.client)?;
        self.state(h.client, h.txn_id)
    }

    /// Typed result for a handled transaction: outcome, payload, both
    /// evidence pieces and the wire-level report — `None` for the sentinel
    /// handle, unknown ids, or a handle naming the wrong client. Mirrors
    /// [`World::run`](crate::runner::World)'s return shape.
    pub fn result(&self, h: TxnHandle) -> Option<TxnResult> {
        self.state_of(h)?;
        Some(self.result_for(h.client, self.report(h.txn_id)?))
    }

    /// Exact per-transaction report from the transport's tagged traffic
    /// counters; `None` for unknown transaction ids. Latency runs from
    /// initiation to the transaction's own last delivery (other sessions
    /// may keep the shared clock running long after this one settled).
    pub fn report(&self, txn: u64) -> Option<TxnReport> {
        match self.txn_meta.get(&txn) {
            Some(m) => Some(self.live_report(
                txn,
                self.clients[m.client as usize].txn_state(txn)?,
                m.started,
            )),
            None => self.archived_report(txn),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultCtl;
    use crate::message::MsgKind;
    use crate::obs::EventKind;
    use crate::runner::Snapshots as MultiSnapshots;
    use crate::sched::SettleOutcome;
    use tpnr_net::time::SimDuration;

    #[test]
    fn ten_clients_interleaved_uploads_all_complete() {
        let mut w = MultiWorld::new(1, ProtocolConfig::full(), 10);
        let txns: Vec<TxnHandle> = (0..10)
            .map(|i| {
                let key = format!("user{i}/data").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 200], TimeoutStrategy::AbortFirst)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        for h in txns {
            assert_ne!(h.txn_id, 0);
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
            assert!(w.result(h).unwrap().completed());
        }
        assert_eq!(w.provider.txn_count(), 10);
    }

    #[test]
    fn per_client_links_spread_settle_latency() {
        // Distinct client ⇄ provider latencies must surface as a spread in
        // the settle-latency histogram (the E10 percentile exhibit relies
        // on this; with one shared link p50 == p99 degenerately).
        let mut w = MultiWorld::new(5, ProtocolConfig::full(), 4);
        for i in 0..4 {
            let one_way = SimDuration::from_micros(5_000 + i as u64 * 10_000);
            w.set_client_provider_link(i, LinkConfig::ideal(one_way));
        }
        for i in 0..4 {
            let key = format!("k{i}").into_bytes();
            w.start_upload(i, &key, vec![1; 16], TimeoutStrategy::ResolveImmediately);
        }
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        let h = &w.obs.metrics.latency_us;
        assert_eq!(h.count(), 4);
        assert!(h.min().unwrap() < h.max().unwrap(), "distinct links, distinct latencies");
        let (p50, p99) = (h.quantile(0.5).unwrap(), h.quantile(0.99).unwrap());
        assert!(p50 < p99, "percentiles must separate: p50={p50} p99={p99}");
    }

    #[test]
    fn per_txn_accounting_sums_to_global_counters() {
        // Every message is tagged with its transaction at dispatch, so the
        // per-transaction counters must partition the global ones exactly —
        // even with loss, duplication and ten interleaved sessions.
        let mut w = MultiWorld::new(6, ProtocolConfig::full(), 10);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(10),
            drop_prob: 0.2,
            dup_prob: 0.2,
            ..Default::default()
        });
        let txns: Vec<u64> = (0..10)
            .map(|i| {
                let key = format!("k{i}").into_bytes();
                w.start_upload(i, &key, vec![3u8; 64], TimeoutStrategy::ResolveImmediately).txn_id
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        assert_eq!(w.net.tagged_txns().len(), txns.len());
        let (mut sent, mut bytes, mut delivered, mut dropped) = (0, 0, 0, 0);
        for &txn in &txns {
            let t = w.net.txn_stats(txn);
            sent += t.sent;
            bytes += t.bytes_sent;
            delivered += t.delivered;
            dropped += t.dropped;
        }
        assert_eq!(sent, w.net.stats().sent);
        assert_eq!(bytes, w.net.stats().bytes_sent);
        assert_eq!(dropped, w.net.stats().dropped);
        // Deliveries include duplicate copies on both sides of the ledger.
        assert_eq!(delivered, w.net.stats().delivered);
        assert_eq!(
            delivered,
            txns.iter().map(|&t| w.report(t).unwrap().messages).sum::<u64>(),
            "reports expose the same exact per-txn deliveries"
        );
    }

    #[test]
    fn fifty_clients_under_loss_and_duplication_settle_exactly() {
        // Acceptance scenario: 50 interleaved clients on a 30%-lossy,
        // duplicating network end all-terminal with exact accounting and
        // true quiescence (no silent step-cap exits).
        let mut w = MultiWorld::new(7, ProtocolConfig::full(), 50);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(15),
            drop_prob: 0.3,
            dup_prob: 0.15,
            ..Default::default()
        });
        let txns: Vec<TxnHandle> = (0..50)
            .map(|i| {
                let key = format!("user{i}/obj").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 48], TimeoutStrategy::ResolveImmediately)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        let mut delivered_sum = 0;
        for &h in &txns {
            let st = w.state_of(h).unwrap();
            assert!(st.is_terminal(), "client {} stuck in {st:?}", h.client);
            let r = w.report(h.txn_id).unwrap();
            assert!(r.messages >= 2, "client {} settled in {} messages", h.client, r.messages);
            delivered_sum += r.messages;
        }
        assert_eq!(delivered_sum, w.net.stats().delivered, "exact partition of deliveries");
    }

    #[test]
    fn clients_cannot_read_each_others_evidence_but_share_namespace() {
        let mut w = MultiWorld::new(2, ProtocolConfig::full(), 2);
        let t0 = w.start_upload(
            0,
            b"shared-key",
            b"from client 0".to_vec(),
            TimeoutStrategy::AbortFirst,
        );
        w.settle();
        let t1 = w.start_download(1, b"shared-key", TimeoutStrategy::AbortFirst);
        w.settle();
        // Client 1 can fetch the object (this model has a flat namespace,
        // like a shared bucket)…
        assert_eq!(w.state_of(t1), Some(TxnState::Completed));
        assert_eq!(w.result(t1).unwrap().data.unwrap(), b"from client 0");
        // …but holds only its own transactions' evidence.
        assert!(w.clients[1].txn(t0.txn_id).is_none());
        assert!(w.clients[0].txn(t1.txn_id).is_none());
    }

    #[test]
    fn interleaved_same_key_uploads_serialize_by_arrival() {
        let mut w = MultiWorld::new(3, ProtocolConfig::full(), 3);
        for i in 0..3 {
            w.start_upload(i, b"contested", vec![i as u8 + 1; 16], TimeoutStrategy::AbortFirst);
        }
        w.settle();
        // All three transactions completed — each holds a receipt for what
        // *it* uploaded (so each can later prove what it sent), and storage
        // holds the last arrival.
        let stored = w.provider.peek_storage(b"contested").unwrap();
        assert!(stored == [1u8; 16] || stored == [2u8; 16] || stored == [3u8; 16]);
        assert_eq!(w.provider.txn_count(), 3);
    }

    #[test]
    fn mixed_fault_population_terminates() {
        let mut w = MultiWorld::new(4, ProtocolConfig::full(), 5);
        // A lossy world for everyone.
        w.set_all_links(LinkConfig::lossy(SimDuration::from_millis(15), 0.2));
        let txns: Vec<TxnHandle> = (0..5)
            .map(|i| {
                let key = format!("k{i}").into_bytes();
                w.start_upload(i, &key, vec![7u8; 64], TimeoutStrategy::ResolveImmediately)
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        for h in txns {
            let st = w.state_of(h).unwrap();
            assert!(st.is_terminal(), "client {} stuck in {st:?}", h.client);
        }
    }

    #[test]
    fn ttp_load_scales_with_faulted_clients_only() {
        let mut w = MultiWorld::new(5, ProtocolConfig::full(), 4);
        // Only client 0's return path is broken.
        let c0 = w.client_nodes[0];
        let bob = w.bob_node;
        w.net.set_link(bob, c0, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let mut txns = Vec::new();
        for i in 0..4 {
            let key = format!("k{i}").into_bytes();
            txns.push(w.start_upload(i, &key, vec![1u8; 32], TimeoutStrategy::ResolveImmediately));
        }
        w.settle();
        for h in txns {
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
        }
        // Exactly one client needed the TTP: one Resolve reached it.
        let ttp = w.ttp_node;
        let resolves = w.obs.events().iter().filter(|e| e.actor == ttp);
        assert_eq!(resolves.filter(|e| e.msg_kind() == Some(MsgKind::Resolve)).count(), 1);
    }

    #[test]
    fn per_txn_events_partition_global_counters_under_loss_and_duplication() {
        // Acceptance: 50 interleaved clients, 30% loss, duplication. The
        // observability tallies must partition the global counters exactly
        // and agree with the simulator's own per-txn ledger — no event
        // invisible, none double-counted.
        let mut w = MultiWorld::new(7, ProtocolConfig::full(), 50);
        w.set_all_links(LinkConfig {
            latency: SimDuration::from_millis(15),
            drop_prob: 0.3,
            dup_prob: 0.15,
            ..Default::default()
        });
        let txns: Vec<u64> = (0..50)
            .map(|i| {
                let key = format!("user{i}/obj").into_bytes();
                w.start_upload(i, &key, vec![i as u8; 48], TimeoutStrategy::ResolveImmediately)
                    .txn_id
            })
            .collect();
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);

        let m = w.obs.metrics.clone();
        // All traffic here is tagged and decodable, so accepted + rejected
        // events account for every delivery, and the drop/duplication
        // ledgers agree with the simulator.
        assert_eq!(m.delivered + m.rejected, w.net.stats().delivered);
        assert_eq!(m.garbled, 0);
        assert_eq!(m.dropped, w.net.stats().dropped);
        assert_eq!(m.duplicated, w.net.stats().duplicated);
        assert!(m.rejected > 0, "duplicate copies must surface as rejections");
        assert_eq!(m.rejected_by.values().sum::<u64>(), m.rejected);
        assert!(m.rejected_by.contains_key("stale-sequence"), "{:?}", m.rejected_by);

        let (mut acc, mut rej, mut drp, mut dup) = (0, 0, 0, 0);
        for &txn in &txns {
            let o = w.obs.txn(txn);
            let t = w.net.txn_stats(txn);
            assert_eq!(o.inbox_total(), t.delivered, "txn {txn}");
            assert_eq!(o.dropped, t.dropped, "txn {txn}");
            assert_eq!(o.duplicated, t.duplicated, "txn {txn}");
            acc += o.accepted;
            rej += o.rejected;
            drp += o.dropped;
            dup += o.duplicated;
        }
        assert_eq!(acc, m.delivered, "per-txn accepted partitions global deliveries");
        assert_eq!(rej, m.rejected);
        assert_eq!(drp, m.dropped);
        assert_eq!(dup, m.duplicated);
        let mut expected = txns.clone();
        expected.sort_unstable();
        assert_eq!(w.obs.txns(), expected, "no events attributed outside the real txns");
        // Every settled transaction also has a latency sample.
        assert_eq!(m.latency_us.count(), 50);
    }

    #[test]
    fn garbled_and_rejected_arrivals_are_recorded_not_discarded() {
        // Regression: `MultiWorld::deliver` used to `return` on undecodable
        // payloads and `unwrap_or_default()` validation errors away.
        use std::sync::{Arc, Mutex};
        use tpnr_net::sim::Action;

        let mut w = MultiWorld::new(8, ProtocolConfig::full(), 2);
        let (c0, bob) = (w.client_nodes[0], w.bob_node);
        // Wiretap client 0's traffic so we can replay a real capture.
        let tape: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
        let tap = tape.clone();
        w.net.set_interceptor(Box::new(move |src, dst, payload: &[u8], _t| {
            if src == c0 && dst == bob {
                tap.lock().unwrap().push(payload.to_vec());
            }
            Action::Deliver
        }));
        let t0 = w.start_upload(0, b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        w.settle();
        assert_eq!(w.state_of(t0), Some(TxnState::Completed));
        w.net.clear_interceptor();

        // Undecodable flood towards the provider: visible, unattributed.
        for _ in 0..3 {
            w.net.send(w.client_nodes[1], bob, b"garbage".to_vec());
        }
        w.settle();
        assert_eq!(w.obs.metrics.garbled, 3);
        let garbled: Vec<_> =
            w.obs.events().iter().filter(|e| matches!(e.kind, EventKind::Garbled { .. })).collect();
        assert_eq!(garbled.len(), 3);
        assert!(garbled.iter().all(|e| e.txn.is_none() && e.actor == bob));

        // A replayed capture decodes but fails validation: recorded with
        // its variant and attributed to the session it replays into, even
        // though the replay itself is untagged on the wire.
        let replay = tape.lock().unwrap()[0].clone();
        w.net.send(c0, bob, replay);
        w.settle();
        assert_eq!(w.obs.metrics.rejected, 1);
        assert_eq!(w.obs.metrics.rejected_by.get("stale-sequence"), Some(&1));
        let rej =
            w.obs.events().iter().find(|e| matches!(e.kind, EventKind::Rejected { .. })).unwrap();
        assert_eq!(rej.txn, Some(t0.txn_id));
        assert_eq!(rej.msg_kind(), Some(MsgKind::Transfer));
        let at_bob = w.obs.events().iter().filter(|e| e.actor == bob);
        assert_eq!(at_bob.filter(|e| matches!(e.kind, EventKind::Rejected { .. })).count(), 1);
    }

    #[test]
    fn ttp_declares_simultaneous_failures_in_txn_order() {
        // Regression: the TTP's timeout sweep walked a hash map, so resolves
        // expiring at one instant were answered in an order that changed
        // from process to process, and with it the event stream.
        let mut w = MultiWorld::new(13, ProtocolConfig::full(), 8);
        w.provider.behavior.respond_transfers = false;
        w.provider.behavior.respond_resolves = false;
        for i in 0..8 {
            let key = format!("k{i}").into_bytes();
            w.start_upload(i, &key, vec![1; 8], TimeoutStrategy::ResolveImmediately);
        }
        assert_eq!(w.settle().outcome, SettleOutcome::Quiescent);
        let replies: Vec<u64> = w
            .obs
            .events()
            .iter()
            .filter(|e| e.msg_kind() == Some(MsgKind::ResolveReply))
            .filter_map(|e| e.txn)
            .collect();
        assert_eq!(replies.len(), 8);
        assert!(replies.windows(2).all(|p| p[0] < p[1]), "replies out of txn order: {replies:?}");
    }

    #[test]
    fn world_and_multiworld_report_identical_latency_semantics() {
        // Acceptance: both runners measure txn-scoped latency (initiation →
        // the transaction's own last delivery), so the same clean upload on
        // the same links reports the same number in either runner.
        let mut sw = crate::runner::World::new(21, ProtocolConfig::full());
        let rw = sw.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);

        let mut mw = MultiWorld::new(21, ProtocolConfig::full(), 1);
        let txn = mw.start_upload(0, b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        mw.settle();
        let rm = mw.report(txn.txn_id).unwrap();

        assert_eq!(rw.report.latency.micros(), 50_000, "one RTT on the default 25 ms links");
        assert_eq!(rm.latency.micros(), rw.report.latency.micros());
        assert_eq!(rm.messages, rw.report.messages);
    }

    #[test]
    fn settled_txns_are_evicted_memory_stays_bounded_and_evidence_survives() {
        // Regression (latent scale bug): `txn_meta`, the per-client txn
        // records, the validator replay windows and the obs/net per-txn
        // tallies all grew without bound per settled transaction. With a
        // small archive capacity, N settled txns must leave only a bounded
        // resident set — and every evicted txn must stay fully answerable
        // (report/state/result) with its evidence re-hydratable.
        let mut w = MultiWorld::new(9, ProtocolConfig::full(), 4);
        w.set_archive_capacity(1); // 16 shards × 1 = at most 16 resident settled
        let mut handles = Vec::new();
        for round in 0..10 {
            for i in 0..4 {
                let key = format!("c{i}/r{round}").into_bytes();
                handles.push(w.start_upload(
                    i,
                    &key,
                    vec![round as u8; 32],
                    TimeoutStrategy::AbortFirst,
                ));
            }
            let s = w.settle();
            assert_eq!(s.outcome, crate::sched::SettleOutcome::Quiescent);
        }
        let stats = w.archive_stats();
        assert!(stats.evicted > 0, "eviction must have engaged: {stats:?}");
        assert!(stats.log_bytes > 0);
        // Bounded memory: resident bookkeeping ≤ hot capacity across all
        // shards (16) plus the in-flight slack of the final round.
        assert_eq!(w.resident_txns() as u64 + stats.evicted, 40);
        assert!(
            w.resident_txns() <= 16 + 4,
            "resident txn_meta must stay bounded, got {}",
            w.resident_txns()
        );
        // Validator replay windows for evicted txns are gone; tombstones
        // remain so late replays are refused, not re-windowed.
        assert!(w.clients.iter().map(|c| c.party.validator.archived_count()).sum::<usize>() > 0);
        // Every txn — live or archived — still answers queries, and the
        // evicted ones re-hydrate their full evidence from the sealed log.
        let mut rehydrated = 0;
        for &h in &handles {
            assert_eq!(w.state_of(h), Some(TxnState::Completed), "client {}", h.client);
            let r = w.report(h.txn_id).unwrap();
            assert!(r.messages >= 2);
            let res = w.result(h).unwrap();
            assert!(res.nro.is_some(), "NRO must survive eviction");
            assert!(res.nrr.is_some(), "NRR must survive eviction");
            if w.clients[h.client].txn(h.txn_id).is_none() {
                let bundle = w.rehydrate_evidence(h.txn_id).expect("archived bundle loads");
                assert!(bundle.structurally_sound());
                assert!(bundle.get("client-nro").is_some());
                assert!(bundle.get("client-nrr").is_some());
                assert!(bundle.get("provider-nro").is_some());
                assert!(bundle.get("provider-nrr").is_some());
                rehydrated += 1;
            }
        }
        assert_eq!(rehydrated as u64, stats.evicted);
        assert!(w.archive_stats().rehydrated >= stats.evicted);
    }

    #[test]
    fn crash_between_timer_arm_and_fire_cancels_the_stale_wheel_entry() {
        // Regression (satellite audit): a crashed actor's armed deadline
        // must die with it — the wheel entry is cancelled at crash time and
        // re-registered only from the restored snapshot, so a stale timer
        // can never fire while the actor is down.
        let mut cfg = ProtocolConfig::full();
        // Non-inert plan (so the injector runs) that never crashes a real
        // actor on its own — the crash below is injected by hand.
        cfg.faults = cfg.faults.clone().with_chaos(&["absent-actor"], 1, 1);
        let mut w = MultiWorld::new(10, ProtocolConfig::full(), 2);
        w.faults = FaultCtl::new(&cfg.faults, &["client-0", "client-1", "bob", "ttp"]);
        w.snaps = None; // re-arm snapshots below, post-initiation
                        // Break bob → client-0 so client 0's response timer must fire.
        let (c0, bob) = (w.client_nodes[0], w.bob_node);
        w.net.set_link(bob, c0, LinkConfig { drop_prob: 1.0, ..Default::default() });
        let h0 = w.start_upload(0, b"k0", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
        let h1 = w.start_upload(1, b"k1", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        // Recovery points carry the armed transactions.
        w.snaps = Some(Box::new(MultiSnapshots {
            clients: w.clients.iter().map(Client::snapshot).collect(),
            provider: w.provider.snapshot(),
            ttp: w.ttp.snapshot(),
        }));
        // Crash client 0 *between* timer-arm and fire.
        let now = w.net.now();
        w.crash_actor(0, now);
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        // No timer fired for client-0 while it was down: every TimerFired
        // for it must come at/after the restart instant.
        let events = w.obs.events();
        let restarted_at = events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Restarted { .. }) && e.actor == c0)
            .map(|e| e.at)
            .expect("client-0 restarts");
        for e in events.iter() {
            if e.actor == c0 && matches!(e.kind, EventKind::TimerFired { .. }) {
                assert!(
                    e.at >= restarted_at,
                    "stale timer fired at {:?} while client-0 was down (restart {:?})",
                    e.at,
                    restarted_at
                );
            }
        }
        // Both transactions still settle: the restored client re-arms from
        // its snapshot and drives its session to a terminal state.
        assert!(w.state_of(h0).unwrap().is_terminal());
        assert_eq!(w.state_of(h1), Some(TxnState::Completed));
    }

    #[test]
    fn client_timeout_sweep_runs_in_txn_id_order() {
        // Six uploads from one client time out together against a provider
        // that ignores transfers, so one sweep sends six Aborts. Their order
        // used to follow the client's HashMap, which differs between two
        // maps in one process; it now follows the transaction ids.
        let run = || {
            let mut w = MultiWorld::new(8, ProtocolConfig::full(), 2);
            w.provider.behavior.respond_transfers = false;
            for i in 0..6u8 {
                w.start_upload(0, &[b'k', i], vec![i; 32], TimeoutStrategy::AbortFirst);
            }
            w.settle();
            for id in w.clients[0].txn_ids() {
                assert_eq!(w.state(0, id), Some(TxnState::Aborted));
            }
            (w.obs.events().clone(), w.net.stats(), w.bob_node)
        };
        let first = run();
        assert_eq!(
            first.0.iter().filter(|e| e.actor == first.2).count(),
            12,
            "six Transfers, six Aborts"
        );
        assert_eq!(run(), first);
    }

    #[test]
    fn open_txn_index_matches_a_full_scan_through_a_seeded_mix() {
        // Completed, aborted, given-up and crash-restored transactions in a
        // seeded order: after every step, each client's indexed deadline
        // equals the minimum over a scan of all its transactions.
        use crate::fault::RetryPolicy;
        let full_scan = |c: &Client| {
            let pending = c.txn_ids().into_iter().filter_map(|id| c.txn(id));
            pending.filter(|t| !t.state.is_terminal()).map(|t| t.deadline).min()
        };
        let cfg = ProtocolConfig::builder().retry_policy(RetryPolicy::exponential(2)).build();
        let mut w = MultiWorld::new(12, cfg, 2);
        w.set_archive_capacity(4);
        let mut rng = tpnr_crypto::ChaChaRng::seed_from_u64(12);
        let mut snaps = [w.clients[0].snapshot(), w.clients[1].snapshot()];
        let mut seen = [0u32; 4];
        for step in 0..80 {
            let idx = rng.gen_below(2) as usize;
            let key = [b'k', rng.gen_below(4) as u8];
            match rng.gen_below(7) {
                0 | 1 => {
                    // Honest provider: completes.
                    w.provider.behavior = Default::default();
                    w.start_upload(idx, &key, vec![step as u8; 16], TimeoutStrategy::AbortFirst);
                }
                2 => {
                    // Transfers ignored: aborts.
                    w.provider.behavior.respond_transfers = false;
                    w.start_upload(idx, &key, vec![1; 16], TimeoutStrategy::AbortFirst);
                }
                3 => {
                    // Nothing answered: the resolve retries run out.
                    w.provider.behavior.respond_transfers = false;
                    w.provider.behavior.respond_resolves = false;
                    w.start_download(idx, &key, TimeoutStrategy::ResolveImmediately);
                }
                4 => snaps[idx] = w.clients[idx].snapshot(),
                5 => w.clients[idx].restore(&snaps[idx]),
                _ => {
                    w.settle();
                }
            }
            for (i, c) in w.clients.iter().enumerate() {
                assert_eq!(c.next_deadline(), full_scan(c), "step {step}, client {i}");
                for id in c.txn_ids() {
                    if let Some(state) = c.txn_state(id) {
                        seen[match state {
                            TxnState::Completed => 0,
                            TxnState::Aborted | TxnState::AbortRejected => 1,
                            TxnState::Failed => 2,
                            _ => 3,
                        }] += 1;
                    }
                }
            }
        }
        assert!(seen.iter().all(|&n| n > 0), "mix covers every outcome: {seen:?}");
        assert!(w.clients.iter().map(|c| c.party.restart_count()).sum::<u64>() > 0);
    }
}
