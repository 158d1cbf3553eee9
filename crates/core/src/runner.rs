//! Orchestration: TPNR actors over a [`Transport`].
//!
//! [`Runner`] owns the clients, one provider, one TTP and the wire,
//! encodes every protocol message to canonical bytes on the wire (so
//! adversaries manipulate real traffic), drives deliveries and timeout
//! polls, and reports per-transaction statistics — message counts, wall
//! latency, and whether the TTP was touched (the measurements behind
//! experiments E2 and E6).
//!
//! One runner serves both deployments of the paper's Figure 1. They differ
//! only in the seat type `S`, where the clients are stored: [`Solo`] seats
//! Alice alone for [`World`], [`Fleet`](crate::multi::Fleet) seats many
//! clients for [`MultiWorld`](crate::multi::MultiWorld). The runner derefs
//! to its seats, so `w.client` and `w.clients` read as fields of the world.
//!
//! The runner is generic over its [`Transport`] backend — the same
//! protocol code runs on the deterministic simulator ([`World`] =
//! `GenericWorld<SimNet>`), the in-process channel, and loopback TCP
//! (experiment E14) with zero per-backend branches.

use crate::archive::{ArchiveStats, ArchivedTxn, EvidenceBundle, TxnArchive};
use crate::client::{Client, ClientSnapshot, TimeoutStrategy};
use crate::config::ProtocolConfig;
use crate::evidence::VerifiedEvidence;
use crate::fault::{DeliveryVerdict, Durable, FaultCtl, FaultStats, SyncDecision};
use crate::message::{Message, MsgKind};
use crate::obs::{Event, EventKind, Obs};
use crate::principal::{Directory, Principal, PrincipalId};
use crate::provider::{Provider, ProviderSnapshot};
use crate::sched::{self, Actor, Deadlines, EventHub, SettleOutcome, SettleReport};
use crate::session::{Outgoing, Party, TxnState, ValidationError};
use crate::ttp::{Ttp, TtpSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::{Deref, DerefMut};
use tpnr_crypto::ChaChaRng;
use tpnr_net::codec::Wire;
use tpnr_net::sim::{Envelope, LinkConfig, NetEvent, NodeId, SimNet};
use tpnr_net::time::{SimDuration, SimTime};
use tpnr_net::transport::Transport;
use tpnr_net::Bytes;

/// Per-transaction outcome report.
///
/// Counts come from the transport's per-transaction tagged stats
/// ([`Transport::txn_stats`]), so they are exact even when many transactions
/// interleave on the same network — not before/after deltas of global
/// counters.
#[derive(Debug, Clone)]
pub struct TxnReport {
    /// Transaction id.
    pub txn_id: u64,
    /// Final state at the client.
    pub state: TxnState,
    /// Protocol messages delivered for this transaction (duplicates count
    /// per delivered copy).
    pub messages: u64,
    /// Bytes sent on the wire for this transaction.
    pub bytes: u64,
    /// Wall-clock (simulated) duration from initiation to settlement.
    pub latency: tpnr_net::time::SimDuration,
    /// Whether the TTP handled any message of this transaction.
    pub ttp_used: bool,
}

/// A typed transaction request — what to run, not how to plumb it.
///
/// Replaces the loose `(key, data, strategy)` argument lists: build one with
/// [`TxnRequest::upload`] / [`TxnRequest::download`], adjust it with
/// [`TxnRequest::with_strategy`], and hand it to [`World::run`].
#[derive(Debug, Clone)]
pub struct TxnRequest {
    /// Object key.
    pub key: Vec<u8>,
    /// Payload for uploads; `None` makes this a download.
    pub data: Option<Bytes>,
    /// Timeout sub-protocol the client arms at initiation.
    pub strategy: TimeoutStrategy,
}

impl TxnRequest {
    /// An upload of `data` under `key` (strategy defaults to
    /// [`TimeoutStrategy::AbortFirst`]).
    pub fn upload(key: &[u8], data: impl Into<Bytes>) -> Self {
        TxnRequest {
            key: key.to_vec(),
            data: Some(data.into()),
            strategy: TimeoutStrategy::AbortFirst,
        }
    }

    /// A download of `key` (strategy defaults to
    /// [`TimeoutStrategy::AbortFirst`]).
    pub fn download(key: &[u8]) -> Self {
        TxnRequest { key: key.to_vec(), data: None, strategy: TimeoutStrategy::AbortFirst }
    }

    /// Overrides the timeout strategy.
    pub fn with_strategy(mut self, strategy: TimeoutStrategy) -> Self {
        self.strategy = strategy;
        self
    }
}

/// The typed outcome of a settled transaction.
///
/// Replaces [`World::download`]'s old `(TxnReport, Option<Bytes>)` tuple and
/// the report-only return of [`World::upload`]: the terminal state, the
/// payload (downloads), both evidence pieces as the client holds them, and
/// the full wire-level [`TxnReport`] in one place.
#[derive(Debug, Clone)]
pub struct TxnResult {
    /// Transaction id (0 is the failed-initiation sentinel; real ids start
    /// at 1).
    pub txn_id: u64,
    /// Final state at the client.
    pub outcome: TxnState,
    /// Download payload, if this was a download that completed.
    pub data: Option<Bytes>,
    /// The client's own sealed non-repudiation-of-origin evidence.
    pub nro: Option<VerifiedEvidence>,
    /// The provider's receipt (NRR) as verified by the client, if received.
    pub nrr: Option<VerifiedEvidence>,
    /// Wire-level statistics (messages, bytes, latency, TTP use).
    pub report: TxnReport,
    /// How the settle [`World::run`] ran for this transaction ended, so a
    /// step-capped or degraded run is told apart from a clean one. `None`
    /// where no settle ran: a failed initiation, or [`World::result`].
    pub settle: Option<SettleOutcome>,
}

impl TxnResult {
    /// True when the exchange completed with the full evidence pair.
    pub fn completed(&self) -> bool {
        self.outcome == TxnState::Completed
    }

    /// True when the transaction is in a state a dispute arbiter can act
    /// on: a terminal outcome with the client's sealed NRO retained. This
    /// is the no-evidence-less-limbo property experiment E8 measures.
    pub fn arbitrable(&self) -> bool {
        self.outcome.is_terminal() && self.nro.is_some()
    }
}

/// Where a runner's clients sit — the one thing that differs between
/// [`World`] ([`Solo`]) and [`MultiWorld`](crate::multi::MultiWorld)
/// ([`Fleet`](crate::multi::Fleet)). Client `i` is the one on the runner's
/// `client_nodes[i]`.
pub trait Seats {
    /// The clients, in node order.
    fn clients(&self) -> &[Client];
    /// The clients, mutably.
    fn clients_mut(&mut self) -> &mut [Client];
}

/// The seats of [`World`]: Alice alone, with the key directory she shares
/// with the provider and the TTP.
pub struct Solo {
    /// Alice.
    pub client: Client,
    /// Alice's node.
    pub alice_node: NodeId,
    /// The authenticated key directory shared by all honest parties
    /// (exposed for arbitration and attack harnesses).
    pub dir: Directory,
}

impl Seats for Solo {
    fn clients(&self) -> &[Client] {
        std::slice::from_ref(&self.client)
    }

    fn clients_mut(&mut self) -> &mut [Client] {
        std::slice::from_mut(&mut self.client)
    }
}

/// Per-transaction bookkeeping: owner, start time, and whether the first
/// terminal transition has been funnelled through the archive's settled
/// queue yet. 16 bytes: every settled transaction keeps one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TxnMeta {
    /// The owning client's seat index.
    pub(crate) client: u32,
    pub(crate) started: SimTime,
    settled: bool,
}

/// Last synced durable images of every actor (the crash recovery points).
/// Allocated only when the fault plan can actually inject.
pub(crate) struct Snapshots {
    pub(crate) clients: Vec<ClientSnapshot>,
    pub(crate) provider: ProviderSnapshot,
    pub(crate) ttp: TtpSnapshot,
}

/// The sender id under which an arrival from a node no actor sits at (an
/// adversary the deployment never listed) is handed to its recipient. No
/// key's fingerprint is all zeros, so wherever the protocol binds the
/// sender's identity the arrival is refused; under the identity-binding
/// ablation the message is judged on its contents alone.
const UNKNOWN_SENDER: PrincipalId = PrincipalId([0; 32]);

/// The assembled deployment: clients in seats `S`, one provider and one
/// TTP on a [`Transport`] backend `T`.
///
/// Every protocol decision below is written against the [`Transport`]
/// trait, so swapping `T` for [`tpnr_net::ChannelNet`] or
/// [`tpnr_net::TcpNet`] changes the wire, never the protocol.
///
/// Actors are addressed by *slot*: with `n` clients, client `i` is slot
/// `i`, the provider slot `n` and the TTP slot `n + 1`. Slots key the
/// scheduler's deadline index.
pub struct Runner<T: Transport, S> {
    /// The wire. Use the typed accessors [`Runner::net`] /
    /// [`Runner::net_mut`], which keep the backend's full inherent API
    /// (links, interceptors) reachable without freezing the field layout
    /// into the public API.
    pub(crate) net: T,
    seats: S,
    /// Bob, the shared provider.
    pub provider: Provider,
    /// The shared trusted third party.
    pub ttp: Ttp,
    /// The clients' nodes (index-aligned with the seats' clients).
    pub client_nodes: Vec<NodeId>,
    /// Bob's node.
    pub bob_node: NodeId,
    /// The TTP's node.
    pub ttp_node: NodeId,
    // Ordered maps: the lint's DET-ORDER rule covers this module, and
    // iteration over these must be deterministic regardless of hash
    // seeding.
    node_of: BTreeMap<PrincipalId, NodeId>,
    principal_of: BTreeMap<NodeId, PrincipalId>,
    /// The observability sink: structured events (deliveries, rejections,
    /// garbled arrivals, drops, duplications, timer fires, state
    /// transitions) plus the metrics registry.
    pub obs: Obs,
    /// Safety valve against livelock in adversarial runs; when hit, settle
    /// reports [`sched::SettleOutcome::StepCapExceeded`] instead of
    /// silently stopping.
    pub max_steps: usize,
    /// Owner/start/settled per started transaction (evicted entries move to
    /// `archive`).
    pub(crate) txn_meta: BTreeMap<u64, TxnMeta>,
    /// Transactions the TTP has seen a message for.
    ttp_touched: BTreeSet<u64>,
    /// The fault injector executing `cfg.faults` (inert and overhead-free
    /// for the default plan).
    pub(crate) faults: FaultCtl,
    /// Last synced snapshots; `None` when the fault plan is inert.
    pub(crate) snaps: Option<Box<Snapshots>>,
    /// Scheduler-owned deadline index, keyed by slot: actors arm and
    /// disarm deadlines here instead of being polled each step.
    deadlines: Deadlines,
    /// Bounded-memory store for settled transactions (sharded by txn-id
    /// hash; oldest settled txns evicted to sealed evidence logs).
    pub(crate) archive: TxnArchive,
}

/// The single-client deployment — Alice, Bob and the TTP — over any
/// [`Transport`] backend.
pub type GenericWorld<T = SimNet> = Runner<T, Solo>;

/// The classic deterministic world: [`GenericWorld`] over [`SimNet`].
pub type World = GenericWorld<SimNet>;

impl<T: Transport, S> Deref for Runner<T, S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.seats
    }
}

impl<T: Transport, S> DerefMut for Runner<T, S> {
    fn deref_mut(&mut self) -> &mut S {
        &mut self.seats
    }
}

impl World {
    /// Builds a world on the deterministic simulator with fresh
    /// (deterministic) principals and the given protocol configuration.
    pub fn new(seed: u64, cfg: ProtocolConfig) -> Self {
        Self::with_transport(SimNet::new(seed), seed, cfg)
    }
}

impl<S: Seats> Runner<SimNet, S> {
    /// Configures every link with the same parameters (RTT sweeps).
    pub fn set_all_links(&mut self, cfg: LinkConfig) {
        self.net.set_default_link(cfg);
    }
}

impl<T: Transport> GenericWorld<T> {
    /// Builds a world over an arbitrary [`Transport`] backend. `seed`
    /// derives the principals' keys and each actor's RNG exactly as
    /// [`World::new`] does, so two backends given the same seed host
    /// byte-identical principals. Every settled transaction stays resident
    /// until [`Runner::set_archive_capacity`] turns eviction on.
    pub fn with_transport(net: T, seed: u64, cfg: ProtocolConfig) -> Self {
        let key = |name: &str, k: u64| Principal::test(name, seed.wrapping_mul(3).wrapping_add(k));
        let alice = [key("alice", 1)];
        let mut w = Runner::assemble(
            net,
            seed,
            cfg,
            &alice,
            &key("bob", 2),
            &key("ttp", 3),
            |mut clients, nodes, dir| Solo {
                client: clients.remove(0),
                alice_node: nodes[0],
                dir: dir.clone(),
            },
        );
        w.max_steps = 10_000;
        w.archive.set_hot_capacity(usize::MAX);
        w
    }

    /// Sends any messages produced by a client API call.
    pub fn send_from_client(&mut self, out: Vec<Outgoing>) {
        let alice = self.seats.alice_node;
        self.dispatch(alice, out);
    }

    /// Runs one transaction to settlement and returns the typed result.
    ///
    /// A failed initiation (e.g. no provider key) never panics: it is
    /// recorded as a rejection in [`Obs`] and reported as
    /// a `Failed` transaction with the sentinel id 0 (real ids start at 1).
    pub fn run(&mut self, req: TxnRequest) -> TxnResult {
        let started = self.net.now();
        let txn_id = self.start(0, &req.key, req.data, req.strategy);
        if txn_id == 0 {
            let (state, latency) = (TxnState::Failed, SimDuration::ZERO);
            let report =
                TxnReport { txn_id, state, messages: 0, bytes: 0, latency, ttp_used: false };
            let (data, nro, nrr, settle) = (None, None, None, None);
            return TxnResult { txn_id, outcome: state, data, nro, nrr, report, settle };
        }
        let settle = Some(self.settle().outcome);
        TxnResult { settle, ..self.result(txn_id, started) }
    }

    /// Uploads and settles ([`TxnRequest::upload`] + [`World::run`]).
    pub fn upload(
        &mut self,
        key: &[u8],
        data: impl Into<Bytes>,
        strategy: TimeoutStrategy,
    ) -> TxnResult {
        self.run(TxnRequest::upload(key, data).with_strategy(strategy))
    }

    /// Downloads and settles ([`TxnRequest::download`] + [`World::run`]);
    /// the payload arrives as `TxnResult::data` (a shared handle into the
    /// received bytes — no copy).
    pub fn download(&mut self, key: &[u8], strategy: TimeoutStrategy) -> TxnResult {
        self.run(TxnRequest::download(key).with_strategy(strategy))
    }

    /// Assembles the typed result for a settled transaction.
    pub fn result(&self, txn_id: u64, started: SimTime) -> TxnResult {
        self.result_for(0, self.report(txn_id, started))
    }

    /// Builds an exact per-transaction report from the transport's tagged
    /// traffic counters. Latency runs from `started` to the transaction's
    /// own last delivery, not to `net.now()`. An evicted transaction
    /// reports the accounting its archive record froze.
    pub fn report(&self, txn_id: u64, started: SimTime) -> TxnReport {
        let state = self.seats.client.txn_state(txn_id).unwrap_or(TxnState::Pending);
        self.archived_report(txn_id).unwrap_or_else(|| self.live_report(txn_id, state, started))
    }
}

impl<T: Transport, S: Seats> Runner<T, S> {
    /// Registers the population on `net` — clients first, then the
    /// provider and the TTP — and builds every actor over a [`Party`] of
    /// its own, with an RNG stream of its own. Each client gets a minimal
    /// directory ({self, provider, TTP}: all it ever verifies); the
    /// provider and the TTP hold the full directory. `seat` stores the
    /// clients, given their nodes and the full directory. The archive
    /// starts at its default hot capacity and the step cap at 100,000;
    /// constructors adjust both.
    pub(crate) fn assemble(
        mut net: T,
        seed: u64,
        cfg: ProtocolConfig,
        client_principals: &[Principal],
        bob: &Principal,
        ttp_p: &Principal,
        seat: impl FnOnce(Vec<Client>, &[NodeId], &Directory) -> S,
    ) -> Self {
        assert!(!client_principals.is_empty());
        let mut dir = Directory::new();
        for p in [bob, ttp_p].into_iter().chain(client_principals) {
            dir.register(p);
        }
        let client_nodes: Vec<NodeId> =
            client_principals.iter().map(|c| net.register(&c.name)).collect();
        let bob_node = net.register(&bob.name);
        let ttp_node = net.register(&ttp_p.name);
        let party = |p: &Principal, dir: Directory, stream: u64| {
            let rng = ChaChaRng::seed_from_u64(seed ^ stream);
            Party::new(p.clone(), cfg.clone(), dir, ttp_p.id(), rng)
        };

        let clients = client_principals
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut cdir = Directory::new();
                for q in [bob, ttp_p, p] {
                    cdir.register(q);
                }
                Client::new(party(p, cdir, 0xc11e47 + i as u64), bob.id())
            })
            .collect();
        let seats = seat(clients, &client_nodes, &dir);
        let provider = Provider::new(party(bob, dir.clone(), 0xb0b));
        let ttp = Ttp::new(party(ttp_p, dir, 0x777));
        let names: Vec<&str> =
            client_principals.iter().chain([bob, ttp_p]).map(|p| p.name.as_str()).collect();
        let faults = FaultCtl::new(&cfg.faults, &names);
        // Take the epoch-zero recovery points up front: a crash before the
        // first sync restores to the freshly-built actor, not to garbage.
        let snaps = faults.active().then(|| {
            Box::new(Snapshots {
                clients: seats.clients().iter().map(Durable::snapshot).collect(),
                provider: provider.snapshot(),
                ttp: ttp.snapshot(),
            })
        });

        let mut node_of = BTreeMap::new();
        node_of.insert(bob.id(), bob_node);
        node_of.insert(ttp_p.id(), ttp_node);
        for (p, n) in client_principals.iter().zip(&client_nodes) {
            node_of.insert(p.id(), *n);
        }
        let principal_of = node_of.iter().map(|(p, n)| (*n, *p)).collect();

        Runner {
            net,
            seats,
            provider,
            ttp,
            client_nodes,
            bob_node,
            ttp_node,
            node_of,
            principal_of,
            obs: Obs::new(),
            max_steps: 100_000,
            txn_meta: BTreeMap::new(),
            ttp_touched: BTreeSet::new(),
            faults,
            snaps,
            deadlines: Deadlines::new(),
            archive: TxnArchive::new(),
        }
    }

    /// Borrows the transport backend (typed, so the backend's own API —
    /// [`SimNet::set_link`] and the other link knobs — stays reachable).
    pub fn net(&self) -> &T {
        &self.net
    }

    /// Mutably borrows the transport backend (links, interceptors,
    /// manual sends in attack and test harnesses).
    pub fn net_mut(&mut self) -> &mut T {
        &mut self.net
    }

    /// Runs deliveries and timeout polls on the shared scheduler
    /// ([`sched::settle`]) until every timer and delivery is drained or
    /// `max_steps` is hit — check `outcome` on the returned report.
    pub fn settle(&mut self) -> SettleReport {
        self.resync_deadlines();
        let max_steps = self.max_steps;
        let report = sched::settle(self, max_steps);
        // Mirror the cumulative fault counters into the metrics registry so
        // JSONL/bench output carries them without re-deriving.
        let f = report.faults;
        self.obs.metrics.crashes = f.crashes;
        self.obs.metrics.restarts = f.restarts;
        self.obs.metrics.retries = f.retries;
        self.obs.metrics.snapshot_bytes = f.snapshot_bytes;
        report
    }

    /// Cumulative fault counters: the injector's own plus every client's
    /// retry machinery (which lives outside snapshots so it never resets).
    pub fn fault_counters(&self) -> FaultStats {
        let mut f = self.faults.stats;
        for c in self.seats.clients() {
            f.retries += c.retry_stats.retries;
            f.gave_up += c.retry_stats.gave_up;
        }
        f
    }

    /// Archive behaviour counters (evictions, re-hydrations, resident
    /// settled txns, sealed log bytes).
    pub fn archive_stats(&self) -> ArchiveStats {
        self.archive.stats()
    }

    /// Live per-transaction bookkeeping entries (the bounded-memory
    /// regression hook: settled txns leave this map when evicted).
    pub fn resident_txns(&self) -> usize {
        self.txn_meta.len()
    }

    /// Re-hydrates an evicted transaction's archived evidence bundle.
    pub fn rehydrate_evidence(&self, txn: u64) -> Option<EvidenceBundle> {
        self.archive.load_bundle(txn)
    }

    /// Sets the archive's per-shard hot capacity: settled transactions
    /// beyond it are evicted to the sealed log. A [`World`] starts with
    /// eviction off (an unbounded hot set), a
    /// [`MultiWorld`](crate::multi::MultiWorld) at
    /// [`DEFAULT_HOT_CAPACITY`](crate::archive::DEFAULT_HOT_CAPACITY); tests
    /// lower it to force eviction, experiments tune resident memory.
    pub fn set_archive_capacity(&mut self, hot_capacity: usize) {
        self.archive.set_hot_capacity(hot_capacity);
    }

    /// Starts a transaction on client `idx` without settling (so many can
    /// be in flight together): an upload of `data`, or a download when it
    /// is `None`. Returns the transaction id; a failed initiation returns
    /// the sentinel 0 and is recorded as a rejection in [`Obs`], never a
    /// panic.
    pub(crate) fn start(
        &mut self,
        idx: usize,
        key: &[u8],
        data: Option<Bytes>,
        strategy: TimeoutStrategy,
    ) -> u64 {
        let now = self.net.now();
        let client = &mut self.seats.clients_mut()[idx];
        let begun = match data {
            Some(data) => client.begin_upload(key, data, now, strategy),
            None => client.begin_download(key, now, strategy),
        };
        let node = self.client_nodes[idx];
        let (txn, out) = match begun {
            Ok(v) => v,
            Err(error) => {
                let kind = EventKind::Rejected {
                    from: node,
                    msg: MsgKind::Transfer,
                    error: Box::new(error),
                };
                self.obs.record(Event { at: now, txn: None, actor: node, kind });
                return 0;
            }
        };
        // Seats are a `Vec` of clients, each many kilobytes: a seat index
        // past `u32::MAX` cannot exist.
        let client = u32::try_from(idx).unwrap_or(u32::MAX);
        self.txn_meta.insert(txn, TxnMeta { client, started: now, settled: false });
        self.obs.note_state(now, node, txn, TxnState::Pending);
        // Write-ahead: the NRO sealed at initiation must survive a crash
        // that lands before any reply comes back.
        self.sync_actor(idx, now, true);
        self.dispatch(node, out);
        txn
    }

    /// A live transaction's report from the transport's tagged traffic
    /// counters. Latency is txn-scoped — measured from `started` to this
    /// transaction's own last delivery, not to `net.now()` — so unrelated
    /// background traffic never inflates it.
    pub(crate) fn live_report(&self, txn_id: u64, state: TxnState, started: SimTime) -> TxnReport {
        let t = self.net.txn_stats(txn_id);
        TxnReport {
            txn_id,
            state,
            messages: t.delivered,
            bytes: t.bytes_sent,
            latency: t.last_delivered_at.since(started),
            ttp_used: self.ttp_touched.contains(&txn_id),
        }
    }

    /// An evicted transaction's report: the final accounting its archive
    /// index record froze.
    pub(crate) fn archived_report(&self, txn_id: u64) -> Option<TxnReport> {
        let rec = self.archive.get(txn_id)?;
        Some(TxnReport {
            txn_id,
            state: rec.state,
            messages: rec.messages,
            bytes: rec.bytes,
            latency: rec.latency,
            ttp_used: rec.ttp_used,
        })
    }

    /// The typed result behind `report` for client `idx`: payload and
    /// evidence from the live record, or the evidence re-hydrated from the
    /// sealed log once evicted (the downloaded payload is gone by then —
    /// the provider's storage holds the service copy, evidence is what
    /// survives for arbitration).
    pub(crate) fn result_for(&self, idx: usize, report: TxnReport) -> TxnResult {
        let txn_id = report.txn_id;
        let c = &self.seats.clients()[idx];
        let (data, nro, nrr) = match c.txn(txn_id) {
            Some(t) => {
                let data = c.download_result(txn_id).map(|p| p.data.clone());
                // A record that does not decode has lost its evidence.
                let (nro, nrr) = t.evidence().map_or((None, None), |(nro, nrr)| (Some(nro), nrr));
                (data, nro, nrr)
            }
            None => {
                let b = self.archive.load_bundle(txn_id).unwrap_or_default();
                (None, b.get("client-nro").cloned(), b.get("client-nrr").cloned())
            }
        };
        TxnResult { txn_id, outcome: report.state, data, nro, nrr, report, settle: None }
    }

    /// The actor slot at `node`, if an actor sits there.
    fn slot(&self, node: NodeId) -> Option<usize> {
        let n = self.client_nodes.len();
        if node == self.bob_node {
            Some(n)
        } else if node == self.ttp_node {
            Some(n + 1)
        } else {
            self.client_nodes.iter().position(|&c| c == node)
        }
    }

    /// The node of the actor in `slot`.
    fn node_at(&self, slot: usize) -> NodeId {
        match slot.checked_sub(self.client_nodes.len()) {
            None => self.client_nodes[slot],
            Some(0) => self.bob_node,
            Some(_) => self.ttp_node,
        }
    }

    /// Every actor slot: the clients, the provider and the TTP.
    fn slots(&self) -> std::ops::Range<usize> {
        0..self.client_nodes.len() + 2
    }

    fn actor(&self, slot: usize) -> &dyn Actor {
        match slot.checked_sub(self.client_nodes.len()) {
            None => &self.seats.clients()[slot],
            Some(0) => &self.provider,
            Some(_) => &self.ttp,
        }
    }

    fn actor_mut(&mut self, slot: usize) -> &mut dyn Actor {
        match slot.checked_sub(self.client_nodes.len()) {
            None => &mut self.seats.clients_mut()[slot],
            Some(0) => &mut self.provider,
            Some(_) => &mut self.ttp,
        }
    }

    /// Adds the transactions client `slot` has open now to this timer
    /// round's state diff. Other slots own no client transactions.
    fn note_open(&self, moved: &mut Vec<(u64, usize)>, slot: usize) {
        if let Some(client) = self.seats.clients().get(slot) {
            moved.extend(client.open_txns().map(|t| (t, slot)));
        }
    }

    /// Re-arms one actor's earliest deadline in the index (a down actor's
    /// timers are frozen, so its slot is disarmed instead).
    fn refresh_deadline(&mut self, slot: usize) {
        let d = if self.faults.is_down(slot) { None } else { self.actor(slot).next_deadline() };
        self.deadlines.set(slot, d);
    }

    /// Full index resync from actor state. Run at every settle entry so
    /// deadlines armed or mutated outside the event loop (API calls, test
    /// and attack harnesses poking actors directly) are picked up.
    fn resync_deadlines(&mut self) {
        for slot in self.slots() {
            self.refresh_deadline(slot);
        }
    }

    fn dispatch(&mut self, from_node: NodeId, out: Vec<Outgoing>) {
        for o in out {
            let Some(&dst) = self.node_of.get(&o.to) else { continue };
            let txn = o.msg.txn_id();
            // First wire activity marks the transaction's start (idempotent)
            // so terminal-state latency is measurable for every entry path.
            self.obs.note_txn_started(txn, self.net.now());
            // Encode once into a shared buffer; the simulator clones only
            // the handle from here on (queue, duplicates, delivery).
            self.net.send_tagged(from_node, dst, o.msg.to_wire_bytes(), Some(txn));
        }
    }

    /// Crashes the actor in `slot` and takes it down. The restart instant
    /// becomes a scheduler timer via [`FaultCtl::next_wakeup`].
    pub(crate) fn crash_actor(&mut self, slot: usize, now: SimTime) {
        self.faults.crash(slot, now);
        self.take_down(slot, now);
    }

    /// Takes the crashed actor in `slot` off the wire and records the
    /// event.
    fn take_down(&mut self, slot: usize, now: SimTime) {
        let node = self.node_at(slot);
        // The outage is a transport fact: queued copies addressed to the
        // node drop (and are counted) at their delivery instant instead of
        // silently evaporating in the runner.
        self.net.set_node_down(node, true);
        // Freeze the crashed actor's armed deadline: its slot is disarmed
        // and re-armed from the restored snapshot.
        self.deadlines.set(slot, None);
        self.obs.record(Event { at: now, txn: None, actor: node, kind: EventKind::Crashed });
    }

    /// Restores a restarted actor from its last synced snapshot. An image
    /// synced before an eviction brings the evicted records back, though
    /// the archive already holds them and `txn_meta` no longer lists them,
    /// so each is evicted again through the actor's own `evict_txn`, which
    /// also puts back its validator tombstone.
    fn restore_actor(&mut self, slot: usize, now: SimTime) {
        let Some(snaps) = self.snaps.as_deref() else { return };
        let archive = &self.archive;
        let archived = |txns: Vec<u64>| txns.into_iter().filter(|&t| archive.get(t).is_some());
        let bytes = match slot.checked_sub(self.client_nodes.len()) {
            None => {
                let client = &mut self.seats.clients_mut()[slot];
                client.restore(&snaps.clients[slot]);
                for txn in archived(client.txn_ids()) {
                    client.evict_txn(txn);
                }
                snaps.clients[slot].bytes()
            }
            Some(0) => {
                self.provider.restore(&snaps.provider);
                for txn in archived(self.provider.txn_ids()) {
                    self.provider.evict_txn(txn);
                }
                snaps.provider.bytes()
            }
            Some(_) => {
                self.ttp.restore(&snaps.ttp);
                for txn in archived(self.ttp.pending_txns()) {
                    self.ttp.evict_txn(txn);
                }
                snaps.ttp.bytes()
            }
        };
        let kind = EventKind::Restarted { snapshot_bytes: bytes };
        self.obs.record(Event { at: now, txn: None, actor: self.node_at(slot), kind });
    }

    /// Durably syncs an actor's state if due (or forced — the write-ahead
    /// path taken before any produced message reaches the wire).
    fn sync_actor(&mut self, slot: usize, now: SimTime, force: bool) {
        if self.snaps.is_none() {
            return;
        }
        if self.faults.sync_due(slot, now, force) != SyncDecision::Persist {
            return;
        }
        let Some(snaps) = self.snaps.as_deref_mut() else { return };
        let bytes = match slot.checked_sub(self.client_nodes.len()) {
            None => {
                snaps.clients[slot] = self.seats.clients()[slot].snapshot();
                snaps.clients[slot].bytes()
            }
            Some(0) => {
                snaps.provider = self.provider.snapshot();
                snaps.provider.bytes()
            }
            Some(_) => {
                snaps.ttp = self.ttp.snapshot();
                snaps.ttp.bytes()
            }
        };
        self.faults.note_snapshot(bytes);
    }

    /// Records a client-side state transition and, on the first terminal
    /// transition, funnels the txn through the archive's settled queue —
    /// possibly evicting the shard's oldest settled txn to the sealed log.
    fn note_txn_state(&mut self, now: SimTime, idx: usize, txn: u64, st: TxnState) {
        self.obs.note_state(now, self.client_nodes[idx], txn, st);
        let newly_settled = st.is_terminal()
            && match self.txn_meta.get_mut(&txn) {
                Some(meta) if !meta.settled => {
                    meta.settled = true;
                    true
                }
                _ => false,
            };
        if newly_settled {
            if let Some(victim) = self.archive.note_settled(txn) {
                self.evict_txn(victim);
            }
        }
    }

    /// Evicts a settled transaction: every layer's live per-txn state
    /// (client record, provider session record, TTP pending entry, all
    /// validator replay windows, obs tallies, tagged net counters,
    /// `txn_meta`) is dropped; the evidence is sealed into the archive's
    /// shard log and a compact index record keeps `report`/`state`/`result`
    /// answerable. Validators keep a tombstone, so late replays for the
    /// txn are refused instead of being handed a fresh window.
    fn evict_txn(&mut self, txn: u64) {
        let Some(meta) = self.txn_meta.remove(&txn) else { return };
        let client = &mut self.seats.clients_mut()[meta.client as usize];
        let state = client.txn_state(txn).unwrap_or(TxnState::Failed);
        let client_ev = client.txn(txn).map(|t| t.evidence());
        client.evict_txn(txn);
        let provider_ev = self.provider.txn(txn).map(|t| t.evidence());
        self.provider.evict_txn(txn);
        self.ttp.evict_txn(txn);
        let net = self.net.retire_txn(txn);
        self.obs.retire_txn(txn);
        let ttp_used = self.ttp_touched.remove(&txn);
        let mut bundle = EvidenceBundle::new();
        if let Some(Ok((nro, nrr))) = client_ev {
            bundle.push("client-nro", nro);
            if let Some(nrr) = nrr {
                bundle.push("client-nrr", nrr);
            }
        }
        // An aborted transaction's provider holds no NRR: Bob committed to
        // nothing, so nothing is archived in its name.
        if let Some(Ok((nro, nrr))) = provider_ev {
            bundle.push("provider-nro", nro);
            if let Some(nrr) = nrr {
                bundle.push("provider-nrr", nrr);
            }
        }
        let rec = ArchivedTxn::record(
            meta.client as usize,
            meta.started,
            state,
            net.delivered,
            net.bytes_sent,
            net.last_delivered_at.since(meta.started),
            ttp_used,
        );
        self.archive.archive(txn, &bundle, rec);
    }
}

impl<T: Transport, S: Seats> EventHub for Runner<T, S> {
    fn transport(&mut self) -> &mut dyn Transport {
        &mut self.net
    }

    fn next_timer(&self) -> Option<SimTime> {
        // Actor deadlines come from the index, so no actor is polled; a
        // crashed actor's slot is disarmed, freezing its protocol timers
        // until restart. The fault injector's wakeups (restarts, outage
        // starts) are read from the injector itself, so downtime advances
        // the clock instead of stalling the loop.
        self.deadlines.peek().into_iter().chain(self.faults.next_wakeup()).min()
    }

    fn fire_timers(&mut self, now: SimTime) -> usize {
        // The client transactions that may move this round: those open
        // after a restore (it may have reopened them) and those open before
        // a tick (it may close them). In a timer round only a restore can
        // reopen a settled transaction and a tick never opens one, so the
        // state diff below covers only these, not every transaction a
        // client ever ran.
        let mut moved: Vec<(u64, usize)> = Vec::new();
        if self.faults.active() {
            // Restarts and outage boundaries first: a just-restored actor
            // ticks in this same round, so an overdue deadline revealed by
            // the restore produces output immediately (never barren).
            let ev = self.faults.poll(now);
            for slot in ev.crashed {
                self.take_down(slot, now);
            }
            for slot in ev.restarted {
                self.restore_actor(slot, now);
                self.note_open(&mut moved, slot);
                // Re-arm from the restored state (the stale pre-crash entry
                // was disarmed at crash time and can never fire).
                self.net.set_node_down(self.node_at(slot), false);
                self.refresh_deadline(slot);
            }
        }
        let mut dispatched = 0;
        // A down actor's slot is disarmed, so every due slot is live.
        let due = self.deadlines.advance(now);
        for &slot in &due {
            self.note_open(&mut moved, slot);
        }
        for slot in due {
            let out = self.actor_mut(slot).on_tick(now);
            let kind = EventKind::TimerFired { messages: out.len() };
            self.obs.record(Event { at: now, txn: None, actor: self.node_at(slot), kind });
            if !out.is_empty() {
                // Write-ahead: timer-driven sends (Abort/Resolve) persist
                // the state they acknowledge before hitting the wire.
                self.sync_actor(slot, now, true);
            }
            dispatched += out.len();
            self.dispatch(self.node_at(slot), out);
            // The tick moved or kept this actor's deadline; re-arm it (a
            // kept overdue deadline stays the minimum, preserving the
            // scheduler's barren-masking comparison).
            self.refresh_deadline(slot);
        }
        // Timer rounds move client-visible states (abort/resolve
        // initiation, failure declarations); diff them in txn order so
        // same-instant transitions land deterministically.
        moved.sort_unstable();
        moved.dedup();
        for (txn, idx) in moved {
            if let Some(st) = self.seats.clients()[idx].txn_state(txn) {
                self.note_txn_state(now, idx, txn, st);
            }
        }
        dispatched
    }

    fn deliver(&mut self, env: Envelope) {
        let tag = env.txn;
        let txn = self.route(env);
        self.retire_if_archived(tag);
        if txn != tag {
            self.retire_if_archived(txn);
        }
    }

    fn obs_mut(&mut self) -> Option<&mut Obs> {
        Some(&mut self.obs)
    }

    fn fault_stats(&self) -> FaultStats {
        self.fault_counters()
    }

    fn record_net_event(&mut self, e: NetEvent) {
        self.obs.record(sched::net_event(&e));
        self.retire_if_archived(e.txn);
    }
}

impl<T: Transport, S: Seats> Runner<T, S> {
    /// Routes one arrival to its actor and dispatches the actor's replies.
    /// Returns the transaction the message's header names, if it decodes.
    fn route(&mut self, env: Envelope) -> Option<u64> {
        let now = self.net.now();
        let slot = self.slot(env.dst);
        if slot.is_some_and(|s| self.faults.is_down(s)) {
            // Same-instant defense in depth: the transport drops queued
            // copies for a down node at their delivery instant, but a crash
            // fired in this very settle round can race an already-polled
            // envelope. The sender's retry machinery is the recovery path.
            self.faults.note_delivery_lost();
            return None;
        }
        // Events name both ends by node, so an arrival from or to a node no
        // actor sits at is still attributed, never a panic.
        let (actor, from) = (env.dst, env.src);
        let msg = match Message::from_wire_bytes(&env.payload) {
            Ok(m) => m,
            Err(_) => {
                // An undecodable payload belongs to whatever transaction
                // tagged it on the wire — usually none.
                let kind = EventKind::Garbled { from };
                self.obs.record(Event { at: now, txn: env.txn, actor, kind });
                return None;
            }
        };
        let txn_id = msg.txn_id();
        // Prefer the sender's wire tag; adversary injections are untagged
        // but decode, so fall back to the protocol header's id.
        let txn = env.txn.or(Some(txn_id));
        let msg_kind = msg.kind();
        let Some(slot) = slot else {
            // Nobody sits at the destination to judge the message, so the
            // runner refuses it: its recipient is no party of this
            // deployment. Recorded once, like any actor's rejection.
            let error = Box::new(ValidationError::IdentityMismatch);
            let kind = EventKind::Rejected { from, msg: msg_kind, error };
            self.obs.record(Event { at: now, txn, actor, kind });
            return Some(txn_id);
        };
        if env.dst == self.ttp_node {
            self.ttp_touched.insert(txn_id);
        }
        let verdict = if self.faults.active() {
            self.faults.delivery_verdict(slot, msg_kind)
        } else {
            DeliveryVerdict::Proceed
        };
        if verdict == DeliveryVerdict::CrashBefore {
            // Crash on receipt: the message is lost before processing.
            self.crash_actor(slot, now);
            return Some(txn_id);
        }
        // An unlisted sender is handed over under a sentinel id, so the
        // recipient's identity binding (or its ablation) decides.
        let sender = self.principal_of.get(&env.src).copied().unwrap_or(UNKNOWN_SENDER);
        match self.actor_mut(slot).on_message(sender, &msg, now) {
            Ok(out) => {
                let kind = EventKind::Delivered { from, msg: msg_kind };
                self.obs.record(Event { at: now, txn, actor, kind });
                if let Some(st) = self.seats.clients().get(slot).and_then(|c| c.txn_state(txn_id)) {
                    self.note_txn_state(now, slot, txn_id, st);
                }
                // Write-ahead durable sync: a reply acknowledges state, so
                // the state hits the snapshot before the reply hits the
                // wire. Output-less (passive) steps defer to the interval.
                let force = !out.is_empty() || verdict == DeliveryVerdict::CrashAfter;
                self.sync_actor(slot, now, force);
                if verdict == DeliveryVerdict::CrashAfter {
                    // State persisted, replies die with the process.
                    self.crash_actor(slot, now);
                } else {
                    self.dispatch(env.dst, out);
                }
            }
            Err(error) => {
                let kind = EventKind::Rejected { from, msg: msg_kind, error: Box::new(error) };
                self.obs.record(Event { at: now, txn, actor, kind });
                if verdict == DeliveryVerdict::CrashAfter {
                    self.crash_actor(slot, now);
                }
            }
        }
        // The message may have armed, moved, or cleared the recipient's
        // earliest deadline; keep the index authoritative. (Crash paths
        // already disarmed the slot; refresh on a down actor disarms it
        // again.)
        self.refresh_deadline(slot);
        Some(txn_id)
    }

    /// Retires again what a late copy of an evicted transaction reopened.
    /// A duplicate delivered, refused or dropped after [`Runner::evict_txn`]
    /// puts the transaction back in the net ledger, the obs tallies and the
    /// TTP's set, and nothing else would take it out. Each arrival and each
    /// drained net event checks its own transaction, so no settle scans the
    /// history.
    fn retire_if_archived(&mut self, txn: Option<u64>) {
        let Some(txn) = txn else { return };
        if self.txn_meta.contains_key(&txn) || self.archive.get(txn).is_none() {
            return;
        }
        self.net.retire_txn(txn);
        self.obs.retire_txn(txn);
        self.ttp_touched.remove(&txn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpnr_net::time::SimDuration;

    fn world() -> World {
        World::new(1, ProtocolConfig::full())
    }

    #[test]
    fn a_txn_meta_is_16_bytes() {
        // Every settled transaction keeps one while `World` holds it.
        assert!(std::mem::size_of::<TxnMeta>() <= 16, "{} B", std::mem::size_of::<TxnMeta>());
    }

    #[test]
    fn normal_upload_takes_two_messages_no_ttp() {
        let mut w = world();
        let r = w.upload(b"backup/q3", b"financial data".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(r.completed() && r.arbitrable());
        assert_eq!(r.report.messages, 2, "paper: Normal mode is a two-step exchange");
        assert!(!r.report.ttp_used, "paper: TTP stays off-line in Normal mode");
        assert_eq!(w.provider.peek_storage(b"backup/q3"), Some(&b"financial data"[..]));
    }

    #[test]
    fn normal_download_roundtrip() {
        let mut w = world();
        w.upload(b"k", b"hello cloud".to_vec(), TimeoutStrategy::AbortFirst);
        let r = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert_eq!(r.report.messages, 2);
        assert_eq!(r.data.unwrap(), b"hello cloud");
    }

    #[test]
    fn evidence_archived_on_both_sides() {
        let mut w = world();
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        let ct = w.client.txn(r.txn_id).unwrap();
        assert!(ct.nrr().unwrap().is_some(), "Alice holds Bob's NRR");
        let pt = w.provider.txn(r.txn_id).unwrap();
        assert_eq!(pt.nro().unwrap().plaintext.txn_id, r.txn_id, "Bob holds Alice's NRO");
    }

    #[test]
    fn upload_download_integrity_link_detects_tamper() {
        let mut w = world();
        let up = w.upload(b"k", b"true data".to_vec(), TimeoutStrategy::AbortFirst);
        w.provider.tamper_storage(b"k", b"fake data".to_vec());
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(down.outcome, TxnState::Completed);
        assert_eq!(down.data.clone().unwrap(), b"fake data", "tampered bytes arrive 'validly'");
        // The TPNR integrity link catches it where the platforms could not:
        assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(false));
    }

    #[test]
    fn integrity_link_confirms_clean_roundtrip() {
        let mut w = world();
        let up = w.upload(b"k", b"stable".to_vec(), TimeoutStrategy::AbortFirst);
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert_eq!(w.client.verify_download_against_upload(up.txn_id, down.txn_id), Some(true));
    }

    #[test]
    fn silent_provider_abort_path() {
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        // Bob ignored the transfer but answered the abort.
        assert_eq!(r.outcome, TxnState::Aborted);
        assert!(r.arbitrable(), "aborted but the NRO still settles disputes");
        assert!(!r.report.ttp_used, "abort is an off-line-TTP sub-protocol");
    }

    #[test]
    fn fully_silent_provider_resolve_declares_failure() {
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        w.provider.behavior.respond_aborts = false;
        w.provider.behavior.respond_resolves = false;
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::ResolveImmediately);
        assert_eq!(r.outcome, TxnState::Failed);
        assert!(r.report.ttp_used);
        assert_eq!(w.ttp.stats.failures_declared, 1);
    }

    #[test]
    fn lost_receipt_recovered_via_resolve() {
        let mut w = world();
        // Drop Bob→Alice receipts only: Bob stores the data and issues the
        // NRR but Alice never sees it, so she resolves via the TTP.
        let alice = w.alice_node;
        let bob = w.bob_node;
        w.net.set_link(bob, alice, LinkConfig { drop_prob: 1.0, ..LinkConfig::default() });
        let now = w.net.now();
        let (txn_id, out) = w
            .client
            .begin_upload(b"k", b"data".to_vec(), now, TimeoutStrategy::ResolveImmediately)
            .unwrap();
        w.send_from_client(out);
        // Heal the link after the first loss so the resolve reply gets back.
        w.settle();
        // The receipt was dropped; resolve went through the TTP path.
        // (TTP relays Bob's re-issued NRR to Alice over ttp→alice link,
        // which is not the dropped one.)
        assert_eq!(w.client.txn_state(txn_id), Some(TxnState::Completed));
        assert!(w.ttp.stats.replies_relayed >= 1);
        assert!(w.client.txn(txn_id).unwrap().nrr().unwrap().is_some());
    }

    #[test]
    fn settle_terminates_under_heavy_loss() {
        // Every protocol run must end in a terminal state even on a 30%
        // lossy network (no stuck sessions) — DESIGN.md §6 — and the
        // scheduler must reach true quiescence, not a silent step cap.
        for seed in 0..5 {
            let mut w = World::new(seed, ProtocolConfig::full());
            w.set_all_links(LinkConfig::lossy(SimDuration::from_millis(20), 0.3));
            let started = w.net.now();
            let (txn_id, out) = w
                .client
                .begin_upload(b"k", vec![1, 2, 3], started, TimeoutStrategy::ResolveImmediately)
                .unwrap();
            w.send_from_client(out);
            let s = w.settle();
            assert_eq!(s.outcome, SettleOutcome::Quiescent, "seed {seed}");
            let r = w.report(txn_id, started);
            assert!(r.state.is_terminal(), "seed {seed} left state {:?}", r.state);
        }
    }

    #[test]
    fn overdue_timer_fires_despite_background_traffic() {
        // Regression for the settle-loop starvation bug: the old loop only
        // fired a timer while `deadline >= now`, so once deliveries pushed
        // the clock past the deadline, Abort/Resolve was postponed until
        // the network drained. Flood the wire with undecodable chatter
        // spread over ~2 minutes (latency jitter reorders it) against a
        // silent provider: the resolve must still go out at its deadline,
        // not after the flood.
        let mut w = world();
        w.provider.behavior.respond_transfers = false;
        let (a, b) = (w.alice_node, w.bob_node);
        w.net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_secs(120),
                ..Default::default()
            },
        );
        let started = w.net.now();
        let (txn_id, out) = w
            .client
            .begin_upload(b"k", b"data".to_vec(), started, TimeoutStrategy::ResolveImmediately)
            .unwrap();
        w.send_from_client(out);
        for _ in 0..200 {
            w.net.send(a, b, b"not a protocol message".to_vec());
        }
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
        // A provider that drops transfers never records the NRO, so the
        // resolve ends in a TTP-mediated Restart and the client marks the
        // session failed — the fair outcome, and a terminal one.
        assert_eq!(w.client.txn_state(txn_id), Some(TxnState::Failed));
        let resolve_at = w
            .obs
            .events()
            .iter()
            .find(|e| e.msg_kind() == Some(MsgKind::Resolve))
            .expect("resolve was sent")
            .at;
        // The client deadline is response_timeout after start — the flood
        // tail is ~2 minutes out, so firing anywhere near the deadline
        // proves the timer was not starved.
        assert!(
            resolve_at.micros() < 60_000_000,
            "resolve delayed until the flood drained: {} µs",
            resolve_at.micros()
        );
    }

    #[test]
    fn step_cap_reports_exceeded_instead_of_silently_settling() {
        let mut w = world();
        w.max_steps = 1;
        let started = w.net.now();
        let (_, out) = w
            .client
            .begin_upload(b"k", b"d".to_vec(), started, TimeoutStrategy::AbortFirst)
            .unwrap();
        w.send_from_client(out);
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::StepCapExceeded);
        // Resuming with a sane cap finishes the run.
        w.max_steps = 10_000;
        let s = w.settle();
        assert_eq!(s.outcome, SettleOutcome::Quiescent);
    }

    #[test]
    fn a_run_reports_the_outcome_of_its_settle() {
        let mut w = world();
        let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.settle, Some(SettleOutcome::Quiescent));
        w.max_steps = 1;
        let r = w.upload(b"k2", b"d".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.settle, Some(SettleOutcome::StepCapExceeded));
        assert!(!r.outcome.is_terminal(), "the capped upload is still open");
        // A bare result settled nothing, so it reports no outcome.
        assert_eq!(w.result(r.txn_id, SimTime::ZERO).settle, None);
    }

    #[test]
    fn timer_delivery_tie_is_deterministic_timer_first() {
        // Arrange an exact tie: the receipt arrives at the very instant the
        // client's response deadline expires (response_timeout == one RTT).
        // The documented rule is timer-first — a reply landing exactly at
        // the deadline is late — so the abort goes out even though the
        // receipt was deliverable at the same timestamp, and the run is
        // reproducible event-for-event.
        let run = || {
            let mut cfg = ProtocolConfig::full();
            cfg.response_timeout = SimDuration::from_millis(50); // == RTT
            let mut w = World::new(9, cfg);
            let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
            let kinds: Vec<MsgKind> = w.obs.events().iter().filter_map(Event::msg_kind).collect();
            (r.outcome, kinds)
        };
        let (state1, kinds1) = run();
        let (state2, kinds2) = run();
        assert_eq!(kinds1, kinds2, "tie-break must be deterministic");
        assert_eq!(state1, state2);
        assert!(
            kinds1.contains(&MsgKind::Abort),
            "timer fired before the same-instant receipt delivery: {kinds1:?}"
        );
    }

    #[test]
    fn event_stream_records_deliveries_and_states() {
        let mut w = world();
        let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
        let deliveries: Vec<&Event> = w
            .obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Delivered { .. }))
            .collect();
        assert_eq!(deliveries.len(), 2);
        assert_eq!(deliveries[0].msg_kind(), Some(MsgKind::Transfer));
        assert_eq!(deliveries[0].actor, w.bob_node);
        assert_eq!(deliveries[0].txn, Some(r.txn_id));
        assert_eq!(deliveries[1].msg_kind(), Some(MsgKind::Receipt));
        assert_eq!(deliveries[1].actor, w.alice_node);
        assert_eq!(w.obs.metrics.delivered, 2);
        assert_eq!(w.obs.metrics.rejected + w.obs.metrics.garbled, 0);
        // Pending → Completed, visible as state transitions, with the
        // settlement latency sampled once.
        let states: Vec<_> = w
            .obs
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::StateTransition { from, to } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            vec![(None, TxnState::Pending), (Some(TxnState::Pending), TxnState::Completed)]
        );
        assert_eq!(w.obs.metrics.latency_us.count(), 1);
        assert_eq!(w.obs.metrics.latency_us.max(), Some(r.report.latency.micros()));
        assert_eq!(w.obs.txn(r.txn_id).inbox_total(), 2);
    }

    #[test]
    fn latency_scales_with_rtt() {
        let mut lat = Vec::new();
        for rtt_ms in [10u64, 100] {
            let mut w = world();
            w.set_all_links(LinkConfig::ideal(SimDuration::from_millis(rtt_ms / 2)));
            let r = w.upload(b"k", b"d".to_vec(), TimeoutStrategy::AbortFirst);
            lat.push(r.report.latency.micros());
        }
        assert_eq!(lat[0], 10_000);
        assert_eq!(lat[1], 100_000);
    }

    #[test]
    fn report_latency_is_txn_scoped_not_clock_scoped() {
        // Regression for the latency misreport: `report` used to measure to
        // `net.now()`, so any background traffic inflated every number.
        // Flood the wire with undecodable chatter whose jitter spreads it
        // over ~2 minutes, then run a clean upload on a healed link: the
        // upload's latency must reflect its own two deliveries, not the
        // flood's tail.
        let mut w = world();
        let (a, b) = (w.alice_node, w.bob_node);
        w.net.set_link(
            a,
            b,
            LinkConfig {
                latency: SimDuration::from_millis(1),
                jitter: SimDuration::from_secs(120),
                ..Default::default()
            },
        );
        for _ in 0..200 {
            w.net.send(a, b, b"background noise".to_vec());
        }
        w.net.set_link(a, b, LinkConfig::default());
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(r.outcome, TxnState::Completed);
        assert!(
            w.net.now().micros() > 60_000_000,
            "the flood should have kept the clock running: {}",
            w.net.now().micros()
        );
        assert!(
            r.report.latency.micros() <= 1_000_000,
            "latency must be txn-scoped, got {} µs",
            r.report.latency.micros()
        );
        // Satellite check: the garbled chatter is visible and attributed to
        // no transaction (it used to claim `txn_id: 0`).
        assert_eq!(w.obs.metrics.garbled, 200);
        assert!(w
            .obs
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Garbled { .. }))
            .all(|e| e.txn.is_none()));
    }

    #[test]
    fn ring_buffer_bounds_event_memory_under_flood() {
        let mut w = world();
        w.obs.set_capacity(64);
        let (a, b) = (w.alice_node, w.bob_node);
        for _ in 0..500 {
            w.net.send(a, b, b"junk".to_vec());
        }
        w.settle();
        assert_eq!(w.obs.events().len(), 64, "ring never exceeds its capacity");
        assert_eq!(w.obs.evicted(), 500 - 64);
        assert_eq!(w.obs.metrics.garbled, 500, "counters stay exact under eviction");
    }

    /// Sends garbage and a decodable transfer from a node no actor sits at
    /// to the provider, and the same two payloads from client 0 to that
    /// node, next to client 0's honest upload of the same transfer.
    fn stray_traffic<S: Seats>(mut w: Runner<SimNet, S>) {
        let mallory = w.net.register("mallory");
        let (alice, bob) = (w.client_nodes[0], w.bob_node);
        let now = w.net.now();
        let (txn, out) = w.seats.clients_mut()[0]
            .begin_upload(b"k", b"data".to_vec(), now, TimeoutStrategy::AbortFirst)
            .unwrap();
        let transfer = out[0].msg.to_wire_bytes();
        w.dispatch(alice, out);
        for (src, dst) in [(mallory, bob), (alice, mallory)] {
            w.net.send(src, dst, b"junk".to_vec());
            w.net.send(src, dst, transfer.clone());
        }
        assert_eq!(w.settle().outcome, SettleOutcome::Quiescent);
        assert_eq!(w.seats.clients()[0].txn_state(txn), Some(TxnState::Completed));
        // Each stray arrival is recorded exactly once: a garbled payload as
        // garbled, the transfer from the unlisted sender refused by the
        // provider's identity binding, the transfer to the unlisted node
        // refused by the runner.
        let m = &w.obs.metrics;
        assert_eq!((m.delivered, m.rejected, m.garbled), (2, 2, 2));
        assert_eq!(m.delivered + m.rejected + m.garbled, w.net.stats().delivered);
        assert_eq!(m.rejected_by.get("identity-mismatch"), Some(&2));
        let at_mallory = w.obs.events().iter().filter(|e| e.actor == mallory).count();
        assert_eq!(at_mallory, 2, "both arrivals at the unlisted node are attributed to it");
    }

    #[test]
    fn arrivals_from_and_to_a_non_actor_node_are_recorded_once() {
        // Regression: `deliver` looked both endpoints up in its routing
        // tables and panicked when either was a node no actor sits at.
        stray_traffic(world());
        stray_traffic(crate::multi::MultiWorld::new(12, ProtocolConfig::full(), 2));
    }

    #[test]
    fn late_copies_of_an_evicted_txn_reopen_no_tallies() {
        // With 10-210 ms links that duplicate half of all copies, a 150 ms
        // timeout and Bob and the TTP crashing now and then, copies of
        // protocol, Abort and Resolve messages still arrive, or are dropped
        // at a down node, after their transaction was evicted. Each used to
        // reopen the transaction's net-ledger entry, its obs tallies or its
        // TTP mark, and nothing retired them again.
        use crate::fault::FaultPlan;
        for seed in 0..3 {
            let cfg = ProtocolConfig::builder()
                .response_timeout(SimDuration::from_millis(150))
                .fault_plan(FaultPlan::none().with_seed(seed).with_chaos(&["bob", "ttp"], 20, 20))
                .build();
            let mut w = crate::multi::MultiWorld::new(seed, cfg, 4);
            w.set_archive_capacity(1);
            w.set_all_links(LinkConfig {
                latency: SimDuration::from_millis(10),
                jitter: SimDuration::from_millis(200),
                dup_prob: 0.5,
                ..LinkConfig::default()
            });
            for round in 0..30u32 {
                for c in 0..4 {
                    let key = format!("c{c}/r{round}").into_bytes();
                    let strategy = if c % 2 == 0 {
                        TimeoutStrategy::AbortFirst
                    } else {
                        TimeoutStrategy::ResolveImmediately
                    };
                    w.start_upload(c, &key, vec![0; 32], strategy);
                }
                assert!(w.settle().outcome.is_quiescent());
            }
            assert!(w.archive_stats().evicted > 100);
            assert!(w.fault_counters().crashes > 0, "seed {seed}: chaos must crash someone");
            assert!(!w.ttp_touched.is_empty(), "seed {seed}: the TTP must be engaged");
            let archived = |t: &u64| w.archive.get(*t).is_some();
            let obs: Vec<u64> = w.obs.txns().into_iter().filter(archived).collect();
            let net: Vec<u64> = w.net().tagged_txns().into_iter().filter(archived).collect();
            let ttp: Vec<u64> = w.ttp_touched.iter().copied().filter(archived).collect();
            assert_eq!((obs, net, ttp), (vec![], vec![], vec![]), "seed {seed}");
        }
    }

    #[test]
    fn single_client_eviction_rehydrates_sound_bundles() {
        // Eviction used to be reachable only on the multi-client runner:
        // with the hot set lowered, a single client's settled transactions
        // are sealed into the archive and still answer for arbitration.
        let cfg = ProtocolConfig::full();
        let mut w = world();
        w.set_archive_capacity(1); // 16 shards × 1 = at most 16 resident settled
        let ups: Vec<u64> = (0..40u8)
            .map(|i| w.upload(&[b'k', i], vec![i; 32], TimeoutStrategy::AbortFirst).txn_id)
            .collect();
        let stats = w.archive_stats();
        assert!(stats.evicted > 0, "eviction must have engaged: {stats:?}");
        assert_eq!(w.resident_txns() as u64 + stats.evicted, 40);
        let alice_pk = w.dir.lookup(&w.client.id()).unwrap().clone();
        let bob_pk = w.dir.lookup(&w.provider.id()).unwrap().clone();
        let mut rehydrated = 0;
        for &txn in &ups {
            let r = w.result(txn, SimTime::ZERO);
            assert_eq!(r.outcome, TxnState::Completed);
            assert!(r.nro.is_some() && r.nrr.is_some(), "the evidence pair survives eviction");
            if w.client.txn(txn).is_some() {
                continue;
            }
            let bundle = w.rehydrate_evidence(txn).expect("archived bundle loads");
            assert!(bundle.structurally_sound());
            bundle.get("client-nro").unwrap().reverify(&cfg, &alice_pk).unwrap();
            bundle.get("client-nrr").unwrap().reverify(&cfg, &bob_pk).unwrap();
            assert!(bundle.get("provider-nro").is_some() && bundle.get("provider-nrr").is_some());
            rehydrated += 1;
        }
        assert_eq!(rehydrated, stats.evicted);
    }

    #[test]
    fn a_restore_that_reopens_a_settled_upload_is_recorded_when_it_lands() {
        // With syncs deferred, Alice's snapshot still holds the upload as
        // Pending when the receipt completes it. The receipt's duplicate
        // crashes her; the restore in the timer round two seconds later
        // reopens the upload, and that round records the move back.
        use crate::fault::FaultPlan;
        let plan = FaultPlan::none()
            .with_crash_at_delivery("alice", 2)
            .with_sync_interval(SimDuration::from_secs(600));
        let mut w = World::new(6, ProtocolConfig::builder().fault_plan(plan).build());
        let (a, b) = (w.alice_node, w.bob_node);
        w.net.set_link(b, a, LinkConfig { dup_prob: 1.0, ..LinkConfig::default() });
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        assert!(r.outcome.is_terminal());
        let events = w.obs.events();
        let restarted = events
            .iter()
            .find(|e| e.actor == a && matches!(e.kind, EventKind::Restarted { .. }))
            .expect("alice restarts")
            .at;
        let reopened =
            EventKind::StateTransition { from: Some(TxnState::Completed), to: TxnState::Pending };
        assert!(
            events
                .iter()
                .any(|e| e.at == restarted && e.txn == Some(r.txn_id) && e.kind == reopened),
            "the restore's round records Completed -> Pending"
        );
    }

    #[test]
    fn a_restore_that_reopens_and_fails_an_upload_in_one_round_is_recorded() {
        // Alice may send once on timeout. The receipt is slow: her Abort
        // leaves at 200 ms (her last allowed send; the write-ahead sync
        // takes her snapshot there), the receipt completes the upload at
        // 310 ms, and with syncs deferred her snapshot keeps it open. She
        // crashes on Bob's Reject at 510 ms. The restore two seconds later
        // reopens the upload past its 400 ms deadline, so the same round's
        // tick finds the budget spent and fails it: that round must record
        // Completed -> Failed.
        use crate::fault::{FaultPlan, RetryPolicy};
        let plan = FaultPlan::none()
            .with_crash_at_delivery("alice", 2)
            .with_sync_interval(SimDuration::from_secs(600));
        let policy = RetryPolicy { max_attempts: Some(1), ..RetryPolicy::legacy() };
        let cfg = ProtocolConfig::builder()
            .response_timeout(SimDuration::from_millis(200))
            .retry_policy(policy)
            .fault_plan(plan)
            .build();
        let mut w = World::new(5, cfg);
        let (a, b) = (w.alice_node, w.bob_node);
        w.net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        w.net.set_link(b, a, LinkConfig::ideal(SimDuration::from_millis(300)));
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        assert_eq!(w.client.txn_state(r.txn_id), Some(TxnState::Failed));
        let events = w.obs.events();
        let restarted = events
            .iter()
            .find(|e| e.actor == a && matches!(e.kind, EventKind::Restarted { .. }))
            .expect("alice restarts")
            .at;
        assert_eq!(restarted.micros(), 2_510_000);
        let moves: Vec<_> = events
            .iter()
            .filter(|e| e.txn == Some(r.txn_id))
            .filter_map(|e| match e.kind {
                EventKind::StateTransition { from, to } => Some((e.at.micros(), from, to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            moves.last(),
            Some(&(2_510_000, Some(TxnState::Completed), TxnState::Failed)),
            "the restore's round records the move to Failed: {moves:?}"
        );
    }

    #[test]
    fn a_timer_round_records_the_failure_its_tick_declares() {
        // With no retry budget, Alice's first timeout fails the upload at
        // 200 ms, before Bob's receipt lands at 310 ms: the tick, not a
        // delivery, moves the upload, so that round must record it.
        let policy = crate::fault::RetryPolicy { max_attempts: Some(0), ..Default::default() };
        let cfg = ProtocolConfig::builder()
            .response_timeout(SimDuration::from_millis(200))
            .retry_policy(policy)
            .build();
        let mut w = World::new(5, cfg);
        let (a, b) = (w.alice_node, w.bob_node);
        w.net.set_link(a, b, LinkConfig::ideal(SimDuration::from_millis(10)));
        w.net.set_link(b, a, LinkConfig::ideal(SimDuration::from_millis(300)));
        let r = w.upload(b"k", b"data".to_vec(), TimeoutStrategy::AbortFirst);
        let failed =
            EventKind::StateTransition { from: Some(TxnState::Pending), to: TxnState::Failed };
        assert!(
            w.obs
                .events()
                .iter()
                .any(|e| e.txn == Some(r.txn_id) && e.at.micros() == 200_000 && e.kind == failed),
            "the timeout's round records Pending -> Failed"
        );
    }

    #[test]
    fn default_world_keeps_every_settled_transaction() {
        // A World evicts nothing unless asked: past the multi-client
        // default hot set (64 per shard × 16 shards), a download still
        // checks against the very first upload's receipt.
        let mut w = world();
        let first = w.upload(b"obj/0", b"first object".to_vec(), TimeoutStrategy::AbortFirst);
        for i in 1..1100 {
            let r =
                w.upload(format!("obj/{i}").as_bytes(), vec![1; 16], TimeoutStrategy::AbortFirst);
            assert!(r.completed());
        }
        assert_eq!(w.archive_stats().evicted, 0);
        assert_eq!(w.resident_txns(), 1100);
        let down = w.download(b"obj/0", TimeoutStrategy::AbortFirst);
        assert_eq!(w.client.verify_download_against_upload(first.txn_id, down.txn_id), Some(true));
    }
}
