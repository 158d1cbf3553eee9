//! Durable evidence bundles — what a party walks into arbitration with.
//!
//! Evidence is only worth anything if it survives until the dispute (which
//! may come long after the session — the paper's blackmail happens "later").
//! An [`EvidenceBundle`] serialises a party's archived evidence for one or
//! more transactions into a canonical, integrity-protected byte string:
//! a versioned header, the evidence records, and a SHA-256 digest over the
//! whole body so storage corruption of the *bundle itself* is detected on
//! load. Signatures inside stay verbatim, so the arbitrator can re-verify
//! them against the certified directory after any number of save/load
//! cycles. Evidence that two records share (the NRO Alice sent and the one
//! Bob received are one signed object) is stored once: the later record is
//! a back-reference to the earlier one.

use crate::evidence::VerifiedEvidence;
use crate::session::TxnState;
use std::collections::{BTreeMap, VecDeque};
use tpnr_crypto::hash::Digest as _;
use tpnr_crypto::sha2::Sha256;
use tpnr_net::codec::{Reader, Wire, Writer};
use tpnr_net::time::{SimDuration, SimTime};

/// Bundle format version. Version 2 added reference entries; nothing
/// persists a bundle across builds, so no older version is read.
pub const BUNDLE_VERSION: u16 = 2;
/// Magic prefix (`"TPNR"`).
pub const BUNDLE_MAGIC: [u8; 4] = *b"TPNR";

/// First byte of a reference entry's body. An inline entry's body starts
/// with its evidence plaintext's flag, and no flag encodes as 0.
const REFERENCE: u8 = 0;

/// One archived record: role label + the evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleEntry {
    /// Free-form label ("upload-nrr", "download-nro", …).
    pub label: String,
    /// The evidence item.
    pub evidence: VerifiedEvidence,
}

/// A saved collection of evidence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EvidenceBundle {
    /// The records, in insertion order.
    pub entries: Vec<BundleEntry>,
}

/// Bundle load failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BundleError {
    /// Wrong magic / not a bundle.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The integrity digest does not match (bundle corrupted at rest).
    Corrupted,
    /// Structural decode failure.
    Malformed,
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::BadMagic => write!(f, "not a TPNR evidence bundle"),
            BundleError::BadVersion(v) => write!(f, "unsupported bundle version {v}"),
            BundleError::Corrupted => write!(f, "bundle integrity digest mismatch"),
            BundleError::Malformed => write!(f, "malformed bundle"),
        }
    }
}

impl std::error::Error for BundleError {}

impl EvidenceBundle {
    /// Empty bundle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, label: &str, evidence: VerifiedEvidence) {
        self.entries.push(BundleEntry { label: label.to_string(), evidence });
    }

    /// Looks up the first record with a label.
    pub fn get(&self, label: &str) -> Option<&VerifiedEvidence> {
        self.entries.iter().find(|e| e.label == label).map(|e| &e.evidence)
    }

    /// Serialises: `magic ‖ version ‖ count ‖ entries… ‖ SHA-256(prefix)`.
    ///
    /// Each entry is its label and then either its evidence (inline) or
    /// `0 ‖ index` (a reference): the index of an earlier inline entry with
    /// equal evidence that no earlier reference names. So a bundle without
    /// repeated evidence is exactly as long as its entries written out, and
    /// a load decodes each evidence item once for at most two entries.
    pub fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.fixed(&BUNDLE_MAGIC);
        w.u16(BUNDLE_VERSION);
        w.u32(self.entries.len() as u32);
        // Per entry so far: whether a later entry may still reference it.
        let mut referable = Vec::with_capacity(self.entries.len());
        for (i, e) in self.entries.iter().enumerate() {
            w.str(&e.label);
            let earlier = (0..i).find(|&j| referable[j] && self.entries[j].evidence == e.evidence);
            if let Some(j) = earlier {
                referable[j] = false;
                w.u8(REFERENCE).u32(j as u32);
            } else {
                e.evidence.encode(&mut w);
            }
            referable.push(earlier.is_none());
        }
        let mut out = w.finish_vec();
        let digest = Sha256::digest(&out);
        out.extend_from_slice(&digest);
        out
    }

    /// Loads and integrity-checks a saved bundle.
    pub fn load(bytes: &[u8]) -> Result<Self, BundleError> {
        if bytes.len() < 4 + 2 + 4 + 32 {
            return Err(BundleError::Malformed);
        }
        let (body, digest) = bytes.split_at(bytes.len() - 32);
        if !tpnr_crypto::ct::eq(&Sha256::digest(body), digest) {
            return Err(BundleError::Corrupted);
        }
        let mut r = Reader::new(body);
        let magic = r.array::<4>().map_err(|_| BundleError::Malformed)?;
        if magic != BUNDLE_MAGIC {
            return Err(BundleError::BadMagic);
        }
        let version = r.u16().map_err(|_| BundleError::Malformed)?;
        if version != BUNDLE_VERSION {
            return Err(BundleError::BadVersion(version));
        }
        let count = r.u32().map_err(|_| BundleError::Malformed)? as usize;
        let mut entries: Vec<BundleEntry> = Vec::with_capacity(count.min(1024));
        let mut referable = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            let label = r.str().map_err(|_| BundleError::Malformed)?;
            // The next byte is a reference's marker or an inline entry's flag.
            let reference = body.get(body.len() - r.remaining()) == Some(&REFERENCE);
            let evidence = if reference {
                let j = r.u8().and_then(|_| r.u32()).map_err(|_| BundleError::Malformed)? as usize;
                // Only an earlier inline entry that no reference named yet.
                match referable.get_mut(j) {
                    Some(open) if *open => *open = false,
                    _ => return Err(BundleError::Malformed),
                }
                entries[j].evidence.clone()
            } else {
                VerifiedEvidence::decode(&mut r).map_err(|_| BundleError::Malformed)?
            };
            referable.push(!reference);
            entries.push(BundleEntry { label, evidence });
        }
        r.expect_end().map_err(|_| BundleError::Malformed)?;
        Ok(EvidenceBundle { entries })
    }

    /// Convenience: snapshots everything a client holds for a transaction
    /// (its own NRO plus the counterparty NRR if received).
    pub fn from_client_txn(client: &crate::client::Client, txn_id: u64) -> Option<Self> {
        let txn = client.txn(txn_id)?;
        let mut b = Self::new();
        b.push("own-nro", txn.nro.clone());
        if let Some(nrr) = &txn.nrr {
            b.push("peer-nrr", nrr.clone());
        }
        Some(b)
    }

    /// Hash sanity: true if every entry's digest length matches its declared
    /// algorithm (cheap structural audit before arbitration; Merkle roots
    /// share the underlying hash's output length so the same check covers
    /// both commitment modes).
    pub fn structurally_sound(&self) -> bool {
        self.entries.iter().all(|e| {
            e.evidence.plaintext.data_hash.len() == e.evidence.plaintext.hash_alg.output_len()
        })
    }
}

/// Shard count for the settled-transaction archive. Power of two so the
/// shard index is a mask of the mixed txn id.
pub const ARCHIVE_SHARDS: usize = 16;

/// Default number of settled transactions each shard keeps resident ("hot")
/// before the oldest is sealed into the append-only log. 16 shards × 64 =
/// 1024 hot settled txns by default, comfortably above every invariant
/// test's population so eviction only engages at experiment scale (or when
/// a test lowers the cap on purpose).
pub const DEFAULT_HOT_CAPACITY: usize = 64;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Compact accounting record kept per archived transaction — everything the
/// world still needs to answer `report()`/`state_of()` questions after the
/// live per-txn state has been dropped. The evidence itself lives in the
/// shard's sealed log; `offset`/`len` locate the bundle for re-hydration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchivedTxn {
    /// Index of the owning client in its world.
    pub client: usize,
    /// When the transaction was started.
    pub started: SimTime,
    /// Terminal state at eviction time.
    pub state: TxnState,
    /// Messages sent on the wire for this txn (from net accounting).
    pub messages: u64,
    /// Payload bytes sent for this txn.
    pub bytes: u64,
    /// Start → last delivery latency.
    pub latency: SimDuration,
    /// Whether the TTP was involved (Resolve path).
    pub ttp_used: bool,
    shard: usize,
    offset: usize,
    len: usize,
}

#[derive(Debug, Default)]
struct ArchiveShard {
    /// Settled-but-still-resident txns, oldest first.
    settled: VecDeque<u64>,
    /// Append-only sealed-bundle log ([`EvidenceBundle::save`] wire form,
    /// concatenated).
    log: Vec<u8>,
}

/// Counters for the archive's behaviour under load (E10 exhibits).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Settled txns evicted to a sealed log so far.
    pub evicted: u64,
    /// Archived txns re-hydrated for arbitration/reporting.
    pub rehydrated: u64,
    /// Settled txns still resident (not yet evicted).
    pub resident_settled: usize,
    /// Total bytes across all shard logs.
    pub log_bytes: u64,
}

/// Bounded-memory store for settled transactions, sharded by txn-id hash.
///
/// Live per-txn state (validator windows, client/provider/TTP records,
/// observability tallies) grows without bound in a long-running world unless
/// settled transactions are retired. The archive keeps each shard's most
/// recent `hot_capacity` settled txns resident; older ones are *evicted*:
/// their evidence is sealed into the shard's append-only log (reusing the
/// [`EvidenceBundle`] wire form, digest-protected) and only the compact
/// [`ArchivedTxn`] index record stays in memory. Arbitration and reporting
/// re-hydrate bundles from the log on demand — evidence is never lost, it
/// just stops costing live-map memory.
#[derive(Debug)]
pub struct TxnArchive {
    shards: Vec<ArchiveShard>,
    hot_capacity: usize,
    index: BTreeMap<u64, ArchivedTxn>,
    evicted: u64,
    rehydrated: std::cell::Cell<u64>,
}

impl Default for TxnArchive {
    fn default() -> Self {
        Self::with_hot_capacity(DEFAULT_HOT_CAPACITY)
    }
}

impl TxnArchive {
    /// Archive with the default per-shard hot capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Archive keeping `hot_capacity` settled txns resident per shard
    /// (minimum 1 — a settled txn is never evicted in the same step it
    /// settles, so in-flight duplicates still hit the live validator first).
    pub fn with_hot_capacity(hot_capacity: usize) -> Self {
        TxnArchive {
            shards: (0..ARCHIVE_SHARDS).map(|_| ArchiveShard::default()).collect(),
            hot_capacity: hot_capacity.max(1),
            index: BTreeMap::new(),
            evicted: 0,
            rehydrated: std::cell::Cell::new(0),
        }
    }

    /// Changes the per-shard hot capacity. Over-full shards drain one
    /// eviction per subsequent settle (one-in-one-out beyond the cap).
    pub fn set_hot_capacity(&mut self, hot_capacity: usize) {
        self.hot_capacity = hot_capacity.max(1);
    }

    /// Which shard a transaction belongs to.
    pub fn shard_of(txn_id: u64) -> usize {
        (splitmix64(txn_id) & (ARCHIVE_SHARDS as u64 - 1)) as usize
    }

    /// Records that `txn_id` reached a terminal state. If the shard is now
    /// over its hot capacity, returns the oldest settled txn in the shard —
    /// the caller must gather its evidence and [`archive`](Self::archive) it.
    pub fn note_settled(&mut self, txn_id: u64) -> Option<u64> {
        let shard = &mut self.shards[Self::shard_of(txn_id)];
        shard.settled.push_back(txn_id);
        (shard.settled.len() > self.hot_capacity).then(|| shard.settled.pop_front()).flatten()
    }

    /// Seals a transaction's evidence into its shard log and records the
    /// index entry. `record`'s shard/offset/len are filled in here.
    pub fn archive(&mut self, txn_id: u64, bundle: &EvidenceBundle, mut record: ArchivedTxn) {
        let shard_ix = Self::shard_of(txn_id);
        let bytes = bundle.save();
        let shard = &mut self.shards[shard_ix];
        record.shard = shard_ix;
        record.offset = shard.log.len();
        record.len = bytes.len();
        shard.log.extend_from_slice(&bytes);
        self.index.insert(txn_id, record);
        self.evicted += 1;
    }

    /// Index record for an archived txn, if it was evicted.
    pub fn get(&self, txn_id: u64) -> Option<&ArchivedTxn> {
        self.index.get(&txn_id)
    }

    /// Re-hydrates an archived txn's evidence bundle from the shard log.
    /// Returns `None` if the txn was never archived *or* the log bytes fail
    /// the bundle's integrity check (corruption ⇒ evidence loss, surfaced,
    /// never silently tolerated).
    pub fn load_bundle(&self, txn_id: u64) -> Option<EvidenceBundle> {
        let rec = self.index.get(&txn_id)?;
        let bytes = self.shards[rec.shard].log.get(rec.offset..rec.offset + rec.len)?;
        let bundle = EvidenceBundle::load(bytes).ok()?;
        self.rehydrated.set(self.rehydrated.get() + 1);
        Some(bundle)
    }

    /// Archive behaviour counters.
    pub fn stats(&self) -> ArchiveStats {
        ArchiveStats {
            evicted: self.evicted,
            rehydrated: self.rehydrated.get(),
            resident_settled: self.shards.iter().map(|s| s.settled.len()).sum(),
            log_bytes: self.shards.iter().map(|s| s.log.len() as u64).sum(),
        }
    }
}

/// Blank index record for [`TxnArchive::archive`]; location fields are
/// filled by the archive itself.
impl ArchivedTxn {
    /// Builds an index record from final accounting values.
    pub fn record(
        client: usize,
        started: SimTime,
        state: TxnState,
        messages: u64,
        bytes: u64,
        latency: SimDuration,
        ttp_used: bool,
    ) -> Self {
        ArchivedTxn {
            client,
            started,
            state,
            messages,
            bytes,
            latency,
            ttp_used,
            shard: 0,
            offset: 0,
            len: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TimeoutStrategy;
    use crate::config::ProtocolConfig;
    use crate::runner::World;

    fn settled_world() -> (World, u64, u64) {
        let mut w = World::new(30, ProtocolConfig::full());
        let up = w.upload(b"obj", b"payload".to_vec(), TimeoutStrategy::AbortFirst);
        let down = w.download(b"obj", TimeoutStrategy::AbortFirst);
        (w, up.txn_id, down.txn_id)
    }

    #[test]
    fn save_load_roundtrip() {
        let (w, up, down) = settled_world();
        let mut bundle = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        let down_bundle = EvidenceBundle::from_client_txn(&w.client, down).unwrap();
        for e in down_bundle.entries {
            bundle.entries.push(e);
        }
        assert_eq!(bundle.entries.len(), 4);
        let bytes = bundle.save();
        let loaded = EvidenceBundle::load(&bytes).unwrap();
        assert_eq!(loaded, bundle);
        assert!(loaded.structurally_sound());
    }

    #[test]
    fn loaded_evidence_still_verifies() {
        let (w, up, _) = settled_world();
        let bundle = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        let loaded = EvidenceBundle::load(&bundle.save()).unwrap();
        let nrr = loaded.get("peer-nrr").expect("receipt archived");
        let bob_pk = w.dir.lookup(&w.provider.id()).unwrap();
        nrr.reverify(&ProtocolConfig::full(), bob_pk).unwrap();
        let nro = loaded.get("own-nro").unwrap();
        let alice_pk = w.dir.lookup(&w.client.id()).unwrap();
        nro.reverify(&ProtocolConfig::full(), alice_pk).unwrap();
    }

    #[test]
    fn every_bit_flip_detected_on_load() {
        let (w, up, _) = settled_world();
        let bytes = EvidenceBundle::from_client_txn(&w.client, up).unwrap().save();
        // Sample positions across the whole bundle (testing all ~2k bytes
        // would be slow for no extra coverage).
        for i in (0..bytes.len()).step_by(97) {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(
                matches!(
                    EvidenceBundle::load(&bad),
                    Err(BundleError::Corrupted)
                        | Err(BundleError::BadMagic)
                        | Err(BundleError::Malformed)
                ),
                "flip at {i} loaded successfully"
            );
        }
    }

    #[test]
    fn truncation_and_garbage_rejected() {
        let (w, up, _) = settled_world();
        let bytes = EvidenceBundle::from_client_txn(&w.client, up).unwrap().save();
        assert_eq!(EvidenceBundle::load(&bytes[..10]), Err(BundleError::Malformed));
        assert_eq!(EvidenceBundle::load(&[]), Err(BundleError::Malformed));
        let garbage = vec![0xAA; 200];
        assert!(EvidenceBundle::load(&garbage).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let (w, up, _) = settled_world();
        let bundle = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        // Re-serialize with a bumped version and a fixed-up digest.
        let mut bytes = bundle.save();
        let body_len = bytes.len() - 32;
        bytes[5] = 99; // version low byte
        let digest = Sha256::digest(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&digest);
        assert_eq!(
            EvidenceBundle::load(&bytes),
            Err(BundleError::BadVersion(99 | ((bytes[4] as u16) << 8)))
        );
    }

    #[test]
    fn archive_evicts_oldest_per_shard_and_rehydrates_exactly() {
        let (w, up, _) = settled_world();
        let bundle = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        let mut arch = TxnArchive::with_hot_capacity(2);
        let mut evicted = Vec::new();
        // Drive enough settles through one shard to overflow its capacity.
        let mut in_shard = Vec::new();
        let mut txn = 1u64;
        while in_shard.len() < 4 {
            if TxnArchive::shard_of(txn) == TxnArchive::shard_of(1) {
                in_shard.push(txn);
            }
            txn += 1;
        }
        for &t in &in_shard {
            if let Some(victim) = arch.note_settled(t) {
                let rec = ArchivedTxn::record(
                    0,
                    SimTime::ZERO,
                    TxnState::Completed,
                    7,
                    128,
                    SimDuration::from_micros(42),
                    false,
                );
                arch.archive(victim, &bundle, rec);
                evicted.push(victim);
            }
        }
        // FIFO: the two oldest in the shard were evicted, in order.
        assert_eq!(evicted, in_shard[..2].to_vec());
        let stats = arch.stats();
        assert_eq!(stats.evicted, 2);
        assert_eq!(stats.resident_settled, 2);
        assert!(stats.log_bytes > 0);
        // Re-hydration returns the sealed bundle bit-for-bit.
        let loaded = arch.load_bundle(evicted[0]).expect("archived bundle loads");
        assert_eq!(loaded, bundle);
        assert_eq!(arch.stats().rehydrated, 1);
        let rec = arch.get(evicted[0]).unwrap();
        assert_eq!(rec.state, TxnState::Completed);
        assert_eq!(rec.messages, 7);
        // Never-archived txns stay invisible.
        assert!(arch.get(999_999).is_none());
        assert!(arch.load_bundle(999_999).is_none());
    }

    #[test]
    fn label_lookup() {
        let (w, up, _) = settled_world();
        let bundle = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        assert!(bundle.get("own-nro").is_some());
        assert!(bundle.get("no-such-label").is_none());
    }

    /// The bytes [`EvidenceBundle::save`] writes when every entry is
    /// inline: the header, each label and evidence, and the digest.
    fn inline_len(b: &EvidenceBundle) -> usize {
        let entries: usize =
            b.entries.iter().map(|e| 4 + e.label.len() + e.evidence.to_wire().len()).sum();
        4 + 2 + 4 + entries + 32
    }

    /// One entry of a hand-built bundle, after its label.
    enum Raw<'a> {
        Inline(&'a VerifiedEvidence),
        Ref(u32),
    }

    /// A bundle written entry by entry and sealed with a valid digest:
    /// bytes that pass the integrity check, whatever their references say.
    fn raw_bundle(entries: &[(&str, Raw<'_>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.fixed(&BUNDLE_MAGIC).u16(BUNDLE_VERSION).u32(entries.len() as u32);
        for (label, body) in entries {
            w.str(label);
            match body {
                Raw::Inline(ev) => ev.encode(&mut w),
                Raw::Ref(j) => {
                    w.u8(REFERENCE).u32(*j);
                }
            }
        }
        sealed(w.finish_vec())
    }

    /// `body` with its digest appended.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let digest = Sha256::digest(&body);
        body.extend_from_slice(&digest);
        body
    }

    /// Alice's NRO and Bob's NRR for a settled upload.
    fn evidence_pair(w: &World, txn: u64) -> (VerifiedEvidence, VerifiedEvidence) {
        let t = w.client.txn(txn).unwrap();
        (t.nro.clone(), t.nrr.clone().unwrap())
    }

    #[test]
    fn a_bundle_without_repeated_evidence_is_saved_inline() {
        let (w, up, down) = settled_world();
        let mut b = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        b.entries.extend(EvidenceBundle::from_client_txn(&w.client, down).unwrap().entries);
        let x = b.save();
        assert_eq!(x.len(), inline_len(&b));
        let loaded = EvidenceBundle::load(&x).unwrap();
        assert_eq!(loaded, b);
        assert_eq!(loaded.save(), x);
    }

    #[test]
    fn repeated_evidence_is_saved_once_and_loads_back_in_order() {
        let (w, up, _) = settled_world();
        let (nro, nrr) = evidence_pair(&w, up);
        // The bundle the runner archives for an evicted upload.
        let mut b = EvidenceBundle::new();
        b.push("client-nro", nro.clone());
        b.push("client-nrr", nrr.clone());
        b.push("provider-nro", nro.clone());
        b.push("provider-nrr", nrr.clone());
        let x = b.save();
        let expected = raw_bundle(&[
            ("client-nro", Raw::Inline(&nro)),
            ("client-nrr", Raw::Inline(&nrr)),
            ("provider-nro", Raw::Ref(0)),
            ("provider-nrr", Raw::Ref(1)),
        ]);
        assert_eq!(x, expected);
        let loaded = EvidenceBundle::load(&x).unwrap();
        assert_eq!(loaded, b);
        assert_eq!(loaded.save(), x);

        // A third copy is inline again: each inline entry is named by at
        // most one reference.
        let mut three = EvidenceBundle::new();
        for label in ["a", "b", "c"] {
            three.push(label, nro.clone());
        }
        let x = three.save();
        let expected =
            raw_bundle(&[("a", Raw::Inline(&nro)), ("b", Raw::Ref(0)), ("c", Raw::Inline(&nro))]);
        assert_eq!(x, expected);
        let loaded = EvidenceBundle::load(&x).unwrap();
        assert_eq!(loaded, three);
        assert_eq!(loaded.save(), x);
    }

    #[test]
    fn every_hostile_reference_is_malformed() {
        let (w, up, _) = settled_world();
        let (nro, _) = evidence_pair(&w, up);
        let a = || Raw::Inline(&nro);
        let hostile: [(&str, Vec<(&str, Raw<'_>)>); 5] = [
            ("to itself", vec![("a", a()), ("r", Raw::Ref(1))]),
            ("to a later entry", vec![("r", Raw::Ref(1)), ("a", a())]),
            ("out of range", vec![("a", a()), ("r", Raw::Ref(u32::MAX))]),
            ("to another reference", vec![("a", a()), ("r", Raw::Ref(0)), ("s", Raw::Ref(1))]),
            ("to an entry already named", vec![("a", a()), ("r", Raw::Ref(0)), ("s", Raw::Ref(0))]),
        ];
        for (case, entries) in &hostile {
            assert_eq!(
                EvidenceBundle::load(&raw_bundle(entries)),
                Err(BundleError::Malformed),
                "{case}"
            );
        }
        // Truncated after the marker, or inside the index.
        let whole = raw_bundle(&[("a", a()), ("r", Raw::Ref(0))]);
        let body = &whole[..whole.len() - 32];
        for cut in 1..=4 {
            let short = sealed(body[..body.len() - cut].to_vec());
            assert_eq!(EvidenceBundle::load(&short), Err(BundleError::Malformed), "cut {cut}");
        }
        assert_eq!(EvidenceBundle::load(&whole).unwrap().entries.len(), 2);
    }

    #[test]
    fn an_evicted_aborted_upload_keeps_both_nros_inline() {
        // Bob ignores the transfer and accepts the abort: his NRO is
        // Alice's abort request, not her upload NRO, and he signed no NRR.
        let mut w = World::new(5, ProtocolConfig::full());
        w.set_archive_capacity(1);
        w.provider.behavior.respond_transfers = false;
        let aborted = w.upload(b"k-aborted", vec![0; 32], TimeoutStrategy::AbortFirst);
        assert_eq!(aborted.outcome, TxnState::Aborted);
        w.provider.behavior.respond_transfers = true;
        for i in 1..40u8 {
            assert!(w.upload(&[b'k', i], vec![i; 32], TimeoutStrategy::AbortFirst).completed());
        }
        let b = w.rehydrate_evidence(aborted.txn_id).expect("the aborted upload was evicted");
        let client_nro = b.get("client-nro").unwrap();
        let provider_nro = b.get("provider-nro").unwrap();
        assert_eq!(provider_nro.plaintext.flag, crate::evidence::Flag::AbortRequest);
        assert_ne!(client_nro, provider_nro);
        assert_eq!(w.archive.get(aborted.txn_id).unwrap().len, inline_len(&b));
    }

    #[test]
    fn an_evicted_upload_archives_under_760_bytes() {
        // The client's and the provider's copies of the NRO and the NRR
        // are one item each: stored twice, an evicted 256 B upload's
        // bundle takes over 1.3 KB.
        let mut w = World::new(7, ProtocolConfig::full());
        w.set_archive_capacity(1);
        for i in 0..48u8 {
            assert!(w.upload(&[b'k', i], vec![i; 256], TimeoutStrategy::AbortFirst).completed());
        }
        let stats = w.archive_stats();
        assert!(stats.evicted >= 16, "eviction engaged: {stats:?}");
        let per_txn = stats.log_bytes / stats.evicted;
        assert!(per_txn <= 760, "{per_txn} B archived per evicted upload");
    }
}
