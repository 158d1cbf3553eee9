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
//! cycles. What records share is stored once: a record whose evidence
//! repeats an earlier one (the NRO Alice sent and the one Bob received are
//! one signed object) is a back-reference to it, and one record whose
//! plaintext shares fields with the first record's (an upload's NRR names
//! the same parties, transaction, object and hash as its NRO) keeps only
//! the fields that differ.
//!
//! A provider's [`TxnArchive`] seals each evicted transaction's bundle
//! into a shard log as one record of the same entries, in a denser form:
//! each principal is an index into the shard's table of principals, which
//! the first record to name one defines, and every number is LEB128. A
//! standalone bundle keeps the wire form (version 3).

use crate::evidence::{
    field_mask, read_derived, read_evidence, write_derived, write_evidence, Form, Principals,
    RecordTable, VerifiedEvidence, WireForm, NOTHING_SHARED,
};
use crate::principal::PrincipalId;
use crate::runner::TxnReport;
use std::collections::{BTreeMap, VecDeque};
use tpnr_crypto::hash::Digest as _;
use tpnr_crypto::sha2::Sha256;
use tpnr_net::codec::{CodecError, Reader, Writer};

/// Bundle format version. Version 2 added reference entries and version 3
/// derived entries; nothing persists a bundle across builds, so no older
/// version is read.
pub const BUNDLE_VERSION: u16 = 3;
/// Magic prefix (`"TPNR"`).
pub const BUNDLE_MAGIC: [u8; 4] = *b"TPNR";

/// First byte of a reference entry's body. An inline entry's body starts
/// with its evidence plaintext's flag, and no flag encodes as 0.
const REFERENCE: u8 = 0;
/// First byte of a derived entry's body, before the entry
/// (`evidence::write_derived`) itself; no flag encodes as it either.
const DERIVED: u8 = 0xFF;

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

impl From<CodecError> for BundleError {
    fn from(_: CodecError) -> Self {
        BundleError::Malformed
    }
}

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

    /// Serialises a standalone bundle, in the wire form:
    /// `magic ‖ version ‖ count ‖ entries… ‖ SHA-256(prefix)`, with `u32`
    /// counts, lengths and indices and each principal's 32-byte id.
    ///
    /// Each entry is its label and then one of three bodies, tried in order:
    /// - a reference `0 ‖ index`, when its evidence equals that of an
    ///   earlier entry that no earlier reference names;
    /// - a derived entry `0xFF ‖ u16 mask ‖ fields… ‖ both signatures`,
    ///   for the first entry after the first whose plaintext shares a field
    ///   with the first entry's: the mask names the fields written out, and
    ///   the rest are the first entry's, with sender and recipient swapped
    ///   if its swap bit is set;
    /// - its evidence in full (inline).
    ///
    /// Each evidence item is thus decoded once for at most two entries, and
    /// one entry copies fields of one other, so a load's output stays within
    /// a small multiple of its input. An archive record holds its entries
    /// the same way, in its shard's table's form.
    pub fn save(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.fixed(&BUNDLE_MAGIC);
        w.u16(BUNDLE_VERSION);
        self.write_entries(&mut w, &WireForm);
        with_digest(w)
    }

    /// Loads and integrity-checks a saved bundle. Only the bytes
    /// [`save`](Self::save) writes load: an entry written in a form `save`
    /// would not choose for it is [`BundleError::Malformed`], so
    /// `save(load(x)) == x` for every `x` that loads.
    pub fn load(bytes: &[u8]) -> Result<Self, BundleError> {
        if bytes.len() < 4 + 2 + 4 + 32 {
            return Err(BundleError::Malformed);
        }
        let body = checked_body(bytes)?;
        let mut r = Reader::new(body);
        if r.array::<4>()? != BUNDLE_MAGIC {
            return Err(BundleError::BadMagic);
        }
        let version = r.u16()?;
        if version != BUNDLE_VERSION {
            return Err(BundleError::BadVersion(version));
        }
        let bundle = Self::read_entries(&mut r, body, &WireForm)?;
        r.expect_end()?;
        Ok(bundle)
    }

    /// Writes the entry count and the entries, as [`save`](Self::save)
    /// describes them, in `form`.
    fn write_entries(&self, w: &mut Writer, form: &impl Form) {
        form.write_len(w, self.entries.len());
        // Per entry so far: whether a later entry may still reference it.
        let mut referable = Vec::with_capacity(self.entries.len());
        let mut derived = false;
        for (i, e) in self.entries.iter().enumerate() {
            form.write_field(w, e.label.as_bytes());
            let earlier = (0..i).find(|&j| referable[j] && self.entries[j].evidence == e.evidence);
            if let Some(j) = earlier {
                referable[j] = false;
                w.u8(REFERENCE);
                form.write_len(w, j);
            } else if let Some(mask) = derivation(&self.entries[..i], derived, &e.evidence) {
                derived = true;
                w.u8(DERIVED);
                write_derived(w, form, mask, &e.evidence);
            } else {
                write_evidence(w, form, &e.evidence);
            }
            referable.push(earlier.is_none());
        }
    }

    /// Reads what [`write_entries`](Self::write_entries) writes in `form`,
    /// from `r` over `body`, and nothing it would not write.
    fn read_entries(
        r: &mut Reader<'_>,
        body: &[u8],
        form: &impl Form,
    ) -> Result<Self, BundleError> {
        let count = form.read_len(r)?;
        let mut entries: Vec<BundleEntry> = Vec::with_capacity(count.min(1024));
        let mut referable: Vec<bool> = Vec::with_capacity(count.min(1024));
        let mut derived = false;
        for _ in 0..count {
            let label =
                String::from_utf8(form.read_field(r)?).map_err(|_| BundleError::Malformed)?;
            // The next byte is a marker or an inline entry's flag.
            let marker = body.get(body.len() - r.remaining()).copied();
            let evidence = match marker {
                Some(REFERENCE) => {
                    r.u8()?;
                    let j = form.read_len(r)?;
                    // Only an earlier entry that no reference named yet.
                    match referable.get_mut(j) {
                        Some(open) if *open => *open = false,
                        _ => return Err(BundleError::Malformed),
                    }
                    entries[j].evidence.clone()
                }
                Some(DERIVED) => {
                    r.u8()?;
                    let base = &entries.first().ok_or(BundleError::Malformed)?.evidence;
                    let (mask, evidence) = read_derived(r, form, &base.plaintext)?;
                    canonical(derivation(&entries, derived, &evidence) == Some(mask))?;
                    derived = true;
                    evidence
                }
                _ => {
                    let evidence = read_evidence(r, form)?;
                    canonical(derivation(&entries, derived, &evidence).is_none())?;
                    evidence
                }
            };
            let reference = marker == Some(REFERENCE);
            if !reference {
                // Evidence that repeats an open entry is saved as a reference.
                let mut earlier = entries.iter().zip(&referable);
                canonical(!earlier.any(|(e, &open)| open && e.evidence == evidence))?;
            }
            referable.push(!reference);
            entries.push(BundleEntry { label, evidence });
        }
        Ok(EvidenceBundle { entries })
    }

    /// Convenience: snapshots everything a client holds for a transaction
    /// (its own NRO plus the counterparty NRR if received); `None` if the
    /// client holds no record of it, or one that does not decode.
    pub fn from_client_txn(client: &crate::client::Client, txn_id: u64) -> Option<Self> {
        let (nro, nrr) = client.txn(txn_id)?.evidence().ok()?;
        let mut b = Self::new();
        b.push("own-nro", nro);
        if let Some(nrr) = nrr {
            b.push("peer-nrr", nrr);
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

/// `w`'s bytes with their SHA-256 digest appended.
fn with_digest(w: Writer) -> Vec<u8> {
    let mut out = w.finish_vec();
    let digest = Sha256::digest(&out);
    out.extend_from_slice(&digest);
    out
}

/// The body of `bytes`, sealed by [`with_digest`], once its digest checks.
fn checked_body(bytes: &[u8]) -> Result<&[u8], BundleError> {
    if bytes.len() < 32 {
        return Err(BundleError::Malformed);
    }
    let (body, digest) = bytes.split_at(bytes.len() - 32);
    if !tpnr_crypto::ct::eq(&Sha256::digest(body), digest) {
        return Err(BundleError::Corrupted);
    }
    Ok(body)
}

/// Seals `bundle` as the next record of a shard log whose table is
/// `table`: `table length ‖ defined count ‖ defined ids ‖ entries ‖
/// SHA-256(prefix)`. The table length is where the record starts in
/// `table`; the defined ids are those of `bundle`'s principals `table`
/// lacks, 32 bytes each, in the order the entries first name them, and are
/// appended to `table`. The entries are those of a standalone bundle
/// ([`EvidenceBundle::write_entries`]), each principal an index into the
/// table and every number LEB128. Nothing else in the log is needed to
/// read a record but the records before it.
fn write_record(bundle: &EvidenceBundle, table: &mut Principals) -> Vec<u8> {
    // A principal an entry does not write out (a reference's, or one a
    // derived entry copies from the first entry) an earlier entry wrote,
    // so every entry's three, in entry order, first name each as written.
    let named = bundle.entries.iter().flat_map(|e| {
        let pt = &e.evidence.plaintext;
        [pt.sender, pt.recipient, pt.ttp]
    });
    let form = RecordTable::writing(table, named);
    let mut w = Writer::new();
    form.write_len(&mut w, form.start());
    form.write_len(&mut w, form.defined().len());
    for id in form.defined() {
        w.fixed(&id.0);
    }
    bundle.write_entries(&mut w, &form);
    for id in form.into_defined() {
        table.intern(id);
    }
    with_digest(w)
}

/// Reads the record `bytes` hold, written by [`write_record`] when its
/// shard's table held `start` entries, through `table`, which holds at
/// least those: the bundle, and the ids the record defined. Only bytes
/// `write_record` would write for that bundle read: a record that starts
/// elsewhere, names an index at or past its table's end, or defines an id
/// its table already holds, out of order or unnamed is `Malformed`.
fn read_record(
    bytes: &[u8],
    table: &Principals,
    start: usize,
) -> Result<(EvidenceBundle, Vec<PrincipalId>), BundleError> {
    let body = checked_body(bytes)?;
    let mut r = Reader::new(body);
    let record = read_record_body(&mut r, body, table, start)?;
    r.expect_end()?;
    Ok(record)
}

/// Reads a record's body, up to its digest, from `r` over `body`.
fn read_record_body(
    r: &mut Reader<'_>,
    body: &[u8],
    table: &Principals,
    start: usize,
) -> Result<(EvidenceBundle, Vec<PrincipalId>), BundleError> {
    canonical(table.read_len(r)? == start)?;
    let count = table.read_len(r)?;
    canonical(count <= r.remaining() / 32)?;
    let defined = (0..count).map(|_| r.array::<32>().map(PrincipalId)).collect::<Result<_, _>>()?;
    let form = RecordTable::reading(table, start, defined)?;
    let bundle = EvidenceBundle::read_entries(r, body, &form)?;
    form.all_named()?;
    Ok((bundle, form.into_defined()))
}

/// `Ok` if an entry is in the form [`EvidenceBundle::save`] chooses for it.
fn canonical(chosen: bool) -> Result<(), BundleError> {
    if chosen {
        Ok(())
    } else {
        Err(BundleError::Malformed)
    }
}

/// The mask [`EvidenceBundle::save`] writes `ev` with as a derived entry,
/// given the entries before it, or `None` if `ev` is not derived: the
/// base is the bundle's first entry, one entry at most derives from it,
/// and only one that shares a field with it.
fn derivation(earlier: &[BundleEntry], derived: bool, ev: &VerifiedEvidence) -> Option<u16> {
    let base = &earlier.first()?.evidence.plaintext;
    let mask = field_mask(base, &ev.plaintext);
    (!derived && mask != NOTHING_SHARED).then_some(mask)
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

/// Index record kept per archived transaction: its owner and the
/// [`TxnReport`] it reported while live, everything the world still needs
/// to answer `report()`/`state_of()` questions after the live per-txn
/// state has been dropped. The evidence itself lives in the sealed log of
/// the transaction's shard ([`TxnArchive::shard_of`]), where `location`
/// finds its record.
#[derive(Debug, Clone)]
pub struct ArchivedTxn {
    /// Index of the owning client in its world.
    pub client: usize,
    /// The transaction's report as it stood at eviction.
    pub report: TxnReport,
    location: Location,
}

/// Where an archived transaction's record sits in its shard: `offset` and
/// `len` in the log, and `table_len`, the length of the shard's table of
/// principals when the record was written (where its definitions start).
#[derive(Debug, Clone, Copy)]
struct Location {
    table_len: u32,
    offset: usize,
    len: usize,
}

#[derive(Debug, Default)]
struct ArchiveShard {
    /// Settled-but-still-resident txns, oldest first.
    settled: VecDeque<u64>,
    /// Append-only log of sealed records ([`write_record`]), concatenated.
    log: Vec<u8>,
    /// Every principal the log's records name, in the order they first
    /// named them: what the records' indices index.
    principals: Principals,
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
/// their evidence bundle is sealed into the shard's append-only log as one
/// digest-protected record that names each principal by its index in the
/// shard's table of principals, and only the compact [`ArchivedTxn`]
/// index record stays in memory. Arbitration and reporting
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
    /// index entry: client `client`'s transaction, with its final `report`.
    pub fn archive(
        &mut self,
        txn_id: u64,
        bundle: &EvidenceBundle,
        client: usize,
        report: TxnReport,
    ) {
        let shard = &mut self.shards[Self::shard_of(txn_id)];
        // Four billion principals would not fit in memory first.
        let table_len = u32::try_from(shard.principals.len()).unwrap_or(u32::MAX);
        let bytes = write_record(bundle, &mut shard.principals);
        let location = Location { table_len, offset: shard.log.len(), len: bytes.len() };
        shard.log.extend_from_slice(&bytes);
        self.index.insert(txn_id, ArchivedTxn { client, report, location });
        self.evicted += 1;
    }

    /// Index record for an archived txn, if it was evicted.
    pub fn get(&self, txn_id: u64) -> Option<&ArchivedTxn> {
        self.index.get(&txn_id)
    }

    /// Re-hydrates an archived txn's evidence bundle from its record in
    /// the shard log, read through the shard's table. Returns `None` if the
    /// txn was never archived *or* the record fails its integrity check
    /// (corruption ⇒ evidence loss, surfaced, never silently tolerated).
    pub fn load_bundle(&self, txn_id: u64) -> Option<EvidenceBundle> {
        let at = self.index.get(&txn_id)?.location;
        let shard = &self.shards[Self::shard_of(txn_id)];
        let bytes = shard.log.get(at.offset..at.offset + at.len)?;
        let (bundle, _) = read_record(bytes, &shard.principals, at.table_len as usize).ok()?;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::TimeoutStrategy;
    use crate::config::ProtocolConfig;
    use crate::evidence::{EvidencePlaintext, Flag, HASH_ALG, RECIPIENT, SENDER, SWAPPED, TTP};
    use crate::principal::PrincipalId;
    use crate::runner::World;
    use crate::session::TxnState;
    use tpnr_crypto::hash::HashAlg;
    use tpnr_net::codec::Wire;
    use tpnr_net::sim::LinkConfig;
    use tpnr_net::time::{SimDuration, SimTime};

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
                let report = TxnReport {
                    txn_id: victim,
                    state: TxnState::Completed,
                    messages: 7,
                    bytes: 128,
                    latency: SimDuration::from_micros(42),
                    ttp_used: false,
                };
                arch.archive(victim, &bundle, 0, report);
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
        assert_eq!(rec.report.state, TxnState::Completed);
        assert_eq!(rec.report.messages, 7);
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

    /// One entry of a hand-built bundle, after its label.
    enum Raw<'a> {
        Inline(&'a VerifiedEvidence),
        Ref(u32),
        /// A derived entry: its mask, the fields it writes out (encoded by
        /// the caller), and the evidence whose signatures close it.
        Derived(u16, Vec<u8>, &'a VerifiedEvidence),
    }

    /// Entries written one by one in `form`, whatever they say.
    fn raw_entries(w: &mut Writer, form: &impl Form, entries: &[(&str, Raw<'_>)]) {
        form.write_len(w, entries.len());
        for (label, body) in entries {
            form.write_field(w, label.as_bytes());
            match body {
                Raw::Inline(ev) => write_evidence(w, form, ev),
                Raw::Ref(j) => {
                    w.u8(REFERENCE);
                    form.write_len(w, *j as usize);
                }
                Raw::Derived(mask, fields, ev) => {
                    w.u8(DERIVED).u16(*mask).fixed(fields);
                    form.write_field(w, &ev.sig_data_hash);
                    form.write_field(w, &ev.sig_plaintext);
                }
            }
        }
    }

    /// A bundle written entry by entry and sealed with a valid digest:
    /// bytes that pass the integrity check, whatever their entries say.
    fn raw_bundle(entries: &[(&str, Raw<'_>)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.fixed(&BUNDLE_MAGIC).u16(BUNDLE_VERSION);
        raw_entries(&mut w, &WireForm, entries);
        sealed(w.finish_vec())
    }

    /// A shard's first record, written entry by entry: it defines
    /// `defined` and names each principal by its index among them.
    fn raw_first_record(defined: &[PrincipalId], entries: &[(&str, Raw<'_>)]) -> Vec<u8> {
        let empty = Principals::default();
        let form = RecordTable::writing(&empty, defined.iter().copied());
        let mut w = Writer::new();
        form.write_len(&mut w, 0);
        form.write_len(&mut w, defined.len());
        for id in defined {
            w.fixed(&id.0);
        }
        raw_entries(&mut w, &form, entries);
        sealed(w.finish_vec())
    }

    /// `body` with its digest appended.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let digest = Sha256::digest(&body);
        body.extend_from_slice(&digest);
        body
    }

    /// The mask of a reply derived from its request: the flag, nonce and
    /// time limit are written out (bits 0, 6 and 7), and the parties swap
    /// (bit 11).
    const REPLY_MASK: u16 = 0b1000_1100_0001;

    /// A reply derived from the request it answers, its fields written out
    /// by hand in wire order.
    fn reply(ev: &VerifiedEvidence) -> Raw<'_> {
        let mut fields = Writer::new();
        fields
            .u8(ev.plaintext.flag.wire_id())
            .u64(ev.plaintext.nonce)
            .u64(ev.plaintext.time_limit.0);
        Raw::Derived(REPLY_MASK, fields.finish_vec(), ev)
    }

    /// Alice's NRO and Bob's NRR for a settled upload.
    fn evidence_pair(w: &World, txn: u64) -> (VerifiedEvidence, VerifiedEvidence) {
        let (nro, nrr) = w.client.txn(txn).unwrap().evidence().unwrap();
        (nro, nrr.unwrap())
    }

    #[test]
    fn a_bundle_without_repeated_evidence_derives_only_its_second_entry() {
        // No entry repeats another, so none is a reference. The upload's
        // NRR derives from the first entry, its NRO; the download's NRO
        // shares fields with it too, but one entry at most derives, so the
        // download's pair is written in full.
        let (w, up, down) = settled_world();
        let (up_nro, up_nrr) = evidence_pair(&w, up);
        let (down_nro, down_nrr) = evidence_pair(&w, down);
        let mut b = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        b.entries.extend(EvidenceBundle::from_client_txn(&w.client, down).unwrap().entries);
        let x = b.save();
        let expected = raw_bundle(&[
            ("own-nro", Raw::Inline(&up_nro)),
            ("peer-nrr", reply(&up_nrr)),
            ("own-nro", Raw::Inline(&down_nro)),
            ("peer-nrr", Raw::Inline(&down_nrr)),
        ]);
        assert_eq!(x, expected);
        let loaded = EvidenceBundle::load(&x).unwrap();
        assert_eq!(loaded, b);
        assert_eq!(loaded.save(), x);
    }

    #[test]
    fn repeated_evidence_is_saved_once_and_loads_back_in_order() {
        let (w, up, _) = settled_world();
        let (nro, nrr) = evidence_pair(&w, up);
        // The bundle the runner archives for an evicted upload: a reference
        // may name the derived entry.
        let mut b = EvidenceBundle::new();
        b.push("client-nro", nro.clone());
        b.push("client-nrr", nrr.clone());
        b.push("provider-nro", nro.clone());
        b.push("provider-nrr", nrr.clone());
        let x = b.save();
        let expected = raw_bundle(&[
            ("client-nro", Raw::Inline(&nro)),
            ("client-nrr", reply(&nrr)),
            ("provider-nro", Raw::Ref(0)),
            ("provider-nrr", Raw::Ref(1)),
        ]);
        assert_eq!(x, expected);
        let loaded = EvidenceBundle::load(&x).unwrap();
        assert_eq!(loaded, b);
        assert_eq!(loaded.save(), x);

        // A third copy is no reference: each entry is named by at most one.
        // It shares every field with the first entry, so it derives with an
        // empty mask and keeps only its signatures.
        let mut three = EvidenceBundle::new();
        for label in ["a", "b", "c"] {
            three.push(label, nro.clone());
        }
        let x = three.save();
        let expected = raw_bundle(&[
            ("a", Raw::Inline(&nro)),
            ("b", Raw::Ref(0)),
            ("c", Raw::Derived(0, Vec::new(), &nro)),
        ]);
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

    /// Evidence that shares no plaintext field with `ev`.
    fn stranger(ev: &VerifiedEvidence) -> VerifiedEvidence {
        let pt = &ev.plaintext;
        let other = |id: PrincipalId| PrincipalId(id.0.map(|b| !b));
        let plaintext = EvidencePlaintext {
            flag: Flag::ResolveForward,
            sender: other(pt.sender),
            recipient: other(pt.recipient),
            ttp: other(pt.ttp),
            txn_id: !pt.txn_id,
            seq: !pt.seq,
            nonce: !pt.nonce,
            time_limit: SimTime(!pt.time_limit.0),
            object: b"elsewhere".to_vec(),
            hash_alg: HashAlg::Md5,
            data_hash: vec![9; 16],
        };
        VerifiedEvidence { plaintext, ..ev.clone() }
    }

    #[test]
    fn every_hostile_or_non_canonical_derived_entry_is_malformed() {
        let (w, up, _) = settled_world();
        let (nro, nrr) = evidence_pair(&w, up);
        let far = stranger(&nro);
        let (pt, a) = (&nrr.plaintext, || ("a", Raw::Inline(&nro)));
        // A reply's fields with `flag` for its flag, `mid` spliced in after
        // it and `tail` after the time limit.
        let fields = |flag: u8, mid: &[u8], tail: &[u8]| {
            let mut f = Writer::new();
            f.u8(flag).fixed(mid).u64(pt.nonce).u64(pt.time_limit.0).fixed(tail);
            f.finish_vec()
        };
        let flag = pt.flag.wire_id();
        let derived = |mask: u16, fields: Vec<u8>| ("r", Raw::Derived(mask, fields, &nrr));
        let parties = [pt.sender.0, pt.recipient.0].concat();
        let unswapped = REPLY_MASK - SWAPPED + SENDER + RECIPIENT;
        let hostile: Vec<(&str, Vec<(&str, Raw<'_>)>)> = vec![
            (
                "an undefined mask bit",
                vec![a(), derived(REPLY_MASK | 1 << 12, fields(flag, &[], &[]))],
            ),
            ("a derived first entry", vec![("r", Raw::Derived(0, Vec::new(), &nro))]),
            ("an unknown flag id", vec![a(), derived(REPLY_MASK, fields(99, &[], &[]))]),
            (
                "an unknown hash id",
                vec![a(), derived(REPLY_MASK | HASH_ALG, fields(flag, &[], &[99]))],
            ),
            (
                "a second entry derived from the base",
                vec![
                    a(),
                    ("b", Raw::Ref(0)),
                    ("r", reply(&nrr)),
                    ("c", Raw::Derived(0, Vec::new(), &nro)),
                ],
            ),
            (
                "a field equal to the base's",
                vec![a(), derived(REPLY_MASK | TTP, fields(flag, &pt.ttp.0, &[]))],
            ),
            (
                "swapped parties written out",
                vec![a(), derived(unswapped, fields(flag, &parties, &[]))],
            ),
            (
                "the swap bit and a sender",
                vec![a(), derived(REPLY_MASK | SENDER, fields(flag, &pt.sender.0, &[]))],
            ),
            (
                "nothing shared",
                vec![a(), ("r", Raw::Derived(NOTHING_SHARED, far.plaintext.to_wire(), &far))],
            ),
            ("a copy of an open entry", vec![a(), ("r", Raw::Derived(0, Vec::new(), &nro))]),
            ("an inline entry save would derive", vec![a(), ("r", Raw::Inline(&nrr))]),
            (
                "an inline copy of an open derived entry",
                vec![a(), ("r", reply(&nrr)), ("s", Raw::Inline(&nrr))],
            ),
        ];
        for (case, entries) in &hostile {
            assert_eq!(
                EvidenceBundle::load(&raw_bundle(entries)),
                Err(BundleError::Malformed),
                "{case}"
            );
        }
        // What save writes for the same evidence loads.
        for ok in [vec![a(), ("r", reply(&nrr))], vec![a(), ("r", Raw::Inline(&far))]] {
            let x = raw_bundle(&ok);
            assert_eq!(EvidenceBundle::load(&x).unwrap().save(), x);
        }
        // Truncated anywhere in the derived entry: signatures, fields, mask
        // or marker.
        let whole = raw_bundle(&[a(), ("r", reply(&nrr))]);
        let body = &whole[..whole.len() - 32];
        let sigs = 4 + nrr.sig_data_hash.len() + 4 + nrr.sig_plaintext.len();
        for cut in 1..=1 + 2 + 17 + sigs {
            let short = sealed(body[..body.len() - cut].to_vec());
            assert_eq!(EvidenceBundle::load(&short), Err(BundleError::Malformed), "cut {cut}");
        }
    }

    #[test]
    fn a_one_mib_object_is_copied_by_one_derived_entry_at_most() {
        // A derived entry with an empty mask copies the base's 1 MiB object
        // for three bytes beyond its label and signatures. One may, once the
        // base is no longer open to a reference; a second from the same base
        // is refused, so hostile bytes still expand only to a bounded
        // multiple of their length.
        let (w, up, _) = settled_world();
        let (mut big, _) = evidence_pair(&w, up);
        big.plaintext.object = vec![7; 1 << 20];
        let copy = || ("c", Raw::Derived(0, Vec::new(), &big));
        let mut entries = vec![("base", Raw::Inline(&big)), ("r", Raw::Ref(0)), copy()];
        assert_eq!(EvidenceBundle::load(&raw_bundle(&entries)).unwrap().entries.len(), 3);
        entries.extend((0..1000).map(|_| copy()));
        assert_eq!(EvidenceBundle::load(&raw_bundle(&entries)), Err(BundleError::Malformed));
    }

    /// One settled transaction of each kind, evicted: an upload, a
    /// download, an upload Bob aborts, and one the TTP completes while
    /// Bob's receipt is held up. Returns the world and the four txn ids.
    pub(super) fn one_of_each_kind_evicted() -> (World, [(&'static str, u64); 4]) {
        let mut w = World::new(5, ProtocolConfig::full());
        w.set_archive_capacity(1);
        let up = w.upload(b"k-up", vec![1; 32], TimeoutStrategy::AbortFirst);
        let down = w.download(b"k-up", TimeoutStrategy::AbortFirst);
        assert!(up.completed() && down.completed());
        w.provider.behavior.respond_transfers = false;
        let aborted = w.upload(b"k-aborted", vec![2; 32], TimeoutStrategy::AbortFirst);
        assert_eq!(aborted.outcome, TxnState::Aborted);
        w.provider.behavior.respond_transfers = true;
        let (a, b) = (w.alice_node, w.bob_node);
        w.net_mut().set_link(b, a, LinkConfig::ideal(SimDuration::from_secs(90)));
        let resolved = w.upload(b"k-resolved", vec![3; 32], TimeoutStrategy::ResolveImmediately);
        assert!(resolved.completed() && resolved.report.ttp_used);
        w.settle();
        w.net_mut().set_link(b, a, LinkConfig::default());
        let kinds = [
            ("upload", up.txn_id),
            ("download", down.txn_id),
            ("aborted", aborted.txn_id),
            ("resolved", resolved.txn_id),
        ];
        for i in 0..100u8 {
            if kinds.iter().all(|&(_, t)| w.archive.get(t).is_some()) {
                return (w, kinds);
            }
            assert!(w.upload(&[b'f', i], vec![i; 32], TimeoutStrategy::AbortFirst).completed());
        }
        panic!("100 more uploads did not evict all four");
    }

    #[test]
    fn every_kind_of_transaction_round_trips_and_reverifies() {
        let cfg = ProtocolConfig::full();
        let (w, kinds) = one_of_each_kind_evicted();
        let check = |b: &EvidenceBundle, kind: &str| {
            let x = b.save();
            let loaded = EvidenceBundle::load(&x).unwrap();
            assert_eq!(&loaded, b, "{kind}");
            assert_eq!(loaded.save(), x, "{kind}");
            for e in &loaded.entries {
                let pk = w.dir.lookup(&e.evidence.plaintext.sender).unwrap();
                let verdict = e.evidence.reverify(&cfg, pk);
                assert!(verdict.is_ok(), "{kind} {}: {verdict:?}", e.label);
            }
        };
        // Each archived bundle, and all of their entries in one bundle.
        let mut all = EvidenceBundle::new();
        for (kind, txn) in kinds {
            let b = w.rehydrate_evidence(txn).unwrap();
            assert!(b.entries.len() >= 3, "{kind}: {} entries", b.entries.len());
            check(&b, kind);
            all.entries.extend(b.entries);
        }
        check(&all, "all four");
    }

    #[test]
    fn every_kind_of_evicted_transaction_rehydrates_to_the_bundle_it_was() {
        // SHA-256 of each rehydrated bundle's standalone bytes, pinned while
        // the archive stored bundles in that form: the record form changes
        // how the log holds a bundle, not the labels, order or evidence
        // that come back.
        const PINNED: [(&str, &str, usize); 4] = [
            ("upload", "dafd3a4b9517a736b3c556dc98fbbc4d9d169b81785624fdd9fba74fea7f80db", 4),
            ("download", "32fc4956b02c8a80dbb0a9215c644568a1d171005660e0681d048d6dda4b08f3", 4),
            ("aborted", "020a7a559ad76bae235d7d647ab7addf8d195b34f81c5ed88e5997b285d8a7f6", 3),
            ("resolved", "d2faa5a7a37b12be61a433b9bd25ac06176a80cc161c39f1e518151bb36c5766", 4),
        ];
        let labels = ["client-nro", "client-nrr", "provider-nro", "provider-nrr"];
        let (w, kinds) = one_of_each_kind_evicted();
        for ((kind, txn), (pinned_kind, digest, n)) in kinds.into_iter().zip(PINNED) {
            assert_eq!(kind, pinned_kind);
            let b = w.rehydrate_evidence(txn).unwrap();
            let got: Vec<&str> = b.entries.iter().map(|e| e.label.as_str()).collect();
            assert_eq!(got, labels[..n], "{kind}");
            let hex = tpnr_crypto::encoding::hex_encode(&Sha256::digest(&b.save()));
            assert_eq!(hex, digest, "{kind}");
        }
    }

    #[test]
    fn an_evicted_aborted_upload_keeps_both_nros_inline() {
        // Bob ignores the transfer and accepts the abort: his NRO is
        // Alice's abort request, not her upload NRO, and he signed no NRR.
        // His abort acknowledgement, the client's NRR, derives from the
        // upload NRO; the abort request is then written in full.
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
        let client_nrr = b.get("client-nrr").unwrap();
        let provider_nro = b.get("provider-nro").unwrap();
        assert_eq!(client_nrr.plaintext.flag, Flag::AbortResponse);
        assert_eq!(provider_nro.plaintext.flag, Flag::AbortRequest);
        assert_ne!(client_nro, provider_nro);
        let entries = [
            ("client-nro", Raw::Inline(client_nro)),
            ("client-nrr", reply(client_nrr)),
            ("provider-nro", Raw::Inline(provider_nro)),
        ];
        assert_eq!(b.save(), raw_bundle(&entries));
        // In the log it is its shard's first record, so it defines the
        // three parties, in the order the NRO names them.
        let pt = &client_nro.plaintext;
        let expected = raw_first_record(&[pt.sender, pt.recipient, pt.ttp], &entries);
        let at = w.archive.get(aborted.txn_id).unwrap().location;
        assert_eq!((at.offset, at.table_len), (0, 0));
        let shard = &w.archive.shards[TxnArchive::shard_of(aborted.txn_id)];
        assert_eq!(&shard.log[..at.len], &expected[..]);
    }

    #[test]
    fn an_evicted_upload_archives_under_470_bytes() {
        // The client's and the provider's copies of the NRO and the NRR
        // are one item each, the NRR keeps only the fields that differ
        // from the NRO, and a record names each principal by a one-byte
        // index into its shard's table: an evicted 256 B upload took over
        // 1.3 KB with every copy stored, 728 B with the NRR in full, and
        // 578 B with each principal's 32-byte id.
        let mut w = World::new(7, ProtocolConfig::full());
        w.set_archive_capacity(1);
        for i in 0..400u16 {
            let key = i.to_be_bytes();
            assert!(w.upload(&key, vec![i as u8; 256], TimeoutStrategy::AbortFirst).completed());
        }
        let stats = w.archive_stats();
        assert!(stats.evicted >= 380, "eviction engaged: {stats:?}");
        let per_txn = stats.log_bytes / stats.evicted;
        assert!(per_txn <= 470, "{per_txn} B archived per evicted upload");
    }

    /// Replays a shard log from its first byte into an empty table: every
    /// record's bundle, in log order, and the table the records rebuilt.
    fn replay(log: &[u8]) -> Result<(Principals, Vec<EvidenceBundle>), BundleError> {
        let (mut table, mut bundles, mut at) = (Principals::default(), Vec::new(), 0);
        while at < log.len() {
            // A record ends where its body does, plus its digest.
            let rest = &log[at..];
            let mut r = Reader::new(rest);
            read_record_body(&mut r, rest, &table, table.len())?;
            let len = rest.len() - r.remaining() + 32;
            let record = rest.get(..len).ok_or(BundleError::Malformed)?;
            let (bundle, defined) = read_record(record, &table, table.len())?;
            for id in defined {
                table.intern(id);
            }
            bundles.push(bundle);
            at += len;
        }
        Ok((table, bundles))
    }

    #[test]
    fn every_shard_log_of_a_fleet_lane_replays_from_its_first_byte() {
        // Clients upload once each, so nearly every record defines its
        // client: what the shard's table holds is only in its log.
        let n = 48;
        let mut w = crate::multi::MultiWorld::new(13, ProtocolConfig::full(), n);
        w.set_archive_capacity(1);
        for i in 0..n {
            let key = format!("u{i}").into_bytes();
            w.start_upload(i, &key, vec![i as u8; 64], TimeoutStrategy::AbortFirst);
        }
        assert!(w.settle().outcome.is_quiescent());
        let stats = w.archive_stats();
        assert!(stats.evicted >= 24, "{stats:?}");
        let mut replayed = 0;
        for shard in &w.archive.shards {
            let (table, bundles) = replay(&shard.log).expect("the log replays");
            assert_eq!(table, shard.principals, "the replay rebuilds the table");
            for b in bundles {
                let txn = b.get("client-nro").unwrap().plaintext.txn_id;
                assert_eq!(w.rehydrate_evidence(txn), Some(b), "txn {txn}");
                replayed += 1;
            }
        }
        assert_eq!(replayed, stats.evicted);
    }

    #[test]
    fn every_hostile_record_is_malformed() {
        // A shard's first record: its table length (0), its three defined
        // ids, then its entry count and entries, the first an upload NRO
        // labelled "own-nro" whose sender, recipient and TTP are indices
        // 0-2.
        let (w, up, _) = settled_world();
        let b = EvidenceBundle::from_client_txn(&w.client, up).unwrap();
        let mut table = Principals::default();
        let good = write_record(&b, &mut table);
        assert_eq!(read_record(&good, &Principals::default(), 0), Ok((b, table.ids().to_vec())));
        let body = &good[..good.len() - 32];
        let ids = 2..2 + 96;
        let sender = ids.end + 1 + 1 + b"own-nro".len() + 1;
        assert_eq!(body[sender..sender + 3], [0, 1, 2]);
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut body = body.to_vec();
            edit(&mut body);
            sealed(body)
        };
        let hostile: [(&str, Vec<u8>); 8] = [
            ("starting past its table", with(&|b| b[0] = 1)),
            ("an overlong table length", with(&|b| b.splice(0..1, [0x80, 0]).for_each(drop))),
            ("more ids than bytes", with(&|b| b[1] = 0x7F)),
            ("an index past the table", with(&|b| b[sender] = 3)),
            ("a defined id named out of order", with(&|b| b[sender..sender + 2].swap(0, 1))),
            ("an id defined twice", with(&|b| b.copy_within(2..34, 34))),
            ("an id defined and never named", {
                with(&|b| {
                    b[1] = 4;
                    b.splice(ids.end..ids.end, [7; 32]).for_each(drop);
                })
            }),
            ("a byte after the entries", with(&|b| b.push(0))),
        ];
        for (case, bytes) in &hostile {
            let got = read_record(bytes, &Principals::default(), 0);
            assert_eq!(got.map(drop), Err(BundleError::Malformed), "{case}");
        }
        // Read against the table it filled, the record starts elsewhere.
        assert_eq!(read_record(&good, &table, table.len()).map(drop), Err(BundleError::Malformed));
        let mut flipped = good.clone();
        flipped[40] ^= 1;
        assert_eq!(read_record(&flipped, &table, 0).map(drop), Err(BundleError::Corrupted));
    }
}

/// Seeded fuzzing of the archive's record decoder, the one rehydration
/// reads evidence back through. The records of an evicted upload, a
/// download, an aborted upload and a TTP-resolved upload are mutated by
/// flipping, truncating and inserting bytes, and each mutant's digest is
/// sealed again so it reaches the decoder instead of stopping at the
/// integrity check. Each is read through its shard's table as it stood
/// before the record was written. Whatever the bytes:
/// - a read never panics and fails only as `Malformed`;
/// - a mutant that reads is canonical: written again through the same
///   table, it is the same bytes;
/// - its entries decode to at most four times its length.
#[cfg(test)]
mod record_fuzz {
    use super::tests::one_of_each_kind_evicted;
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;
    use tpnr_net::codec::Wire;

    /// A read's output may be this many times its input, counted as the
    /// wire length of every entry's label and evidence, as for a
    /// standalone bundle.
    const EXPANSION: usize = 4;

    /// Each source record, with its shard's table as it stood before it.
    fn corpus() -> &'static [(Vec<u8>, Principals)] {
        static CORPUS: OnceLock<Vec<(Vec<u8>, Principals)>> = OnceLock::new();
        CORPUS.get_or_init(|| {
            let (w, kinds) = one_of_each_kind_evicted();
            let record = |txn| {
                let at = w.archive.get(txn).unwrap().location;
                let shard = &w.archive.shards[TxnArchive::shard_of(txn)];
                let mut before = Principals::default();
                for &id in &shard.principals.ids()[..at.table_len as usize] {
                    before.intern(id);
                }
                (shard.log[at.offset..at.offset + at.len].to_vec(), before)
            };
            kinds.iter().map(|&(_, txn)| record(txn)).collect()
        })
    }

    /// `body` with a valid digest appended.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let digest = Sha256::digest(&body);
        body.extend_from_slice(&digest);
        body
    }

    /// Applies one mutation to `body`: flip bits of a byte, truncate, or
    /// insert a byte, at `at` modulo the length.
    fn mutate(body: &mut Vec<u8>, (op, at, byte): (u8, u32, u8)) {
        let at = at as usize % (body.len() + 1);
        match op {
            0 if at < body.len() => body[at] ^= byte | 1,
            1 => body.truncate(at),
            _ => body.insert(at, byte),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn a_mutated_record_reads_canonically_or_is_malformed(
            source in 0usize..4,
            ops in proptest::collection::vec((0u8..3, any::<u32>(), any::<u8>()), 1..4),
        ) {
            let (saved, before) = &corpus()[source];
            let mut body = saved[..saved.len() - 32].to_vec();
            for op in ops {
                mutate(&mut body, op);
            }
            let mutant = sealed(body);
            match read_record(&mutant, before, before.len()) {
                Ok((bundle, _)) => {
                    let again = write_record(&bundle, &mut before.clone());
                    prop_assert_eq!(again, mutant.clone(), "a read mutant writes back");
                    let decoded: usize = bundle
                        .entries
                        .iter()
                        .map(|e| e.label.len() + e.evidence.encoded_len())
                        .sum();
                    prop_assert!(
                        decoded <= EXPANSION * mutant.len(),
                        "{decoded} B decoded from {} B",
                        mutant.len()
                    );
                }
                Err(e) => prop_assert_eq!(e, BundleError::Malformed),
            }
        }
    }

    #[test]
    fn the_corpus_reads_and_mutations_reach_the_decoder() {
        // Each source reads and writes back as saved, so a mutant's failure
        // is the mutation's. A World has three parties, so each record
        // defines them all, as its shard's first, or none.
        for (saved, before) in corpus() {
            let (bundle, defined) = read_record(saved, before, before.len()).unwrap();
            assert_eq!(&write_record(&bundle, &mut before.clone()), saved);
            assert_eq!(defined.len(), if before.len() == 0 { 3 } else { 0 });
        }
        // In a record, a flipped bit in the NRR's signature still reads,
        // and every entry that holds the NRR carries it; the same flip in
        // the last reference's index does not read.
        let (upload, before) = &corpus()[0];
        let mut body = upload[..upload.len() - 32].to_vec();
        let (b, _) = read_record(upload, before, before.len()).unwrap();
        let sig = b.entries[1].evidence.sig_plaintext.clone();
        let at = body.windows(sig.len()).position(|w| w == &sig[..]).unwrap();
        mutate(&mut body, (0, at as u32, 1));
        let (flipped, _) = read_record(&sealed(body.clone()), before, before.len()).unwrap();
        assert_ne!(flipped.entries[1].evidence.sig_plaintext, sig);
        assert_eq!(flipped.entries[1].evidence, flipped.entries[3].evidence);
        let last = body.len() - 1;
        mutate(&mut body, (0, last as u32, 1));
        let read = read_record(&sealed(body), before, before.len());
        assert_eq!(read.map(drop), Err(BundleError::Malformed));
    }
}
