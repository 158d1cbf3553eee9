//! Non-repudiation evidence — paper §4.1.
//!
//! Every TPNR transmission attaches evidence. The signed *plaintext* carries
//! a flag labelling the process, the IDs of sender / recipient / TTP, the
//! transaction id, a random nonce and a monotonically increasing sequence
//! number (anti-replay), a time limit (anti-timeliness), and the hash of the
//! data. The evidence proper is
//!
//! ```text
//!   Evidence = Encrypt_pk(recipient){ Sign_sk(sender)(H(data)),
//!                                     Sign_sk(sender)(H(plaintext)) }
//! ```
//!
//! Alice's evidence is the **NRO** (non-repudiation of origin); Bob's is the
//! **NRR** (non-repudiation of receipt). Once opened and verified, evidence
//! is kept in [`VerifiedEvidence`] form — exactly what a party later submits
//! to the arbitrator, who can check the signatures with public keys alone.

use crate::config::{Ablation, ProtocolConfig};
use crate::principal::{Principal, PrincipalId};
use std::cell::Cell;
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::{envelope, ChaChaRng, CryptoError, RsaPublicKey};
use tpnr_net::codec::{CodecError, Reader, Wire, Writer};
use tpnr_net::time::SimTime;

/// Message/process flag (paper: "a flag to label the process").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flag {
    /// Upload data transfer (Alice → Bob carries data + NRO).
    UploadRequest,
    /// Upload receipt (Bob → Alice carries NRR).
    UploadReceipt,
    /// Download request (Alice → Bob, carries NRO over the request).
    DownloadRequest,
    /// Download response (Bob → Alice carries data + NRR).
    DownloadResponse,
    /// Abort request (Alice → Bob).
    AbortRequest,
    /// Abort accept/reject (Bob → Alice).
    AbortResponse,
    /// Resolve request (→ TTP).
    ResolveRequest,
    /// Resolve forward (TTP → counterparty).
    ResolveForward,
    /// Resolve response (counterparty → TTP → initiator).
    ResolveResponse,
}

impl Flag {
    pub(crate) fn wire_id(self) -> u8 {
        match self {
            Flag::UploadRequest => 1,
            Flag::UploadReceipt => 2,
            Flag::DownloadRequest => 3,
            Flag::DownloadResponse => 4,
            Flag::AbortRequest => 5,
            Flag::AbortResponse => 6,
            Flag::ResolveRequest => 7,
            Flag::ResolveForward => 8,
            Flag::ResolveResponse => 9,
        }
    }

    pub(crate) fn from_wire_id(v: u8) -> Result<Self, CodecError> {
        Ok(match v {
            1 => Flag::UploadRequest,
            2 => Flag::UploadReceipt,
            3 => Flag::DownloadRequest,
            4 => Flag::DownloadResponse,
            5 => Flag::AbortRequest,
            6 => Flag::AbortResponse,
            7 => Flag::ResolveRequest,
            8 => Flag::ResolveForward,
            9 => Flag::ResolveResponse,
            other => return Err(CodecError::BadDiscriminant("flag", other as u64)),
        })
    }
}

/// The signed plaintext of §4.1 — every field the paper enumerates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidencePlaintext {
    /// Process label.
    pub flag: Flag,
    /// Sender's principal id.
    pub sender: PrincipalId,
    /// Recipient's principal id.
    pub recipient: PrincipalId,
    /// The TTP both parties agreed on.
    pub ttp: PrincipalId,
    /// Transaction this message belongs to.
    pub txn_id: u64,
    /// Per-transaction sequence number ("increases one by one").
    pub seq: u64,
    /// Random number against replay.
    pub nonce: u64,
    /// Latest acceptable reception time (§5.5).
    pub time_limit: SimTime,
    /// The stored-object key this transaction concerns (binds upload and
    /// download evidence to the same object at arbitration time; an
    /// engineering extension of the paper's "IDs … for convenience" list).
    pub object: Vec<u8>,
    /// Hash algorithm for `data_hash`.
    pub hash_alg: HashAlg,
    /// Hash of the transferred data (or of the request being acknowledged).
    pub data_hash: Vec<u8>,
}

impl Wire for EvidencePlaintext {
    fn encode(&self, w: &mut Writer) {
        write_plaintext(w, &WireForm, self);
    }

    fn encoded_len(&self) -> usize {
        plaintext_len(&WireForm, self)
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_plaintext(r, &WireForm)
    }
}

impl EvidencePlaintext {
    /// Canonical hash of the plaintext (what the second signature covers).
    pub fn digest(&self) -> Vec<u8> {
        self.hash_alg.hash(&self.to_wire())
    }
}

/// Sealed evidence as it travels: encrypted for the recipient.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedEvidence {
    /// Hybrid envelope over the two signatures.
    pub sealed: Vec<u8>,
}

impl Wire for SealedEvidence {
    fn encode(&self, w: &mut Writer) {
        w.bytes(&self.sealed);
    }
    fn encoded_len(&self) -> usize {
        4 + self.sealed.len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(SealedEvidence { sealed: r.bytes()? })
    }
}

/// Evidence after the recipient opened and verified it; this is the durable
/// artifact each party archives and later shows the arbitrator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedEvidence {
    /// The plaintext the signatures commit to.
    pub plaintext: EvidencePlaintext,
    /// `Sign_sender(H(data))`.
    pub sig_data_hash: Vec<u8>,
    /// `Sign_sender(H(plaintext))`.
    pub sig_plaintext: Vec<u8>,
}

impl Wire for VerifiedEvidence {
    fn encode(&self, w: &mut Writer) {
        write_evidence(w, &WireForm, self);
    }
    fn encoded_len(&self) -> usize {
        evidence_len(&WireForm, self)
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        read_evidence(r, &WireForm)
    }
}

/// Evidence-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvidenceError {
    /// Decryption failed (not for us / corrupted).
    Unsealable,
    /// A signature failed verification.
    BadSignature,
    /// The signer's key is not in the authenticated directory.
    UnknownSigner,
    /// Structural decode failure.
    Malformed,
    /// Crypto subsystem failure during construction.
    Crypto(CryptoError),
}

impl std::fmt::Display for EvidenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvidenceError::Unsealable => write!(f, "cannot open sealed evidence"),
            EvidenceError::BadSignature => write!(f, "evidence signature invalid"),
            EvidenceError::UnknownSigner => write!(f, "signer not in directory"),
            EvidenceError::Malformed => write!(f, "malformed evidence"),
            EvidenceError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for EvidenceError {}

/// The sign step of evidence construction: `(Sign(H(data)), Sign(H(pt)))`.
///
/// With [`Ablation::NoSignatures`], the "signatures" degrade to the bare
/// hashes — the structure survives but carries no non-repudiation, which is
/// what the E3 ablation experiment demonstrates.
pub fn sign_pair(
    cfg: &ProtocolConfig,
    sender: &Principal,
    plaintext: &EvidencePlaintext,
) -> Result<(Vec<u8>, Vec<u8>), EvidenceError> {
    if cfg.ablation != Ablation::NoSignatures {
        let s1 = sender
            .keys
            .private
            .sign_prehashed(plaintext.hash_alg, &plaintext.data_hash)
            .map_err(EvidenceError::Crypto)?;
        let s2 = sender
            .keys
            .private
            .sign_prehashed(plaintext.hash_alg, &plaintext.digest())
            .map_err(EvidenceError::Crypto)?;
        Ok((s1, s2))
    } else {
        Ok((plaintext.data_hash.clone(), plaintext.digest()))
    }
}

/// The encrypt step: wrap an already-signed pair for the recipient. This
/// is the *only* way (outside this module) to obtain a [`SealedEvidence`],
/// so sealing without signing first is unrepresentable — the lint rule
/// EVIDENCE-CTOR enforces that callers cannot bypass it with a struct
/// literal.
pub fn seal_signatures(
    recipient_pk: &RsaPublicKey,
    rng: &mut ChaChaRng,
    sig_data_hash: &[u8],
    sig_plaintext: &[u8],
) -> Result<SealedEvidence, EvidenceError> {
    let mut w = Writer::with_capacity(4 + sig_data_hash.len() + 4 + sig_plaintext.len());
    w.bytes(sig_data_hash);
    w.bytes(sig_plaintext);
    let body = w.finish_vec();
    let sealed = envelope::seal(recipient_pk, rng, &body).map_err(EvidenceError::Crypto)?;
    Ok(SealedEvidence { sealed })
}

/// Builds sealed evidence: sign the data hash and the plaintext hash with
/// the sender's key, then encrypt both signatures for the recipient —
/// sign-then-encrypt, in that order (paper §4.1).
pub fn seal(
    cfg: &ProtocolConfig,
    sender: &Principal,
    recipient_pk: &RsaPublicKey,
    plaintext: &EvidencePlaintext,
    rng: &mut ChaChaRng,
) -> Result<SealedEvidence, EvidenceError> {
    let (sig_data_hash, sig_plaintext) = sign_pair(cfg, sender, plaintext)?;
    seal_signatures(recipient_pk, rng, &sig_data_hash, &sig_plaintext)
}

/// Builds the sealed evidence for the peer **and** the sender's own archived
/// copy from a single [`sign_pair`] call.
///
/// Senders need both artifacts for every transfer; this is the one
/// constructor of a sender's own archived copy. It signs once, seals those
/// signatures for the peer, and keeps the same ones in verified form (the
/// sender signed them itself, so no verification pass is needed).
pub fn seal_and_own(
    cfg: &ProtocolConfig,
    sender: &Principal,
    recipient_pk: &RsaPublicKey,
    plaintext: &EvidencePlaintext,
    rng: &mut ChaChaRng,
) -> Result<(SealedEvidence, VerifiedEvidence), EvidenceError> {
    let (sig_data_hash, sig_plaintext) = sign_pair(cfg, sender, plaintext)?;
    let sealed = seal_signatures(recipient_pk, rng, &sig_data_hash, &sig_plaintext)?;
    let own = VerifiedEvidence { plaintext: plaintext.clone(), sig_data_hash, sig_plaintext };
    Ok((sealed, own))
}

/// Opens sealed evidence with the recipient's private key and verifies both
/// signatures against the (separately received) plaintext.
pub fn open_and_verify(
    cfg: &ProtocolConfig,
    recipient: &Principal,
    sender_pk: &RsaPublicKey,
    plaintext: &EvidencePlaintext,
    sealed: &SealedEvidence,
) -> Result<VerifiedEvidence, EvidenceError> {
    let body = envelope::open(&recipient.keys.private, &sealed.sealed)
        .map_err(|_| EvidenceError::Unsealable)?;
    let mut r = Reader::new(&body);
    let sig_data_hash = r.bytes().map_err(|_| EvidenceError::Malformed)?;
    let sig_plaintext = r.bytes().map_err(|_| EvidenceError::Malformed)?;
    r.expect_end().map_err(|_| EvidenceError::Malformed)?;

    verify_signatures(cfg, sender_pk, plaintext, &sig_data_hash, &sig_plaintext)?;
    Ok(VerifiedEvidence { plaintext: plaintext.clone(), sig_data_hash, sig_plaintext })
}

/// Signature check shared by the recipient and the arbitrator.
pub fn verify_signatures(
    cfg: &ProtocolConfig,
    sender_pk: &RsaPublicKey,
    plaintext: &EvidencePlaintext,
    sig_data_hash: &[u8],
    sig_plaintext: &[u8],
) -> Result<(), EvidenceError> {
    let pt_digest = plaintext.digest();
    if cfg.ablation != Ablation::NoSignatures {
        sender_pk
            .verify_prehashed(plaintext.hash_alg, &plaintext.data_hash, sig_data_hash)
            .map_err(|_| EvidenceError::BadSignature)?;
        sender_pk
            .verify_prehashed(plaintext.hash_alg, &pt_digest, sig_plaintext)
            .map_err(|_| EvidenceError::BadSignature)?;
        Ok(())
    } else {
        // Ablated: "verification" only compares hashes — forgeable by
        // anyone. Still constant-time: even degraded comparisons must not
        // leak where the bytes diverge.
        let data_ok = tpnr_crypto::ct::eq(sig_data_hash, &plaintext.data_hash);
        let pt_ok = tpnr_crypto::ct::eq(sig_plaintext, &pt_digest);
        if data_ok & pt_ok {
            Ok(())
        } else {
            Err(EvidenceError::BadSignature)
        }
    }
}

impl VerifiedEvidence {
    /// Re-verifies this archived evidence (what the arbitrator does).
    pub fn reverify(
        &self,
        cfg: &ProtocolConfig,
        sender_pk: &RsaPublicKey,
    ) -> Result<(), EvidenceError> {
        verify_signatures(cfg, sender_pk, &self.plaintext, &self.sig_data_hash, &self.sig_plaintext)
    }
}

/// How an encoding writes evidence's principal ids and its lengths,
/// counts and indices: the wire's way ([`WireForm`]: signatures, messages
/// and standalone bundles), a party's records' ([`Principals`]), or an
/// archive record's ([`RecordTable`]). The table forms write each number
/// in LEB128, one byte under 128.
pub(crate) trait Form {
    /// The bytes `id` takes.
    fn id_len(&self, id: &PrincipalId) -> usize;
    /// Writes `id`.
    fn write_id(&self, w: &mut Writer, id: &PrincipalId);
    /// Reads an id.
    fn read_id(&self, r: &mut Reader<'_>) -> Result<PrincipalId, CodecError>;

    /// The bytes a length, count or index `n` takes.
    fn len_len(&self, n: usize) -> usize {
        leb_len(n as u32)
    }
    /// Writes a length, count or index. None exceeds `u32::MAX`: the
    /// codec caps a field at `MAX_FIELD_LEN` bytes.
    fn write_len(&self, w: &mut Writer, n: usize) {
        write_leb(w, n as u32);
    }
    /// Reads a length, count or index.
    fn read_len(&self, r: &mut Reader<'_>) -> Result<usize, CodecError> {
        Ok(read_leb(r)? as usize)
    }

    /// The bytes a field of `n` bytes takes with its length.
    fn field_len(&self, n: usize) -> usize {
        self.len_len(n) + n
    }
    /// Writes a byte field with its length.
    fn write_field(&self, w: &mut Writer, field: &[u8]) {
        self.write_len(w, field.len());
        w.fixed(field);
    }
    /// Reads a byte field with its length.
    fn read_field(&self, r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        let n = self.read_len(r)?;
        r.fixed(n)
    }
}

/// The canonical wire form: ids in full, 32 bytes each, and `u32`
/// lengths, counts and indices.
pub(crate) struct WireForm;

impl Form for WireForm {
    fn id_len(&self, _: &PrincipalId) -> usize {
        32
    }
    fn write_id(&self, w: &mut Writer, id: &PrincipalId) {
        w.fixed(&id.0);
    }
    fn read_id(&self, r: &mut Reader<'_>) -> Result<PrincipalId, CodecError> {
        Ok(PrincipalId(r.array::<32>()?))
    }
    fn len_len(&self, _: usize) -> usize {
        4
    }
    fn write_len(&self, w: &mut Writer, n: usize) {
        w.u32(n as u32);
    }
    fn read_len(&self, r: &mut Reader<'_>) -> Result<usize, CodecError> {
        Ok(r.u32()? as usize)
    }
    fn write_field(&self, w: &mut Writer, field: &[u8]) {
        w.bytes(field);
    }
    fn read_field(&self, r: &mut Reader<'_>) -> Result<Vec<u8>, CodecError> {
        r.bytes()
    }
}

/// Writes `pt` in wire order, in `form`.
fn write_plaintext(w: &mut Writer, form: &impl Form, pt: &EvidencePlaintext) {
    w.u8(pt.flag.wire_id());
    form.write_id(w, &pt.sender);
    form.write_id(w, &pt.recipient);
    form.write_id(w, &pt.ttp);
    w.u64(pt.txn_id);
    w.u64(pt.seq);
    w.u64(pt.nonce);
    w.u64(pt.time_limit.0);
    form.write_field(w, &pt.object);
    w.u8(pt.hash_alg.wire_id());
    form.write_field(w, &pt.data_hash);
}

/// The length [`write_plaintext`] writes `pt` in.
fn plaintext_len(form: &impl Form, pt: &EvidencePlaintext) -> usize {
    let principals = form.id_len(&pt.sender) + form.id_len(&pt.recipient) + form.id_len(&pt.ttp);
    let fields = form.field_len(pt.object.len()) + form.field_len(pt.data_hash.len());
    1 + principals + 4 * 8 + 1 + fields
}

/// Reads what [`write_plaintext`] writes.
fn read_plaintext(r: &mut Reader<'_>, form: &impl Form) -> Result<EvidencePlaintext, CodecError> {
    // Struct fields evaluate in the order written, which is wire order.
    Ok(EvidencePlaintext {
        flag: Flag::from_wire_id(r.u8()?)?,
        sender: form.read_id(r)?,
        recipient: form.read_id(r)?,
        ttp: form.read_id(r)?,
        txn_id: r.u64()?,
        seq: r.u64()?,
        nonce: r.u64()?,
        time_limit: SimTime(r.u64()?),
        object: form.read_field(r)?,
        hash_alg: read_hash_alg(r)?,
        data_hash: form.read_field(r)?,
    })
}

fn read_hash_alg(r: &mut Reader<'_>) -> Result<HashAlg, CodecError> {
    HashAlg::from_wire_id(r.u8()?).ok_or(CodecError::BadDiscriminant("hash alg", 0))
}

/// Writes `ev` in `form`: its plaintext, then both signatures.
pub(crate) fn write_evidence(w: &mut Writer, form: &impl Form, ev: &VerifiedEvidence) {
    write_plaintext(w, form, &ev.plaintext);
    write_signatures(w, form, ev);
}

/// The length [`write_evidence`] writes `ev` in.
fn evidence_len(form: &impl Form, ev: &VerifiedEvidence) -> usize {
    plaintext_len(form, &ev.plaintext) + signatures_len(form, ev)
}

/// Reads what [`write_evidence`] writes.
pub(crate) fn read_evidence(
    r: &mut Reader<'_>,
    form: &impl Form,
) -> Result<VerifiedEvidence, CodecError> {
    let plaintext = read_plaintext(r, form)?;
    read_signatures(r, form, plaintext)
}

fn write_signatures(w: &mut Writer, form: &impl Form, ev: &VerifiedEvidence) {
    form.write_field(w, &ev.sig_data_hash);
    form.write_field(w, &ev.sig_plaintext);
}

fn signatures_len(form: &impl Form, ev: &VerifiedEvidence) -> usize {
    form.field_len(ev.sig_data_hash.len()) + form.field_len(ev.sig_plaintext.len())
}

/// The evidence over `plaintext` whose signatures `r` holds next.
fn read_signatures(
    r: &mut Reader<'_>,
    form: &impl Form,
    plaintext: EvidencePlaintext,
) -> Result<VerifiedEvidence, CodecError> {
    let sig_data_hash = form.read_field(r)?;
    Ok(VerifiedEvidence { plaintext, sig_data_hash, sig_plaintext: form.read_field(r)? })
}

// A derived entry's field mask. Bit `i` of the low eleven marks the
// plaintext's `i`-th field, in wire order, as written out; a clear bit
// copies the field from the base.
const FLAG: u16 = 1 << 0;
pub(crate) const SENDER: u16 = 1 << 1;
pub(crate) const RECIPIENT: u16 = 1 << 2;
pub(crate) const TTP: u16 = 1 << 3;
const TXN_ID: u16 = 1 << 4;
const SEQ: u16 = 1 << 5;
const NONCE: u16 = 1 << 6;
const TIME_LIMIT: u16 = 1 << 7;
const OBJECT: u16 = 1 << 8;
pub(crate) const HASH_ALG: u16 = 1 << 9;
const DATA_HASH: u16 = 1 << 10;
/// Sender and recipient are the base's, swapped: the pair a reply turns
/// around costs one bit.
pub(crate) const SWAPPED: u16 = 1 << 11;
/// Every field written: the plaintext shares nothing with the base.
pub(crate) const NOTHING_SHARED: u16 = SWAPPED - 1;

/// The `u64` plaintext fields a mask may name.
const U64_FIELDS: [u16; 4] = [TXN_ID, SEQ, NONCE, TIME_LIMIT];

/// The principal fields of `pt` that `mask` names, in wire order.
fn named_principals(mask: u16, pt: &EvidencePlaintext) -> impl Iterator<Item = &PrincipalId> {
    [(SENDER, &pt.sender), (RECIPIENT, &pt.recipient), (TTP, &pt.ttp)]
        .into_iter()
        .filter(move |&(bit, _)| mask & bit != 0)
        .map(|(_, id)| id)
}

/// The fields of `pt` that differ from `base`'s, as a derived entry's mask.
pub(crate) fn field_mask(base: &EvidencePlaintext, pt: &EvidencePlaintext) -> u16 {
    let swapped =
        pt.sender != base.sender && pt.sender == base.recipient && pt.recipient == base.sender;
    let differs = [
        (FLAG, pt.flag != base.flag),
        (SENDER, !swapped && pt.sender != base.sender),
        (RECIPIENT, !swapped && pt.recipient != base.recipient),
        (TTP, pt.ttp != base.ttp),
        (TXN_ID, pt.txn_id != base.txn_id),
        (SEQ, pt.seq != base.seq),
        (NONCE, pt.nonce != base.nonce),
        (TIME_LIMIT, pt.time_limit != base.time_limit),
        (OBJECT, pt.object != base.object),
        (HASH_ALG, pt.hash_alg != base.hash_alg),
        (DATA_HASH, !tpnr_crypto::ct::eq(&pt.data_hash, &base.data_hash)),
        (SWAPPED, swapped),
    ];
    differs.iter().filter(|&&(_, d)| d).fold(0, |mask, &(bit, _)| mask | bit)
}

/// Writes `ev` as a derived entry over a base plaintext, in `form`:
/// `mask`, the fields it names in wire order, and both signatures.
pub(crate) fn write_derived(w: &mut Writer, form: &impl Form, mask: u16, ev: &VerifiedEvidence) {
    let pt = &ev.plaintext;
    let has = |bit: u16| mask & bit != 0;
    w.u16(mask);
    if has(FLAG) {
        w.u8(pt.flag.wire_id());
    }
    for id in named_principals(mask, pt) {
        form.write_id(w, id);
    }
    if has(TXN_ID) {
        w.u64(pt.txn_id);
    }
    if has(SEQ) {
        w.u64(pt.seq);
    }
    if has(NONCE) {
        w.u64(pt.nonce);
    }
    if has(TIME_LIMIT) {
        w.u64(pt.time_limit.0);
    }
    if has(OBJECT) {
        form.write_field(w, &pt.object);
    }
    if has(HASH_ALG) {
        w.u8(pt.hash_alg.wire_id());
    }
    if has(DATA_HASH) {
        form.write_field(w, &pt.data_hash);
    }
    write_signatures(w, form, ev);
}

/// The length [`write_derived`] writes `ev` in with `mask`.
fn derived_len(form: &impl Form, mask: u16, ev: &VerifiedEvidence) -> usize {
    let has = |bit: u16| mask & bit != 0;
    let pt = &ev.plaintext;
    2 + usize::from(has(FLAG))
        + named_principals(mask, pt).map(|id| form.id_len(id)).sum::<usize>()
        + 8 * U64_FIELDS.iter().filter(|&&bit| has(bit)).count()
        + if has(OBJECT) { form.field_len(pt.object.len()) } else { 0 }
        + usize::from(has(HASH_ALG))
        + if has(DATA_HASH) { form.field_len(pt.data_hash.len()) } else { 0 }
        + signatures_len(form, ev)
}

/// Reads a derived entry over `base`: its mask and the evidence it
/// rebuilds. Whether a bundle would have chosen that mask is the caller's
/// check.
pub(crate) fn read_derived(
    r: &mut Reader<'_>,
    form: &impl Form,
    base: &EvidencePlaintext,
) -> Result<(u16, VerifiedEvidence), CodecError> {
    let mask = r.u16()?;
    let has = |bit: u16| mask & bit != 0;
    let (sender, recipient) =
        if has(SWAPPED) { (base.recipient, base.sender) } else { (base.sender, base.recipient) };
    // Struct fields evaluate in the order written, which is wire order.
    let plaintext = EvidencePlaintext {
        flag: if has(FLAG) { Flag::from_wire_id(r.u8()?)? } else { base.flag },
        sender: if has(SENDER) { form.read_id(r)? } else { sender },
        recipient: if has(RECIPIENT) { form.read_id(r)? } else { recipient },
        ttp: if has(TTP) { form.read_id(r)? } else { base.ttp },
        txn_id: if has(TXN_ID) { r.u64()? } else { base.txn_id },
        seq: if has(SEQ) { r.u64()? } else { base.seq },
        nonce: if has(NONCE) { r.u64()? } else { base.nonce },
        time_limit: if has(TIME_LIMIT) { SimTime(r.u64()?) } else { base.time_limit },
        object: if has(OBJECT) { form.read_field(r)? } else { base.object.clone() },
        hash_alg: if has(HASH_ALG) { read_hash_alg(r)? } else { base.hash_alg },
        data_hash: if has(DATA_HASH) { form.read_field(r)? } else { base.data_hash.clone() },
    };
    Ok((mask, read_signatures(r, form, plaintext)?))
}

/// Entries a [`Principals`] table scans before it searches its index.
/// A party's own id and its TTP's sit here in every table that holds them.
const SCANNED: usize = 8;

/// The principals one party's records name. A record writes each
/// principal as its index here instead of its 32-byte id: LEB128, seven
/// bits a byte, so one byte in any table under 128 entries. A client's
/// table holds itself, its provider and its TTP; a provider's, its
/// clients besides. Append-only: an index, once handed out, names the
/// same principal for the table's life, and a party's snapshot carries
/// its table along with the records that index it. Every party holds one,
/// so a small table costs only its entries, allocated exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Principals {
    ids: Vec<PrincipalId>,
    /// The indices of the entries past the first [`SCANNED`], ordered by
    /// the id each names.
    sorted: Vec<u32>,
}

impl Principals {
    /// `id`'s index, if the table holds it.
    fn find(&self, id: &PrincipalId) -> Option<u32> {
        let scanned = self.ids.iter().take(SCANNED).position(|p| p == id);
        scanned.map(|i| i as u32).or_else(|| self.sorted.get(self.search(id).ok()?).copied())
    }

    /// Where `id` sits in `sorted`, or where it would.
    fn search(&self, id: &PrincipalId) -> Result<usize, usize> {
        self.sorted.binary_search_by(|&i| self.ids.get(i as usize).cmp(&Some(id)))
    }

    /// `id`'s index, appending it first if the table lacks it.
    pub(crate) fn intern(&mut self, id: PrincipalId) -> u32 {
        if let Some(i) = self.find(&id) {
            return i;
        }
        // Four billion principals would not fit in memory first.
        let i = u32::try_from(self.ids.len()).unwrap_or(u32::MAX);
        if self.ids.len() >= SCANNED {
            let (Ok(at) | Err(at)) = self.search(&id);
            self.sorted.insert(at, i);
        }
        // New principals are rare, so the table grows by one each time.
        self.ids.reserve_exact(1);
        self.ids.push(id);
        i
    }

    /// Entries in the table.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    /// The entries, by index.
    #[cfg(test)]
    pub(crate) fn ids(&self) -> &[PrincipalId] {
        &self.ids
    }
}

/// Bytes `i` takes in LEB128.
fn leb_len(i: u32) -> usize {
    (32 - i.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Writes `i` in LEB128: seven bits a byte, low bits first, the top bit
/// set on every byte but the last.
fn write_leb(w: &mut Writer, mut i: u32) {
    while i >= 0x80 {
        w.u8(i as u8 | 0x80);
        i >>= 7;
    }
    w.u8(i as u8);
}

/// Reads what [`write_leb`] writes: at most five bytes, and no more than
/// the value needs, so every number has one encoding.
fn read_leb(r: &mut Reader<'_>) -> Result<u32, CodecError> {
    let mut index = 0u64;
    for shift in [0, 7, 14, 21, 28] {
        let byte = r.u8()?;
        index |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            if byte == 0 && shift > 0 {
                return Err(CodecError::BadDiscriminant("overlong LEB128", index));
            }
            return u32::try_from(index).map_err(|_| CodecError::LengthOverflow);
        }
    }
    Err(CodecError::LengthOverflow)
}

/// A record's form: each principal as its index in the table, and each
/// length LEB128 too.
impl Form for Principals {
    fn id_len(&self, id: &PrincipalId) -> usize {
        leb_len(self.find(id).unwrap_or(u32::MAX))
    }

    /// An id the table lacks, which no caller writes, is written as an
    /// index no table reaches and so reads back as malformed.
    fn write_id(&self, w: &mut Writer, id: &PrincipalId) {
        write_leb(w, self.find(id).unwrap_or(u32::MAX));
    }

    fn read_id(&self, r: &mut Reader<'_>) -> Result<PrincipalId, CodecError> {
        let i = read_leb(r)?;
        self.ids.get(i as usize).copied().ok_or(CodecError::BadDiscriminant("principal", i.into()))
    }
}

/// The table one archive record is written and read through: its shard's
/// [`Principals`] as they stood before the record, then the ids the record
/// defines, which its shard had not named before, in the order the
/// record first names them. A reader holds a record to that order: the
/// first mention of a defined id must be of the next one, and every
/// defined id must be named. So each record has one encoding, and a
/// shard's log, read from its first byte, rebuilds its table.
pub(crate) struct RecordTable<'a> {
    shard: &'a Principals,
    /// The shard table's length when the record was written.
    start: usize,
    defined: Vec<PrincipalId>,
    /// Defined ids read so far.
    named: Cell<usize>,
}

impl<'a> RecordTable<'a> {
    /// The table of a record written next into `shard`'s log, naming
    /// `ids`: it defines each one `shard` lacks, in the order given.
    pub(crate) fn writing(shard: &'a Principals, ids: impl Iterator<Item = PrincipalId>) -> Self {
        let mut defined = Vec::new();
        for id in ids {
            if shard.find(&id).is_none() && !defined.contains(&id) {
                defined.push(id);
            }
        }
        RecordTable { shard, start: shard.len(), defined, named: Cell::new(0) }
    }

    /// The table of a record that `shard`'s first `start` entries stood
    /// before and that defines `defined`. An error unless `shard` holds
    /// `start` entries and each defined id is new to them and to the ids
    /// defined before it.
    pub(crate) fn reading(
        shard: &'a Principals,
        start: usize,
        defined: Vec<PrincipalId>,
    ) -> Result<Self, CodecError> {
        let known = |j: usize, id: &PrincipalId| {
            shard.find(id).is_some_and(|i| (i as usize) < start) || defined[..j].contains(id)
        };
        if start > shard.len() || defined.iter().enumerate().any(|(j, id)| known(j, id)) {
            return Err(CodecError::BadDiscriminant("principal table", start as u64));
        }
        Ok(RecordTable { shard, start, defined, named: Cell::new(0) })
    }

    /// The shard table's length when the record was written.
    pub(crate) fn start(&self) -> usize {
        self.start
    }

    /// The ids the record defines, in order.
    pub(crate) fn defined(&self) -> &[PrincipalId] {
        &self.defined
    }

    /// An error unless a read named every defined id.
    pub(crate) fn all_named(&self) -> Result<(), CodecError> {
        let named = self.named.get();
        if named == self.defined.len() {
            Ok(())
        } else {
            Err(CodecError::BadDiscriminant("unnamed principal", named as u64))
        }
    }

    /// The record's ids.
    pub(crate) fn into_defined(self) -> Vec<PrincipalId> {
        self.defined
    }

    /// `id`'s index: in the shard's table as it stood, or past it among
    /// the defined ids.
    fn index(&self, id: &PrincipalId) -> u32 {
        let stood = self.shard.find(id).filter(|&i| (i as usize) < self.start);
        let defined = || self.defined.iter().position(|d| d == id).map(|j| self.start + j);
        // An id the table lacks is written as an index no table reaches.
        stood.or_else(|| u32::try_from(defined()?).ok()).unwrap_or(u32::MAX)
    }
}

impl Form for RecordTable<'_> {
    fn id_len(&self, id: &PrincipalId) -> usize {
        leb_len(self.index(id))
    }

    fn write_id(&self, w: &mut Writer, id: &PrincipalId) {
        write_leb(w, self.index(id));
    }

    fn read_id(&self, r: &mut Reader<'_>) -> Result<PrincipalId, CodecError> {
        let i = read_leb(r)? as usize;
        let id = if i < self.start {
            self.shard.ids.get(i)
        } else {
            // Defined ids are first named in the order they are defined.
            let (j, named) = (i - self.start, self.named.get());
            let id = self.defined.get(j).filter(|_| j <= named);
            if id.is_some() {
                self.named.set(named.max(j + 1));
            }
            id
        };
        id.copied().ok_or(CodecError::BadDiscriminant("principal", i as u64))
    }
}

/// Skips a field [`Principals`] wrote and returns its length.
fn skip_field(r: &mut Reader<'_>) -> Result<usize, CodecError> {
    let n = read_leb(r)? as usize;
    r.skip(n)?;
    Ok(n)
}

/// One party's evidence for one transaction, in one buffer: its NRO, then,
/// once there is one, its NRR as a derived entry over the NRO's plaintext
/// ([`write_derived`]: the mask, the fields that differ, both
/// signatures), in the record form of the party's [`Principals`]: each
/// principal an index into the party's table, each length LEB128. A reply
/// repeats most of its request's plaintext, and a party's records name
/// the same few principals, so the pair takes little more room than the
/// NRO's signatures and fields alone, in one heap block. Evidence is
/// decoded on demand, through the table the buffer was written with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EvidencePair<B = Box<[u8]>>(B);

/// The variable-length fields of one evidence item, by length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct EvidenceLens {
    /// The plaintext's object key.
    pub object: usize,
    /// The plaintext's data hash.
    pub data_hash: usize,
    /// Both signatures together.
    pub sigs: usize,
}

impl<B: From<Vec<u8>>> EvidencePair<B> {
    /// The buffer for `nro` and, when given, `nrr`, sized exactly, with
    /// every principal they name added to `principals` first.
    pub(crate) fn new(
        principals: &mut Principals,
        nro: &VerifiedEvidence,
        nrr: Option<&VerifiedEvidence>,
    ) -> Self {
        for pt in std::iter::once(nro).chain(nrr).map(|e| &e.plaintext) {
            for id in [pt.sender, pt.recipient, pt.ttp] {
                principals.intern(id);
            }
        }
        let form = &*principals;
        let nrr = nrr.map(|nrr| (field_mask(&nro.plaintext, &nrr.plaintext), nrr));
        let len =
            evidence_len(form, nro) + nrr.map_or(0, |(mask, nrr)| derived_len(form, mask, nrr));
        let mut w = Writer::with_capacity(len);
        write_evidence(&mut w, form, nro);
        if let Some((mask, nrr)) = nrr {
            write_derived(&mut w, form, mask, nrr);
        }
        let buf = w.finish_vec();
        debug_assert_eq!(buf.len(), len, "the pair is sized exactly");
        EvidencePair(B::from(buf))
    }
}

impl<B: AsRef<[u8]>> EvidencePair<B> {
    /// The NRO, its principals read from `principals`.
    pub(crate) fn nro(&self, principals: &Principals) -> Result<VerifiedEvidence, EvidenceError> {
        read_evidence(&mut Reader::new(self.0.as_ref()), principals)
            .map_err(|_| EvidenceError::Malformed)
    }

    /// The NRO and, if the buffer holds one, the NRR.
    pub(crate) fn decode(
        &self,
        principals: &Principals,
    ) -> Result<(VerifiedEvidence, Option<VerifiedEvidence>), EvidenceError> {
        let decode = || {
            let mut r = Reader::new(self.0.as_ref());
            let nro = read_evidence(&mut r, principals)?;
            if r.remaining() == 0 {
                return Ok((nro, None));
            }
            let (_, nrr) = read_derived(&mut r, principals, &nro.plaintext)?;
            r.expect_end()?;
            Ok((nro, Some(nrr)))
        };
        decode().map_err(|_: CodecError| EvidenceError::Malformed)
    }

    /// The lengths of the NRO's and the NRR's variable fields, read off
    /// the buffer without decoding it or resolving a principal.
    pub(crate) fn lens(&self) -> Result<(EvidenceLens, Option<EvidenceLens>), CodecError> {
        let mut r = Reader::new(self.0.as_ref());
        r.skip(1)?;
        for _ in 0..3 {
            read_leb(&mut r)?;
        }
        r.skip(4 * 8)?;
        let object = skip_field(&mut r)?;
        r.skip(1)?;
        let data_hash = skip_field(&mut r)?;
        let sigs = skip_field(&mut r)? + skip_field(&mut r)?;
        let nro = EvidenceLens { object, data_hash, sigs };
        if r.remaining() == 0 {
            return Ok((nro, None));
        }
        let mask = r.u16()?;
        let has = |bit: u16| mask & bit != 0;
        r.skip(usize::from(has(FLAG)))?;
        for _ in [SENDER, RECIPIENT, TTP].into_iter().filter(|&bit| has(bit)) {
            read_leb(&mut r)?;
        }
        r.skip(8 * U64_FIELDS.iter().filter(|&&bit| has(bit)).count())?;
        let object = if has(OBJECT) { skip_field(&mut r)? } else { nro.object };
        r.skip(usize::from(has(HASH_ALG)))?;
        let data_hash = if has(DATA_HASH) { skip_field(&mut r)? } else { nro.data_hash };
        let sigs = skip_field(&mut r)? + skip_field(&mut r)?;
        let nrr = EvidenceLens { object, data_hash, sigs };
        r.expect_end()?;
        Ok((nro, Some(nrr)))
    }

    /// The buffer.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        self.0.as_ref()
    }
}

#[cfg(test)]
impl<B: AsRef<[u8]> + for<'a> From<&'a [u8]>> EvidencePair<B> {
    /// A pair over arbitrary bytes, for tests of what a record does when
    /// its buffer does not decode.
    pub(crate) fn from_raw(bytes: &[u8]) -> Self {
        EvidencePair(bytes.into())
    }

    /// Buffers cut inside the NRO and inside the NRR, one with a byte
    /// after the NRR, and one whose sender index is past the end of
    /// `principals`: none decodes in full, and only the third and fourth
    /// hold the whole NRO.
    pub(crate) fn undecodable(&self, principals: &Principals) -> [Self; 5] {
        let good = self.0.as_ref();
        let nro_len = evidence_len(principals, &self.nro(principals).unwrap());
        assert!(good.len() > nro_len, "the pair holds an NRR");
        let sender_len = leb_len(read_leb(&mut Reader::new(&good[1..])).unwrap());
        let mut w = Writer::new();
        w.u8(good[0]);
        write_leb(&mut w, principals.ids.len() as u32);
        let past_end = [&w.finish_vec()[..], &good[1 + sender_len..]].concat();
        [
            &good[..0],
            &good[..nro_len - 1],
            &good[..good.len() - 1],
            &[good, &[0]].concat(),
            &past_end,
        ]
        .map(|bytes| Self::from_raw(bytes))
    }
}

/// A party's transaction record, read through the principal table its
/// evidence indexes: what `Client::txn` and `Provider::txn` return. It
/// dereferences to the record.
pub struct Record<'a, T> {
    record: &'a T,
    evidence: &'a [u8],
    principals: &'a Principals,
}

impl<'a, T> Record<'a, T> {
    /// `record`, whose evidence is `evidence`, indexing `principals`.
    pub(crate) fn new<B: AsRef<[u8]>>(
        record: &'a T,
        evidence: &'a EvidencePair<B>,
        principals: &'a Principals,
    ) -> Self {
        Record { record, evidence: evidence.as_bytes(), principals }
    }

    /// The NRO: the one Alice sent (kept for Resolve and disputes), or the
    /// one Bob received and verified. Its plaintext says what the
    /// transaction is about: the flag (upload, download, or for an aborted
    /// transaction on Bob's side Alice's abort request), the object, the
    /// hash Alice sent and, as its sender, the client.
    pub fn nro(&self) -> Result<VerifiedEvidence, EvidenceError> {
        EvidencePair(self.evidence).nro(self.principals)
    }

    /// The NRR: for Alice, Bob's receipt or his answer to her abort, once
    /// received and verified; for Bob, the receipt he signed for a served
    /// transfer (kept to re-issue on Resolve). `None` until then, and on
    /// Bob's side for an aborted transaction, where he committed to
    /// nothing.
    pub fn nrr(&self) -> Result<Option<VerifiedEvidence>, EvidenceError> {
        Ok(self.evidence()?.1)
    }

    /// The NRO and the NRR together, decoding the NRO once.
    pub(crate) fn evidence(
        &self,
    ) -> Result<(VerifiedEvidence, Option<VerifiedEvidence>), EvidenceError> {
        EvidencePair(self.evidence).decode(self.principals)
    }
}

impl<T> std::ops::Deref for Record<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plaintext(sender: &Principal, recipient: &Principal, ttp: &Principal) -> EvidencePlaintext {
        EvidencePlaintext {
            flag: Flag::UploadRequest,
            sender: sender.id(),
            recipient: recipient.id(),
            ttp: ttp.id(),
            txn_id: 42,
            seq: 1,
            nonce: 0xdead_beef,
            time_limit: SimTime(1_000_000),
            object: b"backup/q3".to_vec(),
            hash_alg: HashAlg::Sha256,
            data_hash: HashAlg::Sha256.hash(b"the data"),
        }
    }

    fn actors() -> (Principal, Principal, Principal, ProtocolConfig, ChaChaRng) {
        (
            Principal::test("alice", 1),
            Principal::test("bob", 2),
            Principal::test("ttp", 3),
            ProtocolConfig::full(),
            ChaChaRng::seed_from_u64(77),
        )
    }

    #[test]
    fn seal_open_verify_roundtrip() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        let ev = open_and_verify(&cfg, &bob, alice.public(), &pt, &sealed).unwrap();
        assert_eq!(ev.plaintext, pt);
        ev.reverify(&cfg, alice.public()).unwrap();
    }

    #[test]
    fn seal_and_own_matches_the_two_separate_constructors() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let (sealed, own) = seal_and_own(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        // The archived copy carries exactly the signatures a second call
        // produces (signing is deterministic)…
        assert_eq!(own, seal_and_own(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap().1);
        own.reverify(&cfg, alice.public()).unwrap();
        // …and the sealed copy opens to the same signatures.
        let opened = open_and_verify(&cfg, &bob, alice.public(), &pt, &sealed).unwrap();
        assert_eq!(opened.sig_data_hash, own.sig_data_hash);
        assert_eq!(opened.sig_plaintext, own.sig_plaintext);
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let eve = Principal::test("eve", 9);
        let pt = plaintext(&alice, &bob, &ttp);
        let sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        assert_eq!(
            open_and_verify(&cfg, &eve, alice.public(), &pt, &sealed).unwrap_err(),
            EvidenceError::Unsealable
        );
    }

    #[test]
    fn plaintext_substitution_detected() {
        // Attacker swaps the plaintext the evidence claims to cover.
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        let mut forged = pt.clone();
        forged.data_hash = HashAlg::Sha256.hash(b"other data");
        assert_eq!(
            open_and_verify(&cfg, &bob, alice.public(), &forged, &sealed).unwrap_err(),
            EvidenceError::BadSignature
        );
        // Any single field change breaks the plaintext signature too.
        let mut forged = pt.clone();
        forged.seq += 1;
        assert_eq!(
            open_and_verify(&cfg, &bob, alice.public(), &forged, &sealed).unwrap_err(),
            EvidenceError::BadSignature
        );
    }

    #[test]
    fn wrong_claimed_sender_detected() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let mallory = Principal::test("mallory", 13);
        let pt = plaintext(&alice, &bob, &ttp);
        let sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        assert_eq!(
            open_and_verify(&cfg, &bob, mallory.public(), &pt, &sealed).unwrap_err(),
            EvidenceError::BadSignature
        );
    }

    #[test]
    fn corrupted_envelope_unsealable() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let mut sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        let n = sealed.sealed.len();
        sealed.sealed[n / 2] ^= 1;
        assert_eq!(
            open_and_verify(&cfg, &bob, alice.public(), &pt, &sealed).unwrap_err(),
            EvidenceError::Unsealable
        );
    }

    #[test]
    fn plaintext_wire_roundtrip_canonical() {
        let (alice, bob, ttp, _, _) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let enc = pt.to_wire();
        let dec = EvidencePlaintext::from_wire(&enc).unwrap();
        assert_eq!(dec, pt);
        assert_eq!(dec.to_wire(), enc, "canonical form");
    }

    #[test]
    fn verified_evidence_wire_roundtrip() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let sealed = seal(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap();
        let ev = open_and_verify(&cfg, &bob, alice.public(), &pt, &sealed).unwrap();
        let enc = ev.to_wire();
        assert_eq!(VerifiedEvidence::from_wire(&enc).unwrap(), ev);
    }

    #[test]
    fn ablated_signatures_are_forgeable() {
        // Without signatures, anyone can mint "evidence" for any plaintext —
        // the non-repudiation property is gone.
        let (alice, bob, ttp, _, mut rng) = actors();
        let cfg = crate::config::ProtocolConfig::ablated(crate::config::Ablation::NoSignatures);
        let pt = plaintext(&alice, &bob, &ttp);
        // Mallory (not Alice!) constructs evidence claiming Alice's plaintext.
        let mallory = Principal::test("mallory", 13);
        let sealed = seal(&cfg, &mallory, bob.public(), &pt, &mut rng).unwrap();
        // It verifies "as Alice" because there is no signature to check.
        assert!(open_and_verify(&cfg, &bob, alice.public(), &pt, &sealed).is_ok());
    }

    #[test]
    fn reverify_rejects_a_flipped_signature_or_the_wrong_signer() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let pt = plaintext(&alice, &bob, &ttp);
        let ev = seal_and_own(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap().1;
        ev.reverify(&cfg, alice.public()).unwrap();
        let mut bad = ev.clone();
        bad.sig_plaintext[3] ^= 1;
        assert_eq!(bad.reverify(&cfg, alice.public()).unwrap_err(), EvidenceError::BadSignature);
        let mut bad = ev.clone();
        bad.sig_data_hash[3] ^= 1;
        assert_eq!(bad.reverify(&cfg, alice.public()).unwrap_err(), EvidenceError::BadSignature);
        assert_eq!(ev.reverify(&cfg, bob.public()).unwrap_err(), EvidenceError::BadSignature);

        // Ablated "signatures" are bare hashes: any key accepts them, and
        // only a changed hash fails.
        let cfg = crate::config::ProtocolConfig::ablated(crate::config::Ablation::NoSignatures);
        let ev = seal_and_own(&cfg, &alice, bob.public(), &pt, &mut rng).unwrap().1;
        ev.reverify(&cfg, bob.public()).unwrap();
        let mut bad = ev.clone();
        bad.sig_data_hash[0] ^= 1;
        assert_eq!(bad.reverify(&cfg, alice.public()).unwrap_err(), EvidenceError::BadSignature);
    }

    fn lens(ev: &VerifiedEvidence) -> EvidenceLens {
        EvidenceLens {
            object: ev.plaintext.object.len(),
            data_hash: ev.plaintext.data_hash.len(),
            sigs: ev.sig_data_hash.len() + ev.sig_plaintext.len(),
        }
    }

    #[test]
    fn a_pair_decodes_its_nro_and_nrr_and_weighs_them_without_decoding() {
        let (alice, bob, ttp, cfg, mut rng) = actors();
        let nro_pt = plaintext(&alice, &bob, &ttp);
        let nro = seal_and_own(&cfg, &alice, bob.public(), &nro_pt, &mut rng).unwrap().1;
        // A receipt: the parties swap, the flag, sequence and nonce change.
        let mut nrr_pt = nro_pt.clone();
        (nrr_pt.sender, nrr_pt.recipient) = (bob.id(), alice.id());
        (nrr_pt.flag, nrr_pt.seq, nrr_pt.nonce) = (Flag::UploadReceipt, 2, 7);
        let nrr = seal_and_own(&cfg, &bob, alice.public(), &nrr_pt, &mut rng).unwrap().1;

        // Each principal takes a one-byte index instead of its 32 bytes,
        // and each of the four lengths one byte instead of four.
        let mut principals = Principals::default();
        let alone: EvidencePair = EvidencePair::new(&mut principals, &nro, None);
        assert_eq!(principals.len(), 3);
        assert_eq!(alone.as_bytes().len(), nro.encoded_len() - 3 * 31 - 4 * 3);
        assert_eq!(alone.decode(&principals).unwrap(), (nro.clone(), None));
        assert_eq!(alone.lens().unwrap(), (lens(&nro), None));

        let pair: EvidencePair = EvidencePair::new(&mut principals, &nro, Some(&nrr));
        assert_eq!(principals.len(), 3, "the receipt names the same three principals");
        let mask = field_mask(&nro.plaintext, &nrr.plaintext);
        assert_eq!(mask, SWAPPED | FLAG | SEQ | NONCE);
        let nrr_len = derived_len(&principals, mask, &nrr);
        assert_eq!(nrr_len, derived_len(&WireForm, mask, &nrr) - 2 * 3, "two lengths, no id");
        assert_eq!(pair.as_bytes().len(), alone.as_bytes().len() + nrr_len);
        assert!(pair.as_bytes().len() < nro.encoded_len() + nrr.encoded_len() / 2);
        assert_eq!(pair.nro(&principals).unwrap(), nro);
        assert_eq!(pair.decode(&principals).unwrap(), (nro.clone(), Some(nrr.clone())));
        assert_eq!(pair.lens().unwrap(), (lens(&nro), Some(lens(&nrr))));

        // A field the NRR writes out changes its length.
        nrr_pt.object = b"another/object".to_vec();
        let far = seal_and_own(&cfg, &bob, alice.public(), &nrr_pt, &mut rng).unwrap().1;
        let pair: EvidencePair = EvidencePair::new(&mut principals, &nro, Some(&far));
        assert_eq!(pair.decode(&principals).unwrap(), (nro.clone(), Some(far.clone())));
        assert_eq!(pair.lens().unwrap(), (lens(&nro), Some(lens(&far))));

        for (i, bad) in pair.undecodable(&principals).iter().enumerate() {
            assert_eq!(bad.decode(&principals), Err(EvidenceError::Malformed), "buffer {i}");
            assert_eq!(bad.nro(&principals).is_ok(), i == 2 || i == 3, "buffer {i}");
            // Lengths are read without resolving a principal, so only the
            // buffer whose index is past the table's end still weighs.
            assert_eq!(bad.lens().is_ok(), i == 4, "buffer {i}");
        }
    }

    /// A plaintext over principals drawn from `pool` and fields drawn
    /// from `rng`.
    fn random_plaintext(rng: &mut ChaChaRng, pool: &[PrincipalId]) -> EvidencePlaintext {
        let pick = |rng: &mut ChaChaRng| pool[rng.gen_below(pool.len() as u64) as usize];
        let flags =
            [Flag::UploadRequest, Flag::UploadReceipt, Flag::AbortRequest, Flag::ResolveForward];
        let bytes = |rng: &mut ChaChaRng, max: u64| {
            (0..rng.gen_below(max + 1)).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()
        };
        EvidencePlaintext {
            flag: flags[rng.gen_below(4) as usize],
            sender: pick(rng),
            recipient: pick(rng),
            ttp: pick(rng),
            txn_id: rng.next_u64(),
            seq: rng.gen_below(4),
            nonce: rng.next_u64(),
            time_limit: SimTime(rng.next_u64()),
            object: bytes(rng, 12),
            hash_alg: if rng.gen_below(2) == 0 { HashAlg::Sha256 } else { HashAlg::Md5 },
            data_hash: bytes(rng, 40),
        }
    }

    /// `base` with a random set of its fields replaced from `other`, and
    /// sender and recipient swapped half the time.
    fn random_reply(
        rng: &mut ChaChaRng,
        base: &EvidencePlaintext,
        other: EvidencePlaintext,
    ) -> EvidencePlaintext {
        let mut pt = base.clone();
        if rng.gen_below(2) == 0 {
            (pt.sender, pt.recipient) = (base.recipient, base.sender);
        }
        let take = |rng: &mut ChaChaRng| rng.gen_below(3) == 0;
        if take(rng) {
            pt.flag = other.flag;
        }
        if take(rng) {
            pt.sender = other.sender;
        }
        if take(rng) {
            pt.recipient = other.recipient;
        }
        if take(rng) {
            pt.ttp = other.ttp;
        }
        if take(rng) {
            pt.seq = other.seq;
        }
        if take(rng) {
            pt.nonce = other.nonce;
        }
        if take(rng) {
            pt.time_limit = other.time_limit;
        }
        if take(rng) {
            pt.object = other.object;
        }
        if take(rng) {
            pt.hash_alg = other.hash_alg;
        }
        if take(rng) {
            pt.data_hash = other.data_hash;
        }
        pt
    }

    #[test]
    fn random_records_decode_to_the_evidence_they_were_built_from() {
        // 300 principals, most of them no party ever registered (as an
        // attack's injections, or a plaintext an ablated identity or TTP
        // binding let through, name them), so indices past 127 take two
        // bytes.
        let mut rng = ChaChaRng::seed_from_u64(0x1D5);
        let pool: Vec<PrincipalId> =
            (0..300).map(|_| PrincipalId(std::array::from_fn(|_| rng.next_u64() as u8))).collect();
        let evidence = |rng: &mut ChaChaRng, plaintext: EvidencePlaintext| {
            let sigs = [64, 0, 7][rng.gen_below(3) as usize];
            let sig = |rng: &mut ChaChaRng| (0..sigs).map(|_| rng.next_u64() as u8).collect();
            VerifiedEvidence { plaintext, sig_data_hash: sig(rng), sig_plaintext: sig(rng) }
        };
        let mut principals = Principals::default();
        let (mut swapped, mut unswapped) = (0, 0);
        for i in 0..2_000 {
            let nro = random_plaintext(&mut rng, &pool);
            let nro = evidence(&mut rng, nro);
            let other = random_plaintext(&mut rng, &pool);
            let nrr = (i % 4 != 0).then(|| {
                let reply = random_reply(&mut rng, &nro.plaintext, other);
                evidence(&mut rng, reply)
            });
            if let Some(nrr) = &nrr {
                match field_mask(&nro.plaintext, &nrr.plaintext) & SWAPPED {
                    0 => unswapped += 1,
                    _ => swapped += 1,
                }
            }
            let pair: EvidencePair = EvidencePair::new(&mut principals, &nro, nrr.as_ref());
            assert_eq!(pair.decode(&principals), Ok((nro.clone(), nrr.clone())), "record {i}");
            assert_eq!(pair.nro(&principals), Ok(nro.clone()), "record {i}");
            assert_eq!(pair.lens(), Ok((lens(&nro), nrr.as_ref().map(lens))), "record {i}");
            // A copy of the table, as a snapshot carries it, decodes alike.
            assert_eq!(pair.decode(&principals.clone()), pair.decode(&principals), "record {i}");
        }
        assert!(principals.len() > 128 && principals.len() <= pool.len());
        assert!(swapped > 100 && unswapped > 100, "{swapped} swapped, {unswapped} not");
    }

    #[test]
    fn all_flags_roundtrip() {
        for f in [
            Flag::UploadRequest,
            Flag::UploadReceipt,
            Flag::DownloadRequest,
            Flag::DownloadResponse,
            Flag::AbortRequest,
            Flag::AbortResponse,
            Flag::ResolveRequest,
            Flag::ResolveForward,
            Flag::ResolveResponse,
        ] {
            assert_eq!(Flag::from_wire_id(f.wire_id()).unwrap(), f);
        }
        assert!(Flag::from_wire_id(0).is_err());
        assert!(Flag::from_wire_id(99).is_err());
    }
}
