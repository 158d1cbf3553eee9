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
        w.u8(self.flag.wire_id());
        w.fixed(&self.sender.0);
        w.fixed(&self.recipient.0);
        w.fixed(&self.ttp.0);
        w.u64(self.txn_id);
        w.u64(self.seq);
        w.u64(self.nonce);
        w.u64(self.time_limit.0);
        w.bytes(&self.object);
        w.u8(self.hash_alg.wire_id());
        w.bytes(&self.data_hash);
    }

    fn encoded_len(&self) -> usize {
        1 + 3 * 32 + 4 * 8 + 4 + self.object.len() + 1 + 4 + self.data_hash.len()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(EvidencePlaintext {
            flag: Flag::from_wire_id(r.u8()?)?,
            sender: PrincipalId(r.array::<32>()?),
            recipient: PrincipalId(r.array::<32>()?),
            ttp: PrincipalId(r.array::<32>()?),
            txn_id: r.u64()?,
            seq: r.u64()?,
            nonce: r.u64()?,
            time_limit: SimTime(r.u64()?),
            object: r.bytes()?,
            hash_alg: HashAlg::from_wire_id(r.u8()?)
                .ok_or(CodecError::BadDiscriminant("hash alg", 0))?,
            data_hash: r.bytes()?,
        })
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
        self.plaintext.encode(w);
        w.bytes(&self.sig_data_hash);
        w.bytes(&self.sig_plaintext);
    }
    fn encoded_len(&self) -> usize {
        self.plaintext.encoded_len() + 4 + self.sig_data_hash.len() + 4 + self.sig_plaintext.len()
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(VerifiedEvidence {
            plaintext: EvidencePlaintext::decode(r)?,
            sig_data_hash: r.bytes()?,
            sig_plaintext: r.bytes()?,
        })
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

/// The fixed-size plaintext fields a mask may name, with their widths.
const FIXED_FIELDS: [(u16, usize); 8] = [
    (FLAG, 1),
    (SENDER, 32),
    (RECIPIENT, 32),
    (TTP, 32),
    (TXN_ID, 8),
    (SEQ, 8),
    (NONCE, 8),
    (TIME_LIMIT, 8),
];

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

/// Writes `ev` as a derived entry over a base plaintext: `mask`, the
/// fields it names in wire order, and both signatures.
pub(crate) fn write_derived(w: &mut Writer, mask: u16, ev: &VerifiedEvidence) {
    let pt = &ev.plaintext;
    let has = |bit: u16| mask & bit != 0;
    w.u16(mask);
    if has(FLAG) {
        w.u8(pt.flag.wire_id());
    }
    if has(SENDER) {
        w.fixed(&pt.sender.0);
    }
    if has(RECIPIENT) {
        w.fixed(&pt.recipient.0);
    }
    if has(TTP) {
        w.fixed(&pt.ttp.0);
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
        w.bytes(&pt.object);
    }
    if has(HASH_ALG) {
        w.u8(pt.hash_alg.wire_id());
    }
    if has(DATA_HASH) {
        w.bytes(&pt.data_hash);
    }
    w.bytes(&ev.sig_data_hash).bytes(&ev.sig_plaintext);
}

/// The length [`write_derived`] writes `ev` in with `mask`.
fn derived_len(mask: u16, ev: &VerifiedEvidence) -> usize {
    let has = |bit: u16| mask & bit != 0;
    let fixed: usize = FIXED_FIELDS.iter().filter(|&&(bit, _)| has(bit)).map(|&(_, n)| n).sum();
    let pt = &ev.plaintext;
    2 + fixed
        + if has(OBJECT) { 4 + pt.object.len() } else { 0 }
        + usize::from(has(HASH_ALG))
        + if has(DATA_HASH) { 4 + pt.data_hash.len() } else { 0 }
        + 4
        + ev.sig_data_hash.len()
        + 4
        + ev.sig_plaintext.len()
}

/// Reads a derived entry over `base`: its mask and the evidence it
/// rebuilds. Whether a bundle would have chosen that mask is the caller's
/// check.
pub(crate) fn read_derived(
    r: &mut Reader<'_>,
    base: &EvidencePlaintext,
) -> Result<(u16, VerifiedEvidence), CodecError> {
    let mask = r.u16()?;
    let has = |bit: u16| mask & bit != 0;
    let (sender, recipient) =
        if has(SWAPPED) { (base.recipient, base.sender) } else { (base.sender, base.recipient) };
    // Struct fields evaluate in the order written, which is wire order.
    let plaintext = EvidencePlaintext {
        flag: if has(FLAG) { Flag::from_wire_id(r.u8()?)? } else { base.flag },
        sender: if has(SENDER) { PrincipalId(r.array::<32>()?) } else { sender },
        recipient: if has(RECIPIENT) { PrincipalId(r.array::<32>()?) } else { recipient },
        ttp: if has(TTP) { PrincipalId(r.array::<32>()?) } else { base.ttp },
        txn_id: if has(TXN_ID) { r.u64()? } else { base.txn_id },
        seq: if has(SEQ) { r.u64()? } else { base.seq },
        nonce: if has(NONCE) { r.u64()? } else { base.nonce },
        time_limit: if has(TIME_LIMIT) { SimTime(r.u64()?) } else { base.time_limit },
        object: if has(OBJECT) { r.bytes()? } else { base.object.clone() },
        hash_alg: if has(HASH_ALG) {
            HashAlg::from_wire_id(r.u8()?).ok_or(CodecError::BadDiscriminant("hash alg", 0))?
        } else {
            base.hash_alg
        },
        data_hash: if has(DATA_HASH) { r.bytes()? } else { base.data_hash.clone() },
    };
    let evidence =
        VerifiedEvidence { plaintext, sig_data_hash: r.bytes()?, sig_plaintext: r.bytes()? };
    Ok((mask, evidence))
}

/// One party's evidence for one transaction, in one buffer: its NRO's wire
/// form, then, once there is one, its NRR as a derived entry over the
/// NRO's plaintext ([`write_derived`]: the mask, the fields that differ,
/// both signatures). A reply repeats most of its request's plaintext, so
/// the pair takes little more room than the NRO alone, in one heap block
/// where two evidence values took eight. Evidence is decoded on demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EvidencePair(Box<[u8]>);

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

impl EvidencePair {
    /// The buffer for `nro` and, when given, `nrr`, sized exactly.
    pub(crate) fn new(nro: &VerifiedEvidence, nrr: Option<&VerifiedEvidence>) -> Self {
        let nrr = nrr.map(|nrr| (field_mask(&nro.plaintext, &nrr.plaintext), nrr));
        let len = nro.encoded_len() + nrr.map_or(0, |(mask, nrr)| derived_len(mask, nrr));
        let mut w = Writer::with_capacity(len);
        nro.encode(&mut w);
        if let Some((mask, nrr)) = nrr {
            write_derived(&mut w, mask, nrr);
        }
        let buf = w.finish_vec();
        debug_assert_eq!(buf.len(), len, "the pair is sized exactly, so boxing it copies nothing");
        EvidencePair(buf.into_boxed_slice())
    }

    /// The NRO.
    pub(crate) fn nro(&self) -> Result<VerifiedEvidence, EvidenceError> {
        VerifiedEvidence::decode(&mut Reader::new(&self.0)).map_err(|_| EvidenceError::Malformed)
    }

    /// The NRO and, if the buffer holds one, the NRR.
    pub(crate) fn decode(
        &self,
    ) -> Result<(VerifiedEvidence, Option<VerifiedEvidence>), EvidenceError> {
        let decode = || {
            let mut r = Reader::new(&self.0);
            let nro = VerifiedEvidence::decode(&mut r)?;
            if r.remaining() == 0 {
                return Ok((nro, None));
            }
            let (_, nrr) = read_derived(&mut r, &nro.plaintext)?;
            r.expect_end()?;
            Ok((nro, Some(nrr)))
        };
        decode().map_err(|_: CodecError| EvidenceError::Malformed)
    }

    /// The lengths of the NRO's and the NRR's variable fields, read off
    /// the buffer without decoding it.
    pub(crate) fn lens(&self) -> Result<(EvidenceLens, Option<EvidenceLens>), CodecError> {
        let mut r = Reader::new(&self.0);
        r.skip(1 + 3 * 32 + 4 * 8)?;
        let object = r.skip_bytes()?;
        r.skip(1)?;
        let data_hash = r.skip_bytes()?;
        let nro = EvidenceLens { object, data_hash, sigs: r.skip_bytes()? + r.skip_bytes()? };
        if r.remaining() == 0 {
            return Ok((nro, None));
        }
        let mask = r.u16()?;
        let has = |bit: u16| mask & bit != 0;
        r.skip(FIXED_FIELDS.iter().filter(|&&(bit, _)| has(bit)).map(|&(_, n)| n).sum())?;
        let object = if has(OBJECT) { r.skip_bytes()? } else { nro.object };
        r.skip(usize::from(has(HASH_ALG)))?;
        let data_hash = if has(DATA_HASH) { r.skip_bytes()? } else { nro.data_hash };
        let nrr = EvidenceLens { object, data_hash, sigs: r.skip_bytes()? + r.skip_bytes()? };
        r.expect_end()?;
        Ok((nro, Some(nrr)))
    }

    /// A pair over arbitrary bytes, for tests of what a record does when
    /// its buffer does not decode.
    #[cfg(test)]
    pub(crate) fn from_raw(bytes: &[u8]) -> Self {
        EvidencePair(bytes.into())
    }

    /// The buffer.
    #[cfg(test)]
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Buffers cut inside the NRO and inside the NRR, and one with a byte
    /// after the NRR: none decodes in full, and only the last two hold the
    /// whole NRO.
    #[cfg(test)]
    pub(crate) fn undecodable(&self) -> [Self; 4] {
        let (good, nro_len) = (&self.0[..], self.nro().unwrap().encoded_len());
        assert!(good.len() > nro_len, "the pair holds an NRR");
        [&good[..0], &good[..nro_len - 1], &good[..good.len() - 1], &[good, &[0]].concat()]
            .map(Self::from_raw)
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
        let lens = |ev: &VerifiedEvidence| EvidenceLens {
            object: ev.plaintext.object.len(),
            data_hash: ev.plaintext.data_hash.len(),
            sigs: ev.sig_data_hash.len() + ev.sig_plaintext.len(),
        };

        let alone = EvidencePair::new(&nro, None);
        assert_eq!(alone.as_bytes(), nro.to_wire());
        assert_eq!(alone.decode().unwrap(), (nro.clone(), None));
        assert_eq!(alone.lens().unwrap(), (lens(&nro), None));

        let pair = EvidencePair::new(&nro, Some(&nrr));
        let mask = field_mask(&nro.plaintext, &nrr.plaintext);
        assert_eq!(mask, SWAPPED | FLAG | SEQ | NONCE);
        assert_eq!(pair.as_bytes().len(), nro.encoded_len() + derived_len(mask, &nrr));
        assert!(pair.as_bytes().len() < nro.encoded_len() + nrr.encoded_len() / 2);
        assert_eq!(pair.nro().unwrap(), nro);
        assert_eq!(pair.decode().unwrap(), (nro.clone(), Some(nrr.clone())));
        assert_eq!(pair.lens().unwrap(), (lens(&nro), Some(lens(&nrr))));

        // A field the NRR writes out changes its length.
        nrr_pt.object = b"another/object".to_vec();
        let far = seal_and_own(&cfg, &bob, alice.public(), &nrr_pt, &mut rng).unwrap().1;
        let pair = EvidencePair::new(&nro, Some(&far));
        assert_eq!(pair.decode().unwrap(), (nro.clone(), Some(far.clone())));
        assert_eq!(pair.lens().unwrap(), (lens(&nro), Some(lens(&far))));

        for (i, bad) in pair.undecodable().iter().enumerate() {
            assert_eq!(bad.decode(), Err(EvidenceError::Malformed), "buffer {i}");
            assert!(bad.lens().is_err(), "buffer {i}");
            assert_eq!(bad.nro().is_ok(), i >= 2, "buffer {i}");
        }
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
