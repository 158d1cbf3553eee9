//! Output checks every workload runs on the program's results. Each check
//! is a plain function of the result so a test can feed it a bad one.

use tpnr_core::archive::EvidenceBundle;
use tpnr_core::client::Client;
use tpnr_core::config::ProtocolConfig;
use tpnr_core::runner::TxnResult;
use tpnr_crypto::RsaPublicKey;
use tpnr_net::sim::NetStats;

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// One attempted operation and the outcome of its checks.
    pub fn op(&mut self, checks: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = checks {
            self.fail(e);
        }
    }

    /// A failed check that is not tied to one operation (a whole world's
    /// conservation law, say).
    pub fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(e);
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        for e in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(e);
            }
        }
        self.failed += other.failed;
    }
}

/// Every accepted copy ends delivered or dropped, once the wire is quiet.
pub fn conservation(s: &NetStats) -> Result<(), String> {
    if s.delivered + s.dropped == s.sent + s.duplicated {
        Ok(())
    } else {
        Err(format!(
            "conservation: delivered {} + dropped {} != sent {} + duplicated {}",
            s.delivered, s.dropped, s.sent, s.duplicated
        ))
    }
}

/// A completed upload holds both halves of the §4.1 evidence pair.
pub fn evidence_pair(r: &TxnResult) -> Result<(), String> {
    if !r.completed() {
        return Err(format!("txn {} ended {:?}", r.txn_id, r.outcome));
    }
    if r.nro.is_none() || r.nrr.is_none() {
        return Err(format!("txn {} completed without its NRO and NRR", r.txn_id));
    }
    Ok(())
}

/// A download returned exactly the bytes uploaded, and the client's own
/// integrity link (the signed hashes of both receipts) agrees.
pub fn download_matches(
    client: &Client,
    up_txn: u64,
    down: &TxnResult,
    expected: &[u8],
) -> Result<(), String> {
    if !down.completed() {
        return Err(format!("download txn {} ended {:?}", down.txn_id, down.outcome));
    }
    if down.data.as_ref().map(|d| &d[..]) != Some(expected) {
        return Err(format!("download txn {} returned other bytes", down.txn_id));
    }
    match client.verify_download_against_upload(up_txn, down.txn_id) {
        Some(true) => Ok(()),
        other => Err(format!(
            "download txn {} fails the integrity link to upload {up_txn}: {other:?}",
            down.txn_id
        )),
    }
}

/// An arbitrator's audit of an archived transaction: the bundle came back
/// and both the client's NRO and the provider's NRR re-verify.
pub fn audit(
    bundle: Option<&EvidenceBundle>,
    cfg: &ProtocolConfig,
    client_pk: &RsaPublicKey,
    provider_pk: &RsaPublicKey,
) -> Result<(), String> {
    let b = bundle.ok_or("archived evidence did not rehydrate")?;
    let nro = b.get("client-nro").ok_or("rehydrated bundle lacks the NRO")?;
    let nrr = b.get("client-nrr").ok_or("rehydrated bundle lacks the NRR")?;
    nro.reverify(cfg, client_pk)
        .map_err(|e| format!("NRO of txn {}: {e}", nro.plaintext.txn_id))?;
    nrr.reverify(cfg, provider_pk).map_err(|e| format!("NRR of txn {}: {e}", nrr.plaintext.txn_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpnr_core::client::TimeoutStrategy;
    use tpnr_core::runner::World;

    fn upload(w: &mut World, key: &[u8], data: &[u8]) -> TxnResult {
        w.upload(key, data.to_vec(), TimeoutStrategy::AbortFirst)
    }

    #[test]
    fn conservation_fires_on_a_lost_copy() {
        let ok =
            NetStats { sent: 4, delivered: 3, dropped: 2, duplicated: 1, ..Default::default() };
        assert!(conservation(&ok).is_ok());
        let lost = NetStats { sent: 4, delivered: 3, ..Default::default() };
        assert!(conservation(&lost).is_err());
    }

    #[test]
    fn evidence_check_fires_on_a_missing_receipt_or_unfinished_txn() {
        let mut w = World::new(3, ProtocolConfig::full());
        let good = upload(&mut w, b"k", b"data");
        assert!(evidence_pair(&good).is_ok());
        let mut no_nrr = good.clone();
        no_nrr.nrr = None;
        assert!(evidence_pair(&no_nrr).is_err());
        let mut aborted = good;
        aborted.outcome = tpnr_core::session::TxnState::Aborted;
        assert!(evidence_pair(&aborted).is_err());
    }

    #[test]
    fn download_check_fires_on_tampered_storage() {
        let mut w = World::new(4, ProtocolConfig::full());
        let up = upload(&mut w, b"k", b"true bytes");
        let down = w.download(b"k", TimeoutStrategy::AbortFirst);
        assert!(download_matches(&w.client, up.txn_id, &down, b"true bytes").is_ok());
        assert!(download_matches(&w.client, up.txn_id, &down, b"other").is_err());
        w.provider.tamper_storage(b"k", b"fake bytes".to_vec());
        let bad = w.download(b"k", TimeoutStrategy::AbortFirst);
        // Even told to expect the tampered bytes, the integrity link fails.
        assert!(download_matches(&w.client, up.txn_id, &bad, b"fake bytes").is_err());
    }

    #[test]
    fn audit_fires_on_missing_or_forged_evidence() {
        let cfg = ProtocolConfig::full();
        let mut w = World::new(5, cfg.clone());
        let r = upload(&mut w, b"k", b"data");
        let (nro, nrr) = (r.nro.clone().unwrap(), r.nrr.clone().unwrap());
        let alice = w.dir.lookup(&w.client.id()).unwrap().clone();
        let bob = w.dir.lookup(&w.provider.id()).unwrap().clone();
        let mut b = EvidenceBundle::new();
        b.push("client-nro", nro.clone());
        b.push("client-nrr", nrr.clone());
        assert!(audit(Some(&b), &cfg, &alice, &bob).is_ok());
        assert!(audit(None, &cfg, &alice, &bob).is_err());
        assert!(audit(Some(&b), &cfg, &bob, &bob).is_err(), "NRO checked against the wrong key");
        let mut half = EvidenceBundle::new();
        half.push("client-nro", nro.clone());
        assert!(audit(Some(&half), &cfg, &alice, &bob).is_err());
        let mut forged_nrr = nrr;
        forged_nrr.sig_plaintext[0] ^= 1;
        let mut forged = EvidenceBundle::new();
        forged.push("client-nro", nro);
        forged.push("client-nrr", forged_nrr);
        assert!(audit(Some(&forged), &cfg, &alice, &bob).is_err());
    }

    #[test]
    fn tally_counts_ops_and_keeps_the_first_messages() {
        let mut t = Tally::default();
        t.op(Ok(()));
        t.op(Err("a".into()));
        let mut u = Tally::default();
        u.fail("b".into());
        t.absorb(u);
        assert_eq!((t.attempted, t.failed), (2, 2));
        assert_eq!(t.failures, vec!["a".to_string(), "b".to_string()]);
    }
}
