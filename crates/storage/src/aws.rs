//! AWS-style S3 + Import/Export — paper §2.1 / Figure 2.
//!
//! Models the large-transfer path the paper describes: the user writes a
//! *manifest file* (AccessKeyID, DeviceID, Destination, …), signs it, emails
//! the signed manifest to Amazon, and ships the storage device with an
//! attached *signature file*. Amazon validates both, loads the bytes into
//! S3, and **emails back** the byte count, the MD5 of the bytes and the
//! location of the Import/Export log. On download, the paper notes the AWS
//! side sends a **recomputed** MD5 ("a recomputed MD5_2 is sent on Amazon's
//! AWS") — which is exactly why a malicious provider can recompute over
//! tampered data and still look consistent.
//!
//! Shipping happens on the simulated clock with multi-day latency
//! (substitution for FedEx; see DESIGN.md).

use crate::object::{ObjectStore, StoredObject, Tamper, TamperReport};
use tpnr_crypto::encoding::hex_encode;
use tpnr_crypto::hash::{Digest as _, HashAlg};
use tpnr_crypto::md5::Md5;
use tpnr_crypto::{CryptoError, RsaKeyPair, RsaPublicKey};
use tpnr_net::time::{SimDuration, SimTime};

/// The import metadata file of Figure 2 ("manifest file").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// AWS access key id of the requesting user.
    pub access_key_id: String,
    /// Identifier of the shipped storage device.
    pub device_id: String,
    /// Destination bucket/prefix.
    pub destination: String,
    /// Job identifier assigned by the user tooling.
    pub job_id: u64,
}

impl Manifest {
    /// Canonical bytes that get signed.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        format!(
            "manifestVersion:2.0\naccessKeyId:{}\ndeviceId:{}\ndestination:{}\noperation:IMPORT\njobId:{}\n",
            self.access_key_id, self.device_id, self.destination, self.job_id
        )
        .into_bytes()
    }
}

/// The *signature file* attached to the shipped device: identifies the
/// cipher/signature over the job id and manifest bytes so the provider can
/// "uniquely identify and authenticate the user request".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureFile {
    /// Signature algorithm label (fixed in this model).
    pub algorithm: String,
    /// RSA PKCS#1 v1.5 signature over the manifest's canonical bytes.
    pub manifest_signature: Vec<u8>,
}

/// A physical device in transit or at rest, carrying raw bytes.
#[derive(Debug, Clone)]
pub struct StorageDevice {
    /// Device identifier (must match the manifest).
    pub device_id: String,
    /// Raw content.
    pub data: Vec<u8>,
    /// Signature file taped to the device.
    pub signature_file: Option<SignatureFile>,
}

/// The status email Amazon sends after processing (Figure 2: "Amazon will
/// email management information back to the user").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusEmail {
    /// Job this email refers to.
    pub job_id: u64,
    /// Bytes loaded.
    pub bytes: u64,
    /// Hex MD5 of the bytes, as computed by the provider *at email time*.
    pub md5_hex: String,
    /// Load status.
    pub status: JobStatus,
    /// S3 key of the Import/Export log object.
    pub log_location: String,
}

/// Outcome of an import job. A job that fails validation gets no email:
/// the import returns an [`AwsError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Everything validated and completed.
    Completed,
}

/// Errors from the AWS service model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AwsError {
    /// Signature file missing or signature invalid.
    BadSignature,
    /// Manifest and device disagree (device id mismatch).
    DeviceMismatch,
    /// Unknown user / no public key on file.
    UnknownUser,
    /// Underlying crypto failure.
    Crypto(CryptoError),
}

impl std::fmt::Display for AwsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AwsError::BadSignature => write!(f, "manifest signature invalid"),
            AwsError::DeviceMismatch => write!(f, "device id does not match manifest"),
            AwsError::UnknownUser => write!(f, "unknown access key id"),
            AwsError::Crypto(e) => write!(f, "crypto failure: {e}"),
        }
    }
}

impl std::error::Error for AwsError {}

/// The provider: S3 buckets plus the Import/Export dock.
pub struct AwsService {
    s3: ObjectStore,
    /// Registered users: access key id → signature-verification key.
    users: std::collections::HashMap<String, RsaPublicKey>,
    /// Import/Export logs (stored as S3 objects under `logs/`).
    next_log: u64,
}

impl Default for AwsService {
    fn default() -> Self {
        Self::new()
    }
}

/// Client-side helper: prepares a signed import job.
pub fn prepare_import(
    user_keys: &RsaKeyPair,
    access_key_id: &str,
    device_id: &str,
    destination: &str,
    job_id: u64,
    data: Vec<u8>,
) -> Result<(Manifest, StorageDevice), AwsError> {
    let manifest = Manifest {
        access_key_id: access_key_id.to_string(),
        device_id: device_id.to_string(),
        destination: destination.to_string(),
        job_id,
    };
    let sig = user_keys
        .private
        .sign(HashAlg::Sha256, &manifest.canonical_bytes())
        .map_err(AwsError::Crypto)?;
    let device = StorageDevice {
        device_id: device_id.to_string(),
        data,
        signature_file: Some(SignatureFile {
            algorithm: "RSA-PKCS1v15-SHA256".to_string(),
            manifest_signature: sig,
        }),
    };
    Ok((manifest, device))
}

impl AwsService {
    /// Empty provider.
    pub fn new() -> Self {
        AwsService { s3: ObjectStore::new(), users: std::collections::HashMap::new(), next_log: 0 }
    }

    /// Registers a user's verification key (the AWS account signup step).
    pub fn register_user(&mut self, access_key_id: &str, pk: RsaPublicKey) {
        self.users.insert(access_key_id.to_string(), pk);
    }

    fn validate(&self, manifest: &Manifest, device: &StorageDevice) -> Result<(), AwsError> {
        let pk = self.users.get(&manifest.access_key_id).ok_or(AwsError::UnknownUser)?;
        let sig_file = device.signature_file.as_ref().ok_or(AwsError::BadSignature)?;
        if device.device_id != manifest.device_id {
            return Err(AwsError::DeviceMismatch);
        }
        pk.verify(HashAlg::Sha256, &manifest.canonical_bytes(), &sig_file.manifest_signature)
            .map_err(|_| AwsError::BadSignature)
    }

    /// Processes an arrived import job: validates manifest + signature file,
    /// copies device bytes into S3, writes the log, and returns the status
    /// email.
    pub fn process_import(
        &mut self,
        manifest: &Manifest,
        device: &StorageDevice,
        now: SimTime,
    ) -> Result<StatusEmail, AwsError> {
        self.validate(manifest, device)?;
        let md5 = Md5::digest(&device.data);
        self.s3.put(
            &manifest.destination,
            StoredObject {
                data: device.data.clone().into(),
                stored_checksum: Some(md5.clone()),
                checksum_alg: HashAlg::Md5,
                uploaded_at: now,
                owner: manifest.access_key_id.clone(),
            },
        );
        let log_location = format!("logs/import-{}", self.next_log);
        self.next_log += 1;
        let log_line = format!(
            "key:{} bytes:{} md5:{}\n",
            manifest.destination,
            device.data.len(),
            hex_encode(&md5)
        );
        self.s3.put(
            &log_location,
            StoredObject {
                data: log_line.into_bytes().into(),
                stored_checksum: None,
                checksum_alg: HashAlg::Md5,
                uploaded_at: now,
                owner: "aws".to_string(),
            },
        );
        Ok(StatusEmail {
            job_id: manifest.job_id,
            bytes: device.data.len() as u64,
            md5_hex: hex_encode(&md5),
            status: JobStatus::Completed,
            log_location,
        })
    }

    /// Small-object S3 PUT over the Internet path (≤ 50 GB per the paper's
    /// size discussion; unenforced here).
    pub fn s3_put(&mut self, key: &str, data: &[u8], owner: &str, now: SimTime) -> Vec<u8> {
        let md5 = Md5::digest(data);
        self.s3.put(
            key,
            StoredObject {
                data: data.to_vec().into(),
                stored_checksum: Some(md5.clone()),
                checksum_alg: HashAlg::Md5,
                uploaded_at: now,
                owner: owner.to_string(),
            },
        );
        md5
    }

    /// S3 GET; returns data plus a **recomputed** MD5.
    pub fn s3_get(&self, key: &str) -> Option<(Vec<u8>, Vec<u8>)> {
        let obj = self.s3.get(key)?;
        let md5 = Md5::digest(&obj.data);
        Some((obj.data.to_vec(), md5))
    }

    /// Provider-side tampering (Eve's capability).
    pub fn tamper(&mut self, key: &str, t: &Tamper) -> Option<TamperReport> {
        self.s3.tamper(key, t)
    }

    /// Direct read access for assertions.
    pub fn peek(&self, key: &str) -> Option<&StoredObject> {
        self.s3.get(key)
    }
}

/// Simulated surface shipping (the FedEx leg of Figure 2).
#[derive(Debug, Clone)]
pub struct Shipment {
    /// The device being transported.
    pub device: StorageDevice,
    /// When it was handed to the carrier.
    pub shipped_at: SimTime,
    /// Transit time.
    pub transit: SimDuration,
}

impl Shipment {
    /// Hands a device to the carrier.
    pub fn dispatch(device: StorageDevice, now: SimTime, transit: SimDuration) -> Self {
        Shipment { device, shipped_at: now, transit }
    }

    /// Arrival time at the destination dock.
    pub fn arrives_at(&self) -> SimTime {
        self.shipped_at.after(self.transit)
    }

    /// Whether the shipment has arrived by `now`.
    pub fn arrived(&self, now: SimTime) -> bool {
        now >= self.arrives_at()
    }

    /// Typical 2010 ground shipping: 3 days.
    pub fn typical_transit() -> SimDuration {
        SimDuration::from_hours(72)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (AwsService, RsaKeyPair) {
        let mut svc = AwsService::new();
        let user = RsaKeyPair::insecure_test_key(11);
        svc.register_user("AKIAALICE", user.public.clone());
        (svc, user)
    }

    #[test]
    fn import_flow_end_to_end() {
        let (mut svc, user) = setup();
        let data = vec![7u8; 4096];
        let (manifest, device) =
            prepare_import(&user, "AKIAALICE", "dev-1", "bucket/backup", 1, data.clone()).unwrap();
        let email = svc.process_import(&manifest, &device, SimTime::ZERO).unwrap();
        assert_eq!(email.status, JobStatus::Completed);
        assert_eq!(email.bytes, 4096);
        assert_eq!(email.md5_hex, hex_encode(&Md5::digest(&data)));
        // Log object exists and mentions the key.
        let log = svc.peek(&email.log_location).unwrap();
        assert!(String::from_utf8_lossy(&log.data).contains("bucket/backup"));
    }

    #[test]
    fn forged_manifest_rejected() {
        let (mut svc, user) = setup();
        let (mut manifest, device) =
            prepare_import(&user, "AKIAALICE", "dev-1", "bucket/x", 2, vec![1]).unwrap();
        manifest.destination = "bucket/steal".to_string(); // altered after signing
        assert_eq!(
            svc.process_import(&manifest, &device, SimTime::ZERO),
            Err(AwsError::BadSignature)
        );
    }

    #[test]
    fn missing_signature_file_rejected() {
        let (mut svc, user) = setup();
        let (manifest, mut device) =
            prepare_import(&user, "AKIAALICE", "dev-1", "bucket/x", 3, vec![1]).unwrap();
        device.signature_file = None;
        assert_eq!(
            svc.process_import(&manifest, &device, SimTime::ZERO),
            Err(AwsError::BadSignature)
        );
    }

    #[test]
    fn device_swap_rejected() {
        let (mut svc, user) = setup();
        let (manifest, mut device) =
            prepare_import(&user, "AKIAALICE", "dev-1", "bucket/x", 4, vec![1]).unwrap();
        device.device_id = "dev-other".to_string();
        assert_eq!(
            svc.process_import(&manifest, &device, SimTime::ZERO),
            Err(AwsError::DeviceMismatch)
        );
    }

    #[test]
    fn unknown_user_rejected() {
        let (mut svc, user) = setup();
        let (manifest, device) =
            prepare_import(&user, "AKIANOBODY", "dev-1", "bucket/x", 5, vec![1]).unwrap();
        assert_eq!(
            svc.process_import(&manifest, &device, SimTime::ZERO),
            Err(AwsError::UnknownUser)
        );
    }

    #[test]
    fn s3_internet_path_recomputes_md5() {
        let (mut svc, _) = setup();
        let put_md5 = svc.s3_put("k", b"data", "alice", SimTime::ZERO);
        let (data, get_md5) = svc.s3_get("k").unwrap();
        assert_eq!(data, b"data");
        assert_eq!(put_md5, get_md5);
        svc.tamper("k", &Tamper::BitFlip { offset: 1 }).unwrap();
        let (_, md5_after) = svc.s3_get("k").unwrap();
        assert_ne!(md5_after, put_md5, "recomputed over tampered data");
    }

    #[test]
    fn shipment_timing() {
        let dev = StorageDevice { device_id: "d".into(), data: vec![], signature_file: None };
        let s = Shipment::dispatch(dev, SimTime::ZERO, Shipment::typical_transit());
        assert!(!s.arrived(SimTime::ZERO));
        assert!(!s.arrived(SimTime(71 * 3_600_000_000)));
        assert!(s.arrived(SimTime(72 * 3_600_000_000)));
    }

    #[test]
    fn manifest_canonical_bytes_distinguish_jobs() {
        let m1 = Manifest {
            access_key_id: "A".into(),
            device_id: "d".into(),
            destination: "x".into(),
            job_id: 1,
        };
        let mut m2 = m1.clone();
        m2.job_id = 2;
        assert_ne!(m1.canonical_bytes(), m2.canonical_bytes());
    }
}
