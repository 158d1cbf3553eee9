//! Azure-style storage service — paper §2.2 / Figure 3.
//!
//! Accounts are created through a "portal" and receive a 256-bit secret
//! key. Every request must carry an HMAC-SHA256 `SharedKey` signature
//! (see [`crate::rest`]). Blobs record the uploader's `Content-MD5`, and —
//! the detail the paper highlights — **the stored MD5 is returned on GET**
//! ("on the Azure platform, the original MD5_1 will be sent"). Blobs are
//! capped at the paper's 50 GB.

use crate::object::{ObjectStore, StoredObject, Tamper, TamperReport};
use crate::rest::{Method, RestRequest};
use std::collections::HashMap;
use tpnr_crypto::encoding::{base64_decode, base64_encode};
use tpnr_crypto::hash::HashAlg;
use tpnr_crypto::ChaChaRng;
use tpnr_net::time::SimTime;

/// Azure blob size cap from the paper ("Blobs (up to 50GB)").
pub const MAX_BLOB_SIZE: u64 = 50 * 1024 * 1024 * 1024;

/// Service-side error responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AzureError {
    /// Unknown account name.
    NoSuchAccount,
    /// `Authorization` header missing/invalid.
    AuthenticationFailed,
    /// `Content-MD5` did not match the body.
    Md5Mismatch,
    /// Requested blob does not exist.
    BlobNotFound,
    /// Payload exceeds a documented limit.
    TooLarge,
    /// Verb/resource combination not understood.
    BadRequest,
}

impl std::fmt::Display for AzureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AzureError::NoSuchAccount => write!(f, "no such account"),
            AzureError::AuthenticationFailed => write!(f, "authentication failed"),
            AzureError::Md5Mismatch => write!(f, "Content-MD5 mismatch"),
            AzureError::BlobNotFound => write!(f, "blob not found"),
            AzureError::TooLarge => write!(f, "payload too large"),
            AzureError::BadRequest => write!(f, "bad request"),
        }
    }
}

impl std::error::Error for AzureError {}

/// A successful response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AzureResponse {
    /// HTTP-ish status code.
    pub status: u16,
    /// Body (blob contents on GET).
    pub body: Vec<u8>,
    /// `Content-MD5` response header. On GET this is the **stored** MD5
    /// recorded at upload time — Azure's behaviour per the paper.
    pub content_md5: Option<String>,
}

/// An account registered at the portal.
#[derive(Clone)]
pub struct Account {
    /// Account (and container) name.
    pub name: String,
    /// The 256-bit shared secret issued at signup.
    pub key: [u8; 32],
}

/// The Azure-like storage service.
pub struct AzureService {
    accounts: HashMap<String, [u8; 32]>,
    blobs: ObjectStore,
    /// Uncommitted blocks per blob path: blockid → bytes (the Table 1
    /// `comp=block` staging area).
    uncommitted: HashMap<String, HashMap<String, Vec<u8>>>,
}

impl Default for AzureService {
    fn default() -> Self {
        Self::new()
    }
}

impl AzureService {
    /// Empty service.
    pub fn new() -> Self {
        AzureService {
            accounts: HashMap::new(),
            blobs: ObjectStore::new(),
            uncommitted: HashMap::new(),
        }
    }

    /// Portal signup: creates an account and returns its 256-bit key
    /// (paper: "After creating an account, the user will receive a 256-bit
    /// secret key").
    pub fn create_account(&mut self, name: &str, rng: &mut ChaChaRng) -> Account {
        let mut key = [0u8; 32];
        rng.fill_bytes(&mut key);
        self.accounts.insert(name.to_string(), key);
        Account { name: name.to_string(), key }
    }

    fn authenticate(&self, req: &RestRequest) -> Result<String, AzureError> {
        let (account, _) = req.parse_authorization().ok_or(AzureError::AuthenticationFailed)?;
        let key = self.accounts.get(&account).ok_or(AzureError::NoSuchAccount)?;
        if req.verify_signature(&account, key) {
            Ok(account)
        } else {
            Err(AzureError::AuthenticationFailed)
        }
    }

    /// Splits a Table-1-style resource into (blob path, query map).
    fn parse_resource(resource: &str) -> (String, HashMap<String, String>) {
        match resource.split_once('?') {
            None => (resource.to_string(), HashMap::new()),
            Some((path, query)) => {
                let map = query
                    .split('&')
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.to_string(), v.to_string()))
                    .collect();
                (path.to_string(), map)
            }
        }
    }

    /// Handles a signed REST request against the blob service.
    ///
    /// The Table 1 block protocol is honoured: `PUT …?comp=block&blockid=X`
    /// stages an uncommitted block, `PUT …?comp=blocklist` commits the
    /// listed block ids (newline-separated body) into the blob.
    pub fn handle(&mut self, req: &RestRequest, now: SimTime) -> Result<AzureResponse, AzureError> {
        let account = self.authenticate(req)?;
        let (path, query) = Self::parse_resource(&req.resource);
        match req.method {
            Method::Put if query.get("comp").map(String::as_str) == Some("block") => {
                let block_id = query.get("blockid").ok_or(AzureError::BadRequest)?;
                if req.verify_content_md5() == Some(false) {
                    return Err(AzureError::Md5Mismatch);
                }
                self.uncommitted
                    .entry(path)
                    .or_default()
                    .insert(block_id.clone(), req.body.clone());
                Ok(AzureResponse {
                    status: 201,
                    body: Vec::new(),
                    content_md5: req.content_md5.clone(),
                })
            }
            Method::Put if query.get("comp").map(String::as_str) == Some("blocklist") => {
                let staged = self.uncommitted.remove(&path).unwrap_or_default();
                let mut assembled = Vec::new();
                for id in String::from_utf8_lossy(&req.body).lines() {
                    let block = staged.get(id).ok_or(AzureError::BadRequest)?;
                    assembled.extend_from_slice(block);
                }
                use tpnr_crypto::hash::Digest as _;
                let md5 = tpnr_crypto::md5::Md5::digest(&assembled);
                self.blobs.put(
                    &path,
                    StoredObject {
                        data: assembled.into(),
                        stored_checksum: Some(md5),
                        checksum_alg: HashAlg::Md5,
                        uploaded_at: now,
                        owner: account,
                    },
                );
                Ok(AzureResponse { status: 201, body: Vec::new(), content_md5: None })
            }
            Method::Put => {
                if req.body.len() as u64 > MAX_BLOB_SIZE {
                    return Err(AzureError::TooLarge);
                }
                // Server-side Content-MD5 check (paper: "The MD5 checksum is
                // checked by the server. If it does not match, an error is
                // returned").
                if req.verify_content_md5() == Some(false) {
                    return Err(AzureError::Md5Mismatch);
                }
                let stored_checksum = req.content_md5.as_deref().and_then(base64_decode);
                self.blobs.put(
                    &req.resource,
                    StoredObject {
                        data: req.body.clone().into(),
                        stored_checksum,
                        checksum_alg: HashAlg::Md5,
                        uploaded_at: now,
                        owner: account,
                    },
                );
                Ok(AzureResponse {
                    status: 201,
                    body: Vec::new(),
                    content_md5: req.content_md5.clone(),
                })
            }
            Method::Get => {
                let obj = self.blobs.get(&req.resource).ok_or(AzureError::BlobNotFound)?;
                // Azure returns the MD5 recorded at upload, NOT a recomputed
                // one — so consistent in-storage tampering sails through.
                let header = obj.stored_checksum.as_ref().map(|s| base64_encode(s));
                Ok(AzureResponse { status: 200, body: obj.data.to_vec(), content_md5: header })
            }
            Method::Delete => {
                self.blobs.delete(&req.resource).ok_or(AzureError::BlobNotFound)?;
                Ok(AzureResponse { status: 202, body: Vec::new(), content_md5: None })
            }
        }
    }

    /// Provider-side tampering with a stored blob (Eve's capability).
    pub fn tamper_blob(&mut self, resource: &str, t: &Tamper) -> Option<TamperReport> {
        self.blobs.tamper(resource, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpnr_crypto::hash::Digest as _;
    use tpnr_crypto::md5::Md5;

    fn setup() -> (AzureService, Account) {
        let mut svc = AzureService::new();
        let mut rng = ChaChaRng::seed_from_u64(42);
        let acct = svc.create_account("jerry", &mut rng);
        (svc, acct)
    }

    fn put(acct: &Account, resource: &str, body: &[u8]) -> RestRequest {
        RestRequest::new(Method::Put, resource, body.to_vec(), "date0")
            .with_content_md5()
            .sign(&acct.name, &acct.key)
    }

    fn get(acct: &Account, resource: &str) -> RestRequest {
        RestRequest::new(Method::Get, resource, Vec::new(), "date1").sign(&acct.name, &acct.key)
    }

    #[test]
    fn put_then_get_roundtrip_with_stored_md5() {
        let (mut svc, acct) = setup();
        let body = b"quarterly financials";
        let r = svc.handle(&put(&acct, "/jerry/data", body), SimTime::ZERO).unwrap();
        assert_eq!(r.status, 201);
        let r = svc.handle(&get(&acct, "/jerry/data"), SimTime::ZERO).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, body);
        assert_eq!(
            r.content_md5.unwrap(),
            base64_encode(&Md5::digest(body)),
            "GET returns the MD5 recorded at upload"
        );
    }

    #[test]
    fn unauthenticated_requests_rejected() {
        let (mut svc, acct) = setup();
        let mut req = put(&acct, "/r", b"x");
        req.authorization = None;
        assert_eq!(svc.handle(&req, SimTime::ZERO), Err(AzureError::AuthenticationFailed));

        let forged = RestRequest::new(Method::Put, "/r", b"x".to_vec(), "d")
            .with_content_md5()
            .sign("jerry", b"not the real key 000000000000000");
        assert_eq!(svc.handle(&forged, SimTime::ZERO), Err(AzureError::AuthenticationFailed));

        let unknown = RestRequest::new(Method::Get, "/r", vec![], "d").sign("nobody", &acct.key);
        assert_eq!(svc.handle(&unknown, SimTime::ZERO), Err(AzureError::NoSuchAccount));
    }

    #[test]
    fn corrupted_upload_body_rejected_by_md5_check() {
        let (mut svc, acct) = setup();
        let mut req = put(&acct, "/r", b"clean body");
        req.body[0] ^= 1; // transit corruption after signing
        assert_eq!(svc.handle(&req, SimTime::ZERO), Err(AzureError::Md5Mismatch));
    }

    #[test]
    fn get_missing_blob_is_404() {
        let (mut svc, acct) = setup();
        assert_eq!(
            svc.handle(&get(&acct, "/nothing"), SimTime::ZERO),
            Err(AzureError::BlobNotFound)
        );
    }

    #[test]
    fn delete_works_and_is_idempotent_error() {
        let (mut svc, acct) = setup();
        svc.handle(&put(&acct, "/r", b"x"), SimTime::ZERO).unwrap();
        let del = RestRequest::new(Method::Delete, "/r", vec![], "d").sign(&acct.name, &acct.key);
        assert_eq!(svc.handle(&del, SimTime::ZERO).unwrap().status, 202);
        assert_eq!(svc.handle(&del, SimTime::ZERO), Err(AzureError::BlobNotFound));
    }

    #[test]
    fn naive_tamper_is_detectable_consistent_tamper_is_not() {
        // The §2.4 vulnerability, end to end on the Azure model.
        let (mut svc, acct) = setup();
        svc.handle(&put(&acct, "/r", b"true data"), SimTime::ZERO).unwrap();

        // Naive tamper: data changes, stored MD5 stays -> a diligent client
        // comparing body vs returned MD5 can detect it.
        svc.tamper_blob("/r", &Tamper::BitFlip { offset: 0 }).unwrap();
        let r = svc.handle(&get(&acct, "/r"), SimTime::ZERO).unwrap();
        let returned = base64_decode(&r.content_md5.unwrap()).unwrap();
        assert_ne!(returned, Md5::digest(&r.body), "client detects mismatch");

        // Consistent tamper: provider rewrites data AND metadata -> the GET
        // response is self-consistent; no client-side check can object.
        svc.tamper_blob("/r", &Tamper::ConsistentReplace(b"forged data".to_vec())).unwrap();
        let r = svc.handle(&get(&acct, "/r"), SimTime::ZERO).unwrap();
        let returned = base64_decode(&r.content_md5.unwrap()).unwrap();
        assert_eq!(returned, Md5::digest(&r.body), "forgery is self-consistent");
        assert_eq!(r.body, b"forged data");
    }

    #[test]
    fn block_upload_and_commit_flow() {
        // The literal Table 1 flow: PUT two blocks, commit the block list,
        // then GET the assembled blob.
        let (mut svc, acct) = setup();
        let put_block = |body: &[u8], id: &str, acct: &Account| {
            RestRequest::new(
                Method::Put,
                &format!("/jerry/pics/photo.jpg?comp=block&blockid={id}&timeout=30"),
                body.to_vec(),
                "Sun, 13 Sept 2009 18:30:25 GMT",
            )
            .with_content_md5()
            .sign(&acct.name, &acct.key)
        };
        svc.handle(&put_block(b"first half ", "blockid1", &acct), SimTime::ZERO).unwrap();
        svc.handle(&put_block(b"second half", "blockid2", &acct), SimTime::ZERO).unwrap();

        let commit = RestRequest::new(
            Method::Put,
            "/jerry/pics/photo.jpg?comp=blocklist",
            b"blockid1\nblockid2".to_vec(),
            "d",
        )
        .sign(&acct.name, &acct.key);
        svc.handle(&commit, SimTime::ZERO).unwrap();

        let get = RestRequest::new(Method::Get, "/jerry/pics/photo.jpg", vec![], "d")
            .sign(&acct.name, &acct.key);
        let resp = svc.handle(&get, SimTime::ZERO).unwrap();
        assert_eq!(resp.body, b"first half second half");
        assert!(resp.content_md5.is_some(), "committed blob records an MD5");
    }

    #[test]
    fn blocklist_referencing_missing_block_rejected() {
        let (mut svc, acct) = setup();
        let commit =
            RestRequest::new(Method::Put, "/blob?comp=blocklist", b"no-such-block".to_vec(), "d")
                .sign(&acct.name, &acct.key);
        assert_eq!(svc.handle(&commit, SimTime::ZERO), Err(AzureError::BadRequest));
    }

    #[test]
    fn block_put_without_blockid_rejected() {
        let (mut svc, acct) = setup();
        let req = RestRequest::new(Method::Put, "/blob?comp=block", b"x".to_vec(), "d")
            .sign(&acct.name, &acct.key);
        assert_eq!(svc.handle(&req, SimTime::ZERO), Err(AzureError::BadRequest));
    }

    #[test]
    fn corrupted_block_body_rejected_by_md5() {
        let (mut svc, acct) = setup();
        let mut req =
            RestRequest::new(Method::Put, "/blob?comp=block&blockid=b1", b"clean".to_vec(), "d")
                .with_content_md5()
                .sign(&acct.name, &acct.key);
        req.body[0] ^= 1;
        assert_eq!(svc.handle(&req, SimTime::ZERO), Err(AzureError::Md5Mismatch));
    }

    #[test]
    fn accounts_have_distinct_keys() {
        let mut svc = AzureService::new();
        let mut rng = ChaChaRng::seed_from_u64(1);
        let a = svc.create_account("a", &mut rng);
        let b = svc.create_account("b", &mut rng);
        assert_ne!(a.key, b.key);
    }
}
