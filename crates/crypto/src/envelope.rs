//! Hybrid public-key envelope: RSA key transport + ChaCha20 + HMAC-SHA256.
//!
//! Paper §4.1 requires the evidence to be "encrypted with the recipient's
//! public key". Raw RSA caps the payload at `k - 11` bytes, so — exactly as
//! SSL of the paper's era did — we transport a fresh symmetric key under RSA
//! and encrypt the payload with a stream cipher, authenticated
//! encrypt-then-MAC.
//!
//! Wire layout: `u16 klen ‖ RSA(seed) ‖ 12-byte nonce ‖ ciphertext ‖
//! 32-byte HMAC tag`, where a 32-byte seed is transported under RSA and the
//! cipher/MAC keys are derived as `SHA-256(seed ‖ label)` — the seed (not a
//! full key block) keeps the RSA payload within PKCS#1 limits even for the
//! 512-bit test keys.

use crate::chacha20;
use crate::ct;
use crate::error::CryptoError;
use crate::hmac::hmac_sha256;
use crate::rng::ChaChaRng;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::sha2::Sha256;

const SEED_LEN: usize = 32;
const NONCE_LEN: usize = chacha20::NONCE_LEN;
const TAG_LEN: usize = 32;

/// Derives the cipher and MAC keys from the transported seed.
fn derive_keys(seed: &[u8]) -> ([u8; 32], [u8; 32]) {
    use crate::hash::Digest as _;
    let derive = |label: &[u8]| {
        let mut h = Sha256::default();
        h.update(seed);
        h.update(label);
        h.finalize_array()
    };
    (derive(b"tpnr-envelope-cipher"), derive(b"tpnr-envelope-mac"))
}

/// Encrypts `plaintext` to the holder of `recipient`.
pub fn seal(
    recipient: &RsaPublicKey,
    rng: &mut ChaChaRng,
    plaintext: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    let mut seed = [0u8; SEED_LEN];
    rng.fill_bytes(&mut seed);
    let (cipher_key, mac_key) = derive_keys(&seed);

    let wrapped = recipient.encrypt(rng, &seed)?;
    let mut nonce = [0u8; NONCE_LEN];
    rng.fill_bytes(&mut nonce);

    let mut out = Vec::with_capacity(2 + wrapped.len() + NONCE_LEN + plaintext.len() + TAG_LEN);
    out.extend_from_slice(&(wrapped.len() as u16).to_be_bytes());
    out.extend_from_slice(&wrapped);
    out.extend_from_slice(&nonce);
    let ct_start = out.len();
    out.extend_from_slice(plaintext);
    if let Some(ciphertext) = out.get_mut(ct_start..) {
        chacha20::xor_stream(&cipher_key, &nonce, 1, ciphertext);
    }
    // MAC over everything before the tag (header included): tampering with
    // the wrapped key or nonce must also be detected.
    let tag = hmac_sha256(&mac_key, &out);
    out.extend_from_slice(&tag);
    Ok(out)
}

/// Decrypts an envelope produced by [`seal`].
pub fn open(recipient: &RsaPrivateKey, envelope: &[u8]) -> Result<Vec<u8>, CryptoError> {
    if envelope.len() < 2 + NONCE_LEN + TAG_LEN {
        return Err(CryptoError::Malformed("envelope"));
    }
    let klen = match envelope {
        [k0, k1, ..] => u16::from_be_bytes([*k0, *k1]) as usize,
        _ => return Err(CryptoError::Malformed("envelope")),
    };
    let body_len = envelope.len() - TAG_LEN;
    if 2 + klen + NONCE_LEN > body_len {
        return Err(CryptoError::Malformed("envelope"));
    }
    let wrapped = &envelope[2..2 + klen];
    let nonce_start = 2 + klen;
    let ct_start = nonce_start + NONCE_LEN;
    let (body, tag) = envelope.split_at(body_len);

    let seed = recipient.decrypt(wrapped)?;
    if seed.len() != SEED_LEN {
        return Err(CryptoError::InvalidPadding);
    }
    let (cipher_key, mac_key) = derive_keys(&seed);
    if !ct::eq(&hmac_sha256(&mac_key, body), tag) {
        return Err(CryptoError::BadMac);
    }
    let mut nonce = [0u8; NONCE_LEN];
    nonce.copy_from_slice(&envelope[nonce_start..ct_start]);
    let mut plaintext = body[ct_start..].to_vec();
    chacha20::xor_stream(&cipher_key, &nonce, 1, &mut plaintext);
    Ok(plaintext)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::RsaKeyPair;

    fn setup() -> (RsaKeyPair, ChaChaRng) {
        (RsaKeyPair::insecure_test_key(3), ChaChaRng::seed_from_u64(33))
    }

    #[test]
    fn roundtrip_various_sizes() {
        let (kp, mut rng) = setup();
        for n in [0usize, 1, 100, 4096, 100_000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31) as u8).collect();
            let env = seal(&kp.public, &mut rng, &data).unwrap();
            assert_eq!(open(&kp.private, &env).unwrap(), data, "size {n}");
        }
    }

    #[test]
    fn wrong_recipient_fails() {
        let (kp, mut rng) = setup();
        let other = RsaKeyPair::insecure_test_key(4);
        let env = seal(&kp.public, &mut rng, b"for alice only").unwrap();
        assert!(open(&other.private, &env).is_err());
    }

    #[test]
    fn every_byte_is_authenticated() {
        let (kp, mut rng) = setup();
        let env = seal(&kp.public, &mut rng, b"evidence payload").unwrap();
        for i in 0..env.len() {
            let mut bad = env.clone();
            bad[i] ^= 0x01;
            assert!(open(&kp.private, &bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_rejected() {
        let (kp, mut rng) = setup();
        let env = seal(&kp.public, &mut rng, b"payload").unwrap();
        for cut in [0usize, 1, 10, env.len() - 1] {
            assert!(open(&kp.private, &env[..cut]).is_err());
        }
    }

    #[test]
    fn sealed_bytes_match_the_generic_hmac_and_cipher() {
        // The envelope is built on stack keys and an in-place cipher; its
        // bytes are those of the generic `Hmac` and `chacha20::encrypt`
        // over the same random draws.
        use crate::hash::Digest as _;
        use crate::hmac::Hmac;
        let (kp, rng) = setup();
        for n in [0usize, 1, 64, 136, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31) as u8).collect();
            let env = seal(&kp.public, &mut rng.clone(), &data).unwrap();

            let mut rng = rng.clone();
            let mut seed = [0u8; SEED_LEN];
            rng.fill_bytes(&mut seed);
            let key = |label: &[u8]| Sha256::digest(&[&seed[..], label].concat());
            let cipher_key: [u8; 32] = key(b"tpnr-envelope-cipher").try_into().unwrap();
            let wrapped = kp.public.encrypt(&mut rng, &seed).unwrap();
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill_bytes(&mut nonce);
            let mut expected = (wrapped.len() as u16).to_be_bytes().to_vec();
            expected.extend_from_slice(&wrapped);
            expected.extend_from_slice(&nonce);
            expected.extend_from_slice(&chacha20::encrypt(&cipher_key, &nonce, &data));
            let tag = Hmac::<Sha256>::mac(&key(b"tpnr-envelope-mac"), &expected);
            expected.extend_from_slice(&tag);
            assert_eq!(env, expected, "size {n}");
        }
    }

    #[test]
    fn sealing_is_randomized() {
        let (kp, mut rng) = setup();
        let a = seal(&kp.public, &mut rng, b"same").unwrap();
        let b = seal(&kp.public, &mut rng, b"same").unwrap();
        assert_ne!(a, b);
    }
}
