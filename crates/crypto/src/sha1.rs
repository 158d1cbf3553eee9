//! SHA-1 (FIPS 180-4).
//!
//! Included for completeness of the 2010-era algorithm suite (SSL cipher
//! suites of the day); evidence defaults to SHA-256. SHA-1 collisions are
//! practical — do not use for new designs.

use crate::hash::Digest;

/// Incremental SHA-1 state.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1 {
            state: [0x67452301, 0xefcdab89, 0x98badcfe, 0x10325476, 0xc3d2e1f0],
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }
}

impl Sha1 {
    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i / 20 {
                0 => ((b & c) | (!b & d), 0x5a827999),
                1 => (b ^ c ^ d, 0x6ed9eba1),
                2 => ((b & c) | (b & d) | (c & d), 0x8f1bbcdc),
                _ => (b ^ c ^ d, 0xca62c1d6),
            };
            let tmp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;
    const BLOCK_LEN: usize = 64;
    const NAME: &'static str = "SHA-1";

    fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                Self::compress(&mut self.state, &block);
                self.buf_len = 0;
            } else {
                // Input fully absorbed into the partial block; nothing more
                // to do (and the tail code below must not clobber buf_len).
                debug_assert!(data.is_empty());
                return;
            }
        }
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            // `chunks_exact` guarantees the length, so the conversion
            // cannot fail; the `if let` keeps the hot loop panic-free.
            if let Ok(block) = block.try_into() {
                Self::compress(&mut self.state, block);
            }
        }
        let rest = chunks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    fn finalize(mut self) -> Vec<u8> {
        let bit_len = self.total_len.wrapping_mul(8);
        self.update(&crate::hash::MD_PAD[..crate::hash::md_pad_len(self.buf_len, 64, 8)]);
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        Self::compress(&mut self.state, &block);
        self.state.iter().flat_map(|w| w.to_be_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::hex_encode;

    #[test]
    fn fips_vectors() {
        assert_eq!(hex_encode(&Sha1::digest(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(hex_encode(&Sha1::digest(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex_encode(&Sha1::digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(hex_encode(&Sha1::digest(&data)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..777u32).map(|i| (i * 7 % 256) as u8).collect();
        for split in [0usize, 1, 64, 65, 776] {
            let mut h = Sha1::default();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha1::digest(&data));
        }
    }
}
