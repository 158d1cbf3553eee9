//! Constant-time helpers.
//!
//! MAC and padding checks must not leak *where* two byte strings diverge
//! through timing; all comparison of secrets in this workspace goes through
//! [`eq`]. The `tpnr-lint` CT-CMP rule enforces this mechanically: raw
//! `==` / `!=` on digest/MAC/signature values outside this module is a
//! CI failure.

/// Constant-time byte-slice equality.
///
/// Always inspects every byte of both slices (when lengths match); the
/// length comparison itself is public information.
#[inline]
pub fn eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    // Reduce without a data-dependent branch.
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_basic() {
        assert!(eq(b"", b""));
        assert!(eq(b"abc", b"abc"));
        assert!(!eq(b"abc", b"abd"));
        assert!(!eq(b"abc", b"ab"));
        assert!(!eq(b"", b"a"));
    }

    #[test]
    fn eq_differs_anywhere() {
        let a = vec![0u8; 64];
        for i in 0..64 {
            let mut b = a.clone();
            b[i] ^= 1;
            assert!(!eq(&a, &b), "difference at {i} missed");
        }
    }
}
