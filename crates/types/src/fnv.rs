//! The workspace's one FNV-1a digester.
//!
//! Every determinism fingerprint — the trace digest, per-query archive
//! result digests, serving-workload digests — is a 64-bit FNV-1a hash
//! fed through [`Fnv1a`]. It streams: bytes, little-endian words, and
//! (through [`core::fmt::Write`]) formatted text go straight into the
//! state, so hashing a value's `Debug` rendering allocates nothing and
//! gives the same digest as hashing the rendered string.

/// A streaming 64-bit FNV-1a hasher.
///
/// # Examples
///
/// ```
/// use core::fmt::Write;
/// use enviromic_types::Fnv1a;
///
/// let mut streamed = Fnv1a::new();
/// write!(streamed, "{:?}", (1, "a")).unwrap();
/// let mut whole = Fnv1a::new();
/// whole.write_bytes(format!("{:?}", (1, "a")).as_bytes());
/// assert_eq!(streamed.finish(), whole.finish());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fnv1a(u64);

// Every method is `#[inline]`: archive range scans fold six words per
// matched record through this type from another crate, and an
// out-of-line call per word costs a visible share of query throughput.
impl Fnv1a {
    /// The FNV-1a offset basis: the digest of no input.
    pub const OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A hasher that has seen no input.
    #[inline]
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Folds `bytes` into the state, in order.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Folds the eight little-endian bytes of `v` into the state.
    #[inline]
    pub fn write_u64_le(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    #[inline]
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl core::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> core::fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Published FNV-1a 64-bit test vectors; they pin both the offset
        // basis and the prime.
        assert_eq!(Fnv1a::default(), Fnv1a::new());
        let mut a = Fnv1a::new();
        a.write_bytes(b"a");
        assert_eq!(a.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut foobar = Fnv1a::new();
        foobar.write_bytes(b"foobar");
        assert_eq!(foobar.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn words_fold_little_endian() {
        let mut w = Fnv1a::new();
        w.write_u64_le(0x0102_0304_0506_0708);
        let mut b = Fnv1a::new();
        b.write_bytes(&[8, 7, 6, 5, 4, 3, 2, 1]);
        assert_eq!(w, b);
    }
}
