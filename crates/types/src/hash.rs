//! Workspace-wide FNV-1a-64 hashing.
//!
//! One canonical implementation of the digest primitive used everywhere a
//! byte string must be checksummed deterministically: snapshot digests in
//! `contig-check`, per-frame checksums on migration transport frames in
//! `contig-virt`. FNV-1a-64 is not cryptographic — it detects the accidental
//! corruption the simulator injects, nothing more — but it is fast, has
//! published test vectors, and its avalanche is good enough that single-byte
//! corruption is caught in practice.

/// FNV-1a-64 offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a-64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a-64 of a byte string.
///
/// # Examples
///
/// ```
/// use contig_types::fnv1a64;
///
/// // Published FNV-1a-64 test vectors.
/// assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(bytes);
    h.finish()
}

/// Streaming FNV-1a-64: feeding a byte string in any number of pieces gives
/// the same hash as [`fnv1a64`] over their concatenation, so a serializer
/// can hash its output without buffering it.
///
/// # Examples
///
/// ```
/// use contig_types::{fnv1a64, Fnv1a64};
///
/// let mut h = Fnv1a64::new();
/// h.write(b"foo");
/// h.write(b"bar");
/// assert_eq!(h.finish(), fnv1a64(b"foobar"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// A hasher that has consumed no bytes.
    pub const fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Feeds `bytes` into the hash.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// The hash of every byte fed so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn single_byte_flip_changes_hash() {
        let frame = b"kind=1 seq=42 payload=....".to_vec();
        let base = fnv1a64(&frame);
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut flipped = frame.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
