//! FNV-1a, the workspace's one byte-string hash for process-stable keys:
//! the checkpoint journal's configuration fingerprint and the variable
//! names inside the solver's term fingerprints. Journals persist its
//! values, so the constants and byte order never change.

/// FNV-1a 64-bit offset basis: the hash of the empty input.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one value into `h` (one FNV-1a step; a byte when `x < 256`).
#[must_use]
pub fn fold(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(PRIME)
}

/// Folds every byte of `bytes` into `h`.
#[must_use]
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fold(h, u64::from(b)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_test_vectors() {
        assert_eq!(fold_bytes(OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fold_bytes(OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fold_bytes(OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
    }
}
