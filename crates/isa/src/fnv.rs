//! FNV-1a, 64-bit — the one hash whose values this workspace writes to
//! disk (spill checksums, options tags) and uses as cache keys (DAG and
//! config-facts fingerprints). Platform- and process-independent; for
//! corruption detection and content addressing, not adversarial input.

/// A streaming FNV-1a-64 hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Mixes in `bytes`, in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Mixes in `word` as its eight little-endian bytes.
    pub fn word(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The hash of everything mixed in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}
