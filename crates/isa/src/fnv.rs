//! FNV-1a, 64-bit — the one hash whose values this workspace writes to
//! disk (spill checksums, options tags) and uses as cache keys (DAG and
//! config-facts fingerprints). Platform- and process-independent; for
//! corruption detection and content addressing, not adversarial input.
//!
//! FNV-1a mixes a byte `b` as `h = (h ^ b) · P`; for `b = 0` that is
//! `h · P`, so a byte followed by `z` zeros is one multiply by `P^(1+z)`.
//! [`Fnv1a`] computes exactly the byte-serial values that way: one
//! multiply per nonzero byte, with the zero runs found from the input
//! alone, off the chain of multiplies through `h`. The payloads it hashes
//! are mostly zeros (small integers in wide fields), so this is most of
//! the cost of checking a spill and keying a DAG.

/// The FNV-64 prime.
const P: u64 = 0x0000_0100_0000_01b3;

/// `POW[k]` is `P^k`: the multiply a byte and the zeros behind it owe.
const POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < pow.len() {
        pow[k] = pow[k - 1].wrapping_mul(P);
        k += 1;
    }
    pow
};

/// Bytes whose nonzero bytes are located per pass: a `u8` position
/// indexes a block without a bounds check.
const BLOCK: usize = 256;

/// `SPREAD[m]`: the indices of the set bits of `m`, lowest first, one
/// per byte.
const SPREAD: [u64; 256] = {
    let mut spread = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let (mut bit, mut n) = (0, 0);
        while bit < 8 {
            if m >> bit & 1 == 1 {
                spread[m] |= (bit as u64) << (8 * n);
                n += 1;
            }
            bit += 1;
        }
        m += 1;
    }
    spread
};

/// Bit `k` set iff byte `k` of `word` (little-endian) is nonzero.
fn nonzero_bytes(word: u64) -> usize {
    const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
    // Bit 7 of each nonzero byte — bits 0–6 carry into it, or it is
    // set — gathered into the top byte by one multiply.
    let high = (((word & LOW7) + LOW7) | word) & !LOW7;
    (high.wrapping_mul(0x0002_0408_1020_4081) >> 56) as usize
}

/// Mixes the first `len` bytes of `block` (the rest are zero) into the
/// state `h · P^owed`: a mixed byte owes its own multiply and one per zero
/// behind it, paid when the next nonzero byte arrives, `P^8` at a time.
/// Returns the new state.
#[inline(always)]
fn mix_block(mut h: u64, mut owed: usize, block: &[u8; BLOCK], len: usize) -> (u64, usize) {
    // Where the nonzero bytes are, found from the bytes alone, eight at a
    // time and without a branch on the data, so that this runs ahead of
    // the multiplies below; room for the last eight-byte write.
    let mut at = [0u8; BLOCK + 8];
    let mut n = 0;
    for (c, chunk) in block[..len.next_multiple_of(8)].chunks_exact(8).enumerate() {
        let nonzero = nonzero_bytes(u64::from_le_bytes(chunk.try_into().expect("eight bytes")));
        let spread = SPREAD[nonzero] + 0x0101_0101_0101_0101 * 8 * c as u64;
        at[n..n + 8].copy_from_slice(&spread.to_le_bytes());
        n += nonzero.count_ones() as usize;
    }
    let mut next = 0;
    for &i in &at[..n] {
        let i = usize::from(i);
        owed += i - next;
        while owed > 8 {
            h = h.wrapping_mul(POW[8]);
            owed -= 8;
        }
        h = h.wrapping_mul(POW[owed]) ^ u64::from(block[i]);
        owed = 1;
        next = i + 1;
    }
    (h, owed + len - next)
}

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
        let (mut h, mut owed) = (self.0, 0);
        let mut blocks = bytes.chunks_exact(BLOCK);
        for block in &mut blocks {
            (h, owed) = mix_block(h, owed, block.try_into().expect("a block"), BLOCK);
        }
        let tail = blocks.remainder();
        let mut last = [0u8; BLOCK];
        last[..tail.len()].copy_from_slice(tail);
        (h, owed) = mix_block(h, owed, &last, tail.len());
        while owed > 8 {
            h = h.wrapping_mul(POW[8]);
            owed -= 8;
        }
        self.0 = h.wrapping_mul(POW[owed]);
    }

    /// Mixes in `word` as its eight little-endian bytes: its `k`
    /// significant low bytes one by one, then the `8 - k` zero high bytes
    /// as one multiply.
    pub fn word(&mut self, word: u64) {
        let k = (64 - word.leading_zeros() as usize).div_ceil(8);
        let mut h = self.0;
        for &b in &word.to_le_bytes()[..k] {
            h = (h ^ u64::from(b)).wrapping_mul(P);
        }
        self.0 = h.wrapping_mul(POW[8 - k]);
    }

    /// The hash of everything mixed in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: one xor and one multiply per byte.
    fn serial(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    fn hash(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::default();
        h.bytes(bytes);
        h.finish()
    }

    /// A small deterministic generator (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// `len` bytes, each zero with probability `zeros` in 8, nonzero
        /// bytes drawn from `1..=255`.
        fn bytes(&mut self, len: usize, zeros: usize) -> Vec<u8> {
            (0..len)
                .map(|_| {
                    if self.below(8) < zeros {
                        0
                    } else {
                        1 + self.below(255) as u8
                    }
                })
                .collect()
        }
    }

    #[test]
    fn known_answers() {
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn bytes_matches_the_serial_definition() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for len in 0..=300 {
            for zeros in [0, 2, 4, 6, 7, 8] {
                let bytes = rng.bytes(len, zeros);
                assert_eq!(hash(&bytes), serial(&bytes), "len {len}: {bytes:?}");
            }
        }
    }

    #[test]
    fn zero_runs_of_every_shape_match() {
        let mut rng = Rng(7);
        for len in 0..=40 {
            // All zeros, then zeros before, after and on both sides of a
            // random core, with runs past the 8-byte table.
            assert_eq!(hash(&vec![0; len]), serial(&vec![0; len]), "{len} zeros");
            let core_len = 1 + rng.below(12);
            let core = rng.bytes(core_len, 3);
            for (lead, trail) in [(len, 0), (0, len), (len, len), (len, 17 - len % 9)] {
                let mut bytes = vec![0; lead];
                bytes.extend_from_slice(&core);
                bytes.resize(bytes.len() + trail, 0);
                assert_eq!(hash(&bytes), serial(&bytes), "{bytes:?}");
            }
            // Sparse bytes separated by zero runs of up to 40.
            let mut bytes = Vec::new();
            for _ in 0..6 {
                bytes.resize(bytes.len() + rng.below(len + 1), 0);
                bytes.push(1 + rng.below(255) as u8);
            }
            assert_eq!(hash(&bytes), serial(&bytes), "{bytes:?}");
        }
    }

    #[test]
    fn word_matches_its_little_endian_bytes() {
        let mut rng = Rng(0x51_7cc1_b727_220a);
        let mut words = vec![0, u64::MAX, 1, 0x80, 0x100];
        for width in 1..=8 {
            // Exactly `width` significant bytes: the top one nonzero, the
            // ones below it random (zeros included).
            let top = 1 + rng.below(255) as u64;
            let low = if width == 1 {
                0
            } else {
                rng.next() >> (64 - 8 * (width - 1))
            };
            words.push(top << (8 * (width - 1)) | low);
            words.push(1u64 << (8 * width - 1));
        }
        words.extend((0..200).map(|_| rng.next() >> rng.below(64)));
        for w in words {
            let mut h = Fnv1a::default();
            h.word(w);
            assert_eq!(h.finish(), serial(&w.to_le_bytes()), "{w:#x}");
        }
    }

    #[test]
    fn streaming_split_is_the_concatenation() {
        let mut rng = Rng(3);
        for zeros in [0, 5, 7] {
            let bytes = rng.bytes(300, zeros);
            let whole = serial(&bytes);
            for split in 0..=bytes.len() {
                let (a, b) = bytes.split_at(split);
                let mut h = Fnv1a::default();
                h.bytes(a);
                h.bytes(b);
                assert_eq!(h.finish(), whole, "split at {split}");
            }
        }
    }
}
