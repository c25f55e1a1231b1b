//! SHA-256 (FIPS 180-4).
//!
//! A from-scratch, streaming implementation. Tested against the NIST CAVS
//! short-message vectors and the classic FIPS examples.
//!
//! Every compression is counted per thread ([`blocks_compressed`]), so
//! the hashing a piece of code does is a deterministic work count that
//! tests can pin exactly.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

use std::cell::Cell;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

/// SHA-256 compressions (64-byte blocks) run on the calling thread so
/// far. Thread-local rather than global, so work on other threads never
/// shows up in a reading.
pub fn blocks_compressed() -> u64 {
    BLOCKS.with(Cell::get)
}

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes.
    length: u64,
    buffer: [u8; 64],
    buffered: usize,
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            length: 0,
            buffer: [0; 64],
            buffered: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.length = self.length.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered == 64 {
                compress(&mut self.state, &self.buffer);
                self.buffered = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        for block in blocks {
            compress(&mut self.state, block);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffered = rest.len();
        }
    }

    /// Finish and produce the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.length.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 bytes into a block, then the
        // 64-bit big-endian bit length. No room for the length after
        // the 0x80 costs one more block.
        let tail = self.buffered;
        self.buffer[tail] = 0x80;
        if tail >= 56 {
            self.buffer[tail + 1..].fill(0);
            compress(&mut self.state, &self.buffer);
            self.buffer[..56].fill(0);
        } else {
            self.buffer[tail + 1..56].fill(0);
        }
        self.buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buffer);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

/// Compress one block into `state`, on the CPU's SHA extensions where
/// it has them and by [`compress_portable`] everywhere else. Both paths
/// count in [`blocks_compressed`].
fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    BLOCKS.with(|n| n.set(n.get() + 1));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sha")
        && std::arch::is_x86_feature_detected!("sse2")
        && std::arch::is_x86_feature_detected!("ssse3")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `sha_ni::compress` has no requirement beyond the CPU
        // features its `#[target_feature]` enables, and the
        // `is_x86_feature_detected!` checks just above found every one
        // of them on this CPU.
        #[allow(unsafe_code, reason = "SHA-NI, behind the CPU feature checks above")]
        unsafe {
            sha_ni::compress(state, block)
        };
        return;
    }
    compress_portable(state, block);
}

/// The FIPS 180-4 compression function in plain Rust: the path on CPUs
/// without the SHA extensions, and the reference the tests hold the
/// dispatched path to.
fn compress_portable(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    w[..16].copy_from_slice(&words(block));
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (word, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *word = word.wrapping_add(v);
    }
}

/// The block's sixteen big-endian message words.
fn words(block: &[u8; 64]) -> [u32; 16] {
    let mut w = [0; 16];
    for (wi, bytes) in w.iter_mut().zip(block.as_chunks::<4>().0) {
        *wi = u32::from_be_bytes(*bytes);
    }
    w
}

/// The compression function on the x86-64 SHA extensions (SHA-NI).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{words, K};
    use std::arch::x86_64::{
        _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32, _mm_sha256msg1_epu32,
        _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Compress one block into `state`. `sha256rnds2` works on the state
    /// split into two vectors, `ABEF` and `CDGH` (highest lane first),
    /// and runs two rounds per call; `sha256msg1`/`sha256msg2` extend
    /// the message schedule four words at a time.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let v = |x: u32| x as i32;
        let w = words(block);
        // m0..m3 hold the schedule words of the next four groups of four
        // rounds, the lowest word of each group in lane 0.
        let group = |j: usize| {
            _mm_set_epi32(
                v(w[4 * j + 3]),
                v(w[4 * j + 2]),
                v(w[4 * j + 1]),
                v(w[4 * j]),
            )
        };
        let (mut m0, mut m1, mut m2, mut m3) = (group(0), group(1), group(2), group(3));
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = _mm_set_epi32(v(a), v(b), v(e), v(f));
        let mut cdgh = _mm_set_epi32(v(c), v(d), v(g), v(h));
        let (abef_in, cdgh_in) = (abef, cdgh);
        for k in K.as_chunks::<4>().0 {
            let wk = _mm_add_epi32(m0, _mm_set_epi32(v(k[3]), v(k[2]), v(k[1]), v(k[0])));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
            // W[t] from W[t-16], W[t-15], W[t-7] and W[t-2]; the last
            // four groups compute words no round uses.
            let t = _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8::<4>(m3, m2));
            (m0, m1, m2, m3) = (m1, m2, m3, _mm_sha256msg2_epu32(t, m3));
        }
        let abef = _mm_add_epi32(abef, abef_in);
        let cdgh = _mm_add_epi32(cdgh, cdgh_in);
        let lane = |x: i32| x as u32;
        *state = [
            lane(_mm_extract_epi32::<3>(abef)),
            lane(_mm_extract_epi32::<2>(abef)),
            lane(_mm_extract_epi32::<3>(cdgh)),
            lane(_mm_extract_epi32::<2>(cdgh)),
            lane(_mm_extract_epi32::<1>(abef)),
            lane(_mm_extract_epi32::<0>(abef)),
            lane(_mm_extract_epi32::<1>(cdgh)),
            lane(_mm_extract_epi32::<0>(cdgh)),
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(digest: &[u8]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn digest_of(data: &[u8]) -> String {
        let mut h = Sha256::new();
        h.update(data);
        hex(&h.finalize())
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            digest_of(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_abc() {
        assert_eq!(
            digest_of(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_two_block() {
        assert_eq!(
            digest_of(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let oneshot = digest_of(&data);
        // Feed in awkward chunk sizes crossing block boundaries.
        let mut h = Sha256::new();
        let mut rest = &data[..];
        let mut n = 1;
        while !rest.is_empty() {
            let take = n.min(rest.len());
            h.update(&rest[..take]);
            rest = &rest[take..];
            n = (n * 7 + 3) % 97 + 1;
        }
        assert_eq!(hex(&h.finalize()), oneshot);
    }

    #[test]
    fn counts_one_compression_per_block() {
        // 55 bytes pad into one block, 56 into two; 119 into two, 120
        // into three.
        for (len, blocks) in [(0usize, 1u64), (55, 1), (56, 2), (119, 2), (120, 3)] {
            let before = blocks_compressed();
            digest_of(&vec![0u8; len]);
            assert_eq!(blocks_compressed() - before, blocks, "len={len}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// The dispatched compression (SHA-NI on a CPU that has it)
        /// equals the portable reference on any state and block.
        #[test]
        fn dispatched_compression_matches_portable(
            input in proptest::collection::vec(any::<u32>(), 24..25),
        ) {
            let mut state = [0u32; 8];
            state.copy_from_slice(&input[..8]);
            let mut block = [0u8; 64];
            for (bytes, word) in block.chunks_exact_mut(4).zip(&input[8..]) {
                bytes.copy_from_slice(&word.to_le_bytes());
            }
            let mut reference = state;
            compress_portable(&mut reference, &block);
            compress(&mut state, &block);
            prop_assert_eq!(state, reference);
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55, 56, 63, 64, 65 byte messages exercise padding edge cases.
        for len in [55usize, 56, 63, 64, 65] {
            let data = vec![0x5au8; len];
            let a = digest_of(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(core::slice::from_ref(b));
            }
            assert_eq!(hex(&h.finalize()), a, "len={len}");
        }
    }
}
