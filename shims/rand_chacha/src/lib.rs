//! Offline shim for `rand_chacha`: a real ChaCha8 block function behind the
//! `rand` shim's [`RngCore`]/[`SeedableRng`] traits. Output streams are
//! deterministic and high-quality but not bit-compatible with upstream
//! `rand_chacha` (the workspace only relies on determinism).
//!
//! Besides the word-at-a-time [`RngCore`] interface, the generator exposes
//! bulk producers — [`ChaCha8Rng::fill_decision_bits`] and
//! [`ChaCha8Rng::fill_masked_decision_bits`] — that emit **exactly** the stream the
//! scalar interface would (counter-mode blocks are independent, so many can
//! be produced at once and serialized in order). On x86-64 with AVX-512F the
//! bulk paths run 16 blocks in parallel and are roughly an order of
//! magnitude faster per `u64` than the scalar path; elsewhere they fall back
//! to the scalar block function. Consumers that drain millions of draws per
//! trial (the bit-sliced radio engine) depend on this being a pure speedup
//! with no stream divergence.

use rand::{RngCore, SeedableRng};

/// A ChaCha stream cipher based generator with 8 rounds.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key + counter + nonce state template.
    state: [u32; 16],
    /// Current output block.
    block: [u32; 16],
    /// Next word to serve from `block`.
    word_idx: usize,
}

const CHACHA_CONST: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        // Expand the u64 seed into a 256-bit key with SplitMix64 (the same
        // construction rand uses for seed_from_u64).
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&CHACHA_CONST);
        for i in 0..4 {
            let k = next();
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // words 12..13: block counter, 14..15: nonce (zero)
        let mut rng = ChaCha8Rng {
            state,
            block: [0; 16],
            word_idx: 16,
        };
        rng.refill();
        rng
    }
}

/// One ChaCha8 block (4 double rounds plus the feed-forward addition) for
/// the given state; the counter in `state[12..14]` is **not** advanced.
///
/// Always inlined: the scalar stream refills one block per 8 draws, and
/// left to itself LLVM calls it out of line, which made the lane engine's
/// Decay rounds about 4% slower on an AVX-512 x86-64 host.
#[inline(always)]
fn raw_block(state: &[u32; 16]) -> [u32; 16] {
    #[inline]
    fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(16);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(12);
        s[a] = s[a].wrapping_add(s[b]);
        s[d] = (s[d] ^ s[a]).rotate_left(8);
        s[c] = s[c].wrapping_add(s[d]);
        s[b] = (s[b] ^ s[c]).rotate_left(7);
    }
    let mut working = *state;
    for _ in 0..4 {
        // 8 rounds = 4 double rounds
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u32; 16];
    for (o, (w, st)) in out.iter_mut().zip(working.iter().zip(state.iter())) {
        *o = w.wrapping_add(*st);
    }
    out
}

/// How many blocks the bulk paths produce per batch (128 `u64`s).
const BULK_BLOCKS: usize = 16;
/// `u64`s per ChaCha block.
const U64_PER_BLOCK: usize = 8;
/// `u64`s per bulk batch.
const BULK_U64: usize = BULK_BLOCKS * U64_PER_BLOCK;

/// The integer threshold `T` such that the shim's `gen_bool(p)` accepts a
/// raw draw `x` iff `(x >> 11) < T`.
///
/// `gen_bool` compares `((x >> 11) as f64) * 2⁻⁵³ < p`. The left-hand side
/// is exact (a 53-bit integer scaled by a power of two), so the comparison
/// holds iff `(x >> 11) < p·2⁵³` over the reals — and `p·2⁵³` itself is
/// exactly representable (scaling a finite f64 by a power of two only moves
/// its exponent), so taking the ceiling of the product reproduces the f64
/// comparison bit for bit for every valid `p`.
#[inline]
fn gen_bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "p={p} is outside [0,1]");
    let t = p * (1u64 << 53) as f64;
    if t.fract() == 0.0 {
        t as u64
    } else {
        t as u64 + 1
    }
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        self.block = raw_block(&self.state);
        self.advance_counter(1);
        self.word_idx = 0;
    }

    /// Advances the 64-bit block counter in words 12/13 by `n` blocks.
    #[inline]
    fn advance_counter(&mut self, n: u64) {
        let counter = (self.state[12] as u64 | ((self.state[13] as u64) << 32)).wrapping_add(n);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.word_idx >= 16 {
            self.refill();
        }
        let w = self.block[self.word_idx];
        self.word_idx += 1;
        w
    }

    /// Packs the next `count` `gen_bool(p)` decisions of this generator into
    /// the low `count` bits of `out` (decision `i` lands in bit `i % 64` of
    /// `out[i / 64]`; the touched words are overwritten, tail bits above
    /// `count` are zero). Bit-identical to calling `gen_bool(p)` `count`
    /// times: one `next_u64` is consumed per decision, in order.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` (matching `gen_bool`) or if `out`
    /// holds fewer than `count` bits.
    pub fn fill_decision_bits(&mut self, p: f64, count: usize, out: &mut [u64]) {
        let words = count.div_ceil(64);
        assert!(
            words <= out.len(),
            "decision buffer too small: {count} bits into {} words",
            out.len()
        );
        let t53 = gen_bool_threshold(p);
        out[..words].iter_mut().for_each(|w| *w = 0);
        let mut i = 0;
        while i < count && self.word_idx != 16 {
            out[i / 64] |= u64::from((self.next_u64() >> 11) < t53) << (i % 64);
            i += 1;
        }
        if count - i >= BULK_U64 {
            let use_avx512 = simd::avx512_available();
            while count - i >= BULK_U64 {
                let (lo, hi) = simd::blocks16_decisions(&self.state, t53, use_avx512);
                self.advance_counter(BULK_BLOCKS as u64);
                // OR the 128 in-order decision bits into `out` at bit `i`.
                let (w, s) = (i / 64, i % 64);
                if s == 0 {
                    out[w] = lo;
                    out[w + 1] = hi;
                } else {
                    out[w] |= lo << s;
                    out[w + 1] = (lo >> (64 - s)) | (hi << s);
                    out[w + 2] = hi >> (64 - s);
                }
                i += BULK_U64;
            }
        }
        while i < count {
            out[i / 64] |= u64::from((self.next_u64() >> 11) < t53) << (i % 64);
            i += 1;
        }
    }

    /// Scatters `gen_bool(p)` decisions into the set-bit positions of `masks`.
    ///
    /// One decision is consumed per set bit, in order: masks are scanned
    /// word by word and bits from least to most significant, so decision `j`
    /// of the stream lands on the `j`-th set bit overall. `out[i]` receives
    /// the decisions for `masks[i]` (its other bits are zero); words beyond
    /// `masks.len()` are untouched. Bit-identical to walking the set bits and
    /// calling `gen_bool(p)` on each — exactly `masks.count_ones()` draws are
    /// consumed — but generated in bulk and deposited word-at-a-time (BMI2
    /// `pdep` when available).
    ///
    /// `scratch` is working storage for the packed decision stream; it is
    /// resized as needed and its previous contents are ignored (callers keep
    /// one buffer alive across calls to stay allocation-free).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]` or `out` is shorter than `masks`.
    pub fn fill_masked_decision_bits(
        &mut self,
        p: f64,
        masks: &[u64],
        scratch: &mut Vec<u64>,
        out: &mut [u64],
    ) {
        assert!(
            out.len() >= masks.len(),
            "output buffer shorter than masks: {} < {}",
            out.len(),
            masks.len()
        );
        let total: usize = masks.iter().map(|m| m.count_ones() as usize).sum();
        // One guard word past the end lets the deposit loop read bit windows
        // that straddle the final word without bounds checks.
        let words = total.div_ceil(64) + 1;
        if scratch.len() < words {
            scratch.resize(words, 0);
        }
        scratch[words - 1] = 0;
        self.fill_decision_bits(p, total, scratch);
        simd::deposit(masks, scratch, out);
    }
}

/// Bulk block production: decisions over 16 consecutive counter-mode
/// blocks in stream order, and their deposit into masks. The AVX-512 path computes all 16 blocks in the lanes of
/// 512-bit vectors and transposes in-register; the portable path loops the
/// scalar block function. Both produce identical bytes.
mod simd {
    use super::{raw_block, BULK_BLOCKS, BULK_U64};

    /// Runtime AVX-512F detection (memoized by `std`); callers hoist this
    /// out of their batch loops.
    #[inline]
    pub fn avx512_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// `gen_bool`-threshold decisions for the next 128 draws, in stream
    /// order (draw `i` in bit `i % 64` of the `(lo, hi)` pair).
    #[inline]
    pub fn blocks16_decisions(state: &[u32; 16], t53: u64, use_avx512: bool) -> (u64, u64) {
        #[cfg(target_arch = "x86_64")]
        if use_avx512 {
            // SAFETY: gated on runtime AVX-512F detection.
            return unsafe { avx512::blocks16_decisions(state, t53) };
        }
        let _ = use_avx512;
        let mut buf = [0u64; BULK_U64];
        scalar_blocks16(state, &mut buf);
        let mut lo = 0u64;
        let mut hi = 0u64;
        for (i, &x) in buf.iter().enumerate() {
            let bit = u64::from((x >> 11) < t53);
            if i < 64 {
                lo |= bit << i;
            } else {
                hi |= bit << (i - 64);
            }
        }
        (lo, hi)
    }

    /// Scatters the packed decision stream in `bits` into the set-bit
    /// positions of each mask word (BMI2 `pdep` when available; a per-set-bit
    /// loop otherwise). `bits` must hold at least `masks.count_ones()` bits
    /// plus one guard word.
    pub fn deposit(masks: &[u64], bits: &[u64], out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: gated on runtime BMI2 detection.
            unsafe { deposit_bmi2(masks, bits, out) };
            return;
        }
        deposit_generic(masks, bits, out);
    }

    /// The next `≤ 64` stream bits starting at bit offset `pos` (the caller
    /// guarantees a readable word at `pos / 64 + 1`).
    #[inline]
    fn read_bits(bits: &[u64], pos: usize) -> u64 {
        let (w, s) = (pos / 64, pos % 64);
        if s == 0 {
            bits[w]
        } else {
            (bits[w] >> s) | (bits[w + 1] << (64 - s))
        }
    }

    fn deposit_generic(masks: &[u64], bits: &[u64], out: &mut [u64]) {
        let mut pos = 0usize;
        for (o, &m) in out.iter_mut().zip(masks.iter()) {
            let c = m.count_ones() as usize;
            if c == 0 {
                *o = 0;
                continue;
            }
            let mut src = read_bits(bits, pos);
            let mut remaining = m;
            let mut word = 0u64;
            while remaining != 0 {
                let b = remaining.trailing_zeros();
                word |= (src & 1) << b;
                src >>= 1;
                remaining &= remaining - 1;
            }
            *o = word;
            pos += c;
        }
    }

    /// # Safety
    /// Requires BMI2 at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    unsafe fn deposit_bmi2(masks: &[u64], bits: &[u64], out: &mut [u64]) {
        use std::arch::x86_64::_pdep_u64;
        let mut pos = 0usize;
        for (o, &m) in out.iter_mut().zip(masks.iter()) {
            if m == 0 {
                *o = 0;
                continue;
            }
            // `pdep` takes source bits from the low end in mask-bit order,
            // which is exactly the stream order contract.
            *o = _pdep_u64(read_bits(bits, pos), m);
            pos += m.count_ones() as usize;
        }
    }

    fn scalar_blocks16(state: &[u32; 16], out: &mut [u64; BULK_U64]) {
        let mut st = *state;
        for b in 0..BULK_BLOCKS {
            let block = raw_block(&st);
            let counter = (st[12] as u64 | ((st[13] as u64) << 32)).wrapping_add(1);
            st[12] = counter as u32;
            st[13] = (counter >> 32) as u32;
            for (o, pair) in out[b * 8..(b + 1) * 8]
                .iter_mut()
                .zip(block.chunks_exact(2))
            {
                *o = pair[0] as u64 | ((pair[1] as u64) << 32);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    mod avx512 {
        use std::arch::x86_64::*;

        /// 16 blocks, one per 32-bit lane, then an in-register 16×16 `u32`
        /// transpose so register `j` holds block `j` in stream order.
        ///
        /// Kept out of line: inlined into its one caller,
        /// `blocks16_decisions`, it made the bulk decision path slower on
        /// an AVX-512 x86-64 host.
        ///
        /// # Safety
        /// Requires AVX-512F at runtime.
        #[target_feature(enable = "avx512f")]
        #[inline(never)]
        unsafe fn blocks16(state: &[u32; 16]) -> [__m512i; 16] {
            unsafe {
                let mut v: [__m512i; 16] = [_mm512_setzero_si512(); 16];
                for (w, lane) in v.iter_mut().enumerate() {
                    *lane = _mm512_set1_epi32(state[w] as i32);
                }
                // Per-lane block counters: lane j simulates counter c + j.
                let c0 = state[12] as u64 | ((state[13] as u64) << 32);
                let mut c_lo = [0u32; 16];
                let mut c_hi = [0u32; 16];
                for j in 0..16 {
                    let c = c0.wrapping_add(j as u64);
                    c_lo[j] = c as u32;
                    c_hi[j] = (c >> 32) as u32;
                }
                v[12] = _mm512_loadu_si512(c_lo.as_ptr() as *const __m512i);
                v[13] = _mm512_loadu_si512(c_hi.as_ptr() as *const __m512i);
                let start = v;

                macro_rules! qr {
                    ($a:expr, $b:expr, $c:expr, $d:expr) => {
                        v[$a] = _mm512_add_epi32(v[$a], v[$b]);
                        v[$d] = _mm512_rol_epi32(_mm512_xor_si512(v[$d], v[$a]), 16);
                        v[$c] = _mm512_add_epi32(v[$c], v[$d]);
                        v[$b] = _mm512_rol_epi32(_mm512_xor_si512(v[$b], v[$c]), 12);
                        v[$a] = _mm512_add_epi32(v[$a], v[$b]);
                        v[$d] = _mm512_rol_epi32(_mm512_xor_si512(v[$d], v[$a]), 8);
                        v[$c] = _mm512_add_epi32(v[$c], v[$d]);
                        v[$b] = _mm512_rol_epi32(_mm512_xor_si512(v[$b], v[$c]), 7);
                    };
                }
                for _ in 0..4 {
                    qr!(0, 4, 8, 12);
                    qr!(1, 5, 9, 13);
                    qr!(2, 6, 10, 14);
                    qr!(3, 7, 11, 15);
                    qr!(0, 5, 10, 15);
                    qr!(1, 6, 11, 12);
                    qr!(2, 7, 8, 13);
                    qr!(3, 4, 9, 14);
                }
                for (lane, st) in v.iter_mut().zip(start.iter()) {
                    *lane = _mm512_add_epi32(*lane, *st);
                }

                // 16×16 u32 transpose, element (word, block) → (block, word):
                // 32-bit unpack, 64-bit unpack, then two 128-bit shuffle
                // stages.
                let mut t: [__m512i; 16] = [_mm512_setzero_si512(); 16];
                for i in 0..8 {
                    t[2 * i] = _mm512_unpacklo_epi32(v[2 * i], v[2 * i + 1]);
                    t[2 * i + 1] = _mm512_unpackhi_epi32(v[2 * i], v[2 * i + 1]);
                }
                let mut u: [__m512i; 16] = [_mm512_setzero_si512(); 16];
                for k in 0..4 {
                    u[4 * k] = _mm512_unpacklo_epi64(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 1] = _mm512_unpackhi_epi64(t[4 * k], t[4 * k + 2]);
                    u[4 * k + 2] = _mm512_unpacklo_epi64(t[4 * k + 1], t[4 * k + 3]);
                    u[4 * k + 3] = _mm512_unpackhi_epi64(t[4 * k + 1], t[4 * k + 3]);
                }
                for i in 0..4 {
                    t[i] = _mm512_shuffle_i32x4(u[i], u[i + 4], 0x88);
                    t[i + 4] = _mm512_shuffle_i32x4(u[i + 8], u[i + 12], 0x88);
                    t[i + 8] = _mm512_shuffle_i32x4(u[i], u[i + 4], 0xdd);
                    t[i + 12] = _mm512_shuffle_i32x4(u[i + 8], u[i + 12], 0xdd);
                }
                for i in 0..4 {
                    u[i] = _mm512_shuffle_i32x4(t[i], t[i + 4], 0x88);
                    u[i + 8] = _mm512_shuffle_i32x4(t[i], t[i + 4], 0xdd);
                    u[i + 4] = _mm512_shuffle_i32x4(t[i + 8], t[i + 12], 0x88);
                    u[i + 12] = _mm512_shuffle_i32x4(t[i + 8], t[i + 12], 0xdd);
                }
                u
            }
        }

        /// # Safety
        /// Requires AVX-512F at runtime.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn blocks16_decisions(state: &[u32; 16], t53: u64) -> (u64, u64) {
            unsafe {
                let blocks = blocks16(state);
                let thr = _mm512_set1_epi64(t53 as i64);
                let mut lo = 0u64;
                let mut hi = 0u64;
                for (j, blk) in blocks.iter().enumerate() {
                    // Each register is 8 stream-order u64 draws; the mask of
                    // `(x >> 11) < T` comparisons is 8 decision bits in order.
                    let shifted = _mm512_srli_epi64::<11>(*blk);
                    let m = _mm512_cmplt_epu64_mask(shifted, thr) as u64;
                    if j < 8 {
                        lo |= m << (8 * j);
                    } else {
                        hi |= m << (8 * (j - 8));
                    }
                }
                (lo, hi)
            }
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        lo | (hi << 32)
    }

    fn next_u32(&mut self) -> u32 {
        self.next_word()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        let mut c = ChaCha8Rng::seed_from_u64(43);
        let xs: Vec<u64> = (0..20).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..20).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..20).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn output_looks_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let n = 20_000;
        let mean = (0..n).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        // bit balance on raw words
        let ones: u32 = (0..1000).map(|_| rng.next_u32().count_ones()).sum();
        let frac = ones as f64 / 32_000.0;
        assert!((frac - 0.5).abs() < 0.02, "bit fraction {frac}");
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fill_decision_bits_matches_gen_bool() {
        let ps = [0.0, 1.0, 0.5, 0.125, 0.3, 1e-9, 0.999, 0.62584937];
        for (pi, &p) in ps.iter().enumerate() {
            for count in [0usize, 1, 63, 64, 65, 127, 128, 129, 500] {
                for warmup in [0usize, 3] {
                    let seed = 1000 + pi as u64;
                    let mut bulk = ChaCha8Rng::seed_from_u64(seed);
                    let mut scalar = ChaCha8Rng::seed_from_u64(seed);
                    for _ in 0..warmup {
                        assert_eq!(bulk.gen_bool(p), scalar.gen_bool(p));
                    }
                    let mut out = vec![0u64; count.div_ceil(64) + 1];
                    bulk.fill_decision_bits(p, count, &mut out);
                    for i in 0..count {
                        let got = (out[i / 64] >> (i % 64)) & 1 == 1;
                        let expect = scalar.gen_bool(p);
                        assert_eq!(got, expect, "p={p} count={count} warmup={warmup} i={i}");
                    }
                    // the generators consumed the same number of draws
                    assert_eq!(bulk.next_u64(), scalar.next_u64());
                }
            }
        }
    }

    #[test]
    fn decision_bits_above_count_are_zero() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut out = [u64::MAX; 3];
        rng.fill_decision_bits(0.5, 70, &mut out);
        assert_eq!(out[1] >> 6, 0, "tail bits must be cleared");
        assert_eq!(out[2], u64::MAX, "words beyond the count are untouched");
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn fill_decision_bits_rejects_bad_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut out = [0u64; 1];
        rng.fill_decision_bits(1.5, 10, &mut out);
    }

    #[test]
    fn masked_decisions_match_per_set_bit_gen_bool() {
        // Masks of varying density, including empty words and a full word.
        let mut mask_rng = ChaCha8Rng::seed_from_u64(77);
        for p in [0.0, 1.0, 0.5, 0.125, 0.37] {
            for trial in 0..4u64 {
                let masks: Vec<u64> = (0..40)
                    .map(|i| match i % 4 {
                        0 => 0,
                        1 => u64::MAX,
                        2 => mask_rng.next_u64() & mask_rng.next_u64() & mask_rng.next_u64(),
                        _ => mask_rng.next_u64(),
                    })
                    .collect();
                let seed = 500 + trial;
                let mut bulk = ChaCha8Rng::seed_from_u64(seed);
                let mut scalar = ChaCha8Rng::seed_from_u64(seed);
                let mut scratch = Vec::new();
                let mut out = vec![u64::MAX; masks.len()];
                bulk.fill_masked_decision_bits(p, &masks, &mut scratch, &mut out);
                for (i, &m) in masks.iter().enumerate() {
                    assert_eq!(out[i] & !m, 0, "bits outside the mask must be zero");
                    for b in 0..64 {
                        if (m >> b) & 1 == 1 {
                            let expect = scalar.gen_bool(p);
                            let got = (out[i] >> b) & 1 == 1;
                            assert_eq!(got, expect, "p={p} trial={trial} word={i} bit={b}");
                        }
                    }
                }
                // exactly one draw per set bit was consumed
                assert_eq!(bulk.next_u64(), scalar.next_u64());
            }
        }
    }

    #[test]
    fn masked_decisions_with_empty_masks_consume_nothing() {
        let mut bulk = ChaCha8Rng::seed_from_u64(11);
        let mut scalar = ChaCha8Rng::seed_from_u64(11);
        let mut scratch = Vec::new();
        let mut out = [u64::MAX; 3];
        bulk.fill_masked_decision_bits(0.5, &[0, 0, 0], &mut scratch, &mut out);
        assert_eq!(out, [0, 0, 0]);
        assert_eq!(bulk.next_u64(), scalar.next_u64());
    }
}
