//! Offline shim for `rand_chacha`: a real ChaCha8 block function behind the
//! `rand` shim's [`RngCore`]/[`SeedableRng`] traits. Output streams are
//! deterministic and high-quality but not bit-compatible with upstream
//! `rand_chacha` (the workspace only relies on determinism).
//!
//! Besides the word-at-a-time [`RngCore`] interface, the generator exposes
//! one bulk producer, [`ChaCha8Rng::fill_masked_decision_bits`], that emits
//! **exactly** the decisions the scalar interface would, one `gen_bool` per
//! `next_u64` and per set bit of a mask, and leaves the generator where the
//! scalar calls leave it. It also takes a `wanted` mask, and computes only
//! the 8-draw blocks that hold a wanted draw:
//!
//! - the wanted bits are packed into stream order (BMI2 `pext`);
//! - counter-mode blocks are independent, so one kernel computes the blocks
//!   whose byte of that stream is nonzero 16 at a time from a list of block
//!   counters: on x86-64 with AVX-512F in the lanes of 512-bit vectors,
//!   roughly an order of magnitude faster per `u64` than the scalar path;
//!   elsewhere by looping the scalar block function;
//! - the decisions are spread back onto the masks (`pdep`).
//!
//! The skipped blocks are never computed, and for `p ∈ {0, 1}`, where every
//! decision is known without its draw, no block is. The bit-sliced radio
//! engine's Decay rounds and the spokesman samplers depend on this being a
//! pure speedup with no stream divergence.

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

/// How many blocks the bulk kernel produces per batch (128 `u64`s).
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
        self.set_counter(self.counter().wrapping_add(1));
        self.word_idx = 0;
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

    /// Scatters the wanted `gen_bool(p)` decisions into the set-bit
    /// positions of `masks`.
    ///
    /// One decision is consumed per set bit, in order: masks are scanned
    /// word by word and bits from least to most significant, so decision `j`
    /// of the stream belongs to the `j`-th set bit overall. `out[i]`
    /// receives the decisions for `masks[i] & wanted[i]` (its other bits are
    /// zero); words beyond `masks.len()` are untouched. Bit-identical to
    /// walking the set bits of `masks`, calling `gen_bool(p)` on each and
    /// keeping the results where `wanted` is set: exactly
    /// `masks.count_ones()` draws are consumed, wanted or not.
    ///
    /// Only the draws that are wanted are computed. ChaCha is counter-mode,
    /// so the 8-draw blocks that hold no wanted draw are skipped, and the
    /// blocks that do are computed 16 at a time by one kernel over a list
    /// of block counters. For `p ∈ {0, 1}` every decision is known without
    /// its draw and no block is computed at all. Either way the generator
    /// is left exactly where the scalar stream would leave it.
    ///
    /// `scratch` is working storage for the packed wanted and decision
    /// streams; it is resized as needed and its previous contents are
    /// ignored (callers keep one buffer alive across calls to stay
    /// allocation-free).
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1]`, if `wanted` and `masks` differ in
    /// length, or if `out` is shorter than `masks`.
    pub fn fill_masked_decision_bits(
        &mut self,
        p: f64,
        masks: &[u64],
        wanted: &[u64],
        scratch: &mut Vec<u64>,
        out: &mut [u64],
    ) {
        assert!(
            out.len() >= masks.len(),
            "output buffer shorter than masks: {} < {}",
            out.len(),
            masks.len()
        );
        assert_eq!(
            wanted.len(),
            masks.len(),
            "wanted and masks differ in length"
        );
        let t53 = gen_bool_threshold(p);
        let out = &mut out[..masks.len()];
        if self.word_idx % 2 == 1 {
            // After an odd number of `next_u32` calls every draw straddles
            // two blocks, so the scalar stream serves them one by one.
            for ((o, &m), &w) in out.iter_mut().zip(masks).zip(wanted) {
                let mut word = 0u64;
                let mut rest = m;
                while rest != 0 {
                    let bit = rest & rest.wrapping_neg();
                    if (self.next_u64() >> 11) < t53 {
                        word |= bit;
                    }
                    rest ^= bit;
                }
                *o = word & w;
            }
            return;
        }
        // Stream bit `lead + j` holds draw `j`, so byte `k` of the packed
        // streams is the block with counter `base + k`: the partly read
        // block in `self.block` is byte 0 unless it is used up.
        let lead = (self.word_idx % 16) / 2;
        let base = self.counter() - u64::from(self.word_idx < 16);
        let end = if t53 == 0 || t53 == 1 << 53 {
            // Every decision is known without its draw.
            for ((o, &m), &w) in out.iter_mut().zip(masks).zip(wanted) {
                *o = if t53 == 0 { 0 } else { m & w };
            }
            lead + masks.iter().map(|m| m.count_ones() as usize).sum::<usize>()
        } else {
            // The packed stream needs at most `masks.len() + 1` words, and
            // one guard word lets the deposit read bit windows that
            // straddle the final word without bounds checks; the kernel's
            // decision bytes follow it.
            let words = masks.len() + 2;
            scratch.resize(2 * words + 3, 0);
            let (stream, decided) = scratch.split_at_mut(words);
            stream.fill(0);
            let end = simd::extract(masks, wanted, stream, lead);
            self.decide_wanted(t53, base, &mut stream[..end.div_ceil(64)], decided);
            simd::deposit(masks, stream, lead, out);
            end
        };
        self.seek_draw_end(base, end);
    }

    /// The counter of the next block [`Self::refill`] computes.
    #[inline]
    fn counter(&self) -> u64 {
        self.state[12] as u64 | ((self.state[13] as u64) << 32)
    }

    #[inline]
    fn set_counter(&mut self, counter: u64) {
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
    }

    /// ANDs each wanted bit of the packed stream `stream` (byte `k` is the
    /// block with counter `base + k`) with its `gen_bool` decision,
    /// computing only the blocks whose byte is nonzero, 16 per kernel call.
    /// The kernel's decision bytes are packed in block order into `decided`
    /// (one word per 8 nonzero bytes, plus a guard word) and then spread
    /// back onto the nonzero bytes.
    fn decide_wanted(&self, t53: u64, base: u64, stream: &mut [u64], decided: &mut [u64]) {
        let use_avx512 = simd::avx512_available();
        let mut counters = [0u64; BULK_BLOCKS];
        let mut len = 0;
        let mut batches = 0;
        for (w, &x) in stream.iter().enumerate() {
            let mut nonzero = simd::nonzero_bytes(x);
            while nonzero != 0 {
                let k = w * 8 + nonzero.trailing_zeros() as usize / 8;
                nonzero &= nonzero - 1;
                counters[len] = base + k as u64;
                len += 1;
                if len == BULK_BLOCKS {
                    (decided[2 * batches], decided[2 * batches + 1]) =
                        simd::blocks16_decisions(&self.state, &counters, t53, use_avx512);
                    batches += 1;
                    len = 0;
                }
            }
        }
        if len > 0 {
            // Pad the batch by repeating its last block; the padding's
            // decisions are never read.
            let last = counters[len - 1];
            counters[len..].fill(last);
            (decided[2 * batches], decided[2 * batches + 1]) =
                simd::blocks16_decisions(&self.state, &counters, t53, use_avx512);
        }
        simd::spread_bytes(stream, decided);
    }

    /// Leaves the generator where the scalar stream leaves it once the
    /// draw before stream bit `end` is consumed (see
    /// [`Self::fill_masked_decision_bits`] for the bit layout from `base`).
    fn seek_draw_end(&mut self, base: u64, end: usize) {
        let lead = (self.word_idx % 16) / 2;
        if end == lead {
            return;
        }
        let block = base + ((end - 1) / 8) as u64;
        let used = (end - 1) % 8 + 1;
        if used == U64_PER_BLOCK {
            // The block is used up: the next draw refills from the one after.
            self.set_counter(block + 1);
            self.word_idx = 16;
            return;
        }
        if block + 1 != self.counter() || self.word_idx == 16 {
            self.set_counter(block);
            self.refill();
        }
        self.word_idx = 2 * used;
    }
}

/// Bulk block production: decisions over any 16 counter-mode blocks, the
/// packing of wanted mask bits into stream order, and the deposit of
/// stream-order decisions into masks. The AVX-512 path computes all 16
/// blocks in the lanes of 512-bit vectors and compares their draws in
/// place; the portable path loops the scalar block function. Both produce
/// identical bytes.
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

    /// `gen_bool`-threshold decisions for the 8 draws of each of the 16
    /// blocks with counters `counters` (the counter in `state` is ignored):
    /// draw `d` of block `counters[j]` lands in bit `8 * j + d` of the
    /// `(lo, hi)` pair. Consecutive counters give 128 draws in stream order.
    #[inline]
    pub fn blocks16_decisions(
        state: &[u32; 16],
        counters: &[u64; BULK_BLOCKS],
        t53: u64,
        use_avx512: bool,
    ) -> (u64, u64) {
        #[cfg(target_arch = "x86_64")]
        if use_avx512 {
            // SAFETY: gated on runtime AVX-512F detection.
            return unsafe { avx512::blocks16_decisions(state, counters, t53) };
        }
        let _ = use_avx512;
        let mut buf = [0u64; BULK_U64];
        scalar_blocks16(state, counters, &mut buf);
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

    /// Packs the bits of each `wanted` word that lie in its mask word into
    /// stream order, starting at bit `start` of the zeroed `bits`: the
    /// `j`-th set mask bit overall lands on bit `start + j`, set iff it is
    /// wanted (BMI2 `pext` when available; a per-set-bit loop otherwise).
    /// Returns the bit after the last set mask bit. The inverse of
    /// [`deposit`].
    pub fn extract(masks: &[u64], wanted: &[u64], bits: &mut [u64], start: usize) -> usize {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: gated on runtime BMI2 detection.
            return unsafe { extract_bmi2(masks, wanted, bits, start) };
        }
        extract_generic(masks, wanted, bits, start)
    }

    /// The high bit of each nonzero byte of `x`.
    #[inline]
    pub fn nonzero_bytes(x: u64) -> u64 {
        const LOW7: u64 = 0x7f7f_7f7f_7f7f_7f7f;
        ((x & LOW7).wrapping_add(LOW7) | x) & !LOW7
    }

    /// ANDs the nonzero bytes of `stream`, in order, with the consecutive
    /// bytes of `packed` (BMI2 `pdep` spreads each word's share at once
    /// when available; a per-byte loop otherwise). `packed` must hold one
    /// byte per nonzero byte of `stream` plus one guard word.
    pub fn spread_bytes(stream: &mut [u64], packed: &[u64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: gated on runtime BMI2 detection.
            unsafe { spread_bytes_bmi2(stream, packed) };
            return;
        }
        spread_bytes_generic(stream, packed);
    }

    pub fn spread_bytes_generic(stream: &mut [u64], packed: &[u64]) {
        let mut pos = 0;
        for x in stream.iter_mut() {
            let mut nonzero = nonzero_bytes(*x);
            while nonzero != 0 {
                let shift = nonzero.trailing_zeros() & !7;
                nonzero &= nonzero - 1;
                *x &= ((read_bits(packed, pos) & 0xff) << shift) | !(0xff << shift);
                pos += 8;
            }
        }
    }

    /// # Safety
    /// Requires BMI2 at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    unsafe fn spread_bytes_bmi2(stream: &mut [u64], packed: &[u64]) {
        use std::arch::x86_64::_pdep_u64;
        let mut pos = 0;
        for x in stream.iter_mut() {
            let nonzero = nonzero_bytes(*x);
            if nonzero != 0 {
                // 0xff on every nonzero byte.
                let bytes = (nonzero >> 7) * 0xff;
                *x &= _pdep_u64(read_bits(packed, pos), bytes);
                pos += bytes.count_ones() as usize;
            }
        }
    }

    /// ORs the low `≤ 64` bits of `x` into `bits` at bit offset `pos`.
    #[inline]
    fn write_bits(bits: &mut [u64], pos: usize, x: u64) {
        let (w, s) = (pos / 64, pos % 64);
        bits[w] |= x << s;
        if s != 0 {
            bits[w + 1] |= x >> (64 - s);
        }
    }

    pub fn extract_generic(masks: &[u64], wanted: &[u64], bits: &mut [u64], start: usize) -> usize {
        let mut pos = start;
        for (&m, &w) in masks.iter().zip(wanted) {
            let mut packed = 0u64;
            let mut rest = m;
            let mut i = 0;
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                packed |= u64::from(w & bit != 0) << i;
                rest ^= bit;
                i += 1;
            }
            write_bits(bits, pos, packed);
            pos += i;
        }
        pos
    }

    /// # Safety
    /// Requires BMI2 at runtime.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "bmi2")]
    unsafe fn extract_bmi2(masks: &[u64], wanted: &[u64], bits: &mut [u64], start: usize) -> usize {
        use std::arch::x86_64::_pext_u64;
        let mut pos = start;
        for (&m, &w) in masks.iter().zip(wanted) {
            if m != 0 {
                write_bits(bits, pos, _pext_u64(w, m));
                pos += m.count_ones() as usize;
            }
        }
        pos
    }

    /// Scatters the packed decision stream in `bits`, starting at bit
    /// `start`, into the set-bit positions of each mask word (BMI2 `pdep`
    /// when available; a per-set-bit loop otherwise). `bits` must hold
    /// `start + masks.count_ones()` bits plus one guard word.
    pub fn deposit(masks: &[u64], bits: &[u64], start: usize, out: &mut [u64]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("bmi2") {
            // SAFETY: gated on runtime BMI2 detection.
            unsafe { deposit_bmi2(masks, bits, start, out) };
            return;
        }
        deposit_generic(masks, bits, start, out);
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

    pub fn deposit_generic(masks: &[u64], bits: &[u64], start: usize, out: &mut [u64]) {
        let mut pos = start;
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
    unsafe fn deposit_bmi2(masks: &[u64], bits: &[u64], start: usize, out: &mut [u64]) {
        use std::arch::x86_64::_pdep_u64;
        let mut pos = start;
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

    /// The 16 blocks with counters `counters`, each as 8 `u64` draws in
    /// stream order.
    fn scalar_blocks16(
        state: &[u32; 16],
        counters: &[u64; BULK_BLOCKS],
        out: &mut [u64; BULK_U64],
    ) {
        let mut st = *state;
        for (b, &counter) in counters.iter().enumerate() {
            st[12] = counter as u32;
            st[13] = (counter >> 32) as u32;
            let block = raw_block(&st);
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

        /// `gen_bool`-threshold decisions for the blocks with counters
        /// `counters`, laid out as [`super::blocks16_decisions`] describes.
        ///
        /// The 16 blocks are computed one per 32-bit lane, and lane
        /// `4q + 2h + e` computes `counters[8h + 2q + e]`. Draw `d` is words
        /// `2d` (low half) and `2d + 1` (high half), and the 32-bit unpacks
        /// pair them within each 128-bit lane, so the low unpack holds draw
        /// `d` of blocks 0..8 in order and the high unpack that of blocks
        /// 8..16: two comparisons give draw `d`'s 16 decisions, with no
        /// block transpose.
        ///
        /// # Safety
        /// Requires AVX-512F at runtime.
        #[target_feature(enable = "avx512f")]
        pub unsafe fn blocks16_decisions(
            state: &[u32; 16],
            counters: &[u64; 16],
            t53: u64,
        ) -> (u64, u64) {
            unsafe {
                let mut v: [__m512i; 16] = [_mm512_setzero_si512(); 16];
                for (w, lane) in v.iter_mut().enumerate() {
                    *lane = _mm512_set1_epi32(state[w] as i32);
                }
                let mut c_lo = [0u32; 16];
                let mut c_hi = [0u32; 16];
                for lane in 0..16 {
                    let (q, h, e) = (lane / 4, lane / 2 % 2, lane % 2);
                    let c = counters[8 * h + 2 * q + e];
                    c_lo[lane] = c as u32;
                    c_hi[lane] = (c >> 32) as u32;
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

                // Byte `d` of `lo` (`hi`) collects draw `d` of blocks 0..8
                // (8..16), one bit per block; transposing the 8×8 bit
                // matrices makes byte `j` block `j`'s 8 draws.
                let thr = _mm512_set1_epi64(t53 as i64);
                let mut lo = 0u64;
                let mut hi = 0u64;
                for d in 0..8 {
                    let low = _mm512_unpacklo_epi32(v[2 * d], v[2 * d + 1]);
                    let high = _mm512_unpackhi_epi32(v[2 * d], v[2 * d + 1]);
                    let accept = |x| _mm512_cmplt_epu64_mask(_mm512_srli_epi64::<11>(x), thr);
                    lo |= u64::from(accept(low)) << (8 * d);
                    hi |= u64::from(accept(high)) << (8 * d);
                }
                (super::transpose8(lo), super::transpose8(hi))
            }
        }
    }

    /// Transposes an 8×8 bit matrix stored one row per byte: bit `c` of
    /// byte `r` moves to bit `r` of byte `c`.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub fn transpose8(mut x: u64) -> u64 {
        let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
        x ^= t ^ (t << 7);
        let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
        x ^= t ^ (t << 14);
        let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
        x ^ t ^ (t << 28)
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
    use proptest::prelude::*;
    use rand::Rng;

    /// `p = 0`, the dyadic probabilities `2^{-j}` for `j ≤ 13` (so `p = 1`
    /// too), `0.37`, and thresholds near both ends.
    fn probability(index: usize) -> f64 {
        match index {
            0 => 0.0,
            1..=14 => 0.5f64.powi(index as i32 - 1),
            15 => 0.37,
            16 => 1e-9,
            17 => 0.999,
            _ => 0.62584937,
        }
    }

    /// `words` mask or wanted words of one of five shapes: empty, full,
    /// sparse, half dense, or runs of full and empty words (so that whole
    /// blocks are skipped between wanted ones).
    fn words_of_kind(kind: usize, words: usize, rng: &mut ChaCha8Rng) -> Vec<u64> {
        (0..words)
            .map(|i| match kind {
                0 => 0,
                1 => u64::MAX,
                2 => rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64(),
                3 => rng.next_u64(),
                _ if (i / 3) % 2 == 0 => u64::MAX,
                _ => 0,
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The masked bulk call equals the scalar filter, one `gen_bool(p)`
        /// per set mask bit ANDed with `wanted`, and leaves the stream where
        /// the scalar filter leaves it. Warm-ups of `next_u64` and `next_u32`
        /// start it at every block offset, odd word offsets included; up to
        /// 40 full mask words hold 320 blocks, so full 16-block batches,
        /// skipped blocks and a partial last batch all run.
        #[test]
        fn masked_decisions_equal_the_scalar_filter_on_wanted_bits(
            p_and_warm_up in 0usize..19 * 60,
            words in 0usize..41,
            kinds in 0usize..25,
            seed in any::<u64>(),
        ) {
            let (p, warm_up) = (probability(p_and_warm_up % 19), p_and_warm_up / 19);
            let mut shape = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
            let masks = words_of_kind(kinds / 5, words, &mut shape);
            let wanted = words_of_kind(kinds % 5, words, &mut shape);
            let mut bulk = ChaCha8Rng::seed_from_u64(seed);
            let mut scalar = ChaCha8Rng::seed_from_u64(seed);
            // Up to 19 `next_u64`s, then up to two `next_u32`s.
            for _ in 0..warm_up / 3 {
                prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
            }
            for _ in 0..warm_up % 3 {
                prop_assert_eq!(bulk.next_u32(), scalar.next_u32());
            }
            let mut scratch = vec![u64::MAX; 3];
            let mut out = vec![u64::MAX; words + 1];
            bulk.fill_masked_decision_bits(p, &masks, &wanted, &mut scratch, &mut out);
            for (i, (&m, &w)) in masks.iter().zip(&wanted).enumerate() {
                let mut expect = 0u64;
                for b in 0..64 {
                    if (m >> b) & 1 == 1 && scalar.gen_bool(p) {
                        expect |= 1 << b;
                    }
                }
                prop_assert_eq!(out[i], expect & w, "word {}", i);
            }
            prop_assert_eq!(out[words], u64::MAX, "the word past the masks is untouched");
            // Exactly `masks.count_ones()` draws were consumed.
            prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
            prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
        }
    }

    #[test]
    fn portable_bit_moves_agree_with_the_dispatched_ones() {
        // On a BMI2 host the dispatched paths use `pext`/`pdep`; elsewhere
        // this compares the portable loops with themselves.
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        for kinds in 0..25 {
            let masks = words_of_kind(kinds / 5, 30, &mut rng);
            let wanted = words_of_kind(kinds % 5, 30, &mut rng);
            for start in [0, 3, 8] {
                let (mut fast, mut slow) = (vec![0u64; 32], vec![0u64; 32]);
                let end = simd::extract(&masks, &wanted, &mut fast, start);
                assert_eq!(
                    end,
                    simd::extract_generic(&masks, &wanted, &mut slow, start)
                );
                assert_eq!(fast, slow, "extract, kinds {kinds} start {start}");
                let packed: Vec<u64> = (0..33).map(|_| rng.next_u64()).collect();
                let mut slow_stream = fast.clone();
                simd::spread_bytes(&mut fast, &packed);
                simd::spread_bytes_generic(&mut slow_stream, &packed);
                assert_eq!(fast, slow_stream, "spread, kinds {kinds} start {start}");
                let (mut out_fast, mut out_slow) = (vec![0u64; 30], vec![0u64; 30]);
                simd::deposit(&masks, &packed, start, &mut out_fast);
                simd::deposit_generic(&masks, &packed, start, &mut out_slow);
                assert_eq!(out_fast, out_slow, "deposit, kinds {kinds} start {start}");
            }
        }
    }

    #[test]
    fn transpose8_swaps_rows_and_columns() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for _ in 0..100 {
            let x = rng.next_u64();
            let t = simd::transpose8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(t >> (8 * c + r) & 1, x >> (8 * r + c) & 1, "({r}, {c})");
                }
            }
        }
    }

    #[test]
    fn block_kernels_agree_on_a_counter_list() {
        if !simd::avx512_available() {
            return;
        }
        let rng = ChaCha8Rng::seed_from_u64(3);
        // Out of order, with gaps, repeats and a 64-bit wrap.
        let counters = [
            9,
            2,
            2,
            40,
            1 << 33,
            0,
            7,
            7,
            7,
            u64::MAX,
            5,
            11,
            3,
            3,
            100,
            2,
        ];
        for t53 in [1u64, 1 << 52, 3 << 50, (1 << 53) - 1] {
            assert_eq!(
                simd::blocks16_decisions(&rng.state, &counters, t53, true),
                simd::blocks16_decisions(&rng.state, &counters, t53, false),
                "t53 = {t53}"
            );
        }
    }

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
    #[should_panic(expected = "outside [0,1]")]
    fn masked_decisions_reject_bad_probability() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut out = [0u64; 1];
        rng.fill_masked_decision_bits(1.5, &[u64::MAX], &[u64::MAX], &mut Vec::new(), &mut out);
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
                bulk.fill_masked_decision_bits(p, &masks, &masks, &mut scratch, &mut out);
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
        bulk.fill_masked_decision_bits(0.5, &[0, 0, 0], &[0, 0, 0], &mut scratch, &mut out);
        assert_eq!(out, [0, 0, 0]);
        assert_eq!(bulk.next_u64(), scalar.next_u64());
    }
}
