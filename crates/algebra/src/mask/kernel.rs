//! Branch-free word kernels over mask blocks.
//!
//! Every bulk operation of the columnar mask path — AND/OR/ANDNOT between
//! rows, popcounts for certainty and µ_k, coverage tests — reduces to one of
//! the slice kernels below. The slices are contiguous `u64` blocks cut from a
//! [`super::MaskArena`], so the loops are pure data-parallel zips with no
//! pointer chasing and no per-iteration branches.
//!
//! Each kernel comes in two shapes, **selected by mask width**:
//!
//! * a word-at-a-time scalar loop for narrow masks (the common ≤ 3-word
//!   case: up to 192 worlds), where unrolling would only add prologue cost;
//! * a 4-wide explicitly unrolled loop over [`slice::chunks_exact`] for wider
//!   masks, which keeps four independent word operations in flight per
//!   iteration — exactly the shape LLVM auto-vectorizes into 128/256-bit
//!   lanes — with a scalar tail for the remainder.
//!
//! The split lives in the generic drivers `zip2_into`, `zip2_assign` and
//! `zip2_popcount`; the public kernels are thin `#[inline]` wrappers that
//! monomorphize the word operation into the loop body.
//!
//! Masks keep one invariant: bits at or above the world count in the last
//! block are always zero (`tail_mask`).

/// Widths at or above this many words take the 4-wide unrolled loops.
const UNROLL_WIDTH: usize = 4;

/// Number of `u64` blocks needed for `bits` worlds.
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// The valid-bit mask of the last block (all-ones when `bits` is a
/// multiple of 64).
pub(crate) fn tail_mask(bits: usize) -> u64 {
    match bits % 64 {
        0 => !0,
        r => (1u64 << r) - 1,
    }
}

/// Set bits `[lo, hi)` in a block buffer.
pub(crate) fn set_range(words: &mut [u64], lo: usize, hi: usize) {
    if lo >= hi {
        return;
    }
    let (lw, hw) = (lo / 64, (hi - 1) / 64);
    let lo_mask = !0u64 << (lo % 64);
    let hi_mask = !0u64 >> (63 - (hi - 1) % 64);
    if lw == hw {
        words[lw] |= lo_mask & hi_mask;
    } else {
        words[lw] |= lo_mask;
        for w in &mut words[lw + 1..hw] {
            *w = !0;
        }
        words[hw] |= hi_mask;
    }
}

/// `dst[i] = f(a[i], b[i])` over equal-length slices.
#[inline]
fn zip2_into(dst: &mut [u64], a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    debug_assert!(dst.len() == a.len() && a.len() == b.len());
    if dst.len() < UNROLL_WIDTH {
        for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
            *d = f(x, y);
        }
        return;
    }
    let tail = dst.len() % 4;
    let split = dst.len() - tail;
    for ((d, x), y) in dst[..split]
        .chunks_exact_mut(4)
        .zip(a.chunks_exact(4))
        .zip(b.chunks_exact(4))
    {
        d[0] = f(x[0], y[0]);
        d[1] = f(x[1], y[1]);
        d[2] = f(x[2], y[2]);
        d[3] = f(x[3], y[3]);
    }
    for ((d, &x), &y) in dst[split..].iter_mut().zip(&a[split..]).zip(&b[split..]) {
        *d = f(x, y);
    }
}

/// `dst[i] = f(dst[i], src[i])` over equal-length slices.
#[inline]
fn zip2_assign(dst: &mut [u64], src: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) {
    debug_assert_eq!(dst.len(), src.len());
    if dst.len() < UNROLL_WIDTH {
        for (d, &y) in dst.iter_mut().zip(src) {
            *d = f(*d, y);
        }
        return;
    }
    let tail = dst.len() % 4;
    let split = dst.len() - tail;
    for (d, y) in dst[..split].chunks_exact_mut(4).zip(src.chunks_exact(4)) {
        d[0] = f(d[0], y[0]);
        d[1] = f(d[1], y[1]);
        d[2] = f(d[2], y[2]);
        d[3] = f(d[3], y[3]);
    }
    for (d, &y) in dst[split..].iter_mut().zip(&src[split..]) {
        *d = f(*d, y);
    }
}

/// Fold `acc += g(f(a[i], b[i]))` with four independent accumulators (the
/// popcount kernels; independent lanes keep the popcnt chain off the
/// critical path).
#[inline]
fn zip2_popcount(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(a.len(), b.len());
    if a.len() < UNROLL_WIDTH {
        return a
            .iter()
            .zip(b)
            .map(|(&x, &y)| f(x, y).count_ones() as usize)
            .sum();
    }
    let tail = a.len() % 4;
    let split = a.len() - tail;
    let (mut c0, mut c1, mut c2, mut c3) = (0usize, 0usize, 0usize, 0usize);
    for (x, y) in a[..split].chunks_exact(4).zip(b.chunks_exact(4)) {
        c0 += f(x[0], y[0]).count_ones() as usize;
        c1 += f(x[1], y[1]).count_ones() as usize;
        c2 += f(x[2], y[2]).count_ones() as usize;
        c3 += f(x[3], y[3]).count_ones() as usize;
    }
    let mut total = c0 + c1 + c2 + c3;
    for (&x, &y) in a[split..].iter().zip(&b[split..]) {
        total += f(x, y).count_ones() as usize;
    }
    total
}

/// `dst = a & b`.
#[inline]
pub fn and_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    zip2_into(dst, a, b, |x, y| x & y);
}

/// `dst = a | b`.
#[inline]
pub fn or_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    zip2_into(dst, a, b, |x, y| x | y);
}

/// `dst = a & !b` (set difference of world sets).
#[inline]
pub fn andnot_into(dst: &mut [u64], a: &[u64], b: &[u64]) {
    zip2_into(dst, a, b, |x, y| x & !y);
}

/// `dst &= src`.
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    zip2_assign(dst, src, |x, y| x & y);
}

/// `dst |= src`.
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    zip2_assign(dst, src, |x, y| x | y);
}

/// `dst &= !src`.
#[inline]
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    zip2_assign(dst, src, |x, y| x & !y);
}

/// `dst = !src`, with bits past `bits` kept zero (the block invariant).
#[inline]
pub fn not_into(dst: &mut [u64], src: &[u64], bits: usize) {
    zip2_assign(dst, src, |_, y| !y);
    if let Some(last) = dst.last_mut() {
        *last &= tail_mask(bits);
    }
}

/// Set every valid bit: all-ones up to `bits`, zero above.
#[inline]
pub fn fill(dst: &mut [u64], bits: usize) {
    for w in dst.iter_mut() {
        *w = !0;
    }
    if let Some(last) = dst.last_mut() {
        *last &= tail_mask(bits);
    }
}

/// Number of set bits.
#[inline]
pub fn popcount(a: &[u64]) -> usize {
    zip2_popcount(a, a, |x, _| x)
}

/// `|a ∩ b|` without materializing the intersection.
#[inline]
pub fn popcount_and(a: &[u64], b: &[u64]) -> usize {
    zip2_popcount(a, b, |x, y| x & y)
}

/// `true` iff no bit is set.
#[inline]
pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&w| w == 0)
}

/// `true` iff `small ⊆ big` as world sets (`small & !big == 0`).
#[inline]
pub fn covers(big: &[u64], small: &[u64]) -> bool {
    debug_assert_eq!(big.len(), small.len());
    small.iter().zip(big).all(|(&s, &b)| s & !b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (xorshift64*), so the tests cover
    /// dense, sparse and boundary patterns without a RNG dependency.
    fn words(seed: u64, n: usize) -> Vec<u64> {
        let mut s = seed | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                s.wrapping_mul(0x2545_f491_4f6c_dd1d)
            })
            .collect()
    }

    /// Every width from empty through several unrolled blocks plus tails.
    const WIDTHS: [usize; 8] = [0, 1, 2, 3, 4, 5, 8, 11];

    #[test]
    fn binary_kernels_match_naive_loops() {
        for &n in &WIDTHS {
            let a = words(3, n);
            let b = words(17, n);
            let mut dst = vec![0u64; n];

            and_into(&mut dst, &a, &b);
            assert!(dst.iter().zip(&a).zip(&b).all(|((&d, &x), &y)| d == x & y));

            or_into(&mut dst, &a, &b);
            assert!(dst.iter().zip(&a).zip(&b).all(|((&d, &x), &y)| d == x | y));

            andnot_into(&mut dst, &a, &b);
            assert!(dst.iter().zip(&a).zip(&b).all(|((&d, &x), &y)| d == x & !y));
        }
    }

    #[test]
    fn assign_kernels_match_into_kernels() {
        for &n in &WIDTHS {
            let a = words(5, n);
            let b = words(23, n);
            let mut expect = vec![0u64; n];

            let mut d = a.clone();
            and_assign(&mut d, &b);
            and_into(&mut expect, &a, &b);
            assert_eq!(d, expect, "and width {n}");

            let mut d = a.clone();
            or_assign(&mut d, &b);
            or_into(&mut expect, &a, &b);
            assert_eq!(d, expect, "or width {n}");

            let mut d = a.clone();
            andnot_assign(&mut d, &b);
            andnot_into(&mut expect, &a, &b);
            assert_eq!(d, expect, "andnot width {n}");
        }
    }

    #[test]
    fn popcounts_match_word_counting() {
        for &n in &WIDTHS {
            let a = words(7, n);
            let b = words(29, n);
            let naive: usize = a.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(popcount(&a), naive, "width {n}");
            let naive_and: usize = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x & y).count_ones() as usize)
                .sum();
            assert_eq!(popcount_and(&a, &b), naive_and, "width {n}");
        }
    }

    #[test]
    fn not_and_fill_respect_the_tail_mask() {
        for bits in [0usize, 1, 63, 64, 65, 127, 128, 300] {
            let n = bits.div_ceil(64);
            let mut dst = vec![0u64; n];
            fill(&mut dst, bits);
            assert_eq!(popcount(&dst), bits, "fill {bits}");

            let src = vec![0u64; n];
            let mut inv = vec![0u64; n];
            not_into(&mut inv, &src, bits);
            assert_eq!(inv, dst, "¬∅ must equal the full mask at {bits} bits");
            not_into(&mut inv, &dst, bits);
            assert!(is_zero(&inv), "¬full must be empty at {bits} bits");
        }
    }

    #[test]
    fn covers_is_subset_order() {
        let big = vec![0b1111u64, !0, 0b1010];
        let small = vec![0b0101u64, 0xffff_0000, 0b1000];
        assert!(covers(&big, &small));
        assert!(!covers(&small, &big));
        assert!(covers(&big, &big));
        assert!(covers(&small, &[0, 0, 0]));
    }

    #[test]
    fn set_range_handles_word_boundaries() {
        let mut words = vec![0u64; 3];
        set_range(&mut words, 60, 70);
        assert_eq!(popcount(&words), 10);
        assert_eq!(words[0], !0u64 << 60);
        assert_eq!(words[1], (1u64 << 6) - 1);
        set_range(&mut words, 0, 192);
        assert_eq!(popcount(&words), 192);
    }
}
