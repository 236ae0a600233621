//! Portable lane-array micro-kernels.
//!
//! Every kernel here is written as a fixed-trip-count loop over `[T; W]`
//! arrays (or exact chunks of slices) with FMA bodies. Compiled with
//! `-C target-cpu=native` (pinned by the repository's `.cargo/config.toml`)
//! LLVM lowers them to packed `vfmadd` instructions
//! of the widest available vector unit — this is the "compiler-assisted
//! vectorization" the paper relies on for performance portability, and the
//! reason the suite contains no per-ISA kernel copies.

use crate::scalar::Scalar;

/// `acc[l] = vals[l] * x + acc[l]` for each lane.
///
/// The CSCV inner-loop primitive: one CSCVE (a `W`-wide dense column
/// segment) folded into the reordered-`ỹ` accumulator.
#[inline(always)]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn fma_lanes<T: Scalar, const W: usize>(acc: &mut [T; W], x: T, vals: &[T; W]) {
    for l in 0..W {
        acc[l] = vals[l].mul_add(x, acc[l]);
    }
}

/// `K`×`W` register-tile FMA: fold one matrix lane block into `K`
/// accumulators, one per right-hand side, each scaled by that RHS's
/// own `x` scalar.
///
/// This is the batched-SpMM inner primitive: the matrix lane block
/// (`vals`) is loaded **once** and reused `K` times, so matrix traffic
/// is amortized across the batch while the per-RHS FMAs stay
/// independent (K·W-wide ILP for the auto-vectorizer).
#[inline(always)]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn fma_tile<T: Scalar, const W: usize, const K: usize>(
    accs: &mut [[T; W]; K],
    xs: &[T; K],
    vals: &[T; W],
) {
    for k in 0..K {
        for l in 0..W {
            accs[k][l] = vals[l].mul_add(xs[k], accs[k][l]);
        }
    }
}

/// Load a `K`×`W` tile from `K` consecutive `W`-blocks starting at `at`
/// — the interleaved multi-RHS `ỹ` layout, where RHS `k`'s segment for
/// a lane block sits at `base + k·W`.
#[inline(always)]
pub fn load_tile<T: Scalar, const W: usize, const K: usize>(src: &[T], at: usize) -> [[T; W]; K] {
    let mut out = [[T::ZERO; W]; K];
    for (k, tile) in out.iter_mut().enumerate() {
        tile.copy_from_slice(&src[at + k * W..at + (k + 1) * W]);
    }
    out
}

/// Store a `K`×`W` tile into `K` consecutive `W`-blocks starting at `at`.
#[inline(always)]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn store_tile<T: Scalar, const W: usize, const K: usize>(
    dst: &mut [T],
    at: usize,
    tile: &[[T; W]; K],
) {
    for (k, lanes) in tile.iter().enumerate() {
        dst[at + k * W..at + (k + 1) * W].copy_from_slice(lanes);
    }
}

/// Horizontal sum of a lane block (pairwise, keeps f32 error modest).
#[inline(always)]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn hsum<T: Scalar, const W: usize>(v: &[T; W]) -> T {
    let mut width = W;
    let mut buf = *v;
    while width > 1 {
        let half = width / 2;
        for i in 0..half {
            buf[i] += buf[i + half];
        }
        if width % 2 == 1 {
            buf[0] += buf[width - 1];
        }
        width = half;
    }
    buf[0]
}

/// `y += alpha * x` over whole slices (8-lane unrolled body + scalar tail).
#[inline]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    let mut xc = x.chunks_exact(8);
    let mut yc = y.chunks_exact_mut(8);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for l in 0..8 {
            ys[l] = xs[l].mul_add(alpha, ys[l]);
        }
    }
    for (xs, ys) in xc.remainder().iter().zip(yc.into_remainder()) {
        *ys = xs.mul_add(alpha, *ys);
    }
}

/// Dot product with 4 independent accumulators for instruction-level
/// parallelism (FMA latency hiding).
#[inline]
// AUDIT(panic-ok): checked indexing guards the lane window — callers present exactly W (or len-bounded) elements; panicking on a malformed offset beats UB.
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    let mut acc = [T::ZERO; 4];
    let mut xc = x.chunks_exact(4);
    let mut yc = y.chunks_exact(4);
    for (xs, ys) in (&mut xc).zip(&mut yc) {
        for l in 0..4 {
            acc[l] = xs[l].mul_add(ys[l], acc[l]);
        }
    }
    let mut tail = T::ZERO;
    for (xs, ys) in xc.remainder().iter().zip(yc.remainder()) {
        tail = xs.mul_add(*ys, tail);
    }
    hsum(&acc) + tail
}

/// Squared Euclidean norm.
#[inline]
pub fn norm2_sq<T: Scalar>(x: &[T]) -> T {
    dot(x, x)
}

/// `y += x` elementwise — the per-thread `y`-copy reduction primitive.
#[inline]
pub fn add_assign_slice<T: Scalar>(y: &mut [T], x: &[T]) {
    assert_eq!(x.len(), y.len());
    for (ys, xs) in y.iter_mut().zip(x) {
        *ys += *xs;
    }
}

/// `x *= alpha` elementwise.
#[inline]
pub fn scale<T: Scalar>(x: &mut [T], alpha: T) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fma_lanes_matches_scalar() {
        let mut acc = [1.0f64; 8];
        let vals = [0.5f64, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        fma_lanes(&mut acc, 2.0, &vals);
        for l in 0..8 {
            assert_eq!(acc[l], 1.0 + 2.0 * vals[l]);
        }
    }

    #[test]
    fn fma_tile_matches_k_independent_fma_lanes() {
        let vals = [0.5f64, 1.0, 1.5, 2.0];
        let xs = [2.0f64, -1.0, 0.25];
        let mut tile = [[1.0f64; 4]; 3];
        fma_tile(&mut tile, &xs, &vals);
        for k in 0..3 {
            let mut single = [1.0f64; 4];
            fma_lanes(&mut single, xs[k], &vals);
            assert_eq!(tile[k], single);
        }
    }

    #[test]
    fn tile_load_store_roundtrip_interleaved() {
        let src: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let tile: [[f32; 4]; 2] = load_tile(&src, 8);
        assert_eq!(tile, [[8.0, 9.0, 10.0, 11.0], [12.0, 13.0, 14.0, 15.0]]);
        let mut dst = vec![0.0f32; 20];
        store_tile(&mut dst, 4, &tile);
        assert_eq!(&dst[4..12], &src[8..16]);
        assert_eq!(&dst[..4], &[0.0; 4]);
    }

    #[test]
    fn hsum_all_widths() {
        assert_eq!(hsum(&[1.0f64]), 1.0);
        assert_eq!(hsum(&[1.0f64, 2.0]), 3.0);
        assert_eq!(hsum(&[1.0f64, 2.0, 3.0, 4.0]), 10.0);
        let v8: [f64; 8] = [1.0; 8];
        assert_eq!(hsum(&v8), 8.0);
        let v16: [f64; 16] = std::array::from_fn(|i| i as f64);
        assert_eq!(hsum(&v16), 120.0);
    }

    #[test]
    fn axpy_with_tail() {
        let x: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let mut y = vec![1.0f64; 11];
        axpy(3.0, &x, &mut y);
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 1.0 + 3.0 * i as f64);
        }
    }

    #[test]
    fn dot_matches_reference() {
        let x: Vec<f64> = (0..37).map(|i| (i as f64) * 0.25).collect();
        let y: Vec<f64> = (0..37).map(|i| (i as f64) - 10.0).collect();
        let reference: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - reference).abs() < 1e-9);
    }

    #[test]
    fn norm_and_scale_and_add() {
        let mut x = vec![3.0f32, 4.0];
        assert_eq!(norm2_sq(&x), 25.0);
        scale(&mut x, 2.0);
        assert_eq!(x, vec![6.0, 8.0]);
        let mut y = vec![1.0f32, 1.0];
        add_assign_slice(&mut y, &x);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn dot_empty_is_zero() {
        let e: Vec<f32> = vec![];
        assert_eq!(dot(&e, &e), 0.0);
    }
}
