//! Mask expansion — the CSCV-M decompression primitive.
//!
//! CSCV-M removes the padding zeros of a CSCVE and stores a `W`-bit
//! occupancy mask instead. The SpMV kernel has to re-inflate the packed
//! nonzeros into a full `W`-lane vector before the FMA:
//!
//! * **hardware path**: AVX-512 `vexpandps`/`vexpandpd` (zmm with
//!   `avx512f`, ymm/xmm with `avx512vl`; f64 ×16 is two zmm
//!   expansions) — the *only* intrinsic the whole
//!   suite uses, mirroring the paper's single exception to
//!   compiler-assisted vectorization;
//! * **software path** (`soft-vexpand`): a portable per-lane scatter loop.
//!   Deliberately branchy — the paper measures its high instruction
//!   overhead on pre-AVX-512 hardware (Zen2) and we preserve that
//!   behavioral difference.
//!
//! Compression (builder side) lives here too so the two directions are
//! tested as inverses.

use crate::detect::cpu_features;
use crate::scalar::Scalar;

/// Which expansion implementation a kernel was compiled/selected with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpandPath {
    /// AVX-512 `vexpand` instructions.
    Hardware,
    /// Portable per-lane scatter loop (`soft-vexpand`).
    Software,
}

impl std::fmt::Display for ExpandPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExpandPath::Hardware => write!(f, "vexpand"),
            ExpandPath::Software => write!(f, "soft-vexpand"),
        }
    }
}

/// Portable `soft-vexpand`: place the leading `mask.count_ones()` elements
/// of `src` into the lanes of the output whose mask bit is set; other lanes
/// are zero. Returns the expanded block.
///
/// # Panics
/// If `src` holds fewer than `mask.count_ones()` elements.
#[inline(always)]
pub fn expand_soft<T: Scalar, const W: usize>(mask: u32, src: &[T]) -> [T; W] {
    debug_assert!(W <= 32);
    let mut out = [T::ZERO; W];
    let mut k = 0usize;
    for (l, slot) in out.iter_mut().enumerate() {
        if mask & (1u32 << l) != 0 {
            *slot = src[k];
            k += 1;
        }
    }
    out
}

/// Builder-side inverse of expansion: append the nonzero lanes of `block`
/// to `dst` and return the occupancy mask (bit `l` set ⇔ `block[l] != 0`).
#[inline]
pub fn compress_into<T: Scalar, const W: usize>(block: &[T; W], dst: &mut Vec<T>) -> u32 {
    debug_assert!(W <= 32);
    let mut mask = 0u32;
    for (l, &v) in block.iter().enumerate() {
        if v != T::ZERO {
            mask |= 1u32 << l;
            dst.push(v);
        }
    }
    mask
}

/// Element types that may have a hardware expand path.
///
/// The kernel variant is chosen once per matrix from
/// [`hw_available`](MaskExpand::hw_available); hot loops then call either
/// [`expand_soft`] or [`expand_hw`](MaskExpand::expand_hw) without
/// re-checking features.
pub trait MaskExpand: Scalar {
    /// Whether `expand_hw::<W>` may be called on this machine.
    fn hw_available<const W: usize>() -> bool;

    /// Hardware mask expansion.
    ///
    /// # Safety
    /// * `Self::hw_available::<W>()` must have returned `true`;
    /// * `src` must point at at least `mask.count_ones()` readable elements.
    unsafe fn expand_hw<const W: usize>(mask: u32, src: *const Self) -> [Self; W];
}

/// Pick the expansion path for `(T, W)` on this machine.
pub fn select_path<T: MaskExpand, const W: usize>() -> ExpandPath {
    let path = if T::hw_available::<W>() {
        ExpandPath::Hardware
    } else {
        ExpandPath::Software
    };
    if cscv_trace::ENABLED {
        cscv_trace::span::event(
            "expand.select_path",
            &[
                ("lanes", W as f64),
                ("hardware", (path == ExpandPath::Hardware) as u8 as f64),
            ],
        );
    }
    path
}

/// Expand with an explicitly chosen path (dispatch hoisted out of hot loops
/// by the caller; this helper exists for tests and generic validators).
#[inline(always)]
pub fn expand_with<T: MaskExpand, const W: usize>(
    path: ExpandPath,
    mask: u32,
    src: &[T],
) -> [T; W] {
    match path {
        ExpandPath::Software => expand_soft::<T, W>(mask, src),
        ExpandPath::Hardware => {
            assert!(src.len() >= mask.count_ones() as usize);
            // SAFETY: path selection guaranteed availability; length checked.
            unsafe { T::expand_hw::<W>(mask, src.as_ptr()) }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The raw intrinsic wrappers. Each function is `unsafe` because it
    //! requires (a) the named target feature and (b) `mask.count_ones()`
    //! readable elements at `src` — `vexpandloadu` only touches that many.
    use std::arch::x86_64::*;

    /// # Safety
    /// Requires `avx512f` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn expand_f32x16(mask: u16, src: *const f32) -> [f32; 16] {
        let v = _mm512_maskz_expandloadu_ps(mask, src as *const _);
        std::mem::transmute::<__m512, [f32; 16]>(v)
    }

    /// # Safety
    /// Requires `avx512f` + `avx512vl` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn expand_f32x8(mask: u8, src: *const f32) -> [f32; 8] {
        let v = _mm256_maskz_expandloadu_ps(mask, src as *const _);
        std::mem::transmute::<__m256, [f32; 8]>(v)
    }

    /// # Safety
    /// Requires `avx512f` + `avx512vl` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn expand_f32x4(mask: u8, src: *const f32) -> [f32; 4] {
        let v = _mm_maskz_expandloadu_ps(mask, src as *const _);
        std::mem::transmute::<__m128, [f32; 4]>(v)
    }

    /// # Safety
    /// Requires `avx512f` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn expand_f64x8(mask: u8, src: *const f64) -> [f64; 8] {
        let v = _mm512_maskz_expandloadu_pd(mask, src as *const _);
        std::mem::transmute::<__m512d, [f64; 8]>(v)
    }

    /// # Safety
    /// Requires `avx512f` + `avx512vl` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn expand_f64x4(mask: u8, src: *const f64) -> [f64; 4] {
        let v = _mm256_maskz_expandloadu_pd(mask, src as *const _);
        std::mem::transmute::<__m256d, [f64; 4]>(v)
    }

    /// # Safety
    /// Requires `avx512f` + `avx512vl` and `mask.count_ones()`
    /// readable elements at `src`.
    #[target_feature(enable = "avx512f,avx512vl")]
    pub unsafe fn expand_f64x2(mask: u8, src: *const f64) -> [f64; 2] {
        let v = _mm_maskz_expandloadu_pd(mask, src as *const _);
        std::mem::transmute::<__m128d, [f64; 2]>(v)
    }
}

/// Copy a `[T; N]` intrinsic result into the generic `[T; W]` output.
///
/// Used inside `match W` arms where the concrete width is known dynamically
/// but the type system still sees the generic `W`.
///
/// # Safety
/// `W == N` — debug-asserted; a mismatch would read past `v`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn write_out<T: Scalar, const W: usize, const N: usize>(v: [T; N]) -> [T; W] {
    debug_assert_eq!(W, N);
    let mut out = [T::ZERO; W];
    std::ptr::copy_nonoverlapping(v.as_ptr(), out.as_mut_ptr(), W);
    out
}

impl MaskExpand for f32 {
    fn hw_available<const W: usize>() -> bool {
        cpu_features().hw_expand_available(4, W)
    }

    // SAFETY: trait contract (hw_available checked, count_ones readable
    // elements) matches each intrinsic wrapper's requirements; W == N in
    // every write_out arm.
    #[inline(always)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a W-lane mask has W significant bits, so it fits the W-lane intrinsic's u8/u16 mask"
    )]
    unsafe fn expand_hw<const W: usize>(mask: u32, src: *const Self) -> [Self; W] {
        #[cfg(target_arch = "x86_64")]
        {
            match W {
                16 => write_out::<f32, W, 16>(x86::expand_f32x16(mask as u16, src)),
                8 => write_out::<f32, W, 8>(x86::expand_f32x8(mask as u8, src)),
                4 => write_out::<f32, W, 4>(x86::expand_f32x4(mask as u8, src)),
                _ => unreachable!("no hardware expand for f32 x{W}"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (mask, src);
            unreachable!("hardware expand unavailable on this architecture")
        }
    }
}

impl MaskExpand for f64 {
    fn hw_available<const W: usize>() -> bool {
        cpu_features().hw_expand_available(8, W)
    }

    // SAFETY: trait contract (hw_available checked, count_ones readable
    // elements) matches each intrinsic wrapper's requirements; W == N in
    // every write_out arm.
    #[inline(always)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a W-lane mask has W significant bits, so it fits the W-lane intrinsic's u8/u16 mask"
    )]
    unsafe fn expand_hw<const W: usize>(mask: u32, src: *const Self) -> [Self; W] {
        #[cfg(target_arch = "x86_64")]
        {
            match W {
                16 => {
                    // Two 8-lane expansions; the high half's values
                    // follow the low half's popcount(mask & 0xFF), so
                    // together they read exactly popcount(mask) values.
                    let lo = x86::expand_f64x8(mask as u8, src);
                    let hi_src = src.add((mask & 0xFF).count_ones() as usize);
                    let hi = x86::expand_f64x8((mask >> 8) as u8, hi_src);
                    let mut out = [0.0f64; 16];
                    out[..8].copy_from_slice(&lo);
                    out[8..].copy_from_slice(&hi);
                    write_out::<f64, W, 16>(out)
                }
                8 => write_out::<f64, W, 8>(x86::expand_f64x8(mask as u8, src)),
                4 => write_out::<f64, W, 4>(x86::expand_f64x4(mask as u8, src)),
                2 => write_out::<f64, W, 2>(x86::expand_f64x2(mask as u8, src)),
                _ => unreachable!("no hardware expand for f64 x{W}"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = (mask, src);
            unreachable!("hardware expand unavailable on this architecture")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soft_expand_basic() {
        let src = [1.0f32, 2.0, 3.0];
        let out: [f32; 8] = expand_soft(0b1010_0100, &src);
        assert_eq!(out, [0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 3.0]);
    }

    #[test]
    fn soft_expand_empty_mask() {
        let src: [f64; 0] = [];
        let out: [f64; 4] = expand_soft(0, &src);
        assert_eq!(out, [0.0; 4]);
    }

    #[test]
    fn soft_expand_full_mask() {
        let src = [1.0f64, 2.0, 3.0, 4.0];
        let out: [f64; 4] = expand_soft(0b1111, &src);
        assert_eq!(out, src);
    }

    #[test]
    fn compress_then_expand_roundtrip() {
        let block = [0.0f32, 5.0, 0.0, -1.0, 2.5, 0.0, 0.0, 9.0];
        let mut packed = Vec::new();
        let mask = compress_into(&block, &mut packed);
        assert_eq!(mask, 0b1001_1010);
        assert_eq!(packed, vec![5.0, -1.0, 2.5, 9.0]);
        let out: [f32; 8] = expand_soft(mask, &packed);
        assert_eq!(out, block);
    }

    fn hw_soft_agree<T: MaskExpand, const W: usize>(values: &[T]) {
        if !T::hw_available::<W>() {
            return; // machine without AVX-512: nothing to cross-check
        }
        // Exhaustive masks for small W, sampled for W = 16.
        let max_mask: u32 = if W >= 16 { 0xFFFF } else { (1u32 << W) - 1 };
        let step = if W >= 16 { 257 } else { 1 };
        let mut mask = 0u32;
        while mask <= max_mask {
            let need = mask.count_ones() as usize;
            let src = &values[..need];
            let soft: [T; W] = expand_soft(mask, src);
            let hard: [T; W] = expand_with(ExpandPath::Hardware, mask, src);
            assert_eq!(soft, hard, "mask {mask:#b}");
            mask += step;
        }
    }

    #[test]
    fn hw_matches_soft_f32() {
        let values: Vec<f32> = (1..=16).map(|i| i as f32 * 1.5).collect();
        hw_soft_agree::<f32, 4>(&values);
        hw_soft_agree::<f32, 8>(&values);
        hw_soft_agree::<f32, 16>(&values);
    }

    #[test]
    fn hw_matches_soft_f64() {
        let values: Vec<f64> = (1..=8).map(|i| i as f64 * -0.75).collect();
        hw_soft_agree::<f64, 2>(&values);
        hw_soft_agree::<f64, 4>(&values);
        hw_soft_agree::<f64, 8>(&values);
    }

    /// f64 ×16 is two ×8 expansions stitched at popcount(mask & 0xFF):
    /// equal to `expand_soft` over random masks.
    #[test]
    fn hw_matches_soft_f64x16_random_masks() {
        if !f64::hw_available::<16>() {
            return;
        }
        let mut rng = crate::rng::XorShift64::new(16);
        let values: Vec<f64> = (1..=16).map(|i| i as f64 * 0.375 - 2.0).collect();
        for _ in 0..4096 {
            let mask = (rng.next_u64() & 0xFFFF) as u32;
            let src = &values[..mask.count_ones() as usize];
            let soft: [f64; 16] = expand_soft(mask, src);
            let hard: [f64; 16] = expand_with(ExpandPath::Hardware, mask, src);
            assert_eq!(soft, hard, "mask {mask:#018b}");
        }
        hw_soft_agree::<f64, 16>(&values);
    }

    #[test]
    fn select_path_consistent_with_detection() {
        let p = select_path::<f32, 16>();
        if cpu_features().avx512f {
            assert_eq!(p, ExpandPath::Hardware);
        } else {
            assert_eq!(p, ExpandPath::Software);
        }
        assert_eq!(select_path::<f64, 16>(), p);
        // Widths with no hardware variant always fall back to software.
        assert_eq!(select_path::<f64, 32>(), ExpandPath::Software);
    }

    #[test]
    fn display_names() {
        assert_eq!(ExpandPath::Hardware.to_string(), "vexpand");
        assert_eq!(ExpandPath::Software.to_string(), "soft-vexpand");
    }
}
