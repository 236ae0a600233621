//! The element trait shared by every kernel in the suite.
//!
//! The paper evaluates both single- and double-precision SpMV (single
//! precision being the clinically relevant and harder case), so everything
//! downstream is generic over [`Scalar`], implemented for `f32` and `f64`.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Floating-point element type used throughout the suite.
///
/// Deliberately small: just the operations the kernels, builders and
/// reconstruction algorithms need, with `mul_add` as the FMA primitive the
/// vectorizer fuses into packed `vfmadd` instructions.
pub trait Scalar:
    Copy
    + Clone
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum<Self>
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Human-readable type name (`"f32"` / `"f64"`), used in report tables.
    const NAME: &'static str;
    /// Size in bytes; feeds the memory-requirement model `M_Rit`.
    const BYTES: usize;

    /// Lossy conversion from `f64` (the CT generator computes in `f64`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` for error metrics and comparisons.
    fn to_f64(self) -> f64;
    /// Fused multiply-add: `self * a + b`.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `true` when neither NaN nor infinite.
    fn is_finite(self) -> bool;
    /// IEEE maximum (propagating the larger value).
    fn max_val(self, other: Self) -> Self;
    /// IEEE minimum.
    fn min_val(self, other: Self) -> Self;
    /// Default relative tolerance for cross-implementation comparisons.
    ///
    /// Different summation orders across formats accumulate different
    /// rounding; tolerances are scaled by this in tests and validators.
    fn cmp_epsilon() -> f64;
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal, $eps:expr) => {
        impl Scalar for $t {
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const NAME: &'static str = $name;
            const BYTES: usize = std::mem::size_of::<$t>();

            #[inline(always)]
            // `allow`, not `expect`: only the f32 expansion narrows.
            #[allow(
                clippy::cast_possible_truncation,
                reason = "rounding f64 to the working precision is this function's purpose"
            )]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
            #[inline(always)]
            fn max_val(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min_val(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn cmp_epsilon() -> f64 {
                $eps
            }
        }
    };
}

impl_scalar!(f32, "f32", 1e-4);
impl_scalar!(f64, "f64", 1e-10);

#[cfg(test)]
mod tests {
    use super::*;

    fn generic_identities<T: Scalar>() {
        assert_eq!(T::ZERO + T::ONE, T::ONE);
        assert_eq!(T::ONE * T::ONE, T::ONE);
        assert_eq!(T::from_f64(2.0).to_f64(), 2.0);
        let fma = T::from_f64(2.0).mul_add(T::from_f64(3.0), T::from_f64(1.0));
        assert_eq!(fma.to_f64(), 7.0);
        assert!(T::ONE.is_finite());
        assert!(!(T::ONE / T::ZERO).is_finite());
        assert_eq!((-T::ONE).abs(), T::ONE);
        assert_eq!(T::from_f64(4.0).sqrt().to_f64(), 2.0);
        assert_eq!(T::ZERO.max_val(T::ONE), T::ONE);
        assert_eq!(T::ZERO.min_val(T::ONE), T::ZERO);
    }

    #[test]
    fn f32_identities() {
        generic_identities::<f32>();
        assert_eq!(f32::NAME, "f32");
        assert_eq!(f32::BYTES, 4);
    }

    #[test]
    fn f64_identities() {
        generic_identities::<f64>();
        assert_eq!(f64::NAME, "f64");
        assert_eq!(f64::BYTES, 8);
    }

    #[test]
    fn sum_trait_works() {
        let v = vec![1.0f32, 2.0, 3.0];
        let s: f32 = v.into_iter().sum();
        assert_eq!(s, 6.0);
    }
}
