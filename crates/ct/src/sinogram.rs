//! Sinogram container and measurement noise.
//!
//! The sinogram is the physical `y` vector: one value per (view, bin)
//! ray. This module gives it structure (view/bin accessors matching the
//! suite's bin-major row layout) and supplies the transmission-CT noise
//! model used to make reconstruction experiments realistic: photon
//! counting obeys Poisson statistics, approximated here (for `I₀ ≫ 1`)
//! by Gaussian noise with the Poisson variance after log-transform.

use crate::geometry::ParallelGeometry;
use cscv_simd::rng::XorShift64;

/// A sinogram: `n_views × n_bins` ray measurements, stored row-major in
/// the suite's layout (`row = view·n_bins + bin`).
#[derive(Debug, Clone, PartialEq)]
pub struct Sinogram {
    n_views: usize,
    n_bins: usize,
    data: Vec<f64>,
}

impl Sinogram {
    /// Zero sinogram for a geometry.
    pub fn zeros(proj: &ParallelGeometry) -> Self {
        Sinogram {
            n_views: proj.n_views,
            n_bins: proj.n_bins,
            data: vec![0.0; proj.n_rays()],
        }
    }

    /// Wrap an existing flat vector (must have `n_views·n_bins` entries).
    pub fn from_vec(n_views: usize, n_bins: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_views * n_bins);
        Sinogram {
            n_views,
            n_bins,
            data,
        }
    }

    pub fn n_views(&self) -> usize {
        self.n_views
    }

    pub fn n_bins(&self) -> usize {
        self.n_bins
    }

    /// Flat view in the matrix row order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    #[inline]
    pub fn get(&self, view: usize, bin: usize) -> f64 {
        self.data[view * self.n_bins + bin]
    }

    #[inline]
    pub fn set(&mut self, view: usize, bin: usize, v: f64) {
        self.data[view * self.n_bins + bin] = v;
    }

    /// One view's detector readings.
    pub fn view(&self, view: usize) -> &[f64] {
        &self.data[view * self.n_bins..(view + 1) * self.n_bins]
    }

    /// Apply the transmission noise model in place: each line integral
    /// `p` is replaced by `-ln(I/I₀)` where `I ~ Poisson(I₀·e^{−p})`,
    /// approximated by its Gaussian limit. `i0` is the unattenuated
    /// photon count per ray (larger ⇒ less noise); deterministic under
    /// `seed`.
    pub fn add_poisson_noise(&mut self, i0: f64, seed: u64) {
        assert!(i0 > 1.0, "photon count must exceed 1");
        let mut rng = XorShift64::new(seed);
        for p in self.data.iter_mut() {
            let mean = i0 * (-*p).exp();
            // Gaussian approximation: N(mean, mean).
            let z = rng.normal();
            let photons = (mean + z * mean.sqrt()).max(1.0);
            *p = -(photons / i0).ln();
        }
    }

    /// Root-mean-square of the sinogram (noise-level diagnostics).
    pub fn rms(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        (self.data.iter().map(|v| v * v).sum::<f64>() / self.data.len() as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proj() -> ParallelGeometry {
        ParallelGeometry {
            n_bins: 6,
            n_views: 4,
            start_angle_deg: 0.0,
            delta_angle_deg: 45.0,
            bin_spacing: 1.0,
        }
    }

    #[test]
    fn indexing_matches_row_layout() {
        let mut s = Sinogram::zeros(&proj());
        s.set(2, 3, 7.5);
        assert_eq!(s.get(2, 3), 7.5);
        assert_eq!(s.as_slice()[2 * 6 + 3], 7.5);
        assert_eq!(s.view(2)[3], 7.5);
        assert_eq!(s.view(0), &[0.0; 6]);
    }

    #[test]
    fn noise_is_deterministic_and_small_at_high_flux() {
        let clean = vec![0.5f64; 24];
        let mut a = Sinogram::from_vec(4, 6, clean.clone());
        let mut b = Sinogram::from_vec(4, 6, clean.clone());
        a.add_poisson_noise(1e6, 42);
        b.add_poisson_noise(1e6, 42);
        assert_eq!(a, b, "seeded noise is reproducible");
        // At 10^6 photons the relative perturbation is tiny.
        for (n, c) in a.as_slice().iter().zip(&clean) {
            assert!((n - c).abs() < 0.02, "{n} vs {c}");
        }
    }

    #[test]
    fn noise_grows_as_flux_drops() {
        let clean = vec![1.0f64; 600];
        let dev = |i0: f64| {
            let mut s = Sinogram::from_vec(100, 6, clean.clone());
            s.add_poisson_noise(i0, 7);
            s.as_slice()
                .iter()
                .zip(&clean)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dev(1e3) > 3.0 * dev(1e6));
    }

    #[test]
    fn rms_basics() {
        let s = Sinogram::from_vec(1, 4, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((s.rms() - (25.0f64 / 4.0).sqrt()).abs() < 1e-12);
    }
}
