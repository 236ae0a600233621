//! Cached CPU feature detection, and the features the build targets.
//!
//! Kernel variants (notably the CSCV-M expand path) are chosen once at
//! matrix-construction time from this snapshot, so the hot loops carry no
//! per-iteration feature branches. Everything else — above all the packed
//! FMA in the lane loops — depends on the compile-time features instead,
//! which the repository's `.cargo/config.toml` pins to the building CPU
//! (`-C target-cpu=native`, the analogue of the paper's `-xHost`).

use std::sync::OnceLock;

/// Snapshot of the SIMD-relevant CPU features of the running machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit integer/float SIMD (implies SSE/AVX).
    pub avx2: bool,
    /// Fused multiply-add.
    pub fma: bool,
    /// 512-bit foundation: required for `vexpandps/vexpandpd` on zmm.
    pub avx512f: bool,
    /// AVX-512 vector-length extension: expand instructions on ymm/xmm.
    pub avx512vl: bool,
    /// AVX-512 byte/word instructions (mask handling helpers).
    pub avx512bw: bool,
}

impl CpuFeatures {
    /// Detect features on the current CPU.
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
                avx512vl: std::arch::is_x86_feature_detected!("avx512vl"),
                avx512bw: std::arch::is_x86_feature_detected!("avx512bw"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures {
                avx2: false,
                fma: false,
                avx512f: false,
                avx512vl: false,
                avx512bw: false,
            }
        }
    }

    /// Whether the hardware `vexpand` path exists for a lane-block of `W`
    /// elements of `bytes`-wide floats.
    ///
    /// * f32: W=16 needs `avx512f`; W=8/W=4 need `avx512f + avx512vl`.
    /// * f64: W=8 needs `avx512f`; W=4/W=2 need `avx512f + avx512vl`.
    pub fn hw_expand_available(&self, bytes: usize, w: usize) -> bool {
        match (bytes, w) {
            (4, 16) | (8, 8) => self.avx512f,
            (4, 8) | (4, 4) | (8, 4) | (8, 2) => self.avx512f && self.avx512vl,
            _ => false,
        }
    }

    /// A short human-readable summary used in report headers.
    pub fn summary(&self) -> String {
        let mut s = Vec::new();
        if self.avx2 {
            s.push("avx2");
        }
        if self.fma {
            s.push("fma");
        }
        if self.avx512f {
            s.push("avx512f");
        }
        if self.avx512vl {
            s.push("avx512vl");
        }
        if self.avx512bw {
            s.push("avx512bw");
        }
        if s.is_empty() {
            "none".to_string()
        } else {
            s.join("+")
        }
    }
}

/// The features this build was compiled to use (`cfg!(target_feature)`),
/// as opposed to what the running CPU has. Without `fma`, `mul_add`
/// lowers to one libm call per lane.
pub const fn build_features() -> CpuFeatures {
    CpuFeatures {
        avx2: cfg!(target_feature = "avx2"),
        fma: cfg!(target_feature = "fma"),
        avx512f: cfg!(target_feature = "avx512f"),
        avx512vl: cfg!(target_feature = "avx512vl"),
        avx512bw: cfg!(target_feature = "avx512bw"),
    }
}

/// Cached feature snapshot for the running machine.
pub fn cpu_features() -> &'static CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    FEATURES.get_or_init(CpuFeatures::detect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detection_is_stable() {
        let a = *cpu_features();
        let b = *cpu_features();
        assert_eq!(a, b);
    }

    #[test]
    fn avx512_implies_consistent_expand() {
        let f = cpu_features();
        if f.hw_expand_available(4, 8) {
            // VL implies F in the availability matrix.
            assert!(f.hw_expand_available(4, 16));
        }
        // No hardware path for unsupported widths.
        assert!(!f.hw_expand_available(4, 32));
        assert!(!f.hw_expand_available(2, 8));
        assert!(!f.hw_expand_available(8, 16));
    }

    #[test]
    fn build_enables_host_fma_features() {
        let (cpu, built) = (cpu_features(), build_features());
        let missing: Vec<&str> = [
            ("fma", cpu.fma, built.fma),
            ("avx2", cpu.avx2, built.avx2),
            ("avx512f", cpu.avx512f, built.avx512f),
        ]
        .into_iter()
        .filter(|&(_, has, on)| has && !on)
        .map(|(name, _, _)| name)
        .collect();
        assert!(
            missing.is_empty(),
            "this CPU has {missing:?} but the build does not enable them, so the \
             kernels call libm per lane: build inside the repository so \
             .cargo/config.toml applies, without a RUSTFLAGS that overrides it"
        );
    }

    #[test]
    fn summary_is_nonempty() {
        assert!(!cpu_features().summary().is_empty());
    }
}
