//! Deterministic structure-aware matrix generators.
//!
//! One [`CaseDesc`] — a generator family, geometry dimensions, CSCV
//! blocking parameters and a PRNG seed — fully determines a matrix: the
//! same descriptor always builds the same triplets, with zero external
//! dependencies. The differential fuzzer (`cscv-xtask fuzz`) uses this
//! for shrinkable reproducers and its committed `.case` corpus, so
//! failing inputs are replayable text lines rather than committed
//! binary matrices.
//!
//! The one-line form is order-insensitive `key=value` pairs:
//!
//! ```text
//! kind=ct-banded views=9 bins=14 nx=4 ny=3 imgb=2 vvec=4 vxg=2 seed=7
//! ```

use cscv_core::layout::ImageShape;
use cscv_core::SinoLayout;
use cscv_simd::rng::XorShift64;
use cscv_sparse::Coo;

/// Matrix families the generator knows how to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Banded sinogram-like curves per pixel (the CSCV design target).
    CtBanded,
    /// Unstructured uniform sprinkle (worst case for IOBLR padding).
    UniformRandom,
    /// CT-like with ~half the columns completely empty.
    EmptyColumns,
    /// One view × one bin: a single-row matrix.
    SingleRow,
    /// Alternating bin-0 / bin-max entries: maximal curve-offset skew.
    MaxOffsetSkew,
    /// One pixel, many rays: a single tall column.
    TallSkinny,
    /// Dimensions beyond the index ceilings must yield a typed
    /// rejection, never a mis-built matrix (allocation-free check).
    OversizeReject,
}

impl GenKind {
    pub const ALL: &[GenKind] = &[
        GenKind::CtBanded,
        GenKind::UniformRandom,
        GenKind::EmptyColumns,
        GenKind::SingleRow,
        GenKind::MaxOffsetSkew,
        GenKind::TallSkinny,
        GenKind::OversizeReject,
    ];

    pub fn name(self) -> &'static str {
        match self {
            GenKind::CtBanded => "ct-banded",
            GenKind::UniformRandom => "uniform-random",
            GenKind::EmptyColumns => "empty-columns",
            GenKind::SingleRow => "single-row",
            GenKind::MaxOffsetSkew => "max-offset-skew",
            GenKind::TallSkinny => "tall-skinny",
            GenKind::OversizeReject => "oversize-reject",
        }
    }

    pub fn from_name(s: &str) -> Option<GenKind> {
        GenKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// One deterministic generator case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseDesc {
    pub kind: GenKind,
    pub n_views: usize,
    pub n_bins: usize,
    pub nx: usize,
    pub ny: usize,
    pub s_imgb: usize,
    pub s_vvec: usize,
    pub s_vxg: usize,
    pub seed: u64,
}

impl CaseDesc {
    /// One-line replayable form: `kind=ct-banded views=9 bins=14 …`.
    pub fn serialize(&self) -> String {
        format!(
            "kind={} views={} bins={} nx={} ny={} imgb={} vvec={} vxg={} seed={}",
            self.kind.name(),
            self.n_views,
            self.n_bins,
            self.nx,
            self.ny,
            self.s_imgb,
            self.s_vvec,
            self.s_vxg,
            self.seed
        )
    }

    /// Parse the [`serialize`](Self::serialize) form (order-insensitive).
    pub fn parse(line: &str) -> Result<CaseDesc, String> {
        let mut d = CaseDesc {
            kind: GenKind::CtBanded,
            n_views: 1,
            n_bins: 1,
            nx: 1,
            ny: 1,
            s_imgb: 1,
            s_vvec: 4,
            s_vxg: 1,
            seed: 0,
        };
        for tok in line.split_whitespace() {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("bad token `{tok}` (want key=value)"))?;
            let num = || -> Result<usize, String> {
                val.parse().map_err(|_| format!("bad value in `{tok}`"))
            };
            match key {
                "kind" => {
                    d.kind = GenKind::from_name(val)
                        .ok_or_else(|| format!("unknown generator kind `{val}`"))?;
                }
                "views" => d.n_views = num()?,
                "bins" => d.n_bins = num()?,
                "nx" => d.nx = num()?,
                "ny" => d.ny = num()?,
                "imgb" => d.s_imgb = num()?,
                "vvec" => d.s_vvec = num()?,
                "vxg" => d.s_vxg = num()?,
                "seed" => {
                    d.seed = val.parse().map_err(|_| format!("bad value in `{tok}`"))?;
                }
                _ => return Err(format!("unknown key `{key}`")),
            }
        }
        if !matches!(d.s_vvec, 4 | 8 | 16) {
            return Err(format!("vvec must be 4, 8 or 16 (got {})", d.s_vvec));
        }
        if d.n_views == 0
            || d.n_bins == 0
            || d.nx == 0
            || d.ny == 0
            || d.s_imgb == 0
            || d.s_vxg == 0
        {
            return Err("dimensions and parameters must be positive".into());
        }
        // `generate` indexes rows and columns with u32.
        for (what, a, b) in [("views·bins", d.n_views, d.n_bins), ("nx·ny", d.nx, d.ny)] {
            if a.checked_mul(b).is_none_or(|p| p > u32::MAX as usize) {
                return Err(format!("{what} = {a}·{b} exceeds the u32 index range"));
            }
        }
        Ok(d)
    }
}

/// Derive a random case from one 64-bit seed.
pub fn random_desc(seed: u64) -> CaseDesc {
    let mut rng = XorShift64::new(seed);
    let kind = GenKind::ALL[rng.next_usize(GenKind::ALL.len())];
    let mut d = CaseDesc {
        kind,
        n_views: 1 + rng.next_usize(20),
        n_bins: 1 + rng.next_usize(24),
        nx: 1 + rng.next_usize(10),
        ny: 1 + rng.next_usize(10),
        s_imgb: 1 + rng.next_usize(8),
        s_vvec: [4, 8, 16][rng.next_usize(3)],
        s_vxg: 1 + rng.next_usize(8),
        seed,
    };
    match kind {
        GenKind::SingleRow => {
            d.n_views = 1;
            d.n_bins = 1;
        }
        GenKind::TallSkinny => {
            d.nx = 1;
            d.ny = 1;
            d.n_bins = 1 + rng.next_usize(8);
        }
        _ => {}
    }
    d
}

/// Deterministically build the case's matrix (empty for
/// `OversizeReject`, which never materializes entries).
pub fn generate(desc: &CaseDesc) -> Coo<f64> {
    let layout = SinoLayout {
        n_views: desc.n_views,
        n_bins: desc.n_bins,
    };
    let n_rows = layout.n_rows();
    let n_cols = desc.nx * desc.ny;
    let mut rng = XorShift64::new(desc.seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut coo: Coo<f64> = Coo::new(n_rows, n_cols);
    // Nonzero magnitudes stay away from exact zero: CSCV-M's value
    // stream must contain no zeros (invariant CSCV-PAD-ZERO), and an
    // explicit stored 0.0 is indistinguishable from mis-placed padding.
    let val = |rng: &mut XorShift64| {
        let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
        sign * rng.range_f64(0.25, 1.0)
    };
    match desc.kind {
        GenKind::OversizeReject => {}
        GenKind::SingleRow => {
            for col in 0..n_cols {
                if rng.next_f64() < 0.7 {
                    coo.push(0, col, val(&mut rng));
                }
            }
        }
        GenKind::TallSkinny => {
            for row in 0..n_rows {
                if rng.next_f64() < 0.6 {
                    coo.push(row, 0, val(&mut rng));
                }
            }
        }
        GenKind::UniformRandom => {
            let density = rng.range_f64(0.05, 0.35);
            for col in 0..n_cols {
                for row in 0..n_rows {
                    if rng.next_f64() < density {
                        coo.push(row, col, val(&mut rng));
                    }
                }
            }
        }
        GenKind::MaxOffsetSkew => {
            for col in 0..n_cols {
                for v in 0..desc.n_views {
                    let bin = if v % 2 == 0 { 0 } else { desc.n_bins - 1 };
                    coo.push(layout.row_index(v, bin), col, val(&mut rng));
                }
            }
        }
        GenKind::CtBanded | GenKind::EmptyColumns => {
            let img = ImageShape {
                nx: desc.nx,
                ny: desc.ny,
            };
            for col in 0..n_cols {
                if desc.kind == GenKind::EmptyColumns && rng.next_f64() < 0.5 {
                    continue;
                }
                let (ix, iy) = img.pixel_of_col(col);
                let phase = rng.next_usize(desc.n_bins.max(1));
                let slope = 1 + rng.next_usize(3);
                let width = 1 + rng.next_usize(3);
                for v in 0..desc.n_views {
                    // Near-parallel piecewise curves (P1/P2): the bin
                    // center drifts with the view, offset per pixel.
                    let center = (phase + v * slope + ix + 2 * iy) % desc.n_bins;
                    for w in 0..width {
                        let bin = center + w;
                        if bin < desc.n_bins && rng.next_f64() < 0.9 {
                            coo.push(layout.row_index(v, bin), col, val(&mut rng));
                        }
                    }
                }
            }
        }
    }
    coo.sum_duplicates();
    coo
}

/// Read every non-comment line of a `.case` file (or every `.case` file
/// of a directory, sorted) into parsed descriptors, with the source
/// path and line attached to parse errors.
pub fn load_corpus(path: &std::path::Path) -> Result<Vec<CaseDesc>, String> {
    let files: Vec<std::path::PathBuf> = if path.is_file() {
        vec![path.to_path_buf()]
    } else if path.is_dir() {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("read {}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("case"))
            .collect();
        files.sort();
        files
    } else {
        return Err(format!("corpus {} does not exist", path.display()));
    };
    let mut out = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            out.push(
                CaseDesc::parse(line).map_err(|e| format!("{}:{}: {e}", file.display(), i + 1))?,
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desc_serialization_round_trips() {
        let d = random_desc(1234);
        let line = d.serialize();
        assert_eq!(CaseDesc::parse(&line).unwrap(), d);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(CaseDesc::parse("kind=nope seed=1").is_err());
        assert!(CaseDesc::parse("views").is_err());
        assert!(CaseDesc::parse("vvec=5 kind=ct-banded").is_err());
        assert!(CaseDesc::parse("kind=ct-banded views=0").is_err());
    }

    #[test]
    fn parse_rejects_sizes_generate_cannot_build() {
        let huge = usize::MAX / 2;
        for bad in [
            "views=100000 bins=100000".to_string(),
            "nx=65536 ny=65536".to_string(),
            format!("views={huge} bins=3"),
            format!("nx=3 ny={huge}"),
        ] {
            assert!(CaseDesc::parse(&bad).is_err(), "should reject {bad:?}");
        }
        // The largest accepted product is u32::MAX itself.
        assert!(CaseDesc::parse("views=65537 bins=65535 nx=1 ny=1").is_ok());
    }

    #[test]
    fn generator_is_deterministic() {
        let d =
            CaseDesc::parse("kind=ct-banded views=6 bins=9 nx=4 ny=3 imgb=2 vvec=4 vxg=2 seed=7")
                .unwrap();
        let a = generate(&d);
        let b = generate(&d);
        assert_eq!(a.entries(), b.entries());
        assert!(a.nnz() > 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "filesystem access")]
    fn corpus_loader_reads_files_and_dirs() {
        let dir = std::env::temp_dir().join(format!("cscv-gen-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let d1 = random_desc(11);
        let d2 = random_desc(22);
        std::fs::write(
            dir.join("a.case"),
            format!("# comment\n{}\n\n{}\n", d1.serialize(), d2.serialize()),
        )
        .unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a case").unwrap();
        let cases = load_corpus(&dir).unwrap();
        assert_eq!(cases, vec![d1, d2]);
        let cases = load_corpus(&dir.join("a.case")).unwrap();
        assert_eq!(cases.len(), 2);
        assert!(load_corpus(&dir.join("missing")).is_err());
        std::fs::write(dir.join("b.case"), "kind=bogus\n").unwrap();
        assert!(load_corpus(&dir).unwrap_err().contains("b.case"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
