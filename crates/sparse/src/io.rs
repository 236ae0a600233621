//! Matrix Market (`.mtx`) import/export.
//!
//! The lingua franca of sparse-matrix tooling (SuiteSparse, SciPy,
//! MKL examples). Lets this suite exchange CT system matrices with
//! external SpMV implementations, and lets users benchmark the CSCV
//! builder on matrices from elsewhere. Supports the
//! `matrix coordinate real general` header — the only flavor the
//! suite's unsymmetric operators need — plus `pattern` (values = 1).

use crate::coo::Coo;
use cscv_simd::Scalar;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write a COO matrix as `matrix coordinate real general`.
pub fn write_matrix_market<T: Scalar>(path: impl AsRef<Path>, m: &Coo<T>) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = BufWriter::new(file);
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% exported by cscv-sparse")?;
    writeln!(w, "{} {} {}", m.n_rows(), m.n_cols(), m.nnz())?;
    for &(r, c, v) in m.entries() {
        // Matrix Market is 1-based.
        writeln!(w, "{} {} {:e}", r + 1, c + 1, v.to_f64())?;
    }
    w.flush()
}

fn parse_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// Read a `matrix coordinate real|integer|pattern general|symmetric`
/// file into COO (symmetric entries are mirrored).
pub fn read_matrix_market<T: Scalar>(path: impl AsRef<Path>) -> std::io::Result<Coo<T>> {
    let file = std::fs::File::open(path)?;
    let mut lines = BufReader::new(file).lines();

    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))??
        .to_ascii_lowercase();
    let fields: Vec<&str> = header.split_ascii_whitespace().collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err("not a MatrixMarket matrix header"));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err("only coordinate format supported"));
    }
    let pattern = match fields[3] {
        "real" | "integer" => false,
        "pattern" => true,
        other => return Err(parse_err(format!("unsupported field type {other}"))),
    };
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" => true,
        other => return Err(parse_err(format!("unsupported symmetry {other}"))),
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let mut it = size_line.split_ascii_whitespace();
    let n_rows: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad rows"))?;
    let n_cols: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad cols"))?;
    let nnz: usize = it
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("bad nnz"))?;

    if n_rows > u32::MAX as usize || n_cols > u32::MAX as usize {
        return Err(parse_err(format!(
            "size {n_rows}x{n_cols} exceeds the u32 index range"
        )));
    }
    if symmetric && n_rows != n_cols {
        return Err(parse_err(format!(
            "symmetric matrix must be square, got {n_rows}x{n_cols}"
        )));
    }

    let mut coo = Coo::new(n_rows, n_cols);
    let mut read = 0usize;
    for line in lines {
        let line = line?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        let mut it = t.split_ascii_whitespace();
        let r: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad row index"))?;
        let c: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| parse_err("bad col index"))?;
        let v: f64 = if pattern {
            1.0
        } else {
            it.next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| parse_err("bad value"))?
        };
        if r == 0 || c == 0 || r > n_rows || c > n_cols {
            return Err(parse_err(format!("entry ({r},{c}) out of bounds")));
        }
        coo.push(r - 1, c - 1, T::from_f64(v));
        if symmetric && r != c {
            coo.push(c - 1, r - 1, T::from_f64(v));
        }
        read += 1;
    }
    if read != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {read}")));
    }
    Ok(coo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cscv_mtx_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn roundtrip_general_real() {
        let mut m: Coo<f64> = Coo::new(3, 4);
        m.push(0, 0, 1.5);
        m.push(2, 3, -2.25);
        m.push(1, 2, 1e-3);
        let p = tmp("rt.mtx");
        write_matrix_market(&p, &m).unwrap();
        let back: Coo<f64> = read_matrix_market(&p).unwrap();
        assert_eq!(back.n_rows(), 3);
        assert_eq!(back.n_cols(), 4);
        assert_eq!(back.to_dense(), m.to_dense());
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn reads_pattern_and_symmetric() {
        let p = tmp("sym.mtx");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n3 3 2\n2 1\n3 3\n",
        )
        .unwrap();
        let m: Coo<f32> = read_matrix_market(&p).unwrap();
        let d = m.to_dense();
        assert_eq!(d[3], 1.0); // (2,1)
        assert_eq!(d[1], 1.0); // mirrored (1,2)
        assert_eq!(d[2 * 3 + 2], 1.0); // diagonal not duplicated
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn rejects_garbage() {
        let p = tmp("bad.mtx");
        std::fs::write(&p, "%%MatrixMarket matrix array real general\n2 2\n1.0\n").unwrap();
        assert!(read_matrix_market::<f64>(&p).is_err());
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 3.0\n",
        )
        .unwrap();
        assert!(read_matrix_market::<f64>(&p).is_err(), "oob entry");
        std::fs::write(
            &p,
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.0\n",
        )
        .unwrap();
        assert!(read_matrix_market::<f64>(&p).is_err(), "nnz mismatch");
        let invalid = |text: &str| {
            std::fs::write(&p, text).unwrap();
            read_matrix_market::<f64>(&p)
                .map(|_| ())
                .unwrap_err()
                .kind()
        };
        assert_eq!(
            invalid("%%MatrixMarket matrix coordinate real general\n4294967296 2 0\n"),
            std::io::ErrorKind::InvalidData,
            "dimension above u32::MAX"
        );
        assert_eq!(
            invalid("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 1.0\n"),
            std::io::ErrorKind::InvalidData,
            "non-square symmetric"
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn scientific_notation_values_roundtrip() {
        let mut m: Coo<f32> = Coo::new(1, 1);
        m.push(0, 0, 3.25e-7);
        let p = tmp("sci.mtx");
        write_matrix_market(&p, &m).unwrap();
        let back: Coo<f32> = read_matrix_market(&p).unwrap();
        assert!((back.entries()[0].2 - 3.25e-7).abs() < 1e-12);
    }
}
