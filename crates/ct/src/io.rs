//! Minimal image output: binary PGM (P5), enough to inspect phantoms,
//! sinograms and reconstructions without an image dependency.

use std::io::Write;
use std::path::Path;

/// Normalize a float image to `0..=255` (min/max scaling; constant
/// images map to 0).
#[expect(
    clippy::cast_possible_truncation,
    reason = "clamped to 0..=255 before the cast"
)]
pub fn normalize_u8(img: &[f64]) -> Vec<u8> {
    let lo = img.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = img.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    img.iter()
        .map(|&v| ((v - lo) * scale).clamp(0.0, 255.0) as u8)
        .collect()
}

/// Write a grayscale image (row-major, `iy` growing upward as in the
/// suite's grid convention — flipped here to PGM's top-down rows).
pub fn write_pgm(path: impl AsRef<Path>, img: &[f64], nx: usize, ny: usize) -> std::io::Result<()> {
    assert_eq!(img.len(), nx * ny);
    let bytes = normalize_u8(img);
    let mut out = Vec::with_capacity(bytes.len() + 32);
    write!(&mut out, "P5\n{nx} {ny}\n255\n")?;
    for iy in (0..ny).rev() {
        out.extend_from_slice(&bytes[iy * nx..(iy + 1) * nx]);
    }
    std::fs::write(path, out)
}

/// Parse a binary 8-bit PGM (maxval 255, as [`write_pgm`] writes) back
/// into `(nx, ny, bytes)` (test round-trips and simple tooling; rows
/// returned in the suite's bottom-up order). Malformed input is
/// `InvalidData`.
pub fn read_pgm(path: impl AsRef<Path>) -> std::io::Result<(usize, usize, Vec<u8>)> {
    let data = std::fs::read(path)?;
    let err = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let header_end = data
        .windows(1)
        .enumerate()
        .filter(|(_, w)| w[0] == b'\n')
        .map(|(i, _)| i)
        .nth(2)
        .ok_or_else(|| err("truncated header"))?;
    let header = std::str::from_utf8(&data[..header_end]).map_err(|_| err("bad header"))?;
    let mut parts = header.split_ascii_whitespace();
    if parts.next() != Some("P5") {
        return Err(err("not a P5 PGM"));
    }
    let nx: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err("bad width"))?;
    let ny: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| err("bad height"))?;
    // `write_pgm` writes 8-bit samples only; a 16-bit file would be
    // misread byte by byte.
    if parts.next() != Some("255") {
        return Err(err("maxval other than 255"));
    }
    let n = nx.checked_mul(ny).ok_or_else(|| err("size overflows"))?;
    let pixels = &data[header_end + 1..];
    if pixels.len() < n {
        return Err(err("truncated pixels"));
    }
    let mut out = vec![0u8; n];
    for iy in 0..ny {
        let src = &pixels[iy * nx..(iy + 1) * nx];
        out[(ny - 1 - iy) * nx..(ny - iy) * nx].copy_from_slice(src);
    }
    Ok((nx, ny, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_ranges() {
        let b = normalize_u8(&[0.0, 0.5, 1.0]);
        assert_eq!(b, vec![0, 127, 255]);
        let c = normalize_u8(&[3.0, 3.0]);
        assert_eq!(c, vec![0, 0]);
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn pgm_roundtrip() {
        let dir = std::env::temp_dir().join("cscv_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.pgm");
        let img: Vec<f64> = (0..12).map(|i| i as f64).collect();
        write_pgm(&path, &img, 4, 3).unwrap();
        let (nx, ny, bytes) = read_pgm(&path).unwrap();
        assert_eq!((nx, ny), (4, 3));
        assert_eq!(bytes, normalize_u8(&img));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "file IO is unsupported under Miri isolation")]
    fn read_rejects_garbage() {
        let dir = std::env::temp_dir().join("cscv_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.pgm");
        let invalid = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            read_pgm(&path).unwrap_err().kind()
        };
        assert_eq!(
            invalid(b"P6\n2 2\n255\nxxxx"),
            std::io::ErrorKind::InvalidData
        );
        assert_eq!(
            invalid(b"P5\n18446744073709551615 2\n255\nxxxx"),
            std::io::ErrorKind::InvalidData,
            "width x height overflows"
        );
        assert_eq!(
            invalid(b"P5\n2 2\n65535\nxxxxxxxx"),
            std::io::ErrorKind::InvalidData,
            "16-bit maxval"
        );
        std::fs::remove_file(&path).unwrap();
    }
}
