//! Cache sizes of the machine, read from Linux sysfs.
//!
//! The suite sizes its datasets against the caches (the 512² matrix is
//! 1.5–2.4× the L3), so the drivers print the L2 and L3 sizes on their
//! `machine:` line and every manifest record carries them. A size sysfs
//! does not report — another OS, a container without `/sys` — reads as 0.

use std::fmt;
use std::path::Path;
use std::sync::OnceLock;

/// The L2 and L3 sizes CPU 0 sees, in bytes (0 when unknown): one
/// core's L2 and the L3 that core shares.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSizes {
    pub l2_bytes: u64,
    pub l3_bytes: u64,
}

impl CacheSizes {
    /// This machine's sizes, read once per process.
    pub fn detect() -> CacheSizes {
        static SIZES: OnceLock<CacheSizes> = OnceLock::new();
        *SIZES.get_or_init(|| read_dir(Path::new("/sys/devices/system/cpu/cpu0/cache")))
    }
}

impl fmt::Display for CacheSizes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L2 {} KiB, L3 {} KiB",
            self.l2_bytes >> 10,
            self.l3_bytes >> 10
        )
    }
}

/// The sizes under a sysfs `cpuN/cache` directory: one `indexI` entry
/// per cache, each with `level`, `type` and `size` files.
fn read_dir(dir: &Path) -> CacheSizes {
    let mut out = CacheSizes::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let read =
            |file: &str| std::fs::read_to_string(entry.path().join(file)).unwrap_or_default();
        if read("type").trim() == "Instruction" {
            continue;
        }
        let bytes = parse_size(read("size").trim());
        match read("level").trim() {
            "2" => out.l2_bytes = bytes,
            "3" => out.l3_bytes = bytes,
            _ => {}
        }
    }
    out
}

/// A sysfs size (`"2048K"`, `"105M"`, `"512"`) in bytes; 0 when it
/// does not parse.
fn parse_size(s: &str) -> u64 {
    let (digits, unit) = match s.as_bytes().last() {
        Some(b'K') => (&s[..s.len() - 1], 1u64 << 10),
        Some(b'M') => (&s[..s.len() - 1], 1 << 20),
        Some(b'G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().map_or(0, |n| n.saturating_mul(unit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse_with_and_without_units() {
        assert_eq!(parse_size("2048K"), 2 << 20);
        assert_eq!(parse_size("105M"), 105 << 20);
        assert_eq!(parse_size("1G"), 1 << 30);
        assert_eq!(parse_size("512"), 512);
        for bad in ["", "K", "twoK", "-1K"] {
            assert_eq!(parse_size(bad), 0, "{bad:?}");
        }
    }

    #[test]
    fn reads_l2_and_l3_and_skips_the_instruction_cache() {
        let dir = std::env::temp_dir().join(format!("cscv-cache-{}", std::process::id()));
        for (index, level, kind, size) in [
            (0, "1", "Data", "48K"),
            (1, "1", "Instruction", "32K"),
            (2, "2", "Unified", "2048K"),
            (3, "3", "Unified", "107520K"),
        ] {
            let entry = dir.join(format!("index{index}"));
            std::fs::create_dir_all(&entry).unwrap();
            for (file, text) in [("level", level), ("type", kind), ("size", size)] {
                std::fs::write(entry.join(file), format!("{text}\n")).unwrap();
            }
        }
        let sizes = read_dir(&dir);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            sizes,
            CacheSizes {
                l2_bytes: 2 << 20,
                l3_bytes: 107_520 << 10
            }
        );
        assert_eq!(sizes.to_string(), "L2 2048 KiB, L3 107520 KiB");
    }

    #[test]
    fn unreadable_sysfs_reports_zero() {
        let sizes = read_dir(Path::new("/nonexistent/cpu0/cache"));
        assert_eq!(sizes, CacheSizes::default());
        assert_eq!(sizes.to_string(), "L2 0 KiB, L3 0 KiB");
    }
}
