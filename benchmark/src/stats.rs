//! Small measurement helpers: percentiles, medians, a row digest and the
//! process's peak resident set.

use std::time::Instant;

/// Nearest-rank percentile (`q` in percent) of an ascending slice; 0 when
/// the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending in place (NaN-free input assumed).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of `values` (the nearest-rank 50th percentile).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Seconds elapsed since `t0`.
pub fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// FNV-1a, 64-bit: a stable digest of the deterministic output rows.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv64 {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one row: its cells joined by `,` and terminated by `\n`.
    pub fn write_row(&mut self, row: &[String]) {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                self.write(b",");
            }
            self.write(cell.as_bytes());
        }
        self.write(b"\n");
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-64 digest of `rows`.
pub fn digest_rows(rows: &[Vec<String>]) -> u64 {
    let mut h = Fnv64::default();
    for row in rows {
        h.write_row(row);
    }
    h.finish()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no `VmHWM` line: the benchmark
/// reports memory from Linux procfs only.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv_matches_reference_and_separates_cells() {
        let mut h = Fnv64::default();
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let a = digest_rows(&[vec!["ab".into(), "c".into()]]);
        let b = digest_rows(&[vec!["a".into(), "bc".into()]]);
        assert_ne!(a, b);
    }

    #[test]
    fn rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
