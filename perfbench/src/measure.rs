//! Summary statistics, the process's peak memory, and output digests.

use std::time::Duration;

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The median of `values` (mean of the middle two for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `values` with at least [`TAIL_BEYOND`]
/// samples beyond it: `(value, percentile)`. `None` when there are too
/// few samples to report a tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = v.len() - TAIL_BEYOND - 1;
    let pct = 100.0 * (rank + 1) as f64 / v.len() as f64;
    Some((v[rank], pct))
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// 64-bit FNV-1a of `bytes`, as 16 hex digits: the digests recorded in
/// `expected/`.
pub fn digest(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Log-log slope between two sizes: how a cost grows with input size
/// (1 = linear).
pub fn slope(small_n: f64, small_cost: f64, big_n: f64, big_cost: f64) -> f64 {
    if small_cost <= 0.0 || big_cost <= 0.0 {
        return 0.0;
    }
    (big_cost / small_cost).ln() / (big_n / small_n).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (value, pct) = tail(&v).expect("enough samples");
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn median_and_slope() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((slope(1.0, 1.0, 4.0, 16.0) - 2.0).abs() < 1e-12);
    }
}
