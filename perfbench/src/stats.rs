//! Order statistics, the process's memory high-water mark, and the fixed
//! calibration loop reported beside every traced result.

use std::hint::black_box;
use std::time::Instant;

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between the
/// closest ranks. `xs` need not be sorted. Empty input gives 0.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The process's resident-set high-water mark in MiB (`VmHWM`), or 0 when
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU-bound loop (xorshift over a small table), timed as the
/// median of several repetitions, in ms. It exercises nothing in the
/// program, so its drift between runs is the machine's, not the code's.
pub fn calib_ms() -> f64 {
    let mut times = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        let mut table = [0u64; 256];
        let mut x = black_box(0x2545_f491_4f6c_dd1du64);
        for i in 0..2_000_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & 255;
            table[slot] = table[slot].wrapping_add(i ^ x);
        }
        black_box(table);
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 5.0);
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
