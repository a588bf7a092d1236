//! Order statistics over raw samples.

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of unsorted floats (a quarter of the values
/// dropped at each end; 0 when empty).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    if mid.is_empty() {
        0.0
    } else {
        mid.iter().sum::<f64>() / mid.len() as f64
    }
}

/// A latency distribution summary with its sample count.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Samples summarised.
    pub n: usize,
    /// Median, ns.
    pub p50_ns: u64,
    /// 75th percentile, ns.
    pub p75_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
}

impl Summary {
    /// Sorts `samples` in place and summarises them.
    pub fn of(samples: &mut [u64]) -> Summary {
        samples.sort_unstable();
        Summary {
            n: samples.len(),
            p50_ns: quantile(samples, 0.5),
            p75_ns: quantile(samples, 0.75),
            p90_ns: quantile(samples, 0.9),
            p99_ns: quantile(samples, 0.99),
        }
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
