//! Log-linear latency histograms: the workspace's one bucket layout.
//!
//! 16 linear sub-buckets per power-of-two magnitude give ≤ ~6 % relative
//! error from nanoseconds to days. [`AtomicHistogram`] is recordable from
//! any thread with relaxed atomics: one `fetch_add` on the bucket plus
//! `fetch_max`/`fetch_min` on the extrema. [`HistSnapshot`] is its plain
//! copy; it can also be recorded into directly (`&mut self`, no atomics),
//! which is how the offline benchmarks keep per-thread latency histograms
//! and merge them after a run. There is deliberately no separate total
//! counter — a snapshot's population is *defined* as the sum of its
//! buckets, so a merge or a concurrent snapshot can never observe a count
//! that disagrees with its own bucket contents.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two.
pub const SUBS: usize = 16;
/// Magnitudes covered (2^0 .. 2^47 ns ≈ 1.6 days).
pub const MAGS: usize = 48;
/// Total bucket count.
pub const BUCKETS: usize = MAGS * SUBS;

#[inline]
fn bucket_of(v: u64) -> usize {
    let v = v.max(1);
    let mag = 63 - v.leading_zeros() as usize;
    if mag < 4 {
        // Values below 16 land in the first magnitude's linear range.
        return (v as usize).min(SUBS - 1);
    }
    let sub = ((v >> (mag - 4)) & 0xF) as usize;
    ((mag.min(MAGS - 1)) * SUBS + sub).min(BUCKETS - 1)
}

/// Lower edge of a bucket (representative value for reporting).
fn bucket_value(idx: usize) -> u64 {
    let mag = idx / SUBS;
    let sub = (idx % SUBS) as u64;
    if mag < 1 {
        return sub;
    }
    (1u64 << mag) + (sub << (mag.saturating_sub(4)))
}

/// Exclusive upper edge of a bucket.
fn bucket_upper(idx: usize) -> u64 {
    if idx + 1 >= BUCKETS {
        u64::MAX
    } else {
        bucket_value(idx + 1)
    }
}

/// A lock-free histogram of `u64` nanosecond values.
///
/// `const`-constructible so it can live in `static` shard arrays.
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
    min: AtomicU64,
}

impl AtomicHistogram {
    /// An empty histogram (usable in `static` initialisers).
    pub const fn new() -> Self {
        AtomicHistogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
        }
    }

    /// Records one value (relaxed; safe from any thread).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
    }

    /// Copies the current contents.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        for (c, b) in counts.iter_mut().zip(&self.buckets) {
            *c = b.load(Ordering::Relaxed);
        }
        HistSnapshot {
            counts,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every bucket and the extrema.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of an [`AtomicHistogram`], mergeable and diffable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    sum: u64,
    max: u64,
    min: u64,
}

impl HistSnapshot {
    /// An empty snapshot (identity element for [`merge`](Self::merge)).
    pub fn empty() -> Self {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            sum: 0,
            max: 0,
            min: u64::MAX,
        }
    }

    /// Records one value (single owner, no atomics).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.sum += v;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
    }

    /// Number of recorded values — by construction the sum of the buckets,
    /// so population is conserved under merge and diff.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of recorded values (for the mean).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Largest recorded value (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest recorded value (exact; 0 when empty).
    pub fn min(&self) -> u64 {
        if self.min == u64::MAX {
            0
        } else {
            self.min
        }
    }

    /// Value at quantile `q` (0.0 ..= 1.0), approximated by bucket edge.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return bucket_value(i);
            }
        }
        self.max
    }

    /// CDF sample points: `(value, cumulative_fraction)` at the lower edge
    /// of every non-empty bucket; empty when nothing was recorded.
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let total = self.count() as f64;
        let mut out = Vec::new();
        let mut acc = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            acc += c;
            out.push((bucket_value(i), acc as f64 / total));
        }
        out
    }

    /// Cumulative counts at ascending `edges` (Prometheus `le` bounds):
    /// element `i` is the number of recorded values falling in buckets
    /// wholly at or below `edges[i]`. When an edge is a bucket boundary
    /// (any power of two ≥ 16 is), the count is exact; otherwise it is
    /// rounded down to the nearest boundary. Always monotone
    /// nondecreasing, and never exceeds [`count`](Self::count) — append
    /// the total itself as the `+Inf` bucket.
    pub fn le_counts(&self, edges: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(edges.len());
        let mut acc = 0u64;
        let mut idx = 0usize;
        for &edge in edges {
            while idx < BUCKETS && bucket_upper(idx) <= edge {
                acc += self.counts[idx];
                idx += 1;
            }
            out.push(acc);
        }
        out
    }

    /// Adds another snapshot's population into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// Population recorded between `earlier` and `self` (bucket-wise
    /// saturating difference).
    ///
    /// The bucket counts and `sum` are exact. The window's `max`/`min` are
    /// exact when a new extremum was set inside the window; otherwise they
    /// are approximated by the edges of the outermost non-empty delta
    /// buckets (≤ ~6 % relative error, like the quantiles).
    pub fn since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        let mut counts = vec![0u64; BUCKETS];
        let mut lo = None;
        let mut hi = None;
        for (i, c) in counts.iter_mut().enumerate() {
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
            if *c > 0 {
                lo.get_or_insert(i);
                hi = Some(i);
            }
        }
        let max = match hi {
            None => 0,
            Some(_) if self.max > earlier.max => self.max,
            Some(i) => bucket_upper(i).min(self.max),
        };
        let min = match lo {
            None => u64::MAX,
            Some(_) if self.min < earlier.min => self.min,
            Some(i) => bucket_value(i).max(self.min),
        };
        HistSnapshot {
            counts,
            sum: self.sum.saturating_sub(earlier.sum),
            max,
            min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_counts() {
        let h = AtomicHistogram::new();
        for v in [1u64, 10, 100, 1000, 1000, 10_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 6);
        assert_eq!(s.sum(), 12_111);
        assert_eq!(s.max(), 10_000);
        assert_eq!(s.min(), 1);
    }

    #[test]
    fn quantiles_are_ordered_and_approximate() {
        let h = AtomicHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        let p100 = s.quantile(1.0);
        assert!(p50 <= p99 && p99 <= p100);
        assert!((4_500..=5_500).contains(&p50), "p50={p50}");
        assert!((9_000..=10_000).contains(&p99), "p99={p99}");
        assert_eq!(p100, 10_000);
    }

    #[test]
    fn since_subtracts_population_exactly() {
        let h = AtomicHistogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let early = h.snapshot();
        for v in [5_000u64, 6_000] {
            h.record(v);
        }
        let delta = h.snapshot().since(&early);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 11_000);
        // New max was set inside the window — exact.
        assert_eq!(delta.max(), 6_000);
        // Window min is approximated by a bucket edge near 5000.
        let min = delta.min();
        assert!((4_000..=5_000).contains(&min), "min={min}");
        assert_eq!(h.snapshot().since(&h.snapshot()).count(), 0);
    }

    #[test]
    fn le_counts_are_monotone_and_exact_at_boundaries() {
        let h = AtomicHistogram::new();
        for v in [10u64, 100, 1_000, 10_000, 100_000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let edges = [16u64, 1 << 7, 1 << 11, 1 << 14, 1 << 17, 1 << 21];
        let le = s.le_counts(&edges);
        assert_eq!(le.len(), edges.len());
        assert!(le.windows(2).all(|w| w[0] <= w[1]), "not monotone: {le:?}");
        assert!(*le.last().unwrap() <= s.count());
        // Power-of-two edges are exact boundaries: 10 < 16, {10,100} < 128.
        assert_eq!(le[0], 1);
        assert_eq!(le[1], 2);
        assert_eq!(le[5], 6, "2^21 > 1e6 captures everything");
    }

    #[test]
    fn empty_is_sane() {
        let s = AtomicHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.min(), 0);
        assert_eq!(s.max(), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn recorded_halves_merge_to_combined_recording() {
        // Two halves recorded into plain snapshots and merged afterwards
        // must agree bucket-for-bucket with one atomic histogram that saw
        // every value.
        let whole = AtomicHistogram::new();
        let mut a = HistSnapshot::empty();
        let mut b = HistSnapshot::empty();
        for v in 0..1000u64 {
            let x = (v * 2654435761) % 100_000;
            whole.record(x);
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
        }
        a.merge(&b);
        let w = whole.snapshot();
        assert_eq!(a, w);
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), w.quantile(q));
        }
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut s = HistSnapshot::empty();
        for v in [5u64, 50, 500, 5000, 50_000] {
            s.record(v);
        }
        let cdf = s.cdf();
        assert_eq!(cdf.len(), 5);
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1), "{cdf:?}");
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-9);
        assert!(HistSnapshot::empty().cdf().is_empty());
    }

    #[test]
    fn small_values_do_not_collapse_into_one_quantile() {
        let mut s = HistSnapshot::empty();
        for v in [1u64, 3, 9] {
            s.record(v);
        }
        assert_eq!(s.count(), 3);
        assert!(s.quantile(0.01) < s.quantile(0.5), "{s:?}");
        assert!(s.quantile(0.5) < s.quantile(0.99), "{s:?}");
    }

    #[test]
    fn reset_empties() {
        let h = AtomicHistogram::new();
        h.record(42);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.max(), 0);
    }
}
