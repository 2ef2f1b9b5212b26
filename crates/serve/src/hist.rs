//! Fixed-shape log₂ histograms for serving statistics.
//!
//! [`ServeStats`](crate::server::ServeStats) needs distribution summaries
//! (queue depth, queue wait, admitted latency) that stay cheap, mergeable,
//! and `Eq`-comparable — the pool- and overload-determinism tests compare
//! whole stats structs for equality across worker counts and runs. A
//! fixed `[u64; 32]` of power-of-two buckets gives all three: merging is
//! element-wise summation (so pool totals remain the lossless sum of the
//! workers'), and two identical runs produce byte-identical histograms.
//!
//! Bucket `i` counts values `v` with `floor(log2(v)) + 1 == i` (bucket 0 is
//! exactly `v == 0`), i.e. bucket upper bounds are 0, 1, 3, 7, …, 2³¹−1 and
//! the last bucket is open-ended. Quantiles are therefore resolved to a
//! power-of-two upper bound — exact percentiles, where an experiment needs
//! them, come from its per-request records through [`percentile`].

/// A mergeable log₂-bucket histogram of `u64` samples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket sample counts (see module docs for the bucket bounds).
    buckets: [u64; 32],
    /// Total samples recorded.
    count: u64,
    /// Sum of all samples (for the mean).
    sum: u64,
    /// Largest sample recorded.
    max: u64,
}

/// Bucket index for a value: 0 for 0, else `min(31, floor(log2(v)) + 1)`.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(31)
    }
}

impl Histogram {
    /// A histogram with no samples.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Largest sample recorded (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket sample counts (see module docs for the bucket bounds).
    /// The metrics exporter renders these as cumulative Prometheus buckets.
    pub fn bucket_counts(&self) -> &[u64; 32] {
        &self.buckets
    }

    /// Upper bound of bucket `i`: 0, 1, 3, 7, …, 2³¹−1; the last bucket is
    /// open-ended (rendered as `+Inf`).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << i.min(31)) - 1
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `q`-quantile (`q` ∈ [0, 1]): the bound of the
    /// first bucket at which the cumulative count reaches `q · count`,
    /// clamped to the observed maximum. Returns 0 when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                let bound = if i == 0 { 0 } else { (1u64 << i) - 1 };
                return bound.min(self.max);
            }
        }
        self.max
    }

    /// Element-wise folds `other` into `self`; merged totals equal the
    /// histogram of the concatenated sample streams.
    pub fn merge(&mut self, other: &Histogram) {
        for i in 0..32 {
            self.buckets[i] += other.buckets[i];
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Exact nearest-rank percentile (`p` ∈ [0, 100]) of an ascending-sorted
/// slice; 0 when the slice is empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 0.0), 10, "p0 is the minimum");
        assert_eq!(percentile(&v, 50.0), 20, "rank ceil(0.5 * 4) = 2");
        assert_eq!(percentile(&v, 100.0), 40, "p100 is the maximum");
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn buckets_cover_the_value_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 31);
    }

    #[test]
    fn mean_max_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - (1106.0 / 6.0)).abs() < 1e-9);
        // Half the samples are ≤ 3, so the p50 bucket bound is 3.
        assert_eq!(h.quantile_upper_bound(0.5), 3);
        // The top quantile clamps to the observed max, not the bucket bound.
        assert_eq!(h.quantile_upper_bound(1.0), 1000);
        assert_eq!(Histogram::new().quantile_upper_bound(0.99), 0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [5u64, 9, 31] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 7, 4096] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
