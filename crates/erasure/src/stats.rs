//! Shared distribution statistics: the nearest-rank percentile and a
//! mergeable log-bucketed latency histogram.
//!
//! The service front-end reports per-tenant admission→completion latency
//! from here, so "p99" means the same thing everywhere in the workspace.
//!
//! Two representations, two tradeoffs:
//!
//! * [`percentile`] operates on the full sample vector — exact
//!   nearest-rank semantics, right when every sample is kept;
//! * [`Histogram`] is a fixed-size log₂-bucketed sketch — O(1) record,
//!   mergeable across worker shards, bounded memory under sustained
//!   traffic, percentiles interpolated within the matched bucket with the
//!   same rank rule.

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
///
/// `q` is clamped to `[0, 1]`; the rank is `round((len - 1) * q)`, so
/// `q = 0.5` over `[1, 2, 3, 4]` picks index `round(1.5) = 2` → `3.0`.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Number of log₂ buckets: covers `[0, 2^63)` — any u64 sample.
const BUCKETS: usize = 64;

/// A mergeable log₂-bucketed histogram of non-negative integer samples
/// (typically latencies in nanoseconds).
///
/// Bucket `b` holds samples in `[2^(b-1), 2^b)` (bucket 0 holds `{0}`),
/// so a reported percentile is accurate to within one octave; within the
/// matched bucket the value is linearly interpolated by rank. Exact
/// count, sum, min and max are tracked alongside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn bucket_of(sample: u64) -> usize {
        (64 - sample.leading_zeros()) as usize
    }

    /// Lower edge of bucket `b` (inclusive).
    fn bucket_lo(b: usize) -> u64 {
        if b == 0 { 0 } else { 1u64 << (b - 1) }
    }

    /// Upper edge of bucket `b` (exclusive, saturating).
    fn bucket_hi(b: usize) -> u64 {
        if b >= 63 { u64::MAX } else { 1u64 << b }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: u64) {
        self.buckets[Self::bucket_of(sample).min(BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum += u128::from(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Folds another histogram into this one (shard aggregation).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest recorded sample.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate nearest-rank percentile.
    ///
    /// Walks the buckets to the one containing rank `round((count-1)*q)`
    /// and interpolates linearly inside it, clamped to the observed
    /// min/max so tails never overshoot real samples.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < seen + n {
                let lo = Self::bucket_lo(b) as f64;
                let hi = Self::bucket_hi(b) as f64;
                let within = (rank - seen) as f64 / n as f64;
                let est = lo + (hi - lo) * within;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Pins the workspace-wide percentile semantics: nearest rank with
    // round-half-up on `(len - 1) * q`.
    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(percentile(&s, 0.5), 3.0); // round(1.5) = 2
        assert_eq!(percentile(&s, 0.25), 2.0); // round(0.75) = 1
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // Out-of-range q clamps instead of panicking.
        assert_eq!(percentile(&s, -1.0), 1.0);
        assert_eq!(percentile(&s, 2.0), 4.0);
    }

    #[test]
    fn histogram_percentiles_bracket_exact_ranks() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=1000).collect();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Log-bucketed: the estimate must land within one octave of the
        // exact nearest-rank answer and inside [min, max].
        for q in [0.5, 0.9, 0.99] {
            let exact = samples[((samples.len() - 1) as f64 * q).round() as usize] as f64;
            let est = h.percentile(q);
            assert!(est >= exact / 2.0 && est <= exact * 2.0, "q={q}: est {est} vs exact {exact}");
        }
        assert_eq!(h.percentile(1.0), 1000.0);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for s in 0..200u64 {
            if s % 2 == 0 { a.record(s * 7) } else { b.record(s * 7) }
            whole.record(s * 7);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn histogram_handles_zero_and_huge() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.percentile(0.0), 0.0);
    }
}
