//! Fixed log-bucket latency histograms, mergeable across workers.

/// Bucket `i` holds latencies in `[2^(i-1), 2^i)` µs (bucket 0 = 0 µs);
/// the last bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencyHistogram {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub total_us: u64,
    pub max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram { buckets: [0; HIST_BUCKETS], count: 0, total_us: 0, max_us: 0 }
    }
}

impl LatencyHistogram {
    #[inline]
    pub fn observe(&mut self, us: u64) {
        let bucket =
            if us == 0 { 0 } else { (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1) };
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_us = self.total_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.total_us = self.total_us.saturating_add(other.total_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64
        }
    }
}

/// One histogram per payload code (for us: per hypercall number).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSet {
    pub by_code: Vec<LatencyHistogram>,
}

impl HistogramSet {
    pub fn new(codes: usize) -> Self {
        HistogramSet { by_code: vec![LatencyHistogram::default(); codes] }
    }

    #[inline]
    pub fn observe(&mut self, code: u32, us: u64) {
        if let Some(h) = self.by_code.get_mut(code as usize) {
            h.observe(us);
        }
    }

    pub fn merge(&mut self, other: &HistogramSet) {
        if self.by_code.len() < other.by_code.len() {
            self.by_code.resize(other.by_code.len(), LatencyHistogram::default());
        }
        for (code, h) in other.by_code.iter().enumerate() {
            self.by_code[code].merge(h);
        }
    }

    /// `(code, histogram)` pairs for codes that saw at least one sample.
    pub fn nonzero(&self) -> impl Iterator<Item = (u32, &LatencyHistogram)> {
        self.by_code.iter().enumerate().filter(|(_, h)| h.count > 0).map(|(c, h)| (c as u32, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        let mut h = LatencyHistogram::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 1: [1,2)
        h.observe(2); // bucket 2: [2,4)
        h.observe(3); // bucket 2
        h.observe(4); // bucket 3: [4,8)
        h.observe(u64::MAX); // clamped to last bucket
        assert_eq!(h.buckets[0], 1);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(h.count, 6);
        assert_eq!(h.max_us, u64::MAX);
    }

    /// Audit of the log2 bucketing at every bucket edge: for each bucket
    /// `i` in `1..15`, the half-open range is `[2^(i-1), 2^i)`, so
    /// `2^(i-1)` (lowest member), `2^i - 1` (highest member) land in
    /// bucket `i` and `2^i` lands in bucket `i+1`. Bucket 0 is exactly
    /// 0 µs and the last bucket absorbs everything from `2^14` up.
    #[test]
    fn every_bucket_edge_is_pinned() {
        for i in 1..HIST_BUCKETS - 1 {
            let lo = 1u64 << (i - 1);
            let hi = (1u64 << i) - 1;
            let mut h = LatencyHistogram::default();
            h.observe(lo);
            assert_eq!(h.buckets[i], 1, "2^{} = {lo} must open bucket {i}", i - 1);
            let mut h = LatencyHistogram::default();
            h.observe(hi);
            assert_eq!(h.buckets[i], 1, "2^{i}-1 = {hi} must close bucket {i}");
        }
        // The overflow bucket starts exactly at 2^14 and never spills.
        let mut h = LatencyHistogram::default();
        h.observe((1 << 14) - 1);
        assert_eq!(h.buckets[HIST_BUCKETS - 2], 1, "2^14-1 is the last finite bucket's top");
        h.observe(1 << 14);
        h.observe(1 << 20);
        h.observe(u64::MAX);
        assert_eq!(h.buckets[HIST_BUCKETS - 1], 3, "everything >= 2^14 lands in the last bucket");
        assert_eq!(h.count, 4);
    }

    #[test]
    fn zero_latency_events_do_not_leak_into_bucket_one() {
        let mut h = LatencyHistogram::default();
        for _ in 0..1000 {
            h.observe(0);
        }
        assert_eq!(h.buckets[0], 1000);
        assert_eq!(h.buckets[1], 0);
        assert_eq!(h.total_us, 0);
        assert_eq!(h.max_us, 0);
        assert_eq!(h.mean_us(), 0.0);
    }

    #[test]
    fn saturating_total_survives_u64_max_observations() {
        let mut h = LatencyHistogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.total_us, u64::MAX, "total saturates instead of wrapping");
        assert_eq!(h.count, 2);
        assert_eq!(h.max_us, u64::MAX);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = HistogramSet::new(4);
        let mut b = HistogramSet::new(4);
        a.observe(1, 5);
        b.observe(1, 7);
        b.observe(3, 100);
        a.merge(&b);
        assert_eq!(a.by_code[1].count, 2);
        assert_eq!(a.by_code[1].total_us, 12);
        assert_eq!(a.by_code[3].max_us, 100);
        assert_eq!(a.nonzero().count(), 2);
    }
}
