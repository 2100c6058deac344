//! Service-level metrics for client traffic: per-command submit→commit
//! latency in a deterministic fixed-bucket histogram, plus the
//! throughput/backpressure gauges surfaced through
//! `ofa_scenario::Outcome`.
//!
//! Everything here is integer-only on the hot path: recording a latency
//! is a handful of shifts, and percentiles are exact bucket upper bounds
//! — so the numbers are bit-for-bit identical across engines, worker
//! counts, and checkpoint/resume hops, and safe to assert on in the
//! equivalence corpus.

use serde::{Deserialize, Serialize};

/// Values below this record exactly (bucket index == value).
const EXACT: u64 = 32;
/// Sub-buckets per power of two above the exact range.
const SUBS: u64 = 16;
/// Bucket count: 32 exact + 16 sub-buckets for each exponent 5..=63.
const BUCKETS: usize = (EXACT + (64 - 6) * SUBS + SUBS) as usize;

/// A deterministic fixed-bucket latency histogram.
///
/// Values `< 32` land in exact unit buckets; larger values use a
/// log-linear scheme (16 sub-buckets per power of two), bounding the
/// relative quantile error at `2⁻⁴` while keeping `record` float-free.
/// Buckets grow on demand, so an idle process costs no memory.
///
/// # Examples
///
/// ```
/// use ofa_metrics::LatencyHistogram;
///
/// let mut h = LatencyHistogram::new();
/// for v in [1u64, 2, 2, 3, 30] {
///     h.record(v);
/// }
/// assert_eq!(h.total(), 5);
/// assert_eq!(h.percentile(50), 2); // exact below 32
/// assert_eq!(h.percentile(100), 30);
/// ```
///
/// Serialized as the total plus sparse `(index, count)` pairs, so huge
/// empty ranges cost nothing in a checkpoint.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(try_from = "SparseHistogram", into = "SparseHistogram")]
pub struct LatencyHistogram {
    /// Dense counts, truncated at the highest occupied bucket.
    buckets: Vec<u64>,
    /// Total recorded samples.
    total: u64,
}

/// Bucket index for a value: identity below [`EXACT`], log-linear above.
fn bucket_index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as u64; // 5..=63
    let mantissa = (v >> (e - 4)) & (SUBS - 1);
    (EXACT + (e - 5) * SUBS + mantissa) as usize
}

/// Inclusive upper bound of a bucket (saturating at `u64::MAX`).
fn bucket_bound(index: usize) -> u64 {
    let index = index as u64;
    if index < EXACT {
        return index;
    }
    let i = index - EXACT;
    let e = 5 + i / SUBS;
    let m = i % SUBS;
    let lo = 1u128 << e;
    let width = 1u128 << (e - 4);
    let bound = lo + (m as u128 + 1) * width - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one sample. Integer-only: a comparison, a `leading_zeros`,
    /// two shifts, and an increment.
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        if self.buckets.len() <= idx {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// `true` iff nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `p`-th percentile (0..=100) as the inclusive upper bound of
    /// the first bucket whose cumulative count reaches rank
    /// `max(1, ceil(total · p / 100))`. Exact for values `< 32`; within
    /// `2⁻⁴` relative error above. Returns 0 on an empty histogram.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total as u128 * p as u128).div_ceil(100)).max(1);
        let mut cum: u128 = 0;
        for (idx, &count) in self.buckets.iter().enumerate() {
            cum += count as u128;
            if cum >= rank {
                return bucket_bound(idx);
            }
        }
        bucket_bound(self.buckets.len().saturating_sub(1))
    }

    /// Folds `other` into `self` (elementwise add). Associative and
    /// commutative, so per-shard histograms merge to the same result in
    /// any order — the property the parallel engine relies on.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.total += other.total;
    }

    /// Occupied `(bucket upper bound, count)` pairs in ascending order.
    pub fn nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (bucket_bound(i), c))
    }
}

/// Trailing-zero-insensitive equality: `[1, 0]` equals `[1]`.
impl PartialEq for LatencyHistogram {
    fn eq(&self, other: &Self) -> bool {
        if self.total != other.total {
            return false;
        }
        let (long, short) = if self.buckets.len() >= other.buckets.len() {
            (&self.buckets, &other.buckets)
        } else {
            (&other.buckets, &self.buckets)
        };
        long.iter()
            .zip(short.iter().chain(std::iter::repeat(&0)))
            .all(|(a, b)| a == b)
    }
}

impl Eq for LatencyHistogram {}

/// The encoded form of a [`LatencyHistogram`].
#[derive(Serialize, Deserialize)]
struct SparseHistogram {
    total: u64,
    buckets: Vec<(u64, u64)>,
}

impl From<LatencyHistogram> for SparseHistogram {
    fn from(h: LatencyHistogram) -> SparseHistogram {
        let occupied = h.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
        SparseHistogram {
            total: h.total,
            buckets: occupied.map(|(i, &c)| (i as u64, c)).collect(),
        }
    }
}

impl TryFrom<SparseHistogram> for LatencyHistogram {
    type Error = &'static str;

    fn try_from(sparse: SparseHistogram) -> Result<Self, Self::Error> {
        let mut h = LatencyHistogram {
            buckets: Vec::new(),
            total: sparse.total,
        };
        for (idx, count) in sparse.buckets {
            let idx = idx as usize;
            if idx >= BUCKETS {
                return Err("LatencyHistogram: bucket out of range");
            }
            if h.buckets.len() <= idx {
                h.buckets.resize(idx + 1, 0);
            }
            h.buckets[idx] = count;
        }
        Ok(h)
    }
}

/// Per-run client-service statistics: what a replica's traffic state
/// accumulated between the first arrival and the last commit.
///
/// Merging is commutative and associative on every field (sums and
/// maxima), so per-process stats fold to the same global value whatever
/// the engine or worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Commands accepted into a proposer queue.
    pub submitted: u64,
    /// Commands committed (popped from the proposing replica's queue).
    pub committed: u64,
    /// Commands shed because the bounded queue was full at arrival.
    pub shed: u64,
    /// Non-empty batches committed.
    pub batches: u64,
    /// High-water mark of the proposer queue depth.
    pub max_queue_depth: u64,
    /// Virtual time of the last commit (0 if nothing committed).
    pub last_commit_at: u64,
    /// Submit→commit latency of every committed command, in ticks.
    pub latency: LatencyHistogram,
}

impl ServiceStats {
    /// Fresh all-zero stats.
    pub fn new() -> Self {
        ServiceStats::default()
    }

    /// `true` iff no field ever moved — the "no traffic ran" marker.
    pub fn is_empty(&self) -> bool {
        self.submitted == 0
            && self.committed == 0
            && self.shed == 0
            && self.batches == 0
            && self.max_queue_depth == 0
            && self.last_commit_at == 0
            && self.latency.is_empty()
    }

    /// Folds `other` into `self`: counters add, gauges take the maximum,
    /// histograms merge elementwise.
    pub fn merge(&mut self, other: &ServiceStats) {
        self.submitted += other.submitted;
        self.committed += other.committed;
        self.shed += other.shed;
        self.batches += other.batches;
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
        self.last_commit_at = self.last_commit_at.max(other.last_commit_at);
        self.latency.merge(&other.latency);
    }

    /// Commit throughput in commands per 1 000 ticks of virtual time
    /// (report-time only; the hot path never divides).
    pub fn throughput_per_kilotick(&self, end_time: u64) -> f64 {
        if end_time == 0 {
            return 0.0;
        }
        self.committed as f64 * 1_000.0 / end_time as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_buckets_below_32() {
        for v in 0..32 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_log_linear() {
        // 32..64 split into 16 sub-buckets of width 2.
        assert_eq!(bucket_index(32), 32);
        assert_eq!(bucket_index(33), 32);
        assert_eq!(bucket_index(34), 33);
        assert_eq!(bucket_bound(32), 33);
        assert_eq!(bucket_bound(33), 35);
        // 64..128: width 4.
        assert_eq!(bucket_index(64), 48);
        assert_eq!(bucket_index(67), 48);
        assert_eq!(bucket_index(68), 49);
        assert_eq!(bucket_bound(48), 67);
        // Monotone and consistent: every value falls inside its bucket.
        for v in [
            31u64,
            32,
            63,
            64,
            100,
            1_000,
            1 << 20,
            (1 << 40) + 12345,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(bucket_bound(idx) >= v, "bound({idx}) >= {v}");
            if idx > 0 {
                assert!(bucket_bound(idx - 1) < v, "prev bound < {v}");
            }
        }
        assert!(bucket_index(u64::MAX) < BUCKETS);
    }

    #[test]
    fn exact_percentiles_on_known_distribution() {
        // 100 samples of value k for k in 1..=10 (all < 32 → exact).
        let mut h = LatencyHistogram::new();
        for k in 1u64..=10 {
            for _ in 0..10 {
                h.record(k);
            }
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.percentile(50), 5);
        assert_eq!(h.percentile(90), 9);
        assert_eq!(h.percentile(99), 10);
        assert_eq!(h.percentile(100), 10);
        assert_eq!(h.percentile(0), 1, "p0 is the minimum");
        // A one-sample histogram answers that sample everywhere.
        let mut one = LatencyHistogram::new();
        one.record(7);
        for p in [0, 1, 50, 99, 100] {
            assert_eq!(one.percentile(p), 7);
        }
    }

    #[test]
    fn relative_error_is_bounded_above_32() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_000);
        let p = h.percentile(50);
        assert!(p >= 1_000_000);
        // 2⁻⁴ relative error bound.
        assert!(p - 1_000_000 <= 1_000_000 / 16);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |vals: &[u64]| {
            let mut h = LatencyHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h
        };
        let a = mk(&[1, 5, 900, 70_000]);
        let b = mk(&[2, 2, 5]);
        let c = mk(&[1 << 30, 31]);
        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ab_c = ab.clone();
        ab_c.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut a_bc = a.clone();
        a_bc.merge(&bc);
        assert_eq!(ab_c, a_bc);
        // a ⊔ b == b ⊔ a
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        // Merging shard partials equals the single-threaded result.
        let whole = mk(&[1, 5, 900, 70_000, 2, 2, 5, 1 << 30, 31]);
        assert_eq!(ab_c, whole);
        assert_eq!(ab_c.percentile(99), whole.percentile(99));
    }

    #[test]
    fn equality_ignores_trailing_zeros() {
        let mut a = LatencyHistogram::new();
        a.record(3);
        let mut b = a.clone();
        b.record(100);
        // Force trailing zeros in a's storage by merging an empty-ish
        // histogram recorded high then compare against the short one.
        assert_ne!(a, b);
        let mut padded = LatencyHistogram {
            buckets: vec![0, 0, 0, 1, 0, 0, 0, 0],
            total: 1,
        };
        let mut short = LatencyHistogram::new();
        short.record(3);
        assert_eq!(padded, short);
        padded.record(3);
        assert_ne!(padded, short);
    }

    #[test]
    fn histogram_serde_round_trips() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 31, 32, 1 << 40, u64::MAX] {
            h.record(v);
        }
        let copy = LatencyHistogram::from_value(&h.to_value()).expect("round trip");
        assert_eq!(copy, h);
        assert_eq!(copy.percentile(99), h.percentile(99));
    }

    #[test]
    fn service_stats_merge_and_serde() {
        let mut a = ServiceStats::new();
        a.submitted = 10;
        a.committed = 8;
        a.shed = 1;
        a.batches = 2;
        a.max_queue_depth = 5;
        a.last_commit_at = 900;
        a.latency.record(100);
        let mut b = ServiceStats::new();
        b.submitted = 3;
        b.max_queue_depth = 9;
        b.last_commit_at = 400;
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.submitted, 13);
        assert_eq!(merged.committed, 8);
        assert_eq!(merged.max_queue_depth, 9);
        assert_eq!(merged.last_commit_at, 900);
        assert!(!merged.is_empty());
        assert!(ServiceStats::new().is_empty());
        let copy = ServiceStats::from_value(&merged.to_value()).expect("round trip");
        assert_eq!(copy, merged);
    }

    #[test]
    fn throughput_is_a_pure_report_time_ratio() {
        let mut s = ServiceStats::new();
        s.committed = 500;
        assert_eq!(s.throughput_per_kilotick(0), 0.0);
        let t = s.throughput_per_kilotick(1_000_000);
        assert!((t - 0.5).abs() < 1e-9);
    }
}
