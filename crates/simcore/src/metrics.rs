//! Measurement primitives: histograms with exact percentiles,
//! fixed-footprint log-linear histograms, and engine metric snapshots.
//!
//! There are two histograms, each for one stated reason. [`Histogram`]
//! (every sample kept, as `(value, count)` runs, exact percentiles) is
//! the report type: the E1/E4/E6/E12/E13/E19 claims compare exact
//! p50/p99 and their report bytes are pinned. [`LogHistogram`] (252
//! fixed buckets, at most 12.5 % quantile error, no allocation) is the
//! always-on engine instrument (`message_bytes`,
//! `partition_duration_ms`). Both read their quantiles through one
//! nearest-rank walk over ascending `(value, count)` pairs.

use std::fmt;

/// A sample collection with exact quantiles (stores all samples).
///
/// Samples are kept as `(value, count)` runs in recorded order: a sample
/// whose bits equal the last run's value extends it, so repeated values
/// cost one run, and [`record_n`](Self::record_n) records a weighted
/// run at once. Every statistic reads back what a histogram holding each
/// sample separately would, to the bit.
///
/// # Examples
///
/// ```
/// use decent_sim::metrics::Histogram;
///
/// let mut h = Histogram::new();
/// for x in 1..=100 {
///     h.record(x as f64);
/// }
/// assert_eq!(h.percentile(0.5), 50.0);
/// assert_eq!(h.max(), 100.0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    /// `(value, count)` runs; neighbours never hold identical bits.
    runs: Vec<(f64, u64)>,
    len: usize,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record(&mut self, x: f64) {
        self.record_n(x, 1);
    }

    /// Records `n` samples of value `x` (nothing when `n` is 0).
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn record_n(&mut self, x: f64, n: u64) {
        assert!(!x.is_nan(), "histogram samples must not be NaN");
        if n == 0 {
            return;
        }
        self.len += n as usize;
        self.sorted = false;
        match self.runs.last_mut() {
            Some((last, count)) if last.to_bits() == x.to_bits() => *count += n,
            _ => self.runs.push((x, n)),
        }
    }

    /// Number of samples.
    pub fn count(&self) -> usize {
        self.len
    }

    /// Returns true if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean of the samples (0 when empty), summed one by one in their
    /// current order.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.samples().sum::<f64>() / self.len as f64
        }
    }

    /// Minimum sample (0 when empty).
    pub fn min(&self) -> f64 {
        self.extreme(f64::INFINITY, f64::min)
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.extreme(f64::NEG_INFINITY, f64::max)
    }

    /// Folds the run values with `pick` from `start` (0 when empty).
    fn extreme(&self, start: f64, pick: fn(f64, f64) -> f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.runs.iter().map(|r| r.0).fold(start, pick)
    }

    /// Exact `q`-quantile by nearest-rank (q in `[0, 1]`; 0 when empty).
    ///
    /// Sorts the samples in place (stably, by `total_cmp`) on the first
    /// call after a record.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if !self.sorted && !self.is_empty() {
            self.runs.sort_by(|a, b| a.0.total_cmp(&b.0));
            self.runs.dedup_by(|(x, n), (kept, m)| {
                let same = x.to_bits() == kept.to_bits();
                if same {
                    *m += *n;
                }
                same
            });
            self.sorted = true;
        }
        nearest_rank(q, self.len as u64, self.runs.iter().copied()).unwrap_or(0.0)
    }

    /// A snapshot of common statistics.
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean(),
            min: self.min(),
            p50: self.percentile(0.50),
            p90: self.percentile(0.90),
            p99: self.percentile(0.99),
            max: self.max(),
        }
    }

    /// All samples, in recorded order until a
    /// [`percentile`](Self::percentile) sorts them.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.runs
            .iter()
            .flat_map(|&(x, n)| std::iter::repeat_n(x, n as usize))
    }

    /// Merges another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for &(x, n) in &other.runs {
            self.record_n(x, n);
        }
    }
}

/// Compares the samples in their current order, however they are split
/// into runs.
impl PartialEq for Histogram {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.samples().eq(other.samples())
    }
}

impl Extend<f64> for Histogram {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.record(x);
        }
    }
}

impl FromIterator<f64> for Histogram {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut h = Histogram::new();
        h.extend(iter);
        h
    }
}

/// The value at `q`'s nearest rank, the `⌈q·len⌉`-th smallest (at
/// least the first), among `len` samples given as ascending
/// `(value, count)` pairs; `None` when `len` is 0.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
fn nearest_rank<T>(q: f64, len: u64, ascending: impl IntoIterator<Item = (T, u64)>) -> Option<T> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if len == 0 {
        return None;
    }
    let mut rank = (((q * len as f64).ceil() as u64).max(1) - 1).min(len - 1);
    for (x, count) in ascending {
        if rank < count {
            return Some(x);
        }
        rank -= count;
    }
    unreachable!("the pairs hold fewer than {len} samples")
}

/// Snapshot statistics of a [`Histogram`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} p50={:.3} p90={:.3} p99={:.3} max={:.3}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

/// Sub-bucket resolution bits of a [`LogHistogram`] octave.
const LOG_HIST_SUB_BITS: u32 = 2;
/// Linear sub-buckets per octave (`2^LOG_HIST_SUB_BITS`).
const LOG_HIST_SUBS: usize = 1 << LOG_HIST_SUB_BITS;
/// Total fixed bucket count: `LOG_HIST_SUBS` unit buckets for values
/// below `LOG_HIST_SUBS`, then `LOG_HIST_SUBS` buckets per octave for
/// exponents `LOG_HIST_SUB_BITS..=63`.
const LOG_HIST_BUCKETS: usize = (64 - LOG_HIST_SUB_BITS as usize + 1) * LOG_HIST_SUBS;

/// A fixed-bucket log-linear histogram over `u64` values.
///
/// Unlike [`Histogram`], which stores every sample exactly, this is the
/// cheap always-on engine instrument: recording is a handful of bit
/// operations into a fixed 252-bucket array (no allocation, no
/// per-sample storage), so it can sit on the hot path of the event loop.
/// Each power-of-two range ("octave") is split into four linear
/// sub-buckets, bounding the relative quantile error at ~12.5% while
/// covering the full `0..=u64::MAX` range.
///
/// Exact `count`, `sum`, `min`, and `max` are tracked alongside the
/// buckets; quantiles are approximate (nearest bucket lower bound).
///
/// # Examples
///
/// ```
/// use decent_sim::metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in [0u64, 1, 100, 100, 4096] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.min(), 0);
/// assert_eq!(h.max(), 4096);
/// // p50 lands in the bucket containing 100 (lower bound 96).
/// assert_eq!(h.percentile(0.5), 96);
/// ```
#[derive(Clone, PartialEq)]
pub struct LogHistogram {
    buckets: [u64; LOG_HIST_BUCKETS],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: [0; LOG_HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The bucket index for value `v`.
    ///
    /// Values below `LOG_HIST_SUBS` (4) get exact unit buckets; larger
    /// values index `(octave, sub-bucket)` pairs.
    pub fn bucket_index(v: u64) -> usize {
        if v < LOG_HIST_SUBS as u64 {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= LOG_HIST_SUB_BITS
        let sub = ((v >> (exp - LOG_HIST_SUB_BITS)) & (LOG_HIST_SUBS as u64 - 1)) as usize;
        (exp - LOG_HIST_SUB_BITS + 1) as usize * LOG_HIST_SUBS + sub
    }

    /// The smallest value mapping to bucket `i` (the bucket's
    /// "representative" reported by [`percentile`](Self::percentile)).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bucket_lower_bound(i: usize) -> u64 {
        assert!(i < LOG_HIST_BUCKETS, "bucket index out of range");
        if i < LOG_HIST_SUBS {
            return i as u64;
        }
        let exp = (i / LOG_HIST_SUBS) as u32 + LOG_HIST_SUB_BITS - 1;
        let sub = (i % LOG_HIST_SUBS) as u64;
        (LOG_HIST_SUBS as u64 + sub) << (exp - LOG_HIST_SUB_BITS)
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact minimum (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact maximum (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate `q`-quantile by nearest rank: the lower bound of the
    /// bucket holding the rank-`⌈q·n⌉` value (0 when empty).
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> u64 {
        nearest_rank(q, self.count, self.nonzero_buckets()).unwrap_or(0)
    }

    /// Returns true if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds every bucket and statistic of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates over the non-empty buckets as
    /// `(bucket lower bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_lower_bound(i), n))
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish_non_exhaustive()
    }
}

/// One metric in a [`MetricsSnapshot`].
#[expect(
    clippy::large_enum_variant,
    reason = "Dist carries a ~2 KiB histogram while Counter/Peak are one word, but snapshots hold a dozen entries built once per run: boxing would cost an indirection on every percentile read for no measurable saving"
)]
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotone count; merged by addition.
    Counter(u64),
    /// A high-water mark; merged by maximum.
    Peak(u64),
    /// A distribution; merged bucket-wise.
    Dist(LogHistogram),
}

impl Metric {
    /// Folds `other` into `self` according to the metric kind.
    ///
    /// # Panics
    ///
    /// Panics if the two metrics are of different kinds.
    fn merge(&mut self, other: &Metric) {
        match (self, other) {
            (Metric::Counter(a), Metric::Counter(b)) => *a += b,
            (Metric::Peak(a), Metric::Peak(b)) => *a = (*a).max(*b),
            (Metric::Dist(a), Metric::Dist(b)) => a.merge(b),
            _ => panic!("cannot merge metrics of different kinds"),
        }
    }
}

/// An ordered, extensible bag of named metrics.
///
/// This is the exchange format between the engine and experiment
/// reports: [`crate::engine::Simulation::metrics_snapshot`] produces
/// one, experiments may [`set`](Self::set) additional entries of their
/// own, and snapshots from independent simulations combine with
/// [`merge`](Self::merge) (counters add, peaks take the max,
/// distributions add bucket-wise).
///
/// Entries keep insertion order, so serialized output is deterministic.
#[derive(Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<(String, Metric)>,
}

impl MetricsSnapshot {
    /// Creates an empty snapshot.
    pub fn new() -> Self {
        MetricsSnapshot::default()
    }

    /// Sets (or replaces) a counter metric.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.set(name, Metric::Counter(value));
    }

    /// Sets (or replaces) a peak (high-water mark) metric.
    pub fn set_peak(&mut self, name: &str, value: u64) {
        self.set(name, Metric::Peak(value));
    }

    /// Sets (or replaces) a named metric.
    pub fn set(&mut self, name: &str, metric: Metric) {
        if let Some((_, m)) = self.entries.iter_mut().find(|(n, _)| n == name) {
            *m = metric;
        } else {
            self.entries.push((name.to_string(), metric));
        }
    }

    /// Looks up a metric by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, m)| m)
    }

    /// The value of counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(Metric::Counter(v)) | Some(Metric::Peak(v)) => *v,
            _ => 0,
        }
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[(String, Metric)] {
        &self.entries
    }

    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns true when the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Folds `other` into `self`: same-named metrics merge by kind
    /// (counters add, peaks max, distributions bucket-add); names only
    /// in `other` are appended.
    ///
    /// # Panics
    ///
    /// Panics if a name is bound to different metric kinds.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, metric) in &other.entries {
            if let Some((_, mine)) = self.entries.iter_mut().find(|(n, _)| n == name) {
                mine.merge(metric);
            } else {
                self.entries.push((name.clone(), metric.clone()));
            }
        }
    }
}

impl fmt::Debug for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut map = f.debug_map();
        for (name, metric) in &self.entries {
            map.entry(name, metric);
        }
        map.finish()
    }
}

/// Gini coefficient of a non-negative distribution (0 = perfectly equal,
/// 1 = one holder owns everything). Used for mining-power concentration.
///
/// Returns 0 for empty or all-zero inputs.
///
/// # Examples
///
/// ```
/// use decent_sim::metrics::gini;
///
/// assert!(gini(&[1.0, 1.0, 1.0, 1.0]) < 1e-9);
/// assert!(gini(&[0.0, 0.0, 0.0, 10.0]) > 0.7);
/// ```
pub fn gini(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().cloned().filter(|x| *x >= 0.0).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len() as f64;
    let total: f64 = v.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let weighted: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (i as f64 + 1.0) * x)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

/// Share of the total held by the `k` largest values (top-k concentration).
///
/// Returns 0 for empty or all-zero inputs.
pub fn top_k_share(values: &[f64], k: usize) -> f64 {
    let total: f64 = values.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    v.iter().take(k).sum::<f64>() / total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_exact() {
        let mut h: Histogram = (1..=1000).map(|x| x as f64).collect();
        assert_eq!(h.percentile(0.0), 1.0);
        assert_eq!(h.percentile(0.5), 500.0);
        assert_eq!(h.percentile(0.9), 900.0);
        assert_eq!(h.percentile(1.0), 1000.0);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn histogram_stats() {
        let mut h: Histogram = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(h.mean(), 5.0);
        let s = h.summary();
        assert_eq!(s.count, 8);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a: Histogram = [1.0, 2.0].into_iter().collect();
        let b: Histogram = [3.0].into_iter().collect();
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), 3.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn histogram_rejects_nan() {
        Histogram::new().record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn record_n_rejects_nan() {
        Histogram::new().record_n(f64::NAN, 3);
    }

    #[test]
    fn histogram_extremes_include_infinities() {
        let mut h: Histogram = [1.0, f64::INFINITY, -2.0].into_iter().collect();
        assert_eq!(h.max(), f64::INFINITY);
        assert_eq!(h.min(), -2.0);
        let s = h.summary();
        assert!(s.max >= s.p99, "{s:?}");
        let mut low: Histogram = [3.0, f64::NEG_INFINITY].into_iter().collect();
        assert_eq!(low.min(), f64::NEG_INFINITY);
        assert_eq!(low.percentile(0.0), f64::NEG_INFINITY);
    }

    /// Every statistic as bits, so a sum rounded in another order fails.
    fn bits(h: &mut Histogram) -> Vec<u64> {
        let s = h.summary();
        let mut v = vec![s.count as u64];
        v.extend([s.mean, s.min, s.p50, s.p90, s.p99, s.max].map(f64::to_bits));
        v.extend([h.min(), h.max(), h.mean()].map(f64::to_bits));
        for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.999, 1.0] {
            v.push(h.percentile(q).to_bits());
        }
        // Taken after the percentiles: summed in sorted order.
        v.push(h.mean().to_bits());
        v
    }

    #[test]
    fn record_n_matches_the_expanded_records() {
        use crate::rng::rng_from_seed;
        use rand::Rng;

        // Ties, both zeros, subnormals and both infinities, drawn often
        // enough that neighbouring runs repeat a value.
        let pool = [
            f64::NEG_INFINITY,
            -3.5,
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(5),
            0.1,
            0.7,
            1e300,
            f64::INFINITY,
        ];
        for seed in 0..64 {
            let mut rng = rng_from_seed(seed);
            // Odd seeds leave out the infinities and 1e300, which would
            // swamp the mean and hide the order it is summed in.
            let pool = if seed % 2 == 0 {
                &pool[..]
            } else {
                &pool[1..8]
            };
            let runs: Vec<(f64, u64)> = (0..rng.gen_range(0..60))
                .map(|_| {
                    let x = match rng.gen_range(0..4) {
                        0 => rng.gen_range(-1e3..1e3),
                        _ => pool[rng.gen_range(0..pool.len())],
                    };
                    (x, rng.gen_range(0..5u64))
                })
                .collect();
            let (mut weighted, mut expanded) = (Histogram::new(), Histogram::new());
            for &(x, n) in &runs {
                weighted.record_n(x, n);
                for _ in 0..n {
                    expanded.record(x);
                }
            }
            assert!(weighted == expanded, "seed {seed}");
            let (mut first, mut second) = (Histogram::new(), Histogram::new());
            let (head, tail) = runs.split_at(runs.len() / 2);
            head.iter().for_each(|&(x, n)| first.record_n(x, n));
            tail.iter().for_each(|&(x, n)| second.record_n(x, n));
            first.merge(&second);
            assert!(first == expanded, "seed {seed}");

            // The model is the `Vec<f64>` of samples these runs stand for.
            let mut model: Vec<f64> = runs
                .iter()
                .flat_map(|&(x, n)| std::iter::repeat_n(x, n as usize))
                .collect();
            assert!(expanded.samples().eq(model.iter().copied()), "seed {seed}");
            assert_eq!(model.len(), expanded.count());
            let sum = |v: &[f64]| (v.iter().sum::<f64>() / v.len() as f64).to_bits();
            if !model.is_empty() {
                assert_eq!(expanded.mean().to_bits(), sum(&model), "seed {seed}");
                let min = model.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(expanded.min().to_bits(), min.to_bits(), "seed {seed}");
            }
            let want = bits(&mut expanded);
            model.sort_by(f64::total_cmp);
            assert!(expanded.samples().eq(model.iter().copied()), "seed {seed}");
            if let Some(&last) = model.last() {
                let n = model.len();
                for q in [0.0, 0.001, 0.25, 0.5, 0.9, 0.999, 1.0] {
                    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                    let got = expanded.percentile(q).to_bits();
                    assert_eq!(got, model[rank - 1].to_bits(), "seed {seed} q {q}");
                }
                assert_eq!(expanded.max().to_bits(), last.to_bits(), "seed {seed}");
                assert_eq!(expanded.mean().to_bits(), sum(&model), "seed {seed}");
            }
            assert_eq!(bits(&mut weighted), want, "seed {seed}");
            assert_eq!(bits(&mut first), want, "seed {seed}");
            assert!(weighted == expanded, "seed {seed}: sorted alike");
            let before = weighted.clone();
            weighted.record_n(2.0, 0);
            assert!(weighted == before && weighted.count() == before.count());
        }
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[]), 0.0);
        assert!(gini(&[5.0; 10]) < 1e-9);
        let skewed = gini(&[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 100.0]);
        assert!(skewed > 0.85, "{skewed}");
    }

    #[test]
    fn log_histogram_unit_buckets_are_exact() {
        // Values below the sub-bucket count get one bucket each.
        for v in 0..LOG_HIST_SUBS as u64 {
            assert_eq!(LogHistogram::bucket_index(v), v as usize);
            assert_eq!(LogHistogram::bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn log_histogram_bucket_boundaries() {
        // Every bucket's lower bound must map back to that bucket, and
        // the value just below it to the previous bucket.
        for i in 0..LOG_HIST_BUCKETS {
            let lo = LogHistogram::bucket_lower_bound(i);
            assert_eq!(LogHistogram::bucket_index(lo), i, "lower bound of {i}");
            if lo > 0 {
                assert_eq!(
                    LogHistogram::bucket_index(lo - 1),
                    i - 1,
                    "below bucket {i}"
                );
            }
        }
        // Powers of two land at the start of a fresh octave.
        for exp in LOG_HIST_SUB_BITS..64 {
            let v = 1u64 << exp;
            assert_eq!(
                LogHistogram::bucket_lower_bound(LogHistogram::bucket_index(v)),
                v
            );
        }
    }

    #[test]
    fn log_histogram_extremes() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.sum(), u64::MAX as u128);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), LOG_HIST_BUCKETS - 1);
        assert_eq!(h.percentile(0.0), 0);
        // u64::MAX's bucket starts at 0xE000...0 (sub-bucket 3 of octave 63).
        assert_eq!(h.percentile(1.0), 0xE000_0000_0000_0000);
        // Overflow safety: many large values must not overflow the u128 sum.
        for _ in 0..1000 {
            h.record(u64::MAX);
        }
        assert_eq!(h.sum(), 1001 * u64::MAX as u128);
    }

    #[test]
    fn log_histogram_empty_is_zeroed() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn log_histogram_quantile_error_is_bounded() {
        // The reported quantile is a bucket lower bound, so it may
        // undershoot by at most one sub-bucket width (25% of the value's
        // power-of-two range, i.e. a factor of 1.25 relative error).
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let exact = (q * 10_000.0).ceil();
            let got = h.percentile(q) as f64;
            assert!(got <= exact, "q={q}: {got} > {exact}");
            assert!(got >= exact / 1.25, "q={q}: {got} undershoots {exact}");
        }
    }

    #[test]
    fn log_histogram_merge_matches_combined_recording() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut both = LogHistogram::new();
        for v in [3u64, 70, 900, 0] {
            a.record(v);
            both.record(v);
        }
        for v in [u64::MAX, 5, 5] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn metrics_snapshot_merges_by_kind() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("events", 10);
        a.set_peak("depth", 5);
        let mut d = LogHistogram::new();
        d.record(100);
        a.set("bytes", Metric::Dist(d.clone()));

        let mut b = MetricsSnapshot::new();
        b.set_counter("events", 7);
        b.set_peak("depth", 3);
        b.set("bytes", Metric::Dist(d));
        b.set_counter("extra", 1);

        a.merge(&b);
        assert_eq!(a.counter("events"), 17);
        assert_eq!(a.counter("depth"), 5);
        assert_eq!(a.counter("extra"), 1);
        match a.get("bytes") {
            Some(Metric::Dist(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Insertion order is stable (serialization determinism).
        let names: Vec<&str> = a.entries().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["events", "depth", "bytes", "extra"]);
    }

    #[test]
    fn metrics_snapshot_set_replaces() {
        let mut s = MetricsSnapshot::new();
        s.set_counter("x", 1);
        s.set_counter("x", 9);
        assert_eq!(s.len(), 1);
        assert_eq!(s.counter("x"), 9);
        assert_eq!(s.counter("absent"), 0);
    }

    #[test]
    #[should_panic(expected = "different kinds")]
    fn metrics_snapshot_rejects_kind_mismatch() {
        let mut a = MetricsSnapshot::new();
        a.set_counter("x", 1);
        let mut b = MetricsSnapshot::new();
        b.set_peak("x", 2);
        a.merge(&b);
    }

    #[test]
    fn top_k_share_works() {
        let v = [50.0, 25.0, 15.0, 10.0];
        assert!((top_k_share(&v, 1) - 0.5).abs() < 1e-9);
        assert!((top_k_share(&v, 2) - 0.75).abs() < 1e-9);
        assert!((top_k_share(&v, 10) - 1.0).abs() < 1e-9);
        assert_eq!(top_k_share(&[], 3), 0.0);
    }
}
