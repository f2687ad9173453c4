//! Lightweight metrics: counters, gauges and log-bucket histograms.

use parking_lot::RwLock;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// A monotonically increasing counter.
#[derive(Debug, Default, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge that can move in both directions.
#[derive(Debug, Default, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A power-of-two-bucket histogram for latency-style values.
///
/// Bucket edges are pinned as follows: bucket 0 holds `{0, 1}` and
/// reports upper bound `1`; bucket `k ≥ 1` holds the half-open-below
/// range `(2^(k-1), 2^k]` and reports upper bound `2^k`. In particular a
/// value of exactly `2^k` lands in bucket `k`, so `quantile` never
/// over-reports an exact power of two by a whole bucket. 65 buckets cover
/// the full `u64` range. Memory is constant and recording is lock-free.
///
/// # Examples
///
/// ```
/// use dmem_sim::Histogram;
///
/// let h = Histogram::new();
/// for v in [100, 200, 400, 800] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// assert!(h.mean() > 300.0 && h.mean() < 400.0);
/// assert!(h.quantile(0.5) >= 200);
///
/// // Exact powers of two report their own value as the bucket bound.
/// let p = Histogram::new();
/// p.record(1024);
/// assert_eq!(p.quantile(0.5), 1024);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; 65]>,
    sum: Arc<AtomicU64>,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            sum: Arc::new(AtomicU64::new(0)),
        }
    }

    /// `⌈log2(v)⌉` with `{0, 1} → 0`: bucket `k` covers `(2^(k-1), 2^k]`,
    /// so exact powers of two stay in the bucket whose upper bound they
    /// equal. (The previous `64 - v.leading_zeros()` indexing pushed
    /// `2^k` into bucket `k + 1`, inflating reported quantiles of
    /// power-of-two-heavy data by up to 2×.)
    pub(crate) fn bucket_index(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// Sum of observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean of observations; zero when empty.
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// containing the q-th observation (`1` for bucket 0, `2^i` for
    /// bucket `i ≥ 1` — see the type docs for the exact edges). Zero when
    /// empty.
    pub fn quantile(&self, q: f64) -> u64 {
        Self::quantile_of_counts(&self.bucket_counts(), q)
    }

    /// Upper bound of the highest non-empty bucket (an upper bound on the
    /// maximum observation). Zero when empty.
    pub fn max_bound(&self) -> u64 {
        Self::max_bound_of_counts(&self.bucket_counts())
    }

    /// Raw per-bucket observation counts (see the type docs for edges).
    ///
    /// Lets a caller keep a previous snapshot and diff against the current
    /// one to compute *windowed* quantiles — e.g. the p99 of only the
    /// observations recorded since the last controller tick — via
    /// [`Histogram::quantile_of_counts`].
    pub fn bucket_counts(&self) -> [u64; 65] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Quantile over an externally supplied bucket-count array (typically
    /// the difference of two [`Histogram::bucket_counts`] snapshots).
    /// Returns the same bucket upper bounds as [`Histogram::quantile`];
    /// zero when the counts are all zero.
    pub fn quantile_of_counts(counts: &[u64; 65], q: f64) -> u64 {
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return 0;
        }
        let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Upper bound of the highest non-empty bucket of an externally
    /// supplied count array (same semantics as [`Histogram::max_bound`]);
    /// zero when all counts are zero.
    pub fn max_bound_of_counts(counts: &[u64; 65]) -> u64 {
        for i in (0..counts.len()).rev() {
            if counts[i] > 0 {
                return if i == 0 { 1 } else { 1u64 << i.min(63) };
            }
        }
        0
    }

    /// Number of observations in `counts` that are certainly above
    /// `threshold`: the total of every bucket whose *lower* bound is at
    /// or above it. Observations sharing the threshold's own bucket are
    /// not counted, so the bound is conservative — the burn-rate path
    /// picks SLOs on bucket edges to make it exact.
    pub fn count_over_counts(counts: &[u64; 65], threshold: u64) -> u64 {
        let first = (Self::bucket_index(threshold) + 1).min(counts.len());
        counts[first..].iter().sum()
    }

    /// Compact summary for dumps and reports.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            mean: self.mean(),
            p50: self.quantile(0.5),
            p99: self.quantile(0.99),
            max: self.max_bound(),
        }
    }
}

/// Point-in-time summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Bucket upper bound of the median.
    pub p50: u64,
    /// Bucket upper bound of the 99th percentile.
    pub p99: u64,
    /// Bucket upper bound of the maximum.
    pub max: u64,
}

impl fmt::Display for HistogramSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "count={} mean={:.1} p50={} p99={} max={}",
            self.count, self.mean, self.p50, self.p99, self.max
        )
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// A named registry of metrics, shared across components of one cluster.
///
/// Keys are hierarchical strings such as `"fastswap.swap_out.remote"`.
/// Names are for snapshots, reports and tests; code that runs per
/// operation holds a [`Lazy`] handle instead, which comes through here
/// once.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: RwLock<BTreeMap<String, Counter>>,
    gauges: RwLock<BTreeMap<String, Gauge>>,
    histograms: RwLock<BTreeMap<String, Histogram>>,
    lookups: AtomicU64,
}

/// Returns the metric named `name` from `map`, creating it on first use.
fn lookup<M: Clone + Default>(
    inner: &RegistryInner,
    map: &RwLock<BTreeMap<String, M>>,
    name: &str,
) -> M {
    inner.lookups.fetch_add(1, Ordering::Relaxed);
    if let Some(m) = map.read().get(name) {
        return m.clone();
    }
    map.write().entry(name.to_owned()).or_default().clone()
}

/// `(name, read(metric))` for every metric in `map`, sorted by name.
fn snapshot<M, T>(map: &RwLock<BTreeMap<String, M>>, read: fn(&M) -> T) -> Vec<(String, T)> {
    map.read()
        .iter()
        .map(|(name, metric)| (name.clone(), read(metric)))
        .collect()
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Counter {
        lookup(&self.inner, &self.inner.counters, name)
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        lookup(&self.inner, &self.inner.gauges, name)
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        lookup(&self.inner, &self.inner.histograms, name)
    }

    /// How many times a metric has been resolved by name so far — every
    /// [`MetricsRegistry::counter`], [`MetricsRegistry::gauge`] and
    /// [`MetricsRegistry::histogram`] call, a [`Lazy`] handle's first
    /// touch included. A per-operation path that holds handles leaves
    /// this flat once each of its keys has fired.
    pub fn lookups(&self) -> u64 {
        self.inner.lookups.load(Ordering::Relaxed)
    }

    /// Snapshot of all counter values, sorted by name.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        snapshot(&self.inner.counters, Counter::get)
    }

    /// Snapshot of all gauge values, sorted by name.
    pub fn gauge_snapshot(&self) -> Vec<(String, i64)> {
        snapshot(&self.inner.gauges, Gauge::get)
    }

    /// Snapshot of all histogram summaries, sorted by name.
    pub fn histogram_snapshot(&self) -> Vec<(String, HistogramSummary)> {
        snapshot(&self.inner.histograms, Histogram::summary)
    }

    /// Snapshot of every histogram's raw bucket counts, sorted by name —
    /// the windowed-sampling path: the timeline sampler diffs two of
    /// these to get counts for just the observations inside one window.
    pub fn bucket_snapshot(&self) -> Vec<(String, [u64; 65])> {
        snapshot(&self.inner.histograms, Histogram::bucket_counts)
    }
}

impl fmt::Display for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.counter_snapshot() {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, value) in self.gauge_snapshot() {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, summary) in self.histogram_snapshot() {
            writeln!(f, "{name} = {summary}")?;
        }
        Ok(())
    }
}

/// A metric kind the registry resolves by name.
pub trait Metric: Sized {
    /// Returns the metric of this kind named `name`, creating it on
    /// first use.
    fn lookup(registry: &MetricsRegistry, name: &str) -> Self;
}

impl Metric for Counter {
    fn lookup(registry: &MetricsRegistry, name: &str) -> Self {
        registry.counter(name)
    }
}

impl Metric for Histogram {
    fn lookup(registry: &MetricsRegistry, name: &str) -> Self {
        registry.histogram(name)
    }
}

/// A handle to a named metric that resolves on first touch.
///
/// Building the handle leaves the registry alone: the key appears on the
/// first [`LazyCounter::add`] / [`LazyHistogram::record`], exactly when a
/// by-name call at that spot would have created it, so "this run creates
/// no such key" contracts survive. Every later touch is one atomic load
/// and the metric's own relaxed add. A [`Lazy::unbound`] handle has no
/// registry and ignores every touch.
///
/// # Examples
///
/// ```
/// use dmem_sim::{LazyCounter, MetricsRegistry};
///
/// let registry = MetricsRegistry::new();
/// let reads = LazyCounter::new(&registry, "net.read.ops");
/// assert!(registry.counter_snapshot().is_empty());
/// reads.inc();
/// reads.add(2);
/// assert_eq!(registry.counter("net.read.ops").get(), 3);
/// ```
#[derive(Debug)]
pub struct Lazy<M> {
    registry: Option<MetricsRegistry>,
    name: Cow<'static, str>,
    metric: OnceLock<M>,
}

/// A [`Counter`] handle that registers on first touch.
pub type LazyCounter = Lazy<Counter>;
/// A [`Histogram`] handle that registers on first touch.
pub type LazyHistogram = Lazy<Histogram>;

impl<M: Metric> Lazy<M> {
    /// A handle to `registry`'s metric named `name` (a literal, or an
    /// owned string for keys built at run time such as per-tenant ones).
    pub fn new(registry: &MetricsRegistry, name: impl Into<Cow<'static, str>>) -> Self {
        Lazy {
            registry: Some(registry.clone()),
            name: name.into(),
            metric: OnceLock::new(),
        }
    }

    /// A handle to nothing, for an owner that has no registry (yet).
    pub fn unbound() -> Self {
        Lazy {
            registry: None,
            name: Cow::Borrowed(""),
            metric: OnceLock::new(),
        }
    }

    #[inline]
    fn metric(&self) -> Option<&M> {
        match self.metric.get() {
            Some(metric) => Some(metric),
            None => self.first_touch(),
        }
    }

    #[cold]
    fn first_touch(&self) -> Option<&M> {
        let registry = self.registry.as_ref()?;
        Some(self.metric.get_or_init(|| M::lookup(registry, &self.name)))
    }
}

impl Lazy<Counter> {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. Zero registers the key like any other value.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(counter) = self.metric() {
            counter.add(n);
        }
    }
}

impl Lazy<Histogram> {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(histogram) = self.metric() {
            histogram.record(value);
        }
    }
}

/// Counter values and histogram bucket counts of one or more registries
/// at one instant, summed by name. Two of these diffed give a window of
/// the telemetry timeline; one over every shard's registry, in shard
/// order, gives a sharded run's totals.
///
/// # Examples
///
/// ```
/// use dmem_sim::{MetricsRegistry, MetricsSnapshot};
///
/// let (a, b) = (MetricsRegistry::new(), MetricsRegistry::new());
/// a.counter("reads").add(2);
/// b.counter("reads").add(3);
/// b.histogram("lat_ns").record(4096);
/// let total = MetricsSnapshot::of(&[a, b]);
/// assert_eq!(total.counter("reads"), 5);
/// assert_eq!(total.quantile("lat_ns", 0.5), 4096);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram bucket counts by name.
    pub buckets: BTreeMap<String, [u64; 65]>,
}

impl MetricsSnapshot {
    /// Snapshots `registries` and sums equal names.
    pub fn of(registries: &[MetricsRegistry]) -> Self {
        let mut out = MetricsSnapshot::default();
        for registry in registries {
            for (name, v) in registry.counter_snapshot() {
                *out.counters.entry(name).or_insert(0) += v;
            }
            for (name, counts) in registry.bucket_snapshot() {
                add_counts(out.buckets.entry(name).or_insert([0; 65]), &counts);
            }
        }
        out
    }

    /// Value of the counter named `name` (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Quantile of the histogram named `name`, with [`Histogram`]'s
    /// bucket-upper-bound semantics; zero if absent or empty.
    pub fn quantile(&self, name: &str, q: f64) -> u64 {
        self.buckets
            .get(name)
            .map_or(0, |counts| Histogram::quantile_of_counts(counts, q))
    }
}

/// Adds `counts` into `total`, bucket by bucket.
pub(crate) fn add_counts(total: &mut [u64; 65], counts: &[u64; 65]) {
    for (a, b) in total.iter_mut().zip(counts) {
        *a += b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_accumulates_across_clones() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.add(10);
        g.add(-4);
        assert_eq!(g.get(), 6);
        g.set(-1);
        assert_eq!(g.get(), -1);
    }

    #[test]
    fn histogram_zero_and_one() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 1);
    }

    #[test]
    fn histogram_quantiles_ordered() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 <= p99);
        assert!((256..=1024).contains(&p50), "p50 bucket was {p50}");
    }

    #[test]
    fn histogram_empty_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max_bound(), 0);
    }

    /// Pins the bucket-edge semantics: bucket k covers (2^(k-1), 2^k],
    /// so a value of exactly 2^k reports 2^k — not 2^(k+1) — as its
    /// quantile bound.
    #[test]
    fn histogram_exact_powers_of_two_stay_in_their_bucket() {
        for k in 1..=62u32 {
            let v = 1u64 << k;
            assert_eq!(Histogram::bucket_index(v), k as usize, "2^{k}");
            assert_eq!(Histogram::bucket_index(v + 1), k as usize + 1, "2^{k}+1");
            let h = Histogram::new();
            h.record(v);
            assert_eq!(h.quantile(0.5), v, "quantile of single 2^{k}");
            assert_eq!(h.max_bound(), v);
        }
        // Bucket 0 holds {0, 1} and reports upper bound 1.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        let h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.max_bound(), 1);
    }

    #[test]
    fn histogram_windowed_quantile_from_count_diffs() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let before = h.bucket_counts();
        // Window contains only small observations; overall p99 stays 1024.
        for _ in 0..100 {
            h.record(4);
        }
        let after = h.bucket_counts();
        let mut window = [0u64; 65];
        for i in 0..65 {
            window[i] = after[i] - before[i];
        }
        assert_eq!(window.iter().sum::<u64>(), 100);
        assert_eq!(Histogram::quantile_of_counts(&window, 0.99), 4);
        assert_eq!(h.quantile(0.99), 1024);
        assert_eq!(Histogram::quantile_of_counts(&[0u64; 65], 0.5), 0);
    }

    #[test]
    fn histogram_summary_reports_quantiles() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(i);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!((s.mean - 500.5).abs() < 1e-9);
        assert_eq!(s.p50, 512);
        assert_eq!(s.p99, 1024);
        assert_eq!(s.max, 1024);
        assert!(s.to_string().contains("p99=1024"));
    }

    #[test]
    fn registry_returns_same_metric_for_same_name() {
        let r = MetricsRegistry::new();
        r.counter("a.b").inc();
        r.counter("a.b").inc();
        assert_eq!(r.counter("a.b").get(), 2);
        assert_eq!(r.counter("other").get(), 0);
    }

    #[test]
    fn registry_snapshot_sorted() {
        let r = MetricsRegistry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        let snap = r.counter_snapshot();
        assert_eq!(snap[0].0, "a");
        assert_eq!(snap[1].0, "z");
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn lazy_handle_registers_on_first_touch() {
        let r = MetricsRegistry::new();
        let ops = LazyCounter::new(&r, "net.read.ops");
        let ns = LazyHistogram::new(&r, format!("qos.{}.get.ns", "kv"));
        assert!(r.counter_snapshot().is_empty() && r.histogram_snapshot().is_empty());
        assert_eq!(r.lookups(), 0);
        // A zero add registers the key, as `counter(name).add(0)` does.
        ops.add(0);
        assert_eq!(r.counter_snapshot(), [("net.read.ops".to_owned(), 0)]);
        ops.inc();
        ops.add(4);
        ns.record(300);
        ns.record(900);
        assert_eq!(r.lookups(), 2, "one lookup per handle, however often it is touched");
        // The handle and the name reach the same metric, both ways.
        assert_eq!(r.counter("net.read.ops").get(), 5);
        r.counter("net.read.ops").inc();
        ops.inc();
        assert_eq!(r.counter("net.read.ops").get(), 7);
        assert_eq!(r.histogram("qos.kv.get.ns").count(), 2);
        assert_eq!(r.lookups(), 6);
    }

    #[test]
    fn unbound_handle_ignores_every_touch() {
        let ops = LazyCounter::unbound();
        let ns = LazyHistogram::unbound();
        ops.inc();
        ops.add(9);
        ns.record(1);
    }

    #[test]
    fn registry_display_includes_histograms() {
        let r = MetricsRegistry::new();
        r.histogram("net.write.ns").record(300);
        r.histogram("net.write.ns").record(900);
        let snap = r.histogram_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0, "net.write.ns");
        assert_eq!(snap[0].1.count, 2);
        let dump = r.to_string();
        assert!(
            dump.contains("net.write.ns = count=2"),
            "histograms missing from dump: {dump}"
        );
    }

    proptest! {
        #[test]
        fn prop_histogram_mean_bounded(values in proptest::collection::vec(0u64..1 << 30, 1..100)) {
            let h = Histogram::new();
            let (mut min, mut max) = (u64::MAX, 0);
            for &v in &values {
                h.record(v);
                min = min.min(v);
                max = max.max(v);
            }
            let mean = h.mean();
            prop_assert!(mean >= min as f64 && mean <= max as f64);
        }

        #[test]
        fn prop_bucket_monotone(a in 0u64..u64::MAX, b in 0u64..u64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(Histogram::bucket_index(lo) <= Histogram::bucket_index(hi));
        }

        /// Summing bucket counts is commutative and associative — the
        /// timeline merge folds per-shard windows in `(time, shard)` order
        /// and leans on both properties for worker-count independence.
        #[test]
        fn prop_merge_counts_commutative_associative(
            xs in proptest::collection::vec(0u64..1 << 48, 0..60),
            ys in proptest::collection::vec(0u64..1 << 48, 0..60),
            zs in proptest::collection::vec(0u64..1 << 48, 0..60),
        ) {
            let counts_of = |vals: &[u64]| {
                let h = Histogram::new();
                for &v in vals {
                    h.record(v);
                }
                h.bucket_counts()
            };
            let (cx, cy, cz) = (counts_of(&xs), counts_of(&ys), counts_of(&zs));
            let merge = |parts: &[&[u64; 65]]| {
                let mut total = [0u64; 65];
                for &counts in parts {
                    add_counts(&mut total, counts);
                }
                total
            };
            // Commutative: x⊕y == y⊕x.
            prop_assert_eq!(merge(&[&cx, &cy]), merge(&[&cy, &cx]));
            // Associative: (x⊕y)⊕z == x⊕(y⊕z).
            let (cxy, cyz) = (merge(&[&cx, &cy]), merge(&[&cy, &cz]));
            prop_assert_eq!(merge(&[&cxy, &cz]), merge(&[&cx, &cyz]));
        }

        /// Recording two streams into two registries and summing their
        /// snapshots must be indistinguishable — buckets, quantiles, max
        /// bound — from recording every value into one histogram directly.
        #[test]
        fn prop_merge_counts_quantile_consistent(
            xs in proptest::collection::vec(0u64..1 << 48, 1..80),
            ys in proptest::collection::vec(0u64..1 << 48, 1..80),
            q_pct in 0u32..=100,
        ) {
            let (ra, rb, direct) = (MetricsRegistry::new(), MetricsRegistry::new(), Histogram::new());
            for &v in &xs {
                ra.histogram("h").record(v);
                direct.record(v);
            }
            for &v in &ys {
                rb.histogram("h").record(v);
                direct.record(v);
            }
            let merged = MetricsSnapshot::of(&[ra, rb]);
            let q = f64::from(q_pct) / 100.0;
            prop_assert_eq!(merged.buckets["h"], direct.bucket_counts());
            prop_assert_eq!(merged.quantile("h", q), direct.quantile(q));
            prop_assert_eq!(
                Histogram::max_bound_of_counts(&merged.buckets["h"]),
                direct.max_bound()
            );
        }
    }
}
