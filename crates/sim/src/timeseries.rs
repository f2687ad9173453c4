//! Windowed time-series telemetry on the virtual clock.
//!
//! End-of-run counters (PR 3) answer *how much*; this module answers
//! *when*. A [`WindowSampler`] snapshots one or more [`MetricsRegistry`]
//! instances every configurable virtual-time window, capturing per-window
//! counter deltas and histogram quantile summaries (p50/p99/max from the
//! diff of two bucket snapshots). It has two owners: a [`TelemetryHub`]
//! keeps one behind its mutex next to the alert engine and the flight
//! ring, and each shard of the sharded engine owns one over its private
//! registry and ticks it from its event loop. Per-shard windows merge in
//! `(window, shard)` order — the same total order as the engine's
//! mailboxes — so a rack run produces a byte-identical [`Timeline`] at
//! every worker count.
//!
//! Everything is integer math on the virtual clock: window boundaries
//! are multiples of the window width, quantiles are log₂ bucket upper
//! bounds, and exports ([`Timeline::to_csv`], [`Timeline::to_jsonl`])
//! are deterministic text. The disabled path of [`TelemetryHub::tick`]
//! is a single relaxed atomic load, mirroring the tracer's
//! zero-cost-when-off contract.
//!
//! [`MetricsRegistry`]: crate::metrics::MetricsRegistry

use crate::alerts::{AlertEngine, AlertRule};
use crate::flight::FlightRecorder;
use crate::metrics::{add_counts, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-window summary of one histogram: observation count inside the
/// window plus log₂-bucket quantile bounds of just those observations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowHistogram {
    /// Metric name.
    pub name: String,
    /// Observations recorded inside the window.
    pub count: u64,
    /// Median bucket upper bound of the window's observations.
    pub p50: u64,
    /// 99th-percentile bucket upper bound of the window's observations.
    pub p99: u64,
    /// Upper bound of the window's highest non-empty bucket.
    pub max: u64,
    /// Raw per-window bucket counts — kept for the alerting engine's
    /// burn-rate rules (fraction of observations over an SLO bound);
    /// not exported to CSV/JSONL.
    pub buckets: Box<[u64; 65]>,
}

impl WindowHistogram {
    /// Builds a summary from a window's bucket-count diff.
    pub fn from_counts(name: &str, counts: [u64; 65]) -> Self {
        WindowHistogram {
            name: name.to_owned(),
            count: counts.iter().sum(),
            p50: Histogram::quantile_of_counts(&counts, 0.5),
            p99: Histogram::quantile_of_counts(&counts, 0.99),
            max: Histogram::max_bound_of_counts(&counts),
            buckets: Box::new(counts),
        }
    }

    /// Observations in this window certainly above `threshold` (total of
    /// every bucket whose lower bound is at or above it).
    pub fn count_over(&self, threshold: u64) -> u64 {
        Histogram::count_over_counts(&self.buckets, threshold)
    }
}

/// One captured window: the half-open virtual-time span
/// `[start_ns, end_ns)`, the counter increments inside it, and a
/// [`WindowHistogram`] per histogram that saw observations.
///
/// `index` is the grid slot of the window's *end* boundary
/// (`end_ns / window - 1`): captures always close on a grid boundary,
/// but a capture that observes several elapsed slots at once spans them
/// all, so `end_ns - start_ns` is a multiple of the window width ≥ 1.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricWindow {
    /// Grid slot of the window's end boundary.
    pub index: u64,
    /// Inclusive start of the span, in virtual nanoseconds.
    pub start_ns: u64,
    /// Exclusive end of the span, in virtual nanoseconds.
    pub end_ns: u64,
    /// Counter deltas inside the window, name-sorted, zeros omitted.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries inside the window, name-sorted, empties omitted.
    pub histograms: Vec<WindowHistogram>,
}

impl MetricWindow {
    /// `true` when the window saw no counter increments and no
    /// histogram observations.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Delta of the named counter in this window (zero if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .map(|i| self.counters[i].1)
            .unwrap_or(0)
    }

    /// The named histogram's window summary, if it saw observations.
    pub fn histogram(&self, name: &str) -> Option<&WindowHistogram> {
        self.histograms
            .binary_search_by(|h| h.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.histograms[i])
    }

    /// One-line rendering used by the flight recorder's window ring.
    pub fn brief(&self) -> String {
        let mut line = format!("w{} [{}..{}ns)", self.index, self.start_ns, self.end_ns);
        for (name, v) in &self.counters {
            write!(line, " {name}=+{v}").unwrap();
        }
        for h in &self.histograms {
            write!(line, " {}:n={},p99={}", h.name, h.count, h.p99).unwrap();
        }
        line
    }
}

/// An ordered sequence of [`MetricWindow`]s with deterministic CSV and
/// JSONL exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// Captured windows, in increasing `index` order.
    pub windows: Vec<MetricWindow>,
}

impl Timeline {
    /// Merges per-shard windows into one timeline, folding the windows
    /// that share a grid slot: counters summed by name, bucket counts
    /// summed and summarised again. The sort is stable, so windows handed
    /// over shard by shard fold in `(window index, shard)` order — the
    /// sharded engine's mailbox order — and since the sums commute the
    /// result is independent of the input ordering and of how the run
    /// was parallelised.
    pub fn merge_shards(window_ns: u64, mut shard_windows: Vec<MetricWindow>) -> Timeline {
        shard_windows.sort_by_key(|w| w.index);
        let mut out = Timeline::default();
        for slot in shard_windows.chunk_by(|a, b| a.index == b.index) {
            let index = slot[0].index;
            let mut start_ns = u64::MAX;
            let mut counters: BTreeMap<&str, u64> = BTreeMap::new();
            let mut buckets: BTreeMap<&str, [u64; 65]> = BTreeMap::new();
            for window in slot {
                start_ns = start_ns.min(window.start_ns);
                for (name, v) in &window.counters {
                    *counters.entry(name).or_insert(0) += v;
                }
                for h in &window.histograms {
                    add_counts(buckets.entry(&h.name).or_insert([0; 65]), &h.buckets);
                }
            }
            out.windows.push(MetricWindow {
                index,
                start_ns,
                end_ns: (index + 1) * window_ns,
                counters: counters
                    .into_iter()
                    .map(|(name, v)| (name.to_owned(), v))
                    .collect(),
                histograms: buckets
                    .into_iter()
                    .map(|(name, counts)| WindowHistogram::from_counts(name, counts))
                    .collect(),
            });
        }
        out
    }

    /// Per-window deltas of the named counter (zero where absent).
    pub fn counter_series(&self, name: &str) -> Vec<u64> {
        self.windows.iter().map(|w| w.counter(name)).collect()
    }

    /// Per-window p99 of the named histogram (zero where absent).
    pub fn p99_series(&self, name: &str) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.histogram(name).map_or(0, |h| h.p99))
            .collect()
    }

    /// Per-window observation count of the named histogram.
    pub fn count_series(&self, name: &str) -> Vec<u64> {
        self.windows
            .iter()
            .map(|w| w.histogram(name).map_or(0, |h| h.count))
            .collect()
    }

    /// All metric names appearing anywhere in the timeline, sorted, as
    /// `(name, is_histogram)` pairs.
    pub fn series_names(&self) -> Vec<(String, bool)> {
        let mut names: BTreeMap<String, bool> = BTreeMap::new();
        for w in &self.windows {
            for (n, _) in &w.counters {
                names.entry(n.clone()).or_insert(false);
            }
            for h in &w.histograms {
                names.insert(h.name.clone(), true);
            }
        }
        names.into_iter().collect()
    }

    /// Deterministic CSV export: one row per (window, metric), counters
    /// before histograms inside each window, names sorted.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("window,start_ns,end_ns,kind,name,value,p50_ns,p99_ns,max_ns\n");
        for w in &self.windows {
            for (name, v) in &w.counters {
                writeln!(
                    out,
                    "{},{},{},counter,{name},{v},,,",
                    w.index, w.start_ns, w.end_ns
                )
                .unwrap();
            }
            for h in &w.histograms {
                writeln!(
                    out,
                    "{},{},{},histogram,{},{},{},{},{}",
                    w.index, w.start_ns, w.end_ns, h.name, h.count, h.p50, h.p99, h.max
                )
                .unwrap();
            }
        }
        out
    }

    /// Deterministic JSONL export: one JSON object per window, keys
    /// sorted, parseable back through [`crate::jsonlite`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for w in &self.windows {
            write!(
                out,
                "{{\"window\":{},\"start_ns\":{},\"end_ns\":{},\"counters\":{{",
                w.index, w.start_ns, w.end_ns
            )
            .unwrap();
            for (i, (name, v)) in w.counters.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(out, "\"{name}\":{v}").unwrap();
            }
            out.push_str("},\"histograms\":{");
            for (i, h) in w.histograms.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write!(
                    out,
                    "\"{}\":{{\"count\":{},\"p50\":{},\"p99\":{},\"max\":{}}}",
                    h.name, h.count, h.p50, h.p99, h.max
                )
                .unwrap();
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Renders `values` as a unicode sparkline, scaled to the series
/// maximum with pure integer math (deterministic across platforms).
pub fn sparkline(values: &[u64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().copied().max().unwrap_or(0);
    values
        .iter()
        .map(|&v| {
            if max == 0 || v == 0 {
                BARS[0]
            } else {
                // Ceil-scaled into 1..=7 extra steps so any nonzero
                // value is visibly above the baseline.
                BARS[(1 + (v - 1) * 7 / max).min(7) as usize]
            }
        })
        .collect()
}

/// The window capture: diffs successive [`MetricsSnapshot`]s of its
/// registries on a virtual-time grid.
///
/// The owner offers the current time with [`WindowSampler::tick`] — a
/// shard from its deterministic local event loop, where event times and
/// therefore capture points are worker-count independent — and closes the
/// run with [`WindowSampler::finish`]. Each capture is handed back, empty
/// or not; what to keep is the owner's decision. A `window` of zero
/// disables the sampler: it never captures.
#[derive(Debug, Default)]
pub struct WindowSampler {
    window_ns: u64,
    registries: Vec<MetricsRegistry>,
    last_boundary_ns: u64,
    prev: MetricsSnapshot,
}

impl WindowSampler {
    /// Creates a sampler with the given window width
    /// (`SimDuration::ZERO` disables) and no registry yet.
    pub fn new(window: SimDuration) -> Self {
        WindowSampler {
            window_ns: window.as_nanos(),
            ..WindowSampler::default()
        }
    }

    /// Adds a registry to sample. Metrics with the same name in several
    /// registries are summed per window.
    pub fn add_registry(&mut self, registry: MetricsRegistry) {
        self.registries.push(registry);
    }

    /// Captures a window when `now_ns` has crossed a grid boundary. A
    /// capture that observes several elapsed slots at once spans them all.
    pub fn tick(&mut self, now_ns: u64) -> Option<MetricWindow> {
        // Boundaries are multiples of the width, so a time short of the
        // next one rounds down to a boundary already captured: the usual
        // case, answered without the divide.
        if self.window_ns == 0 || now_ns < self.last_boundary_ns + self.window_ns {
            return None;
        }
        self.capture(now_ns / self.window_ns * self.window_ns)
    }

    /// Closes the final (possibly partial) window. The end boundary
    /// rounds *up* to the grid so the tail of the run is never dropped.
    pub fn finish(&mut self, now_ns: u64) -> Option<MetricWindow> {
        if self.window_ns == 0 {
            return None;
        }
        self.capture(now_ns.div_ceil(self.window_ns).max(1) * self.window_ns)
    }

    /// The window ending at `boundary_ns`, unless that is already captured.
    fn capture(&mut self, boundary_ns: u64) -> Option<MetricWindow> {
        if boundary_ns <= self.last_boundary_ns {
            return None;
        }
        let now = MetricsSnapshot::of(&self.registries);
        let mut window = MetricWindow {
            index: boundary_ns / self.window_ns - 1,
            start_ns: self.last_boundary_ns,
            end_ns: boundary_ns,
            counters: Vec::new(),
            histograms: Vec::new(),
        };
        // Counters and buckets only grow, so no subtraction wraps.
        for (name, &v) in &now.counters {
            let delta = v - self.prev.counter(name);
            if delta > 0 {
                window.counters.push((name.clone(), delta));
            }
        }
        for (name, counts) in &now.buckets {
            let mut delta = *counts;
            if let Some(prev) = self.prev.buckets.get(name) {
                for (d, p) in delta.iter_mut().zip(prev) {
                    *d -= p;
                }
            }
            if delta.iter().any(|&d| d != 0) {
                window
                    .histograms
                    .push(WindowHistogram::from_counts(name, delta));
            }
        }
        self.prev = now;
        self.last_boundary_ns = boundary_ns;
        Some(window)
    }
}

/// Shared state behind the hub's mutex.
#[derive(Debug, Default)]
struct HubInner {
    sampler: WindowSampler,
    windows: Vec<MetricWindow>,
    alerts: AlertEngine,
    flight: FlightRecorder,
}

impl HubInner {
    /// Evaluates the alert rules on a captured window and keeps it.
    fn keep(&mut self, window: MetricWindow) {
        self.alerts.observe(&window);
        self.flight.push_window(&window);
        self.windows.push(window);
    }
}

/// The windowed telemetry sampler for shared [`MetricsRegistry`]
/// instances, with an embedded [`AlertEngine`] and [`FlightRecorder`].
///
/// Installed on a `DisaggregatedMemory` (which gives the maintenance
/// loop a tick source) or driven directly by a benchmark loop. Strictly
/// opt-in: [`TelemetryHub::tick`] on a disarmed hub is a single relaxed
/// atomic load, and nothing installs one by default — so untraced runs
/// execute byte-identical event sequences.
#[derive(Debug)]
pub struct TelemetryHub {
    armed: AtomicBool,
    window: SimDuration,
    inner: Mutex<HubInner>,
}

impl TelemetryHub {
    /// Creates an armed hub capturing every `window` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — a disabled hub is expressed by not
    /// installing one.
    pub fn new(window: SimDuration) -> Self {
        assert!(
            window.as_nanos() > 0,
            "telemetry window must be nonzero (leave the hub uninstalled to disable)"
        );
        TelemetryHub {
            armed: AtomicBool::new(true),
            window,
            inner: Mutex::new(HubInner {
                sampler: WindowSampler::new(window),
                ..HubInner::default()
            }),
        }
    }

    /// The configured window width.
    pub fn window(&self) -> SimDuration {
        self.window
    }

    /// Adds a registry to sample. Metrics with the same name in several
    /// registries are summed per window (registries are disjoint by
    /// convention: `core.*`/`qos.*` vs `net.*`/`faults.*`).
    pub fn add_registry(&self, registry: MetricsRegistry) {
        self.inner.lock().sampler.add_registry(registry);
    }

    /// Replaces the alert rule set (clearing any rule state).
    pub fn set_rules(&self, rules: Vec<AlertRule>) {
        self.inner.lock().alerts = AlertEngine::new(rules);
    }

    /// Pauses/resumes sampling. While disarmed, `tick` costs exactly
    /// one relaxed atomic load.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::Relaxed);
    }

    /// Offers the current virtual time; captures one window (and
    /// evaluates alert rules on it) when a grid boundary has been
    /// crossed. Returns the number of windows captured (0 or 1).
    pub fn tick(&self, now: SimInstant) -> usize {
        if !self.armed.load(Ordering::Relaxed) {
            return 0;
        }
        let mut inner = self.inner.lock();
        let captured = inner.sampler.tick(now.nanos());
        captured.map_or(0, |window| {
            inner.keep(window);
            1
        })
    }

    /// Closes the final (possibly partial) window, rounding the end
    /// boundary up to the grid. Call once at the end of the run.
    pub fn flush(&self, now: SimInstant) {
        if !self.armed.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(window) = inner.sampler.finish(now.nanos()) {
            inner.keep(window);
        }
    }

    /// Copy of the captured timeline so far.
    pub fn timeline(&self) -> Timeline {
        Timeline {
            windows: self.inner.lock().windows.clone(),
        }
    }

    /// Ordered alert log lines emitted so far (firing/resolved edges).
    pub fn alert_log(&self) -> Vec<String> {
        self.inner.lock().alerts.log().to_vec()
    }

    /// FNV digest of the alert log (`n=<lines> fnv=<hash>`).
    pub fn alert_digest(&self) -> String {
        self.inner.lock().alerts.digest()
    }

    /// Appends a note to the embedded flight recorder's event ring.
    pub fn flight_note(&self, at_ns: u64, kind: &'static str, detail: String) {
        self.inner.lock().flight.note(at_ns, kind, detail);
    }

    /// Renders the embedded flight recorder's dump.
    pub fn flight_dump(&self, reason: &str) -> String {
        self.inner.lock().flight.dump(reason)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instant(ns: u64) -> SimInstant {
        let clock = crate::SimClock::new();
        clock.advance(SimDuration::from_nanos(ns));
        clock.now()
    }

    #[test]
    fn hub_captures_window_deltas() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.add_registry(reg.clone());
        reg.counter("ops").add(3);
        reg.histogram("lat").record(16);
        assert_eq!(hub.tick(instant(50)), 0, "no boundary crossed yet");
        assert_eq!(hub.tick(instant(100)), 1);
        reg.counter("ops").add(2);
        reg.histogram("lat").record(64);
        reg.histogram("lat").record(64);
        hub.flush(instant(130));
        let t = hub.timeline();
        assert_eq!(t.windows.len(), 2);
        assert_eq!(t.windows[0].counter("ops"), 3);
        assert_eq!(t.windows[0].histogram("lat").unwrap().p99, 16);
        assert_eq!(t.windows[1].index, 1);
        assert_eq!(t.windows[1].start_ns, 100);
        assert_eq!(t.windows[1].end_ns, 200, "flush rounds up to the grid");
        assert_eq!(t.windows[1].counter("ops"), 2);
        let h = t.windows[1].histogram("lat").unwrap();
        assert_eq!((h.count, h.p50, h.max), (2, 64, 64));
    }

    #[test]
    fn hub_skip_emits_single_spanning_window() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.add_registry(reg.clone());
        reg.counter("ops").inc();
        // Time jumps over four boundaries before the next tick: the
        // capture spans all of them as one window ending on the grid.
        assert_eq!(hub.tick(instant(450)), 1);
        let t = hub.timeline();
        assert_eq!(t.windows.len(), 1);
        assert_eq!(t.windows[0].index, 3);
        assert_eq!(t.windows[0].start_ns, 0);
        assert_eq!(t.windows[0].end_ns, 400);
    }

    #[test]
    fn disarmed_tick_is_inert() {
        let hub = TelemetryHub::new(SimDuration::from_nanos(100));
        hub.arm(false);
        assert_eq!(hub.tick(instant(10_000)), 0);
        assert!(hub.timeline().windows.is_empty());
    }

    #[test]
    fn shard_merge_is_input_order_independent() {
        let mut shard_windows = Vec::new();
        for shard in [2u64, 0, 1] {
            let metrics = MetricsRegistry::new();
            let mut sampler = WindowSampler::new(SimDuration::from_nanos(100));
            sampler.add_registry(metrics.clone());
            metrics.counter("ops").add(shard + 1);
            metrics.histogram("lat").record(1 << shard);
            shard_windows.extend(sampler.tick(150));
            metrics.counter("ops").inc();
            shard_windows.extend(sampler.finish(260));
        }
        let forward = Timeline::merge_shards(100, shard_windows.clone());
        let mut reversed = shard_windows;
        reversed.reverse();
        let backward = Timeline::merge_shards(100, reversed);
        assert_eq!(forward, backward);
        assert_eq!(forward.windows.len(), 2);
        assert_eq!(forward.windows[0].counter("ops"), 1 + 2 + 3);
        assert_eq!(forward.windows[0].histogram("lat").unwrap().count, 3);
        assert_eq!(forward.windows[1].counter("ops"), 3);
        assert_eq!(forward.to_csv(), backward.to_csv());
        assert_eq!(forward.to_jsonl(), backward.to_jsonl());
    }

    #[test]
    fn disabled_shard_sampler_keeps_nothing() {
        let metrics = MetricsRegistry::new();
        let mut sampler = WindowSampler::new(SimDuration::ZERO);
        sampler.add_registry(metrics.clone());
        metrics.counter("ops").inc();
        assert_eq!(sampler.tick(1_000_000), None);
        assert_eq!(sampler.finish(2_000_000), None);
    }

    /// The hub adds alerts and the flight ring around the capture, never
    /// a second capture: fed the same registry at the same instants, a hub
    /// and a bare sampler hold the same windows — idle ones, a multi-slot
    /// jump and the rounded-up tail included.
    #[test]
    fn hub_and_bare_sampler_capture_identical_windows() {
        let reg = MetricsRegistry::new();
        let window = SimDuration::from_nanos(100);
        let hub = TelemetryHub::new(window);
        hub.add_registry(reg.clone());
        let mut sampler = WindowSampler::new(window);
        sampler.add_registry(reg.clone());
        let mut bare = Vec::new();
        for (step, now_ns) in [40u64, 100, 130, 250, 300, 780, 800].into_iter().enumerate() {
            if step != 4 {
                reg.counter("ops").add(step as u64 + 1);
                reg.histogram("lat").record(now_ns);
            }
            if step == 2 {
                reg.counter("late.key").inc();
            }
            let captured = sampler.tick(now_ns);
            assert_eq!(hub.tick(instant(now_ns)), captured.iter().count(), "t={now_ns}");
            bare.extend(captured);
        }
        reg.counter("ops").inc();
        bare.extend(sampler.finish(810));
        hub.flush(instant(810));
        assert_eq!(hub.timeline().windows, bare);
        assert_eq!(bare.len(), 6);
        assert!(bare[2].is_empty(), "an idle window is still handed back");
        assert_eq!((bare[3].start_ns, bare[3].end_ns), (300, 700), "one window spans the jump");
        assert_eq!(bare[5].end_ns, 900, "the tail rounds up to the grid");
    }

    #[test]
    fn csv_and_jsonl_round_trip_shapes() {
        let reg = MetricsRegistry::new();
        let hub = TelemetryHub::new(SimDuration::from_nanos(10));
        hub.add_registry(reg.clone());
        reg.counter("a").add(7);
        reg.histogram("h").record(5);
        hub.flush(instant(10));
        let t = hub.timeline();
        let csv = t.to_csv();
        assert!(csv.starts_with("window,start_ns,end_ns,kind,name,value,"));
        assert!(csv.contains("0,0,10,counter,a,7,,,"));
        assert!(csv.contains("0,0,10,histogram,h,1,"));
        let jsonl = t.to_jsonl();
        let doc = crate::jsonlite::parse(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(doc.get("window").and_then(|v| v.as_f64()), Some(0.0));
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("a")).and_then(|v| v.as_f64()),
            Some(7.0)
        );
    }

    #[test]
    fn sparkline_is_pure_integer_scaling() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[0, 0]), "▁▁");
        assert_eq!(sparkline(&[1, 8, 4, 0]), "▂█▄▁");
        // Any nonzero value renders above the baseline glyph.
        assert!(sparkline(&[1, 1_000_000]).starts_with('▂'));
    }
}
