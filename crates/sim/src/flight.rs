//! A flight recorder: bounded rings of recent events and metric windows,
//! dumped as deterministic text when something goes wrong.
//!
//! The harnesses (chaos, rack quiescence asserts, tests) feed the
//! recorder cheap one-line notes as they execute — steps taken, faults
//! injected, sampled shard events — and the [`TelemetryHub`] feeds it
//! each captured [`MetricWindow`]. When an invariant fails or a panic
//! unwinds, [`FlightRecorder::dump`] renders the last
//! [`FlightRecorder::EVENT_CAPACITY`] events and
//! [`FlightRecorder::WINDOW_CAPACITY`] windows, so a failing seed ships
//! its own diagnosis instead of requiring a re-run with full tracing.
//!
//! Everything the recorder stores is derived from virtual time and seeded
//! state, so a dump is byte-identical across reruns, `--jobs` levels and
//! worker counts for the same failure.
//!
//! [`TelemetryHub`]: crate::timeseries::TelemetryHub
//! [`MetricWindow`]: crate::timeseries::MetricWindow

use crate::timeseries::MetricWindow;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// One recorded note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Virtual time of the event, in nanoseconds.
    pub at_ns: u64,
    /// Short static label (`"step"`, `"inject"`, `"span"`, ...).
    pub kind: &'static str,
    /// One-line detail.
    pub detail: String,
}

/// Bounded rings of recent events and metric windows with a
/// deterministic text dump.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    events: VecDeque<FlightEvent>,
    windows: VecDeque<String>,
    dropped_events: u64,
    dropped_windows: u64,
}

impl FlightRecorder {
    /// Events kept in the ring; older notes fall off the front.
    pub(crate) const EVENT_CAPACITY: usize = 64;
    /// Metric-window briefs kept in the ring.
    pub(crate) const WINDOW_CAPACITY: usize = 8;

    /// Creates an empty recorder.
    pub fn new() -> Self {
        FlightRecorder::default()
    }

    /// Appends one note, evicting the oldest past capacity.
    pub fn note(&mut self, at_ns: u64, kind: &'static str, detail: String) {
        if self.events.len() == Self::EVENT_CAPACITY {
            self.events.pop_front();
            self.dropped_events += 1;
        }
        self.events.push_back(FlightEvent { at_ns, kind, detail });
    }

    /// Appends one captured metric window's brief rendering.
    pub fn push_window(&mut self, window: &MetricWindow) {
        if self.windows.len() == Self::WINDOW_CAPACITY {
            self.windows.pop_front();
            self.dropped_windows += 1;
        }
        self.windows.push_back(window.brief());
    }

    /// Renders the deterministic dump: a reason header, the retained
    /// metric windows (oldest first), then the retained events.
    pub fn dump(&self, reason: &str) -> String {
        let mut out = String::new();
        writeln!(out, "=== flight recorder dump: {reason} ===").unwrap();
        writeln!(
            out,
            "events: {} kept, {} dropped; windows: {} kept, {} dropped",
            self.events.len(),
            self.dropped_events,
            self.windows.len(),
            self.dropped_windows
        )
        .unwrap();
        if !self.windows.is_empty() {
            writeln!(out, "--- last {} metric windows ---", self.windows.len()).unwrap();
            for w in &self.windows {
                writeln!(out, "  {w}").unwrap();
            }
        }
        if !self.events.is_empty() {
            writeln!(out, "--- last {} events ---", self.events.len()).unwrap();
            for e in &self.events {
                writeln!(out, "  t={}ns {:>8} {}", e.at_ns, e.kind, e.detail).unwrap();
            }
        }
        writeln!(out, "=== end flight recorder dump ===").unwrap();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut fr = FlightRecorder::new();
        for i in 0..(FlightRecorder::EVENT_CAPACITY as u64 + 10) {
            fr.note(i, "step", format!("event {i}"));
        }
        assert_eq!(fr.events.len(), FlightRecorder::EVENT_CAPACITY);
        let dump = fr.dump("test");
        assert!(dump.contains("10 dropped"), "{dump}");
        assert!(!dump.contains("event 9\n"), "oldest should be gone: {dump}");
        assert!(dump.contains(&format!(
            "event {}",
            FlightRecorder::EVENT_CAPACITY as u64 + 9
        )));
    }

    #[test]
    fn dump_is_deterministic_text() {
        let build = || {
            let mut fr = FlightRecorder::new();
            fr.note(5, "inject", "drop verb".into());
            fr.note(9, "step", "Get k3".into());
            fr.dump("invariant X")
        };
        assert_eq!(build(), build());
        let dump = build();
        assert!(dump.starts_with("=== flight recorder dump: invariant X ==="));
        assert!(dump.ends_with("=== end flight recorder dump ===\n"));
        assert!(dump.contains("t=5ns"));
    }

    #[test]
    fn empty_dump_still_renders_header() {
        let fr = FlightRecorder::new();
        assert!(fr.events.is_empty() && fr.windows.is_empty());
        let dump = fr.dump("nothing");
        assert!(dump.contains("0 kept"));
    }
}
