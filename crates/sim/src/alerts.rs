//! A deterministic alerting engine over metric windows.
//!
//! Rules are declarative and evaluated once per captured
//! [`MetricWindow`] (i.e. on maintenance ticks), in rule order, with
//! pure integer math — so the alert log is a function of the seed alone
//! and byte-identical across reruns, `--jobs` levels and shard worker
//! counts. Two rule shapes cover the stack's failure smells:
//!
//! * [`AlertRule::BurnRate`] — the classic multi-window SLO burn rate:
//!   the fraction of a histogram's observations over an SLO bound,
//!   measured over a short *fast* window span and a longer *slow* span;
//!   the rule fires when **both** exceed their thresholds (the fast
//!   window catches the onset, the slow window suppresses blips) and
//!   resolves when the fast window recovers.
//! * [`AlertRule::CounterStorm`] — a counter's delta summed over the
//!   last N windows crossing a threshold (verb-retry storms, suspect
//!   churn, KV spill thrash).
//!
//! Each edge appends one line to an ordered log; [`AlertEngine::digest`]
//! folds the log through FNV-1a exactly like the QoS decision log, so
//! harnesses can pin byte-identity with one short string.
//!
//! [`MetricWindow`]: crate::timeseries::MetricWindow

use crate::digest;
use crate::timeseries::MetricWindow;
use std::collections::VecDeque;
use std::fmt;

/// Burn fractions are integer basis points (1/100 of a percent), so
/// threshold comparisons never touch floating point.
pub(crate) const BASIS_POINTS: u64 = 10_000;

/// One declarative alert rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertRule {
    /// Multi-window SLO burn rate over a histogram.
    BurnRate {
        /// Alert name, used in log lines.
        name: String,
        /// Histogram metric the rule watches.
        histogram: String,
        /// SLO bound in nanoseconds; observations above it "burn".
        slo_ns: u64,
        /// Number of recent windows in the fast span (≥ 1).
        fast_windows: usize,
        /// Number of recent windows in the slow span (≥ fast).
        slow_windows: usize,
        /// Fast-span burn fraction threshold, in basis points.
        fast_burn_bp: u64,
        /// Slow-span burn fraction threshold, in basis points.
        slow_burn_bp: u64,
    },
    /// A counter's delta over the last N windows crossing a threshold.
    CounterStorm {
        /// Alert name, used in log lines.
        name: String,
        /// Counter metric the rule watches.
        counter: String,
        /// Number of recent windows summed (≥ 1).
        span_windows: usize,
        /// Firing threshold on the summed delta.
        threshold: u64,
    },
}

impl AlertRule {
    /// The rule's alert name.
    pub(crate) fn name(&self) -> &str {
        match self {
            AlertRule::BurnRate { name, .. } | AlertRule::CounterStorm { name, .. } => name,
        }
    }
}

/// Whether an [`AlertEvent`] opens or closes an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertEdge {
    /// The rule's condition became true.
    Firing,
    /// The rule's condition became false after firing.
    Resolved,
}

impl fmt::Display for AlertEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlertEdge::Firing => "FIRING",
            AlertEdge::Resolved => "resolved",
        })
    }
}

/// One firing/resolved edge in the alert log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlertEvent {
    /// Rule (alert) name.
    pub name: String,
    /// Edge direction.
    pub edge: AlertEdge,
    /// Grid index of the window that flipped the rule.
    pub window: u64,
    /// Inclusive start of that window's span, virtual nanoseconds.
    pub start_ns: u64,
    /// Exclusive end of that window's span, virtual nanoseconds.
    pub end_ns: u64,
    /// Rule-specific observation detail (integer-rendered).
    pub detail: String,
}

impl AlertEvent {
    /// The deterministic log line for this event.
    pub(crate) fn line(&self) -> String {
        format!(
            "w{} [{}..{}ns) {} {}: {}",
            self.window, self.start_ns, self.end_ns, self.edge, self.name, self.detail
        )
    }
}

/// Per-rule evaluation state: a bounded history of recent windows.
#[derive(Debug, Clone, Default)]
struct RuleState {
    firing: bool,
    /// Per window: (over-SLO count, total count) for burn rules,
    /// (delta, 0) for storm rules.
    history: VecDeque<(u64, u64)>,
}

/// Evaluates a fixed rule set against a stream of metric windows.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    states: Vec<RuleState>,
    log: Vec<String>,
    hash: u64,
}

impl AlertEngine {
    /// Creates an engine over `rules` (evaluated in the given order).
    pub(crate) fn new(rules: Vec<AlertRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        AlertEngine {
            rules,
            states,
            log: Vec::new(),
            hash: digest::OFFSET,
        }
    }

    /// Evaluates every rule against one captured window, appending any
    /// firing/resolved edges to the log. Returns how many edges fired.
    pub(crate) fn observe(&mut self, window: &MetricWindow) -> usize {
        let mut edges = 0;
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let (now_firing, detail) = match rule {
                AlertRule::BurnRate {
                    histogram,
                    slo_ns,
                    fast_windows,
                    slow_windows,
                    fast_burn_bp,
                    slow_burn_bp,
                    ..
                } => {
                    let (over, total) = window
                        .histogram(histogram)
                        .map_or((0, 0), |h| (h.count_over(*slo_ns), h.count));
                    state.history.push_back((over, total));
                    while state.history.len() > (*slow_windows).max(*fast_windows).max(1) {
                        state.history.pop_front();
                    }
                    let burn_bp = |span: usize| -> (u64, u64, u64) {
                        let take = span.max(1).min(state.history.len());
                        let (mut o, mut t) = (0u64, 0u64);
                        for &(wo, wt) in state.history.iter().rev().take(take) {
                            o += wo;
                            t += wt;
                        }
                        (if t == 0 { 0 } else { o * BASIS_POINTS / t }, o, t)
                    };
                    let (fast_bp, fast_over, fast_total) = burn_bp(*fast_windows);
                    let (slow_bp, ..) = burn_bp(*slow_windows);
                    let firing = fast_bp >= *fast_burn_bp && slow_bp >= *slow_burn_bp;
                    (
                        firing,
                        format!(
                            "burn fast={fast_bp}bp slow={slow_bp}bp ({fast_over}/{fast_total} over slo={slo_ns}ns, hist={histogram})"
                        ),
                    )
                }
                AlertRule::CounterStorm {
                    counter,
                    span_windows,
                    threshold,
                    ..
                } => {
                    state.history.push_back((window.counter(counter), 0));
                    while state.history.len() > (*span_windows).max(1) {
                        state.history.pop_front();
                    }
                    let sum: u64 = state.history.iter().map(|&(d, _)| d).sum();
                    (
                        sum >= *threshold,
                        format!(
                            "{counter}=+{sum} over {}w >= {threshold}",
                            (*span_windows).max(1)
                        ),
                    )
                }
            };
            if now_firing != state.firing {
                state.firing = now_firing;
                let event = AlertEvent {
                    name: rule.name().to_owned(),
                    edge: if now_firing {
                        AlertEdge::Firing
                    } else {
                        AlertEdge::Resolved
                    },
                    window: window.index,
                    start_ns: window.start_ns,
                    end_ns: window.end_ns,
                    detail,
                };
                let line = event.line();
                // The house fold over the line and its newline — not the
                // QoS decision digest, which uses the published FNV prime.
                self.hash = digest::fold(digest::fold(self.hash, line.as_bytes()), b"\n");
                self.log.push(line);
                edges += 1;
            }
        }
        edges
    }

    /// The ordered log lines so far.
    pub(crate) fn log(&self) -> &[String] {
        &self.log
    }

    /// `n=<lines> fnv=<hash>` digest of the log, in the QoS decision-log
    /// format.
    pub(crate) fn digest(&self) -> String {
        format!("n={} fnv={:#018x}", self.log.len(), self.hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeseries::WindowHistogram;

    fn window(index: u64, counters: &[(&str, u64)], hist: Option<(&str, &[u64])>) -> MetricWindow {
        let histograms = hist
            .map(|(name, values)| {
                let mut counts = [0u64; 65];
                let h = crate::metrics::Histogram::new();
                for &v in values {
                    h.record(v);
                }
                counts.copy_from_slice(&h.bucket_counts());
                vec![WindowHistogram::from_counts(name, counts)]
            })
            .unwrap_or_default();
        MetricWindow {
            index,
            start_ns: index * 100,
            end_ns: (index + 1) * 100,
            counters: counters
                .iter()
                .map(|&(n, v)| (n.to_owned(), v))
                .collect(),
            histograms,
        }
    }

    #[test]
    fn storm_fires_and_resolves_on_edges() {
        let mut engine = AlertEngine::new(vec![AlertRule::CounterStorm {
            name: "retry-storm".into(),
            counter: "faults.retry.attempts".into(),
            span_windows: 1,
            threshold: 3,
        }]);
        assert_eq!(engine.observe(&window(0, &[("faults.retry.attempts", 2)], None)), 0);
        assert_eq!(engine.observe(&window(1, &[("faults.retry.attempts", 5)], None)), 1);
        // Still firing: no new edge.
        assert_eq!(engine.observe(&window(2, &[("faults.retry.attempts", 4)], None)), 0);
        assert_eq!(engine.observe(&window(3, &[], None)), 1);
        let log = engine.log();
        assert_eq!(log.len(), 2);
        assert!(log[0].contains("FIRING retry-storm"), "{}", log[0]);
        assert!(log[0].starts_with("w1 [100..200ns)"), "{}", log[0]);
        assert!(log[1].contains("resolved retry-storm"), "{}", log[1]);
        assert!(engine.digest().starts_with("n=2 fnv=0x"));
    }

    #[test]
    fn burn_rate_needs_fast_and_slow_breach() {
        let mut engine = AlertEngine::new(vec![AlertRule::BurnRate {
            name: "slo-burn".into(),
            histogram: "lat".into(),
            slo_ns: 64,
            fast_windows: 1,
            slow_windows: 4,
            fast_burn_bp: 5_000,
            slow_burn_bp: 1_000,
        }]);
        // Fast ok: 1/10 over SLO (burn 1000bp < 5000bp).
        let mostly_fast: Vec<u64> = std::iter::repeat(10).take(9).chain([1000]).collect();
        assert_eq!(engine.observe(&window(0, &[], Some(("lat", &mostly_fast)))), 0);
        // Storm window: everything over SLO — fast 100%, slow well over.
        assert_eq!(engine.observe(&window(1, &[], Some(("lat", &[500, 900, 2000])))), 1);
        // Quiet window with traffic: fast burn recovers.
        assert_eq!(engine.observe(&window(2, &[], Some(("lat", &[10, 12])))), 1);
        let log = engine.log();
        assert!(log[0].starts_with("w1 "), "{}", log[0]);
        assert!(log[0].contains("FIRING slo-burn"), "{}", log[0]);
        assert!(log[0].contains("slo=64ns"), "{}", log[0]);
        assert!(log[1].contains("resolved slo-burn"), "{}", log[1]);
    }

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let run = |flip: bool| {
            let mut engine = AlertEngine::new(vec![AlertRule::CounterStorm {
                name: "s".into(),
                counter: "c".into(),
                span_windows: 1,
                threshold: 1,
            }]);
            let (a, b) = if flip { (1, 0) } else { (0, 1) };
            engine.observe(&window(0, &[("c", a)], None));
            engine.observe(&window(1, &[("c", b)], None));
            engine.digest()
        };
        assert_eq!(run(false), run(false));
        assert_ne!(run(false), run(true));
    }
}
