//! Deterministic simulation substrate for the disaggregated memory system.
//!
//! Every mechanism crate charges device costs (DRAM copies, RDMA round
//! trips, disk accesses) against a shared virtual [`SimClock`] instead of
//! wall time, so whole-cluster experiments run in milliseconds and produce
//! bit-identical results for a given seed.
//!
//! The module map:
//!
//! * [`time`] — [`SimDuration`] and [`SimInstant`] newtypes.
//! * [`clock`] — the shared atomic virtual clock.
//! * [`cost`] — calibrated latency/bandwidth models for DRAM, node
//!   shared memory, RDMA, SSD and HDD (DESIGN.md "cost model constants").
//! * [`rng`] — deterministic per-component random streams.
//! * [`digest`] — the one byte fold behind stream labels and digests.
//! * [`failure`] — scheduled node/link failure injection.
//! * [`metrics`] — counters, gauges and log-bucket histograms.
//! * [`events`] — a small discrete-event queue for timers (heartbeats,
//!   re-replication, eviction scans).
//! * [`trace`] — deterministic virtual-clock spans, time attribution and
//!   Chrome-trace/Perfetto + JSONL exporters.
//! * [`timeseries`] — windowed counter/histogram sampling on the virtual
//!   clock, per-shard window merging and CSV/JSONL timeline export.
//! * [`alerts`] — a deterministic alerting engine (multi-window SLO burn
//!   rate, counter storms) with an FNV-digested firing/resolved log.
//! * [`flight`] — a bounded flight recorder dumped when invariants fail.
//! * [`jsonlite`] — a dependency-free JSON parser used to validate
//!   exported traces.
//! * [`par`] — an input-order parallel map over scoped threads, for the
//!   drivers that run independent seeds or figures side by side.
//!
//! # Examples
//!
//! ```
//! use dmem_sim::{CostModel, SimClock};
//!
//! let clock = SimClock::new();
//! let model = CostModel::paper_default();
//! clock.advance(model.rdma.transfer(4096)); // one remote 4 KiB page
//! clock.advance(model.hdd.transfer(4096)); // one disk page
//! // The disk op dominates by ~3 orders of magnitude:
//! assert!(clock.now().nanos() > 1_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alerts;
pub mod chaos;
pub mod clock;
pub mod cost;
pub mod digest;
pub mod events;
pub mod failure;
pub mod flight;
pub mod jsonlite;
pub mod metrics;
pub mod par;
pub mod rng;
pub mod shard;
pub mod time;
pub mod timeseries;
pub mod trace;

pub use alerts::{AlertEdge, AlertEngine, AlertEvent, AlertRule};
pub use chaos::{ChaosConfig, ChaosSchedule, ChaosStep};
pub use flight::{FlightEvent, FlightRecorder};
pub use clock::SimClock;
pub use cost::{CostModel, DeviceCost};
pub use events::EventQueue;
pub use failure::{FailureEvent, FailureInjector};
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, Lazy, LazyCounter, LazyHistogram, Metric,
    MetricsRegistry, MetricsSnapshot,
};
pub use rng::{splitmix64, DetRng};
pub use shard::{
    EngineReport, Envelope, EpochCtx, ShardId, ShardMap, ShardWorker,
    ShardedEngine,
};
pub use time::{SimDuration, SimInstant};
pub use timeseries::{
    sparkline, MetricWindow, TelemetryHub, Timeline, WindowHistogram, WindowSampler,
};
pub use trace::{
    Attribution, AttributionRow, ShardEventLog, ShardTraceEvent, SpanGuard, SpanKind, SpanRecord,
    Trace, Tracer,
};
