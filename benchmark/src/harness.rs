//! What every workload shares: the round contract, the three ways a round
//! is observed, and the loop that measures rounds.
//!
//! A run is set-up, then identical deterministic rounds until the measured
//! time is used up. Host speed is read from the fast decile of the round
//! times, because interference on a small shared box arrives in bursts
//! that slow whole rounds: the median of the rounds moves with the bursts,
//! the fast decile does not. Virtual-clock results come from one extra
//! untimed round that also verifies every payload byte.

use crate::spans::Recorder;
use crate::stats;
use dmem_sim::{SimClock, SimDuration, Trace};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Warm-up rounds inside each set-up: lazy initialisation and the
/// allocator's first growth happen here, not in a measured round.
pub const WARMUP_ROUNDS: usize = 1;
/// Fewest measured rounds, however short the run.
pub const MIN_ROUNDS: usize = 3;

/// How a round is watched. Timed rounds use [`Plain`], which compiles to
/// nothing; the virtual pass uses [`Virtual`]; traced rounds use
/// [`Traced`].
pub trait Observer {
    /// Call the program once per operation (instead of its bulk entry
    /// points) so each call can be observed.
    const PER_OP: bool;
    /// Compare every returned payload byte for byte.
    const VERIFY: bool;

    /// Opens a host-time span.
    #[inline]
    fn enter(&mut self, _name: &'static str) -> u32 {
        0
    }

    /// Closes the span `enter` returned.
    #[inline]
    fn exit(&mut self, _id: u32) {}

    /// One virtual latency: `keys` operations each waited `virt_ns`.
    #[inline]
    fn sample(&mut self, _virt_ns: u64, _keys: u32) {}

    /// Whether the program's own virtual tracer should be armed for this
    /// round.
    #[inline]
    fn program_tracer(&self) -> bool {
        false
    }

    /// Receives what the program's tracer collected over a stretch of
    /// `total` virtual time.
    fn program_trace(&mut self, _trace: Trace, _total: SimDuration) {}
}

/// A timed round: no observation at all.
pub struct Plain;

impl Observer for Plain {
    const PER_OP: bool = false;
    const VERIFY: bool = false;
}

/// The virtual pass: exact per-operation virtual latencies, full payload
/// verification.
#[derive(Default)]
pub struct Virtual {
    pub latencies_ns: Vec<u64>,
}

impl Observer for Virtual {
    const PER_OP: bool = true;
    const VERIFY: bool = true;

    #[inline]
    fn sample(&mut self, virt_ns: u64, keys: u32) {
        self.latencies_ns
            .extend(std::iter::repeat_n(virt_ns, keys as usize));
    }
}

/// What the program's virtual tracer reported for one round.
#[derive(Default)]
pub struct ProgramTrace {
    /// Virtual self time per span category, nanoseconds.
    pub category_self_ns: BTreeMap<&'static str, u64>,
    /// Span count per `category.name`.
    pub span_counts: BTreeMap<String, u64>,
    /// `core.get` spans tagged `tier=shared`.
    pub shared_gets: u64,
}

/// A traced round: a host span around every call; optionally the
/// program's virtual tracer armed as well.
pub struct Traced<'a> {
    pub recorder: &'a mut Recorder,
    pub arm_program_tracer: bool,
    pub program: ProgramTrace,
}

impl Observer for Traced<'_> {
    const PER_OP: bool = true;
    const VERIFY: bool = false;

    #[inline]
    fn enter(&mut self, name: &'static str) -> u32 {
        self.recorder.enter(name)
    }

    #[inline]
    fn exit(&mut self, id: u32) {
        self.recorder.exit(id);
    }

    fn program_tracer(&self) -> bool {
        self.arm_program_tracer
    }

    fn program_trace(&mut self, trace: Trace, total: SimDuration) {
        for row in trace.attribution(total).rows {
            *self
                .program
                .category_self_ns
                .entry(row.category)
                .or_default() += row.self_ns;
            *self
                .program
                .span_counts
                .entry(format!("{}.{}", row.category, row.name))
                .or_default() += row.count;
        }
        self.program.shared_gets += trace
            .spans
            .iter()
            .filter(|s| {
                s.category == "core"
                    && s.name == "get"
                    && s.tags.iter().any(|(k, v)| *k == "tier" && v == "shared")
            })
            .count() as u64;
    }
}

/// Runs `f` as one observed call on `clock`: a host span around it when
/// traced, its virtual latency (for `keys` operations) in the virtual
/// pass, nothing at all in a timed round.
#[inline]
pub fn observed<O: Observer, R>(
    obs: &mut O,
    name: &'static str,
    keys: u32,
    clock: &SimClock,
    f: impl FnOnce() -> R,
) -> R {
    if !O::PER_OP {
        return f();
    }
    let before = clock.now();
    let id = obs.enter(name);
    let out = f();
    obs.exit(id);
    obs.sample((clock.now() - before).as_nanos(), keys);
    out
}

/// Arms the program's tracer on `clock` if this observer asks for it.
pub fn arm_tracer<O: Observer>(obs: &O, clock: &SimClock) {
    if obs.program_tracer() {
        clock.tracer().enable();
    }
}

/// Disarms the tracer and hands what it collected to the observer.
pub fn drain_tracer<O: Observer>(obs: &mut O, clock: &SimClock, total: SimDuration) {
    if obs.program_tracer() {
        clock.tracer().disable();
        obs.program_trace(clock.tracer().finish(), total);
    }
}

/// Result of one round.
#[derive(Debug, Clone, Copy, Default)]
pub struct Round {
    /// Host time of the timed region (system rebuilds and digesting are
    /// outside it).
    pub timed: Duration,
    /// Virtual time the timed region consumed.
    pub virt_ns: u64,
    /// Digest of everything virtual the round produced.
    pub digest: u64,
    /// Operations that returned an error or wrong bytes.
    pub failed: u64,
}

/// Host time spent in each part of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate: Duration,
    pub build: Duration,
    pub fill: Duration,
    pub warmup: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.generate + self.build + self.fill + self.warmup
    }
}

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One benchmark workload: inputs generated from a seed, then rounds that
/// repeat exactly.
pub trait Workload: Sized {
    /// Generates the inputs from `seed`, builds whatever outlives a round
    /// and fills it.
    fn setup(seed: u64, times: &mut SetupTimes) -> Self;

    /// Simulated operations one round performs.
    fn ops_per_round(&self) -> u64;

    /// Runs one round. Every round of one set-up must return the same
    /// `virt_ns` and `digest`.
    fn round<O: Observer>(&mut self, obs: &mut O) -> Round;

    /// `(p50, p99)` of per-operation virtual latency in nanoseconds, from
    /// the samples the virtual pass collected (ascending).
    fn virtual_latency_ns(&self, samples: &[u64]) -> (f64, f64) {
        (
            stats::percentile_exact(samples, 0.50) as f64,
            stats::percentile_exact(samples, 0.99) as f64,
        )
    }

    /// Adds the counts read from the state the last round left behind,
    /// plus any measurement only this workload can make (within
    /// `budget`). Returns how many keys that round read back from far
    /// memory, the denominator of `node.shared_hit_frac`.
    fn layer_metrics(&mut self, layers: &mut Layers, budget: Budget) -> u64;
}

/// Set-up as a run pays it: generation, build, fill, warm-up rounds.
pub fn set_up<W: Workload>(seed: u64) -> (W, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut workload = W::setup(seed, &mut times);
    let start = Instant::now();
    for _ in 0..WARMUP_ROUNDS {
        workload.round(&mut Plain);
    }
    times.warmup = start.elapsed();
    (workload, times)
}

/// Round times and correctness of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub round_s: Vec<f64>,
    pub failed: u64,
    pub digest_mismatches: u64,
}

impl Phase {
    pub fn rounds(&self) -> usize {
        self.round_s.len()
    }

    /// Fast-decile, median and slow-decile round time in seconds.
    pub fn deciles(&self) -> (f64, f64, f64) {
        let sorted = stats::sorted(&self.round_s);
        (
            stats::quantile(&sorted, 0.1),
            stats::quantile(&sorted, 0.5),
            stats::quantile(&sorted, 0.9),
        )
    }
}

/// The digest and virtual time every round must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub digest: u64,
    pub virt_ns: u64,
}

impl Reference {
    pub fn of(round: &Round) -> Self {
        Reference {
            digest: round.digest,
            virt_ns: round.virt_ns,
        }
    }
}

/// How long a phase runs: until `seconds` have passed, or exactly
/// `rounds` rounds when given (smoke use).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub fixed_rounds: Option<usize>,
}

impl Budget {
    /// Exactly `n` rounds, however long they take.
    pub fn rounds(n: usize) -> Budget {
        Budget {
            seconds: 0.0,
            fixed_rounds: Some(n),
        }
    }

    pub fn share(&self, fraction: f64) -> Budget {
        Budget {
            seconds: self.seconds * fraction,
            fixed_rounds: self.fixed_rounds,
        }
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Runs rounds through `run` until the budget is used, checking each
/// against `reference` (set from the first round when empty).
pub fn measure(
    budget: Budget,
    ops_per_round: u64,
    reference: &mut Option<Reference>,
    mut run: impl FnMut(usize) -> Round,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    loop {
        let done = phase.rounds();
        let finished = match budget.fixed_rounds {
            Some(n) => done >= n,
            None => done >= MIN_ROUNDS && start.elapsed().as_secs_f64() >= budget.seconds,
        };
        if finished {
            return phase;
        }
        let round = run(done);
        let expected = *reference.get_or_insert(Reference::of(&round));
        phase.round_s.push(round.timed.as_secs_f64());
        phase.failed += round.failed;
        if Reference::of(&round) != expected {
            // A round that diverged produced results nobody checked.
            phase.digest_mismatches += 1;
            phase.failed += ops_per_round - round.failed.min(ops_per_round);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(digest: u64, failed: u64) -> Round {
        Round {
            digest,
            failed,
            ..Round::default()
        }
    }

    #[test]
    fn a_round_off_the_reference_fails_all_its_operations() {
        let mut reference = None;
        let digests = [7, 7, 9, 7];
        let phase = measure(Budget::rounds(4), 100, &mut reference, |i| {
            round(digests[i], if i == 1 { 3 } else { 0 })
        });
        assert_eq!(phase.rounds(), 4);
        assert_eq!(phase.digest_mismatches, 1);
        assert_eq!(phase.failed, 3 + 100);
        assert_eq!(reference.map(|r| r.digest), Some(7));

        // A later phase is held to the same reference.
        let later = measure(Budget::rounds(1), 100, &mut reference, |_| round(8, 0));
        assert_eq!((later.digest_mismatches, later.failed), (1, 100));
    }

    #[test]
    fn a_timed_phase_runs_at_least_the_minimum_rounds() {
        let budget = Budget {
            seconds: 0.0,
            fixed_rounds: None,
        };
        let phase = measure(budget, 1, &mut None, |_| round(1, 0));
        assert_eq!(phase.rounds(), MIN_ROUNDS);
    }
}
