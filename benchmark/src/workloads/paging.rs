//! `paging`: the paper's FastSwap result (the Fig. 4 class). A
//! LogisticRegression page-reference string runs through FastSwap at the
//! 50 % memory configuration with a small shared pool and a tight remote
//! pool, once per page compressibility. It is the only workload where
//! `swap` and `compress` do most of the work; `core`, `node`, `cluster`
//! and `net` sit underneath, driven through 8-page batches.

use crate::harness::{
    arm_tracer, drain_tracer, observed, Budget, Layers, Observer, Round, SetupTimes, Workload,
};
use crate::stats::Fnv;
use dmem_swap::{
    build_system_with_pages, EngineStats, PageSource, PagingEngine, SwapScale, SystemKind,
};
use dmem_types::{ByteSize, CompressionMode, DistributionRatio};
use dmem_workloads::{catalog, PageAccess, TraceConfig};
use std::time::Instant;

/// Mean page compression ratios of one round: the two ends of the Fig. 4
/// sweep, so both the "overflow reaches disk" and the "everything fits
/// the shared pool" regimes run every round.
pub const RATIOS: [f64; 2] = [1.3, 4.5];
/// Spread of page compressibility around the mean, as in Fig. 4.
const SPREAD: f64 = 0.4;

pub struct Paging {
    scale: SwapScale,
    trace: Vec<PageAccess>,
    /// The engines of the last round, kept for the layer counts.
    last: Vec<PagingEngine>,
}

fn build(scale: &SwapScale, ratio: f64) -> PagingEngine {
    let kind = SystemKind::FastSwap {
        ratio: DistributionRatio::FS_SM,
        compression: CompressionMode::FourGranularity,
        pbs: true,
    };
    build_system_with_pages(kind, scale, ratio, SPREAD).expect("the bench scale is a valid cluster")
}

fn mix_stats(digest: &mut Fnv, s: &EngineStats) {
    for v in [
        s.accesses,
        s.major_faults,
        s.minor_faults,
        s.writeback_hits,
        s.swap_outs,
        s.swap_ins,
        s.prefetch_hits,
        s.clean_evictions,
        s.proactive_restores,
    ] {
        digest.word(v);
    }
}

impl Paging {
    /// Pages the run left in far memory that do not read back as the
    /// bytes the page source generates for them.
    fn wrong_pages(&self, engine: &PagingEngine, ratio: f64) -> u64 {
        let Some(dm) = engine.cluster() else {
            return 0;
        };
        let source = PageSource::new(ratio, SPREAD, self.scale.seed);
        dm.entries_snapshot()
            .into_iter()
            .filter(|(server, pfn, _)| dm.get(*server, *pfn).ok() != Some(source.page(*pfn)))
            .count() as u64
    }
}

impl Workload for Paging {
    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let start = Instant::now();
        let scale = SwapScale {
            memory_fraction: 0.5,
            shared_donation: 0.25,
            remote_pool: ByteSize::from_mib(1),
            seed: dmem_sim::splitmix64(seed),
            ..SwapScale::bench()
        };
        let profile = catalog::by_name("LogisticRegression").expect("a Table 3 workload");
        let trace = TraceConfig::scaled_from(profile, scale.working_set_pages)
            .generate(scale.seed)
            .collect();
        times.generate = start.elapsed();
        Paging {
            scale,
            trace,
            last: Vec::new(),
        }
    }

    fn ops_per_round(&self) -> u64 {
        (self.trace.len() * RATIOS.len()) as u64
    }

    fn round<O: Observer>(&mut self, obs: &mut O) -> Round {
        let mut out = Round::default();
        let mut digest = Fnv::new();
        self.last.clear();
        for ratio in RATIOS {
            let id = obs.enter("harness.build");
            let mut engine = build(&self.scale, ratio);
            obs.exit(id);
            let clock = engine.clock().clone();
            arm_tracer(obs, &clock);

            let run_id = obs.enter("harness.timed");
            let start = Instant::now();
            let result = if O::PER_OP {
                let before = clock.now();
                self.trace
                    .iter()
                    .try_for_each(|access| {
                        observed(obs, "swap.access", 1, &clock, || {
                            engine.access(access.page.pfn(), access.write)
                        })
                    })
                    // `run` on an empty trace flushes the write-behind
                    // window, as it does at the end of a bulk run.
                    .and_then(|()| engine.run(std::iter::empty()))
                    .map(|(stats, _)| (stats, clock.now() - before))
            } else {
                engine.run(self.trace.iter().copied())
            };
            out.timed += start.elapsed();
            obs.exit(run_id);

            match result {
                Ok((stats, completion)) => {
                    out.virt_ns += completion.as_nanos();
                    digest.word(completion.as_nanos());
                    mix_stats(&mut digest, &stats);
                    if stats.accesses != self.trace.len() as u64 {
                        out.failed += self.trace.len() as u64;
                    }
                    drain_tracer(obs, &clock, completion);
                }
                Err(_) => out.failed += self.trace.len() as u64,
            }
            if let Some(dm) = engine.cluster() {
                super::mix_cluster(&mut digest, dm, &super::counters(dm));
            }
            if O::VERIFY {
                out.failed += self.wrong_pages(&engine, ratio);
            }
            self.last.push(engine);
        }
        out.digest = digest.finish();
        out
    }

    fn layer_metrics(&mut self, layers: &mut Layers, _budget: Budget) -> u64 {
        let mut add = |name: &'static str, v: u64| *layers.entry(name).or_default() += v as f64;
        let mut prefetch_hits = 0;
        let mut swap_ins = 0;
        for engine in &self.last {
            let s = engine.stats();
            add("swap.major_faults", s.major_faults);
            add("swap.swap_outs", s.swap_outs);
            add("swap.swap_ins", s.swap_ins);
            add("swap.clean_evictions", s.clean_evictions);
            prefetch_hits += s.prefetch_hits;
            swap_ins += s.swap_ins;
            if let Some(dm) = engine.cluster() {
                super::add_cluster_counts(dm, &super::counters(dm), 0, &mut add);
            }
        }
        layers.insert(
            "swap.prefetch_hit_frac",
            prefetch_hits as f64 / swap_ins.max(1) as f64,
        );
        swap_ins
    }
}
