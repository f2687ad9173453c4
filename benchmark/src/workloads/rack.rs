//! `rack`: the sharded rack-scale engine. 256 hosts in 8 shards fault
//! pages from each other with replication, outages and failover.
//! `sim::shard` (epoch, route, merge) and `src/rack.rs` do all the work and
//! none of `core`, `net` or `swap` is touched, so it is the control
//! workload for every optimisation of those layers.
//!
//! The measured rounds run the engine on one worker. On the 2-core
//! reference box two workers need both cores undisturbed for a whole
//! round: the fast-decile round time of one input then ranges over 6.6 %
//! from run to run (3.2 % on one worker) and the spread over ten seeds
//! reaches 9.3 %, which no bound worth having covers. The threaded path is
//! measured in the traced run instead (`rack.w2_round_ms_p10`,
//! `rack.speedup_w2`), where it is also checked to give the same output.

use crate::harness::{
    measure, Budget, Layers, Observer, Plain, Reference, Round, SetupTimes, Workload,
};
use crate::stats::{self, Fnv};
use memory_disaggregation::rack::{run_rack, RackConfig, RackReport};
use std::time::Instant;

/// Worker threads of the threaded rounds in a traced run: the reference
/// box has two cores.
const THREADED_WORKERS: usize = 2;
const HOSTS: usize = 256;
const ACCESSES_PER_HOST: u64 = 400;

pub struct Rack {
    config: RackConfig,
    last: Option<RackReport>,
}

impl Rack {
    fn run<O: Observer>(&mut self, obs: &mut O, workers: usize) -> Round {
        let id = obs.enter("rack.run_rack");
        let start = Instant::now();
        let report = run_rack(&self.config, workers);
        let timed = start.elapsed();
        obs.exit(id);
        let mut digest = Fnv::new();
        digest
            .str(&report.csv_row())
            .str(&report.metrics_line)
            .word(report.horizon.nanos());
        // `run_rack` itself panics on a wrong or stale read and on a host
        // that did not finish; what is left to check is the total.
        let failed = self.ops_per_round().saturating_sub(report.accesses);
        let round = Round {
            timed,
            virt_ns: report.horizon.nanos(),
            digest: digest.finish(),
            failed,
        };
        self.last = Some(report);
        round
    }

    /// Bucket counts of every remote fault's latency, summed over the
    /// timeline's windows.
    fn fault_buckets(report: &RackReport) -> [u64; 65] {
        let mut counts = [0u64; 65];
        for window in &report.timeline.windows {
            if let Some(h) = window.histogram("rack.fault.ns") {
                for (total, bucket) in counts.iter_mut().zip(h.buckets.iter()) {
                    *total += bucket;
                }
            }
        }
        counts
    }
}

impl Workload for Rack {
    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let start = Instant::now();
        let config = RackConfig {
            accesses_per_host: ACCESSES_PER_HOST,
            seed: dmem_sim::splitmix64(seed),
            ..RackConfig::rack_default(HOSTS)
        };
        times.generate = start.elapsed();
        Rack { config, last: None }
    }

    fn ops_per_round(&self) -> u64 {
        HOSTS as u64 * ACCESSES_PER_HOST
    }

    fn round<O: Observer>(&mut self, obs: &mut O) -> Round {
        self.run(obs, 1)
    }

    /// The engine records fault latency only in log₂ buckets, and
    /// `RackReport::fault_p50_ns` / `fault_p99_ns` are bucket upper bounds
    /// (both 8192 ns at this scale). The same buckets, interpolated by
    /// rank inside the bucket, separate the two percentiles.
    fn virtual_latency_ns(&self, _samples: &[u64]) -> (f64, f64) {
        let report = self
            .last
            .as_ref()
            .expect("a round ran before the virtual metrics are read");
        let counts = Rack::fault_buckets(report);
        (
            stats::quantile_log2_buckets(&counts, 0.50),
            stats::quantile_log2_buckets(&counts, 0.99),
        )
    }

    fn layer_metrics(&mut self, layers: &mut Layers, budget: Budget) -> u64 {
        // The last measured round ran on one worker; threaded rounds must
        // reproduce its output byte for byte.
        let serial = self
            .last
            .as_ref()
            .map(|r| (r.csv_row(), r.metrics_line.clone()));
        let mut reference: Option<Reference> = None;
        let ops = self.ops_per_round();
        let phase = measure(budget, ops, &mut reference, |_| {
            self.run(&mut Plain, THREADED_WORKERS)
        });
        layers.insert("rack.w2_round_ms_p10", phase.deciles().0 * 1e3);
        let threaded = self
            .last
            .as_ref()
            .map(|r| (r.csv_row(), r.metrics_line.clone()));
        let same = serial == threaded && phase.digest_mismatches == 0;
        layers.insert("rack.worker_count_mismatches", f64::from(u8::from(!same)));

        let r = self.last.as_ref().expect("a round just ran");
        for (name, v) in [
            ("rack.epochs", r.epochs),
            ("rack.cross_msgs", r.cross_messages),
            ("rack.local_msgs", r.local_messages),
            ("rack.remote_reads", r.remote_reads),
            ("rack.writebacks", r.writebacks),
            ("rack.failovers", r.failovers),
            ("rack.probes", r.probes),
        ] {
            layers.insert(name, v as f64);
        }
        layers.insert("rack.hit_frac", r.hits as f64 / r.accesses.max(1) as f64);
        0
    }
}
