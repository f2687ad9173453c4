//! System factory: assemble any of the paper's swap systems at a chosen
//! scale and drive it with a workload.
//!
//! Every figure-reproducing bench goes through this module so all systems
//! run against identical clusters, traces and cost models — only the swap
//! system itself differs.

use crate::disk::LinuxDiskSwap;
use crate::engine::{EngineConfig, EngineStats, PageSource, PagingEngine};
use crate::fastswap::FastSwapBackend;
use crate::remote_paging::{InfiniswapBackend, NbdxBackend};
use dmem_cluster::{ClusterMembership, RemoteStore};
use dmem_core::{DiskTier, DisaggregatedMemory};
use dmem_net::Fabric;
use dmem_sim::{CostModel, FailureInjector, SimClock, SimDuration};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, DistributionRatio, DmemError, DmemResult,
    DonationPolicy, NodeConfig, NodeId, ServerConfig, SwapInMode,
};
use dmem_workloads::{catalog, AppProfile, KvWorkload, PageAccess, TraceConfig};
use std::sync::Arc;

/// Which system to build.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemKind {
    /// Linux disk swapping (the paper's worst baseline).
    Linux,
    /// NBDX remote block device.
    Nbdx,
    /// Infiniswap remote paging.
    Infiniswap,
    /// FastSwap with explicit knobs.
    FastSwap {
        /// Node/cluster traffic split (Fig. 8).
        ratio: DistributionRatio,
        /// Page compression mode (Figs. 3-5).
        compression: CompressionMode,
        /// Proactive batch swap-in on/off (Figs. 6, 9).
        pbs: bool,
    },
}

impl SystemKind {
    /// FastSwap as evaluated by default: auto-tiered, 4-granularity
    /// compression, PBS on.
    pub fn fastswap_default() -> Self {
        SystemKind::FastSwap {
            ratio: DistributionRatio::FS_SM,
            compression: CompressionMode::FourGranularity,
            pbs: true,
        }
    }

    /// Display name matching the paper's figures.
    pub(crate) fn label(&self) -> String {
        match self {
            SystemKind::Linux => "Linux".into(),
            SystemKind::Nbdx => "NBDX".into(),
            SystemKind::Infiniswap => "Infiniswap".into(),
            SystemKind::FastSwap { ratio, pbs, .. } => {
                if *pbs {
                    format!("FastSwap({ratio})")
                } else {
                    format!("FastSwap({ratio}, w/o PBS)")
                }
            }
        }
    }
}

/// Simulation scale shared by all systems of one experiment.
#[derive(Debug, Clone)]
pub struct SwapScale {
    /// Working-set size in pages.
    pub working_set_pages: u64,
    /// Fraction of the working set that fits in memory (the paper's
    /// 75%/50% configurations).
    pub memory_fraction: f64,
    /// Cluster size for the remote systems.
    pub nodes: u32,
    /// Per-node remote receive pool.
    pub remote_pool: ByteSize,
    /// Donation fraction funding the node shared pool (FastSwap).
    pub shared_donation: f64,
    /// Application compute charged per page access.
    pub compute_per_access: SimDuration,
    /// Master seed.
    pub seed: u64,
}

impl SwapScale {
    /// A fast test-sized scale: 512-page working set at 50%.
    pub fn small() -> Self {
        SwapScale {
            working_set_pages: 512,
            memory_fraction: 0.5,
            nodes: 4,
            remote_pool: ByteSize::from_mib(4),
            shared_donation: 0.40,
            compute_per_access: SimDuration::from_micros(6),
            seed: 0xFA57,
        }
    }

    /// The bench-sized scale used by the figure harness: an 8 MiB
    /// working set (2048 pages) standing in for the paper's 25-30 GB.
    pub fn bench() -> Self {
        SwapScale {
            working_set_pages: 2048,
            memory_fraction: 0.5,
            nodes: 8,
            remote_pool: ByteSize::from_mib(8),
            shared_donation: 0.40,
            compute_per_access: SimDuration::from_micros(6),
            seed: 0xFA57,
        }
    }

    /// Resident frames for the configured memory fraction.
    pub fn frames(&self) -> usize {
        ((self.working_set_pages as f64) * self.memory_fraction).max(1.0) as usize
    }

    /// This scale with a different memory fraction.
    pub fn with_fraction(&self, fraction: f64) -> Self {
        SwapScale {
            memory_fraction: fraction,
            ..self.clone()
        }
    }
}

/// Outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// System label.
    pub system: String,
    /// Workload name.
    pub workload: String,
    /// Virtual completion time.
    pub completion: SimDuration,
    /// Engine counters.
    pub stats: EngineStats,
}

fn remote_env(scale: &SwapScale) -> DmemResult<(SimClock, RemoteStore, DiskTier)> {
    let clock = SimClock::new();
    let cost = CostModel::paper_default();
    let failures = FailureInjector::new(clock.clone());
    let fabric = Fabric::new(clock.clone(), cost, failures.clone());
    let nodes: Vec<NodeId> = (0..scale.nodes).map(NodeId::new).collect();
    let membership = ClusterMembership::new(nodes, failures);
    let store = RemoteStore::new(fabric, membership, scale.remote_pool)?;
    let disk = DiskTier::new(clock.clone(), cost);
    Ok((clock, store, disk))
}

fn fastswap_cluster(
    scale: &SwapScale,
    compression: CompressionMode,
) -> DmemResult<Arc<DisaggregatedMemory>> {
    let server_memory = ByteSize::new(scale.frames() as u64 * 4096).max(ByteSize::from_kib(64));
    let servers_per_node = 2usize;
    let send_pool = ByteSize::from_mib(2);
    let dram = server_memory * servers_per_node as u64
        + send_pool
        + scale.remote_pool
        + ByteSize::from_mib(1);
    let config = ClusterConfig {
        nodes: scale.nodes as usize,
        servers_per_node,
        node: NodeConfig {
            dram,
            slab_size: ByteSize::from_kib(256),
            send_pool,
            recv_pool: scale.remote_pool,
            nvm_pool: ByteSize::ZERO,
        },
        server: ServerConfig {
            memory: server_memory,
            donation: DonationPolicy::fixed(scale.shared_donation),
        },
        group_size: scale.nodes as usize,
        replication: dmem_types::ReplicationFactor::TRIPLE,
        placement: dmem_types::PlacementStrategy::PowerOfTwoChoices,
        compression,
        cxl: dmem_types::CxlPoolConfig::DISABLED,
        seed: scale.seed,
    };
    Ok(Arc::new(DisaggregatedMemory::new(config)?))
}

/// Builds a ready-to-run paging engine for `kind` at `scale`, with page
/// contents compressing around `(compress_mean, compress_spread)`.
///
/// # Errors
///
/// Propagates cluster construction failures.
pub fn build_system_with_pages(
    kind: SystemKind,
    scale: &SwapScale,
    compress_mean: f64,
    compress_spread: f64,
) -> DmemResult<PagingEngine> {
    let frames = scale.frames();
    let source = PageSource::new(compress_mean, compress_spread, scale.seed);
    let base = EngineConfig {
        compute_per_access: scale.compute_per_access,
        ..EngineConfig::demand(frames)
    };
    match kind {
        SystemKind::Linux => {
            let clock = SimClock::new();
            let server = dmem_types::ServerId::new(NodeId::new(0), 0);
            let backend = LinuxDiskSwap::new(server, clock.clone(), CostModel::paper_default());
            // The kernel clusters swap writes and reads ahead
            // vm.page-cluster = 3 → 8 pages per swapin; modelling this
            // keeps the Linux baseline honest (the paper's 24-85x gaps
            // are against a tuned kernel, not naive per-page I/O).
            let config = EngineConfig {
                swap_out_window: 8,
                swap_in: SwapInMode::ProactiveBatch { window: 8 },
                ..base
            };
            Ok(PagingEngine::new(config, clock, Box::new(backend), source))
        }
        SystemKind::Nbdx => {
            let (clock, store, disk) = remote_env(scale)?;
            let server = dmem_types::ServerId::new(NodeId::new(0), 0);
            let backend = NbdxBackend::new(server, store, NodeId::new(1), disk);
            Ok(PagingEngine::new(base, clock, Box::new(backend), source))
        }
        SystemKind::Infiniswap => {
            let (clock, store, disk) = remote_env(scale)?;
            let server = dmem_types::ServerId::new(NodeId::new(0), 0);
            let backend = InfiniswapBackend::new(server, store, disk, scale.seed);
            Ok(PagingEngine::new(base, clock, Box::new(backend), source))
        }
        SystemKind::FastSwap {
            ratio,
            compression,
            pbs,
        } => {
            let dm = fastswap_cluster(scale, compression)?;
            let server = dm.servers()[0];
            let clock = dm.clock().clone();
            let backend = FastSwapBackend::new(dm, server, ratio);
            let config = EngineConfig {
                swap_out_window: 8,
                swap_in: if pbs {
                    SwapInMode::ProactiveBatch { window: 8 }
                } else {
                    SwapInMode::Demand
                },
                // FastSwap hooks the swap path frontswap-style: faults are
                // served synchronously without the block layer's bio
                // submission and io_schedule sleep/wake, so the per-fault
                // kernel cost is a fraction of the block-device systems'.
                fault_overhead: SimDuration::from_micros(2),
                ..base
            };
            Ok(PagingEngine::new(config, clock, Box::new(backend), source))
        }
    }
}

/// Builds an engine with the default mid-range page compressibility.
///
/// # Errors
///
/// See [`build_system_with_pages`].
pub fn build_system(kind: SystemKind, scale: &SwapScale) -> DmemResult<PagingEngine> {
    build_system_with_pages(kind, scale, 2.8, 0.8)
}

fn profile(workload: &str) -> DmemResult<AppProfile> {
    catalog::by_name(workload).ok_or_else(|| DmemError::InvalidConfig {
        reason: format!("unknown workload {workload}"),
    })
}

/// Runs one of the Table-3 ML workloads through `kind` and returns the
/// completion-time result (the Fig. 5-7 measurement).
///
/// # Errors
///
/// Returns [`DmemError::InvalidConfig`] for unknown workloads plus any
/// construction failure.
pub fn run_ml_workload(kind: SystemKind, workload: &str, scale: &SwapScale) -> DmemResult<RunResult> {
    let profile = profile(workload)?;
    let mut engine = build_system_with_pages(
        kind,
        scale,
        profile.compress_mean,
        profile.compress_spread,
    )?;
    let trace = TraceConfig::scaled_from(profile, scale.working_set_pages).generate(scale.seed);
    let (stats, completion) = engine.run(trace)?;
    Ok(RunResult {
        system: kind.label(),
        workload: workload.to_owned(),
        completion,
        stats,
    })
}

/// A key-value store under full memory pressure: `kind`'s engine with the
/// whole working set swapped out, and `workload`'s op stream.
fn cold_kv_store(
    kind: SystemKind,
    workload: &str,
    scale: &SwapScale,
) -> DmemResult<(PagingEngine, KvWorkload)> {
    let profile = profile(workload)?;
    // A KV store op costs ~1 us of CPU, far less than the ML workloads'
    // per-page compute.
    let scale = SwapScale {
        compute_per_access: SimDuration::from_micros(1),
        ..scale.clone()
    };
    let mut engine = build_system_with_pages(
        kind,
        &scale,
        profile.compress_mean,
        profile.compress_spread,
    )?;
    engine.preload_swapped(scale.working_set_pages)?;
    let kv = KvWorkload::from_profile(&profile, scale.working_set_pages, scale.seed);
    Ok((engine, kv))
}

/// Runs a key-value workload for `ops` operations and returns
/// `(throughput_ops_per_sec, result)` — the Fig. 8 measurement. The store
/// starts under full memory pressure (working set swapped out).
///
/// # Errors
///
/// Same as [`run_ml_workload`].
pub fn run_kv_throughput(
    kind: SystemKind,
    workload: &str,
    scale: &SwapScale,
    ops: usize,
) -> DmemResult<(f64, RunResult)> {
    let (mut engine, mut kv) = cold_kv_store(kind, workload, scale)?;
    let trace = std::iter::from_fn(move || {
        let op = kv.next_op();
        Some(PageAccess {
            page: dmem_types::PageId::new(op.key()),
            write: op.is_write(),
        })
    })
    .take(ops);
    let start = engine.clock().now();
    let (stats, _) = engine.run(trace)?;
    let elapsed = engine.clock().now() - start;
    let throughput = ops as f64 / elapsed.as_secs_f64().max(1e-12);
    Ok((
        throughput,
        RunResult {
            system: kind.label(),
            workload: workload.to_owned(),
            completion: elapsed,
            stats,
        },
    ))
}

/// Runs a key-value workload against a cold (fully swapped-out) store for
/// `horizon` of virtual time and returns the ops per bucket — the Fig. 9
/// recovery timeline. The horizon is cut into `buckets` buckets of
/// `horizon / buckets` whole nanoseconds (a remainder joins the last);
/// an op counts in the bucket of the instant it starts, and no op starts
/// at or after `horizon`.
///
/// # Errors
///
/// Same as [`run_ml_workload`].
///
/// # Panics
///
/// Panics if `buckets` is zero.
pub fn run_kv_timeline(
    kind: SystemKind,
    workload: &str,
    scale: &SwapScale,
    horizon: SimDuration,
    buckets: usize,
) -> DmemResult<Vec<u64>> {
    assert!(buckets > 0, "a timeline needs at least one bucket");
    let (mut engine, mut kv) = cold_kv_store(kind, workload, scale)?;
    let bucket_ns = (horizon.as_nanos() / buckets as u64).max(1);
    let mut series = vec![0u64; buckets];
    let start = engine.clock().now();
    loop {
        let elapsed = engine.clock().now() - start;
        if elapsed >= horizon {
            break;
        }
        let op = kv.next_op();
        engine.access(dmem_types::PageId::new(op.key()).pfn(), op.is_write())?;
        let bucket = (elapsed.as_nanos() / bucket_ns) as usize;
        series[bucket.min(buckets - 1)] += 1;
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_systems_build_and_run() {
        let scale = SwapScale::small();
        for kind in [
            SystemKind::Linux,
            SystemKind::Nbdx,
            SystemKind::Infiniswap,
            SystemKind::fastswap_default(),
        ] {
            let result = run_ml_workload(kind, "KMeans", &scale).unwrap();
            assert!(result.completion > SimDuration::ZERO, "{}", result.system);
            assert!(result.stats.accesses > 0);
        }
    }

    #[test]
    fn paper_ordering_fastswap_beats_infiniswap_beats_linux() {
        let scale = SwapScale::small();
        let linux = run_ml_workload(SystemKind::Linux, "LogisticRegression", &scale).unwrap();
        let inf = run_ml_workload(SystemKind::Infiniswap, "LogisticRegression", &scale).unwrap();
        let fast =
            run_ml_workload(SystemKind::fastswap_default(), "LogisticRegression", &scale).unwrap();
        assert!(
            fast.completion < inf.completion,
            "FastSwap {} !< Infiniswap {}",
            fast.completion,
            inf.completion
        );
        assert!(
            inf.completion < linux.completion,
            "Infiniswap {} !< Linux {}",
            inf.completion,
            linux.completion
        );
        // And the gap over Linux is large (paper: tens of x).
        let speedup =
            linux.completion.as_nanos() as f64 / fast.completion.as_nanos() as f64;
        assert!(speedup > 5.0, "FastSwap speedup over Linux only {speedup:.1}x");
    }

    #[test]
    fn more_memory_means_faster_completion() {
        let scale50 = SwapScale::small();
        let scale75 = scale50.with_fraction(0.75);
        let at50 = run_ml_workload(SystemKind::fastswap_default(), "SVM", &scale50).unwrap();
        let at75 = run_ml_workload(SystemKind::fastswap_default(), "SVM", &scale75).unwrap();
        assert!(
            at75.completion < at50.completion,
            "75% config must beat 50% config"
        );
    }

    #[test]
    fn pbs_accelerates_recovery_sweep() {
        // PBS's payoff is the Fig. 6/9 scenario: a working set parked in
        // remote memory being faulted back in with strong sequentiality
        // (recovery after pressure). One batched fetch replaces a window
        // of faults, control round trips and reads.
        let scale = SwapScale::small();
        let remote = |pbs| SystemKind::FastSwap {
            ratio: DistributionRatio::FS_RDMA,
            compression: CompressionMode::FourGranularity,
            pbs,
        };
        let sweep = |pbs: bool| {
            let mut engine = build_system(remote(pbs), &scale).unwrap();
            engine.preload_swapped(scale.working_set_pages).unwrap();
            let t0 = engine.clock().now();
            for pfn in 0..scale.frames() as u64 {
                engine.access(pfn, false).unwrap();
            }
            engine.clock().now() - t0
        };
        let with_pbs = sweep(true);
        let without = sweep(false);
        let speedup = without.as_nanos() as f64 / with_pbs.as_nanos() as f64;
        assert!(
            speedup > 1.4,
            "PBS recovery {with_pbs} only {speedup:.2}x faster than demand {without}"
        );
    }

    #[test]
    fn kv_throughput_ranks_systems() {
        let scale = SwapScale::small();
        let (fs, _) = run_kv_throughput(SystemKind::fastswap_default(), "Memcached", &scale, 3000)
            .unwrap();
        let (linux, _) =
            run_kv_throughput(SystemKind::Linux, "Memcached", &scale, 3000).unwrap();
        assert!(
            fs > linux * 5.0,
            "FastSwap KV throughput {fs:.0} not far above Linux {linux:.0}"
        );
    }

    #[test]
    fn timeline_shows_recovery() {
        let scale = SwapScale::small();
        let series = run_kv_timeline(
            SystemKind::fastswap_default(),
            "Memcached",
            &scale,
            SimDuration::from_secs(5),
            5,
        )
        .unwrap();
        assert_eq!(series.len(), 5);
        assert!(series.iter().sum::<u64>() > 0);
    }

    #[test]
    fn timeline_buckets_sum_to_accesses() {
        // A cold Linux store: its first op is a disk fault that spans many
        // 100 us buckets, so the bucket it lands in shows which of its
        // instants counts.
        let scale = SwapScale::small();
        let (horizon, buckets) = (SimDuration::from_millis(100), 1000);
        let series =
            run_kv_timeline(SystemKind::Linux, "Memcached", &scale, horizon, buckets).unwrap();
        assert_eq!(series.len(), buckets);

        // Replay the same ops by hand, noting the instant each one starts.
        let (mut engine, mut kv) = cold_kv_store(SystemKind::Linux, "Memcached", &scale).unwrap();
        let start = engine.clock().now();
        let mut starts = Vec::new();
        while engine.clock().now() - start < horizon {
            starts.push((engine.clock().now() - start).as_nanos());
            let op = kv.next_op();
            engine
                .access(dmem_types::PageId::new(op.key()).pfn(), op.is_write())
                .unwrap();
        }
        assert_eq!(series.iter().sum::<u64>(), starts.len() as u64);

        let width = horizon.as_nanos() / buckets as u64;
        let mut by_start = vec![0u64; buckets];
        for start in &starts {
            by_start[(start / width) as usize] += 1;
        }
        assert_eq!(series, by_start);
        // The first op starts at 0 and ends past bucket 0, yet counts there.
        assert!(starts[1] > width, "first op took only {} ns", starts[1]);
        assert_eq!(series[0], 1);
    }

    #[test]
    fn unknown_workload_rejected() {
        assert!(run_ml_workload(SystemKind::Linux, "Nope", &SwapScale::small()).is_err());
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(SystemKind::Linux.label(), "Linux");
        assert_eq!(
            SystemKind::FastSwap {
                ratio: DistributionRatio::FS_7_3,
                compression: CompressionMode::FourGranularity,
                pbs: true
            }
            .label(),
            "FastSwap(FS-7:3)"
        );
    }
}
