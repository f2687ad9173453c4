//! Device cost models.
//!
//! Each storage/transport tier is modelled as a fixed per-operation base
//! latency plus a bandwidth term. The default constants encode the latency
//! hierarchy the paper's §VI recites (SRAM ≪ DRAM ≪ network ≪ SSD ≪ HDD)
//! calibrated to its testbed: 56 Gbps InfiniBand and 7.2K rpm SATA disks.

use crate::time::SimDuration;
use std::fmt;

/// Cost model of a single device or transport: `base + bytes / bandwidth`.
///
/// # Examples
///
/// ```
/// use dmem_sim::DeviceCost;
///
/// let rdma = DeviceCost::new_us_gbps(1.8, 5.0);
/// let one_page = rdma.transfer(4096);
/// assert!(one_page.as_micros_f64() > 1.8);
/// // Batching 32 pages pays the base latency once:
/// let batch = rdma.transfer(32 * 4096);
/// assert!(batch < one_page * 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceCost {
    /// Fixed per-operation latency.
    pub base: SimDuration,
    /// Sustained bandwidth in bytes per second.
    pub bytes_per_sec: f64,
}

impl DeviceCost {
    /// Creates a cost model from a base latency and a bandwidth.
    pub fn new(base: SimDuration, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        DeviceCost {
            base,
            bytes_per_sec,
        }
    }

    /// Convenience constructor: base in microseconds, bandwidth in GB/s.
    pub fn new_us_gbps(base_us: f64, gb_per_sec: f64) -> Self {
        DeviceCost::new(
            SimDuration::from_nanos((base_us * 1_000.0) as u64),
            gb_per_sec * 1e9,
        )
    }

    /// Cost of moving `bytes` in one operation.
    pub fn transfer(&self, bytes: usize) -> SimDuration {
        self.base + SimDuration::from_nanos((bytes as f64 / self.bytes_per_sec * 1e9) as u64)
    }

    /// Cost of `n` separate operations of `bytes` each (pays base `n` times).
    pub fn transfer_each(&self, n: usize, bytes: usize) -> SimDuration {
        self.transfer(bytes) * n as u64
    }

    /// Returns this model with base latency scaled by `factor`.
    pub fn with_base_scaled(self, factor: f64) -> Self {
        DeviceCost {
            base: self.base * factor,
            bytes_per_sec: self.bytes_per_sec,
        }
    }

    /// Returns this model with bandwidth scaled by `factor`.
    pub fn with_bandwidth_scaled(self, factor: f64) -> Self {
        assert!(factor > 0.0, "bandwidth scale must be positive");
        DeviceCost {
            base: self.base,
            bytes_per_sec: self.bytes_per_sec * factor,
        }
    }
}

impl fmt::Display for DeviceCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} + {:.2} GB/s",
            self.base,
            self.bytes_per_sec / 1e9
        )
    }
}

/// The full latency hierarchy used by the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Local DRAM access within a virtual server.
    pub dram: DeviceCost,
    /// Node-coordinated shared memory: DRAM speed plus IPC/mapping overhead
    /// (the paper's node-level disaggregation premise, §III).
    pub shared_memory: DeviceCost,
    /// One RDMA RC verb on the 56 Gbps InfiniBand fabric.
    pub rdma: DeviceCost,
    /// One load/store window against a CXL memory-pool node: hundreds of
    /// nanoseconds to the first cacheline (CXL.mem request/response across
    /// one switch hop), then cacheline-granular streaming. No verb, queue
    /// pair, or retry machinery — failures surface as machine checks, not
    /// timeouts. The tier both surveys name as RDMA's successor.
    pub cxl: DeviceCost,
    /// Local byte-addressable NVM (PCM / 3D XPoint class): the §VI
    /// emerging-memory tier, used by the NVM extension.
    pub nvm: DeviceCost,
    /// Local SSD (not in the paper's testbed; used by extension ablations).
    pub ssd: DeviceCost,
    /// Local 7.2K rpm SATA disk, the swap device of the Linux baseline.
    pub hdd: DeviceCost,
    /// Per-page CPU cost of compressing a 4 KiB page.
    pub compress_page: SimDuration,
    /// Per-page CPU cost of decompressing a 4 KiB page.
    pub decompress_page: SimDuration,
}

impl CostModel {
    /// Constants calibrated to the paper's testbed; see DESIGN.md.
    pub fn paper_default() -> Self {
        CostModel {
            // 100 ns load-to-use + 12.8 GB/s copy bandwidth.
            dram: DeviceCost::new_us_gbps(0.1, 12.8),
            // ~1.3x DRAM: page-table mapping + node-manager coordination.
            shared_memory: DeviceCost::new_us_gbps(0.35, 9.8),
            // 56 Gbps IB: ~1.8 us one-sided verb, ~5 GB/s effective.
            rdma: DeviceCost::new_us_gbps(1.8, 5.0),
            // Pooled CXL memory one switch hop away: ~250 ns to the first
            // cacheline, ~3.2 GB/s sustained (64 B line / ~20 ns) — far
            // below the verb floor for small accesses, but behind RDMA's
            // streaming bandwidth for bulk transfers.
            cxl: DeviceCost::new_us_gbps(0.25, 3.2),
            // 3D XPoint class: ~350 ns access, ~2 GB/s sustained.
            nvm: DeviceCost::new_us_gbps(0.35, 2.0),
            // NVMe-class SSD.
            ssd: DeviceCost::new_us_gbps(80.0, 0.5),
            // 7.2K rpm SATA: ~4 ms average access, 150 MB/s streaming.
            hdd: DeviceCost::new_us_gbps(4_000.0, 0.15),
            // LZ-class software codec on one core.
            compress_page: SimDuration::from_nanos(1_500),
            decompress_page: SimDuration::from_nanos(700),
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_hierarchy_is_ordered() {
        let m = CostModel::paper_default();
        let p = 4096;
        assert!(m.dram.transfer(p) < m.shared_memory.transfer(p));
        assert!(m.shared_memory.transfer(p) < m.cxl.transfer(p));
        assert!(m.cxl.transfer(p) < m.nvm.transfer(p));
        assert!(m.nvm.transfer(p) < m.rdma.transfer(p));
        assert!(m.rdma.transfer(p) < m.ssd.transfer(p));
        assert!(m.ssd.transfer(p) < m.hdd.transfer(p));
    }

    #[test]
    fn cxl_crossover_shape() {
        // The crossover the ext_crossover figure measures: CXL wins small
        // cacheline-granular accesses on latency, RDMA wins bulk transfers
        // on bandwidth.
        let m = CostModel::paper_default();
        assert!(m.cxl.transfer(64) * 5 < m.rdma.transfer(64));
        assert!(m.cxl.transfer(64).as_nanos() < 1_000, "hundreds of ns, not us");
        assert!(m.rdma.transfer(64 * 1024) < m.cxl.transfer(64 * 1024));
    }

    #[test]
    fn nvm_sits_between_shared_memory_and_network() {
        // §VI's tiering argument: local NVM extends memory below DRAM but
        // above the network for page-sized accesses.
        let m = CostModel::paper_default();
        let nvm = m.nvm.transfer(4096);
        assert!(nvm.as_micros_f64() > 1.0 && nvm.as_micros_f64() < 3.0);
    }

    #[test]
    fn disk_network_gap_is_three_orders() {
        // The latency gap Infiniswap/FastSwap exploit: a 4 KiB page from
        // disk costs ~1000x a 4 KiB page over RDMA.
        let m = CostModel::paper_default();
        let gap = m.hdd.transfer(4096).as_nanos() as f64 / m.rdma.transfer(4096).as_nanos() as f64;
        assert!(gap > 500.0, "gap was only {gap:.0}x");
        assert!(gap < 5_000.0, "gap implausibly large: {gap:.0}x");
    }

    #[test]
    fn shared_memory_near_dram_speed() {
        // §III: node-level disaggregated memory is accessed "at the DRAM
        // speed instead of the network I/O speed".
        let m = CostModel::paper_default();
        let ratio = m.shared_memory.transfer(4096).as_nanos() as f64
            / m.dram.transfer(4096).as_nanos() as f64;
        assert!(ratio < 3.0, "shared memory {ratio:.1}x DRAM, expected < 3x");
        let rdma_ratio = m.rdma.transfer(4096).as_nanos() as f64
            / m.shared_memory.transfer(4096).as_nanos() as f64;
        assert!(rdma_ratio > 2.0, "rdma should be well above shared memory");
    }

    #[test]
    fn batching_amortizes_base() {
        let rdma = CostModel::paper_default().rdma;
        let batched = rdma.transfer(64 * 4096);
        let separate = rdma.transfer_each(64, 4096);
        assert!(batched < separate);
        // The saving is 63 base latencies, up to per-op rounding (< 1 ns each).
        let saving = (separate - batched).as_nanos() as i128;
        let expected = (rdma.base * 63).as_nanos() as i128;
        assert!((saving - expected).abs() <= 64, "saving {saving} vs {expected}");
    }

    #[test]
    fn scaling_helpers() {
        let d = DeviceCost::new_us_gbps(2.0, 1.0);
        assert_eq!(d.with_base_scaled(2.0).base, SimDuration::from_micros(4));
        let fast = d.with_bandwidth_scaled(2.0);
        assert!(fast.transfer(1 << 20) < d.transfer(1 << 20));
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = DeviceCost::new(SimDuration::ZERO, 0.0);
    }

    #[test]
    fn display_nonempty() {
        assert!(!CostModel::paper_default().rdma.to_string().is_empty());
    }

    proptest! {
        #[test]
        fn prop_transfer_monotone_in_bytes(a in 0usize..1 << 24, b in 0usize..1 << 24) {
            let d = CostModel::paper_default().rdma;
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(d.transfer(lo) <= d.transfer(hi));
        }

        #[test]
        fn prop_transfer_at_least_base(bytes in 0usize..1 << 24) {
            let d = CostModel::paper_default().hdd;
            prop_assert!(d.transfer(bytes) >= d.base);
        }
    }
}
