//! Configuration for the disaggregated memory system.
//!
//! The defaults reflect the paper's testbed where one exists (32 nodes of
//! 64 GiB DRAM, 80 VMs, triple replication, 10% initial donation) scaled by
//! the caller to laptop-sized simulations.

use crate::{ByteSize, DmemError, DmemResult, SizeClass};
use std::fmt;

/// How much of its allocated memory a virtual server donates to the node
/// shared-memory pool (paper §IV-F: "It could be 10% initially and
/// proactively increase to 40% or reduce to zero").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DonationPolicy {
    /// Fraction donated at initialization.
    pub initial: f64,
    /// Lower bound the balloon controller may shrink the donation to.
    pub min: f64,
    /// Upper bound the balloon controller may grow the donation to.
    pub max: f64,
}

impl DonationPolicy {
    /// The paper's default: start at 10%, move within [0%, 40%].
    pub const fn paper_default() -> Self {
        DonationPolicy {
            initial: 0.10,
            min: 0.0,
            max: 0.40,
        }
    }

    /// A fixed donation fraction that never changes.
    pub const fn fixed(fraction: f64) -> Self {
        DonationPolicy {
            initial: fraction,
            min: fraction,
            max: fraction,
        }
    }

    /// Validates the invariants `0 <= min <= initial <= max <= 1`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] when the bounds are out of order
    /// or outside `[0, 1]`.
    pub fn validate(&self) -> DmemResult<()> {
        let ordered = 0.0 <= self.min && self.min <= self.initial && self.initial <= self.max;
        if !ordered || self.max > 1.0 {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "donation policy must satisfy 0 <= min <= initial <= max <= 1, got \
                     min={} initial={} max={}",
                    self.min, self.initial, self.max
                ),
            });
        }
        Ok(())
    }
}

impl Default for DonationPolicy {
    fn default() -> Self {
        DonationPolicy::paper_default()
    }
}

/// Replica-set placement policy for remote writes (paper §IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PlacementStrategy {
    /// Uniform random choice among candidates.
    Random,
    /// Cycle through candidates.
    RoundRobin,
    /// Round robin weighted by advertised free memory.
    WeightedRoundRobin,
    /// Sample two candidates, pick the one with more free memory
    /// (Mitzenmacher's power of two choices, the paper's reference \[31\]).
    #[default]
    PowerOfTwoChoices,
}

impl fmt::Display for PlacementStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            PlacementStrategy::Random => "random",
            PlacementStrategy::RoundRobin => "round-robin",
            PlacementStrategy::WeightedRoundRobin => "weighted-round-robin",
            PlacementStrategy::PowerOfTwoChoices => "power-of-two-choices",
        };
        f.write_str(name)
    }
}

/// Number of replicas for each remote data entry.
///
/// The paper adopts HDFS-style triple replica modularity (§IV-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReplicationFactor(usize);

impl ReplicationFactor {
    /// Triple replication, the paper's default.
    pub const TRIPLE: ReplicationFactor = ReplicationFactor(3);
    /// Single copy (no redundancy).
    pub const SINGLE: ReplicationFactor = ReplicationFactor(1);

    /// Creates a replication factor.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] if `n` is zero.
    pub fn new(n: usize) -> DmemResult<Self> {
        if n == 0 {
            return Err(DmemError::InvalidConfig {
                reason: "replication factor must be at least 1".into(),
            });
        }
        Ok(ReplicationFactor(n))
    }

    /// The replica count.
    pub const fn get(self) -> usize {
        self.0
    }
}

impl Default for ReplicationFactor {
    fn default() -> Self {
        ReplicationFactor::TRIPLE
    }
}

impl fmt::Display for ReplicationFactor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r={}", self.0)
    }
}

/// Page-compression mode (paper §IV-H / Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionMode {
    /// No compression: every page stored as a full 4 KiB.
    Off,
    /// Two size classes: {2 KiB, 4 KiB}.
    TwoGranularity,
    /// Four size classes: {512 B, 1 KiB, 2 KiB, 4 KiB} — FastSwap's default.
    #[default]
    FourGranularity,
}

impl CompressionMode {
    /// The size classes this mode may store pages in, ascending.
    pub fn classes(self) -> &'static [SizeClass] {
        match self {
            CompressionMode::Off => &[SizeClass::C4K],
            CompressionMode::TwoGranularity => &[SizeClass::C2K, SizeClass::C4K],
            CompressionMode::FourGranularity => &SizeClass::ALL,
        }
    }

    /// `true` when pages are compressed before storing.
    pub fn is_enabled(self) -> bool {
        !matches!(self, CompressionMode::Off)
    }
}

impl fmt::Display for CompressionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CompressionMode::Off => "off",
            CompressionMode::TwoGranularity => "2-granularity",
            CompressionMode::FourGranularity => "4-granularity",
        };
        f.write_str(name)
    }
}

/// The node-level vs cluster-level traffic split for FastSwap's swap-out
/// path (paper Fig. 8: FS-SM, FS-9:1, FS-7:3, FS-5:5, FS-RDMA).
///
/// The value is the fraction of swap traffic served by the node-coordinated
/// shared memory pool; the remainder goes to remote memory over RDMA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributionRatio(f64);

impl DistributionRatio {
    /// FS-SM: 100% node-level shared memory.
    pub const FS_SM: DistributionRatio = DistributionRatio(1.0);
    /// FS-9:1: 90% shared memory, 10% remote.
    pub(crate) const FS_9_1: DistributionRatio = DistributionRatio(0.9);
    /// FS-7:3: 70% shared memory, 30% remote.
    pub const FS_7_3: DistributionRatio = DistributionRatio(0.7);
    /// FS-5:5: 50% shared memory, 50% remote.
    pub const FS_5_5: DistributionRatio = DistributionRatio(0.5);
    /// FS-RDMA: 100% remote memory.
    pub const FS_RDMA: DistributionRatio = DistributionRatio(0.0);

    /// Fraction of traffic served from node shared memory.
    pub const fn shared_fraction(self) -> f64 {
        self.0
    }

    /// The five configurations evaluated in Fig. 8, in the paper's order.
    pub const FIG8_SWEEP: [DistributionRatio; 5] = [
        DistributionRatio::FS_SM,
        DistributionRatio::FS_9_1,
        DistributionRatio::FS_7_3,
        DistributionRatio::FS_5_5,
        DistributionRatio::FS_RDMA,
    ];
}

impl Default for DistributionRatio {
    fn default() -> Self {
        DistributionRatio::FS_SM
    }
}

impl fmt::Display for DistributionRatio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if (self.0 - 1.0).abs() < f64::EPSILON {
            write!(f, "FS-SM")
        } else if self.0.abs() < f64::EPSILON {
            write!(f, "FS-RDMA")
        } else {
            write!(f, "FS-{}:{}", (self.0 * 10.0).round(), (10.0 - self.0 * 10.0).round())
        }
    }
}

/// Swap-in strategy (paper §IV-H / Fig. 6 & 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwapInMode {
    /// Fetch exactly the faulted page (Infiniswap/Linux behaviour).
    Demand,
    /// Proactive batch swap-in: on a fault, also fetch the next
    /// `window - 1` contiguously swapped-out pages in one batched transfer.
    ProactiveBatch {
        /// Total pages fetched per fault, including the faulted one.
        window: usize,
    },
}

impl SwapInMode {
    /// Number of pages fetched per fault.
    pub fn window(self) -> usize {
        match self {
            SwapInMode::Demand => 1,
            SwapInMode::ProactiveBatch { window } => window.max(1),
        }
    }
}

impl Default for SwapInMode {
    fn default() -> Self {
        SwapInMode::ProactiveBatch { window: 8 }
    }
}

impl fmt::Display for SwapInMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwapInMode::Demand => write!(f, "demand"),
            SwapInMode::ProactiveBatch { window } => write!(f, "pbs(w={window})"),
        }
    }
}

/// Per-virtual-server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// DRAM allocated to the server at initialization (fixed for its
    /// lifetime, as the paper observes is standard practice).
    pub memory: ByteSize,
    /// Donation policy for the node shared pool.
    pub donation: DonationPolicy,
}

impl ServerConfig {
    /// Creates a server configuration with the paper's default donation.
    pub fn new(memory: ByteSize) -> Self {
        ServerConfig {
            memory,
            donation: DonationPolicy::default(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] on zero memory or a bad
    /// donation policy.
    pub(crate) fn validate(&self) -> DmemResult<()> {
        if self.memory.is_zero() {
            return Err(DmemError::InvalidConfig {
                reason: "server memory must be nonzero".into(),
            });
        }
        self.donation.validate()
    }
}

/// Per-node configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeConfig {
    /// Physical DRAM on the node.
    pub dram: ByteSize,
    /// Slab size used by the shared memory pool and RDMA buffer pools.
    pub slab_size: ByteSize,
    /// DRAM registered for the cluster-wide RDMA *send* buffer pool.
    pub send_pool: ByteSize,
    /// DRAM registered for the cluster-wide RDMA *receive* buffer pool
    /// (the memory this node donates to remote peers).
    pub recv_pool: ByteSize,
    /// Byte-addressable NVM installed on the node (the §VI emerging-memory
    /// tier; zero disables it). NVM is its own device, not part of DRAM.
    pub nvm_pool: ByteSize,
}

impl NodeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] if any size is zero or the
    /// buffer pools exceed the node's DRAM.
    pub(crate) fn validate(&self) -> DmemResult<()> {
        if self.dram.is_zero() || self.slab_size.is_zero() {
            return Err(DmemError::InvalidConfig {
                reason: "node dram and slab size must be nonzero".into(),
            });
        }
        if self.send_pool + self.recv_pool > self.dram {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "rdma buffer pools ({} + {}) exceed node dram ({})",
                    self.send_pool, self.recv_pool, self.dram
                ),
            });
        }
        Ok(())
    }
}

impl Default for NodeConfig {
    /// A laptop-scale stand-in for the paper's 64 GiB nodes: 64 MiB DRAM,
    /// 1 MiB slabs, 4 MiB send / 8 MiB receive pools.
    fn default() -> Self {
        NodeConfig {
            dram: ByteSize::from_mib(64),
            slab_size: ByteSize::from_mib(1),
            send_pool: ByteSize::from_mib(4),
            recv_pool: ByteSize::from_mib(8),
            nvm_pool: ByteSize::ZERO,
        }
    }
}

/// Configuration of the CXL pooled-memory tier: a rack of memory-pool
/// nodes reachable by load/store through a CXL switch, addressed
/// PGAS-style and placed by consistent hashing.
///
/// Zero pool nodes (the default) disables the tier entirely: no pool is
/// constructed, no `cxl.*` metric keys exist, and every pre-CXL run is
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CxlPoolConfig {
    /// Memory-pool nodes behind the switch; zero disables the tier.
    pub pool_nodes: usize,
    /// Usable capacity per pool node.
    pub capacity_per_node: ByteSize,
}

impl CxlPoolConfig {
    /// The disabled tier: no pool nodes.
    pub const DISABLED: CxlPoolConfig = CxlPoolConfig {
        pool_nodes: 0,
        capacity_per_node: ByteSize::ZERO,
    };

    /// Creates a pool of `pool_nodes` nodes with `capacity_per_node` each.
    pub const fn new(pool_nodes: usize, capacity_per_node: ByteSize) -> Self {
        CxlPoolConfig {
            pool_nodes,
            capacity_per_node,
        }
    }

    /// `true` when the tier is configured.
    pub const fn enabled(&self) -> bool {
        self.pool_nodes > 0
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] when pool nodes exist but have
    /// zero capacity, or the node count exceeds the 16-bit PGAS node field.
    pub(crate) fn validate(&self) -> DmemResult<()> {
        if self.pool_nodes > 0 && self.capacity_per_node.is_zero() {
            return Err(DmemError::InvalidConfig {
                reason: "cxl pool nodes must have nonzero capacity".into(),
            });
        }
        if self.pool_nodes > u16::MAX as usize {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "cxl pool node count {} exceeds the 16-bit global-address field",
                    self.pool_nodes
                ),
            });
        }
        Ok(())
    }
}

impl Default for CxlPoolConfig {
    fn default() -> Self {
        CxlPoolConfig::DISABLED
    }
}

/// Whole-cluster configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Virtual servers hosted per node.
    pub servers_per_node: usize,
    /// Node hardware configuration (uniform, like the paper's testbed).
    pub node: NodeConfig,
    /// Virtual server configuration (uniform allocation, the common
    /// practice the paper critiques).
    pub server: ServerConfig,
    /// Target group size for hierarchical group sharing (§IV-C).
    pub group_size: usize,
    /// Replication degree for remote entries.
    pub replication: ReplicationFactor,
    /// Replica placement policy.
    pub placement: PlacementStrategy,
    /// Page compression mode.
    pub compression: CompressionMode,
    /// CXL pooled-memory tier (disabled by default).
    pub cxl: CxlPoolConfig,
    /// Deterministic seed for all randomized choices.
    pub seed: u64,
}

impl ClusterConfig {
    /// A small, fast configuration for tests and examples: 4 nodes × 2
    /// servers.
    pub fn small() -> Self {
        ClusterConfig {
            nodes: 4,
            servers_per_node: 2,
            node: NodeConfig::default(),
            server: ServerConfig::new(ByteSize::from_mib(16)),
            group_size: 4,
            replication: ReplicationFactor::TRIPLE,
            placement: PlacementStrategy::PowerOfTwoChoices,
            compression: CompressionMode::FourGranularity,
            cxl: CxlPoolConfig::DISABLED,
            seed: 0x00D1_5A66,
        }
    }

    /// Validates every nested configuration plus cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] on any violated invariant, e.g.
    /// zero nodes, a group size of zero, replication degree exceeding the
    /// node count, or per-server allocations exceeding node DRAM.
    pub fn validate(&self) -> DmemResult<()> {
        if self.nodes == 0 || self.servers_per_node == 0 {
            return Err(DmemError::InvalidConfig {
                reason: "cluster must have at least one node and one server per node".into(),
            });
        }
        if self.group_size == 0 {
            return Err(DmemError::InvalidConfig {
                reason: "group size must be at least 1".into(),
            });
        }
        if self.replication.get() > self.nodes {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "replication factor {} exceeds node count {}",
                    self.replication.get(),
                    self.nodes
                ),
            });
        }
        self.node.validate()?;
        self.server.validate()?;
        self.cxl.validate()?;
        let allocated = self.server.memory * self.servers_per_node as u64;
        if allocated + self.node.send_pool + self.node.recv_pool > self.node.dram {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "per-node allocations ({} servers × {} + rdma pools) exceed dram {}",
                    self.servers_per_node, self.server.memory, self.node.dram
                ),
            });
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configs_validate() {
        ClusterConfig::small().validate().unwrap();
    }

    #[test]
    fn donation_policy_bounds_checked() {
        assert!(DonationPolicy::paper_default().validate().is_ok());
        assert!(DonationPolicy {
            initial: 0.5,
            min: 0.6,
            max: 0.7
        }
        .validate()
        .is_err());
        assert!(DonationPolicy {
            initial: 0.9,
            min: 0.0,
            max: 1.5
        }
        .validate()
        .is_err());
        assert!(DonationPolicy::fixed(0.25).validate().is_ok());
    }

    #[test]
    fn replication_factor_rejects_zero() {
        assert!(ReplicationFactor::new(0).is_err());
        assert_eq!(ReplicationFactor::new(3).unwrap(), ReplicationFactor::TRIPLE);
        assert_eq!(ReplicationFactor::default().get(), 3);
    }

    #[test]
    fn replication_cannot_exceed_nodes() {
        let mut cfg = ClusterConfig::small();
        cfg.nodes = 2;
        assert!(matches!(
            cfg.validate(),
            Err(DmemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn distribution_ratio_constants() {
        assert_eq!(DistributionRatio::FS_SM.shared_fraction(), 1.0);
        assert_eq!(DistributionRatio::FS_7_3.to_string(), "FS-7:3");
        assert_eq!(DistributionRatio::FS_SM.to_string(), "FS-SM");
        assert_eq!(DistributionRatio::FS_RDMA.to_string(), "FS-RDMA");
    }

    #[test]
    fn compression_mode_classes() {
        assert_eq!(CompressionMode::Off.classes(), &[SizeClass::C4K]);
        assert_eq!(CompressionMode::TwoGranularity.classes().len(), 2);
        assert_eq!(CompressionMode::FourGranularity.classes().len(), 4);
        assert!(!CompressionMode::Off.is_enabled());
        assert!(CompressionMode::FourGranularity.is_enabled());
    }

    #[test]
    fn swap_in_window() {
        assert_eq!(SwapInMode::Demand.window(), 1);
        assert_eq!(SwapInMode::ProactiveBatch { window: 8 }.window(), 8);
        assert_eq!(
            SwapInMode::ProactiveBatch { window: 0 }.window(),
            1,
            "degenerate window clamps to demand paging"
        );
    }

    #[test]
    fn cxl_pool_config_validates() {
        assert!(!CxlPoolConfig::DISABLED.enabled());
        assert!(CxlPoolConfig::DISABLED.validate().is_ok());
        let pool = CxlPoolConfig::new(4, ByteSize::from_kib(256));
        assert!(pool.enabled());
        assert!(pool.validate().is_ok());
        assert!(CxlPoolConfig::new(2, ByteSize::ZERO).validate().is_err());
        assert!(
            CxlPoolConfig::new(1 << 17, ByteSize::from_kib(4)).validate().is_err(),
            "node count must fit the 16-bit PGAS field"
        );
        let mut cfg = ClusterConfig::small();
        cfg.cxl = pool;
        cfg.validate().unwrap();
    }

    #[test]
    fn oversubscribed_node_rejected() {
        let mut cfg = ClusterConfig::small();
        cfg.server.memory = ByteSize::from_gib(1);
        assert!(cfg.validate().is_err());
    }
}
