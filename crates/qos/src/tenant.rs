//! The tenancy model: who owns which servers, and under what policy.

use dmem_types::ByteSize;
use dmem_sim::SimDuration;

/// Policy for one tenant: identity, priority, fast-tier quota, optional
/// latency SLO and optional fabric rate.
///
/// * **Priority** is a `u8`, higher = more important. Priority governs
///   eviction (a tenant's pages may only displace pages of equal or lower
///   priority) and degradation (the controller throttles and sheds
///   strictly-lower-priority tenants when an SLO is violated).
/// * **Quota** bounds the tenant's *fast-tier* residency — bytes stored in
///   node shared pools, NVM and remote memory. Disk is unmetered, so a
///   tenant over quota degrades to disk rather than failing.
/// * **SLO** is a p99 target over the tenant's windowed get latency; the
///   closed-loop controller reacts when it is exceeded.
/// * **Fabric rate** meters the tenant's remote-memory verbs through a
///   deterministic token bucket.
///
/// # Examples
///
/// ```
/// use dmem_qos::TenantSpec;
/// use dmem_sim::SimDuration;
/// use dmem_types::ByteSize;
///
/// let t = TenantSpec::new("frontend", 200, ByteSize::from_mib(8))
///     .with_slo_p99(SimDuration::from_micros(50))
///     .with_fabric_rate(ByteSize::from_mib(64).as_u64());
/// assert_eq!(t.name, "frontend");
/// assert_eq!(t.priority, 200);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Human-readable name, used in metric keys (`qos.<name>.…`) and
    /// reports. Must be unique within a registry.
    pub name: String,
    /// Higher wins: eviction protection and degradation ordering.
    pub priority: u8,
    /// Fast-tier residency bound (shared pool + NVM + remote).
    pub quota: ByteSize,
    /// Optional p99 get-latency target for the closed-loop controller.
    pub slo_p99: Option<SimDuration>,
    /// Optional per-tenant fabric rate in bytes per virtual second.
    pub fabric_rate: Option<u64>,
}

impl TenantSpec {
    /// Creates a spec with no SLO and no fabric rate limit.
    pub fn new(name: impl Into<String>, priority: u8, quota: ByteSize) -> Self {
        TenantSpec {
            name: name.into(),
            priority,
            quota,
            slo_p99: None,
            fabric_rate: None,
        }
    }

    /// The implicit system tenant: unlimited quota, top priority, never
    /// throttled. All servers belong to it until assigned elsewhere, which
    /// is what keeps every pre-QoS caller byte-identical.
    pub(crate) fn system() -> Self {
        TenantSpec::new("system", u8::MAX, ByteSize::new(u64::MAX))
    }

    /// Sets the p99 get-latency SLO.
    pub fn with_slo_p99(mut self, target: SimDuration) -> Self {
        self.slo_p99 = Some(target);
        self
    }

    /// Sets the fabric token-bucket rate (bytes per virtual second).
    pub fn with_fabric_rate(mut self, bytes_per_sec: u64) -> Self {
        self.fabric_rate = Some(bytes_per_sec);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_tenant_is_unbounded_top_priority() {
        let s = TenantSpec::system();
        assert_eq!(s.priority, u8::MAX);
        assert_eq!(s.quota.as_u64(), u64::MAX);
        assert!(s.slo_p99.is_none());
        assert!(s.fabric_rate.is_none());
    }

    #[test]
    fn builders_compose() {
        let t = TenantSpec::new("t", 1, ByteSize::from_kib(4))
            .with_slo_p99(SimDuration::from_micros(10))
            .with_fabric_rate(1000);
        assert_eq!(t.slo_p99, Some(SimDuration::from_micros(10)));
        assert_eq!(t.fabric_rate, Some(1000));
    }
}
