//! Per-server donation accounting and ballooning (paper §IV-F).
//!
//! Each virtual server donates `x%` of its allocated memory to the node
//! shared pool. The fraction starts at the policy's `initial` value and a
//! balloon controller may move it within `[min, max]`: shrinking a
//! donation returns DRAM to a server under sustained pressure (policy (2)
//! of §IV-F); growing it enlarges the pool when the server has headroom.

use dmem_types::{ByteSize, DmemError, DmemResult, DonationPolicy, IdMap, ServerId};
use std::fmt;

#[derive(Debug, Clone)]
struct Donation {
    allocated: ByteSize,
    policy: DonationPolicy,
    fraction: f64,
}

/// Tracks every server's donation to one node's shared pool.
#[derive(Debug, Default)]
pub struct DonationRegistry {
    servers: IdMap<ServerId, Donation>,
}

impl DonationRegistry {
    /// Creates an empty registry.
    pub(crate) fn new() -> Self {
        DonationRegistry::default()
    }

    /// Registers a server with its allocated memory and donation policy.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] if the policy is invalid.
    pub(crate) fn register(
        &mut self,
        server: ServerId,
        allocated: ByteSize,
        policy: DonationPolicy,
    ) -> DmemResult<()> {
        policy.validate()?;
        self.servers.insert(
            server,
            Donation {
                allocated,
                policy,
                fraction: policy.initial,
            },
        );
        Ok(())
    }

    /// Removes a server (e.g. on failure); its donation leaves the pool.
    pub(crate) fn deregister(&mut self, server: ServerId) -> bool {
        self.servers.remove(&server).is_some()
    }

    /// The server's current donation in bytes.
    #[cfg(test)]
    pub(crate) fn donated(&self, server: ServerId) -> ByteSize {
        self.servers
            .get(&server)
            .map(|d| d.allocated.scaled(d.fraction))
            .unwrap_or(ByteSize::ZERO)
    }

    /// The server's current donation fraction, if registered.
    #[cfg(test)]
    pub(crate) fn fraction(&self, server: ServerId) -> Option<f64> {
        self.servers.get(&server).map(|d| d.fraction)
    }

    /// Sum of all donations: the shared pool's capacity.
    pub(crate) fn total_donated(&self) -> ByteSize {
        self.servers
            .values()
            .map(|d| d.allocated.scaled(d.fraction))
            .sum()
    }

    /// Number of registered servers.
    pub(crate) fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Moves the server's donation fraction by `delta` (positive grows the
    /// pool, negative balloons memory back to the server), clamped to the
    /// policy bounds. Returns the new fraction.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::ServerUnavailable`] for an unknown server.
    pub(crate) fn adjust(&mut self, server: ServerId, delta: f64) -> DmemResult<f64> {
        let d = self
            .servers
            .get_mut(&server)
            .ok_or(DmemError::ServerUnavailable(server))?;
        d.fraction = (d.fraction + delta).clamp(d.policy.min, d.policy.max);
        Ok(d.fraction)
    }

    /// Iterates over `(server, donated_bytes)` pairs in unspecified order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (ServerId, ByteSize)> + '_ {
        self.servers
            .iter()
            .map(|(s, d)| (*s, d.allocated.scaled(d.fraction)))
    }
}

impl fmt::Display for DonationRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} servers donating {}",
            self.server_count(),
            self.total_donated()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::NodeId;
    use proptest::prelude::*;

    fn server(i: u32) -> ServerId {
        ServerId::new(NodeId::new(0), i)
    }

    #[test]
    fn initial_donation_is_policy_initial() {
        let mut reg = DonationRegistry::new();
        reg.register(server(0), ByteSize::from_mib(100), DonationPolicy::paper_default())
            .unwrap();
        assert_eq!(reg.donated(server(0)), ByteSize::from_mib(100).scaled(0.10));
        assert_eq!(reg.fraction(server(0)), Some(0.10));
    }

    #[test]
    fn total_sums_servers() {
        let mut reg = DonationRegistry::new();
        for i in 0..4 {
            reg.register(server(i), ByteSize::from_mib(10), DonationPolicy::fixed(0.2))
                .unwrap();
        }
        assert_eq!(reg.total_donated(), ByteSize::from_mib(40).scaled(0.2));
        assert_eq!(reg.server_count(), 4);
    }

    #[test]
    fn adjust_clamps_to_policy() {
        let mut reg = DonationRegistry::new();
        reg.register(server(0), ByteSize::from_mib(100), DonationPolicy::paper_default())
            .unwrap();
        // Grow past max (0.40): clamped.
        assert_eq!(reg.adjust(server(0), 1.0).unwrap(), 0.40);
        // Shrink past min (0.0): clamped.
        assert_eq!(reg.adjust(server(0), -2.0).unwrap(), 0.0);
        assert_eq!(reg.donated(server(0)), ByteSize::ZERO);
    }

    #[test]
    fn fixed_policy_never_moves() {
        let mut reg = DonationRegistry::new();
        reg.register(server(1), ByteSize::from_mib(10), DonationPolicy::fixed(0.25))
            .unwrap();
        assert_eq!(reg.adjust(server(1), 0.1).unwrap(), 0.25);
        assert_eq!(reg.adjust(server(1), -0.1).unwrap(), 0.25);
    }

    #[test]
    fn deregister_removes_donation() {
        let mut reg = DonationRegistry::new();
        reg.register(server(0), ByteSize::from_mib(10), DonationPolicy::fixed(0.5))
            .unwrap();
        assert!(reg.deregister(server(0)));
        assert!(!reg.deregister(server(0)));
        assert_eq!(reg.total_donated(), ByteSize::ZERO);
        assert!(reg.fraction(server(0)).is_none());
    }

    #[test]
    fn unknown_server_adjust_fails() {
        let mut reg = DonationRegistry::new();
        assert!(matches!(
            reg.adjust(server(9), 0.1),
            Err(DmemError::ServerUnavailable(_))
        ));
    }

    #[test]
    fn invalid_policy_rejected() {
        let mut reg = DonationRegistry::new();
        let bad = DonationPolicy {
            initial: 0.5,
            min: 0.9,
            max: 1.0,
        };
        assert!(reg.register(server(0), ByteSize::from_mib(1), bad).is_err());
    }

    proptest! {
        #[test]
        fn prop_total_equals_sum_of_iter(
            allocs in proptest::collection::vec(1u64..1000, 1..10),
            fraction in 0.0f64..=1.0,
        ) {
            let mut reg = DonationRegistry::new();
            for (i, mib) in allocs.iter().enumerate() {
                reg.register(server(i as u32), ByteSize::from_mib(*mib), DonationPolicy::fixed(fraction)).unwrap();
            }
            let total: ByteSize = reg.iter().map(|(_, b)| b).sum();
            prop_assert_eq!(total, reg.total_donated());
        }

        #[test]
        fn prop_adjust_stays_in_bounds(deltas in proptest::collection::vec(-0.5f64..0.5, 1..20)) {
            let mut reg = DonationRegistry::new();
            reg.register(server(0), ByteSize::from_mib(64), DonationPolicy::paper_default()).unwrap();
            for delta in deltas {
                let f = reg.adjust(server(0), delta).unwrap();
                prop_assert!((0.0..=0.40).contains(&f));
            }
        }
    }
}
