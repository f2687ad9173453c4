//! Leader election (paper §IV-C).
//!
//! Each group periodically elects the member that "meets certain
//! constraints … such as the one with the maximum available memory"; if
//! its handshake times out, a new election is triggered. In the paper the
//! leader answers placement consultations. Here no placement path
//! consults it: `DisaggregatedMemory::group_leader` exposes the election,
//! and only tests call that.

use crate::group::GroupTable;
use crate::membership::ClusterMembership;
use dmem_sim::{SimClock, SimDuration, SimInstant};
use dmem_types::{DmemError, DmemResult, GroupId, IdMap, NodeId};
use parking_lot::Mutex;
use std::fmt;

#[derive(Debug, Clone, Copy)]
struct LeaderState {
    leader: NodeId,
    last_heartbeat: SimInstant,
}

/// Per-group leader election with heartbeat timeouts.
pub struct LeaderElection {
    membership: ClusterMembership,
    clock: SimClock,
    timeout: SimDuration,
    leaders: Mutex<IdMap<GroupId, LeaderState>>,
    elections_run: Mutex<u64>,
}

impl LeaderElection {
    /// Creates an election service whose leaders expire after `timeout`
    /// without a heartbeat.
    pub fn new(membership: ClusterMembership, clock: SimClock, timeout: SimDuration) -> Self {
        LeaderElection {
            membership,
            clock,
            timeout,
            leaders: Mutex::new(IdMap::default()),
            elections_run: Mutex::new(0),
        }
    }

    /// The current leader of `group`, electing one if none exists, the
    /// incumbent died, or its heartbeat timed out.
    ///
    /// The election picks the alive group member advertising the most
    /// free memory (ties broken by lowest node id, for determinism).
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NoLeader`] when every member is down.
    pub fn leader(&self, groups: &GroupTable, group: GroupId) -> DmemResult<NodeId> {
        let now = self.clock.now();
        let mut leaders = self.leaders.lock();
        if let Some(state) = leaders.get(&group) {
            let expired = now - state.last_heartbeat > self.timeout;
            if !expired && self.membership.is_alive(state.leader) {
                return Ok(state.leader);
            }
        }
        // (Re-)elect: maximum advertised free memory among alive members.
        let winner = groups
            .members(group)
            .iter()
            .copied()
            .filter(|&n| self.membership.is_alive(n))
            .max_by_key(|&n| (self.membership.free_of(n), std::cmp::Reverse(n)))
            .ok_or(DmemError::NoLeader)?;
        leaders.insert(
            group,
            LeaderState {
                leader: winner,
                last_heartbeat: now,
            },
        );
        *self.elections_run.lock() += 1;
        Ok(winner)
    }

    /// Records a successful handshake with the group's leader, extending
    /// its term.
    pub fn heartbeat(&self, group: GroupId) {
        let now = self.clock.now();
        if let Some(state) = self.leaders.lock().get_mut(&group) {
            state.last_heartbeat = now;
        }
    }

    /// Total elections run (first elections and re-elections).
    pub fn elections_run(&self) -> u64 {
        *self.elections_run.lock()
    }

    /// The configured heartbeat timeout.
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }
}

impl fmt::Debug for LeaderElection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeaderElection")
            .field("timeout", &self.timeout)
            .field("elections_run", &self.elections_run())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{FailureEvent, FailureInjector};
    use dmem_types::ByteSize;

    fn setup(n: u32) -> (SimClock, FailureInjector, ClusterMembership, GroupTable, LeaderElection) {
        let clock = SimClock::new();
        let failures = FailureInjector::new(clock.clone());
        let nodes: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        let membership = ClusterMembership::new(nodes.clone(), failures.clone());
        let groups = GroupTable::partition(&nodes, n as usize).unwrap();
        let election = LeaderElection::new(
            membership.clone(),
            clock.clone(),
            SimDuration::from_millis(10),
        );
        (clock, failures, membership, groups, election)
    }

    #[test]
    fn elects_max_free_memory() {
        let (_, _, membership, groups, election) = setup(4);
        membership.advertise_free(NodeId::new(2), ByteSize::from_mib(10));
        membership.advertise_free(NodeId::new(1), ByteSize::from_mib(5));
        let leader = election.leader(&groups, GroupId::new(0)).unwrap();
        assert_eq!(leader, NodeId::new(2));
        assert_eq!(election.elections_run(), 1);
    }

    #[test]
    fn leader_is_sticky_while_alive() {
        let (_, _, membership, groups, election) = setup(4);
        membership.advertise_free(NodeId::new(1), ByteSize::from_mib(10));
        let first = election.leader(&groups, GroupId::new(0)).unwrap();
        // A new node advertising more memory does not depose the leader
        // mid-term.
        membership.advertise_free(NodeId::new(3), ByteSize::from_mib(99));
        election.heartbeat(GroupId::new(0));
        assert_eq!(election.leader(&groups, GroupId::new(0)).unwrap(), first);
        assert_eq!(election.elections_run(), 1);
    }

    #[test]
    fn crash_triggers_reelection() {
        let (_, failures, membership, groups, election) = setup(4);
        membership.advertise_free(NodeId::new(0), ByteSize::from_mib(10));
        let first = election.leader(&groups, GroupId::new(0)).unwrap();
        assert_eq!(first, NodeId::new(0));
        failures.inject_now(FailureEvent::NodeDown(first));
        membership.advertise_free(NodeId::new(3), ByteSize::from_mib(8));
        let second = election.leader(&groups, GroupId::new(0)).unwrap();
        assert_eq!(second, NodeId::new(3));
        assert_eq!(election.elections_run(), 2);
    }

    #[test]
    fn heartbeat_timeout_triggers_reelection() {
        let (clock, _, membership, groups, election) = setup(4);
        membership.advertise_free(NodeId::new(0), ByteSize::from_mib(10));
        let _ = election.leader(&groups, GroupId::new(0)).unwrap();
        clock.advance(SimDuration::from_millis(11));
        // No heartbeat arrived inside the timeout: re-election happens
        // (the same node may win again, but an election is counted).
        let _ = election.leader(&groups, GroupId::new(0)).unwrap();
        assert_eq!(election.elections_run(), 2);
    }

    #[test]
    fn all_members_down_means_no_leader() {
        let (_, failures, _, groups, election) = setup(2);
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(0)));
        failures.inject_now(FailureEvent::NodeDown(NodeId::new(1)));
        assert_eq!(
            election.leader(&groups, GroupId::new(0)),
            Err(DmemError::NoLeader)
        );
    }

    #[test]
    fn deterministic_tiebreak_by_lowest_id() {
        let (_, _, _, groups, election) = setup(4);
        // Nobody advertised: all free = 0; lowest id wins.
        assert_eq!(
            election.leader(&groups, GroupId::new(0)).unwrap(),
            NodeId::new(0)
        );
    }
}
