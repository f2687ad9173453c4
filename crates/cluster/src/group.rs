//! Hierarchical group sharing (paper §IV-C).
//!
//! A flat cluster-wide disaggregated memory map does not scale: the paper
//! works the arithmetic — 8 bytes of location metadata per 4 KiB entry
//! means 5 GB of map per node for 2 TB of cluster memory, 25 GB for 10 TB.
//! The remedy is to partition nodes into groups of similar size; nodes
//! share disaggregated memory only within their group, bounding each map
//! to the group's memory. [`map_overhead_bytes`] reproduces the
//! arithmetic; [`GroupTable`] implements the partitioning.

use dmem_types::{ByteSize, DmemError, DmemResult, GroupId, IdMap, NodeId};
use std::fmt;

/// Metadata bytes a node must hold to track `disaggregated` bytes of
/// shareable memory at `entry_size` granularity with `bytes_per_entry` of
/// location metadata.
///
/// # Examples
///
/// Reproducing §IV-C's arithmetic — 2 TB of cluster memory in 4 KiB
/// entries at 8 B of metadata each costs ~4 GiB (the paper rounds to
/// "5 GB"):
///
/// ```
/// use dmem_cluster::map_overhead_bytes;
/// use dmem_types::ByteSize;
///
/// let map = map_overhead_bytes(ByteSize::from_gib(2048), 4096, 8);
/// assert_eq!(map, ByteSize::from_gib(4));
/// ```
pub fn map_overhead_bytes(
    disaggregated: ByteSize,
    entry_size: usize,
    bytes_per_entry: u64,
) -> ByteSize {
    ByteSize::new(disaggregated.pages(entry_size) * bytes_per_entry)
}

/// A partition of the cluster's nodes into sharing groups.
#[derive(Debug, Clone)]
pub struct GroupTable {
    groups: IdMap<GroupId, Vec<NodeId>>,
    node_to_group: IdMap<NodeId, GroupId>,
    target_size: usize,
}

impl GroupTable {
    /// Partitions `nodes` into contiguous groups of `target_size` (the
    /// last group may be smaller, but never less than half the target when
    /// it can instead be merged into its predecessor — "groups of similar
    /// number of nodes").
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::InvalidConfig`] if `target_size` is zero or
    /// `nodes` is empty.
    pub fn partition(nodes: &[NodeId], target_size: usize) -> DmemResult<Self> {
        if target_size == 0 {
            return Err(DmemError::InvalidConfig {
                reason: "group size must be at least 1".into(),
            });
        }
        if nodes.is_empty() {
            return Err(DmemError::InvalidConfig {
                reason: "cannot group an empty node set".into(),
            });
        }
        let mut groups: IdMap<GroupId, Vec<NodeId>> = IdMap::default();
        let mut node_to_group = IdMap::default();
        let mut chunks: Vec<Vec<NodeId>> =
            nodes.chunks(target_size).map(|c| c.to_vec()).collect();
        // Merge an undersized trailing group into its predecessor.
        if chunks.len() >= 2 {
            let last_len = chunks.last().expect("nonempty").len();
            if last_len * 2 < target_size {
                let tail = chunks.pop().expect("nonempty");
                chunks.last_mut().expect("nonempty").extend(tail);
            }
        }
        for (i, members) in chunks.into_iter().enumerate() {
            let gid = GroupId::new(i as u32);
            for &n in &members {
                node_to_group.insert(n, gid);
            }
            groups.insert(gid, members);
        }
        Ok(GroupTable {
            groups,
            node_to_group,
            target_size,
        })
    }

    /// The group containing `node`.
    ///
    /// # Errors
    ///
    /// Returns [`DmemError::NodeUnavailable`] for unknown nodes.
    pub fn group_of(&self, node: NodeId) -> DmemResult<GroupId> {
        self.node_to_group
            .get(&node)
            .copied()
            .ok_or(DmemError::NodeUnavailable(node))
    }

    /// Members of `group`, in partition order; empty for unknown groups.
    pub fn members(&self, group: GroupId) -> &[NodeId] {
        self.groups.get(&group).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Peers of `node`: the other members of its group. Nodes outside the
    /// group cannot share this node's disaggregated memory directly.
    pub fn peers(&self, node: NodeId) -> DmemResult<Vec<NodeId>> {
        let gid = self.group_of(node)?;
        Ok(self
            .members(gid)
            .iter()
            .copied()
            .filter(|&n| n != node)
            .collect())
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Worst-case per-node memory-map overhead under this grouping,
    /// assuming every node contributes `per_node_memory` of shareable
    /// disaggregated memory tracked at 4 KiB granularity with 8-byte
    /// metadata (the §IV-C model).
    pub fn per_node_map_overhead(&self, per_node_memory: ByteSize) -> ByteSize {
        let largest = self
            .groups
            .values()
            .map(Vec::len)
            .max()
            .unwrap_or(0) as u64;
        map_overhead_bytes(per_node_memory * largest, 4096, 8)
    }
}

impl fmt::Display for GroupTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} groups (target size {})",
            self.group_count(),
            self.target_size
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId::new).collect()
    }

    /// `partition` numbers its groups from zero.
    fn group_ids(table: &GroupTable) -> impl Iterator<Item = GroupId> {
        (0..table.group_count() as u32).map(GroupId::new)
    }

    #[test]
    fn partitions_evenly() {
        let table = GroupTable::partition(&nodes(32), 8).unwrap();
        assert_eq!(table.group_count(), 4);
        for gid in group_ids(&table) {
            assert_eq!(table.members(gid).len(), 8);
        }
    }

    #[test]
    fn small_tail_merges() {
        // 9 nodes at target 8: tail of 1 is < 8/2, merges -> one group of 9.
        let table = GroupTable::partition(&nodes(9), 8).unwrap();
        assert_eq!(table.group_count(), 1);
        assert_eq!(table.members(GroupId::new(0)).len(), 9);
        // 12 nodes at target 8: tail of 4 >= 8/2, stays separate.
        let table = GroupTable::partition(&nodes(12), 8).unwrap();
        assert_eq!(table.group_count(), 2);
    }

    #[test]
    fn peers_are_group_local() {
        let table = GroupTable::partition(&nodes(8), 4).unwrap();
        let peers = table.peers(NodeId::new(1)).unwrap();
        assert_eq!(peers, vec![NodeId::new(0), NodeId::new(2), NodeId::new(3)]);
        // Node 5 is in the other group.
        assert!(!peers.contains(&NodeId::new(5)));
    }

    #[test]
    fn unknown_node_errors() {
        let table = GroupTable::partition(&nodes(4), 2).unwrap();
        assert!(table.group_of(NodeId::new(77)).is_err());
        assert!(table.peers(NodeId::new(77)).is_err());
    }

    #[test]
    fn paper_map_arithmetic() {
        // §IV-C: 2 TB cluster memory, 4 KiB entries, 8 B metadata -> "5 GB"
        // (exactly 4 GiB); 10 TB -> "25 GB" (exactly 20 GiB).
        assert_eq!(
            map_overhead_bytes(ByteSize::from_gib(2 * 1024), 4096, 8),
            ByteSize::from_gib(4)
        );
        assert_eq!(
            map_overhead_bytes(ByteSize::from_gib(10 * 1024), 4096, 8),
            ByteSize::from_gib(20)
        );
    }

    #[test]
    fn grouping_caps_map_overhead() {
        // The §IV-C scalability argument: grouping 32 nodes of 64 GiB into
        // groups of 8 divides each node's map overhead by 4.
        let flat = GroupTable::partition(&nodes(32), 32).unwrap();
        let grouped = GroupTable::partition(&nodes(32), 8).unwrap();
        let per_node = ByteSize::from_gib(64);
        let flat_map = flat.per_node_map_overhead(per_node);
        let grouped_map = grouped.per_node_map_overhead(per_node);
        assert_eq!(flat_map / grouped_map, 4);
    }

    proptest! {
        #[test]
        fn prop_partition_covers_all_nodes(n in 1u32..100, size in 1usize..20) {
            let ns = nodes(n);
            let table = GroupTable::partition(&ns, size).unwrap();
            let mut covered: Vec<NodeId> = group_ids(&table)
                .flat_map(|g| table.members(g).to_vec())
                .collect();
            covered.sort_unstable();
            prop_assert_eq!(covered, ns.clone());
            for node in ns {
                let gid = table.group_of(node).unwrap();
                prop_assert!(table.members(gid).contains(&node));
            }
        }

        #[test]
        fn prop_groups_of_similar_size(n in 2u32..100, size in 2usize..16) {
            let table = GroupTable::partition(&nodes(n), size).unwrap();
            for gid in group_ids(&table) {
                let len = table.members(gid).len();
                prop_assert!(len >= size / 2 || table.group_count() == 1,
                    "group {gid} of {len} too small for target {size}");
                prop_assert!(len < size * 2, "group {gid} of {len} too large");
            }
        }
    }
}
