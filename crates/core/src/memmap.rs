//! The per-server disaggregated memory map (paper §IV-C, §IV-G).
//!
//! "For each virtual server, the disaggregated memory system should
//! maintain a memory map which serves as a log table to track of where a
//! data entry is." Each map entry is an [`EntryRecord`]: location, sizes,
//! compression class, version and checksum.

use dmem_types::{EntryLocation, EntryRecord, IdMap, NodeId};
use std::fmt;

/// One virtual server's log table of data-entry locations.
#[derive(Debug, Default, Clone)]
pub struct MemoryMap {
    entries: IdMap<u64, EntryRecord>,
}

impl MemoryMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        MemoryMap::default()
    }

    /// Records (or replaces) the entry under `key`, bumping the version.
    pub fn upsert(&mut self, key: u64, mut record: EntryRecord) -> u64 {
        let version = self
            .entries
            .get(&key)
            .map(|r| r.version + 1)
            .unwrap_or(1);
        record.version = version;
        self.entries.insert(key, record);
        version
    }

    /// Moves the entry under `key` to `location`, bumping the version
    /// like an [`upsert`](Self::upsert) of the same record would.
    /// Returns `false` (changing nothing) when `key` is not tracked.
    pub(crate) fn set_location(&mut self, key: u64, location: EntryLocation) -> bool {
        let Some(record) = self.entries.get_mut(&key) else {
            return false;
        };
        record.location = location;
        record.version += 1;
        true
    }

    /// Looks up the record for `key`.
    pub fn get(&self, key: u64) -> Option<&EntryRecord> {
        self.entries.get(&key)
    }

    /// Removes the record for `key`.
    pub fn remove(&mut self, key: u64) -> Option<EntryRecord> {
        self.entries.remove(&key)
    }

    /// Number of tracked entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries are tracked.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, record)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &EntryRecord)> {
        self.entries.iter().map(|(k, r)| (*k, r))
    }

    /// Rewrites replica lists after an eviction migration: every remote
    /// record referencing `from` now references `to` instead. Returns how
    /// many records changed.
    pub fn relocate_replica(&mut self, key: u64, from: NodeId, to: NodeId) -> bool {
        if let Some(record) = self.entries.get_mut(&key) {
            if let EntryLocation::Remote { replicas } = &mut record.location {
                if let Some(slot) = replicas.iter().position(|&n| n == from) {
                    if replicas.contains(&to) {
                        // `to` is already listed — typically a node that
                        // crashed, lost its copy, and just got refilled by
                        // this migration. Collapse instead of duplicating;
                        // the repair scan restores the lost degree.
                        replicas.remove(slot);
                    } else {
                        replicas[slot] = to;
                    }
                    return true;
                }
            }
        }
        false
    }

    /// Counts entries by tier: `(node_shared, nvm, remote, cxl, disk)`.
    pub fn tier_census(&self) -> (usize, usize, usize, usize, usize) {
        let mut census = (0, 0, 0, 0, 0);
        for record in self.entries.values() {
            match record.location {
                EntryLocation::NodeShared { .. } => census.0 += 1,
                EntryLocation::Nvm => census.1 += 1,
                EntryLocation::Remote { .. } => census.2 += 1,
                EntryLocation::Cxl { .. } => census.3 += 1,
                EntryLocation::Disk => census.4 += 1,
            }
        }
        census
    }

    /// Approximate metadata footprint of this map in bytes, using the
    /// paper's §IV-C model of 8 bytes of location metadata per entry.
    pub fn metadata_bytes(&self) -> u64 {
        self.entries.len() as u64 * 8
    }
}

impl fmt::Display for MemoryMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (shared, nvm, remote, cxl, disk) = self.tier_census();
        write!(
            f,
            "map: {} entries ({shared} shared, {nvm} nvm, {remote} remote, {cxl} cxl, {disk} disk)",
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::{SizeClass, SlabId};

    fn record(location: EntryLocation) -> EntryRecord {
        EntryRecord {
            location,
            len: 4096,
            stored_len: 1024,
            class: Some(SizeClass::C1K),
            version: 0,
            checksum: 7,
        }
    }

    #[test]
    fn upsert_bumps_version() {
        let mut map = MemoryMap::new();
        let v1 = map.upsert(1, record(EntryLocation::Disk));
        let v2 = map.upsert(1, record(EntryLocation::Disk));
        assert_eq!((v1, v2), (1, 2));
        assert_eq!(map.get(1).unwrap().version, 2);
        assert!(map.set_location(1, EntryLocation::Nvm));
        assert!(!map.set_location(2, EntryLocation::Nvm));
        let moved = map.get(1).unwrap();
        assert_eq!((moved.version, moved.location.is_nvm()), (3, true));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn census_counts_tiers() {
        let mut map = MemoryMap::new();
        map.upsert(
            1,
            record(EntryLocation::NodeShared {
                slab: SlabId::new(1),
                offset: 0,
            }),
        );
        map.upsert(
            2,
            record(EntryLocation::Remote {
                replicas: vec![NodeId::new(1)],
            }),
        );
        map.upsert(3, record(EntryLocation::Disk));
        map.upsert(4, record(EntryLocation::Nvm));
        map.upsert(5, record(EntryLocation::Cxl { addr: 0x40 }));
        assert_eq!(map.tier_census(), (1, 1, 1, 1, 1));
        assert!(!map.to_string().is_empty());
    }

    #[test]
    fn relocate_replica_rewrites_one_slot() {
        let mut map = MemoryMap::new();
        map.upsert(
            5,
            record(EntryLocation::Remote {
                replicas: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            }),
        );
        assert!(map.relocate_replica(5, NodeId::new(2), NodeId::new(7)));
        match &map.get(5).unwrap().location {
            EntryLocation::Remote { replicas } => {
                assert_eq!(replicas, &vec![NodeId::new(1), NodeId::new(7), NodeId::new(3)]);
            }
            other => panic!("unexpected location {other:?}"),
        }
        // Unknown key or host: no-op.
        assert!(!map.relocate_replica(5, NodeId::new(2), NodeId::new(8)));
        assert!(!map.relocate_replica(99, NodeId::new(1), NodeId::new(8)));
    }

    #[test]
    fn relocate_replica_never_duplicates_destination() {
        let mut map = MemoryMap::new();
        map.upsert(
            5,
            record(EntryLocation::Remote {
                replicas: vec![NodeId::new(1), NodeId::new(2), NodeId::new(3)],
            }),
        );
        // Migrating node-2's copy onto node-3 (already listed) must
        // collapse the slot, not list node-3 twice.
        assert!(map.relocate_replica(5, NodeId::new(2), NodeId::new(3)));
        match &map.get(5).unwrap().location {
            EntryLocation::Remote { replicas } => {
                assert_eq!(replicas, &vec![NodeId::new(1), NodeId::new(3)]);
            }
            other => panic!("unexpected location {other:?}"),
        }
    }

    #[test]
    fn metadata_footprint_model() {
        let mut map = MemoryMap::new();
        for k in 0..1000 {
            map.upsert(k, record(EntryLocation::Disk));
        }
        assert_eq!(map.metadata_bytes(), 8000);
    }

    #[test]
    fn remove_and_empty() {
        let mut map = MemoryMap::new();
        assert!(map.is_empty());
        map.upsert(1, record(EntryLocation::Disk));
        assert_eq!(map.len(), 1);
        assert!(map.remove(1).is_some());
        assert!(map.remove(1).is_none());
        assert!(map.is_empty());
    }
}
