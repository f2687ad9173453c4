//! Integrity on every tier: a stored copy that differs from what was put
//! by a single byte is reported as `Corrupt` under the entry's own id, by
//! `get` and by `get_batch`, and never disturbs its neighbours.
//!
//! The stored copy is overwritten through the tier's public handle, the
//! way a bit-rotted device or a stray write would, so the test sees
//! exactly what the read path sees.

use memory_disaggregation::net::CxlAddr;
use memory_disaggregation::prelude::*;
use memory_disaggregation::types::{
    CxlPoolConfig, EntryId, EntryLocation, EntryRecord, NodeConfig,
};

const TIERS: [TierPreference; 5] = [
    TierPreference::NodeShared,
    TierPreference::Cxl,
    TierPreference::Nvm,
    TierPreference::Remote,
    TierPreference::Disk,
];
const SIZES: [usize; 3] = [64, 4096, 65536];

/// A cluster in which every tier exists and has room for the matrix.
fn cluster(compression: CompressionMode) -> DisaggregatedMemory {
    let config = ClusterConfig {
        node: NodeConfig {
            recv_pool: ByteSize::from_mib(4),
            nvm_pool: ByteSize::from_mib(4),
            ..NodeConfig::default()
        },
        compression,
        cxl: CxlPoolConfig::new(2, ByteSize::from_mib(4)),
        ..ClusterConfig::small()
    };
    DisaggregatedMemory::new(config).expect("valid config")
}

/// `len` bytes that differ per key and that the LZ codec shrinks: a
/// keyed counter every fourth byte between runs of one filler byte.
fn payload(key: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| {
            if i % 4 == 0 {
                (i / 4) as u8 ^ key as u8
            } else {
                0x5a
            }
        })
        .collect()
}

fn same_tier(location: &EntryLocation, pref: TierPreference, len: usize) -> bool {
    match (pref, location) {
        // The shared pool holds page-sized blocks; larger entries take
        // the preference's documented spill to disk.
        (TierPreference::NodeShared, EntryLocation::Disk) => len > 4096,
        (TierPreference::NodeShared, EntryLocation::NodeShared { .. })
        | (TierPreference::Cxl, EntryLocation::Cxl { .. })
        | (TierPreference::Nvm, EntryLocation::Nvm)
        | (TierPreference::Remote, EntryLocation::Remote { .. })
        | (TierPreference::Disk, EntryLocation::Disk) => true,
        _ => false,
    }
}

/// Reads the stored copy of `entry` straight from the tier holding it.
fn stored_copy(dm: &DisaggregatedMemory, entry: EntryId, record: &EntryRecord) -> Vec<u8> {
    let node = entry.owner().node();
    match &record.location {
        EntryLocation::NodeShared { .. } => dm.node_manager(node).get(entry),
        EntryLocation::Cxl { addr } => dm
            .cxl_pool()
            .expect("the matrix cluster has a pool")
            .load(CxlAddr::from_raw(*addr)),
        EntryLocation::Nvm => dm.nvm_tier().load(node, entry),
        EntryLocation::Remote { replicas } => dm.remote_store().load(node, replicas[0], entry),
        EntryLocation::Disk => dm.disk_tier().load(node, entry),
    }
    .expect("the tier holds the entry")
}

/// Overwrites every stored copy of `entry` with `bytes`.
fn overwrite(dm: &DisaggregatedMemory, entry: EntryId, record: &EntryRecord, bytes: Vec<u8>) {
    let node = entry.owner().node();
    match &record.location {
        EntryLocation::NodeShared { .. } => {
            let manager = dm.node_manager(node);
            let class = manager.class_of(entry).expect("resident");
            manager.put(entry, &bytes, class).expect("same class fits");
        }
        EntryLocation::Cxl { addr } => dm
            .cxl_pool()
            .expect("the matrix cluster has a pool")
            .store(CxlAddr::from_raw(*addr), &bytes)
            .expect("same length fits the block"),
        EntryLocation::Nvm => dm.nvm_tier().store(node, entry, bytes),
        EntryLocation::Remote { replicas } => {
            for &replica in replicas {
                dm.remote_store()
                    .store(node, replica, entry, &bytes)
                    .expect("same length fits the freed extent");
            }
        }
        EntryLocation::Disk => dm.disk_tier().store(node, entry, bytes),
    }
}

#[test]
fn one_wrong_byte_is_corrupt_on_every_tier_size_and_mode() {
    for compression in [CompressionMode::Off, CompressionMode::FourGranularity] {
        let dm = cluster(compression);
        let server = dm.servers()[0];
        let mut next_key = 0u64;
        for pref in TIERS {
            for len in SIZES {
                let case = format!("{pref:?}/{len} B/{compression:?}");
                let keys = [next_key, next_key + 1, next_key + 2];
                next_key += 3;
                for key in keys {
                    dm.put_pref(server, key, payload(key, len), pref).unwrap();
                }
                let victim = EntryId::new(server, keys[1]);
                let record = dm.record(server, keys[1]).expect("just put");
                assert!(
                    same_tier(&record.location, pref, len),
                    "{case}: landed in {:?}",
                    record.location
                );
                if compression != CompressionMode::Off && len <= 4096 {
                    assert!(record.class.is_some(), "{case}: stored compressed");
                }

                // Byte 1 is payload in a raw copy and the first literal
                // in an LZ stream, so the copy stays well-formed and
                // differs from the original by one byte.
                let mut bad = stored_copy(&dm, victim, &record);
                assert_eq!(bad.len() as u64, record.stored_len, "{case}");
                bad[1] ^= 0x01;
                overwrite(&dm, victim, &record, bad);

                match dm.get(server, keys[1]) {
                    Err(DmemError::Corrupt(id)) => assert_eq!(id, victim, "{case}: get"),
                    other => panic!("{case}: get returned {other:?}"),
                }
                match dm.get_batch(server, &keys) {
                    Err(DmemError::Corrupt(id)) => assert_eq!(id, victim, "{case}: get_batch"),
                    other => panic!("{case}: get_batch returned {:?}", other.map(|v| v.len())),
                }
                for key in [keys[0], keys[2]] {
                    assert_eq!(dm.get(server, key).unwrap(), payload(key, len), "{case}");
                }
                assert_eq!(
                    dm.get_batch(server, &[keys[0], keys[2]]).unwrap(),
                    vec![payload(keys[0], len), payload(keys[2], len)],
                    "{case}: neighbours in a batch"
                );
            }
        }
    }
}
