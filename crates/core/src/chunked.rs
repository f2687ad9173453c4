//! Chunked storage of large values.
//!
//! The node shared pool stores page-sized blocks (its slab classes top out
//! at 4 KiB), so values larger than a page are split into page chunks and
//! stored under derived keys. Client systems (the KV cache, DAHI) use this
//! helper so a multi-megabyte value still enjoys the full tiering path —
//! chunks that fit the shared pool stay at DRAM speed, the rest overflow
//! in one batched remote write.
//!
//! Key derivation reserves the low [`CHUNK_BITS`] bits of the key space
//! for the chunk index: callers must allocate base keys at multiples of
//! [`MAX_CHUNKS`].

use crate::system::{DisaggregatedMemory, TierPreference};
use dmem_types::{DmemError, DmemResult, EntryId, ServerId, PAGE_SIZE};

/// Bits of the key reserved for the chunk index.
pub const CHUNK_BITS: u32 = 12;
/// Maximum chunks (and therefore `4 KiB × 4096 = 16 MiB` max value size).
pub(crate) const MAX_CHUNKS: u64 = 1 << CHUNK_BITS;

fn chunk_key(base: u64, index: u64) -> u64 {
    (base << CHUNK_BITS) | index
}

/// Rejects a value too long for [`MAX_CHUNKS`] chunks.
fn check_len(data: &[u8]) -> DmemResult<()> {
    if (data.len() + 8).div_ceil(PAGE_SIZE) as u64 >= MAX_CHUNKS {
        return Err(DmemError::InvalidConfig {
            reason: format!(
                "value of {} bytes exceeds chunked capacity ({} chunks max)",
                data.len(),
                MAX_CHUNKS
            ),
        });
    }
    Ok(())
}

/// Frames a checked value for storage under `base`: its byte length, then
/// the payload, cut into page-sized chunks under derived keys. The length
/// rides in chunk 0 so loads need no out-of-band metadata.
fn frame(base: u64, data: &[u8]) -> Vec<(u64, Vec<u8>)> {
    let mut framed = Vec::with_capacity(8 + data.len());
    framed.extend_from_slice(&(data.len() as u64).to_le_bytes());
    framed.extend_from_slice(data);
    framed
        .chunks(PAGE_SIZE)
        .enumerate()
        .map(|(i, c)| (chunk_key(base, i as u64), c.to_vec()))
        .collect()
}

/// Overwriting with a shorter value: drops the stale chunks past the
/// `chunks` the new value occupies.
fn drop_stale_tail(dm: &DisaggregatedMemory, server: ServerId, base: u64, chunks: u64) {
    for index in chunks..MAX_CHUNKS {
        if dm.delete(server, chunk_key(base, index)).is_err() {
            break;
        }
    }
}

fn corrupt(server: ServerId, base: u64) -> DmemError {
    DmemError::Corrupt(EntryId::new(server, chunk_key(base, 0)))
}

/// The value length that `framed` — chunk 0, alone or with the chunks
/// after it — declares in its header.
fn declared_len(server: ServerId, base: u64, framed: &[u8]) -> DmemResult<usize> {
    let header = framed.get(..8).ok_or_else(|| corrupt(server, base))?;
    Ok(u64::from_le_bytes(header.try_into().expect("8 bytes")) as usize)
}

/// The keys of the chunks after chunk 0 of a `len`-byte value.
fn tail_keys(base: u64, len: usize) -> impl Iterator<Item = u64> {
    let chunks = (len + 8).div_ceil(PAGE_SIZE) as u64;
    (1..chunks).map(move |i| chunk_key(base, i))
}

/// Strips the length header off a value's concatenated chunks, checking
/// that every byte it declares is there.
fn unframe(server: ServerId, base: u64, mut framed: Vec<u8>) -> DmemResult<Vec<u8>> {
    let len = declared_len(server, base, &framed)?;
    if framed.len() < len + 8 {
        return Err(corrupt(server, base));
    }
    framed.drain(..8);
    framed.truncate(len);
    Ok(framed)
}

/// Stores `data` under `base` as page-sized chunks, the first led by the
/// value's length.
///
/// # Errors
///
/// Returns [`DmemError::InvalidConfig`] when the value exceeds the
/// chunked capacity, and propagates tier errors.
pub fn store_chunked(
    dm: &DisaggregatedMemory,
    server: ServerId,
    base: u64,
    data: &[u8],
    pref: TierPreference,
) -> DmemResult<()> {
    check_len(data)?;
    let batch = frame(base, data);
    let chunks = batch.len() as u64;
    dm.put_batch(server, batch, pref)?;
    drop_stale_tail(dm, server, base, chunks);
    Ok(())
}

/// Loads a value stored by [`store_chunked`].
///
/// # Errors
///
/// Returns [`DmemError::EntryNotFound`] for unknown keys and
/// [`DmemError::Corrupt`] when the stored length frame is inconsistent.
pub fn load_chunked(
    dm: &DisaggregatedMemory,
    server: ServerId,
    base: u64,
) -> DmemResult<Vec<u8>> {
    let mut framed = dm.get(server, chunk_key(base, 0))?;
    let len = declared_len(server, base, &framed)?;
    let keys: Vec<u64> = tail_keys(base, len).collect();
    if !keys.is_empty() {
        for part in dm.get_batch(server, &keys)? {
            framed.extend_from_slice(&part);
        }
    }
    unframe(server, base, framed)
}

/// Upper bound on chunks per [`store_chunked_many`] window.
///
/// A batched put stores the whole window under one replica set, so a
/// window must stay small enough for a single replica group to host it;
/// oversized windows would trip the wholesale disk fallback and defeat
/// the point of coalescing.
pub(crate) const STORE_WINDOW_CHUNKS: usize = 32;

/// Stores several values in coalesced batches: all chunks of all values
/// are gathered into windows of at most [`STORE_WINDOW_CHUNKS`] pages and
/// each window moves in **one** `put_batch` — one replica handshake and
/// one batched fabric write per window instead of one per value. This is
/// the chunked-storage analogue of core `get_batch`'s per-host verb
/// coalescing, and the data path behind [`KvCache`] demotion bursts and
/// the tiered KV engine's conversation spills.
///
/// Bases must be distinct; values follow [`store_chunked`] framing, so
/// the two stores are interchangeable per key.
///
/// # Errors
///
/// Returns [`DmemError::InvalidConfig`] when any value exceeds the
/// chunked capacity, and propagates tier errors.
///
/// [`KvCache`]: https://docs.rs/dmem-kv
pub fn store_chunked_many(
    dm: &DisaggregatedMemory,
    server: ServerId,
    items: &[(u64, &[u8])],
    pref: TierPreference,
) -> DmemResult<()> {
    // Validate sizes up front so no window lands before the error.
    for (_, data) in items {
        check_len(data)?;
    }
    let mut window: Vec<(u64, Vec<u8>)> = Vec::with_capacity(STORE_WINDOW_CHUNKS);
    for &(base, data) in items {
        let batch = frame(base, data);
        let chunks = batch.len() as u64;
        for chunk in batch {
            window.push(chunk);
            if window.len() >= STORE_WINDOW_CHUNKS {
                dm.put_batch(server, std::mem::take(&mut window), pref)?;
            }
        }
        drop_stale_tail(dm, server, base, chunks);
    }
    if !window.is_empty() {
        dm.put_batch(server, window, pref)?;
    }
    Ok(())
}

/// Loads several chunked values with coalesced fetches: one `get_batch`
/// for every value's length chunk, then one `get_batch` for all remaining
/// chunks of all values — two batched rounds (each grouped per host by
/// the core) instead of `2 × n` point lookups.
///
/// Results are returned in `bases` order.
///
/// # Errors
///
/// Fails on the first unknown or corrupt value, with no partial results
/// (the [`get_batch`](DisaggregatedMemory::get_batch) contract).
pub fn load_chunked_many(
    dm: &DisaggregatedMemory,
    server: ServerId,
    bases: &[u64],
) -> DmemResult<Vec<Vec<u8>>> {
    if bases.is_empty() {
        return Ok(Vec::new());
    }
    let first_keys: Vec<u64> = bases.iter().map(|&b| chunk_key(b, 0)).collect();
    let mut framed = dm.get_batch(server, &first_keys)?;
    let mut keys: Vec<u64> = Vec::new();
    let mut owners: Vec<usize> = Vec::new();
    for (i, (&base, first)) in bases.iter().zip(&framed).enumerate() {
        for key in tail_keys(base, declared_len(server, base, first)?) {
            keys.push(key);
            owners.push(i);
        }
    }
    if !keys.is_empty() {
        let tails = dm.get_batch(server, &keys)?;
        for (owner, part) in owners.into_iter().zip(tails) {
            framed[owner].extend_from_slice(&part);
        }
    }
    bases
        .iter()
        .zip(framed)
        .map(|(&base, framed)| unframe(server, base, framed))
        .collect()
}

/// The storage tier currently holding a chunked value's length chunk, or
/// `None` when the value is absent. Clients that track per-tier byte
/// budgets (the tiered KV engine) use this to learn where a batched store
/// actually landed — QoS admission may have degraded it to disk.
pub fn tier_of(
    dm: &DisaggregatedMemory,
    server: ServerId,
    base: u64,
) -> Option<dmem_types::EntryLocation> {
    dm.record(server, chunk_key(base, 0)).map(|r| r.location)
}

/// Deletes a chunked value. Returns the number of chunks removed (0 when
/// the key was absent).
pub fn delete_chunked(dm: &DisaggregatedMemory, server: ServerId, base: u64) -> usize {
    let mut removed = 0;
    for index in 0..MAX_CHUNKS {
        if dm.delete(server, chunk_key(base, index)).is_ok() {
            removed += 1;
        } else {
            break;
        }
    }
    removed
}

/// `true` if a chunked value exists under `base`.
pub fn contains_chunked(dm: &DisaggregatedMemory, server: ServerId, base: u64) -> bool {
    dm.record(server, chunk_key(base, 0)).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::ClusterConfig;

    fn system() -> (DisaggregatedMemory, ServerId) {
        let dm = DisaggregatedMemory::new(ClusterConfig::small()).unwrap();
        let server = dm.servers()[0];
        (dm, server)
    }

    #[test]
    fn small_value_roundtrip() {
        let (dm, server) = system();
        store_chunked(&dm, server, 1, b"hello", TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 1).unwrap(), b"hello");
        assert!(contains_chunked(&dm, server, 1));
    }

    #[test]
    fn empty_value_roundtrip() {
        let (dm, server) = system();
        store_chunked(&dm, server, 2, b"", TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 2).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn multi_chunk_roundtrip() {
        let (dm, server) = system();
        let value: Vec<u8> = (0..20_000u32).map(|i| i as u8).collect();
        store_chunked(&dm, server, 3, &value, TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 3).unwrap(), value);
        // 20008 framed bytes → 5 chunks.
        assert_eq!(dm.stats().entries, 5);
    }

    #[test]
    fn exact_page_boundaries() {
        let (dm, server) = system();
        for (base, len) in [(4u64, PAGE_SIZE - 8), (5, PAGE_SIZE), (6, 2 * PAGE_SIZE - 8)] {
            let value = vec![0xAB; len];
            store_chunked(&dm, server, base, &value, TierPreference::Auto).unwrap();
            assert_eq!(load_chunked(&dm, server, base).unwrap(), value, "len {len}");
        }
    }

    #[test]
    fn delete_removes_all_chunks() {
        let (dm, server) = system();
        let value = vec![1u8; 10_000];
        store_chunked(&dm, server, 7, &value, TierPreference::Auto).unwrap();
        let removed = delete_chunked(&dm, server, 7);
        assert_eq!(removed, 3);
        assert!(!contains_chunked(&dm, server, 7));
        assert!(load_chunked(&dm, server, 7).is_err());
        assert_eq!(dm.stats().entries, 0);
    }

    #[test]
    fn distinct_bases_do_not_collide() {
        let (dm, server) = system();
        store_chunked(&dm, server, 10, &vec![1u8; 9000], TierPreference::Auto).unwrap();
        store_chunked(&dm, server, 11, &vec![2u8; 9000], TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 10).unwrap(), vec![1u8; 9000]);
        assert_eq!(load_chunked(&dm, server, 11).unwrap(), vec![2u8; 9000]);
    }

    #[test]
    fn oversized_value_rejected() {
        let (dm, server) = system();
        let too_big = vec![0u8; (MAX_CHUNKS as usize) * PAGE_SIZE];
        assert!(matches!(
            store_chunked(&dm, server, 1, &too_big, TierPreference::Auto),
            Err(DmemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn many_roundtrip_matches_singles() {
        let (dm, server) = system();
        let values: Vec<Vec<u8>> = (0..12u8)
            .map(|i| vec![i; 300 * (i as usize + 1)])
            .collect();
        let items: Vec<(u64, &[u8])> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (100 + i as u64, v.as_slice()))
            .collect();
        store_chunked_many(&dm, server, &items, TierPreference::Auto).unwrap();
        // Batched loads agree with the point loads, in bases order.
        let bases: Vec<u64> = items.iter().map(|(b, _)| *b).collect();
        let loaded = load_chunked_many(&dm, server, &bases).unwrap();
        assert_eq!(loaded, values);
        for (base, value) in bases.iter().zip(&values) {
            assert_eq!(&load_chunked(&dm, server, *base).unwrap(), value);
        }
    }

    #[test]
    fn many_spans_multiple_windows() {
        let (dm, server) = system();
        // 24 two-chunk values = 48 chunks > one 32-chunk window.
        let value = vec![0x5Au8; PAGE_SIZE + 100];
        let items: Vec<(u64, &[u8])> = (0..24u64).map(|i| (200 + i, value.as_slice())).collect();
        store_chunked_many(&dm, server, &items, TierPreference::Auto).unwrap();
        let bases: Vec<u64> = items.iter().map(|(b, _)| *b).collect();
        for got in load_chunked_many(&dm, server, &bases).unwrap() {
            assert_eq!(got, value);
        }
    }

    #[test]
    fn many_overwrite_drops_stale_tails() {
        let (dm, server) = system();
        store_chunked(&dm, server, 300, &vec![1u8; 3 * PAGE_SIZE], TierPreference::Auto).unwrap();
        let short: &[u8] = b"short";
        store_chunked_many(&dm, server, &[(300, short)], TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 300).unwrap(), b"short");
        assert_eq!(dm.stats().entries, 1, "stale tail chunks must be gone");
    }

    #[test]
    fn many_empty_and_missing() {
        let (dm, server) = system();
        assert!(load_chunked_many(&dm, server, &[]).unwrap().is_empty());
        store_chunked_many(&dm, server, &[], TierPreference::Auto).unwrap();
        assert!(matches!(
            load_chunked_many(&dm, server, &[9999]),
            Err(DmemError::EntryNotFound(_))
        ));
    }

    #[test]
    fn many_oversized_value_rejected_before_any_store() {
        let (dm, server) = system();
        let ok = vec![1u8; 64];
        let too_big = vec![0u8; (MAX_CHUNKS as usize) * PAGE_SIZE];
        assert!(matches!(
            store_chunked_many(
                &dm,
                server,
                &[(1, ok.as_slice()), (2, too_big.as_slice())],
                TierPreference::Auto
            ),
            Err(DmemError::InvalidConfig { .. })
        ));
        assert_eq!(dm.stats().entries, 0, "nothing may land when the batch is invalid");
    }

    #[test]
    fn tier_of_reports_location() {
        let (dm, server) = system();
        assert!(tier_of(&dm, server, 40).is_none());
        store_chunked(&dm, server, 40, b"x", TierPreference::Disk).unwrap();
        assert!(matches!(
            tier_of(&dm, server, 40),
            Some(dmem_types::EntryLocation::Disk)
        ));
    }

    #[test]
    fn overwrite_replaces_value() {
        let (dm, server) = system();
        store_chunked(&dm, server, 9, &vec![1u8; 9000], TierPreference::Auto).unwrap();
        store_chunked(&dm, server, 9, b"short", TierPreference::Auto).unwrap();
        assert_eq!(load_chunked(&dm, server, 9).unwrap(), b"short");
    }
}
