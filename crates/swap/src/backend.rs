//! The swap backend abstraction.

use dmem_core::DisaggregatedMemory;
use dmem_types::DmemResult;
use std::sync::Arc;

/// A destination for swapped-out pages.
///
/// Backends receive whole batches so that systems with windowed swap-out
/// or batch swap-in (§IV-H) pay their base latency once per window; the
/// engine passes singleton batches when a system lacks batching.
pub trait SwapBackend {
    /// Human-readable system name (as used in the paper's figures).
    fn name(&self) -> &'static str;

    /// Stores a window of `(pfn, page)` pairs.
    ///
    /// # Errors
    ///
    /// Backend-specific; a failed store means the pages were *not*
    /// persisted and the engine keeps them dirty.
    fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()>;

    /// Loads a window of pages and hands each to `sink` with its position
    /// in `pfns`, lent for the call: a backend passes the bytes where
    /// they lie, and a caller that keeps a page copies it. Every charge a
    /// load makes is made whether or not `sink` looks at the bytes.
    ///
    /// # Errors
    ///
    /// Fails if any page of the window is absent (the engine only
    /// requests pages it stored); `sink` may have seen some of the window
    /// by then.
    fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()>;

    /// `true` if the backend holds a (possibly stale-tolerant) copy of
    /// the page.
    fn contains(&self, pfn: u64) -> bool;

    /// Drops the backend's copy of a page (called when a resident page is
    /// dirtied, invalidating the swap-cache copy).
    fn invalidate(&mut self, pfn: u64);

    /// The disaggregated-memory cluster behind this backend, when there
    /// is one. Telemetry consumers use it to reach the cluster's
    /// [`MetricsRegistry`](dmem_sim::MetricsRegistry).
    fn cluster(&self) -> Option<&Arc<DisaggregatedMemory>> {
        None
    }
}

/// Convenience: store a single page.
///
/// # Errors
///
/// See [`SwapBackend::store_batch`].
#[cfg(test)]
pub(crate) fn store_one<B: SwapBackend + ?Sized>(backend: &mut B, pfn: u64, page: Vec<u8>) -> DmemResult<()> {
    backend.store_batch(&[(pfn, page)])
}

/// Convenience: load a single page.
///
/// # Errors
///
/// See [`SwapBackend::load_batch`].
#[cfg(test)]
pub(crate) fn load_one<B: SwapBackend + ?Sized>(backend: &mut B, pfn: u64) -> DmemResult<Vec<u8>> {
    let mut page = None;
    backend.load_batch(&[pfn], &mut |_, bytes| page = Some(bytes.to_vec()))?;
    Ok(page.expect("a load that succeeds hands over its page"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::{DmemError, EntryId};
    use std::collections::HashMap;

    /// Minimal in-memory backend used to exercise the helpers.
    #[derive(Default)]
    struct MemBackend {
        pages: HashMap<u64, Vec<u8>>,
    }

    impl SwapBackend for MemBackend {
        fn name(&self) -> &'static str {
            "mem"
        }
        fn store_batch(&mut self, pages: &[(u64, Vec<u8>)]) -> DmemResult<()> {
            for (pfn, data) in pages {
                self.pages.insert(*pfn, data.clone());
            }
            Ok(())
        }
        fn load_batch(&mut self, pfns: &[u64], sink: &mut dyn FnMut(usize, &[u8])) -> DmemResult<()> {
            for (i, p) in pfns.iter().enumerate() {
                let page = self.pages.get(p).ok_or(DmemError::EntryNotFound(EntryId::default()))?;
                sink(i, page);
            }
            Ok(())
        }
        fn contains(&self, pfn: u64) -> bool {
            self.pages.contains_key(&pfn)
        }
        fn invalidate(&mut self, pfn: u64) {
            self.pages.remove(&pfn);
        }
    }

    #[test]
    fn helpers_roundtrip() {
        let mut b = MemBackend::default();
        store_one(&mut b, 7, vec![1, 2, 3]).unwrap();
        assert!(b.contains(7));
        assert_eq!(load_one(&mut b, 7).unwrap(), vec![1, 2, 3]);
        b.invalidate(7);
        assert!(!b.contains(7));
        assert!(load_one(&mut b, 7).is_err());
    }

    #[test]
    fn trait_is_object_safe() {
        let mut boxed: Box<dyn SwapBackend> = Box::<MemBackend>::default();
        store_one(boxed.as_mut(), 1, vec![9]).unwrap();
        assert_eq!(boxed.name(), "mem");
    }
}
