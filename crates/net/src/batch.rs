//! Window-based message batching (paper §IV-H).
//!
//! DAHI batches `d` messages of size `m` into one RDMA transfer; FastSwap
//! batches swap-out pages the same way. Batching converts `d` base
//! latencies into one, which dominates for small messages on a
//! high-bandwidth fabric.

use crate::fabric::{Fabric, QpHandle, RegionHandle};
use dmem_types::{DmemError, DmemResult};
use std::sync::Arc;

/// Accumulates fixed-size messages and flushes them to a remote region in
/// one RDMA WRITE per full window.
///
/// The sender writes sequentially into the region starting at a base
/// offset, which matches how the paper's send-buffer pool hands slabs to
/// the remote receive-buffer pool.
///
/// # Examples
///
/// ```
/// use dmem_net::{BatchSender, Fabric};
/// use dmem_sim::{CostModel, FailureInjector, SimClock};
/// use dmem_types::{ByteSize, NodeId};
///
/// let clock = SimClock::new();
/// let fabric = Fabric::new(clock.clone(), CostModel::paper_default(),
///                          FailureInjector::new(clock.clone()));
/// let mr = fabric.register(NodeId::new(1), ByteSize::from_kib(64))?;
/// let qp = fabric.connect(NodeId::new(0), NodeId::new(1))?;
///
/// let mut sender = BatchSender::new(qp, mr, 4, 8192); // window 4 × 8 KiB
/// for chunk in 0..4u8 {
///     sender.push(&fabric, vec![chunk; 8192])?; // 4th push flushes
/// }
/// assert_eq!(sender.flushed_windows(), 1);
/// # Ok::<(), dmem_types::DmemError>(())
/// ```
#[derive(Debug)]
pub struct BatchSender {
    qp: QpHandle,
    region: RegionHandle,
    window: usize,
    message_size: usize,
    pending: Vec<Vec<u8>>,
    next_offset: u64,
    region_capacity_hint: Option<u64>,
    flushed_windows: u64,
    messages_sent: u64,
}

impl BatchSender {
    /// Creates a sender batching `window` messages of at most
    /// `message_size` bytes each.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `message_size` is zero.
    pub fn new(qp: QpHandle, region: RegionHandle, window: usize, message_size: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        assert!(message_size > 0, "message size must be nonzero");
        BatchSender {
            qp,
            region,
            window,
            message_size,
            pending: Vec::with_capacity(window),
            next_offset: 0,
            region_capacity_hint: None,
            flushed_windows: 0,
            messages_sent: 0,
        }
    }

    /// Number of full windows flushed so far.
    pub fn flushed_windows(&self) -> u64 {
        self.flushed_windows
    }

    /// Total messages transmitted (flushed) so far.
    #[cfg(test)]
    pub(crate) fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Messages currently waiting for the window to fill.
    #[cfg(test)]
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Next write offset in the remote region.
    #[cfg(test)]
    pub(crate) fn next_offset(&self) -> u64 {
        self.next_offset
    }

    /// Queues one message; flushes automatically when the window fills.
    ///
    /// Returns the remote offset range `(start, len)` of the flushed batch
    /// when a flush happened.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors from the flush; the window is retained so
    /// the caller can retry after recovery. Returns
    /// [`DmemError::InvalidConfig`] if `msg` exceeds the message size.
    pub fn push(&mut self, fabric: &Fabric, msg: Vec<u8>) -> DmemResult<Option<(u64, usize)>> {
        if msg.len() > self.message_size {
            return Err(DmemError::InvalidConfig {
                reason: format!(
                    "message of {} bytes exceeds batch message size {}",
                    msg.len(),
                    self.message_size
                ),
            });
        }
        self.pending.push(msg);
        if self.pending.len() >= self.window {
            self.flush(fabric).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Flushes pending messages (padding each to the fixed message size)
    /// in a single RDMA WRITE, handing the padded window to the region
    /// as it is. No-op on an empty window.
    ///
    /// # Errors
    ///
    /// Propagates fabric errors; pending messages are retained for retry.
    pub fn flush(&mut self, fabric: &Fabric) -> DmemResult<(u64, usize)> {
        if self.pending.is_empty() {
            return Ok((self.next_offset, 0));
        }
        let len = self.pending.len() * self.message_size;
        let mut buf: Arc<[u8]> = std::iter::repeat_n(0, len).collect();
        let slots = Arc::get_mut(&mut buf).expect("a buffer no one else holds yet");
        for (slot, msg) in slots.chunks_mut(self.message_size).zip(&self.pending) {
            slot[..msg.len()].copy_from_slice(msg);
        }
        let start = self.next_offset;
        fabric.write_shared(&self.qp, &[buf], &self.region, start)?;
        let count = self.pending.len();
        self.pending.clear();
        self.next_offset = start + len as u64;
        self.flushed_windows += 1;
        self.messages_sent += count as u64;
        // Wrap to the start when the next window would not fit; the
        // receive pool is consumed as a ring in steady state.
        if let Some(cap) = self.region_capacity_hint {
            if self.next_offset + (self.window * self.message_size) as u64 > cap {
                self.next_offset = 0;
            }
        }
        Ok((start, len))
    }

    /// Declares the remote region capacity so the sender wraps its write
    /// cursor ring-buffer style instead of running off the end.
    pub fn set_region_capacity(&mut self, capacity: u64) {
        self.region_capacity_hint = Some(capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_sim::{CostModel, FailureInjector, SimClock};
    use dmem_types::{ByteSize, NodeId};

    fn setup(region_kib: u64) -> (SimClock, Fabric, QpHandle, RegionHandle) {
        let clock = SimClock::new();
        let fabric = Fabric::new(
            clock.clone(),
            CostModel::paper_default(),
            FailureInjector::new(clock.clone()),
        );
        let mr = fabric
            .register(NodeId::new(1), ByteSize::from_kib(region_kib))
            .unwrap();
        let qp = fabric.connect(NodeId::new(0), NodeId::new(1)).unwrap();
        (clock, fabric, qp, mr)
    }

    #[test]
    fn window_fill_triggers_flush() {
        let (_, fabric, qp, mr) = setup(64);
        let mut sender = BatchSender::new(qp, mr, 3, 1024);
        assert!(sender.push(&fabric, vec![1; 1024]).unwrap().is_none());
        assert!(sender.push(&fabric, vec![2; 1024]).unwrap().is_none());
        let flushed = sender.push(&fabric, vec![3; 1024]).unwrap();
        assert_eq!(flushed, Some((0, 3 * 1024)));
        assert_eq!(sender.pending_len(), 0);
        assert_eq!(sender.messages_sent(), 3);
    }

    #[test]
    fn flushed_data_lands_in_region() {
        let (_, fabric, qp, mr) = setup(64);
        let mut sender = BatchSender::new(qp, mr, 2, 16);
        sender.push(&fabric, vec![0xAA; 16]).unwrap();
        sender.push(&fabric, vec![0xBB; 8]).unwrap(); // short: padded
        let got = fabric.read(&qp, &mr, 0, 32).unwrap();
        assert_eq!(&got[..16], &[0xAA; 16]);
        assert_eq!(&got[16..24], &[0xBB; 8]);
        assert_eq!(&got[24..32], &[0u8; 8], "padding is zeroed");
    }

    #[test]
    fn batching_saves_time_vs_singles() {
        let (clock, fabric, qp, mr) = setup(1024);
        let mut batched = BatchSender::new(qp, mr, 16, 8192);
        let t0 = clock.now();
        for _ in 0..16 {
            batched.push(&fabric, vec![7; 8192]).unwrap();
        }
        let batched_cost = clock.now() - t0;

        let t1 = clock.now();
        let mut single = BatchSender::new(qp, mr, 1, 8192);
        for _ in 0..16 {
            single.push(&fabric, vec![7; 8192]).unwrap();
        }
        let single_cost = clock.now() - t1;
        assert!(
            batched_cost < single_cost,
            "batched {batched_cost} >= single {single_cost}"
        );
    }

    #[test]
    fn oversized_message_rejected() {
        let (_, fabric, qp, mr) = setup(64);
        let mut sender = BatchSender::new(qp, mr, 2, 128);
        assert!(matches!(
            sender.push(&fabric, vec![0; 129]),
            Err(DmemError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn explicit_flush_of_partial_window() {
        let (_, fabric, qp, mr) = setup(64);
        let mut sender = BatchSender::new(qp, mr, 8, 512);
        sender.push(&fabric, vec![5; 512]).unwrap();
        let (start, len) = sender.flush(&fabric).unwrap();
        assert_eq!((start, len), (0, 512));
        // Empty flush is a no-op at the new offset.
        assert_eq!(sender.flush(&fabric).unwrap(), (512, 0));
    }

    #[test]
    fn ring_wrap_with_capacity_hint() {
        let (_, fabric, qp, mr) = setup(4); // 4 KiB region
        let mut sender = BatchSender::new(qp, mr, 2, 1024);
        sender.set_region_capacity(4096);
        for i in 0..4u8 {
            sender.push(&fabric, vec![i; 1024]).unwrap();
        }
        // Two windows of 2 KiB fill the region; cursor wrapped to 0.
        assert_eq!(sender.next_offset(), 0);
        sender.push(&fabric, vec![9; 1024]).unwrap();
        sender.push(&fabric, vec![9; 1024]).unwrap();
        assert_eq!(sender.flushed_windows(), 3);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_panics() {
        let (_, _, qp, mr) = setup(4);
        let _ = BatchSender::new(qp, mr, 0, 1024);
    }
}
