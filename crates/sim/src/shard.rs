//! Sharded deterministic event engine.
//!
//! Scales one scenario across cores without giving up determinism: hosts
//! are partitioned into *shards* fixed by the scenario topology, each
//! shard owns its hosts' event queue, virtual clock and RNG stream, and
//! shards advance independently up to a deterministic *epoch barrier*.
//! Cross-shard traffic (fabric verbs, replication writes, failover
//! probes) travels through ordered inter-shard mailboxes whose envelopes
//! merge under the fixed `(virtual_time, shard_id, seq)` tiebreak, so the
//! simulation output is byte-identical at every worker count — including
//! a single worker.
//!
//! The engine is *conservative* (lookahead-based): the epoch length must
//! not exceed the minimum cross-shard message latency, so a message sent
//! during epoch `k` always delivers in epoch `k + 1` or later and no
//! shard can observe an event from a shard whose clock lags behind its
//! own epoch window. [`EpochCtx::send`] asserts this invariant on every
//! envelope.
//!
//! Worker threads are persistent for the whole run (two barrier waits
//! per epoch, no per-epoch spawns); the number of worker threads only
//! changes which OS thread executes a shard, never the order in which
//! envelopes merge.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimInstant};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

/// Identifies one shard (a host-group) within a sharded simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// The shard's index as a `usize`, for slot lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard-{}", self.0)
    }
}

/// A fixed host → shard partition.
///
/// The partition is part of the scenario topology: it depends only on the
/// host count and the configured shard count, never on how many worker
/// threads execute the run. Hosts map to contiguous groups so rack
/// locality (hosts on one shard) is meaningful.
///
/// # Examples
///
/// ```
/// use dmem_sim::shard::ShardMap;
///
/// let map = ShardMap::grouped(10, 4);
/// assert_eq!(map.shards(), 4);
/// assert_eq!(map.shard_of(0).0, 0);
/// assert_eq!(map.shard_of(9).0, 3);
/// // Groups are contiguous.
/// assert_eq!(map.hosts_of(map.shard_of(0)).start, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    hosts: usize,
    shards: u32,
}

impl ShardMap {
    /// Partitions `hosts` into `shards` contiguous, near-equal groups.
    /// The shard count is clamped to `[1, hosts]` (a shard must own at
    /// least one host).
    pub fn grouped(hosts: usize, shards: usize) -> ShardMap {
        let hosts = hosts.max(1);
        let shards = shards.clamp(1, hosts) as u32;
        ShardMap { hosts, shards }
    }

    /// Number of shards in the partition.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of hosts in the partition.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// The shard owning `host` (host indices at or past the end clamp
    /// into the last shard, so foreign ids never panic).
    pub fn shard_of(&self, host: usize) -> ShardId {
        let host = host.min(self.hosts - 1);
        ShardId((host * self.shards as usize / self.hosts) as u32)
    }

    /// The contiguous host range owned by `shard`.
    pub fn hosts_of(&self, shard: ShardId) -> Range<usize> {
        let s = shard.index().min(self.shards as usize - 1);
        let start = (s * self.hosts).div_ceil(self.shards as usize);
        let end = ((s + 1) * self.hosts).div_ceil(self.shards as usize);
        start..end
    }
}

/// One message travelling between shards through a mailbox.
///
/// Envelopes merge under the total order `(deliver_at, src, seq)`: virtual
/// delivery time first, then source shard id, then the source's send
/// sequence number. The pair `(src, seq)` is unique per envelope, so the
/// order is total — equal timestamps from different sources always resolve
/// the same way regardless of arrival interleaving.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Virtual time at which the destination shard observes the message.
    pub deliver_at: SimInstant,
    /// The sending shard.
    pub src: ShardId,
    /// Send sequence number, monotone per source shard.
    pub seq: u64,
    /// Virtual time at which the source sent the message.
    pub sent_at: SimInstant,
    /// The payload.
    pub msg: M,
}

impl<M> Envelope<M> {
    /// The merge key: `(deliver_at, src shard, seq)`.
    pub fn key(&self) -> (SimInstant, u32, u64) {
        (self.deliver_at, self.src.0, self.seq)
    }
}

/// Merges per-source envelope batches into the canonical delivery order.
///
/// The result is independent of how the batches were interleaved: any
/// permutation of the same envelopes yields the same total order, because
/// the `(deliver_at, src, seq)` key is unique per envelope.
pub fn merge_envelopes<M>(batches: Vec<Vec<Envelope<M>>>) -> Vec<Envelope<M>> {
    let mut all: Vec<Envelope<M>> = batches.into_iter().flatten().collect();
    all.sort_by_key(Envelope::key);
    all
}

/// Heap adapter ordering envelopes by the merge key (min-heap via
/// `Reverse`).
struct InboxEntry<M>(Envelope<M>);

impl<M> PartialEq for InboxEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<M> Eq for InboxEntry<M> {}
impl<M> PartialOrd for InboxEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for InboxEntry<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Everything one shard sees during one epoch: the window bounds, the
/// due inbox (pre-merged into canonical order), and the outbox.
pub struct EpochCtx<M> {
    shard: ShardId,
    epoch_start: SimInstant,
    epoch_end: SimInstant,
    inbox: Vec<Envelope<M>>,
    sent: Vec<(ShardId, Envelope<M>)>,
    next_seq: u64,
}

impl<M> EpochCtx<M> {
    /// The shard this context belongs to.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Inclusive start of the epoch window.
    pub fn epoch_start(&self) -> SimInstant {
        self.epoch_start
    }

    /// Exclusive end of the epoch window: local events at or past this
    /// instant belong to a later epoch.
    pub fn epoch_end(&self) -> SimInstant {
        self.epoch_end
    }

    /// Takes the envelopes due this epoch, already in `(deliver_at, src,
    /// seq)` order. Every envelope was sent in a strictly earlier epoch.
    pub fn take_inbox(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(&mut self.inbox)
    }

    /// Sends `msg` to shard `to`, delivered at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if the envelope would violate the conservative-lookahead
    /// contract: `sent_at` outside this epoch window, or `deliver_at`
    /// before the end of this epoch (which would require delivery into
    /// an epoch that may already have run on another shard).
    pub fn send(&mut self, to: ShardId, sent_at: SimInstant, deliver_at: SimInstant, msg: M) {
        assert!(
            sent_at >= self.epoch_start && sent_at < self.epoch_end,
            "{}: send stamped {sent_at} outside epoch [{}, {})",
            self.shard,
            self.epoch_start,
            self.epoch_end,
        );
        assert!(
            deliver_at >= sent_at,
            "{}: envelope delivers at {deliver_at} before its send time {sent_at}",
            self.shard,
        );
        assert!(
            deliver_at >= self.epoch_end,
            "{}: envelope delivers at {deliver_at} inside the sending epoch (end {}); \
             cross-shard latency must be at least one epoch",
            self.shard,
            self.epoch_end,
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent.push((
            to,
            Envelope {
                deliver_at,
                src: self.shard,
                seq,
                sent_at,
                msg,
            },
        ));
    }
}

/// A shard's behaviour: one epoch of local event processing.
///
/// The engine calls [`run_epoch`](ShardWorker::run_epoch) once per epoch
/// per shard (possibly from different OS threads on different epochs —
/// workers must not rely on thread identity). Implementations drain the
/// ctx inbox, process local events with timestamps inside the window, and
/// emit cross-shard messages through [`EpochCtx::send`].
pub trait ShardWorker: Send {
    /// The cross-shard message type.
    type Msg: Send;

    /// Advances this shard through `[ctx.epoch_start(), ctx.epoch_end())`.
    fn run_epoch(&mut self, ctx: &mut EpochCtx<Self::Msg>);

    /// The time of this shard's next pending *local* event, if any.
    /// Drives termination and epoch skipping; in-flight mailbox traffic
    /// is tracked by the engine itself.
    fn next_local_at(&self) -> Option<SimInstant>;
}

/// Aggregate statistics from one engine run. All fields are functions of
/// the scenario only — never of the worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineReport {
    /// Epochs actually executed (skipped idle epochs excluded).
    pub epochs: u64,
    /// Envelopes routed between distinct shards.
    pub cross_messages: u64,
    /// Envelopes a shard sent to itself through the mailbox path.
    pub local_messages: u64,
    /// Exclusive end of the last executed epoch window.
    pub horizon: SimInstant,
}

struct Slot<W: ShardWorker> {
    worker: W,
    inbox: BinaryHeap<Reverse<InboxEntry<W::Msg>>>,
    next_seq: u64,
    outbox: Vec<(ShardId, Envelope<W::Msg>)>,
}

impl<W: ShardWorker> Slot<W> {
    /// Runs one epoch for this shard: extracts the due inbox in merge
    /// order, hands it to the worker, and stashes the outbox for the
    /// coordinator's routing phase.
    fn run_epoch(&mut self, shard: ShardId, epoch_start: SimInstant, epoch_end: SimInstant) {
        let mut due = Vec::new();
        while let Some(Reverse(head)) = self.inbox.peek() {
            if head.0.deliver_at >= epoch_end {
                break;
            }
            let Reverse(entry) = self.inbox.pop().expect("peeked entry exists");
            debug_assert!(entry.0.deliver_at >= epoch_start, "envelope missed its epoch");
            due.push(entry.0);
        }
        let mut ctx = EpochCtx {
            shard,
            epoch_start,
            epoch_end,
            inbox: due,
            sent: std::mem::take(&mut self.outbox),
            next_seq: self.next_seq,
        };
        self.worker.run_epoch(&mut ctx);
        assert!(ctx.inbox.is_empty(), "{shard}: worker left inbox envelopes undelivered");
        self.next_seq = ctx.next_seq;
        self.outbox = ctx.sent;
    }

    /// Earliest pending instant across local events and mailed envelopes.
    fn next_at(&self) -> Option<SimInstant> {
        let local = self.worker.next_local_at();
        let mailed = self.inbox.peek().map(|Reverse(e)| e.0.deliver_at);
        match (local, mailed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// The sharded engine: runs a set of [`ShardWorker`]s to quiescence.
///
/// `workers` is the OS-thread count and affects wall-clock time only;
/// the result is byte-identical for every value, including `1`.
pub struct ShardedEngine;

impl ShardedEngine {
    /// Runs `shards` to quiescence with `workers` OS threads and the
    /// given epoch length, returning the workers (for result extraction)
    /// and the run report.
    ///
    /// `min_latency` is the model's minimum cross-shard message latency;
    /// the conservative barrier requires `epoch <= min_latency`.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty, `epoch` is zero, or
    /// `epoch > min_latency`.
    pub fn run<W: ShardWorker>(
        workers: usize,
        shards: Vec<W>,
        epoch: SimDuration,
        min_latency: SimDuration,
    ) -> (Vec<W>, EngineReport) {
        assert!(!shards.is_empty(), "no shards to run");
        assert!(!epoch.is_zero(), "epoch must be positive");
        assert!(
            epoch <= min_latency,
            "epoch {epoch} exceeds the minimum cross-shard latency {min_latency}; \
             messages could deliver into an epoch that already ran",
        );
        let nshards = shards.len();
        let slots: Vec<Mutex<Slot<W>>> = shards
            .into_iter()
            .map(|worker| {
                Mutex::new(Slot {
                    worker,
                    inbox: BinaryHeap::new(),
                    next_seq: 0,
                    outbox: Vec::new(),
                })
            })
            .collect();
        let workers = workers.max(1).min(nshards);

        let mut report = EngineReport::default();
        let mut epoch_index: u64 = 0;

        if workers <= 1 {
            loop {
                let (start, end) = epoch_window(epoch, epoch_index);
                for (i, slot) in slots.iter().enumerate() {
                    slot.lock().run_epoch(ShardId(i as u32), start, end);
                }
                report.epochs += 1;
                report.horizon = end;
                match Self::route_and_plan(&slots, epoch, epoch_index, &mut report) {
                    Some(next) => epoch_index = next,
                    None => break,
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let start_ns = AtomicU64::new(0);
            let done = AtomicBool::new(false);
            let barrier = Barrier::new(workers + 1);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| loop {
                        barrier.wait();
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let start = SimInstant::from_nanos(start_ns.load(Ordering::Acquire));
                        let end = start + epoch;
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= nshards {
                                break;
                            }
                            slots[i].lock().run_epoch(ShardId(i as u32), start, end);
                        }
                        barrier.wait();
                    });
                }
                loop {
                    let (start, end) = epoch_window(epoch, epoch_index);
                    start_ns.store(start.nanos(), Ordering::Release);
                    cursor.store(0, Ordering::Relaxed);
                    barrier.wait(); // epoch starts
                    barrier.wait(); // all shards done
                    report.epochs += 1;
                    report.horizon = end;
                    match Self::route_and_plan(&slots, epoch, epoch_index, &mut report) {
                        Some(next) => epoch_index = next,
                        None => {
                            done.store(true, Ordering::Release);
                            barrier.wait(); // release workers to observe done
                            break;
                        }
                    }
                }
            });
        }

        let finished = slots
            .into_iter()
            .map(|slot| slot.into_inner().worker)
            .collect();
        (finished, report)
    }

    /// Serial coordinator phase: drains every shard's outbox in shard
    /// order into destination inboxes, then either returns the next epoch
    /// index (skipping idle windows) or `None` when the system is
    /// quiescent. Runs between barriers, so it is single-threaded and
    /// deterministic by construction.
    fn route_and_plan<W: ShardWorker>(
        slots: &[Mutex<Slot<W>>],
        epoch: SimDuration,
        epoch_index: u64,
        report: &mut EngineReport,
    ) -> Option<u64> {
        let mut routed: Vec<Vec<Envelope<W::Msg>>> = (0..slots.len()).map(|_| Vec::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            let mut slot = slot.lock();
            for (to, env) in slot.outbox.drain(..) {
                assert!(to.index() < slots.len(), "send to unknown shard {to}");
                if to.index() == i {
                    report.local_messages += 1;
                } else {
                    report.cross_messages += 1;
                }
                routed[to.index()].push(env);
            }
        }
        let mut next_at: Option<SimInstant> = None;
        for (slot, incoming) in slots.iter().zip(routed) {
            let mut slot = slot.lock();
            for env in incoming {
                slot.inbox.push(Reverse(InboxEntry(env)));
            }
            next_at = match (next_at, slot.next_at()) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        let next_at = next_at?;
        // Skip empty epochs: jump straight to the window containing the
        // next pending instant. Windows stay on the fixed grid, so the
        // skip changes nothing observable.
        let next_index = (next_at.nanos() / epoch.as_nanos()).max(epoch_index + 1);
        Some(next_index)
    }
}

/// The `[start, end)` window of epoch `index` on the fixed grid.
fn epoch_window(epoch: SimDuration, index: u64) -> (SimInstant, SimInstant) {
    let start = SimInstant::from_nanos(epoch.as_nanos() * index);
    (start, start + epoch)
}

/// Derives the per-shard RNG stream for `shard` under `root_seed`.
///
/// Thin convenience over [`DetRng::for_shard`] so engine callers and
/// tests agree on one spelling.
pub fn shard_rng(root_seed: u64, shard: ShardId) -> DetRng {
    DetRng::for_shard(root_seed, shard.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::RngCore;

    #[test]
    fn grouped_map_is_contiguous_and_total() {
        for hosts in [1usize, 2, 5, 7, 32, 100] {
            for shards in [1usize, 2, 3, 4, 8, 200] {
                let map = ShardMap::grouped(hosts, shards);
                assert!(map.shards() as usize <= hosts);
                let mut seen = 0;
                for s in 0..map.shards() {
                    let range = map.hosts_of(ShardId(s));
                    assert_eq!(range.start, seen, "groups must be contiguous");
                    assert!(!range.is_empty(), "every shard owns a host");
                    for h in range.clone() {
                        assert_eq!(map.shard_of(h), ShardId(s));
                    }
                    seen = range.end;
                }
                assert_eq!(seen, hosts);
            }
        }
    }

    #[test]
    fn shard_of_clamps_foreign_ids() {
        let map = ShardMap::grouped(8, 4);
        assert_eq!(map.shard_of(10_000), ShardId(3));
    }

    /// A toy worker: a ring of shards ping-ponging messages with varying
    /// latency, logging every delivery. Used to check that the transcript
    /// is identical at every worker count.
    struct RingWorker {
        shard: ShardId,
        shards: u32,
        pending_kick: Option<SimInstant>,
        sends_left: u32,
        latency: SimDuration,
        rng: DetRng,
        log: Vec<(u64, u32, u64, u64)>, // (deliver_ns, src, seq, payload)
    }

    impl RingWorker {
        fn new(shard: ShardId, shards: u32, seed: u64) -> Self {
            RingWorker {
                shard,
                shards,
                pending_kick: Some(SimInstant::EPOCH),
                sends_left: 8,
                latency: SimDuration::from_nanos(100),
                rng: shard_rng(seed, shard),
            log: Vec::new(),
            }
        }
    }

    impl ShardWorker for RingWorker {
        type Msg = u64;

        fn run_epoch(&mut self, ctx: &mut EpochCtx<u64>) {
            if let Some(at) = self.pending_kick.take() {
                if at < ctx.epoch_end() {
                    let to = ShardId((self.shard.0 + 1) % self.shards);
                    let lat = self.latency * (1 + self.rng.next_u64() % 3);
                    ctx.send(to, at, at + lat, self.shard.0 as u64);
                    self.sends_left -= 1;
                } else {
                    self.pending_kick = Some(at); // not due yet
                }
            }
            for env in ctx.take_inbox() {
                assert!(env.deliver_at >= env.sent_at);
                assert!(env.sent_at < ctx.epoch_start(), "sent in a strictly earlier epoch");
                self.log
                    .push((env.deliver_at.nanos(), env.src.0, env.seq, env.msg));
                if self.sends_left > 0 {
                    self.sends_left -= 1;
                    let to = ShardId((self.shard.0 + 1) % self.shards);
                    let lat = self.latency * (1 + self.rng.next_u64() % 3);
                    ctx.send(to, env.deliver_at, env.deliver_at + lat, env.msg + 1);
                }
            }
        }

        fn next_local_at(&self) -> Option<SimInstant> {
            self.pending_kick
        }
    }

    fn run_ring(workers: usize, shards: u32, seed: u64) -> (Vec<Vec<(u64, u32, u64, u64)>>, EngineReport) {
        let ring: Vec<RingWorker> = (0..shards)
            .map(|s| RingWorker::new(ShardId(s), shards, seed))
            .collect();
        let (done, report) = ShardedEngine::run(
            workers,
            ring,
            SimDuration::from_nanos(100),
            SimDuration::from_nanos(100),
        );
        (done.into_iter().map(|w| w.log).collect(), report)
    }

    #[test]
    fn ring_transcript_identical_across_worker_counts() {
        let (base, base_report) = run_ring(1, 6, 42);
        assert!(base_report.cross_messages > 0, "vacuous: no cross-shard traffic");
        for workers in [2, 3, 6, 8] {
            let (other, report) = run_ring(workers, 6, 42);
            assert_eq!(base, other, "workers={workers} changed the transcript");
            assert_eq!(base_report, report, "workers={workers} changed the report");
        }
    }

    #[test]
    fn ring_transcript_stable_across_reruns() {
        assert_eq!(run_ring(3, 4, 7).0, run_ring(3, 4, 7).0);
    }

    #[test]
    #[should_panic(expected = "cross-shard latency must be at least one epoch")]
    fn undeliverable_latency_panics() {
        struct Eager(Option<SimInstant>);
        impl ShardWorker for Eager {
            type Msg = ();
            fn run_epoch(&mut self, ctx: &mut EpochCtx<()>) {
                if let Some(at) = self.0.take() {
                    // Zero-latency cross-shard send: violates lookahead.
                    ctx.send(ShardId(1), at, at, ());
                }
                ctx.take_inbox();
            }
            fn next_local_at(&self) -> Option<SimInstant> {
                self.0
            }
        }
        let shards = vec![Eager(Some(SimInstant::EPOCH)), Eager(None)];
        ShardedEngine::run(
            1,
            shards,
            SimDuration::from_nanos(10),
            SimDuration::from_nanos(10),
        );
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn epoch_longer_than_lookahead_rejected() {
        struct Idle;
        impl ShardWorker for Idle {
            type Msg = ();
            fn run_epoch(&mut self, _: &mut EpochCtx<()>) {}
            fn next_local_at(&self) -> Option<SimInstant> {
                None
            }
        }
        ShardedEngine::run(
            1,
            vec![Idle],
            SimDuration::from_nanos(20),
            SimDuration::from_nanos(10),
        );
    }

    /// Arbitrary envelopes with deliberately colliding timestamps:
    /// `(src, seq)` pairs are made unique, times are drawn from a tiny
    /// range so ties are common.
    fn arb_envelopes() -> impl Strategy<Value = Vec<Envelope<u64>>> {
        proptest::collection::vec((0u64..4, 0u32..4, 0u64..1000), 1..60).prop_map(|raw| {
            let mut seq_per_src = std::collections::HashMap::new();
            raw.into_iter()
                .map(|(t, src, payload)| {
                    let seq = seq_per_src.entry(src).or_insert(0u64);
                    *seq += 1;
                    Envelope {
                        deliver_at: SimInstant::from_nanos(t),
                        src: ShardId(src),
                        seq: *seq,
                        sent_at: SimInstant::EPOCH,
                        msg: payload,
                    }
                })
                .collect()
        })
    }

    proptest! {
        /// Satellite: any interleaving of mailbox deliveries with equal
        /// timestamps resolves to the same total order under the
        /// `(time, shard_id, seq)` tiebreak.
        #[test]
        fn prop_merge_is_interleaving_independent(
            envs in arb_envelopes(),
            shuffle_seed in 0u64..1000,
            cuts in proptest::collection::vec(0usize..60, 0..6),
        ) {
            // Canonical: one batch, sorted.
            let canonical = merge_envelopes(vec![envs.clone()]);
            // Adversarial: shuffle, then split into arbitrary batches.
            let mut shuffled = envs;
            DetRng::new(shuffle_seed).shuffle(&mut shuffled);
            let mut batches: Vec<Vec<Envelope<u64>>> = Vec::new();
            let mut rest = shuffled;
            for cut in cuts {
                let cut = cut.min(rest.len());
                let tail = rest.split_off(cut);
                batches.push(rest);
                rest = tail;
            }
            batches.push(rest);
            let merged = merge_envelopes(batches);
            let keys = |v: &[Envelope<u64>]| v.iter().map(|e| (e.key(), e.msg)).collect::<Vec<_>>();
            prop_assert_eq!(keys(&canonical), keys(&merged));
            // And the order is actually sorted by the merge key.
            for w in merged.windows(2) {
                prop_assert!(w[0].key() < w[1].key(), "merge key must be strictly increasing");
            }
        }

        /// Satellite: epoch barriers never deliver an event before its
        /// send time, and always in a strictly later epoch than the send
        /// (asserted inside `RingWorker::run_epoch`). Transcripts are also
        /// worker-count independent for every sampled topology.
        #[test]
        fn prop_barrier_never_delivers_before_send(
            shards in 2u32..7,
            seed in 0u64..500,
            workers in 1usize..5,
        ) {
            let (base, report) = run_ring(1, shards, seed);
            prop_assert!(report.cross_messages > 0);
            let (other, _) = run_ring(workers, shards, seed);
            prop_assert_eq!(base, other);
        }
    }
}
