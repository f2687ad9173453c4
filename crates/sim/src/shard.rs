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
//! Every worker count runs one loop (`run_lane`): a worker thread (a
//! *lane*) owns a fixed contiguous group of shards for the whole run,
//! the calling thread is lane 0, and the lanes meet at one barrier per
//! epoch. There is no routing phase and no coordinator: a lane swaps its
//! outboxes into sender-partitioned mailboxes before the barrier, each
//! shard moves what was mailed to it into its own inbox heap at the top
//! of its next epoch, and every lane derives the next epoch from the
//! same published instants. The worker count only changes which OS
//! thread executes a shard, never the order in which envelopes merge.

use crate::rng::DetRng;
use crate::time::{SimDuration, SimInstant};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

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

/// Everything one shard sees during one epoch: the window bounds, its
/// inbox (a heap in merge order, of which the worker takes the due
/// prefix), and the outbox.
pub struct EpochCtx<M> {
    shard: ShardId,
    epoch_start: SimInstant,
    epoch_end: SimInstant,
    inbox: BinaryHeap<Reverse<InboxEntry<M>>>,
    next_seq: u64,
    /// The executing worker thread's outboxes and totals, lent for this
    /// shard's epoch.
    lane: LaneState<M>,
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
        std::iter::from_fn(|| self.pop_due()).collect()
    }

    /// When the next envelope due this epoch delivers, if one is left.
    pub fn due_at(&self) -> Option<SimInstant> {
        let Reverse(head) = self.inbox.peek()?;
        (head.0.deliver_at < self.epoch_end).then_some(head.0.deliver_at)
    }

    /// [`take_inbox`](EpochCtx::take_inbox) one envelope at a time,
    /// straight off the inbox heap: with [`due_at`](EpochCtx::due_at), what
    /// a worker needs to merge deliveries into its own event order
    /// without queueing them a second time.
    pub fn pop_due(&mut self) -> Option<Envelope<M>> {
        let at = self.due_at()?;
        debug_assert!(at >= self.epoch_start, "envelope missed its epoch");
        self.inbox.pop().map(|Reverse(entry)| entry.0)
    }

    /// Sends `msg` to shard `to`, delivered at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is not a shard of this run, or if the envelope would
    /// violate the conservative-lookahead contract: `sent_at` outside this
    /// epoch window, or `deliver_at` before the end of this epoch (which
    /// would require delivery into an epoch that may already have run on
    /// another shard).
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
        let lane = &mut self.lane;
        assert!(to.index() < lane.out.len(), "send to unknown shard {to}");
        let seq = self.next_seq;
        self.next_seq += 1;
        if to == self.shard {
            lane.local_messages += 1;
        } else {
            lane.cross_messages += 1;
        }
        // The envelope sits in a mailbox no inbox heap has seen until its
        // receiver's next epoch, so it is pending on the sender's account.
        lane.next_ns = lane.next_ns.min(deliver_at.nanos());
        lane.out[to.index()].push(Envelope {
            deliver_at,
            src: self.shard,
            seq,
            sent_at,
            msg,
        });
    }
}

/// A shard's behaviour: one epoch of local event processing.
///
/// The engine calls [`run_epoch`](ShardWorker::run_epoch) once per epoch
/// per shard. A shard stays on one OS thread for a whole run, but which
/// one depends on the worker count — workers must not rely on thread
/// identity. Implementations drain the ctx inbox, process local events
/// with timestamps inside the window, and emit cross-shard messages
/// through [`EpochCtx::send`].
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

/// Where one worker thread's wall time went, by engine phase. The four
/// shares add up to the thread's time inside the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LaneProfile {
    /// Moving mailed envelopes into its shards' inbox heaps.
    pub drain: Duration,
    /// Inside [`ShardWorker::run_epoch`], sends and inbox pops included.
    pub run_epoch: Duration,
    /// Waiting at the epoch barrier for the other threads.
    pub barrier: Duration,
    /// Publishing outboxes and the next pending instant before the
    /// barrier, reducing them to the next epoch after it.
    pub plan: Duration,
}

#[derive(Clone, Copy)]
enum Phase {
    Drain,
    RunEpoch,
    Barrier,
    Plan,
}

/// Attributes a lane's wall time to phases: each `lap` charges the time
/// since the previous one. [`NoLaps`] compiles to nothing, so an
/// unprofiled run reads the clock once, on entry.
trait Laps {
    fn start(at: Instant) -> Self;
    fn lap(&mut self, phase: Phase);
    fn profile(&self) -> LaneProfile;
}

struct NoLaps;

impl Laps for NoLaps {
    fn start(_: Instant) -> Self {
        NoLaps
    }
    #[inline]
    fn lap(&mut self, _: Phase) {}
    fn profile(&self) -> LaneProfile {
        LaneProfile::default()
    }
}

struct TimedLaps {
    last: Instant,
    spent: [Duration; 4],
}

impl Laps for TimedLaps {
    fn start(at: Instant) -> Self {
        TimedLaps {
            last: at,
            spent: [Duration::ZERO; 4],
        }
    }
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        self.spent[phase as usize] += now - self.last;
        self.last = now;
    }
    fn profile(&self) -> LaneProfile {
        let [drain, run_epoch, barrier, plan] = self.spent;
        LaneProfile {
            drain,
            run_epoch,
            barrier,
            plan,
        }
    }
}

struct Slot<W: ShardWorker> {
    worker: W,
    inbox: BinaryHeap<Reverse<InboxEntry<W::Msg>>>,
    next_seq: u64,
}

/// What a lane hands from one shard's epoch to the next: its outboxes
/// and its running totals.
struct LaneState<M> {
    /// Outgoing envelopes by destination shard, published at epoch end.
    out: Vec<Vec<Envelope<M>>>,
    /// Earliest instant anything of this lane is pending at, in
    /// nanoseconds: local events, inbox heads and envelopes just sent.
    next_ns: u64,
    cross_messages: u64,
    local_messages: u64,
}

impl<M> LaneState<M> {
    fn new(shards: usize) -> Self {
        LaneState {
            out: (0..shards).map(|_| Vec::new()).collect(),
            next_ns: NEVER,
            cross_messages: 0,
            local_messages: 0,
        }
    }
}

impl<W: ShardWorker> Slot<W> {
    /// Runs one epoch for this shard: lends the worker the inbox heap and
    /// the lane's outboxes, then folds what the shard has pending into
    /// the lane's `next_ns`.
    fn run_epoch(
        &mut self,
        shard: ShardId,
        epoch_start: SimInstant,
        epoch_end: SimInstant,
        lane: &mut LaneState<W::Msg>,
    ) {
        let mut ctx = EpochCtx {
            shard,
            epoch_start,
            epoch_end,
            inbox: std::mem::take(&mut self.inbox),
            next_seq: self.next_seq,
            lane: std::mem::replace(lane, LaneState::new(0)),
        };
        self.worker.run_epoch(&mut ctx);
        let mailed = ctx.inbox.peek().map(|Reverse(head)| head.0.deliver_at);
        assert!(
            mailed.is_none_or(|at| at >= epoch_end),
            "{shard}: worker left inbox envelopes undelivered"
        );
        self.inbox = ctx.inbox;
        self.next_seq = ctx.next_seq;
        *lane = ctx.lane;
        let local = self.worker.next_local_at();
        for at in [local, mailed].into_iter().flatten() {
            lane.next_ns = lane.next_ns.min(at.nanos());
        }
    }
}

/// "Nothing pending" in the nanosecond encoding of a next instant.
const NEVER: u64 = u64::MAX;

/// How long a thread spins at the epoch barrier before it parks:
/// [`BARRIER_YIELDS`] rounds of this many checks of the flag, one
/// `yield_now` after each round. At the ≈ 10 ns a check costs that is
/// ≈ 200 µs, twice what a lane of the rack model works per epoch, so lanes
/// with a core each meet without a futex call. The yields are for lanes
/// without one: a spinner that never yields holds the core the lane it
/// waits for needs, which on a 2-core box with one busy neighbour made two
/// workers 2.3× slower than one (195 ms against 84 ms with yields, 256
/// hosts); with a core each the yields cost nothing measurable.
const SPINS_PER_YIELD: u32 = 500;
const BARRIER_YIELDS: u32 = 40;

/// The epoch barrier: sense-reversing, spin then park.
///
/// The last thread to arrive flips `sense`; the others wait for the flip,
/// first spinning for a fixed budget ([`SPINS_PER_YIELD`]), then asleep on
/// the condition variable. A thread that unwinds poisons the barrier, which
/// releases every waiter with `false` instead of leaving it there for
/// good.
struct EpochBarrier {
    parties: usize,
    arrived: AtomicUsize,
    sense: AtomicBool,
    sleepers: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl EpochBarrier {
    fn new(parties: usize) -> Self {
        EpochBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until every party has arrived. Whatever a thread wrote
    /// before arriving is visible to every thread after its return: the
    /// `AcqRel` arrivals chain each writer to the last arriver, whose
    /// `sense` store the waiters acquire. Returns `false` if a party
    /// panicked instead of arriving.
    ///
    /// `SeqCst` on `sense` and `sleepers` is what rules out a lost wake:
    /// either the sleeper's check of `sense` sees the flip, or the
    /// flipper's check of `sleepers` sees the sleeper and takes the lock
    /// the sleeper holds until it is inside `wait`.
    fn wait(&self) -> bool {
        if self.parties == 1 {
            return true;
        }
        // Stable until this thread arrives: the flip needs every party.
        let sense = self.sense.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            self.sense.store(!sense, Ordering::SeqCst);
            self.wake_sleepers();
            return !self.poisoned.load(Ordering::SeqCst);
        }
        let released =
            || self.sense.load(Ordering::SeqCst) != sense || self.poisoned.load(Ordering::SeqCst);
        for _ in 0..BARRIER_YIELDS {
            for _ in 0..SPINS_PER_YIELD {
                if released() {
                    return !self.poisoned.load(Ordering::SeqCst);
                }
                std::hint::spin_loop();
            }
            std::thread::yield_now();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        while !released() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        !self.poisoned.load(Ordering::SeqCst)
    }

    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
    }
}

/// Poisons the barrier if the lane that holds it unwinds.
struct PoisonOnPanic<'a>(&'a EpochBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poisoned.store(true, Ordering::SeqCst);
            self.0.wake_sleepers();
        }
    }
}

/// What the lanes of one run share: the mailboxes, the published next
/// instants and the barrier. Everything is double-buffered by the parity
/// of the executed-epoch count, so one barrier per epoch suffices: what
/// epoch `k` writes, epoch `k + 1` reads while writing the other half,
/// and nothing touches a half again before every lane has crossed the
/// barrier in between.
struct Shared<M> {
    shards: usize,
    lanes: usize,
    /// `mail[(parity * lanes + sending lane) * shards + receiving shard]`:
    /// sender-partitioned, so a lane only ever swaps a full outbox for
    /// the empty one its receiver left, and no two threads meet on a lock.
    mail: Vec<Mutex<Vec<Envelope<M>>>>,
    /// `next_ns[parity * lanes + lane]`: that lane's `LaneState::next_ns`.
    next_ns: Vec<AtomicU64>,
    barrier: EpochBarrier,
}

impl<M> Shared<M> {
    fn mailbox(
        &self,
        parity: usize,
        from_lane: usize,
        to_shard: usize,
    ) -> MutexGuard<'_, Vec<Envelope<M>>> {
        self.mail[(parity * self.lanes + from_lane) * self.shards + to_shard]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
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
    /// `epoch > min_latency`; a panic inside a shard's `run_epoch` is
    /// re-raised here whichever thread ran it.
    pub fn run<W: ShardWorker>(
        workers: usize,
        shards: Vec<W>,
        epoch: SimDuration,
        min_latency: SimDuration,
    ) -> (Vec<W>, EngineReport) {
        let (shards, report, _) = Self::run_lanes::<W, NoLaps>(workers, shards, epoch, min_latency);
        (shards, report)
    }

    /// [`run`](ShardedEngine::run), also timing where each worker thread
    /// spent the run (one [`LaneProfile`] per thread actually used).
    pub fn run_profiled<W: ShardWorker>(
        workers: usize,
        shards: Vec<W>,
        epoch: SimDuration,
        min_latency: SimDuration,
    ) -> (Vec<W>, EngineReport, Vec<LaneProfile>) {
        Self::run_lanes::<W, TimedLaps>(workers, shards, epoch, min_latency)
    }

    fn run_lanes<W: ShardWorker, L: Laps>(
        workers: usize,
        shards: Vec<W>,
        epoch: SimDuration,
        min_latency: SimDuration,
    ) -> (Vec<W>, EngineReport, Vec<LaneProfile>) {
        assert!(!shards.is_empty(), "no shards to run");
        assert!(!epoch.is_zero(), "epoch must be positive");
        assert!(
            epoch <= min_latency,
            "epoch {epoch} exceeds the minimum cross-shard latency {min_latency}; \
             messages could deliver into an epoch that already ran",
        );
        let started = Instant::now();
        let mut slots: Vec<Slot<W>> = shards
            .into_iter()
            .map(|worker| Slot {
                worker,
                inbox: BinaryHeap::new(),
                next_seq: 0,
            })
            .collect();
        // Shards map to lanes the way hosts map to shards: contiguous,
        // near-equal groups, fixed for the run.
        let lane_map = ShardMap::grouped(slots.len(), workers);
        let lanes = lane_map.shards() as usize;
        let shared = Shared {
            shards: slots.len(),
            lanes,
            mail: (0..2 * lanes * slots.len())
                .map(|_| Mutex::default())
                .collect(),
            next_ns: (0..2 * lanes).map(|_| AtomicU64::new(NEVER)).collect(),
            barrier: EpochBarrier::new(lanes),
        };

        // Lane 0 is this thread: one worker spawns nothing.
        let (mine, mut rest) = slots.split_at_mut(lane_map.hosts_of(ShardId(0)).len());
        let (report, profiles) = std::thread::scope(|scope| {
            let mut spawned = Vec::with_capacity(lanes - 1);
            for lane in 1..lanes {
                let owned = lane_map.hosts_of(ShardId(lane as u32));
                let (group, tail) = rest.split_at_mut(owned.len());
                rest = tail;
                let shared = &shared;
                spawned.push(scope.spawn(move || {
                    run_lane::<W, L>(shared, lane, owned.start, group, epoch, started)
                }));
            }
            let (mut report, profile) = run_lane::<W, L>(&shared, 0, 0, mine, epoch, started);
            let mut profiles = vec![profile];
            for handle in spawned {
                let (other, profile) = handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                report.cross_messages += other.cross_messages;
                report.local_messages += other.local_messages;
                profiles.push(profile);
            }
            (report, profiles)
        });
        let finished = slots.into_iter().map(|slot| slot.worker).collect();
        (finished, report, profiles)
    }
}

/// One worker thread's whole run: the epoch loop every lane executes in
/// lockstep. Each lane reaches the same epoch sequence on its own — after
/// the barrier all read the same published instants — so there is no
/// coordinator to wait for; lane 0's report is the run's, with the other
/// lanes' message counts added.
fn run_lane<W: ShardWorker, L: Laps>(
    shared: &Shared<W::Msg>,
    lane: usize,
    first_shard: usize,
    slots: &mut [Slot<W>],
    epoch: SimDuration,
    started: Instant,
) -> (EngineReport, LaneProfile) {
    let _poison = PoisonOnPanic(&shared.barrier);
    let mut laps = L::start(started);
    let mut state = LaneState::new(shared.shards);
    let mut report = EngineReport::default();
    let mut epoch_index: u64 = 0;
    loop {
        let parity = (report.epochs % 2) as usize;
        let (start, end) = epoch_window(epoch, epoch_index);
        state.next_ns = NEVER;
        for (slot, shard) in slots.iter_mut().zip(first_shard..) {
            // Whatever the previous epoch mailed to this shard, due or
            // not, joins its heap: the heap orders by the merge key, so
            // neither the sending lane nor an early arrival can change
            // what the shard observes.
            if report.epochs > 0 {
                for from_lane in 0..shared.lanes {
                    let mut mailed = shared.mailbox(1 - parity, from_lane, shard);
                    slot.inbox
                        .extend(mailed.drain(..).map(|env| Reverse(InboxEntry(env))));
                }
                laps.lap(Phase::Drain);
            }
            slot.run_epoch(ShardId(shard as u32), start, end, &mut state);
            laps.lap(Phase::RunEpoch);
        }
        for (to_shard, outbox) in state.out.iter_mut().enumerate() {
            if !outbox.is_empty() {
                let mut mailbox = shared.mailbox(parity, lane, to_shard);
                debug_assert!(mailbox.is_empty(), "receiver drained it an epoch ago");
                std::mem::swap(&mut *mailbox, outbox);
            }
        }
        // No data rides on this value and the barrier orders it.
        shared.next_ns[parity * shared.lanes + lane].store(state.next_ns, Ordering::Relaxed);
        laps.lap(Phase::Plan);
        let all_arrived = shared.barrier.wait();
        laps.lap(Phase::Barrier);
        if !all_arrived {
            // Another lane panicked; its payload is re-raised at the join.
            break;
        }
        report.epochs += 1;
        report.horizon = end;
        let next_ns = shared.next_ns[parity * shared.lanes..][..shared.lanes]
            .iter()
            .map(|published| published.load(Ordering::Relaxed))
            .min()
            .expect("at least one lane");
        if next_ns == NEVER {
            break;
        }
        // Skip empty epochs: jump straight to the window containing the
        // next pending instant. Windows stay on the fixed grid, so the
        // skip changes nothing observable.
        epoch_index = (next_ns / epoch.as_nanos()).max(epoch_index + 1);
        laps.lap(Phase::Plan);
    }
    laps.lap(Phase::Plan);
    report.cross_messages = state.cross_messages;
    report.local_messages = state.local_messages;
    (report, laps.profile())
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
    use crate::events::EventQueue;
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

    enum TieEvent {
        Send { to: ShardId, deliver_at: u64 },
        Local,
        Delivered { src: u32, seq: u64 },
    }

    /// A worker shaped like the rack model: deliveries join the local
    /// events in one queue, which pops in time order and FIFO among ties.
    struct TieWorker {
        shard: ShardId,
        queue: EventQueue<TieEvent>,
        log: Vec<(u64, &'static str, u32, u64)>, // (time, kind, src, seq)
    }

    impl ShardWorker for TieWorker {
        type Msg = ();

        fn run_epoch(&mut self, ctx: &mut EpochCtx<()>) {
            for env in ctx.take_inbox() {
                let delivered = TieEvent::Delivered {
                    src: env.src.0,
                    seq: env.seq,
                };
                self.queue.schedule(env.deliver_at, delivered);
            }
            while let Some((t, event)) = self.queue.pop_before(ctx.epoch_end()) {
                match event {
                    TieEvent::Send { to, deliver_at } => {
                        ctx.send(to, t, SimInstant::from_nanos(deliver_at), ())
                    }
                    TieEvent::Local => self.log.push((t.nanos(), "local", self.shard.0, 0)),
                    TieEvent::Delivered { src, seq } => {
                        self.log.push((t.nanos(), "delivered", src, seq))
                    }
                }
            }
        }

        fn next_local_at(&self) -> Option<SimInstant> {
            self.queue.next_at()
        }
    }

    /// One local event and deliveries from four sources (one of them the
    /// shard itself) at one instant, sent in epochs 0, 2 and 3 in an
    /// order unlike the merge order: what the shard observes is the
    /// literal below at every worker count.
    #[test]
    fn same_instant_local_and_deliveries_observe_one_order() {
        const SHARDS: u32 = 8;
        // (source shard, send time, deliver time), all addressed to shard 0.
        const SENDS: [(u32, u64, u64); 6] = [
            (7, 0, 400),
            (5, 0, 500),
            (0, 0, 500),
            (2, 250, 500),
            (2, 250, 500),
            (7, 350, 500),
        ];
        let run = |workers: usize| {
            let mut shards: Vec<TieWorker> = (0..SHARDS)
                .map(|s| TieWorker {
                    shard: ShardId(s),
                    queue: EventQueue::new(),
                    log: Vec::new(),
                })
                .collect();
            shards[0]
                .queue
                .schedule(SimInstant::from_nanos(500), TieEvent::Local);
            for (src, at, deliver_at) in SENDS {
                let send = TieEvent::Send {
                    to: ShardId(0),
                    deliver_at,
                };
                shards[src as usize]
                    .queue
                    .schedule(SimInstant::from_nanos(at), send);
            }
            let epoch = SimDuration::from_nanos(100);
            let (done, report) = ShardedEngine::run(workers, shards, epoch, epoch);
            assert_eq!((report.cross_messages, report.local_messages), (5, 1));
            done.into_iter().map(|w| w.log).collect::<Vec<_>>()
        };
        for workers in [1, 2, 8] {
            let logs = run(workers);
            assert_eq!(
                logs[0],
                [
                    (400, "delivered", 7, 0),
                    (500, "local", 0, 0),
                    (500, "delivered", 0, 0),
                    (500, "delivered", 2, 0),
                    (500, "delivered", 2, 1),
                    (500, "delivered", 5, 0),
                    (500, "delivered", 7, 1),
                ],
                "workers={workers}"
            );
            assert!(logs[1..].iter().all(Vec::is_empty), "workers={workers}");
        }
    }

    /// Two shards, of which `eager` makes a zero-latency cross-shard send:
    /// a lookahead violation.
    fn run_eager(workers: usize, eager: usize) {
        struct Eager(Option<SimInstant>);
        impl ShardWorker for Eager {
            type Msg = ();
            fn run_epoch(&mut self, ctx: &mut EpochCtx<()>) {
                if let Some(at) = self.0.take() {
                    ctx.send(ShardId(1 - ctx.shard().0), at, at, ());
                }
                ctx.take_inbox();
            }
            fn next_local_at(&self) -> Option<SimInstant> {
                self.0
            }
        }
        let shards = (0..2)
            .map(|s| Eager((s == eager).then_some(SimInstant::EPOCH)))
            .collect();
        ShardedEngine::run(
            workers,
            shards,
            SimDuration::from_nanos(10),
            SimDuration::from_nanos(10),
        );
    }

    #[test]
    #[should_panic(expected = "cross-shard latency must be at least one epoch")]
    fn undeliverable_latency_panics() {
        run_eager(1, 0);
    }

    /// The same panic out of a spawned lane reaches the caller with its
    /// own message, and the lane left waiting at the barrier is released.
    #[test]
    #[should_panic(expected = "cross-shard latency must be at least one epoch")]
    fn panic_in_a_spawned_lane_is_re_raised() {
        run_eager(2, 1);
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

    proptest! {
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
