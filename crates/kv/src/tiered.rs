//! A serving-grade tiered KV-cache engine for LLM conversations.
//!
//! MemDis-LLM's observation, applied to this stack: an LLM serving host
//! keeps per-conversation KV-cache state that outlives individual
//! requests, grows every turn, and is accessed with strong recency skew.
//! Local memory holds only the hot conversations; everything else must
//! go *somewhere*, and where it goes decides the tail:
//!
//! * **drop it** (local-only serving) — the next turn re-prefills the
//!   whole conversation history, milliseconds of compute;
//! * **disk offload** — restore pays a ~4 ms disk read;
//! * **disaggregated memory** — restore is a microsecond-scale batched
//!   fabric fetch, the paper's §III killer-app argument again.
//!
//! [`TieredKvEngine`] implements the third design with the other two as
//! selectable baselines ([`SpillPolicy`]). State moves at **conversation
//! granularity**: a demotion spills a whole conversation's KV bytes in
//! one coalesced batch ([`chunked::store_chunked_many`]), a restore
//! fetches them back in one ([`chunked::load_chunked_many`]), so the
//! fabric sees a few large windows instead of one verb per key. Reusable
//! **prefixes** (shared system prompts) are cached in remote memory: a
//! hit turns the whole-prefix prefill into a fetch.
//!
//! Multi-tenant wiring: conversations store under one of two virtual
//! servers — `rookie` until they have completed
//! three turns (`LONG_RUNNING_TURNS`), `veteran` after — so a
//! PR 4 QoS engine can give long-running conversations a protected
//! quota/priority while a flash crowd of new sessions is admission-
//! limited, degraded to disk instead of evicting the veterans.

use dmem_core::{chunked, DisaggregatedMemory, TierPreference};
use dmem_sim::{digest, splitmix64, SimDuration};
use dmem_types::{ByteSize, DmemResult, EntryLocation, Lru, ServerId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// Where cold conversations go when local memory is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Local → remote memory → disk (the tiered design under test).
    RemoteThenDisk,
    /// Local → disk (the conventional offload baseline).
    DiskOnly,
    /// Evicted conversations are dropped; the next turn re-prefills the
    /// whole history (the local-only baseline).
    DropCold,
}

/// Decode compute per generated token.
const DECODE_PER_TOKEN: SimDuration = SimDuration::from_micros(5);
/// Completed turns after which a conversation stores under the veteran
/// server (and thus its QoS tenant).
const LONG_RUNNING_TURNS: u32 = 3;

/// Scaled compute/storage cost model for the serving simulation.
#[derive(Debug, Clone, Copy)]
pub struct LlmCostModel {
    /// KV-cache bytes per token of context.
    pub kv_bytes_per_token: usize,
    /// Prefill compute per token (recomputing dropped context, new
    /// prompt tokens, uncached prefixes).
    pub prefill_per_token: SimDuration,
}

impl Default for LlmCostModel {
    fn default() -> Self {
        LlmCostModel {
            kv_bytes_per_token: 256,
            prefill_per_token: SimDuration::from_micros(1),
        }
    }
}

impl LlmCostModel {
    /// KV bytes for `tokens` of context.
    pub(crate) fn bytes(&self, tokens: u32) -> usize {
        tokens as usize * self.kv_bytes_per_token
    }

    /// Prefill time for `tokens`.
    pub(crate) fn prefill(&self, tokens: u32) -> SimDuration {
        self.prefill_per_token * tokens as u64
    }

    /// Decode time for `tokens`.
    pub fn decode(&self, tokens: u32) -> SimDuration {
        DECODE_PER_TOKEN * tokens as u64
    }
}

/// Configuration of a [`TieredKvEngine`].
#[derive(Debug, Clone)]
pub struct TieredKvConfig {
    /// In-heap budget for hot conversation KV state.
    pub local_capacity: ByteSize,
    /// Budget for the warm (remote-memory) tier; overflow moves on to
    /// disk. Ignored under [`SpillPolicy::DiskOnly`]/[`SpillPolicy::DropCold`].
    pub remote_capacity: ByteSize,
    /// Budget for cached prefixes in remote memory.
    pub prefix_cache_capacity: ByteSize,
    /// Spill policy for cold conversations.
    pub spill: SpillPolicy,
    /// Compute/KV scaling model.
    pub cost: LlmCostModel,
}

impl Default for TieredKvConfig {
    fn default() -> Self {
        TieredKvConfig {
            local_capacity: ByteSize::from_mib(2),
            remote_capacity: ByteSize::from_mib(16),
            prefix_cache_capacity: ByteSize::from_mib(1),
            spill: SpillPolicy::RemoteThenDisk,
            cost: LlmCostModel::default(),
        }
    }
}

/// How a turn's context was made resident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TurnServed {
    /// Context was already in local memory.
    Local,
    /// Context fetched back from remote memory.
    Remote,
    /// Context fetched back from disk.
    Disk,
    /// Context was gone (dropped); the whole history was re-prefilled.
    Recomputed,
    /// New conversation whose system prefix was served from the prefix
    /// cache — no prefix prefill.
    PrefixHit,
    /// New conversation whose system prefix had to be prefilled (and was
    /// then cached for the next conversation).
    PrefixMiss,
}

/// Counters of a [`TieredKvEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TieredKvStats {
    /// Turns served.
    pub turns: u64,
    /// Conversations opened.
    pub conversations: u64,
    /// Context restores served from local memory.
    pub local_hits: u64,
    /// Context restores fetched from remote memory.
    pub remote_fetches: u64,
    /// Context restores fetched from disk.
    pub disk_fetches: u64,
    /// Context restores that had to re-prefill dropped history.
    pub recomputes: u64,
    /// Tokens re-prefilled by those restores.
    pub recomputed_tokens: u64,
    /// New conversations served from the prefix cache.
    pub prefix_hits: u64,
    /// New conversations that prefilled (and cached) their prefix.
    pub prefix_misses: u64,
    /// Prefix-cache entries evicted to stay in budget.
    pub prefix_evictions: u64,
    /// Conversations demoted local → remote.
    pub demote_to_remote: u64,
    /// Conversations demoted onward to disk (either tier).
    pub demote_to_disk: u64,
    /// Conversations dropped under [`SpillPolicy::DropCold`].
    pub drops: u64,
}

impl TieredKvStats {
    /// Prefix-cache hit rate over conversation opens, in `[0, 1]`.
    pub fn prefix_hit_rate(&self) -> f64 {
        let total = self.prefix_hits + self.prefix_misses;
        if total == 0 {
            0.0
        } else {
            self.prefix_hits as f64 / total as f64
        }
    }
}

/// Point-in-time occupancy of every tier, for reporting (`dmem_top`) and
/// the byte-accounting invariants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierOccupancy {
    /// Conversations resident in local memory.
    pub local_convs: usize,
    /// Bytes of local KV state.
    pub local_bytes: u64,
    /// Conversations in remote memory.
    pub remote_convs: usize,
    /// Bytes in remote memory.
    pub remote_bytes: u64,
    /// Conversations on disk.
    pub disk_convs: usize,
    /// Bytes on disk.
    pub disk_bytes: u64,
    /// Cached prefixes.
    pub prefix_entries: usize,
    /// Bytes of cached prefixes.
    pub prefix_bytes: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColdTier {
    Remote,
    Disk,
}

struct ColdConv {
    server: ServerId,
    len: usize,
}

/// Key-space domains: conversation bases are session ids, prefix bases
/// live far above any session id.
const PREFIX_BASE: u64 = 1 << 40;

/// Synthetic-content domains (prefix-stable random-access streams, so a
/// recompute regenerates byte-identical state).
const DOMAIN_CONV: u64 = 0x6b76_636f_6e76_3031; // "kvconv01"
const DOMAIN_PREFIX: u64 = 0x6b76_7066_7831_3031; // "kvpfx101"

fn stream_append(domain: u64, start: usize, len: usize, out: &mut Vec<u8>) {
    out.reserve(len);
    for i in start..start + len {
        let word = splitmix64(splitmix64(domain) ^ (i as u64 / 8));
        out.push(word.to_le_bytes()[i % 8]);
    }
}

/// The tiered conversation KV-cache engine. See the module docs.
pub struct TieredKvEngine {
    dm: Arc<DisaggregatedMemory>,
    rookie: ServerId,
    veteran: ServerId,
    config: TieredKvConfig,
    /// KV bytes of every conversation in local memory.
    local: Lru<u64, Vec<u8>>,
    local_used: u64,
    /// Cold conversations in remote memory, longest-demoted first.
    remote: Lru<u64, ColdConv>,
    remote_used: u64,
    /// Cold conversations on disk.
    disk: HashMap<u64, ColdConv>,
    /// Completed turns per live conversation (tenure → tenant server).
    tenure: HashMap<u64, u32>,
    /// Prefix id of each live conversation, for canonical resynthesis.
    prefix_of: HashMap<u64, u32>,
    /// Byte length of every cached prefix.
    prefix: Lru<u32, usize>,
    prefix_used: u64,
    stats: TieredKvStats,
    demotions: u64,
    demotion_fnv: u64,
}

impl TieredKvEngine {
    /// Mirrors a serving-path event into the cluster metrics registry as
    /// a `kv.*` counter: the [`TieredKvStats`] totals only tell
    /// end-of-run, while these let the timeline sampler and the
    /// spill-thrash alert rules see tier traffic per window.
    fn kv_count(&self, name: &str) {
        self.dm.metrics().counter(name).inc();
    }

    /// Creates an engine with a tenant split: conversations below
    /// three completed turns (`LONG_RUNNING_TURNS`) store under
    /// `rookie`, older ones (and the prefix cache) under `veteran`.
    /// Register the two servers with distinct QoS tenants to isolate
    /// long-running conversations from flash crowds.
    pub fn with_servers(
        dm: Arc<DisaggregatedMemory>,
        rookie: ServerId,
        veteran: ServerId,
        config: TieredKvConfig,
    ) -> Self {
        TieredKvEngine {
            dm,
            rookie,
            veteran,
            config,
            local: Lru::with_capacity(0),
            local_used: 0,
            remote: Lru::with_capacity(0),
            remote_used: 0,
            disk: HashMap::new(),
            tenure: HashMap::new(),
            prefix_of: HashMap::new(),
            prefix: Lru::with_capacity(0),
            prefix_used: 0,
            stats: TieredKvStats::default(),
            demotions: 0,
            demotion_fnv: digest::OFFSET,
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> TieredKvStats {
        self.stats
    }

    /// The engine's cost model.
    pub fn cost(&self) -> &LlmCostModel {
        &self.config.cost
    }

    /// Point-in-time per-tier occupancy.
    pub fn occupancy(&self) -> TierOccupancy {
        TierOccupancy {
            local_convs: self.local.len(),
            local_bytes: self.local_used,
            remote_convs: self.remote.len(),
            remote_bytes: self.remote_used,
            disk_convs: self.disk.len(),
            disk_bytes: self.disk.values().map(|cold| cold.len as u64).sum(),
            prefix_entries: self.prefix.len(),
            prefix_bytes: self.prefix_used,
        }
    }

    /// Deterministic digest of the demotion sequence `(session, target)`
    /// — two runs of the same workload must agree byte-for-byte.
    pub fn demotion_digest(&self) -> String {
        format!("n={} fnv={:#018x}", self.demotions, self.demotion_fnv)
    }

    fn note_demotion(&mut self, session: u64, target: u8) {
        self.demotions += 1;
        let folded = digest::fold(self.demotion_fnv, &session.to_le_bytes());
        self.demotion_fnv = digest::fold(folded, &[target]);
    }

    /// Where `session` is stored cold, in either tier.
    fn cold(&self, session: u64) -> Option<&ColdConv> {
        self.remote.get(&session).or_else(|| self.disk.get(&session))
    }

    fn server_for(&self, session: u64) -> ServerId {
        if self.tenure.get(&session).copied().unwrap_or(0) >= LONG_RUNNING_TURNS {
            self.veteran
        } else {
            self.rookie
        }
    }

    /// Canonical KV bytes of `session` at `len` bytes of context: the
    /// shared prefix stream first, the session's own stream after. A
    /// recompute regenerates exactly these bytes.
    fn synth_context(&self, session: u64, len: usize) -> Vec<u8> {
        let prefix_id = self.prefix_of.get(&session).copied().unwrap_or(0);
        let prefix_len = self.prefix.get(&prefix_id).copied().unwrap_or(0).min(len);
        let mut out = Vec::with_capacity(len);
        stream_append(DOMAIN_PREFIX ^ u64::from(prefix_id), 0, prefix_len, &mut out);
        stream_append(DOMAIN_CONV ^ splitmix64(session), prefix_len, len - prefix_len, &mut out);
        out
    }

    fn synth_prefix(&self, prefix_id: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        stream_append(DOMAIN_PREFIX ^ u64::from(prefix_id), 0, len, &mut out);
        out
    }

    fn insert_local(&mut self, session: u64, bytes: Vec<u8>) -> DmemResult<()> {
        self.make_room(bytes.len() as u64, Some(session))?;
        self.local_used += bytes.len() as u64;
        if let Some(displaced) = self.local.insert(session, bytes) {
            self.local_used -= displaced.len() as u64;
        }
        Ok(())
    }

    /// Demotes LRU conversations until `incoming` more local bytes fit,
    /// spilling all victims in one coalesced batch. `pin` is never chosen
    /// as a victim (the conversation being served); a pinned conversation
    /// larger than the whole budget is allowed to overshoot transiently —
    /// its own demotion resolves it at the next insert.
    fn make_room(&mut self, incoming: u64, pin: Option<u64>) -> DmemResult<()> {
        let capacity = self.config.local_capacity.as_u64();
        let mut victims: Vec<u64> = Vec::new();
        let mut freed = 0u64;
        for (&session, bytes) in self.local.iter() {
            if self.local_used - freed + incoming <= capacity {
                break;
            }
            if Some(session) == pin {
                continue;
            }
            freed += bytes.len() as u64;
            victims.push(session);
        }
        self.spill(victims)
    }

    /// Spills `victims` out of local memory according to the policy, in
    /// deterministic LRU order, with all stores coalesced per server.
    fn spill(&mut self, victims: Vec<u64>) -> DmemResult<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let span = self.dm.clock().tracer().span("kv", "spill");
        span.tag("convs", victims.len());
        let mut taken: Vec<(u64, Vec<u8>)> = Vec::with_capacity(victims.len());
        for session in victims {
            let bytes = self.local.remove(&session).expect("victim is local");
            self.local_used -= bytes.len() as u64;
            taken.push((session, bytes));
        }
        match self.config.spill {
            SpillPolicy::DropCold => {
                for (session, bytes) in taken {
                    self.stats.drops += 1;
                    self.kv_count("kv.drop");
                    self.note_demotion(session, b'x');
                    drop(bytes);
                }
                Ok(())
            }
            SpillPolicy::DiskOnly => {
                for (session, _) in &taken {
                    self.stats.demote_to_disk += 1;
                    self.kv_count("kv.demote.disk");
                    self.note_demotion(*session, b'd');
                }
                self.store_cold(taken, ColdTier::Disk)
            }
            SpillPolicy::RemoteThenDisk => {
                let incoming: u64 = taken.iter().map(|(_, b)| b.len() as u64).sum();
                self.shrink_remote(incoming)?;
                for (session, _) in &taken {
                    self.stats.demote_to_remote += 1;
                    self.kv_count("kv.demote.remote");
                    self.note_demotion(*session, b'r');
                }
                self.store_cold(taken, ColdTier::Remote)
            }
        }
    }

    /// Moves remote-LRU conversations to disk until `incoming` more
    /// bytes fit the remote budget. A real data move: the bytes travel
    /// back over the fabric and down to disk, batched both ways.
    fn shrink_remote(&mut self, incoming: u64) -> DmemResult<()> {
        let capacity = self.config.remote_capacity.as_u64();
        let mut victims: Vec<u64> = Vec::new();
        let mut by_server: BTreeMap<ServerId, Vec<u64>> = BTreeMap::new();
        let mut freed = 0u64;
        for (&session, cold) in self.remote.iter() {
            if self.remote_used - freed + incoming <= capacity {
                break;
            }
            freed += cold.len as u64;
            victims.push(session);
            by_server.entry(cold.server).or_default().push(session);
        }
        if victims.is_empty() {
            return Ok(());
        }
        let span = self.dm.clock().tracer().span("kv", "demote_disk");
        span.tag("convs", victims.len());
        // Fetch every victim's bytes (coalesced per server), then
        // re-store them to disk; `put_batch` replaces the old remote
        // entries in place.
        for (server, sessions) in by_server {
            let loaded = chunked::load_chunked_many(&self.dm, server, &sessions)?;
            let items: Vec<(u64, &[u8])> = sessions
                .iter()
                .zip(&loaded)
                .map(|(&s, b)| (s, b.as_slice()))
                .collect();
            chunked::store_chunked_many(&self.dm, server, &items, TierPreference::Disk)?;
            for &session in &sessions {
                let cold = self.remote.remove(&session).expect("victim remote");
                self.remote_used -= cold.len as u64;
                self.disk.insert(session, cold);
                self.stats.demote_to_disk += 1;
                self.kv_count("kv.demote.disk");
            }
        }
        for session in victims {
            self.note_demotion(session, b'D');
        }
        Ok(())
    }

    /// Stores evicted conversations cold, coalesced per tenant server,
    /// classifying each by where it actually landed (QoS admission may
    /// degrade a remote store to disk).
    fn store_cold(&mut self, taken: Vec<(u64, Vec<u8>)>, want: ColdTier) -> DmemResult<()> {
        let pref = match want {
            ColdTier::Remote => TierPreference::Remote,
            ColdTier::Disk => TierPreference::Disk,
        };
        let mut by_server: BTreeMap<ServerId, Vec<(u64, Vec<u8>)>> = BTreeMap::new();
        for (session, bytes) in taken {
            by_server
                .entry(self.server_for(session))
                .or_default()
                .push((session, bytes));
        }
        for (server, items) in by_server {
            let refs: Vec<(u64, &[u8])> =
                items.iter().map(|(s, b)| (*s, b.as_slice())).collect();
            chunked::store_chunked_many(&self.dm, server, &refs, pref)?;
            for (session, bytes) in items {
                let landed = match chunked::tier_of(&self.dm, server, session) {
                    Some(EntryLocation::Disk) => ColdTier::Disk,
                    _ => want,
                };
                let len = bytes.len();
                if landed == ColdTier::Remote {
                    self.remote_used += len as u64;
                    self.remote.insert(session, ColdConv { server, len });
                } else {
                    self.disk.insert(session, ColdConv { server, len });
                }
            }
        }
        Ok(())
    }

    /// Fetches several conversations' KV state, promoting cold ones back
    /// to local memory with per-server coalesced batch reads — the
    /// serving analogue of core `get_batch`. Returns each conversation's
    /// bytes in `sessions` order, `None` for unknown (never stored or
    /// dropped) conversations.
    ///
    /// # Errors
    ///
    /// Propagates disaggregated-memory failures.
    pub(crate) fn get_many(&mut self, sessions: &[u64]) -> DmemResult<Vec<Option<Vec<u8>>>> {
        let span = self.dm.clock().tracer().span("kv", "get_many");
        span.tag("convs", sessions.len());
        // Snapshot local hits before promotions can evict them, then
        // promote every cold requested conversation, batched per server.
        let mut found: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut by_server: BTreeMap<ServerId, Vec<u64>> = BTreeMap::new();
        for &session in sessions {
            if let Some(bytes) = self.local.touch(&session) {
                found.entry(session).or_insert_with(|| bytes.clone());
            } else if let Some(cold) = self.cold(session) {
                by_server.entry(cold.server).or_default().push(session);
            }
        }
        for (server, mut batch) in by_server {
            batch.sort_unstable();
            batch.dedup();
            let loaded = chunked::load_chunked_many(&self.dm, server, &batch)?;
            for (session, bytes) in batch.into_iter().zip(loaded) {
                if let Some(cold) = self.remote.remove(&session) {
                    self.remote_used -= cold.len as u64;
                    self.stats.remote_fetches += 1;
                    self.kv_count("kv.fetch.remote");
                } else {
                    self.disk.remove(&session).expect("requested cold");
                    self.stats.disk_fetches += 1;
                    self.kv_count("kv.fetch.disk");
                }
                chunked::delete_chunked(&self.dm, server, session);
                found.insert(session, bytes.clone());
                self.insert_local(session, bytes)?;
            }
        }
        Ok(sessions.iter().map(|s| found.get(s).cloned()).collect())
    }

    /// Inserts (or overwrites) whole conversations' KV state in one
    /// call, demoting in coalesced batches as needed. This is the bulk
    /// counterpart of the per-turn path, and the write half of the
    /// batch-verb API.
    ///
    /// # Errors
    ///
    /// Propagates disaggregated-memory failures from demotions.
    #[cfg(test)]
    pub(crate) fn put_many(&mut self, items: Vec<(u64, Vec<u8>)>) -> DmemResult<()> {
        let span = self.dm.clock().tracer().span("kv", "put_many");
        span.tag("convs", items.len());
        for (session, bytes) in items {
            self.forget(session);
            self.insert_local(session, bytes)?;
        }
        Ok(())
    }

    /// Removes any stored copy of `session` without statistics — the
    /// overwrite half of [`put_many`](Self::put_many) and retirement.
    fn forget(&mut self, session: u64) {
        if let Some(bytes) = self.local.remove(&session) {
            self.local_used -= bytes.len() as u64;
        }
        self.forget_cold(session);
    }

    /// Removes `session`'s cold copy, in either tier, with its stored
    /// bytes.
    fn forget_cold(&mut self, session: u64) {
        let remote = self.remote.remove(&session);
        if let Some(cold) = &remote {
            self.remote_used -= cold.len as u64;
        }
        if let Some(cold) = remote.or_else(|| self.disk.remove(&session)) {
            chunked::delete_chunked(&self.dm, cold.server, session);
        }
    }

    /// Serves the context-restore half of a turn: make `session`'s KV
    /// state resident local (fetching or re-prefilling as needed), then
    /// prefill the new prompt. The virtual time this call advances the
    /// clock by **is** the turn's time-to-first-token, queueing aside.
    ///
    /// `turn == 0` opens the conversation and serves its shared system
    /// prefix from the prefix cache when possible.
    ///
    /// # Errors
    ///
    /// Propagates disaggregated-memory failures.
    pub fn begin_turn(
        &mut self,
        session: u64,
        turn: u32,
        prefix_id: u32,
        context_tokens: u32,
        prompt_tokens: u32,
    ) -> DmemResult<TurnServed> {
        let clock = self.dm.clock().clone();
        self.stats.turns += 1;
        let served = if turn == 0 {
            // A re-opened session starts over: its old cold copy goes.
            self.forget_cold(session);
            self.stats.conversations += 1;
            self.tenure.insert(session, 0);
            self.prefix_of.insert(session, prefix_id);
            let prefix_len = self.config.cost.bytes(context_tokens);
            if self.prefix.contains(&prefix_id) {
                // Cached prefix: the conversation's opening KV state is
                // a microsecond fetch instead of a prefix prefill.
                let bytes =
                    chunked::load_chunked(&self.dm, self.veteran, PREFIX_BASE | u64::from(prefix_id))?;
                self.prefix.touch(&prefix_id);
                let mut opening = bytes;
                opening.truncate(prefix_len);
                self.insert_local(session, opening)?;
                self.stats.prefix_hits += 1;
                self.kv_count("kv.prefix.hit");
                TurnServed::PrefixHit
            } else {
                clock.advance(self.config.cost.prefill(context_tokens));
                let bytes = self.synth_prefix(prefix_id, prefix_len);
                self.cache_prefix(prefix_id, &bytes)?;
                self.insert_local(session, bytes)?;
                self.stats.prefix_misses += 1;
                self.kv_count("kv.prefix.miss");
                TurnServed::PrefixMiss
            }
        } else if self.local.touch(&session).is_some() {
            self.stats.local_hits += 1;
            self.kv_count("kv.local.hit");
            TurnServed::Local
        } else if self.cold(session).is_some() {
            let was_remote = self.remote.contains(&session);
            let span = self.dm.clock().tracer().span("kv", "restore");
            span.tag("convs", 1usize);
            drop(span);
            self.get_many(&[session])?;
            if was_remote {
                TurnServed::Remote
            } else {
                TurnServed::Disk
            }
        } else {
            // Dropped (or never seen): the whole history is re-prefilled.
            clock.advance(self.config.cost.prefill(context_tokens));
            self.prefix_of.entry(session).or_insert(prefix_id);
            let bytes = self.synth_context(session, self.config.cost.bytes(context_tokens));
            self.insert_local(session, bytes)?;
            self.stats.recomputes += 1;
            self.stats.recomputed_tokens += u64::from(context_tokens);
            self.kv_count("kv.recompute");
            TurnServed::Recomputed
        };
        // New prompt tokens always prefill.
        clock.advance(self.config.cost.prefill(prompt_tokens));
        debug_assert!(self.in_one_tier(), "a session is in two tiers after turn {turn} of {session}");
        Ok(served)
    }

    /// The standing invariant: every session is in at most one tier.
    fn in_one_tier(&self) -> bool {
        self.local.iter().all(|(session, _)| self.cold(*session).is_none())
            && self.remote.iter().all(|(session, _)| !self.disk.contains_key(session))
    }

    /// Finishes a turn: appends the KV state of the tokens it added.
    /// Decode time is charged by the caller (first token already counted
    /// in [`begin_turn`](Self::begin_turn)).
    ///
    /// # Errors
    ///
    /// Propagates demotion failures; the conversation must be resident
    /// (i.e. `begin_turn` was called).
    pub fn end_turn(&mut self, session: u64, new_tokens: u32) -> DmemResult<()> {
        let delta = self.config.cost.bytes(new_tokens);
        let offset = self.local.get(&session).expect("resident after begin_turn").len();
        let prefix_id = self.prefix_of.get(&session).copied().unwrap_or(0);
        let prefix_len = self.prefix.get(&prefix_id).copied().unwrap_or(0);
        let mut grown = Vec::new();
        stream_append(
            DOMAIN_CONV ^ splitmix64(session),
            offset.max(prefix_len),
            delta,
            &mut grown,
        );
        self.make_room(delta as u64, Some(session))?;
        let bytes = self.local.touch(&session).expect("pinned through make_room");
        bytes.extend_from_slice(&grown);
        self.local_used += delta as u64;
        *self.tenure.entry(session).or_insert(0) += 1;
        Ok(())
    }

    /// Retires a conversation, freeing every tier.
    pub fn retire(&mut self, session: u64) {
        self.forget(session);
        self.tenure.remove(&session);
        self.prefix_of.remove(&session);
    }

    /// Inserts a prefix into the remote-memory prefix cache, evicting
    /// LRU prefixes to stay in budget. Oversized prefixes are skipped
    /// rather than thrashing the whole cache.
    fn cache_prefix(&mut self, prefix_id: u32, bytes: &[u8]) -> DmemResult<()> {
        let capacity = self.config.prefix_cache_capacity.as_u64();
        if bytes.len() as u64 > capacity {
            return Ok(());
        }
        while self.prefix_used + bytes.len() as u64 > capacity {
            let (victim, len) = self.prefix.pop_lru().expect("cache nonempty");
            self.prefix_used -= len as u64;
            chunked::delete_chunked(&self.dm, self.veteran, PREFIX_BASE | u64::from(victim));
            self.stats.prefix_evictions += 1;
        }
        chunked::store_chunked(
            &self.dm,
            self.veteran,
            PREFIX_BASE | u64::from(prefix_id),
            bytes,
            TierPreference::Remote,
        )?;
        self.prefix_used += bytes.len() as u64;
        if let Some(displaced) = self.prefix.insert(prefix_id, bytes.len()) {
            self.prefix_used -= displaced as u64;
        }
        Ok(())
    }
}

impl fmt::Debug for TieredKvEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let occ = self.occupancy();
        f.debug_struct("TieredKvEngine")
            .field("local", &occ.local_convs)
            .field("remote", &occ.remote_convs)
            .field("disk", &occ.disk_convs)
            .field("prefixes", &occ.prefix_entries)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmem_types::ClusterConfig;

    fn engine(config: TieredKvConfig) -> TieredKvEngine {
        let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
        let server = dm.servers()[0];
        TieredKvEngine::with_servers(dm, server, server, config)
    }

    fn tight() -> TieredKvConfig {
        TieredKvConfig {
            local_capacity: ByteSize::from_kib(64),
            remote_capacity: ByteSize::from_kib(256),
            prefix_cache_capacity: ByteSize::from_kib(64),
            ..TieredKvConfig::default()
        }
    }

    /// Drives `sessions` conversations of `turns` turns each, round-robin,
    /// with a 32-token prefix and 16 new tokens per turn.
    fn drive(engine: &mut TieredKvEngine, sessions: u64, turns: u32) {
        for turn in 0..turns {
            for session in 0..sessions {
                let ctx = 32 + turn * 16;
                engine
                    .begin_turn(session, turn, (session % 2) as u32, ctx, 8)
                    .unwrap();
                engine.end_turn(session, 16).unwrap();
            }
        }
    }

    #[test]
    fn prefix_cache_hits_skip_prefill() {
        let mut e = engine(tight());
        let clock = e.dm.clock().clone();

        let t0 = clock.now();
        assert_eq!(e.begin_turn(1, 0, 7, 128, 0).unwrap(), TurnServed::PrefixMiss);
        let miss_cost = clock.now() - t0;

        let t1 = clock.now();
        assert_eq!(e.begin_turn(2, 0, 7, 128, 0).unwrap(), TurnServed::PrefixHit);
        let hit_cost = clock.now() - t1;

        assert!(
            hit_cost.as_nanos() < miss_cost.as_nanos() / 4,
            "cached prefix should beat prefill: hit {hit_cost} vs miss {miss_cost}"
        );
        assert_eq!(e.stats().prefix_hits, 1);
        assert_eq!(e.stats().prefix_misses, 1);
        // Both conversations opened with identical (shared-prefix) state.
        let got = e.get_many(&[1, 2]).unwrap();
        assert_eq!(got[0], got[1]);
        assert_eq!(got[0].as_ref().unwrap().len(), e.cost().bytes(128));
    }

    #[test]
    fn cold_conversations_restore_from_remote() {
        let mut e = engine(tight());
        drive(&mut e, 24, 4); // 24 convs × (32+3·16)·16 tokens ≫ 64 KiB local
        let stats = e.stats();
        assert!(stats.demote_to_remote > 0, "tight local budget must spill");
        assert!(
            stats.remote_fetches > 0,
            "round-robin re-touch must restore from remote: {stats:?}"
        );
        assert_eq!(stats.recomputes, 0, "tiered serving never recomputes");
        let occ = e.occupancy();
        assert!(occ.local_bytes <= 64 * 1024);
        assert_eq!(
            occ.local_convs + occ.remote_convs + occ.disk_convs,
            24,
            "every conversation lives in exactly one tier"
        );
    }

    #[test]
    fn remote_budget_overflows_to_disk() {
        let mut e = engine(TieredKvConfig {
            remote_capacity: ByteSize::from_kib(32),
            ..tight()
        });
        drive(&mut e, 24, 4);
        let stats = e.stats();
        assert!(stats.demote_to_disk > 0, "remote budget must overflow to disk");
        assert!(e.occupancy().remote_bytes <= 32 * 1024);
    }

    #[test]
    fn disk_only_baseline_restores_from_disk() {
        let mut e = engine(TieredKvConfig {
            spill: SpillPolicy::DiskOnly,
            ..tight()
        });
        drive(&mut e, 24, 4);
        let stats = e.stats();
        assert!(stats.disk_fetches > 0, "{stats:?}");
        assert_eq!(stats.remote_fetches, 0);
        assert_eq!(e.occupancy().remote_convs, 0);
    }

    #[test]
    fn drop_cold_baseline_recomputes_history() {
        let mut e = engine(TieredKvConfig {
            spill: SpillPolicy::DropCold,
            ..tight()
        });
        drive(&mut e, 24, 4);
        let stats = e.stats();
        assert!(stats.recomputes > 0, "{stats:?}");
        assert!(stats.recomputed_tokens > 0);
        assert_eq!(stats.remote_fetches + stats.disk_fetches, 0);
        assert_eq!(e.occupancy().remote_convs + e.occupancy().disk_convs, 0);
    }

    #[test]
    fn restores_are_byte_exact() {
        let mut e = engine(tight());
        drive(&mut e, 24, 4);
        // Whatever tier each conversation sits in, its bytes must match
        // the canonical synthesis for its context length.
        let sessions: Vec<u64> = (0..24).collect();
        let got = e.get_many(&sessions).unwrap();
        for (session, bytes) in sessions.iter().zip(&got) {
            let bytes = bytes.as_ref().expect("all conversations stored");
            assert_eq!(
                bytes,
                &e.synth_context(*session, bytes.len()),
                "conversation {session} corrupted in tiering"
            );
        }
    }

    #[test]
    fn identical_runs_demote_identically() {
        let digest = |_: ()| {
            let mut e = engine(tight());
            drive(&mut e, 24, 4);
            (e.demotion_digest(), e.stats())
        };
        assert_eq!(digest(()), digest(()));
        let (d, stats) = digest(());
        assert!(d.starts_with(&format!("n={} ", e_demotions(&stats))));
    }

    fn e_demotions(stats: &TieredKvStats) -> u64 {
        stats.demote_to_remote + stats.demote_to_disk + stats.drops
    }

    #[test]
    fn retire_frees_every_tier() {
        let mut e = engine(tight());
        drive(&mut e, 24, 4);
        for session in 0..24 {
            e.retire(session);
        }
        let occ = e.occupancy();
        assert_eq!(occ.local_convs + occ.remote_convs + occ.disk_convs, 0);
        assert_eq!(occ.local_bytes, 0);
        assert_eq!(occ.remote_bytes, 0);
        // No conversation chunks left behind in disaggregated memory.
        for session in 0..24 {
            assert!(!chunked::contains_chunked(&e.dm, e.rookie, session));
            assert!(!chunked::contains_chunked(&e.dm, e.veteran, session));
        }
    }

    #[test]
    fn tenant_split_routes_veterans() {
        let dm = Arc::new(DisaggregatedMemory::new(ClusterConfig::small()).unwrap());
        let rookie = dm.servers()[0];
        let veteran = dm.servers()[1];
        let mut e = TieredKvEngine::with_servers(dm, rookie, veteran, tight());
        drive(&mut e, 24, 4); // 4 completed turns > LONG_RUNNING_TURNS
        // All spilled conversations completed ≥3 turns by their last
        // demotion or were demoted early as rookies; at least the final
        // state of long-lived sessions must sit under the veteran server.
        let veteran_cold = e
            .remote
            .iter()
            .chain(&e.disk)
            .filter(|(_, c)| c.server == e.veteran)
            .count();
        assert!(veteran_cold > 0, "long-running conversations use the veteran tenant");
    }

    #[test]
    fn opening_a_session_twice_counts_it_once() {
        let mut e = engine(tight());
        for _ in 0..2 {
            e.begin_turn(1, 0, 0, 32, 8).unwrap();
            e.end_turn(1, 16).unwrap();
        }
        let local_sum = |e: &TieredKvEngine| -> u64 {
            e.local.iter().map(|(_, bytes)| bytes.len() as u64).sum()
        };
        assert_eq!(e.occupancy().local_convs, 1);
        assert_eq!(e.occupancy().local_bytes, local_sum(&e));
        // Demoting past the doubled session used to find its id twice in
        // the recency index and panic on the second.
        for session in 2..202 {
            e.begin_turn(session, 0, 0, 32, 8).unwrap();
            e.end_turn(session, 16).unwrap();
        }
        assert_eq!(e.occupancy().local_bytes, local_sum(&e));
        assert!(e.occupancy().local_bytes <= 64 * 1024);
    }

    #[test]
    fn reopening_a_cold_session_keeps_one_copy() {
        let mut e = engine(TieredKvConfig {
            remote_capacity: ByteSize::from_kib(32),
            ..tight()
        });
        let open = |e: &mut TieredKvEngine, session: u64| {
            e.begin_turn(session, 0, 0, 32, 8).unwrap();
            e.end_turn(session, 16).unwrap();
        };
        open(&mut e, 1);
        // Open others until session 1 has gone to remote and on to disk.
        let mut was_remote = false;
        for session in 2..400 {
            was_remote |= e.remote.contains(&1);
            if e.disk.contains_key(&1) {
                break;
            }
            open(&mut e, session);
        }
        assert!(was_remote && e.disk.contains_key(&1), "session 1 demoted twice");
        // Re-open it: the fresh opening state is the only copy left.
        e.begin_turn(1, 0, 0, 32, 8).unwrap();
        assert!(e.local.contains(&1));
        assert!(e.cold(1).is_none(), "session 1 is local and still cold");
        assert!(!chunked::contains_chunked(&e.dm, e.rookie, 1), "its cold bytes stay stored");
    }

    #[test]
    fn put_get_many_roundtrip_under_churn() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::new(
            proptest::test_runner::Config::with_cases(16),
        );
        let ops = proptest::collection::vec(
            (0u8..4, 0u64..16, 1usize..32_000),
            1..60,
        );
        runner
            .run(&ops, |ops| {
                let mut e = engine(TieredKvConfig {
                    local_capacity: ByteSize::from_kib(32),
                    remote_capacity: ByteSize::from_kib(64),
                    ..TieredKvConfig::default()
                });
                let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
                for (kind, session, len) in ops {
                    match kind {
                        0 => {
                            let value: Vec<u8> = (0..len)
                                .map(|i| splitmix64(session ^ i as u64) as u8)
                                .collect();
                            e.put_many(vec![(session, value.clone())]).unwrap();
                            model.insert(session, value);
                        }
                        1 => {
                            let got = e.get_many(&[session]).unwrap();
                            prop_assert_eq!(got[0].as_ref(), model.get(&session));
                        }
                        2 => {
                            // Re-open (or open): turn 0 replaces whatever
                            // the session held with its 32-token prefix.
                            e.begin_turn(session, 0, 0, 32, 0).unwrap();
                            model.insert(session, e.synth_prefix(0, e.cost().bytes(32)));
                        }
                        _ => {
                            e.retire(session);
                            model.remove(&session);
                        }
                    }
                    // Tier-demotion invariants hold after every op.
                    let occ = e.occupancy();
                    prop_assert_eq!(
                        occ.local_convs + occ.remote_convs + occ.disk_convs,
                        model.len(),
                        "each session in exactly one tier"
                    );
                    let local_sum: u64 =
                        e.local.iter().map(|(_, bytes)| bytes.len() as u64).sum();
                    prop_assert_eq!(occ.local_bytes, local_sum);
                    prop_assert_eq!(e.local_used, local_sum);
                    for (&session, cold) in e.remote.iter().chain(&e.disk) {
                        prop_assert!(
                            !e.local.contains(&session),
                            "session {} in two tiers",
                            session
                        );
                        prop_assert!(
                            chunked::contains_chunked(&e.dm, cold.server, session),
                            "cold session {} missing from disaggregated memory",
                            session
                        );
                    }
                    prop_assert!(occ.remote_bytes <= 64 * 1024);
                }
                // Closing audit: every session readable, byte-exact.
                let sessions: Vec<u64> = {
                    let mut s: Vec<u64> = model.keys().copied().collect();
                    s.sort_unstable();
                    s
                };
                let got = e.get_many(&sessions).unwrap();
                for (session, bytes) in sessions.iter().zip(&got) {
                    prop_assert_eq!(bytes.as_ref(), model.get(session));
                }
                Ok(())
            })
            .unwrap();
    }

    #[test]
    fn replayed_op_sequences_demote_identically() {
        use proptest::prelude::*;
        let mut runner = proptest::test_runner::TestRunner::new(
            proptest::test_runner::Config::with_cases(8),
        );
        let ops = proptest::collection::vec((0u64..16, 1usize..24_000), 1..40);
        runner
            .run(&ops, |ops| {
                let run = |ops: &[(u64, usize)]| {
                    let mut e = engine(TieredKvConfig {
                        local_capacity: ByteSize::from_kib(32),
                        ..TieredKvConfig::default()
                    });
                    for &(session, len) in ops {
                        e.put_many(vec![(session, vec![0xa5; len])]).unwrap();
                    }
                    (e.demotion_digest(), e.stats())
                };
                prop_assert_eq!(run(&ops), run(&ops));
                Ok(())
            })
            .unwrap();
    }
}
