//! `tier_read` and `tier_write`: `DisaggregatedMemory` driven directly,
//! one workload per direction.
//!
//! Both run on an `ext_crossover`-shaped cluster (4 nodes × 2 servers, a
//! CXL pool, local NVM, compression off) with a QoS engine installed and
//! one generously provisioned tenant, so admission and metering run but
//! never throttle. Values come in three size classes around 64 B, 4 KiB
//! and 64 KiB (60 / 35 / 5 % of the keys) spread over all six tier
//! preferences, so every tier and the disk-fallback ladder hold entries.
//!
//! `tier_read` fills once in set-up and then only reads: the `core` get
//! path, `net` reads, CXL loads and replicated `cluster` loads dominate,
//! while `compress`, `swap` and `sim::shard` do nothing. `tier_write`
//! rebuilds the cluster every round and only writes and deletes:
//! placement, replication, pool allocation and QoS admission run here and
//! not in `tier_read`, so a read gain bought with a write cost shows.

use super::{counters, mix_cluster};
use crate::harness::{
    arm_tracer, drain_tracer, observed, Budget, Layers, Observer, Round, SetupTimes, Workload,
};
use crate::stats::{counter_delta, Fnv};
use dmem_core::{DisaggregatedMemory, TierPreference};
use dmem_qos::{QosConfig, QosEngine, TenantSpec};
use dmem_sim::{splitmix64, DetRng};
use dmem_types::{
    ByteSize, ClusterConfig, CompressionMode, CxlPoolConfig, DonationPolicy, NodeConfig,
    ServerConfig, ServerId,
};
use dmem_workloads::ZipfSampler;
use std::sync::Arc;
use std::time::Instant;

pub const PREFS: [TierPreference; 6] = [
    TierPreference::NodeShared,
    TierPreference::Cxl,
    TierPreference::Nvm,
    TierPreference::Remote,
    TierPreference::Disk,
    TierPreference::Auto,
];
const DISK_PREF: u8 = 4;

/// Nominal value size per class; a key's own size is drawn from the seed
/// between half and one and a half times this.
const NOMINAL_LEN: [usize; 3] = [64, 4096, 65536];
/// Keys per `get_batch` / `put_batch` call.
pub const WINDOW: usize = 32;
/// Operations between two QoS controller passes.
const QOS_TICK_EVERY: usize = 2048;

const READ_KEYS: usize = 16384;
const READ_OPS: usize = 65536;
const ZIPF_EXPONENT: f64 = 0.99;
const WRITE_OPS: usize = 20480;

fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        servers_per_node: 2,
        node: NodeConfig {
            dram: ByteSize::from_mib(64),
            slab_size: ByteSize::from_kib(64),
            send_pool: ByteSize::from_mib(2),
            recv_pool: ByteSize::from_mib(12),
            nvm_pool: ByteSize::from_mib(16),
        },
        server: ServerConfig {
            memory: ByteSize::from_mib(8),
            donation: DonationPolicy::fixed(0.5),
        },
        compression: CompressionMode::Off,
        cxl: CxlPoolConfig::new(4, ByteSize::from_mib(4)),
        ..ClusterConfig::small()
    }
}

/// The cluster plus the two servers (on different nodes) that own the
/// keys: even keys belong to the first, odd keys to the second.
fn build_cluster() -> (DisaggregatedMemory, [ServerId; 2]) {
    let dm = DisaggregatedMemory::new(cluster_config()).expect("a valid cluster configuration");
    let servers = [dm.servers()[0], dm.servers()[2]];
    let engine = Arc::new(QosEngine::new(QosConfig::default()));
    let tenant = engine.register_tenant(TenantSpec::new("bench", 200, ByteSize::from_mib(1024)));
    engine.assign_server(servers[0], tenant);
    dm.install_qos(engine);
    (dm, servers)
}

#[derive(Debug, Clone, Copy)]
struct KeyAttr {
    class: u8,
    pref: u8,
    len: u32,
}

/// Size class, tier preference and exact length of every key, and the
/// bytes its value holds.
///
/// Class and preference are a fixed hash of the key, so the popular ranks
/// of the zipf distribution sit in the same tiers under every seed and
/// the virtual results vary between seeds only by sampling noise. The
/// seed draws the lengths, the payload bytes and the operation sequence.
struct KeySpace {
    attrs: Vec<KeyAttr>,
    /// One incompressible buffer per class, as long as the class's
    /// longest value: a value is a prefix of it with an 8-byte tag of the
    /// key and version at the front, so generation costs one copy.
    templates: [Vec<u8>; 3],
    salt: u64,
}

impl KeySpace {
    fn new(keys: usize, seed: u64) -> Self {
        let mut rng = DetRng::new(seed).fork("keyspace");
        let attrs = (0..keys as u64)
            .map(|key| {
                let h = splitmix64(key ^ 0x7e57_ab1e);
                let class = match h % 20 {
                    0..=11 => 0,
                    12..=18 => 1,
                    _ => 2,
                };
                let nominal = NOMINAL_LEN[class as usize];
                KeyAttr {
                    class,
                    pref: ((h >> 8) % PREFS.len() as u64) as u8,
                    len: (nominal / 2 + rng.below(nominal)) as u32,
                }
            })
            .collect();
        let templates = NOMINAL_LEN.map(|nominal| {
            let mut state = rng.below(1 << 62) as u64;
            (0..nominal / 2 + nominal)
                .map(|_| {
                    state = splitmix64(state);
                    (state >> 56) as u8
                })
                .collect()
        });
        KeySpace {
            attrs,
            templates,
            salt: rng.below(1 << 62) as u64,
        }
    }

    fn tag(&self, key: u32, version: u16) -> [u8; 8] {
        splitmix64(self.salt ^ u64::from(key) ^ (u64::from(version) << 40)).to_le_bytes()
    }

    fn value(&self, key: u32, version: u16) -> Vec<u8> {
        let attr = self.attrs[key as usize];
        let mut value = self.templates[attr.class as usize][..attr.len as usize].to_vec();
        value[..8].copy_from_slice(&self.tag(key, version));
        value
    }

    /// Length and tag only: the check a timed round can afford.
    fn looks_right(&self, got: &[u8], key: u32, version: u16) -> bool {
        got.len() == self.attrs[key as usize].len as usize && got[..8] == self.tag(key, version)
    }

    /// Every byte.
    fn is_right(&self, got: &[u8], key: u32, version: u16) -> bool {
        let attr = self.attrs[key as usize];
        self.looks_right(got, key, version)
            && got[8..] == self.templates[attr.class as usize][8..attr.len as usize]
    }

    fn check<O: Observer>(&self, got: &[u8], key: u32, version: u16) -> bool {
        if O::VERIFY {
            self.is_right(got, key, version)
        } else {
            self.looks_right(got, key, version)
        }
    }
}

fn server_of(key: u32) -> usize {
    (key & 1) as usize
}

/// Live entries that asked for the disk tier, so that
/// `core.put_disk_fallbacks` counts only the ones that did not.
fn on_disk_by_choice(space: &KeySpace, live: impl Iterator<Item = u32>) -> u64 {
    live.filter(|&k| space.attrs[k as usize].pref == DISK_PREF)
        .count() as u64
}

enum ReadOp {
    Get(u32),
    /// `WINDOW` keys of one server, starting at this index of
    /// `batch_keys`.
    Batch {
        server: u8,
        start: u32,
    },
    QosTick,
}

pub struct TierRead {
    dm: DisaggregatedMemory,
    servers: [ServerId; 2],
    space: KeySpace,
    ops: Vec<ReadOp>,
    batch_keys: Vec<u64>,
    /// What the last round added to the cluster's counters (they run on
    /// from the fill, so the layer counts need the difference).
    last_counted: Vec<(String, u64)>,
}

impl Workload for TierRead {
    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let start = Instant::now();
        let space = KeySpace::new(READ_KEYS, seed);
        let zipf = ZipfSampler::new(READ_KEYS, ZIPF_EXPONENT);
        let mut rng = DetRng::new(seed).fork("reads");
        let mut ops = Vec::with_capacity(READ_OPS);
        let mut batch_keys: Vec<u64> = Vec::new();
        // A fifth of the drawn keys wait in a per-server pool and leave as
        // one get_batch when the pool holds a window; the rest are single
        // gets in draw order.
        let mut pools: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
        for drawn in 0..READ_OPS {
            let key = zipf.sample(&mut rng) as u32;
            if rng.chance(0.2) {
                let server = server_of(key);
                pools[server].push(u64::from(key));
                if pools[server].len() == WINDOW {
                    ops.push(ReadOp::Batch {
                        server: server as u8,
                        start: batch_keys.len() as u32,
                    });
                    batch_keys.append(&mut pools[server]);
                }
            } else {
                ops.push(ReadOp::Get(key));
            }
            if (drawn + 1) % QOS_TICK_EVERY == 0 {
                ops.push(ReadOp::QosTick);
            }
        }
        for pool in pools {
            ops.extend(pool.into_iter().map(|k| ReadOp::Get(k as u32)));
        }
        times.generate = start.elapsed();

        let start = Instant::now();
        let (dm, servers) = build_cluster();
        times.build = start.elapsed();

        let start = Instant::now();
        for key in 0..READ_KEYS as u32 {
            let pref = PREFS[space.attrs[key as usize].pref as usize];
            dm.put_pref(
                servers[server_of(key)],
                u64::from(key),
                space.value(key, 0),
                pref,
            )
            .expect("every tier preference ends in the disk tier, which takes anything");
        }
        times.fill = start.elapsed();
        TierRead {
            dm,
            servers,
            space,
            ops,
            batch_keys,
            last_counted: Vec::new(),
        }
    }

    fn ops_per_round(&self) -> u64 {
        READ_OPS as u64
    }

    fn round<O: Observer>(&mut self, obs: &mut O) -> Round {
        let (dm, space) = (&self.dm, &self.space);
        let clock = dm.clock().clone();
        let before = counters(dm);
        arm_tracer(obs, &clock);
        let mut failed = 0u64;
        let virt_start = clock.now();
        let start = Instant::now();
        for op in &self.ops {
            match *op {
                ReadOp::Get(key) => {
                    let server = self.servers[server_of(key)];
                    let got = observed(obs, "core.get", 1, &clock, || {
                        dm.get(server, u64::from(key))
                    });
                    if !got.is_ok_and(|got| space.check::<O>(&got, key, 0)) {
                        failed += 1;
                    }
                }
                ReadOp::Batch { server, start } => {
                    let keys = &self.batch_keys[start as usize..start as usize + WINDOW];
                    let server = self.servers[server as usize];
                    match observed(obs, "core.get_batch", WINDOW as u32, &clock, || {
                        dm.get_batch(server, keys)
                    }) {
                        Ok(values) => {
                            failed += values
                                .iter()
                                .zip(keys)
                                .filter(|(got, &key)| !space.check::<O>(got, key as u32, 0))
                                .count() as u64;
                        }
                        Err(_) => failed += WINDOW as u64,
                    }
                }
                ReadOp::QosTick => {
                    observed(obs, "qos.tick", 0, &clock, || dm.qos_tick());
                }
            }
        }
        let timed = start.elapsed();
        let virt = clock.now() - virt_start;
        drain_tracer(obs, &clock, virt);

        let mut digest = Fnv::new();
        digest.word(virt.as_nanos());
        self.last_counted = counter_delta(&before, &counters(dm));
        mix_cluster(&mut digest, dm, &self.last_counted);
        Round {
            timed,
            virt_ns: virt.as_nanos(),
            digest: digest.finish(),
            failed,
        }
    }

    fn layer_metrics(&mut self, layers: &mut Layers, _budget: Budget) -> u64 {
        let by_choice = on_disk_by_choice(&self.space, 0..READ_KEYS as u32);
        super::add_cluster_counts(&self.dm, &self.last_counted, by_choice, &mut |name, v| {
            *layers.entry(name).or_default() += v as f64;
        });
        READ_OPS as u64
    }
}

enum WriteOp {
    Put {
        key: u32,
        version: u16,
    },
    /// `WINDOW` fresh keys of one server, starting at this index of
    /// `batch_keys`, all stored with one preference.
    Batch {
        server: u8,
        pref: u8,
        start: u32,
    },
    Delete(u32),
    QosTick,
}

pub struct TierWrite {
    space: KeySpace,
    ops: Vec<WriteOp>,
    batch_keys: Vec<u32>,
    /// Keys alive after the round with the version they hold.
    live: Vec<(u32, u16)>,
    /// The cluster of the last round, kept for the layer counts.
    last: Option<DisaggregatedMemory>,
}

impl Workload for TierWrite {
    fn setup(seed: u64, times: &mut SetupTimes) -> Self {
        let start = Instant::now();
        // Twice the operation count bounds the key ids: fresh keys are at
        // most one per operation, split over two parities.
        let mut space = KeySpace::new(2 * WRITE_OPS, seed);
        let mut rng = DetRng::new(seed).fork("writes");
        let mut ops = Vec::with_capacity(WRITE_OPS);
        let mut batch_keys: Vec<u32> = Vec::new();
        let mut next_fresh = [0u32, 1u32];
        let mut fresh = |server: usize| {
            let key = next_fresh[server];
            next_fresh[server] += 2;
            key
        };
        let mut versions: Vec<u16> = vec![0; 2 * WRITE_OPS];
        let mut alive: Vec<u32> = Vec::new();
        let mut done = 0usize;
        let mut batches = 0usize;
        let mut since_tick = 0usize;
        while done < WRITE_OPS {
            let u = rng.unit();
            let step = if u < 0.45 || alive.is_empty() {
                let key = fresh(done & 1);
                alive.push(key);
                ops.push(WriteOp::Put { key, version: 0 });
                1
            } else if u < 0.60 {
                let key = alive[rng.below(alive.len())];
                versions[key as usize] += 1;
                ops.push(WriteOp::Put {
                    key,
                    version: versions[key as usize],
                });
                1
            } else if u < 0.80 && done + WINDOW <= WRITE_OPS {
                let server = batches & 1;
                let pref = (batches % PREFS.len()) as u8;
                ops.push(WriteOp::Batch {
                    server: server as u8,
                    pref,
                    start: batch_keys.len() as u32,
                });
                batches += 1;
                for _ in 0..WINDOW {
                    let key = fresh(server);
                    // A window is stored with one preference; its keys
                    // keep it for later overwrites.
                    space.attrs[key as usize].pref = pref;
                    alive.push(key);
                    batch_keys.push(key);
                }
                WINDOW
            } else {
                let key = alive.swap_remove(rng.below(alive.len()));
                ops.push(WriteOp::Delete(key));
                1
            };
            done += step;
            since_tick += step;
            if since_tick >= QOS_TICK_EVERY {
                since_tick = 0;
                ops.push(WriteOp::QosTick);
            }
        }
        alive.sort_unstable();
        let live = alive
            .into_iter()
            .map(|k| (k, versions[k as usize]))
            .collect();
        times.generate = start.elapsed();
        TierWrite {
            space,
            ops,
            batch_keys,
            live,
            last: None,
        }
    }

    fn ops_per_round(&self) -> u64 {
        WRITE_OPS as u64
    }

    fn round<O: Observer>(&mut self, obs: &mut O) -> Round {
        // Free the previous round's cluster first: two alive at once
        // would double the peak memory for nothing.
        self.last = None;
        let id = obs.enter("harness.build");
        let (dm, servers) = build_cluster();
        obs.exit(id);
        let space = &self.space;
        let clock = dm.clock().clone();
        arm_tracer(obs, &clock);
        let mut failed = 0u64;
        let start = Instant::now();
        for op in &self.ops {
            match *op {
                WriteOp::Put { key, version } => {
                    let server = servers[server_of(key)];
                    let pref = PREFS[space.attrs[key as usize].pref as usize];
                    let stored = observed(obs, "core.put", 1, &clock, || {
                        dm.put_pref(server, u64::from(key), space.value(key, version), pref)
                    });
                    failed += u64::from(stored.is_err());
                }
                WriteOp::Batch {
                    server,
                    pref,
                    start,
                } => {
                    let keys = &self.batch_keys[start as usize..start as usize + WINDOW];
                    let stored = observed(obs, "core.put_batch", WINDOW as u32, &clock, || {
                        let batch = keys
                            .iter()
                            .map(|&k| (u64::from(k), space.value(k, 0)))
                            .collect();
                        dm.put_batch(servers[server as usize], batch, PREFS[pref as usize])
                    });
                    if stored.is_err() {
                        failed += WINDOW as u64;
                    }
                }
                WriteOp::Delete(key) => {
                    let server = servers[server_of(key)];
                    let deleted = observed(obs, "core.delete", 1, &clock, || {
                        dm.delete(server, u64::from(key))
                    });
                    failed += u64::from(deleted.is_err());
                }
                WriteOp::QosTick => {
                    observed(obs, "qos.tick", 0, &clock, || dm.qos_tick());
                }
            }
        }
        let timed = start.elapsed();
        let virt = clock.now().duration_since(dmem_sim::SimInstant::EPOCH);
        drain_tracer(obs, &clock, virt);

        let mut digest = Fnv::new();
        digest.word(virt.as_nanos());
        mix_cluster(&mut digest, &dm, &counters(&dm));
        if dm.stats().entries != self.live.len() {
            failed += 1;
        }
        if O::VERIFY {
            // Read back everything that should be alive, byte for byte.
            failed += self
                .live
                .iter()
                .filter(|&&(key, version)| {
                    !dm.get(servers[server_of(key)], u64::from(key))
                        .is_ok_and(|got| space.is_right(&got, key, version))
                })
                .count() as u64;
        }
        self.last = Some(dm);
        Round {
            timed,
            virt_ns: virt.as_nanos(),
            digest: digest.finish(),
            failed,
        }
    }

    fn layer_metrics(&mut self, layers: &mut Layers, _budget: Budget) -> u64 {
        if let Some(dm) = &self.last {
            let by_choice = on_disk_by_choice(&self.space, self.live.iter().map(|&(k, _)| k));
            super::add_cluster_counts(dm, &counters(dm), by_choice, &mut |name, v| {
                *layers.entry(name).or_default() += v as f64;
            });
        }
        0
    }
}
