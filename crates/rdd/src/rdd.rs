//! Lineage-based RDDs (the paper's reference \[33\]).
//!
//! An RDD is an immutable, partitioned dataset described by how it is
//! derived from other RDDs. Partitions are computed on demand from
//! lineage; a lost (evicted) cached partition is simply recomputed — the
//! property DAHI's off-heap caching trades against.

use crate::record::Record;
use dmem_sim::DetRng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_RDD_ID: AtomicU64 = AtomicU64::new(1);

type GenFn = dyn Fn(usize, &mut DetRng) -> Vec<Record> + Send + Sync;
type MapFn = dyn Fn(Record) -> Record + Send + Sync;
type PredFn = dyn Fn(&Record) -> bool + Send + Sync;
type ReduceFn = dyn Fn(&[f64], &[f64]) -> Vec<f64> + Send + Sync;

enum Op {
    /// A deterministic source: partition index → records.
    Source { gen: Arc<GenFn>, seed: u64 },
    /// Narrow: element-wise transform.
    Map { parent: Arc<Rdd>, f: Arc<MapFn> },
    /// Narrow: element-wise filter.
    Filter { parent: Arc<Rdd>, pred: Arc<PredFn> },
    /// Wide: hash-partition by key across ALL parent partitions, merging
    /// values with `f` (a shuffle).
    ReduceByKey { parent: Arc<Rdd>, f: Arc<ReduceFn> },
}

/// An immutable, partitioned, lineage-tracked dataset.
pub struct Rdd {
    id: u64,
    partitions: usize,
    op: Op,
}

impl Rdd {
    /// Creates a source RDD of `partitions` partitions whose contents are
    /// produced by `gen(partition, rng)`.
    pub(crate) fn source<F>(partitions: usize, seed: u64, gen: F) -> Arc<Rdd>
    where
        F: Fn(usize, &mut DetRng) -> Vec<Record> + Send + Sync + 'static,
    {
        assert!(partitions > 0, "an RDD needs at least one partition");
        Arc::new(Rdd {
            id: NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed),
            partitions,
            op: Op::Source {
                gen: Arc::new(gen),
                seed,
            },
        })
    }

    /// Element-wise transformation (narrow dependency).
    pub fn map<F>(self: &Arc<Rdd>, f: F) -> Arc<Rdd>
    where
        F: Fn(Record) -> Record + Send + Sync + 'static,
    {
        Arc::new(Rdd {
            id: NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed),
            partitions: self.partitions,
            op: Op::Map {
                parent: Arc::clone(self),
                f: Arc::new(f),
            },
        })
    }

    /// Element-wise filter (narrow dependency).
    pub fn filter<F>(self: &Arc<Rdd>, pred: F) -> Arc<Rdd>
    where
        F: Fn(&Record) -> bool + Send + Sync + 'static,
    {
        Arc::new(Rdd {
            id: NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed),
            partitions: self.partitions,
            op: Op::Filter {
                parent: Arc::clone(self),
                pred: Arc::new(pred),
            },
        })
    }

    /// Key-wise aggregation with a shuffle (wide dependency): values of
    /// equal keys are merged with `f`.
    pub fn reduce_by_key<F>(self: &Arc<Rdd>, f: F) -> Arc<Rdd>
    where
        F: Fn(&[f64], &[f64]) -> Vec<f64> + Send + Sync + 'static,
    {
        Arc::new(Rdd {
            id: NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed),
            partitions: self.partitions,
            op: Op::ReduceByKey {
                parent: Arc::clone(self),
                f: Arc::new(f),
            },
        })
    }

    /// This RDD's unique id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Number of partitions.
    #[cfg(test)]
    pub(crate) fn partitions(&self) -> usize {
        self.partitions
    }

    /// Depth of the lineage chain above this RDD (a source is 1).
    pub fn lineage_depth(&self) -> usize {
        match &self.op {
            Op::Source { .. } => 1,
            Op::Map { parent, .. }
            | Op::Filter { parent, .. }
            | Op::ReduceByKey { parent, .. } => 1 + parent.lineage_depth(),
        }
    }

    /// Computes partition `p` from lineage, consulting `cached` for
    /// already-materialized parent partitions (the block manager passes
    /// its lookup here so recomputation stops at the nearest cache hit).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub(crate) fn compute(
        &self,
        p: usize,
        cached: &dyn Fn(u64, usize) -> Option<Vec<Record>>,
    ) -> Vec<Record> {
        assert!(p < self.partitions, "partition {p} out of range");
        if let Some(hit) = cached(self.id, p) {
            return hit;
        }
        match &self.op {
            Op::Source { gen, seed } => {
                let mut rng = DetRng::new(*seed).fork_indexed("partition", p as u64);
                gen(p, &mut rng)
            }
            Op::Map { parent, f } => parent
                .compute(p, cached)
                .into_iter()
                .map(|r| f(r))
                .collect(),
            Op::Filter { parent, pred } => parent
                .compute(p, cached)
                .into_iter()
                .filter(|r| pred(r))
                .collect(),
            Op::ReduceByKey { parent, f } => {
                // Shuffle: this output partition owns keys hashing to p.
                let mut acc: std::collections::BTreeMap<u64, Vec<f64>> =
                    std::collections::BTreeMap::new();
                for parent_part in 0..parent.partitions {
                    for record in parent.compute(parent_part, cached) {
                        if (record.key as usize) % self.partitions == p {
                            match acc.remove(&record.key) {
                                Some(prev) => {
                                    acc.insert(record.key, f(&prev, &record.values));
                                }
                                None => {
                                    acc.insert(record.key, record.values);
                                }
                            }
                        }
                    }
                }
                acc.into_iter()
                    .map(|(key, values)| Record::new(key, values))
                    .collect()
            }
        }
    }

    /// Computes all partitions (a `collect` with no caching).
    pub fn collect(&self) -> Vec<Record> {
        let no_cache = |_: u64, _: usize| None;
        (0..self.partitions)
            .flat_map(|p| self.compute(p, &no_cache))
            .collect()
    }
}

impl fmt::Debug for Rdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.op {
            Op::Source { .. } => "Source",
            Op::Map { .. } => "Map",
            Op::Filter { .. } => "Filter",
            Op::ReduceByKey { .. } => "ReduceByKey",
        };
        f.debug_struct("Rdd")
            .field("id", &self.id)
            .field("kind", &kind)
            .field("partitions", &self.partitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbers(partitions: usize, per_part: usize) -> Arc<Rdd> {
        Rdd::source(partitions, 7, move |p, _| {
            (0..per_part)
                .map(|i| Record::new((p * per_part + i) as u64, vec![1.0]))
                .collect()
        })
    }

    #[test]
    fn source_is_deterministic() {
        let rdd = Rdd::source(2, 9, |_, rng| {
            vec![Record::new(rng.below(100) as u64, vec![rng.unit()])]
        });
        let a = rdd.collect();
        let b = rdd.collect();
        assert_eq!(a, b);
    }

    #[test]
    fn map_and_filter_chain() {
        let rdd = numbers(4, 10)
            .map(|mut r| {
                r.values[0] *= 2.0;
                r
            })
            .filter(|r| r.key % 2 == 0);
        let out = rdd.collect();
        assert_eq!(out.len(), 20);
        assert!(out.iter().all(|r| r.values[0] == 2.0 && r.key % 2 == 0));
    }

    #[test]
    fn reduce_by_key_shuffles_and_merges() {
        // Two partitions both containing keys 0..5.
        let rdd = Rdd::source(2, 1, |_, _| {
            (0..5).map(|k| Record::new(k, vec![1.0])).collect()
        });
        let reduced = rdd.reduce_by_key(|a, b| vec![a[0] + b[0]]);
        let out = reduced.collect();
        assert_eq!(out.len(), 5, "one record per distinct key");
        assert!(out.iter().all(|r| r.values[0] == 2.0), "both copies merged");
        // Keys are routed to the right output partition.
        let no_cache = |_: u64, _: usize| None;
        for p in 0..reduced.partitions() {
            for r in reduced.compute(p, &no_cache) {
                assert_eq!(r.key as usize % 2, p);
            }
        }
    }

    #[test]
    fn cache_lookup_short_circuits_lineage() {
        let base = numbers(1, 4);
        let mapped = base.map(|mut r| {
            r.values[0] += 1.0;
            r
        });
        let base_id = base.id();
        // Pretend the base partition is cached with sentinel contents.
        let cached = move |id: u64, _p: usize| {
            (id == base_id).then(|| vec![Record::new(99, vec![10.0])])
        };
        let out = mapped.compute(0, &cached);
        assert_eq!(out, vec![Record::new(99, vec![11.0])]);
    }

    #[test]
    fn lineage_depth_counts_stages() {
        let rdd = numbers(1, 1).map(|r| r).filter(|_| true).reduce_by_key(|a, _| a.to_vec());
        assert_eq!(rdd.lineage_depth(), 4);
    }

    #[test]
    fn ids_are_unique() {
        let a = numbers(1, 1);
        let b = numbers(1, 1);
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), a.map(|r| r).id());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_partition_panics() {
        let no_cache = |_: u64, _: usize| None;
        numbers(2, 1).compute(5, &no_cache);
    }
}
