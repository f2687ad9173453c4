//! Source RDDs (the paper's reference \[33\]).
//!
//! An RDD is an immutable, partitioned dataset. Fig. 10's jobs each run
//! one source RDD: its partitions are computed on demand, and a lost
//! (evicted) cached partition is simply recomputed — the property DAHI's
//! off-heap caching trades against.

use crate::record::Record;
use dmem_sim::DetRng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_RDD_ID: AtomicU64 = AtomicU64::new(1);

type GenFn = dyn Fn(usize, &mut DetRng) -> Vec<Record> + Send + Sync;

/// An immutable, partitioned dataset whose partitions come from a
/// deterministic source: partition index → records.
pub struct Rdd {
    id: u64,
    partitions: usize,
    gen: Box<GenFn>,
    seed: u64,
}

impl Rdd {
    /// Creates a source RDD of `partitions` partitions whose contents are
    /// produced by `gen(partition, rng)`.
    pub(crate) fn source<F>(partitions: usize, seed: u64, gen: F) -> Rdd
    where
        F: Fn(usize, &mut DetRng) -> Vec<Record> + Send + Sync + 'static,
    {
        assert!(partitions > 0, "an RDD needs at least one partition");
        Rdd {
            id: NEXT_RDD_ID.fetch_add(1, Ordering::Relaxed),
            partitions,
            gen: Box::new(gen),
            seed,
        }
    }

    /// This RDD's unique id.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Computes partition `p` from its source (the recomputation a lost
    /// cached partition costs).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub(crate) fn compute(&self, p: usize) -> Vec<Record> {
        assert!(p < self.partitions, "partition {p} out of range");
        let mut rng = DetRng::new(self.seed).fork_indexed("partition", p as u64);
        (self.gen)(p, &mut rng)
    }
}

impl fmt::Debug for Rdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rdd")
            .field("id", &self.id)
            .field("partitions", &self.partitions)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numbers(partitions: usize, per_part: usize) -> Rdd {
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
        for p in 0..2 {
            assert_eq!(rdd.compute(p), rdd.compute(p));
        }
        assert_ne!(rdd.compute(0), rdd.compute(1), "each partition forks its own stream");
    }

    #[test]
    fn ids_are_unique() {
        let a = numbers(1, 1);
        let b = numbers(1, 1);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_partition_panics() {
        numbers(2, 1).compute(5);
    }
}
