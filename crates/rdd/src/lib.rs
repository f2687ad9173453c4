//! A mini dataflow engine with RDDs and the DAHI disaggregated cache
//! (paper §V-B, Fig. 10).
//!
//! DAHI is the authors' second prototype: off-heap caching of Spark RDD
//! partitions in disaggregated memory, so executors that cannot fit their
//! cached RDDs in memory spill to the node shared pool and cluster remote
//! memory instead of recomputing or hitting disk. To reproduce Fig. 10 we
//! need the Spark mechanics that produce its numbers — no more, no less:
//!
//! * immutable, partitioned source [`Rdd`]s whose lost partitions are
//!   recomputed ([`rdd`]);
//! * an executor [`BlockManager`] with a bounded memory store, LRU
//!   eviction and a pluggable spill tier ([`executor`]): vanilla Spark
//!   spills to local disk, DAHI spills to a [`DisaggregatedMemory`]
//!   cluster in page-sized chunks;
//! * an iterative job runner charging compute, (de)serialization and
//!   storage costs to the virtual clock ([`job`]).
//!
//! [`DisaggregatedMemory`]: dmem_core::DisaggregatedMemory
//!
//! # Examples
//!
//! ```
//! use dmem_rdd::job::{run_iterative_job, DatasetSize, JobSpec, SpillTier};
//!
//! let spec = JobSpec::named("LogisticRegression").expect("known Fig. 10 job");
//! let vanilla = run_iterative_job(&spec, DatasetSize::Medium, SpillTier::VanillaDisk).unwrap();
//! let dahi = run_iterative_job(&spec, DatasetSize::Medium, SpillTier::Dahi).unwrap();
//! assert!(dahi.completion < vanilla.completion, "DAHI must beat disk spill");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
pub mod job;
pub mod rdd;
pub mod record;

pub use executor::{BlockId, BlockManager, BlockStats, SpillBackend};
pub use job::{run_iterative_job, DatasetSize, JobResult, JobSpec, SpillTier};
pub use rdd::Rdd;
pub use record::Record;
