//! A simulated RDMA fabric (paper §IV-G).
//!
//! The paper's cluster-level disaggregation runs on 56 Gbps InfiniBand
//! using reliable-connection (RC) queue pairs: **one-sided** RDMA
//! READ/WRITE verbs for the data plane and **two-sided** SEND/RECV for the
//! control plane. No such hardware exists here, so this crate implements
//! the verbs interface over in-process memory with every operation charged
//! to the shared virtual clock at the calibrated cost
//! (`CostModel::rdma`). The simulator preserves the properties the upper
//! layers rely on:
//!
//! * **registration** — one-sided access requires a registered memory
//!   region and the matching remote key (`rkey`); deregistered regions
//!   fault;
//! * **RC semantics** — messages on a queue pair are delivered at most
//!   once and in order; link or node failure surfaces as an error, never
//!   as silent corruption;
//! * **zero-copy cost shape** — one large transfer pays one base latency;
//!   `n` small transfers pay `n` (this is what makes window-based batching
//!   worthwhile, §IV-H);
//! * **failure injection** — scheduled node and link failures from
//!   [`dmem_sim::FailureInjector`] are honoured by every verb.
//!
//! # Examples
//!
//! ```
//! use dmem_net::Fabric;
//! use dmem_sim::{CostModel, FailureInjector, SimClock};
//! use dmem_types::{ByteSize, NodeId};
//!
//! let clock = SimClock::new();
//! let fabric = Fabric::new(clock.clone(), CostModel::paper_default(),
//!                          FailureInjector::new(clock.clone()));
//! let (a, b) = (NodeId::new(0), NodeId::new(1));
//! let mr = fabric.register(b, ByteSize::from_kib(64))?;
//! let qp = fabric.connect(a, b)?;
//!
//! fabric.write(&qp, &[1, 2, 3], &mr, 0)?;
//! assert_eq!(fabric.read(&qp, &mr, 0, 3)?, vec![1, 2, 3]);
//! assert!(clock.now().nanos() > 0, "verbs charge virtual time");
//! # Ok::<(), dmem_types::DmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cm;
pub mod cxl;
pub mod fabric;
pub mod faults;

pub use batch::BatchSender;
pub use cm::{ChannelKind, ConnectionManager};
pub use cxl::{CxlAddr, CxlCostModel, CxlPool, CxlRing};
pub use fabric::{Fabric, QpHandle, RegionHandle};
pub use faults::{FabricFaults, FaultProfile, HostOutage, ShardFaultSchedule, VerbOutcome};
