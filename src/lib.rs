//! # tenways
//!
//! A deterministic cycle-level multicore simulator that quantifies the
//! *ten ways to waste a parallel computer* — cycles and Joules lost to
//! consistency enforcement, communication, synchronization and data
//! movement — and implements the mechanism that eliminates the
//! consistency-enforcement share: **performance-transparent memory
//! ordering via post-retirement fence speculation** with block-granularity
//! speculative state (InvisiFence-style).
//!
//! The workspace is layered; this facade re-exports each layer:
//!
//! * [`sim`] — deterministic simulation kernel (time, ids, stats, RNG).
//! * [`noc`] — latency/bandwidth-modeled interconnect.
//! * [`mem`] — cache arrays, MSHRs, banked DRAM.
//! * [`coherence`] — blocking full-map directory MESI/MSI with speculation
//!   hooks.
//! * [`spec`] — the fence-speculation engine and storage models (the
//!   paper's primary contribution; crate `tenways-core`).
//! * [`cpu`] — the core pipeline, consistency models, and the assembled
//!   [`Machine`](cpu::Machine).
//! * [`workloads`] — the eight-kernel synthetic suite plus the contended
//!   microbenchmark.
//! * [`waste`] — the taxonomy, energy accounting, and the
//!   [`Experiment`](waste::Experiment) runner.
//! * [`mod@bench`] — the fail-soft [`parallel_map`](bench::parallel_map),
//!   the grid-sweep layer behind `tenways sweep`, and the
//!   content-addressed result cache + [`SimService`](bench::SimService)
//!   behind `tenways serve`.
//! * [`litmus`] — the weak-memory conformance harness behind
//!   `tenways litmus`: litmus-test parsing, interleaving exploration, and
//!   forbidden-state / speculation-transparency verdicts.
//!
//! # Quickstart
//!
//! ```rust
//! use tenways::prelude::*;
//!
//! // How much does naive SC cost on an OLTP-like workload — and how much
//! // does fence speculation buy back?
//! let params = WorkloadParams { threads: 2, scale: 2, seed: 7 };
//! let base = Experiment::new(WorkloadKind::OltpLike)
//!     .params(params)
//!     .model(ConsistencyModel::Sc)
//!     .run()
//!     .unwrap();
//! let spec = Experiment::new(WorkloadKind::OltpLike)
//!     .params(params)
//!     .model(ConsistencyModel::Sc)
//!     .spec(SpecConfig::on_demand())
//!     .run()
//!     .unwrap();
//! assert!(base.summary.finished && spec.summary.finished);
//! assert!(spec.summary.cycles <= base.summary.cycles);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tenways_bench as bench;
pub use tenways_coherence as coherence;
pub use tenways_core as spec;
pub use tenways_cpu as cpu;
pub use tenways_litmus as litmus;
pub use tenways_mem as mem;
pub use tenways_noc as noc;
pub use tenways_sim as sim;
pub use tenways_waste as waste;
pub use tenways_workloads as workloads;

/// The names most programs need.
pub mod prelude {
    pub use tenways_coherence::ProtocolConfig;
    pub use tenways_core::{SpecConfig, SpecMode};
    pub use tenways_cpu::{
        ConsistencyModel, FenceKind, Machine, MachineSpec, MemTag, Op, RmwOp, ScriptProgram,
        ThreadProgram,
    };
    pub use tenways_sim::{Addr, AtomicsConfig, CoreId, Cycle, MachineConfig};
    pub use tenways_waste::{
        ConfigLoadError, EnergyModel, Experiment, ExperimentError, RunRecord, SchedMode, SimConfig,
        WasteBreakdown, WasteCategory, RUN_RECORD_SCHEMA_VERSION,
    };
    pub use tenways_workloads::{ContendedParams, WorkloadKind, WorkloadParams};
}
