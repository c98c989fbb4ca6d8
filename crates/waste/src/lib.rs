//! The "ten ways to waste a parallel computer", quantified.
//!
//! This crate turns the raw per-cycle accounting produced by the simulator
//! into the keynote's argument: a [`WasteBreakdown`] that attributes every
//! core cycle to *useful work* or to one of ten ways of wasting it, an
//! [`EnergyModel`] that converts event counts into Joules so results can be
//! reported as *work per Joule*, and an [`Experiment`] runner that the
//! benchmark harness drives to regenerate every table and figure.
//!
//! The ten waste categories:
//!
//! 1. **SC ordering** — naive sequential-consistency serialization.
//! 2. **Fence stalls** — explicit memory fences draining the pipeline.
//! 3. **Atomic stalls** — atomics acting as implicit full fences.
//! 4. **Store-buffer pressure** — retirement blocked on a full store buffer.
//! 5. **Cold misses** — compulsory DRAM fetches.
//! 6. **Capacity misses** — data evicted and refetched (L1→L2→DRAM).
//! 7. **Coherence misses** — data ping-ponging between cores.
//! 8. **Lock spinning** — cycles burnt on lock words.
//! 9. **Barrier waiting** — load imbalance at barriers.
//! 10. **Structural hazards** — ROB/MSHR capacity, unresolved waits.
//!
//! Speculation rollback waste (`spec.wasted_cycles`) is reported as an
//! overlay: those cycles were *also* attributed above while the doomed
//! epoch executed, so the breakdown keeps it out of the sum.
//!
//! # Example
//!
//! ```rust
//! use tenways_waste::Experiment;
//! use tenways_cpu::ConsistencyModel;
//! use tenways_workloads::{WorkloadKind, WorkloadParams};
//!
//! let record = Experiment::new(WorkloadKind::OceanLike)
//!     .params(WorkloadParams { threads: 2, scale: 2, seed: 1 })
//!     .model(ConsistencyModel::Tso)
//!     .run()
//!     .unwrap();
//! assert!(record.summary.finished);
//! let useful = record.breakdown.useful_fraction();
//! assert!(useful > 0.0 && useful <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod energy;
pub mod report;
mod runner;
mod taxonomy;

pub use config::{cache_key_of, ConfigLoadError, SimConfig, SEMANTICS_VERSION};
pub use energy::{EnergyModel, EnergyReport};
pub use runner::{Experiment, ExperimentError, RunRecord, MAX_SCALE, RUN_RECORD_SCHEMA_VERSION};
pub use taxonomy::{WasteBreakdown, WasteCategory};
pub use tenways_cpu::SchedMode;
