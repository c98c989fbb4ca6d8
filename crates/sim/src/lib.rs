//! Deterministic cycle-level simulation kernel for the `tenways` workspace.
//!
//! This crate is the substrate every other `tenways` crate is built on. It
//! deliberately contains no knowledge of caches, cores, or coherence; it only
//! provides the vocabulary a cycle-accurate simulator needs:
//!
//! * [`Cycle`] — a strongly-typed simulation timestamp, and [`Clock`], the
//!   monotonically advancing global time source.
//! * [`ids`] — newtypes for component identities ([`CoreId`], [`NodeId`]) and
//!   for the address space ([`Addr`], [`BlockAddr`], [`BlockGeometry`]).
//! * [`config`] — the machine description ([`MachineConfig`]) shared by all
//!   subsystems, with validated construction.
//! * [`stats`] — cheap named counters ([`Counter`], [`StatSet`]) that
//!   components bump on every event of interest.
//! * [`hist`] — fixed-bucket and log₂ histograms for latency / occupancy
//!   distributions with percentile queries.
//! * [`rng`] — a small, seedable, splittable PRNG ([`DetRng`]) so every run of
//!   a simulation is bit-for-bit reproducible from a single seed.
//! * [`hash`] — canonical-form JSON rendering and an in-tree SHA-256, the
//!   content-address layer under the `tenways serve` result cache.
//!
//! # Example
//!
//! ```rust
//! use tenways_sim::{Clock, Cycle, config::MachineConfig};
//!
//! let mut clock = Clock::new();
//! assert_eq!(clock.now(), Cycle::ZERO);
//! clock.advance();
//! assert_eq!(clock.now(), Cycle::new(1));
//!
//! let cfg = MachineConfig::builder().cores(8).build().expect("valid config");
//! assert_eq!(cfg.cores, 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod hash;
pub mod hist;
pub mod ids;
pub mod json;
pub mod rng;
pub mod stats;
pub mod toml;
pub mod trace;

mod cycle;

/// How deeply a document read from outside may nest: the bound
/// [`Json::parse`] and [`toml::parse_toml`] enforce before they recurse,
/// so hostile input gets a parse error instead of overflowing a
/// connection thread's stack. The deepest committed document nests six
/// levels.
pub const MAX_DEPTH: usize = 128;

pub use config::{AtomicsConfig, AtomicsError, MachineConfig};
pub use cycle::{Clock, Cycle};
pub use hash::{canonical, canonical_hash, sha256_hex, Sha256};
pub use hist::Histogram;
pub use ids::{Addr, BlockAddr, BlockGeometry, CoreId, NodeId};
pub use json::{validate_schema, Json, ToJson};
pub use rng::DetRng;
pub use stats::{Counter, StatId, StatSet};
pub use trace::{TraceCategory, TraceEvent, Tracer};
