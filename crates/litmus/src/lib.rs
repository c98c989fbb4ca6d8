//! Litmus harness: weak-memory conformance testing for the tenways
//! simulator.
//!
//! The simulator's value rests on its consistency models (SC/TSO/RMO) and
//! InvisiFence-style fence speculation being *correct*. This crate checks
//! that directly, the way real memory-model work does (Alglave et al.'s
//! litmus methodology): run small multi-threaded shapes, collect the
//! final states they can produce, and compare against what the model's
//! axioms permit.
//!
//! The pipeline, one module per stage:
//!
//! * [`parse`] — a small `.litmus`-style text format (per-thread op
//!   lists over named locations, `forbidden:`/`allowed:` final-state
//!   predicates) and its parser;
//! * [`mod@compile`] — turns a parsed test into reactive [`ThreadProgram`]s
//!   whose consumed load values land in shared register cells;
//! * [`mod@explore`] — runs a test across a deterministic grid of timing
//!   perturbations (per-thread skews, DRAM/NoC/directory latencies,
//!   store-buffer depth, width, topology) for every
//!   `(model, speculation mode)` cell, fanning out on the fail-soft
//!   [`parallel_map`](tenways_bench::parallel_map);
//! * [`verdict`] — flags any observed `forbidden` state and any
//!   difference between the speculation-on and speculation-off
//!   observable-state sets, each with a replayable
//!   `{test, model, spec, seed, point}` repro;
//! * [`mod@corpus`] — the curated in-tree suite of 12 classic tests
//!   (SB, MP, LB, IRIW, R, S, 2+2W, CoRR and fence/RMW variants).
//!
//! [`ThreadProgram`]: tenways_cpu::ThreadProgram

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod corpus;
pub mod explore;
pub mod parse;
pub mod verdict;

pub use compile::{compile, loc_addr, CompiledTest};
pub use corpus::{corpus, CORPUS};
pub use explore::{
    build_grid, explore, run_point, Exploration, ExploreCell, ExploreOptions, FinalState,
    GridPoint, SPEC_MODES,
};
pub use parse::{
    LitmusOp, LitmusTest, LitmusThread, Observable, ParseError, ParseErrorKind, PredicateKind,
    PredicateRule, RegisterDef,
};
pub use verdict::{judge, AllowedOutcome, ForbiddenViolation, Repro, SpecDivergence, TestVerdict};
