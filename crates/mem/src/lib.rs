//! Memory structures for `tenways`: set-associative cache arrays with LRU
//! replacement, miss-status holding registers, and a banked DRAM timing
//! model.
//!
//! This crate knows nothing about coherence protocols or cores; it provides
//! the *storage and timing* building blocks they are assembled from:
//!
//! * [`CacheArray`] — a set-associative array generic over its per-block
//!   payload (the coherence crate stores protocol state + speculation bits
//!   there), with LRU replacement.
//! * [`MshrFile`] — bounded miss tracking with per-block waiter lists, so a
//!   second miss to an in-flight block merges instead of re-requesting.
//! * [`DramBanks`] — bank-interleaved memory with per-bank occupancy, the
//!   source of memory-level-parallelism limits.
//!
//! # Example
//!
//! ```rust
//! use tenways_mem::{CacheArray, CacheParams};
//! use tenways_sim::BlockAddr;
//!
//! let params = CacheParams::new(4, 2).unwrap();
//! let mut cache: CacheArray<u8> = CacheArray::new(params);
//! assert!(cache.get(BlockAddr(0)).is_none());
//! let evicted = cache.insert(BlockAddr(0), 7);
//! assert!(evicted.is_none());
//! assert_eq!(*cache.get(BlockAddr(0)).unwrap(), 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod mshr;

pub use cache::{CacheArray, CacheParams, Evicted};
pub use dram::{DramBanks, DramParams};
pub use mshr::{MshrEntry, MshrError, MshrFile};
