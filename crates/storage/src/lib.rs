#![warn(missing_docs)]
//! Epoch-versioned key-value storage for the deterministic runtime.
//!
//! The paper deploys Prognosticator on RocksDB; this crate provides the
//! equivalent substrate as a sharded in-memory multi-version store (see
//! `DESIGN.md` for the substitution argument). The central type is
//! [`EpochStore`]; epochs correspond to transaction batches.
//!
//! ```
//! use prognosticator_storage::EpochStore;
//! use prognosticator_txir::{Key, TableId, Value};
//!
//! let store = EpochStore::new();
//! let key = Key::of_ints(TableId(0), &[42]);
//! store.populate(vec![(key.clone(), Value::Int(0))]);
//!
//! store.put(&key, Value::Int(1)); // batch 1 writes
//! assert_eq!(store.get_at(&key, store.snapshot_epoch()), Some(Value::Int(0)));
//! assert_eq!(store.get_latest(&key), Some(Value::Int(1)));
//! store.advance_epoch(); // commit batch 1
//! assert_eq!(store.get_at(&key, store.snapshot_epoch()), Some(Value::Int(1)));
//! ```

pub mod chain;
pub mod hash;
pub mod latency;
pub mod store;

pub use chain::VersionChain;
pub use hash::StableHasher;
pub use latency::{AtomicLatency, LatencyConfig};
pub use store::{EpochStore, LiveView, SnapshotView, DEFAULT_SHARDS};
