//! The epoch-versioned, sharded, in-memory key-value store.

use crate::chain::VersionChain;
use crate::hash::StableHasher;
use crate::latency::{AtomicLatency, LatencyConfig};
use parking_lot::RwLock;
use prognosticator_txir::{Key, TxStore, Value};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count (power of two).
pub const DEFAULT_SHARDS: usize = 64;

/// A multi-versioned key-value store organized in epochs.
///
/// This is the substrate that replaces the paper's RocksDB deployment: it
/// provides the classic GET/PUT interface plus the three capabilities the
/// deterministic runtime needs —
///
/// * **snapshot reads** at any past epoch (read-only transactions and the
///   *prepare indirect keys* phase read the state after the previous
///   batch, §III-C);
/// * **historical reads** at arbitrarily stale epochs (emulating Calvin's
///   client-side reconnaissance that runs N ms before execution);
/// * **pivot validation** (compare the current value of a key against the
///   value observed during preparation).
///
/// Writes are tagged with the current epoch; after a batch commits, call
/// [`EpochStore::advance_epoch`]. The store is sharded and thread-safe:
/// concurrent writers in the deterministic runtime touch disjoint keys by
/// construction, so shard locks are uncontended in the common case.
#[derive(Debug)]
pub struct EpochStore {
    shards: Vec<RwLock<HashMap<Key, VersionChain>>>,
    epoch: AtomicU64,
    latency: AtomicLatency,
}

impl Default for EpochStore {
    fn default() -> Self {
        Self::new()
    }
}

impl EpochStore {
    /// Creates a store with [`DEFAULT_SHARDS`] shards and no injected
    /// latency.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates a store with an explicit shard count.
    ///
    /// # Panics
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        EpochStore {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            epoch: AtomicU64::new(1),
            latency: AtomicLatency::default(),
        }
    }

    /// Sets the injected per-access latency (builder style).
    pub fn with_latency(self, latency: LatencyConfig) -> Self {
        self.latency.set(latency);
        self
    }

    /// The currently injected per-access latency.
    pub fn latency(&self) -> LatencyConfig {
        self.latency.get()
    }

    /// Replaces the injected per-access latency at runtime (the
    /// fault-injection harness uses this for storage latency spikes).
    /// Affects timing only; values read and written are unchanged.
    pub fn set_latency(&self, latency: LatencyConfig) {
        self.latency.set(latency);
    }

    fn shard(&self, key: &Key) -> &RwLock<HashMap<Key, VersionChain>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// The current (uncommitted) epoch. Writes land here.
    pub fn current_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The snapshot epoch: the state after the previously committed batch.
    pub fn snapshot_epoch(&self) -> u64 {
        self.current_epoch() - 1
    }

    /// Commits the current batch: subsequent writes belong to a new epoch.
    /// Returns the new current epoch.
    pub fn advance_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Installs an initial value at epoch 0 (population).
    pub fn insert_initial(&self, key: Key, value: Value) {
        let mut shard = self.shard(&key).write();
        shard.insert(key, VersionChain::with_initial(0, value));
    }

    /// Bulk population at epoch 0.
    pub fn populate<I: IntoIterator<Item = (Key, Value)>>(&self, items: I) {
        for (k, v) in items {
            self.insert_initial(k, v);
        }
    }

    /// Reads the latest version of `key` (sees the current batch's writes).
    pub fn get_latest(&self, key: &Key) -> Option<Value> {
        self.latency.charge_read();
        self.shard(key).read().get(key).and_then(|c| c.latest().cloned())
    }

    /// Reads the latest version of `key` with its per-key version number
    /// (provenance for the isolation checker). A missing key reads as
    /// `(0, None)` — version 0 is the virtual initial version.
    pub fn get_latest_versioned(&self, key: &Key) -> (u64, Option<Value>) {
        self.latency.charge_read();
        match self.shard(key).read().get(key).and_then(|c| c.latest_versioned()) {
            Some((ver, v)) => (ver, Some(v.clone())),
            None => (0, None),
        }
    }

    /// Reads the newest version of `key` with epoch ≤ `epoch`.
    pub fn get_at(&self, key: &Key, epoch: u64) -> Option<Value> {
        self.latency.charge_read();
        self.shard(key).read().get(key).and_then(|c| c.get_at(epoch).cloned())
    }

    /// Reads the newest version of `key` with epoch ≤ `epoch`, plus its
    /// per-key version number (`0` when nothing is visible).
    pub fn get_at_versioned(&self, key: &Key, epoch: u64) -> (u64, Option<Value>) {
        self.latency.charge_read();
        match self.shard(key).read().get(key).and_then(|c| c.get_at_versioned(epoch)) {
            Some((ver, v)) => (ver, Some(v.clone())),
            None => (0, None),
        }
    }

    /// Writes `value` under `key` at the current epoch.
    pub fn put(&self, key: &Key, value: Value) {
        self.put_versioned(key, value);
    }

    /// Writes `value` under `key` at the current epoch, returning the
    /// per-key version number the write installed.
    pub fn put_versioned(&self, key: &Key, value: Value) -> u64 {
        self.latency.charge_write();
        let epoch = self.current_epoch();
        let mut shard = self.shard(key).write();
        shard.entry(key.clone()).or_default().put(epoch, value)
    }

    /// Number of keys present (any version).
    pub fn key_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Total stored version count (diagnostics / GC sizing).
    pub fn version_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().values().map(VersionChain::len).sum::<usize>()).sum()
    }

    /// Garbage-collects history older than `epoch` (each key keeps its
    /// newest version ≤ `epoch` plus everything newer). Returns the
    /// number of versions reclaimed and mirrors GC accounting into the
    /// global metrics registry (`storage.gc_*`, `storage.live_versions`).
    pub fn gc_before(&self, epoch: u64) -> usize {
        let mut removed = 0usize;
        let mut live = 0usize;
        for shard in &self.shards {
            let mut shard = shard.write();
            for chain in shard.values_mut() {
                removed += chain.gc_before(epoch);
                live += chain.len();
            }
        }
        let reg = prognosticator_obs::Registry::global();
        reg.counter("storage.gc_runs").inc();
        reg.counter("storage.gc_versions_removed").add(removed as u64);
        reg.gauge("storage.live_versions").set(live as i64);
        removed
    }

    /// A deterministic digest of the latest state. Two replicas that
    /// executed the same batches must produce identical digests — the
    /// correctness check of deterministic databases.
    pub fn state_digest(&self) -> u64 {
        // Hash (key, value) pairs order-independently by combining
        // per-entry hashes with a commutative fold (wrapping add of a
        // stable per-entry hash). Iteration order across shards/maps then
        // does not matter.
        let mut acc: u64 = 0;
        let mut entries: u64 = 0;
        for shard in &self.shards {
            let shard = shard.read();
            for (k, chain) in shard.iter() {
                if let Some(v) = chain.latest() {
                    let mut h = StableHasher::new();
                    h.write_key(k);
                    h.write_value(v);
                    acc = acc.wrapping_add(h.finish_u64());
                    entries += 1;
                }
            }
        }
        let mut h = StableHasher::new();
        h.write_u64(acc);
        h.write_u64(entries);
        h.finish_u64()
    }

    /// A read-only snapshot view at `epoch`, usable as a [`TxStore`]
    /// (writes panic: snapshots are immutable).
    pub fn snapshot(&self, epoch: u64) -> SnapshotView<'_> {
        SnapshotView { store: self, epoch }
    }

    /// A live view: reads see the latest state (including the current
    /// batch), writes land at the current epoch.
    pub fn live(&self) -> LiveView<'_> {
        LiveView { store: self }
    }
}

/// Read-only view of the store at a fixed epoch.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotView<'a> {
    store: &'a EpochStore,
    epoch: u64,
}

impl SnapshotView<'_> {
    /// The epoch this snapshot reads at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Reads `key` at the snapshot epoch.
    pub fn get(&self, key: &Key) -> Option<Value> {
        self.store.get_at(key, self.epoch)
    }
}

impl TxStore for SnapshotView<'_> {
    fn get(&mut self, key: &Key) -> Option<Value> {
        self.store.get_at(key, self.epoch)
    }

    /// # Panics
    /// Always: snapshots are immutable.
    fn put(&mut self, _key: &Key, _value: Value) {
        panic!("attempted write through a read-only snapshot view");
    }
}

/// Live read-write view of the store.
#[derive(Debug, Clone, Copy)]
pub struct LiveView<'a> {
    store: &'a EpochStore,
}

impl TxStore for LiveView<'_> {
    fn get(&mut self, key: &Key) -> Option<Value> {
        self.store.get_latest(key)
    }

    fn put(&mut self, key: &Key, value: Value) {
        self.store.put(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prognosticator_txir::TableId;

    fn k(i: i64) -> Key {
        Key::of_ints(TableId(0), &[i])
    }

    #[test]
    fn put_get_roundtrip() {
        let s = EpochStore::new();
        assert_eq!(s.get_latest(&k(1)), None);
        s.put(&k(1), Value::Int(5));
        assert_eq!(s.get_latest(&k(1)), Some(Value::Int(5)));
        assert_eq!(s.key_count(), 1);
    }

    #[test]
    fn epochs_separate_batches() {
        let s = EpochStore::new();
        s.populate(vec![(k(1), Value::Int(0))]);
        assert_eq!(s.current_epoch(), 1);
        s.put(&k(1), Value::Int(100)); // batch 1
        // Snapshot (epoch 0) still sees the populated value.
        assert_eq!(s.get_at(&k(1), s.snapshot_epoch()), Some(Value::Int(0)));
        assert_eq!(s.get_latest(&k(1)), Some(Value::Int(100)));
        let e = s.advance_epoch();
        assert_eq!(e, 2);
        // New snapshot sees batch 1's write.
        assert_eq!(s.get_at(&k(1), s.snapshot_epoch()), Some(Value::Int(100)));
    }

    #[test]
    fn historical_reads_for_calvin() {
        let s = EpochStore::new();
        s.populate(vec![(k(7), Value::Int(0))]);
        for batch in 1..=5i64 {
            s.put(&k(7), Value::Int(batch * 10));
            s.advance_epoch();
        }
        // State after batch 2 (epoch 2):
        assert_eq!(s.get_at(&k(7), 2), Some(Value::Int(20)));
        // State after batch 5:
        assert_eq!(s.get_at(&k(7), 5), Some(Value::Int(50)));
    }

    #[test]
    fn snapshot_view_is_stable_and_readonly() {
        let s = EpochStore::new();
        s.populate(vec![(k(1), Value::Int(1))]);
        let snap_epoch = s.snapshot_epoch();
        s.put(&k(1), Value::Int(2));
        let mut view = s.snapshot(snap_epoch);
        assert_eq!(TxStore::get(&mut view, &k(1)), Some(Value::Int(1)));
        assert_eq!(view.epoch(), snap_epoch);
    }

    #[test]
    #[should_panic(expected = "read-only snapshot")]
    fn snapshot_write_panics() {
        let s = EpochStore::new();
        let mut view = s.snapshot(0);
        view.put(&k(1), Value::Int(1));
    }

    #[test]
    fn live_view_reads_writes() {
        let s = EpochStore::new();
        let mut v = s.live();
        v.put(&k(3), Value::Int(9));
        assert_eq!(v.get(&k(3)), Some(Value::Int(9)));
    }

    #[test]
    fn digest_is_order_independent_and_content_sensitive() {
        let a = EpochStore::with_shards(4);
        a.populate(vec![(k(1), Value::Int(1)), (k(2), Value::Int(2))]);
        let b = EpochStore::with_shards(16);
        b.populate(vec![(k(2), Value::Int(2)), (k(1), Value::Int(1))]);
        assert_eq!(a.state_digest(), b.state_digest());
        b.put(&k(2), Value::Int(3));
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn digest_distinguishes_key_value_swap() {
        let a = EpochStore::new();
        a.populate(vec![(k(1), Value::Int(2)), (k(2), Value::Int(1))]);
        let b = EpochStore::new();
        b.populate(vec![(k(1), Value::Int(1)), (k(2), Value::Int(2))]);
        assert_ne!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn gc_shrinks_versions() {
        let s = EpochStore::new();
        s.populate(vec![(k(1), Value::Int(0))]);
        for i in 1..10 {
            s.put(&k(1), Value::Int(i));
            s.advance_epoch();
        }
        assert_eq!(s.version_count(), 10);
        s.gc_before(8);
        assert!(s.version_count() <= 3);
        assert_eq!(s.get_latest(&k(1)), Some(Value::Int(9)));
    }

    #[test]
    fn versioned_reads_report_provenance() {
        let s = EpochStore::new();
        assert_eq!(s.get_latest_versioned(&k(1)), (0, None));
        s.populate(vec![(k(1), Value::Int(0))]);
        assert_eq!(s.get_latest_versioned(&k(1)), (1, Some(Value::Int(0))));
        assert_eq!(s.put_versioned(&k(1), Value::Int(10)), 2);
        s.advance_epoch();
        assert_eq!(s.put_versioned(&k(1), Value::Int(20)), 3);
        assert_eq!(s.get_at_versioned(&k(1), 0), (1, Some(Value::Int(0))));
        assert_eq!(s.get_at_versioned(&k(1), 1), (2, Some(Value::Int(10))));
        assert_eq!(s.get_latest_versioned(&k(1)), (3, Some(Value::Int(20))));
        assert_eq!(s.get_at_versioned(&k(2), 99), (0, None));
    }

    #[test]
    fn concurrent_disjoint_writers() {
        use std::sync::Arc;
        let s = Arc::new(EpochStore::new());
        let mut handles = Vec::new();
        for t in 0..8i64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    s.put(&k(t * 1000 + i), Value::Int(i));
                }
            }));
        }
        for h in handles {
            h.join().expect("writer thread");
        }
        assert_eq!(s.key_count(), 800);
    }
}
