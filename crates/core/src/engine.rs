//! The deterministic multi-threaded batch execution engine.
//!
//! One [`Engine`] is a replica's transaction-processing layer: a single
//! *queuer* (the thread calling [`Engine::execute`]) plus a pool of
//! persistent *worker threads*, executing batches in phases (paper §III-C):
//!
//! 1. **ROT + prepare** — workers drain their private read-only-transaction
//!    queues against the pre-batch snapshot (lock-less) and, in `MQ` mode,
//!    help the queuer *prepare indirect keys* for dependent transactions;
//! 2. **build** — the queuer populates the lock table, dependent
//!    transactions ahead of independent ones;
//! 3. **update** — workers consume non-conflicting transactions from the
//!    ready queue; dependent transactions validate their pivots first and
//!    abort (without side effects) if stale;
//! 4. **failed handling** — single-threaded re-execution in client order
//!    (`SF`), deterministic re-prepare + re-enqueue rounds (`MF`), or
//!    hand-back to the client for a future batch (the Calvin baseline).
//!
//! The same engine, differently configured, realizes every system in the
//! paper's evaluation except `SEQ` (see [`crate::baselines`]).
//!
//! **Staged lifecycle.** Batch processing is split into two explicit
//! stages: [`Engine::prepare`] classifies the batch's transactions from
//! their symbolic-execution profiles into a [`PreparedBatch`] — a pure
//! function of the batch contents and the catalog, touching no store state
//! — and [`Engine::execute`] runs the phases above against the store.
//! Because classification is store-independent, `prepare` for batch `N+1`
//! may run *while batch `N` executes* (the paper's single-queuer overlap):
//! [`Engine::submit_prepare`]/[`Engine::recv_prepared`] hand batches to a
//! dedicated queuer thread, and `execute` takes `&self` (the engine is
//! interior-mutable and `Arc`-shareable), with an internal lock keeping
//! execution itself serial. Dependent-transaction preparation reads the
//! store and therefore stays inside `execute`, where it sees exactly the
//! epochs the unpipelined path would — outcomes are byte-identical either
//! way.
//!
//! **Deterministic abort protocol.** A transaction whose own logic fails
//! (a workload bug surfacing as [`TxFailure::Eval`]) or whose worker
//! panics (e.g. an injected fault, see [`crate::faults`]) is aborted
//! *per transaction*, not per batch: its buffered writes are discarded, its
//! lock slots are released in key-set order, and the batch's other
//! transactions commit normally. Because the failure depends only on the
//! agreed batch contents and state (or on a seeded fault plan), every
//! replica reaches the identical per-transaction verdict — reported in
//! [`BatchOutcome::outcomes`]. Only unattributable panics (engine bugs,
//! catalog/profile mismatches) remain batch-fatal.

use crate::adapt::{AdaptSink, ObservedVerdict, TxObservation};
use crate::catalog::{Catalog, TxRequest};
use crate::exec::{
    execute_live_buffered, execute_read_only, execute_reconnoitered, execute_scoped,
    execute_update, reconnoiter, AccessLog, AccessScope, TxFailure,
};
use crate::faults::{AbortReason, FaultPlan};
use crate::locktable::{FifoPolicy, LockTable, LockTableBuilder, ReadyPolicy, TxIdx};
use crossbeam::queue::SegQueue;
use crossbeam::utils::Backoff;
use parking_lot::{Condvar, Mutex, RwLock};
use prognosticator_obs::{Counter, Event, FlightRecorder, Histogram, Registry};
use prognosticator_storage::{EpochStore, LatencyConfig};
use prognosticator_symexec::{
    apply_narrowing, fingerprint_inputs, predict_specialized, PredictError, Prediction, Profile,
    ProgSpecialization, SpecializationSet, TxClass,
};
use prognosticator_txir::{Key, Program, Value};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How key-sets of update transactions are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepareMode {
    /// From the offline symbolic-execution profile; only pivot keys are
    /// read during preparation (Prognosticator).
    Profile,
    /// By pre-executing the whole transaction logic on a snapshot
    /// (Calvin's OLLP / the `*-R` ablation variants).
    Reconnaissance,
}

/// What happens to transactions that fail validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailedPolicy {
    /// Re-execute sequentially on the queuer, in client order (`SF`).
    SingleThread,
    /// Re-prepare and re-enqueue into a fresh lock table, repeatedly
    /// (`MF`).
    Reenqueue,
    /// Return to the client to be retried in a future batch (Calvin).
    NextBatch,
}

/// Conflict-detection granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Key-level (Prognosticator, Calvin).
    Key,
    /// Table-level (NODO): coarse, but transactions never abort.
    Table,
}

/// Full scheduler configuration. Presets for every paper variant live in
/// [`crate::baselines`].
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Number of worker threads (the queuer is the calling thread).
    pub workers: usize,
    /// Key-set acquisition strategy.
    pub prepare: PrepareMode,
    /// `true` = `MQ` (workers help prepare), `false` = `1Q`.
    pub parallel_prepare: bool,
    /// Failed-transaction policy.
    pub failed: FailedPolicy,
    /// Conflict granularity.
    pub granularity: Granularity,
    /// How many epochs stale the preparation snapshot is: `0` = the
    /// freshest committed state (Prognosticator), `k > 0` emulates a
    /// Calvin client that prepared `k` batches ahead of execution.
    pub prepare_staleness: u64,
    /// Safety valve: after this many `Reenqueue` rounds, fall back to
    /// single-threaded re-execution (guarantees termination).
    pub max_rounds: u32,
    /// When set, garbage-collect store history after each batch, keeping
    /// this many epochs (must exceed `prepare_staleness`; snapshots older
    /// than the kept window become unreadable). `None` keeps everything.
    pub gc_keep_epochs: Option<u64>,
    /// How workers pick among ready (mutually non-conflicting)
    /// transactions. The default FIFO policy is the production setting;
    /// the testkit's schedule-exploration fuzzer swaps in seeded shuffles
    /// to assert outcomes are schedule-independent.
    pub ready_policy: Arc<dyn ReadyPolicy>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: 4,
            prepare: PrepareMode::Profile,
            parallel_prepare: true,
            failed: FailedPolicy::Reenqueue,
            granularity: Granularity::Key,
            prepare_staleness: 0,
            max_rounds: 64,
            gc_keep_epochs: None,
            ready_policy: Arc::new(FifoPolicy),
        }
    }
}

/// Final per-transaction verdict of a batch — the deterministic abort
/// protocol's output. Every replica fed the same batch (under the same
/// fault plan) must produce the identical `Vec<TxOutcome>`, regardless of
/// worker count or scheduling interleavings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxOutcome {
    /// The transaction executed and its writes are in the store.
    Committed,
    /// The transaction was deterministically aborted: its lock slots were
    /// released in key-set order, its buffered writes were discarded (no
    /// torn writes), and it will not be retried.
    Aborted {
        /// Why the transaction aborted.
        reason: AbortReason,
    },
    /// The transaction was handed back to the client for a future batch
    /// ([`FailedPolicy::NextBatch`]) — neither committed nor aborted yet.
    CarriedOver,
}

/// Per-stage monotonic timers and counters for one batch. All stage
/// durations are wall-clock nanoseconds on the engine (virtual nanoseconds
/// in the bench simulator, which reuses this struct).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Classification + direct-prediction time (the `prepare` stage).
    /// Measured wherever the stage ran — on the caller for the inline
    /// path, on the queuer thread for prepare-ahead.
    pub predict_ns: u64,
    /// Lock-queue population: dependent-transaction preparation plus
    /// lock-table build/publish, summed over scheduling rounds.
    pub queue_ns: u64,
    /// Update phase (workers draining the ready queue) plus failed
    /// handling, summed over scheduling rounds.
    pub execute_ns: u64,
    /// Epoch advance + store garbage collection.
    pub commit_ns: u64,
    /// Outcome assembly (outputs, verdicts, latency harvest).
    pub apply_ns: u64,
    /// How much of `predict_ns` was hidden behind the previous batch's
    /// execution (prepare-ahead overlap). Zero on the unpipelined path.
    pub overlap_ns: u64,
    /// Fresh lock-queue allocations this batch (zero once the builder's
    /// recycled pools cover the working set).
    pub lock_fresh_allocs: u64,
    /// Worker wait episodes during the update phase: transitions from
    /// executing to spinning on an empty ready queue. Wall-clock-dependent
    /// on the engine (the simulator computes a deterministic equivalent).
    pub lock_waits: u64,
    /// Contended keys summed over scheduling rounds: keys whose lock
    /// queues held more than one transaction. A pure function of the
    /// batch contents — identical on every replica.
    pub lock_contended_keys: u64,
}

impl StageTimings {
    /// Adds `other`'s timers and counters into `self` (for aggregating
    /// across batches).
    pub fn accumulate(&mut self, other: &StageTimings) {
        self.predict_ns += other.predict_ns;
        self.queue_ns += other.queue_ns;
        self.execute_ns += other.execute_ns;
        self.commit_ns += other.commit_ns;
        self.apply_ns += other.apply_ns;
        self.overlap_ns += other.overlap_ns;
        self.lock_fresh_allocs += other.lock_fresh_allocs;
        self.lock_waits += other.lock_waits;
        self.lock_contended_keys += other.lock_contended_keys;
    }

    /// Plain sum of the five stage timers. `overlap_ns` nanoseconds of
    /// `predict_ns` ran concurrently with the previous batch's execute
    /// stage on the pipelined path, so this sum double-counts them
    /// relative to wall-clock; use [`StageTimings::busy_ns`] for the
    /// wall-clock-comparable total.
    pub fn stage_sum_ns(&self) -> u64 {
        self.predict_ns + self.queue_ns + self.execute_ns + self.commit_ns + self.apply_ns
    }

    /// The wall-clock critical path implied by the stage timers: the
    /// stage sum with the prepare-ahead overlap removed exactly once.
    /// For an unpipelined run this equals [`StageTimings::stage_sum_ns`]
    /// (overlap is zero); for a pipelined run it is what the batches
    /// actually cost end to end.
    pub fn busy_ns(&self) -> u64 {
        self.stage_sum_ns().saturating_sub(self.overlap_ns)
    }
}

/// Per-batch outcome and metrics.
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Transactions in the batch (including read-only ones).
    pub batch_size: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Transactions deterministically aborted (workload bugs and injected
    /// faults). Final: aborted transactions are never retried.
    pub aborted: usize,
    /// Abort-and-retry events (one transaction may fail validation several
    /// times before committing).
    pub aborts: usize,
    /// Scheduling rounds used (1 = no failures).
    pub rounds: u32,
    /// Transactions handed back to the client ([`FailedPolicy::NextBatch`]).
    pub carried_over: Vec<TxRequest>,
    /// Per-committed-transaction latency from execution start, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Total time spent preparing dependent transactions, and how many
    /// preparations ran (Fig. 5b's "prepare" component).
    pub prepare_ns_total: u64,
    /// Number of preparation operations.
    pub prepare_count: u64,
    /// Total first-failure→commit time over re-executed transactions
    /// (Fig. 5b's "re-execute failed" component).
    pub reexec_ns_total: u64,
    /// Number of transactions that needed re-execution.
    pub reexec_count: u64,
    /// Wall-clock duration of the execute stage.
    pub duration: Duration,
    /// Per-stage timers and counters (see [`StageTimings`]).
    pub stage: StageTimings,
    /// Keys the committed update transactions' (possibly specialized)
    /// predictions locked, summed. Deterministic: a pure function of the
    /// batch contents and the installed specialization set.
    pub predicted_keys: u64,
    /// Distinct keys the committed update transactions concretely
    /// touched, summed. Deterministic (see `predicted_keys`).
    pub observed_keys: u64,
    /// Predicted keys that were lock-contended but never concretely
    /// touched, summed over committed update transactions — the batch's
    /// false lock conflicts. Collected only while an adaptation sink is
    /// attached (zero otherwise); deterministic when collected.
    pub false_conflicts: u64,
    /// Dependent transactions whose prediction came from the indirect
    /// specialization cache (pivot re-check passed).
    pub spec_cache_hits: u64,
    /// Keys dropped from predictions by range-narrowing specializations.
    pub spec_narrowed: u64,
    /// Version of the specialization set the batch was classified under
    /// (0 = static profiles only).
    pub spec_version: u64,
    /// Results emitted by read-only transactions, indexed by batch
    /// position (`None` for update transactions and carried-over ones).
    pub outputs: Vec<Option<Vec<Value>>>,
    /// Per-transaction verdicts, indexed by batch position. Identical on
    /// every replica fed the same batch under the same fault plan.
    pub outcomes: Vec<TxOutcome>,
}

impl BatchOutcome {
    /// Throughput implied by this batch alone (committed / duration).
    pub fn throughput_tps(&self) -> f64 {
        if self.duration.is_zero() {
            return 0.0;
        }
        self.committed as f64 / self.duration.as_secs_f64()
    }
}

const ACTION_CONTINUE: u8 = 0;
const ACTION_DONE: u8 = 1;

/// How many batches may sit in the queuer thread's channels. The
/// pipelined executor keeps at most `depth ≤ 1` in flight, so this never
/// blocks a sender; the headroom only decouples teardown ordering.
const QUEUER_CHANNEL_CAP: usize = 2;

/// Mutable per-transaction state, merged behind one lock so a slot costs
/// a single mutex acquisition wherever prediction/output/verdict are
/// touched together.
#[derive(Default)]
struct SlotState {
    prediction: Option<Prediction>,
    output: Option<Vec<Value>>,
    /// Set (once) when the transaction is deterministically aborted; the
    /// slot then takes no further part in the batch.
    aborted: Option<AbortReason>,
}

struct TxSlot {
    req: TxRequest,
    class: TxClass,
    program: Arc<Program>,
    profile: Option<Arc<Profile>>,
    /// Table-granularity scope (NODO) computed at classification.
    table_scope: Option<AccessScope>,
    state: Mutex<SlotState>,
    finished_ns: AtomicU64,
    first_fail_ns: AtomicU64,
    aborts: AtomicU32,
    /// Specialization + adaptation bookkeeping, aggregated into
    /// [`BatchOutcome`] (all deterministic; see the field docs there).
    spec_cache_hit: AtomicBool,
    spec_narrowed: AtomicU64,
    predicted_keys: AtomicU64,
    observed_keys: AtomicU64,
    false_locked: AtomicU64,
}

/// Records a deterministic abort for `slot` (first reason wins).
fn record_abort(slot: &TxSlot, reason: AbortReason) {
    let mut state = slot.state.lock();
    if state.aborted.is_none() {
        state.aborted = Some(reason);
    }
}

/// A classified batch, ready to execute: the output of [`Engine::prepare`]
/// and the input of [`Engine::execute`].
///
/// Holds only store-independent state (per-transaction class, program,
/// profile, and — for independent transactions — the direct prediction),
/// so it may be built arbitrarily far ahead of execution without changing
/// outcomes.
pub struct PreparedBatch {
    slots: Vec<TxSlot>,
    rot_idxs: Vec<TxIdx>,
    dt_idxs: Vec<TxIdx>,
    it_idxs: Vec<TxIdx>,
    predict_ns: u64,
    /// The specialization set the batch was classified under, pinned at
    /// classification so execute sees the same overlay even if a swap is
    /// installed in between (the replica only swaps at drain points, but
    /// the pin makes the outcome a pure function of this batch + set).
    specs: Arc<SpecializationSet>,
}

impl PreparedBatch {
    /// Transactions in the batch.
    pub fn batch_size(&self) -> usize {
        self.slots.len()
    }

    /// Wall-clock nanoseconds the classification stage took.
    pub fn predict_ns(&self) -> u64 {
        self.predict_ns
    }
}

impl std::fmt::Debug for PreparedBatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedBatch")
            .field("batch_size", &self.slots.len())
            .field("read_only", &self.rot_idxs.len())
            .field("dependent", &self.dt_idxs.len())
            .field("independent", &self.it_idxs.len())
            .finish()
    }
}

struct BatchWork {
    slots: Vec<TxSlot>,
    rot_queues: Vec<SegQueue<TxIdx>>,
    prepare_queue: SegQueue<TxIdx>,
    /// The current round's lock table (published at barrier (2), taken
    /// back for recycling after barrier (3)).
    lock_table: RwLock<Option<Arc<LockTable>>>,
    round_total: AtomicUsize,
    completed: AtomicUsize,
    failed: Mutex<Vec<TxIdx>>,
    action: AtomicU8,
    /// Epoch DT preparation reads from in round 1.
    prepare_epoch: u64,
    /// Epoch ROTs read from.
    snapshot_epoch: u64,
    /// Round ≥ 2 preparation reads live state instead.
    prepare_live: AtomicBool,
    parallel_prepare: bool,
    prepare_mode: PrepareMode,
    batch_start: Instant,
    prepare_ns: AtomicU64,
    prepare_count: AtomicU64,
    /// Fault-injection plan for this batch, if any.
    fault_plan: Option<Arc<FaultPlan>>,
    /// This batch's index in the replica's lifetime (the fault plan's
    /// batch coordinate).
    batch_index: u64,
    /// Ready-transaction selection policy for the update phase.
    ready_policy: Arc<dyn ReadyPolicy>,
    /// Specialization set this batch was classified under.
    specs: Arc<SpecializationSet>,
    /// Adaptation sink, if one is attached (snapshot, like `recorder`).
    adapt: Option<Arc<dyn AdaptSink>>,
    /// Union over rounds of lock-contended keys, collected at freeze time
    /// only while an adaptation sink is attached — the "contended" leg of
    /// false-conflict attribution. Derived from the frozen lock tables,
    /// so deterministic.
    contended: RwLock<HashSet<Key>>,
    /// Flight recorder, if one is attached to the engine. Events carry
    /// only logical coordinates; when detached/disabled the record sites
    /// cost one branch (plus one relaxed load inside the recorder).
    recorder: Option<Arc<FlightRecorder>>,
    /// Worker wait episodes (executing → spinning transitions) during the
    /// update phase. Wall-clock-dependent; metrics only.
    lock_waits: AtomicU64,
    /// Set when a thread panics *outside* any per-transaction scope (an
    /// engine bug or a catalog/profile mismatch — not attributable to one
    /// transaction); the batch is wound down through the normal barrier
    /// sequence so no thread deadlocks, and the queuer re-raises the
    /// panic afterwards. Per-transaction failures never reach this: they
    /// become deterministic [`TxOutcome::Aborted`] verdicts instead.
    fatal: AtomicBool,
    fatal_msg: Mutex<Option<String>>,
}

/// Best-effort extraction of a panic payload's message: `panic!("{}", x)`
/// carries a `String`, `panic!("literal")` a `&'static str`.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "worker panicked".to_string())
}

/// Runs `f`, converting a panic into the batch-fatal flag so every thread
/// still reaches its barriers.
fn run_guarded(work: &BatchWork, f: impl FnOnce()) {
    if work.fatal.load(Ordering::Acquire) {
        return;
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    if let Err(payload) = result {
        *work.fatal_msg.lock() = Some(panic_message(payload.as_ref()));
        work.fatal.store(true, Ordering::Release);
    }
}

impl BatchWork {
    fn now_ns(&self) -> u64 {
        self.batch_start.elapsed().as_nanos() as u64
    }
}

struct Shared {
    barrier: std::sync::Barrier,
    work: RwLock<Option<Arc<BatchWork>>>,
    generation: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// The engine's handles into the global metrics [`Registry`], fetched
/// once at construction so the hot path never takes the registry lock.
struct EngineMetrics {
    batches: Arc<Counter>,
    tx_committed: Arc<Counter>,
    tx_aborted: Arc<Counter>,
    lock_waits: Arc<Counter>,
    lock_contended_keys: Arc<Counter>,
    false_conflicts: Arc<Counter>,
    spec_cache_hits: Arc<Counter>,
    batch_queue_us: Arc<Histogram>,
    batch_execute_us: Arc<Histogram>,
}

impl EngineMetrics {
    fn new() -> Self {
        let r = Registry::global();
        EngineMetrics {
            batches: r.counter("engine.batches"),
            tx_committed: r.counter("engine.tx_committed"),
            tx_aborted: r.counter("engine.tx_aborted"),
            lock_waits: r.counter("engine.lock_waits"),
            lock_contended_keys: r.counter("engine.lock_contended_keys"),
            false_conflicts: r.counter("engine.false_conflicts"),
            spec_cache_hits: r.counter("engine.spec_cache_hits"),
            batch_queue_us: r.histogram("engine.batch_queue_us"),
            batch_execute_us: r.histogram("engine.batch_execute_us"),
        }
    }
}

/// A stable 64-bit fingerprint of a key for flight-recorder events
/// (FNV-1a over the key's display form — deterministic across processes).
fn key_fingerprint(key: &Key) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{key:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Records a committed transaction's [`AccessLog`] as `TxRead`/`TxWrite`
/// flight events (logical coordinates only: batch, tx, per-tx sequence,
/// key fingerprint, per-key version). These are the isolation checker's
/// inputs; they are replay-stable because read order is program order and
/// the write flush is key-sorted.
fn record_access_log(work: &BatchWork, tx: TxIdx, log: &AccessLog) {
    let Some(rec) = &work.recorder else { return };
    if !rec.is_enabled() {
        return;
    }
    for (seq, (key, ver)) in log.reads.iter().enumerate() {
        let (fp, ver) = (key_fingerprint(key), *ver);
        rec.record(|| Event::TxRead {
            batch: work.batch_index,
            tx: u64::from(tx),
            seq: seq as u64,
            key: fp,
            version: ver,
        });
    }
    for (seq, (key, ver)) in log.writes.iter().enumerate() {
        let (fp, ver) = (key_fingerprint(key), *ver);
        rec.record(|| Event::TxWrite {
            batch: work.batch_index,
            tx: u64::from(tx),
            seq: seq as u64,
            key: fp,
            version: ver,
        });
    }
}

/// The prepare-ahead queuer thread's endpoints. The thread is spawned
/// lazily on the first [`Engine::submit_prepare`]; an engine that never
/// pipelines never pays for it.
#[derive(Default)]
struct QueuerState {
    submit: Option<mpsc::SyncSender<Vec<TxRequest>>>,
    prepared: Option<mpsc::Receiver<Result<PreparedBatch, String>>>,
    handle: Option<JoinHandle<()>>,
}

/// A replica's transaction-processing engine. See the module docs.
///
/// The engine is interior-mutable: every operation takes `&self`, so an
/// `Arc<Engine>` can be shared between a driver thread and the prepare-
/// ahead machinery. Execution itself is serialized by an internal lock —
/// batches always execute one at a time, in call order.
pub struct Engine {
    config: SchedulerConfig,
    catalog: Arc<Catalog>,
    store: Arc<EpochStore>,
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    fault_plan: RwLock<Option<Arc<FaultPlan>>>,
    batches_executed: AtomicU64,
    /// Serializes [`Engine::execute`] calls.
    exec_lock: Mutex<()>,
    /// Long-lived lock-table builder; its buffers are recycled across
    /// rounds and batches.
    builder: Mutex<LockTableBuilder>,
    queuer: Mutex<QueuerState>,
    /// Registry handles (see [`EngineMetrics`]).
    metrics: EngineMetrics,
    /// Flight recorder attached via [`Engine::set_recorder`].
    recorder: RwLock<Option<Arc<FlightRecorder>>>,
    /// Adaptation sink attached via [`Engine::set_adapt_sink`].
    adapt_sink: RwLock<Option<Arc<dyn AdaptSink>>>,
    /// The installed specialization set. Shared (via `Arc`) with the
    /// prepare-ahead queuer thread, which snapshots it per batch.
    specializations: Arc<RwLock<Arc<SpecializationSet>>>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("workers", &self.handles.lock().len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Spawns the worker pool.
    ///
    /// # Panics
    /// Panics if `config.workers` is zero.
    pub fn new(config: SchedulerConfig, catalog: Arc<Catalog>, store: Arc<EpochStore>) -> Self {
        assert!(config.workers > 0, "at least one worker thread is required");
        let shared = Arc::new(Shared {
            barrier: std::sync::Barrier::new(config.workers + 1),
            work: RwLock::new(None),
            generation: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let mut handles = Vec::with_capacity(config.workers);
        for worker_id in 0..config.workers {
            let shared = Arc::clone(&shared);
            let store = Arc::clone(&store);
            let handle = std::thread::Builder::new()
                .name(format!("prognosticator-worker-{worker_id}"))
                .spawn(move || worker_loop(worker_id, &shared, &store))
                .expect("spawn worker thread");
            handles.push(handle);
        }
        Engine {
            config,
            catalog,
            store,
            shared,
            handles: Mutex::new(handles),
            fault_plan: RwLock::new(None),
            batches_executed: AtomicU64::new(0),
            exec_lock: Mutex::new(()),
            builder: Mutex::new(LockTableBuilder::new()),
            queuer: Mutex::new(QueuerState::default()),
            metrics: EngineMetrics::new(),
            recorder: RwLock::new(None),
            adapt_sink: RwLock::new(None),
            specializations: Arc::new(RwLock::new(Arc::new(SpecializationSet::empty()))),
        }
    }

    /// Attaches (or detaches) a flight recorder. Subsequent batches emit
    /// structured events into it; recording never changes outcomes.
    pub fn set_recorder(&self, recorder: Option<Arc<FlightRecorder>>) {
        *self.recorder.write() = recorder;
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<Arc<FlightRecorder>> {
        self.recorder.read().clone()
    }

    /// Attaches (or detaches) an adaptation sink. Subsequent batches feed
    /// it execute-path observations ([`TxObservation`]); observing never
    /// changes outcomes.
    pub fn set_adapt_sink(&self, sink: Option<Arc<dyn AdaptSink>>) {
        *self.adapt_sink.write() = sink;
    }

    /// The attached adaptation sink, if any.
    pub fn adapt_sink(&self) -> Option<Arc<dyn AdaptSink>> {
        self.adapt_sink.read().clone()
    }

    /// Installs a specialization set; batches classified from now on
    /// predict under it. **Determinism contract:** callers must only
    /// install sets delivered as committed [`crate::adapt::LogRecord::Specialize`]
    /// entries, at their log position, with no batch in flight — the
    /// replica's record loop and recovery replay both guarantee this.
    pub fn install_specializations(&self, set: SpecializationSet) {
        let version = set.version;
        let programs = set.programs.len() as u64;
        *self.specializations.write() = Arc::new(set);
        if let Some(rec) = self.recorder() {
            let batch = self.batches_executed();
            rec.record(|| Event::SpecializationActivated { batch, version, programs });
        }
    }

    /// The currently installed specialization set.
    pub fn specializations(&self) -> Arc<SpecializationSet> {
        self.specializations.read().clone()
    }

    /// Installs (or clears) a deterministic fault-injection plan applied
    /// to subsequent batches. Injected worker panics become per-
    /// transaction [`TxOutcome::Aborted`] verdicts; storage latency spikes
    /// perturb timing only.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.write() = plan.map(Arc::new);
    }

    /// Batches executed so far — the fault plan's batch coordinate for
    /// the next batch.
    pub fn batches_executed(&self) -> u64 {
        self.batches_executed.load(Ordering::Acquire)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &SchedulerConfig {
        &self.config
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<EpochStore> {
        &self.store
    }

    /// The shared program catalog.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Classifies one ordered batch into a [`PreparedBatch`].
    ///
    /// This stage is a pure function of the batch and the catalog: it
    /// derives each transaction's class and, for independent transactions,
    /// the direct key-set prediction — but reads no store state, so it may
    /// run while an earlier batch is still executing without changing any
    /// outcome.
    pub fn prepare(&self, batch: Vec<TxRequest>) -> PreparedBatch {
        let specs = self.specializations.read().clone();
        prepare_batch(self.config.granularity, self.config.prepare, &self.catalog, specs, batch)
    }

    /// Hands `batch` to the dedicated queuer thread for classification.
    /// Results arrive in submission order via [`Engine::recv_prepared`].
    /// The thread is spawned on first use.
    pub fn submit_prepare(&self, batch: Vec<TxRequest>) {
        let sender = {
            let mut queuer = self.queuer.lock();
            if queuer.handle.is_none() {
                let (submit_tx, submit_rx) =
                    mpsc::sync_channel::<Vec<TxRequest>>(QUEUER_CHANNEL_CAP);
                let (done_tx, done_rx) =
                    mpsc::sync_channel::<Result<PreparedBatch, String>>(QUEUER_CHANNEL_CAP);
                let catalog = Arc::clone(&self.catalog);
                let granularity = self.config.granularity;
                let mode = self.config.prepare;
                let specializations = Arc::clone(&self.specializations);
                // The thread owns only what classification needs — no
                // engine reference, so engine teardown can never race it.
                // The specialization slot is shared: each batch snapshots
                // the set current at its classification, which the replica
                // only swaps at drain points (no batch in flight).
                let handle = std::thread::Builder::new()
                    .name("prognosticator-queuer".to_string())
                    .spawn(move || {
                        while let Ok(batch) = submit_rx.recv() {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    let specs = specializations.read().clone();
                                    prepare_batch(granularity, mode, &catalog, specs, batch)
                                }))
                                .map_err(|payload| panic_message(payload.as_ref()));
                            if done_tx.send(result).is_err() {
                                return;
                            }
                        }
                    })
                    .expect("spawn queuer thread");
                queuer.submit = Some(submit_tx);
                queuer.prepared = Some(done_rx);
                queuer.handle = Some(handle);
            }
            queuer.submit.as_ref().expect("queuer running").clone()
        };
        // Send outside the lock: a full channel must not hold the state
        // mutex against `recv_prepared`.
        sender.send(batch).expect("queuer thread alive");
    }

    /// Receives the next prepared batch from the queuer thread, blocking
    /// until one is ready.
    ///
    /// # Panics
    /// Panics if nothing was submitted, or re-raises a classification
    /// panic that occurred on the queuer thread.
    pub fn recv_prepared(&self) -> PreparedBatch {
        let queuer = self.queuer.lock();
        let rx = queuer.prepared.as_ref().expect("no batch was submitted for preparation");
        match rx.recv() {
            Ok(Ok(prepared)) => prepared,
            Ok(Err(msg)) => panic!("prepare failed on queuer thread: {msg}"),
            Err(_) => panic!("queuer thread exited unexpectedly"),
        }
    }

    /// Like [`Engine::recv_prepared`], but returns `None` instead of
    /// blocking when no prepared batch is ready yet. Lets a driver tell a
    /// fully-overlapped prepare from one it had to wait for.
    ///
    /// # Panics
    /// Re-raises a classification panic from the queuer thread.
    pub fn try_recv_prepared(&self) -> Option<PreparedBatch> {
        let queuer = self.queuer.lock();
        let rx = queuer.prepared.as_ref()?;
        match rx.try_recv() {
            Ok(Ok(prepared)) => Some(prepared),
            Ok(Err(msg)) => panic!("prepare failed on queuer thread: {msg}"),
            Err(_) => None,
        }
    }

    /// Executes one ordered batch to completion and commits its epoch:
    /// `prepare` + `execute` back to back (the unpipelined path).
    pub fn execute_batch(&self, batch: Vec<TxRequest>) -> BatchOutcome {
        let prepared = self.prepare(batch);
        self.execute(prepared)
    }

    /// Executes a prepared batch to completion and commits its epoch. The
    /// calling thread acts as the queuer. Concurrent callers are
    /// serialized; batches commit in call order.
    pub fn execute(&self, prepared: PreparedBatch) -> BatchOutcome {
        let _exec = self.exec_lock.lock();
        let batch_start = Instant::now();
        let PreparedBatch { slots, rot_idxs, dt_idxs, it_idxs, predict_ns, specs } = prepared;
        let batch_size = slots.len();
        let batch_index = self.batches_executed.fetch_add(1, Ordering::AcqRel);
        let fault_plan = self.fault_plan.read().clone();
        // Storage latency spike: raise the store's injected latency for
        // this batch only. Timing-only — state and outcomes are unchanged.
        let prior_latency = fault_plan.as_ref().and_then(|plan| {
            plan.storage_spike(batch_index).map(|spike| {
                let prior = self.store.latency();
                self.store.set_latency(LatencyConfig::symmetric(spike));
                prior
            })
        });
        let current = self.store.current_epoch();
        let snapshot_epoch = current - 1;
        let prepare_epoch = snapshot_epoch.saturating_sub(self.config.prepare_staleness);

        let work = Arc::new(BatchWork {
            slots,
            rot_queues: (0..self.config.workers).map(|_| SegQueue::new()).collect(),
            prepare_queue: SegQueue::new(),
            lock_table: RwLock::new(None),
            round_total: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            failed: Mutex::new(Vec::new()),
            action: AtomicU8::new(ACTION_CONTINUE),
            prepare_epoch,
            snapshot_epoch,
            prepare_live: AtomicBool::new(false),
            parallel_prepare: self.config.parallel_prepare,
            prepare_mode: self.config.prepare,
            batch_start,
            prepare_ns: AtomicU64::new(0),
            prepare_count: AtomicU64::new(0),
            fault_plan,
            batch_index,
            ready_policy: Arc::clone(&self.config.ready_policy),
            specs,
            adapt: self.adapt_sink.read().clone(),
            contended: RwLock::new(HashSet::new()),
            recorder: self.recorder.read().clone(),
            lock_waits: AtomicU64::new(0),
            fatal: AtomicBool::new(false),
            fatal_msg: Mutex::new(None),
        });
        if let Some(rec) = &work.recorder {
            rec.record(|| Event::BatchStart {
                batch: batch_index,
                txs: batch_size as u64,
            });
        }

        // Distribute ROTs round-robin over the per-worker queues.
        for (n, &i) in rot_idxs.iter().enumerate() {
            work.rot_queues[n % self.config.workers].push(i);
        }
        // Dependent transactions need preparation.
        for &i in &dt_idxs {
            work.prepare_queue.push(i);
        }

        // Publish the batch and wake the pool.
        *self.shared.work.write() = Some(Arc::clone(&work));
        {
            let mut generation = self.shared.generation.lock();
            *generation += 1;
            self.shared.wake.notify_all();
        }

        // --- Rounds ---
        let mut outcome = BatchOutcome { batch_size, ..BatchOutcome::default() };
        outcome.stage.predict_ns = predict_ns;
        let mut builder = self.builder.lock();
        let fresh_queues_before = builder.stats().fresh_queues;
        let mut round_members: Vec<TxIdx> = Vec::new(); // set in each round
        let mut first_round = true;
        loop {
            outcome.rounds += 1;
            let round_start = Instant::now();
            // Phase 1: the queuer always helps preparing (in 1Q mode it is
            // the only preparer: workers skip the queue).
            run_guarded(&work, || {
                while let Some(i) = work.prepare_queue.pop() {
                    prepare_slot(&work, i, &self.store);
                }
            });
            self.shared.barrier.wait(); // (1) prepare done

            // Phase 2: build the lock table — DTs ahead of ITs (§III-C).
            // Slots aborted during preparation carry no prediction and
            // their verdict is already final, so they are excluded here;
            // the exclusion is deterministic because abort decisions are.
            let members: Vec<TxIdx> = if first_round {
                dt_idxs.iter().chain(it_idxs.iter()).copied().collect()
            } else {
                round_members.clone()
            };
            let members: Vec<TxIdx> = members
                .into_iter()
                .filter(|&i| work.slots[i as usize].state.lock().aborted.is_none())
                .collect();
            for &i in &members {
                builder.enqueue(i, lock_keys(&work.slots[i as usize]));
            }
            let table = Arc::new(builder.freeze(work.slots.len()));
            outcome.stage.lock_contended_keys += table.contended_keys();
            // Contended-key set for false-conflict attribution; the waiter
            // list names every contended queue at least once.
            if work.adapt.is_some() {
                let mut contended = work.contended.write();
                for (key, _, _) in table.waiters() {
                    if !contended.contains(key) {
                        contended.insert(key.clone());
                    }
                }
            }
            if let Some(rec) = &work.recorder {
                if rec.is_enabled() {
                    for (key, tx, depth) in table.waiters() {
                        let key = key_fingerprint(key);
                        rec.record(|| Event::LockWait {
                            batch: batch_index,
                            tx: u64::from(tx),
                            key,
                            depth,
                        });
                    }
                }
            }
            work.round_total.store(members.len(), Ordering::Release);
            work.completed.store(0, Ordering::Release);
            work.failed.lock().clear();
            *work.lock_table.write() = Some(table);
            self.shared.barrier.wait(); // (2) lock table published
            outcome.stage.queue_ns += round_start.elapsed().as_nanos() as u64;

            // Phase 3: workers execute; the queuer waits.
            let update_start = Instant::now();
            self.shared.barrier.wait(); // (3) update phase done
            // Workers dropped their table references before barrier (3);
            // reclaim the round's buffers for the next build. (Under a
            // batch-fatal wind-down a worker may have bailed out early and
            // still hold a reference — then the unwrap fails and the table
            // is simply dropped.)
            if let Some(table) = work.lock_table.write().take() {
                if let Ok(table) = Arc::try_unwrap(table) {
                    builder.recycle(table);
                }
            }

            // Phase 4: failed handling.
            let mut failed = std::mem::take(&mut *work.failed.lock());
            failed.sort_unstable();
            outcome.aborts += failed.len();
            for &i in &failed {
                let slot = &work.slots[i as usize];
                slot.first_fail_ns
                    .compare_exchange(0, work.now_ns().max(1), Ordering::AcqRel, Ordering::Acquire)
                    .ok();
            }

            let fall_back_to_serial = outcome.rounds >= self.config.max_rounds;
            if failed.is_empty() {
                work.action.store(ACTION_DONE, Ordering::Release);
            } else {
                match self.config.failed {
                    FailedPolicy::SingleThread => {
                        run_guarded(&work, || self.reexecute_serially(&work, &failed));
                        work.action.store(ACTION_DONE, Ordering::Release);
                    }
                    FailedPolicy::Reenqueue if !fall_back_to_serial => {
                        // Deterministic re-prepare against the live state.
                        work.prepare_live.store(true, Ordering::Release);
                        for &i in &failed {
                            work.slots[i as usize].state.lock().prediction = None;
                            work.prepare_queue.push(i);
                        }
                        round_members = failed;
                        work.action.store(ACTION_CONTINUE, Ordering::Release);
                    }
                    FailedPolicy::Reenqueue => {
                        run_guarded(&work, || self.reexecute_serially(&work, &failed));
                        work.action.store(ACTION_DONE, Ordering::Release);
                    }
                    FailedPolicy::NextBatch => {
                        for &i in &failed {
                            outcome.carried_over.push(work.slots[i as usize].req.clone());
                        }
                        work.action.store(ACTION_DONE, Ordering::Release);
                    }
                }
            }
            if work.fatal.load(Ordering::Acquire) {
                work.action.store(ACTION_DONE, Ordering::Release);
            }
            self.shared.barrier.wait(); // (4) action published
            outcome.stage.execute_ns += update_start.elapsed().as_nanos() as u64;
            first_round = false;
            if work.action.load(Ordering::Acquire) == ACTION_DONE {
                break;
            }
        }
        outcome.stage.lock_fresh_allocs = builder.stats().fresh_queues - fresh_queues_before;
        outcome.stage.lock_waits = work.lock_waits.load(Ordering::Acquire);
        drop(builder);

        // Retire the batch.
        *self.shared.work.write() = None;
        if let Some(prior) = prior_latency {
            self.store.set_latency(prior);
        }
        if work.fatal.load(Ordering::Acquire) {
            let msg = work.fatal_msg.lock().take().unwrap_or_default();
            panic!("fatal batch error: {msg}");
        }
        let commit_start = Instant::now();
        self.store.advance_epoch();
        if let Some(keep) = self.config.gc_keep_epochs {
            debug_assert!(
                keep > self.config.prepare_staleness,
                "GC window must retain the preparation snapshots"
            );
            self.store.gc_before(self.store.current_epoch().saturating_sub(keep));
        }
        outcome.stage.commit_ns = commit_start.elapsed().as_nanos() as u64;

        // --- Metrics --- (carried-over slots never set `finished_ns`,
        // aborted slots never do either: the three states are disjoint)
        let apply_start = Instant::now();
        outcome.spec_version = work.specs.version;
        for slot in &work.slots {
            outcome.predicted_keys += slot.predicted_keys.load(Ordering::Acquire);
            outcome.observed_keys += slot.observed_keys.load(Ordering::Acquire);
            outcome.false_conflicts += slot.false_locked.load(Ordering::Acquire);
            outcome.spec_cache_hits += u64::from(slot.spec_cache_hit.load(Ordering::Acquire));
            outcome.spec_narrowed += slot.spec_narrowed.load(Ordering::Acquire);
            let mut state = slot.state.lock();
            outcome.outputs.push(state.output.take());
            let finished = slot.finished_ns.load(Ordering::Acquire);
            if let Some(reason) = state.aborted.take() {
                debug_assert_eq!(finished, 0, "aborted slots never finish");
                outcome.aborted += 1;
                outcome.outcomes.push(TxOutcome::Aborted { reason });
            } else if finished > 0 {
                outcome.committed += 1;
                outcome.latencies_ns.push(finished);
                let first_fail = slot.first_fail_ns.load(Ordering::Acquire);
                if first_fail > 0 {
                    outcome.reexec_ns_total += finished.saturating_sub(first_fail);
                    outcome.reexec_count += 1;
                }
                outcome.outcomes.push(TxOutcome::Committed);
            } else {
                outcome.outcomes.push(TxOutcome::CarriedOver);
            }
        }
        outcome.prepare_ns_total = work.prepare_ns.load(Ordering::Acquire);
        outcome.prepare_count = work.prepare_count.load(Ordering::Acquire);
        outcome.stage.apply_ns = apply_start.elapsed().as_nanos() as u64;
        outcome.duration = batch_start.elapsed();
        if let Some(rec) = &work.recorder {
            if rec.is_enabled() {
                for (i, verdict) in outcome.outcomes.iter().enumerate() {
                    let committed = matches!(verdict, TxOutcome::Committed);
                    rec.record(|| Event::TxOutcome {
                        batch: batch_index,
                        tx: i as u64,
                        committed,
                    });
                    if let TxOutcome::Aborted { reason: AbortReason::InjectedFault(_) } = verdict {
                        rec.record(|| Event::FaultInjected {
                            batch: batch_index,
                            tx: i as u64,
                            kind: "worker_panic".to_string(),
                        });
                    }
                }
                rec.record(|| Event::BatchEnd {
                    batch: batch_index,
                    committed: outcome.committed as u64,
                    failed: outcome.aborted as u64,
                });
            }
        }
        self.metrics.batches.inc();
        self.metrics.tx_committed.add(outcome.committed as u64);
        self.metrics.tx_aborted.add(outcome.aborted as u64);
        self.metrics.lock_waits.add(outcome.stage.lock_waits);
        self.metrics.false_conflicts.add(outcome.false_conflicts);
        self.metrics.spec_cache_hits.add(outcome.spec_cache_hits);
        self.metrics
            .lock_contended_keys
            .add(outcome.stage.lock_contended_keys);
        self.metrics.batch_queue_us.record(outcome.stage.queue_ns / 1_000);
        self.metrics
            .batch_execute_us
            .record(outcome.stage.execute_ns / 1_000);
        if let Some(sink) = &work.adapt {
            sink.observe_batch(batch_index);
        }
        outcome
    }

    /// `SF`: the queuer re-executes failed transactions sequentially in
    /// client order. Single-threaded execution needs no locks, preparation
    /// or validation — it simply runs the transaction logic against the
    /// live state (paper §III-C: serial re-execution "would ensure that
    /// these transactions would not fail again"), and is trivially
    /// deterministic because the workers are idle at the barrier. Writes
    /// are buffered per transaction so a workload bug aborts with no torn
    /// writes.
    fn reexecute_serially(&self, work: &BatchWork, failed: &[TxIdx]) {
        for &i in failed {
            let slot = &work.slots[i as usize];
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_live_buffered(&self.store, &slot.program, &slot.req.inputs)
            }));
            match result {
                Ok(Ok(log)) => {
                    observe_commit(work, slot, &log);
                    record_access_log(work, i, &log);
                    slot.finished_ns.store(work.now_ns().max(1), Ordering::Release);
                }
                Ok(Err(TxFailure::Eval(e))) => {
                    record_abort(slot, AbortReason::workload(slot.program.name(), e));
                }
                Ok(Err(_)) => unreachable!("serial execution only fails with Eval"),
                Err(payload) => {
                    record_abort(slot, AbortReason::from_panic_message(panic_message(payload.as_ref())));
                }
            }
        }
    }

    /// Stops the queuer thread and the worker pool. Idempotent, and safe
    /// to call whether or not a batch was ever prepared or executed: the
    /// queuer thread (if it was ever spawned) is woken by dropping its
    /// channel endpoints and joined first, then the workers.
    pub fn shutdown(&self) {
        let (submit, prepared, queuer_handle) = {
            let mut queuer = self.queuer.lock();
            (queuer.submit.take(), queuer.prepared.take(), queuer.handle.take())
        };
        // Dropping both endpoints wakes the thread wherever it is blocked:
        // waiting for work (recv fails) or waiting to hand off a result
        // (send fails).
        drop(submit);
        drop(prepared);
        if let Some(handle) = queuer_handle {
            let _ = handle.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.handles.lock());
        if handles.is_empty() {
            return;
        }
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.generation.lock();
            self.shared.wake.notify_all();
        }
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Classifies one ordered batch — the store-independent half of the batch
/// lifecycle, shared by [`Engine::prepare`] and the queuer thread.
fn prepare_batch(
    granularity: Granularity,
    prepare: PrepareMode,
    catalog: &Catalog,
    specs: Arc<SpecializationSet>,
    batch: Vec<TxRequest>,
) -> PreparedBatch {
    let t0 = Instant::now();
    let mut slots = Vec::with_capacity(batch.len());
    let mut rot_idxs: Vec<TxIdx> = Vec::new();
    let mut dt_idxs: Vec<TxIdx> = Vec::new();
    let mut it_idxs: Vec<TxIdx> = Vec::new();
    for (i, req) in batch.into_iter().enumerate() {
        let slot = classify_request(granularity, prepare, catalog, &specs, req);
        match slot.class {
            TxClass::ReadOnly => rot_idxs.push(i as TxIdx),
            TxClass::Dependent => dt_idxs.push(i as TxIdx),
            TxClass::Independent => it_idxs.push(i as TxIdx),
        }
        slots.push(slot);
    }
    let predict_ns = t0.elapsed().as_nanos() as u64;
    PreparedBatch { slots, rot_idxs, dt_idxs, it_idxs, predict_ns, specs }
}

/// Classifies one request into a slot (instance-level: a DT program whose
/// chosen path needs no pivots is treated as an IT instance).
fn classify_request(
    granularity: Granularity,
    prepare: PrepareMode,
    catalog: &Catalog,
    specs: &SpecializationSet,
    req: TxRequest,
) -> TxSlot {
    let entry = catalog.entry(req.program);
    let program = Arc::clone(entry.program());
    let profile = entry.profile().cloned();
    let mut prediction = None;
    let mut table_scope = None;
    let mut narrowed = 0u64;
    let spec = specs.for_program(program.name());

    let class = match granularity {
        Granularity::Table => {
            // NODO: everything is an independent transaction over
            // table-granularity conflict classes.
            let tables: HashSet<_> = entry
                .read_tables()
                .iter()
                .chain(entry.write_tables())
                .copied()
                .collect();
            table_scope = Some(AccessScope::Tables(tables));
            TxClass::Independent
        }
        Granularity::Key => match prepare {
            PrepareMode::Profile => match &profile {
                Some(p) if p.class() == TxClass::ReadOnly => TxClass::ReadOnly,
                // Demoted template: skip per-key prediction and lock its
                // declared tables (the NODO discipline, per program).
                // Trivially sound — tables ⊇ keys — and never aborts.
                Some(_) if spec.is_some_and(ProgSpecialization::demoted) => {
                    let tables: HashSet<_> = entry
                        .read_tables()
                        .iter()
                        .chain(entry.write_tables())
                        .copied()
                        .collect();
                    table_scope = Some(AccessScope::Tables(tables));
                    TxClass::Independent
                }
                Some(p) => match p.predict_direct(&req.inputs) {
                    Ok(mut pred) => {
                        if let Some(sp) = spec {
                            narrowed = apply_narrowing(&mut pred, sp);
                        }
                        prediction = Some(pred);
                        TxClass::Independent
                    }
                    Err(PredictError::NeedsStore) => TxClass::Dependent,
                    Err(PredictError::Eval(e)) => {
                        panic!("profile/input mismatch for {}: {e}", program.name())
                    }
                },
                // SE was capped: reconnaissance fallback.
                None if !entry.writes() => TxClass::ReadOnly,
                None => TxClass::Dependent,
            },
            PrepareMode::Reconnaissance => {
                if entry.writes() {
                    TxClass::Dependent
                } else {
                    TxClass::ReadOnly
                }
            }
        },
    };
    TxSlot {
        req,
        class,
        program,
        profile,
        table_scope,
        state: Mutex::new(SlotState { prediction, output: None, aborted: None }),
        finished_ns: AtomicU64::new(0),
        first_fail_ns: AtomicU64::new(0),
        aborts: AtomicU32::new(0),
        spec_cache_hit: AtomicBool::new(false),
        spec_narrowed: AtomicU64::new(narrowed),
        predicted_keys: AtomicU64::new(0),
        observed_keys: AtomicU64::new(0),
        false_locked: AtomicU64::new(0),
    }
}

/// The keys to enqueue in the lock table for a slot.
fn lock_keys(slot: &TxSlot) -> Vec<Key> {
    match &slot.table_scope {
        Some(AccessScope::Tables(tables)) => {
            let mut keys: Vec<Key> = tables.iter().map(|t| Key::new(*t, Vec::new())).collect();
            keys.sort();
            keys
        }
        _ => slot
            .state
            .lock()
            .prediction
            .as_ref()
            .expect("update transaction prepared before enqueue")
            .key_set(),
    }
}

/// Prepares slot `i`: fills its [`Prediction`] from the configured source.
/// Runs on the queuer and (in `MQ` mode) on idle workers.
fn prepare_slot(work: &BatchWork, i: TxIdx, store: &EpochStore) {
    if work.prepare_live.load(Ordering::Acquire) {
        prepare_slot_live(work, i, store);
    } else {
        prepare_slot_at(work, i, store, SnapshotKind::Epoch(work.prepare_epoch));
    }
}

fn prepare_slot_live(work: &BatchWork, i: TxIdx, store: &EpochStore) {
    prepare_slot_at(work, i, store, SnapshotKind::Live);
}

#[derive(Clone, Copy)]
enum SnapshotKind {
    Epoch(u64),
    Live,
}

fn prepare_slot_at(work: &BatchWork, i: TxIdx, store: &EpochStore, snap: SnapshotKind) {
    let t0 = Instant::now();
    let slot = &work.slots[i as usize];
    let prediction = match work.prepare_mode {
        PrepareMode::Profile => {
            let profile = slot
                .profile
                .as_ref()
                .filter(|p| p.class() != TxClass::ReadOnly)
                .cloned();
            match profile {
                Some(profile) => {
                    let mut resolver = |k: &Key| -> Value {
                        let v = match snap {
                            SnapshotKind::Epoch(e) => store.get_at(k, e),
                            SnapshotKind::Live => store.get_latest(k),
                        };
                        v.unwrap_or(Value::Unit)
                    };
                    // Retry rounds (live re-prepare) bypass the overlay:
                    // a narrowing-induced scope violation must recover
                    // with the raw profile's full prediction.
                    let spec = match snap {
                        SnapshotKind::Live => None,
                        SnapshotKind::Epoch(_) => work.specs.for_program(profile.program_name()),
                    };
                    // A prediction failure here is a catalog/profile
                    // mismatch — fatal, not a per-transaction abort.
                    match spec {
                        Some(sp) => {
                            let (pred, spec_out) = predict_specialized(
                                &profile,
                                &slot.req.inputs,
                                Some(&mut resolver),
                                sp,
                            )
                            .expect("profile prediction with resolver cannot need more");
                            if spec_out.cache_hit {
                                slot.spec_cache_hit.store(true, Ordering::Release);
                            }
                            slot.spec_narrowed
                                .fetch_add(spec_out.narrowed_dropped, Ordering::Relaxed);
                            Ok(pred)
                        }
                        None => Ok(profile
                            .predict(&slot.req.inputs, Some(&mut resolver))
                            .expect("profile prediction with resolver cannot need more")),
                    }
                }
                // SE-capped program: full reconnaissance.
                None => reconnoiter_with(store, slot, snap),
            }
        }
        PrepareMode::Reconnaissance => reconnoiter_with(store, slot, snap),
    };
    match prediction {
        Ok(p) => slot.state.lock().prediction = Some(p),
        // A workload bug during reconnaissance is the transaction's own
        // deterministic failure: abort it, leave the batch healthy.
        Err(reason) => record_abort(slot, reason),
    }
    work.prepare_ns.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    work.prepare_count.fetch_add(1, Ordering::Relaxed);
}

fn reconnoiter_with(
    store: &EpochStore,
    slot: &TxSlot,
    snap: SnapshotKind,
) -> Result<Prediction, AbortReason> {
    let epoch = match snap {
        SnapshotKind::Epoch(e) => e,
        // "Live" reconnaissance reads through the latest state; since the
        // engine only re-prepares while workers are idle, reading latest
        // versions via a very-future epoch is equivalent and keeps the
        // snapshot interface.
        SnapshotKind::Live => u64::MAX,
    };
    match reconnoiter(store, &slot.program, &slot.req.inputs, epoch) {
        Ok(p) => Ok(p),
        Err(TxFailure::Eval(e)) => Err(AbortReason::workload(slot.program.name(), e)),
        Err(_) => unreachable!("reconnoiter only fails with Eval"),
    }
}

/// The worker thread body.
fn worker_loop(worker_id: usize, shared: &Shared, store: &EpochStore) {
    let mut last_generation = 0u64;
    loop {
        // Wait for a new batch (or shutdown).
        {
            let mut generation = shared.generation.lock();
            while *generation == last_generation && !shared.shutdown.load(Ordering::Acquire) {
                shared.wake.wait(&mut generation);
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            last_generation = *generation;
        }
        let work = match shared.work.read().clone() {
            Some(w) => w,
            None => continue,
        };

        loop {
            // Phase 1: ROTs (non-empty only in round 1), then help prepare.
            run_guarded(&work, || {
                while let Some(i) = work.rot_queues[worker_id].pop() {
                    let slot = &work.slots[i as usize];
                    // Recovery replay: reproduce the original injected
                    // abort without unwinding the worker again.
                    if let Some(reason) = work
                        .fault_plan
                        .as_ref()
                        .and_then(|plan| plan.replay_abort(work.batch_index, i))
                    {
                        record_abort(slot, reason);
                        continue;
                    }
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let Some(plan) = &work.fault_plan {
                            plan.maybe_inject_worker_panic(work.batch_index, i);
                        }
                        execute_read_only(
                            store,
                            &slot.program,
                            &slot.req.inputs,
                            work.snapshot_epoch,
                        )
                    }));
                    match result {
                        Ok(Ok((emitted, log))) => {
                            let mut state = slot.state.lock();
                            state.output = Some(emitted);
                            drop(state);
                            record_access_log(&work, i, &log);
                            slot.finished_ns.store(work.now_ns().max(1), Ordering::Release);
                        }
                        Ok(Err(TxFailure::Eval(e))) => {
                            record_abort(slot, AbortReason::workload(slot.program.name(), e));
                        }
                        Ok(Err(_)) => unreachable!("ROTs cannot fail validation"),
                        Err(payload) => {
                            record_abort(
                                slot,
                                AbortReason::from_panic_message(panic_message(payload.as_ref())),
                            );
                        }
                    }
                }
                if work.parallel_prepare {
                    while let Some(i) = work.prepare_queue.pop() {
                        prepare_slot(&work, i, store);
                    }
                }
            });
            shared.barrier.wait(); // (1)
            shared.barrier.wait(); // (2) lock table ready
            {
                let table = work
                    .lock_table
                    .read()
                    .clone()
                    .expect("lock table published before phase 3");

                // Phase 3: update transactions. Idle workers spin hot: the
                // phase lasts at most a batch interval and parked threads
                // pay wake-up latency on every lock-chain handoff, which
                // would serialize contended batches (workers ≤ cores by
                // config).
                run_guarded(&work, || {
                    let backoff = Backoff::new();
                    // Wait-episode metric: count executing→spinning
                    // transitions, not spin iterations, so the number is
                    // a coarse contention signal rather than a spin-rate
                    // artifact. Wall-clock-dependent; metrics only.
                    let mut waiting = false;
                    loop {
                        let total = work.round_total.load(Ordering::Acquire);
                        if work.completed.load(Ordering::Acquire) >= total
                            || work.fatal.load(Ordering::Acquire)
                        {
                            break;
                        }
                        match table.pop_ready_with(work.ready_policy.as_ref()) {
                            Some(i) => {
                                waiting = false;
                                backoff.reset();
                                if let Some(rec) = &work.recorder {
                                    rec.record(|| Event::LockGrant {
                                        batch: work.batch_index,
                                        tx: u64::from(i),
                                    });
                                }
                                execute_update_slot(&work, i, store);
                                table.release(i);
                                if let Some(rec) = &work.recorder {
                                    rec.record(|| Event::LockRelease {
                                        batch: work.batch_index,
                                        tx: u64::from(i),
                                    });
                                }
                                work.completed.fetch_add(1, Ordering::AcqRel);
                            }
                            None => {
                                if !waiting {
                                    waiting = true;
                                    work.lock_waits.fetch_add(1, Ordering::Relaxed);
                                }
                                backoff.spin();
                            }
                        }
                    }
                });
                // The table reference is dropped here — before barrier
                // (3) — so the queuer can reclaim its buffers for the
                // next round's build.
            }
            shared.barrier.wait(); // (3)
            shared.barrier.wait(); // (4) action published
            if work.action.load(Ordering::Acquire) == ACTION_DONE {
                break;
            }
        }
    }
}

/// Records a committed update transaction's deterministic adaptation
/// aggregates (predicted/observed key counts, false-conflict attribution)
/// into its slot, and — when a sink is attached — delivers the full
/// [`TxObservation`] to it.
fn observe_commit(work: &BatchWork, slot: &TxSlot, log: &AccessLog) {
    let prediction = slot.state.lock().prediction.clone();
    let mut touched: Vec<&Key> = log
        .reads
        .iter()
        .map(|(k, _)| k)
        .chain(log.writes.iter().map(|(k, _)| k))
        .collect();
    touched.sort();
    touched.dedup();
    slot.observed_keys.store(touched.len() as u64, Ordering::Release);
    let predicted = match (&slot.table_scope, &prediction) {
        // Table-granularity slots predict no keys.
        (None, Some(p)) => p.key_set(),
        _ => Vec::new(),
    };
    slot.predicted_keys.store(predicted.len() as u64, Ordering::Release);
    let Some(sink) = &work.adapt else { return };
    let false_locked = {
        let contended = work.contended.read();
        predicted
            .iter()
            .filter(|k| contended.contains(*k) && touched.binary_search(k).is_err())
            .count() as u64
    };
    slot.false_locked.store(false_locked, Ordering::Release);
    let pivot_count = prediction
        .as_ref()
        .map_or(0, |p| p.pivot_observations.len() as u64);
    sink.observe_tx(TxObservation {
        program: slot.program.name().to_string(),
        fingerprint: fingerprint_inputs(&slot.req.inputs),
        inputs: slot.req.inputs.clone(),
        verdict: ObservedVerdict::Committed,
        predicted_keys: predicted.len() as u64,
        observed_keys: touched.len() as u64,
        pivot_count,
        false_locked,
        cache_hit: slot.spec_cache_hit.load(Ordering::Acquire),
        narrowed_dropped: slot.spec_narrowed.load(Ordering::Acquire),
        touched: touched.into_iter().cloned().collect(),
        prediction,
    });
}

/// Delivers a retry (pivot-miss / scope-miss) observation for slot `i`'s
/// failed attempt, when a sink is attached.
fn observe_retry(work: &BatchWork, slot: &TxSlot, verdict: ObservedVerdict) {
    let Some(sink) = &work.adapt else { return };
    let pivot_count = slot
        .state
        .lock()
        .prediction
        .as_ref()
        .map_or(0, |p| p.pivot_observations.len() as u64);
    sink.observe_tx(TxObservation {
        program: slot.program.name().to_string(),
        fingerprint: fingerprint_inputs(&slot.req.inputs),
        inputs: slot.req.inputs.clone(),
        verdict,
        predicted_keys: 0,
        observed_keys: 0,
        pivot_count,
        false_locked: 0,
        cache_hit: slot.spec_cache_hit.load(Ordering::Acquire),
        narrowed_dropped: slot.spec_narrowed.load(Ordering::Acquire),
        touched: Vec::new(),
        prediction: None,
    });
}

/// Executes update slot `i`, recording success, a deterministic abort, or
/// pushing it to the failed (retry) list.
///
/// Workload bugs and injected worker panics are caught here, per
/// transaction: execution is write-buffered, so an unwind discards all of
/// the transaction's writes (no torn state), and the calling worker then
/// releases the transaction's lock slots in key-set order via
/// `LockTable::release` exactly as on commit — successors unblock
/// identically on every replica.
fn execute_update_slot(work: &BatchWork, i: TxIdx, store: &EpochStore) {
    let slot = &work.slots[i as usize];
    // Recovery replay: the original run unwound here; reproduce the same
    // abort (same reason, same discarded writes) without panicking. The
    // caller still releases the slot's locks exactly as on the live path.
    if let Some(reason) = work
        .fault_plan
        .as_ref()
        .and_then(|plan| plan.replay_abort(work.batch_index, i))
    {
        record_abort(slot, reason);
        return;
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = &work.fault_plan {
            plan.maybe_inject_worker_panic(work.batch_index, i);
        }
        match &slot.table_scope {
            Some(scope) => {
                // NODO: table locks, direct scoped execution, no validation.
                execute_scoped(store, &slot.program, &slot.req.inputs, scope)
            }
            None => {
                let prediction = slot.state.lock().prediction.clone().expect("prepared");
                match work.prepare_mode {
                    PrepareMode::Profile if slot.profile.is_some() => {
                        execute_update(store, &slot.program, &slot.req.inputs, &prediction)
                    }
                    _ => {
                        // Reconnaissance-prepared (also the SE-capped
                        // fallback): the commit check is key-set
                        // containment, not pivot validation.
                        execute_reconnoitered(store, &slot.program, &slot.req.inputs, &prediction)
                    }
                }
            }
        }
    }));
    match result {
        Ok(Ok(log)) => {
            observe_commit(work, slot, &log);
            record_access_log(work, i, &log);
            slot.finished_ns.store(work.now_ns().max(1), Ordering::Release);
        }
        Ok(Err(TxFailure::Eval(e))) => {
            record_abort(slot, AbortReason::workload(slot.program.name(), e));
        }
        Ok(Err(failure)) => {
            let verdict = match failure {
                TxFailure::PivotChanged { .. } => ObservedVerdict::PivotMiss,
                _ => ObservedVerdict::ScopeMiss,
            };
            observe_retry(work, slot, verdict);
            slot.aborts.fetch_add(1, Ordering::Relaxed);
            work.failed.lock().push(i);
        }
        Err(payload) => {
            record_abort(slot, AbortReason::from_panic_message(panic_message(payload.as_ref())));
        }
    }
}
