//! Deterministic flight recorder: a bounded ring of structured events.
//!
//! Every event carries only *logical* coordinates — batch index,
//! transaction slot, key, WAL index — never wall-clock time or thread
//! ids, so the recorded multiset is a pure function of the seed and the
//! schedule. Worker threads may append in any interleaving, so dumps sort
//! events into a canonical order first; two runs of the same seed produce
//! byte-identical dump bodies whether or not they raced.
//!
//! Recording is gated on one relaxed atomic load and takes a closure, so
//! a disabled recorder never constructs the event at all. Dumps are
//! written as JSONL to `<dump_dir>/flightrec-<reason>-<pid>-<n>.jsonl`
//! and are triggered explicitly (digest mismatch, oracle failure) or by
//! the installed panic hook.

use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use parking_lot::Mutex;

/// Maximum events retained per recorder; older events are evicted.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// One structured event. All coordinates are logical (deterministic for a
/// given seed); there is deliberately no timestamp field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A batch began executing on a replica.
    BatchStart {
        /// Batch sequence number.
        batch: u64,
        /// Transactions in the batch.
        txs: u64,
    },
    /// A batch finished.
    BatchEnd {
        /// Batch sequence number.
        batch: u64,
        /// Committed transaction count.
        committed: u64,
        /// Failed (aborted) transaction count.
        failed: u64,
    },
    /// A transaction's final outcome within a batch.
    TxOutcome {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
        /// Whether it committed.
        committed: bool,
    },
    /// A transaction was enqueued behind `depth` predecessors on a key
    /// (derived from the frozen lock-table structure, so deterministic).
    LockWait {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
        /// Contended key.
        key: u64,
        /// Queue position (1 = directly behind the holder).
        depth: u64,
    },
    /// A transaction became runnable (all of its key queues reached it).
    LockGrant {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
    },
    /// A committed transaction observed a key version when it read
    /// (provenance for the isolation checker). `version` is the key's
    /// monotone per-key version number; `0` means the key had no visible
    /// version (the virtual initial version).
    TxRead {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
        /// Read sequence within the transaction (program order).
        seq: u64,
        /// Key fingerprint.
        key: u64,
        /// Observed per-key version number.
        version: u64,
    },
    /// A committed transaction installed a key version when its write
    /// buffer flushed. `seq` follows the key-sorted flush order.
    TxWrite {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
        /// Write sequence within the transaction (key order).
        seq: u64,
        /// Key fingerprint.
        key: u64,
        /// Installed per-key version number.
        version: u64,
    },
    /// A transaction released its key queues.
    LockRelease {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
    },
    /// The prepare-ahead queuer handed a prepared batch to the executor.
    QueuerHandoff {
        /// Batch sequence number.
        batch: u64,
        /// Transactions in the handed-off batch.
        txs: u64,
    },
    /// The write-ahead log was fsynced.
    WalFsync {
        /// Highest durable log index after the sync.
        index: u64,
    },
    /// A fault-plan entry fired.
    FaultInjected {
        /// Batch sequence number.
        batch: u64,
        /// Slot index within the batch.
        tx: u64,
        /// Short fault label (e.g. `"abort"`).
        kind: String,
    },
    /// Recovery replayed a batch from the log or a snapshot.
    RecoveryReplay {
        /// Batch sequence number replayed.
        batch: u64,
        /// Transactions replayed.
        txs: u64,
    },
    /// A replica digest disagreed with its peer or pre-crash value.
    DigestMismatch {
        /// Batch sequence number at the divergence point.
        batch: u64,
        /// Expected digest.
        expected: u64,
        /// Observed digest.
        actual: u64,
    },
    /// A testkit oracle rejected a run.
    OracleFailure {
        /// Short oracle label (e.g. `"differential"`).
        oracle: String,
        /// Free-form detail.
        detail: String,
    },
    /// The adaptation controller proposed a specialization set (not yet
    /// committed or active — only the replicated swap entry activates it).
    SpecializationProposed {
        /// Specialization-set version.
        version: u64,
        /// Programs carrying at least one specialization in the set.
        programs: u64,
    },
    /// A committed specialization swap was installed on a replica's
    /// engine; batches from `batch` on predict with the new set.
    SpecializationActivated {
        /// First batch index the set applies to.
        batch: u64,
        /// Specialization-set version.
        version: u64,
        /// Programs carrying at least one specialization in the set.
        programs: u64,
    },
}

impl Event {
    fn kind(&self) -> &'static str {
        match self {
            Event::BatchStart { .. } => "batch_start",
            Event::BatchEnd { .. } => "batch_end",
            Event::TxOutcome { .. } => "tx_outcome",
            Event::LockWait { .. } => "lock_wait",
            Event::LockGrant { .. } => "lock_grant",
            Event::TxRead { .. } => "tx_read",
            Event::TxWrite { .. } => "tx_write",
            Event::LockRelease { .. } => "lock_release",
            Event::QueuerHandoff { .. } => "queuer_handoff",
            Event::WalFsync { .. } => "wal_fsync",
            Event::FaultInjected { .. } => "fault_injected",
            Event::RecoveryReplay { .. } => "recovery_replay",
            Event::DigestMismatch { .. } => "digest_mismatch",
            Event::OracleFailure { .. } => "oracle_failure",
            Event::SpecializationProposed { .. } => "specialization_proposed",
            Event::SpecializationActivated { .. } => "specialization_activated",
        }
    }

    fn kind_rank(&self) -> u8 {
        match self {
            Event::QueuerHandoff { .. } => 0,
            Event::BatchStart { .. } => 1,
            Event::LockWait { .. } => 2,
            Event::LockGrant { .. } => 3,
            Event::TxRead { .. } => 4,
            Event::TxWrite { .. } => 5,
            Event::LockRelease { .. } => 6,
            Event::TxOutcome { .. } => 7,
            Event::FaultInjected { .. } => 8,
            Event::BatchEnd { .. } => 9,
            Event::WalFsync { .. } => 10,
            Event::RecoveryReplay { .. } => 11,
            Event::DigestMismatch { .. } => 12,
            Event::OracleFailure { .. } => 13,
            Event::SpecializationProposed { .. } => 14,
            Event::SpecializationActivated { .. } => 15,
        }
    }

    /// Canonical ordering key: batch-major, then event kind in lifecycle
    /// order, then slot, then key — except access events (`TxRead`/
    /// `TxWrite`), which tie-break by their per-transaction sequence so
    /// one transaction's accesses keep program/flush order. Independent of
    /// arrival interleaving.
    fn sort_key(&self) -> (u64, u8, u64, u64) {
        let (batch, tx, key) = match *self {
            Event::BatchStart { batch, .. }
            | Event::BatchEnd { batch, .. }
            | Event::QueuerHandoff { batch, .. }
            | Event::RecoveryReplay { batch, .. }
            | Event::DigestMismatch { batch, .. } => (batch, 0, 0),
            Event::TxOutcome { batch, tx, .. }
            | Event::LockGrant { batch, tx }
            | Event::LockRelease { batch, tx }
            | Event::FaultInjected { batch, tx, .. } => (batch, tx, 0),
            Event::LockWait { batch, tx, key, .. } => (batch, tx, key),
            // Tie-break by (batch, tx, seq), NOT by key fingerprint: two
            // runs record the same accesses in the same per-tx order, so
            // seq is interleaving-independent while being cheaper and
            // collision-free where fingerprints are not.
            Event::TxRead { batch, tx, seq, .. } | Event::TxWrite { batch, tx, seq, .. } => {
                (batch, tx, seq)
            }
            Event::WalFsync { index } => (index, 0, 0),
            Event::OracleFailure { .. } => (u64::MAX, 0, 0),
            Event::SpecializationProposed { version, .. } => (u64::MAX, version, 0),
            Event::SpecializationActivated { batch, version, .. } => (batch, version, 0),
        };
        (batch, self.kind_rank(), tx, key)
    }

    /// One JSONL line (no trailing newline).
    pub fn to_json_line(&self, replica: u64) -> String {
        let mut fields = vec![
            format!("\"type\":\"{}\"", self.kind()),
            format!("\"replica\":{replica}"),
        ];
        match self {
            Event::BatchStart { batch, txs } | Event::QueuerHandoff { batch, txs } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"txs\":{txs}"));
            }
            Event::BatchEnd {
                batch,
                committed,
                failed,
            } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"committed\":{committed}"));
                fields.push(format!("\"failed\":{failed}"));
            }
            Event::TxOutcome {
                batch,
                tx,
                committed,
            } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"tx\":{tx}"));
                fields.push(format!("\"committed\":{committed}"));
            }
            Event::LockWait {
                batch,
                tx,
                key,
                depth,
            } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"tx\":{tx}"));
                fields.push(format!("\"key\":{key}"));
                fields.push(format!("\"depth\":{depth}"));
            }
            Event::LockGrant { batch, tx } | Event::LockRelease { batch, tx } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"tx\":{tx}"));
            }
            Event::TxRead { batch, tx, seq, key, version }
            | Event::TxWrite { batch, tx, seq, key, version } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"tx\":{tx}"));
                fields.push(format!("\"seq\":{seq}"));
                fields.push(format!("\"key\":{key}"));
                fields.push(format!("\"version\":{version}"));
            }
            Event::WalFsync { index } => {
                fields.push(format!("\"index\":{index}"));
            }
            Event::FaultInjected { batch, tx, kind } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"tx\":{tx}"));
                fields.push(format!("\"kind\":\"{}\"", escape(kind)));
            }
            Event::RecoveryReplay { batch, txs } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"txs\":{txs}"));
            }
            Event::DigestMismatch {
                batch,
                expected,
                actual,
            } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"expected\":{expected}"));
                fields.push(format!("\"actual\":{actual}"));
            }
            Event::OracleFailure { oracle, detail } => {
                fields.push(format!("\"oracle\":\"{}\"", escape(oracle)));
                fields.push(format!("\"detail\":\"{}\"", escape(detail)));
            }
            Event::SpecializationProposed { version, programs } => {
                fields.push(format!("\"version\":{version}"));
                fields.push(format!("\"programs\":{programs}"));
            }
            Event::SpecializationActivated { batch, version, programs } => {
                fields.push(format!("\"batch\":{batch}"));
                fields.push(format!("\"version\":{version}"));
                fields.push(format!("\"programs\":{programs}"));
            }
        }
        format!("{{{}}}", fields.join(","))
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Process-wide default for whether new recorders start enabled. Also
/// seeded from the `PROGNOSTICATOR_FLIGHTREC` environment variable (any
/// non-empty value other than `0` enables).
static DEFAULT_ENABLED: OnceLock<AtomicBool> = OnceLock::new();

fn default_enabled_cell() -> &'static AtomicBool {
    DEFAULT_ENABLED.get_or_init(|| {
        let from_env = std::env::var("PROGNOSTICATOR_FLIGHTREC")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        AtomicBool::new(from_env)
    })
}

/// Sets whether recorders created from now on start enabled.
pub fn set_default_enabled(enabled: bool) {
    default_enabled_cell().store(enabled, Ordering::Relaxed);
}

/// Whether new recorders start enabled.
pub fn default_enabled() -> bool {
    default_enabled_cell().load(Ordering::Relaxed)
}

static DUMP_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Overrides the directory dumps are written to (default `results/`).
pub fn set_dump_dir(dir: impl Into<PathBuf>) {
    *DUMP_DIR.lock() = Some(dir.into());
}

fn dump_dir() -> PathBuf {
    DUMP_DIR.lock().clone().unwrap_or_else(|| PathBuf::from("results"))
}

fn recorders() -> &'static Mutex<Vec<Weak<FlightRecorder>>> {
    static RECORDERS: OnceLock<Mutex<Vec<Weak<FlightRecorder>>>> = OnceLock::new();
    RECORDERS.get_or_init(|| Mutex::new(Vec::new()))
}

/// A bounded, per-replica ring buffer of [`Event`]s.
pub struct FlightRecorder {
    replica: u64,
    enabled: AtomicBool,
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("replica", &self.replica)
            .field("enabled", &self.is_enabled())
            .field("len", &self.len())
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder for `replica` with the default capacity, registered for
    /// process-wide dumps and enabled per [`default_enabled`].
    pub fn new(replica: u64) -> Arc<Self> {
        Self::with_capacity(replica, DEFAULT_CAPACITY)
    }

    /// A recorder with an explicit ring capacity.
    pub fn with_capacity(replica: u64, capacity: usize) -> Arc<Self> {
        let rec = Arc::new(FlightRecorder {
            replica,
            enabled: AtomicBool::new(default_enabled()),
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
        });
        let mut regs = recorders().lock();
        regs.retain(|w| w.strong_count() > 0);
        regs.push(Arc::downgrade(&rec));
        rec
    }

    /// The replica id this recorder belongs to.
    pub fn replica(&self) -> u64 {
        self.replica
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Records the event produced by `f` if enabled; when disabled the
    /// closure is never called, so the cost is one relaxed atomic load.
    #[inline]
    pub fn record(&self, f: impl FnOnce() -> Event) {
        if !self.is_enabled() {
            return;
        }
        let event = f();
        let mut ring = self.ring.lock();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(event);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.ring.lock().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted due to capacity pressure.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Clears the buffer (between independent runs).
    pub fn clear(&self) {
        self.ring.lock().clear();
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// The buffered events in canonical order (batch-major, lifecycle
    /// rank, slot, key) — stable across thread interleavings.
    pub fn canonical_events(&self) -> Vec<Event> {
        let mut events: Vec<Event> = self.ring.lock().iter().cloned().collect();
        events.sort_by_key(Event::sort_key);
        events
    }

    /// Renders the canonical events as a JSONL body.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for event in self.canonical_events() {
            out.push_str(&event.to_json_line(self.replica));
            out.push('\n');
        }
        out
    }
}

/// Dumps every live recorder's canonical events to a single JSONL file
/// named for `reason`. Returns the path, or `None` when there was nothing
/// to dump or the file could not be written (dumping is best-effort: it
/// runs on failure paths and must not mask the original error).
pub fn dump_all(reason: &str) -> Option<PathBuf> {
    let recs: Vec<Arc<FlightRecorder>> = recorders()
        .lock()
        .iter()
        .filter_map(Weak::upgrade)
        .collect();
    let mut body = String::new();
    for rec in &recs {
        body.push_str(&rec.render_jsonl());
    }
    if body.is_empty() {
        return None;
    }
    let dir = dump_dir();
    std::fs::create_dir_all(&dir).ok()?;
    let reason: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let seq = DUMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let path = dir.join(format!(
        "flightrec-{reason}-{}-{seq}.jsonl",
        std::process::id()
    ));
    let mut file = std::fs::File::create(&path).ok()?;
    file.write_all(body.as_bytes()).ok()?;
    Some(path)
}

/// Installs a panic hook (once) that dumps all live recorders with reason
/// `panic` before delegating to the previous hook.
pub fn install_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump_all("panic");
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_never_builds_events() {
        let rec = FlightRecorder::new(0);
        rec.set_enabled(false);
        let mut called = false;
        rec.record(|| {
            called = true;
            Event::BatchStart { batch: 0, txs: 1 }
        });
        assert!(!called);
        assert!(rec.is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::with_capacity(0, 4);
        rec.set_enabled(true);
        for batch in 0..10 {
            rec.record(|| Event::BatchStart { batch, txs: 1 });
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped(), 6);
        let events = rec.canonical_events();
        assert!(matches!(events[0], Event::BatchStart { batch: 6, .. }));
    }

    #[test]
    fn canonical_order_is_interleaving_independent() {
        let build = |order: &[usize]| {
            let rec = FlightRecorder::new(1);
            rec.set_enabled(true);
            let events = [
                Event::BatchStart { batch: 0, txs: 2 },
                Event::TxOutcome {
                    batch: 0,
                    tx: 1,
                    committed: true,
                },
                Event::TxOutcome {
                    batch: 0,
                    tx: 0,
                    committed: false,
                },
                Event::BatchEnd {
                    batch: 0,
                    committed: 1,
                    failed: 1,
                },
            ];
            for &i in order {
                let e = events[i].clone();
                rec.record(move || e);
            }
            rec.render_jsonl()
        };
        let a = build(&[0, 1, 2, 3]);
        let b = build(&[3, 2, 1, 0]);
        assert_eq!(a, b, "dump body must not depend on arrival order");
        assert!(a.starts_with("{\"type\":\"batch_start\""));
    }

    #[test]
    fn access_events_sort_by_tx_then_seq() {
        let build = |order: &[usize]| {
            let rec = FlightRecorder::new(2);
            rec.set_enabled(true);
            let events = [
                Event::TxRead { batch: 0, tx: 0, seq: 0, key: 9, version: 1 },
                Event::TxRead { batch: 0, tx: 0, seq: 1, key: 3, version: 2 },
                Event::TxWrite { batch: 0, tx: 0, seq: 0, key: 3, version: 3 },
                Event::TxRead { batch: 0, tx: 1, seq: 0, key: 3, version: 3 },
                Event::TxWrite { batch: 1, tx: 0, seq: 0, key: 9, version: 4 },
            ];
            for &i in order {
                let e = events[i].clone();
                rec.record(move || e);
            }
            rec.render_jsonl()
        };
        let a = build(&[0, 1, 2, 3, 4]);
        let b = build(&[4, 3, 2, 1, 0]);
        assert_eq!(a, b, "access-event dump must not depend on arrival order");
        // Kind-rank-major within the batch (reads before writes), then
        // (tx, seq) — so tx 0's reads come in seq order (not key order),
        // then tx 1's read, then tx 0's write.
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"tx\":0") && lines[0].contains("\"key\":9"));
        assert!(lines[1].contains("\"tx\":0") && lines[1].contains("\"key\":3"));
        assert!(lines[2].contains("\"type\":\"tx_read\"") && lines[2].contains("\"tx\":1"));
        assert!(lines[3].contains("\"type\":\"tx_write\"") && lines[3].contains("\"tx\":0"));
        assert!(lines[4].contains("\"batch\":1"));
    }

    #[test]
    fn json_lines_escape_strings() {
        let e = Event::OracleFailure {
            oracle: "differential".to_string(),
            detail: "digest \"a\" != \"b\"\nline2".to_string(),
        };
        let line = e.to_json_line(3);
        assert!(line.contains("\\\"a\\\""));
        assert!(line.contains("\\n"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn dump_all_writes_jsonl_file() {
        let dir = std::env::temp_dir().join(format!("flightrec-test-{}", std::process::id()));
        set_dump_dir(&dir);
        let rec = FlightRecorder::new(7);
        rec.set_enabled(true);
        rec.record(|| Event::DigestMismatch {
            batch: 5,
            expected: 1,
            actual: 2,
        });
        let path = dump_all("digest-mismatch").expect("dump path");
        let body = std::fs::read_to_string(&path).expect("read dump");
        assert!(body.contains("\"type\":\"digest_mismatch\""));
        assert!(body.contains("\"replica\":7"));
        std::fs::remove_dir_all(&dir).ok();
        *DUMP_DIR.lock() = None;
    }
}
