//! Polygraph-style isolation checker: an *independent* serializability
//! oracle over flight-recorder traces.
//!
//! The engine claims every batch executes as if its committed
//! transactions ran serially in *some* order consistent with batch
//! boundaries. This module re-derives that claim from evidence the
//! engine records as it runs — the per-transaction read/write version
//! provenance in the flight recorder
//! ([`Event::TxRead`] / [`Event::TxWrite`]) — rather than trusting the
//! engine's own digests. From a trace it builds the classic dependency
//! graph:
//!
//! * **WR** (read-from): the writer of version `v` precedes every
//!   transaction that observed `v`;
//! * **WW** (version order): the writer of `v` precedes the writer of
//!   the next installed version of the same key;
//! * **RW** (anti-dependency): a reader of `v` precedes the writer of
//!   the version that superseded `v`;
//!
//! plus the deterministic-database batch constraint (every transaction
//! of batch `b` precedes every transaction of batch `b' > b`), and
//! certifies acyclicity. Because the batch constraint totally orders
//! the batches, a cycle exists **iff** a data edge points into an
//! *earlier* batch, or a cycle closes *within* one batch — so the
//! checker tests the two cases separately and shrinks any hit to a
//! shortest-cycle witness.
//!
//! Three entry points:
//!
//! * [`check_trace`] — the pure checker: events in, [`Verdict`] out.
//! * [`inject_violation`] — a mutation harness that corrupts healthy
//!   traces in three realistic ways (swapped commit order, stale
//!   snapshot read, dropped lock release) to prove the checker rejects
//!   bad histories.
//! * [`run_isolation`] — the suite runner: records fresh traces across
//!   worker counts and writes a `.reproducer.json` cycle witness on
//!   violation. The other oracles call
//!   [`assert_replica_serializable`] opportunistically, so every suite
//!   doubles as an isolation check whenever recording is on.
//!
//! Version numbers are per-key and monotone
//! (`prognosticator_storage::VersionChain`); reads of versions the
//! trace never saw written (initial population, pre-trace state) have
//! no recorded writer and are ordered before everything, contributing
//! no edge. Aborted transactions never flush their buffers and are
//! excluded from the graph.

use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator_bench::json::Json;
use prognosticator_core::{baselines, Replica, TxOutcome, TxRequest};
use prognosticator_obs::{Event, FlightRecorder};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A transaction's identity in a trace: batch sequence number + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId {
    /// Batch sequence number.
    pub batch: u64,
    /// Slot index within the batch.
    pub tx: u64,
}

impl std::fmt::Display for TxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T({},{})", self.batch, self.tx)
    }
}

/// Why one transaction must precede another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeKind {
    /// Read-from: the writer of a version → a reader that observed it.
    WriteRead,
    /// Version order: the writer of a version → the writer of the next
    /// installed version of the same key.
    WriteWrite,
    /// Anti-dependency: a reader of a version → the writer of the
    /// version that superseded it.
    ReadWrite,
    /// The implicit deterministic-database constraint: batch `b` runs
    /// before batch `b' > b`. Only appears in witnesses, closing a
    /// cross-batch cycle.
    BatchOrder,
}

impl EdgeKind {
    /// Short stable label (used in witnesses and reproducers).
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::WriteRead => "wr",
            EdgeKind::WriteWrite => "ww",
            EdgeKind::ReadWrite => "rw",
            EdgeKind::BatchOrder => "batch-order",
        }
    }
}

/// One dependency edge of the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    /// Transaction that must serialize first.
    pub from: TxId,
    /// Transaction that must serialize after `from`.
    pub to: TxId,
    /// Why.
    pub kind: EdgeKind,
    /// Key fingerprint the dependency is over (0 for `BatchOrder`).
    pub key: u64,
    /// Version anchoring the dependency (0 for `BatchOrder`).
    pub version: u64,
}

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.kind == EdgeKind::BatchOrder {
            write!(f, "{} -{}-> {}", self.from, self.kind.name(), self.to)
        } else {
            write!(
                f,
                "{} -{}[key {:#x} v{}]-> {}",
                self.from,
                self.kind.name(),
                self.key,
                self.version,
                self.to
            )
        }
    }
}

/// A minimal cycle proving non-serializability.
#[derive(Debug, Clone)]
pub struct CycleWitness {
    /// The cycle's edges, in order (the last edge returns to the first
    /// edge's `from`).
    pub edges: Vec<Edge>,
    /// Human-readable rendering of the cycle.
    pub description: String,
}

/// What [`check_trace`] established.
#[derive(Debug)]
pub enum Verdict {
    /// The dependency graph is acyclic: some serial order consistent
    /// with batch boundaries explains every observed read and write.
    Serializable {
        /// Committed transactions in the graph.
        transactions: usize,
        /// Data dependency edges derived from the trace.
        edges: usize,
    },
    /// The trace is provably non-serializable; here is a shortest
    /// cycle.
    Violation(Box<CycleWitness>),
}

impl Verdict {
    /// Whether the trace passed.
    pub fn is_serializable(&self) -> bool {
        matches!(self, Verdict::Serializable { .. })
    }
}

fn violation(description: String, edges: Vec<Edge>) -> Verdict {
    Verdict::Violation(Box::new(CycleWitness { edges, description }))
}

/// The committed-transaction set of a trace.
fn committed_set(events: &[Event]) -> BTreeSet<TxId> {
    let mut committed = BTreeSet::new();
    for e in events {
        if let Event::TxOutcome { batch, tx, committed: true } = *e {
            committed.insert(TxId { batch, tx });
        }
    }
    committed
}

/// Per-key version index over committed writes: key → version → writer.
/// Returns an error witness if two committed transactions installed the
/// same version of one key (impossible in a real history: the per-key
/// version counter is monotone).
type WriteIndex = BTreeMap<u64, BTreeMap<u64, TxId>>;

fn write_index(events: &[Event], committed: &BTreeSet<TxId>) -> Result<WriteIndex, Verdict> {
    let mut writes: WriteIndex = BTreeMap::new();
    for e in events {
        if let Event::TxWrite { batch, tx, key, version, .. } = *e {
            let id = TxId { batch, tx };
            if !committed.contains(&id) {
                continue;
            }
            if let Some(prev) = writes.entry(key).or_default().insert(version, id) {
                if prev != id {
                    let edges = vec![
                        Edge { from: prev, to: id, kind: EdgeKind::WriteWrite, key, version },
                        Edge { from: id, to: prev, kind: EdgeKind::WriteWrite, key, version },
                    ];
                    return Err(violation(
                        format!(
                            "{prev} and {id} both installed version {version} of key {key:#x}"
                        ),
                        edges,
                    ));
                }
            }
        }
    }
    Ok(writes)
}

/// Checks one canonical trace for serializability.
///
/// The caller is responsible for trace *completeness*: a recorder that
/// evicted events (`dropped() > 0`) yields a partial history the
/// checker could mis-certify, so incomplete traces must not be passed
/// here (see [`check_replica_trace`], which skips them).
pub fn check_trace(events: &[Event]) -> Verdict {
    let committed = committed_set(events);
    let writes = match write_index(events, &committed) {
        Ok(w) => w,
        Err(verdict) => return verdict,
    };
    let mut reads: Vec<(TxId, u64, u64)> = Vec::new();
    for e in events {
        if let Event::TxRead { batch, tx, key, version, .. } = *e {
            let id = TxId { batch, tx };
            if committed.contains(&id) {
                reads.push((id, key, version));
            }
        }
    }

    // ---- Derive the data edges. ----
    let mut edges: BTreeSet<Edge> = BTreeSet::new();
    // WW: consecutive installed versions of each key.
    for (&key, versions) in &writes {
        let order: Vec<(u64, TxId)> = versions.iter().map(|(&v, &t)| (v, t)).collect();
        for pair in order.windows(2) {
            let (_, from) = pair[0];
            let (version, to) = pair[1];
            if from != to {
                edges.insert(Edge { from, to, kind: EdgeKind::WriteWrite, key, version });
            }
        }
    }
    for &(reader, key, version) in &reads {
        let Some(versions) = writes.get(&key) else { continue };
        // WR: the exact writer of the observed version, when the trace
        // recorded one. Version 0 (key absent) and pre-trace populate
        // versions have no recorded writer: they are the initial state,
        // ordered before everything, so they contribute no edge.
        if version > 0 {
            if let Some(&writer) = versions.get(&version) {
                if writer != reader {
                    edges.insert(Edge {
                        from: writer,
                        to: reader,
                        kind: EdgeKind::WriteRead,
                        key,
                        version,
                    });
                }
            }
        }
        // RW: the reader precedes whoever superseded what it saw. A
        // read-modify-write superseding its own read is a self-edge and
        // carries no constraint.
        if let Some((&next, &writer)) = versions.range(version + 1..).next() {
            if writer != reader {
                edges.insert(Edge {
                    from: reader,
                    to: writer,
                    kind: EdgeKind::ReadWrite,
                    key,
                    version: next,
                });
            }
        }
    }
    let edges: Vec<Edge> = edges.into_iter().collect();

    // ---- Case 1: a data edge pointing into an earlier batch closes a
    // cycle through the implicit batch-order constraint immediately.
    for &edge in &edges {
        if edge.from.batch > edge.to.batch {
            let back = Edge {
                from: edge.to,
                to: edge.from,
                kind: EdgeKind::BatchOrder,
                key: 0,
                version: 0,
            };
            return violation(
                format!("dependency points into an earlier batch: {edge}"),
                vec![edge, back],
            );
        }
    }

    // ---- Case 2: cycles closing within a single batch. Forward
    // cross-batch edges can never be on a cycle (batch order is total),
    // so each batch's subgraph is checked independently.
    let mut per_batch: BTreeMap<u64, Vec<Edge>> = BTreeMap::new();
    for &e in &edges {
        if e.from.batch == e.to.batch {
            per_batch.entry(e.from.batch).or_default().push(e);
        }
    }
    for batch_edges in per_batch.values() {
        if let Some(cycle) = shortest_cycle(batch_edges) {
            let description = describe_cycle(&cycle);
            return violation(description, cycle);
        }
    }

    Verdict::Serializable { transactions: committed.len(), edges: edges.len() }
}

/// The shortest cycle in a same-batch subgraph, or `None` if acyclic.
///
/// For every edge `u → v` it BFSes the shortest `v → u` path; the best
/// closing edge plus its path is a globally minimal cycle. Quadratic in
/// the edge count, which is fine at trace scale (a batch holds tens of
/// transactions). All containers are ordered, so the returned witness
/// is deterministic.
fn shortest_cycle(edges: &[Edge]) -> Option<Vec<Edge>> {
    let mut adj: BTreeMap<TxId, Vec<Edge>> = BTreeMap::new();
    for &e in edges {
        adj.entry(e.from).or_default().push(e);
    }
    let mut best: Option<Vec<Edge>> = None;
    for &close in edges {
        if let Some(path) = shortest_path(&adj, close.to, close.from) {
            let mut cycle = path;
            cycle.push(close);
            if best.as_ref().is_none_or(|b| cycle.len() < b.len()) {
                best = Some(cycle);
            }
        }
    }
    best
}

/// BFS shortest edge-path `src → dst`, or `None` if unreachable.
fn shortest_path(adj: &BTreeMap<TxId, Vec<Edge>>, src: TxId, dst: TxId) -> Option<Vec<Edge>> {
    if src == dst {
        return Some(Vec::new());
    }
    let mut prev: BTreeMap<TxId, Edge> = BTreeMap::new();
    let mut queue = VecDeque::from([src]);
    while let Some(node) = queue.pop_front() {
        for &e in adj.get(&node).into_iter().flatten() {
            if e.to == src || prev.contains_key(&e.to) {
                continue;
            }
            prev.insert(e.to, e);
            if e.to == dst {
                let mut path = Vec::new();
                let mut at = dst;
                while at != src {
                    let hop = prev[&at];
                    path.push(hop);
                    at = hop.from;
                }
                path.reverse();
                return Some(path);
            }
            queue.push_back(e.to);
        }
    }
    None
}

fn describe_cycle(cycle: &[Edge]) -> String {
    let mut s = format!(
        "cycle of {} dependencies within batch {}: ",
        cycle.len(),
        cycle[0].from.batch
    );
    for e in cycle {
        s.push_str(&format!("{} -{}[key {:#x} v{}]-> ", e.from, e.kind.name(), e.key, e.version));
    }
    s.push_str(&cycle[0].from.to_string());
    s
}

// ---------------------------------------------------------------------
// Mutation harness: corrupt healthy traces, prove the checker notices.
// ---------------------------------------------------------------------

/// A known isolation violation to forge into a healthy trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Swap the installed versions of two committed writes to one key
    /// from different batches — models a commit applied out of order.
    SwapCommittedWrites,
    /// Point a read at a superseded version whose successor landed in
    /// an earlier batch — models serving a stale epoch snapshot.
    StaleEpochRead,
    /// Let two same-batch writers of different keys observe each
    /// other's writes — models a dropped lock release admitting an
    /// illegal interleaving.
    DroppedLockRelease,
    /// Let an earlier-batch transaction observe a version installed by
    /// a later batch — models writes escaping the batch barrier, so a
    /// reader sees the future. The only mutation that forges a backward
    /// (later-batch → earlier-batch) WR edge.
    FutureRead,
}

impl Mutation {
    /// Every mutation, for "reject them all" loops.
    pub const ALL: [Mutation; 4] = [
        Mutation::SwapCommittedWrites,
        Mutation::StaleEpochRead,
        Mutation::DroppedLockRelease,
        Mutation::FutureRead,
    ];

    /// Short stable label.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::SwapCommittedWrites => "swap-committed-writes",
            Mutation::StaleEpochRead => "stale-epoch-read",
            Mutation::DroppedLockRelease => "dropped-lock-release",
            Mutation::FutureRead => "future-read",
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn pick<T>(candidates: &[T], seed: u64) -> Option<&T> {
    if candidates.is_empty() {
        return None;
    }
    Some(&candidates[(splitmix(seed) % candidates.len() as u64) as usize])
}

/// Per-key committed writes in version order, with their event indices.
fn versioned_writes(
    events: &[Event],
    committed: &BTreeSet<TxId>,
) -> BTreeMap<u64, Vec<(u64, usize, TxId)>> {
    let mut by_key: BTreeMap<u64, Vec<(u64, usize, TxId)>> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if let Event::TxWrite { batch, tx, key, version, .. } = *e {
            let id = TxId { batch, tx };
            if committed.contains(&id) {
                by_key.entry(key).or_default().push((version, i, id));
            }
        }
    }
    for list in by_key.values_mut() {
        list.sort_unstable();
    }
    by_key
}

/// Forges `mutation` into a healthy trace, choosing among applicable
/// sites by `seed`. Returns `None` when the trace offers no site for
/// the mutation (e.g. a single-batch trace cannot host a cross-batch
/// swap). The returned trace is guaranteed non-serializable, so
/// [`check_trace`] must reject it — that is the harness's whole point.
pub fn inject_violation(events: &[Event], mutation: Mutation, seed: u64) -> Option<Vec<Event>> {
    let committed = committed_set(events);
    let by_key = versioned_writes(events, &committed);
    let mut mutated = events.to_vec();
    match mutation {
        Mutation::SwapCommittedWrites => {
            // Adjacent versions of one key installed by different
            // batches: swapping them inverts exactly one WW edge
            // against batch order.
            let mut candidates: Vec<(usize, usize)> = Vec::new();
            for list in by_key.values() {
                for pair in list.windows(2) {
                    let (_, i, a) = pair[0];
                    let (_, j, b) = pair[1];
                    if a.batch != b.batch {
                        candidates.push((i, j));
                    }
                }
            }
            let &(i, j) = pick(&candidates, seed)?;
            let (Event::TxWrite { version: va, .. }, Event::TxWrite { version: vb, .. }) =
                (events[i].clone(), events[j].clone())
            else {
                unreachable!("candidates index TxWrite events");
            };
            set_write_version(&mut mutated[i], vb);
            set_write_version(&mut mutated[j], va);
        }
        Mutation::StaleEpochRead => {
            // Retarget a committed read to the version *below* a
            // successor whose writer sits in an earlier batch than the
            // reader: the resulting RW anti-dependency points backwards
            // across batches.
            let mut candidates: Vec<(usize, u64)> = Vec::new();
            for (i, e) in events.iter().enumerate() {
                let Event::TxRead { batch, tx, key, version, .. } = *e else { continue };
                let reader = TxId { batch, tx };
                if !committed.contains(&reader) {
                    continue;
                }
                let Some(list) = by_key.get(&key) else { continue };
                for pair in list.windows(2) {
                    let (below, _, _) = pair[0];
                    let (_, _, writer) = pair[1];
                    if writer.batch < reader.batch && writer != reader && below != version {
                        candidates.push((i, below));
                    }
                }
            }
            let &(i, stale) = pick(&candidates, seed)?;
            set_read_version(&mut mutated[i], stale);
        }
        Mutation::DroppedLockRelease => {
            // Two committed same-batch writers of different keys made
            // to observe each other: a WR ⇄ WR two-cycle inside the
            // batch, exactly what a lost lock release would admit.
            let mut candidates: Vec<[(TxId, u64, u64); 2]> = Vec::new();
            let mut by_batch: BTreeMap<u64, Vec<(TxId, u64, u64)>> = BTreeMap::new();
            for (&key, list) in &by_key {
                for &(version, _, id) in list {
                    by_batch.entry(id.batch).or_default().push((id, key, version));
                }
            }
            for writers in by_batch.values() {
                for (p, &a) in writers.iter().enumerate() {
                    for &b in &writers[p + 1..] {
                        if a.0 != b.0 && a.1 != b.1 {
                            candidates.push([a, b]);
                        }
                    }
                }
            }
            let &[(t1, k1, v1), (t2, k2, v2)] = pick(&candidates, seed)?;
            // Forged seqs sit far above real ones; seq only affects the
            // canonical sort, never the checker.
            mutated.push(Event::TxRead {
                batch: t1.batch,
                tx: t1.tx,
                seq: 1 << 20,
                key: k2,
                version: v2,
            });
            mutated.push(Event::TxRead {
                batch: t2.batch,
                tx: t2.tx,
                seq: 1 << 20,
                key: k1,
                version: v1,
            });
        }
        Mutation::FutureRead => {
            // A committed earlier-batch reader forged to observe a
            // version a later batch installed: exactly what writes
            // escaping the batch barrier would admit. The WR
            // edge points into the earlier batch, so the checker must
            // reject it via the batch-order case with a 2-edge witness.
            let mut candidates: Vec<(TxId, u64, u64)> = Vec::new();
            for &reader in &committed {
                for (&key, list) in &by_key {
                    for &(version, _, writer) in list {
                        if writer.batch > reader.batch {
                            candidates.push((reader, key, version));
                        }
                    }
                }
            }
            let &(reader, key, version) = pick(&candidates, seed)?;
            mutated.push(Event::TxRead {
                batch: reader.batch,
                tx: reader.tx,
                seq: 1 << 20,
                key,
                version,
            });
        }
    }
    Some(mutated)
}

fn set_write_version(event: &mut Event, new: u64) {
    if let Event::TxWrite { version, .. } = event {
        *version = new;
    }
}

fn set_read_version(event: &mut Event, new: u64) {
    if let Event::TxRead { version, .. } = event {
        *version = new;
    }
}

// ---------------------------------------------------------------------
// Suite runner and harness hooks.
// ---------------------------------------------------------------------

/// Isolation-trace recorders live in their own id namespace, far above
/// replica (0..), WAL (1 << 32..) and below harness (1 << 48..) ids.
static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1 << 40);

/// Ring capacity for isolation traces: comfortably above what a
/// standard run records, so `dropped() == 0` and the trace is complete.
const TRACE_CAPACITY: usize = 1 << 20;

/// A complete recorded history plus the replica's observable results.
#[derive(Debug)]
pub struct Trace {
    /// Canonically ordered events.
    pub events: Vec<Event>,
    /// Events evicted from the ring. Nonzero means the trace is
    /// incomplete and must not be checked.
    pub dropped: u64,
    /// Per-batch outcome vectors.
    pub outcomes: Vec<Vec<TxOutcome>>,
    /// Final store digest.
    pub digest: u64,
}

/// Replays `stream` on a fresh replica with `workers` workers and an
/// explicitly enabled high-capacity recorder, returning the full trace.
pub fn trace_stream(workload: &TestWorkload, stream: &[Vec<TxRequest>], workers: usize) -> Trace {
    let recorder = FlightRecorder::with_capacity(
        NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
        TRACE_CAPACITY,
    );
    recorder.set_enabled(true);
    let mut replica = Replica::with_store(
        baselines::mq_mf(workers),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.attach_recorder(Arc::clone(&recorder));
    // Pipelined, so prepare-ahead classification is in the picture too.
    let outs = replica.execute_stream(stream.to_vec(), 1);
    let outcomes = outs.into_iter().map(|o| o.outcomes).collect();
    let digest = replica.state_digest();
    replica.shutdown();
    Trace {
        events: recorder.canonical_events(),
        dropped: recorder.dropped(),
        outcomes,
        digest,
    }
}

/// One isolation run: a workload's stream traced and checked at every
/// worker count.
#[derive(Debug, Clone)]
pub struct IsolationConfig {
    /// Workload generating the batch stream.
    pub workload: WorkloadKind,
    /// Seed of the request stream.
    pub stream_seed: u64,
    /// Batches per run.
    pub batches: usize,
    /// Requests per batch.
    pub batch_size: usize,
    /// Worker counts to trace; each trace is checked independently.
    pub worker_counts: Vec<usize>,
    /// Where `.reproducer.json` cycle witnesses are written.
    pub artifact_dir: PathBuf,
}

impl IsolationConfig {
    /// The acceptance-bar cell: 3 batches × 24 requests at {1, 2, 4}
    /// workers, artifacts under `target/testkit`.
    pub fn standard(workload: WorkloadKind, stream_seed: u64) -> Self {
        IsolationConfig {
            workload,
            stream_seed,
            batches: 3,
            batch_size: 24,
            worker_counts: vec![1, 2, 4],
            artifact_dir: PathBuf::from("target/testkit"),
        }
    }
}

/// What a clean isolation run established.
#[derive(Debug)]
pub struct IsolationReport {
    /// Traces checked (one per worker count).
    pub runs: usize,
    /// Committed transactions in the last trace's graph.
    pub transactions: usize,
    /// Data dependency edges in the last trace's graph.
    pub edges: usize,
}

/// A confirmed serializability violation, with its written witness.
#[derive(Debug)]
pub struct IsolationViolation {
    /// Full context: workload, seed, worker count, cycle rendering.
    pub description: String,
    /// The minimal cycle.
    pub witness: CycleWitness,
    /// Where the reproducer JSON was written (empty if writing failed).
    pub reproducer: PathBuf,
}

/// Renders a cycle witness (plus run context) as the reproducer
/// document.
pub fn witness_json(config: &IsolationConfig, workers: usize, witness: &CycleWitness) -> Json {
    let tx_json = |id: TxId| {
        Json::obj(vec![
            ("batch", Json::Int(id.batch as i64)),
            ("tx", Json::Int(id.tx as i64)),
        ])
    };
    let cycle = witness
        .edges
        .iter()
        .map(|e| {
            Json::obj(vec![
                ("from", tx_json(e.from)),
                ("to", tx_json(e.to)),
                ("kind", Json::Str(e.kind.name().into())),
                ("key", Json::Str(format!("{:#x}", e.key))),
                ("version", Json::Int(e.version as i64)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("check", Json::Str("isolation".into())),
        ("workload", Json::Str(config.workload.name().into())),
        ("stream_seed", Json::Int(config.stream_seed as i64)),
        ("batches", Json::Int(config.batches as i64)),
        ("batch_size", Json::Int(config.batch_size as i64)),
        ("workers", Json::Int(workers as i64)),
        ("violation", Json::Str(witness.description.clone())),
        ("cycle", Json::Arr(cycle)),
    ])
}

/// Traces `config`'s stream at every worker count and checks each trace.
///
/// # Errors
/// Returns [`IsolationViolation`] (with a written
/// `isolation-<workload>-<seed>.reproducer.json` witness) on the first
/// non-serializable trace.
///
/// # Panics
/// Panics if a trace overflows the recorder ring — that is a harness
/// sizing bug, not a verdict.
pub fn run_isolation(config: &IsolationConfig) -> Result<IsolationReport, Box<IsolationViolation>> {
    let workload = crate::strategies::fixture(config.workload);
    let stream = workload.gen_stream(config.stream_seed, config.batches, config.batch_size);
    let mut runs = 0;
    let (mut transactions, mut edges) = (0, 0);
    for &workers in &config.worker_counts {
        let trace = trace_stream(&workload, &stream, workers);
        assert_eq!(
            trace.dropped, 0,
            "isolation trace ring overflowed; raise TRACE_CAPACITY"
        );
        match check_trace(&trace.events) {
            Verdict::Serializable { transactions: t, edges: e } => {
                transactions = t;
                edges = e;
                runs += 1;
            }
            Verdict::Violation(witness) => {
                let description = format!(
                    "workload={} stream_seed={} workers={}: {}",
                    config.workload.name(),
                    config.stream_seed,
                    workers,
                    witness.description
                );
                crate::report_oracle_failure("isolation", &description, "isolation-oracle-failure");
                let json = witness_json(config, workers, &witness);
                let path = config.artifact_dir.join(format!(
                    "isolation-{}-{}.reproducer.json",
                    config.workload.name(),
                    config.stream_seed
                ));
                let written = std::fs::create_dir_all(&config.artifact_dir)
                    .and_then(|()| std::fs::write(&path, json.render()))
                    .is_ok();
                return Err(Box::new(IsolationViolation {
                    description,
                    witness: *witness,
                    reproducer: if written { path } else { PathBuf::new() },
                }));
            }
        }
    }
    Ok(IsolationReport { runs, transactions, edges })
}

/// Opportunistic harness hook: when `replica` carries an enabled
/// recorder whose ring never evicted, checks its trace. Returns the
/// violation description, or `None` when the trace is serializable,
/// incomplete, or recording is off.
pub fn check_replica_trace(replica: &Replica, context: &str) -> Option<String> {
    let rec = replica.recorder()?;
    if !rec.is_enabled() || rec.dropped() > 0 {
        return None;
    }
    match check_trace(&rec.canonical_events()) {
        Verdict::Serializable { .. } => None,
        Verdict::Violation(w) => Some(format!("{context}: {}", w.description)),
    }
}

/// Panics (after recording an `OracleFailure` flight event and dumping
/// recorders) when `replica`'s trace is provably non-serializable. The
/// other oracles call this just before shutting a replica down, so
/// every suite doubles as an isolation check whenever recording is on.
pub fn assert_replica_serializable(replica: &Replica, context: &str) {
    if let Some(description) = check_replica_trace(replica, context) {
        crate::report_oracle_failure("isolation", &description, "isolation-oracle-failure");
        panic!("serializability violation: {description}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(batch: u64, tx: u64) -> Event {
        Event::TxOutcome { batch, tx, committed: true }
    }

    fn read(batch: u64, tx: u64, seq: u64, key: u64, version: u64) -> Event {
        Event::TxRead { batch, tx, seq, key, version }
    }

    fn write(batch: u64, tx: u64, seq: u64, key: u64, version: u64) -> Event {
        Event::TxWrite { batch, tx, seq, key, version }
    }

    #[test]
    fn empty_trace_is_serializable() {
        let v = check_trace(&[]);
        assert!(matches!(v, Verdict::Serializable { transactions: 0, edges: 0 }));
    }

    #[test]
    fn forward_history_builds_wr_and_ww_edges() {
        // T(0,0) installs k v2; T(1,0) reads it and installs v3.
        let events = [
            outcome(0, 0),
            write(0, 0, 0, 7, 2),
            outcome(1, 0),
            read(1, 0, 0, 7, 2),
            write(1, 0, 0, 7, 3),
        ];
        match check_trace(&events) {
            Verdict::Serializable { transactions, edges } => {
                assert_eq!(transactions, 2);
                // WR T(0,0)→T(1,0) and WW T(0,0)→T(1,0); the RW from
                // the read is a self-edge (the reader wrote v3 itself).
                assert_eq!(edges, 2);
            }
            Verdict::Violation(w) => panic!("forward history rejected: {}", w.description),
        }
    }

    #[test]
    fn initial_version_reads_carry_no_edges() {
        // Reads of versions the trace never saw written (populate
        // state, absent keys) have no recorded writer.
        let events = [outcome(0, 0), read(0, 0, 0, 7, 1), read(0, 0, 1, 9, 0)];
        match check_trace(&events) {
            Verdict::Serializable { transactions, edges } => {
                assert_eq!((transactions, edges), (1, 0));
            }
            Verdict::Violation(w) => panic!("{}", w.description),
        }
    }

    #[test]
    fn aborted_accesses_are_ignored() {
        // The aborted T(0,1) "wrote" a conflicting version; it never
        // flushed, so the checker must not consider it.
        let events = [
            outcome(0, 0),
            write(0, 0, 0, 7, 2),
            Event::TxOutcome { batch: 0, tx: 1, committed: false },
            write(0, 1, 0, 7, 2),
        ];
        assert!(check_trace(&events).is_serializable());
    }

    #[test]
    fn backward_ww_is_rejected_with_two_edge_witness() {
        // Batch 1 installed a *smaller* version than batch 0: the WW
        // edge points into the earlier batch.
        let events = [
            outcome(0, 0),
            write(0, 0, 0, 7, 5),
            outcome(1, 0),
            write(1, 0, 0, 7, 4),
        ];
        let Verdict::Violation(w) = check_trace(&events) else {
            panic!("backward WW accepted");
        };
        assert_eq!(w.edges.len(), 2, "{}", w.description);
        assert_eq!(w.edges[0].kind, EdgeKind::WriteWrite);
        assert_eq!(w.edges[1].kind, EdgeKind::BatchOrder);
        assert!(w.edges[0].from.batch > w.edges[0].to.batch);
    }

    #[test]
    fn stale_read_is_rejected_as_backward_rw() {
        // T(2,0) read v2 after T(1,0) superseded it with v3: the RW
        // anti-dependency points from batch 2 into batch 1.
        let events = [
            outcome(0, 0),
            write(0, 0, 0, 7, 2),
            outcome(1, 0),
            write(1, 0, 0, 7, 3),
            outcome(2, 0),
            read(2, 0, 0, 7, 2),
        ];
        let Verdict::Violation(w) = check_trace(&events) else {
            panic!("stale read accepted");
        };
        assert_eq!(w.edges.len(), 2, "{}", w.description);
        assert_eq!(w.edges[0].kind, EdgeKind::ReadWrite);
        assert_eq!(w.edges[1].kind, EdgeKind::BatchOrder);
    }

    #[test]
    fn intra_batch_cycle_is_found_and_shrunk() {
        // T(0,0) and T(0,1) each read the other's write (impossible
        // under two-phase batch locking), plus an innocent bystander
        // reading both — the witness must shrink to the 2-cycle.
        let events = [
            outcome(0, 0),
            outcome(0, 1),
            outcome(0, 2),
            write(0, 0, 0, 1, 2),
            write(0, 1, 0, 2, 2),
            read(0, 0, 0, 2, 2),
            read(0, 1, 0, 1, 2),
            read(0, 2, 0, 1, 2),
            read(0, 2, 1, 2, 2),
        ];
        let Verdict::Violation(w) = check_trace(&events) else {
            panic!("intra-batch WR cycle accepted");
        };
        assert_eq!(w.edges.len(), 2, "witness must be minimal: {}", w.description);
        assert!(w.edges.iter().all(|e| e.kind == EdgeKind::WriteRead));
        let (a, b) = (w.edges[0], w.edges[1]);
        assert_eq!(a.to, b.from);
        assert_eq!(b.to, a.from);
    }

    #[test]
    fn duplicate_version_installs_are_rejected() {
        let events = [
            outcome(0, 0),
            outcome(0, 1),
            write(0, 0, 0, 7, 2),
            write(0, 1, 0, 7, 2),
        ];
        let Verdict::Violation(w) = check_trace(&events) else {
            panic!("duplicate version accepted");
        };
        assert!(w.description.contains("both installed"), "{}", w.description);
        assert!(w.edges.len() <= 2);
    }

    #[test]
    fn inject_returns_none_without_a_site() {
        // A single-batch, single-writer trace offers no cross-batch
        // swap site and no second same-batch writer.
        let events = [outcome(0, 0), write(0, 0, 0, 7, 2)];
        for mutation in Mutation::ALL {
            assert!(
                inject_violation(&events, mutation, 0).is_none(),
                "{} found a site in a trivial trace",
                mutation.name()
            );
        }
    }

    #[test]
    fn injected_mutations_are_rejected_on_synthetic_traces() {
        // A healthy 3-batch RMW history over two keys.
        let mut events = Vec::new();
        for batch in 0..3u64 {
            for tx in 0..2u64 {
                let key = tx + 1;
                let version = batch + 2;
                events.push(outcome(batch, tx));
                events.push(read(batch, tx, 0, key, version - 1));
                events.push(write(batch, tx, 0, key, version));
            }
        }
        assert!(check_trace(&events).is_serializable(), "healthy trace must pass");
        for mutation in Mutation::ALL {
            let mutated = inject_violation(&events, mutation, 1)
                .unwrap_or_else(|| panic!("{} found no site", mutation.name()));
            let Verdict::Violation(w) = check_trace(&mutated) else {
                panic!("{} went undetected", mutation.name());
            };
            assert!(
                w.edges.len() <= 5,
                "{}: witness has {} edges: {}",
                mutation.name(),
                w.edges.len(),
                w.description
            );
        }
    }
}
