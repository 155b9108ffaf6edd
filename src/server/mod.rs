//! Hostile-client-hardened network front-end over `std::net`.
//!
//! [`Server`] binds a loopback TCP listener and serves the wire protocol
//! of [`wire`]: length-prefixed CRC-checked frames with hard size and
//! pipeline-depth limits. The moving parts:
//!
//! * **Acceptor thread.** Accepts connections, refusing them with a
//!   deterministic `ERROR` frame when the connection cap is reached or
//!   the [`crate::health`] state machine reports the fleet `Degraded`
//!   (graceful degradation: existing clients keep their connections, new
//!   load is turned away at the door).
//! * **Connection workers.** A fixed pool pulls accepted sockets from a
//!   queue and runs the per-connection loop: frame extraction, hostile
//!   input rejection (any malformed frame closes the connection after a
//!   best-effort `ERROR` frame — never a panic, never a stuck worker),
//!   per-client pipeline-depth backpressure (excess in-flight requests
//!   are rejected at the wire without touching the engine), and slowloris
//!   eviction (a frame stalled mid-transfer past
//!   [`ServerConfig::frame_timeout`] forfeits the connection).
//! * **Engine thread.** The single owner of a [`ClientSession`] — the
//!   session is single-threaded by design (admission order is the
//!   positional ground truth) — so every connection routes its requests
//!   through one exactly-once submission stream. The engine pumps
//!   [`ClientSession::settle`] between channel reads and mails each
//!   request's terminal outcome back to its connection.
//!
//! **Determinism argument.** The network layer sits strictly *outside*
//! the replicated log: it only decides *which* transactions reach the
//! batcher and *in what admission order*, exactly as the in-process
//! generators do. Everything after admission — batch cut, consensus
//! order, execution, outcome — is the same deterministic machine the
//! rest of the test suite certifies. Rejections (depth caps, shedding,
//! drain) happen *before* admission and carry deterministic reasons, so
//! a hostile client can change the admitted prefix but never make two
//! replicas disagree about it.
//!
//! Shutdown is a graceful drain: the acceptor stops, connections finish
//! their in-flight requests (new ones are rejected with a drain reason),
//! and the engine settles every accepted request to a terminal outcome
//! before handing the [`Pipeline`] back. Terminal-outcome accounting is
//! the load-bearing invariant, asserted by the wire fuzzer:
//! `requests == responses + dropped_responses` at all times after drain.

pub mod loadgen;
pub mod wire;

use crate::client::{ClientConfig, ClientOutcome, ClientSession};
use crate::health::HealthState;
use crate::pipeline::Pipeline;
use prognosticator_obs::{Counter, Registry};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use wire::{WireError, WireOutcome, WirePayload};

/// Settle rounds the engine grants one request before giving up and
/// answering with a terminal `Rejected` (keeps drain live even if the
/// cluster is permanently wedged; counted as an anomaly in
/// [`ServerReport::engine_unresolved`]).
const MAX_SETTLE_ROUNDS: u32 = 64;

/// Tuning knobs for [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connection-handler threads.
    pub workers: usize,
    /// Cap on simultaneously active (accepted, not yet closed)
    /// connections; beyond it new connections are refused.
    pub max_connections: usize,
    /// Hard cap on a frame payload; larger length prefixes are hostile.
    pub max_frame: usize,
    /// Per-connection in-flight request cap; excess requests are
    /// rejected at the wire without touching the engine.
    pub pipeline_depth: usize,
    /// How long a frame may sit partially transferred before the
    /// connection is evicted as a slowloris.
    pub frame_timeout: Duration,
    /// Socket write budget; a client that stops reading long enough to
    /// stall a response write this long is evicted.
    pub write_timeout: Duration,
    /// Grace period for in-flight requests during drain before the
    /// connection is force-closed.
    pub drain_timeout: Duration,
    /// Cadence of the connection/engine polling loops.
    pub poll_interval: Duration,
    /// Requests the engine ingests per settle round.
    pub engine_batch: usize,
    /// Retry/deadline policy of the engine's [`ClientSession`]. The
    /// deadline is the server-side admission budget: under sustained
    /// overload a request terminally rejects after this long.
    pub client: ClientConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            max_connections: 64,
            max_frame: wire::DEFAULT_MAX_FRAME,
            pipeline_depth: 32,
            frame_timeout: Duration::from_millis(500),
            write_timeout: Duration::from_secs(1),
            drain_timeout: Duration::from_secs(5),
            poll_interval: Duration::from_millis(2),
            engine_batch: 64,
            client: ClientConfig {
                deadline: Duration::from_millis(200),
                ..ClientConfig::default()
            },
        }
    }
}

/// Live counters of one [`Server`] (also mirrored into the global obs
/// registry under `server.*`).
#[derive(Debug, Default)]
pub struct ServerStats {
    connections: AtomicU64,
    active: AtomicU64,
    refused: AtomicU64,
    evicted: AtomicU64,
    wire_rejects: AtomicU64,
    malformed_frames: AtomicU64,
    requests: AtomicU64,
    responses: AtomicU64,
    dropped_responses: AtomicU64,
    engine_unresolved: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $name:ident: $field:ident),* $(,)?) => {
        impl ServerStats {
            $($(#[$doc])*
            pub fn $name(&self) -> u64 {
                self.$field.load(Ordering::Relaxed)
            })*
        }
    };
}

stat_getters! {
    /// Connections accepted over the server's lifetime.
    connections: connections,
    /// Connections currently active (accepted, not yet closed).
    active_connections: active,
    /// Connections refused at accept (cap reached or fleet degraded).
    refused_connections: refused,
    /// Connections force-closed for misbehavior (stalled frames, stalled
    /// reads of our responses, drain-timeout overruns).
    evicted_clients: evicted,
    /// `Rejected` outcomes delivered to the wire (fast-path depth/drain
    /// rejects plus engine-terminal rejections).
    wire_rejects: wire_rejects,
    /// Hostile frames (zero-length, oversized, CRC mismatch, bad
    /// payload); each one closed its connection.
    malformed_frames: malformed_frames,
    /// Requests accepted into the engine.
    requests: requests,
    /// Terminal outcomes handed to a live connection for delivery.
    responses: responses,
    /// Terminal outcomes whose connection was gone by resolution time.
    dropped_responses: dropped_responses,
    /// Requests the engine failed to settle within its round budget
    /// (answered `Rejected`; anomaly — zero on any functioning cluster).
    engine_unresolved: engine_unresolved,
}

/// Final accounting of a server's lifetime, from [`Server::shutdown`].
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Connections accepted.
    pub connections: u64,
    /// Connections refused at accept.
    pub refused_connections: u64,
    /// Connections evicted for misbehavior.
    pub evicted_clients: u64,
    /// `Rejected` outcomes delivered to the wire.
    pub wire_rejects: u64,
    /// Hostile frames seen (each closed its connection).
    pub malformed_frames: u64,
    /// Requests accepted into the engine.
    pub requests: u64,
    /// Terminal outcomes handed to live connections.
    pub responses: u64,
    /// Terminal outcomes dropped because the connection was gone.
    pub dropped_responses: u64,
    /// Requests force-rejected after the engine's settle budget.
    pub engine_unresolved: u64,
    /// Connections still registered active after drain (must be 0).
    pub active_connections: u64,
    /// Whether the engine thread panicked (must be false; when true the
    /// pipeline is lost).
    pub engine_panicked: bool,
}

/// Cached obs counter handles (the registry lookup takes a lock; the
/// connection loops are hot).
struct ObsCounters {
    connections: Arc<Counter>,
    evicted: Arc<Counter>,
    wire_rejects: Arc<Counter>,
    malformed: Arc<Counter>,
    requests: Arc<Counter>,
}

impl ObsCounters {
    fn new() -> Self {
        let reg = Registry::global();
        ObsCounters {
            connections: reg.counter("server.connections"),
            evicted: reg.counter("server.evicted_clients"),
            wire_rejects: reg.counter("server.wire_rejects"),
            malformed: reg.counter("server.malformed_frames"),
            requests: reg.counter("server.requests"),
        }
    }
}

/// State shared by the acceptor, workers and engine.
struct Shared {
    config: ServerConfig,
    stats: Arc<ServerStats>,
    obs: ObsCounters,
    draining: AtomicBool,
    /// Latest [`HealthState::as_gauge`] published by the engine.
    health: AtomicI64,
    queue: Mutex<VecDeque<(u64, TcpStream)>>,
    available: Condvar,
}

impl Shared {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn health(&self) -> HealthState {
        HealthState::from_gauge(self.health.load(Ordering::Relaxed))
    }
}

enum EngineMsg {
    Request {
        conn_id: u64,
        wire_id: u64,
        req: prognosticator_core::TxRequest,
        resp: Sender<(u64, WireOutcome)>,
    },
    Disconnect {
        conn_id: u64,
    },
}

struct PendingReq {
    /// Session request id (index into the outcome journal).
    req_id: usize,
    /// Client correlation id, echoed in the response.
    wire_id: u64,
    conn_id: u64,
    resp: Sender<(u64, WireOutcome)>,
    /// Whether the connection disconnected before resolution.
    dead: bool,
    /// Settle rounds survived without resolving.
    rounds: u32,
}

/// The network front-end: owns the listener, the worker pool and the
/// engine thread wrapped around a [`Pipeline`].
pub struct Server {
    addr: SocketAddr,
    stats: Arc<ServerStats>,
    shared: Arc<Shared>,
    engine_tx: Option<Sender<EngineMsg>>,
    engine: Option<JoinHandle<Pipeline>>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boots the front-end over `pipeline`, binding an ephemeral
    /// loopback port (hermetic: never reachable off-host).
    pub fn start(pipeline: Pipeline, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        let shared = Arc::new(Shared {
            config: config.clone(),
            stats: Arc::clone(&stats),
            obs: ObsCounters::new(),
            draining: AtomicBool::new(false),
            health: AtomicI64::new(HealthState::Healthy.as_gauge()),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
        });
        let session = ClientSession::new(pipeline, config.client.clone());
        let (engine_tx, engine_rx) = mpsc::channel();
        let engine = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("prog-server-engine".into())
                .spawn(move || engine_loop(session, engine_rx, &shared))?
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("prog-server-accept".into())
                .spawn(move || acceptor_loop(listener, &shared))?
        };
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tx = engine_tx.clone();
                thread::Builder::new()
                    .name(format!("prog-server-conn-{i}"))
                    .spawn(move || worker_loop(&shared, &tx))
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Server {
            addr,
            stats,
            shared,
            engine_tx: Some(engine_tx),
            engine: Some(engine),
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Begins a graceful drain: stop accepting, reject new requests,
    /// let in-flight requests finish. Idempotent; [`Server::shutdown`]
    /// calls it implicitly.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.available.notify_all();
    }

    /// Drains and tears the server down, returning the wrapped
    /// [`Pipeline`] (unless the engine panicked) and the final
    /// accounting.
    pub fn shutdown(mut self) -> (Option<Pipeline>, ServerReport) {
        self.drain();
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // All request senders are gone; dropping ours disconnects the
        // engine's channel, letting it finish its final settle.
        drop(self.engine_tx.take());
        let (pipeline, panicked) = match self.engine.take().map(JoinHandle::join) {
            Some(Ok(p)) => (Some(p), false),
            _ => (None, true),
        };
        let s = &self.stats;
        let report = ServerReport {
            connections: s.connections(),
            refused_connections: s.refused_connections(),
            evicted_clients: s.evicted_clients(),
            wire_rejects: s.wire_rejects(),
            malformed_frames: s.malformed_frames(),
            requests: s.requests(),
            responses: s.responses(),
            dropped_responses: s.dropped_responses(),
            engine_unresolved: s.engine_unresolved(),
            active_connections: s.active_connections(),
            engine_panicked: panicked,
        };
        (pipeline, report)
    }
}

fn engine_loop(
    mut session: ClientSession,
    rx: Receiver<EngineMsg>,
    shared: &Shared,
) -> Pipeline {
    let stats = &shared.stats;
    let mut pending: Vec<PendingReq> = Vec::new();
    let mut open = true;
    while open || !pending.is_empty() {
        let mut ingested = 0usize;
        match rx.recv_timeout(shared.config.poll_interval) {
            Ok(msg) => {
                handle_engine_msg(&mut session, &mut pending, shared, msg);
                ingested += 1;
                while ingested < shared.config.engine_batch.max(1) {
                    match rx.try_recv() {
                        Ok(msg) => {
                            handle_engine_msg(&mut session, &mut pending, shared, msg);
                            ingested += 1;
                        }
                        Err(_) => break,
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => open = false,
        }
        if !pending.is_empty() {
            session.settle();
            deliver_resolved(&session, &mut pending, stats);
        }
        shared
            .health
            .store(session.pipeline().health().aggregate().as_gauge(), Ordering::Relaxed);
    }
    session.into_pipeline()
}

fn handle_engine_msg(
    session: &mut ClientSession,
    pending: &mut Vec<PendingReq>,
    shared: &Shared,
    msg: EngineMsg,
) {
    match msg {
        EngineMsg::Request { conn_id, wire_id, req, resp } => {
            shared.stats.requests.fetch_add(1, Ordering::Relaxed);
            shared.obs.requests.inc();
            let req_id = session.submit(req);
            pending.push(PendingReq { req_id, wire_id, conn_id, resp, dead: false, rounds: 0 });
        }
        // Sent by a connection's worker after its loop ends, i.e. after
        // the last request it will ever forward: outcomes still pending
        // for it resolve as dropped, and submitted work still commits
        // (a mid-request disconnect must not wedge or un-submit).
        EngineMsg::Disconnect { conn_id } => {
            for p in pending.iter_mut() {
                if p.conn_id == conn_id {
                    p.dead = true;
                }
            }
        }
    }
}

fn deliver_resolved(session: &ClientSession, pending: &mut Vec<PendingReq>, stats: &ServerStats) {
    pending.retain_mut(|p| {
        let outcome = match session.outcomes()[p.req_id].clone() {
            Some(ClientOutcome::Committed) => WireOutcome::Committed,
            Some(ClientOutcome::Aborted { reason }) => {
                WireOutcome::Aborted { reason: reason.to_string() }
            }
            Some(ClientOutcome::Rejected { reason, depth, cap }) => {
                stats.wire_rejects.fetch_add(1, Ordering::Relaxed);
                WireOutcome::Rejected { reason, depth: depth as u64, cap: cap as u64 }
            }
            None => {
                p.rounds += 1;
                if p.rounds < MAX_SETTLE_ROUNDS {
                    return true;
                }
                stats.engine_unresolved.fetch_add(1, Ordering::Relaxed);
                stats.wire_rejects.fetch_add(1, Ordering::Relaxed);
                WireOutcome::Rejected {
                    reason: "request unresolved: engine settle budget exhausted".into(),
                    depth: 0,
                    cap: 0,
                }
            }
        };
        if p.dead || p.resp.send((p.wire_id, outcome)).is_err() {
            stats.dropped_responses.fetch_add(1, Ordering::Relaxed);
        } else {
            stats.responses.fetch_add(1, Ordering::Relaxed);
        }
        false
    });
}

fn acceptor_loop(listener: TcpListener, shared: &Shared) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let active_gauge = Registry::global().gauge("server.active_connections");
    let mut next_conn_id: u64 = 0;
    while !shared.draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                let active = shared.stats.active_connections();
                let health = shared.health();
                if active >= shared.config.max_connections as u64 {
                    shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(stream, &format!(
                        "connection refused: {active} of {} connections active",
                        shared.config.max_connections
                    ));
                } else if health == HealthState::Degraded {
                    shared.stats.refused.fetch_add(1, Ordering::Relaxed);
                    refuse(stream, &format!(
                        "connection refused: service {} — draining load",
                        health.name()
                    ));
                } else {
                    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
                    shared.stats.active.fetch_add(1, Ordering::Relaxed);
                    shared.obs.connections.inc();
                    active_gauge.set(shared.stats.active_connections() as i64);
                    let mut q = shared.queue.lock().unwrap();
                    q.push_back((next_conn_id, stream));
                    next_conn_id += 1;
                    drop(q);
                    shared.available.notify_one();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(shared.config.poll_interval);
            }
            Err(_) => break,
        }
    }
}

/// Best-effort refusal: an `ERROR` frame, then drop (close).
fn refuse(mut stream: TcpStream, reason: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let _ = stream.write_all(&wire::encode_error(reason));
}

fn worker_loop(shared: &Shared, engine_tx: &Sender<EngineMsg>) {
    let active_gauge = Registry::global().gauge("server.active_connections");
    loop {
        let next = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(item) = q.pop_front() {
                    break Some(item);
                }
                if shared.draining() {
                    break None;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap();
                q = guard;
            }
        };
        let Some((conn_id, stream)) = next else { return };
        serve_conn(conn_id, stream, shared, engine_tx);
        let _ = engine_tx.send(EngineMsg::Disconnect { conn_id });
        shared.stats.active.fetch_sub(1, Ordering::Relaxed);
        active_gauge.set(shared.stats.active_connections() as i64);
    }
}

/// Why a connection loop ended (drives the counters; the loop itself
/// always exits cleanly — a hostile client can cost at most its own
/// connection).
enum ConnEnd {
    /// Peer closed or errored; nothing to count.
    Peer,
    /// We closed it: protocol violation (counted malformed).
    Malformed(String),
    /// We closed it: stalled frame / stalled reads / drain overrun
    /// (counted evicted).
    Evicted(String),
    /// Clean drain close.
    Drained,
}

fn serve_conn(conn_id: u64, mut stream: TcpStream, shared: &Shared, engine_tx: &Sender<EngineMsg>) {
    let cfg = &shared.config;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(cfg.poll_interval));
    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
    let (resp_tx, resp_rx) = mpsc::channel::<(u64, WireOutcome)>();
    let mut rxbuf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    let mut inflight: usize = 0;
    let mut partial_since: Option<Instant> = None;
    let mut drain_seen: Option<Instant> = None;

    let end = 'conn: loop {
        // 1. Deliver terminal outcomes the engine resolved.
        while let Ok((wire_id, outcome)) = resp_rx.try_recv() {
            inflight = inflight.saturating_sub(1);
            if stream.write_all(&wire::encode_response(wire_id, &outcome)).is_err() {
                break 'conn ConnEnd::Evicted("response write stalled".into());
            }
        }

        // 2. Graceful drain: finish in-flight work, then close.
        if let Some(since) = drain_seen {
            if inflight == 0 {
                break ConnEnd::Drained;
            }
            if since.elapsed() > cfg.drain_timeout {
                break ConnEnd::Evicted("drain timeout with requests in flight".into());
            }
        } else if shared.draining() {
            drain_seen = Some(Instant::now());
            continue;
        }

        // 3. Read and dispatch complete frames.
        match stream.read(&mut tmp) {
            // A close with a partially transferred frame still buffered
            // is a torn final frame — a protocol violation, not a clean
            // goodbye.
            Ok(0) if !rxbuf.is_empty() => {
                break ConnEnd::Malformed(format!(
                    "torn final frame: connection closed with {} buffered bytes",
                    rxbuf.len()
                ))
            }
            Ok(0) => break ConnEnd::Peer,
            Ok(n) => {
                rxbuf.extend_from_slice(&tmp[..n]);
                loop {
                    match wire::try_extract_frame(&mut rxbuf, cfg.max_frame) {
                        Ok(Some(payload)) => match wire::decode_payload(&payload) {
                            Ok(WirePayload::Request { req_id, req }) => {
                                if drain_seen.is_some() {
                                    shared.stats.wire_rejects.fetch_add(1, Ordering::Relaxed);
                                    shared.obs.wire_rejects.inc();
                                    let reject = WireOutcome::Rejected {
                                        reason: "server draining: request refused".into(),
                                        depth: 0,
                                        cap: 0,
                                    };
                                    if stream
                                        .write_all(&wire::encode_response(req_id, &reject))
                                        .is_err()
                                    {
                                        break 'conn ConnEnd::Evicted(
                                            "response write stalled".into(),
                                        );
                                    }
                                } else if inflight >= cfg.pipeline_depth {
                                    shared.stats.wire_rejects.fetch_add(1, Ordering::Relaxed);
                                    shared.obs.wire_rejects.inc();
                                    let reject = WireOutcome::Rejected {
                                        reason: format!(
                                            "pipeline depth exceeded: {inflight} of {} requests in flight",
                                            cfg.pipeline_depth
                                        ),
                                        depth: inflight as u64,
                                        cap: cfg.pipeline_depth as u64,
                                    };
                                    if stream
                                        .write_all(&wire::encode_response(req_id, &reject))
                                        .is_err()
                                    {
                                        break 'conn ConnEnd::Evicted(
                                            "response write stalled".into(),
                                        );
                                    }
                                } else if engine_tx
                                    .send(EngineMsg::Request {
                                        conn_id,
                                        wire_id: req_id,
                                        req,
                                        resp: resp_tx.clone(),
                                    })
                                    .is_ok()
                                {
                                    inflight += 1;
                                } else {
                                    // Engine gone: the server is beyond
                                    // draining; close out.
                                    break 'conn ConnEnd::Drained;
                                }
                            }
                            Ok(_) => {
                                break 'conn ConnEnd::Malformed(
                                    "unexpected payload tag: only requests flow client→server"
                                        .into(),
                                )
                            }
                            Err(WireError::Malformed(reason)) => {
                                break 'conn ConnEnd::Malformed(reason)
                            }
                        },
                        Ok(None) => break,
                        Err(WireError::Malformed(reason)) => {
                            break 'conn ConnEnd::Malformed(reason)
                        }
                    }
                }
                partial_since = if rxbuf.is_empty() { None } else { partial_since.or_else(|| Some(Instant::now())) };
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if let Some(since) = partial_since {
                    if since.elapsed() > cfg.frame_timeout {
                        break ConnEnd::Evicted(format!(
                            "frame stalled mid-transfer for over {:?}",
                            cfg.frame_timeout
                        ));
                    }
                }
            }
            Err(_) => break ConnEnd::Peer,
        }
    };

    match end {
        ConnEnd::Peer => {}
        ConnEnd::Malformed(reason) => {
            shared.stats.malformed_frames.fetch_add(1, Ordering::Relaxed);
            shared.obs.malformed.inc();
            let _ = stream.write_all(&wire::encode_error(&format!("malformed frame: {reason}")));
        }
        ConnEnd::Evicted(reason) => {
            shared.stats.evicted.fetch_add(1, Ordering::Relaxed);
            shared.obs.evicted.inc();
            let _ = stream.write_all(&wire::encode_error(&format!("evicted: {reason}")));
        }
        ConnEnd::Drained => {
            let _ = stream.write_all(&wire::encode_error("server draining: connection closed"));
        }
    }
    // Final sweep: outcomes that raced into the channel while we were
    // exiting still get a best-effort write before the socket drops.
    while let Ok((wire_id, outcome)) = resp_rx.try_recv() {
        let _ = stream.write_all(&wire::encode_response(wire_id, &outcome));
    }
}

#[cfg(test)]
mod tests {
    use super::wire::{ClientEvent, WireClient};
    use super::*;
    use crate::pipeline::PipelineConfig;
    use prognosticator_core::{Catalog, ProgId, TxRequest};
    use prognosticator_storage::EpochStore;
    use prognosticator_txir::{Expr, InputBound, Key, ProgramBuilder, TableId, Value};

    fn counter_catalog() -> (Arc<Catalog>, ProgId) {
        let mut b = ProgramBuilder::new("bump");
        let t = b.table("counters");
        let id = b.input("id", InputBound::int(0, 15));
        let v = b.var("v");
        b.get(v, Expr::key(t, vec![Expr::input(id)]));
        b.put(Expr::key(t, vec![Expr::input(id)]), Expr::var(v).add(Expr::lit(1)));
        let mut catalog = Catalog::new();
        let bump = catalog.register(b.build()).expect("registers");
        (Arc::new(catalog), bump)
    }

    fn populate() -> Arc<dyn Fn(&EpochStore) + Send + Sync> {
        Arc::new(|store: &EpochStore| {
            store.populate((0..16).map(|i| (Key::of_ints(TableId(0), &[i]), Value::Int(0))));
        })
    }

    fn boot(config: ServerConfig) -> (Server, ProgId) {
        let (catalog, bump) = counter_catalog();
        let pipeline_config = PipelineConfig {
            batch_cap: 8,
            scheduler: prognosticator_core::baselines::mq_mf(2),
            ..PipelineConfig::default()
        };
        let p = Pipeline::new(catalog, pipeline_config, 1, populate()).expect("boots");
        (Server::start(p, config).expect("binds"), bump)
    }

    fn wait_until(what: &str, timeout: Duration, mut pred: impl FnMut() -> bool) {
        let deadline = Instant::now() + timeout;
        while !pred() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn serves_pipelined_requests_end_to_end() {
        let (server, bump) = boot(ServerConfig::default());
        let mut client = WireClient::connect(server.addr()).expect("connects");
        // Sequential request/response.
        for i in 0..4 {
            let resp = client
                .call(&TxRequest::new(bump, vec![Value::Int(i)]), Duration::from_secs(5))
                .expect("responds");
            assert_eq!(resp.outcome, WireOutcome::Committed, "request {i}");
        }
        // Pipelined: several in flight on one connection.
        let ids: Vec<u64> = (0..5)
            .map(|i| client.send(&TxRequest::new(bump, vec![Value::Int(i)])).expect("sends"))
            .collect();
        let mut seen = Vec::new();
        while seen.len() < ids.len() {
            match client.recv(Duration::from_secs(5)).expect("event") {
                Some(ClientEvent::Response(resp)) => {
                    assert_eq!(resp.outcome, WireOutcome::Committed);
                    seen.push(resp.req_id);
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, ids, "every pipelined request answered exactly once");
        drop(client);
        let (pipeline, report) = server.shutdown();
        let pipeline = pipeline.expect("engine survives");
        assert!(!report.engine_panicked);
        assert_eq!(report.requests, 9);
        assert_eq!(
            report.requests,
            report.responses + report.dropped_responses,
            "terminal-outcome accounting must balance: {report:?}"
        );
        assert_eq!(report.active_connections, 0, "no leaked connections");
        assert_eq!(report.engine_unresolved, 0);
        // Effects landed exactly once: counters 0..4 bumped twice, 4 once.
        for i in 0..4 {
            assert_eq!(
                pipeline.store(0).get_latest(&Key::of_ints(TableId(0), &[i])),
                Some(Value::Int(2)),
                "counter {i}"
            );
        }
        assert_eq!(
            pipeline.store(0).get_latest(&Key::of_ints(TableId(0), &[4])),
            Some(Value::Int(1))
        );
    }

    /// Satellite: every malformed-frame class must yield a clean
    /// per-connection error — connection closed, counters incremented,
    /// the server itself unharmed — never a panic or a stuck worker.
    #[test]
    fn malformed_frames_close_the_connection_not_the_server() {
        let (server, bump) = boot(ServerConfig::default());
        let valid = wire::encode_request(0, &TxRequest::new(bump, vec![Value::Int(1)]));

        // (hostile bytes, expected reason fragment); each case runs on a
        // fresh connection.
        let torn_cut = valid.len() / 2;
        let cases: Vec<(Vec<u8>, &str)> = vec![
            ({
                let mut f = Vec::new();
                f.extend_from_slice(&u32::MAX.to_le_bytes());
                f.extend_from_slice(&[0; 4]);
                f
            }, "oversized frame"),
            ({
                let mut f = valid.clone();
                let last = f.len() - 1;
                f[last] ^= 0xA5;
                f
            }, "crc mismatch"),
            (vec![0u8; 8], "zero-length frame"),
            (valid[..torn_cut].to_vec(), "torn final frame"),
        ];
        let n_cases = cases.len() as u64;
        for (bytes, fragment) in cases {
            let mut client = WireClient::connect(server.addr()).expect("connects");
            client.send_raw(&bytes).expect("writes");
            if fragment == "torn final frame" {
                // The torn case only manifests when the writer goes away
                // mid-frame.
                client.stream().shutdown(std::net::Shutdown::Write).expect("half-close");
            }
            let mut saw_error = false;
            loop {
                match client.recv(Duration::from_secs(5)).expect("readable") {
                    Some(ClientEvent::ServerError(reason)) => {
                        assert!(
                            reason.contains(fragment),
                            "expected {fragment:?} in {reason:?}"
                        );
                        saw_error = true;
                    }
                    Some(ClientEvent::Closed) => break,
                    other => panic!("unexpected event for {fragment}: {other:?}"),
                }
            }
            assert!(saw_error, "{fragment}: server must say why before closing");
        }
        wait_until("hostile connections to be reclaimed", Duration::from_secs(5), || {
            server.stats().active_connections() == 0
        });
        assert_eq!(server.stats().malformed_frames(), n_cases);

        // The server is unharmed: a well-behaved client still commits.
        let mut client = WireClient::connect(server.addr()).expect("connects");
        let resp = client
            .call(&TxRequest::new(bump, vec![Value::Int(2)]), Duration::from_secs(5))
            .expect("server still serves");
        assert_eq!(resp.outcome, WireOutcome::Committed);
        drop(client);
        let (_, report) = server.shutdown();
        assert!(!report.engine_panicked);
        assert_eq!(report.malformed_frames, n_cases);
        assert_eq!(report.active_connections, 0, "hostile sessions reclaimed");
        assert_eq!(report.requests, report.responses + report.dropped_responses);
    }

    #[test]
    fn pipeline_depth_zero_rejects_every_request_at_the_wire() {
        let (server, bump) =
            boot(ServerConfig { pipeline_depth: 0, ..ServerConfig::default() });
        let mut client = WireClient::connect(server.addr()).expect("connects");
        let resp = client
            .call(&TxRequest::new(bump, vec![Value::Int(0)]), Duration::from_secs(5))
            .expect("fast-path reject still responds");
        match resp.outcome {
            WireOutcome::Rejected { reason, depth, cap } => {
                assert!(reason.contains("pipeline depth exceeded"), "got: {reason}");
                assert_eq!((depth, cap), (0, 0));
            }
            other => panic!("expected wire-level reject, got {other:?}"),
        }
        drop(client);
        let (_, report) = server.shutdown();
        assert_eq!(report.requests, 0, "the engine never saw the request");
        assert_eq!(report.wire_rejects, 1);
    }

    #[test]
    fn open_loop_latency_times_committed_replies_only() {
        // A depth-0 server rejects every request instantly at the wire;
        // those replies are counted but must not enter the latency
        // quantiles, or a rejection storm would read as a fast server.
        let (server, bump) =
            boot(ServerConfig { pipeline_depth: 0, ..ServerConfig::default() });
        let cfg = loadgen::OpenLoopConfig {
            target_rps: 2_000,
            requests: 20,
            clients: 2,
            ..loadgen::OpenLoopConfig::default()
        };
        let report = loadgen::run_open_loop(
            server.addr(),
            |k| TxRequest::new(bump, vec![Value::Int(k as i64 % 16)]),
            &cfg,
        )
        .expect("open loop runs");
        assert_eq!(report.sent, cfg.requests, "every request sent: {report:?}");
        assert_eq!(report.rejected, report.sent, "every request rejected: {report:?}");
        assert_eq!(report.committed, 0);
        assert_eq!(report.max_ms, 0.0, "rejections must not be timed: {report:?}");
        server.shutdown();
    }

    #[test]
    fn depth_capped_burst_answers_every_request_exactly_once() {
        let (server, bump) =
            boot(ServerConfig { pipeline_depth: 1, ..ServerConfig::default() });
        let mut client = WireClient::connect(server.addr()).expect("connects");
        let ids: Vec<u64> = (0..8)
            .map(|i| client.send(&TxRequest::new(bump, vec![Value::Int(i)])).expect("sends"))
            .collect();
        let mut committed = 0usize;
        let mut rejected = 0usize;
        let mut seen = Vec::new();
        while seen.len() < ids.len() {
            match client.recv(Duration::from_secs(5)).expect("event") {
                Some(ClientEvent::Response(resp)) => {
                    match resp.outcome {
                        WireOutcome::Committed => committed += 1,
                        WireOutcome::Rejected { .. } => rejected += 1,
                        other => panic!("unexpected outcome {other:?}"),
                    }
                    seen.push(resp.req_id);
                }
                other => panic!("unexpected event: {other:?}"),
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, ids, "exactly one response per request");
        assert!(committed >= 1, "something must get through");
        assert_eq!(committed + rejected, 8);
        drop(client);
        let (_, report) = server.shutdown();
        assert_eq!(report.requests, report.responses + report.dropped_responses);
    }

    #[test]
    fn slowloris_clients_are_evicted() {
        let (server, bump) = boot(ServerConfig {
            frame_timeout: Duration::from_millis(50),
            ..ServerConfig::default()
        });
        let valid = wire::encode_request(0, &TxRequest::new(bump, vec![Value::Int(1)]));
        let mut client = WireClient::connect(server.addr()).expect("connects");
        // Trickle half a frame, then stall: the frame deadline must
        // evict us rather than pin a worker forever.
        client.send_raw(&valid[..5]).expect("writes");
        let mut evicted = false;
        loop {
            match client.recv(Duration::from_secs(5)).expect("readable") {
                Some(ClientEvent::ServerError(reason)) => {
                    assert!(reason.contains("evicted"), "got: {reason}");
                    evicted = true;
                }
                Some(ClientEvent::Closed) => break,
                other => panic!("unexpected event: {other:?}"),
            }
        }
        assert!(evicted, "server must announce the eviction");
        wait_until("eviction to be counted", Duration::from_secs(5), || {
            server.stats().evicted_clients() == 1
        });
        let (_, report) = server.shutdown();
        assert_eq!(report.evicted_clients, 1);
        assert_eq!(report.active_connections, 0);
    }

    #[test]
    fn connection_cap_refuses_with_a_deterministic_reason() {
        let (server, _) =
            boot(ServerConfig { max_connections: 0, ..ServerConfig::default() });
        let mut client = WireClient::connect(server.addr()).expect("tcp connects");
        match client.recv(Duration::from_secs(5)).expect("readable") {
            Some(ClientEvent::ServerError(reason)) => {
                assert!(reason.contains("connection refused"), "got: {reason}");
            }
            other => panic!("expected refusal, got {other:?}"),
        }
        wait_until("refusal to be counted", Duration::from_secs(5), || {
            server.stats().refused_connections() == 1
        });
        let (_, report) = server.shutdown();
        assert_eq!(report.connections, 0, "refused connections are never accepted");
    }

    #[test]
    fn drain_rejects_new_requests_and_closes_cleanly() {
        let (server, bump) = boot(ServerConfig::default());
        let mut client = WireClient::connect(server.addr()).expect("connects");
        let resp = client
            .call(&TxRequest::new(bump, vec![Value::Int(3)]), Duration::from_secs(5))
            .expect("pre-drain commit");
        assert_eq!(resp.outcome, WireOutcome::Committed);
        server.drain();
        // Post-drain traffic gets a terminal signal — a response (commit
        // if it raced in before the connection observed the drain, or a
        // drain rejection), a drain notice, or a close — never a silent
        // drop or a hang.
        let _ = client.send(&TxRequest::new(bump, vec![Value::Int(4)]));
        let mut saw_terminal = false;
        for _ in 0..8 {
            match client.recv(Duration::from_secs(2)) {
                Ok(Some(ClientEvent::Response(resp))) => {
                    match &resp.outcome {
                        WireOutcome::Committed => {}
                        WireOutcome::Rejected { reason, .. } => {
                            assert!(reason.contains("draining"), "got: {resp:?}")
                        }
                        other => panic!("unexpected post-drain outcome: {other:?}"),
                    }
                    saw_terminal = true;
                    break;
                }
                Ok(Some(ClientEvent::ServerError(_)) | Some(ClientEvent::Closed)) | Err(_) => {
                    saw_terminal = true;
                    break;
                }
                Ok(None) => continue,
            }
        }
        assert!(saw_terminal, "drain must answer or close, not hang");
        let (pipeline, report) = server.shutdown();
        assert!(pipeline.is_some());
        assert!(!report.engine_panicked);
        assert_eq!(report.active_connections, 0);
        assert_eq!(report.requests, report.responses + report.dropped_responses);
    }
}
