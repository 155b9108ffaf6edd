//! Open-loop load generator for the service front-end.
//!
//! Closed-loop harnesses (send, wait, send) hide overload: when the
//! server slows down the generator slows with it, and the latency
//! numbers silently stop describing the target arrival rate — the
//! classic *coordinated omission* trap. This generator is open-loop: it
//! schedules request `k` at `start + k/rate` regardless of how the
//! server is doing, and measures each request's service latency from
//! its **intended** send time, so queueing delay the server inflicted on
//! a backed-up socket is charged to the server, not silently dropped.
//!
//! The client population is Zipfian: a seeded [`Zipfian`] picks which of
//! the `clients` connections carries each request, concentrating load on
//! a hot few — the shape real fleets have, and the one that exercises
//! per-connection pipeline-depth backpressure.

use super::wire::{self, WireOutcome, WireResponse};
use prognosticator_core::TxRequest;
use prognosticator_obs::Registry;
use prognosticator_workloads::gen::{DeterministicRng, Zipfian};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Tuning knobs for [`run_open_loop`].
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Intended arrival rate (requests per second).
    pub target_rps: u64,
    /// Total requests to send.
    pub requests: usize,
    /// Connection population size.
    pub clients: usize,
    /// Zipfian skew of the client pick, in hundredths (99 ⇒ s = 0.99).
    pub zipf_s_hundredths: u32,
    /// Seed for the client-pick RNG.
    pub seed: u64,
    /// Budget for the post-send tail: how long to keep waiting for
    /// outstanding responses after the last send.
    pub recv_timeout: Duration,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            target_rps: 1_000,
            requests: 500,
            clients: 4,
            zipf_s_hundredths: 99,
            seed: 0x09E4,
            recv_timeout: Duration::from_secs(5),
        }
    }
}

/// What an open-loop run measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Requests actually written to a socket.
    pub sent: usize,
    /// Responses with a `Committed` outcome.
    pub committed: usize,
    /// Responses with an `Aborted` outcome.
    pub aborted: usize,
    /// Responses with a `Rejected` outcome (wire backpressure or
    /// terminal admission rejection).
    pub rejected: usize,
    /// Requests whose send failed (connection refused/evicted mid-run).
    pub failed_sends: usize,
    /// Requests sent but never answered within the budget (must be 0 on
    /// a healthy run — the exactly-once contract's wire shadow).
    pub lost: usize,
    /// Coordinated-omission-safe service latency of committed requests,
    /// measured from each request's *intended* send time: median.
    /// Rejections and aborts are counted above but not timed, so an
    /// instant-reject storm cannot pull the quantiles down.
    pub p50_ms: f64,
    /// 99th percentile of the same distribution.
    pub p99_ms: f64,
    /// Worst case of the same distribution.
    pub max_ms: f64,
    /// Rate actually achieved by the send loop (sends per second).
    pub achieved_rps: f64,
}

/// Runs an open-loop campaign against a server at `addr`. `gen` maps the
/// request index to the transaction to send (pure generators keep the
/// run replayable from the config + seed).
pub fn run_open_loop(
    addr: SocketAddr,
    mut gen: impl FnMut(usize) -> TxRequest,
    cfg: &OpenLoopConfig,
) -> std::io::Result<OpenLoopReport> {
    assert!(cfg.target_rps > 0, "target rate must be positive");
    assert!(cfg.clients > 0, "need at least one client connection");
    let hist = Registry::global().histogram("server.openloop.latency_us");

    // Connection population + one reader thread per connection: the
    // sender must never block on receiving (that would close the loop).
    let (resp_tx, resp_rx) = mpsc::channel::<(usize, WireResponse, Instant)>();
    let mut streams = Vec::with_capacity(cfg.clients);
    let mut readers = Vec::with_capacity(cfg.clients);
    for c in 0..cfg.clients {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;
        let reader = stream.try_clone()?;
        let tx = resp_tx.clone();
        readers.push(std::thread::spawn(move || reader_loop(c, reader, &tx)));
        streams.push(stream);
    }
    drop(resp_tx);

    let zipf = Zipfian::new(cfg.clients, cfg.zipf_s_hundredths);
    let mut rng = DeterministicRng::new(cfg.seed);
    let period = Duration::from_nanos(1_000_000_000 / cfg.target_rps);
    let mut wire_ids = vec![0u64; cfg.clients];
    let mut intended: HashMap<(usize, u64), Instant> = HashMap::new();
    let mut sent = 0usize;
    let mut failed_sends = 0usize;

    let start = Instant::now();
    for k in 0..cfg.requests {
        // Open loop: request k is *due* at start + k/rate. Sleep until
        // its slot; if we are behind, send immediately — the lateness is
        // charged to the request via its intended timestamp.
        let due = start
            + Duration::from_nanos((period.as_nanos() as u64).saturating_mul(k as u64));
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let client = zipf.sample(&mut rng);
        let wire_id = wire_ids[client];
        wire_ids[client] += 1;
        let frame = wire::encode_request(wire_id, &gen(k));
        match streams[client].write_all(&frame) {
            Ok(()) => {
                intended.insert((client, wire_id), due);
                sent += 1;
            }
            Err(_) => failed_sends += 1,
        }
    }
    let send_elapsed = start.elapsed();

    // Tail drain: responses already stream in during the send phase; now
    // wait out the stragglers.
    let mut latencies: Vec<Duration> = Vec::with_capacity(sent);
    let (mut committed, mut aborted, mut rejected) = (0usize, 0usize, 0usize);
    let mut received = 0usize;
    let deadline = Instant::now() + cfg.recv_timeout;
    while received < sent {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        let Ok((client, resp, done_at)) = resp_rx.recv_timeout(left) else { break };
        let Some(due) = intended.remove(&(client, resp.req_id)) else { continue };
        received += 1;
        match resp.outcome {
            WireOutcome::Committed => {
                committed += 1;
                let latency = done_at.saturating_duration_since(due);
                hist.record(latency.as_micros() as u64);
                latencies.push(latency);
            }
            WireOutcome::Aborted { .. } => aborted += 1,
            WireOutcome::Rejected { .. } => rejected += 1,
        }
    }

    for s in &streams {
        let _ = s.shutdown(Shutdown::Both);
    }
    for r in readers {
        let _ = r.join();
    }

    latencies.sort_unstable();
    let quantile = |p: usize| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = (latencies.len() - 1) * p / 100;
        latencies[idx].as_secs_f64() * 1e3
    };
    Ok(OpenLoopReport {
        sent,
        committed,
        aborted,
        rejected,
        failed_sends,
        lost: sent - received,
        p50_ms: quantile(50),
        p99_ms: quantile(99),
        max_ms: latencies.last().map_or(0.0, |d| d.as_secs_f64() * 1e3),
        achieved_rps: if send_elapsed.is_zero() {
            0.0
        } else {
            sent as f64 / send_elapsed.as_secs_f64()
        },
    })
}

/// Drains one connection's responses into the collector, stamping each
/// with its arrival time. Exits on close/error (the sender shuts the
/// sockets down once the tail budget is spent).
fn reader_loop(client: usize, mut stream: TcpStream, tx: &mpsc::Sender<(usize, WireResponse, Instant)>) {
    let mut buf: Vec<u8> = Vec::new();
    let mut tmp = [0u8; 4096];
    loop {
        loop {
            match wire::try_extract_frame(&mut buf, wire::DEFAULT_MAX_FRAME) {
                // Anything other than a RESPONSE is skipped: an ERROR
                // frame precedes a server-side close, so the following
                // Ok(0) read ends the loop.
                Ok(Some(payload)) => {
                    if let Ok(wire::WirePayload::Response(resp)) = wire::decode_payload(&payload) {
                        if tx.send((client, resp, Instant::now())).is_err() {
                            return;
                        }
                    }
                }
                Ok(None) => break,
                Err(_) => return,
            }
        }
        match stream.read(&mut tmp) {
            Ok(0) => return,
            Ok(n) => buf.extend_from_slice(&tmp[..n]),
            Err(_) => return,
        }
    }
}
