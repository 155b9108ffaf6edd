//! The benchmark's own open-loop driver over the public wire codec.
//!
//! One thread drives one connection: it sends request `k` of a phase at
//! `start + (k + u) / rate`, with `u` drawn uniformly from `[0, 1)` by a
//! seeded generator, whether or not earlier replies came back, and reads
//! replies while it waits for the next send. The offset keeps the rate
//! exact while spreading arrivals over every phase of the server's and
//! consensus's periodic polls; a strictly periodic schedule locks onto
//! one phase for the whole run, and the run's latencies then depend on
//! which. Latency runs from each request's intended send time, so a stall
//! is charged to every request queued behind it. Only committed replies
//! are timed; rejected, lost and failed-send requests count as failures.

use crate::stats::{Tail, Tally};
use crate::trace::Tracer;
use prognosticator::core::TxRequest;
use prognosticator::server::wire::{self, WireOutcome, WirePayload};
use prognosticator::workloads::DeterministicRng;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one phase of constant offered rate measured.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub rate_rps: f64,
    pub tally: Tally,
    /// Intended send time to reply, committed requests only.
    pub latencies_ms: Vec<f64>,
    /// How late each send left against its schedule.
    pub send_lag_ms: Vec<f64>,
    /// Requests of this phase still unanswered when its schedule ended.
    pub backlog_at_end: usize,
    /// Requests still unanswered once the phase's settle wait was over.
    pub unanswered: usize,
}

struct InFlight {
    due: Instant,
    phase: usize,
    /// The request's root span in a traced run.
    span: Option<crate::trace::SpanId>,
}

pub struct Driver {
    stream: TcpStream,
    rx: Vec<u8>,
    next_id: u64,
    inflight: HashMap<u64, InFlight>,
    pub phases: Vec<Phase>,
    broken: bool,
    /// Draws each send's offset within its slot.
    slots: DeterministicRng,
}

impl Driver {
    pub fn connect(addr: SocketAddr, seed: u64) -> std::io::Result<Driver> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(2)))?;
        Ok(Driver {
            stream,
            rx: Vec::new(),
            next_id: 0,
            inflight: HashMap::new(),
            phases: Vec::new(),
            broken: false,
            slots: DeterministicRng::new(seed),
        })
    }

    /// Sends at `rate_rps` for `duration`, then waits up to `settle` for
    /// the phase's replies. Returns the phase index.
    pub fn run_phase(
        &mut self,
        rate_rps: f64,
        duration: Duration,
        settle: Duration,
        gen: &mut dyn FnMut() -> TxRequest,
        tracer: &mut Tracer,
    ) -> usize {
        let phase = self.phases.len();
        self.phases.push(Phase {
            rate_rps,
            ..Phase::default()
        });
        let count = (rate_rps * duration.as_secs_f64()).round() as u64;
        let start = Instant::now();
        for k in 0..count {
            let u = f64::from(self.slots.next_u32()) / (f64::from(u32::MAX) + 1.0);
            let due = start + Duration::from_secs_f64((k as f64 + u) / rate_rps);
            self.read_until(due, tracer);
            let req = gen();
            self.send(phase, due, &req, tracer);
        }
        self.read_until(start + duration, tracer);
        self.phases[phase].backlog_at_end =
            self.inflight.values().filter(|f| f.phase == phase).count();
        let deadline = Instant::now() + settle;
        while Instant::now() < deadline && self.inflight.values().any(|f| f.phase == phase) {
            self.read_until(
                (Instant::now() + Duration::from_millis(20)).min(deadline),
                tracer,
            );
        }
        self.phases[phase].unanswered = self.inflight.values().filter(|f| f.phase == phase).count();
        phase
    }

    fn send(&mut self, phase: usize, due: Instant, req: &TxRequest, tracer: &mut Tracer) {
        let id = self.next_id;
        self.next_id += 1;
        let span = tracer.begin_at("request", due, None, id);
        let frame = tracer.time("server.codec", span, id, || wire::encode_request(id, req));
        let p = &mut self.phases[phase];
        p.tally.attempted += 1;
        let sent_at = Instant::now();
        let ok = !self.broken
            && tracer
                .time("wire.write", span, id, || self.stream.write_all(&frame))
                .is_ok();
        if !ok {
            self.broken = true;
            p.tally.failed_sends += 1;
            tracer.end_at(span, Instant::now());
            return;
        }
        p.send_lag_ms
            .push(sent_at.saturating_duration_since(due).as_secs_f64() * 1e3);
        self.inflight.insert(id, InFlight { due, phase, span });
    }

    /// Reads and records replies until `until`.
    fn read_until(&mut self, until: Instant, tracer: &mut Tracer) {
        let mut buf = [0u8; 4096];
        loop {
            let now = Instant::now();
            if now >= until || self.broken {
                return;
            }
            let wait = (until - now).max(Duration::from_micros(50));
            if self.stream.set_read_timeout(Some(wait)).is_err() {
                self.broken = true;
                return;
            }
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.broken = true;
                    return;
                }
                Ok(n) => {
                    let at = Instant::now();
                    self.rx.extend_from_slice(&buf[..n]);
                    self.take_replies(at, tracer);
                }
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(_) => {
                    self.broken = true;
                    return;
                }
            }
        }
    }

    fn take_replies(&mut self, at: Instant, tracer: &mut Tracer) {
        loop {
            let decode_start = Instant::now();
            let payload = match wire::try_extract_frame(&mut self.rx, wire::DEFAULT_MAX_FRAME) {
                Ok(Some(p)) => p,
                Ok(None) => return,
                Err(_) => {
                    self.broken = true;
                    return;
                }
            };
            let Ok(WirePayload::Response(resp)) = wire::decode_payload(&payload) else {
                // An ERROR frame precedes a server-side close.
                self.broken = true;
                return;
            };
            let decoded = Instant::now();
            let Some(f) = self.inflight.remove(&resp.req_id) else {
                continue;
            };
            let codec = tracer.begin_at("server.codec", decode_start, f.span, resp.req_id);
            tracer.end_at(codec, decoded);
            tracer.end_at(f.span, at);
            record_reply(
                &mut self.phases[f.phase],
                &resp.outcome,
                at.saturating_duration_since(f.due),
            );
        }
    }

    /// Waits up to `timeout` for every outstanding reply, then counts the
    /// rest as lost and closes the connection.
    pub fn finish(mut self, timeout: Duration, tracer: &mut Tracer) -> Vec<Phase> {
        let deadline = Instant::now() + timeout;
        while !self.inflight.is_empty() && !self.broken && Instant::now() < deadline {
            self.read_until(
                (Instant::now() + Duration::from_millis(20)).min(deadline),
                tracer,
            );
        }
        for f in self.inflight.values() {
            self.phases[f.phase].tally.lost += 1;
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.phases
    }
}

/// Files one reply under its phase: only committed replies are timed.
pub fn record_reply(phase: &mut Phase, outcome: &WireOutcome, latency: Duration) {
    match outcome {
        WireOutcome::Committed => {
            phase.tally.committed += 1;
            phase.latencies_ms.push(latency.as_secs_f64() * 1e3);
        }
        WireOutcome::Aborted { .. } => phase.tally.aborted += 1,
        WireOutcome::Rejected { .. } => phase.tally.rejected += 1,
    }
}

/// Tail latency of a rung, counting every failed or unanswered request
/// as missing any limit; `None` when the rung has too few requests.
pub fn rung_tail_ms(p: &Phase) -> Option<f64> {
    let failed = p.tally.failed() + p.unanswered as u64;
    let mut lat = p.latencies_ms.clone();
    lat.extend(std::iter::repeat_n(f64::INFINITY, failed as usize));
    Tail::of(&lat, "rung").ok().map(|t| t.tail)
}

/// A ladder rung meets the limit when its tail latency (see
/// [`rung_tail_ms`]) is within `limit_ms`, its failures stay under
/// `max_failed_pct`, and the requests still unanswered when its schedule
/// ended are no more than the rate keeps in flight at the limit latency
/// (a larger backlog is growing).
pub fn rung_passes(p: &Phase, limit_ms: f64, max_failed_pct: f64) -> bool {
    let failed = p.tally.failed() + p.unanswered as u64;
    let failed_pct = failed as f64 * 100.0 / p.tally.attempted.max(1) as f64;
    let in_flight_at_limit = (p.rate_rps * limit_ms / 1e3).ceil() as usize;
    rung_tail_ms(p).is_some_and(|t| t <= limit_ms)
        && failed_pct < max_failed_pct
        && p.backlog_at_end <= in_flight_at_limit
}

/// The highest rate that meets the limit, interpolated between the last
/// passing rung `(rate, tail)` and the first failing one, so the answer
/// moves smoothly instead of jumping a whole rung. A failing rung whose
/// tail is unknown or infinite (too many failures), or within the limit
/// (it failed on backlog or failures), adds nothing above the passing
/// rate.
pub fn crossing_rate(pass: (f64, f64), fail: Option<(f64, Option<f64>)>, limit_ms: f64) -> f64 {
    let (r0, t0) = pass;
    match fail {
        Some((r1, Some(t1))) if t1.is_finite() && t1 > limit_ms && t1 > t0 => {
            r0 + (r1 - r0) * ((limit_ms - t0) / (t1 - t0)).clamp(0.0, 1.0)
        }
        _ => r0,
    }
}

/// The ladder climbs `rates` in order and stops at the first rung that
/// misses the limit on two tries in a row, so one stall on a shared host
/// does not end the climb. `run` measures one try at a rate and says
/// whether it passed. Returns the index of the highest passing rung.
pub fn climb(rates: &[f64], mut run: impl FnMut(f64) -> bool) -> Option<usize> {
    let mut best = None;
    for (i, &rate) in rates.iter().enumerate() {
        if !(run(rate) || run(rate)) {
            break;
        }
        best = Some(i);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(rate: f64, committed_ms: &[f64]) -> Phase {
        let mut p = Phase {
            rate_rps: rate,
            ..Phase::default()
        };
        for &ms in committed_ms {
            p.tally.attempted += 1;
            record_reply(
                &mut p,
                &WireOutcome::Committed,
                Duration::from_secs_f64(ms / 1e3),
            );
        }
        p
    }

    #[test]
    fn rejected_and_lost_replies_are_failures_and_untimed() {
        let mut p = phase(100.0, &[5.0, 6.0]);
        p.tally.attempted += 3;
        record_reply(
            &mut p,
            &WireOutcome::Rejected {
                reason: "depth".into(),
                depth: 32,
                cap: 32,
            },
            Duration::from_millis(1),
        );
        record_reply(
            &mut p,
            &WireOutcome::Aborted {
                reason: "funds".into(),
            },
            Duration::from_millis(9),
        );
        // The fifth request never got a reply.
        p.tally.lost += 1;
        assert_eq!(p.latencies_ms.len(), 2, "only committed replies are timed");
        assert_eq!(p.tally.failed(), 2);
        assert!((p.tally.failed_pct() - 40.0).abs() < 1e-9);
        assert_eq!(p.tally.aborted, 1);
    }

    #[test]
    fn a_rung_fails_on_tail_failures_or_backlog() {
        let fast: Vec<f64> = vec![10.0; 300];
        assert!(rung_passes(&phase(200.0, &fast), 50.0, 1.0));

        let mut slow = fast.clone();
        slow.extend(vec![80.0; 30]);
        assert!(
            !rung_passes(&phase(200.0, &slow), 50.0, 1.0),
            "tail over the limit"
        );

        // 2% rejected: fast replies do not hide them, and they exceed 1%.
        let mut rejecting = phase(200.0, &fast[..294]);
        rejecting.tally.attempted += 6;
        rejecting.tally.rejected += 6;
        assert!(
            !rung_passes(&rejecting, 50.0, 1.0),
            "failures over the limit"
        );
        assert!(rung_passes(&rejecting, 50.0, 3.0));

        let mut backed_up = phase(200.0, &fast);
        backed_up.backlog_at_end = 11; // 200 rps x 50 ms = 10 in flight
        assert!(!rung_passes(&backed_up, 50.0, 1.0), "growing backlog");
        backed_up.backlog_at_end = 10;
        assert!(rung_passes(&backed_up, 50.0, 1.0));

        let mut unanswered = phase(200.0, &fast);
        unanswered.tally.attempted += 4;
        unanswered.unanswered = 4;
        assert!(
            !rung_passes(&unanswered, 50.0, 1.0),
            "replies still missing after the settle wait"
        );

        assert!(
            !rung_passes(&phase(200.0, &fast[..150]), 50.0, 1.0),
            "too few samples"
        );
    }

    #[test]
    fn the_crossing_interpolates_between_rungs() {
        // 30 ms at 120 rps, 80 ms at 140 rps: 50 ms is 2/5 of the way.
        assert!(
            (crossing_rate((120.0, 30.0), Some((140.0, Some(80.0))), 50.0) - 128.0).abs() < 1e-9
        );
        assert_eq!(
            crossing_rate((120.0, 30.0), Some((140.0, Some(f64::INFINITY))), 50.0),
            120.0
        );
        assert_eq!(
            crossing_rate((120.0, 30.0), Some((140.0, None)), 50.0),
            120.0
        );
        assert_eq!(
            crossing_rate((120.0, 30.0), Some((140.0, Some(45.0))), 50.0),
            120.0
        );
        assert_eq!(
            crossing_rate((400.0, 30.0), None, 50.0),
            400.0,
            "the top rung passed"
        );
    }

    #[test]
    fn the_ladder_stops_at_the_first_rung_that_fails_twice() {
        let rates = [100.0, 150.0, 200.0, 250.0];
        let mut tried = Vec::new();
        let best = climb(&rates, |r| {
            tried.push(r);
            r != 200.0
        });
        assert_eq!(best, Some(1));
        assert_eq!(
            tried,
            vec![100.0, 150.0, 200.0, 200.0],
            "250 is never tried"
        );

        // A rung that fails once and then passes does not stop the climb.
        let mut flaky = vec![true, false, true, true];
        let best = climb(&rates, |_| flaky.pop().unwrap_or(false));
        assert_eq!(best, Some(2));

        assert_eq!(climb(&rates, |_| false), None);
        assert_eq!(climb(&rates, |_| true), Some(3));
    }
}
