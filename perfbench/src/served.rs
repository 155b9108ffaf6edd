//! `served-smallbank`: SmallBank with a small hot set sent open-loop over
//! loopback TCP to `Server` → `ClientSession` → `Pipeline` (one replica,
//! three Raft nodes, 2 ms batch window, batch cap 32). One connection
//! sends at a fixed base rate, then climbs a rate ladder until a rung
//! misses the latency limit.

use crate::layers::{self, timed, SetupTimes};
use crate::loadgen::{self, Driver, Phase};
use crate::stats::{Tail, Tally};
use crate::trace::{covered_ns, Tracer};
use crate::{Opts, Outcome};
use prognosticator::core::{baselines, Catalog, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{DeterministicRng, SmallBankConfig, SmallBankWorkload};
use prognosticator::{
    ClientConfig, ClientSession, Pipeline, PipelineConfig, Server, ServerConfig, ServerReport,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SMALLBANK: SmallBankConfig = SmallBankConfig {
    customers: 32,
    hotspot_pct: 25,
    hotspot_size: 4,
};
/// Offered rate of the base phase, inside the capacity of one connection
/// (about 150 rps on two CPUs).
const BASE_RPS: f64 = 100.0;
/// Ladder rungs above the base rate, climbed until one misses the limit.
const LADDER_RPS: [f64; 14] = [
    110.0, 120.0, 130.0, 140.0, 150.0, 160.0, 170.0, 180.0, 190.0, 200.0, 250.0, 300.0, 350.0,
    400.0,
];
/// A rung passes when its p95 latency, with every failed request
/// counted as missing, stays within this limit...
pub const LIMIT_MS: f64 = 50.0;
/// ...fewer than this share of its requests fail, and no backlog grows.
const MAX_FAILED_PCT: f64 = 1.0;
/// Every rung keeps at least this many requests, so its p95 has ten
/// samples beyond it.
const MIN_RUNG_REQUESTS: f64 = 250.0;
/// How long a phase waits for its last replies before the next starts.
const SETTLE: Duration = Duration::from_secs(3);
/// The server engine's poll interval (`ServerConfig::default`), which the
/// in-process session leg reproduces.
const POLL: Duration = Duration::from_millis(2);

struct Setup {
    catalog: Arc<Catalog>,
    populate: Arc<dyn Fn(&EpochStore) + Send + Sync>,
    workload: Arc<SmallBankWorkload>,
}

fn client_config() -> ClientConfig {
    ClientConfig {
        deadline: Duration::from_secs(2),
        ..ClientConfig::default()
    }
}

fn boot(seed: u64, times: &mut SetupTimes) -> Result<(Setup, Pipeline), String> {
    let mut catalog = Catalog::new();
    let (workload, register_s) = timed(|| {
        SmallBankWorkload::register(&mut catalog, SMALLBANK).expect("SmallBank registers")
    });
    times.register_s.push(register_s);
    let workload = Arc::new(workload);
    let catalog = Arc::new(catalog);
    let w = Arc::clone(&workload);
    let populate = times.timed_populate(move |s| w.populate(s));
    let config = PipelineConfig {
        batch_window: Duration::from_millis(2),
        batch_cap: 32,
        scheduler: baselines::mq_mf(2),
        seed: seed ^ 0x5E12,
        ..PipelineConfig::default()
    };
    let pipeline = Pipeline::new(Arc::clone(&catalog), config, 1, Arc::clone(&populate))
        .map_err(|e| format!("served pipeline: {e}"))?;
    Ok((
        Setup {
            catalog,
            populate,
            workload,
        },
        pipeline,
    ))
}

/// Boots the pipeline and binds the server: the whole set-up a served
/// run pays before its first request.
fn boot_server(seed: u64, times: &mut SetupTimes) -> Result<(Setup, Server), String> {
    let start = Instant::now();
    let (s, pipeline) = boot(seed, times)?;
    let config = ServerConfig {
        client: client_config(),
        ..ServerConfig::default()
    };
    let server = Server::start(pipeline, config).map_err(|e| format!("server bind: {e}"))?;
    times.total_s.push(start.elapsed().as_secs_f64());
    Ok((s, server))
}

fn requests(workload: &Arc<SmallBankWorkload>, seed: u64) -> impl FnMut() -> TxRequest {
    let workload = Arc::clone(workload);
    let mut rng = DeterministicRng::new(seed);
    move || workload.gen_tx(&mut rng)
}

/// Drains the server and checks that every request was answered exactly
/// once and that a fresh replica replaying the committed log reaches the
/// served replica's state. Returns the report and the pipeline.
fn finish(
    s: &Setup,
    server: Server,
    phases: &[Phase],
    out: &mut Outcome,
) -> Result<(ServerReport, Pipeline), String> {
    let (pipeline, report) = server.shutdown();
    let lost: u64 = phases.iter().map(|p| p.tally.lost).sum();
    out.check(lost == 0, || format!("{lost} requests were never answered"));
    out.check(!report.engine_panicked, || {
        "the server's engine panicked".into()
    });
    out.check(
        report.requests == report.responses + report.dropped_responses,
        || format!("server accounting does not balance: {report:?}"),
    );
    out.check(report.active_connections == 0, || {
        format!("leaked connections: {report:?}")
    });
    let pipeline = pipeline.ok_or("the server's engine panicked and took the pipeline with it")?;
    let replayed = layers::replay_digest(&s.catalog, &*s.populate, pipeline.live_records(0));
    let digests = pipeline.digests();
    out.check(digests.iter().all(|&d| d == replayed), || {
        format!("replayed digest {replayed:#x} differs from the served {digests:x?}")
    });
    Ok((report, pipeline))
}

/// A rung lasts `seconds` but never holds fewer than
/// [`MIN_RUNG_REQUESTS`] requests.
fn rung_length(rate: f64, seconds: f64) -> Duration {
    Duration::from_secs_f64(seconds.max(MIN_RUNG_REQUESTS / rate))
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    // Leader election dominates set-up and its length follows the seed,
    // so the extra set-ups elect under seeds of their own; the measured
    // one uses the run's seed.
    let mut round = 0;
    while times.want_more() {
        round += 1;
        drop(
            boot_server(layers::setup_seed(opts.seed, round), &mut times)?
                .1
                .shutdown(),
        );
    }
    let (s, server) = boot_server(opts.seed, &mut times)?;
    times.report(&mut out);
    out.set(
        "symexec.profile_size",
        layers::profile_size(&s.catalog) as f64,
        s.catalog.len(),
    );
    let pipeline = if opts.trace {
        traced(&s, server, opts, &mut out)?
    } else {
        untraced(&s, server, opts, &mut out)?
    };
    out.set(
        "storage.versions_per_key",
        layers::versions_per_key(pipeline.store(0)),
        1,
    );
    Ok(out)
}

fn untraced(s: &Setup, server: Server, opts: &Opts, out: &mut Outcome) -> Result<Pipeline, String> {
    let mut tracer = Tracer::new(false);
    let mut gen = requests(&s.workload, opts.seed);
    let mut driver =
        Driver::connect(server.addr(), opts.seed ^ 0x51075).map_err(|e| format!("connect: {e}"))?;
    let base_len = Duration::from_secs_f64(opts.seconds * 0.6);
    driver.run_phase(BASE_RPS, base_len, SETTLE, &mut gen, &mut tracer);
    // Read before the ladder, whose length depends on where it stops.
    out.set("peak_rss_mb", crate::stats::peak_rss_mb()?, 1);
    let base_meets = loadgen::rung_passes(&driver.phases[0], LIMIT_MS, MAX_FAILED_PCT);
    let rung_secs = opts.seconds / 8.0;
    let rungs: &[f64] = if base_meets { &LADDER_RPS } else { &[] };
    let best = loadgen::climb(rungs, |rate| {
        let i = driver.run_phase(
            rate,
            rung_length(rate, rung_secs),
            SETTLE,
            &mut gen,
            &mut tracer,
        );
        loadgen::rung_passes(&driver.phases[i], LIMIT_MS, MAX_FAILED_PCT)
    });
    let phases = driver.finish(Duration::from_secs(10), &mut tracer);
    let (_, pipeline) = finish(s, server, &phases, out)?;

    println!("{:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>8}  (limit p95 <= {LIMIT_MS} ms, failed < {MAX_FAILED_PCT}%)", "rate", "sent", "committed", "p50_ms", "p95_ms", "failed%", "backlog");
    for p in &phases {
        let t = Tail::of(&p.latencies_ms, "rung").ok();
        println!(
            "{:>8.0} {:>8} {:>9} {:>9} {:>9} {:>8.2} {:>8}",
            p.rate_rps,
            p.tally.attempted,
            p.tally.committed,
            t.map_or("-".into(), |t| format!("{:.2}", t.p50)),
            t.map_or("-".into(), |t| format!("{:.2}", t.tail)),
            p.tally.failed_pct(),
            p.backlog_at_end
        );
    }
    let base = &phases[0];
    let tail = |p: &Phase| loadgen::rung_tail_ms(p).unwrap_or(f64::INFINITY);
    // The base phase is the ladder's first rung. When even it misses the
    // limit, scale its rate down by how far its tail overshoots.
    let max_rate = if base_meets {
        // A retried rung's last try decides it; the base phase is rung 0.
        let last_try = |rate: f64| phases.iter().rev().find(|p| p.rate_rps == rate);
        let pass = best.map_or(base, |i| {
            last_try(LADDER_RPS[i]).expect("a passing rung ran")
        });
        let fail = best
            .map_or(LADDER_RPS.first(), |i| LADDER_RPS.get(i + 1))
            .and_then(|&r| last_try(r))
            .map(|p| (p.rate_rps, loadgen::rung_tail_ms(p)));
        loadgen::crossing_rate((pass.rate_rps, tail(pass)), fail, LIMIT_MS)
    } else {
        BASE_RPS * (LIMIT_MS / tail(base)).min(1.0)
    };
    println!(
        "max_rate_rps {max_rate:.2} ({}), failed_pct {:.3} at the base rate",
        if base_meets {
            "interpolated where the ladder crosses the limit"
        } else {
            "the base rate itself misses the limit"
        },
        base.tally.failed_pct()
    );
    out.attempted = base.tally.attempted;
    out.failed = base.tally.failed();
    out.set(
        "success_pct",
        base.tally.success_pct(),
        base.tally.attempted as usize,
    );
    let ladder_requests = phases.iter().map(|p| p.tally.attempted as usize).sum();
    out.set("throughput_tps", max_rate, ladder_requests);
    let lat = Tail::of(&base.latencies_ms, "request latency at the base rate")?;
    out.set("latency_p50_ms", lat.p50, lat.n);
    out.set("latency_p95_ms", lat.tail, lat.n);
    Ok(pipeline)
}

fn traced(s: &Setup, server: Server, opts: &Opts, out: &mut Outcome) -> Result<Pipeline, String> {
    let leg = Duration::from_secs_f64(opts.seconds / 4.0);
    let mut gen = requests(&s.workload, opts.seed);
    let mut tracer = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut driver =
        Driver::connect(server.addr(), opts.seed ^ 0x51075).map_err(|e| format!("connect: {e}"))?;
    driver.run_phase(BASE_RPS, leg, SETTLE, &mut gen, &mut off);
    driver.run_phase(BASE_RPS, leg, SETTLE, &mut gen, &mut tracer);
    let phases = driver.finish(Duration::from_secs(10), &mut tracer);
    let (report, pipeline) = finish(s, server, &phases, out)?;
    let (untraced, traced) = (&phases[0], &phases[1]);
    let p50 = |p: &Phase| crate::stats::median(&p.latencies_ms);
    out.set(
        "trace.overhead_pct",
        (p50(traced) / p50(untraced) - 1.0) * 100.0,
        traced.latencies_ms.len(),
    );

    let mut tally = Tally::default();
    phases.iter().for_each(|p| tally.add(&p.tally));
    out.attempted = tally.attempted;
    out.failed = tally.failed();
    out.set(
        "core.abort_pct",
        tally.abort_pct(),
        (tally.committed + tally.aborted) as usize,
    );
    let codec = tracer.durations_us("server.codec");
    out.set("server.codec_us", crate::stats::median(&codec), codec.len());
    out.set(
        "server.wire_rejects",
        report.wire_rejects as f64,
        report.requests as usize,
    );
    out.set(
        "server.evicted_clients",
        report.evicted_clients as f64,
        report.connections as usize,
    );
    out.set(
        "server.engine_unresolved",
        report.engine_unresolved as f64,
        report.requests as usize,
    );
    let lag = crate::stats::percentile(&traced.send_lag_ms, crate::stats::TAIL_PCT);
    out.check(lag.is_some(), || {
        "too few sends for the send-lag tail".into()
    });
    out.set(
        "loadgen.send_lag_p95_ms",
        lag.unwrap_or(0.0),
        traced.send_lag_ms.len(),
    );
    layers::pipeline_counters(&pipeline, out);
    layers::stage_metrics(out, pipeline.stage_totals(), pipeline.committed_batches());

    session_leg(opts.seed, leg, &mut tracer, out)?;
    pipeline_leg(opts.seed, leg, &mut tracer, out)?;
    layers::consensus_commit(opts.seed, 300, &mut tracer, out);
    out.spans = Some(tracer);
    Ok(pipeline)
}

/// Sleeps until `due`, or for at most one engine poll interval.
fn poll_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep((due - now).min(POLL));
    }
}

/// Drives a `ClientSession` in process at the base rate the way the
/// server's engine thread does: wait one poll for arrivals, submit the
/// ones that are due, settle while any are pending. Each request's span
/// runs from its intended arrival to its resolution; the share of that
/// time spent inside `submit` and `settle` calls is the trace coverage.
fn session_leg(
    seed: u64,
    length: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (s, pipeline) = boot(seed, &mut SetupTimes::default())?;
    let mut gen = requests(&s.workload, seed.wrapping_add(1));
    let mut session = ClientSession::new(pipeline, client_config());
    let count = (BASE_RPS * length.as_secs_f64()).round() as u64;
    let start = Instant::now();
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / BASE_RPS);
    let give_up = start + length + Duration::from_secs(10);
    let mut pending = Vec::new();
    let mut roots = Vec::new();
    let mut k = 0;
    while (k < count || !pending.is_empty()) && Instant::now() < give_up {
        if k < count {
            poll_until(due(k));
        }
        while k < count && due(k) <= Instant::now() {
            let root = tracer.begin_at("client.request", due(k), None, k);
            let req = gen();
            let id = tracer.time("client.submit", root, k, || session.submit(req));
            pending.push((id, root));
            roots.extend(root);
            k += 1;
        }
        if !pending.is_empty() {
            tracer.time("client.settle", None, 0, || session.settle());
            let now = Instant::now();
            pending.retain(|&(id, root)| {
                let open = session.outcomes()[id].is_none();
                if !open {
                    tracer.end_at(root, now);
                }
                open
            });
        }
    }
    out.check(pending.is_empty(), || {
        format!("{} session requests never resolved", pending.len())
    });
    out.set(
        "client.retries",
        session.retries() as f64,
        session.submitted(),
    );
    let submit = tracer.durations_us("client.submit");
    layers::set_tail(out, submit, "client.submit_us_p50", "client.submit_us_p95");
    let settle = tracer.durations_us("client.settle");
    layers::set_tail(out, settle, "client.settle_us_p50", "client.settle_us_p95");

    let spans = tracer.spans();
    let layer: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.name == "client.submit" || s.name == "client.settle")
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let (mut covered, mut total) = (0u64, 0u64);
    for root in roots {
        let r = &spans[root.index()];
        total += r.dur_ns();
        covered += covered_ns(r.start_ns, r.end_ns, layer.iter().copied());
    }
    out.set(
        "trace.coverage_pct",
        covered as f64 * 100.0 / total.max(1) as f64,
        session.submitted(),
    );
    drop(session);
    Ok(())
}

/// Drives a bare `Pipeline` at the base rate the way `ClientSession`
/// does: submit what is due, then flush and sync.
fn pipeline_leg(
    seed: u64,
    length: Duration,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let (s, mut pipeline) = boot(seed, &mut SetupTimes::default())?;
    let mut gen = requests(&s.workload, seed.wrapping_add(2));
    let count = (BASE_RPS * length.as_secs_f64()).round() as u64;
    let start = Instant::now();
    let due = |k: u64| start + Duration::from_secs_f64(k as f64 / BASE_RPS);
    let mut errors = 0u64;
    let mut k = 0;
    while k < count {
        poll_until(due(k));
        let mut submitted = false;
        while k < count && due(k) <= Instant::now() {
            let req = gen();
            errors += u64::from(
                tracer
                    .time("pipeline.submit", None, k, || pipeline.submit(req))
                    .is_err(),
            );
            submitted = true;
            k += 1;
        }
        if submitted {
            errors += u64::from(
                tracer
                    .time("pipeline.flush", None, k, || pipeline.flush())
                    .is_err(),
            );
            errors += u64::from(
                tracer
                    .time("pipeline.sync", None, k, || pipeline.sync())
                    .is_err(),
            );
        }
    }
    out.check(errors == 0, || {
        format!("{errors} pipeline calls failed at the base rate")
    });
    let mut submit = tracer.durations_us("pipeline.submit");
    submit.extend(tracer.durations_us("pipeline.flush"));
    layers::set_tail(
        out,
        submit,
        "pipeline.submit_us_p50",
        "pipeline.submit_us_p95",
    );
    let sync = tracer.durations_us("pipeline.sync");
    out.set("pipeline.sync_growth", layers::growth(&sync), sync.len());
    layers::set_tail(out, sync, "pipeline.sync_us_p50", "pipeline.sync_us_p95");
    pipeline.shutdown();
    Ok(())
}
