//! `pipeline-adaptive`: the Zipfian hot-skew adaptive workload through an
//! in-process pipeline with adaptation on. Closed loop: submit one batch,
//! flush, sync, repeat. The only workload that runs the `adapt` layer and
//! the specialization log records.

use crate::layers::{self, timed, SetupTimes};
use crate::stats::{Tail, Tally};
use crate::trace::Tracer;
use crate::{Opts, Outcome};
use prognosticator::core::{baselines, Catalog, Replica, SpecializationSet, TxOutcome};
use prognosticator::pipeline::BatchEvent;
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{AdaptiveConfig, AdaptiveWorkload, DeterministicRng};
use prognosticator::{Pipeline, PipelineConfig, PipelineError};
use prognosticator_adapt::{AdaptConfig, Specializer, StatsCollector};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transactions per batch.
const BATCH: usize = 48;
/// Engine workers per replica. One worker plus the queuer fills the two
/// CPUs this benchmark was sized on; two spinning workers contend with the
/// queuer for them and spread throughput across runs by about ±25%.
const WORKERS: usize = 1;
/// A run keeps going past its time budget until it has this many batches,
/// so the tail latency always has ten samples beyond it.
const MIN_BATCHES: usize = 300;

struct Setup {
    catalog: Arc<Catalog>,
    populate: Arc<dyn Fn(&EpochStore) + Send + Sync>,
    workload: Arc<AdaptiveWorkload>,
    pipeline: Pipeline,
}

fn config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        batch_cap: BATCH,
        scheduler: baselines::mq_mf(WORKERS),
        seed: seed ^ 0xADA,
        adaptation: Some(AdaptConfig::default()),
        ..PipelineConfig::default()
    }
}

fn setup(seed: u64, times: &mut SetupTimes) -> Result<Setup, String> {
    let start = Instant::now();
    let mut catalog = Catalog::new();
    let (workload, register_s) = timed(|| {
        AdaptiveWorkload::register(&mut catalog, AdaptiveConfig::default())
            .expect("adaptive registers")
    });
    times.register_s.push(register_s);
    let workload = Arc::new(workload);
    let catalog = Arc::new(catalog);
    let w = Arc::clone(&workload);
    let populate = times.timed_populate(move |s| w.populate(s));
    let pipeline = Pipeline::new(Arc::clone(&catalog), config(seed), 1, Arc::clone(&populate))
        .map_err(|e| format!("adaptive pipeline: {e}"))?;
    times.total_s.push(start.elapsed().as_secs_f64());
    Ok(Setup {
        catalog,
        populate,
        workload,
        pipeline,
    })
}

struct Pass {
    latencies_ms: Vec<f64>,
    /// Committed transactions per second of wall time.
    rate: f64,
    wall: Duration,
    tally: Tally,
    /// Pipeline calls that returned an error other than a rejection.
    errors: u64,
    /// Peak resident memory once the first `MIN_BATCHES` batches ran.
    rss_mb: f64,
}

fn pass(s: &mut Setup, seed: u64, seconds: f64, tracer: &mut Tracer) -> Pass {
    let mut rng = DeterministicRng::new(seed);
    let budget = Duration::from_secs_f64(seconds);
    let mut latencies_ms = Vec::new();
    let (mut rejected, mut errors) = (0u64, 0u64);
    let mut attempted = 0u64;
    let mut rss_mb = 0.0;
    let start = Instant::now();
    while start.elapsed() < budget || latencies_ms.len() < MIN_BATCHES {
        let batch = s.workload.gen_batch(&mut rng, BATCH);
        let i = latencies_ms.len() as u64;
        let t = Instant::now();
        let root = tracer.begin_at("batch", t, None, i);
        for tx in batch {
            attempted += 1;
            let r = tracer.time("pipeline.submit", root, i, || s.pipeline.submit(tx));
            rejected += u64::from(matches!(r, Err(PipelineError::Rejected { .. })));
            errors +=
                u64::from(matches!(r, Err(ref e) if !matches!(e, PipelineError::Rejected { .. })));
        }
        let flushed = tracer.time("pipeline.flush", root, i, || s.pipeline.flush());
        let synced = tracer.time("pipeline.sync", root, i, || s.pipeline.sync());
        errors += u64::from(flushed.is_err() || synced.is_err());
        let done = Instant::now();
        tracer.end_at(root, done);
        latencies_ms.push((done - t).as_secs_f64() * 1e3);
        if latencies_ms.len() == MIN_BATCHES {
            rss_mb = crate::stats::peak_rss_mb().unwrap_or(f64::NAN);
        }
    }
    let wall = start.elapsed();
    let mut tally = Tally {
        attempted,
        rejected,
        ..Tally::default()
    };
    for outcome in s.pipeline.outcome_journal().iter().flatten() {
        match outcome {
            TxOutcome::Committed => tally.committed += 1,
            TxOutcome::Aborted { .. } => tally.aborted += 1,
            TxOutcome::CarriedOver => {}
        }
    }
    for event in s.pipeline.batch_events() {
        if let BatchEvent::Quarantined { len } = event {
            tally.quarantined += *len as u64;
        }
    }
    let decided = tally.committed + tally.aborted + tally.quarantined + tally.rejected;
    tally.lost = attempted.saturating_sub(decided);
    Pass {
        latencies_ms,
        rate: tally.committed as f64 / wall.as_secs_f64(),
        wall,
        tally,
        errors,
        rss_mb,
    }
}

/// Nothing lost, nothing quarantined, and a fresh replica replaying the
/// committed records (batches and specialization swaps) reaches the
/// fleet's digest.
fn check(s: &Setup, p: &Pass, out: &mut Outcome) {
    out.check(p.tally.failed() == 0, || {
        format!("adaptive pass failed requests: {:?}", p.tally)
    });
    out.check(p.errors == 0, || {
        format!("{} pipeline calls failed", p.errors)
    });
    let replayed = layers::replay_digest(&s.catalog, &*s.populate, s.pipeline.live_records(0));
    let digests = s.pipeline.digests();
    out.check(digests.iter().all(|&d| d == replayed), || {
        format!("replayed digest {replayed:#x} differs from the pipeline's {digests:x?}")
    });
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = SetupTimes::default();
    // As on the served path: extra set-ups elect under seeds of their own.
    let mut round = 0;
    while times.want_more() {
        round += 1;
        drop(setup(layers::setup_seed(opts.seed, round), &mut times)?);
    }
    let mut s = setup(opts.seed, &mut times)?;
    times.report(&mut out);
    out.set(
        "symexec.profile_size",
        layers::profile_size(&s.catalog) as f64,
        s.catalog.len(),
    );

    let mut off = Tracer::new(false);
    let p = if opts.trace {
        let untraced = pass(&mut s, opts.seed, opts.seconds / 2.0, &mut off);
        check(&s, &untraced, &mut out);
        drop(s);
        s = setup(opts.seed, &mut SetupTimes::default())?;
        let mut tracer = Tracer::new(true);
        let traced = pass(&mut s, opts.seed, opts.seconds / 2.0, &mut tracer);
        out.set(
            "trace.overhead_pct",
            (untraced.rate / traced.rate - 1.0) * 100.0,
            2,
        );
        layer_metrics(&s, &traced, &mut tracer, opts.seed, &mut out);
        out.spans = Some(tracer);
        traced
    } else {
        pass(&mut s, opts.seed, opts.seconds, &mut off)
    };
    out.set("peak_rss_mb", p.rss_mb, 1);
    check(&s, &p, &mut out);

    out.attempted = p.tally.attempted;
    out.failed = p.tally.failed();
    out.set(
        "success_pct",
        p.tally.success_pct(),
        p.tally.attempted as usize,
    );
    out.set("throughput_tps", p.rate, p.tally.committed as usize);
    let lat = Tail::of(&p.latencies_ms, "batch latency")?;
    out.set("latency_p50_ms", lat.p50, lat.n);
    out.set("latency_p95_ms", lat.tail, lat.n);
    out.set(
        "core.abort_pct",
        p.tally.abort_pct(),
        (p.tally.committed + p.tally.aborted) as usize,
    );
    out.set(
        "storage.versions_per_key",
        layers::versions_per_key(s.pipeline.store(0)),
        1,
    );
    println!(
        "{} batches of {BATCH} in {:.2}s: {} committed, {} aborted, specialization version {}",
        p.latencies_ms.len(),
        p.wall.as_secs_f64(),
        p.tally.committed,
        p.tally.aborted,
        s.pipeline.active_specializations().version
    );
    Ok(out)
}

/// Pipeline, consensus and adaptation layer metrics of the traced pass.
fn layer_metrics(s: &Setup, p: &Pass, tracer: &mut Tracer, seed: u64, out: &mut Outcome) {
    let pl = &s.pipeline;
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
    layers::pipeline_counters(pl, out);
    let stage = pl.stage_totals();
    layers::stage_metrics(out, stage, pl.committed_batches());
    let busy = stage.busy_ns() as f64 / p.wall.as_nanos().max(1) as f64;
    out.set("core.busy_share", busy, pl.committed_batches());

    if let Some(c) = pl.adapt_collector() {
        let rows = c.snapshot();
        let predicted: u64 = rows.iter().map(|r| r.predicted_keys).sum();
        let observed: u64 = rows.iter().map(|r| r.observed_keys).sum();
        out.set(
            "adapt.false_conflicts",
            c.false_conflicts() as f64,
            rows.len(),
        );
        out.set(
            "adapt.over_approx_ratio",
            predicted as f64 / observed.max(1) as f64,
            rows.len(),
        );
        out.set(
            "adapt.spec_cache_hits",
            rows.iter().map(|r| r.cache_hits).sum::<u64>() as f64,
            rows.len(),
        );
        out.set(
            "adapt.spec_narrowed",
            rows.iter().map(|r| r.narrowed_dropped).sum::<u64>() as f64,
            rows.len(),
        );
    }
    out.set(
        "adapt.specializations",
        pl.active_specializations().version as f64,
        1,
    );

    // Observation cost: replay the committed records through a replica
    // whose sink times each call into a fresh collector.
    let collector = Arc::new(StatsCollector::new(AdaptConfig::default()));
    let sink = Arc::new(layers::TimingSink {
        inner: Arc::clone(&collector),
        ns: AtomicU64::new(0),
        calls: AtomicU64::new(0),
    });
    let store = Arc::new(EpochStore::new());
    (s.populate)(&store);
    let mut replica = Replica::with_store(baselines::mq_mf(WORKERS), Arc::clone(&s.catalog), store);
    replica.engine().set_adapt_sink(Some(
        Arc::clone(&sink) as Arc<dyn prognosticator::core::AdaptSink>
    ));
    let outcomes = replica.execute_records(pl.live_records(0), 1);
    replica.shutdown();
    // Validation retries and scheduling rounds of the same batches.
    let committed: usize = outcomes.iter().map(|o| o.committed).sum();
    let aborts: usize = outcomes.iter().map(|o| o.aborts).sum();
    let rounds: u64 = outcomes.iter().map(|o| u64::from(o.rounds)).sum();
    out.set(
        "core.retries_per_commit",
        aborts as f64 / committed.max(1) as f64,
        committed,
    );
    out.set(
        "core.rounds_per_batch",
        rounds as f64 / outcomes.len().max(1) as f64,
        outcomes.len(),
    );
    let calls = sink.calls.load(Ordering::Relaxed);
    out.set(
        "adapt.observe_ns_per_tx",
        sink.ns.load(Ordering::Relaxed) as f64 / calls.max(1) as f64,
        calls as usize,
    );

    let specializer = Specializer::new(AdaptConfig::default());
    let empty = SpecializationSet::empty();
    for i in 0..50 {
        tracer.time("adapt.propose", None, i, || {
            specializer.propose(&collector, &empty)
        });
    }
    let propose = tracer.durations_us("adapt.propose");
    out.set(
        "adapt.propose_us",
        crate::stats::median(&propose),
        propose.len(),
    );

    layers::consensus_commit(seed, 300, tracer, out);
}
