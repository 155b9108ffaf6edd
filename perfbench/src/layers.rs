//! Measurements of single layers shared by several workloads.

use crate::stats::{median, Tail};
use crate::trace::Tracer;
use crate::Outcome;
use prognosticator::consensus::{NetConfig, RaftCluster, RaftTiming};
use prognosticator::core::{
    baselines, AdaptSink, Catalog, LogRecord, Replica, StageTimings, TxObservation,
};
use prognosticator::storage::EpochStore;
use prognosticator_adapt::StatsCollector;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-up is repeated at least this many times per run and its median
/// reported; cheap set-ups repeat until [`SETUP_BUDGET_S`] is spent, up to
/// [`MAX_SETUPS`] times, so their median rests on more samples.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 1.0;

/// The seed of an extra set-up round: distinct per round and per run
/// seed, and never the run's own seed.
pub fn setup_seed(seed: u64, round: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Times of the set-up steps the benchmark can see from outside.
#[derive(Default)]
pub struct SetupTimes {
    pub total_s: Vec<f64>,
    pub register_s: Vec<f64>,
    /// Filled from inside the populate callbacks handed to the library.
    pub populate_s: Arc<Mutex<Vec<f64>>>,
}

impl SetupTimes {
    /// Whether the run should set up once more before measuring.
    pub fn want_more(&self) -> bool {
        let n = self.total_s.len();
        n < MIN_SETUPS || (n < MAX_SETUPS && self.total_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    }

    /// Wraps a populate function so each call is timed.
    pub fn timed_populate(
        &self,
        populate: impl Fn(&EpochStore) + Send + Sync + 'static,
    ) -> Arc<dyn Fn(&EpochStore) + Send + Sync> {
        let times = Arc::clone(&self.populate_s);
        Arc::new(move |store: &EpochStore| {
            let ((), s) = timed(|| populate(store));
            times.lock().expect("populate timer poisoned").push(s);
        })
    }

    pub fn report(&self, out: &mut Outcome) {
        let populate = self
            .populate_s
            .lock()
            .expect("populate timer poisoned")
            .clone();
        out.set("setup_s", median(&self.total_s), self.total_s.len());
        out.set(
            "symexec.register_s",
            median(&self.register_s),
            self.register_s.len(),
        );
        out.set("storage.populate_s", median(&populate), populate.len());
    }
}

/// Summed approximate size of every symbolic profile in the catalog.
pub fn profile_size(catalog: &Catalog) -> usize {
    catalog
        .iter()
        .filter_map(|(_, e)| e.profile())
        .map(|p| p.approx_size())
        .sum()
}

pub fn versions_per_key(store: &EpochStore) -> f64 {
    store.version_count() as f64 / store.key_count().max(1) as f64
}

/// Commit latency of single proposals on a bare three-node cluster with
/// the pipeline's default network and timing.
pub fn consensus_commit(seed: u64, proposals: u64, tracer: &mut Tracer, out: &mut Outcome) {
    let cluster: RaftCluster<u64> =
        RaftCluster::new(3, NetConfig::default(), RaftTiming::default(), seed);
    let elected = cluster.wait_for_leader(Duration::from_secs(10)).is_some();
    out.check(elected, || {
        "bare consensus cluster elected no leader".into()
    });
    if !elected {
        return;
    }
    let mut failed = 0u64;
    for i in 0..proposals {
        let id = cluster.begin_proposal();
        let ok = tracer.time("consensus.commit", None, i, || {
            cluster.propose_id_until_committed(id, &i, Duration::from_secs(10))
        });
        failed += u64::from(!ok);
    }
    out.check(failed == 0, || {
        format!("{failed} bare consensus proposals did not commit")
    });
    set_tail(
        out,
        tracer.durations_us("consensus.commit"),
        "consensus.commit_us_p50",
        "consensus.commit_us_p95",
    );
}

/// Sets a p50/tail metric pair, or records why the tail is missing.
pub fn set_tail(out: &mut Outcome, samples: Vec<f64>, p50: &'static str, tail: &'static str) {
    match Tail::of(&samples, p50) {
        Ok(t) => {
            out.set(p50, t.p50, t.n);
            out.set(tail, t.tail, t.n);
        }
        Err(e) => out.violations.push(e),
    }
}

/// Replays `records` through a fresh one-worker replica and returns its
/// state digest.
pub fn replay_digest(
    catalog: &Arc<Catalog>,
    populate: &dyn Fn(&EpochStore),
    records: Vec<LogRecord>,
) -> u64 {
    let store = Arc::new(EpochStore::new());
    populate(&store);
    let mut replica = Replica::with_store(baselines::mq_mf(1), Arc::clone(catalog), store);
    replica.execute_records(records, 1);
    let digest = replica.state_digest();
    replica.shutdown();
    digest
}

/// Per-batch means of the engine's stage timers and lock counters.
pub fn stage_metrics(out: &mut Outcome, stage: &StageTimings, batches: usize) {
    let per_batch = |v: u64| v as f64 / batches.max(1) as f64;
    out.set(
        "core.predict_us",
        per_batch(stage.predict_ns) / 1e3,
        batches,
    );
    out.set("core.queue_us", per_batch(stage.queue_ns) / 1e3, batches);
    out.set(
        "core.execute_us",
        per_batch(stage.execute_ns) / 1e3,
        batches,
    );
    out.set("core.commit_us", per_batch(stage.commit_ns) / 1e3, batches);
    out.set("core.apply_us", per_batch(stage.apply_ns) / 1e3, batches);
    out.set(
        "core.overlap_us",
        per_batch(stage.overlap_ns) / 1e3,
        batches,
    );
    out.set("core.lock_waits", per_batch(stage.lock_waits), batches);
    out.set(
        "core.lock_contended_keys",
        per_batch(stage.lock_contended_keys),
        batches,
    );
    out.set(
        "core.lock_fresh_allocs",
        per_batch(stage.lock_fresh_allocs),
        batches,
    );
}

/// An [`AdaptSink`] that times each observation handed to the collector.
pub struct TimingSink {
    pub inner: Arc<StatsCollector>,
    pub ns: AtomicU64,
    pub calls: AtomicU64,
}

impl AdaptSink for TimingSink {
    fn observe_tx(&self, obs: TxObservation) {
        let t = Instant::now();
        self.inner.observe_tx(obs);
        self.ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    fn observe_batch(&self, batch_index: u64) {
        self.inner.observe_batch(batch_index);
    }
}

/// Mean of the last tenth of `samples` over the mean of the first tenth:
/// how much slower a call got as the run went on.
pub fn growth(samples: &[f64]) -> f64 {
    let tenth = samples.len() / 10;
    if tenth == 0 {
        return 0.0;
    }
    let first = crate::stats::mean(&samples[..tenth]);
    let last = crate::stats::mean(&samples[samples.len() - tenth..]);
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

/// Counters the pipeline and its consensus cluster expose at the end of
/// a run: shedding, retries, and what its journals and log retain.
pub fn pipeline_counters(pl: &prognosticator::Pipeline, out: &mut Outcome) {
    let entries = pl.committed_batches();
    let txs: usize = pl
        .batch_events()
        .iter()
        .map(|e| match e {
            prognosticator::BatchEvent::Committed { len } => *len,
            prognosticator::BatchEvent::Quarantined { .. } => 0,
        })
        .sum();
    out.set(
        "pipeline.txs_per_entry",
        txs as f64 / entries.max(1) as f64,
        entries,
    );
    out.set("pipeline.shed_requests", pl.shed_requests() as f64, 1);
    out.set(
        "pipeline.consensus_retries",
        pl.consensus_retries() as f64,
        entries,
    );
    out.set(
        "pipeline.degraded_batches",
        pl.degraded_batches() as f64,
        entries,
    );
    out.set("pipeline.batch_events", pl.batch_events().len() as f64, 1);
    out.set("pipeline.journal_len", pl.outcome_journal().len() as f64, 1);
    out.set("pipeline.voided_ids", pl.voided_ids().len() as f64, 1);
    out.set(
        "consensus.log_retained",
        pl.cluster().committed(0).len() as f64,
        1,
    );
    out.set(
        "consensus.leader_changes",
        pl.cluster().leadership_claims().len() as f64,
        1,
    );
}

#[cfg(test)]
mod tests {
    use super::growth;

    #[test]
    fn growth_compares_the_last_tenth_with_the_first() {
        let samples: Vec<f64> = (0..20).map(|i| if i < 10 { 1.0 } else { 3.0 }).collect();
        assert_eq!(growth(&samples), 3.0);
        assert_eq!(growth(&[1.0; 9]), 0.0, "fewer than ten samples");
    }
}
