//! Isolation suite: the polygraph-style serializability checker run
//! over real engine traces.
//!
//! Four claims are exercised:
//!
//! 1. **Certification** — every adversarial scenario (Zipfian hot-key
//!    storms, snapshot scans under write storms, YCSB-style CRUD,
//!    indirect-key pivot chains) plus the three standard benchmarks
//!    produces a serializable trace at every worker count and seed.
//! 2. **Rejection** — the mutation harness forges known violations
//!    (swapped commits, stale epoch reads, dropped lock releases, future
//!    reads) into healthy traces and the checker rejects every one with a
//!    minimal (≤ 5 edge) cycle witness.
//! 3. **Determinism** — the canonical trace, `TxRead`/`TxWrite`
//!    provenance included, is byte-identical across {1, 2, 4} workers.
//! 4. **Read-only observation** — recording provenance never changes
//!    outcomes or digests.
//!
//! The sweep is tunable for CI soaks: `ISOLATION_SEEDS=5` widens to 5
//! stream seeds per scenario (default 3).

use std::path::PathBuf;
use std::sync::Mutex;
use testkit::{
    check_trace, explore_schedules, inject_violation, run_chaos, run_crash_recovery,
    run_differential, run_isolation, trace_stream, ChaosOracleConfig, DifferentialConfig, EdgeKind,
    IsolationConfig, Mutation, RecoveryFuzzConfig, ScheduleSweep, TestWorkload, Trace, Verdict,
    WorkloadKind,
};

fn seeds() -> Vec<u64> {
    let n: u64 = std::env::var("ISOLATION_SEEDS").ok().and_then(|v| v.parse().ok()).unwrap_or(3);
    (0..n).map(|i| 0x150 + 37 * i).collect()
}

fn artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("isolation-artifacts")
}

/// Serializes tests that flip the process-global recording default.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Restores recording-disabled even if the test body panics.
struct DisableOnDrop;

impl Drop for DisableOnDrop {
    fn drop(&mut self) {
        prognosticator_obs::set_default_enabled(false);
    }
}

#[test]
fn adversarial_scenarios_certify_serializable_across_workers() {
    for kind in WorkloadKind::ADVERSARIAL {
        for seed in seeds() {
            let mut config = IsolationConfig::standard(kind, seed);
            config.artifact_dir = artifact_dir();
            let report = run_isolation(&config)
                .unwrap_or_else(|v| panic!("{kind:?} seed {seed}: {}", v.description));
            assert_eq!(report.runs, 3, "{kind:?}: one checked trace per worker count");
            assert!(report.transactions > 0, "{kind:?}: graph must not be empty");
            assert!(
                report.edges > 0,
                "{kind:?}: a contended scenario must produce dependencies"
            );
        }
    }
}

#[test]
fn standard_benchmarks_certify_serializable() {
    for kind in WorkloadKind::ALL {
        let mut config = IsolationConfig::standard(kind, 0x5EED);
        config.artifact_dir = artifact_dir();
        let report = run_isolation(&config)
            .unwrap_or_else(|v| panic!("{kind:?}: {}", v.description));
        assert_eq!(report.runs, 3);
        assert!(report.transactions > 0);
    }
}

/// The other oracles call the checker opportunistically whenever
/// recording is on, so one recorded pass of each suite shape proves the
/// schedule, differential, crash-recovery, and chaos traces all
/// certify.
#[test]
fn suite_oracles_run_their_traces_through_the_checker() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    prognosticator_obs::set_default_enabled(true);

    let sweep = ScheduleSweep {
        batches: 2,
        batch_size: 16,
        policy_seeds: vec![11, 42],
        worker_counts: vec![1, 2],
        ..ScheduleSweep::standard(WorkloadKind::HotSkew, 0x15A)
    };
    let schedule = explore_schedules(&sweep);
    assert!(schedule.explored > 1);

    let config = DifferentialConfig {
        batches: 2,
        batch_size: 16,
        worker_counts: vec![1, 2],
        artifact_dir: artifact_dir(),
        ..DifferentialConfig::standard(WorkloadKind::ChainPivot, 0x15B)
    };
    run_differential(&config).expect("differential passes with isolation hooks armed");

    let mut recovery = RecoveryFuzzConfig::standard(WorkloadKind::SmallBank, 0x15C);
    recovery.batches = 4;
    recovery.batch_size = 12;
    recovery.worker_counts = vec![2];
    recovery.artifact_dir = artifact_dir();
    recovery.wal_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("isolation-wal");
    run_crash_recovery(&recovery).expect("crash recovery passes with isolation hooks armed");

    let mut chaos = ChaosOracleConfig::standard("leader_churn", 0x15D);
    chaos.rounds = 6;
    chaos.round_size = 4;
    chaos.worker_counts = vec![1, 2];
    chaos.artifact_dir = artifact_dir();
    run_chaos(&chaos).unwrap_or_else(|v| panic!("chaos with isolation hooks armed: {v}"));
}

#[test]
fn mutation_harness_rejects_every_forged_violation() {
    let workload = TestWorkload::new(WorkloadKind::HotSkew);
    let stream = workload.gen_stream(0xC0DE, 3, 24);
    let trace = trace_stream(&workload, &stream, 2);
    assert_eq!(trace.dropped, 0, "trace must be complete");
    assert!(
        check_trace(&trace.events).is_serializable(),
        "the healthy trace must certify before mutation"
    );

    for mutation in Mutation::ALL {
        let mut injected = 0;
        for seed in 0..5u64 {
            let Some(mutated) = inject_violation(&trace.events, mutation, seed) else {
                continue;
            };
            injected += 1;
            match check_trace(&mutated) {
                Verdict::Violation(witness) => {
                    assert!(
                        witness.edges.len() <= 5,
                        "{}: witness must be minimal, got {} edges: {}",
                        mutation.name(),
                        witness.edges.len(),
                        witness.description
                    );
                    assert!(!witness.description.is_empty());
                }
                Verdict::Serializable { .. } => panic!(
                    "{} (seed {seed}): checker accepted a corrupted history",
                    mutation.name()
                ),
            }
        }
        assert!(injected > 0, "{}: no injection site in a hot-skew trace", mutation.name());
    }
}

/// Satellite: a future read — writes escaping the batch barrier so an
/// earlier batch reads a later batch's version — forged into a real
/// engine trace must be rejected with a minimal batch-order witness.
#[test]
fn future_read_is_rejected_with_minimal_witness() {
    let workload = TestWorkload::new(WorkloadKind::ChainPivot);
    let stream = workload.gen_stream(0x5A_BA, 3, 24);
    let trace = trace_stream(&workload, &stream, 2);
    assert_eq!(trace.dropped, 0, "trace must be complete");
    assert!(
        check_trace(&trace.events).is_serializable(),
        "the healthy trace must certify before mutation"
    );

    let mut injected = 0;
    for seed in 0..5u64 {
        let Some(mutated) = inject_violation(&trace.events, Mutation::FutureRead, seed) else {
            continue;
        };
        injected += 1;
        let Verdict::Violation(witness) = check_trace(&mutated) else {
            panic!("future read (seed {seed}) went undetected");
        };
        assert_eq!(
            witness.edges.len(),
            2,
            "witness must be the minimal back-edge pair: {}",
            witness.description
        );
        assert!(
            witness.edges[0].from.batch > witness.edges[0].to.batch,
            "the data edge must point into an earlier batch: {}",
            witness.description
        );
        assert_eq!(witness.edges[1].kind, EdgeKind::BatchOrder, "{}", witness.description);
    }
    assert!(injected > 0, "no injection site in a 3-batch chain-pivot trace");
}

/// Satellite: canonical dumps — `TxRead`/`TxWrite` provenance included —
/// are byte-identical across {1, 2, 4} workers. Rendering pins the
/// replica id so only event content is compared.
#[test]
fn canonical_dumps_identical_across_worker_counts() {
    let workload = TestWorkload::new(WorkloadKind::YcsbMix);
    let stream = workload.gen_stream(0xD0D0, 3, 24);
    let render = |trace: &Trace| -> String {
        trace
            .events
            .iter()
            .map(|e| e.to_json_line(0))
            .collect::<Vec<_>>()
            .join("\n")
    };

    let reference = trace_stream(&workload, &stream, 1);
    assert_eq!(reference.dropped, 0);
    let reference_dump = render(&reference);
    assert!(
        reference_dump.contains("\"type\":\"tx_read\""),
        "trace must carry read provenance"
    );
    assert!(
        reference_dump.contains("\"type\":\"tx_write\""),
        "trace must carry write provenance"
    );

    for workers in [2, 4] {
        let trace = trace_stream(&workload, &stream, workers);
        assert_eq!(trace.digest, reference.digest, "w={workers}: digests must agree");
        assert_eq!(trace.outcomes, reference.outcomes, "w={workers}: outcomes must agree");
        assert_eq!(
            render(&trace),
            reference_dump,
            "w={workers}: canonical dump bodies must be byte-identical"
        );
    }
}

/// Recording read/write provenance must never perturb execution: the
/// same stream with recording hot versus cold yields byte-identical
/// outcome vectors and digests.
#[test]
fn recording_provenance_never_changes_outcomes() {
    let _guard = lock();
    let _restore = DisableOnDrop;
    prognosticator_obs::set_default_enabled(false);

    let workload = TestWorkload::new(WorkloadKind::ScanStorm);
    let stream = workload.gen_stream(0xABBA, 3, 24);
    for workers in [1, 2, 4] {
        // Cold: no recorder attached at all (default disabled).
        let mut cold = prognosticator_core::Replica::with_store(
            prognosticator_core::baselines::mq_mf(workers),
            std::sync::Arc::clone(workload.catalog()),
            workload.fresh_store(),
        );
        assert!(cold.recorder().is_none(), "cold replica must record nothing");
        let cold_outcomes: Vec<_> =
            cold.execute_stream(stream.clone(), 1).into_iter().map(|o| o.outcomes).collect();
        let cold_digest = cold.state_digest();
        cold.shutdown();

        // Hot: full provenance recording.
        let hot = trace_stream(&workload, &stream, workers);
        assert!(hot.events.iter().any(|e| matches!(e, prognosticator_obs::Event::TxRead { .. })));
        assert_eq!(hot.outcomes, cold_outcomes, "w={workers}: outcomes must not depend on obs");
        assert_eq!(hot.digest, cold_digest, "w={workers}: digest must not depend on obs");
        assert!(check_trace(&hot.events).is_serializable());
    }
}
