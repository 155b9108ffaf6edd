//! Cross-system differential runs: Engine (several worker counts), the
//! discrete-event simulator, and the SEQ/NODO serial baselines must agree
//! on every workload — and when they don't, the harness must shrink the
//! stream to a minimal reproducer and write it as JSON.

use prognosticator_core::{FaultPlan, TxRequest};
use testkit::differential::{reproducer_json, shrink_stream};
use testkit::{run_differential, DifferentialConfig, TestWorkload, WorkloadKind};

fn artifact_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("testkit-artifacts")
}

#[test]
fn smallbank_systems_agree() {
    let mut config = DifferentialConfig::standard(WorkloadKind::SmallBank, 1);
    config.artifact_dir = artifact_dir();
    let report = run_differential(&config).unwrap_or_else(|m| panic!("{}", m.description));
    assert!(report.systems >= 7, "compared {} systems", report.systems);
    assert_eq!(report.committed, report.transactions, "quiet plan commits everything");
}

#[test]
fn tpcc_systems_agree() {
    let mut config = DifferentialConfig::standard(WorkloadKind::Tpcc, 2);
    config.artifact_dir = artifact_dir();
    let report = run_differential(&config).unwrap_or_else(|m| panic!("{}", m.description));
    assert!(report.systems >= 7);
    assert!(report.committed > 0);
}

#[test]
fn rubis_systems_agree() {
    let mut config = DifferentialConfig::standard(WorkloadKind::Rubis, 3);
    config.artifact_dir = artifact_dir();
    let report = run_differential(&config).unwrap_or_else(|m| panic!("{}", m.description));
    assert!(report.systems >= 7);
    assert!(report.committed > 0);
}

#[test]
fn adversarial_pack_systems_agree() {
    // Hot-key storms and chain pivots maximize per-key queue depth — the
    // worst case for the lock table's release chains.
    for (i, workload) in WorkloadKind::ADVERSARIAL.into_iter().enumerate() {
        let seed = 0xAD_10 + i as u64;
        let mut config = DifferentialConfig::standard(workload, seed);
        config.artifact_dir = artifact_dir();
        let report = run_differential(&config).unwrap_or_else(|m| {
            panic!(
                "{} seed {seed:#x}: {} (reproducer: {})",
                workload.name(),
                m.description,
                m.reproducer.display()
            )
        });
        assert!(report.systems >= 7, "compared {} systems", report.systems);
        assert!(report.committed > 0, "{} seed {seed:#x} committed nothing", workload.name());
    }
}

#[test]
fn faulted_runs_agree_across_engine_and_simulator() {
    let mut config = DifferentialConfig::standard(WorkloadKind::SmallBank, 4);
    config.artifact_dir = artifact_dir();
    config.fault_plan = Some(FaultPlan::quiet(99).with_worker_panics(120));
    let report = run_differential(&config).unwrap_or_else(|m| panic!("{}", m.description));
    // SEQ legs are skipped under faults; engine sweep + simulator remain.
    assert_eq!(report.systems, 4);
    assert!(report.aborted > 0, "the fault plan should have injected aborts");
}

#[test]
fn shrinker_reduces_to_minimal_failing_stream() {
    // Synthetic failure predicate: the stream fails while it contains a
    // request whose first input is the poison value. Shrinking must strip
    // everything else.
    let workload = TestWorkload::new(WorkloadKind::SmallBank);
    let mut stream = workload.gen_stream(5, 4, 10);
    let poison = stream[2][7].clone();
    let is_poison = |tx: &TxRequest| tx == &poison;

    let mut checks = 0usize;
    let shrunk = shrink_stream(stream.clone(), &mut |candidate| {
        checks += 1;
        candidate.iter().flatten().any(is_poison)
    });
    assert_eq!(shrunk.iter().flatten().count(), 1, "1-minimal reproducer");
    assert!(is_poison(&shrunk[0][0]));
    assert!(checks > 0);

    // A failure that needs a *pair* of requests keeps both.
    let second = stream[0][1].clone();
    stream[3].push(poison.clone());
    let shrunk = shrink_stream(stream, &mut |candidate| {
        let txs: Vec<_> = candidate.iter().flatten().collect();
        txs.iter().any(|t| is_poison(t)) && txs.iter().any(|t| **t == second)
    });
    let txs: Vec<_> = shrunk.iter().flatten().collect();
    assert_eq!(txs.len(), 2, "both halves of the pair survive: {txs:?}");
}

#[test]
fn reproducer_json_round_trips_program_names() {
    let workload = TestWorkload::new(WorkloadKind::Rubis);
    let config = DifferentialConfig::standard(WorkloadKind::Rubis, 6);
    let stream = workload.gen_stream(6, 1, 4);
    let json = reproducer_json(&config, workload.catalog(), "synthetic mismatch", &stream);
    let rendered = json.render();
    assert!(rendered.contains("\"workload\": \"rubis\""));
    assert!(rendered.contains("\"mismatch\": \"synthetic mismatch\""));
    assert!(rendered.contains("\"inputs\""));
    for tx in &stream[0] {
        let name = workload.catalog().entry(tx.program).program().name();
        assert!(rendered.contains(name), "reproducer names program `{name}`");
    }
}
