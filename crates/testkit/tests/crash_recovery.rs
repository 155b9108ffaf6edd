//! Crash-recovery fuzz: for each seeded crash point, a WAL-backed replica
//! is killed mid-batch (with seeded torn-write / failed-fsync / partial-
//! snapshot disk faults armed), restarted from the durable prefix via
//! faults-quiet replay, and healed by re-executing the lost tail. The
//! recovered run must be byte-identical — outcome trace and store digest —
//! to a reference run that never crashed, across {1, 2, 4} workers.
//!
//! The sweep width is tunable: `RECOVERY_CRASH_POINTS=50 cargo test ...`
//! runs 50 seeded crash points per workload (default 20). On a mismatch
//! the harness writes a `.reproducer.json` artifact with the failing
//! coordinates.

use std::collections::HashSet;
use std::path::PathBuf;
use testkit::{crash_batch_for, run_crash_recovery, RecoveryFuzzConfig, WorkloadKind};

fn scratch(area: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(area)
}

fn crash_points() -> u64 {
    std::env::var("RECOVERY_CRASH_POINTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20)
}

/// Sweeps `crash_points()` seeds through one workload, panicking on the
/// first recovery-soundness violation, and returns the set of
/// (crash_batch, disk_fault) coordinates that were exercised.
fn sweep(workload: WorkloadKind, seed_base: u64) -> HashSet<(u64, Option<&'static str>)> {
    let mut covered = HashSet::new();
    for i in 0..crash_points() {
        let seed = seed_base + i;
        let mut config = RecoveryFuzzConfig::standard(workload, seed);
        config.artifact_dir = scratch("recovery-artifacts");
        config.wal_dir = scratch("recovery-wal");
        let report = run_crash_recovery(&config).unwrap_or_else(|m| {
            panic!("{} (reproducer: {})", m.description, m.reproducer.display())
        });
        assert_eq!(
            report.durable_batches + report.caught_up_batches,
            config.batches,
            "durable + caught-up must cover the stream exactly"
        );
        let fault = report.disk_fault.map(|f| match f {
            prognosticator_core::DiskFaultKind::TornFinalFrame => "torn",
            prognosticator_core::DiskFaultKind::FailedFsync => "fsync",
            prognosticator_core::DiskFaultKind::PartialSnapshot => "snapshot",
        });
        covered.insert((report.crash_batch, fault));
    }
    covered
}

#[test]
fn smallbank_recovers_from_seeded_crash_points() {
    let covered = sweep(WorkloadKind::SmallBank, 0x5B_000);
    assert!(covered.len() >= 3, "sweep should hit several distinct crash points: {covered:?}");
}

#[test]
fn tpcc_recovers_from_seeded_crash_points() {
    let covered = sweep(WorkloadKind::Tpcc, 0x7C_000);
    assert!(covered.len() >= 3, "sweep should hit several distinct crash points: {covered:?}");
}

#[test]
fn rubis_recovers_from_seeded_crash_points() {
    let covered = sweep(WorkloadKind::Rubis, 0x2B_000);
    assert!(covered.len() >= 3, "sweep should hit several distinct crash points: {covered:?}");
}

#[test]
fn sweep_exercises_torn_write_and_failed_fsync() {
    // The acceptance bar calls for torn-write and failed-fsync crashes
    // specifically; the per-seed fault kind is deterministic, so assert
    // the default sweep actually covers both (and the no-op
    // partial-snapshot arm at least once, which degenerates to a clean
    // crash because the harness never installs snapshots mid-run).
    let covered = sweep(WorkloadKind::SmallBank, 0x5B_000);
    let kinds: HashSet<_> = covered.iter().filter_map(|(_, f)| *f).collect();
    assert!(kinds.contains("torn"), "no torn-write crash in sweep: {covered:?}");
    assert!(kinds.contains("fsync"), "no failed-fsync crash in sweep: {covered:?}");
}

#[test]
fn crash_at_first_batch_recovers_from_empty_wal() {
    // Find a seed whose crash point is batch 0: nothing executed yet, so
    // recovery replays an empty (or single-entry) durable prefix and the
    // whole stream is re-executed live.
    let seed = (0..200)
        .map(|i| 0xF1257_u64 + i)
        .find(|&s| crash_batch_for(s, 6) == 0)
        .expect("some seed crashes at batch 0");
    let mut config = RecoveryFuzzConfig::standard(WorkloadKind::SmallBank, seed);
    config.artifact_dir = scratch("recovery-artifacts");
    config.wal_dir = scratch("recovery-wal");
    let report = run_crash_recovery(&config)
        .unwrap_or_else(|m| panic!("{}", m.description));
    assert_eq!(report.crash_batch, 0);
    assert!(report.caught_up_batches >= config.batches - 1);
}

#[test]
fn quiet_plan_without_disk_faults_recovers() {
    // No worker panics, no disk faults: the crash itself is the only
    // disturbance and the WAL holds exactly the executed prefix.
    let mut config = RecoveryFuzzConfig::standard(WorkloadKind::Tpcc, 0xC1EA7);
    config.worker_panic_per_mille = 0;
    config.disk_faults = false;
    config.artifact_dir = scratch("recovery-artifacts");
    config.wal_dir = scratch("recovery-wal");
    let report = run_crash_recovery(&config)
        .unwrap_or_else(|m| panic!("{}", m.description));
    assert_eq!(report.disk_fault, None);
    assert!(report.stats.wal_fsyncs > 0, "durable appends must fsync");
}
