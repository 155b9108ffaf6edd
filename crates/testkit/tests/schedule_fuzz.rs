//! Schedule-exploration fuzzing: every seeded ready-queue permutation at
//! every swept worker count must reproduce the FIFO reference run's
//! outcome vectors and store digest (acceptance bar: ≥3 seeds × ≥3 worker
//! counts per workload).

use prognosticator_core::FaultPlan;
use testkit::{explore_schedules, ScheduleSweep, WorkloadKind};

#[test]
fn smallbank_schedules_are_outcome_equivalent() {
    let report = explore_schedules(&ScheduleSweep::standard(WorkloadKind::SmallBank, 0xB0A7));
    assert!(report.explored >= 10, "explored {} schedules", report.explored);
    assert!(report.committed > 0);
}

#[test]
fn tpcc_schedules_are_outcome_equivalent() {
    let report = explore_schedules(&ScheduleSweep::standard(WorkloadKind::Tpcc, 0x7C9));
    assert!(report.explored >= 10);
    assert!(report.committed > 0);
}

#[test]
fn rubis_schedules_are_outcome_equivalent() {
    let report = explore_schedules(&ScheduleSweep::standard(WorkloadKind::Rubis, 0x12B15));
    assert!(report.explored >= 10);
    assert!(report.committed > 0);
}

#[test]
fn schedules_stay_equivalent_under_injected_faults() {
    // Injected worker panics must abort the same transactions in every
    // schedule — the fault plan is a pure function of (seed, batch, tx).
    let sweep = ScheduleSweep::standard(WorkloadKind::SmallBank, 0xFA17)
        .with_faults(FaultPlan::quiet(17).with_worker_panics(150));
    let report = explore_schedules(&sweep);
    assert!(report.explored >= 10);
    assert!(report.aborted > 0, "the fault plan should have injected aborts");
    assert!(report.committed > 0, "most transactions still commit");
}

#[test]
fn wider_windows_still_converge() {
    // A wider candidate window lets schedules stray further from FIFO.
    let mut sweep = ScheduleSweep::standard(WorkloadKind::SmallBank, 0x51DE);
    sweep.window = 7;
    sweep.policy_seeds = vec![1, 2, 3, 4];
    explore_schedules(&sweep);
}
