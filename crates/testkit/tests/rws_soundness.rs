//! RWS-soundness oracle runs: for every workload, every profiled
//! transaction's predicted read/write-set must be a superset of the keys
//! it concretely touches, and the over-approximation ratio must be a
//! finite number ≥ 1.

use testkit::{check_soundness, WorkloadKind};

fn assert_sound(kind: WorkloadKind, seed: u64) -> testkit::SoundnessReport {
    let report = check_soundness(kind, seed, 3, 24).unwrap_or_else(|e| panic!("{e}"));
    assert!(report.checked > 0, "{}: no profiled transactions checked", report.workload);
    let ratio = report.ratio();
    assert!(ratio.is_finite(), "{}: ratio must be finite", report.workload);
    assert!(
        ratio >= 1.0,
        "{}: predicted ({}) < touched ({}) — under-approximation slipped past the \
         per-transaction superset check\n{}",
        report.workload,
        report.predicted_keys,
        report.touched_keys,
        report.summary()
    );
    // Per-template accounting must tile the workload totals.
    assert_eq!(
        report.templates.iter().map(|t| t.checked).sum::<usize>(),
        report.checked,
        "{}: per-template checked counts must sum to the total",
        report.workload
    );
    assert_eq!(
        report.templates.iter().map(|t| t.predicted_keys).sum::<u64>(),
        report.predicted_keys
    );
    assert_eq!(
        report.templates.iter().map(|t| t.touched_keys).sum::<u64>(),
        report.touched_keys
    );
    for t in &report.templates {
        assert!(
            t.ratio() >= 1.0 && (0.0..=1.0).contains(&t.pivot_hit_rate()),
            "{}: template `{}` has impossible stats",
            report.workload,
            t.program
        );
    }
    eprintln!("{}", report.summary());
    report
}

#[test]
fn smallbank_predictions_are_supersets() {
    assert_sound(WorkloadKind::SmallBank, 0xABCD);
}

#[test]
fn tpcc_predictions_are_supersets() {
    assert_sound(WorkloadKind::Tpcc, 0x5EED);
}

#[test]
fn rubis_predictions_are_supersets() {
    assert_sound(WorkloadKind::Rubis, 0xF00D);
}

#[test]
fn adaptive_widened_scan_over_approximates_but_stays_sound() {
    // The adaptive workload's whole premise: its widened wide_scan
    // predicts the full static hull while touching only the watermark
    // prefix — loose (ratio > 1) but sound, with the looseness visible in
    // the per-template report, worst template first.
    let report = assert_sound(WorkloadKind::Adaptive, 0xADA7);
    assert!(
        report.ratio() > 1.2,
        "adaptive: expected a visibly loose workload, got ratio {:.3}",
        report.ratio()
    );
    let worst = report.worst_templates(3);
    assert_eq!(
        worst.first().map(|t| t.program.as_str()),
        Some("wide_scan"),
        "wide_scan must rank as the loosest template: {:?}",
        worst.iter().map(|t| (&t.program, t.ratio())).collect::<Vec<_>>()
    );
    assert!(worst[0].ratio() > 2.0, "wide_scan ratio {:.3} should dwarf 2×", worst[0].ratio());
    // bump_watermark overwrites its own pivot: the per-template pivot hit
    // rate must notice (audit's and chain_pay's pivots stay valid).
    let bump = report.templates.iter().find(|t| t.program == "bump_watermark");
    if let Some(bump) = bump {
        if bump.pivot_predictions > 0 {
            assert!(
                bump.pivot_hit_rate() < 1.0,
                "bump_watermark rewrites its pivot; hit rate {:.3} should dip below 1",
                bump.pivot_hit_rate()
            );
        }
    }
}

#[test]
fn ratios_are_stable_across_seeds() {
    // Soundness must hold for any stream, not just one lucky seed.
    for seed in [1, 2, 3] {
        assert_sound(WorkloadKind::SmallBank, seed);
    }
}

#[test]
fn adversarial_pack_predictions_are_supersets() {
    // Hot keys, wide scans and chained pivots stress the profiles hardest.
    for kind in WorkloadKind::ADVERSARIAL {
        assert_sound(kind, 0xAD_5D);
    }
}
