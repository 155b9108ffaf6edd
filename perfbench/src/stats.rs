//! Sample summaries and failure accounting shared by every workload.

/// A percentile is reported only when at least this many samples lie
/// beyond it; otherwise the tail it names is a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// The tail percentile every latency metric reports. p95 keeps ten
/// samples beyond it from 200 samples on, which every workload collects
/// in one run; p99 would need 1000 and runs several times longer.
pub const TAIL_PCT: f64 = 95.0;

/// Nearest-rank `p`-th percentile of `samples` (any order), or `None`
/// when fewer than [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `samples`: the middle value, or the mean of the two middle
/// values (0 when empty; callers check the count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = sorted.len() / 2;
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[h],
        _ => (sorted[h - 1] + sorted[h]) / 2.0,
    }
}

/// Mean of `samples` (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median and tail of one latency distribution, with its sample count.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub n: usize,
    pub p50: f64,
    pub tail: f64,
}

impl Tail {
    /// The nearest-rank p50 and p95 of every sample of the run. Errs when
    /// there are too few samples for a p95 with ten beyond it.
    pub fn of(samples: &[f64], what: &str) -> Result<Tail, String> {
        let n = samples.len();
        let tail = percentile(samples, TAIL_PCT).ok_or_else(|| {
            format!("{what}: {n} samples leave fewer than {MIN_BEYOND} beyond p{TAIL_PCT}")
        })?;
        let p50 = percentile(samples, 50.0).expect("a p95 with ten beyond it implies a p50");
        Ok(Tail { n, p50, tail })
    }
}

/// Terminal outcomes of the requests one phase attempted. Rejected,
/// lost, failed-send and quarantined requests are failures; a
/// deterministic abort is a workload outcome, not a failure.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub committed: u64,
    pub aborted: u64,
    pub rejected: u64,
    pub lost: u64,
    pub failed_sends: u64,
    pub quarantined: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.rejected + self.lost + self.failed_sends + self.quarantined
    }

    pub fn failed_pct(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 * 100.0 / self.attempted as f64
        }
    }

    pub fn success_pct(&self) -> f64 {
        100.0 - self.failed_pct()
    }

    /// Deterministic aborts among the requests that reached the engine.
    pub fn abort_pct(&self) -> f64 {
        let decided = self.committed + self.aborted;
        if decided == 0 {
            0.0
        } else {
            self.aborted as f64 * 100.0 / decided as f64
        }
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.rejected += other.rejected;
        self.lost += other.lost;
        self.failed_sends += other.failed_sends;
        self.quarantined += other.quarantined;
    }
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        // rank ceil(0.95 * 200) = 190 leaves exactly ten samples above.
        assert_eq!(percentile(&samples, 95.0), Some(190.0));
        assert_eq!(percentile(&samples[..199], 95.0), None);
        assert_eq!(percentile(&samples[..19], 50.0), None);
        assert_eq!(percentile(&samples[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&samples[..21], 50.0), Some(11.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut samples: Vec<f64> = (1..=400).map(f64::from).collect();
        samples.reverse();
        assert_eq!(percentile(&samples, 95.0), Some(380.0));
        assert_eq!(median(&samples), 200.5);
        assert_eq!(median(&samples[..399]), 201.0);
    }

    #[test]
    fn tail_reports_the_sample_count_or_refuses() {
        let samples: Vec<f64> = (1..=250).map(f64::from).collect();
        let t = Tail::of(&samples, "x").expect("250 samples suffice");
        assert_eq!(t.n, 250);
        // Nearest rank: ceil(0.5 * 250) = 125, ceil(0.95 * 250) = 238.
        assert_eq!((t.p50, t.tail), (125.0, 238.0));
        let err = Tail::of(&samples[..100], "lat").unwrap_err();
        assert!(err.contains("100 samples"), "{err}");
    }

    #[test]
    fn a_stall_in_one_stretch_of_the_run_moves_the_tail() {
        let mut samples = vec![10.0; 600];
        // A stall inflates every sample of the middle third of the run.
        samples[200..400].iter_mut().for_each(|s| *s = 500.0);
        let t = Tail::of(&samples, "x").unwrap();
        assert_eq!((t.n, t.p50, t.tail), (600, 10.0, 500.0));
        // Past half the run, the stall moves the median too.
        samples[400..520].iter_mut().for_each(|s| *s = 500.0);
        assert_eq!(Tail::of(&samples, "x").unwrap().p50, 500.0);
        // 30 slow samples at the end of the run all lie beyond p95 of
        // 600 (rank 570); a 31st reaches the rank.
        let mut late = vec![10.0; 600];
        late[570..].iter_mut().for_each(|s| *s = 500.0);
        assert_eq!(Tail::of(&late, "x").unwrap().tail, 10.0);
        late[569] = 500.0;
        assert_eq!(Tail::of(&late, "x").unwrap().tail, 500.0);
    }

    #[test]
    fn failures_count_rejected_lost_failed_sends_and_quarantined() {
        let t = Tally {
            attempted: 200,
            committed: 180,
            aborted: 4,
            rejected: 10,
            lost: 3,
            failed_sends: 2,
            quarantined: 1,
        };
        assert_eq!(t.failed(), 16);
        assert!((t.failed_pct() - 8.0).abs() < 1e-9);
        assert!((t.success_pct() - 92.0).abs() < 1e-9);
        // Aborts are outcomes, not failures: 4 of 184 decided requests.
        assert!((t.abort_pct() - 4.0 * 100.0 / 184.0).abs() < 1e-9);
        assert_eq!(Tally::default().failed_pct(), 0.0);
    }
}
