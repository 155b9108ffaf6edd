//! Wall-clock benchmark of the deterministic database: the served TCP
//! path and the adaptive pipeline. Every layer is timed from these files,
//! around calls into the library's public API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A failed
//! correctness check prints `"correct": false` and exits with code 1.

mod adaptive;
mod layers;
mod loadgen;
mod served;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of
/// them; what "one unit of work" is differs per workload (see README).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_pct", "%"),
    ("throughput_tps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A workload that
/// does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.codec_us", "us"),
    ("server.wire_rejects", "count"),
    ("server.evicted_clients", "count"),
    ("server.engine_unresolved", "count"),
    ("loadgen.send_lag_p95_ms", "ms"),
    ("client.submit_us_p50", "us"),
    ("client.submit_us_p95", "us"),
    ("client.settle_us_p50", "us"),
    ("client.settle_us_p95", "us"),
    ("client.retries", "count"),
    ("pipeline.submit_us_p50", "us"),
    ("pipeline.submit_us_p95", "us"),
    ("pipeline.sync_us_p50", "us"),
    ("pipeline.sync_us_p95", "us"),
    ("pipeline.sync_growth", "ratio"),
    ("pipeline.txs_per_entry", "ratio"),
    ("pipeline.shed_requests", "count"),
    ("pipeline.consensus_retries", "count"),
    ("pipeline.degraded_batches", "count"),
    ("pipeline.batch_events", "count"),
    ("pipeline.journal_len", "count"),
    ("pipeline.voided_ids", "count"),
    ("consensus.commit_us_p50", "us"),
    ("consensus.commit_us_p95", "us"),
    ("consensus.log_retained", "count"),
    ("consensus.leader_changes", "count"),
    ("core.predict_us", "us"),
    ("core.queue_us", "us"),
    ("core.execute_us", "us"),
    ("core.commit_us", "us"),
    ("core.apply_us", "us"),
    ("core.overlap_us", "us"),
    ("core.busy_share", "ratio"),
    ("core.retries_per_commit", "ratio"),
    ("core.rounds_per_batch", "ratio"),
    ("core.lock_waits", "count"),
    ("core.lock_contended_keys", "count"),
    ("core.lock_fresh_allocs", "count"),
    ("core.abort_pct", "%"),
    ("symexec.register_s", "s"),
    ("symexec.profile_size", "bytes"),
    ("storage.populate_s", "s"),
    ("storage.versions_per_key", "ratio"),
    ("adapt.observe_ns_per_tx", "ns"),
    ("adapt.propose_us", "us"),
    ("adapt.false_conflicts", "count"),
    ("adapt.over_approx_ratio", "ratio"),
    ("adapt.spec_cache_hits", "count"),
    ("adapt.spec_narrowed", "count"),
    ("adapt.specializations", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

pub const WORKLOADS: &[&str] = &["served-smallbank", "pipeline-adaptive"];

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number with the count of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in words; empty when correct.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, Value>,
    /// Spans of a traced run, written out at the end.
    pub spans: Option<trace::Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Value { value, n });
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}|all> --seed <n> --seconds <n> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<(Vec<&'static str>, Opts), String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| {
        flags
            .get(k)
            .copied()
            .ok_or_else(|| format!("missing --{k}"))
    };
    let workload = get("workload")?;
    let workloads = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![*WORKLOADS
            .iter()
            .find(|w| **w == workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?]
    };
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=600.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    if flags.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok((
        workloads,
        Opts {
            seed,
            seconds,
            trace,
        },
    ))
}

/// The checked-out revision, or "unknown" outside a git repository.
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn run_one(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "served-smallbank" => served::run(opts),
        "pipeline-adaptive" => adaptive::run(opts),
        _ => unreachable!("workload names are validated by parse_args"),
    }
}

/// Prints the metric table and the result line; returns whether the run
/// was correct.
fn report(workload: &str, opts: &Opts, mut out: Outcome) -> Result<bool, String> {
    for v in &out.violations {
        println!("CHECK FAILED: {v}");
    }
    let names = if opts.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{:<28} {:>14} {:<6} {:>8}",
        "metric", "value", "unit", "samples"
    );
    let mut entries = Vec::new();
    for &(name, unit) in names {
        let v = out
            .metrics
            .get(name)
            .copied()
            .unwrap_or(Value { value: 0.0, n: 0 });
        println!("{name:<28} {:>14.4} {unit:<6} {:>8}", v.value, v.n);
        // End-to-end metrics are never 0; no metric is ever infinite.
        let valid = v.value.is_finite() && (opts.trace || v.value > 0.0);
        if !valid {
            return Err(format!("metric {name} is {}", v.value));
        }
        entries.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            v.value
        ));
    }
    if let Some(tracer) = out.spans.take() {
        println!("\nspan self time (traced run)");
        println!(
            "{:<28} {:>8} {:>14} {:>14}",
            "span", "count", "total_ms", "self_ms"
        );
        for (name, n, total, own) in trace::self_time_table(tracer.spans()) {
            println!(
                "{name:<28} {n:>8} {:>14.3} {:>14.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{workload}-seed{}.jsonl",
            opts.seed
        ));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("spans written to {}", path.display());
    }
    let correct = out.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        entries.join(", ")
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workloads, opts) = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all_correct = true;
    for workload in workloads {
        println!(
            "# perfbench mode=wallclock rev={} workload={workload} seed={} seconds={} trace={} nproc={nproc}",
            git_revision(),
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
        let result = run_one(workload, &opts).and_then(|out| report(workload, &opts, out));
        match result {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("perfbench: {workload}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program prints are the ones BENCHMARK.json
    /// declares, in both directions.
    #[test]
    fn metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside perfbench/");
        let declared: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .filter(|n| !WORKLOADS.contains(n))
            .collect();
        let printed: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(declared, printed);
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} missing");
        }
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let (w, o) = parse_args(&args(
            "--workload pipeline-adaptive --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(w, vec!["pipeline-adaptive"]);
        assert_eq!((o.seed, o.seconds, o.trace), (7, 10.0, true));
        assert_eq!(
            parse_args(&args("--workload all --seed 1 --seconds 5 --trace 0"))
                .unwrap()
                .0
                .len(),
            WORKLOADS.len()
        );
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 5 --trace 0")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --seconds 5 --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --seed 1 --seconds 5")).is_err());
    }
}
