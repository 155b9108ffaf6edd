//! Hand-rolled JSON rendering for benchmark result snapshots.
//!
//! The harness writes each exhibit's numbers to `results/BENCH_*.json` so
//! regressions can be tracked mechanically across commits — including the
//! robustness counters (deterministic aborts, abort-retry events) next to
//! the throughput figures. The container has no `serde_json`, so this is a
//! small purpose-built serializer: just enough JSON to emit objects,
//! arrays, strings and numbers with correct escaping.

use crate::RunResult;
use std::io::Write;
use std::path::Path;

/// Version of the `BENCH_*.json` snapshot schema. Bumped to 2 when the
/// per-stage histogram summaries (`stage_hists`) and lock-contention
/// counters (`lock_waits`, `lock_contended_keys`) were added; bumped to 3
/// when the service-loop robustness counters (`client_retries`,
/// `shed_requests`, `degraded_batches`) were added; bumped to 4 when four
/// per-shard execution fields were added; bumped to 5 when the
/// served-traffic fields (`connections`, `evicted_clients`,
/// `wire_rejects`, `open_loop_p50_ms`, `open_loop_p99_ms`,
/// `open_loop_max_ms`) were added; bumped to 6 when the
/// adaptive-prediction fields (`specializations_active`,
/// `false_conflicts`, `predicted_keys`, `observed_keys`) were added;
/// bumped to 7 when key-space sharding was removed from the engine and
/// the four v4 fields with it. Older files (and pre-versioned files,
/// which carry no `schema_version` at all) are rejected by
/// [`load_snapshot`] so regression tooling never silently compares across
/// incompatible layouts.
pub const SCHEMA_VERSION: i64 = 7;

/// A JSON value tree, rendered with [`Json::render`].
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (kept exact rather than going through `f64`).
    Int(i64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for object members.
    pub fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// Looks up an object member by key (None for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Parses a JSON document (the subset [`Json::render`] emits plus
    /// arbitrary whitespace — enough to read back committed snapshots).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(value)
    }

    /// Renders the tree as pretty-printed JSON (2-space indent, trailing
    /// newline) — stable output, suitable for committed snapshots.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_value(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_value(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => out.push_str(&i.to_string()),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's shortest-roundtrip float formatting; force a
                    // decimal point so the value re-parses as a float.
                    let s = n.to_string();
                    out.push_str(&s);
                    if !s.contains('.') && !s.contains('e') {
                        out.push_str(".0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    item.write_value(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write_value(out, indent + 1);
                }
                newline_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                members.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at offset {}", *pos))
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    let mut chars = std::str::from_utf8(&b[*pos..])
        .map_err(|e| format!("invalid utf-8 in string: {e}"))?
        .char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => {
                *pos += i + 1;
                return Ok(out);
            }
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, '/')) => out.push('/'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let (_, h) = chars
                            .next()
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        code = code * 16
                            + h.to_digit(16).ok_or_else(|| "bad \\u escape".to_string())?;
                    }
                    out.push(
                        char::from_u32(code)
                            .ok_or_else(|| "non-scalar \\u escape".to_string())?,
                    );
                }
                other => {
                    return Err(format!("unsupported escape {other:?}"));
                }
            },
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii number");
    if text.contains(['.', 'e', 'E']) {
        text.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number {text:?}: {e}"))
    } else {
        text.parse::<i64>().map(Json::Int).map_err(|e| format!("bad number {text:?}: {e}"))
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One measured operating point as a JSON object, robustness counters
/// included: `aborted` is the count of deterministic per-transaction
/// aborts (workload bugs / injected faults — final, replicated verdicts)
/// and `abort_retries` the count of abort-and-retry events (validation
/// failures that re-executed), so BENCH snapshots catch robustness
/// regressions alongside throughput ones.
pub fn run_result_json(system: &str, r: &RunResult) -> Json {
    Json::obj(vec![
        ("system", Json::Str(system.to_owned())),
        ("sustainable", Json::Bool(r.sustainable)),
        ("batch_size", Json::Int(r.batch_size as i64)),
        ("throughput_tps", Json::Num(r.throughput_tps)),
        ("committed", Json::Int(r.committed as i64)),
        ("aborted", Json::Int(r.aborted as i64)),
        ("abort_retries", Json::Int(r.abort_retries as i64)),
        ("abort_pct", Json::Num(r.abort_pct)),
        ("p99_ms", Json::Num(r.p99_ms)),
        ("prepare_us", Json::Num(r.prepare_us)),
        ("reexec_us", Json::Num(r.reexec_us)),
        // Per-stage mean batch times (µs): the batch lifecycle split of
        // DESIGN.md §3.4.1. `overlap_us` is how much of `predict_us` hid
        // behind the previous batch's execution (prepare-ahead);
        // `lock_fresh_allocs` counts fresh lock-queue allocations over the
        // measured window (0 once the builder's pools are warm).
        ("predict_us", Json::Num(r.predict_us)),
        ("queue_us", Json::Num(r.queue_us)),
        ("execute_us", Json::Num(r.execute_us)),
        ("commit_us", Json::Num(r.commit_us)),
        ("overlap_us", Json::Num(r.overlap_us)),
        ("lock_fresh_allocs", Json::Int(r.lock_fresh_allocs as i64)),
        // Durability counters (the crash-recovery story of DESIGN.md §9):
        // zero for the simulated exhibits, populated by `bench_smoke`'s
        // durability group which drives a WAL-backed cluster and a
        // replica recovery.
        ("wal_fsyncs", Json::Int(r.wal_fsyncs as i64)),
        ("snapshot_installs", Json::Int(r.snapshot_installs as i64)),
        ("recovery_replay_us", Json::Int(r.recovery_replay_us as i64)),
        // Lock-contention counters over the measured window (schema v2):
        // wait episodes and frozen queues holding >1 transaction.
        ("lock_waits", Json::Int(r.lock_waits as i64)),
        ("lock_contended_keys", Json::Int(r.lock_contended_keys as i64)),
        // Service-loop robustness counters (schema v3): client retry
        // submissions, load-shed/bounded-admission refusals, and batches
        // proposed under a degraded fleet. Zero for exhibits that drive
        // the engine directly without the client/health loop.
        ("client_retries", Json::Int(r.client_retries as i64)),
        ("shed_requests", Json::Int(r.shed_requests as i64)),
        ("degraded_batches", Json::Int(r.degraded_batches as i64)),
        // Served-traffic fields (schema v5): network front-end accounting
        // and the coordinated-omission-safe open-loop latency quantiles,
        // measured from each request's intended send time. Zero for
        // exhibits that drive the engine in-process without the server.
        ("connections", Json::Int(r.connections as i64)),
        ("evicted_clients", Json::Int(r.evicted_clients as i64)),
        ("wire_rejects", Json::Int(r.wire_rejects as i64)),
        ("open_loop_p50_ms", Json::Num(r.open_loop_p50_ms)),
        ("open_loop_p99_ms", Json::Num(r.open_loop_p99_ms)),
        ("open_loop_max_ms", Json::Num(r.open_loop_max_ms)),
        // Adaptive-prediction fields (schema v6): programs with an
        // active specialization, false lock conflicts attributed
        // (predicted ∩ contended − touched), and the predicted/observed
        // key totals whose quotient is the run's over-approximation
        // ratio. Zero for static-profile exhibits.
        ("specializations_active", Json::Int(r.specializations_active as i64)),
        ("false_conflicts", Json::Int(r.false_conflicts as i64)),
        ("predicted_keys", Json::Int(r.predicted_keys as i64)),
        ("observed_keys", Json::Int(r.observed_keys as i64)),
        // Per-stage per-batch latency distributions (µs), summarized
        // from log-linear histograms (schema v2).
        (
            "stage_hists",
            Json::Arr(
                r.stage_hists
                    .iter()
                    .map(|h| {
                        Json::obj(vec![
                            ("stage", Json::Str(h.stage.clone())),
                            ("p50_us", Json::Int(h.p50_us as i64)),
                            ("p95_us", Json::Int(h.p95_us as i64)),
                            ("p99_us", Json::Int(h.p99_us as i64)),
                            ("max_us", Json::Int(h.max_us as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Assembles a whole exhibit snapshot: one group per operating condition
/// (e.g. a warehouse count), each holding the per-system results.
pub fn snapshot_json(exhibit: &str, groups: &[(String, Vec<(String, RunResult)>)]) -> Json {
    Json::obj(vec![
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("exhibit", Json::Str(exhibit.to_owned())),
        (
            "groups",
            Json::Arr(
                groups
                    .iter()
                    .map(|(label, rows)| {
                        Json::obj(vec![
                            ("label", Json::Str(label.clone())),
                            (
                                "results",
                                Json::Arr(
                                    rows.iter()
                                        .map(|(sys, r)| run_result_json(sys, r))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes a snapshot to `results/BENCH_<exhibit>.json` (creating the
/// directory if needed) and returns the path written.
pub fn write_snapshot(exhibit: &str, json: &Json) -> std::io::Result<std::path::PathBuf> {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("BENCH_{exhibit}.json"));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(json.render().as_bytes())?;
    Ok(path)
}

/// Validates a parsed snapshot's `schema_version` against
/// [`SCHEMA_VERSION`]. Missing or mismatched versions are errors —
/// regression tooling must never compare across incompatible layouts.
pub fn validate_snapshot(json: &Json) -> Result<(), String> {
    match json.get("schema_version") {
        Some(Json::Int(v)) if *v == SCHEMA_VERSION => Ok(()),
        Some(Json::Int(v)) => Err(format!(
            "unsupported snapshot schema_version {v} (this harness reads version {SCHEMA_VERSION}); regenerate the snapshot"
        )),
        Some(other) => Err(format!("schema_version must be an integer, got {other:?}")),
        None => Err(format!(
            "snapshot has no schema_version (pre-versioned file); regenerate with the current harness (version {SCHEMA_VERSION})"
        )),
    }
}

/// Reads and parses `path`, rejecting files whose `schema_version` is
/// missing or differs from [`SCHEMA_VERSION`].
pub fn load_snapshot(path: impl AsRef<Path>) -> Result<Json, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    validate_snapshot(&json)?;
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_and_escaping() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::Num(2.5).render(), "2.5\n");
        assert_eq!(Json::Num(3.0).render(), "3.0\n", "floats keep a decimal point");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n", "non-finite is null");
        assert_eq!(
            Json::Str("a\"b\\c\nd".into()).render(),
            "\"a\\\"b\\\\c\\nd\"\n"
        );
    }

    #[test]
    fn renders_nested_structures() {
        let j = Json::obj(vec![
            ("xs", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
        ]);
        let s = j.render();
        assert!(s.contains("\"xs\": [\n    1,\n    2\n  ]"), "pretty array: {s}");
        assert!(s.contains("\"empty\": []"), "empty array inline: {s}");
    }

    #[test]
    fn run_result_includes_robustness_counters() {
        let r = RunResult {
            sustainable: true,
            batch_size: 64,
            throughput_tps: 6400.0,
            committed: 640,
            aborted: 3,
            abort_retries: 17,
            abort_pct: 2.66,
            p99_ms: 8.1,
            prepare_us: 1.2,
            reexec_us: 3.4,
            predict_us: 0.5,
            queue_us: 2.1,
            execute_us: 42.0,
            commit_us: 0.3,
            overlap_us: 0.4,
            lock_fresh_allocs: 7,
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in ["\"aborted\": 3", "\"abort_retries\": 17", "\"committed\": 640"] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn run_result_includes_durability_counters() {
        let r = RunResult {
            wal_fsyncs: 12,
            snapshot_installs: 2,
            recovery_replay_us: 314,
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in [
            "\"wal_fsyncs\": 12",
            "\"snapshot_installs\": 2",
            "\"recovery_replay_us\": 314",
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn parse_round_trips_rendered_snapshots() {
        let j = snapshot_json(
            "rt",
            &[(
                "g1".to_string(),
                vec![(
                    "MQ-MF".to_string(),
                    RunResult {
                        throughput_tps: 1234.5,
                        committed: 77,
                        stage_hists: vec![crate::StageHist {
                            stage: "execute".into(),
                            p50_us: 10,
                            p95_us: 20,
                            p99_us: 30,
                            max_us: 31,
                        }],
                        ..RunResult::default()
                    },
                )],
            )],
        );
        let parsed = Json::parse(&j.render()).expect("round trip");
        assert_eq!(parsed, j);
        assert_eq!(parsed.get("schema_version"), Some(&Json::Int(SCHEMA_VERSION)));
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "truely", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn validate_rejects_unknown_and_missing_versions() {
        let current = snapshot_json("v", &[]);
        assert!(validate_snapshot(&current).is_ok());

        let old = Json::obj(vec![("schema_version", Json::Int(1))]);
        let err = validate_snapshot(&old).unwrap_err();
        assert!(err.contains("unsupported"), "{err}");

        let unversioned = Json::obj(vec![("exhibit", Json::Str("x".into()))]);
        let err = validate_snapshot(&unversioned).unwrap_err();
        assert!(err.contains("no schema_version"), "{err}");

        let wrong_type = Json::obj(vec![("schema_version", Json::Str("2".into()))]);
        assert!(validate_snapshot(&wrong_type).is_err());
    }

    #[test]
    fn load_snapshot_round_trips_through_disk() {
        let dir = std::env::temp_dir().join(format!("prog-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let j = snapshot_json("disk", &[]);
        std::fs::write(&path, j.render()).unwrap();
        assert_eq!(load_snapshot(&path).expect("current version loads"), j);

        std::fs::write(&path, "{\n  \"schema_version\": 99\n}\n").unwrap();
        assert!(load_snapshot(&path).is_err(), "future version must be rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_result_includes_lock_contention_and_histograms() {
        let r = RunResult {
            lock_waits: 5,
            lock_contended_keys: 9,
            stage_hists: vec![crate::StageHist {
                stage: "queue".into(),
                p50_us: 3,
                p95_us: 8,
                p99_us: 9,
                max_us: 11,
            }],
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in [
            "\"lock_waits\": 5",
            "\"lock_contended_keys\": 9",
            "\"stage\": \"queue\"",
            "\"p95_us\": 8",
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn run_result_includes_service_loop_counters() {
        let r = RunResult {
            client_retries: 4,
            shed_requests: 11,
            degraded_batches: 2,
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in [
            "\"client_retries\": 4",
            "\"shed_requests\": 11",
            "\"degraded_batches\": 2",
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn run_result_includes_served_traffic_fields() {
        let r = RunResult {
            connections: 9,
            evicted_clients: 2,
            wire_rejects: 13,
            open_loop_p50_ms: 1.5,
            open_loop_p99_ms: 7.25,
            open_loop_max_ms: 12.0,
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in [
            "\"connections\": 9",
            "\"evicted_clients\": 2",
            "\"wire_rejects\": 13",
            "\"open_loop_p50_ms\": 1.5",
            "\"open_loop_p99_ms\": 7.25",
            "\"open_loop_max_ms\": 12.0",
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }

    #[test]
    fn run_result_includes_stage_timings() {
        let r = RunResult {
            predict_us: 0.5,
            queue_us: 2.1,
            execute_us: 42.0,
            commit_us: 0.3,
            overlap_us: 0.4,
            lock_fresh_allocs: 7,
            ..RunResult::default()
        };
        let s = run_result_json("MQ-MF", &r).render();
        for needle in [
            "\"predict_us\": 0.5",
            "\"queue_us\": 2.1",
            "\"execute_us\": 42.0",
            "\"commit_us\": 0.3",
            "\"overlap_us\": 0.4",
            "\"lock_fresh_allocs\": 7",
        ] {
            assert!(s.contains(needle), "{needle} missing from {s}");
        }
    }
}
