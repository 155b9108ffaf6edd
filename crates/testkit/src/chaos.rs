//! Chaos-campaign oracle: the full pipeline plus retrying client under a
//! seeded, eventually-healing fault schedule.
//!
//! Each run drives a [`ClientSession`] over a live [`Pipeline`] (three
//! consensus nodes, a replica fleet, bounded admission) for a fixed
//! number of submission rounds while a [`ChaosPlan`] injects faults —
//! leader isolation, asymmetric partitions, replica crash-restarts,
//! delay spikes, duplicate/reorder storms, overload bursts, and WAL disk
//! faults. Every plan heals by construction
//! ([`ChaosPlan::heal_after`]), after which the harness drains the
//! session and checks four oracles:
//!
//! 1. **Terminal outcomes** — every submitted request resolved to exactly
//!    one of Committed / Aborted / Rejected; none is left in limbo.
//! 2. **Liveness after healing** — requests submitted after the heal
//!    point must reach an engine-terminal outcome (Committed or Aborted);
//!    a post-heal `Rejected` means the service never recovered.
//! 3. **Determinism** — the live replicas' digests agree (the pipeline
//!    asserts this on every sync), and replaying the voided-filtered
//!    committed stream through fresh replicas at every configured worker
//!    count reproduces the live digest byte-for-byte.
//! 4. **Exactly-once at the log** — no committed proposal id appears
//!    twice on any consensus node, despite quarantine resubmissions
//!    riding fresh proposal ids and retries riding deduplicated ones.
//!
//! On a violation the harness dumps the flight recorders
//! ([`crate::report_oracle_failure`]), shrinks the committed stream with
//! [`crate::differential::shrink_stream`] when the failure is
//! replayable, and writes a `chaos-<plan>-<seed>.reproducer.json` next
//! to the other testkit artifacts.

use crate::differential::shrink_stream;
use crate::workload::{TestWorkload, WorkloadKind};
use prognosticator::{ClientConfig, ClientOutcome, ClientSession, Pipeline, PipelineConfig};
use prognosticator_bench::json::Json;
use prognosticator_consensus::{DiskFault as WalDiskFault, NetConfig, RetryPolicy};
use prognosticator_core::baselines;
use prognosticator_core::{ChaosEvent, ChaosPlan, DiskFaultKind, Replica, TxRequest};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// One chaos-campaign cell: a (workload, plan, seed) triple plus scale
/// knobs.
#[derive(Debug, Clone)]
pub struct ChaosOracleConfig {
    /// Workload generating the request stream.
    pub workload: WorkloadKind,
    /// Chaos plan name (one of [`prognosticator_core::PLAN_NAMES`]).
    pub plan: String,
    /// Seed for the plan, the request stream, and the simulated network.
    pub seed: u64,
    /// Submission rounds; the plan heals at round `rounds * 2 / 3`.
    pub rounds: usize,
    /// Requests submitted per round (overload bursts multiply this).
    pub round_size: usize,
    /// Replicas in the live fleet.
    pub replicas: usize,
    /// Worker counts for the determinism replay legs.
    pub worker_counts: Vec<usize>,
    /// Where `chaos-*.reproducer.json` files are written on violation.
    pub artifact_dir: PathBuf,
}

impl ChaosOracleConfig {
    /// The acceptance-bar cell: SmallBank, 12 rounds of 6 requests, two
    /// live replicas, replay at {1, 2, 4} workers, artifacts under
    /// `target/testkit`.
    pub fn standard(plan: &str, seed: u64) -> Self {
        let target = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target");
        ChaosOracleConfig {
            workload: WorkloadKind::SmallBank,
            plan: plan.to_string(),
            seed,
            rounds: 12,
            round_size: 6,
            replicas: 2,
            worker_counts: vec![1, 2, 4],
            artifact_dir: target.join("testkit"),
        }
    }
}

/// What one surviving chaos campaign established.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The plan that ran.
    pub plan: String,
    /// Its seed.
    pub seed: u64,
    /// Requests submitted (including overload bursts).
    pub submitted: usize,
    /// Requests that committed.
    pub committed: usize,
    /// Requests that executed and deterministically aborted.
    pub aborted: usize,
    /// Requests terminally rejected (admission deadline or retry budget).
    pub rejected: usize,
    /// Client-level quarantine resubmissions.
    pub client_retries: u64,
    /// Pipeline-level load-shed / bounded-admission refusals.
    pub shed_requests: u64,
    /// Batches proposed while the fleet was degraded or on probation.
    pub degraded_batches: u64,
    /// Batches that exhausted consensus retries and were quarantined.
    pub quarantined_batches: usize,
    /// Batches in the live committed (voided-filtered) stream.
    pub live_batches: usize,
    /// Chaos events the plan actually injected.
    pub events_injected: usize,
}

/// A chaos-oracle violation, with its reproducer artifact.
#[derive(Debug)]
pub struct ChaosViolation {
    /// Which oracle failed and how.
    pub description: String,
    /// Where the reproducer JSON was written (empty if writing failed).
    pub reproducer: PathBuf,
}

impl std::fmt::Display for ChaosViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos violation: {} (reproducer: {})", self.description, self.reproducer.display())
    }
}

fn pipeline_config(config: &ChaosOracleConfig) -> PipelineConfig {
    PipelineConfig {
        batch_window: Duration::from_millis(5),
        batch_cap: config.round_size,
        scheduler: baselines::mq_mf(2),
        seed: config.seed,
        consensus_timeout: Duration::from_millis(500),
        retry: RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(20),
        },
        max_pending: Some(config.round_size * 2),
        // Never compact: the determinism leg replays the full committed
        // stream from node 0.
        snapshot_interval: None,
        ..PipelineConfig::default()
    }
}

/// Applies one chaos event to the live system. Returns `true` when the
/// event changed network state that [`heal_everything`] must undo.
fn apply_event(session: &mut ClientSession, event: &ChaosEvent, base_net: &NetConfig) -> bool {
    let n = session.pipeline().cluster().len();
    match *event {
        ChaosEvent::IsolateLeader => {
            if let Some(leader) = session.pipeline().cluster().leader() {
                session.pipeline().cluster().net().isolate(leader);
                return true;
            }
            false
        }
        ChaosEvent::AsymmetricPartition { from, to } => {
            let (from, to) = (from % n, to % n);
            if from != to {
                session.pipeline().cluster().net().partition_one_way(from, to);
                return true;
            }
            false
        }
        ChaosEvent::RestartReplica { replica } => {
            let idx = replica % session.pipeline().replica_count();
            session.pipeline_mut().restart_replica(idx);
            false
        }
        ChaosEvent::DelaySpike { extra } => {
            let cfg = NetConfig {
                min_delay: base_net.min_delay + extra,
                max_delay: base_net.max_delay + extra,
                ..base_net.clone()
            };
            session.pipeline().cluster().net().set_config(cfg);
            true
        }
        ChaosEvent::MessageStorm => {
            let cfg = NetConfig {
                dup_prob: 1.0,
                reorder_prob: 0.5,
                reorder_window: Duration::from_millis(2),
                ..base_net.clone()
            };
            session.pipeline().cluster().net().set_config(cfg);
            true
        }
        // Overload bursts are applied by the round loop (it submits
        // `multiplier` times the round size); nothing to do here.
        ChaosEvent::OverloadBurst { .. } => false,
        ChaosEvent::DiskFault { node, kind } => {
            let fault = match kind {
                DiskFaultKind::TornFinalFrame => WalDiskFault::TornFinalFrame,
                DiskFaultKind::FailedFsync => WalDiskFault::FailedFsync,
                DiskFaultKind::PartialSnapshot => WalDiskFault::PartialSnapshot,
            };
            session.pipeline().cluster().arm_disk_fault(node % n, fault);
            false
        }
        // Wire faults target the network front-end; this in-process
        // harness has no sockets, so they read as quiet rounds here. The
        // wire fuzzer ([`crate::wire`]) is the harness that reacts.
        ChaosEvent::WireFault { .. } => false,
    }
}

/// Restores the network to its pre-chaos state: every directed partition
/// healed, every per-link override cleared, the global config reset.
fn heal_everything(session: &ClientSession, base_net: &NetConfig) {
    let net = session.pipeline().cluster().net();
    net.heal_all();
    net.clear_link_overrides();
    net.set_config(base_net.clone());
}

/// Replays `stream` through a fresh replica with `workers` workers and
/// returns its final digest. Shared with
/// the wire fuzzer ([`crate::wire`]), whose determinism leg replays the
/// committed stream a served campaign produced.
pub(crate) fn replay_digest(
    workload: &TestWorkload,
    stream: &[Vec<TxRequest>],
    workers: usize,
) -> u64 {
    let mut replica = Replica::with_store(
        baselines::mq_mf(workers),
        Arc::clone(workload.catalog()),
        workload.fresh_store(),
    );
    replica.execute_stream(stream.to_vec(), 1);
    let digest = replica.state_digest();
    // Replay legs double as isolation checks whenever recording is on.
    crate::isolation::assert_replica_serializable(&replica, "chaos replay");
    replica.shutdown();
    digest
}

fn violation(
    config: &ChaosOracleConfig,
    description: String,
    stream: &[Vec<TxRequest>],
    workload: &TestWorkload,
) -> Box<ChaosViolation> {
    crate::report_oracle_failure("chaos", &description, "chaos-violation");
    let batches: Vec<Json> = stream
        .iter()
        .map(|batch| {
            Json::Arr(
                batch
                    .iter()
                    .map(|tx| {
                        Json::obj(vec![
                            (
                                "program",
                                Json::Str(
                                    workload
                                        .catalog()
                                        .entry(tx.program)
                                        .program()
                                        .name()
                                        .to_string(),
                                ),
                            ),
                            ("prog_id", Json::Int(tx.program.0 as i64)),
                            (
                                "inputs",
                                Json::Arr(
                                    tx.inputs.iter().map(|v| Json::Str(format!("{v:?}"))).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            )
        })
        .collect();
    let json = Json::obj(vec![
        ("oracle", Json::Str("chaos".to_string())),
        ("workload", Json::Str(config.workload.name().to_string())),
        ("plan", Json::Str(config.plan.clone())),
        ("seed", Json::Int(config.seed as i64)),
        ("rounds", Json::Int(config.rounds as i64)),
        ("round_size", Json::Int(config.round_size as i64)),
        (
            "worker_counts",
            Json::Arr(config.worker_counts.iter().map(|&w| Json::Int(w as i64)).collect()),
        ),
        ("violation", Json::Str(description.clone())),
        ("committed_stream", Json::Arr(batches)),
    ]);
    let path =
        config.artifact_dir.join(format!("chaos-{}-{}.reproducer.json", config.plan, config.seed));
    let written = std::fs::create_dir_all(&config.artifact_dir)
        .and_then(|()| std::fs::write(&path, json.render()))
        .is_ok();
    Box::new(ChaosViolation {
        description,
        reproducer: if written { path } else { PathBuf::new() },
    })
}

/// Runs one chaos campaign end to end.
///
/// # Errors
/// Returns the first [`ChaosViolation`] (with its reproducer artifact)
/// when any oracle fails.
///
/// # Panics
/// Panics if the plan name is unknown, or on replica divergence *within*
/// the live run (the pipeline itself asserts digest equality on sync).
pub fn run_chaos(config: &ChaosOracleConfig) -> Result<ChaosReport, Box<ChaosViolation>> {
    let horizon = config.rounds as u64;
    let plan = ChaosPlan::by_name(&config.plan, config.seed, horizon)
        .unwrap_or_else(|| panic!("unknown chaos plan: {}", config.plan));
    let workload = TestWorkload::new(config.workload);
    let pipe_config = pipeline_config(config);
    let base_net = pipe_config.net.clone();

    let populate = {
        let kind = config.workload;
        Arc::new(move |store: &prognosticator_storage::EpochStore| {
            TestWorkload::new(kind).populate_store(store);
        })
    };
    let pipeline = Pipeline::new(
        Arc::clone(workload.catalog()),
        pipe_config,
        config.replicas,
        populate,
    )
    .expect("chaos pipeline boots");
    let mut session = ClientSession::new(
        pipeline,
        ClientConfig { seed: config.seed, deadline: Duration::from_secs(3), ..ClientConfig::default() },
    );

    let mut rng = prognosticator_workloads::DeterministicRng::new(config.seed ^ 0xC4A0);
    let mut events_injected = 0usize;
    let mut transient_net_change = false;
    let mut post_heal_first: Option<usize> = None;

    for round in 0..horizon {
        if round == plan.heal_after() {
            heal_everything(&session, &base_net);
            session
                .pipeline()
                .cluster()
                .wait_for_leader(Duration::from_secs(10))
                .expect("a leader re-emerges after healing");
            post_heal_first = Some(session.submitted());
        }
        let mut burst = 1usize;
        for event in plan.events_at(round) {
            events_injected += 1;
            if let ChaosEvent::OverloadBurst { multiplier } = event {
                burst = burst.max(multiplier as usize);
            }
            transient_net_change |= apply_event(&mut session, &event, &base_net);
        }
        for req in workload.gen_batch(&mut rng, config.round_size * burst) {
            session.submit(req);
        }
        // Delay spikes and storms last one round; partitions persist
        // until the heal point.
        if transient_net_change {
            session.pipeline().cluster().net().set_config(base_net.clone());
            transient_net_change = false;
        }
    }
    if post_heal_first.is_none() {
        // heal_after == horizon only for degenerate round counts; heal
        // explicitly so the drain below runs on a healthy cluster.
        heal_everything(&session, &base_net);
        post_heal_first = Some(session.submitted());
    }
    let report = session.finish();

    // Oracle 1: every request reached exactly one terminal outcome.
    if report.unresolved != 0 {
        let stream = session.pipeline().live_committed(0);
        return Err(violation(
            config,
            format!("{} of {} requests never resolved", report.unresolved, report.outcomes.len()),
            &stream,
            &workload,
        ));
    }

    // Oracle 2: liveness after healing — post-heal requests must reach an
    // engine-terminal outcome.
    let first = post_heal_first.unwrap_or(report.outcomes.len());
    for (i, outcome) in report.outcomes.iter().enumerate().skip(first) {
        if let Some(ClientOutcome::Rejected { reason, .. }) = outcome {
            let stream = session.pipeline().live_committed(0);
            return Err(violation(
                config,
                format!("post-heal request {i} was rejected ({reason}): service never recovered"),
                &stream,
                &workload,
            ));
        }
    }

    // Oracle 4 (cheap, do it before the replay legs): no proposal id
    // committed twice on any node.
    let cluster = session.pipeline().cluster();
    for node in 0..cluster.len() {
        let mut seen = std::collections::HashSet::new();
        for entry in cluster.committed(node) {
            if entry.id != 0 && !seen.insert(entry.id) {
                let stream = session.pipeline().live_committed(0);
                return Err(violation(
                    config,
                    format!("proposal id {} committed twice on node {node}", entry.id),
                    &stream,
                    &workload,
                ));
            }
        }
    }

    // Oracle 3: determinism. Live digests agree (sync() would have
    // panicked otherwise), and replaying the committed stream at every
    // worker count reproduces them.
    let stream = session.pipeline().live_committed(0);
    let live = session.pipeline().digests()[0];
    for &workers in &config.worker_counts {
        let replayed = replay_digest(&workload, &stream, workers);
        if replayed != live {
            let description = format!(
                "replay at {workers} workers diverged: live digest {live:#x}, replayed {replayed:#x}"
            );
            // Delta-debug: shrink to a minimal stream on which some
            // configured worker count still disagrees with 1 worker.
            let counts = config.worker_counts.clone();
            let wl = &workload;
            let shrunk = shrink_stream(stream.clone(), &mut |candidate| {
                let reference = replay_digest(wl, candidate, 1);
                counts.iter().any(|&w| replay_digest(wl, candidate, w) != reference)
            });
            return Err(violation(config, description, &shrunk, &workload));
        }
    }

    let outcomes = &report.outcomes;
    let count = |f: &dyn Fn(&ClientOutcome) -> bool| {
        outcomes.iter().flatten().filter(|o| f(o)).count()
    };
    Ok(ChaosReport {
        plan: config.plan.clone(),
        seed: config.seed,
        submitted: outcomes.len(),
        committed: count(&|o| matches!(o, ClientOutcome::Committed)),
        aborted: count(&|o| matches!(o, ClientOutcome::Aborted { .. })),
        rejected: count(&|o| matches!(o, ClientOutcome::Rejected { .. })),
        client_retries: report.retries,
        shed_requests: session.pipeline().shed_requests(),
        degraded_batches: session.pipeline().degraded_batches(),
        quarantined_batches: session.pipeline().quarantined().len(),
        live_batches: stream.len(),
        events_injected,
    })
}
