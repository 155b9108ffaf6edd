//! End-to-end pipeline test: clients batch transactions, Raft-lite agrees
//! on the order over a lossy network, and independent replicas running
//! different Prognosticator variants all converge to the same state.

use prognosticator::consensus::{Batcher, NetConfig, RaftCluster, RaftTiming};
use prognosticator::core::{baselines, Catalog, Replica, SchedulerConfig, TxRequest};
use prognosticator::storage::EpochStore;
use prognosticator::workloads::{DeterministicRng, TpccConfig, TpccWorkload};
use std::sync::Arc;
use std::time::Duration;

fn small_tpcc() -> (Arc<Catalog>, Arc<TpccWorkload>) {
    let mut catalog = Catalog::new();
    let config = TpccConfig {
        warehouses: 2,
        districts: 4,
        items: 50,
        customers: 10,
        nurand: true,
    };
    let workload = TpccWorkload::register(&mut catalog, config).expect("registers");
    (Arc::new(catalog), Arc::new(workload))
}

fn replica_with(
    config: SchedulerConfig,
    catalog: &Arc<Catalog>,
    workload: &TpccWorkload,
) -> Replica {
    let store = Arc::new(EpochStore::new());
    workload.populate(&store);
    Replica::with_store(config, Arc::clone(catalog), store)
}

#[test]
fn batches_flow_through_consensus_to_identical_replicas() {
    let (catalog, workload) = small_tpcc();

    // Consensus over a 5%-lossy network.
    let cluster: RaftCluster<Vec<TxRequest>> = RaftCluster::new(
        3,
        NetConfig { drop_prob: 0.05, ..NetConfig::default() },
        RaftTiming::default(),
        0xABCD,
    );
    cluster.wait_for_leader(Duration::from_secs(10)).expect("leader");

    // Client: batch by size and propose until committed.
    const BATCHES: usize = 6;
    const BATCH_SIZE: usize = 32;
    let mut rng = DeterministicRng::new(31);
    let mut batcher: Batcher<TxRequest> =
        Batcher::new(Duration::from_millis(10), BATCH_SIZE);
    let mut committed = 0;
    while committed < BATCHES {
        if let Some(batch) = batcher.push(workload.gen_tx(&mut rng)) {
            assert!(
                cluster.propose_until_committed(batch, Duration::from_secs(10)),
                "batch commits despite loss"
            );
            committed += 1;
        }
    }

    // Three replicas, three *different* Prognosticator variants, each
    // consuming a different node's committed log. MQ/1Q and the helper
    // optimization must not affect the final state — only SF/MF policy
    // must match for state equivalence (retry order differs).
    let configs =
        [baselines::mq_mf(3), baselines::q1_mf(2), baselines::mq_mf(1)];
    let mut digests = Vec::new();
    for (node, config) in configs.into_iter().enumerate() {
        assert!(cluster.wait_for_committed(node, BATCHES, Duration::from_secs(10)));
        let mut replica = replica_with(config, &catalog, &workload);
        let mut total = 0;
        for entry in cluster.committed(node) {
            total += replica.execute_batch(entry.payload).committed;
        }
        assert_eq!(total, BATCHES * BATCH_SIZE, "node {node} commits everything");
        digests.push(replica.state_digest());
        replica.shutdown();
    }
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "replicas with different thread configurations must agree: {digests:?}"
    );
}

#[test]
fn consensus_log_prefixes_agree_under_partitions() {
    let cluster: RaftCluster<u64> =
        RaftCluster::new(3, NetConfig::default(), RaftTiming::default(), 7);
    cluster.wait_for_leader(Duration::from_secs(10)).expect("leader");
    for i in 0..5 {
        assert!(cluster.propose_until_committed(i, Duration::from_secs(10)));
    }
    // Partition a follower, keep committing, heal, check convergence.
    let leader = cluster.leader().expect("leader");
    let follower = (0..3).find(|&n| n != leader).expect("one follower");
    cluster.net().isolate(follower);
    for i in 5..10 {
        assert!(cluster.propose_until_committed(i, Duration::from_secs(10)));
    }
    cluster.net().reconnect(follower);
    assert!(cluster.wait_for_committed(follower, 10, Duration::from_secs(10)));
    let l: Vec<u64> = cluster.committed(leader).iter().map(|e| e.payload).collect();
    let f: Vec<u64> = cluster.committed(follower).iter().map(|e| e.payload).collect();
    let min = l.len().min(f.len());
    assert_eq!(l[..min], f[..min]);
    assert!(f.len() >= 10);
}

#[test]
fn replica_stream_survives_many_batches() {
    // A longer soak: 30 batches through two replicas with different
    // worker counts; digests must match after every batch.
    let (catalog, workload) = small_tpcc();
    let mut a = replica_with(baselines::mq_sf(4), &catalog, &workload);
    let mut b = replica_with(baselines::mq_sf(2), &catalog, &workload);
    let mut rng = DeterministicRng::new(77);
    for batch_no in 0..30 {
        let batch = workload.gen_batch(&mut rng, 24);
        let oa = a.execute_batch(batch.clone());
        let ob = b.execute_batch(batch);
        assert_eq!(oa.committed, 24, "batch {batch_no}");
        assert_eq!(ob.committed, 24, "batch {batch_no}");
        assert_eq!(a.state_digest(), b.state_digest(), "batch {batch_no}");
    }
    a.shutdown();
    b.shutdown();
}
