//! Fast-fail on dead shards.
//!
//! With a non-zero retry deadline, the *first* operation against an
//! unreachable shard pays the full deadline — that is failure detection.
//! Every later send to a node already in the cluster's dead set is
//! promoted to a permanent failure after a single attempt, so a
//! multi-key `scan` touching the dead shard returns `NodeDown`
//! immediately instead of burning one deadline per key.

use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_kv::{KeySpace, KvStore};
use repmem_net::{FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, RecoveryPolicy, ShardConfig};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_millis(400);

#[test]
fn scan_touching_a_dead_shard_fails_fast() {
    let sys = SystemParams {
        n_clients: 2,
        s: 64,
        p: 16,
        m_objects: 64,
    };
    let cfg = ShardConfig::new(2).with_window(4);
    let schedule = FaultSchedule::new();
    let transport = FaultTransport::new(InProcTransport::new(cfg.total_nodes(&sys)), schedule);
    let fault = transport.handle();
    let policy = RecoveryPolicy::with_deadline(DEADLINE);
    let cluster = Cluster::with_recovery(sys, ProtocolKind::WriteThrough, cfg, transport, policy)
        .expect("cluster");
    let space = KeySpace::new(64, 42);
    let store = KvStore::new(cluster.handle(NodeId(0)), space);

    // Shards live on nodes 2 and 3. Partition a pool of keys by home.
    let dead = NodeId(2);
    let mut dead_keys = Vec::new();
    let mut live_keys = Vec::new();
    for i in 0..64u64 {
        let key = format!("user{i:012}");
        if cfg.home_of(&sys, space.object_of(&key)) == dead {
            dead_keys.push(key);
        } else {
            live_keys.push(key);
        }
    }
    assert!(dead_keys.len() >= 4, "want several keys homed on {dead:?}");
    assert!(live_keys.len() >= 4);

    // Live shard works.
    store.put(&live_keys[0], b"v").expect("live put");

    // Cut node 0 off from the dead shard. The first op pays the full
    // retry deadline — that's detection, not a bug.
    fault.sever(NodeId(0), dead);
    let start = Instant::now();
    let err = store.put(&dead_keys[0], b"v").expect_err("dead put");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(
        start.elapsed() >= DEADLINE,
        "first failure should wait out the deadline (took {:?})",
        start.elapsed()
    );

    // Now a scan over eight keys, four of them homed on the dead shard.
    // Without the fast-fail path this would cost four deadlines
    // (>= 1.6 s); with it, the whole scan fails in well under one.
    let mixed: Vec<&str> = live_keys[..4]
        .iter()
        .chain(dead_keys[..4].iter())
        .map(String::as_str)
        .collect();
    let start = Instant::now();
    let err = store.scan(mixed).expect_err("scan over dead shard");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(
        elapsed < Duration::from_millis(300),
        "scan should fast-fail, took {elapsed:?}"
    );

    // Reads homed on live shards still succeed after the failure.
    assert!(store.get(&live_keys[0]).expect("live get").is_some());

    // Nothing here waits on the dead shard at teardown: in-flight ops
    // were failed, and shutdown tolerates the severed link.
    let _ = cluster.shutdown();
}

/// The dead-peer set is cluster-wide, not per node loop: once *one*
/// node has paid the retry deadline discovering a dead shard, the first
/// operation from a handle on a *different* node fast-fails too —
/// before this, every node paid the full deadline as its own private
/// detection (the documented first-op stall from the recovery PR).
#[test]
fn first_op_from_another_node_rides_the_shared_dead_set() {
    let sys = SystemParams {
        n_clients: 2,
        s: 64,
        p: 16,
        m_objects: 64,
    };
    let cfg = ShardConfig::new(2).with_window(4);
    let transport = FaultTransport::new(
        InProcTransport::new(cfg.total_nodes(&sys)),
        FaultSchedule::new(),
    );
    let fault = transport.handle();
    let policy = RecoveryPolicy::with_deadline(DEADLINE);
    let cluster = Cluster::with_recovery(sys, ProtocolKind::WriteThrough, cfg, transport, policy)
        .expect("cluster");
    let space = KeySpace::new(64, 42);
    let store0 = KvStore::new(cluster.handle(NodeId(0)), space);
    let store1 = KvStore::new(cluster.handle(NodeId(1)), space);

    let dead = NodeId(2);
    let dead_key = (0..64u64)
        .map(|i| format!("user{i:012}"))
        .find(|k| cfg.home_of(&sys, space.object_of(k)) == dead)
        .expect("a key homed on the dead shard");

    // The shard dies for everyone: both client nodes lose their link.
    fault.sever(NodeId(0), dead);
    fault.sever(NodeId(1), dead);

    // Node 0 pays the deadline: that is detection, and it publishes the
    // death in the cluster-wide dead set.
    let start = Instant::now();
    let err = store0.put(&dead_key, b"v").expect_err("dead put");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(
        start.elapsed() >= DEADLINE,
        "first failure should wait out the deadline (took {:?})",
        start.elapsed()
    );

    // Node 1 has never talked to the dead shard, so its own known-down
    // set is empty — but the shared hint makes its *first* operation
    // fail in a single attempt instead of a second full deadline.
    let start = Instant::now();
    let err = store1
        .put(&dead_key, b"v")
        .expect_err("dead put via node 1");
    let elapsed = start.elapsed();
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(
        elapsed < DEADLINE / 2,
        "first op from another node should ride the shared dead set, took {elapsed:?}"
    );

    let _ = cluster.shutdown();
}
