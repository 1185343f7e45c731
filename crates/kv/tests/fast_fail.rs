//! Fast-fail on dead shards.
//!
//! A send to a dead node fails at once with `Down`, and the operation
//! that needed the node fails with `NodeDown`. So a multi-key `scan`
//! touching a dead shard returns `NodeDown` immediately, while keys on
//! live shards keep working — from every node of the cluster, not only
//! the first to run into the death.

use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_kv::{KeySpace, KvStore};
use repmem_net::{FaultHandle, FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig};
use std::time::{Duration, Instant};

/// Far beyond a failed send's cost, far below a hang.
const FAST: Duration = Duration::from_millis(300);

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 2,
        s: 64,
        p: 16,
        m_objects: 64,
    }
}

/// A two-shard Write-Through cluster (shards on nodes 2 and 3) over a
/// fault-injected in-process mesh.
fn cluster() -> (Cluster, FaultHandle, ShardConfig) {
    let cfg = ShardConfig::new(2).with_window(4);
    let transport = FaultTransport::new(
        InProcTransport::new(cfg.total_nodes(&sys())),
        FaultSchedule::new(),
    );
    let fault = transport.handle();
    let cluster = Cluster::with_transport(sys(), ProtocolKind::WriteThrough, cfg, transport)
        .expect("cluster");
    (cluster, fault, cfg)
}

#[test]
fn scan_touching_a_dead_shard_fails_fast() {
    let (cluster, fault, cfg) = cluster();
    let space = KeySpace::new(64, 42);
    let store = KvStore::new(cluster.handle(NodeId(0)), space);

    // Partition a pool of keys by home.
    let dead = NodeId(2);
    let mut dead_keys = Vec::new();
    let mut live_keys = Vec::new();
    for i in 0..64u64 {
        let key = format!("user{i:012}");
        if cfg.home_of(&sys(), space.object_of(&key)) == dead {
            dead_keys.push(key);
        } else {
            live_keys.push(key);
        }
    }
    assert!(dead_keys.len() >= 4, "want several keys homed on {dead:?}");
    assert!(live_keys.len() >= 4);

    // Live shard works.
    store.put(&live_keys[0], b"v").expect("live put");

    fault.kill(dead);
    let start = Instant::now();
    let err = store.put(&dead_keys[0], b"v").expect_err("dead put");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(start.elapsed() < FAST, "took {:?}", start.elapsed());

    // A scan over eight keys, four of them homed on the dead shard.
    let mixed: Vec<&str> = live_keys[..4]
        .iter()
        .chain(dead_keys[..4].iter())
        .map(String::as_str)
        .collect();
    let start = Instant::now();
    let err = store.scan(mixed).expect_err("scan over dead shard");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(start.elapsed() < FAST, "took {:?}", start.elapsed());

    // Reads homed on live shards still succeed after the failure.
    assert!(store.get(&live_keys[0]).expect("live get").is_some());

    // Nothing here waits on the dead shard at teardown: in-flight ops
    // were failed, and shutdown tolerates the dead node.
    let _ = cluster.shutdown();
}

/// The death is not news to one node only: once node 0 has run into the
/// dead shard, an operation from a handle on another node fails just as
/// fast, with the same peer named.
#[test]
fn first_op_from_another_node_fails_fast_too() {
    let (cluster, fault, cfg) = cluster();
    let space = KeySpace::new(64, 42);
    let store0 = KvStore::new(cluster.handle(NodeId(0)), space);
    let store1 = KvStore::new(cluster.handle(NodeId(1)), space);

    let dead = NodeId(2);
    let dead_key = (0..64u64)
        .map(|i| format!("user{i:012}"))
        .find(|k| cfg.home_of(&sys(), space.object_of(k)) == dead)
        .expect("a key homed on the dead shard");

    fault.kill(dead);
    let err = store0.put(&dead_key, b"v").expect_err("dead put");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );

    let start = Instant::now();
    let err = store1
        .put(&dead_key, b"v")
        .expect_err("dead put via node 1");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == dead),
        "{err:?}"
    );
    assert!(
        start.elapsed() < FAST,
        "first op from another node took {:?}",
        start.elapsed()
    );

    let _ = cluster.shutdown();
}
