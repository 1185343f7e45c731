//! Kill-tolerance of the sequencer-free quorum protocol, contrasted
//! with the eight sequencer protocols under the *identical* fault
//! schedule.
//!
//! * Killing one replica (a strict minority) before the first message
//!   is ever delivered leaves every quorum operation completing with
//!   sequentially-consistent results — while the same schedule drives
//!   each sequencer protocol's first write to [`ClusterError::NodeDown`],
//!   because the dead node is the paper's fixed sequencer.
//! * Killing a majority of the replicas fails quorum operations
//!   *cleanly*: `NodeDown` per operation, no poison, and shutdown still
//!   completes inside the deadline.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig, DEFAULT_STOP_DEADLINE};

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 100,
        p: 30,
        m_objects: 4,
    }
}

/// Kill the paper's fixed sequencer node at the very first send
/// attempt, before any message of the run is delivered.
fn kill_home(sys: &SystemParams) -> FaultSchedule {
    FaultSchedule::new().kill_at(1, sys.home())
}

fn cluster_with(kind: ProtocolKind, schedule: FaultSchedule) -> Cluster {
    let transport = FaultTransport::new(InProcTransport::new(sys().n_nodes()), schedule);
    Cluster::with_transport(sys(), kind, ShardConfig::default(), transport).expect("cluster")
}

#[test]
fn minority_kill_spares_quorum_and_downs_every_sequencer_protocol() {
    let sys = sys();

    // Quorum: node 3 (the would-be sequencer) is dead from the first
    // send on, yet every read and write from the three live replicas
    // completes, and each read returns the latest committed write —
    // the per-object sequential-consistency witness for a serialized
    // history.
    let cluster = cluster_with(ProtocolKind::Quorum, kill_home(&sys));
    let mut last: Vec<Option<Bytes>> = vec![None; sys.m_objects];
    for round in 0..12u64 {
        let writer = cluster.handle(NodeId((round % 3) as u16));
        let obj = ObjectId((round % sys.m_objects as u64) as u32);
        let value = Bytes::from(format!("round-{round}"));
        writer
            .write(obj, value.clone())
            .unwrap_or_else(|e| panic!("quorum write {round} with a dead replica: {e}"));
        last[obj.idx()] = Some(value);
        let reader = cluster.handle(NodeId(((round + 1) % 3) as u16));
        let seen = reader
            .read(obj)
            .unwrap_or_else(|e| panic!("quorum read {round} with a dead replica: {e}"));
        assert_eq!(
            Some(&seen),
            last[obj.idx()].as_ref(),
            "round {round}: read did not observe the latest committed write"
        );
    }
    assert!(
        cluster.poisoned().is_none(),
        "quorum: dead replica poisoned the cluster"
    );
    cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .unwrap_or_else(|e| panic!("quorum shutdown with a dead replica: {e}"));

    // Every sequencer protocol under the *same* schedule: the first
    // write needs the dead node and must fail with its identity —
    // degraded per operation, never poisoned.
    for kind in ProtocolKind::ALL {
        let cluster = cluster_with(kind, kill_home(&sys));
        let err = cluster
            .handle(NodeId(0))
            .write(ObjectId(0), Bytes::from_static(b"x"))
            .expect_err("write through a dead sequencer");
        assert!(
            matches!(err, ClusterError::NodeDown(n) if n == sys.home()),
            "{kind:?}: expected NodeDown({}), got {err}",
            sys.home()
        );
        assert!(cluster.poisoned().is_none(), "{kind:?}: poisoned");
        cluster
            .shutdown_within(DEFAULT_STOP_DEADLINE)
            .unwrap_or_else(|e| panic!("{kind:?}: shutdown with a dead sequencer: {e}"));
    }
}

#[test]
fn majority_kill_fails_quorum_operations_cleanly() {
    let sys = sys();
    // Two of four replicas dead: self plus the one live peer is two
    // votes, one short of the strict majority of three.
    let schedule = FaultSchedule::new()
        .kill_at(1, NodeId(2))
        .kill_at(1, sys.home());
    let cluster = cluster_with(ProtocolKind::Quorum, schedule);

    let err = cluster
        .handle(NodeId(0))
        .write(ObjectId(0), Bytes::from_static(b"x"))
        .expect_err("write without a reachable majority");
    assert!(
        matches!(err, ClusterError::NodeDown(_)),
        "expected NodeDown, got {err}"
    );

    // Degradation is per operation and not sticky: a later operation
    // from another live replica fails the same way, and reads are no
    // better off than writes (every quorum operation needs a majority).
    let err2 = cluster
        .handle(NodeId(1))
        .read(ObjectId(1))
        .expect_err("read without a reachable majority");
    assert!(
        matches!(err2, ClusterError::NodeDown(_)),
        "expected NodeDown, got {err2}"
    );

    assert!(
        cluster.poisoned().is_none(),
        "majority kill must degrade, not poison"
    );
    cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .expect("shutdown with a dead majority");
}
