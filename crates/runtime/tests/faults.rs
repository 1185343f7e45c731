//! Deterministic fault-schedule harness: the cluster must ride out
//! scripted node deaths without observable damage.
//!
//! * Permanently killing one passive client degrades (its updates are
//!   dropped) but never poisons the cluster or wedges shutdown.
//! * Permanently killing the sequencer fails the affected operations
//!   with [`ClusterError::NodeDown`] — per-operation degradation, not
//!   cluster-wide poison — and shutdown still completes in time.
//! * A failed send buries the node the transport names, never a live
//!   peer that merely was the send's destination.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{FaultHandle, FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig, DEFAULT_STOP_DEADLINE};

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 100,
        p: 30,
        m_objects: 8,
    }
}

/// A cluster of `sys()` over a fault-injected in-process mesh, with
/// `window` operations in flight per node, and its fault controls.
fn start(kind: ProtocolKind, window: usize, schedule: FaultSchedule) -> (Cluster, FaultHandle) {
    let transport = FaultTransport::new(InProcTransport::new(sys().n_nodes()), schedule);
    let faults = transport.handle();
    let cfg = ShardConfig::default().with_window(window);
    let cluster = Cluster::with_transport(sys(), kind, cfg, transport).expect("cluster");
    (cluster, faults)
}

#[test]
fn killing_one_passive_client_never_wedges_the_cluster() {
    for kind in ProtocolKind::EVERY {
        let (cluster, faults) = start(kind, 1, FaultSchedule::new());
        // Node 2 never issues an operation, so it never owns anything;
        // after the kill it only ever misses broadcast updates.
        faults.kill(NodeId(2));
        let h0 = cluster.handle(NodeId(0));
        let h1 = cluster.handle(NodeId(1));
        for round in 0..6u64 {
            let obj = ObjectId((round % 3) as u32);
            h0.write(obj, Bytes::from(round.to_le_bytes().to_vec()))
                .unwrap_or_else(|e| panic!("{kind:?}: write with a dead bystander: {e}"));
            h1.read(obj)
                .unwrap_or_else(|e| panic!("{kind:?}: read with a dead bystander: {e}"));
        }
        cluster.settle().expect("settle");
        assert!(
            cluster.poisoned().is_none(),
            "{kind:?}: a dead bystander poisoned the cluster"
        );
        // The dead node's replicas are stale by design, so coherence is
        // not asserted — only a clean, in-deadline stop with no
        // stragglers and no poison.
        cluster
            .shutdown_within(DEFAULT_STOP_DEADLINE)
            .unwrap_or_else(|e| panic!("{kind:?}: shutdown with a dead client: {e}"));
    }
}

#[test]
fn killing_the_sequencer_degrades_per_operation_not_cluster_wide() {
    let sys = sys();
    for kind in [
        ProtocolKind::WriteThrough,
        ProtocolKind::Illinois,
        ProtocolKind::Dragon,
    ] {
        let (cluster, faults) = start(kind, 1, FaultSchedule::new());
        let h0 = cluster.handle(NodeId(0));
        h0.write(ObjectId(0), Bytes::from_static(b"warm"))
            .expect("warm-up write");
        cluster.settle().expect("settle");
        faults.kill(sys.home());
        // Fresh objects force a sequencer round-trip; the operation
        // fails with the peer's identity, and nothing is poisoned.
        let err = h0
            .write(ObjectId(1), Bytes::from_static(b"x"))
            .expect_err("write through a dead sequencer");
        assert!(
            matches!(err, ClusterError::NodeDown(n) if n == sys.home()),
            "{kind:?}: expected NodeDown({}), got {err}",
            sys.home()
        );
        assert!(
            cluster.poisoned().is_none(),
            "{kind:?}: poisoned by a dead peer"
        );
        // Degradation is per operation, not sticky: another node's write
        // (writes always need the sequencer; reads of an untouched
        // object hit the initially-valid local copy) fails the same way
        // instead of reporting a poisoned cluster.
        let err2 = cluster
            .handle(NodeId(1))
            .write(ObjectId(2), Bytes::from_static(b"y"))
            .expect_err("write through a dead sequencer");
        assert!(
            matches!(err2, ClusterError::NodeDown(_)),
            "{kind:?}: got {err2}"
        );
        assert!(cluster.poisoned().is_none(), "{kind:?}");
        cluster
            .shutdown_within(DEFAULT_STOP_DEADLINE)
            .unwrap_or_else(|e| panic!("{kind:?}: shutdown with a dead sequencer: {e}"));
    }
}

#[test]
fn dropped_broadcasts_surface_in_the_meter() {
    let sys = sys();
    // One write-through (sequencer broadcast) and one quorum
    // (initiator broadcast) representative: both keep sending to the
    // dead bystander, and every skipped leg must show up in the meter.
    for kind in [ProtocolKind::WriteThrough, ProtocolKind::Quorum] {
        let fault = FaultTransport::new(InProcTransport::new(sys.n_nodes()), FaultSchedule::new());
        let faults = fault.handle();
        let transport = repmem_net::MeteredTransport::new(fault);
        let meter = transport.stats();
        let cluster =
            Cluster::with_transport(sys, kind, ShardConfig::default(), transport).expect("cluster");
        faults.kill(NodeId(1));
        let h0 = cluster.handle(NodeId(0));
        for round in 0..6u64 {
            let obj = ObjectId((round % 3) as u32);
            h0.write(obj, Bytes::from(round.to_le_bytes().to_vec()))
                .unwrap_or_else(|e| panic!("{kind:?}: write with a dead bystander: {e}"));
        }
        cluster.settle().expect("settle");
        let total = meter.total();
        assert!(
            total.dropped() > 0,
            "{kind:?}: no dropped broadcast was counted"
        );
        // The cost model charges each logical message before its send,
        // so delivered + dropped must cover every charged message.
        assert_eq!(
            total.msgs() + total.dropped(),
            cluster.total_messages(),
            "{kind:?}: meter does not reconcile with the charged messages"
        );
        // Every drop points at the dead node.
        assert_eq!(
            meter.to_node(NodeId(1)).dropped(),
            total.dropped(),
            "{kind:?}: drops charged to a live link"
        );
        cluster
            .shutdown_within(DEFAULT_STOP_DEADLINE)
            .unwrap_or_else(|e| panic!("{kind:?}: shutdown with a dead bystander: {e}"));
    }
}

#[test]
fn an_operation_blocked_on_a_peer_somebody_else_buried_fails_at_the_nodes_own_discovery() {
    let sys = sys();
    let home = sys.home();
    // Send 1 is node 1's write request; send 2 is the sequencer's first
    // answer to it, which finds the sequencer dead: the request got
    // through, its grant never will.
    let schedule = FaultSchedule::new().kill_at(2, home);
    let (cluster, _) = start(ProtocolKind::Illinois, 2, schedule);
    let b = cluster.handle(NodeId(1));
    let blocked = b.write_async(ObjectId(0), Bytes::from_static(b"never granted"));
    cluster.settle().expect("settle");
    // Node 0 runs into the dead sequencer first and buries it.
    let err = cluster
        .handle(NodeId(0))
        .write(ObjectId(1), Bytes::from_static(b"x"))
        .expect_err("write through a dead sequencer");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == home),
        "{err}"
    );
    // Node 1 did not raise the flag, but its own first failed send must
    // still sweep: the blocked write fails there and then, with the
    // dead peer's name — not at shutdown, with node 1's.
    let err = b
        .write(ObjectId(2), Bytes::from_static(b"y"))
        .expect_err("write through a dead sequencer");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == home),
        "{err}"
    );
    cluster.settle().expect("settle");
    cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .expect("shutdown with a dead sequencer");
    let err = blocked.wait().expect_err("a write nobody can grant");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == home),
        "{err}"
    );
}

#[test]
fn a_killed_nodes_failed_sends_bury_the_killed_node_not_its_live_peers() {
    let zombie = NodeId(2);
    // Send 1 is the first leg of the killed node's own Quorum probe: the
    // fault layer refuses it, and every other leg, with `Down(zombie)`.
    let schedule = FaultSchedule::new().kill_at(1, zombie);
    let (cluster, _) = start(ProtocolKind::Quorum, 1, schedule);
    let orphan = cluster
        .handle(zombie)
        .write_async(ObjectId(0), Bytes::from_static(b"from the grave"));
    cluster.settle().expect("settle");
    // Had those failures buried their destinations, nodes 0, 1 and 3
    // would be in the dead set: node 0's round would count no live
    // voter beside itself and fail at its first failed leg, the one to
    // the zombie. Only the zombie is dead, and two of three peers vote.
    cluster
        .handle(NodeId(0))
        .write(ObjectId(1), Bytes::from_static(b"x"))
        .expect("a round with a strict minority dead completes");
    assert!(cluster.poisoned().is_none());
    cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .expect("shutdown with a dead replica");
    // The zombie's round waited on votes nobody could send it; it fails
    // at shutdown, in the zombie's own name.
    let err = orphan.wait().expect_err("a round from a killed node");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == zombie),
        "{err}"
    );
}
