//! Deterministic fault-schedule harness: the cluster must ride out
//! scripted link failures without observable damage.
//!
//! * A sever-then-restore blackout of every client↔sequencer link
//!   (every link, for Quorum, which has no sequencer), triggered at
//!   fixed send counts, must leave a serialized workload's
//!   per-operation costs, message totals and final replica state
//!   **byte-identical** to the fault-free run — for all nine
//!   protocols. Retried sends advance the same send counter that
//!   triggers the restore, so the schedule is self-healing and needs no
//!   wall clock.
//! * Permanently killing one passive client degrades (its updates are
//!   dropped) but never poisons the cluster or wedges shutdown.
//! * Permanently killing the sequencer fails the affected operations
//!   with [`ClusterError::NodeDown`] — per-operation degradation, not
//!   cluster-wide poison — and shutdown still completes in time.

use bytes::Bytes;
use repmem_core::{CopyState, NodeId, ObjectId, OpKind, ProtocolKind, Scenario, SystemParams};
use repmem_net::{FaultHandle, FaultSchedule, FaultTransport, InProcTransport};
use repmem_runtime::{Cluster, ClusterError, RecoveryPolicy, ShardConfig, DEFAULT_STOP_DEADLINE};
use repmem_workload::{OpEvent, ScenarioSampler};
use std::time::Duration;

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 100,
        p: 30,
        m_objects: 8,
    }
}

fn workload(sys: &SystemParams, ops: usize) -> Vec<OpEvent> {
    let sc = Scenario::read_disturbance(0.3, 0.1, 2).expect("valid scenario");
    ScenarioSampler::new(&sc, sys.m_objects, 42)
        .take(ops)
        .collect()
}

/// Retry policy for the fault runs: a generous deadline (faults here
/// heal in a few attempts).
fn retry_policy() -> RecoveryPolicy {
    RecoveryPolicy::with_deadline(Duration::from_secs(5))
}

/// A cluster of `sys()` over a fault-injected in-process mesh, with
/// `window` operations in flight per node, and its fault controls.
fn start(kind: ProtocolKind, window: usize, schedule: FaultSchedule) -> (Cluster, FaultHandle) {
    let transport = FaultTransport::new(InProcTransport::new(sys().n_nodes()), schedule);
    let faults = transport.handle();
    let cfg = ShardConfig::default().with_window(window);
    let cluster =
        Cluster::with_recovery(sys(), kind, cfg, transport, retry_policy()).expect("cluster");
    (cluster, faults)
}

type Replica = (CopyState, Bytes, u64, NodeId);

struct RunTrace {
    per_op_cost: Vec<u64>,
    total_cost: u64,
    total_messages: u64,
    /// Send *attempts* observed by the fault layer (retries included).
    sends: u64,
    /// `finals[node][object]`: the complete replica snapshot.
    finals: Vec<Vec<Replica>>,
}

/// Serialized run of the seeded workload over a fault-injected
/// in-process mesh, settling after every operation.
fn run(kind: ProtocolKind, schedule: FaultSchedule, ops: &[OpEvent]) -> RunTrace {
    let (cluster, faults) = start(kind, 1, schedule);
    let mut per_op_cost = Vec::with_capacity(ops.len());
    let mut before = 0u64;
    for (i, ev) in ops.iter().enumerate() {
        let h = cluster.handle(ev.node);
        match ev.op {
            OpKind::Read => {
                let _ = h.read(ev.object).expect("read");
            }
            OpKind::Write => h
                .write(ev.object, Bytes::from(format!("op{i}@{}", ev.node)))
                .expect("write"),
        }
        let (after, _) = cluster.settle().expect("settle");
        per_op_cost.push(after - before);
        before = after;
    }
    let total_cost = cluster.total_cost();
    let total_messages = cluster.total_messages();
    let sends = faults.sends();
    let dump = cluster.shutdown().expect("shutdown");
    assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
    let finals = dump
        .copies
        .iter()
        .map(|node| {
            node.iter()
                .map(|r| (r.state, r.data.clone(), r.version, r.writer))
                .collect()
        })
        .collect();
    RunTrace {
        per_op_cost,
        total_cost,
        total_messages,
        sends,
        finals,
    }
}

/// Sever every link some operation must cross at send count `at` and
/// restore them all four attempts later: every client↔sequencer pair
/// for the sequencer protocols, every pair for those that poll all
/// replicas (Quorum's peer-to-peer votes would otherwise carry the
/// counter across the window without touching a severed link).
/// Whichever send crosses the trigger next fails, and its retries
/// advance the counter across the restore — the blackout always bites
/// and always heals, with no reference to time.
fn blackout(
    schedule: FaultSchedule,
    at: u64,
    sys: &SystemParams,
    kind: ProtocolKind,
) -> FaultSchedule {
    let n = sys.n_nodes() as u16;
    (0..n)
        .flat_map(|a| (a + 1..n).map(move |b| (NodeId(a), NodeId(b))))
        .filter(|&(_, b)| kind.polls_all_replicas() || b == sys.home())
        .fold(schedule, |s, (a, b)| {
            s.sever_at(at, a, b).restore_at(at + 4, a, b)
        })
}

#[test]
fn sever_then_restore_is_invisible_in_the_final_state() {
    let sys = sys();
    let ops = workload(&sys, 20);
    for kind in ProtocolKind::EVERY {
        let base = run(kind, FaultSchedule::new(), &ops);
        // Two blackout windows, placed by fractions of the fault-free
        // run's send count so they land mid-workload for any protocol.
        let early = (base.sends / 4).max(1);
        let mid = (base.sends / 2).max(early + 8);
        let schedule = blackout(
            blackout(FaultSchedule::new(), early, &sys, kind),
            mid,
            &sys,
            kind,
        );
        let faulted = run(kind, schedule, &ops);
        assert!(
            faulted.sends > base.sends,
            "{kind:?}: no send was ever severed and retried"
        );
        assert_eq!(
            base.per_op_cost, faulted.per_op_cost,
            "{kind:?}: per-operation costs diverged under sever+restore"
        );
        assert_eq!(base.total_cost, faulted.total_cost, "{kind:?}");
        assert_eq!(base.total_messages, faulted.total_messages, "{kind:?}");
        assert_eq!(
            base.finals, faulted.finals,
            "{kind:?}: replica state diverged after sever+restore"
        );
    }
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
            Cluster::with_recovery(sys, kind, ShardConfig::default(), transport, retry_policy())
                .expect("cluster");
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
    let sys = sys();
    let home = sys.home();
    let zombie = NodeId(2);
    // Send 1 is the killed node's own request: the fault layer refuses
    // it with `Down(zombie)`. Sends 2-4 are node 0's request, refused
    // while its link is severed; send 5 is the retry that gets through.
    let schedule = FaultSchedule::new()
        .kill_at(1, zombie)
        .sever_at(2, NodeId(0), home)
        .restore_at(5, NodeId(0), home);
    let (cluster, _) = start(ProtocolKind::WriteThrough, 1, schedule);
    let err = cluster
        .handle(zombie)
        .write(ObjectId(0), Bytes::from_static(b"from the grave"))
        .expect_err("write from a killed node");
    assert!(
        matches!(err, ClusterError::NodeDown(n) if n == zombie),
        "{err}"
    );
    // Had that failure buried its destination, this transient refusal
    // would be promoted to `Down` on its first attempt and the write
    // lost to a sequencer that is alive and one retry away.
    cluster
        .handle(NodeId(0))
        .write(ObjectId(1), Bytes::from_static(b"x"))
        .expect("a severed link to a live sequencer is retried until it heals");
    cluster.settle().expect("settle");
    assert!(cluster.poisoned().is_none());
    cluster
        .shutdown_within(DEFAULT_STOP_DEADLINE)
        .expect("shutdown with a dead client");
}
