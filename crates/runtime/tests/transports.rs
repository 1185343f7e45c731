//! Transport-agreement suite: the cluster's observable behaviour —
//! per-operation cost deltas, message counts, final replica state —
//! must be identical whether its FIFO links are in-process callbacks,
//! loopback TCP sockets, or delay-injected wrappers; and a metered
//! stack's per-class wire counters must reconcile exactly with the
//! cluster's own cost-model accounting.

// Two of the four cases run over the epoll-based TCP mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{OpKind, ProtocolKind, Scenario, SystemParams};
use repmem_net::{
    EpollTransport, FaultSchedule, FaultTransport, InProcTransport, MeteredTransport, Transport,
};
use repmem_runtime::{Cluster, ShardConfig};
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

/// Stall every send of a run for `dur` on its sender's thread: links
/// get slower, never reordered.
fn delayed(dur: Duration) -> FaultSchedule {
    FaultSchedule::new().delay_burst_at(1, dur, u64::MAX)
}

struct RunTrace {
    per_op_cost: Vec<u64>,
    total_cost: u64,
    total_messages: u64,
    finals: Vec<Vec<Bytes>>,
}

/// Serialized run of the seeded workload: one operation at a time,
/// settling in between, recording each operation's settled cost delta.
fn run(kind: ProtocolKind, transport: impl Transport, ops: &[OpEvent]) -> RunTrace {
    let cluster =
        Cluster::with_transport(sys(), kind, ShardConfig::default(), transport).expect("cluster");
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
    let dump = cluster.shutdown().expect("shutdown");
    assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
    let finals = dump
        .copies
        .iter()
        .map(|node| node.iter().map(|r| r.data.clone()).collect())
        .collect();
    RunTrace {
        per_op_cost,
        total_cost,
        total_messages,
        finals,
    }
}

#[test]
fn tcp_loopback_agrees_with_in_process_exactly() {
    let sys = sys();
    let ops = workload(&sys, 40);
    for kind in [
        ProtocolKind::WriteOnce,
        ProtocolKind::WriteThroughV,
        ProtocolKind::Berkeley,
    ] {
        let inproc = run(kind, InProcTransport::new(sys.n_nodes()), &ops);
        let tcp = run(
            kind,
            EpollTransport::loopback(sys.n_nodes()).expect("loopback mesh"),
            &ops,
        );
        assert_eq!(
            inproc.per_op_cost, tcp.per_op_cost,
            "{kind:?}: per-operation costs diverged between transports"
        );
        assert_eq!(inproc.total_cost, tcp.total_cost, "{kind:?}");
        assert_eq!(inproc.total_messages, tcp.total_messages, "{kind:?}");
        assert_eq!(
            inproc.finals, tcp.finals,
            "{kind:?}: final replica contents diverged"
        );
    }
}

#[test]
fn metered_transport_reconciles_with_the_cost_model() {
    let sys = sys();
    let ops = workload(&sys, 40);
    for kind in [ProtocolKind::WriteOnce, ProtocolKind::Illinois] {
        let transport = MeteredTransport::new(InProcTransport::new(sys.n_nodes()));
        let meter = transport.stats();
        let trace = run(kind, transport, &ops);

        // Message totals: the meter saw exactly the messages the cluster
        // charged for.
        let total = meter.total();
        assert_eq!(total.msgs(), trace.total_messages, "{kind:?}");

        // Cost reconstruction: per-class message counts folded through
        // the paper's 1 / P+1 / S+1 charges reproduce the cluster's cost
        // counter exactly.
        assert_eq!(meter.model_cost(&sys), trace.total_cost, "{kind:?}");

        // Byte decomposition: the aggregate equals the sum over directed
        // links, class by class — nothing is double-counted or dropped.
        let n = sys.n_nodes();
        let mut by_link_msgs = 0u64;
        let mut by_link_bytes = 0u64;
        for from in 0..n as u16 {
            for to in 0..n as u16 {
                let link = meter.link(repmem_core::NodeId(from), repmem_core::NodeId(to));
                by_link_msgs += link.msgs();
                by_link_bytes += link.bytes();
                if from == to {
                    assert_eq!(link.msgs(), 0, "self-delivery must not be metered");
                }
            }
        }
        assert_eq!(by_link_msgs, total.msgs(), "{kind:?}");
        assert_eq!(by_link_bytes, total.bytes(), "{kind:?}");

        // Any payload-bearing frame is strictly heavier on the wire than
        // any token-only frame (same token fields plus a payload
        // section), so the class averages must separate cleanly.
        let [token, params, copy] = total.classes;
        if params.msgs > 0 && token.msgs > 0 {
            assert!(
                params.bytes * token.msgs > token.bytes * params.msgs,
                "{kind:?}: params frames should out-weigh token frames on average"
            );
        }
        if copy.msgs > 0 && token.msgs > 0 {
            assert!(
                copy.bytes * token.msgs > token.bytes * copy.msgs,
                "{kind:?}: copy frames should out-weigh token frames on average"
            );
        }
    }
}

#[test]
fn delayed_links_change_timing_but_not_outcome() {
    let sys = sys();
    let ops = workload(&sys, 30);
    let kind = ProtocolKind::WriteOnce;
    let base = run(kind, InProcTransport::new(sys.n_nodes()), &ops);
    let delayed = run(
        kind,
        FaultTransport::new(
            InProcTransport::new(sys.n_nodes()),
            delayed(Duration::from_micros(150)),
        ),
        &ops,
    );
    assert_eq!(base.per_op_cost, delayed.per_op_cost);
    assert_eq!(base.total_cost, delayed.total_cost);
    assert_eq!(base.finals, delayed.finals);
}

#[test]
fn wrappers_compose_and_the_meter_counts_through_the_stack() {
    let sys = sys();
    // Delay over meter over TCP loopback: the meter, taken before
    // wrapping, still counts every message of the stack.
    let metered =
        MeteredTransport::new(EpollTransport::loopback(sys.n_nodes()).expect("loopback mesh"));
    let meter = metered.stats();
    let transport = FaultTransport::new(metered, delayed(Duration::from_micros(50)));
    let cluster = Cluster::with_transport(
        sys,
        ProtocolKind::Synapse,
        ShardConfig::default(),
        transport,
    )
    .expect("cluster");
    let h = cluster.handle(repmem_core::NodeId(0));
    h.write(repmem_core::ObjectId(0), Bytes::from_static(b"x"))
        .expect("write");
    let _ = h.read(repmem_core::ObjectId(0)).expect("read");
    cluster.settle().expect("settle");
    assert_eq!(meter.total().msgs(), cluster.total_messages());
    assert_eq!(meter.model_cost(&cluster.system()), cluster.total_cost());
    cluster.shutdown().expect("shutdown");
}
