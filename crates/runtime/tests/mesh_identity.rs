//! Op-identity of the TCP mesh.
//!
//! The mesh puts real sockets, a wire codec and an epoll event loop
//! under the cluster, but it is a *transport*, not a protocol change:
//! for every one of the nine protocols, a serialized workload must
//! produce the same per-operation cost deltas, message totals, and
//! final replicas as `InProcTransport` — the reference the whole
//! closed ≡ engine ≡ sim ≡ runtime chain ends in. Any divergence means
//! the event loop reordered, dropped, or duplicated envelopes.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{OpKind, ProtocolKind, Scenario, SystemParams};
use repmem_net::{EpollTransport, InProcTransport, Transport};
use repmem_runtime::{Cluster, ShardConfig};
use repmem_workload::{OpEvent, ScenarioSampler};

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 100,
        p: 30,
        m_objects: 12,
    }
}

fn workload(sys: &SystemParams, ops: usize) -> Vec<OpEvent> {
    let sc = Scenario::read_disturbance(0.4, 0.2, 2).expect("valid Table 7 cell");
    ScenarioSampler::new(&sc, sys.m_objects, 41)
        .take(ops)
        .collect()
}

struct RunTrace {
    per_op_cost: Vec<u64>,
    total_messages: u64,
    finals: Vec<Vec<Bytes>>,
}

/// Serialized run of the seeded workload over `transport`, settling
/// after each operation so costs attribute per-op.
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
        total_messages,
        finals,
    }
}

#[test]
fn epoll_mesh_is_op_for_op_identical_to_in_process() {
    let sys = sys();
    let ops = workload(&sys, 24);
    for kind in ProtocolKind::EVERY {
        let inproc = run(kind, InProcTransport::new(sys.n_nodes()), &ops);
        let epoll = run(
            kind,
            EpollTransport::loopback(sys.n_nodes()).expect("epoll mesh"),
            &ops,
        );
        assert_eq!(
            inproc.per_op_cost, epoll.per_op_cost,
            "{kind:?}: the TCP mesh changed per-operation costs"
        );
        assert_eq!(inproc.total_messages, epoll.total_messages, "{kind:?}");
        assert_eq!(inproc.finals, epoll.finals, "{kind:?}");
    }
}
