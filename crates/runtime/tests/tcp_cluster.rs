//! Multi-process acceptance test: an `N = 3` cluster running as four
//! separate OS processes (`repmem-node` over TCP on localhost) must
//! reproduce the in-process runtime *operation for operation* — same
//! settled cost and message-count delta after every op of the paper's
//! Table 7 workload, and the same final replica contents — for the same
//! seed. This is the end-to-end check that the wire codec, the TCP mesh
//! (its control-connection handoff included: every operation here
//! travels over one) and the Lamport version clock are all
//! observationally equivalent to the shared-memory path.

// `remote` and `repmem-node` run on the epoll-based TCP mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, OpKind, ProtocolKind, Scenario, SystemParams};
use repmem_runtime::remote::RemoteCluster;
use repmem_runtime::Cluster;
use repmem_workload::{OpEvent, ScenarioSampler};
use std::path::Path;

/// Table 7 read-disturbance cell driven through both runtimes. The
/// scenario has a single writing actor (the center, node 0), so write
/// versions are totally ordered by construction under both the shared
/// counter and the per-process Lamport clocks.
fn workload(sys: &SystemParams, ops: usize) -> Vec<OpEvent> {
    let sc = Scenario::read_disturbance(0.4, 0.2, 2).expect("valid Table 7 cell");
    ScenarioSampler::new(&sc, sys.m_objects, 1993)
        .take(ops)
        .collect()
}

fn write_data(i: usize, node: NodeId) -> Bytes {
    Bytes::from(format!("op{i}@{node}"))
}

/// Per-operation settled `(cost, messages)` deltas plus the final dump's
/// per-node data bytes.
struct Trace {
    per_op: Vec<(u64, u64)>,
    finals: Vec<Vec<Bytes>>,
}

fn run_in_process(sys: SystemParams, kind: ProtocolKind, ops: &[OpEvent]) -> Trace {
    let cluster = Cluster::new(sys, kind);
    let mut per_op = Vec::with_capacity(ops.len());
    let mut before = (0, 0);
    for (i, ev) in ops.iter().enumerate() {
        let h = cluster.handle(ev.node);
        match ev.op {
            OpKind::Read => {
                let _ = h.read(ev.object).expect("read");
            }
            OpKind::Write => h.write(ev.object, write_data(i, ev.node)).expect("write"),
        }
        let after = cluster.settle().expect("settle");
        per_op.push((after.0 - before.0, after.1 - before.1));
        before = after;
    }
    let dump = cluster.shutdown().expect("shutdown");
    assert!(dump.is_coherent(), "{kind:?}: in-process replicas diverged");
    Trace {
        per_op,
        finals: finals_of(&dump.copies),
    }
}

fn run_multi_process(sys: SystemParams, kind: ProtocolKind, ops: &[OpEvent]) -> Trace {
    let bin = Path::new(env!("CARGO_BIN_EXE_repmem-node"));
    let mut cluster = RemoteCluster::launch(sys, kind, bin).expect("launch node processes");
    let mut per_op = Vec::with_capacity(ops.len());
    let mut before = (0, 0);
    for (i, ev) in ops.iter().enumerate() {
        match ev.op {
            OpKind::Read => {
                let _ = cluster.read(ev.node, ev.object).expect("remote read");
            }
            OpKind::Write => cluster
                .write(ev.node, ev.object, write_data(i, ev.node))
                .expect("remote write"),
        }
        let after = cluster.settle().expect("settle");
        per_op.push((after.0 - before.0, after.1 - before.1));
        before = after;
    }
    let dump = cluster.shutdown().expect("remote shutdown");
    assert!(
        dump.is_coherent(),
        "{kind:?}: multi-process replicas diverged"
    );
    Trace {
        per_op,
        finals: finals_of(&dump.copies),
    }
}

fn finals_of(copies: &[Vec<repmem_runtime::ReplicaSnap>]) -> Vec<Vec<Bytes>> {
    copies
        .iter()
        .map(|node| node.iter().map(|r| r.data.clone()).collect())
        .collect()
}

#[test]
fn four_processes_match_the_in_process_runtime_operation_for_operation() {
    let sys = SystemParams::table7(); // N=3 → 4 OS processes
    let ops = workload(&sys, 48);
    for kind in [ProtocolKind::WriteOnce, ProtocolKind::WriteThroughV] {
        let local = run_in_process(sys, kind, &ops);
        let remote = run_multi_process(sys, kind, &ops);
        for (i, (l, r)) in local.per_op.iter().zip(&remote.per_op).enumerate() {
            assert_eq!(
                l, r,
                "{kind:?}: op {i} ({:?}) cost/message delta diverged",
                ops[i]
            );
        }
        assert_eq!(
            local.finals, remote.finals,
            "{kind:?}: final replica contents diverged"
        );
    }
}

#[test]
fn remote_cluster_reports_operation_errors_instead_of_hanging() {
    let sys = SystemParams {
        n_clients: 2,
        s: 32,
        p: 8,
        m_objects: 2,
    };
    let bin = Path::new(env!("CARGO_BIN_EXE_repmem-node"));
    let mut cluster = RemoteCluster::launch(sys, ProtocolKind::WriteThrough, bin).expect("launch");
    cluster
        .write(
            NodeId(0),
            repmem_core::ObjectId(0),
            Bytes::from_static(b"ok"),
        )
        .expect("valid write");
    // An out-of-range object poisons the target node; the error must come
    // back over the control link as an OpDone failure, not a hang.
    let err = cluster
        .write(
            NodeId(1),
            repmem_core::ObjectId(sys.m_objects as u32 + 3),
            Bytes::from_static(b"boom"),
        )
        .expect_err("out-of-range object must fail");
    let msg = err.to_string();
    assert!(msg.contains("poison") || msg.contains("object"), "{msg}");
}
