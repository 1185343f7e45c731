//! Every node loop, and the TCP mesh's runner, runs under `SCHED_BATCH`:
//! a thread woken by a send must not preempt the sender mid-burst. Read
//! from the kernel's own view of this process's threads.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{EpollTransport, InProcTransport, Transport};
use repmem_runtime::{Cluster, ShardConfig};

/// `SCHED_BATCH` in `<sched.h>`.
const SCHED_BATCH: u32 = 3;

/// `repmem-mesh-runner` as the kernel keeps it: 15 bytes.
const RUNNER_COMM: &str = "repmem-mesh-run";

/// `(comm, policy)` of every thread of this process. The policy is
/// field 41 of `stat`, the 39th after the `)` that closes `comm`.
fn threads() -> Vec<(String, u32)> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| {
            let dir = task.ok()?.path();
            // A thread may exit between the listing and the reads.
            let comm = std::fs::read_to_string(dir.join("comm")).ok()?;
            let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
            let after = &stat[stat.rfind(')')? + 1..];
            let policy = after.split_whitespace().nth(38)?.parse().ok()?;
            Some((comm.trim_end().to_string(), policy))
        })
        .collect()
}

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 64,
        p: 16,
        m_objects: 4,
    }
}

fn check(transport: impl Transport, runners: usize) {
    let sys = sys();
    let cfg = ShardConfig::new(2);
    let nodes = cfg.total_nodes(&sys);
    let cluster =
        Cluster::with_transport(sys, ProtocolKind::WriteThrough, cfg, transport).expect("cluster");
    // The writes cross the transport (over the mesh, through its
    // runner), and `settle` hears from every node loop at an idle point,
    // so every thread checked below has run past its first statement.
    for o in 0..sys.m_objects as u32 {
        cluster
            .handle(NodeId(0))
            .write(ObjectId(o), Bytes::from_static(b"x"))
            .expect("write");
    }
    cluster.settle().expect("settle");

    let threads = threads();
    let named = |want: fn(&str) -> bool| -> Vec<&(String, u32)> {
        threads.iter().filter(|(comm, _)| want(comm)).collect()
    };
    let node_threads = named(|comm| comm.starts_with("repmem-node-"));
    assert!(
        node_threads.len() >= nodes,
        "{} threads named repmem-node-*, want {nodes}: {threads:?}",
        node_threads.len()
    );
    let runner_threads = named(|comm| comm == RUNNER_COMM);
    assert_eq!(runner_threads.len(), runners, "{threads:?}");
    for (comm, policy) in node_threads.into_iter().chain(runner_threads) {
        assert_eq!(*policy, SCHED_BATCH, "{comm} is not under SCHED_BATCH");
    }
    cluster.shutdown().expect("shutdown");
}

/// One test, both transports in turn: a second cluster spawning threads
/// in parallel could be caught between naming a thread and setting its
/// policy.
#[test]
fn node_loops_and_the_mesh_runner_run_under_sched_batch() {
    let nodes = ShardConfig::new(2).total_nodes(&sys());
    check(InProcTransport::new(nodes), 0);
    check(EpollTransport::loopback(nodes).expect("loopback mesh"), 1);
}
