//! `Cluster::settle` is exact: it returns once every envelope any node
//! sent has been handled and every node is idle — not when a counter
//! happened to hold still across a sleep — and `shutdown` drains
//! through it before it stops anything.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{FaultSchedule, FaultTransport, InProcTransport, Transport};
use repmem_runtime::{Cluster, ClusterError, RecoveryPolicy, ShardConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 8,
    }
}

/// A sender parked in `send_with_recovery`'s retry loop has counted
/// neither its send nor an idle point: `settle` must wait for it. If the
/// link never comes back, `settle` errors at its deadline, naming the
/// parked node, and leaves the cluster usable.
#[test]
fn settle_waits_for_a_sender_in_its_retry_loop_and_errors_if_it_never_leaves() {
    let sys = sys();
    let home = sys.home();
    let transport = FaultTransport::new(InProcTransport::new(sys.n_nodes()), FaultSchedule::new());
    let faults = transport.handle();
    let cluster = Cluster::with_recovery(
        sys,
        ProtocolKind::WriteThrough,
        ShardConfig::default(),
        transport,
        RecoveryPolicy::with_deadline(Duration::from_secs(120)),
    )
    .expect("cluster");
    faults.sever(NodeId(0), home);
    let write = cluster
        .handle(NodeId(0))
        .write_async(ObjectId(0), Bytes::from_static(b"x"));
    let retried = |more: u64| {
        let from = faults.sends();
        while faults.sends() < from + more {
            std::thread::yield_now();
        }
    };
    retried(3);

    // No restore: the deadline, not a hang — and not a false "settled".
    let start = Instant::now();
    let err = cluster
        .settle()
        .expect_err("settled around a retrying sender");
    assert_eq!(err, ClusterError::NodeDown(NodeId(0)));
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "{:?}",
        start.elapsed()
    );

    // A second `settle`, on its own thread, must outlast the blackout:
    // the flag is raised before the restore and read after the return.
    let restored = Arc::new(AtomicBool::new(false));
    let (started_tx, started_rx) = mpsc::channel();
    let settler = {
        let restored = Arc::clone(&restored);
        std::thread::spawn(move || {
            started_tx.send(()).expect("main is waiting");
            let settled = cluster.settle();
            (settled, restored.load(Ordering::SeqCst), cluster)
        })
    };
    started_rx.recv().expect("settler started");
    retried(5);
    restored.store(true, Ordering::SeqCst);
    faults.restore(NodeId(0), home);
    let (settled, after_restore, cluster) = settler.join().expect("settler");
    assert!(
        after_restore,
        "settle returned while the sender was still retrying"
    );
    // The whole wave has landed: P+1 to the sequencer, N-1 invalidations.
    assert_eq!(
        settled,
        Ok((sys.p + sys.n_clients as u64, sys.n_clients as u64))
    );
    write.wait().expect("the write went out after the restore");
    assert!(cluster.shutdown().expect("shutdown").is_coherent());
}

/// Once `settle` has returned nothing is in flight: the counters it
/// reported are the counters 50 ms later, whatever the protocol, whether
/// the links are in-process callbacks or TCP sockets, and whether one
/// home sequences everything or two client-driven shards split the
/// objects with eight operations in flight per node.
#[test]
fn after_settle_the_counters_stay_put() {
    let sys = sys();
    for cfg in [
        ShardConfig::default().with_window(4),
        ShardConfig::new(2).with_window(8).exclusive(),
    ] {
        let nodes = cfg.total_nodes(&sys);
        for kind in ProtocolKind::EVERY {
            counters_stay_put(kind, cfg, InProcTransport::new(nodes));
            #[cfg(target_os = "linux")] // the TCP mesh is epoll-based
            counters_stay_put(
                kind,
                cfg,
                repmem_net::EpollTransport::loopback(nodes).expect("loopback mesh"),
            );
        }
    }
}

fn counters_stay_put(kind: ProtocolKind, cfg: ShardConfig, transport: impl Transport) {
    let sys = sys();
    let cluster = Cluster::with_transport(sys, kind, cfg, transport).expect("cluster");
    // Every client writes and reads every object, pipelined: waves from
    // different initiators cross, and the last tickets resolve while
    // their invalidations and updates are still on their way.
    let tickets: Vec<_> = (0..sys.n_clients as u16)
        .flat_map(|n| {
            let h = cluster.handle(NodeId(n));
            (0..sys.m_objects as u32).flat_map(move |o| {
                [
                    h.write_async(ObjectId(o), Bytes::from(vec![n as u8, o as u8])),
                    h.read_async(ObjectId((o + 1) % sys.m_objects as u32)),
                ]
            })
        })
        .collect();
    for t in tickets {
        t.wait().expect("op");
    }
    let settled = cluster.settle().expect("settle");
    assert_eq!(settled, (cluster.total_cost(), cluster.total_messages()));
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        settled,
        (cluster.total_cost(), cluster.total_messages()),
        "{kind:?} {cfg:?}: a message was still in flight when settle returned"
    );
    assert!(
        cluster.shutdown().expect("shutdown").is_coherent(),
        "{kind:?} {cfg:?}"
    );
}
