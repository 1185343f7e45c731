//! `Cluster::settle` is exact: it returns once every envelope any node
//! sent has been handled and every node is idle — not when a counter
//! happened to hold still across a sleep — and `shutdown` drains
//! through it before it stops anything.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{FaultSchedule, FaultTransport, InProcTransport, Transport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig};
use std::time::{Duration, Instant};

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 8,
    }
}

/// A sender stalled inside a send has counted neither the send nor an
/// idle point: `settle` must wait for it. While the stall outlasts
/// `settle`'s deadline, `settle` errors naming the stalled node and
/// leaves the cluster usable; a second `settle` returns only after the
/// stall, with the whole wave landed.
#[test]
fn settle_waits_for_a_stalled_sender_and_errors_if_it_outlasts_the_deadline() {
    let sys = sys();
    // Longer than `settle`'s 5 s deadline.
    let stall = Duration::from_secs(6);
    // Send 1 is node 0's write request: it stalls on node 0's thread.
    let schedule = FaultSchedule::new().delay_burst_at(1, stall, 1);
    let transport = FaultTransport::new(InProcTransport::new(sys.n_nodes()), schedule);
    let cluster = Cluster::with_transport(
        sys,
        ProtocolKind::WriteThrough,
        ShardConfig::default(),
        transport,
    )
    .expect("cluster");
    let issued = Instant::now();
    let write = cluster
        .handle(NodeId(0))
        .write_async(ObjectId(0), Bytes::from_static(b"x"));

    // Not a hang, and not a false "settled".
    let err = cluster
        .settle()
        .expect_err("settled around a stalled sender");
    assert_eq!(err, ClusterError::NodeDown(NodeId(0)));

    let settled = cluster.settle();
    assert!(
        issued.elapsed() >= stall,
        "settle returned while the sender was still stalled"
    );
    // The whole wave has landed: P+1 to the sequencer, N-1 invalidations.
    assert_eq!(
        settled,
        Ok((sys.p + sys.n_clients as u64, sys.n_clients as u64))
    );
    write.wait().expect("the write went out after the stall");
    assert!(cluster.shutdown().expect("shutdown").is_coherent());
}

/// Once `settle` has returned nothing is in flight: the counters it
/// reported are the counters 50 ms later, whatever the protocol, whether
/// the links are in-process callbacks or TCP sockets, and whether one
/// home sequences everything (and issues operations like every other
/// node) or two client-driven shards split the objects with eight
/// operations in flight per node.
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
    // Every node writes and reads every object, pipelined: waves from
    // different initiators cross, and the last tickets resolve while
    // their invalidations and updates are still on their way. The
    // client-driven config promises operations at clients only.
    let issuers = if cfg.client_driven {
        sys.n_clients
    } else {
        cfg.total_nodes(&sys)
    };
    let tickets: Vec<_> = (0..issuers as u16)
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
