//! A dead peer is found by the sends that need it, over the real TCP
//! mesh: a link dropped inside an `EpollTransport::loopback` cluster, and
//! a `repmem-node` process killed under a `RemoteCluster`. Either way the
//! next operations that need the peer fail with `NodeDown(peer)` within
//! a bound, and nothing is poisoned. Each test reads a copy it does not
//! hold, which waits for the home's grant, and then writes, which under
//! Write-Through completes once its request is sent: a request dropped
//! silently would leave the read waiting forever and lose the write.

// The TCP mesh and `repmem-node` are epoll-based.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{
    DeliverFn, Endpoint, Envelope, EpollEndpoint, EpollTransport, NetError, Transport,
};
use repmem_runtime::remote::RemoteCluster;
use repmem_runtime::{Cluster, ClusterError, ShardConfig};
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Run `op` on its own thread and return its result, or `None` if it
/// is still running after five seconds.
fn within<T: Send + 'static>(op: impl FnOnce() -> T + Send + 'static) -> Option<T> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(op());
    });
    rx.recv_timeout(Duration::from_secs(5)).ok()
}

/// `EpollTransport::loopback` that keeps every endpoint it binds, so the
/// test can reach `EpollEndpoint::drop_link` under a running cluster.
struct KeepEndpoints {
    mesh: EpollTransport,
    bound: Arc<Mutex<Vec<Arc<EpollEndpoint>>>>,
}

struct Kept(Arc<EpollEndpoint>);

impl Endpoint for Kept {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        self.0.send(to, env)
    }

    fn flush(&self) -> Result<(), NetError> {
        self.0.flush()
    }

    fn close(&self) {
        self.0.close();
    }
}

impl Transport for KeepEndpoints {
    fn n_nodes(&self) -> usize {
        self.mesh.n_nodes()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        let ep = Arc::new(self.mesh.bind_endpoint(node, deliver)?);
        self.bound.lock().unwrap().push(Arc::clone(&ep));
        Ok(Box::new(Kept(ep)))
    }
}

#[test]
fn a_dropped_mesh_link_fails_the_operations_that_need_the_peer() {
    let sys = SystemParams {
        n_clients: 3,
        s: 64,
        p: 16,
        m_objects: 8,
    };
    let home = sys.home();
    let bound = Arc::new(Mutex::new(Vec::new()));
    let transport = KeepEndpoints {
        mesh: EpollTransport::loopback(sys.n_nodes()).expect("loopback mesh"),
        bound: Arc::clone(&bound),
    };
    let cluster = Cluster::with_transport(
        sys,
        ProtocolKind::WriteThrough,
        ShardConfig::default(),
        transport,
    )
    .expect("cluster");
    for object in 0..4 {
        for c in 0..sys.n_clients as u16 {
            let h = cluster.handle(NodeId(c));
            h.write(ObjectId(object), Bytes::from(vec![c as u8]))
                .expect("write");
            h.read(ObjectId(object)).expect("read");
        }
    }
    cluster.settle().expect("settle");

    // Cluster binds node 0 first.
    let ep0 = Arc::clone(&bound.lock().unwrap()[0]);
    ep0.drop_link(home);
    let h0 = cluster.handle(NodeId(0));
    let (read, write) = within(move || {
        let read = h0.read(ObjectId(6)).map(drop);
        (read, h0.write(ObjectId(5), Bytes::from_static(b"x")))
    })
    .expect("an operation over the dropped link never returned");
    assert_eq!(read, Err(ClusterError::NodeDown(home)));
    assert_eq!(write, Err(ClusterError::NodeDown(home)));
    assert!(cluster.poisoned().is_none());
    cluster.shutdown().expect("shutdown");
}

#[test]
fn a_killed_node_process_fails_the_operations_that_need_it() {
    let sys = SystemParams {
        n_clients: 2,
        s: 32,
        p: 8,
        m_objects: 4,
    };
    let home = sys.home();
    let bin = Path::new(env!("CARGO_BIN_EXE_repmem-node"));
    let mut cluster = RemoteCluster::launch(sys, ProtocolKind::WriteThrough, bin).expect("launch");
    for c in 0..sys.n_clients as u16 {
        cluster
            .write(NodeId(c), ObjectId(u32::from(c)), Bytes::from_static(b"ok"))
            .expect("write");
    }
    cluster.kill(home).expect("kill the home process");

    // A fresh control connection: each node's mesh loop accepts it after
    // reading the EOF its link to the dead home already holds, so the
    // operation it carries finds that link dead. (An operation whose
    // request was on the link when it died is not covered: no send of
    // its node finds out.)
    for c in 0..sys.n_clients as u16 {
        let mut h = cluster
            .connect_handle(NodeId(c))
            .expect("control connection");
        let (read, write) = within(move || {
            let read = h.read(ObjectId(2)).map(drop);
            (read, h.write(ObjectId(3), Bytes::from_static(b"x")))
        })
        .expect("an operation through a dead home never returned");
        assert_eq!(read, Err(ClusterError::NodeDown(home)), "at n{c}");
        assert_eq!(write, Err(ClusterError::NodeDown(home)), "at n{c}");
    }
}
