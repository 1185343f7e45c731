//! A message a machine has no transition for — one of the *error*
//! entries the paper leaves "not analyzed by the protocol" — fails its
//! step like any other step failure: the cluster is poisoned, naming the
//! node, the state and the message, and the node's replica table stops
//! serving reads. A table left open after its node stopped stepping
//! would answer reads with a value the rest of the cluster had since
//! overwritten.

use bytes::Bytes;
use repmem_core::{MsgKind, NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{DeliverFn, Endpoint, Envelope, InProcTransport, NetError, Transport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The in-process mesh, except that the first `R-GNT` sent for
/// `object` goes out as a `W-GNT`.
struct GrantSwap {
    inner: InProcTransport,
    object: ObjectId,
    armed: Arc<AtomicBool>,
}

struct GrantSwapEndpoint {
    inner: Box<dyn Endpoint>,
    object: ObjectId,
    armed: Arc<AtomicBool>,
}

impl Transport for GrantSwap {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        Ok(Box::new(GrantSwapEndpoint {
            inner: self.inner.bind(node, deliver)?,
            object: self.object,
            armed: Arc::clone(&self.armed),
        }))
    }
}

impl Endpoint for GrantSwapEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        let grant = env.msg.kind == MsgKind::RGnt && env.msg.object == self.object;
        if grant && self.armed.swap(false, Ordering::SeqCst) {
            let mut swapped = env.clone();
            swapped.msg.kind = MsgKind::WGnt;
            return self.inner.send(to, &swapped);
        }
        self.inner.send(to, env)
    }

    fn flush(&self) -> Result<(), NetError> {
        self.inner.flush()
    }

    fn close(&self) {
        self.inner.close()
    }
}

#[test]
fn an_error_entry_poisons_the_cluster_and_closes_the_table() {
    let sys = SystemParams {
        n_clients: 2,
        s: 16,
        p: 4,
        m_objects: 2,
    };
    let transport = GrantSwap {
        inner: InProcTransport::new(sys.n_nodes()),
        object: ObjectId(1),
        armed: Arc::new(AtomicBool::new(true)),
    };
    let cluster = Cluster::with_transport(
        sys,
        ProtocolKind::WriteThrough,
        ShardConfig::default(),
        transport,
    )
    .expect("cluster");
    let (h0, h1) = (cluster.handle(NodeId(0)), cluster.handle(NodeId(1)));
    let (n0, obj0, obj1) = (NodeId(0), ObjectId(0), ObjectId(1));

    // n0 holds a VALID copy of object 0, which its table serves.
    h1.write(obj0, Bytes::from_static(b"old"))
        .expect("write old");
    cluster.settle().expect("settle");
    assert_eq!(h0.read(obj0).expect("miss"), Bytes::from_static(b"old"));
    let hits = cluster.local_read_hits();
    assert_eq!(h0.read(obj0).expect("hit"), Bytes::from_static(b"old"));
    assert_eq!(cluster.local_read_hits(), hits + 1);

    // n0's read of object 1 is answered with a W-GNT: no transition
    // from INVALID.
    let failed = h0.read(obj1);
    // n1 overwrites object 0; an open table at n0 would still say "old".
    let overwrite = h1.write(obj0, Bytes::from_static(b"new"));
    let after = h0.read(obj0);
    assert!(
        after.is_err(),
        "n0 served {after:?} from its table after the error entry"
    );

    let poison = cluster.poisoned();
    let Some(ClusterError::Poisoned { node, reason }) = &poison else {
        panic!("cluster not poisoned: {poison:?}");
    };
    assert_eq!(*node, n0);
    assert!(
        reason.starts_with("Write-Through protocol error")
            && reason.contains("from state INVALID on W-GNT"),
        "{reason}"
    );
    let poison = poison.clone().expect("poison");
    assert_eq!(failed, Err(poison.clone()));
    assert_eq!(overwrite, Err(poison.clone()));
    assert_eq!(after, Err(poison.clone()));
    assert_eq!(cluster.local_read_hits(), hits + 1);
    assert!(matches!(
        cluster.shutdown(),
        Err(ClusterError::Poisoned { node, .. }) if node == n0
    ));
}
