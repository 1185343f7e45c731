//! Windowed operations over the TCP mesh run to completion.
//!
//! On the mesh the runner thread runs an idle node's turn itself, so a
//! reply that completes an operation is usually handled while the node's
//! own thread sleeps. That turn must start the node's backlogged
//! requests: nobody else will. Here every client keeps more tickets
//! outstanding than its window holds, for every protocol, and waits for
//! all of them; a turn that completed an operation without starting the
//! backlog would leave a ticket waiting forever, which the deadline
//! below turns into a failure instead of a hang.

#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::EpollTransport;
use repmem_runtime::{Cluster, ShardConfig};
use std::sync::mpsc::channel;
use std::time::Duration;

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 3,
        s: 64,
        p: 16,
        m_objects: 6,
    }
}

/// Operations each client issues, all at once: far more than the
/// window, so most start from the backlog.
const OPS: u64 = 24;

/// Run one protocol's windowed workload; `Err` names what went wrong.
fn run(kind: ProtocolKind) -> Result<(), String> {
    let sys = sys();
    let cfg = ShardConfig::new(2).with_window(2);
    let nodes = cfg.total_nodes(&sys);
    let transport = EpollTransport::loopback(nodes).map_err(|e| e.to_string())?;
    let cluster = Cluster::with_transport(sys, kind, cfg, transport).map_err(|e| e.to_string())?;
    let callers: Vec<_> = (0..sys.n_clients)
        .map(|c| {
            let handle = cluster.handle(NodeId(c as u16));
            std::thread::spawn(move || {
                let tickets: Vec<_> = (0..OPS)
                    .map(|i| {
                        let object = ObjectId(((i * 5 + c as u64) % sys.m_objects as u64) as u32);
                        if (i + c as u64).is_multiple_of(3) {
                            handle.read_async(object)
                        } else {
                            handle.write_async(object, Bytes::from(format!("c{c}-op{i}")))
                        }
                    })
                    .collect();
                tickets
                    .into_iter()
                    .try_for_each(|t| t.wait().map(drop))
                    .map_err(|e| format!("client {c}: {e}"))
            })
        })
        .collect();
    for caller in callers {
        caller
            .join()
            .map_err(|_| "a caller panicked".to_string())??;
    }
    cluster.settle().map_err(|e| format!("settle: {e}"))?;
    let dump = cluster.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if !dump.is_coherent() {
        return Err("replicas diverged".into());
    }
    Ok(())
}

#[test]
fn windowed_tickets_outstanding_at_every_client_all_complete() {
    for kind in ProtocolKind::EVERY {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let _ = tx.send(run(kind));
        });
        match rx.recv_timeout(Duration::from_secs(30)) {
            Ok(outcome) => outcome.unwrap_or_else(|e| panic!("{kind:?}: {e}")),
            Err(_) => panic!("{kind:?}: operations still outstanding after 30 s"),
        }
    }
}
