//! Transport stacks: run the same cluster over in-process channels and a
//! metered TCP loopback mesh, and reconcile the wire-level byte counters
//! with the paper's cost model.
//!
//! ```text
//! cargo run --example net_stack
//! ```

use bytes::Bytes;
use repmem::net::{InProcTransport, MeteredTransport};
use repmem::prelude::*;

fn main() {
    let sys = SystemParams {
        n_clients: 3,
        s: 100,
        p: 30,
        m_objects: 4,
    };
    let kind = ProtocolKind::WriteOnce;
    println!(
        "repmem net stack — {} over N={}, S={}, P={}\n",
        kind.name(),
        sys.n_clients,
        sys.s,
        sys.p
    );

    // The paper's channel is an abstraction: any FIFO transport gives the
    // same costs. Run one workload over both backends, metered.
    run(sys, kind, "in-process", InProcTransport::new(sys.n_nodes()));
    #[cfg(target_os = "linux")] // the TCP mesh is epoll-based
    run(
        sys,
        kind,
        "tcp loopback",
        repmem::net::EpollTransport::loopback(sys.n_nodes()).expect("loopback mesh"),
    );

    println!(
        "On both stacks the meter reconstructs the runtime's cost counter exactly — \
         the wire is an implementation detail."
    );
}

fn run(sys: SystemParams, kind: ProtocolKind, label: &str, transport: impl repmem::net::Transport) {
    let metered = MeteredTransport::new(transport);
    let meter = metered.stats();
    let cluster =
        Cluster::with_transport(sys, kind, ShardConfig::default(), metered).expect("cluster");
    let writer = cluster.handle(NodeId(0));
    let reader = cluster.handle(NodeId(2));
    for round in 0..8u32 {
        let obj = ObjectId(round % sys.m_objects as u32);
        writer
            .write(obj, Bytes::from(round.to_le_bytes().to_vec()))
            .unwrap();
        let _ = reader.read(obj).unwrap();
    }
    // Fire-and-forget cascades land before the counters are read.
    cluster.settle().unwrap();

    let total = meter.total();
    let [token, params, copy] = total.classes;
    println!("{label}:");
    println!(
        "  tokens   {:>3} msgs  {:>6} wire bytes   (model charge 1 each)",
        token.msgs, token.bytes
    );
    println!(
        "  params   {:>3} msgs  {:>6} wire bytes   (model charge P+1 = {} each)",
        params.msgs,
        params.bytes,
        sys.p + 1
    );
    println!(
        "  copies   {:>3} msgs  {:>6} wire bytes   (model charge S+1 = {} each)",
        copy.msgs,
        copy.bytes,
        sys.s + 1
    );
    let model = meter.model_cost(&sys);
    println!(
        "  meter → model cost {model}, cluster counted {} over {} messages\n",
        cluster.total_cost(),
        cluster.total_messages()
    );
    assert_eq!(model, cluster.total_cost(), "meter disagrees with runtime");
    assert_eq!(total.msgs(), cluster.total_messages());
    let dump = cluster.shutdown().unwrap();
    assert!(dump.is_coherent(), "replicas diverged");
}
