//! Quickstart: spin up a threaded DSM cluster, share data between nodes,
//! and compare the measured communication cost against the paper's
//! per-trace cost model.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use bytes::Bytes;
use repmem::prelude::*;

fn main() {
    // N = 4 clients + 1 sequencer; copy transfers cost S+1 = 65 units,
    // write-parameter transfers P+1 = 17 units, bare tokens 1 unit.
    let sys = SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 8,
    };
    println!(
        "repmem quickstart — N={}, S={}, P={}, M={} objects",
        sys.n_clients, sys.s, sys.p, sys.m_objects
    );

    for kind in [
        ProtocolKind::WriteThrough,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
    ] {
        let cluster = Cluster::new(sys, kind);
        let alice = cluster.handle(NodeId(0));
        let bob = cluster.handle(NodeId(1));

        // Alice publishes and re-reads (read-your-writes). The write is
        // asynchronous for fire-and-forget and update protocols, so Bob
        // reads once its coherence traffic has landed.
        alice
            .write(ObjectId(3), Bytes::from_static(b"hello, replicated world"))
            .unwrap();
        let again = alice.read(ObjectId(3)).unwrap();
        assert_eq!(&again[..], b"hello, replicated world");
        cluster.settle().unwrap();
        let seen = bob.read(ObjectId(3)).unwrap();
        assert_eq!(&seen[..], b"hello, replicated world");

        println!(
            "  {:<15} 1 write + 2 reads  →  {:>4} cost units over {} messages",
            kind.name(),
            cluster.total_cost(),
            cluster.total_messages()
        );
        let dump = cluster.shutdown().unwrap();
        assert!(dump.is_coherent(), "replicas diverged");
    }

    // The same numbers fall out of the paper's trace cost model: a
    // Write-Through client write costs P+N, and each of the two read
    // misses that follow (Alice's copy was self-invalidated, Bob's was
    // never populated) costs S+2 (paper §4.1).
    let wt_cost = (sys.p + sys.n_clients as u64) + 2 * (sys.s + 2);
    println!(
        "\nWrite-Through model: (P+N) + 2(S+2) = {wt_cost} — matches the measured cost above."
    );
}
