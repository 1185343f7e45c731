//! The threaded runtime is metered by the same cost model as the
//! analysis: driving the live cluster through a deterministic operation
//! sequence must accumulate exactly the cost the synchronous oracle
//! predicts for that sequence.

use bytes::Bytes;
use repmem::prelude::*;
use repmem_analytic::oracle::Global;

#[test]
fn serial_usage_costs_match_the_oracle_exactly() {
    let sys = SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 1,
    };
    let obj = ObjectId(0);
    // A deterministic mixed sequence touching clients and the sequencer.
    let seq: Vec<(NodeId, OpKind)> = vec![
        (NodeId(0), OpKind::Read),
        (NodeId(0), OpKind::Write),
        (NodeId(0), OpKind::Write),
        (NodeId(1), OpKind::Read),
        (NodeId(0), OpKind::Read),
        (NodeId(2), OpKind::Write),
        (NodeId(1), OpKind::Read),
        (sys.home(), OpKind::Read),
        (sys.home(), OpKind::Write),
        (NodeId(3), OpKind::Read),
        (NodeId(0), OpKind::Write),
    ];
    for kind in ProtocolKind::EVERY {
        // Oracle prediction.
        let proto = protocol(kind);
        let mut g = Global::initial(proto, &sys);
        let mut predicted = 0u64;
        for &(node, op) in &seq {
            predicted += execute(proto, &sys, &mut g, node, op).cost;
        }

        // Live run, one operation at a time, settling between operations
        // so the execution is serialized exactly like the oracle.
        let cluster = Cluster::new(sys, kind);
        for &(node, op) in &seq {
            let h = cluster.handle(node);
            match op {
                OpKind::Read => {
                    let _ = h.read(obj).unwrap();
                }
                OpKind::Write => h.write(obj, Bytes::from_static(b"v")).unwrap(),
            }
            cluster.settle().unwrap();
        }
        let (measured, _) = cluster.settle().unwrap();
        let dump = cluster.shutdown().unwrap();
        assert_eq!(
            measured, predicted,
            "{kind:?}: live cluster cost {measured} vs oracle {predicted}"
        );
        assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
    }
}

#[test]
fn a_serial_quorum_read_is_one_round_on_every_executor() {
    // A read after a committed write: every replica holds the write, the
    // votes agree, and the read costs its probe and votes, (n-1)(S+2),
    // on the oracle, the serialized DES and the live cluster alike.
    let sys = SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 1,
    };
    let one_round = (sys.n_nodes() as u64 - 1) * (sys.s + 2);
    let obj = ObjectId(0);
    let (writer, reader) = (NodeId(1), NodeId(0));

    let proto = protocol(ProtocolKind::Quorum);
    let mut g = Global::initial(proto, &sys);
    execute(proto, &sys, &mut g, writer, OpKind::Write);
    let oracle = execute(proto, &sys, &mut g, reader, OpKind::Read).cost;

    let events = [(writer, OpKind::Write), (reader, OpKind::Read)].map(|(node, op)| OpEvent {
        node,
        object: obj,
        op,
    });
    let cfg = SimConfig {
        sys,
        protocol: ProtocolKind::Quorum,
        mode: IssueMode::Serialized,
        warmup_ops: 1, // measure the read only
        measured_ops: 1,
        seed: 1,
    };
    let des = replay(&cfg, &events).total_cost;

    let cluster = Cluster::new(sys, ProtocolKind::Quorum);
    cluster
        .handle(writer)
        .write(obj, Bytes::from_static(b"v"))
        .unwrap();
    let (before, msgs_before) = cluster.settle().unwrap();
    assert_eq!(&cluster.handle(reader).read(obj).unwrap()[..], b"v");
    let (after, msgs_after) = cluster.settle().unwrap();
    cluster.shutdown().unwrap();

    assert_eq!(
        (oracle, des, after - before),
        (one_round, one_round, one_round),
        "(oracle, DES, runtime) read cost"
    );
    assert_eq!(msgs_after - msgs_before, 2 * (sys.n_nodes() as u64 - 1));
}

#[test]
fn multi_object_isolation() {
    // Traffic on one object never touches another object's replicas.
    let sys = SystemParams {
        n_clients: 3,
        s: 32,
        p: 8,
        m_objects: 3,
    };
    let cluster = Cluster::new(sys, ProtocolKind::Illinois);
    let h0 = cluster.handle(NodeId(0));
    let h1 = cluster.handle(NodeId(1));
    h0.write(ObjectId(0), Bytes::from_static(b"zero")).unwrap();
    h1.write(ObjectId(1), Bytes::from_static(b"one")).unwrap();
    assert_eq!(&h0.read(ObjectId(0)).unwrap()[..], b"zero");
    assert_eq!(&h1.read(ObjectId(1)).unwrap()[..], b"one");
    // Object 2 was never written: every node still has the initial empty
    // copy.
    assert!(h0.read(ObjectId(2)).unwrap().is_empty());
    let dump = cluster.shutdown().unwrap();
    assert!(dump.is_coherent());
}
