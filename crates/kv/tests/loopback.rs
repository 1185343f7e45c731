//! KV service loopback coverage:
//!
//! * server + client smoke over TCP for **all nine protocols** — put,
//!   get, miss, overwrite, scan, stats, shutdown;
//! * YCSB A/B/C op-identity between an in-process [`KvStore`] and the
//!   TCP server fronting an identical cluster (same spec, same seeds):
//!   the run reports, including the order-sensitive result checksum,
//!   must be equal — the acceptance check that the wire path changes
//!   nothing about KV semantics.

use bytes::Bytes;
use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_kv::{driver, KeySpace, KvClient, KvError, KvServer, KvServerConfig, KvStore};
use repmem_net::MAX_FRAME_LEN;
use repmem_runtime::{Cluster, ShardConfig};
use repmem_workload::ycsb::{YcsbSpec, YcsbWorkload};

fn sys(slots: usize) -> SystemParams {
    SystemParams {
        n_clients: 2,
        s: 64,
        p: 16,
        m_objects: slots,
    }
}

fn config(kind: ProtocolKind) -> KvServerConfig {
    KvServerConfig {
        sys: sys(256),
        kind,
        cfg: ShardConfig::new(2).with_window(4),
        key_seed: 42,
    }
}

#[test]
fn all_nine_protocols_serve_the_kv_protocol() {
    for kind in ProtocolKind::EVERY {
        let server = KvServer::start(config(kind), "127.0.0.1:0").expect("server");
        let mut client = KvClient::connect(server.addr()).expect("connect");

        assert_eq!(client.get("user000000000001").expect("miss"), None);
        client.put("user000000000001", b"profile-1").expect("put");
        assert_eq!(
            client.get("user000000000001").expect("hit"),
            Some(Bytes::from_static(b"profile-1")),
            "{kind:?}"
        );
        client
            .put("user000000000001", b"profile-2")
            .expect("overwrite");
        assert_eq!(
            client.get("user000000000001").expect("hit"),
            Some(Bytes::from_static(b"profile-2")),
            "{kind:?}"
        );
        client.put("user000000000007", b"seven").expect("put");
        let keys: Vec<String> = vec![
            "user000000000001".into(),
            "user000000000404".into(),
            "user000000000007".into(),
        ];
        assert_eq!(
            client.scan(&keys).expect("scan"),
            vec![
                Some(Bytes::from_static(b"profile-2")),
                None,
                Some(Bytes::from_static(b"seven")),
            ],
            "{kind:?}"
        );
        let (ops, _cost, messages) = client.stats().expect("stats");
        assert!(ops >= 8, "{kind:?}: ops {ops}");
        assert!(messages > 0, "{kind:?}: no coherence traffic?");

        drop(client);
        let dump = server.shutdown().expect("shutdown");
        assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
    }
}

#[test]
fn second_connection_lands_on_another_client_node() {
    let server = KvServer::start(config(ProtocolKind::Berkeley), "127.0.0.1:0").expect("server");
    let mut a = KvClient::connect(server.addr()).expect("conn a");
    let mut b = KvClient::connect(server.addr()).expect("conn b");
    // Cross-connection visibility through the coherence protocol.
    a.put("shared-key", b"from-a").expect("put");
    assert_eq!(
        b.get("shared-key").expect("get"),
        Some(Bytes::from_static(b"from-a"))
    );
    b.put("shared-key", b"from-b").expect("put");
    assert_eq!(
        a.get("shared-key").expect("get"),
        Some(Bytes::from_static(b"from-b"))
    );
    drop((a, b));
    server.shutdown().expect("shutdown");
}

#[test]
fn an_over_cap_reply_is_an_error_and_the_connection_stays_open() {
    let server = KvServer::start(config(ProtocolKind::Berkeley), "127.0.0.1:0").expect("server");
    let mut client = KvClient::connect(server.addr()).expect("connect");
    // One value fits a frame; a `Values` reply carrying it twice does not.
    client
        .put("big", &vec![7u8; MAX_FRAME_LEN / 2])
        .expect("put");
    match client.scan(&["big".into(), "big".into()]) {
        Err(KvError::Remote(reason)) => assert!(reason.contains("exceeds cap"), "{reason}"),
        other => panic!("over-cap scan gave {:?}", other.map(|v| v.len())),
    }
    client
        .put("small", b"s")
        .expect("put after the refused reply");
    assert_eq!(
        client.get("small").expect("get after the refused reply"),
        Some(Bytes::from_static(b"s"))
    );
    drop(client);
    server.shutdown().expect("shutdown");
}

/// Drive one YCSB spec against a fresh in-proc store and a fresh TCP
/// server, and demand identical reports.
fn identity_for(kind: ProtocolKind, workload: YcsbWorkload) {
    let slots = 4096;
    let spec = YcsbSpec::new(workload, 150, 400, 7).with_value_len(24);
    let cfg = ShardConfig::new(2).with_window(4);

    // In-process: single store bound to client node 0, sequential ops.
    let cluster = Cluster::with_config(sys(slots), kind, cfg);
    let mut store = KvStore::new(cluster.handle(NodeId(0)), KeySpace::new(slots, 42));
    driver::load(&mut store, &spec).expect("inproc load");
    let inproc = driver::run(&mut store, &spec).expect("inproc run");
    cluster.shutdown().expect("inproc shutdown");

    // TCP: one connection (lands on client node 0), same spec.
    let server = KvServer::start(
        KvServerConfig {
            sys: sys(slots),
            kind,
            cfg,
            key_seed: 42,
        },
        "127.0.0.1:0",
    )
    .expect("server");
    let mut client = KvClient::connect(server.addr()).expect("connect");
    driver::load(&mut client, &spec).expect("tcp load");
    let tcp = driver::run(&mut client, &spec).expect("tcp run");
    drop(client);
    server.shutdown().expect("tcp shutdown");

    assert_eq!(
        inproc.checksum,
        tcp.checksum,
        "{kind:?}/{}: in-proc and TCP runs diverged",
        workload.name()
    );
    assert_eq!(
        (inproc.ops, inproc.reads, inproc.writes, inproc.found),
        (tcp.ops, tcp.reads, tcp.writes, tcp.found),
        "{kind:?}/{}",
        workload.name()
    );
    // Slot collisions evict (last writer wins), so a handful of reads
    // may legitimately miss; demand a high hit rate, not perfection.
    let expected = inproc.reads + inproc.rmws;
    assert!(
        inproc.found * 100 >= expected * 95,
        "{kind:?}/{}: only {} of {expected} reads hit",
        workload.name(),
        inproc.found
    );
}

#[test]
fn ycsb_abc_is_op_identical_between_inproc_and_tcp() {
    for workload in [YcsbWorkload::A, YcsbWorkload::B, YcsbWorkload::C] {
        identity_for(ProtocolKind::WriteThrough, workload);
        identity_for(ProtocolKind::Quorum, workload);
    }
}

#[test]
fn ycsb_df_run_end_to_end_over_tcp() {
    for workload in [YcsbWorkload::D, YcsbWorkload::F] {
        let spec = YcsbSpec::new(workload, 100, 300, 3).with_value_len(16);
        let server =
            KvServer::start(config(ProtocolKind::Illinois), "127.0.0.1:0").expect("server");
        let mut client = KvClient::connect(server.addr()).expect("connect");
        driver::load(&mut client, &spec).expect("load");
        let report = driver::run(&mut client, &spec).expect("run");
        assert_eq!(report.ops, 300, "{}", workload.name());
        // The smoke config has only 256 slots, so collision evictions
        // are expected; just demand most reads hit.
        let expected = report.reads + report.rmws;
        assert!(
            report.found * 100 >= expected * 90,
            "{}: only {} of {expected} reads hit",
            workload.name(),
            report.found
        );
        drop(client);
        server.shutdown().expect("shutdown");
    }
}
