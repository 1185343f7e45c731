//! Transport-layer throughput: wire-codec encode/decode rates per cost
//! class, and blocking cluster operations per second over the in-process
//! backend versus TCP loopback — the direct price of real sockets under
//! the same coherence traffic.

// The TCP loopback case runs on the epoll-based mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use repmem_core::{
    Msg, MsgKind, NodeId, ObjectId, OpTag, PayloadKind, ProtocolKind, QueueKind, SystemParams,
};
use repmem_net::codec::{decode_frame, encode_envelope_frame};
use repmem_net::{
    Envelope, EpollTransport, FaultSchedule, FaultTransport, InProcTransport, Payload,
};
use repmem_runtime::{Cluster, ShardConfig};
use std::hint::black_box;
use std::time::Duration;

const OPS: usize = 200;

fn envelope(payload: PayloadKind, size: usize) -> Envelope {
    let body = Payload {
        data: Bytes::from(vec![0xA5; size]),
        version: 42,
        writer: NodeId(1),
    };
    Envelope {
        msg: Msg {
            kind: MsgKind::WReq,
            initiator: NodeId(1),
            sender: NodeId(1),
            object: ObjectId(3),
            queue: QueueKind::Distributed,
            payload,
            op: OpTag(7),
            epoch: 0,
        },
        params: (payload == PayloadKind::Params).then(|| body.clone()),
        copy: (payload == PayloadKind::Copy).then_some(body),
        clock: 42,
    }
}

fn bench_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("net/codec");
    for (label, payload, size) in [
        ("token", PayloadKind::Token, 0),
        ("params_30B", PayloadKind::Params, 30),
        ("copy_4KiB", PayloadKind::Copy, 4096),
    ] {
        let env = envelope(payload, size);
        let framed = encode_envelope_frame(&env);
        g.throughput(Throughput::Bytes(framed.len() as u64));
        g.bench_function(BenchmarkId::new("encode", label), |b| {
            b.iter(|| black_box(encode_envelope_frame(black_box(&env))));
        });
        g.bench_function(BenchmarkId::new("decode", label), |b| {
            b.iter(|| black_box(decode_frame(black_box(&framed[4..])).unwrap()));
        });
    }
    g.finish();
}

fn bench_transports(c: &mut Criterion) {
    let sys = SystemParams {
        n_clients: 3,
        s: 64,
        p: 16,
        m_objects: 4,
    };
    let kind = ProtocolKind::Berkeley;
    let mut g = c.benchmark_group("net/cluster_ops_per_sec");
    g.sample_size(10).measurement_time(Duration::from_secs(3));
    g.throughput(Throughput::Elements(OPS as u64));
    let drive = |cluster: &Cluster| {
        let w = cluster.handle(NodeId(0));
        let r = cluster.handle(NodeId(1));
        let payload = Bytes::from_static(b"payload");
        for _ in 0..OPS / 2 {
            w.write(ObjectId(1), payload.clone()).unwrap();
            black_box(r.read(ObjectId(1)).unwrap());
        }
    };
    g.bench_function("inproc", |b| {
        let cluster = Cluster::with_transport(
            sys,
            kind,
            ShardConfig::default(),
            InProcTransport::new(sys.n_nodes()),
        )
        .expect("cluster");
        b.iter(|| drive(&cluster));
        cluster.shutdown().unwrap();
    });
    g.bench_function("tcp_loopback", |b| {
        let cluster = Cluster::with_transport(
            sys,
            kind,
            ShardConfig::default(),
            EpollTransport::loopback(sys.n_nodes()).expect("loopback mesh"),
        )
        .expect("cluster");
        b.iter(|| drive(&cluster));
        cluster.shutdown().unwrap();
    });
    // The fault-injection layer when no fault is scheduled: one atomic
    // counter bump plus one mutex-guarded map check per send. This is
    // the full price of keeping faults injectable on every link.
    g.bench_function("inproc_fault_layer", |b| {
        let cluster = Cluster::with_transport(
            sys,
            kind,
            ShardConfig::default(),
            FaultTransport::new(InProcTransport::new(sys.n_nodes()), FaultSchedule::new()),
        )
        .expect("cluster");
        b.iter(|| drive(&cluster));
        cluster.shutdown().unwrap();
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_millis(500));
    targets = bench_codec, bench_transports
}
criterion_main!(benches);
