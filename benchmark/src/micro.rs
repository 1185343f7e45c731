//! Single-layer legs: calls into one layer's public functions, timed
//! from outside with `Instant`. Each leg runs five batches and reports
//! every batch's mean nanoseconds per call; the metric is their median.

use crate::inputs::{Workload, KEY_SEED, N_CLIENTS, THETA, VALUE_LEN};
use bytes::Bytes;
use repmem_core::{
    CopyState, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, PayloadKind, ProtocolKind, QueueKind,
    SystemParams,
};
use repmem_kv::wire::{decode_kv_frame, encode_kv_frame};
use repmem_kv::{KeySpace, KvFrame};
use repmem_net::codec::{decode_frame, encode_envelope_frame_into};
use repmem_net::{Envelope, Payload};
use repmem_protocols::protocol;
use repmem_protocols::testutil::{app_req, MockActions};
use repmem_runtime::Cluster;
use repmem_workload::ycsb::YcsbSpec;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per leg.
pub const BATCHES: usize = 5;

/// Mean ns per call of `f`, once per batch of at least `batch` wall
/// time. The clock is read every 64 calls so that it does not dominate
/// nanosecond-scale bodies.
pub fn time_ns(batch: Duration, mut f: impl FnMut()) -> Vec<f64> {
    (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut calls = 0u64;
            loop {
                for _ in 0..64 {
                    f();
                }
                calls += 64;
                let elapsed = start.elapsed();
                if elapsed >= batch {
                    return elapsed.as_nanos() as f64 / calls as f64;
                }
            }
        })
        .collect()
}

/// `workload.gen_ns`: one `YcsbRun::next` of `w`'s mix.
pub fn workload_gen(w: &Workload, seed: u64, batch: Duration) -> Vec<f64> {
    let mut stream = YcsbSpec::new(w.mix, w.records, u64::MAX, seed)
        .with_theta(THETA)
        .with_value_len(VALUE_LEN)
        .run_ops();
    time_ns(batch, || {
        black_box(stream.next());
    })
}

/// `kv.wire_ns`: encode + decode of one `Get` request and one
/// `Value` (100 B) reply — the frames of a read over the KV wire.
pub fn kv_wire(batch: Duration) -> Vec<f64> {
    let frames = [
        KvFrame::Get {
            key: YcsbSpec::key(42),
        },
        KvFrame::Value {
            value: Some(Bytes::from(vec![7u8; VALUE_LEN])),
        },
    ];
    time_ns(batch, || {
        for frame in &frames {
            let body = encode_kv_frame(black_box(frame));
            black_box(decode_kv_frame(&body).expect("own encoding decodes"));
        }
    })
}

/// `kv.keyspace_ns`: one `KeySpace::object_of`.
pub fn kv_keyspace(batch: Duration) -> Vec<f64> {
    let space = KeySpace::new(crate::inputs::SLOTS, KEY_SEED);
    let key = YcsbSpec::key(42);
    time_ns(batch, || {
        black_box(space.object_of(black_box(&key)));
    })
}

/// `protocols.step_ns.<protocol>`: mean of the two transitions every
/// operation starts with at a client holding a VALID copy — the read
/// request and the write request — on a recording mock host.
pub fn protocol_step(kind: ProtocolKind, batch: Duration) -> Vec<f64> {
    let machine = protocol(kind);
    let mut env = MockActions::client(0, N_CLIENTS);
    let read = app_req(&env, OpKind::Read);
    let write = app_req(&env, OpKind::Write);
    let per_pair = time_ns(batch, || {
        env.pending = Some(OpKind::Read);
        black_box(machine.step(&mut env, CopyState::Valid, black_box(&read)));
        env.pending = Some(OpKind::Write);
        black_box(machine.step(&mut env, CopyState::Valid, black_box(&write)));
        env.pushes.clear();
    });
    per_pair.into_iter().map(|ns| ns / 2.0).collect()
}

fn envelope(payload: PayloadKind) -> Envelope {
    let record = Payload {
        // A KV record: u16 key length, 16-byte key, 100-byte value.
        data: Bytes::from(vec![7u8; 2 + 16 + VALUE_LEN]),
        version: 9,
        writer: NodeId(1),
    };
    Envelope {
        msg: Msg {
            kind: match payload {
                PayloadKind::Token => MsgKind::WInv,
                _ => MsgKind::RGnt,
            },
            initiator: NodeId(1),
            sender: NodeId(4),
            object: ObjectId(1234),
            queue: QueueKind::Distributed,
            payload,
            op: OpTag(77),
            epoch: 3,
        },
        params: None,
        copy: (payload == PayloadKind::Copy).then_some(record),
        clock: 11,
    }
}

/// `net.encode_ns.*` and `net.decode_ns.*` for a token-only envelope
/// and one carrying a full record copy: `(encode, decode)` batches.
pub fn net_codec(payload: PayloadKind, batch: Duration) -> (Vec<f64>, Vec<f64>) {
    let env = envelope(payload);
    let mut wire = Vec::with_capacity(256);
    let encode = time_ns(batch, || {
        wire.clear();
        encode_envelope_frame_into(black_box(&env), &mut wire);
        black_box(&wire);
    });
    let decode = time_ns(batch, || {
        black_box(decode_frame(black_box(&wire[4..])).expect("own encoding decodes"));
    });
    (encode, decode)
}

/// `runtime.read_hit_us` and `runtime.write_us`: one thread's blocking
/// `Handle::read` of a copy it has already read, and blocking
/// `Handle::write`, on a small in-process cluster of `w`'s protocol and
/// shard configuration. Returns `(read, write)` batches in µs.
pub fn runtime_ops(w: &Workload, batch: Duration) -> Result<(Vec<f64>, Vec<f64>), String> {
    let sys = SystemParams {
        m_objects: 64,
        ..w.sys()
    };
    let cluster = Cluster::with_config(sys, w.protocol, w.shard_config());
    let handle = cluster.handle(NodeId(0));
    let object = ObjectId(5);
    let value = Bytes::from(vec![7u8; 2 + 16 + VALUE_LEN]);
    let fail = |e| format!("runtime leg: {e}");
    handle.write(object, value.clone()).map_err(fail)?;
    handle.read(object).map_err(fail)?;
    let mut failed = None;
    let read = time_ns(batch, || {
        if let Err(e) = handle.read(object) {
            failed = Some(e);
        }
    });
    let write = time_ns(batch, || {
        if let Err(e) = handle.write(object, value.clone()) {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(fail(e));
    }
    // Let fire-and-forget write cascades drain before stopping.
    std::thread::sleep(Duration::from_millis(30));
    cluster.shutdown().map_err(fail)?;
    let us = |ns: Vec<f64>| ns.into_iter().map(|v| v / 1e3).collect();
    Ok((us(read), us(write)))
}
