//! The local-hit read fast path (`Handle::read` served from the node's
//! shared replica table) and the lazily materialised table under it.
//!
//! The rule under test, clause by clause: a read skips the node loop
//! exactly when (a) the protocol machine says a read in the entry's
//! `(role, state)` is a pure local hit (`repmem_protocols::ReadHits`,
//! read off the machines), (b) the node has no earlier
//! operation on the object queued or in flight, and (c) the node loop
//! is running and the cluster is not poisoned.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{InProcTransport, Transport};
use repmem_runtime::{Cluster, ClusterError, ShardConfig, ENTRY_BYTES};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// How long a reader waits, after the writer is done, for the last
/// write's invalidation/update wave to reach its node.
const LAST_WAVE: Duration = Duration::from_secs(20);

fn sys() -> SystemParams {
    SystemParams {
        n_clients: 4,
        s: 64,
        p: 16,
        m_objects: 4,
    }
}

/// Reads the paper prices at 0 send nothing, cost nothing, and are
/// counted; Quorum never takes the fast path (its VALID opens a round).
#[test]
fn warm_reads_cost_nothing_and_are_counted() {
    const READS: u64 = 10_000;
    for kind in ProtocolKind::EVERY {
        let cluster = Cluster::new(sys(), kind);
        let h = cluster.handle(NodeId(1));
        let value = Bytes::from(format!("warm {kind:?}"));
        h.write(ObjectId(2), value.clone()).unwrap();
        // Cold read: a miss for the invalidate-on-write protocols.
        assert_eq!(h.read(ObjectId(2)).unwrap(), value, "{kind:?}");
        cluster.settle().unwrap();
        let (cost, messages, hits) = (
            cluster.total_cost(),
            cluster.total_messages(),
            cluster.local_read_hits(),
        );
        // Quorum runs a majority round per read; fewer keep the
        // debug-mode test quick without weakening "never a hit".
        let reads = if kind == ProtocolKind::Quorum {
            READS / 50
        } else {
            READS
        };
        for _ in 0..reads {
            assert_eq!(h.read(ObjectId(2)).unwrap(), value, "{kind:?}");
        }
        let hit_delta = cluster.local_read_hits() - hits;
        if kind == ProtocolKind::Quorum {
            assert_eq!(hit_delta, 0, "Quorum served a read without a round");
        } else {
            assert_eq!(hit_delta, READS, "{kind:?}");
            assert_eq!(cluster.total_cost(), cost, "{kind:?}");
            assert_eq!(cluster.total_messages(), messages, "{kind:?}");
        }
        cluster.shutdown().unwrap();
    }
}

/// Clause (b): a read issued right behind a write of the same object on
/// one handle waits its turn and returns that write's value, even where
/// the copy the write leaves behind (or found) is a local hit.
#[test]
fn read_async_after_write_async_returns_the_write() {
    for kind in ProtocolKind::EVERY {
        let cluster = Cluster::with_config(sys(), kind, ShardConfig::default().with_window(8));
        let h = cluster.handle(NodeId(0));
        for round in 0..200u32 {
            let value = Bytes::from(round.to_le_bytes().to_vec());
            let write = h.write_async(ObjectId(1), value.clone());
            let read = h.read_async(ObjectId(1));
            assert_eq!(read.wait().unwrap(), value, "{kind:?} round {round}");
            write.wait().unwrap();
        }
        // The path under test was live: with nothing pending, the same
        // handle's next read of a warmed copy skips the node loop.
        let _ = h.read(ObjectId(1)).unwrap();
        let before = cluster.local_read_hits();
        let _ = h.read(ObjectId(1)).unwrap();
        let expect = u64::from(kind != ProtocolKind::Quorum);
        assert_eq!(cluster.local_read_hits() - before, expect, "{kind:?}");
        cluster.shutdown().unwrap();
    }
}

/// One writer, readers hammering the same object from every other
/// client node while the writes and their invalidation/update waves are
/// in flight: each reader's view only ever moves forward, and the
/// replicas converge.
fn stress(kind: ProtocolKind, transport: impl Transport, writes: u64) {
    let sys = sys();
    let cluster =
        Cluster::with_transport(sys, kind, ShardConfig::default(), transport).expect("cluster");
    let object = ObjectId(3);
    let readers = sys.n_clients - 1;
    let start = Arc::new(Barrier::new(readers + 1));
    let done = Arc::new(AtomicBool::new(false));
    let threads: Vec<_> = (1..=readers)
        .map(|node| {
            let h = cluster.handle(NodeId(node as u16));
            let (start, done) = (Arc::clone(&start), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut last = 0u64;
                let mut reads = 0u64;
                let mut give_up = None;
                start.wait();
                // Until the last write's wave has landed here too: the
                // final value's wave is raced like every other, and the
                // cluster is then quiet enough to compare replicas.
                while last < writes {
                    if done.load(Ordering::Acquire) {
                        let at = *give_up.get_or_insert_with(|| Instant::now() + LAST_WAVE);
                        assert!(
                            Instant::now() < at,
                            "{kind:?} reader at n{node}: stuck at {last} of {writes}"
                        );
                    }
                    let raw = h.read(object).expect("read");
                    let seen = match raw.as_ref() {
                        [] => 0,
                        bytes => u64::from_le_bytes(bytes.try_into().expect("8-byte value")),
                    };
                    assert!(
                        seen >= last,
                        "{kind:?} reader at n{node}: saw {seen} after {last}"
                    );
                    last = seen;
                    reads += 1;
                    // Stay hot but let the node threads run on one core.
                    std::thread::yield_now();
                }
                reads
            })
        })
        .collect();
    let writer = cluster.handle(NodeId(0));
    start.wait();
    for v in 1..=writes {
        writer
            .write(object, Bytes::from(v.to_le_bytes().to_vec()))
            .expect("write");
    }
    done.store(true, Ordering::Release);
    for t in threads {
        assert!(t.join().expect("reader panicked") > 0);
    }
    cluster.settle().unwrap();
    assert!(cluster.poisoned().is_none(), "{kind:?}");
    let dump = cluster.shutdown().expect("shutdown");
    assert!(dump.is_coherent(), "{kind:?}: replicas diverged");
}

fn stress_writes() -> u64 {
    if cfg!(debug_assertions) {
        100
    } else {
        1_000
    }
}

#[test]
fn concurrent_readers_only_move_forward_in_proc() {
    for kind in ProtocolKind::EVERY {
        let n = ShardConfig::default().total_nodes(&sys());
        stress(kind, InProcTransport::new(n), stress_writes());
    }
}

#[cfg(target_os = "linux")]
#[test]
fn concurrent_readers_only_move_forward_over_the_tcp_mesh() {
    for kind in ProtocolKind::EVERY {
        let n = ShardConfig::default().total_nodes(&sys());
        let mesh = repmem_net::EpollTransport::loopback(n).expect("loopback mesh");
        stress(kind, mesh, stress_writes());
    }
}

/// The footprint contract: an untouched object costs a slot, not an
/// entry, and an entry stays within one cache line.
#[test]
fn fresh_cluster_has_no_entries_and_entries_stay_small() {
    const { assert!(ENTRY_BYTES <= 64, "an Entry must stay within 64 bytes") };
    let sys = SystemParams {
        m_objects: 65_536,
        ..sys()
    };
    let cfg = ShardConfig::new(2);
    assert_eq!(cfg.total_nodes(&sys), 6);
    let cluster = Cluster::with_config(sys, ProtocolKind::WriteOnce, cfg);
    assert_eq!(cluster.materialised_entries(), 0);
    let h = cluster.handle(NodeId(0));
    h.write(ObjectId(40_000), Bytes::from_static(b"x")).unwrap();
    assert_eq!(&h.read(ObjectId(40_000)).unwrap()[..], b"x");
    cluster.settle().unwrap();
    let touched = cluster.materialised_entries();
    assert!(
        (1..=6).contains(&touched),
        "{touched} entries for one object"
    );
    // The dump judges coherence off the tables, and still covers every
    // object of every node for whoever looks.
    let dump = cluster.shutdown().unwrap();
    assert!(dump.is_coherent());
    assert_eq!(dump.copies.len(), 6);
    assert!(dump.copies.iter().all(|node| node.len() == 65_536));
    assert_eq!(&dump.copies[0][40_000].data[..], b"x");
    assert!(dump.is_coherent());
}

/// Clause (c): a handle that outlives its cluster gets `NodeDown`, never
/// a value out of the dead table — even for a copy that was a hit.
#[test]
fn handle_outliving_shutdown_gets_node_down() {
    for kind in ProtocolKind::ALL {
        let cluster = Cluster::new(sys(), kind);
        let h = cluster.handle(NodeId(2));
        h.write(ObjectId(0), Bytes::from_static(b"v")).unwrap();
        let _ = h.read(ObjectId(0)).unwrap();
        let before = cluster.local_read_hits();
        assert_eq!(&h.read(ObjectId(0)).unwrap()[..], b"v");
        assert_eq!(cluster.local_read_hits(), before + 1, "{kind:?}");
        cluster.shutdown().unwrap();
        assert_eq!(
            h.read(ObjectId(0)).unwrap_err(),
            ClusterError::NodeDown(NodeId(2)),
            "{kind:?}"
        );
    }
}

/// An out-of-range read still reaches the node loop and poisons, and a
/// poisoned cluster fails warmed reads fast with the same error.
#[test]
fn out_of_range_read_poisons_and_stops_the_fast_path() {
    let cluster = Cluster::new(sys(), ProtocolKind::Dragon);
    let good = cluster.handle(NodeId(0));
    let _ = good.read(ObjectId(0)).unwrap();
    let _ = good.read(ObjectId(0)).unwrap();
    assert!(cluster.local_read_hits() > 0);
    let bad = ObjectId(sys().m_objects as u32 + 7);
    let err = cluster.handle(NodeId(1)).read(bad).unwrap_err();
    assert!(matches!(err, ClusterError::Poisoned { .. }), "{err}");
    assert_eq!(good.read(ObjectId(0)).unwrap_err(), err);
    assert!(matches!(
        cluster.shutdown(),
        Err(ClusterError::Poisoned { .. })
    ));
}
