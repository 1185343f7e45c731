//! The Quorum one-round read keeps the register atomic.
//!
//! A read skips its write-back only when every vote it counted carried
//! the stamp it returns. This test builds, step by step on
//! [`StepCluster`], the schedule in which skipping it anyway would lose
//! atomicity: a read that sees a write only one other replica holds must
//! write it back before returning, or a later read polling a disjoint
//! majority returns the older value.
//!
//! The per-object coherence the explorer checks and the committed-write
//! freshness `repmem-chaos` checks both miss this: the write never
//! commits to a majority while the reads run. It is a real-time order
//! between two reads at different nodes.

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, OpKind, ProtocolKind, SystemParams};
use repmem_runtime::StepCluster;

const OBJ: ObjectId = ObjectId(0);

fn deliver(c: &mut StepCluster, from: u16, to: u16) {
    assert!(
        c.deliver(NodeId(from), NodeId(to)).unwrap(),
        "nothing to deliver on n{from} -> n{to}"
    );
}

/// The result of operation `id`, if it completed since the last poll.
fn done(c: &mut StepCluster, id: u64) -> Option<Bytes> {
    c.poll()
        .into_iter()
        .find(|(op, _)| *op == id)
        .map(|(_, r)| r.expect("operation failed"))
}

#[test]
fn a_read_that_saw_a_minority_write_writes_it_back() {
    // Five replicas: a majority is the initiator plus two peer votes.
    let sys = SystemParams {
        n_clients: 4,
        s: 16,
        p: 4,
        m_objects: 1,
    };
    let mut c = StepCluster::new(sys, ProtocolKind::Quorum).unwrap();
    let w = Bytes::from_static(b"w");

    // W at n0 counts votes from n1 and n3 and starts its commit wave;
    // none of the wave is delivered, so only n0 holds W.
    c.issue(NodeId(0), OpKind::Write, OBJ, Some(w.clone()), 1)
        .unwrap();
    deliver(&mut c, 0, 1);
    deliver(&mut c, 0, 3);
    deliver(&mut c, 1, 0);
    deliver(&mut c, 3, 0);

    // R1 at n2. Its probe reaches n0, whose vote (carrying W) queues on
    // link 0->2 behind W's probe and commit; n2 takes all three, so it
    // counts n0's vote for W. Then it counts n3's vote for the initial
    // value: the votes disagree.
    c.issue(NodeId(2), OpKind::Read, OBJ, None, 2).unwrap();
    deliver(&mut c, 2, 0);
    for _ in 0..3 {
        deliver(&mut c, 0, 2);
    }
    deliver(&mut c, 2, 3);
    deliver(&mut c, 3, 2);

    // R1 completes over links 2<->1 and 2<->3 alone.
    let links = [(2, 1), (1, 2), (2, 3), (3, 2)];
    let r1 = loop {
        if let Some(v) = done(&mut c, 2) {
            break v;
        }
        let ready = c.links_ready();
        let &(from, to) = links
            .iter()
            .find(|&&(f, t)| ready.contains(&(NodeId(f), NodeId(t))))
            .expect("R1 stalled with links 2<->1 and 2<->3 empty");
        deliver(&mut c, from, to);
    };
    assert_eq!(r1, w, "R1 saw n0's vote for W");

    // R2 at n4, issued after R1 returned, counts n1 and n3: with n4 a
    // majority that holds neither n0 nor n2, the only replicas W had
    // reached before R1's write-back. It must not return a value older
    // than R1's.
    c.issue(NodeId(4), OpKind::Read, OBJ, None, 3).unwrap();
    deliver(&mut c, 4, 1);
    deliver(&mut c, 4, 3);
    deliver(&mut c, 1, 4);
    deliver(&mut c, 3, 4);
    assert_eq!(
        done(&mut c, 3),
        Some(w),
        "R2 returned a value older than R1's"
    );

    // Everything left on the wire settles into one agreed copy.
    while let Some(&(from, to)) = c.links_ready().first() {
        assert!(c.deliver(from, to).unwrap());
    }
    assert!(c.poisoned().is_none());
    assert!(c.poll().iter().any(|(id, r)| *id == 1 && r.is_ok()));
    let replicas = c.replicas();
    assert!(replicas.iter().all(|r| r[0].data == b"w"[..]));
}
