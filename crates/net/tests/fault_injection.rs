//! Fault-layer semantics, exercised at the transport level: permanent
//! kills keyed to send counts, delivery stalls and the imperative kill
//! handle. (The TCP mesh's own fail-stop links are pinned in
//! `epoll_mesh.rs`.)

use repmem_core::{Msg, MsgKind, NodeId, ObjectId, OpTag, PayloadKind, QueueKind};
use repmem_net::{Envelope, FaultSchedule, FaultTransport, InProcTransport, NetError, Transport};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn env(from: NodeId, clock: u64) -> Envelope {
    Envelope {
        msg: Msg {
            kind: MsgKind::Ack,
            initiator: from,
            sender: from,
            object: ObjectId(0),
            queue: QueueKind::ALL[0],
            payload: PayloadKind::Token,
            op: OpTag(clock),
            epoch: 0,
        },
        params: None,
        copy: None,
        clock,
    }
}

type Sink = Arc<Mutex<Vec<u64>>>;

fn sink() -> (Sink, repmem_net::DeliverFn) {
    let got: Sink = Arc::new(Mutex::new(Vec::new()));
    let inner = Arc::clone(&got);
    (
        got,
        Box::new(move |e: Envelope| inner.lock().unwrap().push(e.clock)),
    )
}

#[test]
fn kill_is_permanent_down_for_both_directions_but_not_loopback() {
    let mut t = FaultTransport::new(
        InProcTransport::new(2),
        FaultSchedule::new().kill_at(1, NodeId(1)),
    );
    let faults = t.handle();
    let (got1, deliver1) = sink();
    let ep1 = t.bind(NodeId(1), deliver1).unwrap();
    let ep0 = t.bind(NodeId(0), Box::new(|_| {})).unwrap();
    // To the dead node, and from it: permanently down, named after the
    // dead endpoint either way.
    assert!(matches!(
        ep0.send(NodeId(1), &env(NodeId(0), 1)),
        Err(NetError::Down(NodeId(1)))
    ));
    assert!(matches!(
        ep1.send(NodeId(0), &env(NodeId(1), 2)),
        Err(NetError::Down(NodeId(1)))
    ));
    // A kill is for good; killing again changes nothing.
    faults.kill(NodeId(1));
    assert!(ep0.send(NodeId(1), &env(NodeId(0), 3)).is_err());
    // A node's loopback is not a network link: even a dead node keeps
    // its local delivery.
    ep1.send(NodeId(1), &env(NodeId(1), 4)).unwrap();
    assert_eq!(*got1.lock().unwrap(), vec![4]);
}

#[test]
fn delay_burst_stalls_exactly_the_scheduled_sends() {
    const STALL: Duration = Duration::from_millis(60);
    const HALF: Duration = Duration::from_millis(30);
    let mut t = FaultTransport::new(
        InProcTransport::new(2),
        FaultSchedule::new().delay_burst_at(1, STALL, 2),
    );
    let (got, deliver) = sink();
    let _ep1 = t.bind(NodeId(1), deliver).unwrap();
    let ep0 = t.bind(NodeId(0), Box::new(|_| {})).unwrap();
    let mut elapsed = Vec::new();
    for clock in 1..=3u64 {
        let start = Instant::now();
        ep0.send(NodeId(1), &env(NodeId(0), clock)).unwrap();
        elapsed.push(start.elapsed());
    }
    assert!(
        elapsed[0] >= HALF,
        "first burst send not stalled: {elapsed:?}"
    );
    assert!(
        elapsed[1] >= HALF,
        "second burst send not stalled: {elapsed:?}"
    );
    assert!(
        elapsed[2] < HALF,
        "burst leaked past its send budget: {elapsed:?}"
    );
    // Stalled, not dropped, not reordered.
    assert_eq!(*got.lock().unwrap(), vec![1, 2, 3]);
}
