//! The TCP mesh, exercised at the transport level: FIFO delivery under
//! coalesced bursts and partial reads, loopback, the control-connection
//! handoff, a protocol violation costing only the link it arrived on,
//! and the link recovery contract
//! (redial after a dead stream, permanent `Down` once the reconnect
//! budget is spent, dead-forever without a policy).
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{Msg, MsgKind, NodeId, ObjectId, OpTag, PayloadKind, QueueKind};
use repmem_net::codec::{
    encode_envelope_frame, encode_frame, read_frame, write_frame, Frame, WIRE_VERSION,
};
use repmem_net::{
    CtrlHandler, DeliverFn, Endpoint, Envelope, EpollEndpoint, EpollTransport, MeshConfig,
    NetError, Payload, ReconnectPolicy, Transport, CTRL_NODE,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
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

/// An envelope dragging a `size`-byte copy payload, to force partial
/// socket writes (EPOLLOUT drains) and partial reads (FrameBuf reassembly).
fn fat_env(from: NodeId, clock: u64, size: usize) -> Envelope {
    let mut e = env(from, clock);
    e.msg.payload = PayloadKind::Copy;
    e.copy = Some(Payload {
        data: Bytes::from(vec![0xA5u8; size]),
        version: clock,
        writer: from,
    });
    e
}

type Sink = Arc<Mutex<Vec<(NodeId, u64)>>>;

fn sink() -> (Sink, DeliverFn) {
    let got: Sink = Arc::new(Mutex::new(Vec::new()));
    let inner = Arc::clone(&got);
    (
        got,
        Box::new(move |e: Envelope| inner.lock().unwrap().push((e.msg.sender, e.clock))),
    )
}

fn clocks_from(got: &Sink, from: NodeId) -> Vec<u64> {
    got.lock()
        .unwrap()
        .iter()
        .filter(|(s, _)| *s == from)
        .map(|(_, c)| *c)
        .collect()
}

fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let end = Instant::now() + deadline;
    while Instant::now() < end {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn mesh_delivers_fifo_per_link_under_coalesced_bursts() {
    const PER_LINK: u64 = 300;
    let mut t = EpollTransport::loopback(3).unwrap();
    let (got0, d0) = sink();
    let (got1, d1) = sink();
    let (got2, d2) = sink();
    let ep2 = t.bind(NodeId(2), d2).unwrap();
    let ep1 = t.bind(NodeId(1), d1).unwrap();
    let ep0 = t.bind(NodeId(0), d0).unwrap();
    let eps = [&ep0, &ep1, &ep2];
    // Interleave destinations inside each burst so one flush carries a
    // multi-envelope wire buffer per link; throw in fat envelopes so
    // frames straddle socket-buffer boundaries in both directions.
    for clock in 1..=PER_LINK {
        for (i, ep) in eps.iter().enumerate() {
            for j in 0..3usize {
                if i == j {
                    continue;
                }
                let e = if clock % 37 == 0 {
                    fat_env(NodeId(i as u16), clock, 96 * 1024)
                } else {
                    env(NodeId(i as u16), clock)
                };
                ep.send(NodeId(j as u16), &e).unwrap();
            }
        }
        if clock % 8 == 0 {
            for ep in &eps {
                ep.flush().unwrap();
            }
        }
    }
    for ep in &eps {
        ep.flush().unwrap();
    }
    let full = |got: &Sink| got.lock().unwrap().len() == 2 * PER_LINK as usize;
    assert!(
        wait_until(Duration::from_secs(10), || full(&got0)
            && full(&got1)
            && full(&got2)),
        "deliveries incomplete: {} {} {}",
        got0.lock().unwrap().len(),
        got1.lock().unwrap().len(),
        got2.lock().unwrap().len()
    );
    let want: Vec<u64> = (1..=PER_LINK).collect();
    for got in [&got0, &got1, &got2] {
        for from in 0..3u16 {
            let seen = clocks_from(got, NodeId(from));
            if seen.is_empty() {
                continue; // own link
            }
            assert_eq!(seen, want, "link from node {from} lost FIFO order");
        }
    }
    for ep in eps {
        ep.close();
    }
}

#[test]
fn mesh_loopback_delivery_is_inline_and_ordered() {
    let mut t = EpollTransport::loopback(2).unwrap();
    let (got, d) = sink();
    let ep1 = t.bind(NodeId(1), d).unwrap();
    let ep0 = t.bind(NodeId(0), Box::new(|_| {})).unwrap();
    for clock in 1..=5u64 {
        ep1.send(NodeId(1), &env(NodeId(1), clock)).unwrap();
    }
    // Self-sends bypass the wire entirely: visible before any flush.
    assert_eq!(clocks_from(&got, NodeId(1)), vec![1, 2, 3, 4, 5]);
    ep0.close();
    ep1.close();
}

/// A control connection reaches its handler together with whatever
/// arrived behind the hello: a driver whose hello and first request
/// share a segment loses nothing, and the live socket follows on.
#[test]
fn mesh_hands_control_connections_over_with_the_bytes_behind_the_hello() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let report = Frame::CostReport {
        cost: 7,
        messages: 3,
    };
    let ctrl: CtrlHandler = {
        let report = report.clone();
        Box::new(move |mut conn| {
            while let Ok(Frame::CostQuery) = read_frame(&mut conn.reader) {
                if write_frame(&mut conn.writer, &report).is_err() {
                    return;
                }
            }
        })
    };
    let ep = EpollEndpoint::establish(
        MeshConfig {
            me: NodeId(0),
            listener,
            peers: vec![addr],
            link_timeout: Duration::from_secs(5),
            reconnect: None,
        },
        Box::new(|_| {}),
        Some(ctrl),
    )
    .unwrap();
    let mut driver = TcpStream::connect(addr).unwrap();
    driver
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut opening = encode_frame(&Frame::Hello {
        version: WIRE_VERSION,
        node: CTRL_NODE,
    });
    opening.extend_from_slice(&encode_frame(&Frame::CostQuery));
    driver.write_all(&opening).unwrap();
    assert_eq!(read_frame(&mut driver).unwrap(), report);
    write_frame(&mut driver, &Frame::CostQuery).unwrap();
    assert_eq!(read_frame(&mut driver).unwrap(), report);
    drop(driver); // the handler thread exits on EOF; close joins it
    ep.close();
}

// ---------------------------------------------------------------------
// Link failure and recovery.
// ---------------------------------------------------------------------

fn mesh_pair(reconnect: Option<ReconnectPolicy>) -> (EpollEndpoint, EpollEndpoint, Sink) {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
    let cfg = |me: u16, listener: TcpListener| MeshConfig {
        me: NodeId(me),
        listener,
        peers: peers.clone(),
        link_timeout: Duration::from_secs(5),
        reconnect,
    };
    let (got1, d1) = sink();
    let ep1 = EpollEndpoint::establish(cfg(1, l1), d1, None).unwrap();
    let ep0 = EpollEndpoint::establish(cfg(0, l0), Box::new(|_| {}), None).unwrap();
    (ep0, ep1, got1)
}

fn send_flush(ep: &EpollEndpoint, to: NodeId, e: &Envelope) -> Result<(), NetError> {
    ep.send(to, e)?;
    ep.flush()
}

/// A frame the codec rejects — here tag 8, the retired batch frame —
/// is a protocol violation on the link it arrived on and nowhere else:
/// that link is torn down (nothing behind the bad frame is delivered),
/// the endpoint's other links keep carrying traffic.
#[test]
fn mesh_unknown_frame_tag_tears_down_only_its_own_link() {
    let l0 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l1 = TcpListener::bind("127.0.0.1:0").unwrap();
    let l2 = TcpListener::bind("127.0.0.1:0").unwrap();
    let peers = vec![
        l0.local_addr().unwrap(),
        l1.local_addr().unwrap(),
        l2.local_addr().unwrap(),
    ];
    let cfg = |me: u16, listener: TcpListener| MeshConfig {
        me: NodeId(me),
        listener,
        peers: peers.clone(),
        link_timeout: Duration::from_secs(5),
        reconnect: None,
    };
    let (got2, d2) = sink();
    let ep2 = EpollEndpoint::establish(cfg(2, l2), d2, None).unwrap();
    let (got1, d1) = sink();
    let ep1 = EpollEndpoint::establish(cfg(1, l1), d1, None).unwrap();

    // Node 0 is a hand-driven socket: it dials node 1 like any
    // lower-numbered peer and says hello.
    let mut raw0 = TcpStream::connect(peers[1]).unwrap();
    write_frame(
        &mut raw0,
        &Frame::Hello {
            version: WIRE_VERSION,
            node: 0,
        },
    )
    .unwrap();
    raw0.write_all(&encode_envelope_frame(&env(NodeId(0), 1)))
        .unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || clocks_from(&got1, NodeId(0))
            == [1]),
        "well-formed traffic from the raw peer never arrived"
    );

    // One write: a one-byte body carrying tag 8, then a well-formed
    // envelope that must never be delivered.
    let mut bad = vec![1, 0, 0, 0, 8];
    bad.extend_from_slice(&encode_envelope_frame(&env(NodeId(0), 2)));
    raw0.write_all(&bad).unwrap();
    // Node 1 hangs up on the offender ...
    raw0.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(
        matches!(raw0.read(&mut [0u8; 16]), Ok(0) | Err(_)),
        "link survived an undecodable frame"
    );
    // ... and, with no reconnect policy, reports the link dead.
    assert!(wait_until(Duration::from_secs(5), || matches!(
        send_flush(&ep1, NodeId(0), &env(NodeId(1), 1)),
        Err(NetError::Closed(NodeId(0)))
    )));
    // The 1 <-> 2 link is untouched, in both directions.
    send_flush(&ep1, NodeId(2), &env(NodeId(1), 7)).unwrap();
    send_flush(&ep2, NodeId(1), &env(NodeId(2), 8)).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || clocks_from(&got2, NodeId(1))
            == [7]
            && clocks_from(&got1, NodeId(2)) == [8]),
        "the violation on link 0-1 disturbed link 1-2"
    );
    assert_eq!(clocks_from(&got1, NodeId(0)), [1]);
    ep1.close();
    ep2.close();
}

#[test]
fn mesh_link_recovers_after_a_dead_stream() {
    let policy = ReconnectPolicy {
        max_attempts: 40,
        base: Duration::from_millis(2),
        cap: Duration::from_millis(20),
    };
    let (ep0, ep1, got1) = mesh_pair(Some(policy));
    send_flush(&ep0, NodeId(1), &env(NodeId(0), 1)).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || clocks_from(&got1, NodeId(0))
            .contains(&1)),
        "baseline send lost"
    );

    ep0.drop_link(NodeId(1));
    // Keep sending fresh clocks: attempts while the link is down fail
    // fast (or die with the old stream); once recovery redials, a send
    // is accepted onto the fresh stream and must arrive.
    let end = Instant::now() + Duration::from_secs(10);
    let mut clock = 1u64;
    let mut recovered = false;
    while Instant::now() < end && !recovered {
        clock += 1;
        if send_flush(&ep0, NodeId(1), &env(NodeId(0), clock)).is_ok() {
            let c = clock;
            recovered = wait_until(Duration::from_secs(2), || {
                clocks_from(&got1, NodeId(0)).contains(&c)
            });
        } else {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    assert!(recovered, "link never recovered after drop_link");
    // Per-link FIFO held across the outage: clocks arrive in send order.
    let seen = clocks_from(&got1, NodeId(0));
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "reordered: {seen:?}");
    ep0.close();
    ep1.close();
}

#[test]
fn mesh_reconnect_budget_exhaustion_turns_the_peer_down() {
    let policy = ReconnectPolicy {
        max_attempts: 3,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
    };
    let (ep0, ep1, got1) = mesh_pair(Some(policy));
    send_flush(&ep0, NodeId(1), &env(NodeId(0), 1)).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || clocks_from(&got1, NodeId(0))
            .contains(&1)),
        "baseline send lost"
    );

    // The peer goes away for good: its listener closes with it, so every
    // redial is refused and the budget runs out.
    ep1.close();
    let end = Instant::now() + Duration::from_secs(10);
    let mut down = false;
    while Instant::now() < end && !down {
        match send_flush(&ep0, NodeId(1), &env(NodeId(0), 99)) {
            Err(NetError::Down(n)) => {
                assert_eq!(n, NodeId(1));
                down = true;
            }
            _ => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    assert!(down, "exhausted reconnect budget never surfaced as Down");
    ep0.close();
}

#[test]
fn mesh_without_reconnect_policy_stays_dead_forever() {
    let (ep0, ep1, got1) = mesh_pair(None);
    send_flush(&ep0, NodeId(1), &env(NodeId(0), 1)).unwrap();
    assert!(
        wait_until(Duration::from_secs(5), || clocks_from(&got1, NodeId(0))
            .contains(&1)),
        "baseline send lost"
    );
    ep0.drop_link(NodeId(1));
    // The historical contract: no recovery, the link fails fast with the
    // transient error and never turns Down on its own.
    let end = Instant::now() + Duration::from_secs(3);
    let mut saw_closed = false;
    while Instant::now() < end {
        match send_flush(&ep0, NodeId(1), &env(NodeId(0), 2)) {
            Err(NetError::Closed(NodeId(1))) => {
                saw_closed = true;
                break;
            }
            Err(other) => panic!("expected Closed, got {other}"),
            Ok(()) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    assert!(saw_closed, "dead link never reported Closed");
    assert!(matches!(
        send_flush(&ep0, NodeId(1), &env(NodeId(0), 3)),
        Err(NetError::Closed(NodeId(1)))
    ));
    ep0.close();
    ep1.close();
}
