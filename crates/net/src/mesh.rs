//! The TCP mesh: the cluster's FIFO links realized as real sockets, all
//! of one endpoint's links multiplexed onto an epoll event loop.
//!
//! Exactly one TCP stream exists per unordered node pair — the
//! lower-numbered node dials, the higher-numbered node accepts — so the
//! stream's byte order *is* the link's FIFO order in both directions.
//! Every connection opens with a [`Frame::Hello`] identifying the dialer
//! (peer node id, or [`CTRL_NODE`] for a control-plane connection), and
//! all subsequent traffic is length-prefixed envelope frames from the
//! [`codec`](crate::codec) module.
//!
//! Two deployment shapes share the same [`EpollEndpoint`]:
//!
//! * [`EpollTransport::loopback`] — a single-process mesh over
//!   `127.0.0.1` ephemeral ports, plugging into `Cluster` exactly like
//!   the in-process transport. Every endpoint it binds is driven by one
//!   shared runner thread.
//! * [`EpollEndpoint::establish`] — one endpoint per OS process (its own
//!   runner thread), used by the `repmem-node` binary: dials retry until
//!   the peer processes come up, and an optional control handler serves
//!   driver connections.
//!
//! How the I/O is structured:
//!
//! * **One event loop per endpoint.** A nonblocking listener, every
//!   peer stream, in-flight reconnect dials and an `eventfd` wakeup all
//!   register with one [`Epoll`] instance; readiness drives everything.
//! * **One flush discipline.** [`Endpoint::send`] only appends the
//!   encoded frame to the link's outbound buffer; [`Endpoint::flush`]
//!   pushes each link's whole burst with one `write` syscall, so a
//!   broadcast fan-out costs one syscall (and one receiver wakeup) per
//!   *link*, not per envelope. Callers must flush before blocking on
//!   their inbox — the cluster node loop does.
//! * **Backpressure via `EPOLLOUT`.** A flush that fills the socket
//!   buffer parks the remainder and hands the link to the loop, which
//!   arms `EPOLLOUT` and drains as the kernel frees space. Senders never
//!   block on a slow peer.
//! * **Control handoff.** Incoming partial frames are reassembled by
//!   [`FrameBuf`]; a connection whose hello names [`CTRL_NODE`] is
//!   handed to a dedicated blocking thread, with any bytes that arrived
//!   behind the hello chained in front of the live socket.
//!
//! ## Link failure and recovery
//!
//! When a peer stream dies (read error or failed write) the link is
//! marked dead and sends fail fast with the *transient*
//! [`NetError::Closed`]. With a [`ReconnectPolicy`] configured, the
//! dialing side of the pair then redials on loop timers with
//! nonblocking `connect` (exponential backoff and jitter, no threads
//! spawned); a re-established stream is a fresh FIFO link — nothing
//! sent into the dead link is replayed, retransmission is the runtime's
//! job. Once the attempt budget is exhausted the link turns *fatal* and
//! sends fail with the permanent [`NetError::Down`]. Without a policy a
//! dead link stays dead and keeps failing with `Closed`, which the
//! runtime treats as a routine shutdown-time condition.

use crate::codec::{encode_envelope_frame_into, encode_frame_into, write_frame, Frame, FrameBuf};
use crate::epoll::{
    connect_nonblocking, take_socket_error, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN,
    EPOLLOUT, EPOLLRDHUP,
};
use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport, WIRE_VERSION};
use repmem_core::NodeId;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, OwnedFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Node id carried by a [`Frame::Hello`] on control-plane connections.
pub const CTRL_NODE: u16 = 0xFFFF;

/// An accepted control-plane connection, handed to the [`CtrlHandler`]
/// after the hello handshake. The reader must be reused as-is — it may
/// already hold buffered frames that arrived right behind the hello
/// (which is why it is a boxed reader, not the bare stream: the mesh
/// hands over a chain of already-buffered bytes + the live socket).
pub struct CtrlConn {
    /// Framed read half.
    pub reader: Box<dyn std::io::Read + Send>,
    /// Write half.
    pub writer: TcpStream,
}

/// Handler invoked (on the connection's own thread, which must not
/// block endpoint close) for each accepted control connection.
pub type CtrlHandler = Box<dyn Fn(CtrlConn) + Send + Sync>;

/// Bounded link-recovery policy: how the dialing side of a dead pair
/// tries to bring the stream back.
///
/// Attempt `k` waits `min(base * 2^k, cap)` plus a deterministic jitter
/// of up to half that (seeded from the node pair, so two nodes redialing
/// the same peer don't thunder in lockstep), then dials with a connect
/// timeout of `cap` so one stalled SYN cannot eat the whole budget.
/// After `max_attempts` failures the link is declared permanently down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Redial attempts before the link turns fatal ([`NetError::Down`]).
    pub max_attempts: u32,
    /// First backoff step (doubles each attempt).
    pub base: Duration,
    /// Backoff ceiling, and the per-attempt connect timeout.
    pub cap: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        ReconnectPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(250),
        }
    }
}

/// Everything one node needs to join the mesh.
pub struct MeshConfig {
    /// This node's id.
    pub me: NodeId,
    /// This node's bound listener.
    pub listener: TcpListener,
    /// Listen address of every node, indexed by node id (`peers[me]` is
    /// this node's own address).
    pub peers: Vec<SocketAddr>,
    /// Total budget for dialing each peer (retries until then) and for
    /// waiting on a not-yet-accepted inbound link at flush.
    pub link_timeout: Duration,
    /// Redial dead links with this policy; `None` keeps the historical
    /// dead-forever behaviour (sends fail fast with `Closed`).
    pub reconnect: Option<ReconnectPolicy>,
}

/// SplitMix64 step: the deterministic jitter source (no RNG state to
/// carry, no extra dependency).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Backoff for attempt `k`: `min(base * 2^k, cap)` plus jitter in
/// `[0, step/2]` drawn deterministically from `seed ^ k`.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    let step = base.saturating_mul(1u32 << attempt.min(16)).min(cap);
    let half = (step.as_nanos() as u64) / 2;
    let jitter = if half == 0 {
        0
    } else {
        splitmix64(seed ^ u64::from(attempt)) % (half + 1)
    };
    step + Duration::from_nanos(jitter)
}

/// Per-attempt connect ceiling inside [`dial_with_retry`]: one stalled
/// SYN costs at most this much of the budget before the next attempt.
const DIAL_ATTEMPT_CAP: Duration = Duration::from_secs(1);
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(5);
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Blocking dial that retries refused or stalled connects (bounded
/// per-attempt timeout, growing jittered backoff in between) until
/// `budget` is spent — peers and drivers may start in any order.
pub fn dial_with_retry(addr: SocketAddr, budget: Duration) -> Result<TcpStream, NetError> {
    let deadline = Instant::now() + budget;
    let seed = splitmix64(u64::from(addr.port()));
    let mut attempt = 0u32;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(NetError::Io(format!(
                "dialing {addr}: budget {budget:?} exhausted"
            )));
        }
        match TcpStream::connect_timeout(&addr, left.min(DIAL_ATTEMPT_CAP)) {
            Ok(s) => return Ok(s),
            Err(e) => {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(NetError::Io(format!("dialing {addr}: {e}")));
                }
                let wait = backoff_delay(DIAL_BACKOFF_BASE, DIAL_BACKOFF_CAP, attempt, seed);
                std::thread::sleep(wait.min(left));
                attempt += 1;
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sender-visible half of one link, shared with the event loop.
struct LinkOut {
    /// Encoded outbound frames; `wire[sent..]` is not yet on the wire.
    wire: Vec<u8>,
    /// Bytes of `wire` already written to the socket.
    sent: usize,
    /// Writer handle onto the live stream (a dup of the loop's fd).
    stream: Option<TcpStream>,
    /// The socket buffer filled mid-flush: the loop owns the drain via
    /// `EPOLLOUT` and senders must not write until it empties.
    blocked: bool,
    /// Install generation, bumped under this lock at every (re)install.
    /// A failure observed under generation `g` may only tear the link
    /// down while the generation is still `g`.
    gen: u64,
}

struct Link {
    out: Mutex<LinkOut>,
    ready: Condvar,
    /// Stream down right now (transient with a reconnect policy).
    dead: AtomicBool,
    /// Reconnect budget exhausted: permanently unreachable.
    fatal: AtomicBool,
}

/// Loop commands pushed by sender threads (paired with a wakeup).
enum LoopCmd {
    /// A flush hit `WouldBlock`: arm `EPOLLOUT` and drain in the loop.
    ArmWrite(NodeId),
    /// A sender-side write failed under this generation: clean up the
    /// loop's half of the link and kick off reconnect.
    LinkFailed(NodeId, u64),
}

struct MeshShared {
    me: NodeId,
    deliver: DeliverFn,
    ctrl: Option<CtrlHandler>,
    links: Vec<Link>,
    peers: Vec<SocketAddr>,
    reconnect: Option<ReconnectPolicy>,
    link_timeout: Duration,
    closed: AtomicBool,
    wake: WakeFd,
    cmds: Mutex<Vec<LoopCmd>>,
    /// Control-connection handler threads, joined at close.
    ctrl_threads: Mutex<Vec<JoinHandle<()>>>,
    /// Set once the loop half has fully torn down: the runner thread may
    /// be driving other endpoints too, so `close` waits on this instead
    /// of joining it.
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl MeshShared {
    fn push_cmd(&self, cmd: LoopCmd) {
        lock(&self.cmds).push(cmd);
        self.wake.wake();
    }

    /// The loop half is gone: release anyone blocked in `close`.
    fn finish(&self) {
        *lock(&self.done) = true;
        self.done_cv.notify_all();
    }

    /// Sender-side link teardown: a write on the caller's dup failed.
    /// Marks the link dead under the out lock (the generation cannot
    /// move underneath us — installs take the same lock), shuts the
    /// socket down so the loop's read half errors out too, and tells
    /// the loop to clean up its half and start recovery.
    fn sender_link_down(&self, to: NodeId, link: &Link, out: &mut LinkOut) {
        let gen = out.gen;
        if let Some(s) = out.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        link.dead.store(true, Ordering::SeqCst);
        out.wire.clear();
        out.sent = 0;
        out.blocked = false;
        link.ready.notify_all();
        self.push_cmd(LoopCmd::LinkFailed(to, gen));
    }
}

// Event tokens are `slot << INNER_BITS | inner`: the slot names one of
// the event loops sharing the runner's epoll instance, the inner token
// names the fd within that loop. Peer links use their node index;
// everything else lives far above the 16-bit node-id space but within
// the inner mask.
const INNER_BITS: u32 = 40;
const INNER_MASK: u64 = (1 << INNER_BITS) - 1;
const TOK_WAKE: u64 = INNER_MASK;
const TOK_LISTENER: u64 = INNER_MASK - 1;
const TOK_CONNECT_BASE: u64 = 1 << 32;
const TOK_PENDING_BASE: u64 = 1 << 33;
/// The shared runner's own wake fd: the one slot no loop can get.
const RUNNER_SLOT: u64 = u64::MAX >> INNER_BITS;

/// How long an accepted connection may sit without completing its
/// hello, so a silent connection cannot pin a pending slot forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-event read ceiling: level-triggered epoll re-reports leftover
/// bytes, so capping one link's drain keeps the loop fair under load.
const READ_BURST: usize = 1 << 20;

/// The loop's live half of an installed link.
struct LiveLink {
    stream: TcpStream,
    rbuf: FrameBuf,
    gen: u64,
    /// `EPOLLOUT` currently armed for this fd.
    writing: bool,
}

/// An accepted connection waiting for its hello frame.
struct PendingConn {
    stream: TcpStream,
    rbuf: FrameBuf,
    deadline: Instant,
}

enum ReconnState {
    /// Backoff timer before the next dial.
    Waiting(Instant),
    /// Nonblocking connect in flight (fd registered for `EPOLLOUT`).
    Connecting(OwnedFd, Instant),
}

struct Reconn {
    attempt: u32,
    state: ReconnState,
}

struct EventLoop {
    shared: Arc<MeshShared>,
    /// The runner's epoll instance this loop's fds live in (many loops,
    /// one instance, one `epoll_wait` covering them all).
    ep: Arc<Epoll>,
    /// This loop's token namespace: `slot << INNER_BITS`.
    slot: u64,
    listener: TcpListener,
    links: Vec<Option<LiveLink>>,
    pending: Vec<(u64, PendingConn)>,
    reconn: Vec<Option<Reconn>>,
    next_pending_token: u64,
    scratch: Vec<u8>,
}

impl EventLoop {
    fn reconnect_seed(&self, peer: NodeId) -> u64 {
        (u64::from(self.shared.me.0) << 16) | u64::from(peer.0)
    }

    /// Namespace an inner token into this loop's slot.
    fn tok(&self, inner: u64) -> u64 {
        (self.slot << INNER_BITS) | inner
    }

    /// Earliest pending timer (reconnect backoff, connect deadline,
    /// hello deadline). The runner folds this into its `epoll_wait`
    /// timeout.
    fn next_deadline(&self) -> Option<Instant> {
        let mut earliest: Option<Instant> = None;
        let mut consider = |at: Instant| match earliest {
            Some(e) if e <= at => {}
            _ => earliest = Some(at),
        };
        for r in self.reconn.iter().flatten() {
            match r.state {
                ReconnState::Waiting(at) => consider(at),
                ReconnState::Connecting(_, deadline) => consider(deadline),
            }
        }
        for (_, p) in &self.pending {
            consider(p.deadline);
        }
        earliest
    }

    /// Route one ready event by its inner (slot-stripped) token.
    fn dispatch(&mut self, inner: u64, bits: u32) {
        match inner {
            TOK_WAKE => self.shared.wake.drain(),
            TOK_LISTENER => self.accept_all(),
            t if t >= TOK_PENDING_BASE => self.pending_event(t),
            t if t >= TOK_CONNECT_BASE => self.connect_event(NodeId((t - TOK_CONNECT_BASE) as u16)),
            t => self.link_event(NodeId(t as u16), bits),
        }
    }

    /// End-of-turn upkeep: sender commands, then timers.
    fn service(&mut self) {
        self.drain_cmds();
        self.run_timers();
    }

    fn accept_all(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.closed.load(Ordering::SeqCst) {
                        return;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let token = TOK_PENDING_BASE + self.next_pending_token;
                    // Wrap within the pending range of the inner token
                    // space (the range is far larger than any plausible
                    // number of concurrently pending connections).
                    self.next_pending_token =
                        (self.next_pending_token + 1) & (TOK_PENDING_BASE - 1);
                    if self
                        .ep
                        .add(stream.as_raw_fd(), self.tok(token), EPOLLIN)
                        .is_ok()
                    {
                        self.pending.push((
                            token,
                            PendingConn {
                                stream,
                                rbuf: FrameBuf::new(),
                                deadline: Instant::now() + HELLO_TIMEOUT,
                            },
                        ));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// A not-yet-identified inbound connection became readable: pull
    /// bytes until the hello frame decodes, then route the connection.
    fn pending_event(&mut self, token: u64) {
        let Some(slot) = self.pending.iter().position(|(t, _)| *t == token) else {
            return;
        };
        let drop_conn = |el: &mut EventLoop, slot: usize| {
            let (_, p) = el.pending.remove(slot);
            let _ = el.ep.del(p.stream.as_raw_fd());
        };
        let mut buf = [0u8; 4096];
        loop {
            let res = (&self.pending[slot].1.stream).read(&mut buf);
            match res {
                Ok(0) => return drop_conn(self, slot),
                Ok(n) => self.pending[slot].1.rbuf.extend(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return drop_conn(self, slot),
            }
            match self.pending[slot].1.rbuf.next_frame() {
                Ok(None) => {} // hello still partial: keep reading
                Ok(Some(Frame::Hello { version, node })) if version == WIRE_VERSION => {
                    let (_, conn) = self.pending.remove(slot);
                    let _ = self.ep.del(conn.stream.as_raw_fd());
                    return self.route_hello(node, conn);
                }
                // Wrong version, a non-hello first frame, or garbage:
                // drop the connection.
                _ => return drop_conn(self, slot),
            }
        }
    }

    /// An identified inbound connection: control handoff or peer link.
    fn route_hello(&mut self, node: u16, conn: PendingConn) {
        if node == CTRL_NODE {
            if self.shared.ctrl.is_none() {
                return;
            }
            // Hand the connection to a dedicated blocking thread; bytes
            // that arrived behind the hello are chained in front of the
            // live stream so nothing is lost.
            if conn.stream.set_nonblocking(false).is_err() {
                return;
            }
            let Ok(read_half) = conn.stream.try_clone() else {
                return;
            };
            let leftover = conn.rbuf.pending().to_vec();
            let reader: Box<dyn Read + Send> = Box::new(std::io::BufReader::new(
                std::io::Cursor::new(leftover).chain(read_half),
            ));
            let c = CtrlConn {
                reader,
                writer: conn.stream,
            };
            // CtrlHandler is not Clone; run it via the shared Arc from a
            // thread joined at close.
            let shared = Arc::clone(&self.shared);
            let h = std::thread::spawn(move || {
                if let Some(ctrl) = &shared.ctrl {
                    ctrl(c);
                }
            });
            lock(&self.shared.ctrl_threads).push(h);
            return;
        }
        let peer = NodeId(node);
        // Only lower-numbered peers dial us; a repeat hello is the
        // peer's reconnect. Fatal peers stay down.
        if peer.idx() >= self.shared.links.len() || peer >= self.shared.me {
            return;
        }
        if self.shared.links[peer.idx()].fatal.load(Ordering::SeqCst) {
            return;
        }
        self.install(peer, conn.stream, conn.rbuf, false);
    }

    /// Install `stream` as the live link to `peer` and register it with
    /// the loop. `hello` queues our hello frame first (dialer side).
    fn install(&mut self, peer: NodeId, stream: TcpStream, rbuf: FrameBuf, hello: bool) {
        if self.shared.closed.load(Ordering::SeqCst) {
            return;
        }
        if let Some(old) = self.links[peer.idx()].take() {
            // A fresh stream replaces a live one (peer redialed first):
            // retire the old fd.
            let _ = self.ep.del(old.stream.as_raw_fd());
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let link = &self.shared.links[peer.idx()];
        let gen = {
            let mut out = lock(&link.out);
            out.gen += 1;
            out.stream = Some(writer);
            // Keep whatever senders queued while the stream was not up
            // yet: those envelopes were accepted (the link was not dead),
            // so they must reach the wire. Teardown paths already clear
            // the buffer when a link actually dies, so nothing stale can
            // survive into a reinstall.
            out.sent = 0;
            out.blocked = false;
            if hello {
                let mut prefixed = Vec::new();
                encode_frame_into(
                    &Frame::Hello {
                        version: WIRE_VERSION,
                        node: self.shared.me.0,
                    },
                    &mut prefixed,
                );
                prefixed.append(&mut out.wire);
                out.wire = prefixed;
            }
            link.dead.store(false, Ordering::SeqCst);
            out.gen
        };
        link.ready.notify_all();
        if self
            .ep
            .add(
                stream.as_raw_fd(),
                self.tok(u64::from(peer.0)),
                EPOLLIN | EPOLLRDHUP,
            )
            .is_err()
        {
            lock(&link.out).stream = None;
            link.dead.store(true, Ordering::SeqCst);
            return;
        }
        self.links[peer.idx()] = Some(LiveLink {
            stream,
            rbuf,
            gen,
            writing: false,
        });
        self.reconn[peer.idx()] = None;
        if hello {
            self.drain_link(peer);
        }
        // Frames may have arrived right behind the peer's hello.
        self.deliver_buffered(peer);
    }

    /// Decode-and-deliver everything already assembled for `peer`.
    /// Returns `false` if the stream is poisoned (malformed frame).
    fn deliver_buffered(&mut self, peer: NodeId) -> bool {
        loop {
            let Some(entry) = self.links[peer.idx()].as_mut() else {
                return false;
            };
            match entry.rbuf.next_frame() {
                Ok(Some(Frame::Envelope(env))) => (self.shared.deliver)(env),
                Ok(None) => return true,
                // Anything else on a peer link is a protocol violation.
                Ok(Some(_)) | Err(_) => {
                    self.loop_link_down(peer);
                    return false;
                }
            }
        }
    }

    /// Readiness on an installed peer link.
    fn link_event(&mut self, peer: NodeId, bits: u32) {
        if self.links[peer.idx()].is_none() {
            return; // stale event for a torn-down fd
        }
        if bits & EPOLLOUT != 0 && !self.drain_link(peer) {
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) == 0 {
            return;
        }
        let mut total = 0usize;
        loop {
            let Some(entry) = self.links[peer.idx()].as_mut() else {
                return;
            };
            let res = (&entry.stream).read(&mut self.scratch);
            match res {
                Ok(0) => return self.loop_link_down(peer),
                Ok(n) => {
                    entry.rbuf.extend(&self.scratch[..n]);
                    total += n;
                    if !self.deliver_buffered(peer) {
                        return;
                    }
                    if total >= READ_BURST {
                        return; // level-triggered: the rest re-fires
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => return self.loop_link_down(peer),
            }
        }
    }

    /// Push `peer`'s parked outbound bytes; arms/disarms `EPOLLOUT` as
    /// the socket buffer fills and empties. Returns `false` if the link
    /// died on the way.
    fn drain_link(&mut self, peer: NodeId) -> bool {
        let Some(entry) = self.links[peer.idx()].as_mut() else {
            return false;
        };
        let link = &self.shared.links[peer.idx()];
        let mut out = lock(&link.out);
        if out.gen != entry.gen {
            return true; // reinstalled underneath a stale event
        }
        loop {
            if out.sent >= out.wire.len() {
                out.wire.clear();
                out.sent = 0;
                out.blocked = false;
                if entry.writing {
                    entry.writing = false;
                    let _ = self.ep.modify(
                        entry.stream.as_raw_fd(),
                        (self.slot << INNER_BITS) | u64::from(peer.0),
                        EPOLLIN | EPOLLRDHUP,
                    );
                }
                return true;
            }
            let res = (&entry.stream).write(&out.wire[out.sent..]);
            match res {
                Ok(0) => break,
                Ok(n) => out.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    out.blocked = true;
                    if !entry.writing {
                        entry.writing = true;
                        let _ = self.ep.modify(
                            entry.stream.as_raw_fd(),
                            (self.slot << INNER_BITS) | u64::from(peer.0),
                            EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                        );
                    }
                    return true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        drop(out);
        self.loop_link_down(peer);
        false
    }

    /// Loop-side link teardown (+ recovery kick-off when we are the
    /// pair's dialer).
    fn loop_link_down(&mut self, peer: NodeId) {
        let Some(entry) = self.links[peer.idx()].take() else {
            return;
        };
        let _ = self.ep.del(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(Shutdown::Both);
        let link = &self.shared.links[peer.idx()];
        {
            let mut out = lock(&link.out);
            if out.gen == entry.gen {
                out.stream = None;
                out.wire.clear();
                out.sent = 0;
                out.blocked = false;
                link.dead.store(true, Ordering::SeqCst);
            }
        }
        link.ready.notify_all();
        if self.shared.closed.load(Ordering::SeqCst) {
            return;
        }
        // Lower id dials: we redial peers above us; a lower-numbered
        // peer redials us (landing back in `pending_event`).
        if peer > self.shared.me {
            self.schedule_reconnect(peer, 0);
        }
    }

    fn schedule_reconnect(&mut self, peer: NodeId, attempt: u32) {
        let Some(policy) = self.shared.reconnect else {
            return;
        };
        let wait = backoff_delay(policy.base, policy.cap, attempt, self.reconnect_seed(peer));
        self.reconn[peer.idx()] = Some(Reconn {
            attempt,
            state: ReconnState::Waiting(Instant::now() + wait),
        });
    }

    /// A reconnect dial's socket reported writability: resolve it.
    fn connect_event(&mut self, peer: NodeId) {
        let Some(rec) = self.reconn[peer.idx()].take() else {
            return;
        };
        let ReconnState::Connecting(fd, _) = rec.state else {
            self.reconn[peer.idx()] = Some(rec);
            return;
        };
        let _ = self.ep.del(fd.as_raw_fd());
        match take_socket_error(fd.as_raw_fd()) {
            Ok(()) => {
                let stream = TcpStream::from(fd);
                self.install(peer, stream, FrameBuf::new(), true);
            }
            Err(_) => self.fail_attempt(peer, rec.attempt),
        }
    }

    /// One reconnect dial failed; back off again or declare the peer
    /// permanently down once the budget is spent.
    fn fail_attempt(&mut self, peer: NodeId, attempt: u32) {
        let Some(policy) = self.shared.reconnect else {
            return;
        };
        let next = attempt + 1;
        if next >= policy.max_attempts {
            self.reconn[peer.idx()] = None;
            let link = &self.shared.links[peer.idx()];
            link.fatal.store(true, Ordering::SeqCst);
            link.ready.notify_all();
        } else {
            self.schedule_reconnect(peer, next);
        }
    }

    fn run_timers(&mut self) {
        let now = Instant::now();
        for i in 0..self.reconn.len() {
            let peer = NodeId(i as u16);
            match self.reconn[i].as_ref().map(|r| (r.attempt, &r.state)) {
                Some((attempt, ReconnState::Waiting(at))) if *at <= now => {
                    let Some(policy) = self.shared.reconnect else {
                        continue;
                    };
                    let connect_timeout = policy.cap.max(policy.base).max(Duration::from_millis(1));
                    match connect_nonblocking(&self.shared.peers[i]) {
                        Ok(fd)
                            if self
                                .ep
                                .add(
                                    fd.as_raw_fd(),
                                    (self.slot << INNER_BITS) | (TOK_CONNECT_BASE + i as u64),
                                    EPOLLOUT,
                                )
                                .is_ok() =>
                        {
                            self.reconn[i] = Some(Reconn {
                                attempt,
                                state: ReconnState::Connecting(fd, now + connect_timeout),
                            });
                        }
                        _ => self.fail_attempt(peer, attempt),
                    }
                }
                Some((attempt, ReconnState::Connecting(_, deadline))) if *deadline <= now => {
                    // One stalled SYN costs at most the connect timeout.
                    if let Some(rec) = self.reconn[i].take() {
                        if let ReconnState::Connecting(fd, _) = rec.state {
                            let _ = self.ep.del(fd.as_raw_fd());
                        }
                    }
                    self.fail_attempt(peer, attempt);
                }
                _ => {}
            }
        }
        self.pending.retain(|(_, p)| {
            if p.deadline <= now {
                let _ = self.ep.del(p.stream.as_raw_fd());
                false
            } else {
                true
            }
        });
    }

    fn drain_cmds(&mut self) {
        let cmds: Vec<LoopCmd> = std::mem::take(&mut *lock(&self.shared.cmds));
        for cmd in cmds {
            match cmd {
                LoopCmd::ArmWrite(peer) => {
                    let Some(entry) = self.links[peer.idx()].as_mut() else {
                        continue;
                    };
                    let needs = {
                        let out = lock(&self.shared.links[peer.idx()].out);
                        out.gen == entry.gen && out.blocked && out.stream.is_some()
                    };
                    if needs && !entry.writing {
                        entry.writing = true;
                        let _ = self.ep.modify(
                            entry.stream.as_raw_fd(),
                            (self.slot << INNER_BITS) | u64::from(peer.0),
                            EPOLLIN | EPOLLOUT | EPOLLRDHUP,
                        );
                    }
                }
                LoopCmd::LinkFailed(peer, gen) => {
                    let stale = self.links[peer.idx()]
                        .as_ref()
                        .is_none_or(|entry| entry.gen != gen);
                    if !stale {
                        self.loop_link_down(peer);
                    }
                }
            }
        }
    }

    fn teardown(&mut self) {
        for i in 0..self.links.len() {
            if let Some(entry) = self.links[i].take() {
                let _ = self.ep.del(entry.stream.as_raw_fd());
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
            let link = &self.shared.links[i];
            {
                let mut out = lock(&link.out);
                out.stream = None;
                out.wire.clear();
                out.sent = 0;
            }
            link.ready.notify_all();
        }
        for (_, p) in self.pending.drain(..) {
            let _ = self.ep.del(p.stream.as_raw_fd());
        }
        self.reconn.iter_mut().for_each(|r| *r = None);
    }
}

#[derive(Default)]
struct RunnerInbox {
    /// Event loops handed over by `LoopRunner::adopt`, picked up at the
    /// runner's next wakeup.
    add: Vec<EventLoop>,
    /// The last external handle is gone: exit once every adopted loop
    /// has closed.
    retired: bool,
}

struct RunnerShared {
    /// The one epoll instance every adopted loop's fds live in.
    ep: Arc<Epoll>,
    wake: WakeFd,
    inbox: Mutex<RunnerInbox>,
    next_slot: std::sync::atomic::AtomicU64,
}

/// One thread driving many endpoints' [`EventLoop`]s off a single
/// shared epoll instance. Each adopted loop gets a token slot
/// (`slot << INNER_BITS`), registers its fds directly into the shared
/// instance, and the runner routes every ready event to its loop by
/// slot — one `epoll_wait` syscall covers the whole mesh per turn.
///
/// The point is wakeup and syscall coalescing: a broadcast from one
/// node of an in-process [`EpollTransport`] lands bytes on every peer
/// endpoint, and with a thread per endpoint that is one context switch
/// plus one `epoll_wait` per peer. On small machines those dominate
/// the wire path (they cost more than the `write` syscalls), so the
/// transport routes all its endpoints onto one runner: the same
/// broadcast now wakes one thread once and a single wait returns every
/// peer's readiness in one sweep. An endpoint established on its own
/// (one per `repmem-node` process) is simply a runner with one slot in
/// use.
struct LoopRunner {
    shared: Arc<RunnerShared>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl LoopRunner {
    fn spawn() -> std::io::Result<Arc<LoopRunner>> {
        let shared = Arc::new(RunnerShared {
            ep: Arc::new(Epoll::new()?),
            wake: WakeFd::new()?,
            inbox: Mutex::new(RunnerInbox::default()),
            next_slot: std::sync::atomic::AtomicU64::new(0),
        });
        shared.ep.add(
            shared.wake.as_raw_fd(),
            (RUNNER_SLOT << INNER_BITS) | TOK_WAKE,
            EPOLLIN,
        )?;
        let s = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("repmem-mesh-runner".into())
            .spawn(move || runner_main(&s))?;
        Ok(Arc::new(LoopRunner {
            shared,
            thread: Mutex::new(Some(thread)),
        }))
    }

    /// Reserve a token slot and expose the shared epoll, so a new
    /// endpoint can register its fds before the runner adopts it.
    fn allocate(&self) -> Option<(u64, Arc<Epoll>)> {
        let slot = self.shared.next_slot.fetch_add(1, Ordering::SeqCst);
        // Slots are not recycled (an endpoint binds once and lives for
        // the transport's lifetime); the namespace is 2^24 wide.
        (slot < RUNNER_SLOT).then(|| (slot, Arc::clone(&self.shared.ep)))
    }

    /// Hand an established (not yet running) event loop to the runner.
    /// Events for its fds observed before adoption are ignored by slot
    /// lookup — level-triggered epoll re-reports them right after.
    fn adopt(&self, el: EventLoop) {
        lock(&self.shared.inbox).add.push(el);
        self.shared.wake.wake();
    }
}

impl Drop for LoopRunner {
    fn drop(&mut self) {
        // Last handle (the transport and every endpoint hold one): all
        // adopted loops are closed or about to be, so the thread exits
        // as soon as it finishes tearing them down.
        lock(&self.shared.inbox).retired = true;
        self.shared.wake.wake();
        if let Some(h) = lock(&self.thread).take() {
            let _ = h.join();
        }
    }
}

fn runner_main(shared: &RunnerShared) {
    // Batch scheduling: don't wakeup-preempt the node threads that
    // feed this loop (see `set_batch_scheduling`). On a single-core
    // host this is the difference between draining whole reply bursts
    // per round and waking once per written frame.
    crate::epoll::set_batch_scheduling();
    let mut slots: Vec<Option<EventLoop>> = Vec::new();
    let mut events = [EpollEvent::default(); 128];
    let mut retired = false;
    loop {
        // Timeout: the earliest timer across every adopted loop.
        let mut timeout: Option<Duration> = None;
        for el in slots.iter().flatten() {
            if let Some(at) = el.next_deadline() {
                let d = at.saturating_duration_since(Instant::now());
                timeout = Some(match timeout {
                    Some(t) if t <= d => t,
                    _ => d,
                });
            }
        }
        let n = match shared.ep.wait(&mut events, timeout) {
            Ok(n) => n,
            Err(_) => return, // the shared epoll failed: unrecoverable
        };
        let mut woke = false;
        for ev in &events[..n] {
            let (token, bits) = ({ ev.data }, { ev.events });
            let slot = token >> INNER_BITS;
            if slot == RUNNER_SLOT {
                woke = true;
                continue;
            }
            if let Some(Some(el)) = slots.get_mut(slot as usize) {
                el.dispatch(token & INNER_MASK, bits);
            }
            // No loop in that slot yet (adoption still in the inbox):
            // drop the event; level-triggered epoll re-reports it.
        }
        if woke {
            shared.wake.drain();
            let adds = {
                let mut inbox = lock(&shared.inbox);
                retired = retired || inbox.retired;
                std::mem::take(&mut inbox.add)
            };
            for el in adds {
                let slot = el.slot as usize;
                if slots.len() <= slot {
                    slots.resize_with(slot + 1, || None);
                }
                slots[slot] = Some(el);
            }
        }
        // Every adopted loop gets its upkeep pass (sender commands,
        // timers, close detection): cheap — an uncontended lock and two
        // small scans per loop.
        for entry in &mut slots {
            let Some(el) = entry.as_mut() else {
                continue;
            };
            el.service();
            if el.shared.closed.load(Ordering::SeqCst) {
                if let Some(mut el) = entry.take() {
                    el.teardown();
                    el.shared.finish();
                }
            }
        }
        if retired && slots.iter().all(Option::is_none) && lock(&shared.inbox).add.is_empty() {
            return;
        }
    }
}

/// A node's endpoint on the TCP mesh (see module docs).
pub struct EpollEndpoint {
    shared: Arc<MeshShared>,
    /// Keeps the runner driving this endpoint's loop alive for as long
    /// as the endpoint is.
    _runner: Arc<LoopRunner>,
}

impl EpollEndpoint {
    /// Join the mesh: dial every higher-numbered peer (blocking, with
    /// retries — processes may start in any order), then hand listener,
    /// dialed streams and all future I/O to the event loop. Inbound
    /// links complete asynchronously; a flush over a link whose peer has
    /// not connected yet blocks up to `link_timeout`.
    pub fn establish(
        cfg: MeshConfig,
        deliver: DeliverFn,
        ctrl: Option<CtrlHandler>,
    ) -> Result<EpollEndpoint, NetError> {
        let runner = LoopRunner::spawn().map_err(NetError::from)?;
        Self::establish_on(cfg, deliver, ctrl, runner)
    }

    /// [`EpollEndpoint::establish`] onto an existing runner, which then
    /// drives this endpoint's loop next to any it already has.
    fn establish_on(
        cfg: MeshConfig,
        deliver: DeliverFn,
        ctrl: Option<CtrlHandler>,
        runner: Arc<LoopRunner>,
    ) -> Result<EpollEndpoint, NetError> {
        let n = cfg.peers.len();
        if cfg.me.idx() >= n {
            return Err(NetError::Closed(cfg.me));
        }
        let shared = Arc::new(MeshShared {
            me: cfg.me,
            deliver,
            ctrl,
            links: (0..n)
                .map(|_| Link {
                    out: Mutex::new(LinkOut {
                        wire: Vec::new(),
                        sent: 0,
                        stream: None,
                        blocked: false,
                        gen: 0,
                    }),
                    ready: Condvar::new(),
                    dead: AtomicBool::new(false),
                    fatal: AtomicBool::new(false),
                })
                .collect(),
            peers: cfg.peers.clone(),
            reconnect: cfg.reconnect,
            link_timeout: cfg.link_timeout,
            closed: AtomicBool::new(false),
            wake: WakeFd::new().map_err(NetError::from)?,
            cmds: Mutex::new(Vec::new()),
            ctrl_threads: Mutex::new(Vec::new()),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        });

        let (slot, ep) = runner
            .allocate()
            .ok_or_else(|| NetError::Io("mesh runner token slots exhausted".into()))?;
        ep.add(
            shared.wake.as_raw_fd(),
            (slot << INNER_BITS) | TOK_WAKE,
            EPOLLIN,
        )
        .map_err(NetError::from)?;
        cfg.listener.set_nonblocking(true).map_err(NetError::from)?;
        ep.add(
            cfg.listener.as_raw_fd(),
            (slot << INNER_BITS) | TOK_LISTENER,
            EPOLLIN,
        )
        .map_err(NetError::from)?;

        let mut el = EventLoop {
            shared: Arc::clone(&shared),
            ep,
            slot,
            listener: cfg.listener,
            links: (0..n).map(|_| None).collect(),
            pending: Vec::new(),
            reconn: (0..n).map(|_| None).collect(),
            next_pending_token: 0,
            scratch: vec![0u8; 64 * 1024],
        };

        // Dial side: one stream per higher-numbered peer, synchronously
        // (so establishment failures surface here), then installed into
        // the not-yet-running loop.
        for j in cfg.me.idx() + 1..n {
            let peer = NodeId(j as u16);
            let stream = dial_with_retry(cfg.peers[j], cfg.link_timeout)?;
            let mut w = stream.try_clone().map_err(NetError::from)?;
            write_frame(
                &mut w,
                &Frame::Hello {
                    version: WIRE_VERSION,
                    node: cfg.me.0,
                },
            )
            .map_err(NetError::from)?;
            el.install(peer, stream, FrameBuf::new(), false);
            if el.links[peer.idx()].is_none() {
                return Err(NetError::Io(format!("installing link to {peer} failed")));
            }
        }

        runner.adopt(el);
        Ok(EpollEndpoint {
            shared,
            _runner: runner,
        })
    }

    /// Fault hook: forcibly shut down the live stream to `peer` (both
    /// directions), as if the network dropped the link. The loop's read
    /// half errors out, the link goes dead, and — with a
    /// [`ReconnectPolicy`] — recovery redials. No-op when already down.
    pub fn drop_link(&self, peer: NodeId) {
        if let Some(link) = self.shared.links.get(peer.idx()) {
            if let Some(s) = lock(&link.out).stream.as_ref() {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Flush one link: wait (bounded) for it to come up if needed, then
    /// push its whole outbound burst with as few writes as the socket
    /// buffer allows.
    fn flush_link(&self, to: NodeId) -> Result<(), NetError> {
        let shared = &self.shared;
        let Some(link) = shared.links.get(to.idx()) else {
            return Ok(());
        };
        let mut out = lock(&link.out);
        if out.wire.is_empty() {
            return Ok(());
        }
        let deadline = Instant::now() + shared.link_timeout;
        while out.stream.is_none() {
            if link.fatal.load(Ordering::SeqCst) || link.dead.load(Ordering::SeqCst) {
                // The peer hung up with envelopes still queued: they are
                // "on the wire when the link died". Drop them.
                out.wire.clear();
                out.sent = 0;
                return Ok(());
            }
            if shared.closed.load(Ordering::SeqCst) {
                return Err(NetError::Closed(to));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(NetError::Io(format!(
                    "link {} → {to} not established within {:?}",
                    shared.me, shared.link_timeout
                )));
            }
            out = link
                .ready
                .wait_timeout(out, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        if out.blocked {
            return Ok(()); // the loop owns the drain via EPOLLOUT
        }
        loop {
            if out.sent >= out.wire.len() {
                out.wire.clear();
                out.sent = 0;
                return Ok(());
            }
            let res = {
                let Some(stream) = out.stream.as_ref() else {
                    return Ok(());
                };
                (&*stream).write(&out.wire[out.sent..])
            };
            match res {
                Ok(0) => {
                    shared.sender_link_down(to, link, &mut out);
                    return Ok(());
                }
                Ok(n) => out.sent += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    out.blocked = true;
                    drop(out);
                    shared.push_cmd(LoopCmd::ArmWrite(to));
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Dead stream: tear down (loop restarts recovery)
                    // and report nothing here — the failure surfaces on
                    // the next send.
                    shared.sender_link_down(to, link, &mut out);
                    return Ok(());
                }
            }
        }
    }
}

impl Endpoint for EpollEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        let shared = &self.shared;
        if shared.closed.load(Ordering::SeqCst) {
            return Err(NetError::Closed(to));
        }
        if to == shared.me {
            (shared.deliver)(env.clone());
            return Ok(());
        }
        let link = shared.links.get(to.idx()).ok_or(NetError::Closed(to))?;
        if link.fatal.load(Ordering::SeqCst) {
            return Err(NetError::Down(to));
        }
        if link.dead.load(Ordering::SeqCst) {
            return Err(NetError::Closed(to));
        }
        // Coalesce: append the encoded frame to the link's outbound
        // burst; the socket is not touched until the next flush.
        let mut out = lock(&link.out);
        encode_envelope_frame_into(env, &mut out.wire);
        Ok(())
    }

    fn flush(&self) -> Result<(), NetError> {
        for i in 0..self.shared.links.len() {
            self.flush_link(NodeId(i as u16))?;
        }
        Ok(())
    }

    fn close(&self) {
        let shared = &self.shared;
        if shared.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        shared.wake.wake();
        for link in &shared.links {
            link.ready.notify_all();
        }
        // Wait (bounded — a wedged runner must not wedge close) for the
        // runner to finish tearing this endpoint's loop down.
        let deadline = Instant::now() + shared.link_timeout.max(Duration::from_secs(1));
        let mut done = lock(&shared.done);
        while !*done {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            done = shared
                .done_cv
                .wait_timeout(done, left)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        drop(done);
        let ctrl: Vec<_> = lock(&shared.ctrl_threads).drain(..).collect();
        for h in ctrl {
            let _ = h.join();
        }
    }
}

impl Drop for EpollEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// Single-process TCP mesh over `127.0.0.1` ephemeral ports: a drop-in
/// [`Transport`] whose links are real kernel sockets. All endpoints
/// bound through one transport share a single [`LoopRunner`] thread, so
/// the whole mesh's I/O runs on one thread instead of one per node.
pub struct EpollTransport {
    addrs: Vec<SocketAddr>,
    listeners: Vec<Option<TcpListener>>,
    link_timeout: Duration,
    reconnect: Option<ReconnectPolicy>,
    runner: Arc<LoopRunner>,
}

impl EpollTransport {
    /// Bind `n` loopback listeners on ephemeral ports.
    pub fn loopback(n: usize) -> std::io::Result<Self> {
        let mut addrs = Vec::with_capacity(n);
        let mut listeners = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(l.local_addr()?);
            listeners.push(Some(l));
        }
        Ok(EpollTransport {
            addrs,
            listeners,
            link_timeout: Duration::from_secs(10),
            reconnect: None,
            runner: LoopRunner::spawn()?,
        })
    }

    /// Recover dead links with `policy` (see [`ReconnectPolicy`]).
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// The listen address of every node, indexed by node id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }
}

impl Transport for EpollTransport {
    fn n_nodes(&self) -> usize {
        self.addrs.len()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        let listener = self
            .listeners
            .get_mut(node.idx())
            .and_then(Option::take)
            .ok_or_else(|| NetError::Io(format!("{node} already bound or out of range")))?;
        let ep = EpollEndpoint::establish_on(
            MeshConfig {
                me: node,
                listener,
                peers: self.addrs.clone(),
                link_timeout: self.link_timeout,
                reconnect: self.reconnect,
            },
            deliver,
            None,
            Arc::clone(&self.runner),
        )?;
        Ok(Box::new(ep))
    }
}
