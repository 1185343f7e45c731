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
//!   peer stream, not-yet-identified inbound connections and an
//!   `eventfd` wakeup all register with one [`Epoll`] instance;
//!   readiness drives everything.
//! * **One flush discipline.** [`Endpoint::send`] only appends the
//!   encoded frame to the link's outbound buffer; [`Endpoint::flush`]
//!   pushes each link's whole burst with one `write` syscall. Callers
//!   must flush before blocking on their inbox — the cluster node loop
//!   does. A link whose inbound connection has not arrived yet keeps
//!   its burst, and the loop writes it when it installs the link,
//!   so a flush never waits.
//! * **Delivery runs on the runner.** The deliver sink is called on the
//!   runner thread as frames are decoded. The runtime's sink may run the
//!   receiving node's whole turn right there (sends and flush included),
//!   so nothing the runner calls may wait on the runner: no flush blocks,
//!   and a self-send (delivered inline by [`Endpoint::send`]) is queued
//!   by the sink, never run.
//! * **Backpressure via `EPOLLOUT`.** A flush that fills the socket
//!   buffer parks the remainder and hands the link to the loop, which
//!   arms `EPOLLOUT` and drains as the kernel frees space. Senders never
//!   block on a slow peer.
//! * **One read per readiness event.** A link's read loop stops at the
//!   first `read` that returns less than the scratch buffer holds: the
//!   socket was drained as it stood, so another `read` would only return
//!   `EAGAIN`. The epoll is level-triggered, so bytes that arrive later,
//!   or a pending EOF, are reported on the next `epoll_wait`.
//! * **Control handoff.** Incoming partial frames are reassembled by
//!   [`FrameBuf`]; a connection whose hello names [`CTRL_NODE`] is
//!   handed to a dedicated blocking thread, with any bytes that arrived
//!   behind the hello chained in front of the live socket.
//!
//! ## Link failure: fail-stop
//!
//! A link is installed once: a second `Hello` naming a peer whose link
//! is up, or was up and died, is refused and its connection closed.
//! When a stream dies (read error, failed write, a malformed frame) the
//! link is dead for good and every later send to the peer fails with
//! [`NetError::Down`]: to this endpoint, a peer it cannot reach is a
//! dead peer. Frames the link had accepted but not yet written are lost
//! with the stream, so resuming on a new stream would hand the peer a
//! FIFO channel with a hole in it; the runtime buries the peer instead
//! (dead set, `NodeDown`). [`NetError::Closed`] means only that this
//! endpoint itself has been closed.

use crate::codec::{encode_envelope_frame_into, write_frame, Frame, FrameBuf};
use crate::epoll::{Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport, WIRE_VERSION};
use repmem_core::NodeId;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
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

/// Everything one node needs to join the mesh.
pub struct MeshConfig {
    /// This node's id.
    pub me: NodeId,
    /// This node's bound listener.
    pub listener: TcpListener,
    /// Listen address of every node, indexed by node id (`peers[me]` is
    /// this node's own address).
    pub peers: Vec<SocketAddr>,
}

/// Total budget for dialing each peer (retries until then) and for
/// `close` to wait on the runner.
const LINK_TIMEOUT: Duration = Duration::from_secs(10);

/// SplitMix64 step: the deterministic jitter source (no RNG state to
/// carry, no extra dependency).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-attempt connect ceiling inside [`dial_with_retry`]: one stalled
/// SYN costs at most this much of the budget before the next attempt.
const DIAL_ATTEMPT_CAP: Duration = Duration::from_secs(1);
const DIAL_BACKOFF_BASE: Duration = Duration::from_millis(5);
const DIAL_BACKOFF_CAP: Duration = Duration::from_millis(200);

/// Backoff before dial attempt `k + 1`: `min(DIAL_BACKOFF_BASE * 2^k,
/// DIAL_BACKOFF_CAP)` plus jitter in `[0, step/2]` drawn
/// deterministically from `seed ^ k`.
fn backoff_delay(attempt: u32, seed: u64) -> Duration {
    let step = DIAL_BACKOFF_BASE
        .saturating_mul(1u32 << attempt.min(16))
        .min(DIAL_BACKOFF_CAP);
    let half = (step.as_nanos() as u64) / 2;
    let jitter = if half == 0 {
        0
    } else {
        splitmix64(seed ^ u64::from(attempt)) % (half + 1)
    };
    step + Duration::from_nanos(jitter)
}

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
                let wait = backoff_delay(attempt, seed);
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
}

struct Link {
    out: Mutex<LinkOut>,
    /// The stream died; the link never comes back.
    dead: AtomicBool,
}

/// Loop commands pushed by sender threads (paired with a wakeup).
enum LoopCmd {
    /// A flush hit `WouldBlock`: arm `EPOLLOUT` and drain in the loop.
    ArmWrite(NodeId),
    /// A sender-side write failed: clean up the loop's half of the link.
    LinkFailed(NodeId),
}

struct MeshShared {
    me: NodeId,
    deliver: DeliverFn,
    ctrl: Option<CtrlHandler>,
    links: Vec<Link>,
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
    /// Marks the link dead under the out lock, shuts the socket down so
    /// the loop's read half errors out too, and tells the loop to clean
    /// up its half.
    fn sender_link_down(&self, to: NodeId, link: &Link, out: &mut LinkOut) {
        if let Some(s) = out.stream.take() {
            let _ = s.shutdown(Shutdown::Both);
        }
        link.dead.store(true, Ordering::SeqCst);
        out.wire.clear();
        out.sent = 0;
        out.blocked = false;
        self.push_cmd(LoopCmd::LinkFailed(to));
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
const TOK_PENDING_BASE: u64 = 1 << 33;
/// The shared runner's own wake fd: the one slot no loop can get.
const RUNNER_SLOT: u64 = u64::MAX >> INNER_BITS;

/// How long an accepted connection may sit without completing its
/// hello, so a silent connection cannot pin a pending slot forever.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-event read ceiling: level-triggered epoll re-reports leftover
/// bytes, so capping one link's drain of full `scratch` reads keeps the
/// loop fair under load.
const READ_BURST: usize = 1 << 20;

/// The loop's live half of an installed link.
struct LiveLink {
    stream: TcpStream,
    rbuf: FrameBuf,
    /// `EPOLLOUT` currently armed for this fd.
    writing: bool,
}

/// An accepted connection waiting for its hello frame.
struct PendingConn {
    stream: TcpStream,
    rbuf: FrameBuf,
    deadline: Instant,
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
    next_pending_token: u64,
    scratch: Vec<u8>,
}

impl EventLoop {
    /// Namespace an inner token into this loop's slot.
    fn tok(&self, inner: u64) -> u64 {
        (self.slot << INNER_BITS) | inner
    }

    /// Earliest hello deadline. The runner folds this into its
    /// `epoll_wait` timeout.
    fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|(_, p)| p.deadline).min()
    }

    /// Route one ready event by its inner (slot-stripped) token.
    fn dispatch(&mut self, inner: u64, bits: u32) {
        match inner {
            TOK_WAKE => self.shared.wake.drain(),
            TOK_LISTENER => self.accept_all(),
            t if t >= TOK_PENDING_BASE => self.pending_event(t),
            t => self.link_event(NodeId(t as u16), bits),
        }
    }

    /// End-of-turn upkeep: sender commands, then hello deadlines.
    fn service(&mut self) {
        self.drain_cmds();
        self.expire_pending();
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
        // Only lower-numbered peers dial us, once per link: a hello for
        // a link that is up, or was up and died, is dropped (closing the
        // connection), so no stranger can take a live link over and no
        // dead one resumes.
        if peer.idx() >= self.shared.links.len() || peer >= self.shared.me {
            return;
        }
        if self.links[peer.idx()].is_some()
            || self.shared.links[peer.idx()].dead.load(Ordering::SeqCst)
        {
            return;
        }
        self.install(peer, conn.stream, conn.rbuf);
    }

    /// Install `stream` as the live link to `peer`, register it with
    /// the loop, and write what senders queued for it meanwhile. Called
    /// once per link.
    fn install(&mut self, peer: NodeId, stream: TcpStream, rbuf: FrameBuf) {
        if self.shared.closed.load(Ordering::SeqCst) {
            return;
        }
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let Ok(writer) = stream.try_clone() else {
            return;
        };
        let link = &self.shared.links[peer.idx()];
        lock(&link.out).stream = Some(writer);
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
            writing: false,
        });
        // Whatever senders queued while the stream was not up yet was
        // accepted, and their flushes left it in `wire`: write it now.
        if !self.drain_link(peer) {
            return;
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
                    // A short read drained the socket; whatever lands
                    // after it, EOF included, re-fires (level-triggered).
                    if n < self.scratch.len() || total >= READ_BURST {
                        return;
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

    /// Loop-side link teardown: the link is dead for good.
    fn loop_link_down(&mut self, peer: NodeId) {
        let Some(entry) = self.links[peer.idx()].take() else {
            return;
        };
        let _ = self.ep.del(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(Shutdown::Both);
        let link = &self.shared.links[peer.idx()];
        let mut out = lock(&link.out);
        out.stream = None;
        out.wire.clear();
        out.sent = 0;
        out.blocked = false;
        link.dead.store(true, Ordering::SeqCst);
    }

    /// Drop accepted connections whose hello is overdue.
    fn expire_pending(&mut self) {
        let now = Instant::now();
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
                        out.blocked && out.stream.is_some()
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
                LoopCmd::LinkFailed(peer) => self.loop_link_down(peer),
            }
        }
    }

    fn teardown(&mut self) {
        for i in 0..self.links.len() {
            if let Some(entry) = self.links[i].take() {
                let _ = self.ep.del(entry.stream.as_raw_fd());
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
            let mut out = lock(&self.shared.links[i].out);
            out.stream = None;
            out.wire.clear();
            out.sent = 0;
        }
        for (_, p) in self.pending.drain(..) {
            let _ = self.ep.del(p.stream.as_raw_fd());
        }
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
    /// links complete asynchronously; what is sent over a link whose peer
    /// has not connected yet waits in its buffer until the link is up.
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
            return Err(NetError::Io(format!("{} has no address in peers", cfg.me)));
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
                    }),
                    dead: AtomicBool::new(false),
                })
                .collect(),
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
            next_pending_token: 0,
            scratch: vec![0u8; 64 * 1024],
        };

        // Dial side: one stream per higher-numbered peer, synchronously
        // (so establishment failures surface here), then installed into
        // the not-yet-running loop.
        for j in cfg.me.idx() + 1..n {
            let peer = NodeId(j as u16);
            let stream = dial_with_retry(cfg.peers[j], LINK_TIMEOUT)?;
            let mut w = stream.try_clone().map_err(NetError::from)?;
            write_frame(
                &mut w,
                &Frame::Hello {
                    version: WIRE_VERSION,
                    node: cfg.me.0,
                },
            )
            .map_err(NetError::from)?;
            el.install(peer, stream, FrameBuf::new());
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

    /// Fault hook: drop the link to `peer` as if the network cut it. The
    /// link is dead when this returns: frames it accepted but did not
    /// write are lost, and every later send fails with
    /// [`NetError::Down`]. The peer's end dies once its loop reads the
    /// EOF. No-op when already down.
    pub fn drop_link(&self, peer: NodeId) {
        if let Some(link) = self.shared.links.get(peer.idx()) {
            if !link.dead.load(Ordering::SeqCst) {
                self.shared
                    .sender_link_down(peer, link, &mut lock(&link.out));
            }
        }
    }

    /// Flush one link: push its whole outbound burst with as few writes
    /// as the socket buffer allows. A link not up yet keeps its burst
    /// for [`EventLoop::install`] to write.
    fn flush_link(&self, to: NodeId) -> Result<(), NetError> {
        let shared = &self.shared;
        let Some(link) = shared.links.get(to.idx()) else {
            return Ok(());
        };
        let mut out = lock(&link.out);
        if out.wire.is_empty() {
            return Ok(());
        }
        if out.stream.is_none() {
            if link.dead.load(Ordering::SeqCst) {
                // The peer hung up with envelopes still queued: they are
                // "on the wire when the link died". Drop them.
                out.wire.clear();
                out.sent = 0;
                return Ok(());
            }
            if shared.closed.load(Ordering::SeqCst) {
                return Err(NetError::Closed(to));
            }
            return Ok(());
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
                    // Dead stream: tear down and report nothing here —
                    // the failure surfaces on the next send.
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
        let link = shared
            .links
            .get(to.idx())
            .ok_or_else(|| NetError::Io(format!("no link to {to}")))?;
        if link.dead.load(Ordering::SeqCst) {
            return Err(NetError::Down(to));
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
        // Wait (bounded — a wedged runner must not wedge close) for the
        // runner to finish tearing this endpoint's loop down.
        let deadline = Instant::now() + LINK_TIMEOUT;
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
            runner: LoopRunner::spawn()?,
        })
    }

    /// The listen address of every node, indexed by node id.
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// [`Transport::bind`], returning the endpoint as its own type, so a
    /// caller can reach its fault hook ([`EpollEndpoint::drop_link`]).
    pub fn bind_endpoint(
        &mut self,
        node: NodeId,
        deliver: DeliverFn,
    ) -> Result<EpollEndpoint, NetError> {
        let listener = self
            .listeners
            .get_mut(node.idx())
            .and_then(Option::take)
            .ok_or_else(|| NetError::Io(format!("{node} already bound or out of range")))?;
        EpollEndpoint::establish_on(
            MeshConfig {
                me: node,
                listener,
                peers: self.addrs.clone(),
            },
            deliver,
            None,
            Arc::clone(&self.runner),
        )
    }
}

impl Transport for EpollTransport {
    fn n_nodes(&self) -> usize {
        self.addrs.len()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        Ok(Box::new(self.bind_endpoint(node, deliver)?))
    }
}
