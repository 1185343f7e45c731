//! Per-link traffic meters bucketed by the paper's cost classes.
//!
//! [`MeteredTransport`] wraps any other transport and counts, for every
//! directed inter-node link, the messages and wire bytes sent in each of
//! the three cost classes — token-only (`1`), write parameters (`P+1`)
//! and full copy (`S+1`). Byte counts are the codec's framed length, so
//! the numbers are identical whether the wrapped backend is in-process
//! or a real socket. Self-deliveries are not counted, matching the cost
//! model's rule that intra-node actions are free.
//!
//! [`MeterStats::model_cost`] folds the per-class message counts through
//! `SystemParams::msg_cost`, which must reconcile exactly with the
//! cluster's own cost counter — the wire-level cross-check of the
//! analytic `acc` accounting.

use crate::codec::envelope_frame_len;
use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport};
use repmem_core::{NodeId, PayloadKind, SystemParams};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CLASSES: usize = PayloadKind::ALL.len();

/// Message/byte counters for one directed link, per cost class.
#[derive(Default)]
struct LinkMeter {
    msgs: [AtomicU64; CLASSES],
    bytes: [AtomicU64; CLASSES],
    dropped: [AtomicU64; CLASSES],
}

/// Plain-number snapshot of one cost class on one link (or aggregate).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounters {
    /// Messages sent in this class.
    pub msgs: u64,
    /// Framed wire bytes sent in this class.
    pub bytes: u64,
    /// Messages the backend refused with `NetError::Down`: a dead peer
    /// (a killed node, a dead mesh link) or a killed sender. The cost
    /// model charged them before the send, so `msgs + dropped`
    /// reconciles with the cluster's message counter even under kills.
    pub dropped: u64,
}

/// Snapshot of one directed link, indexed by `PayloadKind::wire_code()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkSnapshot {
    /// Per-class counters: `[Token, Params, Copy]`.
    pub classes: [ClassCounters; CLASSES],
}

impl LinkSnapshot {
    /// Total messages over this link.
    pub fn msgs(&self) -> u64 {
        self.classes.iter().map(|c| c.msgs).sum()
    }

    /// Total framed wire bytes over this link.
    pub fn bytes(&self) -> u64 {
        self.classes.iter().map(|c| c.bytes).sum()
    }

    /// Total messages dropped on this link (dead destination).
    pub fn dropped(&self) -> u64 {
        self.classes.iter().map(|c| c.dropped).sum()
    }
}

/// Shared, lock-free meter for every directed link of a cluster.
pub struct MeterStats {
    n: usize,
    links: Vec<LinkMeter>, // [from * n + to]
}

/// Cloneable handle onto a cluster's [`MeterStats`].
pub type MeterHandle = Arc<MeterStats>;

impl MeterStats {
    fn new(n: usize) -> Self {
        MeterStats {
            n,
            links: (0..n * n).map(|_| LinkMeter::default()).collect(),
        }
    }

    fn record(&self, from: NodeId, to: NodeId, class: PayloadKind, bytes: u64) {
        let link = &self.links[from.idx() * self.n + to.idx()];
        let c = class.wire_code() as usize;
        link.msgs[c].fetch_add(1, Ordering::Relaxed);
        link.bytes[c].fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_dropped(&self, from: NodeId, to: NodeId, class: PayloadKind) {
        let link = &self.links[from.idx() * self.n + to.idx()];
        link.dropped[class.wire_code() as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of nodes this meter covers.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Snapshot of the directed link `from → to`.
    pub fn link(&self, from: NodeId, to: NodeId) -> LinkSnapshot {
        let link = &self.links[from.idx() * self.n + to.idx()];
        let mut snap = LinkSnapshot::default();
        for c in 0..CLASSES {
            snap.classes[c] = ClassCounters {
                msgs: link.msgs[c].load(Ordering::Relaxed),
                bytes: link.bytes[c].load(Ordering::Relaxed),
                dropped: link.dropped[c].load(Ordering::Relaxed),
            };
        }
        snap
    }

    /// Aggregate snapshot of everything `from` sent, over all links —
    /// e.g. one sequencer shard's share of the outbound traffic.
    pub fn from_node(&self, from: NodeId) -> LinkSnapshot {
        let mut snap = LinkSnapshot::default();
        for to in 0..self.n {
            let link = self.link(from, NodeId(to as u16));
            for c in 0..CLASSES {
                snap.classes[c].msgs += link.classes[c].msgs;
                snap.classes[c].bytes += link.classes[c].bytes;
                snap.classes[c].dropped += link.classes[c].dropped;
            }
        }
        snap
    }

    /// Aggregate snapshot of everything addressed *to* `to`, over all
    /// links — a shard's share of the inbound request traffic.
    pub fn to_node(&self, to: NodeId) -> LinkSnapshot {
        let mut snap = LinkSnapshot::default();
        for from in 0..self.n {
            let link = self.link(NodeId(from as u16), to);
            for c in 0..CLASSES {
                snap.classes[c].msgs += link.classes[c].msgs;
                snap.classes[c].bytes += link.classes[c].bytes;
                snap.classes[c].dropped += link.classes[c].dropped;
            }
        }
        snap
    }

    /// Aggregate snapshot over all links.
    pub fn total(&self) -> LinkSnapshot {
        let mut snap = LinkSnapshot::default();
        for link in &self.links {
            for c in 0..CLASSES {
                snap.classes[c].msgs += link.msgs[c].load(Ordering::Relaxed);
                snap.classes[c].bytes += link.bytes[c].load(Ordering::Relaxed);
                snap.classes[c].dropped += link.dropped[c].load(Ordering::Relaxed);
            }
        }
        snap
    }

    /// The model cost implied by the metered message counts: per-class
    /// message totals folded through the paper's `1 / P+1 / S+1` costs.
    pub fn model_cost(&self, sys: &SystemParams) -> u64 {
        let t = self.total();
        PayloadKind::ALL
            .iter()
            .map(|&k| t.classes[k.wire_code() as usize].msgs * sys.msg_cost(k))
            .sum()
    }
}

/// A [`Transport`] wrapper that meters every inter-node send.
pub struct MeteredTransport<T> {
    inner: T,
    stats: MeterHandle,
}

impl<T: Transport> MeteredTransport<T> {
    /// Wrap `inner`; grab [`MeteredTransport::stats`] before handing the
    /// transport to a cluster.
    pub fn new(inner: T) -> Self {
        let n = inner.n_nodes();
        MeteredTransport {
            inner,
            stats: Arc::new(MeterStats::new(n)),
        }
    }

    /// The shared meter.
    pub fn stats(&self) -> MeterHandle {
        Arc::clone(&self.stats)
    }
}

impl<T: Transport> Transport for MeteredTransport<T> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        let inner = self.inner.bind(node, deliver)?;
        Ok(Box::new(MeteredEndpoint {
            me: node,
            inner,
            stats: Arc::clone(&self.stats),
        }))
    }
}

struct MeteredEndpoint {
    me: NodeId,
    inner: Box<dyn Endpoint>,
    stats: MeterHandle,
}

impl Endpoint for MeteredEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        if let Err(e) = self.inner.send(to, env) {
            // A `Down` is counted as a dropped message (the cost model
            // charged it before the send). A send refused because this
            // endpoint closed is shutdown, not a message.
            if to != self.me && matches!(e, NetError::Down(_)) {
                self.stats.record_dropped(self.me, to, env.msg.payload);
            }
            return Err(e);
        }
        if to != self.me {
            // Computed framed length — no encoding, no allocation.
            // Batching backends coalesce several envelopes under one
            // frame header, so their wire bytes run slightly *under*
            // this per-envelope figure; the meter charges the canonical
            // unbatched framing so counts reconcile with the cost model
            // regardless of the backend's batching choices.
            let bytes = envelope_frame_len(env);
            self.stats.record(self.me, to, env.msg.payload, bytes);
        }
        Ok(())
    }

    fn flush(&self) -> Result<(), NetError> {
        self.inner.flush()
    }

    fn close(&self) {
        self.inner.close();
    }
}
