//! Outside-in tracing: spans recorded by the benchmark's own code
//! around the calls into each layer. Nothing here touches the program
//! under test — [`TraceTransport`] wraps any [`Transport`] handed to
//! `Cluster::with_transport`, and the caller loops (which time every
//! call anyway) record the root spans.
//!
//! Spans are appended to preallocated in-memory buffers (one per
//! endpoint, per deliver sink and per caller) and only analysed and
//! written out after the traced leg ends.

use crate::json::Json;
use crate::stats::percentile_sorted;
use repmem_core::{MsgKind, NodeId, PayloadKind};
use repmem_net::codec::envelope_frame_len;
use repmem_net::{DeliverFn, Endpoint, Envelope, NetError, Transport};
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// At most this many spans go to the trace file (all of them count in
/// the metrics); the header line says how many there were.
const MAX_FILE_SPANS: usize = 50_000;

/// Capacity each recording buffer starts with.
const BUF_SPANS: usize = 1 << 18;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Root: one `KvClient` request/response over TCP.
    KvClient,
    /// Root: one `KvStore` get/put on an in-process handle.
    KvStore,
    /// Root: one async `Handle` operation, issue to `Ticket::wait`.
    RuntimeOp,
    /// One `Endpoint::send` call.
    NetSend,
    /// One `Endpoint::flush` call.
    NetFlush,
    /// Send call to the destination's deliver callback.
    NetTransit,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::KvClient => "kv.client",
            SpanKind::KvStore => "kv.store",
            SpanKind::RuntimeOp => "runtime.op",
            SpanKind::NetSend => "net.send",
            SpanKind::NetFlush => "net.flush",
            SpanKind::NetTransit => "net.transit",
        }
    }

    fn is_root(self) -> bool {
        matches!(
            self,
            SpanKind::KvClient | SpanKind::KvStore | SpanKind::RuntimeOp
        )
    }
}

/// One recorded interval. `op` is the caller's sequence number for a
/// root span and the runtime's `msg.op` tag for a `net.*` span — spans
/// of one request share it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was measured.
    pub kind: SpanKind,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Operation identifier (see type docs).
    pub op: u64,
    /// Sending node (`net.*`), or the issuing node (roots).
    pub from: u16,
    /// Destination node (`net.send`, `net.transit`).
    pub to: u16,
    /// `MsgKind` wire code (`net.send`, `net.transit`); for roots, 1
    /// marks a write.
    pub msg: u8,
    /// `PayloadKind` wire code (`net.send`, `net.transit`).
    pub payload: u8,
    /// Encoded frame length (`net.send`, `net.transit`).
    pub bytes: u32,
}

#[derive(Clone, Copy)]
struct Delivery {
    at_ns: u64,
    from: u16,
    to: u16,
}

type Buf<T> = Arc<Mutex<Vec<T>>>;

fn lock<T>(buf: &Mutex<Vec<T>>) -> std::sync::MutexGuard<'_, Vec<T>> {
    // Every update is a single push, so the data is valid even if a
    // recording thread panicked while holding the lock.
    buf.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared clock and the registry of recording buffers of one
/// traced leg.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Buf<Span>>>,
    deliveries: Mutex<Vec<Buf<Delivery>>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            deliveries: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// `at` on the tracer's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn span_buf(&self) -> Buf<Span> {
        let buf = Arc::new(Mutex::new(Vec::with_capacity(BUF_SPANS)));
        lock(&self.spans).push(Arc::clone(&buf));
        buf
    }

    fn delivery_buf(&self) -> Buf<Delivery> {
        let buf = Arc::new(Mutex::new(Vec::with_capacity(BUF_SPANS)));
        lock(&self.deliveries).push(Arc::clone(&buf));
        buf
    }

    /// Hand over root spans a caller recorded in its own buffer.
    pub fn add_roots(&self, roots: Vec<Span>) {
        lock(&self.spans).push(Arc::new(Mutex::new(roots)));
    }
}

/// A [`Transport`] that records `net.send` / `net.flush` spans around
/// the wrapped endpoints and the arrival time of every envelope at the
/// wrapped deliver sinks.
pub struct TraceTransport<T> {
    inner: T,
    tracer: Arc<Tracer>,
}

impl<T: Transport> TraceTransport<T> {
    /// Trace `inner` into `tracer`.
    pub fn new(inner: T, tracer: Arc<Tracer>) -> Self {
        TraceTransport { inner, tracer }
    }
}

impl<T: Transport> Transport for TraceTransport<T> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        let arrivals = self.tracer.delivery_buf();
        let tracer = Arc::clone(&self.tracer);
        let traced_deliver: DeliverFn = Box::new(move |env: Envelope| {
            lock(&arrivals).push(Delivery {
                at_ns: tracer.now_ns(),
                from: env.msg.sender.0,
                to: node.0,
            });
            deliver(env);
        });
        Ok(Box::new(TraceEndpoint {
            inner: self.inner.bind(node, traced_deliver)?,
            me: node.0,
            tracer: Arc::clone(&self.tracer),
            spans: self.tracer.span_buf(),
        }))
    }
}

struct TraceEndpoint {
    inner: Box<dyn Endpoint>,
    me: u16,
    tracer: Arc<Tracer>,
    spans: Buf<Span>,
}

impl Endpoint for TraceEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        let start_ns = self.tracer.now_ns();
        self.inner.send(to, env)?;
        let end_ns = self.tracer.now_ns();
        lock(&self.spans).push(Span {
            kind: SpanKind::NetSend,
            start_ns,
            end_ns,
            op: env.msg.op.0,
            from: self.me,
            to: to.0,
            msg: env.msg.kind.wire_code(),
            payload: env.msg.payload.wire_code(),
            bytes: envelope_frame_len(env) as u32,
        });
        Ok(())
    }

    fn flush(&self) -> Result<(), NetError> {
        let start_ns = self.tracer.now_ns();
        let result = self.inner.flush();
        let end_ns = self.tracer.now_ns();
        lock(&self.spans).push(Span {
            kind: SpanKind::NetFlush,
            start_ns,
            end_ns,
            op: 0,
            from: self.me,
            to: self.me,
            msg: 0,
            payload: 0,
            bytes: 0,
        });
        result
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// Per-layer numbers read off one traced leg.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Root spans inside the window.
    pub ops: u64,
    /// Median root-span duration.
    pub root_p50_us: f64,
    /// `Endpoint::send` calls per op.
    pub sends_per_op: f64,
    /// Encoded frame bytes per op.
    pub bytes_per_op: f64,
    /// `Endpoint::flush` calls per op.
    pub flushes_per_op: f64,
    /// Sends per flush call: useful work per syscall opportunity.
    pub sends_per_flush: f64,
    /// Time inside `send` + `flush` per op.
    pub send_us_per_op: f64,
    /// Envelopes delivered per op, plus the op's own request step.
    pub steps_per_op: f64,
    /// Median send-call-to-deliver time.
    pub transit_p50_us: f64,
    /// 99th percentile send-call-to-deliver time.
    pub transit_p99_us: f64,
    /// Root time not covered by any `net.*` span, per op.
    pub self_us_per_op: f64,
    /// Sends that found no delivery to pair with (0 after a drained
    /// shutdown; anything else means the FIFO pairing is off).
    pub unpaired_sends: u64,
    /// Spans recorded in the window, all kinds.
    pub spans: u64,
}

/// `intervals` merged into sorted, disjoint intervals.
fn union_of(mut intervals: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    intervals.sort_unstable();
    let mut merged: Vec<(u64, u64)> = Vec::new();
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total length of the union of `intervals` that lies inside `clip`
/// (sorted, disjoint).
fn covered_ns(intervals: Vec<(u64, u64)>, clip: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    let mut c = 0;
    for (s, e) in union_of(intervals) {
        while c < clip.len() && clip[c].1 <= s {
            c += 1;
        }
        let mut k = c;
        while k < clip.len() && clip[k].0 < e {
            total += e.min(clip[k].1).saturating_sub(s.max(clip[k].0));
            k += 1;
        }
    }
    total
}

impl Tracer {
    /// Collect every span recorded so far, pairing the k-th send on
    /// each link with the k-th delivery at its destination from that
    /// sender (links are FIFO) into `net.transit` spans. Returns the
    /// spans sorted by start time and the number of unpaired sends.
    fn collect(&self) -> (Vec<Span>, u64) {
        let mut spans: Vec<Span> = Vec::new();
        for buf in lock(&self.spans).iter() {
            spans.extend_from_slice(&lock(buf));
        }
        let mut arrivals: Vec<Delivery> = Vec::new();
        for buf in lock(&self.deliveries).iter() {
            arrivals.extend_from_slice(&lock(buf));
        }
        // Stable sorts keep each link's sends and arrivals in recording
        // order, which is link FIFO order.
        let mut sends: Vec<Span> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::NetSend)
            .copied()
            .collect();
        sends.sort_by_key(|s| (s.from, s.to, s.start_ns));
        arrivals.sort_by_key(|d| (d.from, d.to, d.at_ns));
        let mut unpaired = 0;
        let mut a = 0;
        for send in &sends {
            while a < arrivals.len() && (arrivals[a].from, arrivals[a].to) < (send.from, send.to) {
                a += 1;
            }
            if a < arrivals.len() && (arrivals[a].from, arrivals[a].to) == (send.from, send.to) {
                spans.push(Span {
                    kind: SpanKind::NetTransit,
                    end_ns: arrivals[a].at_ns.max(send.start_ns),
                    ..*send
                });
                a += 1;
            } else {
                unpaired += 1;
            }
        }
        spans.sort_by_key(|s| s.start_ns);
        (spans, unpaired)
    }

    /// Summarise the spans that started inside `[from_ns, to_ns)` and
    /// write them to `file` as JSON lines.
    pub fn finish(&self, from_ns: u64, to_ns: u64, file: &Path) -> Result<TraceSummary, String> {
        let (all, unpaired_sends) = self.collect();
        let spans: Vec<Span> = all
            .into_iter()
            .filter(|s| (from_ns..to_ns).contains(&s.start_ns))
            .collect();
        let of = |kind: SpanKind| spans.iter().filter(move |s| s.kind == kind);
        let roots: Vec<&Span> = spans.iter().filter(|s| s.kind.is_root()).collect();
        if roots.is_empty() {
            return Err("traced leg recorded no root span".into());
        }
        let ops = roots.len() as f64;
        let us = |ns: u64| ns as f64 / 1e3;
        let sorted_durations = |spans: &mut dyn Iterator<Item = &Span>| -> Vec<u32> {
            let mut d: Vec<u32> = spans
                .map(|s| (s.end_ns - s.start_ns).min(u32::MAX as u64) as u32)
                .collect();
            d.sort_unstable();
            d
        };
        let root_ns = sorted_durations(&mut roots.iter().copied());
        let transit = sorted_durations(&mut of(SpanKind::NetTransit));
        let sends = of(SpanKind::NetSend).count() as f64;
        let flushes = of(SpanKind::NetFlush).count() as f64;
        let in_calls: u64 = of(SpanKind::NetSend)
            .chain(of(SpanKind::NetFlush))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let base = union_of(roots.iter().map(|s| (s.start_ns, s.end_ns)).collect());
        let base_ns: u64 = base.iter().map(|(s, e)| e - s).sum();
        let net_ns = covered_ns(
            spans
                .iter()
                .filter(|s| !s.kind.is_root())
                .map(|s| (s.start_ns, s.end_ns))
                .collect(),
            &base,
        );
        let summary = TraceSummary {
            ops: roots.len() as u64,
            root_p50_us: percentile_sorted(&root_ns, 0.5) / 1e3,
            sends_per_op: sends / ops,
            bytes_per_op: of(SpanKind::NetSend).map(|s| s.bytes as u64).sum::<u64>() as f64 / ops,
            flushes_per_op: flushes / ops,
            sends_per_flush: if flushes > 0.0 { sends / flushes } else { 0.0 },
            send_us_per_op: us(in_calls) / ops,
            steps_per_op: transit.len() as f64 / ops + 1.0,
            transit_p50_us: if transit.is_empty() {
                0.0
            } else {
                percentile_sorted(&transit, 0.5) / 1e3
            },
            transit_p99_us: if transit.is_empty() {
                0.0
            } else {
                percentile_sorted(&transit, 0.99) / 1e3
            },
            self_us_per_op: us(base_ns - net_ns) / ops,
            unpaired_sends,
            spans: spans.len() as u64,
        };
        write_file(&spans, &roots, &summary, file)
            .map_err(|e| format!("{}: {e}", file.display()))?;
        Ok(summary)
    }
}

/// One header line, then one span per line, sorted by start time. A
/// span's `parent` is the root span (by `id`) whose interval contains
/// its start; with one blocking caller that is the operation that
/// caused it. Roots of a windowed caller overlap, so there `parent` is
/// null and `op` is the only join key.
fn write_file(
    spans: &[Span],
    roots: &[&Span],
    summary: &TraceSummary,
    file: &Path,
) -> std::io::Result<()> {
    let overlapping = roots.windows(2).any(|w| w[1].start_ns < w[0].end_ns);
    let mut last_root: Option<(u64, u64, usize)> = None;
    let mut out = std::io::BufWriter::new(std::fs::File::create(file)?);
    let header = Json::obj([
        ("spans_total", Json::from(spans.len() as f64)),
        (
            "spans_written",
            Json::from(spans.len().min(MAX_FILE_SPANS) as f64),
        ),
        ("roots", Json::from(summary.ops as f64)),
        ("unpaired_sends", Json::from(summary.unpaired_sends as f64)),
        (
            "parentage",
            Json::from(if overlapping { "none" } else { "containment" }),
        ),
    ]);
    writeln!(out, "{header}")?;
    for (id, span) in spans.iter().enumerate().take(MAX_FILE_SPANS) {
        if span.kind.is_root() {
            last_root = Some((span.start_ns, span.end_ns, id));
        }
        let parent = match last_root {
            Some((s, e, root)) if !overlapping && !span.kind.is_root() => {
                ((s..e).contains(&span.start_ns)).then_some(root)
            }
            _ => None,
        };
        let mut fields = vec![
            ("id", Json::from(id as f64)),
            (
                "parent",
                parent.map_or(Json::Null, |p| Json::from(p as f64)),
            ),
            ("name", Json::from(span.kind.name())),
            ("start_ns", Json::from(span.start_ns as f64)),
            ("end_ns", Json::from(span.end_ns as f64)),
            ("op", Json::from(span.op as f64)),
            ("node", Json::from(span.from as f64)),
        ];
        match span.kind {
            SpanKind::NetSend | SpanKind::NetTransit => {
                let msg = MsgKind::from_wire_code(span.msg).map_or("?", MsgKind::mnemonic);
                let payload = match PayloadKind::from_wire_code(span.payload) {
                    Some(PayloadKind::Token) => "token",
                    Some(PayloadKind::Params) => "params",
                    Some(PayloadKind::Copy) => "copy",
                    None => "?",
                };
                fields.push(("to", Json::from(span.to as f64)));
                fields.push(("msg", Json::from(msg)));
                fields.push(("payload", Json::from(payload)));
                fields.push(("bytes", Json::from(span.bytes as f64)));
            }
            SpanKind::NetFlush => {}
            _ => fields.push(("write", Json::from(span.msg == 1))),
        }
        writeln!(out, "{}", Json::obj(fields))?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_clips_to_the_base_intervals() {
        let base = [(10, 20), (30, 40)];
        // Overlapping children merge; the part in the gap is dropped.
        assert_eq!(covered_ns(vec![(12, 15), (14, 18)], &base), 6);
        assert_eq!(covered_ns(vec![(5, 35)], &base), 15);
        assert_eq!(covered_ns(vec![(20, 30)], &base), 0);
        assert_eq!(covered_ns(vec![], &base), 0);
        assert_eq!(union_of(vec![(3, 5), (1, 4), (7, 8)]), [(1, 5), (7, 8)]);
    }

    #[test]
    fn sends_pair_with_deliveries_in_link_order() {
        let tracer = Tracer::new();
        let spans = tracer.span_buf();
        let arrivals = tracer.delivery_buf();
        let send = |start_ns, to| Span {
            kind: SpanKind::NetSend,
            start_ns,
            end_ns: start_ns + 1,
            op: 9,
            from: 0,
            to,
            msg: 0,
            payload: 0,
            bytes: 40,
        };
        lock(&spans).extend([send(100, 1), send(110, 2), send(120, 1), send(130, 1)]);
        lock(&arrivals).extend([
            Delivery {
                at_ns: 150,
                from: 0,
                to: 1,
            },
            Delivery {
                at_ns: 115,
                from: 0,
                to: 2,
            },
            Delivery {
                at_ns: 170,
                from: 0,
                to: 1,
            },
        ]);
        let (all, unpaired) = tracer.collect();
        assert_eq!(unpaired, 1, "third send to node 1 never arrived");
        let mut transit: Vec<(u16, u64)> = all
            .iter()
            .filter(|s| s.kind == SpanKind::NetTransit)
            .map(|s| (s.to, s.end_ns - s.start_ns))
            .collect();
        transit.sort_unstable();
        assert_eq!(transit, [(1, 50), (1, 50), (2, 5)]);
    }
}
