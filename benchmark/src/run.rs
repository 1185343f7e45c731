//! One measured leg: fresh system → load → warm (checked) → timed
//! closed-loop run → quiesce → final check → shutdown (checked).
//!
//! The same leg serves the end-to-end reps (two callers, untraced) and
//! the trace pair (one caller, untraced then traced).

use crate::host::rusage;
use crate::inputs::{Inputs, Model, PoolOp, Surface, Workload, SLOTS, VALUE_LEN, WINDOW};
use crate::stats::{percentile_sorted, quantile};
use crate::sut::Sut;
use crate::trace::{Span, SpanKind, TraceSummary, Tracer};
use repmem_core::ObjectId;
use repmem_kv::KvBackend;
use repmem_runtime::{Handle, Ticket};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fire-and-forget protocols return from a write before its
/// invalidation wave has landed; give the node threads this long to
/// drain before reading final state or stopping them.
const QUIESCE: Duration = Duration::from_millis(30);

/// A caller that keeps failing is reporting a dead system, not a
/// latency distribution: stop the leg early.
const MAX_FAILURES: u64 = 1000;

/// The timed run is cut into slices of this length; throughput and
/// latency percentiles are taken per slice and the reported values are
/// those of the best slices (see [`Plateau`]).
pub const SLICE: Duration = Duration::from_millis(100);

/// Room for the per-op latency samples of one caller, so the timed loop
/// does not reallocate (untouched pages cost no memory).
const LATENCY_SAMPLES: usize = 1 << 21;

/// How a leg is run.
pub struct LegCfg {
    /// Length of the timed run.
    pub secs: f64,
    /// Caller threads (ignored by the windowed surface, which has one).
    pub callers: usize,
    /// Record spans, and write them here after the leg.
    pub trace: Option<(Arc<Tracer>, PathBuf)>,
}

/// What one leg measured.
#[derive(Debug, Default)]
pub struct Leg {
    /// Operations issued in the timed run.
    pub attempted: u64,
    /// Of those, operations that returned `Err`.
    pub failed: u64,
    /// The full slices of the timed run, in time order.
    pub slices: Vec<Slice>,
    /// Reads issued.
    pub reads: u64,
    /// Reads that found no record (slot-collision evictions).
    pub misses: u64,
    /// `total_cost` delta over the timed run.
    pub cost: u64,
    /// `total_messages` delta over the timed run.
    pub msgs: u64,
    /// Build + connect + load + warm.
    pub setup_s: f64,
    /// Load-phase puts per second.
    pub load_ops_per_s: f64,
    /// System construction time.
    pub build_ms: f64,
    /// Mesh construction time (mesh surface only).
    pub mesh_setup_ms: f64,
    /// System shutdown time.
    pub shutdown_ms: f64,
    /// Process CPU time over the timed run.
    pub cpu_us: f64,
    /// Context switches over the timed run.
    pub ctx_switches: u64,
    /// Span summary, for a traced leg.
    pub trace: Option<TraceSummary>,
}

/// One `SLICE` of a timed run: the operations that completed in it,
/// over all callers.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Operations completed.
    pub ops: u32,
    /// Median latency of those operations (0 if there were none).
    pub p50_ns: f64,
    /// 99th-percentile latency of those operations (0 if none).
    pub p99_ns: f64,
}

/// Throughput and latency of the undisturbed part of a timed run.
///
/// On a shared two-vCPU host a run is a plateau interrupted by episodes
/// of outside interference lasting 0.5–3 s that cost up to a third of
/// the throughput (the per-slice series makes them plain: 23–24 k ops
/// per slice, then 15 k, then 23–24 k again). Interference only ever
/// slows the program, so the plateau is read off the best decile of the
/// slices: a mean or median over the run measures the neighbours.
#[derive(Debug, Clone, Copy)]
pub struct Plateau {
    /// 90th percentile over slices of operations completed per second.
    pub ops_per_s: f64,
    /// 10th percentile over slices of the slice's median latency.
    pub p50_us: f64,
    /// 10th percentile over slices of the slice's p99 latency.
    pub p99_us: f64,
}

impl Plateau {
    /// The plateau of `slices` (of one rep, or pooled over reps).
    pub fn of<'a>(slices: impl IntoIterator<Item = &'a Slice>) -> Result<Plateau, String> {
        // A slice in which nothing completed says nothing about the plateau.
        let slices: Vec<&Slice> = slices.into_iter().filter(|s| s.ops > 0).collect();
        if slices.is_empty() {
            return Err(format!(
                "no operation completed in any full {} ms slice of the timed run",
                SLICE.as_millis()
            ));
        }
        let over = |f: &dyn Fn(&Slice) -> f64, q| {
            quantile(&slices.iter().map(|s| f(s)).collect::<Vec<f64>>(), q)
        };
        Ok(Plateau {
            ops_per_s: over(&|s| s.ops as f64 / SLICE.as_secs_f64(), 0.9),
            p50_us: over(&|s| s.p50_ns / 1e3, 0.1),
            p99_us: over(&|s| s.p99_ns / 1e3, 0.1),
        })
    }
}

impl Leg {
    /// Operations that completed without error.
    pub fn ok_ops(&self) -> u64 {
        self.attempted - self.failed
    }
}

struct CallerOut {
    /// In completion order.
    lat_ns: Vec<u32>,
    /// `lat_ns` index at which each slice after the first begins.
    slice_starts: Vec<u32>,
    slice_end: Instant,
    attempted: u64,
    failed: u64,
    reads: u64,
    misses: u64,
    /// Hits whose value is not `VALUE_LEN` bytes long.
    bad_values: u64,
    /// Per issuer this caller drives, per slot: pool index of the
    /// issuer's last put, `u32::MAX` for none.
    last_put: Vec<Vec<u32>>,
    roots: Vec<Span>,
    first_error: Option<String>,
}

impl CallerOut {
    fn new(issuers: usize, start: Instant) -> CallerOut {
        CallerOut {
            lat_ns: Vec::with_capacity(LATENCY_SAMPLES),
            slice_starts: Vec::with_capacity(1024),
            slice_end: start + SLICE,
            attempted: 0,
            failed: 0,
            reads: 0,
            misses: 0,
            bad_values: 0,
            last_put: vec![vec![u32::MAX; SLOTS]; issuers],
            roots: Vec::new(),
            first_error: None,
        }
    }

    /// Account one completed operation: `Ok(Some(len))` is a read that
    /// found `len` bytes (0 = miss), `Ok(None)` a write.
    fn complete(
        &mut self,
        issued: Instant,
        done: Instant,
        result: Result<Option<usize>, String>,
        root: Option<(&Tracer, SpanKind, u16)>,
    ) {
        while done >= self.slice_end {
            self.slice_starts.push(self.lat_ns.len() as u32);
            self.slice_end += SLICE;
        }
        let ns = done.duration_since(issued).as_nanos();
        self.lat_ns.push(ns.min(u32::MAX as u128) as u32);
        let write = matches!(result, Ok(None));
        match result {
            Ok(Some(len)) => {
                self.reads += 1;
                match len {
                    0 => self.misses += 1,
                    VALUE_LEN => {}
                    _ => self.bad_values += 1,
                }
            }
            Ok(None) => {}
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
            }
        }
        if let Some((tracer, kind, node)) = root {
            self.roots.push(Span {
                kind,
                start_ns: tracer.ns_at(issued),
                end_ns: tracer.ns_at(done),
                op: self.roots.len() as u64,
                from: node,
                to: node,
                msg: write as u8,
                payload: 0,
                bytes: 0,
            });
        }
    }
}

/// Blocking closed loop: one request, wait for the reply, next.
fn kv_caller(
    backend: &mut dyn KvBackend,
    inputs: &Inputs,
    pool: &[PoolOp],
    (start, end): (Instant, Instant),
    root: Option<(&Tracer, SpanKind, u16)>,
) -> CallerOut {
    let mut out = CallerOut::new(1, start);
    for (i, op) in pool.iter().enumerate().cycle() {
        let key = &inputs.keys[op.key as usize];
        let issued = Instant::now();
        let result = match &op.value {
            None => backend
                .get(key)
                .map(|found| Some(found.map_or(0, |v| v.len()))),
            Some(value) => backend.put(key, value).map(|()| None),
        };
        let done = Instant::now();
        if op.value.is_some() && result.is_ok() {
            out.last_put[0][inputs.slot_of[op.key as usize] as usize] = i as u32;
        }
        out.attempted += 1;
        out.complete(issued, done, result.map_err(|e| e.to_string()), root);
        if done >= end || out.failed >= MAX_FAILURES {
            break;
        }
    }
    out
}

/// Windowed closed loop: one thread round-robin over the client nodes,
/// up to `WINDOW` operations in flight per node; the oldest ticket of a
/// full window is waited for before the next operation is issued there.
fn pipe_caller(
    handles: &[Handle],
    inputs: &Inputs,
    pool: &[PoolOp],
    (start, end): (Instant, Instant),
    tracer: Option<&Tracer>,
) -> CallerOut {
    struct InFlight {
        ticket: Ticket,
        issued: Instant,
        read: bool,
    }
    let mut out = CallerOut::new(handles.len(), start);
    let mut windows: Vec<VecDeque<InFlight>> = handles
        .iter()
        .map(|_| VecDeque::with_capacity(WINDOW))
        .collect();
    let retire = |out: &mut CallerOut, node: usize, op: InFlight| {
        let result = op.ticket.wait();
        let done = Instant::now();
        let result = result
            .map(|bytes| op.read.then_some(bytes.len()))
            .map_err(|e| e.to_string());
        let root = tracer.map(|t| (t, SpanKind::RuntimeOp, node as u16));
        out.complete(op.issued, done, result, root);
    };
    for (i, op) in pool.iter().enumerate().cycle() {
        let node = out.attempted as usize % handles.len();
        if windows[node].len() == WINDOW {
            let oldest = windows[node].pop_front().expect("window is full");
            retire(&mut out, node, oldest);
        }
        let slot = inputs.slot_of[op.key as usize];
        let issued = Instant::now();
        let ticket = match &op.value {
            None => handles[node].read_async(ObjectId(slot)),
            Some(value) => {
                out.last_put[node][slot as usize] = i as u32;
                handles[node].write_async(ObjectId(slot), value.clone())
            }
        };
        windows[node].push_back(InFlight {
            ticket,
            issued,
            read: op.value.is_none(),
        });
        out.attempted += 1;
        if issued >= end || out.failed >= MAX_FAILURES {
            break;
        }
    }
    for (node, window) in windows.iter_mut().enumerate() {
        while let Some(op) = window.pop_front() {
            retire(&mut out, node, op);
        }
    }
    out
}

/// Cut the callers' latency samples at the slice boundaries. The last,
/// partial slice is dropped.
fn slices_of(outs: &[CallerOut]) -> Vec<Slice> {
    let full = outs.iter().map(|o| o.slice_starts.len()).min().unwrap_or(0);
    let mut sample = Vec::new();
    (0..full)
        .map(|i| {
            sample.clear();
            for out in outs {
                let from = if i == 0 { 0 } else { out.slice_starts[i - 1] };
                sample.extend_from_slice(&out.lat_ns[from as usize..out.slice_starts[i] as usize]);
            }
            sample.sort_unstable();
            let pct = |q| match sample.is_empty() {
                true => 0.0,
                false => percentile_sorted(&sample, q),
            };
            Slice {
                ops: sample.len() as u32,
                p50_ns: pct(0.50),
                p99_ns: pct(0.99),
            }
        })
        .collect()
}

/// A built, loaded and warmed system with one backend per issuer.
pub struct Live {
    /// The system.
    pub sut: Sut,
    /// Backend `t` drives client node `t`.
    pub backends: Vec<Box<dyn KvBackend + Send>>,
    /// Build + connect + load + warm.
    pub setup_s: f64,
    /// Load-phase puts per second.
    pub load_ops_per_s: f64,
}

/// Build the system, connect, load every record through issuer 0 and
/// read every key back through every issuer, single-threaded, checking
/// each result against the reference model.
pub fn set_up(
    w: &Workload,
    inputs: &Inputs,
    model: &Model,
    issuers: usize,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Live, String> {
    let start = Instant::now();
    let sut = Sut::build(w, tracer)?;
    let mut backends = (0..issuers)
        .map(|t| sut.backend(t))
        .collect::<Result<Vec<_>, _>>()?;
    let load_start = Instant::now();
    for (key, value) in inputs.keys.iter().zip(&inputs.load_values) {
        backends[0]
            .put(key, value)
            .map_err(|e| format!("load put {key}: {e}"))?;
    }
    let load_ops_per_s = inputs.keys.len() as f64 / load_start.elapsed().as_secs_f64();
    for (t, backend) in backends.iter_mut().enumerate() {
        for (i, key) in inputs.keys.iter().enumerate() {
            let got = backend
                .get(key)
                .map_err(|e| format!("warm get {key} at node {t}: {e}"))?;
            if got.as_deref() != model.expect_loaded(inputs, i as u32) {
                return Err(format!(
                    "output check failed: warm read of {key} at node {t} \
                     disagrees with the reference model"
                ));
            }
        }
    }
    Ok(Live {
        sut,
        backends,
        setup_s: start.elapsed().as_secs_f64(),
        load_ops_per_s,
    })
}

/// Drop the backends, stop the system and require a coherent final
/// dump. Returns the shutdown time in milliseconds.
pub fn tear_down(live: Live) -> Result<f64, String> {
    let Live { sut, backends, .. } = live;
    drop(backends);
    let start = Instant::now();
    let dump = sut.shutdown()?;
    let shutdown_ms = start.elapsed().as_secs_f64() * 1e3;
    if !dump.is_coherent() {
        return Err("output check failed: final replica dump is not coherent".into());
    }
    Ok(shutdown_ms)
}

/// Run one leg of `w`.
pub fn run_leg(w: &Workload, inputs: &Inputs, model: &Model, cfg: &LegCfg) -> Result<Leg, String> {
    let tracer = cfg.trace.as_ref().map(|(t, _)| t);
    let issuers = w.issuers(cfg.callers);
    let mut live = set_up(w, inputs, model, issuers, tracer)?;

    let root_kind = match w.surface {
        Surface::Svc => SpanKind::KvClient,
        _ => SpanKind::KvStore,
    };
    let counters_before = live.sut.counters()?;
    let usage_before = rusage();
    let window_from = tracer.map(|t| t.now_ns());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(cfg.secs);
    let outs: Vec<CallerOut> = if w.surface == Surface::Pipe {
        let handles: Vec<Handle> = (0..issuers).map(|t| live.sut.handle(t)).collect();
        let pool = &inputs.pools[0];
        let tracer = tracer.map(Arc::as_ref);
        std::thread::scope(|s| {
            let caller = s.spawn(|| pipe_caller(&handles, inputs, pool, (start, end), tracer));
            vec![caller.join().expect("caller thread panicked")]
        })
    } else {
        std::thread::scope(|s| {
            let callers: Vec<_> = live
                .backends
                .iter_mut()
                .zip(&inputs.pools)
                .enumerate()
                .map(|(t, (backend, pool))| {
                    let root = tracer.map(|tr| (tr.as_ref(), root_kind, t as u16));
                    s.spawn(move || kv_caller(backend.as_mut(), inputs, pool, (start, end), root))
                })
                .collect();
            callers
                .into_iter()
                .map(|c| c.join().expect("caller thread panicked"))
                .collect()
        })
    };
    let usage_after = rusage();
    let window_to = tracer.map(|t| t.now_ns());

    std::thread::sleep(QUIESCE);
    let counters_after = live.sut.counters()?;
    if let Some(reason) = live.sut.poisoned() {
        return Err(format!("cluster poisoned during the timed run: {reason}"));
    }

    let mut leg = Leg {
        cost: counters_after.0 - counters_before.0,
        msgs: counters_after.1 - counters_before.1,
        setup_s: live.setup_s,
        load_ops_per_s: live.load_ops_per_s,
        build_ms: live.sut.build_ms,
        mesh_setup_ms: live.sut.mesh_setup_ms,
        cpu_us: (usage_after.cpu - usage_before.cpu).as_secs_f64() * 1e6,
        ctx_switches: usage_after.ctx_switches - usage_before.ctx_switches,
        ..Leg::default()
    };
    let mut last_put = Vec::new();
    let mut roots = Vec::new();
    let mut bad_values = 0;
    leg.slices = slices_of(&outs);
    for out in outs {
        leg.attempted += out.attempted;
        leg.failed += out.failed;
        leg.reads += out.reads;
        leg.misses += out.misses;
        bad_values += out.bad_values;
        last_put.extend(out.last_put);
        roots.extend(out.roots);
        if let Some(e) = out.first_error {
            eprintln!("{}: operation failed: {e}", w.name);
        }
    }
    if bad_values > 0 {
        return Err(format!(
            "output check failed: {bad_values} reads returned a value of the wrong length"
        ));
    }
    if leg.failed >= MAX_FAILURES {
        return Err(format!("{} operations failed; giving up", leg.failed));
    }

    // Every key, read back through issuer 0, must show the last write
    // of some issuer to its slot (or the loaded record).
    let pools: Vec<&[PoolOp]> = (0..issuers)
        .map(|t| match w.surface {
            Surface::Pipe => &inputs.pools[0][..],
            _ => &inputs.pools[t][..],
        })
        .collect();
    for (i, key) in inputs.keys.iter().enumerate() {
        let got = live.backends[0]
            .get(key)
            .map_err(|e| format!("final get {key}: {e}"))?;
        if !model.admits_final(inputs, &pools, &last_put, i as u32, got.as_deref()) {
            return Err(format!(
                "output check failed: final read of {key} matches no issuer's last write"
            ));
        }
    }

    leg.shutdown_ms = tear_down(live)?;
    if let (Some((tracer, file)), Some(from), Some(to)) = (&cfg.trace, window_from, window_to) {
        tracer.add_roots(roots);
        leg.trace = Some(tracer.finish(from, to, file)?);
    }
    Ok(leg)
}

/// What the open-loop phase measured, both ascending, in ns.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Reply time minus the request's due time.
    pub latency_ns: Vec<u32>,
    /// Send time minus the request's due time.
    pub late_ns: Vec<u32>,
}

/// The informational open-loop phase: `rate` requests per second in
/// total, split evenly over two blocking connections, each request due
/// at a fixed time whether or not the previous one has completed (a
/// late connection sends at once and stays behind schedule).
pub fn open_loop(
    w: &Workload,
    inputs: &Inputs,
    model: &Model,
    secs: f64,
    rate: f64,
) -> Result<OpenLoop, String> {
    let connections = 2;
    let mut live = set_up(w, inputs, model, connections, None)?;
    let period = Duration::from_secs_f64(connections as f64 / rate);
    let start = Instant::now() + Duration::from_millis(1);
    let total = (secs * rate / connections as f64) as u32;
    let per_conn: Vec<Result<OpenLoop, String>> = std::thread::scope(|s| {
        let threads: Vec<_> = live
            .backends
            .iter_mut()
            .zip(&inputs.pools)
            .map(|(backend, pool)| {
                s.spawn(move || {
                    let mut out = OpenLoop::default();
                    for (k, op) in (0..total).zip(pool.iter().cycle()) {
                        let due = start + period * k;
                        // Yield, not sleep: a sleeping generator is
                        // woken late by the timer and measures that.
                        let mut sent = Instant::now();
                        while sent < due {
                            std::thread::yield_now();
                            sent = Instant::now();
                        }
                        let key = &inputs.keys[op.key as usize];
                        match &op.value {
                            None => backend.get(key).map(drop),
                            Some(value) => backend.put(key, value),
                        }
                        .map_err(|e| format!("open-loop op on {key}: {e}"))?;
                        let ns = |d: Duration| d.as_nanos().min(u32::MAX as u128) as u32;
                        out.latency_ns.push(ns(due.elapsed()));
                        out.late_ns.push(ns(sent.duration_since(due)));
                    }
                    Ok(out)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("open-loop thread panicked"))
            .collect()
    });
    std::thread::sleep(QUIESCE);
    tear_down(live)?;
    let mut all = OpenLoop::default();
    for conn in per_conn {
        let conn = conn?;
        all.latency_ns.extend(conn.latency_ns);
        all.late_ns.extend(conn.late_ns);
    }
    all.latency_ns.sort_unstable();
    all.late_ns.sort_unstable();
    Ok(all)
}
