//! One workload, measured: the end-to-end reps (`--trace 0`) and the
//! per-layer run (`--trace 1`: the trace pair, the single-layer legs
//! and, for the service workload, the shadow leg and the open-loop
//! phase).

use crate::inputs::{Inputs, Model, Surface, Workload, WORKLOADS};
use crate::metrics::{EndToEnd, END_TO_END, MESH_ONLY, PER_LAYER, SVC_ONLY};
use crate::micro;
use crate::run::{open_loop, run_leg, Leg, LegCfg, OpenLoop, Plateau};
use crate::stats::{median, percentile_sorted};
use crate::trace::Tracer;
use repmem_core::PayloadKind;
use std::path::Path;
use std::time::Duration;

/// Reps of an end-to-end run; the timed seconds are split evenly.
pub const REPS: usize = 5;

/// Legs the timed seconds of a per-layer run are split over.
const TRACE_LEGS: f64 = 4.0;

/// Offered load of the informational open-loop phase, requests/s.
pub const OPEN_LOOP_RATE: f64 = 20_000.0;

/// How one workload is run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Seed of the op streams and the load set.
    pub seed: u64,
    /// Timed seconds of the whole run.
    pub seconds: f64,
    /// Reps the timed seconds are split into.
    pub reps: usize,
    /// Records to load instead of the workload's own count.
    pub records: Option<u64>,
    /// Corrupt one expected value of the reference model.
    pub flip_expected: bool,
}

impl RunCfg {
    /// The configuration the command line asks for. Smoke is 1 rep ×
    /// 0.3 s over 500 records: every code path in a few seconds, the
    /// numbers mean nothing.
    pub fn new(seed: u64, seconds: f64, smoke: bool, flip_expected: bool) -> RunCfg {
        RunCfg {
            seed,
            seconds: if smoke { 0.3 } else { seconds },
            reps: if smoke { 1 } else { REPS },
            records: smoke.then_some(500),
            flip_expected,
        }
    }

    fn is_smoke(&self) -> bool {
        self.records.is_some()
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Metric name from [`crate::metrics`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The reported value.
    pub value: f64,
    /// One value per rep or batch; a single value for one-shot legs.
    pub samples: Vec<f64>,
}

impl Measured {
    /// A metric whose value is the median of its samples.
    fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Measured {
        Measured {
            name,
            unit,
            value: median(&samples),
            samples,
        }
    }
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// Operations issued in timed runs.
    pub attempted: u64,
    /// Operations that returned `Err`.
    pub failed: u64,
    /// Latency samples behind the reported percentiles, per rep.
    pub latency_samples: Vec<u64>,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Measured>,
}

fn inputs_for(w: &Workload, cfg: &RunCfg, callers: usize) -> (Inputs, Model) {
    let records = cfg.records.unwrap_or(w.records);
    let streams = match w.surface {
        Surface::Pipe => 1,
        _ => callers,
    };
    let inputs = Inputs::generate(w, cfg.seed, records, streams);
    let mut model = Model::loaded(&inputs, w.key_verified());
    if cfg.flip_expected {
        model.flip_one_expected_value();
    }
    (inputs, model)
}

/// The end-to-end reps: `cfg.reps` fresh systems, each timed for an
/// equal share of `cfg.seconds` with the workload's caller count and no
/// tracing.
pub fn end_to_end(w: &Workload, cfg: &RunCfg) -> Result<Outcome, String> {
    let (inputs, model) = inputs_for(w, cfg, w.callers());
    let leg_cfg = LegCfg {
        secs: cfg.seconds / cfg.reps as f64,
        callers: w.callers(),
        trace: None,
    };
    let legs = (0..cfg.reps)
        .map(|_| run_leg(w, &inputs, &model, &leg_cfg))
        .collect::<Result<Vec<Leg>, String>>()?;
    // Throughput and latency: the plateau over the slices of all reps;
    // the per-rep plateaus ride along as the samples.
    let pooled = Plateau::of(legs.iter().flat_map(|l| &l.slices))?;
    let per_rep = legs
        .iter()
        .map(|l| Plateau::of(&l.slices))
        .collect::<Result<Vec<Plateau>, String>>()?;
    let plateau = |m: &EndToEnd, f: fn(&Plateau) -> f64| Measured {
        name: m.name,
        unit: m.unit,
        value: f(&pooled),
        samples: per_rep.iter().map(f).collect(),
    };
    let median_over_reps = |m: &EndToEnd, f: &dyn Fn(&Leg) -> f64| {
        Measured::median_of(m.name, m.unit, legs.iter().map(f).collect())
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            Ok(match m.name {
                "ops_per_s" => plateau(m, |p| p.ops_per_s),
                "p50_us" => plateau(m, |p| p.p50_us),
                "p99_us" => plateau(m, |p| p.p99_us),
                "cost_per_op" => median_over_reps(m, &|l| l.cost as f64 / l.ok_ops() as f64),
                "fail_frac" => median_over_reps(m, &|l| l.failed as f64 / l.attempted as f64),
                "setup_s" => median_over_reps(m, &|l| l.setup_s),
                "peak_rss_mb" => {
                    Measured::median_of(m.name, m.unit, vec![crate::host::peak_rss_mb()?])
                }
                other => unreachable!("end-to-end metric {other} has no measurement"),
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Outcome {
        attempted: legs.iter().map(|l| l.attempted).sum(),
        failed: legs.iter().map(|l| l.failed).sum(),
        latency_samples: legs.iter().map(|l| l.attempted).collect(),
        metrics,
    })
}

/// The per-layer run. Single caller throughout, so that a root span
/// contains the spans it caused.
pub fn per_layer(w: &Workload, cfg: &RunCfg, out_dir: &Path) -> Result<Outcome, String> {
    let (inputs, model) = inputs_for(w, cfg, 2);
    let secs = cfg.seconds / if cfg.is_smoke() { 1.0 } else { TRACE_LEGS };
    let batch = Duration::from_secs_f64(if cfg.is_smoke() { 0.002 } else { 0.04 });
    let trace_file = |name: &str| out_dir.join(format!("trace-{name}.jsonl"));
    let leg = |w: &Workload, trace| {
        let cfg = LegCfg {
            secs,
            callers: 1,
            trace,
        };
        run_leg(w, &inputs, &model, &cfg)
    };

    // The trace pair: same system, same single caller, untraced then
    // traced; the throughput gap is the cost of the instrument.
    let plain = leg(w, None)?;
    let traced = leg(w, Some((Tracer::new(), trace_file(w.name))))?;
    let roots = traced.trace.clone().expect("traced leg has a summary");
    // Behind `KvServer` the transport cannot be wrapped from outside,
    // so the `net.*` spans come from a shadow leg: the same op stream
    // on an in-process cluster of identical configuration.
    let shadow = match w.surface {
        Surface::Svc => {
            let name = format!("{}.shadow", w.name);
            Some(leg(
                &w.embedded(),
                Some((Tracer::new(), trace_file(&name))),
            )?)
        }
        _ => None,
    };
    let net = match &shadow {
        Some(leg) => leg.trace.clone().expect("traced leg has a summary"),
        None => roots.clone(),
    };
    let open = match w.surface {
        Surface::Svc => Some(open_loop(w, &inputs, &model, secs, OPEN_LOOP_RATE)?),
        _ => None,
    };

    let (read_us, write_us) = micro::runtime_ops(w, batch)?;
    let (enc_token, dec_token) = micro::net_codec(PayloadKind::Token, batch);
    let (enc_record, dec_record) = micro::net_codec(PayloadKind::Copy, batch);
    let ops = plain.ok_ops() as f64;
    let plain_rate = Plateau::of(&plain.slices)?.ops_per_s;
    let traced_rate = Plateau::of(&traced.slices)?.ops_per_s;
    let open_pct = |pick: fn(&OpenLoop) -> &Vec<u32>, q: f64| {
        let sample = pick(open.as_ref().expect("open-loop ran"));
        vec![percentile_sorted(sample, q) / 1e3]
    };
    let samples = |name: &str| -> Vec<f64> {
        if let Some(protocol) = name.strip_prefix("protocols.step_ns.") {
            let kind = WORKLOADS
                .iter()
                .map(|w| w.protocol)
                .find(|k| k.name().to_ascii_lowercase() == protocol)
                .expect("step metrics are named after workload protocols");
            return micro::protocol_step(kind, batch);
        }
        match name {
            "workload.gen_ns" => micro::workload_gen(w, cfg.seed, batch),
            "kv.wire_ns" => micro::kv_wire(batch),
            "kv.keyspace_ns" => micro::kv_keyspace(batch),
            "kv.svc_overhead_us" => {
                let store = shadow.as_ref().and_then(|l| l.trace.as_ref());
                vec![roots.root_p50_us - store.expect("shadow leg ran").root_p50_us]
            }
            "kv.load_ops_per_s" => vec![plain.load_ops_per_s],
            "kv.miss_frac" => vec![plain.misses as f64 / (plain.reads as f64).max(1.0)],
            "runtime.read_hit_us" => read_us.clone(),
            "runtime.write_us" => write_us.clone(),
            "runtime.self_us_per_op" => vec![net.self_us_per_op],
            "runtime.msgs_per_op" => vec![plain.msgs as f64 / ops],
            "runtime.cost_per_op" => vec![plain.cost as f64 / ops],
            "runtime.build_ms" => vec![plain.build_ms],
            "runtime.shutdown_ms" => vec![plain.shutdown_ms],
            "protocols.steps_per_op" => vec![net.steps_per_op],
            "net.encode_ns.token" => enc_token.clone(),
            "net.encode_ns.record" => enc_record.clone(),
            "net.decode_ns.token" => dec_token.clone(),
            "net.decode_ns.record" => dec_record.clone(),
            "net.sends_per_op" => vec![net.sends_per_op],
            "net.bytes_per_op" => vec![net.bytes_per_op],
            "net.flushes_per_op" => vec![net.flushes_per_op],
            "net.sends_per_flush" => vec![net.sends_per_flush],
            "net.send_us_per_op" => vec![net.send_us_per_op],
            "net.transit_p50_us" => vec![net.transit_p50_us],
            "net.transit_p99_us" => vec![net.transit_p99_us],
            "net.mesh_setup_ms" => vec![plain.mesh_setup_ms],
            "proc.cpu_us_per_op" => vec![plain.cpu_us / ops],
            "proc.ctx_per_op" => vec![plain.ctx_switches as f64 / ops],
            "trace.overhead_frac" => vec![1.0 - traced_rate / plain_rate],
            "trace.root_p50_us" => vec![roots.root_p50_us],
            "svc.open_p50_us" => open_pct(|o| &o.latency_ns, 0.50),
            "svc.open_p99_us" => open_pct(|o| &o.latency_ns, 0.99),
            "svc.open_late_p99_us" => open_pct(|o| &o.late_ns, 0.99),
            other => unreachable!("per-layer metric {other} has no measurement"),
        }
    };
    let applies = |name: &str| match w.surface {
        Surface::Svc => !MESH_ONLY.contains(&name),
        Surface::Mesh => !SVC_ONLY.contains(&name),
        _ => !SVC_ONLY.contains(&name) && !MESH_ONLY.contains(&name),
    };
    let metrics = PER_LAYER
        .iter()
        .filter(|m| applies(m.name))
        .map(|m| Measured::median_of(m.name, m.unit, samples(m.name)))
        .collect();
    if net.unpaired_sends > 0 {
        eprintln!(
            "{}: {} sends found no delivery to pair with; transit times are suspect",
            w.name, net.unpaired_sends
        );
    }
    let legs = [Some(&plain), Some(&traced), shadow.as_ref()];
    Ok(Outcome {
        attempted: legs.iter().flatten().map(|l| l.attempted).sum(),
        failed: legs.iter().flatten().map(|l| l.failed).sum(),
        latency_samples: vec![roots.ops],
        metrics,
    })
}
