//! The metric catalogue: every name the benchmark reports, with its
//! unit, direction, regression bound and — for per-layer metrics — the
//! end-to-end metric it is expected to move and on which workload.
//!
//! `/BENCHMARK.json` repeats the names, units, directions and bounds;
//! `tests/smoke.rs` checks the two agree.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `/BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name, the same on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen
    /// before a change counts as a regression. Zero means "any
    /// worsening" and is compared absolutely.
    pub bound: f64,
    /// Whether the metric can be zero on some workload. Those cannot be
    /// judged as a share of their median, so `/BENCHMARK.json` carries
    /// them elsewhere (see the README) and `--check-repeat` compares
    /// them absolutely.
    pub can_be_zero: bool,
}

/// The seven end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
        can_be_zero: false,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
        can_be_zero: false,
    },
    EndToEnd {
        name: "p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        can_be_zero: false,
    },
    EndToEnd {
        name: "cost_per_op",
        unit: "units/op",
        better: Better::Lower,
        bound: 0.02,
        can_be_zero: true,
    },
    EndToEnd {
        name: "fail_frac",
        unit: "frac",
        better: Better::Lower,
        bound: 0.0,
        can_be_zero: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        can_be_zero: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        can_be_zero: false,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// `<layer>.<metric>` — the layer is a module of this repository.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// The end-to-end metric(s) and workload(s) this should move; on
    /// the other workloads the prediction is no change.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

/// Every per-layer metric, in report order.
pub const PER_LAYER: [PerLayer; 37] = [
    layer("workload.gen_ns", "ns", Lower, "setup_s @ all"),
    layer(
        "kv.wire_ns",
        "ns",
        Lower,
        "p50_us, ops_per_s @ svc-b-berkeley",
    ),
    layer(
        "kv.svc_overhead_us",
        "us",
        Lower,
        "p50_us, ops_per_s @ svc-b-berkeley",
    ),
    layer("kv.keyspace_ns", "ns", Lower, "p50_us @ embed-c-writeonce"),
    layer("kv.load_ops_per_s", "1/s", Higher, "setup_s @ all"),
    layer(
        "kv.miss_frac",
        "frac",
        Lower,
        "none: a count, any move flags a behaviour change",
    ),
    layer(
        "runtime.read_hit_us",
        "us",
        Lower,
        "ops_per_s, p50_us @ embed-c-writeonce; p50_us @ svc-b-berkeley",
    ),
    layer(
        "runtime.write_us",
        "us",
        Lower,
        "ops_per_s @ pipe-a-writethrough",
    ),
    layer(
        "runtime.self_us_per_op",
        "us",
        Lower,
        "ops_per_s @ pipe-a-writethrough",
    ),
    layer(
        "runtime.msgs_per_op",
        "msgs/op",
        Lower,
        "cost_per_op @ all; ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "runtime.cost_per_op",
        "units/op",
        Lower,
        "is cost_per_op, traced-pair value",
    ),
    layer("runtime.build_ms", "ms", Lower, "setup_s @ all"),
    layer("runtime.shutdown_ms", "ms", Lower, "setup_s @ all"),
    layer(
        "protocols.step_ns.berkeley",
        "ns",
        Lower,
        "ops_per_s @ svc-b-berkeley",
    ),
    layer(
        "protocols.step_ns.write-once",
        "ns",
        Lower,
        "ops_per_s @ embed-c-writeonce",
    ),
    layer(
        "protocols.step_ns.write-through",
        "ns",
        Lower,
        "ops_per_s @ pipe-a-writethrough",
    ),
    layer(
        "protocols.step_ns.quorum",
        "ns",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "protocols.steps_per_op",
        "steps/op",
        Lower,
        "ops_per_s @ pipe-a-writethrough",
    ),
    layer(
        "net.encode_ns.token",
        "ns",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.encode_ns.record",
        "ns",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.decode_ns.token",
        "ns",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.decode_ns.record",
        "ns",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.sends_per_op",
        "msgs/op",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.bytes_per_op",
        "B/op",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.flushes_per_op",
        "1/op",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.sends_per_flush",
        "msgs",
        Higher,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.send_us_per_op",
        "us",
        Lower,
        "ops_per_s @ mesh-a-quorum",
    ),
    layer(
        "net.transit_p50_us",
        "us",
        Lower,
        "p50_us, p99_us @ mesh-a-quorum",
    ),
    layer(
        "net.transit_p99_us",
        "us",
        Lower,
        "p50_us, p99_us @ mesh-a-quorum",
    ),
    layer("net.mesh_setup_ms", "ms", Lower, "setup_s @ mesh-a-quorum"),
    layer("proc.cpu_us_per_op", "us", Lower, "ops_per_s @ all"),
    layer(
        "proc.ctx_per_op",
        "1/op",
        Lower,
        "ops_per_s @ all; about -2 @ embed-c-writeonce if reads stop crossing threads",
    ),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "none: cost of the instrument, traced vs untraced leg",
    ),
    layer(
        "trace.root_p50_us",
        "us",
        Lower,
        "p50_us @ same workload (single caller)",
    ),
    layer(
        "svc.open_p50_us",
        "us",
        Lower,
        "informational: open loop at 20 000 ops/s offered",
    ),
    layer(
        "svc.open_p99_us",
        "us",
        Lower,
        "informational: open loop at 20 000 ops/s offered",
    ),
    layer(
        "svc.open_late_p99_us",
        "us",
        Lower,
        "informational: how late the open-loop generator ran",
    ),
];

/// Per-layer metrics measured only on `svc-b-berkeley`.
pub const SVC_ONLY: [&str; 4] = [
    "kv.svc_overhead_us",
    "svc.open_p50_us",
    "svc.open_p99_us",
    "svc.open_late_p99_us",
];

/// Per-layer metrics measured only on `mesh-a-quorum`.
pub const MESH_ONLY: [&str; 1] = ["net.mesh_setup_ms"];
