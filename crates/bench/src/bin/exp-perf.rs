//! exp-perf — sharing-heavy data-plane throughput across the runtime's
//! configurations:
//!
//! * `baseline`  — the paper's topology: one sequencer (`K=1`), blocking
//!   operations (`W=1`), in-process links.
//! * `sharded`   — two sequencer shards (`K=2`), still blocking, with
//!   the client-driven gate (`ShardConfig::exclusive`): foreign-shard
//!   replicas are pruned from broadcast waves.
//! * `pipelined` — `K=2` with an eight-deep in-flight window (`W=8`).
//! * `tcp`       — the paper topology (`K=1, W=1`) over the TCP
//!   loopback mesh: the wire control point.
//! * `batched`   — the full data plane: `K=2, W=8` over the TCP loopback
//!   mesh, where each node-loop flush writes a multi-envelope burst per
//!   link.
//!
//! `baseline`/`tcp` isolate the wire, `baseline`/`sharded` the gating
//! fix, `tcp`/`batched` sharding plus pipelining over real sockets.
//!
//! The workload is the sharing-heavy pattern of the `runtime/ops_per_sec`
//! Criterion group: four clients rotating writes and reads over sixteen
//! shared objects, so every operation crosses the coherence machinery.
//!
//! `--json` additionally records the ops/s grid in `BENCH_runtime.json`
//! at the repository root, so the perf trajectory is tracked across PRs.
//! `--ops N` overrides the per-cell operation count (default 12000);
//! `--reps R` the medianed repetitions per cell (default 5).

// The `tcp` and `batched` columns run on the epoll-based TCP mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{EpollTransport, InProcTransport};
use repmem_runtime::{Cluster, ShardConfig, Ticket};
use std::collections::VecDeque;
use std::time::Instant;

const M_OBJECTS: usize = 16;
const N_CLIENTS: usize = 4;

fn sys() -> SystemParams {
    SystemParams {
        n_clients: N_CLIENTS,
        s: 64,
        p: 16,
        m_objects: M_OBJECTS,
    }
}

#[derive(Clone, Copy)]
enum Wire {
    InProc,
    Tcp,
}

impl Wire {
    fn json_name(self) -> &'static str {
        match self {
            Wire::InProc => "inproc",
            Wire::Tcp => "tcp",
        }
    }
}

#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    shards: usize,
    window: usize,
    exclusive: bool,
    wire: Wire,
}

const VARIANTS: [Variant; 5] = [
    Variant {
        name: "baseline",
        shards: 1,
        window: 1,
        exclusive: false,
        wire: Wire::InProc,
    },
    Variant {
        name: "sharded",
        shards: 2,
        window: 1,
        exclusive: true,
        wire: Wire::InProc,
    },
    Variant {
        name: "pipelined",
        shards: 2,
        window: 8,
        exclusive: true,
        wire: Wire::InProc,
    },
    Variant {
        name: "tcp",
        shards: 1,
        window: 1,
        exclusive: false,
        wire: Wire::Tcp,
    },
    Variant {
        name: "batched",
        shards: 2,
        window: 8,
        exclusive: true,
        wire: Wire::Tcp,
    },
];

impl Variant {
    fn cfg(&self) -> ShardConfig {
        let cfg = ShardConfig::new(self.shards).with_window(self.window);
        if self.exclusive {
            cfg.exclusive()
        } else {
            cfg
        }
    }
}

/// Drive the sharing-heavy pattern and return ops/s. The in-flight cap
/// is `W × clients`, so `W = 1` reproduces the blocking seed behaviour
/// (every client waits for its own operation) and `W = 8` keeps the
/// pipeline full.
fn run_cell(kind: ProtocolKind, v: Variant, ops: usize) -> f64 {
    let sys = sys();
    let cfg = v.cfg();
    let n = cfg.total_nodes(&sys);
    let cluster = match v.wire {
        Wire::InProc => Cluster::with_transport(sys, kind, cfg, InProcTransport::new(n)),
        Wire::Tcp => {
            let t = EpollTransport::loopback(n).expect("loopback mesh");
            Cluster::with_transport(sys, kind, cfg, t)
        }
    }
    .expect("cluster");
    let handles: Vec<_> = (0..N_CLIENTS)
        .map(|i| cluster.handle(NodeId(i as u16)))
        .collect();
    let payload = Bytes::from_static(b"sharing-heavy-payload");
    // Materialize every object once so the measured loop sees the
    // protocols' steady state, not first-touch setup.
    for o in 0..M_OBJECTS as u32 {
        handles[0]
            .write(ObjectId(o), payload.clone())
            .expect("warmup");
    }
    let cap = v.window * N_CLIENTS;
    let mut tickets: VecDeque<Ticket> = VecDeque::with_capacity(cap);
    let start = Instant::now();
    for i in 0..ops {
        let h = &handles[i % N_CLIENTS];
        let obj = ObjectId((i % M_OBJECTS) as u32);
        let t = if i % 3 == 0 {
            h.write_async(obj, payload.clone())
        } else {
            h.read_async(obj)
        };
        tickets.push_back(t);
        while tickets.len() >= cap {
            tickets.pop_front().expect("non-empty").wait().expect("op");
        }
    }
    for t in tickets {
        t.wait().expect("op");
    }
    let secs = start.elapsed().as_secs_f64();
    cluster.shutdown().expect("shutdown");
    ops as f64 / secs
}

/// Median ops/s over `reps` independent cluster runs — one run per
/// cluster, so cell noise (thread scheduling, TCP slow starts) doesn't
/// masquerade as a protocol property.
fn run_cell_median(kind: ProtocolKind, v: Variant, ops: usize, reps: usize) -> f64 {
    let mut rates: Vec<f64> = (0..reps).map(|_| run_cell(kind, v, ops)).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    rates[rates.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str, default: usize| -> usize {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} takes a number"))
            })
            .unwrap_or(default)
    };
    let ops = flag("--ops", 12000);
    let reps = flag("--reps", 5).max(1);

    let col = |name: &str| -> usize {
        VARIANTS
            .iter()
            .position(|v| v.name == name)
            .expect("known variant")
    };

    let sys = sys();
    println!(
        "exp-perf — sharing-heavy ops/s, N={} clients, M={} objects, \
         {ops} ops per cell, median of {reps}\n",
        sys.n_clients, sys.m_objects
    );
    print!("{:<16}", "protocol");
    for v in &VARIANTS {
        print!("{:>12}", v.name);
    }
    println!();

    let mut rows: Vec<(ProtocolKind, Vec<f64>)> = Vec::new();
    for kind in ProtocolKind::EVERY {
        print!("{:<16}", kind.name());
        let mut cells = Vec::new();
        for v in &VARIANTS {
            let rate = run_cell_median(kind, *v, ops, reps);
            print!("{:>12.0}", rate);
            use std::io::Write;
            std::io::stdout().flush().ok();
            cells.push(rate);
        }
        println!();
        rows.push((kind, cells));
    }

    // Geomeans over all nine protocols compare each configuration with
    // its natural control point.
    let geo = |num: usize, den: usize| -> f64 {
        let logs: f64 = rows.iter().map(|(_, c)| (c[num] / c[den]).ln()).sum();
        (logs / rows.len() as f64).exp()
    };
    let (bl, tcp) = (col("baseline"), col("tcp"));
    let pipe_x = geo(col("pipelined"), bl);
    let shard_x = geo(col("sharded"), bl);
    let batch_x = geo(col("batched"), tcp);
    println!("\ngeomean speedups over all nine protocols:");
    println!("  sharded   (K=2, W=1, gated)   vs baseline (in-proc): {shard_x:.2}x");
    println!("  pipelined (K=2, W=8, in-proc) vs baseline (in-proc): {pipe_x:.2}x");
    println!("  batched   (K=2, W=8, TCP)     vs tcp (K=1, W=1):     {batch_x:.2}x");
    if let Some((_, cells)) = rows.iter().find(|(k, _)| *k == ProtocolKind::Quorum) {
        println!(
            "\nQuorum over-the-wire gap (in-proc baseline / tcp): {:.1}x",
            cells[bl] / cells[tcp],
        );
    }

    if json {
        let config = format!(
            "{{\"n_clients\": {}, \"s\": {}, \"p\": {}, \"m_objects\": {}, \"ops\": {ops}, \"reps\": {reps}}}",
            sys.n_clients, sys.s, sys.p, sys.m_objects
        );
        let mut variants_json = String::from("{\n");
        for (i, v) in VARIANTS.iter().enumerate() {
            variants_json.push_str(&format!(
                "    \"{}\": {{\"shards\": {}, \"window\": {}, \"wire\": \"{}\", \"exclusive\": {}}}{}\n",
                v.name,
                v.shards,
                v.window,
                v.wire.json_name(),
                v.exclusive,
                if i + 1 < VARIANTS.len() { "," } else { "" }
            ));
        }
        variants_json.push_str("  }");
        let mut grid = String::from("{\n");
        for (r, (kind, cells)) in rows.iter().enumerate() {
            grid.push_str(&format!("    \"{}\": {{", kind.name()));
            for (i, (v, rate)) in VARIANTS.iter().zip(cells).enumerate() {
                grid.push_str(&format!(
                    "\"{}\": {:.1}{}",
                    v.name,
                    rate,
                    if i + 1 < VARIANTS.len() { ", " } else { "" }
                ));
            }
            grid.push_str(&format!(
                "}}{}\n",
                if r + 1 < rows.len() { "," } else { "" }
            ));
        }
        grid.push_str("  }");
        let speedup = format!(
            "{{\"pipelined_vs_baseline\": {pipe_x:.2}, \"sharded_vs_baseline\": {shard_x:.2}, \
             \"batched_vs_tcp\": {batch_x:.2}}}"
        );
        // Upsert rather than rewrite: exp-ycsb owns the "ycsb" section
        // of the same scoreboard, exp-scale the "scale" section.
        let path = repmem_bench::bench_json_path();
        repmem_bench::upsert_bench_sections(
            &path,
            &[
                ("config", config),
                ("variants", variants_json),
                ("ops_per_sec", grid),
                ("geomean_speedup", speedup),
            ],
        );
        println!("\nwrote {}", path.display());
    }
}
