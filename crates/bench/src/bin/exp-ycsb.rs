//! exp-ycsb — YCSB A/B/C/D/F throughput and latency over the replicated
//! KV service, for every coherence protocol.
//!
//! Each cell hosts the full `N + K` cluster in-process, loads the record
//! set once through one store, then runs the workload from all `N`
//! client nodes concurrently (thread `t` drives node `t` with its own
//! seeded op stream). Reported throughput is total ops over the run
//! phase's wall clock; latencies are merged across threads and the rep
//! with the median throughput is the one whose percentiles are printed.
//!
//! Each cell also reports its *local hit share*: the fraction of the run
//! phase's operations the runtime served from a node's replica table
//! without visiting the node loop (`Cluster::local_read_hits`) — the
//! property the read fast path helps, measured per mix and protocol.
//!
//! `--json` upserts a `"ycsb"` section into `BENCH_runtime.json` at the
//! repository root — every cell records its zipfian `theta` and shard
//! count alongside ops/s, p50/p99 and the hit share. `--records`,
//! `--ops` and `--reps` shrink the grid for CI.

use repmem_bench::{bench_json_path, render_table, upsert_bench_sections};
use repmem_core::{NodeId, ProtocolKind, SystemParams};
use repmem_kv::{driver, KeySpace, KvStore, WorkloadReport};
use repmem_runtime::{Cluster, ShardConfig};
use repmem_workload::ycsb::{YcsbSpec, YcsbWorkload};
use std::time::{Duration, Instant};

struct Params {
    records: u64,
    ops: u64,
    reps: usize,
    theta: f64,
    value_len: usize,
    n_clients: usize,
    slots: usize,
    shards: usize,
    window: usize,
    seed: u64,
}

struct Cell {
    ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    /// Run-phase operations served on the read fast path ÷ operations.
    hit_share: f64,
}

/// One `(workload, protocol)` measurement: load once, run from all
/// client nodes concurrently.
fn run_cell(w: YcsbWorkload, kind: ProtocolKind, p: &Params) -> Cell {
    let sys = SystemParams {
        n_clients: p.n_clients,
        s: 64,
        p: 16,
        m_objects: p.slots,
    };
    let cfg = ShardConfig::new(p.shards).with_window(p.window);
    let cluster = Cluster::with_config(sys, kind, cfg);
    let space = KeySpace::new(p.slots, 42);

    let load_spec = YcsbSpec::new(w, p.records, 0, p.seed)
        .with_theta(p.theta)
        .with_value_len(p.value_len);
    let mut loader = KvStore::new(cluster.handle(NodeId(0)), space);
    driver::load(&mut loader, &load_spec).expect("load");

    let per_thread = (p.ops / p.n_clients as u64).max(1);
    let hits_before = cluster.local_read_hits();
    let start = Instant::now();
    let reports: Vec<WorkloadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..p.n_clients)
            .map(|t| {
                let mut store = KvStore::new(cluster.handle(NodeId(t as u16)), space);
                let spec = YcsbSpec::new(w, p.records, per_thread, p.seed ^ (t as u64) << 17)
                    .with_theta(p.theta)
                    .with_value_len(p.value_len);
                scope.spawn(move || driver::run(&mut store, &spec).expect("run"))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let hits = cluster.local_read_hits() - hits_before;
    cluster.shutdown().expect("shutdown");

    let total_ops: u64 = reports.iter().map(|r| r.ops).sum();
    let mut latencies: Vec<Duration> = reports.into_iter().flat_map(|r| r.latencies).collect();
    let (p50, p99) = repmem_kv::latency_percentiles_us(&mut latencies);
    Cell {
        ops_per_sec: total_ops as f64 / secs,
        p50_us: p50,
        p99_us: p99,
        hit_share: hits as f64 / total_ops as f64,
    }
}

/// Rep with the median throughput (its percentiles ride along).
fn run_cell_median(w: YcsbWorkload, kind: ProtocolKind, p: &Params) -> Cell {
    let mut cells: Vec<Cell> = (0..p.reps).map(|_| run_cell(w, kind, p)).collect();
    cells.sort_by(|a, b| a.ops_per_sec.partial_cmp(&b.ops_per_sec).expect("finite"));
    cells.swap_remove(cells.len() / 2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str, default: u64| -> u64 {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("{name} takes a number"))
            })
            .unwrap_or(default)
    };
    let p = Params {
        records: flag("--records", 2000),
        ops: flag("--ops", 8000),
        reps: flag("--reps", 3).max(1) as usize,
        theta: 0.99,
        value_len: 100,
        n_clients: 4,
        slots: 16384,
        shards: flag("--shards", 2) as usize,
        window: flag("--window", 8) as usize,
        seed: 42,
    };
    println!(
        "exp-ycsb — YCSB over repmem-kv, N={} clients, K={} shards, W={}, \
         {} records, {} ops/cell, theta {:.2}, median of {}\n",
        p.n_clients, p.shards, p.window, p.records, p.ops, p.theta, p.reps
    );

    let mut header: Vec<String> = vec!["protocol".into()];
    for w in YcsbWorkload::ALL {
        header.push(format!("{} ops/s", w.name()));
        header.push(format!("{} p99us", w.name()));
        header.push(format!("{} hit%", w.name()));
    }
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut grid: Vec<(YcsbWorkload, Vec<(ProtocolKind, Cell)>)> = YcsbWorkload::ALL
        .into_iter()
        .map(|w| (w, Vec::new()))
        .collect();
    for kind in ProtocolKind::EVERY {
        let mut row = vec![kind.name().to_string()];
        for (w, cells) in grid.iter_mut() {
            let cell = run_cell_median(*w, kind, &p);
            row.push(format!("{:.0}", cell.ops_per_sec));
            row.push(format!("{:.0}", cell.p99_us));
            row.push(format!("{:.1}", cell.hit_share * 100.0));
            cells.push((kind, cell));
        }
        rows.push(row);
        println!("{}", rows.last().expect("row").join("  "));
    }
    println!("\n{}", render_table(&header, &rows));

    if json {
        let config = format!(
            "{{\"records\": {}, \"ops\": {}, \"reps\": {}, \"theta\": {:.2}, \
             \"value_len\": {}, \"n_clients\": {}, \"slots\": {}, \"shards\": {}, \
             \"window\": {}}}",
            p.records,
            p.ops,
            p.reps,
            p.theta,
            p.value_len,
            p.n_clients,
            p.slots,
            p.shards,
            p.window
        );
        let mut cells_json = String::from("{\n");
        for (wi, (w, cells)) in grid.iter().enumerate() {
            cells_json.push_str(&format!("    \"{}\": {{\n", w.name()));
            for (ki, (kind, cell)) in cells.iter().enumerate() {
                cells_json.push_str(&format!(
                    "      \"{}\": {{\"ops_per_sec\": {:.1}, \"p50_us\": {:.2}, \
                     \"p99_us\": {:.1}, \"local_hit_share\": {:.3}, \"theta\": {:.2}, \
                     \"shards\": {}}}{}\n",
                    kind.name(),
                    cell.ops_per_sec,
                    cell.p50_us,
                    cell.p99_us,
                    cell.hit_share,
                    p.theta,
                    p.shards,
                    if ki + 1 < cells.len() { "," } else { "" }
                ));
            }
            cells_json.push_str(&format!(
                "    }}{}\n",
                if wi + 1 < grid.len() { "," } else { "" }
            ));
        }
        cells_json.push_str("  }");
        let ycsb = format!("{{\"config\": {config}, \"cells\": {cells_json}}}");
        let path = bench_json_path();
        upsert_bench_sections(&path, &[("ycsb", ycsb)]);
        println!("wrote {}", path.display());
    }
}
