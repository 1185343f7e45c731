//! E21 — scale-out: the paper's Figure 5 configuration (`N = 50,
//! S = 5000, P = 30`) run as a real multi-process cluster — one
//! `repmem-node` OS process per node over the TCP mesh, driven by one
//! control connection per client.
//!
//! ```text
//! exp-scale [--n 50] [--ops 20] [--shards 2] [--window 8]
//!           [--protocols Quorum,Dragon] [--json]
//! ```
//!
//! The analytic chapters evaluate this configuration in closed form
//! (`exp-fig5`); here the same topology exists as OS processes, so the
//! measured average message count per operation can sit next to the
//! model's cost surfaces, and the throughput column records what the
//! wire stack actually sustains at `N` an order of magnitude past the
//! pinned benchmark's 4-client workloads. `--json` upserts the `scale`
//! section of `BENCH_runtime.json` (the `ycsb` section, owned by
//! `exp-ycsb`, survives untouched). `--n 500` is accepted for stress
//! runs but is far past what a CI box resolves in reasonable time.

// `repmem_runtime::remote` runs on the epoll-based TCP mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_runtime::remote::RemoteCluster;
use repmem_runtime::ShardConfig;
use std::path::PathBuf;
use std::time::Instant;

const HELP: &str = "\
exp-scale: Fig-5 configuration (N=50, S=5000, P=30) as OS processes

USAGE:
    exp-scale [--n N] [--ops OPS_PER_CLIENT] [--shards K] [--window W]
              [--protocols A,B,...] [--json]

Defaults: --n 50, --ops 20, --shards 2, --window 8, protocols
Write-Through, Berkeley, Dragon, Quorum.
";

/// Objects the clients share; `M` only matters to the runtime, so this
/// is a knob of the harness, not of the paper's configuration.
const M_OBJECTS: usize = 64;

struct Cell {
    kind: ProtocolKind,
    ops_per_sec: f64,
    msgs_per_op: f64,
    cost_per_op: f64,
}

fn parse_protocols(list: &str) -> Result<Vec<ProtocolKind>, String> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|name| {
            ProtocolKind::EVERY
                .into_iter()
                .find(|k| k.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| format!("unknown protocol {name:?}"))
        })
        .collect()
}

/// The `repmem-node` executable, expected next to this binary (both are
/// workspace release artifacts; `cargo build --release` puts them in
/// the same directory).
fn node_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("current_exe has no parent dir")?;
    let bin = dir.join("repmem-node");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!(
            "{} not found — build it first (cargo build --release -p repmem-runtime)",
            bin.display()
        ))
    }
}

fn run_cell(
    kind: ProtocolKind,
    sys: SystemParams,
    shard: ShardConfig,
    bin: &std::path::Path,
    ops_per_client: usize,
) -> Result<Cell, String> {
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", kind.name());
    let mut cluster =
        RemoteCluster::launch_with(sys, kind, bin, shard).map_err(|e| fail("launch", &e))?;
    let payload = Bytes::from_static(b"scale-out-payload");
    for o in 0..M_OBJECTS as u32 {
        cluster
            .write(NodeId(0), ObjectId(o), payload.clone())
            .map_err(|e| fail("seeding", &e))?;
    }
    let (cost0, msgs0) = cluster.settle().map_err(|e| fail("settle", &e))?;

    // One driver thread per client, each with its own control
    // connection, all issuing blocking ops concurrently — the closest
    // OS-process analogue of the paper's N independent clients.
    let mut handles = Vec::with_capacity(sys.n_clients);
    for c in 0..sys.n_clients {
        handles.push(
            cluster
                .connect_handle(NodeId(c as u16))
                .map_err(|e| fail("connect_handle", &e))?,
        );
    }
    let start = Instant::now();
    let results: Vec<std::thread::JoinHandle<Result<(), String>>> = handles
        .into_iter()
        .enumerate()
        .map(|(c, mut h)| {
            let payload = payload.clone();
            std::thread::spawn(move || -> Result<(), String> {
                for i in 0..ops_per_client {
                    let obj = ObjectId(((c * ops_per_client + i) % M_OBJECTS) as u32);
                    if i % 3 == 0 {
                        h.write(obj, payload.clone()).map_err(|e| e.to_string())?;
                    } else {
                        h.read(obj).map_err(|e| e.to_string())?;
                    }
                }
                Ok(())
            })
        })
        .collect();
    for t in results {
        t.join()
            .map_err(|_| format!("{}: driver thread panicked", kind.name()))?
            .map_err(|e| fail("driving ops", &e))?;
    }
    let secs = start.elapsed().as_secs_f64();
    let (cost1, msgs1) = cluster.settle().map_err(|e| fail("settle", &e))?;
    cluster.shutdown().map_err(|e| fail("shutdown", &e))?;

    let ops = (sys.n_clients * ops_per_client) as f64;
    Ok(Cell {
        kind,
        ops_per_sec: ops / secs,
        msgs_per_op: (msgs1 - msgs0) as f64 / ops,
        cost_per_op: (cost1 - cost0) as f64 / ops,
    })
}

fn run() -> Result<(), String> {
    let mut n = 50usize;
    let mut ops_per_client = 20usize;
    let mut shards = 2usize;
    let mut window = 8usize;
    let mut kinds = vec![
        ProtocolKind::WriteThrough,
        ProtocolKind::Berkeley,
        ProtocolKind::Dragon,
        ProtocolKind::Quorum,
    ];
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--n" => n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--ops" => {
                ops_per_client = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?
            }
            "--shards" => {
                shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--window" => {
                window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--protocols" => kinds = parse_protocols(&value("--protocols")?)?,
            "--json" => json = true,
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    // Fig 5 system parameters with N as the swept axis.
    let sys = SystemParams {
        n_clients: n,
        m_objects: M_OBJECTS,
        ..SystemParams::figure5()
    };
    let cfg = ShardConfig::new(shards).with_window(window);
    let bin = node_bin()?;
    let total = cfg.total_nodes(&sys);
    println!(
        "exp-scale — Fig-5 config as OS processes: N={n} clients, S={}, P={}, \
         {total} repmem-node processes (K={shards}, W={window}), \
         {ops_per_client} ops/client",
        sys.s, sys.p
    );

    let mut cells = Vec::with_capacity(kinds.len());
    for &kind in &kinds {
        let t0 = Instant::now();
        let cell = run_cell(kind, sys, cfg, &bin, ops_per_client)?;
        println!(
            "  {:<16} {:>8.0} ops/s   {:>7.1} msgs/op   {:>9.1} cost/op   [{:.1}s total]",
            cell.kind.name(),
            cell.ops_per_sec,
            cell.msgs_per_op,
            cell.cost_per_op,
            t0.elapsed().as_secs_f64()
        );
        cells.push(cell);
    }

    if json {
        let config = format!(
            "{{\"n_clients\": {n}, \"s\": {}, \"p\": {}, \"m_objects\": {M_OBJECTS}, \
             \"shards\": {shards}, \"window\": {window}, \
             \"processes\": {total}, \"ops_per_client\": {ops_per_client}}}",
            sys.s, sys.p
        );
        let mut protocols = String::from("{\n");
        for (i, c) in cells.iter().enumerate() {
            protocols.push_str(&format!(
                "      \"{}\": {{\"ops_per_sec\": {:.1}, \"msgs_per_op\": {:.2}, \"cost_per_op\": {:.1}}}{}\n",
                c.kind.name(),
                c.ops_per_sec,
                c.msgs_per_op,
                c.cost_per_op,
                if i + 1 < cells.len() { "," } else { "" }
            ));
        }
        protocols.push_str("    }");
        let section =
            format!("{{\n    \"config\": {config},\n    \"protocols\": {protocols}\n  }}");
        let path = repmem_bench::bench_json_path();
        repmem_bench::upsert_bench_sections(&path, &[("scale", section)]);
        println!("\nwrote {}", path.display());
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("exp-scale: {e}");
        std::process::exit(1);
    }
}
