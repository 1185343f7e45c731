//! wire-probe — run ONE (protocol, wire) cell of the exp-perf workload
//! and report where the time goes: ops/s, per-operation latency, and
//! the process-wide context-switch and CPU counters from `/proc` (the
//! container images this repo targets ship no `perf`/`strace`, so the
//! scheduler counters are the only wire-path profiler available).
//!
//! ```text
//! wire-probe --protocol Quorum --wire tcp --ops 8000
//! ```
//!
//! The workload, topology and in-flight discipline match `exp-perf`
//! exactly, so a probe number is directly comparable to a grid cell.

// Reads `/proc` and drives the epoll-based TCP mesh.
#![cfg(target_os = "linux")]

use bytes::Bytes;
use repmem_core::{NodeId, ObjectId, ProtocolKind, SystemParams};
use repmem_net::{EpollTransport, InProcTransport};
use repmem_runtime::{Cluster, ShardConfig, Ticket};
use std::collections::VecDeque;
use std::time::Instant;

const M_OBJECTS: usize = 16;

const HELP: &str = "\
wire-probe: one exp-perf cell with scheduler counters

USAGE:
    wire-probe --protocol NAME [--wire W] [--ops N] [--window W] [--shards K]
               [--n CLIENTS]

--wire is inproc (default) or tcp. Defaults: --ops 8000, --shards 1,
--window 1, --n 4.
";

/// Sum a numeric field over every task of this process.
fn proc_counter(field: &str) -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for t in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(t.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if let Some(v) = line.strip_prefix(field) {
                total += v
                    .trim()
                    .trim_end_matches(char::is_alphabetic)
                    .trim()
                    .parse()
                    .unwrap_or(0);
            }
        }
    }
    total
}

fn ctx_switches() -> (u64, u64) {
    (
        proc_counter("voluntary_ctxt_switches:"),
        proc_counter("nonvoluntary_ctxt_switches:"),
    )
}

fn parse_protocol(name: &str) -> Result<ProtocolKind, String> {
    ProtocolKind::EVERY
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            let names: Vec<_> = ProtocolKind::EVERY.iter().map(|k| k.name()).collect();
            format!("unknown protocol {name:?}; one of: {}", names.join(", "))
        })
}

fn run() -> Result<(), String> {
    let mut kind: Option<ProtocolKind> = None;
    let mut n_clients = 4usize;
    let mut wire = String::from("inproc");
    let mut ops = 8000usize;
    let mut shards = 1usize;
    let mut window = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--protocol" => kind = Some(parse_protocol(&value("--protocol")?)?),
            "--n" => n_clients = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--wire" => wire = value("--wire")?,
            "--ops" => ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?,
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
            "--help" | "-h" => {
                print!("{HELP}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    let kind = kind.ok_or("--protocol is required")?;
    let sys = SystemParams {
        n_clients,
        s: 64,
        p: 16,
        m_objects: M_OBJECTS,
    };
    let cfg = ShardConfig::new(shards).with_window(window);
    let n = cfg.total_nodes(&sys);
    let cluster = match wire.as_str() {
        "inproc" => Cluster::with_transport(sys, kind, cfg, InProcTransport::new(n)),
        "tcp" => Cluster::with_transport(
            sys,
            kind,
            cfg,
            EpollTransport::loopback(n).map_err(|e| e.to_string())?,
        ),
        other => return Err(format!("unknown wire {other:?} (try --help)")),
    }
    .map_err(|e| e.to_string())?;

    let handles: Vec<_> = (0..n_clients)
        .map(|i| cluster.handle(NodeId(i as u16)))
        .collect();
    let payload = Bytes::from_static(b"sharing-heavy-payload");
    for o in 0..M_OBJECTS as u32 {
        handles[0]
            .write(ObjectId(o), payload.clone())
            .map_err(|e| e.to_string())?;
    }
    let cap = window * n_clients;
    let mut tickets: VecDeque<Ticket> = VecDeque::with_capacity(cap);
    let msgs0 = cluster.total_messages();
    let (vol0, invol0) = ctx_switches();
    let start = Instant::now();
    for i in 0..ops {
        let h = &handles[i % n_clients];
        let obj = ObjectId((i % M_OBJECTS) as u32);
        let t = if i % 3 == 0 {
            h.write_async(obj, payload.clone())
        } else {
            h.read_async(obj)
        };
        tickets.push_back(t);
        while tickets.len() >= cap {
            tickets
                .pop_front()
                .ok_or("empty ticket queue")?
                .wait()
                .map_err(|e| e.to_string())?;
        }
    }
    for t in tickets {
        t.wait().map_err(|e| e.to_string())?;
    }
    let secs = start.elapsed().as_secs_f64();
    let (vol1, invol1) = ctx_switches();
    let msgs = cluster.total_messages() - msgs0;
    cluster.shutdown().map_err(|e| e.to_string())?;

    let rate = ops as f64 / secs;
    println!(
        "{} over {wire}: {rate:.0} ops/s  ({:.1} us/op, {:.2} msgs/op)",
        kind.name(),
        1e6 * secs / ops as f64,
        msgs as f64 / ops as f64
    );
    println!(
        "context switches: {:.2} voluntary/op, {:.2} involuntary/op",
        (vol1 - vol0) as f64 / ops as f64,
        (invol1 - invol0) as f64 / ops as f64
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("wire-probe: {e}");
        std::process::exit(1);
    }
}
