//! A parallel grid-relaxation "application" on the DSM — the kind of
//! workload the paper's introduction motivates. Each worker owns a strip
//! of rows; neighbouring workers read each other's boundary rows every
//! sweep. The example replays the access trace through the discrete-event
//! simulator under every protocol, then runs the winner live on the
//! threaded cluster.
//!
//! ```text
//! cargo run --example grid_solver
//! ```

use bytes::Bytes;
use repmem::prelude::*;
use repmem_workload::apps::{grid_objects, grid_relaxation};

fn main() {
    let workers = 4usize;
    let rows_per_worker = 4usize;
    let sweeps = 10usize;
    let sys = SystemParams {
        n_clients: workers,
        s: 256, // a row of the grid
        p: 8,   // a point update
        m_objects: grid_objects(workers, rows_per_worker),
    };
    let trace = grid_relaxation(workers, rows_per_worker, sweeps);
    println!(
        "grid relaxation: {workers} workers × {rows_per_worker} rows, {sweeps} sweeps — {} accesses over {} row objects\n",
        trace.len(),
        sys.m_objects
    );

    // 1. Replay the exact trace under each protocol in the simulator.
    println!(
        "{:<16} {:>12} {:>14}",
        "protocol", "total cost", "cost/operation"
    );
    let mut best = (ProtocolKind::WriteThrough, u64::MAX);
    for kind in ProtocolKind::ALL {
        let report = replay(
            &SimConfig {
                sys,
                protocol: kind,
                mode: IssueMode::Serialized,
                warmup_ops: 0,
                measured_ops: trace.len(),
                seed: 1,
            },
            &trace,
        );
        assert!(report.coherence.is_coherent(), "{kind:?} diverged");
        println!(
            "{:<16} {:>12} {:>14.3}",
            kind.name(),
            report.total_cost,
            report.acc()
        );
        if report.total_cost < best.1 {
            best = (kind, report.total_cost);
        }
    }
    println!("\nbest for this sweep pattern: {}\n", best.0.name());

    // 2. Run the winner live: worker threads relax their strips on the
    //    threaded cluster.
    let cluster = Cluster::new(sys, best.0);
    let threads: Vec<_> = (0..workers)
        .map(|w| {
            let h = cluster.handle(NodeId(w as u16));
            std::thread::spawn(move || {
                let row = |wk: usize, r: usize| ObjectId((wk * rows_per_worker + r) as u32);
                for sweep in 0..sweeps {
                    // Read the neighbours' facing boundary rows.
                    if w > 0 {
                        let _ = h.read(row(w - 1, rows_per_worker - 1)).unwrap();
                    }
                    if w + 1 < workers {
                        let _ = h.read(row(w + 1, 0)).unwrap();
                    }
                    // Relax and publish the owned strip.
                    for r in 0..rows_per_worker {
                        let _ = h.read(row(w, r)).unwrap();
                        h.write(row(w, r), Bytes::from(format!("w{w} r{r} sweep{sweep}")))
                            .unwrap();
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("worker");
    }
    let (cost, msgs) = cluster.settle().unwrap();
    let dump = cluster.shutdown().unwrap();
    assert!(dump.is_coherent(), "live run diverged");
    println!(
        "live run under {}: {} cost units over {} messages — replicas coherent.",
        best.0.name(),
        cost,
        msgs
    );
}
