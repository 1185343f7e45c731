//! Compare all eight coherence protocols for a workload of your choice —
//! the paper's §5 methodology as a command-line tool.
//!
//! ```text
//! cargo run --example compare_protocols -- [p] [sigma] [a] [N] [S] [P]
//! cargo run --example compare_protocols -- 0.3 0.05 4 10 100 30
//! ```
//!
//! Prints the analytic steady-state average communication cost per
//! operation (chain engine + closed form) and a simulation cross-check
//! for every protocol, cheapest first.

use repmem::prelude::*;
use repmem_analytic::closed::closed_rd;

fn arg(n: usize, default: f64) -> f64 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let p = arg(1, 0.3);
    let sigma = arg(2, 0.05);
    let a = arg(3, 4.0) as usize;
    let sys = SystemParams::new(
        arg(4, 10.0) as usize,
        arg(5, 100.0) as u64,
        arg(6, 30.0) as u64,
    );

    let scenario = match Scenario::read_disturbance(p, sigma, a) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("invalid workload (p={p}, σ={sigma}, a={a}): {e}");
            std::process::exit(1);
        }
    };
    println!(
        "Read disturbance: p={p}, σ={sigma}, a={a}; system: N={}, S={}, P={}\n",
        sys.n_clients, sys.s, sys.p
    );
    println!(
        "{:<16} {:>12} {:>12} {:>12} {:>8}",
        "protocol", "acc (engine)", "acc (closed)", "acc (sim)", "states"
    );

    let mut rows: Vec<(ProtocolKind, f64, f64, f64, usize)> = ProtocolKind::ALL
        .into_iter()
        .map(|kind| {
            let engine = analyze(protocol(kind), &sys, &scenario).expect("chain analysis");
            let closed = closed_rd(kind, &sys, p, sigma, a);
            let sim = simulate(
                &SimConfig {
                    sys,
                    protocol: kind,
                    mode: IssueMode::Serialized,
                    warmup_ops: 500,
                    measured_ops: 4000,
                    seed: 11,
                },
                &scenario,
            )
            .acc();
            (kind, engine.acc, closed, sim, engine.n_states)
        })
        .collect();
    rows.sort_by(|l, r| l.1.total_cmp(&r.1));

    for (kind, engine, closed, sim, states) in &rows {
        println!(
            "{:<16} {:>12.4} {:>12.4} {:>12.4} {:>8}",
            kind.name(),
            engine,
            closed,
            sim,
            states
        );
    }
    let (best, acc, ..) = rows[0];
    println!(
        "\ncheapest: {} at {acc:.4} cost units per operation",
        best.name()
    );
}
