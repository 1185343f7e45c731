//! E6 — the reconstructed Table 6: read-disturbance steady-state average
//! communication cost per operation and per shared object, for all eight
//! protocols. The printed table in the available scan is unreadable; each
//! formula here is re-derived for our protocol definitions (DESIGN.md §4)
//! and verified against the chain engine at every printed point.

use repmem_analytic::analyze;
use repmem_analytic::closed::closed_rd;
use repmem_bench::{grid2, par_map, render_table, write_csv, write_text, SweepTimer};
use repmem_core::{ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;

/// The closed forms as display strings (notation: q = aσ, ρ = 1−p−q).
const FORMULAS: &[(&str, &str)] = &[
    (
        "Write-Through",
        "[pρ/(1−q) + qp/(p+σ)](S+2) + p(P+N)                                (paper eq. 3)",
    ),
    ("Write-Through-V", "[qp/(p+σ)](S+2) + p(P+N+2)"),
    (
        "Write-Once",
        "p[q/(p+q)·(P+N) + pq/(p+q)²] + aσ[pq/(p+q)²·(S+3) + p²/(p+q)²·(2S+4) + p(q−σ)/((p+q)(p+σ))·(S+2)]",
    ),
    (
        "Synapse",
        "p(1−π₁)(S+N+1) + ρ(π₂+π₃)(S+2) + aσ[π₁(2S+N+2) + (π₂+π₄)(S+2)],  π₁=p/(p+q), π₂=π₁(q−σ)/(p+ρ+σ), π₃=σ(π₁+π₂)/(p+ρ), π₄=ρπ₂/(p+σ)",
    ),
    (
        "Illinois",
        "pq/(p+q)·(N+1) + aσ[p/(p+q)·(2S+4) + p(q−σ)/((p+q)(p+σ))·(S+2)]",
    ),
    ("Berkeley", "pNq/(p+q) + aσ(S+2)·p/(p+σ)"),
    ("Dragon", "pN(P+1)"),
    ("Firefly", "p(N(P+1)+1)"),
];

fn main() {
    let sys = SystemParams::figure5(); // N=50, S=5000, P=30
    let a = 10usize;

    let mut text = String::new();
    text.push_str("Table 6 (reconstructed): steady-state average communication cost per\n");
    text.push_str("operation and per shared object, read disturbance deviation.\n");
    text.push_str("Notation: q = a*sigma, rho = 1 - p - q.\n\n");
    for (name, formula) in FORMULAS {
        text.push_str(&format!("{name:<16} acc = {formula}\n"));
    }
    println!("{text}");

    // Spot-check grid, every formula vs the engine, fanned out over the
    // sweep pool.
    let mut timer = SweepTimer::begin("exp-table6");
    let points = [(0.1, 0.01), (0.3, 0.03), (0.5, 0.02), (0.7, 0.025)];
    let header: Vec<String> = std::iter::once("protocol".to_string())
        .chain(points.iter().map(|(p, s)| format!("p={p},σ={s}")))
        .collect();
    let cells = grid2(&ProtocolKind::ALL, &points);
    let solved = par_map(&cells, |_, &(kind, (p, sigma))| {
        let c = closed_rd(kind, &sys, p, sigma, a);
        let scenario = Scenario::read_disturbance(p, sigma, a).unwrap();
        let e = analyze(protocol(kind), &sys, &scenario)
            .expect("chain analysis")
            .acc;
        (kind, p, sigma, c, e)
    });
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut max_rel = 0.0f64;
    for chunk in solved.chunks(points.len()) {
        let mut row = vec![chunk[0].0.name().to_string()];
        for &(kind, p, sigma, c, e) in chunk {
            let rel = (c - e).abs() / e.abs().max(1e-12);
            max_rel = max_rel.max(rel);
            row.push(format!("{c:.2}"));
            csv.push(vec![
                kind.name().to_string(),
                p.to_string(),
                sigma.to_string(),
                c.to_string(),
                e.to_string(),
            ]);
        }
        rows.push(row);
    }
    let table = render_table(&header, &rows);
    println!("Spot values (N=50, a=10, P=30, S=5000):\n\n{table}");
    println!("max relative |closed - engine| over the grid: {max_rel:.3e}");
    assert!(
        max_rel < 1e-8,
        "Table 6 reconstruction drifted from the engine"
    );

    text.push_str("\nSpot values (N=50, a=10, P=30, S=5000):\n\n");
    text.push_str(&table);
    let tpath = write_text("table6.txt", &text);
    let cpath = write_csv(
        "table6_spot.csv",
        &["protocol", "p", "sigma", "closed", "engine"],
        csv,
    );
    println!("written: {} and {}", tpath.display(), cpath.display());
    timer.add_points(cells.len());
    timer.finish();
}
