//! E7 — Figure 5: characteristic surfaces of the steady-state average
//! communication cost per operation under **read disturbance**, with the
//! paper's configuration `N = 50, a = 10, P = 30` and `S = 5000`
//! (`S = 100` for the Write-Through-V panel (b)).
//!
//! Panels:
//! * (a) Write-Once, Synapse, Illinois, Berkeley (S = 5000);
//! * (b) Write-Through-V (S = 100);
//! * (c) Dragon, Firefly (S = 5000);
//! * (d) Dragon vs Berkeley (S = 5000) — winner map.
//!
//! The σ axis spans `0 ≤ σ ≤ (1−p)/a` (the admissible simplex). One CSV
//! per panel plus a combined all-protocols CSV.

use repmem_analytic::closed::closed_rd;
use repmem_bench::{ascii_heatmap, grid2, linspace, par_map, write_csv, write_text, SweepTimer};
use repmem_core::{ProtocolKind, SystemParams};

const STEPS: usize = 41;

fn surface(
    kinds: &[ProtocolKind],
    sys: &SystemParams,
    a: usize,
) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let points = grid2(&linspace(0.0, 1.0, STEPS), &linspace(0.0, 1.0, STEPS));
    let rows = par_map(&points, |_, &(p, frac)| {
        let sigma = frac * (1.0 - p) / a as f64;
        let mut row = vec![format!("{p:.4}"), format!("{sigma:.6}")];
        for &k in kinds {
            row.push(format!("{:.4}", closed_rd(k, sys, p, sigma, a)));
        }
        row
    });
    let names: Vec<&'static str> = kinds.iter().map(|k| k.name()).collect();
    (names, rows)
}

fn main() {
    let mut timer = SweepTimer::begin("exp-fig5");
    let a = 10usize;
    let s5000 = SystemParams::figure5();
    let s100 = SystemParams { s: 100, ..s5000 };

    // Panel (a): the four ownership/invalidation protocols at S = 5000.
    let panel_a = [
        ProtocolKind::WriteOnce,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Berkeley,
    ];
    let (names, rows) = surface(&panel_a, &s5000, a);
    timer.add_points(rows.len());
    let header: Vec<&str> = ["p", "sigma"].into_iter().chain(names).collect();
    let pa = write_csv("fig5a_ownership.csv", &header, rows);

    // Panel (b): Write-Through-V at S = 100 (plus plain Write-Through for
    // the §5.1 crossover discussion).
    let panel_b = [ProtocolKind::WriteThroughV, ProtocolKind::WriteThrough];
    let (names, rows) = surface(&panel_b, &s100, a);
    timer.add_points(rows.len());
    let header: Vec<&str> = ["p", "sigma"].into_iter().chain(names).collect();
    let pb = write_csv("fig5b_write_through_v.csv", &header, rows);

    // Panel (c): the update protocols at S = 5000.
    let panel_c = [ProtocolKind::Dragon, ProtocolKind::Firefly];
    let (names, rows) = surface(&panel_c, &s5000, a);
    timer.add_points(rows.len());
    let header: Vec<&str> = ["p", "sigma"].into_iter().chain(names).collect();
    let pc = write_csv("fig5c_update.csv", &header, rows);

    // Panel (d): Dragon vs Berkeley winner map.
    let points = grid2(&linspace(0.0, 1.0, STEPS), &linspace(0.0, 1.0, STEPS));
    let rows = par_map(&points, |_, &(p, frac)| {
        let sigma = frac * (1.0 - p) / a as f64;
        let d = closed_rd(ProtocolKind::Dragon, &s5000, p, sigma, a);
        let b = closed_rd(ProtocolKind::Berkeley, &s5000, p, sigma, a);
        let winner = if (d - b).abs() < 1e-12 {
            "tie"
        } else if d < b {
            "Dragon"
        } else {
            "Berkeley"
        };
        vec![
            format!("{p:.4}"),
            format!("{sigma:.6}"),
            format!("{d:.4}"),
            format!("{b:.4}"),
            winner.to_string(),
        ]
    });
    timer.add_points(rows.len());
    let pd = write_csv(
        "fig5d_dragon_vs_berkeley.csv",
        &["p", "sigma", "Dragon", "Berkeley", "winner"],
        rows,
    );

    // Combined surface over all eight protocols at S = 5000.
    let (names, rows) = surface(&ProtocolKind::ALL, &s5000, a);
    timer.add_points(rows.len());
    let header: Vec<&str> = ["p", "sigma"].into_iter().chain(names).collect();
    let pall = write_csv("fig5_all_protocols.csv", &header, rows);

    println!("Figure 5 surfaces regenerated (read disturbance, N=50, a=10, P=30):");
    for p in [pa, pb, pc, pd, pall] {
        println!("  {}", p.display());
    }

    // Terminal rendering of the characteristic surfaces (p up, σ right),
    // matching the qualitative shape of the paper's 3-D plots.
    let mut art = String::new();
    let coarse = 25usize;
    let row_labels: Vec<String> = (0..coarse)
        .map(|i| format!("p={:.2}", i as f64 / (coarse - 1) as f64))
        .collect();
    for (kind, sys) in [
        (ProtocolKind::Berkeley, &s5000),
        (ProtocolKind::Synapse, &s5000),
        (ProtocolKind::WriteThroughV, &s100),
        (ProtocolKind::Dragon, &s5000),
    ] {
        let values: Vec<Vec<f64>> = (0..coarse)
            .map(|i| {
                let p = i as f64 / (coarse - 1) as f64;
                (0..coarse)
                    .map(|j| {
                        let sigma = j as f64 / (coarse - 1) as f64 * (1.0 - p) / a as f64;
                        closed_rd(kind, sys, p, sigma, a)
                    })
                    .collect()
            })
            .collect();
        art.push_str(&ascii_heatmap(
            &format!("{} — acc(p, σ), S={}", kind.name(), sys.s),
            &row_labels,
            &values,
        ));
        art.push('\n');
    }
    println!("{art}");
    let heat = write_text("fig5_heatmaps.txt", &art);
    println!("  {}", heat.display());

    // Headline shape checks from §5.1.
    let mid = |k| closed_rd(k, &s5000, 0.4, 0.03, a);
    assert!(mid(ProtocolKind::Berkeley) <= mid(ProtocolKind::Illinois));
    assert!(mid(ProtocolKind::Illinois) <= mid(ProtocolKind::Synapse));
    assert_eq!(closed_rd(ProtocolKind::Dragon, &s5000, 0.0, 0.05, a), 0.0);
    println!("section 5.1 shape checks passed (Berkeley <= Illinois <= Synapse; p=0 free).");
    timer.finish();
}
