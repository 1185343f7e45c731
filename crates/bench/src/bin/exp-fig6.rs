//! E8 — Figure 6: characteristic surfaces under **write disturbance**
//! (`N = 50, a = 10, P = 30`, `S = 5000`; `S = 100` for the
//! Write-Through-V panel (b)).
//!
//! Write-Through, Write-Through-V, Dragon and Firefly use their closed
//! forms; the ownership protocols (panel (a)) have no printed WD closed
//! form, so their surfaces come from the chain engine — which is the
//! point of the engine: any protocol × any deviation.

use repmem_analytic::analyze;
use repmem_analytic::closed::closed_wd;
use repmem_bench::{grid2, linspace, par_map, write_csv, SweepTimer};
use repmem_core::{ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;

const STEPS: usize = 21;

fn acc_wd(kind: ProtocolKind, sys: &SystemParams, p: f64, xi: f64, a: usize) -> f64 {
    if let Some(c) = closed_wd(kind, sys, p, xi, a) {
        return c;
    }
    let scenario = Scenario::write_disturbance(p, xi, a).expect("valid WD point");
    analyze(protocol(kind), sys, &scenario)
        .expect("chain analysis")
        .acc
}

fn surface(kinds: &[ProtocolKind], sys: &SystemParams, a: usize) -> Vec<Vec<String>> {
    let points = grid2(&linspace(0.0, 1.0, STEPS), &linspace(0.0, 1.0, STEPS));
    par_map(&points, |_, &(p, frac)| {
        let xi = frac * (1.0 - p) / a as f64;
        let mut row = vec![format!("{p:.4}"), format!("{xi:.6}")];
        for &k in kinds {
            row.push(format!("{:.4}", acc_wd(k, sys, p, xi, a)));
        }
        row
    })
}

fn main() {
    let mut timer = SweepTimer::begin("exp-fig6");
    let a = 10usize;
    let s5000 = SystemParams::figure5();
    let s100 = SystemParams { s: 100, ..s5000 };

    let panel_a = [
        ProtocolKind::WriteOnce,
        ProtocolKind::Synapse,
        ProtocolKind::Illinois,
        ProtocolKind::Berkeley,
    ];
    let names: Vec<&str> = panel_a.iter().map(|k| k.name()).collect();
    let header: Vec<&str> = ["p", "xi"].into_iter().chain(names).collect();
    let rows = surface(&panel_a, &s5000, a);
    timer.add_points(rows.len());
    let pa = write_csv("fig6a_ownership.csv", &header, rows);

    let panel_b = [ProtocolKind::WriteThroughV, ProtocolKind::WriteThrough];
    let names: Vec<&str> = panel_b.iter().map(|k| k.name()).collect();
    let header: Vec<&str> = ["p", "xi"].into_iter().chain(names).collect();
    let rows = surface(&panel_b, &s100, a);
    timer.add_points(rows.len());
    let pb = write_csv("fig6b_write_through_v.csv", &header, rows);

    let panel_c = [ProtocolKind::Dragon, ProtocolKind::Firefly];
    let names: Vec<&str> = panel_c.iter().map(|k| k.name()).collect();
    let header: Vec<&str> = ["p", "xi"].into_iter().chain(names).collect();
    let rows = surface(&panel_c, &s5000, a);
    timer.add_points(rows.len());
    let pc = write_csv("fig6c_update.csv", &header, rows);

    // Panel (d): Dragon vs Write-Through winner map (the paper's fourth
    // WD panel compares Dragon against Write-Through).
    let points = grid2(&linspace(0.0, 1.0, STEPS), &linspace(0.0, 1.0, STEPS));
    let rows = par_map(&points, |_, &(p, frac)| {
        let xi = frac * (1.0 - p) / a as f64;
        let d = acc_wd(ProtocolKind::Dragon, &s5000, p, xi, a);
        let w = acc_wd(ProtocolKind::WriteThrough, &s5000, p, xi, a);
        let winner = if (d - w).abs() < 1e-12 {
            "tie"
        } else if d < w {
            "Dragon"
        } else {
            "Write-Through"
        };
        vec![
            format!("{p:.4}"),
            format!("{xi:.6}"),
            format!("{d:.4}"),
            format!("{w:.4}"),
            winner.to_string(),
        ]
    });
    timer.add_points(rows.len());
    let pd = write_csv(
        "fig6d_dragon_vs_write_through.csv",
        &["p", "xi", "Dragon", "Write-Through", "winner"],
        rows,
    );

    println!("Figure 6 surfaces regenerated (write disturbance, N=50, a=10, P=30):");
    for p in [pa, pb, pc, pd] {
        println!("  {}", p.display());
    }

    // Shape checks: at p=0 and ξ=0 everything is free; update protocols
    // scale with the *total* write rate.
    for kind in ProtocolKind::ALL {
        assert!(acc_wd(kind, &s5000, 0.0, 0.0, a).abs() < 1e-9, "{kind:?}");
    }
    let d1 = acc_wd(ProtocolKind::Dragon, &s5000, 0.1, 0.01, a);
    let d2 = acc_wd(ProtocolKind::Dragon, &s5000, 0.2, 0.0, a);
    assert!(
        (d1 - d2).abs() < 1e-9,
        "Dragon depends only on total write prob"
    );
    println!("shape checks passed.");
    timer.finish();
}
