//! E3–E5 — the paper's Write-Through closed forms, equations (3), (4)
//! and (5), evaluated against the chain engine over parameter grids.

use repmem_analytic::chain::analyze;
use repmem_analytic::closed;
use repmem_bench::{linspace, render_table, write_csv};
use repmem_core::{ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;

fn engine(sys: &SystemParams, scenario: &Scenario) -> f64 {
    analyze(protocol(ProtocolKind::WriteThrough), sys, scenario)
        .expect("chain analysis")
        .acc
}

fn main() {
    let sys = SystemParams::new(10, 100, 30);
    let a = 4usize;
    let header: Vec<String> = ["deviation", "p", "x", "closed form", "engine", "|diff|"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut max_diff = 0.0f64;

    for &p in &linspace(0.05, 0.65, 4) {
        // Eq. (3): read disturbance, x = σ.
        for &sigma in &linspace(0.0, 0.08, 5) {
            let c = closed::wt_rd(&sys, p, sigma, a);
            let e = engine(&sys, &Scenario::read_disturbance(p, sigma, a).unwrap());
            max_diff = max_diff.max((c - e).abs());
            rows.push(vec![
                "RD eq(3)".into(),
                format!("{p:.2}"),
                format!("{sigma:.3}"),
                format!("{c:.6}"),
                format!("{e:.6}"),
                format!("{:.2e}", (c - e).abs()),
            ]);
            csv.push(vec![
                "rd".into(),
                p.to_string(),
                sigma.to_string(),
                c.to_string(),
                e.to_string(),
            ]);
        }
        // Eq. (4): write disturbance, x = ξ.
        for &xi in &linspace(0.0, 0.08, 5) {
            let c = closed::wt_wd(&sys, p, xi, a);
            let e = engine(&sys, &Scenario::write_disturbance(p, xi, a).unwrap());
            max_diff = max_diff.max((c - e).abs());
            rows.push(vec![
                "WD eq(4)".into(),
                format!("{p:.2}"),
                format!("{xi:.3}"),
                format!("{c:.6}"),
                format!("{e:.6}"),
                format!("{:.2e}", (c - e).abs()),
            ]);
            csv.push(vec![
                "wd".into(),
                p.to_string(),
                xi.to_string(),
                c.to_string(),
                e.to_string(),
            ]);
        }
        // Eq. (5): multiple activity centers, x = β.
        for beta in [2usize, 3, 5] {
            let c = closed::wt_mc(&sys, p, beta);
            let e = engine(&sys, &Scenario::multiple_centers(p, beta).unwrap());
            max_diff = max_diff.max((c - e).abs());
            rows.push(vec![
                "MC eq(5)".into(),
                format!("{p:.2}"),
                format!("{beta}"),
                format!("{c:.6}"),
                format!("{e:.6}"),
                format!("{:.2e}", (c - e).abs()),
            ]);
            csv.push(vec![
                "mc".into(),
                p.to_string(),
                beta.to_string(),
                c.to_string(),
                e.to_string(),
            ]);
        }
    }

    println!(
        "Write-Through closed forms vs chain engine (N={}, S={}, P={}, a={a})\n",
        sys.n_clients, sys.s, sys.p
    );
    println!("{}", render_table(&header, &rows));
    println!("max |closed - engine| = {max_diff:.3e}");
    assert!(max_diff < 1e-8, "closed forms drifted from the engine");
    let path = write_csv(
        "wt_closed_forms.csv",
        &["deviation", "p", "x", "closed", "engine"],
        csv,
    );
    println!("written: {}", path.display());
}
