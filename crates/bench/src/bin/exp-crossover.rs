//! E10 — the §5.1 comparison analysis: ideal-workload limits, dominance
//! relations, crossover lines and the minimum-cost region map.

use repmem_analytic::closed::{closed_rd, ideal};
use repmem_analytic::crossover::{
    crossover_p, quorum_break_even_kill_rate, quorum_premium, wt_vs_wtv_line, RegionMap,
};
use repmem_bench::{grid2, linspace, par_map, render_table, write_csv, write_text, SweepTimer};
use repmem_core::{ProtocolKind, SystemParams};

fn main() {
    let mut timer = SweepTimer::begin("exp-crossover");
    let sys = SystemParams::figure5();
    let a = 10usize;

    // 1. Ideal-workload limits (σ = 0), §5.1 bullets.
    println!(
        "Ideal-workload (σ=0) costs, N={}, S={}, P={}:",
        sys.n_clients, sys.s, sys.p
    );
    let header: Vec<String> = ["protocol", "acc_ideal(p=0.3)", "formula"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let formulas = [
        "p((1-p)(S+2)+P+N)",
        "p(P+N+2)",
        "0",
        "0",
        "0",
        "0",
        "pN(P+1)",
        "p(N(P+1)+1)",
    ];
    let rows: Vec<Vec<String>> = ProtocolKind::ALL
        .iter()
        .zip(formulas)
        .map(|(&k, f)| {
            vec![
                k.name().to_string(),
                format!("{:.2}", ideal(k, &sys, 0.3)),
                f.to_string(),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));

    // 2. WT / WT-V crossover line: p* = (1-aσ)·S/(S+2).
    println!("Write-Through vs Write-Through-V crossover (paper line p = -aσ·S/(S+2) + S/(S+2)):");
    let mut line_rows = Vec::new();
    for &sigma in &[0.0, 0.01, 0.02, 0.04] {
        let predicted = wt_vs_wtv_line(&sys, sigma, a);
        let found = crossover_p(
            ProtocolKind::WriteThrough,
            ProtocolKind::WriteThroughV,
            &sys,
            sigma,
            a,
            1e-6,
            (1.0 - a as f64 * sigma - 1e-6).max(1e-5),
        );
        line_rows.push(vec![
            format!("{sigma}"),
            format!("{predicted:.6}"),
            found
                .map(|f| format!("{f:.6}"))
                .unwrap_or_else(|| "none".into()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "sigma".to_string(),
                "printed line".to_string(),
                "bisection".to_string()
            ],
            &line_rows
        )
    );

    // 3. Dragon / Berkeley crossover: exists only when N·P < S+2.
    println!(
        "Dragon vs Berkeley (a=1): crossover p* per σ (exists since NP={} < S+2={}):",
        sys.n_clients as u64 * sys.p,
        sys.s + 2
    );
    let mut db_rows = Vec::new();
    for &sigma in &[0.005, 0.01, 0.02, 0.04] {
        let found = crossover_p(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            sigma,
            1,
            1e-5,
            0.9,
        );
        // Our closed forms give p* = σ(N+S+2-N(P+1))/(N(P+1)).
        let ours = sigma
            * (sys.n_clients as f64 + sys.s as f64 + 2.0
                - sys.n_clients as f64 * (sys.p as f64 + 1.0))
            / (sys.n_clients as f64 * (sys.p as f64 + 1.0));
        db_rows.push(vec![
            format!("{sigma}"),
            format!("{ours:.6}"),
            found
                .map(|f| format!("{f:.6}"))
                .unwrap_or_else(|| "none".into()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "sigma".to_string(),
                "derived line".to_string(),
                "bisection".to_string()
            ],
            &db_rows
        )
    );

    // 4. Minimum-cost region map over (σ, p).
    let map = RegionMap::compute(&sys, a, 21, 21);
    timer.add_points(21 * 21);
    let mut art = String::new();
    art.push_str("Minimum-cost protocol over the (sigma, p) plane (read disturbance,\n");
    art.push_str("N=50, a=10, P=30, S=5000). Rows: p bottom-up; columns: sigma.\n\n");
    let glyph = |k: ProtocolKind| match k {
        ProtocolKind::WriteThrough => 'T',
        ProtocolKind::WriteThroughV => 'V',
        ProtocolKind::WriteOnce => 'O',
        ProtocolKind::Synapse => 'S',
        ProtocolKind::Illinois => 'I',
        ProtocolKind::Berkeley => 'B',
        ProtocolKind::Dragon => 'D',
        ProtocolKind::Firefly => 'F',
        ProtocolKind::Quorum => 'Q',
    };
    for (ri, row) in map.winners.iter().enumerate().rev() {
        art.push_str(&format!("p={:4.2} | ", map.ps[ri]));
        for w in row {
            art.push(glyph(*w));
        }
        art.push('\n');
    }
    art.push_str("\nLegend: ");
    for k in ProtocolKind::ALL {
        art.push_str(&format!("{}={}  ", glyph(k), k.name()));
    }
    art.push('\n');
    art.push_str("\nCell tally:\n");
    for (k, c) in map.tally() {
        if c > 0 {
            art.push_str(&format!("  {:<16} {c}\n", k.name()));
        }
    }
    println!("{art}");
    let path = write_text("crossover_region_map.txt", &art);

    // 5. Per-pair winner CSV for downstream plotting, fanned out over
    // the sweep pool in grid order.
    let points = grid2(&linspace(0.0, 1.0, 41), &linspace(0.0, 1.0, 41));
    let csv = par_map(&points, |_, &(p, frac)| {
        let sigma = frac * (1.0 - p) / a as f64;
        let mut best = ProtocolKind::WriteThrough;
        let mut best_cost = f64::INFINITY;
        for k in ProtocolKind::ALL {
            let c = closed_rd(k, &sys, p, sigma, a);
            if c < best_cost {
                best_cost = c;
                best = k;
            }
        }
        vec![
            format!("{p:.4}"),
            format!("{sigma:.6}"),
            best.name().to_string(),
            format!("{best_cost:.4}"),
        ]
    });
    timer.add_points(points.len());
    let cpath = write_csv(
        "crossover_winners.csv",
        &["p", "sigma", "winner", "acc"],
        csv,
    );
    println!("written: {} and {}", path.display(), cpath.display());

    // 6. The sequencer-free Quorum protocol: availability premium per
    // operation over each sequencer protocol, and the break-even point.
    // A node loss costs the sequencer family a recovery penalty
    // (re-election plus re-fetching the S-sized copy, priced at S+N+2)
    // while a minority loss costs Quorum nothing; the effective costs
    // cross at kappa* = premium/penalty kills per operation. At the
    // Figure-5 scale the premium is dominated by the 2S-per-peer copy
    // traffic of every read's write-back phase, so kappa* lands far
    // above any physical kill rate — the last column inverts the
    // question and reports the recovery cost a kill would have to
    // carry, at one kill per 10^4 operations, for the quorum rounds to
    // be cheaper outright.
    println!("Quorum (SC-ABD) availability premium and break-even analysis");
    let penalty = (sys.s + sys.n_clients as u64 + 2) as f64;
    let kill_rate = 1e-4;
    println!("(p=0.3, sigma=0.01, a={a}, recovery penalty S+N+2 = {penalty}, reference kill rate {kill_rate}):");
    let mut q_rows = Vec::new();
    for k in ProtocolKind::ALL {
        let premium = quorum_premium(k, &sys, 0.3, 0.01, a);
        let kappa = quorum_break_even_kill_rate(k, &sys, 0.3, 0.01, a, penalty);
        let kappa_cell = match kappa {
            None => "quorum already cheaper".to_string(),
            Some(v) if v > 1.0 => format!("{v:.2} (>1/op: never)"),
            Some(v) => format!("{v:.6} (1 per {:.0} ops)", 1.0 / v),
        };
        q_rows.push(vec![
            k.name().to_string(),
            format!("{premium:+.2}"),
            kappa_cell,
            format!("{:.3e}", premium.max(0.0) / kill_rate),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "vs protocol".to_string(),
                "premium/op".to_string(),
                "kappa* at S+N+2".to_string(),
                "penalty* at 1e-4".to_string(),
            ],
            &q_rows
        )
    );
    timer.finish();
}
