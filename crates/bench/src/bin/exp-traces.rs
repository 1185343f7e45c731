//! E2 — regenerate the §4.1 trace sets: for each protocol, the finite set
//! of operation traces with their communication costs, discovered by the
//! analytic chain under a workload that exercises clients *and* the
//! sequencer.
//!
//! For Write-Through the paper enumerates six traces:
//! `cc1 = 0`, `cc2 = S+2`, `cc3 = cc4 = P+N`, `cc5 = 0`, `cc6 = N`.

use repmem_analytic::chain::analyze;
use repmem_bench::{render_table, write_csv};
use repmem_core::{ActorSpec, NodeId, ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;

fn main() {
    let sys = SystemParams::new(3, 100, 30);
    // Clients 0 (reads+writes) and 1 (reads), plus the sequencer
    // (reads+writes) so the seq-initiated traces tr5/tr6 appear too.
    let scenario = Scenario::new(vec![
        ActorSpec {
            node: NodeId(0),
            read_prob: 0.35,
            write_prob: 0.25,
        },
        ActorSpec {
            node: NodeId(1),
            read_prob: 0.20,
            write_prob: 0.0,
        },
        ActorSpec {
            node: sys.home(),
            read_prob: 0.10,
            write_prob: 0.10,
        },
    ])
    .expect("valid scenario");

    println!(
        "Trace sets per protocol (N={}, S={}, P={})",
        sys.n_clients, sys.s, sys.p
    );
    println!("scenario: client0 r/w, client1 r, sequencer r/w\n");

    let mut csv_rows = Vec::new();
    for kind in ProtocolKind::ALL {
        let r = analyze(protocol(kind), &sys, &scenario).expect("chain analysis");
        let header: Vec<String> = ["initiator", "op", "cc_h", "pi_h"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut rows = Vec::new();
        for (sig, prob) in &r.trace_probs {
            if *prob < 1e-12 {
                continue;
            }
            rows.push(vec![
                sig.initiator.to_string(),
                sig.op.to_string(),
                sig.cost.to_string(),
                format!("{prob:.6}"),
            ]);
            csv_rows.push(vec![
                kind.name().to_string(),
                sig.initiator.to_string(),
                sig.op.to_string(),
                sig.cost.to_string(),
                format!("{prob:.9}"),
            ]);
        }
        println!(
            "{} — {} traces, acc = {:.4}",
            kind.name(),
            rows.len(),
            r.acc
        );
        println!("{}", render_table(&header, &rows));
    }
    let path = write_csv(
        "trace_sets.csv",
        &["protocol", "initiator", "op", "cost", "probability"],
        csv_rows,
    );
    println!("written: {}", path.display());

    // Golden check: the Write-Through costs of paper §4.1.
    let wt = analyze(protocol(ProtocolKind::WriteThrough), &sys, &scenario)
        .expect("write-through analysis");
    let costs: std::collections::BTreeSet<u64> =
        wt.trace_probs.keys().map(|sig| sig.cost).collect();
    let n = sys.n_clients as u64;
    for expect in [0, sys.s + 2, sys.p + n, n] {
        assert!(
            costs.contains(&expect),
            "missing Write-Through trace cost {expect}"
        );
    }
    println!(
        "Write-Through trace costs {{0, S+2, P+N, N}} = {{0, {}, {}, {}}} all present — matches paper §4.1.",
        sys.s + 2,
        sys.p + n,
        n
    );
}
