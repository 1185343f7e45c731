//! End-to-end reproduction of the checkable claims of the paper's §5,
//! exercised through the public facade: closed forms, chain engine and
//! simulator must all tell the same story.

use repmem::prelude::*;
use repmem_analytic::closed::{closed_rd, ideal};
use repmem_analytic::crossover::{cheaper_rd, crossover_p, wt_vs_wtv_line};

/// §5.1: "For p=0 all coherence protocols incur acc=0."
#[test]
fn all_protocols_free_without_writes() {
    let sys = SystemParams::figure5();
    for kind in ProtocolKind::ALL {
        assert_eq!(closed_rd(kind, &sys, 0.0, 0.05, 10), 0.0, "{kind:?} closed");
        let scenario = Scenario::read_disturbance(0.0, 0.05, 10).unwrap();
        let engine = analyze(protocol(kind), &sys, &scenario).unwrap();
        assert!(engine.acc.abs() < 1e-9, "{kind:?} engine: {}", engine.acc);
    }
}

/// §5.1: ideal-workload limits for every protocol.
#[test]
fn ideal_workload_limits() {
    let sys = SystemParams::new(12, 300, 25);
    let (n, s, pc) = (sys.n_clients as f64, sys.s as f64, sys.p as f64);
    for p in [0.15, 0.5, 0.85] {
        let scenario = Scenario::ideal(p).unwrap();
        for kind in ProtocolKind::ALL {
            let engine = analyze(protocol(kind), &sys, &scenario).unwrap().acc;
            let expect = ideal(kind, &sys, p);
            assert!(
                (engine - expect).abs() < 1e-8,
                "{kind:?} at p={p}: engine {engine} vs §5.1 limit {expect}"
            );
        }
        // The §5.1 formulas themselves.
        assert!(
            (ideal(ProtocolKind::WriteThrough, &sys, p) - p * ((1.0 - p) * (s + 2.0) + pc + n))
                .abs()
                < 1e-12
        );
        assert!((ideal(ProtocolKind::WriteThroughV, &sys, p) - p * (pc + n + 2.0)).abs() < 1e-12);
        assert!((ideal(ProtocolKind::Dragon, &sys, p) - p * n * (pc + 1.0)).abs() < 1e-12);
        assert!((ideal(ProtocolKind::Firefly, &sys, p) - p * (n * (pc + 1.0) + 1.0)).abs() < 1e-12);
    }
}

/// §5.1: Berkeley is the cheapest of the invalidation-family protocols
/// under read disturbance, and Illinois never loses to Synapse.
#[test]
fn dominance_relations() {
    let sys = SystemParams::figure5();
    let a = 10;
    for pi in 1..=9 {
        for si in 1..=9 {
            let p = pi as f64 / 10.0;
            let sigma = si as f64 / 10.0 * (1.0 - p) / a as f64;
            let b = closed_rd(ProtocolKind::Berkeley, &sys, p, sigma, a);
            for other in [
                ProtocolKind::WriteThrough,
                ProtocolKind::WriteThroughV,
                ProtocolKind::WriteOnce,
                ProtocolKind::Illinois,
                ProtocolKind::Synapse,
            ] {
                assert!(b <= closed_rd(other, &sys, p, sigma, a) + 1e-9);
            }
            assert!(
                closed_rd(ProtocolKind::Illinois, &sys, p, sigma, a)
                    <= closed_rd(ProtocolKind::Synapse, &sys, p, sigma, a) + 1e-9
            );
        }
    }
}

/// §5.1: the Write-Through / Write-Through-V crossover lies exactly on
/// the printed line p = −aσ·S/(S+2) + S/(S+2).
#[test]
fn wt_wtv_crossover_line() {
    let sys = SystemParams::new(30, 1000, 40);
    for (sigma, a) in [(0.01, 3), (0.03, 5), (0.0, 1)] {
        let line = wt_vs_wtv_line(&sys, sigma, a);
        let found = crossover_p(
            ProtocolKind::WriteThrough,
            ProtocolKind::WriteThroughV,
            &sys,
            sigma,
            a,
            1e-6,
            1.0 - a as f64 * sigma - 1e-6,
        )
        .expect("crossover exists");
        assert!(
            (found - line).abs() < 1e-6,
            "σ={sigma}, a={a}: {found} vs line {line}"
        );
    }
}

/// §5.1: Berkeley always beats Dragon when N·P > S+2; otherwise Dragon
/// wins a low-p region bounded by a line through the origin.
#[test]
fn dragon_berkeley_structure() {
    // N·P > S+2: Berkeley dominates everywhere.
    let sys = SystemParams::new(50, 100, 30);
    for pi in 1..=9 {
        let p = pi as f64 / 10.0;
        let sigma = 0.4 * (1.0 - p);
        assert_eq!(
            cheaper_rd(
                ProtocolKind::Berkeley,
                ProtocolKind::Dragon,
                &sys,
                p,
                sigma,
                1
            ),
            Some(ProtocolKind::Berkeley)
        );
    }
    // N·P < S+2: Dragon wins at low p.
    let sys = SystemParams::figure5();
    assert_eq!(
        cheaper_rd(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            0.005,
            0.01,
            1
        ),
        Some(ProtocolKind::Dragon)
    );
    assert_eq!(
        cheaper_rd(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            0.5,
            0.01,
            1
        ),
        Some(ProtocolKind::Berkeley)
    );
}

/// Table 7's headline, end to end: analysis vs concurrent simulation with
/// the paper's exact configuration stays within ±8 % on non-trivial
/// cells.
#[test]
fn table7_bound_holds() {
    let sys = SystemParams::table7();
    for kind in [ProtocolKind::WriteOnce, ProtocolKind::WriteThroughV] {
        for (p, sigma) in [(0.2, 0.2), (0.4, 0.2), (0.6, 0.2), (0.4, 0.0), (0.8, 0.1)] {
            let scenario = Scenario::read_disturbance(p, sigma, 2).unwrap();
            let acc_a = analyze(protocol(kind), &sys, &scenario).unwrap().acc;
            if acc_a < 0.5 {
                continue;
            }
            let acc_s = simulate(
                &SimConfig {
                    sys,
                    protocol: kind,
                    mode: IssueMode::Concurrent { mean_think: 64.0 },
                    warmup_ops: 500,
                    measured_ops: 1500,
                    seed: 0xBEEF,
                },
                &scenario,
            )
            .acc();
            let disc = 100.0 * (acc_a - acc_s).abs() / acc_a;
            assert!(
                disc < 8.0,
                "{kind:?} (p={p}, σ={sigma}): discrepancy {disc:.2} %"
            );
        }
    }
}
