//! The workspace's central consistency property: the closed forms, the
//! Markov chain engine and the discrete-event simulator agree — for every
//! protocol, across all three workload deviations, including seeded
//! random scenarios.

use rand::{Rng, SeedableRng};
use repmem::prelude::*;
use repmem_analytic::closed::closed_rd;

fn sim_acc(kind: ProtocolKind, sys: &SystemParams, scenario: &Scenario, seed: u64) -> f64 {
    simulate(
        &SimConfig {
            sys: *sys,
            protocol: kind,
            mode: IssueMode::Serialized,
            warmup_ops: 400,
            measured_ops: 6000,
            seed,
        },
        scenario,
    )
    .acc()
}

#[test]
fn all_deviations_all_protocols() {
    let sys = SystemParams::new(6, 80, 20);
    let scenarios = [
        Scenario::ideal(0.4).unwrap(),
        Scenario::read_disturbance(0.3, 0.08, 3).unwrap(),
        Scenario::write_disturbance(0.25, 0.06, 2).unwrap(),
        Scenario::multiple_centers(0.4, 3).unwrap(),
    ];
    for scenario in &scenarios {
        for kind in ProtocolKind::EVERY {
            let engine = analyze(protocol(kind), &sys, scenario, AnalyzeOpts::default())
                .unwrap()
                .acc;
            let sim = sim_acc(kind, &sys, scenario, 31);
            if engine < 0.5 {
                assert!(sim < 1.0, "{kind:?}: engine {engine} vs sim {sim}");
            } else {
                let rel = (engine - sim).abs() / engine;
                assert!(
                    rel < 0.07,
                    "{kind:?}: engine {engine} vs sim {sim} (rel {rel:.4})"
                );
            }
        }
    }
}

#[test]
fn trace_probability_agreement_for_write_through() {
    // Paper §4.3: the analytic trace probabilities π_h match the
    // simulator's empirical frequencies, per trace class.
    let sys = SystemParams::new(4, 60, 15);
    let scenario = Scenario::read_disturbance(0.35, 0.1, 2).unwrap();
    let engine = analyze(
        protocol(ProtocolKind::WriteThrough),
        &sys,
        &scenario,
        AnalyzeOpts::default(),
    )
    .unwrap();
    let report = simulate(
        &SimConfig {
            sys,
            protocol: ProtocolKind::WriteThrough,
            mode: IssueMode::Serialized,
            warmup_ops: 500,
            measured_ops: 30_000,
            seed: 4,
        },
        &scenario,
    );
    let emp = report.trace_probs();
    for (sig, pi) in &engine.trace_probs {
        if *pi < 0.02 {
            continue;
        }
        let e = emp.get(sig).copied().unwrap_or(0.0);
        assert!(
            (e - pi).abs() < 0.015,
            "{sig}: empirical {e:.4} vs analytic {pi:.4}"
        );
    }
}

/// Deterministic replacement for the former property test: 12 seeded
/// random read-disturbance scenarios checked across all three layers.
#[test]
fn random_rd_scenarios_agree() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3_1a7e5);
    let mut checked = 0usize;
    while checked < 12 {
        let p = 0.05 + 0.55 * rng.random::<f64>();
        let sigma = 0.005 + 0.055 * rng.random::<f64>();
        let a = rng.random_range(1usize..4);
        let seed = rng.random_range(0u64..1000);
        if p + a as f64 * sigma >= 0.95 {
            continue;
        }
        checked += 1;
        let sys = SystemParams::new(5, 50, 10);
        let scenario = Scenario::read_disturbance(p, sigma, a).unwrap();
        const MEASURED_OPS: f64 = 6000.0;
        for kind in ProtocolKind::EVERY {
            let closed = closed_rd(kind, &sys, p, sigma, a);
            let result = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default()).unwrap();
            let engine = result.acc;
            assert!(
                (closed - engine).abs() < 1e-7 * (1.0 + engine),
                "{kind:?}: closed {closed} vs engine {engine}"
            );
            // Statistics-aware simulation check: the measured acc is a
            // mean of MEASURED_OPS i.i.d. trace costs whose distribution
            // the engine knows exactly, so a 5σ band is a sound bound
            // (rare expensive traces make fixed relative bands useless).
            let var: f64 = result
                .trace_probs
                .iter()
                .map(|(sig, pi)| pi * (sig.cost as f64 - engine).powi(2))
                .sum();
            let tol = 5.0 * (var / MEASURED_OPS).sqrt() + 1e-6;
            let sim = sim_acc(kind, &sys, &scenario, seed);
            assert!(
                (engine - sim).abs() < tol,
                "{kind:?}: engine {engine} vs sim {sim} (5σ tolerance {tol:.4})"
            );
        }
    }
}
