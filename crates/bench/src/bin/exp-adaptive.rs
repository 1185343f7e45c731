//! E11 — the §6 extension: a self-tuning protocol selector driven by the
//! analytic model, evaluated on a phase-shifting workload both
//! analytically (predicted costs) and in the discrete-event simulator
//! (measured costs with the estimator in the loop).

use repmem_adaptive::{plan, Classifier, Phase, WorkloadEstimator};
use repmem_bench::{grid2, par_map, render_table, write_csv, SweepTimer};
use repmem_core::{ProtocolKind, Scenario, SystemParams};
use repmem_sim::{simulate, IssueMode, SimConfig};
use repmem_workload::ScenarioSampler;

fn main() {
    let mut timer = SweepTimer::begin("exp-adaptive");
    let sys = SystemParams::new(10, 200, 30);
    let phases = vec![
        Phase {
            scenario: Scenario::ideal(0.6).unwrap(),
            ops: 20_000,
        },
        Phase {
            scenario: Scenario::read_disturbance(0.02, 0.11, 8).unwrap(),
            ops: 20_000,
        },
        Phase {
            scenario: Scenario::multiple_centers(0.5, 4).unwrap(),
            ops: 20_000,
        },
        Phase {
            scenario: Scenario::write_disturbance(0.1, 0.08, 5).unwrap(),
            ops: 20_000,
        },
    ];

    // 1. Analytic plan.
    let plan = plan(&sys, &phases);
    println!(
        "Adaptive protocol selection over {} phases (N={}, S={}, P={}):\n",
        phases.len(),
        sys.n_clients,
        sys.s,
        sys.p
    );
    let header: Vec<String> = ["phase", "scenario", "chosen protocol", "acc"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let labels = [
        "ideal p=0.6",
        "RD p=0.02 σ=0.11 a=8",
        "MC p=0.5 β=4",
        "WD p=0.1 ξ=0.08 a=5",
    ];
    let rows: Vec<Vec<String>> = plan
        .choices
        .iter()
        .enumerate()
        .map(|(i, (k, c))| {
            vec![
                format!("{}", i + 1),
                labels[i].to_string(),
                k.name().to_string(),
                format!("{c:.3}"),
            ]
        })
        .collect();
    println!("{}", render_table(&header, &rows));
    let (bk, bc) = plan.best_static();
    println!(
        "adaptive total {:.0} (incl. {} switches) vs best static {} {:.0}  →  {:.1} % of static cost\n",
        plan.adaptive_cost,
        plan.switches,
        bk.name(),
        bc,
        100.0 * plan.improvement()
    );

    // 2. Online estimation: feed sampled events to the estimator and see
    //    whether it picks the same protocols the oracle plan picked.
    let classifier = Classifier { sys };
    let mut est_rows = Vec::new();
    let mut agree = 0usize;
    for (i, phase) in phases.iter().enumerate() {
        let mut est = WorkloadEstimator::new(1500);
        let mut sampler = ScenarioSampler::new(&phase.scenario, 1, 42 + i as u64);
        for _ in 0..5000 {
            est.observe_event(&sampler.next_event());
        }
        let estimated = est.scenario().expect("estimate");
        let (online_choice, online_cost) = classifier.best(&estimated);
        let planned = plan.choices[i].0;
        if online_choice == planned {
            agree += 1;
        }
        est_rows.push(vec![
            format!("{}", i + 1),
            planned.name().to_string(),
            online_choice.name().to_string(),
            format!("{online_cost:.3}"),
        ]);
    }
    println!("Online estimator vs oracle plan:");
    println!(
        "{}",
        render_table(
            &[
                "phase".to_string(),
                "oracle choice".to_string(),
                "online choice".to_string(),
                "online acc".to_string()
            ],
            &est_rows
        )
    );
    assert_eq!(
        agree,
        phases.len(),
        "online estimator disagreed with the oracle plan"
    );

    // 3. Simulated validation: measured cost of the adaptive choice vs
    //    the best static protocol, per phase. Every (phase, protocol)
    //    simulation is independent, so the whole matrix fans out over
    //    the sweep pool; the adaptive choice reuses its protocol's cell.
    let phase_idx: Vec<usize> = (0..phases.len()).collect();
    let sim_cells = grid2(&phase_idx, &ProtocolKind::ALL);
    let sim_accs = par_map(&sim_cells, |_, &(i, kind)| {
        simulate(
            &SimConfig {
                sys,
                protocol: kind,
                mode: IssueMode::Serialized,
                warmup_ops: 500,
                measured_ops: 3000,
                seed: 1000 + i as u64,
            },
            &phases[i].scenario,
        )
        .acc()
    });
    timer.add_points(sim_cells.len());
    let acc_of = |i: usize, kind: ProtocolKind| {
        let j = ProtocolKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("known protocol");
        sim_accs[i * ProtocolKind::ALL.len() + j]
    };
    let mut csv = Vec::new();
    let mut sim_rows = Vec::new();
    let mut adaptive_total = 0.0;
    let mut static_totals = vec![0.0f64; ProtocolKind::ALL.len()];
    for (i, phase) in phases.iter().enumerate() {
        let chosen = plan.choices[i].0;
        let acc_chosen = acc_of(i, chosen);
        adaptive_total += acc_chosen * phase.ops as f64;
        for (j, k) in ProtocolKind::ALL.into_iter().enumerate() {
            static_totals[j] += acc_of(i, k) * phase.ops as f64;
        }
        sim_rows.push(vec![
            format!("{}", i + 1),
            chosen.name().to_string(),
            format!("{acc_chosen:.3}"),
        ]);
        csv.push(vec![
            labels[i].to_string(),
            chosen.name().to_string(),
            acc_chosen.to_string(),
        ]);
    }
    println!("Simulated (serialized) cost of the adaptive choice per phase:");
    println!(
        "{}",
        render_table(
            &[
                "phase".to_string(),
                "protocol".to_string(),
                "measured acc".to_string()
            ],
            &sim_rows
        )
    );
    let best_static_sim = static_totals.iter().cloned().fold(f64::INFINITY, f64::min);
    println!(
        "simulated totals: adaptive {:.0} vs best static {:.0} ({:.1} %)",
        adaptive_total,
        best_static_sim,
        100.0 * adaptive_total / best_static_sim
    );
    assert!(
        adaptive_total <= best_static_sim * 1.02,
        "adaptive schedule should not lose to static choices"
    );

    let path = write_csv(
        "adaptive_phases.csv",
        &["phase", "protocol", "measured_acc"],
        csv,
    );
    println!("written: {}", path.display());
    timer.finish();
}
