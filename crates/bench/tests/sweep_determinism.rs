//! The sweep engine's load-bearing guarantee, **determinism**: a
//! parallel sweep emits rows byte-identical to the serial sweep, for any
//! worker count, so `results/` CSVs never depend on how many CPUs the
//! host has or how the workers were scheduled.

use repmem_analytic::analyze;
use repmem_analytic::closed::closed_rd;
use repmem_bench::{grid2, linspace, par_map_with};
use repmem_core::{ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;

/// One CSV row of a Figure-5-style closed-form surface.
fn fig5_row(sys: &SystemParams, a: usize, p: f64, frac: f64) -> Vec<String> {
    let sigma = frac * (1.0 - p) / a as f64;
    let mut row = vec![format!("{p:.4}"), format!("{sigma:.6}")];
    for k in ProtocolKind::ALL {
        row.push(format!("{:.4}", closed_rd(k, sys, p, sigma, a)));
    }
    row
}

#[test]
fn parallel_rows_are_byte_identical_to_serial() {
    let sys = SystemParams::figure5();
    let a = 10usize;
    let points = grid2(&linspace(0.0, 1.0, 17), &linspace(0.0, 1.0, 17));
    let serial: Vec<Vec<String>> = points
        .iter()
        .map(|&(p, frac)| fig5_row(&sys, a, p, frac))
        .collect();
    for workers in [1, 2, 3, 4, 8] {
        let parallel = par_map_with(&points, |_, &(p, frac)| fig5_row(&sys, a, p, frac), workers);
        assert_eq!(parallel, serial, "row mismatch with {workers} workers");
        // Byte-level: the joined CSV bodies must match exactly.
        let join = |rows: &[Vec<String>]| {
            rows.iter()
                .map(|r| r.join(","))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(join(&parallel).as_bytes(), join(&serial).as_bytes());
    }
}

#[test]
fn engine_sweep_is_bit_identical_to_serial() {
    // The chain engine, the expensive case the pool exists for: every
    // worker count must reproduce the serial accs to the last bit.
    let sys = SystemParams::new(4, 100, 30);
    let a = 2usize;
    let points = grid2(&[0.1, 0.3, 0.5], &[0.02, 0.05]);
    for kind in [ProtocolKind::WriteOnce, ProtocolKind::Berkeley] {
        let acc = |_: usize, &(p, sigma): &(f64, f64)| {
            let sc = Scenario::read_disturbance(p, sigma, a).unwrap();
            analyze(protocol(kind), &sys, &sc).unwrap().acc.to_bits()
        };
        let serial: Vec<u64> = points.iter().enumerate().map(|(i, t)| acc(i, t)).collect();
        for workers in [1, 2, 4] {
            let parallel = par_map_with(&points, acc, workers);
            assert_eq!(parallel, serial, "{kind:?} with {workers} workers");
        }
    }
}

#[test]
fn uneven_work_does_not_reorder_results() {
    // Grid points with wildly different costs (the load-balancing case):
    // order must still be input order.
    let items: Vec<u64> = (0..64).collect();
    let out = par_map_with(
        &items,
        |i, &x| {
            // Make early items slow so late items finish first.
            if x < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            (i as u64) * 1000 + x
        },
        8,
    );
    let expect: Vec<u64> = (0..64).map(|x| x * 1000 + x).collect();
    assert_eq!(out, expect);
}
