//! Transient (burn-in) analysis.
//!
//! The paper's simulation discards the first 500 operations "to eliminate
//! the influence of the transient period" (§5.2). The chain model makes
//! that choice analyzable: starting from the deterministic initial
//! configuration (all client copies INVALID, ownership at home), iterate
//! the one-step distribution and watch the *expected per-operation cost*
//! converge to the stationary `acc`. [`burn_in`] returns the number of
//! operations after which the expected cost stays within a relative
//! tolerance of `acc` — for the paper's Table 7 configuration this is far
//! below 500, confirming the warm-up choice was conservative.

use crate::chain::{build, AnalyzeError, ChainModel};
use repmem_core::{CoherenceProtocol, Scenario, SystemParams};

/// The convergence profile of the expected per-operation cost.
#[derive(Debug, Clone)]
pub struct TransientProfile {
    /// Expected cost of operation `t+1` given the initial state, for
    /// `t = 0..len`.
    pub expected_cost: Vec<f64>,
    /// The stationary average cost the profile converges to.
    pub acc: f64,
    /// First operation index after which the expected cost stays within
    /// the requested tolerance of `acc` (`None` if not reached within the
    /// horizon).
    pub settled_after: Option<usize>,
}

/// Iterate the chain from its initial state for up to `horizon` steps.
pub fn profile(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    scenario: &Scenario,
    rel_tol: f64,
    horizon: usize,
) -> Result<TransientProfile, AnalyzeError> {
    let model = build(protocol, sys, scenario)?;
    let acc = model.solve()?.acc;
    let profile = iterate(&model, horizon);
    let tol = rel_tol * acc.abs().max(1e-9);
    // Find the last index that violates the band; settled after that.
    let mut settled_after = None;
    let last_violation = profile.iter().rposition(|e| (e - acc).abs() > tol);
    match last_violation {
        None => settled_after = Some(0),
        Some(i) if i + 1 < profile.len() => settled_after = Some(i + 1),
        Some(_) => {}
    }
    Ok(TransientProfile {
        expected_cost: profile,
        acc,
        settled_after,
    })
}

/// Convenience: the settling operation count, or `horizon` if the band is
/// never reached.
pub fn burn_in(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    scenario: &Scenario,
    rel_tol: f64,
    horizon: usize,
) -> Result<usize, AnalyzeError> {
    Ok(profile(protocol, sys, scenario, rel_tol, horizon)?
        .settled_after
        .unwrap_or(horizon))
}

fn iterate(model: &ChainModel, horizon: usize) -> Vec<f64> {
    let n = model.n_states();
    let mut x = vec![0.0; n];
    x[model.initial] = 1.0;
    let mut y = vec![0.0; n];
    let mut out = Vec::with_capacity(horizon);
    for _ in 0..horizon {
        let e: f64 = x.iter().zip(&model.expected_cost).map(|(p, c)| p * c).sum();
        out.push(e);
        model.matrix.left_mul_into(&x, &mut y);
        std::mem::swap(&mut x, &mut y);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::ProtocolKind;
    use repmem_protocols::protocol;

    #[test]
    fn paper_warmup_of_500_ops_is_conservative() {
        // Table 7 configuration: every protocol settles to within 1 % of
        // its stationary cost well before the paper's 500 discarded ops.
        let sys = SystemParams::table7();
        let scenario = Scenario::read_disturbance(0.4, 0.2, 2).unwrap();
        for kind in ProtocolKind::ALL {
            let b = burn_in(protocol(kind), &sys, &scenario, 0.01, 500).unwrap();
            assert!(b < 500, "{kind:?}: burn-in {b} not below the paper's 500");
        }
    }

    #[test]
    fn profile_converges_to_stationary_acc() {
        let sys = SystemParams::new(5, 80, 20);
        let scenario = Scenario::read_disturbance(0.3, 0.06, 3).unwrap();
        let p = profile(
            protocol(ProtocolKind::Synapse),
            &sys,
            &scenario,
            0.001,
            2000,
        )
        .unwrap();
        let last = *p.expected_cost.last().unwrap();
        assert!(
            (last - p.acc).abs() < 1e-3 * p.acc,
            "expected cost {last} did not converge to acc {}",
            p.acc
        );
        assert!(p.settled_after.is_some());
    }

    #[test]
    fn first_operation_reflects_the_cold_start() {
        // From the all-INVALID start, a Write-Through client's first
        // operation is either a read miss or a write — always remote, so
        // the first expected cost exceeds the stationary one.
        let sys = SystemParams::new(5, 200, 10);
        let scenario = Scenario::read_disturbance(0.1, 0.02, 2).unwrap();
        let p = profile(
            protocol(ProtocolKind::WriteThrough),
            &sys,
            &scenario,
            0.01,
            200,
        )
        .unwrap();
        assert!(
            p.expected_cost[0] > p.acc,
            "cold start {} vs acc {}",
            p.expected_cost[0],
            p.acc
        );
    }

    #[test]
    fn slow_disturbance_needs_longer_burn_in() {
        // Rarer disturbing reads mix the chain more slowly.
        let sys = SystemParams::new(4, 50, 10);
        let fast = burn_in(
            protocol(ProtocolKind::Berkeley),
            &sys,
            &Scenario::read_disturbance(0.3, 0.1, 2).unwrap(),
            0.01,
            5000,
        )
        .unwrap();
        let slow = burn_in(
            protocol(ProtocolKind::Berkeley),
            &sys,
            &Scenario::read_disturbance(0.3, 0.002, 2).unwrap(),
            0.01,
            5000,
        )
        .unwrap();
        assert!(slow > fast, "slow {slow} vs fast {fast}");
    }
}
