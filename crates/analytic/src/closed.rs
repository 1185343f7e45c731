//! Closed-form steady-state average communication costs.
//!
//! Write-Through under all three deviations is taken verbatim from the
//! paper (equations (3), (4), (5)). The remaining protocols' read-
//! disturbance forms reconstruct the paper's Table 6 (unreadable in the
//! available scan) by the paper's own renewal-argument methodology applied
//! to our protocol definitions; every formula here is property-tested
//! against the chain engine, so the algebra cannot drift from the
//! executable machines.
//!
//! ## Notation
//!
//! Per-trial event probabilities under **read disturbance** (§4.2):
//! activity-center write `p`, activity-center read `ρ = 1−p−aσ`, each of
//! `a` disturbing clients reads with `σ`; write `q = aσ` for the total
//! disturbance. The renewal argument: the state of a copy depends only on
//! the *most recent relevant event*, so state probabilities are ratios of
//! competing event rates (e.g. "the activity center's copy is exclusive"
//! ⟺ "the last of {write, any disturbing read} was the write" ⟹
//! probability `p/(p+q)`).

use repmem_core::{ProtocolKind, SystemParams};

/// `0` when the numerator vanishes (avoids 0/0 at workload corners).
#[inline]
fn frac(num: f64, den: f64) -> f64 {
    if num == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Paper eq. (3): Write-Through, read disturbance.
///
/// `acc = [p(1−p−aσ)/(1−aσ) + aσp/(p+σ)](S+2) + p(P+N)`
pub fn wt_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    let pi2 = frac(p * (1.0 - p - q), 1.0 - q) + frac(q * p, p + sigma);
    pi2 * (s + 2.0) + p * (pc + n)
}

/// Paper eq. (4): Write-Through, write disturbance.
///
/// `acc = (1−p−aξ)(p+aξ)(S+2) + (p+aξ)(P+N)`
pub fn wt_wd(sys: &SystemParams, p: f64, xi: f64, a: usize) -> f64 {
    let x = a as f64 * xi;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    (1.0 - p - x) * (p + x) * (s + 2.0) + (p + x) * (pc + n)
}

/// Paper eq. (5): Write-Through, multiple activity centers.
///
/// `acc = [pβ(1−p)/(1+(β−1)p)](S+2) + p(P+N)`
pub fn wt_mc(sys: &SystemParams, p: f64, beta: usize) -> f64 {
    let b = beta as f64;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    frac(p * b * (1.0 - p), 1.0 + (b - 1.0) * p) * (s + 2.0) + p * (pc + n)
}

/// Write-Through-V, read disturbance.
///
/// The writer's copy stays VALID, so only disturbing clients miss:
/// `acc = [aσp/(p+σ)](S+2) + p(P+N+2)`.
pub fn wtv_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    frac(q * p, p + sigma) * (s + 2.0) + p * (pc + n + 2.0)
}

/// Write-Through-V, write disturbance.
///
/// The activity center's copy is invalidated only by the `a` writers:
/// `acc = (1−p−aξ)·aξ·(S+2) + (p+aξ)(P+N+2)`.
pub fn wtv_wd(sys: &SystemParams, p: f64, xi: f64, a: usize) -> f64 {
    let x = a as f64 * xi;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    (1.0 - p - x) * x * (s + 2.0) + (p + x) * (pc + n + 2.0)
}

/// Write-Once, read disturbance.
///
/// Joint chain of (activity-center state, one disturbing copy):
/// `π_(R,I) = pq/(p+q)²`, `π_(D,I) = p²/(p+q)²`,
/// `π_(V,I) = p(q−σ)/((p+q)(p+σ))`, and
///
/// ```text
/// acc = p[ q/(p+q)·(P+N) + π_(R,I) ]
///     + aσ[ π_(R,I)(S+3) + π_(D,I)(2S+4) + π_(V,I)(S+2) ]
/// ```
///
/// (write-through `P+N` from VALID, one DIRTY-NOTE token from RESERVED,
/// free from DIRTY; a disturbing read pays `S+3` when it downgrades the
/// RESERVED holder, `2S+4` when it recalls the DIRTY copy, `S+2` plain).
pub fn wo_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    let pq = p + q;
    let pi_a = frac(p * q, pq * pq);
    let pi_b = frac(p * p, pq * pq);
    let pi_c = frac(p * (q - sigma), pq * (p + sigma));
    p * (frac(q, pq) * (pc + n) + pi_a)
        + a as f64 * sigma * (pi_a * (s + 3.0) + pi_b * (2.0 * s + 4.0) + pi_c * (s + 2.0))
}

/// Synapse, read disturbance.
///
/// Five-state joint chain of (activity-center state, one disturbing
/// copy) — see the module docs of `repmem_protocols::synapse` for the
/// cost inventory (`S+N+1` acquire, `2S+N+2` broadcast recall, `S+2`
/// plain miss; the recalled owner is invalidated, so the activity center
/// itself re-misses reads after a disturbance):
///
/// ```text
/// π₁ = p/(p+q)                      (D,I)
/// π₂ = π₁(q−σ)/(p+ρ+σ)              (I,I)
/// π₃ = σ(π₁+π₂)/(p+ρ)               (I,V)
/// π₄ = ρπ₂/(p+σ)                    (V,I)
/// acc = p(1−π₁)(S+N+1) + ρ(π₂+π₃)(S+2)
///     + aσ[π₁(2S+N+2) + (π₂+π₄)(S+2)]
/// ```
pub fn synapse_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let rho = 1.0 - p - q;
    let (s, n) = (sys.s as f64, sys.n_clients as f64);
    let pi1 = frac(p, p + q);
    let pi2 = frac(pi1 * (q - sigma), p + rho + sigma);
    let pi3 = frac(sigma * (pi1 + pi2), p + rho);
    let pi4 = frac(rho * pi2, p + sigma);
    p * (1.0 - pi1) * (s + n + 1.0)
        + rho * (pi2 + pi3) * (s + 2.0)
        + a as f64 * sigma * (pi1 * (2.0 * s + n + 2.0) + (pi2 + pi4) * (s + 2.0))
}

/// Illinois, read disturbance.
///
/// Like Synapse but: re-acquisition after a disturbance is a data-less
/// upgrade (`N+1`), the recall is targeted (`2S+4`), and the recalled
/// owner keeps a VALID copy, so the activity center never misses reads in
/// steady state:
///
/// ```text
/// π_(D,I) = p/(p+q),  π_(V,I) = π_(D,I)(q−σ)/(p+σ)
/// acc = p(1−π_(D,I))(N+1) + aσ[π_(D,I)(2S+4) + π_(V,I)(S+2)]
/// ```
pub fn illinois_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let (s, n) = (sys.s as f64, sys.n_clients as f64);
    let pi_di = frac(p, p + q);
    let pi_vi = frac(pi_di * (q - sigma), p + sigma);
    p * (1.0 - pi_di) * (n + 1.0) + a as f64 * sigma * (pi_di * (2.0 * s + 4.0) + pi_vi * (s + 2.0))
}

/// Berkeley, read disturbance.
///
/// The activity center becomes the sequencer (owner): its writes cost
/// one broadcast wave `N` only when a disturbing read moved it to
/// SHARED-DIRTY, and disturbing misses are served by the owner for `S+2`:
///
/// `acc = pN·q/(p+q) + aσ(S+2)·p/(p+σ)`
pub fn berkeley_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    let q = a as f64 * sigma;
    let (s, n) = (sys.s as f64, sys.n_clients as f64);
    p * n * frac(q, p + q) + a as f64 * sigma * (s + 2.0) * frac(p, p + sigma)
}

/// Dragon, any client-driven workload with total write probability `w`:
/// `acc = w·N(P+1)` (reads never miss).
pub fn dragon(sys: &SystemParams, total_write: f64) -> f64 {
    total_write * sys.n_clients as f64 * (sys.p as f64 + 1.0)
}

/// Firefly, any client-driven workload with total write probability `w`:
/// `acc = w·(N(P+1)+1)` — Dragon plus the sequencing acknowledgement.
pub fn firefly(sys: &SystemParams, total_write: f64) -> f64 {
    total_write * (sys.n_clients as f64 * (sys.p as f64 + 1.0) + 1.0)
}

/// Quorum (SC-ABD), any workload with total write probability `w`.
///
/// Every operation polls all `N = n−1` peers regardless of replica
/// state, so the cost is *state-independent*. Under serialized issue
/// every replica holds the last committed write, so the votes agree and
/// a read is the one-round read: `N(S+2)` (probe/vote). A write pays
/// `N(S+P+4)` (probe/vote, then a commit wave carrying parameters and
/// its acks):
///
/// `acc = w·N(S+P+4) + (1−w)·N(S+2)`
pub fn quorum(sys: &SystemParams, total_write: f64) -> f64 {
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    total_write * n * (s + pc + 4.0) + (1.0 - total_write) * n * (s + 2.0)
}

/// Write-Through-V, multiple activity centers:
/// `acc = [(1−p)p(β−1)/(1+(β−1)p)](S+2) + p(P+N+2)`.
pub fn wtv_mc(sys: &SystemParams, p: f64, beta: usize) -> f64 {
    let b = beta as f64;
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    frac((1.0 - p) * p * (b - 1.0), 1.0 + (b - 1.0) * p) * (s + 2.0) + p * (pc + n + 2.0)
}

/// The reconstructed Table 6: read-disturbance closed form for any of the
/// eight protocols (plus the sequencer-free Quorum extension).
pub fn closed_rd(kind: ProtocolKind, sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    match kind {
        ProtocolKind::WriteThrough => wt_rd(sys, p, sigma, a),
        ProtocolKind::WriteThroughV => wtv_rd(sys, p, sigma, a),
        ProtocolKind::WriteOnce => wo_rd(sys, p, sigma, a),
        ProtocolKind::Synapse => synapse_rd(sys, p, sigma, a),
        ProtocolKind::Illinois => illinois_rd(sys, p, sigma, a),
        ProtocolKind::Berkeley => berkeley_rd(sys, p, sigma, a),
        ProtocolKind::Dragon => dragon(sys, p),
        ProtocolKind::Firefly => firefly(sys, p),
        ProtocolKind::Quorum => quorum(sys, p),
    }
}

/// Write-disturbance closed forms, where derived (`None` = use the chain
/// engine).
pub fn closed_wd(kind: ProtocolKind, sys: &SystemParams, p: f64, xi: f64, a: usize) -> Option<f64> {
    let total = p + a as f64 * xi;
    match kind {
        ProtocolKind::WriteThrough => Some(wt_wd(sys, p, xi, a)),
        ProtocolKind::WriteThroughV => Some(wtv_wd(sys, p, xi, a)),
        ProtocolKind::Dragon => Some(dragon(sys, total)),
        ProtocolKind::Firefly => Some(firefly(sys, total)),
        ProtocolKind::Quorum => Some(quorum(sys, total)),
        _ => None,
    }
}

/// Multiple-activity-centers closed forms, where derived.
pub fn closed_mc(kind: ProtocolKind, sys: &SystemParams, p: f64, beta: usize) -> Option<f64> {
    match kind {
        ProtocolKind::WriteThrough => Some(wt_mc(sys, p, beta)),
        ProtocolKind::WriteThroughV => Some(wtv_mc(sys, p, beta)),
        ProtocolKind::Dragon => Some(dragon(sys, p)),
        ProtocolKind::Firefly => Some(firefly(sys, p)),
        ProtocolKind::Quorum => Some(quorum(sys, p)),
        _ => None,
    }
}

/// Ideal-workload (`σ = 0`) limits quoted in §5.1.
pub fn ideal(kind: ProtocolKind, sys: &SystemParams, p: f64) -> f64 {
    let (s, pc, n) = (sys.s as f64, sys.p as f64, sys.n_clients as f64);
    match kind {
        ProtocolKind::WriteThrough => p * ((1.0 - p) * (s + 2.0) + pc + n),
        ProtocolKind::WriteThroughV => p * (pc + n + 2.0),
        ProtocolKind::WriteOnce
        | ProtocolKind::Synapse
        | ProtocolKind::Illinois
        | ProtocolKind::Berkeley => 0.0,
        ProtocolKind::Dragon => dragon(sys, p),
        ProtocolKind::Firefly => firefly(sys, p),
        // Quorum rounds are state-independent, so the ideal workload
        // buys nothing: even σ = 0 reads poll a majority.
        ProtocolKind::Quorum => quorum(sys, p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{analyze, AnalyzeOpts};
    use repmem_core::Scenario;
    use repmem_protocols::protocol;

    fn engine_rd(kind: ProtocolKind, sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
        let scenario = Scenario::read_disturbance(p, sigma, a).unwrap();
        analyze(protocol(kind), sys, &scenario, AnalyzeOpts::default())
            .unwrap()
            .acc
    }

    #[test]
    fn all_rd_forms_match_engine_at_spot_points() {
        let sys = SystemParams::new(7, 120, 25);
        for kind in ProtocolKind::EVERY {
            for (p, sigma, a) in [
                (0.3, 0.06, 3),
                (0.1, 0.02, 5),
                (0.55, 0.1, 2),
                (0.8, 0.04, 1),
            ] {
                let closed = closed_rd(kind, &sys, p, sigma, a);
                let engine = engine_rd(kind, &sys, p, sigma, a);
                assert!(
                    (closed - engine).abs() < 1e-7,
                    "{kind:?} at (p={p}, σ={sigma}, a={a}): closed {closed} vs engine {engine}"
                );
            }
        }
    }

    #[test]
    fn wd_forms_match_engine() {
        let sys = SystemParams::new(6, 90, 15);
        for (p, xi, a) in [(0.2, 0.05, 3), (0.4, 0.1, 2), (0.05, 0.02, 4)] {
            let scenario = Scenario::write_disturbance(p, xi, a).unwrap();
            for kind in ProtocolKind::EVERY {
                if let Some(closed) = closed_wd(kind, &sys, p, xi, a) {
                    let engine = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default())
                        .unwrap()
                        .acc;
                    assert!(
                        (closed - engine).abs() < 1e-7,
                        "{kind:?} WD (p={p}, ξ={xi}, a={a}): closed {closed} vs engine {engine}"
                    );
                }
            }
        }
    }

    #[test]
    fn mc_forms_match_engine() {
        let sys = SystemParams::new(6, 90, 15);
        for (p, beta) in [(0.3, 2), (0.5, 4), (0.15, 3)] {
            let scenario = Scenario::multiple_centers(p, beta).unwrap();
            for kind in ProtocolKind::EVERY {
                if let Some(closed) = closed_mc(kind, &sys, p, beta) {
                    let engine = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default())
                        .unwrap()
                        .acc;
                    assert!(
                        (closed - engine).abs() < 1e-7,
                        "{kind:?} MC (p={p}, β={beta}): closed {closed} vs engine {engine}"
                    );
                }
            }
        }
    }

    #[test]
    fn rd_reduces_to_ideal_at_sigma_zero() {
        let sys = SystemParams::new(9, 300, 30);
        for kind in ProtocolKind::EVERY {
            for p in [0.1, 0.5, 0.9] {
                let rd0 = closed_rd(kind, &sys, p, 0.0, 4);
                let id = ideal(kind, &sys, p);
                assert!(
                    (rd0 - id).abs() < 1e-10,
                    "{kind:?}: σ=0 gives {rd0}, ideal {id}"
                );
            }
        }
    }

    #[test]
    fn zero_write_prob_is_free_everywhere() {
        // A sequencer-family property: quorum reads still poll a
        // majority at p = 0 (the one-round read), which is exactly the
        // premium the crossover analysis prices against availability.
        let sys = SystemParams::figure5();
        for kind in ProtocolKind::ALL {
            assert_eq!(closed_rd(kind, &sys, 0.0, 0.05, 10), 0.0, "{kind:?}");
        }
        assert!(closed_rd(ProtocolKind::Quorum, &sys, 0.0, 0.05, 10) > 0.0);
    }

    #[test]
    fn quorum_form_is_state_independent() {
        // Same acc whatever the disturbance split, as long as the total
        // write probability agrees.
        let sys = SystemParams::new(7, 120, 25);
        let w = 0.3;
        let base = quorum(&sys, w);
        for (sigma, a) in [(0.0, 1), (0.05, 2), (0.1, 4)] {
            assert!((closed_rd(ProtocolKind::Quorum, &sys, w, sigma, a) - base).abs() < 1e-12);
        }
        let n = sys.n_clients as f64;
        let (s, p) = (sys.s as f64, sys.p as f64);
        assert_eq!(quorum(&sys, 1.0), n * (s + p + 4.0));
        // Reads are one round: the probe and its votes, no write-back.
        assert_eq!(quorum(&sys, 0.0), n * (s + 2.0));
        // Six replicas, S = 64, P = 16 and half writes (the benchmark's
        // Quorum shape): 375 units per operation, down from 540.7.
        let mesh = SystemParams::new(5, 64, 16);
        assert_eq!(quorum(&mesh, 0.5), 0.5 * 5.0 * 84.0 + 0.5 * 5.0 * 66.0);
    }
}

#[cfg(test)]
mod randomized_tests {
    use super::*;
    use crate::chain::{analyze, AnalyzeOpts};
    use rand::{Rng, SeedableRng};
    use repmem_core::Scenario;
    use repmem_protocols::protocol;

    /// Deterministic replacement for the former property test: 24 seeded
    /// random read-disturbance configurations, closed form vs chain engine
    /// for all eight protocols.
    #[test]
    fn closed_rd_equals_engine() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xC105ED);
        let mut checked = 0usize;
        while checked < 24 {
            let p = 0.01 + 0.69 * rng.random::<f64>();
            let sigma = 0.001 + 0.079 * rng.random::<f64>();
            let a = rng.random_range(1usize..4);
            let n = rng.random_range(3usize..8);
            // The paper requires a < N (the activity center plus the a
            // disturbing processes are all *clients*) and a feasible
            // probability budget.
            if p + a as f64 * sigma >= 0.99 || a + 1 > n {
                continue;
            }
            checked += 1;
            let sys = SystemParams::new(n, 64, 12);
            let scenario = Scenario::read_disturbance(p, sigma, a).unwrap();
            for kind in repmem_core::ProtocolKind::EVERY {
                let closed = closed_rd(kind, &sys, p, sigma, a);
                let engine = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default())
                    .unwrap()
                    .acc;
                assert!(
                    (closed - engine).abs() < 1e-6 * (1.0 + engine.abs()),
                    "{kind:?} (p={p}, σ={sigma}, a={a}, N={n}): closed {closed} vs engine {engine}"
                );
            }
        }
    }
}
