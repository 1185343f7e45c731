//! The §5.1 comparison analysis: dominance relations, crossover lines and
//! region maps between protocols.

use crate::closed::closed_rd;
use repmem_core::{ProtocolKind, SystemParams};

/// The Write-Through / Write-Through-V crossover line under read
/// disturbance (paper §5.1): `p = −aσ·S/(S+2) + S/(S+2)`, i.e.
/// `p* = (1 − aσ)·S/(S+2)`. Above the line (large `p`) Write-Through is
/// cheaper (a WT-V write pays two extra sequencing tokens per write,
/// which stops paying off once re-read misses become rare).
pub fn wt_vs_wtv_line(sys: &SystemParams, sigma: f64, a: usize) -> f64 {
    let s = sys.s as f64;
    (1.0 - a as f64 * sigma) * s / (s + 2.0)
}

/// Which of two protocols is cheaper at a read-disturbance point (ties
/// return `None`).
pub fn cheaper_rd(
    lhs: ProtocolKind,
    rhs: ProtocolKind,
    sys: &SystemParams,
    p: f64,
    sigma: f64,
    a: usize,
) -> Option<ProtocolKind> {
    let l = closed_rd(lhs, sys, p, sigma, a);
    let r = closed_rd(rhs, sys, p, sigma, a);
    if (l - r).abs() < 1e-12 {
        None
    } else if l < r {
        Some(lhs)
    } else {
        Some(rhs)
    }
}

/// The protocol with minimum read-disturbance cost at a point.
pub fn best_rd(sys: &SystemParams, p: f64, sigma: f64, a: usize) -> (ProtocolKind, f64) {
    ProtocolKind::ALL
        .into_iter()
        .map(|k| (k, closed_rd(k, sys, p, sigma, a)))
        .min_by(|l, r| l.1.total_cmp(&r.1))
        .expect("eight protocols")
}

/// A region map over the `(σ, p)` plane: for each grid cell, the cheapest
/// protocol under read disturbance. Reproduces the qualitative structure
/// of the paper's Figure 5 comparisons.
pub struct RegionMap {
    /// Sampled σ values (columns).
    pub sigmas: Vec<f64>,
    /// Sampled p values (rows).
    pub ps: Vec<f64>,
    /// `winners[row][col]` = cheapest protocol at `(ps[row], sigmas[col])`.
    pub winners: Vec<Vec<ProtocolKind>>,
}

impl RegionMap {
    /// Sample an `rows × cols` grid with `p + aσ ≤ 1` enforced (cells
    /// beyond the simplex repeat the boundary winner).
    pub fn compute(sys: &SystemParams, a: usize, rows: usize, cols: usize) -> RegionMap {
        let sigmas: Vec<f64> = (0..cols)
            .map(|j| j as f64 / (cols.max(2) - 1) as f64 / a as f64)
            .collect();
        let ps: Vec<f64> = (0..rows)
            .map(|i| i as f64 / (rows.max(2) - 1) as f64)
            .collect();
        let winners = ps
            .iter()
            .map(|&p| {
                sigmas
                    .iter()
                    .map(|&sigma| {
                        let sigma = sigma.min((1.0 - p).max(0.0) / a as f64);
                        best_rd(sys, p, sigma, a).0
                    })
                    .collect()
            })
            .collect();
        RegionMap {
            sigmas,
            ps,
            winners,
        }
    }

    /// Count cells won by each protocol.
    pub fn tally(&self) -> Vec<(ProtocolKind, usize)> {
        let mut counts: Vec<(ProtocolKind, usize)> =
            ProtocolKind::ALL.into_iter().map(|k| (k, 0)).collect();
        for row in &self.winners {
            for w in row {
                counts
                    .iter_mut()
                    .find(|(k, _)| k == w)
                    .expect("known kind")
                    .1 += 1;
            }
        }
        counts
    }
}

/// Find the empirical crossover `p` between two protocols at fixed
/// `(σ, a)` by bisection on the sign of the cost difference; `None` if no
/// sign change exists on `(lo, hi)`.
pub fn crossover_p(
    lhs: ProtocolKind,
    rhs: ProtocolKind,
    sys: &SystemParams,
    sigma: f64,
    a: usize,
    lo: f64,
    hi: f64,
) -> Option<f64> {
    let diff = |p: f64| closed_rd(lhs, sys, p, sigma, a) - closed_rd(rhs, sys, p, sigma, a);
    let (mut lo, mut hi) = (lo, hi);
    let (dlo, dhi) = (diff(lo), diff(hi));
    if dlo == 0.0 {
        return Some(lo);
    }
    if dlo.signum() == dhi.signum() {
        return None;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let dm = diff(mid);
        if dm == 0.0 {
            return Some(mid);
        }
        if dm.signum() == dlo.signum() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

/// The availability premium of the sequencer-free Quorum protocol over a
/// sequencer protocol at a read-disturbance point: `acc_Q − acc_kind`.
///
/// Positive means the quorum rounds cost that much *extra* per operation
/// — the price paid for surviving a minority of dead replicas with no
/// recovery protocol at all.
pub fn quorum_premium(kind: ProtocolKind, sys: &SystemParams, p: f64, sigma: f64, a: usize) -> f64 {
    closed_rd(ProtocolKind::Quorum, sys, p, sigma, a) - closed_rd(kind, sys, p, sigma, a)
}

/// Break-even kill rate against a sequencer protocol.
///
/// Model a node loss as an event arriving once every `1/κ` operations
/// that costs the sequencer family a recovery `penalty` (in the same
/// communication-cost units: re-election, copy re-fetch, failed-op
/// retries) while costing Quorum nothing (a minority loss leaves every
/// round completing). The effective costs cross at
///
/// `κ* = (acc_Q − acc_kind) / penalty`
///
/// — above that kill rate the quorum protocol is cheaper outright.
/// `None` when there is no break-even: a non-positive premium means
/// Quorum already wins at κ = 0 (and a non-positive penalty prices
/// kills at nothing, so the sequencer never loses).
pub fn quorum_break_even_kill_rate(
    kind: ProtocolKind,
    sys: &SystemParams,
    p: f64,
    sigma: f64,
    a: usize,
    penalty: f64,
) -> Option<f64> {
    let premium = quorum_premium(kind, sys, p, sigma, a);
    if premium <= 0.0 {
        return None;
    }
    if penalty <= 0.0 {
        return None;
    }
    Some(premium / penalty)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wt_wtv_crossover_matches_printed_line() {
        // §5.1: the line p = (1−aσ)·S/(S+2) separates the WT / WT-V
        // minimum-cost regions. Our closed forms must cross exactly there.
        let sys = SystemParams::new(20, 500, 30);
        for (sigma, a) in [(0.02, 4), (0.05, 2), (0.0, 1)] {
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
            .expect("WT/WT-V must cross");
            assert!((found - line).abs() < 1e-6, "found {found}, line {line}");
            // WT-V cheaper below the line, WT cheaper above.
            let below = cheaper_rd(
                ProtocolKind::WriteThrough,
                ProtocolKind::WriteThroughV,
                &sys,
                line * 0.5,
                sigma,
                a,
            );
            let above = cheaper_rd(
                ProtocolKind::WriteThrough,
                ProtocolKind::WriteThroughV,
                &sys,
                (line + 1.0 - a as f64 * sigma) * 0.5,
                sigma,
                a,
            );
            assert_eq!(below, Some(ProtocolKind::WriteThroughV));
            assert_eq!(above, Some(ProtocolKind::WriteThrough));
        }
    }

    #[test]
    fn berkeley_dominates_invalidation_protocols_on_figure5_grid() {
        // §5.1: "Protocol Berkeley incurs the minimum communication cost
        // in comparison with Write-Through, Write-Through-V, Write-Once,
        // Illinois and Synapse."
        let sys = SystemParams::figure5();
        let a = 10;
        for pi in 1..10 {
            for si in 1..10 {
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
                    let o = closed_rd(other, &sys, p, sigma, a);
                    assert!(
                        b <= o + 1e-9,
                        "Berkeley {b} beaten by {other:?} {o} at (p={p}, σ={sigma})"
                    );
                }
            }
        }
    }

    #[test]
    fn illinois_never_worse_than_synapse() {
        let sys = SystemParams::figure5();
        let a = 10;
        for pi in 0..=10 {
            for si in 0..=10 {
                let p = pi as f64 / 10.0;
                let sigma = si as f64 / 10.0 * (1.0 - p) / a as f64;
                let ill = closed_rd(ProtocolKind::Illinois, &sys, p, sigma, a);
                let syn = closed_rd(ProtocolKind::Synapse, &sys, p, sigma, a);
                assert!(
                    ill <= syn + 1e-9,
                    "Illinois {ill} > Synapse {syn} at (p={p}, σ={sigma})"
                );
            }
        }
    }

    #[test]
    fn berkeley_beats_dragon_when_np_exceeds_s_plus_2() {
        // §5.1: for NP > S+2 Berkeley always beats Dragon.
        let sys = SystemParams::new(50, 100, 30); // NP = 1500 > 102
        let a = 10;
        for pi in 1..10 {
            for si in 1..10 {
                let p = pi as f64 / 10.0;
                let sigma = si as f64 / 10.0 * (1.0 - p) / a as f64;
                let b = closed_rd(ProtocolKind::Berkeley, &sys, p, sigma, a);
                let d = closed_rd(ProtocolKind::Dragon, &sys, p, sigma, a);
                assert!(
                    b <= d + 1e-9,
                    "Berkeley {b} > Dragon {d} at (p={p}, σ={sigma})"
                );
            }
        }
    }

    #[test]
    fn dragon_wins_a_region_when_np_below_s_plus_2() {
        // For NP < S+2 a crossover line exists: Dragon wins at small p /
        // large σ, Berkeley at large p.
        // Our Berkeley/Dragon closed forms cross at
        // p* = σ(N + S + 2 − N(P+1))/(N(P+1)) (a=1): a positive-slope
        // line through the origin of the (σ, p) plane, the same structure
        // as the paper's printed p = σ(S+2−NP)/(P+N+2) (see DESIGN.md §4).
        let sys = SystemParams::figure5(); // NP = 1500 < 5002
        let a = 1;
        let sigma = 0.01;
        let d_small = cheaper_rd(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            0.005,
            sigma,
            a,
        );
        let d_large = cheaper_rd(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            0.5,
            sigma,
            a,
        );
        assert_eq!(d_small, Some(ProtocolKind::Dragon));
        assert_eq!(d_large, Some(ProtocolKind::Berkeley));
        let cross = crossover_p(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            sigma,
            a,
            0.005,
            0.5,
        )
        .expect("Dragon/Berkeley must cross");
        // Crossing point scales linearly in σ (line through the origin).
        let cross2 = crossover_p(
            ProtocolKind::Dragon,
            ProtocolKind::Berkeley,
            &sys,
            2.0 * sigma,
            a,
            0.005,
            0.9,
        )
        .expect("crossing at doubled σ");
        assert!(
            (cross2 / cross - 2.0).abs() < 0.02,
            "slope not linear: {cross} vs {cross2}"
        );
    }

    #[test]
    fn synapse_vs_wtv_region_structure() {
        // §5.1: when P < S+N the (σ, p) plane splits into a Synapse region
        // and a WT-V region along a line through the origin.
        let sys = SystemParams::new(50, 5000, 30); // P << S+N
        let a = 10;
        // Tiny disturbance: Synapse's free steady-state writes win (its
        // ideal-workload cost is 0 while WT-V pays p(P+N+2) per write).
        let low = cheaper_rd(
            ProtocolKind::Synapse,
            ProtocolKind::WriteThroughV,
            &sys,
            0.3,
            1e-4,
            a,
        );
        assert_eq!(low, Some(ProtocolKind::Synapse));
        // Heavy disturbance: Synapse pays ~2S+N+2 per disturbing read and
        // S+N+1 per re-acquisition, WT-V only S+2 per disturbing read.
        let heavy = cheaper_rd(
            ProtocolKind::Synapse,
            ProtocolKind::WriteThroughV,
            &sys,
            0.05,
            0.09,
            a,
        );
        assert_eq!(heavy, Some(ProtocolKind::WriteThroughV));
    }

    #[test]
    fn quorum_break_even_prices_availability() {
        let sys = SystemParams::figure5();
        let (p, sigma, a) = (0.3, 0.02, 10);
        // Against Berkeley (the paper's overall winner) the quorum
        // premium is positive: availability is not free. Every read is
        // the one-round read, N(S+2): about half the N(2S+4) of a read
        // that writes back.
        let premium = quorum_premium(ProtocolKind::Berkeley, &sys, p, sigma, a);
        assert!(premium > 0.0);
        let (n, s, pp) = (sys.n_clients as f64, sys.s as f64, sys.p as f64);
        let quorum = n * (p * (s + pp + 4.0) + (1.0 - p) * (s + 2.0));
        let berkeley = closed_rd(ProtocolKind::Berkeley, &sys, p, sigma, a);
        assert!((premium - (quorum - berkeley)).abs() < 1e-6);
        // The break-even kill rate scales inversely with the penalty a
        // sequencer loss costs, and at that rate the effective costs
        // really do cross.
        let penalty = 50_000.0;
        let k = quorum_break_even_kill_rate(ProtocolKind::Berkeley, &sys, p, sigma, a, penalty)
            .expect("positive premium must break even");
        assert!((k * penalty - premium).abs() < 1e-9);
        let k2 =
            quorum_break_even_kill_rate(ProtocolKind::Berkeley, &sys, p, sigma, a, 2.0 * penalty)
                .expect("break-even at doubled penalty");
        assert!((k2 * 2.0 - k / 1.0).abs() < 1e-12 || (k2 - k / 2.0).abs() < 1e-12);
        let seq = closed_rd(ProtocolKind::Berkeley, &sys, p, sigma, a);
        let q = closed_rd(ProtocolKind::Quorum, &sys, p, sigma, a);
        assert!(seq + 2.0 * k * penalty > q, "above κ*, quorum wins");
        assert!(seq + 0.5 * k * penalty < q, "below κ*, the sequencer wins");
        // Degenerate cases: no crossover without a premium or a penalty.
        assert_eq!(
            quorum_break_even_kill_rate(ProtocolKind::Quorum, &sys, p, sigma, a, penalty),
            None
        );
        assert_eq!(
            quorum_break_even_kill_rate(ProtocolKind::Berkeley, &sys, p, sigma, a, 0.0),
            None
        );
    }

    #[test]
    fn region_map_covers_grid() {
        let sys = SystemParams::figure5();
        let map = RegionMap::compute(&sys, 10, 8, 8);
        assert_eq!(map.winners.len(), 8);
        assert_eq!(map.winners[0].len(), 8);
        let total: usize = map.tally().iter().map(|(_, c)| c).sum();
        assert_eq!(total, 64);
    }
}
