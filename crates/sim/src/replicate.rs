//! Independent-seed replications.
//!
//! A single simulation run is one sample path; the paper's Table 7
//! methodology (and any confidence statement about measured `acc`)
//! wants several **independent replications** of the same configuration
//! under different seeds. [`replication_seeds`] derives them and
//! [`mean_acc`] averages the resulting reports; callers that want the
//! replications in parallel fan them out themselves (the experiment
//! binaries use `repmem_bench::par_map`).

use crate::report::SimReport;

/// Derive `n` well-separated replication seeds from a base seed
/// (SplitMix64 stream, so neighbouring bases do not collide).
pub fn replication_seeds(base: u64, n: usize) -> Vec<u64> {
    let mut state = base;
    (0..n)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        })
        .collect()
}

/// Mean measured `acc` over a set of replications.
pub fn mean_acc(reports: &[SimReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(SimReport::acc).sum::<f64>() / reports.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{simulate, IssueMode, SimConfig};
    use repmem_core::{ProtocolKind, Scenario, SystemParams};

    fn cfg() -> SimConfig {
        SimConfig {
            sys: SystemParams::new(3, 50, 10),
            protocol: ProtocolKind::WriteThrough,
            mode: IssueMode::Serialized,
            warmup_ops: 50,
            measured_ops: 400,
            seed: 0,
        }
    }

    #[test]
    fn seeds_are_distinct() {
        let seeds = replication_seeds(0, 16);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
        // Neighbouring bases produce disjoint streams.
        assert!(!replication_seeds(1, 16).iter().any(|s| seeds.contains(s)));
    }

    #[test]
    fn mean_acc_averages() {
        let scenario = Scenario::ideal(0.4).unwrap();
        let reports: Vec<SimReport> = replication_seeds(3, 4)
            .into_iter()
            .map(|seed| simulate(&SimConfig { seed, ..cfg() }, &scenario))
            .collect();
        let mean = mean_acc(&reports);
        let lo = reports
            .iter()
            .map(SimReport::acc)
            .fold(f64::INFINITY, f64::min);
        let hi = reports.iter().map(SimReport::acc).fold(0.0f64, f64::max);
        assert!(lo <= mean && mean <= hi);
    }
}
