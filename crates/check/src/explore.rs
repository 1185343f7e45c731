//! Schedule enumeration: bounded-exhaustive DFS with visited-state
//! pruning, and seeded random-walk sampling beyond the exhaustive
//! horizon.

use crate::checks::{self, Violation, ViolationKind};
use crate::exec::{CheckConfig, Ev, Exec};
use repmem_core::ProtocolKind;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Safety caps for one exploration run, on top of the config's depth
/// bound.
#[derive(Debug, Clone, Copy)]
pub struct ExploreLimits {
    /// Stop after this many distinct fingerprinted states.
    pub max_states: u64,
    /// Stop after this many (re-)executions.
    pub max_execs: u64,
}

impl Default for ExploreLimits {
    fn default() -> Self {
        ExploreLimits {
            max_states: 2_000_000,
            max_execs: 5_000_000,
        }
    }
}

/// A violation found by an exploration, with the schedule that
/// produced it (unshrunk — see [`crate::shrink::minimize`]).
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The violated property.
    pub kind: ViolationKind,
    /// What was observed.
    pub detail: String,
    /// The schedule that exhibits it.
    pub events: Vec<Ev>,
}

/// Outcome of one exploration run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Protocol explored.
    pub protocol: ProtocolKind,
    /// Schedules (re-)executed.
    pub executions: u64,
    /// Distinct fingerprinted states seen.
    pub distinct_states: u64,
    /// Terminal schedules checked.
    pub terminals: u64,
    /// Schedules cut at the depth bound (checked, then abandoned).
    pub truncated: u64,
    /// Longest schedule followed.
    pub deepest: usize,
    /// Reads the checked schedules completed on the runtime's fast path
    /// (served from the replica table by `StepCluster::issue`, no
    /// machine step). Zero for a sequencer protocol whose program
    /// re-reads a copy means the explorer bypassed the shipped read
    /// predicate instead of exploring it.
    pub fast_path_reads: u64,
    /// Whether a safety cap ([`ExploreLimits`]) cut the run short.
    pub capped: bool,
    /// First violation found, if any (the run stops there).
    pub violation: Option<FoundViolation>,
}

impl Report {
    fn new(protocol: ProtocolKind) -> Report {
        Report {
            protocol,
            executions: 0,
            distinct_states: 0,
            terminals: 0,
            truncated: 0,
            deepest: 0,
            fast_path_reads: 0,
            capped: false,
            violation: None,
        }
    }

    /// One-line summary for logs.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} executions, {} states, {} terminals, {} truncated, depth<={}, {} fast-path reads{}{}",
            self.protocol.name(),
            self.executions,
            self.distinct_states,
            self.terminals,
            self.truncated,
            self.deepest,
            self.fast_path_reads,
            if self.capped { ", CAPPED" } else { "" },
            match &self.violation {
                Some(v) => format!(", VIOLATION[{}]", v.kind),
                None => String::new(),
            },
        )
    }
}

/// Enumerate every schedule of `cfg` up to its depth bound,
/// re-executing prefixes (stateless model checking) and pruning states
/// already expanded with at least as much remaining depth budget.
/// Checks run on terminal and depth-cut schedules; a violation stops
/// the run.
pub fn exhaustive(cfg: &CheckConfig, limits: ExploreLimits) -> Report {
    let mut report = Report::new(cfg.kind);
    // fingerprint -> largest remaining depth budget it was expanded with
    let mut visited: HashMap<u64, usize> = HashMap::new();
    let mut stack: Vec<Vec<Ev>> = vec![Vec::new()];
    while let Some(prefix) = stack.pop() {
        if report.executions >= limits.max_execs || visited.len() as u64 >= limits.max_states {
            report.capped = true;
            break;
        }
        let exec = Exec::replay(cfg, &prefix);
        report.executions += 1;
        report.deepest = report.deepest.max(prefix.len());
        let remaining = cfg.max_depth.saturating_sub(prefix.len());
        match visited.entry(exec.fingerprint()) {
            Entry::Occupied(mut entry) => {
                if *entry.get() >= remaining {
                    continue;
                }
                entry.insert(remaining);
            }
            Entry::Vacant(entry) => {
                entry.insert(remaining);
            }
        }
        let enabled = exec.enabled();
        if enabled.is_empty() || remaining == 0 {
            if enabled.is_empty() {
                report.terminals += 1;
            } else {
                report.truncated += 1;
            }
            report.fast_path_reads += exec.cluster().local_read_hits();
            if let Some(Violation { kind, detail }) = checks::check(&exec) {
                report.violation = Some(FoundViolation {
                    kind,
                    detail,
                    events: prefix,
                });
                break;
            }
            continue;
        }
        for ev in enabled {
            let mut next = Vec::with_capacity(prefix.len() + 1);
            next.extend_from_slice(&prefix);
            next.push(ev);
            stack.push(next);
        }
    }
    report.distinct_states = visited.len() as u64;
    report
}

/// Seeded random-walk sampling: `walks` schedules, each following
/// uniformly random enabled steps to termination (or the depth bound),
/// then checked. Deterministic for a given `(cfg, seed, walks)`.
pub fn sample(cfg: &CheckConfig, seed: u64, walks: u64) -> Report {
    let mut report = Report::new(cfg.kind);
    let mut rng = SplitMix64(seed);
    for _ in 0..walks {
        let mut exec = Exec::new(cfg);
        let mut events: Vec<Ev> = Vec::new();
        loop {
            let enabled = exec.enabled();
            if enabled.is_empty() || events.len() >= cfg.max_depth {
                if enabled.is_empty() {
                    report.terminals += 1;
                } else {
                    report.truncated += 1;
                }
                report.executions += 1;
                report.deepest = report.deepest.max(events.len());
                report.fast_path_reads += exec.cluster().local_read_hits();
                if let Some(Violation { kind, detail }) = checks::check(&exec) {
                    report.violation = Some(FoundViolation {
                        kind,
                        detail,
                        events,
                    });
                    return report;
                }
                break;
            }
            let ev = enabled[(rng.next() % enabled.len() as u64) as usize];
            // An error poisons the cluster; the next `enabled()` is
            // empty and the check above reports it.
            let _ = exec.apply(ev);
            events.push(ev);
        }
    }
    report
}

/// SplitMix64: tiny, seedable, deterministic. Good enough to pick
/// enabled steps; not a cryptographic generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_tiny_bound_is_clean_and_fast() {
        // One write, one reader: every interleaving is SC and converges.
        let mut cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 1, 1);
        cfg.max_depth = 24;
        let report = exhaustive(&cfg, ExploreLimits::default());
        assert!(report.violation.is_none(), "{}", report.summary());
        assert!(!report.capped);
        assert!(report.terminals > 0);
        assert!(report.distinct_states > 1);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let cfg = CheckConfig::new(ProtocolKind::Dragon, 2, 2, 2);
        let a = sample(&cfg, 7, 25);
        let b = sample(&cfg, 7, 25);
        assert_eq!(a.summary(), b.summary());
        assert!(a.violation.is_none(), "{}", a.summary());
    }
}
