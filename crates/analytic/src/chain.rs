//! Markov-chain construction and stationary analysis.
//!
//! Under the paper's workload model (§4.2) every operation is an
//! independent trial from a fixed sample space of *(node, read/write)*
//! events. The global copy-state therefore evolves as a finite Markov
//! chain whose transitions are exactly the oracle's atomic operation
//! executions. The steady-state average communication cost (paper eq. 1)
//! is
//!
//! ```text
//! acc = Σ_states π(s) · Σ_events P(ev) · cost(s, ev)
//! ```
//!
//! and the trace probabilities `π_h` fall out of the same sum keyed by
//! trace signature.
//!
//! ## Exact lumping
//!
//! Clients with identical `(read_prob, write_prob)` that are not pointed
//! at by the ownership register are *exchangeable*: permuting their copy
//! states permutes trajectories without changing costs. States are
//! canonicalized by sorting member states within each exchangeability
//! class (silent non-actor clients form one more class), which collapses,
//! e.g., the `2^10` disturbing-client validity vectors of the paper's
//! Figure 5 configuration into 11 count vectors. Transitions are expanded
//! per concrete member and merged by canonical target, so the lumping is
//! exact — `AnalyzeOpts { lump: false }` keeps the raw product space and
//! is used in tests and the ablation bench to confirm equality.
//!
//! Per-initiator trace probabilities need one extra step: a lumped state
//! stores only the first concrete representative it was discovered with,
//! which breaks the symmetry between class members (the representative
//! may have client 1 VALID and client 2 INVALID, while the lumped state
//! equally represents the mirrored arrangement). The stationary
//! distribution of the symmetric full chain is uniform over each orbit,
//! so the trace contribution of an event at node `n` in class `C` is
//! symmetrized: the cost outcome is averaged over executing the event at
//! every member of `C` in the representative, keeping `n` as the
//! reported initiator.

use crate::oracle::{execute, Global};
use repmem_core::{CoherenceProtocol, NodeId, OpKind, Scenario, SystemParams, TraceSig};
use repmem_linalg::{stationary_dense, stationary_power, StationaryError, Triplets};
use std::collections::{BTreeMap, HashMap, VecDeque};

/// Chains up to this size are solved directly by Gaussian elimination;
/// larger chains use damped power iteration.
const DENSE_CUTOFF: usize = 256;
/// [`build`] aborts if the reachable state space exceeds this bound.
const MAX_STATES: usize = 2_000_000;

/// Options for [`analyze`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeOpts {
    /// Lump exchangeable clients (exact; keep on except for ablations).
    pub lump: bool,
}

impl Default for AnalyzeOpts {
    fn default() -> Self {
        AnalyzeOpts { lump: true }
    }
}

/// Errors from [`analyze`].
#[derive(Debug)]
pub enum AnalyzeError {
    /// An actor's node id lies outside the system.
    ActorOutOfRange(NodeId),
    /// The reachable chain exceeded the state bound (2 000 000).
    TooManyStates(usize),
    /// The stationary solver failed.
    Solver(StationaryError),
}

impl std::fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnalyzeError::ActorOutOfRange(n) => write!(f, "actor {n} outside the system"),
            AnalyzeError::TooManyStates(n) => write!(f, "reachable chain exceeds {n} states"),
            AnalyzeError::Solver(e) => write!(f, "stationary solve failed: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Result of a chain analysis.
#[derive(Debug, Clone)]
pub struct ChainResult {
    /// Steady-state average communication cost per operation (`acc`).
    pub acc: f64,
    /// Number of (canonical) states in the reachable chain.
    pub n_states: usize,
    /// Steady-state probability of each observed trace signature; sums
    /// to 1.
    pub trace_probs: BTreeMap<TraceSig, f64>,
    /// L1 residual of the stationary solve (diagnostic).
    pub residual: f64,
}

impl ChainResult {
    /// Probability mass of traces with non-zero cost (the paper's "how
    /// often does an operation communicate at all").
    pub fn communicating_fraction(&self) -> f64 {
        self.trace_probs
            .iter()
            .filter(|(sig, _)| sig.cost > 0)
            .map(|(_, p)| p)
            .sum()
    }
}

/// Exchangeability classes: vectors of node ids whose states may be
/// sorted together, plus the list of "pinned" nodes (home + any actor
/// with a unique probability signature).
struct Lumper {
    /// Nodes whose state is kept positionally (home first).
    pinned: Vec<NodeId>,
    /// Exchangeability classes (each sorted by node id).
    classes: Vec<Vec<NodeId>>,
    lump: bool,
}

impl Lumper {
    fn new(sys: &SystemParams, scenario: &Scenario, lump: bool) -> Self {
        let home = sys.home();
        let mut classes: Vec<(u64, u64, Vec<NodeId>)> = Vec::new();
        let mut pinned = vec![home];
        for a in &scenario.actors {
            if a.node == home {
                continue; // home is always pinned
            }
            let key = (a.read_prob.to_bits(), a.write_prob.to_bits());
            match classes.iter_mut().find(|(r, w, _)| (*r, *w) == key) {
                Some((_, _, members)) => members.push(a.node),
                None => classes.push((key.0, key.1, vec![a.node])),
            }
        }
        // Silent clients (no scenario entry) form one more class.
        let mut silent: Vec<NodeId> = sys
            .clients()
            .filter(|c| *c != home && !scenario.actors.iter().any(|a| a.node == *c))
            .collect();
        silent.sort_unstable();
        let mut classes: Vec<Vec<NodeId>> = classes
            .into_iter()
            .map(|(_, _, mut m)| {
                m.sort_unstable();
                m
            })
            .collect();
        if !silent.is_empty() {
            classes.push(silent);
        }
        // Singleton classes are effectively pinned; keep them as classes
        // anyway (sorting a singleton is free and the code stays uniform).
        pinned.dedup();
        Lumper {
            pinned,
            classes,
            lump,
        }
    }

    /// The non-singleton exchangeability class containing `n`, when
    /// lumping is on (trace attribution must symmetrize over it).
    fn class_of(&self, n: NodeId) -> Option<&[NodeId]> {
        if !self.lump {
            return None;
        }
        self.classes
            .iter()
            .find(|c| c.len() > 1 && c.contains(&n))
            .map(Vec::as_slice)
    }

    /// Canonical key of a global state.
    fn key(&self, g: &Global) -> Vec<u8> {
        let mut key = Vec::with_capacity(2 + self.pinned.len() + self.classes.len() * 8);
        for &n in &self.pinned {
            key.push(g.states[n.idx()] as u8);
        }
        if self.lump {
            // Owner encoding: pinned index, or (class, state) — the
            // owner's identity within a class is irrelevant, only that
            // the class contains an owner in a given state.
            match self.pinned.iter().position(|&n| n == g.owner) {
                Some(i) => {
                    key.push(0);
                    key.push(i as u8);
                }
                None => {
                    let (ci, _) = self
                        .classes
                        .iter()
                        .enumerate()
                        .find(|(_, c)| c.contains(&g.owner))
                        .expect("owner must be pinned or in a class");
                    key.push(1);
                    key.push(ci as u8);
                }
            }
            for class in &self.classes {
                // Owner-first, then sorted member states.
                let mut member_states: Vec<u8> = Vec::with_capacity(class.len());
                for &n in class {
                    if n == g.owner {
                        key.push(g.states[n.idx()] as u8);
                    } else {
                        member_states.push(g.states[n.idx()] as u8);
                    }
                }
                member_states.sort_unstable();
                key.extend_from_slice(&member_states);
                key.push(255); // class separator
            }
        } else {
            key.push(g.owner.0 as u8);
            key.push((g.owner.0 >> 8) as u8);
            for s in &g.states {
                key.push(*s as u8);
            }
        }
        key
    }
}

/// The explicit chain model: transition matrix, per-state expected cost,
/// and per-state trace contributions. Exposed so that transient (burn-in)
/// analysis can iterate the chain from its initial state.
#[derive(Debug, Clone)]
pub struct ChainModel {
    /// Row-stochastic transition matrix over canonical states.
    pub matrix: repmem_linalg::Csr,
    /// Expected one-step communication cost from each state.
    pub expected_cost: Vec<f64>,
    /// Per-state trace contributions `(signature, event probability)`.
    pub trace_contrib: Vec<Vec<(TraceSig, f64)>>,
    /// Index of the initial state (always 0 by construction).
    pub initial: usize,
}

impl ChainModel {
    /// Number of canonical states.
    pub fn n_states(&self) -> usize {
        self.matrix.n_rows()
    }

    /// Solve for the stationary distribution and assemble the result.
    pub fn solve(&self) -> Result<ChainResult, AnalyzeError> {
        let n = self.n_states();
        let pi = if n <= DENSE_CUTOFF {
            stationary_dense(&self.matrix.to_dense())
        } else {
            stationary_power(&self.matrix)
        }
        .map_err(AnalyzeError::Solver)?;
        let acc = pi.iter().zip(&self.expected_cost).map(|(p, c)| p * c).sum();
        let mut trace_probs: BTreeMap<TraceSig, f64> = BTreeMap::new();
        for (si, contribs) in self.trace_contrib.iter().enumerate() {
            if pi[si] == 0.0 {
                continue;
            }
            for (sig, prob) in contribs {
                *trace_probs.entry(*sig).or_insert(0.0) += pi[si] * prob;
            }
        }
        let residual = repmem_linalg::stationary::residual(&self.matrix, &pi);
        Ok(ChainResult {
            acc,
            n_states: n,
            trace_probs,
            residual,
        })
    }
}

/// Build the chain model for `protocol` under `scenario` without solving.
pub fn build(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    scenario: &Scenario,
    opts: AnalyzeOpts,
) -> Result<ChainModel, AnalyzeError> {
    for a in &scenario.actors {
        if a.node.idx() >= sys.n_nodes() {
            return Err(AnalyzeError::ActorOutOfRange(a.node));
        }
    }
    let events: Vec<(NodeId, OpKind, f64)> = scenario.events().collect();
    let lumper = Lumper::new(sys, scenario, opts.lump);

    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut reps: Vec<Global> = Vec::new();
    let mut frontier: VecDeque<usize> = VecDeque::new();

    let g0 = Global::initial(protocol, sys);
    index.insert(lumper.key(&g0), 0);
    reps.push(g0);
    frontier.push_back(0);

    // Per-state expected cost and trace contributions.
    let mut expected_cost: Vec<f64> = Vec::new();
    let mut trace_contrib: Vec<Vec<(TraceSig, f64)>> = Vec::new();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();

    while let Some(si) = frontier.pop_front() {
        let rep = reps[si].clone();
        let mut ec = 0.0;
        let mut traces = Vec::with_capacity(events.len());
        for &(node, op, prob) in &events {
            let mut g = rep.clone();
            let outcome = execute(protocol, sys, &mut g, node, op);
            let key = lumper.key(&g);
            let ti = match index.get(&key) {
                Some(&t) => t,
                None => {
                    let t = reps.len();
                    if t >= MAX_STATES {
                        return Err(AnalyzeError::TooManyStates(MAX_STATES));
                    }
                    index.insert(key, t);
                    reps.push(g);
                    frontier.push_back(t);
                    t
                }
            };
            edges.push((si, ti, prob));
            ec += prob * outcome.cost as f64;
            // Per-initiator trace attribution: within a lumped state the
            // concrete arrangements of an exchangeability class are
            // equally likely, so average the cost outcome over executing
            // at every class member, reporting `node` as the initiator.
            match lumper.class_of(node) {
                Some(class) => {
                    let w = prob / class.len() as f64;
                    for &m in class {
                        let mut gm = rep.clone();
                        let o = execute(protocol, sys, &mut gm, m, op);
                        traces.push((
                            TraceSig {
                                initiator: node,
                                op,
                                cost: o.cost,
                            },
                            w,
                        ));
                    }
                }
                None => traces.push((outcome.sig, prob)),
            }
        }
        // Keep the per-state vectors aligned with state indices.
        while expected_cost.len() <= si {
            expected_cost.push(0.0);
            trace_contrib.push(Vec::new());
        }
        expected_cost[si] = ec;
        trace_contrib[si] = traces;
    }

    let n = reps.len();
    let mut trips = Triplets::new(n, n);
    for (s, t, p) in edges {
        trips.add(s, t, p);
    }
    Ok(ChainModel {
        matrix: trips.build(),
        expected_cost,
        trace_contrib,
        initial: 0,
    })
}

/// Build and solve the chain for `protocol` under `scenario`.
pub fn analyze(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    scenario: &Scenario,
    opts: AnalyzeOpts,
) -> Result<ChainResult, AnalyzeError> {
    build(protocol, sys, scenario, opts)?.solve()
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::ProtocolKind;
    use repmem_protocols::protocol;

    fn rd(p: f64, sigma: f64, a: usize) -> Scenario {
        Scenario::read_disturbance(p, sigma, a).unwrap()
    }

    #[test]
    fn write_through_matches_paper_equation_3() {
        let sys = SystemParams::new(6, 100, 30);
        let (p, sigma, a) = (0.3, 0.05, 3);
        let r = analyze(
            protocol(ProtocolKind::WriteThrough),
            &sys,
            &rd(p, sigma, a),
            AnalyzeOpts::default(),
        )
        .unwrap();
        // acc = [p(1-p-aσ)/(1-aσ) + aσp/(p+σ)](S+2) + p(P+N)   (eq. 3)
        let q = a as f64 * sigma;
        let pi2 = p * (1.0 - p - q) / (1.0 - q) + q * p / (p + sigma);
        let expect = pi2 * (sys.s + 2) as f64 + p * (sys.p as f64 + sys.n_clients as f64);
        assert!(
            (r.acc - expect).abs() < 1e-9,
            "acc {} vs eq3 {}",
            r.acc,
            expect
        );
    }

    #[test]
    fn trace_probabilities_sum_to_one() {
        let sys = SystemParams::new(5, 50, 10);
        for kind in ProtocolKind::ALL {
            let r = analyze(
                protocol(kind),
                &sys,
                &rd(0.2, 0.1, 2),
                AnalyzeOpts::default(),
            )
            .unwrap();
            let total: f64 = r.trace_probs.values().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "{kind:?}: trace probs sum {total}"
            );
            assert!(r.residual < 1e-9, "{kind:?}: residual {}", r.residual);
        }
    }

    #[test]
    fn lumped_equals_unlumped() {
        let sys = SystemParams::new(6, 40, 7);
        for kind in ProtocolKind::ALL {
            for scenario in [
                rd(0.25, 0.08, 4),
                Scenario::write_disturbance(0.2, 0.05, 3).unwrap(),
                Scenario::multiple_centers(0.3, 3).unwrap(),
            ] {
                let lumped =
                    analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default()).unwrap();
                let full =
                    analyze(protocol(kind), &sys, &scenario, AnalyzeOpts { lump: false }).unwrap();
                assert!(
                    (lumped.acc - full.acc).abs() < 1e-8,
                    "{kind:?}: lumped {} vs full {}",
                    lumped.acc,
                    full.acc
                );
                assert!(lumped.n_states <= full.n_states);
            }
        }
    }

    #[test]
    fn zero_write_probability_costs_nothing() {
        // §5.1: for p=0 all protocols incur acc=0.
        let sys = SystemParams::new(8, 5000, 30);
        let scenario = rd(0.0, 0.1, 4);
        for kind in ProtocolKind::ALL {
            let r = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default()).unwrap();
            assert!(r.acc.abs() < 1e-9, "{kind:?}: acc {} for p=0", r.acc);
        }
    }

    #[test]
    fn ideal_workload_limits_match_section_5() {
        // §5.1: σ=0 — Synapse, Write-Once, Illinois, Berkeley free;
        // WT = p((1-p)(S+2)+P+N); WT-V = p(P+N+2);
        // Dragon = pN(P+1); Firefly = p(N(P+1)+1).
        let sys = SystemParams::new(10, 200, 30);
        let p = 0.35;
        let scenario = Scenario::ideal(p).unwrap();
        let (nf, sf, pf) = (sys.n_clients as f64, sys.s as f64, sys.p as f64);
        let expectations: Vec<(ProtocolKind, f64)> = vec![
            (
                ProtocolKind::WriteThrough,
                p * ((1.0 - p) * (sf + 2.0) + pf + nf),
            ),
            (ProtocolKind::WriteThroughV, p * (pf + nf + 2.0)),
            (ProtocolKind::WriteOnce, 0.0),
            (ProtocolKind::Synapse, 0.0),
            (ProtocolKind::Illinois, 0.0),
            (ProtocolKind::Berkeley, 0.0),
            (ProtocolKind::Dragon, p * nf * (pf + 1.0)),
            (ProtocolKind::Firefly, p * (nf * (pf + 1.0) + 1.0)),
        ];
        for (kind, expect) in expectations {
            let r = analyze(protocol(kind), &sys, &scenario, AnalyzeOpts::default()).unwrap();
            assert!(
                (r.acc - expect).abs() < 1e-8,
                "{kind:?}: acc {} vs ideal-workload {}",
                r.acc,
                expect
            );
        }
    }

    #[test]
    fn figure5_configuration_is_tractable() {
        // N=50, a=10 — the lumped chain must stay small.
        let sys = SystemParams::figure5();
        let r = analyze(
            protocol(ProtocolKind::Synapse),
            &sys,
            &rd(0.3, 0.05, 10),
            AnalyzeOpts::default(),
        )
        .unwrap();
        assert!(
            r.n_states < 500,
            "lumped Synapse chain has {} states",
            r.n_states
        );
        assert!(r.acc > 0.0);
    }
}
