//! Trace-set enumeration — the paper's §4.1 as a first-class API.
//!
//! For a given coherence protocol, the set `TR` of operation traces is
//! finite: every operation execution results in exactly one trace, which
//! depends on the operation type, the copy states, and (in the serialized
//! semantics) nothing else. This module enumerates `TR` exhaustively by
//! running the oracle from every reachable global state, recording for
//! each trace its **message-kind sequence** (the paper's Figures 2–4) and
//! its **communication cost** `cc_h`.

use crate::chain::analyze;
use crate::oracle::{execute, Global};
use repmem_core::{CoherenceProtocol, MsgKind, NodeId, OpKind, Scenario, SystemParams};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// One element of the trace set `TR`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceInfo {
    /// Operation type that produces this trace.
    pub op: OpKind,
    /// Whether the initiator is the (home) sequencer.
    pub sequencer_initiated: bool,
    /// Inter-node message kinds, in send order.
    pub messages: Vec<MsgKind>,
    /// The trace communication cost `cc_h`.
    pub cost: u64,
}

impl TraceInfo {
    /// Human-readable rendering, e.g. `client write: W-PER, W-INV×4 (cc=34)`.
    pub fn describe(&self) -> String {
        let who = if self.sequencer_initiated {
            "sequencer"
        } else {
            "client"
        };
        if self.messages.is_empty() {
            return format!("{who} {}: local (cc=0)", self.op);
        }
        // Run-length encode repeated kinds for readability.
        let mut parts: Vec<String> = Vec::new();
        let mut iter = self.messages.iter().peekable();
        while let Some(kind) = iter.next() {
            let mut n = 1;
            while iter.peek() == Some(&kind) {
                iter.next();
                n += 1;
            }
            if n == 1 {
                parts.push(kind.mnemonic().to_string());
            } else {
                parts.push(format!("{}×{n}", kind.mnemonic()));
            }
        }
        format!("{who} {}: {} (cc={})", self.op, parts.join(", "), self.cost)
    }
}

/// Enumerate the full trace set of a protocol by exhaustive exploration
/// of the reachable global copy-states under a maximally-exercising
/// workload (reads and writes at two distinct clients plus the
/// sequencer).
///
/// The result is returned sorted and deduplicated; the paper's claim that
/// `TR` is finite is witnessed by termination of the closed reachable-set
/// walk.
pub fn trace_set(protocol: &dyn CoherenceProtocol, sys: &SystemParams) -> Vec<TraceInfo> {
    assert!(
        sys.n_clients >= 2,
        "need two clients to exercise remote traces"
    );
    let actors: Vec<NodeId> = vec![NodeId(0), NodeId(1), sys.home()];
    let ops = [OpKind::Read, OpKind::Write];

    let mut seen_states: HashSet<Global> = HashSet::new();
    let mut frontier: VecDeque<Global> = VecDeque::new();
    let g0 = Global::initial(protocol, sys);
    seen_states.insert(g0.clone());
    frontier.push_back(g0);

    let mut traces: BTreeSet<TraceInfo> = BTreeSet::new();
    while let Some(state) = frontier.pop_front() {
        for &node in &actors {
            for op in ops {
                let mut g = state.clone();
                let outcome = execute(protocol, sys, &mut g, node, op);
                traces.insert(TraceInfo {
                    op,
                    sequencer_initiated: node == sys.home(),
                    messages: outcome.kinds,
                    cost: outcome.cost,
                });
                if seen_states.insert(g.clone()) {
                    frontier.push_back(g);
                }
            }
        }
    }
    traces.into_iter().collect()
}

/// The steady-state probability of each trace under a scenario, computed
/// from the chain engine and keyed by [`TraceInfo`]-compatible
/// `(sequencer_initiated, op, cost)` classes (the engine's per-node
/// signatures are aggregated per class).
pub fn trace_distribution(
    protocol: &dyn CoherenceProtocol,
    sys: &SystemParams,
    scenario: &Scenario,
) -> BTreeMap<(bool, OpKind, u64), f64> {
    let result = analyze(protocol, sys, scenario).expect("chain analysis for trace distribution");
    let mut out: BTreeMap<(bool, OpKind, u64), f64> = BTreeMap::new();
    for (sig, prob) in result.trace_probs {
        *out.entry((sig.initiator == sys.home(), sig.op, sig.cost))
            .or_insert(0.0) += prob;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_core::ProtocolKind;
    use repmem_protocols::protocol;

    fn sys() -> SystemParams {
        SystemParams::new(4, 100, 30)
    }

    /// Paper §4.1 + Figures 2–4: the Write-Through trace set. The paper
    /// lists six traces tr1..tr6; tr3 (write from VALID) and tr4 (write
    /// from INVALID) have identical message sequences and identical cost
    /// `cc3 = cc4 = P+N`, so observationally the set has five distinct
    /// signatures.
    #[test]
    fn write_through_trace_set_is_the_papers_six() {
        let sys = sys();
        let tr = trace_set(protocol(ProtocolKind::WriteThrough), &sys);
        let n = sys.n_clients as u64;
        assert_eq!(tr.len(), 5, "{tr:#?}");

        let find = |op: OpKind, seq: bool, cost: u64| -> &TraceInfo {
            tr.iter()
                .find(|t| t.op == op && t.sequencer_initiated == seq && t.cost == cost)
                .unwrap_or_else(|| panic!("missing trace ({op}, seq={seq}, cc={cost})"))
        };

        // tr1: local read hit.
        assert!(find(OpKind::Read, false, 0).messages.is_empty());
        // tr2 (Fig. 2): R-PER to the sequencer, R-GNT back.
        assert_eq!(
            find(OpKind::Read, false, sys.s + 2).messages,
            vec![MsgKind::RPer, MsgKind::RGnt]
        );
        // tr3/tr4 (Fig. 3): W-PER with parameters + N-1 invalidations.
        let w = find(OpKind::Write, false, sys.p + n);
        assert_eq!(w.messages[0], MsgKind::WPer);
        assert_eq!(w.messages[1..].len(), sys.n_clients - 1);
        assert!(w.messages[1..].iter().all(|k| *k == MsgKind::WInv));
        // tr5: sequencer read, local.
        assert!(find(OpKind::Read, true, 0).messages.is_empty());
        // tr6 (Fig. 4): N invalidations.
        let w6 = find(OpKind::Write, true, n);
        assert_eq!(w6.messages, vec![MsgKind::WInv; sys.n_clients]);
    }

    #[test]
    fn every_protocol_has_a_finite_trace_set() {
        for kind in ProtocolKind::ALL {
            let tr = trace_set(protocol(kind), &sys());
            assert!(!tr.is_empty());
            assert!(tr.len() <= 24, "{kind:?}: {} traces", tr.len());
            // Local traces exist for every protocol (steady-state hits).
            assert!(tr.iter().any(|t| t.cost == 0), "{kind:?} has no free trace");
        }
    }

    #[test]
    fn update_protocols_have_no_read_traffic() {
        for kind in [ProtocolKind::Dragon, ProtocolKind::Firefly] {
            let tr = trace_set(protocol(kind), &sys());
            for t in &tr {
                if t.op == OpKind::Read {
                    assert_eq!(t.cost, 0, "{kind:?}: {}", t.describe());
                }
            }
        }
    }

    #[test]
    fn synapse_broadcast_recall_is_visible_in_the_trace() {
        let sys = sys();
        let tr = trace_set(protocol(ProtocolKind::Synapse), &sys);
        let dirty_read = tr
            .iter()
            .find(|t| t.op == OpKind::Read && t.cost == 2 * sys.s + sys.n_clients as u64 + 2)
            .expect("dirty-read trace");
        let recalls = dirty_read
            .messages
            .iter()
            .filter(|k| **k == MsgKind::Recall)
            .count();
        assert_eq!(recalls, sys.n_clients - 1, "broadcast recall fan-out");
    }

    #[test]
    fn illinois_recall_is_targeted() {
        let sys = sys();
        let tr = trace_set(protocol(ProtocolKind::Illinois), &sys);
        let dirty_read = tr
            .iter()
            .find(|t| t.op == OpKind::Read && !t.sequencer_initiated && t.cost == 2 * sys.s + 4)
            .expect("dirty-read trace");
        let recalls = dirty_read
            .messages
            .iter()
            .filter(|k| **k == MsgKind::Recall)
            .count();
        assert_eq!(recalls, 1, "targeted recall");
    }

    #[test]
    fn distribution_sums_to_one_per_scenario() {
        let sys = sys();
        let scenario = Scenario::read_disturbance(0.3, 0.05, 2).unwrap();
        for kind in ProtocolKind::ALL {
            let dist = trace_distribution(protocol(kind), &sys, &scenario);
            let total: f64 = dist.values().sum();
            assert!((total - 1.0).abs() < 1e-9, "{kind:?}: {total}");
            // No sequencer-initiated traces in a client-only scenario.
            assert!(dist.keys().all(|(seq, _, _)| !seq), "{kind:?}");
        }
    }

    #[test]
    fn describe_renders_run_lengths() {
        let t = TraceInfo {
            op: OpKind::Write,
            sequencer_initiated: false,
            messages: vec![MsgKind::WPer, MsgKind::WInv, MsgKind::WInv, MsgKind::WInv],
            cost: 33,
        };
        assert_eq!(t.describe(), "client write: W-PER, W-INV×3 (cc=33)");
        let free = TraceInfo {
            op: OpKind::Read,
            sequencer_initiated: true,
            messages: vec![],
            cost: 0,
        };
        assert_eq!(free.describe(), "sequencer read: local (cc=0)");
    }
}
