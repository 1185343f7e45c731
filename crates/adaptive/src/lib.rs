//! # repmem-adaptive
//!
//! Self-tuning coherence-protocol selection — the future work the paper's
//! conclusion sketches: *"the model can be applied to implement a
//! classifier for the development of adaptive data replication coherence
//! protocols with self-tuning capability based on run-time information."*
//!
//! Three pieces:
//!
//! * [`WorkloadEstimator`] — estimates the workload's event probabilities
//!   online from the observed operation stream (exponentially decayed
//!   counts, so phase changes are picked up quickly);
//! * [`Classifier`] — turns an estimated [`Scenario`] into the
//!   minimum-cost protocol using the analytic chain engine (which accepts
//!   *any* scenario, not just the three canonical deviations);
//! * [`AdaptivePlan`] — evaluates an adaptive schedule over a
//!   phase-structured workload against every static protocol choice,
//!   charging a replica-redistribution penalty of `N·(S+1)` cost units
//!   per protocol switch (every client re-fetches a coherent copy).

use repmem_analytic::chain::analyze;
use repmem_core::{ActorSpec, NodeId, OpKind, ProtocolKind, Scenario, SystemParams};
use repmem_protocols::protocol;
use repmem_workload::OpEvent;
use std::collections::BTreeMap;

/// Online estimator of per-node read/write event probabilities.
///
/// Maintains exponentially decayed per-(node, op) weights: after each
/// observed operation every weight is multiplied by `1 − 1/window` and
/// the observed event's weight is incremented, so the estimate tracks
/// roughly the last `window` operations.
#[derive(Debug, Clone)]
pub struct WorkloadEstimator {
    window: f64,
    weights: BTreeMap<(NodeId, OpKind), f64>,
    total: f64,
}

impl WorkloadEstimator {
    /// A fresh estimator with the given effective window (operations).
    pub fn new(window: usize) -> Self {
        assert!(window >= 1);
        WorkloadEstimator {
            window: window as f64,
            weights: BTreeMap::new(),
            total: 0.0,
        }
    }

    /// Observe one operation.
    pub fn observe(&mut self, node: NodeId, op: OpKind) {
        let decay = 1.0 - 1.0 / self.window;
        for w in self.weights.values_mut() {
            *w *= decay;
        }
        self.total = self.total * decay + 1.0;
        *self.weights.entry((node, op)).or_insert(0.0) += 1.0;
    }

    /// Observe a whole event (object identity is irrelevant to the
    /// homogeneous-objects model).
    pub fn observe_event(&mut self, ev: &OpEvent) {
        self.observe(ev.node, ev.op);
    }

    /// The estimated scenario, or `None` before any observation.
    pub fn scenario(&self) -> Option<Scenario> {
        if self.total <= 0.0 {
            return None;
        }
        let mut actors: BTreeMap<NodeId, ActorSpec> = BTreeMap::new();
        for (&(node, op), &w) in &self.weights {
            let spec = actors.entry(node).or_insert(ActorSpec {
                node,
                read_prob: 0.0,
                write_prob: 0.0,
            });
            match op {
                OpKind::Read => spec.read_prob += w / self.total,
                OpKind::Write => spec.write_prob += w / self.total,
            }
        }
        // Renormalize the tiny numeric drift of the decayed sums.
        let sum: f64 = actors.values().map(ActorSpec::total).sum();
        let mut specs: Vec<ActorSpec> = actors
            .into_values()
            .filter(|a| a.total() > 1e-9)
            .map(|mut a| {
                a.read_prob /= sum;
                a.write_prob /= sum;
                a
            })
            .collect();
        if specs.is_empty() {
            return None;
        }
        // Guarantee exact normalization for Scenario::new.
        let s: f64 = specs.iter().map(ActorSpec::total).sum();
        specs[0].read_prob += 1.0 - s;
        Scenario::new(specs).ok()
    }
}

/// The analytic-model classifier: ranks protocols for a scenario.
#[derive(Debug, Clone, Copy)]
pub struct Classifier {
    /// System parameters the costs are computed under.
    pub sys: SystemParams,
}

impl Classifier {
    /// Predicted steady-state cost of one protocol under a scenario.
    pub fn cost(&self, kind: ProtocolKind, scenario: &Scenario) -> f64 {
        analyze(protocol(kind), &self.sys, scenario)
            .map(|r| r.acc)
            .unwrap_or(f64::INFINITY)
    }

    /// All eight protocols ranked by predicted cost (cheapest first).
    pub fn rank(&self, scenario: &Scenario) -> Vec<(ProtocolKind, f64)> {
        let mut v: Vec<(ProtocolKind, f64)> = ProtocolKind::ALL
            .into_iter()
            .map(|k| (k, self.cost(k, scenario)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }

    /// The minimum-cost protocol for a scenario.
    pub fn best(&self, scenario: &Scenario) -> (ProtocolKind, f64) {
        self.rank(scenario)[0]
    }
}

/// One phase of a phase-structured workload.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Steady-state scenario of the phase.
    pub scenario: Scenario,
    /// Number of operations the phase lasts.
    pub ops: usize,
}

/// The evaluated adaptive schedule.
#[derive(Debug, Clone)]
pub struct AdaptivePlan {
    /// Chosen protocol and predicted per-op cost for each phase.
    pub choices: Vec<(ProtocolKind, f64)>,
    /// Total predicted cost of the adaptive schedule, including switch
    /// penalties.
    pub adaptive_cost: f64,
    /// Number of protocol switches.
    pub switches: usize,
    /// Total predicted cost of each static single-protocol choice.
    pub static_costs: Vec<(ProtocolKind, f64)>,
}

impl AdaptivePlan {
    /// The best static protocol and its total cost.
    pub fn best_static(&self) -> (ProtocolKind, f64) {
        self.static_costs
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("eight static candidates")
    }

    /// Cost ratio adaptive / best-static (< 1 means adaptation pays off).
    pub fn improvement(&self) -> f64 {
        let (_, s) = self.best_static();
        if s == 0.0 {
            if self.adaptive_cost == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.adaptive_cost / s
        }
    }
}

/// Cost charged per protocol switch: every client re-fetches a coherent
/// copy (`N` copy transfers).
pub fn switch_penalty(sys: &SystemParams) -> f64 {
    sys.n_clients as f64 * (sys.s as f64 + 1.0)
}

/// A per-object-class protocol assignment over a composite workload (the
/// paper's model is per object, so nothing forces all objects onto one
/// protocol).
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Chosen protocol and per-operation cost for each class, in input
    /// order.
    pub per_class: Vec<(ProtocolKind, f64)>,
    /// System-level `acc` of the mixed assignment (weighted by class
    /// access weights).
    pub mixed_acc: f64,
    /// The best *uniform* choice (one protocol for every object) and its
    /// system-level `acc`.
    pub best_uniform: (ProtocolKind, f64),
}

impl Assignment {
    /// `mixed_acc / best_uniform_acc` — `< 1` when heterogeneous objects
    /// benefit from per-object protocols.
    pub fn improvement(&self) -> f64 {
        if self.best_uniform.1 == 0.0 {
            1.0
        } else {
            self.mixed_acc / self.best_uniform.1
        }
    }
}

/// Choose the cheapest protocol per object class and compare against the
/// best uniform assignment.
pub fn assign(
    sys: &SystemParams,
    classes: &[repmem_analytic::composite::ObjectClass],
) -> Assignment {
    repmem_analytic::composite::check_weights(classes).expect("valid class weights");
    let classifier = Classifier { sys: *sys };
    let per_class: Vec<(ProtocolKind, f64)> = classes
        .iter()
        .map(|c| classifier.best(&c.scenario))
        .collect();
    let mixed_acc = classes
        .iter()
        .zip(&per_class)
        .map(|(c, (_, acc))| c.weight * acc)
        .sum();
    let best_uniform = ProtocolKind::ALL
        .into_iter()
        .map(|k| {
            let acc = repmem_analytic::composite::composite_acc(protocol(k), sys, classes)
                .unwrap_or(f64::INFINITY);
            (k, acc)
        })
        .min_by(|l, r| l.1.total_cmp(&r.1))
        .expect("eight protocols");
    Assignment {
        per_class,
        mixed_acc,
        best_uniform,
    }
}

/// Evaluate the adaptive schedule over phases: per phase, the classifier
/// picks the cheapest protocol under that phase's scenario; switches cost
/// [`switch_penalty`].
pub fn plan(sys: &SystemParams, phases: &[Phase]) -> AdaptivePlan {
    assert!(!phases.is_empty(), "need at least one phase");
    let classifier = Classifier { sys: *sys };
    let mut choices = Vec::with_capacity(phases.len());
    let mut adaptive_cost = 0.0;
    let mut switches = 0usize;
    let mut prev: Option<ProtocolKind> = None;
    for phase in phases {
        let (kind, acc) = classifier.best(&phase.scenario);
        if let Some(p) = prev {
            if p != kind {
                switches += 1;
                adaptive_cost += switch_penalty(sys);
            }
        }
        prev = Some(kind);
        adaptive_cost += acc * phase.ops as f64;
        choices.push((kind, acc));
    }
    let static_costs = ProtocolKind::ALL
        .into_iter()
        .map(|k| {
            let total: f64 = phases
                .iter()
                .map(|ph| classifier.cost(k, &ph.scenario) * ph.ops as f64)
                .sum();
            (k, total)
        })
        .collect();
    AdaptivePlan {
        choices,
        adaptive_cost,
        switches,
        static_costs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> SystemParams {
        SystemParams::new(10, 200, 30)
    }

    #[test]
    fn estimator_recovers_read_disturbance() {
        let scenario = Scenario::read_disturbance(0.3, 0.05, 2).unwrap();
        let mut sampler = repmem_workload::ScenarioSampler::new(&scenario, 1, 9);
        let mut est = WorkloadEstimator::new(4000);
        for _ in 0..20_000 {
            est.observe_event(&sampler.next_event());
        }
        let recovered = est.scenario().expect("estimate available");
        for actor in &scenario.actors {
            let found = recovered
                .actors
                .iter()
                .find(|a| a.node == actor.node)
                .unwrap_or_else(|| panic!("actor {} missing", actor.node));
            assert!((found.read_prob - actor.read_prob).abs() < 0.05);
            assert!((found.write_prob - actor.write_prob).abs() < 0.05);
        }
    }

    #[test]
    fn estimator_tracks_phase_changes() {
        let mut est = WorkloadEstimator::new(200);
        // Phase 1: node 0 writes only.
        for _ in 0..2000 {
            est.observe(NodeId(0), OpKind::Write);
        }
        // Phase 2: node 1 reads only.
        for _ in 0..2000 {
            est.observe(NodeId(1), OpKind::Read);
        }
        let s = est.scenario().unwrap();
        let w0 = s
            .actors
            .iter()
            .find(|a| a.node == NodeId(0))
            .map(|a| a.total())
            .unwrap_or(0.0);
        let r1 = s
            .actors
            .iter()
            .find(|a| a.node == NodeId(1))
            .map(|a| a.total())
            .unwrap_or(0.0);
        assert!(r1 > 0.99, "new phase should dominate: {r1}");
        assert!(w0 < 0.01, "old phase should have decayed: {w0}");
    }

    #[test]
    fn classifier_prefers_update_protocols_for_read_heavy_sharing() {
        // Many readers of a rarely-written object at small P: updates win
        // over invalidation storms... with S large, re-fetches are
        // expensive while updates cost only N(P+1) per (rare) write.
        let sys = SystemParams::new(10, 5000, 2);
        let scenario = Scenario::read_disturbance(0.02, 0.09, 10).unwrap();
        let c = Classifier { sys };
        let (best, _) = c.best(&scenario);
        assert!(
            matches!(best, ProtocolKind::Dragon),
            "expected Dragon for read-heavy sharing, got {best:?}"
        );
    }

    #[test]
    fn classifier_prefers_ownership_for_private_writes() {
        // One node does all the work: Berkeley/Synapse-family are free.
        let sys = sys();
        let scenario = Scenario::ideal(0.5).unwrap();
        let c = Classifier { sys };
        let (best, cost) = c.best(&scenario);
        assert!(
            cost.abs() < 1e-9,
            "steady-state cost should vanish, got {cost}"
        );
        assert!(matches!(
            best,
            ProtocolKind::WriteOnce
                | ProtocolKind::Synapse
                | ProtocolKind::Illinois
                | ProtocolKind::Berkeley
        ));
    }

    #[test]
    fn adaptive_beats_every_static_choice_on_shifting_phases() {
        let sys = sys();
        let phases = vec![
            // Phase A: single-owner writes — ownership protocols free.
            Phase {
                scenario: Scenario::ideal(0.6).unwrap(),
                ops: 20_000,
            },
            // Phase B: widely-shared read-mostly object — updates cheap.
            Phase {
                scenario: Scenario::read_disturbance(0.02, 0.11, 8).unwrap(),
                ops: 20_000,
            },
            // Phase C: multiple active writers.
            Phase {
                scenario: Scenario::multiple_centers(0.5, 4).unwrap(),
                ops: 20_000,
            },
        ];
        let plan = plan(&sys, &phases);
        assert_eq!(plan.choices.len(), 3);
        let (static_kind, static_cost) = plan.best_static();
        assert!(
            plan.adaptive_cost < static_cost,
            "adaptive {} not better than static {static_kind:?} {static_cost}",
            plan.adaptive_cost
        );
        assert!(plan.switches >= 1);
        assert!(plan.improvement() < 1.0);
    }

    #[test]
    fn per_object_assignment_beats_uniform_on_heterogeneous_objects() {
        use repmem_analytic::composite::ObjectClass;
        // Pick S ≫ N·P so invalidation re-fetches dwarf update traffic on
        // the shared class, while the private class is free for
        // ownership protocols but expensive for update protocols — no
        // single protocol wins both.
        let sys = SystemParams::new(10, 5000, 2);
        let classes = vec![
            ObjectClass::new("private hot", Scenario::ideal(0.7).unwrap(), 0.5),
            ObjectClass::new(
                "read-shared",
                Scenario::read_disturbance(0.03, 0.09, 8).unwrap(),
                0.5,
            ),
        ];
        let a = assign(&sys, &classes);
        assert_eq!(a.per_class.len(), 2);
        // Private class: an ownership protocol at zero cost.
        assert_eq!(a.per_class[0].1, 0.0);
        // Shared class: Dragon (cheap updates at tiny P).
        assert_eq!(a.per_class[1].0, ProtocolKind::Dragon);
        assert!(
            a.mixed_acc < a.best_uniform.1 * 0.8,
            "mixed {} vs uniform {:?}",
            a.mixed_acc,
            a.best_uniform
        );
        assert!(a.improvement() < 0.8);
    }

    #[test]
    fn switch_penalty_scales_with_system() {
        let a = switch_penalty(&SystemParams::new(4, 100, 10));
        let b = switch_penalty(&SystemParams::new(8, 100, 10));
        assert!((b / a - 2.0).abs() < 1e-12);
    }
}
