//! The discrete-event kernel: the runtime's single-threaded
//! [`StepCluster`] under a virtual clock, and the two issue modes.
//!
//! Every message leg takes one time unit: what a step sends at `t`
//! arrives at `t + 1`, so the envelope the links accepted first
//! (`StepCluster::oldest`) is always the next event. Each
//! leg carries the tag of the operation whose envelope was stepped, so
//! the change in the cost counter across a step is that operation's.
//! An operation completes when the cluster answers it.

use crate::report::SimReport;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repmem_core::{
    NodeId, ObjectId, OpKind, OpTag, ProtocolKind, Scenario, SystemParams, TraceSig,
};
use repmem_runtime::{ClusterDump, ClusterError, StepCluster};
use repmem_workload::{per_node_mix, OpEvent, ScenarioSampler};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// How application processes issue operations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IssueMode {
    /// One operation in flight globally; the next is issued after full
    /// quiescence. Matches the analytic model's independent-trials
    /// semantics exactly.
    Serialized,
    /// Every application process issues independently with exponential
    /// think times of the given mean (in channel-latency units), scaled
    /// inversely by the node's activity weight. This is the paper's
    /// simulation setup (§5.2).
    Concurrent {
        /// Mean think time for a node of weight 1.
        mean_think: f64,
    },
}

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// System parameters (`N`, `S`, `P`, `M`).
    pub sys: SystemParams,
    /// Coherence protocol under test.
    pub protocol: ProtocolKind,
    /// Issue mode.
    pub mode: IssueMode,
    /// Operations discarded before measurement (the paper uses 500).
    pub warmup_ops: usize,
    /// Operations measured (the paper uses ~1500).
    pub measured_ops: usize,
    /// RNG seed (runs are fully deterministic per seed).
    pub seed: u64,
}

/// One issued operation.
struct Op {
    /// Its trace, with what the steps of its own envelopes cost so far.
    sig: TraceSig,
    issued_at: u64,
    /// When the cluster answered it, and with what.
    done: Option<(u64, Bytes)>,
}

/// A cluster, its clock, and every operation issued on it.
struct Sim {
    cluster: StepCluster,
    now: u64,
    /// `(first, arrival)`: the sends numbered from `first` up to the next
    /// entry's `first` arrive at `arrival`.
    arrivals: VecDeque<(u64, u64)>,
    /// The cluster's cost counter and send count after the last step.
    cost: u64,
    sent: u64,
    ops: Vec<Op>,
}

impl Sim {
    fn new(cfg: &SimConfig) -> Self {
        Sim {
            cluster: StepCluster::new(cfg.sys, cfg.protocol),
            now: 0,
            arrivals: VecDeque::new(),
            cost: 0,
            sent: 0,
            ops: Vec::new(),
        }
    }

    /// After a step at `now` of operation `tag`'s envelope: charge it what
    /// the step cost, date what it sent, and record the operations the
    /// cluster answered.
    fn account(&mut self, tag: OpTag) -> Result<(), ClusterError> {
        let (cost, sent) = (self.cluster.total_cost(), self.cluster.accepted());
        self.ops[tag.0 as usize].sig.cost += cost - self.cost;
        if sent > self.sent {
            self.arrivals.push_back((self.sent, self.now + 1));
        }
        (self.cost, self.sent) = (cost, sent);
        for (id, answer) in self.cluster.poll() {
            self.ops[id as usize].done = Some((self.now, answer?));
        }
        Ok(())
    }

    /// Issue one application operation now. Returns its tag.
    fn issue(&mut self, ev: OpEvent) -> Result<u64, ClusterError> {
        let tag = self.ops.len() as u64;
        self.ops.push(Op {
            sig: TraceSig {
                initiator: ev.node,
                op: ev.op,
                cost: 0,
            },
            issued_at: self.now,
            done: None,
        });
        let data = (ev.op == OpKind::Write).then(|| written(tag));
        self.cluster.issue(ev.node, ev.op, ev.object, data, tag)?;
        self.account(OpTag(tag))?;
        Ok(tag)
    }

    /// Deliver the oldest envelope on the wire if it arrives by `until`,
    /// advancing the clock to its arrival. Returns whether one was.
    fn deliver_next(&mut self, until: u64) -> Result<bool, ClusterError> {
        let Some((seq, (from, to), tag)) = self.cluster.oldest() else {
            return Ok(false);
        };
        while self.arrivals.get(1).is_some_and(|&(first, _)| first <= seq) {
            self.arrivals.pop_front();
        }
        let (_, at) = *self.arrivals.front().expect("every send is dated");
        if at > until {
            return Ok(false);
        }
        self.now = at;
        assert!(self.cluster.deliver(from, to)?, "{from}->{to} had no head");
        self.account(tag)?;
        Ok(true)
    }

    /// Issue each event after the one before it has settled, and count
    /// the reads that did not return what their object's last (so
    /// newest) write wrote.
    fn serialized(&mut self, events: impl Iterator<Item = OpEvent>) -> Result<usize, ClusterError> {
        let mut newest = vec![Bytes::new(); self.cluster.system().m_objects];
        let mut stale_reads = 0;
        for ev in events {
            let tag = self.issue(ev)?;
            while self.deliver_next(u64::MAX)? {}
            let Some((_, value)) = &self.ops[tag as usize].done else {
                panic!("op {tag} did not complete");
            };
            match ev.op {
                OpKind::Write => newest[ev.object.idx()] = written(tag),
                OpKind::Read => stale_reads += usize::from(*value != newest[ev.object.idx()]),
            }
        }
        Ok(stale_reads)
    }

    /// Let every active node issue with exponential think times, one
    /// operation in flight per node, until the warm-up and measured
    /// operations are all issued; then drain.
    fn concurrent(
        &mut self,
        cfg: &SimConfig,
        scenario: &Scenario,
        mean_think: f64,
    ) -> Result<(), ClusterError> {
        let mixes = per_node_mix(scenario);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Each node's latest operation.
        let mut latest: Vec<Option<u64>> = vec![None; cfg.sys.n_nodes()];
        // Issue times, ties broken by push order. Every node starts at a
        // random offset.
        let mut next_issue = BinaryHeap::new();
        for (i, mx) in mixes.iter().enumerate() {
            let t = exp_delay(&mut rng, mean_think / mx.weight);
            next_issue.push(Reverse((t, i as u64, i)));
        }
        let mut seq = mixes.len() as u64;
        let mut issued = 0usize;
        while issued < cfg.warmup_ops + cfg.measured_ops {
            let Reverse((t, _, i)) = next_issue.pop().expect("an active node");
            while self.deliver_next(t)? {}
            self.now = self.now.max(t);
            let mx = mixes[i];
            // Nodes issue one op at a time: postpone if still busy.
            let busy =
                latest[mx.node.idx()].is_some_and(|tag| self.ops[tag as usize].done.is_none());
            let next = if busy {
                t + 8
            } else {
                let write = rng.random::<f64>() < mx.write_fraction;
                let ev = OpEvent {
                    node: mx.node,
                    op: if write { OpKind::Write } else { OpKind::Read },
                    object: ObjectId(rng.random_range(0..cfg.sys.m_objects as u32)),
                };
                latest[mx.node.idx()] = Some(self.issue(ev)?);
                issued += 1;
                t + exp_delay(&mut rng, mean_think / mx.weight)
            };
            next_issue.push(Reverse((next, seq, i)));
            seq += 1;
        }
        while self.deliver_next(u64::MAX)? {}
        Ok(())
    }

    /// The report over the operations from `measure_from` on.
    fn report(&self, measure_from: usize, stale_reads: usize) -> SimReport {
        let mut trace_counts: BTreeMap<TraceSig, usize> = BTreeMap::new();
        let mut mix: BTreeMap<(NodeId, OpKind), usize> = BTreeMap::new();
        let mut latencies: Vec<u64> = Vec::new();
        let measured = &self.ops[measure_from.min(self.ops.len())..];
        for rec in measured {
            *trace_counts.entry(rec.sig).or_default() += 1;
            *mix.entry((rec.sig.initiator, rec.sig.op)).or_default() += 1;
            if let Some((done_at, _)) = rec.done {
                latencies.push(done_at - rec.issued_at);
            }
        }
        latencies.sort_unstable();
        SimReport {
            measured_ops: measured.len(),
            total_cost: measured.iter().map(|rec| rec.sig.cost).sum(),
            trace_counts,
            mix,
            end_time: self.now,
            stale_reads,
            latencies,
            coherent: ClusterDump {
                copies: self.cluster.replicas().into(),
            }
            .is_coherent(),
        }
    }
}

/// What the write with tag `tag` writes: the tag itself.
fn written(tag: u64) -> Bytes {
    Bytes::copy_from_slice(&tag.to_le_bytes())
}

/// Run a simulation of the given scenario.
pub fn simulate(cfg: &SimConfig, scenario: &Scenario) -> SimReport {
    run(cfg, |sim| match cfg.mode {
        IssueMode::Serialized => {
            let mut sampler = ScenarioSampler::new(scenario, cfg.sys.m_objects, cfg.seed ^ 0x5eed);
            sim.serialized((0..cfg.warmup_ops + cfg.measured_ops).map(|_| sampler.next_event()))
        }
        IssueMode::Concurrent { mean_think } => {
            sim.concurrent(cfg, scenario, mean_think).map(|()| 0)
        }
    })
}

/// Replay a fixed application trace (serialized), e.g. the app-shaped
/// workloads of `repmem-workload::apps`.
pub fn replay(cfg: &SimConfig, events: &[OpEvent]) -> SimReport {
    run(cfg, |sim| sim.serialized(events.iter().copied()))
}

/// Drive a fresh cluster with `issue`, which returns the stale-read
/// count, and report on it. The simulated cluster has no faults, so a
/// step that fails is a bug.
fn run(cfg: &SimConfig, issue: impl FnOnce(&mut Sim) -> Result<usize, ClusterError>) -> SimReport {
    let mut sim = Sim::new(cfg);
    let stale_reads =
        issue(&mut sim).unwrap_or_else(|e| panic!("{:?}: a step failed: {e}", cfg.protocol));
    sim.report(cfg.warmup_ops, stale_reads)
}

fn exp_delay(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    (-u.ln() * mean).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_analytic::chain::analyze;
    use repmem_protocols::protocol;

    fn table7_cfg(protocol: ProtocolKind, mode: IssueMode, seed: u64) -> SimConfig {
        SimConfig {
            sys: SystemParams::table7(),
            protocol,
            mode,
            warmup_ops: 500,
            measured_ops: 4000,
            seed,
        }
    }

    #[test]
    fn serialized_matches_analytic_for_write_through() {
        let scenario = Scenario::read_disturbance(0.4, 0.1, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::WriteThrough, IssueMode::Serialized, 11);
        let report = simulate(&cfg, &scenario);
        let analytic = analyze(protocol(ProtocolKind::WriteThrough), &cfg.sys, &scenario).unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.05,
            "sim {} vs analytic {} (rel {rel})",
            report.acc(),
            analytic.acc
        );
        assert_eq!(report.stale_reads, 0);
        assert!(report.coherent);
    }

    #[test]
    fn serialized_matches_analytic_for_all_protocols() {
        let scenario = Scenario::read_disturbance(0.3, 0.15, 2).unwrap();
        for kind in ProtocolKind::EVERY {
            let cfg = table7_cfg(kind, IssueMode::Serialized, 23);
            let report = simulate(&cfg, &scenario);
            let analytic = analyze(protocol(kind), &cfg.sys, &scenario).unwrap();
            if analytic.acc == 0.0 {
                assert!(report.acc() < 1e-9, "{kind:?}");
                continue;
            }
            let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
            assert!(
                rel < 0.06,
                "{kind:?}: sim {} vs analytic {} (rel {rel})",
                report.acc(),
                analytic.acc
            );
            assert_eq!(report.stale_reads, 0, "{kind:?}: stale reads");
            assert!(report.coherent, "{kind:?}");
        }
    }

    #[test]
    fn concurrent_mode_stays_close_to_analytic() {
        // The paper's Table 7 finds < ±8 % between analysis and its
        // concurrent simulation.
        let scenario = Scenario::read_disturbance(0.4, 0.2, 2).unwrap();
        for kind in [ProtocolKind::WriteOnce, ProtocolKind::WriteThroughV] {
            let cfg = table7_cfg(kind, IssueMode::Concurrent { mean_think: 64.0 }, 7);
            let report = simulate(&cfg, &scenario);
            let analytic = analyze(protocol(kind), &cfg.sys, &scenario).unwrap();
            let rel = (report.acc() - analytic.acc).abs() / analytic.acc.max(1e-9);
            assert!(
                rel < 0.10,
                "{kind:?}: sim {} vs analytic {} (rel {rel})",
                report.acc(),
                analytic.acc
            );
        }
    }

    /// Reads at the one-round cost and at the write-back cost, from a
    /// Quorum run's trace counts.
    fn quorum_read_rounds(report: &SimReport, sys: &SystemParams) -> (usize, usize) {
        let n = sys.n_clients as u64;
        let mut rounds = (0, 0);
        for (sig, &count) in &report.trace_counts {
            match sig.op {
                OpKind::Read if sig.cost == n * (sys.s + 2) => rounds.0 += count,
                OpKind::Read if sig.cost == n * (2 * sys.s + 4) => rounds.1 += count,
                OpKind::Read => panic!("read trace {sig} is neither one round nor two"),
                OpKind::Write => assert_eq!(sig.cost, n * (sys.s + sys.p + 4), "{sig}"),
            }
        }
        rounds
    }

    #[test]
    fn serialized_quorum_prices_each_operation_like_the_closed_form() {
        // Serialized issue leaves every replica on the last write, so
        // every read is the one-round read and the measured acc is the
        // closed form at the measured write share, to rounding.
        let scenario = Scenario::read_disturbance(0.3, 0.15, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::Quorum, IssueMode::Serialized, 23);
        let report = simulate(&cfg, &scenario);
        let (one, two) = quorum_read_rounds(&report, &cfg.sys);
        assert!(one > 0);
        assert_eq!(two, 0, "a serialized read wrote back");
        let writes = report.measured_ops - one;
        let w = writes as f64 / report.measured_ops as f64;
        let closed = repmem_analytic::closed::quorum(&cfg.sys, w);
        assert!(
            (report.acc() - closed).abs() < 1e-9,
            "{} vs {closed}",
            report.acc()
        );
    }

    #[test]
    fn concurrent_quorum_reads_write_back_only_on_disagreement() {
        // Concurrent writes leave replicas mid-commit, so some reads see
        // split votes and pay the write-back; the acc stays within the
        // Table 7 band of the serialized closed form all the same.
        let scenario = Scenario::read_disturbance(0.4, 0.2, 2).unwrap();
        let cfg = table7_cfg(
            ProtocolKind::Quorum,
            IssueMode::Concurrent { mean_think: 64.0 },
            7,
        );
        let report = simulate(&cfg, &scenario);
        let (one, two) = quorum_read_rounds(&report, &cfg.sys);
        // 1 of 2 401 at this seed.
        assert!(
            two > 0 && two < one,
            "{two} of {} reads wrote back",
            one + two
        );
        let analytic = analyze(protocol(ProtocolKind::Quorum), &cfg.sys, &scenario).unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.10,
            "sim {} vs analytic {} (rel {rel})",
            report.acc(),
            analytic.acc
        );
        assert!(report.coherent);
    }

    #[test]
    fn deterministic_per_seed() {
        let scenario = Scenario::read_disturbance(0.2, 0.1, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::Berkeley, IssueMode::Serialized, 5);
        let a = simulate(&cfg, &scenario);
        let b = simulate(&cfg, &scenario);
        assert_eq!(a.acc(), b.acc());
        assert_eq!(a.trace_counts, b.trace_counts);
        // Concurrent runs step runtime code that keeps `HashMap`s; no
        // output may depend on their iteration order.
        for kind in ProtocolKind::EVERY {
            let cfg = table7_cfg(kind, IssueMode::Concurrent { mean_think: 16.0 }, 5);
            let a = simulate(&cfg, &scenario);
            let b = simulate(&cfg, &scenario);
            assert_eq!(a.acc().to_bits(), b.acc().to_bits(), "{kind:?}");
            assert_eq!(a.trace_counts, b.trace_counts, "{kind:?}");
            assert_eq!(a.latencies, b.latencies, "{kind:?}");
            assert_eq!(a.end_time, b.end_time, "{kind:?}");
            assert_eq!(a.coherent, b.coherent, "{kind:?}");
            let replicas = || {
                let mut sim = Sim::new(&cfg);
                sim.concurrent(&cfg, &scenario, 16.0).unwrap();
                let snaps = sim.cluster.replicas().into_iter().flatten();
                snaps
                    .map(|snap| (snap.state, snap.stamp(), snap.data))
                    .collect::<Vec<_>>()
            };
            assert_eq!(replicas(), replicas(), "{kind:?}");
        }
    }

    #[test]
    fn trace_counts_match_analytic_probabilities() {
        // Empirical trace frequencies converge to the analytic π_h
        // (paper §4.3) — checked coarsely for Write-Through.
        let scenario = Scenario::read_disturbance(0.3, 0.1, 1).unwrap();
        let cfg = SimConfig {
            sys: SystemParams::new(3, 100, 30),
            protocol: ProtocolKind::WriteThrough,
            mode: IssueMode::Serialized,
            warmup_ops: 500,
            measured_ops: 20_000,
            seed: 3,
        };
        let report = simulate(&cfg, &scenario);
        let analytic = analyze(protocol(ProtocolKind::WriteThrough), &cfg.sys, &scenario).unwrap();
        let emp = report.trace_probs();
        for (sig, p) in &analytic.trace_probs {
            if *p < 0.01 {
                continue;
            }
            let e = emp.get(sig).copied().unwrap_or(0.0);
            assert!((e - p).abs() < 0.02, "{sig}: empirical {e} vs analytic {p}");
        }
    }

    #[test]
    fn replay_app_traces_stays_coherent() {
        for kind in ProtocolKind::EVERY {
            let trace = repmem_workload::apps::grid_relaxation(3, 2, 5);
            let cfg = SimConfig {
                sys: SystemParams {
                    n_clients: 4,
                    s: 64,
                    p: 16,
                    m_objects: 6,
                },
                protocol: kind,
                mode: IssueMode::Serialized,
                warmup_ops: 0,
                measured_ops: trace.len(),
                seed: 1,
            };
            let report = replay(&cfg, &trace);
            assert_eq!(report.measured_ops, trace.len());
            assert_eq!(report.stale_reads, 0, "{kind:?}");
            assert!(report.coherent, "{kind:?}");
            assert!(report.total_cost > 0, "{kind:?}");
        }
    }

    #[test]
    fn latency_metrics_reflect_protocol_round_trips() {
        let scenario = Scenario::read_disturbance(0.4, 0.2, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::Synapse, IssueMode::Serialized, 3);
        let report = simulate(&cfg, &scenario);
        assert_eq!(report.latencies.len(), report.measured_ops);
        // Free local hits complete instantly; remote operations take at
        // least a round trip (2 channel hops).
        assert_eq!(report.latency_percentile(0.0), 0);
        assert!(report.latency_percentile(1.0) >= 2);
        assert!(report.mean_latency() > 0.0);
        // Percentiles are monotone.
        assert!(report.latency_percentile(0.5) <= report.latency_percentile(0.95));
    }

    #[test]
    fn concurrent_stress_all_protocols_and_seeds() {
        // Heavier contention than Table 7: all clients read AND write.
        let sys = SystemParams {
            n_clients: 5,
            s: 40,
            p: 10,
            m_objects: 3,
        };
        let scenario = Scenario::multiple_centers(0.5, 4).unwrap();
        for kind in ProtocolKind::EVERY {
            for seed in [1u64, 99, 12345] {
                let cfg = SimConfig {
                    sys,
                    protocol: kind,
                    mode: IssueMode::Concurrent { mean_think: 16.0 },
                    warmup_ops: 200,
                    measured_ops: 2000,
                    seed,
                };
                let report = simulate(&cfg, &scenario);
                assert_eq!(report.measured_ops, 2000, "{kind:?} seed {seed}");
                assert!(report.coherent, "{kind:?} seed {seed}");
            }
        }
    }

    #[test]
    fn multi_object_accounting_is_per_operation() {
        // With M homogeneous objects the measured acc equals the
        // single-object analytic acc (paper Table 7 setup, M=20).
        let scenario = Scenario::read_disturbance(0.4, 0.1, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::WriteOnce, IssueMode::Serialized, 17);
        assert_eq!(cfg.sys.m_objects, 20);
        let report = simulate(&cfg, &scenario);
        let analytic = analyze(protocol(ProtocolKind::WriteOnce), &cfg.sys, &scenario).unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.06,
            "sim {} vs analytic {}",
            report.acc(),
            analytic.acc
        );
    }
}
