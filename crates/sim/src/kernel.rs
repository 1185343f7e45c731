//! The discrete-event kernel: FIFO channels, protocol-process queues,
//! cost accounting, and the two issue modes.

use crate::report::{CoherenceCheck, SimReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use repmem_core::{
    Actions, CopyState, Dest, Msg, MsgKind, NodeId, ObjectId, OpKind, OpTag, PayloadKind,
    ProtocolKind, QueueKind, Scenario, SystemParams, TraceSig, VoteAgreement,
};
use repmem_protocols::protocol;
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

/// Replica payload: a value register merged by version. A write's
/// value and version are both its tag plus one, so version 0 is the
/// initial value alone and no two writes tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ObjectData {
    value: u64,
    version: u64,
}

/// Write parameters travelling with a message or held by a pending op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Params {
    value: u64,
    version: u64,
}

/// A message plus its data payload.
#[derive(Debug, Clone)]
struct Envelope {
    msg: Msg,
    params: Option<Params>,
    copy: Option<ObjectData>,
}

/// One protocol process (one object at one node).
#[derive(Debug, Clone)]
struct Process {
    state: CopyState,
    owner: NodeId,
    enabled: bool,
    local_q: VecDeque<Envelope>,
    copy: ObjectData,
    /// Quorum round bookkeeping: votes counted, votes needed, and the
    /// op tag of the armed round (stragglers from a superseded round
    /// carry an older tag and must not count).
    votes: usize,
    need: usize,
    round: OpTag,
    /// Whether the armed round's counted votes carried one copy.
    agreement: VoteAgreement<ObjectData>,
}

/// An application operation in flight.
#[derive(Debug, Clone, Copy)]
struct Pending {
    tag: OpTag,
    op: OpKind,
    value: u64,
}

/// Bookkeeping for one issued operation.
#[derive(Debug, Clone, Copy)]
struct OpRecord {
    node: NodeId,
    op: OpKind,
    cost: u64,
    inflight: usize,
    completed: bool,
    measured: bool,
    issued_at: u64,
    completed_at: u64,
}

#[derive(Debug)]
enum EvKind {
    Deliver(NodeId, Envelope),
}

struct Core {
    sys: SystemParams,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    events: BTreeMap<(u64, u64), EvKind>,
    time: u64,
    seq: u64,
    pending: Vec<Option<Pending>>,
    ops: Vec<OpRecord>,
    reads: Vec<(OpTag, ObjectId, u64)>,
}

impl Core {
    fn schedule(&mut self, delay: u64, kind: EvKind) {
        let key = (self.time + delay, self.seq);
        self.seq += 1;
        self.heap.push(Reverse(key));
        self.events.insert(key, kind);
    }
}

struct SimHost<'a> {
    me: NodeId,
    /// The stepped process (its `state` is the caller's to update).
    proc_: &'a mut Process,
    core: &'a mut Core,
    env: &'a Envelope,
}

impl SimHost<'_> {
    /// The write parameters in scope: message-carried, or the initiator's
    /// pending operation when the machine runs at the initiator.
    fn context_params(&self) -> Params {
        if let Some(p) = self.env.params {
            return p;
        }
        if self.env.msg.initiator == self.me {
            if let Some(p) = self.core.pending[self.me.idx()] {
                return Params {
                    value: p.value,
                    version: p.tag.0 + 1,
                };
            }
        }
        panic!(
            "no write parameters in scope at {} for {:?} (initiator {})",
            self.me, self.env.msg.kind, self.env.msg.initiator
        );
    }
}

impl Actions for SimHost<'_> {
    fn me(&self) -> NodeId {
        self.me
    }
    fn home(&self) -> NodeId {
        self.core.sys.home()
    }
    fn n_nodes(&self) -> usize {
        self.core.sys.n_nodes()
    }
    fn owner(&self) -> NodeId {
        self.proc_.owner
    }
    fn set_owner(&mut self, owner: NodeId) {
        self.proc_.owner = owner;
    }
    fn push(&mut self, dest: Dest, kind: MsgKind, payload: PayloadKind) {
        let params = match payload {
            PayloadKind::Params => Some(self.context_params()),
            _ => None,
        };
        let copy = match payload {
            PayloadKind::Copy => Some(self.proc_.copy),
            _ => None,
        };
        let receivers: Vec<NodeId> = match dest {
            Dest::To(n) => vec![n],
            Dest::AllExcept(a, b) => (0..self.core.sys.n_nodes() as u16)
                .map(NodeId)
                .filter(|&n| n != a && Some(n) != b)
                .collect(),
        };
        let tag = self.env.msg.op;
        for r in receivers {
            if r != self.me {
                let rec = &mut self.core.ops[tag.0 as usize];
                rec.cost += self.core.sys.msg_cost(payload);
            }
            self.core.ops[tag.0 as usize].inflight += 1;
            let msg = Msg {
                kind,
                initiator: self.env.msg.initiator,
                sender: self.me,
                object: self.env.msg.object,
                queue: QueueKind::Distributed,
                payload,
                op: tag,
                epoch: 0,
            };
            self.core
                .schedule(1, EvKind::Deliver(r, Envelope { msg, params, copy }));
        }
    }
    fn change(&mut self) {
        let p = self.context_params();
        if p.version >= self.proc_.copy.version {
            self.proc_.copy = ObjectData {
                value: p.value,
                version: p.version,
            };
        }
    }
    fn install(&mut self) {
        let incoming = self.env.copy.expect("install without a copy payload");
        if incoming.version >= self.proc_.copy.version {
            self.proc_.copy = incoming;
        }
    }
    fn ret(&mut self) {
        let tag = self.env.msg.op;
        self.core
            .reads
            .push((tag, self.env.msg.object, self.proc_.copy.version));
        let now = self.core.time;
        let rec = &mut self.core.ops[tag.0 as usize];
        if !rec.completed {
            rec.completed = true;
            rec.completed_at = now;
        }
    }
    fn disable_local(&mut self) {
        self.proc_.enabled = false;
    }
    fn enable_local(&mut self) {
        self.proc_.enabled = true;
    }
    fn pending_op(&self) -> Option<OpKind> {
        self.core.pending[self.me.idx()].map(|p| p.op)
    }
    fn quorum_arm(&mut self, need: usize) {
        self.proc_.need = need;
        self.proc_.votes = 0;
        self.proc_.round = self.env.msg.op;
        self.proc_.agreement = VoteAgreement::default();
    }
    fn quorum_vote(&mut self) -> bool {
        if self.env.msg.op != self.proc_.round {
            return false; // straggler from a superseded round
        }
        self.proc_.votes += 1;
        if let Some(copy) = self.env.copy {
            self.proc_.agreement.count(copy);
        }
        self.proc_.votes == self.proc_.need
    }
    fn quorum_unanimous(&self) -> bool {
        self.proc_.agreement.unanimous_at(&self.proc_.copy)
    }
}

/// The simulator.
struct Sim {
    cfg: SimConfig,
    procs: Vec<Process>, // index = object * n_nodes + node
    core: Core,
    rng: StdRng,
    next_tag: u64,
    measure_from: u64,
    quota: u64,
    stale_reads: usize,
}

impl Sim {
    fn new(cfg: &SimConfig) -> Sim {
        let proto = protocol(cfg.protocol);
        let n = cfg.sys.n_nodes();
        let m = cfg.sys.m_objects;
        let home = cfg.sys.home();
        let mut procs = Vec::with_capacity(n * m);
        for _obj in 0..m {
            for node in 0..n as u16 {
                let role = if NodeId(node) == home {
                    repmem_core::Role::Sequencer
                } else {
                    repmem_core::Role::Client
                };
                procs.push(Process {
                    state: proto.initial_state(role),
                    owner: home,
                    enabled: true,
                    local_q: VecDeque::new(),
                    copy: ObjectData {
                        value: 0,
                        version: 0,
                    },
                    votes: 0,
                    need: 0,
                    round: OpTag(0),
                    agreement: VoteAgreement::default(),
                });
            }
        }
        Sim {
            cfg: cfg.clone(),
            procs,
            core: Core {
                sys: cfg.sys,
                heap: BinaryHeap::new(),
                events: BTreeMap::new(),
                time: 0,
                seq: 0,
                pending: vec![None; n],
                ops: Vec::new(),
                reads: Vec::new(),
            },
            rng: StdRng::seed_from_u64(cfg.seed),
            next_tag: 0,
            measure_from: cfg.warmup_ops as u64,
            quota: (cfg.warmup_ops + cfg.measured_ops) as u64,
            stale_reads: 0,
        }
    }

    #[inline]
    fn pidx(&self, object: ObjectId, node: NodeId) -> usize {
        object.idx() * self.cfg.sys.n_nodes() + node.idx()
    }

    fn step_process(&mut self, node: NodeId, env: Envelope) {
        let proto = protocol(self.cfg.protocol);
        let pidx = self.pidx(env.msg.object, node);
        let state = self.procs[pidx].state;
        let mut host = SimHost {
            me: node,
            proc_: &mut self.procs[pidx],
            core: &mut self.core,
            env: &env,
        };
        let next = proto.step(&mut host, state, &env.msg);
        self.procs[pidx].state = next;
    }

    /// Service the local queue of a process while it stays enabled.
    fn drain_local(&mut self, node: NodeId, object: ObjectId) {
        loop {
            let pidx = self.pidx(object, node);
            let proc = &mut self.procs[pidx];
            if !proc.enabled {
                return;
            }
            let Some(env) = proc.local_q.pop_front() else {
                return;
            };
            let tag = env.msg.op;
            self.step_process(node, env);
            self.try_complete_write(tag);
        }
    }

    fn try_complete_write(&mut self, tag: OpTag) {
        let now = self.core.time;
        let rec = &mut self.core.ops[tag.0 as usize];
        if rec.op == OpKind::Write && !rec.completed && rec.inflight == 0 {
            rec.completed = true;
            rec.completed_at = now;
        }
    }

    /// Issue one application operation. Returns its tag.
    fn issue(&mut self, ev: OpEvent) -> OpTag {
        let tag = OpTag(self.next_tag);
        self.next_tag += 1;
        let measured = tag.0 >= self.measure_from && tag.0 < self.quota;
        self.core.ops.push(OpRecord {
            node: ev.node,
            op: ev.op,
            cost: 0,
            inflight: 0,
            completed: false,
            measured,
            issued_at: self.core.time,
            completed_at: self.core.time,
        });
        self.core.pending[ev.node.idx()] = Some(Pending {
            tag,
            op: ev.op,
            value: tag.0 + 1,
        });
        let kind = match ev.op {
            OpKind::Read => MsgKind::RReq,
            OpKind::Write => MsgKind::WReq,
        };
        let is_home = ev.node == self.cfg.sys.home();
        let msg = Msg::app_request(kind, ev.node, is_home, ev.object, tag);
        let params = match ev.op {
            OpKind::Write => Some(Params {
                value: tag.0 + 1,
                version: tag.0 + 1,
            }),
            OpKind::Read => None,
        };
        let env = Envelope {
            msg,
            params,
            copy: None,
        };
        if is_home {
            // The sequencer's own requests flow through its distributed
            // queue.
            self.step_process(ev.node, env);
        } else {
            let pidx = self.pidx(ev.object, ev.node);
            self.procs[pidx].local_q.push_back(env);
            self.drain_local(ev.node, ev.object);
        }
        self.try_complete_write(tag);
        tag
    }

    /// Process every scheduled event (run to quiescence).
    fn drain(&mut self) {
        while let Some(Reverse(key)) = self.core.heap.pop() {
            self.core.time = key.0;
            let kind = self.core.events.remove(&key).expect("scheduled event");
            match kind {
                EvKind::Deliver(node, env) => {
                    let tag = env.msg.op;
                    let object = env.msg.object;
                    self.core.ops[tag.0 as usize].inflight -= 1;
                    self.step_process(node, env);
                    self.drain_local(node, object);
                    self.try_complete_write(tag);
                }
            }
        }
    }

    fn audit_coherence(&self) -> CoherenceCheck {
        let n = self.cfg.sys.n_nodes();
        let mut readable_copies = 0;
        let mut stale_readable = 0;
        let mut divergent_objects = 0;
        for obj in 0..self.cfg.sys.m_objects {
            let copies = &self.procs[obj * n..(obj + 1) * n];
            let latest = copies.iter().map(|p| p.copy.version).max().unwrap_or(0);
            let mut values: Vec<u64> = Vec::new();
            for p in copies {
                if p.state.readable() {
                    readable_copies += 1;
                    if p.copy.version != latest {
                        stale_readable += 1;
                    }
                    values.push(p.copy.value);
                }
            }
            values.sort_unstable();
            values.dedup();
            if values.len() > 1 {
                divergent_objects += 1;
            }
        }
        CoherenceCheck {
            readable_copies,
            stale_readable,
            divergent_objects,
        }
    }

    fn report(&self) -> SimReport {
        let mut trace_counts: BTreeMap<TraceSig, usize> = BTreeMap::new();
        let mut mix: BTreeMap<(NodeId, OpKind), usize> = BTreeMap::new();
        let mut total_cost = 0u64;
        let mut measured_ops = 0usize;
        let mut latencies: Vec<u64> = Vec::new();
        for rec in &self.core.ops {
            if !rec.measured {
                continue;
            }
            measured_ops += 1;
            total_cost += rec.cost;
            *trace_counts
                .entry(TraceSig {
                    initiator: rec.node,
                    op: rec.op,
                    cost: rec.cost,
                })
                .or_default() += 1;
            *mix.entry((rec.node, rec.op)).or_default() += 1;
            if rec.completed {
                latencies.push(rec.completed_at.saturating_sub(rec.issued_at));
            }
        }
        latencies.sort_unstable();
        SimReport {
            measured_ops,
            total_cost,
            trace_counts,
            mix,
            end_time: self.core.time,
            stale_reads: self.stale_reads,
            latencies,
            coherence: self.audit_coherence(),
        }
    }
}

/// Run a simulation of the given scenario.
pub fn simulate(cfg: &SimConfig, scenario: &Scenario) -> SimReport {
    match cfg.mode {
        IssueMode::Serialized => {
            let mut sim = Sim::new(cfg);
            let mut sampler = ScenarioSampler::new(scenario, cfg.sys.m_objects, cfg.seed ^ 0x5eed);
            let total = cfg.warmup_ops + cfg.measured_ops;
            for _ in 0..total {
                let ev = sampler.next_event();
                let tag = sim.issue(ev);
                sim.drain();
                let rec = &sim.core.ops[tag.0 as usize];
                assert!(
                    rec.completed,
                    "{:?}: op {tag:?} did not complete",
                    cfg.protocol
                );
                // Freshness audit: in serialized mode a read must observe
                // the newest applied version of its object.
                if rec.op == OpKind::Read {
                    let n = cfg.sys.n_nodes();
                    let latest = sim.procs[ev.object.idx() * n..(ev.object.idx() + 1) * n]
                        .iter()
                        .map(|p| p.copy.version)
                        .max()
                        .unwrap_or(0);
                    if let Some(&(_, _, seen)) =
                        sim.core.reads.iter().rev().find(|(t, _, _)| *t == tag)
                    {
                        if seen != latest {
                            sim.stale_reads += 1;
                        }
                    }
                }
            }
            sim.report()
        }
        IssueMode::Concurrent { mean_think } => {
            let mut sim = Sim::new(cfg);
            let mixes = per_node_mix(scenario);
            assert!(
                !mixes.is_empty(),
                "concurrent mode needs at least one active node"
            );
            // Per-node mean think times inversely proportional to weight.
            let total = cfg.warmup_ops + cfg.measured_ops;
            let mut issued = 0usize;
            let m = cfg.sys.m_objects as u32;
            // Kick off every node at a random offset.
            let mut next_issue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for (i, mx) in mixes.iter().enumerate() {
                let delay = exp_delay(&mut sim.rng, mean_think / mx.weight);
                next_issue.push(Reverse((delay, seq, i)));
                seq += 1;
            }
            // Event-interleaved issuing: issue the next op whose time has
            // come, then process kernel events up to that time.
            while issued < total {
                let Reverse((t, _, i)) = next_issue.pop().expect("active nodes");
                // Run kernel events scheduled before the issue time.
                while let Some(&Reverse(key)) = sim.core.heap.peek() {
                    if key.0 > t {
                        break;
                    }
                    let Reverse(key) = sim.core.heap.pop().expect("peeked");
                    sim.core.time = key.0;
                    let EvKind::Deliver(node, env) =
                        sim.core.events.remove(&key).expect("scheduled event");
                    let tag = env.msg.op;
                    let object = env.msg.object;
                    sim.core.ops[tag.0 as usize].inflight -= 1;
                    sim.step_process(node, env);
                    sim.drain_local(node, object);
                    sim.try_complete_write(tag);
                }
                sim.core.time = sim.core.time.max(t);
                let mx = mixes[i];
                // Nodes issue one op at a time: postpone if still busy.
                let busy = sim.core.pending[mx.node.idx()]
                    .map(|p| !sim.core.ops[p.tag.0 as usize].completed)
                    .unwrap_or(false);
                if busy {
                    next_issue.push(Reverse((t + 8, seq, i)));
                    seq += 1;
                    continue;
                }
                let op = if sim.rng.random::<f64>() < mx.write_fraction {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                let object = ObjectId(sim.rng.random_range(0..m));
                sim.issue(OpEvent {
                    node: mx.node,
                    object,
                    op,
                });
                issued += 1;
                let delay = exp_delay(&mut sim.rng, mean_think / mx.weight);
                next_issue.push(Reverse((t + delay, seq, i)));
                seq += 1;
            }
            sim.drain();
            sim.report()
        }
    }
}

/// Replay a fixed application trace (serialized), e.g. the app-shaped
/// workloads of `repmem-workload::apps`.
pub fn replay(cfg: &SimConfig, events: &[OpEvent]) -> SimReport {
    let mut sim = Sim::new(cfg);
    sim.quota = events.len() as u64;
    sim.measure_from = cfg.warmup_ops.min(events.len()) as u64;
    for ev in events {
        let tag = sim.issue(*ev);
        sim.drain();
        assert!(
            sim.core.ops[tag.0 as usize].completed,
            "{:?}: replayed op {tag:?} did not complete",
            cfg.protocol
        );
    }
    sim.report()
}

fn exp_delay(rng: &mut StdRng, mean: f64) -> u64 {
    let u: f64 = rng.random::<f64>().max(1e-12);
    (-u.ln() * mean).ceil().max(1.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_analytic::chain::{analyze, AnalyzeOpts};

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
        let analytic = analyze(
            protocol(ProtocolKind::WriteThrough),
            &cfg.sys,
            &scenario,
            AnalyzeOpts::default(),
        )
        .unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.05,
            "sim {} vs analytic {} (rel {rel})",
            report.acc(),
            analytic.acc
        );
        assert_eq!(report.stale_reads, 0);
        assert!(report.coherence.is_coherent(), "{:?}", report.coherence);
    }

    #[test]
    fn serialized_matches_analytic_for_all_protocols() {
        let scenario = Scenario::read_disturbance(0.3, 0.15, 2).unwrap();
        for kind in ProtocolKind::EVERY {
            let cfg = table7_cfg(kind, IssueMode::Serialized, 23);
            let report = simulate(&cfg, &scenario);
            let analytic =
                analyze(protocol(kind), &cfg.sys, &scenario, AnalyzeOpts::default()).unwrap();
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
            assert!(
                report.coherence.is_coherent(),
                "{kind:?}: {:?}",
                report.coherence
            );
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
            let analytic =
                analyze(protocol(kind), &cfg.sys, &scenario, AnalyzeOpts::default()).unwrap();
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
        let analytic = analyze(
            protocol(ProtocolKind::Quorum),
            &cfg.sys,
            &scenario,
            AnalyzeOpts::default(),
        )
        .unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.10,
            "sim {} vs analytic {} (rel {rel})",
            report.acc(),
            analytic.acc
        );
        assert!(report.coherence.is_coherent(), "{:?}", report.coherence);
    }

    #[test]
    fn deterministic_per_seed() {
        let scenario = Scenario::read_disturbance(0.2, 0.1, 2).unwrap();
        let cfg = table7_cfg(ProtocolKind::Berkeley, IssueMode::Serialized, 5);
        let a = simulate(&cfg, &scenario);
        let b = simulate(&cfg, &scenario);
        assert_eq!(a.acc(), b.acc());
        assert_eq!(a.trace_counts, b.trace_counts);
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
        let analytic = analyze(
            protocol(ProtocolKind::WriteThrough),
            &cfg.sys,
            &scenario,
            AnalyzeOpts::default(),
        )
        .unwrap();
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
            assert!(
                report.coherence.is_coherent(),
                "{kind:?}: {:?}",
                report.coherence
            );
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
                assert!(
                    report.coherence.is_coherent(),
                    "{kind:?} seed {seed}: {:?}",
                    report.coherence
                );
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
        let analytic = analyze(
            protocol(ProtocolKind::WriteOnce),
            &cfg.sys,
            &scenario,
            AnalyzeOpts::default(),
        )
        .unwrap();
        let rel = (report.acc() - analytic.acc).abs() / analytic.acc;
        assert!(
            rel < 0.06,
            "sim {} vs analytic {}",
            report.acc(),
            analytic.acc
        );
    }
}
