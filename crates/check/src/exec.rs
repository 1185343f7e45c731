//! Deterministic schedule execution: configs, events, and the [`Exec`]
//! machine that replays an event list over a [`StepCluster`].
//!
//! A *schedule* is a sequence of [`Ev`] steps. Replaying the same
//! schedule over the same [`CheckConfig`] always produces the same
//! cluster state, the same operation results, and the same
//! [`Exec::fingerprint`] — the property the explorer, the shrinker and
//! the committed artifacts all lean on.

use crate::Fnv;
use bytes::Bytes;
use repmem_core::{MsgKind, NodeId, ObjectId, OpKind, ProtocolKind, SystemParams};
use repmem_net::{Envelope, SchedAction};
use repmem_runtime::{ClusterError, StepCluster};
use std::collections::HashMap;

/// One step of a client's scripted program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgOp {
    /// Read the object.
    Read(u32),
    /// Write the object (the value is derived from client and step).
    Write(u32),
}

impl ProgOp {
    /// The object this step touches.
    pub fn object(self) -> ObjectId {
        match self {
            ProgOp::Read(o) | ProgOp::Write(o) => ObjectId(o),
        }
    }

    /// Read or write.
    pub fn kind(self) -> OpKind {
        match self {
            ProgOp::Read(_) => OpKind::Read,
            ProgOp::Write(_) => OpKind::Write,
        }
    }
}

/// A deliberately seeded transport-axiom violation, for proving the
/// checker catches protocols whose correctness leans on an axiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// The transport keeps its axioms (the normal case).
    None,
    /// Silently lose the `nth` (1-based) would-be delivery whose head
    /// envelope has this message kind: a reliable-delivery violation.
    DropKind {
        /// Message kind to target.
        kind: MsgKind,
        /// Which matching delivery to drop, 1-based.
        nth: u32,
    },
    /// At the `nth` (1-based) delivery step, rotate the link's head
    /// envelope to the back first: a per-link FIFO violation.
    ReorderLink {
        /// Which delivery step to corrupt, 1-based.
        nth: u32,
    },
}

/// Everything that defines one checking workload: topology, protocol,
/// per-client programs, scripted fault palette, optional mutation, and
/// the exploration depth bound.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Coherence protocol under check.
    pub kind: ProtocolKind,
    /// `N` — number of client nodes (the sequencer is node `N`).
    pub n_clients: usize,
    /// `M` — number of shared objects.
    pub m_objects: usize,
    /// `S` — copy-shipping cost parameter (cost metering only).
    pub s: u64,
    /// `P` — parameter-shipping cost parameter (cost metering only).
    pub p: u64,
    /// `program[c]` — the scripted operation sequence of node `c`: one
    /// row per client, plus optionally row `N`, the home's.
    pub program: Vec<Vec<ProgOp>>,
    /// Fault actions, fired in order by `Ev::Fault` steps.
    pub faults: Vec<SchedAction>,
    /// Seeded transport-axiom violation, if any.
    pub mutation: Mutation,
    /// Maximum schedule length the explorer follows.
    pub max_depth: usize,
}

impl CheckConfig {
    /// A config with the standard litmus program (see
    /// [`CheckConfig::litmus_program`]), no faults, no mutation.
    pub fn new(kind: ProtocolKind, n_clients: usize, m_objects: usize, ops: usize) -> CheckConfig {
        CheckConfig {
            kind,
            n_clients,
            m_objects,
            s: 16,
            p: 4,
            program: CheckConfig::litmus_program(n_clients, m_objects, ops),
            faults: Vec::new(),
            mutation: Mutation::None,
            max_depth: 64,
        }
    }

    /// The standard cross-object litmus program: step `j` of client `c`
    /// touches object `(c + j) % m`, writing on even steps and reading
    /// on odd ones. For 2 clients x 2 objects x 2 ops this is the
    /// message-passing shape `c0: W(0) R(1)` / `c1: W(1) R(0)`.
    pub fn litmus_program(n_clients: usize, m_objects: usize, ops: usize) -> Vec<Vec<ProgOp>> {
        (0..n_clients)
            .map(|c| {
                (0..ops)
                    .map(|j| {
                        let obj = ((c + j) % m_objects.max(1)) as u32;
                        if j % 2 == 0 {
                            ProgOp::Write(obj)
                        } else {
                            ProgOp::Read(obj)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The re-read workload: client 0 reads object 0 twice while every
    /// other client writes it once. Read-after-read is the shape the
    /// litmus program lacks (it never reads a copy it already holds),
    /// and the one where the runtime serves the second read from its
    /// replica table — possibly just ahead of the writers' waves.
    pub fn reread(kind: ProtocolKind, n_clients: usize) -> CheckConfig {
        let mut cfg = CheckConfig::new(kind, n_clients, 1, 0);
        cfg.program = (0..n_clients)
            .map(|c| match c {
                0 => vec![ProgOp::Read(0), ProgOp::Read(0)],
                _ => vec![ProgOp::Write(0)],
            })
            .collect();
        cfg
    }

    /// The double-write workload: every client reads object 0, writes it
    /// — client 0 twice in a row — and reads it back. A second write to
    /// a copy the first one made exclusive is the silent local
    /// transition of the ownership protocols (Write-Once's
    /// `RESERVED → DIRTY`), raced here by the other clients' writes from
    /// copies that are valid when written and stale when ordered. The
    /// litmus program writes each object once per client and never gets
    /// there.
    pub fn rewrite(kind: ProtocolKind, n_clients: usize) -> CheckConfig {
        use ProgOp::{Read, Write};
        let mut cfg = CheckConfig::new(kind, n_clients, 1, 0);
        cfg.program = (0..n_clients)
            .map(|c| match c {
                0 => vec![Read(0), Write(0), Write(0), Read(0)],
                _ => vec![Read(0), Write(0), Read(0)],
            })
            .collect();
        cfg
    }

    /// The home-writes workload: every node, the home included, writes
    /// object 0 once. The home's program row (node `n_clients`) is the
    /// shape the client-only programs never issue: its own write, raced
    /// by client writes through the sequencer it runs.
    pub fn home_writes(kind: ProtocolKind, n_clients: usize) -> CheckConfig {
        let mut cfg = CheckConfig::new(kind, n_clients, 1, 0);
        cfg.program = vec![vec![ProgOp::Write(0)]; n_clients + 1];
        cfg
    }

    /// The unique value written by step `index` of `client`: two bytes
    /// `[client, index]`, distinct from every other write and from the
    /// empty initial value.
    pub fn write_value(client: u16, index: usize) -> Bytes {
        Bytes::from(vec![client as u8, index as u8])
    }

    /// Human name for a value produced by [`CheckConfig::write_value`]
    /// (or the initial empty value), for violation reports.
    pub fn value_name(value: &Bytes) -> String {
        match value.as_ref() {
            [] => "init".to_owned(),
            [c, i] => format!("c{c}#{i}"),
            other => format!("{other:?}"),
        }
    }

    /// The paper-model system parameters this config describes.
    pub fn sys(&self) -> SystemParams {
        SystemParams {
            n_clients: self.n_clients,
            s: self.s,
            p: self.p,
            m_objects: self.m_objects,
        }
    }
}

/// One schedule step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ev {
    /// Client `c` issues its next program operation.
    Issue(u16),
    /// Deliver the head envelope of directed link `(from, to)`.
    Deliver(u16, u16),
    /// Fire fault `i` of the config's palette (must be the next one).
    Fault(u16),
}

impl std::fmt::Display for Ev {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ev::Issue(c) => write!(f, "issue {c}"),
            Ev::Deliver(a, b) => write!(f, "deliver {a} {b}"),
            Ev::Fault(i) => write!(f, "fault {i}"),
        }
    }
}

/// Completion status of one scripted operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpStatus {
    /// Issued, not yet completed.
    InFlight,
    /// Completed successfully.
    Done,
    /// Completed with an error (e.g. degraded to `NodeDown`).
    Failed(String),
}

/// The observed history of one scripted operation.
#[derive(Debug, Clone)]
pub struct OpRec {
    /// Issuing client.
    pub client: u16,
    /// Position in the client's program.
    pub index: usize,
    /// Read or write.
    pub kind: OpKind,
    /// Object touched.
    pub object: u32,
    /// The value written (writes only).
    pub write_value: Option<Bytes>,
    /// The value observed (completed reads only).
    pub read_value: Option<Bytes>,
    /// Where the operation stands.
    pub status: OpStatus,
}

/// A schedule in mid-execution: the step cluster plus the bookkeeping
/// (program counters, fault cursor, operation records) the checks need.
pub struct Exec {
    cfg: CheckConfig,
    cluster: StepCluster,
    pos: Vec<usize>,
    next_fault: usize,
    records: Vec<OpRec>,
    by_tag: HashMap<u64, usize>,
    deliver_steps: u32,
    kind_matches: u32,
    depth: usize,
}

impl Exec {
    /// A fresh execution of `cfg` with no steps taken.
    pub fn new(cfg: &CheckConfig) -> Exec {
        let cluster =
            StepCluster::new(cfg.sys(), cfg.kind).expect("binding the sched transport cannot fail");
        Exec {
            cfg: cfg.clone(),
            cluster,
            pos: vec![0; cfg.program.len()],
            next_fault: 0,
            records: Vec::new(),
            by_tag: HashMap::new(),
            deliver_steps: 0,
            kind_matches: 0,
            depth: 0,
        }
    }

    /// Replay `events`, skipping steps that are not applicable in the
    /// replayed context and stopping at a poisoning step.
    pub fn replay(cfg: &CheckConfig, events: &[Ev]) -> Exec {
        Exec::replay_traced(cfg, events).0
    }

    /// Like [`Exec::replay`], but also returns the subsequence of
    /// events that actually applied (the canonical form the shrinker
    /// emits).
    pub fn replay_traced(cfg: &CheckConfig, events: &[Ev]) -> (Exec, Vec<Ev>) {
        let mut exec = Exec::new(cfg);
        let mut applied = Vec::with_capacity(events.len());
        for &ev in events {
            match exec.apply(ev) {
                Ok(true) => applied.push(ev),
                Ok(false) => {}
                Err(_) => {
                    // The poisoning step is part of the schedule.
                    applied.push(ev);
                    break;
                }
            }
        }
        (exec, applied)
    }

    /// The config this execution runs.
    pub fn config(&self) -> &CheckConfig {
        &self.cfg
    }

    /// The underlying step cluster (state extraction for the checks).
    pub fn cluster(&self) -> &StepCluster {
        &self.cluster
    }

    /// Observed operation records so far, in issue order.
    pub fn records(&self) -> &[OpRec] {
        &self.records
    }

    /// Number of steps applied so far.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Completion key (and protocol tag) for step `index` of `client`.
    fn tag(client: u16, index: usize) -> u64 {
        (u64::from(client) << 32) | index as u64
    }

    /// The steps applicable in the current state, in deterministic
    /// order: issues by client, then the next scripted fault, then
    /// deliveries by link. Empty exactly when the schedule is terminal.
    pub fn enabled(&self) -> Vec<Ev> {
        if self.cluster.poisoned().is_some() {
            return Vec::new();
        }
        let mut evs = Vec::new();
        for (c, prog) in self.cfg.program.iter().enumerate() {
            if let Some(op) = prog.get(self.pos[c]) {
                if self.cluster.can_issue(NodeId(c as u16), op.object()) {
                    evs.push(Ev::Issue(c as u16));
                }
            }
        }
        if self.next_fault < self.cfg.faults.len() {
            evs.push(Ev::Fault(self.next_fault as u16));
        }
        for (from, to) in self.cluster.links_ready() {
            evs.push(Ev::Deliver(from.0, to.0));
        }
        evs
    }

    /// Terminal: no step is applicable.
    pub fn is_terminal(&self) -> bool {
        self.enabled().is_empty()
    }

    /// Apply one step. `Ok(false)` means the step was not applicable
    /// here (a no-op — replay tolerance for shrunk schedules); an error
    /// means the step poisoned the cluster (the error is also recorded
    /// in the cluster, so checks still see it).
    pub fn apply(&mut self, ev: Ev) -> Result<bool, ClusterError> {
        match ev {
            Ev::Issue(c) => self.apply_issue(c),
            Ev::Fault(i) => {
                if usize::from(i) != self.next_fault || self.next_fault >= self.cfg.faults.len() {
                    return Ok(false);
                }
                self.cluster.fault(self.cfg.faults[self.next_fault]);
                self.next_fault += 1;
                self.depth += 1;
                Ok(true)
            }
            Ev::Deliver(from, to) => self.apply_deliver(NodeId(from), NodeId(to)),
        }
    }

    fn apply_issue(&mut self, c: u16) -> Result<bool, ClusterError> {
        let Some(prog) = self.cfg.program.get(usize::from(c)) else {
            return Ok(false);
        };
        let index = self.pos[usize::from(c)];
        let Some(&op) = prog.get(index) else {
            return Ok(false);
        };
        let node = NodeId(c);
        if !self.cluster.can_issue(node, op.object()) {
            return Ok(false);
        }
        let write_value = match op {
            ProgOp::Write(_) => Some(CheckConfig::write_value(c, index)),
            ProgOp::Read(_) => None,
        };
        let tag = Exec::tag(c, index);
        self.records.push(OpRec {
            client: c,
            index,
            kind: op.kind(),
            object: op.object().0,
            write_value: write_value.clone(),
            read_value: None,
            status: OpStatus::InFlight,
        });
        self.by_tag.insert(tag, self.records.len() - 1);
        self.pos[usize::from(c)] += 1;
        self.depth += 1;
        self.cluster
            .issue(node, op.kind(), op.object(), write_value, tag)?;
        self.drain();
        Ok(true)
    }

    fn apply_deliver(&mut self, from: NodeId, to: NodeId) -> Result<bool, ClusterError> {
        if let Mutation::ReorderLink { nth } = self.cfg.mutation {
            if self.deliver_steps + 1 == nth {
                self.cluster.sched().rotate(from, to);
            }
        }
        if let Mutation::DropKind { kind, nth } = self.cfg.mutation {
            let head = self
                .cluster
                .sched()
                .queued(from, to)
                .first()
                .map(|env| env.msg.kind);
            if head == Some(kind) {
                self.kind_matches += 1;
                if self.kind_matches == nth && self.cluster.sched().drop_head(from, to) {
                    self.deliver_steps += 1;
                    self.depth += 1;
                    return Ok(true);
                }
            }
        }
        if !self.cluster.deliver(from, to)? {
            return Ok(false);
        }
        self.deliver_steps += 1;
        self.depth += 1;
        self.drain();
        Ok(true)
    }

    /// Fold freshly completed operations into their records.
    fn drain(&mut self) {
        for (tag, result) in self.cluster.poll() {
            let Some(&i) = self.by_tag.get(&tag) else {
                continue;
            };
            let rec = &mut self.records[i];
            match result {
                Ok(bytes) => {
                    if rec.kind == OpKind::Read {
                        rec.read_value = Some(bytes);
                    }
                    rec.status = OpStatus::Done;
                }
                Err(e) => rec.status = OpStatus::Failed(e.to_string()),
            }
        }
    }

    /// 64-bit fingerprint of everything that can influence the future
    /// of this execution *and* the verdict of the checks: program
    /// counters, fault cursor, operation records (including observed
    /// read values), every replica and ownership register, pending
    /// operations, the version clock, and the full network state
    /// (queued, parked, severed, killed). Mutation counters join in
    /// only when a mutation is armed — otherwise two states that differ
    /// only in how many deliveries happened are rightly merged.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for &p in &self.pos {
            h.usize(p);
        }
        h.usize(self.next_fault);
        for rec in &self.records {
            h.u16(rec.client);
            h.usize(rec.index);
            match &rec.status {
                OpStatus::InFlight => h.u8(0),
                OpStatus::Done => h.u8(1),
                OpStatus::Failed(msg) => {
                    h.u8(2);
                    h.bytes(msg.as_bytes());
                }
            }
            match &rec.read_value {
                Some(v) => {
                    h.u8(1);
                    h.bytes(v);
                }
                None => h.u8(0),
            }
        }
        for row in self.cluster.replicas() {
            for snap in row {
                h.u8(snap.state as u8);
                h.u64(snap.version);
                h.u16(snap.writer.0);
                h.bytes(&snap.data);
            }
        }
        for row in self.cluster.owners() {
            for owner in row {
                h.u16(owner.0);
            }
        }
        for (node, obj, kind, tag, blocked) in self.cluster.pending_ops() {
            h.u16(node.0);
            h.u32(obj.0);
            h.u8(kind as u8);
            h.u64(tag);
            h.u8(u8::from(blocked));
        }
        h.u64(self.cluster.version_clock());
        let sched = self.cluster.sched();
        h.u8(0xA1);
        for ((from, to), queue) in sched.queues() {
            h.u16(from.0);
            h.u16(to.0);
            h.usize(queue.len());
            for env in &queue {
                hash_envelope(&mut h, env);
            }
        }
        h.u8(0xA2);
        for ((from, to), queue) in sched.parked() {
            h.u16(from.0);
            h.u16(to.0);
            h.usize(queue.len());
            for env in &queue {
                hash_envelope(&mut h, env);
            }
        }
        h.u8(0xA3);
        for (a, b) in sched.severed() {
            h.u16(a.0);
            h.u16(b.0);
        }
        h.u8(0xA4);
        for node in sched.killed() {
            h.u16(node.0);
        }
        if self.cfg.mutation != Mutation::None {
            h.u32(self.deliver_steps);
            h.u32(self.kind_matches);
        }
        h.finish()
    }
}

fn hash_envelope(h: &mut Fnv, env: &Envelope) {
    h.u8(env.msg.kind as u8);
    h.u16(env.msg.initiator.0);
    h.u16(env.msg.sender.0);
    h.u32(env.msg.object.0);
    h.u8(env.msg.queue as u8);
    h.u8(env.msg.payload as u8);
    h.u64(env.msg.op.0);
    for payload in [&env.params, &env.copy] {
        match payload {
            Some(p) => {
                h.u8(1);
                h.u64(p.version);
                h.u16(p.writer.0);
                h.bytes(&p.data);
            }
            None => h.u8(0),
        }
    }
    h.u64(env.clock);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_greedy(cfg: &CheckConfig) -> (Exec, Vec<Ev>) {
        let mut exec = Exec::new(cfg);
        let mut events = Vec::new();
        while let Some(&ev) = exec.enabled().first() {
            assert!(exec.apply(ev).unwrap());
            events.push(ev);
            assert!(events.len() < 10_000, "did not terminate");
        }
        (exec, events)
    }

    #[test]
    fn greedy_schedule_completes_the_litmus_program() {
        let cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 2, 2);
        let (exec, _) = run_greedy(&cfg);
        assert_eq!(exec.records().len(), 4);
        assert!(
            exec.records().iter().all(|r| r.status == OpStatus::Done),
            "{:?}",
            exec.records()
        );
        assert!(exec.cluster().is_quiescent());
    }

    #[test]
    fn replay_reproduces_the_fingerprint() {
        let cfg = CheckConfig::new(ProtocolKind::Berkeley, 2, 2, 2);
        let (exec, events) = run_greedy(&cfg);
        let (replayed, applied) = Exec::replay_traced(&cfg, &events);
        assert_eq!(applied, events);
        assert_eq!(exec.fingerprint(), replayed.fingerprint());
        assert_eq!(exec.depth(), replayed.depth());
    }

    #[test]
    fn inapplicable_events_are_skipped_not_fatal() {
        let cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 2, 1);
        let mut events = vec![Ev::Deliver(0, 2), Ev::Fault(0), Ev::Issue(0)];
        events.push(Ev::Issue(9)); // no such client
        let (exec, applied) = Exec::replay_traced(&cfg, &events);
        assert_eq!(applied, vec![Ev::Issue(0)]);
        assert_eq!(exec.depth(), 1);
    }

    #[test]
    fn drop_kind_mutation_loses_exactly_one_matching_envelope() {
        let mut cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 1, 1);
        cfg.mutation = Mutation::DropKind {
            kind: MsgKind::WInv,
            nth: 1,
        };
        let (exec, _) = run_greedy(&cfg);
        // The write still completes: only the invalidation was lost.
        assert!(exec
            .records()
            .iter()
            .any(|r| r.kind == OpKind::Write && r.status == OpStatus::Done));
        assert!(exec.cluster().is_quiescent());
    }
}
