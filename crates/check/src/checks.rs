//! The per-schedule verdict: poisoning, sequential consistency,
//! replica convergence, and lost completions.

use crate::exec::{CheckConfig, Exec, OpRec, OpStatus};
use crate::sc::{self, ScOp};
use repmem_core::OpKind;

/// What kind of correctness property a schedule violated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A node's protocol machine hit an unrecoverable condition.
    Poisoned,
    /// Some object's observed reads admit no sequentially consistent
    /// total order of that object's operations (coherence violation).
    SequentialConsistency,
    /// At quiescence of a kill-free schedule, readable replicas of one
    /// object disagree on value or write version.
    Divergence,
    /// An operation never completed although no node was killed and the
    /// network went fully quiet.
    Stuck,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ViolationKind::Poisoned => "poisoned",
            ViolationKind::SequentialConsistency => "sequential-consistency",
            ViolationKind::Divergence => "divergence",
            ViolationKind::Stuck => "stuck",
        };
        f.write_str(name)
    }
}

/// One violated property with a human-readable account.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The violated property.
    pub kind: ViolationKind,
    /// What was observed.
    pub detail: String,
}

/// Run every applicable check against the current state of `exec`.
///
/// Poisoning and sequential consistency are checked in any state;
/// convergence and stuck-detection only make sense once the schedule is
/// terminal *and* the network is quiescent (nothing queued or parked),
/// so they are skipped elsewhere. Returns the first violation found, in
/// severity order.
pub fn check(exec: &Exec) -> Option<Violation> {
    if let Some(err) = exec.cluster().poisoned() {
        return Some(Violation {
            kind: ViolationKind::Poisoned,
            detail: err.to_string(),
        });
    }
    if let Some(v) = check_sc(exec) {
        return Some(v);
    }
    if exec.is_terminal() && exec.cluster().is_quiescent() {
        if let Some(v) = check_convergence(exec) {
            return Some(v);
        }
        if let Some(v) = check_stuck(exec) {
            return Some(v);
        }
    }
    None
}

/// Per-node observed sequences of one object's operations, for the
/// witness search.
///
/// * Completed writes are mandatory; their effect must be placeable.
/// * Incomplete or failed writes are optional: the runtime reported no
///   (successful) outcome, so the witness may include or exclude them.
/// * Only completed reads carry an observation; incomplete or failed
///   reads are excluded entirely.
fn observed_sequences(records: &[OpRec], nodes: usize, object: u32) -> Vec<Vec<ScOp>> {
    let mut seqs = vec![Vec::new(); nodes];
    for rec in records.iter().filter(|rec| rec.object == object) {
        let Some(seq) = seqs.get_mut(usize::from(rec.client)) else {
            continue;
        };
        match (rec.kind, &rec.status) {
            (OpKind::Write, status) => {
                if let Some(value) = &rec.write_value {
                    seq.push(ScOp {
                        kind: OpKind::Write,
                        object: 0,
                        value: value.clone(),
                        optional: *status != OpStatus::Done,
                    });
                }
            }
            (OpKind::Read, OpStatus::Done) => {
                seq.push(ScOp {
                    kind: OpKind::Read,
                    object: 0,
                    value: rec.read_value.clone().unwrap_or_default(),
                    optional: false,
                });
            }
            (OpKind::Read, _) => {}
        }
    }
    seqs
}

/// The memory-model guarantee of the paper's per-object Mealy machines
/// is *coherence*: for each object on its own, the operations admit a
/// sequentially consistent total order. Cross-object sequential
/// consistency is deliberately NOT checked, because the runtime's
/// writes are asynchronous — a write completes at the issuing client
/// as soon as its parameters are on the wire (`complete_if_done`:
/// non-blocking writes return immediately), with the invalidation or
/// update wave trailing behind. That admits the classic
/// store-buffering outcome across two objects (both clients read the
/// other's object as stale), in the step-driven cluster and the
/// threaded runtime alike.
fn check_sc(exec: &Exec) -> Option<Violation> {
    let cfg = exec.config();
    for object in 0..cfg.m_objects as u32 {
        // One sequence per program row: the home's, when it has one, too.
        let seqs = observed_sequences(exec.records(), cfg.program.len(), object);
        if sc::find_witness(&seqs, 1).is_some() {
            continue;
        }
        let mut detail =
            format!("no sequentially consistent order of obj{object}'s operations explains:");
        for (client, seq) in seqs.iter().enumerate() {
            detail.push_str(&format!("\n  c{client}:"));
            for op in seq {
                let what = match op.kind {
                    OpKind::Read => "R",
                    OpKind::Write => "W",
                };
                let opt = if op.optional { "?" } else { "" };
                detail.push_str(&format!(
                    " {what}{opt}(obj{object}={})",
                    CheckConfig::value_name(&op.value)
                ));
            }
        }
        return Some(Violation {
            kind: ViolationKind::SequentialConsistency,
            detail,
        });
    }
    None
}

/// At quiescence of a *kill-free* schedule, every readable replica of
/// an object must agree on both data and write stamp — otherwise a
/// later local read hit would return a different value depending on
/// which node serves it. After a kill, divergence between survivors is
/// legitimate: the dead node's inbound queue was purged and
/// fire-and-forget updates to it are dropped by the degrade path (for
/// the update protocols, the sequencer *is* the wave relay), so
/// replicas can permanently disagree while every completed operation
/// still observed a coherent history — which the SC check still
/// asserts.
fn check_convergence(exec: &Exec) -> Option<Violation> {
    let cluster = exec.cluster();
    if !cluster.sched().killed().is_empty() {
        return None;
    }
    let replicas = cluster.replicas();
    let m_objects = exec.config().m_objects;
    for obj in 0..m_objects {
        let mut reference: Option<(usize, &repmem_runtime::ReplicaSnap)> = None;
        for (node, row) in replicas.iter().enumerate() {
            if !cluster.alive(repmem_core::NodeId(node as u16)) {
                continue;
            }
            let Some(snap) = row.get(obj) else { continue };
            if !snap.state.readable() {
                continue;
            }
            match reference {
                None => reference = Some((node, snap)),
                Some((ref_node, ref_snap)) => {
                    if snap.stamp() != ref_snap.stamp() || snap.data != ref_snap.data {
                        return Some(Violation {
                            kind: ViolationKind::Divergence,
                            detail: format!(
                                "obj{obj}: n{ref_node} holds {} (stamp {:?}, {}) but n{node} holds {} (stamp {:?}, {})",
                                CheckConfig::value_name(&ref_snap.data),
                                ref_snap.stamp(),
                                ref_snap.state.name(),
                                CheckConfig::value_name(&snap.data),
                                snap.stamp(),
                                snap.state.name(),
                            ),
                        });
                    }
                }
            }
        }
    }
    None
}

/// With no kill in the schedule and the network fully quiet, every
/// issued operation must have completed (fault-free liveness: nothing
/// may wait on a message that will never come).
fn check_stuck(exec: &Exec) -> Option<Violation> {
    if !exec.cluster().sched().killed().is_empty() {
        return None; // operations stranded by a kill are legitimate
    }
    let stuck: Vec<&OpRec> = exec
        .records()
        .iter()
        .filter(|rec| rec.status == OpStatus::InFlight)
        .collect();
    let first = stuck.first()?;
    Some(Violation {
        kind: ViolationKind::Stuck,
        detail: format!(
            "{} operation(s) never completed in a quiescent, kill-free run; first: c{}#{} ({:?} obj{})",
            stuck.len(),
            first.client,
            first.index,
            first.kind,
            first.object,
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{Ev, Mutation};
    use repmem_core::{MsgKind, ProtocolKind};

    fn drain_greedy(exec: &mut Exec) {
        let mut steps = 0;
        while let Some(&ev) = exec.enabled().first() {
            exec.apply(ev).expect("greedy step");
            steps += 1;
            assert!(steps < 10_000);
        }
    }

    #[test]
    fn clean_greedy_run_has_no_violation() {
        for kind in ProtocolKind::EVERY {
            let cfg = CheckConfig::new(kind, 2, 2, 2);
            let mut exec = Exec::new(&cfg);
            drain_greedy(&mut exec);
            assert!(check(&exec).is_none(), "{kind:?}");
        }
    }

    #[test]
    fn lost_invalidation_is_a_divergence() {
        // Drop the only W-INV of a single write: the non-writing client
        // keeps a stale VALID copy while the sequencer holds the new
        // value. (Client copies start INVALID, so first warm the other
        // client's copy with a read.)
        let mut cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 1, 1);
        cfg.program = vec![
            vec![crate::exec::ProgOp::Write(0)],
            vec![crate::exec::ProgOp::Read(0)],
        ];
        cfg.mutation = Mutation::DropKind {
            kind: MsgKind::WInv,
            nth: 1,
        };
        // Schedule: c1 warms its copy, then c0 writes, then the wave's
        // W-INV is dropped by the mutation.
        let events = [
            Ev::Issue(1),
            Ev::Deliver(1, 2),
            Ev::Deliver(2, 1),
            Ev::Issue(0),
            Ev::Deliver(0, 2),
            Ev::Deliver(2, 1),
        ];
        let (exec, applied) = Exec::replay_traced(&cfg, &events);
        assert_eq!(applied.len(), events.len());
        let violation = check(&exec).expect("stale copy must be flagged");
        assert_eq!(violation.kind, ViolationKind::Divergence);
    }
}
