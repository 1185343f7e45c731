//! Forking a state is replaying the schedule that reached it.
//!
//! The explorer expands a state as its parent's fork plus one step, and
//! `replay`/`shrink` rebuild a state from its schedule. Along seeded
//! random walks, for all nine protocols, every fault palette and both
//! mutation kinds, the two must agree at every step: fingerprint,
//! records, enabled steps, cost, and what `poll` returns. Stepping a
//! fork must leave its parent's state and unread answers as they were.

use bytes::Bytes;
use repmem_check::{CheckConfig, Ev, Exec, Mutation};
use repmem_core::{MsgKind, NodeId, ObjectId, OpKind, ProtocolKind};
use repmem_net::SchedAction;
use repmem_runtime::{ClusterError, StepCluster};

const CLIENTS: usize = 2;
const WALKS: u64 = 3;

/// The explorer's fault palettes for two clients (`repmem-check help`);
/// of three replicas the strict minority is the sequencer alone.
fn palettes() -> Vec<(&'static str, Vec<SchedAction>)> {
    let home = NodeId(CLIENTS as u16);
    vec![
        ("none", Vec::new()),
        (
            "blackout",
            vec![
                SchedAction::Sever(NodeId(0), home),
                SchedAction::Restore(NodeId(0), home),
            ],
        ),
        (
            "kill-client",
            vec![SchedAction::Kill(NodeId(CLIENTS as u16 - 1))],
        ),
        ("kill-seq", vec![SchedAction::Kill(home)]),
        ("kill-minority", vec![SchedAction::Kill(home)]),
    ]
}

/// No mutation, a lost first request (a probe, for Quorum), and a
/// reordered second delivery.
fn mutations(kind: ProtocolKind) -> [Mutation; 3] {
    let lost = match kind {
        ProtocolKind::Quorum => MsgKind::QProbe,
        _ => MsgKind::WReq,
    };
    [
        Mutation::None,
        Mutation::DropKind { kind: lost, nth: 1 },
        Mutation::ReorderLink { nth: 2 },
    ]
}

/// SplitMix64 step.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn assert_same(forked: &Exec, replayed: &Exec, what: &str) {
    assert_eq!(
        forked.fingerprint(),
        replayed.fingerprint(),
        "{what}: fingerprint"
    );
    assert_eq!(
        format!("{:?}", forked.records()),
        format!("{:?}", replayed.records()),
        "{what}: records"
    );
    assert_eq!(forked.enabled(), replayed.enabled(), "{what}: enabled");
    assert_eq!(
        forked.cluster().total_cost(),
        replayed.cluster().total_cost(),
        "{what}: cost"
    );
}

/// Walk `cfg` by the steps `pick` chooses among the enabled ones, each
/// state the fork of the one before plus one step, and hold every state
/// to the replay of its schedule.
fn walk_execs(cfg: &CheckConfig, mut pick: impl FnMut(&[Ev]) -> Option<Ev>) {
    let mut state = Exec::new(cfg);
    let mut events: Vec<Ev> = Vec::new();
    while events.len() < cfg.max_depth {
        let Some(ev) = pick(&state.enabled()) else {
            break;
        };
        let before = state.fingerprint();
        let mut child = state.fork();
        assert_ne!(child.apply(ev), Ok(false), "{ev} was enabled");
        events.push(ev);
        let what = format!("{:?} {:?} after {events:?}", cfg.kind, cfg.mutation);
        let (replayed, applied) = Exec::replay_traced(cfg, &events);
        assert_eq!(applied, events, "{what}: replay skipped a step");
        assert_same(&child, &replayed, &what);
        let after = state.fingerprint();
        assert_eq!(after, before, "{what}: stepping the fork moved its parent");
        state = child;
    }
}

#[test]
fn a_forked_execution_is_the_replayed_one() {
    for kind in ProtocolKind::EVERY {
        for (p, (_, faults)) in palettes().into_iter().enumerate() {
            for mutation in mutations(kind) {
                let mut cfg = CheckConfig::new(kind, CLIENTS, 2, 2);
                cfg.faults = faults.clone();
                cfg.mutation = mutation;
                for seed in 0..WALKS {
                    let mut rng = (p as u64) << 8 | seed;
                    walk_execs(&cfg, |enabled| {
                        let i = next(&mut rng) % enabled.len().max(1) as u64;
                        enabled.get(i as usize).copied()
                    });
                }
            }
        }
    }
}

/// A schedule random walks rarely take (the explorer found it): client
/// 0's write waits for a grant the sequencer has already sent, the
/// sequencer dies, client 0's next step sends to it, finds it dead and
/// fails the write, and then the grant arrives. Only the set of
/// abandoned operations, forked with the node, keeps that grant from
/// poisoning the cluster.
#[test]
fn a_fork_keeps_the_operations_a_death_abandoned() {
    use Ev::{Deliver, Fault, Issue};
    let mut cfg = CheckConfig::new(ProtocolKind::Berkeley, CLIENTS, 2, 2);
    cfg.faults = vec![SchedAction::Kill(NodeId(CLIENTS as u16))];
    let schedule = [
        Issue(1),
        Deliver(1, 2),
        Deliver(2, 1),
        Deliver(2, 0),
        Issue(0),
        Deliver(0, 2),
        Deliver(2, 1),
        Fault(0),
        Issue(1),
        Deliver(1, 0),
        Deliver(2, 0),
    ];
    let mut steps = schedule.iter().copied();
    walk_execs(&cfg, |enabled| {
        let ev = steps.next()?;
        assert!(enabled.contains(&ev), "{ev} is not enabled");
        Some(ev)
    });
    let end = Exec::replay(&cfg, &schedule);
    assert!(end.cluster().poisoned().is_none());
}

/// One raw step of a [`StepCluster`].
#[derive(Debug, Clone, Copy)]
enum Step {
    Issue(NodeId, OpKind, ObjectId),
    Deliver(NodeId, NodeId),
    Fault(SchedAction),
}

/// Apply `step`, tagging an issued operation `tag`.
fn apply(c: &mut StepCluster, step: Step, tag: u64) {
    let _ = match step {
        Step::Issue(node, op, object) => {
            let data = (op == OpKind::Write).then(|| Bytes::from(tag.to_le_bytes().to_vec()));
            c.issue(node, op, object, data, tag)
        }
        Step::Deliver(from, to) => c.deliver(from, to).map(drop),
        Step::Fault(action) => {
            c.fault(action);
            Ok(())
        }
    };
}

/// Every step `c` can take: issues at any node, deliveries, and the
/// next fault of `faults`.
fn steps(c: &StepCluster, faults: &[SchedAction]) -> Vec<Step> {
    if c.poisoned().is_some() {
        return Vec::new();
    }
    let sys = c.system();
    let mut steps = Vec::new();
    for node in (0..sys.n_nodes() as u16).map(NodeId) {
        for object in (0..sys.m_objects as u32).map(ObjectId) {
            if c.can_issue(node, object) {
                steps.push(Step::Issue(node, OpKind::Read, object));
                steps.push(Step::Issue(node, OpKind::Write, object));
            }
        }
    }
    steps.extend(
        c.links_ready()
            .into_iter()
            .map(|(f, t)| Step::Deliver(f, t)),
    );
    steps.extend(faults.first().map(|&a| Step::Fault(a)));
    steps
}

/// Everything a cluster shows between steps, answers aside.
fn view(c: &StepCluster) -> String {
    format!(
        "{:?}",
        (
            c.replicas(),
            c.owners(),
            c.pending_ops(),
            (c.queues(), c.parked(), c.severed(), c.killed()),
            (c.total_cost(), c.total_messages(), c.version_clock()),
            (c.accepted(), c.local_read_hits(), c.poisoned()),
        )
    )
}

/// Replay `schedule` on a fresh cluster, reading the answers of every
/// step but the last; return the cluster with the last step's unread.
fn replay(kind: ProtocolKind, schedule: &[Step]) -> StepCluster {
    let mut c = StepCluster::new(CheckConfig::new(kind, CLIENTS, 2, 0).sys(), kind);
    for (tag, &step) in schedule.iter().enumerate() {
        c.poll();
        apply(&mut c, step, tag as u64);
    }
    c
}

/// Answers in tag order.
fn by_tag(
    mut answers: Vec<(u64, Result<Bytes, ClusterError>)>,
) -> Vec<(u64, Result<Bytes, ClusterError>)> {
    answers.sort_by_key(|&(tag, _)| tag);
    answers
}

#[test]
fn a_forked_cluster_answers_like_the_replayed_one() {
    for kind in ProtocolKind::EVERY {
        for (p, (name, faults)) in palettes().into_iter().enumerate() {
            for seed in 0..WALKS {
                let mut rng = (p as u64) << 8 | seed;
                let mut state = replay(kind, &[]);
                let mut schedule = Vec::new();
                let mut fired = 0;
                // The answers `state` holds unread: no state is polled
                // until it has been forked and left behind.
                let mut unread = Vec::new();
                while schedule.len() < 40 {
                    let options = steps(&state, &faults[fired..]);
                    let pick = next(&mut rng) % options.len().max(1) as u64;
                    let Some(&step) = options.get(pick as usize) else {
                        break;
                    };
                    fired += usize::from(matches!(step, Step::Fault(_)));
                    let before = view(&state);
                    let mut child = state.fork();
                    apply(&mut child, step, schedule.len() as u64);
                    schedule.push(step);
                    let what = format!("{kind:?}/{name} seed {seed}: {schedule:?}");
                    // Stepping a grandchild must not reach the child.
                    let mut grandchild = child.fork();
                    if let Some(&step) = steps(&grandchild, &faults[fired..]).last() {
                        apply(&mut grandchild, step, 1 << 40);
                        grandchild.poll();
                    }
                    assert_eq!(view(&state), before, "{what}: the parent moved");
                    let parent = by_tag(state.poll());
                    assert_eq!(
                        parent,
                        by_tag(unread.clone()),
                        "{what}: the parent's answers"
                    );
                    let mut replayed = replay(kind, &schedule);
                    assert_eq!(view(&child), view(&replayed), "{what}: state");
                    // The child kept its parent's unread answers and added
                    // the step's, which are the replay's.
                    unread.extend(replayed.poll());
                    let answers = by_tag(child.fork().poll());
                    assert_eq!(answers, by_tag(unread.clone()), "{what}: answers");
                    state = child;
                }
            }
        }
    }
}
