//! Application-shaped workloads (grid relaxation, producer/consumer,
//! work queue) through the full stack: replayed in the simulator under
//! every protocol, with coherence audits and qualitative cost checks.

use repmem::prelude::*;
use repmem_workload::apps;

fn replay_cost(kind: ProtocolKind, sys: SystemParams, trace: &[OpEvent]) -> u64 {
    let report = replay(
        &SimConfig {
            sys,
            protocol: kind,
            mode: IssueMode::Serialized,
            warmup_ops: 0,
            measured_ops: trace.len(),
            seed: 5,
        },
        trace,
    );
    assert!(report.coherent, "{kind:?} diverged");
    assert_eq!(report.stale_reads, 0, "{kind:?} returned stale data");
    report.total_cost
}

#[test]
fn grid_relaxation_all_protocols_coherent() {
    let trace = apps::grid_relaxation(4, 3, 6);
    let sys = SystemParams {
        n_clients: 4,
        s: 128,
        p: 4,
        m_objects: apps::grid_objects(4, 3),
    };
    let mut costs = Vec::new();
    for kind in ProtocolKind::ALL {
        costs.push((kind, replay_cost(kind, sys, &trace)));
    }
    // Mostly-private rows with light boundary sharing: the ownership
    // protocols must beat plain Write-Through (which pays P+N for every
    // single write).
    let wt = costs
        .iter()
        .find(|(k, _)| *k == ProtocolKind::WriteThrough)
        .unwrap()
        .1;
    for kind in [
        ProtocolKind::Berkeley,
        ProtocolKind::Illinois,
        ProtocolKind::WriteOnce,
    ] {
        let c = costs.iter().find(|(k, _)| *k == kind).unwrap().1;
        assert!(
            c < wt,
            "{kind:?} ({c}) should beat Write-Through ({wt}) on the grid"
        );
    }
}

#[test]
fn producer_consumer_prefers_updates() {
    // Strictly alternating write/read on each slot: every invalidation
    // protocol pays a full re-fetch per item (S-dominated), the update
    // protocols only ship the parameters (P-dominated).
    let trace = apps::producer_consumer(4, 60);
    let sys = SystemParams {
        n_clients: 3,
        s: 512,
        p: 8,
        m_objects: 4,
    };
    let dragon = replay_cost(ProtocolKind::Dragon, sys, &trace);
    for kind in [
        ProtocolKind::WriteThrough,
        ProtocolKind::Synapse,
        ProtocolKind::Berkeley,
        ProtocolKind::Illinois,
    ] {
        let c = replay_cost(kind, sys, &trace);
        assert!(
            dragon < c,
            "Dragon ({dragon}) should beat {kind:?} ({c}) on producer/consumer with large S"
        );
    }
}

#[test]
fn work_queue_runs_under_every_protocol() {
    let trace = apps::work_queue(3, 40, 17);
    let sys = SystemParams {
        n_clients: 4,
        s: 64,
        p: 32,
        m_objects: apps::work_queue_objects(3),
    };
    for kind in ProtocolKind::ALL {
        let cost = replay_cost(kind, sys, &trace);
        assert!(cost > 0, "{kind:?}: a shared queue cannot be free");
    }
}

#[test]
fn replayed_costs_are_deterministic() {
    let trace = apps::grid_relaxation(3, 2, 4);
    let sys = SystemParams {
        n_clients: 3,
        s: 50,
        p: 10,
        m_objects: apps::grid_objects(3, 2),
    };
    let a = replay_cost(ProtocolKind::Synapse, sys, &trace);
    let b = replay_cost(ProtocolKind::Synapse, sys, &trace);
    assert_eq!(a, b);
}
