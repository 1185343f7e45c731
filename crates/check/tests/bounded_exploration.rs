//! Integration tier for the schedule explorer: bounded-exhaustive runs
//! must be clean on every protocol, seeded bugs must be caught, and a
//! caught bug must survive shrinking and the artifact round trip.
//!
//! Bounds here are deliberately smaller than the CI `repmem-check`
//! invocations (these run in debug mode on every `cargo test`); the CI
//! `check` job drives the release binary at the full PR bound.

use repmem_check::{
    check, exhaustive, minimize, sample, Artifact, CheckConfig, Expect, ExploreLimits, Mutation,
    ViolationKind,
};
use repmem_core::{MsgKind, NodeId, ProtocolKind};
use repmem_net::FaultAction;

#[test]
fn exhaustive_fault_free_is_clean_for_every_protocol() {
    for kind in ProtocolKind::ALL {
        let cfg = CheckConfig::new(kind, 2, 2, 2);
        let report = exhaustive(&cfg, ExploreLimits::default());
        assert!(!report.capped, "{kind:?}: exploration hit a cap");
        assert!(
            report.violation.is_none(),
            "{kind:?}: {}",
            report.violation.unwrap().detail
        );
        assert!(report.terminals > 0, "{kind:?}: no terminal schedules");
    }
}

#[test]
fn exhaustive_blackout_is_clean_for_invalidation_and_update_families() {
    // One representative per protocol family keeps the debug-mode cost
    // bounded; the CI `check` job runs all eight with every palette.
    for kind in [ProtocolKind::WriteThrough, ProtocolKind::Dragon] {
        let mut cfg = CheckConfig::new(kind, 2, 2, 2);
        cfg.faults = vec![
            FaultAction::Sever(NodeId(0), NodeId(2)),
            FaultAction::Restore(NodeId(0), NodeId(2)),
        ];
        let report = exhaustive(&cfg, ExploreLimits::default());
        assert!(!report.capped, "{kind:?}: exploration hit a cap");
        assert!(
            report.violation.is_none(),
            "{kind:?}: {}",
            report.violation.unwrap().detail
        );
    }
}

#[test]
fn sampling_with_kill_is_clean() {
    for kind in [ProtocolKind::Berkeley, ProtocolKind::Firefly] {
        let mut cfg = CheckConfig::new(kind, 2, 2, 2);
        cfg.faults = vec![FaultAction::Kill(NodeId(1))];
        let report = sample(&cfg, 7, 200);
        assert!(
            report.violation.is_none(),
            "{kind:?}: {}",
            report.violation.unwrap().detail
        );
        assert_eq!(report.executions, 200);
    }
}

/// The acceptance-gate mutation: drop Write-Through's first
/// invalidation. The explorer must find the stale replica, the shrunk
/// schedule must still fail, and the serialized artifact must replay to
/// the same verdict.
#[test]
fn seeded_lost_invalidation_is_caught_shrunk_and_replayable() {
    let mut cfg = CheckConfig::new(ProtocolKind::WriteThrough, 2, 2, 2);
    cfg.mutation = Mutation::DropKind {
        kind: MsgKind::WInv,
        nth: 1,
    };
    let report = exhaustive(&cfg, ExploreLimits::default());
    let found = report.violation.expect("seeded bug must be caught");
    assert_eq!(found.kind, ViolationKind::Divergence, "{}", found.detail);

    let shrunk = minimize(&cfg, &found.events);
    assert!(shrunk.len() <= found.events.len());
    let (exec, applied) = repmem_check::Exec::replay_traced(&cfg, &shrunk);
    assert_eq!(applied.len(), shrunk.len(), "shrunk schedule must replay");
    assert!(check(&exec).is_some(), "shrunk schedule must still fail");

    let artifact = Artifact {
        cfg,
        events: shrunk,
        note: "integration-test counterexample".to_owned(),
        expect: Expect::Violation,
    };
    let reparsed = Artifact::parse(&artifact.render()).expect("round trip");
    reparsed
        .check_replay()
        .expect("verdict must survive the round trip");
}

/// Two concurrent quorum writers on one object: the full interleaving
/// space of two overlapping two-phase majority rounds, including
/// straggler votes and acks from superseded rounds, must stay coherent
/// and converge.
#[test]
fn exhaustive_concurrent_quorum_writes_are_clean() {
    let mut cfg = CheckConfig::new(ProtocolKind::Quorum, 2, 1, 1);
    cfg.max_depth = 40;
    let report = exhaustive(&cfg, ExploreLimits::default());
    assert!(
        !report.capped,
        "exploration hit a cap: {}",
        report.summary()
    );
    assert!(
        report.violation.is_none(),
        "{}",
        report.violation.unwrap().detail
    );
    assert!(report.terminals > 0, "no terminal schedules");
}

/// The availability contrast, on the deterministic step cluster: kill
/// the sequencer-position node up front, then run each protocol's
/// litmus program greedily to termination. Quorum (which has no
/// sequencer) must complete every operation; each sequencer protocol
/// must degrade at least one operation to NodeDown. No protocol may
/// trip any check.
#[test]
fn quorum_completes_under_minority_kill_while_sequencers_degrade() {
    use repmem_check::{Ev, Exec, OpStatus};
    for kind in ProtocolKind::EVERY {
        let mut cfg = CheckConfig::new(kind, 2, 2, 2);
        cfg.faults = vec![FaultAction::Kill(NodeId(2))];
        let mut exec = Exec::new(&cfg);
        exec.apply(Ev::Fault(0)).expect("fire the kill");
        let mut steps = 0;
        while let Some(&ev) = exec.enabled().first() {
            let _ = exec.apply(ev);
            steps += 1;
            assert!(steps < 10_000, "{kind:?}: did not terminate");
        }
        assert!(
            check(&exec).is_none(),
            "{kind:?}: {}",
            check(&exec).unwrap().detail
        );
        let done = exec
            .records()
            .iter()
            .filter(|r| r.status == OpStatus::Done)
            .count();
        let failed = exec
            .records()
            .iter()
            .filter(|r| matches!(&r.status, OpStatus::Failed(e) if e.contains("not running")))
            .count();
        if kind == ProtocolKind::Quorum {
            assert_eq!(
                done,
                exec.records().len(),
                "{kind:?}: a quorum operation failed with a strict minority dead: {:?}",
                exec.records()
            );
        } else {
            assert!(
                failed > 0,
                "{kind:?}: expected at least one NodeDown degradation: {:?}",
                exec.records()
            );
        }
    }
}

/// The explorer goes through the read predicate the runtime ships:
/// on the re-read workload every sequencer protocol serves a read from
/// the replica table in some schedule — with the writers' waves racing
/// it — and stays clean; Quorum, whose every read is a round, never
/// does. A refactor that routes `StepCluster::issue` around the
/// predicate turns the first count to 0 and must fail here, not pass
/// as "no violation".
#[test]
fn reread_exploration_is_clean_and_exercises_the_fast_path() {
    for kind in ProtocolKind::EVERY {
        let cfg = CheckConfig::reread(kind, 2);
        // Quorum's rounds enumerate ~300 k schedules here: the CI
        // `check` job does that in release; debug mode samples.
        let report = if kind == ProtocolKind::Quorum {
            sample(&cfg, 7, 500)
        } else {
            exhaustive(&cfg, ExploreLimits::default())
        };
        assert!(!report.capped, "{}", report.summary());
        assert!(
            report.violation.is_none(),
            "{kind:?}: {}",
            report.violation.unwrap().detail
        );
        assert_eq!(
            report.fast_path_reads == 0,
            kind == ProtocolKind::Quorum,
            "{}",
            report.summary()
        );
    }
}

/// What a lost invalidation looks like now: the stale copy is served by
/// the fast path. c0 reads (miss, copy VALID); c1 writes; the W-INV to
/// c0 is dropped; c0's second read completes at issue, from the table,
/// with the old value — and the checker still flags the schedule.
#[test]
fn dropped_invalidation_surfaces_as_a_stale_fast_path_read() {
    use repmem_check::{Ev, Exec, OpStatus};
    let mut cfg = CheckConfig::reread(ProtocolKind::WriteThrough, 2);
    cfg.mutation = Mutation::DropKind {
        kind: MsgKind::WInv,
        nth: 1,
    };
    let schedule = [
        Ev::Issue(0),      // c0: R(0) misses
        Ev::Deliver(0, 2), // R-PER
        Ev::Deliver(2, 0), // R-GNT: c0 VALID
        Ev::Issue(1),      // c1: W(0)
        Ev::Deliver(1, 2), // W-PER: sequencer applies, invalidates c0
        Ev::Deliver(2, 0), // the W-INV — lost
        Ev::Issue(0),      // c0: R(0) again
    ];
    let (exec, applied) = Exec::replay_traced(&cfg, &schedule);
    assert_eq!(applied.len(), schedule.len());
    assert_eq!(exec.cluster().local_read_hits(), 1);
    let reread = &exec.records()[2];
    assert_eq!((reread.client, reread.index), (0, 1));
    assert_eq!(reread.status, OpStatus::Done);
    assert_eq!(
        reread.read_value.as_deref(),
        Some(&[][..]),
        "the second read should have seen the stale initial value"
    );
    let violation = check(&exec).expect("the stale replica must be flagged");
    assert_eq!(
        violation.kind,
        ViolationKind::Divergence,
        "{}",
        violation.detail
    );
}
