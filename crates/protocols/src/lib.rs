//! # repmem-protocols
//!
//! The eight data-replication coherence protocols of Srbljić & Budin
//! (HPDC 1993), each implemented as the pair of client/sequencer Mealy
//! machines of the paper's formal model (`repmem-core`):
//!
//! * [`WriteThrough`] — paper Tables 1–3 / Figure 1, analyzed in detail;
//! * [`WriteThroughV`] — the second distributed Write-Through variant;
//! * [`WriteOnce`], [`Synapse`], [`Illinois`], [`Berkeley`], [`Dragon`],
//!   [`Firefly`] — the adaptations of the remaining bus-based protocols
//!   (paper Appendix A).
//!
//! All machines speak through the [`repmem_core::Actions`] interface, so
//! the exact same transition code runs under the analytic oracle, the
//! discrete-event simulator and the threaded runtime.
//!
//! ## Cost cheat-sheet (serialized execution, client-initiated ops)
//!
//! | protocol | read hit | read miss (seq clean) | read miss (dirty) | write |
//! |---|---|---|---|---|
//! | Write-Through | 0 | S+2 | — | P+N (→ own copy INVALID) |
//! | Write-Through-V | 0 | S+2 | — | P+N+2 (own copy stays VALID) |
//! | Write-Once | 0 | S+2 | 2S+4 | P+N once, then 1, then 0 |
//! | Synapse | 0 | S+2 | 2S+N+2 | S+N+1 acquire, then 0 |
//! | Illinois | 0 | S+2 | 2S+4 | N+1 upgrade / S+N+1 acquire, then 0 |
//! | Berkeley | 0 | S+2 | S+2 (owner serves) | N+1 upgrade / S+N+1 acquire, then 0 or N |
//! | Dragon | 0 | — (never misses) | — | N(P+1) |
//! | Firefly | 0 | — (never misses) | — | N(P+1)+1 |
//! | Quorum | N(S+2) (every read polls a majority; N(2S+4) when the votes disagree) | — | — | N(S+P+4) |
//!
//! [`Quorum`] sits outside the paper's eight: a sequencer-free SC-ABD
//! majority protocol whose rounds survive a minority of dead replicas.

pub mod berkeley;
pub mod describe;
pub mod dragon;
pub mod firefly;
pub mod illinois;
pub mod quorum;
pub mod synapse;
pub mod testutil;
pub mod write_once;
pub mod write_through;
pub mod write_through_v;

pub use berkeley::Berkeley;
pub use dragon::Dragon;
pub use firefly::Firefly;
pub use illinois::Illinois;
pub use quorum::Quorum;
pub use synapse::Synapse;
pub use write_once::WriteOnce;
pub use write_through::WriteThrough;
pub use write_through_v::WriteThroughV;

use repmem_core::{CoherenceProtocol, CopyState, ProtocolKind, Role};

/// Whether a read request (`R-REQ`) entering `kind`'s `role` machine in
/// `state` is a *pure local hit*: the output routine is `return` alone
/// and the state is kept — the "read hit: 0" column above. Hosts may
/// serve such a read without running the machine.
///
/// This is not [`CopyState::readable`]: Quorum's `VALID` opens a
/// majority round, and Write-Through-V's sequencer serves reads while
/// `RECALLING`. The table is pinned against `step` for every protocol,
/// role and state by `crates/runtime/tests/read_fast_path.rs`.
pub fn read_hits_locally(kind: ProtocolKind, role: Role, state: CopyState) -> bool {
    use CopyState::*;
    use ProtocolKind::*;
    match (kind, role, state) {
        (Quorum, _, _) => false,
        // Berkeley's behaviour is uniform across roles.
        (Berkeley, _, Valid | Dirty | SharedDirty) => true,
        (Dragon, Role::Client, SharedClean) | (Dragon, Role::Sequencer, SharedDirty) => true,
        (WriteThroughV, Role::Sequencer, Recalling) => true,
        (WriteOnce, Role::Client, Reserved | Dirty) => true,
        (Synapse | Illinois, Role::Client, Dirty) => true,
        (WriteThrough | WriteThroughV | WriteOnce | Synapse | Illinois | Firefly, _, Valid) => true,
        _ => false,
    }
}

/// Look up the static instance of a protocol by kind.
pub fn protocol(kind: ProtocolKind) -> &'static dyn CoherenceProtocol {
    match kind {
        ProtocolKind::WriteThrough => &WriteThrough,
        ProtocolKind::WriteThroughV => &WriteThroughV,
        ProtocolKind::WriteOnce => &WriteOnce,
        ProtocolKind::Synapse => &Synapse,
        ProtocolKind::Illinois => &Illinois,
        ProtocolKind::Berkeley => &Berkeley,
        ProtocolKind::Dragon => &Dragon,
        ProtocolKind::Firefly => &Firefly,
        ProtocolKind::Quorum => &Quorum,
    }
}

/// All eight protocol instances, in the paper's comparison order.
pub fn all_protocols() -> impl Iterator<Item = &'static dyn CoherenceProtocol> {
    ProtocolKind::ALL.into_iter().map(protocol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_consistent() {
        for kind in ProtocolKind::EVERY {
            assert_eq!(protocol(kind).kind(), kind);
        }
        assert_eq!(all_protocols().count(), 8);
    }
}
