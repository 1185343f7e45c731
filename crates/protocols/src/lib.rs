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
//! All machines speak through the [`repmem_core::Actions`] interface, and
//! [`host::Host`] is its one implementation, so the exact same transition
//! code *and* the same output routines run under the analytic oracle, the
//! discrete-event simulator and the threaded runtime. An *error* entry —
//! a message a machine has no transition for — is reported through
//! [`repmem_core::Actions::no_transition`] with the state kept; the host
//! fails the step ([`host::Driver::fail`]). Nothing here panics.
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
pub mod host;
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

use repmem_core::{CoherenceProtocol, CopyState, MsgKind, PayloadKind, ProtocolKind, Role};
use std::sync::OnceLock;

/// Which `(role, state)` pairs of one protocol take a read request
/// (`R-REQ`) as a *pure local hit*: the machine's entry is `return`
/// alone and keeps the state — the "read hit: 0" column above. Hosts
/// may serve such a read without running the machine.
///
/// The table is read off the machines ([`read_hits`]), not written by
/// hand. It is not [`CopyState::readable`]: Quorum's `VALID` opens a
/// majority round, and Write-Through-V's sequencer serves reads while
/// `RECALLING`. An *error* entry is a miss, so such a read still
/// reaches its node's machine and fails the step there.
#[derive(Debug, Clone, Copy)]
pub struct ReadHits([[bool; describe::ALL_STATES.len()]; 2]);

impl ReadHits {
    /// Probe every `(role, state)` entry of `kind`'s `R-REQ` column.
    fn probe(kind: ProtocolKind) -> ReadHits {
        let r_req = describe::InputSym {
            kind: MsgKind::RReq,
            payload: PayloadKind::Token,
            pending: None,
        };
        let mut hits = [[false; describe::ALL_STATES.len()]; 2];
        for role in [Role::Client, Role::Sequencer] {
            for state in describe::ALL_STATES {
                let e = describe::probe(protocol(kind), role, state, r_req);
                hits[role as usize][state as usize] =
                    e.next == Some(state) && e.actions == "return";
            }
        }
        ReadHits(hits)
    }

    /// Whether a read entering the `role` machine in `state` is a hit.
    #[inline]
    pub fn hit(&self, role: Role, state: CopyState) -> bool {
        self.0[role as usize][state as usize]
    }
}

/// `kind`'s [`ReadHits`], probed once per protocol and process.
pub fn read_hits(kind: ProtocolKind) -> ReadHits {
    static TABLES: [OnceLock<ReadHits>; ProtocolKind::EVERY.len()] =
        [const { OnceLock::new() }; ProtocolKind::EVERY.len()];
    *TABLES[kind as usize].get_or_init(|| ReadHits::probe(kind))
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

    /// The two places `CopyState::readable()` would get wrong, and a
    /// floor on the table's size.
    #[test]
    fn read_hits_are_the_machines_return_only_entries() {
        assert!(!read_hits(ProtocolKind::Quorum).hit(Role::Client, CopyState::Valid));
        assert!(read_hits(ProtocolKind::WriteThroughV).hit(Role::Sequencer, CopyState::Recalling));
        let hits = ProtocolKind::EVERY
            .into_iter()
            .flat_map(|kind| {
                [Role::Client, Role::Sequencer]
                    .into_iter()
                    .flat_map(move |role| {
                        describe::ALL_STATES
                            .into_iter()
                            .filter(move |&state| read_hits(kind).hit(role, state))
                    })
            })
            .count();
        assert!(hits >= 16, "suspiciously few hit entries: {hits}");
    }

    /// `ReadHits` and `read_hits` index by declaration order.
    #[test]
    fn indices_follow_declaration_order() {
        for (i, state) in describe::ALL_STATES.into_iter().enumerate() {
            assert_eq!(state as usize, i, "{}", state.name());
        }
        for (i, kind) in ProtocolKind::EVERY.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn registry_is_consistent() {
        for kind in ProtocolKind::EVERY {
            assert_eq!(protocol(kind).kind(), kind);
        }
        assert_eq!(all_protocols().count(), 8);
    }
}
