//! The distributed **Dragon** protocol (paper Appendix A, Figure 11).
//!
//! Update-based: every copy is always readable and a write *broadcasts*
//! its parameters instead of invalidating. Writes are sequenced through
//! the sequencer, whose copy is permanently `SHARED-DIRTY`; every client
//! copy is permanently `SHARED-CLEAN` — exactly the one-state-per-role
//! structure of the paper's Figure 11.
//!
//! * client write — apply locally (optimistic, non-blocking), send `UPD`
//!   to the sequencer (`P+1`), which applies it and re-broadcasts to the
//!   other `N−1` nodes (`(N−1)(P+1)`): total `N(P+1)`;
//! * sequencer write — apply and broadcast to all `N` clients: `N(P+1)`.
//!
//! Reads never cost anything, so `acc = (total write prob)·N(P+1)` under
//! every workload whose writers are clients — the paper's ideal-workload
//! cost `pN(P+1)` (§5.1). Unlike Firefly, the writer does not wait for an
//! acknowledgement (compare `Firefly`'s `N(P+1)+1`).
//!
//! The paper notes the sequencer role "can be taken by different nodes";
//! routing every write through a fixed home is communication-cost
//! equivalent for all client-driven workloads (the forwarding leg plus
//! the `N−1` re-broadcast equals the owner's `N`-wide broadcast) and is
//! free of ownership races — see DESIGN.md §4.

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Dragon protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dragon;

impl CoherenceProtocol for Dragon {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Dragon
    }

    fn initial_state(&self, role: Role) -> CopyState {
        match role {
            Role::Sequencer => CopyState::SharedDirty,
            Role::Client => CopyState::SharedClean,
        }
    }

    fn step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (self.role_of(env), msg.kind, state) {
            // Copies are always coherent: reads are free everywhere.
            (Role::Client, MsgKind::RReq, SharedClean)
            | (Role::Sequencer, MsgKind::RReq, SharedDirty) => {
                env.ret();
                state
            }
            // Client write: apply optimistically, route through the
            // sequencer; no response is awaited.
            (Role::Client, MsgKind::WReq, SharedClean) => {
                env.change();
                env.push(Dest::To(env.home()), MsgKind::Upd, PayloadKind::Params);
                SharedClean
            }
            // Sequencer write: apply and broadcast.
            (Role::Sequencer, MsgKind::WReq, SharedDirty) => {
                env.change();
                env.push(
                    Dest::AllExcept(env.me(), None),
                    MsgKind::Upd,
                    PayloadKind::Params,
                );
                SharedDirty
            }
            // Sequencer receiving a client write: apply, re-broadcast to
            // everyone but the writer.
            (Role::Sequencer, MsgKind::Upd, SharedDirty) => {
                env.change();
                env.push(
                    Dest::AllExcept(env.me(), Some(msg.initiator)),
                    MsgKind::Upd,
                    PayloadKind::Params,
                );
                SharedDirty
            }
            // Client receiving the broadcast: apply.
            (Role::Client, MsgKind::Upd, SharedClean) => {
                env.change();
                SharedClean
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{app_req, net_msg, MockActions};
    use repmem_core::{NodeId, OpKind};

    const N: usize = 4;
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn reads_are_always_free() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Read);
            Dragon.step(&mut env, CopyState::SharedClean, &m)
        };
        assert_eq!(s, CopyState::SharedClean);
        assert_eq!(env.returns, 1);
        assert_eq!(env.cost(S, P), 0);

        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Read);
            Dragon.step(&mut seq, CopyState::SharedDirty, &m)
        };
        assert_eq!(s, CopyState::SharedDirty);
        assert_eq!(seq.cost(S, P), 0);
    }

    #[test]
    fn client_write_totals_n_updates() {
        // Writer leg: apply locally + one UPD to the sequencer (P+1),
        // no blocking.
        let mut env = MockActions::client(1, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Dragon.step(&mut env, CopyState::SharedClean, &m)
        };
        assert_eq!(s, CopyState::SharedClean);
        assert_eq!(env.changes, 1);
        assert_eq!(env.disables, 0);
        assert_eq!(env.pushes[0].dest, Dest::To(NodeId(N as u16)));
        assert_eq!(env.cost(S, P), P + 1);

        // Sequencer leg: apply, re-broadcast to N-1 others.
        let mut seq = MockActions::sequencer(N);
        let s = Dragon.step(
            &mut seq,
            CopyState::SharedDirty,
            &net_msg(MsgKind::Upd, 1, 1, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::SharedDirty);
        assert_eq!(seq.changes, 1);
        assert_eq!(seq.cost(S, P), (N - 1) as u64 * (P + 1));
        // Total: (P+1) + (N-1)(P+1) = N(P+1).
    }

    #[test]
    fn sequencer_write_broadcasts_to_all_clients() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Write);
            Dragon.step(&mut seq, CopyState::SharedDirty, &m)
        };
        assert_eq!(s, CopyState::SharedDirty);
        assert_eq!(seq.cost(S, P), N as u64 * (P + 1));
    }

    #[test]
    fn bystanders_apply_updates_silently() {
        let mut env = MockActions::client(3, N);
        let s = Dragon.step(
            &mut env,
            CopyState::SharedClean,
            &net_msg(MsgKind::Upd, 1, N as u16, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::SharedClean);
        assert_eq!(env.changes, 1);
        assert!(env.pushes.is_empty());
    }

    #[test]
    fn invalidations_never_occur_in_dragon() {
        let mut env = MockActions::client(0, N);
        let s = Dragon.step(
            &mut env,
            CopyState::SharedClean,
            &net_msg(MsgKind::WInv, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::SharedClean);
        let error = env.error.take().expect("W-INV is an error entry");
        assert!(
            error.starts_with("Dragon protocol error") && error.contains("SHARED-CLEAN on W-INV"),
            "{error}"
        );
        assert!(env.pushes.is_empty());
    }
}
