//! The distributed **Firefly** protocol (paper Appendix A).
//!
//! Update-based through the fixed sequencer: *"The client always passes
//! the write operation parameters to the sequencer. The sequencer
//! broadcasts the write operation parameters to all clients."* The copy
//! at the sequencer has the single state `VALID`; each client copy has
//! the single state `VALID` (the paper calls it `SHARED`).
//!
//! Unlike Dragon, the writer is *pessimistic*: it ships its parameters,
//! blocks, and applies the write only when the sequencer's `ACK` confirms
//! its place in the global write order. A client write therefore costs
//! `(P+1) + (N−1)(P+1) + 1 = N(P+1)+1` — the paper's ideal-workload cost
//! `p(N(P+1)+1)` (§5.1), one acknowledgement unit above Dragon.

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Firefly protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Firefly;

impl Firefly {
    fn client_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (msg.kind, state) {
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            // Ship the parameters and wait for the sequencing ack.
            (MsgKind::WReq, Valid) => {
                env.push(Dest::To(env.home()), MsgKind::Upd, PayloadKind::Params);
                env.disable_local();
                Valid
            }
            // Another node's write, broadcast by the sequencer.
            (MsgKind::Upd, Valid) => {
                env.change();
                Valid
            }
            // Our write is globally ordered: apply it locally.
            (MsgKind::Ack, Valid) => {
                env.change();
                env.enable_local();
                Valid
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }

    fn seq_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            (MsgKind::WReq, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::Upd,
                    PayloadKind::Params,
                );
                Valid
            }
            // A client's write: apply, re-broadcast to the other clients,
            // acknowledge the writer.
            (MsgKind::Upd, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::Upd,
                    PayloadKind::Params,
                );
                env.push(Dest::To(msg.initiator), MsgKind::Ack, PayloadKind::Token);
                Valid
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

impl CoherenceProtocol for Firefly {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Firefly
    }

    fn initial_state(&self, _role: Role) -> CopyState {
        CopyState::Valid
    }

    fn step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        match self.role_of(env) {
            Role::Client => self.client_step(env, state, msg),
            Role::Sequencer => self.seq_step(env, state, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{app_req, net_msg, MockActions};
    use repmem_core::OpKind;

    const N: usize = 4;
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn reads_are_free() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Read);
            Firefly.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.returns, 1);
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn client_write_costs_n_updates_plus_ack() {
        // Writer leg: UPD to sequencer (P+1), blocked.
        let mut env = MockActions::client(2, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Firefly.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.disables, 1);
        assert_eq!(env.changes, 0); // pessimistic: not yet applied
        assert_eq!(env.cost(S, P), P + 1);

        // Sequencer leg: apply, N-1 re-broadcasts, 1 ack.
        let mut seq = MockActions::sequencer(N);
        let s = Firefly.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::Upd, 2, 2, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.changes, 1);
        assert_eq!(seq.cost(S, P), (N - 1) as u64 * (P + 1) + 1);

        // Ack leg: writer applies and unblocks.
        let mut env = MockActions::client(2, N);
        env.pending = Some(OpKind::Write);
        let s = Firefly.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::Ack, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!((env.changes, env.enables), (1, 1));
        // Total: (P+1) + (N-1)(P+1) + 1 = N(P+1)+1.
    }

    #[test]
    fn sequencer_write_broadcasts_to_all_clients() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Write);
            Firefly.step(&mut seq, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), N as u64 * (P + 1));
    }

    #[test]
    fn broadcast_updates_apply_silently() {
        let mut env = MockActions::client(1, N);
        let s = Firefly.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::Upd, 2, N as u16, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.changes, 1);
        assert!(env.pushes.is_empty());
    }
}
