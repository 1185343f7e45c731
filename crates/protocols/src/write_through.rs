//! The distributed **Write-Through** protocol — the protocol the paper
//! specifies in full (Tables 1–3, Figure 1) and analyzes in detail.
//!
//! * Client copy states: `VALID`, `INVALID` (starting state `INVALID`).
//! * Sequencer copy state: `VALID` only.
//!
//! Behaviour:
//!
//! * A client **read** of a `VALID` copy is local (trace `tr1`, cost 0).
//!   A read of an `INVALID` copy sends `R-PER` to the sequencer and blocks
//!   the local queue until the `R-GNT` carrying the user information
//!   arrives (trace `tr2`, cost `S+2`).
//! * A client **write** sends `W-PER` with the write parameters to the
//!   sequencer, which applies them and sends `W-INV` to the other `N−1`
//!   clients; the writer's own copy becomes `INVALID` (traces `tr3`/`tr4`,
//!   cost `P+N`). The write requires no response, so the local queue is
//!   not disabled.
//! * A sequencer read is local (trace `tr5`, cost 0); a sequencer write
//!   applies the parameters and invalidates all `N` clients (trace `tr6`,
//!   cost `N`).

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Write-Through protocol (paper §2–§4).
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteThrough;

impl WriteThrough {
    fn client_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (msg.kind, state) {
            // Local read hit: routine 101 (pop, return).
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            // Read miss: ask the sequencer, block the local queue.
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(env.home()), MsgKind::RPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // Write: ship the parameters; own copy becomes stale (the
            // sequencer excludes the writer from the invalidation wave,
            // the writer invalidates itself here).
            (MsgKind::WReq, Valid | Invalid) => {
                env.push(Dest::To(env.home()), MsgKind::WPer, PayloadKind::Params);
                Invalid
            }
            // Grant: install the copy, answer the application, re-enable.
            (MsgKind::RGnt, Invalid | Valid) => {
                env.install();
                env.ret();
                env.enable_local();
                Valid
            }
            (MsgKind::WInv, _) => Invalid,
            _ => error_entry(self.kind(), env, state, msg),
        }
    }

    fn seq_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            // Routine 101: local read.
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            // Routine 102: own write — update, invalidate all N clients.
            (MsgKind::WReq, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Valid
            }
            // Routine 103: grant a read with the user information.
            (MsgKind::RPer, Valid) => {
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                Valid
            }
            // Routine 104: client write — update, invalidate all clients
            // except the writer.
            (MsgKind::WPer, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(msg.initiator, Some(home)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Valid
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

impl CoherenceProtocol for WriteThrough {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteThrough
    }

    fn initial_state(&self, role: Role) -> CopyState {
        match role {
            Role::Client => CopyState::Invalid,
            Role::Sequencer => CopyState::Valid,
        }
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

    const N: usize = 4; // clients; home = node 4
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn initial_states_match_paper() {
        assert_eq!(WriteThrough.initial_state(Role::Client), CopyState::Invalid);
        assert_eq!(
            WriteThrough.initial_state(Role::Sequencer),
            CopyState::Valid
        );
    }

    #[test]
    fn trace_tr1_read_hit_is_free() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Read);
            WriteThrough.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.returns, 1);
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn trace_tr2_read_miss_costs_s_plus_2() {
        // Client leg: R-PER (1 unit) and the local queue is disabled.
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Read);
            WriteThrough.step(&mut env, CopyState::Invalid, &m)
        };
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.disables, 1);
        assert_eq!(env.cost(S, P), 1);

        // Sequencer leg: R-GNT with copy (S+1 units).
        let mut seq = MockActions::sequencer(N);
        let s = WriteThrough.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::RPer, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), S + 1);

        // Completion leg: install + return + enable, free.
        let mut env = MockActions::client(0, N);
        let s = WriteThrough.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::RGnt, 0, N as u16, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!((env.installs, env.returns, env.enables), (1, 1, 1));
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn traces_tr3_tr4_write_costs_p_plus_n() {
        for start in [CopyState::Valid, CopyState::Invalid] {
            // Writer leg: W-PER with params (P+1), copy goes INVALID,
            // no blocking (fire-and-forget).
            let mut env = MockActions::client(2, N);
            let s = {
                let m = app_req(&env, OpKind::Write);
                WriteThrough.step(&mut env, start, &m)
            };
            assert_eq!(s, CopyState::Invalid);
            assert_eq!(env.disables, 0);
            assert_eq!(env.cost(S, P), P + 1);

            // Sequencer leg: apply + N-1 invalidations.
            let mut seq = MockActions::sequencer(N);
            let s = WriteThrough.step(
                &mut seq,
                CopyState::Valid,
                &net_msg(MsgKind::WPer, 2, 2, PayloadKind::Params),
            );
            assert_eq!(s, CopyState::Valid);
            assert_eq!(seq.changes, 1);
            assert_eq!(seq.cost(S, P), (N - 1) as u64);
            // Total: P+1 + N-1 = P+N, the paper's cc3 = cc4.
        }
    }

    #[test]
    fn trace_tr5_sequencer_read_is_free() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Read);
            WriteThrough.step(&mut seq, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.returns, 1);
        assert_eq!(seq.cost(S, P), 0);
    }

    #[test]
    fn trace_tr6_sequencer_write_costs_n() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Write);
            WriteThrough.step(&mut seq, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.changes, 1);
        assert_eq!(seq.cost(S, P), N as u64);
    }

    #[test]
    fn invalidation_always_invalidates() {
        for start in [CopyState::Valid, CopyState::Invalid] {
            let mut env = MockActions::client(1, N);
            let s = WriteThrough.step(
                &mut env,
                start,
                &net_msg(MsgKind::WInv, 3, N as u16, PayloadKind::Token),
            );
            assert_eq!(s, CopyState::Invalid);
            assert_eq!(env.cost(S, P), 0);
        }
    }

    #[test]
    fn unexpected_token_is_an_error() {
        let mut env = MockActions::client(0, N);
        let s = WriteThrough.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::Flush, 1, 1, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(
            env.error.take().as_deref(),
            Some(
                "Write-Through protocol error: no transition from state VALID on FLUSH \
                 (initiator n1, sender n1, queue Distributed)"
            )
        );
        assert!(env.pushes.is_empty());
        assert_eq!((env.returns, env.installs, env.changes), (0, 0, 0));
    }
}
