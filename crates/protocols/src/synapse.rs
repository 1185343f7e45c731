//! The distributed **Synapse** protocol (paper Appendix A, Figures 7–8).
//!
//! Ownership-based: a writer acquires an exclusive (`DIRTY`) copy through
//! the sequencer and subsequent writes are free. Synapse's two
//! distinguishing penalties, carried over from the bus protocol:
//!
//! * the sequencer does **not** track which client holds the dirty copy,
//!   so recalling it requires a broadcast (`N−1` recall tokens);
//! * a dirty copy is *invalidated* by a remote read (the owner does not
//!   keep a shared copy), so the previous owner pays a fresh read miss on
//!   its next read.
//!
//! Client states: `INVALID`, `VALID`, `DIRTY`; sequencer states: `VALID`,
//! `INVALID` plus the transient `RECALLING` (requests arriving while a
//! recall is in flight are answered with `RETRY`).

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, OpKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Synapse protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Synapse;

impl Synapse {
    fn client_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            (MsgKind::RReq, Valid | Dirty) => {
                env.ret();
                state
            }
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(home), MsgKind::RPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // Local write on an exclusive copy is free.
            (MsgKind::WReq, Dirty) => {
                env.change();
                Dirty
            }
            // Synapse treats a write to a shared VALID copy as a miss:
            // the full exclusive acquisition runs either way.
            (MsgKind::WReq, Valid | Invalid) => {
                env.push(Dest::To(home), MsgKind::WPer, PayloadKind::Token);
                env.disable_local();
                state
            }
            (MsgKind::RGnt, Invalid | Valid) => {
                env.install();
                env.ret();
                env.enable_local();
                Valid
            }
            (MsgKind::WGnt, Invalid | Valid) => {
                env.install();
                env.change();
                env.enable_local();
                Dirty
            }
            (MsgKind::WInv, _) => Invalid,
            // Read recall reaches every client (broadcast); only the
            // dirty owner answers, and — Synapse's quirk — invalidates
            // itself.
            (MsgKind::Recall, Dirty) => {
                env.push(Dest::To(home), MsgKind::Flush, PayloadKind::Copy);
                Invalid
            }
            (MsgKind::Recall, Invalid | Valid) => state,
            // Exclusive recall: the owner flushes and invalidates; other
            // copies it reaches are invalidated defensively.
            (MsgKind::RecallX, Dirty) => {
                env.push(Dest::To(home), MsgKind::FlushX, PayloadKind::Copy);
                Invalid
            }
            (MsgKind::RecallX, Invalid | Valid) => Invalid,
            // The sequencer was busy recalling: re-issue our request.
            (MsgKind::Retry, _) => {
                let kind = match env.pending_op() {
                    Some(OpKind::Read) => MsgKind::RPer,
                    Some(OpKind::Write) => MsgKind::WPer,
                    None => return error_entry(self.kind(), env, state, msg),
                };
                env.push(Dest::To(home), kind, PayloadKind::Token);
                state
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }

    fn seq_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            // Own operations.
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            (MsgKind::RReq, Invalid) => {
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::Recall,
                    PayloadKind::Token,
                );
                env.disable_local();
                Recalling
            }
            (MsgKind::WReq, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.enable_local();
                Valid
            }
            (MsgKind::WReq, Invalid) => {
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::RecallX,
                    PayloadKind::Token,
                );
                env.disable_local();
                Recalling
            }
            // Client read misses.
            (MsgKind::RPer, Valid) => {
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                Valid
            }
            (MsgKind::RPer, Invalid) => {
                // Broadcast recall: Synapse does not know the owner.
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::Recall,
                    PayloadKind::Token,
                );
                Recalling
            }
            (MsgKind::RPer | MsgKind::WPer, Recalling) => {
                env.push(Dest::To(msg.initiator), MsgKind::Retry, PayloadKind::Token);
                Recalling
            }
            // The sequencer's own request while a recall is in flight:
            // requeue it behind the pending flush.
            (MsgKind::RReq | MsgKind::WReq, Recalling) => {
                env.push(Dest::To(home), MsgKind::Retry, PayloadKind::Token);
                env.disable_local();
                Recalling
            }
            (MsgKind::Retry, _) => {
                let (kind, payload) = match env.pending_op() {
                    Some(OpKind::Read) => (MsgKind::RReq, PayloadKind::Token),
                    Some(OpKind::Write) => (MsgKind::WReq, PayloadKind::Params),
                    None => return error_entry(self.kind(), env, state, msg),
                };
                env.push(Dest::To(home), kind, payload);
                state
            }
            // Client exclusive acquisitions.
            (MsgKind::WPer, Valid) => {
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                Invalid
            }
            (MsgKind::WPer, Invalid) => {
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::RecallX,
                    PayloadKind::Token,
                );
                Recalling
            }
            // Write-backs answering a recall.
            (MsgKind::Flush, Recalling) => {
                env.install();
                if msg.initiator == home {
                    env.ret();
                    env.enable_local();
                } else {
                    env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                }
                Valid
            }
            (MsgKind::FlushX, Recalling) => {
                env.install();
                if msg.initiator == home {
                    env.change();
                    env.enable_local();
                    Valid
                } else {
                    env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                    Invalid
                }
            }
            // Stale flushes after the recall already completed are dropped.
            (MsgKind::Flush | MsgKind::FlushX, Valid | Invalid) => state,
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

impl CoherenceProtocol for Synapse {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Synapse
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

    const N: usize = 4;
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn write_acquisition_costs_s_plus_n_plus_1() {
        // Writer leg: W-PER token (1), blocked. Same from VALID — Synapse
        // re-fetches even on a write hit.
        for start in [CopyState::Valid, CopyState::Invalid] {
            let mut env = MockActions::client(0, N);
            let s = {
                let m = app_req(&env, OpKind::Write);
                Synapse.step(&mut env, start, &m)
            };
            assert_eq!(s, start);
            assert_eq!(env.disables, 1);
            assert_eq!(env.cost(S, P), 1);
        }
        // Sequencer leg: N-1 invalidations + W-GNT with copy.
        let mut seq = MockActions::sequencer(N);
        let s = Synapse.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(seq.cost(S, P), (N - 1) as u64 + S + 1);
        // Writer completion: free, ends DIRTY.
        let mut env = MockActions::client(0, N);
        let s = Synapse.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WGnt, 0, N as u16, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Dirty);
        assert_eq!((env.installs, env.changes, env.enables), (1, 1, 1));
        // Total: 1 + (N-1) + (S+1) = S+N+1.
    }

    #[test]
    fn dirty_writes_are_free() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Synapse.step(&mut env, CopyState::Dirty, &m)
        };
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.changes, 1);
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn read_miss_on_dirty_block_uses_broadcast_recall() {
        // Requester: R-PER (1).
        // Sequencer at INVALID: broadcast recall except home+initiator.
        let mut seq = MockActions::sequencer(N);
        let s = Synapse.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::RPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.cost(S, P), (N - 1) as u64);

        // Owner flushes and invalidates itself (Synapse quirk).
        let mut owner = MockActions::client(0, N);
        let s = Synapse.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::Recall, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(owner.cost(S, P), S + 1);

        // Non-owners ignore the broadcast.
        let mut other = MockActions::client(2, N);
        let s = Synapse.step(
            &mut other,
            CopyState::Invalid,
            &net_msg(MsgKind::Recall, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert!(other.pushes.is_empty());

        // Sequencer grants from the flushed copy.
        let mut seq = MockActions::sequencer(N);
        let s = Synapse.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::Flush, 1, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.installs, 1);
        assert_eq!(seq.cost(S, P), S + 1);
        // Total: 1 + (N-1) + (S+1) + (S+1) = 2S+N+2.
    }

    #[test]
    fn requests_during_recall_get_retry() {
        let mut seq = MockActions::sequencer(N);
        let s = Synapse.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::RPer, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.pushes[0].kind, MsgKind::Retry);

        // The retried client re-issues its request from pending_op.
        let mut env = MockActions::client(2, N);
        env.pending = Some(OpKind::Read);
        let s = Synapse.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::Retry, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.pushes[0].kind, MsgKind::RPer);
    }

    #[test]
    fn sequencer_own_ops_on_dirty_block_recall_it() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Read);
            Synapse.step(&mut seq, CopyState::Invalid, &m)
        };
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.cost(S, P), N as u64); // recall to all N clients
        let s = Synapse.step(
            &mut seq,
            s,
            &net_msg(MsgKind::Flush, N as u16, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.returns, 1);
    }

    #[test]
    fn exclusive_recall_invalidates_bystanders() {
        let mut env = MockActions::client(3, N);
        let s = Synapse.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::RecallX, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert!(env.pushes.is_empty());
    }

    #[test]
    fn stale_flush_is_dropped() {
        let mut seq = MockActions::sequencer(N);
        let s = Synapse.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::Flush, 1, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert!(seq.pushes.is_empty());
    }
}
