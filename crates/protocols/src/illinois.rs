//! The distributed **Illinois** protocol (paper Appendix A).
//!
//! Same state structure as Synapse, with the two improvements the paper
//! credits for its lower cost:
//!
//! * the sequencer *"updates all the time the address of the client which
//!   has the copy in DIRTY state"* — recalls are a single targeted token
//!   instead of Synapse's broadcast, and the recalled owner keeps a
//!   `VALID` copy after servicing a read;
//! * a write hit on a `VALID` copy upgrades in place (`W-UPG`): the grant
//!   carries no data, so the upgrade costs `N+1` instead of a full
//!   `S+N+1` acquisition.

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, OpKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Illinois protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Illinois;

impl Illinois {
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
            (MsgKind::WReq, Dirty) => {
                env.change();
                Dirty
            }
            // Write hit on a shared copy: upgrade without data transfer.
            (MsgKind::WReq, Valid) => {
                env.push(Dest::To(home), MsgKind::WUpg, PayloadKind::Token);
                env.disable_local();
                Valid
            }
            (MsgKind::WReq, Invalid) => {
                env.push(Dest::To(home), MsgKind::WPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            (MsgKind::RGnt, Invalid | Valid) => {
                env.install();
                env.ret();
                env.enable_local();
                Valid
            }
            // A token-only grant answers a W-UPG and carries no data: our
            // copy was current when the upgrade was issued. If a
            // concurrent write invalidated it while the W-UPG was in
            // flight, the whole-object write parameters applied by
            // `change` still bring the copy current, so the grant
            // completes from INVALID too.
            (MsgKind::WGnt, Invalid | Valid) => {
                if msg.payload == PayloadKind::Copy {
                    env.install();
                }
                env.change();
                env.enable_local();
                Dirty
            }
            (MsgKind::WInv, _) => Invalid,
            // Targeted read recall: flush but keep a VALID copy
            // (Illinois's advantage over Synapse).
            (MsgKind::Recall, Dirty) => {
                env.push(Dest::To(home), MsgKind::Flush, PayloadKind::Copy);
                Valid
            }
            (MsgKind::RecallX, Dirty) => {
                env.push(Dest::To(home), MsgKind::FlushX, PayloadKind::Copy);
                Invalid
            }
            // Defensive: a recall that raced past an ownership change.
            (MsgKind::Recall, Invalid | Valid) => state,
            (MsgKind::RecallX, Invalid | Valid) => Invalid,
            (MsgKind::Retry, _) => {
                let kind = match (env.pending_op(), state) {
                    (Some(OpKind::Read), _) => MsgKind::RPer,
                    (Some(OpKind::Write), Valid) => MsgKind::WUpg,
                    (Some(OpKind::Write), _) => MsgKind::WPer,
                    (None, _) => return error_entry(self.kind(), env, state, msg),
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
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::Recall, PayloadKind::Token);
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
                env.push(Dest::To(env.owner()), MsgKind::RecallX, PayloadKind::Token);
                env.disable_local();
                Recalling
            }
            (MsgKind::RPer, Valid) => {
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                Valid
            }
            // Targeted recall: the tracked owner's address.
            (MsgKind::RPer, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::Recall, PayloadKind::Token);
                Recalling
            }
            (MsgKind::WPer, Valid) => {
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                env.set_owner(msg.initiator);
                Invalid
            }
            (MsgKind::WPer, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::RecallX, PayloadKind::Token);
                Recalling
            }
            // Upgrade: invalidate the other sharers, grant a token.
            (MsgKind::WUpg, Valid) => {
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Token);
                env.set_owner(msg.initiator);
                Invalid
            }
            // A concurrent acquisition invalidated the upgrader's copy
            // before its W-UPG was sequenced: fall back to a full acquire.
            (MsgKind::WUpg, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::RecallX, PayloadKind::Token);
                Recalling
            }
            (MsgKind::RPer | MsgKind::WPer | MsgKind::WUpg, Recalling) => {
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
                    env.set_owner(msg.initiator);
                    Invalid
                }
            }
            (MsgKind::Flush | MsgKind::FlushX, Valid | Invalid) => state,
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

impl CoherenceProtocol for Illinois {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Illinois
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
    use repmem_core::NodeId;

    const N: usize = 4;
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn upgrade_from_valid_costs_n_plus_1() {
        // Writer: W-UPG (1).
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Illinois.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.pushes[0].kind, MsgKind::WUpg);
        assert_eq!(env.cost(S, P), 1);

        // Sequencer: N-1 invalidations + token grant, owner tracked.
        let mut seq = MockActions::sequencer(N);
        let s = Illinois.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WUpg, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(seq.owner, NodeId(0));
        assert_eq!(seq.cost(S, P), (N - 1) as u64 + 1);

        // Writer completes without data transfer.
        let mut env = MockActions::client(0, N);
        let s = Illinois.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::WGnt, 0, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.installs, 0);
        assert_eq!(env.changes, 1);
        // Total: 1 + (N-1) + 1 = N+1.
    }

    #[test]
    fn acquisition_from_invalid_costs_s_plus_n_plus_1() {
        let mut seq = MockActions::sequencer(N);
        let s = Illinois.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(seq.cost(S, P), (N - 1) as u64 + S + 1);
        let mut env = MockActions::client(1, N);
        let s = Illinois.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WGnt, 1, N as u16, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.installs, 1);
    }

    #[test]
    fn read_miss_on_dirty_uses_targeted_recall_cost_2s_plus_4() {
        // Sequencer recalls exactly one node — the tracked owner.
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(2);
        let s = Illinois.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::RPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.pushes.len(), 1);
        assert_eq!(seq.pushes[0].dest, Dest::To(NodeId(2)));
        assert_eq!(seq.cost(S, P), 1);

        // Owner keeps a VALID copy after a read recall.
        let mut owner = MockActions::client(2, N);
        let s = Illinois.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::Recall, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(owner.cost(S, P), S + 1);

        // Grant leg.
        let mut seq = MockActions::sequencer(N);
        let s = Illinois.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::Flush, 1, 2, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), S + 1);
        // Total: 1 (R-PER) + 1 (RECALL) + (S+1) + (S+1) = 2S+4.
    }

    #[test]
    fn write_miss_on_dirty_transfers_ownership() {
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        let s = Illinois.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::WPer, 3, 3, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.pushes[0].kind, MsgKind::RecallX);

        let mut owner = MockActions::client(0, N);
        let s = Illinois.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::RecallX, 3, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);

        let mut seq = MockActions::sequencer(N);
        let s = Illinois.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::FlushX, 3, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(seq.owner, NodeId(3));
    }

    #[test]
    fn retry_resends_matching_request() {
        let mut env = MockActions::client(1, N);
        env.pending = Some(OpKind::Write);
        Illinois.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::Retry, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(env.pushes[0].kind, MsgKind::WUpg);
        let mut env = MockActions::client(1, N);
        env.pending = Some(OpKind::Write);
        Illinois.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::Retry, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(env.pushes[0].kind, MsgKind::WPer);
    }

    #[test]
    fn sequencer_read_miss_on_dirty_costs_s_plus_2() {
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(1);
        let s = {
            let m = app_req(&seq, OpKind::Read);
            Illinois.step(&mut seq, CopyState::Invalid, &m)
        };
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.cost(S, P), 1);
        let s = Illinois.step(
            &mut seq,
            s,
            &net_msg(MsgKind::Flush, N as u16, 1, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.returns, 1);
    }
}
