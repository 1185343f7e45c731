//! The distributed **Write-Through-V** protocol — the second distributed
//! adaptation of bus Write-Through (paper §1, Appendix A Figure 9).
//!
//! Unlike plain Write-Through, a client's write *updates its own copy*
//! (which therefore stays `VALID`) as well as the sequencer's copy. For
//! the local update to take its place in the global write order, the
//! writer first obtains a sequencing grant from the sequencer:
//!
//! 1. writer → sequencer: `W-PER` token (1 unit), local queue disabled;
//! 2. sequencer → writer: `W-GNT` token (1 unit);
//! 3. writer applies the write locally, stays `VALID`, and ships the
//!    parameters: writer → sequencer `UPD` (`P+1` units);
//! 4. sequencer applies the parameters and invalidates the other `N−1`
//!    clients (`N−1` units).
//!
//! Total write cost `P+N+2` — this is what makes the paper's ideal-workload
//! cost `p(P+N+2)` and places the WT/WT-V crossover at
//! `p = (1−aσ)·S/(S+2)` (§5.1).
//!
//! The grant is the protocol's *sequencing point*: the sequencer keeps at
//! most one granted write outstanding (state `RECALLING` between the
//! `W-GNT` and the matching `UPD`) and retries any other write
//! permission that arrives in between. Without this, two concurrent
//! writers can both end up `VALID` while each one's invalidation wave
//! excludes the other, leaving a stale readable copy behind.

use repmem_core::{
    protocol_error, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, OpKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Write-Through-V protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteThroughV;

impl WriteThroughV {
    fn client_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (msg.kind, state) {
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(env.home()), MsgKind::RPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // Write: ask for a sequencing grant first; the copy keeps its
            // current state until the grant arrives.
            (MsgKind::WReq, Valid | Invalid) => {
                env.push(Dest::To(env.home()), MsgKind::WPer, PayloadKind::Token);
                env.disable_local();
                state
            }
            // Grant: apply the write locally (copy becomes/stays VALID)
            // and ship the parameters to the sequencer.
            (MsgKind::WGnt, Valid | Invalid) => {
                env.change();
                env.push(Dest::To(env.home()), MsgKind::Upd, PayloadKind::Params);
                env.enable_local();
                Valid
            }
            (MsgKind::RGnt, Invalid | Valid) => {
                env.install();
                env.ret();
                env.enable_local();
                Valid
            }
            (MsgKind::WInv, _) => Invalid,
            // The sequencer deferred us while another write was being
            // sequenced: resend the matching permission request.
            (MsgKind::Retry, _) => {
                let kind = match env.pending_op() {
                    Some(OpKind::Read) => MsgKind::RPer,
                    Some(OpKind::Write) => MsgKind::WPer,
                    None => protocol_error(self.kind(), state, msg),
                };
                env.push(Dest::To(env.home()), kind, PayloadKind::Token);
                state
            }
            _ => protocol_error(self.kind(), state, msg),
        }
    }

    fn seq_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            (MsgKind::RReq, Valid | Recalling) => {
                env.ret();
                state
            }
            // Also the resurfacing of a write the RECALLING arm deferred
            // and disabled: re-enable the local queue, or it never
            // completes.
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
            // The sequencer's own write while a granted client write is
            // outstanding: requeue it behind the pending UPD.
            (MsgKind::WReq, Recalling) => {
                env.push(Dest::To(home), MsgKind::Retry, PayloadKind::Token);
                env.disable_local();
                Recalling
            }
            // Reads may be granted while a write is being sequenced: the
            // reader is covered by the write's later invalidation wave.
            (MsgKind::RPer, Valid | Recalling) => {
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                state
            }
            // Sequencing grant for a client write; RECALLING marks the
            // grant as outstanding until its UPD arrives.
            (MsgKind::WPer, Valid) => {
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Token);
                Recalling
            }
            // One sequenced write at a time: defer concurrent writers.
            (MsgKind::WPer, Recalling) => {
                env.push(Dest::To(msg.initiator), MsgKind::Retry, PayloadKind::Token);
                Recalling
            }
            // The granted writer's parameters: apply and invalidate the
            // other N-1 clients (the writer keeps its valid copy).
            (MsgKind::Upd, Recalling) => {
                env.change();
                env.push(
                    Dest::AllExcept(msg.initiator, Some(home)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Valid
            }
            // The sequencer's own deferred write resurfacing.
            (MsgKind::Retry, _) => {
                match env.pending_op() {
                    Some(OpKind::Write) => {
                        env.push(Dest::To(home), MsgKind::WReq, PayloadKind::Params)
                    }
                    Some(OpKind::Read) => {
                        env.push(Dest::To(home), MsgKind::RReq, PayloadKind::Token)
                    }
                    None => protocol_error(self.kind(), state, msg),
                }
                state
            }
            _ => protocol_error(self.kind(), state, msg),
        }
    }
}

impl CoherenceProtocol for WriteThroughV {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteThroughV
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

    const N: usize = 4;
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn write_keeps_copy_valid_and_costs_p_plus_n_plus_2() {
        // Leg 1: W-PER token, blocked.
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            WriteThroughV.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.disables, 1);
        assert_eq!(env.cost(S, P), 1);

        // Leg 2: sequencer grants (1 unit) and marks the write as the
        // one being sequenced.
        let mut seq = MockActions::sequencer(N);
        let s = WriteThroughV.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.cost(S, P), 1);

        // Leg 3: writer applies locally, ships params (P+1), re-enables,
        // stays VALID.
        let mut env = MockActions::client(0, N);
        env.pending = Some(OpKind::Write);
        let s = WriteThroughV.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::WGnt, 0, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!((env.changes, env.enables), (1, 1));
        assert_eq!(env.cost(S, P), P + 1);

        // Leg 4: sequencer applies and invalidates N-1 others.
        let mut seq = MockActions::sequencer(N);
        let s = WriteThroughV.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::Upd, 0, 0, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.changes, 1);
        assert_eq!(seq.cost(S, P), (N - 1) as u64);
        // Total: 1 + 1 + (P+1) + (N-1) = P+N+2.
    }

    #[test]
    fn concurrent_write_permission_is_deferred() {
        // A second W-PER while a granted write's UPD is outstanding gets
        // a RETRY, not a second grant.
        let mut seq = MockActions::sequencer(N);
        let s = WriteThroughV.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::WPer, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.pushes[0].kind, MsgKind::Retry);

        // The deferred writer resends its permission request.
        let mut env = MockActions::client(2, N);
        env.pending = Some(OpKind::Write);
        WriteThroughV.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::Retry, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(env.pushes[0].kind, MsgKind::WPer);
    }

    #[test]
    fn write_from_invalid_ends_valid() {
        let mut env = MockActions::client(1, N);
        env.pending = Some(OpKind::Write);
        let s = WriteThroughV.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WGnt, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
    }

    #[test]
    fn read_paths_match_write_through() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Read);
            WriteThroughV.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!((s, env.returns), (CopyState::Valid, 1));

        let mut env = MockActions::client(0, N);
        {
            let m = app_req(&env, OpKind::Read);
            WriteThroughV.step(&mut env, CopyState::Invalid, &m)
        };
        assert_eq!(env.cost(S, P), 1);
        let mut seq = MockActions::sequencer(N);
        WriteThroughV.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::RPer, 0, 0, PayloadKind::Token),
        );
        assert_eq!(seq.cost(S, P), S + 1);
    }

    #[test]
    fn sequencer_write_invalidates_all_clients() {
        let mut seq = MockActions::sequencer(N);
        let s = {
            let m = app_req(&seq, OpKind::Write);
            WriteThroughV.step(&mut seq, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), N as u64);
    }

    #[test]
    fn invalidation_during_pending_write_recovers() {
        // A W-INV can land while our own write awaits its grant; the
        // subsequent W-GNT must still leave us VALID with our write
        // applied.
        let mut env = MockActions::client(2, N);
        env.pending = Some(OpKind::Write);
        let s = WriteThroughV.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::WInv, 3, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        let s = WriteThroughV.step(
            &mut env,
            s,
            &net_msg(MsgKind::WGnt, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
    }
}
