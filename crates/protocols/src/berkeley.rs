//! The distributed **Berkeley** protocol (paper Appendix A, Figure 12).
//!
//! *"The role of the sequencer can be taken by different nodes during
//! protocol execution."* — ownership (and with it the sequencing duty)
//! migrates to the last writer. The owner's copy is `DIRTY` (exclusive)
//! or `SHARED-DIRTY` (readers hold copies); other nodes are `VALID` or
//! `INVALID`. Every node's `owner` register tracks the current owner;
//! the invalidation wave the granting owner broadcasts on an ownership
//! transfer doubles as the ownership announcement.
//!
//! Under read disturbance this is the cheapest of the invalidation
//! protocols (paper §5.1): the activity center *becomes* the sequencer,
//! so its writes cost 0 (`DIRTY`) or one invalidation wave
//! (`SHARED-DIRTY`), and disturbing reads are served directly by the
//! owner for `S+2`.

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Berkeley protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Berkeley;

impl CoherenceProtocol for Berkeley {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Berkeley
    }

    fn initial_state(&self, role: Role) -> CopyState {
        match role {
            // The home node starts as the exclusive owner.
            Role::Sequencer => CopyState::Dirty,
            Role::Client => CopyState::Invalid,
        }
    }

    /// Berkeley's behaviour is uniform across nodes: what a process does
    /// depends on its copy state and the owner register, not on whether
    /// it is the home node.
    fn step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (msg.kind, state) {
            (MsgKind::RReq, Valid | Dirty | SharedDirty) => {
                env.ret();
                state
            }
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::RPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // Owner writes: free when exclusive; one invalidation wave
            // when readers hold copies.
            (MsgKind::WReq, Dirty) => {
                env.change();
                Dirty
            }
            (MsgKind::WReq, SharedDirty) => {
                env.change();
                env.push(
                    Dest::AllExcept(env.me(), None),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Dirty
            }
            // Non-owner writes acquire ownership: an upgrade if our copy
            // is VALID (no data transfer), a full fetch if INVALID.
            (MsgKind::WReq, Valid) => {
                env.push(Dest::To(env.owner()), MsgKind::WUpg, PayloadKind::Token);
                env.disable_local();
                Valid
            }
            (MsgKind::WReq, Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::WPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // Owner serves a read: ship the copy, move to SHARED-DIRTY.
            (MsgKind::RPer, Dirty | SharedDirty) => {
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                SharedDirty
            }
            // Owner grants ownership and broadcasts the invalidation /
            // ownership-announcement wave itself. The grant is the
            // protocol's serialization point: sending the wave from here
            // keeps it FIFO-ordered behind any R-GNT this owner shipped
            // earlier on the same edges (a wave sent by the *grantee*
            // travels different edges and can overtake such a grant,
            // leaving a stale readable copy). The wave excludes the new
            // owner and us, so we invalidate ourselves in place.
            // The grant is also where the ownership epoch advances: the
            // bumped epoch rides on the grant and the wave, so every
            // register update they cause is recognizably newer than any
            // still-in-flight wave from an earlier reign.
            (MsgKind::WUpg, Dirty | SharedDirty) => {
                env.set_owner_epoch(env.owner_epoch() + 1);
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Token);
                env.push(
                    Dest::AllExcept(msg.initiator, Some(env.me())),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.set_owner(msg.initiator);
                Invalid
            }
            (MsgKind::WPer, Dirty | SharedDirty) => {
                env.set_owner_epoch(env.owner_epoch() + 1);
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                env.push(
                    Dest::AllExcept(msg.initiator, Some(env.me())),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.set_owner(msg.initiator);
                Invalid
            }
            // A request reached a node that has since lost ownership:
            // forward it to where we believe the owner is. This applies
            // to our *own* bounced request too (a peer whose register
            // still named us from an earlier reign forwarded it here):
            // because registers only move forward along the grant chain,
            // each forwarding hop lands strictly closer to the current
            // owner and the walk terminates.
            (MsgKind::RPer, Valid | Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::RPer, PayloadKind::Token);
                state
            }
            (MsgKind::WUpg, Valid | Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::WUpg, PayloadKind::Token);
                state
            }
            (MsgKind::WPer, Valid | Invalid) => {
                env.push(Dest::To(env.owner()), MsgKind::WPer, PayloadKind::Token);
                state
            }
            (MsgKind::RGnt, Invalid | Valid) => {
                env.install();
                env.ret();
                env.enable_local();
                Valid
            }
            // Ownership granted: apply the write and take over. The
            // grantor already broadcast the invalidation wave on our
            // behalf.
            (MsgKind::WGnt, Invalid | Valid) => {
                if msg.payload == PayloadKind::Copy {
                    env.install();
                }
                env.change();
                env.set_owner(env.me());
                env.set_owner_epoch(msg.epoch);
                env.enable_local();
                Dirty
            }
            (MsgKind::WInv, _) if msg.epoch >= env.owner_epoch() => {
                env.set_owner(msg.initiator);
                env.set_owner_epoch(msg.epoch);
                Invalid
            }
            // A wave from an ownership transfer older than the one our
            // register already reflects — waves from different grantors
            // share no FIFO channel, so this happens under concurrency.
            // Applying it would point the register *backward* along the
            // grant chain (forwarding could then cycle among former
            // owners) and, worse, a stale wave reaching the *current*
            // owner would silently de-throne it. Drop it.
            (MsgKind::WInv, _) => state,
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

    /// A client mock whose owner register points at `owner`.
    fn client_with_owner(me: u16, owner: u16) -> MockActions {
        let mut env = MockActions::client(me, N);
        env.owner = NodeId(owner);
        env
    }

    #[test]
    fn home_starts_as_exclusive_owner() {
        assert_eq!(Berkeley.initial_state(Role::Sequencer), CopyState::Dirty);
        assert_eq!(Berkeley.initial_state(Role::Client), CopyState::Invalid);
    }

    #[test]
    fn owner_write_on_dirty_is_free() {
        let mut env = client_with_owner(0, 0);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Berkeley.step(&mut env, CopyState::Dirty, &m)
        };
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn owner_write_on_shared_dirty_costs_n() {
        let mut env = client_with_owner(0, 0);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Berkeley.step(&mut env, CopyState::SharedDirty, &m)
        };
        assert_eq!(s, CopyState::Dirty);
        // Invalidation wave to all N other nodes (no sharer directory).
        assert_eq!(env.cost(S, P), N as u64);
    }

    #[test]
    fn read_miss_served_by_owner_costs_s_plus_2() {
        // Requester leg: R-PER to the owner (1).
        let mut env = client_with_owner(1, 0);
        let s = {
            let m = app_req(&env, OpKind::Read);
            Berkeley.step(&mut env, CopyState::Invalid, &m)
        };
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.pushes[0].dest, Dest::To(NodeId(0)));
        assert_eq!(env.cost(S, P), 1);

        // Owner leg: copy shipped, owner → SHARED-DIRTY.
        let mut owner = client_with_owner(0, 0);
        let s = Berkeley.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::RPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::SharedDirty);
        assert_eq!(owner.cost(S, P), S + 1);
    }

    #[test]
    fn ownership_upgrade_costs_n_plus_1() {
        // Upgrader: W-UPG token to owner (1).
        let mut env = client_with_owner(2, 0);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Berkeley.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.cost(S, P), 1);

        // Old owner: token grant (1) plus the N-1 invalidation wave on
        // behalf of the grantee, invalidates itself, tracks grantee.
        let mut owner = client_with_owner(0, 0);
        let s = Berkeley.step(
            &mut owner,
            CopyState::SharedDirty,
            &net_msg(MsgKind::WUpg, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(owner.owner, NodeId(2));
        assert_eq!(owner.cost(S, P), 1 + (N - 1) as u64);

        // New owner: applies and takes over for free (the grantor already
        // sent the wave).
        let mut env = client_with_owner(2, 0);
        let s = Berkeley.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::WGnt, 2, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.owner, NodeId(2));
        assert_eq!(env.installs, 0);
        assert_eq!(env.cost(S, P), 0);
        // Total: 1 + 1 + (N-1) = N+1.
    }

    #[test]
    fn ownership_acquisition_costs_s_plus_n_plus_1() {
        let mut owner = client_with_owner(0, 0);
        let s = Berkeley.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::WPer, 3, 3, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(owner.cost(S, P), S + 1 + (N - 1) as u64);

        let mut env = client_with_owner(3, 0);
        let s = Berkeley.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WGnt, 3, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.installs, 1);
        assert_eq!(env.cost(S, P), 0);
        // Total: 1 + (S+1) + (N-1) = S+N+1.
    }

    #[test]
    fn invalidation_updates_owner_register() {
        let mut env = client_with_owner(1, 0);
        let s = Berkeley.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::WInv, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.owner, NodeId(2));
    }

    #[test]
    fn grant_advances_the_ownership_epoch() {
        let mut owner = client_with_owner(0, 0);
        owner.owner_epoch = 4;
        Berkeley.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::WPer, 3, 3, PayloadKind::Token),
        );
        assert_eq!(owner.owner_epoch, 5);
        // The grantee adopts the epoch the grant carries.
        let mut env = client_with_owner(3, 0);
        let mut gnt = net_msg(MsgKind::WGnt, 3, 0, PayloadKind::Copy);
        gnt.epoch = 5;
        Berkeley.step(&mut env, CopyState::Invalid, &gnt);
        assert_eq!(env.owner, NodeId(3));
        assert_eq!(env.owner_epoch, 5);
    }

    #[test]
    fn fresh_wave_moves_the_register_forward() {
        let mut env = client_with_owner(1, 0);
        env.owner_epoch = 2;
        let mut wave = net_msg(MsgKind::WInv, 3, 3, PayloadKind::Token);
        wave.epoch = 5;
        let s = Berkeley.step(&mut env, CopyState::Valid, &wave);
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.owner, NodeId(3));
        assert_eq!(env.owner_epoch, 5);
    }

    #[test]
    fn stale_wave_does_not_regress_the_register() {
        // Waves from different grantors share no FIFO channel: a wave
        // announcing reign 2 can arrive after the register already
        // reflects reign 5. Applying it would point the register
        // backward along the grant chain and forwarding could cycle.
        let mut env = client_with_owner(1, 4);
        env.owner_epoch = 5;
        let mut wave = net_msg(MsgKind::WInv, 2, 2, PayloadKind::Token);
        wave.epoch = 2;
        let s = Berkeley.step(&mut env, CopyState::Invalid, &wave);
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(
            env.owner,
            NodeId(4),
            "stale wave must not move the register"
        );
        assert_eq!(env.owner_epoch, 5);
    }

    #[test]
    fn stale_wave_does_not_dethrone_the_current_owner() {
        // The current owner (reign 5) receives a delayed wave from the
        // reign-2 transfer. Pre-epoch this silently invalidated the only
        // owner in the system — every later request then bounced among
        // INVALID former owners forever.
        let mut env = client_with_owner(1, 1);
        env.owner_epoch = 5;
        let mut wave = net_msg(MsgKind::WInv, 2, 2, PayloadKind::Token);
        wave.epoch = 2;
        let s = Berkeley.step(&mut env, CopyState::Dirty, &wave);
        assert_eq!(s, CopyState::Dirty, "owner must survive a stale wave");
        assert_eq!(env.owner, NodeId(1));
    }

    #[test]
    fn own_bounced_request_is_reforwarded() {
        // Node 1's W-PER bounced back to node 1 via a peer whose
        // register still named node 1 from an earlier reign. It must be
        // re-forwarded along node 1's own (fresher) register, not die
        // in a protocol error.
        let mut env = client_with_owner(1, 4);
        let s = Berkeley.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WPer, 1, 3, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.pushes[0].dest, Dest::To(NodeId(4)));
        assert_eq!(env.pushes[0].kind, MsgKind::WPer);
    }

    #[test]
    fn stale_owner_forwards_requests() {
        // Node 0 lost ownership to node 2; a late R-PER is forwarded.
        let mut env = client_with_owner(0, 2);
        let s = Berkeley.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::RPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.pushes[0].dest, Dest::To(NodeId(2)));
        assert_eq!(env.pushes[0].kind, MsgKind::RPer);
    }
}
