//! The distributed **Write-Once** protocol (paper Appendix A, Figure 10).
//!
//! A hybrid of write-through and ownership: the *first* write to a copy is
//! written through to the sequencer exactly like Write-Through (the copy
//! becomes `RESERVED`), a *second* write notifies the sequencer that the
//! copy is going `DIRTY` (one token — from then on the sequencer's copy is
//! stale), and all further writes are free. Per the paper's note on
//! Figure 10, a client write moves the sequencer's copy from `VALID` to
//! `INVALID` only when the writing client's copy is `RESERVED` or
//! `INVALID`.
//!
//! The sequencer tracks the dirty owner (it learns it from the DIRTY-NOTE
//! or from granting an exclusive fetch), so recalls are targeted like
//! Illinois's.
//!
//! `RESERVED` must be *exclusive* — the silent local `R → D` write is only
//! coherent if no other client holds a valid copy. The bus protocol gets
//! this by snooping (a remote read miss downgrades `RESERVED → VALID` on
//! the bus); here the sequencer tracks the reserved/dirty holder in its
//! owner register and sends a one-token downgrade `RECALL` before serving
//! a read miss while a `RESERVED` copy exists (the holder's copy is clean,
//! so no flush is needed — the miss costs `S+3` instead of `S+2`).
//!
//! A bus orders the silent transitions for free; message channels do not.
//! Nothing acknowledges a write-through, so a client that has gone
//! `RESERVED` (or on to `DIRTY`) cannot tell a `W-INV` of a wave ordered
//! *before* its own write from one ordered after it, and the sequencer's
//! owner register can name a holder whose copy such a wave has already
//! taken. Three rules keep that coherent and live, all off the race-free
//! paths the cost model prices: a `DIRTY` copy hit by a wave is written
//! back; every recall but the priced downgrade is answered with whatever
//! the client holds, and the sequencer completes a waiting recall only on
//! the flush that echoes its generation (merging any other); and data
//! that reaches the sequencer under a `DIRTY` reign from anyone but the
//! holder is merged and the holder's copy called in. Version-checked
//! merges (`change`/`install`) make the order of arrival irrelevant.

use repmem_core::{
    error_entry, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, OpKind, PayloadKind,
    ProtocolKind, Role,
};

/// The distributed Write-Once protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteOnce;

/// A recall the sequencer waits on: sent to the registered owner under a
/// fresh generation (the epoch register, stamped on the message by the
/// host and echoed by the flush that answers it), so that no other flush
/// still in flight — the answer to an earlier downgrade, say — can be
/// taken for this one's and complete the wrong request.
fn recall(env: &mut dyn Actions, kind: MsgKind) -> CopyState {
    env.set_owner_epoch(env.owner_epoch() + 1);
    env.push(Dest::To(env.owner()), kind, PayloadKind::Token);
    CopyState::Recalling
}

impl WriteOnce {
    fn client_step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        let home = env.home();
        match (msg.kind, state) {
            (MsgKind::RReq, Valid | Reserved | Dirty) => {
                env.ret();
                state
            }
            (MsgKind::RReq, Invalid) => {
                env.push(Dest::To(home), MsgKind::RPer, PayloadKind::Token);
                env.disable_local();
                Invalid
            }
            // First write: write through (the sequencer applies the
            // parameters and invalidates the other clients).
            (MsgKind::WReq, Valid) => {
                env.change();
                env.push(Dest::To(home), MsgKind::WPer, PayloadKind::Params);
                Reserved
            }
            // Second write: local, but tell the sequencer its copy is now
            // stale.
            (MsgKind::WReq, Reserved) => {
                env.change();
                env.push(Dest::To(home), MsgKind::DirtyNote, PayloadKind::Token);
                Dirty
            }
            (MsgKind::WReq, Dirty) => {
                env.change();
                Dirty
            }
            // Write miss: fetch the block, then write through.
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
            // Exclusive fetch granted: install, apply, and complete the
            // write-through leg.
            (MsgKind::WGnt, Invalid | Valid) => {
                env.install();
                env.change();
                env.push(Dest::To(home), MsgKind::Upd, PayloadKind::Params);
                env.enable_local();
                Reserved
            }
            // A DIRTY copy holds writes nobody else has, and the wave may
            // be one ordered *before* the write-through that made us the
            // holder (nothing acknowledges that, so we cannot tell) — in
            // which case the sequencer never asks for them. Write them
            // back; the version-checked install sorts out the order.
            (MsgKind::WInv, Dirty) => {
                env.push(Dest::To(home), MsgKind::FlushX, PayloadKind::Copy);
                Invalid
            }
            (MsgKind::WInv, _) => Invalid,
            // Downgrade: another node is about to read; our clean
            // exclusive copy becomes plain VALID. The sequencer already
            // has the data and does not wait, so no flush travels.
            (MsgKind::Recall, Reserved) => Valid,
            // Every other recall is answered with whatever we hold, under
            // the generation it came with (see `seq_step`): the
            // sequencer may be waiting, and its owner register can name
            // us when we are not DIRTY any more — a downgrade crossed
            // our DIRTY-NOTE, or a W-INV from a wave ordered before our
            // own write-through took the copy away, DIRTY data included,
            // which then survives only in these bytes. The sequencer's
            // install is version-checked.
            (MsgKind::Recall, Dirty | Valid | Invalid) => {
                env.set_owner_epoch(msg.epoch);
                env.push(Dest::To(home), MsgKind::Flush, PayloadKind::Copy);
                if state == Invalid {
                    Invalid
                } else {
                    Valid
                }
            }
            (MsgKind::RecallX, _) => {
                env.set_owner_epoch(msg.epoch);
                env.push(Dest::To(home), MsgKind::FlushX, PayloadKind::Copy);
                Invalid
            }
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
            (MsgKind::RReq, Valid) => {
                env.ret();
                Valid
            }
            (MsgKind::RReq, Invalid) => {
                let next = recall(env, MsgKind::Recall);
                env.disable_local();
                next
            }
            (MsgKind::WReq, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(home, None),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.set_owner(home);
                env.enable_local();
                Valid
            }
            (MsgKind::WReq, Invalid) => {
                let next = recall(env, MsgKind::RecallX);
                env.disable_local();
                next
            }
            (MsgKind::RPer, Valid) => {
                // Downgrade an exclusive RESERVED holder before handing
                // out a shared copy.
                if env.owner() != home {
                    env.push(Dest::To(env.owner()), MsgKind::Recall, PayloadKind::Token);
                    env.set_owner(home);
                }
                env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                Valid
            }
            (MsgKind::RPer, Invalid) => recall(env, MsgKind::Recall),
            // A VALID client's write-through: apply, invalidate others;
            // the writer now holds the exclusive RESERVED copy.
            (MsgKind::WPer, Valid) if msg.payload == PayloadKind::Params => {
                env.change();
                env.push(
                    Dest::AllExcept(msg.initiator, Some(home)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.set_owner(msg.initiator);
                Valid
            }
            // An INVALID client's write miss: grant an exclusive fetch
            // (its UPD write-through leg follows).
            (MsgKind::WPer, Valid) => {
                env.push(
                    Dest::AllExcept(home, Some(msg.initiator)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                env.set_owner(msg.initiator);
                Valid
            }
            // Write parameters reaching us while a DIRTY holder reigns: a
            // write-through (either leg) that left its copy before the
            // wave that took the copy away arrived. Nobody waits for an
            // answer. Merge them and call the holder's copy in for good
            // (same generation — we do not wait either), so that no copy
            // older than the merge survives as DIRTY or, after a
            // downgrade, VALID.
            (MsgKind::WPer | MsgKind::Upd, Invalid | Recalling)
                if msg.payload == PayloadKind::Params =>
            {
                env.change();
                env.push(Dest::To(env.owner()), MsgKind::RecallX, PayloadKind::Token);
                state
            }
            (MsgKind::WPer, Invalid) => recall(env, MsgKind::RecallX),
            // The write-through leg of a write miss.
            (MsgKind::Upd, Valid) => {
                env.change();
                env.push(
                    Dest::AllExcept(msg.initiator, Some(home)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Valid
            }
            // A RESERVED copy went DIRTY: our copy is now stale. Only
            // accept the note from the node our owner register says holds
            // the RESERVED copy. A stale note — the register moved on
            // while it was in flight — needs no answer: whatever moved
            // the register also sent that node a RECALL (it flushes and
            // downgrades) or a W-INV (its write is ordered before the
            // one that invalidated it), FIFO-behind which nothing of
            // ours can overtake. Recalling it *again* from here would
            // reach it an arbitrary time later — possibly into its next,
            // legitimate DIRTY reign, leaving us INVALID with an owner
            // that has nothing left to flush.
            (MsgKind::DirtyNote, Valid) if msg.initiator == env.owner() => Invalid,
            (MsgKind::DirtyNote, Valid | Invalid | Recalling) => state,
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
            (MsgKind::Flush, Recalling) if msg.epoch == env.owner_epoch() => {
                env.install();
                env.set_owner(home);
                if msg.initiator == home {
                    env.ret();
                    env.enable_local();
                } else {
                    env.push(Dest::To(msg.initiator), MsgKind::RGnt, PayloadKind::Copy);
                }
                Valid
            }
            (MsgKind::FlushX, Recalling) if msg.epoch == env.owner_epoch() => {
                env.install();
                if msg.initiator == home {
                    env.change();
                    env.push(
                        Dest::AllExcept(home, None),
                        MsgKind::WInv,
                        PayloadKind::Token,
                    );
                    env.set_owner(home);
                    env.enable_local();
                    Valid
                } else {
                    env.push(Dest::To(msg.initiator), MsgKind::WGnt, PayloadKind::Copy);
                    env.set_owner(msg.initiator);
                    Valid
                }
            }
            // A flush we are not waiting for (while RECALLING: one of
            // another generation) is merged; who may keep a copy
            // depends on where we stand.
            //
            // INVALID, from the node our owner register names: the
            // holder wrote back — a downgrade crossed its DIRTY-NOTE, or
            // we called its copy in above — so ours is current again and
            // no other client holds one.
            (MsgKind::Flush | MsgKind::FlushX, Invalid) if msg.sender == env.owner() => {
                env.install();
                env.set_owner(home);
                Valid
            }
            // VALID: the holder we downgraded as RESERVED (clean, so the
            // read miss was granted from our copy without waiting) had
            // silently gone DIRTY, its note still in flight. Whoever we
            // granted since holds the older data as VALID: invalidate
            // everyone but the flusher so they re-fetch.
            (MsgKind::Flush | MsgKind::FlushX, Valid) => {
                env.install();
                env.push(
                    Dest::AllExcept(msg.sender, Some(home)),
                    MsgKind::WInv,
                    PayloadKind::Token,
                );
                Valid
            }
            // Otherwise a DIRTY holder still reigns: as with stray write
            // parameters above, a merge from anyone else calls its copy
            // in. (Its own stray flush, while RECALLING, needs nothing:
            // the answer we wait for is behind it.)
            (MsgKind::Flush | MsgKind::FlushX, Invalid | Recalling) => {
                env.install();
                if msg.sender != env.owner() {
                    env.push(Dest::To(env.owner()), MsgKind::RecallX, PayloadKind::Token);
                }
                state
            }
            _ => error_entry(self.kind(), env, state, msg),
        }
    }
}

impl CoherenceProtocol for WriteOnce {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::WriteOnce
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
    fn first_write_writes_through_to_reserved() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            WriteOnce.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Reserved);
        assert_eq!(env.changes, 1);
        assert_eq!(env.disables, 0); // fire-and-forget like Write-Through
        assert_eq!(env.cost(S, P), P + 1);

        let mut seq = MockActions::sequencer(N);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 0, 0, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.changes, 1);
        assert_eq!(seq.cost(S, P), (N - 1) as u64);
        // Total first write: P+N, identical to Write-Through.
    }

    #[test]
    fn second_write_sends_one_token_and_goes_dirty() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            WriteOnce.step(&mut env, CopyState::Reserved, &m)
        };
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.cost(S, P), 1);

        // Sequencer marks itself stale (Fig. 10 note: write from
        // RESERVED flips the sequencer VALID → INVALID). Its owner
        // register already points at the RESERVED holder from the
        // write-through.
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::DirtyNote, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(seq.owner, NodeId(0));
        assert!(seq.pushes.is_empty());

        // A stale note from a node that is no longer the registered
        // holder is dropped: the recall or invalidation that moved the
        // register is already on its way to that node.
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(2);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::DirtyNote, 0, 0, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert!(seq.pushes.is_empty());
        assert_eq!(seq.owner, NodeId(2));
    }

    #[test]
    fn third_write_is_free() {
        let mut env = MockActions::client(0, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            WriteOnce.step(&mut env, CopyState::Dirty, &m)
        };
        assert_eq!(s, CopyState::Dirty);
        assert_eq!(env.cost(S, P), 0);
    }

    #[test]
    fn write_miss_fetches_then_writes_through() {
        // Miss leg: W-PER token.
        let mut env = MockActions::client(1, N);
        let s = {
            let m = app_req(&env, OpKind::Write);
            WriteOnce.step(&mut env, CopyState::Invalid, &m)
        };
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.cost(S, P), 1);

        // Sequencer: invalidate others, grant copy.
        let mut seq = MockActions::sequencer(N);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 1, 1, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), (N - 1) as u64 + S + 1);

        // Client: install, apply, write through, end RESERVED.
        let mut env = MockActions::client(1, N);
        let s = WriteOnce.step(
            &mut env,
            CopyState::Invalid,
            &net_msg(MsgKind::WGnt, 1, N as u16, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Reserved);
        assert_eq!(env.cost(S, P), P + 1);

        // Sequencer applies the UPD leg (re-invalidation is harmless).
        let mut seq = MockActions::sequencer(N);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::Upd, 1, 1, PayloadKind::Params),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), (N - 1) as u64);
        // Total: 1 + (N-1) + (S+1) + (P+1) + (N-1) = S+P+2N.
    }

    #[test]
    fn read_miss_on_dirty_is_targeted_2s_plus_4() {
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::RPer, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.cost(S, P), 1);

        let mut owner = MockActions::client(0, N);
        let s = WriteOnce.step(
            &mut owner,
            CopyState::Dirty,
            &net_msg(MsgKind::Recall, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid); // keeps a valid copy after write-back
        assert_eq!(owner.cost(S, P), S + 1);

        let mut seq = MockActions::sequencer(N);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Recalling,
            &net_msg(MsgKind::Flush, 2, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.cost(S, P), S + 1);
        // Total: 1 + 1 + (S+1) + (S+1) = 2S+4.
    }

    #[test]
    fn read_miss_while_reserved_downgrades_holder_for_s_plus_3() {
        // Sequencer: one downgrade token to the RESERVED holder, then the
        // grant; owner register cleared.
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::RPer, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.owner, NodeId(N as u16));
        assert_eq!(seq.pushes[0].kind, MsgKind::Recall);
        assert_eq!(seq.pushes[1].kind, MsgKind::RGnt);
        assert_eq!(seq.cost(S, P), 1 + S + 1);

        // Holder: silent downgrade, no flush (the copy is clean).
        let mut holder = MockActions::client(0, N);
        let s = WriteOnce.step(
            &mut holder,
            CopyState::Reserved,
            &net_msg(MsgKind::Recall, 2, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert!(holder.pushes.is_empty());
        // Total: 1 (R-PER) + 1 (downgrade) + (S+1) = S+3.
    }

    #[test]
    fn write_through_records_reserved_holder() {
        let mut seq = MockActions::sequencer(N);
        WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::WPer, 1, 1, PayloadKind::Params),
        );
        assert_eq!(seq.owner, NodeId(1));
    }

    #[test]
    fn reads_on_owned_states_are_free() {
        for st in [CopyState::Valid, CopyState::Reserved, CopyState::Dirty] {
            let mut env = MockActions::client(0, N);
            let s = {
                let m = app_req(&env, OpKind::Read);
                WriteOnce.step(&mut env, st, &m)
            };
            assert_eq!(s, st);
            assert_eq!(env.cost(S, P), 0);
        }
    }

    #[test]
    fn invalidation_covers_reserved_and_dirty() {
        for st in [
            CopyState::Valid,
            CopyState::Reserved,
            CopyState::Dirty,
            CopyState::Invalid,
        ] {
            let mut env = MockActions::client(3, N);
            let s = WriteOnce.step(
                &mut env,
                st,
                &net_msg(MsgKind::WInv, 0, N as u16, PayloadKind::Token),
            );
            assert_eq!(s, CopyState::Invalid);
        }
    }

    /// The downgrade race: a read miss is granted from the sequencer's
    /// copy while the RESERVED holder is told to downgrade — but the
    /// holder had already written again (DIRTY, note in flight) and
    /// answers the RECALL with a flush. The grantee now holds the older
    /// data as VALID; the flush must invalidate it.
    #[test]
    fn unsolicited_flush_while_valid_invalidates_the_stale_grantees() {
        let mut seq = MockActions::sequencer(N);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Valid,
            &net_msg(MsgKind::Flush, 2, 1, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.installs, 1);
        assert_eq!(seq.pushes.len(), 1);
        assert_eq!(seq.pushes[0].kind, MsgKind::WInv);
        assert_eq!(
            seq.pushes[0].dest,
            Dest::AllExcept(NodeId(1), Some(NodeId(N as u16)))
        );
    }

    /// A wave that hits a DIRTY copy may be older than the reign it
    /// ends, so the sequencer may never ask for the data: write it back.
    #[test]
    fn a_wave_hitting_a_dirty_copy_writes_it_back() {
        let mut env = MockActions::client(0, N);
        let s = WriteOnce.step(
            &mut env,
            CopyState::Dirty,
            &net_msg(MsgKind::WInv, 1, N as u16, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Invalid);
        assert_eq!(env.pushes.len(), 1);
        assert_eq!(env.pushes[0].kind, MsgKind::FlushX);
        assert_eq!(env.pushes[0].payload, PayloadKind::Copy);
        assert_eq!(env.pushes[0].dest, Dest::To(NodeId(N as u16)));
    }

    /// The sequencer waits on every recall but the downgrade of a
    /// RESERVED copy, whatever became of the copy it recalls: each is
    /// answered, under the generation it came with.
    #[test]
    fn every_recall_but_the_reserved_downgrade_is_answered() {
        use CopyState::*;
        for (kind, answer) in [
            (MsgKind::Recall, MsgKind::Flush),
            (MsgKind::RecallX, MsgKind::FlushX),
        ] {
            for state in [Invalid, Valid, Reserved, Dirty] {
                let mut env = MockActions::client(0, N);
                let mut recall = net_msg(kind, 2, N as u16, PayloadKind::Token);
                recall.epoch = 7;
                let next = WriteOnce.step(&mut env, state, &recall);
                if (kind, state) == (MsgKind::Recall, Reserved) {
                    assert_eq!(next, Valid);
                    assert!(env.pushes.is_empty());
                    continue;
                }
                let kept = kind == MsgKind::Recall && state != Invalid;
                assert_eq!(
                    next,
                    if kept { Valid } else { Invalid },
                    "{kind:?} {state:?}"
                );
                assert_eq!(env.pushes.len(), 1, "{kind:?} {state:?}");
                assert_eq!(env.pushes[0].kind, answer);
                assert_eq!(env.pushes[0].payload, PayloadKind::Copy);
                assert_eq!(env.owner_epoch, 7, "the answer echoes the generation");
            }
        }
    }

    /// A flush left over from an earlier exchange must not complete the
    /// recall the sequencer is waiting on (and grant the wrong request):
    /// only the flush echoing the recall's generation does.
    #[test]
    fn only_the_flush_of_its_generation_completes_a_recall() {
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        seq.owner_epoch = 2;
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::RPer, 2, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.owner_epoch, 3);

        // A stray flush from another node: merged, and — a DIRTY holder
        // still reigns — the holder's copy is called in.
        let mut stray = net_msg(MsgKind::Flush, 1, 1, PayloadKind::Copy);
        stray.epoch = 2;
        seq.pushes.clear();
        let s = WriteOnce.step(&mut seq, CopyState::Recalling, &stray);
        assert_eq!(s, CopyState::Recalling);
        assert_eq!(seq.installs, 1);
        assert_eq!(seq.pushes.len(), 1);
        assert_eq!(seq.pushes[0].kind, MsgKind::RecallX);
        assert_eq!(seq.pushes[0].dest, Dest::To(NodeId(0)));
        assert_eq!(seq.owner_epoch, 3, "nobody waits on that recall");

        // The holder's own stray flush: merged, nothing else.
        let mut stray = net_msg(MsgKind::Flush, 1, 0, PayloadKind::Copy);
        stray.epoch = 2;
        seq.pushes.clear();
        let s = WriteOnce.step(&mut seq, CopyState::Recalling, &stray);
        assert_eq!(s, CopyState::Recalling);
        assert!(seq.pushes.is_empty());

        // The answer.
        let mut answer = net_msg(MsgKind::Flush, 2, 0, PayloadKind::Copy);
        answer.epoch = 3;
        let s = WriteOnce.step(&mut seq, CopyState::Recalling, &answer);
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.owner, NodeId(N as u16));
        assert_eq!(seq.pushes.len(), 1);
        assert_eq!(seq.pushes[0].kind, MsgKind::RGnt);
        assert_eq!(seq.pushes[0].dest, Dest::To(NodeId(2)));
    }

    /// A fire-and-forget write-through (either leg) that reaches the
    /// sequencer under a DIRTY reign is not a write miss: nobody waits
    /// for a grant. Its parameters are merged and the holder called in.
    #[test]
    fn write_parameters_under_a_dirty_reign_are_merged_not_granted() {
        for kind in [MsgKind::WPer, MsgKind::Upd] {
            for state in [CopyState::Invalid, CopyState::Recalling] {
                let mut seq = MockActions::sequencer(N);
                seq.owner = NodeId(0);
                seq.owner_epoch = 4;
                let s = WriteOnce.step(&mut seq, state, &net_msg(kind, 1, 1, PayloadKind::Params));
                assert_eq!(s, state, "{kind:?}");
                assert_eq!(seq.changes, 1);
                assert_eq!(seq.pushes.len(), 1);
                assert_eq!(seq.pushes[0].kind, MsgKind::RecallX);
                assert_eq!(seq.pushes[0].dest, Dest::To(NodeId(0)));
                assert_eq!(seq.owner_epoch, 4);
            }
        }
        // The holder's write-back then finds us INVALID and not waiting.
        let mut seq = MockActions::sequencer(N);
        seq.owner = NodeId(0);
        let s = WriteOnce.step(
            &mut seq,
            CopyState::Invalid,
            &net_msg(MsgKind::FlushX, 1, 0, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(seq.owner, NodeId(N as u16));
        assert!(seq.pushes.is_empty());
    }
}
