//! The sequencer-free **Quorum** protocol — an SC-ABD-style majority
//! protocol (Attiya–Bar-Noy–Dolev read/write quorums with the read
//! write-back that makes the register atomic, run only when a read's
//! votes disagree, following Ekström & Haridi's sequentially
//! consistent DSM formulation).
//!
//! Unlike the paper's eight protocols there is **no sequencer**: every
//! node holds an ordinary replica (starting state `VALID` everywhere)
//! and every operation runs a majority round driven by the initiator:
//!
//! 1. **Query** — broadcast `Q-PROBE`; each peer answers `Q-VOTE`
//!    carrying its copy. The initiator installs the freshest copy as
//!    votes arrive and counts them through [`Actions::quorum_vote`].
//!    The round is armed for `⌊n/2⌋` peer votes, which together with
//!    the initiator's own replica is a strict majority of `n`.
//! 2. **Commit** — at the vote threshold the initiator broadcasts
//!    `Q-COMMIT`: for a write, the write parameters stamped with a
//!    version above everything phase 1 observed; for a read, the
//!    freshest copy written back so a majority stores what the read is
//!    about to return. Peers apply and answer `Q-ACK`; at the ack
//!    threshold the operation completes.
//!
//! A read skips phase 2 when phase 1 was unanimous
//! ([`Actions::quorum_unanimous`]): every counted vote carried the
//! stamp the initiator now holds, so the initiator and its voters — a
//! strict majority — already store the value it returns, and the
//! write-back would change nothing any later round can see. This is the
//! **one-round read**; a read whose votes disagree (or whose own copy is
//! newer than every vote) still writes back, which keeps the register
//! atomic. Writes always run both phases.
//!
//! Both phases only ever need `⌊n/2⌋` peer replies, so a **minority**
//! of dead replicas leaves every operation still completing — the
//! availability contrast with the sequencer family that
//! `crates/runtime/tests/quorum_faults.rs` pins down.
//!
//! Serialized cost of a client round (all `n−1` peers answering, every
//! replica on the last committed write, so every read is one round):
//! read `(n−1)(S+2)`, write `(n−1)(S+P+4)` — see `repmem-analytic`'s
//! `closed::quorum`. A read that writes back costs `(n−1)(2S+4)`.

use repmem_core::{
    protocol_error, Actions, CoherenceProtocol, CopyState, Dest, Msg, MsgKind, OpKind, PayloadKind,
    ProtocolKind, Role,
};

/// The sequencer-free majority-quorum protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quorum;

impl Quorum {
    /// Peer votes needed for a majority of `n` counting the initiator's
    /// own replica: `⌊n/2⌋`.
    fn peer_majority(env: &dyn Actions) -> usize {
        env.n_nodes() / 2
    }
}

impl CoherenceProtocol for Quorum {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Quorum
    }

    fn initial_state(&self, _role: Role) -> CopyState {
        // No sequencer: every replica starts VALID (the shared initial
        // value), and the role is never consulted.
        CopyState::Valid
    }

    fn step(&self, env: &mut dyn Actions, state: CopyState, msg: &Msg) -> CopyState {
        use CopyState::*;
        match (msg.kind, state) {
            // Every operation — read or write, any node — opens a query
            // round: block the local queue, arm the vote counter, probe
            // all peers.
            (MsgKind::RReq | MsgKind::WReq, Valid) => {
                env.disable_local();
                env.quorum_arm(Quorum::peer_majority(env));
                let me = env.me();
                env.push(
                    Dest::AllExcept(me, None),
                    MsgKind::QProbe,
                    PayloadKind::Token,
                );
                Querying
            }
            // A peer's probe is answered from any state with our copy;
            // our own round (if any) is unaffected.
            (MsgKind::QProbe, s) => {
                env.push(Dest::To(msg.initiator), MsgKind::QVote, PayloadKind::Copy);
                s
            }
            // Phase-1 vote: merge the carried copy (install is
            // version-monotone), and at the threshold either finish a
            // unanimous read (the one-round read) or open phase 2.
            (MsgKind::QVote, Querying) => {
                env.install();
                if !env.quorum_vote() {
                    return Querying;
                }
                if env.pending_op() != Some(OpKind::Write) && env.quorum_unanimous() {
                    env.ret();
                    env.enable_local();
                    return Valid;
                }
                env.quorum_arm(Quorum::peer_majority(env));
                let me = env.me();
                match env.pending_op() {
                    Some(OpKind::Write) => {
                        // Stamp the pending write above every version
                        // phase 1 observed, then broadcast it.
                        env.change();
                        env.push(
                            Dest::AllExcept(me, None),
                            MsgKind::QCommit,
                            PayloadKind::Params,
                        );
                    }
                    // Read (or a host without a pending record): write
                    // the freshest copy back to a majority.
                    _ => {
                        env.push(
                            Dest::AllExcept(me, None),
                            MsgKind::QCommit,
                            PayloadKind::Copy,
                        );
                    }
                }
                Committing
            }
            // A vote for a superseded round: still merge (monotone),
            // never double-commit.
            (MsgKind::QVote, s) => {
                env.install();
                s
            }
            // A peer's commit wave: apply params (write) or install the
            // written-back copy (read), acknowledge, keep our state.
            (MsgKind::QCommit, s) => {
                match msg.payload {
                    PayloadKind::Params => env.change(),
                    _ => env.install(),
                }
                env.push(Dest::To(msg.initiator), MsgKind::QAck, PayloadKind::Token);
                s
            }
            // Phase-2 ack: at the threshold the round is durable on a
            // majority and the operation completes.
            (MsgKind::QAck, Committing) => {
                if !env.quorum_vote() {
                    return Committing;
                }
                if env.pending_op() != Some(OpKind::Write) {
                    env.ret();
                }
                env.enable_local();
                Valid
            }
            // A straggler ack from a superseded round.
            (MsgKind::QAck, s) => s,
            _ => protocol_error(self.kind(), state, msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{app_req, net_msg, MockActions};
    use repmem_core::OpKind;

    const N: usize = 4; // clients; node 4 is an ordinary replica here
    const S: u64 = 100;
    const P: u64 = 30;

    #[test]
    fn every_role_starts_valid() {
        assert_eq!(Quorum.initial_state(Role::Client), CopyState::Valid);
        assert_eq!(Quorum.initial_state(Role::Sequencer), CopyState::Valid);
    }

    /// Start a read at node 0 (n = 5 nodes, so the peer majority is 2)
    /// whose local copy holds stamp `own`, then deliver two votes
    /// carrying `votes`; returns the state after the second.
    fn read_with_votes(env: &mut MockActions, own: u64, votes: [u64; 2]) -> CopyState {
        env.pending = Some(OpKind::Read);
        env.copy = own;
        let m = app_req(env, OpKind::Read);
        let mut s = Quorum.step(env, CopyState::Valid, &m);
        assert_eq!(s, CopyState::Querying);
        assert_eq!(env.disables, 1);
        assert_eq!(env.armed, Some(2));
        // Phase 1 wire cost: the probe broadcast, n-1 tokens.
        assert_eq!(env.cost(S, P), N as u64);
        for (peer, stamp) in [1u16, 2].into_iter().zip(votes) {
            env.carried = stamp;
            s = Quorum.step(env, s, &net_msg(MsgKind::QVote, 0, peer, PayloadKind::Copy));
        }
        assert_eq!(env.installs, 2);
        s
    }

    #[test]
    fn unanimous_read_finishes_in_one_round() {
        let mut env = MockActions::client(0, N);
        let s = read_with_votes(&mut env, 3, [3, 3]);
        assert_eq!(s, CopyState::Valid);
        assert_eq!((env.returns, env.enables), (1, 1));
        assert!(env.pushes.iter().all(|p| p.kind != MsgKind::QCommit));
        assert_eq!(env.armed, Some(2), "no second round is armed");
    }

    /// The write-back branch: the second vote crossed the threshold, so
    /// the read commits the freshest copy and completes on two acks.
    fn assert_writes_back(env: &mut MockActions, s: CopyState) {
        assert_eq!(s, CopyState::Committing);
        assert_eq!(env.returns, 0);
        let commit = env.pushes.last().expect("commit push");
        assert_eq!(commit.kind, MsgKind::QCommit);
        assert_eq!(commit.payload, PayloadKind::Copy);
        let s = Quorum.step(env, s, &net_msg(MsgKind::QAck, 0, 1, PayloadKind::Token));
        assert_eq!(s, CopyState::Committing);
        let s = Quorum.step(env, s, &net_msg(MsgKind::QAck, 0, 2, PayloadKind::Token));
        assert_eq!(s, CopyState::Valid);
        assert_eq!((env.returns, env.enables), (1, 1));
    }

    #[test]
    fn split_votes_write_back() {
        // An old vote, then a newer one: the merged copy equals the last
        // vote, but the votes disagree, so a majority may not hold it.
        let mut env = MockActions::client(0, N);
        let s = read_with_votes(&mut env, 0, [0, 5]);
        assert_eq!(env.copy, 5);
        assert_writes_back(&mut env, s);
    }

    #[test]
    fn initiator_newer_than_every_vote_writes_back() {
        // The votes agree with each other, but only the initiator holds
        // the value the read returns.
        let mut env = MockActions::client(0, N);
        let s = read_with_votes(&mut env, 7, [4, 4]);
        assert_eq!(env.copy, 7);
        assert_writes_back(&mut env, s);
    }

    #[test]
    fn write_round_stamps_then_commits_params() {
        let mut env = MockActions::client(1, N);
        env.pending = Some(OpKind::Write);
        let s = {
            let m = app_req(&env, OpKind::Write);
            Quorum.step(&mut env, CopyState::Valid, &m)
        };
        assert_eq!(s, CopyState::Querying);
        let s = Quorum.step(
            &mut env,
            s,
            &net_msg(MsgKind::QVote, 1, 0, PayloadKind::Copy),
        );
        let s = Quorum.step(
            &mut env,
            s,
            &net_msg(MsgKind::QVote, 1, 2, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Committing);
        assert_eq!(env.changes, 1, "write applies locally at the threshold");
        let commit = env.pushes.last().expect("commit push");
        assert_eq!(commit.payload, PayloadKind::Params);

        let s = Quorum.step(
            &mut env,
            s,
            &net_msg(MsgKind::QAck, 1, 0, PayloadKind::Token),
        );
        let s = Quorum.step(
            &mut env,
            s,
            &net_msg(MsgKind::QAck, 1, 2, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.returns, 0, "writes do not return read data");
        assert_eq!(env.enables, 1);
    }

    #[test]
    fn full_round_costs_match_the_closed_forms() {
        // Sum the initiator's pushes plus every peer's responder legs,
        // every replica on the same copy: read (n-1)(S+2), one round;
        // write (n-1)(S+P+4).
        let n = N + 1;
        for op in [OpKind::Read, OpKind::Write] {
            let mut total = 0u64;
            let mut env = MockActions::client(0, N);
            env.pending = Some(op);
            let mut s = {
                let m = app_req(&env, op);
                Quorum.step(&mut env, CopyState::Valid, &m)
            };
            // Peers answer the probe...
            for peer in 1..n as u16 {
                let mut p = MockActions::client(peer, N);
                let ps = Quorum.step(
                    &mut p,
                    CopyState::Valid,
                    &net_msg(MsgKind::QProbe, 0, 0, PayloadKind::Token),
                );
                assert_eq!(ps, CopyState::Valid);
                total += p.cost(S, P);
            }
            // ...votes finish a read or drive a write into phase 2...
            for peer in 1..n as u16 {
                s = Quorum.step(
                    &mut env,
                    s,
                    &net_msg(MsgKind::QVote, 0, peer, PayloadKind::Copy),
                );
            }
            if op == OpKind::Read {
                assert_eq!(s, CopyState::Valid);
                total += env.cost(S, P);
                assert_eq!(total, (n as u64 - 1) * (S + 2));
                continue;
            }
            assert_eq!(s, CopyState::Committing);
            // ...peers apply and ack the commit...
            for peer in 1..n as u16 {
                let mut p = MockActions::client(peer, N);
                Quorum.step(
                    &mut p,
                    CopyState::Valid,
                    &net_msg(MsgKind::QCommit, 0, 0, PayloadKind::Params),
                );
                total += p.cost(S, P);
            }
            // ...and the acks complete the round.
            for peer in 1..n as u16 {
                s = Quorum.step(
                    &mut env,
                    s,
                    &net_msg(MsgKind::QAck, 0, peer, PayloadKind::Token),
                );
            }
            assert_eq!(s, CopyState::Valid);
            total += env.cost(S, P);
            assert_eq!(total, (n as u64 - 1) * (S + P + 4));
        }
    }

    #[test]
    fn straggler_votes_and_acks_are_harmless() {
        let mut env = MockActions::client(0, N);
        let s = Quorum.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::QVote, 0, 3, PayloadKind::Copy),
        );
        assert_eq!(s, CopyState::Valid);
        assert_eq!(env.installs, 1, "stale votes still merge monotonically");
        let s = Quorum.step(
            &mut env,
            s,
            &net_msg(MsgKind::QAck, 0, 3, PayloadKind::Token),
        );
        assert_eq!(s, CopyState::Valid);
        assert!(env.pushes.is_empty());
    }

    #[test]
    #[should_panic(expected = "protocol error")]
    fn sequencer_tokens_are_errors() {
        let mut env = MockActions::client(0, N);
        Quorum.step(
            &mut env,
            CopyState::Valid,
            &net_msg(MsgKind::RPer, 1, 1, PayloadKind::Token),
        );
    }
}
