//! # repmem-check
//!
//! Schedule-exploration correctness harness for the DSM runtime: a
//! small explicit-state model checker built on the deterministic,
//! step-driven cluster mode ([`repmem_runtime::StepCluster`]) and the
//! links it owns as plain data ([`repmem_net::SchedLinks`]).
//!
//! The paper's analysis assumes the eight coherence protocols keep the
//! replicated store *sequentially consistent* over fault-free FIFO
//! channels. This crate checks that operationally:
//!
//! * [`exec`] — a schedule is a list of [`Ev`] steps (issue an
//!   application operation, deliver one link's head envelope, fire the
//!   next scripted fault); [`Exec`] replays one deterministically, and
//!   [`Exec::fork`] copies a state to step it further.
//! * [`explore`] — enumerates every schedule a bounded workload admits
//!   ([`exhaustive`], depth first over forked states, with
//!   visited-state fingerprint pruning), or
//!   samples seeded random walks beyond the exhaustive horizon
//!   ([`sample`]).
//! * [`sc`] — the per-schedule oracle: a Qadeer-style witness search
//!   that decides whether the observed reads admit a sequentially
//!   consistent total order. The runtime's writes are asynchronous
//!   (they complete before their invalidation/update wave lands), so
//!   the guaranteed property — and the checked one — is *coherence*:
//!   the witness is searched per object.
//! * [`checks`] — the full verdict: per-object sequential consistency,
//!   replica convergence at quiescence, lost-completion (stuck)
//!   detection, and node poisoning.
//! * [`shrink`] — delta-debugging minimizer for failing schedules.
//! * [`artifact`] — a replayable text format for schedules, used for
//!   committed regression schedules under `tests/schedules/` and for
//!   the shrunk counterexamples the explorer emits on failure.
//!
//! The `repmem-check` binary drives all of this from the command line
//! (and from CI); see `repmem-check help`.
//!
//! State fingerprints and witness-search memo keys use 64-bit FNV-1a.
//! A fingerprint collision could prune an unexplored state (the usual
//! hash-compaction trade-off: at the explorer's ~10^6-state scale the
//! odds are ~10^-7); the SC witness search, whose misses
//! would be reported as *violations*, memoizes on exact keys instead.

pub mod artifact;
pub mod checks;
pub mod exec;
pub mod explore;
pub mod sc;
pub mod shrink;

pub use artifact::{Artifact, Expect};
pub use checks::{check, Violation, ViolationKind};
pub use exec::{CheckConfig, Ev, Exec, Mutation, OpRec, OpStatus, ProgOp};
pub use explore::{exhaustive, sample, ExploreLimits, FoundViolation, Report};
pub use shrink::minimize;

/// 64-bit FNV-1a accumulator for state fingerprints.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x100000001b3;

    pub fn new() -> Fnv {
        Fnv(Self::OFFSET)
    }

    pub fn u8(&mut self, v: u8) {
        self.0 = (self.0 ^ u64::from(v)).wrapping_mul(Self::PRIME);
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        // Length first, so ("ab","c") and ("a","bc") hash apart.
        self.u64(bytes.len() as u64);
        for &b in bytes {
            self.u8(b);
        }
    }

    pub fn u16(&mut self, v: u16) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    pub fn u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::Fnv;

    #[test]
    fn fnv_is_deterministic_and_length_prefixed() {
        let mut a = Fnv::new();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Fnv::new();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv::new();
        c.bytes(b"ab");
        c.bytes(b"c");
        assert_eq!(a.finish(), c.finish());
    }
}
