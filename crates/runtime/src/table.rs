//! The shared replica table: one per node, written by that node's loop,
//! read by that node's [`crate::Handle`]s.
//!
//! The paper prices a read of a readable copy at **0**. To make it cost
//! about that, a `Handle` serves a read straight from this table —
//! no inbox hop, no reply channel — exactly when all of:
//!
//! * **(a)** the protocol machine says a read in the entry's current
//!   `(role, state)` is a pure local hit: its `R-REQ` entry is `return`
//!   alone and keeps the state ([`repmem_protocols::ReadHits`], read off
//!   the machines once per protocol, so a read indexes an array);
//! * **(b)** this node has no earlier operation on the same object still
//!   queued, backlogged or in flight (`Replica::queued == 0`), so
//!   per-object program order holds — a `read_async` right after a
//!   `write_async` waits its turn behind the write;
//! * **(c)** the node loop is running and the cluster is not poisoned.
//!
//! Everything else takes the node loop's path unchanged.
//!
//! **Publication invariant.** The node loop holds an entry's lock across
//! the whole `step` that touches it, sends included, and retires the
//! operation that step completes (`queued` decremented) before releasing
//! it and answering the ticket. So a reader sees either the pre-step or the post-step
//! replica, never a mix, and by the time any message the step produced —
//! or the operation's completion — can be observed by another thread,
//! the entry already shows the post-step state. Waiters block on the
//! entry's mutex; nobody spins on a version counter.
//!
//! **Lazy.** A never-touched object costs one 16-byte slot; its entry
//! (64 bytes, lock included) is built on first touch, from either side.
//! An absent entry *is* the protocol's initial state, which is what the
//! shutdown dump reports for it.

use crate::node::ReplicaSnap;
use crate::shard::{ShardConfig, ShardMap};
use bytes::Bytes;
use repmem_core::{CopyState, NodeId, ObjectId, OpKind, ProtocolKind, Role, SystemParams};
use repmem_net::Payload;
use repmem_protocols::{protocol, read_hits, ReadHits};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Per-(node, object) protocol-process state.
#[derive(Clone)]
pub(crate) struct Replica {
    pub copy: Payload,
    /// Reign number of the owner the register names; only protocols
    /// with migrating ownership advance it (see `Actions::owner_epoch`).
    pub owner_epoch: u64,
    /// Operations on this object that this node's handles have issued
    /// and the node loop has not retired yet.
    queued: u32,
    pub owner: NodeId,
    pub state: CopyState,
}

impl Replica {
    /// Retire one admitted operation on this object and return the
    /// value it observed. The node loop calls this under the entry's
    /// lock before it completes the operation's ticket.
    pub fn retire(&mut self) -> Bytes {
        self.queued = self.queued.saturating_sub(1);
        self.copy.data.clone()
    }
}

/// One materialised table entry: the replica behind its lock.
pub(crate) struct Entry(Mutex<Replica>);

/// `size_of::<Entry>()` — what one touched object costs per node, on
/// top of its slot. Exported so a footprint regression fails a test.
pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry>();

impl Entry {
    pub fn lock(&self) -> MutexGuard<'_, Replica> {
        // Every update leaves the replica valid at every step (whole
        // fields are assigned), so a panicking holder poisons nothing.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

pub(crate) struct ReplicaTable {
    pub me: NodeId,
    pub kind: ProtocolKind,
    /// Clause (a), per `(role, state)`.
    read_hits: ReadHits,
    shards: ShardMap,
    /// Per object: its entry, once touched.
    slots: Box<[OnceLock<Box<Entry>>]>,
    /// Set by the node loop on exit: nothing will retire operations or
    /// apply invalidations any more, so the table must not serve reads.
    closed: AtomicBool,
    /// Reads served from the table (a statistic; relaxed).
    hits: AtomicU64,
}

impl ReplicaTable {
    pub fn new(
        me: NodeId,
        sys: SystemParams,
        kind: ProtocolKind,
        cfg: ShardConfig,
    ) -> ReplicaTable {
        ReplicaTable {
            me,
            kind,
            read_hits: read_hits(kind),
            shards: cfg.map(&sys),
            slots: (0..sys.m_objects).map(|_| OnceLock::new()).collect(),
            closed: AtomicBool::new(false),
            hits: AtomicU64::new(0),
        }
    }

    /// A table of its own with this one's entries and counts (a forked
    /// step cluster's): untouched objects stay untouched.
    pub fn fork(&self) -> ReplicaTable {
        let slots = self.slots.iter().map(|slot| match slot.get() {
            Some(entry) => OnceLock::from(Box::new(Entry(Mutex::new(entry.lock().clone())))),
            None => OnceLock::new(),
        });
        ReplicaTable {
            slots: slots.collect(),
            closed: AtomicBool::new(self.closed.load(Ordering::Acquire)),
            hits: AtomicU64::new(self.hits()),
            ..*self
        }
    }

    /// The state every replica of `object` at this node starts in.
    fn initial(&self, object: ObjectId) -> Replica {
        let home = self.shards.home_of(object);
        // Under the client-driven promise a shard node's replica of a
        // foreign object is unreadable by construction (no application
        // runs here, and broadcast waves skip it), so it starts INVALID
        // regardless of the protocol's client initial state — keeping
        // coherence dumps honest for update protocols whose client
        // copies are otherwise born readable.
        let state =
            if self.shards.prunes(self.kind) && self.me != home && self.shards.is_shard(self.me) {
                CopyState::Invalid
            } else {
                protocol(self.kind).initial_state(self.role(home))
            };
        Replica {
            copy: Payload::initial(),
            owner_epoch: 0,
            queued: 0,
            owner: home,
            state,
        }
    }

    fn role(&self, sequencer: NodeId) -> Role {
        if self.me == sequencer {
            Role::Sequencer
        } else {
            Role::Client
        }
    }

    /// The entry of `object`, materialised on first use; `None` when the
    /// cluster has no such object.
    pub fn entry(&self, object: ObjectId) -> Option<&Entry> {
        let slot = self.slots.get(object.idx())?;
        Some(slot.get_or_init(|| Box::new(Entry(Mutex::new(self.initial(object))))))
    }

    /// The one door every application operation enters through. A read
    /// that satisfies the module's three clauses is served here and now:
    /// `Some(value)`. Anything else is counted as queued on its object
    /// and must be handed to the node loop, which retires it with
    /// [`Replica::retire`].
    pub fn admit(&self, op: OpKind, object: ObjectId) -> Option<Bytes> {
        if self.closed.load(Ordering::Acquire) {
            return None;
        }
        // Out of range: the node loop reports it (and poisons).
        let mut replica = self.entry(object)?.lock();
        if op == OpKind::Read && replica.queued == 0 {
            let sequencer = if self.kind.migrating_sequencer() {
                replica.owner
            } else {
                self.shards.home_of(object)
            };
            if self.read_hits.hit(self.role(sequencer), replica.state) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Some(replica.copy.data.clone());
            }
        }
        replica.queued += 1;
        None
    }

    /// Retire one admitted operation on `object` that the node loop is
    /// failing outside a step.
    pub fn retire(&self, object: ObjectId) {
        if let Some(entry) = self.entry(object) {
            entry.lock().retire();
        }
    }

    /// Stop serving reads: the node loop is gone.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Reads served from this table so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Entries built so far (touched objects).
    pub fn materialised(&self) -> usize {
        self.slots.iter().filter(|s| s.get().is_some()).count()
    }

    /// Number of objects this table covers.
    pub fn objects(&self) -> usize {
        self.slots.len()
    }

    /// Look at `object`'s replica without materialising it: an absent
    /// entry reads as its initial state.
    fn peek<T>(&self, object: ObjectId, read: impl FnOnce(&Replica) -> T) -> T {
        match self.slots[object.idx()].get() {
            Some(entry) => read(&entry.lock()),
            None => read(&self.initial(object)),
        }
    }

    fn view<T>(&self, read: impl Fn(&Replica) -> T) -> Vec<T> {
        (0..self.slots.len())
            .map(|i| self.peek(ObjectId(i as u32), &read))
            .collect()
    }

    /// Copy state and write stamp of one replica (no data clone).
    pub fn brief(&self, object: ObjectId) -> (CopyState, (u64, NodeId)) {
        self.peek(object, |r| (r.state, r.copy.stamp()))
    }

    /// Every replica of this node, absent entries as their initial state.
    pub fn snaps(&self) -> Vec<ReplicaSnap> {
        self.view(|r| ReplicaSnap {
            state: r.state,
            data: r.copy.data.clone(),
            version: r.copy.version,
            writer: r.copy.writer,
        })
    }

    /// The ownership register of every object's protocol process.
    pub fn owners(&self) -> Vec<NodeId> {
        self.view(|r| r.owner)
    }
}
