//! Deterministic fault injection: endpoint kills and delivery stalls
//! over any inner transport.
//!
//! [`FaultTransport`] wraps a transport and consults a shared
//! [`FaultSchedule`] on every send. The schedule is a list of scripted
//! faults keyed by the cluster-wide *send-attempt counter*: every
//! `Endpoint::send` call (including one that will fail) advances the
//! counter by exactly one and fires every fault whose trigger it
//! crosses, so a given workload always experiences the faults at the
//! same points in its communication pattern — no wall clocks, no
//! randomness in the trigger.
//!
//! Fault semantics:
//!
//! * **Kill** — the endpoint is gone for good. Sends to it (and from
//!   it) fail with [`NetError::Down`] naming the dead endpoint.
//! * **DelayBurst** — the next `sends` send calls each stall for `dur`
//!   before forwarding. The stall happens on the sending node's thread,
//!   so per-link FIFO order is preserved; only time stretches.
//!
//! No fault here heals and none loses an accepted envelope: links are
//! reliable and nodes crash-stop, the model the TCP mesh implements.
//! Self-sends (`to == me`) model the node's local loopback, not a
//! network link, and are never faulted.
//!
//! A [`FaultHandle`] kills imperatively, for tests that script a death
//! around their own workload phases instead of send counts.

use crate::{DeliverFn, Endpoint, Envelope, NetError, Transport};
use repmem_core::NodeId;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// What a scheduled fault does when its trigger fires.
#[derive(Debug, Clone, Copy)]
enum FaultAction {
    /// Permanently kill the endpoint.
    Kill(NodeId),
    /// Stall each of the next `sends` send calls for `dur`.
    DelayBurst { dur: Duration, sends: u64 },
}

/// One scheduled fault: `action` fires when the cluster-wide send
/// counter reaches `at_send` (1-based: `at_send: 1` fires on the very
/// first send).
#[derive(Debug, Clone, Copy)]
struct FaultEvent {
    at_send: u64,
    action: FaultAction,
}

/// A deterministic fault script, built fluently and consumed by
/// [`FaultTransport::new`].
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule (no scripted faults; the [`FaultHandle`] can
    /// still kill manually).
    pub fn new() -> Self {
        FaultSchedule::default()
    }

    /// Permanently kill `node` at send count `at`.
    pub fn kill_at(mut self, at: u64, node: NodeId) -> Self {
        self.events.push(FaultEvent {
            at_send: at,
            action: FaultAction::Kill(node),
        });
        self
    }

    /// Starting at send count `at`, stall each of the next `sends` send
    /// calls for `dur`.
    pub fn delay_burst_at(mut self, at: u64, dur: Duration, sends: u64) -> Self {
        self.events.push(FaultEvent {
            at_send: at,
            action: FaultAction::DelayBurst { dur, sends },
        });
        self
    }
}

struct FaultMap {
    /// Events not yet fired, sorted by trigger count.
    pending: VecDeque<FaultEvent>,
    /// Permanently killed endpoints.
    killed: HashSet<u16>,
    /// Active delay burst: `(stall, sends left)`.
    burst: Option<(Duration, u64)>,
}

struct FaultState {
    sends: AtomicU64,
    map: Mutex<FaultMap>,
}

fn lock(m: &Mutex<FaultMap>) -> MutexGuard<'_, FaultMap> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl FaultState {
    fn apply(map: &mut FaultMap, action: FaultAction) {
        match action {
            FaultAction::Kill(n) => {
                map.killed.insert(n.0);
            }
            FaultAction::DelayBurst { dur, sends } => {
                map.burst = Some((dur, sends));
            }
        }
    }

    /// Advance the send counter, fire due events, and return this send's
    /// verdict: an error, a stall to serve before forwarding, or clear.
    fn gate(&self, me: NodeId, to: NodeId) -> Result<Option<Duration>, NetError> {
        let seq = self.sends.fetch_add(1, Ordering::SeqCst) + 1;
        let mut map = lock(&self.map);
        while map.pending.front().is_some_and(|e| e.at_send <= seq) {
            if let Some(ev) = map.pending.pop_front() {
                Self::apply(&mut map, ev.action);
            }
        }
        if to == me {
            // Local loopback is not a network link; never faulted.
            return Ok(None);
        }
        if map.killed.contains(&to.0) {
            return Err(NetError::Down(to));
        }
        if map.killed.contains(&me.0) {
            return Err(NetError::Down(me));
        }
        let stall = match &mut map.burst {
            Some((dur, left)) => {
                let dur = *dur;
                *left -= 1;
                if *left == 0 {
                    map.burst = None;
                }
                Some(dur)
            }
            None => None,
        };
        Ok(stall)
    }
}

/// Imperative fault controls over a [`FaultTransport`]'s shared state,
/// cloneable and usable from any thread (typically the test driver).
#[derive(Clone)]
pub struct FaultHandle {
    state: Arc<FaultState>,
}

impl FaultHandle {
    /// Permanently kill `node` now.
    pub fn kill(&self, node: NodeId) {
        FaultState::apply(&mut lock(&self.state.map), FaultAction::Kill(node));
    }
}

/// A [`Transport`] wrapper injecting scripted faults (see module docs).
pub struct FaultTransport<T> {
    inner: T,
    state: Arc<FaultState>,
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner` with a fault schedule. Events fire in trigger order
    /// regardless of the order they were added to the schedule.
    pub fn new(inner: T, schedule: FaultSchedule) -> Self {
        let mut events = schedule.events;
        events.sort_by_key(|e| e.at_send);
        FaultTransport {
            inner,
            state: Arc::new(FaultState {
                sends: AtomicU64::new(0),
                map: Mutex::new(FaultMap {
                    pending: events.into(),
                    killed: HashSet::new(),
                    burst: None,
                }),
            }),
        }
    }

    /// Imperative controls over this transport's fault state.
    pub fn handle(&self) -> FaultHandle {
        FaultHandle {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn n_nodes(&self) -> usize {
        self.inner.n_nodes()
    }

    fn bind(&mut self, node: NodeId, deliver: DeliverFn) -> Result<Box<dyn Endpoint>, NetError> {
        Ok(Box::new(FaultEndpoint {
            me: node,
            inner: self.inner.bind(node, deliver)?,
            state: Arc::clone(&self.state),
        }))
    }
}

struct FaultEndpoint {
    me: NodeId,
    inner: Box<dyn Endpoint>,
    state: Arc<FaultState>,
}

impl Endpoint for FaultEndpoint {
    fn send(&self, to: NodeId, env: &Envelope) -> Result<(), NetError> {
        // The stall is served after the state lock is released, so a
        // burst slows the faulted sender without serializing the rest of
        // the cluster behind it.
        if let Some(stall) = self.state.gate(self.me, to)? {
            std::thread::sleep(stall);
        }
        self.inner.send(to, env)
    }

    fn flush(&self) -> Result<(), NetError> {
        self.inner.flush()
    }

    fn close(&self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InProcTransport;

    #[test]
    fn schedule_fires_in_trigger_order_regardless_of_insertion() {
        let schedule =
            FaultSchedule::new()
                .kill_at(5, NodeId(1))
                .delay_burst_at(2, Duration::ZERO, 1);
        let t = FaultTransport::new(InProcTransport::new(2), schedule);
        let map = lock(&t.state.map);
        let triggers: Vec<u64> = map.pending.iter().map(|e| e.at_send).collect();
        assert_eq!(triggers, [2, 5]);
    }
}
