//! Memoized chain solves for parameter sweeps.
//!
//! The sweep experiments (Figures 5/6, Tables 6/7, the crossover scans)
//! evaluate `analyze` over dense parameter grids where many grid points
//! share the same `(protocol, system, scenario)` triple — e.g. every
//! protocol curve in a crossover scan re-solves the same chain for the
//! shared axis values, and multi-threaded sweeps would otherwise repeat
//! work across workers. [`SolverCache`] memoizes stationary solves behind
//! a mutex so concurrent sweep workers share results.
//!
//! ## Keying
//!
//! A solve is identified by the protocol kind, the full [`SystemParams`],
//! the scenario's actor list with probabilities **quantized to 1e-12**,
//! and a digest of the [`AnalyzeOpts`]. Quantization makes the key
//! `Eq + Hash` despite `f64` probabilities; 1e-12 is far below any
//! physically meaningful workload difference and far above f64 noise in
//! the `1e-14`-tolerance solver, so two scenarios that collide produce
//! results identical to well below the solver tolerance.
//!
//! Only successful solves are cached: errors (state-space blowup, solver
//! divergence) are returned to the caller and retried on the next lookup.
//!
//! Results are handed out as `Arc<ChainResult>` so hits are O(1) — no
//! clone of the trace-probability map.

use crate::chain::{analyze, AnalyzeError, AnalyzeOpts, ChainResult};
use repmem_core::{CoherenceProtocol, ProtocolKind, Scenario, SystemParams};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Probability quantum for cache keys (see module docs).
const QUANTUM: f64 = 1e-12;

fn quantize(p: f64) -> i64 {
    (p / QUANTUM).round() as i64
}

/// Hashable identity of one `analyze` invocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    protocol: ProtocolKind,
    n_clients: usize,
    s: u64,
    p: u64,
    m_objects: usize,
    /// `(node, read_prob, write_prob)` per actor, probabilities quantized.
    actors: Vec<(u16, i64, i64)>,
    lump: bool,
    /// Solver tolerance, bit-exact.
    tol_bits: u64,
    max_iter: usize,
    dense_cutoff: usize,
    max_states: usize,
}

impl Key {
    fn new(
        protocol: ProtocolKind,
        sys: &SystemParams,
        scenario: &Scenario,
        opts: &AnalyzeOpts,
    ) -> Key {
        Key {
            protocol,
            n_clients: sys.n_clients,
            s: sys.s,
            p: sys.p,
            m_objects: sys.m_objects,
            actors: scenario
                .actors
                .iter()
                .map(|a| (a.node.0, quantize(a.read_prob), quantize(a.write_prob)))
                .collect(),
            lump: opts.lump,
            tol_bits: opts.stationary.tol.to_bits(),
            max_iter: opts.stationary.max_iter,
            dense_cutoff: opts.dense_cutoff,
            max_states: opts.max_states,
        }
    }
}

/// Poison-tolerant lock: a worker that panicked mid-solve left its slot
/// `None` (the next lookup retries), so the data is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// One key's slot: `None` while the first solve is in flight.
type Slot = Arc<Mutex<Option<Arc<ChainResult>>>>;

/// A thread-safe memo table over [`analyze`].
///
/// Shared by reference (or `Arc`) across sweep workers; see
/// `repmem-bench`'s sweep engine for the main consumer.
#[derive(Default)]
pub struct SolverCache {
    map: Mutex<HashMap<Key, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SolverCache {
    /// An empty cache.
    pub fn new() -> SolverCache {
        SolverCache::default()
    }

    /// Memoized [`analyze`]: returns the cached stationary solve for this
    /// `(protocol, system, scenario, opts)` if present, otherwise solves
    /// and caches.
    ///
    /// Each key has its own slot lock, so a slow solve never blocks hits
    /// on other keys, and workers racing on the same fresh key block on
    /// the slot instead of solving it redundantly — every distinct key is
    /// solved (and counted as a miss) exactly once.
    pub fn analyze(
        &self,
        protocol: &dyn CoherenceProtocol,
        sys: &SystemParams,
        scenario: &Scenario,
        opts: AnalyzeOpts,
    ) -> Result<Arc<ChainResult>, AnalyzeError> {
        let key = Key::new(protocol.kind(), sys, scenario, &opts);
        // The map lock is released before the slot lock is taken, so no
        // thread ever holds both (the error path below relies on that).
        let slot: Slot = Arc::clone(lock(&self.map).entry(key.clone()).or_default());
        let mut guard = lock(&slot);
        if let Some(hit) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(hit));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        match analyze(protocol, sys, scenario, opts) {
            Ok(result) => {
                let result = Arc::new(result);
                *guard = Some(Arc::clone(&result));
                Ok(result)
            }
            Err(e) => {
                // Drop the placeholder so the next lookup retries instead
                // of finding a permanently empty slot.
                lock(&self.map).remove(&key);
                Err(e)
            }
        }
    }

    /// Number of lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that had to solve.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of distinct keys currently stored (including in-flight
    /// solves).
    pub fn len(&self) -> usize {
        lock(&self.map).len()
    }

    /// `true` when no solve has been stored or started yet.
    pub fn is_empty(&self) -> bool {
        lock(&self.map).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repmem_protocols::protocol;

    #[test]
    fn hit_returns_identical_result() {
        let cache = SolverCache::new();
        let sys = SystemParams::new(4, 100, 30);
        let sc = Scenario::read_disturbance(0.3, 0.05, 2).unwrap();
        let proto = protocol(ProtocolKind::Berkeley);
        let a = cache
            .analyze(proto, &sys, &sc, AnalyzeOpts::default())
            .unwrap();
        let b = cache
            .analyze(proto, &sys, &sc, AnalyzeOpts::default())
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn memoized_matches_fresh_solve() {
        let cache = SolverCache::new();
        let sys = SystemParams::new(5, 80, 20);
        let sc = Scenario::write_disturbance(0.2, 0.04, 2).unwrap();
        for kind in ProtocolKind::ALL {
            let proto = protocol(kind);
            let cached = cache
                .analyze(proto, &sys, &sc, AnalyzeOpts::default())
                .unwrap();
            let fresh = analyze(proto, &sys, &sc, AnalyzeOpts::default()).unwrap();
            assert!(
                (cached.acc - fresh.acc).abs() < 1e-12,
                "{kind:?}: cached {} vs fresh {}",
                cached.acc,
                fresh.acc
            );
        }
    }

    #[test]
    fn distinct_scenarios_do_not_collide() {
        let cache = SolverCache::new();
        let sys = SystemParams::new(4, 100, 30);
        let proto = protocol(ProtocolKind::WriteThrough);
        let a = Scenario::ideal(0.3).unwrap();
        let b = Scenario::ideal(0.3 + 1e-6).unwrap();
        let ra = cache
            .analyze(proto, &sys, &a, AnalyzeOpts::default())
            .unwrap();
        let rb = cache
            .analyze(proto, &sys, &b, AnalyzeOpts::default())
            .unwrap();
        assert_eq!(cache.misses(), 2);
        assert!((ra.acc - rb.acc).abs() > 0.0);
    }

    #[test]
    fn protocol_kind_distinguishes_entries() {
        let cache = SolverCache::new();
        let sys = SystemParams::new(4, 100, 30);
        let sc = Scenario::ideal(0.4).unwrap();
        cache
            .analyze(
                protocol(ProtocolKind::WriteThrough),
                &sys,
                &sc,
                AnalyzeOpts::default(),
            )
            .unwrap();
        cache
            .analyze(
                protocol(ProtocolKind::Dragon),
                &sys,
                &sc,
                AnalyzeOpts::default(),
            )
            .unwrap();
        assert_eq!(cache.len(), 2);
    }
}
