//! Measurement output of a simulation run.

use repmem_core::{NodeId, OpKind, TraceSig};
use std::collections::BTreeMap;

/// Result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Operations measured (after warm-up).
    pub measured_ops: usize,
    /// Total communication cost over measured operations.
    pub total_cost: u64,
    /// Occurrences of each trace signature among measured operations.
    pub trace_counts: BTreeMap<TraceSig, usize>,
    /// Empirical per-(node, op) frequencies among measured operations.
    pub mix: BTreeMap<(NodeId, OpKind), usize>,
    /// Virtual time at the end of the run.
    pub end_time: u64,
    /// Serialized reads (warm-up included) that did not return what the
    /// object's last write wrote (diagnostic; 0 for a correct protocol).
    /// Concurrent runs do not audit reads.
    pub stale_reads: usize,
    /// Sorted virtual-time completion latencies of the measured
    /// operations (channel-latency units), from issue to the cluster's
    /// answer — for a write that does not wait for its wave, before the
    /// wave lands.
    pub latencies: Vec<u64>,
    /// Post-drain replica audit: the runtime's own verdict
    /// (`ClusterDump::is_coherent`) over the cluster's replicas — every
    /// readable replica holds its object's newest write.
    pub coherent: bool,
}

impl SimReport {
    /// Measured steady-state average communication cost per operation —
    /// the simulation counterpart of the analytic `acc`.
    pub fn acc(&self) -> f64 {
        if self.measured_ops == 0 {
            0.0
        } else {
            self.total_cost as f64 / self.measured_ops as f64
        }
    }

    /// Empirical probability of each trace signature.
    pub fn trace_probs(&self) -> BTreeMap<TraceSig, f64> {
        let n = self.measured_ops.max(1) as f64;
        self.trace_counts
            .iter()
            .map(|(sig, c)| (*sig, *c as f64 / n))
            .collect()
    }

    /// Mean operation latency (virtual-time units), `0` with no samples.
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
        }
    }

    /// Latency percentile (e.g. `0.95`), `0` with no samples.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        if self.latencies.is_empty() {
            return 0;
        }
        let idx = ((self.latencies.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies[idx]
    }
}
