//! # repmem-benchmark
//!
//! The pinned, closed-loop benchmark `/BENCHMARK.json` names: four
//! workloads over the KV service and the DSM runtime, seven end-to-end
//! metrics, and per-layer metrics read from outside the program — by
//! timing calls into the layers' public functions and by wrapping the
//! transport a cluster is built on. See `README.md` beside this crate.

pub mod host;
pub mod inputs;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod micro;
pub mod report;
pub mod run;
pub mod stats;
pub mod sut;
pub mod trace;
