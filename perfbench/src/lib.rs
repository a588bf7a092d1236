//! The HDNH service benchmark: served workloads over RESP with a reply
//! oracle, plus a traced single-threaded replay for per-layer numbers.
//! See `README.md` next to `Cargo.toml` for the workloads, the metric →
//! layer map and how to read the trace.

pub mod gen;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
