//! Benchmark harness reproducing the HDNH paper's evaluation (§4).
//!
//! One binary per table/figure (`cargo run --release -p hdnh-bench --bin
//! figNN`), all built from the pieces here:
//!
//! * [`schemes`] — uniform constructors for HDNH (and its ablation/policy
//!   variants), Level hashing, CCEH and Path hashing, sized for a workload
//!   and wired to the AEP latency model.
//! * [`runner`] — preload + timed multi-threaded op-stream execution over
//!   any [`hdnh_common::HashIndex`], with optional per-op latency capture
//!   into [`hdnh_obs::hist::HistSnapshot`] (percentiles, CDF export).
//! * [`report`] — aligned-table printing shared by all binaries.
//! * [`json`] / [`check`] — a dependency-free JSON reader and the
//!   tolerance-band comparisons behind the `bench_check` regression gate.
//!
//! Environment knobs (all binaries):
//!
//! * `HDNH_SCALE` — multiplies preload/op counts (default 1.0; the paper's
//!   180 M-op runs correspond to very large values — shapes stabilise far
//!   earlier).
//! * `HDNH_THREADS` — caps the thread axis of concurrency sweeps.
//! * `HDNH_NO_LATENCY` — disable the AEP latency model (functional runs).


#![warn(missing_docs)]
pub mod check;
pub mod json;
pub mod report;
pub mod runner;
pub mod schemes;

/// Scale factor from `HDNH_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("HDNH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a baseline count by [`scale`].
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).max(1.0) as usize
}

/// Thread cap from `HDNH_THREADS` (default 16, the paper's max).
pub fn max_threads() -> usize {
    std::env::var("HDNH_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(16)
}

/// Whether to run with the AEP latency model (default yes).
pub fn latency_enabled() -> bool {
    std::env::var("HDNH_NO_LATENCY").is_err()
}
