//! Table 1: HDNH recovery time (OCF rebuild / hot-table rebuild / total)
//! after a crash, across data sizes.
//!
//! The paper preloads 2 M / 20 M / 200 M records, powers off, and times
//! single-node recovery. We preload at 1/100 of those sizes by default
//! (scale with `HDNH_SCALE`), drop the DRAM structures via `into_pool`
//! (the power-off: only NVM survives), and time the real multi-threaded
//! rebuild scan (the total column). The OCF and hot-table columns rebuild
//! each structure alone into scratch copies after recovery
//! (`Hdnh::time_separate_rebuilds`); a served open runs only the merged
//! scan. Crash-*consistency* (torn state) is exercised separately
//! by the strict-mode test suite; the timing here is the same either way.

use hdnh::{Hdnh, HdnhParams};
use hdnh_bench::report::{banner, expectation, Table};
use hdnh_bench::runner::preload;
use hdnh_bench::schemes::hdnh_params;
use hdnh_bench::scaled;
use hdnh_ycsb::KeySpace;

fn main() {
    let sizes = [scaled(20_000), scaled(200_000), scaled(2_000_000)];
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    banner(
        "table1",
        "recovery time vs data size",
        &format!(
            "sizes {sizes:?} (paper: 2M/20M/200M); power-off modeled by \
             dropping DRAM state, then recovery with {threads} scan threads"
        ),
    );

    let ks = KeySpace::default();
    let mut table = Table::new(&["data size", "OCF ms", "hot table ms", "HDNH total ms"]);
    for &n in &sizes {
        // Recovery scans are not about media latency (sequential, batched);
        // build without the latency model so the numbers isolate scan work.
        let params = HdnhParams {
            nvm: hdnh_nvm::NvmOptions::fast(),
            ..hdnh_params(n)
        };
        let t = Hdnh::new(params.clone());
        preload(&t, &ks, n as u64, threads);
        let pool = t.into_pool();
        let (recovered, total) = Hdnh::recover_timed(params, pool, threads);
        assert_eq!(recovered.len(), n, "recovery lost records");
        let alone = recovered.time_separate_rebuilds(threads);
        table.row(vec![
            n.to_string(),
            format!("{:.1}", alone.ocf.as_secs_f64() * 1e3),
            format!("{:.1}", alone.hot.as_secs_f64() * 1e3),
            format!("{:.1}", total.as_secs_f64() * 1e3),
        ]);
    }
    table.print();
    expectation(
        "recovery time grows ~linearly with data size and stays far below \
         the workload's execution time (paper: 8.3ms at 2M, 60.5ms at 20M, \
         435.1ms at 200M); hot-table rebuild dominates at scale",
    );

    // Extension: the paper's recovery is multi-threaded ("divide buckets
    // into independent batches"); sweep the scan-thread count at the middle
    // size to show the parallel speedup.
    let n = sizes[1];
    if !hdnh_bench::report::csv() {
        println!("\n  recovery scan-thread sweep at {n} records:");
    }
    let mut sweep = Table::new(&["threads", "HDNH total ms"]);
    for t in [1usize, 2, 4] {
        let params = HdnhParams {
            nvm: hdnh_nvm::NvmOptions::fast(),
            ..hdnh_params(n)
        };
        let table_inst = Hdnh::new(params.clone());
        preload(&table_inst, &ks, n as u64, threads);
        let pool = table_inst.into_pool();
        let (recovered, total) = Hdnh::recover_timed(params, pool, t);
        assert_eq!(recovered.len(), n);
        sweep.row(vec![
            t.to_string(),
            format!("{:.1}", total.as_secs_f64() * 1e3),
        ]);
    }
    sweep.print();
    expectation("more scan threads shorten recovery until the core count caps it");
}
