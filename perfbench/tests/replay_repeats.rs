//! The traced replay is single-threaded and timer-free, so for one seed
//! its NVM media counts must repeat exactly from run to run.
//!
//! The hot table draws random eviction victims from a thread-local
//! generator, so two replays on one thread differ; each replay here runs
//! in a fresh process (this test binary, re-run as a child), as it does in
//! a benchmark run.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hdnh::Hdnh;
use hdnh_perfbench::replay::replay;
use hdnh_perfbench::run::{copy_dir, params, preload};
use hdnh_perfbench::trace::Trace;
use hdnh_perfbench::workload::Spec;

const SEED: u64 = 7;
/// Set in a child: `<workload>,<pool>,<copy>` to replay.
const CHILD: &str = "PERFBENCH_REPLAY_CHILD";
const TEST: &str = "nvm_counts_repeat_for_a_seed";

/// The named workload on a 20 000-key table.
fn small(name: &str) -> Spec {
    let mut spec = Spec::named(name).expect("a workload");
    spec.preload = 20_000;
    spec.capacity = 20_000;
    spec.replay_ops = 20_000;
    spec
}

/// Child side: replays against a copy of the pool and prints the counts.
fn replay_copy(job: &str) {
    let mut parts = job.split(',');
    let mut next = || parts.next().expect("a child job field");
    let (spec, pool, copy) = (small(next()), PathBuf::from(next()), PathBuf::from(next()));
    copy_dir(&pool, &copy).expect("copy the pool");
    let (table, _) = Hdnh::open_pool(params(&spec).expect("params"), &copy, 1).expect("open");
    let r = replay(&table, &spec, SEED, &mut Trace::new(Instant::now(), false));
    table.close_pool().expect("close");
    assert_eq!(r.wrong, 0, "{}: replayed replies were wrong", spec.name);
    assert!(
        r.nvm.read_blocks > 0 && r.nvm.write_lines > 0,
        "{}: the replay touched no NVM",
        spec.name
    );
    println!("NVM {:?}", r.nvm);
}

/// Parent side: one replay in a child process; its printed counts.
fn replay_in_child(workload: &str, pool: &Path, copy: &Path) -> String {
    let out = Command::new(std::env::current_exe().expect("test binary"))
        .args(["--exact", TEST, "--nocapture", "--test-threads=1"])
        .env(
            CHILD,
            format!("{workload},{},{}", pool.display(), copy.display()),
        )
        .output()
        .expect("run the child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload}: child failed\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The harness prints the test name on the same line.
    stdout
        .lines()
        .find_map(|l| l.find("NVM ").map(|i| l[i..].to_string()))
        .unwrap_or_else(|| panic!("{workload}: no counts in\n{stdout}"))
}

#[test]
fn nvm_counts_repeat_for_a_seed() {
    if let Ok(job) = std::env::var(CHILD) {
        return replay_copy(&job);
    }
    let base = Path::new(env!("CARGO_TARGET_TMPDIR")).join("replay_repeats");
    let _ = std::fs::remove_dir_all(&base);
    for workload in ["skewed-read", "spill-churn"] {
        let dir = base.join(workload);
        preload(&small(workload), SEED, &dir.join("pool")).expect("preload");
        let first = replay_in_child(workload, &dir.join("pool"), &dir.join("a"));
        let second = replay_in_child(workload, &dir.join("pool"), &dir.join("b"));
        assert_eq!(
            first, second,
            "{workload}: NVM counts differ between replays of one seed"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
