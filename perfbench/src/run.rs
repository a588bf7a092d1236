//! One benchmark run: preload, set-up, served phases, checks, metrics.
//!
//! The server runs in this process exactly as `hdnh-cli serve --pool`
//! configures it (pool backend, `NvmOptions::fast()` — latency model off —
//! `SyncPolicy::Async`, default hot-table ratio, one reactor loop), and
//! the harness keeps its own `Arc<Hdnh>` to read the table's counters
//! between phases. Load comes from one client thread over
//! [`CONNS`](crate::workload::CONNS) connections.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use hdnh::{Hdnh, HdnhParams};
use hdnh_common::Key;
use hdnh_obs as obs;
use hdnh_server::{Reply, ServerConfig, ServerHandle};

use crate::gen::{ping, Client, Load, Phase, Record};
use crate::metrics::{num, Values};
use crate::oracle::{Oracle, Verdict};
use crate::replay::{replay, Replay};
use crate::stats::{interquartile_mean, median, quantile, ratio, Summary};
use crate::trace::{Name, Trace, ROOT};
use crate::workload::{write_value, Op, Spec, Stream, CONNS};

/// Times the pool is opened (set-up is reported as the median).
pub const SETUPS: usize = 5;
/// Open-loop offered rate, requests/s over all connections, on every
/// workload: low enough that each request finds the reactor idle and
/// takes the same wake-up path (README, "Open-loop rates").
pub const OPEN_RATE: f64 = 30_000.0;
/// Unanswered requests a connection may hold in the open loop.
pub const MAX_OUTSTANDING: usize = 4096;
/// Absent keys per partition probed by the end-of-run sweep.
const ABSENT_PROBES: u64 = 10_000;
/// Closed-loop chunks and open-loop windows the measured phases alternate
/// between; open-loop latency is the median over the windows.
const WINDOWS: usize = 20;
/// Alternating untraced/traced closed-loop slices for the tracing cost.
const OVERHEAD_SLICES: usize = 6;

/// Command-line options of one run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub spec: Spec,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured phases together, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Directory for pools, traces and scratch files.
    pub work: PathBuf,
}

/// What a run produced.
pub struct Outcome {
    /// No reply, sweep read or integrity check contradicted the model.
    pub correct: bool,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed (error reply, timeout, unanswered).
    pub failed: u64,
    /// Every metric measured.
    pub values: Values,
    /// Run header and sample counts, one JSON object.
    pub header: String,
    /// Why the run is not correct.
    pub wrong: Vec<String>,
}

/// Table parameters `hdnh-cli serve --pool` uses for this capacity.
pub fn params(spec: &Spec) -> Result<HdnhParams, String> {
    HdnhParams::builder()
        .capacity(spec.capacity)
        .nvm(hdnh_nvm::NvmOptions::fast())
        .sync_policy(hdnh_nvm::SyncPolicy::Async)
        .build()
        .map_err(|e| format!("table parameters: {e}"))
}

fn server_config() -> Result<ServerConfig, String> {
    ServerConfig::builder()
        .threads(1)
        .build()
        .map_err(|e| format!("server config: {e}"))
}

/// Host parallelism (the client plus one reactor loop should fill it).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Creates a pool at `dir` holding the workload's preload (every key at
/// version 0, inserted in key order by one thread) and closes it cleanly.
pub fn preload(spec: &Spec, seed: u64, dir: &Path) -> Result<(), String> {
    let (table, report) =
        Hdnh::open_pool(params(spec)?, dir, 1).map_err(|e| format!("create pool: {e}"))?;
    if !report.created {
        return Err(format!("{} already holds a pool", dir.display()));
    }
    let mut value = Vec::new();
    for key in 0..spec.preload {
        value.clear();
        write_value(&mut value, spec.value, seed, key, 0);
        table
            .insert_bytes(&Key::from_u64(key), &value)
            .map_err(|e| format!("preload key {key}: {e}"))?;
    }
    table.close_pool().map_err(|e| format!("close pool: {e}"))
}

fn close(table: Arc<Hdnh>) -> Result<(), String> {
    Arc::try_unwrap(table)
        .map_err(|_| "table still shared at close".to_string())?
        .close_pool()
        .map_err(|e| format!("close pool: {e}"))
}

/// Copies the directory tree at `from` to `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let target = to.join(entry.file_name());
        if entry.file_type().map_err(|e| e.to_string())?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copy {}: {e}", target.display()))?;
        }
    }
    Ok(())
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Sample index ranges of one open-loop window.
struct Window {
    reads: Range<usize>,
    writes: Range<usize>,
}

/// NVM media events of the served closed loop.
#[derive(Default)]
struct Media {
    read_blocks: u64,
    write_lines: u64,
    /// Requests answered while the events were counted.
    requests: u64,
}

/// The served part: set-ups, then closed and open loop against the last.
struct Served {
    setup_s: Vec<f64>,
    open_ms: Vec<f64>,
    records: usize,
    obs_setup: obs::MetricsSnapshot,
    closed: Phase,
    /// Replies/s of each closed-loop chunk.
    chunk_rates: Vec<f64>,
    media: Media,
    open: Phase,
    windows: Vec<Window>,
    obs_served: obs::MetricsSnapshot,
    served_secs: f64,
    resizes: usize,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// measured phases.
    steal_frac: f64,
    space_amp: f64,
    overhead_frac: Option<f64>,
    rec: Record,
    streams: Vec<Stream>,
    trace: Trace,
    table: Arc<Hdnh>,
}

/// Opens the pool and starts the server [`SETUPS`] times, recording each
/// set-up's seconds and `open_pool` milliseconds; the last stays up.
fn setups(
    opts: &Options,
    pool: &Path,
    trace: &mut Trace,
    setup_s: &mut Vec<f64>,
    open_ms: &mut Vec<f64>,
) -> Result<(Arc<Hdnh>, ServerHandle), String> {
    let mut live: Option<(Arc<Hdnh>, ServerHandle)> = None;
    for i in 0..SETUPS {
        if let Some((table, handle)) = live.take() {
            handle.shutdown_and_join();
            close(table)?;
        }
        let t0 = Instant::now();
        let (table, report) = Hdnh::open_pool(params(&opts.spec)?, pool, nproc())
            .map_err(|e| format!("open pool: {e}"))?;
        let t1 = Instant::now();
        if report.created || !report.was_clean {
            return Err("set-up did not find the cleanly closed preloaded pool".into());
        }
        let table = Arc::new(table);
        let handle = hdnh_server::start(Arc::clone(&table), "127.0.0.1:0", server_config()?)
            .map_err(|e| format!("start server: {e}"))?;
        ping(handle.local_addr()).map_err(|e| format!("first PING: {e}"))?;
        let t2 = Instant::now();
        let root = trace.push(i as u64, ROOT, Name::Setup, trace.ns(t0), trace.ns(t2));
        trace.push(i as u64, root, Name::OpenPool, trace.ns(t0), trace.ns(t1));
        setup_s.push((t2 - t0).as_secs_f64());
        open_ms.push((t1 - t0).as_secs_f64() * 1e3);
        live = Some((table, handle));
    }
    live.ok_or_else(|| "no set-up ran".to_string())
}

fn serve(opts: &Options, pool: &Path, mut trace: Trace) -> Result<Served, String> {
    let spec = &opts.spec;
    obs::set_enabled(opts.trace);
    let obs0 = obs::snapshot();
    let (mut setup_s, mut open_ms) = (Vec::new(), Vec::new());
    let (table, handle) = setups(opts, pool, &mut trace, &mut setup_s, &mut open_ms)?;
    let obs_setup = obs::snapshot().since(&obs0);
    let records = table.len();

    let streams = (0..CONNS)
        .map(|c| Stream::new(spec, opts.seed, c))
        .collect();
    let mut client = Client::connect(
        handle.local_addr(),
        streams,
        Some(Arc::clone(&table)),
        trace,
    )
    .map_err(|e| format!("connect: {e}"))?;
    let closed_ops = (spec.closed_ops as f64 * opts.seconds / 10.0).round() as u64;
    let closed = |ops| Load::Closed {
        depth: spec.depth,
        ops,
    };

    // Per-request spans cover the open loop only (the closed loop is
    // counted, not traced, to keep the trace small); COMPACTs are always
    // traced.
    client.trace_requests = false;
    // Warm-up: caches fill, lazy set-up finishes. Not measured.
    client.run(closed(closed_ops / 5), false);
    client.rec.compacts.clear();
    client.rec.gaps.clear();
    client.rec.resize_seen_ns.clear();

    // The measured phases interleave: WINDOWS closed-loop chunks, each
    // followed by an open-loop window, so a host slowdown of a few
    // seconds lands in a minority of the windows the latency median
    // is taken over.
    let resizes0 = table.resize_count();
    let obs0 = obs::snapshot();
    let cpu0 = cpu_jiffies();
    let t0 = Instant::now();
    let (mut closed_phase, mut open) = (Phase::default(), Phase::default());
    let mut chunk_rates = Vec::with_capacity(WINDOWS);
    let mut media = Media::default();
    let mut windows = Vec::with_capacity(WINDOWS);
    let open_load = Load::Open {
        rate: OPEN_RATE,
        secs: opts.seconds / 4.0 / WINDOWS as f64,
        max_outstanding: MAX_OUTSTANDING,
    };
    for _ in 0..WINDOWS {
        client.trace_requests = false;
        let before = (
            table.nvm_stats(),
            table.resize_count(),
            client.rec.compacts.len(),
        );
        let cp = client.run(closed(closed_ops / WINDOWS as u64), false);
        chunk_rates.push(cp.replies_in_window as f64 / cp.secs);
        // Media counts come from the chunks no resize or COMPACT ran in:
        // both retire regions whose counters nvm_stats() then no longer
        // sums.
        if (table.resize_count(), client.rec.compacts.len()) == (before.1, before.2) {
            let d = table.nvm_stats().since(&before.0);
            media.read_blocks += d.read_blocks;
            media.write_lines += d.write_lines;
            media.requests += cp.replies_in_window;
        }
        closed_phase.add(&cp);
        client.trace_requests = true;
        let (reads, writes) = (client.rec.reads.len(), client.rec.writes.len());
        open.add(&client.run(open_load, true));
        windows.push(Window {
            reads: reads..client.rec.reads.len(),
            writes: writes..client.rec.writes.len(),
        });
    }
    let served_secs = t0.elapsed().as_secs_f64();
    let cpu1 = cpu_jiffies();
    let steal_frac = ratio((cpu1.0 - cpu0.0) as f64, (cpu1.1 - cpu0.1) as f64);
    let obs_served = obs::snapshot().since(&obs0);
    let resizes = table.resize_count() - resizes0;
    let live: u64 = client.streams().iter().map(Stream::live_bytes).sum();
    let space_amp = ratio(dir_bytes(pool) as f64, live as f64);
    // COMPACTs, reply gaps and resizes count over the measured phases
    // only, like the obs deltas they are read with.
    let events = (
        client.rec.compacts.len(),
        client.rec.gaps.len(),
        client.rec.resize_seen_ns.len(),
    );

    // Tracing cost: alternate untraced and traced closed-loop slices.
    let overhead_frac = if opts.trace {
        let (mut off, mut on) = (Vec::new(), Vec::new());
        let spans = client.trace.spans().len();
        for i in 0..OVERHEAD_SLICES {
            let traced = i % 2 == 1;
            obs::set_enabled(traced);
            client.trace_requests = traced;
            let p = client.run(closed(closed_ops / 20), false);
            let rate = p.replies_in_window as f64 / p.secs;
            if traced {
                on.push(rate)
            } else {
                off.push(rate)
            }
        }
        client.trace.truncate(spans);
        Some(1.0 - ratio(median(&on), median(&off)))
    } else {
        None
    };
    obs::set_enabled(false);
    if let Some(why) = &client.broken {
        eprintln!(
            "perfbench: the client stopped early ({why}); every request still owed a reply \
             counts as failed"
        );
    }

    let (mut rec, streams, trace) = client.finish();
    rec.compacts.truncate(events.0);
    rec.gaps.truncate(events.1);
    rec.resize_seen_ns.truncate(events.2);
    handle.shutdown_and_join();
    Ok(Served {
        setup_s,
        open_ms,
        records,
        obs_setup,
        closed: closed_phase,
        chunk_rates,
        media,
        open,
        windows,
        obs_served,
        served_secs,
        resizes,
        steal_frac,
        space_amp,
        overhead_frac,
        rec,
        streams,
        trace,
        table,
    })
}

/// Reads every modelled key (and a sample of never-written keys) back
/// in-process and audits the table's invariants. A key whose SET failed
/// or went unanswered may hold either state. Returns what was wrong.
fn sweep(table: &Hdnh, streams: &[Stream], oracle: Oracle) -> Vec<String> {
    let mut wrong = Vec::new();
    let mut expected = 0usize;
    let maybe_absent: usize = streams.iter().map(Stream::maybe_absent).sum();
    for s in streams {
        let probes = s
            .live()
            .map(|(k, v)| (k, Some(v)))
            .chain((0..ABSENT_PROBES).map(|i| (s.absent_key(i), None)));
        for (key, expect) in probes {
            expected += expect.is_some() as usize;
            let got = match table.get_bytes(&Key::from_u64(key)) {
                Ok(got) => got,
                Err(e) => {
                    wrong.push(format!("sweep GET {key}: {e}"));
                    continue;
                }
            };
            let reply = match got {
                Some(b) => Reply::Bulk(b),
                None => Reply::Nil,
            };
            if let Verdict::Wrong(e) | Verdict::Failed(e) =
                oracle.check_unsure(&Op::Get { key, expect }, &reply, s.doubt(key))
            {
                if wrong.len() < 10 {
                    wrong.push(format!("sweep: {e}"));
                }
            }
        }
    }
    match table.verify_integrity() {
        Ok(live) if live <= expected && live + maybe_absent >= expected => {}
        Ok(live) => wrong.push(format!(
            "integrity scan found {live} records, the model holds {expected} \
             ({maybe_absent} of them maybe absent)"
        )),
        Err(e) => wrong.push(format!("verify_integrity: {e}")),
    }
    wrong
}

/// Runs the benchmark once.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = &opts.spec;
    let origin = Instant::now();
    std::fs::create_dir_all(&opts.work)
        .map_err(|e| format!("mkdir {}: {e}", opts.work.display()))?;
    let pool = opts.work.join("pool");
    preload(spec, opts.seed, &pool)?;
    let mut values = Values::default();
    let mut wrong = Vec::new();
    let mut trace = Trace::new(origin, opts.trace);

    let replayed = if opts.trace {
        let copy = opts.work.join("replay");
        copy_dir(&pool, &copy)?;
        let r = replay_copy(spec, opts.seed, &copy, &mut trace)?;
        std::fs::remove_dir_all(&copy).map_err(|e| format!("remove {}: {e}", copy.display()))?;
        if r.wrong > 0 {
            wrong.push(format!(
                "{} replayed replies contradicted the model",
                r.wrong
            ));
        }
        Some(r)
    } else {
        None
    };

    let mut s = serve(opts, &pool, trace)?;
    let oracle = Oracle {
        value: spec.value,
        seed: opts.seed,
    };
    if let Some(e) = s.rec.first_wrong.take() {
        wrong.push(format!("{} wrong replies; first: {e}", s.rec.wrong));
    }
    wrong.extend(sweep(&s.table, &s.streams, oracle));

    let vlog = s.table.vlog_stats();
    let ocf_bytes = s.table.ocf_footprint_bytes();
    let rss = peak_rss_mb();
    let open_window = s.open.secs;
    let (read, write) = (
        Summary::of(&mut s.rec.reads.clone()),
        Summary::of(&mut s.rec.writes.clone()),
    );
    let read_w = windowed(&s.rec.reads, s.windows.iter().map(|w| w.reads.clone()));
    let write_w = windowed(&s.rec.writes, s.windows.iter().map(|w| w.writes.clone()));
    let achieved = ratio(s.open.replies_in_window as f64, s.open.scheduled as f64);
    let mut late = s.rec.late_ns.clone();
    late.sort_unstable();
    let late_p99_us = quantile(&late, 0.99) as f64 / 1e3;
    if achieved < 0.98 {
        eprintln!(
            "perfbench: open loop fell behind ({:.1} % of the offered rate answered in the window): \
             a growing backlog, latencies are not valid",
            achieved * 100.0
        );
    }

    if opts.trace {
        let r = replayed.as_ref().ok_or("traced run without a replay")?;
        let stall = resize_stall_ms(&s.rec, &mut s.trace);
        let gen = (late_p99_us, achieved);
        layer_metrics(&mut values, &s, r, read, gen, stall, ocf_bytes, &vlog);
        let path = opts
            .work
            .parent()
            .unwrap_or(&opts.work)
            .join(format!("trace-{}.tsv", spec.name));
        s.trace
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: trace written to {}", path.display());
    } else {
        values.set("setup_s", median(&s.setup_s));
        values.set("read_p50_us", read_w[0]);
        values.set("write_p50_us", write_w[0]);
        values.set(
            "success_frac",
            ratio(s.rec.right as f64, s.rec.attempted as f64),
        );
        values.set(
            "nvm_read_blocks_per_op",
            per_op(s.media.read_blocks, s.media.requests),
        );
        values.set(
            "nvm_write_lines_per_op",
            per_op(s.media.write_lines, s.media.requests),
        );
        values.set("space_amp", s.space_amp);
        values.set("peak_rss_mb", rss);
    }
    let header = format!(
        "{{\"header\":{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"nproc\":{},\"git_sha\":\"{}\",\"rustc\":\"{}\",\
         \"flush_policy\":\"async\",\"nvm_latency_model\":\"off\",\"client_threads\":1,\"reactor_loops\":1,\
         \"connections\":{CONNS},\"closed_loop_depth\":{},\"open_loop_rate\":{},\"window_s\":{},\"open_window_s\":{},\
         \"preload\":{},\"records_at_setup\":{},\"setups\":{SETUPS},\"host_steal_frac\":{}}},\
         \"samples\":{{\"read\":{},\"write\":{},\"late\":{},\"setup\":{}}},\
         \"latency_us\":{{\"read_p50\":{},\"read_p90\":{},\"read_p99\":{},\"write_p50\":{},\"write_p90\":{},\"write_p99\":{}}},\
         \"window_median_latency_us\":{{\"read_p50\":{},\"read_p75\":{},\"read_p90\":{},\"write_p50\":{},\"write_p75\":{},\"write_p90\":{}}},\
         \"open_loop\":{{\"scheduled\":{},\"sent\":{},\"answered_in_window\":{},\"late_p99_us\":{}}},\
         \"closed_loop\":{{\"chunks\":{},\"resizes\":{},\"replies\":{},\"rate_overall\":{},\"rate_chunk_iqm\":{},\"chunk_rate_min\":{},\"chunk_rate_max\":{},\"media_requests\":{}}}}}",
        spec.name,
        opts.seed,
        opts.trace as u8,
        nproc(),
        git_sha(),
        command_line("rustc", &["--version"]),
        spec.depth,
        num(OPEN_RATE),
        num(opts.seconds),
        num(open_window),
        spec.preload,
        s.records,
        num(s.steal_frac),
        read.n,
        write.n,
        s.rec.late_ns.len(),
        s.setup_s.len(),
        num(read.p50_ns as f64 / 1e3),
        num(read.p90_ns as f64 / 1e3),
        num(read.p99_ns as f64 / 1e3),
        num(write.p50_ns as f64 / 1e3),
        num(write.p90_ns as f64 / 1e3),
        num(write.p99_ns as f64 / 1e3),
        num(read_w[0]),
        num(read_w[1]),
        num(read_w[2]),
        num(write_w[0]),
        num(write_w[1]),
        num(write_w[2]),
        s.open.scheduled,
        s.open.sent,
        s.open.replies_in_window,
        num(late_p99_us),
        s.chunk_rates.len(),
        s.resizes,
        s.closed.replies_in_window,
        num(ratio(s.closed.replies_in_window as f64, s.closed.secs)),
        num(interquartile_mean(&s.chunk_rates)),
        num(s.chunk_rates.iter().copied().fold(f64::INFINITY, f64::min)),
        num(s.chunk_rates.iter().copied().fold(0.0, f64::max)),
        s.media.requests,
    );
    close(s.table)?;
    Ok(Outcome {
        correct: wrong.is_empty(),
        attempted: s.rec.attempted,
        failed: s.rec.failed,
        values,
        header,
        wrong,
    })
}

fn git_sha() -> String {
    match option_env!("HDNH_GIT_HASH") {
        Some(h) => h.to_string(),
        None => command_line("git", &["rev-parse", "HEAD"]),
    }
}

/// Each open-loop window's p50, p75 and p90 latency over `samples`, µs;
/// the median over the windows of each.
fn windowed(samples: &[u64], ranges: impl Iterator<Item = Range<usize>>) -> [f64; 3] {
    let mut per = [Vec::new(), Vec::new(), Vec::new()];
    for r in ranges.filter(|r| !r.is_empty()) {
        let sum = Summary::of(&mut samples[r].to_vec());
        for (v, ns) in per.iter_mut().zip([sum.p50_ns, sum.p75_ns, sum.p90_ns]) {
            v.push(ns as f64 / 1e3);
        }
    }
    per.map(|v| median(&v))
}

/// `(steal, total)` CPU jiffies over all CPUs from `/proc/stat` (zeros
/// where it is not readable).
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    match fields.as_slice() {
        [.., steal] if fields.len() == 8 => (*steal, fields.iter().sum()),
        _ => (0, 0),
    }
}

/// Apparent size of every file under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Opens the copy of the preloaded pool with one recovery thread (so the
/// rebuilt hot table is the same every time), replays, and closes it.
fn replay_copy(spec: &Spec, seed: u64, dir: &Path, trace: &mut Trace) -> Result<Replay, String> {
    obs::set_enabled(true);
    let (table, _) =
        Hdnh::open_pool(params(spec)?, dir, 1).map_err(|e| format!("open replay pool: {e}"))?;
    let r = replay(&table, spec, seed, trace);
    obs::set_enabled(false);
    table
        .close_pool()
        .map_err(|e| format!("close replay pool: {e}"))?;
    Ok(r)
}

/// Longest reply gap on any connection that spans a moment the table's
/// resize count was seen to grow, ms (0 without resizes).
fn resize_stall_ms(rec: &Record, trace: &mut Trace) -> f64 {
    let mut worst = 0u64;
    for (i, &seen) in rec.resize_seen_ns.iter().enumerate() {
        let gap = rec
            .gaps
            .iter()
            .filter(|g| g.from_ns <= seen && seen <= g.to_ns + 1_000_000)
            .max_by_key(|g| g.to_ns - g.from_ns);
        if let Some(g) = gap {
            trace.push(i as u64, ROOT, Name::Resize, g.from_ns, g.to_ns);
            worst = worst.max(g.to_ns - g.from_ns);
        }
    }
    worst as f64 / 1e6
}

/// Longest reply gap on another connection overlapping a `COMPACT`, ms.
fn compact_stall_ms(rec: &Record) -> f64 {
    let mut worst = 0u64;
    for c in &rec.compacts {
        for g in rec.gaps.iter().filter(|g| g.conn != c.conn) {
            if g.from_ns < c.reply_ns && g.to_ns > c.sent_ns {
                worst = worst.max(g.to_ns - g.from_ns);
            }
        }
    }
    worst as f64 / 1e6
}

fn per_op(n: u64, ops: u64) -> f64 {
    ratio(n as f64, ops as f64)
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    v: &mut Values,
    s: &Served,
    r: &Replay,
    read: Summary,
    (late_p99_us, achieved): (f64, f64),
    resize_stall_ms: f64,
    ocf_bytes: usize,
    vlog: &hdnh::VlogStats,
) {
    use obs::{Counter as C, NetCmd, Phase};
    let ops = r.ops;
    let mut get_ns = r.get_ns.clone();
    let mut set_ns = r.set_ns.clone();
    let mut op_get = r.op_get_ns.clone();
    let (get, set, op_get) = (
        Summary::of(&mut get_ns),
        Summary::of(&mut set_ns),
        Summary::of(&mut op_get),
    );
    let replies = s.rec.right + s.rec.failed + s.rec.wrong;

    // server::resp
    v.set(
        "resp.decode_ns_per_frame",
        ratio(r.decode_ns as f64, ops as f64),
    );
    v.set(
        "resp.encode_ns_per_reply",
        ratio(r.encode_ns as f64, ops as f64),
    );
    v.set(
        "resp.bytes_in_per_op",
        per_op(s.rec.bytes_out, s.rec.attempted),
    );
    v.set("resp.bytes_out_per_op", per_op(s.rec.bytes_in, replies));
    // server (reactor + dispatch)
    v.set(
        "server.closed_loop_ops_s",
        interquartile_mean(&s.chunk_rates),
    );
    v.set(
        "reactor.share_us.p50",
        (read.p50_ns as f64 - op_get.p50_ns as f64) / 1e3,
    );
    v.set(
        "server.dispatch_get_ns.p50",
        s.obs_served.net(NetCmd::Get).quantile(0.5) as f64,
    );
    v.set(
        "server.dispatch_set_ns.p50",
        s.obs_served.net(NetCmd::Set).quantile(0.5) as f64,
    );
    v.set(
        "server.spurious_wakeups_per_s",
        ratio(
            s.obs_served.counter(C::NetSpuriousWakeup) as f64,
            s.served_secs,
        ),
    );
    // core::table
    v.set("table.get_ns.p50", get.p50_ns as f64);
    v.set("table.get_ns.p99", get.p99_ns as f64);
    v.set("table.set_ns.p50", set.p50_ns as f64);
    v.set("table.set_ns.p99", set.p99_ns as f64);
    v.set("table.replay_ops_s", ratio(ops as f64, r.secs));
    // core::hot
    v.set("hot.hit_rate", r.obs.hot_hit_rate());
    v.set(
        "hot.evictions_per_op",
        per_op(
            r.obs.counter(C::HotEvictCold) + r.obs.counter(C::HotEvictRandom),
            ops,
        ),
    );
    // core::ocf
    v.set("ocf.fp_rate", r.obs.ocf_false_positive_rate());
    let short = r.obs.counter(C::OcfNegativeShortCircuit);
    let probed = short + r.obs.counter(C::OcfTrueMatch) + r.obs.counter(C::OcfFalsePositive);
    v.set("ocf.neg_short_circuit_frac", per_op(short, probed));
    v.set(
        "ocf.seqlock_retries_per_op",
        per_op(r.obs.counter(C::SeqlockReadRetry), ops),
    );
    v.set("ocf.footprint_bytes", ocf_bytes as f64);
    // hdnh-nvm
    v.set("nvm.read_blocks_per_op", per_op(r.nvm.read_blocks, ops));
    v.set("nvm.write_lines_per_op", per_op(r.nvm.write_lines, ops));
    v.set("nvm.flushes_per_op", per_op(r.nvm.flushes, ops));
    v.set("nvm.fences_per_op", per_op(r.nvm.fences, ops));
    v.set(
        "nvm.write_amp",
        ratio((r.nvm.write_lines * 64) as f64, r.user_bytes_written as f64),
    );
    // core::vlog
    let inline = r.obs.counter(C::VlogInlineWrites);
    let spill = r.obs.counter(C::VlogSpillWrites);
    v.set("vlog.spill_frac", per_op(spill, inline + spill));
    v.set("vlog.append_bytes_per_op", per_op(r.vlog_appended, ops));
    v.set(
        "vlog.reads_per_op",
        per_op(r.obs.counter(C::VlogReads), ops),
    );
    v.set(
        "vlog.read_retries",
        s.obs_served.counter(C::VlogReadRetries) as f64,
    );
    v.set(
        "vlog.garbage_frac",
        per_op(vlog.garbage_bytes, vlog.used_bytes),
    );
    v.set(
        "vlog.compact_ms",
        s.obs_served.phase(Phase::VlogGc).mean_ns() / 1e6,
    );
    let compacts = s.rec.compacts.len() as f64;
    v.set(
        "vlog.reclaimed_mb_per_compact",
        ratio(
            s.rec
                .compacts
                .iter()
                .map(|c| c.reclaimed as f64)
                .sum::<f64>()
                / 1e6,
            compacts,
        ),
    );
    v.set("vlog.compact_stall_ms", compact_stall_ms(&s.rec));
    // resize (core::table level machinery)
    v.set("resize.count", s.resizes as f64);
    v.set(
        "resize.rehash_ms",
        s.obs_served.phase(Phase::ResizeRehash).mean_ns() / 1e6,
    );
    v.set("resize.stall_ms", resize_stall_ms);
    // core::sync
    v.set(
        "sync.overlap_win_rate",
        s.obs_served.sync_overlap_win_rate(),
    );
    // core::recovery / core::pool
    let open_ms = median(&s.open_ms);
    v.set("recovery.open_ms", open_ms);
    v.set(
        "recovery.rebuild_ms",
        s.obs_setup.phase(Phase::RecoveryRebuild).mean_ns() / 1e6,
    );
    v.set(
        "recovery.records_per_s",
        ratio(s.records as f64, open_ms / 1e3),
    );
    // hdnh-obs
    v.set("obs.overhead_frac", s.overhead_frac.unwrap_or(0.0));
    // generator health
    v.set("gen.late_us.p99", late_p99_us);
    v.set("gen.achieved_rate_frac", achieved);
}
