//! The metric catalogue and the result line.
//!
//! Names and units here are the contract with `BENCHMARK.json` (a test
//! checks that the two lists agree).

/// A metric's name and unit.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn d(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// Reported by untraced runs (`--trace 0`): what a client of the service
/// sees.
pub const END_TO_END: &[Def] = &[
    d("setup_s", "s"),
    d("read_p50_us", "us"),
    d("write_p50_us", "us"),
    d("nvm_read_blocks_per_op", "blocks/op"),
    d("nvm_write_lines_per_op", "lines/op"),
    d("success_frac", "frac"),
    d("space_amp", "ratio"),
    d("peak_rss_mb", "MB"),
];

/// Reported by traced runs (`--trace 1`): one layer each.
pub const PER_LAYER: &[Def] = &[
    d("resp.decode_ns_per_frame", "ns"),
    d("resp.encode_ns_per_reply", "ns"),
    d("resp.bytes_in_per_op", "B"),
    d("resp.bytes_out_per_op", "B"),
    d("reactor.share_us.p50", "us"),
    d("server.closed_loop_ops_s", "ops/s"),
    d("server.dispatch_get_ns.p50", "ns"),
    d("server.dispatch_set_ns.p50", "ns"),
    d("server.spurious_wakeups_per_s", "1/s"),
    d("table.get_ns.p50", "ns"),
    d("table.get_ns.p99", "ns"),
    d("table.set_ns.p50", "ns"),
    d("table.set_ns.p99", "ns"),
    d("table.replay_ops_s", "ops/s"),
    d("hot.hit_rate", "frac"),
    d("hot.evictions_per_op", "count"),
    d("ocf.fp_rate", "frac"),
    d("ocf.neg_short_circuit_frac", "frac"),
    d("ocf.seqlock_retries_per_op", "count"),
    d("ocf.footprint_bytes", "B"),
    d("nvm.read_blocks_per_op", "count"),
    d("nvm.write_lines_per_op", "count"),
    d("nvm.flushes_per_op", "count"),
    d("nvm.fences_per_op", "count"),
    d("nvm.write_amp", "ratio"),
    d("vlog.spill_frac", "frac"),
    d("vlog.append_bytes_per_op", "B"),
    d("vlog.reads_per_op", "count"),
    d("vlog.read_retries", "count"),
    d("vlog.garbage_frac", "frac"),
    d("vlog.compact_ms", "ms"),
    d("vlog.reclaimed_mb_per_compact", "MB"),
    d("vlog.compact_stall_ms", "ms"),
    d("resize.count", "count"),
    d("resize.rehash_ms", "ms"),
    d("resize.stall_ms", "ms"),
    d("sync.overlap_win_rate", "frac"),
    d("recovery.open_ms", "ms"),
    d("recovery.rebuild_ms", "ms"),
    d("recovery.records_per_s", "1/s"),
    d("obs.overhead_frac", "frac"),
    d("gen.late_us.p99", "us"),
    d("gen.achieved_rate_frac", "frac"),
];

/// Measured values, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// The value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object over `defs`: every listed metric, with its
    /// unit. A metric that was not recorded is an error.
    pub fn to_json(&self, defs: &[Def]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for def in defs {
            let v = self
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            parts.push(format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                def.name,
                num(v),
                def.unit
            ));
        }
        Ok(format!("{{{}}}", parts.join(",")))
    }
}

/// A JSON number with every digit Rust prints; non-finite values become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics_json}}}"
    )
}
