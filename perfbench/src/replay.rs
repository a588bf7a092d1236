//! Single-threaded in-process replay of a workload's generated requests.
//!
//! Each request's wire bytes go through the same public pieces the server
//! runs — `Decoder::feed`/`next`, the `Hdnh` call (`get_bytes`,
//! `upsert_bytes`, `compact`) and the `enc_*` reply encoders — with a
//! root span per op and a child span per layer. With one thread and no
//! timers, the table's NVM media counts for a seed repeat exactly.

use std::time::Instant;

use hdnh::Hdnh;
use hdnh_common::Key;
use hdnh_nvm::StatsSnapshot;
use hdnh_obs as obs;
use hdnh_server::resp::{enc_bulk, enc_nil, enc_simple, parse_u64, Decoder, DEFAULT_MAX_FRAME};

use crate::oracle::{Oracle, Verdict};
use crate::trace::{Name, Trace, ROOT};
use crate::workload::{encode_request, value_len, Op, Spec, Stream, CONNS, KEY_BYTES};

/// What the replay measured.
pub struct Replay {
    /// Ops replayed.
    pub ops: u64,
    /// Wall time of the replay loop, s.
    pub secs: f64,
    /// `Hdnh` call time of every GET, ns.
    pub get_ns: Vec<u64>,
    /// `Hdnh` call time of every SET, ns.
    pub set_ns: Vec<u64>,
    /// Whole-op time of every GET (decode + call + encode), ns.
    pub op_get_ns: Vec<u64>,
    /// Total decode time, ns.
    pub decode_ns: u64,
    /// Total encode time, ns.
    pub encode_ns: u64,
    /// Key plus value bytes written by SETs.
    pub user_bytes_written: u64,
    /// Value-log bytes appended (growth plus bytes compaction reclaimed).
    pub vlog_appended: u64,
    /// Table media counters over the replay.
    pub nvm: StatsSnapshot,
    /// Metrics-registry activity over the replay (empty while disabled).
    pub obs: obs::MetricsSnapshot,
    /// Replies the model rules out.
    pub wrong: u64,
}

/// Replays the first `spec.replay_ops` requests of the seed's streams
/// (round-robin over the connections, as the served run interleaves
/// them) against `table`.
pub fn replay(table: &Hdnh, spec: &Spec, seed: u64, trace: &mut Trace) -> Replay {
    let mut streams: Vec<Stream> = (0..CONNS).map(|c| Stream::new(spec, seed, c)).collect();
    let oracle = Oracle {
        value: spec.value,
        seed,
    };
    let mut dec = Decoder::new(DEFAULT_MAX_FRAME);
    let (mut req, mut scratch, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let mut r = Replay {
        ops: 0,
        secs: 0.0,
        get_ns: Vec::new(),
        set_ns: Vec::new(),
        op_get_ns: Vec::new(),
        decode_ns: 0,
        encode_ns: 0,
        user_bytes_written: 0,
        vlog_appended: 0,
        nvm: StatsSnapshot::default(),
        obs: obs::MetricsSnapshot::empty(),
        wrong: 0,
    };
    let (nvm0, obs0, vlog0) = (
        table.nvm_stats(),
        obs::snapshot(),
        table.vlog_stats().used_bytes,
    );
    let mut reclaimed = 0u64;
    let started = Instant::now();
    for i in 0..spec.replay_ops {
        let op = streams[i % CONNS].next_op();
        req.clear();
        encode_request(&mut req, &mut scratch, &op, spec.value, seed);
        out.clear();

        let t0 = Instant::now();
        let root_name = match op {
            Op::Get { .. } => Name::OpGet,
            Op::Set { .. } => Name::OpSet,
            Op::Compact => Name::OpCompact,
        };
        let id = i as u64;
        let root = trace.push(id, ROOT, root_name, trace.ns(t0), trace.ns(t0));
        dec.feed(&req);
        let frame = match dec.next() {
            Ok(Some(f)) => f,
            other => panic!("replay request did not decode: {other:?}"),
        };
        let key = (frame.len() > 1)
            .then(|| parse_u64(dec.arg(&frame, 1)).map(Key::from_u64))
            .flatten();
        let t1 = Instant::now();
        trace.push(id, root, Name::Decode, trace.ns(t0), trace.ns(t1));

        let (call, reply) = match op {
            Op::Get { .. } => {
                let key = key.expect("GET carries a numeric key");
                (Name::TableGet, Reply::Get(table.get_bytes(&key)))
            }
            Op::Set {
                key: k, version, ..
            } => {
                let key = key.expect("SET carries a numeric key");
                r.user_bytes_written += KEY_BYTES + value_len(spec.value, seed, k, version) as u64;
                (
                    Name::TableUpsert,
                    Reply::Set(table.upsert_bytes(&key, dec.arg(&frame, 2))),
                )
            }
            Op::Compact => (Name::TableCompact, Reply::Compact(table.compact())),
        };
        let t2 = Instant::now();
        trace.push(id, root, call, trace.ns(t1), trace.ns(t2));

        match &reply {
            Reply::Get(Ok(Some(v))) => enc_bulk(&mut out, v),
            Reply::Get(Ok(None)) => enc_nil(&mut out),
            Reply::Set(Ok(())) => enc_simple(&mut out, "OK"),
            Reply::Compact(Ok(c)) => enc_bulk(
                &mut out,
                format!(
                    "victims:{} segments_retired:{} records_relocated:{} bytes_reclaimed:{}",
                    c.victims, c.segments_retired, c.records_relocated, c.bytes_reclaimed
                )
                .as_bytes(),
            ),
            Reply::Get(Err(e)) | Reply::Set(Err(e)) | Reply::Compact(Err(e)) => {
                hdnh_server::resp::enc_error(&mut out, "ERR", &e.to_string())
            }
        }
        let t3 = Instant::now();
        trace.push(id, root, Name::Encode, trace.ns(t2), trace.ns(t3));
        trace.close(root, trace.ns(t3));
        dec.compact();

        let (dec_ns, call_ns, enc_ns) = (ns(t0, t1), ns(t1, t2), ns(t2, t3));
        r.decode_ns += dec_ns;
        r.encode_ns += enc_ns;
        match op {
            Op::Get { .. } => {
                r.get_ns.push(call_ns);
                r.op_get_ns.push(ns(t0, t3));
            }
            Op::Set { .. } => r.set_ns.push(call_ns),
            Op::Compact => {}
        }
        let verdict = match reply {
            Reply::Get(got) => match got {
                Ok(got) => {
                    let Op::Get { key, expect } = op else {
                        unreachable!()
                    };
                    oracle.check_value(key, expect, got.as_deref())
                }
                Err(e) => Verdict::Failed(e.to_string()),
            },
            Reply::Set(res) => {
                res.map_or_else(|e| Verdict::Failed(e.to_string()), |()| Verdict::Right)
            }
            Reply::Compact(res) => match res {
                Ok(c) => {
                    reclaimed += c.bytes_reclaimed;
                    Verdict::Right
                }
                Err(e) => Verdict::Failed(e.to_string()),
            },
        };
        if verdict != Verdict::Right {
            r.wrong += 1;
        }
        r.ops += 1;
    }
    r.secs = started.elapsed().as_secs_f64();
    r.nvm = table.nvm_stats().since(&nvm0);
    r.obs = obs::snapshot().since(&obs0);
    r.vlog_appended = (table.vlog_stats().used_bytes + reclaimed).saturating_sub(vlog0);
    r
}

enum Reply {
    Get(Result<Option<Vec<u8>>, hdnh::HdnhError>),
    Set(Result<(), hdnh::HdnhError>),
    Compact(Result<hdnh::CompactReport, hdnh::HdnhError>),
}

fn ns(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}
