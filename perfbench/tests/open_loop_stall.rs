//! An injected server stall must show up in open-loop latency and in
//! generator lateness: latency is timed from the schedule, so requests the
//! generator could not even send during the stall still count it.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdnh_perfbench::gen::{Client, Load};
use hdnh_perfbench::stats::quantile;
use hdnh_perfbench::trace::Trace;
use hdnh_perfbench::workload::{write_value, KeyChoice, Spec, Stream, ValueSize, CONNS};
use hdnh_server::reactor::{self, Engine, EngineAction, ReactorHandle};
use hdnh_server::resp::{enc_bulk, enc_error, parse_u64, Decoder, Frame};
use hdnh_server::ServerConfig;

const SEED: u64 = 9;
const STALL: Duration = Duration::from_millis(100);
/// Open-loop rate, requests/s.
const RATE: f64 = 2_000.0;

/// Answers every GET with the key's version-0 value; request number
/// `stall_at` stalls the event loop first, request number `garble_at` is
/// answered with bytes that are not RESP.
struct StallEngine {
    frames: AtomicU64,
    stall_at: Option<u64>,
    garble_at: Option<u64>,
}

impl Engine for StallEngine {
    fn execute(&self, dec: &Decoder, frame: &Frame, out: &mut Vec<u8>) -> EngineAction {
        let n = Some(self.frames.fetch_add(1, Ordering::SeqCst));
        if n == self.stall_at {
            std::thread::sleep(STALL);
        }
        if n == self.garble_at {
            out.extend_from_slice(b"?garbled\r\n");
            return EngineAction::Continue;
        }
        match (frame.len() == 2)
            .then(|| parse_u64(dec.arg(frame, 1)))
            .flatten()
        {
            Some(key) => {
                let mut v = Vec::new();
                write_value(&mut v, ValueSize::Inline8, SEED, key, 0);
                enc_bulk(out, &v);
            }
            None => enc_error(out, "ERR", "only GET <u64>"),
        }
        EngineAction::Continue
    }
}

fn spec() -> Spec {
    Spec {
        name: "read-only",
        preload: 1_000,
        capacity: 1_000,
        value: ValueSize::Inline8,
        keys: KeyChoice::Uniform,
        get_pct: 100,
        insert_pct: 0,
        absent_pct: 0,
        compact_every_sets: 0,
        depth: 1,
        closed_ops: 0,
        replay_ops: 0,
    }
}

/// A reactor running `engine` and a client connected to it.
fn start(engine: StallEngine) -> (ReactorHandle, Client) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = ServerConfig::builder().threads(1).build().expect("config");
    let handle = reactor::spawn(listener, cfg, Arc::new(engine)).expect("spawn reactor");
    let streams = (0..CONNS).map(|c| Stream::new(&spec(), SEED, c)).collect();
    let client = Client::connect(
        handle.local_addr(),
        streams,
        None,
        Trace::new(Instant::now(), false),
    )
    .expect("connect");
    (handle, client)
}

/// `(p99 latency, p99 lateness)` in ns of one second of open loop.
fn run(stall_at: Option<u64>) -> (u64, u64) {
    let (handle, mut client) = start(StallEngine {
        frames: AtomicU64::new(0),
        stall_at,
        garble_at: None,
    });
    let load = Load::Open {
        rate: RATE,
        secs: 1.0,
        max_outstanding: 8,
    };
    let phase = client.run(load, true);
    assert_eq!(client.broken, None, "the open loop stopped early");
    handle.shutdown();
    handle.join();
    let rec = &client.rec;
    assert_eq!(rec.wrong, 0, "{:?}", rec.first_wrong);
    assert_eq!(rec.failed, 0);
    assert!(
        phase.sent + 2 >= phase.scheduled,
        "the schedule was not sent"
    );
    let mut lat = rec.reads.clone();
    let mut late = rec.late_ns.clone();
    lat.sort_unstable();
    late.sort_unstable();
    (quantile(&lat, 0.99), quantile(&late, 0.99))
}

#[test]
fn injected_stall_raises_p99_and_lateness() {
    let (calm_p99, calm_late) = run(None);
    // Stall in the middle of the schedule: ~200 requests fall due while
    // the loop sleeps, far more than the 2 × 8 the generator may have
    // outstanding, so it must send them late.
    let (stalled_p99, stalled_late) = run(Some(1_000));
    let ms = |ns: u64| ns as f64 / 1e6;
    eprintln!(
        "calm p99 {:.2} ms late {:.2} ms; stalled p99 {:.2} ms late {:.2} ms",
        ms(calm_p99),
        ms(calm_late),
        ms(stalled_p99),
        ms(stalled_late)
    );
    assert!(ms(stalled_p99) >= 50.0, "stall missing from p99");
    assert!(ms(stalled_late) >= 40.0, "generator lateness not recorded");
    assert!(
        stalled_p99 > 2 * calm_p99,
        "p99 did not rise with the stall"
    );
    assert!(
        stalled_late > 2 * calm_late.max(1),
        "lateness did not rise with the stall"
    );
}

/// A reply stream the client cannot parse stops it: that reply counts as
/// wrong, every other request still owed a reply as failed, and later
/// phases send nothing.
#[test]
fn an_unparsable_reply_stops_the_client() {
    let (handle, mut client) = start(StallEngine {
        frames: AtomicU64::new(0),
        stall_at: None,
        garble_at: Some(100),
    });
    let closed = Load::Closed {
        depth: 8,
        ops: 1_000,
    };
    let first = client.run(closed, false);
    let later = client.run(closed, false);
    handle.shutdown();
    handle.join();
    let rec = &client.rec;
    assert!(
        client
            .broken
            .as_deref()
            .is_some_and(|e| e.contains("reply grammar")),
        "{:?}",
        client.broken
    );
    assert_eq!(rec.wrong, 1);
    assert!(rec.failed > 0, "owed requests were not counted as failed");
    assert_eq!(rec.right + rec.wrong + rec.failed, rec.attempted);
    assert!(first.sent < 1_000, "the phase did not stop");
    assert_eq!(later.sent, 0, "a stopped client sent again");
}
