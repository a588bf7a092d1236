//! The load generator: one thread multiplexing every connection.
//!
//! Each connection is a non-blocking socket with an output buffer, a reply
//! decoder and a FIFO of requests awaiting replies. One loop sends, reads
//! and checks. Two load shapes share it:
//!
//! - **closed loop** — each connection sends `depth` requests as one
//!   batch and the next batch once every reply to the last one is back,
//!   so the server reads whole batches and the cost per request does not
//!   drift with how the two threads happen to interleave;
//! - **open loop** — request `k` is due at `t0 + k / rate` whatever the
//!   replies do, and its latency counts from that due instant. The pacer
//!   polls the clock, yielding the CPU between polls, instead of sleeping
//!   (a sleep-paced sender adds its own wake-up delay to every latency).
//!   A connection holding
//!   `max_outstanding` unanswered requests defers further sends, which
//!   makes the generator late; the lateness is recorded and the latency
//!   still counts from the schedule.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdnh::Hdnh;
use hdnh_server::client::ReplyDecoder;
use hdnh_server::Reply;

use crate::oracle::{compact_reclaimed, Oracle, Verdict};
use crate::trace::{Name, Trace, ROOT};
use crate::workload::{encode_request, Op, Stream};

/// A request with no reply after this long stops the client: it and
/// every other request still owed a reply count as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a phase waits for replies still owed after its window.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Reply gaps shorter than this are not kept (stall detection).
const GAP_NS: u64 = 1_000_000;
/// Longest single wait for socket readiness.
const IDLE_MAX: Duration = Duration::from_millis(1);
/// The open loop wakes this long before a send is due and polls the
/// clock for the rest; shorter waits just yield.
const WAKE_EARLY: Duration = Duration::from_micros(20);
/// Reply timeouts are checked this often.
const CHECK_EVERY: Duration = Duration::from_millis(100);

/// Offered load of one phase.
#[derive(Clone, Copy, Debug)]
pub enum Load {
    /// `ops` requests in batches of `depth` per connection (a batch is
    /// sent when the connection owes no reply); the phase ends with the
    /// last reply.
    Closed {
        /// Batch size per connection.
        depth: usize,
        /// Requests in the phase.
        ops: u64,
    },
    /// `rate` requests/s over all connections, round-robin, for `secs`.
    Open {
        /// Offered requests per second.
        rate: f64,
        /// Schedule length, s.
        secs: f64,
        /// Unanswered requests a connection may hold before sends wait.
        max_outstanding: usize,
    },
}

#[derive(Clone, Copy, Debug)]
struct Pending {
    id: u64,
    op: Op,
    sched_ns: u64,
    sent_ns: u64,
}

struct Conn {
    sock: TcpStream,
    out: Vec<u8>,
    written: usize,
    dec: ReplyDecoder,
    pending: VecDeque<Pending>,
    last_reply_ns: u64,
}

/// A reply gap of at least [`GAP_NS`] on one connection that was waiting.
#[derive(Clone, Copy, Debug)]
pub struct Gap {
    /// Connection index.
    pub conn: usize,
    /// Last reply (or the oldest send) before the gap, ns.
    pub from_ns: u64,
    /// Reply that ended the gap, ns.
    pub to_ns: u64,
}

/// One `COMPACT` as the client saw it.
#[derive(Clone, Copy, Debug)]
pub struct CompactObs {
    /// Connection that sent it.
    pub conn: usize,
    /// Send instant, ns.
    pub sent_ns: u64,
    /// Reply instant, ns.
    pub reply_ns: u64,
    /// `bytes_reclaimed` from the reply.
    pub reclaimed: u64,
}

/// Everything the generator observed, across phases.
#[derive(Default)]
pub struct Record {
    /// Open-loop read latencies (GET and absent GET), ns from the due
    /// instant.
    pub reads: Vec<u64>,
    /// Open-loop write latencies (SET), ns from the due instant.
    pub writes: Vec<u64>,
    /// Open-loop send lateness, ns behind schedule.
    pub late_ns: Vec<u64>,
    /// Requests put on the wire.
    pub attempted: u64,
    /// Replies that were right.
    pub right: u64,
    /// Error replies, timeouts and requests never answered.
    pub failed: u64,
    /// Replies the model rules out.
    pub wrong: u64,
    /// The first wrong reply, described.
    pub first_wrong: Option<String>,
    /// Request bytes written.
    pub bytes_out: u64,
    /// Reply bytes read.
    pub bytes_in: u64,
    /// Every `COMPACT`.
    pub compacts: Vec<CompactObs>,
    /// Reply gaps of at least 1 ms.
    pub gaps: Vec<Gap>,
    /// Instants (ns) at which the table's resize count was seen to grow.
    pub resize_seen_ns: Vec<u64>,
}

/// What one phase did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phase {
    /// Phase length, s (closed loop: until the last reply; open loop: the
    /// schedule).
    pub secs: f64,
    /// Replies received inside the phase.
    pub replies_in_window: u64,
    /// Requests the phase offered (open loop: due in the schedule).
    pub scheduled: u64,
    /// Requests sent inside the phase.
    pub sent: u64,
}

impl Phase {
    /// Accumulates another phase of the same kind.
    pub fn add(&mut self, other: &Phase) {
        self.secs += other.secs;
        self.replies_in_window += other.replies_in_window;
        self.scheduled += other.scheduled;
        self.sent += other.sent;
    }
}

/// The client side of a run.
pub struct Client {
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    oracle: Oracle,
    scratch: Vec<u8>,
    rbuf: Vec<u8>,
    next_id: u64,
    table: Option<Arc<Hdnh>>,
    resizes_seen: usize,
    /// Observations so far.
    pub rec: Record,
    /// Spans (recorded only when the trace is on).
    pub trace: Trace,
    /// Whether every request gets a span (COMPACTs always do).
    pub trace_requests: bool,
    /// Why the client stopped early (a timeout, a closed connection or an
    /// unparsable reply stream), if it did. Its connections are out of
    /// step with their request queues from then on, so later phases send
    /// nothing.
    pub broken: Option<String>,
}

impl Client {
    /// Connects one socket per stream to `addr`. `table`, when given, is
    /// watched for resizes.
    pub fn connect(
        addr: SocketAddr,
        streams: Vec<Stream>,
        table: Option<Arc<Hdnh>>,
        trace: Trace,
    ) -> std::io::Result<Client> {
        let oracle = Oracle {
            value: streams[0].spec().value,
            seed: streams[0].seed(),
        };
        let mut conns = Vec::with_capacity(streams.len());
        for _ in 0..streams.len() {
            let sock = TcpStream::connect(addr)?;
            sock.set_nodelay(true)?;
            sock.set_nonblocking(true)?;
            conns.push(Conn {
                sock,
                out: Vec::with_capacity(1 << 16),
                written: 0,
                dec: ReplyDecoder::new(),
                pending: VecDeque::new(),
                last_reply_ns: 0,
            });
        }
        let resizes_seen = table.as_ref().map_or(0, |t| t.resize_count());
        Ok(Client {
            conns,
            streams,
            oracle,
            scratch: Vec::new(),
            rbuf: vec![0; 1 << 18],
            next_id: 0,
            table,
            resizes_seen,
            rec: Record::default(),
            trace,
            trace_requests: true,
            broken: None,
        })
    }

    /// The streams (and their key models).
    pub fn streams(&self) -> &[Stream] {
        &self.streams
    }

    fn now_ns(&self) -> u64 {
        self.trace.ns(Instant::now())
    }

    fn enqueue(&mut self, c: usize, sched_ns: u64, sent_ns: u64) {
        let op = self.streams[c].next_op();
        let spec = self.streams[c].spec();
        let (vs, seed) = (spec.value, self.streams[c].seed());
        let conn = &mut self.conns[c];
        encode_request(&mut conn.out, &mut self.scratch, &op, vs, seed);
        if conn.pending.is_empty() {
            conn.last_reply_ns = sent_ns;
        }
        conn.pending.push_back(Pending {
            id: self.next_id,
            op,
            sched_ns,
            sent_ns,
        });
        self.next_id += 1;
        self.rec.attempted += 1;
    }

    fn flush(&mut self) -> Result<(), String> {
        for conn in &mut self.conns {
            while conn.written < conn.out.len() {
                match conn.sock.write(&conn.out[conn.written..]) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        conn.written += n;
                        self.rec.bytes_out += n as u64;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("write: {e}")),
                }
            }
            if conn.written == conn.out.len() {
                conn.out.clear();
                conn.written = 0;
            }
        }
        Ok(())
    }

    /// Reads whatever arrived and settles every complete reply. Returns
    /// the number of replies settled.
    fn pump(&mut self, record_latency: bool) -> Result<usize, String> {
        let mut settled = 0;
        for c in 0..self.conns.len() {
            let mut got = false;
            loop {
                match self.conns[c].sock.read(&mut self.rbuf) {
                    Ok(0) => return Err("server closed the connection".into()),
                    Ok(n) => {
                        self.conns[c].dec.feed(&self.rbuf[..n]);
                        self.rec.bytes_in += n as u64;
                        got = true;
                        if n < self.rbuf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("read: {e}")),
                }
            }
            if !got {
                continue;
            }
            let now = self.now_ns();
            loop {
                let reply = match self.conns[c].dec.next() {
                    Ok(Some(reply)) => reply,
                    Ok(None) => break,
                    Err(e) => {
                        // The unparsable reply answers the oldest request.
                        self.conns[c].pending.pop_front();
                        return Err(self.wrong_stream(format!("reply grammar: {e}")));
                    }
                };
                let Some(p) = self.conns[c].pending.pop_front() else {
                    return Err(self.wrong_stream("a reply arrived for no request".into()));
                };
                self.settle(c, p, &reply, now, record_latency);
                settled += 1;
            }
        }
        Ok(settled)
    }

    /// A reply stream the client cannot follow is a wrong answer.
    fn wrong_stream(&mut self, e: String) -> String {
        self.rec.wrong += 1;
        self.rec.first_wrong.get_or_insert(e.clone());
        e
    }

    fn settle(&mut self, c: usize, p: Pending, reply: &Reply, now: u64, record_latency: bool) {
        let conn = &mut self.conns[c];
        let from = conn.last_reply_ns.max(p.sent_ns);
        if now.saturating_sub(from) >= GAP_NS {
            self.rec.gaps.push(Gap {
                conn: c,
                from_ns: from,
                to_ns: now,
            });
        }
        conn.last_reply_ns = now;
        let stream = &mut self.streams[c];
        let verdict = match p.op {
            Op::Get { key, .. } => self.oracle.check_unsure(&p.op, reply, stream.doubt(key)),
            _ => self.oracle.check(&p.op, reply),
        };
        if let Op::Set { key, version } = p.op {
            match verdict {
                Verdict::Right => stream.set_acked(key),
                Verdict::Failed(_) => stream.set_unsure(key, version),
                Verdict::Wrong(_) => {}
            }
        }
        match verdict {
            Verdict::Right => self.rec.right += 1,
            Verdict::Failed(e) => {
                if self.rec.failed < 5 {
                    eprintln!("perfbench: error reply: {e}");
                }
                self.rec.failed += 1;
            }
            Verdict::Wrong(e) => {
                self.rec.wrong += 1;
                self.rec.first_wrong.get_or_insert(e);
            }
        }
        let name = match p.op {
            Op::Get {
                expect: Some(_), ..
            } => Name::RespGet,
            Op::Get { expect: None, .. } => Name::RespGetAbsent,
            Op::Set { .. } => Name::RespSet,
            Op::Compact => Name::RespCompact,
        };
        if self.trace_requests || name == Name::RespCompact {
            self.trace.push(p.id, ROOT, name, p.sent_ns, now);
        }
        let lat = now.saturating_sub(p.sched_ns);
        match p.op {
            Op::Get { .. } if record_latency => self.rec.reads.push(lat),
            Op::Set { .. } if record_latency => self.rec.writes.push(lat),
            Op::Compact => self.rec.compacts.push(CompactObs {
                conn: c,
                sent_ns: p.sent_ns,
                reply_ns: now,
                reclaimed: compact_reclaimed(reply).unwrap_or(0),
            }),
            _ => {}
        }
    }

    fn watch(&mut self, now: u64) {
        if let Some(t) = &self.table {
            let n = t.resize_count();
            if n > self.resizes_seen {
                self.resizes_seen = n;
                self.rec.resize_seen_ns.push(now);
            }
        }
    }

    fn check_timeouts(&self, now: u64) -> Result<(), String> {
        for conn in &self.conns {
            if let Some(p) = conn.pending.front() {
                if now.saturating_sub(conn.last_reply_ns.max(p.sent_ns))
                    > REPLY_TIMEOUT.as_nanos() as u64
                {
                    return Err(format!("no reply for {REPLY_TIMEOUT:?}"));
                }
            }
        }
        Ok(())
    }

    /// Runs one phase, then collects the replies still owed. A timeout,
    /// a closed connection or an unparsable reply stream ends the phase
    /// and stops the client ([`broken`](Self::broken)): every request
    /// still owed a reply counts as failed, and the phase returns what it
    /// measured until then. A stopped client runs no more phases.
    pub fn run(&mut self, load: Load, record_latency: bool) -> Phase {
        if self.broken.is_some() {
            return Phase::default();
        }
        let phase = self.run_window(load, record_latency);
        if self.broken.is_none() {
            if let Err(e) = self.drain(record_latency) {
                self.broken = Some(e);
            }
        }
        if self.broken.is_some() {
            self.abandon();
        }
        phase
    }

    /// Counts every request still owed a reply as failed. An owed SET may
    /// or may not have been applied, so its key's model admits both.
    fn abandon(&mut self) {
        for (conn, stream) in self.conns.iter_mut().zip(&mut self.streams) {
            for p in conn.pending.drain(..) {
                if let Op::Set { key, version } = p.op {
                    stream.set_unsure(key, version);
                }
                self.rec.failed += 1;
            }
        }
    }

    fn settled(&self) -> u64 {
        self.rec.right + self.rec.failed + self.rec.wrong
    }

    fn run_window(&mut self, load: Load, record_latency: bool) -> Phase {
        let t0 = Instant::now();
        let t0_ns = self.trace.ns(t0);
        let settled0 = self.settled();
        let (mut k, mut sent) = (0u64, 0u64);
        let mut next_check = t0;
        loop {
            let now_i = Instant::now();
            let now = self.trace.ns(now_i);
            let elapsed = now - t0_ns;
            match load {
                Load::Closed { depth, ops } => {
                    if sent == ops && self.conns.iter().all(|c| c.pending.is_empty()) {
                        break;
                    }
                    for c in 0..self.conns.len() {
                        if !self.conns[c].pending.is_empty() {
                            continue;
                        }
                        for _ in 0..depth {
                            if sent == ops {
                                break;
                            }
                            self.enqueue(c, now, now);
                            sent += 1;
                        }
                    }
                }
                Load::Open {
                    rate,
                    secs,
                    max_outstanding,
                } => {
                    if elapsed as f64 >= secs * 1e9 {
                        break;
                    }
                    loop {
                        let due = (k as f64 * 1e9 / rate) as u64;
                        let c = k as usize % self.conns.len();
                        if due > elapsed || self.conns[c].pending.len() >= max_outstanding {
                            break;
                        }
                        self.enqueue(c, t0_ns + due, now);
                        self.rec.late_ns.push(elapsed - due);
                        k += 1;
                        sent += 1;
                    }
                }
            }
            let settled = match self.flush().and_then(|()| self.pump(record_latency)) {
                Ok(n) => n,
                Err(e) => {
                    self.broken = Some(e);
                    break;
                }
            };
            if settled == 0 {
                // Nothing arrived. The open loop sleeps on the sockets
                // until shortly before its next send is due; the closed
                // loop only yields (a sleeping client would wake too late
                // to keep the pipelines full).
                let wait = match load {
                    Load::Closed { .. } => Duration::ZERO,
                    Load::Open { rate, .. } => {
                        let due = (k as f64 * 1e9 / rate) as u64;
                        Duration::from_nanos(
                            due.saturating_sub(self.trace.ns(Instant::now()) - t0_ns),
                        )
                        .saturating_sub(WAKE_EARLY)
                        .min(IDLE_MAX)
                    }
                };
                self.idle(wait);
            }
            self.watch(now);
            if now_i >= next_check {
                if let Err(e) = self.check_timeouts(now) {
                    self.broken = Some(e);
                    break;
                }
                next_check = now_i + CHECK_EVERY;
            }
        }
        let scheduled = match load {
            Load::Open { rate, secs, .. } => (secs * rate).ceil() as u64,
            Load::Closed { ops, .. } => ops,
        };
        Phase {
            secs: t0.elapsed().as_secs_f64(),
            replies_in_window: self.settled() - settled0,
            scheduled,
            sent,
        }
    }

    fn drain(&mut self, record_latency: bool) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.conns.iter().any(|c| !c.pending.is_empty()) {
            if Instant::now() >= deadline {
                return Err(format!("replies still owed after {DRAIN_TIMEOUT:?}"));
            }
            self.flush()?;
            if self.pump(record_latency)? == 0 {
                self.idle(IDLE_MAX);
            }
            let now = self.now_ns();
            self.watch(now);
        }
        Ok(())
    }

    /// Waits up to `max` for any connection to become readable (or
    /// writable while it has unsent bytes). Waits too short for a timer
    /// yield the CPU instead.
    fn idle(&self, max: Duration) {
        if max.is_zero() {
            std::thread::yield_now();
            return;
        }
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::AsRawFd;
            let mut fds: Vec<sys::PollFd> = self
                .conns
                .iter()
                .map(|c| sys::PollFd {
                    fd: c.sock.as_raw_fd(),
                    events: sys::POLLIN
                        | if c.written < c.out.len() {
                            sys::POLLOUT
                        } else {
                            0
                        },
                    revents: 0,
                })
                .collect();
            sys::ppoll(&mut fds, max);
        }
        #[cfg(not(target_os = "linux"))]
        std::thread::yield_now();
    }

    /// Ends the client (closing its sockets) and hands back what it
    /// observed, its streams and its trace.
    pub fn finish(self) -> (Record, Vec<Stream>, Trace) {
        (self.rec, self.streams, self.trace)
    }
}

/// Sends one `PING` on a fresh connection and waits for `+PONG`.
pub fn ping(addr: SocketAddr) -> std::io::Result<()> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    s.write_all(b"*1\r\n$4\r\nPING\r\n")?;
    let mut buf = [0u8; 7];
    s.read_exact(&mut buf)?;
    if &buf != b"+PONG\r\n" {
        return Err(std::io::Error::other("PING was not answered with +PONG"));
    }
    Ok(())
}

/// `ppoll(2)` and the timer-slack knob, declared directly (no libc crate).
#[cfg(target_os = "linux")]
mod sys {
    use std::time::Duration;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    const PR_SET_TIMERSLACK: i32 = 29;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        #[link_name = "ppoll"]
        fn ppoll_raw(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const TimeSpec,
            sigmask: *const u8,
        ) -> i32;
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }

    /// Blocks until a descriptor in `fds` is ready or `timeout` passes.
    /// Errors (EINTR) just end the wait early: callers re-check anyway.
    pub fn ppoll(fds: &mut [PollFd], timeout: Duration) {
        thread_local! {
            // Default slack (50 µs) would make every short wait overshoot.
            static SLACK: () = {
                // SAFETY: PR_SET_TIMERSLACK takes one integer argument and
                // only changes this thread's timer slack.
                unsafe { prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0) };
            };
        }
        SLACK.with(|_| {});
        let ts = TimeSpec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: timeout.subsec_nanos() as i64,
        };
        // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`
        // structs whose length is passed as `nfds`; `ts` outlives the call;
        // a null sigmask leaves the signal mask unchanged.
        unsafe { ppoll_raw(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    }
}
