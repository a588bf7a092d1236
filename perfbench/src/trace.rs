//! In-memory span recorder for the traced run.
//!
//! A span is `(id, parent, name, start, end)`; spans of one request share
//! its id, and a child names its parent by index. Spans stay in memory and
//! are written out once, when the run ends, as tab-separated lines.
//! A span's *self time* is its duration minus the part of its interval
//! covered by its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const ROOT: u32 = u32::MAX;

/// The layer boundary a span covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Name {
    /// Served GET of a live key, send to reply.
    RespGet,
    /// Served GET of a never-written key, send to reply.
    RespGetAbsent,
    /// Served SET, send to reply.
    RespSet,
    /// Served COMPACT, send to reply.
    RespCompact,
    /// Replayed GET, decode to encode.
    OpGet,
    /// Replayed SET, decode to encode.
    OpSet,
    /// Replayed COMPACT, decode to encode.
    OpCompact,
    /// `Decoder::feed` + `next` + key parse.
    Decode,
    /// `Hdnh::get_bytes`.
    TableGet,
    /// `Hdnh::upsert_bytes`.
    TableUpsert,
    /// `Hdnh::compact`.
    TableCompact,
    /// Reply encoding.
    Encode,
    /// One set-up: `open_pool` to the first `PING` reply.
    Setup,
    /// `Hdnh::open_pool` inside a set-up.
    OpenPool,
    /// The reply gap in which a resize was observed.
    Resize,
}

impl Name {
    /// The name written to the trace file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::RespGet => "resp.get",
            Name::RespGetAbsent => "resp.get_absent",
            Name::RespSet => "resp.set",
            Name::RespCompact => "resp.compact",
            Name::OpGet => "op.get",
            Name::OpSet => "op.set",
            Name::OpCompact => "op.compact",
            Name::Decode => "resp.decode",
            Name::TableGet => "table.get_bytes",
            Name::TableUpsert => "table.upsert_bytes",
            Name::TableCompact => "table.compact",
            Name::Encode => "resp.encode",
            Name::Setup => "setup",
            Name::OpenPool => "setup.open_pool",
            Name::Resize => "resize.observed",
        }
    }
}

/// One recorded span; times are nanoseconds since the trace origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request (or event) id shared by a span and its children.
    pub id: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: u32,
    /// Layer boundary the span covers.
    pub name: Name,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

/// The span buffer. A disabled trace records nothing.
pub struct Trace {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A trace whose times count from `origin`.
    pub fn new(origin: Instant, on: bool) -> Trace {
        Trace {
            origin,
            on,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index ([`ROOT`] when off).
    pub fn push(&mut self, id: u64, parent: u32, name: Name, start_ns: u64, end_ns: u64) -> u32 {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Sets the end of span `idx` (opened with `push(.., start, start)`,
    /// so children can name it before it finishes).
    pub fn close(&mut self, idx: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = end_ns;
        }
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops every span recorded after the first `len`.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Self time of every span, by index.
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Writes `index parent id name start_ns end_ns self_ns` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_ns();
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# index\tparent\tid\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(&selfs).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{own}",
                s.id,
                s.name.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(c) = children.get_mut(s.parent as usize) {
            c.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered.min(dur)
        })
        .collect()
}
