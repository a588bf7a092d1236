//! Reply checking against the streams' key model.
//!
//! A reply is one of three things: right, a failure the service admitted
//! to (an error reply — counted in `failed`), or wrong (a value, nil or
//! status the model rules out — the run fails with a non-zero exit).

use hdnh_server::Reply;

use crate::workload::{value_matches, Op, ValueSize};

/// The verdict on one reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The reply is what the model expects.
    Right,
    /// The server answered with an error reply.
    Failed(String),
    /// The reply contradicts the model.
    Wrong(String),
}

/// Checks replies for one run's value policy and seed.
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    /// Value-size policy of the workload.
    pub value: ValueSize,
    /// Run seed (values are a function of seed, key and version).
    pub seed: u64,
}

impl Oracle {
    /// Judges `reply` as the answer to `op`.
    pub fn check(&self, op: &Op, reply: &Reply) -> Verdict {
        if let Reply::Error(e) = reply {
            return Verdict::Failed(e.clone());
        }
        let right = match (*op, reply) {
            (
                Op::Get {
                    key,
                    expect: Some(v),
                },
                Reply::Bulk(b),
            ) => value_matches(b, self.value, self.seed, key, v),
            (Op::Get { expect: None, .. }, Reply::Nil) => true,
            (Op::Set { .. }, Reply::Simple(s)) => s == "OK",
            (Op::Compact, Reply::Bulk(b)) => b.starts_with(b"victims:"),
            _ => false,
        };
        if right {
            Verdict::Right
        } else {
            Verdict::Wrong(format!("{op:?} answered {}", describe(reply)))
        }
    }

    /// Like [`check`](Self::check), but a GET may also carry any of
    /// `alts`: states a failed or unanswered SET may have left the key in
    /// (`None`: absent).
    pub fn check_unsure(&self, op: &Op, reply: &Reply, alts: &[Option<u32>]) -> Verdict {
        let verdict = self.check(op, reply);
        match (*op, &verdict) {
            (Op::Get { key, .. }, Verdict::Wrong(_))
                if alts.iter().any(|&expect| {
                    self.check(&Op::Get { key, expect }, reply) == Verdict::Right
                }) =>
            {
                Verdict::Right
            }
            _ => verdict,
        }
    }

    /// Checks one in-process read (the end-of-run sweep).
    pub fn check_value(&self, key: u64, expect: Option<u32>, got: Option<&[u8]>) -> Verdict {
        let reply = match got {
            Some(b) => Reply::Bulk(b.to_vec()),
            None => Reply::Nil,
        };
        self.check(&Op::Get { key, expect }, &reply)
    }
}

/// `bytes_reclaimed` from a `COMPACT` reply.
pub fn compact_reclaimed(reply: &Reply) -> Option<u64> {
    let Reply::Bulk(b) = reply else { return None };
    let text = std::str::from_utf8(b).ok()?;
    text.split_whitespace()
        .find_map(|kv| kv.strip_prefix("bytes_reclaimed:"))
        .and_then(|n| n.parse().ok())
}

fn describe(reply: &Reply) -> String {
    match reply {
        Reply::Bulk(b) if b.len() > 32 => format!("a {}-byte bulk string", b.len()),
        other => format!("{other:?}"),
    }
}
