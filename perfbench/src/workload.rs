//! The three served workloads and their deterministic request streams.
//!
//! Each client connection owns one [`Stream`]: a seeded generator over a
//! key partition no other connection touches (global key id
//! `local * CONNS + conn`). Because a connection's replies come back in
//! request order and nobody else writes its keys, the stream's own model
//! of per-key versions is the exact expected state at every GET — that is
//! what the [`crate::oracle`] checks replies against.

use std::collections::HashMap;

use hdnh_common::rng::{mix64, XorShift64Star};
use hdnh_ycsb::{KeyDist, ScrambledZipfian};

/// Client connections (and key partitions) per run.
pub const CONNS: usize = 2;

/// Keys at or above this id are never written: GETs of them must be nil.
pub const ABSENT_BASE: u64 = 1 << 48;

/// Bytes a key costs the user: the server parses keys as `u64`.
pub const KEY_BYTES: u64 = 8;

/// Value-size policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueSize {
    /// Every value is 8 bytes (stored inline in the slot).
    Inline8,
    /// netbench's `mix`: 80 % 8 B, 15 % 128 B, 4 % 4 KiB, 1 % 64 KiB.
    Mix,
}

/// How existing keys are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyChoice {
    /// Scrambled zipfian, θ = 0.99, over the preloaded keys.
    Zipf,
    /// Uniform over every key that exists (preloaded and inserted).
    Uniform,
}

/// One workload's fixed parameters.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Keys loaded before the pool is reopened (split over partitions).
    pub preload: u64,
    /// Table capacity the pool is formatted for.
    pub capacity: usize,
    /// Value sizes of preloaded and written values.
    pub value: ValueSize,
    /// Key choice for GETs and updates of existing keys.
    pub keys: KeyChoice,
    /// Percent of ops that GET an existing key.
    pub get_pct: u32,
    /// Percent of ops that SET a new key.
    pub insert_pct: u32,
    /// Percent of ops that GET a key that was never written.
    pub absent_pct: u32,
    /// A `COMPACT` follows every this many SETs of one stream (0 = never).
    pub compact_every_sets: u64,
    /// Closed-loop batch size per connection (requests in flight).
    pub depth: usize,
    /// Requests in the closed-loop phase of a 10-second run (scaled with
    /// `--seconds`): a fixed amount of work, so COMPACTs and resizes land
    /// at the same points of the phase on every run.
    pub closed_ops: u64,
    /// Operations replayed in-process by the traced run.
    pub replay_ops: usize,
}

impl Spec {
    /// The named workload, or `None`.
    pub fn named(name: &str) -> Option<Spec> {
        Some(match name {
            "skewed-read" => Spec {
                name: "skewed-read",
                preload: 1_000_000,
                capacity: 1_000_000,
                value: ValueSize::Inline8,
                keys: KeyChoice::Zipf,
                get_pct: 95,
                insert_pct: 0,
                absent_pct: 0,
                compact_every_sets: 0,
                depth: 128,
                closed_ops: 13_500_000,
                replay_ops: 200_000,
            },
            "uniform-grow" => Spec {
                name: "uniform-grow",
                preload: 1_000_000,
                capacity: 1_000_000,
                value: ValueSize::Inline8,
                keys: KeyChoice::Uniform,
                get_pct: 40,
                insert_pct: 40,
                absent_pct: 20,
                compact_every_sets: 0,
                depth: 128,
                closed_ops: 2_500_000,
                replay_ops: 200_000,
            },
            "spill-churn" => Spec {
                name: "spill-churn",
                preload: 100_000,
                capacity: 100_000,
                value: ValueSize::Mix,
                keys: KeyChoice::Zipf,
                get_pct: 50,
                insert_pct: 0,
                absent_pct: 0,
                compact_every_sets: 100_000,
                depth: 128,
                closed_ops: 500_000,
                replay_ops: 100_000,
            },
            _ => return None,
        })
    }

    /// Every workload name, in `BENCHMARK.json` order.
    pub const NAMES: [&'static str; 3] = ["skewed-read", "uniform-grow", "spill-churn"];

    /// Preloaded keys per partition.
    pub fn preload_per_conn(&self) -> u64 {
        self.preload / CONNS as u64
    }
}

/// One generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `GET key`; `expect` is the version the reply must carry (`None`:
    /// the reply must be nil).
    Get {
        /// Global key id.
        key: u64,
        /// Expected version, or `None` for an absent key.
        expect: Option<u32>,
    },
    /// `SET key value(key, version)`.
    Set {
        /// Global key id.
        key: u64,
        /// Version written (1 + the previous one; 0 for a new key).
        version: u32,
    },
    /// `COMPACT` (value-log garbage collection).
    Compact,
}

/// Length of the value stored for `(key, version)`.
pub fn value_len(vs: ValueSize, seed: u64, key: u64, version: u32) -> usize {
    match vs {
        ValueSize::Inline8 => 8,
        ValueSize::Mix => {
            match mix64(seed ^ key.rotate_left(20) ^ ((version as u64) << 44)) % 100 {
                0..=79 => 8,
                80..=94 => 128,
                95..=98 => 4096,
                _ => 64 * 1024,
            }
        }
    }
}

/// Byte `i` of the value for `(key, version)`: position-dependent, so a
/// truncated, shifted or stale value never matches.
#[inline]
fn value_byte(h: u64, i: usize) -> u8 {
    ((h >> ((i % 8) * 8)) as u8) ^ ((i / 8) as u8)
}

fn value_hash(seed: u64, key: u64, version: u32) -> u64 {
    mix64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key ^ ((version as u64) << 40))
}

/// Appends the value for `(key, version)` to `out`.
pub fn write_value(out: &mut Vec<u8>, vs: ValueSize, seed: u64, key: u64, version: u32) {
    let len = value_len(vs, seed, key, version);
    let h = value_hash(seed, key, version);
    out.extend((0..len).map(|i| value_byte(h, i)));
}

/// Whether `bytes` is exactly the value for `(key, version)`.
pub fn value_matches(bytes: &[u8], vs: ValueSize, seed: u64, key: u64, version: u32) -> bool {
    let h = value_hash(seed, key, version);
    bytes.len() == value_len(vs, seed, key, version)
        && bytes
            .iter()
            .enumerate()
            .all(|(i, &b)| b == value_byte(h, i))
}

/// A connection's request generator plus its model of the partition.
pub struct Stream {
    spec: Spec,
    seed: u64,
    conn: u64,
    rng: XorShift64Star,
    zipf: Option<ScrambledZipfian>,
    /// Version per local key index; `len()` keys exist.
    versions: Vec<u32>,
    /// Key plus value bytes of every live key in the partition.
    live_bytes: u64,
    sets: u64,
    compact_due: bool,
    /// States a key may hold besides its modelled version (`None`:
    /// absent), because a SET of it failed or went unanswered and may or
    /// may not have been applied. The key's next acknowledged SET clears
    /// them.
    doubt: HashMap<u64, Vec<Option<u32>>>,
}

impl Stream {
    /// The stream of connection `conn` for `seed`, positioned right after
    /// the preload.
    pub fn new(spec: &Spec, seed: u64, conn: usize) -> Stream {
        let n = spec.preload_per_conn();
        let zipf = (spec.keys == KeyChoice::Zipf).then(|| ScrambledZipfian::new(n, 0.99));
        let mut s = Stream {
            spec: spec.clone(),
            seed,
            conn: conn as u64,
            rng: XorShift64Star::new(seed ^ (0xC0FF_EE00 + conn as u64)),
            zipf,
            versions: vec![0; n as usize],
            live_bytes: 0,
            sets: 0,
            compact_due: false,
            doubt: HashMap::new(),
        };
        s.live_bytes = (0..n).map(|i| s.bytes_of(s.key_of(i), 0)).sum();
        s
    }

    fn key_of(&self, local: u64) -> u64 {
        local * CONNS as u64 + self.conn
    }

    fn bytes_of(&self, key: u64, version: u32) -> u64 {
        KEY_BYTES + value_len(self.spec.value, self.seed, key, version) as u64
    }

    fn pick_existing(&mut self) -> u64 {
        match &mut self.zipf {
            Some(z) => z.next_id(&mut self.rng),
            None => {
                let n = self.versions.len() as u64;
                ((self.rng.next_u64() as u128 * n as u128) >> 64) as u64
            }
        }
    }

    /// The next request, applying its effect to the model.
    pub fn next_op(&mut self) -> Op {
        if std::mem::take(&mut self.compact_due) {
            return Op::Compact;
        }
        let r = self.rng.next_below(100);
        let spec = &self.spec;
        let op = if r < spec.get_pct {
            let local = self.pick_existing();
            Op::Get {
                key: self.key_of(local),
                expect: Some(self.versions[local as usize]),
            }
        } else if r < spec.get_pct + spec.absent_pct {
            let key = ABSENT_BASE + (self.rng.next_u64() >> 20) * CONNS as u64 + self.conn;
            Op::Get { key, expect: None }
        } else if r < spec.get_pct + spec.absent_pct + spec.insert_pct {
            let local = self.versions.len() as u64;
            self.versions.push(0);
            let key = self.key_of(local);
            self.live_bytes += self.bytes_of(key, 0);
            Op::Set { key, version: 0 }
        } else {
            let local = self.pick_existing();
            let key = self.key_of(local);
            let old = self.versions[local as usize];
            let version = old.wrapping_add(1);
            self.versions[local as usize] = version;
            self.live_bytes =
                self.live_bytes - self.bytes_of(key, old) + self.bytes_of(key, version);
            Op::Set { key, version }
        };
        if let Op::Set { .. } = op {
            self.sets += 1;
            let every = self.spec.compact_every_sets;
            self.compact_due = every > 0 && self.sets.is_multiple_of(every);
        }
        op
    }

    /// Every live key of the partition with its current version.
    pub fn live(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.versions
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.key_of(i as u64), v))
    }

    /// Records that the SET of `key` to `version` failed or went
    /// unanswered: the key may hold the state before it (absent, for an
    /// insert) as well as `version`.
    pub fn set_unsure(&mut self, key: u64, version: u32) {
        // Version 0 is only ever written by the insert of a new key.
        let before = version.checked_sub(1);
        self.doubt
            .entry(key)
            .or_default()
            .extend([before, Some(version)]);
    }

    /// Records that a SET of `key` was acknowledged: its state is the
    /// modelled one again.
    pub fn set_acked(&mut self, key: u64) {
        if !self.doubt.is_empty() {
            self.doubt.remove(&key);
        }
    }

    /// The states `key` may hold besides its modelled version.
    pub fn doubt(&self, key: u64) -> &[Option<u32>] {
        self.doubt.get(&key).map_or(&[], Vec::as_slice)
    }

    /// Modelled keys that may be absent (their insert failed or went
    /// unanswered).
    pub fn maybe_absent(&self) -> usize {
        self.doubt
            .values()
            .filter(|alts| alts.contains(&None))
            .count()
    }

    /// Key plus value bytes of every live key in the partition.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// The key a never-written probe uses for index `i` (the end-of-run
    /// sweep checks a sample of them).
    pub fn absent_key(&self, i: u64) -> u64 {
        ABSENT_BASE + i * CONNS as u64 + self.conn
    }

    /// The workload this stream generates.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The run seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

/// Appends the RESP request for `op` to `out`; `scratch` is reused for
/// the value bytes.
pub fn encode_request(out: &mut Vec<u8>, scratch: &mut Vec<u8>, op: &Op, vs: ValueSize, seed: u64) {
    use hdnh_server::resp::{enc_array_header, enc_bulk};
    match *op {
        Op::Get { key, .. } => {
            enc_array_header(out, 2);
            enc_bulk(out, b"GET");
            enc_bulk(out, key.to_string().as_bytes());
        }
        Op::Set { key, version, .. } => {
            enc_array_header(out, 3);
            enc_bulk(out, b"SET");
            enc_bulk(out, key.to_string().as_bytes());
            scratch.clear();
            write_value(scratch, vs, seed, key, version);
            enc_bulk(out, scratch);
        }
        Op::Compact => {
            enc_array_header(out, 1);
            enc_bulk(out, b"COMPACT");
        }
    }
}
