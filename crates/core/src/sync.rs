//! Synchronous write mechanism (paper §3.4, figure 7).
//!
//! Every write operation is logically executed by **two** threads: the
//! foreground thread writes the non-volatile table and the OCF, while a
//! background thread writes the hot table. The two communicate through a
//! `sync_write_signal`: the foreground thread initializes it to
//! *incomplete*, hands the hot-table work to the background pool, does its
//! NVM work, and then waits for the signal to read *completion* before
//! returning. Because the NVM write (flushes, fences, media latency)
//! dominates, the DRAM hot-table write is fully hidden behind it.
//!
//! The pool owns `n` long-lived workers fed by one shared job queue — the
//! paper's "the two threads will be returned to the thread pool". Each
//! foreground thread reuses one signal allocation across operations (it
//! can only have one write in flight).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::TryRecvError;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

use hdnh_common::rng::XorShift64Star;
use hdnh_common::{Key, Record};
use hdnh_obs as obs;

use crate::hot::HotTable;

/// The hot-table side of one write operation.
pub enum HotOp {
    /// Insert or in-place update of a record.
    Put {
        /// The record to cache.
        rec: Record,
        /// Primary key hash.
        h1: u64,
        /// Secondary key hash.
        h2: u64,
        /// Key fingerprint.
        fp: u8,
    },
    /// Removal of a key.
    Delete {
        /// The key to evict.
        key: Key,
        /// Primary key hash.
        h1: u64,
        /// Secondary key hash.
        h2: u64,
        /// Key fingerprint.
        fp: u8,
    },
}

/// The `sync_write_signal`: 0 = incomplete, 1 = completion.
pub struct SyncSignal(AtomicU32);

impl SyncSignal {
    fn new() -> Arc<Self> {
        Arc::new(SyncSignal(AtomicU32::new(1)))
    }

    #[inline]
    fn arm(&self) {
        self.0.store(0, Ordering::Release);
    }

    #[inline]
    fn complete(&self) {
        self.0.store(1, Ordering::Release);
    }

    /// Foreground-side wait. The hot-table write is a few hundred ns of
    /// DRAM work, so spin first — parking would cost more than the wait —
    /// but yield once the spin budget is exhausted so an oversubscribed
    /// machine still schedules the background worker.
    #[inline]
    fn wait(&self) {
        if self.0.load(Ordering::Acquire) == 1 {
            // The DRAM half finished strictly inside the NVM half's shadow:
            // the overlap the paper's figure 7 argues for.
            obs::count(obs::Counter::SyncOverlapWin);
            return;
        }
        obs::count(obs::Counter::SyncOverlapWait);
        let mut spins = 0u32;
        while self.0.load(Ordering::Acquire) == 0 {
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

struct Job {
    op: HotOp,
    hot: Arc<HotTable>,
    signal: Arc<SyncSignal>,
}

/// The pool's job queue: one FIFO that every worker pops from, so a job
/// goes to whichever worker is on a CPU. A channel per worker would pin
/// each job to one worker that may be descheduled; with more spinning
/// threads than cores (one writer and two workers on two cores) that made
/// background writes up to 20× slower.
#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    /// Workers blocked in [`JobQueue::pop`]. `push` signals only when some
    /// are, so a write stream served by spinning workers makes no syscall.
    parked: usize,
    /// Set when the pool drops: workers drain the queue and exit.
    closed: bool,
}

impl JobQueue {
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        // Nothing panics while holding the lock, so the state stays whole.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, job: Job) {
        let mut s = self.lock();
        s.jobs.push_back(job);
        if s.parked > 0 {
            self.ready.notify_one();
        }
    }

    /// Takes a job without blocking. A contended lock reads as empty, so a
    /// spinning worker never parks on it.
    fn try_pop(&self) -> Result<Job, TryRecvError> {
        match self.state.try_lock() {
            Ok(mut s) => Self::take(&mut s),
            Err(TryLockError::Poisoned(e)) => Self::take(&mut e.into_inner()),
            Err(TryLockError::WouldBlock) => Err(TryRecvError::Empty),
        }
    }

    /// Parks until a push or the pool drops, then takes a job if one is left
    /// (another worker may have taken it first: `Empty`).
    fn pop(&self) -> Result<Job, TryRecvError> {
        let mut s = self.lock();
        if s.jobs.is_empty() && !s.closed {
            s.parked += 1;
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
            s.parked -= 1;
        }
        Self::take(&mut s)
    }

    fn take(s: &mut QueueState) -> Result<Job, TryRecvError> {
        match s.jobs.pop_front() {
            Some(job) => Ok(job),
            None if !s.closed => Err(TryRecvError::Empty),
            None => Err(TryRecvError::Disconnected),
        }
    }
}

/// The background writer pool.
pub struct SyncWriter {
    queue: Arc<JobQueue>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

thread_local! {
    /// One reusable signal per foreground thread (one write in flight at a
    /// time per thread, so reuse is safe).
    static SIGNAL: RefCell<Option<Arc<SyncSignal>>> = const { RefCell::new(None) };
}

impl SyncWriter {
    /// Spawns `n_workers` background threads.
    pub fn new(n_workers: usize) -> Self {
        assert!(n_workers >= 1);
        let queue = Arc::new(JobQueue::default());
        let workers = (0..n_workers)
            .map(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("hdnh-bg-{i}"))
                    .spawn(move || {
                        let mut rng = XorShift64Star::new(0xB6_0000 + i as u64);
                        let mut run = |job: Job| {
                            match job.op {
                                HotOp::Put { rec, h1, h2, fp } => {
                                    job.hot.put(&rec, h1, h2, fp, &mut rng);
                                }
                                HotOp::Delete { key, h1, h2, fp } => {
                                    job.hot.delete(&key, h1, h2, fp);
                                }
                            }
                            job.signal.complete();
                        };
                        // Spin-poll while the write stream is hot (a parked
                        // worker would add a futex wakeup to every write's
                        // critical path); park only after going idle.
                        'outer: loop {
                            for _ in 0..4096 {
                                match queue.try_pop() {
                                    Ok(job) => {
                                        run(job);
                                        continue 'outer;
                                    }
                                    Err(TryRecvError::Empty) => std::hint::spin_loop(),
                                    Err(TryRecvError::Disconnected) => break 'outer,
                                }
                            }
                            match queue.pop() {
                                Ok(job) => run(job),
                                Err(TryRecvError::Empty) => {}
                                Err(TryRecvError::Disconnected) => break,
                            }
                        }
                    })
                    .expect("spawn background writer")
            })
            .collect();
        SyncWriter { queue, workers }
    }

    /// Dispatches the hot-table half of a write and returns a completion
    /// handle the foreground thread must [`wait`](SyncHandle::wait) on
    /// before acknowledging the operation.
    pub fn dispatch(&self, hot: &Arc<HotTable>, op: HotOp) -> SyncHandle {
        let signal = SIGNAL.with(|s| {
            s.borrow_mut()
                .get_or_insert_with(SyncSignal::new)
                .clone()
        });
        signal.arm();
        self.queue.push(Job {
            op,
            hot: Arc::clone(hot),
            signal: Arc::clone(&signal),
        });
        SyncHandle { signal }
    }
}

impl Drop for SyncWriter {
    fn drop(&mut self) {
        // Workers drain the queue and exit.
        self.queue.lock().closed = true;
        self.queue.ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Foreground handle for one in-flight synchronous write.
pub struct SyncHandle {
    signal: Arc<SyncSignal>,
}

impl SyncHandle {
    /// Blocks (spins) until the background half completed.
    #[inline]
    pub fn wait(self) {
        self.signal.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::HotPolicy;
    use hdnh_common::hash::KeyHashes;
    use hdnh_common::Value;

    #[test]
    fn dispatch_applies_put() {
        let pool = SyncWriter::new(2);
        let hot = Arc::new(HotTable::new(64, 4, HotPolicy::Rafl));
        let key = Key::from_u64(1);
        let h = KeyHashes::of(&key);
        let handle = pool.dispatch(
            &hot,
            HotOp::Put {
                rec: Record::new(key, Value::from_u64(11)),
                h1: h.h1,
                h2: h.h2,
                fp: h.fp,
            },
        );
        handle.wait();
        assert_eq!(hot.search(&key, h.h1, h.h2, h.fp).unwrap().as_u64(), 11);
    }

    #[test]
    fn dispatch_applies_delete() {
        let pool = SyncWriter::new(1);
        let hot = Arc::new(HotTable::new(64, 4, HotPolicy::Rafl));
        let key = Key::from_u64(2);
        let h = KeyHashes::of(&key);
        pool.dispatch(
            &hot,
            HotOp::Put {
                rec: Record::new(key, Value::from_u64(5)),
                h1: h.h1,
                h2: h.h2,
                fp: h.fp,
            },
        )
        .wait();
        pool.dispatch(
            &hot,
            HotOp::Delete {
                key,
                h1: h.h1,
                h2: h.h2,
                fp: h.fp,
            },
        )
        .wait();
        assert!(hot.search(&key, h.h1, h.h2, h.fp).is_none());
    }

    #[test]
    fn wait_returns_only_after_completion() {
        // The signal semantics themselves: arm → not done; complete → done.
        let s = SyncSignal::new();
        s.arm();
        assert_eq!(s.0.load(Ordering::Acquire), 0);
        s.complete();
        s.wait(); // must not hang
    }

    #[test]
    fn many_threads_many_ops() {
        let pool = Arc::new(SyncWriter::new(4));
        let hot = Arc::new(HotTable::new(4096, 4, HotPolicy::Rafl));
        let mut handles = Vec::new();
        for tid in 0..4u64 {
            let pool = Arc::clone(&pool);
            let hot = Arc::clone(&hot);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    let key = Key::from_u64(tid * 1_000_000 + i);
                    let h = KeyHashes::of(&key);
                    pool.dispatch(
                        &hot,
                        HotOp::Put {
                            rec: Record::new(key, Value::from_u64(i)),
                            h1: h.h1,
                            h2: h.h2,
                            fp: h.fp,
                        },
                    )
                    .wait();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!hot.is_empty());
    }

    #[test]
    fn drop_joins_workers() {
        let pool = SyncWriter::new(3);
        drop(pool); // must not hang
    }
}
