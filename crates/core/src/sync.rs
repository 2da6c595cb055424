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
//! The pool owns `n` long-lived workers fed by a crossbeam MPMC channel —
//! the paper's "the two threads will be returned to the thread pool".
//! Each foreground thread reuses one signal allocation across operations
//! (it can only have one write in flight).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use hdnh_common::rng::XorShift64Star;
use hdnh_common::{Key, Record};
use hdnh_obs as obs;

use crate::hot::{HotBuckets, HotTable};

/// The hot-table side of one write operation. Carries the key's hot
/// buckets, which the foreground thread already computed for its prefetch.
pub enum HotOp {
    /// Insert or in-place update of a record.
    Put {
        /// The record to cache.
        rec: Record,
        /// The record's value bytes are a packed value-log pointer.
        spilled: bool,
        /// The key's bucket in each hot level.
        at: HotBuckets,
        /// Key fingerprint.
        fp: u8,
    },
    /// In-place update of a record only if the key is cached.
    Refresh {
        /// The record to cache.
        rec: Record,
        /// The record's value bytes are a packed value-log pointer.
        spilled: bool,
        /// The key's bucket in each hot level.
        at: HotBuckets,
        /// Key fingerprint.
        fp: u8,
    },
    /// Removal of a key.
    Delete {
        /// The key to evict.
        key: Key,
        /// The key's bucket in each hot level.
        at: HotBuckets,
        /// Key fingerprint.
        fp: u8,
    },
}

impl HotOp {
    /// Runs the operation on `hot`; `rng` picks RAFL's random victims.
    pub(crate) fn apply(self, hot: &HotTable, rng: &mut XorShift64Star) {
        match self {
            HotOp::Put { rec, spilled, at, fp } => hot.put_at(&rec, spilled, at, fp, rng),
            HotOp::Refresh { rec, spilled, at, fp } => {
                hot.refresh_at(&rec, spilled, at, fp);
            }
            HotOp::Delete { key, at, fp } => hot.delete_at(&key, at, fp),
        }
    }
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

/// The background writer pool.
pub struct SyncWriter {
    tx: Sender<Job>,
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
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let workers = (0..n_workers)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("hdnh-bg-{i}"))
                    .spawn(move || {
                        let mut rng = XorShift64Star::new(0xB6_0000 + i as u64);
                        let mut run = |job: Job| {
                            job.op.apply(&job.hot, &mut rng);
                            job.signal.complete();
                        };
                        // Spin-poll while the write stream is hot (a parked
                        // worker would add a futex wakeup to every write's
                        // critical path); park only after going idle.
                        'outer: loop {
                            for _ in 0..4096 {
                                match rx.try_recv() {
                                    Ok(job) => {
                                        run(job);
                                        continue 'outer;
                                    }
                                    Err(crossbeam::channel::TryRecvError::Empty) => {
                                        std::hint::spin_loop()
                                    }
                                    Err(crossbeam::channel::TryRecvError::Disconnected) => {
                                        break 'outer
                                    }
                                }
                            }
                            match rx.recv() {
                                Ok(job) => run(job),
                                Err(_) => break,
                            }
                        }
                    })
                    .expect("spawn background writer")
            })
            .collect();
        SyncWriter { tx, workers }
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
        self.tx
            .send(Job {
                op,
                hot: Arc::clone(hot),
                signal: Arc::clone(&signal),
            })
            .expect("background pool alive");
        SyncHandle { signal }
    }
}

impl Drop for SyncWriter {
    fn drop(&mut self) {
        // Disconnect the channel; workers drain and exit.
        let (tx, _) = unbounded();
        drop(std::mem::replace(&mut self.tx, tx));
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
                spilled: false,
                at: hot.buckets(h.h1, h.h2),
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
                spilled: false,
                at: hot.buckets(h.h1, h.h2),
                fp: h.fp,
            },
        )
        .wait();
        pool.dispatch(
            &hot,
            HotOp::Delete {
                key,
                at: hot.buckets(h.h1, h.h2),
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
                            spilled: false,
                            at: hot.buckets(h.h1, h.h2),
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
