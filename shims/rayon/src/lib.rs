//! Offline stand-in for `rayon` covering the API subset this workspace
//! uses: `par_iter_mut` / `par_chunks_mut` on slices followed by
//! `enumerate` / `map` / `for_each` / `for_each_init` / `collect`, plus
//! [`ThreadPoolBuilder`] / [`ThreadPool::install`] for callers that need
//! an explicit worker count (the sweep scheduler's `--jobs` knob).
//!
//! Work items are materialised eagerly and evaluated on `std::thread`
//! scoped workers pulling from an atomic cursor (dynamic scheduling, like
//! rayon's work stealing at this granularity). `map` is eager — it
//! evaluates in parallel immediately and yields an ordered result — which
//! is observationally equivalent for the pipelines here.
//!
//! A parallel iterator evaluated *on a worker* (nested inside another
//! parallel call) runs inline on that worker, in input order, as it would
//! on real rayon's fixed pool when every other worker is busy: nesting
//! never spawns threads beyond the outer call's workers.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::ParallelSliceMut;
}

thread_local! {
    /// Worker count installed by [`ThreadPool::install`] on this thread;
    /// `None` means "use all available parallelism".
    static POOL_THREADS: Cell<Option<usize>> = const { Cell::new(None) };
    /// Set on the worker threads this shim spawns; parallel iterators
    /// evaluated there run inline.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads a parallel call over `n` items uses: one (inline) on a worker,
/// else [`current_num_threads`] capped at `n`.
fn call_threads(n: usize) -> usize {
    if IN_WORKER.with(|w| w.get()) {
        1
    } else {
        current_num_threads().min(n)
    }
}

/// Builder mirroring `rayon::ThreadPoolBuilder` for the one option this
/// workspace needs: the worker-thread count.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with rayon's defaults (`num_threads == 0` = automatic).
    pub fn new() -> ThreadPoolBuilder {
        ThreadPoolBuilder::default()
    }

    /// Use exactly `n` worker threads; `0` restores the automatic choice.
    pub fn num_threads(mut self, n: usize) -> ThreadPoolBuilder {
        self.num_threads = n;
        self
    }

    /// Build the pool. Infallible here, but kept `Result` for signature
    /// compatibility with real rayon.
    pub fn build(self) -> Result<ThreadPool, std::convert::Infallible> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A "pool" that scopes a worker-count override: parallel iterators
/// evaluated inside [`ThreadPool::install`] use the pool's thread count.
/// (Workers are still scoped per call — this shim has no persistent
/// threads — which preserves rayon's observable ordering semantics.)
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The worker count parallel calls under [`install`](Self::install)
    /// will use (0 = automatic).
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `op` with this pool's thread count installed for any parallel
    /// iterators it evaluates on the calling thread.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let prev = POOL_THREADS.with(|c| {
            c.replace(match self.num_threads {
                0 => None,
                n => Some(n),
            })
        });
        // restore on unwind too, so a panicking op doesn't leak the
        // override into later work on this thread
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                let prev = self.0;
                POOL_THREADS.with(|c| c.set(prev));
            }
        }
        let _restore = Restore(prev);
        op()
    }
}

/// Worker threads a parallel iterator evaluated on this thread uses: the
/// installed pool's count, else all available parallelism (rayon's
/// free function of the same name).
pub fn current_num_threads() -> usize {
    POOL_THREADS.with(|c| c.get()).unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Evaluate `f` over `items` on scoped worker threads; results keep the
/// input order.
fn par_eval<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let threads = call_threads(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().unwrap().take().expect("item taken once");
                    let r = f(item);
                    *out[i].lock().unwrap() = Some(r);
                }
            });
        }
    });
    out.into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker wrote result"))
        .collect()
}

/// Run `f` over `items` on scoped worker threads, each worker threading
/// its own state from one `init()` call through every item it takes.
fn par_for_each_init<T: Send, S>(
    items: Vec<T>,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, T) + Sync,
) {
    let n = items.len();
    let threads = call_threads(n);
    if threads <= 1 {
        let mut state = init();
        for item in items {
            f(&mut state, item);
        }
        return;
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = slots[i].lock().unwrap().take().expect("item taken once");
                    f(&mut state, item);
                }
            });
        }
    });
}

/// A materialised parallel iterator.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Pair each item with its index.
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter {
            items: self.items.into_iter().enumerate().collect(),
        }
    }

    /// Parallel map (eager); result order matches input order.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_eval(self.items, f),
        }
    }

    /// Run `f` over every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_eval(self.items, f);
    }

    /// Run `op` over every item in parallel with per-worker scratch:
    /// `init` runs once per worker thread and its value is passed to
    /// every `op` call that worker makes (rayon's signature; real rayon
    /// may call `init` more than once per thread, this shim exactly
    /// once).
    pub fn for_each_init<S, INIT, OP>(self, init: INIT, op: OP)
    where
        INIT: Fn() -> S + Sync + Send,
        OP: Fn(&mut S, T) + Sync + Send,
    {
        par_for_each_init(self.items, init, op);
    }

    /// Collect the (already ordered) items.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }
}

/// Parallel mutable iteration over slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel counterpart of `iter_mut`.
    fn par_iter_mut(&mut self) -> ParIter<&mut T>;
    /// Parallel counterpart of `chunks_mut`.
    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParIter<&mut T> {
        ParIter {
            items: self.iter_mut().collect(),
        }
    }

    fn par_chunks_mut(&mut self, chunk: usize) -> ParIter<&mut [T]> {
        ParIter {
            items: self.chunks_mut(chunk).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn chunks_for_each_touches_everything() {
        let mut v = vec![0u64; 10_000];
        v.par_chunks_mut(17).enumerate().for_each(|(i, chunk)| {
            for x in chunk.iter_mut() {
                *x = i as u64 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[17], 2);
    }

    #[test]
    fn install_scopes_the_worker_count() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            let mut v = [0u8; 64];
            v.par_iter_mut().for_each(|x| {
                ids.lock().unwrap().insert(std::thread::current().id());
                *x = 1;
            });
        });
        // at most 2 worker threads touched the items
        assert!(ids.lock().unwrap().len() <= 2);
        // the override does not leak out of install()
        assert_eq!(crate::POOL_THREADS.with(|c| c.get()), None);
    }

    #[test]
    fn single_threaded_pool_matches_serial() {
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let mut v: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = pool.install(|| v.par_iter_mut().map(|x| *x * 3).collect());
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn for_each_init_runs_init_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1usize, 2, 3] {
            let pool = crate::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let inits = AtomicUsize::new(0);
            let mut v = vec![0u32; 500];
            pool.install(|| {
                v.par_chunks_mut(7).enumerate().for_each_init(
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        Vec::<u32>::new()
                    },
                    |seen, (i, chunk)| {
                        // per-worker state persists across the items a
                        // worker takes
                        seen.push(i as u32);
                        for x in chunk.iter_mut() {
                            *x = i as u32 + 1;
                        }
                    },
                );
            });
            assert!(v.iter().all(|&x| x > 0));
            let n = inits.load(Ordering::Relaxed);
            assert!(
                (1..=threads).contains(&n),
                "{n} inits for {threads} workers"
            );
        }
    }

    #[test]
    fn nested_calls_run_inline_on_the_pool_workers() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        let outer_ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let inner_ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let mut rows = vec![vec![0u32; 64]; 8];
        pool.install(|| {
            rows.par_iter_mut().enumerate().for_each(|(r, row)| {
                let me = std::thread::current().id();
                outer_ids.lock().unwrap().insert(me);
                let out: Vec<u32> = row
                    .par_iter_mut()
                    .enumerate()
                    .map(|(i, x)| {
                        // every nested item runs on the worker that
                        // called the nested iterator
                        assert_eq!(std::thread::current().id(), me);
                        inner_ids.lock().unwrap().insert(me);
                        *x = (r * 64 + i) as u32;
                        *x
                    })
                    .collect();
                assert_eq!(
                    out,
                    (0..64).map(|i| (r * 64 + i) as u32).collect::<Vec<_>>()
                );
            });
        });
        let outer = outer_ids.into_inner().unwrap();
        assert!(outer.len() <= 2, "{} outer workers", outer.len());
        assert!(inner_ids.into_inner().unwrap().is_subset(&outer));
        assert!(!outer.contains(&std::thread::current().id()));
        for (r, row) in rows.iter().enumerate() {
            assert!(row
                .iter()
                .enumerate()
                .all(|(i, &x)| x == (r * 64 + i) as u32));
        }

        // A top-level call still fans out to `current_num_threads()`
        // workers, and the caller is not marked as one.
        assert!(!crate::IN_WORKER.with(|w| w.get()));
        let threads = 3;
        let pool = crate::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let started = std::sync::Barrier::new(threads);
        let ids: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        pool.install(|| {
            assert_eq!(crate::current_num_threads(), threads);
            let mut v = vec![0u8; threads];
            v.par_iter_mut().for_each(|_| {
                // all `threads` items run at once, so each on its own worker
                started.wait();
                ids.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(ids.into_inner().unwrap().len(), threads);
    }

    #[test]
    fn map_collect_preserves_order() {
        let mut v: Vec<u32> = (0..1000).collect();
        let out: Vec<u64> = v
            .par_iter_mut()
            .enumerate()
            .map(|(i, x)| (*x as u64) * 2 + i as u64)
            .collect();
        for (i, &o) in out.iter().enumerate() {
            assert_eq!(o, i as u64 * 3);
        }
    }
}
