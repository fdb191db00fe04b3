//! # Deterministic chunk-queue thread pool
//!
//! Every parallel path in the workspace routes through this module, so
//! thread-count policy lives in exactly one place and — more importantly
//! — so parallel execution can never leak into results or reports. The
//! contract is the one the conformance harness enforces end-to-end:
//!
//! > For any `items` and any pure `f`, `Pool::map_indexed(items, f)`
//! > returns exactly `items.into_iter().enumerate().map(f).collect()`,
//! > for every thread count, on every run.
//!
//! The mechanism is the PR-5 span-merge technique generalized: workers
//! pull `(index, item)` chunks from a shared queue (a chunk queue is
//! self-balancing — an idle worker "steals" the next chunk the moment it
//! finishes, which is the work-stealing behaviour we need without
//! per-worker deques), produce `(index, result)` pairs in whatever order
//! the scheduler dictates, and the merge step sorts by index. Execution
//! order affects only *when* a result is produced, never *where* it
//! lands. Observability survives the same way: callers put their
//! [`SpanNode`](https://docs.rs/wsyn-obs) subtrees *inside* the result
//! values and attach them after the merge, in input order, so a parallel
//! run renders the byte-identical report of the sequential run.
//!
//! Design constraints that shaped the implementation:
//!
//! * `wsyn-core` is dependency-free and `#![forbid(unsafe_code)]`, so
//!   there is no persistent pool of workers executing borrowed closures
//!   (that requires `unsafe` lifetime erasure, as `rayon` does).
//!   Instead each `map_indexed` call opens a [`std::thread::scope`];
//!   the min-work floor in [`Pool::threads_for`] keeps the spawn cost
//!   off every small instance, and the items parallelized here (whole
//!   DP solves, subtree shards, benchmark rows) dwarf a thread spawn.
//! * One `Mutex` guards the queue *and* the result pile; a `Condvar`
//!   signals completion so the calling thread — which participates as
//!   worker 0 — can begin merging as soon as the last result lands,
//!   before the helper threads are torn down.
//! * Worker panics must not deadlock the completion wait: a drop guard
//!   flips an `aborted` flag during unwind and wakes the caller, and
//!   the scope join then propagates the panic.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Minimum queue items per worker thread before a second thread is
/// worth spawning. Everything routed through the pool is coarse (a
/// whole DP solve, a subtree shard, a benchmark row), so the floor is
/// low; its job is to keep one- and two-item calls on the caller's
/// thread where they pay zero spawn or locking overhead.
pub const MIN_ITEMS_PER_THREAD: usize = 2;

/// Environment variable overriding the pool's thread count.
///
/// `WSYN_POOL_THREADS=1` forces fully sequential execution (CI uses
/// this to diff parallel-vs-sequential reports); any positive integer
/// caps the pool at that many threads. Unset, empty, or unparsable
/// values fall back to [`crate::host_parallelism`].
pub const THREADS_ENV: &str = "WSYN_POOL_THREADS";

/// Thread count from an override string, else the host's.
///
/// Factored out of [`configured_threads`] so the precedence rule
/// (override wins only when it parses to a positive integer) is a pure,
/// testable function.
#[must_use]
pub fn threads_from(var: Option<&str>, host: usize) -> usize {
    match var.map(|v| v.trim().parse::<usize>()) {
        Some(Ok(n)) if n >= 1 => n,
        _ => host.max(1),
    }
}

/// The process-wide thread-count policy: [`THREADS_ENV`] if set to a
/// positive integer, else [`crate::host_parallelism`].
///
/// Consulted by [`Pool::new`]; call sites should hold a [`Pool`] rather
/// than re-deriving counts from `host_parallelism()` so every layer
/// agrees on one policy.
#[must_use]
pub fn configured_threads() -> usize {
    let var = std::env::var(THREADS_ENV).ok();
    threads_from(var.as_deref(), crate::host_parallelism())
}

/// Deterministic map-over-items executor. See the module docs for the
/// determinism argument.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Pool {
        Pool::new()
    }
}

/// Shared worker state: the chunk queue, the unordered result pile, and
/// the completion/abort bookkeeping. One lock guards all of it — items
/// are coarse, so the lock is touched twice per item.
struct State<T, R> {
    queue: VecDeque<(usize, T)>,
    results: Vec<(usize, R)>,
    pending: usize,
    aborted: bool,
}

fn lock<'a, T, R>(m: &'a Mutex<State<T, R>>) -> MutexGuard<'a, State<T, R>> {
    // A poisoned lock means a worker panicked; the state itself is a
    // queue of untouched items plus completed results, both still
    // coherent, and the scope join will re-raise the panic.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Flips `aborted` and wakes the completion waiter if a worker unwinds
/// mid-item, so the caller stops waiting and the scope join can
/// propagate the panic instead of deadlocking.
struct AbortOnPanic<'a, T, R> {
    state: &'a Mutex<State<T, R>>,
    done: &'a Condvar,
    armed: bool,
}

impl<T, R> Drop for AbortOnPanic<'_, T, R> {
    fn drop(&mut self) {
        if self.armed {
            lock(self.state).aborted = true;
            self.done.notify_all();
        }
    }
}

impl Pool {
    /// A pool sized by the process-wide policy
    /// ([`configured_threads`]).
    #[must_use]
    pub fn new() -> Pool {
        Pool::with_threads(configured_threads())
    }

    /// A pool with an explicit thread count, ignoring the environment.
    ///
    /// This is how the determinism proptests run the same solve at
    /// threads ∈ {1, 2, 4} inside one process; zero is clamped to one.
    #[must_use]
    pub fn with_threads(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The configured thread ceiling (≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// How many threads a call with `items` queue entries will actually
    /// use: the configured ceiling, lowered so each thread has at least
    /// [`MIN_ITEMS_PER_THREAD`] items, and never below one.
    #[must_use]
    pub fn threads_for(&self, items: usize) -> usize {
        self.threads.min(items / MIN_ITEMS_PER_THREAD).max(1)
    }

    /// Maps `f` over `items`, returning results in input order
    /// regardless of execution order.
    ///
    /// Equivalent to
    /// `items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect()`
    /// for pure `f` — bit-for-bit, at every thread count. With one
    /// effective thread (small `items`, `WSYN_POOL_THREADS=1`, or a
    /// 1-CPU host) that sequential loop is exactly what runs: no
    /// threads, no locks.
    ///
    /// # Panics
    /// Re-raises a panic from `f` after all workers stop.
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.threads_for(n);
        if workers <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, x)| f(i, x))
                .collect();
        }

        let state = Mutex::new(State {
            queue: items.into_iter().enumerate().collect(),
            results: Vec::with_capacity(n),
            pending: n,
            aborted: false,
        });
        let done = Condvar::new();

        let work = || {
            let mut guard = AbortOnPanic {
                state: &state,
                done: &done,
                armed: true,
            };
            loop {
                let item = lock(&state).queue.pop_front();
                let Some((i, x)) = item else { break };
                let r = f(i, x);
                let mut s = lock(&state);
                s.results.push((i, r));
                s.pending -= 1;
                if s.pending == 0 {
                    done.notify_all();
                }
            }
            guard.armed = false;
        };

        let mut pairs = std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(work);
            }
            // The caller is worker 0: it drains the queue alongside the
            // helpers, then waits for their in-flight items.
            work();
            let mut s = lock(&state);
            while s.pending > 0 && !s.aborted {
                s = done.wait(s).unwrap_or_else(PoisonError::into_inner);
            }
            std::mem::take(&mut s.results)
            // Scope exit joins the helpers and re-raises any panic, so
            // an aborted (partial) result pile never escapes.
        });

        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_indexed_preserves_input_order() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = Pool::with_threads(threads);
            let items: Vec<u64> = (0..97).collect();
            let out = pool.map_indexed(items, |i, x| (i as u64) * 1000 + x * x);
            let expected: Vec<u64> = (0..97).map(|x| x * 1000 + x * x).collect();
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_handles_empty_and_single() {
        let pool = Pool::with_threads(4);
        let out: Vec<u32> = pool.map_indexed(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
        assert_eq!(pool.map_indexed(vec![7u32], |i, x| x + i as u32), vec![7]);
    }

    #[test]
    fn map_indexed_is_bit_identical_across_thread_counts() {
        // Float results: bit-compare, not approx-compare.
        let items: Vec<f64> = (0..64).map(|i| f64::from(i) * 0.37 - 9.5).collect();
        let f = |i: usize, x: f64| (x * 1.000_000_1 + i as f64).sin();
        let base: Vec<u64> = Pool::with_threads(1)
            .map_indexed(items.clone(), f)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        for threads in [2, 4] {
            let got: Vec<u64> = Pool::with_threads(threads)
                .map_indexed(items.clone(), f)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, base, "threads = {threads}");
        }
    }

    #[test]
    fn threads_for_applies_min_work_floor() {
        let pool = Pool::with_threads(4);
        assert_eq!(pool.threads_for(0), 1);
        assert_eq!(pool.threads_for(1), 1);
        assert_eq!(pool.threads_for(2), 1);
        assert_eq!(pool.threads_for(4), 2);
        assert_eq!(pool.threads_for(7), 3);
        assert_eq!(pool.threads_for(8), 4);
        assert_eq!(pool.threads_for(1000), 4);
    }

    #[test]
    fn with_threads_clamps_zero() {
        assert_eq!(Pool::with_threads(0).threads(), 1);
    }

    #[test]
    fn threads_from_precedence() {
        assert_eq!(threads_from(None, 8), 8);
        assert_eq!(threads_from(Some("3"), 8), 3);
        assert_eq!(threads_from(Some(" 2 "), 8), 2);
        assert_eq!(threads_from(Some("0"), 8), 8);
        assert_eq!(threads_from(Some("-1"), 8), 8);
        assert_eq!(threads_from(Some("lots"), 8), 8);
        assert_eq!(threads_from(Some(""), 8), 8);
        assert_eq!(threads_from(None, 0), 1);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let result = std::panic::catch_unwind(|| {
            Pool::with_threads(4).map_indexed((0..16).collect::<Vec<u32>>(), |_, x| {
                assert!(x != 11, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn map_indexed_empty_input_at_every_thread_count() {
        // Empty input must return an empty Vec without spawning or
        // blocking at any ceiling, including the clamped-zero pool.
        for threads in [0, 1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let out: Vec<String> = pool.map_indexed(Vec::<u8>::new(), |i, x| format!("{i}:{x}"));
            assert!(out.is_empty(), "threads = {threads}");
        }
    }

    #[test]
    fn map_indexed_fewer_items_than_threads() {
        // Items below the ceiling: the min-work floor trims the worker
        // count (8 threads, 5 items -> 2 workers; 3 items -> sequential)
        // but the contract — results in input order, every item mapped
        // exactly once — is unchanged.
        let pool = Pool::with_threads(8);
        for n in 1usize..8 {
            let items: Vec<usize> = (0..n).collect();
            let out = pool.map_indexed(items, |i, x| {
                assert_eq!(i, x);
                i * 10 + x
            });
            let expected: Vec<usize> = (0..n).map(|x| x * 11).collect();
            assert_eq!(out, expected, "n = {n}");
        }
    }

    #[test]
    fn single_worker_panic_aborts_cleanly_with_payload() {
        // One task out of many panics: the completion wait must observe
        // the abort and the scope join must re-raise a panic — not hang
        // on the Condvar, not return a partial pile. The 60-second
        // watchdog distinguishes "clean abort" from "hang" without
        // racing the pool's own teardown. The payload is the original
        // message when worker 0 (the caller) drew the poisoned item, and
        // `std::thread::scope`'s "a scoped thread panicked" when a
        // helper did — which of the two is a scheduling race, so the
        // test accepts exactly those and nothing else.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                Pool::with_threads(4).map_indexed((0..64).collect::<Vec<u32>>(), |_, x| {
                    assert!(x != 17, "deliberate failure on item 17");
                    x * 2
                })
            });
            let _ = tx.send(result);
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("map_indexed hung on the completion wait after a worker panic");
        let payload = result.expect_err("panic must propagate to the caller");
        let text = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("panic payload must be a string");
        assert!(
            text.contains("deliberate failure on item 17")
                || text.contains("a scoped thread panicked"),
            "unexpected panic payload: {text}"
        );
    }

    #[test]
    fn every_worker_panicking_still_aborts_cleanly() {
        // The pathological case: all in-flight items unwind, so every
        // worker's drop guard fires and the caller (worker 0, also
        // unwinding) never reaches the Condvar wait. The scope join must
        // still deliver a panic rather than deadlock.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(|| {
                Pool::with_threads(4).map_indexed((0..16).collect::<Vec<u32>>(), |_, _| -> u32 {
                    panic!("every task fails")
                })
            });
            let _ = tx.send(result.is_err());
        });
        let propagated = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("map_indexed hung when every task panicked");
        assert!(propagated);
    }
}
