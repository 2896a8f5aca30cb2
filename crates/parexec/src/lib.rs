//! # estocada-parexec
//!
//! The fan-out / deterministic fan-in executors shared by the parallel
//! store ([`estocada-parstore`]'s partition operators) and the chase crate
//! (the parallel PACB backchase, and the per-round read-only trigger-search
//! phase of the chase driver).
//!
//! The pattern: a fixed worker pool claims items off a shared atomic
//! cursor, sends `(index, result)` pairs over a channel, and the
//! coordinator reassembles results **in item order** — so the output of
//! [`scoped_map`] / [`Pool::map_init`] is bit-identical to a serial
//! `items.iter().map(f)` run no matter how the OS schedules the workers.
//! Determinism holds because each item's result is a pure function of that
//! item (workers share no mutable state beyond the claim cursor and their
//! private per-worker state).
//!
//! Two executors implement the pattern:
//!
//! - [`scoped_map`] / [`scoped_map_init`] spawn scoped threads per call —
//!   right for one-shot batches (the parallel backchase's candidate
//!   verification, partition operators);
//! - [`Pool`] keeps its worker threads alive across calls — right for
//!   iterated batches (the chase driver's per-round trigger search reuses
//!   one pool for all rounds of a chase instead of paying a spawn/join
//!   per round).
//!
//! # Early exit
//!
//! A panicking worker poisons the batch: the other workers stop claiming
//! new items at their next claim, the call joins its outstanding work, and
//! the failure is propagated to the caller (no deadlock, no use of freed
//! batch state). Only panics cancel siblings; recoverable per-item failures
//! (a chase-budget `Err` inside a verification check) are ordinary results
//! and leave the rest of the batch running.
//!
//! [`estocada-parstore`]: ../estocada_parstore/index.html

#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};

/// Default worker count: one per available core, capped at 8 (the same
/// calibration the parallel store uses for partition counts).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Sets the poison flag if dropped during a panic (i.e. while `f` unwinds),
/// telling the other workers to stop claiming items.
struct PoisonOnPanic<'a>(&'a AtomicBool);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

/// Map `f` over `items` on up to `parallelism` scoped worker threads, each
/// holding private per-worker state built by `init` (a scratch arena, a
/// buffer pool). Results come back **in item order**, identical to the
/// serial run `items.iter().enumerate().map(|(i, t)| f(&mut init(), i, t))`.
///
/// With `parallelism <= 1` or fewer than two items the call runs inline on
/// the caller's thread (no spawn, one `init`). A worker panic cancels the
/// outstanding items and re-raises on the caller.
pub fn scoped_map_init<T, R, W>(
    parallelism: usize,
    items: &[T],
    init: impl Fn() -> W + Sync,
    f: impl Fn(&mut W, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if parallelism <= 1 || items.len() <= 1 {
        let mut w = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut w, i, t))
            .collect();
    }
    let workers = parallelism.min(items.len());
    let next = AtomicUsize::new(0);
    let poison = AtomicBool::new(false);
    let (tx, rx) = channel::<(usize, R)>();
    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let (next, poison, init, f) = (&next, &poison, &init, &f);
            s.spawn(move || {
                let mut w = init();
                loop {
                    if poison.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let guard = PoisonOnPanic(poison);
                    let r = f(&mut w, i, &items[i]);
                    std::mem::forget(guard);
                    if tx.send((i, r)).is_err() {
                        // The receiver is gone; a silently missing result
                        // would let callers zip-truncate, so poison loudly.
                        poison.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
        }
        drop(tx);
    }); // a worker panic re-raises here, after every thread has joined
    let mut pairs: Vec<(usize, R)> = rx.iter().collect();
    assert_eq!(pairs.len(), items.len(), "lost worker results");
    pairs.sort_unstable_by_key(|(i, _)| *i);
    pairs.into_iter().map(|(_, r)| r).collect()
}

/// [`scoped_map_init`] without per-worker state: map `f` over `items` in
/// parallel, results in item order.
pub fn scoped_map<T, R>(
    parallelism: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    scoped_map_init(parallelism, items, || (), |_, i, t| f(i, t))
}

/// A lifetime-erased work item; see the safety discipline in
/// [`Pool::map_init`].
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent worker pool with the same deterministic fan-in contract as
/// [`scoped_map_init`], for callers that run *many* batches (the chase
/// loops fan out a trigger search every round): the threads are spawned
/// once in [`Pool::new`] and reused by every [`Pool::map_init`] call, so an
/// N-round chase pays one spawn/join instead of N.
///
/// Each call's results come back **in item order**, identical to the serial
/// run — worker scheduling never leaks into the output. A worker panic
/// during a batch poisons that batch (siblings stop claiming items) and the
/// call fails with a `"pool worker panicked"` panic on the caller; the pool
/// is dead afterwards (a later batch on it fails the same way). Dropping
/// the pool shuts the workers down and joins them.
pub struct Pool {
    /// One submission channel per worker (a batch submits at most one
    /// runner job per worker, so nothing ever queues behind a busy worker).
    txs: Vec<Sender<Job>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool of `workers` threads. `workers <= 1` spawns nothing:
    /// every [`Pool::map_init`] call then runs inline on the caller, so a
    /// serial configuration pays zero thread cost.
    pub fn new(workers: usize) -> Pool {
        let n = if workers <= 1 { 0 } else { workers };
        let mut txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for k in 0..n {
            let (tx, rx) = channel::<Job>();
            txs.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("parexec-pool-{k}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job();
                        }
                    })
                    .expect("spawn parexec pool worker"),
            );
        }
        Pool { txs, handles }
    }

    /// The number of worker threads (1 for an inline pool).
    pub fn workers(&self) -> usize {
        self.handles.len().max(1)
    }

    /// Map `f` over `items` on the pool's workers, each holding private
    /// per-worker state built by `init` — results in item order, identical
    /// to the serial run (the [`scoped_map_init`] contract). With an inline
    /// pool or fewer than two items the call runs on the caller's thread.
    pub fn map_init<T, R, W>(
        &self,
        items: &[T],
        init: impl Fn() -> W + Sync,
        f: impl Fn(&mut W, usize, &T) -> R + Sync,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        if self.handles.is_empty() || items.len() <= 1 {
            let mut w = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut w, i, t))
                .collect();
        }
        let runners = self.handles.len().min(items.len());
        let next = AtomicUsize::new(0);
        let poison = AtomicBool::new(false);
        let (rtx, rrx) = channel::<(usize, R)>();
        let (dtx, drx) = channel::<()>();

        /// Sends its completion token even when the runner unwinds — the
        /// join barrier below counts these, and `map_init` must not return
        /// (or unwind) while any runner can still touch the borrowed batch
        /// state.
        struct TokenOnDrop(Sender<()>);
        impl Drop for TokenOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send(());
            }
        }

        let mut submitted = 0usize;
        for k in 0..runners {
            let rtx = rtx.clone();
            let dtx = dtx.clone();
            let (next, poison, init, f) = (&next, &poison, &init, &f);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let _token = TokenOnDrop(dtx);
                let mut w = init();
                loop {
                    if poison.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let guard = PoisonOnPanic(poison);
                    let r = f(&mut w, i, &items[i]);
                    std::mem::forget(guard);
                    if rtx.send((i, r)).is_err() {
                        // The receiver is gone; a silently missing result
                        // would let callers zip-truncate, so poison loudly.
                        poison.store(true, Ordering::Relaxed);
                        break;
                    }
                }
            });
            // SAFETY: the runner borrows `items`, `init`, `f`, `next` and
            // `poison` from this stack frame; erasing its lifetime is sound
            // because this function neither returns nor unwinds before the
            // join barrier below has received one completion token per
            // submitted runner, and a runner's token is sent (by
            // `TokenOnDrop`, on return *and* on unwind) strictly after its
            // last access to the borrows. A runner that is never submitted
            // (dead worker) is dropped immediately, which only releases its
            // channel clones.
            let job: Job =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Job>(job) };
            if self.txs[k].send(job).is_err() {
                // Worker died in an earlier (panicked) batch; the surviving
                // runners drain the whole cursor, or the count check fails.
                poison.store(true, Ordering::Relaxed);
                break;
            }
            submitted += 1;
        }
        drop(rtx);
        drop(dtx);

        // The result channel closes once every submitted runner finished or
        // unwound (each holds one sender clone), so this cannot hang.
        let mut pairs: Vec<(usize, R)> = rrx.iter().collect();
        // Join barrier — after this loop no runner can touch the borrows.
        for _ in 0..submitted {
            let _ = drx.recv();
        }
        assert_eq!(
            pairs.len(),
            items.len(),
            "pool worker panicked (lost results)"
        );
        pairs.sort_unstable_by_key(|(i, _)| *i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.txs.clear(); // closes every submission channel
        for h in self.handles.drain(..) {
            // A panicked worker already surfaced its failure through the
            // batch's lost-results check; don't double-panic on join.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = scoped_map(4, &[] as &[i32], |_, x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = scoped_map(8, &[7], |i, x| (i, *x * 2));
        assert_eq!(out, vec![(0, 14)]);
    }

    #[test]
    fn single_worker_matches_serial() {
        let items: Vec<usize> = (0..100).collect();
        let serial: Vec<usize> = items.iter().map(|x| x * x).collect();
        assert_eq!(scoped_map(1, &items, |_, x| x * x), serial);
    }

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..500).collect();
        for par in [2, 3, 4, 8] {
            let out = scoped_map(par, &items, |i, x| {
                assert_eq!(i, *x);
                // Perturb completion order.
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                x * 3
            });
            let serial: Vec<usize> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, serial, "nondeterministic fan-in at parallelism {par}");
        }
    }

    #[test]
    fn per_worker_state_is_confined_and_reused() {
        // Each worker's state counts the items it processed; the total over
        // all workers must equal the item count (every item exactly once).
        static TOTAL: AtomicUsize = AtomicUsize::new(0);
        struct Tally(usize);
        impl Drop for Tally {
            fn drop(&mut self) {
                TOTAL.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let items: Vec<u32> = (0..200).collect();
        let out = scoped_map_init(
            4,
            &items,
            || Tally(0),
            |w, _, x| {
                w.0 += 1;
                *x + 1
            },
        );
        assert_eq!(out.len(), 200);
        assert_eq!(TOTAL.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            scoped_map(4, &items, |_, x| {
                if *x == 13 {
                    panic!("boom at {x}");
                }
                *x
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn worker_panic_cancels_outstanding_items() {
        // After the poisoning panic, workers stop claiming: far fewer than
        // all items run. The panic fires on the very first item, so at most
        // `workers` items (the ones already claimed) can still complete.
        let processed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let result = std::panic::catch_unwind(|| {
            scoped_map(4, &items, |_, x| {
                if *x == 0 {
                    panic!("poison");
                }
                // Pace the survivors: the poison flag is set only once the
                // panic hook returns, and printing a backtrace takes
                // milliseconds — enough for unpaced workers to drain the
                // whole list first.
                std::thread::sleep(std::time::Duration::from_micros(100));
                processed.fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(result.is_err());
        assert!(
            processed.load(Ordering::Relaxed) < items.len() / 2,
            "poisoned pool kept claiming items"
        );
    }

    #[test]
    fn parallelism_exceeding_items_is_capped() {
        let items = vec![1, 2, 3];
        assert_eq!(scoped_map(64, &items, |_, x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn pool_matches_serial_across_many_batches() {
        // The round-loop shape: one pool, many batches, each must be
        // bit-identical to the serial map.
        let pool = Pool::new(4);
        for round in 0..50usize {
            let items: Vec<usize> = (0..(round % 7) * 3).collect();
            let serial: Vec<usize> = items.iter().map(|x| x * round).collect();
            let got = pool.map_init(&items, || (), |_, _, x| x * round);
            assert_eq!(got, serial, "pool skew in round {round}");
        }
    }

    #[test]
    fn pool_results_come_back_in_item_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..500).collect();
        for _ in 0..4 {
            let out = pool.map_init(
                &items,
                || (),
                |_, i, x| {
                    assert_eq!(i, *x);
                    if x % 7 == 0 {
                        std::thread::yield_now();
                    }
                    x * 3
                },
            );
            let serial: Vec<usize> = items.iter().map(|x| x * 3).collect();
            assert_eq!(out, serial, "nondeterministic pool fan-in");
        }
    }

    #[test]
    fn pool_per_worker_state_is_confined_and_reused() {
        static TOTAL: AtomicUsize = AtomicUsize::new(0);
        struct Tally(usize);
        impl Drop for Tally {
            fn drop(&mut self) {
                TOTAL.fetch_add(self.0, Ordering::Relaxed);
            }
        }
        let pool = Pool::new(4);
        let items: Vec<u32> = (0..200).collect();
        let out = pool.map_init(
            &items,
            || Tally(0),
            |w, _, x| {
                w.0 += 1;
                *x + 1
            },
        );
        assert_eq!(out.len(), 200);
        assert_eq!(TOTAL.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn serial_pool_runs_inline_without_threads() {
        let pool = Pool::new(1);
        assert_eq!(pool.workers(), 1);
        let out = pool.map_init(&[1, 2, 3], || (), |_, _, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn pool_worker_panic_propagates_and_joins_first() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map_init(
                &items,
                || (),
                |_, _, x| {
                    if *x == 13 {
                        panic!("boom at {x}");
                    }
                    *x
                },
            )
        }));
        assert!(result.is_err(), "pool worker panic must reach the caller");
    }
}
