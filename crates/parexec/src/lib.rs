//! # estocada-parexec
//!
//! The fan-out / deterministic fan-in executor shared by the parallel
//! store ([`estocada-parstore`]'s partition operators) and the chase crate
//! (the PACB backchase's candidate verification).
//!
//! The pattern: scoped worker threads claim items off a shared atomic
//! cursor, send `(index, result)` pairs over a channel, and the
//! coordinator reassembles results **in item order** — so the output of
//! [`scoped_map`] is bit-identical to a serial `items.iter().map(f)` run no
//! matter how the OS schedules the workers. Determinism holds because each
//! item's result is a pure function of that item (workers share no mutable
//! state beyond the claim cursor). State a worker keeps for itself across
//! items lives in its own thread — the chase's matcher scratch is
//! thread-local — or in the state [`scoped_map_init`] builds for it — the
//! chase's verification workspace. The threads are spawned per call and joined
//! before it returns (`std::thread::scope`), so they borrow the batch
//! directly.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;

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

/// [`scoped_map`] with private per-worker state built by `init`, on the
/// worker's thread: results are identical to the serial run
/// `items.iter().enumerate().map(|(i, t)| f(&mut init(), i, t))`. Its
/// tests give each worker a probe that observes the worker's life.
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

/// Map `f` over `items` on up to `parallelism` scoped worker threads.
/// Results come back **in item order**, identical to the serial run
/// `items.iter().enumerate().map(|(i, t)| f(i, t))`.
///
/// With `parallelism <= 1` or fewer than two items the call runs inline on
/// the caller's thread (no spawn). A worker panic cancels the outstanding
/// items and re-raises on the caller.
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
        // Item 0 panics; every other item blocks until the panicking
        // worker's state is torn down. A worker's state outlives its
        // per-item poison guard, so by then the batch is poisoned, and the
        // release/acquire pair on `unwound` makes that visible to each
        // survivor before its next claim: a survivor finishes the one item
        // it held and stops.
        const WORKERS: usize = 4;
        struct SignalUnwind<'a>(&'a AtomicBool);
        impl Drop for SignalUnwind<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    self.0.store(true, Ordering::Release);
                }
            }
        }
        let unwound = AtomicBool::new(false);
        let processed = AtomicUsize::new(0);
        let items: Vec<usize> = (0..10_000).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped_map_init(
                WORKERS,
                &items,
                || SignalUnwind(&unwound),
                |_, _, x| {
                    if *x == 0 {
                        panic!("poison");
                    }
                    while !unwound.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    processed.fetch_add(1, Ordering::Relaxed);
                },
            )
        }));
        assert!(result.is_err());
        assert!(
            processed.load(Ordering::Relaxed) < WORKERS,
            "poisoned batch kept claiming items"
        );
    }

    #[test]
    fn parallelism_exceeding_items_is_capped() {
        let items = vec![1, 2, 3];
        assert_eq!(scoped_map(64, &items, |_, x| x * 10), vec![10, 20, 30]);
    }
}
