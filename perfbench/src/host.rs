//! Taming the host. The suite runs on two hardware threads of a shared
//! machine. [`Ballast`] keeps the thread the session does not use busy for
//! the whole run, so that the session shares its core the same way whatever
//! else the process does. What the neighbours on the machine do cannot be
//! helped, only measured: [`reference_kernel`] is a fixed piece of work that
//! slows down when the mediator's planning code does, and the window's
//! timings are corrected by it (see `run::summarize`). Probed on this host
//! beside `lookup_cold`: an arithmetic loop runs at one of two speeds 27 %
//! apart (the sibling hardware thread busy or idle, ballast or no ballast)
//! and a miss is 15–20 % faster in the fast seconds; a pointer chase over
//! 2 MiB of private memory takes anything from 1× to 2.5× its best time;
//! neither follows the misses closely enough to correct them, the kernel
//! does both.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What [`reference_kernel`] takes on this host beside the lookup workloads
/// while the neighbours are quiet, in nanoseconds: the speed the corrected
/// timings refer to.
pub const REFERENCE_NS: f64 = 95_000.0;

/// A fixed piece of work shaped like the mediator's planning code (small
/// allocations from the process's heap, string building, hashing into a map
/// of vectors) that runs none of the engine's code, and how long it took. The
/// session runs it between ops: the ratio of its duration to
/// [`REFERENCE_NS`] is how much slower than its quiet self the host runs
/// such code at that moment. Its half-second medians follow those of a
/// `lookup_cold` miss with a correlation of 0.86 (0.96 between whole runs);
/// the same work over private, reused buffers does not (0.5), so the
/// allocations stay.
pub fn reference_kernel(salt: u64) -> Duration {
    let start = Instant::now();
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    for i in 0..400u64 {
        map.entry(format!("k{}", (i * 7 + salt % 3) % 250))
            .or_default()
            .push(i);
    }
    std::hint::black_box(&map);
    drop(map);
    start.elapsed()
}

/// Spinning threads that keep otherwise idle hardware threads busy. They
/// run at the lowest scheduling priority: they fill hardware threads that
/// would otherwise idle and step aside whenever the engine's own worker
/// threads (parallel-store scans, chase trigger search) want to run.
#[derive(Debug)]
pub struct Ballast {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<u64>>,
}

impl Ballast {
    /// Start `threads` spinners.
    pub fn start(threads: usize) -> Ballast {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..threads)
            .map(|_| {
                let stop = stop.clone();
                std::thread::spawn(move || {
                    lower_priority();
                    let mut x = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..1000 {
                            x = std::hint::black_box(
                                x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                            );
                        }
                    }
                    x
                })
            })
            .collect();
        Ballast { stop, threads }
    }
}

impl Drop for Ballast {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            // A spinner cannot panic; nothing to report if joining fails.
            let _ = t.join();
        }
    }
}

/// Give the calling thread the lowest priority (niceness 19).
#[cfg(target_os = "linux")]
fn lower_priority() {
    extern "C" {
        fn nice(inc: std::ffi::c_int) -> std::ffi::c_int;
    }
    // SAFETY: `nice(2)` takes an integer by value, touches no memory of
    // ours and is thread-safe; on Linux it re-prioritises the calling
    // thread only. Raising niceness needs no privilege; if it fails the
    // spinner merely keeps the default priority.
    unsafe {
        nice(19);
    }
}

#[cfg(not(target_os = "linux"))]
fn lower_priority() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_does_its_work() {
        assert!(reference_kernel(0) > Duration::ZERO);
        assert!(reference_kernel(7) > Duration::ZERO);
    }

    #[test]
    fn ballast_starts_and_stops() {
        let b = Ballast::start(2);
        assert_eq!(b.threads.len(), 2);
        drop(b);
    }
}
