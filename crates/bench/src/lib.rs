//! The one measurement helper of the nine bench mains (see `benches/`).

#![forbid(unsafe_code)]

use std::time::Duration;

/// Time `run`: one warm-up call, then `samples` measured calls. Prints the
/// machine-readable `BENCHJSON` line and returns the median, which the
/// calling main puts in its table.
///
/// `run` returns the time it measured itself — a wall-clock window it
/// closes before comparing answers, or the execution time a `Report`
/// accounts — and asserts its answer against the experiment's reference on
/// every call, the warm-up included.
pub fn measure(id: &str, samples: usize, mut run: impl FnMut() -> Duration) -> Duration {
    run();
    let mut ns: Vec<u128> = (0..samples).map(|_| run().as_nanos()).collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    let mean = ns.iter().sum::<u128>() / ns.len() as u128;
    println!(
        "BENCHJSON {{\"id\":\"{id}\",\"median_ns\":{median},\"mean_ns\":{mean},\"samples\":{samples}}}"
    );
    Duration::from_nanos(median as u64)
}
