//! E6 — scaling of the **parallel PACB backchase**: candidate verification
//! fans out over the scoped worker pool (`RewriteConfig::parallelism`), so
//! multi-candidate problems should speed up with workers while producing
//! the *identical* `RewriteOutcome` (the deterministic fan-in contract —
//! asserted inside every measurement below, not just tested elsewhere).
//!
//! The workload is the E3 chain/star family widened to two interchangeable
//! views per edge: a chain of length k has 2^k minimal rewritings, i.e.
//! 2^k independent verification chases to fan out.

use estocada_bench::measure;
use estocada_chase::testkit::{wide_chain_problem, wide_star_problem};
use estocada_chase::{pacb_rewrite, RewriteConfig};
use std::time::Instant;

const WORKERS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Vec::new();
    for (name, problem) in [
        ("chain6", wide_chain_problem(6)),
        ("chain8", wide_chain_problem(8)),
        ("star6", wide_star_problem(6)),
        ("star8", wide_star_problem(8)),
    ] {
        let reference = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let times = WORKERS.map(|workers| {
            let cfg = RewriteConfig::default().with_parallelism(workers);
            measure(
                &format!("e6_parallel_backchase/{name}/{workers}"),
                5,
                || {
                    let t = Instant::now();
                    let out = pacb_rewrite(&problem, &cfg).unwrap();
                    let dt = t.elapsed();
                    assert_eq!(
                        out, reference,
                        "fan-in contract violated at {workers} workers on {name}"
                    );
                    dt
                },
            )
        });
        table.push((name, times, reference.rewritings.len()));
    }
    println!("== E6: parallel backchase (host cores: {host_cores}) ==");
    println!(
        "{:<10} {:>11} {:>11} {:>11} {:>11} {:>9}",
        "problem", "1 worker", "2 workers", "4 workers", "8 workers", "4w spdup"
    );
    for (name, t, rewritings) in table {
        println!(
            "{name:<10} {:>11?} {:>11?} {:>11?} {:>11?} {:>8.2}x  ({rewritings} rewritings)",
            t[0],
            t[1],
            t[2],
            t[3],
            t[0].as_secs_f64() / t[2].as_secs_f64(),
        );
    }
    println!("(speedup bounded by host cores; outcome identical at every worker count)");
}
