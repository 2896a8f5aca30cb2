//! E8 — the phase-split chase: the applicability memo on/off on the
//! probe-heavy closure workload shared with the differential suite
//! (`testkit::phase_split_workload`: independent relation families whose
//! transitive closures re-derive every pair through each midpoint —
//! trigger counts cubic, distinct applicability keys quadratic).
//!
//! The memo contract is asserted **inside every measurement**: each timed
//! run's final instance and `ChaseStats` are compared against the memo-on
//! reference (core counters only when the memo is off), so a memo bug
//! fails the bench rather than skewing its numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estocada_chase::testkit::{dump_state as dump, phase_split_workload};
use estocada_chase::{chase, ChaseConfig, ChaseStats, Instance};
use estocada_pivot::Constraint;
use std::time::{Duration, Instant};

fn cfg(memo: bool) -> ChaseConfig {
    ChaseConfig {
        memo,
        ..ChaseConfig::default()
    }
}

struct Reference {
    stats: ChaseStats,
    state: Vec<(u32, String, String, u64)>,
}

/// Run one configuration and assert identity against the reference —
/// full stats when the memo setting matches the reference's (memo on),
/// core counters plus zeroed memo counters otherwise.
fn run_checked(
    seed: &Instance,
    constraints: &[Constraint],
    c: &ChaseConfig,
    reference: &Reference,
) -> Duration {
    let mut work = seed.clone();
    let t = Instant::now();
    let stats = chase(&mut work, constraints, c).unwrap();
    let elapsed = t.elapsed();
    if c.memo {
        assert_eq!(stats, reference.stats, "stats skew vs the reference");
    } else {
        assert_eq!(stats.core(), reference.stats.core(), "core-counter skew");
        assert_eq!((stats.memo_hits, stats.memo_misses), (0, 0));
    }
    assert_eq!(
        dump(&work),
        reference.state,
        "end-state skew vs the reference"
    );
    elapsed
}

fn bench(c: &mut Criterion) {
    println!("== E8 summary (phase-split chase) ==");
    for (rels, chain) in [(4usize, 12usize), (8, 14), (8, 18)] {
        let (seed, constraints) = phase_split_workload(rels, chain);
        let reference = {
            let mut work = seed.clone();
            let stats = chase(&mut work, &constraints, &cfg(true)).unwrap();
            Reference {
                stats,
                state: dump(&work),
            }
        };
        let mut line = format!(
            "rels={rels} chain={chain}: {} fires, {} rounds, memo {}/{} hit/miss —",
            reference.stats.tgd_fires,
            reference.stats.rounds,
            reference.stats.memo_hits,
            reference.stats.memo_misses,
        );
        for (name, memo) in [("memo-on", true), ("memo-off", false)] {
            // Best of 3 (scheduling noise dominates at these sizes).
            let best = (0..3)
                .map(|_| run_checked(&seed, &constraints, &cfg(memo), &reference))
                .min()
                .unwrap();
            line.push_str(&format!(" {name} {best:?}"));
        }
        println!("{line}");
    }
    println!("(identity vs the memo-on reference asserted on every run above)");

    let mut group = c.benchmark_group("e8_phase_split");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for (rels, chain) in [(4usize, 12usize), (8, 14)] {
        let (seed, constraints) = phase_split_workload(rels, chain);
        let reference = {
            let mut work = seed.clone();
            let stats = chase(&mut work, &constraints, &cfg(true)).unwrap();
            Reference {
                stats,
                state: dump(&work),
            }
        };
        let label = format!("{rels}x{chain}");
        for (name, c) in [("memo_on", cfg(true)), ("memo_off", cfg(false))] {
            group.bench_with_input(BenchmarkId::new(name, &label), &c, |b, c| {
                b.iter(|| run_checked(&seed, &constraints, c, &reference))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
