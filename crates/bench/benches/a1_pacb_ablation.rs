//! A1 — ablation of the design choices DESIGN.md calls out:
//!
//! 1. **Candidate verification** (the safety net around the conservative
//!    EGD-provenance treatment): how much rewriting time does re-verifying
//!    every candidate cost, and does disabling it ever change the output on
//!    EGD-free problems? (It must not.)
//! 2. **Provenance clause cap**: the minimized-DNF cap trades completeness
//!    flags for memory; measure its timing effect at small caps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estocada_chase::{pacb_rewrite, RewriteConfig, RewriteProblem};
use estocada_pivot::{Cq, CqBuilder, ViewDef};
use std::time::Duration;

/// Chain problem with redundant views (same shape as E3).
fn chain_problem(k: usize) -> RewriteProblem {
    let mut qb = CqBuilder::new("Q").head_vars(["x0"]);
    let mut q = {
        for i in 0..k {
            let a = format!("x{i}");
            let b = format!("x{}", i + 1);
            qb = qb.atom(format!("R{i}").as_str(), move |ab| ab.v(&a).v(&b));
        }
        qb.build()
    };
    let last = q.body[k - 1].args[1].clone();
    q.head.push(last);
    let mut views = Vec::new();
    for i in 0..k {
        views.push(ViewDef::new(
            CqBuilder::new(format!("V{i}").as_str())
                .head_vars(["a", "b"])
                .atom(format!("R{i}").as_str(), |x| x.v("a").v("b"))
                .build(),
        ));
        views.push(ViewDef::new(
            CqBuilder::new(format!("W{i}").as_str())
                .head_vars(["a", "b"])
                .atom(format!("R{i}").as_str(), |x| x.v("a").v("b"))
                .build(),
        ));
    }
    RewriteProblem::new(q, views)
}

fn canon(rws: &[Cq]) -> Vec<String> {
    let mut v: Vec<String> = rws
        .iter()
        .map(|r| format!("{}", r.canonicalize()))
        .collect();
    v.sort();
    v
}

fn bench(c: &mut Criterion) {
    println!("== A1 summary ==");
    for k in [4usize, 6, 8] {
        let problem = chain_problem(k);
        let with = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let without = pacb_rewrite(
            &problem,
            &RewriteConfig {
                verify: false,
                ..RewriteConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            canon(&with.rewritings),
            canon(&without.rewritings),
            "verification must not change output on EGD-free problems"
        );
        let t = std::time::Instant::now();
        pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let t_with = t.elapsed();
        let t = std::time::Instant::now();
        pacb_rewrite(
            &problem,
            &RewriteConfig {
                verify: false,
                ..RewriteConfig::default()
            },
        )
        .unwrap();
        let t_without = t.elapsed();
        println!(
            "chain k={k}: verify-on {t_with:?}, verify-off {t_without:?} \
             (overhead {:.0}%), {} rewritings",
            100.0 * (t_with.as_secs_f64() / t_without.as_secs_f64() - 1.0),
            with.rewritings.len()
        );
    }
    // Clause-cap sweep: tiny caps may flag incompleteness but never emit
    // wrong rewritings.
    for cap in [4usize, 64, 2048] {
        let problem = chain_problem(6);
        let out = pacb_rewrite(
            &problem,
            &RewriteConfig {
                clause_cap: cap,
                ..RewriteConfig::default()
            },
        )
        .unwrap();
        println!(
            "clause cap {cap}: {} rewritings, complete={}",
            out.rewritings.len(),
            out.complete
        );
    }

    let mut group = c.benchmark_group("a1_pacb_ablation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for k in [4usize, 6] {
        let problem = chain_problem(k);
        group.bench_with_input(BenchmarkId::new("verify_on", k), &problem, |b, p| {
            b.iter(|| pacb_rewrite(p, &RewriteConfig::default()).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("verify_off", k), &problem, |b, p| {
            b.iter(|| {
                pacb_rewrite(
                    p,
                    &RewriteConfig {
                        verify: false,
                        ..RewriteConfig::default()
                    },
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
