//! E3 — §III claim: the provenance-aware C&B "drastically reduces the
//! back-chase effort … rewriting speedups … of 1–2 orders of magnitude"
//! over the classical Chase & Backchase.
//!
//! Sweeps the number of views for chain- and star-shaped queries and times
//! `pacb_rewrite` against `naive_rewrite` (exhaustive subset backchase).
//! Every run of either algorithm asserts it found the rewritings the first
//! PACB run found.

use estocada_bench::measure;
use estocada_chase::{naive_rewrite, pacb_rewrite, NaiveConfig, RewriteConfig, RewriteProblem};
use estocada_pivot::{CqBuilder, ViewDef};
use std::time::Instant;

/// Chain problem: Q(x0,xk) :- R1(x0,x1), ..., Rk(x(k-1),xk) with one view
/// per edge plus one redundant projection view per edge.
fn chain_problem(k: usize) -> RewriteProblem {
    let mut qb = CqBuilder::new("Q").head_vars(["x0", &format!("x{k}")]);
    for i in 0..k {
        let (a, b) = (format!("x{i}"), format!("x{}", i + 1));
        qb = qb.atom(format!("R{i}").as_str(), move |ab| ab.v(&a).v(&b));
    }
    let q = qb.build();
    let mut views = Vec::new();
    for i in 0..k {
        views.push(ViewDef::new(
            CqBuilder::new(format!("V{i}").as_str())
                .head_vars(["a", "b"])
                .atom(format!("R{i}").as_str(), |x| x.v("a").v("b"))
                .build(),
        ));
        // A redundant projection view enlarging the universal plan.
        views.push(ViewDef::new(
            CqBuilder::new(format!("P{i}").as_str())
                .head_vars(["a"])
                .atom(format!("R{i}").as_str(), |x| x.v("a").v("b"))
                .build(),
        ));
    }
    RewriteProblem::new(q, views)
}

/// Star problem: Q(c) :- Hub(c), S1(c,y1), ..., Sk(c,yk) with per-satellite
/// views.
fn star_problem(k: usize) -> RewriteProblem {
    let mut qb = CqBuilder::new("Q").head_vars(["c"]);
    qb = qb.atom("Hub", |a| a.v("c"));
    for i in 0..k {
        let y = format!("y{i}");
        qb = qb.atom(format!("S{i}").as_str(), move |a| a.v("c").v(&y));
    }
    let q = qb.build();
    let mut views = vec![ViewDef::new(
        CqBuilder::new("VHub")
            .head_vars(["c"])
            .atom("Hub", |a| a.v("c"))
            .build(),
    )];
    for i in 0..k {
        views.push(ViewDef::new(
            CqBuilder::new(format!("VS{i}").as_str())
                .head_vars(["c", "y"])
                .atom(format!("S{i}").as_str(), |a| a.v("c").v("y"))
                .build(),
        ));
    }
    RewriteProblem::new(q, views)
}

fn main() {
    let mut table = Vec::new();
    for k in [2usize, 4, 6, 8] {
        for (name, problem) in [("chain", chain_problem(k)), ("star", star_problem(k))] {
            let expected = pacb_rewrite(&problem, &RewriteConfig::default())
                .unwrap()
                .rewritings
                .len();
            assert!(expected > 0, "{name} k={k}: no rewriting");
            // The naive backchase needs seconds per run at k = 8.
            let samples = if k < 8 { 10 } else { 3 };
            let tp = measure(
                &format!("e3_pacb_vs_naive/pacb_{name}/{k}"),
                samples,
                || {
                    let t = Instant::now();
                    let out = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
                    let dt = t.elapsed();
                    assert_eq!(out.rewritings.len(), expected, "PACB on {name} k={k}");
                    dt
                },
            );
            let tn = measure(
                &format!("e3_pacb_vs_naive/naive_{name}/{k}"),
                samples,
                || {
                    let t = Instant::now();
                    let out = naive_rewrite(&problem, &NaiveConfig::default()).unwrap();
                    let dt = t.elapsed();
                    assert_eq!(out.rewritings.len(), expected, "naive on {name} k={k}");
                    dt
                },
            );
            table.push((format!("{name} k={k}"), tp, tn));
        }
    }
    println!("== E3: PACB vs classical Chase & Backchase ==");
    println!(
        "{:<18} {:>12} {:>12} {:>9}",
        "problem", "PACB", "naive C&B", "speedup"
    );
    for (name, tp, tn) in table {
        let speedup = tn.as_secs_f64() / tp.as_secs_f64();
        println!("{name:<18} {tp:>12?} {tn:>12?} {speedup:>8.1}x");
    }
    println!("(paper: PACB 1-2 orders of magnitude faster than classical C&B)");
}
