//! E5 — §IV demo step 4: "request fragment recommendations from the
//! storage advisor, materialize them and observe the impact on the
//! selection of a query plan".
//!
//! The workload shifts to heavy preference lookups plus personalized
//! searches over the *baseline* deployment; the advisor recommends a
//! key-value point-access fragment and a materialized indexed join
//! fragment, both are applied, and the workload is re-measured. Every pass
//! compares each query's sorted rows with the answer before the advice.

use estocada::advisor::{apply, recommend, Action, WorkloadQuery};
use estocada::frontends::parse_sql;
use estocada::{Estocada, Latencies};
use estocada_bench::measure;
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, MarketplaceConfig, CATEGORIES};
use estocada_workloads::scenarios::{deploy_baseline, personalized_sql, pref_sql};
use std::time::Duration;

/// The shifted workload W2: SQL texts with frequencies.
fn w2_sql() -> Vec<(String, f64)> {
    let mut out = vec![(pref_sql(3), 50.0), (pref_sql(11), 30.0)];
    out.push((personalized_sql(3, CATEGORIES[0]), 20.0));
    out
}

fn parse_workload(est: &Estocada) -> Vec<WorkloadQuery> {
    let catalog = est.sql_catalog();
    w2_sql()
        .into_iter()
        .enumerate()
        .map(|(i, (sql, weight))| {
            let p = parse_sql(&sql, &catalog).expect("workload query parses");
            WorkloadQuery {
                name: format!("w2q{i}"),
                cq: p.cq,
                head_names: p.head_names,
                residuals: p.residuals,
                weight,
            }
        })
        .collect()
}

fn sorted_rows(est: &Estocada, sql: &str) -> (Vec<Vec<Value>>, Duration) {
    let r = est.query_sql(sql).expect("workload query failed");
    let mut rows = r.rows;
    rows.sort();
    (rows, r.report.exec.total_time)
}

fn run_w2(est: &Estocada, reference: &[Vec<Vec<Value>>]) -> Duration {
    let mut total = Duration::ZERO;
    for ((sql, weight), want) in w2_sql().iter().zip(reference) {
        let (rows, exec) = sorted_rows(est, sql);
        assert_eq!(&rows, want, "advice changed the answer of {sql}");
        // Weight approximates frequency: scale the per-execution time.
        total += exec.mul_f64(weight / 10.0);
    }
    total
}

fn main() {
    let m = generate(MarketplaceConfig {
        users: 300,
        products: 120,
        orders: 2_000,
        log_entries: 5_000,
        skew: 0.9,
        seed: 42,
    });
    let mut est = deploy_baseline(&m, Latencies::datacenter());
    let reference: Vec<_> = w2_sql()
        .iter()
        .map(|(sql, _)| sorted_rows(&est, sql).0)
        .collect();

    let before = measure("e5_advisor/w2_before_advice", 10, || {
        run_w2(&est, &reference)
    });
    let recs = recommend(&est, &parse_workload(&est)).expect("advisor");
    println!("== E5: advisor produced {} recommendations ==", recs.len());
    for r in &recs {
        println!("  [benefit {:10.1}] {}", r.benefit, r.reason);
    }
    assert!(
        recs.iter().any(|r| matches!(r.action, Action::Add(_))),
        "advisor must recommend at least one fragment"
    );
    apply(&mut est, recs, false).expect("apply recommendations");
    let after = measure("e5_advisor/w2_after_advice", 10, || {
        run_w2(&est, &reference)
    });
    println!("workload W2 before: {before:?}");
    println!("workload W2 after:  {after:?}");
    println!(
        "improvement: {:.1}%  (paper: demo shows plan-selection impact)",
        100.0 * (1.0 - after.as_secs_f64() / before.as_secs_f64())
    );
}
