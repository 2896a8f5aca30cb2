//! E2 — §II claim: materializing the join of past purchases and browsing
//! history as a relation in the parallel store, indexed by (user ID,
//! product category), brings an extra ≈40% on the personalized item search
//! query.
//!
//! Times the personalized search — execution time as the reports account
//! it — before (live cross-store join: relational Orders × parallel WebLog,
//! joined in the mediator runtime) and after (single indexed lookup in the
//! parallel store). Every pass compares each search's sorted rows with the
//! live join's answer, outside the accounted time.

use estocada::{Estocada, Latencies};
use estocada_bench::measure;
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, MarketplaceConfig, CATEGORIES};
use estocada_workloads::scenarios::{
    deploy_kv_migrated, deploy_materialized_join, personalized_sql,
};
use estocada_workloads::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn sorted_rows(est: &Estocada, sql: &str) -> (Vec<Vec<Value>>, Duration) {
    let r = est.query_sql(sql).expect("personalized search failed");
    let mut rows = r.rows;
    rows.sort();
    (rows, r.report.exec.total_time)
}

fn run_mix(est: &Estocada, mix: &[String], reference: &[Vec<Vec<Value>>]) -> Duration {
    let mut total = Duration::ZERO;
    for (sql, want) in mix.iter().zip(reference) {
        let (rows, exec) = sorted_rows(est, sql);
        assert_eq!(&rows, want, "deployments disagree on {sql}");
        total += exec;
    }
    total
}

fn main() {
    let cfg = MarketplaceConfig {
        users: 300,
        products: 150,
        orders: 3_000,
        log_entries: 8_000,
        skew: 0.9,
        seed: 42,
    };
    let m = generate(cfg);
    // Personalized searches for hot users across categories.
    let mut rng = StdRng::seed_from_u64(99);
    let zipf = Zipf::new(cfg.users, cfg.skew);
    let mix: Vec<String> = (0..12)
        .map(|i| {
            let uid = zipf.sample(&mut rng) as i64;
            personalized_sql(uid, CATEGORIES[i % CATEGORIES.len()])
        })
        .collect();
    let before = deploy_kv_migrated(&m, Latencies::datacenter());
    let after = deploy_materialized_join(&m, Latencies::datacenter());
    let reference: Vec<_> = mix.iter().map(|sql| sorted_rows(&before, sql).0).collect();

    let t_before = measure("e2_materialized_join/live_cross_store_join", 10, || {
        run_mix(&before, &mix, &reference)
    });
    let t_after = measure("e2_materialized_join/materialized_indexed_join", 10, || {
        run_mix(&after, &mix, &reference)
    });
    println!("== E2: personalized item search ({} queries) ==", mix.len());
    println!("  before (live Orders ⋈ WebLog across stores): {t_before:?}");
    println!("  after (materialized indexed join in Spark-like store): {t_after:?}");
    println!(
        "  improvement: {:.1}%  (paper: extra ~40%)",
        100.0 * (1.0 - t_after.as_secs_f64() / t_before.as_secs_f64())
    );
}
