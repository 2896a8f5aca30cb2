//! E1 — §II claim: migrating user-preference and shopping-cart fragments to
//! a key-value store improves the application workload by ≈20%.
//!
//! Times workload W1 — execution time as the reports account it (stores +
//! mediator runtime under the datacenter latency calibration) — on the
//! baseline deployment and on the KV-migrated one. Every pass compares each
//! query's sorted rows with the baseline deployment's answer, outside the
//! accounted time. See EXPERIMENTS.md for paper-vs-measured.

use estocada::{Estocada, Latencies};
use estocada_bench::measure;
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, w1_workload, MarketplaceConfig, W1Query};
use estocada_workloads::scenarios::{deploy_baseline, deploy_kv_migrated, run_w1_query};
use std::time::Duration;

fn sorted_rows(est: &Estocada, q: &W1Query) -> (Vec<Vec<Value>>, Duration) {
    let r = run_w1_query(est, q).expect("W1 query failed");
    let mut rows = r.rows;
    rows.sort();
    (rows, r.report.exec.total_time)
}

fn run_w1(est: &Estocada, workload: &[W1Query], reference: &[Vec<Vec<Value>>]) -> Duration {
    let mut total = Duration::ZERO;
    for (q, want) in workload.iter().zip(reference) {
        let (rows, exec) = sorted_rows(est, q);
        assert_eq!(&rows, want, "deployments disagree on {q:?}");
        total += exec;
    }
    total
}

fn main() {
    let cfg = MarketplaceConfig {
        users: 400,
        products: 150,
        orders: 2_000,
        log_entries: 4_000,
        skew: 0.9,
        seed: 42,
    };
    let m = generate(cfg);
    let workload = w1_workload(&cfg, 40, 7);
    let base = deploy_baseline(&m, Latencies::datacenter());
    let kv = deploy_kv_migrated(&m, Latencies::datacenter());
    let reference: Vec<_> = workload.iter().map(|q| sorted_rows(&base, q).0).collect();

    let t_base = measure("e1_kv_migration/baseline", 10, || {
        run_w1(&base, &workload, &reference)
    });
    let t_kv = measure("e1_kv_migration/kv_migrated", 10, || {
        run_w1(&kv, &workload, &reference)
    });
    println!(
        "== E1: workload W1 ({} queries), datacenter latencies ==",
        workload.len()
    );
    println!("  baseline (Postgres+Mongo-like): {t_base:?}");
    println!("  kv-migrated (Voldemort-like):   {t_kv:?}");
    println!(
        "  improvement: {:.1}%  (paper: ~20%)",
        100.0 * (1.0 - t_kv.as_secs_f64() / t_base.as_secs_f64())
    );
}
