//! Cross-crate integration tests: every storage configuration of the
//! marketplace scenario must return the same answers for the same queries
//! (the mediator's soundness/completeness guarantee), and those answers
//! must match the ground-truth oracle over the staged datasets.

mod common;

use common::sorted;
use estocada::Latencies;
use estocada_workloads::marketplace::{generate, w1_workload, MarketplaceConfig};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql, run_w1_query,
};

fn cfg() -> MarketplaceConfig {
    common::cfg(80, 40, 300, 600, 11)
}

#[test]
fn all_configurations_agree_on_w1() {
    let m = generate(cfg());
    let workload = w1_workload(&cfg(), 25, 3);
    let mut configs = [
        deploy_baseline(&m, Latencies::zero()),
        deploy_kv_migrated(&m, Latencies::zero()),
        deploy_materialized_join(&m, Latencies::zero()),
    ];
    for q in &workload {
        let reference = sorted(
            run_w1_query(&configs[0], q)
                .unwrap_or_else(|e| panic!("baseline failed on {q:?}: {e}"))
                .rows,
        );
        for (i, est) in configs.iter_mut().enumerate().skip(1) {
            let got = sorted(
                run_w1_query(est, q)
                    .unwrap_or_else(|e| panic!("config {i} failed on {q:?}: {e}"))
                    .rows,
            );
            assert_eq!(reference, got, "config {i} disagrees on {q:?}");
        }
    }
}

#[test]
fn all_configurations_agree_on_personalized_search() {
    let m = generate(cfg());
    let mut configs = [
        deploy_baseline(&m, Latencies::zero()),
        deploy_kv_migrated(&m, Latencies::zero()),
        deploy_materialized_join(&m, Latencies::zero()),
    ];
    for uid in [0i64, 1, 2, 5] {
        for cat in ["laptop", "mouse", "cable"] {
            let sql = personalized_sql(uid, cat);
            let reference = sorted(configs[0].query_sql(&sql).unwrap().rows);
            for (i, est) in configs.iter_mut().enumerate().skip(1) {
                let got = sorted(est.query_sql(&sql).unwrap().rows);
                assert_eq!(
                    reference, got,
                    "config {i} disagrees on uid={uid} cat={cat}"
                );
            }
        }
    }
}

#[test]
fn mediator_answers_match_oracle() {
    let m = generate(cfg());
    let est = deploy_kv_migrated(&m, Latencies::zero());
    // The oracle evaluates the pivot CQ directly over the staged facts.
    let catalog = est.sql_catalog();
    for sql in [
        "SELECT u.name FROM Users u WHERE u.uid = 5".to_string(),
        "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 2".to_string(),
        "SELECT u.name, o.pid FROM Users u, Orders o WHERE u.uid = o.uid AND u.tier = 'gold'"
            .to_string(),
    ] {
        let parsed = estocada::frontends::parse_sql(&sql, &catalog).unwrap();
        let oracle = sorted(est.oracle_eval(&parsed.cq));
        let got = sorted(est.query_sql(&sql).unwrap().rows);
        assert_eq!(oracle, got, "mediator diverges from oracle on {sql}");
    }
}

#[test]
fn text_search_is_consistent_with_titles() {
    let m = generate(cfg());
    let est = deploy_baseline(&m, Latencies::zero());
    let r = est
        .query_sql("SELECT p.pid, p.title FROM Products p WHERE CONTAINS(p.title, 'wireless')")
        .unwrap();
    assert!(!r.rows.is_empty(), "generator always makes wireless items");
    for row in &r.rows {
        let title = row[1].as_str().unwrap().to_lowercase();
        assert!(title.contains("wireless"), "false positive: {title}");
    }
}

#[test]
fn report_splits_time_between_stores_and_runtime() {
    let m = generate(cfg());
    let est = deploy_baseline(&m, Latencies::datacenter());
    let r = est.query_sql(&personalized_sql(1, "laptop")).unwrap();
    let exec = &r.report.exec;
    assert!(exec.delegated_time > std::time::Duration::ZERO);
    assert!(exec.total_time >= exec.delegated_time);
    // Two stores participated (relational + parallel).
    let active = r
        .report
        .per_store
        .iter()
        .filter(|(_, m)| m.requests > 0)
        .count();
    assert!(active >= 2, "expected a cross-store plan");
}

#[test]
fn fragment_lifecycle_preserves_answers() {
    let m = generate(cfg());
    let mut est = deploy_baseline(&m, Latencies::zero());
    let sql = "SELECT p.theme, p.language FROM Prefs p WHERE p.uid = 4";
    let before = sorted(est.query_sql(sql).unwrap().rows);
    // Add the KV fragment, ask again, drop it, ask again.
    let id = est
        .add_fragment(estocada::FragmentSpec::KeyValue {
            view: estocada_pivot::CqBuilder::new("TmpPrefsKV")
                .head_vars(["uid", "theme", "language", "newsletter"])
                .atom("Prefs", |a| {
                    a.v("uid").v("theme").v("language").v("newsletter")
                })
                .build(),
        })
        .unwrap();
    let during = sorted(est.query_sql(sql).unwrap().rows);
    est.drop_fragment(&id).unwrap();
    let after = sorted(est.query_sql(sql).unwrap().rows);
    assert_eq!(before, during);
    assert_eq!(before, after);
}
