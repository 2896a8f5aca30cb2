//! Pre-built deployments of the marketplace scenario — the storage
//! configurations the paper's Section II walks through, plus query helpers.
//!
//! - [`deploy_baseline`]: first release — Postgres-like store for users /
//!   prefs / orders / shipping, MongoDB-like store for carts, SOLR-like
//!   index for the catalog, Spark-like store for the web logs.
//! - [`deploy_kv_migrated`]: baseline + Voldemort/Redis-like key-value
//!   fragments for user preferences and shopping carts (the first change,
//!   "+20% on the application workload").
//! - [`deploy_materialized_join`]: the second change — the join of past
//!   purchases and browsing history materialized as a relation in the
//!   parallel store, indexed by user ID and product category ("an extra
//!   40%").

use crate::marketplace::{Marketplace, W1Query};
use estocada::{Estocada, FragmentSpec, Latencies, QueryResult, ValidationMode};
use estocada_pivot::encoding::document::{PatternStep, TreePattern};
use estocada_pivot::{Cq, CqBuilder, Symbol, Term};
use std::time::Duration;

/// The cart tree pattern binding `(pid, qty)` of every item of one user.
/// Uses explicit child steps so that fragment views over the same shape
/// match structurally.
pub fn cart_pattern(uid: i64) -> TreePattern {
    TreePattern::new("Carts")
        .with_step(PatternStep::child("user").eq(uid))
        .with_step(
            PatternStep::child("items").with_child(
                PatternStep::child("$item")
                    .with_child(PatternStep::child("pid").bind("pid"))
                    .with_child(PatternStep::child("qty").bind("qty")),
            ),
        )
}

/// The cart view (same pattern, key variable instead of the constant):
/// `CartKV(user, pid, qty)`.
pub fn cart_kv_view() -> Cq {
    let pattern = TreePattern::new("Carts")
        .with_step(PatternStep::child("user").bind("user"))
        .with_step(
            PatternStep::child("items").with_child(
                PatternStep::child("$item")
                    .with_child(PatternStep::child("pid").bind("pid"))
                    .with_child(PatternStep::child("qty").bind("qty")),
            ),
        );
    let mut next = 0u32;
    let (atoms, bindings) = pattern.to_atoms(&mut next);
    let term_of = |name: &str| -> Term {
        bindings
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.clone())
            .expect("binding")
    };
    Cq::new(
        Symbol::intern("CartKV"),
        vec![term_of("user"), term_of("pid"), term_of("qty")],
        atoms,
    )
}

/// SQL of the preference lookup.
pub fn pref_sql(uid: i64) -> String {
    format!("SELECT p.theme, p.language FROM Prefs p WHERE p.uid = {uid}")
}

/// SQL of the order history lookup.
pub fn user_orders_sql(uid: i64) -> String {
    format!("SELECT o.oid, o.amount FROM Orders o WHERE o.uid = {uid}")
}

/// SQL of the personalized item search: purchases × browsing history of one
/// user within one category.
pub fn personalized_sql(uid: i64, category: &str) -> String {
    format!(
        "SELECT o.pid, l.pid, o.amount, l.dwell_ms FROM Orders o, WebLog l \
         WHERE o.uid = {uid} AND l.uid = {uid} \
         AND o.category = '{category}' AND l.category = '{category}'"
    )
}

/// First-release deployment (see module docs). Every builtin deployment
/// runs its DDL under [`ValidationMode::Strict`]: the static analyzer
/// certifies each step, and a regression that introduced an
/// error-severity finding would fail these constructors outright.
pub fn deploy_baseline(m: &Marketplace, latencies: Latencies) -> Estocada {
    let mut est = Estocada::new(latencies);
    est.set_validation(ValidationMode::Strict);
    est.register_dataset(m.sales.clone()).unwrap();
    est.register_dataset(m.carts.clone()).unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "sales".into(),
        only: Some(vec![
            "Users".into(),
            "Prefs".into(),
            "Products".into(),
            "Orders".into(),
            "Shipping".into(),
        ]),
    })
    .expect("native tables");
    est.add_fragment(FragmentSpec::NativeDoc {
        dataset: "Carts".into(),
    })
    .expect("native docs");
    // The first release would index carts by user in the document store.
    est.stores.doc.create_index("Carts", "user");
    est.add_fragment(FragmentSpec::TextIndex {
        table: "Products".into(),
    })
    .expect("text index");
    // Web logs live in the parallel cluster.
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("WebLogPar")
            .head_vars(["lid", "uid", "pid", "category", "dwell_ms"])
            .atom("WebLog", |a| {
                a.v("lid").v("uid").v("pid").v("category").v("dwell_ms")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    })
    .expect("weblog parallel");
    est
}

/// Baseline plus the key-value migration of preferences and carts.
pub fn deploy_kv_migrated(m: &Marketplace, latencies: Latencies) -> Estocada {
    let mut est = deploy_baseline(m, latencies);
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("PrefsKV")
            .head_vars(["uid", "theme", "language", "newsletter"])
            .atom("Prefs", |a| {
                a.v("uid").v("theme").v("language").v("newsletter")
            })
            .build(),
    })
    .expect("prefs kv");
    est.add_fragment(FragmentSpec::KeyValue {
        view: cart_kv_view(),
    })
    .expect("cart kv");
    est
}

/// KV-migrated deployment plus the materialized purchases⋈browsing join in
/// the parallel store, indexed by (uid, category).
pub fn deploy_materialized_join(m: &Marketplace, latencies: Latencies) -> Estocada {
    let mut est = deploy_kv_migrated(m, latencies);
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("UserHist")
            .head_vars(["uid", "category", "opid", "amount", "lpid", "dwell_ms"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("opid").v("category").v("amount")
            })
            .atom("WebLog", |a| {
                a.v("lid").v("uid").v("lpid").v("category").v("dwell_ms")
            })
            .build(),
        index_on: vec!["uid".into(), "category".into()],
        partitions: 0,
    })
    .expect("materialized join");
    est
}

/// Run one W1 query, returning its result. Takes `&Estocada`: W1 clients
/// share one engine.
pub fn run_w1_query(est: &Estocada, q: &W1Query) -> estocada::Result<QueryResult> {
    match q {
        W1Query::PrefLookup(uid) => est.query_sql(&pref_sql(*uid)),
        W1Query::CartLookup(uid) => {
            let p = cart_pattern(*uid);
            est.query_doc(&p, &["pid", "qty"])
        }
        W1Query::UserOrders(uid) => est.query_sql(&user_orders_sql(*uid)),
    }
}

/// Execute a W1 workload, summing *execution* time (stores + mediator
/// runtime; excludes rewriting, which a deployed application pays once per
/// query template — see EXPERIMENTS.md).
pub fn run_w1_exec_time(est: &Estocada, workload: &[W1Query]) -> Duration {
    let mut total = Duration::ZERO;
    for q in workload {
        let r = run_w1_query(est, q).expect("workload query failed");
        total += r.report.exec.total_time;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::{generate, MarketplaceConfig};

    fn small() -> Marketplace {
        generate(MarketplaceConfig {
            users: 60,
            products: 30,
            orders: 200,
            log_entries: 400,
            skew: 0.8,
            seed: 5,
        })
    }

    #[test]
    fn baseline_answers_all_w1_kinds() {
        let m = small();
        let est = deploy_baseline(&m, Latencies::zero());
        assert!(run_w1_query(&est, &W1Query::PrefLookup(3)).is_ok());
        assert!(run_w1_query(&est, &W1Query::CartLookup(3)).is_ok());
        assert!(run_w1_query(&est, &W1Query::UserOrders(3)).is_ok());
    }

    #[test]
    fn rewrite_worker_count_does_not_change_answers() {
        let m = small();
        let pinned = |workers: usize| {
            let mut est = deploy_kv_migrated(&m, Latencies::zero());
            est.set_rewrite_config(est.rewrite_config().with_parallelism(workers));
            est
        };
        let (serial, parallel) = (pinned(1), pinned(4));
        assert_eq!(parallel.rewrite_config().parallelism, 4);
        for q in [
            W1Query::PrefLookup(3),
            W1Query::CartLookup(7),
            W1Query::UserOrders(13),
        ] {
            let a = run_w1_query(&serial, &q).unwrap();
            let b = run_w1_query(&parallel, &q).unwrap();
            assert_eq!(a.rows, b.rows, "{q:?} differs across worker counts");
            assert_eq!(
                a.report.alternatives.len(),
                b.report.alternatives.len(),
                "{q:?} found different rewriting sets"
            );
        }
    }

    #[test]
    fn kv_migrated_uses_kv_for_prefs_and_carts() {
        let m = small();
        let est = deploy_kv_migrated(&m, Latencies::zero());
        let r = run_w1_query(&est, &W1Query::PrefLookup(3)).unwrap();
        assert!(
            r.report.delegated[0].starts_with("key-value: GET PrefsKV"),
            "got {:?}",
            r.report.delegated
        );
        let r = run_w1_query(&est, &W1Query::CartLookup(3)).unwrap();
        assert!(
            r.report.delegated[0].starts_with("key-value: GET CartKV"),
            "got {:?}",
            r.report.delegated
        );
    }

    #[test]
    fn kv_and_baseline_agree_on_results() {
        let m = small();
        let base = deploy_baseline(&m, Latencies::zero());
        let kv = deploy_kv_migrated(&m, Latencies::zero());
        for uid in [0, 1, 7, 13] {
            let a = run_w1_query(&base, &W1Query::CartLookup(uid)).unwrap();
            let b = run_w1_query(&kv, &W1Query::CartLookup(uid)).unwrap();
            let mut ra = a.rows.clone();
            let mut rb = b.rows.clone();
            ra.sort();
            rb.sort();
            assert_eq!(ra, rb, "cart {uid} differs across configurations");
        }
    }

    #[test]
    fn personalized_search_improves_with_materialized_join() {
        let m = small();
        let before = deploy_kv_migrated(&m, Latencies::zero());
        let after = deploy_materialized_join(&m, Latencies::zero());
        let sql = personalized_sql(1, "laptop");
        let rb = before.query_sql(&sql).unwrap();
        let ra = after.query_sql(&sql).unwrap();
        let mut x = rb.rows.clone();
        let mut y = ra.rows.clone();
        x.sort();
        y.sort();
        assert_eq!(x, y, "results must agree");
        assert!(
            ra.report.delegated[0].starts_with("parallel: LOOKUP UserHist"),
            "expected indexed lookup, got {:?}",
            ra.report.delegated
        );
        // The before-plan touches two systems.
        assert!(rb.report.delegated.len() >= 2);
    }
}
