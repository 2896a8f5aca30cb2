//! `Estocada::metrics`, checked against what one session did to
//! `deploy_materialized_join`: an added and a dropped fragment, three DML
//! batches, repeated queries through the plan cache and past it — the
//! first of them indexing a relational column and keying a parallel dataset
//! on demand, each moving the index generation once — a scripted key-value
//! outage, and two more writes, one that keeps every prepared plan and one
//! that gets some priced again. At every step the text exposition is parsed
//! back: no name and label set appears twice, and every value is the one
//! the snapshot holds.

mod common;

use estocada::{
    BreakerState, Estocada, FaultKind, FaultPlan, FragmentSpec, Latencies, Metrics, SystemId,
};
use estocada_pivot::{CqBuilder, Value};
use estocada_workloads::marketplace::generate;
use estocada_workloads::{
    analytics_sql, cart_pattern, deploy_materialized_join, pref_sql, user_orders_sql,
    AnalyticsQuery,
};
use std::collections::BTreeMap;

/// Datasets the deployment registers (`sales` and `Carts`); each of its
/// other DDL steps adds a fragment.
const DATASETS: u64 = 2;

/// The exposition's lines as `name{labels} → value`, failing on a line
/// that is not one and on a name and label set seen twice.
fn parse(text: &str) -> BTreeMap<String, u128> {
    let mut lines = BTreeMap::new();
    for line in text.lines() {
        let (key, value) = line.rsplit_once(' ').expect("`name{labels} value`");
        let value = value
            .parse()
            .unwrap_or_else(|_| panic!("not an integer: {line}"));
        assert!(
            lines.insert(key.to_string(), value).is_none(),
            "twice: {key}"
        );
    }
    lines
}

/// What the exposition of `m` must say, from the snapshot's fields.
fn expected(m: &Metrics) -> BTreeMap<String, u128> {
    let mut want = BTreeMap::new();
    let mut put = |key: String, value: u128| want.insert(key, value);
    put("estocada_catalog_epoch".into(), m.catalog_epoch.into());
    put("estocada_data_epoch".into(), m.data_epoch.into());
    for (cache, s) in [("plan", m.plan_cache), ("lint", m.lint_cache)] {
        put(format!("estocada_{cache}_cache_hits_total"), s.hits.into());
        put(
            format!("estocada_{cache}_cache_misses_total"),
            s.misses.into(),
        );
        put(format!("estocada_{cache}_cache_entries"), s.entries as u128);
    }
    put(
        "estocada_plans_repriced_total".into(),
        m.plans_repriced.into(),
    );
    put(
        "estocada_index_generation".into(),
        m.index_generation.into(),
    );
    for b in &m.backends {
        let sys = format!("system=\"{}\"", b.system);
        let (h, s) = (b.health, b.store);
        for state in [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ] {
            let key = format!("estocada_breaker_state{{{sys},state=\"{state}\"}}");
            put(key, u128::from(h.state == state));
        }
        let per_system = [
            (
                "breaker_consecutive_failures",
                u128::from(h.consecutive_failures),
            ),
            ("breaker_trips_total", h.trips.into()),
            ("backend_successes_total", h.successes.into()),
            ("backend_failures_total", h.failures.into()),
            ("backend_gated_ops_total", b.gated_ops.into()),
            ("store_requests_total", s.requests.into()),
            ("store_tuples_out_total", s.tuples_out.into()),
            ("store_tuples_scanned_total", s.tuples_scanned.into()),
            ("store_bytes_out_total", s.bytes_out.into()),
            ("store_busy_ns_total", s.busy.as_nanos()),
        ];
        for (name, value) in per_system {
            put(format!("estocada_{name}{{{sys}}}"), value);
        }
    }
    for f in m.fragments {
        let id = format!("fragment=\"{}\"", f.id);
        put(
            format!("estocada_fragment_high_water{{{id}}}"),
            f.high_water.into(),
        );
        put(
            format!("estocada_fragment_uses_total{{{id}}}"),
            f.use_count.get().into(),
        );
        for (r, s) in f.relations.iter().zip(&f.stats) {
            let rel = format!("{id},relation=\"{}\"", r.name);
            put(format!("estocada_fragment_rows{{{rel}}}"), s.rows.into());
            put(format!("estocada_fragment_bytes{{{rel}}}"), s.bytes.into());
            for (column, d) in s.distinct.iter().enumerate() {
                let key = format!("estocada_fragment_distinct{{{rel},column=\"{column}\"}}");
                put(key, (*d).into());
            }
        }
    }
    want
}

/// The snapshot's epochs are the DDL and DML steps so far, every fragment
/// is maintained through the data epoch, and the exposition says exactly
/// what the snapshot holds.
fn check(m: &Metrics, ddl: u64, dml: u64, step: &str) {
    assert_eq!(m.catalog_epoch, ddl, "catalog epoch after {step}");
    assert_eq!(m.data_epoch, dml, "data epoch after {step}");
    for f in m.fragments {
        assert_eq!(f.high_water, m.data_epoch, "{} after {step}", f.id);
    }
    assert_eq!(
        parse(&m.to_string()),
        expected(m),
        "exposition after {step}"
    );
}

/// A preference, an order-history and a cart lookup for three users, each
/// through the plan cache; returns how many queries ran.
fn run_lookups(est: &Estocada) -> u64 {
    let mut ran = 0;
    for uid in [1i64, 3, 7] {
        est.query(&pref_sql(uid)).run().expect("pref");
        est.query(&user_orders_sql(uid)).run().expect("orders");
        let pattern = cart_pattern(uid);
        let cart = est.query_pattern(&pattern, &["pid", "qty"]).run();
        cart.expect("cart");
        ran += 3;
    }
    ran
}

#[test]
fn the_snapshot_counts_what_the_session_did() {
    let market = generate(common::cfg(40, 24, 150, 240, 5));
    let mut est = deploy_materialized_join(&market, Latencies::zero());
    let mut ddl = DATASETS + est.metrics().fragments.len() as u64;
    check(&est.metrics(), ddl, 0, "deploying");

    let users_kv = CqBuilder::new("UsersKV")
        .head_vars(["uid", "name", "tier"])
        .atom("Users", |a| a.v("uid").v("name").v("tier"))
        .build();
    let id = est
        .add_fragment(FragmentSpec::KeyValue { view: users_kv })
        .expect("add");
    ddl += 1;
    let added = est.metrics();
    assert!(added.fragments.iter().any(|f| f.id == id));
    check(&added, ddl, 0, "add_fragment");
    est.drop_fragment(&id).expect("drop");
    ddl += 1;
    let dropped = est.metrics();
    assert!(dropped.fragments.iter().all(|f| f.id != id));
    check(&dropped, ddl, 0, "drop_fragment");

    let order = |oid: i64| {
        vec![
            Value::Int(oid),
            Value::Int(1),
            Value::Int(2),
            Value::str("books"),
            Value::Double(9.5),
        ]
    };
    est.insert_rows("sales", "Orders", vec![order(90_001), order(90_002)])
        .expect("insert");
    check(&est.metrics(), ddl, 1, "an insert");
    est.delete_rows("sales", "Orders", vec![order(90_002)])
        .expect("delete");
    check(&est.metrics(), ddl, 2, "a delete");
    let pref = vec![
        Value::Int(1),
        Value::str("dark"),
        Value::str("fr"),
        Value::Bool(true),
    ];
    est.upsert_rows("sales", "Prefs", vec![pref])
        .expect("upsert");
    check(&est.metrics(), ddl, 3, "an upsert");

    // Every query through the plan cache counts one hit or one miss; one
    // past it counts neither. The first order-history lookup paid a scan of
    // `Orders` for a `uid` and indexed that column: the index generation
    // moved once, and no lookup after it moves it again.
    let generation = est.metrics().index_generation;
    let mut cached = run_lookups(&est);
    assert_eq!(est.metrics().index_generation, generation + 1, "Orders.uid");
    for _ in 0..2 {
        cached += run_lookups(&est);
    }
    assert_eq!(est.metrics().index_generation, generation + 1, "a repeat");
    // The first category rollup paid a scan of the unkeyed `WebLogPar` for
    // a `category`: the dataset is keyed on it, once.
    let engagement = analytics_sql(&AnalyticsQuery::CategoryEngagement {
        category: "laptop".into(),
    });
    assert!(est.stores.par.key_columns("WebLogPar").is_empty());
    for _ in 0..3 {
        est.query(&engagement).run().expect("engagement");
        cached += 1;
        assert_eq!(est.metrics().index_generation, generation + 2, "WebLogPar");
    }
    assert_eq!(est.stores.par.key_columns("WebLogPar"), [3], "`category`");
    for uid in [1i64, 3] {
        est.query(&pref_sql(uid))
            .no_plan_cache()
            .run()
            .expect("pref");
    }
    let queried = est.metrics();
    assert!(queried.plan_cache.hits > 0 && queried.plan_cache.misses > 0);
    assert_eq!(
        queried.plan_cache.hits + queried.plan_cache.misses,
        cached,
        "one hit or miss per cached query"
    );
    check(&queried, ddl, 3, "the queries");

    // A scripted key-value outage: the first lookup burns its retries
    // against the dead store and trips the breaker, and every query fails
    // over.
    let before = queried.backends;
    est.set_fault_plan(Some(
        FaultPlan::new(7).down("key-value", FaultKind::Unavailable),
    ));
    cached += run_lookups(&est);
    let under = est.metrics();
    let kv = under.backends[SystemId::KeyValue as usize];
    assert_eq!(kv.system, SystemId::KeyValue);
    assert_eq!(kv.health.state, BreakerState::Open);
    assert_eq!(kv.health.trips, 1);
    assert!(kv.gated_ops > 0, "the outage was met");
    assert_eq!(
        kv.gated_ops, kv.health.failures,
        "every gated request was lost"
    );
    assert_eq!(
        kv.store.requests,
        before[SystemId::KeyValue as usize].store.requests
    );
    for (b, was) in under.backends.iter().zip(&before) {
        assert_eq!(b.system, was.system);
        if b.system != SystemId::KeyValue {
            assert_eq!(b.health.state, BreakerState::Closed, "{}", b.system);
            let served = b.store.requests - was.store.requests;
            assert_eq!(b.gated_ops, served, "{}: gated vs served", b.system);
        }
    }
    assert!(under.backends[SystemId::Relational as usize].gated_ops > 0);
    assert_eq!(under.plan_cache.hits + under.plan_cache.misses, cached);
    check(&under, ddl, 3, "the outage");

    est.set_fault_plan(None);
    est.reset_backend_health();
    let healed = est.metrics();
    for b in &healed.backends {
        assert_eq!(b.health.state, BreakerState::Closed, "{}", b.system);
        assert_eq!((b.gated_ops, b.health.trips), (0, 0), "{}", b.system);
    }
    check(&healed, ddl, 3, "the outage ended");

    // A write keeps the prepared plans while every relation they priced
    // stays within twice or half the rows it was priced at. Once the
    // lookups are prepared at the current index generation, an upsert of
    // one preference prices none of them again.
    run_lookups(&est);
    let settled = est.metrics().plans_repriced;
    let pref = |theme: &str| {
        vec![
            Value::Int(3),
            Value::str(theme),
            Value::str("de"),
            Value::Bool(false),
        ]
    };
    est.upsert_rows("sales", "Prefs", vec![pref("light")])
        .expect("upsert");
    run_lookups(&est);
    check(&est.metrics(), ddl, 4, "a kept upsert");
    assert_eq!(est.metrics().plans_repriced, settled, "an upsert kept them");
    // Orders more than doubled: the three order-history plans price it and
    // are priced again, each once; the others price nothing it moved.
    let orders: Vec<Vec<Value>> = (0..2 * market.config.orders as i64 + 10)
        .map(|i| order(100_000 + i))
        .collect();
    est.insert_rows("sales", "Orders", orders).expect("insert");
    run_lookups(&est);
    run_lookups(&est);
    let grown = est.metrics();
    assert_eq!(grown.plans_repriced, settled + 3, "the order histories");
    check(&grown, ddl, 5, "Orders more than doubled");
}
