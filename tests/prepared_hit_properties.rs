//! A prepared plan-cache hit runs its cached candidate as it is — no plan
//! clone, the query's fault handling handed to the run — and must answer
//! and report exactly what planning afresh does.
//!
//! On the three builtin deployments, at batch sizes 1, 3 and 1024, every
//! query below runs twice as a prepared hit and once through
//! `no_plan_cache()`: the three results must agree on rows and on every
//! report field but the timers and the cache activity. After a write, the
//! first run either keeps the prepared plan, priced as before (the write
//! moved no relation it priced past twice or half its rows), or prices it
//! again as the twin does; it answers as the twin does either way, and is
//! hit from then on. The three agree under a fault plan that takes down the
//! store of the chosen plan's first unit too, where the hits fail over
//! without translating anything and every delegated leaf of every attempt
//! runs through the query's retry loop. A 200-request cycle over consecutive
//! user ids, once admitted, re-translates nothing: the plan cache spreads
//! the requests over its shards.

mod common;

use common::{
    answer_of, cfg, observed, prices_of, ranking_of, run_of, with_fast_retry, DEPLOYMENTS, Q,
};
use estocada::{Estocada, FaultKind, FaultPlan, Latencies, QueryResult, Report};
use estocada_pivot::{CqBuilder, Value};
use estocada_workloads::analytics::{analytics_sql, AnalyticsQuery};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::readwrite::{run_rw_workload, rw_workload, RwConfig};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use std::time::Duration;

/// What a cart lookup selects.
const CART: [&str; 2] = ["pid", "qty"];

/// Batch sizes every comparison runs at.
const BATCH_SIZES: [usize; 3] = [1, 3, 1024];

fn market() -> Marketplace {
    generate(cfg(40, 25, 150, 240, 23))
}

/// Point lookups of each family, the personalized join and a rollup.
fn queries() -> Vec<Q> {
    vec![
        Q::Sql(pref_sql(3)),
        Q::Sql(user_orders_sql(5)),
        Q::Doc(4),
        Q::Cq(7),
        Q::Sql(personalized_sql(3, "laptop")),
        Q::Sql(analytics_sql(&AnalyticsQuery::CategoryVolume)),
    ]
}

/// Send `q` to `est` at `batch` rows per batch, through the plan cache or
/// past it.
fn send(est: &Estocada, q: &Q, batch: usize, cached: bool) -> estocada::Result<QueryResult> {
    let pattern;
    let request = match q {
        Q::Sql(sql) => est.query(sql),
        Q::Doc(uid) => {
            pattern = cart_pattern(*uid);
            est.query_pattern(&pattern, &CART)
        }
        Q::Cq(uid) => {
            let cq = CqBuilder::new("Q")
                .head_vars(["theme", "language"])
                .atom("Prefs", |a| a.c(*uid).v("theme").v("language").v("nl"))
                .build();
            est.query_pivot(cq, vec!["theme".into(), "language".into()], vec![])
        }
    };
    let request = request.with_batch_size(batch);
    match cached {
        true => request.run(),
        false => request.no_plan_cache().run(),
    }
}

/// The report of a run that found its prepared plan and translated nothing.
fn assert_prepared_hit(report: &Report, ctx: &str) {
    assert!(report.plan_cache.is_some_and(|pc| pc.hit), "{ctx}");
    assert_eq!(report.translate_time, Duration::ZERO, "{ctx}");
    if let Some(res) = &report.resilience {
        assert_eq!(res.translations, 0, "{ctx}: a hit translates nothing");
    }
}

/// Run `q` twice as a prepared hit and once planned afresh, `before` each
/// run; all three must agree. Returns the first hit's result.
fn hits_equal_afresh(
    est: &mut Estocada,
    q: &Q,
    batch: usize,
    before: impl Fn(&mut Estocada),
    ctx: &str,
) -> estocada::Result<QueryResult> {
    before(est);
    let first = send(est, q, batch, true);
    before(est);
    let second = send(est, q, batch, true);
    before(est);
    let afresh = send(est, q, batch, false);
    for hit in [&first, &second].into_iter().flatten() {
        assert_prepared_hit(&hit.report, ctx);
    }
    assert_eq!(observed(&first), observed(&second), "{ctx}: two hits");
    assert_eq!(observed(&first), observed(&afresh), "{ctx}: hit vs afresh");
    first
}

/// Send `q` until its plan is prepared (a miss, then the run that keeps it).
fn prepare(est: &Estocada, q: &Q) {
    for _ in 0..2 {
        send(est, q, 1024, true).expect("planned");
    }
}

#[test]
fn a_prepared_hit_answers_and_reports_what_planning_afresh_does() {
    let m = market();
    for (name, deploy) in DEPLOYMENTS {
        let mut est = with_fast_retry(deploy(&m, Latencies::zero()));
        for q in queries() {
            prepare(&est, &q);
            for batch in BATCH_SIZES {
                let ctx = format!("{name} {q:?} at batch size {batch}");
                let r = hits_equal_afresh(&mut est, &q, batch, |_| {}, &ctx);
                let r = r.unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert!(r.report.resilience.is_none(), "{ctx}: a clean run");
            }
        }
    }
}

/// Three single-row writes, then a bulk insert that triples `Orders`: the
/// plans that price no relation it moves are kept through all four, and the
/// ones that price `Orders` are priced again after the last.
#[test]
fn after_a_write_the_plan_is_kept_or_priced_again_once_and_then_hit() {
    let m = market();
    let single_rows = rw_workload(
        &m,
        RwConfig {
            ops: 3,
            write_ratio: 1.0,
            seed: 11,
        },
    );
    let bulk: Vec<Vec<Value>> = (0..2 * m.config.orders as i64)
        .map(|i| {
            let (uid, pid) = (i % m.config.users as i64, i % m.config.products as i64);
            let amount = Value::Double(i as f64 / 4.0);
            vec![
                Value::Int(10_000_000 + i),
                Value::Int(uid),
                Value::Int(pid),
                Value::str("laptop"),
                amount,
            ]
        })
        .collect();
    // The single-row writes in order, then the bulk insert.
    let write = |est: &mut Estocada, i: usize| {
        let written = match single_rows.get(i) {
            Some(op) => run_rw_workload(est, std::slice::from_ref(op)).map(drop),
            None => est.insert_rows("sales", "Orders", bulk.clone()).map(drop),
        };
        written.expect("write");
    };
    let (mut kept, mut repriced) = (0, 0);
    for (name, deploy) in DEPLOYMENTS {
        let mut est = with_fast_retry(deploy(&m, Latencies::zero()));
        let queries = queries();
        queries.iter().for_each(|q| prepare(&est, q));
        // Each query's last report: what its prepared plan was priced at.
        let mut last: Vec<Report> = (queries.iter())
            .map(|q| send(&est, q, 1024, true).expect("a hit").report)
            .collect();
        for i in 0..=single_rows.len() {
            write(&mut est, i);
            for (q, last) in queries.iter().zip(&mut last) {
                let ctx = format!("{name} {q:?} after write {i}");
                let batch = BATCH_SIZES[i % BATCH_SIZES.len()];
                let repriced_before = est.metrics().plans_repriced;
                let after = send(&est, q, batch, true);
                let afresh = send(&est, q, batch, false);
                assert_eq!(answer_of(&after), answer_of(&afresh), "{ctx}");
                let got = &after.as_ref().expect("answered").report;
                let twin = &afresh.as_ref().expect("answered").report;
                // The write moved no priced relation past the drift bound
                // and the plan is kept, priced as before; or one moved past
                // it, and the plan is priced again from its parse and
                // outcome, no chase, as the twin prices it.
                assert!(got.plan_cache.is_some_and(|pc| pc.hit), "{ctx}");
                let repriced_now = est.metrics().plans_repriced - repriced_before;
                if got.translate_time == Duration::ZERO {
                    assert_eq!(repriced_now, 0, "{ctx}");
                    assert_eq!(prices_of(got), prices_of(last), "{ctx}: kept");
                    kept += 1;
                } else {
                    assert_eq!(repriced_now, 1, "{ctx}");
                    assert_eq!(prices_of(got), prices_of(twin), "{ctx}: priced again");
                    repriced += 1;
                }
                // Ranked alike, the two ran alike.
                assert_eq!(ranking_of(got), ranking_of(twin), "{ctx}");
                assert_eq!(run_of(got), run_of(twin), "{ctx}");
                // From then on the plan is hit, and answers as it did.
                for _ in 0..2 {
                    let hit = send(&est, q, batch, true);
                    assert_prepared_hit(&hit.as_ref().expect("answered").report, &ctx);
                    assert_eq!(observed(&hit), observed(&after), "{ctx}");
                }
                *last = got.clone();
            }
        }
    }
    // Both arms are taken.
    assert!(
        kept > 0 && repriced > 0,
        "kept {kept}, priced again {repriced}"
    );
}

/// The store a delegated unit's label names (`"key-value: GET …"`).
fn store_of(label: &str) -> &str {
    label.split(':').next().expect("a labelled unit")
}

#[test]
fn a_failing_first_store_fails_over_through_guarded_leaves_without_translating() {
    let m = market();
    let mut failovers = Vec::new();
    for (name, deploy) in DEPLOYMENTS {
        let mut est = with_fast_retry(deploy(&m, Latencies::zero()));
        for q in queries() {
            prepare(&est, &q);
            let clean = send(&est, &q, 1024, true).expect("a clean hit");
            let down = store_of(&clean.report.delegated[0]).to_string();
            let ctx = format!("{name} {q:?} with {down} down");
            // Fresh fault cursors and closed breakers before every run, so
            // the three runs meet the same faults.
            let outage = FaultPlan::new(5).down(&down, FaultKind::Unavailable);
            let install = |est: &mut Estocada| {
                est.set_fault_plan(Some(outage.clone()));
                est.reset_backend_health();
            };
            let first = hits_equal_afresh(&mut est, &q, 1024, install, &ctx);
            let Ok(failed_over) = first else {
                est.set_fault_plan(None);
                est.reset_backend_health();
                continue;
            };
            let res = (failed_over.report.resilience.as_ref()).expect("the outage was met");
            // The first-ranked plan's leaf on the down store retried: it ran
            // through the query's retry loop.
            assert!(res.retries > 0, "{ctx}: {res:?}");
            assert!(res.attempts.len() >= 2, "{ctx}: {res:?}");
            assert_eq!(res.translations, 0, "{ctx}");
            assert_eq!(sorted(&failed_over.rows), sorted(&clean.rows), "{ctx}");
            // Every store the succeeding attempt reads fails its first
            // operation once too: its leaves retry it only if the failover
            // attempt runs them through the same loop.
            let last = res.attempts.last().expect("an attempt");
            let blips = (last.systems.iter()).fold(outage, |p, sys| {
                p.outage(&sys.to_string(), 1, 1, FaultKind::Unavailable)
            });
            est.set_fault_plan(Some(blips));
            est.reset_backend_health();
            let blipped = send(&est, &q, 1024, true).expect("every blip is retried");
            let again = blipped.report.resilience.expect("the outage was met");
            assert_eq!(again.attempts.len(), res.attempts.len(), "{ctx}");
            let extra = again.retries - res.retries;
            assert!(extra >= last.systems.len() as u64, "{ctx}: {again:?}");
            assert_eq!(sorted(&blipped.rows), sorted(&clean.rows), "{ctx}");
            est.set_fault_plan(None);
            est.reset_backend_health();
            failovers.push(ctx);
        }
    }
    // Each deployment past the baseline holds a second plan of a lookup.
    assert!(failovers.len() >= 4, "{failovers:#?}");
}

fn sorted(rows: &[Vec<estocada_pivot::Value>]) -> Vec<Vec<estocada_pivot::Value>> {
    common::sorted(rows.to_vec())
}

#[test]
fn a_cycle_of_two_hundred_consecutive_users_is_translated_once() {
    let m = generate(cfg(220, 25, 300, 240, 29));
    let est = deploy_kv_migrated(&m, Latencies::zero());
    let sql: Vec<String> = (0..200).map(pref_sql).collect();
    // A miss, then the run that keeps the plan.
    for _ in 0..2 {
        sql.iter()
            .for_each(|s| drop(est.query(s).run().expect("planned")));
    }
    for s in &sql {
        let r = est.query(s).run().expect("answered");
        assert_prepared_hit(&r.report, s);
    }
}
