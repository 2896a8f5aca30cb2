//! Indexes the workload asks for: once a query has its answer, every
//! relational column its delegated SQL scanned a whole table to compare
//! with an `=` constant is indexed, the build charged by the store as one
//! request scanning the table, and the next translation probes the index.
//!
//! On the three builtin deployments, reads interleaved with inserts,
//! deletes and upserts answer — at batch sizes 1, 3 and 1024, through the
//! plan cache, over the indexes earlier reads built — what a fresh twin
//! replaying the same writes answers through `no_plan_cache()`, and what
//! the fact base's oracle answers. Dropping a fragment and adding it again
//! starts over from the indexes its fill builds, and threads racing the
//! first scan of a table get one answer and leave one index behind.

mod common;

use common::{assert_same_rows, brute_force, cfg, DEPLOYMENTS};
use estocada::catalog::WhereSpec;
use estocada::{Estocada, FaultKind, FaultPlan, Latencies, QueryResult, SystemId};
use estocada_workloads::analytics::{analytics_sql, AnalyticsQuery};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::readwrite::{run_rw_workload, rw_workload, RwConfig, RwOp};
use estocada_workloads::scenarios::{deploy_baseline, personalized_sql, pref_sql, user_orders_sql};
use std::sync::Barrier;
use std::time::Duration;

/// Batch sizes every read runs at.
const BATCH_SIZES: [usize; 3] = [1, 3, 1024];

/// Orders in the marketplace below.
const ORDERS: u64 = 150;

fn market() -> Marketplace {
    generate(cfg(40, 25, ORDERS as usize, 240, 37))
}

/// Reads comparing `Orders` and `Prefs` columns with constants: the
/// order history (`uid`), one category (`category`), a range beside an
/// equality, the personalized join and a per-user rollup.
fn reads() -> Vec<String> {
    vec![
        user_orders_sql(3),
        user_orders_sql(8),
        pref_sql(3),
        "SELECT o.oid FROM Orders o WHERE o.category = 'laptop'".into(),
        "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 2 AND o.amount >= 100".into(),
        personalized_sql(3, "laptop"),
        analytics_sql(&AnalyticsQuery::UserSpendByCategory { uid: 5 }),
    ]
}

fn run(est: &Estocada, sql: &str, batch: usize, cached: bool) -> QueryResult {
    let request = est.query(sql).with_batch_size(batch);
    let result = match cached {
        true => request.run(),
        false => request.no_plan_cache().run(),
    };
    result.unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The indexed columns of every table the relational store holds, by
/// table.
fn indexes(est: &Estocada) -> Vec<(String, Vec<usize>)> {
    let mut tables = est.stores.rel.table_names();
    tables.sort();
    let indexed = |t: String| (est.stores.rel.indexed(&t), t);
    tables
        .into_iter()
        .map(indexed)
        .map(|(i, t)| (t, i))
        .collect()
}

/// `(requests, tuples scanned)` of the relational store during `r`.
fn relational(r: &QueryResult) -> (u64, u64) {
    let (_, m) = (r.report.per_store.iter())
        .find(|(s, _)| *s == SystemId::Relational)
        .expect("every store is reported");
    (m.requests, m.tuples_scanned)
}

/// The indexes the fills of `est`'s fragments build: each relational
/// placement's `indexed` list.
fn fill_time_indexes(est: &Estocada) -> Vec<(String, Vec<usize>)> {
    let mut out: Vec<(String, Vec<usize>)> = (est.fragments().iter())
        .flat_map(|f| &f.relations)
        .filter_map(|r| match &r.place {
            WhereSpec::Table { table, indexed, .. } => {
                let mut indexed = indexed.clone();
                indexed.sort_unstable();
                Some((table.clone(), indexed))
            }
            _ => None,
        })
        .collect();
    out.sort();
    out
}

#[test]
fn reads_over_on_demand_indexes_answer_like_a_fresh_twin_and_the_oracle() {
    let m = market();
    let writes = rw_workload(
        &m,
        RwConfig {
            ops: 9,
            write_ratio: 1.0,
            seed: 13,
        },
    );
    let has = |kind: fn(&RwOp) -> bool| writes.iter().any(kind);
    assert!(has(|w| matches!(w, RwOp::InsertOrder { .. })), "{writes:?}");
    assert!(has(|w| matches!(w, RwOp::DeleteOrder { .. })), "{writes:?}");
    assert!(has(|w| matches!(w, RwOp::UpsertPref { .. })), "{writes:?}");
    for (name, deploy) in DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        let fill_time = fill_time_indexes(&est);
        assert_eq!(indexes(&est), fill_time, "{name}: only fill-time indexes");
        for step in 0..=writes.len() {
            if step > 0 {
                run_rw_workload(&mut est, &writes[step - 1..step]).expect("a write");
            }
            // A twin deployed afresh and given the same writes, every read
            // planned past the plan cache.
            let mut twin = deploy(&m, Latencies::zero());
            run_rw_workload(&mut twin, &writes[..step]).expect("the same writes");
            for sql in reads() {
                let ctx = format!("{name} after {step} writes: {sql}");
                let oracle = brute_force(&est, &sql);
                let afresh = run(&twin, &sql, 1024, false);
                assert_same_rows(&afresh.rows, &oracle, &format!("{ctx}, twin"));
                for batch in BATCH_SIZES {
                    let got = run(&est, &sql, batch, true);
                    assert_same_rows(&got.rows, &oracle, &format!("{ctx} at {batch}"));
                }
            }
        }
        // The reads asked for indexes the fills did not build, and every
        // one of the fills' is still there.
        let built = indexes(&est);
        assert_ne!(built, fill_time, "{name}: no index built on demand");
        for (table, fill) in &fill_time {
            let (_, now) = (built.iter().find(|(t, _)| t == table)).expect("a placed table");
            assert!(fill.iter().all(|c| now.contains(c)), "{name}: {table}");
        }
    }
}

#[test]
fn a_paid_scan_is_indexed_once_and_the_next_translation_probes() {
    let m = market();
    let est = deploy_baseline(&m, Latencies::zero());
    let sql = user_orders_sql(3);
    let rel = |est: &Estocada| est.stores.rel.metrics.snapshot();
    assert_eq!(est.stores.rel.indexed("Orders"), [0], "the key, `oid`");
    let before = rel(&est);
    let first = run(&est, &sql, 1024, true);
    // The run scanned every order; the build after it, one request, too.
    assert_eq!(relational(&first), (1, ORDERS));
    let after = rel(&est).since(&before);
    assert_eq!((after.requests, after.tuples_scanned), (2, 2 * ORDERS));
    assert_eq!(est.stores.rel.indexed("Orders"), [0, 1], "`oid` and `uid`");
    // The prepared plan re-translates once and probes; nothing is built
    // again.
    let second = run(&est, &sql, 1024, true);
    assert_eq!(relational(&second), (1, 0));
    assert!(second.report.translate_time > Duration::ZERO);
    let third = run(&est, &sql, 1024, true);
    assert_eq!(third.report.translate_time, Duration::ZERO);
    assert_eq!(rel(&est).since(&before).requests, 4);
    assert_eq!(first.rows, second.rows);
    let cost = |r: &QueryResult| r.report.alternatives[r.report.chosen].est_cost;
    assert!(
        cost(&second) < cost(&first),
        "a probe is priced below a scan"
    );
    assert_eq!(cost(&second), cost(&third));
    // An explain plans and runs nothing: no index comes of it.
    let category = "SELECT o.oid FROM Orders o WHERE o.category = 'laptop'";
    est.query(category).explain().expect("explained");
    assert_eq!(est.stores.rel.indexed("Orders"), [0, 1]);
}

#[test]
fn a_refused_build_waits_for_the_next_scan_and_a_kept_plan_re_translates_after_one() {
    let m = market();
    let mut est = deploy_baseline(&m, Latencies::zero());
    let sql = user_orders_sql(3);
    // The gate refuses the first two builds: both runs scan, and the second
    // keeps its plan, priced as a scan.
    let refuse = FaultPlan::new(1).fail_ops("relational", "index", 1, 2, FaultKind::Unavailable);
    est.set_fault_plan(Some(refuse));
    for _ in 0..2 {
        assert_eq!(relational(&run(&est, &sql, 1024, true)), (1, ORDERS));
    }
    assert_eq!(est.stores.rel.indexed("Orders"), [0], "no build yet");
    // The prepared hit still scans; the build after it passes the gate.
    let hit = run(&est, &sql, 1024, true);
    assert_eq!(hit.report.translate_time, Duration::ZERO);
    assert_eq!(relational(&hit), (1, ORDERS));
    assert_eq!(est.stores.rel.indexed("Orders"), [0, 1]);
    // The build moved the index generation under the kept plan: it is
    // translated once more, probes, and is hit again.
    let next = run(&est, &sql, 1024, true);
    assert!(next.report.translate_time > Duration::ZERO);
    assert_eq!(relational(&next), (1, 0));
    let again = run(&est, &sql, 1024, true);
    assert_eq!(again.report.translate_time, Duration::ZERO);
    assert_eq!(relational(&again), (1, 0));
    assert_eq!((hit.rows, next.rows), (again.rows.clone(), again.rows));
}

#[test]
fn a_fragment_added_again_starts_from_its_fill_time_indexes() {
    let m = market();
    let mut est = deploy_baseline(&m, Latencies::zero());
    let fill_time = fill_time_indexes(&est);
    for sql in reads() {
        run(&est, &sql, 1024, true);
    }
    assert_ne!(indexes(&est), fill_time, "the reads built indexes");
    let native = (est.fragments().iter())
        .find(|f| {
            f.relations
                .iter()
                .any(|r| matches!(&r.place, WhereSpec::Table { table, .. } if table == "Orders"))
        })
        .expect("the native tables");
    let (id, spec) = (native.id.clone(), native.spec.clone());
    est.drop_fragment(&id).expect("dropped");
    assert!(est.stores.rel.indexed("Orders").is_empty());
    est.add_fragment(spec).expect("added again");
    assert_eq!(indexes(&est), fill_time, "only what the fill builds");
    let r = run(&est, &user_orders_sql(3), 1024, true);
    assert_eq!(relational(&r), (1, ORDERS), "a scan again");
    assert_eq!(est.stores.rel.indexed("Orders"), [0, 1]);
}

#[test]
fn threads_racing_the_first_scan_agree_and_leave_one_index() {
    let m = market();
    let sql = user_orders_sql(5);
    let reference = run(&deploy_baseline(&m, Latencies::zero()), &sql, 1024, false).rows;
    for threads in 2..=4 {
        let est = deploy_baseline(&m, Latencies::zero());
        let (generation, before) = (
            est.stores.rel.index_generation(),
            est.stores.rel.metrics.snapshot(),
        );
        let start = Barrier::new(threads);
        let runs = 3;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..runs {
                        assert_eq!(run(&est, &sql, 1024, true).rows, reference);
                    }
                });
            }
        });
        assert_eq!(
            est.stores.rel.indexed("Orders"),
            [0, 1],
            "{threads} threads"
        );
        assert_eq!(est.stores.rel.index_generation(), generation + 1);
        // One request per run, and one build.
        let served = est.stores.rel.metrics.snapshot().since(&before).requests;
        assert_eq!(served, (threads * runs) as u64 + 1, "{threads} threads");
    }
}
