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
//!
//! The parallel arm holds the same five properties for the parallel store:
//! an unkeyed dataset a completed query scanned in full for an `=`
//! constant is keyed on the column of its atom's first constant — rebuilt
//! into one block per key, the build charged as one request scanning the
//! dataset — and the next translation looks the key up.

mod common;

use common::{assert_same_rows, brute_force, cfg, DEPLOYMENTS};
use estocada::catalog::WhereSpec;
use estocada::{DatasetContent, Estocada, FaultKind, FaultPlan, Latencies, QueryResult, SystemId};
use estocada_pivot::Value;
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

/// `(requests, tuples scanned)` of store `sys` during `r`.
fn served(r: &QueryResult, sys: SystemId) -> (u64, u64) {
    let (_, m) = (r.report.per_store.iter())
        .find(|(s, _)| *s == sys)
        .expect("every store is reported");
    (m.requests, m.tuples_scanned)
}

/// `(requests, tuples scanned)` of the relational store during `r`.
fn relational(r: &QueryResult) -> (u64, u64) {
    served(r, SystemId::Relational)
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

// ---------------------------------------------------------------------
// The parallel arm: `WebLogPar`, filled unkeyed on every builtin
// deployment, keyed by the scans that pay for its lack of a key.
// ---------------------------------------------------------------------

/// Web-log rows in the marketplace above.
const LOG_ENTRIES: u64 = 240;

/// The dataset every builtin deployment places `WebLog` in, unkeyed.
const WEBLOG: &str = "WebLogPar";

/// `WebLog`'s `category` column.
const CATEGORY: usize = 3;

/// Reads comparing `WebLog` columns with constants: one category's rollup
/// (`category`: it keys the dataset, running first), one user's visits
/// (`uid`: a scan still, once the dataset is keyed on `category`), a
/// category beside a range, and the personalized join.
fn log_reads() -> Vec<String> {
    vec![
        analytics_sql(&AnalyticsQuery::CategoryEngagement {
            category: "laptop".into(),
        }),
        "SELECT l.lid, l.dwell_ms FROM WebLog l WHERE l.uid = 3".into(),
        "SELECT l.pid FROM WebLog l WHERE l.category = 'phone' AND l.dwell_ms >= 30000".into(),
        personalized_sql(3, "laptop"),
    ]
}

/// `(requests, tuples scanned)` of the parallel store during `r`.
fn parallel(r: &QueryResult) -> (u64, u64) {
    served(r, SystemId::Parallel)
}

/// One DML batch into `WebLog`.
enum LogWrite {
    Insert(Vec<Vec<Value>>),
    Delete(Vec<Vec<Value>>),
    Upsert(Vec<Vec<Value>>),
}

/// The marketplace's `WebLog` rows.
fn log_rows(m: &Marketplace) -> Vec<Vec<Value>> {
    let DatasetContent::Relational(tables) = &m.sales.content else {
        panic!("`sales` is relational");
    };
    let log = tables
        .iter()
        .find(|t| &*t.encoding.relation.as_str() == "WebLog");
    log.expect("a WebLog table").rows.clone()
}

/// An insert, a delete and an upsert into `WebLog`, each row a stored
/// row's user, product and category under some log id: rows of a
/// category the first read rolls up enter and leave, and the upsert moves
/// a `laptop` visit to another row's category.
fn log_writes(m: &Marketplace) -> Vec<LogWrite> {
    let log = log_rows(m);
    let laptop: Vec<&Vec<Value>> = (log.iter())
        .filter(|r| r[CATEGORY] == Value::str("laptop"))
        .collect();
    assert!(laptop.len() >= 5, "laptop visits: {}", laptop.len());
    let other = (log.iter())
        .find(|r| r[CATEGORY] != Value::str("laptop"))
        .expect("a visit of another category");
    let as_lid = |row: &Vec<Value>, lid: &Value| {
        let mut row = row.clone();
        row[0] = lid.clone();
        row
    };
    let born: Vec<Vec<Value>> = [laptop[0], other, laptop[1]]
        .iter()
        .zip(10_000..)
        .map(|(row, lid)| as_lid(row, &Value::Int(lid)))
        .collect();
    vec![
        LogWrite::Insert(born.clone()),
        // A row just inserted, and two the fill stored.
        LogWrite::Delete(vec![born[0].clone(), laptop[2].clone(), laptop[3].clone()]),
        // A stored laptop visit replaced by another category's, and a
        // new log id.
        LogWrite::Upsert(vec![
            as_lid(other, &laptop[4][0]),
            as_lid(laptop[1], &Value::Int(10_010)),
        ]),
    ]
}

fn apply(est: &mut Estocada, write: &LogWrite) {
    let done = match write {
        LogWrite::Insert(rows) => est.insert_rows("sales", "WebLog", rows.clone()),
        LogWrite::Delete(rows) => est.delete_rows("sales", "WebLog", rows.clone()),
        LogWrite::Upsert(rows) => est.upsert_rows("sales", "WebLog", rows.clone()),
    };
    done.expect("a WebLog write");
}

#[test]
fn reads_over_on_demand_keys_answer_like_a_fresh_twin_and_the_oracle() {
    let m = market();
    let writes = log_writes(&m);
    for (name, deploy) in DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        assert!(est.stores.par.key_columns(WEBLOG).is_empty(), "{name}");
        for step in 0..=writes.len() {
            if step > 0 {
                apply(&mut est, &writes[step - 1]);
            }
            // A twin deployed afresh and given the same writes — keyed by
            // its own first read, after them — every read planned past the
            // plan cache.
            let mut twin = deploy(&m, Latencies::zero());
            writes[..step].iter().for_each(|w| apply(&mut twin, w));
            for sql in log_reads() {
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
        // The first read keyed the dataset on `category`, and the writes
        // after it kept the key.
        assert_eq!(est.stores.par.key_columns(WEBLOG), [CATEGORY], "{name}");
        let rollup = run(&est, &log_reads()[0], 1024, true);
        assert_eq!(parallel(&rollup).1, 0, "{name}: a lookup scans nothing");
    }
}

#[test]
fn a_paid_parallel_scan_keys_the_dataset_once_and_the_next_translation_looks_it_up() {
    let m = market();
    let est = deploy_baseline(&m, Latencies::zero());
    let sql = &log_reads()[0];
    // An explain plans and runs nothing: no key comes of it.
    est.query(sql).explain().expect("explained");
    assert!(est.stores.par.key_columns(WEBLOG).is_empty());
    let par = |est: &Estocada| est.stores.par.metrics.snapshot();
    let (generation, before) = (est.stores.index_generation(), par(&est));
    let first = run(&est, sql, 1024, true);
    // The run scanned every visit; the keying after it, one request, too.
    assert_eq!(parallel(&first), (1, LOG_ENTRIES));
    assert!(first.report.plan.contains("SCAN WebLogPar (1 preds)"));
    let after = par(&est).since(&before);
    assert_eq!((after.requests, after.tuples_scanned), (2, 2 * LOG_ENTRIES));
    assert_eq!(est.stores.par.key_columns(WEBLOG), [CATEGORY]);
    assert_eq!(est.stores.index_generation(), generation + 1);
    // The prepared plan re-translates once and looks the key up; nothing
    // is keyed again.
    let second = run(&est, sql, 1024, true);
    assert_eq!(parallel(&second), (1, 0));
    assert!(second.report.translate_time > Duration::ZERO);
    assert!(second.report.plan.contains("LOOKUP WebLogPar by key index"));
    let third = run(&est, sql, 1024, true);
    assert_eq!(third.report.translate_time, Duration::ZERO);
    assert_eq!(par(&est).since(&before).requests, 4);
    assert_eq!(est.stores.index_generation(), generation + 1);
    // The key's block holds the rows the scan selected, in scan order:
    // the rollup is the same, row for row and bit for bit.
    assert_eq!(first.rows, second.rows);
    assert_eq!(second.rows, third.rows);
    let cost = |r: &QueryResult| r.report.alternatives[r.report.chosen].est_cost;
    assert!(
        cost(&second) < cost(&first),
        "a lookup is priced below a scan"
    );
    assert_eq!(cost(&second), cost(&third));
    // A key is never replaced: a paid scan for another column keys
    // nothing.
    let by_user = run(&est, &log_reads()[1], 1024, true);
    assert_eq!(parallel(&by_user), (1, LOG_ENTRIES));
    assert_eq!(est.stores.par.key_columns(WEBLOG), [CATEGORY]);
    assert_eq!(est.stores.index_generation(), generation + 1);
}

#[test]
fn a_refused_keying_waits_for_the_next_scan_and_a_kept_plan_re_translates_after_one() {
    let m = market();
    let mut est = deploy_baseline(&m, Latencies::zero());
    let sql = &log_reads()[0];
    // The gate refuses the first two keyings: both runs scan, and the
    // second keeps its plan, priced as a scan.
    let refuse = FaultPlan::new(1).fail_ops("parallel", "index", 1, 2, FaultKind::Unavailable);
    est.set_fault_plan(Some(refuse));
    for _ in 0..2 {
        assert_eq!(parallel(&run(&est, sql, 1024, true)), (1, LOG_ENTRIES));
    }
    assert!(est.stores.par.key_columns(WEBLOG).is_empty(), "no key yet");
    // The prepared hit still scans; the keying after it passes the gate.
    let hit = run(&est, sql, 1024, true);
    assert_eq!(hit.report.translate_time, Duration::ZERO);
    assert_eq!(parallel(&hit), (1, LOG_ENTRIES));
    assert_eq!(est.stores.par.key_columns(WEBLOG), [CATEGORY]);
    // The keying moved the index generation under the kept plan: it is
    // translated once more, looks up, and is hit again.
    let next = run(&est, sql, 1024, true);
    assert!(next.report.translate_time > Duration::ZERO);
    assert_eq!(parallel(&next), (1, 0));
    let again = run(&est, sql, 1024, true);
    assert_eq!(again.report.translate_time, Duration::ZERO);
    assert_eq!(parallel(&again), (1, 0));
    assert_eq!((hit.rows, next.rows), (again.rows.clone(), again.rows));
}

#[test]
fn a_dataset_added_again_starts_from_its_fill_time_key() {
    let m = market();
    for (name, deploy) in DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        let keys = |est: &Estocada| {
            let mut names = est.stores.par.dataset_names();
            names.sort();
            let key = |d: String| (est.stores.par.key_columns(&d), d);
            names.into_iter().map(key).collect::<Vec<_>>()
        };
        let fill_time = keys(&est);
        for sql in log_reads() {
            run(&est, &sql, 1024, true);
        }
        assert_ne!(keys(&est), fill_time, "{name}: the reads keyed a dataset");
        let weblog = (est.fragments().iter())
            .find(|f| {
                (f.relations.iter())
                    .any(|r| matches!(&r.place, WhereSpec::ParDataset { dataset, .. } if dataset == WEBLOG))
            })
            .expect("the web-log fragment");
        let (id, spec) = (weblog.id.clone(), weblog.spec.clone());
        est.drop_fragment(&id).expect("dropped");
        assert!(est.stores.par.dataset(WEBLOG).is_none());
        est.add_fragment(spec).expect("added again");
        assert_eq!(keys(&est), fill_time, "{name}: only what the fill keys");
        let r = run(&est, &log_reads()[0], 1024, true);
        assert_eq!(parallel(&r), (1, LOG_ENTRIES), "{name}: a scan again");
        assert_eq!(est.stores.par.key_columns(WEBLOG), [CATEGORY], "{name}");
    }
}

#[test]
fn threads_racing_the_first_parallel_scan_agree_and_leave_one_key() {
    let m = market();
    let sql = &log_reads()[0];
    let reference = run(&deploy_baseline(&m, Latencies::zero()), sql, 1024, false).rows;
    for threads in 2..=4 {
        let est = deploy_baseline(&m, Latencies::zero());
        let (generation, before) = (
            est.stores.index_generation(),
            est.stores.par.metrics.snapshot(),
        );
        let start = Barrier::new(threads);
        let runs = 3;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..runs {
                        assert_eq!(run(&est, sql, 1024, true).rows, reference);
                    }
                });
            }
        });
        assert_eq!(
            est.stores.par.key_columns(WEBLOG),
            [CATEGORY],
            "{threads} threads"
        );
        assert_eq!(est.stores.index_generation(), generation + 1);
        // One request per run, and one keying.
        let served = est.stores.par.metrics.snapshot().since(&before).requests;
        assert_eq!(served, (threads * runs) as u64 + 1, "{threads} threads");
    }
}
