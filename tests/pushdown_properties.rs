//! The delegation boundary of whole-query pushdown, seen through the public
//! API.
//!
//! When one free-access unit on the relational or the parallel store covers
//! a query, translation folds the head projection, the `DISTINCT` and the
//! `GROUP BY`/aggregate/`HAVING` tail into that unit's native request; every
//! other shape keeps the mediator tail. The contract under test:
//!
//! - **Same answer, same order.** The engine's answer equals — row for row,
//!   doubles bit for bit — the *mediator-only* plan of the rewriting it
//!   chose (the public `translate` of the core with `Plan::Aggregate`
//!   wrapped by hand, exactly as `perfbench`'s traced replay builds it), and
//!   both equal a brute-force fold over `oracle_eval`, on the three builtin
//!   deployments, at batch sizes 1 / 7 / 1024, between write batches.
//! - **Pinned semantics.** Empty selections, `Int`-vs-`Double` `HAVING`
//!   boundaries, duplicate core tuples, `COUNT(*)`.
//! - **Fallbacks.** A head constant, a residual only the mediator can
//!   filter and a second unit all keep the mediator tail, with the answers
//!   the pushed form would give.
//! - **Shipped, not just faster.** `Report::per_store` shows groups, not
//!   tuples, crossing the boundary.

mod common;

use common::{assert_same_rows, brute_force, sorted, DEPLOYMENTS};
use estocada::frontends::{parse_sql, AggregateSpec, ParsedQuery};
use estocada::translate::translate;
use estocada::{
    Dataset, Error, Estocada, FaultKind, FaultPlan, FragmentSpec, Latencies, QueryResult, SystemId,
    TableData,
};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_engine::{execute_with, ExecOptions, Expr, Plan, RowBatch};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{CqBuilder, Value};
use estocada_workloads::analytics::{analytics_sql, AnalyticsQuery};
use estocada_workloads::marketplace::{generate, Marketplace, CATEGORIES};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_materialized_join, personalized_sql, user_orders_sql,
};
use proptest::prelude::*;
use std::time::Duration;

fn parse(est: &Estocada, sql: &str) -> ParsedQuery {
    parse_sql(sql, &est.sql_catalog()).expect("parse")
}

/// `Project(SELECT) ∘ Filter(HAVING) ∘ Aggregate(GROUP BY) ∘ core`: the
/// mediator tail, wrapped by hand.
fn wrap_aggregate(core: Plan, spec: &AggregateSpec) -> Plan {
    let mut plan = Plan::Aggregate {
        input: Box::new(core),
        group_by: (0..spec.group_cols).collect(),
        aggs: spec.aggs.clone(),
    };
    let having = spec
        .having
        .iter()
        .map(|(col, op, v)| Expr::col(*col).cmp(*op, Expr::Lit(v.clone())))
        .reduce(Expr::and);
    if let Some(pred) = having {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred,
        };
    }
    Plan::Project {
        input: Box::new(plan),
        exprs: spec
            .select
            .iter()
            .map(|(name, col)| (name.clone(), Expr::col(*col)))
            .collect(),
    }
}

/// The mediator-only plan of `sql` over the rewriting the engine chose
/// (`chosen` indexes the rewriter's output, which is deterministic): the
/// public `translate` of the conjunctive core, aggregation on top.
fn mediator_only(est: &Estocada, sql: &str, chosen: usize, batch_size: usize) -> RowBatch {
    let q = parse(est, sql);
    let problem = RewriteProblem {
        query: q.cq.clone(),
        views: est.catalog().view_defs(),
        source_constraints: est.schema().constraints.clone(),
        target_constraints: Vec::new(),
        access: est.catalog().access_map(),
    };
    let mut cfg = est.rewrite_config();
    cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
    let outcome = pacb_rewrite(&problem, &cfg).expect("rewrite");
    let core = translate(
        &outcome.rewritings[chosen],
        &q.head_names,
        &q.residuals,
        est.catalog(),
        &est.stores,
        est.cost_model(),
        None,
    )
    .expect("the engine ran this rewriting");
    let plan = match &q.aggregate {
        Some(spec) => wrap_aggregate(core.plan, spec),
        None => core.plan,
    };
    let (batch, _) = execute_with(&plan, &ExecOptions { batch_size }).expect("execute");
    batch
}

/// The engine's answer to `sql` at every batch size equals the
/// mediator-only plan's — rows *and order*, bit for bit — and the oracle's.
fn assert_differential(est: &Estocada, sql: &str, what: &str) -> QueryResult {
    let reference = est.query(sql).run().expect("query");
    for batch_size in [1usize, 7, 1024] {
        let got = est.query(sql).with_batch_size(batch_size).run().unwrap();
        assert_eq!(got.report.chosen, reference.report.chosen, "{what} {sql}");
        let replay = mediator_only(est, sql, got.report.chosen, batch_size);
        assert_eq!(
            (&got.columns, &got.rows),
            (&replay.columns, &replay.rows),
            "{what} {sql} @ batch_size={batch_size}: engine vs mediator-only plan"
        );
    }
    assert_same_rows(&reference.rows, &brute_force(est, sql), what);
    reference
}

/// The five analytics templates with the given constants.
fn templates(min_total: i64, category: usize, uid: i64) -> Vec<String> {
    [
        AnalyticsQuery::CategoryVolume,
        AnalyticsQuery::BigSpenders { min_total },
        AnalyticsQuery::TierCategoryMatrix,
        AnalyticsQuery::CategoryEngagement {
            category: CATEGORIES[category % CATEGORIES.len()].to_string(),
        },
        AnalyticsQuery::UserSpendByCategory { uid },
    ]
    .iter()
    .map(analytics_sql)
    .collect()
}

/// The rows of `sales.{table}` as the engine holds them now.
fn stored(est: &Estocada, table: &str) -> Vec<Vec<Value>> {
    let estocada::DatasetContent::Relational(tables) =
        &est.dataset("sales").expect("sales is registered").content
    else {
        panic!("sales is relational");
    };
    let t = tables
        .iter()
        .find(|t| *t.encoding.relation.as_str() == *table);
    t.expect("table of sales").rows.clone()
}

/// One write batch over `Orders` or `WebLog`, chosen by `step`: new rows
/// (copying uid/pid/category of a stored one), a delete of stored rows, or
/// an upsert changing the measure of stored keys.
fn write_batch(est: &mut Estocada, step: u64, fresh: &mut i64) {
    let table = ["Orders", "WebLog"][(step % 2) as usize];
    let live = stored(est, table);
    let pick = |i: u64| live[((step / 7 + i * 13) % live.len().max(1) as u64) as usize].clone();
    let measure = |i: u64| match table {
        "Orders" => Value::Double((step % 400 + i) as f64 / 4.0),
        _ => Value::Int((step % 9000 + i) as i64),
    };
    let done = match (step / 2) % 3 {
        _ if live.is_empty() => return,
        0 => {
            let rows = (0..3).map(|i| {
                *fresh += 1;
                let mut row = pick(i);
                (row[0], row[4]) = (Value::Int(*fresh), measure(i));
                row
            });
            est.insert_rows("sales", table, rows.collect())
        }
        1 => est.delete_rows("sales", table, vec![pick(0)]),
        _ => {
            let mut row = pick(1);
            row[4] = measure(2);
            est.upsert_rows("sales", table, vec![row])
        }
    };
    done.expect("write batch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Over generated marketplaces and the five analytics templates with
    /// random constants, on the three builtin deployments, with write
    /// batches between the queries.
    #[test]
    fn pushed_answers_equal_the_mediator_only_plan_and_the_oracle(
        seed in 0u64..1_000,
        min_total in 0i64..600,
        category in 0usize..8,
        uid in 0i64..30,
        writes in proptest::collection::vec(0u64..10_000, 5),
    ) {
        let m = generate(common::cfg(30, 16, 90, 150, seed));
        for (name, deploy) in DEPLOYMENTS {
            let mut est = deploy(&m, Latencies::zero());
            let mut fresh = 1_000_000;
            for (sql, step) in templates(min_total, category, uid).iter().zip(&writes) {
                assert_differential(&est, sql, name);
                write_batch(&mut est, *step, &mut fresh);
                assert_differential(&est, sql, name);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned semantics and fallbacks on a hand-built deployment.
// ---------------------------------------------------------------------

/// `T(id, k, v)` keyed on `id` in the relational store (two physical
/// duplicates of row 3), `L(id, k, w)` in the parallel store, and `N(k,
/// name)` behind a key-value fragment only.
fn edge_engine() -> Estocada {
    let t = [
        [1, 1, 100],
        [2, 1, 100],
        [3, 2, 50],
        [3, 2, 50],
        [4, 2, 150],
        [5, 3, 7],
    ];
    let l = [[1, 1, 10], [2, 1, 30], [3, 2, 5]];
    let ints = |rows: &[[i64; 3]]| -> Vec<Vec<Value>> {
        let row = |r: &[i64; 3]| r.iter().map(|&v| Value::Int(v)).collect();
        rows.iter().map(row).collect()
    };
    let names = [(1, "one"), (2, "two")];
    let table = |name: &str, cols: &[&str], rows: Vec<Vec<Value>>| TableData {
        encoding: TableEncoding::new(name, cols, Some(&cols[..1])),
        rows,
        text_columns: vec![],
    };
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "d",
        vec![
            table("T", &["id", "k", "v"], ints(&t)),
            table("L", &["id", "k", "w"], ints(&l)),
            table(
                "N",
                &["k", "name"],
                names
                    .iter()
                    .map(|(k, n)| vec![Value::Int(*k), Value::str(n)])
                    .collect(),
            ),
        ],
    ))
    .unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: Some(vec!["T".into()]),
    })
    .unwrap();
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("LPar")
            .head_vars(["id", "k", "w"])
            .atom("L", |a| a.v("id").v("k").v("w"))
            .build(),
        index_on: vec![],
        partitions: 2,
    })
    .unwrap();
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("NKV")
            .head_vars(["k", "name"])
            .atom("N", |a| a.v("k").v("name"))
            .build(),
    })
    .unwrap();
    est
}

fn ints(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

/// Run `sql`, checked against the mediator-only plan and the oracle; `pushed`
/// says whether the whole tail must have crossed the boundary.
fn edge(est: &Estocada, sql: &str, pushed: bool) -> QueryResult {
    let r = assert_differential(est, sql, "edge");
    let mediator = r.report.plan.contains("Aggregate") || r.report.plan.contains("Distinct");
    assert_eq!(!mediator, pushed, "{sql}:\n{}", r.report.plan);
    r
}

#[test]
fn global_aggregate_over_an_empty_selection_is_one_row() {
    let est = edge_engine();
    let sql = "SELECT COUNT(t.id) AS n, SUM(t.v) AS s, AVG(t.v) AS a, MIN(t.v) AS lo, \
               MAX(t.v) AS hi FROM T t WHERE t.k = 99";
    let r = edge(&est, sql, true);
    let want = vec![
        Value::Int(0),
        Value::Double(0.0),
        Value::Null,
        Value::Null,
        Value::Null,
    ];
    assert_eq!(r.rows, vec![want]);
    // The parallel store answers the same way.
    let par = "SELECT COUNT(l.id) AS n, AVG(l.w) AS a FROM L l WHERE l.k = 99";
    assert_eq!(
        edge(&est, par, true).rows,
        vec![vec![Value::Int(0), Value::Null]]
    );
}

#[test]
fn grouped_aggregate_over_an_empty_selection_has_no_rows() {
    let est = edge_engine();
    for sql in [
        "SELECT t.k, COUNT(t.id) AS n FROM T t WHERE t.v > 1000 GROUP BY t.k",
        "SELECT l.k, COUNT(l.id) AS n FROM L l WHERE l.w > 1000 GROUP BY l.k",
    ] {
        assert!(edge(&est, sql, true).rows.is_empty(), "{sql}");
    }
}

#[test]
fn having_at_an_int_vs_double_boundary() {
    let est = edge_engine();
    // k=1 and k=2 both sum to exactly 200.0; a `Double` 200.0 ranks above
    // the `Int` 200 it equals, so `>=` and `>` keep them, `<=` does not.
    let having = |op: &str| {
        format!(
            "SELECT t.k, SUM(t.v) AS s FROM T t GROUP BY t.k HAVING SUM(t.v) {op} 200 \
             AND COUNT(t.id) >= 1"
        )
    };
    let both = vec![
        vec![Value::Int(1), Value::Double(200.0)],
        vec![Value::Int(2), Value::Double(200.0)],
    ];
    assert_eq!(edge(&est, &having(">="), true).rows, both);
    assert_eq!(edge(&est, &having(">"), true).rows, both);
    assert_eq!(
        edge(&est, &having("<="), true).rows,
        vec![vec![Value::Int(3), Value::Double(7.0)]]
    );
}

#[test]
fn duplicate_core_tuples_count_once() {
    let est = edge_engine();
    // Non-key projection (k, v): k=1 holds (1,100) twice, k=2 (2,50) twice.
    let r = edge(
        &est,
        "SELECT t.k, COUNT(t.v) AS n, SUM(t.v) AS s FROM T t GROUP BY t.k",
        true,
    );
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(1), Value::Int(1), Value::Double(100.0)],
            vec![Value::Int(2), Value::Int(2), Value::Double(200.0)],
            vec![Value::Int(3), Value::Int(1), Value::Double(7.0)],
        ]
    );
    // A plain projection is de-duplicated by the store as well.
    let r = edge(&est, "SELECT t.k, t.v FROM T t WHERE t.v >= 50", true);
    assert_eq!(
        r.rows,
        vec![ints(&[1, 100]), ints(&[2, 50]), ints(&[2, 150])]
    );
    assert!(
        r.report.delegated[0].contains("SELECT DISTINCT"),
        "{:?}",
        r.report.delegated
    );
}

#[test]
fn count_star_counts_core_tuples() {
    let est = edge_engine();
    let r = edge(
        &est,
        "SELECT t.k, COUNT(*) AS n FROM T t GROUP BY t.k",
        true,
    );
    assert_eq!(r.rows, vec![ints(&[1, 1]), ints(&[2, 1]), ints(&[3, 1])]);
    let r = edge(
        &est,
        "SELECT l.k, COUNT(*) AS n, MAX(l.w) AS w FROM L l GROUP BY l.k",
        true,
    );
    assert_eq!(r.rows, vec![ints(&[1, 2, 30]), ints(&[2, 1, 5])]);
}

#[test]
fn a_mediator_side_residual_falls_back_with_the_same_answer() {
    let est = edge_engine();
    // `<>` is not delegable to the parallel store: the mediator filters,
    // so it also keeps the tail — and the unit ships the compared column.
    let par = "SELECT l.k, COUNT(*) AS n FROM L l WHERE l.w <> 30 GROUP BY l.k";
    let r = edge(&est, par, false);
    assert!(r.report.plan.contains("Filter"), "{}", r.report.plan);
    assert!(
        r.report.delegated[0].ends_with("→ SELECT c1, c2"),
        "{:?}",
        r.report.delegated
    );
    assert_eq!(r.rows, vec![ints(&[1, 1]), ints(&[2, 1])]);
    // The relational store takes `<>` into its WHERE clause, and the tail.
    let rel = "SELECT t.k, COUNT(t.id) AS n FROM T t WHERE t.v <> 100 GROUP BY t.k";
    assert_eq!(
        edge(&est, rel, true).rows,
        vec![ints(&[2, 2]), ints(&[3, 1])]
    );
}

#[test]
fn a_repeated_variable_on_the_parallel_store_is_rebound_over_interned_cells() {
    let est = edge_engine();
    // `l.id = l.k` repeats a variable within the one atom: the scan cannot
    // enforce it, so whole rows come back and the unit re-binds each.
    let r = edge(&est, "SELECT l.id, l.w FROM L l WHERE l.id = l.k", false);
    assert!(
        r.report.delegated[0].starts_with("parallel: SCAN LPar (0 preds)"),
        "{:?}",
        r.report.delegated
    );
    assert_eq!(r.rows, vec![ints(&[1, 10])]);
}

#[test]
fn a_head_constant_falls_back_with_the_same_answer() {
    let est = edge_engine();
    // `t.k = 2` puts a constant into the core's head (the group key).
    let r = edge(
        &est,
        "SELECT t.k, COUNT(t.id) AS n, SUM(t.v) AS s FROM T t WHERE t.k = 2 GROUP BY t.k",
        false,
    );
    assert_eq!(
        r.rows,
        vec![vec![Value::Int(2), Value::Int(2), Value::Double(200.0)]]
    );
}

#[test]
fn a_two_unit_aggregate_is_answered_by_the_mediator_tail() {
    let est = edge_engine();
    // `N` lives behind the key-value fragment only: relational ⋈ key-value.
    let sql = "SELECT n.name, COUNT(t.id) AS c, SUM(t.v) AS s FROM T t, N n \
               WHERE t.k = n.k GROUP BY n.name";
    let r = edge(&est, sql, false);
    assert_eq!(r.report.delegated.len(), 2, "{:?}", r.report.delegated);
    assert!(r.report.plan.contains("BindJoin"), "{}", r.report.plan);
    // The SQL unit ships the join key and the aggregate arguments (they
    // are in the core's head): here that is every column of `T`.
    assert_eq!(
        r.report.delegated[0],
        "relational: SELECT t0.c0, t0.c1, t0.c2 FROM T t0"
    );
    assert_eq!(
        sorted(r.rows),
        vec![
            vec![Value::str("one"), Value::Int(2), Value::Double(200.0)],
            vec![Value::str("two"), Value::Int(2), Value::Double(200.0)],
        ]
    );
}

// ---------------------------------------------------------------------
// One kernel, three entry points: random tails over random cells.
// ---------------------------------------------------------------------

/// A group cell: an `Int` and a `Double` equal by value (distinct groups
/// all the same), `Null`, or a string.
fn arb_group_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(|i| Value::Double(i as f64)),
        Just(Value::Null),
        prop_oneof![Just("a"), Just("b")].prop_map(Value::str),
    ]
}

/// An argument cell: small and large `Int`s, `Double`s whose sums depend
/// on the fold order, `-0.0`, `Null`, or a string (which sums as `0.0`).
fn arb_arg_cell() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0i64..4).prop_map(Value::Int),
        Just(Value::Int(1 << 40)),
        prop_oneof![Just(0.1), Just(0.2), Just(1e16), Just(-0.0), Just(3.5)]
            .prop_map(Value::Double),
        Just(Value::Null),
        Just(Value::str("t")),
    ]
}

/// A `GROUP BY`/aggregate/`HAVING` query over `R r`: zero to two group
/// columns, one to three aggregates of any column, and an optional
/// `HAVING` on a count or on the first aggregate.
fn arb_tail_sql() -> impl Strategy<Value = String> {
    let fun = prop_oneof![
        Just("COUNT"),
        Just("SUM"),
        Just("AVG"),
        Just("MIN"),
        Just("MAX")
    ];
    let col = prop_oneof![Just("id"), Just("g"), Just("h"), Just("x")];
    let aggs = proptest::collection::vec((fun, col), 1..4);
    (0usize..3, aggs, 0usize..3).prop_map(|(keys, aggs, having)| {
        let keys = &["r.g", "r.h"][..keys];
        let calls: Vec<String> = aggs.iter().map(|(f, c)| format!("{f}(r.{c})")).collect();
        let named = calls
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c} AS a{i}"));
        let select: Vec<String> = keys.iter().map(|k| k.to_string()).chain(named).collect();
        let mut sql = format!("SELECT {} FROM R r", select.join(", "));
        if !keys.is_empty() {
            sql += &format!(" GROUP BY {}", keys.join(", "));
        }
        match having {
            1 => sql += " HAVING COUNT(r.id) >= 2",
            2 => sql += &format!(" HAVING {} >= 1", calls[0]),
            _ => {}
        }
        sql
    })
}

/// `R(id, g, h, x)` keyed on `id`, holding `rows`, in the relational store
/// (`partitions` `None`) or in the parallel store over that many
/// partitions.
fn cells_engine(rows: &[(Value, Value, Value)], partitions: Option<usize>) -> Estocada {
    let rows = rows
        .iter()
        .enumerate()
        .map(|(i, (g, h, x))| vec![Value::Int(i as i64), g.clone(), h.clone(), x.clone()]);
    let cols = ["id", "g", "h", "x"];
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "d",
        vec![TableData {
            encoding: TableEncoding::new("R", &cols, Some(&cols[..1])),
            rows: rows.collect(),
            text_columns: vec![],
        }],
    ))
    .unwrap();
    let spec = match partitions {
        None => FragmentSpec::NativeTables {
            dataset: "d".into(),
            only: Some(vec!["R".into()]),
        },
        Some(partitions) => FragmentSpec::ParRows {
            view: CqBuilder::new("RPar")
                .head_vars(cols)
                .atom("R", |a| a.v("id").v("g").v("h").v("x"))
                .build(),
            index_on: vec![],
            partitions,
        },
    };
    est.add_fragment(spec).unwrap();
    est
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The relational store, the parallel store at 1, 2 and 7 partitions
    /// and the mediator-only plan over each run one kernel: every pushed
    /// answer equals its mediator-only plan bit for bit, in order, at
    /// every batch size (and the oracle).
    #[test]
    fn random_tails_over_random_cells_are_pushed_and_mediated_alike(
        rows in proptest::collection::vec((arb_group_cell(), arb_group_cell(), arb_arg_cell()), 0..24),
        sql in arb_tail_sql(),
    ) {
        for partitions in [None, Some(1), Some(2), Some(7)] {
            let est = cells_engine(&rows, partitions);
            edge(&est, &sql, true);
        }
    }
}

// ---------------------------------------------------------------------
// What crosses the boundary, on the marketplace.
// ---------------------------------------------------------------------

fn market() -> Marketplace {
    generate(common::cfg(40, 25, 150, 240, 19))
}

/// `(tuples out, bytes out, tuples scanned)` of `sys` during `r`.
fn store_delta(r: &QueryResult, sys: SystemId) -> (u64, u64, u64) {
    let found = r.report.per_store.iter().find(|(s, _)| *s == sys);
    let m = &found.expect("every store is reported").1;
    (m.tuples_out, m.bytes_out, m.tuples_scanned)
}

#[test]
fn groups_not_tuples_cross_the_boundary() {
    let m = market();
    let est = deploy_materialized_join(&m, Latencies::zero());
    let r = est
        .query_sql(&analytics_sql(&AnalyticsQuery::CategoryVolume))
        .unwrap();
    let (tuples, bytes, scanned) = store_delta(&r, SystemId::Relational);
    assert_eq!(tuples as usize, r.rows.len(), "one tuple per group");
    assert!(tuples <= CATEGORIES.len() as u64);
    assert!(bytes < 1024, "{bytes} bytes for {tuples} groups");
    assert_eq!(scanned, 150, "the store still reads every order");

    // The cost model prices what is shipped: the chosen alternative's
    // estimate, read back out of its cost, is within 2× of the groups.
    let cost = r.report.alternatives[r.report.chosen].est_cost.unwrap();
    let p = est.cost_model().of(SystemId::Relational);
    let est_rows = (cost - p.per_request - p.per_scan * 150.0) / p.per_tuple;
    let groups = r.rows.len() as f64;
    assert!(
        est_rows <= 2.0 * groups && est_rows >= groups / 2.0,
        "estimated {est_rows} rows for {groups} groups"
    );

    // `user_orders` selects exactly its two head columns.
    let r = est.query_sql(&user_orders_sql(3)).unwrap();
    assert_eq!(
        *r.report.delegated,
        ["relational: SELECT DISTINCT t0.c0, t0.c4 FROM Orders t0 WHERE t0.c1 = 3"]
    );

    // `personalized` still prefers the materialized join, which now returns
    // its four head columns, each row once.
    let r = est.query_sql(&personalized_sql(3, "laptop")).unwrap();
    assert!(
        r.report.delegated[0]
            .starts_with("parallel: LOOKUP UserHist by key index → SELECT DISTINCT"),
        "{:?}",
        r.report.delegated
    );
    let (tuples, _, _) = store_delta(&r, SystemId::Parallel);
    assert_eq!(tuples as usize, r.rows.len());
}

#[test]
fn an_aggregate_fails_over_without_translating_anything_new() {
    let m = market();
    // A second home for `Orders`, in the parallel store.
    let orders_par = FragmentSpec::ParRows {
        view: CqBuilder::new("OrdersPar")
            .head_vars(["oid", "uid", "pid", "category", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("category").v("amount")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    };
    let sql = analytics_sql(&AnalyticsQuery::BigSpenders { min_total: 100 });
    let mut est = deploy_baseline(&m, Latencies::zero());
    est.add_fragment(orders_par).unwrap();
    let want = est.query_sql(&sql).unwrap();
    assert!(want.report.delegated[0].starts_with("relational:"));
    assert!(want.report.alternatives.len() >= 2);

    est.set_fault_plan(Some(
        FaultPlan::new(3).down("relational", FaultKind::Unavailable),
    ));
    let got = est.query_sql(&sql).expect("failover must answer");
    assert!(
        got.report.delegated[0].starts_with("parallel: SCAN OrdersPar"),
        "{:?}",
        got.report.delegated
    );
    assert!(!got.report.plan.contains("Aggregate"), "pushed there too");
    assert_same_rows(&got.rows, &want.rows, "failover");
    let r = got.report.resilience.expect("the outage is reported");
    assert!(r.failed_over());
    // `want` cached the rewriting; this run translated each rewriting once
    // (failing over added none) and kept the plans …
    assert!(got.report.plan_cache.is_some_and(|pc| pc.hit));
    assert_eq!(r.translations, got.report.alternatives.len() as u64);
    // … so the next one (breakers closed again) is a prepared hit: the same
    // failover chain off the kept plans, nothing translated.
    est.reset_backend_health();
    let again = est.query_sql(&sql).expect("failover must answer");
    assert_same_rows(&again.rows, &want.rows, "prepared failover");
    assert_eq!(again.report.plan, got.report.plan);
    assert_eq!(again.report.translate_time, Duration::ZERO);
    let r = again.report.resilience.expect("the outage is reported");
    assert!(r.failed_over());
    assert_eq!(r.translations, 0, "a prepared hit translates nothing");

    // With every backend of every alternative down, the typed error.
    est.set_fault_plan(Some(
        FaultPlan::new(3)
            .down("relational", FaultKind::Unavailable)
            .down("parallel", FaultKind::Unavailable),
    ));
    assert!(matches!(
        est.query_sql(&sql),
        Err(Error::AllPlansFailed { .. })
    ));
}
