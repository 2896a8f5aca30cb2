//! Properties of the batch executor (`execute_with`), each operator
//! checked against a plain-Rust statement of it over the `Values` input:
//!
//! - random `Values`-rooted pipelines (filter/project, hash join, bind
//!   join, distinct, aggregate) return the reference's rows **in the
//!   reference's order** at batch sizes 1, 3, 7 and 1024 — batch
//!   boundaries must be unobservable;
//! - the counters in closed form: `operators` is the plan's node count,
//!   `rows` and `bind_probes` do not depend on the batch size, and a bind
//!   join probes each distinct key once;
//! - grouped aggregation matches a brute-force reference over the distinct
//!   input tuples, pinning the documented DISTINCT-core semantics (and the
//!   "aggregate over a key column for exact bag semantics" idiom) end to
//!   end through SQL;
//! - whole queries agree across the three builtin hybrid deployments and,
//!   within each, across batch sizes, BindJoin probes included;
//! - under random fault schedules the executor still yields the
//!   fault-free oracle's rows or a typed `AllPlansFailed` — never a
//!   silently short or divergent answer.

mod common;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use common::{arb_plan, build_plan, sorted, with_fast_retry, ArbRule};
use estocada::{Dataset, Error, Estocada, FragmentSpec, Latencies, TableData};
use estocada_engine::{
    execute_with, AggFun, AggSpec, BindSource, CmpOp, Columns, ExecOptions, ExecStats, Expr,
    Fetched, Plan, RowBatch, StoreError, Tuple,
};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{ConstId, Value};
use estocada_workloads::analytics::{analytics_sql, analytics_workload, AnalyticsConfig};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_kv_migrated, deploy_materialized_join, pref_sql,
};
use proptest::prelude::*;

/// Batch sizes swept in every engine-level comparison: degenerate (1),
/// misaligned with the data (3, 7), and larger than any test input (1024).
const BATCH_SIZES: [usize; 4] = [1, 3, 7, 1024];

fn int_batch(cols: &[&str], rows: Vec<Vec<i64>>) -> RowBatch {
    RowBatch::new(
        cols.iter().map(|s| s.to_string()).collect(),
        rows.into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect(),
    )
}

/// Run `plan` at every swept batch size; assert that each run returns
/// `want` (columns aside) in order, that `operators` is the plan's node
/// count (`explain` prints one line per node), and that the `rows` and
/// `bind_probes` counters do not depend on the batch size. Returns the
/// counters of the largest batch size.
fn assert_batch_invariant(plan: &Plan, want: &[Tuple]) -> ExecStats {
    let nodes = plan.explain().lines().count() as u64;
    let mut first: Option<ExecStats> = None;
    let mut last = ExecStats::default();
    for bs in BATCH_SIZES {
        let opts = ExecOptions { batch_size: bs };
        let (got, stats) = execute_with(plan, &opts).expect("execute");
        assert_eq!(got.rows, want, "rows @ batch_size={bs}");
        assert_eq!(stats.operators, nodes, "operator count @ batch_size={bs}");
        let first = first.get_or_insert(stats);
        assert_eq!(stats.rows, first.rows, "row counter @ batch_size={bs}");
        assert_eq!(
            stats.bind_probes, first.bind_probes,
            "bind probes @ batch_size={bs}"
        );
        last = stats;
    }
    last
}

/// A bound source answering each key with the rows a map holds for it.
struct MapSource(HashMap<Value, Vec<Tuple>>);

impl BindSource for MapSource {
    fn out_columns(&self) -> Columns {
        vec!["b".to_string()].into()
    }
    fn fetch_batch(&self, keys: &[ConstId]) -> Result<Fetched, StoreError> {
        let mut fetched = Fetched::new(self.out_columns());
        for key in keys {
            fetched
                .rows
                .push_values(self.0.get(&key.value()).into_iter().flatten());
            fetched.end_key();
        }
        Ok(fetched)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter + arithmetic projection over a scan is `filter().map()` at
    /// every batch size.
    #[test]
    fn filter_project_scan_is_batch_size_invariant(
        rows in proptest::collection::vec((0i64..6, -20i64..20, -20i64..20), 0..40),
        threshold in -20i64..20,
    ) {
        let b = int_batch(
            &["k", "a", "b"],
            rows.iter().map(|&(k, a, x)| vec![k, a, x]).collect(),
        );
        let want: Vec<Tuple> = rows
            .iter()
            .filter(|(_, a, _)| *a < threshold)
            .map(|&(k, a, x)| vec![Value::Int(k), Value::Int(a + x)])
            .collect();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Values(b)),
                pred: Expr::col(1).cmp(CmpOp::Lt, Expr::lit(threshold)),
            }),
            exprs: vec![
                ("k".into(), Expr::col(0)),
                (
                    "s".into(),
                    Expr::Arith(
                        Box::new(Expr::col(1)),
                        estocada_engine::ArithOp::Add,
                        Box::new(Expr::col(2)),
                    ),
                ),
            ],
        };
        assert_batch_invariant(&plan, &want);
    }

    /// A join pipeline (hash join under a filter and projection) and a bind
    /// join are nested loops, probe side outermost: batching must not
    /// reorder or duplicate matches, and the bind join probes each
    /// distinct key once.
    #[test]
    fn join_pipeline_is_batch_size_invariant(
        left in proptest::collection::vec((0i64..5, -9i64..9), 0..25),
        right in proptest::collection::vec((0i64..5, -9i64..9), 0..25),
    ) {
        let l = int_batch(&["k", "a"], left.iter().map(|&(k, a)| vec![k, a]).collect());
        let r = int_batch(&["k2", "b"], right.iter().map(|&(k, b)| vec![k, b]).collect());
        let hashed: Vec<Tuple> = right
            .iter()
            .flat_map(|&(k2, b)| {
                let hits = left.iter().filter(move |&&(k, a)| k == k2 && a <= b);
                hits.map(move |&(k, _)| vec![Value::Int(k), Value::Int(b)])
            })
            .collect();
        let plan = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::HashJoin {
                    left: Box::new(Plan::Values(l.clone())),
                    right: Box::new(Plan::Values(r)),
                    left_keys: vec![0],
                    right_keys: vec![0],
                }),
                pred: Expr::col(1).cmp(CmpOp::Le, Expr::col(3)),
            }),
            exprs: vec![("k".into(), Expr::col(0)), ("b".into(), Expr::col(3))],
        };
        assert_batch_invariant(&plan, &hashed);

        let mut source: HashMap<Value, Vec<Tuple>> = HashMap::new();
        for &(k2, b) in &right {
            source.entry(Value::Int(k2)).or_default().push(vec![Value::Int(b)]);
        }
        let bound: Vec<Tuple> = left
            .iter()
            .flat_map(|&(k, a)| {
                let hits = right.iter().filter(move |&&(k2, _)| k2 == k);
                hits.map(move |&(_, b)| vec![Value::Int(k), Value::Int(a), Value::Int(b)])
            })
            .collect();
        let plan = Plan::BindJoin {
            left: Box::new(Plan::Values(l)),
            key_col: 0,
            source: Arc::new(MapSource(source)),
        };
        let stats = assert_batch_invariant(&plan, &bound);
        let keys: HashSet<i64> = left.iter().map(|&(k, _)| k).collect();
        prop_assert_eq!(stats.bind_probes, keys.len() as u64);
    }

    /// Distinct keeps first occurrences in input order across batch
    /// boundaries.
    #[test]
    fn distinct_is_batch_size_invariant(
        rows in proptest::collection::vec((0i64..5, 0i64..5), 0..30),
    ) {
        let b = int_batch(&["a", "b"], rows.iter().map(|&(a, x)| vec![a, x]).collect());
        let plan = Plan::Distinct {
            input: Box::new(Plan::Values(b)),
        };
        let want: Vec<Tuple> = distinct_pairs(&rows)
            .into_iter()
            .map(|(a, x)| vec![Value::Int(a), Value::Int(x)])
            .collect();
        assert_batch_invariant(&plan, &want);
    }

    /// Grouped aggregation over a `Distinct` core — the exact shape the
    /// SQL frontend emits — matches a brute-force reference computed over
    /// the distinct input tuples at every batch size.
    #[test]
    fn grouped_aggregation_matches_bruteforce_reference(
        rows in proptest::collection::vec((0i64..4, -15i64..15), 0..35),
    ) {
        let b = int_batch(&["k", "v"], rows.iter().map(|&(k, v)| vec![k, v]).collect());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Distinct {
                input: Box::new(Plan::Values(b)),
            }),
            group_by: vec![0],
            aggs: all_aggs_over(1),
        };
        assert_batch_invariant(&plan, &reference_grouped(&rows));
    }

    /// A global aggregate (no GROUP BY) yields exactly one row — COUNT 0,
    /// NULL AVG/MIN/MAX on empty input — at every batch size.
    #[test]
    fn global_aggregate_matches_bruteforce_reference(
        rows in proptest::collection::vec((0i64..4, -15i64..15), 0..20),
    ) {
        let b = int_batch(&["k", "v"], rows.iter().map(|&(k, v)| vec![k, v]).collect());
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Distinct {
                input: Box::new(Plan::Values(b)),
            }),
            group_by: vec![],
            aggs: all_aggs_over(1),
        };
        assert_batch_invariant(&plan, &[reference_global(&rows)]);
    }
}

/// All five aggregate functions over one argument column.
fn all_aggs_over(col: usize) -> Vec<AggSpec> {
    [
        (AggFun::Count, "n"),
        (AggFun::Sum, "s"),
        (AggFun::Avg, "avg"),
        (AggFun::Min, "lo"),
        (AggFun::Max, "hi"),
    ]
    .into_iter()
    .map(|(fun, name)| AggSpec {
        fun,
        col,
        name: name.into(),
    })
    .collect()
}

/// First-seen-order distinct of `(k, v)` pairs — the `Distinct` operator's
/// contract, restated in plain Rust.
fn distinct_pairs(rows: &[(i64, i64)]) -> Vec<(i64, i64)> {
    let mut seen = HashSet::new();
    rows.iter().copied().filter(|r| seen.insert(*r)).collect()
}

/// The aggregate payload `[COUNT, SUM, AVG, MIN, MAX]` over `vs`, with the
/// engine's output types (SUM/AVG are doubles, empty-input AVG/MIN/MAX are
/// NULL). Accumulates the f64 sum in input order, like the executor does.
fn reference_payload(vs: &[i64]) -> Vec<Value> {
    let count = vs.len() as i64;
    let sum = vs.iter().fold(0.0f64, |acc, &v| acc + v as f64);
    let avg = if count == 0 {
        Value::Null
    } else {
        Value::Double(sum / count as f64)
    };
    let opt = |o: Option<i64>| o.map(Value::Int).unwrap_or(Value::Null);
    vec![
        Value::Int(count),
        Value::Double(sum),
        avg,
        opt(vs.iter().min().copied()),
        opt(vs.iter().max().copied()),
    ]
}

/// Brute-force `GROUP BY k` over the distinct `(k, v)` tuples, groups in
/// first-seen order — the engine's aggregation semantics.
fn reference_grouped(rows: &[(i64, i64)]) -> Vec<Vec<Value>> {
    let mut order = Vec::new();
    let mut groups: HashMap<i64, Vec<i64>> = HashMap::new();
    for (k, v) in distinct_pairs(rows) {
        groups
            .entry(k)
            .or_insert_with(|| {
                order.push(k);
                Vec::new()
            })
            .push(v);
    }
    order
        .into_iter()
        .map(|k| {
            let mut row = vec![Value::Int(k)];
            row.extend(reference_payload(&groups[&k]));
            row
        })
        .collect()
}

/// Brute-force global aggregate over the distinct `(k, v)` tuples.
fn reference_global(rows: &[(i64, i64)]) -> Vec<Value> {
    let vs: Vec<i64> = distinct_pairs(rows).into_iter().map(|(_, v)| v).collect();
    reference_payload(&vs)
}

// ---------------------------------------------------------------------
// SQL-level DISTINCT-core semantics on data with duplicates.
// ---------------------------------------------------------------------

/// A single-table engine whose rows contain both a full duplicate and
/// duplicated `(k, v)` pairs distinguished only by the key column `id`.
fn dup_engine() -> Estocada {
    let rows = [
        [1, 1, 10],
        [1, 2, 10],
        [1, 2, 10], // full duplicate of the previous row
        [1, 3, 20],
        [2, 4, 5],
        [2, 5, 5],
    ];
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "d",
        vec![TableData {
            encoding: TableEncoding::new("T", &["k", "id", "v"], None),
            rows: rows
                .iter()
                .map(|r| r.iter().map(|&v| Value::Int(v)).collect())
                .collect(),
            text_columns: vec![],
        }],
    ))
    .unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    est
}

fn ints(row: &[i64]) -> Vec<Value> {
    row.iter().map(|&v| Value::Int(v)).collect()
}

/// Aggregating a non-key column ranges over the DISTINCT `(group, arg)`
/// tuples; adding the key column as an aggregate argument makes the core
/// tuples unique per underlying row, recovering exact bag semantics. Both
/// behaviours are identical at every batch size.
#[test]
fn sql_aggregates_follow_distinct_core_semantics() {
    let est = dup_engine();

    // Core = DISTINCT (k, v): k=1 sees {10, 20}, k=2 sees {5}.
    let over_values = "SELECT t.k AS k, COUNT(t.v) AS n, SUM(t.v) AS s FROM T t GROUP BY t.k";
    // Core = DISTINCT (k, id, v): `id` is unique, so every underlying row
    // survives — COUNT/SUM are exact bag aggregates.
    let over_rows = "SELECT t.k AS k, COUNT(t.id) AS n, SUM(t.v) AS s FROM T t GROUP BY t.k";

    let cases: [(&str, Vec<Vec<Value>>); 2] = [
        (
            over_values,
            vec![
                vec![Value::Int(1), Value::Int(2), Value::Double(30.0)],
                vec![Value::Int(2), Value::Int(1), Value::Double(5.0)],
            ],
        ),
        (
            over_rows,
            vec![
                vec![Value::Int(1), Value::Int(3), Value::Double(40.0)],
                vec![Value::Int(2), Value::Int(2), Value::Double(10.0)],
            ],
        ),
    ];
    for (sql, want) in cases {
        let vec_run = est.query(sql).run().unwrap();
        assert_eq!(vec_run.columns, vec!["k", "n", "s"], "{sql}");
        assert_eq!(sorted(vec_run.rows.clone()), want, "{sql}");
        for bs in [1usize, 2] {
            let r = est.query(sql).with_batch_size(bs).run().unwrap();
            assert_eq!(r.columns, vec_run.columns, "{sql} @ batch_size={bs}");
            assert_eq!(r.rows, vec_run.rows, "{sql} @ batch_size={bs}");
        }
    }

    // HAVING filters whole groups after aggregation.
    let r = est
        .query("SELECT t.k AS k, SUM(t.v) AS s FROM T t GROUP BY t.k HAVING SUM(t.v) > 10")
        .run()
        .unwrap();
    assert_eq!(
        sorted(r.rows),
        vec![vec![Value::Int(1), Value::Double(30.0)]]
    );

    // Pure GROUP BY with no aggregate = DISTINCT projection.
    let r = est
        .query("SELECT t.v AS v FROM T t GROUP BY t.v")
        .run()
        .unwrap();
    assert_eq!(sorted(r.rows), vec![ints(&[5]), ints(&[10]), ints(&[20])]);
}

// ---------------------------------------------------------------------
// Whole queries over the rewritten hybrid deployments: deployment and
// batch-size sweep, BindJoin probes included.
// ---------------------------------------------------------------------

fn small() -> Marketplace {
    generate(common::cfg(40, 25, 150, 240, 19))
}

/// Every analytics query (plus a BindJoin-backed point lookup) returns the
/// same rows on all three builtin deployments — which route them through
/// native tables, key-value MGETs, parallel scans, and document fragments —
/// and, within a deployment, identical rows in identical order at batch
/// sizes 1, 2, and 1024.
#[test]
fn deployment_queries_agree_across_deployments_and_batch_sizes() {
    let m = small();
    let deployments = [
        deploy_baseline(&m, Latencies::zero()),
        deploy_kv_migrated(&m, Latencies::zero()),
        deploy_materialized_join(&m, Latencies::zero()),
    ];
    let mut sqls: Vec<String> = analytics_workload(&AnalyticsConfig {
        queries: 10,
        seed: 5,
        ..AnalyticsConfig::default()
    })
    .iter()
    .map(analytics_sql)
    .collect();
    sqls.push(pref_sql(3));
    for sql in &sqls {
        let want = sorted(deployments[0].query(sql).run().unwrap().rows);
        for (d, est) in deployments.iter().enumerate() {
            let reference = est.query(sql).run().unwrap();
            assert_eq!(
                sorted(reference.rows.clone()),
                want,
                "{sql} @ deployment {d}"
            );
            for bs in [1usize, 2] {
                let r = est.query(sql).with_batch_size(bs).run().unwrap();
                assert_eq!(r.columns, reference.columns, "{sql} @ batch_size={bs}");
                assert_eq!(r.rows, reference.rows, "{sql} @ batch_size={bs}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection: the executor stays observationally correct.
// ---------------------------------------------------------------------

fn faulted(m: &Marketplace, seed: u64, rules: &[ArbRule]) -> Estocada {
    let mut est = with_fast_retry(deploy_kv_migrated(m, Latencies::zero()));
    est.set_fault_plan(Some(build_plan(seed, rules)));
    est
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Under an arbitrary fault schedule, a query yields the fault-free
    /// oracle's rows or a typed `AllPlansFailed`.
    /// Aggregation must never surface a partial group silently.
    #[test]
    fn faulted_executors_yield_oracle_rows_or_typed_errors(seeded in arb_plan(3)) {
        let (seed, rules) = seeded;
        let m = small();
        let oracle = deploy_kv_migrated(&m, Latencies::zero());
        let est = faulted(&m, seed, &rules);
        let queries = [
            pref_sql(3),
            "SELECT o.category, COUNT(o.oid) AS n, SUM(o.amount) AS vol \
             FROM Orders o GROUP BY o.category"
                .to_string(),
        ];
        for sql in &queries {
            let want = sorted(oracle.query_sql(sql).expect("oracle").rows);
            match est.query_sql(sql) {
                Ok(r) => prop_assert_eq!(
                    sorted(r.rows),
                    want,
                    "rows diverged under {:?} (seed {})",
                    rules.clone(),
                    seed
                ),
                Err(Error::AllPlansFailed { attempts, .. }) => {
                    prop_assert!(!attempts.is_empty());
                }
                Err(e) => prop_assert!(false, "untyped failure: {}", e),
            }
        }
    }
}
