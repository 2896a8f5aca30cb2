//! Materialized bottom-up execution of [`Plan`] trees.

use crate::plan::{AggSpec, Plan};
use crate::tuple::{RowBatch, Tuple};
use estocada_pivot::{Accumulator, Value};
use estocada_simkit::StoreError;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Column index out of range for the operator's input.
    BadColumn {
        /// The offending index.
        index: usize,
        /// The operator name.
        operator: &'static str,
    },
    /// A delegated sub-query or bound-source probe failed in the
    /// underlying store.
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadColumn { index, operator } => {
                write!(f, "column {index} out of range in {operator}")
            }
            EngineError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> EngineError {
        EngineError::Store(e)
    }
}

impl std::error::Error for EngineError {}

/// Runtime counters of one plan execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Operator nodes executed.
    pub operators: u64,
    /// Total rows produced across operators.
    pub rows: u64,
    /// BindJoin probes issued.
    pub bind_probes: u64,
    /// Time spent inside delegated sub-queries.
    pub delegated_time: Duration,
    /// Total execution time.
    pub total_time: Duration,
}

impl ExecStats {
    /// Time spent in the mediator runtime itself (total minus delegated) —
    /// the split the demo shows.
    pub fn runtime_time(&self) -> Duration {
        self.total_time.saturating_sub(self.delegated_time)
    }
}

/// Execute a plan, returning the result batch and runtime counters.
pub fn execute(plan: &Plan) -> Result<(RowBatch, ExecStats), EngineError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let batch = run(plan, &mut stats)?;
    stats.total_time = start.elapsed();
    Ok((batch, stats))
}

fn run(plan: &Plan, stats: &mut ExecStats) -> Result<RowBatch, EngineError> {
    stats.operators += 1;
    let out = match plan {
        Plan::Values(b) => b.clone(),
        Plan::Delegated { runner, .. } => {
            let t = Instant::now();
            let b = runner();
            stats.delegated_time += t.elapsed();
            b?
        }
        Plan::Filter { input, pred } => {
            let mut b = run(input, stats)?;
            b.rows.retain(|r| pred.eval_bool(r));
            b
        }
        Plan::Project { input, exprs } => {
            let b = run(input, stats)?;
            let columns: Vec<String> = exprs.iter().map(|(n, _)| n.clone()).collect();
            let rows: Vec<Tuple> = b
                .rows
                .iter()
                .map(|r| exprs.iter().map(|(_, e)| e.eval(r)).collect())
                .collect();
            RowBatch { columns, rows }
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => {
            let l = run(left, stats)?;
            let r = run(right, stats)?;
            check_cols(left_keys, l.columns.len(), "HashJoin")?;
            check_cols(right_keys, r.columns.len(), "HashJoin")?;
            let mut table: HashMap<Vec<&Value>, Vec<&Tuple>> = HashMap::new();
            for row in &l.rows {
                let key: Vec<&Value> = left_keys.iter().map(|c| &row[*c]).collect();
                table.entry(key).or_default().push(row);
            }
            let mut columns = l.columns.clone();
            columns.extend(r.columns.iter().cloned());
            let mut rows = Vec::new();
            for rrow in &r.rows {
                let key: Vec<&Value> = right_keys.iter().map(|c| &rrow[*c]).collect();
                if let Some(matches) = table.get(&key) {
                    for lrow in matches {
                        let mut joined: Tuple = (*lrow).clone();
                        joined.extend(rrow.iter().cloned());
                        rows.push(joined);
                    }
                }
            }
            RowBatch { columns, rows }
        }
        Plan::NlJoin { left, right, pred } => {
            let l = run(left, stats)?;
            let r = run(right, stats)?;
            let mut columns = l.columns.clone();
            columns.extend(r.columns.iter().cloned());
            let mut rows = Vec::new();
            for lrow in &l.rows {
                for rrow in &r.rows {
                    let mut joined = lrow.clone();
                    joined.extend(rrow.iter().cloned());
                    if pred.as_ref().map(|p| p.eval_bool(&joined)).unwrap_or(true) {
                        rows.push(joined);
                    }
                }
            }
            RowBatch { columns, rows }
        }
        Plan::BindJoin {
            left,
            key_cols,
            source,
        } => {
            let l = run(left, stats)?;
            check_cols(key_cols, l.columns.len(), "BindJoin")?;
            let mut columns = l.columns.clone();
            columns.extend(source.out_columns());
            // Deduplicate keys (first-seen order), ship them in one batched
            // probe, then join. Sources with a pipelined lookup pay the
            // round-trip cost once per batch instead of once per key.
            let mut key_index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut distinct: Vec<Vec<Value>> = Vec::new();
            let mut row_key: Vec<usize> = Vec::with_capacity(l.rows.len());
            for lrow in &l.rows {
                let key: Vec<Value> = key_cols.iter().map(|c| lrow[*c].clone()).collect();
                let idx = match key_index.get(&key) {
                    Some(i) => *i,
                    None => {
                        let i = distinct.len();
                        key_index.insert(key.clone(), i);
                        distinct.push(key);
                        i
                    }
                };
                row_key.push(idx);
            }
            stats.bind_probes += distinct.len() as u64;
            let fetched = if distinct.is_empty() {
                // No keys → no round-trip (an MGET-style source would still
                // charge its per-request cost for an empty batch).
                Vec::new()
            } else {
                let t = Instant::now();
                let f = source.fetch_batch(&distinct);
                stats.delegated_time += t.elapsed();
                f?
            };
            debug_assert_eq!(fetched.len(), distinct.len());
            let mut rows = Vec::new();
            for (lrow, ki) in l.rows.iter().zip(&row_key) {
                for frow in &fetched[*ki] {
                    let mut joined = lrow.clone();
                    joined.extend(frow.iter().cloned());
                    rows.push(joined);
                }
            }
            RowBatch { columns, rows }
        }
        Plan::Distinct { input } => {
            let b = run(input, stats)?;
            let mut seen = std::collections::HashSet::new();
            let rows: Vec<Tuple> = b
                .rows
                .into_iter()
                .filter(|r| seen.insert(r.clone()))
                .collect();
            RowBatch {
                columns: b.columns,
                rows,
            }
        }
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let b = run(input, stats)?;
            check_cols(group_by, b.columns.len(), "Aggregate")?;
            for a in aggs {
                check_cols(&[a.col], b.columns.len(), "Aggregate")?;
            }
            aggregate(&b, group_by, aggs)
        }
    };
    stats.rows += out.len() as u64;
    Ok(out)
}

pub(crate) fn check_cols(
    cols: &[usize],
    arity: usize,
    operator: &'static str,
) -> Result<(), EngineError> {
    for c in cols {
        if *c >= arity {
            return Err(EngineError::BadColumn {
                index: *c,
                operator,
            });
        }
    }
    Ok(())
}

/// Group `b` on `group_by` in first-seen order and fold each group through
/// the shared [`Accumulator`] — the same state the stores fold a delegated
/// grouping tail with.
fn aggregate(b: &RowBatch, group_by: &[usize], aggs: &[AggSpec]) -> RowBatch {
    let fresh = || -> Vec<Accumulator> { aggs.iter().map(|a| Accumulator::new(a.fun)).collect() };
    let mut index: HashMap<Vec<&Value>, usize> = HashMap::new();
    let mut groups: Vec<(Vec<&Value>, Vec<Accumulator>)> = Vec::new();
    for row in &b.rows {
        let key: Vec<&Value> = group_by.iter().map(|c| &row[*c]).collect();
        let g = *index.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), fresh()));
            groups.len() - 1
        });
        for (acc, spec) in groups[g].1.iter_mut().zip(aggs) {
            acc.update(&row[spec.col]);
        }
    }
    // A global aggregate over zero rows still yields one row (SQL COUNT=0).
    if group_by.is_empty() && groups.is_empty() {
        groups.push((Vec::new(), fresh()));
    }
    let mut columns: Vec<String> = group_by.iter().map(|c| b.columns[*c].clone()).collect();
    columns.extend(aggs.iter().map(|a| a.name.clone()));
    let rows: Vec<Tuple> = groups
        .into_iter()
        .map(|(key, accs)| {
            key.into_iter()
                .cloned()
                .chain(accs.into_iter().map(Accumulator::finish))
                .collect()
        })
        .collect();
    RowBatch { columns, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Expr};
    use crate::plan::AggFun;
    use std::sync::Arc;

    fn batch(cols: &[&str], rows: Vec<Vec<Value>>) -> RowBatch {
        RowBatch::new(cols.iter().map(|s| s.to_string()).collect(), rows)
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    #[test]
    fn filter_project_pipeline() {
        let p = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Values(batch(
                    &["a", "b"],
                    vec![ints(&[1, 10]), ints(&[2, 20]), ints(&[3, 30])],
                ))),
                pred: Expr::col(0).cmp(CmpOp::Ge, Expr::lit(2i64)),
            }),
            exprs: vec![("b".into(), Expr::col(1))],
        };
        let (out, stats) = execute(&p).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);
        assert_eq!(stats.operators, 3);
    }

    #[test]
    fn hash_join_inner() {
        let p = Plan::HashJoin {
            left: Box::new(Plan::Values(batch(
                &["uid", "name"],
                vec![
                    vec![Value::Int(1), Value::str("ann")],
                    vec![Value::Int(2), Value::str("bob")],
                ],
            ))),
            right: Box::new(Plan::Values(batch(
                &["uid2", "total"],
                vec![ints(&[1, 100]), ints(&[1, 5]), ints(&[3, 9])],
            ))),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let (out, _) = execute(&p).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.columns, vec!["uid", "name", "uid2", "total"]);
    }

    #[test]
    fn hash_join_equals_nl_join() {
        let l = batch(&["a"], (0..20).map(|i| ints(&[i % 5])).collect());
        let r = batch(&["b"], (0..10).map(|i| ints(&[i % 5])).collect());
        let hj = Plan::HashJoin {
            left: Box::new(Plan::Values(l.clone())),
            right: Box::new(Plan::Values(r.clone())),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let nl = Plan::NlJoin {
            left: Box::new(Plan::Values(l)),
            right: Box::new(Plan::Values(r)),
            pred: Some(Expr::col(0).cmp(CmpOp::Eq, Expr::col(1))),
        };
        let (mut a, _) = execute(&hj).unwrap();
        let (mut b, _) = execute(&nl).unwrap();
        a.rows.sort();
        b.rows.sort();
        assert_eq!(a.rows, b.rows);
    }

    struct MapSource(HashMap<Vec<Value>, Vec<Tuple>>);
    impl crate::plan::BindSource for MapSource {
        fn out_columns(&self) -> Vec<String> {
            vec!["v".into()]
        }
        fn fetch_batch(&self, keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
            Ok(keys
                .iter()
                .map(|k| self.0.get(k).cloned().unwrap_or_default())
                .collect())
        }
    }

    #[test]
    fn bindjoin_with_empty_input_issues_no_probe() {
        struct ExplodingSource;
        impl crate::plan::BindSource for ExplodingSource {
            fn out_columns(&self) -> Vec<String> {
                vec!["v".into()]
            }
            fn fetch_batch(&self, _keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
                panic!("an empty BindJoin batch must not reach the source");
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![]))),
            key_cols: vec![0],
            source: Arc::new(ExplodingSource),
        };
        let (out, stats) = execute(&p).unwrap();
        assert_eq!(out.len(), 0);
        assert_eq!(stats.bind_probes, 0);
    }

    #[test]
    fn bindjoin_probes_distinct_keys_once() {
        let mut m = HashMap::new();
        m.insert(vec![Value::Int(1)], vec![vec![Value::str("one")]]);
        m.insert(vec![Value::Int(2)], vec![vec![Value::str("two")]]);
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(
                &["k"],
                vec![ints(&[1]), ints(&[2]), ints(&[1]), ints(&[3])],
            ))),
            key_cols: vec![0],
            source: Arc::new(MapSource(m)),
        };
        let (out, stats) = execute(&p).unwrap();
        assert_eq!(out.len(), 3); // key 3 misses, key 1 matches twice
        assert_eq!(stats.bind_probes, 3); // distinct keys 1, 2, 3
        assert_eq!(out.columns, vec!["k", "v"]);
    }

    #[test]
    fn aggregate_group_by() {
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values(batch(
                &["g", "x"],
                vec![ints(&[1, 10]), ints(&[1, 20]), ints(&[2, 5])],
            ))),
            group_by: vec![0],
            aggs: vec![
                AggSpec {
                    fun: AggFun::Sum,
                    col: 1,
                    name: "sum_x".into(),
                },
                AggSpec {
                    fun: AggFun::Count,
                    col: 1,
                    name: "n".into(),
                },
            ],
        };
        let (out, _) = execute(&p).unwrap();
        assert_eq!(out.columns, vec!["g", "sum_x", "n"]);
        assert_eq!(out.len(), 2);
        let g1 = out.rows.iter().find(|r| r[0] == Value::Int(1)).unwrap();
        assert_eq!(g1[1], Value::Double(30.0));
        assert_eq!(g1[2], Value::Int(2));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values(batch(&["x"], vec![]))),
            group_by: vec![],
            aggs: vec![AggSpec {
                fun: AggFun::Count,
                col: 0,
                name: "n".into(),
            }],
        };
        let (out, _) = execute(&p).unwrap();
        assert_eq!(out.rows, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn distinct_removes_duplicates() {
        let p = Plan::Distinct {
            input: Box::new(Plan::Values(batch(
                &["x"],
                vec![ints(&[1]), ints(&[1]), ints(&[2])],
            ))),
        };
        let (out, _) = execute(&p).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bad_column_reported_with_operator() {
        let p = Plan::HashJoin {
            left: Box::new(Plan::Values(batch(&["a"], vec![]))),
            right: Box::new(Plan::Values(batch(&["b"], vec![]))),
            left_keys: vec![5],
            right_keys: vec![0],
        };
        assert!(matches!(
            execute(&p),
            Err(EngineError::BadColumn { index: 5, .. })
        ));
    }

    #[test]
    fn delegated_time_is_tracked() {
        let p = Plan::Delegated {
            label: "fake".into(),
            runner: Arc::new(|| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(RowBatch::empty(vec!["x".into()]))
            }),
        };
        let (_, stats) = execute(&p).unwrap();
        assert!(stats.delegated_time >= Duration::from_millis(5));
        assert!(stats.runtime_time() < stats.total_time);
    }

    #[test]
    fn delegated_store_error_propagates() {
        let p = Plan::Delegated {
            label: "down".into(),
            runner: Arc::new(|| {
                Err(StoreError {
                    store: "relational".into(),
                    op: "query".into(),
                    op_index: 1,
                    kind: estocada_simkit::StoreErrorKind::Unavailable,
                })
            }),
        };
        match execute(&p) {
            Err(EngineError::Store(e)) => assert_eq!(e.store, "relational"),
            other => panic!("expected store error, got {other:?}"),
        }
    }

    #[test]
    fn bindjoin_source_error_propagates() {
        struct FailingSource;
        impl crate::plan::BindSource for FailingSource {
            fn out_columns(&self) -> Vec<String> {
                vec!["v".into()]
            }
            fn fetch_batch(&self, _keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
                Err(StoreError {
                    store: "key-value".into(),
                    op: "mget".into(),
                    op_index: 3,
                    kind: estocada_simkit::StoreErrorKind::Timeout,
                })
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![ints(&[1])]))),
            key_cols: vec![0],
            source: Arc::new(FailingSource),
        };
        match execute(&p) {
            Err(EngineError::Store(e)) => assert_eq!(e.op, "mget"),
            other => panic!("expected store error, got {other:?}"),
        }
    }
}
