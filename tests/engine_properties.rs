//! Property-based tests of the runtime engine and the store substrates:
//! operator equivalences, value order, and parallel-vs-sequential
//! agreement.

use estocada_engine::{execute_with, CmpOp, ExecOptions, Expr, Plan, RowBatch};
use estocada_parstore::{par_filter, par_join, AggFun, Dataset, GroupBy, ParStore, Shape};
use estocada_pivot::{ConstId, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e9f64..1e9f64).prop_map(Value::Double),
        "[a-z]{0,8}".prop_map(|s| Value::str(&s)),
        any::<u64>().prop_map(Value::Id),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::array),
            proptest::collection::vec(("[a-z]{1,4}", inner), 0..3)
                .prop_map(|fields| { Value::object_owned(fields.into_iter()) }),
        ]
    })
}

fn run(plan: &Plan) -> RowBatch {
    execute_with(plan, &ExecOptions::default()).unwrap().0
}

fn int_batch(cols: &[&str], rows: Vec<Vec<i64>>) -> RowBatch {
    RowBatch::new(
        cols.iter().map(|s| s.to_string()).collect(),
        rows.into_iter()
            .map(|r| r.into_iter().map(Value::Int).collect())
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Hash join and nested-loop join agree on arbitrary key data.
    #[test]
    fn hash_join_equals_nl_join(
        left in proptest::collection::vec((0i64..6, any::<i64>()), 0..20),
        right in proptest::collection::vec((0i64..6, any::<i64>()), 0..20),
    ) {
        let l = int_batch(&["k", "a"], left.into_iter().map(|(k, a)| vec![k, a]).collect());
        let r = int_batch(&["k2", "b"], right.into_iter().map(|(k, b)| vec![k, b]).collect());
        let hj = Plan::HashJoin {
            left: Box::new(Plan::Values(l.clone())),
            right: Box::new(Plan::Values(r.clone())),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let nl = Plan::NlJoin {
            left: Box::new(Plan::Values(l)),
            right: Box::new(Plan::Values(r)),
            pred: Some(Expr::col(0).cmp(CmpOp::Eq, Expr::col(2))),
        };
        let mut a = run(&hj);
        let mut b = run(&nl);
        a.rows.sort();
        b.rows.sort();
        prop_assert_eq!(a.rows, b.rows);
    }

    /// Distinct is idempotent and order-insensitive.
    #[test]
    fn distinct_is_idempotent(rows in proptest::collection::vec((0i64..4, 0i64..4), 0..25)) {
        let batch = int_batch(&["a", "b"], rows.into_iter().map(|(a, b)| vec![a, b]).collect());
        let once = Plan::Distinct { input: Box::new(Plan::Values(batch)) };
        let b1 = run(&once);
        let twice = Plan::Distinct { input: Box::new(Plan::Values(b1.clone())) };
        let b2 = run(&twice);
        prop_assert_eq!(b1.rows.len(), b2.rows.len());
        let mut set = std::collections::HashSet::new();
        for r in &b2.rows {
            prop_assert!(set.insert(r.clone()), "duplicate survived Distinct");
        }
    }

    /// Parallel filter agrees with sequential filtering.
    #[test]
    fn par_filter_equals_sequential(
        rows in proptest::collection::vec((0i64..8, any::<i64>()), 0..60),
        parts in 1usize..6,
        needle in 0i64..8,
        keyed in any::<bool>(),
    ) {
        let data: Vec<Vec<Value>> = rows
            .iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::Int(*b)])
            .collect();
        let key: &[usize] = if keyed { &[0] } else { &[] };
        let ds = Dataset::from_rows(&["a", "b"], key, data.clone(), parts).unwrap();
        let needle_id = ConstId::intern(&Value::Int(needle));
        let mut par = par_filter(&ds, &|r| r[0] == needle_id, None).to_values();
        let mut seq: Vec<Vec<Value>> = data
            .into_iter()
            .filter(|r| r[0] == Value::Int(needle))
            .collect();
        par.sort();
        seq.sort();
        prop_assert_eq!(par, seq);
    }

    /// Parallel join agrees with the engine's hash join.
    #[test]
    fn par_join_equals_engine_join(
        left in proptest::collection::vec((0i64..5, any::<i64>()), 0..25),
        right in proptest::collection::vec((0i64..5, any::<i64>()), 0..25),
        parts in 1usize..5,
        keyed in any::<bool>(),
    ) {
        let lrows: Vec<Vec<Value>> = left.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect();
        let rrows: Vec<Vec<Value>> = right.iter().map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)]).collect();
        let key: &[usize] = if keyed { &[0] } else { &[] };
        let lds = Dataset::from_rows(&["k", "a"], key, lrows.clone(), parts).unwrap();
        let rds = Dataset::from_rows(&["k", "b"], key, rrows.clone(), parts).unwrap();
        let mut par = par_join(&lds, &rds, &[0], &[0], None).to_values();
        let plan = Plan::HashJoin {
            left: Box::new(Plan::Values(RowBatch::new(vec!["k".into(), "a".into()], lrows))),
            right: Box::new(Plan::Values(RowBatch::new(vec!["k2".into(), "b".into()], rrows))),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        let mut eng = run(&plan);
        par.sort();
        eng.rows.sort();
        prop_assert_eq!(par, eng.rows);
    }

    /// The parallel store's grouped scan counts group sizes (each row
    /// carries its id: the tail ranges over distinct rows).
    #[test]
    fn par_aggregate_counts(rows in proptest::collection::vec(0i64..5, 1..50), parts in 1usize..5) {
        let data = rows.iter().enumerate().map(|(i, g)| vec![Value::Int(*g), Value::Int(i as i64)]);
        let store = ParStore::new();
        store.create_dataset("t", &["g", "id"], &[], data, parts).unwrap();
        let counts = Shape {
            group: Some(GroupBy { keys: 1, aggs: vec![(AggFun::Count, 1)], having: vec![] }),
            ..Shape::default()
        };
        let out = store.scan("t", &[], &counts).unwrap().to_values();
        let mut expected: std::collections::HashMap<i64, i64> = Default::default();
        for g in &rows {
            *expected.entry(*g).or_insert(0) += 1;
        }
        prop_assert_eq!(out.len(), expected.len());
        for row in out {
            let g = row[0].as_int().unwrap();
            prop_assert_eq!(&row[1], &Value::Int(expected[&g]));
        }
    }

    /// Value ordering is total and consistent with equality (sort-based
    /// dedup never loses distinct values).
    #[test]
    fn value_order_is_total(vs in proptest::collection::vec(arb_value(), 0..12)) {
        let mut sorted = vs.clone();
        sorted.sort();
        for w in sorted.windows(2) {
            prop_assert!(w[0] <= w[1]);
            prop_assert_eq!(w[0].cmp(&w[1]), w[1].cmp(&w[0]).reverse());
        }
    }
}
