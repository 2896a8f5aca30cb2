//! Parallel dataset operations: scan/filter and broadcast hash join — the
//! delegable operations of the parallel store ("if the DMS has a
//! distributed architecture, the delegated subquery will be evaluated in
//! parallel fashion").
//!
//! Both operators fan their per-partition work out through the shared
//! scoped-thread executor ([`estocada_parexec::scoped_map`]) and merge the
//! results **in partition order**, so every operator is deterministic: the
//! output is identical to a serial partition-by-partition run regardless of
//! worker scheduling. Each comes in a mapping form
//! ([`par_filter_map`], [`par_join_map`]) that hands every selected row to
//! a caller's function *by reference*, to append what it wants of it: that
//! is how the store projects, de-duplicates and groups a request's rows
//! without cloning the ones it does not return. The grouping itself
//! ([`estocada_pivot::GroupBy`]) runs on the coordinator over the
//! partition-ordered rows — order-sensitive floating-point sums come out
//! bit-identical to a serial fold.

use crate::dataset::Dataset;
use estocada_parexec::scoped_map;
use estocada_pivot::hash::FastMap;
use estocada_pivot::Value;

/// Parallel filter over all partitions: whatever `emit` appends for every
/// row passing `pred`, partition order preserved.
pub fn par_filter_map<'a, T: Send>(
    ds: &'a Dataset,
    pred: &(dyn Fn(&[Value]) -> bool + Sync),
    emit: impl Fn(&'a [Value], &mut Vec<T>) + Sync,
) -> Vec<T> {
    // Partitions are reached through `ds` (not the executor's item
    // reference) so that mapped rows may borrow from the dataset.
    scoped_map(ds.partitions.len(), &ds.partitions, |i, _| {
        let part: &'a [Vec<Value>] = &ds.partitions[i];
        let mut out = Vec::new();
        for row in part.iter().filter(|row| pred(row)) {
            emit(row, &mut out);
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Parallel filter + projection over all partitions.
///
/// `pred` runs on every row; `projection` (if given) restricts the output
/// columns. Returns the surviving rows (partition order preserved).
pub fn par_filter(
    ds: &Dataset,
    pred: &(dyn Fn(&[Value]) -> bool + Sync),
    projection: Option<&[usize]>,
) -> Vec<Vec<Value>> {
    par_filter_map(ds, pred, |row, out| out.push(project(row, projection)))
}

/// Broadcast hash join: build a hash table of `right` (assumed the smaller
/// side) on `right_keys`, probe `left` partitions in parallel, and collect
/// whatever `emit` appends for every matching `(left row, right row)` pair.
pub fn par_join_map<'a, T: Send>(
    left: &'a Dataset,
    right: &'a Dataset,
    left_keys: &[usize],
    right_keys: &[usize],
    emit: impl Fn(&'a [Value], &'a [Value], &mut Vec<T>) + Sync,
) -> Vec<T> {
    assert_eq!(left_keys.len(), right_keys.len(), "join key arity");
    let mut table: FastMap<Vec<&Value>, Vec<&'a Vec<Value>>> = FastMap::default();
    for row in right.iter_rows() {
        let key: Vec<&Value> = right_keys.iter().map(|c| &row[*c]).collect();
        table.entry(key).or_default().push(row);
    }
    let table = &table;
    scoped_map(left.partitions.len(), &left.partitions, |i, _| {
        let part: &'a [Vec<Value>] = &left.partitions[i];
        let mut out = Vec::new();
        for lrow in part {
            let key: Vec<&Value> = left_keys.iter().map(|c| &lrow[*c]).collect();
            if let Some(matches) = table.get(&key) {
                for rrow in matches {
                    emit(lrow, rrow, &mut out);
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect()
}

/// [`par_join_map`] with owned `left ++ right` output rows.
pub fn par_join(
    left: &Dataset,
    right: &Dataset,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Vec<Vec<Value>> {
    par_join_map(left, right, left_keys, right_keys, |l, r, out| {
        out.push(l.iter().chain(r).cloned().collect())
    })
}

fn project(row: &[Value], projection: Option<&[usize]>) -> Vec<Value> {
    match projection {
        None => row.to_vec(),
        Some(cols) => cols.iter().map(|c| row[*c].clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{AggFun, GroupBy};

    /// One aggregate grouped on `group_by`, the way the store answers a
    /// grouped scan: the needed columns by reference, in partition order,
    /// into the shared grouping tail.
    fn par_aggregate(
        ds: &Dataset,
        group_by: &[usize],
        agg: AggFun,
        agg_col: usize,
    ) -> Vec<Vec<Value>> {
        let tail = GroupBy {
            keys: group_by.len(),
            aggs: vec![(agg, group_by.len())],
            having: Vec::new(),
        };
        let cells = par_filter_map(ds, &|_| true, |row, cells| {
            cells.extend(group_by.iter().chain([&agg_col]).map(|c| &row[*c]))
        });
        tail.apply(group_by.len() + 1, &cells)
    }

    fn dataset() -> Dataset {
        Dataset::from_rows(
            &["id", "grp", "amount"],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Double((i as f64) * 0.5),
                ]
            }),
            8,
        )
    }

    #[test]
    fn par_filter_matches_sequential() {
        let d = dataset();
        let par = par_filter(&d, &|r| r[1] == Value::Int(2), None);
        let seq: Vec<_> = d
            .iter_rows()
            .filter(|r| r[1] == Value::Int(2))
            .cloned()
            .collect();
        assert_eq!(par.len(), seq.len());
        let mut p = par.clone();
        let mut s = seq;
        p.sort();
        s.sort();
        assert_eq!(p, s);
    }

    #[test]
    fn par_filter_projection() {
        let d = dataset();
        let out = par_filter(&d, &|r| r[0] == Value::Int(5), Some(&[2]));
        assert_eq!(out, vec![vec![Value::Double(2.5)]]);
    }

    #[test]
    fn par_filter_preserves_partition_order() {
        // Identity filter must reproduce the exact row order of iter_rows
        // (which walks partitions in order) — the deterministic fan-in
        // contract of the shared executor.
        let d = dataset();
        let par = par_filter(&d, &|_| true, None);
        let seq: Vec<_> = d.iter_rows().cloned().collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn empty_dataset_ops_yield_empty() {
        let empty = Dataset::from_rows(&["id", "grp", "amount"], Vec::new(), 4);
        assert!(par_filter(&empty, &|_| true, None).is_empty());
        assert!(par_join(&empty, &dataset(), &[1], &[1]).is_empty());
        // A grouped aggregate over nothing has no group; a global one is
        // one row (SQL semantics, the mediator's too).
        assert!(par_aggregate(&empty, &[1], AggFun::Count, 0).is_empty());
        assert_eq!(
            par_aggregate(&empty, &[], AggFun::Count, 0),
            vec![vec![Value::Int(0)]]
        );
    }

    #[test]
    fn single_partition_runs_inline() {
        let d = Dataset::from_rows(
            &["id"],
            (0..10).map(|i| vec![Value::Int(i)]),
            1, // one partition → executor takes the serial path
        );
        let out = par_filter(&d, &|r| r[0].as_int().unwrap() % 2 == 0, None);
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn predicate_panic_propagates() {
        let d = dataset();
        let result = std::panic::catch_unwind(|| {
            par_filter(
                &d,
                &|r| {
                    if r[0] == Value::Int(42) {
                        panic!("bad row");
                    }
                    true
                },
                None,
            )
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn par_join_matches_nested_loop() {
        let left = dataset();
        let right = Dataset::from_rows(
            &["grp", "label"],
            (0..4).map(|g| vec![Value::Int(g), Value::str(format!("g{g}"))]),
            2,
        );
        let joined = par_join(&left, &right, &[1], &[0]);
        assert_eq!(joined.len(), 100); // every row has exactly one group
        for row in &joined {
            assert_eq!(row.len(), 5);
            assert_eq!(row[1], row[3]); // join keys equal
        }
    }

    #[test]
    fn par_join_with_no_matches() {
        let left = dataset();
        let right = Dataset::from_rows(&["grp"], vec![vec![Value::Int(99)]], 1);
        assert!(par_join(&left, &right, &[1], &[0]).is_empty());
    }

    #[test]
    fn aggregate_count_and_sum() {
        let d = dataset();
        let counts = par_aggregate(&d, &[1], AggFun::Count, 0);
        assert_eq!(counts.len(), 4);
        for row in &counts {
            assert_eq!(row[1], Value::Int(25));
        }
        let sums = par_aggregate(&d, &[1], AggFun::Sum, 2);
        let total: f64 = sums.iter().map(|r| r[1].as_double().unwrap()).sum();
        let expected: f64 = (0..100).map(|i| i as f64 * 0.5).sum();
        assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn aggregate_sums_are_deterministic_across_runs() {
        // Partition-order fan-in, then one serial fold: repeated runs must
        // produce bit-identical doubles.
        let d = dataset();
        let first = par_aggregate(&d, &[1], AggFun::Sum, 2);
        for _ in 0..10 {
            assert_eq!(par_aggregate(&d, &[1], AggFun::Sum, 2), first);
        }
    }

    #[test]
    fn aggregate_min_max() {
        let d = dataset();
        let mins = par_aggregate(&d, &[1], AggFun::Min, 0);
        // group g's min id is g itself.
        for row in &mins {
            assert_eq!(row[0], row[1]);
        }
        let maxs = par_aggregate(&d, &[1], AggFun::Max, 0);
        for row in &maxs {
            let g = row[0].as_int().unwrap();
            assert_eq!(row[1], Value::Int(96 + g));
        }
    }

    #[test]
    fn global_aggregate_empty_group_by() {
        let d = dataset();
        let out = par_aggregate(&d, &[], AggFun::Count, 0);
        assert_eq!(out, vec![vec![Value::Int(100)]]);
    }
}
