//! Parallel dataset operations: scan/filter and broadcast hash join — the
//! delegable operations of the parallel store ("if the DMS has a
//! distributed architecture, the delegated subquery will be evaluated in
//! parallel fashion").
//!
//! Both fan their per-partition work out through the shared scoped-thread
//! executor ([`estocada_parexec::scoped_map`]), each worker walking its
//! partition's blocks and projecting the rows it selects, and merge the
//! results **in partition order**: the
//! output equals a serial run whatever the scheduling, so the grouping the
//! coordinator runs over it ([`estocada_pivot::kernel::answer`], which folds
//! each distinct row into its group in first-seen order) sums doubles
//! bit-identically. The join's hash table is the kernel's flat
//! [`JoinTable`]: built once from the right side's keys and shared by every
//! partition's probe.

use crate::dataset::{Dataset, Partition, Row};
use estocada_parexec::scoped_map;
use estocada_pivot::kernel::{pack_key, JoinTable};
use estocada_pivot::{ConstId, IdRows};

/// The `projection` columns of rows `width` wide, or every column.
fn columns(projection: Option<&[usize]>, width: usize) -> Vec<usize> {
    projection.map_or_else(|| (0..width).collect(), <[usize]>::to_vec)
}

/// The cells of `rows` at `projection` (every column of the rows, `width`
/// wide, when `None`).
pub(crate) fn project<'a>(
    rows: impl IntoIterator<Item = &'a Row>,
    projection: Option<&[usize]>,
    width: usize,
) -> IdRows {
    let cols = columns(projection, width);
    let mut out = IdRows::empty(cols.len());
    rows.into_iter()
        .for_each(|row| out.push(cols.iter().map(|c| row[*c])));
    out
}

/// Each partition's rows, concatenated in partition order.
fn concat(width: usize, parts: Vec<IdRows>) -> IdRows {
    let cells = parts.iter().flat_map(|p| &p.cells).copied().collect();
    let len = parts.iter().map(|p| p.len).sum();
    IdRows { width, len, cells }
}

/// A partition's rows, block by block.
fn rows(part: &Partition) -> impl Iterator<Item = &Row> {
    part.values().flat_map(IdRows::rows)
}

/// Parallel filter + projection: the rows passing `pred`, partition order
/// preserved, as their `projection` columns (every column when `None`).
pub fn par_filter(
    ds: &Dataset,
    pred: &(dyn Fn(&[ConstId]) -> bool + Sync),
    projection: Option<&[usize]>,
) -> IdRows {
    let width = ds.columns.len();
    let parts = scoped_map(ds.partitions.len(), &ds.partitions, |_, part| {
        project(rows(part).filter(|row| pred(row)), projection, width)
    });
    concat(columns(projection, width).len(), parts)
}

/// Broadcast hash join: build a hash table of `right` (assumed the smaller
/// side) on `right_keys`, probe `left` partitions in parallel, and project
/// every matching `left ++ right` row onto `projection` (every column when
/// `None`), partition order preserved.
pub fn par_join(
    left: &Dataset,
    right: &Dataset,
    left_keys: &[usize],
    right_keys: &[usize],
    projection: Option<&[usize]>,
) -> IdRows {
    assert_eq!(left_keys.len(), right_keys.len(), "join key arity");
    let lw = left.columns.len();
    let cols = columns(projection, lw + right.columns.len());
    let key = |row: &[ConstId], on: &[usize]| pack_key(on.iter().map(|c| row[*c]), on.len());
    let built: Vec<&Row> = right.iter_rows().collect();
    let table = JoinTable::build(built.iter().map(|row| key(row, right_keys)));
    let parts = scoped_map(left.partitions.len(), &left.partitions, |_, part| {
        let mut out = IdRows::empty(cols.len());
        for lrow in rows(part) {
            for at in table.probe(&key(lrow, left_keys)) {
                let rrow = built[*at as usize];
                let cell = |c: &usize| c.checked_sub(lw).map_or_else(|| lrow[*c], |rc| rrow[rc]);
                out.push(cols.iter().map(cell));
            }
        }
        out
    });
    concat(cols.len(), parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::kernel::answer;
    use estocada_pivot::{AggFun, GroupBy, Value};

    /// One aggregate grouped on `group_by`, the way the store answers a
    /// grouped scan: the needed columns, in partition order, into the
    /// shared kernel.
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
        let cols: Vec<usize> = group_by.iter().chain([&agg_col]).copied().collect();
        let rows = par_filter(ds, &|_| true, Some(&cols));
        answer(rows, true, Some(&tail)).to_values()
    }

    /// Every row of `d`, in partition order.
    fn all(d: &Dataset) -> Vec<Vec<ConstId>> {
        d.iter_rows().map(<[ConstId]>::to_vec).collect()
    }

    fn is(v: Value) -> ConstId {
        ConstId::intern(&v)
    }

    fn dataset() -> Dataset {
        Dataset::from_rows(
            &["id", "grp", "amount"],
            &[],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 4),
                    Value::Double((i as f64) * 0.5),
                ]
            }),
            8,
        )
        .unwrap()
    }

    #[test]
    fn par_filter_matches_sequential() {
        let d = dataset();
        let par = par_filter(&d, &|r| r[1] == is(Value::Int(2)), None);
        let seq: Vec<_> = d
            .iter_rows()
            .filter(|r| r[1] == is(Value::Int(2)))
            .map(<[ConstId]>::to_vec)
            .collect();
        assert_eq!(par.len, seq.len());
        let mut p: Vec<Vec<ConstId>> = par.rows().map(<[ConstId]>::to_vec).collect();
        let mut s = seq;
        p.sort();
        s.sort();
        assert_eq!(p, s);
    }

    #[test]
    fn par_filter_projection() {
        let d = dataset();
        let out = par_filter(&d, &|r| r[0] == is(Value::Int(5)), Some(&[2]));
        assert_eq!(out.to_values(), vec![vec![Value::Double(2.5)]]);
    }

    #[test]
    fn par_filter_preserves_partition_order() {
        // Identity filter must reproduce the exact row order of iter_rows
        // (which walks partitions in order) — the deterministic fan-in
        // contract of the shared executor.
        let d = dataset();
        let par = par_filter(&d, &|_| true, None);
        assert_eq!(
            par.rows().map(<[ConstId]>::to_vec).collect::<Vec<_>>(),
            all(&d)
        );
    }

    #[test]
    fn empty_dataset_ops_yield_empty() {
        let empty = Dataset::from_rows(&["id", "grp", "amount"], &[], Vec::new(), 4).unwrap();
        assert_eq!(par_filter(&empty, &|_| true, None).len, 0);
        assert_eq!(par_join(&empty, &dataset(), &[1], &[1], None).len, 0);
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
            &[],
            (0..10).map(|i| vec![Value::Int(i)]),
            1, // one partition → executor takes the serial path
        )
        .unwrap();
        let out = par_filter(&d, &|r| r[0].value().as_int().unwrap() % 2 == 0, None);
        assert_eq!(out.len, 5);
    }

    #[test]
    fn predicate_panic_propagates() {
        let d = dataset();
        let result = std::panic::catch_unwind(|| {
            par_filter(
                &d,
                &|r| {
                    if r[0] == is(Value::Int(42)) {
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
            &[0],
            (0..4).map(|g| vec![Value::Int(g), Value::str(format!("g{g}"))]),
            2,
        )
        .unwrap();
        let joined = par_join(&left, &right, &[1], &[0], None);
        assert_eq!((joined.len, joined.width), (100, 5)); // one group each
        for row in joined.rows() {
            assert_eq!(row[1], row[3]); // join keys equal
        }
        let labels = par_join(&left, &right, &[1], &[0], Some(&[0, 4]));
        for row in labels.to_values() {
            let id = row[0].as_int().unwrap();
            assert_eq!(row[1], Value::str(format!("g{}", id % 4)));
        }
    }

    #[test]
    fn par_join_with_no_matches() {
        let left = dataset();
        let right = Dataset::from_rows(&["grp"], &[], vec![vec![Value::Int(99)]], 1).unwrap();
        assert_eq!(par_join(&left, &right, &[1], &[0], None).len, 0);
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
