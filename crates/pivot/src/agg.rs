//! Aggregation vocabulary: the aggregate functions ([`AggFun`]) and the
//! grouping tail ([`GroupBy`]) of an aggregate query, in the form a store
//! evaluates beside its data. One kernel evaluates it, in a store
//! ([`crate::kernel::answer`]) and under the mediator's `Aggregate`
//! operator alike ([`crate::kernel::Groups`]): the pushed and the mediated
//! tail are the same code.
//!
//! # Semantics (pinned)
//!
//! - Aggregates range over **distinct** input rows, the first occurrence of
//!   each kept (the mediator plans a `Distinct` under its `Aggregate`).
//! - Groups come out in **first-seen** order, each folded in input order,
//!   so floating-point sums are bit-identical wherever the same rows arrive
//!   in the same order.
//! - `Count` finishes as `Int`, `Sum` and `Avg` as `Double` (non-numeric
//!   arguments add `0.0`), `Min`/`Max` as the first extreme value seen
//!   under the total value order; `Avg`/`Min`/`Max` over nothing are
//!   `Null`. A global aggregate over no rows is **one** row; a grouped one
//!   is none. `HAVING` compares under the same order ([`CmpOp::eval`]).

use crate::value::{CmpOp, Value};
use std::fmt;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFun {
    /// Row count.
    Count,
    /// Numeric sum.
    Sum,
    /// Numeric average.
    Avg,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

/// The SQL name (`COUNT`, `SUM`, …).
impl fmt::Display for AggFun {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AggFun::Count => "COUNT",
            AggFun::Sum => "SUM",
            AggFun::Avg => "AVG",
            AggFun::Min => "MIN",
            AggFun::Max => "MAX",
        })
    }
}

/// `GROUP BY` + aggregates + `HAVING` over projected rows: the tail of an
/// aggregate query in the form a store evaluates natively.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBy {
    /// The first `keys` input columns are the grouping columns (0 for a
    /// global aggregate).
    pub keys: usize,
    /// `(function, input column)` per aggregate; output rows are the group
    /// key followed by the aggregates in this order.
    pub aggs: Vec<(AggFun, usize)>,
    /// `HAVING` conjuncts `(output column, op, constant)`.
    pub having: Vec<(usize, CmpOp, Value)>,
}

impl GroupBy {
    /// Whether every column the tail reads exists: its inputs in rows
    /// `width` wide, its `HAVING` columns in its own output. Checked where
    /// the tail enters a store.
    pub fn fits(&self, width: usize) -> bool {
        self.keys <= width
            && self.aggs.iter().all(|(_, c)| *c < width)
            && self.having.iter().all(|(c, _, _)| *c < self.out_width())
    }

    /// Number of output columns.
    pub fn out_width(&self) -> usize {
        self.keys + self.aggs.len()
    }

    /// Write the tail as SQL over the `SELECT DISTINCT` block it groups —
    /// `inner` writes that block — taken as the sub-select `s` with columns
    /// named by position: `SELECT s.c0, COUNT(s.c1) FROM (…) s GROUP BY
    /// s.c0 HAVING COUNT(s.c1) >= 2`.
    pub fn fmt_over(
        &self,
        f: &mut fmt::Formatter<'_>,
        inner: impl FnOnce(&mut fmt::Formatter<'_>) -> fmt::Result,
    ) -> fmt::Result {
        // Output column `i`: a group key or an aggregate call.
        let out = |i: usize| match i.checked_sub(self.keys).and_then(|a| self.aggs.get(a)) {
            Some((fun, col)) => format!("{fun}(s.c{col})"),
            None => format!("s.c{i}"),
        };
        let list = |n: usize| (0..n).map(out).collect::<Vec<_>>().join(", ");
        write!(f, "SELECT {} FROM (", list(self.out_width()))?;
        inner(f)?;
        write!(f, ") s")?;
        if self.keys > 0 {
            write!(f, " GROUP BY {}", list(self.keys))?;
        }
        for (i, (col, op, v)) in self.having.iter().enumerate() {
            let kw = if i == 0 { "HAVING" } else { "AND" };
            write!(f, " {kw} {} {op} {v}", out(*col))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{answer, IdRows};
    use crate::ConstId;

    fn rows(data: &[Vec<Value>]) -> IdRows {
        let width = data.first().map_or(0, Vec::len);
        let cells = data.iter().flatten().map(ConstId::intern).collect();
        IdRows {
            width,
            len: data.len(),
            cells,
        }
    }

    fn group(keys: usize, aggs: Vec<(AggFun, usize)>) -> GroupBy {
        let having = Vec::new();
        GroupBy { keys, aggs, having }
    }

    #[test]
    fn every_function_finishes_with_its_pinned_type() {
        let vals = rows(&[
            vec![Value::Int(3)],
            vec![Value::Double(1.5)],
            vec![Value::Int(1)],
        ]);
        let all = [
            AggFun::Count,
            AggFun::Sum,
            AggFun::Avg,
            AggFun::Min,
            AggFun::Max,
        ];
        let run = |data: &IdRows| {
            let aggs = all.iter().map(|f| (*f, 0)).collect();
            answer(data.clone(), true, Some(&group(0, aggs))).to_values()
        };
        let folded = vec![
            Value::Int(3),
            Value::Double(5.5),
            Value::Double(5.5 / 3.0),
            Value::Int(1),
            Value::Int(3),
        ];
        assert_eq!(run(&vals), vec![folded]);
        let empty = IdRows {
            width: 1,
            ..IdRows::default()
        };
        let null = Value::Null;
        let none = vec![
            Value::Int(0),
            Value::Double(0.0),
            null.clone(),
            null.clone(),
            null,
        ];
        assert_eq!(run(&empty), vec![none]);
    }

    #[test]
    fn groups_are_first_seen_and_duplicates_count_once() {
        let data = rows(&[
            vec![Value::str("b"), Value::Int(1)],
            vec![Value::str("a"), Value::Int(5)],
            vec![Value::str("b"), Value::Int(1)], // duplicate row
            vec![Value::str("b"), Value::Int(2)],
        ]);
        let g = group(1, vec![(AggFun::Count, 1), (AggFun::Sum, 1)]);
        assert_eq!(
            answer(data.clone(), true, Some(&g)).to_values(),
            vec![
                vec![Value::str("b"), Value::Int(2), Value::Double(3.0)],
                vec![Value::str("a"), Value::Int(1), Value::Double(5.0)],
            ]
        );
        assert_eq!(answer(data.clone(), true, None).len, 3);
        assert_eq!(answer(data, false, None).len, 4);
    }

    #[test]
    fn empty_input_is_one_global_row_and_no_grouped_row() {
        let empty = IdRows {
            width: 1,
            ..IdRows::default()
        };
        let global = group(0, vec![(AggFun::Count, 0), (AggFun::Avg, 0)]);
        assert_eq!(
            answer(empty.clone(), true, Some(&global)).to_values(),
            vec![vec![Value::Int(0), Value::Null]]
        );
        let grouped = group(1, global.aggs.clone());
        assert_eq!(answer(empty, true, Some(&grouped)).len, 0);
        assert!(grouped.fits(1) && !grouped.fits(0));
        assert_eq!(global.out_width(), 2);
    }

    #[test]
    fn having_compares_under_the_total_value_order() {
        // A sum of exactly 200.0 passes `>= 200`: mixed numerics compare by
        // value, then `Double` ranks above `Int`.
        let data = rows(&[
            vec![Value::Int(1), Value::Int(200)],
            vec![Value::Int(2), Value::Int(199)],
        ]);
        let mut g = group(1, vec![(AggFun::Sum, 1)]);
        g.having = vec![(1, CmpOp::Ge, Value::Int(200))];
        assert_eq!(
            answer(data, true, Some(&g)).to_values(),
            vec![vec![Value::Int(1), Value::Double(200.0)]]
        );
    }
}
