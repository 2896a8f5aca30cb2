//! Aggregation over rows of [`Value`]s: the one aggregate vocabulary
//! ([`AggFun`]), the one accumulator ([`Accumulator`]) and the grouping
//! tail ([`GroupBy`]) that a store evaluates beside its data when the
//! mediator delegates a whole aggregate query.
//!
//! # Semantics (pinned — the mediator's `Aggregate` operator is row for
//! row the same)
//!
//! - Aggregates range over **distinct** input rows: [`GroupBy::apply`] and
//!   [`distinct`] keep the first occurrence of every row, in input order.
//!   Both take their input rows *flat* — one slice of value references,
//!   `width` per row — so a store hands over the columns it selected
//!   without allocating or cloning per row. (A zero-width row cannot be
//!   told from no row: callers with an empty select list have no tail.)
//! - Groups come out in **first-seen** order, and every accumulator folds
//!   its group's rows in input order — so floating-point sums are
//!   bit-identical wherever the same rows arrive in the same order.
//! - `Count` finishes as `Int`, `Sum` and `Avg` as `Double` (non-numeric
//!   arguments add `0.0`), `Min`/`Max` as the first extreme value seen;
//!   `Avg`/`Min`/`Max` over nothing are `Null`.
//! - A global aggregate (no group columns) over no rows is **one** row; a
//!   grouped one over no rows is none.

use crate::value::{CmpOp, Value};
use std::collections::{HashMap, HashSet};
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

/// Running state of one aggregate over borrowed values.
#[derive(Debug, Clone)]
pub struct Accumulator<'a> {
    fun: AggFun,
    count: i64,
    sum: f64,
    extreme: Option<&'a Value>,
}

impl<'a> Accumulator<'a> {
    /// The empty state of `fun`.
    pub fn new(fun: AggFun) -> Accumulator<'a> {
        Accumulator {
            fun,
            count: 0,
            sum: 0.0,
            extreme: None,
        }
    }

    /// Fold one argument value in.
    pub fn update(&mut self, v: &'a Value) {
        match self.fun {
            AggFun::Count => self.count += 1,
            AggFun::Sum => self.sum += v.as_double().unwrap_or(0.0),
            AggFun::Avg => {
                self.count += 1;
                self.sum += v.as_double().unwrap_or(0.0);
            }
            AggFun::Min => {
                if self.extreme.is_none_or(|m| v < m) {
                    self.extreme = Some(v);
                }
            }
            AggFun::Max => {
                if self.extreme.is_none_or(|m| v > m) {
                    self.extreme = Some(v);
                }
            }
        }
    }

    /// The aggregate's value.
    pub fn finish(self) -> Value {
        match self.fun {
            AggFun::Count => Value::Int(self.count),
            AggFun::Sum => Value::Double(self.sum),
            AggFun::Avg if self.count == 0 => Value::Null,
            AggFun::Avg => Value::Double(self.sum / self.count as f64),
            AggFun::Min | AggFun::Max => self.extreme.cloned().unwrap_or(Value::Null),
        }
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

    /// Group the distinct rows of `cells` and keep the groups that pass
    /// `having`. `cells` holds the input rows flat, `width` values each (no
    /// per-row allocation; rows and group keys are slices of it); `width`
    /// must be what [`GroupBy::fits`] was asked about.
    pub fn apply(&self, width: usize, cells: &[&Value]) -> Vec<Vec<Value>> {
        let rows = cells.len() / width.max(1);
        let mut seen: HashSet<&[&Value]> = HashSet::with_capacity(rows);
        let mut index: HashMap<&[&Value], usize> = HashMap::new();
        let mut groups: Vec<(&[&Value], Vec<Accumulator>)> = Vec::new();
        let fresh = || -> Vec<Accumulator> {
            self.aggs
                .iter()
                .map(|(fun, _)| Accumulator::new(*fun))
                .collect()
        };
        for row in cells.chunks_exact(width.max(1)) {
            if !seen.insert(row) {
                continue;
            }
            let key = &row[..self.keys];
            let g = *index.entry(key).or_insert_with(|| {
                groups.push((key, fresh()));
                groups.len() - 1
            });
            for (acc, (_, col)) in groups[g].1.iter_mut().zip(&self.aggs) {
                acc.update(row[*col]);
            }
        }
        if self.keys == 0 && groups.is_empty() {
            groups.push((&[], fresh()));
        }
        groups
            .into_iter()
            .map(|(key, accs)| {
                let key = key.iter().map(|v| (*v).clone());
                key.chain(accs.into_iter().map(Accumulator::finish))
                    .collect::<Vec<Value>>()
            })
            .filter(|out| {
                self.having
                    .iter()
                    .all(|(col, op, v)| out.get(*col).is_some_and(|x| op.eval(x, v)))
            })
            .collect()
    }
}

/// The distinct rows of `cells` (flat, `width` values per row), first
/// occurrence of each, in input order.
pub fn distinct(width: usize, cells: &[&Value]) -> Vec<Vec<Value>> {
    let mut seen: HashSet<&[&Value]> = HashSet::with_capacity(cells.len() / width.max(1));
    let fresh = cells
        .chunks_exact(width.max(1))
        .filter(|row| seen.insert(row));
    fresh.map(owned).collect()
}

/// What a store returns of the rows it selected and projected into `cells`
/// (flat, `width` values per row): the groups of `group`, else each
/// `distinct` row once, else every row — cloning only what is returned.
pub fn answer(
    width: usize,
    cells: &[&Value],
    distinct: bool,
    group: Option<&GroupBy>,
) -> Vec<Vec<Value>> {
    match group {
        Some(g) => g.apply(width, cells),
        None if distinct => self::distinct(width, cells),
        None => cells.chunks_exact(width.max(1)).map(owned).collect(),
    }
}

fn owned(row: &[&Value]) -> Vec<Value> {
    row.iter().map(|v| (*v).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(data: &[Vec<Value>]) -> Vec<&Value> {
        data.iter().flatten().collect()
    }

    #[test]
    fn every_function_finishes_with_its_pinned_type() {
        let vals = [Value::Int(3), Value::Double(1.5), Value::Int(1)];
        let run = |fun| {
            let mut a = Accumulator::new(fun);
            vals.iter().for_each(|v| a.update(v));
            a.finish()
        };
        assert_eq!(run(AggFun::Count), Value::Int(3));
        assert_eq!(run(AggFun::Sum), Value::Double(5.5));
        assert_eq!(run(AggFun::Avg), Value::Double(5.5 / 3.0));
        assert_eq!(run(AggFun::Min), Value::Int(1));
        assert_eq!(run(AggFun::Max), Value::Int(3));
        let empty = |fun| Accumulator::new(fun).finish();
        assert_eq!(empty(AggFun::Count), Value::Int(0));
        assert_eq!(empty(AggFun::Sum), Value::Double(0.0));
        for fun in [AggFun::Avg, AggFun::Min, AggFun::Max] {
            assert_eq!(empty(fun), Value::Null);
        }
    }

    #[test]
    fn groups_are_first_seen_and_duplicates_count_once() {
        let data = vec![
            vec![Value::str("b"), Value::Int(1)],
            vec![Value::str("a"), Value::Int(5)],
            vec![Value::str("b"), Value::Int(1)], // duplicate row
            vec![Value::str("b"), Value::Int(2)],
        ];
        let g = GroupBy {
            keys: 1,
            aggs: vec![(AggFun::Count, 1), (AggFun::Sum, 1)],
            having: vec![],
        };
        assert_eq!(
            g.apply(2, &cells(&data)),
            vec![
                vec![Value::str("b"), Value::Int(2), Value::Double(3.0)],
                vec![Value::str("a"), Value::Int(1), Value::Double(5.0)],
            ]
        );
        assert_eq!(distinct(2, &cells(&data)).len(), 3);
    }

    #[test]
    fn empty_input_is_one_global_row_and_no_grouped_row() {
        let global = GroupBy {
            keys: 0,
            aggs: vec![(AggFun::Count, 0), (AggFun::Avg, 0)],
            having: vec![],
        };
        assert_eq!(global.apply(1, &[]), vec![vec![Value::Int(0), Value::Null]]);
        let grouped = GroupBy {
            keys: 1,
            ..global.clone()
        };
        assert!(grouped.apply(1, &[]).is_empty());
        assert!(grouped.fits(1) && !grouped.fits(0));
        assert_eq!(global.out_width(), 2);
    }

    #[test]
    fn having_compares_under_the_total_value_order() {
        // A sum of exactly 200.0 passes `>= 200`: mixed numerics compare by
        // value, then `Double` ranks above `Int`.
        let data = vec![
            vec![Value::Int(1), Value::Int(200)],
            vec![Value::Int(2), Value::Int(199)],
        ];
        let g = GroupBy {
            keys: 1,
            aggs: vec![(AggFun::Sum, 1)],
            having: vec![(1, CmpOp::Ge, Value::Int(200))],
        };
        assert_eq!(
            g.apply(2, &cells(&data)),
            vec![vec![Value::Int(1), Value::Double(200.0)]]
        );
    }
}
