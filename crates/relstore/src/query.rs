//! The relational store's native query IR: conjunctive
//! select-project-join blocks, optionally `DISTINCT` and optionally under a
//! `GROUP BY` / aggregate / `HAVING` tail (the fragment of SQL the mediator
//! delegates).

pub use estocada_pivot::CmpOp;
use estocada_pivot::{GroupBy, Value};
use std::fmt;

/// Reference to a column of a table in the query's FROM list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColRef {
    /// Index into [`SqlQuery::tables`].
    pub table: usize,
    /// Column position within that table.
    pub column: usize,
}

/// A WHERE-clause predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// `col op constant`.
    ColConst(ColRef, CmpOp, Value),
    /// `col1 op col2` (equality predicates drive hash joins).
    ColCol(ColRef, CmpOp, ColRef),
}

/// A conjunctive select-project-join query.
#[derive(Debug, Clone, Default)]
pub struct SqlQuery {
    /// FROM list: table names (repeats allowed — self-joins).
    pub tables: Vec<String>,
    /// Conjunctive WHERE clause.
    pub predicates: Vec<Pred>,
    /// SELECT list.
    pub projection: Vec<ColRef>,
    /// `SELECT DISTINCT`: every projected row once, in first-seen order.
    pub distinct: bool,
    /// Grouping tail over the projected rows, addressed by SELECT-list
    /// position. It ranges over the **distinct** projected rows (the
    /// mediator's aggregate semantics, see [`estocada_pivot::agg`]), so it
    /// implies `distinct`.
    pub group: Option<GroupBy>,
}

impl SqlQuery {
    /// Start building a query.
    pub fn new() -> SqlQuery {
        SqlQuery::default()
    }

    /// Add a table to the FROM list, returning its index.
    pub fn add_table(&mut self, name: &str) -> usize {
        self.tables.push(name.to_string());
        self.tables.len() - 1
    }

    /// Add a predicate (builder style).
    pub fn filter(mut self, p: Pred) -> Self {
        self.predicates.push(p);
        self
    }

    /// Add a projection column (builder style).
    pub fn select(mut self, c: ColRef) -> Self {
        self.projection.push(c);
        self
    }

    /// Write the conjunctive block: `SELECT [DISTINCT] … FROM … [WHERE …]`.
    fn fmt_block(&self, f: &mut fmt::Formatter<'_>, distinct: bool) -> fmt::Result {
        let cols: Vec<String> = self.projection.iter().map(ColRef::to_string).collect();
        let cols = if cols.is_empty() {
            "*".into()
        } else {
            cols.join(", ")
        };
        let from = self
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| format!("{t} t{i}"));
        let distinct = if distinct { "DISTINCT " } else { "" };
        let from = from.collect::<Vec<_>>().join(", ");
        write!(f, "SELECT {distinct}{cols} FROM {from}")?;
        let pred = |p: &Pred| match p {
            Pred::ColConst(c, op, v) => format!("{c} {op} {v}"),
            Pred::ColCol(l, op, r) => format!("{l} {op} {r}"),
        };
        let preds: Vec<String> = self.predicates.iter().map(pred).collect();
        if !preds.is_empty() {
            write!(f, " WHERE {}", preds.join(" AND "))?;
        }
        Ok(())
    }
}

/// `t{table}.c{column}`.
impl fmt::Display for ColRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}.c{}", self.table, self.column)
    }
}

/// Prints as SQL; a grouped query selects from its `SELECT DISTINCT` block
/// as a sub-select ([`GroupBy::fmt_over`]).
impl fmt::Display for SqlQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.group {
            Some(g) => g.fmt_over(f, |f| self.fmt_block(f, true)),
            None => self.fmt_block(f, self.distinct),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ops_follow_value_order() {
        assert!(CmpOp::Lt.eval(&Value::Int(1), &Value::Int(2)));
        assert!(CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")));
        assert!(CmpOp::Ne.eval(&Value::Int(1), &Value::str("1")));
    }

    #[test]
    fn display_renders_sql_like_text() {
        let mut q = SqlQuery::new();
        let t0 = q.add_table("users");
        let t1 = q.add_table("orders");
        let q = q
            .filter(Pred::ColCol(
                ColRef {
                    table: t0,
                    column: 0,
                },
                CmpOp::Eq,
                ColRef {
                    table: t1,
                    column: 1,
                },
            ))
            .filter(Pred::ColConst(
                ColRef {
                    table: t1,
                    column: 2,
                },
                CmpOp::Gt,
                Value::Int(10),
            ))
            .select(ColRef {
                table: t0,
                column: 1,
            });
        let s = format!("{q}");
        assert!(s.contains("FROM users t0, orders t1"));
        assert!(s.contains("t0.c0 = t1.c1"));
        assert!(s.contains("t1.c2 > 10"));
    }

    #[test]
    fn display_renders_distinct_and_the_grouping_tail_as_sql() {
        use estocada_pivot::AggFun;
        let col = |column| ColRef { table: 0, column };
        let mut q = SqlQuery::new();
        q.add_table("orders");
        let mut q = q.select(col(3)).select(col(0)).select(col(4));
        q.distinct = true;
        assert_eq!(
            q.to_string(),
            "SELECT DISTINCT t0.c3, t0.c0, t0.c4 FROM orders t0"
        );
        q.group = Some(GroupBy {
            keys: 1,
            aggs: vec![(AggFun::Count, 1), (AggFun::Sum, 2)],
            having: vec![(2, CmpOp::Ge, Value::Int(200))],
        });
        assert_eq!(
            q.to_string(),
            "SELECT s.c0, COUNT(s.c1), SUM(s.c2) FROM \
             (SELECT DISTINCT t0.c3, t0.c0, t0.c4 FROM orders t0) s \
             GROUP BY s.c0 HAVING SUM(s.c2) >= 200"
        );
    }
}
