//! Scalar expressions: per-row evaluation plus a compiled per-batch form.
//!
//! [`Expr`] is the tree the planner builds and the tuple-at-a-time executor
//! walks once per row. The vectorized executor compiles it once per operator
//! into a crate-private `VExpr` — literals pre-interned to [`ConstId`]s,
//! out-of-range
//! columns folded to `Null` — and then evaluates whole batches at a time:
//! one dispatch per *batch* per node instead of one per row, equality
//! comparisons on interned ids where possible, and filter predicates
//! producing selection vectors instead of materialized rows.

use crate::batch::Batch;
pub use estocada_pivot::CmpOp;
use estocada_pivot::{ConstId, ConstReader, Value};

/// Arithmetic operators (numeric; integers widen to doubles when mixed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (by zero yields `Null`).
    Div,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column reference by position.
    Col(usize),
    /// Literal value.
    Lit(Value),
    /// Comparison.
    Cmp(Box<Expr>, CmpOp, Box<Expr>),
    /// Conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Arithmetic.
    Arith(Box<Expr>, ArithOp, Box<Expr>),
    /// Dotted-path extraction from a nested value.
    GetPath(Box<Expr>, String),
    /// String prefix of length `n` (the Big Data Benchmark's `SUBSTR`).
    Prefix(Box<Expr>, usize),
    /// `true` when the operand is `Null`.
    IsNull(Box<Expr>),
}

impl Expr {
    /// Column helper.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self op other` helper.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp(Box::new(self), op, Box::new(other))
    }

    /// Conjunction helper.
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// Evaluate against a row.
    pub fn eval(&self, row: &[Value]) -> Value {
        match self {
            Expr::Col(i) => row.get(*i).cloned().unwrap_or(Value::Null),
            Expr::Lit(v) => v.clone(),
            Expr::Cmp(l, op, r) => Value::Bool(op.eval(&l.eval(row), &r.eval(row))),
            Expr::And(l, r) => Value::Bool(l.eval_bool(row) && r.eval_bool(row)),
            Expr::Or(l, r) => Value::Bool(l.eval_bool(row) || r.eval_bool(row)),
            Expr::Not(e) => Value::Bool(!e.eval_bool(row)),
            Expr::Arith(l, op, r) => arith(&l.eval(row), *op, &r.eval(row)),
            Expr::GetPath(e, path) => e.eval(row).get_path(path).cloned().unwrap_or(Value::Null),
            Expr::Prefix(e, n) => match e.eval(row) {
                Value::Str(s) => {
                    let cut: String = s.chars().take(*n).collect();
                    Value::str(cut)
                }
                _ => Value::Null,
            },
            Expr::IsNull(e) => Value::Bool(e.eval(row).is_null()),
        }
    }

    /// Evaluate as a boolean (non-`Bool` values are `false`).
    pub fn eval_bool(&self, row: &[Value]) -> bool {
        matches!(self.eval(row), Value::Bool(true))
    }
}

/// An [`Expr`] compiled for per-batch evaluation: literals are interned
/// once at compile time (so evaluation never takes the intern table's write
/// lock and can run under a held [`ConstReader`]), and column references
/// beyond the input arity are folded to `Null` — matching the row
/// evaluator's `row.get(i)` semantics.
#[derive(Debug, Clone)]
pub(crate) enum VExpr {
    /// Column reference (in range for the input arity).
    Col(usize),
    /// Pre-interned literal.
    Lit(ConstId),
    /// Comparison.
    Cmp(Box<VExpr>, CmpOp, Box<VExpr>),
    /// Conjunction.
    And(Box<VExpr>, Box<VExpr>),
    /// Disjunction.
    Or(Box<VExpr>, Box<VExpr>),
    /// Negation.
    Not(Box<VExpr>),
    /// Arithmetic.
    Arith(Box<VExpr>, ArithOp, Box<VExpr>),
    /// Dotted-path extraction.
    GetPath(Box<VExpr>, String),
    /// String prefix.
    Prefix(Box<VExpr>, usize),
    /// Null test.
    IsNull(Box<VExpr>),
}

/// One evaluated column over the selected rows of a batch: either interned
/// ids (column gathers, literals) or computed values awaiting interning.
pub(crate) enum ColOut {
    /// Already-interned entries.
    Ids(Vec<ConstId>),
    /// Freshly computed values (interned later, outside any held reader).
    Vals(Vec<Value>),
}

impl ColOut {
    /// Borrow the `i`-th entry as a value.
    pub(crate) fn value_at<'a>(&'a self, i: usize, reader: &'a ConstReader) -> &'a Value {
        match self {
            ColOut::Ids(ids) => reader.get(ids[i]),
            ColOut::Vals(vals) => &vals[i],
        }
    }

    /// Intern into an id column (call with no reader held).
    pub(crate) fn into_ids(self) -> Vec<ConstId> {
        match self {
            ColOut::Ids(ids) => ids,
            ColOut::Vals(vals) => ConstId::intern_all(vals.iter()),
        }
    }
}

impl VExpr {
    /// Compile `e` against an input of `arity` columns. Interns every
    /// literal (including the `Null` standing in for out-of-range columns),
    /// so this must not run while a [`ConstReader`] is held.
    pub(crate) fn compile(e: &Expr, arity: usize) -> VExpr {
        let c = |e: &Expr| Box::new(VExpr::compile(e, arity));
        match e {
            Expr::Col(i) if *i < arity => VExpr::Col(*i),
            Expr::Col(_) => VExpr::Lit(ConstId::intern(&Value::Null)),
            Expr::Lit(v) => VExpr::Lit(ConstId::intern(v)),
            Expr::Cmp(l, op, r) => VExpr::Cmp(c(l), *op, c(r)),
            Expr::And(l, r) => VExpr::And(c(l), c(r)),
            Expr::Or(l, r) => VExpr::Or(c(l), c(r)),
            Expr::Not(x) => VExpr::Not(c(x)),
            Expr::Arith(l, op, r) => VExpr::Arith(c(l), *op, c(r)),
            Expr::GetPath(x, path) => VExpr::GetPath(c(x), path.clone()),
            Expr::Prefix(x, n) => VExpr::Prefix(c(x), *n),
            Expr::IsNull(x) => VExpr::IsNull(c(x)),
        }
    }

    /// Evaluate over the rows of `batch` selected by `sel`.
    pub(crate) fn eval(&self, batch: &Batch, sel: &[u32], reader: &ConstReader) -> ColOut {
        match self {
            VExpr::Col(i) => ColOut::Ids(sel.iter().map(|&r| batch.cols[*i][r as usize]).collect()),
            VExpr::Lit(id) => ColOut::Ids(vec![*id; sel.len()]),
            VExpr::Cmp(..)
            | VExpr::And(..)
            | VExpr::Or(..)
            | VExpr::Not(..)
            | VExpr::IsNull(..) => ColOut::Vals(
                self.eval_bools(batch, sel, reader)
                    .into_iter()
                    .map(Value::Bool)
                    .collect(),
            ),
            VExpr::Arith(l, op, r) => {
                let lo = l.eval(batch, sel, reader);
                let ro = r.eval(batch, sel, reader);
                ColOut::Vals(
                    (0..sel.len())
                        .map(|i| arith(lo.value_at(i, reader), *op, ro.value_at(i, reader)))
                        .collect(),
                )
            }
            VExpr::GetPath(x, path) => {
                let xo = x.eval(batch, sel, reader);
                ColOut::Vals(
                    (0..sel.len())
                        .map(|i| {
                            xo.value_at(i, reader)
                                .get_path(path)
                                .cloned()
                                .unwrap_or(Value::Null)
                        })
                        .collect(),
                )
            }
            VExpr::Prefix(x, n) => {
                let xo = x.eval(batch, sel, reader);
                ColOut::Vals(
                    (0..sel.len())
                        .map(|i| match xo.value_at(i, reader) {
                            Value::Str(s) => {
                                let cut: String = s.chars().take(*n).collect();
                                Value::str(cut)
                            }
                            _ => Value::Null,
                        })
                        .collect(),
                )
            }
        }
    }

    /// Evaluate as a predicate over the selected rows (non-`Bool` results
    /// are `false`, matching [`Expr::eval_bool`]).
    pub(crate) fn eval_bools(&self, batch: &Batch, sel: &[u32], reader: &ConstReader) -> Vec<bool> {
        match self {
            VExpr::Cmp(l, op, r) => {
                let lo = l.eval(batch, sel, reader);
                let ro = r.eval(batch, sel, reader);
                match (op, &lo, &ro) {
                    // Interned ids agree with Value equality, so Eq / Ne
                    // never resolve.
                    (CmpOp::Eq, ColOut::Ids(a), ColOut::Ids(b)) => {
                        a.iter().zip(b).map(|(x, y)| x == y).collect()
                    }
                    (CmpOp::Ne, ColOut::Ids(a), ColOut::Ids(b)) => {
                        a.iter().zip(b).map(|(x, y)| x != y).collect()
                    }
                    _ => (0..sel.len())
                        .map(|i| op.eval(lo.value_at(i, reader), ro.value_at(i, reader)))
                        .collect(),
                }
            }
            VExpr::And(l, r) => {
                let a = l.eval_bools(batch, sel, reader);
                let b = r.eval_bools(batch, sel, reader);
                a.into_iter().zip(b).map(|(x, y)| x && y).collect()
            }
            VExpr::Or(l, r) => {
                let a = l.eval_bools(batch, sel, reader);
                let b = r.eval_bools(batch, sel, reader);
                a.into_iter().zip(b).map(|(x, y)| x || y).collect()
            }
            VExpr::Not(x) => {
                let mut a = x.eval_bools(batch, sel, reader);
                for b in &mut a {
                    *b = !*b;
                }
                a
            }
            VExpr::IsNull(x) => {
                let xo = x.eval(batch, sel, reader);
                (0..sel.len())
                    .map(|i| xo.value_at(i, reader).is_null())
                    .collect()
            }
            _ => {
                let out = self.eval(batch, sel, reader);
                (0..sel.len())
                    .map(|i| matches!(out.value_at(i, reader), Value::Bool(true)))
                    .collect()
            }
        }
    }

    /// Filter a selection vector: returns the subset of `sel` whose rows
    /// satisfy the predicate. Conjunctions narrow the selection between
    /// operands, so later conjuncts only look at surviving rows.
    pub(crate) fn filter_sel(
        &self,
        batch: &Batch,
        sel: Vec<u32>,
        reader: &ConstReader,
    ) -> Vec<u32> {
        match self {
            VExpr::And(l, r) => {
                let narrowed = l.filter_sel(batch, sel, reader);
                r.filter_sel(batch, narrowed, reader)
            }
            _ => {
                let bools = self.eval_bools(batch, &sel, reader);
                sel.into_iter()
                    .zip(bools)
                    .filter_map(|(i, keep)| keep.then_some(i))
                    .collect()
            }
        }
    }
}

pub(crate) fn arith(l: &Value, op: ArithOp, r: &Value) -> Value {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => Value::Int(a + b),
            ArithOp::Sub => Value::Int(a - b),
            ArithOp::Mul => Value::Int(a * b),
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
        },
        _ => match (l.as_double(), r.as_double()) {
            (Some(a), Some(b)) => match op {
                ArithOp::Add => Value::Double(a + b),
                ArithOp::Sub => Value::Double(a - b),
                ArithOp::Mul => Value::Double(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
            },
            _ => Value::Null,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons_and_logic() {
        let row = vec![Value::Int(5), Value::str("x")];
        let e = Expr::col(0)
            .cmp(CmpOp::Gt, Expr::lit(3i64))
            .and(Expr::col(1).cmp(CmpOp::Eq, Expr::lit("x")));
        assert!(e.eval_bool(&row));
        let e2 = Expr::Not(Box::new(e));
        assert!(!e2.eval_bool(&row));
    }

    #[test]
    fn arithmetic_int_and_mixed() {
        let row = vec![Value::Int(6), Value::Double(1.5)];
        let sum = Expr::Arith(Box::new(Expr::col(0)), ArithOp::Add, Box::new(Expr::col(1)));
        assert_eq!(sum.eval(&row), Value::Double(7.5));
        let div = Expr::Arith(
            Box::new(Expr::col(0)),
            ArithOp::Div,
            Box::new(Expr::lit(0i64)),
        );
        assert_eq!(div.eval(&row), Value::Null);
        let prod = Expr::Arith(
            Box::new(Expr::lit(3i64)),
            ArithOp::Mul,
            Box::new(Expr::lit(4i64)),
        );
        assert_eq!(prod.eval(&row), Value::Int(12));
    }

    #[test]
    fn path_extraction_on_nested_values() {
        let row = vec![Value::object([(
            "user",
            Value::object([("id", Value::Int(9))]),
        )])];
        let e = Expr::GetPath(Box::new(Expr::col(0)), "user.id".into());
        assert_eq!(e.eval(&row), Value::Int(9));
        let missing = Expr::GetPath(Box::new(Expr::col(0)), "nope".into());
        assert_eq!(missing.eval(&row), Value::Null);
    }

    #[test]
    fn prefix_mirrors_substr() {
        let row = vec![Value::str("192.168.0.1")];
        let e = Expr::Prefix(Box::new(Expr::col(0)), 7);
        assert_eq!(e.eval(&row), Value::str("192.168"));
        let not_str = Expr::Prefix(Box::new(Expr::lit(5i64)), 2);
        assert_eq!(not_str.eval(&row), Value::Null);
    }

    #[test]
    fn out_of_range_column_is_null() {
        assert_eq!(Expr::col(3).eval(&[Value::Int(1)]), Value::Null);
        assert!(Expr::IsNull(Box::new(Expr::col(3))).eval_bool(&[Value::Int(1)]));
    }
}
