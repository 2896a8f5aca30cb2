//! Physical plans of the ESTOCADA runtime.
//!
//! The mediator's "last-step" operations — whatever could not be delegated
//! to an underlying DMS — run here: cross-fragment joins, residual filters,
//! head projection, duplicate elimination, grouping, and the **BindJoin**
//! needed to access data sources with access restrictions (key-value and
//! full-text fragments). [`Plan`] has the eight operators the mediator's
//! translator emits plus the `Values` leaf hand-built plans start from.

use crate::expr::Expr;
use crate::tuple::{RowBatch, Tuple};
pub use estocada_pivot::AggFun;
use estocada_pivot::Value;
use estocada_simkit::StoreError;
use std::fmt;
use std::sync::Arc;

/// A source reachable only with bound inputs (key-value lookup, term
/// search). BindJoin collects the distinct keys of its input and probes the
/// source once with all of them; a source with a pipelined lookup (Redis
/// `MGET`-style) serves the batch in one round-trip, the others loop.
pub trait BindSource: Send + Sync {
    /// Columns produced per fetched tuple.
    fn out_columns(&self) -> Vec<String>;
    /// Fetch the tuples matching each of `keys`: one result list per key,
    /// in order. A store failure surfaces as [`StoreError`] — never as a
    /// short or empty result.
    fn fetch_batch(&self, keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError>;
    /// Display label (for EXPLAIN output).
    fn label(&self) -> String {
        "bind-source".to_string()
    }
}

/// One aggregate of an [`Plan::Aggregate`] node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    /// Function.
    pub fun: AggFun,
    /// Input column.
    pub col: usize,
    /// Output column name.
    pub name: String,
}

/// A physical plan node. Execution is materialized, bottom-up.
#[derive(Clone)]
pub enum Plan {
    /// Constant input rows.
    Values(RowBatch),
    /// A subquery delegated to an underlying DMS; the closure runs the
    /// native query through the store connector when the node executes.
    /// The runner is fallible: a store failure surfaces as
    /// [`crate::EngineError::Store`] instead of decaying to empty rows.
    Delegated {
        /// Display label (store + native query).
        label: String,
        /// Runs the native query.
        runner: Arc<dyn Fn() -> Result<RowBatch, StoreError> + Send + Sync>,
    },
    /// Row filter.
    Filter {
        /// Input plan.
        input: Box<Plan>,
        /// Predicate.
        pred: Expr,
    },
    /// Projection / computed columns.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// `(output name, expression)` pairs.
        exprs: Vec<(String, Expr)>,
    },
    /// Inner hash join on positional keys.
    HashJoin {
        /// Build side.
        left: Box<Plan>,
        /// Probe side.
        right: Box<Plan>,
        /// Key columns on the left.
        left_keys: Vec<usize>,
        /// Key columns on the right.
        right_keys: Vec<usize>,
    },
    /// Nested-loop join with an optional predicate over `left ++ right`.
    NlJoin {
        /// Outer side.
        left: Box<Plan>,
        /// Inner side.
        right: Box<Plan>,
        /// Join predicate (cross product when `None`).
        pred: Option<Expr>,
    },
    /// Dependent join into an access-restricted source: for each distinct
    /// key of the left input, probe the source; output `left ++ fetched`.
    BindJoin {
        /// Left (driving) input.
        left: Box<Plan>,
        /// Key columns of the left input fed to the source.
        key_cols: Vec<usize>,
        /// The bound source.
        source: Arc<dyn BindSource>,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input plan.
        input: Box<Plan>,
    },
    /// Group-by aggregation.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping columns.
        group_by: Vec<usize>,
        /// Aggregates.
        aggs: Vec<AggSpec>,
    },
}

impl Plan {
    /// Pretty-print the plan tree with indentation.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Values(b) => {
                let _ = writeln!(out, "{pad}Values [{} rows]", b.len());
            }
            Plan::Delegated { label, .. } => {
                let _ = writeln!(out, "{pad}Delegated [{label}]");
            }
            Plan::Filter { input, .. } => {
                let _ = writeln!(out, "{pad}Filter");
                input.explain_into(depth + 1, out);
            }
            Plan::Project { input, exprs } => {
                let names: Vec<&str> = exprs.iter().map(|(n, _)| n.as_str()).collect();
                let _ = writeln!(out, "{pad}Project [{}]", names.join(", "));
                input.explain_into(depth + 1, out);
            }
            Plan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
            } => {
                let _ = writeln!(out, "{pad}HashJoin [{left_keys:?} = {right_keys:?}]");
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::NlJoin { left, right, .. } => {
                let _ = writeln!(out, "{pad}NestedLoopJoin");
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            Plan::BindJoin {
                left,
                key_cols,
                source,
            } => {
                let _ = writeln!(
                    out,
                    "{pad}BindJoin [keys {key_cols:?} → {}]",
                    source.label()
                );
                left.explain_into(depth + 1, out);
            }
            Plan::Distinct { input } => {
                let _ = writeln!(out, "{pad}Distinct");
                input.explain_into(depth + 1, out);
            }
            Plan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let fs: Vec<String> = aggs.iter().map(|a| format!("{:?}", a.fun)).collect();
                let _ = writeln!(out, "{pad}Aggregate [by {group_by:?}; {}]", fs.join(", "));
                input.explain_into(depth + 1, out);
            }
        }
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explain_renders_tree() {
        let p = Plan::Filter {
            input: Box::new(Plan::Values(RowBatch::empty(vec!["a".into()]))),
            pred: Expr::lit(true),
        };
        let s = p.explain();
        assert!(s.contains("Filter"));
        assert!(s.contains("  Values"));
    }
}
