//! Row batches: the materialized data flowing between operators.

use estocada_pivot::Value;

/// A tuple of values.
pub type Tuple = Vec<Value>;

/// A batch of rows with named columns — every operator consumes and
/// produces one.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RowBatch {
    /// Column names.
    pub columns: Vec<String>,
    /// Row data.
    pub rows: Vec<Tuple>,
}

impl RowBatch {
    /// An empty batch with the given columns.
    pub fn empty(columns: Vec<String>) -> RowBatch {
        RowBatch {
            columns,
            rows: Vec::new(),
        }
    }

    /// Build a batch, checking row arity.
    pub fn new(columns: Vec<String>, rows: Vec<Tuple>) -> RowBatch {
        for r in &rows {
            assert_eq!(r.len(), columns.len(), "row arity mismatch");
        }
        RowBatch { columns, rows }
    }

    /// Column position by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_checked() {
        let b = RowBatch::new(
            vec!["a".into(), "b".into()],
            vec![vec![Value::Int(1), Value::Int(2)]],
        );
        assert_eq!(b.len(), 1);
        assert_eq!(b.column_index("b"), Some(1));
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn bad_arity_panics() {
        RowBatch::new(vec!["a".into()], vec![vec![Value::Int(1), Value::Int(2)]]);
    }
}
