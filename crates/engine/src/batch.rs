//! Columnar batches: the unit of data flow in the vectorized executor.
//!
//! A [`Batch`] holds one column vector of interned [`ConstId`]s per output
//! column (the same 8-byte interning PR 3 introduced for chase `Elem`s —
//! engine rows are always ground, so a plain `ConstId` suffices here), plus
//! an optional *selection vector*: the list of physical row positions that
//! are logically alive. Filters compose selection vectors instead of
//! materializing survivors, so a `Filter → Project` pipeline touches each
//! dropped row exactly once (a `u32` skip) rather than cloning it.
//!
//! Interned columns make the hot operations cheap: equality joins, distinct
//! and group-by keys hash and compare `u32`s with no tree walks, and a
//! projection of plain column references is a gather of `u32`s. Values are
//! only resolved (via [`ConstReader`]) where semantics require them —
//! ordered comparisons, arithmetic, and the final conversion back to a
//! row-oriented [`crate::tuple::RowBatch`].

use crate::tuple::Tuple;
use estocada_pivot::{ConstId, ConstReader};

/// A columnar batch of interned rows with an optional selection vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Column names.
    pub columns: Vec<String>,
    /// One vector of interned values per column; every vector has
    /// [`Batch::physical_rows`] entries.
    pub cols: Vec<Vec<ConstId>>,
    /// Selected physical row positions, in logical row order (filters keep
    /// them increasing). `None` means all rows are selected in physical
    /// order.
    pub sel: Option<Vec<u32>>,
    physical: usize,
}

impl Batch {
    /// An empty batch with the given columns.
    pub fn empty(columns: Vec<String>) -> Batch {
        let n = columns.len();
        Batch {
            columns,
            cols: vec![Vec::new(); n],
            sel: None,
            physical: 0,
        }
    }

    /// Build a dense batch from column vectors (all the same length).
    pub fn from_cols(columns: Vec<String>, cols: Vec<Vec<ConstId>>) -> Batch {
        assert_eq!(columns.len(), cols.len(), "column count mismatch");
        let physical = cols.first().map(|c| c.len()).unwrap_or(0);
        for c in &cols {
            assert_eq!(c.len(), physical, "column length mismatch");
        }
        Batch {
            columns,
            cols,
            sel: None,
            physical,
        }
    }

    /// Intern a contiguous slice of a row batch's rows into a dense batch.
    /// Interning is bulk (one shared read pass per column).
    pub fn from_rows(columns: Vec<String>, rows: &[Tuple]) -> Batch {
        let cols: Vec<Vec<ConstId>> = (0..columns.len())
            .map(|c| ConstId::intern_all(rows.iter().map(|r| &r[c])))
            .collect();
        Batch {
            physical: rows.len(),
            columns,
            cols,
            sel: None,
        }
    }

    /// Number of physical rows (ignoring the selection vector).
    pub fn physical_rows(&self) -> usize {
        self.physical
    }

    /// Number of logically selected rows.
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.physical,
        }
    }

    /// Iterate the selected physical row positions.
    pub fn selection(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        match &self.sel {
            Some(s) => Box::new(s.iter().map(|&i| i as usize)),
            None => Box::new(0..self.physical),
        }
    }

    /// Materialize the selection: gather every column down to the selected
    /// rows and drop the selection vector. A no-op for dense batches.
    pub fn compact(self) -> Batch {
        match self.sel {
            None => self,
            Some(sel) => {
                let cols: Vec<Vec<ConstId>> = self
                    .cols
                    .iter()
                    .map(|c| sel.iter().map(|&i| c[i as usize]).collect())
                    .collect();
                Batch {
                    columns: self.columns,
                    physical: sel.len(),
                    cols,
                    sel: None,
                }
            }
        }
    }

    /// Append another dense batch of the same arity (both selections must
    /// already be materialized).
    pub fn append(&mut self, other: Batch) {
        assert!(
            self.sel.is_none() && other.sel.is_none(),
            "append needs dense batches"
        );
        assert_eq!(self.cols.len(), other.cols.len(), "arity mismatch");
        for (c, col) in other.cols.into_iter().enumerate() {
            self.cols[c].extend(col);
        }
        self.physical += other.physical;
    }

    /// Resolve the selected rows back to value tuples.
    pub fn to_rows(&self, reader: &ConstReader) -> Vec<Tuple> {
        let mut rows = Vec::with_capacity(self.num_rows());
        for i in self.selection() {
            rows.push(self.cols.iter().map(|c| reader.get(c[i]).clone()).collect());
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::Value;

    fn rows(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::str(*b)])
            .collect()
    }

    #[test]
    fn round_trips_through_interning() {
        let input = rows(&[(1, "a"), (2, "b"), (1, "a")]);
        let b = Batch::from_rows(vec!["x".into(), "y".into()], &input);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.cols[0][0], b.cols[0][2]);
        let reader = ConstReader::new();
        assert_eq!(b.to_rows(&reader), input);
    }

    #[test]
    fn selection_vector_gathers_on_compact() {
        let input = rows(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let mut b = Batch::from_rows(vec!["x".into(), "y".into()], &input);
        b.sel = Some(vec![1, 3]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.selection().collect::<Vec<_>>(), vec![1, 3]);
        let dense = b.compact();
        assert_eq!(dense.num_rows(), 2);
        assert!(dense.sel.is_none());
        let reader = ConstReader::new();
        assert_eq!(dense.to_rows(&reader), rows(&[(2, "b"), (4, "d")]));
    }

    #[test]
    fn empty_batch_keeps_columns() {
        let b = Batch::empty(vec!["a".into()]);
        assert_eq!(b.num_rows(), 0);
        let reader = ConstReader::new();
        assert_eq!(b.columns, vec!["a"]);
        assert!(b.to_rows(&reader).is_empty());
    }
}
