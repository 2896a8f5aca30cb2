//! Columnar batches: the unit of data flow in the vectorized executor.
//!
//! A [`Batch`] holds one column vector of interned [`ConstId`]s per output
//! column, plus an optional *selection vector*: the physical row positions
//! that are logically alive. Filters compose selection vectors instead of
//! materializing survivors, so a dropped row costs a `u32` skip, not a
//! clone. Joins, distinct and group-by keys hash and compare `u32`s, and a
//! projection of column references is a gather of `u32`s; values are
//! resolved (via [`ConstReader`]) only for ordered comparisons, arithmetic
//! and the final conversion back to a [`crate::tuple::RowBatch`].
//!
//! Interning happens where values enter, and only there: the relational
//! and the parallel store hold interned cells and answer in them
//! ([`Batch::from_id_rows`] only transposes), while `Values` leaves and the
//! document, key-value and text stores' answers — to a delegated leaf or to
//! a BindJoin probe alike — are interned on arrival
//! ([`Batch::push_values`]). A probe's answer is one batch for all its keys
//! ([`Fetched`]).
//!
//! Column names are shared: an operator names its output once and every
//! batch it emits holds the same [`Arc`], so a batch costs its cells, not
//! its names.

use crate::tuple::Tuple;
use estocada_pivot::{ConstId, ConstReader, IdRows, Value};
use std::sync::Arc;

/// Shared column names of a batch.
pub type Columns = Arc<[String]>;

/// A columnar batch of interned rows with an optional selection vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Column names, shared by every batch of one operator.
    pub columns: Columns,
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
    pub fn empty(columns: impl Into<Columns>) -> Batch {
        Batch::with_capacity(columns, 0)
    }

    /// An empty batch with room for `rows` rows in every column.
    pub fn with_capacity(columns: impl Into<Columns>, rows: usize) -> Batch {
        let columns = columns.into();
        let cols = (0..columns.len()).map(|_| Vec::with_capacity(rows));
        Batch {
            cols: cols.collect(),
            columns,
            sel: None,
            physical: 0,
        }
    }

    /// Append one row of interned cells, one per column, to a dense batch.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = ConstId>) {
        debug_assert!(self.sel.is_none(), "push_row needs a dense batch");
        let mut width = 0;
        for (col, id) in self.cols.iter_mut().zip(row) {
            col.push(id);
            width += 1;
        }
        debug_assert_eq!(width, self.cols.len(), "a row of another width");
        self.physical += 1;
    }

    /// Append rows of values, one per column, to a dense batch, interning
    /// every cell under one read pass of the intern table
    /// ([`ConstId::intern_rows`]: producing a row must not intern).
    pub fn push_values<'v, R>(&mut self, rows: impl IntoIterator<Item = R>)
    where
        R: IntoIterator<Item = &'v Value>,
    {
        debug_assert!(self.sel.is_none(), "push_values needs a dense batch");
        self.physical += ConstId::intern_rows(&mut self.cols, rows);
    }

    /// Build a dense batch from column vectors (all the same length).
    pub fn from_cols(columns: impl Into<Columns>, cols: Vec<Vec<ConstId>>) -> Batch {
        let columns = columns.into();
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

    /// A dense batch of a store's interned rows (`rows.width` must be
    /// `columns.len()`).
    pub fn from_id_rows(columns: impl Into<Columns>, rows: &IdRows) -> Batch {
        let columns = columns.into();
        assert_eq!(columns.len(), rows.width, "column count mismatch");
        let column = |c: usize| rows.rows().map(|r| r[c]).collect();
        Batch {
            cols: (0..rows.width).map(column).collect(),
            columns,
            sel: None,
            physical: rows.len,
        }
    }

    /// Physical rows `lo..hi` of a dense batch.
    pub fn slice(&self, lo: usize, hi: usize) -> Batch {
        Batch {
            columns: self.columns.clone(),
            cols: self.cols.iter().map(|c| c[lo..hi].to_vec()).collect(),
            sel: None,
            physical: hi - lo,
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
    pub fn selection(&self) -> Selection<'_> {
        match &self.sel {
            Some(s) => Selection::Picked(s.iter()),
            None => Selection::All(0..self.physical),
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

    /// Resolve the selected rows back to value tuples, appended to `rows`.
    pub fn resolve_into(&self, rows: &mut Vec<Tuple>, reader: &ConstReader) {
        let resolve = |i: usize| self.cols.iter().map(|c| reader.get(c[i]).clone()).collect();
        match &self.sel {
            Some(sel) => rows.extend(sel.iter().map(|&i| resolve(i as usize))),
            None => rows.extend((0..self.physical).map(resolve)),
        }
    }
}

/// A bound source's answer to one probe: the rows of every key, in key
/// order, as one dense batch, and where each key's rows end in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetched {
    /// Every key's rows, in key order.
    pub rows: Batch,
    /// One past the last row of each key: key `i`'s rows are
    /// `ends[i - 1]..ends[i]`, from row 0 for the first key.
    pub ends: Vec<usize>,
}

impl Fetched {
    /// No key answered yet; rows named `columns`.
    pub fn new(columns: Columns) -> Fetched {
        let (rows, ends) = (Batch::empty(columns), Vec::new());
        Fetched { rows, ends }
    }

    /// Close the next key: its rows are those pushed since the last close.
    pub fn end_key(&mut self) {
        self.ends.push(self.rows.physical);
    }

    /// The rows of key `i`.
    pub fn key_rows(&self, i: usize) -> std::ops::Range<usize> {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p]);
        start..self.ends[i]
    }

    /// Append the answer for the keys after these: its rows follow, and its
    /// ends shift by the rows already here.
    pub fn append(&mut self, other: Fetched) {
        let shift = self.rows.physical;
        self.ends.extend(other.ends.iter().map(|end| end + shift));
        self.rows.append(other.rows);
    }
}

/// The selected physical row positions of a [`Batch`], in logical order.
#[derive(Clone)]
pub enum Selection<'a> {
    /// Every physical row.
    All(std::ops::Range<usize>),
    /// The rows of a selection vector.
    Picked(std::slice::Iter<'a, u32>),
}

impl Iterator for Selection<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            Selection::All(rows) => rows.next(),
            Selection::Picked(rows) => rows.next().map(|&i| i as usize),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Selection::All(rows) => rows.size_hint(),
            Selection::Picked(rows) => rows.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::Value;

    /// The selected rows of `b` as value tuples.
    fn resolved(b: &Batch) -> Vec<Tuple> {
        let mut rows = Vec::new();
        b.resolve_into(&mut rows, &ConstReader::new());
        rows
    }

    fn rows(vals: &[(i64, &str)]) -> Vec<Tuple> {
        vals.iter()
            .map(|(a, b)| vec![Value::Int(*a), Value::str(*b)])
            .collect()
    }

    /// `rows` interned into a dense batch of columns `x` and `y`.
    fn xy(rows: &[Tuple]) -> Batch {
        let mut b = Batch::empty(vec!["x".into(), "y".into()]);
        b.push_values(rows);
        b
    }

    #[test]
    fn round_trips_through_interning() {
        let input = rows(&[(1, "a"), (2, "b"), (1, "a")]);
        let b = xy(&input);
        assert_eq!(b.num_rows(), 3);
        assert_eq!(b.cols[0][0], b.cols[0][2]);
        assert_eq!(resolved(&b), input);
    }

    #[test]
    fn selection_vector_gathers_on_compact() {
        let input = rows(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]);
        let mut b = xy(&input);
        b.sel = Some(vec![1, 3]);
        assert_eq!(b.num_rows(), 2);
        assert_eq!(b.selection().collect::<Vec<_>>(), vec![1, 3]);
        let dense = b.compact();
        assert_eq!(dense.num_rows(), 2);
        assert!(dense.sel.is_none());
        assert_eq!(resolved(&dense), rows(&[(2, "b"), (4, "d")]));
    }

    #[test]
    fn appended_answers_shift_their_key_ends() {
        // Keys answer 2, 0 and 1 rows, then 0 and 2 more.
        let answer = |per_key: &[&[(i64, &str)]]| {
            let mut f = Fetched::new(vec!["x".into(), "y".into()].into());
            for key in per_key {
                f.rows.push_values(&rows(key));
                f.end_key();
            }
            f
        };
        let mut f = answer(&[&[(1, "a"), (2, "b")], &[], &[(3, "c")]]);
        f.append(answer(&[&[], &[(4, "d"), (5, "e")]]));
        assert_eq!(f.ends, vec![2, 2, 3, 3, 5]);
        let ranges: Vec<_> = (0..5).map(|i| f.key_rows(i)).collect();
        assert_eq!(ranges, vec![0..2, 2..2, 2..3, 3..3, 3..5]);
        let want = rows(&[(1, "a"), (2, "b"), (3, "c"), (4, "d"), (5, "e")]);
        assert_eq!(resolved(&f.rows), want);
    }

    #[test]
    fn empty_batch_keeps_columns() {
        let b = Batch::empty(vec!["a".into()]);
        assert_eq!(b.num_rows(), 0);
        assert_eq!(&*b.columns, ["a"]);
        assert!(resolved(&b).is_empty());
    }
}
