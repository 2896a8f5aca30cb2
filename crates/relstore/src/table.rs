//! Tables, rows and secondary indexes.

use crate::exec::QueryError;
use estocada_pivot::hash::FastMap;
use estocada_pivot::kernel::{held, RowFilter};
use estocada_pivot::spj::Indexed;
use estocada_pivot::{swap_remove, CmpOp, ConstId, ConstReader, IdRows, Postings, Value, Wanted};

/// An in-memory row-store table. Cells are interned once, when a row is
/// written, and held flat, row after row; an index posts each interned
/// cell's rows, as a fact-base relation does, so the shared
/// select-project-join ([`estocada_pivot::spj`]) reads both alike.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Row data, in column order.
    pub rows: IdRows,
    /// Secondary indexes by column position: each cell with the positions
    /// of the rows holding it, for equality lookups, range lookups
    /// ([`Table::lookup`]) and join keys.
    pub indexes: FastMap<usize, Postings<ConstId, u32>>,
}

impl Table {
    /// Create an empty table with the given columns.
    pub fn new(columns: &[&str]) -> Table {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: IdRows::empty(columns.len()),
            indexes: FastMap::default(),
        }
    }

    /// Position of a column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Append rows; indexes are maintained. A row of another arity than the
    /// table's is [`QueryError::Arity`], and then no row is appended.
    pub fn insert(&mut self, rows: &[Vec<Value>]) -> Result<(), QueryError> {
        let expected = self.columns.len();
        let ids = IdRows::intern(rows, expected);
        self.insert_ids(&ids.map_err(|got| QueryError::Arity { expected, got })?)
    }

    /// Append interned rows, their cells as they are; indexes are
    /// maintained. Rows of another width than the table's are
    /// [`QueryError::Arity`], and then no row is appended.
    pub fn insert_ids(&mut self, rows: &IdRows) -> Result<(), QueryError> {
        let expected = self.columns.len();
        if rows.width != expected {
            let got = rows.width;
            return Err(QueryError::Arity { expected, got });
        }
        for (col, idx) in self.indexes.iter_mut() {
            let posted = (self.rows.len as u32..).zip(rows.rows());
            posted.for_each(|(at, row)| idx.insert(row[*col], at));
        }
        self.rows.cells.extend_from_slice(&rows.cells);
        self.rows.len += rows.len;
        Ok(())
    }

    /// Remove one stored row equal to each entry of `rows` (see
    /// [`Table::delete_ids`]); an entry of another arity, or holding a
    /// value no row holds, is skipped.
    pub fn delete_rows(&mut self, rows: &[Vec<Value>]) -> usize {
        self.delete_ids(&held(rows, self.columns.len()))
    }

    /// Remove one stored row equal to each entry of `rows` (entries with no
    /// stored instance left, or of another width, are skipped); returns how
    /// many went. The rows
    /// are found through the index on the lowest indexed column when there
    /// is one — the rows holding an entry's cell — and by one scan
    /// otherwise. The table's last row moves into each hole and every index
    /// follows in place ([`swap_remove`]): the cost is the delta and the
    /// postings it touches, not the table. No physical row order is
    /// promised.
    pub fn delete_ids(&mut self, rows: &IdRows) -> usize {
        if rows.width != self.columns.len() {
            return 0;
        }
        let mut wanted = Wanted::of(rows.rows());
        let row_at = |at: u32| &self.rows[at as usize];
        // One stored instance per entry, the lowest positions first; the
        // candidates: every row an entry's cell is posted under, or all.
        let found = match self.indexes.iter().min_by_key(|(col, _)| **col) {
            Some((col, idx)) => wanted.claim_under(|row| row[*col], |id| idx.get(id), row_at),
            None => wanted.claim(0..self.rows.len as u32, row_at),
        };
        let indexes = &mut self.indexes;
        let doomed = found.iter().map(|at| *at as usize);
        swap_remove(&mut self.rows, doomed, |row, from, to| {
            for (col, idx) in indexes.iter_mut() {
                idx.relocate(&row[*col], from as u32, to.map(|to| to as u32));
            }
        });
        found.len()
    }

    /// Build an index over `column` (replacing any existing one).
    pub fn create_index(&mut self, column: usize) {
        let posted = (0..).zip(self.rows.rows());
        let idx = posted.map(|(at, row)| (row[column], at)).collect();
        self.indexes.insert(column, idx);
    }

    /// The positions of the rows whose cell at `column` stands in `op` to
    /// `v`, ascending, through the index on `column` — `None` without one,
    /// or for `<>`. `v` is looked up, never interned: a range compares each
    /// indexed cell with it ([`RowFilter`]), so a constant no cell holds
    /// bounds it too.
    pub fn lookup(
        &self,
        column: usize,
        op: CmpOp,
        v: &Value,
        reader: &ConstReader,
    ) -> Option<Vec<u32>> {
        let idx = self.indexes.get(&column)?;
        match op {
            CmpOp::Ne => None,
            CmpOp::Eq => Some(reader.lookup(v).map_or(&[][..], |id| idx.get(&id)).to_vec()),
            op => {
                let test = RowFilter::new([(0, op, v)], reader);
                let cells = idx.keys().filter(|id| test.pass(&[**id]));
                let mut rows: Vec<u32> = cells.flat_map(|id| idx.get(id)).copied().collect();
                rows.sort_unstable();
                Some(rows)
            }
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }
}

/// A table's indexed columns are those with an index.
impl Indexed for Table {
    fn rows(&self) -> &IdRows {
        &self.rows
    }

    fn postings(&self, column: usize) -> Option<&Postings<ConstId, u32>> {
        self.indexes.get(&column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(&["id", "name", "age"]);
        t.insert(&[
            vec![Value::Int(1), Value::str("ann"), Value::Int(30)],
            vec![Value::Int(2), Value::str("bob"), Value::Int(25)],
            vec![Value::Int(3), Value::str("carol"), Value::Int(30)],
        ])
        .unwrap();
        t
    }

    /// The stored rows, resolved, in storage order.
    fn values(t: &Table) -> Vec<Vec<Value>> {
        t.rows.to_values()
    }

    /// The rows `t.lookup` finds through the index on `column`.
    fn find(t: &Table, column: usize, op: CmpOp, v: &Value) -> Vec<u32> {
        let reader = ConstReader::new();
        t.lookup(column, op, v, &reader).expect("an index")
    }

    #[test]
    fn index_lookup() {
        let mut t = table();
        t.create_index(2);
        assert_eq!(find(&t, 2, CmpOp::Eq, &Value::Int(30)), [0, 2]);
        assert!(find(&t, 2, CmpOp::Eq, &Value::Int(99)).is_empty());
        let reader = ConstReader::new();
        assert_eq!(t.lookup(1, CmpOp::Eq, &Value::str("ann"), &reader), None);
        assert_eq!(t.lookup(2, CmpOp::Ne, &Value::Int(30), &reader), None);
    }

    #[test]
    fn btree_index_range() {
        let mut t = table();
        t.create_index(2);
        let from = find(&t, 2, CmpOp::Ge, &Value::Int(26));
        let upto = find(&t, 2, CmpOp::Le, &Value::Int(31));
        let within: Vec<u32> = from.into_iter().filter(|r| upto.contains(r)).collect();
        assert_eq!(within, [0, 2]);
        assert_eq!(find(&t, 2, CmpOp::Le, &Value::Int(25)), [1]);
    }

    #[test]
    fn insert_maintains_existing_indexes() {
        let mut t = table();
        t.create_index(0);
        let dan = vec![Value::Int(4), Value::str("dan"), Value::Int(40)];
        t.insert(&[dan]).unwrap();
        assert_eq!(find(&t, 0, CmpOp::Eq, &Value::Int(4)), [3]);
    }

    #[test]
    fn arity_checked_on_insert() {
        let mut t = table();
        t.create_index(0);
        let before = values(&t);
        let ten = vec![Value::Int(10), Value::str("ten"), Value::Int(10)];
        let short = vec![Value::Int(9)];
        let err = t.insert(&[ten, short]);
        assert_eq!(
            err,
            Err(QueryError::Arity {
                expected: 3,
                got: 1
            })
        );
        assert_eq!(values(&t), before);
        assert!(find(&t, 0, CmpOp::Eq, &Value::Int(10)).is_empty());
    }

    /// The rows, sorted — after checking that every index lists what a
    /// fresh build over the same rows would, and that every lookup and
    /// range through it (at each stored value and ones no row holds, one
    /// never interned) answers like a scan.
    fn content(t: &Table) -> Vec<Vec<Value>> {
        for (col, idx) in &t.indexes {
            let mut rebuilt = t.clone();
            rebuilt.create_index(*col);
            assert_eq!(idx, &rebuilt.indexes[col], "index drifted");
            let rows = values(t);
            let scan = |op: CmpOp, v: &Value| -> Vec<u32> {
                (0..t.len() as u32)
                    .filter(|at| op.eval(&rows[*at as usize][*col], v))
                    .collect()
            };
            let ghosts = [Value::Int(25), Value::str("never-interned-table")];
            for v in rows.iter().map(|r| &r[*col]).chain(&ghosts) {
                for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                    assert_eq!(find(t, *col, op, v), scan(op, v), "{op} {v}");
                }
            }
        }
        let mut rows = values(t);
        rows.sort();
        rows
    }

    /// An indexed and an unindexed table taking the same deltas, and the
    /// multiset of rows both must hold.
    struct Twins {
        indexed: Table,
        plain: Table,
        model: Vec<Vec<Value>>,
    }

    impl Twins {
        fn step(&mut self, deletes: Vec<Vec<Value>>, inserts: Vec<Vec<Value>>) {
            let mut removed = 0;
            for d in &deletes {
                if let Some(at) = self.model.iter().position(|r| r == d) {
                    self.model.swap_remove(at);
                    removed += 1;
                }
            }
            self.model.extend(inserts.iter().cloned());
            self.model.sort();
            for t in [&mut self.indexed, &mut self.plain] {
                assert_eq!(t.delete_rows(&deletes), removed);
                t.insert(&inserts).unwrap();
                assert_eq!(content(t), self.model);
            }
        }
    }

    fn row(id: i64, age: i64) -> Vec<Value> {
        vec![
            Value::Int(id),
            Value::str(format!("u{id}")),
            Value::Int(age),
        ]
    }

    #[test]
    fn deletes_keep_rows_and_indexes_equal_to_a_rebuild() {
        // Physical duplicates from the start: ids 0..3 are stored twice.
        let seed: Vec<_> = (0..9).chain(0..3).map(|i| row(i, 20 + i % 4)).collect();
        let mut plain = Table::new(&["id", "name", "age"]);
        plain.insert(&seed).unwrap();
        let mut indexed = plain.clone();
        indexed.create_index(2);
        indexed.create_index(0);
        let mut t = Twins {
            indexed,
            plain,
            model: seed,
        };
        // Both copies of a duplicate in one batch, plus one copy too many.
        t.step(vec![row(1, 21), row(1, 21), row(1, 21)], vec![]);
        // The last row (nothing moves), the first (the last one does), a ghost.
        t.step(vec![row(2, 22), row(0, 20), row(99, 0)], vec![row(20, 21)]);
        // Rows sharing an indexed value with rows that stay.
        t.step(vec![row(5, 21), row(4, 20)], vec![row(21, 20), row(21, 20)]);
        // Empty the tables, then grow them again.
        t.step(t.model.clone(), vec![]);
        let emptied = t.indexed.indexes.values().all(Postings::is_empty);
        assert!(t.indexed.is_empty() && emptied);
        t.step(vec![], vec![row(7, 30), row(7, 30), row(8, 30)]);
        assert_eq!(find(&t.indexed, 2, CmpOp::Eq, &Value::Int(30)), [0, 1, 2]);
    }
}
