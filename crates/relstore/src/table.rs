//! Tables, rows and secondary indexes.

use estocada_pivot::hash::FastMap;
use estocada_pivot::{swap_remove, Postings, Value, Wanted};
use std::collections::BTreeSet;

/// An in-memory row-store table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Row data, in column order.
    pub rows: Vec<Vec<Value>>,
    /// Secondary indexes by column position: each value with the rows
    /// holding it, for equality and range lookups.
    pub indexes: FastMap<usize, Postings<Value>>,
}

impl Table {
    /// Create an empty table with the given columns.
    pub fn new(columns: &[&str]) -> Table {
        Table {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            indexes: FastMap::default(),
        }
    }

    /// Position of a column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Append a row (arity-checked); indexes are maintained.
    pub fn insert(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        let id = self.rows.len();
        for (col, idx) in self.indexes.iter_mut() {
            idx.insert(row[*col].clone(), id);
        }
        self.rows.push(row);
    }

    /// Remove one stored row equal to each entry of `rows` (entries with no
    /// stored instance left are skipped); returns how many went. The rows
    /// are found through the index on the lowest indexed column when there
    /// is one — the rows holding an entry's value — and by one scan
    /// otherwise. The table's last row moves into each hole and every index
    /// follows in place ([`swap_remove`]): the cost is the delta and the
    /// postings it touches, not the table. No physical row order is
    /// promised.
    pub fn delete_rows(&mut self, rows: &[Vec<Value>]) -> usize {
        let found = self.locate(rows);
        let indexes = &mut self.indexes;
        swap_remove(&mut self.rows, found.iter().copied(), |row, from, to| {
            for (col, idx) in indexes.iter_mut() {
                idx.relocate(&row[*col], from, to);
            }
        });
        found.len()
    }

    /// The position of one stored instance per entry of `rows`: equal
    /// entries claim distinct instances, the lowest positions first.
    fn locate(&self, rows: &[Vec<Value>]) -> BTreeSet<usize> {
        let mut wanted = Wanted::new(rows, self.columns.len());
        let row_at = |at: usize| self.rows[at].as_slice();
        match self.indexes.iter().min_by_key(|(col, _)| **col) {
            // The candidates: every row holding an entry's value, each
            // posting list ascending.
            Some((col, idx)) => wanted.claim_under(|row| row[*col].clone(), |v| idx.get(v), row_at),
            None => wanted.claim(0..self.rows.len(), row_at),
        }
    }

    /// Build an index over `column` (replacing any existing one).
    pub fn create_index(&mut self, column: usize) {
        let posted = self.rows.iter().enumerate();
        let idx = posted.map(|(at, row)| (row[column].clone(), at)).collect();
        self.indexes.insert(column, idx);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut t = Table::new(&["id", "name", "age"]);
        t.insert(vec![Value::Int(1), Value::str("ann"), Value::Int(30)]);
        t.insert(vec![Value::Int(2), Value::str("bob"), Value::Int(25)]);
        t.insert(vec![Value::Int(3), Value::str("carol"), Value::Int(30)]);
        t
    }

    #[test]
    fn index_lookup() {
        let mut t = table();
        t.create_index(2);
        let idx = &t.indexes[&2];
        assert_eq!(idx.get(&Value::Int(30)), &[0, 2]);
        assert!(idx.get(&Value::Int(99)).is_empty());
    }

    #[test]
    fn btree_index_range() {
        let mut t = table();
        t.create_index(2);
        let idx = &t.indexes[&2];
        let mut rows: Vec<usize> = idx.range(Value::Int(26)..=Value::Int(31)).collect();
        rows.sort();
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(idx.range(..=Value::Int(25)).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn insert_maintains_existing_indexes() {
        let mut t = table();
        t.create_index(0);
        t.insert(vec![Value::Int(4), Value::str("dan"), Value::Int(40)]);
        assert_eq!(t.indexes[&0].get(&Value::Int(4)), &[3]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_checked_on_insert() {
        let mut t = table();
        t.insert(vec![Value::Int(9)]);
    }

    /// The rows, sorted — after checking that every index lists what a
    /// fresh build over the same rows would, and that every lookup and
    /// range through it (at each stored value and one no row holds)
    /// answers like a scan.
    fn content(t: &Table) -> Vec<Vec<Value>> {
        for (col, idx) in &t.indexes {
            let mut rebuilt = t.clone();
            rebuilt.create_index(*col);
            assert_eq!(idx, &rebuilt.indexes[col], "index drifted");
            let scan = |keep: &dyn Fn(&Value) -> bool| -> Vec<usize> {
                (0..t.len()).filter(|at| keep(&t.rows[*at][*col])).collect()
            };
            let ghost = Value::Int(25);
            for v in t.rows.iter().map(|r| &r[*col]).chain([&ghost]) {
                assert_eq!(idx.get(v), scan(&|x| x == v), "lookup of {v}");
                let mut from: Vec<usize> = idx.range(v..).collect();
                let mut upto: Vec<usize> = idx.range(..=v).collect();
                from.sort();
                upto.sort();
                assert_eq!(from, scan(&|x| x >= v), "range from {v}");
                assert_eq!(upto, scan(&|x| x <= v), "range up to {v}");
            }
        }
        let mut rows = t.rows.clone();
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
                inserts.iter().for_each(|r| t.insert(r.clone()));
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
        seed.iter().for_each(|r| plain.insert(r.clone()));
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
        assert_eq!(t.indexed.indexes[&2].get(&Value::Int(30)), &[0, 1, 2]);
    }
}
