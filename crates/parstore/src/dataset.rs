//! Partitioned datasets of (possibly nested) rows, held as interned cells.

use crate::ParError;
use estocada_pivot::kernel::{held, pack_key, Key};
use estocada_pivot::{swap_remove, ConstId, IdRows, Postings, Value, Wanted};
use std::collections::BTreeSet;

/// A row's place: (partition, row within it).
type Loc = (u32, u32);

/// A stored row: one interned cell per column.
pub type Row = [ConstId];

/// A key index: its column positions, and each key (its cells packed,
/// [`pack_key`]) with the locations of the rows holding it.
pub type KeyPostings = (Vec<usize>, Postings<Key, Loc>);

/// `row`'s cells at the key `columns`, packed.
fn key_of(columns: &[usize], row: &[ConstId]) -> Key {
    pack_key(columns.iter().map(|c| row[*c]), columns.len())
}

/// `rows` interned, `expected` cells each; [`ParError::Arity`] when a row
/// is another width.
pub(crate) fn interned(rows: &[Vec<Value>], expected: usize) -> Result<IdRows, ParError> {
    IdRows::intern(rows, expected).map_err(|got| ParError::Arity { expected, got })
}

/// A partitioned dataset. Rows may contain nested values (arrays of
/// objects) — this is the nested-relational model of the parallel store;
/// each cell is interned once, when its row is written, and a partition
/// holds its rows flat, row after row.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Column names.
    pub columns: Vec<String>,
    /// Row partitions.
    pub partitions: Vec<IdRows>,
    /// Optional key index.
    pub key_index: Option<KeyPostings>,
}

impl Dataset {
    /// Build a dataset from rows, dealt round-robin into `num_partitions`
    /// parts; a row of another arity than `columns` is
    /// [`ParError::Arity`].
    pub fn from_rows(
        columns: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) -> Result<Dataset, ParError> {
        let mut ds = Dataset {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            partitions: vec![IdRows::empty(columns.len()); num_partitions.max(1)],
            key_index: None,
        };
        ds.append_rows(&rows.into_iter().collect::<Vec<_>>())?;
        Ok(ds)
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(|part| part.len).sum()
    }

    /// `true` when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column position by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Every row with its location, partition by partition.
    fn located<'a>(&'a self) -> impl Iterator<Item = (Loc, &'a Row)> {
        let parts = self.partitions.iter().enumerate();
        let rows = |(p, part): (usize, &'a IdRows)| {
            (0..)
                .zip(part.rows())
                .map(move |(r, row)| ((p as u32, r), row))
        };
        parts.flat_map(rows)
    }

    /// Build (or rebuild) the key index over `columns`.
    pub fn build_key_index(&mut self, columns: Vec<usize>) {
        let posted = self.located().map(|(at, row)| (key_of(&columns, row), at));
        let postings = posted.collect();
        self.key_index = Some((columns, postings));
    }

    /// Append rows round-robin across the existing partitions (see
    /// [`Dataset::append_ids`]). A row of another arity than the dataset's
    /// is [`ParError::Arity`], and then no row is appended.
    pub fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<(), ParError> {
        self.append_ids(&interned(rows, self.columns.len())?)
    }

    /// Append interned rows, their cells as they are, round-robin across
    /// the existing partitions (continuing from the current total, so
    /// growth stays balanced). Each row's location is posted in the key
    /// index when one exists. Rows of another width than the dataset's are
    /// [`ParError::Arity`], and then no row is appended.
    pub fn append_ids(&mut self, rows: &IdRows) -> Result<(), ParError> {
        let expected = self.columns.len();
        if rows.width != expected {
            let got = rows.width;
            return Err(ParError::Arity { expected, got });
        }
        let n = self.partitions.len().max(1);
        for (next, row) in (self.len()..).zip(rows.rows()) {
            let part = &mut self.partitions[next % n];
            let at = ((next % n) as u32, part.len as u32);
            if let Some((columns, idx)) = &mut self.key_index {
                idx.insert(key_of(columns, row), at);
            }
            part.push(row.iter().copied());
        }
        Ok(())
    }

    /// The location of one stored instance per entry of `rows`: equal
    /// entries claim distinct instances, entries with none left claim
    /// nothing. With a key index this reads only the rows sharing a key with
    /// an entry, each once; without one it scans the partitions once.
    /// Entries of another width than the dataset's claim nothing.
    pub(crate) fn locate(&self, rows: &IdRows) -> BTreeSet<Loc> {
        if rows.width != self.columns.len() {
            return BTreeSet::new();
        }
        let mut wanted = Wanted::of(rows.rows());
        let row_at = |(p, r): Loc| &self.partitions[p as usize][r as usize];
        match &self.key_index {
            // The candidates: every row under an entry's key.
            Some((columns, idx)) => {
                wanted.claim_under(|row| key_of(columns, row), |key| idx.get(key), row_at)
            }
            None => wanted.claim(self.located().map(|(at, _)| at), row_at),
        }
    }

    /// Remove the rows at `found` (as [`Dataset::locate`] returns them),
    /// partition by partition through [`swap_remove`]: the partition's last
    /// row moves into each hole — no physical order is promised — and the
    /// key index forgets each removed row and follows each one that moved.
    /// Proportional to `found` and the rows sharing a touched key, not to
    /// the dataset.
    pub(crate) fn remove_at(&mut self, found: &BTreeSet<Loc>) {
        let key_index = &mut self.key_index;
        for (p, part) in (0..).zip(&mut self.partitions) {
            let doomed = found.range((p, 0)..(p + 1, 0)).map(|(_, r)| *r as usize);
            swap_remove(part, doomed, |row, from, to| {
                if let Some((columns, idx)) = key_index {
                    let to = to.map(|to| (p, to as u32));
                    idx.relocate(&key_of(columns, row), (p, from as u32), to);
                }
            });
        }
    }

    /// Rows holding `key` at the key index's columns: none when the
    /// dataset has no key index, `key` another arity, or a value no row
    /// holds.
    pub fn index_lookup(&self, key: &[Value]) -> Vec<&Row> {
        let ids = held(&[key.to_vec()], key.len());
        let locs = match (&self.key_index, ids.rows().next()) {
            (Some((columns, idx)), Some(ids)) if columns.len() == ids.len() => {
                idx.get(&pack_key(ids.iter().copied(), ids.len()))
            }
            _ => &[],
        };
        let row = |(p, r): &Loc| &self.partitions[*p as usize][*r as usize];
        locs.iter().map(row).collect()
    }

    /// Iterate all rows (sequential; the parallel paths live in
    /// [`crate::ops`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.partitions.iter().flat_map(IdRows::rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::kernel::values_of;

    impl Dataset {
        /// Remove one stored row per entry of `rows`, as a delta does.
        fn remove_rows(&mut self, rows: &[Vec<Value>]) -> usize {
            let found = self.locate(&held(rows, self.columns.len()));
            self.remove_at(&found);
            found.len()
        }
    }

    /// Rows resolved to values.
    fn values<'a>(rows: impl IntoIterator<Item = &'a Row>) -> Vec<Vec<Value>> {
        values_of(rows)
    }

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect()
    }

    #[test]
    fn partitioning_distributes_rows() {
        let d = Dataset::from_rows(&["id", "grp"], rows(10), 4).unwrap();
        assert_eq!(d.partitions.len(), 4);
        assert_eq!(d.len(), 10);
        // Round-robin keeps partition sizes balanced within one row.
        let sizes: Vec<usize> = d.partitions.iter().map(|p| p.len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn key_index_lookup() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3).unwrap();
        d.build_key_index(vec![1]);
        let hits = d.index_lookup(&[Value::Int(2)]);
        assert_eq!(hits.len(), 3); // ids 2,5,8
        assert!(d.index_lookup(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn composite_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 2).unwrap();
        d.build_key_index(vec![0, 1]);
        assert_eq!(d.index_lookup(&[Value::Int(4), Value::Int(1)]).len(), 1);
        assert!(d.index_lookup(&[Value::Int(4), Value::Int(2)]).is_empty());
    }

    #[test]
    fn append_and_remove_maintain_the_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3).unwrap();
        d.build_key_index(vec![1]);
        d.append_rows(&[vec![Value::Int(11), Value::Int(2)]])
            .unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).len(), 4); // ids 2,5,8,11
        let removed = d.remove_rows(&[
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(99), Value::Int(0)], // absent: no-op
        ]);
        assert_eq!(removed, 1);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).len(), 3);
    }

    /// The rows, sorted — after checking that a key index, if any, lists
    /// what a rebuild over those rows would.
    fn content(d: &Dataset) -> Vec<Vec<Value>> {
        let mut rebuilt = d.clone();
        if let Some((columns, _)) = &d.key_index {
            rebuilt.build_key_index(columns.clone());
        }
        assert_eq!(d.key_index, rebuilt.key_index, "index drifted");
        let mut rows = values(d.iter_rows());
        rows.sort();
        rows
    }

    /// An indexed and an unindexed dataset taking the same deltas, and the
    /// multiset of rows both must hold.
    struct Twins {
        indexed: Dataset,
        plain: Dataset,
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
            for d in [&mut self.indexed, &mut self.plain] {
                assert_eq!(d.remove_rows(&deletes), removed);
                d.append_rows(&inserts).unwrap();
                assert_eq!(content(d), self.model);
            }
        }
    }

    #[test]
    fn deltas_keep_rows_and_index_equal_to_a_rebuild() {
        // Physical duplicates from the start: ids 0..4 are stored twice.
        let seed: Vec<_> = rows(9).into_iter().chain(rows(4)).collect();
        let mut indexed = Dataset::from_rows(&["id", "grp"], seed.clone(), 3).unwrap();
        indexed.build_key_index(vec![1]);
        let plain = Dataset::from_rows(&["id", "grp"], seed.clone(), 3).unwrap();
        let mut t = Twins {
            indexed,
            plain,
            model: seed,
        };
        let row = |id: i64| vec![Value::Int(id), Value::Int(id % 3)];
        let ends = |d: &Dataset, p: usize| {
            let part = d.partitions[p].to_values();
            (part[0].clone(), part[part.len() - 1].clone())
        };
        // Both copies of a duplicate in one batch, plus one copy too many.
        t.step(vec![row(2), row(2), row(2)], vec![]);
        // The last row of a partition (nothing moves) and the first (one does).
        let (first, last) = ends(&t.indexed, 0);
        t.step(vec![last, first], vec![row(20), row(20)]);
        // A removed row and the row that would move into its place.
        let (hole, mover) = ends(&t.plain, 1);
        t.step(vec![hole, mover], vec![]);
        t.step(vec![row(99)], vec![]);
        // Empty the datasets, then grow them again.
        t.step(t.model.clone(), vec![]);
        assert!(t.indexed.is_empty() && t.indexed.key_index.as_ref().unwrap().1.is_empty());
        t.step(vec![], vec![row(5), row(5), row(6)]);
        assert_eq!(t.indexed.index_lookup(&[Value::Int(2)]).len(), 2);
    }

    #[test]
    fn lookup_without_index_or_of_another_arity_has_no_rows() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(3), 1).unwrap();
        assert!(d.index_lookup(&[Value::Int(1)]).is_empty());
        d.build_key_index(vec![0]);
        assert!(d.index_lookup(&[Value::Int(1), Value::Int(1)]).is_empty());
        assert_eq!(d.index_lookup(&[Value::Int(1)]).len(), 1);
    }

    #[test]
    fn a_wrong_arity_row_is_an_error_and_appends_nothing() {
        let short = || vec![vec![Value::Int(1), Value::Int(1)], vec![Value::Int(2)]];
        let arity = Err(ParError::Arity {
            expected: 2,
            got: 1,
        });
        let built = Dataset::from_rows(&["id", "grp"], short(), 2);
        assert_eq!(built.map(|d| d.len()), arity.clone().map(|()| 0));
        let mut d = Dataset::from_rows(&["id", "grp"], rows(3), 2).unwrap();
        d.build_key_index(vec![1]);
        let before = d.clone();
        assert_eq!(d.append_rows(&short()), arity);
        assert_eq!(
            (d.partitions, d.key_index),
            (before.partitions, before.key_index)
        );
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let d = Dataset::from_rows(&["id"], vec![vec![Value::Int(1)]], 0).unwrap();
        assert_eq!(d.partitions.len(), 1);
    }
}
