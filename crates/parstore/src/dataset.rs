//! Partitioned datasets of (possibly nested) rows.

use estocada_pivot::Value;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A key index over one or more columns: key values → (partition, row).
#[derive(Debug, Clone)]
pub struct KeyIndex {
    /// Indexed column positions.
    pub columns: Vec<usize>,
    /// Key tuple → row locations.
    pub map: HashMap<Vec<Value>, Vec<(u32, u32)>>,
}

impl KeyIndex {
    fn key_of(&self, row: &[Value]) -> Vec<Value> {
        self.columns.iter().map(|c| row[*c].clone()).collect()
    }

    /// Point `row`'s entry for location `from` at `to`, or drop it (`None`);
    /// a key left without rows leaves the map, as in a fresh build.
    fn relocate(&mut self, row: &[Value], from: (u32, u32), to: Option<(u32, u32)>) {
        let key = self.key_of(row);
        let Some(locs) = self.map.get_mut(&key) else {
            return;
        };
        let Some(slot) = locs.iter().position(|at| *at == from) else {
            return;
        };
        match to {
            Some(to) => locs[slot] = to,
            None => {
                locs.swap_remove(slot);
                if locs.is_empty() {
                    self.map.remove(&key);
                }
            }
        }
    }
}

/// A partitioned dataset. Rows may contain nested values (arrays of
/// objects) — this is the nested-relational model of the parallel store.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Column names.
    pub columns: Vec<String>,
    /// Row partitions.
    pub partitions: Vec<Vec<Vec<Value>>>,
    /// Optional key index.
    pub key_index: Option<KeyIndex>,
}

impl Dataset {
    /// Build a dataset from rows, hash-partitioned round-robin into
    /// `num_partitions` parts.
    pub fn from_rows(
        columns: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) -> Dataset {
        let n = num_partitions.max(1);
        let mut partitions: Vec<Vec<Vec<Value>>> = vec![Vec::new(); n];
        for (i, row) in rows.into_iter().enumerate() {
            assert_eq!(row.len(), columns.len(), "row arity mismatch");
            partitions[i % n].push(row);
        }
        Dataset {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            partitions,
            key_index: None,
        }
    }

    /// Total row count.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Vec::len).sum()
    }

    /// `true` when the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column position by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// Build (or rebuild) the key index over `columns`.
    pub fn build_key_index(&mut self, columns: Vec<usize>) {
        let mut idx = KeyIndex {
            columns,
            map: HashMap::new(),
        };
        for (pi, part) in self.partitions.iter().enumerate() {
            for (ri, row) in part.iter().enumerate() {
                let at = (pi as u32, ri as u32);
                idx.map.entry(idx.key_of(row)).or_default().push(at);
            }
        }
        self.key_index = Some(idx);
    }

    /// Append rows round-robin across the existing partitions (continuing
    /// from the current total, so growth stays balanced). Each row's
    /// location is pushed onto the key index when one exists.
    pub fn append_rows(&mut self, rows: impl IntoIterator<Item = Vec<Value>>) {
        let n = self.partitions.len().max(1);
        for (next, row) in (self.len()..).zip(rows) {
            assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
            let part = &mut self.partitions[next % n];
            if let Some(idx) = &mut self.key_index {
                let at = ((next % n) as u32, part.len() as u32);
                idx.map.entry(idx.key_of(&row)).or_default().push(at);
            }
            part.push(row);
        }
    }

    /// Remove one stored row equal to each entry of `rows` (entries with no
    /// stored instance left are skipped), found through the key index when
    /// one exists and by one scan of the partitions otherwise. The
    /// partition's last row moves into each hole — no physical order is
    /// promised — and the key index follows. Returns how many rows went.
    pub fn remove_rows(&mut self, rows: &[Vec<Value>]) -> usize {
        let found = self.locate(rows);
        self.remove_at(&found);
        found.len()
    }

    /// The location of one stored instance per entry of `rows`: equal
    /// entries claim distinct instances, entries with none left claim
    /// nothing. With a key index this reads only the rows sharing a key with
    /// an entry, each once; without one it scans the partitions once.
    pub(crate) fn locate(&self, rows: &[Vec<Value>]) -> BTreeSet<(u32, u32)> {
        let mut wanted: HashMap<&Vec<Value>, usize> = HashMap::new();
        for row in rows.iter().filter(|r| r.len() == self.columns.len()) {
            *wanted.entry(row).or_insert(0) += 1;
        }
        // With an index, the candidates: every row under an entry's key.
        let under_keys = self.key_index.as_ref().map(|idx| {
            let keys: HashSet<Vec<Value>> = wanted.keys().map(|row| idx.key_of(row)).collect();
            let lists = keys.iter().filter_map(|key| idx.map.get(key));
            lists.flatten().copied().collect::<Vec<_>>()
        });
        let mut found = BTreeSet::new();
        // Claims the row at `at` if an entry still wants it; `false` once
        // every entry is served.
        let mut claim = |at: (u32, u32)| {
            let row = &self.partitions[at.0 as usize][at.1 as usize];
            if let Some(n) = wanted.get_mut(row) {
                found.insert(at);
                *n -= 1;
                if *n == 0 {
                    wanted.remove(row);
                }
            }
            !wanted.is_empty()
        };
        match under_keys {
            Some(candidates) => candidates.into_iter().all(&mut claim),
            None => {
                let sizes = self.partitions.iter().map(Vec::len).enumerate();
                let mut all = sizes.flat_map(|(p, n)| (0..n as u32).map(move |r| (p as u32, r)));
                all.all(&mut claim)
            }
        };
        found
    }

    /// Remove the rows at `found` (as [`Dataset::locate`] returns them), each
    /// with `swap_remove`; the key index forgets the removed row and follows
    /// the one that moved. Proportional to `found` and the rows sharing a
    /// touched key, not to the dataset.
    pub(crate) fn remove_at(&mut self, found: &BTreeSet<(u32, u32)>) {
        // Highest location first: the row that moves is never one still to go.
        for &(p, r) in found.iter().rev() {
            let part = &mut self.partitions[p as usize];
            let gone = part.swap_remove(r as usize);
            let Some(idx) = &mut self.key_index else {
                continue;
            };
            let last = (p, part.len() as u32);
            idx.relocate(&gone, (p, r), None);
            if last.1 != r {
                idx.relocate(&part[r as usize], last, Some((p, r)));
            }
        }
    }

    /// Rows matching `key` through the key index (panics if the index does
    /// not exist or the key arity mismatches).
    pub fn index_lookup(&self, key: &[Value]) -> Vec<&Vec<Value>> {
        let idx = self.key_index.as_ref().expect("dataset has no key index");
        assert_eq!(key.len(), idx.columns.len(), "key arity mismatch");
        idx.map
            .get(key)
            .map(|locs| {
                locs.iter()
                    .map(|(p, r)| &self.partitions[*p as usize][*r as usize])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Iterate all rows (sequential; the parallel paths live in
    /// [`crate::ops`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Vec<Value>> {
        self.partitions.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect()
    }

    #[test]
    fn partitioning_distributes_rows() {
        let d = Dataset::from_rows(&["id", "grp"], rows(10), 4);
        assert_eq!(d.partitions.len(), 4);
        assert_eq!(d.len(), 10);
        // Round-robin keeps partition sizes balanced within one row.
        let sizes: Vec<usize> = d.partitions.iter().map(Vec::len).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn key_index_lookup() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3);
        d.build_key_index(vec![1]);
        let hits = d.index_lookup(&[Value::Int(2)]);
        assert_eq!(hits.len(), 3); // ids 2,5,8
        assert!(d.index_lookup(&[Value::Int(9)]).is_empty());
    }

    #[test]
    fn composite_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 2);
        d.build_key_index(vec![0, 1]);
        assert_eq!(d.index_lookup(&[Value::Int(4), Value::Int(1)]).len(), 1);
        assert!(d.index_lookup(&[Value::Int(4), Value::Int(2)]).is_empty());
    }

    #[test]
    fn append_and_remove_maintain_the_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], rows(9), 3);
        d.build_key_index(vec![1]);
        d.append_rows(vec![vec![Value::Int(11), Value::Int(2)]]);
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
        let entries = |d: &Dataset| {
            let mut entries: Vec<_> = d.key_index.iter().flat_map(|i| i.map.clone()).collect();
            entries.iter_mut().for_each(|(_, locs)| locs.sort());
            entries.sort();
            entries
        };
        let mut rebuilt = d.clone();
        if let Some(idx) = &d.key_index {
            rebuilt.build_key_index(idx.columns.clone());
        }
        assert_eq!(entries(d), entries(&rebuilt), "index drifted");
        let mut rows: Vec<_> = d.iter_rows().cloned().collect();
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
                d.append_rows(inserts.iter().cloned());
                assert_eq!(content(d), self.model);
            }
        }
    }

    #[test]
    fn deltas_keep_rows_and_index_equal_to_a_rebuild() {
        // Physical duplicates from the start: ids 0..4 are stored twice.
        let seed: Vec<_> = rows(9).into_iter().chain(rows(4)).collect();
        let mut indexed = Dataset::from_rows(&["id", "grp"], seed.clone(), 3);
        indexed.build_key_index(vec![1]);
        let plain = Dataset::from_rows(&["id", "grp"], seed.clone(), 3);
        let mut t = Twins {
            indexed,
            plain,
            model: seed,
        };
        let row = |id: i64| vec![Value::Int(id), Value::Int(id % 3)];
        let ends = |d: &Dataset, p: usize| {
            let part = &d.partitions[p];
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
        assert!(t.indexed.is_empty() && t.indexed.key_index.as_ref().unwrap().map.is_empty());
        t.step(vec![], vec![row(5), row(5), row(6)]);
        assert_eq!(t.indexed.index_lookup(&[Value::Int(2)]).len(), 2);
    }

    #[test]
    #[should_panic(expected = "no key index")]
    fn lookup_without_index_panics() {
        let d = Dataset::from_rows(&["id"], vec![vec![Value::Int(1)]], 1);
        d.index_lookup(&[Value::Int(1)]);
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let d = Dataset::from_rows(&["id"], vec![vec![Value::Int(1)]], 0);
        assert_eq!(d.partitions.len(), 1);
    }
}
