//! Partitioned datasets of (possibly nested) rows, held as interned cells
//! and grouped by key.

use crate::ParError;
use estocada_pivot::hash::{FastBuild, FastMap};
use estocada_pivot::kernel::{held, pack_key, Key};
use estocada_pivot::{ConstId, IdRows, SwapRows, Value, Wanted};
use std::collections::BTreeSet;
use std::hash::BuildHasher;
use std::ops::Range;

/// A stored row: one interned cell per column.
pub(crate) type Row = [ConstId];

/// One partition: each key's rows as one block, flat, in the order they
/// were stored. A key without rows has no block.
pub(crate) type Partition = FastMap<Key, IdRows>;

/// The rows a delete takes out of one block: its partition, its key, and
/// the rows' positions in it.
pub(crate) type Claim = (usize, Key, BTreeSet<usize>);

/// `rows` interned, `expected` cells each; [`ParError::Arity`] when a row
/// is another width.
pub(crate) fn interned(rows: &[Vec<Value>], expected: usize) -> Result<IdRows, ParError> {
    IdRows::intern(rows, expected).map_err(|got| ParError::Arity { expected, got })
}

/// `row`'s cells at the key `columns`, packed.
fn key_of(columns: &[usize], row: &Row) -> Key {
    pack_key(columns.iter().map(|c| row[*c]), columns.len())
}

/// Of `n` partitions, the one that holds the rows under `key` in a keyed
/// dataset, from the key's hash. It reads hash bits that the partition's
/// own table uses neither for a bucket (the low bits) nor for a tag (the
/// top seven), so the keys sharing a partition still spread over its
/// table.
fn home(key: &Key, n: usize) -> usize {
    let bits = (FastBuild::default().hash_one(key) >> 24) as u32;
    ((u64::from(bits) * n as u64) >> 32) as usize
}

/// A partitioned dataset. Rows may contain nested values (arrays of
/// objects) — this is the nested-relational model of the parallel store;
/// each cell is interned once, when its row is written.
///
/// A keyed dataset (its key columns given at creation) keeps each key's
/// rows together: one block in one partition, chosen by the key's hash. A
/// lookup reads that block, and a delete takes rows out of it alone, so no
/// row of another key ever moves. An unkeyed dataset is the same structure
/// with every row under the empty key, dealt round-robin across the
/// partitions: one block per partition.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Column names.
    pub(crate) columns: Vec<String>,
    /// Key column positions; empty for an unkeyed dataset.
    key: Vec<usize>,
    /// Row partitions.
    pub(crate) partitions: Vec<Partition>,
}

impl Dataset {
    /// Build a dataset keyed on the columns at `key` (unkeyed when empty)
    /// from rows, over `num_partitions` parts; a key position outside the
    /// columns is [`ParError::BadColumn`], a row of another arity than
    /// `columns` [`ParError::Arity`].
    pub fn from_rows(
        columns: &[&str],
        key: &[usize],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) -> Result<Dataset, ParError> {
        if key.iter().any(|c| *c >= columns.len()) {
            return Err(ParError::BadColumn);
        }
        let mut ds = Dataset {
            columns: columns.iter().map(|s| s.to_string()).collect(),
            key: key.to_vec(),
            partitions: vec![Partition::default(); num_partitions.max(1)],
        };
        let rows = interned(&rows.into_iter().collect::<Vec<_>>(), columns.len())?;
        ds.append_ids(&rows)?;
        Ok(ds)
    }

    /// This dataset keyed on the columns at `key`, over as many partitions:
    /// what [`Dataset::from_rows`] builds from its rows in the order a scan
    /// reads them, block by block. So each key's block holds the rows a
    /// scan selecting that key returns, in the order it returns them, and
    /// a lookup of the key answers what the scan answered, in order.
    pub(crate) fn keyed_on(&self, key: &[usize]) -> Result<Dataset, ParError> {
        let width = self.columns.len();
        let mut rows = IdRows::empty(width);
        rows.cells.reserve(self.len() * width);
        self.iter_rows()
            .for_each(|row| rows.push(row.iter().copied()));
        let mut keyed = Dataset {
            columns: self.columns.clone(),
            key: key.to_vec(),
            partitions: vec![Partition::default(); self.partitions.len()],
        };
        keyed.append_ids(&rows)?;
        Ok(keyed)
    }

    /// Total row count.
    pub(crate) fn len(&self) -> usize {
        self.blocks().map(|block| block.len).sum()
    }

    /// The key column positions; empty for an unkeyed dataset.
    pub fn key_columns(&self) -> &[usize] {
        &self.key
    }

    /// The partitions that can hold rows under `key`: its one home when
    /// the dataset is keyed, every partition when it is not.
    fn homes(&self, key: &Key) -> Range<usize> {
        let n = self.partitions.len();
        if self.key.is_empty() {
            return 0..n;
        }
        let at = home(key, n);
        at..at + 1
    }

    /// Append interned rows, their cells as they are, each at the end of
    /// its key's block (round-robin across the partitions when unkeyed,
    /// continuing from the current total, so growth stays balanced). Each
    /// touched block grows once per call, by the rows it takes, so a first
    /// fill sizes every block exactly, and each row is copied once. Rows of
    /// another width than the dataset's are [`ParError::Arity`], and then
    /// no row is appended.
    pub(crate) fn append_ids(&mut self, rows: &IdRows) -> Result<(), ParError> {
        let width = self.columns.len();
        if rows.width != width {
            let (expected, got) = (width, rows.width);
            return Err(ParError::Arity { expected, got });
        }
        let keyed = !self.key.is_empty();
        let (first, n) = (if keyed { 0 } else { self.len() }, self.partitions.len());
        // Each row's block, numbered in first-seen order, and each block's
        // lane (its round-robin partition when unkeyed), key and new rows.
        let mut seen: FastMap<(usize, Key), u32> = FastMap::default();
        let mut touched: Vec<(usize, Key, usize)> = Vec::new();
        let slots: Vec<u32> = (first..)
            .zip(rows.rows())
            .map(|(next, row)| {
                let lane = if keyed { 0 } else { next % n };
                let key = key_of(&self.key, row);
                let slot = *seen.entry((lane, key.clone())).or_insert_with(|| {
                    touched.push((lane, key, 0));
                    touched.len() as u32 - 1
                });
                touched[slot as usize].2 += 1;
                slot
            })
            .collect();
        // Each touched block out of its partition, grown once; then every
        // row copied into its block, and the blocks put back.
        let mut blocks: Vec<(usize, Key, IdRows)> = (touched.into_iter())
            .map(|(lane, key, taken)| {
                let part = if keyed { home(&key, n) } else { lane };
                let block = self.partitions[part].remove(&key);
                let mut block = block.unwrap_or_else(|| IdRows::empty(width));
                block.cells.reserve(taken * width);
                (part, key, block)
            })
            .collect();
        for (slot, row) in slots.iter().zip(rows.rows()) {
            blocks[*slot as usize].2.push(row.iter().copied());
        }
        for (part, key, block) in blocks {
            self.partitions[part].insert(key, block);
        }
        Ok(())
    }

    /// One stored instance per entry of `rows`, found in the blocks of the
    /// entries' keys: equal entries claim distinct instances, entries with
    /// none left claim nothing, and each touched block is read once however
    /// many entries share its key, and only until its own key's entries are
    /// served. Entries of another width than the dataset's claim nothing.
    pub(crate) fn claim(&self, rows: &IdRows) -> Vec<Claim> {
        if rows.width != self.columns.len() {
            return Vec::new();
        }
        // The entries sorted by key: each key's entries are one run.
        let mut entries: Vec<(Key, &Row)> = (rows.rows())
            .map(|row| (key_of(&self.key, row), row))
            .collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut claims = Vec::new();
        for run in entries.chunk_by(|a, b| a.0 == b.0) {
            let key = &run[0].0;
            let mut wanted = Wanted::of(run.iter().map(|(_, row)| *row));
            for part in self.homes(key) {
                let Some(block) = self.partitions[part].get(key) else {
                    continue;
                };
                let found = wanted.claim(0..block.len, |at| block.row(at));
                if !found.is_empty() {
                    claims.push((part, key.clone(), found));
                }
            }
        }
        claims
    }

    /// Take `claims` (as [`Dataset::claim`] returns them) out of their
    /// blocks, highest position first: the block's last row fills each
    /// hole, so only rows of the claimed key move, and a block left empty
    /// leaves.
    pub(crate) fn take(&mut self, claims: Vec<Claim>) {
        for (part, key, found) in claims {
            let part = &mut self.partitions[part];
            let Some(block) = part.get_mut(&key) else {
                continue;
            };
            found.iter().rev().for_each(|at| block.swap_out(*at));
            if block.len == 0 {
                part.remove(&key);
            }
        }
    }

    /// Rows holding `key` at the key columns: the key's one block. None
    /// when the dataset is unkeyed, `key` another arity, or a value no row
    /// holds.
    pub fn index_lookup(&self, key: &[Value]) -> impl Iterator<Item = &Row> {
        let ids = held(&[key.to_vec()], key.len());
        let block = match ids.rows().next() {
            Some(ids) if !self.key.is_empty() && ids.len() == self.key.len() => {
                let key = pack_key(ids.iter().copied(), ids.len());
                self.partitions[self.homes(&key).start].get(&key)
            }
            _ => None,
        };
        block.into_iter().flat_map(IdRows::rows)
    }

    /// Every block, partition by partition: a keyed dataset's blocks are
    /// its keys' rows, one block each; an unkeyed dataset's are its
    /// partitions' rows.
    pub fn blocks(&self) -> impl Iterator<Item = &IdRows> {
        self.partitions.iter().flat_map(Partition::values)
    }

    /// Iterate all rows, block by block (sequential; the parallel paths
    /// are [`crate::par_filter`] and [`crate::par_join`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.blocks().flat_map(IdRows::rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::kernel::values_of;
    use std::collections::BTreeMap;

    impl Dataset {
        /// Remove one stored row per entry of `rows`, as a delta does.
        fn remove_rows(&mut self, rows: &[Vec<Value>]) -> usize {
            let claims = self.claim(&held(rows, self.columns.len()));
            let removed = claims.iter().map(|(_, _, found)| found.len()).sum();
            self.take(claims);
            removed
        }

        /// Append rows, as a delta does.
        fn append_rows(&mut self, rows: &[Vec<Value>]) -> Result<(), ParError> {
            self.append_ids(&interned(rows, self.columns.len())?)
        }

        /// The rows under `key`, resolved, in stored order.
        fn under(&self, key: &[Value]) -> Vec<Vec<Value>> {
            values_of(self.index_lookup(key))
        }
    }

    fn rows(n: i64) -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i % 3)])
            .collect()
    }

    #[test]
    fn partitioning_distributes_rows() {
        let d = Dataset::from_rows(&["id", "grp"], &[], rows(10), 4).unwrap();
        assert_eq!(d.partitions.len(), 4);
        assert_eq!(d.len(), 10);
        // Round-robin keeps partition sizes balanced within one row, in
        // one block each.
        let sizes: Vec<usize> = d.blocks().map(|b| b.len).collect();
        assert_eq!(sizes.len(), 4);
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn a_keyed_dataset_keeps_each_key_in_one_exactly_sized_block() {
        let row = |i: i64| vec![Value::Int(i), Value::Int(i % 5), Value::Int(i % 2)];
        let d = Dataset::from_rows(&["id", "k", "parity"], &[1], (0..40).map(row), 3).unwrap();
        assert_eq!(d.blocks().count(), 5);
        for block in d.blocks() {
            let keys: BTreeSet<_> = block.rows().map(|r| r[1]).collect();
            assert_eq!(keys.len(), 1, "one key per block");
            // The first fill counts each block's rows before copying them.
            assert_eq!(block.cells.capacity(), block.cells.len());
        }
        // Stored order within a key is insertion order.
        let ids: Vec<Value> = d
            .under(&[Value::Int(3)])
            .into_iter()
            .map(|r| r[0].clone())
            .collect();
        assert_eq!(
            ids,
            (0..8).map(|i| Value::Int(i * 5 + 3)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn key_index_lookup() {
        let d = Dataset::from_rows(&["id", "grp"], &[1], rows(9), 3).unwrap();
        assert_eq!(d.index_lookup(&[Value::Int(2)]).count(), 3); // ids 2,5,8
        assert_eq!(d.index_lookup(&[Value::Int(9)]).count(), 0);
    }

    #[test]
    fn composite_key_index() {
        let d = Dataset::from_rows(&["id", "grp"], &[0, 1], rows(9), 2).unwrap();
        let hit = [Value::Int(4), Value::Int(1)];
        assert_eq!(d.index_lookup(&hit).count(), 1);
        assert_eq!(d.index_lookup(&[Value::Int(4), Value::Int(2)]).count(), 0);
    }

    #[test]
    fn append_and_remove_maintain_the_key_index() {
        let mut d = Dataset::from_rows(&["id", "grp"], &[1], rows(9), 3).unwrap();
        d.append_rows(&[vec![Value::Int(11), Value::Int(2)]])
            .unwrap();
        assert_eq!(d.len(), 10);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).count(), 4); // ids 2,5,8,11
        let removed = d.remove_rows(&[
            vec![Value::Int(2), Value::Int(2)],
            vec![Value::Int(99), Value::Int(0)], // absent: no-op
        ]);
        assert_eq!(removed, 1);
        assert_eq!(d.index_lookup(&[Value::Int(2)]).count(), 3);
    }

    #[test]
    fn a_delete_moves_no_row_of_another_key() {
        // One partition: every key's rows share it, and its last row is
        // of key 2.
        let mut d = Dataset::from_rows(&["id", "grp"], &[1], rows(30), 1).unwrap();
        let keys = || (0..3).map(|k| [Value::Int(k)]);
        let before: Vec<_> = keys().map(|k| d.under(&k)).collect();
        // The first row stored, and one from the middle, both of key 0.
        let gone = vec![
            vec![Value::Int(0), Value::Int(0)],
            vec![Value::Int(12), Value::Int(0)],
        ];
        assert_eq!(d.remove_rows(&gone), 2);
        for (k, was) in keys().zip(&before).skip(1) {
            assert_eq!(&d.under(&k), was, "rows under {k:?} moved");
        }
        assert_eq!(d.under(&[Value::Int(0)]).len(), 8);
    }

    /// The rows, sorted — after checking that the blocks hold what a
    /// rebuild over those rows would: each key's rows in the partition a
    /// rebuild puts them in, no block empty, one block per distinct key
    /// (per partition, when unkeyed).
    fn content(d: &Dataset) -> Vec<Vec<Value>> {
        let rows = values_of(d.iter_rows());
        let columns: Vec<&str> = d.columns.iter().map(String::as_str).collect();
        let n = d.partitions.len();
        let rebuilt = Dataset::from_rows(&columns, &d.key, rows.clone(), n).unwrap();
        // Per partition (all one, when unkeyed: round-robin deals a
        // rebuild's rows anew), each key's rows, sorted.
        let per_key = |d: &Dataset| {
            let mut keys: BTreeMap<(usize, Key), Vec<Vec<Value>>> = BTreeMap::new();
            for (p, part) in d.partitions.iter().enumerate() {
                let p = if d.key.is_empty() { 0 } else { p };
                for (key, block) in part {
                    keys.entry((p, key.clone()))
                        .or_default()
                        .extend(block.to_values());
                }
            }
            keys.values_mut().for_each(|rows| rows.sort());
            keys
        };
        assert_eq!(
            per_key(d),
            per_key(&rebuilt),
            "blocks drifted from a rebuild"
        );
        assert!(d.blocks().all(|b| b.len > 0), "an empty block remains");
        if !d.key.is_empty() {
            let distinct: BTreeSet<Vec<Value>> = rows
                .iter()
                .map(|r| d.key.iter().map(|c| r[*c].clone()).collect())
                .collect();
            assert_eq!(d.blocks().count(), distinct.len());
        }
        let mut rows = rows;
        rows.sort();
        rows
    }

    /// A keyed and an unkeyed dataset taking the same deltas, and the
    /// multiset of rows both must hold.
    struct Twins {
        keyed: Dataset,
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
            for d in [&mut self.keyed, &mut self.plain] {
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
        let keyed = Dataset::from_rows(&["id", "grp"], &[1], seed.clone(), 3).unwrap();
        let plain = Dataset::from_rows(&["id", "grp"], &[], seed.clone(), 3).unwrap();
        let mut t = Twins {
            keyed,
            plain,
            model: seed,
        };
        let row = |id: i64| vec![Value::Int(id), Value::Int(id % 3)];
        let ends = |d: &Dataset| {
            let block = d.blocks().next().unwrap().to_values();
            (block[0].clone(), block[block.len() - 1].clone())
        };
        // Both copies of a duplicate in one batch, plus one copy too many.
        t.step(vec![row(2), row(2), row(2)], vec![]);
        // The last row of a block (nothing moves) and the first (one does).
        let (first, last) = ends(&t.keyed);
        t.step(vec![last, first], vec![row(20), row(20)]);
        // A removed row and the row that would move into its place.
        let (hole, mover) = ends(&t.plain);
        t.step(vec![hole, mover], vec![]);
        t.step(vec![row(99)], vec![]);
        // Empty the datasets, then grow them again.
        t.step(t.model.clone(), vec![]);
        assert!(t.keyed.blocks().next().is_none());
        assert!(t.plain.blocks().next().is_none());
        t.step(vec![], vec![row(5), row(5), row(6)]);
        assert_eq!(t.keyed.index_lookup(&[Value::Int(2)]).count(), 2);
    }

    #[test]
    fn a_batch_across_keys_claims_what_per_key_batches_claim() {
        let row = |i: i64| vec![Value::Int(i), Value::Int(i % 4)];
        // Every key's rows twice, in one partition and in three.
        let seed: Vec<_> = (0..24).chain(0..24).map(row).collect();
        for (key, parts) in [(&[1][..], 1), (&[1], 3), (&[], 3)] {
            let d = Dataset::from_rows(&["id", "grp"], key, seed.clone(), parts).unwrap();
            // Keys 0..3, a row held twice asked for three times, and a row
            // no block holds.
            let mut batch = vec![row(5), row(2), row(5), row(5), row(7), row(8)];
            batch.extend([row(99), row(3), row(2)]);
            let sorted = |mut claims: Vec<Claim>| {
                claims.sort();
                claims
            };
            let whole = sorted(d.claim(&held(&batch, 2)));
            let mut apart = Vec::new();
            for k in 0..4 {
                let of_k = batch.iter().filter(|r| r[1] == Value::Int(k)).cloned();
                apart.extend(d.claim(&held(&of_k.collect::<Vec<_>>(), 2)));
            }
            let claimed: usize = whole.iter().map(|(_, _, found)| found.len()).sum();
            assert_eq!(claimed, 7, "{key:?} over {parts}: two of row 5, none of 99");
            if !key.is_empty() {
                assert_eq!(whole, sorted(apart), "{key:?} over {parts}");
            }
        }
    }

    #[test]
    fn lookup_without_index_or_of_another_arity_has_no_rows() {
        let d = Dataset::from_rows(&["id", "grp"], &[], rows(3), 1).unwrap();
        assert_eq!(d.index_lookup(&[Value::Int(1)]).count(), 0);
        assert_eq!(d.index_lookup(&[]).count(), 0);
        let d = Dataset::from_rows(&["id", "grp"], &[0], rows(3), 1).unwrap();
        assert_eq!(d.index_lookup(&[Value::Int(1), Value::Int(1)]).count(), 0);
        assert_eq!(d.index_lookup(&[Value::Int(1)]).count(), 1);
        let outside = Dataset::from_rows(&["id", "grp"], &[2], rows(3), 1);
        assert_eq!(outside.map(|d| d.len()), Err(ParError::BadColumn));
    }

    #[test]
    fn a_wrong_arity_row_is_an_error_and_appends_nothing() {
        let short = || vec![vec![Value::Int(1), Value::Int(1)], vec![Value::Int(2)]];
        let arity = Err(ParError::Arity {
            expected: 2,
            got: 1,
        });
        let built = Dataset::from_rows(&["id", "grp"], &[], short(), 2);
        assert_eq!(built.map(|d| d.len()), arity.clone().map(|()| 0));
        let mut d = Dataset::from_rows(&["id", "grp"], &[1], rows(3), 2).unwrap();
        let before = d.clone();
        assert_eq!(d.append_rows(&short()), arity);
        assert_eq!(d.partitions, before.partitions);
    }

    #[test]
    fn zero_partitions_clamped_to_one() {
        let d = Dataset::from_rows(&["id"], &[], vec![vec![Value::Int(1)]], 0).unwrap();
        assert_eq!(d.partitions.len(), 1);
    }
}
