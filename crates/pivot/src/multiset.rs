//! The rows a delete looks for among stored rows, as a multiset, and the
//! one value→row index every store keeps.
//!
//! Every store removes "one stored instance per entry": equal entries take
//! distinct instances, and an entry with no instance left takes nothing.
//! [`Wanted`] is that bookkeeping once, whatever a store's rows (a row, a
//! document, a keyed text) and locations (a row position) are; the store
//! supplies the candidate locations — every row, or the rows of a key's
//! block in a keyed parallel dataset ([`Wanted::claim`]), or the rows an
//! index lists under the entries' keys ([`Wanted::claim_under`]).
//!
//! [`Postings`] is that index: each key with the ascending locations of
//! the rows posted under it, its keys hashed, in no particular order.
//! Claimed rows leave through
//! [`swap_remove`] — the last row fills each hole — and every index
//! forgets the one row and relocates the other in place
//! ([`Postings::relocate`]), so a patched index lists what a fresh build
//! over the remaining rows would. The relational table, the document
//! collection, the text index and the [`Bag`] relocate; the keyed parallel
//! dataset does not, as a hole in a key's block is filled from the same
//! block and no index lists its rows.
//!
//! [`Bag`] is a counted relation built from these parts: each distinct
//! interned row held once ([`Distinct`]) with the number of times it
//! occurs, and posted per column: a table [`crate::spj`] joins.

use crate::hash::{FastMap, FastSet};
use crate::kernel::{Distinct, IdRows};
use crate::spj::Indexed;
use crate::{ConstId, Value};
use std::borrow::Borrow;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::hash::Hash;

/// Rows still wanted, each with the number of instances it still claims.
#[derive(Debug)]
pub struct Wanted<'a, T: ?Sized = [Value]> {
    left: FastMap<&'a T, usize>,
}

impl<'a, T: Hash + Eq + ?Sized> Wanted<'a, T> {
    /// One claim per entry of `entries`.
    pub fn of(entries: impl IntoIterator<Item = &'a T>) -> Wanted<'a, T> {
        let mut left = FastMap::default();
        for entry in entries {
            *left.entry(entry).or_insert(0) += 1;
        }
        Wanted { left }
    }

    /// The distinct entries not yet served.
    pub fn rows(&self) -> impl Iterator<Item = &'a T> + '_ {
        self.left.keys().copied()
    }

    /// Claim, in `candidates` order (distinct locations), every location
    /// whose stored row (`row_at`) an entry still wants, until every entry
    /// is served. Returns the claimed locations.
    pub fn claim<'s, L: Ord + Copy>(
        &mut self,
        candidates: impl IntoIterator<Item = L>,
        row_at: impl Fn(L) -> &'s T,
    ) -> BTreeSet<L>
    where
        T: 's,
    {
        let mut found = BTreeSet::new();
        for at in candidates {
            if self.left.is_empty() {
                break;
            }
            let row = row_at(at);
            if let Some(n) = self.left.get_mut(row) {
                found.insert(at);
                *n -= 1;
                if *n == 0 {
                    self.left.remove(row);
                }
            }
        }
        found
    }

    /// [`Wanted::claim`] through an index: the candidates are the
    /// locations `under` lists for each distinct `key` of an entry, so the
    /// rows under one key are read once however many entries share it.
    pub fn claim_under<'s, K: Hash + Eq, L: Ord + Copy + 's>(
        &mut self,
        key: impl Fn(&T) -> K,
        under: impl Fn(&K) -> &'s [L],
        row_at: impl Fn(L) -> &'s T,
    ) -> BTreeSet<L>
    where
        T: 's,
    {
        let keys: FastSet<K> = self.rows().map(key).collect();
        let candidates: Vec<L> = keys.iter().flat_map(under).copied().collect();
        self.claim(candidates, row_at)
    }
}

/// A value→row index: each key with the ascending locations of the rows
/// posted under it, the keys in no particular order. A location is posted
/// under a key at most once, and a key without locations is absent, so an
/// index patched in place equals a fresh build ([`FromIterator`]) over the
/// same rows. The keys are hashed, and a key posted at one location keeps
/// it inline: a unique column costs one table slot per row, and a lookup is
/// one probe.
#[derive(Debug, Clone)]
pub struct Postings<K, L = usize> {
    map: FastMap<K, Locs<L>>,
}

/// The locations posted under one key: one, inline, or two or more,
/// ascending. A key moves between the two as rows come and go, so equal
/// postings are equal whatever their history.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Locs<L> {
    One([L; 1]),
    Many(Vec<L>),
}

impl<L> Locs<L> {
    fn as_slice(&self) -> &[L] {
        match self {
            Locs::One(one) => one,
            Locs::Many(many) => many,
        }
    }
}

impl<K, L> Default for Postings<K, L> {
    fn default() -> Self {
        Postings {
            map: FastMap::default(),
        }
    }
}

impl<K: Hash + Eq, L: PartialEq> PartialEq for Postings<K, L> {
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

impl<K: Hash + Eq, L: Eq> Eq for Postings<K, L> {}

impl<K: Hash + Eq, L: Ord + Copy> Postings<K, L> {
    /// Post `at` under `key`.
    pub fn insert(&mut self, key: K, at: L) {
        let locs = match self.map.entry(key) {
            Entry::Occupied(occupied) => occupied.into_mut(),
            Entry::Vacant(vacant) => {
                vacant.insert(Locs::One([at]));
                return;
            }
        };
        match locs {
            Locs::One([one]) if *one == at => {}
            Locs::One([one]) => *locs = Locs::Many(vec![(*one).min(at), (*one).max(at)]),
            Locs::Many(many) => match many.last() {
                // A row appended to its container comes last.
                Some(last) if *last >= at => {
                    if let Err(i) = many.binary_search(&at) {
                        many.insert(i, at);
                    }
                }
                _ => many.push(at),
            },
        }
    }

    /// The locations posted under `key`.
    pub fn get<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> &[L]
    where
        K: Borrow<Q>,
    {
        self.map.get(key).map_or(&[], Locs::as_slice)
    }

    /// The row posted under `key` at `from` moved to `to`, or left
    /// (`None`); a key left without locations leaves too.
    pub fn relocate<Q: Hash + Eq + ?Sized>(&mut self, key: &Q, from: L, to: Option<L>)
    where
        K: Borrow<Q>,
    {
        let Some(locs) = self.map.get_mut(key) else {
            return;
        };
        let many = match locs {
            Locs::One([one]) if *one == from => {
                match to {
                    Some(to) => *one = to,
                    None => drop(self.map.remove(key)),
                }
                return;
            }
            Locs::One(_) => return,
            Locs::Many(many) => many,
        };
        let Ok(i) = many.binary_search(&from) else {
            return;
        };
        many.remove(i);
        if let Some(to) = to {
            if let Err(i) = many.binary_search(&to) {
                many.insert(i, to);
            }
        }
        if let [one] = many[..] {
            *locs = Locs::One([one]);
        }
    }

    /// The keys, in no particular order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.map.keys()
    }

    /// `true` when nothing is posted.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Unpost everything, keeping the table's capacity for what is posted
    /// next.
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }
}

impl<K: Hash + Eq, L: Ord + Copy> FromIterator<(K, L)> for Postings<K, L> {
    fn from_iter<I: IntoIterator<Item = (K, L)>>(postings: I) -> Self {
        let mut built = Postings::default();
        postings
            .into_iter()
            .for_each(|(key, at)| built.insert(key, at));
        built
    }
}

/// Rows held by position, where the last row can fill a hole: a `Vec` of
/// rows, or interned rows laid out flat ([`IdRows`]).
pub trait SwapRows {
    /// One row.
    type Row: ?Sized;

    /// Number of rows.
    fn count(&self) -> usize;

    /// The row at `at`.
    fn row_at(&self, at: usize) -> &Self::Row;

    /// Take the row at `at` out, the last row moving into its place.
    fn swap_out(&mut self, at: usize);
}

impl<T> SwapRows for Vec<T> {
    type Row = T;

    fn count(&self) -> usize {
        self.len()
    }

    fn row_at(&self, at: usize) -> &T {
        &self[at]
    }

    fn swap_out(&mut self, at: usize) {
        self.swap_remove(at);
    }
}

/// Take the rows at `doomed` (distinct positions) out of `rows`, highest
/// first so that the row that moves is never one still to go: the last row
/// fills each hole. The caller's indexes follow through `follow(row, from,
/// to)`, which hears of each removed row (`to == None`) and of each row
/// that moved into a hole — what [`Postings::relocate`] takes.
pub fn swap_remove<R: SwapRows>(
    rows: &mut R,
    doomed: impl IntoIterator<Item = usize>,
    mut follow: impl FnMut(&R::Row, usize, Option<usize>),
) {
    let mut doomed: Vec<usize> = doomed.into_iter().collect();
    doomed.sort_unstable_by(|a, b| b.cmp(a));
    for at in doomed {
        let last = rows.count() - 1;
        follow(rows.row_at(at), at, None);
        if last != at {
            follow(rows.row_at(last), last, Some(at));
        }
        rows.swap_out(at);
    }
}

/// A bag of interned rows `width` cells wide: each distinct row held once,
/// flat and found again by its cells, with the number of times it occurs,
/// and posted by position under its cell in each column. A row leaves
/// through [`swap_remove`], so its positions stay dense and every posting
/// list is what a fresh build over the rows held would list.
#[derive(Debug, Clone)]
pub struct Bag {
    rows: Distinct,
    counts: Vec<u64>,
    columns: Vec<Postings<ConstId, u32>>,
}

impl Bag {
    /// No row yet.
    pub fn new(width: usize) -> Bag {
        let columns = (0..width).map(|_| Postings::default()).collect();
        let (rows, counts) = (Distinct::new(width), Vec::new());
        Bag {
            rows,
            counts,
            columns,
        }
    }

    /// The distinct rows, by position.
    pub fn rows(&self) -> &IdRows {
        self.rows.rows()
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when no row is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Occurrences of each distinct row, by position.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Occurrences of each distinct row, to change in place (a row whose
    /// count reaches zero stays until it is removed).
    pub fn counts_mut(&mut self) -> &mut [u64] {
        &mut self.counts
    }

    /// The position of `row`, if held.
    pub fn find(&self, row: &[ConstId]) -> Option<usize> {
        self.rows.find(row)
    }

    /// `n` more occurrences of `row`; returns its position (a new row is
    /// appended).
    pub fn add(&mut self, row: impl IntoIterator<Item = ConstId>, n: u64) -> usize {
        let (at, new) = self.rows.insert(row);
        if new {
            let cells = self.rows.rows().row(at).iter();
            cells
                .zip(&mut self.columns)
                .for_each(|(id, posted)| posted.insert(*id, at as u32));
            self.counts.push(0);
        }
        self.counts[at] += n;
        at
    }

    /// Positions of the rows holding `id` in column `column`, ascending.
    pub fn posted(&self, column: usize, id: ConstId) -> &[u32] {
        self.columns
            .get(column)
            .map_or(&[], |posted| posted.get(&id))
    }

    /// Swap the rows at `a` and `b`, counts and postings with them: each
    /// cell where the two differ is relocated once.
    pub fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (held, (a32, b32)) = (self.rows.rows(), (a as u32, b as u32));
        let cells = held.row(a).iter().zip(held.row(b));
        for (posted, (x, y)) in self.columns.iter_mut().zip(cells) {
            if x != y {
                posted.relocate(x, a32, Some(b32));
                posted.relocate(y, b32, Some(a32));
            }
        }
        self.counts.swap(a, b);
        self.rows.swap(a, b);
    }

    /// Take the rows at `doomed` (distinct positions) out, counts and all:
    /// the last row fills each hole.
    pub fn remove(&mut self, doomed: impl IntoIterator<Item = usize>) {
        let (columns, counts) = (&mut self.columns, &mut self.counts);
        swap_remove(&mut self.rows, doomed, |row, from, to| {
            let to32 = to.map(|to| to as u32);
            for (posted, id) in columns.iter_mut().zip(row) {
                posted.relocate(id, from as u32, to32);
            }
            if let Some(to) = to {
                counts[to] = counts[from];
            }
        });
        self.counts.truncate(self.rows.len());
    }
}

impl Indexed for Bag {
    fn rows(&self) -> &IdRows {
        self.rows.rows()
    }

    fn postings(&self, column: usize) -> Option<&Postings<ConstId, u32>> {
        self.columns.get(column)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_entries_claim_distinct_instances_in_candidate_order() {
        let row = |k: i64, v: i64| vec![Value::Int(k), Value::Int(v)];
        let stored = [row(1, 1), row(2, 0), row(1, 1), row(1, 1), row(1, 2)];
        let rows = [row(1, 1), row(1, 1), row(1, 2), row(9, 9)];
        let row_at = |at: usize| stored[at].as_slice();
        let mut wanted = Wanted::of(rows.iter().map(Vec::as_slice));
        assert_eq!(
            wanted.claim([3, 1, 0, 2, 4], row_at),
            BTreeSet::from([0, 3, 4])
        );
        // The ghost is left unserved.
        let ghost = [[Value::Int(9), Value::Int(9)].as_slice()];
        assert_eq!(wanted.rows().collect::<Vec<_>>(), ghost);
        // Through an index on the first column: three entries share key 1,
        // whose rows are listed once, ascending.
        let mut wanted = Wanted::of(rows.iter().map(Vec::as_slice));
        let index = |k: &Value| match k {
            Value::Int(1) => &[0, 2, 3, 4][..],
            _ => &[],
        };
        let found = wanted.claim_under(|r| r[0].clone(), index, row_at);
        assert_eq!(found, BTreeSet::from([0, 2, 4]));
        assert_eq!(wanted.rows().collect::<Vec<_>>(), ghost);
    }

    /// Rows of two keys each, posted under both: a row may post one key twice.
    fn build(rows: &[[u8; 2]]) -> Postings<u8> {
        let posted = rows.iter().enumerate();
        posted.flat_map(|(at, r)| r.map(|k| (k, at))).collect()
    }

    #[test]
    fn patched_postings_equal_a_fresh_build_over_the_surviving_rows() {
        let mut x = 17u64;
        let mut next = |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % n.max(1)
        };
        for _ in 0..200 {
            let (mut rows, mut index) = (Vec::new(), Postings::default());
            for _ in 0..40 {
                if next(3) == 0 && !rows.is_empty() {
                    // A batch of distinct positions, claimed in any order.
                    let doomed: BTreeSet<usize> =
                        (0..1 + next(4)).map(|_| next(rows.len())).collect();
                    let doomed = doomed.into_iter().rev();
                    swap_remove(&mut rows, doomed, |row: &[u8; 2], from, to| {
                        row.iter().for_each(|k| index.relocate(k, from, to))
                    });
                } else {
                    let row = [next(5) as u8, next(5) as u8];
                    row.iter().for_each(|k| index.insert(*k, rows.len()));
                    rows.push(row);
                }
                assert_eq!(index, build(&rows));
            }
        }
        // A row removed, the last filling its hole; an emptied key leaves.
        let mut rows = vec![[1, 1], [2, 3], [3, 3]];
        let mut index = build(&rows);
        swap_remove(&mut rows, [0], |row, from, to| {
            row.iter().for_each(|k| index.relocate(k, from, to))
        });
        assert_eq!((index.get(&3), index.get(&1)), (&[0, 1][..], &[][..]));
        let mut keys: Vec<_> = index.keys().collect();
        keys.sort();
        assert_eq!(keys, [&2, &3]);
    }

    /// Random inserts and relocations against a `BTreeMap<K, BTreeSet<L>>`
    /// model, every read compared after every step; `key_of` names the
    /// keys, of which six are posted and the seventh never is. Returns how
    /// often a key went one → many, many → one and one → absent, and how
    /// often a row was relocated onto a location its key already posted.
    fn postings_follow_their_model<K: Hash + Ord + Clone + std::fmt::Debug>(
        key_of: impl Fn(usize) -> K,
    ) -> [usize; 4] {
        use std::collections::BTreeMap;
        let mut x = 29u64;
        let mut next = |n: usize| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize % n.max(1)
        };
        let mut seen = [0; 4];
        for _ in 0..100 {
            let mut index: Postings<K, u8> = Postings::default();
            let mut model: BTreeMap<K, BTreeSet<u8>> = BTreeMap::new();
            for _ in 0..60 {
                let key = key_of(next(6));
                let before = model.get(&key).map_or(0, BTreeSet::len);
                if next(2) == 0 {
                    let at = next(8) as u8;
                    index.insert(key.clone(), at);
                    model.entry(key.clone()).or_default().insert(at);
                } else {
                    let posted: Vec<u8> = model.get(&key).into_iter().flatten().copied().collect();
                    let from = match posted.len() {
                        0 => next(8) as u8,
                        n if next(4) > 0 => posted[next(n)],
                        _ => next(8) as u8,
                    };
                    let to = match next(4) {
                        0 => None,
                        1 if !posted.is_empty() => Some(posted[next(posted.len())]),
                        _ => Some(next(8) as u8),
                    };
                    if let Some(locs) = model.get_mut(&key) {
                        if locs.remove(&from) {
                            if let Some(to) = to {
                                seen[3] += usize::from(!locs.insert(to));
                            }
                            if locs.is_empty() {
                                model.remove(&key);
                            }
                        }
                    }
                    index.relocate(&key, from, to);
                }
                match (before, model.get(&key).map_or(0, BTreeSet::len)) {
                    (1, 2..) => seen[0] += 1,
                    (2.., 1) => seen[1] += 1,
                    (1, 0) => seen[2] += 1,
                    _ => {}
                }
                assert_eq!(index.len(), model.len());
                assert_eq!(index.is_empty(), model.is_empty());
                let mut keys: Vec<&K> = index.keys().collect();
                keys.sort();
                assert_eq!(keys, model.keys().collect::<Vec<_>>());
                for (key, locs) in &model {
                    assert_eq!(index.get(key), locs.iter().copied().collect::<Vec<_>>());
                }
                assert_eq!(index.get(&key_of(6)), &[][..]);
                let fresh = model
                    .iter()
                    .flat_map(|(key, locs)| locs.iter().map(|at| (key.clone(), *at)));
                assert_eq!(index, fresh.collect());
            }
        }
        seen
    }

    #[test]
    fn byte_keyed_postings_follow_a_btree_model() {
        let seen = postings_follow_their_model(|n| n as u8);
        assert!(seen.iter().all(|n| *n > 0), "{seen:?}");
    }

    #[test]
    fn value_keyed_postings_follow_a_btree_model() {
        let seen = postings_follow_their_model(|n| match n % 3 {
            0 => Value::Int(n as i64),
            1 => Value::str(format!("k{n}")),
            _ => Value::Double(n as f64 / 2.0),
        });
        assert!(seen.iter().all(|n| *n > 0), "{seen:?}");
    }
}
