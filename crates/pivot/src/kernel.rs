//! The one kernel over interned rows: the packed-key hash join
//! ([`JoinTable`]), first-seen distinct ([`Distinct`]) and group-by with
//! `HAVING` ([`Groups`]). The relational and the parallel store run them
//! beside their data ([`answer`]), the mediator's `HashJoin`, `Distinct`
//! and `Aggregate` operators over their batches: a pushed tail and a
//! mediated one are the same code, so their groups, orders and doubles are
//! identical wherever the same rows arrive in the same order.
//!
//! Equal cells are equal [`ConstId`]s, so keys hash and compare integers,
//! and the hot loops touch only ids and flat arrays: a join table lists its
//! build rows in one vector, a store's distinct makes room from the rows it
//! holds and each new row folds into its group as it is kept, and two numbers
//! compare and sum as the [`Number`]s a dense array beside the intern table
//! holds ([`ConstReader::numeric`]). A [`ConstReader`] resolves a value only
//! where an order over non-numbers is needed.

use crate::agg::{AggFun, GroupBy};
use crate::hash::{FastBuild, FastMap};
use crate::intern::{ConstId, ConstReader};
use crate::multiset::SwapRows;
use crate::value::{CmpOp, Number, Value};
use std::hash::BuildHasher;

/// A hash key over interned cells: a join, probe or key-index key. Keys of
/// up to four cells — nearly every one — pack into one integer, so the
/// per-row loops allocate nothing; wider keys fall back to a vector. A
/// table holds keys of one width, so the encodings never collide in it.
/// (Distinct rows and group keys are held flat instead: [`Distinct`].)
/// The order is the ids', not the values'.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// Up to two cells.
    Packed(u64),
    /// Three or four cells.
    Quad(u128),
    /// Five cells or more.
    Wide(Vec<ConstId>),
}

/// The key of the `len` cells `ids`.
pub fn pack_key(ids: impl Iterator<Item = ConstId>, len: usize) -> Key {
    match len {
        0..=2 => Key::Packed(ids.fold(0, |acc, id| acc << 32 | u64::from(id.id()))),
        3 | 4 => Key::Quad(ids.fold(0, |acc, id| acc << 32 | u128::from(id.id()))),
        _ => Key::Wide(ids.collect()),
    }
}

/// Interned rows laid out flat, `width` cells each: what the relational
/// and the parallel store hold and answer, and what a fill hands them.
/// `len` counts the rows, so rows of no cells still count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdRows {
    /// Cells per row.
    pub width: usize,
    /// Number of rows.
    pub len: usize,
    /// The cells, row after row.
    pub cells: Vec<ConstId>,
}

impl IdRows {
    /// No row yet, `width` cells each.
    pub fn empty(width: usize) -> IdRows {
        let (len, cells) = (0, Vec::new());
        IdRows { width, len, cells }
    }

    /// Append one row.
    pub fn push(&mut self, row: impl IntoIterator<Item = ConstId>) {
        self.cells.extend(row);
        self.len += 1;
    }

    /// The rows' approximate size in bytes, as shipped.
    pub fn approx_size(&self) -> usize {
        let reader = ConstReader::new();
        let size = |id: &ConstId| reader.get(*id).approx_size();
        self.cells.iter().map(size).sum()
    }

    /// The rows, in order.
    pub fn rows(&self) -> impl Iterator<Item = &[ConstId]> {
        (0..self.len).map(|i| self.row(i))
    }

    /// Row `i`.
    pub fn row(&self, i: usize) -> &[ConstId] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// `rows` interned, `width` cells each — or, when one of them is
    /// another width, that width, and nothing is interned.
    pub fn intern(rows: &[Vec<Value>], width: usize) -> Result<IdRows, usize> {
        if let Some(got) = rows.iter().map(Vec::len).find(|n| *n != width) {
            return Err(got);
        }
        let cells = ConstId::intern_all(rows.iter().flatten());
        let len = rows.len();
        Ok(IdRows { width, len, cells })
    }

    /// The rows, resolved to values.
    pub fn to_values(&self) -> Vec<Vec<Value>> {
        values_of(self.rows())
    }
}

impl std::ops::Index<usize> for IdRows {
    type Output = [ConstId];

    fn index(&self, i: usize) -> &[ConstId] {
        self.row(i)
    }
}

/// A store's rows held flat: one allocation for all of them, so a write
/// allocates nothing per row and a scan reads them in order, wherever the
/// allocator would have placed rows of their own.
impl SwapRows for IdRows {
    type Row = [ConstId];

    fn count(&self) -> usize {
        self.len
    }

    fn row_at(&self, at: usize) -> &[ConstId] {
        self.row(at)
    }

    fn swap_out(&mut self, at: usize) {
        let (w, last) = (self.width, self.len - 1);
        self.cells.copy_within(last * w..(last + 1) * w, at * w);
        self.cells.truncate(last * w);
        self.len = last;
    }
}

/// `rows` resolved to values.
pub fn values_of<'a>(rows: impl IntoIterator<Item = &'a [ConstId]>) -> Vec<Vec<Value>> {
    let reader = ConstReader::new();
    let row = |cells: &[ConstId]| cells.iter().map(|id| reader.get(*id).clone()).collect();
    rows.into_iter().map(row).collect()
}

/// The interned form of each entry of `rows` that a container of
/// `arity`-wide rows can hold. An entry of another arity, or with a value
/// never interned, matches no stored row: it is left out, and nothing is
/// interned.
pub fn held(rows: &[Vec<Value>], arity: usize) -> IdRows {
    let reader = ConstReader::new();
    let mut out = IdRows::empty(arity);
    for row in rows.iter().filter(|r| r.len() == arity) {
        let ids: Option<Vec<ConstId>> = row.iter().map(|v| reader.lookup(v)).collect();
        if let Some(ids) = ids {
            out.push(ids);
        }
    }
    out
}

/// `a op b` under the total value order: `=` and `<>` compare ids, two
/// numbers their [`Number`]s ([`ConstReader::numeric`]), anything else the
/// values.
pub fn compare(op: CmpOp, a: ConstId, b: ConstId, reader: &ConstReader) -> bool {
    let order = match (op, reader.numeric(a), reader.numeric(b)) {
        (CmpOp::Eq, ..) => return a == b,
        (CmpOp::Ne, ..) => return a != b,
        (_, Some(x), Some(y)) => x.total_cmp(y),
        _ => reader.get(a).cmp(reader.get(b)),
    };
    op.holds(order)
}

/// A conjunction of `column op constant` tests over interned rows. Each
/// constant is looked up once ([`ConstReader::lookup`]), never interned:
/// one that no cell holds equals no cell.
pub struct RowFilter<'r> {
    tests: Vec<(usize, CmpOp, Option<ConstId>, Value)>,
    reader: &'r ConstReader,
}

impl<'r> RowFilter<'r> {
    /// The conjunction of `tests` (`(column, op, constant)`).
    pub fn new<'v>(
        tests: impl IntoIterator<Item = (usize, CmpOp, &'v Value)>,
        reader: &'r ConstReader,
    ) -> RowFilter<'r> {
        let test = |(c, op, v): (usize, CmpOp, &Value)| (c, op, reader.lookup(v), v.clone());
        let tests = tests.into_iter().map(test).collect();
        RowFilter { tests, reader }
    }

    /// Whether `row` passes every test.
    pub fn pass(&self, row: &[ConstId]) -> bool {
        let reader = self.reader;
        self.tests.iter().all(|(c, op, id, v)| match (*op, *id) {
            (CmpOp::Eq, id) => id == Some(row[*c]),
            (CmpOp::Ne, id) => id != Some(row[*c]),
            (op, Some(id)) => compare(op, row[*c], id, reader),
            (op, None) => op.eval(reader.get(row[*c]), v),
        })
    }
}

/// The build side of a hash join, flat: each key's group (numbered in the
/// order keys first occur), and the positions of the build rows of every
/// group, group after group, each group's ascending. So a build allocates
/// a few vectors, not one per key.
#[derive(Debug, Default)]
pub struct JoinTable {
    groups: FastMap<Key, u32>,
    /// Where each group's positions start, and where the last one ends.
    starts: Vec<u32>,
    positions: Vec<u32>,
}

/// The most groups a [`JoinTable`] build makes room for before it sees its
/// keys. Sized for every row, a build side of many rows over few keys holds
/// a map slot per row: F7's fill build (17 576 rows over 4 958 keys) held
/// 1.15 MiB more at its peak that way, where with this cap it peaks no
/// higher than a table of a vector per key did. The cap is set from that
/// one measurement; a map sized for it takes about 400 KiB (8 192 buckets
/// of a 48-byte entry and a control byte), and a build of more keys
/// doubles the map from there.
const JOIN_PRESIZED: usize = 4096;

impl JoinTable {
    /// The table of the build rows' `keys`, in row order: a counting sort.
    /// The map starts with room for a group per row `keys` says it yields
    /// at least, up to 4 096 groups.
    pub fn build(keys: impl IntoIterator<Item = Key>) -> JoinTable {
        let keys = keys.into_iter();
        let n = keys.size_hint().0;
        let room = n.min(JOIN_PRESIZED);
        let mut groups: FastMap<Key, u32> =
            FastMap::with_capacity_and_hasher(room, Default::default());
        // Each row's group, and each group's row count.
        let (mut of_row, mut starts) = (Vec::with_capacity(n), Vec::with_capacity(n + 1));
        for key in keys {
            let next = groups.len() as u32;
            let g = *groups.entry(key).or_insert(next);
            if g == next {
                starts.push(0);
            }
            starts[g as usize] += 1;
            of_row.push(g);
        }
        // Each group's end, then, placing rows from the last, its start.
        let mut end = 0;
        for count in &mut starts {
            end += *count;
            *count = end;
        }
        let mut positions = vec![0; of_row.len()];
        for (at, g) in of_row.iter().enumerate().rev() {
            starts[*g as usize] -= 1;
            positions[starts[*g as usize] as usize] = at as u32;
        }
        starts.push(end);
        JoinTable {
            groups,
            starts,
            positions,
        }
    }

    /// The build rows holding `key`, ascending.
    pub fn probe(&self, key: &Key) -> &[u32] {
        let Some(&g) = self.groups.get(key) else {
            return &[];
        };
        let (from, to) = (self.starts[g as usize], self.starts[g as usize + 1]);
        &self.positions[from as usize..to as usize]
    }
}

/// An empty slot of an [`IdTable`]: zero, so a new table is zeroed memory,
/// which fresh pages from the system already are.
const EMPTY: u64 = 0;

/// The bit every hash an [`IdTable`] keeps has set, so no held slot is
/// [`EMPTY`].
const TAKEN: u32 = 1 << 31;

/// An open-addressing table of ids found by their content: each slot keeps
/// the low 31 bits of its content's hash beside the id (the top bit set,
/// so that no held slot is empty), and a probe asks the caller to compare
/// contents only where those bits agree. So no key is stored, and growing
/// the table reads no content. Deletion shifts the probe run back (no
/// tombstone). [`Distinct`] finds its rows through one, and the chase its
/// facts and its memo entries.
#[derive(Debug, Clone, Default)]
pub struct IdTable {
    /// `(hash | TAKEN) << 32 | id` per held id, [`EMPTY`] elsewhere: a power
    /// of two long (or empty), at most half full.
    slots: Vec<u64>,
    len: usize,
}

/// Where a probe for content the table does not hold ended: the vacant
/// slot closing its run, which [`IdTable::occupy`] fills.
#[derive(Debug)]
#[must_use]
pub struct Vacant(usize);

impl IdTable {
    /// The held id whose content `is` confirms, among those of `hash`.
    pub fn find(&self, hash: u32, is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash | TAKEN, is).ok()
    }

    /// [`IdTable::find`] in one probe that, when no held id is confirmed,
    /// ends at the vacant slot an id of `hash` takes. The table first grows
    /// if one more id would fill it over half, so the slot stays vacant
    /// until [`IdTable::occupy`] fills it; nothing else may change the
    /// table in between.
    pub fn entry(&mut self, hash: u32, is: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        if self.full() {
            self.resize((self.slots.len() * 2).max(16));
        }
        self.probe(hash | TAKEN, is)
    }

    /// Whether one more id would fill the table over half.
    fn full(&self) -> bool {
        self.len + 1 > self.capacity()
    }

    /// The ids the table holds before it grows.
    fn capacity(&self) -> usize {
        self.slots.len() / 2
    }

    /// Make room for `ids` ids in all: holding that many grows the table no
    /// more.
    fn reserve(&mut self, ids: usize) {
        if ids * 2 > self.slots.len() {
            self.resize((ids * 2).next_power_of_two().max(16));
        }
    }

    /// Hold `id`, whose content hashes to `hash`, in the slot `vacant`.
    pub fn occupy(&mut self, vacant: Vacant, hash: u32, id: u32) {
        self.slots[vacant.0] = u64::from(hash | TAKEN) << 32 | u64::from(id);
        self.len += 1;
    }

    /// Hold `id`, whose content hashes to `hash` (the caller knows it is
    /// not held).
    pub fn insert(&mut self, hash: u32, id: u32) {
        if let Err(vacant) = self.entry(hash, |_| false) {
            self.occupy(vacant, hash, id);
        }
    }

    /// The held id confirmed by `is` among those of `hash` (its [`TAKEN`]
    /// bit set), or the vacant slot ending the probe run (the table is not
    /// empty).
    fn probe(&self, hash: u32, mut is: impl FnMut(u32) -> bool) -> Result<u32, Vacant> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(Vacant(slot)),
                entry if (entry >> 32) as u32 == hash && is(entry as u32) => {
                    return Ok(entry as u32)
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The slot holding `id` under `hash`.
    fn slot_of(&self, hash: u32, id: u32) -> Option<usize> {
        let (mask, hash) = (self.slots.len().checked_sub(1)?, hash | TAKEN);
        let (entry, mut slot) = (u64::from(hash) << 32 | u64::from(id), hash as usize & mask);
        loop {
            match self.slots[slot] {
                EMPTY => return None,
                held if held == entry => return Some(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Let `id` (under `hash`) go: backward-shift deletion, each later entry
    /// of the probe run that may move back to the hole does, so no
    /// tombstone is left.
    pub fn remove(&mut self, hash: u32, id: u32) {
        let Some(mut hole) = self.slot_of(hash, id) else {
            return;
        };
        let mask = self.slots.len() - 1;
        let mut next = (hole + 1) & mask;
        while self.slots[next] != EMPTY {
            let home = (self.slots[next] >> 32) as usize & mask;
            if next.wrapping_sub(home) & mask >= next.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[next];
                hole = next;
            }
            next = (next + 1) & mask;
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Hold `to` in place of `from`, both under `hash`.
    pub fn replace(&mut self, hash: u32, from: u32, to: u32) {
        if let Some(slot) = self.slot_of(hash, from) {
            self.slots[slot] = u64::from(hash | TAKEN) << 32 | u64::from(to);
        }
    }

    /// Let every id go, keeping the table's size: refilled, it grows no
    /// more than before.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
    }

    /// Make the table `size` slots long (a power of two) and place every id
    /// again by the hash its slot keeps.
    fn resize(&mut self, size: usize) {
        let mask = size - 1;
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; size]);
        for entry in old.into_iter().filter(|e| *e != EMPTY) {
            let mut slot = (entry >> 32) as usize & mask;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = entry;
        }
    }
}

/// First-seen distinct over rows `width` cells wide: each distinct row held
/// once, flat, in first-seen order, and found again by its cells through an
/// [`IdTable`] of row positions. So no key is built per row, at any width.
/// Its table doubles as rows are kept, except in [`answer`], which makes
/// room ahead from the rows held.
#[derive(Debug, Clone)]
pub struct Distinct<S = FastBuild> {
    rows: IdRows,
    table: IdTable,
    hasher: S,
}

impl Distinct {
    /// No row seen yet.
    pub fn new(width: usize) -> Distinct {
        Distinct::with_hasher(width, FastBuild::default())
    }
}

impl<S: BuildHasher> Distinct<S> {
    /// No row seen yet, slots chosen by `hasher`.
    pub fn with_hasher(width: usize, hasher: S) -> Distinct<S> {
        let (rows, table) = (IdRows::empty(width), IdTable::default());
        Distinct {
            rows,
            table,
            hasher,
        }
    }

    /// If the next new row would grow the table, make room at once — in the
    /// table and for the cells — for eight times the rows held, but for no
    /// more than `most` in all. Called before each row of a pass over many
    /// distinct rows, this grows the table a few times, where doubling
    /// would place every row held again once per doubling; with few
    /// distinct rows, the table stays small.
    fn make_room(&mut self, most: usize) {
        if self.table.full() {
            let (held, most) = (self.rows.len, most.max(self.rows.len + 1));
            let want = if held * 16 >= most {
                most
            } else {
                (held * 8).max(1)
            };
            self.table.reserve(want);
            let room = self.table.capacity().min(most);
            self.rows
                .cells
                .reserve_exact((room - held) * self.rows.width);
        }
    }

    /// `true` the first time `row` is offered.
    pub fn keep(&mut self, row: impl IntoIterator<Item = ConstId>) -> bool {
        self.insert(row).1
    }

    /// The position of `row` among the distinct rows, first-seen, and
    /// whether this is its first time (it is then appended).
    pub fn insert(&mut self, row: impl IntoIterator<Item = ConstId>) -> (usize, bool) {
        let (width, end) = (self.rows.width, self.rows.cells.len());
        self.rows.cells.extend(row);
        debug_assert_eq!(self.rows.cells.len(), end + width, "a row of another width");
        let (held, new) = self.rows.cells.split_at(end);
        let hash = self.hasher.hash_one(new) as u32;
        let is = |at: u32| held[at as usize * width..][..width] == *new;
        match self.table.entry(hash, is) {
            Ok(at) => {
                self.rows.cells.truncate(end);
                (at as usize, false)
            }
            Err(vacant) => {
                self.table.occupy(vacant, hash, self.rows.len as u32);
                self.rows.len += 1;
                (self.rows.len - 1, true)
            }
        }
    }

    /// The position of `row` among the distinct rows, if held.
    pub fn find(&self, row: &[ConstId]) -> Option<usize> {
        if row.len() != self.rows.width {
            return None;
        }
        let hash = self.hasher.hash_one(row) as u32;
        let found = self
            .table
            .find(hash, |at| self.rows.row(at as usize) == row);
        found.map(|at| at as usize)
    }

    /// The table hash of the row at `at`.
    fn hash_at(&self, at: usize) -> u32 {
        self.hasher.hash_one(self.rows.row(at)) as u32
    }

    /// Take the row at `at` out, the last row moving into its place and its
    /// slot re-pointed to `at`.
    pub fn swap_remove(&mut self, at: usize) {
        let last = self.rows.len - 1;
        self.table.remove(self.hash_at(at), at as u32);
        if at != last {
            self.table
                .replace(self.hash_at(last), last as u32, at as u32);
        }
        self.rows.swap_out(at);
    }

    /// Swap the rows at `a` and `b`, their slots re-pointed. Two rows of
    /// one hash keep their slots: each names a row of that hash either way.
    pub fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (hash_a, hash_b) = (self.hash_at(a), self.hash_at(b));
        if hash_a != hash_b {
            self.table.replace(hash_a, a as u32, b as u32);
            self.table.replace(hash_b, b as u32, a as u32);
        }
        let (w, (low, high)) = (self.rows.width, (a.min(b), a.max(b)));
        let (head, tail) = self.rows.cells.split_at_mut(high * w);
        head[low * w..][..w].swap_with_slice(&mut tail[..w]);
    }

    /// Number of distinct rows.
    pub fn len(&self) -> usize {
        self.rows.len
    }

    /// `true` before the first row.
    pub fn is_empty(&self) -> bool {
        self.rows.len == 0
    }

    /// The distinct rows, first-seen.
    pub fn rows(&self) -> &IdRows {
        &self.rows
    }

    /// The distinct rows, first-seen.
    pub fn into_rows(self) -> IdRows {
        self.rows
    }
}

/// Distinct rows leave as a store's rows do: the last row fills the hole.
impl<S: BuildHasher> SwapRows for Distinct<S> {
    type Row = [ConstId];

    fn count(&self) -> usize {
        self.rows.len
    }

    fn row_at(&self, at: usize) -> &[ConstId] {
        self.rows.row(at)
    }

    fn swap_out(&mut self, at: usize) {
        self.swap_remove(at);
    }
}

/// Running state of one aggregate.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    count: i64,
    sum: f64,
    extreme: Option<ConstId>,
}

impl Acc {
    fn fold(&mut self, fun: AggFun, v: ConstId, reader: &ConstReader) {
        let better = match fun {
            AggFun::Min => CmpOp::Lt,
            AggFun::Max => CmpOp::Gt,
            AggFun::Count => {
                self.count += 1;
                return;
            }
            AggFun::Sum | AggFun::Avg => {
                self.count += 1;
                self.sum += reader.numeric(v).map_or(0.0, Number::as_f64);
                return;
            }
        };
        if self.extreme.is_none_or(|m| compare(better, v, m, reader)) {
            self.extreme = Some(v);
        }
    }

    fn finish(&self, fun: AggFun, reader: &ConstReader) -> Value {
        let extreme = self.extreme.map(|m| reader.get(m).clone());
        match fun {
            AggFun::Count => Value::Int(self.count),
            AggFun::Sum => Value::Double(self.sum),
            AggFun::Avg if self.count == 0 => Value::Null,
            AggFun::Avg => Value::Double(self.sum / self.count as f64),
            AggFun::Min | AggFun::Max => extreme.unwrap_or(Value::Null),
        }
    }
}

/// Group-by state: each group's key cells, first-seen ([`Distinct`]), and
/// one accumulator per aggregate.
#[derive(Debug)]
pub struct Groups<S = FastBuild> {
    funs: Vec<AggFun>,
    keys: Distinct<S>,
    accs: Vec<Acc>,
}

impl Groups {
    /// No group yet: keys `width` cells wide, one aggregate per `funs`.
    pub fn new(width: usize, funs: Vec<AggFun>) -> Groups {
        Groups::with_hasher(width, funs, FastBuild::default())
    }
}

impl<S: BuildHasher> Groups<S> {
    /// [`Groups::new`] with the keys' slots chosen by `hasher`.
    pub fn with_hasher(width: usize, funs: Vec<AggFun>, hasher: S) -> Groups<S> {
        let (keys, accs) = (Distinct::with_hasher(width, hasher), Vec::new());
        Groups { funs, keys, accs }
    }

    /// [`Distinct::make_room`] for the groups' keys.
    fn make_room(&mut self, most: usize) {
        self.keys.make_room(most);
    }

    /// Fold one row in: its `key` cells and one argument per aggregate.
    pub fn add(
        &mut self,
        key: impl Iterator<Item = ConstId>,
        args: impl Iterator<Item = ConstId>,
        reader: &ConstReader,
    ) {
        let n = self.funs.len();
        let (g, new) = self.keys.insert(key);
        if new {
            self.accs.resize((g + 1) * n, Acc::default());
        }
        for ((acc, fun), v) in self.accs[g * n..].iter_mut().zip(&self.funs).zip(args) {
            acc.fold(*fun, v, reader);
        }
    }

    /// The groups passing `having` (`(output column, op, constant)`), each
    /// its key followed by its aggregates. A global aggregate (no key
    /// cells) over no rows is one row; a grouped one is none.
    pub fn finish(mut self, having: &[(usize, CmpOp, Value)]) -> IdRows {
        let (w, n) = (self.keys.rows.width, self.funs.len());
        let len = if w == 0 { 1 } else { self.keys.len() };
        self.accs.resize(len * n, Acc::default());
        // The aggregates of each group passing `having`, resolved into one
        // vector (no vector per group); the reader is gone before the new
        // values are interned.
        let (mut kept, mut out) = (Vec::new(), Vec::with_capacity(len * n));
        {
            let reader = ConstReader::new();
            for g in 0..len {
                let from = out.len();
                let accs = self.accs[g * n..(g + 1) * n].iter().zip(&self.funs);
                out.extend(accs.map(|(a, f)| a.finish(*f, &reader)));
                let key = &self.keys.rows.cells[g * w..(g + 1) * w];
                let cell = |c: usize| match c.checked_sub(w) {
                    Some(a) => out[from..].get(a),
                    None => key.get(c).map(|id| reader.get(*id)),
                };
                let holds =
                    |(c, op, v): &(usize, CmpOp, Value)| cell(*c).is_some_and(|x| op.eval(x, v));
                match having.iter().all(holds) {
                    true => kept.push(g),
                    false => out.truncate(from),
                }
            }
        }
        let mut ids = ConstId::intern_all(&out).into_iter();
        let mut rows = IdRows::empty(w + n);
        rows.cells.reserve_exact(kept.len() * (w + n));
        for g in kept {
            let key = self.keys.rows.cells[g * w..(g + 1) * w].iter().copied();
            rows.push(key.chain(ids.by_ref().take(n)));
        }
        rows
    }
}

/// What a store returns of the rows it selected and projected: the groups
/// of `group` over the distinct rows, else each row once when `distinct`,
/// else every row. One pass: each row seen for the first time folds into
/// its group at once, so the groups fold the distinct rows in first-seen
/// order. The distinct and the groups make room ahead as they fill
/// (`Distinct::make_room`), never for more than the rows in hand.
pub fn answer(rows: IdRows, distinct: bool, group: Option<&GroupBy>) -> IdRows {
    if !distinct && group.is_none() {
        return rows;
    }
    let (mut seen, most) = (Distinct::new(rows.width), rows.len);
    let Some(g) = group else {
        for row in rows.rows() {
            seen.make_room(most);
            seen.keep(row.iter().copied());
        }
        return seen.into_rows();
    };
    let mut groups = Groups::new(g.keys, g.aggs.iter().map(|(f, _)| *f).collect());
    {
        let reader = ConstReader::new();
        for row in rows.rows() {
            seen.make_room(most);
            if seen.keep(row.iter().copied()) {
                groups.make_room(most);
                let args = g.aggs.iter().map(|(_, c)| row[*c]);
                groups.add(row[..g.keys].iter().copied(), args, &reader);
            }
        }
    }
    groups.finish(&g.having)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::FastSet;

    /// Two-cell keys that differ only in their first cell (the high 32 bits
    /// of `Key::Packed`) reach at least half the buckets of the 8 192-bucket
    /// table that holds 4 096 of them.
    #[test]
    fn packed_keys_differing_in_their_high_bits_spread() {
        let build = FastBuild::default();
        let buckets: FastSet<u64> = (0..4096u64)
            .map(|a| build.hash_one(Key::Packed(a << 32 | 7)) & 0x1fff)
            .collect();
        assert!(buckets.len() >= 2048, "{} buckets", buckets.len());
    }

    #[test]
    fn extremes_and_tests_order_by_value_not_by_id() {
        // Interned in an order unlike their value order.
        let (big, small, text) = (
            ConstId::of(1i64 << 40),
            ConstId::of(-5i64),
            ConstId::of("zz-kernel"),
        );
        let reader = ConstReader::new();
        assert!(compare(CmpOp::Lt, small, big, &reader));
        assert!(compare(CmpOp::Gt, text, big, &reader));
        let at_least = RowFilter::new([(0, CmpOp::Ge, &Value::Double(-5.0))], &reader);
        assert!(at_least.pass(&[big]) && !at_least.pass(&[small]));
        let ghost = Value::str("never-interned-kernel");
        let not_ghost = RowFilter::new([(1, CmpOp::Ne, &ghost)], &reader);
        assert!(not_ghost.pass(&[big, text]));
        assert!(!RowFilter::new([(0, CmpOp::Eq, &ghost)], &reader).pass(&[text]));
    }

    /// Random inserts (through one [`IdTable::entry`] probe), finds, removes
    /// and replaces of ids whose content is a number, against a map from
    /// content to id. `hash` may send several contents, or all, to one slot.
    fn table_follows_a_map_model(hash: impl Fn(u64) -> u32, seed: u64) {
        const KEYS: u64 = 300;
        let (mut table, mut model) = (IdTable::default(), FastMap::<u64, u32>::default());
        // Id → content; an id is never reused.
        let mut content: Vec<u64> = Vec::new();
        let mut x = seed;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % n
        };
        for step in 0..3_000 {
            let key = next(KEYS);
            match next(5) {
                0..=2 => {
                    let got = table.entry(hash(key), |id| content[id as usize] == key);
                    match (got, model.get(&key)) {
                        (Ok(id), Some(&held)) => assert_eq!(id, held, "step {step}"),
                        (Err(vacant), None) => {
                            let id = content.len() as u32;
                            content.push(key);
                            table.occupy(vacant, hash(key), id);
                            model.insert(key, id);
                        }
                        (got, held) => panic!("step {step}: {got:?} against {held:?}"),
                    }
                }
                3 => {
                    if let Some(id) = model.remove(&key) {
                        table.remove(hash(key), id);
                    }
                }
                _ => {
                    if let Some(id) = model.get_mut(&key) {
                        let to = content.len() as u32;
                        content.push(key);
                        table.replace(hash(key), *id, to);
                        *id = to;
                    }
                }
            }
            assert_eq!(table.len, model.len(), "step {step}");
            let find = |k: u64| table.find(hash(k), |id| content[id as usize] == k);
            assert_eq!(find(key), model.get(&key).copied(), "step {step}");
            if step % 100 == 0 {
                for k in 0..KEYS {
                    assert_eq!(find(k), model.get(&k).copied(), "step {step}, key {k}");
                }
            }
        }
        assert!(
            table.slots.len() >= 256,
            "{} slots: too few grows",
            table.slots.len()
        );
        table.clear();
        assert_eq!(table.len, 0);
        assert!((0..KEYS).all(|k| table.find(hash(k), |_| true).is_none()));
        table.insert(hash(5), 0);
        assert_eq!(table.find(hash(5), |id| id == 0), Some(0));
    }

    #[test]
    fn id_table_follows_a_map_model() {
        let build = FastBuild::default();
        for seed in 0..4 {
            table_follows_a_map_model(|k| build.hash_one(k) as u32, seed);
            table_follows_a_map_model(|k| (k % 5) as u32, seed);
            table_follows_a_map_model(|_| 7, seed);
        }
    }

    /// Hashes a row by the parity of the sum of its bytes: rows of equal
    /// parity share one hash, and so one probe run.
    #[derive(Clone, Default)]
    struct Parity;

    struct ParityHasher(u64);

    impl std::hash::Hasher for ParityHasher {
        fn finish(&self) -> u64 {
            self.0 % 2
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0 += bytes.iter().map(|b| u64::from(*b)).sum::<u64>();
        }
    }

    impl BuildHasher for Parity {
        type Hasher = ParityHasher;
        fn build_hasher(&self) -> ParityHasher {
            ParityHasher(0)
        }
    }

    #[test]
    fn swaps_between_rows_of_equal_hash_keep_every_row_found() {
        let row = |i: i64| [ConstId::of(i), ConstId::of(-i)];
        let mut distinct = Distinct::with_hasher(2, Parity);
        let mut model: Vec<[ConstId; 2]> = (0..12).map(row).collect();
        for r in &model {
            assert!(distinct.keep(r.iter().copied()));
        }
        let same = |d: &Distinct<Parity>, a: usize, b: usize| d.hash_at(a) == d.hash_at(b);
        let (a, b) = (0..12)
            .find(|&b| b > 2 && same(&distinct, 2, b))
            .map(|b| (2, b))
            .unwrap();
        let c = (0..12).find(|&c| !same(&distinct, a, c)).unwrap();
        let check = |d: &Distinct<Parity>, model: &[[ConstId; 2]]| {
            assert_eq!(d.len(), model.len());
            for (at, r) in model.iter().enumerate() {
                assert_eq!(d.rows().row(at), r);
                assert_eq!(d.find(r), Some(at), "row {at}");
            }
            for gone in 12..14 {
                assert_eq!(d.find(&row(gone)), None);
            }
        };
        // Two rows of one hash, then two of different hashes.
        for (x, y) in [(a, b), (b, c), (c, a)] {
            distinct.swap(x, y);
            model.swap(x, y);
            check(&distinct, &model);
        }
        // The last row, of `a`'s hash, moves into a hole of the same hash,
        // then of the other.
        let last = model.len() - 1;
        let into = (0..last).find(|&i| same(&distinct, i, last)).unwrap();
        distinct.swap_remove(into);
        model.swap_remove(into);
        check(&distinct, &model);
        let last = model.len() - 1;
        let into = (0..last).find(|&i| !same(&distinct, i, last)).unwrap();
        distinct.swap_remove(into);
        model.swap_remove(into);
        check(&distinct, &model);
    }

    /// A pass of 20 000 rows that makes room before each row sizes its
    /// table from the rows it holds, never from the rows it is offered: at
    /// 9, 64 or 1 000 distinct rows the table holds fewer than 32 ids per
    /// row kept, and when every row is distinct it makes five tables (16,
    /// 128, 1 024, 8 192 and 65 536 slots), where doubling makes thirteen.
    #[test]
    fn making_room_follows_the_rows_held() {
        for distinct in [9, 64, 1_000, 20_000] {
            let mut seen = Distinct::new(2);
            let mut sizes = vec![];
            for i in 0..20_000i64 {
                seen.make_room(20_000);
                seen.keep([ConstId::of(i % distinct), ConstId::of("room")]);
                if sizes.last() != Some(&seen.table.slots.len()) {
                    sizes.push(seen.table.slots.len());
                }
            }
            assert_eq!(seen.len(), distinct as usize);
            assert!(
                seen.table.capacity() < 32 * seen.len(),
                "{distinct}: {sizes:?}"
            );
            if distinct == 20_000 {
                assert_eq!(sizes, [16, 128, 1_024, 8_192, 65_536]);
            }
        }
    }

    #[test]
    fn join_tables_list_build_rows_in_order() {
        let key = |i: i64| pack_key([ConstId::of(i)].into_iter(), 1);
        let table = JoinTable::build([1, 2, 1, 1].map(key));
        assert_eq!(table.probe(&key(1)), &[0, 2, 3]);
        assert!(table.probe(&key(3)).is_empty());
        let wide = |i: u32| (0..i).map(|c| ConstId::of(i64::from(c)));
        assert_ne!(pack_key(wide(3), 3), pack_key(wide(4), 4));
        assert!(matches!(pack_key(wide(5), 5), Key::Wide(_)));
    }
}
