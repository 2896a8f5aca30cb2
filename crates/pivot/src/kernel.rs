//! The one kernel over interned rows: the packed-key hash join
//! ([`JoinTable`]), first-seen distinct ([`Distinct`]) and group-by with
//! `HAVING` ([`Groups`]). The relational and the parallel store run them
//! beside their data ([`answer`]), the mediator's `HashJoin`, `Distinct`
//! and `Aggregate` operators over their batches: a pushed tail and a
//! mediated one are the same code, so their groups, orders and doubles are
//! identical wherever the same rows arrive in the same order.
//!
//! Equal cells are equal [`ConstId`]s, so keys hash and compare integers;
//! a [`ConstReader`] resolves a value only where an order or a number is
//! needed, and a number from a dense array ([`ConstReader::number`]).

use crate::agg::{AggFun, GroupBy};
use crate::hash::{FastBuild, FastMap};
use crate::intern::{ConstId, ConstReader};
use crate::multiset::SwapRows;
use crate::value::{CmpOp, Value};
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
/// numbers their [`ConstReader::number`]s, anything else the values.
pub fn compare(op: CmpOp, a: ConstId, b: ConstId, reader: &ConstReader) -> bool {
    match (op, reader.number(a), reader.number(b)) {
        (CmpOp::Eq, ..) => a == b,
        (CmpOp::Ne, ..) => a != b,
        (op, Some(x), Some(y)) => op.eval(&x, &y),
        (op, ..) => op.eval(reader.get(a), reader.get(b)),
    }
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

/// The build side of a hash join: each key with the positions of the build
/// rows holding it, in build order.
#[derive(Debug, Default)]
pub struct JoinTable(FastMap<Key, Vec<u32>>);

impl JoinTable {
    /// The table of the build rows' `keys`, in row order.
    pub fn build(keys: impl IntoIterator<Item = Key>) -> JoinTable {
        let mut table: FastMap<Key, Vec<u32>> = FastMap::default();
        for (at, key) in (0..).zip(keys) {
            table.entry(key).or_default().push(at);
        }
        JoinTable(table)
    }

    /// The build rows holding `key`, ascending.
    pub fn probe(&self, key: &Key) -> &[u32] {
        self.0.get(key).map_or(&[], Vec::as_slice)
    }
}

/// An empty slot of a [`Distinct`]'s table.
const EMPTY: u64 = u64::MAX;

/// First-seen distinct over rows `width` cells wide: each distinct row held
/// once, flat, in first-seen order, and found again by its cells. The
/// table is open addressing over row positions: a row's slot comes from
/// the hash of its cells, each slot keeps the low 32 bits of its row's hash
/// beside the row's position, and a probe compares the stored cells only
/// where those bits agree. So no key is built per row, at any width, and
/// growing the table reads no row.
#[derive(Debug, Clone)]
pub struct Distinct<S = FastBuild> {
    rows: IdRows,
    /// `hash << 32 | position` per held row, [`EMPTY`] elsewhere: a power
    /// of two long (or empty), at most half full.
    slots: Vec<u64>,
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
        let (rows, slots) = (IdRows::empty(width), Vec::new());
        Distinct {
            rows,
            slots,
            hasher,
        }
    }

    /// `true` the first time `row` is offered.
    pub fn keep(&mut self, row: impl IntoIterator<Item = ConstId>) -> bool {
        self.insert(row).1
    }

    /// The position of `row` among the distinct rows, first-seen, and
    /// whether this is its first time (it is then appended).
    pub fn insert(&mut self, row: impl IntoIterator<Item = ConstId>) -> (usize, bool) {
        if (self.rows.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (width, end) = (self.rows.width, self.rows.cells.len());
        self.rows.cells.extend(row);
        debug_assert_eq!(self.rows.cells.len(), end + width, "a row of another width");
        let new = &self.rows.cells[end..];
        let hash = self.hasher.hash_one(new) as u32;
        match self.slot(new, hash) {
            (_, Some(at)) => {
                self.rows.cells.truncate(end);
                (at, false)
            }
            (slot, None) => {
                self.slots[slot] = u64::from(hash) << 32 | self.rows.len as u64;
                self.rows.len += 1;
                (self.rows.len - 1, true)
            }
        }
    }

    /// The position of `row` among the distinct rows, if held.
    pub fn find(&self, row: &[ConstId]) -> Option<usize> {
        if self.slots.is_empty() || row.len() != self.rows.width {
            return None;
        }
        self.slot(row, self.hasher.hash_one(row) as u32).1
    }

    /// The slot holding `row`, whose hash is `hash`, with its position —
    /// or, when no slot does, the empty slot ending its probe run.
    fn slot(&self, row: &[ConstId], hash: u32) -> (usize, Option<usize>) {
        let (width, mask) = (self.rows.width, self.slots.len() - 1);
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return (slot, None),
                entry if (entry >> 32) as u32 == hash => {
                    let at = entry as u32 as usize;
                    if self.rows.cells[at * width..][..width] == *row {
                        return (slot, Some(at));
                    }
                }
                _ => {}
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Take the row at `at` out, the last row moving into its place. Its
    /// slot is freed by backward-shift deletion — each later entry of the
    /// probe run that may move back to the hole does, so no tombstone is
    /// left — and the slot of the row that moved is re-pointed to `at`.
    pub fn swap_remove(&mut self, at: usize) {
        let (last, mask) = (self.rows.len - 1, self.slots.len() - 1);
        let hash = |d: &Self, i: usize| d.hasher.hash_one(d.rows.row(i)) as u32;
        let (mut hole, _) = self.slot(self.rows.row(at), hash(self, at));
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
        if at != last {
            let moved = hash(self, last);
            let (slot, _) = self.slot(self.rows.row(last), moved);
            self.slots[slot] = u64::from(moved) << 32 | at as u64;
        }
        self.rows.swap_out(at);
    }

    /// Swap the rows at `a` and `b`, their slots re-pointed.
    pub fn swap(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let hash = |d: &Self, i: usize| d.hasher.hash_one(d.rows.row(i)) as u32;
        let (hash_a, hash_b) = (hash(self, a), hash(self, b));
        let (slot_a, _) = self.slot(self.rows.row(a), hash_a);
        let (slot_b, _) = self.slot(self.rows.row(b), hash_b);
        self.slots[slot_a] = u64::from(hash_a) << 32 | b as u64;
        self.slots[slot_b] = u64::from(hash_b) << 32 | a as u64;
        let (w, (low, high)) = (self.rows.width, (a.min(b), a.max(b)));
        let (head, tail) = self.rows.cells.split_at_mut(high * w);
        head[low * w..][..w].swap_with_slice(&mut tail[..w]);
    }

    /// Double the table (sixteen slots at first) and place every row again
    /// by the hash its slot keeps.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(16);
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
                self.sum += reader.number(v).and_then(|x| x.as_double()).unwrap_or(0.0);
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
        // Each group's aggregates, resolved; the reader is gone before the
        // new values are interned.
        let kept: Vec<(usize, Vec<Value>)> = {
            let reader = ConstReader::new();
            let pass = |g: usize| {
                let accs = self.accs[g * n..(g + 1) * n].iter().zip(&self.funs);
                let out: Vec<Value> = accs.map(|(a, f)| a.finish(*f, &reader)).collect();
                let key = &self.keys.rows.cells[g * w..(g + 1) * w];
                let cell = |c: usize| match c.checked_sub(w) {
                    Some(a) => out.get(a),
                    None => key.get(c).map(|id| reader.get(*id)),
                };
                let holds =
                    |(c, op, v): &(usize, CmpOp, Value)| cell(*c).is_some_and(|x| op.eval(x, v));
                having.iter().all(holds).then_some((g, out))
            };
            (0..len).filter_map(pass).collect()
        };
        let mut ids = ConstId::intern_all(kept.iter().flat_map(|(_, out)| out)).into_iter();
        let mut rows = IdRows::empty(w + n);
        for (g, _) in &kept {
            let key = self.keys.rows.cells[g * w..(g + 1) * w].iter().copied();
            rows.push(key.chain(ids.by_ref().take(n)));
        }
        rows
    }
}

/// What a store returns of the rows it selected and projected: the groups
/// of `group` over the distinct rows, else each row once when `distinct`,
/// else every row.
pub fn answer(rows: IdRows, distinct: bool, group: Option<&GroupBy>) -> IdRows {
    if !distinct && group.is_none() {
        return rows;
    }
    let mut seen = Distinct::new(rows.width);
    for row in rows.rows() {
        seen.keep(row.iter().copied());
    }
    let Some(g) = group else {
        return seen.into_rows();
    };
    let mut groups = Groups::new(g.keys, g.aggs.iter().map(|(f, _)| *f).collect());
    {
        let reader = ConstReader::new();
        seen.rows().rows().for_each(|row| {
            let args = g.aggs.iter().map(|(_, c)| row[*c]);
            groups.add(row[..g.keys].iter().copied(), args, &reader)
        });
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
