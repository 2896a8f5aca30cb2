//! The one select-project-join over interned tables: the fact base's view
//! fills and the relational store's queries. A query is a list of scans —
//! a table whose rows must match one [`Cell`] per column: an interned
//! constant, or a variable's slot, shared by every column the query equates
//! — and a head of cells. [`order`] fixes the scans' order greedily;
//! [`join`] runs it as a left-deep hash join ([`JoinTable`]) whose build
//! side is each scan's matching rows, cut to those holding a key of the
//! rows so far when that is smaller, and whose last step hands each match,
//! projected on the head, to its caller. A row so far carries only the
//! slots a later scan or the head reads.

use crate::hash::FastSet;
use crate::kernel::{pack_key, IdRows, JoinTable};
use crate::multiset::Postings;
use crate::ConstId;
use std::ops::Range;

/// A cell of a scan or a head: an interned constant, or a variable's slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cell {
    /// This constant.
    Const(ConstId),
    /// Any value, the same wherever the slot occurs.
    Slot(usize),
}

/// The slots of `cells`, in order.
pub fn slots(cells: &[Cell]) -> impl Iterator<Item = usize> + '_ {
    cells.iter().filter_map(|c| match *c {
        Cell::Slot(s) => Some(s),
        Cell::Const(_) => None,
    })
}

/// A table a join reads: its rows by position and, per indexed column, the
/// positions of the rows holding each cell.
pub trait Indexed {
    /// The rows, by position.
    fn rows(&self) -> &IdRows;
    /// The postings of `column`, if it is indexed.
    fn postings(&self, column: usize) -> Option<&Postings<ConstId, u32>>;
}

/// One table of a join and the cells its rows must match.
pub struct Scan<'a, T> {
    /// The table; `None` when there is none to read, and then no match.
    pub table: Option<&'a T>,
    /// One cell per column.
    pub cells: &'a [Cell],
    /// The rows it may match, ascending, when a filter the cells do not
    /// state chose them; `None`: every row.
    pub within: Option<&'a [u32]>,
}

impl<T: Indexed> Scan<'_, T> {
    /// The rows it is expected to match: those `within`, else those of its
    /// most selective indexed constant, else every row.
    fn size(&self) -> usize {
        let Some(table) = self.table else { return 0 };
        let posted = |(at, c): (usize, &Cell)| match *c {
            Cell::Const(id) => Some(table.postings(at)?.get(&id).len()),
            Cell::Slot(_) => None,
        };
        let constants = self.cells.iter().enumerate().filter_map(posted);
        let most = || constants.min().unwrap_or(table.rows().len);
        self.within.map_or_else(most, <[u32]>::len)
    }

    /// The rows it is expected to match per value at `column`.
    fn fanout(&self, column: usize) -> usize {
        let Some(table) = self.table else { return 0 };
        let len = table.rows().len;
        len / table.postings(column).map_or(len, Postings::len).max(1)
    }
}

/// An order of `scans`, greedy: `first` if given, then repeatedly the scan
/// expected to match the fewest rows per row so far — through a slot
/// `bound` or an earlier scan binds (its rows over the column's distinct
/// cells; a column without postings counts as unique), or, bound nowhere,
/// its size; ties to the earlier scan. `bound` has a flag per slot.
pub fn order<T: Indexed>(
    scans: &[Scan<T>],
    first: Option<usize>,
    mut bound: Vec<bool>,
) -> Vec<usize> {
    let sizes: Vec<usize> = scans.iter().map(Scan::size).collect();
    let mut order: Vec<usize> = first.into_iter().collect();
    let mut left: Vec<usize> = (0..scans.len()).filter(|a| Some(*a) != first).collect();
    loop {
        for &a in &order[order.len().saturating_sub(1)..] {
            slots(scans[a].cells).for_each(|s| bound[s] = true);
        }
        let fanout = |a: &usize| {
            let scan = &scans[*a];
            let through = |(at, c): (usize, &Cell)| match *c {
                Cell::Slot(s) if bound[s] => Some(scan.fanout(at)),
                _ => None,
            };
            let through = scan.cells.iter().enumerate().filter_map(through);
            through.chain([sizes[*a]]).min().unwrap_or(0)
        };
        let Some(at) = (0..left.len()).min_by_key(|i| fanout(&left[*i])) else {
            return order;
        };
        order.push(left.remove(at));
    }
}

/// One step of a join: the rows so far joined with the rows of the scan
/// the order puts there.
#[derive(Default)]
struct Step {
    /// `(column, constant)` of each constant of the scan.
    constants: Vec<(usize, ConstId)>,
    /// `(column, row column)` pairs the join matches on.
    keys: Vec<(usize, usize)>,
    /// `(column, earlier column)` of a slot the scan repeats.
    repeats: Vec<(usize, usize)>,
    /// The columns of the slots the scan binds first and a later scan or
    /// the head reads, appended to a row.
    fresh: Vec<usize>,
}

/// The steps of `scans` in `order`, and the head over the last rows'
/// columns — `None` when a head slot is bound by no scan.
fn compile<T>(scans: &[Scan<T>], order: &[usize], head: &[Cell]) -> Option<(Vec<Step>, Vec<Cell>)> {
    let every = scans.iter().flat_map(|s| slots(s.cells)).chain(slots(head));
    let mut last_read = vec![0; every.max().map_or(0, |s| s + 1)];
    for (i, a) in order.iter().enumerate() {
        slots(scans[*a].cells).for_each(|s| last_read[s] = i);
    }
    slots(head).for_each(|s| last_read[s] = usize::MAX);
    let mut column: Vec<Option<usize>> = vec![None; last_read.len()];
    let (mut steps, mut width) = (Vec::with_capacity(order.len()), 0);
    for (i, &a) in order.iter().enumerate() {
        let mut step = Step::default();
        for (at, c) in scans[a].cells.iter().enumerate() {
            let s = match *c {
                Cell::Slot(s) => s,
                Cell::Const(id) => {
                    step.constants.push((at, id));
                    continue;
                }
            };
            let earlier = scans[a].cells[..at].iter().position(|e| e == c);
            match (column[s], earlier) {
                (_, Some(first)) => step.repeats.push((at, first)),
                (Some(col), None) => step.keys.push((at, col)),
                (None, None) if last_read[s] > i => {
                    column[s] = Some(width + step.fresh.len());
                    step.fresh.push(at);
                }
                (None, None) => {}
            }
        }
        width += step.fresh.len();
        steps.push(step);
    }
    let project = |c: &Cell| match *c {
        Cell::Slot(s) => column[s].map(Cell::Slot),
        constant => Some(constant),
    };
    Some((steps, head.iter().map(project).collect::<Option<_>>()?))
}

/// Hand `emit` each match of `scans` joined in `order` (each scan once),
/// projected on `head` as it is found, so no join holds its widest rows:
/// row so far by row so far, each with the scan's rows ascending. A scan's
/// rows are those `within`, else its most selective indexed constant's,
/// else every row — or those holding a key of the rows so far when fewer
/// (a semi-join). No match when a scan has no table or a head slot is
/// bound by no scan.
pub fn join<T: Indexed>(
    scans: &[Scan<T>],
    order: &[usize],
    head: &[Cell],
    mut emit: impl FnMut(&[ConstId]),
) {
    let tables = scans.iter().all(|s| s.table.is_some());
    let (Some((steps, projection)), true) = (compile(scans, order, head), tables) else {
        return;
    };
    let mut out = Vec::with_capacity(head.len());
    let mut steps = order.iter().map(|a| &scans[*a]).zip(&steps);
    let Some((scan, last)) = steps.next_back() else {
        // No scan: the one empty match.
        out.extend(project(&projection, &[], &[], &[]));
        return emit(&out);
    };
    let mut rows = IdRows::empty(0);
    rows.push([]);
    for (scan, step) in steps {
        let mut joined = IdRows::empty(rows.width + step.fresh.len());
        join_step(scan, step, &rows, |row, fact| {
            let fresh = step.fresh.iter().map(|p| fact[*p]);
            joined.push(row.iter().copied().chain(fresh));
        });
        if joined.len == 0 {
            return;
        }
        rows = joined;
    }
    join_step(scan, last, &rows, |row, fact| {
        out.clear();
        out.extend(project(&projection, row, fact, &last.fresh));
        emit(&out);
    });
}

/// One join step: `emit(row, fact)` for each of `rows`, in order, and each
/// row of `scan`'s table it matches, ascending.
fn join_step<T: Indexed>(
    scan: &Scan<T>,
    step: &Step,
    rows: &IdRows,
    mut emit: impl FnMut(&[ConstId], &[ConstId]),
) {
    let Some(table) = scan.table else { return };
    let (listed, every) = match scan.within {
        Some(within) => (within, 0..0),
        None => candidates(table, scan.cells, &[], 0..table.rows().len),
    };
    let cut = semi_join(scan, step, rows, listed.len() + every.len());
    let (listed, every) = cut.as_ref().map_or((listed, every), |cut| (cut, 0..0));
    // A plain filter rather than a binding search, which costs more per
    // row: a scan without a constant reads every row of its table.
    let (facts, width) = (table.rows(), step.keys.len());
    let fits = |at: &u32| {
        let fact = &facts[*at as usize];
        let same = |(at, first): &(usize, usize)| fact[*at] == fact[*first];
        step.constants.iter().all(|(at, id)| fact[*at] == *id) && step.repeats.iter().all(same)
    };
    let build = listed.iter().copied().chain(every.map(|at| at as u32));
    let build = build.filter(fits);
    if width == 0 {
        // A cross product: no key to hash.
        for row in rows.rows() {
            build.clone().for_each(|at| emit(row, &facts[at as usize]));
        }
        return;
    }
    let build: Vec<u32> = build.collect();
    let fact_keys = build.iter().map(|at| {
        let fact = &facts[*at as usize];
        pack_key(step.keys.iter().map(|(at, _)| fact[*at]), width)
    });
    let index = JoinTable::build(fact_keys);
    for row in rows.rows() {
        let key = pack_key(step.keys.iter().map(|(_, col)| row[*col]), width);
        for &at in index.probe(&key) {
            emit(row, &facts[build[at as usize] as usize]);
        }
    }
}

/// The head cells, through `projection`, of a row `row` joined with `fact`
/// by the last step: a column past the row's is the fact's cell at the
/// column `fresh` gives it.
fn project<'a>(
    projection: &'a [Cell],
    row: &'a [ConstId],
    fact: &'a [ConstId],
    fresh: &'a [usize],
) -> impl Iterator<Item = ConstId> + 'a {
    projection.iter().map(|c| match *c {
        Cell::Const(id) => id,
        Cell::Slot(col) => match col.checked_sub(row.len()) {
            None => row[col],
            Some(at) => fact[fresh[at]],
        },
    })
}

/// The positions of `table`'s rows in `within` that `cells` can match,
/// ascending — a posting list, or a range: those posted under a constant
/// or a value `bound` binds (by slot) in an indexed column, through the
/// shortest such list, or every one.
pub fn candidates<'t, T: Indexed>(
    table: &'t T,
    cells: &[Cell],
    bound: &[Option<ConstId>],
    within: Range<usize>,
) -> (&'t [u32], Range<usize>) {
    let known = cells.iter().enumerate().filter_map(|(at, c)| {
        let id = match *c {
            Cell::Const(id) => id,
            Cell::Slot(s) => (*bound.get(s)?)?,
        };
        let list = table.postings(at)?.get(&id);
        let from = |end: usize| list.partition_point(|p| (*p as usize) < end);
        Some(&list[from(within.start)..from(within.end)])
    });
    match known.min_by_key(|list| list.len()) {
        Some(list) if list.len() < within.len() => (list, 0..0),
        _ => (&[], within),
    }
}

/// The positions of the rows of `scan`'s table (`within` it) holding, at
/// the first key column of `step` with postings, a value some of `rows`
/// holds there — ascending, as every posting list is — or `None` once they
/// would number `limit` or more.
fn semi_join<T: Indexed>(
    scan: &Scan<T>,
    step: &Step,
    rows: &IdRows,
    limit: usize,
) -> Option<Vec<u32>> {
    let (table, mut keys) = (scan.table?, step.keys.iter());
    let (posted, col) = keys.find_map(|(at, col)| Some((table.postings(*at)?, *col)))?;
    let values: FastSet<ConstId> = rows.rows().map(|row| row[col]).collect();
    let mut ids = Vec::new();
    for v in values {
        ids.extend_from_slice(posted.get(&v));
        if ids.len() >= limit {
            return None;
        }
    }
    ids.sort_unstable();
    if let Some(within) = scan.within {
        ids.retain(|at| within.binary_search(at).is_ok());
    }
    Some(ids)
}
