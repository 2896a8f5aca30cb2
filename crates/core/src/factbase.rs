//! The fact base: the registered datasets' pivot facts, which every
//! fragment's view is evaluated over — in full by a first fill, through a
//! batch's changed facts and with its head fixed by the write path
//! ([`crate::dml`]). Each relation is one [`Bag`]: its facts as interned
//! rows, each with the number of dataset rows encoding it, posted per
//! column. Every view is evaluated over them through its compiled plan
//! ([`ViewPlan`]), whose atom orders come from the one orderer
//! ([`spj::order`]), once per fill or once per batch: a fill is the
//! select-project-join the relational store answers its queries with
//! ([`spj::join`]), a batch's delta and derivation counts a depth-first
//! search of the fact base's own ([`Walk`]), which can stop at a count. The
//! oracle (`Estocada::oracle_eval`) is a nested loop of its own over the
//! same relations, so it stays independent of the plans it checks.
//!
//! The pivot model has set semantics, but a dataset table is a bag: two
//! rows can encode one fact (a duplicated row, or two rows sharing a
//! `{table}_Terms` fact). So every fact carries the number of dataset rows
//! encoding it, counted while its dataset is staged; a write removes a
//! fact only when its count reaches zero and adds one only when its count
//! leaves zero. The fact base is thus the one copy of every registered
//! relational table: its rows are its facts, each repeated by its count.
//!
//! A batch's semi-naive strata come from the batch (counting, Gupta, Mumick
//! & Subrahmanian, SIGMOD 1993). The facts whose count reaches zero move to
//! the tail of their relations: Old is the prefix and New that tail. They
//! are dropped, and the facts whose count leaves zero are appended: Old is
//! now the survivors and New the appended suffix. Any is every row in both
//! phases.

use crate::dataset::{Dataset, TableData};
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::kernel::{values_of, Distinct, IdRows};
use estocada_pivot::spj::{self, Cell, Scan};
use estocada_pivot::{Bag, ConstId, ConstReader, Cq, Fact, IdGen, Symbol, Term, Value, Var};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::ops::Range;

/// A head row of a view, resolved (the oracle's rows).
type Row = Vec<Value>;
/// Per view relation, the head rows crossing so far, each once, and each
/// one's net sign (−1 leaving / +1 entering its store).
type Crossings = FastMap<Symbol, (Distinct, Vec<i64>)>;
/// Per view relation, the head rows that leave its store and those that
/// enter it, netted.
type RowDeltas = FastMap<Symbol, (IdRows, IdRows)>;
/// Per relation a phase changes, the position of its first New row.
type Fresh = FastMap<Symbol, usize>;

/// The staged facts of every registered dataset, with their row counts.
pub(crate) struct FactBase {
    relations: FastMap<Symbol, Bag>,
    /// Document node ids, continued across registrations.
    ids: IdGen,
}

impl FactBase {
    /// A fact base over no dataset.
    pub(crate) fn new() -> FactBase {
        FactBase {
            relations: FastMap::default(),
            ids: IdGen::starting_at(1_000_000),
        }
    }

    /// Stage `ds`'s pivot facts, counting the rows behind each.
    pub(crate) fn stage(&mut self, ds: &Dataset) {
        let facts = ds.pivot_facts(&mut self.ids);
        let cells = ConstId::intern_all(facts.iter().flat_map(|f| &f.args));
        let mut at = 0;
        for f in &facts {
            self.add(f.pred, &cells[at..at + f.args.len()], 1);
            at += f.args.len();
        }
    }

    /// `rows` more dataset rows encode `pred(cells)`; returns its position.
    fn add(&mut self, pred: Symbol, cells: &[ConstId], rows: u64) -> usize {
        let relation = self.relations.entry(pred);
        let relation = relation.or_insert_with(|| Bag::new(cells.len()));
        relation.add(cells.iter().copied(), rows)
    }

    /// The relation `pred`, if it holds facts `width` cells wide.
    fn relation(&self, pred: Symbol, width: usize) -> Option<&Bag> {
        let relation = self.relations.get(&pred)?;
        (relation.rows().width == width).then_some(relation)
    }

    /// Number of facts of `pred`.
    pub(crate) fn count(&self, pred: Symbol) -> u64 {
        self.relations.get(&pred).map_or(0, |r| r.len() as u64)
    }

    /// The rows of table `t`: each fact, repeated by its count, in position
    /// order (the order of staging until a write removes a fact, whose
    /// place the last fact then takes).
    pub(crate) fn rows(&self, t: &TableData) -> IdRows {
        let width = t.encoding.columns.len();
        let mut out = IdRows::empty(width);
        let held = self.relation(t.encoding.relation, width).into_iter();
        for (row, n) in held.flat_map(|r| r.rows().rows().zip(r.counts())) {
            (0..*n).for_each(|_| out.push(row.iter().copied()));
        }
        out
    }

    /// The rows of table `t` agreeing with `row` at `columns`, in the order
    /// of [`FactBase::rows`], through the first column's postings.
    pub(crate) fn rows_like(&self, t: &TableData, columns: &[usize], row: &[Value]) -> Vec<Row> {
        let key: Option<Vec<(usize, ConstId)>> = {
            let reader = ConstReader::new();
            let cell = |c: &usize| Some((*c, reader.lookup(row.get(*c)?)?));
            columns.iter().map(cell).collect()
        };
        let width = t.encoding.columns.len();
        let (Some(key), Some(relation)) = (key, self.relation(t.encoding.relation, width)) else {
            return Vec::new();
        };
        let Some(&(first, id)) = key.first() else {
            return Vec::new();
        };
        let rows = relation.rows();
        let agrees = |at: &usize| key.iter().all(|(c, id)| rows[*at][*c] == *id);
        let held = relation.posted(first, id).iter().map(|at| *at as usize);
        let copies = |at| std::iter::repeat_n(&rows[at], relation.counts()[at] as usize);
        values_of(held.filter(agrees).flat_map(copies))
    }

    /// `view` evaluated in full by its compiled plan: its distinct head
    /// rows, first-seen, as interned cells.
    pub(crate) fn evaluate(&self, view: &Cq) -> IdRows {
        ViewPlan::compile(view, self).fill(self)
    }

    /// `cq` evaluated by a backtracking nested loop in body order, the
    /// oracle the compiled plans are checked against: an atom's candidates
    /// are the facts posted under a constant or a bound variable of it, or
    /// its whole relation. Its distinct head rows, in no particular order.
    pub(crate) fn oracle(&self, cq: &Cq) -> Vec<Row> {
        let arg = |t: &Term| match t {
            Term::Const(v) => Ok(ConstId::intern(v)),
            Term::Var(v) => Err(*v),
        };
        let args = |ts: &[Term]| ts.iter().map(arg).collect::<Vec<_>>();
        let body: Vec<_> = cq.body.iter().map(|a| (a.pred, args(&a.args))).collect();
        let head = args(&cq.head);
        let (mut rows, mut binding) = (FastSet::default(), FastMap::default());
        self.nested(&body, &mut binding, &mut Vec::new(), &mut |binding| {
            let cell = |a: &Arg| a.or_else(|v| binding.get(&v).copied().ok_or(()));
            // A head variable the body does not bind gives no row.
            if let Ok(row) = head.iter().map(cell).collect::<Result<Vec<ConstId>, ()>>() {
                rows.insert(row);
            }
        });
        values_of(rows.iter().map(Vec::as_slice))
    }

    /// Every extension of `binding` matching `body`'s atoms, in order.
    fn nested(
        &self,
        body: &[(Symbol, Vec<Arg>)],
        binding: &mut FastMap<Var, ConstId>,
        trail: &mut Vec<Var>,
        visit: &mut dyn FnMut(&FastMap<Var, ConstId>),
    ) {
        let Some(((pred, args), rest)) = body.split_first() else {
            return visit(binding);
        };
        let Some(relation) = self.relation(*pred, args.len()) else {
            return;
        };
        let known = args.iter().enumerate().find_map(|(at, a)| match *a {
            Ok(id) => Some((at, id)),
            Err(v) => Some((at, *binding.get(&v)?)),
        });
        let (posted, every) = match known {
            Some((at, id)) => (relation.posted(at, id), 0..0),
            None => (&[][..], 0..relation.len()),
        };
        for at in posted.iter().map(|at| *at as usize).chain(every) {
            let mark = trail.len();
            let fits = args
                .iter()
                .zip(&relation.rows()[at])
                .all(|(a, id)| match *a {
                    Ok(constant) => constant == *id,
                    Err(v) => {
                        *binding.entry(v).or_insert_with(|| {
                            trail.push(v);
                            *id
                        }) == *id
                    }
                });
            if fits {
                self.nested(rest, binding, trail, visit);
            }
            for v in trail.drain(mark..) {
                binding.remove(&v);
            }
        }
    }

    /// Apply a batch's netted fact delta — `(fact, n)`: `n` more (fewer)
    /// dataset rows encode the fact — and return, per relation of `views`,
    /// the head rows that leave their store and those that enter it, a row
    /// that leaves and re-enters in neither. Facts whose count reaches zero
    /// go in one phase of the delta chase, then facts whose count leaves
    /// zero come in another. Each view reading a changed relation is
    /// compiled once for both. A fact whose count would go below zero rejects
    /// the batch before anything changes (or is interned: only new facts are).
    pub(crate) fn apply(
        &mut self,
        delta: Vec<(Fact, i64)>,
        views: &[(Symbol, &Cq)],
    ) -> Result<RowDeltas, Fact> {
        let mut found = Vec::with_capacity(delta.len());
        {
            let reader = ConstReader::new();
            for (fact, n) in delta {
                let cells: Option<Vec<ConstId>> =
                    fact.args.iter().map(|v| reader.lookup(v)).collect();
                let relation = self.relation(fact.pred, fact.args.len());
                let at = relation.zip(cells).and_then(|(r, cells)| r.find(&cells));
                let held = relation.zip(at).map_or(0, |(r, at)| r.counts()[at]);
                if held as i64 + n < 0 {
                    return Err(fact);
                }
                found.push((fact, at, n));
            }
        }
        let mut born = Vec::new();
        let mut doomed: FastMap<Symbol, Vec<usize>> = FastMap::default();
        for (fact, at, n) in found {
            match (at, self.relations.get_mut(&fact.pred)) {
                (Some(at), Some(relation)) => {
                    let held = &mut relation.counts_mut()[at];
                    *held = held.saturating_add_signed(n);
                    if *held == 0 {
                        doomed.entry(fact.pred).or_default().push(at);
                    }
                }
                _ => born.push((fact, n as u64)),
            }
        }
        let changed: FastSet<Symbol> = doomed
            .keys()
            .copied()
            .chain(born.iter().map(|f| f.0.pred))
            .collect();
        let reads_changed =
            |(_, view): &&(Symbol, &Cq)| view.body.iter().any(|a| changed.contains(&a.pred));
        let compile = |(name, view): &(Symbol, &Cq)| (*name, ViewPlan::compile(view, self));
        let plans: Vec<_> = views.iter().filter(reads_changed).map(compile).collect();
        let mut out = Crossings::default();
        let gone = self.move_to_tail(&doomed);
        self.crossings(&plans, &gone, -1, &mut out);
        for (pred, first) in &gone {
            if let Some(relation) = self.relations.get_mut(pred) {
                relation.remove(*first..relation.len());
            }
        }
        let mut fresh = Fresh::default();
        for (fact, rows) in born {
            let at = self.add(fact.pred, &ConstId::intern_all(&fact.args), rows);
            fresh.entry(fact.pred).or_insert(at);
        }
        self.crossings(&plans, &fresh, 1, &mut out);
        let split = |(name, (rows, net)): (Symbol, (Distinct, Vec<i64>))| {
            let rows = rows.into_rows();
            let (mut gone, mut born) = (IdRows::empty(rows.width), IdRows::empty(rows.width));
            for (row, n) in rows.rows().zip(net) {
                match n.cmp(&0) {
                    Ordering::Less => gone.push(row.iter().copied()),
                    Ordering::Greater => born.push(row.iter().copied()),
                    Ordering::Equal => {}
                }
            }
            (name, (gone, born))
        };
        Ok(out.into_iter().map(split).collect())
    }

    /// Move the rows at `doomed` (per relation, distinct positions, each
    /// counted zero) to the tail of their relations, each swapped in place
    /// with a surviving row of that tail; returns where each tail starts.
    fn move_to_tail(&mut self, doomed: &FastMap<Symbol, Vec<usize>>) -> Fresh {
        let mut tails = Fresh::default();
        for (pred, at) in doomed {
            let Some(relation) = self.relations.get_mut(pred) else {
                continue;
            };
            let tail = relation.len() - at.len();
            let mut at = at.clone();
            at.sort_unstable();
            let ahead = at.iter().copied().take_while(|p| *p < tail);
            let survivors = (tail..relation.len()).filter(|p| at.binary_search(p).is_err());
            for (gone, kept) in ahead.zip(survivors) {
                relation.swap(gone, kept);
            }
            tails.insert(*pred, tail);
        }
        tails
    }

    /// One delta-chase phase over the New rows `fresh` marks: add `sign` to
    /// each head row of `plans` whose matches through them, each enumerated
    /// once, are all those with the head fixed to it. A view reading no
    /// changed relation is skipped.
    fn crossings(
        &self,
        plans: &[(Symbol, ViewPlan)],
        fresh: &Fresh,
        sign: i64,
        out: &mut Crossings,
    ) {
        let reads =
            |plan: &&(Symbol, ViewPlan)| plan.1.atoms.iter().any(|a| fresh.contains_key(&a.0));
        for (name, plan) in plans.iter().filter(reads) {
            let mut walk = Walk::new(self, plan);
            let Tally { rows, counts } = walk.through(fresh);
            let width = plan.head.len();
            let (crossed, net) = out
                .entry(*name)
                .or_insert_with(|| (Distinct::new(width), Vec::new()));
            for (row, n) in rows.rows().rows().zip(counts) {
                if walk.derivations(row, n + 1) == n {
                    let (at, new) = crossed.insert(row.iter().copied());
                    if new {
                        net.push(0);
                    }
                    net[at] += sign;
                }
            }
        }
    }
}

/// An oracle atom's argument: an interned constant, or a variable.
type Arg = Result<ConstId, Var>;

/// Sum signed deltas per key, in first-touch order; keys netting to zero
/// drop out before the fact base or any store is touched.
pub(crate) fn net_deltas<K: Clone + Eq + Hash>(
    deltas: impl IntoIterator<Item = (K, i64)>,
) -> Vec<(K, i64)> {
    let mut slot: FastMap<K, usize> = FastMap::default();
    let mut net: Vec<(K, i64)> = Vec::new();
    for (key, d) in deltas {
        match slot.entry(key) {
            Entry::Occupied(e) => net[*e.get()].1 += d,
            Entry::Vacant(e) => {
                net.push((e.key().clone(), d));
                e.insert(net.len() - 1);
            }
        }
    }
    net.retain(|(_, d)| *d != 0);
    net
}

/// A view's conjunctive query compiled against the fact base: variables as
/// dense slots, constants interned, and for each way the view is evaluated
/// an atom order fixed once ([`spj::order`]) — the fill's left-deep hash
/// join, a delta search anchored on each atom, and the search with the head
/// bound.
struct ViewPlan {
    atoms: Vec<(Symbol, Vec<Cell>)>,
    head: Vec<Cell>,
    slots: usize,
    /// Whether two matches can yield one head row: the head drops a body
    /// variable.
    dedup: bool,
    /// Whether every head variable occurs in the body (an unsafe view has
    /// no row).
    safe: bool,
    fill: Vec<usize>,
    /// Per atom, the order of a delta search anchored on it (it first).
    anchored: Vec<Vec<usize>>,
    /// The order of a search with the head bound.
    fixed: Vec<usize>,
}

impl ViewPlan {
    /// Compile `view` against the sizes of `base`'s relations.
    fn compile(view: &Cq, base: &FactBase) -> ViewPlan {
        let mut slot_of = FastMap::default();
        let cells = |ts: &[Term], slot_of: &mut _| ts.iter().map(|t| cell(t, slot_of)).collect();
        let atoms: Vec<(Symbol, Vec<Cell>)> = (view.body.iter())
            .map(|a| (a.pred, cells(&a.args, &mut slot_of)))
            .collect();
        let body_slots = slot_of.len();
        let head: Vec<Cell> = cells(&view.head, &mut slot_of);
        let slots = slot_of.len();
        let scans = scans(base, &atoms);
        let order = |first, bound| spj::order(&scans, first, bound);
        let mut bound = vec![false; slots];
        spj::slots(&head).for_each(|s| bound[s] = true);
        let (fill, fixed) = (order(None, vec![false; slots]), order(None, bound));
        let anchored = (0..atoms.len()).map(|a| order(Some(a), vec![false; slots]));
        ViewPlan {
            anchored: anchored.collect(),
            dedup: (0..body_slots).any(|s| !head.contains(&Cell::Slot(s))),
            safe: slots == body_slots,
            atoms,
            head,
            slots,
            fill,
            fixed,
        }
    }

    /// The view's distinct head rows, first-seen, as interned cells: the
    /// shared select-project-join ([`spj::join`]) in the fill's order, each
    /// match kept in a [`Distinct`] when the head drops a body variable and
    /// in plain rows otherwise.
    fn fill(&self, base: &FactBase) -> IdRows {
        let width = self.head.len();
        let (mut distinct, mut plain) = (Distinct::new(width), IdRows::empty(width));
        let scans = scans(base, &self.atoms);
        spj::join(&scans, &self.fill, &self.head, |row| match self.dedup {
            true => drop(distinct.keep(row.iter().copied())),
            false => plain.push(row.iter().copied()),
        });
        if self.dedup {
            distinct.into_rows()
        } else {
            plain
        }
    }
}

/// The scans of `atoms` over `base`'s relations: no table where the
/// relation holds no fact of an atom's width.
fn scans<'a>(base: &'a FactBase, atoms: &'a [(Symbol, Vec<Cell>)]) -> Vec<Scan<'a, Bag>> {
    let scan = |(pred, cells): &'a (Symbol, Vec<Cell>)| Scan {
        table: base.relation(*pred, cells.len()),
        cells,
        within: None,
    };
    atoms.iter().map(scan).collect()
}

/// The cell of `t`, numbering a new variable's slot in `slot_of`.
fn cell(t: &Term, slot_of: &mut FastMap<Var, usize>) -> Cell {
    match t {
        Term::Const(v) => Cell::Const(ConstId::intern(v)),
        Term::Var(v) => {
            let next = slot_of.len();
            Cell::Slot(*slot_of.entry(*v).or_insert(next))
        }
    }
}

/// Distinct head rows with the number of matches reaching each, in
/// first-reached order.
struct Tally {
    rows: Distinct,
    counts: Vec<usize>,
}

/// A depth-first search of one compiled view over a fixed atom order,
/// binding slots in place: the delta search and the head-fixed derivation
/// count. Its buffers are reused from one search to the next.
struct Walk<'a> {
    plan: &'a ViewPlan,
    scans: Vec<Scan<'a, Bag>>,
    /// Per atom, the positions of the rows it may match: its stratum.
    within: Vec<Range<usize>>,
    bound: Vec<Option<ConstId>>,
    trail: Vec<usize>,
}

impl<'a> Walk<'a> {
    fn new(base: &'a FactBase, plan: &'a ViewPlan) -> Walk<'a> {
        Walk {
            plan,
            scans: scans(base, &plan.atoms),
            within: vec![0..0; plan.atoms.len()],
            bound: vec![None; plan.slots],
            trail: Vec::new(),
        }
    }

    /// Every match through at least one New row of `fresh`, each once —
    /// one search anchored on each atom reading a changed relation: that
    /// atom matches New rows, the atoms before it only Old ones — tallied
    /// by head row.
    fn through(&mut self, fresh: &Fresh) -> Tally {
        let (rows, counts) = (Distinct::new(self.plan.head.len()), Vec::new());
        let mut tally = Tally { rows, counts };
        let plan = self.plan;
        // An unsafe view has no row to reach.
        let anchors = (0..plan.atoms.len()).filter(|_| plan.safe);
        for anchor in anchors {
            if !fresh.contains_key(&plan.atoms[anchor].0) {
                continue;
            }
            for (a, within) in self.within.iter_mut().enumerate() {
                let end = self.scans[a].table.map_or(0, Bag::len);
                let first = fresh.get(&plan.atoms[a].0).map_or(end, |f| (*f).min(end));
                *within = match a.cmp(&anchor) {
                    Ordering::Less => 0..first,
                    Ordering::Equal => first..end,
                    Ordering::Greater => 0..end,
                };
            }
            self.bound.fill(None);
            self.search(&plan.anchored[anchor], &mut |bound| {
                // A safe view's match binds every head slot.
                let cell = |c: &Cell| match *c {
                    Cell::Const(id) => Some(id),
                    Cell::Slot(s) => bound[s],
                };
                match tally.rows.insert(plan.head.iter().filter_map(cell)) {
                    (_, true) => tally.counts.push(1),
                    (at, false) => tally.counts[at] += 1,
                }
                true
            });
        }
        tally
    }

    /// The matches of the whole body with the head fixed to `row`, counted
    /// up to `limit`.
    fn derivations(&mut self, row: &[ConstId], limit: usize) -> usize {
        for (within, scan) in self.within.iter_mut().zip(&self.scans) {
            *within = 0..scan.table.map_or(0, Bag::len);
        }
        self.bound.fill(None);
        for (c, id) in self.plan.head.iter().zip(row) {
            let consistent = match *c {
                Cell::Const(constant) => constant == *id,
                Cell::Slot(s) => *self.bound[s].get_or_insert(*id) == *id,
            };
            if !consistent {
                return 0;
            }
        }
        let (plan, mut n) = (self.plan, 0);
        self.search(&plan.fixed, &mut |_| {
            n += 1;
            n < limit
        });
        n
    }

    /// Visit every extension of the bound slots matching `order`'s atoms
    /// in their strata; `visit` returns whether to go on. Returns `false`
    /// once stopped.
    fn search(
        &mut self,
        order: &[usize],
        visit: &mut dyn FnMut(&[Option<ConstId>]) -> bool,
    ) -> bool {
        let Some((&a, rest)) = order.split_first() else {
            return visit(&self.bound);
        };
        let (Some(relation), cells) = (self.scans[a].table, self.scans[a].cells) else {
            return true;
        };
        let (listed, every) = spj::candidates(relation, cells, &self.bound, self.within[a].clone());
        for at in listed.iter().map(|at| *at as usize).chain(every) {
            let mark = self.trail.len();
            let go_on = !self.bind(cells, &relation.rows()[at]) || self.search(rest, visit);
            for s in self.trail.drain(mark..) {
                self.bound[s] = None;
            }
            if !go_on {
                return false;
            }
        }
        true
    }

    /// Match an atom's `args` against a fact's cells — equal to its
    /// constants and to the bound slots — binding its free slots, each
    /// pushed on the trail for the caller to unwind.
    fn bind(&mut self, args: &[Cell], cells: &[ConstId]) -> bool {
        args.iter().zip(cells).all(|(c, id)| match *c {
            Cell::Const(constant) => constant == *id,
            Cell::Slot(s) => match self.bound[s] {
                Some(held) => held == *id,
                None => {
                    self.bound[s] = Some(*id);
                    self.trail.push(s);
                    true
                }
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_chase::testkit::{evaluate_view, fact_base};
    use estocada_chase::{find_homs, find_homs_delta, Elem, HomConfig};
    use estocada_pivot::spj::Indexed;
    use estocada_pivot::{Atom, Postings};

    /// A deterministic stream of choices.
    struct Dice(u64);

    impl Dice {
        fn roll(&mut self, n: usize) -> usize {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 33) as usize % n.max(1)
        }
    }

    const RELATIONS: [(&str, usize); 3] = [("R", 2), ("S", 2), ("T", 3)];

    /// A random fact over `RELATIONS`, cells from a domain of `domain`.
    fn random_fact(dice: &mut Dice, domain: usize) -> Fact {
        let (name, arity) = RELATIONS[dice.roll(RELATIONS.len())];
        let args = (0..arity).map(|_| Value::Int(dice.roll(domain) as i64));
        Fact::new(Symbol::intern(name), args.collect())
    }

    /// A random view of one to three atoms over `RELATIONS` (a few wider
    /// than the relation): variables from a pool of four (joins,
    /// self-joins, repeats, products), some constants, and a head of some body variables, in any order, repeated
    /// or not, with some constants. With `safe`, no head variable is
    /// missing from the body.
    fn random_view(dice: &mut Dice, safe: bool) -> Cq {
        let term = |dice: &mut Dice| match dice.roll(5) {
            0 => Term::constant(dice.roll(4) as i64),
            _ => Term::var(dice.roll(4) as u32),
        };
        let atoms = 1 + dice.roll(3);
        let body: Vec<Atom> = (0..atoms)
            .map(|_| {
                let (name, arity) = RELATIONS[dice.roll(RELATIONS.len())];
                // Now and then an atom wider than its relation's facts.
                let arity = arity + usize::from(dice.roll(12) == 0);
                Atom::new(
                    Symbol::intern(name),
                    (0..arity).map(|_| term(dice)).collect(),
                )
            })
            .collect();
        let vars: Vec<Term> = body
            .iter()
            .flat_map(|a| a.args.iter())
            .filter(|t| t.is_var())
            .cloned()
            .collect();
        let mut head: Vec<Term> = (0..dice.roll(4))
            .filter_map(|_| match dice.roll(4) {
                0 => Some(Term::constant(7)),
                _ => vars.get(dice.roll(vars.len())).cloned(),
            })
            .collect();
        if !safe && dice.roll(4) == 0 {
            head.push(Term::var(9));
        }
        Cq::new(Symbol::intern("V"), head, body)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    /// A fact base holding `facts`, each once per occurrence.
    fn base_of(facts: &[Fact]) -> FactBase {
        let mut base = FactBase::new();
        for f in facts {
            base.add(f.pred, &ConstId::intern_all(&f.args), 1);
        }
        base
    }

    /// The head rows of `view`'s homomorphisms (the search's, one per
    /// homomorphism).
    fn images(view: &Cq, homs: &[estocada_chase::Hom]) -> Vec<Row> {
        let cell = |h: &estocada_chase::Hom, t: &Term| h.apply(t).and_then(|e| e.as_value());
        let row = |h| {
            view.head
                .iter()
                .map(|t| cell(h, t))
                .collect::<Option<Row>>()
        };
        homs.iter().filter_map(row).collect()
    }

    /// The compiled fill, and the oracle's nested loop too.
    #[test]
    fn compiled_fill_equals_the_homomorphism_search_on_random_views() {
        for seed in 0..400 {
            let mut dice = Dice(seed);
            let facts: Vec<Fact> = (0..6 + dice.roll(24))
                .map(|_| random_fact(&mut dice, 4))
                .collect();
            let (base, inst) = (base_of(&facts), fact_base(&facts));
            let view = random_view(&mut dice, false);
            let filled = base.evaluate(&view).to_values();
            let searched = evaluate_view(&inst, &view);
            assert_eq!(
                filled.len(),
                searched.len(),
                "seed {seed}: {view}: a row twice or missing"
            );
            assert_eq!(
                sorted(filled),
                sorted(searched.clone()),
                "seed {seed}: {view}"
            );
            let oracle = base.oracle(&view);
            assert_eq!(
                sorted(oracle),
                sorted(searched),
                "seed {seed}: {view}: oracle"
            );
        }
    }

    #[test]
    fn delta_tallies_and_derivation_counts_equal_the_homomorphism_search() {
        for seed in 0..400 {
            let mut dice = Dice(seed);
            let facts: Vec<Fact> = (0..6 + dice.roll(20))
                .map(|_| random_fact(&mut dice, 4))
                .collect();
            let mut base = base_of(&facts);
            // A delta as either phase sees it: some held facts moved to
            // their relation's tail (doomed), or new ones appended.
            let (mut doomed, mut new) = (FastMap::<Symbol, Vec<usize>>::default(), Vec::new());
            for _ in 0..1 + dice.roll(4) {
                let fact = if dice.roll(2) == 0 {
                    facts[dice.roll(facts.len())].clone()
                } else {
                    random_fact(&mut dice, 4)
                };
                let cells = ConstId::intern_all(&fact.args);
                match base
                    .relation(fact.pred, cells.len())
                    .and_then(|r| r.find(&cells))
                {
                    Some(at) if !doomed.get(&fact.pred).is_some_and(|d| d.contains(&at)) => {
                        doomed.entry(fact.pred).or_default().push(at);
                        new.push(fact);
                    }
                    None if !new.contains(&fact) => new.push(fact),
                    _ => {}
                }
            }
            let mut fresh = base.move_to_tail(&doomed);
            for f in new.iter().filter(|f| !facts.contains(f)) {
                let at = base.add(f.pred, &ConstId::intern_all(&f.args), 1);
                fresh.entry(f.pred).or_insert(at);
            }
            // The search's statement of the strata: Old facts first, New
            // ones after an epoch advance.
            let mut inst = fact_base(
                &facts
                    .iter()
                    .filter(|f| !new.contains(f))
                    .cloned()
                    .collect::<Vec<_>>(),
            );
            let epoch = inst.advance_epoch();
            for f in &new {
                inst.insert(f.pred, f.args.iter().map(Elem::constant).collect());
            }
            let delta = inst.delta_index(epoch);
            let view = random_view(&mut dice, true);
            let plan = ViewPlan::compile(&view, &base);
            let mut walk = Walk::new(&base, &plan);
            let through = walk.through(&fresh);
            let tallied: Vec<(Row, usize)> = through
                .rows
                .rows()
                .to_values()
                .into_iter()
                .zip(through.counts.iter().copied())
                .collect();
            let all = HomConfig { limit: usize::MAX };
            let none = FastMap::default();
            let searched = images(
                &view,
                &find_homs_delta(&inst, &view.body, &none, all, &delta),
            );
            let mut expected: Vec<(Row, usize)> = Vec::new();
            for row in net_deltas(searched.into_iter().map(|row| (row, 1))) {
                expected.push((row.0, row.1 as usize));
            }
            expected.sort();
            let mut got = tallied.clone();
            got.sort();
            assert_eq!(
                got, expected,
                "seed {seed}: {view}: matches through the delta"
            );
            for (row, ids) in tallied.iter().zip(through.rows.rows().rows()) {
                let fixed = view
                    .head
                    .iter()
                    .zip(&row.0)
                    .filter_map(|(t, v)| Some((t.as_var()?, Elem::constant(v))));
                let every = find_homs(&inst, &view.body, &fixed.collect(), all).len();
                for limit in [1, row.1 + 1, usize::MAX] {
                    assert_eq!(
                        walk.derivations(ids, limit),
                        every.min(limit),
                        "seed {seed}: {view}: derivations of {:?}",
                        row.0
                    );
                }
            }
        }
    }

    /// Each relation's postings list what a fresh build over its rows
    /// would, and its rows and counts are the distinct facts of `model`
    /// (a bag) with their multiplicities.
    fn assert_relations_match(base: &FactBase, model: &[Fact], what: &str) {
        for (pred, relation) in &base.relations {
            let rows = relation.rows().to_values();
            let held: Vec<&Fact> = model.iter().filter(|f| f.pred == *pred).collect();
            let mut facts: Vec<&Vec<Value>> = held.iter().map(|f| &f.args).collect();
            facts.sort();
            facts.dedup();
            assert_eq!(rows.len(), facts.len(), "{what}: {pred}: distinct facts");
            for (row, n) in rows.iter().zip(relation.counts()) {
                let recount = held.iter().filter(|f| f.args == *row).count() as u64;
                assert_eq!(
                    (*n, *n > 0),
                    (recount, true),
                    "{what}: {pred}{row:?}: count"
                );
            }
            for column in 0..relation.rows().width {
                let mut cells: Vec<ConstId> = relation.rows().rows().map(|r| r[column]).collect();
                cells.sort();
                cells.dedup();
                assert_eq!(
                    relation.postings(column).map_or(0, Postings::len),
                    cells.len(),
                    "{what}: {pred}.{column}"
                );
                for id in (0..6).map(ConstId::of) {
                    let fresh: Vec<u32> = (0..relation.len() as u32)
                        .filter(|at| relation.rows()[*at as usize][column] == id)
                        .collect();
                    assert_eq!(
                        relation.posted(column, id),
                        fresh,
                        "{what}: {pred}.{column}"
                    );
                }
            }
        }
    }

    #[test]
    fn netted_batches_keep_postings_counts_views_and_crossings_exact() {
        let mut returned = 0;
        for seed in 0..8 {
            let mut dice = Dice(seed);
            // A small domain, so facts repeat and their counts cross zero.
            let mut model: Vec<Fact> = (0..30).map(|_| random_fact(&mut dice, 3)).collect();
            let mut base = base_of(&model);
            let views: Vec<(Symbol, Cq)> = (0..4)
                .map(|i| {
                    (
                        Symbol::intern(&format!("V{i}")),
                        random_view(&mut dice, true),
                    )
                })
                .collect();
            let named: Vec<(Symbol, &Cq)> = views.iter().map(|(n, v)| (*n, v)).collect();
            let mut left: Vec<Fact> = Vec::new();
            for batch in 0..25 {
                let what = format!("seed {seed}, batch {batch}");
                let mut changes: Vec<(Fact, i64)> = Vec::new();
                let mut after = model.clone();
                for _ in 0..1 + dice.roll(5) {
                    match dice.roll(4) {
                        // Every copy of a held fact out: its count reaches zero.
                        0 if !after.is_empty() => {
                            let fact = after[dice.roll(after.len())].clone();
                            let copies = after.iter().filter(|f| **f == fact).count();
                            after.retain(|f| *f != fact);
                            changes.push((fact.clone(), -(copies as i64)));
                            left.push(fact);
                        }
                        // One copy out.
                        1 if !after.is_empty() => {
                            let fact = after.swap_remove(dice.roll(after.len()));
                            changes.push((fact, -1));
                        }
                        // A fact that left some batch before comes back.
                        2 if !left.is_empty() => {
                            let fact = left.swap_remove(dice.roll(left.len()));
                            returned += usize::from(!after.contains(&fact));
                            after.push(fact.clone());
                            changes.push((fact, 1));
                        }
                        _ => {
                            let fact = random_fact(&mut dice, 3);
                            after.push(fact.clone());
                            changes.push((fact, 1));
                        }
                    }
                }
                let (before, later) = (fact_base(&model), fact_base(&after));
                let crossed = base
                    .apply(net_deltas(changes), &named)
                    .unwrap_or_else(|f| panic!("{what}: {f:?} rejected"));
                model = after;
                assert_relations_match(&base, &model, &what);
                for (name, view) in &views {
                    let (was, is) = (evaluate_view(&before, view), evaluate_view(&later, view));
                    let evaluated = base.evaluate(view).to_values();
                    assert_eq!(sorted(evaluated), sorted(is.clone()), "{what}: {view}");
                    let minus = |a: &[Row], b: &[Row]| {
                        sorted(a.iter().filter(|r| !b.contains(r)).cloned().collect())
                    };
                    let (gone, born) = crossed.get(name).map_or((vec![], vec![]), |(g, b)| {
                        (sorted(g.to_values()), sorted(b.to_values()))
                    });
                    assert_eq!(gone, minus(&was, &is), "{what}: {view}: rows leaving");
                    assert_eq!(born, minus(&is, &was), "{what}: {view}: rows entering");
                }
            }
        }
        assert!(returned > 0, "no fact left and came back");
    }
}
