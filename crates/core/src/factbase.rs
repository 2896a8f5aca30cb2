//! The fact base: the registered datasets' pivot facts, which every
//! fragment's view is evaluated over — in full by a first fill, through a
//! batch's changed facts and with its head fixed by the write path
//! ([`crate::dml`]). This module alone holds the chase [`Instance`], and
//! evaluates every view over it through the view's compiled plan
//! ([`ViewPlan`]): a join over interned cells whose atom order is fixed
//! once per fill, or once per batch. The chase's homomorphism search
//! serves only the oracle ([`evaluate_view`], behind
//! `Estocada::oracle_eval`), which so stays independent of the plans it
//! checks.
//!
//! The pivot model has set semantics, but a dataset table is a bag: two
//! rows can encode one fact (a duplicated row, or two rows sharing a
//! `{table}_Terms` fact). So every fact carries the number of dataset rows
//! encoding it, counted while its dataset is staged; a write retracts a
//! fact only when its count reaches zero and inserts one only when its
//! count leaves zero. The fact base is thus the one copy of every registered
//! relational table: its rows are its facts, each repeated by its count.

use crate::dataset::{Dataset, TableData};
use estocada_chase::{find_homs, DeltaIndex, Elem, HomConfig, Instance};
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::kernel::{pack_key, Distinct, IdRows, JoinTable};
use estocada_pivot::{ConstId, ConstReader, Cq, Fact, IdGen, Symbol, Term, Value, Var};
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// A head row of a view, resolved (the oracle's rows).
type Row = Vec<Value>;
/// Per view relation, the head rows crossing so far, each once, and each
/// one's net sign (−1 leaving / +1 entering its store).
type Crossings = FastMap<Symbol, (Distinct, Vec<i64>)>;
/// Per view relation, the head rows that leave its store and those that
/// enter it, netted.
type RowDeltas = FastMap<Symbol, (IdRows, IdRows)>;

/// The staged facts of every registered dataset, with their row counts.
pub(crate) struct FactBase {
    facts: Instance,
    /// Fact id → dataset rows encoding the fact (zero once retracted).
    support: Vec<u64>,
    /// Document node ids, continued across registrations.
    ids: IdGen,
}

impl FactBase {
    /// A fact base over no dataset.
    pub(crate) fn new() -> FactBase {
        FactBase {
            facts: Instance::new(),
            support: Vec::new(),
            ids: IdGen::starting_at(1_000_000),
        }
    }

    /// Stage `ds`'s pivot facts, counting the rows behind each.
    pub(crate) fn stage(&mut self, ds: &Dataset) {
        for f in ds.pivot_facts(&mut self.ids) {
            self.insert(f.pred, elems(&f.args), 1);
        }
    }

    /// Insert `pred(args)`, encoded by `rows` more dataset rows.
    fn insert(&mut self, pred: Symbol, args: Vec<Elem>, rows: u64) {
        let id = self.facts.insert(pred, args).0 as usize;
        self.support.resize(self.support.len().max(id + 1), 0);
        self.support[id] += rows;
    }

    /// Number of facts of `pred`.
    pub(crate) fn count(&self, pred: Symbol) -> u64 {
        self.facts.pred_count(pred) as u64
    }

    /// The rows of table `t`: each fact, repeated by its count, in fact-id
    /// order.
    pub(crate) fn rows(&self, t: &TableData) -> IdRows {
        let mut out = IdRows::empty(t.encoding.columns.len());
        for &id in self.facts.pred_facts(t.encoding.relation) {
            let args = &self.facts.fact(id).args;
            for _ in 0..self.support[id as usize] {
                out.push(args.iter().filter_map(constant));
            }
        }
        out
    }

    /// The rows of table `t` agreeing with `row` at `columns`, in the order
    /// of [`FactBase::rows`], through the first column's postings.
    pub(crate) fn rows_like(&self, t: &TableData, columns: &[usize], row: &[Value]) -> Vec<Row> {
        let cell = |c: &usize| (*c, Elem::constant(&row[*c]));
        let key: Vec<(usize, Elem)> = columns.iter().map(cell).collect();
        let Some((first, at_first)) = key.first() else {
            return Vec::new();
        };
        let (mut out, pred) = (Vec::new(), t.encoding.relation);
        for &id in self.facts.probe(pred, *first as u32, at_first) {
            let args = &self.facts.fact(id).args;
            if key.iter().all(|(c, e)| args[*c] == *e) {
                let held: Row = args.iter().filter_map(Elem::as_value).collect();
                let copies = self.support[id as usize] as usize;
                out.extend(std::iter::repeat_n(held, copies));
            }
        }
        out
    }

    /// `view` evaluated in full by its compiled plan: its distinct head
    /// rows, first-seen, as interned cells.
    pub(crate) fn evaluate(&self, view: &Cq) -> IdRows {
        ViewPlan::compile(view, &self.facts).fill(&self.facts)
    }

    /// `cq` evaluated by the homomorphism search ([`evaluate_view`]): the
    /// oracle the compiled plans are checked against.
    pub(crate) fn oracle(&self, cq: &Cq) -> Vec<Row> {
        evaluate_view(&self.facts, cq)
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
        for (fact, n) in delta {
            let id = held_elems(&fact.args).and_then(|args| self.facts.find_fact(fact.pred, &args));
            if id.map_or(0, |id| self.support[id as usize]) as i64 + n < 0 {
                return Err(fact);
            }
            found.push((fact, id, n));
        }
        let (mut gone, mut born) = (Vec::new(), Vec::new());
        for (fact, id, n) in found {
            match id {
                Some(id) => {
                    let held = &mut self.support[id as usize];
                    *held = held.saturating_add_signed(n);
                    if *held == 0 {
                        gone.push(id);
                    }
                }
                None => born.push((fact.pred, elems(&fact.args), n as u64)),
            }
        }
        let gone_preds = gone.iter().map(|id| self.facts.fact(*id).pred);
        let changed: FastSet<Symbol> = gone_preds.chain(born.iter().map(|f| f.0)).collect();
        let reads_changed =
            |(_, view): &&(Symbol, &Cq)| view.body.iter().any(|a| changed.contains(&a.pred));
        let compile = |(name, view): &(Symbol, &Cq)| (*name, ViewPlan::compile(view, &self.facts));
        let plans: Vec<_> = views.iter().filter(reads_changed).map(compile).collect();
        let mut out = Crossings::default();
        let epoch = self.facts.advance_epoch();
        gone.iter().for_each(|id| self.facts.touch(*id));
        self.crossings(&plans, epoch, -1, &mut out);
        gone.into_iter().for_each(|id| self.facts.retract(id));
        let epoch = self.facts.advance_epoch();
        for (pred, args, rows) in born {
            self.insert(pred, args, rows);
        }
        self.crossings(&plans, epoch, 1, &mut out);
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

    /// One delta-chase phase over the facts stamped at `epoch` (doomed ones
    /// still in, new ones already in): add `sign` to each head row of
    /// `plans` whose matches through them, each enumerated once, are all
    /// those with the head fixed to it. The delta index comes from the
    /// stamp log; a view reading no changed relation is skipped.
    fn crossings(&self, plans: &[(Symbol, ViewPlan)], epoch: u64, sign: i64, out: &mut Crossings) {
        let delta = self.facts.delta_index(epoch);
        for (name, plan) in plans.iter().filter(|(_, plan)| plan.reads(&delta)) {
            let mut walk = Walk::new(&self.facts, plan);
            let Tally { rows, counts } = walk.through(&delta);
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

/// Interned arguments of a ground fact.
fn elems(args: &[Value]) -> Vec<Elem> {
    args.iter().map(Elem::constant).collect()
}

/// `args` looked up, never interned (`None`: one was never seen).
fn held_elems(args: &[Value]) -> Option<Vec<Elem>> {
    let reader = ConstReader::new();
    args.iter()
        .map(|v| reader.lookup(v).map(Elem::Const))
        .collect()
}

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

/// A cell of a compiled atom or head: an interned constant, or a
/// variable's dense slot (in a fill's projection, a column of its rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cell {
    Const(ConstId),
    Slot(usize),
}

/// A body atom of a compiled view.
struct PlanAtom {
    pred: Symbol,
    args: Vec<Cell>,
    /// Its facts after the constant filters, bounded by the shortest
    /// posting list of one of its constants.
    size: usize,
}

/// One step of a fill: the rows so far joined with one atom's facts.
struct FillStep {
    atom: usize,
    /// `(fact position, row column)` pairs the join matches on.
    keys: Vec<(usize, usize)>,
    /// `(fact position, earlier position)` of a variable the atom repeats.
    repeats: Vec<(usize, usize)>,
    /// Positions of the variables the atom binds first, appended to a row.
    fresh: Vec<usize>,
}

/// Which facts an atom of a delta search may match: the semi-naive strata,
/// which enumerate a match through several changed facts once, at the
/// first atom matching one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stratum {
    /// Facts stamped before the delta.
    Old,
    /// The delta's facts.
    New,
    /// Any fact.
    Any,
}

/// A view's conjunctive query compiled against the fact base: variables as
/// dense slots, constants interned, and for each way the view is evaluated
/// an atom order fixed once from the atoms' sizes after their constant
/// filters — the fill's left-deep hash join, a delta search anchored on
/// each atom, and the search with the head bound.
struct ViewPlan {
    atoms: Vec<PlanAtom>,
    head: Vec<Cell>,
    slots: usize,
    /// Whether two matches can yield one head row: the head drops a body
    /// variable.
    dedup: bool,
    fill: Vec<FillStep>,
    /// The fill's head over its rows' columns; `None` when a head variable
    /// occurs in no atom (an unsafe view, which has no row).
    projection: Option<Vec<Cell>>,
    /// Per atom, the order of a delta search anchored on it (it first).
    anchored: Vec<Vec<usize>>,
    /// The order of a search with the head bound.
    fixed: Vec<usize>,
}

impl ViewPlan {
    /// Compile `view` against the sizes of `facts`' relations.
    fn compile(view: &Cq, facts: &Instance) -> ViewPlan {
        let mut slot_of = FastMap::default();
        let mut atoms = Vec::with_capacity(view.body.len());
        for a in &view.body {
            let args: Vec<Cell> = a.args.iter().map(|t| cell(t, &mut slot_of)).collect();
            let constants = args.iter().enumerate().filter_map(|(at, c)| match c {
                Cell::Const(id) => Some(facts.count_with(a.pred, at as u32, &Elem::Const(*id))),
                Cell::Slot(_) => None,
            });
            let size = constants.min().unwrap_or_else(|| facts.pred_count(a.pred));
            atoms.push(PlanAtom {
                pred: a.pred,
                args,
                size,
            });
        }
        let body_slots = slot_of.len();
        let head: Vec<Cell> = view.head.iter().map(|t| cell(t, &mut slot_of)).collect();
        let slots = slot_of.len();
        let dedup = (0..body_slots).any(|s| !head.contains(&Cell::Slot(s)));
        let mut plan = ViewPlan {
            atoms,
            head,
            slots,
            dedup,
            fill: Vec::new(),
            projection: None,
            anchored: Vec::new(),
            fixed: Vec::new(),
        };
        let fill_order = plan.order(facts, None, vec![false; slots]);
        plan.compile_fill(&fill_order);
        plan.anchored = (0..plan.atoms.len())
            .map(|a| plan.order(facts, Some(a), vec![false; slots]))
            .collect();
        let mut bound = vec![false; slots];
        plan.head
            .iter()
            .filter_map(|c| slot(*c))
            .for_each(|s| bound[s] = true);
        plan.fixed = plan.order(facts, None, bound);
        plan
    }

    /// An atom order, greedy: `first` if given, then repeatedly the atom
    /// expected to match the fewest facts per row so far — through a
    /// constant, a slot bound by then (the relation's facts over its
    /// distinct values there), or, bound nowhere, its size; ties to the
    /// earlier atom.
    fn order(&self, facts: &Instance, first: Option<usize>, mut bound: Vec<bool>) -> Vec<usize> {
        let mut order: Vec<usize> = first.into_iter().collect();
        let mut left: Vec<usize> = (0..self.atoms.len())
            .filter(|a| Some(*a) != first)
            .collect();
        loop {
            for &a in &order[order.len().saturating_sub(1)..] {
                self.atoms[a]
                    .args
                    .iter()
                    .filter_map(|c| slot(*c))
                    .for_each(|s| bound[s] = true);
            }
            let fanout = |a: &usize| {
                let atom = &self.atoms[*a];
                let through = atom.args.iter().enumerate().filter_map(|(at, c)| match c {
                    Cell::Slot(s) if bound[*s] => {
                        let distinct = facts.distinct_at(atom.pred, at as u32).max(1);
                        Some(facts.pred_count(atom.pred) / distinct)
                    }
                    _ => None,
                });
                through.chain([atom.size]).min().unwrap_or(0)
            };
            let Some(at) = (0..left.len()).min_by_key(|i| fanout(&left[*i])) else {
                return order;
            };
            order.push(left.remove(at));
        }
    }

    /// The fill's steps over `order`, and its head over the last rows'
    /// columns.
    fn compile_fill(&mut self, order: &[usize]) {
        let mut column: Vec<Option<usize>> = vec![None; self.slots];
        let mut width = 0;
        for &a in order {
            let mut step = FillStep {
                atom: a,
                keys: Vec::new(),
                repeats: Vec::new(),
                fresh: Vec::new(),
            };
            for (at, c) in self.atoms[a].args.iter().enumerate() {
                let Cell::Slot(s) = *c else { continue };
                let earlier = self.atoms[a].args[..at].iter().position(|e| *e == *c);
                match (column[s], earlier) {
                    (_, Some(first)) => step.repeats.push((at, first)),
                    (Some(col), None) => step.keys.push((at, col)),
                    (None, None) => {
                        column[s] = Some(width + step.fresh.len());
                        step.fresh.push(at);
                    }
                }
            }
            width += step.fresh.len();
            self.fill.push(step);
        }
        let project = |c: &Cell| match *c {
            Cell::Slot(s) => column[s].map(Cell::Slot),
            constant => Some(constant),
        };
        self.projection = self.head.iter().map(project).collect();
    }

    /// Whether the body reads a relation `delta` changes.
    fn reads(&self, delta: &DeltaIndex) -> bool {
        self.atoms
            .iter()
            .any(|a| !delta.facts_of(a.pred).is_empty())
    }

    /// The view's distinct head rows, first-seen, as interned cells: a
    /// left-deep hash join of each atom's matching facts ([`JoinTable`])
    /// onto the rows so far, projected on the head and de-duplicated by
    /// [`Distinct`] when the head drops a body variable. An atom's facts
    /// are those of its most selective constant's posting list or of its
    /// relation, or fewer: those holding a key value of the rows so far
    /// ([`semi_join`]).
    fn fill(&self, facts: &Instance) -> IdRows {
        let width = self.head.len();
        let Some(projection) = &self.projection else {
            return IdRows::empty(width);
        };
        let mut rows = IdRows::empty(0);
        rows.push([]);
        for step in &self.fill {
            let atom = &self.atoms[step.atom];
            let candidates = probe(facts, atom, &[]);
            let reduced = semi_join(facts, atom, step.keys.first(), &rows, candidates.len());
            let ids = reduced.as_deref().unwrap_or(candidates);
            let build = matching(facts, atom, &step.repeats, ids);
            let fact_keys = build.rows().map(|fact| {
                let cells = step.keys.iter().map(|(at, _)| fact[*at]);
                pack_key(cells, step.keys.len())
            });
            let table = JoinTable::build(fact_keys);
            let mut joined = IdRows::empty(rows.width + step.fresh.len());
            for row in rows.rows() {
                let key = pack_key(step.keys.iter().map(|(_, col)| row[*col]), step.keys.len());
                for &at in table.probe(&key) {
                    let fact = &build.cells[at as usize * build.width..][..build.width];
                    let fresh = step.fresh.iter().map(|p| fact[*p]);
                    joined.push(row.iter().copied().chain(fresh));
                }
            }
            rows = joined;
        }
        if self.dedup {
            let mut distinct = Distinct::new(width);
            for row in rows.rows() {
                distinct.keep(project(projection, row));
            }
            return distinct.into_rows();
        }
        let mut out = IdRows::empty(width);
        rows.rows()
            .for_each(|row| out.push(project(projection, row)));
        out
    }
}

/// The head cells of a fill's row `row` through `projection`.
fn project<'a>(projection: &'a [Cell], row: &'a [ConstId]) -> impl Iterator<Item = ConstId> + 'a {
    projection.iter().map(|c| match *c {
        Cell::Const(id) => id,
        Cell::Slot(col) => row[col],
    })
}

/// The cells of the facts `ids` that match `atom` by its constant and
/// repeated variable filters, in the order of `ids`. A plain filter rather
/// than [`bind`], which costs more per fact: an atom without a constant
/// reads every fact of its relation.
fn matching(facts: &Instance, atom: &PlanAtom, repeats: &[(usize, usize)], ids: &[u32]) -> IdRows {
    let mut out = IdRows::empty(atom.args.len());
    for &id in ids {
        let args = &facts.fact(id).args;
        if args.len() != atom.args.len() {
            continue;
        }
        let constants = atom.args.iter().zip(args).all(|(c, e)| match c {
            Cell::Const(id) => *e == Elem::Const(*id),
            Cell::Slot(_) => true,
        });
        let repeated = repeats.iter().all(|(at, first)| args[*at] == args[*first]);
        if constants && repeated && args.iter().all(|e| constant(e).is_some()) {
            out.push(args.iter().filter_map(constant));
        }
    }
    out
}

/// The facts of `atom` holding, at the join key `key` (`(fact position,
/// row column)`), a value some of `rows` holds there — ascending, as every
/// posting list is — or `None` once they would number `limit` or more.
fn semi_join(
    facts: &Instance,
    atom: &PlanAtom,
    key: Option<&(usize, usize)>,
    rows: &IdRows,
    limit: usize,
) -> Option<Vec<u32>> {
    let &(at, col) = key?;
    let values: FastSet<ConstId> = rows.rows().map(|row| row[col]).collect();
    let mut ids = Vec::new();
    for v in values {
        ids.extend_from_slice(facts.probe(atom.pred, at as u32, &Elem::Const(v)));
        if ids.len() >= limit {
            return None;
        }
    }
    ids.sort_unstable();
    Some(ids)
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

/// The slot of a variable cell.
fn slot(c: Cell) -> Option<usize> {
    match c {
        Cell::Slot(s) => Some(s),
        Cell::Const(_) => None,
    }
}

/// The interned constant an element is (`None`: a labelled null).
fn constant(e: &Elem) -> Option<ConstId> {
    match e {
        Elem::Const(id) => Some(*id),
        Elem::Null(_) => None,
    }
}

/// The shortest posting list of `atom`'s facts at a position holding a
/// constant or a slot `bound` binds, or all of its relation's facts.
fn probe<'a>(facts: &'a Instance, atom: &PlanAtom, bound: &[Option<ConstId>]) -> &'a [u32] {
    let known = atom.args.iter().enumerate().filter_map(|(at, c)| match *c {
        Cell::Const(id) => Some((at, id)),
        Cell::Slot(s) => Some((at, (*bound.get(s)?)?)),
    });
    let lists = known.map(|(at, id)| facts.probe(atom.pred, at as u32, &Elem::Const(id)));
    lists
        .min_by_key(|ids| ids.len())
        .unwrap_or_else(|| facts.pred_facts(atom.pred))
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
    facts: &'a Instance,
    plan: &'a ViewPlan,
    /// Per atom, which facts it may match.
    strata: Vec<Stratum>,
    /// The delta's list of each relation and its epoch threshold.
    delta: Option<&'a DeltaIndex>,
    bound: Vec<Option<ConstId>>,
    trail: Vec<usize>,
}

impl<'a> Walk<'a> {
    fn new(facts: &'a Instance, plan: &'a ViewPlan) -> Walk<'a> {
        Walk {
            facts,
            plan,
            strata: vec![Stratum::Any; plan.atoms.len()],
            delta: None,
            bound: vec![None; plan.slots],
            trail: Vec::new(),
        }
    }

    /// Every match through at least one fact of `delta`, each once — one
    /// search anchored on each atom reading a changed relation: that atom
    /// matches the delta, the atoms before it only older facts — tallied
    /// by head row.
    fn through(&mut self, delta: &'a DeltaIndex) -> Tally {
        let (rows, counts) = (Distinct::new(self.plan.head.len()), Vec::new());
        let mut tally = Tally { rows, counts };
        self.delta = Some(delta);
        let plan = self.plan;
        // An unsafe view has no row to reach.
        let anchors = (0..plan.atoms.len()).filter(|_| plan.projection.is_some());
        for anchor in anchors {
            if delta.facts_of(plan.atoms[anchor].pred).is_empty() {
                continue;
            }
            for (a, stratum) in self.strata.iter_mut().enumerate() {
                *stratum = match a.cmp(&anchor) {
                    Ordering::Less => Stratum::Old,
                    Ordering::Equal => Stratum::New,
                    Ordering::Greater => Stratum::Any,
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
        self.strata.fill(Stratum::Any);
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
        let (facts, plan) = (self.facts, self.plan);
        let atom = &plan.atoms[a];
        let (stratum, threshold) = (self.strata[a], self.delta.map_or(0, |d| d.threshold));
        let candidates = match (stratum, self.delta) {
            (Stratum::New, Some(delta)) => delta.facts_of(atom.pred),
            _ => probe(facts, atom, &self.bound),
        };
        for &id in candidates {
            let admitted = match stratum {
                Stratum::Old => facts.fact_epoch(id) < threshold,
                Stratum::New => facts.fact_epoch(id) >= threshold && facts.is_alive(id),
                Stratum::Any => true,
            };
            let mark = self.trail.len();
            let args = &facts.fact(id).args;
            let go_on = !admitted
                || !bind(atom, args, &mut self.bound, &mut self.trail)
                || self.search(rest, visit);
            for s in self.trail.drain(mark..) {
                self.bound[s] = None;
            }
            if !go_on {
                return false;
            }
        }
        true
    }
}

/// Match `atom` against a fact's `args` — every cell a constant, equal to
/// the atom's constants and to the slots `bound` binds — binding its free
/// slots, each pushed on `trail` for the caller to unwind.
fn bind(
    atom: &PlanAtom,
    args: &[Elem],
    bound: &mut [Option<ConstId>],
    trail: &mut Vec<usize>,
) -> bool {
    if args.len() != atom.args.len() {
        return false;
    }
    for (c, e) in atom.args.iter().zip(args) {
        let Some(id) = constant(e) else { return false };
        let fits = match *c {
            Cell::Const(constant) => constant == id,
            Cell::Slot(s) => match bound[s] {
                Some(held) => held == id,
                None => {
                    bound[s] = Some(id);
                    trail.push(s);
                    true
                }
            },
        };
        if !fits {
            return false;
        }
    }
    true
}

/// The instance holding exactly `facts`, to evaluate views over.
pub fn fact_base(facts: &[Fact]) -> Instance {
    let mut inst = Instance::new();
    for f in facts {
        inst.insert(f.pred, elems(&f.args));
    }
    inst
}

/// Evaluate a view over the fact base by the chase's homomorphism search:
/// all homomorphic images of the body, projected on the head, without a
/// limit. Duplicate rows are eliminated (set semantics of the pivot
/// model). A homomorphism mapping a head variable to a labelled null
/// yields no row — never the case over ground bases.
pub fn evaluate_view(base: &Instance, view: &Cq) -> Vec<Vec<Value>> {
    let cfg = HomConfig { limit: usize::MAX };
    let homs = find_homs(base, &view.body, &FastMap::default(), cfg);
    let row = |h: &estocada_chase::Hom| -> Option<Row> {
        let cell = |t: &Term| match t {
            Term::Const(c) => Some(c.clone()),
            Term::Var(v) => h.map.get(v).and_then(Elem::as_value),
        };
        view.head.iter().map(cell).collect()
    };
    let mut seen = FastSet::default();
    homs.iter()
        .filter_map(row)
        .filter(|row| seen.insert(row.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_chase::find_homs_delta;
    use estocada_pivot::Atom;

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

    /// A random fact over `RELATIONS`, cells from a domain of four.
    fn random_fact(dice: &mut Dice) -> (Symbol, Vec<Elem>) {
        let (name, arity) = RELATIONS[dice.roll(RELATIONS.len())];
        let args = (0..arity).map(|_| Elem::of(dice.roll(4) as i64)).collect();
        (Symbol::intern(name), args)
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

    #[test]
    fn compiled_fill_equals_the_homomorphism_search_on_random_views() {
        for seed in 0..400 {
            let mut dice = Dice(seed);
            let mut base = Instance::new();
            for _ in 0..6 + dice.roll(24) {
                let (pred, args) = random_fact(&mut dice);
                base.insert(pred, args);
            }
            let view = random_view(&mut dice, false);
            let filled = ViewPlan::compile(&view, &base).fill(&base).to_values();
            let oracle = evaluate_view(&base, &view);
            assert_eq!(
                filled.len(),
                oracle.len(),
                "seed {seed}: {view}: a row twice or missing"
            );
            assert_eq!(sorted(filled), sorted(oracle), "seed {seed}: {view}");
        }
    }

    #[test]
    fn delta_tallies_and_derivation_counts_equal_the_homomorphism_search() {
        for seed in 0..400 {
            let mut dice = Dice(seed);
            let mut base = Instance::new();
            for _ in 0..6 + dice.roll(20) {
                let (pred, args) = random_fact(&mut dice);
                base.insert(pred, args);
            }
            // A delta as either phase sees it: some facts stamped (doomed)
            // or newly inserted at a fresh epoch.
            let epoch = base.advance_epoch();
            let old: Vec<u32> = base.fact_ids().collect();
            for _ in 0..1 + dice.roll(4) {
                if dice.roll(2) == 0 {
                    base.touch(old[dice.roll(old.len())]);
                } else {
                    let (pred, args) = random_fact(&mut dice);
                    base.insert(pred, args);
                }
            }
            let delta = base.delta_index(epoch);
            let view = random_view(&mut dice, true);
            let plan = ViewPlan::compile(&view, &base);
            let mut walk = Walk::new(&base, &plan);
            let through = walk.through(&delta);
            let tallied: Vec<(Row, usize)> = through
                .rows
                .rows()
                .to_values()
                .into_iter()
                .zip(through.counts.iter().copied())
                .collect();
            let none = FastMap::default();
            let searched = images(
                &view,
                &find_homs_delta(
                    &base,
                    &view.body,
                    &none,
                    HomConfig { limit: usize::MAX },
                    &delta,
                ),
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
                let all = find_homs(
                    &base,
                    &view.body,
                    &fixed.collect(),
                    HomConfig { limit: usize::MAX },
                )
                .len();
                for limit in [1, row.1 + 1, usize::MAX] {
                    assert_eq!(
                        walk.derivations(ids, limit),
                        all.min(limit),
                        "seed {seed}: {view}: derivations of {:?}",
                        row.0
                    );
                }
            }
        }
    }
}
