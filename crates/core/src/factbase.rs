//! The fact base: the registered datasets' pivot facts, which every
//! fragment's view is evaluated over — in full by a first fill and the
//! oracle, through a batch's changed facts and with its head fixed by the
//! write path ([`crate::dml`]). This module alone holds the chase
//! [`Instance`] and runs homomorphism searches over it.
//!
//! The pivot model has set semantics, but a dataset table is a bag: two
//! rows can encode one fact (a duplicated row, or two rows sharing a
//! `{table}_Terms` fact). So every fact carries the number of dataset rows
//! encoding it, counted while its dataset is staged; a write retracts a
//! fact only when its count reaches zero and inserts one only when its
//! count leaves zero.

use crate::dataset::Dataset;
use estocada_chase::{find_homs, find_homs_delta, DeltaIndex, Elem, HomConfig, Instance};
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{Cq, Fact, IdGen, Symbol, Term, Value};
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// A head row of a view.
type Row = Vec<Value>;
/// `(head row, −1 leaving / +1 entering its store)` per view relation.
type RowDeltas = FastMap<Symbol, Vec<(Row, i64)>>;

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

    /// `view` evaluated in full: its distinct head rows.
    pub(crate) fn evaluate(&self, view: &Cq) -> Vec<Row> {
        evaluate_view(&self.facts, view)
    }

    /// Apply a batch's netted fact delta — `(fact, n)`: `n` more (fewer)
    /// dataset rows encode the fact — and return, per relation of `views`,
    /// the head rows that leave their store (−1) or enter it (+1). Facts
    /// whose count reaches zero go in one phase of the delta chase, then
    /// facts whose count leaves zero come in another.
    pub(crate) fn apply(&mut self, delta: Vec<(Fact, i64)>, views: &[(Symbol, &Cq)]) -> RowDeltas {
        let (mut gone, mut born) = (Vec::new(), Vec::new());
        for (fact, n) in delta {
            let args = elems(&fact.args);
            match self.facts.find_fact(fact.pred, &args) {
                Some(id) => {
                    let held = &mut self.support[id as usize];
                    debug_assert!(*held as i64 + n >= 0, "support went negative");
                    *held = held.saturating_add_signed(n);
                    if *held == 0 {
                        gone.push(id);
                    }
                }
                None if n > 0 => born.push((fact.pred, args, n as u64)),
                None => {}
            }
        }
        let mut out = RowDeltas::default();
        let epoch = self.facts.advance_epoch();
        gone.iter().for_each(|id| self.facts.touch(*id));
        self.crossings(views, epoch, -1, &mut out);
        gone.into_iter().for_each(|id| self.facts.retract(id));
        let epoch = self.facts.advance_epoch();
        for (pred, args, rows) in born {
            self.insert(pred, args, rows);
        }
        self.crossings(views, epoch, 1, &mut out);
        out
    }

    /// One delta-chase phase over the facts stamped at `epoch` (doomed ones
    /// still in, new ones already in): record `(head row, sign)` for each
    /// head row of `views` whose homomorphisms through them, each enumerated
    /// once, are all those with the head fixed to it. The delta index comes
    /// from the stamp log; a view reading no changed relation is skipped.
    fn crossings(&self, views: &[(Symbol, &Cq)], epoch: u64, sign: i64, out: &mut RowDeltas) {
        let delta = self.facts.delta_index(epoch);
        let reads_delta = |(_, view): &&(Symbol, &Cq)| {
            view.body.iter().any(|a| !delta.facts_of(a.pred).is_empty())
        };
        for (name, view) in views.iter().filter(reads_delta) {
            let through = head_rows(&self.facts, view, Some(&delta)).map(|row| (row, 1));
            let crossing = net_deltas(through).into_iter().filter(|(row, n)| {
                let n = *n as usize;
                self.derivations(view, row, n + 1) == n
            });
            let deltas = out.entry(*name).or_default();
            deltas.extend(crossing.map(|(row, _)| (row, sign)));
        }
    }

    /// The homomorphisms of `view`'s body that yield `row`, counted up to
    /// `limit`.
    fn derivations(&self, view: &Cq, row: &[Value], limit: usize) -> usize {
        let head = view.head.iter().zip(row);
        let fixed = head.filter_map(|(t, v)| Some((t.as_var()?, Elem::constant(v))));
        let cfg = HomConfig { limit };
        find_homs(&self.facts, &view.body, &fixed.collect(), cfg).len()
    }
}

/// Interned arguments of a ground fact.
fn elems(args: &[Value]) -> Vec<Elem> {
    args.iter().map(Elem::constant).collect()
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

/// The instance holding exactly `facts`, to evaluate views over.
pub fn fact_base(facts: &[Fact]) -> Instance {
    let mut inst = Instance::new();
    for f in facts {
        inst.insert(f.pred, elems(&f.args));
    }
    inst
}

/// The head row of every homomorphism of `view`'s body into `base`, in
/// enumeration order, one per homomorphism (duplicates included). With
/// `delta`, only the homomorphisms through at least one fact of the delta,
/// each exactly once (semi-naive). A homomorphism mapping a head variable
/// to a labelled null yields no row — never the case over ground bases.
fn head_rows<'a>(
    base: &Instance,
    view: &'a Cq,
    delta: Option<&DeltaIndex>,
) -> impl Iterator<Item = Row> + 'a {
    let (fixed, cfg) = (FastMap::default(), HomConfig::default());
    let homs = match delta {
        Some(delta) => find_homs_delta(base, &view.body, &fixed, cfg, delta),
        None => find_homs(base, &view.body, &fixed, cfg),
    };
    homs.into_iter().filter_map(move |h| {
        view.head
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(v) => h.map.get(v).and_then(Elem::as_value),
            })
            .collect()
    })
}

/// Evaluate a view over the fact base: all homomorphic images of the body,
/// projected on the head. Duplicate rows are eliminated (set semantics of
/// the pivot model).
pub fn evaluate_view(base: &Instance, view: &Cq) -> Vec<Vec<Value>> {
    let mut seen = FastSet::default();
    head_rows(base, view, None)
        .filter(|row| seen.insert(row.clone()))
        .collect()
}
