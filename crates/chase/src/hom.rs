//! Homomorphism search: matching conjunctions of atoms into instances.
//!
//! This is the workhorse of the chase (trigger finding), of containment
//! checks (query images in chased canonical databases) and of the backchase
//! (finding images of the original query with their provenance).
//!
//! # Search architecture
//!
//! A search runs over a `Pattern`: the atom list compiled to flat slot
//! form —
//!
//! - every distinct variable gets a **compact id** `0..n_vars`, so the
//!   partial assignment is a dense scratch array (`Vec<Option<Elem>>`)
//!   instead of a `FastMap<Var, Elem>` — binding and unbinding are O(1)
//!   array writes recorded on an undo trail;
//! - atom constants are pre-lifted to `Elem`s, so candidate unification
//!   never re-wraps a `Value` per comparison.
//!
//! The chase compiles each premise and conclusion once, when it prepares a
//! constraint set ([`mod@crate::chase`]); the public entry points compile
//! their atom list into the thread's scratch pattern per call.
//!
//! The backtracking search then picks, at every depth, the most selective
//! unmatched atom using **count-only** index probes
//! ([`crate::instance::Instance::count_with`] /
//! [`crate::instance::Instance::pred_count`] — no candidate list is
//! materialized for losing atoms), and enumerates the winner's candidates
//! directly off a borrowed index posting list — fetched exactly once per
//! step, never copied. A match goes to a sink: the public entry points
//! build a [`Hom`] per match, the chase appends the bindings and fact ids
//! to its flat trigger buffer, and the applicability probe only counts. So
//! a steady-state search allocates nothing but the `Hom`s a public caller
//! asks for (and the growth of the chase's reused trigger buffer).
//!
//! # Thread-confined scratch
//!
//! The buffer set (binding array, trail, atom order, strata, the scratch
//! pattern) is a private `HomArena`, one per thread, kept in a
//! `thread_local!` cell. A search takes the thread's arena out of the
//! cell, runs on it and puts it back, so a thread allocates the buffers
//! once and every later search on it reuses them — the chase's premise
//! searches and applicability probes, each candidate's verification, a
//! plan-cache miss after the one before it. Threads share nothing: each of
//! the backchase's verification workers is its own thread and so has its
//! own arena, and no search synchronizes with another. A search that
//! starts while another on the same thread holds the arena finds the cell
//! empty and runs on a fresh one.
//!
//! # Semi-naive (delta) search
//!
//! [`find_homs_delta`] enumerates only the homomorphisms that touch at
//! least one fact from a [`DeltaIndex`] (facts changed since the previous
//! chase round). It runs one *anchored* search per atom position `a`:
//! atom `a` must match a delta fact, atoms before `a` must match old facts,
//! atoms after `a` may match anything — the classic semi-naive
//! stratification, which partitions the delta triggers so none is reported
//! twice.

use crate::instance::{DeltaIndex, Elem, Instance};
use estocada_pivot::hash::FastMap;
use estocada_pivot::{Atom, Symbol, Term, Var};
use std::cell::Cell;

/// A homomorphism: a variable assignment plus the ids of the facts each atom
/// was matched to (parallel to the atom list it was searched for).
#[derive(Debug, Clone)]
pub struct Hom {
    /// Variable assignment.
    pub map: FastMap<Var, Elem>,
    /// Matched fact id per atom, in atom order.
    pub fact_ids: Vec<u32>,
}

impl Hom {
    /// Image of a term under the homomorphism (constants map to
    /// themselves).
    pub fn apply(&self, t: &Term) -> Option<Elem> {
        match t {
            Term::Const(v) => Some(Elem::constant(v)),
            Term::Var(v) => self.map.get(v).copied(),
        }
    }
}

/// Search configuration.
#[derive(Debug, Clone, Copy)]
pub struct HomConfig {
    /// Stop after this many homomorphisms (guards exponential blowups).
    pub limit: usize,
}

impl Default for HomConfig {
    fn default() -> Self {
        HomConfig { limit: 1_000_000 }
    }
}

/// A compiled atom argument: either a pre-lifted constant or a compact
/// variable id.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Const(Elem),
    Var(u32),
}

/// A conjunction of atoms compiled for search, laid out flat: a predicate
/// and a run of slots per atom, and the variable behind each compact id.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pattern {
    preds: Vec<Symbol>,
    /// End offset in `slots` of each atom's run.
    ends: Vec<u32>,
    slots: Vec<Slot>,
    /// Compact id → variable.
    vars: Vec<Var>,
}

impl Pattern {
    /// Compile `atoms`, the variables of `first` taking the compact ids
    /// `0..first.len()` and the others numbered by first occurrence.
    pub(crate) fn new(atoms: &[Atom], first: &[Var]) -> Pattern {
        let mut pattern = Pattern::default();
        pattern.compile(atoms, first.iter().copied());
        pattern
    }

    /// [`Pattern::new`] into this pattern's buffers.
    fn compile(&mut self, atoms: &[Atom], first: impl Iterator<Item = Var>) {
        self.preds.clear();
        self.ends.clear();
        self.slots.clear();
        self.vars.clear();
        for v in first {
            self.intern(v);
        }
        for a in atoms {
            for t in &a.args {
                let slot = match t {
                    Term::Const(v) => Slot::Const(Elem::constant(v)),
                    Term::Var(v) => Slot::Var(self.intern(*v)),
                };
                self.slots.push(slot);
            }
            self.preds.push(a.pred);
            self.ends.push(self.slots.len() as u32);
        }
    }

    /// The compact id of `v`, numbered on first sight.
    fn intern(&mut self, v: Var) -> u32 {
        match self.var_id(v) {
            Some(id) => id,
            None => {
                self.vars.push(v);
                (self.vars.len() - 1) as u32
            }
        }
    }

    /// The compact id of `v`, if the pattern has it.
    pub(crate) fn var_id(&self, v: Var) -> Option<u32> {
        self.vars.iter().position(|w| *w == v).map(|i| i as u32)
    }

    /// Number of atoms.
    pub(crate) fn len(&self) -> usize {
        self.preds.len()
    }

    /// Number of compact variable ids.
    pub(crate) fn n_vars(&self) -> usize {
        self.vars.len()
    }

    /// The predicates, in atom order.
    pub(crate) fn preds(&self) -> &[Symbol] {
        &self.preds
    }

    /// Atom `i`: its predicate and slots.
    pub(crate) fn atom(&self, i: usize) -> (Symbol, &[Slot]) {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        (self.preds[i], &self.slots[start..self.ends[i] as usize])
    }
}

/// Epoch restriction of one atom during an anchored delta search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stratum {
    /// Any alive fact.
    Any,
    /// Only facts with `epoch < threshold` (strictly before the delta).
    Old,
    /// Only facts with `epoch >= threshold` (the delta anchor).
    New,
}

/// Where a search's matches go: each full assignment (by compact id) with
/// its fact id per atom.
pub(crate) trait Sink {
    fn emit(&mut self, bind: &[Option<Elem>], fact_ids: &[u32]);
}

/// Counts matches and keeps none: the applicability probe.
struct Count;

impl Sink for Count {
    fn emit(&mut self, _: &[Option<Elem>], _: &[u32]) {}
}

/// Builds a [`Hom`] per match: the public entry points.
struct Homs<'a> {
    vars: &'a [Var],
    out: Vec<Hom>,
}

impl Sink for Homs<'_> {
    fn emit(&mut self, bind: &[Option<Elem>], fact_ids: &[u32]) {
        let map: FastMap<Var, Elem> = (self.vars.iter().zip(bind))
            .filter_map(|(v, b)| b.map(|e| (*v, e)))
            .collect();
        self.out.push(Hom {
            map,
            fact_ids: fact_ids.to_vec(),
        });
    }
}

/// The matcher's reusable state: the dense binding array, the undo trail,
/// the atom order and strata, the match count. One per thread, inside the
/// arena (module docs).
#[derive(Default)]
struct Scratch {
    /// Dense partial assignment, indexed by compact variable id.
    bind: Vec<Option<Elem>>,
    /// Undo trail of compact ids bound at deeper levels.
    trail: Vec<u32>,
    /// Matched fact per original atom index (u32::MAX = unmatched).
    fact_ids: Vec<u32>,
    /// Atom indices; `order[..depth]` are matched, the rest pending.
    order: Vec<usize>,
    /// Per-atom epoch stratum (delta search; all `Any` for a full search).
    strata: Vec<Stratum>,
    /// Matches emitted so far.
    found: usize,
}

impl Scratch {
    /// Set up a search of `pat`, the compact ids of `fixed` bound to their
    /// resolved images.
    fn start(
        &mut self,
        instance: &Instance,
        pat: &Pattern,
        fixed: impl Iterator<Item = (u32, Elem)>,
    ) {
        self.bind.clear();
        self.bind.resize(pat.n_vars(), None);
        for (id, e) in fixed {
            self.bind[id as usize] = Some(instance.resolve(&e));
        }
        self.trail.clear();
        self.fact_ids.clear();
        self.fact_ids.resize(pat.len(), u32::MAX);
        self.order.clear();
        self.order.extend(0..pat.len());
        self.strata.clear();
        self.strata.resize(pat.len(), Stratum::Any);
        self.found = 0;
    }
}

/// The matcher's per-thread buffers: the search scratch and the pattern
/// the public entry points compile into.
#[derive(Default)]
struct HomArena {
    pattern: Pattern,
    scratch: Scratch,
}

thread_local! {
    /// This thread's arena; empty while a search on the thread holds it.
    static ARENA: Cell<HomArena> = Cell::new(HomArena::default());
}

/// Run `f` on this thread's arena: take it, run, put it back.
fn with_arena<R>(f: impl FnOnce(&mut HomArena) -> R) -> R {
    ARENA.with(|cell| {
        let mut arena = cell.take();
        let result = f(&mut arena);
        cell.set(arena);
        result
    })
}

/// Immutable search context: the compiled pattern against one instance.
/// Separated from [`Scratch`] so candidate posting lists (which borrow the
/// context) stay live while the scratch state mutates.
struct Ctx<'a> {
    instance: &'a Instance,
    pat: &'a Pattern,
    threshold: u64,
    delta: Option<&'a DeltaIndex>,
    limit: usize,
}

/// Estimated candidate count for pending atom `ai` under the current
/// bindings, plus the most selective bound position and its element.
/// Count-only probes — nothing is materialized for atoms that lose the
/// selection.
fn estimate(ctx: &Ctx<'_>, s: &Scratch, ai: usize) -> (usize, Option<(u32, Elem)>) {
    let (pred, slots) = ctx.pat.atom(ai);
    let mut best = usize::MAX;
    let mut best_probe = None;
    for (i, slot) in slots.iter().enumerate() {
        let elem = match slot {
            Slot::Const(e) => Some(e),
            Slot::Var(v) => s.bind[*v as usize].as_ref(),
        };
        if let Some(e) = elem {
            let n = ctx.instance.count_with(pred, i as u32, e);
            if n < best {
                best = n;
                best_probe = Some((i as u32, *e));
            }
        }
    }
    if best_probe.is_none() {
        best = match s.strata[ai] {
            // An unbound delta anchor can only match delta facts.
            Stratum::New => ctx.delta.map(|d| d.facts_of(pred).len()).unwrap_or(0),
            _ => ctx.instance.pred_count(pred),
        };
    }
    (best, best_probe)
}

/// The candidate posting list for atom `ai`: the facts holding `probe`'s
/// element at its position, or with no probe every fact of the atom's
/// stratum (borrowing the instance or the delta index — never copied).
fn candidates<'a>(
    ctx: &'a Ctx<'_>,
    stratum: Stratum,
    ai: usize,
    probe: Option<(u32, Elem)>,
) -> &'a [u32] {
    let pred = ctx.pat.preds[ai];
    match probe {
        Some((p, elem)) => ctx.instance.probe(pred, p, &elem),
        None => match stratum {
            Stratum::New => ctx.delta.map(|d| d.facts_of(pred)).unwrap_or(&[]),
            _ => ctx.instance.pred_facts(pred),
        },
    }
}

/// Recursive backtracking over the pending atoms `order[depth..]`.
fn search<K: Sink>(ctx: &Ctx<'_>, s: &mut Scratch, sink: &mut K, depth: usize) {
    if s.found >= ctx.limit {
        return;
    }
    if depth == ctx.pat.len() {
        sink.emit(&s.bind, &s.fact_ids);
        s.found += 1;
        return;
    }
    // Select the most selective pending atom and swap it to `depth`.
    let mut best = usize::MAX;
    let mut best_probe: Option<(u32, Elem)> = None;
    let mut best_slot = depth;
    for slot in depth..s.order.len() {
        let (n, probe) = estimate(ctx, s, s.order[slot]);
        if n < best {
            best = n;
            best_probe = probe;
            best_slot = slot;
            if n == 0 {
                break;
            }
        }
    }
    if best == 0 {
        return;
    }
    s.order.swap(depth, best_slot);
    let ai = s.order[depth];

    // Fetch the winner's candidate list exactly once. The slice borrows the
    // context (instance/delta), not the scratch state, so the loop below is
    // free to mutate bindings.
    let cands: &[u32] = candidates(ctx, s.strata[ai], ai, best_probe);

    let trail_mark = s.trail.len();
    for &fid in cands {
        if try_match(ctx, s, ai, fid) {
            s.fact_ids[ai] = fid;
            search(ctx, s, sink, depth + 1);
            s.fact_ids[ai] = u32::MAX;
        }
        // Undo bindings made by this candidate.
        for v in s.trail.drain(trail_mark..) {
            s.bind[v as usize] = None;
        }
        if s.found >= ctx.limit {
            break;
        }
    }
    s.order.swap(depth, best_slot);
}

/// Unify atom `ai` against fact `fid`; new bindings go on the trail.
fn try_match(ctx: &Ctx<'_>, s: &mut Scratch, ai: usize, fid: u32) -> bool {
    // Delta lists are snapshots taken before same-round EGD merges; a
    // listed fact may since have died.
    if !ctx.instance.is_alive(fid) {
        return false;
    }
    match s.strata[ai] {
        Stratum::Any => {}
        Stratum::Old => {
            if ctx.instance.fact_epoch(fid) >= ctx.threshold {
                return false;
            }
        }
        Stratum::New => {
            if ctx.instance.fact_epoch(fid) < ctx.threshold {
                return false;
            }
        }
    }
    let args = ctx.instance.args(fid);
    let (_, slots) = ctx.pat.atom(ai);
    if args.len() != slots.len() {
        return false;
    }
    let mark = s.trail.len();
    for (slot, e) in slots.iter().zip(args) {
        let ok = match slot {
            Slot::Const(c) => c == e,
            Slot::Var(v) => match &s.bind[*v as usize] {
                Some(bound) => bound == e,
                None => {
                    s.bind[*v as usize] = Some(*e);
                    s.trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in s.trail.drain(mark..) {
                s.bind[v as usize] = None;
            }
            return false;
        }
    }
    true
}

/// Search `ctx.pat` in full, or — with a delta — once per atom anchored on
/// the delta (module docs), until `ctx.limit` matches.
fn run<K: Sink>(ctx: &Ctx<'_>, s: &mut Scratch, sink: &mut K) {
    let Some(delta) = ctx.delta else {
        return search(ctx, s, sink, 0);
    };
    for anchor in 0..ctx.pat.len() {
        if delta.facts_of(ctx.pat.preds[anchor]).is_empty() {
            continue;
        }
        for (i, stratum) in s.strata.iter_mut().enumerate() {
            *stratum = match i.cmp(&anchor) {
                std::cmp::Ordering::Less => Stratum::Old,
                std::cmp::Ordering::Equal => Stratum::New,
                std::cmp::Ordering::Greater => Stratum::Any,
            };
        }
        search(ctx, s, sink, 0);
        if s.found >= ctx.limit {
            break;
        }
    }
}

/// Homomorphisms of `atoms` into `instance` extending `fixed`, as
/// [`Hom`]s: the public entry points' common body.
fn collect_homs(
    instance: &Instance,
    atoms: &[Atom],
    fixed: &FastMap<Var, Elem>,
    limit: usize,
    delta: Option<&DeltaIndex>,
) -> Vec<Hom> {
    with_arena(|arena| {
        let HomArena { pattern, scratch } = arena;
        // Fixed variables first so their scratch cells can be seeded.
        pattern.compile(atoms, fixed.keys().copied());
        let seeds = fixed.values().enumerate().map(|(i, e)| (i as u32, *e));
        scratch.start(instance, pattern, seeds);
        let (threshold, pat) = (delta.map_or(0, |d| d.threshold), &*pattern);
        let ctx = Ctx {
            instance,
            pat,
            threshold,
            delta,
            limit,
        };
        let mut homs = Homs {
            vars: &pat.vars,
            out: Vec::new(),
        };
        run(&ctx, scratch, &mut homs);
        homs.out
    })
}

/// Find homomorphisms from `atoms` into `instance`, extending the partial
/// assignment `fixed`. Returns at most `cfg.limit` results.
///
/// The search backtracks over atoms, at each step choosing the most
/// selective remaining atom (fewest candidate facts under the current
/// partial assignment, estimated by count-only index probes).
pub fn find_homs(
    instance: &Instance,
    atoms: &[Atom],
    fixed: &FastMap<Var, Elem>,
    cfg: HomConfig,
) -> Vec<Hom> {
    collect_homs(instance, atoms, fixed, cfg.limit, None)
}

/// Find one homomorphism, if any (cheaper early exit).
pub fn find_one_hom(
    instance: &Instance,
    atoms: &[Atom],
    fixed: &FastMap<Var, Elem>,
) -> Option<Hom> {
    find_homs(instance, atoms, fixed, HomConfig { limit: 1 })
        .into_iter()
        .next()
}

/// Find the homomorphisms that use at least one fact from `delta` (facts
/// changed at-or-after `delta.threshold`) — the semi-naive trigger search.
///
/// Runs one anchored pass per atom: pass `a` restricts atom `a` to delta
/// facts and atoms before `a` to pre-delta facts, so every delta
/// homomorphism is enumerated exactly once (at its first delta atom).
/// With an empty atom list there is no delta fact to anchor on, so the
/// result is empty — the fixpoint semantics of a premise-less constraint
/// are covered by the full search of the first chase round.
pub fn find_homs_delta(
    instance: &Instance,
    atoms: &[Atom],
    fixed: &FastMap<Var, Elem>,
    cfg: HomConfig,
    delta: &DeltaIndex,
) -> Vec<Hom> {
    collect_homs(instance, atoms, fixed, cfg.limit, Some(delta))
}

/// Whether the compiled `pat` has a homomorphism into `instance` that
/// sends compact id `i` to `fixed[i]` — the restricted chase's
/// per-trigger applicability probe, whose conclusion pattern numbers the
/// frontier first. Builds nothing.
pub(crate) fn has_hom(instance: &Instance, pat: &Pattern, fixed: &[Elem]) -> bool {
    with_arena(|arena| {
        let scratch = &mut arena.scratch;
        let seeds = fixed.iter().enumerate().map(|(i, e)| (i as u32, *e));
        scratch.start(instance, pat, seeds);
        let ctx = Ctx {
            instance,
            pat,
            threshold: 0,
            delta: None,
            limit: 1,
        };
        run(&ctx, scratch, &mut Count);
        scratch.found > 0
    })
}

/// The chase driver's trigger enumeration of a compiled premise: full
/// search when `delta` is `None` (first round), delta-restricted search
/// otherwise; every match goes to `sink`.
pub(crate) fn find_triggers<K: Sink>(
    instance: &Instance,
    pat: &Pattern,
    cfg: HomConfig,
    delta: Option<&DeltaIndex>,
    sink: &mut K,
) {
    with_arena(|arena| {
        let scratch = &mut arena.scratch;
        scratch.start(instance, pat, std::iter::empty());
        let ctx = Ctx {
            instance,
            pat,
            threshold: delta.map_or(0, |d| d.threshold),
            delta,
            limit: cfg.limit,
        };
        run(&ctx, scratch, sink);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Instance {
        // R(1,2), R(2,3), S(3)
        let mut i = Instance::new();
        let c = |v: i64| Elem::of(v);
        i.insert(Symbol::intern("R"), vec![c(1), c(2)]);
        i.insert(Symbol::intern("R"), vec![c(2), c(3)]);
        i.insert(Symbol::intern("S"), vec![c(3)]);
        i
    }

    fn atom(pred: &str, args: Vec<Term>) -> Atom {
        Atom::new(pred, args)
    }

    #[test]
    fn path_query_finds_single_match() {
        let i = setup();
        // R(x,y), R(y,z), S(z)
        let atoms = vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
            atom("S", vec![Term::var(2)]),
        ];
        let homs = find_homs(&i, &atoms, &FastMap::default(), HomConfig::default());
        assert_eq!(homs.len(), 1);
        let h = &homs[0];
        assert_eq!(h.map[&Var(0)], Elem::of(1i64));
        assert_eq!(h.map[&Var(2)], Elem::of(3i64));
        assert_eq!(h.fact_ids.len(), 3);
    }

    #[test]
    fn all_matches_enumerated() {
        let i = setup();
        let atoms = vec![atom("R", vec![Term::var(0), Term::var(1)])];
        let homs = find_homs(&i, &atoms, &FastMap::default(), HomConfig::default());
        assert_eq!(homs.len(), 2);
    }

    #[test]
    fn fixed_bindings_restrict_matches() {
        let i = setup();
        let atoms = vec![atom("R", vec![Term::var(0), Term::var(1)])];
        let mut fixed = FastMap::default();
        fixed.insert(Var(0), Elem::of(2i64));
        let homs = find_homs(&i, &atoms, &fixed, HomConfig::default());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].map[&Var(1)], Elem::of(3i64));
    }

    #[test]
    fn constants_in_atoms_must_match() {
        let i = setup();
        let atoms = vec![atom("R", vec![Term::constant(7i64), Term::var(0)])];
        assert!(find_one_hom(&i, &atoms, &FastMap::default()).is_none());
        let atoms = vec![atom("R", vec![Term::constant(1i64), Term::var(0)])];
        assert!(find_one_hom(&i, &atoms, &FastMap::default()).is_some());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut i = setup();
        i.insert(Symbol::intern("R"), vec![Elem::of(5i64), Elem::of(5i64)]);
        let atoms = vec![atom("R", vec![Term::var(0), Term::var(0)])];
        let homs = find_homs(&i, &atoms, &FastMap::default(), HomConfig::default());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].map[&Var(0)], Elem::of(5i64));
    }

    #[test]
    fn limit_caps_result_count() {
        let i = setup();
        let atoms = vec![atom("R", vec![Term::var(0), Term::var(1)])];
        let homs = find_homs(&i, &atoms, &FastMap::default(), HomConfig { limit: 1 });
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn empty_atom_list_yields_identity() {
        let i = setup();
        let homs = find_homs(&i, &[], &FastMap::default(), HomConfig::default());
        assert_eq!(homs.len(), 1);
        assert!(homs[0].map.is_empty());
    }

    #[test]
    fn fixed_vars_absent_from_atoms_survive_into_results() {
        let i = setup();
        let atoms = vec![atom("S", vec![Term::var(0)])];
        let mut fixed = FastMap::default();
        fixed.insert(Var(9), Elem::of(42i64));
        let homs = find_homs(&i, &atoms, &fixed, HomConfig::default());
        assert_eq!(homs.len(), 1);
        assert_eq!(homs[0].map[&Var(9)], Elem::of(42i64));
        assert_eq!(homs[0].map[&Var(0)], Elem::of(3i64));
    }

    #[test]
    fn delta_search_finds_only_new_triggers() {
        let mut i = setup(); // facts at epoch 0
        let thr = i.advance_epoch();
        i.insert(Symbol::intern("R"), vec![Elem::of(3i64), Elem::of(4i64)]);
        let atoms = vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
        ];
        let delta = i.delta_index(thr);
        let dhoms = find_homs_delta(
            &i,
            &atoms,
            &FastMap::default(),
            HomConfig::default(),
            &delta,
        );
        // Full search: (1,2,3), (2,3,4). Only the latter touches R(3,4).
        assert_eq!(dhoms.len(), 1);
        assert_eq!(dhoms[0].map[&Var(2)], Elem::of(4i64));
    }

    #[test]
    fn delta_search_covers_full_search_at_threshold_zero() {
        let i = setup();
        let atoms = vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
            atom("S", vec![Term::var(2)]),
        ];
        let full = find_homs(&i, &atoms, &FastMap::default(), HomConfig::default());
        let delta = i.delta_index(0);
        let dhoms = find_homs_delta(
            &i,
            &atoms,
            &FastMap::default(),
            HomConfig::default(),
            &delta,
        );
        assert_eq!(full.len(), dhoms.len());
    }

    #[test]
    fn warm_thread_searches_match_fresh_thread() {
        let i = setup();
        let queries: Vec<Vec<Atom>> = vec![
            vec![atom("R", vec![Term::var(0), Term::var(1)])],
            vec![
                atom("R", vec![Term::var(0), Term::var(1)]),
                atom("R", vec![Term::var(1), Term::var(2)]),
                atom("S", vec![Term::var(2)]),
            ],
            vec![atom("S", vec![Term::var(5)])],
            vec![], // empty query: the arena shrinks back down
            vec![atom("R", vec![Term::constant(1i64), Term::var(0)])],
        ];
        let run = |i: &Instance, q: &[Atom]| {
            let full = find_homs(i, q, &FastMap::default(), HomConfig::default());
            let delta = i.delta_index(0);
            let anchored = find_homs_delta(i, q, &FastMap::default(), HomConfig::default(), &delta);
            let seen =
                |hs: Vec<Hom>| -> Vec<_> { hs.into_iter().map(|h| (h.fact_ids, h.map)).collect() };
            (seen(full), seen(anchored))
        };
        // This thread's arena is warm from the earlier queries of the loop;
        // a new thread starts with an empty one, over its own copy of the
        // instance (an instance is not `Sync`).
        for q in &queries {
            let warm = run(&i, q);
            let fresh = std::thread::scope(|s| s.spawn(|| run(&setup(), q)).join().unwrap());
            assert_eq!(warm, fresh, "arena reuse skewed {q:?}");
        }
    }

    #[test]
    fn delta_search_reports_each_hom_once() {
        // Both atoms can match delta facts — the anchored strata must not
        // double-report the homomorphism that uses two delta facts.
        let mut i = Instance::new();
        let c = |v: i64| Elem::of(v);
        i.insert(Symbol::intern("R"), vec![c(1), c(2)]); // old
        let thr = i.advance_epoch();
        i.insert(Symbol::intern("R"), vec![c(2), c(2)]); // new, self-loop
        let atoms = vec![
            atom("R", vec![Term::var(0), Term::var(1)]),
            atom("R", vec![Term::var(1), Term::var(2)]),
        ];
        let delta = i.delta_index(thr);
        let dhoms = find_homs_delta(
            &i,
            &atoms,
            &FastMap::default(),
            HomConfig::default(),
            &delta,
        );
        // New triggers: (1,2)+(2,2) anchored at atom 1, and (2,2)+(2,2)
        // anchored at atom 0 — exactly 2, no duplicates.
        assert_eq!(dhoms.len(), 2);
    }
}
