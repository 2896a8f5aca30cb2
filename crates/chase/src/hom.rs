//! Homomorphism search: matching conjunctions of atoms into instances.
//!
//! This is the workhorse of the chase (trigger finding), of containment
//! checks (query images in chased canonical databases) and of the backchase
//! (finding images of the original query with their provenance).
//!
//! # Search architecture
//!
//! The matcher compiles the atom list once per call:
//!
//! - every distinct variable gets a **compact id** `0..n_vars`, so the
//!   partial assignment is a dense scratch array (`Vec<Option<Elem>>`)
//!   instead of a `FastMap<Var, Elem>` — binding and unbinding are O(1)
//!   array writes recorded on an undo trail;
//! - atom constants are pre-lifted to `Elem`s, so candidate unification
//!   never re-wraps a `Value` per comparison.
//!
//! The backtracking search then picks, at every depth, the most selective
//! unmatched atom using **count-only** index probes
//! ([`crate::instance::Instance::count_with`] /
//! [`crate::instance::Instance::pred_count`] — no candidate list is
//! materialized for losing atoms), and enumerates the winner's candidates
//! directly off a borrowed index posting list — fetched exactly once per
//! step, never copied. All scratch state (bindings, trail, atom order, fact
//! ids) lives in one reusable buffer set; the only per-result allocation is
//! the returned [`Hom`] itself.
//!
//! # Thread-confined scratch
//!
//! The buffer set (binding array, trail, atom order, compiled atoms, the
//! variable-interning map) is a private `HomArena`, one per thread, kept in
//! a `thread_local!` cell. A search takes the thread's arena out of the
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
#[derive(Debug, Clone)]
enum Slot {
    Const(Elem),
    Var(usize),
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

struct CompiledAtom {
    pred: Symbol,
    slots: Vec<Slot>,
}

/// The matcher's reusable scratch: every buffer a search needs — the
/// compiled atoms, the dense binding array, the undo trail, the atom order
/// and the variable-interning map. One per thread (module docs).
#[derive(Default)]
struct HomArena {
    var_ids: FastMap<Var, usize>,
    vars: Vec<Var>,
    atoms: Vec<CompiledAtom>,
    strata: Vec<Stratum>,
    bind: Vec<Option<Elem>>,
    trail: Vec<usize>,
    fact_ids: Vec<u32>,
    order: Vec<usize>,
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

impl HomArena {
    /// Return the buffers of a finished search to the arena.
    fn recycle(&mut self, ctx: Ctx<'_>, s: Scratch) {
        self.vars = ctx.vars;
        self.atoms = ctx.atoms;
        self.strata = ctx.strata;
        self.bind = s.bind;
        self.trail = s.trail;
        self.fact_ids = s.fact_ids;
        self.order = s.order;
    }
}

/// Immutable search context: the compiled query against one instance.
/// Separated from [`Scratch`] so candidate posting lists (which borrow the
/// context) stay live while the scratch state mutates.
struct Ctx<'a> {
    instance: &'a Instance,
    atoms: Vec<CompiledAtom>,
    /// Compact id → variable.
    vars: Vec<Var>,
    /// Per-atom epoch stratum (delta search; all `Any` for a full search).
    strata: Vec<Stratum>,
    threshold: u64,
    delta: Option<&'a DeltaIndex>,
    limit: usize,
}

/// Reusable mutable search state — the steady-state search allocates
/// nothing beyond the emitted results.
struct Scratch {
    /// Dense partial assignment, indexed by compact variable id.
    bind: Vec<Option<Elem>>,
    /// Undo trail of compact ids bound at deeper levels.
    trail: Vec<usize>,
    /// Matched fact per original atom index (u32::MAX = unmatched).
    fact_ids: Vec<u32>,
    /// Atom indices; `order[..depth]` are matched, the rest pending.
    order: Vec<usize>,
    results: Vec<Hom>,
}

/// Compile the atom list into a search context, drawing every buffer from
/// `arena` (cleared, capacity retained) instead of allocating fresh.
fn compile<'a>(
    arena: &mut HomArena,
    instance: &'a Instance,
    atoms: &[Atom],
    fixed: impl Iterator<Item = (Var, Elem)> + Clone,
    limit: usize,
) -> (Ctx<'a>, Scratch) {
    let mut var_ids = std::mem::take(&mut arena.var_ids);
    let mut vars = std::mem::take(&mut arena.vars);
    var_ids.clear();
    vars.clear();
    let intern = |v: Var, vars: &mut Vec<Var>, var_ids: &mut FastMap<Var, usize>| {
        *var_ids.entry(v).or_insert_with(|| {
            vars.push(v);
            vars.len() - 1
        })
    };
    // Fixed variables first so their scratch cells can be seeded.
    for (v, _) in fixed.clone() {
        intern(v, &mut vars, &mut var_ids);
    }
    let mut compiled = std::mem::take(&mut arena.atoms);
    compiled.clear();
    compiled.extend(atoms.iter().map(|a| {
        CompiledAtom {
            pred: a.pred,
            slots: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Const(v) => Slot::Const(Elem::constant(v)),
                    Term::Var(v) => Slot::Var(intern(*v, &mut vars, &mut var_ids)),
                })
                .collect(),
        }
    }));
    let mut bind = std::mem::take(&mut arena.bind);
    bind.clear();
    bind.resize(vars.len(), None);
    for (v, e) in fixed {
        bind[var_ids[&v]] = Some(instance.resolve(&e));
    }
    arena.var_ids = var_ids; // interning map no longer needed; keep capacity
    let mut strata = std::mem::take(&mut arena.strata);
    strata.clear();
    strata.resize(compiled.len(), Stratum::Any);
    let mut trail = std::mem::take(&mut arena.trail);
    trail.clear();
    let mut fact_ids = std::mem::take(&mut arena.fact_ids);
    fact_ids.clear();
    fact_ids.resize(atoms.len(), u32::MAX);
    let mut order = std::mem::take(&mut arena.order);
    order.clear();
    order.extend(0..atoms.len());
    let ctx = Ctx {
        instance,
        strata,
        atoms: compiled,
        vars,
        threshold: 0,
        delta: None,
        limit,
    };
    let scratch = Scratch {
        bind,
        trail,
        fact_ids,
        order,
        results: Vec::new(),
    };
    (ctx, scratch)
}

/// Estimated candidate count for pending atom `ai` under the current
/// bindings, plus the most selective bound position and its element.
/// Count-only probes — nothing is materialized for atoms that lose the
/// selection.
fn estimate(ctx: &Ctx<'_>, bind: &[Option<Elem>], ai: usize) -> (usize, Option<(u32, Elem)>) {
    let atom = &ctx.atoms[ai];
    let mut best = usize::MAX;
    let mut best_probe = None;
    for (i, slot) in atom.slots.iter().enumerate() {
        let elem = match slot {
            Slot::Const(e) => Some(e),
            Slot::Var(v) => bind[*v].as_ref(),
        };
        if let Some(e) = elem {
            let n = ctx.instance.count_with(atom.pred, i as u32, e);
            if n < best {
                best = n;
                best_probe = Some((i as u32, *e));
            }
        }
    }
    if best_probe.is_none() {
        best = match ctx.strata[ai] {
            // An unbound delta anchor can only match delta facts.
            Stratum::New => ctx.delta.map(|d| d.facts_of(atom.pred).len()).unwrap_or(0),
            _ => ctx.instance.pred_count(atom.pred),
        };
    }
    (best, best_probe)
}

/// The candidate posting list for atom `ai`: the facts holding `probe`'s
/// element at its position, or with no probe every fact of the atom's
/// stratum (borrowing the instance or the delta index — never copied).
fn candidates<'a>(ctx: &'a Ctx<'_>, ai: usize, probe: Option<(u32, Elem)>) -> &'a [u32] {
    let atom = &ctx.atoms[ai];
    match probe {
        Some((p, elem)) => ctx.instance.probe(atom.pred, p, &elem),
        None => match ctx.strata[ai] {
            Stratum::New => ctx.delta.map(|d| d.facts_of(atom.pred)).unwrap_or(&[]),
            _ => ctx.instance.pred_facts(atom.pred),
        },
    }
}

/// Recursive backtracking over the pending atoms `order[depth..]`.
fn search(ctx: &Ctx<'_>, s: &mut Scratch, depth: usize) {
    if s.results.len() >= ctx.limit {
        return;
    }
    if depth == ctx.atoms.len() {
        emit(ctx, s);
        return;
    }
    // Select the most selective pending atom and swap it to `depth`.
    let mut best = usize::MAX;
    let mut best_probe: Option<(u32, Elem)> = None;
    let mut best_slot = depth;
    for slot in depth..s.order.len() {
        let (n, probe) = estimate(ctx, &s.bind, s.order[slot]);
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
    let cands: &[u32] = candidates(ctx, ai, best_probe);

    let trail_mark = s.trail.len();
    for &fid in cands {
        if try_match(ctx, s, ai, fid) {
            s.fact_ids[ai] = fid;
            search(ctx, s, depth + 1);
            s.fact_ids[ai] = u32::MAX;
        }
        // Undo bindings made by this candidate.
        for v in s.trail.drain(trail_mark..) {
            s.bind[v] = None;
        }
        if s.results.len() >= ctx.limit {
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
    match ctx.strata[ai] {
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
    let fact = ctx.instance.fact(fid);
    let atom = &ctx.atoms[ai];
    if fact.args.len() != atom.slots.len() {
        return false;
    }
    let mark = s.trail.len();
    for (slot, e) in atom.slots.iter().zip(fact.args.iter()) {
        let ok = match slot {
            Slot::Const(c) => c == e,
            Slot::Var(v) => match &s.bind[*v] {
                Some(bound) => bound == e,
                None => {
                    s.bind[*v] = Some(*e);
                    s.trail.push(*v);
                    true
                }
            },
        };
        if !ok {
            for v in s.trail.drain(mark..) {
                s.bind[v] = None;
            }
            return false;
        }
    }
    true
}

/// Record the current full assignment as a result.
fn emit(ctx: &Ctx<'_>, s: &mut Scratch) {
    let map: FastMap<Var, Elem> = ctx
        .vars
        .iter()
        .zip(s.bind.iter())
        .filter_map(|(v, b)| b.map(|e| (*v, e)))
        .collect();
    s.results.push(Hom {
        map,
        fact_ids: s.fact_ids.clone(),
    });
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
    find_homs_extending(instance, atoms, pairs(fixed), cfg.limit)
}

/// A fixed-variable map as the `(variable, image)` pairs [`compile`] takes.
fn pairs(fixed: &FastMap<Var, Elem>) -> impl Iterator<Item = (Var, Elem)> + Clone + '_ {
    fixed.iter().map(|(v, e)| (*v, *e))
}

/// [`find_homs`] with the partial assignment as pairs.
fn find_homs_extending(
    instance: &Instance,
    atoms: &[Atom],
    fixed: impl Iterator<Item = (Var, Elem)> + Clone,
    limit: usize,
) -> Vec<Hom> {
    with_arena(|arena| {
        let (ctx, mut scratch) = compile(arena, instance, atoms, fixed, limit);
        search(&ctx, &mut scratch, 0);
        let results = std::mem::take(&mut scratch.results);
        arena.recycle(ctx, scratch);
        results
    })
}

/// Whether `atoms` has a homomorphism into `instance` extending the
/// `fixed` pairs — [`find_one_hom`] for a caller that holds its partial
/// assignment as parallel slices and needs no witness (the restricted
/// chase's per-trigger applicability probe).
pub(crate) fn has_hom(
    instance: &Instance,
    atoms: &[Atom],
    fixed: impl Iterator<Item = (Var, Elem)> + Clone,
) -> bool {
    !find_homs_extending(instance, atoms, fixed, 1).is_empty()
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
    with_arena(|arena| {
        let (mut ctx, mut scratch) = compile(arena, instance, atoms, pairs(fixed), cfg.limit);
        ctx.delta = Some(delta);
        ctx.threshold = delta.threshold;
        for anchor in 0..atoms.len() {
            if delta.facts_of(atoms[anchor].pred).is_empty() {
                continue;
            }
            for i in 0..atoms.len() {
                ctx.strata[i] = match i.cmp(&anchor) {
                    std::cmp::Ordering::Less => Stratum::Old,
                    std::cmp::Ordering::Equal => Stratum::New,
                    std::cmp::Ordering::Greater => Stratum::Any,
                };
            }
            search(&ctx, &mut scratch, 0);
            if scratch.results.len() >= cfg.limit {
                break;
            }
        }
        let results = std::mem::take(&mut scratch.results);
        arena.recycle(ctx, scratch);
        results
    })
}

/// The chase driver's trigger enumeration: full search when `delta` is
/// `None` (first round), delta-restricted search otherwise.
pub(crate) fn find_trigger_homs(
    instance: &Instance,
    atoms: &[Atom],
    cfg: HomConfig,
    delta: Option<&DeltaIndex>,
) -> Vec<Hom> {
    match delta {
        None => find_homs(instance, atoms, &FastMap::default(), cfg),
        Some(d) => find_homs_delta(instance, atoms, &FastMap::default(), cfg, d),
    }
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
        let run = |q: &[Atom]| {
            let full = find_homs(&i, q, &FastMap::default(), HomConfig::default());
            let delta = i.delta_index(0);
            let anchored =
                find_homs_delta(&i, q, &FastMap::default(), HomConfig::default(), &delta);
            let seen =
                |hs: Vec<Hom>| -> Vec<_> { hs.into_iter().map(|h| (h.fact_ids, h.map)).collect() };
            (seen(full), seen(anchored))
        };
        // This thread's arena is warm from the earlier queries of the loop;
        // a new thread starts with an empty one.
        for q in &queries {
            let warm = run(q);
            let fresh = std::thread::scope(|s| s.spawn(|| run(q)).join().unwrap());
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
