//! The chase: one fixpoint driver, two firing policies.
//!
//! PACB is a forward chase followed by a provenance backchase — the *same*
//! fixpoint computation, differing only in how one trigger fires. The
//! driver here owns everything the two share: the round loop, the budget
//! guard, the trigger search, the EGD arm and cache invalidation on null
//! retirement. The rest is a `FiringPolicy`, a type parameter of the driver
//! (static dispatch on the per-trigger path):
//!
//! - `Restricted` — the standard chase behind [`chase`]. A TGD trigger
//!   fires only when its conclusion has no image under the trigger's
//!   frontier binding, inventing fresh nulls; every EGD trigger fires.
//! - `Skolemized` — the provenance chase behind
//!   [`crate::pchase::prov_chase`] (see [`mod@crate::pchase`]).
//!
//! There is one firing schedule: every round searches the whole set and
//! fires in constraint order until a round changes nothing. The fixpoint
//! does not depend on the order triggers fire in, so a
//! [`crate::wa::TerminationCertificate`] — `Stratified` included — is a
//! termination proof that lifts the budget guard
//! ([`ChaseConfig::with_certificate`]), never an execution order.
//!
//! Constraints are compiled once per **prepared set**
//! (`PreparedConstraints`: premises, firing actions with pre-interned
//! constants and dense frontier/existential slots, and a premise-predicate
//! → constraints index), not per run: the driver only ever chases a
//! prepared set. The slice-taking entry points ([`chase`],
//! [`crate::pchase::prov_chase`], and the containment checks built on
//! them) prepare their argument and run; a
//! [`crate::pacb::Rewriter`] prepares its three sets once and chases them
//! for every query. A prepared set is immutable and shared freely between
//! threads.
//!
//! # Semi-naive delta evaluation
//!
//! The classic chase loop re-enumerates *every* homomorphism of every
//! premise each round; at fixpoint the final round does a full search only
//! to discover nothing changed. The driver is **semi-naive**: the instance
//! stamps every fact with the epoch at which it last changed (insertion,
//! EGD argument rewrite, provenance growth — see
//! [`crate::instance::Instance::delta_index`]), the loop advances the epoch
//! once per round, and from the second round on each constraint only
//! searches for triggers that involve at least one fact from the previous
//! round's delta ([`crate::hom::find_homs_delta`]). Provenance *growth*
//! bumps a fact's epoch too, so a re-derivation whose only effect is a
//! wider formula still re-triggers downstream constraints — the provenance
//! fixpoint is the naive loop's.
//!
//! # The live-premise rule
//!
//! Most constraints of a large set are idle in any one round: the
//! mediator's combined set has a premise for every relation of every data
//! model, a query's canonical instance facts over a handful. A round
//! therefore searches only the premises that *can* have a trigger:
//!
//! - in the first round, a premise every one of whose predicates has at
//!   least one alive fact ([`crate::instance::Instance::pred_count`]);
//! - in a delta round, only the constraints the prepared set's index lists
//!   under a predicate with delta facts — with the same all-populated
//!   filter on top.
//!
//! The rule is exact, not a heuristic: a homomorphism needs a fact per
//! premise atom, and a semi-naive trigger needs a delta fact under one of
//! them (an EGD merge that rewrites a fact of an otherwise idle predicate
//! stamps it with the round's epoch, so it *is* a delta fact). A skipped
//! search would have returned the empty list; skipping it leaves triggers,
//! firing order, invented nulls, errors and every counter but
//! [`ChaseStats::premise_searches`] — which counts the searches that did
//! run — bit-identical.
//!
//! # The search/apply phase split
//!
//! 1. **Search phase (read-only).** Every live constraint's trigger
//!    search (`find_trigger_homs`) runs against the *same frozen*
//!    round-start instance, in constraint order, on the caller's thread and
//!    its matcher scratch (see [`mod@crate::hom`]). One thread does all of
//!    it: a rewrite's chases are tens
//!    of facts, and a round's whole search costs less than handing it to
//!    another thread (EXPERIMENTS.md, "Parallelism inside one rewrite:
//!    what was measured").
//! 2. **Apply phase.** Triggers fire in constraint order, then
//!    trigger order. Every binding is re-resolved through the union-find
//!    at fire time (earlier firings in the same round may have merged
//!    elements) and everything a policy consults — TGD applicability, the
//!    Skolem table, trigger provenance, the EGD certainty gate — is read
//!    from the *live* instance, so the split changes no semantics: a
//!    trigger another constraint satisfied moments earlier still does not
//!    fire.
//!
//! A trigger whose newest fact was created by an *earlier* constraint in
//! the same round is found next round — searches see the round-start
//! snapshot, and facts created during the apply phase carry the current
//! epoch, putting them in the next delta — so the fixpoint is the
//! interleaved loop's; only the number of rounds may differ.
//!
//! # The applicability memo
//!
//! The restricted chase probes, per TGD trigger, whether the conclusion
//! already has an image under the trigger's frontier binding (a
//! witness-free [`crate::hom::find_one_hom`]). Distinct triggers
//! frequently share a frontier image (transitive closure derives the same
//! `(x, z)` pair through every midpoint `y`), and delta rounds re-discover triggers whose probe already
//! succeeded. With [`ChaseConfig::memo`] on (the default), a per-run memo
//! records `(constraint index, resolved frontier images)` pairs proven
//! satisfied — by a successful probe or by the firing itself — and skips
//! the probe for every later trigger with the same key.
//!
//! **Invalidation rule:** satisfaction is monotone as the instance grows
//! (facts only die by deduplication against an identical survivor, and
//! argument rewriting maps any witness image to its resolved form), so an
//! entry can only be disturbed by an EGD merge *retiring one of its keyed
//! elements*. After each merge the driver tells the policy which null was
//! retired ([`crate::instance::Instance::merge_retired`]) and the memo
//! drops exactly the entries whose key mentions it — the occurrence-list
//! pattern the instance uses for incremental normalization. Retired ids
//! are never re-issued, so stale keys cannot be misread; memoization
//! changes which probes run, never what fires ([`ChaseStats::core`] is
//! identical with the memo on or off). The provenance chase's Skolem table
//! is keyed and invalidated the same way.

use crate::hom::{find_trigger_homs, has_hom, Hom, HomConfig};
use crate::instance::{DeltaIndex, Elem, Inconsistent, Instance};
use estocada_pivot::{Atom, Constraint, Symbol, Term, Var};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Resource budget and knobs for a chase run, of either flavour.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Maximum number of full rounds over the constraint set.
    pub max_rounds: usize,
    /// Maximum number of facts the instance may grow to.
    pub max_facts: usize,
    /// Homomorphism search configuration.
    pub hom: HomConfig,
    /// Restricted chase: memoize applicability probes across triggers and
    /// rounds (see the module docs). Provenance chase: index the Skolem
    /// table by null so EGD merges garbage-collect entries keyed on retired
    /// nulls, and count Skolem hits/misses in the memo counters. Never
    /// changes the result instance, errors or [`ChaseStats::core`].
    pub memo: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 10_000,
            max_facts: 500_000,
            hom: HomConfig::default(),
            memo: true,
        }
    }
}

/// Why a chase run failed.
#[derive(Debug, Clone)]
pub enum ChaseError {
    /// Budget exhausted — the constraint set may be non-terminating (run
    /// [`crate::wa::certify`] for a [`crate::wa::TerminationCertificate`]
    /// with a concrete witness cycle).
    Budget {
        /// Rounds executed when the budget ran out.
        rounds: usize,
        /// Facts in the instance when the budget ran out.
        facts: usize,
    },
    /// An EGD forced two distinct constants equal.
    Inconsistent(Inconsistent),
}

impl fmt::Display for ChaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaseError::Budget { rounds, facts } => write!(
                f,
                "chase budget exhausted after {rounds} rounds / {facts} facts \
                 (constraint set may be non-terminating: run wa::certify for \
                 a termination certificate with a witness cycle)"
            ),
            ChaseError::Inconsistent(i) => write!(f, "{i}"),
        }
    }
}

impl std::error::Error for ChaseError {}

/// Counters reported by a successful chase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaseStats {
    /// Rounds until fixpoint.
    pub rounds: usize,
    /// Restricted chase: TGD triggers that fired. Provenance chase:
    /// conclusion facts a firing created or widened.
    pub tgd_fires: usize,
    /// EGD firings that merged elements.
    pub egd_merges: usize,
    /// Applicability probes (provenance chase: Skolem lookups) answered by
    /// the memo. 0 when the memo is off.
    pub memo_hits: usize,
    /// Applicability probes actually run (provenance chase: Skolem images
    /// invented) under the memo. 0 when the memo is off (the work still
    /// happens; it just isn't counted against a memo).
    pub memo_misses: usize,
    /// Premise searches actually run: one per (constraint, round) whose
    /// premise the live-premise rule (module docs) could not rule out.
    /// Independent of the memo.
    pub premise_searches: usize,
}

impl ChaseStats {
    /// The memo-independent counters `(rounds, tgd_fires, egd_merges)`.
    ///
    /// Identical for memo-on and memo-off runs of the same chase — the
    /// memo elides redundant applicability probes, never changes what
    /// fires — while the memo hit/miss counters themselves are diagnostic
    /// and differ by construction, and `premise_searches` counts work the
    /// search phase did, not what fired. Differential suites compare this.
    pub fn core(&self) -> (usize, usize, usize) {
        (self.rounds, self.tgd_fires, self.egd_merges)
    }
}

impl std::ops::AddAssign for ChaseStats {
    fn add_assign(&mut self, s: ChaseStats) {
        self.rounds += s.rounds;
        self.tgd_fires += s.tgd_fires;
        self.egd_merges += s.egd_merges;
        self.memo_hits += s.memo_hits;
        self.memo_misses += s.memo_misses;
        self.premise_searches += s.premise_searches;
    }
}

/// Run the restricted chase of `constraints` over `instance` to fixpoint.
///
/// TGD triggers fire only when the conclusion has no extension in the
/// current instance (restricted-chase applicability); EGDs merge elements
/// through the instance union-find. Deterministic: constraints fire in the
/// given order, round-robin, until a full round changes nothing. The first
/// round searches all triggers; later rounds search semi-naively (see
/// module docs).
pub fn chase(
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<ChaseStats, ChaseError> {
    chase_prepared(instance, &PreparedConstraints::new(constraints), cfg)
}

/// The restricted chase over an already prepared set — what [`chase`] runs
/// after preparing its slice, and what the per-epoch
/// [`crate::pacb::Rewriter`] runs directly.
pub(crate) fn chase_prepared(
    instance: &mut Instance,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
) -> Result<ChaseStats, ChaseError> {
    run_chase(instance, set, cfg, &mut Restricted::new(cfg))
}

/// How one trigger fires — the only thing the restricted chase and the
/// provenance chase disagree on. Called from the serial apply phase.
pub(crate) trait FiringPolicy {
    /// Fire TGD trigger `h` of constraint `cidx` against the live instance;
    /// returns whether the instance changed.
    fn fire_tgd(
        &mut self,
        instance: &mut Instance,
        cidx: usize,
        tgd: &CompiledTgd,
        h: &Hom,
        stats: &mut ChaseStats,
    ) -> bool;

    /// Whether EGD trigger `h` may fire, read at fire time.
    fn egd_fires(&self, instance: &Instance, h: &Hom) -> bool;

    /// An EGD merge retired null `retired`: drop the cache entries keyed on
    /// it (see the module docs' invalidation rule).
    fn invalidate_null(&mut self, retired: u32);
}

/// An equality term with its constant pre-interned, keeping the global
/// constant-table lookup out of the per-trigger path.
#[derive(Clone, Copy)]
enum Slot {
    Const(Elem),
    Var(Var),
}

impl Slot {
    fn compile(t: &Term) -> Slot {
        match t {
            Term::Const(v) => Slot::Const(Elem::constant(v)),
            Term::Var(v) => Slot::Var(*v),
        }
    }
}

/// A conclusion term, resolved at compile time to where its image comes
/// from at fire time: a pre-interned constant, or a position in the
/// trigger's frontier images or existential images.
#[derive(Clone, Copy)]
enum ConclusionSlot {
    Const(Elem),
    Frontier(usize),
    Existential(usize),
}

/// A TGD compiled for firing. Only the conclusion-relevant bindings matter
/// once a trigger is found: applicability and Skolem keys constrain exactly
/// the frontier variables that occur in the conclusion, and firing reads
/// those plus the existentials — premise-only variables never escape the
/// trigger.
pub(crate) struct CompiledTgd {
    /// The conclusion atoms (the applicability probe's pattern).
    pub(crate) conclusion: Vec<Atom>,
    /// The conclusion again, as insertable slots.
    slots: Vec<(Symbol, Vec<ConclusionSlot>)>,
    /// Frontier variables that occur in the conclusion, sorted.
    pub(crate) frontier: Vec<Var>,
    /// Existential variables, sorted.
    pub(crate) existentials: Vec<Var>,
}

impl CompiledTgd {
    /// The conclusion facts under a trigger's `frontier` images and the
    /// `existentials`' images, each parallel to the field of that name.
    pub(crate) fn conclusion_facts<'s>(
        &'s self,
        frontier: &'s [Elem],
        existentials: &'s [Elem],
    ) -> impl Iterator<Item = (Symbol, Vec<Elem>)> + 's {
        self.slots.iter().map(move |(pred, slots)| {
            let args = slots.iter().map(|s| match *s {
                ConclusionSlot::Const(e) => e,
                ConclusionSlot::Frontier(i) => frontier[i],
                ConclusionSlot::Existential(i) => existentials[i],
            });
            (*pred, args.collect())
        })
    }
}

/// What firing a compiled constraint does.
enum Action {
    Tgd(CompiledTgd),
    Egd { name: Symbol, equal: (Slot, Slot) },
}

/// Compile a constraint into its premise (for the search phase) and its
/// action (for the apply phase).
fn compile(c: &Constraint) -> (Vec<Atom>, Action) {
    match c {
        Constraint::Tgd(t) => {
            let existentials: Vec<Var> = t.existentials().into_iter().collect();
            let conclusion_vars: BTreeSet<Var> = t.conclusion.iter().flat_map(Atom::vars).collect();
            let frontier: Vec<Var> = conclusion_vars
                .into_iter()
                .filter(|v| existentials.binary_search(v).is_err())
                .collect();
            let slot = |t: &Term| match t {
                Term::Const(v) => ConclusionSlot::Const(Elem::constant(v)),
                Term::Var(v) => match existentials.binary_search(v) {
                    Ok(i) => ConclusionSlot::Existential(i),
                    Err(_) => ConclusionSlot::Frontier(
                        frontier
                            .binary_search(v)
                            .expect("a conclusion variable is existential or frontier"),
                    ),
                },
            };
            let slots = |a: &Atom| (a.pred, a.args.iter().map(slot).collect());
            let tgd = CompiledTgd {
                conclusion: t.conclusion.clone(),
                slots: t.conclusion.iter().map(slots).collect(),
                frontier,
                existentials,
            };
            (t.premise.clone(), Action::Tgd(tgd))
        }
        Constraint::Egd(e) => {
            let equal = (Slot::compile(&e.equal.0), Slot::compile(&e.equal.1));
            let name = e.name;
            (e.premise.clone(), Action::Egd { name, equal })
        }
    }
}

/// A constraint set prepared for chasing: everything a run derives from the
/// constraints alone, built once and shared — immutably — by every run over
/// the set (see the module docs). The slice-taking entry points prepare
/// their argument and run; a [`crate::pacb::Rewriter`] prepares its three
/// sets once per catalog epoch.
pub(crate) struct PreparedConstraints {
    /// Premise per constraint — the search phase's patterns.
    premises: Vec<Vec<Atom>>,
    /// Action per constraint — what the apply phase fires.
    actions: Vec<Action>,
    /// Premise predicate → the constraints with an atom over it, ascending.
    /// A semi-naive trigger needs a delta fact, so a delta round searches
    /// only what this lists under the predicates that changed.
    by_premise_pred: HashMap<Symbol, Vec<usize>>,
    /// Test-only reference mode ([`crate::testkit::chase_every_premise`]):
    /// search every premise every round, as if nothing could be ruled out.
    pub(crate) search_every_premise: bool,
}

impl PreparedConstraints {
    /// Compile `constraints`, keeping their order (= firing order).
    pub(crate) fn new(constraints: &[Constraint]) -> PreparedConstraints {
        let (premises, actions): (Vec<Vec<Atom>>, Vec<Action>) =
            constraints.iter().map(compile).unzip();
        let mut by_premise_pred: HashMap<Symbol, Vec<usize>> = HashMap::new();
        for (cidx, premise) in premises.iter().enumerate() {
            for atom in premise {
                let listed = by_premise_pred.entry(atom.pred).or_default();
                if listed.last() != Some(&cidx) {
                    listed.push(cidx);
                }
            }
        }
        PreparedConstraints {
            premises,
            actions,
            by_premise_pred,
            search_every_premise: false,
        }
    }

    /// Whether every predicate of constraint `cidx`'s premise has an alive
    /// fact — without one per atom no homomorphism exists.
    fn populated(&self, instance: &Instance, cidx: usize) -> bool {
        let premise = &self.premises[cidx];
        premise.iter().all(|a| instance.pred_count(a.pred) > 0)
    }

    /// The constraints whose premise this round has to search (the
    /// live-premise rule of the module docs), ascending.
    fn live(&self, instance: &Instance, delta: Option<&DeltaIndex>) -> Vec<usize> {
        // Per constraint, whether a premise predicate has delta facts; in
        // the first round (`None`) every fact counts as new.
        let touched = delta.map(|d| {
            let mut touched = vec![false; self.premises.len()];
            let changed = d.by_pred.iter().filter(|(_, facts)| !facts.is_empty());
            let listed = changed.filter_map(|(pred, _)| self.by_premise_pred.get(pred));
            for &cidx in listed.flatten() {
                touched[cidx] = true;
            }
            touched
        });
        let is_live = |cidx: usize| {
            self.search_every_premise
                || (touched.as_ref().is_none_or(|t| t[cidx]) && self.populated(instance, cidx))
        };
        (0..self.premises.len()).filter(|&c| is_live(c)).collect()
    }
}

/// The chase driver: take the prepared `set` over `instance` to fixpoint
/// under `cfg`'s budget, firing triggers through `policy`.
pub(crate) fn run_chase<P: FiringPolicy>(
    instance: &mut Instance,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
    policy: &mut P,
) -> Result<ChaseStats, ChaseError> {
    let mut stats = ChaseStats::default();
    // Epoch threshold separating "old" facts from the previous round's
    // delta; `None` = the first round, search everything.
    let mut threshold: Option<u64> = None;
    loop {
        if stats.rounds >= cfg.max_rounds {
            return Err(ChaseError::Budget {
                rounds: stats.rounds,
                facts: instance.len(),
            });
        }
        stats.rounds += 1;
        let round_epoch = instance.advance_epoch();
        let delta = threshold.map(|t| instance.delta_index(t));
        // Phase 1: read-only trigger search against the frozen
        // round-start instance.
        let (searched, triggers) = search_triggers(instance, set, cfg.hom, delta.as_ref());
        stats.premise_searches += searched;
        // Phase 2: serial apply in constraint order.
        let mut changed = false;
        for (cidx, homs) in triggers.into_iter().enumerate() {
            match &set.actions[cidx] {
                Action::Tgd(tgd) => {
                    for h in &homs {
                        changed |= policy.fire_tgd(instance, cidx, tgd, h, &mut stats);
                    }
                }
                Action::Egd { name, equal } => {
                    changed |= apply_egd(instance, *name, equal, &homs, policy, &mut stats)?;
                }
            }
            if instance.len() > cfg.max_facts {
                return Err(ChaseError::Budget {
                    rounds: stats.rounds,
                    facts: instance.len(),
                });
            }
        }
        if !changed {
            return Ok(stats);
        }
        threshold = Some(round_epoch);
    }
}

/// The read-only search phase (see the module docs): enumerate the
/// triggers of every constraint against the frozen instance, one list per
/// constraint in constraint (= firing) order, preceded by the number of
/// premises searched. Only the live premises (module docs) are; the others
/// cannot have a trigger and get the empty list.
fn search_triggers(
    instance: &Instance,
    set: &PreparedConstraints,
    hom: HomConfig,
    delta: Option<&DeltaIndex>,
) -> (usize, Vec<Vec<Hom>>) {
    let live = set.live(instance, delta);
    let mut out: Vec<Vec<Hom>> = vec![Vec::new(); set.premises.len()];
    for &cidx in &live {
        out[cidx] = find_trigger_homs(instance, &set.premises[cidx], hom, delta);
    }
    (live.len(), out)
}

/// The EGD arm of the apply phase: for each trigger the policy lets fire,
/// resolve the equality under the live union-find and merge, telling the
/// policy which null (if any) the merge retired. A constant clash is
/// rendered with the firing EGD's name and trigger facts (the
/// `with_trigger` form). Returns whether any merge happened.
fn apply_egd<P: FiringPolicy>(
    instance: &mut Instance,
    name: Symbol,
    equal: &(Slot, Slot),
    homs: &[Hom],
    policy: &mut P,
    stats: &mut ChaseStats,
) -> Result<bool, ChaseError> {
    let mut changed = false;
    for h in homs {
        if !policy.egd_fires(instance, h) {
            continue;
        }
        let resolve = |s: &Slot| match s {
            Slot::Const(e) => *e,
            Slot::Var(v) => instance.resolve(
                h.map
                    .get(v)
                    .expect("EGD equality variable must occur in premise"),
            ),
        };
        let (a, b) = (resolve(&equal.0), resolve(&equal.1));
        match instance.merge_retired(&a, &b) {
            Ok(Some(retired)) => {
                policy.invalidate_null(retired);
                stats.egd_merges += 1;
                changed = true;
            }
            Ok(None) => {}
            Err(e) => {
                // Name the EGD and its trigger facts: a bare constant
                // clash is undiagnosable in a large constraint set.
                let trigger: Vec<String> = h
                    .fact_ids
                    .iter()
                    .map(|fid| instance.format_fact(*fid))
                    .collect();
                return Err(ChaseError::Inconsistent(e.with_trigger(name, trigger)));
            }
        }
    }
    Ok(changed)
}

/// The restricted-chase firing policy: probe applicability (through the
/// memo when [`ChaseConfig::memo`] is on), then fire with fresh nulls.
pub(crate) struct Restricted {
    /// `(constraint, frontier images)` pairs proven satisfied.
    memo: Option<FrontierCache<()>>,
    /// Scratch for the current trigger's memo key.
    key: Vec<Elem>,
    /// Scratch for the fresh nulls of the current firing.
    invented: Vec<Elem>,
}

impl Restricted {
    fn new(cfg: &ChaseConfig) -> Restricted {
        Restricted {
            memo: cfg.memo.then(|| FrontierCache::new(true)),
            key: Vec::new(),
            invented: Vec::new(),
        }
    }
}

impl FiringPolicy for Restricted {
    fn fire_tgd(
        &mut self,
        instance: &mut Instance,
        cidx: usize,
        tgd: &CompiledTgd,
        h: &Hom,
        stats: &mut ChaseStats,
    ) -> bool {
        // Re-resolve the trigger under the live union-find (earlier
        // firings this round may have merged elements).
        let resolved = tgd.frontier.iter().map(|v| instance.resolve(&h.map[v]));
        self.key.clear();
        self.key.extend(resolved);
        if let Some(m) = &self.memo {
            // A hit skips the probe *and* the per-trigger assignment
            // build — the whole remaining cost.
            if m.get(cidx, &self.key).is_some() {
                stats.memo_hits += 1;
                return false;
            }
            stats.memo_misses += 1;
        }
        let bound = tgd.frontier.iter().copied().zip(self.key.iter().copied());
        let mut changed = false;
        if !has_hom(instance, &tgd.conclusion, bound) {
            // Fire: fresh nulls for existential variables.
            self.invented.clear();
            let fresh = tgd.existentials.iter().map(|_| instance.fresh_null());
            self.invented.extend(fresh);
            for (pred, args) in tgd.conclusion_facts(&self.key, &self.invented) {
                changed |= instance.insert(pred, args).1;
            }
            stats.tgd_fires += 1;
        }
        // Satisfied now, by the probe's witness or by the firing itself:
        // later triggers sharing the key skip their probe entirely.
        if let Some(m) = &mut self.memo {
            m.insert(cidx, self.key.clone(), ());
        }
        changed
    }

    fn egd_fires(&self, _: &Instance, _: &Hom) -> bool {
        true
    }

    fn invalidate_null(&mut self, retired: u32) {
        if let Some(m) = &mut self.memo {
            m.invalidate_null(retired);
        }
    }
}

/// A per-run cache keyed by `(constraint index, resolved conclusion-frontier
/// images)` — the applicability memo's and the Skolem table's shape — with
/// the module docs' occurrence-indexed invalidation.
pub(crate) struct FrontierCache<V> {
    /// constraint index → frontier images → value (lookups borrow the
    /// candidate key as a slice — no allocation on a hit).
    map: HashMap<usize, HashMap<Vec<Elem>, V>>,
    /// null id → keys mentioning it, mirroring the instance's `null →
    /// fact ids` occurrence index: a merge retiring null `n` invalidates
    /// exactly `occ[n]`. Empty when not `indexed`: entries never die.
    occ: HashMap<u32, Vec<(usize, Vec<Elem>)>>,
    indexed: bool,
}

impl<V> FrontierCache<V> {
    pub(crate) fn new(indexed: bool) -> FrontierCache<V> {
        FrontierCache {
            map: HashMap::new(),
            occ: HashMap::new(),
            indexed,
        }
    }

    pub(crate) fn get(&self, cidx: usize, key: &[Elem]) -> Option<&V> {
        self.map.get(&cidx)?.get(key)
    }

    pub(crate) fn insert(&mut self, cidx: usize, key: Vec<Elem>, value: V) {
        if self.indexed {
            for n in key.iter().filter_map(Elem::as_null) {
                self.occ.entry(n).or_default().push((cidx, key.clone()));
            }
        }
        self.map.entry(cidx).or_default().insert(key, value);
    }

    /// Drop every entry whose key mentions the retired null (no-op when
    /// none does — constants and surviving nulls never invalidate).
    pub(crate) fn invalidate_null(&mut self, retired: u32) {
        for (cidx, key) in self.occ.remove(&retired).unwrap_or_default() {
            if let Some(m) = self.map.get_mut(&cidx) {
                m.remove(key.as_slice());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{Egd, Tgd};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn c(v: i64) -> Elem {
        Elem::of(v)
    }

    #[test]
    fn transitivity_chase_computes_closure() {
        // Edge(a,b) ∧ Path(b,c) → Path(a,c); Edge(a,b) → Path(a,b)
        let edge_to_path = Tgd::new(
            "e2p",
            vec![Atom::new("Edge", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(1)])],
        );
        let trans = Tgd::new(
            "trans",
            vec![
                Atom::new("Edge", vec![Term::var(0), Term::var(1)]),
                Atom::new("Path", vec![Term::var(1), Term::var(2)]),
            ],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(2)])],
        );
        let mut i = Instance::new();
        for (a, b) in [(1, 2), (2, 3), (3, 4)] {
            i.insert(sym("Edge"), vec![c(a), c(b)]);
        }
        let stats = chase(
            &mut i,
            &[edge_to_path.into(), trans.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        assert!(stats.rounds >= 2);
        // Paths: 12,23,34,13,24,14 = 6
        assert_eq!(i.facts_of(sym("Path")).count(), 6);
    }

    #[test]
    fn tgd_with_existential_invents_null_once() {
        // Person(x) → HasParent(x, y)
        let t = Tgd::new(
            "parent",
            vec![Atom::new("Person", vec![Term::var(0)])],
            vec![Atom::new("HasParent", vec![Term::var(0), Term::var(1)])],
        );
        let mut i = Instance::new();
        i.insert(sym("Person"), vec![c(1)]);
        chase(&mut i, &[t.clone().into()], &ChaseConfig::default()).unwrap();
        assert_eq!(i.facts_of(sym("HasParent")).count(), 1);
        // Restricted chase: re-chasing adds nothing.
        let stats = chase(&mut i, &[t.into()], &ChaseConfig::default()).unwrap();
        assert_eq!(stats.tgd_fires, 0);
        assert_eq!(i.facts_of(sym("HasParent")).count(), 1);
    }

    #[test]
    fn egd_merges_nulls_into_constants() {
        // R(x, y1) ∧ R(x, y2) → y1 = y2  (functional)
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("R"), vec![c(1), n]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        let stats = chase(&mut i, &[e.into()], &ChaseConfig::default()).unwrap();
        assert!(stats.egd_merges >= 1);
        assert_eq!(i.resolve(&n), c(9));
        assert_eq!(i.len(), 1); // the two facts collapsed
    }

    #[test]
    fn egd_constant_clash_errors() {
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let mut i = Instance::new();
        i.insert(sym("R"), vec![c(1), c(8)]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        match chase(&mut i, &[e.into()], &ChaseConfig::default()) {
            Err(ChaseError::Inconsistent(inc)) => {
                // The error names the EGD that fired and its trigger facts.
                assert_eq!(inc.egd, Some(sym("fd")));
                assert_eq!(inc.trigger_facts.len(), 2);
                let msg = inc.to_string();
                assert!(msg.contains("[fd]"), "missing EGD name: {msg}");
                assert!(msg.contains("R(1, "), "missing trigger facts: {msg}");
            }
            other => panic!("expected inconsistency, got {other:?}"),
        }
    }

    #[test]
    fn non_terminating_set_hits_budget() {
        // R(x) → S(x, y); S(x, y) → R(y)  — classic infinite chase.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("R", vec![Term::var(0)])],
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("R", vec![Term::var(1)])],
        );
        let mut i = Instance::new();
        i.insert(sym("R"), vec![c(1)]);
        let cfg = ChaseConfig {
            max_rounds: 50,
            max_facts: 100,
            ..ChaseConfig::default()
        };
        assert!(matches!(
            chase(&mut i, &[t1.into(), t2.into()], &cfg),
            Err(ChaseError::Budget { .. })
        ));
    }

    #[test]
    fn chase_is_idempotent_at_fixpoint() {
        let t = Tgd::new(
            "copy",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("B", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert(sym("A"), vec![c(1)]);
        chase(&mut i, &[t.clone().into()], &ChaseConfig::default()).unwrap();
        let before = i.len();
        let stats = chase(&mut i, &[t.into()], &ChaseConfig::default()).unwrap();
        assert_eq!(i.len(), before);
        assert_eq!(stats.tgd_fires, 0);
    }

    #[test]
    fn seminaive_matches_naive_on_deep_closure() {
        // A 12-node chain: transitive closure needs many delta rounds; the
        // result must be the full closure (n*(n+1)/2 paths over 12 edges).
        let edge_to_path = Tgd::new(
            "e2p",
            vec![Atom::new("Edge", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(1)])],
        );
        let trans = Tgd::new(
            "trans",
            vec![
                Atom::new("Path", vec![Term::var(0), Term::var(1)]),
                Atom::new("Path", vec![Term::var(1), Term::var(2)]),
            ],
            vec![Atom::new("Path", vec![Term::var(0), Term::var(2)])],
        );
        let mut i = Instance::new();
        for k in 0..12 {
            i.insert(sym("Edge"), vec![c(k), c(k + 1)]);
        }
        chase(
            &mut i,
            &[edge_to_path.into(), trans.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        assert_eq!(i.facts_of(sym("Path")).count(), 12 * 13 / 2);
    }

    /// Closure constraints over a chain — many triggers per frontier
    /// image. The shared testkit workload, so the unit tests, the
    /// differential suite and the e8 bench exercise the same shape.
    fn closure_set() -> (Instance, Vec<Constraint>) {
        crate::testkit::phase_split_workload(1, 8)
    }

    use crate::testkit::dump_state as dump;

    #[test]
    fn memo_on_and_off_reach_identical_fixpoints() {
        let (seed, constraints) = closure_set();
        let mut on = seed.clone();
        let mut off = seed.clone();
        let s_on = chase(&mut on, &constraints, &ChaseConfig::default()).unwrap();
        let s_off = chase(
            &mut off,
            &constraints,
            &ChaseConfig {
                memo: false,
                ..ChaseConfig::default()
            },
        )
        .unwrap();
        assert_eq!(s_on.core(), s_off.core());
        assert_eq!(dump(&on), dump(&off));
        // The closure workload re-derives pairs through every midpoint:
        // the memo must actually absorb probes.
        assert!(s_on.memo_hits > 0, "no memo hits on closure: {s_on:?}");
        assert_eq!(s_off.memo_hits, 0);
        assert_eq!(s_off.memo_misses, 0);
    }

    #[test]
    fn memo_invalidation_survives_egd_merges() {
        // t1 invents a null R(x, n); the FD then merges n with the constant
        // 9 — retiring a null that appears in memoized frontier keys of t2
        // (R's second column feeds t2's frontier). The memo must not
        // suppress the downstream fire: S(9) is derivable only after the
        // merge.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let fd = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("S", vec![Term::var(1)])],
        );
        let constraints: Vec<Constraint> = vec![t1.into(), fd.into(), t2.into()];
        let run = |memo: bool| {
            let mut i = Instance::new();
            let n = i.fresh_null();
            i.insert(sym("A"), vec![c(1)]);
            i.insert(sym("R"), vec![c(1), n]);
            i.insert(sym("R"), vec![c(1), c(9)]);
            let cfg = ChaseConfig {
                memo,
                ..ChaseConfig::default()
            };
            let stats = chase(&mut i, &constraints, &cfg).unwrap();
            (dump(&i), stats)
        };
        let (on, s_on) = run(true);
        let (off, s_off) = run(false);
        assert_eq!(on, off);
        assert_eq!(s_on.core(), s_off.core());
        let (inst, _) = run(true);
        assert!(
            inst.iter().any(|(_, f, _, _)| f == "S(9)"),
            "memo suppressed the post-merge derivation: {inst:?}"
        );
    }

    #[test]
    fn inconsistent_error_is_identical_with_memo_on_and_off() {
        let e = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let pad = Tgd::new(
            "pad",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("T", vec![Term::var(0)])],
        );
        let constraints: Vec<Constraint> = vec![pad.into(), e.into()];
        let run = |memo: bool| {
            let mut i = Instance::new();
            i.insert(sym("R"), vec![c(1), c(8)]);
            i.insert(sym("R"), vec![c(1), c(9)]);
            let cfg = ChaseConfig {
                memo,
                ..ChaseConfig::default()
            };
            chase(&mut i, &constraints, &cfg).unwrap_err().to_string()
        };
        let reference = run(true);
        assert!(reference.contains("[fd]"), "missing EGD name: {reference}");
        assert_eq!(run(false), reference);
    }

    #[test]
    fn seminaive_handles_egd_rewrites_across_rounds() {
        // TGD produces R-pairs; an FD then merges their second columns;
        // the merged fact must re-trigger the downstream TGD.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let fd = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("S", vec![Term::var(1)])],
        );
        let mut i = Instance::new();
        let n = i.fresh_null();
        i.insert(sym("A"), vec![c(1)]);
        i.insert(sym("R"), vec![c(1), n]);
        i.insert(sym("R"), vec![c(1), c(9)]);
        chase(
            &mut i,
            &[t1.into(), fd.into(), t2.into()],
            &ChaseConfig::default(),
        )
        .unwrap();
        // FD merges n with 9 (and the TGD's fresh null too); S(9) derived.
        assert_eq!(i.resolve(&n), c(9));
        assert_eq!(i.facts_of(sym("S")).count(), 1);
    }
}
