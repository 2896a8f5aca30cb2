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
//! (`PreparedConstraints`: each premise and conclusion in the matcher's
//! flat slot form with its constants interned, firing actions with dense
//! frontier/existential slots, and a premise-predicate → constraints
//! index), not per run or per search: the driver only ever chases a
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
//!    search (`find_triggers`) runs against the *same frozen*
//!    round-start instance, in constraint order, on the caller's thread and
//!    its matcher scratch (see [`mod@crate::hom`]). A trigger is a row of
//!    bindings by compact variable id plus its fact ids, appended to one
//!    flat per-round buffer; the buffer, the delta index and the live list
//!    are the call's workspace's, refilled every round. One thread does
//!    all of it: a rewrite's chases are tens
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
//! search of the compiled conclusion that stops at the first match and
//! builds nothing). Distinct triggers
//! frequently share a frontier image (transitive closure derives the same
//! `(x, z)` pair through every midpoint `y`), and delta rounds re-discover triggers whose probe already
//! succeeded. A per-run memo records `(constraint index, resolved frontier
//! images)` pairs proven satisfied — by a successful probe or by the firing
//! itself — and skips the probe for every later trigger with the same key.
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
//! identical with the memo on or off — the memo-off run is the reference
//! [`crate::testkit::chase_without_memo`]). The provenance chase's Skolem
//! table is keyed and invalidated the same way.
//!
//! # Buffers
//!
//! Whatever a run fills and empties again — the instances it builds, the
//! round buffers, the memo — lives in a `Workspace` its caller makes and
//! drops. [`crate::pacb::Rewriter::rewrite`] makes one for all of its
//! chases on the calling thread, each spawned verification worker one of
//! its own, and every one-shot entry point ([`chase`],
//! [`crate::pchase::prov_chase`], the containment checks) one for its call:
//! the chases of a call insert into capacity the first of them grew, and
//! nothing outlives the call.

use crate::hom::{find_triggers, has_hom, HomConfig, Pattern, Sink};
use crate::instance::{DeltaIndex, Elem, Inconsistent, Instance, Store};
use crate::prov::Dnf;
use estocada_pivot::hash::{FastBuild, FastMap};
use estocada_pivot::kernel::IdTable;
use estocada_pivot::{Atom, Constraint, Symbol, Term, Var};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::BuildHasher;

/// Resource budget for a chase run, of either flavour.
#[derive(Debug, Clone, Copy)]
pub struct ChaseConfig {
    /// Maximum number of full rounds over the constraint set.
    pub max_rounds: usize,
    /// Maximum number of facts the instance may grow to.
    pub max_facts: usize,
    /// Homomorphism search configuration.
    pub hom: HomConfig,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            max_rounds: 10_000,
            max_facts: 500_000,
            hom: HomConfig::default(),
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
    /// the memo. 0 in the memo-off reference run.
    pub memo_hits: usize,
    /// Applicability probes actually run (provenance chase: Skolem images
    /// invented) under the memo. 0 in the memo-off reference run (the work
    /// still happens; it just isn't counted against a memo).
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
    let set = PreparedConstraints::new(constraints);
    chase_prepared(instance, &set, cfg, &mut Workspace::default())
}

/// The restricted chase over an already prepared set, on `ws`'s buffers —
/// what [`chase`] runs after preparing its slice, and what the per-epoch
/// [`crate::pacb::Rewriter`] runs directly.
pub(crate) fn chase_prepared(
    instance: &mut Instance,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
    ws: &mut Workspace,
) -> Result<ChaseStats, ChaseError> {
    let mut policy = Restricted { memo: set.memo };
    run_chase(instance, set, cfg, &mut policy, ws)
}

/// How one trigger fires — the only thing the restricted chase and the
/// provenance chase disagree on. Called from the serial apply phase.
pub(crate) trait FiringPolicy {
    /// Fire TGD trigger `t` of constraint `cidx` against the live instance,
    /// keeping what it learns in `cache` (the run's memo or Skolem table);
    /// returns whether the instance changed.
    fn fire_tgd(
        &mut self,
        instance: &mut Instance,
        cache: &mut FrontierCache,
        cidx: usize,
        tgd: &CompiledTgd,
        t: Trigger<'_>,
        stats: &mut ChaseStats,
    ) -> bool;

    /// Whether EGD trigger `t` may fire, read at fire time.
    fn egd_fires(&self, instance: &Instance, t: Trigger<'_>) -> bool;
}

/// One trigger, borrowed from the round's trigger buffer: the premise's
/// bindings by compact variable id, and the matched fact per premise atom.
#[derive(Clone, Copy)]
pub(crate) struct Trigger<'a> {
    pub(crate) bind: &'a [Elem],
    pub(crate) facts: &'a [u32],
}

/// An equality term with its constant pre-interned and its variable
/// numbered as in the premise, keeping the global constant-table lookup
/// out of the per-trigger path.
#[derive(Clone, Copy)]
enum Slot {
    Const(Elem),
    Var(u32),
    /// A variable the premise does not bind (validation rejects it, E003).
    Unbound,
}

impl Slot {
    fn compile(t: &Term, premise: &Pattern) -> Slot {
        match t {
            Term::Const(v) => Slot::Const(Elem::constant(v)),
            Term::Var(v) => premise.var_id(*v).map_or(Slot::Unbound, Slot::Var),
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
    /// The conclusion with the frontier numbered first (compact id `i` is
    /// `frontier[i]`): the applicability probe's pattern.
    conclusion: Pattern,
    /// The conclusion again, as insertable slots: a predicate and the end
    /// of its run in `slots` per atom.
    atoms: Vec<(Symbol, usize)>,
    slots: Vec<ConclusionSlot>,
    /// The premise's compact id of each frontier variable (those that occur
    /// in the conclusion), in variable order.
    frontier: Vec<u32>,
    /// Number of existential variables.
    existentials: usize,
}

impl CompiledTgd {
    /// The frontier images of trigger `t` under the live union-find, into
    /// `key`.
    pub(crate) fn frontier_key(&self, instance: &Instance, t: Trigger<'_>, key: &mut Vec<Elem>) {
        key.clear();
        let images = self.frontier.iter().map(|&v| t.bind[v as usize]);
        key.extend(images.map(|e| instance.resolve(&e)));
    }

    /// Number of existential variables.
    pub(crate) fn existentials(&self) -> usize {
        self.existentials
    }

    /// Number of conclusion atoms.
    pub(crate) fn conclusion_len(&self) -> usize {
        self.atoms.len()
    }

    /// Conclusion atom `i` under a trigger's `frontier` images and the
    /// `existentials`' images: its predicate, its arguments written into
    /// `args`.
    pub(crate) fn conclusion_fact(
        &self,
        i: usize,
        frontier: &[Elem],
        existentials: &[Elem],
        args: &mut Vec<Elem>,
    ) -> Symbol {
        let start = i.checked_sub(1).map_or(0, |p| self.atoms[p].1);
        let (pred, end) = self.atoms[i];
        args.clear();
        args.extend(self.slots[start..end].iter().map(|s| match *s {
            ConclusionSlot::Const(e) => e,
            ConclusionSlot::Frontier(i) => frontier[i],
            ConclusionSlot::Existential(i) => existentials[i],
        }));
        pred
    }
}

/// What firing a compiled constraint does.
enum Action {
    Tgd(CompiledTgd),
    Egd { name: Symbol, equal: (Slot, Slot) },
}

/// Compile a constraint into its premise pattern (for the search phase)
/// and its action (for the apply phase).
fn compile(c: &Constraint) -> (Pattern, Action) {
    match c {
        Constraint::Tgd(t) => {
            let premise = Pattern::new(&t.premise, &[]);
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
                    // Not existential, so in the frontier: its place there.
                    Err(_) => ConclusionSlot::Frontier(frontier.partition_point(|f| f < v)),
                },
            };
            let mut slots = Vec::new();
            let mut atoms = Vec::new();
            for a in &t.conclusion {
                slots.extend(a.args.iter().map(slot));
                atoms.push((a.pred, slots.len()));
            }
            let tgd = CompiledTgd {
                conclusion: Pattern::new(&t.conclusion, &frontier),
                atoms,
                slots,
                frontier: frontier.iter().filter_map(|v| premise.var_id(*v)).collect(),
                existentials: existentials.len(),
            };
            (premise, Action::Tgd(tgd))
        }
        Constraint::Egd(e) => {
            let premise = Pattern::new(&e.premise, &[]);
            let equal = (
                Slot::compile(&e.equal.0, &premise),
                Slot::compile(&e.equal.1, &premise),
            );
            let name = e.name;
            (premise, Action::Egd { name, equal })
        }
    }
}

/// A constraint set prepared for chasing: everything a run derives from the
/// constraints alone, built once and shared — immutably — by every run over
/// the set (see the module docs). The slice-taking entry points prepare
/// their argument and run; a [`crate::pacb::Rewriter`] prepares its three
/// sets once per catalog epoch.
pub(crate) struct PreparedConstraints {
    /// Premise per constraint, compiled — the search phase's patterns.
    premises: Vec<Pattern>,
    /// Action per constraint — what the apply phase fires.
    actions: Vec<Action>,
    /// Premise predicate → the constraints with an atom over it, ascending.
    /// A semi-naive trigger needs a delta fact, so a delta round searches
    /// only what this lists under the predicates that changed.
    by_premise_pred: FastMap<Symbol, Vec<usize>>,
    /// Test-only reference mode ([`crate::testkit::chase_every_premise`]):
    /// search every premise every round, as if nothing could be ruled out.
    pub(crate) search_every_premise: bool,
    /// Off only in the test-only reference runs
    /// ([`crate::testkit::chase_without_memo`] and its provenance twin).
    /// Restricted chase: memoize applicability probes (see the module
    /// docs). Provenance chase: index the Skolem table by null for EGD
    /// merges to garbage-collect, and count Skolem hits and misses.
    pub(crate) memo: bool,
}

impl PreparedConstraints {
    /// Compile `constraints`, keeping their order (= firing order).
    pub(crate) fn new(constraints: &[Constraint]) -> PreparedConstraints {
        let (premises, actions): (Vec<Pattern>, Vec<Action>) =
            constraints.iter().map(compile).unzip();
        let mut by_premise_pred: FastMap<Symbol, Vec<usize>> = FastMap::default();
        for (cidx, premise) in premises.iter().enumerate() {
            for pred in premise.preds() {
                let listed = by_premise_pred.entry(*pred).or_default();
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
            memo: true,
        }
    }

    /// Whether every predicate of constraint `cidx`'s premise has an alive
    /// fact — without one per atom no homomorphism exists.
    fn populated(&self, instance: &Instance, cidx: usize) -> bool {
        let preds = self.premises[cidx].preds();
        preds.iter().all(|p| instance.pred_count(*p) > 0)
    }

    /// The constraints whose premise this round has to search (the
    /// live-premise rule of the module docs), ascending, into `live`.
    fn live(
        &self,
        instance: &Instance,
        delta: Option<&DeltaIndex>,
        touched: &mut Vec<bool>,
        live: &mut Vec<usize>,
    ) {
        // Per constraint, whether a premise predicate has delta facts; in
        // the first round (`None`) every fact counts as new.
        touched.clear();
        if let Some(d) = delta {
            touched.resize(self.premises.len(), false);
            let listed = d.preds().filter_map(|pred| self.by_premise_pred.get(&pred));
            for &cidx in listed.flatten() {
                touched[cidx] = true;
            }
        }
        let is_live = |cidx: usize| {
            self.search_every_premise
                || ((delta.is_none() || touched[cidx]) && self.populated(instance, cidx))
        };
        live.clear();
        live.extend((0..self.premises.len()).filter(|&c| is_live(c)));
    }
}

/// One round's triggers, laid out flat: per trigger its bindings (one per
/// compact variable id of its premise), then its fact id per premise atom;
/// a run per searched constraint.
#[derive(Default)]
struct Triggers {
    binds: Vec<Elem>,
    facts: Vec<u32>,
    runs: Vec<Run>,
}

/// The triggers of one constraint in a round.
#[derive(Clone, Copy)]
struct Run {
    cidx: usize,
    vars: usize,
    atoms: usize,
    binds: usize,
    facts: usize,
    count: usize,
}

impl Triggers {
    /// Trigger `k` of `run`.
    fn get(&self, run: &Run, k: usize) -> Trigger<'_> {
        Trigger {
            bind: &self.binds[run.binds + k * run.vars..][..run.vars],
            facts: &self.facts[run.facts + k * run.atoms..][..run.atoms],
        }
    }
}

impl Sink for Triggers {
    fn emit(&mut self, bind: &[Option<Elem>], fact_ids: &[u32]) {
        // Every premise variable occurs in an atom, so a match binds all.
        let unbound = Elem::Null(u32::MAX);
        self.binds.extend(bind.iter().map(|b| b.unwrap_or(unbound)));
        self.facts.extend_from_slice(fact_ids);
        if let Some(run) = self.runs.last_mut() {
            run.count += 1;
        }
    }
}

/// The buffers a chase run refills every round: the delta index, the live
/// constraints and the triggers.
#[derive(Default)]
struct RoundScratch {
    delta: DeltaIndex,
    touched: Vec<bool>,
    live: Vec<usize>,
    triggers: Triggers,
}

/// The buffers the chases of one call share (see the module docs): the
/// emptied stores of the instances the call is done with, the round
/// buffers and the firing cache. Whoever makes one drops it when the call
/// returns.
#[derive(Default)]
pub(crate) struct Workspace {
    stores: Vec<Store>,
    round: RoundScratch,
    cache: FrontierCache,
}

impl Workspace {
    /// An empty instance, on the buffers of one given back.
    pub(crate) fn instance(&mut self) -> Instance {
        Instance::on(self.stores.pop().unwrap_or_default())
    }

    /// Take back `instance`'s buffers for the next instance.
    pub(crate) fn give_back(&mut self, instance: Instance) {
        self.stores.push(instance.into_store());
    }
}

/// The chase driver: take the prepared `set` over `instance` to fixpoint
/// under `cfg`'s budget, firing triggers through `policy`, on `ws`'s round
/// buffers and firing cache.
pub(crate) fn run_chase<P: FiringPolicy>(
    instance: &mut Instance,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
    policy: &mut P,
    ws: &mut Workspace,
) -> Result<ChaseStats, ChaseError> {
    let mut stats = ChaseStats::default();
    // Epoch threshold separating "old" facts from the previous round's
    // delta; `None` = the first round, search everything.
    let mut threshold: Option<u64> = None;
    let Workspace { round, cache, .. } = ws;
    cache.reset(set.memo);
    let RoundScratch {
        delta,
        touched,
        live,
        triggers,
    } = round;
    loop {
        if stats.rounds >= cfg.max_rounds {
            return Err(ChaseError::Budget {
                rounds: stats.rounds,
                facts: instance.len(),
            });
        }
        stats.rounds += 1;
        let round_epoch = instance.advance_epoch();
        if let Some(t) = threshold {
            instance.fill_delta(t, delta);
        }
        let delta = threshold.map(|_| &*delta);
        // Phase 1: read-only trigger search against the frozen
        // round-start instance.
        set.live(instance, delta, touched, live);
        stats.premise_searches += live.len();
        search_triggers(instance, set, cfg.hom, delta, live, triggers);
        // Phase 2: serial apply in constraint order.
        let mut changed = false;
        let mut runs = triggers.runs.iter().peekable();
        for cidx in 0..set.actions.len() {
            if let Some(run) = runs.next_if(|r| r.cidx == cidx) {
                match &set.actions[cidx] {
                    Action::Tgd(tgd) => {
                        for k in 0..run.count {
                            let t = triggers.get(run, k);
                            changed |= policy.fire_tgd(instance, cache, cidx, tgd, t, &mut stats);
                        }
                    }
                    Action::Egd { name, equal } => {
                        let egd = (*name, equal);
                        let fired =
                            apply_egd(instance, egd, triggers, run, policy, cache, &mut stats);
                        changed |= fired?;
                    }
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
/// triggers of every live constraint (module docs) against the frozen
/// instance, in constraint (= firing) order, into `out`; the others cannot
/// have a trigger.
fn search_triggers(
    instance: &Instance,
    set: &PreparedConstraints,
    hom: HomConfig,
    delta: Option<&DeltaIndex>,
    live: &[usize],
    out: &mut Triggers,
) {
    out.binds.clear();
    out.facts.clear();
    out.runs.clear();
    for &cidx in live {
        let premise = &set.premises[cidx];
        out.runs.push(Run {
            cidx,
            vars: premise.n_vars(),
            atoms: premise.len(),
            binds: out.binds.len(),
            facts: out.facts.len(),
            count: 0,
        });
        find_triggers(instance, premise, hom, delta, out);
    }
}

/// The EGD arm of the apply phase: for each trigger of `run` the policy
/// lets fire, resolve the equality under the live union-find and merge,
/// dropping the cache entries keyed on the null (if any) the merge retired.
/// A constant clash is rendered with the firing EGD's name and trigger
/// facts (the `with_trigger` form). Returns whether any merge happened.
fn apply_egd<P: FiringPolicy>(
    instance: &mut Instance,
    (name, equal): (Symbol, &(Slot, Slot)),
    triggers: &Triggers,
    run: &Run,
    policy: &P,
    cache: &mut FrontierCache,
    stats: &mut ChaseStats,
) -> Result<bool, ChaseError> {
    let mut changed = false;
    for k in 0..run.count {
        let t = triggers.get(run, k);
        if !policy.egd_fires(instance, t) {
            continue;
        }
        let resolve = |s: &Slot| match s {
            Slot::Const(e) => Some(*e),
            Slot::Var(v) => Some(instance.resolve(&t.bind[*v as usize])),
            Slot::Unbound => None,
        };
        // Validation rejects an EGD equating a variable its premise does
        // not bind (E003); such an equality binds nothing to merge.
        let (Some(a), Some(b)) = (resolve(&equal.0), resolve(&equal.1)) else {
            continue;
        };
        match instance.merge_retired(&a, &b) {
            Ok(Some(retired)) => {
                cache.invalidate_null(retired);
                stats.egd_merges += 1;
                changed = true;
            }
            Ok(None) => {}
            Err(e) => {
                // Name the EGD and its trigger facts: a bare constant
                // clash is undiagnosable in a large constraint set.
                let trigger: Vec<String> = t
                    .facts
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
/// memo unless it is off), then fire with fresh nulls.
pub(crate) struct Restricted {
    /// Whether the cache memoizes `(constraint, frontier images)` pairs
    /// proven satisfied ([`PreparedConstraints::memo`]).
    memo: bool,
}

impl FiringPolicy for Restricted {
    fn fire_tgd(
        &mut self,
        instance: &mut Instance,
        c: &mut FrontierCache,
        cidx: usize,
        tgd: &CompiledTgd,
        t: Trigger<'_>,
        stats: &mut ChaseStats,
    ) -> bool {
        // Re-resolve the trigger under the live union-find (earlier
        // firings this round may have merged elements).
        let mut key = std::mem::take(&mut c.key);
        tgd.frontier_key(instance, t, &mut key);
        if self.memo {
            // A hit skips the probe *and* the firing — the whole remaining
            // cost.
            if c.find(cidx, &key).is_some() {
                stats.memo_hits += 1;
                c.key = key;
                return false;
            }
            stats.memo_misses += 1;
        }
        let mut changed = false;
        if !has_hom(instance, &tgd.conclusion, &key) {
            // Fire: fresh nulls for existential variables.
            c.vals.clear();
            for _ in 0..tgd.existentials() {
                c.vals.push(instance.fresh_null());
            }
            for i in 0..tgd.conclusion_len() {
                let pred = tgd.conclusion_fact(i, &key, &c.vals, &mut c.args);
                changed |= instance.insert_ref(pred, &c.args, &Dnf::tru()).1;
            }
            stats.tgd_fires += 1;
        }
        // Satisfied now, by the probe's witness or by the firing itself:
        // later triggers sharing the key skip their probe entirely.
        if self.memo {
            c.insert(cidx, &key, &[]);
        }
        c.key = key;
        changed
    }

    fn egd_fires(&self, _: &Instance, _: Trigger<'_>) -> bool {
        true
    }
}

/// One entry of a [`FrontierCache`]: its key and value sit one after the
/// other in the cache's element buffer.
#[derive(Clone, Copy)]
struct CacheEntry {
    cidx: usize,
    hash: u32,
    start: usize,
    key_len: usize,
    value_len: usize,
    /// `false` once invalidated.
    held: bool,
}

/// A per-run cache keyed by `(constraint index, resolved conclusion-frontier
/// images)` — the applicability memo's and the Skolem table's shape — with
/// the module docs' occurrence-indexed invalidation, plus the buffers a
/// firing fills (frontier key, existential images, conclusion arguments,
/// trigger provenance). Everything is flat: keys and values in one element
/// buffer, found through an [`IdTable`]. A run empties the one of its
/// [`Workspace`] and fills it again, so the runs of one call after the
/// first allocate nothing here.
#[derive(Default)]
pub(crate) struct FrontierCache {
    table: IdTable,
    entries: Vec<CacheEntry>,
    elems: Vec<Elem>,
    /// Null id → its first node in `occ` (`u32::MAX`: none), mirroring the
    /// instance's `null → fact ids` occurrence index: a merge retiring null
    /// `n` invalidates exactly the entries on `n`'s list. Unused when not
    /// `indexed`: entries never die.
    occ_head: Vec<u32>,
    /// `(entry, next node)`.
    occ: Vec<(u32, u32)>,
    indexed: bool,
    /// The current trigger's frontier key.
    pub(crate) key: Vec<Elem>,
    /// The current firing's existential images.
    pub(crate) vals: Vec<Elem>,
    /// The conclusion fact being inserted.
    pub(crate) args: Vec<Elem>,
    /// The current trigger's provenance, and the conjunction's scratch.
    pub(crate) prov: [Dnf; 2],
}

impl FrontierCache {
    /// Drop every entry, keeping the buffers; entries are indexed for
    /// invalidation from now on when `indexed`.
    fn reset(&mut self, indexed: bool) {
        self.table.clear();
        self.entries.clear();
        self.elems.clear();
        self.occ_head.clear();
        self.occ.clear();
        self.indexed = indexed;
    }

    fn hash(cidx: usize, key: &[Elem]) -> u32 {
        FastBuild::default().hash_one((cidx, key)) as u32
    }

    /// The entry of `(cidx, key)`, if held.
    pub(crate) fn find(&self, cidx: usize, key: &[Elem]) -> Option<usize> {
        let hash = FrontierCache::hash(cidx, key);
        let found = self.table.find(hash, |e| {
            let entry = &self.entries[e as usize];
            entry.cidx == cidx && self.elems[entry.start..][..entry.key_len] == *key
        });
        found.map(|e| e as usize)
    }

    /// The value of entry `e`.
    pub(crate) fn value(&self, e: usize) -> &[Elem] {
        let entry = &self.entries[e];
        &self.elems[entry.start + entry.key_len..][..entry.value_len]
    }

    /// Hold `value` under `(cidx, key)`, which is not held.
    pub(crate) fn insert(&mut self, cidx: usize, key: &[Elem], value: &[Elem]) {
        let e = self.entries.len() as u32;
        let hash = FrontierCache::hash(cidx, key);
        self.entries.push(CacheEntry {
            cidx,
            hash,
            start: self.elems.len(),
            key_len: key.len(),
            value_len: value.len(),
            held: true,
        });
        self.elems.extend_from_slice(key);
        self.elems.extend_from_slice(value);
        self.table.insert(hash, e);
        if self.indexed {
            for n in key.iter().filter_map(Elem::as_null) {
                let n = n as usize;
                if self.occ_head.len() <= n {
                    self.occ_head.resize(n + 1, u32::MAX);
                }
                self.occ.push((e, self.occ_head[n]));
                self.occ_head[n] = (self.occ.len() - 1) as u32;
            }
        }
    }

    /// Drop every entry whose key mentions the retired null (no-op when
    /// none does — constants and surviving nulls never invalidate).
    fn invalidate_null(&mut self, retired: u32) {
        let Some(head) = self.occ_head.get_mut(retired as usize) else {
            return;
        };
        let mut node = std::mem::replace(head, u32::MAX);
        while node != u32::MAX {
            let (e, next) = self.occ[node as usize];
            let entry = &mut self.entries[e as usize];
            if entry.held {
                entry.held = false;
                self.table.remove(entry.hash, e);
            }
            node = next;
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
        assert_eq!(i.pred_count(sym("Path")), 6);
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
        assert_eq!(i.pred_count(sym("HasParent")), 1);
        // Restricted chase: re-chasing adds nothing.
        let stats = chase(&mut i, &[t.into()], &ChaseConfig::default()).unwrap();
        assert_eq!(stats.tgd_fires, 0);
        assert_eq!(i.pred_count(sym("HasParent")), 1);
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
        assert_eq!(i.pred_count(sym("Path")), 12 * 13 / 2);
    }

    /// Closure constraints over a chain — many triggers per frontier
    /// image. The shared testkit workload, so the unit tests, the
    /// differential suite and the e8 bench exercise the same shape.
    fn closure_set() -> (Instance, Vec<Constraint>) {
        crate::testkit::phase_split_workload(1, 8)
    }

    use crate::testkit::{chase_without_memo, dump_state as dump};

    /// The restricted chase of `constraints` over `i`, memo on or off.
    fn chase_memo(
        i: &mut Instance,
        constraints: &[Constraint],
        memo: bool,
    ) -> Result<ChaseStats, ChaseError> {
        let cfg = ChaseConfig::default();
        match memo {
            true => chase(i, constraints, &cfg),
            false => chase_without_memo(i, constraints, &cfg),
        }
    }

    #[test]
    fn memo_on_and_off_reach_identical_fixpoints() {
        let (seed, constraints) = closure_set();
        let mut on = seed.clone();
        let mut off = seed.clone();
        let s_on = chase_memo(&mut on, &constraints, true).unwrap();
        let s_off = chase_memo(&mut off, &constraints, false).unwrap();
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
            let stats = chase_memo(&mut i, &constraints, memo).unwrap();
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
            chase_memo(&mut i, &constraints, memo)
                .unwrap_err()
                .to_string()
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
        assert_eq!(i.pred_count(sym("S")), 1);
    }
}
