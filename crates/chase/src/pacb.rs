//! PACB — the provenance-aware Chase & Backchase [Ileana et al., SIGMOD'14]
//! — computing minimal view-based rewritings of conjunctive queries under
//! constraints. This is the rewriting engine at the heart of ESTOCADA.
//!
//! Pipeline for a query `Q`, views `V1..Vk` and model constraints `Σ`:
//!
//! 1. **Chase** the canonical instance of `Q` with the *forward* view
//!    inclusions (`body(Vi) → Vi(x̄)`) and `Σ` — every view atom that shows
//!    up forms the **universal plan** `U`.
//! 2. **Backchase** `U` once: freeze it, give each view atom a provenance
//!    variable, and run the provenance-aware chase with the *backward*
//!    inclusions (`Vi(x̄) → body(Vi)`) and `Σ`. Every head-preserving image
//!    of `Q` in the result contributes the conjunction of its facts'
//!    provenance; the accumulated minimized DNF's clauses are exactly the
//!    **minimal sub-queries of `U` that derive `Q`** — the candidate
//!    rewritings. (The classical backchase instead chases *every* subset of
//!    `U` separately — see [`crate::naive`] for that baseline.)
//! 3. Each candidate is checked for safety, for **feasibility** under the
//!    access patterns of binding-restricted fragments, and (because our EGD
//!    provenance treatment is conservative, see `pchase`) re-verified by a
//!    chase-based containment test before being reported.
//!
//! # The `Rewriter`: prepared once, rewriting many queries
//!
//! Nothing above but `Q` changes between two queries over the same views:
//! the three constraint sets the steps chase with — forward inclusions +
//! source constraints (step 1), backward inclusions + source + target
//! (step 2), both directions + source + target (step 3's containment
//! chases) —, the set of view names that picks `U` out of the forward
//! chase, and the access map. A [`Rewriter`] owns exactly these, each
//! constraint set compiled and predicate-indexed for the chase driver (see
//! "Constraints are compiled once per prepared set" and the live-premise
//! rule in [`mod@crate::chase`]), and [`Rewriter::rewrite`] is the one
//! statement of the algorithm: it derives no constraint, clones none and
//! compiles none per query. It is immutable and `Sync`; the mediator keeps
//! one per catalog epoch and every plan-cache miss of every client thread
//! rewrites through it. [`pacb_rewrite`] is the one-shot wrapper —
//! `problem.rewriter().rewrite(&problem.query, cfg)` — for callers with a
//! single query (tests, benches, tools); its outcome is the reused
//! rewriter's, it just pays the preparation on every call.
//! [`crate::naive::naive_rewrite`] runs its enumeration over the same
//! prepared universal-plan chase and acceptance filter.
//!
//! # Parallel candidate verification and the deterministic fan-in contract
//!
//! Step 3 dominates rewriting time on multi-candidate problems, and every
//! candidate's check is independent of every other's: it reads only the
//! candidate, the query, and the prepared verification set, and chases a
//! **fresh** canonical instance. [`Rewriter::rewrite`] therefore fans the
//! checks out over [`RewriteConfig::parallelism`] scoped worker threads
//! ([`estocada_parexec::scoped_map_init`]); each worker's searches run on
//! its own thread's matcher scratch and its chases on a workspace of its
//! own (no shared mutable state, no locks on the search path — see
//! [`mod@crate::hom`] and [`mod@crate::chase`]'s buffers).
//!
//! **Fan-in contract:** `pacb_rewrite` at `parallelism = N` returns a
//! [`RewriteOutcome`] *identical* to `parallelism = 1` — same rewritings in
//! the same order with the same generated names, same `complete` flag, same
//! [`RewriteStats`] counters. This holds by construction:
//!
//! - candidates are enumerated from the minimized provenance DNF **before**
//!   fan-out, in clause order, on the coordinator (workers never touch the
//!   global symbol interner or any other process-wide state);
//! - each worker computes a pure `(verdict, `[`CandidateStats`]`)` pair for
//!   its candidates — accepted, rejected, or *undecided* when the
//!   verification chase itself failed; per-candidate counters live in the
//!   mergeable `CandidateStats`, not in shared counters, so they cannot
//!   race;
//! - the coordinator merges verdicts **in candidate order**: sequential
//!   accepted-rewriting naming (`Q_rw0, Q_rw1, …`), canonical-form
//!   deduplication and stats absorption all happen at fan-in, exactly as
//!   the serial loop interleaved them.
//!
//! Early exits keep the contract: truncation (`max_images`, the provenance
//! clause cap) happens before fan-out; a chase-budget failure inside one
//! worker's containment check leaves that candidate undecided — dropped
//! and counted under `rejected` like a refuted one, and the fan-in clears
//! `complete`, since a rewriting may have been lost (as in the serial
//! run) — without touching its siblings; a worker panic poisons the batch,
//! cancels the outstanding candidates and re-raises on the caller — scoped
//! threads cannot deadlock or leak. Problems with fewer than
//! `PARALLEL_CANDIDATE_THRESHOLD` candidates run the checks inline:
//! spawning threads there costs more than the checks themselves, and the
//! outcome is the same either way. The code
//! makes that choice from the candidate count it has just computed; the
//! mediator's lookups have 1–2 candidates and never spawn, a wide problem
//! (`e6_parallel_backchase`: 64–256 candidates) gains from the second
//! worker on.
//!
//! Every chase itself — the forward chase and the provenance backchase on
//! the coordinator, each verification chase on its worker — runs on one
//! thread (see the phase split in [`mod@crate::chase`]). The chases on the
//! coordinator share the rewrite's workspace, which goes when the rewrite
//! returns.
//!
//! # Cacheability
//!
//! The fan-in contract makes a [`RewriteOutcome`] a *pure, deterministic*
//! function of `(Rewriter, query, budgets)` — worker counts never leak into
//! it. That is what lets callers share one outcome across threads and
//! reuse it across queries: the mediator's rewrite-plan cache stores
//! outcomes as `Arc<RewriteOutcome>` keyed by `(canonical query, catalog
//! epoch)` and hands the same plan to every client that repeats a query
//! shape, with no risk that a cached plan differs from what a fresh
//! rewrite would produce. Two threads racing to fill a cold cache slot
//! compute bit-identical outcomes, so first-insert-wins is sound.

use crate::chase::{
    chase_prepared, ChaseConfig, ChaseError, ChaseStats, PreparedConstraints, Workspace,
};
use crate::containment::contained_in_prepared;
use crate::hom::{find_homs, HomConfig};
use crate::instance::{Elem, Instance};
use crate::pchase::{prov_chase_prepared, ProvChaseStats};
use crate::prov::Dnf;
use estocada_parexec::scoped_map_init;
use estocada_pivot::hash::{FastBuild, FastMap, FastSet};
use estocada_pivot::{AccessMap, Atom, Constraint, Cq, Symbol, Term, Tgd, Var, ViewDef};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::BuildHasher;

/// A rewriting problem: query, views, and ambient constraints.
#[derive(Debug, Clone)]
pub struct RewriteProblem {
    /// The query to rewrite (over the source schema).
    pub query: Cq,
    /// Materialized-view definitions (fragments).
    pub views: Vec<ViewDef>,
    /// Constraints over the source schema (model axioms, keys).
    pub source_constraints: Vec<Constraint>,
    /// Constraints over the view (fragment) schema, if any.
    pub target_constraints: Vec<Constraint>,
    /// Access patterns of the view relations (key-value fragments etc.).
    pub access: AccessMap,
}

impl RewriteProblem {
    /// A problem with no ambient constraints and free access.
    pub fn new(query: Cq, views: Vec<ViewDef>) -> RewriteProblem {
        RewriteProblem {
            query,
            views,
            source_constraints: Vec::new(),
            target_constraints: Vec::new(),
            access: AccessMap::new(),
        }
    }

    /// The [`Rewriter`] of this problem's views, constraints and access
    /// patterns (everything but the query).
    pub fn rewriter(&self) -> Rewriter {
        Rewriter::new(
            &self.views,
            &self.source_constraints,
            &self.target_constraints,
            self.access.clone(),
        )
    }
}

/// Knobs for the rewriting algorithms.
#[derive(Debug, Clone, Copy)]
pub struct RewriteConfig {
    /// Budget and knobs of every chase: the forward chase, the provenance
    /// backchase and the containment chases of candidate verification.
    pub chase: ChaseConfig,
    /// Cap on the number of DNF clauses kept per provenance formula in the
    /// backchase; beyond it the smallest clauses win and the outcome is
    /// flagged incomplete.
    pub clause_cap: usize,
    /// Cap on the number of query images collected in the backchase.
    pub max_images: usize,
    /// Worker threads for candidate verification (≤ 1 = serial). Any value
    /// produces the identical [`RewriteOutcome`] — see the module docs'
    /// fan-in contract.
    pub parallelism: usize,
}

impl Default for RewriteConfig {
    fn default() -> Self {
        RewriteConfig {
            chase: ChaseConfig::default(),
            clause_cap: 2_048,
            max_images: 10_000,
            parallelism: 1,
        }
    }
}

impl RewriteConfig {
    /// This config with `parallelism` workers.
    pub fn with_parallelism(self, parallelism: usize) -> RewriteConfig {
        RewriteConfig {
            parallelism,
            ..self
        }
    }
}

/// Minimum verified-candidate count before the acceptance checks fan out
/// to worker threads: below it the threads' spawn/join overhead
/// outweighs the verification work, so the checks run inline on the
/// coordinator (identical outcome — few-candidate hot-path rewrites never
/// pay for threads they can't use).
const PARALLEL_CANDIDATE_THRESHOLD: usize = 8;

/// Per-candidate acceptance counters — the mergeable fragment of
/// [`RewriteStats`].
///
/// Each verification worker fills a private `CandidateStats` per candidate;
/// the coordinator absorbs them in candidate order
/// ([`RewriteStats::absorb`]), so the counters are exact (never racy) no
/// matter how many workers ran, and identical to the serial run's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CandidateStats {
    /// Candidate rejected as infeasible under access patterns.
    pub infeasible: usize,
    /// Candidate rejected (unsafe head, failed or errored verification).
    pub rejected: usize,
    /// Counters of the candidate's verification chase (zero when none ran
    /// to completion).
    pub verification: ChaseStats,
}

/// Counters describing one rewriting run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Forward-chase counters.
    pub forward: ChaseStats,
    /// Backchase counters.
    pub backward: ProvChaseStats,
    /// Universal-plan size (number of view atoms).
    pub universal_plan_atoms: usize,
    /// Query images found in the backchased instance.
    pub images: usize,
    /// Candidate subqueries extracted from provenance (or enumerated, for
    /// the naive algorithm).
    pub candidates: usize,
    /// Candidates that passed all checks.
    pub accepted: usize,
    /// Candidates rejected as infeasible under access patterns.
    pub infeasible: usize,
    /// Candidates rejected by verification.
    pub rejected: usize,
    /// Counters of the candidates' verification chases, summed.
    pub verification: ChaseStats,
}

impl RewriteStats {
    /// Fold one candidate's counters into the run totals.
    pub fn absorb(&mut self, c: CandidateStats) {
        self.infeasible += c.infeasible;
        self.rejected += c.rejected;
        self.verification += c.verification;
    }

    /// Premise searches of every chase of the run (forward, backchase,
    /// verification) — see [`ChaseStats::premise_searches`].
    pub fn premise_searches(&self) -> usize {
        let chases = [self.forward, self.backward.chase, self.verification];
        chases.iter().map(|c| c.premise_searches).sum()
    }
}

/// Result of a rewriting run.
#[derive(Debug, Clone, PartialEq)]
pub struct RewriteOutcome {
    /// Minimal feasible rewritings, ascending by body size.
    pub rewritings: Vec<Cq>,
    /// The universal plan (empty body if no view atom was derivable).
    pub universal_plan: Cq,
    /// `false` when provenance truncation, image caps or a verification
    /// chase that failed (budget, chase error) may have hidden additional
    /// rewritings.
    pub complete: bool,
    /// Run counters.
    pub stats: RewriteStats,
}

/// Rewriting failure.
#[derive(Debug, Clone)]
pub enum RewriteError {
    /// A chase phase failed (budget or inconsistency).
    Chase(ChaseError),
    /// The query is not a safe CQ.
    UnsafeQuery,
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::Chase(e) => write!(f, "rewriting chase failed: {e}"),
            RewriteError::UnsafeQuery => write!(f, "query head uses variables absent from body"),
        }
    }
}

impl std::error::Error for RewriteError {}

impl From<ChaseError> for RewriteError {
    fn from(e: ChaseError) -> Self {
        RewriteError::Chase(e)
    }
}

/// The universal plan: view atoms derivable from the query under the
/// forward constraints, plus the (possibly merged) head.
pub(crate) struct UniversalPlan {
    /// `{query}_up(head) :- atoms`: the head terms after forward-chase
    /// merges, the view atoms sorted and deduplicated.
    pub cq: Cq,
    /// Forward-chase stats.
    pub stats: ChaseStats,
}

/// What one candidate's acceptance check concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Safe, feasible and (with verification on) proven equivalent.
    Accepted,
    /// Proven not to be a rewriting (unsafe, infeasible, not contained).
    Rejected,
    /// The verification chase failed (budget, chase error): dropped like a
    /// rejection, but the run can no longer claim to be exhaustive.
    Undecided,
}

/// Everything PACB derives from the views, the constraints and the access
/// patterns alone, prepared once and reused — immutably, from any number
/// of threads — for every query rewritten against them: the three
/// constraint sets the algorithm chases with, the view-name set that picks
/// the universal plan out of the forward chase, and the access map of the
/// feasibility check. The mediator keeps one per catalog epoch;
/// [`pacb_rewrite`] builds one for a single query.
pub struct Rewriter {
    /// Forward view inclusions (`body(Vi) → Vi`) + source constraints: the
    /// universal-plan chase.
    forward: PreparedConstraints,
    /// Backward view inclusions (`Vi → body(Vi)`) + source + target
    /// constraints: the provenance backchase.
    backward: PreparedConstraints,
    /// Both directions of every view + source + target constraints: the
    /// candidates' verification chases.
    verification: PreparedConstraints,
    view_names: FastSet<Symbol>,
    access: AccessMap,
}

impl Rewriter {
    /// Prepare rewriting over `views` under the `source` (model axioms,
    /// keys) and `target` (fragment-schema) constraints, with `access`
    /// restricting how view relations may be read.
    pub fn new(
        views: &[ViewDef],
        source: &[Constraint],
        target: &[Constraint],
        access: AccessMap,
    ) -> Rewriter {
        let inclusions = |direction: fn(&ViewDef) -> Tgd| -> Vec<Constraint> {
            views.iter().map(|v| direction(v).into()).collect()
        };
        let forward = [&inclusions(ViewDef::forward_tgd), source].concat();
        let backward = [&inclusions(ViewDef::backward_tgd), source, target].concat();
        let both: Vec<Constraint> = views.iter().flat_map(ViewDef::constraints).collect();
        let verification = [&both, source, target].concat();
        Rewriter {
            forward: PreparedConstraints::new(&forward),
            backward: PreparedConstraints::new(&backward),
            verification: PreparedConstraints::new(&verification),
            view_names: views.iter().map(ViewDef::name).collect(),
            access,
        }
    }

    /// Compute the universal plan of `query`, chasing on `ws`'s buffers.
    pub(crate) fn universal_plan(
        &self,
        query: &Cq,
        cfg: &ChaseConfig,
        ws: &mut Workspace,
    ) -> Result<UniversalPlan, RewriteError> {
        if !query.is_safe() {
            return Err(RewriteError::UnsafeQuery);
        }
        let mut inst = freeze(&query.head, &query.body, false, ws);
        let stats = chase_prepared(&mut inst, &self.forward, cfg, ws)?;

        let mut atoms: Vec<Atom> = Vec::new();
        for id in inst.fact_ids() {
            let f = inst.fact(id);
            if !self.view_names.contains(&f.pred) {
                continue;
            }
            let args: Vec<Term> = f.args.iter().map(elem_to_term).collect();
            atoms.push(Atom::new(f.pred, args));
        }
        atoms.sort();
        atoms.dedup();

        let head: Vec<Term> = query
            .head
            .iter()
            .map(|t| match t {
                Term::Var(v) => elem_to_term(&inst.resolve(&Elem::Null(v.0))),
                Term::Const(c) => Term::Const(c.clone()),
            })
            .collect();
        ws.give_back(inst);
        let name = format!("{}_up", query.name);
        let cq = Cq::new(name.as_str(), head, atoms);
        Ok(UniversalPlan { cq, stats })
    }

    /// Shared acceptance filter: safety, feasibility, verification.
    ///
    /// Pure per-candidate check: reads only its arguments and writes only
    /// `ws` and the calling thread's matcher scratch — the reason
    /// candidates can verify in parallel without skew.
    pub(crate) fn check_candidate(
        &self,
        candidate: &Cq,
        query: &Cq,
        cfg: &RewriteConfig,
        ws: &mut Workspace,
    ) -> (Verdict, CandidateStats) {
        let mut stats = CandidateStats::default();
        if !candidate.is_safe() {
            stats.rejected += 1;
            return (Verdict::Rejected, stats);
        }
        if !self.access.is_feasible(&candidate.body, &BTreeSet::new()) {
            stats.infeasible += 1;
            return (Verdict::Rejected, stats);
        }
        // Q ⊆ R holds for every subquery of the universal plan (chase
        // soundness); only R ⊆ Q needs checking.
        let verified = contained_in_prepared(candidate, query, &self.verification, &cfg.chase, ws);
        let verdict = match verified {
            Ok((contained, chase)) => {
                stats.verification = chase;
                if contained {
                    Verdict::Accepted
                } else {
                    Verdict::Rejected
                }
            }
            Err(_) => Verdict::Undecided,
        };
        stats.rejected += usize::from(verdict != Verdict::Accepted);
        (verdict, stats)
    }
}

fn elem_to_term(e: &Elem) -> Term {
    match e {
        Elem::Const(c) => Term::Const((*c.value()).clone()),
        Elem::Null(n) => Term::Var(Var(*n)),
    }
}

/// The frozen image of a term: variable `i` is labelled null `i`, a
/// constant is itself.
pub(crate) fn term_to_elem(t: &Term) -> Elem {
    match t {
        Term::Var(v) => Elem::Null(v.0),
        Term::Const(c) => Elem::constant(c),
    }
}

/// Freeze `atoms` into a fresh instance on `ws`'s buffers through
/// [`term_to_elem`], atom `i` carrying provenance `p_i` when `numbered`
/// (the backchase's universal plan) and `⊤` otherwise. Nulls up to the
/// largest variable of `head` and `atoms` are reserved, so the nulls a
/// chase invents never collide with a frozen variable. The one freezer of
/// the crate: canonical instances, frozen constraint premises and the
/// backchase's universal plan.
pub(crate) fn freeze(
    head: &[Term],
    atoms: &[Atom],
    numbered: bool,
    ws: &mut Workspace,
) -> Instance {
    let vars = head.iter().filter_map(Term::as_var);
    let vars = vars.chain(atoms.iter().flat_map(Atom::vars));
    let mut inst = ws.instance();
    inst.reserve_nulls(vars.map(|v| v.0 + 1).max().unwrap_or(0));
    let (mut args, mut prov) = (Vec::with_capacity(8), Dnf::tru());
    for (i, atom) in atoms.iter().enumerate() {
        args.clear();
        args.extend(atom.args.iter().map(term_to_elem));
        if numbered {
            prov.set_var(i as u32);
        }
        inst.insert_ref(atom.pred, &args, &prov);
    }
    inst
}

/// Build a candidate rewriting from a subset of universal-plan atoms.
pub(crate) fn build_candidate(
    query: &Cq,
    plan_head: &[Term],
    atoms: &[Atom],
    selection: impl IntoIterator<Item = usize>,
    index: usize,
) -> Cq {
    let body: Vec<Atom> = selection.into_iter().map(|i| atoms[i].clone()).collect();
    Cq::new(
        format!("{}_rw{}", query.name, index).as_str(),
        plan_head.to_vec(),
        body,
    )
}

/// Rewrite `query` over the views with the provenance-aware Chase &
/// Backchase. Returns all minimal feasible rewritings. The one-shot form of
/// [`Rewriter::rewrite`]: prepares the problem's constraint sets, rewrites
/// the one query, and drops them.
pub fn pacb_rewrite(
    problem: &RewriteProblem,
    cfg: &RewriteConfig,
) -> Result<RewriteOutcome, RewriteError> {
    problem.rewriter().rewrite(&problem.query, cfg)
}

impl Rewriter {
    /// Rewrite `query` over the views with the provenance-aware Chase &
    /// Backchase. Returns all minimal feasible rewritings.
    pub fn rewrite(&self, query: &Cq, cfg: &RewriteConfig) -> Result<RewriteOutcome, RewriteError> {
        // The buffers of every chase this rewrite runs on its thread.
        let mut ws = Workspace::default();
        let UniversalPlan {
            cq: universal_plan_cq,
            stats: forward,
        } = self.universal_plan(query, &cfg.chase, &mut ws)?;
        let (head, atoms) = (&universal_plan_cq.head, &universal_plan_cq.body);
        let mut stats = RewriteStats {
            forward,
            universal_plan_atoms: atoms.len(),
            ..RewriteStats::default()
        };
        if atoms.is_empty() {
            return Ok(RewriteOutcome {
                rewritings: Vec::new(),
                universal_plan: universal_plan_cq,
                complete: true,
                stats,
            });
        }

        // --- Backchase: freeze U, annotate, provenance-chase. ---
        let mut inst = freeze(head, atoms, true, &mut ws);
        let (set, cap) = (&self.backward, cfg.clause_cap);
        stats.backward = prov_chase_prepared(&mut inst, set, &cfg.chase, cap, &mut ws)?;
        let mut complete = !stats.backward.truncated;

        // --- Collect head-preserving images of Q and their provenance. ---
        let targets: Vec<Elem> = (head.iter())
            .map(|t| inst.resolve(&term_to_elem(t)))
            .collect();
        let fixed = match head_fixed_map(query, &targets) {
            Some(f) => f,
            None => {
                return Ok(RewriteOutcome {
                    rewritings: Vec::new(),
                    universal_plan: universal_plan_cq,
                    complete,
                    stats,
                })
            }
        };
        let homs = find_homs(
            &inst,
            &query.body,
            &fixed,
            HomConfig {
                limit: cfg.max_images,
            },
        );
        stats.images = homs.len();
        if homs.len() >= cfg.max_images {
            complete = false;
        }

        let mut total = Dnf::fals();
        let (mut conj, mut step) = (Dnf::tru(), Dnf::fals());
        for h in &homs {
            conj.set_true();
            for (i, fid) in h.fact_ids.iter().enumerate() {
                if h.fact_ids[..i].contains(fid) {
                    continue;
                }
                if conj.and_into(inst.prov(*fid), cfg.clause_cap, &mut step) {
                    complete = false;
                }
                std::mem::swap(&mut conj, &mut step);
            }
            total.or_assign(&conj);
            if total.truncate(cfg.clause_cap) {
                complete = false;
            }
        }
        ws.give_back(inst);

        // --- Clauses → candidate rewritings. ---
        //
        // Fan-out: candidates are built on the coordinator in clause order
        // (with provisional names — workers must not touch the interner), the
        // independent acceptance checks run on the worker threads, and the fan-in
        // below merges verdicts in candidate order so naming, dedup and stats
        // replay the serial loop exactly (see the module-level contract).
        let mut candidates: Vec<Cq> = Vec::new();
        for clause in total.clauses() {
            let selection = clause.iter().map(|p| *p as usize);
            candidates.push(build_candidate(
                query,
                head,
                atoms,
                selection,
                candidates.len(),
            ));
        }
        stats.candidates = candidates.len();
        // Below the threshold the per-call thread spawn/join costs more than
        // it saves — one worker runs inline on the coordinator. The outcome
        // is identical either way.
        let workers = if candidates.len() >= PARALLEL_CANDIDATE_THRESHOLD {
            cfg.parallelism
        } else {
            1
        };
        // Inline, the checks chase on this rewrite's workspace; fanned out,
        // each worker on one of its own.
        let check = |ws: &mut Workspace, c: &Cq| self.check_candidate(c, query, cfg, ws);
        let verdicts: Vec<(Verdict, CandidateStats)> = if workers <= 1 {
            candidates.iter().map(|c| check(&mut ws, c)).collect()
        } else {
            scoped_map_init(workers, &candidates, Workspace::default, |ws, _, c| {
                check(ws, c)
            })
        };

        // Deterministic fan-in, candidate order.
        let mut rewritings: Vec<Cq> = Vec::new();
        // The canonical forms of `rewritings[..canonical.len()]`, made only
        // once a second rewriting needs comparing against the first.
        let mut canonical: Vec<(u64, Cq)> = Vec::new();
        for (mut candidate, (verdict, cs)) in candidates.into_iter().zip(verdicts) {
            stats.absorb(cs);
            complete &= verdict != Verdict::Undecided;
            if verdict != Verdict::Accepted {
                continue;
            }
            // Accepted candidates are numbered by acceptance order (rejected
            // ones consume no index), matching the serial loop's naming.
            candidate.name = Symbol::intern(&format!("{}_rw{}", query.name, rewritings.len()));
            if !rewritings.is_empty() {
                // Dedup on the name-independent canonical form `(head,
                // body)`: the name is unique per candidate by construction,
                // so a key that included it could never collide. Its hash
                // screens the forms accepted so far; equal hashes compare
                // the forms.
                let pending = rewritings[canonical.len()..].iter();
                canonical.extend(pending.map(canonical_form));
                let (hash, form) = canonical_form(&candidate);
                let same =
                    |(h, c): &(u64, Cq)| *h == hash && c.head == form.head && c.body == form.body;
                if canonical.iter().any(same) {
                    continue;
                }
                canonical.push((hash, form));
            }
            stats.accepted += 1;
            rewritings.push(candidate);
        }
        rewritings.sort_by_key(|r| r.body.len());

        Ok(RewriteOutcome {
            rewritings,
            universal_plan: universal_plan_cq,
            complete,
            stats,
        })
    }
}

/// A rewriting's canonical form, with the hash of its `(head, body)`.
fn canonical_form(rewriting: &Cq) -> (u64, Cq) {
    let form = rewriting.canonicalize();
    (
        FastBuild::default().hash_one((&form.head, &form.body)),
        form,
    )
}

/// Build the fixed-variable map forcing `q`'s head onto `targets`; `None`
/// when a head constant disagrees or a repeated head variable is forced onto
/// two different elements.
pub(crate) fn head_fixed_map(q: &Cq, targets: &[Elem]) -> Option<FastMap<Var, Elem>> {
    let mut fixed: FastMap<Var, Elem> = FastMap::default();
    for (t, target) in q.head.iter().zip(targets) {
        match t {
            Term::Const(c) => {
                if Elem::constant(c) != *target {
                    return None;
                }
            }
            Term::Var(v) => match fixed.get(v) {
                Some(prev) if prev != target => return None,
                Some(_) => {}
                None => {
                    fixed.insert(*v, *target);
                }
            },
        }
    }
    Some(fixed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::CqBuilder;

    fn rewrite(problem: &RewriteProblem) -> RewriteOutcome {
        pacb_rewrite(problem, &RewriteConfig::default()).unwrap()
    }

    #[test]
    fn single_view_covers_query() {
        // V(x,z) :- R(x,y), S(y,z);  Q(x,z) :- R(x,y), S(y,z)  ⇒  Q(x,z) :- V(x,z)
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "z"])
                .atom("R", |a| a.v("x").v("y"))
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v]));
        assert_eq!(out.rewritings.len(), 1);
        assert_eq!(out.rewritings[0].body.len(), 1);
        assert_eq!(out.rewritings[0].body[0].pred, Symbol::intern("V"));
        assert!(out.complete);
    }

    #[test]
    fn join_of_two_views() {
        // V1(x,y) :- R(x,y); V2(y,z) :- S(y,z); Q = R ⋈ S ⇒ V1 ⋈ V2.
        let v1 = ViewDef::new(
            CqBuilder::new("V1")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let v2 = ViewDef::new(
            CqBuilder::new("V2")
                .head_vars(["y", "z"])
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v1, v2]));
        assert_eq!(out.rewritings.len(), 1);
        assert_eq!(out.rewritings[0].body.len(), 2);
    }

    #[test]
    fn no_rewriting_when_views_miss_needed_column() {
        // V(x) :- R(x,y) projects y away; Q(x,y) :- R(x,y) unanswerable.
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v]));
        assert!(out.rewritings.is_empty());
    }

    #[test]
    fn redundant_view_not_included_in_minimal_rewriting() {
        // V1 answers Q alone; V2 is redundant. Minimal rewriting = {V1}.
        let v1 = ViewDef::new(
            CqBuilder::new("V1")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let v2 = ViewDef::new(
            CqBuilder::new("V2")
                .head_vars(["x"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v1, v2]));
        assert_eq!(out.rewritings.len(), 1);
        assert_eq!(out.rewritings[0].body.len(), 1);
        assert_eq!(out.rewritings[0].body[0].pred, Symbol::intern("V1"));
    }

    #[test]
    fn multiple_alternative_rewritings_found() {
        // Two copies of the same view content: both are minimal rewritings.
        let v1 = ViewDef::new(
            CqBuilder::new("Va")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let v2 = ViewDef::new(
            CqBuilder::new("Vb")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v1, v2]));
        assert_eq!(out.rewritings.len(), 2);
    }

    #[test]
    fn access_pattern_filters_infeasible_rewriting() {
        use estocada_pivot::AccessPattern;
        // KV(k, v) with pattern io; Q(k,v) :- Base(k,v). Only view = KV over
        // Base. Rewriting KV(k,v) with free k is infeasible.
        let v = ViewDef::new(
            CqBuilder::new("KV")
                .head_vars(["k", "v"])
                .atom("Base", |a| a.v("k").v("v"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["k", "v"])
            .atom("Base", |a| a.v("k").v("v"))
            .build();
        let mut problem = RewriteProblem::new(q, vec![v]);
        problem
            .access
            .set("KV", AccessPattern::parse("io").unwrap());
        let out = rewrite(&problem);
        assert!(out.rewritings.is_empty());
        assert_eq!(out.stats.infeasible, 1);

        // With the key bound by a constant in the query, it becomes feasible.
        let q2 = CqBuilder::new("Q2")
            .head_vars(["v"])
            .atom("Base", |a| a.c(7i64).v("v"))
            .build();
        let mut problem2 = RewriteProblem::new(
            q2,
            vec![ViewDef::new(
                CqBuilder::new("KV")
                    .head_vars(["k", "v"])
                    .atom("Base", |a| a.v("k").v("v"))
                    .build(),
            )],
        );
        problem2
            .access
            .set("KV", AccessPattern::parse("io").unwrap());
        let out2 = rewrite(&problem2);
        assert_eq!(out2.rewritings.len(), 1);
    }

    #[test]
    fn constraint_based_rewriting_through_model_axioms() {
        // Source axiom: Child ⊆ Desc. View stores Desc pairs; query asks
        // Child... unanswerable (Desc ⊄ Child). Conversely a Desc query is
        // answerable from a Child-derived view only via the axiom.
        let axiom: Constraint = estocada_pivot::Tgd::new(
            "c2d",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        )
        .into();
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "y"])
                .atom("Child", |a| a.v("x").v("y"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("Desc", |a| a.v("x").v("y"))
            .build();
        let mut p = RewriteProblem::new(q, vec![v]);
        p.source_constraints.push(axiom);
        let out = rewrite(&p);
        // V(x,y) ⊆ Q (every child pair is a desc pair) but V is NOT
        // equivalent to Q in general — must be rejected by verification.
        assert!(out.rewritings.is_empty());
        assert!(out.stats.rejected >= 1 || out.stats.candidates == 0);
    }

    // 2^k minimal rewritings — the candidate fan-out has real width.
    use crate::testkit::wide_chain_problem as multi_candidate_problem;

    #[test]
    fn parallel_outcome_identical_to_serial() {
        let problem = multi_candidate_problem(4); // 16 candidates
        let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        assert_eq!(serial.rewritings.len(), 16);
        for par in [2, 3, 4, 8, 64] {
            let parallel =
                pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(par)).unwrap();
            assert_eq!(serial, parallel, "fan-in skew at parallelism {par}");
        }
    }

    #[test]
    fn outcome_identical_on_both_sides_of_the_candidate_threshold() {
        // The code picks inline or fanned-out verification from the
        // candidate count; one problem on each side of the threshold.
        for (k, fans_out) in [(2, false), (3, true)] {
            let problem = multi_candidate_problem(k);
            let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
            assert_eq!(serial.stats.candidates, 1 << k);
            assert_eq!(
                serial.stats.candidates >= PARALLEL_CANDIDATE_THRESHOLD,
                fans_out
            );
            let parallel =
                pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(4)).unwrap();
            assert_eq!(serial, parallel, "skew at {} candidates", 1 << k);
        }
    }

    #[test]
    fn parallel_stats_match_serial_exactly() {
        // Mix accepted, infeasible and rejected candidates so every
        // CandidateStats counter is exercised.
        use estocada_pivot::AccessPattern;
        let mut problem = multi_candidate_problem(3);
        problem
            .access
            .set("V0", AccessPattern::parse("io").unwrap()); // V0-candidates infeasible
        let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let parallel =
            pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(4)).unwrap();
        assert_eq!(serial.stats, parallel.stats);
        assert!(serial.stats.infeasible > 0, "test must exercise infeasible");
        assert!(serial.stats.accepted > 0);
    }

    #[test]
    fn parallel_rewriting_names_match_serial() {
        let problem = multi_candidate_problem(2);
        let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let parallel =
            pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(4)).unwrap();
        let names = |o: &RewriteOutcome| -> Vec<String> {
            o.rewritings.iter().map(|r| r.name.to_string()).collect()
        };
        assert_eq!(names(&serial), names(&parallel));
        // Accepted candidates are numbered densely from 0.
        assert_eq!(names(&serial), vec!["Q_rw0", "Q_rw1", "Q_rw2", "Q_rw3"]);
    }

    #[test]
    fn alpha_equivalent_duplicate_candidates_are_deduplicated() {
        // Q(1) :- R(x), R(y): the universal plan holds one view atom per
        // canonical null (V(?0) and V(?1)); their singleton candidates are
        // alpha-equivalent rewritings and must collapse to one at fan-in —
        // identically at every worker count.
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["a"])
                .atom("R", |x| x.v("a"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_const(1i64)
            .atom("R", |a| a.v("x"))
            .atom("R", |a| a.v("y"))
            .build();
        let problem = RewriteProblem::new(q, vec![v]);
        let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        assert_eq!(
            serial.rewritings.len(),
            1,
            "alpha-equivalent candidates must dedup: {:?}",
            serial.rewritings
        );
        assert_eq!(serial.stats.accepted, 1);
        let parallel =
            pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(4)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn zero_parallelism_behaves_like_serial() {
        let problem = multi_candidate_problem(2);
        let a = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let b = pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(0)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn query_with_constant_rewrites_to_view_with_constant() {
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "y"])
                .atom("R", |a| a.v("x").v("y"))
                .build(),
        );
        let q = CqBuilder::new("Q")
            .head_vars(["y"])
            .atom("R", |a| a.c("alice").v("y"))
            .build();
        let out = rewrite(&RewriteProblem::new(q, vec![v]));
        assert_eq!(out.rewritings.len(), 1);
        let rw = &out.rewritings[0];
        assert_eq!(rw.body.len(), 1);
        assert!(rw.body[0]
            .args
            .iter()
            .any(|t| t.as_const().map(|c| c.as_str() == Some("alice")) == Some(true)));
    }
}
