//! The planner: the one place where a query becomes ranked, executable
//! candidates.
//!
//! # The pipeline
//!
//! The paper's mediator answers every query the same way, and [`plan`] is
//! its only statement in this crate: **parse** the request into a pivot
//! query ([`QueryInput::parse`], on a plan-cache miss), **rewrite** it
//! under the fragment-view constraints ([`Rewriter::rewrite`], through the
//! plan cache), **translate** each rewriting once into its *final* plan —
//! delegated units stitched by mediator operators, with the query's SQL
//! aggregation on top or, when one store covers the whole query, inside
//! the delegated unit ([`translate_query`]; where the aggregate runs is
//! translation's business, not the planner's) — and **rank** the
//! executable ones ([`cheapest`]). Execution, `EXPLAIN`, plan failover and
//! the storage advisor's what-if costing all consume the resulting
//! [`Planned`].
//!
//! Everything the pipeline derives from the catalog and the schema alone
//! is a function of the **catalog epoch** and is derived once per epoch
//! into a [`PlanningContext`] (a `OnceLock` on the engine that every DDL
//! operation resets; DML bumps only the data epoch and leaves it alone).
//! The context owns the epoch's [`Rewriter`] — PACB's three constraint sets
//! compiled and predicate-indexed for the chase, the view names and the
//! access map — so the miss arm of the rewrite step borrows the query,
//! copies the `RewriteConfig` and clones nothing: no view, constraint or
//! access map is derived, cloned or compiled per query, and concurrent
//! misses share the one immutable rewriter.
//!
//! # The rewrite-plan cache
//!
//! Planning is cached at two levels in one epoch-tagged bounded cache
//! ([`crate::plancache::PlanCache`]; any DDL epoch bump invalidates every
//! entry of both):
//!
//! - The **rewriting outcome** of a conjunctive core ([`CoreKey`]: alpha-
//!   equivalent cores, and every query over one core — its plain form, its
//!   aggregates, its renamed columns — share it). A hit skips the chase &
//!   backchase.
//! - The **prepared plan** of one exact request ([`Prepared`], keyed by the
//!   request as the caller sent it — SQL text, a tree pattern and its
//!   selection, or a pivot query; a lookup hashes and compares the
//!   caller's borrowed [`QueryInput`], and only admission copies it into
//!   a key): its parse, every rewriting translated and costed once into a
//!   plan that carries no query's fault handling, the [`Alternative`]s,
//!   and the report's texts, each behind an `Arc`. A hit is hash the
//!   request → lookup → rank → run the chosen plan as it is cached, the
//!   query's fault handling handed to the run
//!   ([`crate::QueryResilience::leaves`]) → a report that shares the
//!   prepared texts: it parses, translates, formats and copies nothing —
//!   no plan is cloned or re-wrapped, no text copied. Two spellings of one
//!   query (keyword case, whitespace) are two requests, each with its own
//!   prepared plan over the one outcome they share.
//!   Translation reads the fragment statistics, which DML moves, and
//!   nothing else a write can change: a rewriting's equivalence to the
//!   query is a function of the catalog alone, and a query's constants are
//!   looked up among the interned cells when it runs, not when it is
//!   priced. So a write moves a plan's prices, never its answer, and a
//!   prepared plan **keeps** across writes while its prices still hold: it
//!   records the row count of every fragment relation its outcome's
//!   rewritings name, as it was priced, and after a write it is kept while
//!   each such count `now` stays within a factor of [`DRIFT`] (2) of the
//!   count `was` it was priced at, `was/2 ≤ now ≤ 2·was`. Past that it is
//!   priced again from the parse and the outcome it keeps (a write never
//!   forces a parse or a chase) and replaced. A count that reaches or
//!   leaves 0 always drifts — no factor bounds a change from nothing — and
//!   must: a key-value or text unit bakes in whether its fragment holds
//!   rows, because an emptied namespace or text index is dropped
//!   ([`crate::layout`]), and a plan kept while its fragment emptied would
//!   answer the missing container with an error instead of no rows.
//!   Translation also reads which relational columns are indexed and
//!   which parallel datasets are keyed, which a query's paid scan can
//!   change ([`crate::layout::index`]), so a plan holds for one index
//!   generation of the two stores ([`crate::Stores::index_generation`])
//!   and is priced again the same way after a build or a keying. Nothing
//!   else it read (the SQL catalog included) can change
//!   within a catalog epoch; breaker state is read when ranking and a
//!   fault plan when running, so neither is part of any key. A kept plan
//!   reports the costs it was priced at ([`crate::Report::alternatives`]).
//!   A plan is admitted **on second sight**: by the
//!   query that found its rewriting already cached, not by the one that ran
//!   the chase. A query seen once costs the cache what it always did — its
//!   outcome — and evicts no plan that is being reused; a repeated one
//!   translates twice, then again only when its prices drift. (Measured, not
//!   assumed: keeping a plan per one-shot query moved `lookup_cold`'s
//!   corrected `read_p50_ms` by +15–25 %, EXPERIMENTS.md "Prepared plans".)
//!
//! The request's hash ([`crate::plancache::hash_of`]) finds the prepared
//! plan; only when that misses is the request parsed (a parse error is
//! returned and leaves nothing cached), the parsed query hashed for the lint
//! lookup (the prepared plan keeps both) and the core canonicalized for the
//! outcome lookup. A miss's parse is not part of its
//! [`crate::Report::rewrite_time`].
//! Each query's activity surfaces in [`crate::Report::plan_cache`] — a
//! *hit* is a query that ran no chase — and the engine-wide counters in
//! [`crate::Estocada::metrics`], which also count the prepared plans priced
//! again ([`crate::Metrics::plans_repriced`]); opt out per query with
//! [`crate::QueryRequest::no_plan_cache`] or engine-wide with
//! [`crate::Estocada::set_default_query_options`] and
//! [`crate::QueryOptions::plan_cache`] `false` (both levels are bypassed:
//! neither consulted nor populated, and every run parses).
//!
//! # Ranking and failover
//!
//! Plan choice compares breaker-penalized costs: a backend with an open
//! circuit, or one that already failed in this query, makes every plan
//! through it rank behind any healthy plan; ties go to the earliest
//! rewriting. The first choice and every failover choice are the same
//! function over the candidates that remain — the cached `est_cost` and
//! `systems` are all it reads — so failover performs **zero** new
//! translation work ([`crate::ResilienceReport::translations`] pins it).
//! With every breaker closed the choice is the plain cost model's.

use crate::analyze;
use crate::catalog::Catalog;
use crate::connector::Residual;
use crate::cost::CostModel;
use crate::dataset::{Dataset, DatasetContent};
use crate::error::Result;
use crate::evaluator::Estocada;
use crate::frontends::{ParsedQuery, QueryInput, SqlCatalog, SqlTable};
use crate::plancache::hash_of;
use crate::report::{Alternative, PlanCacheActivity};
use crate::system::SystemId;
use crate::translate::{translate_query, Query, Translation};
use estocada_chase::{certify, RewriteOutcome, Rewriter, TerminationCertificate};
use estocada_pivot::hash::FastMap;
use estocada_pivot::{Constraint, Cq, Symbol};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The planning inputs that depend on the catalog epoch alone.
pub(crate) struct PlanningContext {
    /// PACB over the epoch's fragment views, schema constraints and access
    /// patterns, prepared once; every plan-cache miss rewrites through it.
    pub(crate) rewriter: Rewriter,
    /// Schema constraints plus both directions of every fragment view —
    /// the set `certificate` speaks about.
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) certificate: TerminationCertificate,
    pub(crate) sql_catalog: SqlCatalog,
}

impl PlanningContext {
    pub(crate) fn derive(est: &Estocada) -> PlanningContext {
        let (schema, catalog) = (est.schema(), est.catalog());
        let constraints = analyze::combined_constraints(schema, catalog, None);
        PlanningContext {
            rewriter: Rewriter::new(
                &catalog.view_defs(),
                &schema.constraints,
                &[],
                catalog.access_map(),
            ),
            certificate: certify(&constraints),
            constraints,
            sql_catalog: sql_catalog(&est.datasets),
        }
    }
}

/// The SQL frontend's table catalog: every table of every relational
/// dataset.
fn sql_catalog(datasets: &FastMap<String, Dataset>) -> SqlCatalog {
    let mut out = SqlCatalog::default();
    for ds in datasets.values() {
        if let DatasetContent::Relational(tables) = &ds.content {
            for t in tables {
                out.insert(
                    t.encoding.relation.as_str().to_string(),
                    SqlTable {
                        columns: t.encoding.columns.clone(),
                        key_column: t.encoding.key.as_ref().and_then(|k| k.first().cloned()),
                        has_text: !t.text_columns.is_empty(),
                    },
                );
            }
        }
    }
    out
}

/// One executable rewriting: its translation, whose `plan` is the *final*
/// plan (the SQL aggregation, if any, already in it) and belongs to no
/// query — a run passes its fault handling in.
pub(crate) struct Candidate {
    /// Index into [`Prepared::alternatives`] (and the outcome's rewritings).
    pub(crate) alternative: usize,
    pub(crate) translation: Translation,
    /// `translation.plan.explain()`, for the report.
    pub(crate) explain: Arc<str>,
}

/// A query parsed, rewritten, translated and costed — everything about its
/// plans that the next run of the same request would compute again.
pub(crate) struct Prepared {
    /// The request's pivot query and its [`hash_of`] (the lint cache's
    /// key and hash).
    pub(crate) query: Arc<ParsedQuery>,
    pub(crate) query_hash: u64,
    pub(crate) outcome: Arc<RewriteOutcome>,
    /// The last data epoch at which this plan's prices were found to hold
    /// (the one it was priced at, at first), and the generation of the
    /// relational indexes and parallel keys it priced probes from.
    held_at: AtomicU64,
    index_generation: u64,
    /// The row count, as priced, of every fragment relation that a
    /// rewriting of the outcome names.
    priced_rows: Vec<(Symbol, u64)>,
    /// The query and the outcome's universal plan, as the report prints them.
    pub(crate) pivot_query: Arc<str>,
    pub(crate) universal_plan: Arc<str>,
    /// Every rewriting, executable or not, in the outcome's order.
    pub(crate) alternatives: Arc<[Alternative]>,
    /// The executable ones, in the same order.
    pub(crate) candidates: Vec<Candidate>,
}

impl Prepared {
    /// Whether this plan's prices still hold at the engine's data epoch and
    /// index generation (module docs). At the data epoch it was last found
    /// to hold at, nothing is compared; after a write, each priced row count
    /// is, and a plan that still holds is marked as holding at this epoch.
    fn holds(&self, catalog: &Catalog, data_epoch: u64, index_generation: u64) -> bool {
        if self.index_generation != index_generation {
            return false;
        }
        if self.held_at.load(Ordering::Relaxed) == data_epoch {
            return true;
        }
        let rows_now = |name| catalog.relation(name).map(|(_, _, stats)| stats.rows);
        let holds = (self.priced_rows.iter())
            .all(|&(name, was)| rows_now(name).is_some_and(|now| within_drift(was, now)));
        if holds {
            self.held_at.store(data_epoch, Ordering::Relaxed);
        }
        holds
    }
}

/// How far, as a factor either way, a priced relation's row count may move
/// before a kept plan is priced again.
const DRIFT: u64 = 2;

/// Whether a relation priced at `was` rows still prices alike at `now`:
/// within a factor of [`DRIFT`] either way, which no count to or from 0 is.
fn within_drift(was: u64, now: u64) -> bool {
    now <= was.saturating_mul(DRIFT) && was <= now.saturating_mul(DRIFT)
}

/// What one call of [`plan`] did to get its [`Prepared`].
pub(crate) struct Planned {
    pub(crate) prepared: Arc<Prepared>,
    /// `Some` when the plan cache was consulted.
    pub(crate) plan_cache: Option<PlanCacheActivity>,
    pub(crate) rewrite_time: Duration,
    pub(crate) translate_time: Duration,
    /// Rewriting→plan translations this call ran: one per rewriting, none
    /// when the prepared plan was cached.
    pub(crate) translations: u64,
}

/// Plan `request` against the engine's current catalog and data epochs,
/// through the plan cache when `cache` is set (serve and keep the result)
/// and past it otherwise.
pub(crate) fn plan(est: &Estocada, request: &QueryInput, cache: bool) -> Result<Planned> {
    let t0 = Instant::now();
    let (epoch, data_epoch) = (est.epoch, est.data_epoch);
    let index_generation = est.stores.index_generation();
    let current = |p: &&Arc<Prepared>| p.holds(est.catalog(), data_epoch, index_generation);
    let plans = &est.plan_cache;
    let activity = |hit| cache.then_some(PlanCacheActivity { hit });
    let hash = cache.then(|| hash_of(request));
    let cached = hash.and_then(|hash| plans.prepared.lookup(hash, |kept| kept == request, epoch));
    if let Some(prepared) = cached.as_ref().filter(current) {
        return Ok(Planned {
            prepared: prepared.clone(),
            plan_cache: activity(true),
            rewrite_time: t0.elapsed(),
            translate_time: Duration::ZERO,
            translations: 0,
        });
    }
    let mut parse_time = Duration::ZERO;
    let (q, query_hash, outcome, hit) = match cached {
        // A write moved the statistics past the drift, or an index was
        // built, under a cached plan: its parse and its outcome hold.
        Some(stale) => {
            plans.repriced.fetch_add(1, Ordering::Relaxed);
            (
                stale.query.clone(),
                stale.query_hash,
                stale.outcome.clone(),
                true,
            )
        }
        None => {
            let t = Instant::now();
            let q = request.parse(&est.planning().sql_catalog)?;
            parse_time = t.elapsed();
            let (outcome, hit) = rewrite(est, &q, cache)?;
            let query_hash = hash_of(&q);
            (q, query_hash, outcome, hit)
        }
    };
    let rewrite_time = t0.elapsed() - parse_time;
    let t1 = Instant::now();
    let epochs = (data_epoch, index_generation);
    let prepared = Arc::new(prepare(est, q, query_hash, outcome, epochs));
    let translate_time = t1.elapsed();
    // Admission on second sight (module docs).
    if let Some(hash) = hash.filter(|_| hit) {
        let (key, value) = (request.to_key(), prepared.clone());
        plans.prepared.replace(hash, key, epoch, value);
    }
    Ok(Planned {
        translations: prepared.alternatives.len() as u64,
        prepared,
        plan_cache: activity(hit),
        rewrite_time,
        translate_time,
    })
}

/// The rewriting outcome of `q` — from the plan cache when `cached`, else
/// computed (and cached) — and whether the cache had it.
fn rewrite(est: &Estocada, q: &ParsedQuery, cached: bool) -> Result<(Arc<RewriteOutcome>, bool)> {
    let (ctx, epoch, outcomes) = (est.planning(), est.epoch, &est.plan_cache.outcomes);
    let key = cached.then(|| CoreKey::of(q)).map(|k| (hash_of(&k), k));
    if let Some(outcome) = key
        .as_ref()
        .and_then(|(h, k)| outcomes.lookup(*h, |kept| kept == k, epoch))
    {
        return Ok((outcome, true));
    }
    // A terminating verdict lifts the budget guard of every chase of this
    // rewrite; any weaker one keeps it as configured.
    let mut cfg = est.rewrite_config();
    cfg.chase = cfg.chase.with_certificate(&ctx.certificate);
    let outcome = Arc::new(ctx.rewriter.rewrite(&q.cq, &cfg)?);
    if let Some((hash, key)) = key {
        outcomes.insert(hash, key, epoch, outcome.clone());
    }
    Ok((outcome, false))
}

/// Translate and cost every rewriting of `outcome` for `q`, once, and
/// print what a report of `q` shows.
fn prepare(
    est: &Estocada,
    q: Arc<ParsedQuery>,
    query_hash: u64,
    outcome: Arc<RewriteOutcome>,
    (data_epoch, index_generation): (u64, u64),
) -> Prepared {
    let query = Query {
        head_names: &q.head_names,
        residuals: &q.residuals,
        aggregate: q.aggregate.as_ref(),
    };
    let mut alternatives = Vec::with_capacity(outcome.rewritings.len());
    let mut candidates = Vec::new();
    let mut priced_rows: Vec<(Symbol, u64)> = Vec::new();
    for (alternative, rw) in outcome.rewritings.iter().enumerate() {
        priced_rows.extend(rw.body.iter().filter_map(|atom| {
            let (_, _, stats) = est.catalog().relation(atom.pred)?;
            Some((atom.pred, stats.rows))
        }));
        let translated = translate_query(rw, &query, est.catalog(), &est.stores, est.cost_model());
        alternatives.push(Alternative {
            rewriting: format!("{rw}"),
            est_cost: translated.as_ref().ok().map(|tr| tr.est_cost),
            note: translated.as_ref().err().map(|e| format!("{e}")),
        });
        if let Ok(translation) = translated {
            candidates.push(Candidate {
                alternative,
                explain: translation.plan.explain().into(),
                translation,
            });
        }
    }
    priced_rows.sort_unstable();
    priced_rows.dedup();
    Prepared {
        pivot_query: format!("{}", q.cq).into(),
        universal_plan: format!("{}", outcome.universal_plan).into(),
        query: q,
        query_hash,
        outcome,
        held_at: AtomicU64::new(data_epoch),
        index_generation,
        priced_rows,
        alternatives: alternatives.into(),
        candidates,
    }
}

/// What a rewriting outcome is a function of within one catalog epoch: the
/// conjunctive core up to variable renaming — except that a query with
/// residual comparisons keys on the exact CQ (residuals reference its
/// concrete variable ids, so two alpha-equivalent variants must not share a
/// cached outcome there).
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct CoreKey {
    cq: Cq,
    residuals: Vec<Residual>,
}

impl CoreKey {
    fn of(q: &ParsedQuery) -> CoreKey {
        let mut cq = match q.residuals.is_empty() {
            true => q.cq.canonicalize(),
            false => q.cq.clone(),
        };
        cq.var_names.clear();
        CoreKey {
            cq,
            residuals: q.residuals.clone(),
        }
    }
}

/// The one ranking rule: the cheapest of `candidates` (each with its index)
/// by penalized cost — each of a candidate's systems that `avoid` flags
/// (open breaker, failed earlier in this query) adds the cost model's
/// unhealthy-backend penalty — with ties to the earliest; the index of the
/// choice, `None` when none remains. Callers leave out a candidate once
/// tried, so every failover choice is this same call.
pub(crate) fn cheapest<'c>(
    candidates: impl IntoIterator<Item = (usize, &'c Candidate)>,
    cost: &CostModel,
    avoid: impl Fn(SystemId) -> bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (idx, c) in candidates {
        let tr = &c.translation;
        let avoided = tr.systems.iter().filter(|s| avoid(**s)).count();
        let eff = cost.penalize(tr.est_cost, avoided);
        if best.is_none_or(|(b, _)| eff < b) {
            best = Some((eff, idx));
        }
    }
    best.map(|(_, idx)| idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BreakerConfig, HealthTracker};
    use estocada_engine::{Plan, RowBatch};
    use estocada_pivot::hash::FastSet;

    fn candidate(alternative: usize, est_cost: f64, systems: &[SystemId]) -> Candidate {
        Candidate {
            alternative,
            translation: Translation {
                plan: Plan::Values(RowBatch::empty(Vec::new())),
                est_cost,
                est_rows: 0.0,
                unit_labels: Vec::new().into(),
                unit_systems: Vec::new(),
                unit_scanned: Vec::new(),
                systems: systems.to_vec(),
                used_relations: Vec::new(),
                eq_scans: Vec::new(),
            },
            explain: "".into(),
        }
    }

    fn healthy(_: SystemId) -> bool {
        false
    }

    #[test]
    fn ties_go_to_the_earliest_and_nothing_left_is_none() {
        let cost = CostModel::default();
        let cs = [
            candidate(0, 7.0, &[SystemId::Relational]),
            candidate(1, 3.0, &[SystemId::KeyValue]),
            candidate(2, 3.0, &[SystemId::Parallel]),
        ];
        assert_eq!(cheapest(cs.iter().enumerate(), &cost, healthy), Some(1));
        assert_eq!(
            cheapest(cs[2..].iter().enumerate(), &cost, healthy),
            Some(0)
        );
        assert_eq!(cheapest(cs[..0].iter().enumerate(), &cost, healthy), None);
    }

    #[test]
    fn an_open_breaker_ranks_behind_any_healthy_candidate() {
        let cost = CostModel::default();
        let health = HealthTracker::new(BreakerConfig {
            trip_after: 1,
            ..BreakerConfig::default()
        });
        health.on_failure(SystemId::KeyValue);
        assert!(health.avoid(SystemId::KeyValue));
        let cs = [
            candidate(0, 1.0, &[SystemId::KeyValue]),
            candidate(1, 1e9, &[SystemId::Relational, SystemId::Parallel]),
        ];
        assert_eq!(
            cheapest(cs.iter().enumerate(), &cost, |s| health.avoid(s)),
            Some(1)
        );
        // Nothing healthy left: the avoided candidate is still a choice.
        assert_eq!(
            cheapest(cs[..1].iter().enumerate(), &cost, |s| health.avoid(s)),
            Some(0)
        );
    }

    #[test]
    fn a_system_that_failed_in_this_query_ranks_behind() {
        let cost = CostModel::default();
        let failed = FastSet::from_iter([SystemId::Relational]);
        let cs = [
            candidate(0, 1.0, &[SystemId::Relational]),
            candidate(1, 2.0, &[SystemId::Relational, SystemId::KeyValue]),
            candidate(2, 500.0, &[SystemId::Parallel]),
        ];
        assert_eq!(
            cheapest(cs.iter().enumerate(), &cost, |s| failed.contains(&s)),
            Some(2)
        );
        // Among equally penalized candidates the cheaper base cost wins.
        assert_eq!(
            cheapest(cs[..2].iter().enumerate(), &cost, |s| failed.contains(&s)),
            Some(0)
        );
    }

    #[test]
    fn a_plan_holds_within_twice_and_half_its_rows_and_never_across_zero() {
        for (was, now, holds) in [
            (100, 100, true),
            (100, 200, true),
            (100, 201, false),
            (100, 50, true),
            (100, 49, false),
            // Half of an odd count is not a whole row: 2 is below 2.5.
            (5, 3, true),
            (5, 2, false),
            (1, 2, true),
            (1, 3, false),
            (0, 0, true),
            (0, 1, false),
            (1, 0, false),
            (100, 0, false),
            (u64::MAX, u64::MAX / 2 + 1, true),
            (u64::MAX / 2, u64::MAX, false),
        ] {
            assert_eq!(within_drift(was, now), holds, "{was} → {now}");
        }
    }

    /// The loop `plan_cq` ran before the planner existed: keep a running
    /// best while translating, replace it on a strictly smaller penalized
    /// cost.
    fn running_best(cs: &[Candidate], cost: &CostModel, open: &FastSet<SystemId>) -> Option<usize> {
        let penalized = |c: &Candidate| {
            let avoided = c.translation.systems.iter().filter(|s| open.contains(s));
            cost.penalize(c.translation.est_cost, avoided.count())
        };
        let mut best: Option<usize> = None;
        for (i, c) in cs.iter().enumerate() {
            if best.is_none_or(|b| penalized(c) < penalized(&cs[b])) {
                best = Some(i);
            }
        }
        best
    }

    #[test]
    fn the_first_pick_is_the_old_running_best() {
        let cost = CostModel::default();
        // Every assignment of three cost levels and four system sets to
        // three candidates, under no / one / two open breakers.
        let systems: [&[SystemId]; 4] = [
            &[SystemId::Relational],
            &[SystemId::KeyValue],
            &[SystemId::Relational, SystemId::KeyValue],
            &[SystemId::Parallel],
        ];
        let opens = [
            FastSet::default(),
            FastSet::from_iter([SystemId::KeyValue]),
            FastSet::from_iter([SystemId::KeyValue, SystemId::Relational]),
        ];
        for code in 0..(12usize.pow(3)) {
            let cs: Vec<Candidate> = (0..3)
                .map(|i| {
                    let digit = code / 12usize.pow(i) % 12;
                    candidate(i as usize, (digit % 3) as f64 * 10.0, systems[digit / 3])
                })
                .collect();
            for open in &opens {
                assert_eq!(
                    cheapest(cs.iter().enumerate(), &cost, |s| open.contains(&s)),
                    running_best(&cs, &cost, open),
                    "code {code}, open {open:?}"
                );
            }
        }
    }
}
