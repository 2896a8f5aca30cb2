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
//!   [`QueryInput`] as the caller sent it — SQL text, a tree pattern and its
//!   selection, or a pivot query): its parse, every rewriting translated and
//!   costed once into a plan that carries no query's fault handling, the
//!   [`Alternative`]s, and the report's texts. A hit is hash the request →
//!   lookup → rank → [`bind`] the chosen plan → execute → report by clone:
//!   it parses, translates and formats nothing. Two spellings of one query
//!   (keyword case, whitespace) are two requests, each with its own prepared
//!   plan over the one outcome they share.
//!   Translation reads the fragment statistics, which DML moves, so a
//!   prepared plan holds for one *data* epoch: after a write the entry is
//!   re-translated from the parse and the outcome it keeps (a write never
//!   forces a parse or a chase) and replaced. Nothing else it read (the SQL
//!   catalog included) can change within a catalog epoch;
//!   breaker state is read when ranking and a fault plan when running, so
//!   neither is part of any key. A plan is kept **on second sight**: by the
//!   query that found its rewriting already cached, not by the one that ran
//!   the chase. A query seen once costs the cache what it always did — its
//!   outcome — and evicts no plan that is being reused; a repeated one
//!   translates twice, then never again in its data epoch. (Measured, not
//!   assumed: keeping a plan per one-shot query moved `lookup_cold`'s
//!   corrected `read_p50_ms` by +15–25 %, EXPERIMENTS.md "Prepared plans".)
//!
//! The request's hash ([`crate::plancache::hash_of`]) finds the prepared
//! plan; only when that misses is the request parsed (a parse error is
//! returned and leaves nothing cached), the parsed query hashed for the lint
//! lookup (the prepared plan keeps both) and the core canonicalized for the
//! outcome lookup. A miss's parse is not part of its
//! [`crate::Report::rewrite_time`].
//! Activity and engine totals surface in [`crate::Report::plan_cache`] — a
//! *hit* is a query that ran no chase; opt out per query with
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
use estocada_pivot::{Constraint, Cq};
use std::borrow::Borrow;
use std::collections::HashMap;
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
            sql_catalog: sql_catalog(est.datasets()),
        }
    }
}

/// The SQL frontend's table catalog: every table of every relational
/// dataset.
fn sql_catalog(datasets: &HashMap<String, Dataset>) -> SqlCatalog {
    let mut out = SqlCatalog::new();
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
/// query — [`crate::translate::bind`] it before running.
pub(crate) struct Candidate {
    /// Index into [`Prepared::alternatives`] (and the outcome's rewritings).
    pub(crate) alternative: usize,
    pub(crate) translation: Translation,
    /// `translation.plan.explain()`, for the report.
    pub(crate) explain: String,
}

/// A query parsed, rewritten, translated and costed — everything about its
/// plans that the next run of the same request would compute again.
pub(crate) struct Prepared {
    /// The request's pivot query and its [`hash_of`] (the lint cache's
    /// key and hash).
    pub(crate) query: Arc<ParsedQuery>,
    pub(crate) query_hash: u64,
    pub(crate) outcome: Arc<RewriteOutcome>,
    /// The data epoch whose fragment statistics translation read.
    data_epoch: u64,
    /// The query and the outcome's universal plan, as the report prints them.
    pub(crate) pivot_query: String,
    pub(crate) universal_plan: String,
    /// Every rewriting, executable or not, in the outcome's order.
    pub(crate) alternatives: Vec<Alternative>,
    /// The executable ones, in the same order.
    pub(crate) candidates: Vec<Candidate>,
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
    let (epoch, data_epoch) = (est.catalog_epoch(), est.data_epoch());
    let plans = &est.plan_cache;
    let activity = |hit| {
        cache.then(|| PlanCacheActivity {
            hit,
            totals: plans.stats(),
        })
    };
    let hash = cache.then(|| hash_of(request));
    let cached = hash.and_then(|hash| plans.prepared.lookup(hash, request, epoch));
    if let Some(prepared) = cached.as_ref().filter(|p| p.data_epoch == data_epoch) {
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
        // A write moved the statistics under a cached plan: its parse and
        // its outcome hold.
        Some(stale) => (
            stale.query.clone(),
            stale.query_hash,
            stale.outcome.clone(),
            true,
        ),
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
    let prepared = Arc::new(prepare(est, q, query_hash, outcome, data_epoch));
    let translate_time = t1.elapsed();
    // Admission on second sight (module docs).
    if let Some(hash) = hash.filter(|_| hit) {
        let (key, value) = (request.clone(), prepared.clone());
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
    let (ctx, epoch, outcomes) = (
        est.planning(),
        est.catalog_epoch(),
        &est.plan_cache.outcomes,
    );
    let key = cached.then(|| CoreKey::of(q)).map(|k| (hash_of(&k), k));
    if let Some(outcome) = key
        .as_ref()
        .and_then(|(h, k)| outcomes.lookup(*h, k, epoch))
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
    data_epoch: u64,
) -> Prepared {
    let query = Query {
        head_names: &q.head_names,
        residuals: &q.residuals,
        aggregate: q.aggregate.as_ref(),
    };
    let mut alternatives = Vec::with_capacity(outcome.rewritings.len());
    let mut candidates = Vec::new();
    for (alternative, rw) in outcome.rewritings.iter().enumerate() {
        let translated = translate_query(rw, &query, est.catalog(), &est.stores, est.cost_model());
        alternatives.push(Alternative {
            rewriting: format!("{rw}"),
            est_cost: translated.as_ref().ok().map(|tr| tr.est_cost),
            note: translated.as_ref().err().map(|e| format!("{e}")),
        });
        if let Ok(translation) = translated {
            candidates.push(Candidate {
                alternative,
                explain: translation.plan.explain(),
                translation,
            });
        }
    }
    Prepared {
        pivot_query: format!("{}", q.cq),
        universal_plan: format!("{}", outcome.universal_plan),
        query: q,
        query_hash,
        outcome,
        data_epoch,
        alternatives,
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

/// The one ranking rule: the cheapest of `candidates` by penalized cost —
/// each of a candidate's systems that `avoid` flags (open breaker, failed
/// earlier in this query) adds the cost model's unhealthy-backend penalty —
/// with ties to the earliest; `None` when none remains. Callers remove a
/// candidate once tried, so every failover choice is this same call.
pub(crate) fn cheapest(
    candidates: &[impl Borrow<Candidate>],
    cost: &CostModel,
    avoid: impl Fn(SystemId) -> bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (idx, c) in candidates.iter().enumerate() {
        let tr = &c.borrow().translation;
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
    use std::collections::HashSet;

    fn candidate(alternative: usize, est_cost: f64, systems: &[SystemId]) -> Candidate {
        Candidate {
            alternative,
            translation: Translation {
                plan: Plan::Values(RowBatch::empty(Vec::new())),
                est_cost,
                est_rows: 0.0,
                unit_labels: Vec::new(),
                unit_systems: Vec::new(),
                systems: systems.to_vec(),
                used_relations: Vec::new(),
            },
            explain: String::new(),
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
        assert_eq!(cheapest(&cs, &cost, healthy), Some(1));
        assert_eq!(cheapest(&cs[2..], &cost, healthy), Some(0));
        assert_eq!(cheapest(&cs[..0], &cost, healthy), None);
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
        assert_eq!(cheapest(&cs, &cost, |s| health.avoid(s)), Some(1));
        // Nothing healthy left: the avoided candidate is still a choice.
        assert_eq!(cheapest(&cs[..1], &cost, |s| health.avoid(s)), Some(0));
    }

    #[test]
    fn a_system_that_failed_in_this_query_ranks_behind() {
        let cost = CostModel::default();
        let failed = HashSet::from([SystemId::Relational]);
        let cs = [
            candidate(0, 1.0, &[SystemId::Relational]),
            candidate(1, 2.0, &[SystemId::Relational, SystemId::KeyValue]),
            candidate(2, 500.0, &[SystemId::Parallel]),
        ];
        assert_eq!(cheapest(&cs, &cost, |s| failed.contains(&s)), Some(2));
        // Among equally penalized candidates the cheaper base cost wins.
        assert_eq!(cheapest(&cs[..2], &cost, |s| failed.contains(&s)), Some(0));
    }

    /// The loop `plan_cq` ran before the planner existed: keep a running
    /// best while translating, replace it on a strictly smaller penalized
    /// cost.
    fn running_best(cs: &[Candidate], cost: &CostModel, open: &HashSet<SystemId>) -> Option<usize> {
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
            HashSet::new(),
            HashSet::from([SystemId::KeyValue]),
            HashSet::from([SystemId::KeyValue, SystemId::Relational]),
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
                    cheapest(&cs, &cost, |s| open.contains(&s)),
                    running_best(&cs, &cost, open),
                    "code {code}, open {open:?}"
                );
            }
        }
    }
}
