//! The planner: the one place where a pivot query becomes ranked,
//! executable candidates.
//!
//! # The pipeline
//!
//! The paper's mediator answers every query the same way, and [`plan`] is
//! its only statement in this crate: **rewrite** the pivot query under the
//! fragment-view constraints ([`Rewriter::rewrite`], through the plan
//! cache), **translate** each rewriting once into its *final* plan —
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
//! Rewriting outcomes are cached in an epoch-keyed bounded map
//! ([`crate::plancache::PlanCache`]): a repeated query shape skips the
//! chase & backchase and goes straight to translation; any DDL epoch bump
//! invalidates every entry. Activity and engine totals surface in
//! [`crate::Report::plan_cache`]; opt out per query with
//! [`crate::QueryRequest::no_plan_cache`] or engine-wide with
//! [`crate::Estocada::set_plan_cache`]. Translations are *not* cached
//! today — they read live fragment statistics and bind the query's
//! resilience context into their runners. Caching the translated, costed
//! alternatives beside the outcome (keyed also on the data epoch and the
//! breaker state) would go between the lookup and the translation loop of
//! [`plan`].
//!
//! # Ranking and failover
//!
//! Plan choice compares breaker-penalized costs: a backend with an open
//! circuit, or one that already failed in this query, makes every plan
//! through it rank behind any healthy plan; ties go to the earliest
//! rewriting. The first choice and every failover choice are the same
//! function over the candidates that remain, so failover performs **zero**
//! new translation work ([`crate::ResilienceReport::translations`] pins
//! it). With every breaker closed the choice is the plain cost model's.

use crate::analyze;
use crate::cost::CostModel;
use crate::dataset::{Dataset, DatasetContent};
use crate::error::Result;
use crate::evaluator::{Estocada, ResolvedOptions};
use crate::frontends::{ParsedQuery, SqlCatalog, SqlTable};
use crate::report::{Alternative, PlanCacheActivity};
use crate::resilience::QueryResilience;
use crate::system::SystemId;
use crate::translate::{translate_query, Query, Translation};
use estocada_chase::{certify, RewriteOutcome, Rewriter, TerminationCertificate};
use estocada_pivot::Constraint;
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
/// plan (the SQL aggregation, if any, already in it).
/// Lives for one query: its runners hold the query's resilience context.
pub(crate) struct Candidate {
    /// Index into [`Planned::alternatives`] (and the outcome's rewritings).
    pub(crate) alternative: usize,
    pub(crate) translation: Translation,
}

/// A planned (rewritten + translated + costed) query.
pub(crate) struct Planned {
    pub(crate) outcome: Arc<RewriteOutcome>,
    /// `Some` when the plan cache was consulted.
    pub(crate) plan_cache: Option<PlanCacheActivity>,
    pub(crate) rewrite_time: Duration,
    pub(crate) translate_time: Duration,
    /// Every rewriting, executable or not, in the outcome's order.
    pub(crate) alternatives: Vec<Alternative>,
    /// The executable ones, in the same order.
    pub(crate) candidates: Vec<Candidate>,
}

/// Plan `q` against the engine's current catalog epoch. With `resilience`
/// set, delegated runners are wrapped in the query's retry/breaker loop and
/// translation runs are counted on it; `None` plans for costing only.
pub(crate) fn plan(
    est: &Estocada,
    q: &ParsedQuery,
    opts: &ResolvedOptions,
    resilience: Option<&Arc<QueryResilience>>,
) -> Result<Planned> {
    let t0 = Instant::now();
    let (outcome, plan_cache) = rewrite(est, q, opts)?;
    let rewrite_time = t0.elapsed();

    let t1 = Instant::now();
    let mut alternatives = Vec::with_capacity(outcome.rewritings.len());
    let mut candidates = Vec::new();
    for (alternative, rw) in outcome.rewritings.iter().enumerate() {
        if let Some(r) = resilience {
            r.note_translation();
        }
        let query = Query {
            head_names: &q.head_names,
            residuals: &q.residuals,
            aggregate: q.aggregate.as_ref(),
        };
        let translated = translate_query(
            rw,
            &query,
            est.catalog(),
            &est.stores,
            est.cost_model(),
            resilience,
        );
        alternatives.push(Alternative {
            rewriting: format!("{rw}"),
            est_cost: translated.as_ref().ok().map(|tr| tr.est_cost),
            note: translated.as_ref().err().map(|e| format!("{e}")),
        });
        if let Ok(translation) = translated {
            candidates.push(Candidate {
                alternative,
                translation,
            });
        }
    }
    Ok(Planned {
        outcome,
        plan_cache,
        rewrite_time,
        translate_time: t1.elapsed(),
        alternatives,
        candidates,
    })
}

/// The rewriting outcome of `q` — from the plan cache when `opts` allow
/// it, else computed (and cached) — with the cache activity to report.
fn rewrite(
    est: &Estocada,
    q: &ParsedQuery,
    opts: &ResolvedOptions,
) -> Result<(Arc<RewriteOutcome>, Option<PlanCacheActivity>)> {
    let (ctx, epoch) = (est.planning(), est.catalog_epoch());
    let key = opts.plan_cache.then(|| plan_cache_key(q));
    let cached = key.as_ref().and_then(|k| est.plan_cache.lookup(k, epoch));
    let cache_hit = key.as_ref().map(|_| cached.is_some());
    let outcome = match cached {
        Some(outcome) => outcome,
        None => {
            // A terminating verdict lifts the budget guard of every chase
            // of this rewrite; any weaker one keeps it as configured.
            let mut cfg = est.rewrite_config();
            cfg.chase = cfg.chase.with_certificate(&ctx.certificate);
            let outcome = Arc::new(ctx.rewriter.rewrite(&q.cq, &cfg)?);
            if let Some(key) = key {
                est.plan_cache.insert(key, epoch, outcome.clone());
            }
            outcome
        }
    };
    let activity = cache_hit.map(|hit| PlanCacheActivity {
        hit,
        totals: est.plan_cache.stats(),
    });
    Ok((outcome, activity))
}

/// The one ranking rule: the cheapest of `candidates` by penalized cost —
/// each of a candidate's systems that `avoid` flags (open breaker, failed
/// earlier in this query) adds the cost model's unhealthy-backend penalty —
/// with ties to the earliest; `None` when none remains. Callers remove a
/// candidate once tried, so every failover choice is this same call.
pub(crate) fn cheapest(
    candidates: &[Candidate],
    cost: &CostModel,
    avoid: impl Fn(SystemId) -> bool,
) -> Option<usize> {
    let mut best: Option<(f64, usize)> = None;
    for (idx, c) in candidates.iter().enumerate() {
        let tr = &c.translation;
        let avoided = tr.systems.iter().filter(|s| avoid(**s)).count();
        let eff = cost.penalize(tr.est_cost, avoided);
        if best.is_none_or(|(b, _)| eff < b) {
            best = Some((eff, idx));
        }
    }
    best.map(|(_, idx)| idx)
}

/// The stable plan-cache key of a query: the alpha-invariant canonical
/// form, except that a query with residual comparisons keys on the exact
/// CQ — residuals reference its concrete variable ids, so two
/// alpha-equivalent variants must not share a cached outcome there.
fn plan_cache_key(q: &ParsedQuery) -> String {
    let cq = &q.cq;
    if q.residuals.is_empty() {
        let c = cq.canonicalize();
        format!("c|{}|{:?}|{:?}", cq.name, c.head, c.body)
    } else {
        format!(
            "x|{}|{:?}|{:?}|{:?}",
            cq.name, cq.head, cq.body, q.residuals
        )
    }
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
                systems: systems.to_vec(),
                used_relations: Vec::new(),
            },
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
        assert_eq!(cheapest(&[], &cost, healthy), None);
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
