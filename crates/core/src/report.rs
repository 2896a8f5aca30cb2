//! Execution reports: what the demo shows after running a query — the
//! chosen rewriting, the executable plan, and performance statistics split
//! across the underlying DMSs and the ESTOCADA runtime.

use crate::analyze::Diagnostic;
use crate::resilience::ResilienceReport;
use crate::system::SystemId;
use estocada_engine::ExecStats;
use estocada_simkit::MetricsSnapshot;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// What an epoch cache did for one query: whether this query's value came
/// from the cache — for the rewrite-plan cache, skipping the chase &
/// backchase entirely (alone, or with the prepared plans built from it,
/// which [`Report::translate_time`] tells apart). `None` in a [`Report`]
/// means the cache was bypassed for the query (per-request opt-out or
/// engine-level disable). The engine-wide counters are in
/// [`crate::Estocada::metrics`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanCacheActivity {
    /// This query's value was served from the cache.
    pub hit: bool,
}

/// A considered rewriting alternative with its estimated cost.
#[derive(Debug, Clone)]
pub struct Alternative {
    /// The rewriting as text.
    pub rewriting: String,
    /// Estimated cost (abstract units); `None` when untranslatable.
    pub est_cost: Option<f64>,
    /// Why translation failed, when it did.
    pub note: Option<String>,
}

/// Full report of one query execution. Its texts are printed once, when
/// the query is planned, and shared by the reports of every run of its
/// prepared plan.
#[derive(Debug, Clone)]
pub struct Report {
    /// The query in pivot form.
    pub pivot_query: Arc<str>,
    /// The universal plan computed by the chase.
    pub universal_plan: Arc<str>,
    /// All rewritings considered. A prepared plan kept across writes
    /// (every relation it priced stayed within twice or half the rows it
    /// was priced at) reports, and ranks by, the `est_cost` each
    /// alternative was priced at, from the row estimates of then, not what
    /// the current statistics would price. Past that drift it is priced
    /// again, and [`Report::translate_time`] is not zero.
    pub alternatives: Arc<[Alternative]>,
    /// Index of the chosen alternative (0 when no alternative is
    /// executable — then [`Report::plan`] says so and none has a cost).
    pub chosen: usize,
    /// EXPLAIN text of the executed plan.
    pub plan: Arc<str>,
    /// Labels of delegated units.
    pub delegated: Arc<[String]>,
    /// Per-store metrics deltas for this query.
    pub per_store: Vec<(SystemId, MetricsSnapshot)>,
    /// Engine counters.
    pub exec: ExecStats,
    /// Time from the start of planning to a rewriting outcome in hand,
    /// parsing apart: the plan-cache lookups (on a hit, all there is — hash
    /// the request as sent and look it up; the rank, execution and report
    /// that follow are not planning) and, on a miss, the core's canonical
    /// key and PACB rewriting.
    pub rewrite_time: Duration,
    /// Time spent translating and costing every rewriting and printing the
    /// report's texts — exactly zero when the query's prepared plan was
    /// cached, which translates and formats nothing.
    pub translate_time: Duration,
    /// Whether the rewriting search was provably complete.
    pub complete_search: bool,
    /// Rewrite-plan cache activity (`None` when the cache was bypassed).
    pub plan_cache: Option<PlanCacheActivity>,
    /// What fault handling did: retries, store errors, breaker moves, and
    /// the plan-failover chain. `None` when no fault event fired (every
    /// fault-free query), keeping the clean-path report bit-identical to
    /// an engine without fault handling.
    pub resilience: Option<ResilienceReport>,
    /// Static-analyzer findings on this query's CQ (cached per catalog
    /// epoch alongside the plan cache). Empty for a clean query, keeping
    /// the clean-path report identical to an engine without the analyzer.
    pub diagnostics: Vec<Diagnostic>,
    /// Lint-cache activity for this query's diagnostics: whether they
    /// were served from the epoch-keyed lint cache. `None` when analysis
    /// was skipped
    /// ([`crate::ValidationMode::Off`]). The cache keys on the **catalog**
    /// epoch alone — DML bumps only the data epoch, so writes keep lints
    /// cached (pinned by `dml::dml_keeps_cached_lints`).
    pub lint_cache: Option<PlanCacheActivity>,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pivot query:    {}", self.pivot_query)?;
        writeln!(f, "universal plan: {}", self.universal_plan)?;
        writeln!(f, "rewritings considered: {}", self.alternatives.len())?;
        for (i, a) in self.alternatives.iter().enumerate() {
            // `chosen` is 0 when nothing is executable: the arrow marks
            // only an alternative that was costed and chosen.
            let chosen = i == self.chosen && a.est_cost.is_some();
            let marker = if chosen { "→" } else { " " };
            match (&a.est_cost, &a.note) {
                (Some(c), _) => writeln!(f, " {marker} [cost {c:10.1}] {}", a.rewriting)?,
                (None, Some(n)) => writeln!(f, " {marker} [skipped: {n}] {}", a.rewriting)?,
                (None, None) => writeln!(f, " {marker} [skipped] {}", a.rewriting)?,
            }
        }
        writeln!(f, "plan:")?;
        for line in self.plan.lines() {
            writeln!(f, "  {line}")?;
        }
        writeln!(
            f,
            "times: rewrite {:?}, translate {:?}, execute {:?} (runtime {:?} / stores {:?})",
            self.rewrite_time,
            self.translate_time,
            self.exec.total_time,
            self.exec.runtime_time(),
            self.exec.delegated_time,
        )?;
        for (sys, m) in &self.per_store {
            if m.requests > 0 {
                writeln!(
                    f,
                    "  {sys}: {} requests, {} tuples out, {} scanned, busy {:?}",
                    m.requests, m.tuples_out, m.tuples_scanned, m.busy
                )?;
            }
        }
        if let Some(pc) = &self.plan_cache {
            let outcome = if pc.hit {
                "hit — backchase skipped"
            } else {
                "miss"
            };
            writeln!(f, "plan cache:     {outcome}")?;
        }
        if let Some(lc) = &self.lint_cache {
            let outcome = if lc.hit {
                "hit — analysis skipped"
            } else {
                "miss"
            };
            writeln!(f, "lint cache:     {outcome}")?;
        }
        if let Some(r) = &self.resilience {
            writeln!(
                f,
                "resilience:     {} plan attempt(s), {} retries, {} store error(s), {} translation(s)",
                r.attempts.len(),
                r.retries,
                r.store_errors.len(),
                r.translations,
            )?;
            for a in &r.attempts {
                let systems: Vec<String> = a.systems.iter().map(|s| s.to_string()).collect();
                match &a.error {
                    Some(e) => writeln!(
                        f,
                        "  attempt alt {} [{}]: failed: {e}",
                        a.alternative,
                        systems.join(", "),
                    )?,
                    None => writeln!(
                        f,
                        "  attempt alt {} [{}]: ok",
                        a.alternative,
                        systems.join(", "),
                    )?,
                }
            }
            for t in &r.breaker_transitions {
                writeln!(f, "  breaker {t}")?;
            }
        }
        if !self.diagnostics.is_empty() {
            writeln!(f, "diagnostics:")?;
            for d in &self.diagnostics {
                writeln!(f, "  {d}")?;
            }
        }
        Ok(())
    }
}

/// The rows of a query result plus its report.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<estocada_pivot::Value>>,
    /// Execution report.
    pub report: Report,
}
