//! The ESTOCADA mediator facade: datasets in, fragments materialized,
//! queries answered through constraint-based rewriting.
//!
//! # The shared-read query API
//!
//! [`Estocada`] splits its surface into two paths:
//!
//! - **DDL time** (`&mut self`): [`Estocada::register_dataset`],
//!   [`Estocada::add_fragment`], [`Estocada::drop_fragment`]. Each DDL
//!   operation bumps the **catalog epoch**
//!   ([`Estocada::catalog_epoch`]) and invalidates the rewrite-plan
//!   cache wholesale.
//! - **Query time** (`&self`, and `Estocada: Sync`):
//!   [`Estocada::query_sql`], [`Estocada::query_doc`],
//!   [`Estocada::query_cq`], [`Estocada::explain_sql`] and
//!   [`Estocada::oracle_eval`] all take `&self`, so any number of client
//!   threads can answer queries against one shared engine concurrently —
//!   the underlying stores synchronize internally, fragment usage counters
//!   are atomics, and the staged fact base is a lazily-initialized
//!   [`OnceLock`]. Rewriting is deterministic at any worker count (the PR 2
//!   fan-in contract), so concurrent runs return exactly what the serial
//!   run returns.
//!
//! # Per-query options: the builder
//!
//! Per-query knobs no longer require exclusive access to the engine.
//! [`Estocada::query`] (and its document/pivot siblings
//! [`Estocada::query_pattern`] / [`Estocada::query_pivot`]) return a
//! [`QueryRequest`] builder:
//!
//! ```text
//! engine.query(sql)
//!     .with_rewrite_workers(4)   // parallel backchase width
//!     .with_chase_workers(2)     // trigger-search width inside the chases
//!     .explain_only()            // plan, don't execute
//!     .run()?;
//! ```
//!
//! Options a request leaves unset fall back to the engine's *default*
//! [`QueryOptions`] ([`Estocada::set_default_query_options`]); worker
//! counts never change results.
//!
//! # The rewrite-plan cache
//!
//! Rewriting outcomes are cached in an epoch-keyed bounded map
//! ([`crate::plancache::PlanCache`]): a repeated query shape skips the
//! chase & backchase entirely and goes straight to translation (which is
//! cheap and depends on live statistics, so it is *not* cached). Any DDL
//! epoch bump invalidates every entry. Per-query activity and engine
//! totals are surfaced in [`Report::plan_cache`]; opt out per query with
//! [`QueryRequest::no_plan_cache`] or engine-wide with
//! [`Estocada::set_plan_cache`].

use crate::analyze::{self, Diagnostic, Severity, ValidationMode};
use crate::catalog::{Catalog, FragmentMeta, FragmentSpec};
use crate::connector::Residual;
use crate::cost::CostModel;
use crate::dataset::{Dataset, DatasetContent};
use crate::error::PlanFailure;
use crate::error::{Error, Result};
use crate::frontends::{doc_query, parse_sql, AggregateSpec, SqlCatalog, SqlTable};
use crate::materialize::{drop_fragment, fact_base, materialize};
use crate::plancache::{LintCache, PlanCache, PlanCacheStats};
use crate::report::{Alternative, PlanCacheActivity, QueryResult, Report};
use crate::resilience::{
    system_for_store, BackendHealth, BreakerConfig, HealthTracker, PlanAttempt, QueryResilience,
    ResilienceReport, RetryPolicy,
};
use crate::system::{Latencies, Stores, SystemId};
use crate::translate::{translate, Translation};
use estocada_chase::{
    pacb_rewrite, Instance, RewriteConfig, RewriteOutcome, RewriteProblem, TerminationCertificate,
};
use estocada_engine::{execute_with, EngineError, ExecOptions, Expr, Plan};
use estocada_pivot::encoding::document::TreePattern;
use estocada_pivot::{Constraint, Cq, IdGen, Schema};
use estocada_simkit::FaultPlan;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Per-query knobs, resolved against the engine's defaults at run time.
///
/// `None` means "use the engine default". Build one fluently through
/// [`QueryRequest`], or construct it directly and pass it to
/// [`QueryRequest::with_options`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
    /// Worker threads of the parallel PACB backchase (candidate
    /// verification). Any value yields the identical rewriting outcome.
    pub rewrite_workers: Option<usize>,
    /// Worker threads of the chases' trigger-search phase. Any value
    /// yields the identical rewriting outcome.
    pub chase_workers: Option<usize>,
    /// Plan and cost the query but skip execution; the returned
    /// [`QueryResult`] has no rows and a fully populated report.
    pub explain_only: bool,
    /// Consult/populate the rewrite-plan cache (on by default; the engine
    /// can also disable the cache globally).
    pub plan_cache: bool,
    /// Retry policy for delegated store calls. `None` uses the engine
    /// default ([`RetryPolicy::default`] unless reconfigured).
    pub retry: Option<RetryPolicy>,
    /// Per-query wall-clock budget, measured from query start: retries
    /// stop backing off and failover stops trying further plans once
    /// exceeded. `None` means unbounded.
    pub deadline: Option<Duration>,
    /// Batch size (rows) of the vectorized executor's pipeline.
    pub batch_size: usize,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            rewrite_workers: None,
            chase_workers: None,
            explain_only: false,
            plan_cache: true,
            retry: None,
            deadline: None,
            batch_size: 1024,
        }
    }
}

impl QueryOptions {
    /// Set the retry policy for delegated store calls.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// Set the wall-clock budget of the execution phase.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Set the vectorized executor's batch size (clamped to at least 1).
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.batch_size = rows.max(1);
        self
    }
}

/// The query input a [`QueryRequest`] carries: one of the three frontends.
#[derive(Debug, Clone)]
enum QueryInput {
    /// Mini-SQL text.
    Sql(String),
    /// Document tree pattern + selected bindings.
    Doc {
        pattern: TreePattern,
        select: Vec<String>,
    },
    /// A pivot CQ with output names and residual comparisons.
    Pivot {
        cq: Cq,
        head_names: Vec<String>,
        residuals: Vec<Residual>,
    },
}

/// A query being assembled against a shared engine — created by
/// [`Estocada::query`] / [`Estocada::query_pattern`] /
/// [`Estocada::query_pivot`], configured fluently, finished with
/// [`QueryRequest::run`] (or [`QueryRequest::explain`]). Holds `&Estocada`:
/// any number of requests may run concurrently.
#[derive(Clone)]
pub struct QueryRequest<'e> {
    engine: &'e Estocada,
    input: QueryInput,
    opts: QueryOptions,
}

impl std::fmt::Debug for QueryRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRequest")
            .field("input", &self.input)
            .field("opts", &self.opts)
            .finish_non_exhaustive()
    }
}

impl QueryRequest<'_> {
    /// Set the parallel-backchase worker count for this query only.
    pub fn with_rewrite_workers(mut self, workers: usize) -> Self {
        self.opts.rewrite_workers = Some(workers.max(1));
        self
    }

    /// Set the chase trigger-search worker count for this query only.
    pub fn with_chase_workers(mut self, workers: usize) -> Self {
        self.opts.chase_workers = Some(workers.max(1));
        self
    }

    /// Plan and cost, but do not execute: [`QueryRequest::run`] returns an
    /// empty row set with a fully populated report.
    pub fn explain_only(mut self) -> Self {
        self.opts.explain_only = true;
        self
    }

    /// Bypass the rewrite-plan cache for this query (neither consulted nor
    /// populated).
    pub fn no_plan_cache(mut self) -> Self {
        self.opts.plan_cache = false;
        self
    }

    /// Set the retry policy for this query's delegated store calls.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.opts.retry = Some(policy);
        self
    }

    /// Set the wall-clock budget of this query's execution phase.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.opts.deadline = Some(deadline);
        self
    }

    /// Set the vectorized executor's batch size for this query.
    pub fn with_batch_size(mut self, rows: usize) -> Self {
        self.opts.batch_size = rows.max(1);
        self
    }

    /// Replace all options at once.
    pub fn with_options(mut self, opts: QueryOptions) -> Self {
        self.opts = opts;
        self
    }

    /// The options as currently configured.
    pub fn options(&self) -> QueryOptions {
        self.opts
    }

    /// Run the query end to end (or plan-only with
    /// [`QueryRequest::explain_only`]).
    pub fn run(self) -> Result<QueryResult> {
        let (cq, head_names, residuals, aggregate) = match self.input {
            QueryInput::Sql(sql) => {
                let parsed = parse_sql(&sql, &self.engine.sql_catalog())?;
                (
                    parsed.cq,
                    parsed.head_names,
                    parsed.residuals,
                    parsed.aggregate,
                )
            }
            QueryInput::Doc { pattern, select } => {
                let sel: Vec<&str> = select.iter().map(String::as_str).collect();
                let parsed = doc_query(&pattern, &sel)?;
                (parsed.cq, parsed.head_names, Vec::new(), None)
            }
            QueryInput::Pivot {
                cq,
                head_names,
                residuals,
            } => (cq, head_names, residuals, None),
        };
        self.engine
            .run_planned(&cq, &head_names, &residuals, aggregate.as_ref(), &self.opts)
    }

    /// Plan and cost without executing; returns the report alone.
    pub fn explain(self) -> Result<Report> {
        Ok(self.explain_only().run()?.report)
    }
}

/// A planned (rewritten + translated + costed) query, shared by the
/// execute and explain paths so the two can never drift.
struct PlannedQuery {
    outcome: Arc<RewriteOutcome>,
    /// `Some(hit?)` when the plan cache was consulted.
    cache_hit: Option<bool>,
    rewrite_time: Duration,
    alternatives: Vec<Alternative>,
    /// Executable translations, index-aligned with `alternatives` and
    /// `outcome.rewritings` (`None` = untranslatable). Each rewriting is
    /// translated exactly once, here; plan failover takes candidates out
    /// of this vector instead of re-running translation per attempt.
    /// Translations bind the query's resilience context into their
    /// runners, so they are per-query values — retained for the query's
    /// lifetime, never cached across queries (the cached `RewriteOutcome`
    /// carries the cross-query, per-catalog-epoch part).
    translations: Vec<Option<Translation>>,
    /// Index of the cheapest executable rewriting, when one exists.
    best: Option<usize>,
    translate_time: Duration,
}

/// The mediator.
pub struct Estocada {
    /// The underlying store instances.
    pub stores: Stores,
    latencies: Latencies,
    cost: CostModel,
    pub(crate) datasets: HashMap<String, Dataset>,
    schema: Schema,
    /// The staged pivot fact base, built lazily on first use by whichever
    /// query thread gets there first; reset (not rebuilt) by DDL and
    /// maintained **incrementally** by DML (see [`crate::dml`]).
    pub(crate) base: OnceLock<Instance>,
    pub(crate) catalog: Catalog,
    /// Base rewriting configuration (budgets and auto-sized worker
    /// defaults); per-query [`QueryOptions`] refine it.
    rewrite_cfg: RewriteConfig,
    /// Engine-default query options; per-query options override
    /// field-by-field.
    default_opts: QueryOptions,
    frag_seq: usize,
    /// The catalog epoch: bumped by every DDL operation. Tags plan-cache
    /// entries so no query can ever run a plan computed against an older
    /// catalog.
    epoch: u64,
    /// The data epoch: bumped by every DML batch, **without** touching the
    /// plan cache — writes change data, not the catalog, so cached
    /// rewritings stay valid across them.
    pub(crate) data_epoch: u64,
    /// Incremental-maintenance bookkeeping (fact multiplicities, fragment
    /// row supports, high-water marks), seeded lazily on the first DML
    /// batch and invalidated by DDL.
    pub(crate) maint: Option<crate::dml::MaintenanceState>,
    plan_cache: PlanCache,
    /// The analyzer's per-query findings, cached per catalog epoch
    /// alongside the plan cache (same epoch discipline: any DDL
    /// invalidates both wholesale).
    lint_cache: LintCache,
    /// How DDL reacts to static-analyzer findings (see
    /// [`ValidationMode`]); queries always report lints regardless.
    validation: ValidationMode,
    /// Per-backend circuit breakers, shared by every query.
    health: Arc<HealthTracker>,
    /// The installed fault-injection plan, if any.
    fault_plan: Option<FaultPlan>,
}

impl Estocada {
    /// A mediator over fresh stores with the given latency calibration.
    ///
    /// With all-zero latencies the cost model still uses the datacenter
    /// calibration: the optimizer's beliefs about relative store costs
    /// should not degenerate just because latency simulation is off.
    pub fn new(latencies: Latencies) -> Estocada {
        let cost = if latencies.is_zero() {
            CostModel::default()
        } else {
            CostModel::from_latencies(&latencies)
        };
        Estocada {
            stores: Stores::new(latencies),
            latencies,
            cost,
            datasets: HashMap::new(),
            schema: Schema::new(),
            base: OnceLock::new(),
            catalog: Catalog::new(),
            // The parallel backchase and the chases' trigger-search
            // phase are both deterministic at any worker count (identical
            // RewriteOutcome), so the hot rewriting path defaults to one
            // worker per core on each.
            rewrite_cfg: RewriteConfig::default()
                .with_parallelism(estocada_parexec::default_parallelism())
                .with_chase_parallelism(estocada_parexec::default_parallelism()),
            default_opts: QueryOptions::default(),
            frag_seq: 0,
            epoch: 0,
            data_epoch: 0,
            maint: None,
            plan_cache: PlanCache::default(),
            lint_cache: LintCache::default(),
            validation: ValidationMode::default(),
            health: Arc::new(HealthTracker::default()),
            fault_plan: None,
        }
    }

    /// A mediator with zero simulated latency (tests).
    pub fn in_memory() -> Estocada {
        Estocada::new(Latencies::zero())
    }

    /// The latency calibration in effect.
    pub fn latencies(&self) -> Latencies {
        self.latencies
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The rewriting configuration queries run with by default (the base
    /// configuration with the engine-default [`QueryOptions`] applied).
    pub fn rewrite_config(&self) -> RewriteConfig {
        self.effective_cfg(&QueryOptions::default())
    }

    /// Replace the base rewriting configuration (chase budgets, worker
    /// defaults) — DDL-time configuration. Bumps the catalog epoch:
    /// cached plans were computed under the previous configuration.
    pub fn set_rewrite_config(&mut self, cfg: RewriteConfig) {
        self.rewrite_cfg = cfg;
        self.bump_epoch();
    }

    /// The engine-default query options.
    pub fn default_query_options(&self) -> QueryOptions {
        self.default_opts
    }

    /// Replace the engine-default query options (DDL-time configuration;
    /// per-query options still override field-by-field).
    pub fn set_default_query_options(&mut self, opts: QueryOptions) {
        self.default_opts = opts;
    }

    /// Enable or disable the rewrite-plan cache engine-wide. Disabling
    /// also drops every cached entry.
    pub fn set_plan_cache(&mut self, enabled: bool) {
        self.default_opts.plan_cache = enabled;
        if !enabled {
            self.plan_cache.clear();
        }
    }

    /// Install (or clear, with `None`) a seeded fault-injection plan. Each
    /// backend's gate on the delegated-request path gets a fresh cursor
    /// keyed by its selector name (`relational`, `key-value`, `document`,
    /// `text`, `parallel`) and is consulted before every delegated store
    /// request from then on; admin paths never pass a gate. An empty plan
    /// (or `None`) disarms every gate, restoring the bit-identical clean
    /// path.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan.filter(|p| !p.is_empty());
        self.stores.set_fault_plan(self.fault_plan.as_ref());
    }

    /// The installed fault-injection plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Replace the circuit-breaker thresholds (DDL-time configuration).
    /// Resets every breaker to closed.
    pub fn set_breaker_config(&mut self, cfg: BreakerConfig) {
        self.health = Arc::new(HealthTracker::new(cfg));
    }

    /// Current breaker state and health counters of every backend.
    pub fn backend_health(&self) -> Vec<(SystemId, BackendHealth)> {
        self.health.snapshot()
    }

    /// Close every breaker and zero the health counters (e.g. after a
    /// scripted outage ends).
    pub fn reset_backend_health(&self) {
        self.health.reset();
    }

    /// The current catalog epoch (bumped by every DDL operation).
    pub fn catalog_epoch(&self) -> u64 {
        self.epoch
    }

    /// The current data epoch (bumped by every DML batch). Distinct from
    /// the catalog epoch: a write invalidates no cached rewrite plan.
    pub fn data_epoch(&self) -> u64 {
        self.data_epoch
    }

    /// Rewrite-plan cache counters and size.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Lint-cache counters and size. The lint cache keys per-query
    /// diagnostics on the **catalog** epoch alone: DML batches bump only
    /// the data epoch, so writes never force lint recomputation (see
    /// `dml::dml_keeps_cached_lints`).
    pub fn lint_cache_stats(&self) -> PlanCacheStats {
        self.lint_cache.stats()
    }

    /// The termination certificate of the deployment's combined
    /// constraint set — the verdict the planner feeds into
    /// [`estocada_chase::ChaseConfig::with_certificate`] on every
    /// plan-cache miss. Certified deployments (`WeaklyAcyclic`,
    /// `SuperWeaklyAcyclic`, `Stratified`) chase budget-free; the rest
    /// keep the configured budget guard. Snapshot tooling pins
    /// [`TerminationCertificate::rung`] per deployment.
    pub fn termination_certificate(&self) -> TerminationCertificate {
        analyze::termination_certificate(&self.schema, &self.catalog)
    }

    /// The combined constraint set the certificate speaks about: schema
    /// constraints (including declared-key EGDs) plus both directions of
    /// every fragment view. Snapshot tooling and benches chase exactly
    /// this set to reproduce the planner's termination behaviour.
    pub fn constraint_set(&self) -> Vec<Constraint> {
        analyze::combined_constraints(&self.schema, &self.catalog, None)
    }

    /// One DDL operation happened: advance the epoch and drop every cached
    /// plan (they were computed against the previous catalog). DDL also
    /// invalidates the DML maintenance bookkeeping — fragment row supports
    /// were computed against the previous catalog and staging base.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.plan_cache.clear();
        self.lint_cache.clear();
        self.maint = None;
    }

    /// The DDL validation mode in effect.
    pub fn validation(&self) -> ValidationMode {
        self.validation
    }

    /// Set how DDL reacts to static-analyzer findings: [`ValidationMode::Off`]
    /// skips analysis, [`ValidationMode::Warn`] (the default) analyzes but
    /// always accepts, [`ValidationMode::Strict`] rejects any DDL operation
    /// carrying error-severity findings with [`Error::Invalid`].
    pub fn set_validation(&mut self, mode: ValidationMode) {
        self.validation = mode;
    }

    /// Run the static analyzer over the whole deployment — schema
    /// constraints, view-induced constraints, and every fragment — and
    /// return its findings (sorted errors-first, empty when clean). Pure:
    /// never mutates the engine.
    pub fn analyze(&self) -> Vec<Diagnostic> {
        analyze::analyze_deployment(&self.schema, &self.catalog, &self.rewrite_cfg.chase)
    }

    /// Whether `diags` should reject DDL under the current mode.
    fn rejects(&self, diags: &[Diagnostic]) -> bool {
        matches!(self.validation, ValidationMode::Strict)
            && diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Register an application dataset (declares its pivot schema and
    /// stages its content for fragment materialization).
    ///
    /// Under [`ValidationMode::Strict`] the analyzer checks the merged
    /// schema first; error-severity findings reject the registration with
    /// [`Error::Invalid`] and leave the engine untouched.
    pub fn register_dataset(&mut self, ds: Dataset) -> Result<()> {
        let mut candidate = self.schema.clone();
        ds.declare(&mut candidate);
        if !matches!(self.validation, ValidationMode::Off) {
            let diags =
                analyze::analyze_deployment(&candidate, &self.catalog, &self.rewrite_cfg.chase);
            if self.rejects(&diags) {
                return Err(Error::Invalid(diags));
            }
        }
        self.schema = candidate;
        self.datasets.insert(ds.name.clone(), ds);
        self.base = OnceLock::new(); // staging facts changed
        self.bump_epoch();
        Ok(())
    }

    /// Add a schema constraint (TGD or EGD) as a DDL operation.
    ///
    /// Under [`ValidationMode::Strict`] the analyzer re-certifies the
    /// combined constraint set first: error-severity findings — e.g. a
    /// non-terminating TGD cycle (E001) — reject the DDL with
    /// [`Error::Invalid`] and leave the schema untouched. Under
    /// [`ValidationMode::Warn`]/[`ValidationMode::Off`] the constraint is
    /// accepted; an uncertifiable set then simply keeps the chase budget
    /// guard (see `estocada_chase::TerminationCertificate`).
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        self.schema.constraints.push(c);
        if !matches!(self.validation, ValidationMode::Off) {
            let diags = self.analyze();
            if self.rejects(&diags) {
                self.schema.constraints.pop();
                return Err(Error::Invalid(diags));
            }
        }
        self.bump_epoch();
        Ok(())
    }

    /// The registered datasets.
    pub fn datasets(&self) -> &HashMap<String, Dataset> {
        &self.datasets
    }

    /// The merged pivot schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fragment catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The staged pivot fact base, built on first use (thread-safe: any
    /// query thread may race here; exactly one builds).
    pub(crate) fn base(&self) -> &Instance {
        self.base.get_or_init(|| {
            let mut ids = IdGen::starting_at(1_000_000);
            let mut facts = Vec::new();
            for ds in self.datasets.values() {
                facts.extend(ds.pivot_facts(&mut ids));
            }
            fact_base(&facts)
        })
    }

    /// Materialize a fragment; returns its id.
    ///
    /// Under [`ValidationMode::Strict`] the analyzer lints the spec
    /// first (schema hygiene on its view CQ, plus termination
    /// certification of the constraint set it would induce);
    /// error-severity findings reject the DDL with [`Error::Invalid`]
    /// before anything is materialized. A spec rejected for any reason
    /// leaves the stores untouched and consumes no fragment id.
    pub fn add_fragment(&mut self, spec: FragmentSpec) -> Result<String> {
        if !matches!(self.validation, ValidationMode::Off) {
            let diags = analyze::analyze_fragment_spec(&spec, &self.schema, &self.catalog);
            if self.rejects(&diags) {
                return Err(Error::Invalid(diags));
            }
        }
        let id = format!("F{}", self.frag_seq + 1);
        let meta = materialize(&id, spec, self.base(), &self.datasets, &self.stores)?;
        self.frag_seq += 1;
        self.catalog.add(meta);
        self.bump_epoch();
        Ok(id)
    }

    /// Drop a fragment and its physical artifacts.
    pub fn drop_fragment(&mut self, id: &str) -> Result<FragmentMeta> {
        let meta = self
            .catalog
            .remove(id)
            .ok_or_else(|| Error::UnknownName(format!("fragment {id}")))?;
        drop_fragment(&meta, &self.stores);
        self.bump_epoch();
        Ok(meta)
    }

    /// All registered fragments.
    pub fn fragments(&self) -> &[FragmentMeta] {
        self.catalog.fragments()
    }

    /// The SQL frontend's table catalog (relational datasets).
    pub fn sql_catalog(&self) -> SqlCatalog {
        let mut out = SqlCatalog::new();
        for ds in self.datasets.values() {
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

    /// Start building a mini-SQL query against this engine.
    pub fn query(&self, sql: &str) -> QueryRequest<'_> {
        QueryRequest {
            engine: self,
            input: QueryInput::Sql(sql.to_string()),
            opts: QueryOptions::default(),
        }
    }

    /// Start building a document tree-pattern query against this engine.
    pub fn query_pattern(&self, pattern: &TreePattern, select: &[&str]) -> QueryRequest<'_> {
        QueryRequest {
            engine: self,
            input: QueryInput::Doc {
                pattern: pattern.clone(),
                select: select.iter().map(|s| s.to_string()).collect(),
            },
            opts: QueryOptions::default(),
        }
    }

    /// Start building a pivot-CQ query against this engine.
    pub fn query_pivot(
        &self,
        cq: Cq,
        head_names: Vec<String>,
        residuals: Vec<Residual>,
    ) -> QueryRequest<'_> {
        QueryRequest {
            engine: self,
            input: QueryInput::Pivot {
                cq,
                head_names,
                residuals,
            },
            opts: QueryOptions::default(),
        }
    }

    /// Run a mini-SQL query end to end with default options.
    pub fn query_sql(&self, sql: &str) -> Result<QueryResult> {
        self.query(sql).run()
    }

    /// Run a document tree-pattern query end to end with default options.
    pub fn query_doc(&self, pattern: &TreePattern, select: &[&str]) -> Result<QueryResult> {
        self.query_pattern(pattern, select).run()
    }

    /// Run a pivot-CQ query end to end with default options: pivot query →
    /// PACB rewriting → translation → cost-based choice → execution →
    /// report.
    pub fn query_cq(
        &self,
        cq: Cq,
        head_names: Vec<String>,
        residuals: Vec<Residual>,
    ) -> Result<QueryResult> {
        self.query_pivot(cq, head_names, residuals).run()
    }

    /// Explain a SQL query without executing it: rewritings and costs.
    pub fn explain_sql(&self, sql: &str) -> Result<Report> {
        self.query(sql).explain()
    }

    /// Ground-truth evaluation of a pivot CQ directly over the staged
    /// dataset facts — the oracle used by tests and the advisor (not a
    /// production query path).
    pub fn oracle_eval(&self, cq: &Cq) -> Vec<Vec<estocada_pivot::Value>> {
        crate::materialize::evaluate_view(self.base(), cq)
    }

    /// Resolve per-query options against the engine defaults into the
    /// rewriting configuration the query will run with.
    fn effective_cfg(&self, opts: &QueryOptions) -> RewriteConfig {
        let mut cfg = self.rewrite_cfg;
        if let Some(n) = opts.rewrite_workers.or(self.default_opts.rewrite_workers) {
            cfg.parallelism = n.max(1);
        }
        if let Some(n) = opts.chase_workers.or(self.default_opts.chase_workers) {
            cfg.chase.search_workers = n.max(1);
        }
        cfg
    }

    /// The rewriting problem of `cq` against the current catalog + schema.
    fn rewrite_problem(&self, cq: &Cq) -> RewriteProblem {
        RewriteProblem {
            query: cq.clone(),
            views: self.catalog.view_defs(),
            source_constraints: self.schema.constraints.clone(),
            target_constraints: Vec::new(),
            access: self.catalog.access_map(),
        }
    }

    /// The stable plan-cache key of a query. For residual-free queries the
    /// key is the alpha-invariant canonical form; queries with residual
    /// comparisons key on the exact CQ instead, because residual predicates
    /// reference the query's concrete variable ids — two alpha-equivalent
    /// variants with differently-numbered variables must not share a
    /// cached outcome there.
    fn plan_cache_key(cq: &Cq, residuals: &[Residual]) -> String {
        if residuals.is_empty() {
            let c = cq.canonicalize();
            format!("c|{}|{:?}|{:?}", cq.name, c.head, c.body)
        } else {
            format!("x|{}|{:?}|{:?}|{:?}", cq.name, cq.head, cq.body, residuals)
        }
    }

    /// The planning pipeline shared by execution and explain: rewrite
    /// (through the plan cache when enabled), then translate every
    /// rewriting and keep the cheapest executable one.
    fn plan_cq(
        &self,
        cq: &Cq,
        head_names: &[String],
        residuals: &[Residual],
        cfg: &RewriteConfig,
        use_cache: bool,
        ctx: Option<&Arc<QueryResilience>>,
    ) -> Result<PlannedQuery> {
        // 1. Rewriting under constraints (or a cache hit skipping it).
        // Before chasing, consult the deployment's termination
        // certificate: a terminating verdict on the combined constraint
        // set lifts the budget guard of every chase in this run — forward
        // chase, backchase and containment checks all terminate without
        // it; any weaker verdict keeps the budgets exactly as configured.
        let t0 = Instant::now();
        let certified = |cfg: &RewriteConfig| {
            let cert = analyze::termination_certificate(&self.schema, &self.catalog);
            let mut c = *cfg;
            c.chase = c.chase.with_certificate(&cert);
            c
        };
        let (outcome, cache_hit) = if use_cache {
            let key = Self::plan_cache_key(cq, residuals);
            match self.plan_cache.lookup(&key, self.epoch) {
                Some(outcome) => (outcome, Some(true)),
                None => {
                    let outcome =
                        Arc::new(pacb_rewrite(&self.rewrite_problem(cq), &certified(cfg))?);
                    self.plan_cache.insert(key, self.epoch, outcome.clone());
                    (outcome, Some(false))
                }
            }
        } else {
            let outcome = Arc::new(pacb_rewrite(&self.rewrite_problem(cq), &certified(cfg))?);
            (outcome, None)
        };
        let rewrite_time = t0.elapsed();

        // 2. Translate every rewriting; keep the cheapest executable one
        // (ties go to the earliest, as the serial loops always did). Plan
        // choice compares breaker-penalized costs: a backend with an open
        // circuit makes every plan through it rank behind any healthy
        // plan. With every breaker closed the penalty is zero and the
        // choice is identical to the unpenalized model.
        let t1 = Instant::now();
        let penalized = |tr: &Translation| {
            let avoided = tr.systems.iter().filter(|s| self.health.avoid(**s)).count();
            self.cost.penalize(tr.est_cost, avoided)
        };
        let mut alternatives: Vec<Alternative> = Vec::new();
        let mut translations: Vec<Option<Translation>> = Vec::new();
        let mut best: Option<usize> = None;
        for rw in outcome.rewritings.iter() {
            if let Some(c) = ctx {
                c.note_translation();
            }
            match translate(
                rw,
                head_names,
                residuals,
                &self.catalog,
                &self.stores,
                &self.cost,
                ctx,
            ) {
                Ok(tr) => {
                    let idx = alternatives.len();
                    alternatives.push(Alternative {
                        rewriting: format!("{rw}"),
                        est_cost: Some(tr.est_cost),
                        note: None,
                    });
                    let better = best
                        .map(|b| {
                            penalized(&tr) < penalized(translations[b].as_ref().expect("best"))
                        })
                        .unwrap_or(true);
                    translations.push(Some(tr));
                    if better {
                        best = Some(idx);
                    }
                }
                Err(e) => {
                    alternatives.push(Alternative {
                        rewriting: format!("{rw}"),
                        est_cost: None,
                        note: Some(format!("{e}")),
                    });
                    translations.push(None);
                }
            }
        }
        Ok(PlannedQuery {
            outcome,
            cache_hit,
            rewrite_time,
            alternatives,
            translations,
            best,
            translate_time: t1.elapsed(),
        })
    }

    /// This query's plan-cache activity for the report.
    fn cache_activity(&self, cache_hit: Option<bool>) -> Option<PlanCacheActivity> {
        cache_hit.map(|hit| PlanCacheActivity {
            hit,
            totals: self.plan_cache.stats(),
        })
    }
}

/// Layer the SQL aggregation pipeline over a rewritten core plan:
/// `Project(SELECT) ∘ Filter(HAVING) ∘ Aggregate(GROUP BY) ∘ core`.
/// Translation wraps the core in a duplicate-eliminating projection, so
/// the aggregates range over the *distinct* core tuples regardless of
/// which rewriting executes.
fn wrap_aggregate(core: Plan, spec: &AggregateSpec) -> Plan {
    let mut plan = Plan::Aggregate {
        input: Box::new(core),
        group_by: (0..spec.group_cols).collect(),
        aggs: spec.aggs.clone(),
    };
    let having = spec
        .having
        .iter()
        .map(|(col, op, v)| Expr::col(*col).cmp(*op, Expr::Lit(v.clone())))
        .reduce(Expr::and);
    if let Some(pred) = having {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred,
        };
    }
    Plan::Project {
        input: Box::new(plan),
        exprs: spec
            .select
            .iter()
            .map(|(name, col)| (name.clone(), Expr::col(*col)))
            .collect(),
    }
}

impl Estocada {
    /// The analyzer's findings on this query's CQ for the report,
    /// cached per **catalog** epoch alongside the rewrite-plan cache (DML
    /// bumps only the data epoch, so writes keep lints cached).
    /// [`ValidationMode::Off`] skips analysis entirely (`None` activity).
    /// The second component is the lint-cache activity for the report.
    fn query_lints(&self, cq: &Cq) -> (Vec<Diagnostic>, Option<PlanCacheActivity>) {
        if matches!(self.validation, ValidationMode::Off) {
            return (Vec::new(), None);
        }
        // Keyed on the exact CQ (not the alpha-invariant canonical form):
        // lint messages name the query's concrete variables.
        let key = format!("l|{}|{:?}|{:?}", cq.name, cq.head, cq.body);
        let (diags, hit) = match self.lint_cache.lookup(&key, self.epoch) {
            Some(cached) => ((*cached).clone(), true),
            None => {
                let diags = Arc::new(analyze::analyze_query(cq, &self.schema));
                self.lint_cache.insert(key, self.epoch, diags.clone());
                ((*diags).clone(), false)
            }
        };
        let activity = PlanCacheActivity {
            hit,
            totals: self.lint_cache.stats(),
        };
        (diags, Some(activity))
    }

    /// Plan `cq` and either execute it or stop at the report, per `opts`.
    /// `aggregate` (from the SQL frontend) layers grouping / HAVING /
    /// final projection over whichever rewriting executes — it is applied
    /// post-translation, so the plan cache and failover candidates are
    /// shared with the non-aggregated core.
    fn run_planned(
        &self,
        cq: &Cq,
        head_names: &[String],
        residuals: &[Residual],
        aggregate: Option<&AggregateSpec>,
        opts: &QueryOptions,
    ) -> Result<QueryResult> {
        let cfg = self.effective_cfg(opts);
        let use_cache = opts.plan_cache && self.default_opts.plan_cache;
        let retry = opts.retry.or(self.default_opts.retry).unwrap_or_default();
        let deadline = opts.deadline.or(self.default_opts.deadline);
        let ctx = QueryResilience::new(retry, deadline, self.health.clone());
        let mut plan = self.plan_cq(cq, head_names, residuals, &cfg, use_cache, Some(&ctx))?;
        let (diagnostics, lint_cache) = self.query_lints(cq);

        // An aggregate query's output columns come from its SELECT list,
        // not the conjunctive core's head.
        let out_columns = || -> Vec<String> {
            match aggregate {
                Some(spec) => spec.select.iter().map(|(n, _)| n.clone()).collect(),
                None => head_names.to_vec(),
            }
        };

        if opts.explain_only {
            // Explain reports cost every alternative but tolerate a query
            // with no (executable) rewriting.
            let (chosen, plan_text, delegated) = match plan.best {
                Some(idx) => {
                    let tr = plan.translations[idx].as_ref().expect("best is executable");
                    let text = match aggregate {
                        Some(spec) => wrap_aggregate(tr.plan.clone(), spec).explain(),
                        None => tr.plan.explain(),
                    };
                    (idx, text, tr.unit_labels.clone())
                }
                None => (0, String::from("(not executable)"), Vec::new()),
            };
            return Ok(QueryResult {
                columns: out_columns(),
                rows: Vec::new(),
                report: Report {
                    pivot_query: format!("{cq}"),
                    universal_plan: format!("{}", plan.outcome.universal_plan),
                    alternatives: plan.alternatives,
                    chosen,
                    plan: plan_text,
                    delegated,
                    per_store: Vec::new(),
                    exec: Default::default(),
                    rewrite_time: plan.rewrite_time,
                    translate_time: plan.translate_time,
                    complete_search: plan.outcome.complete,
                    plan_cache: self.cache_activity(plan.cache_hit),
                    resilience: None,
                    diagnostics,
                    lint_cache,
                },
            });
        }

        if plan.outcome.rewritings.is_empty() {
            return Err(Error::NoRewriting {
                query: format!("{cq}"),
            });
        }
        let mut chosen = plan.best.ok_or_else(|| {
            Error::Untranslatable(format!(
                "none of the {} rewritings is executable",
                plan.outcome.rewritings.len()
            ))
        })?;
        let mut translation = plan.translations[chosen]
            .take()
            .expect("best is executable");

        // 3. Execute, splitting metrics per store. When a plan attempt
        // dies on a store failure (after per-call retries and breaker
        // handling), fail over: re-rank the remaining equivalent
        // rewritings of the same outcome — penalizing backends that
        // failed in this query or whose breaker is open — and execute
        // the next candidate until one succeeds or none remain.
        let before: Vec<_> = self.stores.metrics();
        let eopts = ExecOptions {
            batch_size: opts.batch_size.max(1),
        };
        let mut attempts: Vec<PlanAttempt> = Vec::new();
        let mut tried: HashSet<usize> = HashSet::new();
        let mut failed_systems: HashSet<SystemId> = HashSet::new();
        let (batch, exec, plan_text) = loop {
            tried.insert(chosen);
            // The aggregation pipeline sits on top of the (per-attempt)
            // rewritten core, so each failover candidate gets its own wrap.
            let wrapped = aggregate.map(|spec| wrap_aggregate(translation.plan.clone(), spec));
            let attempt = match &wrapped {
                Some(p) => execute_with(p, &eopts),
                None => execute_with(&translation.plan, &eopts),
            };
            match attempt {
                Ok(out) => {
                    attempts.push(PlanAttempt {
                        alternative: chosen,
                        rewriting: plan.alternatives[chosen].rewriting.clone(),
                        systems: translation.systems.clone(),
                        error: None,
                    });
                    let text = match wrapped {
                        Some(p) => p.explain(),
                        None => translation.plan.explain(),
                    };
                    break (out.0, out.1, text);
                }
                Err(EngineError::Store(se)) => {
                    attempts.push(PlanAttempt {
                        alternative: chosen,
                        rewriting: plan.alternatives[chosen].rewriting.clone(),
                        systems: translation.systems.clone(),
                        error: Some(se.to_string()),
                    });
                    if let Some(sys) = system_for_store(&se.store) {
                        failed_systems.insert(sys);
                    }
                    let next = if ctx.deadline_exceeded() {
                        None
                    } else {
                        self.next_failover_candidate(&mut plan, &tried, &failed_systems)
                    };
                    match next {
                        Some((idx, tr)) => {
                            chosen = idx;
                            translation = tr;
                        }
                        None => {
                            return Err(Error::AllPlansFailed {
                                query: format!("{cq}"),
                                attempts: attempts
                                    .iter()
                                    .map(|a| PlanFailure {
                                        alternative: a.alternative,
                                        rewriting: a.rewriting.clone(),
                                        error: a.error.clone().unwrap_or_default(),
                                    })
                                    .collect(),
                            })
                        }
                    }
                }
                Err(e) => return Err(e.into()),
            }
        };
        let after = self.stores.metrics();
        let per_store = after
            .iter()
            .zip(&before)
            .map(|((sys, a), (_, b))| (*sys, a.since(b)))
            .collect();

        for rel in &translation.used_relations {
            self.catalog.record_use(*rel);
        }

        // The resilience section exists only when something happened: a
        // fault-free query reports `None`, bit-identical to before.
        let resilience = (attempts.len() > 1 || ctx.eventful()).then(|| ResilienceReport {
            attempts,
            retries: ctx.retries(),
            store_errors: ctx.store_errors(),
            breaker_transitions: ctx.transitions(),
            translations: ctx.translations(),
        });

        Ok(QueryResult {
            columns: batch.columns.clone(),
            rows: batch.rows,
            report: Report {
                pivot_query: format!("{cq}"),
                universal_plan: format!("{}", plan.outcome.universal_plan),
                alternatives: plan.alternatives,
                chosen,
                plan: plan_text,
                delegated: translation.unit_labels,
                per_store,
                exec,
                rewrite_time: plan.rewrite_time,
                translate_time: plan.translate_time,
                complete_search: plan.outcome.complete,
                plan_cache: self.cache_activity(plan.cache_hit),
                resilience,
                diagnostics,
                lint_cache,
            },
        })
    }

    /// The cheapest untried executable rewriting for plan failover,
    /// ranking by breaker-penalized cost where both open-circuit backends
    /// and backends that already failed in this query count against a
    /// candidate (the breaker may not have tripped yet when retries are
    /// exhausted first). Candidates come out of the plan's retained
    /// translations — failover performs **zero** new translation work
    /// ([`ResilienceReport::translations`] pins this).
    fn next_failover_candidate(
        &self,
        plan: &mut PlannedQuery,
        tried: &HashSet<usize>,
        failed: &HashSet<SystemId>,
    ) -> Option<(usize, Translation)> {
        let mut best: Option<(f64, usize)> = None;
        for (idx, tr) in plan.translations.iter().enumerate() {
            if tried.contains(&idx) {
                continue;
            }
            let Some(tr) = tr else {
                continue;
            };
            let avoided = tr
                .systems
                .iter()
                .filter(|s| failed.contains(s) || self.health.avoid(**s))
                .count();
            let eff = self.cost.penalize(tr.est_cost, avoided);
            if best.map(|(b, _)| eff < b).unwrap_or(true) {
                best = Some((eff, idx));
            }
        }
        best.map(|(_, idx)| {
            (
                idx,
                plan.translations[idx].take().expect("candidate is Some"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estocada_is_sync_and_send() {
        // The whole point of the shared-read API: one engine, any number
        // of query threads.
        fn assert_shared<T: Sync + Send>() {}
        assert_shared::<Estocada>();
    }

    #[test]
    fn ddl_bumps_the_catalog_epoch() {
        use estocada_pivot::encoding::relational::TableEncoding;
        let mut est = Estocada::in_memory();
        assert_eq!(est.catalog_epoch(), 0);
        est.register_dataset(Dataset::relational(
            "d",
            vec![crate::dataset::TableData {
                encoding: TableEncoding::new("T", &["k", "v"], Some(&["k"])),
                rows: vec![vec![
                    estocada_pivot::Value::Int(1),
                    estocada_pivot::Value::Int(2),
                ]],
                text_columns: vec![],
            }],
        ))
        .unwrap();
        assert_eq!(est.catalog_epoch(), 1);
        let id = est
            .add_fragment(FragmentSpec::NativeTables {
                dataset: "d".into(),
                only: None,
            })
            .unwrap();
        assert_eq!(est.catalog_epoch(), 2);
        est.drop_fragment(&id).unwrap();
        assert_eq!(est.catalog_epoch(), 3);
    }

    #[test]
    fn options_resolve_against_engine_defaults() {
        let mut est = Estocada::in_memory();
        est.set_default_query_options(QueryOptions {
            rewrite_workers: Some(3),
            chase_workers: Some(2),
            ..QueryOptions::default()
        });
        let d = est.rewrite_config();
        assert_eq!(d.parallelism, 3);
        assert_eq!(d.chase.search_workers, 2);
        // Per-query override wins.
        let cfg = est.effective_cfg(&QueryOptions {
            rewrite_workers: Some(7),
            ..QueryOptions::default()
        });
        assert_eq!(cfg.parallelism, 7);
        assert_eq!(cfg.chase.search_workers, 2);
    }
}
