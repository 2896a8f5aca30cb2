//! The ESTOCADA mediator facade: datasets in, fragments materialized,
//! queries answered through constraint-based rewriting. How a query
//! becomes ranked executable candidates (rewrite, translate, rank; the plan
//! cache; failover) is the crate-private `planner` module's business.
//!
//! # Two paths
//!
//! - **DDL time** (`&mut self`): [`Estocada::register_dataset`],
//!   [`Estocada::add_fragment`], [`Estocada::drop_fragment`],
//!   [`Estocada::add_constraint`], [`Estocada::set_rewrite_config`]. Each
//!   bumps the **catalog epoch** ([`Metrics::catalog_epoch`]), which
//!   invalidates the plan and lint caches wholesale and resets the
//!   per-epoch planning context.
//! - **Query time** (`&self`, and `Estocada: Sync`): any number of client
//!   threads answer queries against one shared engine — the stores
//!   synchronize internally, usage counters are atomics, the fact base is
//!   staged by [`Estocada::register_dataset`] and only read by queries, the
//!   planning context is a lazily-initialized [`OnceLock`], and rewriting
//!   is deterministic, so concurrent runs return exactly what the serial
//!   run returns.
//!
//! # The query builder and its options
//!
//! [`Estocada::query`] / [`Estocada::query_pattern`] /
//! [`Estocada::query_pivot`] return a [`QueryRequest`]:
//!
//! ```text
//! engine.query(sql)
//!     .with_batch_size(256)      // vectorized pipeline batch, in rows
//!     .explain_only()            // plan, don't execute
//!     .run()?;
//! ```
//!
//! Every option resolves in the same order, once per query: the per-query
//! value, else the engine's default [`QueryOptions`]
//! ([`Estocada::set_default_query_options`]), else the built-in default
//! ([`RetryPolicy::default`], no deadline, [`ExecOptions::default`]'s batch
//! size); the plan cache is used only when neither level turned it off. A
//! run plans once, then reports the best candidate (explain) or executes
//! candidates in rank order until one succeeds; both end in one [`Report`]
//! constructor.
//!
//! How many threads a rewrite uses is not a query option: the engine sizes
//! [`RewriteConfig::parallelism`] one per core, the rewriter uses it only
//! from 8 candidates up, and [`Estocada::set_rewrite_config`] pins it.

use crate::analyze::{self, Diagnostic, Severity, ValidationMode};
use crate::catalog::{Catalog, FragmentMeta, FragmentSpec};
use crate::connector::Residual;
use crate::cost::CostModel;
use crate::dataset::{Dataset, DatasetContent};
use crate::error::{Error, PlanFailure, Result};
use crate::factbase::FactBase;
use crate::frontends::{ParsedQuery, QueryInput, Select, SqlCatalog};
use crate::layout;
use crate::materialize::{drop_fragment, materialize};
use crate::metrics::{BackendMetrics, Metrics};
use crate::plancache::{LintCache, PlanCache, PlanCacheStats};
use crate::planner::{self, Candidate, Planned, PlanningContext};
use crate::report::{PlanCacheActivity, QueryResult, Report};
use crate::resilience::{
    system_for_store, HealthTracker, PlanAttempt, QueryResilience, ResilienceReport, RetryPolicy,
};
use crate::system::{Latencies, Stores, SystemId};
use estocada_chase::{RewriteConfig, TerminationCertificate};
use estocada_engine::{run, EngineError, ExecOptions, ExecStats, RowBatch};
use estocada_pivot::encoding::document::TreePattern;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{Constraint, Cq, Schema, SchemaError};
use estocada_simkit::FaultPlan;
use std::borrow::Cow;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Per-query knobs, resolved against the engine's defaults at run time.
///
/// `None` means "use the engine default". Built fluently through
/// [`QueryRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryOptions {
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
    /// Batch size (rows) of the vectorized executor's pipeline. `None`
    /// uses the engine default ([`ExecOptions::default`]'s unless
    /// reconfigured).
    pub batch_size: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> QueryOptions {
        QueryOptions {
            explain_only: false,
            plan_cache: true,
            retry: None,
            deadline: None,
            batch_size: None,
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
        self.batch_size = Some(rows.max(1));
        self
    }
}

/// [`QueryOptions`] with every unset field filled in ([`Estocada::resolve`],
/// once per query); nothing downstream consults the defaults again.
#[derive(Debug, Clone, Copy)]
struct ResolvedOptions {
    explain_only: bool,
    plan_cache: bool,
    retry: RetryPolicy,
    deadline: Option<Duration>,
    exec: ExecOptions,
}

/// A query being assembled against a shared engine — created by
/// [`Estocada::query`] / [`Estocada::query_pattern`] /
/// [`Estocada::query_pivot`], configured fluently, finished with
/// [`QueryRequest::run`] (or [`QueryRequest::explain`]). Holds `&Estocada`:
/// any number of requests may run concurrently.
#[derive(Clone)]
pub struct QueryRequest<'e> {
    engine: &'e Estocada,
    pub(crate) input: QueryInput<'e>,
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
        self.opts.batch_size = Some(rows.max(1));
        self
    }

    /// The options as currently configured.
    pub fn options(&self) -> QueryOptions {
        self.opts
    }

    /// Run the query end to end (or plan-only with
    /// [`QueryRequest::explain_only`]).
    pub fn run(self) -> Result<QueryResult> {
        self.engine.run_planned(&self.input, &self.opts)
    }

    /// Plan and cost without executing; returns the report alone.
    pub fn explain(self) -> Result<Report> {
        Ok(self.explain_only().run()?.report)
    }
}

/// The mediator.
pub struct Estocada {
    /// The underlying store instances.
    pub stores: Stores,
    latencies: Latencies,
    cost: CostModel,
    /// The registered datasets' declarations: table encodings, text
    /// columns and documents. A relational table keeps no rows here — the
    /// fact base holds them ([`Estocada::dataset`] reads them back).
    pub(crate) datasets: FastMap<String, Dataset>,
    schema: Schema,
    /// The registered datasets' pivot facts, each with the number of rows
    /// behind it: the one copy of every relational table. Each dataset's
    /// are staged when it is registered, and DML maintains them
    /// **incrementally** (see [`crate::dml`]).
    pub(crate) base: FactBase,
    pub(crate) catalog: Catalog,
    /// The rewriting configuration: budgets, and candidate-verification
    /// workers sized one per core.
    rewrite_cfg: RewriteConfig,
    /// Engine-default query options; per-query options override
    /// field-by-field.
    default_opts: QueryOptions,
    frag_seq: usize,
    /// The catalog epoch: bumped by every DDL operation. Tags plan-cache
    /// entries so no query can ever run a plan computed against an older
    /// catalog.
    pub(crate) epoch: u64,
    /// The data epoch: bumped by every DML batch, **without** touching the
    /// plan cache — writes change data, not the catalog, so cached
    /// rewritings stay valid across them.
    pub(crate) data_epoch: u64,
    /// What planning derives from the catalog and schema alone: built on
    /// first use per catalog epoch, reset by DDL.
    planning: OnceLock<PlanningContext>,
    pub(crate) plan_cache: PlanCache,
    /// The analyzer's per-query findings, cached per catalog epoch
    /// alongside the plan cache (same epoch discipline: any DDL
    /// invalidates both wholesale).
    lint_cache: LintCache,
    /// How DDL reacts to static-analyzer findings (see
    /// [`ValidationMode`]); queries always report lints regardless.
    validation: ValidationMode,
    /// Per-backend circuit breakers, shared by every query.
    health: Arc<HealthTracker>,
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
            datasets: FastMap::default(),
            schema: Schema::new(),
            base: FactBase::new(),
            catalog: Catalog::new(),
            // Candidate verification is deterministic at any worker count
            // (identical RewriteOutcome), so it defaults to one worker per
            // core.
            rewrite_cfg: RewriteConfig::default()
                .with_parallelism(estocada_parexec::default_parallelism()),
            default_opts: QueryOptions::default(),
            frag_seq: 0,
            epoch: 0,
            data_epoch: 0,
            planning: OnceLock::new(),
            plan_cache: PlanCache::default(),
            lint_cache: LintCache::default(),
            validation: ValidationMode::default(),
            health: Arc::new(HealthTracker::default()),
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

    /// The rewriting configuration every query plans with.
    pub fn rewrite_config(&self) -> RewriteConfig {
        self.rewrite_cfg
    }

    /// Replace the rewriting configuration (chase budgets, verification
    /// workers) — DDL-time configuration. Bumps the catalog epoch:
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

    /// Install (or clear, with `None`) a seeded fault-injection plan. Each
    /// backend's gate on the delegated-request path gets a fresh cursor
    /// keyed by its selector name (`relational`, `key-value`, `document`,
    /// `text`, `parallel`) and is consulted before every delegated store
    /// request from then on; admin paths never pass a gate. An empty plan
    /// (or `None`) disarms every gate, restoring the bit-identical clean
    /// path.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.stores
            .set_fault_plan(plan.filter(|p| !p.is_empty()).as_ref());
    }

    /// Close every breaker and zero the health counters (e.g. after a
    /// scripted outage ends).
    pub fn reset_backend_health(&self) {
        self.health.reset();
    }

    /// One snapshot of engine state: both epochs, the index generation,
    /// the plan and lint cache counters, every backend's breaker, store
    /// counters and gated requests, and every fragment's catalog entry.
    /// Borrowed from the engine, it allocates nothing; its `Display` is the
    /// text exposition (see [`crate::metrics`]).
    pub fn metrics(&self) -> Metrics<'_> {
        let (health, stores) = (self.health.snapshot(), self.stores.metrics());
        Metrics {
            catalog_epoch: self.epoch,
            data_epoch: self.data_epoch,
            plan_cache: self.plan_cache.stats(),
            plans_repriced: self.plan_cache.repriced.load(Ordering::Relaxed),
            index_generation: self.stores.index_generation(),
            lint_cache: self.lint_cache.stats(),
            backends: SystemId::ALL.map(|system| BackendMetrics {
                system,
                health: health[system as usize].1,
                store: stores[system as usize].1,
                gated_ops: self.stores.gate(system).ops(),
            }),
            fragments: self.catalog.fragments(),
        }
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
    /// constraint set, computed once per catalog epoch — the verdict the
    /// planner feeds into [`estocada_chase::ChaseConfig::with_certificate`].
    /// Certified deployments (`WeaklyAcyclic`, `SuperWeaklyAcyclic`,
    /// `Stratified`) chase budget-free; the rest keep the configured guard.
    /// Snapshot tooling pins [`TerminationCertificate::rung`] per deployment.
    pub fn termination_certificate(&self) -> TerminationCertificate {
        self.planning().certificate.clone()
    }

    /// The combined constraint set the certificate speaks about: schema
    /// constraints (including declared-key EGDs) plus both directions of
    /// every fragment view. Snapshot tooling and benches chase exactly
    /// this set to reproduce the planner's termination behaviour.
    pub fn constraint_set(&self) -> Vec<Constraint> {
        self.planning().constraints.clone()
    }

    /// The planning context of the current catalog epoch, derived on first
    /// use (exactly one racing thread builds it).
    pub(crate) fn planning(&self) -> &PlanningContext {
        self.planning.get_or_init(|| PlanningContext::derive(self))
    }

    /// One DDL operation happened: advance the epoch and drop every cached
    /// plan and the planning context (they were computed against the
    /// previous catalog).
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.plan_cache.clear();
        self.lint_cache.clear();
        self.planning = OnceLock::new();
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
    /// stages its content in the fact base, which every fragment is filled
    /// from; the engine keeps the declaration and the documents, and no
    /// relational row outside the fact base).
    ///
    /// A dataset named like a registered one, or declaring a relation the
    /// schema already holds, is rejected with [`Error::Duplicate`]. Under
    /// [`ValidationMode::Strict`] the analyzer checks the merged schema
    /// first; error-severity findings reject the registration with
    /// [`Error::Invalid`]. A malformed dataset ([`Dataset::malformed`]) is
    /// [`Error::BadDataset`]. A rejected dataset leaves the engine
    /// untouched.
    pub fn register_dataset(&mut self, mut ds: Dataset) -> Result<()> {
        if let Some(why) = ds.malformed() {
            return Err(Error::BadDataset(why));
        }
        let mut own = Schema::new();
        let unknown_key = |e: SchemaError| Error::BadDataset(e.to_string());
        ds.declare(&mut own).map_err(unknown_key)?;
        let declared = own
            .relations()
            .find(|r| self.schema.relation(r.name).is_some());
        match (self.datasets.contains_key(&ds.name), declared) {
            (true, _) => return Err(Error::Duplicate(format!("dataset {}", ds.name))),
            (_, Some(r)) => return Err(Error::Duplicate(format!("relation {}", r.name))),
            _ => {}
        }
        let mut candidate = self.schema.clone();
        candidate.merge(&own);
        if !matches!(self.validation, ValidationMode::Off) {
            let diags =
                analyze::analyze_deployment(&candidate, &self.catalog, &self.rewrite_cfg.chase);
            if self.rejects(&diags) {
                return Err(Error::Invalid(diags));
            }
        }
        self.schema = candidate;
        self.base.stage(&ds);
        if let DatasetContent::Relational(tables) = &mut ds.content {
            tables.iter_mut().for_each(|t| t.rows = Vec::new());
        }
        self.datasets.insert(ds.name.clone(), ds);
        self.bump_epoch();
        Ok(())
    }

    /// Add a schema constraint (TGD or EGD) as a DDL operation.
    ///
    /// An EGD that equates a variable its premise does not bind has no
    /// image to merge: in every mode it is rejected with [`Error::Invalid`]
    /// carrying `E003`, before any analysis or chase, and the schema is
    /// left untouched. Otherwise, under [`ValidationMode::Strict`] the
    /// analyzer re-certifies the combined constraint set first:
    /// error-severity findings — e.g. a non-terminating TGD cycle (E001) —
    /// reject the DDL the same way. Under
    /// [`ValidationMode::Warn`]/[`ValidationMode::Off`] the constraint is
    /// accepted; an uncertifiable set then simply keeps the chase budget
    /// guard (see `estocada_chase::TerminationCertificate`).
    pub fn add_constraint(&mut self, c: Constraint) -> Result<()> {
        let unbound = analyze::unbound_egd_variables(&c);
        if !unbound.is_empty() {
            return Err(Error::Invalid(unbound));
        }
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

    /// The registered dataset `name` as it stands: a relational table's
    /// rows are read back from the fact base — each held row as often as
    /// the table holds it, in the order written until a delete moves the
    /// last row into the place of one it takes out, every value its
    /// interned representative (equal to the value written).
    pub fn dataset(&self, name: &str) -> Option<Dataset> {
        let mut ds = self.datasets.get(name)?.clone();
        if let DatasetContent::Relational(tables) = &mut ds.content {
            for t in tables {
                t.rows = self.base.rows(t).to_values();
            }
        }
        Some(ds)
    }

    /// The merged pivot schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The fragment catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Materialize a fragment; returns its id.
    ///
    /// Under [`ValidationMode::Strict`] the analyzer lints the spec
    /// first (schema hygiene on its view CQ, plus termination
    /// certification of the constraint set it would induce);
    /// error-severity findings reject the DDL with [`Error::Invalid`]
    /// before anything is materialized; so is, with [`Error::BadFragment`],
    /// one naming a relation a fragment holds. A rejected spec leaves the
    /// stores untouched and consumes no fragment id.
    pub fn add_fragment(&mut self, spec: FragmentSpec) -> Result<String> {
        if !matches!(self.validation, ValidationMode::Off) {
            let diags = analyze::analyze_fragment_spec(&spec, &self.schema, &self.catalog);
            if self.rejects(&diags) {
                return Err(Error::Invalid(diags));
            }
        }
        let id = format!("F{}", self.frag_seq + 1);
        let (base, catalog) = (&self.base, &self.catalog);
        let mut meta = materialize(&id, spec, base, &self.datasets, catalog, &self.stores)?;
        meta.high_water = self.data_epoch;
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

    /// The SQL frontend's table catalog (relational datasets), as of the
    /// current catalog epoch.
    pub fn sql_catalog(&self) -> SqlCatalog {
        self.planning().sql_catalog.clone()
    }

    /// Start building a mini-SQL query against this engine. The request
    /// borrows the text: a plan-cache hit copies none of it.
    pub fn query<'e>(&'e self, sql: &'e str) -> QueryRequest<'e> {
        QueryRequest {
            engine: self,
            input: QueryInput::Sql(Cow::Borrowed(sql)),
            opts: QueryOptions::default(),
        }
    }

    /// Start building a document tree-pattern query against this engine.
    /// The request borrows the pattern and the selection.
    pub fn query_pattern<'e>(
        &'e self,
        pattern: &'e TreePattern,
        select: &'e [&'e str],
    ) -> QueryRequest<'e> {
        QueryRequest {
            engine: self,
            input: QueryInput::Doc {
                pattern: Cow::Borrowed(pattern),
                select: Select::Sent(select),
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
            input: QueryInput::Pivot(Arc::new(ParsedQuery::conjunctive(
                cq, head_names, residuals,
            ))),
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
    /// dataset facts, by a backtracking nested loop in body order — the
    /// oracle used by tests and the advisor (not a production query path),
    /// independent of the compiled plans that fill and maintain the
    /// fragments. Its distinct rows, in no particular order.
    pub fn oracle_eval(&self, cq: &Cq) -> Vec<Vec<estocada_pivot::Value>> {
        self.base.oracle(cq)
    }

    /// Resolve per-query options (the module docs give the order).
    fn resolve(&self, opts: &QueryOptions) -> ResolvedOptions {
        let d = &self.default_opts;
        let batch_size = opts.batch_size.or(d.batch_size);
        ResolvedOptions {
            explain_only: opts.explain_only,
            plan_cache: opts.plan_cache && d.plan_cache,
            retry: opts.retry.or(d.retry).unwrap_or_default(),
            deadline: opts.deadline.or(d.deadline),
            exec: batch_size.map_or_else(ExecOptions::default, |batch_size| ExecOptions {
                batch_size,
            }),
        }
    }

    /// The analyzer's findings on this query's CQ for the report,
    /// cached per **catalog** epoch alongside the rewrite-plan cache (DML
    /// bumps only the data epoch, so writes keep lints cached) under the
    /// exact query — lint messages name its concrete variables, and an
    /// aggregate that counts rows is linted beyond its plain core (`W007`)
    /// — found by `hash`, the query's [`crate::plancache::hash_of`], which
    /// its prepared plan keeps. [`ValidationMode::Off`] skips analysis
    /// entirely (`None` activity). The second component is the lint-cache
    /// activity for the report.
    fn query_lints(
        &self,
        q: &Arc<ParsedQuery>,
        hash: u64,
    ) -> (Vec<Diagnostic>, Option<PlanCacheActivity>) {
        if matches!(self.validation, ValidationMode::Off) {
            return (Vec::new(), None);
        }
        let (diags, hit) = match self.lint_cache.lookup(hash, |kept| kept == q, self.epoch) {
            Some(cached) => ((*cached).clone(), true),
            None => {
                let found = analyze::analyze_query(&q.cq, q.aggregate.as_ref(), &self.schema);
                let diags = Arc::new(found);
                self.lint_cache
                    .insert(hash, q.clone(), self.epoch, diags.clone());
                ((*diags).clone(), false)
            }
        };
        (diags, Some(PlanCacheActivity { hit }))
    }

    /// Plan `request` and either stop at the report (explain) or execute
    /// the candidates in rank order until one succeeds.
    fn run_planned(&self, request: &QueryInput, opts: &QueryOptions) -> Result<QueryResult> {
        let opts = self.resolve(opts);
        let resilience = QueryResilience::new(opts.retry, opts.deadline, self.health.clone());
        let planned = planner::plan(self, request, opts.plan_cache)?;
        let prepared = &planned.prepared;
        let q = &prepared.query;
        let lints = self.query_lints(q, prepared.query_hash);

        if opts.explain_only {
            // Explain reports cost every alternative but tolerate a query
            // with no (executable) rewriting.
            let none = (&FastSet::default(), &FastSet::default());
            let best = self.rank(&prepared.candidates, none);
            // An aggregate query's output columns come from its SELECT
            // list, not the conjunctive core's head.
            let columns = match &q.aggregate {
                Some(spec) => spec.select.iter().map(|(n, _)| n.clone()).collect(),
                None => q.head_names.clone(),
            };
            let chosen = best.map(|i| &prepared.candidates[i]);
            return Ok(QueryResult {
                columns,
                rows: Vec::new(),
                report: report(&planned, chosen, lints),
            });
        }

        let before = self.stores.metrics();
        let (ran, batch, exec, failures) = self.execute(&planned, &opts, &resilience)?;
        let after = self.stores.metrics();
        for rel in &ran.translation.used_relations {
            self.catalog.record_use(*rel);
        }
        let mut report = report(&planned, Some(ran), lints);
        report.per_store = (after.iter().zip(&before))
            .map(|((sys, a), (_, b))| (*sys, a.since(b)))
            .collect();
        // The answer is complete: index what its full scans paid for.
        for scan in &ran.translation.eq_scans {
            layout::index(&self.stores, scan);
        }
        report.exec = exec;
        // The resilience section exists only when something happened: a
        // fault-free query reports `None`, bit-identical to before.
        report.resilience = (!failures.is_empty() || resilience.eventful()).then(|| {
            let attempt = |c: &Candidate, error| PlanAttempt {
                alternative: c.alternative,
                rewriting: prepared.alternatives[c.alternative].rewriting.clone(),
                systems: c.translation.systems.clone(),
                error,
            };
            let failed = failures.iter().map(|(c, e)| attempt(c, Some(e.clone())));
            ResilienceReport {
                attempts: failed.chain([attempt(ran, None)]).collect(),
                retries: resilience.retries(),
                store_errors: resilience.store_errors(),
                breaker_transitions: resilience.transitions(),
                translations: planned.translations,
            }
        });
        Ok(QueryResult {
            columns: batch.columns,
            rows: batch.rows,
            report,
        })
    }

    /// The planner's ranking, under this engine's breakers, of the
    /// candidates not `tried` yet; systems in `failed` count too (retries
    /// can run out before a breaker trips).
    fn rank(
        &self,
        candidates: &[Candidate],
        (tried, failed): (&FastSet<usize>, &FastSet<SystemId>),
    ) -> Option<usize> {
        let left = candidates.iter().enumerate();
        let left = left.filter(|(i, _)| !tried.contains(i));
        planner::cheapest(left, &self.cost, |s| {
            failed.contains(&s) || self.health.avoid(s)
        })
    }

    /// Execute the prepared candidates in rank order, each as it is cached,
    /// with this query's fault handling handed to its run: when an attempt
    /// dies on a store failure (after per-call retries and breaker handling)
    /// the backend is remembered and the next-ranked remaining candidate
    /// runs, until one succeeds, none remain or the deadline passes. Returns
    /// the candidate that ran, its rows and counters, and the failed
    /// attempts before it with their errors.
    fn execute<'p>(
        &self,
        planned: &'p Planned,
        opts: &ResolvedOptions,
        resilience: &QueryResilience,
    ) -> Result<(&'p Candidate, RowBatch, ExecStats, Failures<'p>)> {
        let prepared = &planned.prepared;
        if prepared.alternatives.is_empty() {
            return Err(Error::NoRewriting {
                query: prepared.pivot_query.to_string(),
            });
        }
        if prepared.candidates.is_empty() {
            return Err(Error::Untranslatable(format!(
                "none of the {} rewritings is executable",
                prepared.alternatives.len()
            )));
        }
        let mut failures: Failures = Vec::new();
        let (mut tried, mut failed) = (FastSet::default(), FastSet::default());
        loop {
            let next = if failures.is_empty() || !resilience.deadline_exceeded() {
                self.rank(&prepared.candidates, (&tried, &failed))
            } else {
                None
            };
            let Some(idx) = next else {
                let failure = |(c, error): (&Candidate, String)| PlanFailure {
                    alternative: c.alternative,
                    rewriting: prepared.alternatives[c.alternative].rewriting.clone(),
                    error,
                };
                return Err(Error::AllPlansFailed {
                    query: prepared.pivot_query.to_string(),
                    attempts: failures.into_iter().map(failure).collect(),
                });
            };
            let candidate = &prepared.candidates[idx];
            let tr = &candidate.translation;
            match run(&tr.plan, &opts.exec, &resilience.leaves(&tr.unit_systems)) {
                Ok((batch, exec)) => return Ok((candidate, batch, exec, failures)),
                Err(EngineError::Store(se)) => {
                    tried.insert(idx);
                    failed.extend(system_for_store(&se.store));
                    failures.push((candidate, se.to_string()));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// The failed plan attempts of a query, in order, with their errors.
type Failures<'p> = Vec<(&'p Candidate, String)>;

/// The one [`Report`] constructor, for a plan that did not run (yet):
/// `chosen` is the candidate that ran or, for an explain, would (`None`
/// when nothing is executable). Every text is shared with what planning
/// printed once ([`planner::Prepared`]); a run fills in what executing added.
fn report(
    planned: &Planned,
    chosen: Option<&Candidate>,
    (diagnostics, lint_cache): (Vec<Diagnostic>, Option<PlanCacheActivity>),
) -> Report {
    let prepared = &planned.prepared;
    let (chosen, plan, delegated) = match chosen {
        Some(c) => (
            c.alternative,
            c.explain.clone(),
            c.translation.unit_labels.clone(),
        ),
        None => (0, "(not executable)".into(), Vec::new().into()),
    };
    Report {
        pivot_query: prepared.pivot_query.clone(),
        universal_plan: prepared.universal_plan.clone(),
        alternatives: prepared.alternatives.clone(),
        chosen,
        plan,
        delegated,
        per_store: Vec::new(),
        exec: Default::default(),
        rewrite_time: planned.rewrite_time,
        translate_time: planned.translate_time,
        complete_search: prepared.outcome.complete,
        plan_cache: planned.plan_cache,
        resilience: None,
        diagnostics,
        lint_cache,
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

    /// A dataset of one table `T(k, v)` keyed on `key`, holding `rows`.
    fn table_dataset(key: &str, rows: Vec<Vec<i64>>) -> Dataset {
        use estocada_pivot::encoding::relational::TableEncoding;
        let rows = rows
            .into_iter()
            .map(|r| r.into_iter().map(estocada_pivot::Value::Int));
        Dataset::relational(
            "d",
            vec![crate::dataset::TableData {
                encoding: TableEncoding::new("T", &["k", "v"], Some(&[key])),
                rows: rows.map(Iterator::collect).collect(),
                text_columns: vec![],
            }],
        )
    }

    /// A malformed dataset is rejected with a typed error before anything
    /// is declared, and the well-formed one registers after it.
    fn assert_rejected_untouched(bad: Dataset, why: &str) {
        let mut est = Estocada::in_memory();
        match est.register_dataset(bad) {
            Err(Error::BadDataset(m)) => assert!(m.contains(why), "{m}"),
            other => panic!("expected a bad dataset, got {other:?}"),
        }
        assert_eq!(est.metrics().catalog_epoch, 0);
        assert_eq!(est.schema().relations().count(), 0);
        est.register_dataset(table_dataset("k", vec![vec![1, 2]]))
            .unwrap();
        let native = FragmentSpec::NativeTables {
            dataset: "d".into(),
            only: None,
        };
        est.add_fragment(native).unwrap();
    }

    #[test]
    fn a_key_naming_an_unknown_column_is_a_bad_dataset() {
        let bad = table_dataset("nope", vec![vec![1, 2]]);
        assert_rejected_untouched(bad, "no key column nope");
    }

    #[test]
    fn a_row_of_the_wrong_arity_is_a_bad_dataset() {
        let bad = table_dataset("k", vec![vec![1, 2], vec![3]]);
        assert_rejected_untouched(bad, "a row of 1 columns, not 2");
    }

    #[test]
    fn ddl_bumps_the_catalog_epoch() {
        use estocada_pivot::encoding::relational::TableEncoding;
        let mut est = Estocada::in_memory();
        assert_eq!(est.metrics().catalog_epoch, 0);
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
        assert_eq!(est.metrics().catalog_epoch, 1);
        let id = est
            .add_fragment(FragmentSpec::NativeTables {
                dataset: "d".into(),
                only: None,
            })
            .unwrap();
        assert_eq!(est.metrics().catalog_epoch, 2);
        est.drop_fragment(&id).unwrap();
        assert_eq!(est.metrics().catalog_epoch, 3);
    }

    #[test]
    fn options_resolve_against_engine_defaults() {
        let mut est = Estocada::in_memory();
        let built_in = est.resolve(&QueryOptions::default());
        assert_eq!(built_in.exec.batch_size, ExecOptions::default().batch_size);
        assert_eq!(built_in.deadline, None);
        est.set_default_query_options(
            QueryOptions::default()
                .with_batch_size(3)
                .with_deadline(Duration::from_secs(2)),
        );
        let d = est.resolve(&QueryOptions::default());
        assert_eq!(d.exec.batch_size, 3);
        assert_eq!(d.deadline, Some(Duration::from_secs(2)));
        // Per-query override wins, field by field.
        let q = est.resolve(&QueryOptions::default().with_batch_size(7));
        assert_eq!(q.exec.batch_size, 7);
        assert_eq!(q.deadline, Some(Duration::from_secs(2)));
    }

    fn shop() -> Dataset {
        use estocada_pivot::encoding::relational::TableEncoding;
        use estocada_pivot::Value;
        Dataset::relational(
            "shop",
            vec![crate::dataset::TableData {
                encoding: TableEncoding::new("Users", &["uid", "name"], Some(&["uid"])),
                rows: (1..=3)
                    .map(|u| vec![Value::Int(u), Value::str(format!("user{u}"))])
                    .collect(),
                text_columns: vec![],
            }],
        )
    }

    /// `Q(name) :- Users(2, name)` — the pivot form of the test's `SQL`.
    fn probe() -> estocada_pivot::Cq {
        estocada_pivot::CqBuilder::new("Q")
            .head_vars(["name"])
            .atom("Users", |a| a.c(2i64).v("name"))
            .build()
    }

    /// The engine's rewrite configuration, lifted by its certificate.
    fn lifted_config(est: &Estocada) -> RewriteConfig {
        let mut cfg = est.rewrite_config();
        cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
        cfg
    }

    /// What the context's per-epoch `Rewriter` makes of [`probe`].
    fn context_rewrite(
        est: &Estocada,
    ) -> std::result::Result<estocada_chase::RewriteOutcome, String> {
        let rewritten = est
            .planning()
            .rewriter
            .rewrite(&probe(), &lifted_config(est));
        rewritten.map_err(|e| e.to_string())
    }

    /// The fragment relations in the context rewriter's universal plan.
    fn planned_over(est: &Estocada) -> Vec<String> {
        let plan = context_rewrite(est).unwrap().universal_plan;
        plan.body.iter().map(|a| a.pred.to_string()).collect()
    }

    /// The three accessors that read the planning context agree with a
    /// from-scratch computation over the current schema and catalog, and
    /// the context's `Rewriter` with a one-shot rewrite over them.
    fn assert_context_fresh(est: &Estocada, after: &str) {
        let cfg = lifted_config(est);
        let problem = estocada_chase::RewriteProblem {
            query: probe(),
            views: est.catalog().view_defs(),
            source_constraints: est.schema().constraints.clone(),
            target_constraints: Vec::new(),
            access: est.catalog().access_map(),
        };
        assert_eq!(
            context_rewrite(est),
            estocada_chase::pacb_rewrite(&problem, &cfg).map_err(|e| e.to_string()),
            "rewriter after {after}"
        );
        assert_eq!(
            est.termination_certificate(),
            analyze::termination_certificate(est.schema(), est.catalog()),
            "certificate after {after}"
        );
        assert_eq!(
            est.constraint_set(),
            analyze::combined_constraints(est.schema(), est.catalog(), None),
            "constraint set after {after}"
        );
        let mut tables: Vec<(String, Vec<String>)> = est
            .sql_catalog()
            .into_iter()
            .map(|(name, t)| (name, t.columns))
            .collect();
        tables.sort();
        let mut want: Vec<(String, Vec<String>)> = est
            .datasets
            .values()
            .flat_map(|ds| match &ds.content {
                crate::dataset::DatasetContent::Relational(ts) => ts.as_slice(),
                _ => &[],
            })
            .map(|t| {
                (
                    t.encoding.relation.as_str().to_string(),
                    t.encoding.columns.clone(),
                )
            })
            .collect();
        want.sort();
        assert_eq!(tables, want, "sql catalog after {after}");
    }

    #[test]
    fn every_ddl_kind_refreshes_the_planning_context_and_dml_keeps_it() {
        use estocada_pivot::{Atom, CqBuilder, Symbol, Term, Tgd, Value, Var};
        const SQL: &str = "SELECT u.name FROM Users u WHERE u.uid = 2";
        let alternatives = |est: &Estocada| est.query(SQL).run().unwrap().report.alternatives.len();

        let mut est = Estocada::in_memory();
        // Touch the context of the empty engine, so every step below has a
        // stale one to replace.
        assert!(est.sql_catalog().is_empty());
        est.register_dataset(shop()).unwrap();
        assert_context_fresh(&est, "register_dataset");
        assert!(est.sql_catalog().contains_key("Users"));

        est.add_fragment(FragmentSpec::NativeTables {
            dataset: "shop".into(),
            only: None,
        })
        .unwrap();
        assert_context_fresh(&est, "add_fragment (native tables)");
        assert_eq!(alternatives(&est), 1);

        let kv = est
            .add_fragment(FragmentSpec::KeyValue {
                view: CqBuilder::new("UsersKV")
                    .head_vars(["uid", "name"])
                    .atom("Users", |a| a.v("uid").v("name"))
                    .build(),
            })
            .unwrap();
        assert_context_fresh(&est, "add_fragment (key-value)");
        assert_eq!(alternatives(&est), 2, "the new fragment is planned over");
        assert!(planned_over(&est).contains(&"UsersKV".to_string()));

        // DML changes data, not the catalog: the derived context stays.
        let before: *const PlanningContext = est.planning();
        est.insert_rows(
            "shop",
            "Users",
            vec![vec![Value::Int(9), Value::str("user9")]],
        )
        .unwrap();
        assert!(
            est.planning
                .get()
                .is_some_and(|ctx| std::ptr::eq(ctx, before)),
            "DML must not reset the context"
        );
        assert_context_fresh(&est, "insert_rows");

        est.drop_fragment(&kv).unwrap();
        assert!(est.planning.get().is_none(), "DDL resets the context");
        assert_context_fresh(&est, "drop_fragment");
        assert_eq!(alternatives(&est), 1, "the dropped fragment is gone");
        assert!(!planned_over(&est).contains(&"UsersKV".to_string()));

        // A tight budget is harmless while the certificate lifts it ...
        let mut tight = est.rewrite_config();
        tight.chase.max_rounds = 1;
        tight.chase.max_facts = 1;
        est.set_rewrite_config(tight);
        assert_context_fresh(&est, "set_rewrite_config");
        assert!(est.termination_certificate().guarantees_termination());
        assert_eq!(alternatives(&est), 1);

        // ... and bites again once a constraint (accepted under Warn)
        // moves the certificate off its terminating rung: the next query
        // plans under the configured guard, not the stale lifted one.
        assert_eq!(est.validation(), ValidationMode::Warn);
        let users = |a: u32, b: u32| {
            Atom::new(
                Symbol::intern("Users"),
                vec![Term::Var(Var(a)), Term::Var(Var(b))],
            )
        };
        est.add_constraint(Constraint::Tgd(Tgd::new(
            "grow",
            vec![users(0, 1)],
            vec![users(1, 2)],
        )))
        .unwrap();
        assert_context_fresh(&est, "add_constraint");
        assert!(!est.termination_certificate().guarantees_termination());
        assert!(
            context_rewrite(&est).is_err_and(|e| e.contains("budget")),
            "the context's rewriter must chase the added constraint"
        );
        assert!(
            est.query(SQL).run().is_err(),
            "a non-terminating chase must stop at the configured budget"
        );
    }
}
