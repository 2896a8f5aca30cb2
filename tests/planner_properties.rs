//! The planner seam, seen through the public API: one pipeline behind
//! execution, `EXPLAIN` and the advisor, and one option-resolution order.
//!
//! - **Explain and run agree.** For every query of the workload families
//!   on the three builtin deployments, `explain()` and a clean `run()`
//!   describe the same plan (both reports come out of one constructor).
//! - **The advisor costs what the planner costs.** Its baseline for a
//!   workload query is the cheapest `est_cost` `EXPLAIN` lists — also
//!   under a chase budget only the termination certificate makes passable.
//! - **Engine defaults apply to every option.** An engine-default
//!   `batch_size` sizes the executor's pipeline exactly like the per-query
//!   one, and a per-query value still wins.
//! - **The plan algebra is what `translate` emits.** Over the workload
//!   families and the shapes that force each join and residual operator,
//!   on the three builtin deployments, the translated plans use exactly
//!   the eight mediator operators — `Plan`'s ninth variant, `Values`, is
//!   the leaf of hand-built plans only.
//! - **`EXPLAIN` marks a choice only when one was made.** A query none of
//!   whose rewritings is executable prints no chosen-alternative arrow.
//! - **A prepared plan is invisible.** A cached engine and a twin that plans
//!   every query afresh (`no_plan_cache()`), driven in lockstep through
//!   generated queries, write batches, fault plans and store outages, return
//!   the same rows in the same order and the same reports field by field —
//!   timers and cache counters apart — including where a cached plan could
//!   go stale: a key-value namespace emptied and refilled, statistics that
//!   flip the cheapest alternative, a container dropped behind the catalog.
//! - **What shares a cache entry.** One rewriting outcome per conjunctive
//!   core (alpha-equivalent spellings, renamed columns, aggregates over it);
//!   one prepared plan per exact request as sent (two texts that parse to
//!   one query are two requests; a tree pattern's constant and selection
//!   order are part of it). A parse error is never cached, and DDL that
//!   makes a failing text valid lets it answer.

mod common;

use common::{arb_plan, build_plan, with_fast_retry, Deploy, DEPLOYMENTS, STORES};
use estocada::advisor::current_cost;
use estocada::frontends::{doc_query, parse_sql};
use estocada::translate::translate;
use estocada::{
    recommend, Dataset, DatasetContent, Error, Estocada, FaultKind, FaultPlan, FragmentSpec,
    Latencies, QueryOptions, QueryRequest, QueryResult, Report, SystemId, TableData, WorkloadQuery,
};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_engine::Plan;
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{Atom, Cq, CqBuilder, Term, Value};
use estocada_workloads::analytics::{analytics_sql, analytics_workload, AnalyticsConfig};
use estocada_workloads::marketplace::{
    generate, w1_workload, Marketplace, MarketplaceConfig, W1Query,
};
use estocada_workloads::readwrite::{run_rw_workload, rw_workload, RwConfig, RwOp};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::time::Duration;

fn cfg() -> MarketplaceConfig {
    common::cfg(40, 25, 150, 240, 19)
}

/// What a cart lookup selects.
const CART: [&str; 2] = ["pid", "qty"];

/// A query of one of the workload families.
#[derive(Debug, Clone, PartialEq)]
enum Q {
    Sql(String),
    /// A user's cart pattern and the bindings it selects.
    Cart(i64, [&'static str; 2]),
    /// The raw pivot CQ over a user's preferences.
    Prefs(i64),
}

impl Q {
    fn of(q: &W1Query) -> Q {
        match q {
            W1Query::PrefLookup(uid) => Q::Sql(pref_sql(*uid)),
            W1Query::CartLookup(uid) => Q::Cart(*uid, CART),
            W1Query::UserOrders(uid) => Q::Sql(user_orders_sql(*uid)),
        }
    }

    fn request<'e>(&self, est: &'e Estocada) -> QueryRequest<'e> {
        match self {
            Q::Sql(sql) => est.query(sql),
            Q::Cart(uid, select) => est.query_pattern(&cart_pattern(*uid), select),
            Q::Prefs(uid) => {
                let cq = CqBuilder::new("Q")
                    .head_vars(["theme", "language"])
                    .atom("Prefs", |a| a.c(*uid).v("theme").v("language").v("nl"))
                    .build();
                est.query_pivot(cq, vec!["theme".into(), "language".into()], vec![])
            }
        }
    }
}

/// `w1` lookups, the reads of a `readwrite` schedule, the analytics
/// rollups and the personalized join, without repeats.
fn families(m: &Marketplace) -> Vec<Q> {
    let mut out: Vec<Q> = w1_workload(&cfg(), 12, 3).iter().map(Q::of).collect();
    out.extend(
        rw_workload(m, RwConfig::default())
            .iter()
            .filter_map(|op| match op {
                RwOp::Read(q) => Some(Q::of(q)),
                _ => None,
            })
            .take(12),
    );
    let analytics = AnalyticsConfig {
        queries: 10,
        seed: 5,
        ..AnalyticsConfig::default()
    };
    out.extend(
        analytics_workload(&analytics)
            .iter()
            .map(|q| Q::Sql(analytics_sql(q))),
    );
    out.push(Q::Sql(personalized_sql(3, "laptop")));
    let mut unique: Vec<Q> = Vec::new();
    for q in out {
        if !unique.contains(&q) {
            unique.push(q);
        }
    }
    unique
}

/// The report fields that describe the plan (timers, cache counters and
/// execution metrics excluded).
fn plan_part(r: &Report) -> String {
    format!(
        "{}\n{}\n{:?}\n{}\n{}\n{:?}\n{}\n{:?}",
        r.pivot_query,
        r.universal_plan,
        r.alternatives,
        r.chosen,
        r.plan,
        r.delegated,
        r.complete_search,
        r.diagnostics
    )
}

#[test]
fn explain_and_a_clean_run_describe_the_same_plan() {
    let m = generate(cfg());
    for (name, deploy) in DEPLOYMENTS {
        let est = deploy(&m, Latencies::zero());
        for q in families(&m) {
            let explained = q.request(&est).explain().expect("explain");
            let ran = q.request(&est).run().expect("run").report;
            assert!(ran.resilience.is_none(), "{name} {q:?}: clean path");
            assert_eq!(plan_part(&explained), plan_part(&ran), "{name} {q:?}");
            assert!(explained.per_store.is_empty() && explained.exec.operators == 0);
        }
    }
}

fn workload_query(est: &Estocada, q: &Q) -> WorkloadQuery {
    let (cq, head_names, residuals) = match q {
        Q::Sql(sql) => {
            let p = parse_sql(sql, &est.sql_catalog()).expect("parse");
            (p.cq, p.head_names, p.residuals)
        }
        Q::Cart(uid, select) => {
            let p = doc_query(&cart_pattern(*uid), select).expect("pattern");
            (p.cq, p.head_names, Vec::new())
        }
        Q::Prefs(_) => unreachable!("no workload family issues raw CQs"),
    };
    WorkloadQuery {
        name: "q".into(),
        cq,
        head_names,
        residuals,
        weight: 1.0,
    }
}

/// The cheapest cost `EXPLAIN` lists for `q` as the advisor is given it: a
/// workload query is a conjunctive core (an aggregate's grouping is not
/// part of it, and a grouped unit is priced by the groups it ships).
fn cheapest_explained(est: &Estocada, q: &WorkloadQuery) -> Option<f64> {
    let request = est.query_pivot(q.cq.clone(), q.head_names.clone(), q.residuals.clone());
    let report = request.explain().expect("explain");
    report
        .alternatives
        .iter()
        .filter_map(|a| a.est_cost)
        .min_by(f64::total_cmp)
}

#[test]
fn the_advisor_baseline_is_the_cheapest_explained_cost() {
    let m = generate(cfg());
    for (name, deploy) in DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        let queries = families(&m);
        for q in &queries {
            let wq = workload_query(&est, q);
            let want = cheapest_explained(&est, &wq);
            assert!(want.is_some(), "{name} {q:?}: answerable");
            assert_eq!(current_cost(&est, &wq), want, "{name} {q:?}");
        }
        // Under a budget no chase fits in, only the termination
        // certificate lets planning through: the advisor must plan under
        // the same lifted budget as the planner, not report "unanswerable".
        assert!(est.termination_certificate().guarantees_termination());
        let mut tight = est.rewrite_config();
        tight.chase.max_rounds = 1;
        tight.chase.max_facts = 1;
        est.set_rewrite_config(tight);
        for q in queries.iter().take(6) {
            let wq = workload_query(&est, q);
            let want = cheapest_explained(&est, &wq);
            assert!(
                want.is_some(),
                "{name} {q:?}: answerable under the certificate"
            );
            assert_eq!(current_cost(&est, &wq), want, "{name} {q:?}");
        }
    }
}

#[test]
fn a_nan_benefit_sorts_instead_of_panicking() {
    let m = generate(cfg());
    let est = deploy_baseline(&m, Latencies::zero());
    let workload: Vec<WorkloadQuery> = [
        pref_sql(3),
        user_orders_sql(5),
        personalized_sql(3, "laptop"),
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| WorkloadQuery {
        name: format!("q{i}"),
        weight: if i == 1 { f64::NAN } else { 10.0 },
        ..workload_query(&est, &Q::Sql(sql.clone()))
    })
    .collect();
    let recs = recommend(&est, &workload).expect("recommend");
    assert!(recs.iter().any(|r| r.benefit.is_nan()));
    assert!(recs.iter().any(|r| r.benefit > 0.0));
}

/// Key-value requests a query's report charges.
fn kv_requests(r: &Report) -> u64 {
    r.per_store
        .iter()
        .find(|(sys, _)| *sys == SystemId::KeyValue)
        .map_or(0, |(_, m)| m.requests)
}

#[test]
fn an_engine_default_batch_size_sizes_the_pipeline() {
    let m = generate(cfg());
    let mut est = deploy_kv_migrated(&m, Latencies::zero());
    // Keep `Prefs` reachable through `PrefsKV` alone: a join on it must
    // feed the key-value fragment probe keys out of the relational store.
    est.drop_fragment("F1").expect("native tables");
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "sales".into(),
        only: Some(vec!["Users".into(), "Orders".into()]),
    })
    .expect("native tables without Prefs");
    let sql = "SELECT u.name, p.theme FROM Users u, Prefs p \
               WHERE u.uid = p.uid AND u.tier = 'gold'";

    let wide = est.query(sql).run().expect("default batch");
    assert!(
        wide.report.plan.contains("BindJoin"),
        "{}",
        wide.report.plan
    );
    assert!(wide.rows.len() >= 2, "precondition: several probe keys");
    assert_eq!(kv_requests(&wide.report), 1, "one MGET at the 1024 default");

    let per_query = est.query(sql).with_batch_size(1).run().expect("per-query");
    assert_eq!(per_query.rows, wide.rows);
    let per_batch = kv_requests(&per_query.report);
    assert!(per_batch > 1, "one MGET per one-row batch, got {per_batch}");

    est.set_default_query_options(QueryOptions::default().with_batch_size(1));
    let by_default = est.query(sql).run().expect("engine default");
    assert_eq!(by_default.rows, wide.rows);
    assert_eq!(
        kv_requests(&by_default.report),
        per_batch,
        "the engine default must size the pipeline like the per-query option"
    );

    let overridden = est
        .query(sql)
        .with_batch_size(1024)
        .run()
        .expect("override");
    assert_eq!(overridden.rows, wide.rows);
    assert_eq!(
        kv_requests(&overridden.report),
        1,
        "per-query beats the engine default"
    );
}

/// The operators of `plan`, by the name `Plan::explain` prints them under.
/// No wildcard arm: a new `Plan` variant has to say here what it is, and
/// the test below then asks whether `translate` may emit it.
fn operators(plan: &Plan, seen: &mut BTreeSet<String>) {
    let (name, inputs): (&str, Vec<&Plan>) = match plan {
        Plan::Values(_) => ("Values", vec![]),
        Plan::Delegated { .. } => ("Delegated", vec![]),
        Plan::Filter { input, .. } => ("Filter", vec![input]),
        Plan::Project { input, .. } => ("Project", vec![input]),
        Plan::HashJoin { left, right, .. } => ("HashJoin", vec![left, right]),
        Plan::NlJoin { left, right, .. } => ("NestedLoopJoin", vec![left, right]),
        Plan::BindJoin { left, .. } => ("BindJoin", vec![left]),
        Plan::Distinct { input } => ("Distinct", vec![input]),
        Plan::Aggregate { input, .. } => ("Aggregate", vec![input]),
    };
    seen.insert(name.to_string());
    for input in inputs {
        operators(input, seen);
    }
}

/// The operators an `EXPLAIN` plan text names: the first word of each line.
fn explained_operators(plan: &str) -> BTreeSet<String> {
    let first_word = |line: &str| line.split_whitespace().next().map(str::to_string);
    plan.lines().filter_map(first_word).collect()
}

#[test]
fn translated_plans_use_exactly_the_eight_emitted_operators() {
    let m = generate(cfg());
    // Shapes the families do not force: a cross product of two stores
    // (NlJoin), a range residual the key-value rewriting's GET cannot
    // absorb (Filter), a join whose key-value rewriting is fed its keys
    // (BindJoin), and a rollup over two stores, which joins (HashJoin) and
    // aggregates (Aggregate) in the mediator.
    let shapes = [
        "SELECT u.name, l.pid FROM Users u, WebLog l WHERE u.uid = 3 AND l.category = 'laptop'",
        "SELECT p.theme FROM Prefs p WHERE p.uid = 3 AND p.newsletter >= 0",
        "SELECT u.name, p.theme FROM Users u, Prefs p WHERE u.uid = p.uid AND u.tier = 'gold'",
        "SELECT u.tier, COUNT(l.lid) AS views FROM Users u, WebLog l \
         WHERE u.uid = l.uid GROUP BY u.tier",
    ];
    let mut seen = BTreeSet::new();
    for (name, deploy) in DEPLOYMENTS {
        let est = deploy(&m, Latencies::zero());
        let mut cfg = est.rewrite_config();
        cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
        let mut queries = families(&m);
        queries.extend(shapes.iter().map(|sql| Q::Sql(sql.to_string())));
        for q in queries {
            // The final plan of the engine's choice, aggregation included…
            let report = q.request(&est).explain().expect("explain");
            assert_ne!(report.plan, "(not executable)", "{name} {q:?}");
            seen.extend(explained_operators(&report.plan));
            // …and the core plan of every rewriting, chosen or not.
            let wq = workload_query(&est, &q);
            let problem = RewriteProblem {
                query: wq.cq.clone(),
                views: est.catalog().view_defs(),
                source_constraints: est.schema().constraints.clone(),
                target_constraints: Vec::new(),
                access: est.catalog().access_map(),
            };
            for rewriting in pacb_rewrite(&problem, &cfg).expect("rewrite").rewritings {
                let Ok(core) = translate(
                    &rewriting,
                    &wq.head_names,
                    &wq.residuals,
                    est.catalog(),
                    &est.stores,
                    est.cost_model(),
                    None,
                ) else {
                    continue;
                };
                let mut ops = BTreeSet::new();
                operators(&core.plan, &mut ops);
                assert_eq!(
                    ops,
                    explained_operators(&core.plan.explain()),
                    "{rewriting}"
                );
                seen.extend(ops);
            }
        }
    }
    let emitted = [
        "Aggregate",
        "BindJoin",
        "Delegated",
        "Distinct",
        "Filter",
        "HashJoin",
        "NestedLoopJoin",
        "Project",
    ];
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), emitted);
}

#[test]
fn explain_marks_no_choice_when_nothing_is_executable() {
    let m = generate(cfg());
    let est = deploy_kv_migrated(&m, Latencies::zero());
    // The rewriter minimizes atom `a` away, and with it the variable the
    // range condition compares: no rewriting is translatable.
    let report = est
        .query("SELECT b.theme FROM Prefs a, Prefs b WHERE a.newsletter >= 0")
        .explain()
        .expect("explain tolerates a query it cannot run");
    assert!(!report.alternatives.is_empty());
    assert!(report.alternatives.iter().all(|a| a.est_cost.is_none()));
    assert_eq!(report.plan, "(not executable)");
    let text = report.to_string();
    assert!(text.contains("[skipped"), "{text}");
    assert!(
        !text.contains('→'),
        "an arrow on a skipped alternative:\n{text}"
    );

    // An executable query still marks exactly its chosen alternative.
    let report = est.query(&pref_sql(3)).explain().expect("explain");
    let text = report.to_string();
    let marked: Vec<&str> = text.lines().filter(|l| l.starts_with(" →")).collect();
    assert_eq!(marked.len(), 1, "{text}");
    assert!(marked[0].contains("[cost"), "{text}");
}

// ---------------------------------------------------------------------
// Prepared plans: a cached run equals a run planned afresh.
// ---------------------------------------------------------------------

/// Everything a query answers and reports, timers and cache activity apart:
/// costs by their bits, `translations` (which says whether planning ran)
/// zeroed, the per-store and executor counters without their clocks.
fn observed(r: estocada::Result<QueryResult>) -> Result<String, String> {
    let r = r.map_err(|e| e.to_string())?;
    let costs: Vec<Option<u64>> = (r.report.alternatives.iter())
        .map(|a| a.est_cost.map(f64::to_bits))
        .collect();
    let resilience = r.report.resilience.clone().map(|mut res| {
        res.translations = 0;
        res
    });
    let per_store: Vec<(SystemId, u64, u64, u64)> = (r.report.per_store.iter())
        .map(|(sys, m)| (*sys, m.requests, m.tuples_out, m.tuples_scanned))
        .collect();
    let exec = &r.report.exec;
    Ok(format!(
        "{:?}\n{:?}\n{}\n{costs:?}\n{resilience:?}\n{per_store:?}\n{:?}",
        r.columns,
        r.rows,
        plan_part(&r.report),
        (exec.operators, exec.rows, exec.bind_probes),
    ))
}

/// A cached engine and a twin of it that plans every query afresh, driven
/// in lockstep: the same writes, fault plans and queries in the same order,
/// so their stores, breakers and fault cursors move together.
struct Twins {
    cached: Estocada,
    afresh: Estocada,
}

impl Twins {
    fn deploy(deploy: Deploy, m: &Marketplace) -> Twins {
        Twins {
            cached: with_fast_retry(deploy(m, Latencies::zero())),
            afresh: with_fast_retry(deploy(m, Latencies::zero())),
        }
    }

    fn each(&mut self, mut f: impl FnMut(&mut Estocada)) {
        f(&mut self.cached);
        f(&mut self.afresh);
    }

    /// Run `q` three times on both — on the cached side a query that plans,
    /// one that keeps its plan and one that finds it — asserting each pair
    /// agrees. Returns the cached side's reports.
    fn run(&self, q: &Q, ctx: &str) -> Vec<Option<Report>> {
        let runs = (1..=3).map(|nth| {
            let cached = q.request(&self.cached).run();
            let afresh = q.request(&self.afresh).no_plan_cache().run();
            assert!(afresh
                .as_ref()
                .map_or(true, |r| r.report.plan_cache.is_none()));
            let report = cached.as_ref().ok().map(|r| r.report.clone());
            assert_eq!(
                observed(cached),
                observed(afresh),
                "{ctx}, run {nth} of {q:?}"
            );
            report
        });
        let reports: Vec<Option<Report>> = runs.collect();
        // Whatever the first two found, the third finds a prepared plan.
        if let Some(third) = &reports[2] {
            assert!(third.plan_cache.is_some_and(|pc| pc.hit), "{ctx} {q:?}");
            assert_eq!(third.translate_time, Duration::ZERO, "{ctx} {q:?}");
        }
        reports
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Steps of (query, event before it): a write batch of an
    /// insert/delete/upsert schedule, the generated fault plan, one store
    /// down (its breaker trips within a query), or the faults lifted with
    /// the breakers left as they are.
    #[test]
    fn a_cached_run_equals_a_run_planned_afresh(
        faults in arb_plan(4),
        write_seed in any::<u64>(),
        steps in proptest::collection::vec((0..64usize, 0..8u8), 6..14),
    ) {
        let (fault_seed, rules) = faults;
        let m = generate(cfg());
        let mut pool = families(&m);
        pool.extend([3, 7].map(Q::Prefs));
        pool.push(Q::Sql(
            "SELECT p.theme FROM Prefs p WHERE p.uid = 3 AND p.newsletter >= 0".into(),
        ));
        let writes = rw_workload(&m, RwConfig { ops: steps.len(), write_ratio: 1.0, seed: write_seed });
        for (name, deploy) in DEPLOYMENTS {
            let mut twins = Twins::deploy(deploy, &m);
            let mut writes = writes.iter();
            for (i, (pick, event)) in steps.iter().enumerate() {
                match event {
                    0 | 1 => {
                        let op = writes.next().expect("a write per step");
                        twins.each(|est| {
                            run_rw_workload(est, std::slice::from_ref(op)).expect("write");
                        });
                    }
                    2 => twins.each(|est| est.set_fault_plan(Some(build_plan(fault_seed, &rules)))),
                    3 => {
                        let down = FaultPlan::new(fault_seed)
                            .down(STORES[pick % STORES.len()], FaultKind::Unavailable);
                        twins.each(|est| est.set_fault_plan(Some(down.clone())));
                    }
                    4 => twins.each(|est| est.set_fault_plan(None)),
                    _ => {}
                }
                twins.run(&pool[pick % pool.len()], &format!("{name}, step {i}"));
            }
        }
    }
}

/// The stored rows of table `name` of the `sales` dataset.
fn table_rows(est: &Estocada, name: &str) -> Vec<Vec<Value>> {
    let DatasetContent::Relational(tables) = &est.datasets()["sales"].content else {
        panic!("sales is relational");
    };
    let table = tables
        .iter()
        .find(|t| &*t.encoding.relation.as_str() == name);
    table.expect("table").rows.clone()
}

/// `SELECT theme, language FROM Prefs WHERE uid = …` on the cached side of
/// `twins`, which must answer `rows` through the key-value fragment.
fn assert_prefs_by_get(twins: &Twins, uid: i64, rows: usize, ctx: &str) {
    for report in twins.run(&Q::Sql(pref_sql(uid)), ctx) {
        let report = report.expect(ctx);
        assert!(
            report.delegated[0].starts_with("key-value: GET PrefsKV"),
            "{ctx}"
        );
        assert_eq!(
            report
                .per_store
                .iter()
                .map(|(_, m)| m.tuples_out)
                .sum::<u64>(),
            rows as u64,
            "{ctx}"
        );
    }
}

#[test]
fn a_namespace_emptied_and_refilled_never_meets_a_stale_plan() {
    let m = generate(cfg());
    let mut twins = Twins::deploy(deploy_kv_migrated, &m);
    assert_prefs_by_get(&twins, 3, 1, "full");
    // Empty `Prefs`: the write path drops the emptied namespace, and a plan
    // translated while it held rows would call that a missing container.
    let all = table_rows(&twins.cached, "Prefs");
    twins.each(|est| {
        est.delete_rows("sales", "Prefs", all.clone())
            .expect("delete");
    });
    let namespaces = twins.cached.stores.kv.namespace_names();
    assert!(
        !namespaces.contains(&"PrefsKV".to_string()),
        "{namespaces:?}"
    );
    assert_prefs_by_get(&twins, 3, 0, "emptied");
    // Refill it: a plan translated over the empty namespace must not
    // outlive the write either.
    twins.each(|est| {
        est.insert_rows("sales", "Prefs", all.clone())
            .expect("insert");
    });
    assert_prefs_by_get(&twins, 3, 1, "refilled");
}

#[test]
fn statistics_that_flip_the_cheapest_alternative_flip_the_cached_choice() {
    let m = generate(cfg());
    // A second home for `Orders`, in the parallel store: dearer to ask,
    // cheaper per row, so the cheaper of the two depends on the row count.
    let orders_par = FragmentSpec::ParRows {
        view: CqBuilder::new("OrdersPar")
            .head_vars(["oid", "uid", "pid", "category", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("category").v("amount")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    };
    let mut twins = Twins::deploy(deploy_baseline, &m);
    twins.each(|est| {
        est.add_fragment(orders_par.clone()).expect("OrdersPar");
    });
    let scan = Q::Sql("SELECT o.oid, o.amount FROM Orders o".into());
    let chosen = |reports: Vec<Option<Report>>| -> Vec<String> {
        let first = |r: Option<Report>| r.expect("answered").delegated[0].clone();
        reports.into_iter().map(first).collect()
    };
    for unit in chosen(twins.run(&scan, "small")) {
        assert!(unit.starts_with("relational:"), "{unit}");
    }
    let next = table_rows(&twins.cached, "Orders").len() as i64;
    let bulk: Vec<Vec<Value>> = (next..next + 4_000)
        .map(|oid| {
            let (uid, pid) = (Value::Int(oid % 40), Value::Int(oid % 25));
            let amount = Value::Double(oid as f64 / 4.0);
            vec![Value::Int(oid), uid, pid, Value::str("laptop"), amount]
        })
        .collect();
    twins.each(|est| {
        est.insert_rows("sales", "Orders", bulk.clone())
            .expect("bulk insert");
    });
    for unit in chosen(twins.run(&scan, "bulk")) {
        assert!(unit.starts_with("parallel:"), "{unit}");
    }
}

#[test]
fn a_container_dropped_behind_the_catalog_is_a_store_error_on_a_hit_too() {
    let m = generate(cfg());
    let twins = Twins::deploy(deploy_kv_migrated, &m);
    let want = twins.run(&Q::Sql(pref_sql(3)), "before the drop");
    assert!(want[2].as_ref().expect("answered").resilience.is_none());
    // Neither epoch moves: the next run binds and runs the prepared GET.
    for est in [&twins.cached, &twins.afresh] {
        assert!(est.stores.kv.drop_namespace("PrefsKV"));
    }
    for report in twins.run(&Q::Sql(pref_sql(3)), "after the drop") {
        let report = report.expect("failover answers");
        assert!(report.delegated[0].starts_with("relational:"), "{report}");
        let r = report.resilience.expect("the error is reported");
        assert!(r.failed_over());
        assert!(
            r.store_errors[0].contains("get failed: unknown namespace PrefsKV"),
            "{r:?}"
        );
    }
}

// ---------------------------------------------------------------------
// What shares a plan-cache entry.
// ---------------------------------------------------------------------

#[test]
fn one_outcome_per_core_and_one_prepared_plan_per_exact_query() {
    let m = generate(cfg());
    let twins = Twins::deploy(deploy_kv_migrated, &m);
    let sql = |text: &str| Q::Sql(text.to_string());
    let grouped = |select: &str, having: &str| {
        sql(&format!(
            "SELECT o.category, {select} FROM Orders o GROUP BY o.category{having}"
        ))
    };
    // (query, whether an earlier one left its rewriting outcome behind)
    let variants = [
        // One core, `Orders` projected on (category, amount): under two
        // spellings of its columns, two respellings of the text that parse
        // to the very same query (keyword case, whitespace), two aggregate
        // functions, and with a HAVING at an integer, at the same number as
        // a double, and at another constant.
        (sql("SELECT o.category, o.amount FROM Orders o"), false),
        (sql("SELECT x.category, x.amount FROM Orders x"), true),
        (sql("select o.category, o.amount from Orders o"), true),
        (
            sql("SELECT  o.category ,o.amount\n  FROM Orders   o "),
            true,
        ),
        (grouped("SUM(o.amount)", ""), true),
        (grouped("MAX(o.amount)", ""), true),
        (
            grouped("SUM(o.amount)", " HAVING SUM(o.amount) > 200"),
            true,
        ),
        (
            grouped("SUM(o.amount)", " HAVING SUM(o.amount) > 200.0"),
            true,
        ),
        (
            grouped("SUM(o.amount)", " HAVING SUM(o.amount) > 9000"),
            true,
        ),
        // Residual constants are part of the core's key: each plans alone.
        (
            sql("SELECT o.oid FROM Orders o WHERE o.amount > 100"),
            false,
        ),
        (
            sql("SELECT o.oid FROM Orders o WHERE o.amount > 700"),
            false,
        ),
        // Tree patterns that differ in one `eq_value`, or only in the order
        // of their selection: three cores, three requests.
        (Q::Cart(3, CART), false),
        (Q::Cart(7, CART), false),
        (Q::Cart(3, ["qty", "pid"]), false),
    ];
    let mut answers = BTreeSet::new();
    for (q, shares_outcome) in &variants {
        // `run` holds every run to the answer planned afresh, so a plan
        // borrowed from a sibling would show; the first run must also have
        // translated its own — a respelling that parses to a query already
        // prepared still keeps a prepared plan of its own.
        let reports = twins.run(q, "variant");
        let first = reports[0].as_ref().expect("answered");
        assert_eq!(
            first.plan_cache.map(|pc| pc.hit),
            Some(*shares_outcome),
            "{q:?}"
        );
        assert!(first.translate_time > Duration::ZERO, "{q:?}");
        let rows = q.request(&twins.cached).run().expect("answered").rows;
        assert!(!rows.is_empty(), "{q:?}");
        answers.insert(format!("{:?}", rows));
    }
    assert_eq!(
        answers.len(),
        variants.len() - 4,
        "only the respellings and 200 vs 200.0 agree"
    );
    // Six cores were rewritten, fourteen requests prepared: a prepared plan
    // is not a second entry. Every request ran four times, and only the
    // first run of the six that brought a new core missed.
    let stats = twins.cached.plan_cache_stats();
    assert_eq!((stats.misses, stats.entries), (6, 6));
    assert_eq!(stats.hits, 4 * variants.len() as u64 - 6);
}

#[test]
fn a_parse_error_is_never_cached_and_ddl_lets_the_same_text_answer() {
    const GHOST: &str = "SELECT g.a FROM Ghost g";
    let m = generate(cfg());
    let mut twins = Twins::deploy(deploy_kv_migrated, &m);
    let ghost = Q::Sql(GHOST.to_string());
    let unknown = |est: &Estocada| matches!(est.query(GHOST).run(), Err(Error::UnknownName(_)));

    let before = twins.cached.plan_cache_stats();
    for report in twins.run(&ghost, "no Ghost table") {
        assert!(report.is_none());
    }
    assert!(unknown(&twins.cached) && unknown(&twins.afresh));
    assert_eq!(
        twins.cached.plan_cache_stats(),
        before,
        "a parse error leaves nothing cached"
    );

    let table = TableEncoding::new("Ghost", &["a"], Some(&["a"]));
    let rows: Vec<Vec<Value>> = (1..=3).map(|a| vec![Value::Int(a)]).collect();
    twins.each(|est| {
        let data = TableData {
            encoding: table.clone(),
            rows: rows.clone(),
            text_columns: vec![],
        };
        est.register_dataset(Dataset::relational("ghost", vec![data]))
            .expect("register Ghost");
    });
    // The text parses now; no fragment stores `Ghost` yet.
    twins.run(&ghost, "Ghost registered");
    assert!(!unknown(&twins.cached));
    twins.each(|est| {
        est.add_fragment(FragmentSpec::NativeTables {
            dataset: "ghost".into(),
            only: None,
        })
        .expect("store Ghost");
    });
    for report in twins.run(&ghost, "Ghost stored") {
        assert!(report.is_some(), "the same text answers");
    }
    let mut got = twins.cached.query(GHOST).run().expect("answered").rows;
    got.sort();
    assert_eq!(got, rows);
}

#[test]
fn alpha_equivalent_queries_share_one_rewriting_outcome() {
    let m = generate(cfg());
    let est = deploy_kv_migrated(&m, Latencies::zero());
    // Q(a, b) :- Prefs(3, a, b, c) under three numberings of its variables.
    let spelled = |a: u32, b: u32, c: u32| {
        let args = vec![
            Term::constant(3i64),
            Term::var(a),
            Term::var(b),
            Term::var(c),
        ];
        Cq::new(
            "Q",
            vec![Term::var(a), Term::var(b)],
            vec![Atom::new("Prefs", args)],
        )
    };
    let names = || vec!["theme".to_string(), "language".to_string()];
    let mut rows = BTreeSet::new();
    for (nth, cq) in [spelled(0, 1, 2), spelled(5, 9, 2), spelled(2, 1, 0)]
        .into_iter()
        .enumerate()
    {
        for run in 0..3 {
            let r = est.query_cq(cq.clone(), names(), vec![]).expect("answered");
            let pc = r.report.plan_cache.expect("cache consulted");
            assert_eq!(pc.hit, (nth, run) != (0, 0), "spelling {nth}, run {run}");
            // Each spelling prints itself and keeps its own prepared plan.
            assert_eq!(r.report.pivot_query, cq.to_string());
            // The first spelling's second run keeps its plan; the others find
            // the outcome cached and keep theirs at once.
            let prepared = run > usize::from(nth == 0);
            assert_eq!(r.report.translate_time == Duration::ZERO, prepared);
            rows.insert(r.rows);
        }
    }
    assert_eq!(rows.len(), 1);
    let stats = est.plan_cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (8, 1, 1));
}
