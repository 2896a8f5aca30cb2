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

mod common;

use common::DEPLOYMENTS;
use estocada::advisor::current_cost;
use estocada::frontends::{doc_query, parse_sql};
use estocada::translate::translate;
use estocada::{
    recommend, Estocada, FragmentSpec, Latencies, QueryOptions, QueryRequest, Report, SystemId,
    WorkloadQuery,
};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_engine::Plan;
use estocada_workloads::analytics::{analytics_sql, analytics_workload, AnalyticsConfig};
use estocada_workloads::marketplace::{
    generate, w1_workload, Marketplace, MarketplaceConfig, W1Query,
};
use estocada_workloads::readwrite::{rw_workload, RwConfig, RwOp};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use std::collections::BTreeSet;

fn cfg() -> MarketplaceConfig {
    common::cfg(40, 25, 150, 240, 19)
}

/// A query of one of the workload families.
#[derive(Debug, Clone, PartialEq)]
enum Q {
    Sql(String),
    Cart(i64),
}

impl Q {
    fn of(q: &W1Query) -> Q {
        match q {
            W1Query::PrefLookup(uid) => Q::Sql(pref_sql(*uid)),
            W1Query::CartLookup(uid) => Q::Cart(*uid),
            W1Query::UserOrders(uid) => Q::Sql(user_orders_sql(*uid)),
        }
    }

    fn request<'e>(&self, est: &'e Estocada) -> QueryRequest<'e> {
        match self {
            Q::Sql(sql) => est.query(sql),
            Q::Cart(uid) => est.query_pattern(&cart_pattern(*uid), &["pid", "qty"]),
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
        Q::Cart(uid) => {
            let p = doc_query(&cart_pattern(*uid), &["pid", "qty"]).expect("pattern");
            (p.cq, p.head_names, Vec::new())
        }
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
