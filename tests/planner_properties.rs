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
//!   timers and cache counters apart, and a plan kept across writes reports
//!   the prices of its own last run instead of the twin's — including where
//!   a cached plan could go stale: a key-value namespace emptied and
//!   refilled, statistics that flip the cheapest alternative, a container
//!   dropped behind the catalog.
//! - **A write keeps a plan while its prices hold.** A write that leaves
//!   every relation a prepared plan priced within twice or half its priced
//!   rows keeps it, and it finds a constant no row held when it was priced;
//!   one past that, or to or from zero rows, prices it again, once.
//! - **What shares a cache entry.** One rewriting outcome per conjunctive
//!   core (alpha-equivalent spellings, renamed columns, aggregates over it);
//!   one prepared plan per exact request as sent (two texts that parse to
//!   one query are two requests; a tree pattern's constant and selection
//!   order are part of it). A parse error is never cached, and DDL that
//!   makes a failing text valid lets it answer.

mod common;

use common::{
    answer_of, arb_plan, build_plan, prices_of, ranking_of, run_of, with_fast_retry, Deploy,
    DEPLOYMENTS, STORES,
};
use estocada::advisor::current_cost;
use estocada::frontends::{doc_query, parse_sql};
use estocada::translate::{translate, Translation};
use estocada::{
    recommend, Dataset, DatasetContent, Error, Estocada, FaultKind, FaultPlan, FragmentSpec,
    Latencies, QueryOptions, QueryRequest, Report, SystemId, TableData, WorkloadQuery,
};
use estocada_chase::{pacb_rewrite, RewriteProblem};
use estocada_engine::{execute_with, ExecOptions, Plan};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{Atom, ConstId, Cq, CqBuilder, Term, Value};
use estocada_workloads::analytics::{analytics_sql, analytics_workload, AnalyticsConfig};
use estocada_workloads::marketplace::{
    generate, w1_workload, Marketplace, MarketplaceConfig, W1Query,
};
use estocada_workloads::readwrite::{run_rw_workload, rw_workload, RwConfig, RwOp};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
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

    /// `send` applied to this query's request on `est` (a request borrows
    /// its pattern, which lives only as long as this call).
    fn request<R>(&self, est: &Estocada, send: impl FnOnce(QueryRequest<'_>) -> R) -> R {
        match self {
            Q::Sql(sql) => send(est.query(sql)),
            Q::Cart(uid, select) => send(est.query_pattern(&cart_pattern(*uid), select)),
            Q::Prefs(uid) => {
                let cq = CqBuilder::new("Q")
                    .head_vars(["theme", "language"])
                    .atom("Prefs", |a| a.c(*uid).v("theme").v("language").v("nl"))
                    .build();
                send(est.query_pivot(cq, vec!["theme".into(), "language".into()], vec![]))
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
            let explained = q.request(&est, |r| r.explain()).expect("explain");
            let ran = q.request(&est, |r| r.run()).expect("run").report;
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
            let report = q.request(&est, |r| r.explain()).expect("explain");
            assert_ne!(&*report.plan, "(not executable)", "{name} {q:?}");
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

/// Every rewriting of `q`'s conjunctive core on `est`, as the planner finds
/// them (under the termination certificate's budgets).
fn rewritings(est: &Estocada, q: &Q) -> Vec<Cq> {
    let mut cfg = est.rewrite_config();
    cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
    let problem = RewriteProblem {
        query: workload_query(est, q).cq,
        views: est.catalog().view_defs(),
        source_constraints: est.schema().constraints.clone(),
        target_constraints: Vec::new(),
        access: est.catalog().access_map(),
    };
    pacb_rewrite(&problem, &cfg).expect("rewrite").rewritings
}

/// For every query of the families on the three builtin deployments: the
/// alternative `EXPLAIN` chooses, and the estimated rows of every rewriting's
/// translated core (`-` when it does not translate).
fn plan_choices() -> String {
    let m = generate(cfg());
    let mut out = String::from(
        "# Chosen alternatives and row estimates. Regenerate with:\n\
         #   UPDATE_EXPECT=1 cargo test --test planner_properties plan_choices\n",
    );
    for (name, deploy) in DEPLOYMENTS {
        let est = deploy(&m, Latencies::zero());
        for q in families(&m) {
            let report = q.request(&est, |r| r.explain()).expect("explain");
            let chosen = &report.alternatives[report.chosen].rewriting;
            out += &format!("\n== {name} {q:?}\nchosen {}: {chosen}\n", report.chosen);
            let wq = workload_query(&est, &q);
            for rewriting in rewritings(&est, &q) {
                let translated = translate(
                    &rewriting,
                    &wq.head_names,
                    &wq.residuals,
                    est.catalog(),
                    &est.stores,
                    est.cost_model(),
                    None,
                );
                let rows = translated.map_or("-".to_string(), |tr| format!("{:?}", tr.est_rows));
                out += &format!("rows {rows}: {rewriting}\n");
            }
        }
    }
    out
}

/// What the cost model may not move while its scan estimates change: the
/// committed record of every family query's chosen alternative and of every
/// rewriting's row estimate.
#[test]
fn plan_choices_and_row_estimates_match_the_committed_record() {
    let got = plan_choices();
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots/planner_choices.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&path, &got).expect("write the record");
    }
    let want = std::fs::read_to_string(&path).expect("tests/snapshots/planner_choices.txt");
    assert!(
        got == want,
        "chosen plans or row estimates moved from the committed record:\n{got}"
    );
}

/// Tuples `sys`'s store has scanned so far.
fn scanned(est: &Estocada, sys: SystemId) -> u64 {
    let all = est.stores.metrics();
    all.iter()
        .find(|(s, _)| *s == sys)
        .map_or(0, |(_, m)| m.tuples_scanned)
}

/// Run each delegated leaf of `plan` alone, in execution order — a
/// `Delegated` runner as it is, a BindJoin source with the keys its driving
/// input yields — and call `check` with the tuples each one's store scanned
/// (`system` gives each leaf's store, in the same order).
fn run_each_unit(
    est: &Estocada,
    plan: &Plan,
    systems: &mut dyn Iterator<Item = &SystemId>,
    check: &mut dyn FnMut(u64),
) {
    let measured = |sys: &SystemId, check: &mut dyn FnMut(u64), run: &mut dyn FnMut()| {
        let before = scanned(est, *sys);
        run();
        check(scanned(est, *sys) - before);
    };
    match plan {
        Plan::Values(_) => {}
        Plan::Delegated { runner, .. } => {
            let sys = systems.next().expect("a unit per leaf");
            measured(sys, check, &mut || drop(runner().expect("the unit runs")));
        }
        Plan::Filter { input, .. }
        | Plan::Project { input, .. }
        | Plan::Distinct { input }
        | Plan::Aggregate { input, .. } => run_each_unit(est, input, systems, check),
        Plan::HashJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
            run_each_unit(est, left, systems, check);
            run_each_unit(est, right, systems, check);
        }
        Plan::BindJoin {
            left,
            key_col,
            source,
        } => {
            run_each_unit(est, left, systems, check);
            let (driving, _) = execute_with(left, &ExecOptions::default()).expect("left runs");
            let keys: BTreeSet<&Value> = driving.rows.iter().map(|row| &row[*key_col]).collect();
            let keys = ConstId::intern_all(keys);
            let sys = systems.next().expect("a unit per leaf");
            measured(sys, check, &mut || {
                drop(source.fetch_batch(&keys).expect("probes"))
            });
        }
    }
}

/// The baseline plus a fragment of each layout the builtin deployments do
/// not read: row documents probed through their indexed key, row documents
/// whose first equality misses their index, a table indexed off its key,
/// and a second parallel dataset to join `WebLogPar` with.
fn deploy_every_layout(m: &Marketplace, latencies: Latencies) -> Estocada {
    let mut est = deploy_baseline(m, latencies);
    let users = |name: &str, head: [&str; 3]| {
        CqBuilder::new(name)
            .head_vars(head)
            .atom("Users", |a| a.v("uid").v("name").v("tier"))
            .build()
    };
    let orders = |name: &str| {
        CqBuilder::new(name)
            .head_vars(["oid", "uid", "pid", "category", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("category").v("amount")
            })
            .build()
    };
    let specs = [
        FragmentSpec::DocRows {
            view: users("UsersDoc", ["uid", "name", "tier"]),
            index_on: vec!["uid".into()],
        },
        FragmentSpec::DocRows {
            view: users("TiersDoc", ["tier", "uid", "name"]),
            index_on: vec!["uid".into()],
        },
        FragmentSpec::Table {
            view: orders("OrdersByUser"),
            index_on: vec!["uid".into()],
        },
        FragmentSpec::ParRows {
            view: orders("OrdersPar"),
            index_on: vec![],
            partitions: 0,
        },
    ];
    for spec in specs {
        est.add_fragment(spec).expect("fragment");
    }
    est
}

/// The one scan estimate is what the stores do: every unit of every
/// translated rewriting of the families (and of shapes that force a
/// BindJoin, a cross product, a mediator residual, a key range, a text
/// search and a parallel join), run alone against the store's own counter, scans exactly the
/// tuples `unit_scanned` says — on the three builtin deployments and on one
/// that holds every layout. The one exception is a native-document tree
/// query over an index the catalog does not know of — the builtin
/// deployments create `Carts.user` through the store — which is priced as
/// the full scan it is without that index.
///
/// Each query is translated twice on one engine, and run through it in
/// between: the run indexes exactly the `=` columns its chosen plan
/// scanned tables for and keys the unkeyed datasets it so scanned, and the
/// second translation probes them — priced at 0 scanned, and the store
/// scans 0 — and still notes only columns the store does not index and
/// datasets it has not keyed.
#[test]
fn every_unit_scans_what_its_access_estimates() {
    let m = generate(cfg());
    let shapes = [
        "SELECT u.name, l.pid FROM Users u, WebLog l WHERE u.uid = 3 AND l.category = 'laptop'",
        "SELECT p.theme FROM Prefs p WHERE p.uid = 3 AND p.newsletter >= 0",
        "SELECT u.name, p.theme FROM Users u, Prefs p WHERE u.uid = p.uid AND u.tier = 'gold'",
        "SELECT o.oid FROM Orders o WHERE o.oid >= 100",
        "SELECT p.pid, p.title FROM Products p WHERE CONTAINS(p.title, 'wireless')",
        "SELECT u.name FROM Users u WHERE u.uid = 3",
        "SELECT u.uid FROM Users u WHERE u.tier = 'gold'",
        "SELECT o.oid, l.lid FROM Orders o, WebLog l WHERE o.uid = l.uid AND o.pid = l.pid",
    ];
    let every_layout: (&str, Deploy) = ("every_layout", deploy_every_layout);
    let mut kinds = BTreeSet::new();
    let mut probed_on_the_second_pass = 0;
    for (name, deploy) in DEPLOYMENTS.into_iter().chain([every_layout]) {
        let est = deploy(&m, Latencies::zero());
        // Every relational index and every parallel key column.
        let indexes = || -> BTreeSet<(SystemId, String, usize)> {
            let (rel, par) = (&est.stores.rel, &est.stores.par);
            let on = |sys, c: String| move |col| (sys, c.clone(), col);
            let indexed = |t: String| rel.indexed(&t).into_iter().map(on(SystemId::Relational, t));
            let keyed = |d: String| {
                par.key_columns(&d)
                    .into_iter()
                    .map(on(SystemId::Parallel, d))
            };
            let datasets = par.dataset_names().into_iter().flat_map(keyed);
            rel.table_names()
                .into_iter()
                .flat_map(indexed)
                .chain(datasets)
                .collect()
        };
        let mut queries = families(&m);
        queries.extend(shapes.iter().map(|sql| Q::Sql(sql.to_string())));
        for q in queries {
            let wq = workload_query(&est, &q);
            // Each rewriting that translates, printed, and its translation.
            let translations = || -> Vec<(String, Translation)> {
                let (cat, stores, cost) = (est.catalog(), &est.stores, est.cost_model());
                let translated = rewritings(&est, &q).into_iter().map(|rw| {
                    let tr = translate(&rw, &wq.head_names, &wq.residuals, cat, stores, cost, None);
                    tr.map(|tr| (rw.to_string(), tr))
                });
                translated.flatten().collect()
            };
            // Every unit run alone scans what it is priced at. `before` is
            // the first pass, on the second: a unit it priced as a scan that
            // scans nothing now probes an index the run between built.
            let mut check_each = |trs: &[(String, Translation)], before: &[(String, _)]| {
                for (i, (rw, tr)) in trs.iter().enumerate() {
                    let first: Option<&Translation> = before.get(i).map(|(was, first)| {
                        assert_eq!(was, rw, "{name} {q:?}: the same rewritings");
                        first
                    });
                    let scanned_before = |label: &String| {
                        let f = first?;
                        let unit = f.unit_labels.iter().position(|l| l == label)?;
                        Some(f.unit_scanned[unit])
                    };
                    let mut estimates = tr.unit_labels.iter().zip(&tr.unit_scanned);
                    let mut check = |actual: u64| {
                        let (label, want) = estimates.next().expect("an estimate per unit");
                        let ctx = format!("{name} {q:?}: {label}");
                        match label.starts_with("document: TREE-QUERY") {
                            true => assert!(*want >= actual as f64, "{ctx}: {want} < {actual}"),
                            false => assert_eq!(*want, actual as f64, "{ctx}"),
                        }
                        let kind = label.split_whitespace().take(2).collect::<Vec<_>>();
                        kinds.insert((kind.join(" "), *want > 0.0));
                        if scanned_before(label).is_some_and(|s| s > 0.0) && actual == 0 {
                            probed_on_the_second_pass += 1;
                        }
                    };
                    run_each_unit(&est, &tr.plan, &mut tr.unit_systems.iter(), &mut check);
                    assert!(estimates.next().is_none(), "{name} {q:?}: a unit not run");
                    // A unit notes only table columns the store does not
                    // index and datasets it has not keyed.
                    for scan in &tr.eq_scans {
                        let at = (scan.system, scan.container.clone(), scan.column);
                        let keyed = !est.stores.par.key_columns(&scan.container).is_empty();
                        let held =
                            indexes().contains(&at) || (scan.system == SystemId::Parallel && keyed);
                        assert!(!held, "{name} {q:?}: {scan:?}");
                        let noted = first.is_none_or(|f| f.eq_scans.contains(scan));
                        assert!(noted, "{name} {q:?}: {scan:?} is new");
                    }
                }
            };
            let first = translations();
            check_each(&first, &[]);
            let unindexed = indexes();
            let ran = q.request(&est, |r| r.run()).expect("the query runs");
            // The run indexed what its plan's translation noted.
            let built: BTreeSet<_> = indexes().difference(&unindexed).cloned().collect();
            let chosen = &ran.report.alternatives[ran.report.chosen].rewriting;
            let (_, chosen) = (first.iter())
                .find(|(rw, _)| rw == chosen)
                .expect("the chosen rewriting translates");
            let noted = (chosen.eq_scans.iter()).map(|s| (s.system, s.container.clone(), s.column));
            assert_eq!(built, noted.collect(), "{name} {q:?}: built");
            let second = translations();
            assert_eq!(first.len(), second.len(), "{name} {q:?}");
            check_each(&second, &first);
        }
    }
    assert!(probed_on_the_second_pass > 0, "no scan was indexed");
    // Every unit builder ran, and every store was seen both probing (or
    // getting) and scanning where its layout allows both.
    let kinds: Vec<String> = kinds
        .iter()
        .map(|(k, scans)| format!("{k} {scans}"))
        .collect();
    let want = [
        "document: FIND false",
        "document: FIND true",
        "document: TREE-QUERY true",
        "key-value: GET false",
        "parallel: JOIN true",
        "parallel: LOOKUP false",
        "parallel: SCAN true",
        "relational: SELECT false",
        "relational: SELECT true",
        "text: SEARCH false",
    ];
    assert_eq!(kinds, want);
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
    assert_eq!(&*report.plan, "(not executable)");
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

/// A cached engine and a twin of it that plans every query afresh, driven
/// in lockstep: the same writes, fault plans and queries in the same order,
/// so their stores, breakers and fault cursors move together.
struct Twins {
    cached: Estocada,
    afresh: Estocada,
    /// The prices each request's last cached run reported
    /// ([`common::prices_of`]), by the request's `Debug` text.
    prices: RefCell<HashMap<String, String>>,
}

impl Twins {
    fn deploy(deploy: Deploy, m: &Marketplace) -> Twins {
        Twins {
            cached: with_fast_retry(deploy(m, Latencies::zero())),
            afresh: with_fast_retry(deploy(m, Latencies::zero())),
            prices: RefCell::default(),
        }
    }

    fn each(&mut self, mut f: impl FnMut(&mut Estocada)) {
        f(&mut self.cached);
        f(&mut self.afresh);
    }

    /// The rows `q` answers, the same on both sides.
    fn rows(&self, q: &Q) -> Vec<Vec<Value>> {
        let cached = q.request(&self.cached, |r| r.run()).expect("answered");
        let afresh = (q.request(&self.afresh, |r| r.no_plan_cache().run())).expect("answered");
        assert_eq!(cached.rows, afresh.rows, "{q:?}");
        cached.rows
    }

    /// Prepared plans the cached side has priced again so far.
    fn repriced(&self) -> u64 {
        self.cached.metrics().plans_repriced
    }

    /// Run `q` three times on both — on the cached side a query that plans,
    /// one that keeps its plan and one that finds it — asserting each pair
    /// agrees. Returns the cached side's reports.
    ///
    /// The answers must be equal. A plan priced in this run reports the
    /// twin's prices; a prepared one (`translate_time` zero), kept across
    /// writes that moved no priced relation past twice or half its rows,
    /// reports its own last run's prices, which the twin's may have left.
    /// Two sides that rank their alternatives alike run alike, so every
    /// other field must then equal the twin's too.
    fn run(&self, q: &Q, ctx: &str) -> Vec<Option<Report>> {
        let key = format!("{q:?}");
        let runs = (1..=3).map(|nth| {
            let ctx = format!("{ctx}, run {nth} of {q:?}");
            let cached = q.request(&self.cached, |r| r.run());
            let afresh = q.request(&self.afresh, |r| r.no_plan_cache().run());
            assert_eq!(answer_of(&cached), answer_of(&afresh), "{ctx}");
            let mut prices = self.prices.borrow_mut();
            let (Ok(cached), Ok(afresh)) = (cached, afresh) else {
                // The run may have priced a plan that no report showed.
                prices.remove(&key);
                return None;
            };
            let (got, twin) = (cached.report, afresh.report);
            assert!(twin.plan_cache.is_none(), "{ctx}");
            let kept = got.translate_time == Duration::ZERO;
            if kept {
                assert!(got.plan_cache.is_some_and(|pc| pc.hit), "{ctx}");
                let translations = got.resilience.as_ref().map_or(0, |r| r.translations);
                assert_eq!(translations, 0, "{ctx}: a prepared plan translates nothing");
            }
            match (kept, prices.get(&key)) {
                (true, Some(was)) => assert_eq!(&prices_of(&got), was, "{ctx}: kept"),
                // Its last run failed: no report showed what it priced.
                (true, None) => {}
                (false, _) => assert_eq!(prices_of(&got), prices_of(&twin), "{ctx}: priced"),
            }
            if ranking_of(&got) == ranking_of(&twin) {
                assert_eq!(run_of(&got), run_of(&twin), "{ctx}");
            } else {
                assert!(kept, "{ctx}: only a kept plan ranks unlike the twin");
                if got.resilience.is_none() {
                    assert_eq!(got.chosen, ranking_of(&got)[0], "{ctx}");
                }
            }
            prices.insert(key.clone(), prices_of(&got));
            Some(got)
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
    let DatasetContent::Relational(tables) =
        &est.dataset("sales").expect("sales is registered").content
    else {
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

// ---------------------------------------------------------------------
// Kept plans: a write that moves no priced relation past twice or half its
// rows keeps a prepared plan; one past that, or across zero, prices it again.
// ---------------------------------------------------------------------

/// `Twins::run` of `q` after `write`, on the cached side either a kept plan
/// (`keep`: no translation, nothing priced again) or one priced again once
/// and then hit.
fn run_after(twins: &mut Twins, write: impl FnMut(&mut Estocada), q: &Q, keep: bool, ctx: &str) {
    twins.each(write);
    let before = twins.repriced();
    let reports = twins.run(q, ctx);
    let first = reports[0].as_ref().expect(ctx);
    assert_eq!(first.translate_time == Duration::ZERO, keep, "{ctx}");
    assert!(first.resilience.is_none(), "{ctx}: {:?}", first.resilience);
    assert_eq!(twins.repriced() - before, u64::from(!keep), "{ctx}");
}

fn insert(table: &'static str, rows: Vec<Vec<Value>>) -> impl FnMut(&mut Estocada) {
    move |est| {
        est.insert_rows("sales", table, rows.clone())
            .expect("insert");
    }
}

fn delete(table: &'static str, rows: Vec<Vec<Value>>) -> impl FnMut(&mut Estocada) {
    move |est| {
        est.delete_rows("sales", table, rows.clone())
            .expect("delete");
    }
}

#[test]
fn a_plan_kept_through_deletes_is_priced_again_when_they_empty_its_fragment() {
    let m = generate(cfg());
    for (name, deploy) in DEPLOYMENTS {
        let mut twins = Twins::deploy(deploy, &m);
        let q = Q::Sql(pref_sql(3));
        twins.run(&q, name);
        let all = table_rows(&twins.cached, "Prefs");
        let (first, rest) = all.split_at(all.len() / 2);
        // Half the rows go: every relation the plan priced is at half, and
        // the plan is kept.
        let ctx = format!("{name}, half deleted");
        run_after(&mut twins, delete("Prefs", first.to_vec()), &q, true, &ctx);
        // The rest go: at zero, the plan is priced again. Over an emptied
        // namespace, dropped by the write path, it answers nothing, and no
        // store error.
        let ctx = format!("{name}, all deleted");
        run_after(&mut twins, delete("Prefs", rest.to_vec()), &q, false, &ctx);
        assert_eq!(twins.rows(&q), Vec::<Vec<Value>>::new(), "{ctx}");
        if name != "baseline" {
            let namespaces = twins.cached.stores.kv.namespace_names();
            assert!(!namespaces.contains(&"PrefsKV".into()), "{namespaces:?}");
        }
        // One row back: from zero, the plan is priced again.
        let ctx = format!("{name}, one row back");
        let back: Vec<Vec<Value>> = all
            .iter()
            .filter(|r| r[0] == Value::Int(3))
            .cloned()
            .collect();
        run_after(&mut twins, insert("Prefs", back.clone()), &q, false, &ctx);
        let want: Vec<Vec<Value>> = back.iter().map(|r| r[1..3].to_vec()).collect();
        assert_eq!(twins.rows(&q), want, "{ctx}");
    }
}

#[test]
fn a_plan_is_priced_again_once_a_relation_it_priced_more_than_doubles() {
    let m = generate(cfg());
    let orders = table_rows(&deploy_baseline(&m, Latencies::zero()), "Orders");
    let order = |i: usize| {
        let mut row = orders[i % orders.len()].clone();
        row[0] = Value::Int(10_000_000 + i as i64);
        row
    };
    let (half, past) = (orders.len() / 2, orders.len() + 1);
    let grown: Vec<Vec<Value>> = (0..half).map(order).collect();
    let doubled: Vec<Vec<Value>> = (half..half + past).map(order).collect();
    for (name, deploy) in DEPLOYMENTS {
        let mut twins = Twins::deploy(deploy, &m);
        let q = Q::Sql(user_orders_sql(3));
        twins.run(&q, name);
        // `Orders` grows by half: within twice its priced rows, kept.
        let ctx = format!("{name}, grown by half");
        run_after(&mut twins, insert("Orders", grown.clone()), &q, true, &ctx);
        // Past twice: priced again, at the twin's costs (`Twins::run`).
        let ctx = format!("{name}, more than doubled");
        run_after(
            &mut twins,
            insert("Orders", doubled.clone()),
            &q,
            false,
            &ctx,
        );
    }
}

#[test]
fn a_constant_no_row_held_when_the_plan_was_priced_is_found_once_a_write_adds_it() {
    let m = generate(cfg());
    let (uid, language) = (987_654, "tlh");
    let by_key = Q::Sql(pref_sql(uid));
    let by_value = Q::Sql(format!(
        "SELECT p.uid, p.theme FROM Prefs p WHERE p.language = '{language}'"
    ));
    let row = vec![
        Value::Int(uid),
        Value::str("dark"),
        Value::str(language),
        Value::Bool(true),
    ];
    for (name, deploy) in DEPLOYMENTS {
        let mut twins = Twins::deploy(deploy, &m);
        // Twice round: the first scan for the value may build an index,
        // which prices the plan by key again.
        for q in [&by_key, &by_value, &by_key, &by_value] {
            twins.run(q, name);
            assert_eq!(twins.rows(q), Vec::<Vec<Value>>::new(), "{name} {q:?}");
        }
        // One row among 40: both plans are kept, and find it.
        twins.each(insert("Prefs", vec![row.clone()]));
        for q in [&by_key, &by_value] {
            let ctx = format!("{name} {q:?}, inserted");
            let reports = twins.run(q, &ctx);
            let first = reports[0].as_ref().expect("answered");
            assert_eq!(first.translate_time, Duration::ZERO, "{ctx}: kept");
        }
        assert_eq!(twins.rows(&by_key), vec![row[1..3].to_vec()], "{name}");
        let found = vec![vec![row[0].clone(), row[1].clone()]];
        assert_eq!(twins.rows(&by_value), found, "{name}");
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
fn a_key_without_an_entry_gains_one_by_an_insert_and_loses_it_by_a_delete() {
    let m = generate(cfg());
    let mut twins = Twins::deploy(deploy_kv_migrated, &m);
    let prefs = table_rows(&twins.cached, "Prefs");
    let row = prefs.iter().find(|r| r[0] == Value::Int(3)).expect("uid 3");
    let answer = vec![row[1..3].to_vec()];
    let none: Vec<Vec<Value>> = Vec::new();
    // `assert_prefs_by_get` compares the two sides; these are the rows.
    let prefs_of = |twins: &Twins| twins.cached.query(&pref_sql(3)).run().expect("GET").rows;
    let write = |twins: &mut Twins, insert: bool| {
        twins.each(|est| {
            let rows = vec![row.clone()];
            let written = match insert {
                true => est.insert_rows("sales", "Prefs", rows),
                false => est.delete_rows("sales", "Prefs", rows),
            };
            written.expect("write");
        })
    };
    // Key 3 left without an entry in a namespace that still holds others:
    // the GET asks for it, finds none, and is no error.
    write(&mut twins, false);
    assert_prefs_by_get(&twins, 3, 0, "no entry");
    assert_eq!(prefs_of(&twins), none);
    write(&mut twins, true);
    assert_prefs_by_get(&twins, 3, 1, "inserted");
    assert_eq!(prefs_of(&twins), answer);
    write(&mut twins, false);
    assert_prefs_by_get(&twins, 3, 0, "deleted again");
    assert_eq!(prefs_of(&twins), none);
    let namespaces = twins.cached.stores.kv.namespace_names();
    assert!(namespaces.contains(&"PrefsKV".to_string()));
}

#[test]
fn a_constant_in_a_value_position_is_compared_as_an_interned_cell() {
    let m = generate(cfg());
    let twins = Twins::deploy(deploy_kv_migrated, &m);
    let prefs = table_rows(&twins.cached, "Prefs");
    let row = prefs.iter().find(|r| r[0] == Value::Int(3)).expect("uid 3");
    let theme = row[1].as_str().expect("a theme");
    let other = if theme == "dark" { "light" } else { "dark" };
    let cases = [
        (theme, vec![vec![row[2].clone()]]),
        (other, vec![]),
        ("a theme no row holds", vec![]),
    ];
    for (theme, want) in cases {
        let sql = format!("SELECT p.language FROM Prefs p WHERE p.uid = 3 AND p.theme = '{theme}'");
        for report in twins.run(&Q::Sql(sql.clone()), &sql) {
            let delegated = &report.expect("answered").delegated;
            let get = "key-value: GET PrefsKV[3]";
            assert!(delegated[0].starts_with(get), "{sql}: {delegated:?}");
        }
        let got = twins.cached.query(&sql).run().expect("answered").rows;
        assert_eq!(got, want, "{sql}");
    }
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
    // Neither epoch moves: the next run runs the prepared GET.
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
        let rows = q
            .request(&twins.cached, |r| r.run())
            .expect("answered")
            .rows;
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
            assert_eq!(*r.report.pivot_query, cq.to_string());
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
