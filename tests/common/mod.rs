//! Fixtures the integration suites share. Every suite is its own crate and
//! uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use estocada::frontends::parse_sql;
use estocada::{
    Estocada, FaultKind, FaultPlan, Latencies, QueryResult, Report, RetryPolicy, SystemId,
};
use estocada_engine::AggFun;
use estocada_pivot::{CqBuilder, Term, Value};
use estocada_workloads::marketplace::{Marketplace, MarketplaceConfig};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// A small marketplace (activity skew 0.8 in every suite).
pub fn cfg(
    users: usize,
    products: usize,
    orders: usize,
    log_entries: usize,
    seed: u64,
) -> MarketplaceConfig {
    MarketplaceConfig {
        users,
        products,
        orders,
        log_entries,
        skew: 0.8,
        seed,
    }
}

pub fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

pub type Deploy = fn(&Marketplace, Latencies) -> Estocada;

/// The three builtin deployments.
pub const DEPLOYMENTS: [(&str, Deploy); 3] = [
    ("baseline", deploy_baseline),
    ("kv_migrated", deploy_kv_migrated),
    ("materialized_join", deploy_materialized_join),
];

// ---------------------------------------------------------------------
// Scenario queries and the comparable projection of their results.
// ---------------------------------------------------------------------

/// SQL texts, the document cart pattern of a user, and the raw pivot CQ
/// over a user's preferences.
#[derive(Debug, Clone)]
pub enum Q {
    Sql(String),
    Doc(i64),
    Cq(i64),
}

pub fn run_q(est: &Estocada, q: &Q) -> estocada::Result<QueryResult> {
    match q {
        Q::Sql(sql) => est.query_sql(sql),
        Q::Doc(uid) => est.query_doc(&cart_pattern(*uid), &["pid", "qty"]),
        Q::Cq(uid) => {
            let cq = CqBuilder::new("Q")
                .head_vars(["theme", "language"])
                .atom("Prefs", |a| a.c(*uid).v("theme").v("language").v("nl"))
                .build();
            est.query_cq(cq, vec!["theme".into(), "language".into()], vec![])
        }
    }
}

/// The semantically comparable projection of a result: wall-clock timings
/// and cache activity are diagnostics and excluded.
#[derive(Debug, Clone, PartialEq)]
pub struct Norm {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub pivot_query: String,
    pub universal_plan: String,
    pub alternatives: Vec<(String, Option<f64>, Option<String>)>,
    pub chosen: usize,
    pub plan: String,
    pub delegated: Vec<String>,
    pub complete: bool,
    pub resilient: bool,
}

pub fn norm(r: &QueryResult) -> Norm {
    Norm {
        columns: r.columns.clone(),
        rows: r.rows.clone(),
        pivot_query: r.report.pivot_query.to_string(),
        universal_plan: r.report.universal_plan.to_string(),
        alternatives: r
            .report
            .alternatives
            .iter()
            .map(|a| (a.rewriting.clone(), a.est_cost, a.note.clone()))
            .collect(),
        chosen: r.report.chosen,
        plan: r.report.plan.to_string(),
        delegated: r.report.delegated.to_vec(),
        complete: r.report.complete_search,
        resilient: r.report.resilience.is_some(),
    }
}

// ---------------------------------------------------------------------
// A result, split three ways for comparing a cached run with a twin's.
// ---------------------------------------------------------------------

/// What a query answers: its columns and rows, or its error.
pub fn answer_of(r: &estocada::Result<QueryResult>) -> Result<String, String> {
    let r = r.as_ref().map_err(|e| e.to_string())?;
    Ok(format!("{:?}\n{:?}", r.columns, r.rows))
}

/// What the plan was priced at: every alternative, its cost by its bits.
pub fn prices_of(r: &Report) -> String {
    let costs: Vec<Option<u64>> = (r.alternatives.iter())
        .map(|a| a.est_cost.map(f64::to_bits))
        .collect();
    format!("{:?}\n{costs:?}", r.alternatives)
}

/// How the plan ran: every report field but the prices, the timers and the
/// cache activity — `translations` (whether planning ran) zeroed, the
/// per-store and executor counters without their clocks.
pub fn run_of(r: &Report) -> String {
    let resilience = r.resilience.clone().map(|mut res| {
        res.translations = 0;
        res
    });
    let per_store: Vec<(SystemId, u64, u64, u64)> = (r.per_store.iter())
        .map(|(sys, m)| (*sys, m.requests, m.tuples_out, m.tuples_scanned))
        .collect();
    let exec = &r.exec;
    format!(
        "{}\n{}\n{}\n{}\n{:?}\n{}\n{:?}\n{resilience:?}\n{per_store:?}\n{:?}",
        r.pivot_query,
        r.universal_plan,
        r.chosen,
        r.plan,
        r.delegated,
        r.complete_search,
        r.diagnostics,
        (exec.operators, exec.rows, exec.bind_probes),
    )
}

/// The executable alternatives in the order the planner ranks them: by
/// cost, ties to the earliest. An open breaker's penalty moves a whole
/// class behind the rest without reordering it, so two reports ranked
/// alike choose alike under any breaker state.
pub fn ranking_of(r: &Report) -> Vec<usize> {
    let mut costed: Vec<(f64, usize)> = (r.alternatives.iter().enumerate())
        .filter_map(|(i, a)| Some((a.est_cost?, i)))
        .collect();
    costed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    costed.into_iter().map(|(_, i)| i).collect()
}

/// Everything a result answers and reports but the timers and the cache
/// activity.
pub fn observed(r: &estocada::Result<QueryResult>) -> String {
    match r {
        Ok(q) => format!(
            "{:?}\n{}\n{}",
            answer_of(r),
            prices_of(&q.report),
            run_of(&q.report)
        ),
        Err(e) => format!("error: {e}"),
    }
}

// ---------------------------------------------------------------------
// Generated fault schedules.
// ---------------------------------------------------------------------

/// A fast retry policy for tests: same shape as the default, microsecond
/// backoffs so injected outages don't slow the suite down.
pub fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(5),
        max_backoff: Duration::from_micros(20),
        jitter: true,
    }
}

pub fn with_fast_retry(mut est: Estocada) -> Estocada {
    let opts = est.default_query_options().with_retry_policy(fast_retry());
    est.set_default_query_options(opts);
    est
}

/// The selector names a `FaultPlan` rule keys a store by.
pub const STORES: [&str; 5] = ["relational", "key-value", "document", "text", "parallel"];
const KINDS: [FaultKind; 3] = [
    FaultKind::Unavailable,
    FaultKind::Timeout,
    FaultKind::PartialResponse,
];

#[derive(Debug, Clone)]
pub struct ArbRule {
    store: usize,
    kind: usize,
    from: u64,
    ops: u64,
    tenths: u8,
}

/// A plan seed and fewer than `max_rules` rules for [`build_plan`].
pub fn arb_plan(max_rules: usize) -> impl Strategy<Value = (u64, Vec<ArbRule>)> {
    let rule = (0..5usize, 0..3usize, 1..4u64, 1..6u64, 0..=10u8).prop_map(
        |(store, kind, from, ops, tenths)| ArbRule {
            store,
            kind,
            from,
            ops,
            tenths,
        },
    );
    (any::<u64>(), proptest::collection::vec(rule, 0..max_rules))
}

pub fn build_plan(seed: u64, rules: &[ArbRule]) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for r in rules {
        let store = STORES[r.store];
        let kind = KINDS[r.kind];
        plan = if r.tenths >= 10 {
            plan.outage(store, r.from, r.ops, kind)
        } else {
            plan.random_errors(store, f64::from(r.tenths) / 10.0, kind)
        };
    }
    plan
}

fn num(v: &Value) -> f64 {
    v.as_double().unwrap_or(0.0)
}

/// Brute-force fold of an aggregate query over the conceptual dataset:
/// the distinct core tuples from `oracle_eval`, grouped in key order.
pub fn brute_force(est: &Estocada, sql: &str) -> Vec<Vec<Value>> {
    let q = parse_sql(sql, &est.sql_catalog()).expect("parse");
    // The oracle evaluates conjunctive queries: carry the compared
    // variables out in extra head columns, filter, and cut them off.
    let mut cq = q.cq.clone();
    let width = cq.head.len();
    cq.head.extend(q.residuals.iter().map(|r| Term::Var(r.var)));
    let holds = |row: &Vec<Value>| {
        let compared = row[width..].iter().zip(&q.residuals);
        compared.into_iter().all(|(v, r)| r.op.eval(v, &r.value))
    };
    let mut core = est.oracle_eval(&cq);
    core.retain(holds);
    core.iter_mut().for_each(|row| row.truncate(width));
    core.sort();
    core.dedup();
    let Some(spec) = &q.aggregate else {
        return core;
    };
    let mut groups: BTreeMap<Vec<Value>, Vec<&Vec<Value>>> = BTreeMap::new();
    for row in &core {
        let key = row[..spec.group_cols].to_vec();
        groups.entry(key).or_default().push(row);
    }
    if spec.group_cols == 0 && groups.is_empty() {
        groups.insert(Vec::new(), Vec::new());
    }
    let mut out = Vec::new();
    for (key, rows) in groups {
        let mut full = key;
        for a in &spec.aggs {
            let args = rows.iter().map(|r| &r[a.col]);
            let sum: f64 = args.clone().map(num).sum();
            full.push(match a.fun {
                AggFun::Count => Value::Int(rows.len() as i64),
                AggFun::Sum => Value::Double(sum),
                AggFun::Avg if rows.is_empty() => Value::Null,
                AggFun::Avg => Value::Double(sum / rows.len() as f64),
                AggFun::Min => args.min().cloned().unwrap_or(Value::Null),
                AggFun::Max => args.max().cloned().unwrap_or(Value::Null),
            });
        }
        if spec.having.iter().all(|(c, op, v)| op.eval(&full[*c], v)) {
            out.push(spec.select.iter().map(|(_, c)| full[*c].clone()).collect());
        }
    }
    out
}

/// Multiset equality up to the rounding of sums folded in another order.
pub fn assert_same_rows(got: &[Vec<Value>], want: &[Vec<Value>], what: &str) {
    let (got, want) = (sorted(got.to_vec()), sorted(want.to_vec()));
    assert_eq!(got.len(), want.len(), "{what}: {got:?} vs {want:?}");
    for (g, w) in got.iter().zip(&want) {
        let close = g.len() == w.len()
            && g.iter().zip(w).all(|(a, b)| match (a, b) {
                (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9 * y.abs().max(1.0),
                _ => a == b,
            });
        assert!(close, "{what}: row {g:?} vs {w:?}");
    }
}
