//! Fixtures the integration suites share. Every suite is its own crate and
//! uses a subset, hence the blanket `dead_code` allowance.
#![allow(dead_code)]

use estocada::{Estocada, FaultKind, FaultPlan, Latencies, QueryResult, RetryPolicy};
use estocada_pivot::{CqBuilder, Value};
use estocada_workloads::marketplace::{Marketplace, MarketplaceConfig};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join,
};
use proptest::prelude::*;
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
        pivot_query: r.report.pivot_query.clone(),
        universal_plan: r.report.universal_plan.clone(),
        alternatives: r
            .report
            .alternatives
            .iter()
            .map(|a| (a.rewriting.clone(), a.est_cost, a.note.clone()))
            .collect(),
        chosen: r.report.chosen,
        plan: r.report.plan.clone(),
        delegated: r.report.delegated.clone(),
        complete: r.report.complete_search,
        resilient: r.report.resilience.is_some(),
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
