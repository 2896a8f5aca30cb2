//! E10 — fault tolerance (PR 6): the cost of the resilience layer and the
//! price of surviving an outage, on the kv-migrated marketplace deployment.
//!
//! - **fault-free overhead**: the retry wrapper + breaker admission are
//!   always on; arming a fault plan whose windows never fire additionally
//!   consults the fault gate before every delegated request. The gate
//!   asserts the armed-but-quiescent arm is ≤ 2% over the disarmed arm.
//! - **recovery latency**: a transient key-value outage (first two GETs
//!   fail) absorbed by the retry loop — the extra latency over the
//!   fault-free run is the price of recovery without failover.
//! - **failover vs fail-fast**: under a full key-value outage, the default
//!   retry policy burns its attempts before failing over, while
//!   `RetryPolicy::fail_fast` jumps to the surviving relational rewriting
//!   immediately; once the breaker is open, subsequent queries are steered
//!   at plan time and pay neither.
//!
//! **Identity is asserted inside every measurement**: every timed run
//! compares its sorted rows against the fault-free reference, so a fault
//! that silently truncates or skews an answer fails the bench instead of
//! its numbers.

use estocada::{Estocada, FaultKind, FaultPlan, Latencies, RetryPolicy};
use estocada_bench::measure;
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, Marketplace, MarketplaceConfig};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use std::time::{Duration, Instant};

enum Q {
    Sql(String),
    Doc(i64),
}

fn workload() -> Vec<Q> {
    let mut out = Vec::new();
    for uid in [1i64, 3, 7, 9] {
        out.push(Q::Sql(pref_sql(uid)));
        out.push(Q::Doc(uid));
        out.push(Q::Sql(user_orders_sql(uid)));
    }
    out.push(Q::Sql(personalized_sql(1, "laptop")));
    out
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(5),
        max_backoff: Duration::from_micros(20),
        jitter: true,
    }
}

fn engine(m: &Marketplace, policy: RetryPolicy, plan: Option<FaultPlan>) -> Estocada {
    let mut est = deploy_kv_migrated(m, Latencies::zero());
    let opts = est.default_query_options().with_retry_policy(policy);
    est.set_default_query_options(opts);
    est.set_fault_plan(plan);
    est
}

/// A fault plan that is armed (the gate is consulted on every delegated request)
/// but whose rules never inject: the pure cost of consulting the layer.
fn quiescent_plan() -> FaultPlan {
    let (never, kind) = (1 << 40, FaultKind::Unavailable);
    FaultPlan::new(11)
        .random_errors("key-value", 0.0, FaultKind::Timeout)
        .fail_ops("relational", "sql", never, never + 1, kind)
        .random_errors("document", 0.0, FaultKind::PartialResponse)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

fn run_q(est: &Estocada, q: &Q) -> Vec<Vec<Value>> {
    let r = match q {
        Q::Sql(sql) => est.query_sql(sql),
        Q::Doc(uid) => est.query_doc(&cart_pattern(*uid), &["pid", "qty"]),
    };
    sorted(r.expect("bench query").rows)
}

/// One pass over the workload, every answer compared with the reference.
fn run_checked(est: &Estocada, work: &[Q], reference: &[Vec<Vec<Value>>]) -> Duration {
    let t0 = Instant::now();
    for (i, q) in work.iter().enumerate() {
        assert_eq!(run_q(est, q), reference[i], "row skew at query {i}");
    }
    t0.elapsed()
}

fn main() {
    let m = generate(MarketplaceConfig {
        users: 60,
        products: 30,
        orders: 200,
        log_entries: 400,
        skew: 0.8,
        seed: 31,
    });
    let work = workload();
    let disarmed = engine(&m, fast_retry(), None);
    let reference: Vec<_> = work.iter().map(|q| run_q(&disarmed, q)).collect();
    println!("== E10 ({} queries, kv-migrated deployment) ==", work.len());

    // --- fault-free overhead gate -----------------------------------
    // The true per-operation cost is ~tens of ns (one atomic bump + a
    // precomputed-rule scan), far below host noise on a ms-scale workload:
    // a sample is the fastest of sixteen passes, a session measures both
    // arms back to back, alternating which goes first, and a >2% verdict
    // takes five sessions over budget, not one scheduler hiccup.
    let armed = engine(&m, fast_retry(), Some(quiescent_plan()));
    let arm = |name: &str, est: &Estocada| {
        measure(&format!("e10_fault_tolerance/fault_free_{name}"), 9, || {
            let pass = || run_checked(est, &work, &reference);
            (0..16).map(|_| pass()).min().expect("sixteen passes")
        })
    };
    let (mut t_off, mut t_arm, mut overhead_pct) = (Duration::ZERO, Duration::ZERO, f64::MAX);
    for session in 0..5 {
        if overhead_pct <= 2.0 {
            break;
        }
        if session % 2 == 0 {
            t_off = arm("disarmed", &disarmed);
            t_arm = arm("armed", &armed);
        } else {
            t_arm = arm("armed", &armed);
            t_off = arm("disarmed", &disarmed);
        }
        overhead_pct = (t_arm.as_secs_f64() / t_off.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    }
    println!(
        "fault-free: disarmed {t_off:?}, armed-quiescent {t_arm:?} ({overhead_pct:+.2}% overhead)"
    );
    assert!(
        overhead_pct <= 2.0,
        "quiescent fault layer overhead {overhead_pct:.2}% exceeds the 2% budget"
    );

    // --- one preference lookup on a fresh engine --------------------
    // `want` is the `(retries, failed over)` the report must carry.
    let probe = pref_sql(3);
    let time_probe = |id: &str, policy: RetryPolicy, plan: Option<FaultPlan>, want| {
        measure(&format!("e10_fault_tolerance/{id}"), 3, || {
            let est = engine(&m, policy, plan.clone());
            let t0 = Instant::now();
            let r = est.query_sql(&probe).expect("the probe must be answered");
            let dt = t0.elapsed();
            assert_eq!(sorted(r.rows), reference[3], "{id}: row skew");
            let res = r.report.resilience;
            let got = res.map(|res| (res.retries, res.failed_over()));
            assert_eq!(got, want, "{id}: resilience events");
            dt
        })
    };
    let t_clean = time_probe("probe_clean", fast_retry(), None, None);
    // Recovery: the first two GETs time out, two retries absorb them.
    let transient = FaultPlan::new(9).fail_ops("key-value", "get", 1, 2, FaultKind::Timeout);
    let t_recover = time_probe(
        "probe_recovered",
        fast_retry(),
        Some(transient),
        Some((2, false)),
    );
    println!(
        "recovery: clean {t_clean:?}, 2-retry recovery {t_recover:?} (+{:?} recovery latency)",
        t_recover.saturating_sub(t_clean)
    );
    // Failover vs fail-fast under a full key-value outage.
    let outage = FaultPlan::new(7).down("key-value", FaultKind::Unavailable);
    let t_failover = time_probe(
        "probe_failover",
        fast_retry(),
        Some(outage.clone()),
        Some((2, true)),
    );
    let t_fail_fast = time_probe(
        "probe_fail_fast",
        RetryPolicy::fail_fast(),
        Some(outage.clone()),
        Some((0, true)),
    );
    println!(
        "kv outage: failover after retries {t_failover:?}, fail-fast failover {t_fail_fast:?}, \
         clean reference {t_clean:?}"
    );

    // Steered steady state: trip the breaker once, then every later query
    // avoids the dead store at plan time (no retries, no errors).
    let steered = engine(&m, fast_retry(), Some(outage));
    steered
        .query_sql(&probe)
        .expect("trips the key-value breaker");
    let t_steered = measure("e10_fault_tolerance/outage_steered", 10, || {
        run_checked(&steered, &work, &reference)
    });
    // Degraded mode: 30% of key-value GETs time out; retries absorb most,
    // failover covers the rest — answers stay oracle-identical.
    let flaky = FaultPlan::new(13).random_errors("key-value", 0.3, FaultKind::Timeout);
    let degraded = engine(&m, fast_retry(), Some(flaky));
    let t_degraded = measure("e10_fault_tolerance/degraded_kv_p30", 10, || {
        run_checked(&degraded, &work, &reference)
    });
    println!(
        "workload: disarmed {t_off:?}, steered (breaker open) {t_steered:?}, \
         30% key-value timeouts {t_degraded:?}"
    );
}
