//! E10 — fault tolerance (PR 6): the cost of the resilience layer and the
//! price of surviving an outage.
//!
//! Three questions are measured on the kv-migrated marketplace deployment:
//!
//! - **fault-free overhead**: the retry wrapper + breaker admission are
//!   always on; arming a fault plan whose windows never fire additionally
//!   consults the fault gate before every delegated request. Both arms
//!   must stay within noise of each other — the single-shot gate asserts
//!   the armed-but-quiescent arm is ≤ 2% over the disarmed arm.
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
//! compares its rows against the fault-free reference (sorted where a
//! different plan may legitimately reorder), so a fault that silently
//! truncates or skews an answer fails the bench instead of its numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estocada::{Estocada, FaultKind, FaultPlan, Latencies, RetryPolicy};
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, Marketplace, MarketplaceConfig};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use std::time::{Duration, Instant};

#[derive(Clone)]
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

fn market() -> Marketplace {
    generate(MarketplaceConfig {
        users: 60,
        products: 30,
        orders: 200,
        log_entries: 400,
        skew: 0.8,
        seed: 31,
    })
}

fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_micros(5),
        max_backoff: Duration::from_micros(20),
        jitter: true,
    }
}

fn engine(m: &Marketplace) -> Estocada {
    let mut est = deploy_kv_migrated(m, Latencies::zero());
    let opts = est.default_query_options().with_retry_policy(fast_retry());
    est.set_default_query_options(opts);
    est
}

/// A fault plan that is armed (the gate is consulted on every delegated request)
/// but whose rules never inject: the pure cost of consulting the layer.
fn quiescent_plan() -> FaultPlan {
    FaultPlan::new(11)
        .random_errors("key-value", 0.0, FaultKind::Timeout)
        .fail_ops(
            "relational",
            "sql",
            1 << 40,
            (1 << 40) + 1,
            FaultKind::Unavailable,
        )
        .random_errors("document", 0.0, FaultKind::PartialResponse)
}

fn run_q(est: &Estocada, q: &Q) -> Vec<Vec<Value>> {
    match q {
        Q::Sql(sql) => est.query_sql(sql).expect("bench query").rows,
        Q::Doc(uid) => {
            est.query_doc(&cart_pattern(*uid), &["pid", "qty"])
                .expect("bench doc query")
                .rows
        }
    }
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

/// Run the workload and assert per-query identity against the reference.
/// `exact` compares row order too (same plan expected); otherwise rows are
/// compared as sets (a failover plan may reorder).
fn run_checked(est: &Estocada, work: &[Q], reference: &[Vec<Vec<Value>>], exact: bool) -> Duration {
    let t0 = Instant::now();
    for (i, q) in work.iter().enumerate() {
        let got = run_q(est, q);
        if exact {
            assert_eq!(got, reference[i], "row skew at query {i}");
        } else {
            assert_eq!(
                sorted(got),
                sorted(reference[i].clone()),
                "row-set skew at query {i}"
            );
        }
    }
    t0.elapsed()
}

fn best_of<F: FnMut() -> Duration>(n: usize, mut f: F) -> Duration {
    (0..n).map(|_| f()).min().unwrap()
}

fn bench(c: &mut Criterion) {
    let m = market();
    let work = workload();
    let reference: Vec<Vec<Vec<Value>>> = {
        let est = engine(&m);
        work.iter().map(|q| run_q(&est, q)).collect()
    };

    println!(
        "== E10 summary ({} queries, kv-migrated deployment) ==",
        work.len()
    );

    // --- fault-free overhead gate -----------------------------------
    // The true per-operation cost is ~tens of ns (one atomic bump + a
    // precomputed-rule scan), far below host noise on a ms-scale workload.
    // Each session interleaves the arms in alternating order and keeps the
    // minimum burst per arm; the gate takes the best of several sessions,
    // so a >2% verdict requires the overhead to show up consistently, not
    // one scheduler hiccup.
    let disarmed = engine(&m);
    let mut armed = engine(&m);
    armed.set_fault_plan(Some(quiescent_plan()));
    let burst = |est: &Estocada| {
        let t0 = Instant::now();
        for _ in 0..4 {
            run_checked(est, &work, &reference, true);
        }
        t0.elapsed()
    };
    burst(&disarmed);
    burst(&armed);
    let session = || {
        let (mut t_off, mut t_arm) = (Duration::MAX, Duration::MAX);
        for round in 0..10 {
            if round % 2 == 0 {
                t_off = t_off.min(burst(&disarmed));
                t_arm = t_arm.min(burst(&armed));
            } else {
                t_arm = t_arm.min(burst(&armed));
                t_off = t_off.min(burst(&disarmed));
            }
        }
        let pct = (t_arm.as_secs_f64() / t_off.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        (t_off, t_arm, pct)
    };
    let (mut t_off, mut t_arm, mut overhead_pct) = session();
    for _ in 0..4 {
        if overhead_pct <= 2.0 {
            break;
        }
        let s = session();
        if s.2 < overhead_pct {
            (t_off, t_arm, overhead_pct) = s;
        }
    }
    println!(
        "fault-free: disarmed {t_off:?}, armed-quiescent {t_arm:?} ({overhead_pct:+.2}% overhead)"
    );
    assert!(
        overhead_pct <= 2.0,
        "quiescent fault layer overhead {overhead_pct:.2}% exceeds the 2% budget"
    );

    // --- recovery latency (transient outage, retries absorb it) -----
    let probe = Q::Sql(pref_sql(3));
    let t_clean = best_of(3, || {
        let est = engine(&m);
        let t0 = Instant::now();
        let rows = run_q(&est, &probe);
        let dt = t0.elapsed();
        assert_eq!(rows, reference[3], "clean probe skew");
        dt
    });
    let t_recover = best_of(3, || {
        let mut est = engine(&m);
        est.set_fault_plan(Some(FaultPlan::new(9).fail_ops(
            "key-value",
            "get",
            1,
            2,
            FaultKind::Timeout,
        )));
        let t0 = Instant::now();
        let r = match &probe {
            Q::Sql(sql) => est.query_sql(sql).expect("retries must recover"),
            Q::Doc(_) => unreachable!(),
        };
        let dt = t0.elapsed();
        assert_eq!(r.rows, reference[3], "recovered rows skew");
        let res = r.report.resilience.expect("events reported");
        assert_eq!(res.retries, 2, "two retries absorb the two-op window");
        assert!(!res.failed_over());
        dt
    });
    println!(
        "recovery: clean {t_clean:?}, 2-retry recovery {t_recover:?} (+{:?} recovery latency)",
        t_recover.saturating_sub(t_clean)
    );

    // --- failover vs fail-fast under a full kv outage ---------------
    let outage = FaultPlan::new(7).down("key-value", FaultKind::Unavailable);
    let run_outage = |policy: RetryPolicy| {
        best_of(3, || {
            let mut est = deploy_kv_migrated(&m, Latencies::zero());
            let opts = est.default_query_options().with_retry_policy(policy);
            est.set_default_query_options(opts);
            est.set_fault_plan(Some(outage.clone()));
            let t0 = Instant::now();
            let r = match &probe {
                Q::Sql(sql) => est.query_sql(sql).expect("failover must answer"),
                Q::Doc(_) => unreachable!(),
            };
            let dt = t0.elapsed();
            assert_eq!(
                sorted(r.rows),
                sorted(reference[3].clone()),
                "failover skew"
            );
            assert!(r.report.resilience.expect("chain recorded").failed_over());
            dt
        })
    };
    let t_failover = run_outage(fast_retry());
    let t_fail_fast = run_outage(RetryPolicy::fail_fast());
    println!(
        "kv outage: failover after retries {t_failover:?}, fail-fast failover {t_fail_fast:?}, \
         clean reference {t_clean:?}"
    );

    // Steered steady state: trip the breaker once, then every later query
    // avoids the dead store at plan time (no retries, no errors).
    let mut steered = engine(&m);
    steered.set_fault_plan(Some(outage.clone()));
    let _ = run_q(&steered, &probe); // trips the key-value breaker
    let t_steered = best_of(5, || run_checked(&steered, &work, &reference, false));
    println!(
        "steered (breaker open): workload {t_steered:?} vs disarmed {:?}",
        t_off / 4
    );
    println!("(identity vs the fault-free reference asserted in every run above)");

    // --- criterion arms ---------------------------------------------
    let mut group = c.benchmark_group("e10_fault_tolerance");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_with_input(
        BenchmarkId::new("fault_free_disarmed", work.len()),
        &(),
        |b, _| b.iter(|| run_checked(&disarmed, &work, &reference, true)),
    );
    group.bench_with_input(
        BenchmarkId::new("fault_free_armed", work.len()),
        &(),
        |b, _| b.iter(|| run_checked(&armed, &work, &reference, true)),
    );
    // Degraded mode: 30% of key-value GETs time out; retries absorb most,
    // failover covers the rest — answers stay oracle-identical.
    let mut degraded = engine(&m);
    degraded.set_fault_plan(Some(FaultPlan::new(13).random_errors(
        "key-value",
        0.3,
        FaultKind::Timeout,
    )));
    group.bench_with_input(
        BenchmarkId::new("degraded_kv_p30", work.len()),
        &(),
        |b, _| b.iter(|| run_checked(&degraded, &work, &reference, false)),
    );
    group.bench_with_input(
        BenchmarkId::new("outage_steered", work.len()),
        &(),
        |b, _| b.iter(|| run_checked(&steered, &work, &reference, false)),
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
