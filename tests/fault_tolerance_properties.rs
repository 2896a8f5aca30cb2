//! Differential suite for the fault-injected store layer: retry/backoff,
//! breaker-steered plan choice, and rewriting-based plan failover.
//!
//! The contract under test:
//!
//! - **Fault plan off ⇒ bit-identical.** With no (or an empty) fault plan
//!   installed, every scenario query returns exactly what an untouched
//!   engine returns — same rows, same report fields, and
//!   `Report::resilience` stays `None`.
//! - **Same seed + same plan ⇒ same outcome.** Fault injection decisions
//!   hash the plan seed with per-operation indices, so two identical
//!   engines under the same `FaultPlan` agree on rows *and* on the full
//!   resilience trace (retries, errors, failover chain).
//! - **Never silently wrong.** Under any fault schedule a query either
//!   returns rows identical to the fault-free oracle or a typed error
//!   ([`Error::AllPlansFailed`]) — never a short or empty result.
//!
//! Report comparison is on the semantic fields (the `Norm` projection, as
//! in `concurrent_queries.rs`); wall-clock timings are diagnostics and
//! excluded.

mod common;

use common::{
    arb_plan, build_plan, fast_retry, norm, run_q, sorted, with_fast_retry, Norm, DEPLOYMENTS, Q,
};
use estocada::{
    Error, Estocada, FaultKind, FaultPlan, FragmentSpec, Latencies, QueryOptions, RetryPolicy,
    SystemId,
};
use estocada_pivot::CqBuilder;
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::readwrite::{run_rw_workload, rw_workload, stale_fragments, RwConfig};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql, pref_sql,
    user_orders_sql,
};
use proptest::prelude::*;
use std::time::Duration;

fn market() -> Marketplace {
    generate(common::cfg(40, 24, 150, 240, 31))
}

/// The scenario queries: SQL point lookups (relational / key-value),
/// the document cart pattern, and the personalized join.
fn workload() -> Vec<Q> {
    let mut out = Vec::new();
    for uid in [1i64, 3, 7, 9] {
        out.push(Q::Sql(pref_sql(uid)));
        out.push(Q::Doc(uid));
        out.push(Q::Sql(user_orders_sql(uid)));
    }
    out.push(Q::Sql(personalized_sql(1, "laptop")));
    out.push(Q::Sql(personalized_sql(2, "mouse")));
    out
}

// ---------------------------------------------------------------------
// Fault plan off ⇒ bit-identical.
// ---------------------------------------------------------------------

#[test]
fn fault_plan_off_is_bit_identical_across_deployments() {
    let m = market();
    let work = workload();
    for (name, deploy) in DEPLOYMENTS {
        let reference = deploy(&m, Latencies::zero());
        // Install an empty plan, and install-then-clear a real one: both
        // must leave the engine on the bit-identical clean path.
        let mut empty_plan = deploy(&m, Latencies::zero());
        empty_plan.set_fault_plan(Some(FaultPlan::new(1)));
        let mut cleared = deploy(&m, Latencies::zero());
        cleared.set_fault_plan(Some(
            FaultPlan::new(2).down("key-value", FaultKind::Unavailable),
        ));
        cleared.set_fault_plan(None);
        for q in &work {
            let a = norm(&run_q(&reference, q).expect("reference query"));
            assert!(!a.resilient, "{name}: clean run must report no events");
            let b = norm(&run_q(&empty_plan, q).expect("empty-plan query"));
            let c = norm(&run_q(&cleared, q).expect("cleared-plan query"));
            assert_eq!(a, b, "{name}: empty fault plan changed {q:?}");
            assert_eq!(a, c, "{name}: cleared fault plan changed {q:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Same seed + same plan ⇒ same outcome, twice.
// ---------------------------------------------------------------------

/// The full observable outcome under faults: rows + resilience trace, or
/// the rendered typed error.
fn outcome(est: &Estocada, q: &Q) -> Result<(Norm, String), String> {
    match run_q(est, q) {
        Ok(r) => {
            let trace = r
                .report
                .resilience
                .as_ref()
                .map(|res| {
                    format!(
                        "attempts={:?} retries={} errors={:?} breakers={:?}",
                        res.attempts
                            .iter()
                            .map(|a| (a.alternative, a.error.clone()))
                            .collect::<Vec<_>>(),
                        res.retries,
                        res.store_errors,
                        res.breaker_transitions,
                    )
                })
                .unwrap_or_default();
            Ok((norm(&r), trace))
        }
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn same_seed_and_plan_reproduce_the_same_outcome() {
    let m = market();
    let plan = FaultPlan::new(42)
        .fail_ops("key-value", "get", 1, 2, FaultKind::Timeout)
        .random_errors("relational", 0.3, FaultKind::Unavailable)
        .latency_spike("document", None, 1, 3, Duration::from_micros(50))
        .outage("text", 2, 4, FaultKind::PartialResponse);
    let work = workload();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
        est.set_fault_plan(Some(plan.clone()));
        runs.push(work.iter().map(|q| outcome(&est, q)).collect::<Vec<_>>());
    }
    assert_eq!(runs[0], runs[1], "same seed + same plan must reproduce");
    // A different seed must be allowed to differ — the probabilistic rule
    // reshuffles which relational ops fail (sanity that the seed is used;
    // outcomes may still coincide on rows, so compare traces).
    let mut reseeded = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    let mut p2 = plan.clone();
    p2.seed = 43;
    reseeded.set_fault_plan(Some(p2));
    let other: Vec<_> = work.iter().map(|q| outcome(&reseeded, q)).collect();
    assert_ne!(runs[0], other, "reseeding should perturb the fault trace");
}

// ---------------------------------------------------------------------
// Retry recovery: transient faults are invisible in the rows.
// ---------------------------------------------------------------------

#[test]
fn transient_kv_outage_recovers_within_retries() {
    let m = market();
    let oracle = deploy_kv_migrated(&m, Latencies::zero());
    let sql = pref_sql(3);
    let want = oracle.query_sql(&sql).expect("fault-free oracle");
    assert!(
        want.report.delegated[0].starts_with("key-value:"),
        "precondition: prefs are served by the key-value fragment"
    );

    // The first two GETs fail, the third succeeds: the retry loop must
    // absorb the outage without failing over.
    let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    est.set_fault_plan(Some(FaultPlan::new(9).fail_ops(
        "key-value",
        "get",
        1,
        2,
        FaultKind::Timeout,
    )));
    let got = est.query_sql(&sql).expect("retries must recover");
    assert_eq!(got.rows, want.rows, "recovered rows must match the oracle");
    assert_eq!(got.columns, want.columns);
    let r = got.report.resilience.expect("events must be reported");
    assert_eq!(r.retries, 2, "two re-issues absorb a two-op outage");
    assert_eq!(r.attempts.len(), 1, "no failover needed");
    assert_eq!(r.store_errors.len(), 2);
    assert!(!r.failed_over());
    assert!(
        got.report.delegated[0].starts_with("key-value:"),
        "the original plan survived"
    );
}

// ---------------------------------------------------------------------
// Plan failover: a dead store's work moves to an equivalent rewriting.
// ---------------------------------------------------------------------

#[test]
fn kv_outage_fails_over_to_the_relational_rewriting() {
    let m = market();
    let oracle = deploy_kv_migrated(&m, Latencies::zero());
    let sql = pref_sql(7);
    let want = oracle.query_sql(&sql).expect("fault-free oracle");
    assert!(want.report.delegated[0].starts_with("key-value:"));

    let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    est.set_fault_plan(Some(
        FaultPlan::new(5).down("key-value", FaultKind::Unavailable),
    ));
    let got = est.query_sql(&sql).expect("failover must answer the query");
    assert_eq!(
        sorted(got.rows.clone()),
        sorted(want.rows.clone()),
        "failover rows must match the fault-free oracle"
    );
    assert!(
        got.report.delegated[0].starts_with("relational:"),
        "the surviving plan must avoid the dead store: {:?}",
        got.report.delegated
    );
    let r = got.report.resilience.expect("chain must be recorded");
    assert!(r.failed_over(), "failover must be visible");
    assert_eq!(r.attempts.len(), 2);
    assert!(r.attempts[0].error.is_some(), "first attempt failed");
    assert!(r.attempts[1].error.is_none(), "second attempt succeeded");
    assert!(r.retries > 0, "the outage burned the retry budget first");

    // max_attempts == trip_after == 3: the outage also tripped the
    // breaker, so the *next* query avoids the key-value store at plan
    // time — no faults encountered, resilience stays None.
    let kv_health = est
        .backend_health()
        .into_iter()
        .find(|(sys, _)| *sys == estocada::SystemId::KeyValue)
        .unwrap()
        .1;
    assert_eq!(kv_health.state, estocada::BreakerState::Open);
    assert_eq!(kv_health.trips, 1);
    let steered = est.query_sql(&pref_sql(9)).expect("steered query");
    assert!(
        steered.report.delegated[0].starts_with("relational:"),
        "open breaker must steer plan choice: {:?}",
        steered.report.delegated
    );
    assert!(
        steered.report.resilience.is_none(),
        "breaker-steered plan touches no faulty store"
    );

    // Clearing the plan and resetting health restores the original choice.
    est.set_fault_plan(None);
    est.reset_backend_health();
    let back = est.query_sql(&sql).expect("recovered query");
    assert!(back.report.delegated[0].starts_with("key-value:"));
    assert_eq!(sorted(back.rows), sorted(want.rows));
}

#[test]
fn fail_fast_policy_fails_over_where_default_would_retry() {
    let m = market();
    let oracle = deploy_kv_migrated(&m, Latencies::zero());
    let sql = pref_sql(3);
    let want = oracle.query_sql(&sql).unwrap();

    // Same transient two-op window as the retry test, but a fail-fast
    // per-call policy: the only way to the rows is another rewriting.
    let mut est = deploy_kv_migrated(&m, Latencies::zero());
    est.set_fault_plan(Some(FaultPlan::new(9).fail_ops(
        "key-value",
        "get",
        1,
        2,
        FaultKind::Timeout,
    )));
    let got = est
        .query(&sql)
        .with_retry_policy(RetryPolicy::fail_fast())
        .run()
        .expect("failover must cover for fail-fast");
    assert_eq!(sorted(got.rows), sorted(want.rows.clone()));
    let r = got.report.resilience.expect("chain recorded");
    assert!(r.failed_over());
    assert_eq!(r.retries, 0, "fail-fast must not retry");
    assert!(got.report.delegated[0].starts_with("relational:"));
}

// ---------------------------------------------------------------------
// Typed failure: no plan left ⇒ AllPlansFailed, never empty rows.
// ---------------------------------------------------------------------

#[test]
fn store_failure_is_typed_never_an_empty_result() {
    let m = market();
    // Orders live only in the relational store on the baseline deployment:
    // with it down there is no surviving rewriting.
    let mut est = with_fast_retry(deploy_baseline(&m, Latencies::zero()));
    est.set_fault_plan(Some(
        FaultPlan::new(3).down("relational", FaultKind::Unavailable),
    ));
    match est.query_sql(&user_orders_sql(3)) {
        Ok(r) => panic!(
            "a dead store must not decay to {} rows (regression: \
             connector unwrap_or_default)",
            r.rows.len()
        ),
        Err(Error::AllPlansFailed { attempts, .. }) => {
            assert!(!attempts.is_empty());
            for a in &attempts {
                assert!(
                    a.error.contains("relational"),
                    "attempt must name the failing store: {}",
                    a.error
                );
            }
        }
        Err(e) => panic!("expected AllPlansFailed, got: {e}"),
    }
}

#[test]
fn partial_response_is_detected_not_truncated() {
    let m = market();
    let oracle = deploy_baseline(&m, Latencies::zero());
    let (q, _cart) = (1..=40)
        .map(Q::Doc)
        .map(|q| {
            let r = run_q(&oracle, &q).expect("fault-free oracle");
            (q, r)
        })
        .find(|(_, r)| !r.rows.is_empty())
        .expect("some user must have a cart");

    // Carts live only in the document store on the baseline deployment.
    let mut est = with_fast_retry(deploy_baseline(&m, Latencies::zero()));
    est.set_fault_plan(Some(
        FaultPlan::new(4).down("document", FaultKind::PartialResponse),
    ));
    match run_q(&est, &q) {
        Ok(r) => panic!(
            "a truncated response must surface as an error, got {} rows",
            r.rows.len()
        ),
        Err(Error::AllPlansFailed { attempts, .. }) => {
            assert!(attempts.iter().all(|a| a.error.contains("document")));
        }
        Err(e) => panic!("expected AllPlansFailed, got: {e}"),
    }
}

#[test]
fn deadline_bounds_retries_and_failover() {
    let m = market();
    let mut est = deploy_kv_migrated(&m, Latencies::zero());
    est.set_fault_plan(Some(
        FaultPlan::new(6).down("key-value", FaultKind::Timeout),
    ));
    // An already-expired deadline: one attempt, no retries, no failover —
    // the error is still typed and names the attempted plan.
    let err = est
        .query(&pref_sql(3))
        .with_retry_policy(RetryPolicy {
            max_attempts: 1_000,
            ..fast_retry()
        })
        .with_deadline(Duration::ZERO)
        .run()
        .expect_err("dead store + expired deadline must fail");
    match err {
        Error::AllPlansFailed { attempts, .. } => {
            assert_eq!(attempts.len(), 1, "expired deadline stops failover");
        }
        e => panic!("expected AllPlansFailed, got: {e}"),
    }
}

// ---------------------------------------------------------------------
// Property: under any schedule — oracle rows or a typed error.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under an arbitrary fault schedule every query either returns the
    /// fault-free oracle's rows or a typed `AllPlansFailed` — never a
    /// silently short, empty, or different answer.
    #[test]
    fn any_schedule_yields_oracle_rows_or_a_typed_error(seeded_rules in arb_plan(4)) {
        let (seed, rules) = seeded_rules;
        let m = market();
        let oracle = deploy_kv_migrated(&m, Latencies::zero());
        let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
        est.set_fault_plan(Some(build_plan(seed, &rules)));
        for q in [Q::Sql(pref_sql(3)), Q::Doc(1), Q::Sql(user_orders_sql(7))] {
            let want = run_q(&oracle, &q).expect("oracle").rows;
            match run_q(&est, &q) {
                Ok(r) => prop_assert_eq!(
                    sorted(r.rows),
                    sorted(want),
                    "rows diverged under {:?} (seed {})",
                    rules.clone(),
                    seed
                ),
                Err(Error::AllPlansFailed { attempts, .. }) => {
                    prop_assert!(!attempts.is_empty());
                }
                Err(e) => prop_assert!(false, "untyped failure: {}", e),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Options plumbing.
// ---------------------------------------------------------------------

#[test]
fn retry_and_deadline_options_resolve_like_other_options() {
    let opts = QueryOptions::default()
        .with_retry_policy(RetryPolicy::fail_fast())
        .with_deadline(Duration::from_millis(5));
    assert_eq!(opts.retry.unwrap().max_attempts, 1);
    assert_eq!(opts.deadline, Some(Duration::from_millis(5)));
    // Engine defaults pick them up too.
    let mut est = Estocada::in_memory();
    est.set_default_query_options(opts);
    assert_eq!(
        est.default_query_options().retry,
        Some(RetryPolicy::fail_fast())
    );
}

// ---------------------------------------------------------------------
// Split-batch retry: a failed wide probe re-fetches only the failed part.
// ---------------------------------------------------------------------

/// WebLog lives only in the parallel store, so with the relational store
/// down this join can only run as a parallel scan feeding a BindJoin that
/// MGETs the `PrefsKV` fragment — a wide key batch in one store call.
const WEBLOG_PREFS_SQL: &str = "SELECT l.uid, p.theme FROM WebLog l, Prefs p \
     WHERE l.uid = p.uid AND l.category = 'laptop'";

#[test]
fn failed_batch_probe_splits_instead_of_refetching_everything() {
    let m = market();
    let oracle = deploy_kv_migrated(&m, Latencies::zero());
    let want = oracle.query_sql(WEBLOG_PREFS_SQL).expect("oracle");
    assert!(want.rows.len() > 1, "precondition: a wide probe batch");

    let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    est.set_fault_plan(Some(
        FaultPlan::new(5)
            .down("relational", FaultKind::Unavailable)
            .fail_ops("key-value", "mget", 1, 1, FaultKind::Timeout),
    ));
    let before = est.stores.kv.metrics.snapshot();
    let got = est
        .query_sql(WEBLOG_PREFS_SQL)
        .expect("split retry recovers");
    let delta = est.stores.kv.metrics.snapshot().since(&before);
    assert_eq!(sorted(got.rows), sorted(want.rows.clone()));
    assert!(
        got.report
            .delegated
            .iter()
            .any(|d| d.starts_with("key-value:")),
        "the surviving plan must probe the key-value store: {:?}",
        got.report.delegated
    );
    // The failed full-batch MGET did no store work; the retry split the
    // batch in half and fetched each half exactly once. An all-or-nothing
    // retry would re-issue one full-width request instead of two halves.
    assert_eq!(
        delta.requests, 2,
        "split retry must issue exactly the two half-batches"
    );
    let r = got.report.resilience.expect("events recorded");
    assert!(r.retries > 0, "the failed batch burned a retry");

    // Fault-free control: the same plan shape pays exactly one MGET.
    let mut clean = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    clean.set_fault_plan(Some(
        FaultPlan::new(5).down("relational", FaultKind::Unavailable),
    ));
    let before = clean.stores.kv.metrics.snapshot();
    let control = clean.query_sql(WEBLOG_PREFS_SQL).expect("control");
    let delta = clean.stores.kv.metrics.snapshot().since(&before);
    assert_eq!(sorted(control.rows), sorted(want.rows));
    assert_eq!(delta.requests, 1, "a clean wide probe is one MGET");
}

// ---------------------------------------------------------------------
// Failover reuses the retained translations: no per-attempt re-translate.
// ---------------------------------------------------------------------

#[test]
fn failover_reuses_translations_instead_of_retranslating() {
    let m = market();
    let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
    est.set_fault_plan(Some(
        FaultPlan::new(5).down("key-value", FaultKind::Unavailable),
    ));
    let got = est.query_sql(&pref_sql(7)).expect("failover answers");
    let r = got.report.resilience.expect("chain recorded");
    assert!(r.failed_over(), "the kv outage must force a failover");
    // Planning translated each rewriting exactly once; the failover
    // attempt took a retained translation instead of re-running the
    // translator, so the counter equals the rewriting count even though
    // two plans were attempted.
    assert!(got.report.plan_cache.is_some_and(|pc| !pc.hit));
    assert_eq!(
        r.translations as usize,
        got.report.alternatives.len(),
        "failover must not add translation runs beyond one per rewriting"
    );
    assert!(r.attempts.len() > 1);
    // The same query again (breakers closed again) finds its rewriting
    // cached and keeps the plans it translates; from then on it is a
    // prepared hit, which fails over the same way and translates nothing.
    let rewritings = got.report.alternatives.len() as u64;
    for translations in [rewritings, 0, 0] {
        est.reset_backend_health();
        let again = est.query_sql(&pref_sql(7)).expect("failover answers");
        assert_eq!(again.rows, got.rows);
        assert!(again.report.plan_cache.is_some_and(|pc| pc.hit));
        assert_eq!(
            again.report.translate_time == Duration::ZERO,
            translations == 0
        );
        let r = again.report.resilience.expect("chain recorded");
        assert!(r.failed_over());
        assert_eq!(r.translations, translations);
    }
}

// ---------------------------------------------------------------------
// Property: fault schedules interleaved with writes — reads match the
// fault-free, fully-maintained oracle or fail typed; never silently stale.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DML bypasses fault hooks (writes are an admin-path contract), so
    /// under any fault schedule writes keep succeeding and maintaining
    /// fragments; every read afterwards either returns exactly what a
    /// fault-free twin (same writes applied) returns, or a typed error —
    /// a fault must never surface as a stale or short answer.
    #[test]
    fn writes_under_faults_never_yield_stale_reads(
        seeded_rules in arb_plan(4),
        wseed in any::<u64>(),
    ) {
        let (seed, rules) = seeded_rules;
        let m = market();
        let mut oracle = deploy_kv_migrated(&m, Latencies::zero());
        let mut est = with_fast_retry(deploy_kv_migrated(&m, Latencies::zero()));
        est.set_fault_plan(Some(build_plan(seed, &rules)));
        let schedule = rw_workload(&m, RwConfig {
            ops: 10,
            write_ratio: 1.0,
            seed: wseed,
        });
        for step in schedule.chunks(2) {
            run_rw_workload(&mut oracle, step).expect("oracle writes");
            // Writes on the faulted engine must also succeed and keep
            // every fragment at the data epoch.
            run_rw_workload(&mut est, step).expect("faulted writes");
            prop_assert!(stale_fragments(&est).is_empty());
            for q in [Q::Sql(pref_sql(1)), Q::Sql(user_orders_sql(3)), Q::Doc(1)] {
                let want = run_q(&oracle, &q).expect("oracle read").rows;
                match run_q(&est, &q) {
                    Ok(r) => prop_assert_eq!(
                        sorted(r.rows),
                        sorted(want),
                        "stale or wrong read under {:?} (seed {})",
                        rules.clone(),
                        seed
                    ),
                    Err(Error::AllPlansFailed { attempts, .. }) => {
                        prop_assert!(!attempts.is_empty());
                    }
                    Err(e) => prop_assert!(false, "untyped failure: {}", e),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// A native store error is an answer, not an outage.
// ---------------------------------------------------------------------

/// `Prefs` copied into the parallel store under `name`.
fn prefs_par(name: &str) -> FragmentSpec {
    FragmentSpec::ParRows {
        view: CqBuilder::new(name)
            .head_vars(["uid", "theme", "language", "newsletter"])
            .atom("Prefs", |a| {
                a.v("uid").v("theme").v("language").v("newsletter")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    }
}

#[test]
fn native_store_error_is_not_retried_and_leaves_the_breaker_closed() {
    let m = market();
    let mut oracle = deploy_baseline(&m, Latencies::zero());
    oracle.add_fragment(prefs_par("PrefsPar")).unwrap();
    let sql = pref_sql(3);
    let want = oracle.query_sql(&sql).expect("oracle");
    assert!(
        want.report.delegated[0].starts_with("relational:"),
        "precondition: the relational rewriting is the cheaper one"
    );

    let mut est = with_fast_retry(deploy_baseline(&m, Latencies::zero()));
    est.add_fragment(prefs_par("PrefsPar")).unwrap();
    // Drop the table behind the catalog's back: the delegated SQL now fails
    // natively ("unknown table") every time it is asked.
    assert!(est.stores.rel.drop_table("Prefs"));
    let rel_health = |est: &Estocada| {
        est.backend_health()
            .into_iter()
            .find(|(sys, _)| *sys == SystemId::Relational)
            .unwrap()
            .1
    };
    // More bad queries than `trip_after` outages would need to open the
    // breaker.
    for round in 0..5 {
        let before = est.stores.rel.metrics.snapshot();
        let got = est.query_sql(&sql).expect("failover must answer");
        let rel_calls = est.stores.rel.metrics.snapshot().since(&before).requests;
        assert_eq!(rel_calls, 1, "round {round}: the bad query is asked once");
        assert_eq!(sorted(got.rows), sorted(want.rows.clone()));
        assert!(got.report.delegated[0].starts_with("parallel:"));
        let r = got.report.resilience.expect("the error must be reported");
        assert_eq!(r.retries, 0, "a deterministic failure is not retried");
        assert!(r.failed_over());
        assert_eq!(r.store_errors.len(), 1);
        assert!(r.store_errors[0].contains("unknown table"), "{r:?}");
        assert!(r.breaker_transitions.is_empty());
        let h = rel_health(&est);
        assert_eq!(h.state, estocada::BreakerState::Closed);
        assert_eq!((h.failures, h.trips), (0, 0), "the store answered");
    }
    // The healthy backend keeps serving its other tables, unpenalised.
    let orders = est.query_sql(&user_orders_sql(3)).expect("orders");
    assert!(orders.report.delegated[0].starts_with("relational:"));
    assert!(orders.report.resilience.is_none());
}

/// The materialized-join deployment plus a row-document and a parallel
/// twin of two tables — every connector path is on some plan — failing fast.
fn every_path_deployment(m: &Marketplace) -> Estocada {
    let mut est = deploy_materialized_join(m, Latencies::zero());
    est.add_fragment(FragmentSpec::DocRows {
        view: CqBuilder::new("PrefsDocs")
            .head_vars(["uid", "theme", "language", "newsletter"])
            .atom("Prefs", |a| {
                a.v("uid").v("theme").v("language").v("newsletter")
            })
            .build(),
        index_on: vec![],
    })
    .unwrap();
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("OrdersPar")
            .head_vars(["oid", "uid", "pid", "category", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("category").v("amount")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    })
    .unwrap();
    let opts = est
        .default_query_options()
        .with_retry_policy(RetryPolicy::fail_fast());
    est.set_default_query_options(opts);
    est
}

/// The store errors of an outcome: the failover chain's of an answered
/// query, the attempts' of a typed failure.
fn store_errors(outcome: estocada::Result<estocada::QueryResult>) -> Vec<String> {
    match outcome {
        Ok(r) => r
            .report
            .resilience
            .map(|r| r.store_errors)
            .unwrap_or_default(),
        Err(Error::AllPlansFailed { attempts, .. }) => {
            attempts.into_iter().map(|a| a.error).collect()
        }
        Err(e) => panic!("untyped failure: {e}"),
    }
}

/// The parallel store's twin of the test above: a dataset dropped behind
/// the catalog's back used to read as *empty* (`Ok` with 0 rows — wrong
/// answers, silently); now it is a native error the query fails over from,
/// or a typed failure when no other rewriting exists.
#[test]
fn a_dropped_parallel_dataset_fails_over_or_fails_instead_of_answering_empty() {
    let m = market();
    let oracle = deploy_materialized_join(&m, Latencies::zero());
    // Some user with purchases and views in one category.
    let (sql, want) = (0..m.config.users as i64)
        .map(|uid| personalized_sql(uid, "laptop"))
        .map(|sql| (oracle.query_sql(&sql).expect("oracle"), sql))
        .find_map(|(r, sql)| (!r.rows.is_empty()).then_some((sql, r)))
        .expect("precondition: some user has laptop history");
    assert!(
        want.report.delegated[0].starts_with("parallel: LOOKUP UserHist"),
        "precondition: the materialized join is the chosen plan"
    );

    let est = with_fast_retry(deploy_materialized_join(&m, Latencies::zero()));
    assert!(est.stores.par.drop_dataset("UserHist"));
    let got = est.query_sql(&sql).expect("failover must answer");
    assert_eq!(sorted(got.rows), sorted(want.rows.clone()));
    assert_eq!(got.report.delegated.len(), 2, "Orders ⋈ WebLogPar answered");
    let r = got.report.resilience.expect("the error must be reported");
    assert!(r.failed_over());
    assert_eq!(r.retries, 0, "a deterministic failure is not retried");
    assert!(
        r.store_errors[0].contains("unknown dataset UserHist"),
        "{r:?}"
    );
    assert!(r.breaker_transitions.is_empty(), "the store answered");

    // With the web logs gone too, no rewriting is left: a typed error.
    assert!(est.stores.par.drop_dataset("WebLogPar"));
    match est.query_sql(&sql) {
        Err(Error::AllPlansFailed { attempts, .. }) => {
            assert_eq!(attempts.len(), 2);
            assert!(attempts[1].error.contains("unknown dataset WebLogPar"));
        }
        other => panic!("expected AllPlansFailed, got {other:?}"),
    }

    // The key-value, document and text stores answer a missing container
    // like an empty one, so their connector paths ask. Per path: (the
    // error, a query whose plans take it, stores taken down so that the
    // plan taking it is the one that runs, the drop).
    let has_cart = |q: &Q| !run_q(&oracle, q).expect("oracle").rows.is_empty();
    let cart = (1..=40).map(Q::Doc).find(has_cart).expect("some cart");
    type Drop = fn(&Estocada) -> bool;
    let drop_prefs_kv: Drop = |est| est.stores.kv.drop_namespace("PrefsKV");
    let cases: [(&str, Q, &[&str], Drop); 5] = [
        (
            "get failed: unknown namespace PrefsKV",
            Q::Sql(pref_sql(3)),
            &[],
            drop_prefs_kv,
        ),
        (
            "mget failed: unknown namespace PrefsKV",
            Q::Sql(WEBLOG_PREFS_SQL.into()),
            &["relational", "document"],
            drop_prefs_kv,
        ),
        (
            "find failed: unknown collection PrefsDocs",
            Q::Sql(pref_sql(3)),
            &["relational", "key-value"],
            |est| est.stores.doc.drop_collection("PrefsDocs"),
        ),
        (
            "query failed: unknown collection Carts",
            cart,
            &["key-value"],
            |est| est.stores.doc.drop_collection("Carts"),
        ),
        (
            "term_lookup failed: unknown index Products",
            Q::Sql(PRODUCT_SEARCH_SQL.into()),
            &[],
            |est| est.stores.text.drop_index("Products"),
        ),
    ];
    for (error, q, down, drop) in cases {
        let want = run_q(&every_path_deployment(&m), &q).expect("oracle").rows;
        assert!(
            !want.is_empty(),
            "{error}: precondition: a non-empty answer"
        );
        let mut est = every_path_deployment(&m);
        let outage = |plan: FaultPlan, store: &&str| plan.down(store, FaultKind::Timeout);
        est.set_fault_plan(Some(down.iter().fold(FaultPlan::new(1), outage)));
        // A key that is not there still reads as no rows, not as an error.
        let nobody = run_q(&est, &Q::Sql(pref_sql(-1))).expect("a missing key");
        assert!(nobody.rows.is_empty());
        assert!(drop(&est), "{error}: precondition: the container existed");
        let outcome = run_q(&est, &q);
        if let Ok(got) = &outcome {
            assert_eq!(sorted(got.rows.clone()), sorted(want), "{error}");
        }
        let errors = store_errors(outcome);
        assert!(
            errors.iter().any(|e| e.ends_with(error)),
            "{error}: {errors:?}"
        );
    }
}

// ---------------------------------------------------------------------
// The gate: every delegated request passes it exactly once, admin paths
// never do, and fault rules key on the connector's operation names.
// ---------------------------------------------------------------------

const PRODUCT_SEARCH_SQL: &str =
    "SELECT p.pid, p.title FROM Products p WHERE CONTAINS(p.title, 'wireless')";

/// Per store: (requests the gate has seen, requests the store has served).
fn gate_and_store_counts(est: &Estocada) -> Vec<(SystemId, u64, u64)> {
    est.stores
        .metrics()
        .into_iter()
        .map(|(sys, snap)| (sys, est.stores.gated_ops(sys), snap.requests))
        .collect()
}

#[test]
fn gate_sees_every_delegated_request_exactly_once() {
    let m = market();
    // Armed but quiet: every gate holds a cursor, no rule ever fires.
    let quiet = FaultPlan::new(11)
        .random_errors("key-value", 0.0, FaultKind::Timeout)
        .fail_ops("relational", "query", 1 << 40, 1 << 40, FaultKind::Timeout);
    let mut queries = workload();
    queries.push(Q::Sql(WEBLOG_PREFS_SQL.into()));
    queries.push(Q::Sql(PRODUCT_SEARCH_SQL.into()));
    for (name, deploy) in DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        est.set_fault_plan(Some(quiet.clone()));
        let gated = |est: &Estocada| -> Vec<u64> {
            gate_and_store_counts(est).iter().map(|c| c.1).collect()
        };

        // Admin paths: a first fill, DML maintenance of every fragment and
        // a full dump reach no gate.
        est.add_fragment(prefs_par("PrefsParLate")).unwrap();
        let writes = rw_workload(
            &m,
            RwConfig {
                ops: 12,
                write_ratio: 1.0,
                seed: 5,
            },
        );
        run_rw_workload(&mut est, &writes).expect("writes");
        assert!(!est.stores.dump().is_empty());
        assert_eq!(gated(&est), vec![0; 5], "{name}: admin paths are ungated");

        // Queries: whatever a store served, its gate saw — once each.
        let before = gate_and_store_counts(&est);
        for q in &queries {
            run_q(&est, q).expect("quiet plan injects nothing");
        }
        let after = gate_and_store_counts(&est);
        let mut total = 0;
        for ((sys, g0, s0), (_, g1, s1)) in before.into_iter().zip(after) {
            assert_eq!(g1 - g0, s1 - s0, "{name}: {sys} gate vs store requests");
            total += g1 - g0;
        }
        assert!(total as usize >= queries.len(), "{name}: queries ran");
    }
}

#[test]
fn fault_rules_key_on_the_connector_op_names() {
    let m = market();
    let orders_weblog =
        "SELECT o.oid, l.lid FROM Orders o, WebLog l WHERE o.uid = l.uid AND o.category = 'laptop'";
    // (store, op, a query whose plans issue it, stores taken down so that
    // the plan issuing it is the one that runs)
    let cases: [(&str, &str, Q, &[&str]); 9] = [
        ("relational", "query", Q::Sql(user_orders_sql(3)), &[]),
        ("key-value", "get", Q::Sql(pref_sql(3)), &[]),
        (
            "key-value",
            "mget",
            Q::Sql(WEBLOG_PREFS_SQL.into()),
            &["relational", "document"],
        ),
        (
            "document",
            "find",
            Q::Sql(pref_sql(3)),
            &["relational", "key-value"],
        ),
        ("document", "query", Q::Doc(1), &["key-value"]),
        (
            "text",
            "term_lookup",
            Q::Sql(PRODUCT_SEARCH_SQL.into()),
            &[],
        ),
        (
            "parallel",
            "scan",
            Q::Sql("SELECT l.pid FROM WebLog l WHERE l.uid = 3".into()),
            &[],
        ),
        (
            "parallel",
            "lookup",
            Q::Sql(personalized_sql(1, "laptop")),
            &[],
        ),
        (
            "parallel",
            "join",
            Q::Sql(orders_weblog.into()),
            &["relational"],
        ),
    ];
    for (store, op, q, down) in cases {
        let mut est = every_path_deployment(&m);
        let mut plan = FaultPlan::new(1).fail_ops(store, op, 1, 1, FaultKind::Unavailable);
        for d in down {
            plan = plan.down(d, FaultKind::Timeout);
        }
        est.set_fault_plan(Some(plan));
        let errors = store_errors(run_q(&est, &q));
        let want = format!("{store} store {op} #");
        assert!(
            errors
                .iter()
                .any(|e| e.starts_with(&want) && e.ends_with("failed: unavailable")),
            "{store}/{op}: no scripted `{want}…` fault among {errors:?}"
        );
    }
}
