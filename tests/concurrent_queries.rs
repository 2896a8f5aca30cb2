//! Differential suite for the shared-read query API (`&self` +
//! `Estocada: Sync`): N client threads issue a mixed SQL / document / CQ
//! workload against **one shared engine**, and the merged results and
//! reports must be identical to the serial run — with the rewrite-plan
//! cache on and off, and across a DDL epoch bump in the middle of the
//! workload.
//!
//! Report comparison is on the *semantic* fields (pivot query, universal
//! plan, alternatives with costs, chosen index, plan text, delegated
//! units, search completeness). Wall-clock timings can never be
//! bit-identical; per-store metric deltas overlap between concurrent
//! clients by construction; and cache hit/miss flags depend on which
//! thread reaches a shape first — all three are diagnostics, not answers,
//! and are excluded.

mod common;

use common::{norm, Norm, Q};
use estocada::plancache::DEFAULT_PLAN_CACHE_CAPACITY;
use estocada::{Estocada, Latencies, QueryOptions, QueryResult};
use estocada_pivot::CqBuilder;
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, personalized_sql, pref_sql, user_orders_sql,
};
use std::sync::{Barrier, Mutex};

fn market() -> Marketplace {
    generate(common::cfg(60, 30, 200, 400, 23))
}

/// The mixed workload: SQL point lookups, SQL joins with residual-free and
/// residual-bearing shapes, document tree patterns, and raw pivot CQs.
/// Shapes repeat across uids and verbatim, so the plan cache has real
/// hits to serve.
fn workload() -> Vec<Q> {
    let mut out = Vec::new();
    for uid in [1i64, 3, 7, 1, 9, 3] {
        out.push(Q::Sql(pref_sql(uid)));
        out.push(Q::Doc(uid));
        out.push(Q::Sql(user_orders_sql(uid)));
        out.push(Q::Cq(uid));
    }
    for (uid, cat) in [(1i64, "laptop"), (2, "mouse"), (1, "laptop")] {
        out.push(Q::Sql(personalized_sql(uid, cat)));
    }
    out
}

fn run_q(est: &Estocada, q: &Q) -> QueryResult {
    common::run_q(est, q).unwrap_or_else(|e| panic!("{q:?}: {e}"))
}

fn serial_run(est: &Estocada, work: &[Q]) -> Vec<Norm> {
    work.iter().map(|q| norm(&run_q(est, q))).collect()
}

/// Run `work` from `threads` clients against one `&Estocada`, each query
/// exactly once (deterministic round-robin partition), merged back in
/// workload order. The clients leave a barrier together, so their first
/// queries race for whatever the engine derives lazily.
fn concurrent_run(est: &Estocada, work: &[Q], threads: usize) -> Vec<Norm> {
    let slots: Mutex<Vec<Option<Norm>>> = Mutex::new(vec![None; work.len()]);
    let start = Barrier::new(threads);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (slots, start) = (&slots, &start);
            s.spawn(move || {
                start.wait();
                for (i, q) in work.iter().enumerate() {
                    if i % threads != t {
                        continue;
                    }
                    let n = norm(&run_q(est, q));
                    slots.lock().unwrap()[i] = Some(n);
                }
            });
        }
    });
    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|n| n.expect("every slot filled"))
        .collect()
}

fn engine(cache: bool) -> Estocada {
    let mut est = deploy_kv_migrated(&market(), Latencies::zero());
    est.set_default_query_options(QueryOptions {
        plan_cache: cache,
        ..est.default_query_options()
    });
    est
}

#[test]
fn shared_engine_matches_serial_with_cache_off() {
    let work = workload();
    let reference = serial_run(&engine(false), &work);
    for threads in [2usize, 4, 8] {
        let est = engine(false);
        let got = concurrent_run(&est, &work, threads);
        assert_eq!(got, reference, "skew at {threads} threads, cache off");
    }
}

#[test]
fn shared_engine_matches_serial_with_cache_on() {
    let work = workload();
    // Reference is the cache-OFF serial run: the cache must be invisible
    // in the answers, concurrent or not.
    let reference = serial_run(&engine(false), &work);
    let serial_cached = engine(true);
    assert_eq!(
        serial_run(&serial_cached, &work),
        reference,
        "cache changed serial answers"
    );
    let s = serial_cached.plan_cache_stats();
    assert!(s.hits > 0, "workload must repeat shapes: {s:?}");
    for threads in [2usize, 4, 8] {
        let est = engine(true);
        let got = concurrent_run(&est, &work, threads);
        assert_eq!(got, reference, "skew at {threads} threads, cache on");
        let s = est.plan_cache_stats();
        assert_eq!(s.hits + s.misses, work.len() as u64);
    }
}

/// Every query a distinct shape-with-constants, so with the cache on each
/// one misses it: all clients rewrite at once through the one `Rewriter`
/// of the shared planning context (which the first of them derives), and
/// must get what the serial run gets.
#[test]
fn concurrent_cache_misses_share_one_planning_context() {
    let work: Vec<Q> = (1..=12i64)
        .flat_map(|uid| [Q::Sql(pref_sql(uid)), Q::Doc(uid)])
        .collect();
    let reference = serial_run(&engine(true), &work);
    for threads in [2usize, 4, 8] {
        let est = engine(true);
        let got = concurrent_run(&est, &work, threads);
        assert_eq!(got, reference, "skew at {threads} threads");
        let s = est.plan_cache_stats();
        assert_eq!((s.hits, s.misses), (0, work.len() as u64));
    }
}

/// All clients leave the barrier with the same cold query and repeat it:
/// whoever gets there first rewrites, whoever finds the outcome keeps a
/// prepared plan, the rest run it — and every run is the serial answer.
#[test]
fn threads_racing_one_cold_key_all_get_the_serial_answer() {
    for q in [Q::Sql(pref_sql(3)), Q::Doc(7), Q::Sql(user_orders_sql(5))] {
        let reference = norm(&run_q(&engine(false), &q));
        for threads in [2usize, 4, 8] {
            let est = engine(true);
            let work = vec![q.clone(); 3 * threads];
            for got in concurrent_run(&est, &work, threads) {
                assert_eq!(got, reference, "{q:?} at {threads} threads");
            }
            let s = est.plan_cache_stats();
            assert_eq!(s.hits + s.misses, work.len() as u64);
            assert!((1..=threads as u64).contains(&s.misses), "{s:?}");
            assert_eq!(s.entries, 1, "one key, however many racers stored it");
        }
    }
}

/// One client repeats a query while the others push more prepared plans
/// through the cache than it holds (respellings of one core: each is its
/// own exact query over one shared rewriting outcome). A plan evicted
/// between a lookup and the run it serves is still that run's plan.
#[test]
fn a_plan_evicted_in_flight_still_answers() {
    let est = engine(true);
    let reference = norm(&run_q(&est, &Q::Sql(pref_sql(3))));
    let spelled =
        |i: usize| format!("SELECT a{i}.theme, a{i}.language FROM Prefs a{i} WHERE a{i}.uid = 3");
    let (flooders, per_flooder) = (3, DEFAULT_PLAN_CACHE_CAPACITY);
    std::thread::scope(|s| {
        let flood: Vec<_> = (0..flooders)
            .map(|t| {
                let (est, spelled) = (&est, &spelled);
                s.spawn(move || {
                    for i in (0..per_flooder).map(|i| i * flooders + t) {
                        let r = est.query_sql(&spelled(i)).expect("a respelling");
                        assert!(r.report.plan_cache.is_some_and(|pc| pc.hit));
                    }
                })
            })
            .collect();
        while !flood.iter().all(|t| t.is_finished()) {
            assert_eq!(norm(&run_q(&est, &Q::Sql(pref_sql(3)))), reference);
        }
    });
    // The first respelling's plan went long ago: it translates again.
    let again = est.query_sql(&spelled(0)).expect("a respelling");
    assert!(again.report.translate_time > std::time::Duration::ZERO);
    let s = est.plan_cache_stats();
    assert_eq!(
        (s.misses, s.entries),
        (1, 1),
        "one core, one outcome: {s:?}"
    );
    assert!(s.entries <= DEFAULT_PLAN_CACHE_CAPACITY);
}

#[test]
fn ddl_epoch_bump_mid_workload_invalidates_plans() {
    // Phase A runs against the baseline catalog from N threads; then a DDL
    // operation adds the PrefsKV fragment; phase B (same threads, same
    // queries) must re-plan — the cheapest pref plan is now the key-value
    // GET, which a stale cached plan could never produce.
    let m = market();
    let work: Vec<Q> = [1i64, 3, 7, 1, 3]
        .iter()
        .map(|u| Q::Sql(pref_sql(*u)))
        .collect();

    let mut est = deploy_baseline(&m, Latencies::zero());
    let epoch_a = est.catalog_epoch();
    let phase_a = concurrent_run(&est, &work, 4);
    for n in &phase_a {
        assert!(
            n.delegated[0].starts_with("relational:"),
            "baseline must answer prefs relationally: {:?}",
            n.delegated
        );
    }

    est.add_fragment(estocada::FragmentSpec::KeyValue {
        view: CqBuilder::new("PrefsKV")
            .head_vars(["uid", "theme", "language", "newsletter"])
            .atom("Prefs", |a| {
                a.v("uid").v("theme").v("language").v("newsletter")
            })
            .build(),
    })
    .unwrap();
    assert!(est.catalog_epoch() > epoch_a);

    let phase_b = concurrent_run(&est, &work, 4);
    for (a, b) in phase_a.iter().zip(&phase_b) {
        assert_eq!(a.rows, b.rows, "answers must survive the migration");
        assert!(
            b.delegated[0].starts_with("key-value: GET PrefsKV"),
            "stale plan survived the epoch bump: {:?}",
            b.delegated
        );
    }
}

#[test]
fn dropping_a_fragment_never_leaves_a_stale_plan() {
    // Populate the cache with a plan that executes through PrefsKV, then
    // drop that fragment. A stale plan would translate against a missing
    // relation and fail (or silently answer from a dropped store); the
    // epoch bump forces a re-plan through the surviving native table.
    let mut est = deploy_kv_migrated(&market(), Latencies::zero());
    let sql = pref_sql(3);
    let warm = est.query_sql(&sql).unwrap();
    assert!(warm.report.delegated[0].starts_with("key-value: GET PrefsKV"));

    // PrefsKV was the 5th fragment registered by the deployment (F5).
    let dropped = est.drop_fragment("F5").unwrap();
    assert_eq!(dropped.relations[0].name.to_string(), "PrefsKV");

    let after = est.query_sql(&sql).expect("re-plan after drop must work");
    assert!(
        after.report.delegated[0].starts_with("relational:"),
        "expected fallback to the native table, got {:?}",
        after.report.delegated
    );
    let mut a = warm.rows.clone();
    let mut b = after.rows.clone();
    a.sort();
    b.sort();
    assert_eq!(a, b, "answers must survive the drop");
}

#[test]
fn default_options_and_builder_options_agree() {
    // An option set engine-wide through the QueryOptions defaults and per
    // query through the builder must produce identical outcomes (and both
    // must equal the built-in-default run: the batch size never changes
    // answers).
    let m = market();
    let work = workload();

    let mut engine_wide = deploy_kv_migrated(&m, Latencies::zero());
    engine_wide.set_default_query_options(QueryOptions::default().with_batch_size(3));

    let built = deploy_kv_migrated(&m, Latencies::zero());
    let defaults = deploy_kv_migrated(&m, Latencies::zero());

    for q in &work {
        let a = norm(&run_q(&engine_wide, q));
        let request = match q {
            Q::Sql(sql) => built.query(sql),
            Q::Doc(uid) => built.query_pattern(&cart_pattern(*uid), &["pid", "qty"]),
            Q::Cq(uid) => {
                let cq = CqBuilder::new("Q")
                    .head_vars(["theme", "language"])
                    .atom("Prefs", |a| a.c(*uid).v("theme").v("language").v("nl"))
                    .build();
                built.query_pivot(cq, vec!["theme".into(), "language".into()], vec![])
            }
        };
        let b = norm(&request.with_batch_size(3).run().unwrap());
        assert_eq!(a, b, "engine-default and builder outcomes differ on {q:?}");
        let c = norm(&run_q(&defaults, q));
        assert_eq!(a, c, "the batch size changed the outcome on {q:?}");
    }
}

#[test]
fn explain_only_agrees_with_execution_planning() {
    // The unified planning helper: the explain report and the executed
    // report must choose the same alternative with the same costs.
    let est = engine(true);
    for q in [
        pref_sql(3),
        user_orders_sql(7),
        personalized_sql(1, "laptop"),
    ] {
        let explained = est.query(&q).explain_only().run().unwrap();
        assert!(explained.rows.is_empty());
        let executed = est.query(&q).run().unwrap();
        let e = &explained.report;
        let x = &executed.report;
        assert_eq!(e.chosen, x.chosen, "{q}");
        assert_eq!(e.plan, x.plan, "{q}");
        assert_eq!(e.delegated, x.delegated, "{q}");
        assert_eq!(
            e.alternatives
                .iter()
                .map(|a| a.est_cost)
                .collect::<Vec<_>>(),
            x.alternatives
                .iter()
                .map(|a| a.est_cost)
                .collect::<Vec<_>>(),
            "{q}"
        );
        // And the legacy spelling still returns the same report shape.
        let legacy = est.explain_sql(&q).unwrap();
        assert_eq!(legacy.chosen, e.chosen);
        assert_eq!(legacy.plan, e.plan);
    }
}

#[test]
fn cache_hits_skip_the_backchase_and_report_it() {
    let est = engine(true);
    let sql = pref_sql(5);
    let first = est.query_sql(&sql).unwrap();
    let second = est.query_sql(&sql).unwrap();
    assert_eq!(first.rows, second.rows);
    assert!(!first.report.plan_cache.unwrap().hit);
    assert!(second.report.plan_cache.unwrap().hit);
    // Opting out bypasses the cache entirely.
    let bypass = est.query(&sql).no_plan_cache().run().unwrap();
    assert!(bypass.report.plan_cache.is_none());
    assert_eq!(bypass.rows, first.rows);
    let s = est.plan_cache_stats();
    assert_eq!((s.hits, s.misses), (1, 1), "bypass must not count");
}

#[test]
fn oracle_agreement_from_concurrent_threads() {
    // oracle_eval is part of the shared read path too (lazy OnceLock fact
    // base): hammer it from multiple threads against live queries.
    let est = engine(true);
    let catalog = est.sql_catalog();
    std::thread::scope(|s| {
        for uid in [1i64, 3, 7, 9] {
            let est = &est;
            let catalog = &catalog;
            s.spawn(move || {
                let sql = pref_sql(uid);
                let parsed = estocada::frontends::parse_sql(&sql, catalog).unwrap();
                let mut oracle = est.oracle_eval(&parsed.cq);
                let mut got = est.query_sql(&sql).unwrap().rows;
                oracle.sort();
                got.sort();
                assert_eq!(oracle, got, "uid {uid} diverges from oracle");
            });
        }
    });
}
