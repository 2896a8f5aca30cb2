//! The allocations of one prepared plan-cache hit, counted by the
//! allocator: a `pref_lookup` (SQL point lookup, one key-value `GET`) and a
//! `cart_lookup` (document tree pattern) on `deploy_materialized_join` at
//! `Latencies::zero()`. Each request is sent three times first — a miss, the
//! run that finds the outcome cached and keeps the plans, and one prepared
//! hit that warms the thread — so the counted run is a prepared hit and
//! nothing it allocates is set up once. One test in a binary of its own, so
//! that nothing else allocates while it counts; run it with
//! `--test-threads=1`.
//!
//! The bounds are a third (rounded up) of what the same hits allocated while
//! a hit still copied the request into a key, cloned its chosen plan to bind
//! it to the query's fault handling, named its columns again in every batch,
//! decoded key-value and document answers through row tuples and copied the
//! prepared texts into its report, counted by this test then: 72 for the
//! preference hit, 89 for the cart hit, so at most 24 and 30.
//!
//! After the hits, one `Estocada::metrics` snapshot and one
//! `stale_fragments` check (which the read/write workload runs after every
//! write) must each allocate nothing.
//!
//! Last, a prepared BindJoin hit: the join of `examples/bindjoin.rs`, whose
//! key-value side is reached only by probing it with the keys the
//! relational side yields, counted at two key counts. What it allocates per
//! probed key is the slope between the two. Of that, the key-value store's
//! own decode of a stored value — what `KvStore::mget` allocates per key,
//! counted the same way — is the store's, and the rest is bounded: at most
//! 2 per probed key, one of them the answer row handed to the caller. While
//! a probe resolved its keys to value tuples and the answer came back as
//! value tuples to be interned again, the rest was 6.06 (12.07 per key in
//! all, 6.01 of them the store's).

use estocada::{Dataset, Estocada, FragmentSpec, Latencies, QueryResult, TableData};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{CqBuilder, Value};
use estocada_workloads::marketplace::{generate, MarketplaceConfig};
use estocada_workloads::{cart_pattern, deploy_materialized_join, pref_sql, stale_fragments};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, keeping a count of the allocations made.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations of a prepared preference hit before this bound.
const PREF_BEFORE: usize = 72;
/// Allocations of a prepared cart hit before this bound.
const CART_BEFORE: usize = 89;
/// A third of each, rounded up.
const PREF_BOUND: usize = PREF_BEFORE.div_ceil(3);
const CART_BOUND: usize = CART_BEFORE.div_ceil(3);

/// Allocations per probed key of a prepared BindJoin hit, beyond the
/// key-value store's own, before this bound.
const BINDJOIN_BEFORE: f64 = 6.06;
/// The answer row, and one more.
const BINDJOIN_BOUND: f64 = 2.0;

/// Allocations made while `f` runs, with its result.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// Runs `query` until its plan is prepared and warm, then counts one more
/// run, which must be a prepared hit returning rows.
fn hit_allocs(query: impl Fn() -> estocada::Result<QueryResult>) -> usize {
    for _ in 0..3 {
        query().expect("warm-up run");
    }
    let (allocs, result) = allocs_of(&query);
    let result = result.expect("prepared hit");
    let cache = result
        .report
        .plan_cache
        .expect("the plan cache was consulted");
    assert!(cache.hit, "the counted run must be a plan-cache hit");
    assert_eq!(result.report.translate_time, std::time::Duration::ZERO);
    assert!(!result.rows.is_empty(), "the counted run must return rows");
    allocs
}

#[test]
fn a_prepared_lookup_hit_allocates_a_third_of_what_it_did() {
    let m = generate(MarketplaceConfig {
        users: 2_000,
        products: 500,
        orders: 5_000,
        log_entries: 20_000,
        skew: 0.9,
        seed: 7,
    });
    let est = &deploy_materialized_join(&m, Latencies::zero());
    let sql = pref_sql(3);
    let pref_allocs = hit_allocs(|| est.query(&sql).run());
    let pattern = cart_pattern(3);
    let cart_allocs = hit_allocs(|| est.query_pattern(&pattern, &["pid", "qty"]).run());
    println!("pref hit: {pref_allocs} allocations (before: {PREF_BEFORE})");
    println!("cart hit: {cart_allocs} allocations (before: {CART_BEFORE})");
    assert!(
        pref_allocs <= PREF_BOUND,
        "a prepared preference hit made {pref_allocs} allocations, above {PREF_BOUND}"
    );
    assert!(
        cart_allocs <= CART_BOUND,
        "a prepared cart hit made {cart_allocs} allocations, above {CART_BOUND}"
    );
    let (metrics_allocs, metrics) = allocs_of(|| est.metrics());
    assert!(metrics.plan_cache.hits > 0, "the snapshot sees the hits");
    let (stale_allocs, stale) = allocs_of(|| stale_fragments(est));
    assert!(stale.is_empty(), "no fragment is stale: {stale:?}");
    assert_eq!(metrics_allocs, 0, "a metrics snapshot allocated");
    assert_eq!(
        stale_allocs, 0,
        "a staleness check with none stale allocated"
    );
    let est = &bindjoin_deployment(800);
    let (few, many) = (10, 800);
    let per_key = |[a, b]: [usize; 2]| (b - a) as f64 / (many - few) as f64;
    let hit = [few, many].map(|keys| {
        let sql = bindjoin_sql(keys);
        hit_allocs(|| est.query(&sql).run())
    });
    let store = [few, many].map(|keys| {
        let keys: Vec<Value> = (0..keys as i64).map(Value::Int).collect();
        let (allocs, hits) = allocs_of(|| est.stores.kv.mget("PrefsKV", &keys));
        assert!(hits
            .expect("the payloads decode")
            .iter()
            .all(Option::is_some));
        allocs
    });
    let (all, stores) = (per_key(hit), per_key(store));
    let added = all - stores;
    println!(
        "bindjoin hit: {} allocations at {few} keys, {} at {many}: {all:.2} per key, \
         {stores:.2} of them the key-value store's, {added:.2} the rest (before: {BINDJOIN_BEFORE})",
        hit[0], hit[1]
    );
    assert!(
        added <= BINDJOIN_BOUND,
        "a prepared BindJoin hit made {added:.2} allocations per probed key beyond the store's, above {BINDJOIN_BOUND}"
    );
}

/// The deployment of `examples/bindjoin.rs` at zero latency, with one
/// order per user: `Orders(oid, uid)` native relational, `Prefs(uid,
/// theme)` only in a key-value fragment, which a join reaches by probing it
/// with the `uid`s of the orders.
fn bindjoin_deployment(users: i64) -> Estocada {
    let mut est = Estocada::new(Latencies::zero());
    let table = |name, columns: &[&str], rows| TableData {
        encoding: TableEncoding::new(name, columns, Some(&columns[..1])),
        rows,
        text_columns: vec![],
    };
    let theme = |u: i64| Value::str(if u % 2 == 0 { "dark" } else { "light" });
    let orders = (0..users).map(|i| vec![Value::Int(i), Value::Int(i)]);
    let prefs = (0..users).map(|u| vec![Value::Int(u), theme(u)]);
    est.register_dataset(Dataset::relational(
        "shop",
        vec![
            table("Orders", &["oid", "uid"], orders.collect()),
            table("Prefs", &["uid", "theme"], prefs.collect()),
        ],
    ))
    .expect("the dataset registers");
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "shop".into(),
        only: Some(vec!["Orders".into()]),
    })
    .expect("the native tables are added");
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("PrefsKV")
            .head_vars(["uid", "theme"])
            .atom("Prefs", |a| a.v("uid").v("theme"))
            .build(),
    })
    .expect("the key-value fragment is added");
    est
}

/// The join of the first `keys` orders with their users' preferences: one
/// BindJoin probe of `keys` distinct keys.
fn bindjoin_sql(keys: usize) -> String {
    format!("SELECT o.oid, p.theme FROM Orders o, Prefs p WHERE p.uid = o.uid AND o.oid < {keys}")
}
