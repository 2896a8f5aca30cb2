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
//! The bounds are what the same hits allocated once the key-value store
//! held each key's tuples as interned cells: 15 and 16, where its byte
//! codec had cost each hit 7 more (22 and 23). Before that, they were a
//! third (rounded up) of what the hits allocated while a hit still copied
//! the request into a key, cloned its chosen plan to bind it to the
//! query's fault handling, named its columns again in every batch, decoded
//! key-value and document answers through row tuples and copied the
//! prepared texts into its report (72 and 89), so at most 24 and 30.
//!
//! Then an `Orders` row is inserted, which neither lookup prices, and the
//! first run of each after it is counted the same way: it keeps its plan
//! (nothing is translated, and the metrics count nothing priced again), and
//! checking the row counts the plan was priced at allocates nothing, so the
//! same bounds hold. A hit with no write before it does not check them at
//! all: its data epoch is the one its plan last held at.
//!
//! After the hits, one `Estocada::metrics` snapshot and one
//! `stale_fragments` check (which the read/write workload runs after every
//! write) must each allocate nothing.
//!
//! Last, a prepared BindJoin hit: the join of `examples/bindjoin.rs`, whose
//! key-value side is reached only by probing it with the keys the
//! relational side yields, counted at two key counts. What it allocates per
//! probed key is the slope between the two, at most 2 in all, the answer
//! row handed to the caller among them. Of that, the key-value store's
//! `mget` — counted alone the same way — allocates nothing per key: a hit
//! hands the caller the cells it holds. While the store decoded a byte
//! payload per key into values the connector interned again, the probe
//! made 7.08 per key, 6.01 of them the store's.

use estocada::{Dataset, Estocada, FragmentSpec, Latencies, QueryResult, TableData};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{ConstId, CqBuilder, Value};
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

/// Allocations of a prepared preference hit and of a prepared cart hit,
/// measured: the bounds.
const PREF_BOUND: usize = 15;
const CART_BOUND: usize = 16;

/// Allocations per probed key of a prepared BindJoin hit while the
/// key-value store decoded byte payloads.
const BINDJOIN_BEFORE: f64 = 7.08;
/// The answer row, and one more.
const BINDJOIN_BOUND: f64 = 2.0;
/// A key-value `mget` hands out the cells it holds: nothing per key (the
/// slope's rounding aside).
const STORE_BOUND: f64 = 0.01;

/// Allocations made while `f` runs, with its result.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

/// Runs `query` `warm_up` times, then counts one more run, which must be a
/// prepared hit returning rows.
fn hit_allocs(warm_up: usize, query: impl Fn() -> estocada::Result<QueryResult>) -> usize {
    for _ in 0..warm_up {
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
    let mut est = deploy_materialized_join(&m, Latencies::zero());
    let (sql, pattern) = (pref_sql(3), cart_pattern(3));
    let pref = |est: &Estocada| est.query(&sql).run();
    let cart = |est: &Estocada| est.query_pattern(&pattern, &["pid", "qty"]).run();
    let check = |pref_allocs: usize, cart_allocs: usize, when: &str| {
        println!("pref hit {when}: {pref_allocs} allocations (before: 22)");
        println!("cart hit {when}: {cart_allocs} allocations (before: 23)");
        assert!(
            pref_allocs <= PREF_BOUND,
            "a prepared preference hit {when} made {pref_allocs} allocations, above {PREF_BOUND}"
        );
        assert!(
            cart_allocs <= CART_BOUND,
            "a prepared cart hit {when} made {cart_allocs} allocations, above {CART_BOUND}"
        );
    };
    check(
        hit_allocs(3, || pref(&est)),
        hit_allocs(3, || cart(&est)),
        "with no write before it",
    );
    // An order neither lookup prices: the first run of each after it keeps
    // its plan, checking the row counts it priced, and allocates no more.
    let order = vec![
        Value::Int(90_001),
        Value::Int(1),
        Value::Int(2),
        Value::str("books"),
        Value::Double(9.5),
    ];
    est.insert_rows("sales", "Orders", vec![order])
        .expect("an unrelated insert");
    check(
        hit_allocs(0, || pref(&est)),
        hit_allocs(0, || cart(&est)),
        "after an unrelated write",
    );
    assert_eq!(est.metrics().plans_repriced, 0, "the write kept every plan");
    let est = &est;
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
        hit_allocs(3, || est.query(&sql).run())
    });
    let store = [few, many].map(|keys| {
        let keys: Vec<ConstId> = (0..keys as i64).map(ConstId::of).collect();
        let mut hits = 0;
        let (allocs, found) = allocs_of(|| {
            est.stores
                .kv
                .mget("PrefsKV", &keys, |_, tuples| hits += tuples.len)
        });
        assert!(found, "the namespace exists");
        assert_eq!(hits, keys.len(), "every key holds one tuple");
        allocs
    });
    let (all, stores) = (per_key(hit), per_key(store));
    println!(
        "bindjoin hit: {} allocations at {few} keys, {} at {many}: {all:.2} per key \
         (before: {BINDJOIN_BEFORE}), {stores:.2} of them the key-value store's",
        hit[0], hit[1]
    );
    assert!(
        stores <= STORE_BOUND,
        "a key-value MGET made {stores:.2} allocations per key, above {STORE_BOUND}"
    );
    assert!(
        all <= BINDJOIN_BOUND,
        "a prepared BindJoin hit made {all:.2} allocations per probed key, above {BINDJOIN_BOUND}"
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
