//! The allocations of one plan-cache miss, counted by the allocator: a
//! cold `cart_lookup` (document tree pattern) and a cold `pref_lookup`
//! (SQL point lookup) on `deploy_materialized_join`, each sent with
//! `no_plan_cache()` so that it pays certificate, chase, backchase and
//! verification. A miss of another user runs first, so what a thread sets
//! up once (lazy statics, its matcher's buffers) is not counted; the chase
//! buffers a rewrite's chases share are, since the rewrite drops them.
//! One test in a binary of its own, so that nothing else allocates while it
//! counts; run it with `--test-threads=1`.
//!
//! The bounds are fractions of what the same misses allocated before the
//! chase's instance, premises and triggers went flat, counted by this test
//! then: 5 342 for the cart miss, 999 for the preference miss. The cart
//! miss must stay within a third. The preference miss must stay within two
//! thirds: 343 of its 999 allocations were made outside the rewrite
//! (parse, planning context, translation, execution, report), more than a
//! third of the whole on their own, and each rewrite allocates its chases'
//! shared buffers afresh.

use estocada::Latencies;
use estocada_workloads::marketplace::{generate, MarketplaceConfig};
use estocada_workloads::{cart_pattern, deploy_materialized_join, pref_sql};
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

/// Allocations of a cold cart lookup before the flat chase.
const CART_BEFORE: usize = 5_342;
/// Allocations of a cold preference lookup before the flat chase.
const PREF_BEFORE: usize = 999;

/// Allocations made while `f` runs, with its result.
fn allocs_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let result = f();
    (ALLOCS.load(Ordering::Relaxed) - before, result)
}

#[test]
fn a_cold_lookup_miss_allocates_a_fraction_of_the_unflattened_chase() {
    let m = generate(MarketplaceConfig {
        users: 200,
        products: 50,
        orders: 400,
        log_entries: 800,
        skew: 0.9,
        seed: 7,
    });
    let est = &deploy_materialized_join(&m, Latencies::zero());
    let cart = |uid: i64| {
        let pattern = cart_pattern(uid);
        move || {
            est.query_pattern(&pattern, &["pid", "qty"])
                .no_plan_cache()
                .run()
        }
    };
    let pref = |uid: i64| {
        let sql = pref_sql(uid);
        move || est.query(&sql).no_plan_cache().run()
    };
    // Warm the thread: one miss of each shape for another user.
    cart(2)().expect("warm-up cart lookup");
    pref(2)().expect("warm-up preference lookup");

    let (cart_allocs, rows) = allocs_of(cart(3));
    rows.expect("cart lookup");
    let (pref_allocs, rows) = allocs_of(pref(3));
    rows.expect("preference lookup");
    println!("cart miss: {cart_allocs} allocations (before: {CART_BEFORE})");
    println!("pref miss: {pref_allocs} allocations (before: {PREF_BEFORE})");
    assert!(
        cart_allocs * 3 <= CART_BEFORE,
        "a cold cart lookup made {cart_allocs} allocations, above a third of {CART_BEFORE}"
    );
    assert!(
        pref_allocs * 3 <= PREF_BEFORE * 2,
        "a cold preference lookup made {pref_allocs} allocations, above two thirds of {PREF_BEFORE}"
    );
}
