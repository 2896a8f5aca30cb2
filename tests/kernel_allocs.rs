//! The allocations of the kernel's two store-side hot paths, counted by the
//! allocator: a `JoinTable` build and a grouped `kernel::answer`. One test
//! in a binary of its own, so that nothing else allocates while it counts;
//! run it with `--test-threads=1`.
//!
//! A join table is flat — a map from each key to its group, one vector of
//! group starts and one of build positions — so a build over 2 000
//! distinct keys allocates a few times, not once per key as a table of a
//! vector per key did (2 000 and more).
//!
//! `answer`'s distinct makes room — a table and the cells — each time its
//! table fills: for eight times the rows it holds, or for every row in hand
//! once that is within sixteen times. So grouping 5 000 distinct rows into 8
//! groups makes room once more than grouping 500 does (its table goes 16,
//! 128, 1 024, then 16 384 slots, where 500 rows stop at 1 024), two
//! allocations, and nothing else grows with the rows.

use estocada_pivot::agg::{AggFun, GroupBy};
use estocada_pivot::kernel::{answer, pack_key, JoinTable, Key};
use estocada_pivot::{ConstId, IdRows};
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

/// The most allocations a join-table build over 2 000 distinct keys makes.
const BUILD_BOUND: usize = 8;

/// How many more times the distinct makes room for 5 000 distinct rows than
/// for 500.
const MORE_GROWTHS: usize = 1;

/// What `f` allocates, and what it returns (dropped after counting).
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// `n` distinct rows `(group, row number, amount)` over 8 groups.
fn grouped_rows(n: i64) -> IdRows {
    let mut rows = IdRows::empty(3);
    for i in 0..n {
        rows.push([
            ConstId::of(i % 8),
            ConstId::of(i),
            ConstId::of(i as f64 / 4.0),
        ]);
    }
    rows
}

#[test]
fn join_builds_and_grouped_answers_allocate_what_the_kernel_needs() {
    let keys: Vec<Key> = (0..2_000i64)
        .map(|i| pack_key([ConstId::of(i), ConstId::of(-i)].into_iter(), 2))
        .collect();
    let (built, table) = allocations(|| JoinTable::build(keys.iter().cloned()));
    assert_eq!(table.probe(&keys[1_999]), &[1_999]);
    println!("JoinTable::build over 2 000 distinct keys: {built} allocations");
    assert!(
        built <= BUILD_BOUND,
        "{built} allocations, bound {BUILD_BOUND}"
    );

    let tail = GroupBy {
        keys: 1,
        aggs: vec![
            (AggFun::Count, 1),
            (AggFun::Sum, 2),
            (AggFun::Avg, 2),
            (AggFun::Min, 1),
            (AggFun::Max, 2),
        ],
        having: vec![],
    };
    let mut counts = Vec::new();
    for n in [500, 5_000] {
        let rows = grouped_rows(n);
        // Once uncounted: the sums are interned, so the counted run only
        // looks them up, as a store answering the same tail again does.
        answer(rows.clone(), true, Some(&tail));
        let input = rows.clone();
        let (made, out) = allocations(|| answer(input, true, Some(&tail)));
        assert_eq!(out.len, 8);
        println!("answer grouping {n} rows into 8 groups: {made} allocations");
        counts.push(made);
    }
    assert_eq!(
        counts[1],
        counts[0] + 2 * MORE_GROWTHS,
        "allocations grow with the rows"
    );
}
