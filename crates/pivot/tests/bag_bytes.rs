//! The bytes a `Bag` holds per staged fact, counted by the allocator:
//! 100 000 two-column facts with unique cells, their values interned before
//! counting starts. One test in a binary of its own, so that nothing else
//! allocates while it counts; run it with `--test-threads=1`.

use estocada_pivot::{Bag, ConstId, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping a count of the bytes live.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

fn count(bytes: usize, sign: isize) {
    LIVE.fetch_add(sign * bytes as isize, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), -1);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout.size(), -1);
        count(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const FACTS: usize = 100_000;

#[test]
fn a_staged_two_column_fact_holds_at_most_130_bytes() {
    let values: Vec<Value> = (0..2 * FACTS as i64).map(Value::Int).collect();
    let cells = ConstId::intern_all(&values);
    let before = LIVE.load(Ordering::Relaxed);
    let mut bag = Bag::new(2);
    for fact in cells.chunks_exact(2) {
        bag.add(fact.iter().copied(), 1);
    }
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(bag.len(), FACTS);
    let per_fact = held as f64 / FACTS as f64;
    println!("{per_fact:.1} bytes per staged fact");
    assert!(per_fact <= 130.0, "{per_fact:.1} bytes per staged fact");
}
