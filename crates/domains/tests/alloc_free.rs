//! A scalar abstract value costs what it holds: nothing on the heap.
//!
//! Its own test binary because it swaps the global allocator for a counting
//! one; the count is per thread, so the harness's other threads do not show.

use sga_domains::{AbsLoc, Interval, Lattice, LocSet, Thresholds, Value};
use sga_ir::VarId;
use sga_utils::Idx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

struct Counting;

thread_local! {
    static HEAP_OPS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while the thread's locals are torn down.
    let _ = HEAP_OPS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count();
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`; `new_size` is the caller's to get right.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap operations (allocations, reallocations and frees) `f` performs.
fn heap_ops(f: impl FnOnce()) -> usize {
    let before = HEAP_OPS.with(Cell::get);
    f();
    HEAP_OPS.with(Cell::get) - before
}

#[test]
fn scalar_values_never_touch_the_heap() {
    let thresholds = Thresholds::new(vec![0, 10, 100]);
    // The counter counts: a pointer value has something to allocate.
    let pointer_ops = heap_ops(|| {
        black_box(Value::of_ptr(LocSet::singleton(AbsLoc::Var(VarId::new(1)))));
    });
    assert_eq!(pointer_ops, 2, "one allocation, one free");

    let ops = heap_ops(|| {
        let bot = black_box(Value::bot());
        let five = black_box(Value::constant(5));
        let any = black_box(Value::unknown_int());
        let small = black_box(Value::of_itv(Interval::range(0, 9)));
        let copy = black_box(small.clone());
        let joined = black_box(five.join(&small));
        let widened = black_box(small.widen(&joined));
        let clamped = black_box(small.widen_with(&Value::constant(12), &thresholds));
        let narrowed = black_box(any.narrow(&small));
        let replaced = black_box(small.with_itv(Interval::constant(3)));
        assert!(copy == small && joined == small && bot != five);
        assert!(bot.is_bottom() && bot.le(&narrowed) && replaced.le(&small));
        assert!(widened.deref_targets().is_empty() && clamped.itv == Interval::range(0, 100));
        // Dropped here, all of them.
    });
    assert_eq!(ops, 0, "a scalar value holds nothing to allocate or free");
}
