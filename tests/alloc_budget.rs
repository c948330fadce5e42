//! Heap-allocation budget of the precondition search.
//!
//! The searcher binds one environment in place and keeps dependence
//! clause solutions in reusable buffers, so `Driver::matches_with` should
//! allocate per search and per kept application point — never per
//! candidate tuple or per dependence check. A counting global allocator
//! measures that. It counts only on the thread that asked for it, and
//! this binary holds a single test, so nothing else is counted.

use genesis::Driver;
use gospel_dep::DepGraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting allocations made while
/// the calling thread's `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator may run while thread-locals are torn down.
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's contract for `alloc` is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's contract for `alloc_zeroed` is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: the caller's contract for `realloc` is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc` is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// Allocations `matches_with` made over the suite × catalog when every
/// candidate tuple cloned its binding environment.
const CLONING_SEARCH_ALLOCS: u64 = 71_857;

#[test]
fn match_search_allocates_per_search_not_per_tuple() {
    let catalog = gospel_opts::catalog().expect("catalog generates");
    let mut total = 0u64;
    let (mut par_allocs, mut par_searches, mut par_visits, mut par_checks) = (0, 0, 0, 0);
    for (name, prog) in gospel_workloads::suite() {
        let deps = DepGraph::analyze(&prog).expect("workload analyzes");
        for opt in &catalog {
            let driver = Driver::new(opt);
            let (ms, allocs) = counted(|| driver.matches_with(&prog, &deps));
            let ms = ms.unwrap_or_else(|e| panic!("{name} {}: {e}", opt.name));
            total += allocs;
            if opt.name == "PAR" {
                par_allocs += allocs;
                par_searches += 1;
                par_visits += ms.cost.anchor_visits;
                par_checks += ms.cost.dep_checks;
            }
        }
    }
    assert!(
        total <= CLONING_SEARCH_ALLOCS / 10,
        "matches_with made {total} allocations over suite x catalog; \
         the budget is a tenth of {CLONING_SEARCH_ALLOCS}"
    );
    // PAR's `no Sm, Sn` clause checks every statement pair of each loop
    // body: thousands of dependence checks for a few dozen loops. Its
    // allocations must follow the searches and loops, not the checks.
    assert!(
        par_checks >= 20 * (par_searches + par_visits),
        "PAR made only {par_checks} dependence checks; the bound below needs many"
    );
    assert!(
        par_allocs <= 10 * (par_searches + par_visits),
        "PAR made {par_allocs} allocations for {par_searches} searches, \
         {par_visits} anchor visits and {par_checks} dependence checks"
    );
}
