//! Heap-allocation budget of the fused automaton's program-scoped work.
//!
//! The catalog half of the automaton (each optimizer's anchor chain) is
//! compiled once, when the optimizer is generated. Building the automaton
//! over a program should then only lay out the trie from those chains and
//! classify the statements into reused buffers, and a session apply that
//! finds nothing to do should confirm the parked automaton without
//! allocating a name per catalog entry. A counting global allocator
//! measures both. It counts only on the thread that asked for it, and
//! this binary holds a single test, so nothing else is counted.

use genesis::{ApplyMode, FusedAutomaton, Session};
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

/// Allocations of one catalog build over `fft` when the build re-extracted
/// every anchor filter and keyed the trie root by opcode name.
const REEXTRACTING_BUILD_ALLOCS: u64 = 127;

/// Allocations of a no-op apply when the staleness check normalized every
/// registered name.
const NORMALIZING_APPLY_ALLOCS: u64 = 21;

#[test]
fn automaton_work_allocates_per_program_not_per_catalog_entry() {
    let catalog = gospel_opts::catalog().expect("catalog generates");
    let fft = gospel_workloads::suite()
        .into_iter()
        .find(|(name, _)| *name == "fft")
        .map(|(_, p)| p)
        .expect("the suite has fft");

    let (auto, build_allocs) = counted(|| FusedAutomaton::build(&catalog, &fft));
    assert!(auto.states() > 0, "the catalog fuses some anchors");
    assert!(
        build_allocs <= 40,
        "FusedAutomaton::build over the catalog on fft made {build_allocs} allocations; \
         the budget is 40 (re-extracting every filter made {REEXTRACTING_BUILD_ALLOCS})"
    );

    let mut session = Session::new(fft);
    for opt in catalog {
        session.register(opt);
    }
    session
        .apply("CTP", ApplyMode::AllPoints)
        .expect("CTP applies");
    let (report, apply_allocs) = counted(|| {
        session
            .apply("CPP", ApplyMode::AllPoints)
            .map(|r| r.applications)
    });
    assert_eq!(
        report.expect("CPP applies"),
        0,
        "CPP after CTP finds nothing on fft"
    );
    assert!(
        apply_allocs <= 10,
        "a no-op Session::apply made {apply_allocs} allocations; \
         the budget is 10 (normalizing every name made {NORMALIZING_APPLY_ALLOCS})"
    );
}
