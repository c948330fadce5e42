//! Heap-allocation budget of `DepGraph::update` over the §4 sequence.
//!
//! The driver refreshes the dependence graph after every application.
//! A non-structural batch is updated site by site, reusing the graph's
//! adjacency and merge buffers, so an update should allocate a bounded
//! number of times for its working sets and the edges it derives — not
//! rebuild the order table, the adjacency and the signatures of the
//! whole program. A counting global allocator measures
//! that. It counts only on the thread that asked for it, and this binary
//! holds a single test, so nothing else is counted.
//!
//! The driver keeps its edit journals to itself, so the test replays the
//! sequence one application at a time: `ApplyMode::FirstPoint` on a copy
//! of the program finds and applies the next point (with a resuming
//! search the same point `AllPoints` applies next), and the edit it made
//! is journaled again onto the test's own program by [`replay`]. Only the
//! `update` call that consumes that journal is counted.

use genesis::{ApplyMode, Driver};
use gospel_dep::DepGraph;
use gospel_ir::{EditDelta, Opcode, OperandPos, Program, StmtId};
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

/// The paper's §4 enablement sequence.
const SEQUENCE: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];

/// Allocations `DepGraph::update` made over this replay of the suite
/// sequence when every batch but a pure operand rewrite rebuilt the
/// order table, loop table, control layer, adjacency and signatures of
/// the whole program, and every update allocated its own working sets.
const WHOLE_PROGRAM_UPDATE_ALLOCS: u64 = 2_954;

/// Updates in one replay of the suite sequence (the driver's
/// `driver.applications` over the ten programs).
const SUITE_UPDATES: usize = 72;

/// Indices of a heaviest increasing subsequence of `seq`: the
/// statements that kept their relative order, preferring to keep the
/// ones `heavy` marks (loop and branch markers, which a non-structural
/// edit never relocates).
fn kept(seq: &[usize], heavy: &[bool]) -> Vec<bool> {
    let weight = |i: usize| if heavy[i] { 1_000 } else { 1 };
    let mut best: Vec<u64> = Vec::with_capacity(seq.len());
    let mut from: Vec<Option<usize>> = Vec::with_capacity(seq.len());
    for i in 0..seq.len() {
        let prev = (0..i)
            .filter(|&j| seq[j] < seq[i])
            .max_by_key(|&j| (best[j], std::cmp::Reverse(j)));
        best.push(prev.map_or(0, |j| best[j]) + weight(i));
        from.push(prev);
    }
    let mut keep = vec![false; seq.len()];
    let mut at = (0..seq.len()).max_by_key(|&i| (best[i], std::cmp::Reverse(i)));
    while let Some(i) = at {
        keep[i] = true;
        at = from[i];
    }
    keep
}

/// Journals onto `work` (equal to the program `after` was derived from)
/// the edit that produced `after`: deletes, operand rewrites, then one
/// walk over `after` in program order that inserts each new statement
/// and moves each relocated one after its predecessor there.
fn replay(work: &mut Program, after: &Program) -> EditDelta {
    let mut d = EditDelta::new();
    let bound = work.id_bound();
    let position = after.order_index();
    let common: Vec<StmtId> = work.iter().filter(|&s| after.is_live(s)).collect();
    let seq: Vec<usize> = common.iter().map(|s| position[s]).collect();
    let heavy: Vec<bool> = common
        .iter()
        .map(|&s| {
            let op = work.quad(s).op;
            op.is_loop_head() || op.is_if() || matches!(op, Opcode::EndDo | Opcode::Else | Opcode::EndIf)
        })
        .collect();
    let keep = kept(&seq, &heavy);
    let moved: Vec<StmtId> = common
        .iter()
        .zip(&keep)
        .filter(|&(_, &k)| !k)
        .map(|(&s, _)| s)
        .collect();
    for s in work.iter().collect::<Vec<_>>() {
        if !after.is_live(s) {
            d.delete(work, s);
        }
    }
    for &s in &common {
        for pos in OperandPos::ALL {
            let new = after.quad(s).operand(pos);
            if work.quad(s).operand(pos) != new {
                d.modify(work, s, pos, new.clone());
            }
        }
    }
    let mut cursor = None;
    for s in after.iter() {
        let w = if s.index() >= bound {
            d.insert_after(work, cursor, after.quad(s).clone())
        } else {
            if moved.contains(&s) {
                d.move_after(work, s, cursor);
            }
            s
        };
        cursor = Some(w);
    }
    d
}

#[test]
fn dependence_updates_allocate_per_edit_not_per_program() {
    let catalog = gospel_opts::catalog().expect("catalog generates");
    let (mut updates, mut total) = (0usize, 0u64);
    for (name, prog) in gospel_workloads::suite() {
        let mut work = prog.clone();
        let mut g = DepGraph::analyze(&work).expect("workload analyzes");
        for opt in SEQUENCE {
            let opt = catalog
                .iter()
                .find(|o| o.name == opt)
                .expect("sequence optimizer in catalog");
            loop {
                let mut next = work.clone();
                let report = Driver::new(opt)
                    .apply(&mut next, ApplyMode::FirstPoint)
                    .unwrap_or_else(|e| panic!("{name} {}: {e}", opt.name));
                if report.applications == 0 {
                    break;
                }
                let delta = replay(&mut work, &next);
                assert!(
                    work.structurally_eq(&next),
                    "{name} {}: replay diverged from the driver's edit",
                    opt.name
                );
                if delta.is_empty() {
                    break;
                }
                let (up, allocs) = counted(|| g.update(&work, &delta));
                up.unwrap_or_else(|e| panic!("{name} {}: update failed: {e}", opt.name));
                let fresh = DepGraph::analyze(&work).expect("post-edit program analyzes");
                assert!(
                    g.agrees_with(&fresh),
                    "{name} {}: updated graph diverged from a fresh analysis",
                    opt.name
                );
                updates += 1;
                total += allocs;
            }
        }
    }
    assert_eq!(updates, SUITE_UPDATES, "the replay applies what the driver applies");
    assert!(
        total * 5 <= WHOLE_PROGRAM_UPDATE_ALLOCS * 3,
        "DepGraph::update made {total} allocations over {updates} suite updates; \
         the budget is three fifths of {WHOLE_PROGRAM_UPDATE_ALLOCS}"
    );
}
