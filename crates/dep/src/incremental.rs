//! Incremental dependence maintenance: update a [`DepGraph`] from an
//! [`EditDelta`] instead of re-analyzing the whole program.
//!
//! The update is *exact*, not approximate: the updated graph equals a
//! fresh [`DepGraph::analyze`] of the post-edit program. It has two paths.
//!
//! ## Non-structural batches: site-granular
//!
//! A batch that adds, removes or relocates no loop/branch marker (and
//! rewrites no loop control variable) keeps the loop table, every
//! header's region and the relative order of every statement it did not
//! place. Its work is named by *sites* — a statement and an operand slot.
//! Every scalar and array edge names its two endpoint sites, and every
//! access (the scalar in a slot, the subscript scalars of an element
//! there, the array reference) belongs to one site. The batch
//!
//! * *removes* statements: deleted ones, and moved ones from their old
//!   place;
//! * *places* statements: inserted ones, and moved ones at their new
//!   place — every slot of a placed statement is a fresh site;
//! * *rewrites* slots of the statements it neither placed nor deleted —
//!   each rewritten slot is a fresh site.
//!
//! Every edge with an endpoint at a removed statement or a rewritten slot
//! is dropped, and every edge with an endpoint at a fresh site is derived.
//! The edges between two untouched sites stay, with these exceptions:
//!
//! * **Scalars whose kills changed.** A definition of `v` kills `v`'s
//!   reaching definitions and uses, so when the batch removes, places or
//!   rewrites a definition of `v` every edge of `v` is dropped and
//!   re-derived. Uses kill nothing — each use is its own bit in reaching
//!   definitions and reaching uses, and the carried-edge exposure test
//!   (`scalars.rs`) kills on definitions only — so removing or adding a
//!   use changes only that use's own edges. A placed or removed statement
//!   that neither defines nor uses `v` is an identity node of `v`'s
//!   dataflow, and placing it keeps the reachability between every two
//!   other statements (a plain statement only splits a CFG edge).
//! * **Array pairs.** Every array edge is a function of its own pair of
//!   references, the pair's common loops, their trip counts and the
//!   relative order of the two statements. Untouched references keep all
//!   of these, except where a bound or an adjacency changed:
//! * **A loop bound** (`A`/`B` of a `do` head). The loop table's entry is
//!   refreshed. A trip count enters only the strong-SIV distance test, at
//!   the level of the loop whose control variable both subscripts share
//!   with the same coefficient `k` (`arrays.rs`, `test_dim`), which proves
//!   a pair independent iff `|c / k|` reaches it, and the fusion previews'
//!   bound equality test. So a bound rewrite of loop `l` re-tests only the
//!   pairs in `l`'s body with such a dimension whose distance lies between
//!   the old and the new trip count ([`trip_decides`]), and none when
//!   twice the largest subscript constant in `l`'s control variable stays
//!   below both trip counts ([`trip_scope`]). A loop nested in `l` that
//!   reuses `l`'s control variable lets a fusion preview rename subscripts
//!   onto it, which the distance filter does not see; then every pair in
//!   the body is re-tested. Previews exist only between adjacent loops
//!   with equal bounds, so `l` re-tests its previews only when its bounds
//!   equalled a partner's before or after the rewrite. The scalar layer
//!   never reads bounds.
//! * **Loop adjacency.** A plain statement placed between an `end do` and
//!   the next `do`, or the last statement removed from between them,
//!   changes whether those two loops are adjacent, which gates the
//!   fusion previews. Every loop next to such a boundary has all its
//!   previews re-tested. A preview edge is told from an ordinary edge
//!   between the same statements by its one extra direction level: it
//!   has one endpoint in the loop, the other outside, and more levels
//!   than the loops enclosing the loop.
//!
//! The bookkeeping is patched in place, not rebuilt: survivors keep their
//! relative order, so the order table shifts positions past each removed
//! or placed statement, retained edges stay sorted and merge with the
//! few fresh ones, and the loop table records where each placed statement
//! sits. A placed statement takes the control edges and the context
//! signature of its place, read off its nearest untouched neighbor. Each
//! control edge out of a rewritten `if` header carries the header's
//! first compared scalar as `var` (`control.rs`), so it is patched in
//! place; a header controls each statement by one edge, whose sort
//! position its (src, dst, kind) prefix fixes. Context signatures are
//! rehashed only inside the regions of rewritten headers, partnership
//! signatures only for loops whose header or adjacency changed.
//!
//! ## Structural batches: per variable, widened by signatures
//!
//! Edits that change the loop or branch *structure* (markers inserted,
//! deleted or relocated, or a loop header's control variable rewritten)
//! invalidate direction vectors and common nests for pairs that were
//! never touched. [`EditDelta::requires_full`] batches are still updated
//! incrementally, per variable. The reaching-defs/uses transfer functions
//! are per-variable: a definition of `v` generates and kills only bits of
//! `v`'s accesses, so restricting the access tables to a set of variables
//! reproduces exactly the full analysis's dataflow facts for those
//! variables ([`Accesses::collect_where`]), and every array edge joins
//! two references to the same array. The *dirty set* starts as every
//! symbol of a statement the batch touched and is widened by *signature
//! diffing*: every [`DepGraph`] snapshot stores a per-statement **context
//! signature** (the chain of enclosing loop/branch constructs, hashing
//! each header's identity and full quad plus the branch side) and a
//! per-loop **partnership signature** (the adjacency neighborhood the
//! fusion-preview pass reads). After a structural batch the signatures
//! are recomputed and every statement whose context changed — entered or
//! left a loop or branch, or sits under a header whose bounds/control
//! variable were rewritten — has its symbols dirtied, and every loop
//! whose partnership changed has its body's arrays dirtied. Dataflow facts
//! of a variable none of whose accesses changed context are untouched by
//! construction: in structured code, reachability and kill paths between
//! two accesses are a function of their context chains, their relative
//! order (which survivor statements keep under any batch), and the
//! accesses between them — all either unchanged or dirty. Direction
//! vectors and common nests hash in through the header quads; preview
//! edges through the partnership signatures. All edges of dirty symbols
//! and the control layer are re-derived.
//!
//! ## The search frontier
//!
//! Both paths compute the frontier the same way, from the dirty set: the
//! touched statements' symbols, widened by every array of the loops whose
//! bounds or adjacency the batch changed (and, for structural batches, by
//! the signature diff). The site-granular path does not read the dirty
//! set for its edges; it keeps it only so that searches resume at the
//! same anchor.
//!
//! A snapshot that cannot describe the program before the batch — an
//! earlier update was skipped — is replaced by a full analysis.
//!
//! [`Accesses::collect_where`]: crate::reach::Accesses::collect_where

use crate::arrays::{array_deps_scoped, Site};
use crate::build::{self, AnalyzeError};
use crate::control::{assert_no_directions, control_deps, control_var};
use crate::edge::{DepEdge, DepKind};
use crate::query::DepGraph;
use crate::scalars::scalar_deps_filtered;
use gospel_ir::{
    AffineExpr, Cfg, EditDelta, EditOp, LoopId, LoopTable, Opcode, Operand, OperandPos, Program, Quad, StmtId,
    Sym,
};
use std::hash::{Hash, Hasher};

/// How an update was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// The delta was empty; nothing changed.
    Noop,
    /// A non-structural batch: only the edges at the sites it touched,
    /// and of the scalars whose kills it changed, were re-derived.
    Incremental,
    /// A structural batch, handled incrementally: the dirty set was
    /// widened by context- and partnership-signature diffs instead of
    /// re-analyzing the whole program.
    Structural,
    /// A full re-analysis: the snapshot did not describe the program
    /// before the batch (an earlier update was skipped). The caller's
    /// degradation ladder also reaches it.
    Full,
}

/// Result of [`DepGraph::update`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepUpdate {
    /// How the graph was brought up to date.
    pub kind: UpdateKind,
    /// Earliest statement (in program order) whose pattern-matching
    /// neighborhood the edit batch may have changed — the point a
    /// searcher can resume from instead of rescanning the whole program.
    /// `None` means no restriction is justified (full fallback, or an
    /// edit at the very front of the program).
    pub frontier: Option<StmtId>,
    /// What the update actually did — the per-refresh accounting the
    /// observability layer reports.
    pub stats: UpdateStats,
}

/// Work accounting for one [`DepGraph::update`] call. All zero for a
/// no-op; for a full fallback only `edges_added` is populated (the size
/// of the freshly analyzed graph).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Symbols whose edges were invalidated (the dirty set).
    pub dirty_syms: usize,
    /// Stale edges dropped before re-derivation.
    pub edges_dropped: usize,
    /// Edges re-derived against the post-edit program (for a full
    /// fallback, every edge of the fresh graph).
    pub edges_added: usize,
}

/// A set of symbols as a dense bitset over [`Sym::index`] — the dirty
/// set of an update and the restriction the analysis passes read.
#[derive(Clone, Debug, Default)]
pub(crate) struct SymSet {
    words: Vec<u64>,
}

impl SymSet {
    /// An empty set with room for `n` symbols.
    fn new(n: usize) -> SymSet {
        SymSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub(crate) fn insert(&mut self, s: Sym) {
        let i = s.index();
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn contains(&self, s: Sym) -> bool {
        let i = s.index();
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }
}

/// Deterministic 64-bit hash combine (FNV-1a step over whole words).
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// A [`Hasher`] folding every written word (or byte chunk) with [`mix`].
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = mix(self.0, u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
    }
}

/// Deterministic hash of one quad.
fn quad_hash(q: &Quad) -> u64 {
    let mut h = Fnv(FNV_OFFSET);
    q.hash(&mut h);
    h.finish()
}

/// The context frame a loop or `if` header at `s` opens: its identity and
/// full quad, so a rewritten bound or control variable changes every body
/// statement's signature, and two textually equal loops still produce
/// distinct frames.
fn header_frame(prog: &Program, s: StmtId) -> u64 {
    mix(mix(FNV_OFFSET, s.index() as u64 + 1), quad_hash(prog.quad(s)))
}

/// Per-statement context signatures: one linear walk folding a stack of
/// enclosing-construct frames ([`header_frame`]); `else`
/// deterministically transforms the innermost frame, so the two sides of
/// a branch differ. Markers take the surrounding context (the
/// `LoopTable` convention: head and end belong to the parent).
///
/// Two snapshots assigning a statement the same signature agree on its
/// whole dependence-relevant surroundings — the enclosing loop/branch
/// chain, every enclosing header's operands, and its branch side.
pub(crate) fn context_signatures(prog: &Program) -> Vec<u64> {
    let mut ctx = vec![0u64; prog.id_bound()];
    if let Some(first) = prog.first() {
        fold_context(prog, first, FNV_OFFSET, &mut ctx, false, &mut Vec::new());
    }
    ctx
}

/// The signature walk of [`context_signatures`] from `from` on, in the
/// context `base`. With `region`, `from` is a header and the walk stops
/// at the marker closing it: the whole region a rewrite of that header
/// re-signs. `frames` is the walk's stack of open frames, each paired
/// with the fold of every frame up to it.
fn fold_context(
    prog: &Program,
    from: StmtId,
    base: u64,
    ctx: &mut [u64],
    region: bool,
    frames: &mut Vec<(u64, u64)>,
) {
    frames.clear();
    let combined = |frames: &[(u64, u64)]| frames.last().map_or(base, |&(_, c)| c);
    let mut cur = Some(from);
    while let Some(s) = cur {
        let q = prog.quad(s);
        match q.op {
            Opcode::EndDo | Opcode::EndIf => {
                frames.pop();
            }
            Opcode::Else => {
                if let Some((top, _)) = frames.pop() {
                    let top = mix(top, 0x5e1f);
                    frames.push((top, mix(combined(frames), top)));
                }
            }
            _ => {}
        }
        ctx[s.index()] = combined(frames);
        if q.op.is_loop_head() || q.op.is_if() {
            let frame = header_frame(prog, s);
            frames.push((frame, mix(combined(frames), frame)));
        }
        if region && frames.is_empty() {
            break;
        }
        cur = prog.next(s);
    }
}

/// The context signature a plain statement placed right after `prev`
/// takes (`prev` untouched, so its own signature is current).
fn context_after(prog: &Program, ctx: &[u64], prev: Option<StmtId>) -> u64 {
    match prev {
        None => FNV_OFFSET,
        Some(p) if prog.quad(p).op.is_loop_head() || prog.quad(p).op.is_if() => {
            mix(ctx[p.index()], header_frame(prog, p))
        }
        Some(p) => ctx[p.index()],
    }
}

/// Per-loop partnership signatures, keyed by header statement and sorted
/// by it. See [`partnership`].
pub(crate) fn partnership_signatures(
    prog: &Program,
    loops: &LoopTable,
) -> Vec<(StmtId, u64)> {
    let mut out: Vec<(StmtId, u64)> = loops
        .iter()
        .map(|info| (info.head, partnership(prog, loops, info.id)))
        .collect();
    out.sort_unstable_by_key(|&(head, _)| head);
    out
}

/// Loop `l`'s partnership signature: its own header quad plus each
/// adjacent partner's header identity and quad, the loop before it
/// first. Everything the fusion-preview pass conditions on — which loops
/// are adjacent and whether their bounds agree — is in the signature, so
/// an unchanged signature means the loop's preview edges cannot have
/// changed.
fn partnership(prog: &Program, loops: &LoopTable, l: LoopId) -> u64 {
    let info = loops.get(l);
    let mut h = mix(FNV_OFFSET, quad_hash(prog.quad(info.head)));
    for p in adjacent_partners(prog, loops, l) {
        let head = loops.get(p).head;
        h = mix(h, head.index() as u64 + 1);
        h = mix(h, quad_hash(prog.quad(head)));
    }
    h
}

/// The loops adjacent to `l`: the one whose `end do` directly precedes
/// its `do`, then the one whose `do` directly follows its `end do`.
fn adjacent_partners(prog: &Program, loops: &LoopTable, l: LoopId) -> impl Iterator<Item = LoopId> {
    let info = loops.get(l);
    let before = prog.prev(info.head).and_then(|p| loops.loop_of_end(p));
    let after = prog.next(info.end).and_then(|n| loops.loop_of_head(n));
    before.into_iter().chain(after)
}

/// Symbols mentioned by one operand: the scalar itself, or an array plus
/// its subscript scalars. Stops at the first symbol `f` answers `true`
/// for, and returns whether it did.
fn operand_syms(op: &Operand, f: &mut impl FnMut(Sym) -> bool) -> bool {
    match op {
        Operand::Var(v) => f(*v),
        Operand::Elem { array, subs } => f(*array) || subs.iter().any(|s| s.vars().any(&mut *f)),
        _ => false,
    }
}

/// Symbols mentioned anywhere in one quad, visited like [`operand_syms`].
fn quad_syms(q: &Quad, f: &mut impl FnMut(Sym) -> bool) -> bool {
    OperandPos::ALL
        .iter()
        .any(|&pos| operand_syms(q.operand(pos), f))
}

/// Adds every symbol of `q` to `set`.
fn dirty_quad(q: &Quad, set: &mut SymSet) {
    quad_syms(q, &mut |s| {
        set.insert(s);
        false
    });
}

/// Adds every symbol of `op` to `set`.
fn dirty_operand(op: &Operand, set: &mut SymSet) {
    operand_syms(op, &mut |s| {
        set.insert(s);
        false
    });
}

/// The `(end do, do)` marker pair a live statement at `id` currently
/// splits: `id` sits between a loop end and a loop head, with nothing
/// else between them but other statements the batch `placed`, so the
/// placement broke the adjacency of those two loops, killing
/// fusion-preview edges of arrays the edit never mentions. A run with
/// only one loopish neighbor changes nothing — the pair was not adjacent
/// before the edit either.
fn split_pair(prog: &Program, id: StmtId, placed: &[StmtId]) -> Option<(StmtId, StmtId)> {
    let mut p = prog.prev(id)?;
    while placed.contains(&p) {
        p = prog.prev(p)?;
    }
    let mut n = prog.next(id)?;
    while placed.contains(&n) {
        n = prog.next(n)?;
    }
    (prog.quad(p).op == Opcode::EndDo && prog.quad(n).op.is_loop_head()).then_some((p, n))
}

/// The `(end do, do)` marker pair left touching after a statement
/// anchored at `prev` was removed: the removal made the two loops
/// adjacent, creating fusion-preview edges of untouched arrays.
fn bridged_pair(prog: &Program, prev: Option<StmtId>) -> Option<(StmtId, StmtId)> {
    let p = prev?;
    if !prog.is_live(p) || prog.quad(p).op != Opcode::EndDo {
        return None;
    }
    let n = prog.next(p)?;
    prog.quad(n).op.is_loop_head().then_some((p, n))
}

fn note_loop(l: LoopId, focus: &mut Vec<LoopId>) {
    if !focus.contains(&l) {
        focus.push(l);
    }
}

/// Adds every array referenced in the bodies of the `focus` loops to `set`.
fn note_body_arrays(prog: &Program, loops: &LoopTable, focus: &[LoopId], set: &mut SymSet) {
    for &l in focus {
        for s in loops.body(prog, l) {
            for pos in OperandPos::ALL {
                if let Operand::Elem { array, .. } = prog.quad(s).operand(pos) {
                    set.insert(*array);
                }
            }
        }
    }
}

/// The search frontier: the earliest live statement that mentions a
/// dirty symbol, was itself touched, or is `extra` (a structural batch's
/// first statement whose context changed, which can be a bare marker
/// with no symbols of its own). Anything strictly before it matches
/// exactly as it did before the batch.
fn resume_frontier(
    prog: &Program,
    order: &[u32],
    touched: &[StmtId],
    extra: Option<StmtId>,
    dirty: &SymSet,
) -> Option<StmtId> {
    let best = touched
        .iter()
        .copied()
        .chain(extra)
        .filter_map(|s| match order.get(s.index()) {
            Some(&p) if p != u32::MAX => Some((p, s)),
            _ => None,
        })
        .min_by_key(|&(p, _)| p);
    // Only a mention before the earliest touched statement can move the
    // frontier, and the first hit in program order is the earliest.
    let before = best.map_or(usize::MAX, |(p, _)| p as usize);
    prog.iter()
        .take(before)
        .find(|&s| quad_syms(prog.quad(s), &mut |v| dirty.contains(v)))
        .or(best.map(|(_, s)| s))
        .or_else(|| prog.first())
}

/// What both paths read off the journal for the frontier: the dirty
/// symbols, the statements whose neighborhood changed, and the loop
/// markers whose bounds or adjacency an edit changed.
#[derive(Debug, Default)]
struct Journal {
    dirty: SymSet,
    touched: Vec<StmtId>,
    /// An edit at the very front of the program (or anchored at a
    /// statement gone since): resume from the top.
    from_start: bool,
    /// Loop heads whose bound operands were rewritten.
    bound_heads: Vec<StmtId>,
    /// Markers of `end do`/`do` pairs whose adjacency an edit changed.
    pair_markers: Vec<StmtId>,
}

impl Journal {
    /// Reads the journal of `delta`. A statement touched by the batch may
    /// since have been deleted by a later op in the same batch; its
    /// symbols are covered by that delete's quad snapshot.
    fn read(prog: &Program, delta: &EditDelta) -> Journal {
        let mut j = Journal {
            dirty: SymSet::new(prog.syms().len()),
            ..Journal::default()
        };
        // The live statements the batch placed, which `split_pair` walks
        // past to the untouched neighbors of a placed run.
        let placed: Vec<StmtId> = delta
            .ops()
            .iter()
            .filter_map(|op| match op {
                EditOp::Insert { id } | EditOp::Move { id, .. } if prog.is_live(*id) => Some(*id),
                _ => None,
            })
            .collect();
        let note_pair = |pair: Option<(StmtId, StmtId)>, out: &mut Vec<StmtId>| {
            if let Some((e, h)) = pair {
                out.push(e);
                out.push(h);
            }
        };
        for op in delta.ops() {
            match op {
                EditOp::Insert { id } | EditOp::Move { id, .. } => {
                    if prog.is_live(*id) {
                        dirty_quad(prog.quad(*id), &mut j.dirty);
                        j.touched.push(*id);
                        note_pair(split_pair(prog, *id, &placed), &mut j.pair_markers);
                        match prog.prev(*id) {
                            Some(p) => j.touched.push(p),
                            None => j.from_start = true,
                        }
                    }
                    if let EditOp::Move { old_prev, .. } = op {
                        note_pair(bridged_pair(prog, *old_prev), &mut j.pair_markers);
                        match old_prev {
                            Some(p) if prog.is_live(*p) => j.touched.push(*p),
                            _ => j.from_start = true,
                        }
                    }
                }
                EditOp::Delete { prev, quad, .. } => {
                    dirty_quad(quad, &mut j.dirty);
                    note_pair(bridged_pair(prog, *prev), &mut j.pair_markers);
                    match prev {
                        Some(p) if prog.is_live(*p) => j.touched.push(*p),
                        // The recorded anchor is gone too (or the statement
                        // was first); resume from the top.
                        _ => j.from_start = true,
                    }
                }
                EditOp::Modify { id, pos, old } => {
                    // Only the rewritten slot's accesses changed: dirty the
                    // old and new operand symbols, not the whole quad.
                    dirty_operand(old, &mut j.dirty);
                    if prog.is_live(*id) {
                        dirty_operand(prog.quad(*id).operand(*pos), &mut j.dirty);
                        j.touched.push(*id);
                        if prog.quad(*id).op.is_loop_head() {
                            j.bound_heads.push(*id);
                        }
                    }
                }
            }
        }
        j
    }
}

pub(crate) fn update(
    g: &mut DepGraph,
    prog: &Program,
    delta: &EditDelta,
) -> Result<DepUpdate, AnalyzeError> {
    if delta.is_empty() {
        return Ok(DepUpdate {
            kind: UpdateKind::Noop,
            frontier: None,
            stats: UpdateStats::default(),
        });
    }
    if delta.requires_full() {
        return update_structural(g, prog, delta);
    }
    update_sites(g, prog, delta)
}

/// Replaces a snapshot that does not describe the program before the
/// batch with a full analysis.
fn reanalyze(g: &mut DepGraph, prog: &Program) -> Result<DepUpdate, AnalyzeError> {
    *g = DepGraph::analyze(prog)?;
    Ok(DepUpdate {
        kind: UpdateKind::Full,
        frontier: None,
        stats: UpdateStats {
            edges_added: g.len(),
            ..UpdateStats::default()
        },
    })
}

/// The structural path: per-variable re-derivation of the dirty set,
/// widened by signature diffing (see the module docs).
fn update_structural(
    g: &mut DepGraph,
    prog: &Program,
    delta: &EditDelta,
) -> Result<DepUpdate, AnalyzeError> {
    let Journal {
        mut dirty,
        touched,
        from_start,
        ..
    } = Journal::read(prog, delta);
    // Marker balance is exactly what a structural batch can break.
    gospel_ir::validate(prog)?;
    let cfg = Cfg::of(prog);
    let loops = LoopTable::of(prog)?;

    // Signature diffing: a statement that entered or left any loop/branch
    // construct, or whose enclosing headers' quads were rewritten, gets
    // its symbols dirtied; a loop whose fusion-partnership neighborhood
    // changed gets its body's arrays dirtied. Everything else kept its
    // context chain, relative order and operands, so its dependence facts
    // are unchanged. Loops present only in the old snapshot need no
    // special case: a vanished header changes the context signature of
    // every statement that was in its body.
    let mut ctx_frontier: Option<StmtId> = None;
    let fresh_ctx = context_signatures(prog);
    for s in prog.iter() {
        if g.ctx_sig(s) != Some(fresh_ctx[s.index()]) {
            dirty_quad(prog.quad(s), &mut dirty);
            if ctx_frontier.is_none() {
                ctx_frontier = Some(s);
            }
        }
    }
    let mut focus: Vec<LoopId> = Vec::new();
    let fresh_partners = partnership_signatures(prog, &loops);
    for &(head, sig) in &fresh_partners {
        let old = g
            .partners
            .binary_search_by_key(&head, |&(h, _)| h)
            .ok()
            .map(|i| g.partners[i].1);
        if old != Some(sig) {
            if let Some(l) = loops.loop_of_head(head) {
                note_loop(l, &mut focus);
            }
        }
    }
    note_body_arrays(prog, &loops, &focus, &mut dirty);

    // Drop stale edges. Control edges are recomputed wholesale; a data
    // edge is stale iff its variable is dirty (an edge incident to a
    // removed or edited statement necessarily carries one of that
    // statement's symbols). The survivors stay in canonical order, so
    // the fresh batch below merges instead of forcing a full re-sort.
    let mut edges = std::mem::take(&mut g.edges);
    let before_retain = edges.len();
    edges.retain(|e| e.kind != DepKind::Control && !dirty.contains(e.var));
    let edges_dropped = before_retain - edges.len();

    let order = build::dense_order(prog);
    let mut fresh = scalar_deps_filtered(prog, &cfg, &loops, &order, Some(&dirty), |_, _| true);
    fresh.extend(array_deps_scoped(
        prog,
        &loops,
        &order,
        Some(&dirty),
        |_, _| true,
        |_, _, _| true,
    ));
    let ctrl = control_deps(prog);
    assert_no_directions(&ctrl);
    fresh.extend(ctrl);
    let stats = UpdateStats {
        dirty_syms: dirty.len(),
        edges_dropped,
        edges_added: fresh.len(),
    };

    build::merge_sorted(&order, &mut edges, &mut g.spare, &mut fresh, &mut g.keyed);

    let frontier = if from_start {
        prog.first()
    } else {
        resume_frontier(prog, &order, &touched, ctx_frontier, &dirty)
    };

    g.edges = edges;
    g.order = order;
    g.loops = loops;
    g.ctx = fresh_ctx;
    g.partners = fresh_partners;
    g.reindex(prog.id_bound());
    Ok(DepUpdate {
        kind: UpdateKind::Structural,
        frontier,
        stats,
    })
}

/// The sites a non-structural batch touched (see the module docs).
struct Sites<'a> {
    /// Live statements the batch inserted or moved.
    placed: &'a [StmtId],
    /// Snapshot statements the batch deleted or moved away.
    removed: &'a [StmtId],
    /// Rewritten slots of live statements the batch did not place.
    rewrites: &'a [(StmtId, OperandPos, usize)],
}

impl Sites<'_> {
    fn placed(&self, s: StmtId) -> bool {
        self.placed.contains(&s)
    }

    fn removed(&self, s: StmtId) -> bool {
        self.removed.contains(&s)
    }

    fn rewritten(&self, s: StmtId, pos: OperandPos) -> bool {
        self.rewrites.iter().any(|&(t, p, _)| t == s && p == pos)
    }

    /// A site holding new accesses: a slot of a placed statement, or a
    /// rewritten slot.
    fn fresh(&self, (s, pos): Site) -> bool {
        self.placed(s) || self.rewritten(s, pos)
    }

    /// The nearest statement at or before `s` the batch did not place.
    fn settled_back(&self, prog: &Program, mut s: Option<StmtId>) -> Option<StmtId> {
        while let Some(x) = s.filter(|&x| self.placed(x)) {
            s = prog.prev(x);
        }
        s
    }

    /// The nearest statement at or after `s` the batch did not place.
    fn settled_forward(&self, prog: &Program, mut s: Option<StmtId>) -> Option<StmtId> {
        while let Some(x) = s.filter(|&x| self.placed(x)) {
            s = prog.next(x);
        }
        s
    }
}

/// Adds the scalar `q` defines to `set`.
fn note_def(q: &Quad, set: &mut SymSet) {
    if let Some(Operand::Var(v)) = q.def_operand() {
        set.insert(*v);
    }
}

/// Adds the symbols of one operand to the scalars or the arrays to derive.
fn note_accesses(op: &Operand, scalars: &mut SymSet, arrays: &mut SymSet) {
    match op {
        Operand::Var(v) => scalars.insert(*v),
        Operand::Elem { array, subs } => {
            arrays.insert(*array);
            for v in subs.iter().flat_map(|s| s.vars()) {
                scalars.insert(v);
            }
        }
        _ => {}
    }
}

/// Whether a strong-SIV distance `dist` proves a pair independent under
/// trip count `trip` (`None` = unknown, which proves nothing).
fn pruned(trip: Option<i64>, dist: i64) -> bool {
    trip.is_some_and(|t| dist.abs() >= t.max(0))
}

/// The subscripts of the element at `site` (none for a scalar).
fn subscripts(prog: &Program, (s, pos): Site) -> &[AffineExpr] {
    match prog.quad(s).operand(pos) {
        Operand::Elem { subs, .. } => subs,
        _ => &[],
    }
}

/// True if a trip count changing from `before` to `after` can change the
/// verdict of the array pair at sites `a`, `b`, both inside the loop
/// whose control variable is `lcv`. A trip count `t` enters only the
/// strong-SIV test of a dimension whose two subscripts share the loop's
/// coefficient `k` (`arrays.rs`, `test_dim`): it proves the pair
/// independent iff the distance `|c / k|` reaches `t`. So only a pair
/// with such a dimension whose distance lies between the two trip counts
/// can change.
fn trip_decides(
    prog: &Program,
    a: Site,
    b: Site,
    lcv: Sym,
    before: Option<i64>,
    after: Option<i64>,
) -> bool {
    subscripts(prog, a)
        .iter()
        .zip(subscripts(prog, b))
        .any(|(x, y)| {
            let (k, c) = (x.coeff(lcv), x.constant() - y.constant());
            k != 0 && k == y.coeff(lcv) && c % k == 0 && pruned(before, c / k) != pruned(after, c / k)
        })
}

/// Which pairs in loop `l`'s body a trip count changing from `before` to
/// `after` can decide: `None` when none can — a distance is at most the
/// sum of two subscript constants, so when twice the largest constant of
/// a subscript in `l`'s control variable stays below both trip counts no
/// verdict changes — `Some(false)` for those [`trip_decides`] picks, and
/// `Some(true)` for all of them, when a loop nested in `l` reuses `l`'s
/// control variable: a fusion preview there renames subscripts onto it,
/// which [`trip_decides`] does not see.
fn trip_scope(
    prog: &Program,
    loops: &LoopTable,
    l: LoopId,
    before: Option<i64>,
    after: Option<i64>,
) -> Option<bool> {
    let lcv = loops.get(l).lcv;
    let mut reach = 0i64;
    for s in loops.body(prog, l) {
        if loops.loop_of_head(s).is_some_and(|inner| loops.get(inner).lcv == lcv) {
            return Some(true);
        }
        for pos in OperandPos::ALL {
            for x in subscripts(prog, (s, pos)).iter().filter(|x| x.coeff(lcv) != 0) {
                reach = reach.max(2 * x.constant().abs());
            }
        }
    }
    (pruned(before, reach) || pruned(after, reach)).then_some(false)
}

/// The header of the construct an `end do`/`end if` at `end` closes.
fn opener(prog: &Program, loops: &LoopTable, end: StmtId) -> Option<StmtId> {
    if let Some(l) = loops.loop_of_end(end) {
        return Some(loops.get(l).head);
    }
    let mut depth = 0usize;
    let mut q = prog.prev(end);
    while let Some(x) = q {
        let op = prog.quad(x).op;
        if matches!(op, Opcode::EndDo | Opcode::EndIf) {
            depth += 1;
        } else if op.is_loop_head() || op.is_if() {
            if depth == 0 {
                return Some(x);
            }
            depth -= 1;
        }
        q = prog.prev(x);
    }
    None
}

/// Calls `f` with every header controlling the placed statement `s`,
/// read off its nearest untouched neighbor before it in the snapshot's
/// control edges: a plain statement or header shares its controllers
/// (a header adds itself), the code after a closed construct has its
/// header's, and an `else` is skipped for the then-branch before it.
fn controllers(g: &DepGraph, prog: &Program, sites: &Sites<'_>, s: StmtId, mut f: impl FnMut(StmtId)) {
    let mut q = sites.settled_back(prog, prog.prev(s));
    while let Some(x) = q {
        let op = prog.quad(x).op;
        let (h, own) = match op {
            Opcode::Else => {
                q = sites.settled_back(prog, prog.prev(x));
                continue;
            }
            Opcode::EndDo | Opcode::EndIf => match opener(prog, &g.loops, x) {
                Some(h) => (h, false),
                None => return,
            },
            _ => (x, op.is_loop_head() || op.is_if()),
        };
        g.to(h)
            .filter(|e| e.kind == DepKind::Control)
            .for_each(|e| f(e.src));
        if own {
            f(h);
        }
        return;
    }
}

/// The site-granular update of a non-structural batch (see the module
/// docs for why it is exact).
fn update_sites(
    g: &mut DepGraph,
    prog: &Program,
    delta: &EditDelta,
) -> Result<DepUpdate, AnalyzeError> {
    let mut j = Journal::read(prog, delta);
    // No marker was added, removed or relocated, so only the touched
    // statements can have become invalid.
    for &s in &j.touched {
        if prog.is_live(s) {
            gospel_ir::validate_stmt(prog, s)?;
        }
    }

    // The snapshot must describe the program before the batch: every
    // slot but the inserted ones, every statement the batch touched, and
    // every loop whose header it rewrote. An earlier skipped update
    // breaks this; a full analysis then takes over.
    let old_bound = g.order.len();
    let inserts = delta
        .ops()
        .iter()
        .filter(|op| matches!(op, EditOp::Insert { .. }))
        .count();
    let in_snapshot = |s: StmtId| g.order.get(s.index()).is_some_and(|&p| p != u32::MAX);
    let describes = old_bound + inserts == prog.id_bound()
        && delta.ops().iter().all(|op| match op {
            EditOp::Insert { .. } => true,
            EditOp::Modify { id, .. } if prog.is_live(*id) && prog.quad(*id).op.is_loop_head() => {
                in_snapshot(*id) && g.loops.loop_of_head(*id).is_some()
            }
            op => op.stmt().index() >= old_bound || in_snapshot(op.stmt()),
        });
    if !describes {
        return reanalyze(g, prog);
    }

    // The sites, and the scalars whose definitions the batch removed,
    // placed or rewrote: their kills changed.
    let nsyms = prog.syms().len();
    let mut full = SymSet::new(nsyms);
    let mut arrays = SymSet::new(nsyms);
    let mut placed = Vec::new();
    let mut removed = Vec::new();
    // Rewritten slots, each with the journal index of its first `Modify`.
    let mut rewrites: Vec<(StmtId, OperandPos, usize)> = Vec::new();
    for (k, op) in delta.ops().iter().enumerate() {
        let id = op.stmt();
        match op {
            EditOp::Insert { .. } | EditOp::Move { .. } | EditOp::Delete { .. } => {
                let insert = matches!(op, EditOp::Insert { .. });
                let delete = matches!(op, EditOp::Delete { .. });
                if !insert && in_snapshot(id) && !removed.contains(&id) {
                    removed.push(id);
                }
                if !delete && prog.is_live(id) && !placed.contains(&id) {
                    placed.push(id);
                }
                // Removing a definition changes its scalar's kills only
                // where some access of the scalar reached it, and each
                // such access has an edge to it: a definition with no
                // edge of its own scalar blocked no path.
                if let EditOp::Delete { quad, .. } = op {
                    if let Some(Operand::Var(v)) = quad.def_operand() {
                        if in_snapshot(id) && g.from(id).chain(g.to(id)).any(|e| e.var == *v) {
                            full.insert(*v);
                        }
                    }
                }
            }
            EditOp::Modify { pos, old, .. } => {
                if let (OperandPos::Dst, Operand::Var(v)) = (pos, old) {
                    full.insert(*v);
                }
                if !rewrites.iter().any(|&(s, p, _)| s == id && p == *pos) {
                    rewrites.push((id, *pos, k));
                }
            }
        }
    }
    // A deleted statement's rewrites died with it, a placed one's are
    // covered by its placement, and a slot rewritten back to what it held
    // changed nothing.
    rewrites.retain(|&(s, pos, k)| {
        let EditOp::Modify { old, .. } = &delta.ops()[k] else {
            unreachable!("rewrites index Modify ops")
        };
        prog.is_live(s) && !placed.contains(&s) && prog.quad(s).operand(pos) != old
    });
    let sites = Sites {
        placed: &placed,
        removed: &removed,
        rewrites: &rewrites,
    };

    // Where each placed statement sits: the untouched statement before
    // it (`None` = the program start) and how many placed ones precede
    // it from there. Read before anything is patched.
    let mut anchors = Vec::with_capacity(sites.placed.len());
    for &s in sites.placed {
        let mut k = 0;
        let mut p = prog.prev(s);
        while let Some(x) = p.filter(|&x| sites.placed(x)) {
            k += 1;
            p = prog.prev(x);
        }
        if p.is_some_and(|x| !in_snapshot(x)) {
            return reanalyze(g, prog);
        }
        anchors.push((p, k));
    }

    // New accesses, and the rewritten headers.
    let mut scalars = full.clone();
    for &s in sites.placed {
        let q = prog.quad(s);
        note_def(q, &mut full);
        note_def(q, &mut scalars);
        for pos in OperandPos::ALL {
            note_accesses(q.operand(pos), &mut scalars, &mut arrays);
        }
    }
    // Rewritten loop and `if` headers; rewritten `if` headers with their
    // new control variable; rewritten loops, with the trip count and
    // whether the bounds equalled an adjacent partner's before.
    let mut headers = Vec::new();
    let mut control = Vec::new();
    let mut bound: Vec<(LoopId, Option<i64>, bool)> = Vec::new();
    // Rewritten bounds. A loop whose trip count changed re-tests the
    // pairs its trip count can decide (`governed` below); one whose
    // bounds equalled a partner's before or after the rewrite re-tests
    // its previews, which exist only between loops with equal bounds.
    let equal_partner = |loops: &LoopTable, l: LoopId| {
        let info = loops.get(l);
        adjacent_partners(prog, loops, l)
            .any(|p| loops.get(p).init == info.init && loops.get(p).fin == info.fin)
    };
    for &(s, pos, _) in sites.rewrites {
        let q = prog.quad(s);
        if q.op.is_loop_head() {
            let l = g
                .loops
                .loop_of_head(s)
                .expect("the snapshot has every rewritten loop");
            if !bound.iter().any(|&(b, ..)| b == l) {
                bound.push((l, g.loops.trip_count(l), equal_partner(&g.loops, l)));
            }
        } else if q.op.is_if() && !control.iter().any(|&(h, _)| h == s) {
            control.push((s, control_var(prog, q)));
        }
        if (q.op.is_loop_head() || q.op.is_if()) && !headers.contains(&s) {
            headers.push(s);
        }
        if pos == OperandPos::Dst {
            note_def(q, &mut full);
            note_def(q, &mut scalars);
        }
        note_accesses(q.operand(pos), &mut scalars, &mut arrays);
    }
    // Loops whose trip count change can decide a pair (see `trip_scope`),
    // with the trip counts before and after; loops whose previews are
    // all re-tested.
    let mut trips = Vec::new();
    let mut redo = Vec::new();
    for &(l, ..) in bound.iter() {
        g.loops.refresh_bounds(prog, l);
    }
    for &(l, trip, equal) in bound.iter() {
        let now = g.loops.trip_count(l);
        if now != trip {
            if let Some(all) = trip_scope(prog, &g.loops, l, trip, now) {
                trips.push((l, all, trip, now));
            }
        }
        if equal || equal_partner(&g.loops, l) {
            redo.push(l);
        }
    }

    // Loops next to a boundary the batch placed a statement at or removed
    // one from: their adjacency may have changed, so they re-test their
    // previews too. The last statement removed from between two
    // untouched ones recorded the first as its predecessor, so the
    // recorded anchors reach every such boundary.
    let mut boundary = |before: Option<StmtId>, after: Option<StmtId>| {
        if let Some(l) = before.and_then(|p| g.loops.loop_of_end(p)) {
            note_loop(l, &mut redo);
        }
        if let Some(l) = after.and_then(|n| g.loops.loop_of_head(n)) {
            note_loop(l, &mut redo);
        }
    };
    for (&s, &(p, _)) in sites.placed.iter().zip(anchors.iter()) {
        boundary(p, sites.settled_forward(prog, prog.next(s)));
    }
    for op in delta.ops() {
        let (EditOp::Delete { prev, .. } | EditOp::Move { old_prev: prev, .. }) = op else {
            continue;
        };
        match prev {
            Some(p) if !prog.is_live(*p) => {}
            Some(p) => boundary(
                sites.settled_back(prog, Some(*p)),
                sites.settled_forward(prog, prog.next(*p)),
            ),
            None => boundary(None, sites.settled_forward(prog, prog.first())),
        }
    }
    // The arrays whose pairs are re-tested, and the loops whose
    // partnership signatures changed: those whose header or adjacency
    // did, and their partners.
    let mut tested = Vec::new();
    let mut resign = Vec::new();
    for &(l, ..) in trips.iter() {
        note_loop(l, &mut tested);
    }
    for &l in redo.iter() {
        for p in std::iter::once(l).chain(adjacent_partners(prog, &g.loops, l)) {
            note_loop(p, &mut tested);
            note_loop(p, &mut resign);
        }
    }
    for &(l, ..) in bound.iter() {
        for p in std::iter::once(l).chain(adjacent_partners(prog, &g.loops, l)) {
            note_loop(p, &mut resign);
        }
    }
    note_body_arrays(prog, &g.loops, &tested, &mut arrays);

    // The placed statements' control edges, read off the snapshot's
    // control edges before they change.
    let mut fresh = Vec::new();
    for &s in sites.placed {
        controllers(g, prog, &sites, s, |h| {
            fresh.push(DepEdge {
                src: h,
                dst: s,
                kind: DepKind::Control,
                var: control_var(prog, prog.quad(h)),
                src_pos: OperandPos::Dst,
                dst_pos: OperandPos::Dst,
                dirvec: Vec::new(),
            });
        });
    }

    // Patch the order table: survivors keep their relative order, each
    // shifted past the removed statements and the placed runs before it.
    let id_bound = prog.id_bound();
    g.order.resize(id_bound, u32::MAX);
    g.ctx.resize(id_bound, 0);
    let moved = !sites.placed.is_empty() || !sites.removed.is_empty();
    if moved {
        let mut gaps: Vec<u32> = sites.removed.iter().map(|s| g.order[s.index()]).collect();
        gaps.sort_unstable();
        let mut runs: Vec<u32> = anchors
            .iter()
            .map(|(p, _)| p.map_or(0, |p| g.order[p.index()] + 1))
            .collect();
        runs.sort_unstable();
        for p in g.order.iter_mut().filter(|p| **p != u32::MAX) {
            let gone = gaps.partition_point(|&r| r < *p) as u32;
            let placed = runs.partition_point(|&m| m <= *p) as u32;
            *p = *p - gone + placed;
        }
        for &s in sites.removed {
            g.order[s.index()] = u32::MAX;
            if !prog.is_live(s) {
                g.loops.place(s, None);
            }
        }
        for (&s, &(p, k)) in sites.placed.iter().zip(anchors.iter()) {
            g.order[s.index()] = p.map_or(0, |p| g.order[p.index()] + 1) + k;
            let innermost = p.and_then(|p| {
                g.loops
                    .loop_of_head(p)
                    .or_else(|| g.loops.innermost_at(p))
            });
            g.loops.place(s, innermost);
            g.ctx[s.index()] = context_after(prog, &g.ctx, p);
        }
    }
    // Re-sign the regions of rewritten headers (an outer region covers an
    // inner one, so the order of the walks does not matter) and the
    // partnerships whose header quads or adjacency changed.
    let mut frames = Vec::new();
    for &h in headers.iter() {
        fold_context(prog, h, g.ctx[h.index()], &mut g.ctx, true, &mut frames);
    }
    for &l in resign.iter() {
        let head = g.loops.get(l).head;
        if let Ok(i) = g.partners.binary_search_by_key(&head, |&(h, _)| h) {
            g.partners[i].1 = partnership(prog, &g.loops, l);
        }
    }
    // Loop membership by position: a body is the run strictly between
    // its markers in the patched order table.
    let (loops, order) = (&g.loops, &g.order);
    let inside = |l: LoopId, s: StmtId| {
        let info = loops.get(l);
        (order[info.head.index()] + 1..order[info.end.index()]).contains(&order[s.index()])
    };
    // An array pair a changed trip count governs: both references in the
    // loop, and a verdict the new trip count can change.
    let governed = |a: Site, b: Site| {
        trips.iter().any(|&(l, all, before, after)| {
            inside(l, a.0)
                && inside(l, b.0)
                && (all || trip_decides(prog, a, b, loops.get(l).lcv, before, after))
        })
    };
    // A fusion preview of a loop whose previews are all re-tested: one
    // end in the loop, one outside, one level more than the loop's depth.
    let preview_of_redo = |e: &DepEdge| {
        redo.iter()
            .any(|&l| inside(l, e.src) != inside(l, e.dst) && e.dirvec.len() > loops.get(l).depth)
    };

    // Drop exactly the stale edges.
    let stale = |e: &DepEdge| {
        if e.kind == DepKind::Control {
            return sites.removed(e.dst);
        }
        sites.removed(e.src)
            || sites.removed(e.dst)
            || sites.rewritten(e.src, e.src_pos)
            || sites.rewritten(e.dst, e.dst_pos)
            || full.contains(e.var)
            || (arrays.contains(e.var)
                && (preview_of_redo(e) || governed((e.src, e.src_pos), (e.dst, e.dst_pos))))
    };
    let mut edges = std::mem::take(&mut g.edges);
    let mut gone: Vec<u32> = Vec::new();
    if full.is_empty() {
        // Every other stale edge has an end at a removed statement, at a
        // rewritten slot, or in a loop whose pairs are re-tested, so only
        // those statements' adjacency rows are examined.
        let mut visit = |s: StmtId, within: Option<LoopId>| {
            let from = g.from.row(s.index()).iter();
            // An edge from inside the loop was seen in its source's row.
            let to = g.to.row(s.index()).iter().filter(|&&i| {
                within.is_none_or(|l| !inside(l, edges[i as usize].src))
            });
            gone.extend(from.chain(to).filter(|&&i| stale(&edges[i as usize])));
        };
        sites.removed.iter().for_each(|&s| visit(s, None));
        sites.rewrites.iter().for_each(|&(s, ..)| visit(s, None));
        for &l in trips.iter().map(|(l, ..)| l).chain(redo.iter()) {
            loops.body(prog, l).for_each(|s| visit(s, Some(l)));
        }
    } else {
        gone.extend((0..edges.len() as u32).filter(|&i| stale(&edges[i as usize])));
    }
    gone.sort_unstable();
    gone.dedup();
    let edges_dropped = gone.len();
    let mut next = gone.iter().copied().peekable();
    let mut i = 0u32;
    edges.retain(|_| {
        let drop = next.next_if_eq(&i).is_some();
        i += 1;
        !drop
    });
    // The control edges of rewritten `if` headers carry the header's
    // first compared scalar, and keep their place in the order.
    let mut patched = 0;
    if !control.is_empty() {
        for e in edges.iter_mut().filter(|e| e.kind == DepKind::Control) {
            if let Some(&(_, var)) = control.iter().find(|&&(h, _)| h == e.src) {
                e.var = var;
                patched += 1;
            }
        }
    }

    // Re-derive: every edge of a scalar whose kills changed, the fresh
    // sites' edges, and the array pairs and previews re-tested.
    if !scalars.is_empty() {
        fresh.extend(scalar_deps_filtered(
            prog,
            &Cfg::of(prog),
            loops,
            order,
            Some(&scalars),
            |a, b| full.contains(a.var) || sites.fresh((a.stmt, a.pos)) || sites.fresh((b.stmt, b.pos)),
        ));
    }
    if !arrays.is_empty() {
        fresh.extend(array_deps_scoped(
            prog,
            loops,
            order,
            Some(&arrays),
            |a, b| sites.fresh(a) || sites.fresh(b) || governed(a, b),
            |(l1, l2), a, b| {
                sites.fresh(a)
                    || sites.fresh(b)
                    || redo.contains(&l1)
                    || redo.contains(&l2)
                    || governed(a, b)
            },
        ));
    }
    let added = fresh.len();
    if !fresh.is_empty() {
        build::merge_sorted(order, &mut edges, &mut g.spare, &mut fresh, &mut g.keyed);
    }
    g.edges = edges;
    if added > 0 || edges_dropped > 0 || id_bound != old_bound {
        g.reindex(id_bound);
    }

    // The frontier, as the structural path computes it.
    let mut focus = Vec::new();
    for &h in &j.bound_heads {
        if let Some(l) = g.loops.loop_of_head(h) {
            for p in std::iter::once(l).chain(adjacent_partners(prog, &g.loops, l)) {
                note_loop(p, &mut focus);
            }
        }
    }
    for &m in &j.pair_markers {
        if let Some(l) = g.loops.loop_of_end(m).or_else(|| g.loops.loop_of_head(m)) {
            note_loop(l, &mut focus);
        }
    }
    note_body_arrays(prog, &g.loops, &focus, &mut j.dirty);
    let frontier = if j.from_start {
        prog.first()
    } else {
        resume_frontier(prog, &g.order, &j.touched, None, &j.dirty)
    };
    Ok(DepUpdate {
        kind: UpdateKind::Incremental,
        frontier,
        stats: UpdateStats {
            dirty_syms: j.dirty.len(),
            edges_dropped: edges_dropped + patched,
            edges_added: added + patched,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;

    fn nth(p: &Program, n: usize) -> StmtId {
        p.iter().nth(n).unwrap()
    }

    fn assert_matches_fresh(prog: &Program, g: &DepGraph) {
        let fresh = DepGraph::analyze(prog).unwrap();
        assert!(
            g.agrees_with(&fresh),
            "incremental graph diverged from fresh analysis:\n inc: {:#?}\n new: {:#?}",
            g.edges(),
            fresh.edges()
        );
    }

    #[test]
    fn empty_delta_is_noop() {
        let p = compile("program p\ninteger x\nx = 1\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let up = g.update(&p, &EditDelta::new()).unwrap();
        assert_eq!(up.kind, UpdateKind::Noop);
        assert_eq!(up.frontier, None);
    }

    #[test]
    fn modify_updates_incrementally() {
        let mut p =
            compile("program p\ninteger x, y, z\nx = 1\ny = x\nz = y\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s2 = nth(&p, 2);
        // z = y  becomes  z = x : y's flow edge dies, x gains one.
        let x = p.syms().lookup("x").unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, s2, OperandPos::A, Operand::Var(x));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn delete_updates_incrementally() {
        let mut p =
            compile("program p\ninteger x, y\nx = 1\nx = 2\ny = x\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s1 = nth(&p, 1);
        let mut d = EditDelta::new();
        d.delete(&mut p, s1); // now x = 1 reaches y = x
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
        // the dead statement has no adjacency anymore
        assert_eq!(g.from(s1).count(), 0);
        assert_eq!(g.to(s1).count(), 0);
    }

    #[test]
    fn move_and_copy_update_incrementally() {
        let mut p = compile(
            "program p\ninteger x, y, z\nx = 1\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s0 = nth(&p, 0);
        let s2 = nth(&p, 2);
        let mut d = EditDelta::new();
        d.move_after(&mut p, s0, Some(s2));
        d.copy_after(&mut p, s2, None);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn edits_inside_loops_stay_exact() {
        let mut p = compile(
            "program p\ninteger i, s, t\ns = 0\nt = 0\ndo i = 1, 10\ns = s + 1\nt = t + 2\nend do\nwrite s\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        // delete the accumulator bump of t inside the loop
        let t_bump = nth(&p, 4);
        let mut d = EditDelta::new();
        d.delete(&mut p, t_bump);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn structural_edit_updates_by_signature_diff() {
        // Deleting the loop markers (head + end) dissolves the loop: a
        // structural batch, handled by context-signature diffing — the
        // body statement left the loop, so its symbols are dirtied and
        // its edges re-derived (the carried output dependence on s dies).
        let mut p = compile(
            "program p\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + 1\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let head = nth(&p, 1);
        let end = nth(&p, 3);
        let mut d = EditDelta::new();
        d.delete(&mut p, head);
        d.delete(&mut p, end);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Structural);
        assert_matches_fresh(&p, &g);
        // The frontier is justified: the first affected statement is the
        // (former) loop body, not the program start — `s = 0` kept both
        // its context and its symbols' edges... except s itself is dirty
        // (the body mentions it), so the frontier is its first mention.
        assert_eq!(up.frontier, p.first());
    }

    #[test]
    fn loop_creation_updates_by_signature_diff() {
        // Wrapping existing statements in new loop markers gives them a
        // carried dependence they did not have: the inserted head/end are
        // structural, the body statements' contexts change, and the
        // signature diff dirties their symbols.
        let mut p = compile(
            "program p\ninteger i, s\ns = 0\ns = s + 1\nwrite s\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s0 = nth(&p, 0);
        let bump = nth(&p, 1);
        let i = p.syms().lookup("i").unwrap();
        let mut d = EditDelta::new();
        d.insert_after(
            &mut p,
            Some(s0),
            Quad::new(
                Opcode::DoHead,
                Operand::Var(i),
                Operand::int(1),
                Operand::int(10),
            ),
        );
        d.insert_after(&mut p, Some(bump), Quad::marker(Opcode::EndDo));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Structural);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn loop_merge_updates_by_signature_diff() {
        // The FUS shape: deleting L1's end-do and L2's head merges the
        // two bodies under one header. Statements from L2's body change
        // context (new enclosing header identity), so cross-body carried
        // edges are re-derived even though neither body statement was in
        // the batch.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 100\na(i) = x\nend do\ndo i = 1, 100\nx = a(i)\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let end1 = nth(&p, 2);
        let head2 = nth(&p, 3);
        let mut d = EditDelta::new();
        d.delete(&mut p, end1);
        d.delete(&mut p, head2);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Structural);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn branch_restructure_updates_by_signature_diff() {
        // Moving the else marker flips which branch `z = 2` sits on: its
        // context signature changes via the else-transform of the
        // innermost frame, so its symbols are re-derived even though the
        // batch never named it.
        let mut p = compile(
            "program p\ninteger x, y, z\nx = 1\nif (x < 5) then\ny = 1\nz = 2\nelse\ny = 3\nend if\nwrite y\nwrite z\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let y_then = nth(&p, 2); // y = 1
        let else_m = nth(&p, 4);
        let mut d = EditDelta::new();
        d.move_after(&mut p, else_m, Some(y_then)); // z = 2 → else side
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Structural);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn structural_batches_converge_over_a_sequence() {
        // Several structural rounds against the same graph: each update
        // must leave signatures consistent for the next diff.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), b(100), x\ndo i = 1, 100\na(i) = x\nend do\ndo i = 1, 100\nb(i) = a(i)\nend do\nwrite x\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        // Round 1: merge the loops.
        let end1 = nth(&p, 2);
        let head2 = nth(&p, 3);
        let mut d = EditDelta::new();
        d.delete(&mut p, end1);
        d.delete(&mut p, head2);
        assert_eq!(
            g.update(&p, &d).unwrap().kind,
            UpdateKind::Structural
        );
        assert_matches_fresh(&p, &g);
        // Round 2: split them again around the b-write.
        let a_write = nth(&p, 1);
        let i = p.syms().lookup("i").unwrap();
        let mut d2 = EditDelta::new();
        let new_end = d2.insert_after(&mut p, Some(a_write), Quad::marker(Opcode::EndDo));
        d2.insert_after(
            &mut p,
            Some(new_end),
            Quad::new(
                Opcode::DoHead,
                Operand::Var(i),
                Operand::int(1),
                Operand::int(100),
            ),
        );
        assert_eq!(
            g.update(&p, &d2).unwrap().kind,
            UpdateKind::Structural
        );
        assert_matches_fresh(&p, &g);
        // Round 3: a plain edit still takes the narrow path afterwards.
        let mut d3 = EditDelta::new();
        let wr = p.iter().find(|&s| p.quad(s).op == Opcode::Write).unwrap();
        d3.modify(&mut p, wr, OperandPos::A, Operand::Var(i));
        assert_eq!(
            g.update(&p, &d3).unwrap().kind,
            UpdateKind::Incremental
        );
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn loop_bound_modify_rebuilds_the_array_layer() {
        // Shrinking a loop's bound changes trip counts, which the
        // subscript tests bake into edges of arrays the edit never
        // mentions — every array referenced in the modified loop is
        // dirtied (here the loop is also the first statement).
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 100\na(i) = x\nx = a(i-50)\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let head = nth(&p, 0);
        let mut d = EditDelta::new();
        d.modify(&mut p, head, OperandPos::B, Operand::int(20));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_eq!(up.frontier, p.first());
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn use_rewritten_to_a_constant_drops_only_its_own_edges() {
        // `y = x + x` → `y = 3 + x`: the flow edge into slot A dies, the
        // one into slot B stays, and nothing is re-derived.
        let mut p = compile("program p\ninteger x, y\nx = 1\ny = x + x\nwrite y\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s1 = nth(&p, 1);
        let mut d = EditDelta::new();
        d.modify(&mut p, s1, OperandPos::A, Operand::int(3));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_eq!((up.stats.edges_dropped, up.stats.edges_added), (1, 0));
        assert_eq!(up.frontier, Some(nth(&p, 0)));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn use_rewritten_to_a_variable_derives_only_the_new_access() {
        // `y = x` → `y = z`: x's flow edge into the use goes, z's comes;
        // x's other edges (the output pair, the flow into `w = x`) stay.
        let mut p = compile(
            "program p\ninteger x, y, z, w\nx = 1\nz = 2\nx = 3\ny = x\nw = x\nwrite y\nwrite w\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s3 = nth(&p, 3);
        let z = p.syms().lookup("z").unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, s3, OperandPos::A, Operand::Var(z));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_eq!((up.stats.edges_dropped, up.stats.edges_added), (1, 1));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn element_rewritten_to_a_constant_drops_its_array_and_subscript_edges() {
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x\ndo i = 2, 100\na(i) = x\nx = a(i-1)\nend do\nwrite x\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let read = nth(&p, 2); // x = a(i-1)
        let mut d = EditDelta::new();
        d.modify(&mut p, read, OperandPos::A, Operand::real(0.5));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_eq!(up.stats.edges_added, 0);
        assert!(g
            .to(read)
            .all(|e| e.dst_pos != OperandPos::A || e.kind == DepKind::Control));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn use_rewritten_to_an_element_derives_its_array_pairs() {
        // `x = y` → `x = a(i-1)` inside the loop: the new reference pairs
        // with the write `a(i)` (a carried flow) and reads i.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x, y\ndo i = 2, 100\na(i) = y\nx = y\nend do\nwrite x\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let copy = nth(&p, 2);
        let a = p.syms().lookup("a").unwrap();
        let i = p.syms().lookup("i").unwrap();
        let sub = gospel_ir::AffineExpr::var(i).plus(&gospel_ir::AffineExpr::constant_expr(-1));
        let mut d = EditDelta::new();
        d.modify(&mut p, copy, OperandPos::A, Operand::elem1(a, sub));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert!(g.exists(DepKind::Flow, nth(&p, 1), copy, &crate::DirPattern::any()));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn definition_rewrite_rederives_the_old_and_new_variable() {
        // `x = 2` → `y = 2`: the kill of x moves, so `x = 1` now reaches
        // the use, and y gains a definition — both variables' edges are
        // re-derived wholesale.
        let mut p =
            compile("program p\ninteger x, y\nx = 1\nx = 2\nwrite x\nwrite y\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s1 = nth(&p, 1);
        let y = p.syms().lookup("y").unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, s1, OperandPos::Dst, Operand::Var(y));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
        assert!(g.exists(
            DepKind::Flow,
            nth(&p, 0),
            nth(&p, 2),
            &crate::DirPattern::any()
        ));
    }

    #[test]
    fn if_header_rewrite_refreshes_its_control_var() {
        // The header's control edges carry its first compared scalar:
        // `if (x > 0)` → `if (z > 0)` moves them from x to z.
        let mut p = compile(
            "program p\ninteger x, y, z\nif (x > 0) then\ny = 1\nelse\ny = 2\nend if\nwrite y\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let head = nth(&p, 0);
        let z = p.syms().lookup("z").unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, head, OperandPos::A, Operand::Var(z));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        let ctrl: Vec<_> = g
            .from(head)
            .filter(|e| e.kind == DepKind::Control)
            .collect();
        assert_eq!(ctrl.len(), 2);
        assert!(ctrl.iter().all(|e| e.var == z));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn loop_bound_rewrite_refreshes_the_loop_and_its_previews() {
        // Two adjacent equal-bound loops over `a`: their fusion previews
        // exist. Rewriting the second loop's bound breaks the bound
        // equality (previews go), and restoring it brings them back. The
        // third loop is not adjacent to the rewritten one: its edges stay.
        let mut p = compile(
            "program p\ninteger i, j, n\nreal a(100), b(100), x\ndo i = 1, 100\na(i) = x\nend do\ndo i = 1, 100\nx = a(i)\nend do\nx = 0.5\ndo j = 1, 100\nb(j) = b(j-1)\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let a = p.syms().lookup("a").unwrap();
        let previews = |g: &DepGraph| {
            g.edges()
                .iter()
                .filter(|e| e.var == a && e.dirvec.len() == 1)
                .count()
        };
        assert_eq!(previews(&g), 1);
        let head2 = nth(&p, 3);
        let n = p.syms().lookup("n").unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, head2, OperandPos::B, Operand::Var(n));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_eq!(g.loops().by_index(1).unwrap().fin, Operand::Var(n));
        assert_eq!(previews(&g), 0);
        assert_matches_fresh(&p, &g);
        let mut d2 = EditDelta::new();
        d2.modify(&mut p, head2, OperandPos::B, Operand::int(100));
        g.update(&p, &d2).unwrap();
        assert_eq!(previews(&g), 1);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn bound_rewrite_frontier_covers_the_focus_arrays() {
        // The frontier is the first mention of any array the rewritten
        // loop references — here before the loop — as it was before the
        // site-granular update, so resumed searches visit the same anchors.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x, y\ny = 1.0\nx = a(1)\ndo i = 1, 100\na(i) = x\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let head = nth(&p, 2);
        let mut d = EditDelta::new();
        d.modify(&mut p, head, OperandPos::B, Operand::int(50));
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.frontier, Some(nth(&p, 1)));
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn header_rewrite_refreshes_the_signatures() {
        // The bound rewrite changes the header quad both signatures hash.
        // The structural batch after it restores the bound: diffed
        // against stale signatures, the loop would look unchanged and its
        // trip-count-pruned edges would never come back.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 10\na(i) = x\nx = a(i-1)\nend do\nwrite x\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let head = nth(&p, 0);
        let mut d = EditDelta::new();
        d.modify(&mut p, head, OperandPos::B, Operand::int(1));
        g.update(&p, &d).unwrap();
        assert_matches_fresh(&p, &g);
        let wr = nth(&p, 4);
        let x = p.syms().lookup("x").unwrap();
        let mut d2 = EditDelta::new();
        let h = d2.insert_after(
            &mut p,
            Some(wr),
            Quad::new(
                Opcode::IfGt,
                Operand::None,
                Operand::Var(x),
                Operand::int(0),
            ),
        );
        d2.insert_after(&mut p, Some(h), Quad::marker(Opcode::EndIf));
        d2.modify(&mut p, head, OperandPos::B, Operand::int(10));
        assert_eq!(g.update(&p, &d2).unwrap().kind, UpdateKind::Structural);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn a_stale_snapshot_is_analyzed_afresh() {
        // An insert whose update was skipped leaves the snapshot without
        // the new statement. Rewrites that would make the site update
        // read the snapshot's tables for it get a full analysis instead:
        // one re-derives the new statement's variable, one rewrites the
        // new statement itself.
        let mut p = compile("program p\ninteger x, y, z\nx = 1\ny = x\nend").unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s0 = nth(&p, 0);
        let use_x = nth(&p, 1);
        let z = p.syms().lookup("z").unwrap();
        let mut skipped = EditDelta::new();
        let def_z = skipped.insert_after(
            &mut p,
            Some(s0),
            Quad::assign(Operand::Var(z), Operand::int(3)),
        );
        let mut d = EditDelta::new();
        d.modify(&mut p, use_x, OperandPos::A, Operand::Var(z));
        assert_eq!(g.update(&p, &d).unwrap().kind, UpdateKind::Full);
        assert_matches_fresh(&p, &g);
        let mut d2 = EditDelta::new();
        d2.modify(&mut p, def_z, OperandPos::A, Operand::int(4));
        assert_eq!(g.update(&p, &d2).unwrap().kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);

        // A loop whose markers came back after the snapshot was taken
        // (an undo nobody reported): the snapshot has no such loop.
        let mut p = compile("program p\ninteger i, x\ndo i = 1, 10\nx = i\nend do\nend").unwrap();
        let (head, end) = (nth(&p, 0), nth(&p, 2));
        let mut dissolve = EditDelta::new();
        dissolve.delete(&mut p, head);
        dissolve.delete(&mut p, end);
        let mut g = DepGraph::analyze(&p).unwrap();
        dissolve.undo(&mut p);
        let mut d3 = EditDelta::new();
        d3.modify(&mut p, head, OperandPos::B, Operand::int(20));
        assert_eq!(g.update(&p, &d3).unwrap().kind, UpdateKind::Full);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn frontier_points_at_earliest_affected_statement() {
        let mut p = compile(
            "program p\ninteger a, b, x, y\na = 1\nb = 2\nx = 3\ny = x\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let s2 = nth(&p, 2); // x = 3
        let mut d = EditDelta::new();
        d.modify(&mut p, s2, OperandPos::A, Operand::int(9));
        let up = g.update(&p, &d).unwrap();
        // a and b are untouched; the frontier is the edited statement.
        assert_eq!(up.frontier, Some(s2));
        // deleting the first statement pins the frontier to the start
        let mut d2 = EditDelta::new();
        let s0 = nth(&p, 0);
        d2.delete(&mut p, s0);
        let up2 = g.update(&p, &d2).unwrap();
        assert_eq!(up2.frontier, p.first());
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn boundary_edits_rebuild_the_array_layer() {
        // Two equal-bound loops over `a` separated by one plain
        // statement: deleting it makes the loops adjacent, which must
        // create fusion-preview edges for `a` — an array the deleted
        // statement never mentions, repaired by dirtying every array.
        let mut p = compile(
            "program p\ninteger i\nreal a(100), x, t\ndo i = 1, 100\na(i) = x\nend do\nt = 0.5\ndo i = 1, 100\nx = a(i)\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        let sep = nth(&p, 3); // t = 0.5
        let mut d = EditDelta::new();
        d.delete(&mut p, sep);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        // the frontier lands on the first reference of the dirtied array,
        // not the top of the program: resumption survives the preview fix
        assert_eq!(up.frontier, Some(nth(&p, 1)));
        assert_matches_fresh(&p, &g);

        // And the reverse: re-inserting a statement at the boundary
        // breaks the adjacency, so the preview edges must disappear.
        let end1 = nth(&p, 2);
        let mut d2 = EditDelta::new();
        let t = p.syms().lookup("t").unwrap();
        d2.insert_after(
            &mut p,
            Some(end1),
            Quad::assign(Operand::Var(t), Operand::real(0.5)),
        );
        let up2 = g.update(&p, &d2).unwrap();
        assert_eq!(up2.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
    }

    #[test]
    fn array_edits_update_incrementally() {
        let mut p = compile(
            "program p\ninteger i\nreal a(100), b(100), x\ndo i = 2, 100\na(i) = x\nx = a(i-1)\nb(i) = x\nend do\nend",
        )
        .unwrap();
        let mut g = DepGraph::analyze(&p).unwrap();
        // delete the b(i) write: b's edges must go, a's must survive
        let b_write = nth(&p, 3);
        let mut d = EditDelta::new();
        d.delete(&mut p, b_write);
        let up = g.update(&p, &d).unwrap();
        assert_eq!(up.kind, UpdateKind::Incremental);
        assert_matches_fresh(&p, &g);
    }
}
