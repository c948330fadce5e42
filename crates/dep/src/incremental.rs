//! Incremental dependence maintenance: update a [`DepGraph`] from an
//! [`EditDelta`] instead of re-analyzing the whole program.
//!
//! The update is *exact*, not approximate. It has three paths, from the
//! narrowest to the widest.
//!
//! ## Operand rewrites
//!
//! A non-structural batch made only of `Modify` ops leaves program order
//! and marker structure alone, so the snapshot's order table, control
//! edges and signatures stay (except as below), and each rewritten slot
//! `(stmt, pos)` updates only the edges its accesses take part in. Every
//! scalar and array edge names its endpoint slots, and the accesses at
//! `(stmt, pos)` — the scalar there, the subscript scalars of an element
//! there, the array reference — all belong to that slot's operand. Per
//! kind of slot:
//!
//! * **A used operand.** Removing a use creates or changes no other edge:
//!   uses kill nothing in reaching definitions or reaching uses (each
//!   use is its own bit), the carried-edge exposure test kills on
//!   definitions only (`scalars.rs`), and array edges are tested pair by
//!   pair. Adding a use likewise only adds the new access's own edges. So
//!   the edges with an endpoint at the slot are dropped, and the new
//!   operand's scalars are re-derived per variable, keeping only the
//!   edges at the slot, while its array reference is tested against every
//!   reference of its array. A constant replacement re-derives nothing.
//! * **A scalar definition** (`Dst` of a defining statement). Kills
//!   change, so the old and the new defined variable's edges are dropped
//!   and re-derived wholesale, as on the per-variable path below.
//! * **An `if` header operand.** The header's control edges carry its
//!   first compared scalar as `var` (`control.rs`), so they are patched
//!   in place; each one's sort position is fixed by its (src, dst, kind)
//!   prefix, as a header controls each statement by one edge.
//! * **A loop bound** (`A`/`B` of a `do` head). The loop table's entry is
//!   refreshed. Bounds reach edges only through the array layer: trip
//!   counts of the pairs whose common nest includes the loop (both
//!   references in its body) and the fusion previews between the loop
//!   and its adjacent partners (bound equality gates them, and the
//!   aligned level is the loop itself). Exactly those array pairs are
//!   dropped and re-tested; a preview edge is told from an ordinary edge
//!   between the same two loops by its one extra direction level. The
//!   scalar layer never reads bounds.
//!
//! Rewriting a header quad also recomputes both signature tables, which
//! hash header quads. The search frontier is computed as on the general
//! path, from the same symbol set, so searches resume at the same anchor.
//!
//! ## Other non-structural batches
//!
//! * **Scalar edges.** The reaching-defs/uses transfer functions are
//!   per-variable: a definition of `v` generates and kills only bits of
//!   `v`'s accesses. Restricting the access tables to a set of variables
//!   therefore reproduces exactly the full analysis's dataflow facts for
//!   those variables ([`Accesses::collect_where`]). The *dirty set* —
//!   every symbol mentioned by a statement the edit batch touched
//!   (including pre-edit operands of `modify` and the snapshots of
//!   deleted quads) — is collected program-wide, and all edges of dirty
//!   symbols are dropped and re-derived. Edges of clean symbols cannot
//!   have changed: their endpoints were not edited (an edge incident to
//!   a touched statement carries one of that statement's own symbols,
//!   which is dirty by construction), their relative textual order is
//!   preserved by non-structural edits, and a moved statement that
//!   neither defines nor uses a clean variable is an identity transfer
//!   node the may-dataflow for that variable ignores.
//! * **Array edges.** Every array edge — including the fusion-preview
//!   edges — joins two references to the *same* array, so re-running the
//!   subscript tests over only the dirty arrays' references re-derives
//!   exactly the dropped edges.
//! * **Control edges.** Recomputed wholesale; the header-stack walk is
//!   linear and cheap.
//!
//! Two cases reach beyond the edit's own symbols. They are detected
//! here rather than in the journal and handled by dirtying every array
//! referenced in the affected *focus loops* (re-deriving their slice of
//! the array layer, previews included), while the scalar layer stays
//! restricted to the edit's symbols:
//!
//! * a plain statement inserted between or removed from between an
//!   `end do`/`do` pair changes whether those two loops are adjacent,
//!   and loop adjacency gates the fusion-preview pass — whose edges
//!   involve arrays the edited statement never mentions (focus: the two
//!   loops of the pair); and
//! * a loop header's *bound* operand rewritten changes trip counts,
//!   which only the array subscript tests consume — the loop table and
//!   control edges are rebuilt fresh on this path, and the scalar layer
//!   never reads bounds (focus: the modified loop, which encloses every
//!   pair whose common nest the bound governs, plus its adjacent loops,
//!   whose fusion previews test bound equality).
//!
//! ## Structural batches
//!
//! Edits that change the loop or branch *structure* (markers inserted,
//! deleted or relocated, or a loop header's control variable rewritten)
//! invalidate direction vectors and common nests for pairs that were
//! never touched. [`EditDelta::requires_full`] batches are still updated
//! incrementally, by *signature diffing*: every [`DepGraph`] snapshot
//! stores a per-statement **context signature** (the chain of enclosing
//! loop/branch constructs, hashing each header's identity and full quad
//! plus the branch side) and a per-loop **partnership signature** (the
//! adjacency neighborhood the fusion-preview pass reads). After a
//! structural batch the signatures are recomputed and every statement
//! whose context changed — entered or left a loop or branch, or sits
//! under a header whose bounds/control variable were rewritten — has its
//! symbols dirtied, and every loop whose partnership changed has its
//! body's arrays dirtied. Dataflow facts of a variable none of whose
//! accesses changed context are untouched by construction: in structured
//! code, reachability and kill paths between two accesses are a function
//! of their context chains, their relative order (which survivor
//! statements keep under any batch), and the accesses between them —
//! all either unchanged or dirty. Direction vectors and common nests
//! hash in through the header quads; preview edges through the
//! partnership signatures.
//!
//! [`Accesses::collect_where`]: crate::reach::Accesses::collect_where

use crate::arrays::{array_deps_filtered, array_deps_scoped, Site};
use crate::build::{self, AnalyzeError};
use crate::control::{assert_no_directions, control_deps, control_var};
use crate::edge::{DepEdge, DepKind};
use crate::query::DepGraph;
use crate::scalars::scalar_deps_filtered;
use gospel_ir::{
    Cfg, EditDelta, EditOp, LoopId, LoopTable, Opcode, Operand, OperandPos, Program, Quad, StmtId,
    Sym,
};
use std::hash::{Hash, Hasher};

/// How an update was carried out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateKind {
    /// The delta was empty; nothing changed.
    Noop,
    /// Only the dirty symbols' edges were re-derived.
    Incremental,
    /// A structural batch, handled incrementally: the dirty set was
    /// widened by context- and partnership-signature diffs instead of
    /// re-analyzing the whole program.
    Structural,
    /// A full re-analysis (structural batches only reach it through the
    /// caller's degradation ladder now).
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
    /// Stale data edges dropped before re-derivation.
    pub edges_dropped: usize,
    /// Edges re-derived against the post-edit program (data edges of the
    /// dirty symbols plus the rebuilt control layer; for a full fallback,
    /// every edge of the fresh graph).
    pub edges_added: usize,
}

/// A set of symbols as a dense bitset over [`Sym::index`] — the dirty
/// set of an update and the restriction the analysis passes read.
#[derive(Clone, Debug)]
pub(crate) struct SymSet {
    words: Vec<u64>,
}

impl SymSet {
    /// An empty set with room for `n` symbols.
    pub(crate) fn new(n: usize) -> SymSet {
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

/// Per-statement context signatures: one linear walk folding a stack of
/// enclosing-construct frames. A frame hashes the construct header's
/// identity and full quad (so a rewritten loop bound or control variable
/// changes every body statement's signature, and two textually equal
/// loops still produce distinct frames); `else` deterministically
/// transforms the innermost frame, so the two sides of a branch differ.
/// Markers take the surrounding context (the `LoopTable` convention:
/// head and end belong to the parent).
///
/// Two snapshots assigning a statement the same signature agree on its
/// whole dependence-relevant surroundings — the enclosing loop/branch
/// chain, every enclosing header's operands, and its branch side.
pub(crate) fn context_signatures(prog: &Program) -> Vec<u64> {
    let mut ctx = vec![0u64; prog.id_bound()];
    // Open frames, each paired with the fold of every frame up to it.
    let mut frames: Vec<(u64, u64)> = Vec::new();
    let combined = |frames: &[(u64, u64)]| frames.last().map_or(FNV_OFFSET, |&(_, c)| c);
    for s in prog.iter() {
        let q = prog.quad(s);
        match q.op {
            Opcode::EndDo | Opcode::EndIf => {
                frames.pop();
            }
            Opcode::Else => {
                if let Some((top, _)) = frames.pop() {
                    let top = mix(top, 0x5e1f);
                    frames.push((top, mix(combined(&frames), top)));
                }
            }
            _ => {}
        }
        ctx[s.index()] = combined(&frames);
        if q.op.is_loop_head() || q.op.is_if() {
            let frame = mix(mix(FNV_OFFSET, s.index() as u64 + 1), quad_hash(q));
            frames.push((frame, mix(combined(&frames), frame)));
        }
    }
    ctx
}

/// Per-loop partnership signatures, keyed by header statement and sorted
/// by it: the loop's own header quad plus each adjacent partner's header
/// identity and quad. Everything the fusion-preview pass conditions on —
/// which loops are adjacent and whether their bounds agree — is in the
/// signature, so an unchanged signature means the loop's preview edges
/// cannot have changed.
pub(crate) fn partnership_signatures(
    prog: &Program,
    loops: &LoopTable,
) -> Vec<(StmtId, u64)> {
    let adjacent = loops.adjacent_pairs(prog);
    let mut out: Vec<(StmtId, u64)> = loops
        .iter()
        .map(|info| {
            let mut h = mix(FNV_OFFSET, quad_hash(prog.quad(info.head)));
            for &(a, b) in &adjacent {
                let partner = if a == info.id {
                    Some(b)
                } else if b == info.id {
                    Some(a)
                } else {
                    None
                };
                if let Some(p) = partner {
                    let head = loops.get(p).head;
                    h = mix(h, head.index() as u64 + 1);
                    h = mix(h, quad_hash(prog.quad(head)));
                }
            }
            (info.head, h)
        })
        .collect();
    out.sort_unstable_by_key(|&(head, _)| head);
    out
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
/// splits: `id` sits directly between a loop end and a loop head, so its
/// placement broke the adjacency of those two loops, killing
/// fusion-preview edges of arrays the edit never mentions. A statement
/// with only one loopish neighbor changes nothing — the pair was not
/// adjacent before the edit either.
fn split_pair(prog: &Program, id: StmtId) -> Option<(StmtId, StmtId)> {
    let p = prog.prev(id)?;
    let n = prog.next(id)?;
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

/// Adds the loops whose array edges a bound rewrite at each of `heads`
/// can change to `focus`: the rewritten loop, which encloses every pair
/// whose common nest the bound governs, and its adjacent loops, whose
/// fusion previews test bound equality.
fn note_bound_focus(prog: &Program, loops: &LoopTable, heads: &[StmtId], focus: &mut Vec<LoopId>) {
    if heads.is_empty() {
        return;
    }
    let adjacent = loops.adjacent_pairs(prog);
    for &h in heads {
        if let Some(l) = loops.loop_of_head(h) {
            note_loop(l, focus);
            for &(a, b) in &adjacent {
                if a == l {
                    note_loop(b, focus);
                }
                if b == l {
                    note_loop(a, focus);
                }
            }
        }
    }
}

fn note_loop(l: LoopId, focus: &mut Vec<LoopId>) {
    if !focus.contains(&l) {
        focus.push(l);
    }
}

/// Adds every array referenced in the bodies of the `focus` loops to `set`.
fn note_body_arrays(prog: &Program, loops: &LoopTable, focus: &[LoopId], set: &mut SymSet) {
    if focus.is_empty() {
        return;
    }
    for s in prog.iter() {
        if focus.iter().any(|&l| loops.contains(l, s)) {
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
    let mut best: Option<(u32, StmtId)> = None;
    let mut consider = |s: StmtId| match order.get(s.index()) {
        Some(&p) if p != u32::MAX && best.is_none_or(|(bp, _)| p < bp) => best = Some((p, s)),
        _ => {}
    };
    touched.iter().copied().chain(extra).for_each(&mut consider);
    if let Some(s) = prog
        .iter()
        .find(|&s| quad_syms(prog.quad(s), &mut |v| dirty.contains(v)))
    {
        consider(s); // program order: the first hit is the earliest
    }
    best.map(|(_, s)| s).or_else(|| prog.first())
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
    if operands_only(g, prog, delta) {
        return update_operands(g, prog, delta);
    }
    let structural = delta.requires_full();

    // Dirty symbols and the statements whose neighborhood changed. A
    // statement touched by the batch may since have been deleted by a
    // later op in the same batch; its symbols are covered by that
    // delete's quad snapshot.
    let mut dirty = SymSet::new(prog.syms().len());
    let mut touched: Vec<StmtId> = Vec::new();
    let mut from_start = false;
    // Loop heads whose bound operands were rewritten, and the loop
    // markers of `end do`/`do` pairs whose adjacency an edit changed —
    // both invalidate array edges of those loops beyond the edit's own
    // symbols (trip counts and fusion previews, respectively).
    let mut bound_heads: Vec<StmtId> = Vec::new();
    let mut pair_markers: Vec<StmtId> = Vec::new();
    let note_pair = |pair: Option<(StmtId, StmtId)>, out: &mut Vec<StmtId>| {
        if let Some((e, h)) = pair {
            out.push(e);
            out.push(h);
        }
    };
    for op in delta.ops() {
        match op {
            EditOp::Insert { id } => {
                if prog.is_live(*id) {
                    dirty_quad(prog.quad(*id), &mut dirty);
                    touched.push(*id);
                    note_pair(split_pair(prog, *id), &mut pair_markers);
                    match prog.prev(*id) {
                        Some(p) => touched.push(p),
                        None => from_start = true,
                    }
                }
            }
            EditOp::Delete { prev, quad, .. } => {
                dirty_quad(quad, &mut dirty);
                note_pair(bridged_pair(prog, *prev), &mut pair_markers);
                match prev {
                    Some(p) if prog.is_live(*p) => touched.push(*p),
                    // The recorded anchor is gone too (or the statement
                    // was first); resume from the top.
                    _ => from_start = true,
                }
            }
            EditOp::Move { id, old_prev } => {
                if prog.is_live(*id) {
                    dirty_quad(prog.quad(*id), &mut dirty);
                    touched.push(*id);
                    note_pair(split_pair(prog, *id), &mut pair_markers);
                    match prog.prev(*id) {
                        Some(p) => touched.push(p),
                        None => from_start = true,
                    }
                }
                note_pair(bridged_pair(prog, *old_prev), &mut pair_markers);
                match old_prev {
                    Some(p) if prog.is_live(*p) => touched.push(*p),
                    _ => from_start = true,
                }
            }
            EditOp::Modify { id, pos, old } => {
                // Only the rewritten slot's accesses changed: the other
                // operands keep identical program-wide access sets, so
                // their edges cannot have moved. Dirty the old and new
                // operand symbols, not the whole quad.
                dirty_operand(old, &mut dirty);
                if prog.is_live(*id) {
                    dirty_operand(prog.quad(*id).operand(*pos), &mut dirty);
                    touched.push(*id);
                    // A loop-bound rewrite changes trip counts, which the
                    // array subscript tests bake into edges of arrays the
                    // edit never mentions (a control-variable rewrite is
                    // journal-structural and never reaches here).
                    if prog.quad(*id).op.is_loop_head() {
                        bound_heads.push(*id);
                    }
                }
            }
        }
    }

    // Structure of the post-edit program, needed both to scope the array
    // invalidation below and to re-derive the dirty edges. A
    // non-structural batch cannot unbalance the markers (none were
    // added, removed or relocated), so instead of the whole-program
    // validation only the touched statements are rechecked; a structural
    // batch gets the full walk — marker balance is exactly what it can
    // break.
    if structural {
        gospel_ir::validate(prog)?;
    } else {
        for &s in &touched {
            if prog.is_live(s) {
                gospel_ir::validate_stmt(prog, s)?;
            }
        }
    }
    let cfg = Cfg::of(prog);
    let loops = LoopTable::of(prog)?;

    let mut focus: Vec<LoopId> = Vec::new();
    // Earliest statement whose context signature changed, for the
    // frontier scan below (structural batches only).
    let mut ctx_frontier: Option<StmtId> = None;
    if structural {
        // Signature diffing: a statement that entered or left any
        // loop/branch construct, or whose enclosing headers' quads were
        // rewritten, gets its symbols dirtied; a loop whose
        // fusion-partnership neighborhood changed gets its body's arrays
        // dirtied (via the focus scan below). Everything else kept its
        // context chain, relative order and operands, so its
        // dependence facts are unchanged.
        let fresh_ctx = context_signatures(prog);
        for s in prog.iter() {
            if g.ctx_sig(s) != Some(fresh_ctx[s.index()]) {
                dirty_quad(prog.quad(s), &mut dirty);
                if ctx_frontier.is_none() {
                    ctx_frontier = Some(s);
                }
            }
        }
        let stored = g.partner_sigs();
        for &(head, sig) in &partnership_signatures(prog, &loops) {
            let old = stored
                .binary_search_by_key(&head, |&(h, _)| h)
                .ok()
                .map(|i| stored[i].1);
            if old != Some(sig) {
                if let Some(l) = loops.loop_of_head(head) {
                    note_loop(l, &mut focus);
                }
            }
        }
        // Loops present only in the old snapshot need no special case:
        // a vanished header changes the context signature of every
        // statement that was in its body.
    } else {
        // Trip counts feed the subscript tests of every pair nested in
        // the modified loop, and adjacency (or bound equality) gates the
        // fusion previews between a loop and its neighbors — both affect
        // edges of arrays no edited statement mentions. Dirty every array
        // referenced in the *focus* loops: the bound-modified loops, their
        // adjacent preview partners, and the loops whose adjacency
        // changed. The scalar layer never reads bounds or adjacency, so
        // it stays restricted to the edit's own symbols.
        note_bound_focus(prog, &loops, &bound_heads, &mut focus);
        for &m in &pair_markers {
            if let Some(l) = loops.loop_of_end(m).or_else(|| loops.loop_of_head(m)) {
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
    let mut edges = g.take_edges();
    let before_retain = edges.len();
    edges.retain(|e| e.kind != DepKind::Control && !dirty.contains(e.var));
    let edges_dropped = before_retain - edges.len();

    // Re-derive the dirty symbols' edges against the post-edit program.
    // One dense order table serves the derivation passes, the merge and
    // the frontier scan below.
    let order = build::dense_order(prog);
    let mut fresh = scalar_deps_filtered(prog, &cfg, &loops, &order, Some(&dirty));
    fresh.extend(array_deps_filtered(prog, &loops, &order, Some(&dirty)));
    let ctrl = control_deps(prog);
    assert_no_directions(&ctrl);
    fresh.extend(ctrl);
    let stats = UpdateStats {
        dirty_syms: dirty.len(),
        edges_dropped,
        edges_added: fresh.len(),
    };

    build::merge_sorted(&order, &mut edges, fresh);

    let frontier = if from_start {
        prog.first()
    } else {
        resume_frontier(prog, &order, &touched, ctx_frontier, &dirty)
    };

    *g = DepGraph::from_edges(prog, loops, edges, order);
    Ok(DepUpdate {
        kind: if structural {
            UpdateKind::Structural
        } else {
            UpdateKind::Incremental
        },
        frontier,
        stats,
    })
}

/// True for a batch the operand-granular path takes: non-structural and
/// made only of `Modify` ops on live statements. The path indexes the
/// snapshot's order and loop tables, so it also requires them to cover
/// every statement and rewritten loop; a snapshot left stale by a
/// skipped update goes to the general path, which rebuilds both.
fn operands_only(g: &DepGraph, prog: &Program, delta: &EditDelta) -> bool {
    !delta.requires_full()
        && g.order_table().len() == prog.id_bound()
        && delta.ops().iter().all(|op| {
            matches!(op, EditOp::Modify { id, .. }
                if prog.is_live(*id)
                    && (!prog.quad(*id).op.is_loop_head() || g.loops().loop_of_head(*id).is_some()))
        })
}

/// One operand slot a batch of `Modify` ops rewrote, with the operand it
/// held before the batch (the `old` of the slot's first `Modify`).
struct Rewrite<'d> {
    stmt: StmtId,
    pos: OperandPos,
    old: &'d Operand,
}

/// A rewritten loop bound's scope: the loop, and its adjacent partners.
struct BoundScope {
    l: LoopId,
    partners: Vec<LoopId>,
}

impl BoundScope {
    /// True if the array pair `a`, `b` is tested against the loop's trip
    /// count: both references sit in its body.
    fn nests(&self, loops: &LoopTable, a: StmtId, b: StmtId) -> bool {
        loops.contains(self.l, a) && loops.contains(self.l, b)
    }

    /// True if `a`, `b` sit in the loop and one of its adjacent
    /// partners, in either order: the pairs the fusion preview of the
    /// two loops tests.
    fn previews(&self, loops: &LoopTable, a: StmtId, b: StmtId) -> bool {
        let in_partner = |s| self.partners.iter().any(|&p| loops.contains(p, s));
        (loops.contains(self.l, a) && in_partner(b)) || (in_partner(a) && loops.contains(self.l, b))
    }
}

/// The operand-granular update of a non-structural batch made only of
/// `Modify` ops. Such a batch leaves program order and marker structure
/// alone, so the snapshot's order table and control edges stay, and its
/// signatures too unless a header quad was rewritten. Each rewritten
/// slot updates only the edges its accesses take part in (see the
/// module docs for why that is exact).
fn update_operands(
    g: &mut DepGraph,
    prog: &Program,
    delta: &EditDelta,
) -> Result<DepUpdate, AnalyzeError> {
    // The dirty set, touched statements and focus loops are collected as
    // the general path collects them, so the frontier — and with it the
    // resumed search — is the same. The re-derivation does not read them.
    let nsyms = prog.syms().len();
    let mut dirty = SymSet::new(nsyms);
    let mut touched: Vec<StmtId> = Vec::new();
    let mut bound_heads: Vec<StmtId> = Vec::new();
    let mut rewrites: Vec<Rewrite<'_>> = Vec::new();
    for op in delta.ops() {
        let EditOp::Modify { id, pos, old } = op else {
            unreachable!("operands_only admits Modify-only batches")
        };
        let quad = prog.quad(*id);
        dirty_operand(old, &mut dirty);
        dirty_operand(quad.operand(*pos), &mut dirty);
        touched.push(*id);
        if quad.op.is_loop_head() {
            bound_heads.push(*id);
        }
        if !rewrites.iter().any(|r| r.stmt == *id && r.pos == *pos) {
            rewrites.push(Rewrite {
                stmt: *id,
                pos: *pos,
                old,
            });
        }
    }
    for &s in &touched {
        gospel_ir::validate_stmt(prog, s)?;
    }
    // A slot rewritten back to what it held changed nothing.
    rewrites.retain(|r| prog.quad(r.stmt).operand(r.pos) != r.old);

    // What the new operands bring in, and what else their slots govern.
    let mut full = SymSet::new(nsyms); // scalars whose kills changed
    let mut scalars = SymSet::new(nsyms); // scalars to re-derive edges of
    let mut arrays = SymSet::new(nsyms); // arrays whose pairs are tested
    let mut headers = false;
    let mut control: Vec<(StmtId, Sym)> = Vec::new();
    let mut bound_loops: Vec<LoopId> = Vec::new();
    for r in &rewrites {
        let quad = prog.quad(r.stmt);
        if quad.op.is_loop_head() {
            headers = true;
            let l = g
                .loops()
                .loop_of_head(r.stmt)
                .expect("operands_only checked that the snapshot has this loop");
            g.loops_mut().refresh_bounds(prog, l);
            note_loop(l, &mut bound_loops);
        } else if quad.op.is_if() {
            headers = true;
            if !control.iter().any(|&(h, _)| h == r.stmt) {
                control.push((r.stmt, control_var(prog, quad)));
            }
        }
        if r.pos == OperandPos::Dst && quad.op.defines() {
            for op in [r.old, &quad.dst] {
                if let Operand::Var(v) = op {
                    full.insert(*v);
                    scalars.insert(*v);
                }
            }
        }
        match quad.operand(r.pos) {
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

    let mut edges = g.take_edges();
    let loops = g.loops();
    let order = g.order_table();
    let mut focus: Vec<LoopId> = Vec::new();
    note_bound_focus(prog, loops, &bound_heads, &mut focus);
    note_body_arrays(prog, loops, &focus, &mut dirty);
    let frontier = resume_frontier(prog, order, &touched, None, &dirty);

    let mut scopes: Vec<BoundScope> = Vec::new();
    if !bound_loops.is_empty() {
        let adjacent = loops.adjacent_pairs(prog);
        for &l in &bound_loops {
            let partners: Vec<LoopId> = adjacent
                .iter()
                .filter_map(|&(a, b)| (a == l).then_some(b).or((b == l).then_some(a)))
                .collect();
            let mut all = partners.clone();
            all.push(l);
            note_body_arrays(prog, loops, &all, &mut arrays);
            scopes.push(BoundScope { l, partners });
        }
    }

    let at = |s: StmtId, p: OperandPos| rewrites.iter().any(|r| r.stmt == s && r.pos == p);
    let touches = |e: &DepEdge| at(e.src, e.src_pos) || at(e.dst, e.dst_pos);
    // An array edge a rewritten bound governs: both ends in the loop, or
    // a fusion preview of the loop and a partner (a preview's vector has
    // one level more than the loops enclosing both ends).
    let governed = |e: &DepEdge| {
        scopes.iter().any(|sc| {
            sc.nests(loops, e.src, e.dst)
                || (e.dirvec.len() > loops.get(sc.l).depth && sc.previews(loops, e.src, e.dst))
        })
    };

    // Drop exactly the stale edges, and patch the control edges of
    // rewritten `if` headers: their `var` is the header's first compared
    // scalar. A header controls each statement by one edge, whose sort
    // position its (src, dst, kind) prefix fixes, so the patch keeps the
    // list in canonical order.
    let before = edges.len();
    let mut patched = 0;
    edges.retain_mut(|e| {
        if e.kind == DepKind::Control {
            if let Some(&(_, var)) = control.iter().find(|&&(h, _)| h == e.src) {
                e.var = var;
                patched += 1;
            }
            return true;
        }
        !(full.contains(e.var)
            || touches(e)
            || (!scopes.is_empty() && arrays.contains(e.var) && governed(e)))
    });
    let edges_dropped = before - edges.len();

    // Re-derive: every edge of a scalar whose kills changed, the new
    // accesses' edges, and the array pairs a rewritten bound governs.
    let mut fresh = Vec::new();
    if !scalars.is_empty() {
        let cfg = Cfg::of(prog);
        fresh.extend(
            scalar_deps_filtered(prog, &cfg, loops, order, Some(&scalars))
                .into_iter()
                .filter(|e| full.contains(e.var) || touches(e)),
        );
    }
    if !arrays.is_empty() {
        let at_site = |(s, p): Site| at(s, p);
        fresh.extend(array_deps_scoped(
            prog,
            loops,
            order,
            Some(&arrays),
            |a, b| at_site(a) || at_site(b) || scopes.iter().any(|sc| sc.nests(loops, a.0, b.0)),
            |a, b| {
                at_site(a)
                    || at_site(b)
                    || scopes
                        .iter()
                        .any(|sc| sc.nests(loops, a.0, b.0) || sc.previews(loops, a.0, b.0))
            },
        ));
    }
    let stats = UpdateStats {
        dirty_syms: dirty.len(),
        edges_dropped: edges_dropped + patched,
        edges_added: fresh.len() + patched,
    };
    if !fresh.is_empty() {
        build::merge_sorted(order, &mut edges, fresh);
    }
    g.install(prog, edges, headers);
    Ok(DepUpdate {
        kind: UpdateKind::Incremental,
        frontier,
        stats,
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
        // loop references — here before the loop — as the general path
        // computes it, so resumed searches visit the same anchors.
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
    fn a_stale_snapshot_takes_the_general_path() {
        // An insert whose update was skipped leaves the snapshot without
        // the new statement. Rewrites that would make the operand path
        // read the snapshot's tables for it must take the general path:
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
        assert!(g.update(&p, &d).is_ok());
        let mut d2 = EditDelta::new();
        d2.modify(&mut p, def_z, OperandPos::A, Operand::int(4));
        assert!(g.update(&p, &d2).is_ok());

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
        assert!(g.update(&p, &d3).is_ok());
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
