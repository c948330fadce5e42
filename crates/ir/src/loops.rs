//! Loop structure recovery: the GOSpeL loop attributes (`HEAD`, `END`,
//! `BODY`, `LCV`, `INIT`, `FINAL`) and the loop-pair classifications
//! (`Nested Loops`, `Tight Loops`, `Adjacent Loops`).

use crate::{Opcode, Operand, Program, StmtId, Sym};
use std::fmt;

/// Empty slot of the dense per-statement tables.
const NO_LOOP: u32 = u32::MAX;

/// Handle to a loop inside a [`LoopTable`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LoopId(u32);

impl LoopId {
    /// Raw index into the owning table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Everything GOSpeL can ask about one loop.
#[derive(Clone, Debug)]
pub struct LoopInfo {
    /// This loop's id.
    pub id: LoopId,
    /// The `do` header statement (`.HEAD`).
    pub head: StmtId,
    /// The `end do` statement (`.END`).
    pub end: StmtId,
    /// The loop control variable (`.LCV`).
    pub lcv: Sym,
    /// Initial value (`.INIT`).
    pub init: Operand,
    /// Final value (`.FINAL`).
    pub fin: Operand,
    /// 0-based nesting depth (0 = outermost).
    pub depth: usize,
    /// Directly enclosing loop, if any.
    pub parent: Option<LoopId>,
    /// Directly nested loops, in program order.
    pub children: Vec<LoopId>,
    /// True if the header is a `pardo` (produced by the PAR optimization).
    pub is_parallel: bool,
}

/// Error recovering loop structure from a malformed program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LoopStructureError {
    /// An `end do` with no open loop.
    UnmatchedEnd(StmtId),
    /// A loop header whose loop is never closed.
    UnclosedLoop(StmtId),
    /// A loop header without a scalar LCV destination.
    BadHeader(StmtId),
}

impl fmt::Display for LoopStructureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoopStructureError::UnmatchedEnd(s) => write!(f, "unmatched end do at {s}"),
            LoopStructureError::UnclosedLoop(s) => write!(f, "unclosed loop headed at {s}"),
            LoopStructureError::BadHeader(s) => {
                write!(f, "loop header at {s} lacks a scalar control variable")
            }
        }
    }
}

impl std::error::Error for LoopStructureError {}

/// The loop nest of a program at one point in time.
///
/// Recompute after transformations that add, remove or move loop markers
/// (the analyses are snapshot-based, exactly like the paper's optimizer,
/// which lets the user decide when dependences are recomputed).
///
/// Per-statement lookups are dense tables indexed by [`StmtId::index`]
/// and sized by the snapshot's [`Program::id_bound`]; a statement created
/// after the snapshot (or dead in it) simply has no loop.
#[derive(Clone, Debug, Default)]
pub struct LoopTable {
    loops: Vec<LoopInfo>,
    /// Innermost loop whose *body* contains each statement (`NO_LOOP` =
    /// none). A loop's own head/end statements belong to the enclosing
    /// context, not to the loop.
    enclosing: Vec<u32>,
    /// The loop whose `do` or `end do` each statement is (`NO_LOOP` =
    /// neither); which of the two it is, the loop's `head` tells.
    marker_of: Vec<u32>,
    roots: Vec<LoopId>,
}

/// Reads a dense table slot; `None` past the end or in an empty slot.
fn slot(table: &[u32], stmt: StmtId) -> Option<LoopId> {
    match table.get(stmt.index()) {
        Some(&l) if l != NO_LOOP => Some(LoopId(l)),
        _ => None,
    }
}

impl LoopTable {
    /// Recovers the loop structure of `prog`.
    ///
    /// # Errors
    ///
    /// Returns a [`LoopStructureError`] if `do`/`end do` markers are not
    /// properly nested or a header is malformed.
    pub fn of(prog: &Program) -> Result<LoopTable, LoopStructureError> {
        let mut table = LoopTable {
            enclosing: vec![NO_LOOP; prog.id_bound()],
            marker_of: vec![NO_LOOP; prog.id_bound()],
            ..LoopTable::default()
        };
        let mut stack: Vec<LoopId> = Vec::new();
        for id in prog.iter() {
            let quad = prog.quad(id);
            if let Some(&top) = stack.last() {
                table.enclosing[id.index()] = top.0;
            }
            match quad.op {
                Opcode::DoHead | Opcode::ParDo => {
                    let lcv = quad
                        .dst
                        .as_var()
                        .ok_or(LoopStructureError::BadHeader(id))?;
                    let lid = LoopId(table.loops.len() as u32);
                    table.loops.push(LoopInfo {
                        id: lid,
                        head: id,
                        end: id, // patched when the end is seen
                        lcv,
                        init: quad.a.clone(),
                        fin: quad.b.clone(),
                        depth: stack.len(),
                        parent: stack.last().copied(),
                        children: Vec::new(),
                        is_parallel: quad.op == Opcode::ParDo,
                    });
                    if let Some(&parent) = stack.last() {
                        table.loops[parent.index()].children.push(lid);
                    } else {
                        table.roots.push(lid);
                    }
                    table.marker_of[id.index()] = lid.0;
                    stack.push(lid);
                }
                Opcode::EndDo => {
                    let lid = stack.pop().ok_or(LoopStructureError::UnmatchedEnd(id))?;
                    table.loops[lid.index()].end = id;
                    table.marker_of[id.index()] = lid.0;
                    // An `end do` belongs to the context enclosing its loop.
                    table.enclosing[id.index()] = stack.last().map_or(NO_LOOP, |l| l.0);
                }
                _ => {}
            }
        }
        if let Some(&open) = stack.last() {
            return Err(LoopStructureError::UnclosedLoop(table.loops[open.index()].head));
        }
        Ok(table)
    }

    /// Re-reads loop `l`'s bounds (`.INIT`, `.FINAL`) from its header
    /// after a bound operand was rewritten in place. Every other attribute
    /// is fixed by the marker structure, which such a rewrite leaves alone.
    pub fn refresh_bounds(&mut self, prog: &Program, l: LoopId) {
        let info = &mut self.loops[l.index()];
        let head = prog.quad(info.head);
        info.init = head.a.clone();
        info.fin = head.b.clone();
    }

    /// Records that the plain statement `stmt` now sits directly in the
    /// body of `innermost` (`None` = outside every loop), after an edit
    /// that inserted, moved or (with `None`) deleted it without touching
    /// any marker. The loops themselves are fixed by the markers, so only
    /// the statement's own membership changes.
    pub fn place(&mut self, stmt: StmtId, innermost: Option<LoopId>) {
        let i = stmt.index();
        if i >= self.enclosing.len() {
            self.enclosing.resize(i + 1, NO_LOOP);
        }
        self.enclosing[i] = innermost.map_or(NO_LOOP, |l| l.0);
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the program has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// Info for one loop.
    pub fn get(&self, id: LoopId) -> &LoopInfo {
        &self.loops[id.index()]
    }

    /// Info for the loop at table position `i` (the same order `iter`
    /// yields — program order of the headers), or `None` past the end.
    /// O(1), unlike `iter().nth(i)`.
    pub fn by_index(&self, i: usize) -> Option<&LoopInfo> {
        self.loops.get(i)
    }

    /// All loops in program order of their headers.
    pub fn iter(&self) -> impl Iterator<Item = &LoopInfo> + '_ {
        self.loops.iter()
    }

    /// Outermost loops in program order.
    pub fn roots(&self) -> &[LoopId] {
        &self.roots
    }

    /// The loop whose header is `stmt`, if any.
    pub fn loop_of_head(&self, stmt: StmtId) -> Option<LoopId> {
        slot(&self.marker_of, stmt).filter(|&l| self.get(l).head == stmt)
    }

    /// The loop whose `end do` is `stmt`, if any.
    pub fn loop_of_end(&self, stmt: StmtId) -> Option<LoopId> {
        slot(&self.marker_of, stmt).filter(|&l| self.get(l).end == stmt)
    }

    /// Innermost loop whose body contains `stmt` (a loop's own head/end
    /// belong to the surrounding context).
    pub fn innermost_at(&self, stmt: StmtId) -> Option<LoopId> {
        slot(&self.enclosing, stmt)
    }

    /// GOSpeL `mem(S, L)`: true if `stmt` is inside the body of `l`
    /// (at any nesting depth).
    pub fn contains(&self, l: LoopId, stmt: StmtId) -> bool {
        let mut cur = self.innermost_at(stmt);
        while let Some(c) = cur {
            if c == l {
                return true;
            }
            cur = self.get(c).parent;
        }
        false
    }

    /// Loops containing *both* statements, outermost first — the loops whose
    /// direction-vector entries a dependence between the two statements has.
    pub fn common_nest(&self, s1: StmtId, s2: StmtId) -> Vec<LoopId> {
        let mut out = Vec::new();
        self.common_nest_into(s1, s2, &mut out);
        out
    }

    /// [`LoopTable::common_nest`] into a caller-owned buffer (cleared
    /// first), for hot loops that query many statement pairs.
    pub fn common_nest_into(&self, s1: StmtId, s2: StmtId, out: &mut Vec<LoopId>) {
        out.clear();
        // Climb the deeper chain until both sit at the innermost common
        // loop (or either runs out).
        let (mut a, mut b) = (self.innermost_at(s1), self.innermost_at(s2));
        while let (Some(x), Some(y)) = (a, b) {
            if x == y {
                break;
            }
            let (dx, dy) = (self.get(x).depth, self.get(y).depth);
            if dx >= dy {
                a = self.get(x).parent;
            }
            if dy >= dx {
                b = self.get(y).parent;
            }
        }
        let mut cur = if a == b { a } else { None };
        while let Some(c) = cur {
            out.push(c);
            cur = self.get(c).parent;
        }
        out.reverse();
    }

    /// Statements in the body of `l` (exclusive of its head and end),
    /// including the markers of nested loops.
    pub fn body<'p>(&self, prog: &'p Program, l: LoopId) -> impl Iterator<Item = StmtId> + 'p {
        let info = self.get(l);
        prog.iter_between(info.head, info.end)
    }

    /// Directly nested loop pairs `(outer, inner)`.
    pub fn nested_pairs(&self) -> Vec<(LoopId, LoopId)> {
        let mut out = Vec::new();
        for info in &self.loops {
            for &c in &info.children {
                out.push((info.id, c));
            }
        }
        out
    }

    /// Tightly nested pairs: directly nested with *no statements between
    /// them* — `inner.head` immediately follows `outer.head` and `outer.end`
    /// immediately follows `inner.end` (the paper's definition, citing
    /// Wolfe).
    pub fn tight_pairs(&self, prog: &Program) -> Vec<(LoopId, LoopId)> {
        self.nested_pairs()
            .into_iter()
            .filter(|&(o, i)| self.is_tight_pair(prog, o, i))
            .collect()
    }

    /// Whether `(outer, inner)` is a tightly nested pair.
    pub fn is_tight_pair(&self, prog: &Program, outer: LoopId, inner: LoopId) -> bool {
        let o = self.get(outer);
        let i = self.get(inner);
        i.parent == Some(outer)
            && prog.next(o.head) == Some(i.head)
            && prog.next(i.end) == Some(o.end)
    }

    /// Adjacent loop pairs at the same nesting level: `l2.head` immediately
    /// follows `l1.end` (used by loop fusion).
    pub fn adjacent_pairs(&self, prog: &Program) -> Vec<(LoopId, LoopId)> {
        let mut out = Vec::new();
        for info in &self.loops {
            if let Some(next) = prog.next(info.end) {
                if let Some(l2) = self.loop_of_head(next) {
                    out.push((info.id, l2));
                }
            }
        }
        out
    }

    /// Compile-time trip count, when both bounds are integer constants and
    /// the (unit) step makes the count non-negative.
    pub fn trip_count(&self, l: LoopId) -> Option<i64> {
        let info = self.get(l);
        let lo = info.init.as_const()?.as_int()?;
        let hi = info.fin.as_const()?.as_int()?;
        Some((hi - lo + 1).max(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramBuilder, Quad};

    /// do i = 1,10 { do j = 1,20 { a ; } } ; do k = 1,5 { }
    fn nest() -> (Program, LoopTable) {
        let mut b = ProgramBuilder::new("nest");
        let i = b.scalar_int("i");
        let j = b.scalar_int("j");
        let k = b.scalar_int("k");
        let x = b.scalar_int("x");
        let li = b.do_head(i, Operand::int(1), Operand::int(10));
        let lj = b.do_head(j, Operand::int(1), Operand::int(20));
        b.assign(Operand::Var(x), Operand::int(0));
        b.end_do(lj);
        b.end_do(li);
        let lk = b.do_head(k, Operand::int(1), Operand::int(5));
        b.end_do(lk);
        let p = b.finish();
        let t = LoopTable::of(&p).unwrap();
        (p, t)
    }

    #[test]
    fn discovers_loops_and_nesting() {
        let (_, t) = nest();
        assert_eq!(t.len(), 3);
        let outer = &t.loops[0];
        let inner = &t.loops[1];
        let third = &t.loops[2];
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.children, vec![inner.id]);
        assert_eq!(third.depth, 0);
        assert_eq!(t.roots().len(), 2);
    }

    #[test]
    fn membership_and_nest_chains() {
        let (p, t) = nest();
        let outer = t.loops[0].id;
        let inner = t.loops[1].id;
        // the x := 0 statement
        let body_stmt = t.body(&p, inner).next().unwrap();
        assert!(t.contains(inner, body_stmt));
        assert!(t.contains(outer, body_stmt));
        assert_eq!(t.common_nest(body_stmt, body_stmt), vec![outer, inner]);
        // inner head is a member of outer, not of inner
        let ih = t.get(inner).head;
        assert!(t.contains(outer, ih));
        assert!(!t.contains(inner, ih));
        assert_eq!(t.common_nest(body_stmt, ih), vec![outer]);
    }

    #[test]
    fn lookups_past_the_snapshot_find_nothing() {
        // Actions add and copy statements after the table was built; the
        // dense tables must answer "no loop" for those ids, not panic.
        let (mut p, t) = nest();
        let body_stmt = t.body(&p, t.loops[1].id).next().unwrap();
        let bound = p.id_bound();
        let fresh = p.push(Quad::marker(Opcode::EndDo));
        assert!(fresh.index() >= bound, "the new id lies past every table");
        assert_eq!(t.innermost_at(fresh), None);
        assert_eq!(t.loop_of_head(fresh), None);
        assert_eq!(t.loop_of_end(fresh), None);
        for info in t.iter() {
            assert!(!t.contains(info.id, fresh));
        }
        assert!(t.common_nest(fresh, body_stmt).is_empty());
        assert!(t.common_nest(body_stmt, fresh).is_empty());
        assert!(t.common_nest(fresh, fresh).is_empty());
    }

    #[test]
    fn marker_lookups_distinguish_head_and_end() {
        let (_, t) = nest();
        for info in t.iter() {
            assert_eq!(t.loop_of_head(info.head), Some(info.id));
            assert_eq!(t.loop_of_end(info.end), Some(info.id));
            assert_eq!(t.loop_of_head(info.end), None);
            assert_eq!(t.loop_of_end(info.head), None);
        }
    }

    #[test]
    fn pair_classification() {
        let (p, t) = nest();
        let outer = t.loops[0].id;
        let inner = t.loops[1].id;
        assert_eq!(t.nested_pairs(), vec![(outer, inner)]);
        // inner loop body contains a statement, so the pair IS tight
        // (tightness is about statements between the heads/ends).
        assert!(t.is_tight_pair(&p, outer, inner));
        assert_eq!(t.tight_pairs(&p), vec![(outer, inner)]);
        // outer loop and the k loop are adjacent
        let lk = t.loops[2].id;
        assert_eq!(t.adjacent_pairs(&p), vec![(outer, lk)]);
    }

    #[test]
    fn not_tight_when_statement_intervenes() {
        let mut b = ProgramBuilder::new("loose");
        let i = b.scalar_int("i");
        let j = b.scalar_int("j");
        let x = b.scalar_int("x");
        let li = b.do_head(i, Operand::int(1), Operand::int(10));
        b.assign(Operand::Var(x), Operand::int(0)); // intervening statement
        let lj = b.do_head(j, Operand::int(1), Operand::int(10));
        b.end_do(lj);
        b.end_do(li);
        let p = b.finish();
        let t = LoopTable::of(&p).unwrap();
        assert_eq!(t.nested_pairs().len(), 1);
        assert!(t.tight_pairs(&p).is_empty());
    }

    #[test]
    fn trip_counts() {
        let (_, t) = nest();
        assert_eq!(t.trip_count(t.loops[0].id), Some(10));
        assert_eq!(t.trip_count(t.loops[1].id), Some(20));
    }

    #[test]
    fn refreshed_bounds_match_a_rebuilt_table() {
        let (mut p, mut t) = nest();
        let inner = t.loops[1].id;
        p.modify(t.get(inner).head, crate::OperandPos::B, Operand::int(7));
        t.refresh_bounds(&p, inner);
        let fresh = LoopTable::of(&p).unwrap();
        assert_eq!(t.trip_count(inner), Some(7));
        for (a, b) in t.iter().zip(fresh.iter()) {
            assert_eq!((&a.init, &a.fin), (&b.init, &b.fin));
        }
    }

    #[test]
    fn unbalanced_structure_is_an_error() {
        let mut p = Program::new("bad");
        p.push(Quad::marker(Opcode::EndDo));
        assert!(matches!(
            LoopTable::of(&p),
            Err(LoopStructureError::UnmatchedEnd(_))
        ));
    }
}
