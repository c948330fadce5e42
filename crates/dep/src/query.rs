//! The dependence graph and its Figure-7 query interface.

use crate::build::{analyze, AnalyzeError};
use crate::edge::{DepEdge, DepKind, DirPattern};
use crate::incremental::{self, DepUpdate};
use gospel_ir::{EditDelta, LoopTable, Program, StmtId};

/// A queryable snapshot of a program's dependences.
///
/// The query methods mirror the paper's `dep` routine (Figure 7):
/// [`DepGraph::exists`] is the `TYPE == IF` form (both endpoints known),
/// and [`DepGraph::first_from`] / [`DepGraph::first_to`] are the
/// `TYPE == LST` forms that search for the first emanating or terminating
/// dependence; `all_*` variants return every match, in program order.
#[derive(Clone, Debug)]
pub struct DepGraph {
    pub(crate) edges: Vec<DepEdge>,
    /// Dense adjacency: edge indices emanating from each statement,
    /// indexed by `StmtId::index()` (sized by `Program::id_bound`).
    pub(crate) from: Csr,
    /// Dense adjacency: edge indices terminating at each statement.
    pub(crate) to: Csr,
    /// Program-order position per statement index (`u32::MAX` = dead).
    pub(crate) order: Vec<u32>,
    pub(crate) loops: LoopTable,
    /// Per-statement context signature (enclosing loop/branch chain, with
    /// header quads and branch sides), indexed by `StmtId::index()`; only
    /// meaningful where `order` marks the statement live. Derived data —
    /// excluded from [`DepGraph::agrees_with`] — consumed by the
    /// structural-batch path of [`DepGraph::update`] to find statements
    /// whose dependence-relevant surroundings an edit changed.
    pub(crate) ctx: Vec<u64>,
    /// Per-loop fusion-partnership signature keyed by the loop's header
    /// statement: own header quad plus each adjacent partner's identity
    /// and quad. A changed signature means the loop's preview-edge
    /// neighborhood changed even though its body statements did not.
    pub(crate) partners: Vec<(StmtId, u64)>,
    /// The merge output buffer of the next update: the edge list of the
    /// previous one, emptied, so an update reuses its capacity instead
    /// of allocating a new list.
    pub(crate) spare: Vec<DepEdge>,
    /// The merge's sort buffer, kept for the same reason.
    pub(crate) keyed: Vec<(u128, DepEdge)>,
}

/// Compressed sparse row grouping: `idx[offsets[k]..offsets[k+1]]` are
/// the indices of the items with key `k`, in item order. Built with two
/// counting passes — a flat layout costs three allocations where
/// per-key `Vec`s cost one per key. Groups the graph's edges by
/// statement and the scalar accesses by variable.
#[derive(Clone, Debug)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    idx: Vec<u32>,
}

impl Csr {
    /// Groups `items` by `key`, which must be below `n`.
    pub(crate) fn build<T>(n: usize, items: &[T], key: impl Fn(&T) -> usize) -> Csr {
        let mut csr = Csr {
            offsets: Vec::new(),
            idx: Vec::new(),
        };
        csr.rebuild(n, items, key);
        csr
    }

    /// [`Csr::build`] into this grouping's own buffers, reusing their
    /// capacity. Counts land on each group's slot, an inclusive prefix
    /// sum turns them into group ends, and a reverse fill walks every
    /// end back to its group's start — so no cursor table is needed and
    /// each group lists its items in order.
    pub(crate) fn rebuild<T>(&mut self, n: usize, items: &[T], key: impl Fn(&T) -> usize) {
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for e in items {
            self.offsets[key(e)] += 1;
        }
        let mut end = 0;
        for o in &mut self.offsets {
            end += *o;
            *o = end;
        }
        self.idx.clear();
        self.idx.resize(items.len(), 0);
        for (i, e) in items.iter().enumerate().rev() {
            let slot = &mut self.offsets[key(e)];
            *slot -= 1;
            self.idx[*slot as usize] = u32::try_from(i).expect("item count fits in u32");
        }
    }

    /// The indices with key `s`; empty past `n`.
    pub(crate) fn row(&self, s: usize) -> &[u32] {
        match self.offsets.get(s..=s + 1) {
            Some(&[lo, hi]) => &self.idx[lo as usize..hi as usize],
            _ => &[],
        }
    }
}

impl DepGraph {
    /// Analyzes `prog`, computing scalar, array and control dependences.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] if the program is structurally invalid.
    pub fn analyze(prog: &Program) -> Result<DepGraph, AnalyzeError> {
        analyze(prog)
    }

    /// Updates this graph in place to reflect the edits recorded in
    /// `delta`, applied to `prog` (the post-edit program). The result is
    /// exact: identical to a fresh [`DepGraph::analyze`].
    ///
    /// A non-structural batch — operand rewrites, deletes, and inserts or
    /// moves of plain statements — is updated site by site: it drops the
    /// edges at the statements it removed and the slots it rewrote,
    /// derives the edges at the statements it placed and the slots it
    /// rewrote, re-derives the scalars whose definitions it changed, and
    /// re-tests only the array pairs and fusion previews a rewritten
    /// bound or a changed loop adjacency can decide. The order table,
    /// loop table, control edges and signatures are patched in place, so
    /// the derivation work follows the edit, not the program; only the
    /// edge list's drop pass and the adjacency, rebuilt into its own
    /// buffers, walk every edge. A structural batch (loop/branch markers
    /// added, removed or relocated) re-derives every symbol it touched,
    /// widened by diffing the snapshot's context and partnership
    /// signatures, and the whole control layer; it is not re-analyzed
    /// either. A snapshot that does not describe the program before the
    /// batch (an earlier update was skipped) is replaced by a full
    /// analysis.
    ///
    /// # Errors
    ///
    /// Returns [`AnalyzeError`] when the post-edit program is invalid:
    /// a touched statement fails validation, or a structural batch broke
    /// the marker nesting.
    pub fn update(&mut self, prog: &Program, delta: &EditDelta) -> Result<DepUpdate, AnalyzeError> {
        incremental::update(self, prog, delta)
    }

    /// Structural equality with another snapshot: identical edge lists
    /// (both are kept sorted and deduplicated) and identical loop tables.
    /// This is the guard's incremental-vs-full cross-check.
    pub fn agrees_with(&self, other: &DepGraph) -> bool {
        self.edges == other.edges
            && self.loops.len() == other.loops.len()
            && self
                .loops
                .iter()
                .zip(other.loops.iter())
                .all(|(a, b)| {
                    a.head == b.head
                        && a.end == b.end
                        && a.lcv == b.lcv
                        && a.init == b.init
                        && a.fin == b.fin
                        && a.depth == b.depth
                        && a.parent == b.parent
                        && a.children == b.children
                        && a.is_parallel == b.is_parallel
                })
    }

    /// Assembles a snapshot from sorted edges; `order` is
    /// [`crate::build::dense_order`] of `prog`, which the caller already
    /// built for the analysis.
    pub(crate) fn from_edges(
        prog: &Program,
        loops: LoopTable,
        edges: Vec<DepEdge>,
        order: Vec<u32>,
    ) -> DepGraph {
        let n = prog.id_bound();
        let from = Csr::build(n, &edges, |e| e.src.index());
        let to = Csr::build(n, &edges, |e| e.dst.index());
        let ctx = incremental::context_signatures(prog);
        let partners = incremental::partnership_signatures(prog, &loops);
        DepGraph {
            edges,
            from,
            to,
            order,
            loops,
            ctx,
            partners,
            spare: Vec::new(),
            keyed: Vec::new(),
        }
    }

    /// Rebuilds both adjacencies over the current edge list, in the
    /// graph's own buffers; `n` is the program's `id_bound`.
    pub(crate) fn reindex(&mut self, n: usize) {
        self.from.rebuild(n, &self.edges, |e| e.src.index());
        self.to.rebuild(n, &self.edges, |e| e.dst.index());
    }

    /// Context signature of `s` in the snapshot this graph was computed
    /// against; `None` when `s` was dead then.
    pub(crate) fn ctx_sig(&self, s: StmtId) -> Option<u64> {
        self.order_of(s)?;
        self.ctx.get(s.index()).copied()
    }

    /// Equality of the bookkeeping [`DepGraph::agrees_with`] leaves out:
    /// the order table, and the context and partnership signatures of
    /// live statements and loops. A wrong in-place patch of these shows
    /// in no edge until a later structural batch diffs against it, so
    /// the update's tests compare them with a fresh analysis directly.
    #[doc(hidden)]
    pub fn bookkeeping_agrees_with(&self, other: &DepGraph) -> bool {
        self.order == other.order
            && self.partners == other.partners
            && self
                .order
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p != u32::MAX)
                .all(|(i, _)| self.ctx.get(i) == other.ctx.get(i))
    }

    /// Program-order position of `s` in the snapshot this graph was
    /// computed against, if `s` was live then.
    pub fn order_of(&self, s: StmtId) -> Option<usize> {
        match self.order.get(s.index()) {
            Some(&p) if p != u32::MAX => Some(p as usize),
            _ => None,
        }
    }

    /// All edges, in program order of (src, dst).
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the program has no dependences at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The loop structure this snapshot was computed against (GOSpeL
    /// membership predicates evaluate against the same snapshot).
    pub fn loops(&self) -> &LoopTable {
        &self.loops
    }

    /// Edges emanating from `s`.
    pub fn from(&self, s: StmtId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.from
            .row(s.index())
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Edges terminating at `s`.
    pub fn to(&self, s: StmtId) -> impl Iterator<Item = &DepEdge> + '_ {
        self.to
            .row(s.index())
            .iter()
            .map(move |&i| &self.edges[i as usize])
    }

    /// Figure 7, `TYPE == IF`: is there a `kind` dependence from `src` to
    /// `dst` whose direction vector matches `pattern`?
    pub fn exists(&self, kind: DepKind, src: StmtId, dst: StmtId, pattern: &DirPattern) -> bool {
        self.from(src)
            .any(|e| e.dst == dst && e.kind == kind && pattern.matches(&e.dirvec))
    }

    /// Figure 7, `TYPE == LST`, emanating: the first `kind` dependence out
    /// of `src` matching `pattern`.
    pub fn first_from(
        &self,
        kind: DepKind,
        src: StmtId,
        pattern: &DirPattern,
    ) -> Option<&DepEdge> {
        self.from(src)
            .find(|e| e.kind == kind && pattern.matches(&e.dirvec))
    }

    /// Figure 7, `TYPE == LST`, terminating: the first `kind` dependence
    /// into `dst` matching `pattern`.
    pub fn first_to(&self, kind: DepKind, dst: StmtId, pattern: &DirPattern) -> Option<&DepEdge> {
        self.to(dst)
            .find(|e| e.kind == kind && pattern.matches(&e.dirvec))
    }

    /// Every `kind` dependence out of `src` matching `pattern`.
    pub fn all_from(
        &self,
        kind: DepKind,
        src: StmtId,
        pattern: &DirPattern,
    ) -> Vec<&DepEdge> {
        self.from(src)
            .filter(|e| e.kind == kind && pattern.matches(&e.dirvec))
            .collect()
    }

    /// Every `kind` dependence into `dst` matching `pattern`.
    pub fn all_to(&self, kind: DepKind, dst: StmtId, pattern: &DirPattern) -> Vec<&DepEdge> {
        self.to(dst)
            .filter(|e| e.kind == kind && pattern.matches(&e.dirvec))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge::Direction;
    use gospel_frontend::compile;

    fn graph(src: &str) -> (Program, DepGraph) {
        let p = compile(src).unwrap();
        let g = DepGraph::analyze(&p).unwrap();
        (p, g)
    }

    #[test]
    fn exists_and_first_queries() {
        let (p, g) = graph("program p\ninteger x, y\nx = 1\ny = x\nend");
        let s0 = p.iter().next().unwrap();
        let s1 = p.iter().nth(1).unwrap();
        assert!(g.exists(DepKind::Flow, s0, s1, &DirPattern::any()));
        assert!(g.exists(DepKind::Flow, s0, s1, &DirPattern::loop_independent()));
        assert!(!g.exists(DepKind::Anti, s0, s1, &DirPattern::any()));
        let e = g.first_from(DepKind::Flow, s0, &DirPattern::any()).unwrap();
        assert_eq!(e.dst, s1);
        let e2 = g.first_to(DepKind::Flow, s1, &DirPattern::any()).unwrap();
        assert_eq!(e2.src, s0);
        assert!(g.first_from(DepKind::Flow, s1, &DirPattern::any()).is_none());
    }

    #[test]
    fn all_from_respects_pattern() {
        let (p, g) = graph(
            "program p\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + 1\nend do\nwrite s\nend",
        );
        let body = p.iter().nth(2).unwrap();
        // carried self-dep visible only to carried-compatible patterns
        let carried = g.all_from(
            DepKind::Flow,
            body,
            &DirPattern::new(vec![crate::DirElem::Lt]),
        );
        assert!(carried.iter().any(|e| e.dst == body));
        let independent = g.all_from(DepKind::Flow, body, &DirPattern::loop_independent());
        assert!(!independent.iter().any(|e| e.dst == body
            && e.dirvec == vec![Direction::Lt]));
    }

    #[test]
    fn analyze_rejects_invalid() {
        let mut p = Program::new("bad");
        p.push(gospel_ir::Quad::marker(gospel_ir::Opcode::EndDo));
        assert!(DepGraph::analyze(&p).is_err());
    }

    #[test]
    fn stale_loop_bound_disagrees_with_fresh_analysis() {
        // The bound feeds no edge here (no arrays), so only the loop
        // table can tell the stale snapshot from the fresh one.
        let (mut p, g) = graph("program p\ninteger i, x\ndo i = 1, 10\nx = 1\nend do\nend");
        let head = p.first().unwrap();
        p.modify(head, gospel_ir::OperandPos::B, gospel_ir::Operand::int(20));
        let fresh = DepGraph::analyze(&p).unwrap();
        assert_eq!(g.edges(), fresh.edges());
        assert!(!g.agrees_with(&fresh));
        assert!(DepGraph::analyze(&p).unwrap().agrees_with(&fresh));
    }

    #[test]
    fn edges_are_sorted_and_deduped() {
        let (_, g) = graph(
            "program p\ninteger i\nreal a(100)\ndo i = 1, 100\na(i) = a(i) + 1.0\nend do\nend",
        );
        let mut seen = std::collections::HashSet::new();
        for e in g.edges() {
            assert!(seen.insert(format!("{e:?}")), "duplicate edge {e:?}");
        }
    }
}

#[cfg(test)]
mod order_tests {
    use super::*;
    use crate::DepKind;
    use gospel_frontend::compile;

    #[test]
    fn queries_return_edges_in_program_order() {
        // x feeds three uses; first_from must return the textually first.
        let p = compile(
            "program p\ninteger x, a, b, c\nx = 1\na = x\nb = x\nc = x\nwrite a\nwrite b\nwrite c\nend",
        )
        .unwrap();
        let g = DepGraph::analyze(&p).unwrap();
        let def = p.first().unwrap();
        let uses: Vec<StmtId> = p.iter().skip(1).take(3).collect();
        let first = g.first_from(DepKind::Flow, def, &crate::DirPattern::any()).unwrap();
        assert_eq!(first.dst, uses[0]);
        let all = g.all_from(DepKind::Flow, def, &crate::DirPattern::any());
        let dsts: Vec<StmtId> = all.iter().map(|e| e.dst).collect();
        assert_eq!(dsts, uses, "all_from must follow program order");
        // terminating-side query symmetry
        let back = g.first_to(DepKind::Flow, uses[2], &crate::DirPattern::any()).unwrap();
        assert_eq!(back.src, def);
    }

    #[test]
    fn loops_snapshot_agrees_with_fresh_loop_table(){
        for (_, p) in [("t", compile(
            "program p\ninteger i, j\nreal a(9,9)\ndo i = 1, 9\ndo j = 1, 9\na(i,j) = 1.0\nend do\nend do\nend",
        ).unwrap())] {
            let g = DepGraph::analyze(&p).unwrap();
            let fresh = gospel_ir::LoopTable::of(&p).unwrap();
            assert_eq!(g.loops().len(), fresh.len());
            for (a, b) in g.loops().iter().zip(fresh.iter()) {
                assert_eq!(a.head, b.head);
                assert_eq!(a.end, b.end);
                assert_eq!(a.depth, b.depth);
            }
        }
    }
}
