//! Array data dependences via dimension-by-dimension subscript tests.
//!
//! For every pair of references to the same array (at least one a write) the
//! analyzer classifies each subscript dimension with:
//!
//! * **ZIV** — both subscripts free of varying terms: unequal constants
//!   prove independence;
//! * **strong SIV** — `a·i + c₁` vs `a·i + c₂` in one common loop: the
//!   dependence distance `(c₂-c₁)/a` fixes the direction, non-integral
//!   distances and distances beyond the trip count prove independence;
//! * **GCD** — the general case: if the gcd of all induction coefficients
//!   does not divide the constant difference there is no dependence,
//!   otherwise every direction is possible at the involved levels.
//!
//! Scalar symbols appearing in subscripts are assumed loop-invariant (the
//! standard assumption for this style of analyzer; see DESIGN.md), while
//! loop-control variables of non-common loops and compiler temporaries are
//! treated as varying and handled conservatively.

use crate::edge::{DepEdge, DepKind, Direction};
use crate::incremental::SymSet;
use gospel_ir::{AffineExpr, LoopId, LoopTable, Operand, OperandPos, Program, StmtId, Sym};
use std::borrow::Cow;

/// One textual array reference, borrowing its subscripts from the program.
#[derive(Clone, Debug)]
struct ArrayRef<'p> {
    stmt: StmtId,
    pos: OperandPos,
    array: Sym,
    subs: &'p [AffineExpr],
    is_write: bool,
}

/// Computes all array data dependence edges; `order` is the caller's
/// dense order table.
pub(crate) fn array_deps(prog: &Program, loops: &LoopTable, order: &[u32]) -> Vec<DepEdge> {
    array_deps_scoped(prog, loops, order, None, |_, _| true, |_, _, _| true)
}

/// A reference's site: its statement and operand slot — the endpoint an
/// edge derived from the reference carries.
pub(crate) type Site = (StmtId, OperandPos);

/// Array dependence edges restricted to arrays in `only` (all arrays when
/// `None`), to the reference pairs `pair` accepts (ordinary subscript
/// tests) and to those `preview` accepts (fusion-preview tests, given
/// the adjacent loop pair and the first-loop reference first). Every
/// array edge — previews included — joins two references to the *same*
/// array, and each edge is a function of its own pair alone, so the edges
/// produced are exactly the unrestricted analysis's edges derived from
/// the accepted pairs. `pair` must be symmetric in its arguments.
pub(crate) fn array_deps_scoped(
    prog: &Program,
    loops: &LoopTable,
    order: &[u32],
    only: Option<&SymSet>,
    pair: impl Fn(Site, Site) -> bool,
    preview: impl Fn((LoopId, LoopId), Site, Site) -> bool,
) -> Vec<DepEdge> {
    let refs = collect_refs(prog, |a| only.is_none_or(|arrays| arrays.contains(a)));
    let mut edges = Vec::new();
    if refs.is_empty() {
        return edges;
    }

    // Every variable that is the LCV of some loop is "varying" when it is
    // not one of the pair's common LCVs.
    let all_lcvs: Vec<Sym> = loops.iter().map(|l| l.lcv).collect();
    let mut nest = Nest::default();

    // Group the references by array; the stable sort keeps each group in
    // program order.
    let mut by_array: Vec<&ArrayRef<'_>> = refs.iter().collect();
    by_array.sort_by_key(|r| r.array);
    for group in by_array.chunk_by(|a, b| a.array == b.array) {
        for (ii, &a) in group.iter().enumerate() {
            for &b in &group[ii..] {
                if (!a.is_write && !b.is_write) || !pair(a.site(), b.site()) {
                    continue;
                }
                // Orient the pair so `a` is textually first. A single
                // reference can only depend on itself across iterations;
                // the pair test covers it.
                if order[a.stmt.index()] <= order[b.stmt.index()] {
                    test_pair(loops, order, &all_lcvs, &mut nest, a, b, &mut edges);
                } else {
                    test_pair(loops, order, &all_lcvs, &mut nest, b, a, &mut edges);
                }
            }
        }
    }
    fusion_preview_deps(
        prog, loops, order, &all_lcvs, &mut nest, &refs, &preview, &mut edges,
    );
    edges
}

/// Cross-loop direction vectors for *fusable-shaped* adjacent loop pairs.
///
/// References in two adjacent loops share no loop, so their ordinary
/// direction vectors are empty — which cannot express fusion legality.
/// For adjacent pairs with equal bounds this pass aligns the two loop
/// control variables and reports the direction the dependence would have
/// *after* fusion, oriented textually (first-loop reference → second-loop
/// reference). A `>` at the aligned level is the fusion-preventing
/// direction loop fusion tests for.
#[allow(clippy::too_many_arguments)]
fn fusion_preview_deps(
    prog: &Program,
    loops: &LoopTable,
    order: &[u32],
    all_lcvs: &[Sym],
    nest: &mut Nest,
    refs: &[ArrayRef<'_>],
    keep: impl Fn((LoopId, LoopId), Site, Site) -> bool,
    edges: &mut Vec<DepEdge>,
) {
    for (l1, l2) in loops.adjacent_pairs(prog) {
        let i1 = loops.get(l1);
        let i2 = loops.get(l2);
        if i1.init != i2.init || i1.fin != i2.fin {
            continue;
        }
        let (lcv1, lcv2) = (i1.lcv, i2.lcv);
        // The loops enclosing both, then the aligned pair itself.
        loops.common_nest_into(i1.head, i2.head, &mut nest.loops);
        nest.loops.push(l1);
        nest.load(loops);

        for a in body_refs(loops, order, refs, l1) {
            for b in body_refs(loops, order, refs, l2) {
                if a.array != b.array || (!a.is_write && !b.is_write) || !keep((l1, l2), a.site(), b.site()) {
                    continue;
                }
                // Align the second loop's control variable with the first's.
                let b_subs: Cow<'_, [AffineExpr]> = if lcv1 == lcv2 {
                    Cow::Borrowed(b.subs)
                } else if b.subs.iter().any(|e| e.mentions(lcv1)) {
                    continue; // the alias would capture; stay conservative
                } else {
                    Cow::Owned(b.subs.iter().map(|e| e.rename(lcv2, lcv1)).collect())
                };

                if !nest.constrain(a.subs, &b_subs, all_lcvs) {
                    continue;
                }
                let kind = match (a.is_write, b.is_write) {
                    (true, false) => DepKind::Flow,
                    (false, true) => DepKind::Anti,
                    (true, true) => DepKind::Output,
                    (false, false) => unreachable!("filtered above"),
                };
                // Every feasible vector, keeping the textual orientation
                // (no lexicographic flip: these are previews).
                nest.enumerate(0, &mut |vector| {
                    edges.push(DepEdge {
                        src: a.stmt,
                        dst: b.stmt,
                        kind,
                        var: a.array,
                        src_pos: a.pos,
                        dst_pos: b.pos,
                        dirvec: vector.to_vec(),
                    });
                });
            }
        }
    }
}

/// The references in loop `l`'s body: a body is a contiguous run of the
/// program, and `refs` are in program order, so they form one slice.
fn body_refs<'r, 'p>(
    loops: &LoopTable,
    order: &[u32],
    refs: &'r [ArrayRef<'p>],
    l: LoopId,
) -> &'r [ArrayRef<'p>] {
    let info = loops.get(l);
    let (head, end) = (order[info.head.index()], order[info.end.index()]);
    let lo = refs.partition_point(|r| order[r.stmt.index()] <= head);
    let hi = refs.partition_point(|r| order[r.stmt.index()] < end);
    &refs[lo..hi.max(lo)]
}

impl ArrayRef<'_> {
    fn site(&self) -> Site {
        (self.stmt, self.pos)
    }
}

/// The references to arrays accepted by `keep`, in program order.
fn collect_refs(prog: &Program, keep: impl Fn(Sym) -> bool) -> Vec<ArrayRef<'_>> {
    let mut out = Vec::new();
    for stmt in prog.iter() {
        let quad = prog.quad(stmt);
        let written = quad.def_operand().map(|d| (OperandPos::Dst, d, true));
        let read = quad
            .used_positions()
            .iter()
            .map(|&pos| (pos, quad.operand(pos), false));
        for (pos, op, is_write) in written.into_iter().chain(read) {
            if let Operand::Elem { array, subs } = op {
                if keep(*array) {
                    out.push(ArrayRef {
                        stmt,
                        pos,
                        array: *array,
                        subs,
                        is_write,
                    });
                }
            }
        }
    }
    out
}

/// Per-level direction possibilities (a subset of `{<,=,>}`).
#[derive(Clone, Copy, PartialEq, Eq)]
struct DirSet(u8);

impl DirSet {
    const LT: u8 = 1;
    const EQ: u8 = 2;
    const GT: u8 = 4;

    fn all() -> DirSet {
        DirSet(Self::LT | Self::EQ | Self::GT)
    }

    fn only(d: Direction) -> DirSet {
        DirSet(match d {
            Direction::Lt => Self::LT,
            Direction::Eq => Self::EQ,
            Direction::Gt => Self::GT,
            Direction::Any => Self::LT | Self::EQ | Self::GT,
        })
    }

    fn intersect(self, other: DirSet) -> DirSet {
        DirSet(self.0 & other.0)
    }

    fn is_empty(self) -> bool {
        self.0 == 0
    }

    fn iter(self) -> impl Iterator<Item = Direction> {
        [
            (Self::LT, Direction::Lt),
            (Self::EQ, Direction::Eq),
            (Self::GT, Direction::Gt),
        ]
        .into_iter()
        .filter_map(move |(bit, d)| if self.0 & bit != 0 { Some(d) } else { None })
    }
}

/// The loop nest one reference pair is tested in, and the per-level
/// constraint the subscript tests build up. Reused across every pair of
/// one analysis, so the tests allocate nothing per pair.
#[derive(Default)]
struct Nest {
    /// The pair's common loops, outermost first.
    loops: Vec<LoopId>,
    lcvs: Vec<Sym>,
    trips: Vec<Option<i64>>,
    /// Per-level induction coefficients `(a, b)` of the dimension under test.
    coefs: Vec<(i64, i64)>,
    constraint: Vec<DirSet>,
    vector: Vec<Direction>,
}

impl Nest {
    /// Derives the per-level tables from `self.loops`.
    fn load(&mut self, loops: &LoopTable) {
        self.lcvs.clear();
        self.lcvs
            .extend(self.loops.iter().map(|&l| loops.get(l).lcv));
        self.trips.clear();
        self.trips
            .extend(self.loops.iter().map(|&l| loops.trip_count(l)));
        let depth = self.loops.len();
        self.coefs.resize(depth, (0, 0));
        self.vector.resize(depth, Direction::Eq);
    }

    /// Runs the subscript test on every dimension from an unconstrained
    /// start; false as soon as one proves the pair independent or the
    /// levels contradict.
    fn constrain(
        &mut self,
        a_subs: &[AffineExpr],
        b_subs: &[AffineExpr],
        all_lcvs: &[Sym],
    ) -> bool {
        debug_assert_eq!(a_subs.len(), b_subs.len(), "same array, same rank");
        self.constraint.clear();
        self.constraint.resize(self.loops.len(), DirSet::all());
        a_subs
            .iter()
            .zip(b_subs)
            .all(|(sa, sb)| self.test_dim(sa, sb, all_lcvs))
    }

    /// Classifies one subscript dimension and intersects its per-level
    /// constraint into `self.constraint`; false if the pair is
    /// independent. `a_sub` belongs to the textually first reference.
    /// Directions are *source-relative*: `Lt` at level `k` means the `a`
    /// iteration precedes the `b` iteration in loop `k`.
    fn test_dim(&mut self, a_sub: &AffineExpr, b_sub: &AffineExpr, all_lcvs: &[Sym]) -> bool {
        // Split both subscripts into common-LCV terms, varying terms and
        // the invariant remainder. The common LCVs number at most the
        // nest depth, so a linear scan finds a variable's level.
        self.coefs.fill((0, 0));
        let mut has_varying = false;
        let mut g: i64 = 0; // gcd of every induction coefficient
        let mut invariant_unknown = false;
        let c: i64 = a_sub.constant() - b_sub.constant();
        for (expr, other, is_a) in [(a_sub, b_sub, true), (b_sub, a_sub, false)] {
            for (v, co) in expr.terms() {
                if let Some(k) = self.lcvs.iter().position(|&l| l == v) {
                    if is_a {
                        self.coefs[k].0 = co;
                    } else {
                        self.coefs[k].1 = co;
                    }
                    g = gcd(g, co.abs());
                } else if all_lcvs.contains(&v) {
                    // A non-common LCV: the two references bind it
                    // independently, so each occurrence is its own unknown.
                    has_varying = true;
                    g = gcd(g, co.abs());
                } else if is_a {
                    // A loop-invariant scalar: the references agree on
                    // it only if its coefficients cancel.
                    invariant_unknown |= co - other.coeff(v) != 0;
                } else {
                    invariant_unknown |= !other.mentions(v) && co != 0;
                }
            }
        }
        // With `c = a.const - b.const` the dependence equation is
        //   Σ acoef·I_k - Σ bcoef·I'_k + c = 0
        // (symbolically equal invariant parts cancel; otherwise
        // invariant_unknown is set). Strong SIV then gives I' - I = c / ak.
        let all_zero = !has_varying && self.coefs.iter().all(|&(a, b)| a == 0 && b == 0);
        if all_zero {
            // ZIV
            return invariant_unknown || c == 0;
        }
        if invariant_unknown {
            return true;
        }

        // SIV: exactly one involved common level, no varying terms.
        let mut involved = self
            .coefs
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| a != 0 || b != 0);
        if let (false, Some((k, &(ak, bk))), None) = (has_varying, involved.next(), involved.next())
        {
            if ak == bk {
                // strong SIV: ak·I + a_c = ak·I' + b_c  ⇒  I' - I = c / ak
                if c % ak != 0 {
                    return false;
                }
                let dist = c / ak;
                if let Some(t) = self.trips[k] {
                    if dist.abs() >= t.max(0) {
                        return false;
                    }
                }
                let dir = match dist.cmp(&0) {
                    std::cmp::Ordering::Greater => Direction::Lt,
                    std::cmp::Ordering::Equal => Direction::Eq,
                    std::cmp::Ordering::Less => Direction::Gt,
                };
                self.constraint[k] = self.constraint[k].intersect(DirSet::only(dir));
                return !self.constraint[k].is_empty();
            }
            // weak SIV: fall through to the GCD test.
        }

        // GCD test over every induction coefficient.
        g == 0 || c % g == 0
    }

    /// Calls `f` with every direction vector the constraint admits from
    /// `level` on, in `<`, `=`, `>` order per level.
    fn enumerate(&mut self, level: usize, f: &mut impl FnMut(&[Direction])) {
        if level == self.constraint.len() {
            f(&self.vector);
            return;
        }
        for d in self.constraint[level].iter() {
            self.vector[level] = d;
            self.enumerate(level + 1, f);
        }
    }
}

fn test_pair(
    loops: &LoopTable,
    order: &[u32],
    all_lcvs: &[Sym],
    nest: &mut Nest,
    a: &ArrayRef<'_>,
    b: &ArrayRef<'_>,
    edges: &mut Vec<DepEdge>,
) {
    loops.common_nest_into(a.stmt, b.stmt, &mut nest.loops);
    nest.load(loops);
    if !nest.constrain(a.subs, b.subs, all_lcvs) {
        return;
    }
    // Enumerate feasible direction vectors and orient each.
    let same_ref = std::ptr::eq(a, b);
    nest.enumerate(0, &mut |vector| {
        emit_oriented(order, a, b, same_ref, vector, edges)
    });
}

fn emit_oriented(
    order: &[u32],
    a: &ArrayRef<'_>,
    b: &ArrayRef<'_>,
    same_ref: bool,
    vector: &[Direction],
    edges: &mut Vec<DepEdge>,
) {
    let first = vector.iter().find(|d| **d != Direction::Eq);
    let (src, dst, dirs) = match first {
        Some(Direction::Lt) => (a, b, vector.to_vec()),
        Some(Direction::Gt) if same_ref => return, // mirror of the Lt vector
        Some(Direction::Gt) => {
            // Lexicographically negative: the real dependence runs b → a
            // with the reversed vector.
            (b, a, vector.iter().map(|d| d.reversed()).collect())
        }
        _ => {
            // Loop-independent: textual order decides; same-statement
            // read/write pairs (a(i) = a(i)+1) read before writing, so no
            // same-iteration edge.
            if a.stmt == b.stmt {
                return;
            }
            debug_assert!(order[a.stmt.index()] <= order[b.stmt.index()]);
            (a, b, vector.to_vec())
        }
    };
    let kind = match (src.is_write, dst.is_write) {
        (true, false) => DepKind::Flow,
        (false, true) => DepKind::Anti,
        (true, true) => DepKind::Output,
        (false, false) => return,
    };
    edges.push(DepEdge {
        src: src.stmt,
        dst: dst.stmt,
        kind,
        var: src.array,
        src_pos: src.pos,
        dst_pos: dst.pos,
        dirvec: dirs,
    });
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;

    fn deps(src: &str) -> (Program, Vec<DepEdge>) {
        let p = compile(src).unwrap();
        let loops = LoopTable::of(&p).unwrap();
        let e = array_deps(&p, &loops, &crate::build::dense_order(&p));
        (p, e)
    }

    #[test]
    fn independent_elementwise_loop() {
        // a(i) = a(i) + 1 : the only array pair is the same-statement
        // read/write with distance 0 — no loop-carried edge.
        let (_, e) = deps(
            "program p\ninteger i\nreal a(100)\ndo i = 1, 100\na(i) = a(i) + 1.0\nend do\nend",
        );
        assert!(e.is_empty(), "expected no edges, got {e:#?}");
    }

    #[test]
    fn forward_carried_flow() {
        // a(i+1) read of previous iteration's write a(i)?  Write a(i),
        // read a(i-1): distance +1 ⇒ flow (<) from the write to the read.
        let (_, e) = deps(
            "program p\ninteger i\nreal a(100), x\ndo i = 2, 100\na(i) = x\nx = a(i-1)\nend do\nend",
        );
        let flows: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1, "{e:#?}");
        assert_eq!(flows[0].dirvec, vec![Direction::Lt]);
    }

    #[test]
    fn backward_reference_becomes_anti() {
        // write a(i), read a(i+1): the read at iteration i uses the element
        // written at iteration i+1 ⇒ anti dependence (<) from read to write.
        let (_, e) = deps(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 99\na(i) = x\nx = a(i+1)\nend do\nend",
        );
        let antis: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Anti).collect();
        assert_eq!(antis.len(), 1, "{e:#?}");
        assert_eq!(antis[0].dirvec, vec![Direction::Lt]);
    }

    #[test]
    fn distance_beyond_trip_count_is_independent() {
        let (_, e) = deps(
            "program p\ninteger i\nreal a(300), x\ndo i = 1, 10\na(i) = x\nx = a(i+100)\nend do\nend",
        );
        assert!(e.is_empty(), "{e:#?}");
    }

    #[test]
    fn gcd_disproves_dependence() {
        // writes even elements, reads odd elements
        let (_, e) = deps(
            "program p\ninteger i\nreal a(300), x\ndo i = 1, 100\na(2*i) = x\nx = a(2*i+1)\nend do\nend",
        );
        assert!(e.is_empty(), "{e:#?}");
    }

    #[test]
    fn ziv_different_constants_independent() {
        let (_, e) = deps(
            "program p\ninteger i\nreal a(10), x\ndo i = 1, 10\na(1) = x\nx = a(2)\nend do\nend",
        );
        // No flow/anti between a(1) and a(2); the only edge is the carried
        // output self-dependence of the a(1) write.
        assert!(e
            .iter()
            .all(|d| d.kind == DepKind::Output && d.src == d.dst), "{e:#?}");
        assert_eq!(e.len(), 1, "{e:#?}");
    }

    #[test]
    fn ziv_same_constant_output_dep() {
        // a(1) written every iteration: carried output dependence on itself
        let (_, e) = deps(
            "program p\ninteger i\nreal a(10)\ndo i = 1, 10\na(1) = 0.0\nend do\nend",
        );
        let outs: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Output).collect();
        assert!(
            outs.iter().any(|d| d.dirvec == vec![Direction::Lt]),
            "{e:#?}"
        );
    }

    #[test]
    fn interchange_blocking_pair_in_2d() {
        // a(i,j) = a(i-1,j+1): flow dep with direction (<,>): the classic
        // loop-interchange blocker.
        let (_, e) = deps(
            "program p\ninteger i, j\nreal a(20,20)\ndo i = 2, 10\ndo j = 1, 9\na(i,j) = a(i-1,j+1)\nend do\nend do\nend",
        );
        let flows: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1, "{e:#?}");
        assert_eq!(flows[0].dirvec, vec![Direction::Lt, Direction::Gt]);
    }

    #[test]
    fn interchange_safe_2d_has_no_lt_gt() {
        let (_, e) = deps(
            "program p\ninteger i, j\nreal a(20,20)\ndo i = 2, 10\ndo j = 2, 10\na(i,j) = a(i-1,j-1)\nend do\nend do\nend",
        );
        let flows: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1, "{e:#?}");
        assert_eq!(flows[0].dirvec, vec![Direction::Lt, Direction::Lt]);
    }

    #[test]
    fn cross_loop_same_subscript_pattern() {
        // Two adjacent loops touching the same elements: write in loop 1,
        // read in loop 2. No common loops ⇒ empty direction vector, flow
        // edge oriented by textual order.
        let (_, e) = deps(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 100\na(i) = 1.0\nend do\ndo i = 1, 100\nx = a(i)\nend do\nend",
        );
        let flows: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Flow).collect();
        // The plain cross-loop edge (empty vector) plus its fusion-preview
        // twin (aligned direction `=`, since the bounds match).
        assert_eq!(flows.len(), 2, "{e:#?}");
        assert!(flows.iter().any(|d| d.dirvec.is_empty()));
        assert!(flows.iter().any(|d| d.dirvec == vec![Direction::Eq]));
    }

    #[test]
    fn symbolic_invariant_subscripts_cancel() {
        // a(m) twice: same symbolic subscript ⇒ dependence; a(m) vs a(m+1)
        // ⇒ provably distinct under the invariance assumption.
        let (_, e) = deps(
            "program p\ninteger m\nreal a(10), x, y\nm = 3\na(m) = 1.0\nx = a(m)\ny = a(m+1)\nend",
        );
        let flows: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Flow).collect();
        assert_eq!(flows.len(), 1, "{e:#?}");
    }

    #[test]
    fn unknown_invariant_difference_is_conservative() {
        // a(m) vs a(n): cannot decide ⇒ dependence assumed.
        let (_, e) = deps(
            "program p\ninteger m, n\nreal a(10), x\na(m) = 1.0\nx = a(n)\nend",
        );
        assert_eq!(e.iter().filter(|d| d.kind == DepKind::Flow).count(), 1);
    }
}

#[cfg(test)]
mod fusion_tests {
    use super::*;
    use gospel_frontend::compile;
    use crate::edge::Direction;

    fn deps(src: &str) -> Vec<DepEdge> {
        let p = compile(src).unwrap();
        let loops = LoopTable::of(&p).unwrap();
        array_deps(&p, &loops, &crate::build::dense_order(&p))
    }

    #[test]
    fn aligned_adjacent_loops_preview_equal_direction() {
        // write a(i) in loop 1, read a(i) in loop 2: after fusion the
        // dependence is same-iteration: preview (=), which is fusable.
        let e = deps(
            "program p\ninteger i\nreal a(100), x\ndo i = 1, 100\na(i) = 1.0\nend do\ndo i = 1, 100\nx = a(i)\nend do\nend",
        );
        let preview: Vec<_> = e
            .iter()
            .filter(|d| d.kind == DepKind::Flow && d.dirvec.len() == 1)
            .collect();
        assert_eq!(preview.len(), 1, "{e:#?}");
        assert_eq!(preview[0].dirvec, vec![Direction::Eq]);
        // no fusion-preventing (>) edge
        assert!(!e.iter().any(|d| d.dirvec == vec![Direction::Gt]));
    }

    #[test]
    fn forward_reference_previews_fusion_preventing() {
        // loop 1 writes a(i); loop 2 reads a(i+1): loop 2's iteration i
        // needs the element loop 1 writes at iteration i+1 — after fusion
        // that write has not happened yet: direction (>), not fusable.
        let e = deps(
            "program p\ninteger i\nreal a(200), x\ndo i = 1, 100\na(i) = 1.0\nend do\ndo i = 1, 100\nx = a(i+1)\nend do\nend",
        );
        assert!(
            e.iter().any(|d| d.kind == DepKind::Flow && d.dirvec == vec![Direction::Gt]),
            "{e:#?}"
        );
    }

    #[test]
    fn backward_reference_previews_forward_carried() {
        // loop 2 reads a(i-1): after fusion the value arrives from the
        // previous iteration: direction (<), fusable.
        let e = deps(
            "program p\ninteger i\nreal a(200), x\ndo i = 2, 100\na(i) = 1.0\nend do\ndo i = 2, 100\nx = a(i-1)\nend do\nend",
        );
        let previews: Vec<_> = e.iter().filter(|d| d.dirvec.len() == 1).collect();
        assert!(
            previews.iter().any(|d| d.dirvec == vec![Direction::Lt]),
            "{e:#?}"
        );
        assert!(!previews.iter().any(|d| d.dirvec == vec![Direction::Gt]));
    }

    #[test]
    fn different_bounds_get_no_preview() {
        let e = deps(
            "program p\ninteger i\nreal a(200), x\ndo i = 1, 100\na(i) = 1.0\nend do\ndo i = 1, 50\nx = a(i)\nend do\nend",
        );
        assert!(e.iter().all(|d| d.dirvec.is_empty()), "{e:#?}");
    }

    #[test]
    fn different_lcv_names_still_align() {
        let e = deps(
            "program p\ninteger i, j\nreal a(100), x\ndo i = 1, 100\na(i) = 1.0\nend do\ndo j = 1, 100\nx = a(j)\nend do\nend",
        );
        assert!(
            e.iter().any(|d| d.dirvec == vec![Direction::Eq]),
            "{e:#?}"
        );
    }
}
