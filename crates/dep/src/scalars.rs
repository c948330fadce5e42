//! Scalar data dependences (flow, anti, output) with direction vectors.
//!
//! Classification strategy (documented in DESIGN.md): the reaching
//! definitions/uses fixpoints already propagate around loop back edges, so
//! reachability alone tells us a dependence exists; the direction vector is
//! then recovered per ordered pair:
//!
//! * source textually before sink and source access reaches sink → a
//!   loop-independent edge (all-`=` vector over the common nest);
//! * additionally, for every common loop `Lk`: if the source access reaches
//!   the bottom of `Lk`'s body (its `end do`) *and* the sink access is
//!   exposed to values arriving at `Lk`'s header, the dependence is also
//!   carried by `Lk` → an edge `(=,…,=,<,*,…)` with the `<` at `Lk`'s
//!   level (outermost such level is emitted);
//! * source textually at/after sink → only the carried edge exists.

use crate::edge::{DepEdge, DepKind, Direction};
use crate::incremental::SymSet;
use crate::reach::{reaching, Access, Accesses, Exposure, FlowSets};
use gospel_ir::{Cfg, LoopId, LoopTable, Program};

pub(crate) struct ScalarCtx<'p> {
    pub cfg: &'p Cfg,
    pub loops: &'p LoopTable,
    pub acc: Accesses,
    /// Dense program order (see [`crate::build::dense_order`]).
    pub order: &'p [u32],
    /// Base symbol defined by each CFG node (`u32::MAX` = none), over the
    /// whole program even when `acc` is restricted: the kill test of the
    /// sink-side exposure check.
    node_def: Vec<u32>,
}

/// Collects the edges of one analysis, with the buffers every pair reuses.
struct Emitter {
    common: Vec<LoopId>,
    exposure: Exposure,
    edges: Vec<DepEdge>,
}

/// Computes all scalar data dependence edges.
#[cfg(test)]
pub(crate) fn scalar_deps(prog: &Program, cfg: &Cfg, loops: &LoopTable) -> Vec<DepEdge> {
    scalar_deps_filtered(prog, cfg, loops, &crate::build::dense_order(prog), None, |_, _| true)
}

/// Scalar dependence edges restricted to variables in `only` (all
/// variables when `None`) and to the (source, sink) access pairs `keep`
/// accepts. The restriction is exact per variable — see
/// [`Accesses::collect_where`] — and each pair's edges are a function of
/// that pair alone, so the edges produced are exactly the unrestricted
/// analysis's edges of the accepted pairs; a rejected pair allocates
/// nothing. `order` is the caller's dense order table (shared across the
/// analysis passes of one update — see [`crate::build::dense_order`]).
pub(crate) fn scalar_deps_filtered(
    prog: &Program,
    cfg: &Cfg,
    loops: &LoopTable,
    order: &[u32],
    only: Option<&SymSet>,
    keep: impl Fn(&Access, &Access) -> bool,
) -> Vec<DepEdge> {
    let acc = match only {
        None => Accesses::collect_where(prog, |_| true),
        Some(vars) => Accesses::collect_where(prog, |v| vars.contains(v)),
    };
    if acc.defs.is_empty() {
        return Vec::new(); // every scalar edge has a definition at one end
    }
    let node_def = cfg
        .nodes()
        .iter()
        .map(|&s| {
            prog.quad(s)
                .def_base()
                .map_or(u32::MAX, |v| v.index() as u32)
        })
        .collect();
    let ctx = ScalarCtx {
        cfg,
        loops,
        acc,
        order,
        node_def,
    };
    let r = reaching(cfg, &ctx.acc, prog.syms().len());
    let mut out = Emitter {
        common: Vec::new(),
        exposure: Exposure::new(cfg.len()),
        edges: Vec::new(),
    };

    // Flow: a definition reaching a use of its variable.
    for u in &ctx.acc.uses {
        let node = cfg.node_of(u.stmt);
        for &d in ctx.acc.defs_of(u.var) {
            let bit = r.def_bit(d);
            let def = &ctx.acc.defs[d as usize];
            if r.ins.contains(node, bit) && keep(def, u) {
                out.emit(&ctx, DepKind::Flow, def, u, &r.outs, bit);
            }
        }
    }
    // Anti: a use reaching a redefinition of its variable. Within one
    // statement the read happens before the write; no self anti edge.
    for def in &ctx.acc.defs {
        let node = cfg.node_of(def.stmt);
        for &u in ctx.acc.uses_of(def.var) {
            let use_acc = &ctx.acc.uses[u as usize];
            let bit = r.use_bit(u);
            if use_acc.stmt != def.stmt && r.ins.contains(node, bit) && keep(use_acc, def) {
                out.emit(&ctx, DepKind::Anti, use_acc, def, &r.outs, bit);
            }
        }
    }
    // Output: a definition reaching a redefinition of its variable.
    for def2 in &ctx.acc.defs {
        let node = cfg.node_of(def2.stmt);
        for &d in ctx.acc.defs_of(def2.var) {
            let bit = r.def_bit(d);
            let def1 = &ctx.acc.defs[d as usize];
            if r.ins.contains(node, bit) && keep(def1, def2) {
                out.emit(&ctx, DepKind::Output, def1, def2, &r.outs, bit);
            }
        }
    }
    out.edges
}

impl Emitter {
    /// Emits the loop-independent and/or loop-carried edges for one
    /// source→sink access pair of one variable, based on textual order
    /// and the per-loop carried checks. `src_bit` is the source access's
    /// bit in `outs`, the dataflow result that says whether it reaches
    /// the bottom of a loop body.
    fn emit(
        &mut self,
        ctx: &ScalarCtx<'_>,
        kind: DepKind,
        src: &Access,
        dst: &Access,
        outs: &FlowSets,
        src_bit: usize,
    ) {
        let Emitter {
            common,
            exposure,
            edges,
        } = self;
        ctx.loops.common_nest_into(src.stmt, dst.stmt, common);
        let before = ctx.order[src.stmt.index()] < ctx.order[dst.stmt.index()];
        let same = src.stmt == dst.stmt;
        let edge = |dirvec: Vec<Direction>| DepEdge {
            src: src.stmt,
            dst: dst.stmt,
            kind,
            var: src.var,
            src_pos: src.pos,
            dst_pos: dst.pos,
            dirvec,
        };

        if before {
            edges.push(edge(vec![Direction::Eq; common.len()]));
        }

        // Carried edges: find the outermost common loop that actually
        // carries: the source access reaches the bottom of the body, and
        // the sink access is exposed to values arriving at the header (no
        // redefinition of the variable on the way, the sink itself
        // excepted).
        let var = src.var.index() as u32;
        let target = ctx.cfg.node_of(dst.stmt);
        for (k, &l) in common.iter().enumerate() {
            let info = ctx.loops.get(l);
            let head_node = ctx.cfg.node_of(info.head);
            let end_node = ctx.cfg.node_of(info.end);
            if !outs.contains(end_node, src_bit) {
                continue;
            }
            let sink_exposed =
                exposure.exposed_from_head(ctx.cfg, head_node, end_node, target, |n| {
                    ctx.node_def[n] == var && n != target
                });
            if sink_exposed {
                let mut dirvec = vec![Direction::Eq; common.len()];
                dirvec[k] = Direction::Lt;
                for d in dirvec.iter_mut().skip(k + 1) {
                    *d = Direction::Any;
                }
                edges.push(edge(dirvec));
                return; // outermost carrying level is enough
            }
        }

        // A wrap-around pair (source at/after sink) that the per-loop
        // check missed still must be carried by *some* common loop; be
        // conservative.
        if (!before || same) && !common.is_empty() {
            let mut dirvec = vec![Direction::Any; common.len()];
            dirvec[0] = Direction::Lt;
            edges.push(edge(dirvec));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;
    use gospel_ir::{Opcode, StmtId};

    fn deps(src: &str) -> (Program, Vec<DepEdge>) {
        let p = compile(src).unwrap();
        let cfg = Cfg::of(&p);
        let loops = LoopTable::of(&p).unwrap();
        let e = scalar_deps(&p, &cfg, &loops);
        (p, e)
    }

    fn stmt_n(p: &Program, n: usize) -> StmtId {
        p.iter().nth(n).unwrap()
    }

    #[test]
    fn straight_line_flow_and_kill() {
        let (p, e) = deps("program p\ninteger x, y\nx = 1\nx = 2\ny = x\nend");
        let s0 = stmt_n(&p, 0);
        let s1 = stmt_n(&p, 1);
        let s2 = stmt_n(&p, 2);
        assert!(e
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.src == s1 && d.dst == s2));
        assert!(!e
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.src == s0 && d.dst == s2));
        // output dep x=1 -> x=2
        assert!(e
            .iter()
            .any(|d| d.kind == DepKind::Output && d.src == s0 && d.dst == s1));
    }

    #[test]
    fn anti_dependence() {
        let (p, e) = deps("program p\ninteger x, y\ny = x\nx = 1\nend");
        let s0 = stmt_n(&p, 0);
        let s1 = stmt_n(&p, 1);
        let anti: Vec<_> = e.iter().filter(|d| d.kind == DepKind::Anti).collect();
        assert!(anti.iter().any(|d| d.src == s0 && d.dst == s1));
    }

    #[test]
    fn accumulator_has_carried_flow_self_dep() {
        let (p, e) = deps(
            "program p\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + 1\nend do\nwrite s\nend",
        );
        let body = p
            .iter()
            .find(|&s| p.quad(s).op == Opcode::Add)
            .unwrap();
        let carried: Vec<_> = e
            .iter()
            .filter(|d| d.kind == DepKind::Flow && d.src == body && d.dst == body)
            .collect();
        assert_eq!(carried.len(), 1, "edges: {e:#?}");
        assert_eq!(carried[0].dirvec, vec![Direction::Lt]);
    }

    #[test]
    fn lcv_use_is_loop_independent_from_header() {
        let (p, e) = deps(
            "program p\ninteger i, x\ndo i = 1, 10\nx = i\nend do\nend",
        );
        let head = stmt_n(&p, 0);
        let body = stmt_n(&p, 1);
        let lcv_edges: Vec<_> = e
            .iter()
            .filter(|d| d.kind == DepKind::Flow && d.src == head && d.dst == body)
            .collect();
        // The header is outside its own loop, so the common nest is empty
        // and the edge carries an empty (loop-independent) vector.
        assert!(!lcv_edges.is_empty());
        assert!(lcv_edges.iter().all(|d| d.dirvec.is_empty()));
    }

    #[test]
    fn branch_does_not_kill() {
        let (p, e) = deps(
            "program p\ninteger x, y, c\nx = 1\nif (c > 0) then\nx = 2\nend if\ny = x\nend",
        );
        let s0 = stmt_n(&p, 0); // x = 1
        let use_stmt = p.iter().last().unwrap(); // y = x
        // x=1 still reaches around the branch
        assert!(e
            .iter()
            .any(|d| d.kind == DepKind::Flow && d.src == s0 && d.dst == use_stmt));
    }

    #[test]
    fn carried_flow_between_different_statements() {
        // x set this iteration, used next iteration before being reset
        let (p, e) = deps(
            "program p\ninteger i, x, y\nx = 0\ndo i = 1, 10\ny = x\nx = y + 1\nend do\nend",
        );
        let set = p
            .iter()
            .find(|&s| p.quad(s).op == Opcode::Add)
            .unwrap(); // x = y + 1
        let use_x = p
            .iter()
            .filter(|&s| p.quad(s).op == Opcode::Assign)
            .nth(1)
            .unwrap(); // y = x (second assign)
        let carried: Vec<_> = e
            .iter()
            .filter(|d| {
                d.kind == DepKind::Flow
                    && d.src == set
                    && d.dst == use_x
                    && d.dirvec == vec![Direction::Lt]
            })
            .collect();
        assert_eq!(carried.len(), 1, "edges: {e:#?}");
    }

    #[test]
    fn independent_flow_inside_loop_body() {
        let (p, e) = deps(
            "program p\ninteger i, x, y\ndo i = 1, 10\nx = i\ny = x\nend do\nend",
        );
        let def = stmt_n(&p, 1);
        let use_ = stmt_n(&p, 2);
        let eqs: Vec<_> = e
            .iter()
            .filter(|d| d.kind == DepKind::Flow && d.src == def && d.dst == use_)
            .collect();
        assert!(eqs.iter().any(|d| d.dirvec == vec![Direction::Eq]));
        // x is redefined every iteration before the use, so NOT carried.
        assert!(!eqs.iter().any(|d| d.dirvec == vec![Direction::Lt]));
    }
}
