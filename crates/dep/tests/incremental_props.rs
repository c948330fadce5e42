//! Property test for incremental dependence maintenance: for random
//! structured programs and random journaled primitive-edit batches,
//! [`DepGraph::update`] must agree edge-for-edge with a fresh
//! [`DepGraph::analyze`] of the post-edit program.
//!
//! The generator drives the vendored proptest shim's deterministic RNG
//! directly (a program is easier to grow imperatively than to express as
//! a composed strategy), so every failure reproduces by rerunning the
//! test with the same seed case.

use gospel_dep::{AnalyzeError, DepGraph, UpdateKind};
use gospel_ir::{
    AffineExpr, EditDelta, Opcode, Operand, OperandPos, Program, ProgramBuilder, Quad, StmtId, Sym,
    ValidateError,
};
use proptest::prelude::*;
use proptest::TestRng;

struct Vars {
    scalars: Vec<Sym>,
    arrays: Vec<Sym>,
}

/// A random operand reading one of the declared names (or a constant).
fn gen_read(rng: &mut TestRng, v: &Vars, idx: Sym) -> Operand {
    match rng.below(4) {
        0 => Operand::int(rng.below(100) as i64),
        1 => Operand::Var(v.scalars[rng.below(v.scalars.len())]),
        2 => Operand::elem1(v.arrays[rng.below(v.arrays.len())], AffineExpr::var(idx)),
        _ => Operand::elem1(
            v.arrays[rng.below(v.arrays.len())],
            AffineExpr::var(idx).plus(&AffineExpr::constant_expr(rng.below(3) as i64)),
        ),
    }
}

/// A random destination: a scalar or an array element subscripted by
/// `idx` (the enclosing loop variable, or a plain scalar outside loops).
fn gen_dst(rng: &mut TestRng, v: &Vars, idx: Sym) -> Operand {
    if rng.below(2) == 0 {
        Operand::Var(v.scalars[rng.below(v.scalars.len())])
    } else {
        Operand::elem1(v.arrays[rng.below(v.arrays.len())], AffineExpr::var(idx))
    }
}

fn gen_assign(b: &mut ProgramBuilder, rng: &mut TestRng, v: &Vars, idx: Sym) {
    let dst = gen_dst(rng, v, idx);
    if rng.below(2) == 0 {
        b.assign(dst, gen_read(rng, v, idx));
    } else {
        b.add(dst, gen_read(rng, v, idx), gen_read(rng, v, idx));
    }
}

/// A random loop bound: usually a constant, sometimes a scalar (whose
/// trip count the subscript tests cannot know).
fn gen_bound(rng: &mut TestRng, v: &Vars, constant: i64) -> Operand {
    if rng.below(4) == 0 {
        Operand::Var(v.scalars[rng.below(v.scalars.len())])
    } else {
        Operand::int(constant)
    }
}

/// Appends one random construct: an assignment, a loop (nested up to
/// two levels, each with its own control variable) or a conditional.
/// `open` holds the control variables of the enclosing loops; subscripts
/// use one of them (or a plain scalar outside loops).
fn gen_construct(
    b: &mut ProgramBuilder,
    rng: &mut TestRng,
    v: &Vars,
    lcvs: &[Sym],
    next_lcv: &mut usize,
    open: &mut Vec<Sym>,
) {
    let idx = if open.is_empty() {
        v.scalars[0]
    } else {
        open[rng.below(open.len())]
    };
    match rng.below(4) {
        0 | 1 => gen_assign(b, rng, v, idx),
        2 if open.len() < 2 => {
            let lcv = lcvs[*next_lcv % lcvs.len()];
            *next_lcv += 1;
            let lo = gen_bound(rng, v, 1);
            let trip = 10 + rng.below(10) as i64;
            let hi = gen_bound(rng, v, trip);
            let tok = b.do_head(lcv, lo, hi);
            open.push(lcv);
            for _ in 0..1 + rng.below(3) {
                gen_construct(b, rng, v, lcvs, next_lcv, open);
            }
            open.pop();
            b.end_do(tok);
        }
        _ => {
            let tok = b.if_head(
                Opcode::IfGt,
                Operand::Var(v.scalars[rng.below(v.scalars.len())]),
                Operand::int(0),
            );
            gen_assign(b, rng, v, idx);
            if rng.below(2) == 0 {
                b.else_mark(tok);
                gen_assign(b, rng, v, idx);
            }
            b.end_if(tok);
        }
    }
}

/// A random structured program: straight-line assignments, loops nested
/// up to two levels (distinct control variables, bounds constant or read
/// from scalars), and conditionals, over a fixed pool of scalars and 1-D
/// arrays.
fn gen_program(rng: &mut TestRng) -> (Program, Vars) {
    let mut b = ProgramBuilder::new("prop");
    let vars = Vars {
        scalars: (0..4).map(|k| b.scalar_int(&format!("x{k}"))).collect(),
        arrays: (0..2).map(|k| b.array_int(&format!("a{k}"), &[32])).collect(),
    };
    let lcvs: Vec<Sym> = (0..4).map(|k| b.scalar_int(&format!("i{k}"))).collect();
    let mut next_lcv = 0;
    let mut open = Vec::new();
    for _ in 0..2 + rng.below(4) {
        gen_construct(&mut b, rng, &vars, &lcvs, &mut next_lcv, &mut open);
    }
    (b.finish(), vars)
}

/// Live statements that are plain computations (no loop/branch markers),
/// i.e. safe to delete, move, copy, or rewrite without breaking nesting.
fn plain_stmts(prog: &Program) -> Vec<StmtId> {
    prog.iter()
        .filter(|&s| {
            let op = prog.quad(s).op;
            !op.is_loop_head()
                && !op.is_if()
                && !matches!(op, Opcode::EndDo | Opcode::Else | Opcode::EndIf)
        })
        .collect()
}

/// An insertion anchor: before the first statement or after any live one.
fn gen_anchor(rng: &mut TestRng, prog: &Program) -> Option<StmtId> {
    let live: Vec<StmtId> = prog.iter().collect();
    if live.is_empty() || rng.below(live.len() + 1) == 0 {
        None
    } else {
        Some(live[rng.below(live.len())])
    }
}

/// Live statements whose opcode `keep` accepts.
fn stmts_where(prog: &Program, keep: impl Fn(Opcode) -> bool) -> Vec<StmtId> {
    prog.iter().filter(|&s| keep(prog.quad(s).op)).collect()
}

/// A small constant or a scalar: what a rewritten bound or `if` operand
/// becomes. Small constants give trip counts short enough to prune
/// carried array edges, so a stale trip count shows in the edges.
fn gen_small(rng: &mut TestRng, v: &Vars) -> Operand {
    if rng.below(2) == 0 {
        Operand::int(1 + rng.below(2) as i64)
    } else {
        Operand::Var(v.scalars[rng.below(v.scalars.len())])
    }
}

/// One random operand rewrite, from one of the classes the
/// site-granular update distinguishes: a loop bound (var → const,
/// const → var), an `if` header operand, a used operand (var → const,
/// var → var, element → const, or anything → anything), or a
/// destination. Rewrites nothing when the program has no site of the
/// drawn class.
fn gen_rewrite(rng: &mut TestRng, prog: &mut Program, v: &Vars, d: &mut EditDelta) {
    match rng.below(5) {
        0 => {
            let heads = stmts_where(prog, Opcode::is_loop_head);
            if !heads.is_empty() {
                let s = heads[rng.below(heads.len())];
                let pos = [OperandPos::A, OperandPos::B][rng.below(2)];
                let new = match prog.quad(s).operand(pos) {
                    Operand::Var(_) => Operand::int(1 + rng.below(2) as i64),
                    _ => Operand::Var(v.scalars[rng.below(v.scalars.len())]),
                };
                d.modify(prog, s, pos, new);
            }
        }
        1 => {
            let ifs = stmts_where(prog, Opcode::is_if);
            if !ifs.is_empty() {
                let s = ifs[rng.below(ifs.len())];
                let pos = [OperandPos::A, OperandPos::B][rng.below(2)];
                d.modify(prog, s, pos, gen_small(rng, v));
            }
        }
        2 => {
            // A used operand by class of what it holds now.
            let mut sites: Vec<(StmtId, OperandPos)> = Vec::new();
            for s in plain_stmts(prog) {
                for &pos in prog.quad(s).used_positions() {
                    if !prog.quad(s).operand(pos).is_const() {
                        sites.push((s, pos));
                    }
                }
            }
            if !sites.is_empty() {
                let (s, pos) = sites[rng.below(sites.len())];
                let new = match (prog.quad(s).operand(pos), rng.below(2)) {
                    (Operand::Var(_), 0) => Operand::Var(v.scalars[rng.below(v.scalars.len())]),
                    _ => Operand::int(rng.below(100) as i64),
                };
                d.modify(prog, s, pos, new);
            }
        }
        _ => {
            let plain = plain_stmts(prog);
            if !plain.is_empty() {
                let s = plain[rng.below(plain.len())];
                let pos = match (prog.quad(s).op, rng.below(3)) {
                    (_, 0) => OperandPos::Dst,
                    (Opcode::Add, 1) => OperandPos::B,
                    _ => OperandPos::A,
                };
                let operand = if pos == OperandPos::Dst {
                    gen_dst(rng, v, v.scalars[0])
                } else {
                    gen_read(rng, v, v.scalars[0])
                };
                d.modify(prog, s, pos, operand);
            }
        }
    }
}

/// Inserts an adjacent `if`/`end if` pair (an empty branch keeps nesting
/// valid): a structural edit.
fn gen_empty_if(rng: &mut TestRng, prog: &mut Program, v: &Vars, d: &mut EditDelta) {
    let anchor = gen_anchor(rng, prog);
    let head = d.insert_after(
        prog,
        anchor,
        Quad::new(
            Opcode::IfGt,
            Operand::None,
            Operand::Var(v.scalars[rng.below(v.scalars.len())]),
            Operand::int(0),
        ),
    );
    d.insert_after(prog, Some(head), Quad::marker(Opcode::EndIf));
}

/// One random batch of journaled primitive edits, mixing all five
/// primitives, operand rewrites of every class, and the occasional
/// structural insertion so the signature-diffing path is exercised too.
fn gen_batch(rng: &mut TestRng, prog: &mut Program, v: &Vars) -> EditDelta {
    let mut d = EditDelta::new();
    for _ in 0..1 + rng.below(4) {
        let plain = plain_stmts(prog);
        match rng.below(6) {
            0 => gen_rewrite(rng, prog, v, &mut d),
            1 => {
                let anchor = gen_anchor(rng, prog);
                let quad = Quad::assign(
                    gen_dst(rng, v, v.scalars[0]),
                    gen_read(rng, v, v.scalars[0]),
                );
                d.insert_after(prog, anchor, quad);
            }
            2 if !plain.is_empty() => {
                d.delete(prog, plain[rng.below(plain.len())]);
            }
            3 if !plain.is_empty() => {
                let anchor = gen_anchor(rng, prog);
                d.copy_after(prog, plain[rng.below(plain.len())], anchor);
            }
            4 if plain.len() >= 2 => {
                let s = plain[rng.below(plain.len())];
                let anchor = match gen_anchor(rng, prog) {
                    Some(a) if a == s => None,
                    other => other,
                };
                d.move_after(prog, s, anchor);
            }
            5 if rng.below(3) == 0 => gen_empty_if(rng, prog, v, &mut d),
            _ => {}
        }
    }
    d
}

/// Statements inside some loop's body (markers excluded) and outside
/// every loop, among the plain ones: the two sides a non-structural
/// insert or move can cross.
fn in_and_out_of_loops(prog: &Program) -> (Vec<StmtId>, Vec<StmtId>) {
    let loops = gospel_ir::LoopTable::of(prog).expect("valid loop structure");
    plain_stmts(prog)
        .into_iter()
        .partition(|&s| loops.innermost_at(s).is_some())
}

/// A loop `do i = 1, n` holding `a(i) = x` and `x = a(i - dist)`: one
/// flow pair at strong-SIV distance `dist`, carried iff the trip count
/// exceeds it. An adjacent loop with the same bounds reads `a` too, so
/// bound rewrites also make and break fusion previews. Returns the
/// program and the first loop's header.
fn siv_program(dist: i64) -> (Program, StmtId) {
    let mut b = ProgramBuilder::new("siv");
    let n = b.scalar_int("n");
    let i = b.scalar_int("i");
    let j = b.scalar_int("j");
    let x = b.scalar_int("x");
    let a = b.array_int("a", &[64]);
    b.read(Operand::Var(n));
    let l1 = b.do_head(i, Operand::int(1), Operand::Var(n));
    let head = b.program().last().expect("the header was just added");
    b.assign(Operand::elem1(a, AffineExpr::var(i)), Operand::Var(x));
    b.assign(
        Operand::Var(x),
        Operand::elem1(a, AffineExpr::var(i).plus(&AffineExpr::constant_expr(-dist))),
    );
    b.end_do(l1);
    let l2 = b.do_head(j, Operand::int(1), Operand::Var(n));
    b.assign(Operand::Var(x), Operand::elem1(a, AffineExpr::var(j)));
    b.end_do(l2);
    b.write(Operand::Var(x));
    (b.finish(), head)
}

/// Checks `g` against a fresh analysis of `prog`, naming the case: the
/// edges and loops, and the bookkeeping later updates read — the order
/// table, both signature tables and each statement's innermost loop.
fn check(g: &DepGraph, prog: &Program, case: &str) -> Result<(), TestCaseError> {
    let fresh = DepGraph::analyze(prog).expect("fresh analysis after valid batch");
    prop_assert!(
        g.agrees_with(&fresh),
        "{case}: incremental graph diverged from fresh analysis\nprogram:\n{}",
        gospel_ir::DisplayProgram(prog)
    );
    prop_assert!(
        g.bookkeeping_agrees_with(&fresh),
        "{case}: order table or signatures diverged from fresh analysis\nprogram:\n{}",
        gospel_ir::DisplayProgram(prog)
    );
    for s in prog.iter() {
        prop_assert_eq!(
            g.loops().innermost_at(s),
            fresh.loops().innermost_at(s),
            "{}: innermost loop of {} diverged\nprogram:\n{}",
            case,
            s,
            gospel_ir::DisplayProgram(prog)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn update_agrees_with_fresh_analysis(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("incr-props-{seed}"));
        let (mut prog, vars) = gen_program(&mut rng);
        gospel_ir::validate(&prog).expect("generator produced an invalid program");
        let mut g = DepGraph::analyze(&prog).expect("analysis of generated program");

        for batch in 0..1 + rng.below(3) {
            let delta = gen_batch(&mut rng, &mut prog, &vars);
            let updated = g.update(&prog, &delta);
            prop_assert!(
                updated.is_ok(),
                "seed {seed} batch {batch}: update failed: {:?}",
                updated.err()
            );
            check(
                &g,
                &prog,
                &format!(
                    "seed {seed} batch {batch} ({} ops, structural: {})",
                    delta.len(),
                    delta.requires_full()
                ),
            )?;
        }
    }

    #[test]
    fn operand_rewrites_agree_with_fresh_analysis(seed in any::<u64>()) {
        // Batches made only of operand rewrites, over every rewrite
        // class, several batches in a row.
        let mut rng = TestRng::from_name(&format!("incr-rewrite-{seed}"));
        let (mut prog, vars) = gen_program(&mut rng);
        let mut g = DepGraph::analyze(&prog).expect("analysis of generated program");
        for batch in 0..1 + rng.below(4) {
            let mut delta = EditDelta::new();
            for _ in 0..1 + rng.below(3) {
                gen_rewrite(&mut rng, &mut prog, &vars, &mut delta);
            }
            let up = g.update(&prog, &delta).expect("update after valid rewrites");
            prop_assert!(
                delta.is_empty() || up.kind == UpdateKind::Incremental,
                "seed {seed} batch {batch}: {:?}", up.kind
            );
            check(&g, &prog, &format!("seed {seed} batch {batch}"))?;
        }
    }

    #[test]
    fn bound_rewrite_then_structural_batch_stays_exact(seed in any::<u64>()) {
        // A bound rewrite patches the snapshot's loop table and must
        // refresh its signatures: the structural batch that follows diffs
        // against them. It restores the bound, so a stale signature would
        // look unchanged and hide the loop's re-derivation.
        let mut rng = TestRng::from_name(&format!("incr-bound-{seed}"));
        let (mut prog, vars) = gen_program(&mut rng);
        let heads = stmts_where(&prog, Opcode::is_loop_head);
        if heads.is_empty() {
            return Ok(());
        }
        let mut g = DepGraph::analyze(&prog).expect("analysis of generated program");
        let head = heads[rng.below(heads.len())];
        let pos = [OperandPos::A, OperandPos::B][rng.below(2)];
        let original = prog.quad(head).operand(pos).clone();

        let mut d1 = EditDelta::new();
        d1.modify(&mut prog, head, pos, gen_small(&mut rng, &vars));
        g.update(&prog, &d1).expect("update after a bound rewrite");
        check(&g, &prog, &format!("seed {seed} bound rewrite"))?;

        let mut d2 = EditDelta::new();
        gen_empty_if(&mut rng, &mut prog, &vars, &mut d2);
        d2.modify(&mut prog, head, pos, original);
        let up = g.update(&prog, &d2).expect("update after a structural batch");
        prop_assert_eq!(up.kind, UpdateKind::Structural);
        check(&g, &prog, &format!("seed {seed} structural batch"))?;
    }

    #[test]
    fn undo_then_update_restores_original_graph(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("incr-undo-{seed}"));
        let (mut prog, vars) = gen_program(&mut rng);
        let original = DepGraph::analyze(&prog).expect("analysis of generated program");
        let mut g = original.clone();

        // Apply a batch, update, then roll the program back with the undo
        // journal: re-analysis of the restored program must equal the
        // original graph (the journal really is a faithful inverse).
        let delta = gen_batch(&mut rng, &mut prog, &vars);
        g.update(&prog, &delta)
            .expect("update after valid batch");
        delta.undo(&mut prog);
        let restored = DepGraph::analyze(&prog).expect("analysis of restored program");
        prop_assert!(
            restored.agrees_with(&original),
            "seed {seed}: undo did not restore the dependence graph"
        );
    }

    #[test]
    fn delete_only_batches_agree_with_fresh_analysis(seed in any::<u64>()) {
        // Deletes alone: the removed statements' edges go, the scalars
        // they defined are re-derived when something reached them, and
        // loops the deletion made adjacent gain their previews.
        let mut rng = TestRng::from_name(&format!("incr-delete-{seed}"));
        let (mut prog, _) = gen_program(&mut rng);
        let mut g = DepGraph::analyze(&prog).expect("analysis of generated program");
        for batch in 0..1 + rng.below(4) {
            let mut delta = EditDelta::new();
            for _ in 0..1 + rng.below(3) {
                let plain = plain_stmts(&prog);
                if !plain.is_empty() {
                    delta.delete(&mut prog, plain[rng.below(plain.len())]);
                }
            }
            let up = g.update(&prog, &delta).expect("update after deletes");
            prop_assert!(delta.is_empty() || up.kind == UpdateKind::Incremental, "{:?}", up.kind);
            check(&g, &prog, &format!("seed {seed} batch {batch}"))?;
        }
    }

    #[test]
    fn inserts_and_moves_across_loop_bodies_agree_with_fresh_analysis(seed in any::<u64>()) {
        // Plain statements inserted into or moved into and out of loop
        // bodies: the placed statements take their place's loop, control
        // edges and context, and every survivor shifts in the order table.
        let mut rng = TestRng::from_name(&format!("incr-place-{seed}"));
        let (mut prog, vars) = gen_program(&mut rng);
        let mut g = DepGraph::analyze(&prog).expect("analysis of generated program");
        for batch in 0..1 + rng.below(4) {
            let mut delta = EditDelta::new();
            for _ in 0..1 + rng.below(3) {
                let (inside, outside) = in_and_out_of_loops(&prog);
                let into = rng.below(2) == 0;
                let (from, to) = if into { (&outside, &inside) } else { (&inside, &outside) };
                let anchor = if to.is_empty() { gen_anchor(&mut rng, &prog) } else { Some(to[rng.below(to.len())]) };
                match (rng.below(2), from.is_empty()) {
                    (0, false) => {
                        let s = from[rng.below(from.len())];
                        if anchor != Some(s) {
                            delta.move_after(&mut prog, s, anchor);
                        }
                    }
                    _ => {
                        let quad = Quad::assign(
                            gen_dst(&mut rng, &vars, vars.scalars[0]),
                            gen_read(&mut rng, &vars, vars.scalars[0]),
                        );
                        delta.insert_after(&mut prog, anchor, quad);
                    }
                }
            }
            let up = g.update(&prog, &delta).expect("update after inserts and moves");
            prop_assert!(delta.is_empty() || up.kind == UpdateKind::Incremental, "{:?}", up.kind);
            check(&g, &prog, &format!("seed {seed} batch {batch}"))?;
        }
    }

    #[test]
    fn bound_rewrites_crossing_a_strong_siv_distance_agree(seed in any::<u64>()) {
        // `do i = 1, n` becomes `do i = 1, c`: the carried flow at
        // distance `dist` exists iff the trip count `c` exceeds it, so
        // draws of `c` on both sides of `dist` (zero-trip included) flip
        // it, and the equal-bounds previews with the next loop break.
        // Rewriting the second loop the same way restores them, and
        // rewriting back to `n` restores the original graph.
        let mut rng = TestRng::from_name(&format!("incr-siv-{seed}"));
        let dist = 1 + rng.below(6) as i64;
        let (mut prog, head) = siv_program(dist);
        let original = DepGraph::analyze(&prog).expect("analysis of the SIV program");
        let mut g = original.clone();
        let trip = rng.below(9) as i64;
        let n = prog.quad(head).b.clone();
        let mut d1 = EditDelta::new();
        d1.modify(&mut prog, head, OperandPos::B, Operand::int(trip));
        g.update(&prog, &d1).expect("update after a bound rewrite");
        check(&g, &prog, &format!("seed {seed}: dist {dist} trip {trip}"))?;
        let a = prog.syms().lookup("a").expect("the array is declared");
        let carried = g.edges().iter().any(|e| e.var == a
            && e.kind == gospel_dep::DepKind::Flow
            && e.dirvec == [gospel_dep::Direction::Lt]);
        prop_assert_eq!(carried, trip > dist, "dist {} trip {}", dist, trip);

        let head2 = stmts_where(&prog, Opcode::is_loop_head)[1];
        let mut d2 = EditDelta::new();
        d2.modify(&mut prog, head2, OperandPos::B, Operand::int(trip));
        g.update(&prog, &d2).expect("update after the partner's bound rewrite");
        check(&g, &prog, &format!("seed {seed}: partner at trip {trip}"))?;

        let mut d3 = EditDelta::new();
        d3.modify(&mut prog, head, OperandPos::B, n.clone());
        d3.modify(&mut prog, head2, OperandPos::B, n);
        g.update(&prog, &d3).expect("update after restoring both bounds");
        check(&g, &prog, &format!("seed {seed}: restored"))?;
        prop_assert!(g.agrees_with(&original), "seed {seed}: restoring the bounds did not restore the graph");
    }
}

#[test]
fn deleting_the_only_statement_between_two_loops_makes_their_previews() {
    // `t = 0` keeps two equal-bound loops apart; deleting it makes them
    // adjacent, which creates the fusion previews of `a` — an array the
    // deleted statement never mentions. Putting it back breaks them.
    let mut b = ProgramBuilder::new("adjacent");
    let i = b.scalar_int("i");
    let t = b.scalar_int("t");
    let x = b.scalar_int("x");
    let a = b.array_int("a", &[64]);
    let l1 = b.do_head(i, Operand::int(1), Operand::int(50));
    b.assign(Operand::elem1(a, AffineExpr::var(i)), Operand::Var(x));
    let end1 = b.end_do(l1);
    let sep = b.assign(Operand::Var(t), Operand::int(0));
    let l2 = b.do_head(i, Operand::int(1), Operand::int(50));
    b.assign(Operand::Var(x), Operand::elem1(a, AffineExpr::var(i)));
    b.end_do(l2);
    let mut prog = b.finish();
    let previews = |g: &DepGraph| g.edges().iter().filter(|e| e.var == a && e.dirvec.len() == 1).count();
    let mut g = DepGraph::analyze(&prog).unwrap();
    assert_eq!(previews(&g), 0);

    let mut d = EditDelta::new();
    d.delete(&mut prog, sep);
    assert_eq!(g.update(&prog, &d).unwrap().kind, UpdateKind::Incremental);
    check(&g, &prog, "separator deleted").unwrap();
    assert!(previews(&g) > 0, "adjacent equal-bound loops preview their pairs");

    let mut d = EditDelta::new();
    d.insert_after(&mut prog, Some(end1), Quad::assign(Operand::Var(t), Operand::int(0)));
    assert_eq!(g.update(&prog, &d).unwrap().kind, UpdateKind::Incremental);
    check(&g, &prog, "separator restored").unwrap();
    assert_eq!(previews(&g), 0);
}

#[test]
fn an_inner_loop_reusing_the_control_variable_retests_its_previews() {
    // The inner `do i` reuses the outer loop's control variable, so the
    // fusion preview of the two inner loops renames `j` to `i` and tests
    // `a(i)` against `a(i+5)` at the *outer* level: distance 5 against
    // the outer trip count. Rewriting `n` to 3 prunes that preview,
    // though no subscript of the pair mentions the outer loop's `i`
    // twice.
    let mut b = ProgramBuilder::new("reuse");
    let n = b.scalar_int("n");
    let i = b.scalar_int("i");
    let j = b.scalar_int("j");
    let x = b.scalar_int("x");
    let a = b.array_int("a", &[64]);
    b.read(Operand::Var(n));
    let outer = b.do_head(i, Operand::int(1), Operand::Var(n));
    let head = b.program().last().unwrap();
    let l1 = b.do_head(i, Operand::int(1), Operand::int(10));
    b.assign(Operand::elem1(a, AffineExpr::var(i)), Operand::Var(x));
    b.end_do(l1);
    let l2 = b.do_head(j, Operand::int(1), Operand::int(10));
    b.assign(
        Operand::Var(x),
        Operand::elem1(a, AffineExpr::var(j).plus(&AffineExpr::constant_expr(5))),
    );
    b.end_do(l2);
    b.end_do(outer);
    let mut prog = b.finish();
    let mut g = DepGraph::analyze(&prog).unwrap();
    for trip in [3, 9, 2] {
        let mut d = EditDelta::new();
        d.modify(&mut prog, head, OperandPos::B, Operand::int(trip));
        assert_eq!(g.update(&prog, &d).unwrap().kind, UpdateKind::Incremental);
        check(&g, &prog, &format!("outer trip {trip}")).unwrap();
    }
}

#[test]
fn a_structural_batch_resorts_the_control_edges_of_moved_statements() {
    // Swapping two statements inside a loop keeps both in the loop's
    // context, but their control edges change places in the sorted
    // list; the empty branch added in the same batch makes it
    // structural.
    let mut b = ProgramBuilder::new("swap");
    let i = b.scalar_int("i");
    let x = b.scalar_int("x");
    let y = b.scalar_int("y");
    let l = b.do_head(i, Operand::int(1), Operand::int(10));
    let first = b.assign(Operand::Var(x), Operand::int(1));
    let second = b.assign(Operand::Var(y), Operand::int(2));
    let end = b.end_do(l);
    let mut prog = b.finish();
    let mut g = DepGraph::analyze(&prog).unwrap();
    let mut d = EditDelta::new();
    d.move_after(&mut prog, first, Some(second));
    let h = d.insert_after(
        &mut prog,
        Some(end),
        Quad::new(Opcode::IfGt, Operand::None, Operand::Var(x), Operand::int(0)),
    );
    d.insert_after(&mut prog, Some(h), Quad::marker(Opcode::EndIf));
    assert_eq!(g.update(&prog, &d).unwrap().kind, UpdateKind::Structural);
    check(&g, &prog, "swapped under a structural batch").unwrap();
}

#[test]
fn moving_an_end_if_past_the_outer_else_is_rejected() {
    // Moving the inner `end if` past the outer `else` leaves the inner
    // conditional `if … else … else … end if`. Both the structural
    // update and a fresh analysis must refuse that program rather than
    // derive edges for it.
    let mut b = ProgramBuilder::new("two_elses");
    let x = b.scalar_int("x");
    let y = b.scalar_int("y");
    b.read(Operand::Var(x));
    let outer = b.if_head(Opcode::IfGt, Operand::Var(x), Operand::int(0));
    let inner = b.if_head(Opcode::IfGt, Operand::Var(x), Operand::int(5));
    b.assign(Operand::Var(y), Operand::int(1));
    b.else_mark(inner);
    b.assign(Operand::Var(y), Operand::int(2));
    let inner_end = b.end_if(inner);
    let outer_else = b.else_mark(outer);
    b.assign(Operand::Var(y), Operand::int(3));
    b.end_if(outer);
    b.write(Operand::Var(y));
    let mut prog = b.finish();
    let mut g = DepGraph::analyze(&prog).unwrap();

    let mut d = EditDelta::new();
    d.move_after(&mut prog, inner_end, Some(outer_else));
    assert!(d.requires_full());
    let invalid = |r: Result<_, AnalyzeError>| {
        matches!(r, Err(AnalyzeError::Invalid(ValidateError::DuplicateElse(s))) if s == outer_else)
    };
    assert!(invalid(g.update(&prog, &d).map(|_| ())), "the update accepted two elses");
    assert!(invalid(DepGraph::analyze(&prog).map(|_| ())), "analysis accepted two elses");
}

#[test]
fn a_run_placed_between_two_loops_moves_the_frontier_into_the_first() {
    // Two statements inserted between `end do` and the next `do` break
    // the adjacency of two equal-bound loops, and with it the fusion
    // previews of `a`, which neither inserted statement mentions. The
    // search must resume inside the first loop, where `a` is written.
    let mut b = ProgramBuilder::new("split");
    let i = b.scalar_int("i");
    let t = b.scalar_int("t");
    let u = b.scalar_int("u");
    let x = b.scalar_int("x");
    let a = b.array_int("a", &[64]);
    b.read(Operand::Var(x));
    let l1 = b.do_head(i, Operand::int(1), Operand::int(50));
    let write_a = b.assign(Operand::elem1(a, AffineExpr::var(i)), Operand::Var(x));
    let end1 = b.end_do(l1);
    let l2 = b.do_head(i, Operand::int(1), Operand::int(50));
    b.assign(Operand::Var(x), Operand::elem1(a, AffineExpr::var(i)));
    b.end_do(l2);
    let mut prog = b.finish();
    let mut g = DepGraph::analyze(&prog).unwrap();

    let mut d = EditDelta::new();
    let first = d.insert_after(&mut prog, Some(end1), Quad::assign(Operand::Var(t), Operand::int(0)));
    d.insert_after(&mut prog, Some(first), Quad::assign(Operand::Var(u), Operand::int(1)));
    let up = g.update(&prog, &d).unwrap();
    assert_eq!(up.kind, UpdateKind::Incremental);
    check(&g, &prog, "two statements split the loops").unwrap();
    assert_eq!(up.frontier, Some(write_a), "the frontier must reach the first loop's body");
}
