//! Property test for the fused anchor automaton: over random structured
//! programs and random journaled primitive-edit batches, two ways of
//! answering "which statements does this optimizer's anchor admit?" must
//! stay in exact agreement —
//!
//! 1. the fused automaton's posting for the optimizer (built once, then
//!    maintained by [`FusedAutomaton::update`] delta replay), and
//! 2. a direct scan evaluating the optimizer's [`AnchorFilter`] opcode and
//!    operand-class tests against every live statement — the filter
//!    generated with the optimizer, from which the automaton's chain was
//!    compiled, checked equal to a fresh extraction and against
//!    [`AnchorFilter::admits`].
//!
//! The undo round-trip must also hold: replaying a journal backwards and
//! reclassifying restores the automaton to its original postings.
//!
//! The vendored proptest shim's deterministic RNG drives an imperative
//! program grower, so every failure reproduces from its seed case.

use genesis::{anchor_filter, AnchorFilter, CompiledOptimizer, FusedAutomaton, Strategy};
use gospel_ir::{
    AffineExpr, EditDelta, Opcode, Operand, OperandPos, Program, ProgramBuilder, Quad, StmtId, Sym,
};
use gospel_lang::ast::{ElemType, OperandClass};
use proptest::prelude::*;
use proptest::TestRng;

fn opt_of(name: &str, anchor: &str) -> CompiledOptimizer {
    let spec = format!(
        "OPTIMIZATION {name}\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
         any S: {anchor};\nACTION\n  delete(S);\nEND"
    );
    let (spec, info) = gospel_lang::parse_validated(&spec).unwrap();
    genesis::generate(spec, info).unwrap()
}

/// A catalog exercising the trie's sharing and fallback shapes: a shared
/// `assign → const` prefix, an opcode-only chain, a second opcode bucket
/// (built as a strategy copy, which shares its source's chain), a chain
/// hanging under two buckets with a repeated and a negative test, and an
/// unfilterable anchor that must stay off the automaton entirely.
fn catalog() -> Vec<CompiledOptimizer> {
    vec![
        opt_of("CONSTSRC", "S.opc == assign AND type(S.opr_2) == const"),
        opt_of(
            "CONSTCOPY",
            "S.opc == assign AND type(S.opr_2) == const AND type(S.opr_1) == var",
        ),
        opt_of("ANYASSIGN", "S.opc == assign"),
        opt_of("VARSUM", "S.opc == add AND type(S.opr_2) == var").with_strategy(Strategy::DepsFirst),
        opt_of(
            "COPYORNEG",
            "(S.opc == assign OR S.opc == neg) AND type(S.opr_2) != const \
             AND type(S.opr_1) == var AND type(S.opr_2) != const",
        ),
        opt_of("UNBOUND", "S.opr_1 == S.opr_2"),
    ]
}

/// The narrowing anchor filter each catalog entry was generated with —
/// the one its automaton chain was compiled from — checked against a
/// fresh extraction from the spec. `None` where the anchor cannot narrow
/// (the `UNBOUND` case).
fn filters(opts: &[CompiledOptimizer]) -> Vec<Option<AnchorFilter>> {
    opts.iter()
        .map(|o| {
            let fresh = o
                .patterns
                .first()
                .filter(|(_, ty)| *ty == ElemType::Stmt)
                .and_then(|(c, _)| c.vars.first().map(|v| anchor_filter(c, v)))
                .filter(AnchorFilter::narrows);
            assert_eq!(o.anchor(), fresh.as_ref(), "{}: generated chain", o.name);
            o.anchor().cloned()
        })
        .collect()
}

/// The oracle: operand classification mirroring the index's bucketing
/// (`Const`/`Var`/`Elem`/`None` straight off the IR operand).
fn class_of(o: &Operand) -> OperandClass {
    match o {
        Operand::Const(_) => OperandClass::Const,
        Operand::Var(_) => OperandClass::Var,
        Operand::Elem { .. } => OperandClass::Elem,
        Operand::None => OperandClass::None,
    }
}

/// Direct scan satisfaction of a narrowing filter: every live statement
/// whose opcode is in the filter's bucket list and whose operand classes
/// pass every positional test.
fn scan_admitted(prog: &Program, f: &AnchorFilter) -> Vec<StmtId> {
    let opcodes = f.opcodes.as_ref().expect("narrowing filter has opcodes");
    prog.iter()
        .filter(|&s| {
            let q = prog.quad(s);
            if !opcodes.contains(&q.op.gospel_name()) {
                return false;
            }
            let cls = [class_of(&q.dst), class_of(&q.a), class_of(&q.b)];
            f.classes
                .iter()
                .all(|&(pos, c, positive)| (cls[pos] == c) == positive)
        })
        .collect()
}

fn sorted(mut v: Vec<StmtId>) -> Vec<StmtId> {
    v.sort_unstable();
    v
}

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

/// A random structured program: straight-line assignments, single-level
/// loops (distinct control variables), and conditionals.
fn gen_program(rng: &mut TestRng) -> (Program, Vars) {
    let mut b = ProgramBuilder::new("prop");
    let vars = Vars {
        scalars: (0..4).map(|k| b.scalar_int(&format!("x{k}"))).collect(),
        arrays: (0..2).map(|k| b.array_int(&format!("a{k}"), &[32])).collect(),
    };
    let lcvs: Vec<Sym> = (0..3).map(|k| b.scalar_int(&format!("i{k}"))).collect();
    let mut next_lcv = 0;
    for _ in 0..2 + rng.below(4) {
        match rng.below(4) {
            0 | 1 => gen_assign(&mut b, rng, &vars, vars.scalars[0]),
            2 => {
                let lcv = lcvs[next_lcv % lcvs.len()];
                next_lcv += 1;
                let tok = b.do_head(lcv, Operand::int(1), Operand::int(10 + rng.below(10) as i64));
                for _ in 0..1 + rng.below(3) {
                    gen_assign(&mut b, rng, &vars, lcv);
                }
                b.end_do(tok);
            }
            _ => {
                let tok = b.if_head(
                    Opcode::IfGt,
                    Operand::Var(vars.scalars[rng.below(vars.scalars.len())]),
                    Operand::int(0),
                );
                gen_assign(&mut b, rng, &vars, vars.scalars[0]);
                if rng.below(2) == 0 {
                    b.else_mark(tok);
                    gen_assign(&mut b, rng, &vars, vars.scalars[0]);
                }
                b.end_if(tok);
            }
        }
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

/// One random batch of journaled primitive edits, mixing all five
/// primitives plus the occasional structural insertion (an adjacent
/// `if`/`end if` pair) so the automaton's reclassify fallback is
/// exercised alongside the per-statement replay.
fn gen_batch(rng: &mut TestRng, prog: &mut Program, v: &Vars) -> EditDelta {
    let mut d = EditDelta::new();
    for _ in 0..1 + rng.below(4) {
        let plain = plain_stmts(prog);
        match rng.below(6) {
            0 if !plain.is_empty() => {
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
            5 if rng.below(3) == 0 => {
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
            _ => {}
        }
    }
    d
}

/// Asserts the posting/scan admission agreement for every catalog entry
/// against the current program.
fn assert_admission_agrees(
    auto: &FusedAutomaton,
    opts: &[CompiledOptimizer],
    fs: &[Option<AnchorFilter>],
    prog: &Program,
    context: &str,
) -> Result<(), TestCaseError> {
    for (opt, f) in opts.iter().zip(fs) {
        let Some(f) = f else {
            prop_assert!(
                auto.opt_id(&opt.name).is_none(),
                "{context}: unfilterable {} must not be fused",
                opt.name
            );
            continue;
        };
        let id = auto.opt_id(&opt.name).unwrap_or_else(|| {
            panic!("{context}: {} has a narrowing anchor but no fused entry", opt.name)
        });
        let fused = sorted(auto.posting(id).to_vec());
        let scanned = sorted(scan_admitted(prog, f));
        let admitted = sorted(prog.iter().filter(|&s| f.admits(prog.quad(s))).collect());
        prop_assert!(
            admitted == scanned,
            "{context}: AnchorFilter::admits disagrees with the scan for {}",
            opt.name
        );
        prop_assert!(
            fused == scanned,
            "{context}: admission disagrees for {}\n  fused:   {fused:?}\n  \
             scanned: {scanned:?}\nprogram:\n{}",
            opt.name,
            gospel_ir::DisplayProgram(prog)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_admission_matches_filters_and_scan(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("automaton-props-{seed}"));
        let opts = catalog();
        let fs = filters(&opts);
        let (mut prog, vars) = gen_program(&mut rng);
        gospel_ir::validate(&prog).expect("generator produced an invalid program");

        let mut auto = FusedAutomaton::build(&opts, &prog);
        assert_admission_agrees(&auto, &opts, &fs, &prog, &format!("seed {seed} initial"))?;

        for batch in 0..1 + rng.below(3) {
            let delta = gen_batch(&mut rng, &mut prog, &vars);
            auto.update(&prog, &delta);
            let ctx = format!(
                "seed {seed} batch {batch} ({} ops, structural: {})",
                delta.len(),
                delta.requires_full()
            );
            prop_assert!(
                auto.agrees_with(&FusedAutomaton::build(&opts, &prog)),
                "{ctx}: incrementally maintained automaton diverged from a rebuild\nprogram:\n{}",
                gospel_ir::DisplayProgram(&prog)
            );
            assert_admission_agrees(&auto, &opts, &fs, &prog, &ctx)?;
        }
    }

    #[test]
    fn undo_then_reclassify_restores_the_automaton(seed in any::<u64>()) {
        let mut rng = TestRng::from_name(&format!("automaton-undo-{seed}"));
        let opts = catalog();
        let (mut prog, vars) = gen_program(&mut rng);
        let original = FusedAutomaton::build(&opts, &prog);

        // Forward: maintain incrementally. Backward: the journal replayed
        // in reverse plus a reclassify must land exactly on the original
        // postings (the trie itself never depends on the program).
        let mut auto = FusedAutomaton::build(&opts, &prog);
        let delta = gen_batch(&mut rng, &mut prog, &vars);
        auto.update(&prog, &delta);
        delta.undo(&mut prog);
        auto.reclassify(&prog);
        prop_assert!(
            auto.agrees_with(&original),
            "seed {seed}: undo + reclassify did not restore the automaton\nprogram:\n{}",
            gospel_ir::DisplayProgram(&prog)
        );
    }
}
