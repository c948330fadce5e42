//! The action interpreter: executes the five transformation primitives
//! (plus `forall`) against a program, using the bindings found by the
//! precondition search.

use crate::error::RunError;
use crate::resolve::{Act, SetRef, Template};
use crate::rt::{Bindings, RtVal};
use crate::solve::{eval, eval_place};
use gospel_ir::{EditDelta, LoopTable, Opcode, Operand, Program, Quad, StmtId};

/// Executes an action list; returns the number of primitive operations
/// performed (the paper's transformation-cost component). Every program
/// mutation is journaled into `delta`, which doubles as the change
/// summary for incremental dependence maintenance and as the undo log
/// that rolls the program back if a later action in the list fails.
/// `env`'s slots must index the table the actions were resolved
/// against.
pub(crate) fn run_actions(
    prog: &mut Program,
    loops: &LoopTable,
    env: &mut Bindings,
    actions: &[Act],
    delta: &mut EditDelta,
) -> Result<u64, RunError> {
    let mut ops = 0u64;
    for a in actions {
        ops += run_action(prog, loops, env, a, delta)?;
    }
    Ok(ops)
}

/// Evaluates `e` to an owned value, so the program can be edited next.
fn value(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    e: &crate::resolve::Expr,
) -> Result<RtVal, RunError> {
    eval(prog, loops, env, e).map(crate::solve::Val::into_rt)
}

fn run_action(
    prog: &mut Program,
    loops: &LoopTable,
    env: &mut Bindings,
    action: &Act,
    delta: &mut EditDelta,
) -> Result<u64, RunError> {
    match action {
        Act::Delete(x) => {
            let val = value(prog, loops, env, x)?;
            match val {
                RtVal::Stmt(s) => {
                    ensure_live(prog, s)?;
                    delta.delete(prog, s);
                }
                // Deleting a loop removes its header and end markers and
                // splices the body into the surrounding code — exactly what
                // loop fusion needs for the second loop's shell.
                RtVal::Loop(l) => {
                    let info = loops.get(l);
                    ensure_live(prog, info.head)?;
                    ensure_live(prog, info.end)?;
                    delta.delete(prog, info.head);
                    delta.delete(prog, info.end);
                }
                other => return Err(RunError::Action(format!("cannot delete {other:?}"))),
            }
            Ok(1)
        }
        Act::Move(x, after) => {
            let target = value(prog, loops, env, after)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("move(): target is not a statement".into()))?;
            ensure_live(prog, target)?;
            match value(prog, loops, env, x)? {
                RtVal::Stmt(s) => {
                    ensure_live(prog, s)?;
                    delta.move_after(prog, s, Some(target));
                }
                RtVal::Loop(l) => {
                    // Move the whole region head..end, preserving order.
                    let info = loops.get(l);
                    let region: Vec<StmtId> = std::iter::once(info.head)
                        .chain(prog.iter_between(info.head, info.end))
                        .chain(std::iter::once(info.end))
                        .collect();
                    let mut anchor = target;
                    for s in region {
                        delta.move_after(prog, s, Some(anchor));
                        anchor = s;
                    }
                }
                other => return Err(RunError::Action(format!("cannot move {other:?}"))),
            }
            Ok(1)
        }
        Act::Copy(x, after, name) => {
            let target = value(prog, loops, env, after)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("copy(): target is not a statement".into()))?;
            ensure_live(prog, target)?;
            match value(prog, loops, env, x)? {
                RtVal::Stmt(s) => {
                    ensure_live(prog, s)?;
                    let c = delta.copy_after(prog, s, Some(target));
                    env.put(*name, Some(RtVal::Stmt(c)));
                }
                RtVal::Loop(l) => {
                    let info = loops.get(l);
                    let region: Vec<StmtId> = std::iter::once(info.head)
                        .chain(prog.iter_between(info.head, info.end))
                        .chain(std::iter::once(info.end))
                        .collect();
                    let mut anchor = target;
                    let mut first_copy = None;
                    for s in region {
                        let c = delta.copy_after(prog, s, Some(anchor));
                        first_copy.get_or_insert(c);
                        anchor = c;
                    }
                    let first = first_copy.ok_or_else(|| {
                        RunError::Action("copy(): loop region is empty".into())
                    })?;
                    env.put(*name, Some(RtVal::Stmt(first)));
                }
                other => return Err(RunError::Action(format!("cannot copy {other:?}"))),
            }
            Ok(1)
        }
        Act::Add(after, template, name) => {
            let target = value(prog, loops, env, after)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("add(): target is not a statement".into()))?;
            ensure_live(prog, target)?;
            let quad = build_quad(prog, loops, env, template)?;
            let s = delta.insert_after(prog, Some(target), quad);
            env.put(*name, Some(RtVal::Stmt(s)));
            Ok(1)
        }
        Act::Modify(place, new) => {
            let (stmt, pos) = eval_place(prog, loops, env, place)?;
            ensure_live(prog, stmt)?;
            let val = eval(prog, loops, env, new)?
                .into_operand()
                .ok_or_else(|| RunError::Action("modify(): replacement is not an operand".into()))?
                .into_owned();
            delta.modify(prog, stmt, pos, val);
            Ok(1)
        }
        Act::ForAll {
            var,
            pos_var,
            set,
            body,
        } => {
            let items: Vec<(StmtId, Option<gospel_ir::OperandPos>)> = match set {
                SetRef::Named(n) => match env.slot(*n) {
                    Some(RtVal::Set(items)) => items.clone(),
                    Some(RtVal::Loop(l)) => loops
                        .body(prog, *l)
                        .map(|s| (s, None))
                        .collect(),
                    other => {
                        return Err(RunError::Action(format!(
                            "forall set `{}` is not a set (bound to {other:?})",
                            env.table().name(*n)
                        )))
                    }
                },
                SetRef::Unknown(n) => {
                    return Err(RunError::Action(format!(
                        "forall set `{n}` is not a set (bound to None)"
                    )))
                }
                _ => {
                    return Err(RunError::Action(
                        "forall element expressions are rejected at generation time".into(),
                    ))
                }
            };
            let mut ops = 0u64;
            for (stmt, pos) in items {
                // Elements deleted by earlier iterations are skipped.
                if !prog.is_live(stmt) {
                    continue;
                }
                let mut inner = env.clone();
                inner.put(*var, Some(RtVal::Stmt(stmt)));
                if let Some(pv) = pos_var {
                    match pos {
                        Some(p) => {
                            inner.put(*pv, Some(RtVal::Pos(p)));
                        }
                        None => {
                            return Err(RunError::Action(format!(
                                "forall binds `{}` but the set has no positions",
                                env.table().name(*pv)
                            )))
                        }
                    }
                }
                ops += run_actions(prog, loops, &mut inner, body, delta)?;
            }
            Ok(ops)
        }
    }
}

fn ensure_live(prog: &Program, s: StmtId) -> Result<(), RunError> {
    if prog.is_live(s) {
        Ok(())
    } else {
        Err(RunError::Action(format!("statement {s} was deleted")))
    }
}

fn build_quad(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    t: &Template,
) -> Result<Quad, RunError> {
    let op =
        t.op.ok_or_else(|| RunError::Action(format!("unknown opcode `{}` in template", t.opc)))?;
    let eval_opr = |e: &Option<crate::resolve::Expr>| -> Result<Operand, RunError> {
        match e {
            None => Ok(Operand::None),
            Some(v) => eval(prog, loops, env, v)?
                .into_operand()
                .map(std::borrow::Cow::into_owned)
                .ok_or_else(|| RunError::Action("template operand is not an operand".into())),
        }
    };
    let [dst, a, b] = &t.oprs;
    let dst = eval_opr(dst)?;
    let a = eval_opr(a)?;
    let b = eval_opr(b)?;
    Ok(Quad::new(op, dst, a, b))
}

/// Opcode spellings usable in `add` templates (and matched by
/// `Si.opc == name` comparisons).
pub(crate) fn opcode_by_name(name: &str) -> Option<Opcode> {
    Some(match name.to_ascii_lowercase().as_str() {
        "assign" => Opcode::Assign,
        "add" => Opcode::Add,
        "sub" => Opcode::Sub,
        "mul" => Opcode::Mul,
        "div" => Opcode::Div,
        "mod" => Opcode::Mod,
        "neg" => Opcode::Neg,
        "do" => Opcode::DoHead,
        "pardo" => Opcode::ParDo,
        "enddo" => Opcode::EndDo,
        "if_lt" => Opcode::IfLt,
        "if_le" => Opcode::IfLe,
        "if_gt" => Opcode::IfGt,
        "if_ge" => Opcode::IfGe,
        "if_eq" => Opcode::IfEq,
        "if_ne" => Opcode::IfNe,
        "else" => Opcode::Else,
        "endif" => Opcode::EndIf,
        "read" => Opcode::Read,
        "write" => Opcode::Write,
        "nop" => Opcode::Nop,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resolve::{NameTable, Resolver};
    use crate::rt::RtVal;
    use gospel_dep::DepGraph;
    use gospel_ir::DisplayProgram;
    use gospel_lang::ast::{Action, ElemDesc, ElemRef, ValExpr};
    use std::sync::Arc;

    fn world(src: &str) -> (Program, gospel_ir::LoopTable) {
        let p = gospel_frontend::compile(src).unwrap();
        let loops = DepGraph::analyze(&p).unwrap().loops().clone();
        (p, loops)
    }

    /// Test shorthand: resolves `actions` against the names `env` binds
    /// plus the ones the actions introduce, and runs them with a
    /// throwaway journal.
    fn run(
        prog: &mut Program,
        loops: &gospel_ir::LoopTable,
        env: &mut Bindings,
        actions: &[Action],
    ) -> Result<u64, RunError> {
        let mut names: Vec<&str> = env.iter().map(|(k, _)| k).collect();
        crate::resolve::action_names(actions, &mut names);
        let table = Arc::new(NameTable::new(names));
        let resolver = Resolver {
            table: &table,
            sites: 0,
        };
        let acts: Vec<Act> = actions.iter().map(|a| resolver.action(a)).collect();
        let mut slotted = Bindings::over(table.clone());
        for (k, v) in env.iter() {
            slotted.set(k, v.clone());
        }
        let r = run_actions(
            prog,
            loops,
            &mut slotted,
            &acts,
            &mut gospel_ir::EditDelta::new(),
        );
        *env = slotted;
        r
    }

    const NEST: &str = "program p\ninteger i, x\nreal a(10)\nx = 5\ndo i = 1, 3\na(i) = 1.0\nend do\nwrite a(1)\nend";

    fn loop_binding(loops: &gospel_ir::LoopTable) -> Bindings {
        let mut env = Bindings::new();
        env.set("L", RtVal::Loop(loops.iter().next().unwrap().id));
        env
    }

    fn name(s: &str) -> ValExpr {
        ValExpr::Name(s.into())
    }

    fn lref(path: Vec<gospel_lang::ast::Attr>) -> ValExpr {
        ValExpr::Ref(ElemRef {
            base: "L".into(),
            path,
        })
    }

    #[test]
    fn delete_loop_removes_only_the_shell() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        let before = p.len();
        let ops = run(&mut p, &loops, &mut env, &[Action::Delete(name("L"))]).unwrap();
        assert_eq!(ops, 1);
        assert_eq!(p.len(), before - 2); // head and end only
        let listing = DisplayProgram(&p).to_string();
        assert!(!listing.contains("do i"), "{listing}");
        assert!(listing.contains("a(i) := 1.0"), "{listing}");
    }

    #[test]
    fn move_loop_moves_the_whole_region_in_order() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        let last = p.last().unwrap(); // the write
        env.set("W", RtVal::Stmt(last));
        run(
            &mut p,
            &loops,
            &mut env,
            &[Action::Move(name("L"), name("W"))],
        )
        .unwrap();
        gospel_ir::validate(&p).unwrap();
        let listing = DisplayProgram(&p).to_string();
        let w = listing.lines().position(|l| l.contains("write")).unwrap();
        let d = listing.lines().position(|l| l.contains("do i")).unwrap();
        let b = listing.lines().position(|l| l.contains("a(i)")).unwrap();
        let e = listing.lines().position(|l| l.contains("end do")).unwrap();
        assert!(w < d && d < b && b < e, "{listing}");
    }

    #[test]
    fn copy_loop_binds_the_new_head() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        let last = p.last().unwrap();
        env.set("W", RtVal::Stmt(last));
        run(
            &mut p,
            &loops,
            &mut env,
            &[Action::Copy(name("L"), name("W"), "L2".into())],
        )
        .unwrap();
        gospel_ir::validate(&p).unwrap();
        // the copy's head is bound and is a loop header
        let RtVal::Stmt(h) = env.get("L2").unwrap() else {
            panic!("L2 not bound to a statement");
        };
        assert!(p.quad(*h).op.is_loop_head());
        let listing = DisplayProgram(&p).to_string();
        assert_eq!(listing.matches("do i").count(), 2, "{listing}");
    }

    #[test]
    fn add_builds_from_template_and_binds() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        let first = p.first().unwrap();
        env.set("S", RtVal::Stmt(first));
        run(
            &mut p,
            &loops,
            &mut env,
            &[Action::Add(
                name("S"),
                ElemDesc {
                    opc: "add".into(),
                    opr_1: Some(ValExpr::Ref(ElemRef {
                        base: "S".into(),
                        path: vec![gospel_lang::ast::Attr::Opr(1)],
                    })),
                    opr_2: Some(ValExpr::Int(1)),
                    opr_3: Some(ValExpr::Int(2)),
                },
                "Snew".into(),
            )],
        )
        .unwrap();
        let RtVal::Stmt(snew) = env.get("Snew").unwrap() else {
            panic!()
        };
        assert_eq!(p.quad(*snew).op, gospel_ir::Opcode::Add);
        assert_eq!(p.next(first), Some(*snew));
    }

    #[test]
    fn forall_over_loop_body_skips_deleted() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        // delete every body statement, twice nested in one forall list —
        // the second pass over the same set must skip dead statements.
        let acts = vec![
            Action::ForAll {
                var: "S".into(),
                pos_var: None,
                set: gospel_lang::ast::SetExpr::Named("L".into()),
                body: vec![Action::Delete(name("S"))],
            },
            Action::ForAll {
                var: "S".into(),
                pos_var: None,
                set: gospel_lang::ast::SetExpr::Named("L".into()),
                body: vec![Action::Delete(name("S"))],
            },
        ];
        let ops = run(&mut p, &loops, &mut env, &acts);
        // the loop body set reads through live statements only
        assert!(ops.is_ok(), "{ops:?}");
        let listing = DisplayProgram(&p).to_string();
        assert!(!listing.contains("a(i)"), "{listing}");
    }

    #[test]
    fn modify_via_loop_bound_place() {
        let (mut p, loops) = world(NEST);
        let mut env = loop_binding(&loops);
        run(
            &mut p,
            &loops,
            &mut env,
            &[Action::Modify(
                lref(vec![gospel_lang::ast::Attr::Final]),
                ValExpr::Int(9),
            )],
        )
        .unwrap();
        let head = loops.iter().next().unwrap().head;
        assert_eq!(p.quad(head).b, gospel_ir::Operand::int(9));
    }

    #[test]
    fn action_on_deleted_statement_errors() {
        let (mut p, loops) = world(NEST);
        let mut env = Bindings::new();
        let first = p.first().unwrap();
        env.set("S", RtVal::Stmt(first));
        p.delete(first);
        let r = run(&mut p, &loops, &mut env, &[Action::Delete(name("S"))]);
        assert!(r.is_err());
    }

    #[test]
    fn opcode_names_cover_all_template_spellings() {
        for n in [
            "assign", "add", "sub", "mul", "div", "mod", "neg", "do", "pardo", "enddo",
            "if_lt", "if_le", "if_gt", "if_ge", "if_eq", "if_ne", "else", "endif", "read",
            "write", "nop",
        ] {
            assert!(opcode_by_name(n).is_some(), "missing opcode {n}");
        }
        assert!(opcode_by_name("bogus").is_none());
    }
}
