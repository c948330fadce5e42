//! Control dependences from the structured regions.
//!
//! The paper defines control dependence syntactically: "if Si is an IF
//! condition then all of the statements within the THEN and the ELSE are
//! control dependent on Si". We additionally make loop headers control
//! their bodies (execution of the body is governed by the header's bound
//! test), which the hand-coded DCE and ICM baselines rely on.

use crate::edge::{DepEdge, DepKind, Direction};
use gospel_ir::{Opcode, OperandPos, Program, Quad, Sym};

/// Computes all control dependence edges.
pub(crate) fn control_deps(prog: &Program) -> Vec<DepEdge> {
    let mut edges = Vec::new();
    // Stack of open headers (if / do), each controlling every statement
    // until its matching end marker.
    let mut stack = Vec::new();
    for stmt in prog.iter() {
        let quad = prog.quad(stmt);
        match quad.op {
            Opcode::EndDo | Opcode::EndIf => {
                stack.pop();
                continue; // the end marker itself is not controlled
            }
            Opcode::Else => continue, // stays under the same if
            _ => {}
        }
        for &(header, var) in &stack {
            edges.push(DepEdge {
                src: header,
                dst: stmt,
                kind: DepKind::Control,
                var,
                src_pos: OperandPos::Dst,
                dst_pos: OperandPos::Dst,
                dirvec: Vec::new(),
            });
        }
        if quad.op.is_if() || quad.op.is_loop_head() {
            stack.push((stmt, control_var(prog, quad)));
        }
    }
    edges
}

/// The `var` every control edge out of header `quad` carries: the
/// governing variable when there is an obvious one (the LCV for loops);
/// for ifs, the first scalar compared, else any symbol. It reads the
/// header's operands, so rewriting an `if` operand can change it.
pub(crate) fn control_var(prog: &Program, quad: &Quad) -> Sym {
    quad.dst
        .as_var()
        .or_else(|| quad.a.as_var())
        .or_else(|| quad.b.as_var())
        .unwrap_or_else(|| {
            // Guaranteed to exist: every program interns at least the
            // names used by this statement; fall back to any symbol.
            // Headers always have an operand in practice.
            prog.syms().iter().next().expect("non-empty symbol table")
        })
}

/// Direction vectors for control edges are empty; the helper exists so the
/// builder can assert that invariant in one place.
pub(crate) fn assert_no_directions(edges: &[DepEdge]) {
    debug_assert!(edges
        .iter()
        .filter(|e| e.kind == DepKind::Control)
        .all(|e| e.dirvec.iter().all(|d| *d == Direction::Eq)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;

    #[test]
    fn if_controls_both_branches() {
        let p = compile(
            "program p\ninteger x\nif (x > 0) then\nx = 1\nelse\nx = 2\nend if\nx = 3\nend",
        )
        .unwrap();
        let e = control_deps(&p);
        let ifs: Vec<_> = p.iter().collect();
        let header = ifs[0];
        let then_s = ifs[1];
        let else_s = ifs[3];
        let after = ifs[5];
        assert!(e.iter().any(|d| d.src == header && d.dst == then_s));
        assert!(e.iter().any(|d| d.src == header && d.dst == else_s));
        assert!(!e.iter().any(|d| d.dst == after));
        assert_no_directions(&e);
    }

    #[test]
    fn nesting_stacks_controls() {
        let p = compile(
            "program p\ninteger i, x\ndo i = 1, 3\nif (x > 0) then\nx = 1\nend if\nend do\nend",
        )
        .unwrap();
        let e = control_deps(&p);
        let stmts: Vec<_> = p.iter().collect();
        let do_head = stmts[0];
        let if_head = stmts[1];
        let body = stmts[2];
        // body controlled by both headers; if controlled by the loop
        assert!(e.iter().any(|d| d.src == do_head && d.dst == body));
        assert!(e.iter().any(|d| d.src == if_head && d.dst == body));
        assert!(e.iter().any(|d| d.src == do_head && d.dst == if_head));
        // end markers not controlled
        assert!(e
            .iter()
            .all(|d| !matches!(p.quad(d.dst).op, Opcode::EndDo | Opcode::EndIf)));
    }
}
