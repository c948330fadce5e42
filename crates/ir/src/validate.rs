//! Structural validation of programs.

use crate::{Opcode, Operand, OperandPos, Program, StmtId};
use std::fmt;

/// A structural defect found by [`validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// `end do` with no open loop.
    UnmatchedEndDo(StmtId),
    /// `else`/`end if` with no open conditional.
    UnmatchedEndIf(StmtId),
    /// A second `else` in one conditional.
    DuplicateElse(StmtId),
    /// A loop or conditional left open at the end of the program.
    Unclosed(StmtId),
    /// `do`/`end do` and `if`/`end if` regions interleave improperly.
    Interleaved(StmtId),
    /// A defining statement with no destination, or a non-defining statement
    /// with one.
    BadDestination(StmtId),
    /// An operand refers to an undeclared variable.
    UndeclaredVar(StmtId, String),
    /// An array is used with the wrong number of subscripts, or a scalar is
    /// subscripted.
    BadSubscript(StmtId, String),
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::UnmatchedEndDo(s) => write!(f, "unmatched end do at {s}"),
            ValidateError::UnmatchedEndIf(s) => write!(f, "unmatched else/end if at {s}"),
            ValidateError::DuplicateElse(s) => write!(f, "second else of one conditional at {s}"),
            ValidateError::Unclosed(s) => write!(f, "unclosed region opened at {s}"),
            ValidateError::Interleaved(s) => write!(f, "improperly interleaved regions at {s}"),
            ValidateError::BadDestination(s) => write!(f, "bad destination at {s}"),
            ValidateError::UndeclaredVar(s, v) => write!(f, "undeclared variable `{v}` at {s}"),
            ValidateError::BadSubscript(s, v) => write!(f, "bad subscript usage of `{v}` at {s}"),
        }
    }
}

impl std::error::Error for ValidateError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    Loop(StmtId),
    /// An open conditional, and whether its `else` has been seen.
    If(StmtId, bool),
}

/// Checks a program's structural invariants: balanced `do`/`end do` and
/// `if`/`else`/`end if` (properly nested with each other), sane
/// destinations, declared variables, and subscript counts matching
/// declarations.
///
/// # Errors
///
/// Returns the first defect found in program order.
pub fn validate(prog: &Program) -> Result<(), ValidateError> {
    let mut stack: Vec<Region> = Vec::new();
    for id in prog.iter() {
        let quad = prog.quad(id);
        match quad.op {
            Opcode::DoHead | Opcode::ParDo => {
                if quad.dst.as_var().is_none() {
                    return Err(ValidateError::BadDestination(id));
                }
                stack.push(Region::Loop(id));
            }
            Opcode::EndDo => match stack.pop() {
                Some(Region::Loop(_)) => {}
                Some(Region::If(..)) => return Err(ValidateError::Interleaved(id)),
                None => return Err(ValidateError::UnmatchedEndDo(id)),
            },
            op if op.is_if() => stack.push(Region::If(id, false)),
            Opcode::Else => match stack.last_mut() {
                Some(Region::If(_, true)) => return Err(ValidateError::DuplicateElse(id)),
                Some(Region::If(_, seen)) => *seen = true,
                _ => return Err(ValidateError::UnmatchedEndIf(id)),
            },
            Opcode::EndIf => match stack.pop() {
                Some(Region::If(..)) => {}
                Some(Region::Loop(_)) => return Err(ValidateError::Interleaved(id)),
                None => return Err(ValidateError::UnmatchedEndIf(id)),
            },
            _ => {
                if quad.op.defines() && quad.dst.is_none() {
                    return Err(ValidateError::BadDestination(id));
                }
            }
        }
        check_operands(prog, id)?;
    }
    if let Some(r) = stack.first() {
        let at = match r {
            Region::Loop(s) | Region::If(s, _) => *s,
        };
        return Err(ValidateError::Unclosed(at));
    }
    Ok(())
}

/// Per-statement validity: destination shape and operand references,
/// without the whole-program marker-nesting scan.
///
/// A batch of non-structural journaled edits cannot change nesting (no
/// markers were added, removed or relocated), so incremental dependence
/// maintenance revalidates only the statements the batch touched —
/// `O(|delta|)` instead of `O(program)`. Running this on every statement
/// of a program whose nesting is known-good is equivalent to [`validate`].
///
/// # Errors
///
/// Returns the statement's first defect.
pub fn validate_stmt(prog: &Program, id: StmtId) -> Result<(), ValidateError> {
    let quad = prog.quad(id);
    match quad.op {
        Opcode::DoHead | Opcode::ParDo => {
            if quad.dst.as_var().is_none() {
                return Err(ValidateError::BadDestination(id));
            }
        }
        Opcode::EndDo | Opcode::Else | Opcode::EndIf => {}
        op if op.is_if() => {}
        _ => {
            if quad.op.defines() && quad.dst.is_none() {
                return Err(ValidateError::BadDestination(id));
            }
        }
    }
    check_operands(prog, id)
}

fn check_operands(prog: &Program, id: StmtId) -> Result<(), ValidateError> {
    for pos in OperandPos::ALL {
        match prog.quad(id).operand(pos) {
            Operand::Var(s) => {
                let info = prog
                    .var_info(*s)
                    .ok_or_else(|| ValidateError::UndeclaredVar(id, prog.syms().name(*s).into()))?;
                if let crate::VarKind::Array(_) = info.kind {
                    // A bare array name as an operand is not allowed.
                    return Err(ValidateError::BadSubscript(
                        id,
                        prog.syms().name(*s).into(),
                    ));
                }
            }
            Operand::Elem { array, subs } => {
                let info = prog.var_info(*array).ok_or_else(|| {
                    ValidateError::UndeclaredVar(id, prog.syms().name(*array).into())
                })?;
                match &info.kind {
                    crate::VarKind::Array(dims) if dims.len() == subs.len() => {}
                    _ => {
                        return Err(ValidateError::BadSubscript(
                            id,
                            prog.syms().name(*array).into(),
                        ))
                    }
                }
                for e in subs {
                    for v in e.vars() {
                        if prog.var_info(v).is_none() {
                            return Err(ValidateError::UndeclaredVar(
                                id,
                                prog.syms().name(v).into(),
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AffineExpr, ProgramBuilder, Quad};

    #[test]
    fn valid_program_passes() {
        let mut b = ProgramBuilder::new("ok");
        let i = b.scalar_int("i");
        let a = b.array_real("a", &[10]);
        let l = b.do_head(i, Operand::int(1), Operand::int(10));
        b.assign(Operand::elem1(a, AffineExpr::var(i)), Operand::real(0.0));
        b.end_do(l);
        assert_eq!(validate(&b.finish()), Ok(()));
    }

    #[test]
    fn interleaved_regions_rejected() {
        // do ... if ... end do  — illegal
        let mut p = Program::new("bad");
        let i = p.declare("i", crate::VarType::Int, crate::VarKind::Scalar);
        p.push(Quad::new(
            Opcode::DoHead,
            Operand::Var(i),
            Operand::int(1),
            Operand::int(2),
        ));
        p.push(Quad::new(
            Opcode::IfGt,
            Operand::None,
            Operand::Var(i),
            Operand::int(0),
        ));
        p.push(Quad::marker(Opcode::EndDo));
        assert!(matches!(validate(&p), Err(ValidateError::Interleaved(_))));
    }

    #[test]
    fn bare_array_operand_rejected() {
        let mut p = Program::new("bad");
        let x = p.declare("x", crate::VarType::Int, crate::VarKind::Scalar);
        let a = p.declare("a", crate::VarType::Real, crate::VarKind::Array(vec![5]));
        p.push(Quad::assign(Operand::Var(x), Operand::Var(a)));
        assert!(matches!(
            validate(&p),
            Err(ValidateError::BadSubscript(_, _))
        ));
    }

    #[test]
    fn wrong_subscript_count_rejected() {
        let mut b = ProgramBuilder::new("bad");
        let i = b.scalar_int("i");
        let a = b.array_real("a", &[10, 10]);
        let mut p = b.finish();
        p.push(Quad::assign(
            Operand::elem1(a, AffineExpr::var(i)), // 1 subscript for 2-D array
            Operand::real(0.0),
        ));
        assert!(matches!(
            validate(&p),
            Err(ValidateError::BadSubscript(_, _))
        ));
    }

    fn cond(p: &mut Program, x: crate::Sym) {
        p.push(Quad::new(
            Opcode::IfGt,
            Operand::None,
            Operand::Var(x),
            Operand::int(0),
        ));
    }

    #[test]
    fn second_else_of_one_conditional_rejected() {
        // if … else … else … end if
        let mut p = Program::new("bad");
        let x = p.declare("x", crate::VarType::Int, crate::VarKind::Scalar);
        cond(&mut p, x);
        p.push(Quad::assign(Operand::Var(x), Operand::int(1)));
        p.push(Quad::marker(Opcode::Else));
        p.push(Quad::assign(Operand::Var(x), Operand::int(2)));
        let second = p.push(Quad::marker(Opcode::Else));
        p.push(Quad::marker(Opcode::EndIf));
        assert_eq!(validate(&p), Err(ValidateError::DuplicateElse(second)));
    }

    #[test]
    fn one_else_per_nested_conditional_passes() {
        // if … else if … else … end if end if: each region has one else,
        // and the inner one does not count against the outer.
        let mut p = Program::new("ok");
        let x = p.declare("x", crate::VarType::Int, crate::VarKind::Scalar);
        cond(&mut p, x);
        p.push(Quad::marker(Opcode::Else));
        cond(&mut p, x);
        p.push(Quad::assign(Operand::Var(x), Operand::int(1)));
        p.push(Quad::marker(Opcode::Else));
        p.push(Quad::assign(Operand::Var(x), Operand::int(2)));
        p.push(Quad::marker(Opcode::EndIf));
        p.push(Quad::marker(Opcode::EndIf));
        assert_eq!(validate(&p), Ok(()));
        // The same shape with the inner `end if` before the outer `else`
        // gives the outer conditional two `else`s.
        let mut p = Program::new("bad");
        let x = p.declare("x", crate::VarType::Int, crate::VarKind::Scalar);
        cond(&mut p, x);
        p.push(Quad::marker(Opcode::Else));
        cond(&mut p, x);
        p.push(Quad::marker(Opcode::EndIf));
        let second = p.push(Quad::marker(Opcode::Else));
        p.push(Quad::marker(Opcode::EndIf));
        assert_eq!(validate(&p), Err(ValidateError::DuplicateElse(second)));
    }

    #[test]
    fn unclosed_loop_detected() {
        let mut p = Program::new("bad");
        let i = p.declare("i", crate::VarType::Int, crate::VarKind::Scalar);
        p.push(Quad::new(
            Opcode::DoHead,
            Operand::Var(i),
            Operand::int(1),
            Operand::int(2),
        ));
        assert!(matches!(validate(&p), Err(ValidateError::Unclosed(_))));
    }
}
