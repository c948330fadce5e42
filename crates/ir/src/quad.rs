//! Quad statements and operand positions.

use crate::{Opcode, Operand, Sym};

/// Names the three operand slots of a quad: the paper's `opr_1` (destination),
/// `opr_2` and `opr_3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperandPos {
    /// `opr_1` — the destination of a defining statement (or the first
    /// compared operand of an `if`, or the LCV of a loop header).
    Dst,
    /// `opr_2`.
    A,
    /// `opr_3`.
    B,
}

impl OperandPos {
    /// All three positions, in `opr_1`, `opr_2`, `opr_3` order.
    pub const ALL: [OperandPos; 3] = [OperandPos::Dst, OperandPos::A, OperandPos::B];

    /// The 1-based index used in GOSpeL (`opr_1` = 1 …).
    pub fn index(self) -> usize {
        match self {
            OperandPos::Dst => 1,
            OperandPos::A => 2,
            OperandPos::B => 3,
        }
    }

    /// Parses a 1-based GOSpeL operand index.
    pub fn from_index(i: usize) -> Option<OperandPos> {
        match i {
            1 => Some(OperandPos::Dst),
            2 => Some(OperandPos::A),
            3 => Some(OperandPos::B),
            _ => None,
        }
    }
}

/// A single IR statement: `dst := a opc b` plus structured markers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Quad {
    /// The operation.
    pub op: Opcode,
    /// `opr_1`: the destination (for defining statements).
    pub dst: Operand,
    /// `opr_2`.
    pub a: Operand,
    /// `opr_3`.
    pub b: Operand,
}

impl Quad {
    /// Builds a quad.
    pub fn new(op: Opcode, dst: Operand, a: Operand, b: Operand) -> Quad {
        Quad { op, dst, a, b }
    }

    /// A plain assignment `dst := a`.
    pub fn assign(dst: Operand, a: Operand) -> Quad {
        Quad::new(Opcode::Assign, dst, a, Operand::None)
    }

    /// A marker statement with no operands (`enddo`, `else`, `endif`, `nop`).
    pub fn marker(op: Opcode) -> Quad {
        Quad::new(op, Operand::None, Operand::None, Operand::None)
    }

    /// The operand at `pos`.
    pub fn operand(&self, pos: OperandPos) -> &Operand {
        match pos {
            OperandPos::Dst => &self.dst,
            OperandPos::A => &self.a,
            OperandPos::B => &self.b,
        }
    }

    /// Mutable access to the operand at `pos`.
    pub fn operand_mut(&mut self, pos: OperandPos) -> &mut Operand {
        match pos {
            OperandPos::Dst => &mut self.dst,
            OperandPos::A => &mut self.a,
            OperandPos::B => &mut self.b,
        }
    }

    /// The destination *variable or array element* defined by this
    /// statement, if it defines one.
    pub fn def_operand(&self) -> Option<&Operand> {
        if self.op.defines() && !self.dst.is_none() {
            Some(&self.dst)
        } else {
            None
        }
    }

    /// The base symbol defined here (scalar, LCV, or array written into).
    pub fn def_base(&self) -> Option<Sym> {
        self.def_operand().and_then(Operand::base)
    }

    /// The operand positions *read* by this statement.
    ///
    /// For a defining statement the destination is not read — except its
    /// subscripts, which [`Quad::used_vars`] accounts for. For `if`s both
    /// compared operands (`dst` and `a` slots are *not* used for `if`s; the
    /// comparison reads `a` and `b`)… the layout is: `if a RELOP b` stores
    /// the left operand in `a` and the right in `b`.
    pub fn used_positions(&self) -> &'static [OperandPos] {
        use Opcode::*;
        match self.op {
            Assign | Neg => &[OperandPos::A],
            Add | Sub | Mul | Div | Mod | Call(_) => &[OperandPos::A, OperandPos::B],
            DoHead | ParDo => &[OperandPos::A, OperandPos::B],
            IfLt | IfLe | IfGt | IfGe | IfEq | IfNe => &[OperandPos::A, OperandPos::B],
            Write => &[OperandPos::A],
            Read | EndDo | Else | EndIf | Nop => &[],
        }
    }

    /// Every scalar variable read by this statement, including subscript
    /// variables of array references in *any* position (a write to `a(i)`
    /// reads `i`).
    pub fn used_vars(&self) -> Vec<Sym> {
        let mut out = Vec::new();
        let mut subs = Vec::new();
        for &pos in self.used_positions() {
            match self.operand(pos) {
                Operand::Var(s) => out.push(*s),
                e @ Operand::Elem { .. } => {
                    e.subscript_vars(&mut subs);
                    out.extend_from_slice(&subs);
                }
                _ => {}
            }
        }
        // Subscripts of a written element are also read.
        if let Some(Operand::Elem { .. }) = self.def_operand() {
            self.dst.subscript_vars(&mut subs);
            out.extend_from_slice(&subs);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Array bases read by this statement (element operands in used
    /// positions).
    pub fn used_arrays(&self) -> Vec<(OperandPos, Sym)> {
        let mut out = Vec::new();
        for &pos in self.used_positions() {
            if let Operand::Elem { array, .. } = self.operand(pos) {
                out.push((pos, *array));
            }
        }
        out
    }

    /// True if any operand (in any position) mentions the scalar `v`.
    pub fn mentions_var(&self, v: Sym) -> bool {
        OperandPos::ALL
            .iter()
            .any(|&p| self.operand(p).mentions_var(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AffineExpr, SymbolTable};

    #[test]
    fn positions_roundtrip() {
        for pos in OperandPos::ALL {
            assert_eq!(OperandPos::from_index(pos.index()), Some(pos));
        }
        assert_eq!(OperandPos::from_index(0), None);
        assert_eq!(OperandPos::from_index(4), None);
    }

    #[test]
    fn uses_and_defs() {
        let mut t = SymbolTable::new();
        let x = t.intern("x");
        let y = t.intern("y");
        let a = t.intern("a");
        let i = t.intern("i");

        // x := y + a(i)
        let q = Quad::new(
            Opcode::Add,
            Operand::Var(x),
            Operand::Var(y),
            Operand::elem1(a, AffineExpr::var(i)),
        );
        assert_eq!(q.def_base(), Some(x));
        assert_eq!(q.used_vars(), vec![y, i]);
        assert_eq!(q.used_arrays(), vec![(OperandPos::B, a)]);

        // a(i) := x : write reads the subscript i
        let w = Quad::assign(Operand::elem1(a, AffineExpr::var(i)), Operand::Var(x));
        assert_eq!(w.def_base(), Some(a));
        assert_eq!(w.used_vars(), vec![x, i]);
    }

    #[test]
    fn markers_have_no_uses() {
        let q = Quad::marker(Opcode::EndDo);
        assert!(q.used_vars().is_empty());
        assert!(q.def_operand().is_none());
    }

    #[test]
    fn operand_mut_modifies() {
        let mut q = Quad::assign(Operand::int(0), Operand::int(1));
        *q.operand_mut(OperandPos::A) = Operand::int(9);
        assert_eq!(q.a, Operand::int(9));
    }
}
