//! Statement operands.

use crate::{AffineExpr, Sym, Value};

/// An operand of a quad statement (`opr_1`, `opr_2` or `opr_3` in the paper).
///
/// Array references are kept whole ([`Operand::Elem`]) rather than being
/// lowered to address arithmetic, matching the paper's prototype.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Operand {
    /// No operand in this position (e.g. `opr_3` of a plain assignment).
    #[default]
    None,
    /// A constant.
    Const(Value),
    /// A scalar variable (or compiler temporary).
    Var(Sym),
    /// A high-level array element reference `array(sub_1, …, sub_k)`.
    Elem {
        /// The array symbol.
        array: Sym,
        /// One affine subscript per dimension.
        subs: Vec<AffineExpr>,
    },
}

impl Operand {
    /// Convenience integer-constant constructor.
    pub fn int(i: i64) -> Operand {
        Operand::Const(Value::Int(i))
    }

    /// Convenience real-constant constructor.
    pub fn real(r: f64) -> Operand {
        Operand::Const(Value::Real(r))
    }

    /// Convenience one-dimensional element constructor.
    pub fn elem1(array: Sym, sub: AffineExpr) -> Operand {
        Operand::Elem {
            array,
            subs: vec![sub],
        }
    }

    /// True for [`Operand::None`].
    pub fn is_none(&self) -> bool {
        matches!(self, Operand::None)
    }

    /// True for constants.
    pub fn is_const(&self) -> bool {
        matches!(self, Operand::Const(_))
    }

    /// The constant payload, if any.
    pub fn as_const(&self) -> Option<Value> {
        match self {
            Operand::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// The scalar variable, if this is a plain [`Operand::Var`].
    pub fn as_var(&self) -> Option<Sym> {
        match self {
            Operand::Var(s) => Some(*s),
            _ => None,
        }
    }

    /// The base symbol accessed by this operand: the scalar for `Var`, the
    /// array for `Elem`, `None` otherwise.
    pub fn base(&self) -> Option<Sym> {
        match self {
            Operand::Var(s) => Some(*s),
            Operand::Elem { array, .. } => Some(*array),
            _ => None,
        }
    }

    /// Fills `out` with the subscript variables of an element access,
    /// each once, in `Sym` order; any other operand leaves it empty. The
    /// buffer is the caller's so a loop over many operands can reuse one.
    pub fn subscript_vars(&self, out: &mut Vec<Sym>) {
        out.clear();
        if let Operand::Elem { subs, .. } = self {
            out.extend(subs.iter().flat_map(|s| s.vars()));
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Renames every occurrence of scalar `from` (including inside
    /// subscripts) to `to`.
    #[must_use]
    pub fn rename_var(&self, from: Sym, to: Sym) -> Operand {
        match self {
            Operand::Var(s) if *s == from => Operand::Var(to),
            Operand::Elem { array, subs } => Operand::Elem {
                array: *array,
                subs: subs.iter().map(|e| e.rename(from, to)).collect(),
            },
            other => other.clone(),
        }
    }

    /// Substitutes scalar `var` with an affine expression inside subscripts,
    /// and replaces a plain `Var(var)` rvalue when the replacement is itself
    /// representable as an operand. Used by loop unrolling ("bumping" the
    /// loop control variable) and by bounds normalization.
    #[must_use]
    pub fn substitute_affine(&self, var: Sym, replacement: &AffineExpr) -> Operand {
        match self {
            Operand::Var(s) if *s == var => {
                if let Some(v) = replacement.as_single_var() {
                    Operand::Var(v)
                } else if replacement.is_constant() {
                    Operand::int(replacement.constant())
                } else {
                    // Not expressible as a single operand; leave unchanged.
                    // Callers that need full generality lower through a temp.
                    self.clone()
                }
            }
            Operand::Elem { array, subs } => Operand::Elem {
                array: *array,
                subs: subs.iter().map(|e| e.substitute(var, replacement)).collect(),
            },
            other => other.clone(),
        }
    }

    /// True if the operand mentions `v` (as the scalar itself or inside a
    /// subscript). Array bases do **not** count as mentioning.
    pub fn mentions_var(&self, v: Sym) -> bool {
        match self {
            Operand::Var(s) => *s == v,
            Operand::Elem { subs, .. } => subs.iter().any(|e| e.mentions(v)),
            _ => false,
        }
    }
}

impl From<Value> for Operand {
    fn from(v: Value) -> Self {
        Operand::Const(v)
    }
}

impl From<Sym> for Operand {
    fn from(s: Sym) -> Self {
        Operand::Var(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymbolTable;

    #[test]
    fn accessors() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let i = t.intern("i");
        let e = Operand::elem1(a, AffineExpr::var(i));
        assert_eq!(e.base(), Some(a));
        let mut vars = vec![a];
        e.subscript_vars(&mut vars);
        assert_eq!(vars, vec![i]);
        Operand::Var(i).subscript_vars(&mut vars);
        assert!(vars.is_empty());
        assert!(Operand::int(3).is_const());
        assert!(Operand::None.is_none());
        assert_eq!(Operand::Var(i).as_var(), Some(i));
    }

    #[test]
    fn rename_inside_subscript() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let i = t.intern("i");
        let j = t.intern("j");
        let e = Operand::elem1(a, AffineExpr::var(i).plus_const(1));
        let r = e.rename_var(i, j);
        assert_eq!(r, Operand::elem1(a, AffineExpr::var(j).plus_const(1)));
        assert!(!r.mentions_var(i));
        assert!(r.mentions_var(j));
    }

    #[test]
    fn substitute_bumps_subscript() {
        let mut t = SymbolTable::new();
        let a = t.intern("a");
        let i = t.intern("i");
        // a(i) with i := i + 1 -> a(i+1)
        let e = Operand::elem1(a, AffineExpr::var(i));
        let bumped = e.substitute_affine(i, &AffineExpr::var(i).plus_const(1));
        assert_eq!(bumped, Operand::elem1(a, AffineExpr::var(i).plus_const(1)));
        // scalar i with i := 4 -> constant 4
        let s = Operand::Var(i).substitute_affine(i, &AffineExpr::constant_expr(4));
        assert_eq!(s, Operand::int(4));
    }
}
