//! Affine expressions used as array subscripts.

use crate::{Sym, SymbolTable};
use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `c0 + c1*v1 + … + ck*vk` over program variables.
///
/// Array references stay high-level in this IR (the paper's prototype "did
/// not include address calculations for array accesses"), so a subscript like
/// `a(2*i + 1)` is stored symbolically as an `AffineExpr`. The dependence
/// analyzer runs ZIV/SIV/GCD subscript tests directly on this form.
///
/// Terms are kept in a sorted map so that structurally equal expressions
/// compare equal.
///
/// ```
/// use gospel_ir::{AffineExpr, SymbolTable};
/// let mut t = SymbolTable::new();
/// let i = t.intern("i");
/// let e = AffineExpr::var(i).scaled(2).plus_const(1); // 2*i + 1
/// assert_eq!(e.coeff(i), 2);
/// assert_eq!(e.constant(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct AffineExpr {
    terms: BTreeMap<Sym, i64>,
    constant: i64,
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant_expr(c: i64) -> Self {
        AffineExpr {
            terms: BTreeMap::new(),
            constant: c,
        }
    }

    /// The expression `1*v`.
    pub fn var(v: Sym) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(v, 1);
        AffineExpr { terms, constant: 0 }
    }

    /// The constant term.
    pub fn constant(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: Sym) -> i64 {
        self.terms.get(&v).copied().unwrap_or(0)
    }

    /// Variables with non-zero coefficients.
    pub fn vars(&self) -> impl Iterator<Item = Sym> + '_ {
        self.terms.keys().copied()
    }

    /// `(variable, coefficient)` pairs, in [`Sym`] order — [`AffineExpr::vars`]
    /// zipped with [`AffineExpr::coeff`] without the per-variable lookups.
    pub fn terms(&self) -> impl Iterator<Item = (Sym, i64)> + '_ {
        self.terms.iter().map(|(&v, &c)| (v, c))
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if the expression is exactly `1*v + 0`.
    pub fn as_single_var(&self) -> Option<Sym> {
        if self.constant == 0 && self.terms.len() == 1 {
            let (&v, &c) = self.terms.iter().next().unwrap();
            if c == 1 {
                return Some(v);
            }
        }
        None
    }

    /// Adds another affine expression.
    #[must_use]
    pub fn plus(&self, other: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(other.constant);
        for (&v, &c) in &other.terms {
            let e = out.terms.entry(v).or_insert(0);
            *e = e.wrapping_add(c);
            if *e == 0 {
                out.terms.remove(&v);
            }
        }
        out
    }

    /// Subtracts another affine expression.
    #[must_use]
    pub fn minus(&self, other: &AffineExpr) -> AffineExpr {
        self.plus(&other.scaled(-1))
    }

    /// Adds a constant.
    #[must_use]
    pub fn plus_const(&self, c: i64) -> AffineExpr {
        let mut out = self.clone();
        out.constant = out.constant.wrapping_add(c);
        out
    }

    /// Multiplies every coefficient (and the constant) by `k`.
    #[must_use]
    pub fn scaled(&self, k: i64) -> AffineExpr {
        if k == 0 {
            return AffineExpr::zero();
        }
        AffineExpr {
            terms: self
                .terms
                .iter()
                .map(|(&v, &c)| (v, c.wrapping_mul(k)))
                .collect(),
            constant: self.constant.wrapping_mul(k),
        }
    }

    /// Substitutes `v := replacement` into the expression, if the result is
    /// still affine.
    #[must_use]
    pub fn substitute(&self, v: Sym, replacement: &AffineExpr) -> AffineExpr {
        let c = self.coeff(v);
        if c == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.terms.remove(&v);
        out.plus(&replacement.scaled(c))
    }

    /// Renames variable `from` to `to`.
    #[must_use]
    pub fn rename(&self, from: Sym, to: Sym) -> AffineExpr {
        self.substitute(from, &AffineExpr::var(to))
    }

    /// True if `v` occurs with non-zero coefficient.
    pub fn mentions(&self, v: Sym) -> bool {
        self.terms.contains_key(&v)
    }

    /// Renders the expression with variable names from `syms`.
    pub fn display<'a>(&'a self, syms: &'a SymbolTable) -> DisplayAffine<'a> {
        DisplayAffine { expr: self, syms }
    }
}

/// Helper returned by [`AffineExpr::display`].
#[derive(Debug)]
pub struct DisplayAffine<'a> {
    expr: &'a AffineExpr,
    syms: &'a SymbolTable,
}

impl fmt::Display for DisplayAffine<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (&v, &c) in &self.expr.terms {
            if first {
                match c {
                    1 => write!(f, "{}", self.syms.name(v))?,
                    -1 => write!(f, "-{}", self.syms.name(v))?,
                    _ => write!(f, "{}*{}", c, self.syms.name(v))?,
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, "+{}", self.syms.name(v))?;
                } else {
                    write!(f, "+{}*{}", c, self.syms.name(v))?;
                }
            } else if c == -1 {
                write!(f, "-{}", self.syms.name(v))?;
            } else {
                write!(f, "{}*{}", c, self.syms.name(v))?;
            }
        }
        let k = self.expr.constant;
        if first {
            write!(f, "{k}")?;
        } else if k > 0 {
            write!(f, "+{k}")?;
        } else if k < 0 {
            write!(f, "{k}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms() -> (SymbolTable, Sym, Sym) {
        let mut t = SymbolTable::new();
        let i = t.intern("i");
        let j = t.intern("j");
        (t, i, j)
    }

    #[test]
    fn arithmetic_and_cancellation() {
        let (_, i, j) = syms();
        let e = AffineExpr::var(i).plus(&AffineExpr::var(j)).plus_const(3);
        let f = e.minus(&AffineExpr::var(j));
        assert_eq!(f, AffineExpr::var(i).plus_const(3));
        assert!(!f.mentions(j));
    }

    #[test]
    fn scaling_and_zero() {
        let (_, i, _) = syms();
        let e = AffineExpr::var(i).plus_const(2).scaled(3);
        assert_eq!(e.coeff(i), 3);
        assert_eq!(e.constant(), 6);
        assert_eq!(e.scaled(0), AffineExpr::zero());
    }

    #[test]
    fn substitution() {
        let (_, i, j) = syms();
        // 2*i + 1 with i := j + 4  ==>  2*j + 9
        let e = AffineExpr::var(i).scaled(2).plus_const(1);
        let r = AffineExpr::var(j).plus_const(4);
        let s = e.substitute(i, &r);
        assert_eq!(s.coeff(j), 2);
        assert_eq!(s.constant(), 9);
    }

    #[test]
    fn single_var_detection() {
        let (_, i, _) = syms();
        assert_eq!(AffineExpr::var(i).as_single_var(), Some(i));
        assert_eq!(AffineExpr::var(i).plus_const(1).as_single_var(), None);
        assert_eq!(AffineExpr::var(i).scaled(2).as_single_var(), None);
    }

    #[test]
    fn display_formatting() {
        let (t, i, j) = syms();
        let e = AffineExpr::var(i)
            .scaled(2)
            .plus(&AffineExpr::var(j).scaled(-1))
            .plus_const(-3);
        assert_eq!(e.display(&t).to_string(), "2*i-j-3");
        assert_eq!(AffineExpr::constant_expr(7).display(&t).to_string(), "7");
    }
}
