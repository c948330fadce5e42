//! Dependence kinds, direction vectors and edges.

use gospel_ir::{OperandPos, StmtId, Sym, SymbolTable};
use std::fmt;

/// The four dependence kinds of the paper.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DepKind {
    /// Flow (true) dependence: definition then use.
    Flow,
    /// Anti dependence: use then (re)definition.
    Anti,
    /// Output dependence: definition then redefinition.
    Output,
    /// Control dependence: a structured header and the statements under it.
    Control,
}

impl DepKind {
    /// The GOSpeL spelling (`flow_dep`, `anti_dep`, `out_dep`, `ctrl_dep`).
    pub fn gospel_name(self) -> &'static str {
        match self {
            DepKind::Flow => "flow_dep",
            DepKind::Anti => "anti_dep",
            DepKind::Output => "out_dep",
            DepKind::Control => "ctrl_dep",
        }
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.gospel_name())
    }
}

/// One element of a *concrete* direction vector on a dependence edge.
///
/// `Any` appears on edges when the analysis can bound the dependence to a
/// loop level but not to a single direction (e.g. after a GCD test).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Direction {
    /// `<` — the source iteration precedes the sink iteration (forward
    /// loop-carried).
    Lt,
    /// `=` — same iteration (loop-independent at this level).
    Eq,
    /// `>` — the source iteration follows the sink (backward carried).
    Gt,
    /// `*` — any of the three.
    Any,
}

impl Direction {
    /// Reverses the direction (swap source and sink).
    pub fn reversed(self) -> Direction {
        match self {
            Direction::Lt => Direction::Gt,
            Direction::Gt => Direction::Lt,
            other => other,
        }
    }

    /// The paper's notation.
    pub fn symbol(self) -> char {
        match self {
            Direction::Lt => '<',
            Direction::Eq => '=',
            Direction::Gt => '>',
            Direction::Any => '*',
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// One element of a direction *pattern* in a specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DirElem {
    /// Must be `<`.
    Lt,
    /// Must be `=`.
    Eq,
    /// Must be `>`.
    Gt,
    /// Matches anything (`*` in GOSpeL; also what an omitted vector means).
    Any,
}

impl DirElem {
    fn admits(self, d: Direction) -> bool {
        match (self, d) {
            (DirElem::Any, _) => true,
            // A concrete-edge `*` means the dependence may have any
            // direction at this level, so every pattern element is
            // (conservatively) satisfiable.
            (_, Direction::Any) => true,
            (DirElem::Lt, Direction::Lt)
            | (DirElem::Eq, Direction::Eq)
            | (DirElem::Gt, Direction::Gt) => true,
            _ => false,
        }
    }

    /// The paper's notation.
    pub fn symbol(self) -> char {
        match self {
            DirElem::Lt => '<',
            DirElem::Eq => '=',
            DirElem::Gt => '>',
            DirElem::Any => '*',
        }
    }
}

impl fmt::Display for DirElem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A direction-vector pattern from a GOSpeL specification, e.g. `(<,>)`.
///
/// Matching extends the shorter of pattern and edge vector with `=`
/// entries, so the `(=)` of a scalar-optimization spec (meaning
/// "loop-independent") matches a dependence at any nesting depth whose
/// vector is all-`=`, including the empty vector outside loops.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub struct DirPattern {
    elems: Vec<DirElem>,
}

impl DirPattern {
    /// A pattern from explicit elements.
    pub fn new(elems: Vec<DirElem>) -> DirPattern {
        DirPattern { elems }
    }

    /// The omitted-vector pattern: matches every dependence.
    pub fn any() -> DirPattern {
        DirPattern { elems: Vec::new() }
    }

    /// True for the omitted-vector pattern, which matches every
    /// dependence. (An explicit `(*, …)` pattern is *not* unconstrained:
    /// levels beyond its length are `=`-extended, like any other pattern.)
    pub fn is_any(&self) -> bool {
        self.elems.is_empty()
    }

    /// The `(=)` pattern: matches exactly the loop-independent dependences.
    pub fn loop_independent() -> DirPattern {
        DirPattern {
            elems: vec![DirElem::Eq],
        }
    }

    /// The pattern elements.
    pub fn elems(&self) -> &[DirElem] {
        &self.elems
    }

    /// Whether this pattern admits the concrete vector `dirs`.
    ///
    /// An *empty* pattern (omitted vector) matches everything. Otherwise
    /// pattern and vector are compared elementwise, the shorter side
    /// extended with `=` / `Eq`.
    pub fn matches(&self, dirs: &[Direction]) -> bool {
        if self.elems.is_empty() {
            return true;
        }
        let n = self.elems.len().max(dirs.len());
        (0..n).all(|k| {
            let p = self.elems.get(k).copied().unwrap_or(DirElem::Eq);
            let d = dirs.get(k).copied().unwrap_or(Direction::Eq);
            p.admits(d)
        })
    }
}

impl fmt::Display for DirPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, e) in self.elems.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, ")")
    }
}

impl FromIterator<DirElem> for DirPattern {
    fn from_iter<T: IntoIterator<Item = DirElem>>(iter: T) -> Self {
        DirPattern {
            elems: iter.into_iter().collect(),
        }
    }
}

/// A dependence edge `src δ dst`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// The source statement (the earlier access).
    pub src: StmtId,
    /// The sink statement.
    pub dst: StmtId,
    /// Which dependence.
    pub kind: DepKind,
    /// The variable or array carrying the dependence (for control
    /// dependences, the LCV / a placeholder from the header).
    pub var: Sym,
    /// Operand position of the access in `src`.
    pub src_pos: OperandPos,
    /// Operand position of the access in `dst` — the `pos` GOSpeL returns
    /// for `(Sj, pos)` bindings.
    pub dst_pos: OperandPos,
    /// Direction vector over the loops common to `src` and `dst`,
    /// outermost first. Empty when the statements share no loop.
    pub dirvec: Vec<Direction>,
}

impl DepEdge {
    /// True if the edge is loop-carried (some non-`=` entry).
    pub fn is_carried(&self) -> bool {
        self.dirvec.iter().any(|d| *d != Direction::Eq)
    }

    /// True if the edge is carried *at* 0-based common-nest level `k`
    /// (i.e. the vector is `=` before `k` and non-`=` at `k`).
    pub fn carried_at(&self, k: usize) -> bool {
        self.dirvec.iter().take(k).all(|d| *d == Direction::Eq)
            && self.dirvec.get(k).is_some_and(|d| *d != Direction::Eq)
    }

    /// The edge as one line of `genesis-opt deps` output: kind, source
    /// and sink, variable, operand slots and direction vector, e.g.
    /// `flow_dep   s3 -> s5  var x  opr (1,2)  dir (<)`.
    pub fn line(&self, syms: &SymbolTable) -> String {
        let dirs: String = self.dirvec.iter().map(|d| d.symbol()).collect();
        format!(
            "{:<10} {} -> {}  var {}  opr ({},{})  dir ({})",
            self.kind.gospel_name(),
            self.src,
            self.dst,
            syms.name(self.var),
            self.src_pos.index(),
            self.dst_pos.index(),
            dirs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_matching_with_extension() {
        use DirElem as P;
        use Direction as D;
        // omitted vector matches anything
        assert!(DirPattern::any().matches(&[D::Lt, D::Gt]));
        // (=) matches all-equal of any depth
        let eq = DirPattern::loop_independent();
        assert!(eq.matches(&[]));
        assert!(eq.matches(&[D::Eq, D::Eq]));
        assert!(!eq.matches(&[D::Lt]));
        assert!(!eq.matches(&[D::Eq, D::Lt]));
        // (<,>) needs exactly those directions (with extension)
        let p = DirPattern::new(vec![P::Lt, P::Gt]);
        assert!(p.matches(&[D::Lt, D::Gt]));
        assert!(!p.matches(&[D::Lt, D::Eq]));
        assert!(!p.matches(&[D::Lt])); // extended to (<,=)
        assert!(p.matches(&[D::Lt, D::Any])); // conservative edge
        // (*) in a pattern admits everything at that level
        let star = DirPattern::new(vec![P::Any]);
        assert!(star.matches(&[D::Gt]));
        assert!(!star.is_any()); // deeper levels are still `=`-extended
    }

    #[test]
    fn direction_reversal() {
        assert_eq!(Direction::Lt.reversed(), Direction::Gt);
        assert_eq!(Direction::Eq.reversed(), Direction::Eq);
        assert_eq!(Direction::Any.reversed(), Direction::Any);
    }

    #[test]
    fn carried_levels() {
        use Direction as D;
        let mk = |dirs: Vec<Direction>| DepEdge {
            src: crate_test_stmt(0),
            dst: crate_test_stmt(1),
            kind: DepKind::Flow,
            var: crate_test_sym(),
            src_pos: OperandPos::Dst,
            dst_pos: OperandPos::A,
            dirvec: dirs,
        };
        assert!(!mk(vec![D::Eq, D::Eq]).is_carried());
        assert!(mk(vec![D::Eq, D::Lt]).is_carried());
        assert!(mk(vec![D::Eq, D::Lt]).carried_at(1));
        assert!(!mk(vec![D::Eq, D::Lt]).carried_at(0));
        assert!(!mk(vec![D::Lt, D::Lt]).carried_at(1));
    }

    fn crate_test_stmt(n: usize) -> StmtId {
        // Build ids through a real program to respect encapsulation.
        let mut p = gospel_ir::Program::new("t");
        let x = p.declare("x", gospel_ir::VarType::Int, gospel_ir::VarKind::Scalar);
        let mut last = None;
        for _ in 0..=n {
            last = Some(p.push(gospel_ir::Quad::assign(
                gospel_ir::Operand::Var(x),
                gospel_ir::Operand::int(0),
            )));
        }
        last.unwrap()
    }

    fn crate_test_sym() -> Sym {
        let mut p = gospel_ir::Program::new("t");
        p.declare("x", gospel_ir::VarType::Int, gospel_ir::VarKind::Scalar)
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn dir_strategy() -> impl Strategy<Value = Direction> {
        prop_oneof![
            Just(Direction::Lt),
            Just(Direction::Eq),
            Just(Direction::Gt),
            Just(Direction::Any),
        ]
    }

    fn elem_strategy() -> impl Strategy<Value = DirElem> {
        prop_oneof![
            Just(DirElem::Lt),
            Just(DirElem::Eq),
            Just(DirElem::Gt),
            Just(DirElem::Any),
        ]
    }

    proptest! {
        #[test]
        fn omitted_pattern_matches_everything(dirs in proptest::collection::vec(dir_strategy(), 0..4)) {
            prop_assert!(DirPattern::any().matches(&dirs));
        }

        #[test]
        fn all_star_pattern_matches_up_to_its_depth(
            dirs in proptest::collection::vec(dir_strategy(), 0..4),
            n in 1usize..4,
        ) {
            let p = DirPattern::new(vec![DirElem::Any; n]);
            // Beyond the pattern's depth the matcher extends it with `=`,
            // so deeper entries must be `=`-compatible.
            let expected = dirs[dirs.len().min(n)..]
                .iter()
                .all(|d| matches!(d, Direction::Eq | Direction::Any));
            prop_assert_eq!(p.matches(&dirs), expected);
        }

        #[test]
        fn exact_pattern_matches_its_own_vector(elems in proptest::collection::vec(elem_strategy(), 1..4)) {
            let dirs: Vec<Direction> = elems.iter().map(|e| match e {
                DirElem::Lt => Direction::Lt,
                DirElem::Eq => Direction::Eq,
                DirElem::Gt => Direction::Gt,
                DirElem::Any => Direction::Any,
            }).collect();
            prop_assert!(DirPattern::new(elems.clone()).matches(&dirs));
        }

        #[test]
        fn reversal_is_an_involution(d in dir_strategy()) {
            prop_assert_eq!(d.reversed().reversed(), d);
        }

        #[test]
        fn eq_pattern_matches_iff_effectively_loop_independent(
            dirs in proptest::collection::vec(dir_strategy(), 0..4),
        ) {
            let matches = DirPattern::loop_independent().matches(&dirs);
            // `Any` on a concrete edge is satisfiable by `=`, so it counts.
            let independent_possible = dirs
                .iter()
                .all(|d| matches!(d, Direction::Eq | Direction::Any));
            prop_assert_eq!(matches, independent_possible);
        }

        #[test]
        fn matching_is_stable_under_eq_extension(
            elems in proptest::collection::vec(elem_strategy(), 1..3),
            dirs in proptest::collection::vec(dir_strategy(), 1..3),
        ) {
            // Appending `=` to the shorter side never changes the verdict:
            // that is exactly what the matcher's implicit extension does.
            let base = DirPattern::new(elems.clone()).matches(&dirs);
            let mut dirs_ext = dirs.clone();
            while dirs_ext.len() < elems.len() {
                dirs_ext.push(Direction::Eq);
            }
            prop_assert_eq!(DirPattern::new(elems).matches(&dirs_ext), base);
        }
    }
}
