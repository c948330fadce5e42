//! The generator: analyze a validated specification and produce an
//! executable optimizer (the paper's Step 2, Figure 4).

use crate::automaton::{AnchorChain, AnchorFilter};
use crate::caches::normalize;
use crate::driver::TraceNames;
use crate::error::GenerateError;
use crate::resolve::{resolve, Act, ClauseSlots, NameTable, PatternSlots};
use gospel_lang::ast::{
    Action, BoolExpr, DependClause, ElemType, PatternClause, Quant, SetExpr, Spec, ValExpr,
};
use gospel_lang::SpecInfo;
use std::sync::{Arc, OnceLock};

/// How a dependence clause with membership constraints is implemented
/// (the two methods of §4, plus the heuristic that chooses per clause).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// "(1) determine statements that are members and then check for the
    /// desired dependence."
    MembersFirst,
    /// "(2) consider the dependence of one statement and check the
    /// corresponding dependent statements for membership."
    DepsFirst,
    /// Estimate both costs per clause and pick the cheaper (the paper's
    /// final configuration).
    #[default]
    Heuristic,
}

/// One compiled dependence clause, annotated with what the generator
/// learned about it.
#[derive(Clone, Debug)]
pub struct CompiledClause {
    /// The clause.
    pub clause: DependClause,
    /// Whether the dependence-driven strategy is applicable: the condition
    /// must be a conjunction whose dependence atoms can generate bindings
    /// (no `OR`/`NOT` above a binding atom).
    pub deps_first_ok: bool,
    /// The clause resolved against the optimizer's name table.
    pub(crate) slots: ClauseSlots,
}

/// An executable optimizer produced by [`generate`] — the counterpart of
/// the four generated C procedures plus their call interface.
#[derive(Clone, Debug)]
pub struct CompiledOptimizer {
    /// The optimization's name (`CTP`, `INX`, …).
    pub name: String,
    /// Application mode from the specification.
    pub mode: gospel_lang::ast::Mode,
    /// Pattern clauses with their resolved element types (`set_up` +
    /// `match` phases).
    pub patterns: Vec<(PatternClause, ElemType)>,
    /// Dependence clauses (`pre` phase).
    pub depends: Vec<CompiledClause>,
    /// Action program (`act` phase).
    pub actions: Vec<Action>,
    /// Strategy configuration for membership-bearing clauses.
    pub strategy: Strategy,
    /// The strings a traced run records for this optimizer, rendered on
    /// first use.
    pub(crate) trace_names: OnceLock<TraceNames>,
    /// Every specification variable, in name order: the slots of this
    /// optimizer's bindings.
    pub(crate) names: Arc<NameTable>,
    /// The pattern clauses resolved against `names`, parallel to
    /// `patterns`.
    pub(crate) pattern_slots: Vec<PatternSlots>,
    /// The action program resolved against `names`.
    pub(crate) acts: Vec<Act>,
    /// Deduplication sites over all resolved conditions.
    pub(crate) sites: usize,
    /// The upper-cased name: the key the fused automaton and the session
    /// caches know this optimizer by.
    pub(crate) key: Arc<str>,
    /// The anchor clause compiled for matching, when it narrows: the
    /// catalog half of the fused automaton, which shares it.
    pub(crate) anchor: Option<Arc<AnchorChain>>,
}

impl CompiledOptimizer {
    /// Returns a copy configured with a different membership strategy
    /// (used by the §4 strategy experiments).
    #[must_use]
    pub fn with_strategy(&self, strategy: Strategy) -> CompiledOptimizer {
        CompiledOptimizer {
            strategy,
            ..self.clone()
        }
    }

    /// The narrowing [`AnchorFilter`] compiled from the anchor clause
    /// when the optimizer was generated — the filter the fused automaton
    /// and the scan both admit by. `None` when the anchor does not
    /// narrow (a loop anchor, or a format with no opcode bound).
    pub fn anchor(&self) -> Option<&AnchorFilter> {
        self.anchor.as_deref().map(|c| &c.filter)
    }
}

/// Generates an optimizer from a validated specification.
///
/// # Errors
///
/// Returns [`GenerateError::Unsupported`] for the constructs the prototype
/// does not implement (mirroring the paper's listed restrictions):
/// `all` quantifiers in the `Code_Pattern` section and expression-valued
/// `forall` element lists.
pub fn generate(spec: Spec, info: SpecInfo) -> Result<CompiledOptimizer, GenerateError> {
    if spec.patterns.iter().any(|p| p.quant == Quant::All) {
        return Err(GenerateError::Unsupported(
            "`all` in Code_Pattern is not implemented by the prototype".into(),
        ));
    }
    for a in &spec.actions {
        check_action(a)?;
    }

    let resolved = resolve(&spec, &info);
    let Spec {
        name,
        mode,
        decls,
        patterns,
        depends,
        actions,
    } = spec;
    // A pair clause's variables share their group's declared type.
    let decl_type = |var: &str| {
        decls
            .iter()
            .find(|d| d.groups.iter().flatten().any(|n| n == var))
            .map(|d| d.ty)
            .expect("validation declares every pattern variable")
    };
    let patterns: Vec<_> = patterns
        .into_iter()
        .map(|p| {
            let ty = decl_type(&p.vars[0]);
            (p, ty)
        })
        .collect();
    let anchor = AnchorChain::compile(&patterns).map(Arc::new);
    let depends = depends
        .into_iter()
        .zip(resolved.depends)
        .map(|(clause, slots)| CompiledClause {
            deps_first_ok: deps_first_applicable(&clause.cond, &clause.vars),
            clause,
            slots,
        })
        .collect();

    Ok(CompiledOptimizer {
        key: normalize(&name).into(),
        anchor,
        name,
        mode,
        patterns,
        depends,
        actions,
        strategy: Strategy::default(),
        trace_names: OnceLock::new(),
        names: Arc::new(resolved.names),
        pattern_slots: resolved.patterns,
        acts: resolved.actions,
        sites: resolved.sites,
    })
}

fn check_action(a: &Action) -> Result<(), GenerateError> {
    if let Action::ForAll { set, body, .. } = a {
        match set {
            SetExpr::Named(_) => {}
            _ => {
                return Err(GenerateError::Unsupported(
                    "expressions as forall element lists are not implemented (paper §3.1)".into(),
                ))
            }
        }
        for b in body {
            check_action(b)?;
        }
    }
    Ok(())
}

/// The dependence-driven strategy needs every clause variable to be
/// generatable from a *positive* dependence atom in a pure conjunction.
fn deps_first_applicable(cond: &BoolExpr, vars: &[String]) -> bool {
    let mut generatable = Vec::new();
    if !conjunction_atoms(cond, &mut generatable) {
        return false;
    }
    vars.iter().all(|v| generatable.iter().any(|g| g == v))
}

/// Walks an `And` tree; returns false on `Or`, or on `Not` containing a
/// dependence atom. Collects variables that appear as an endpoint of a
/// positive dependence atom.
fn conjunction_atoms(b: &BoolExpr, generatable: &mut Vec<String>) -> bool {
    match b {
        BoolExpr::And(l, r) => {
            conjunction_atoms(l, generatable) && conjunction_atoms(r, generatable)
        }
        BoolExpr::Or(_, _) => false,
        BoolExpr::Not(inner) => !contains_dep(inner),
        BoolExpr::Dep { from, to, .. } => {
            for side in [from, to] {
                if let ValExpr::Name(n) = side {
                    generatable.push(n.clone());
                }
            }
            true
        }
        _ => true,
    }
}

fn contains_dep(b: &BoolExpr) -> bool {
    match b {
        BoolExpr::And(l, r) | BoolExpr::Or(l, r) => contains_dep(l) || contains_dep(r),
        BoolExpr::Not(i) => contains_dep(i),
        BoolExpr::Dep { .. } => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_lang::parse_validated;

    #[test]
    fn generates_ctp() {
        let (spec, info) = parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        let opt = generate(spec, info).unwrap();
        assert_eq!(opt.name, "CTP");
        assert_eq!(opt.patterns.len(), 1);
        assert_eq!(opt.depends.len(), 2);
        // `any (Sj,pos): flow_dep(Si, Sj, (=))` can be driven by the edge
        // list: Sj appears as a dep endpoint.
        assert!(opt.depends[0].deps_first_ok);
    }

    #[test]
    fn rejects_all_in_pattern() {
        let src = "OPTIMIZATION X TYPE Stmt: S; PRECOND Code_Pattern all S; ACTION delete(S); END";
        let (spec, info) = parse_validated(src).unwrap();
        assert!(matches!(
            generate(spec, info),
            Err(GenerateError::Unsupported(_))
        ));
    }

    #[test]
    fn or_blocks_deps_first() {
        let src = r#"
OPTIMIZATION X
TYPE Stmt: S, T;
PRECOND
  Code_Pattern
    any S;
  Depend
    any T: flow_dep(S, T) OR anti_dep(S, T);
ACTION
  delete(T);
END
"#;
        let (spec, info) = parse_validated(src).unwrap();
        let opt = generate(spec, info).unwrap();
        assert!(!opt.depends[0].deps_first_ok);
    }

    #[test]
    fn strategy_override() {
        let (spec, info) = parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        let opt = generate(spec, info).unwrap();
        assert_eq!(opt.strategy, Strategy::Heuristic);
        assert_eq!(
            opt.with_strategy(Strategy::DepsFirst).strategy,
            Strategy::DepsFirst
        );
    }
}
