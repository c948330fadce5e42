//! Session-scoped search state carried across `apply` calls.
//!
//! A [`SessionCaches`] bundles everything a [`crate::Driver`] run can
//! reuse from the previous run over the same program: the dependence
//! graph and the fused anchor automaton. The driver keeps both
//! consistent by replaying every committed [`gospel_ir::EditDelta`] into
//! them; any path that cannot argue consistency (a corrupted commit, a
//! user restore) clears the whole bundle instead.
//!
//! The automaton is laid out from the registered catalog's anchor
//! chains, which `generate` compiled once per optimizer, and is keyed by
//! upper-cased optimizer name (the same normalization the guard's
//! quarantine map uses), also computed by `generate`. The per-apply
//! check that the parked automaton still covers the catalog compares
//! those names in place and allocates nothing. Re-registering a
//! specification under an existing name must call
//! [`SessionCaches::drop_optimizer`]: the old spec's compiled anchor
//! tests describe the *old* clauses, and letting them answer for the new
//! spec would silently suppress matches.

use std::sync::Arc;

use gospel_dep::DepGraph;
use gospel_ir::Program;

use crate::automaton::FusedAutomaton;
use crate::compile::CompiledOptimizer;

/// Reusable driver state for one program, carried across `apply` calls.
#[derive(Clone, Debug, Default)]
pub struct SessionCaches {
    /// Dependence graph describing the current program exactly, when the
    /// last run kept it current (the contract is
    /// [`crate::Driver::apply_with`]'s).
    pub deps: Option<DepGraph>,
    /// The fused anchor automaton over the registered catalog, maintained
    /// by delta replay across applies — including applies under the scan
    /// matcher, so it never silently goes stale. Dropped whenever the
    /// catalog changes under it ([`SessionCaches::drop_optimizer`]) and
    /// rebuilt by the session before the next fused apply.
    pub automaton: Option<FusedAutomaton>,
}

impl SessionCaches {
    /// An empty bundle — every first use builds from scratch.
    pub fn new() -> SessionCaches {
        SessionCaches::default()
    }

    /// Drops everything. Called whenever the program changes outside the
    /// driver's journaled commits (a user restore, a corrupted commit).
    pub fn clear(&mut self) {
        self.deps = None;
        self.automaton = None;
    }

    /// Drops every entry derived from optimizer `name` (case-insensitive).
    /// Required when a specification is re-registered under an existing
    /// name — fused-automaton states compiled from the old spec must not
    /// survive into the new one's runs. The automaton is catalog-scoped,
    /// so covering the name at all voids it outright (the session
    /// rebuilds it from the new catalog).
    pub fn drop_optimizer(&mut self, name: &str) {
        if self
            .automaton
            .as_ref()
            .is_some_and(|a| a.names().iter().any(|n| n.eq_ignore_ascii_case(name)))
        {
            self.automaton = None;
        }
    }

    /// Ensures the parked automaton was built over exactly the registered
    /// catalog (names compared in place, in registration order) and
    /// describes `prog`; rebuilds it otherwise. Called by the session
    /// before each fused apply. Rebuilds announce themselves as an
    /// `automaton.build` span on `rec` (the state count lands in
    /// `search.fused.states` when the next driver run drains the build
    /// stats).
    pub(crate) fn ensure_automaton(
        &mut self,
        optimizers: &[CompiledOptimizer],
        prog: &Program,
        rec: Option<&Arc<gospel_trace::Recorder>>,
    ) {
        match &self.automaton {
            Some(a) if a.covers(optimizers) => {}
            _ => {
                let span = gospel_trace::Span::open(rec, "automaton.build", &[]);
                let a = FusedAutomaton::build(optimizers, prog);
                span.close(&[(
                    "states",
                    gospel_trace::Value::us(a.states()),
                )]);
                self.automaton = Some(a);
            }
        }
    }

    /// Audits every cached structure against a from-scratch rebuild and
    /// returns one line per inconsistency (empty = consistent). This is
    /// the chaos campaign's "no state divergence vs. a fresh rebuild"
    /// invariant: the dependence graph and the fused automaton must agree
    /// with fresh analyses of `prog`.
    pub fn audit(&self, prog: &Program, optimizers: &[CompiledOptimizer]) -> Vec<String> {
        let mut out = Vec::new();
        let fresh = match DepGraph::analyze(prog) {
            Ok(g) => g,
            Err(e) => {
                out.push(format!("program fails fresh dependence analysis: {e}"));
                return out;
            }
        };
        if let Some(g) = &self.deps {
            if !g.agrees_with(&fresh) {
                out.push("cached dependence graph disagrees with fresh analysis".into());
            }
        }
        if let Some(a) = &self.automaton {
            let mut catalog: Vec<&CompiledOptimizer> = Vec::with_capacity(a.names().len());
            let mut known = true;
            for key in a.names() {
                match optimizers.iter().find(|o| o.name.eq_ignore_ascii_case(key)) {
                    Some(o) => catalog.push(o),
                    None => {
                        out.push(format!(
                            "fused automaton covers unregistered optimizer {key}"
                        ));
                        known = false;
                    }
                }
            }
            if known && !a.agrees_with(&FusedAutomaton::build_refs(&catalog, prog)) {
                out.push("fused automaton disagrees with fresh rebuild".into());
            }
        }
        out
    }
}

/// The shared cache/quarantine key normalization: upper-cased name.
pub(crate) fn normalize(name: &str) -> String {
    name.to_ascii_uppercase()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;

    fn ctp() -> CompiledOptimizer {
        let (spec, info) = gospel_lang::parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        generate(spec, info).unwrap()
    }

    #[test]
    fn drop_optimizer_is_case_insensitive_and_surgical() {
        let opt = ctp();
        let prog =
            gospel_frontend::compile("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend").unwrap();
        let mut caches = SessionCaches::new();
        caches.ensure_automaton(std::slice::from_ref(&opt), &prog, None);
        assert!(caches.automaton.is_some());
        // A name the automaton does not cover leaves it alone.
        caches.drop_optimizer("DCE");
        assert!(caches.automaton.is_some(), "an uncovered name must keep the automaton");
        // A case variant of a covered name voids it.
        caches.drop_optimizer("ctp");
        assert!(caches.automaton.is_none(), "a covered name must void the automaton");
    }

    #[test]
    fn ensure_automaton_rebuilds_over_a_renamed_catalog() {
        let prog =
            gospel_frontend::compile("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend").unwrap();
        let src = crate::CTP_EXAMPLE_SPEC.replace("OPTIMIZATION CTP", "OPTIMIZATION Other");
        let (spec, info) = gospel_lang::parse_validated(&src).unwrap();
        let other = generate(spec, info).unwrap();
        let mut caches = SessionCaches::new();
        caches.ensure_automaton(std::slice::from_ref(&ctp()), &prog, None);
        // A catalog of the same size under another name is not covered.
        caches.ensure_automaton(std::slice::from_ref(&other), &prog, None);
        let auto = caches.automaton.as_ref().unwrap();
        assert_eq!(auto.names().len(), 1);
        assert_eq!(&*auto.names()[0], "OTHER");
        assert_eq!(auto.opt_id("other"), Some(0));
        assert!(auto.covers(std::slice::from_ref(&other)));
        assert!(!auto.covers(&[other.clone(), other]));
    }

    #[test]
    fn audit_flags_a_stale_automaton() {
        let prog =
            gospel_frontend::compile("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend").unwrap();
        let other =
            gospel_frontend::compile("program q\ninteger a\na = 1\na = 2\nwrite a\nend").unwrap();
        let opt = ctp();
        let mut caches = SessionCaches::new();
        // An automaton classified over a different program must be caught.
        caches.automaton = Some(FusedAutomaton::build(std::slice::from_ref(&opt), &other));
        let problems = caches.audit(&prog, std::slice::from_ref(&opt));
        assert!(
            problems.iter().any(|p| p.contains("fused automaton")),
            "{problems:?}"
        );
        // The same automaton over the right program passes.
        caches.automaton = Some(FusedAutomaton::build(std::slice::from_ref(&opt), &prog));
        assert!(caches.audit(&prog, std::slice::from_ref(&opt)).is_empty());
    }
}
