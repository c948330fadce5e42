//! The constructor's interactive interface (paper Figure 4, Step 3): a
//! session holds the program, a set of generated optimizers, and the
//! user-facing options — select optimizations, select application points,
//! override dependence restrictions, control dependence recomputation.

use crate::caches::SessionCaches;
use crate::compile::CompiledOptimizer;
use crate::cost::Cost;
use crate::driver::{ApplyMode, ApplyReport, Driver, MatchSet, MatcherKind};
use crate::error::RunError;
use crate::fault::FaultPlan;
use gospel_ir::Program;
use gospel_trace::Recorder;
use std::sync::Arc;

/// Session configuration.
#[derive(Clone, Copy, Debug)]
pub struct SessionOptions {
    /// Recompute the dependence graph between applications of one
    /// optimizer (Figure 5 note: "the data flow analyzer may have to be
    /// called after each application").
    pub recompute_deps: bool,
    /// Maintain the dependence graph incrementally from each application's
    /// edit delta instead of re-running the full analysis (the driver
    /// falls back to a full `analyze` on structural edits).
    pub incremental_deps: bool,
    /// Cross-check every incremental graph refresh against a fresh full
    /// analysis; a disagreement fails the `apply` call loudly.
    pub verify_deps: bool,
    /// Per-optimizer application budget.
    pub max_applications: usize,
    /// Wall-clock budget per `apply` call, in milliseconds.
    pub timeout_ms: Option<u64>,
    /// Search-cost budget per `apply` call (see [`Cost::total`]).
    pub fuel: Option<u64>,
    /// Growth cap: abort an `apply` once the program exceeds this
    /// multiple of its statement count at the start of the call.
    pub max_growth: Option<u32>,
    /// Which candidate-enumeration machinery drives searches — the fused
    /// catalog automaton or full scans (see [`MatcherKind`]); bindings
    /// are identical in either mode. Defaults to the fused automaton.
    pub matcher: MatcherKind,
    /// Degrade instead of hard-aborting on dependence-maintenance
    /// trouble (see [`crate::Driver::degraded_recovery`]). On by default
    /// for sessions: a session prefers a slower, healed apply over an
    /// aborted one, and every fall is visible through the
    /// `search.degraded.<reason>` counters.
    pub degraded_recovery: bool,
    /// Attempt-span sampling rate: trace one in every N
    /// `driver.attempt` spans (`0`/`1` = every attempt). Counters stay
    /// exact; sampled-in timing observations are weighted by N (see
    /// [`crate::Driver::trace_sample`]).
    pub trace_sample: u64,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            recompute_deps: true,
            incremental_deps: true,
            verify_deps: false,
            max_applications: 10_000,
            timeout_ms: None,
            fuel: None,
            max_growth: None,
            matcher: MatcherKind::Fused,
            degraded_recovery: true,
            trace_sample: 1,
        }
    }
}

/// One entry in the session log.
#[derive(Clone, Debug)]
pub struct SessionEvent {
    /// Optimizer name.
    pub optimizer: String,
    /// How it was applied.
    pub mode: ApplyMode,
    /// What happened.
    pub report: ApplyReport,
}

/// An interactive optimization session: "the user may execute any number
/// of optimizations in any order".
#[derive(Debug)]
pub struct Session {
    prog: Program,
    optimizers: Vec<CompiledOptimizer>,
    options: SessionOptions,
    log: Vec<SessionEvent>,
    fault: Option<FaultPlan>,
    /// Search state carried across applies — the dependence graph and
    /// the fused automaton. The driver maintains both by delta replay;
    /// see [`SessionCaches`].
    caches: SessionCaches,
    /// Structured-event sink handed to every driver this session runs.
    recorder: Option<Arc<Recorder>>,
}

impl Session {
    /// Starts a session over `prog`.
    pub fn new(prog: Program) -> Session {
        Session {
            prog,
            optimizers: Vec::new(),
            options: SessionOptions::default(),
            log: Vec::new(),
            fault: None,
            caches: SessionCaches::new(),
            recorder: None,
        }
    }

    /// Starts a session with explicit options.
    pub fn with_options(prog: Program, options: SessionOptions) -> Session {
        Session {
            options,
            ..Session::new(prog)
        }
    }

    /// Registers a generated optimizer; it becomes selectable by name.
    /// Re-registering an existing name replaces the old specification
    /// *and* voids the fused automaton compiled from it — the old spec's
    /// anchor tests must not answer for the new one.
    pub fn register(&mut self, opt: CompiledOptimizer) {
        self.caches.drop_optimizer(&opt.name);
        self.optimizers.retain(|o| o.name != opt.name);
        self.optimizers.push(opt);
    }

    /// Names of the registered optimizers, in registration order.
    pub fn optimizer_names(&self) -> Vec<&str> {
        self.optimizers.iter().map(|o| o.name.as_str()).collect()
    }

    /// The current program.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Consumes the session, returning the optimized program.
    pub fn into_program(self) -> Program {
        self.prog
    }

    /// The session log.
    pub fn log(&self) -> &[SessionEvent] {
        &self.log
    }

    /// Total cost spent so far.
    pub fn total_cost(&self) -> Cost {
        self.log
            .iter()
            .fold(Cost::zero(), |acc, e| acc + e.report.cost)
    }

    /// Arms (or clears) a scripted fault for subsequent `apply` calls —
    /// the probe points live in the driver; see [`FaultPlan`].
    pub fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.fault = plan;
    }

    /// Attaches (or detaches) a structured-event recorder; every driver
    /// run by subsequent `apply` calls emits its spans and counters there.
    pub fn set_recorder(&mut self, rec: Option<Arc<Recorder>>) {
        self.recorder = rec;
    }

    /// The attached recorder, if any (shared, so callers can drain events
    /// while the session holds on to it).
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// The current session options.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The session options (mutable, so budgets can be tuned mid-session).
    pub fn options_mut(&mut self) -> &mut SessionOptions {
        &mut self.options
    }

    /// Replaces the session's program, e.g. to restore a checkpoint. The
    /// program changed outside the driver's journaled commits, so every
    /// carried cache is dropped.
    pub fn restore_program(&mut self, prog: Program) {
        self.prog = prog;
        self.caches.clear();
    }

    /// The search state carried across applies — read-only introspection
    /// for tests and the chaos campaign's consistency audit.
    pub fn caches(&self) -> &SessionCaches {
        &self.caches
    }

    fn find_index(&self, name: &str) -> Result<usize, RunError> {
        self.optimizers
            .iter()
            .position(|o| o.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| RunError::UnknownOptimizer { name: name.into() })
    }

    fn find(&self, name: &str) -> Result<&CompiledOptimizer, RunError> {
        self.find_index(name).map(|i| &self.optimizers[i])
    }

    /// Lists the application points of `name` in the current program.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the optimizer is unknown or analysis fails.
    pub fn matches(&self, name: &str) -> Result<MatchSet, RunError> {
        let opt = self.find(name)?;
        let d = Driver::new(opt);
        match &self.caches.deps {
            // The carried graph already describes the current program.
            Some(g) => d.matches_with(&self.prog, g),
            None => d.matches(&self.prog),
        }
    }

    /// Applies optimizer `name` with the given mode and logs the result.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the optimizer is unknown, analysis fails,
    /// an action fails, or an application/resource budget is exceeded.
    pub fn apply(&mut self, name: &str, mode: ApplyMode) -> Result<&ApplyReport, RunError> {
        let idx = self.find_index(name)?;
        // Destructure so the optimizer borrow (from `optimizers`) and the
        // program borrow are disjoint — no clone of the compiled plan.
        let Session {
            prog,
            optimizers,
            options,
            log,
            fault,
            caches,
            recorder,
        } = self;
        // A fused apply dispatches from the catalog-wide automaton: build
        // (or rebuild) it here whenever the registered catalog changed
        // under the parked one — registration and quarantine transitions
        // drop it via `SessionCaches::drop_optimizer`.
        if options.matcher == MatcherKind::Fused {
            caches.ensure_automaton(optimizers, prog, recorder.as_ref());
        }
        let opt = &optimizers[idx];
        let mut driver = Driver::new(opt);
        driver.recompute_deps = options.recompute_deps;
        driver.incremental_deps = options.incremental_deps;
        driver.verify_deps = options.verify_deps;
        driver.max_applications = options.max_applications;
        driver.timeout_ms = options.timeout_ms;
        driver.fuel = options.fuel;
        driver.max_stmts = options
            .max_growth
            .map(|k| (k as usize).saturating_mul(prog.len().max(1)));
        driver.matcher = options.matcher;
        driver.degraded_recovery = options.degraded_recovery;
        driver.trace_sample = options.trace_sample;
        driver.fault = fault.clone();
        driver.recorder = recorder.clone();
        // `apply_with` takes each cache on entry, so an early error below
        // leaves the bundle empty — never stale.
        let report = driver.apply_with(prog, mode, caches)?;
        log.push(SessionEvent {
            optimizer: opt.name.clone(),
            mode,
            report,
        });
        match log.last() {
            Some(event) => Ok(&event.report),
            None => Err(RunError::Internal("session log lost its last event".into())),
        }
    }

    /// Applies a sequence of optimizers, each at all points — the workflow
    /// of the §4 ordering experiments. Returns one report per optimizer.
    ///
    /// # Errors
    ///
    /// Stops at (and returns) the first failure.
    pub fn run_sequence(&mut self, names: &[&str]) -> Result<Vec<ApplyReport>, RunError> {
        let mut out = Vec::new();
        for n in names {
            let report = self.apply(n, ApplyMode::AllPoints)?.clone();
            out.push(report);
        }
        Ok(out)
    }
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
    fn session_applies_and_logs() {
        let prog = gospel_frontend::compile(
            "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend",
        )
        .unwrap();
        let mut s = Session::new(prog);
        s.register(ctp());
        assert_eq!(s.optimizer_names(), vec!["CTP"]);
        let report = s.apply("ctp", ApplyMode::AllPoints).unwrap();
        assert_eq!(report.applications, 2); // y = x, then write y
        assert_eq!(s.log().len(), 1);
        assert!(s.total_cost().total() > 0);
    }

    #[test]
    fn unknown_optimizer_is_an_error() {
        let prog = gospel_frontend::compile("program p\ninteger x\nx = 1\nend").unwrap();
        let mut s = Session::new(prog);
        assert!(s.apply("nope", ApplyMode::FirstPoint).is_err());
    }

    #[test]
    fn reregistering_a_name_voids_its_stale_automaton() {
        // Spec A's anchor admits every assign but its `opr_1 == opr_2`
        // conjunct rejects them all. Spec B under the same name matches
        // exactly the statements A rejected — if the automaton compiled
        // from A answered for B, the match could be silently suppressed.
        let reject_all = "OPTIMIZATION T\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
                          any S: S.opc == assign AND S.opr_1 == S.opr_2;\nACTION\n  \
                          delete(S);\nEND";
        let match_assign = "OPTIMIZATION T\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
                            any S: S.opc == assign;\nACTION\n  delete(S);\nEND";
        let compile_opt = |src: &str| {
            let (spec, info) = gospel_lang::parse_validated(src).unwrap();
            generate(spec, info).unwrap()
        };
        let prog =
            gospel_frontend::compile("program p\ninteger x, y\nx = y\nwrite x\nend").unwrap();
        let mut s = Session::new(prog);
        s.options_mut().matcher = MatcherKind::Fused;
        s.register(compile_opt(reject_all));
        let r = s.apply("T", ApplyMode::AllPoints).unwrap();
        assert_eq!(r.applications, 0);
        assert!(
            s.caches().automaton.is_some(),
            "the fused run must park the catalog automaton"
        );
        s.register(compile_opt(match_assign));
        assert!(
            s.caches().automaton.is_none(),
            "re-registration must void the automaton compiled from the old spec"
        );
        let r = s.apply("T", ApplyMode::AllPoints).unwrap();
        assert_eq!(
            r.applications, 1,
            "the new spec's match must be found after re-registration"
        );
    }

    #[test]
    fn sequence_runs_in_order() {
        let prog = gospel_frontend::compile(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let mut s = Session::new(prog);
        s.register(ctp());
        let reports = s.run_sequence(&["CTP"]).unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].applications, 3); // y, z, then the write
    }
}
