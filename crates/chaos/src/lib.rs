//! # genesis-chaos — the chaos campaign harness
//!
//! Robustness in this workspace is built from layered recovery
//! mechanisms: the driver's degradation ladder (fused automaton → scan →
//! full re-analysis), the guard's rollback/quarantine/parole and
//! budget-aware transient retry. Each layer has unit tests; this crate
//! tests the *whole stack at once* by driving every scripted
//! [`FaultKind`] through every (optimizer × workload × probe point) cell
//! and asserting, after each injected fault, the recovery invariants
//! that make the layers trustworthy:
//!
//! - **State restoration** — a rejected application leaves the program
//!   bit-identical to the pre-fault checkpoint; a transparently recovered
//!   one (retry, ladder) produces exactly the fault-free result.
//! - **Cache consistency** — the session-carried dependence graph and
//!   fused anchor automaton agree with a from-scratch rebuild
//!   ([`genesis::SessionCaches::audit`]).
//! - **Trace integrity** — every span closed, every event line valid
//!   JSONL.
//! - **Quarantine discipline** — incriminating faults quarantine, budget
//!   faults do not, and parole releases a first offender after clean
//!   applies.
//!
//! A failing cell is re-run through a shrinking reporter
//! ([`minimize_sequence`]) that reduces its apply script to a minimal
//! still-failing sequence, so a campaign violation reads as a short
//! reproduction recipe rather than a wall of context.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use genesis::{ApplyMode, CompiledOptimizer, FaultKind, FaultPlan, Session, SessionOptions};
use genesis_guard::{GuardConfig, GuardOutcome, GuardStage, GuardedSession};
use gospel_ir::Program;
use gospel_trace::{write_json_string, Recorder};
use gospel_workloads::generator::{self, GenConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// What one script step must do to the session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A clean step: the apply goes through (or is cleanly rejected on a
    /// genuine resource budget) without corrupting anything.
    Applies,
    /// The injected fault is absorbed transparently: the step ends in the
    /// same state a fault-free run reaches. `via_retry` additionally
    /// requires the guard's transient-retry counter to have moved.
    Recovers {
        /// Require at least one `guard.transient_retries` increment.
        via_retry: bool,
    },
    /// The injected fault is caught: rejected at `stage`, rolled back to
    /// the pre-step program, and quarantined exactly when `quarantines`.
    RejectedAt {
        /// The validation stage expected to catch the fault.
        stage: GuardStage,
        /// Whether the rejection must quarantine the optimizer.
        quarantines: bool,
    },
    /// A parole trial of a previously quarantined optimizer: the apply
    /// goes through and the quarantine entry is gone afterwards.
    ParoleTrial,
}

/// One apply in a chaos script: an optimizer, an optional scripted
/// fault, and the invariant the step must uphold.
#[derive(Clone, Debug)]
pub struct Step {
    /// The optimizer to apply (at all points).
    pub optimizer: String,
    /// The fault armed for this step (re-armed on every script run, so
    /// scripts can be replayed and minimized deterministically).
    pub fault: Option<FaultPlan>,
    /// The invariant checked after the step.
    pub expect: Expect,
}

impl Step {
    /// A short human-readable label for reports.
    pub fn describe(&self) -> String {
        match &self.fault {
            Some(f) => format!("apply {} with fault {f}", self.optimizer),
            None => format!("apply {}", self.optimizer),
        }
    }
}

/// The outcome of executing one chaos script.
#[derive(Debug, Default)]
pub struct ScriptResult {
    /// Invariant violations, one line each (empty = the script held).
    pub violations: Vec<String>,
    /// Per step: whether its armed fault actually fired. A cell whose
    /// fault never fired is *not applicable* rather than passed.
    pub fired: Vec<bool>,
}

impl ScriptResult {
    /// True when the script upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The fault-free result of applying `name` to `pre`: the program a
/// transparent recovery must reproduce, or `Err` when even the clean run
/// fails (then the recovered run must fail the same way).
fn clean_result(
    pre: &Program,
    optimizers: &[CompiledOptimizer],
    guard: &GuardConfig,
    name: &str,
) -> Result<Program, genesis::RunError> {
    // The guarded run's options, minus the dependence audit: the
    // reference only needs the same budgets and ladder.
    let opts = SessionOptions {
        verify_deps: false,
        ..guard.session
    };
    let mut s = Session::with_options(pre.clone(), opts);
    for opt in optimizers {
        s.register(opt.clone());
    }
    s.apply(name, ApplyMode::AllPoints)?;
    Ok(s.into_program())
}

/// Executes `steps` over a fresh [`GuardedSession`] on `prog` and checks
/// each step's expectation plus the universal invariants (program
/// restoration, cache consistency vs. a fresh rebuild, balanced
/// spans, JSONL-valid events).
pub fn run_script(
    prog: &Program,
    optimizers: &[CompiledOptimizer],
    guard: &GuardConfig,
    steps: &[Step],
) -> ScriptResult {
    let rec = Arc::new(Recorder::new());
    let mut gs = GuardedSession::new(prog.clone(), guard.clone());
    gs.set_recorder(Some(rec.clone()));
    for opt in optimizers {
        gs.register(opt.clone());
    }

    let mut res = ScriptResult::default();
    for (i, step) in steps.iter().enumerate() {
        let plan = step.fault.as_ref().map(FaultPlan::rearmed);
        gs.set_fault(plan.clone());
        let pre = gs.program().clone();
        let clean = matches!(step.expect, Expect::Recovers { .. })
            .then(|| clean_result(&pre, optimizers, guard, &step.optimizer));
        let retries_before = rec.counter("guard.transient_retries");

        let out = match gs.apply(&step.optimizer, ApplyMode::AllPoints) {
            Ok(out) => out,
            Err(e) => {
                res.violations
                    .push(format!("step {i} ({}): caller error {e}", step.describe()));
                res.fired.push(false);
                continue;
            }
        };
        let fired = plan.as_ref().is_some_and(|p| p.times_fired() > 0);
        res.fired.push(fired);

        let mut fail =
            |msg: String| res.violations.push(format!("step {i} ({}): {msg}", step.describe()));
        let quarantined_now = gs.quarantine_entry(&step.optimizer).is_some();
        let expect = if fired || step.fault.is_none() {
            step.expect
        } else {
            // The armed fault never hit this cell (optimizer applied too
            // few times to reach the probe point): the run must simply
            // have gone through cleanly.
            Expect::Applies
        };
        match expect {
            Expect::Applies => match &out {
                GuardOutcome::Applied(_) => {}
                GuardOutcome::Rejected(r) if r.stage == GuardStage::Resource => {
                    // A genuine budget stop is clean degradation, not a
                    // robustness failure — but it must have rolled back.
                    if !gs.program().structurally_eq(&pre) {
                        fail("resource rejection did not restore the program".into());
                    }
                }
                other => fail(format!("expected a clean apply, got {other:?}")),
            },
            Expect::Recovers { via_retry } => match clean.as_ref().expect("computed above") {
                Ok(clean_prog) => {
                    if !out.is_applied() {
                        fail(format!("expected transparent recovery, got {out:?}"));
                    } else if !gs.program().structurally_eq(clean_prog) {
                        fail("recovered program differs from the fault-free result".into());
                    }
                    if via_retry && rec.counter("guard.transient_retries") <= retries_before {
                        fail("recovery did not go through the transient retry".into());
                    }
                    if quarantined_now {
                        fail("transparent recovery must not quarantine".into());
                    }
                }
                Err(_) => {
                    // Even the fault-free run fails on this cell (e.g. a
                    // real budget); the faulted run must fail cleanly too.
                    if matches!(out, GuardOutcome::Applied(_)) {
                        fail("applied although the fault-free run errors".into());
                    } else if !gs.program().structurally_eq(&pre) {
                        fail("failed run did not restore the program".into());
                    }
                }
            },
            Expect::RejectedAt { stage, quarantines } => {
                match &out {
                    GuardOutcome::Rejected(r) if r.stage == stage => {}
                    other => fail(format!("expected rejection at {stage}, got {other:?}")),
                }
                if !gs.program().structurally_eq(&pre) {
                    fail("rejection did not restore the pre-fault program".into());
                }
                if quarantined_now != quarantines {
                    fail(format!(
                        "quarantine state is {quarantined_now}, expected {quarantines}"
                    ));
                }
            }
            Expect::ParoleTrial => match &out {
                GuardOutcome::Applied(_) => {
                    if quarantined_now {
                        fail("parole trial success must lift the quarantine".into());
                    }
                }
                GuardOutcome::Rejected(r) if r.stage == GuardStage::Resource => {
                    // A genuine budget stop during the trial *defers*
                    // parole rather than granting or revoking it: the
                    // quarantine must survive and the program roll back.
                    if !gs.program().structurally_eq(&pre) {
                        fail("deferred parole trial did not restore the program".into());
                    }
                    if !quarantined_now {
                        fail("a deferred parole trial must keep the quarantine".into());
                    }
                }
                other => fail(format!("expected the parole trial to apply, got {other:?}")),
            },
        }

        // Universal invariants, after every step.
        if rec.open_spans() != 0 {
            res.violations.push(format!(
                "step {i} ({}): {} span(s) left open",
                step.describe(),
                rec.open_spans()
            ));
        }
        for problem in gs.session().caches().audit(gs.program(), optimizers) {
            res.violations
                .push(format!("step {i} ({}): audit: {problem}", step.describe()));
        }
    }

    for ev in rec.drain_events() {
        let line = ev.to_jsonl();
        if let Err(e) = gospel_trace::json::validate(&line) {
            res.violations.push(format!("invalid JSONL event: {e}: {line}"));
        }
    }
    res
}

/// Greedy ddmin-lite: repeatedly drops single steps while `fails` still
/// holds, returning a 1-minimal failing subsequence (removing any one
/// remaining element makes the failure disappear).
pub fn minimize_sequence<T: Clone>(steps: &[T], fails: impl Fn(&[T]) -> bool) -> Vec<T> {
    let mut cur: Vec<T> = steps.to_vec();
    let mut i = 0;
    while i < cur.len() && cur.len() > 1 {
        let mut candidate = cur.clone();
        candidate.remove(i);
        if fails(&candidate) {
            cur = candidate; // kept failing without it — drop for good
        } else {
            i += 1;
        }
    }
    cur
}

/// The campaign matrix: which optimizers, workloads, fault kinds and
/// probe points to cross, under which guard configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Base guard configuration for every cell (`session.verify_deps` is
    /// forced on for corrupt-deps cells, where the verifier *is* the
    /// detector).
    pub guard: GuardConfig,
    /// Seed for the generated workloads.
    pub seed: u64,
    /// Catalog optimizer names to include (empty = the whole catalog).
    pub optimizers: Vec<String>,
    /// How many of the fixed ten workload programs to include.
    pub fixed_workloads: usize,
    /// How many seeded random programs to add to the workload set.
    pub generated_workloads: usize,
    /// Fault kinds to inject.
    pub kinds: Vec<FaultKind>,
    /// Application indices to probe (fault's `at`).
    pub probe_points: Vec<usize>,
    /// Shrink failing cells to a minimal reproduction script.
    pub minimize: bool,
}

impl CampaignConfig {
    /// The full matrix: every catalog optimizer, all ten fixed workloads
    /// plus two generated ones, every fault kind at probe points 0 and 1.
    pub fn full() -> CampaignConfig {
        CampaignConfig {
            guard: Self::campaign_guard(),
            seed: 0xC4A0_5CA0,
            optimizers: Vec::new(),
            fixed_workloads: usize::MAX,
            generated_workloads: 2,
            kinds: ALL_KINDS.to_vec(),
            probe_points: vec![0, 1],
            minimize: true,
        }
    }

    /// A reduced matrix for CI: three optimizers, three fixed workloads
    /// plus one generated, every fault kind at probe point 0.
    pub fn smoke() -> CampaignConfig {
        CampaignConfig {
            guard: Self::campaign_guard(),
            seed: 0xC4A0_5CA0,
            optimizers: vec!["CTP".into(), "DCE".into(), "CPP".into()],
            fixed_workloads: 3,
            generated_workloads: 1,
            kinds: ALL_KINDS.to_vec(),
            probe_points: vec![0],
            minimize: true,
        }
    }

    fn campaign_guard() -> GuardConfig {
        GuardConfig {
            vectors: 2,
            vector_len: 6,
            step_limit: 500_000,
            checkpoints: 4,
            parole_after: 2,
            session: SessionOptions {
                timeout_ms: Some(5_000),
                ..GuardConfig::default().session
            },
            ..GuardConfig::default()
        }
    }
}

/// Every scripted fault kind, in a stable reporting order.
pub const ALL_KINDS: [FaultKind; 8] = [
    FaultKind::Analysis,
    FaultKind::Action,
    FaultKind::CorruptCommit,
    FaultKind::Panic,
    FaultKind::PanicInAction,
    FaultKind::Timeout,
    FaultKind::Fuel,
    FaultKind::CorruptDeps,
];

/// Aggregate results for one fault kind across the campaign.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindStats {
    /// Cells run with this kind.
    pub cells: usize,
    /// Cells whose fault actually fired.
    pub fired: usize,
    /// Cells whose fault never hit (optimizer applied too few times).
    pub not_applicable: usize,
    /// Cells with at least one invariant violation.
    pub violations: usize,
}

/// One failing cell with its minimal reproduction.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Workload name.
    pub workload: String,
    /// Optimizer under fault.
    pub optimizer: String,
    /// The fault plan, in `--inject` syntax.
    pub fault: String,
    /// The invariant violations observed.
    pub problems: Vec<String>,
    /// The shrunk apply script that still reproduces the failure.
    pub minimized_steps: Vec<String>,
}

/// Everything a campaign run learned.
#[derive(Debug)]
pub struct CampaignReport {
    /// Seed the generated workloads were derived from.
    pub seed: u64,
    /// Total cells executed.
    pub cells: usize,
    /// Cells whose fault never fired.
    pub not_applicable: usize,
    /// Per-kind aggregates, in [`ALL_KINDS`] reporting order.
    pub kinds: BTreeMap<String, KindStats>,
    /// Every failing cell with its minimal reproduction.
    pub violations: Vec<Violation>,
}

impl CampaignReport {
    /// True when every cell upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The report as a JSON document (hand-rolled: the workspace is
    /// offline, and the structure is flat enough not to need a library).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = write!(
            out,
            "  \"seed\": {},\n  \"cells\": {},\n  \"not_applicable\": {},\n  \"violations\": {},\n",
            self.seed,
            self.cells,
            self.not_applicable,
            self.violations.len()
        );
        out.push_str("  \"kinds\": {\n");
        for (i, (kind, st)) in self.kinds.iter().enumerate() {
            out.push_str("    ");
            write_json_string(kind, &mut out);
            let _ = write!(
                out,
                ": {{\"cells\": {}, \"fired\": {}, \"not_applicable\": {}, \"violations\": {}}}",
                st.cells, st.fired, st.not_applicable, st.violations
            );
            out.push_str(if i + 1 < self.kinds.len() { ",\n" } else { "\n" });
        }
        out.push_str("  },\n  \"failures\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str("    {\"workload\": ");
            write_json_string(&v.workload, &mut out);
            out.push_str(", \"optimizer\": ");
            write_json_string(&v.optimizer, &mut out);
            out.push_str(", \"fault\": ");
            write_json_string(&v.fault, &mut out);
            out.push_str(", \"problems\": [");
            for (j, p) in v.problems.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_string(p, &mut out);
            }
            out.push_str("], \"minimized\": [");
            for (j, s) in v.minimized_steps.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                write_json_string(s, &mut out);
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.violations.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The expectation the guard stack must uphold for one fault kind.
fn expectation(kind: FaultKind) -> Expect {
    match kind {
        FaultKind::Analysis | FaultKind::Action => Expect::RejectedAt {
            stage: GuardStage::Run,
            quarantines: false,
        },
        FaultKind::CorruptCommit => Expect::RejectedAt {
            stage: GuardStage::Structural,
            quarantines: true,
        },
        FaultKind::Panic | FaultKind::PanicInAction => Expect::RejectedAt {
            stage: GuardStage::Internal,
            quarantines: true,
        },
        FaultKind::Timeout | FaultKind::Fuel => Expect::Recovers { via_retry: true },
        FaultKind::CorruptDeps => Expect::Recovers { via_retry: false },
    }
}

/// Builds one cell's apply script: the faulted apply, and — when the
/// fault quarantines — the parole phase (clean applies of a companion
/// optimizer, then the trial that must release the offender).
fn cell_script(
    optimizer: &str,
    companion: Option<&str>,
    kind: FaultKind,
    at: usize,
    parole_after: usize,
) -> Vec<Step> {
    let mut plan = FaultPlan::new(kind).for_optimizer(optimizer).at(at);
    if matches!(kind, FaultKind::Timeout | FaultKind::Fuel) {
        // Transient: fires once, so the guard's single retry recovers.
        plan = plan.transient();
    }
    let expect = expectation(kind);
    let mut steps = vec![Step {
        optimizer: optimizer.to_string(),
        fault: Some(plan),
        expect,
    }];
    let quarantines = matches!(expect, Expect::RejectedAt { quarantines: true, .. });
    if let (true, Some(companion)) = (quarantines, companion) {
        for _ in 0..parole_after {
            steps.push(Step {
                optimizer: companion.to_string(),
                fault: None,
                expect: Expect::Applies,
            });
        }
        steps.push(Step {
            optimizer: optimizer.to_string(),
            fault: None,
            expect: Expect::ParoleTrial,
        });
    }
    steps
}

/// Runs the whole campaign matrix and aggregates the results.
///
/// # Panics
///
/// Panics if the bundled catalog fails to compile (prevented by the
/// catalog's own tests).
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let optimizers: Vec<CompiledOptimizer> = gospel_opts::catalog()
        .expect("catalog compiles")
        .into_iter()
        .filter(|o| {
            cfg.optimizers.is_empty()
                || cfg.optimizers.iter().any(|n| n.eq_ignore_ascii_case(&o.name))
        })
        .collect();
    let mut workloads: Vec<(String, Program)> = gospel_workloads::suite()
        .into_iter()
        .take(cfg.fixed_workloads)
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    for i in 0..cfg.generated_workloads {
        let seed = cfg.seed.wrapping_add(i as u64);
        let gen_cfg = GenConfig {
            statements: 24,
            ..GenConfig::default()
        };
        workloads.push((format!("gen{seed}"), generator::generate(seed, gen_cfg)));
    }

    let mut report = CampaignReport {
        seed: cfg.seed,
        cells: 0,
        not_applicable: 0,
        kinds: BTreeMap::new(),
        violations: Vec::new(),
    };
    for kind in &cfg.kinds {
        report.kinds.entry(kind.name().to_string()).or_default();
    }

    for (wname, prog) in &workloads {
        for opt in &optimizers {
            let companion = optimizers
                .iter()
                .find(|o| o.name != opt.name)
                .map(|o| o.name.as_str());
            for &kind in &cfg.kinds {
                for &at in &cfg.probe_points {
                    if kind == FaultKind::Analysis && at > 0 {
                        // The analysis probe only exists at run entry.
                        continue;
                    }
                    let mut guard = cfg.guard.clone();
                    // For a silently-stale graph the verifier is the
                    // detector the ladder hangs off; everywhere else it
                    // would only slow the matrix down.
                    guard.session.verify_deps = kind == FaultKind::CorruptDeps;
                    let steps =
                        cell_script(&opt.name, companion, kind, at, guard.parole_after);
                    let res = run_script(prog, &optimizers, &guard, &steps);

                    report.cells += 1;
                    let st = report.kinds.entry(kind.name().to_string()).or_default();
                    st.cells += 1;
                    let fault_fired = res.fired.first().copied().unwrap_or(false);
                    if fault_fired {
                        st.fired += 1;
                    } else {
                        st.not_applicable += 1;
                        report.not_applicable += 1;
                    }
                    if !res.ok() {
                        st.violations += 1;
                        let minimized = if cfg.minimize {
                            minimize_sequence(&steps, |sub| {
                                !run_script(prog, &optimizers, &guard, sub).ok()
                            })
                        } else {
                            steps.clone()
                        };
                        report.violations.push(Violation {
                            workload: wname.clone(),
                            optimizer: opt.name.clone(),
                            fault: steps[0]
                                .fault
                                .as_ref()
                                .map(ToString::to_string)
                                .unwrap_or_default(),
                            problems: res.violations,
                            minimized_steps: minimized.iter().map(Step::describe).collect(),
                        });
                    }
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimizer_finds_the_failing_pair() {
        let seq = [1, 2, 3, 4, 5, 6];
        // "Fails" whenever both 2 and 5 survive; everything else is noise.
        let min = minimize_sequence(&seq, |s| s.contains(&2) && s.contains(&5));
        assert_eq!(min, vec![2, 5]);
    }

    #[test]
    fn minimizer_keeps_a_single_failing_step() {
        let min = minimize_sequence(&[7, 8, 9], |s| s.contains(&8));
        assert_eq!(min, vec![8]);
    }

    #[test]
    fn tiny_campaign_has_zero_violations() {
        let cfg = CampaignConfig {
            optimizers: vec!["CTP".into()],
            fixed_workloads: 1,
            generated_workloads: 1,
            kinds: vec![
                FaultKind::Panic,
                FaultKind::Timeout,
                FaultKind::CorruptCommit,
                FaultKind::CorruptDeps,
            ],
            probe_points: vec![0],
            ..CampaignConfig::smoke()
        };
        // Injected panics are contained by design; keep the test log
        // readable while they unwind through the hook.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = run_campaign(&cfg);
        std::panic::set_hook(prev);
        assert!(report.ok(), "violations: {:#?}", report.violations);
        assert_eq!(report.cells, 2 * 4);
        assert!(gospel_trace::json::validate(&report.to_json()).is_ok());
    }

    #[test]
    fn a_sabotaged_expectation_is_caught_and_minimized() {
        // A cell that *wrongly* expects CTP to be quarantined for a plain
        // timeout must come back as a violation — this is the campaign
        // catching a broken recovery path (here simulated by breaking the
        // expectation instead of the recovery).
        let optimizers = vec![gospel_opts::by_name("CTP"), gospel_opts::by_name("DCE")];
        let guard = CampaignConfig::campaign_guard();
        let (_, prog) = &gospel_workloads::suite()[0];
        let steps = vec![
            Step {
                optimizer: "DCE".into(),
                fault: None,
                expect: Expect::Applies,
            },
            Step {
                optimizer: "CTP".into(),
                fault: Some(FaultPlan::new(FaultKind::Timeout).for_optimizer("CTP")),
                expect: Expect::RejectedAt {
                    stage: GuardStage::Internal,
                    quarantines: true,
                },
            },
        ];
        let res = run_script(prog, &optimizers, &guard, &steps);
        assert!(!res.ok());
        let min = minimize_sequence(&steps, |sub| {
            !run_script(prog, &optimizers, &guard, sub).ok()
        });
        assert_eq!(min.len(), 1, "the clean DCE step is noise: {min:?}");
        assert_eq!(min[0].optimizer, "CTP");
    }
}
