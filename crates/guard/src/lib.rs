//! # genesis-guard — validated optimization sessions
//!
//! GENesis turns *user-written* GOSpeL specifications into executable
//! optimizers, so a plausible-but-wrong specification can silently
//! corrupt the program it optimizes. This crate is the safety net: a
//! [`GuardedSession`] wraps [`genesis::Session`] and, after every
//! optimizer application,
//!
//! 1. **structurally validates** the transformed IR
//!    ([`gospel_ir::validate`]), and
//! 2. **translation-validates** it: the program is executed before and
//!    after on a deterministic, seeded input-vector set
//!    ([`gospel_workloads::generator::input_vectors`]) and the `write`
//!    traces must agree bit for bit.
//!
//! On any failure the session **rolls back** to a checkpoint (a bounded
//! snapshot ring, also user-drivable via [`GuardedSession::rollback`]),
//! **quarantines** the offending optimizer (later [`GuardedSession::
//! run_sequence`] calls skip it and continue), and records a structured
//! [`ValidationReport`] instead of corrupting the program or aborting
//! the whole session. Panics escaping generated search/action code are
//! contained with `catch_unwind` and mapped to
//! [`genesis::RunError::Internal`]. Resource budgets (wall-clock,
//! search-cost fuel, program growth) ride on the driver's probe points,
//! and a scripted [`genesis::FaultPlan`] can inject failures at those
//! same points so every recovery path here is itself testable.
//!
//! ```
//! use genesis_guard::{GuardConfig, GuardOutcome, GuardedSession};
//!
//! let prog = gospel_frontend::compile(
//!     "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend",
//! ).unwrap();
//! let mut s = GuardedSession::new(prog, GuardConfig::default());
//! s.register(gospel_opts::by_name("CTP"));
//! let outcome = s.apply("CTP", genesis::ApplyMode::AllPoints).unwrap();
//! assert!(matches!(outcome, GuardOutcome::Applied(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use genesis::{
    ApplyMode, ApplyReport, CompiledOptimizer, FaultPlan, RunError, Session, SessionOptions,
};
use gospel_exec::{ExecError, ExecValue, Trace};
use gospel_ir::Program;
use gospel_trace::{Recorder, Span, Value};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// Guard configuration: how thoroughly to validate and how much head
/// room to give each optimizer.
#[derive(Clone, Debug)]
pub struct GuardConfig {
    /// Number of input vectors per translation-validation run.
    pub vectors: usize,
    /// Values per input vector (extra values are ignored; exhausted
    /// `read`s see zero, like the interpreter's normal behaviour).
    pub vector_len: usize,
    /// Seed for the deterministic vector set.
    pub seed: u64,
    /// Interpreter step budget per execution.
    pub step_limit: u64,
    /// Snapshot-ring capacity (older checkpoints fall off the end).
    pub checkpoints: usize,
    /// Parole: a first-offense quarantined optimizer becomes eligible for
    /// one retrial after this many *clean* applications of other
    /// optimizers. A second quarantining offense is permanent.
    pub parole_after: usize,
    /// The wrapped session's options: its budgets (wall clock, fuel,
    /// growth cap), matcher, dependence auditing (`verify_deps`, the
    /// `--validate` belt-and-braces mode), degradation ladder and trace
    /// sampling. The default caps each apply at 10 s and 16× growth.
    pub session: SessionOptions,
}

impl Default for GuardConfig {
    fn default() -> Self {
        GuardConfig {
            vectors: 4,
            vector_len: 8,
            seed: 0x00C0_FFEE,
            step_limit: 2_000_000,
            checkpoints: 8,
            parole_after: 3,
            session: SessionOptions {
                timeout_ms: Some(10_000),
                max_growth: Some(16),
                ..SessionOptions::default()
            },
        }
    }
}

/// Which validation stage rejected an application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuardStage {
    /// The optimizer itself failed (analysis error, action error,
    /// divergence budget).
    Run,
    /// A resource budget ran out (wall clock, fuel, growth cap).
    Resource,
    /// The transformed IR failed structural validation.
    Structural,
    /// The before/after execution traces diverged.
    Translation,
    /// A panic escaped the optimizer and was contained.
    Internal,
}

impl fmt::Display for GuardStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            GuardStage::Run => "run",
            GuardStage::Resource => "resource",
            GuardStage::Structural => "structural",
            GuardStage::Translation => "translation",
            GuardStage::Internal => "internal",
        })
    }
}

/// Structured diagnostic for one rejected application.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// The optimizer that was rejected.
    pub optimizer: String,
    /// Which gate rejected it.
    pub stage: GuardStage,
    /// Human-readable detail (error message or trace diff summary).
    pub detail: String,
    /// Index of the input vector that exposed a trace divergence.
    pub vector: Option<usize>,
    /// Index of the first divergent output within that vector's trace.
    pub mismatch_at: Option<usize>,
    /// Whether the program was restored from the checkpoint.
    pub rolled_back: bool,
    /// Whether the optimizer was quarantined for the rest of the session.
    pub quarantined: bool,
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} rejected: {}",
            self.stage, self.optimizer, self.detail
        )?;
        if let Some(v) = self.vector {
            write!(f, " (input vector {v}")?;
            if let Some(i) = self.mismatch_at {
                write!(f, ", first divergent output {i}")?;
            }
            write!(f, ")")?;
        }
        if self.rolled_back {
            write!(f, "; rolled back")?;
        }
        if self.quarantined {
            write!(f, "; quarantined")?;
        }
        Ok(())
    }
}

/// What one guarded application did.
#[derive(Clone, Debug)]
pub enum GuardOutcome {
    /// The application survived both validation gates; the program was
    /// updated.
    Applied(ApplyReport),
    /// The application was rejected; the program was rolled back and a
    /// diagnostic recorded.
    Rejected(ValidationReport),
    /// The optimizer is quarantined from an earlier rejection and was
    /// not attempted.
    Skipped {
        /// The quarantined optimizer.
        optimizer: String,
        /// The reason it was quarantined.
        reason: String,
    },
}

impl GuardOutcome {
    /// The applications performed, when applied.
    pub fn applications(&self) -> usize {
        match self {
            GuardOutcome::Applied(r) => r.applications,
            _ => 0,
        }
    }

    /// True for [`GuardOutcome::Applied`].
    pub fn is_applied(&self) -> bool {
        matches!(self, GuardOutcome::Applied(_))
    }
}

/// One optimizer's quarantine record, including its parole state.
#[derive(Clone, Debug)]
pub struct QuarantineEntry {
    /// Why it was quarantined (stage + detail of the latest offense).
    pub reason: String,
    /// How many times it has been quarantined. Two offenses make the
    /// quarantine permanent — no further parole.
    pub offenses: u32,
    /// Clean applications of *other* optimizers still required before a
    /// first-offense entry becomes parole-eligible.
    pub parole_in: usize,
}

impl QuarantineEntry {
    /// Whether this entry can still earn a parole trial (first offense
    /// only; the countdown may still be running).
    pub fn parolable(&self) -> bool {
        self.offenses < 2
    }
}

/// A [`Session`] wrapped in validation, checkpointing, quarantine, and
/// panic containment. See the crate docs for the full policy.
#[derive(Debug)]
pub struct GuardedSession {
    session: Session,
    config: GuardConfig,
    vectors: Vec<Vec<ExecValue>>,
    ring: VecDeque<Program>,
    quarantine: BTreeMap<String, QuarantineEntry>,
    reports: Vec<ValidationReport>,
}

impl GuardedSession {
    /// Starts a guarded session over `prog`.
    pub fn new(prog: Program, config: GuardConfig) -> GuardedSession {
        let vectors = gospel_workloads::generator::input_vectors(
            config.seed,
            config.vectors,
            config.vector_len,
        )
        .into_iter()
        .map(|v| v.into_iter().map(ExecValue::Int).collect())
        .collect();
        let session = Session::with_options(prog, config.session);
        GuardedSession {
            session,
            config,
            vectors,
            ring: VecDeque::new(),
            quarantine: BTreeMap::new(),
            reports: Vec::new(),
        }
    }

    /// Attaches (or detaches) a structured-event recorder. The wrapped
    /// session's driver shares it, so one trace interleaves the driver's
    /// attempt spans with the guard's validation/rollback/quarantine
    /// events in causal order.
    pub fn set_recorder(&mut self, rec: Option<Arc<Recorder>>) {
        self.session.set_recorder(rec);
    }

    /// Registers an optimizer (it also leaves quarantine if re-registered
    /// — re-registering is the explicit "I fixed the spec" signal).
    pub fn register(&mut self, opt: CompiledOptimizer) {
        self.quarantine.remove(&normalize(&opt.name));
        self.session.register(opt);
    }

    /// The current (always validated) program.
    pub fn program(&self) -> &Program {
        self.session.program()
    }

    /// Consumes the session, returning the optimized program.
    pub fn into_program(self) -> Program {
        self.session.into_program()
    }

    /// The wrapped session (log, cost accounting, optimizer names).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Every diagnostic recorded so far, in order.
    pub fn reports(&self) -> &[ValidationReport] {
        &self.reports
    }

    /// Quarantined optimizer names with the reason each was quarantined.
    pub fn quarantined(&self) -> impl Iterator<Item = (&str, &str)> {
        self.quarantine
            .iter()
            .map(|(k, v)| (k.as_str(), v.reason.as_str()))
    }

    /// The full quarantine record for `name` (case-insensitive), with
    /// offense count and parole countdown.
    pub fn quarantine_entry(&self, name: &str) -> Option<&QuarantineEntry> {
        self.quarantine.get(&normalize(name))
    }

    /// Number of checkpoints currently available to [`Self::rollback`].
    pub fn checkpoints(&self) -> usize {
        self.ring.len()
    }

    /// Arms a scripted fault (see [`FaultPlan`]) for subsequent applies.
    pub fn set_fault(&mut self, plan: Option<FaultPlan>) {
        self.session.set_fault(plan);
    }

    /// The attached recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.session.recorder()
    }

    /// Restores the program as it was `n` successful-or-attempted applies
    /// ago (`rollback(1)` = just before the most recent apply). Discards
    /// the checkpoints in between.
    ///
    /// # Errors
    ///
    /// Fails when fewer than `n` checkpoints are available (the ring is
    /// bounded by [`GuardConfig::checkpoints`]).
    pub fn rollback(&mut self, n: usize) -> Result<(), String> {
        if n == 0 {
            return Err("rollback depth must be at least 1".into());
        }
        if n > self.ring.len() {
            return Err(format!(
                "only {} checkpoint(s) available, cannot roll back {n}",
                self.ring.len()
            ));
        }
        // Checkpoints are pushed newest-last; rolling back n drops the
        // newer n-1 and restores the nth-newest.
        for _ in 0..n - 1 {
            self.ring.pop_back();
        }
        let Some(snap) = self.ring.pop_back() else {
            return Err("checkpoint ring unexpectedly empty".into());
        };
        self.session.restore_program(snap);
        // Deliberately not `guard.rollback`: that event is reserved for
        // validation-caused restores (the trace contract pairs each one
        // with a preceding validation failure).
        if let Some(r) = self.session.recorder() {
            r.add("guard.user_rollbacks", 1);
            r.event("guard.user_rollback", &[("depth", Value::us(n))]);
        }
        Ok(())
    }

    /// Applies optimizer `name` under the full validation gate.
    ///
    /// Returns [`GuardOutcome::Applied`] when both gates pass,
    /// [`GuardOutcome::Rejected`] (program rolled back, diagnostic
    /// recorded) when either gate fails or the run errors, and
    /// [`GuardOutcome::Skipped`] when `name` is quarantined and not yet
    /// parole-eligible. A parole-eligible first offender gets one trial
    /// run instead of a skip: success releases it, a second quarantining
    /// offense revokes parole permanently. Transient run errors (timeout,
    /// fuel) get one budget-aware retry: the overall wall-clock allowance
    /// is twice the session's [`SessionOptions::timeout_ms`], and the
    /// retry only gets whatever of it the first attempt left over.
    ///
    /// # Errors
    ///
    /// Only caller errors propagate: an unknown optimizer name.
    pub fn apply(&mut self, name: &str, mode: ApplyMode) -> Result<GuardOutcome, RunError> {
        let parole_trial = if let Some(entry) = self.quarantine.get(&normalize(name)) {
            let eligible = entry.parolable() && entry.parole_in == 0;
            if !eligible {
                if let Some(r) = self.session.recorder() {
                    r.add("guard.skips", 1);
                    r.event(
                        "guard.skip",
                        &[
                            ("optimizer", Value::str(name.to_string())),
                            ("reason", Value::str(entry.reason.clone())),
                        ],
                    );
                }
                return Ok(GuardOutcome::Skipped {
                    optimizer: name.to_string(),
                    reason: entry.reason.clone(),
                });
            }
            self.parole_event(name, "trial");
            true
        } else {
            false
        };
        let guard_span = Span::open(
            self.session.recorder(),
            "guard.apply",
            &[
                ("optimizer", Value::str(name.to_string())),
                ("mode", Value::str(format!("{mode:?}"))),
            ],
        );

        // Snapshot before touching anything; also the rollback target.
        let checkpoint = self.program().clone();
        self.ring.push_back(checkpoint.clone());
        while self.ring.len() > self.config.checkpoints.max(1) {
            self.ring.pop_front();
        }

        let baselines: Vec<Result<Trace, ExecError>> = self
            .vectors
            .iter()
            .map(|v| gospel_exec::run_limited(&checkpoint, v, self.config.step_limit))
            .collect();

        let started = std::time::Instant::now();
        let mut retried = false;
        let run = loop {
            let session = &mut self.session;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                session.apply(name, mode).cloned()
            }));
            let transient = matches!(
                attempt,
                Ok(Err(RunError::Timeout { .. } | RunError::FuelExhausted { .. }))
            );
            if !transient || retried {
                break attempt;
            }
            // Budget-aware retry: the overall wall-clock allowance is 2×
            // the per-attempt timeout; the retry runs on whatever of it
            // the failed attempt left over.
            let remaining = self
                .config
                .session
                .timeout_ms
                .map(|ms| (2 * ms).saturating_sub(u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX)));
            if remaining == Some(0) {
                break attempt;
            }
            retried = true;
            let error = match &attempt {
                Ok(Err(e)) => e.to_string(),
                _ => unreachable!("transient implies Ok(Err(_))"),
            };
            // A timed-out run may have committed partial applications;
            // restart the retry from the checkpoint.
            self.session.restore_program(checkpoint.clone());
            if let Some(ms) = remaining {
                self.session.options_mut().timeout_ms = Some(ms);
            }
            if let Some(r) = self.session.recorder() {
                r.add("guard.transient_retries", 1);
                r.event(
                    "guard.transient_retry",
                    &[
                        ("optimizer", Value::str(name.to_string())),
                        ("error", Value::str(error)),
                    ],
                );
            }
        };
        self.session.options_mut().timeout_ms = self.config.session.timeout_ms;

        let canonical = self
            .session
            .optimizer_names()
            .iter()
            .find(|n| n.eq_ignore_ascii_case(name))
            .map_or_else(|| name.to_string(), |n| n.to_string());

        let report = match run {
            Err(payload) => {
                let msg = panic_message(payload.as_ref());
                let err = RunError::Internal(msg);
                self.reject(&canonical, checkpoint, GuardStage::Internal, err.to_string(), None, None)
            }
            Ok(Err(RunError::UnknownOptimizer { name })) => {
                // Caller error: nothing ran, drop the useless checkpoint.
                self.ring.pop_back();
                guard_span.close(&[("outcome", Value::str("unknown-optimizer"))]);
                return Err(RunError::UnknownOptimizer { name });
            }
            Ok(Err(e)) => {
                let stage = match e {
                    RunError::Timeout { .. }
                    | RunError::FuelExhausted { .. }
                    | RunError::GrowthLimit { .. }
                    | RunError::Diverged { .. } => GuardStage::Resource,
                    _ => GuardStage::Run,
                };
                self.reject(&canonical, checkpoint, stage, e.to_string(), None, None)
            }
            Ok(Ok(apply_report)) => {
                match self.validate(&canonical, &checkpoint, &baselines) {
                    None => {
                        if let Some(r) = self.session.recorder() {
                            r.add("guard.validations", 1);
                            r.event(
                                "guard.validate",
                                &[
                                    ("optimizer", Value::str(canonical.clone())),
                                    ("outcome", Value::str("pass")),
                                ],
                            );
                        }
                        if parole_trial {
                            self.quarantine.remove(&normalize(&canonical));
                            self.parole_event(&canonical, "released");
                        }
                        // A clean apply advances every first offender's
                        // parole countdown.
                        for entry in self.quarantine.values_mut() {
                            if entry.parolable() {
                                entry.parole_in = entry.parole_in.saturating_sub(1);
                            }
                        }
                        guard_span.close(&[("outcome", Value::str("applied"))]);
                        return Ok(GuardOutcome::Applied(apply_report));
                    }
                    Some(report) => report,
                }
            }
        };
        if parole_trial {
            if report.quarantined {
                // reject() bumped the offense count; two strikes make the
                // quarantine permanent.
                self.parole_event(&canonical, "revoked");
            } else {
                // A non-incriminating failure (budget, plain run error):
                // back to quarantine, earn another trial the same way.
                if let Some(entry) = self.quarantine.get_mut(&normalize(&canonical)) {
                    entry.parole_in = self.config.parole_after;
                }
                self.parole_event(&canonical, "deferred");
            }
        }
        guard_span.close(&[("outcome", Value::str("rejected"))]);
        Ok(GuardOutcome::Rejected(report))
    }

    /// Emits the parole counter/event pair (`outcome` is one of `trial`,
    /// `released`, `revoked`, `deferred`).
    fn parole_event(&self, name: &str, outcome: &str) {
        if let Some(r) = self.session.recorder() {
            r.add("guard.parole", 1);
            r.event(
                "guard.parole",
                &[
                    ("optimizer", Value::str(name.to_string())),
                    ("outcome", Value::str(outcome.to_string())),
                ],
            );
        }
    }

    /// Applies a sequence of optimizers, each at all points, skipping
    /// quarantined ones and continuing past rejections — graceful
    /// degradation instead of a hard stop.
    ///
    /// # Errors
    ///
    /// Only an unknown optimizer name stops the sequence.
    pub fn run_sequence(&mut self, names: &[&str]) -> Result<Vec<(String, GuardOutcome)>, RunError> {
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let outcome = self.apply(name, ApplyMode::AllPoints)?;
            out.push((name.to_string(), outcome));
        }
        Ok(out)
    }

    /// Runs both validation gates against the current program. `None`
    /// means the application is valid; `Some` is the recorded rejection
    /// (the program has been rolled back to `checkpoint`).
    fn validate(
        &mut self,
        name: &str,
        checkpoint: &Program,
        baselines: &[Result<Trace, ExecError>],
    ) -> Option<ValidationReport> {
        if let Err(e) = gospel_ir::validate(self.session.program()) {
            return Some(self.reject(
                name,
                checkpoint.clone(),
                GuardStage::Structural,
                e.to_string(),
                None,
                None,
            ));
        }

        for (i, baseline) in baselines.iter().enumerate() {
            let Ok(before) = baseline else {
                // The original program faults on this vector (e.g. a
                // divide by zero); semantics after an error are out of
                // scope, skip it.
                continue;
            };
            let after = gospel_exec::run_limited(
                self.session.program(),
                &self.vectors[i],
                self.config.step_limit,
            );
            match after {
                Err(e) => {
                    return Some(self.reject(
                        name,
                        checkpoint.clone(),
                        GuardStage::Translation,
                        format!("transformed program faults: {e}"),
                        Some(i),
                        None,
                    ));
                }
                Ok(after) => {
                    if !before.same_outputs(&after) {
                        let at = before.first_mismatch(&after);
                        let detail = describe_divergence(before, &after, at);
                        return Some(self.reject(
                            name,
                            checkpoint.clone(),
                            GuardStage::Translation,
                            detail,
                            Some(i),
                            at,
                        ));
                    }
                }
            }
        }
        None
    }

    /// Rolls back to `checkpoint`, quarantines when the stage implies the
    /// optimizer is wrong (not merely over budget), and records the
    /// diagnostic.
    fn reject(
        &mut self,
        name: &str,
        checkpoint: Program,
        stage: GuardStage,
        detail: String,
        vector: Option<usize>,
        mismatch_at: Option<usize>,
    ) -> ValidationReport {
        // Trace contract: the validation-failure event always precedes the
        // rollback (and quarantine) events it causes.
        if let Some(r) = self.session.recorder() {
            r.add("guard.validations", 1);
            r.add("guard.rejections", 1);
            let stage_name = stage.to_string();
            let mut fields = vec![
                ("optimizer", Value::str(name.to_string())),
                ("outcome", Value::str("fail")),
                ("stage", Value::str(stage_name.clone())),
                ("detail", Value::str(detail.clone())),
            ];
            if let Some(v) = vector {
                fields.push(("vector", Value::us(v)));
            }
            r.event("guard.validate", fields);
        }
        self.session.restore_program(checkpoint);
        // The checkpoint equals the restored state; keeping it would make
        // rollback(1) a no-op, so drop it.
        self.ring.pop_back();
        if let Some(r) = self.session.recorder() {
            r.add("guard.rollbacks", 1);
            r.event(
                "guard.rollback",
                &[
                    ("optimizer", Value::str(name.to_string())),
                    ("stage", Value::str(stage.to_string())),
                ],
            );
        }
        let quarantined = matches!(
            stage,
            GuardStage::Structural | GuardStage::Translation | GuardStage::Internal
        );
        if quarantined {
            let entry = self
                .quarantine
                .entry(normalize(name))
                .or_insert_with(|| QuarantineEntry {
                    reason: String::new(),
                    offenses: 0,
                    parole_in: 0,
                });
            entry.reason = format!("[{stage}] {detail}");
            entry.offenses += 1;
            entry.parole_in = self.config.parole_after;
            if let Some(r) = self.session.recorder() {
                r.add("guard.quarantines", 1);
                r.event(
                    "guard.quarantine",
                    &[
                        ("optimizer", Value::str(name.to_string())),
                        ("stage", Value::str(stage.to_string())),
                    ],
                );
            }
        }
        let report = ValidationReport {
            optimizer: name.to_string(),
            stage,
            detail,
            vector,
            mismatch_at,
            rolled_back: true,
            quarantined,
        };
        self.reports.push(report.clone());
        report
    }
}

fn normalize(name: &str) -> String {
    name.to_ascii_uppercase()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

fn describe_divergence(before: &Trace, after: &Trace, at: Option<usize>) -> String {
    match at {
        Some(i) => {
            let b = before.outputs.get(i).map(ToString::to_string);
            let a = after.outputs.get(i).map(ToString::to_string);
            match (b, a) {
                (Some(b), Some(a)) => {
                    format!("output {i} diverged: {b} before vs {a} after")
                }
                (Some(b), None) => format!(
                    "transformed program stopped writing at output {i} (expected {b})"
                ),
                (None, Some(a)) => format!("transformed program wrote extra output {i}: {a}"),
                (None, None) => "traces diverged".to_string(),
            }
        }
        None => "traces diverged".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis::{FaultKind, FaultPlan};

    fn compile(src: &str) -> Program {
        gospel_frontend::compile(src).unwrap()
    }

    fn chain_prog() -> Program {
        compile("program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend")
    }

    #[test]
    fn valid_optimizer_passes_both_gates() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "{out:?}");
        assert_eq!(out.applications(), 3);
        assert!(s.reports().is_empty());
        assert_eq!(s.checkpoints(), 1);
    }

    #[test]
    fn unknown_optimizer_is_a_caller_error() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        let err = s.apply("nope", ApplyMode::AllPoints).unwrap_err();
        assert!(matches!(err, RunError::UnknownOptimizer { .. }), "{err}");
        assert_eq!(s.checkpoints(), 0);
    }

    #[test]
    fn user_rollback_restores_earlier_states() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        let original = s.program().clone();
        s.apply("CTP", ApplyMode::AllPoints).unwrap();
        let after_ctp = s.program().clone();
        s.apply("DCE", ApplyMode::AllPoints).unwrap();
        assert_eq!(s.checkpoints(), 2);

        s.rollback(1).unwrap();
        assert!(s.program().structurally_eq(&after_ctp));
        assert_eq!(s.checkpoints(), 1);
        s.rollback(1).unwrap();
        assert!(s.program().structurally_eq(&original));
        assert!(s.rollback(1).is_err());
        assert!(s.rollback(0).is_err());
    }

    #[test]
    fn snapshot_ring_is_bounded() {
        let mut s = GuardedSession::new(
            chain_prog(),
            GuardConfig {
                checkpoints: 2,
                ..GuardConfig::default()
            },
        );
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        s.register(gospel_opts::by_name("CPP"));
        for name in ["CTP", "DCE", "CPP"] {
            s.apply(name, ApplyMode::AllPoints).unwrap();
        }
        assert_eq!(s.checkpoints(), 2);
    }

    #[test]
    fn injected_panic_is_contained_and_quarantines() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic)));
        let before = s.program().clone();
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        let GuardOutcome::Rejected(report) = out else {
            panic!("expected rejection, got {out:?}");
        };
        assert_eq!(report.stage, GuardStage::Internal);
        assert!(report.rolled_back && report.quarantined);
        assert!(s.program().structurally_eq(&before));

        // Quarantined: the next attempt is skipped without running.
        s.set_fault(None);
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");

        // Re-registering lifts the quarantine.
        s.register(gospel_opts::by_name("CTP"));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied());
    }

    /// The stale-automaton hazard: while an optimizer sits in quarantine
    /// it stays registered, so applies of *other* optimizers park a fused
    /// automaton that still covers the quarantined spec's compiled anchor
    /// tests. Re-registering a fixed spec under the same name must void
    /// those states — `SessionCaches::ensure_automaton` only compares
    /// catalog names, so a surviving automaton would keep dispatching the
    /// old anchors and silently suppress every new-spec application.
    #[test]
    fn reregistering_a_quarantined_spec_voids_the_fused_automaton() {
        // v1 anchors on copies (`assign` with a var source); the fixed v2
        // anchors on constants. Same name, disjoint anchor classes.
        let v1 =
            gospel_opts::compile_spec(&gospel_opts::specs::CPP.replace("CPP", "OPT")).unwrap();
        let v2 =
            gospel_opts::compile_spec(&gospel_opts::specs::CTP.replace("CTP", "OPT")).unwrap();
        let v2_audit =
            gospel_opts::compile_spec(&gospel_opts::specs::CTP.replace("CTP", "OPT")).unwrap();

        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(v1);
        s.register(gospel_opts::by_name("DCE"));

        // Quarantine v1 (the rejection rolls back and clears the caches).
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic)));
        let out = s.apply("OPT", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)), "{out:?}");
        s.set_fault(None);

        // A clean DCE apply parks a fresh fused automaton that still
        // compiles the quarantined v1's anchors; the quarantine skip
        // leaves it untouched.
        let out = s.apply("DCE", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "{out:?}");
        let out = s.apply("OPT", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");

        // Re-registering the fixed spec lifts the quarantine and must
        // rebuild the automaton: v2's constant anchors have to dispatch.
        s.register(v2);
        let out = s.apply("OPT", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "{out:?}");
        assert_eq!(
            out.applications(),
            3,
            "stale fused-automaton states suppressed the new spec's anchors"
        );
        let problems = s
            .session()
            .caches()
            .audit(s.program(), &[v2_audit, gospel_opts::by_name("DCE")]);
        assert!(problems.is_empty(), "{problems:?}");
    }

    /// Parole transitions under the fused matcher: the release trial runs
    /// against an automaton parked while the optimizer was quarantined,
    /// and a revoked trial rolls everything back — the cache audit must
    /// stay clean through release, and through revocation.
    #[test]
    fn parole_release_and_revoke_keep_the_fused_automaton_consistent() {
        let config = GuardConfig {
            parole_after: 1,
            ..GuardConfig::default()
        };
        let audit_catalog = [gospel_opts::by_name("CTP"), gospel_opts::by_name("DCE")];

        // Release: quarantine CTP, observe a skip, then let DCE's clean
        // apply park an automaton *and* finish the parole countdown (a
        // clean apply advances every first offender's counter); the trial
        // then runs against that parked automaton.
        let mut s = GuardedSession::new(chain_prog(), config.clone());
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic)));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)), "{out:?}");
        s.set_fault(None);
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");
        s.apply("DCE", ApplyMode::AllPoints).unwrap();
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "parole trial should succeed: {out:?}");
        assert_eq!(out.applications(), 3);
        assert!(s.quarantine_entry("CTP").is_none());
        let problems = s.session().caches().audit(s.program(), &audit_catalog);
        assert!(problems.is_empty(), "after release: {problems:?}");

        // Revoke: same setup, but the trial panics again — permanent
        // quarantine, rolled back, and the caches stay auditable.
        let mut s = GuardedSession::new(chain_prog(), config);
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic)));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)), "{out:?}");
        s.set_fault(None);
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");
        s.apply("DCE", ApplyMode::AllPoints).unwrap();
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic)));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)), "{out:?}");
        s.set_fault(None);
        assert!(s.quarantine_entry("CTP").is_some());
        let problems = s.session().caches().audit(s.program(), &audit_catalog);
        assert!(problems.is_empty(), "after revoke: {problems:?}");
    }

    #[test]
    fn corrupted_commit_is_caught_by_the_structural_gate() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.set_fault(Some(FaultPlan::new(FaultKind::CorruptCommit)));
        let before = s.program().clone();
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        let GuardOutcome::Rejected(report) = out else {
            panic!("expected rejection, got {out:?}");
        };
        assert_eq!(report.stage, GuardStage::Structural);
        assert!(s.program().structurally_eq(&before));
    }

    #[test]
    fn sequence_skips_quarantined_and_continues() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        s.set_fault(Some(
            FaultPlan::new(FaultKind::Panic).for_optimizer("CTP"),
        ));
        let outcomes = s.run_sequence(&["CTP", "DCE", "CTP"]).unwrap();
        assert_eq!(outcomes.len(), 3);
        assert!(matches!(outcomes[0].1, GuardOutcome::Rejected(_)));
        assert!(outcomes[1].1.is_applied(), "{:?}", outcomes[1]);
        assert!(matches!(outcomes[2].1, GuardOutcome::Skipped { .. }));
        assert_eq!(s.reports().len(), 1);
        assert_eq!(s.quarantined().count(), 1);
    }

    #[test]
    fn parole_releases_a_first_offender_after_clean_applies() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic).for_optimizer("CTP")));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)));
        s.set_fault(None);
        let entry = s.quarantine_entry("CTP").unwrap();
        assert_eq!((entry.offenses, entry.parole_in), (1, 3));

        // Not yet eligible: the countdown is still running.
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");

        // Three clean applies of another optimizer earn the trial.
        for _ in 0..3 {
            assert!(s.apply("DCE", ApplyMode::AllPoints).unwrap().is_applied());
        }
        assert_eq!(s.quarantine_entry("CTP").unwrap().parole_in, 0);
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "parole trial should succeed: {out:?}");
        assert_eq!(s.quarantined().count(), 0);
    }

    #[test]
    fn second_offense_makes_quarantine_permanent() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        s.register(gospel_opts::by_name("DCE"));
        // A persistent CTP-only fault: the trial re-offends.
        s.set_fault(Some(FaultPlan::new(FaultKind::Panic).for_optimizer("CTP")));
        s.apply("CTP", ApplyMode::AllPoints).unwrap();
        for _ in 0..3 {
            assert!(s.apply("DCE", ApplyMode::AllPoints).unwrap().is_applied());
        }
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Rejected(_)), "{out:?}");
        let entry = s.quarantine_entry("CTP").unwrap();
        assert_eq!(entry.offenses, 2);
        assert!(!entry.parolable());

        // No amount of clean work earns another trial.
        s.set_fault(None);
        for _ in 0..4 {
            s.apply("DCE", ApplyMode::AllPoints).unwrap();
        }
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(matches!(out, GuardOutcome::Skipped { .. }), "{out:?}");
    }

    #[test]
    fn transient_timeout_gets_one_retry_and_succeeds() {
        use gospel_trace::Recorder;
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        let rec = Arc::new(Recorder::new());
        s.set_recorder(Some(rec.clone()));
        s.register(gospel_opts::by_name("CTP"));
        s.set_fault(Some(FaultPlan::new(FaultKind::Timeout).transient()));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        assert!(out.is_applied(), "retry should recover: {out:?}");
        assert_eq!(out.applications(), 3);
        assert_eq!(rec.counter("guard.transient_retries"), 1);
        assert!(s.reports().is_empty(), "a recovered transient is not a rejection");

        // The per-attempt budget is restored after the retry dance.
        assert_eq!(
            s.session().options().timeout_ms,
            GuardConfig::default().session.timeout_ms
        );
    }

    #[test]
    fn persistent_timeout_still_rejects_after_the_retry() {
        let mut s = GuardedSession::new(chain_prog(), GuardConfig::default());
        s.register(gospel_opts::by_name("CTP"));
        let before = s.program().clone();
        s.set_fault(Some(FaultPlan::new(FaultKind::Timeout)));
        let out = s.apply("CTP", ApplyMode::AllPoints).unwrap();
        let GuardOutcome::Rejected(report) = out else {
            panic!("expected rejection, got {out:?}");
        };
        assert_eq!(report.stage, GuardStage::Resource);
        assert!(!report.quarantined);
        assert!(s.program().structurally_eq(&before));
    }

    #[test]
    fn growth_limit_rolls_back_runaway_expansion() {
        // A pathological spec that copies a statement after itself
        // forever; the growth cap must stop it and restore the program.
        let src = r#"
OPTIMIZATION LOOPY
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  copy(S, S, S2);
END
"#;
        let opt = gospel_opts::compile_spec(src).unwrap();
        let mut s = GuardedSession::new(
            compile("program p\ninteger x\nx = 1\nwrite x\nend"),
            GuardConfig {
                session: SessionOptions {
                    max_growth: Some(4),
                    ..GuardConfig::default().session
                },
                ..GuardConfig::default()
            },
        );
        let before = s.program().clone();
        s.register(opt);
        let out = s.apply("LOOPY", ApplyMode::AllPoints).unwrap();
        let GuardOutcome::Rejected(report) = out else {
            panic!("expected rejection, got {out:?}");
        };
        assert_eq!(report.stage, GuardStage::Resource);
        assert!(!report.quarantined, "budget overruns do not quarantine");
        assert!(s.program().structurally_eq(&before));
    }
}
