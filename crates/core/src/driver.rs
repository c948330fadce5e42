//! The standard driver of Figure 5: search for an application point
//! (`match_OPT`, `pre_OPT`), apply the actions (`act_OPT`), repeat.

use crate::actions::run_actions;
use crate::automaton::FusedAutomaton;
use crate::caches::SessionCaches;
use crate::compile::{CompiledOptimizer, Strategy};
use crate::cost::Cost;
use crate::error::RunError;
use crate::fault::{FaultKind, FaultPlan};
use crate::rt::Bindings;
use crate::session::SessionOptions;
use crate::solve::{SearchTally, Searcher, StrategyLog};
use gospel_dep::{DepGraph, DepUpdate, UpdateKind};
use gospel_ir::{EditDelta, Opcode, Program, Quad, StmtId};
use gospel_trace::{Name, Recorder, Span, Value};
use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt::Display;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Which candidate-enumeration machinery drives the search.
///
/// Both produce identical bindings (the differential suite and the bench
/// cross-checks hold them to it); they differ only in how anchor
/// candidates are enumerated, and the fused matcher degrades to the scan
/// on stale state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// Full program scans — the authoritative baseline and the oracle the
    /// fused matcher is checked against.
    Scan,
    /// The catalog-wide [`FusedAutomaton`]: every registered anchor
    /// clause compiled into one shared trie, one classification pass
    /// admitting all optimizers per statement at once.
    Fused,
}

impl MatcherKind {
    /// Parses the CLI spelling (`fused`/`scan`, case-insensitive).
    pub fn parse(s: &str) -> Option<MatcherKind> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fused" => Some(MatcherKind::Fused),
            "scan" => Some(MatcherKind::Scan),
            _ => None,
        }
    }

    /// The canonical spelling, for traces and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            MatcherKind::Scan => "scan",
            MatcherKind::Fused => "fused",
        }
    }
}

/// How the driver should apply the optimizer (the §3 interface options).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyMode {
    /// Apply at every application point, recomputing dependences between
    /// applications, until none remain.
    AllPoints,
    /// Apply at the first application point only.
    FirstPoint,
    /// Apply once, anchored at the given statement (the first pattern
    /// element — a statement, or a loop's header — must be this point).
    AtPoint(StmtId),
    /// Like [`ApplyMode::AtPoint`] but skipping the `Depend` section —
    /// the paper's "override dependence restrictions" option.
    AtPointUnchecked(StmtId),
}

/// What one [`Driver::apply`] run did.
#[derive(Clone, Debug, Default)]
pub struct ApplyReport {
    /// Number of times the actions ran.
    pub applications: usize,
    /// Accumulated search + transformation cost (the paper's metric).
    pub cost: Cost,
    /// The bindings of each application, in order.
    pub points: Vec<Bindings>,
    /// Dependence-graph refreshes served by the incremental updater.
    pub incremental_updates: usize,
    /// Dependence-graph refreshes that ran a full `analyze` (structural
    /// edits, or `incremental_deps` disabled).
    pub full_recomputes: usize,
    /// Dirty symbols considered across all incremental refreshes.
    pub dep_dirty_syms: usize,
    /// Edges dropped across all incremental refreshes.
    pub dep_edges_dropped: usize,
    /// Edges re-derived (or rebuilt, for full refreshes) across all
    /// dependence-graph refreshes.
    pub dep_edges_added: usize,
    /// Anchor candidates the fused automaton excluded without a visit
    /// (they could never pass the anchor clause's admission tests). Zero
    /// under the scan matcher.
    pub candidates_pruned: u64,
}

/// All application points found by [`Driver::matches`], without applying.
#[derive(Clone, Debug, Default)]
pub struct MatchSet {
    /// One binding per application point, in search order.
    pub bindings: Vec<Bindings>,
    /// Search cost.
    pub cost: Cost,
    /// Which membership strategy each dependence-clause evaluation used.
    pub strategies_used: Vec<Strategy>,
}

/// The driver that runs one compiled optimizer over a program.
#[derive(Clone, Debug)]
pub struct Driver<'o> {
    opt: &'o CompiledOptimizer,
    /// The run's knobs — the same set a [`crate::Session`] applies with.
    pub options: SessionOptions,
    /// Scripted fault to inject at the matching probe point (tests the
    /// recovery machinery around the driver).
    pub fault: Option<FaultPlan>,
    /// Structured-event sink: when set, the driver emits per-attempt
    /// spans, match outcomes, dependence-refresh counters and cost
    /// counters into it. `None` (the default) records nothing.
    pub recorder: Option<Arc<Recorder>>,
}

impl<'o> Driver<'o> {
    /// A driver with the session defaults ([`SessionOptions::default`]):
    /// recompute dependences, generous application budget, no resource
    /// limits.
    pub fn new(opt: &'o CompiledOptimizer) -> Driver<'o> {
        Driver {
            opt,
            options: SessionOptions::default(),
            fault: None,
            recorder: None,
        }
    }

    /// True when the configured fault plan fires at this probe.
    fn fault_fires(&self, kind: FaultKind, application: usize) -> bool {
        self.fault
            .as_ref()
            .is_some_and(|p| p.fires(kind, &self.opt.name, application))
    }

    /// The optimizer this driver runs.
    pub fn optimizer(&self) -> &CompiledOptimizer {
        self.opt
    }

    /// Lists every application point in the current program without
    /// transforming anything.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Analyze`] if the program fails dependence
    /// analysis.
    pub fn matches(&self, prog: &Program) -> Result<MatchSet, RunError> {
        let deps = analyze(prog)?;
        self.matches_with(prog, &deps)
    }

    /// Like [`Driver::matches`] but reusing an already-computed dependence
    /// graph — callers that maintain one incrementally (or know the program
    /// has not changed since the last analysis) skip the re-`analyze`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the search fails (e.g. a malformed
    /// dependence atom).
    pub fn matches_with(&self, prog: &Program, deps: &DepGraph) -> Result<MatchSet, RunError> {
        let mut s = Searcher::with_verdicts(prog, deps, self.opt, StrategyLog::default());
        let bindings = s.find_all(usize::MAX)?;
        Ok(MatchSet {
            bindings,
            cost: s.tally.cost,
            strategies_used: s.verdicts.0,
        })
    }

    /// Runs the optimizer per `mode`, transforming `prog` in place.
    ///
    /// # Errors
    ///
    /// [`RunError::Analyze`] for malformed programs, [`RunError::Action`]
    /// for action failures, [`RunError::Diverged`] when `AllPoints`
    /// exceeds the application budget, and [`RunError::Timeout`] /
    /// [`RunError::FuelExhausted`] / [`RunError::GrowthLimit`] when a
    /// configured resource budget runs out (the program is left at the
    /// last committed application — callers wanting atomicity snapshot
    /// first, as `GuardedSession` does).
    pub fn apply(&mut self, prog: &mut Program, mode: ApplyMode) -> Result<ApplyReport, RunError> {
        let mut caches = SessionCaches::new();
        self.apply_with(prog, mode, &mut caches)
    }

    /// The full cached-state entry point: runs the optimizer per `mode`
    /// while reusing *and maintaining* the session search state in
    /// `caches` — the dependence graph and the fused automaton. Each
    /// committed delta is replayed into both; any exit that cannot argue
    /// a structure's consistency drops it instead of publishing it back.
    ///
    /// On entry a carried dependence graph must describe `prog` exactly
    /// as a fresh [`DepGraph::analyze`] would. On success `caches.deps`
    /// holds the final program's graph whenever the driver kept it
    /// current; it is left `None` after a run with `recompute_deps` off,
    /// after a one-shot mode without incremental maintenance, and on any
    /// error.
    ///
    /// # Errors
    ///
    /// Same as [`Driver::apply`].
    pub fn apply_with(
        &mut self,
        prog: &mut Program,
        mode: ApplyMode,
        caches: &mut SessionCaches,
    ) -> Result<ApplyReport, RunError> {
        let opts = self.options;
        // The growth cap: a multiple of the statement count on entry.
        let growth_cap = opts
            .max_growth
            .map(|k| (k as usize).saturating_mul(prog.len().max(1)));
        let rec = self.recorder.clone();
        let mut totals = RunTotals::default();
        totals.recorder = rec.clone().map(|r| (r, self.opt));
        let started = Instant::now();
        if self.fault_fires(FaultKind::Analysis, 0) {
            return Err(RunError::Analyze("injected fault: analysis failure".into()));
        }
        let mut deps = match caches.deps.take() {
            Some(g) => g,
            None => {
                let t = Instant::now();
                let g = analyze(prog)?;
                totals.analyze_initial += 1;
                if let Some(r) = rec.as_ref() {
                    r.observe("dep.analyze_ns", ns_since(t));
                }
                g
            }
        };
        // Whether `deps` still describes `prog` when the loop exits.
        let mut current = true;
        // Earliest statement the next search must reconsider; `None` means
        // scan from the top. Set from the incremental updater's dirty
        // frontier after each committed application.
        let mut resume_pt: Option<StmtId> = None;
        // The fused automaton: adopted from the session (which builds it
        // over the whole catalog) or built here over just this optimizer
        // for the standalone-driver case. Posting order comes from
        // `deps.order_of`, so the automaton is only consulted while
        // `recompute_deps` keeps that order fresh — a stale order
        // discovered mid-posting degrades to the scan
        // (`search.degraded.stale_order`). A session-carried automaton is
        // kept fresh by delta replay even under the scan matcher, so it
        // never silently goes stale for the next fused apply.
        let use_fused = opts.matcher == MatcherKind::Fused && opts.recompute_deps;
        let mut auto = match caches.automaton.take() {
            Some(a) => Some(a),
            None => use_fused.then(|| {
                let span = Span::open(rec.as_ref(), "automaton.build", &[]);
                let a = FusedAutomaton::build(std::slice::from_ref(self.opt), prog);
                span.close(&[("states", Value::us(a.states()))]);
                a
            }),
        };
        let fused_id = if use_fused {
            auto.as_ref().and_then(|a| a.opt_id(&self.opt.name))
        } else {
            None
        };
        if let Some(a) = auto.as_mut() {
            totals.automaton_stats(a);
        }

        loop {
            let applications = totals.points.len();
            if let Some(ms) = opts.timeout_ms {
                if started.elapsed().as_millis() as u64 > ms {
                    return Err(RunError::Timeout { ms });
                }
            }
            if self.fault_fires(FaultKind::Timeout, applications) {
                return Err(RunError::Timeout {
                    ms: opts.timeout_ms.unwrap_or(0),
                });
            }
            if self.fault_fires(FaultKind::Fuel, applications) {
                return Err(RunError::FuelExhausted {
                    limit: opts.fuel.unwrap_or(0),
                });
            }
            if self.fault_fires(FaultKind::Panic, applications) {
                panic!("injected fault: panic mid-search");
            }

            totals.attempts += 1;
            // Sampling controller: 1-in-N attempts on the recorder get a
            // span, events and timing observations, the latter weighted
            // by N; the rest stay completely silent in the event stream.
            // Counter totals are unaffected — they flush through
            // `RunTotals`.
            let sample = opts.trace_sample.max(1);
            let attempt_rec = rec.as_ref().filter(|r| r.sample(sample));
            let sampled = attempt_rec.is_some();
            // The span closes on every exit from this iteration: explicitly
            // on the applied/fixpoint paths, via its drop guard on the
            // error returns below.
            let attempt_span = match attempt_rec {
                Some(r) => Span::open(
                    Some(r),
                    "driver.attempt",
                    [
                        ("optimizer", Value::str(TraceNames::of(self.opt).opt)),
                        ("application", Value::us(applications)),
                    ],
                ),
                None => Span::none(),
            };

            let search_started = Instant::now();
            let pattern_ns_before = totals.search.pattern_ns;
            let found = {
                // One search pass over the anchors the two filters admit,
                // its tally added to the run ledger.
                let mut pass = |resume_from, stop_before| {
                    let mut s = Searcher::new(prog, &deps, self.opt);
                    match mode {
                        ApplyMode::AtPoint(p) => s.at_point = Some(p),
                        ApplyMode::AtPointUnchecked(p) => {
                            s.at_point = Some(p);
                            s.ignore_depends = true;
                        }
                        _ => {}
                    }
                    s.resume_from = resume_from;
                    s.stop_before = stop_before;
                    s.fused = fused_id.and_then(|id| auto.as_ref().map(|a| (a, id)));
                    s.time_pattern = sampled;
                    let found = s.find_first()?;
                    totals.search.add(&s.tally);
                    Ok::<_, RunError>(found)
                };
                let found = pass(resume_pt, None)?;
                if found.is_none() && resume_pt.is_some() {
                    // Safety net: the frontier filter only rescans anchors
                    // at or after the dirty frontier, but a pattern with
                    // dependence-free later elements can gain a match at
                    // an earlier anchor. Before declaring a fixpoint,
                    // sweep the complement — the two passes together
                    // cover every anchor exactly once.
                    pass(None, resume_pt)?
                } else {
                    found
                }
            };
            let pattern_ns = totals.search.pattern_ns - pattern_ns_before;
            // `search.match` is emitted only for successful matches — a
            // failed search is already explicit in the attempt span's
            // `fixpoint` close, and the extra event would double the
            // per-attempt stream for no information. Sampled-out
            // attempts skip the whole block; sampled-in observations
            // carry weight N so the histograms stay unbiased.
            let search_ns = ns_since(search_started);
            if let Some(r) = attempt_rec {
                r.observe_n("driver.search_ns", search_ns, sample);
                r.observe_n("driver.pattern_ns", pattern_ns, sample);
                if let Some(env) = found.as_ref() {
                    let mut fields = Vec::with_capacity(4);
                    fields.extend([
                        (
                            "optimizer",
                            Value::str(TraceNames::of(self.opt).opt),
                        ),
                        ("outcome", Value::str("found")),
                        ("resumed", Value::b(resume_pt.is_some())),
                    ]);
                    if let Some(a) = anchor_of(self.opt, env) {
                        fields.push(("anchor", Value::str(a)));
                    }
                    r.event("search.match", fields);
                }
            }
            if let Some(fuel) = opts.fuel {
                if totals.search.cost.total() > fuel {
                    return Err(RunError::FuelExhausted { limit: fuel });
                }
            }

            let Some(mut env) = found else {
                if sampled {
                    // Room for `sample` and the close's `elapsed_ns`.
                    let mut fields = Vec::with_capacity(5);
                    fields.extend([
                        ("outcome", Value::str("fixpoint")),
                        ("search_ns", Value::u(search_ns)),
                        ("pattern_ns", Value::u(pattern_ns)),
                    ]);
                    if sample > 1 {
                        fields.push(("sample", Value::u(sample)));
                    }
                    attempt_span.close(fields);
                }
                break;
            };

            if self.fault_fires(FaultKind::Action, applications) {
                return Err(RunError::Action("injected fault: action failure".into()));
            }

            // Actions run in place, journaled into an edit delta; a
            // mid-action failure unwinds the journal, so a failed
            // application can never leave a half-transformed program.
            // Panics get the same treatment: without the catch_unwind the
            // in-flight journal would be dropped un-replayed and a panic
            // caught further out (GuardedSession) would observe a
            // half-transformed program.
            let actions_started = Instant::now();
            let mut delta = EditDelta::new();
            let panic_after_actions = self.fault_fires(FaultKind::PanicInAction, applications);
            debug_assert!(
                env.is_over(&self.opt.names),
                "bindings from another optimizer"
            );
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                let r = run_actions(prog, deps.loops(), &mut env, &self.opt.acts, &mut delta);
                if r.is_ok() && panic_after_actions {
                    panic!("injected fault: panic mid-action");
                }
                r
            }));
            // A failed application is unwound, counted and recorded
            // before its error or panic propagates.
            let mut rollback = |delta: EditDelta, prog: &mut Program, error: &dyn Display| {
                delta.undo(prog);
                totals.action_rollbacks += 1;
                if let Some(r) = rec.as_ref() {
                    r.event(
                        "driver.action_rollback",
                        &[
                            ("optimizer", Value::str(self.opt.name.clone())),
                            ("error", Value::str(error.to_string())),
                        ],
                    );
                }
            };
            let ops = match attempt {
                Ok(Ok(ops)) => ops,
                Ok(Err(e)) => {
                    rollback(delta, prog, &e);
                    return Err(e);
                }
                Err(payload) => {
                    rollback(delta, prog, &"panic");
                    drop(attempt_span);
                    resume_unwind(payload);
                }
            };
            if let Some(r) = attempt_rec {
                r.observe_n("driver.actions_ns", ns_since(actions_started), sample);
            }
            let corrupted = self.fault_fires(FaultKind::CorruptCommit, applications);
            if corrupted {
                // An unmatched marker makes the commit structurally
                // invalid — exactly what a validation gate must catch.
                prog.push(Quad::marker(Opcode::EndDo));
            }
            totals.search.cost.transform_ops += ops;
            totals.points.push(env);
            let applications = totals.points.len();
            if sampled {
                // Room for `sample` and the close's `elapsed_ns`.
                let mut fields = Vec::with_capacity(7);
                fields.extend([
                    ("outcome", Value::str("applied")),
                    ("ops", Value::u(ops)),
                    ("stmts", Value::us(prog.len())),
                    ("search_ns", Value::u(search_ns)),
                    ("pattern_ns", Value::u(pattern_ns)),
                ]);
                if sample > 1 {
                    fields.push(("sample", Value::u(sample)));
                }
                attempt_span.close(fields);
            }
            if corrupted {
                // Return "success" with the bad commit in place: the fault
                // models corruption the driver itself does not notice, so
                // it must escape this loop for an outer gate to catch. The
                // unjournaled edit broke every cache's delta-replay
                // argument, so none of them may survive.
                caches.clear();
                return Ok(totals.report());
            }

            if let Some(cap) = growth_cap {
                if prog.len() > cap {
                    return Err(RunError::GrowthLimit {
                        statements: prog.len(),
                        limit: cap,
                    });
                }
            }

            // Replay the committed delta into the automaton — same
            // journal, same O(|delta|) contract as `DepGraph::update`.
            if !delta.is_empty() {
                if let Some(a) = auto.as_mut() {
                    let update_started = attempt_rec.map(|r| (r, Instant::now()));
                    a.update(prog, &delta);
                    totals.automaton_stats(a);
                    if let Some((r, t)) = update_started {
                        r.observe_n("automaton.update_ns", ns_since(t), sample);
                    }
                }
            }

            let one_shot = !matches!(mode, ApplyMode::AllPoints);
            if !one_shot && applications >= opts.max_applications {
                return Err(RunError::Diverged {
                    limit: opts.max_applications,
                });
            }
            if !opts.recompute_deps {
                // Stale-graph mode: positions in the old graph no longer
                // track the program, so never filter the next search.
                current = false;
                resume_pt = None;
            } else {
                if delta.is_empty() {
                    // Zero-edit application: the program is untouched, so
                    // the graph is still exact — skip the refresh entirely.
                    resume_pt = None;
                } else if opts.incremental_deps {
                    // Probe: a "missed invalidation" — the refresh below is
                    // silently skipped, leaving the graph stale. Only the
                    // verifier (or a later healing full analysis) can
                    // restore exactness, so the graph is unpublishable
                    // until one of them runs.
                    let skip_update =
                        self.fault_fires(FaultKind::CorruptDeps, applications.saturating_sub(1));
                    if skip_update {
                        current = false;
                        resume_pt = None;
                    } else {
                        // An update fails only on a malformed program,
                        // which a full analysis would reject alike.
                        let update_started = Instant::now();
                        let up = deps
                            .update(prog, &delta)
                            .map_err(|e| RunError::Analyze(e.to_string()))?;
                        totals.dep_update(&up);
                        if let Some(r) = attempt_rec {
                            r.observe_n("dep.update_ns", ns_since(update_started), sample);
                            // Sized for every field up front; the frontier
                            // is its statement index, so nothing is
                            // formatted.
                            let mut fields = Vec::with_capacity(5);
                            fields.extend([
                                ("kind", Value::str(update_kind_name(up.kind))),
                                ("dirty_syms", Value::us(up.stats.dirty_syms)),
                                ("edges_dropped", Value::us(up.stats.edges_dropped)),
                                ("edges_added", Value::us(up.stats.edges_added)),
                            ]);
                            if let Some(f) = up.frontier {
                                fields.push(("frontier", Value::us(f.index())));
                            }
                            r.event("dep.update", fields);
                        }
                        resume_pt = up.frontier;
                    }
                    if opts.verify_deps {
                        let fresh = analyze(prog)?;
                        let ok = deps.agrees_with(&fresh);
                        if let Some(r) = rec.as_ref() {
                            r.event("dep.verify", &[("ok", Value::b(ok))]);
                        }
                        if ok {
                            // Verified exact — even a skipped refresh turned
                            // out to have no dependence effect.
                            current = true;
                        } else if opts.degraded_recovery {
                            // Ladder: adopt the fresh graph and rebuild
                            // the automaton, whose delta-replay argument
                            // the divergence just voided.
                            totals.degraded_divergence += 1;
                            if let Some(r) = rec.as_ref() {
                                r.event(
                                    "search.degraded",
                                    &[
                                        ("optimizer", Value::str(self.opt.name.clone())),
                                        ("reason", Value::str("dep_divergence")),
                                        ("application", Value::us(applications)),
                                    ],
                                );
                            }
                            deps = fresh;
                            resume_pt = None;
                            current = true;
                            if let Some(a) = auto.as_mut() {
                                a.reclassify(prog);
                                totals.automaton_stats(a);
                            }
                        } else {
                            return Err(RunError::Analyze(format!(
                                "incremental dependence graph diverged from full \
                                 analysis after application {} of {}: {}",
                                applications,
                                self.opt.name,
                                first_divergence(&deps, &fresh, prog)
                            )));
                        }
                    }
                } else if one_shot {
                    // Full-recompute one-shot: the refreshed graph would
                    // never be searched again; skip the wasted analysis.
                    current = false;
                } else {
                    // A full re-analysis in place of a refresh: the ledger
                    // counts it and the next search scans from the top.
                    let t = Instant::now();
                    deps = analyze(prog)?;
                    totals.reanalyses += 1;
                    if let Some(r) = attempt_rec {
                        r.observe_n("dep.analyze_ns", ns_since(t), sample);
                    }
                    resume_pt = None;
                }
            }
            if one_shot {
                break;
            }
        }
        if current {
            caches.deps = Some(deps);
        }
        // The automaton saw every committed delta replayed into it (and is
        // reclassified outright when the ladder voids the replay
        // argument), so it is exact for the final program even when the
        // dependence graph is not.
        caches.automaton = auto.take();
        Ok(totals.report())
    }
}

fn analyze(prog: &Program) -> Result<DepGraph, RunError> {
    DepGraph::analyze(prog).map_err(|e| RunError::Analyze(e.to_string()))
}

/// Names where an incrementally maintained graph first departs from a
/// fresh analysis: the first edge (in canonical order) on which the two
/// edge lists differ, or the loop tables when the edges agree.
fn first_divergence(incremental: &DepGraph, full: &DepGraph, prog: &Program) -> String {
    let (inc, fresh) = (incremental.edges(), full.edges());
    let at = inc
        .iter()
        .zip(fresh)
        .position(|(a, b)| a != b)
        .unwrap_or(inc.len().min(fresh.len()));
    let show = |e: Option<&gospel_dep::DepEdge>| {
        e.map_or_else(|| "none".to_string(), |e| e.line(prog.syms()))
    };
    if at == inc.len() && at == fresh.len() {
        "the edges agree; the loop tables differ".to_string()
    } else {
        format!(
            "first differing edge #{at}: incremental [{}], full [{}]",
            show(inc.get(at)),
            show(fresh.get(at))
        )
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `kind` field of a `dep.update` event.
fn update_kind_name(kind: UpdateKind) -> &'static str {
    match kind {
        UpdateKind::Full => "full",
        UpdateKind::Incremental => "incremental",
        UpdateKind::Structural => "structural",
        UpdateKind::Noop => "noop",
    }
}

/// The anchor of a found binding: the value bound to the first pattern
/// clause's first variable, rendered for the trace.
fn anchor_of(opt: &CompiledOptimizer, env: &Bindings) -> Option<String> {
    let (clause, _) = opt.patterns.first()?;
    let var = clause.vars.first()?;
    let val = env.get(var)?;
    Some(match val {
        crate::rt::RtVal::Stmt(s) => s.to_string(),
        other => format!("{other:?}"),
    })
}

/// The funnel phases, in pipeline order, as they appear in
/// `funnel.<OPT>.<phase>` counter names.
const FUNNEL_PHASES: [&str; 6] = [
    "classified",
    "admitted",
    "matched",
    "dep_checked",
    "applied",
    "rolled_back",
];

/// The optimizer-specific strings a traced run records: its name and
/// its counter names. Rendering them was most of a run-end flush's
/// cost, so each [`CompiledOptimizer`] renders them once and every later
/// run shares them. They are interned as literals ([`intern`]): a
/// literal name is recorded by copying it, where a reference-counted
/// one would cost an atomic increment per event.
#[derive(Clone, Debug)]
pub(crate) struct TraceNames {
    opt: &'static str,
    funnel: [&'static str; 6],
    fused_dispatched: &'static str,
    dep_reject: Vec<&'static str>,
}

impl TraceNames {
    fn new(opt: &CompiledOptimizer) -> TraceNames {
        let name = &opt.name;
        TraceNames {
            opt: intern(name.clone()),
            funnel: FUNNEL_PHASES.map(|phase| intern(format!("funnel.{name}.{phase}"))),
            fused_dispatched: intern(format!("search.fused.dispatched.{name}")),
            dep_reject: (0..opt.depends.len())
                .map(|i| dep_reject_name(name, i))
                .collect(),
        }
    }

    /// `opt`'s names: the rendered set, unless the optimizer was renamed
    /// after it was rendered.
    fn of(opt: &CompiledOptimizer) -> Cow<'_, TraceNames> {
        let names = opt.trace_names.get_or_init(|| TraceNames::new(opt));
        if names.opt == opt.name {
            Cow::Borrowed(names)
        } else {
            Cow::Owned(TraceNames::new(opt))
        }
    }

    fn dep_reject(&self, clause: usize) -> &'static str {
        match self.dep_reject.get(clause) {
            Some(n) => n,
            None => dep_reject_name(self.opt, clause),
        }
    }
}

fn dep_reject_name(opt: &str, clause: usize) -> &'static str {
    intern(format!("search.dep_reject.{opt}.clause{clause}"))
}

/// The process-wide copy of `s`, leaked on first use. Each distinct
/// trace name is allocated once, so the leak is bounded by the distinct
/// optimizer names a process traces.
fn intern(s: String) -> &'static str {
    static NAMES: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut names = NAMES
        .get_or_init(Mutex::default)
        .lock()
        .unwrap_or_else(|p| p.into_inner());
    if let Some(&name) = names.get(s.as_str()) {
        return name;
    }
    let name: &'static str = Box::leak(s.into_boxed_str());
    names.insert(name);
    name
}

/// The run ledger: every count one `apply` run makes, each recorded
/// once. The [`ApplyReport`] is built from it when the run succeeds, and
/// it is flushed to the recorder in a single batch when the run ends —
/// on *every* exit path, including `?` returns and panics, because the
/// flush lives in `Drop`. Keeping the hot loop out of the recorder lock
/// bounds tracing overhead to the spans and structured events that
/// genuinely need per-attempt timestamps.
#[derive(Default)]
struct RunTotals<'o> {
    /// Where the flush goes; `None` once flushed, or for an untraced run.
    recorder: Option<(Arc<Recorder>, &'o CompiledOptimizer)>,
    /// Every search pass's tally, summed. Its `cost.transform_ops` also
    /// counts the actions' primitives, making `cost` the paper's metric.
    search: SearchTally,
    /// The bindings of each application, in order; its length is the
    /// application count.
    points: Vec<Bindings>,
    attempts: u64,
    action_rollbacks: u64,
    /// The analysis a run without a carried graph starts from.
    analyze_initial: u64,
    /// Full analyses that replaced a refresh mid-run.
    reanalyses: u64,
    update_full: u64,
    update_incremental: u64,
    update_structural: u64,
    update_noop: u64,
    dirty_syms: u64,
    edges_dropped: u64,
    edges_added: u64,
    fused_states: u64,
    fused_visits: u64,
    degraded_divergence: u64,
}

impl RunTotals<'_> {
    /// Counts one incremental dependence refresh.
    fn dep_update(&mut self, up: &DepUpdate) {
        *match up.kind {
            UpdateKind::Full => &mut self.update_full,
            UpdateKind::Incremental => &mut self.update_incremental,
            UpdateKind::Structural => &mut self.update_structural,
            UpdateKind::Noop => &mut self.update_noop,
        } += 1;
        self.dirty_syms += up.stats.dirty_syms as u64;
        self.edges_dropped += up.stats.edges_dropped as u64;
        self.edges_added += up.stats.edges_added as u64;
    }

    /// Takes the automaton's work counts since it was last asked.
    fn automaton_stats(&mut self, auto: &mut FusedAutomaton) {
        let (states, visits) = auto.take_stats();
        self.fused_states += states;
        self.fused_visits += visits;
    }

    /// Flushes the ledger and turns it into the run's report. The
    /// initial analysis is not a recompute: `full_recomputes` counts
    /// only the refreshes that ran a full analysis.
    fn report(mut self) -> ApplyReport {
        self.flush();
        ApplyReport {
            applications: self.points.len(),
            cost: self.search.cost,
            points: std::mem::take(&mut self.points),
            incremental_updates: (self.update_incremental
                + self.update_structural
                + self.update_noop) as usize,
            full_recomputes: (self.update_full + self.reanalyses) as usize,
            dep_dirty_syms: self.dirty_syms as usize,
            dep_edges_dropped: self.edges_dropped as usize,
            dep_edges_added: self.edges_added as usize,
            candidates_pruned: self.search.candidates_pruned,
        }
    }

    /// Records the ledger's counters (zero counts skipped) and the run's
    /// funnel event, once.
    fn flush(&mut self) {
        let Some((rec, opt)) = self.recorder.take() else {
            return;
        };
        let names = TraceNames::of(opt);
        let search = &self.search;
        let applications = self.points.len() as u64;
        // Streamed into the recorder under one lock, in a fixed order,
        // after the funnel event; zero counts are skipped. The pairs are
        // gathered into one buffer first, which the recorder copies into
        // its events with a single `extend` (measurably cheaper than
        // pulling them through a chain of filtering iterators under the
        // lock).
        let fixed = [
            ("driver.attempts", self.attempts),
            ("driver.applications", applications),
            ("driver.action_rollbacks", self.action_rollbacks),
            ("cost.pattern_checks", search.cost.pattern_checks),
            ("cost.dep_checks", search.cost.dep_checks),
            ("cost.anchor_visits", search.cost.anchor_visits),
            ("cost.transform_ops", search.cost.transform_ops),
            ("dep.analyze.full", self.analyze_initial + self.reanalyses),
            ("dep.update.full", self.update_full),
            ("dep.update.incremental", self.update_incremental),
            ("dep.update.structural", self.update_structural),
            ("dep.update.noop", self.update_noop),
            ("dep.update.edges_dropped", self.edges_dropped),
            ("dep.update.edges_added", self.edges_added),
            ("search.dep_reject", search.dep_rejects.iter().sum()),
            ("search.candidates_pruned", search.candidates_pruned),
            ("search.fused.states", self.fused_states),
            ("search.fused.visits", self.fused_visits),
            ("search.degraded.stale_order", search.degraded_stale_order),
            ("search.degraded.dep_divergence", self.degraded_divergence),
        ];
        let mut items: Vec<(Name, u64)> =
            Vec::with_capacity(names.funnel.len() + fixed.len() + 1 + search.dep_rejects.len());
        if search.funnel_classified > 0 {
            let funnel_counts = [
                search.funnel_classified,
                search.funnel_admitted,
                search.funnel_matched,
                search.funnel_dep_checked,
                applications,
                self.action_rollbacks,
            ];
            for (name, n) in names.funnel.into_iter().zip(funnel_counts) {
                if n > 0 {
                    items.push((Name::Static(name), n));
                }
            }
        }
        for (name, n) in fixed {
            if n > 0 {
                items.push((Name::Static(name), n));
            }
        }
        if search.fused_dispatched > 0 {
            items.push((
                Name::Static(names.fused_dispatched),
                search.fused_dispatched,
            ));
        }
        for (i, &n) in search.dep_rejects.iter().enumerate() {
            if n > 0 {
                items.push((Name::Static(names.dep_reject(i)), n));
            }
        }
        if search.funnel_classified > 0 {
            // One structured funnel event per run: the whole
            // classified → admitted → matched → dep-checked →
            // applied/rolled-back pipeline in a single record, so the
            // report engine and the explain narrative need no counter
            // joins. The per-phase counters carry the same totals for
            // metric consumers.
            let funnel = [
                ("optimizer", Value::str(names.opt)),
                ("classified", Value::u(search.funnel_classified)),
                ("admitted", Value::u(search.funnel_admitted)),
                ("matched", Value::u(search.funnel_matched)),
                ("dep_checked", Value::u(search.funnel_dep_checked)),
                ("applied", Value::u(applications)),
                ("rolled_back", Value::u(self.action_rollbacks)),
            ];
            rec.event_and_add_many("search.funnel", funnel, items);
        } else {
            rec.add_many(items);
        }
    }
}

impl Drop for RunTotals<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use gospel_frontend::compile as minifor;
    use gospel_ir::{DisplayProgram, Operand};

    fn ctp() -> CompiledOptimizer {
        let (spec, info) = gospel_lang::parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        generate(spec, info).unwrap()
    }

    #[test]
    fn ctp_propagates_a_constant() {
        let mut prog = minifor(
            "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let report = d.apply(&mut prog, ApplyMode::AllPoints).unwrap();
        // two points: x into `y = x`, then the new constant y into `write y`
        assert_eq!(report.applications, 2);
        let y_stmt = prog.iter().nth(1).unwrap();
        assert_eq!(prog.quad(y_stmt).a, Operand::int(3));
        let w_stmt = prog.iter().nth(2).unwrap();
        assert_eq!(prog.quad(w_stmt).a, Operand::int(3));
        assert!(report.cost.total() > 0);
    }

    #[test]
    fn ctp_blocked_by_second_definition() {
        // two defs of x reach the use: no propagation
        let mut prog = minifor(
            "program p\ninteger x, y, c\nx = 3\nif (c > 0) then\nx = 4\nend if\ny = x\nwrite y\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let report = d.apply(&mut prog, ApplyMode::AllPoints).unwrap();
        // The only possible propagations are blocked (both defs reach y=x).
        let listing = DisplayProgram(&prog).to_string();
        assert!(listing.contains("y := x"), "{listing}");
        assert_eq!(report.applications, 0);
    }

    #[test]
    fn ctp_cascades_through_copies() {
        // x = 3; y = x; z = y; write z — three applications (the chain
        // y, then z, then the write).
        let mut prog = minifor(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let report = d.apply(&mut prog, ApplyMode::AllPoints).unwrap();
        assert_eq!(report.applications, 3);
        let z_stmt = prog.iter().nth(2).unwrap();
        assert_eq!(prog.quad(z_stmt).a, Operand::int(3));
    }

    #[test]
    fn first_point_applies_once() {
        let mut prog = minifor(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let report = d.apply(&mut prog, ApplyMode::FirstPoint).unwrap();
        assert_eq!(report.applications, 1);
    }

    #[test]
    fn at_point_restricts_anchor() {
        let mut prog = minifor(
            "program p\ninteger x, y, a, b\nx = 3\na = 5\ny = x\nb = a\nwrite y\nwrite b\nend",
        )
        .unwrap();
        let a_def = prog.iter().nth(1).unwrap(); // a = 5
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let report = d.apply(&mut prog, ApplyMode::AtPoint(a_def)).unwrap();
        assert_eq!(report.applications, 1);
        // only b = a was rewritten
        let b_stmt = prog.iter().nth(3).unwrap();
        assert_eq!(prog.quad(b_stmt).a, Operand::int(5));
        let y_stmt = prog.iter().nth(2).unwrap();
        assert_ne!(prog.quad(y_stmt).a, Operand::int(3));
    }

    #[test]
    fn divergence_error_names_the_first_differing_edge() {
        // A skipped refresh with the verifier on and no degradation
        // ladder: the run stops, and the error says where the stale graph
        // departs from a fresh analysis.
        let mut prog =
            minifor("program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend").unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        d.options.verify_deps = true;
        d.options.degraded_recovery = false;
        d.fault = Some(FaultPlan::new(FaultKind::CorruptDeps));
        let err = d
            .apply(&mut prog, ApplyMode::AllPoints)
            .unwrap_err()
            .to_string();
        assert!(err.contains("first differing edge #"), "{err}");
        assert!(err.contains("flow_dep"), "{err}");
    }

    #[test]
    fn matches_lists_without_applying() {
        let prog = minifor(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let opt = ctp();
        let d = Driver::new(&opt);
        let ms = d.matches(&prog).unwrap();
        // before any transformation, only x=3 → y=x is a valid point
        assert_eq!(ms.bindings.len(), 1);
        let listing = DisplayProgram(&prog).to_string();
        assert!(listing.contains("y := x"), "unchanged: {listing}");
    }

    #[test]
    fn incremental_resume_visits_fewer_anchors_than_restart() {
        // A cascade with work spread across the program: after each commit
        // the incremental driver resumes from the dirty frontier instead of
        // restarting at the top, so it must reach the same fixpoint (same
        // program, same application count) with strictly fewer first-clause
        // anchor visits than the full-restart driver.
        let src = "program p\ninteger x, y, z, w\nx = 3\ny = x\nz = y\nw = z\nwrite w\nend";
        let opt = ctp();

        let mut full_prog = minifor(src).unwrap();
        let mut d = Driver::new(&opt);
        d.options.incremental_deps = false;
        let full = d.apply(&mut full_prog, ApplyMode::AllPoints).unwrap();

        let mut incr_prog = minifor(src).unwrap();
        let mut d = Driver::new(&opt);
        d.options.incremental_deps = true;
        let incr = d.apply(&mut incr_prog, ApplyMode::AllPoints).unwrap();

        assert_eq!(full.applications, incr.applications);
        assert_eq!(
            DisplayProgram(&full_prog).to_string(),
            DisplayProgram(&incr_prog).to_string()
        );
        assert_eq!(full.incremental_updates, 0);
        assert!(incr.incremental_updates > 0);
        assert!(
            incr.cost.anchor_visits < full.cost.anchor_visits,
            "resume should revisit fewer anchors: incremental {} vs full {}",
            incr.cost.anchor_visits,
            full.cost.anchor_visits
        );
    }

    #[test]
    fn panic_mid_action_unwinds_the_journal() {
        // A panic after the actions have journaled edits must not leak the
        // half-transformed program: the driver replays the undo log before
        // letting the panic propagate.
        let src = "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend";
        let mut prog = minifor(src).unwrap();
        let before = DisplayProgram(&prog).to_string();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        d.fault = Some(
            crate::fault::FaultPlan::new(crate::fault::FaultKind::PanicInAction),
        );
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = d.apply(&mut prog, ApplyMode::AllPoints);
        }));
        std::panic::set_hook(hook);
        assert!(outcome.is_err(), "the injected panic must propagate");
        assert_eq!(
            DisplayProgram(&prog).to_string(),
            before,
            "the in-flight journal must be replayed before the panic escapes"
        );
    }

    #[test]
    fn recorder_sees_attempts_and_balanced_spans() {
        let mut prog = minifor(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        let rec = std::sync::Arc::new(gospel_trace::Recorder::new());
        d.recorder = Some(rec.clone());
        let report = d.apply(&mut prog, ApplyMode::AllPoints).unwrap();
        assert_eq!(rec.open_spans(), 0, "every attempt span must close");
        assert_eq!(
            rec.counter("driver.applications"),
            report.applications as u64
        );
        // attempts = applications + the final fixpoint probe
        assert_eq!(
            rec.counter("driver.attempts"),
            report.applications as u64 + 1
        );
        let events = rec.drain_events();
        assert!(events.iter().any(|e| e.name == "search.match"));
        assert!(events.iter().any(|e| e.name == "dep.update"));
    }

    #[test]
    fn sampled_out_attempts_record_only_counters() {
        // One attempt in 100 sampled: only the fresh recorder's first
        // attempt (which applies) records its span, events and timings,
        // the timings weighted by 100; counters stay exact.
        let mut prog = minifor(
            "program p\ninteger x, y, z\nx = 3\ny = x\nz = y\nwrite z\nend",
        )
        .unwrap();
        let opt = ctp();
        let mut d = Driver::new(&opt);
        d.options.incremental_deps = true;
        d.options.trace_sample = 100;
        let rec = std::sync::Arc::new(gospel_trace::Recorder::new());
        d.recorder = Some(rec.clone());
        let report = d.apply(&mut prog, ApplyMode::AllPoints).unwrap();
        assert!(report.applications > 1);
        assert_eq!(
            rec.counter("driver.attempts"),
            report.applications as u64 + 1
        );
        let events = rec.drain_events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("driver.attempt"), 2, "one span: open and close");
        assert_eq!(count("search.match"), 1);
        assert_eq!(count("dep.update"), 1);
        for (name, h) in rec.histograms() {
            if name != "dep.analyze_ns" {
                assert_eq!(h.count, 100, "{name}: one observation of weight 100");
            }
        }
    }

    /// A pathological spec whose action does not invalidate its own
    /// precondition: copy a statement after itself forever.
    fn loopy() -> CompiledOptimizer {
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
        let (spec, info) = gospel_lang::parse_validated(src).unwrap();
        generate(spec, info).unwrap()
    }

    #[test]
    fn diverging_spec_hits_budget() {
        let opt = loopy();
        let mut prog = minifor("program p\ninteger x\nx = 1\nend").unwrap();
        let mut d = Driver::new(&opt);
        d.options.max_applications = 5;
        assert!(matches!(
            d.apply(&mut prog, ApplyMode::AllPoints),
            Err(RunError::Diverged { limit: 5 })
        ));
    }

    #[test]
    fn bare_driver_enforces_the_growth_cap() {
        // The cap is a multiple of the statement count on entry: the
        // first copy doubles the one-statement program past 1×.
        let opt = loopy();
        let mut prog = minifor("program p\ninteger x\nx = 1\nend").unwrap();
        assert_eq!(prog.len(), 1);
        let mut d = Driver::new(&opt);
        d.options.max_growth = Some(1);
        // Without the cap the run would stop at this budget instead.
        d.options.max_applications = 5;
        assert!(matches!(
            d.apply(&mut prog, ApplyMode::AllPoints),
            Err(RunError::GrowthLimit {
                statements: 2,
                limit: 1
            })
        ));
    }
}
