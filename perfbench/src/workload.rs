//! The four workloads: their inputs, their set-up, one operation of each,
//! and the oracle that checks every result against the reference
//! interpreter.

use crate::stats::splitmix64;
use genesis::{ApplyMode, ApplyReport, CompiledOptimizer, Cost, Driver, FusedAutomaton, Session};
use genesis_guard::{GuardConfig, GuardOutcome, GuardedSession};
use gospel_dep::DepGraph;
use gospel_exec::{ExecError, ExecValue, Trace};
use gospel_ir::Program;
use gospel_trace::Recorder;
use gospel_workloads::generator::{self, GenConfig};
use std::sync::Arc;
use std::time::Instant;

/// The paper's §4 enablement sequence.
pub const SEQUENCE: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];

/// `scale` programs per seed, besides the CPP reproducer: few enough
/// that a round fits several times in a run.
const SCALE_PROGRAMS: usize = 24;
/// Statement targets of the `scale` ladder (the generator's `statements`),
/// the sizes at which dependence-clause solving dominates the driver.
const SCALE_MIN: usize = 150;
const SCALE_MAX: usize = 400;
/// The known CPP miscompile: generator seed 38 at 150 statements. It
/// opens every `scale` program list so the defect stays visible.
const CPP_REPRODUCER: (u64, usize) = (38, 150);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Suite,
    Scale,
    Guarded,
    Explore,
}

impl Kind {
    pub fn parse(s: &str) -> Option<Kind> {
        Some(match s {
            "suite" => Kind::Suite,
            "scale" => Kind::Scale,
            "guarded" => Kind::Guarded,
            "explore" => Kind::Explore,
            _ => return None,
        })
    }

    /// Whether one operation runs the sequence over a whole program
    /// (every workload but the read-only `explore`).
    pub fn runs_sequence(self) -> bool {
        self != Kind::Explore
    }
}

/// One named MiniFor source.
pub struct Input {
    pub name: String,
    pub source: String,
}

/// The workload's sources, made from `seed`. The suite programs are
/// fixed; `scale` draws one generator seed per program from `seed`.
pub fn inputs(kind: Kind, seed: u64) -> Vec<Input> {
    if kind != Kind::Scale {
        return gospel_workloads::programs::SOURCES
            .iter()
            .map(|(name, src)| Input {
                name: (*name).to_string(),
                source: (*src).to_string(),
            })
            .collect();
    }
    let mut state = seed;
    let mut plan = vec![CPP_REPRODUCER];
    for k in 0..SCALE_PROGRAMS {
        let size = SCALE_MIN + (SCALE_MAX - SCALE_MIN) * k / (SCALE_PROGRAMS - 1);
        plan.push((splitmix64(&mut state), size));
    }
    plan.into_iter()
        .map(|(gen_seed, statements)| {
            let cfg = GenConfig {
                statements,
                ..GenConfig::default()
            };
            Input {
                name: format!("gen{gen_seed}@{statements}"),
                // Unparsed outside every timed region: set-up times the
                // front end on source text, as for the suite.
                source: gospel_frontend::unparse(&generator::generate(gen_seed, cfg)),
            }
        })
        .collect()
}

/// A session ready to run the sequence over one program. Both variants
/// are large and of similar size; one lives per operation.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Plain(Session),
    Guarded(GuardedSession),
}

/// A fresh `Session` over `prog` with the catalog registered.
pub fn plain_session(catalog: &[CompiledOptimizer], prog: &Program) -> Session {
    let mut s = Session::new(prog.clone());
    for opt in catalog {
        s.register(opt.clone());
    }
    s
}

/// A fresh `GuardedSession` (default config) over `prog` with the
/// catalog registered.
pub fn guarded_session(catalog: &[CompiledOptimizer], prog: &Program) -> GuardedSession {
    let mut s = GuardedSession::new(prog.clone(), GuardConfig::default());
    for opt in catalog {
        s.register(opt.clone());
    }
    s
}

impl Prepared {
    pub fn new(kind: Kind, catalog: &[CompiledOptimizer], prog: &Program) -> Prepared {
        if kind == Kind::Guarded {
            Prepared::Guarded(guarded_session(catalog, prog))
        } else {
            Prepared::Plain(plain_session(catalog, prog))
        }
    }

    pub fn set_recorder(&mut self, rec: Option<Arc<Recorder>>) {
        match self {
            Prepared::Plain(s) => s.set_recorder(rec),
            Prepared::Guarded(s) => s.set_recorder(rec),
        }
    }
}

/// What set-up produces: the generated catalog, the compiled programs,
/// and one registered session per program (none for `explore`, whose
/// queries need no session).
pub struct Ready {
    pub catalog: Vec<CompiledOptimizer>,
    pub programs: Vec<Program>,
    pub sessions: Vec<Prepared>,
}

/// Gets the workload ready: generates the catalog from its GOSpeL specs,
/// compiles every source, and builds and registers the sessions.
pub fn setup(kind: Kind, inputs: &[Input]) -> Result<Ready, String> {
    let catalog = gospel_opts::catalog().map_err(|e| format!("catalog: {e}"))?;
    let programs = inputs
        .iter()
        .map(|i| gospel_frontend::compile(&i.source).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<Vec<_>, _>>()?;
    let sessions = if kind.runs_sequence() {
        programs
            .iter()
            .map(|p| Prepared::new(kind, &catalog, p))
            .collect()
    } else {
        Vec::new()
    };
    Ok(Ready {
        catalog,
        programs,
        sessions,
    })
}

/// The outcome of one operation.
pub enum Outcome {
    /// The sequence over one program: the program it left, the reports
    /// of the applies that stood, and the error that stopped it, if any.
    Program {
        out: Program,
        reports: Vec<ApplyReport>,
        error: Option<String>,
        /// Applies the guard rejected or skipped.
        rejected: usize,
    },
    /// One read-only (program, optimizer) query.
    Query {
        bindings: usize,
        fired: usize,
        candidates: usize,
        truncated: bool,
        cost: Cost,
        error: Option<String>,
    },
}

/// One timed operation: its wall time and its outcome.
pub struct OpResult {
    pub ns: u64,
    pub outcome: Outcome,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs the sequence in `session`, stopping at the first error.
pub fn run_sequence(mut session: Prepared) -> OpResult {
    let mut reports = Vec::with_capacity(SEQUENCE.len());
    let mut error = None;
    let mut rejected = 0;
    let started = Instant::now();
    for name in SEQUENCE {
        match &mut session {
            Prepared::Plain(s) => match s.apply(name, ApplyMode::AllPoints) {
                Ok(r) => reports.push(r.clone()),
                Err(e) => error = Some(format!("{name}: {e}")),
            },
            Prepared::Guarded(s) => match s.apply(name, ApplyMode::AllPoints) {
                Ok(GuardOutcome::Applied(r)) => reports.push(r),
                Ok(_) => rejected += 1,
                Err(e) => error = Some(format!("{name}: {e}")),
            },
        }
        if error.is_some() {
            break;
        }
    }
    let ns = ns_since(started);
    let out = match session {
        Prepared::Plain(s) => s.into_program(),
        Prepared::Guarded(s) => s.into_program(),
    };
    OpResult {
        ns,
        outcome: Outcome::Program {
            out,
            reports,
            error,
            rejected,
        },
    }
}

/// Lists `opt`'s application points over a fresh dependence analysis,
/// then explains every anchor candidate against a fresh automaton.
pub fn run_query(catalog: &[CompiledOptimizer], prog: &Program, opt: usize) -> OpResult {
    let started = Instant::now();
    let deps = DepGraph::analyze(prog);
    let auto = FusedAutomaton::build(catalog, prog);
    let outcome = match deps {
        Err(e) => query_error(format!("analyze: {e}")),
        Ok(deps) => {
            let matches = Driver::new(&catalog[opt]).matches_with(prog, &deps);
            let explained = genesis::explain(prog, &deps, &catalog[opt], &auto, None);
            match (matches, explained) {
                (Ok(m), Ok(x)) => Outcome::Query {
                    bindings: m.bindings.len(),
                    fired: x.fired(),
                    candidates: x.candidates.len(),
                    truncated: x.truncated,
                    cost: m.cost,
                    error: None,
                },
                (Err(e), _) => query_error(format!("matches: {e}")),
                (_, Err(e)) => query_error(format!("explain: {e}")),
            }
        }
    };
    OpResult {
        ns: ns_since(started),
        outcome,
    }
}

fn query_error(e: String) -> Outcome {
    Outcome::Query {
        bindings: 0,
        fired: 0,
        candidates: 0,
        truncated: false,
        cost: Cost::default(),
        error: Some(e),
    }
}

/// The input vectors of the guard's default translation validation,
/// which the oracle reuses.
pub fn vectors() -> Vec<Vec<ExecValue>> {
    let cfg = GuardConfig::default();
    generator::input_vectors(cfg.seed, cfg.vectors, cfg.vector_len)
        .into_iter()
        .map(|v| v.into_iter().map(ExecValue::Int).collect())
        .collect()
}

/// Reference traces of one original program, one per input vector.
pub fn reference(prog: &Program, vectors: &[Vec<ExecValue>]) -> Vec<Result<Trace, ExecError>> {
    vectors.iter().map(|v| gospel_exec::run(prog, v)).collect()
}

/// The oracle's verdict on one operation, and its exact counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub ops: u64,
    pub failed: u64,
    /// Statements in and out over the operations that passed.
    pub passed_in_stmts: u64,
    pub passed_out_stmts: u64,
    /// Interpreter steps before and after over the operations that
    /// passed, summed over the vectors on which the original runs.
    pub steps_before: u64,
    pub steps_after: u64,
    pub anchor_visits: u64,
    pub pattern_checks: u64,
    pub dep_checks: u64,
    pub applications: u64,
    pub transform_ops: u64,
    pub incremental_updates: u64,
    pub full_recomputes: u64,
    pub edges_churn: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.ops += o.ops;
        self.failed += o.failed;
        self.passed_in_stmts += o.passed_in_stmts;
        self.passed_out_stmts += o.passed_out_stmts;
        self.steps_before += o.steps_before;
        self.steps_after += o.steps_after;
        self.anchor_visits += o.anchor_visits;
        self.pattern_checks += o.pattern_checks;
        self.dep_checks += o.dep_checks;
        self.applications += o.applications;
        self.transform_ops += o.transform_ops;
        self.incremental_updates += o.incremental_updates;
        self.full_recomputes += o.full_recomputes;
        self.edges_churn += o.edges_churn;
    }
}

/// Checks one outcome. A program passes when no apply failed and its
/// `write` trace equals the original's on every vector on which the
/// original runs; a query passes when both calls succeed, the explain
/// walk is complete, and it fires exactly when the driver finds an
/// application point. `detail` names the first failure.
pub fn check(
    original: &Program,
    reference: &[Result<Trace, ExecError>],
    vectors: &[Vec<ExecValue>],
    outcome: &Outcome,
) -> (Counts, Option<String>) {
    let in_stmts = original.len() as u64;
    let mut c = Counts {
        ops: 1,
        ..Counts::default()
    };
    let detail = match outcome {
        Outcome::Program {
            out,
            reports,
            error,
            ..
        } => {
            for r in reports {
                c.anchor_visits += r.cost.anchor_visits;
                c.pattern_checks += r.cost.pattern_checks;
                c.dep_checks += r.cost.dep_checks;
                c.transform_ops += r.cost.transform_ops;
                c.applications += r.applications as u64;
                c.incremental_updates += r.incremental_updates as u64;
                c.full_recomputes += r.full_recomputes as u64;
                c.edges_churn += (r.dep_edges_dropped + r.dep_edges_added) as u64;
            }
            let mut detail = error.clone();
            let (mut before, mut after) = (0, 0);
            for (i, (want, v)) in reference.iter().zip(vectors).enumerate() {
                if detail.is_some() {
                    break;
                }
                // Semantics after a fault of the original are out of
                // scope, as in the guard.
                let Ok(want) = want else { continue };
                match gospel_exec::run(out, v) {
                    Err(e) => detail = Some(format!("vector {i}: optimized program faults: {e}")),
                    Ok(got) => match want.first_mismatch(&got) {
                        Some(k) => detail = Some(format!("vector {i}: write {k} diverges")),
                        None => {
                            before += want.steps;
                            after += got.steps;
                        }
                    },
                }
            }
            if detail.is_none() {
                c.passed_in_stmts = in_stmts;
                c.passed_out_stmts = out.len() as u64;
                c.steps_before = before;
                c.steps_after = after;
            }
            detail
        }
        Outcome::Query {
            bindings,
            fired,
            truncated,
            cost,
            error,
            ..
        } => {
            c.anchor_visits = cost.anchor_visits;
            c.pattern_checks = cost.pattern_checks;
            c.dep_checks = cost.dep_checks;
            c.applications = *bindings as u64;
            let detail = if let Some(e) = error {
                Some(e.clone())
            } else if *truncated {
                Some("explain walk truncated".to_string())
            } else if (*fired > 0) != (*bindings > 0) {
                Some(format!(
                    "explain fires {fired} but matches finds {bindings}"
                ))
            } else {
                None
            };
            if detail.is_none() {
                // A query leaves the program as it found it.
                c.passed_in_stmts = in_stmts;
                c.passed_out_stmts = in_stmts;
            }
            detail
        }
    };
    if detail.is_some() {
        c.failed = 1;
    }
    (c, detail)
}

/// Whether two outcomes of the same operation agree exactly: the same
/// program and reports, or the same query answer.
pub fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (
            Outcome::Program {
                out: oa,
                reports: ra,
                error: ea,
                rejected: ja,
            },
            Outcome::Program {
                out: ob,
                reports: rb,
                error: eb,
                rejected: jb,
            },
        ) => {
            oa.structurally_eq(ob)
                && ea == eb
                && ja == jb
                && ra.len() == rb.len()
                && ra
                    .iter()
                    .zip(rb)
                    .all(|(x, y)| x.applications == y.applications && x.cost == y.cost)
        }
        (
            Outcome::Query {
                bindings: ba,
                fired: fa,
                candidates: ca,
                cost: xa,
                error: ea,
                ..
            },
            Outcome::Query {
                bindings: bb,
                fired: fb,
                candidates: cb,
                cost: xb,
                error: eb,
                ..
            },
        ) => ba == bb && fa == fb && ca == cb && xa == xb && ea == eb,
        _ => false,
    }
}
