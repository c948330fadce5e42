//! Differential harness: full-recompute vs incremental dependence
//! maintenance must be observationally identical.
//!
//! For every generated optimizer in the catalog and every workload in the
//! ten-program suite, the driver is run twice — once with
//! `incremental_deps` off (every refresh is a fresh [`DepGraph::analyze`])
//! and once with it on (the `DepGraph::update` frontier path). The two
//! runs must produce the same program text, the same application count,
//! dependence graphs that agree with a from-scratch analysis, and the
//! same execution outputs on a deterministic battery of input vectors.
//! Every check runs once per matcher: the suite must agree with itself
//! no matter how anchor candidates are enumerated — fused automaton or
//! the plain scan.

use genesis::{
    ApplyMode, CompiledOptimizer, Driver, MatcherKind, Session, SessionCaches, SessionOptions,
};
use gospel_dep::DepGraph;
use gospel_exec::{run_limited, ExecValue, Trace};
use gospel_ir::{DisplayProgram, Program};
use gospel_opts::interaction::natural_mode;
use gospel_workloads::generator::{self, input_vectors, GenConfig};

const SEED: u64 = 0xD1FF;
const VECTORS: usize = 6;
const VECTOR_LEN: usize = 24;
const STEP_LIMIT: u64 = 2_000_000;
/// Seeded random programs appended to the fixed ten-workload suite; the
/// generator reaches shapes (deep expression nests, array aliasing
/// patterns) the hand-written workloads do not.
const GENERATED: u64 = 4;
/// Both candidate matchers; each test runs under every one.
const MATCHERS: [MatcherKind; 2] = [MatcherKind::Fused, MatcherKind::Scan];

/// The differential corpus: the ten fixed workloads plus `GENERATED`
/// seeded random programs.
fn workloads() -> Vec<(String, Program)> {
    let mut all: Vec<(String, Program)> = gospel_workloads::suite()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    for i in 0..GENERATED {
        let seed = SEED.wrapping_add(i);
        let cfg = GenConfig {
            statements: 24,
            ..GenConfig::default()
        };
        all.push((format!("gen{seed:#x}"), generator::generate(seed, cfg)));
    }
    all
}

/// Every (matcher, workload) pair, the workload's name labelled with
/// its matcher.
fn cases() -> Vec<(MatcherKind, String, Program)> {
    MATCHERS
        .into_iter()
        .flat_map(|m| {
            workloads()
                .into_iter()
                .map(move |(name, prog)| (m, format!("{name} ({})", m.as_str()), prog))
        })
        .collect()
}

/// Runs `opt` to fixpoint on a copy of `prog` under `matcher`, returning
/// the optimized program, how many times the actions fired, and the
/// cached dependence graph if the driver kept it current.
fn run_mode(
    prog: &Program,
    opt: &CompiledOptimizer,
    mode: ApplyMode,
    matcher: MatcherKind,
    incremental: bool,
) -> (Program, usize, Option<DepGraph>) {
    let mut work = prog.clone();
    let mut caches = SessionCaches::new();
    let mut d = Driver::new(opt);
    d.options.matcher = matcher;
    d.options.incremental_deps = incremental;
    let report = d
        .apply_with(&mut work, mode, &mut caches)
        .unwrap_or_else(|e| panic!("{}: {e}", opt.name));
    (work, report.applications, caches.deps)
}

/// Executes `prog` on the deterministic vector battery, plus the empty
/// input (programs that read nothing must still agree there).
fn exec_battery(prog: &Program) -> Vec<Result<Trace, String>> {
    let mut runs = Vec::new();
    let mut batteries: Vec<Vec<ExecValue>> = input_vectors(SEED, VECTORS, VECTOR_LEN)
        .into_iter()
        .map(|v| v.into_iter().map(ExecValue::Int).collect())
        .collect();
    batteries.push(Vec::new());
    for inputs in batteries {
        runs.push(run_limited(prog, &inputs, STEP_LIMIT).map_err(|e| e.to_string()));
    }
    runs
}

fn assert_same_exec(wname: &str, oname: &str, full: &Program, incr: &Program) {
    let a = exec_battery(full);
    let b = exec_battery(incr);
    assert_eq!(a.len(), b.len());
    for (i, (ra, rb)) in a.iter().zip(&b).enumerate() {
        match (ra, rb) {
            (Ok(ta), Ok(tb)) => assert!(
                ta.same_outputs(tb),
                "{wname}/{oname}: vector {i} diverges at output {:?}",
                ta.first_mismatch(tb)
            ),
            (Err(ea), Err(eb)) => {
                assert_eq!(ea, eb, "{wname}/{oname}: vector {i} errors differ")
            }
            _ => panic!(
                "{wname}/{oname}: vector {i}: one mode errored, the other did not"
            ),
        }
    }
}

/// The headline differential: every optimizer × every workload, full vs
/// incremental drivers.
#[test]
fn full_and_incremental_drivers_agree_on_every_optimizer_and_workload() {
    let opts = gospel_opts::catalog().expect("catalog generates");
    for (matcher, wname, prog) in cases() {
        for opt in &opts {
            let mode = natural_mode(opt);
            let (full, apps_f, cache_f) = run_mode(&prog, opt, mode, matcher, false);
            let (incr, apps_i, cache_i) = run_mode(&prog, opt, mode, matcher, true);

            let ftext = DisplayProgram(&full).to_string();
            let itext = DisplayProgram(&incr).to_string();
            assert_eq!(
                ftext, itext,
                "{wname}/{}: full vs incremental programs differ",
                opt.name
            );
            assert_eq!(
                apps_f, apps_i,
                "{wname}/{}: application counts differ",
                opt.name
            );

            // Whenever a mode kept its cache current, the cached graph
            // must agree with a from-scratch analysis of the final
            // program — the incremental updater may not drift.
            for (label, cache, final_prog) in
                [("full", &cache_f, &full), ("incremental", &cache_i, &incr)]
            {
                if let Some(g) = cache {
                    let fresh = DepGraph::analyze(final_prog)
                        .unwrap_or_else(|e| panic!("{wname}/{}: {e}", opt.name));
                    assert!(
                        g.agrees_with(&fresh),
                        "{wname}/{}: {label} cache disagrees with fresh analysis",
                        opt.name
                    );
                }
            }

            assert_same_exec(&wname, &opt.name, &full, &incr);
        }
    }
}

/// Chaining the whole catalog over one program (the bench's sequence
/// shape) must also be mode-independent: dependence-state carried across
/// optimizers is where incremental drift would compound.
#[test]
fn chained_catalog_sequence_is_mode_independent() {
    let opts = gospel_opts::catalog().expect("catalog generates");
    for (matcher, wname, prog) in cases() {
        let run_chain = |incremental: bool| -> Program {
            let mut work = prog.clone();
            let mut caches = SessionCaches::new();
            for opt in &opts {
                // Only the dependence graph carries over: the automaton a
                // bare driver builds covers just its own optimizer.
                caches.automaton = None;
                let mut d = Driver::new(opt);
                d.options.matcher = matcher;
                d.options.incremental_deps = incremental;
                d.apply_with(&mut work, natural_mode(opt), &mut caches)
                    .unwrap_or_else(|e| panic!("{wname}/{}: {e}", opt.name));
            }
            work
        };
        let full = run_chain(false);
        let incr = run_chain(true);
        assert_eq!(
            DisplayProgram(&full).to_string(),
            DisplayProgram(&incr).to_string(),
            "{wname}: chained sequence differs between modes"
        );
        assert_same_exec(&wname, "catalog-chain", &full, &incr);
    }
}

/// The paper's §4 enablement sequence.
const SEQUENCE: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];

/// Generated programs of about 150 statements: the seed-38 program is the
/// one that exposed a copy-propagation fault at this size.
const AT_SIZE: [(u64, usize); 2] = [(38, 150), (0xD1FF, 150)];

/// The §4 sequence at size with every dependence refresh cross-checked:
/// `verify_deps` compares each updated graph with a fresh analysis, and
/// with degraded recovery off a disagreement fails the apply. Every
/// update shape the sequence makes on a program this large — deletes,
/// placements, bound and operand rewrites, structural batches — must
/// stay exact.
#[test]
fn verified_sequence_at_size_never_diverges() {
    let opts = gospel_opts::catalog().expect("catalog generates");
    for (seed, statements) in AT_SIZE {
        let prog = generator::generate(
            seed,
            GenConfig {
                statements,
                ..GenConfig::default()
            },
        );
        let options = SessionOptions {
            verify_deps: true,
            degraded_recovery: false,
            ..SessionOptions::default()
        };
        let mut session = Session::with_options(prog.clone(), options);
        for opt in &opts {
            session.register(opt.clone());
        }
        let mut updates = 0;
        for name in SEQUENCE {
            let report = session
                .apply(name, ApplyMode::AllPoints)
                .unwrap_or_else(|e| panic!("gen{seed}@{statements} {name}: {e}"));
            updates += report.incremental_updates;
        }
        assert!(updates > 0, "gen{seed}@{statements}: the sequence updated nothing");
        let mut unverified = prog.clone();
        for name in SEQUENCE {
            let opt = opts.iter().find(|o| o.name == name).expect("sequence optimizer");
            Driver::new(opt)
                .apply(&mut unverified, ApplyMode::AllPoints)
                .unwrap_or_else(|e| panic!("gen{seed}@{statements} {name}: {e}"));
        }
        assert_eq!(
            DisplayProgram(session.program()).to_string(),
            DisplayProgram(&unverified).to_string(),
            "gen{seed}@{statements}: verification changed the result"
        );
    }
}
