//! `genesis-opt` — the optimizer GENesis constructs (the paper's "OPT"
//! box in Figure 3): reads a MiniFor source program, converts it to the
//! intermediate representation, computes dependences, and applies
//! generated optimizers — in batch or through the §3 interactive
//! interface (select optimizations, select application points, override
//! dependence restrictions, control dependence recomputation).

use genesis::{emit, ApplyMode, FaultPlan, Session, SessionOptions};
use genesis_guard::{GuardConfig, GuardOutcome, GuardedSession};
use gospel_dep::DepGraph;
use gospel_ir::{DisplayProgram, Program, StmtId};
use gospel_trace::Recorder;
use std::io::BufRead;
use std::process::ExitCode;
use std::sync::Arc;

mod repl;

const USAGE: &str = "\
genesis-opt — an optimizer generated from GOSpeL specifications

USAGE:
    genesis-opt specs                              list the catalog optimizations
    genesis-opt show <prog.mf>                     compile and print the IR
    genesis-opt deps <prog.mf> [--dot]             print the dependence graph
    genesis-opt points <prog.mf> <OPT>             list application points
    genesis-opt apply <prog.mf> <OPT>[,<OPT>…]     apply optimizers in order
        [--first] [--at sN] [--force] [--no-recompute] [--source] [--spec FILE]…
    genesis-opt run <prog.mf> <OPT>                apply one optimizer, guarded
    genesis-opt seq <prog.mf> <OPT>[,<OPT>…]       apply a sequence, guarded
        run/seq options: [--validate] [--timeout-ms N] [--fuel N]
        [--max-growth K] [--matcher fused|scan]
        [--inject KIND[@OPT][:N]]
        [--trace FILE] [--metrics] plus the apply options
    genesis-opt batch <prog.mf>… [--seq <OPT>,<OPT>…] [--threads N]
        apply a sequence to many programs in parallel (one session per
        program, results in input order); self-healing: worker panics are
        contained per file and transient failures retried
        [--keep-going] [--retries N] [--file-timeout-ms N] [--report FILE]
        also accepts [--source] [--inject PLAN] [--trace FILE] [--metrics]
        plus the session options above
    genesis-opt explain <prog.mf> --opt <OPT> [--stmt sN]
        walk every anchor candidate through the fused automaton, the
        anchor format and the Depend section, and name the first failing
        discriminator (edge, conjunct or clause) per candidate
    genesis-opt report <trace.jsonl>… [--format text|json]
        [--baseline report.json] [--threshold-pct P]
        aggregate one or more --trace files into a cross-run report:
        span-tree wall-clock attribution, per-optimizer match funnels,
        latency quantiles and incident counts; with --baseline, exit
        nonzero when a shared metric drifts past the threshold
        (default 10%; *_ns keys only regress upward)
    genesis-opt emit <OPT> [--lang c|rust]         print the generated source
    genesis-opt interactive <prog.mf> [--spec FILE]…   the §3 interface

Catalog: CPP CTP DCE ICM INX CRC BMP PAR LUR FUS CFO.
--spec FILE adds a user-written GOSpeL specification to the session.
--validate checks every application by structural validation and by
executing the program before/after on seeded inputs; a divergent
optimizer is rolled back and quarantined, and the exit code is nonzero.
--inject arms a scripted fault ([~]KIND[@OPT][:N] with KIND one of
analysis|action|corrupt|panic|panic-action|timeout|fuel|corrupt-deps;
a leading ~ makes it transient, firing at most once) to exercise the
recovery paths. --no-degrade turns off the driver's degradation ladder
(stale automaton → scan → full re-analysis) and restores hard failures.
--matcher picks the candidate searcher: `fused` (default) dispatches the
whole catalog through one shared anchor automaton, `scan` walks every
statement.
--keep-going drives the remaining batch files past a failure; --retries
and --file-timeout-ms bound each file's attempts; --report FILE writes
the structured per-file batch report as JSON.
--trace FILE streams one JSON object per structured event (attempt
spans, match outcomes, dependence-update counters, guard events) to
FILE; --metrics prints an end-of-run counter/latency summary table.
--trace-sample N records the full attempt span (and its latency
observations, weighted by N) for only one in N driver attempts; funnel
and outcome counters stay exact. apply also accepts --trace/--metrics.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        print!("{USAGE}");
        return Ok(());
    };
    match cmd.as_str() {
        "specs" => {
            for (name, src) in gospel_opts::specs::ALL {
                let opt = gospel_opts::compile_spec(src).map_err(|e| e.to_string())?;
                println!(
                    "{name:<5} {:<12} {} pattern clause(s), {} dependence clause(s), {} action(s)",
                    format!("[{:?}]", opt.mode).to_lowercase(),
                    opt.patterns.len(),
                    opt.depends.len(),
                    opt.actions.len()
                );
            }
            Ok(())
        }
        "show" => {
            let prog = load_program(args.get(1))?;
            print!("{}", DisplayProgram(&prog));
            Ok(())
        }
        "deps" => {
            let prog = load_program(args.get(1))?;
            let deps = DepGraph::analyze(&prog).map_err(|e| e.to_string())?;
            if flag(args, "--dot") {
                print!("{}", dot_graph(&prog, &deps));
                return Ok(());
            }
            for e in deps.edges() {
                println!("{}", e.line(prog.syms()));
            }
            println!("{} edges", deps.len());
            Ok(())
        }
        "points" => {
            let prog = load_program(args.get(1))?;
            let name = args.get(2).ok_or("missing optimization name")?;
            let session = build_session(prog, args)?;
            let ms = session.matches(name).map_err(|e| e.to_string())?;
            for (i, b) in ms.bindings.iter().enumerate() {
                println!("point {}: {}", i + 1, b.line());
            }
            println!("{} application point(s); search cost {}", ms.bindings.len(), ms.cost);
            Ok(())
        }
        "apply" => {
            let prog = load_program(args.get(1))?;
            let list = args.get(2).ok_or("missing optimization list")?;
            let mut session =
                build_session_with_options(prog, args, parse_session_options(args)?)?;
            let mode = parse_mode(args)?;
            let (recorder, trace_path, metrics) = parse_trace(args)?;
            session.set_recorder(recorder.clone());
            for name in list.split(',') {
                let report = match session.apply(name, mode) {
                    Ok(r) => r,
                    Err(e) => {
                        finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)?;
                        return Err(e.to_string());
                    }
                };
                println!(
                    "{name}: {} application(s), cost {}",
                    report.applications, report.cost
                );
            }
            print_program(session.program(), args);
            finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)
        }
        "run" | "seq" => {
            let prog = load_program(args.get(1))?;
            let list = args.get(2).ok_or("missing optimization list")?;
            let names: Vec<&str> = list.split(',').collect();
            if cmd == "run" && names.len() != 1 {
                return Err("run takes exactly one optimization (use seq for lists)".into());
            }
            run_optimizers(prog, &names, args)
        }
        "batch" => run_batch_command(args),
        "explain" => run_explain_command(args),
        "report" => run_report_command(args),
        "emit" => {
            let name = args.get(1).ok_or("missing optimization name")?;
            let opt = find_opt(name, args)?;
            match option(args, "--lang").as_deref().unwrap_or("c") {
                "c" => {
                    println!("{}", emit::emit_c(&opt));
                    println!("{}", emit::emit_c_interface(&opt));
                }
                "rust" => println!("{}", emit::emit_rust(&opt)),
                other => return Err(format!("unknown language `{other}`")),
            }
            Ok(())
        }
        "interactive" => {
            let prog = load_program(args.get(1))?;
            let session = build_session(prog, args)?;
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            repl::run(session, stdin.lock(), stdout.lock()).map_err(|e| e.to_string())
        }
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`; try --help")),
    }
}

fn load_program(path: Option<&String>) -> Result<Program, String> {
    let path = path.ok_or("missing program file")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    gospel_frontend::compile(&src).map_err(|e| format!("{path}: {e}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn options(args: &[String], name: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in args.iter().enumerate() {
        if a == name {
            if let Some(v) = args.get(i + 1) {
                out.push(v.clone());
            }
        }
    }
    out
}

fn parse_mode(args: &[String]) -> Result<ApplyMode, String> {
    let at = option(args, "--at");
    let force = flag(args, "--force");
    match (at, force) {
        (Some(p), false) => Ok(ApplyMode::AtPoint(parse_stmt(&p)?)),
        (Some(p), true) => Ok(ApplyMode::AtPointUnchecked(parse_stmt(&p)?)),
        (None, true) => Err("--force requires --at".into()),
        (None, false) if flag(args, "--first") => Ok(ApplyMode::FirstPoint),
        (None, false) => Ok(ApplyMode::AllPoints),
    }
}

fn parse_stmt(text: &str) -> Result<StmtId, String> {
    // Statement ids print as `sN`; accept with or without the prefix.
    let digits = text.trim_start_matches('s');
    let n: u32 = digits
        .parse()
        .map_err(|_| format!("`{text}` is not a statement id (expected sN)"))?;
    Ok(StmtId::from_raw(n))
}

/// Parses `--name N` into a number, with the flag name in the error.
fn num_option<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    match option(args, name) {
        None => {
            if flag(args, name) {
                Err(format!("{name} requires a value"))
            } else {
                Ok(None)
            }
        }
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: `{v}` is not a valid number")),
    }
}

fn parse_session_options(args: &[String]) -> Result<SessionOptions, String> {
    let matcher = match option(args, "--matcher") {
        None if flag(args, "--matcher") => {
            return Err("--matcher requires a value (fused|scan)".into())
        }
        None => genesis::MatcherKind::Fused,
        Some(v) => genesis::MatcherKind::parse(&v)
            .ok_or_else(|| format!("--matcher: `{v}` is not one of fused|scan"))?,
    };
    Ok(SessionOptions {
        recompute_deps: !flag(args, "--no-recompute"),
        timeout_ms: num_option(args, "--timeout-ms")?,
        fuel: num_option(args, "--fuel")?,
        max_growth: num_option(args, "--max-growth")?,
        degraded_recovery: !flag(args, "--no-degrade"),
        matcher,
        trace_sample: num_option(args, "--trace-sample")?.unwrap_or(1),
        ..SessionOptions::default()
    })
}

fn parse_inject(args: &[String]) -> Result<Option<FaultPlan>, String> {
    match option(args, "--inject") {
        None if flag(args, "--inject") => Err("--inject requires a fault plan".into()),
        None => Ok(None),
        Some(text) => FaultPlan::parse(&text).map(Some),
    }
}

/// The `run`/`seq` commands: apply optimizers with resource budgets and
/// optional fault injection; with `--validate`, under the full
/// [`GuardedSession`] gate (rollback + quarantine on any rejection).
fn run_optimizers(prog: Program, names: &[&str], args: &[String]) -> Result<(), String> {
    let mode = parse_mode(args)?;
    let fault = parse_inject(args)?;
    let opts = parse_session_options(args)?;
    let (recorder, trace_path, metrics) = parse_trace(args)?;

    if !flag(args, "--validate") {
        let mut session = build_session_with_options(prog, args, opts)?;
        session.set_fault(fault);
        session.set_recorder(recorder.clone());
        for name in names {
            let report = match session.apply(name, mode) {
                Ok(r) => r,
                Err(e) => {
                    finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)?;
                    return Err(e.to_string());
                }
            };
            println!(
                "{name}: {} application(s), cost {}",
                report.applications, report.cost
            );
        }
        print_program(session.program(), args);
        return finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics);
    }

    let config = GuardConfig {
        timeout_ms: opts.timeout_ms.or(GuardConfig::default().timeout_ms),
        fuel: opts.fuel,
        max_growth: opts.max_growth.or(GuardConfig::default().max_growth),
        // `--validate` is the belt-and-braces mode: also audit the
        // incrementally-maintained dependence graph every application.
        verify_deps: true,
        ..GuardConfig::default()
    };
    let mut guarded = GuardedSession::new(prog, config);
    guarded.set_recorder(recorder.clone());
    for opt in gospel_opts::catalog().map_err(|e| e.to_string())? {
        guarded.register(opt);
    }
    for path in options(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let opt = gospel_opts::compile_spec(&src).map_err(|e| format!("{path}: {e}"))?;
        println!("registered user optimization {}", opt.name);
        guarded.register(opt);
    }
    guarded.set_fault(fault);

    // The guard contains panics from generated optimizers, but the
    // default hook would still print a backtrace for each contained one;
    // keep stderr to the structured reports while the guard runs.
    // (Safe to swap globally: this binary is single-threaded.)
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut rejections = 0usize;
    let mut failure = None;
    for name in names {
        match guarded.apply(name, mode) {
            Ok(GuardOutcome::Applied(report)) => println!(
                "{name}: {} application(s), cost {}",
                report.applications, report.cost
            ),
            Ok(GuardOutcome::Rejected(report)) => {
                rejections += 1;
                eprintln!("validation: {report}");
            }
            Ok(GuardOutcome::Skipped { optimizer, reason }) => {
                eprintln!("skipped {optimizer}: quarantined ({reason})");
            }
            Err(e) => {
                failure = Some(e.to_string());
                break;
            }
        }
    }
    std::panic::set_hook(default_hook);
    if let Some(e) = failure {
        finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)?;
        return Err(e);
    }
    print_program(guarded.program(), args);
    finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)?;
    if rejections > 0 {
        Err(format!(
            "{rejections} optimization(s) rejected and rolled back (program output above is the validated state)"
        ))
    } else {
        Ok(())
    }
}

/// The `batch` command: one session per program file, fanned out over a
/// self-healing worker pool (panic containment, transient-error retries,
/// per-file deadlines), results printed in input order. By default the
/// first ultimate failure aborts the remaining files; `--keep-going`
/// drives every file regardless. The exit code is nonzero only when at
/// least one file ultimately failed.
fn run_batch_command(args: &[String]) -> Result<(), String> {
    const VALUE_OPTS: [&str; 13] = [
        "--seq",
        "--threads",
        "--trace",
        "--trace-sample",
        "--timeout-ms",
        "--fuel",
        "--max-growth",
        "--matcher",
        "--spec",
        "--retries",
        "--file-timeout-ms",
        "--report",
        "--inject",
    ];
    let mut files: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if VALUE_OPTS.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            files.push(a.clone());
            i += 1;
        }
    }
    if files.is_empty() {
        return Err("batch requires at least one program file".into());
    }
    let threads: usize = num_option(args, "--threads")?.unwrap_or(1);
    let seq_text = option(args, "--seq");
    let sequence: Vec<&str> = seq_text
        .as_deref()
        .map(|s| s.split(',').collect())
        .unwrap_or_default();
    let opts = parse_session_options(args)?;
    let (recorder, trace_path, metrics) = parse_trace(args)?;

    let mut optimizers: Vec<genesis::CompiledOptimizer> = Vec::new();
    for opt in gospel_opts::catalog().map_err(|e| e.to_string())? {
        optimizers.push(opt);
    }
    for path in options(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let opt = gospel_opts::compile_spec(&src).map_err(|e| format!("{path}: {e}"))?;
        println!("registered user optimization {}", opt.name);
        optimizers.push(opt);
    }

    let items = files
        .iter()
        .map(|f| {
            Ok(genesis::BatchItem {
                label: f.clone(),
                prog: load_program(Some(f))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;

    let policy = genesis::BatchPolicy {
        keep_going: flag(args, "--keep-going"),
        retries: num_option(args, "--retries")?.unwrap_or(1),
        file_timeout_ms: num_option(args, "--file-timeout-ms")?,
        fault: parse_inject(args)?,
    };

    // Contained worker panics are reported per file; the default hook's
    // backtrace spew would bury the batch report.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = genesis::run_batch(
        items,
        &optimizers,
        &sequence,
        opts,
        &policy,
        threads,
        recorder.as_ref(),
    );
    std::panic::set_hook(prev_hook);

    let total = outcomes.len();
    let mut failures = 0usize;
    for o in &outcomes {
        match &o.status {
            genesis::BatchStatus::Done(ok) => {
                let retry_note = if o.attempts > 1 {
                    format!(" ({} attempts)", o.attempts)
                } else {
                    String::new()
                };
                println!(
                    "== {}: {} application(s), cost {}{retry_note}",
                    o.label, ok.applications, ok.cost
                );
                if flag(args, "--source") {
                    print!("{}", gospel_frontend::unparse(&ok.prog));
                } else {
                    print!("{}", DisplayProgram(&ok.prog));
                }
            }
            genesis::BatchStatus::Failed(e) => {
                failures += 1;
                println!(
                    "== {}: error after {} attempt(s): {e}",
                    o.label, o.attempts
                );
            }
            genesis::BatchStatus::Skipped => {
                println!("== {}: skipped (earlier failure, no --keep-going)", o.label);
            }
        }
    }
    if let Some(path) = option(args, "--report") {
        std::fs::write(&path, batch_report_json(&outcomes))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    finish_trace(recorder.as_deref(), trace_path.as_deref(), metrics)?;
    if failures > 0 {
        Err(format!("{failures} of {total} program(s) failed"))
    } else {
        Ok(())
    }
}

/// The `explain` command: replay one optimizer's match funnel over every
/// anchor candidate of a program and narrate where each candidate died —
/// the automaton edge, the format conjunct, or the dependence clause.
fn run_explain_command(args: &[String]) -> Result<(), String> {
    let prog = load_program(args.get(1))?;
    let name = option(args, "--opt").ok_or("explain requires --opt NAME")?;
    let deps = DepGraph::analyze(&prog).map_err(|e| e.to_string())?;
    // Assemble the same catalog a session would register (plus any
    // --spec additions) so the fused automaton's trie — and therefore
    // the replayed admission path — matches a real run's.
    let mut optimizers: Vec<genesis::CompiledOptimizer> =
        gospel_opts::catalog().map_err(|e| e.to_string())?;
    for path in options(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let opt = gospel_opts::compile_spec(&src).map_err(|e| format!("{path}: {e}"))?;
        optimizers.push(opt);
    }
    let opt = optimizers
        .iter()
        .find(|o| o.name.eq_ignore_ascii_case(&name))
        .ok_or_else(|| format!("`{name}` is not in the catalog (try `specs`)"))?;
    let auto = genesis::FusedAutomaton::build(&optimizers, &prog);
    let stmt = match option(args, "--stmt") {
        None if flag(args, "--stmt") => return Err("--stmt requires a statement id".into()),
        None => None,
        Some(s) => Some(parse_stmt(&s)?),
    };
    let report =
        genesis::explain(&prog, &deps, opt, &auto, stmt).map_err(|e| e.to_string())?;
    print!("{}", report.to_text());
    Ok(())
}

/// The `report` command: aggregate one or more `--trace` JSONL files
/// into a cross-run analytics report, and optionally gate it against a
/// baseline report.
fn run_report_command(args: &[String]) -> Result<(), String> {
    const VALUE_OPTS: [&str; 3] = ["--format", "--baseline", "--threshold-pct"];
    let mut files: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if VALUE_OPTS.contains(&a.as_str()) {
            i += 2;
        } else if a.starts_with("--") {
            i += 1;
        } else {
            files.push(a.clone());
            i += 1;
        }
    }
    if files.is_empty() {
        return Err("report requires at least one trace file".into());
    }
    let mut traces = Vec::with_capacity(files.len());
    for f in &files {
        let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
        traces.push(gospel_trace::report::parse_trace(&text).map_err(|e| format!("{f}: {e}"))?);
    }
    let report = gospel_trace::report::Report::build(&traces);
    match option(args, "--format").as_deref().unwrap_or("text") {
        "text" => print!("{}", report.to_text()),
        "json" => print!("{}", report.to_json()),
        other => return Err(format!("--format: `{other}` is not one of text|json")),
    }
    if let Some(path) = option(args, "--baseline") {
        let baseline = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let threshold: f64 = num_option(args, "--threshold-pct")?.unwrap_or(10.0);
        let regressions = gospel_trace::report::compare(&report, &baseline, threshold)
            .map_err(|e| format!("{path}: {e}"))?;
        if !regressions.is_empty() {
            for r in &regressions {
                eprintln!("regression: {r}");
            }
            return Err(format!(
                "{} metric(s) regressed past {threshold}% against {path}",
                regressions.len()
            ));
        }
        eprintln!("baseline check passed ({path}, threshold {threshold}%)");
    }
    Ok(())
}

/// The structured per-file batch report (`--report FILE`): one entry per
/// input slot with status, attempt count and elapsed time.
fn batch_report_json(outcomes: &[genesis::BatchOutcome]) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n  \"files\": [\n");
    let (mut done, mut failed, mut skipped) = (0usize, 0usize, 0usize);
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str("    {\"file\": ");
        gospel_trace::write_json_string(&o.label, &mut out);
        let _ = write!(out, ", \"attempts\": {}, \"elapsed_ms\": {}", o.attempts, o.elapsed_ms);
        match &o.status {
            genesis::BatchStatus::Done(ok) => {
                done += 1;
                let _ = write!(
                    out,
                    ", \"status\": \"done\", \"applications\": {}, \"cost\": {}",
                    ok.applications,
                    ok.cost.total()
                );
            }
            genesis::BatchStatus::Failed(e) => {
                failed += 1;
                out.push_str(", \"status\": \"failed\", \"error\": ");
                gospel_trace::write_json_string(&e.to_string(), &mut out);
            }
            genesis::BatchStatus::Skipped => {
                skipped += 1;
                out.push_str(", \"status\": \"skipped\"");
            }
        }
        out.push('}');
        if i + 1 < outcomes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    let _ = write!(
        out,
        "  ],\n  \"total\": {}, \"done\": {done}, \"failed\": {failed}, \"skipped\": {skipped}\n}}\n",
        outcomes.len()
    );
    out
}

/// Parsed `--trace FILE` / `--metrics` options: the recorder (created
/// when either flag is present), the trace path, and the metrics flag.
type TraceOpts = (Option<Arc<Recorder>>, Option<String>, bool);

/// Parses `--trace FILE` / `--metrics`; a recorder is created when either
/// is present.
fn parse_trace(args: &[String]) -> Result<TraceOpts, String> {
    let trace_path = match option(args, "--trace") {
        None if flag(args, "--trace") => return Err("--trace requires a file path".into()),
        other => other,
    };
    let metrics = flag(args, "--metrics");
    let recorder = (trace_path.is_some() || metrics).then(|| Arc::new(Recorder::new()));
    Ok((recorder, trace_path, metrics))
}

/// Flushes the recorder at end of run: the JSONL event stream to the
/// `--trace` file, the `--metrics` summary table to stdout.
fn finish_trace(rec: Option<&Recorder>, path: Option<&str>, metrics: bool) -> Result<(), String> {
    let Some(rec) = rec else { return Ok(()) };
    if let Some(path) = path {
        use std::fmt::Write as _;
        let mut out = String::new();
        for event in rec.drain_events() {
            let _ = writeln!(out, "{}", event.to_jsonl());
        }
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
    }
    if metrics {
        print!("{}", rec.metrics_table());
    }
    Ok(())
}

fn print_program(prog: &Program, args: &[String]) {
    if flag(args, "--source") {
        print!("{}", gospel_frontend::unparse(prog));
    } else {
        print!("{}", DisplayProgram(prog));
    }
}

fn build_session(prog: Program, args: &[String]) -> Result<Session, String> {
    build_session_with_options(prog, args, SessionOptions::default())
}

fn build_session_with_options(
    prog: Program,
    args: &[String],
    opts: SessionOptions,
) -> Result<Session, String> {
    let mut session = Session::with_options(prog, opts);
    for opt in gospel_opts::catalog().map_err(|e| e.to_string())? {
        session.register(opt);
    }
    for path in options(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let opt = gospel_opts::compile_spec(&src).map_err(|e| format!("{path}: {e}"))?;
        println!("registered user optimization {}", opt.name);
        session.register(opt);
    }
    Ok(session)
}

fn find_opt(name: &str, args: &[String]) -> Result<genesis::CompiledOptimizer, String> {
    for path in options(args, "--spec") {
        let src = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        let opt = gospel_opts::compile_spec(&src).map_err(|e| format!("{path}: {e}"))?;
        if opt.name.eq_ignore_ascii_case(name) {
            return Ok(opt);
        }
    }
    if gospel_opts::specs::ALL
        .iter()
        .any(|(n, _)| n.eq_ignore_ascii_case(name))
    {
        Ok(gospel_opts::by_name(name))
    } else {
        Err(format!("`{name}` is not in the catalog (try `specs`)"))
    }
}

/// Renders the dependence graph in Graphviz dot form (one node per
/// statement, edge styles per dependence kind).
fn dot_graph(prog: &Program, deps: &DepGraph) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("digraph deps {\n  rankdir=TB;\n  node [shape=box, fontname=monospace];\n");
    for id in prog.iter() {
        let mut label = String::new();
        let _ = write!(label, "{id}: {}", prog.quad(id).op);
        let _ = writeln!(s, "  \"{id}\" [label=\"{label}\"];");
    }
    for e in deps.edges() {
        let style = match e.kind {
            gospel_dep::DepKind::Flow => "solid",
            gospel_dep::DepKind::Anti => "dashed",
            gospel_dep::DepKind::Output => "dotted",
            gospel_dep::DepKind::Control => "bold",
        };
        let dirs: String = e.dirvec.iter().map(|d| d.symbol()).collect();
        let _ = writeln!(
            s,
            "  \"{}\" -> \"{}\" [style={style}, label=\"{} ({dirs})\"];",
            e.src,
            e.dst,
            prog.syms().name(e.var)
        );
    }
    s.push_str("}\n");
    s
}

/// Used by the interactive REPL too.
pub(crate) fn prompt(mut out: impl std::io::Write) -> std::io::Result<()> {
    write!(out, "opt> ")?;
    out.flush()
}

/// Reads one line; `None` on EOF.
pub(crate) fn read_line(mut input: impl BufRead) -> Option<String> {
    let mut line = String::new();
    match input.read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim().to_string()),
        Err(_) => None,
    }
}
