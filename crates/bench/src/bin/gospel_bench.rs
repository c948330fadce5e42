//! `gospel-bench` — full-vs-incremental dependence maintenance benchmark.
//!
//! Runs a chain-heavy optimizer sequence (CTP → CPP → DCE) over the ten
//! workload programs twice: once with the driver re-running the full
//! `DepGraph::analyze` after every application (the seed behaviour), and
//! once with the incremental `DepGraph::update` + resumed search. Reports
//! per-workload wall-clock (minimum over `--repeats` repeats, each running
//! both modes back-to-back in alternating order), the median of the
//! per-repeat speedups, the CPU count, the geometric mean speedup over
//! the multi-application workloads, and a cross-check
//! pass (`verify_deps`) asserting the incrementally-maintained graph
//! agrees with a fresh analysis after every application and that both
//! modes produce the same final program.
//!
//! Emits `BENCH_incremental.json` (override with `--out PATH`); `--smoke`
//! drops the repeat count for CI.
//!
//! Both modes run the chain the way a `Session` does: one
//! [`genesis::SessionCaches`] for the whole chain, with the catalog
//! [`genesis::FusedAutomaton`] built once up front when the default
//! matcher is fused.
//!
//! `gospel-bench match` runs the matcher comparison two ways: the full
//! anchor scan and the fused catalog automaton, with dependence
//! maintenance held incremental in both arms so the delta is the match
//! phase alone. It cross-checks that the fused matcher binds the scan's
//! application points and lands on the same final program, times the
//! match phase via the driver's `driver.search_ns`/`driver.pattern_ns`
//! histograms, measures batch throughput at 1/2/4 threads through
//! [`genesis::run_batch`], and emits `BENCH_match.json`.
//! `--scan-gate 1.05` exits nonzero if the fused match-phase geomean
//! falls below 1/1.05 of the scan; `--fused-gate 1.0` exits nonzero if
//! the fused *wall-clock* geomean falls below the scan's.

use genesis::{
    ApplyMode, ApplyReport, Bindings, Driver, FusedAutomaton, MatcherKind, RunError, SessionCaches,
};
use gospel_ir::{DisplayProgram, Program};
use gospel_trace::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// The optimizer chain: constant propagation cascades, copy propagation
/// follows, invariant code motion and loop fusion restructure, dead-code
/// elimination and control-flow cleanup finish — the enablement sequence
/// of the §4 ordering experiments, sized like a real constructor session
/// (each optimizer in the chain forces the seed driver to re-analyze,
/// while the incremental driver carries one graph across the whole
/// session).
const SEQUENCE: [&str; 6] = ["CTP", "CPP", "ICM", "FUS", "DCE", "CFO"];

struct ModeRun {
    prog: Program,
    applications: usize,
    incremental_updates: usize,
    full_recomputes: usize,
    dep_dirty_syms: usize,
    dep_edges_dropped: usize,
    dep_edges_added: usize,
}

/// Runs the optimizer chain over one program the way a `Session` does:
/// one [`SessionCaches`] carried across the chain, with the catalog
/// automaton built once up front under the fused matcher (the drivers
/// then keep it current by delta replay). `incremental` picks the
/// dependence maintenance; full mode drops the carried graph before each
/// optimizer, so every driver re-analyzes as the seed driver did. With a
/// recorder attached every driver emits the full structured-event
/// stream; `trace_sample` keeps one in N attempt spans, as in production
/// tracing. Returns the final program and one report per optimizer.
fn run_chain(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    matcher: MatcherKind,
    incremental: bool,
    verify: bool,
    recorder: Option<&Arc<Recorder>>,
    trace_sample: u64,
) -> Result<(Program, Vec<ApplyReport>), RunError> {
    let mut prog = base.clone();
    let mut reports = Vec::with_capacity(opts.len());
    let mut caches = SessionCaches::new();
    if matcher == MatcherKind::Fused {
        caches.automaton = Some(FusedAutomaton::build(opts, &prog));
    }
    for opt in opts {
        let mut d = Driver::new(opt);
        d.incremental_deps = incremental;
        d.verify_deps = verify;
        d.matcher = matcher;
        d.recorder = recorder.cloned();
        d.trace_sample = trace_sample;
        if !incremental {
            caches.deps = None;
        }
        reports.push(d.apply_with(&mut prog, ApplyMode::AllPoints, &mut caches)?);
    }
    Ok((prog, reports))
}

/// Runs the whole sequence over one program in the given dependence
/// mode, under the session's default matcher (see [`run_chain`]).
fn run_sequence(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    incremental: bool,
    verify: bool,
    recorder: Option<&Arc<Recorder>>,
    trace_sample: u64,
) -> Result<ModeRun, RunError> {
    let (prog, reports) = run_chain(
        base,
        opts,
        genesis::matcher_default(),
        incremental,
        verify,
        recorder,
        trace_sample,
    )?;
    let mut total = ModeRun {
        prog,
        applications: 0,
        incremental_updates: 0,
        full_recomputes: 0,
        dep_dirty_syms: 0,
        dep_edges_dropped: 0,
        dep_edges_added: 0,
    };
    for report in reports {
        total.applications += report.applications;
        total.incremental_updates += report.incremental_updates;
        total.full_recomputes += report.full_recomputes;
        total.dep_dirty_syms += report.dep_dirty_syms;
        total.dep_edges_dropped += report.dep_edges_dropped;
        total.dep_edges_added += report.dep_edges_added;
    }
    Ok(total)
}

/// Times the sequence in both dependence modes over `repeats` repeats.
/// The two arms run back-to-back inside each repeat, alternating which
/// goes first, so drift in the machine's speed hits both alike (as in
/// [`measure_trace_overhead`]). Returns each arm's minimum wall time in
/// nanoseconds and the median over repeats of the per-repeat
/// full/incremental ratio.
fn time_modes(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    repeats: usize,
) -> Result<(u128, u128, f64), RunError> {
    let time = |incremental: bool| -> Result<u128, RunError> {
        let started = Instant::now();
        run_sequence(base, opts, incremental, false, None, 1)?;
        Ok(started.elapsed().as_nanos())
    };
    let (mut full_min, mut incr_min) = (u128::MAX, u128::MAX);
    let mut ratios = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let (full, incr) = if rep % 2 == 0 {
            let full = time(false)?;
            (full, time(true)?)
        } else {
            let incr = time(true)?;
            (time(false)?, incr)
        };
        full_min = full_min.min(full);
        incr_min = incr_min.min(incr);
        ratios.push(full as f64 / incr.max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios.get(ratios.len() / 2).copied().unwrap_or(1.0);
    Ok((full_min, incr_min, median))
}

struct Row {
    name: &'static str,
    applications: usize,
    incremental_updates: usize,
    full_recomputes: usize,
    dep_dirty_syms: usize,
    dep_edges_dropped: usize,
    dep_edges_added: usize,
    full_ns: u128,
    incr_ns: u128,
    /// Ratio of the two arms' minimum wall times.
    speedup: f64,
    /// Median of the per-repeat full/incremental ratios.
    median_speedup: f64,
    verified: bool,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn emit_json(
    rows: &[Row],
    repeats: usize,
    geomean: f64,
    multi: usize,
    overhead: Option<(u128, u128, f64)>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"incremental\",\n");
    out.push_str(&format!(
        "  \"sequence\": [{}],\n",
        SEQUENCE
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!("  \"cpus\": {cpus},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"applications\": {}, \"incremental_updates\": {}, \
             \"full_recomputes\": {}, \"dep_dirty_syms\": {}, \"dep_edges_dropped\": {}, \
             \"dep_edges_added\": {}, \"full_ns\": {}, \"incremental_ns\": {}, \
             \"speedup\": {:.3}, \"median_speedup\": {:.3}, \"verified\": {}}}{}\n",
            json_escape(r.name),
            r.applications,
            r.incremental_updates,
            r.full_recomputes,
            r.dep_dirty_syms,
            r.dep_edges_dropped,
            r.dep_edges_added,
            r.full_ns,
            r.incr_ns,
            r.speedup,
            r.median_speedup,
            r.verified,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"multi_application_workloads\": {multi},\n  \"geomean_speedup_multi\": {geomean:.3}"
    ));
    if let Some((bare_ns, traced_ns, pct)) = overhead {
        out.push_str(&format!(
            ",\n  \"trace_overhead\": {{\"bare_ns\": {bare_ns}, \"traced_ns\": {traced_ns}, \
             \"overhead_pct\": {pct:.3}}}"
        ));
    }
    out.push_str("\n}\n");
    out
}

/// Measures tracing overhead over the same work the benchmark times —
/// both full-recompute and incremental modes across all workloads, with
/// and without a live recorder streaming every event. Returns
/// (bare_ns, traced_ns, overhead_pct).
///
/// Statistic: per (workload, mode) cell, the bare/traced arms run
/// back-to-back inside each repeat, so the per-repeat *ratio* is immune
/// to the slow clock-frequency drift that makes two independently
/// minimized arms incomparable on a busy machine; the per-cell ratio is
/// the median over repeats, and the overall percentage time-weights the
/// cell ratios by the cell's bare minimum.
fn measure_trace_overhead(
    suite: &[(&'static str, Program)],
    opts: &[genesis::CompiledOptimizer],
    repeats: usize,
    trace_sample: u64,
) -> (u128, u128, f64) {
    let rec = Arc::new(Recorder::new());
    // More repeats than the timing table uses: the gate compares two
    // nearly-equal quantities, so its median needs a wide sample.
    let repeats = repeats.max(50);
    let mut bare_total: u128 = 0;
    let mut traced_est: f64 = 0.0;
    for (name, base) in suite {
        for incremental in [false, true] {
            // Untimed warmup so neither arm pays first-touch costs.
            run_sequence(base, opts, incremental, false, None, 1)
                .unwrap_or_else(|e| panic!("{name}: overhead warmup run failed: {e}"));
            let mut bare_min = u128::MAX;
            let mut ratios = Vec::with_capacity(repeats);
            for rep in 0..repeats {
                // Alternate which arm goes first: the second slot of a
                // back-to-back pair runs warmer, and always giving it to
                // the same arm would bias the ratio.
                let traced_first = rep % 2 == 1;
                let time_arm = |traced: bool| -> u128 {
                    let r = if traced { Some(&rec) } else { None };
                    let t = Instant::now();
                    run_sequence(base, opts, incremental, false, r, trace_sample)
                        .unwrap_or_else(|e| panic!("{name}: overhead run failed: {e}"));
                    let ns = t.elapsed().as_nanos();
                    if traced {
                        rec.drain_events();
                    }
                    ns
                };
                let (bare, traced) = if traced_first {
                    let t = time_arm(true);
                    (time_arm(false), t)
                } else {
                    let b = time_arm(false);
                    (b, time_arm(true))
                };
                bare_min = bare_min.min(bare);
                if bare > 0 {
                    ratios.push(traced as f64 / bare as f64);
                }
            }
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = ratios.get(ratios.len() / 2).copied().unwrap_or(1.0);
            bare_total += bare_min;
            traced_est += bare_min as f64 * median;
        }
    }
    let pct = if bare_total == 0 {
        0.0
    } else {
        (traced_est / bare_total as f64 - 1.0) * 100.0
    };
    (bare_total, traced_est as u128, pct)
}

// ---------------------------------------------------------------------------
// `match` mode: scan vs fused candidate search.
// ---------------------------------------------------------------------------

/// One full sequence over one program under one matcher. Dependence
/// maintenance is incremental in both arms and both carry one
/// [`SessionCaches`] across the optimizer chain, so the only work that
/// differs between them is the match phase itself.
struct MatchRun {
    prog: Program,
    applications: usize,
    anchor_visits: u64,
    candidates_pruned: u64,
    /// Per-optimizer application bindings, for the differential cross-check.
    points: Vec<Vec<Bindings>>,
}

fn run_match_sequence(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    matcher: MatcherKind,
    recorder: Option<&Arc<Recorder>>,
) -> Result<MatchRun, RunError> {
    let (prog, reports) = run_chain(base, opts, matcher, true, false, recorder, 1)?;
    let mut total = MatchRun {
        prog,
        applications: 0,
        anchor_visits: 0,
        candidates_pruned: 0,
        points: Vec::with_capacity(reports.len()),
    };
    for report in reports {
        total.applications += report.applications;
        total.anchor_visits += report.cost.anchor_visits;
        total.candidates_pruned += report.candidates_pruned;
        total.points.push(report.points);
    }
    Ok(total)
}

/// Minimum (wall_ns, search_ns, match_ns) over `repeats` runs, read from
/// the driver's per-attempt histograms: `driver.search_ns` is the whole
/// precondition search (pattern + dependence phases), `driver.pattern_ns`
/// the pattern-matching phase alone — candidate enumeration plus clause
/// format evaluation, the part the automaton replaces. Every arm
/// carries the same recorder and timer overhead, so the ratios are
/// apples-to-apples.
fn time_match_mode(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    matcher: MatcherKind,
    repeats: usize,
) -> Result<(u128, u64, u64), RunError> {
    let mut best_wall = u128::MAX;
    let mut best_search = u64::MAX;
    let mut best_match = u64::MAX;
    for _ in 0..repeats {
        let rec = Arc::new(Recorder::new());
        let started = Instant::now();
        run_match_sequence(base, opts, matcher, Some(&rec))?;
        let wall = started.elapsed().as_nanos();
        let hist = |name: &str| {
            rec.histograms()
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| h.sum)
                .unwrap_or(0)
        };
        best_wall = best_wall.min(wall);
        best_search = best_search.min(hist("driver.search_ns"));
        best_match = best_match.min(hist("driver.pattern_ns"));
    }
    Ok((best_wall, best_search, best_match))
}

/// Per-matcher timing triple: (wall_ns, search_ns, match_ns).
type MatchTimes = (u128, u64, u64);

struct MatchRow {
    name: &'static str,
    applications: usize,
    scan_visits: u64,
    fused_visits: u64,
    candidates_pruned: u64,
    scan: MatchTimes,
    fused: MatchTimes,
    /// scan match-phase ns over fused match-phase ns.
    fused_match_speedup: f64,
    /// scan wall ns over fused wall ns — the end-to-end win the fused
    /// automaton has to deliver.
    fused_wall_speedup: f64,
}

fn emit_match_json(
    rows: &[MatchRow],
    seq: &[String],
    repeats: usize,
    geomeans: (f64, f64),
    items: usize,
    batch: &[(usize, u128)],
) -> String {
    let (fused_match_geomean, fused_wall_geomean) = geomeans;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"match\",\n");
    out.push_str("  \"matchers\": [\"scan\", \"fused\"],\n");
    out.push_str(&format!(
        "  \"sequence\": [{}],\n",
        seq.iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("  \"repeats\": {repeats},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"applications\": {}, \"scan_anchor_visits\": {}, \
             \"fused_anchor_visits\": {}, \"candidates_pruned\": {}, \
             \"scan_wall_ns\": {}, \"fused_wall_ns\": {}, \
             \"scan_search_ns\": {}, \"fused_search_ns\": {}, \
             \"scan_match_ns\": {}, \"fused_match_ns\": {}, \
             \"fused_match_speedup\": {:.3}, \
             \"fused_wall_speedup\": {:.3}, \"bindings_checked\": true}}{}\n",
            json_escape(r.name),
            r.applications,
            r.scan_visits,
            r.fused_visits,
            r.candidates_pruned,
            r.scan.0,
            r.fused.0,
            r.scan.1,
            r.fused.1,
            r.scan.2,
            r.fused.2,
            r.fused_match_speedup,
            r.fused_wall_speedup,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"geomean_fused_match_speedup\": {fused_match_geomean:.3},\n"
    ));
    out.push_str(&format!(
        "  \"geomean_fused_wall_speedup\": {fused_wall_geomean:.3},\n"
    ));
    out.push_str("  \"batch\": {\n");
    out.push_str(&format!("    \"items\": {items},\n    \"threads\": [\n"));
    for (i, (threads, ns)) in batch.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"threads\": {threads}, \"wall_ns\": {ns}}}{}\n",
            if i + 1 == batch.len() { "" } else { "," }
        ));
    }
    out.push_str("    ],\n");
    let base = batch.first().map(|&(_, ns)| ns).unwrap_or(1).max(1);
    let best = batch.last().map(|&(_, ns)| ns).unwrap_or(1).max(1);
    out.push_str(&format!(
        "    \"speedup_4_over_1\": {:.3}\n  }}\n}}\n",
        base as f64 / best as f64
    ));
    out
}

/// Each workload appears this many times in the batch-scaling measurement,
/// so the pool has enough items to keep every worker busy.
const BATCH_REPLICAS: usize = 2;

fn batch_items(suite: &[(&'static str, Program)]) -> Vec<genesis::BatchItem> {
    let mut items = Vec::with_capacity(suite.len() * BATCH_REPLICAS);
    for rep in 0..BATCH_REPLICAS {
        for (name, prog) in suite {
            items.push(genesis::BatchItem {
                label: format!("{name}#{rep}"),
                prog: prog.clone(),
            });
        }
    }
    items
}

fn run_match_bench(args: &[String]) {
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path = String::from("BENCH_match.json");
    let mut repeats = if smoke { 3 } else { 30 };
    let mut scan_gate: Option<f64> = None;
    let mut fused_gate: Option<f64> = None;
    let mut seq: Vec<String> = SEQUENCE.iter().map(|s| s.to_string()).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seq" => {
                seq = it
                    .next()
                    .map(|v| v.split(',').map(str::to_string).collect())
                    .unwrap_or_else(|| {
                        eprintln!("--seq needs a comma-separated optimizer list");
                        std::process::exit(2);
                    });
            }
            "--out" => {
                out_path = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--repeats" => {
                repeats = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--repeats needs a positive integer");
                    std::process::exit(2);
                });
            }
            "--scan-gate" => {
                scan_gate = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--scan-gate needs a ratio (e.g. 1.05)");
                    std::process::exit(2);
                }));
            }
            "--fused-gate" => {
                fused_gate = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--fused-gate needs a ratio (e.g. 1.0)");
                    std::process::exit(2);
                }));
            }
            "--smoke" => {}
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --seq A,B | --out PATH | --repeats N | --smoke | --scan-gate RATIO | --fused-gate RATIO)"
                );
                std::process::exit(2);
            }
        }
    }

    let opts: Vec<_> = seq.iter().map(|n| gospel_opts::by_name(n)).collect();
    let suite = gospel_workloads::suite();
    let mut rows = Vec::new();

    for (name, base) in &suite {
        // Differential cross-check (untimed): the fused matcher must find
        // exactly the bindings the scanning searcher finds, in the same
        // order, application by application, and land on the same final
        // program.
        let scan = run_match_sequence(base, &opts, MatcherKind::Scan, None)
            .unwrap_or_else(|e| panic!("{name}: scan-mode run failed: {e}"));
        let fused = run_match_sequence(base, &opts, MatcherKind::Fused, None)
            .unwrap_or_else(|e| panic!("{name}: fused-mode run failed: {e}"));
        assert_eq!(
            scan.points, fused.points,
            "{name}: fused search bound different application points than the scan"
        );
        assert!(
            DisplayProgram(&scan.prog).to_string() == DisplayProgram(&fused.prog).to_string()
                && scan.applications == fused.applications,
            "{name}: modes disagree (scan {} apps, fused {} apps)",
            scan.applications,
            fused.applications
        );

        let time = |matcher: MatcherKind| {
            time_match_mode(base, &opts, matcher, repeats).unwrap_or_else(|e| {
                panic!("{name}: timing {} mode failed: {e}", matcher.as_str())
            })
        };
        let scan_t = time(MatcherKind::Scan);
        let fused_t = time(MatcherKind::Fused);
        rows.push(MatchRow {
            name,
            applications: fused.applications,
            scan_visits: scan.anchor_visits,
            fused_visits: fused.anchor_visits,
            candidates_pruned: fused.candidates_pruned,
            scan: scan_t,
            fused: fused_t,
            fused_match_speedup: scan_t.2 as f64 / fused_t.2.max(1) as f64,
            fused_wall_speedup: scan_t.0 as f64 / fused_t.0.max(1) as f64,
        });
    }

    let geomean_of = |f: &dyn Fn(&MatchRow) -> f64| {
        (rows.iter().map(|r| f(r).ln()).sum::<f64>() / rows.len() as f64).exp()
    };
    let fused_match_geomean = geomean_of(&|r| r.fused_match_speedup);
    let fused_wall_geomean = geomean_of(&|r| r.fused_wall_speedup);

    println!(
        "{:<12} {:>5} {:>8} {:>8} {:>11} {:>11} {:>8} {:>8}",
        "workload", "apps", "scan-av", "fus-av", "scan-match", "fus-match", "fus-spd", "fus-wall"
    );
    for r in &rows {
        println!(
            "{:<12} {:>5} {:>8} {:>8} {:>11} {:>11} {:>7.2}x {:>7.2}x",
            r.name,
            r.applications,
            r.scan_visits,
            r.fused_visits,
            r.scan.2,
            r.fused.2,
            r.fused_match_speedup,
            r.fused_wall_speedup
        );
    }
    println!(
        "geomean over {} workloads: fused match phase {:.2}x, fused wall {:.2}x",
        rows.len(),
        fused_match_geomean,
        fused_wall_geomean
    );

    // Batch scaling: the whole suite (replicated) through the parallel
    // batch driver at 1, 2 and 4 threads, fused matcher on.
    let options = genesis::SessionOptions {
        matcher: MatcherKind::Fused,
        ..Default::default()
    };
    let seq_names: Vec<&str> = seq.iter().map(String::as_str).collect();
    let mut batch = Vec::new();
    for threads in [1usize, 2, 4] {
        let mut best = u128::MAX;
        for _ in 0..repeats.min(10) {
            let items = batch_items(&suite);
            let started = Instant::now();
            let out = genesis::run_batch(
                items,
                &opts,
                &seq_names,
                options,
                &genesis::BatchPolicy::default(),
                threads,
                None,
            );
            best = best.min(started.elapsed().as_nanos());
            assert!(
                out.iter().all(|o| o.status.is_done()),
                "batch run failed at {threads} thread(s)"
            );
        }
        println!("batch of {} items at {threads} thread(s): {best} ns", suite.len() * BATCH_REPLICAS);
        batch.push((threads, best));
    }

    let json = emit_match_json(
        &rows,
        &seq,
        repeats,
        (fused_match_geomean, fused_wall_geomean),
        suite.len() * BATCH_REPLICAS,
        &batch,
    );
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");

    if let Some(gate) = scan_gate {
        if fused_match_geomean < 1.0 / gate {
            eprintln!(
                "error: fused match-phase geomean {fused_match_geomean:.3}x vs scan is slower \
                 than the 1/{gate} gate"
            );
            std::process::exit(1);
        }
    }
    if let Some(gate) = fused_gate {
        if fused_wall_geomean < gate {
            eprintln!(
                "error: fused matcher wall-clock geomean {fused_wall_geomean:.3}x vs scan is \
                 below the {gate} gate"
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("match") {
        args.remove(0);
        run_match_bench(&args);
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_path = String::from("BENCH_incremental.json");
    let mut repeats = if smoke { 3 } else { 30 };
    let mut trace_gate: Option<f64> = None;
    let mut trace_sample: u64 = 1;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = it.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            "--repeats" => {
                repeats = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("--repeats needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--trace-gate" => {
                trace_gate = Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--trace-gate needs a percentage (e.g. 5)");
                    std::process::exit(2);
                }));
            }
            "--trace-sample" => {
                trace_sample = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|n: &u64| *n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--trace-sample needs a positive integer (keep 1 in N attempt spans)");
                        std::process::exit(2);
                    });
            }
            "--smoke" => {}
            other => {
                eprintln!(
                    "unknown flag `{other}` (expected --out PATH | --repeats N | --smoke | --trace-gate PCT | --trace-sample N)"
                );
                std::process::exit(2);
            }
        }
    }

    let opts: Vec<_> = SEQUENCE.iter().map(|n| gospel_opts::by_name(n)).collect();
    let suite = gospel_workloads::suite();
    let mut rows = Vec::new();

    for (name, base) in &suite {
        // Cross-check pass (untimed): incremental with per-application
        // graph verification, compared against the full-recompute result.
        let full = run_sequence(base, &opts, false, false, None, 1)
            .unwrap_or_else(|e| panic!("{name}: full-mode run failed: {e}"));
        let incr = run_sequence(base, &opts, true, true, None, 1)
            .unwrap_or_else(|e| panic!("{name}: incremental graph diverged: {e}"));
        let same_prog = DisplayProgram(&full.prog).to_string()
            == DisplayProgram(&incr.prog).to_string();
        assert!(
            same_prog && full.applications == incr.applications,
            "{name}: modes disagree (full {} apps, incremental {} apps, programs equal: {})",
            full.applications,
            incr.applications,
            same_prog
        );
        // Regression gate: structural batches (the `interact` workload's
        // loop-restructuring edits especially) must be absorbed by
        // `DepGraph::update`'s signature-diff path, never by falling back
        // to a full re-analysis mid-chain.
        assert_eq!(
            incr.full_recomputes, 0,
            "{name}: incremental mode fell back to {} full dependence recomputation(s)",
            incr.full_recomputes
        );

        let (full_ns, incr_ns, median_speedup) = time_modes(base, &opts, repeats)
            .unwrap_or_else(|e| panic!("{name}: timing failed: {e}"));
        rows.push(Row {
            name,
            applications: incr.applications,
            incremental_updates: incr.incremental_updates,
            full_recomputes: incr.full_recomputes,
            dep_dirty_syms: incr.dep_dirty_syms,
            dep_edges_dropped: incr.dep_edges_dropped,
            dep_edges_added: incr.dep_edges_added,
            full_ns,
            incr_ns,
            speedup: full_ns as f64 / incr_ns.max(1) as f64,
            median_speedup,
            verified: true,
        });
    }

    let multi: Vec<&Row> = rows.iter().filter(|r| r.applications >= 2).collect();
    let geomean = if multi.is_empty() {
        1.0
    } else {
        (multi.iter().map(|r| r.speedup.ln()).sum::<f64>() / multi.len() as f64).exp()
    };

    println!(
        "{:<12} {:>5} {:>6} {:>5} {:>12} {:>12} {:>8} {:>8}",
        "workload", "apps", "incr", "full", "full (ns)", "incr (ns)", "speedup", "median"
    );
    for r in &rows {
        println!(
            "{:<12} {:>5} {:>6} {:>5} {:>12} {:>12} {:>7.2}x {:>7.2}x",
            r.name,
            r.applications,
            r.incremental_updates,
            r.full_recomputes,
            r.full_ns,
            r.incr_ns,
            r.speedup,
            r.median_speedup
        );
    }
    println!(
        "geomean speedup over {} multi-application workloads: {:.2}x",
        multi.len(),
        geomean
    );

    let overhead = trace_gate.map(|limit| {
        let (bare_ns, traced_ns, pct) =
            measure_trace_overhead(&suite, &opts, repeats, trace_sample);
        println!(
            "trace overhead: {pct:.2}% (bare {bare_ns} ns, traced {traced_ns} ns, \
             limit {limit}%, sample 1/{trace_sample})"
        );
        (bare_ns, traced_ns, pct)
    });

    let json = emit_json(&rows, repeats, geomean, multi.len(), overhead);
    std::fs::write(&out_path, json).unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");

    if let (Some(limit), Some((_, _, pct))) = (trace_gate, overhead) {
        if pct > limit {
            eprintln!("error: tracing overhead {pct:.2}% exceeds the {limit}% gate");
            std::process::exit(1);
        }
    }
}
