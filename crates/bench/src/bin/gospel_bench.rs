//! `gospel-bench` — dependence maintenance, matching and recording over
//! one optimizer chain, with three timing gates.
//!
//! ```text
//! gospel-bench [--smoke] [--out PATH]
//! ```
//!
//! Runs a chain-heavy optimizer sequence ([`SEQUENCE`]) over the ten
//! workload programs. An untimed cross-check pass per workload asserts
//! that the incrementally maintained dependence graph equals a fresh
//! analysis after every application (`verify_deps`), that full-recompute
//! and incremental runs reach the same final program with the same
//! application count, that incremental mode never falls back to a full
//! recompute, and that the scan and the fused matcher bind the same
//! points at every application and reach the same final program.
//!
//! It then times three pairs of arms with one procedure ([`time_pair`]):
//! full → incremental dependence maintenance, scan → fused matching, and
//! the bare driver → the driver recording into a live trace. It writes
//! one row per workload to `BENCH_gospel.json` (or `--out PATH`), and
//! decides the [`GATES`] through [`compare_metrics`], the rule
//! `genesis-opt report --baseline` uses: each regression is printed and
//! the exit status is 1. `--smoke` drops the repeat count from 30 to 3.
//!
//! Every arm runs the chain the way a `Session` does: one
//! [`genesis::SessionCaches`] for the whole chain, with the catalog
//! [`genesis::FusedAutomaton`] built once up front under the fused
//! matcher.

use genesis::{
    ApplyMode, ApplyReport, Driver, FusedAutomaton, MatcherKind, SessionCaches, SessionOptions,
};
use gospel_ir::{DisplayProgram, Program};
use gospel_trace::report::{compare_metrics, Regression};
use gospel_trace::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// The traced arm keeps one in this many attempt spans, as production
/// tracing does.
const TRACE_SAMPLE: u64 = 4;

/// The recording gate compares two nearly equal times, so its median
/// needs more repeats than the other pairs.
const TRACE_REPEATS: usize = 50;

/// One timing gate: the `current` arm's aggregate of `metric` may exceed
/// the `baseline` arm's by at most `threshold_pct` percent.
struct Gate {
    metric: &'static str,
    baseline: &'static str,
    current: &'static str,
    threshold_pct: f64,
}

/// The gates. Arm aggregates: `bare`/`traced` sum each (workload,
/// dependence mode) cell's bare minimum, against the same sum with each
/// cell scaled by its median traced/bare ratio; `scan`/`fused` take the
/// geometric mean over workloads of each arm's minimum.
const GATES: [Gate; 3] = [
    // Recording a trace adds at most 5% to the bare driver's wall time.
    Gate {
        metric: "wall_ns",
        baseline: "bare",
        current: "traced",
        threshold_pct: 5.0,
    },
    // The fused automaton's pattern phase is at most 5% slower than the
    // scan it replaces...
    Gate {
        metric: "driver.pattern_ns",
        baseline: "scan",
        current: "fused",
        threshold_pct: 5.0,
    },
    // ...and the whole chain is no slower under it.
    Gate {
        metric: "wall_ns",
        baseline: "scan",
        current: "fused",
        threshold_pct: 0.0,
    },
];

/// Decides every gate over `aggregates` (keyed `<arm>.<metric>`); each
/// regression names its metric `<baseline>-><current>.<metric>`.
fn check_gates(aggregates: &BTreeMap<String, u64>) -> Vec<Regression> {
    GATES
        .iter()
        .flat_map(|g| {
            let key = format!("{}->{}.{}", g.baseline, g.current, g.metric);
            let arm = |arm: &str| {
                let value = aggregates[&format!("{arm}.{}", g.metric)];
                BTreeMap::from([(key.clone(), value)])
            };
            compare_metrics(&arm(g.current), &arm(g.baseline), g.threshold_pct)
        })
        .collect()
}

/// Runs the optimizer chain over one program. `incremental` picks the
/// dependence maintenance; full mode drops the carried graph before each
/// optimizer, so every driver re-analyzes as the seed driver did. With a
/// recorder attached every driver emits the full structured-event
/// stream, keeping one in `trace_sample` attempt spans.
///
/// # Panics
///
/// Panics, naming the chain, if a driver fails.
fn run_chain(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    matcher: MatcherKind,
    incremental: bool,
    verify: bool,
    recorder: Option<&Arc<Recorder>>,
    trace_sample: u64,
) -> (Program, Vec<ApplyReport>) {
    let mut prog = base.clone();
    let mut reports = Vec::with_capacity(opts.len());
    let mut caches = SessionCaches::new();
    if matcher == MatcherKind::Fused {
        caches.automaton = Some(FusedAutomaton::build(opts, &prog));
    }
    // A verified chain is an oracle: a divergence the verifier finds must
    // fail it, not heal.
    let options = SessionOptions {
        incremental_deps: incremental,
        verify_deps: verify,
        degraded_recovery: false,
        matcher,
        trace_sample,
        ..SessionOptions::default()
    };
    for opt in opts {
        let mut d = Driver::new(opt);
        d.options = options;
        d.recorder = recorder.cloned();
        if !incremental {
            caches.deps = None;
        }
        let report = d
            .apply_with(&mut prog, ApplyMode::AllPoints, &mut caches)
            .unwrap_or_else(|e| {
                panic!(
                    "{} matcher, {} deps: {}: {e}",
                    matcher.as_str(),
                    if incremental { "incremental" } else { "full" },
                    opt.name
                )
            });
        reports.push(report);
    }
    (prog, reports)
}

/// The sum of one report field over a chain.
fn total(reports: &[ApplyReport], field: impl Fn(&ApplyReport) -> u64) -> u64 {
    reports.iter().map(field).sum()
}

/// Wall time of one unverified [`run_chain`].
fn timed(
    base: &Program,
    opts: &[genesis::CompiledOptimizer],
    matcher: MatcherKind,
    incremental: bool,
    recorder: Option<&Arc<Recorder>>,
    trace_sample: u64,
) -> u64 {
    let started = Instant::now();
    run_chain(
        base,
        opts,
        matcher,
        incremental,
        false,
        recorder,
        trace_sample,
    );
    started.elapsed().as_nanos() as u64
}

/// What one timed run of an arm measured.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Sample {
    wall_ns: u64,
    /// The driver's pattern-phase total, for arms that record it.
    pattern_ns: u64,
}

impl Sample {
    const MAX: Sample = Sample {
        wall_ns: u64::MAX,
        pattern_ns: u64::MAX,
    };

    fn wall(wall_ns: u64) -> Sample {
        Sample {
            wall_ns,
            pattern_ns: 0,
        }
    }

    fn min(self, other: Sample) -> Sample {
        Sample {
            wall_ns: self.wall_ns.min(other.wall_ns),
            pattern_ns: self.pattern_ns.min(other.pattern_ns),
        }
    }
}

/// One arm pair's timing: each arm's minimum of every measured quantity
/// over the repeats, and the median over repeats of the per-repeat
/// current/baseline wall-time ratio.
struct PairTiming {
    baseline: Sample,
    current: Sample,
    median_ratio: f64,
}

/// Times a pair of arms. `run(current)` runs the baseline arm (`false`)
/// or the current arm (`true`) once and reports what it measured. After
/// one untimed warm-up run of each arm, every repeat runs the two arms
/// back-to-back, alternating which goes first, so drift in the machine's
/// speed and the warmer second slot hit both alike.
fn time_pair(repeats: usize, mut run: impl FnMut(bool) -> Sample) -> PairTiming {
    run(false);
    run(true);
    let (mut baseline, mut current) = (Sample::MAX, Sample::MAX);
    let mut ratios = Vec::with_capacity(repeats);
    for rep in 0..repeats {
        let (b, c) = if rep % 2 == 0 {
            let b = run(false);
            (b, run(true))
        } else {
            let c = run(true);
            (run(false), c)
        };
        baseline = baseline.min(b);
        current = current.min(c);
        ratios.push(c.wall_ns as f64 / b.wall_ns.max(1) as f64);
    }
    ratios.sort_by(f64::total_cmp);
    PairTiming {
        baseline,
        current,
        median_ratio: ratios.get(ratios.len() / 2).copied().unwrap_or(1.0),
    }
}

/// One workload's row of `BENCH_gospel.json`.
struct Row {
    name: &'static str,
    /// Chain totals of the verified runs, applications first.
    counts: [(&'static str, u64); 9],
    deps: PairTiming,
    matchers: PairTiming,
    /// Bare and traced wall time, each summed over the two dependence
    /// modes (the traced time as the bare minimum × the median ratio).
    bare_ns: u64,
    traced_ns: f64,
}

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// A JSON array body of quoted strings (none needs escaping).
fn quoted<T: std::fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
    let items: Vec<String> = items.into_iter().map(|s| format!("\"{s}\"")).collect();
    items.join(", ")
}

fn emit_json(
    rows: &[Row],
    repeats: usize,
    aggregates: &BTreeMap<String, u64>,
    regressions: &[Regression],
) -> String {
    let mut out = String::from("{\n  \"bench\": \"gospel\",\n");
    let _ = writeln!(out, "  \"sequence\": [{}],", quoted(SEQUENCE));
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let _ = writeln!(
        out,
        "  \"repeats\": {repeats},\n  \"trace_repeats\": {},\n  \"trace_sample\": {TRACE_SAMPLE},\n  \"cpus\": {cpus},\n  \"workloads\": [",
        repeats.max(TRACE_REPEATS)
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{}\"", r.name);
        for (key, value) in r.counts {
            let _ = write!(out, ", \"{key}\": {value}");
        }
        let (d, m) = (&r.deps, &r.matchers);
        let _ = write!(
            out,
            ", \"full_ns\": {}, \"incremental_ns\": {}, \"speedup\": {:.3}, \
             \"median_speedup\": {:.3}, \"scan_wall_ns\": {}, \"fused_wall_ns\": {}, \
             \"scan_pattern_ns\": {}, \"fused_pattern_ns\": {}, \
             \"fused_pattern_speedup\": {:.3}, \"fused_wall_speedup\": {:.3}, \
             \"median_fused_wall_speedup\": {:.3}, \"bare_ns\": {}, \"traced_ns\": {:.0}}}",
            d.baseline.wall_ns,
            d.current.wall_ns,
            d.baseline.wall_ns as f64 / d.current.wall_ns.max(1) as f64,
            1.0 / d.median_ratio,
            m.baseline.wall_ns,
            m.current.wall_ns,
            m.baseline.pattern_ns,
            m.current.pattern_ns,
            m.baseline.pattern_ns as f64 / m.current.pattern_ns.max(1) as f64,
            m.baseline.wall_ns as f64 / m.current.wall_ns.max(1) as f64,
            1.0 / m.median_ratio,
            r.bare_ns,
            r.traced_ns,
        );
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ],\n  \"aggregates\": {");
    for (i, (key, value)) in aggregates.iter().enumerate() {
        let _ = write!(out, "{}\"{key}\": {value}", if i == 0 { "" } else { ", " });
    }
    let _ = writeln!(out, "}},\n  \"regressions\": [{}]\n}}", quoted(regressions));
    out
}

fn main() {
    let mut smoke = false;
    let mut out_path = String::from("BENCH_gospel.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown flag `{other}` (expected --smoke | --out PATH)");
                std::process::exit(2);
            }
        }
    }
    let repeats = if smoke { 3 } else { 30 };

    let opts: Vec<_> = SEQUENCE.iter().map(|n| gospel_opts::by_name(n)).collect();
    let suite = gospel_workloads::suite();
    // One recorder for every traced run: the 1-in-N sampling phase runs
    // on across runs, as in a long-lived traced session.
    let rec = Arc::new(Recorder::new());
    let mut rows = Vec::new();

    for (name, base) in &suite {
        let text = |p: &Program| DisplayProgram(p).to_string();
        let (full, full_reports) =
            run_chain(base, &opts, MatcherKind::Fused, false, false, None, 1);
        let (incr, incr_reports) = run_chain(base, &opts, MatcherKind::Fused, true, true, None, 1);
        let (scan, scan_reports) = run_chain(base, &opts, MatcherKind::Scan, true, false, None, 1);
        let sum = |field: fn(&ApplyReport) -> u64| total(&incr_reports, field);
        let apps = sum(|r| r.applications as u64);
        let full_apps = total(&full_reports, |r| r.applications as u64);
        let scan_apps = total(&scan_reports, |r| r.applications as u64);
        assert!(
            text(&full) == text(&incr) && full_apps == apps,
            "{name}: full and incremental modes disagree"
        );
        // Structural batches (the `interact` workload's loop-restructuring
        // edits especially) must be absorbed by `DepGraph::update`, never
        // by a full re-analysis mid-chain.
        let full_recomputes = sum(|r| r.full_recomputes as u64);
        assert_eq!(
            full_recomputes, 0,
            "{name}: incremental mode fell back to {full_recomputes} full recomputation(s)"
        );
        assert!(
            scan_reports
                .iter()
                .map(|r| &r.points)
                .eq(incr_reports.iter().map(|r| &r.points)),
            "{name}: fused search bound different application points than the scan"
        );
        assert!(
            text(&scan) == text(&incr) && scan_apps == apps,
            "{name}: scan and fused matchers disagree"
        );

        let deps = time_pair(repeats, |incremental| {
            Sample::wall(timed(base, &opts, MatcherKind::Fused, incremental, None, 1))
        });
        let matchers = time_pair(repeats, |fused| {
            let matcher = if fused {
                MatcherKind::Fused
            } else {
                MatcherKind::Scan
            };
            let run_rec = Arc::new(Recorder::new());
            let wall_ns = timed(base, &opts, matcher, true, Some(&run_rec), 1);
            let pattern_ns = run_rec
                .histograms()
                .into_iter()
                .find(|(n, _)| n == "driver.pattern_ns")
                .map_or(0, |(_, h)| h.sum);
            Sample {
                wall_ns,
                pattern_ns,
            }
        });
        let (mut bare_ns, mut traced_ns) = (0, 0.0);
        for incremental in [false, true] {
            let t = time_pair(repeats.max(TRACE_REPEATS), |traced| {
                let wall_ns = timed(
                    base,
                    &opts,
                    MatcherKind::Fused,
                    incremental,
                    traced.then_some(&rec),
                    TRACE_SAMPLE,
                );
                // Outside the timed region.
                rec.drain_events();
                Sample::wall(wall_ns)
            });
            bare_ns += t.baseline.wall_ns;
            traced_ns += t.baseline.wall_ns as f64 * t.median_ratio;
        }
        rows.push(Row {
            name,
            counts: [
                ("applications", apps),
                ("incremental_updates", sum(|r| r.incremental_updates as u64)),
                ("full_recomputes", full_recomputes),
                ("dep_dirty_syms", sum(|r| r.dep_dirty_syms as u64)),
                ("dep_edges_dropped", sum(|r| r.dep_edges_dropped as u64)),
                ("dep_edges_added", sum(|r| r.dep_edges_added as u64)),
                (
                    "scan_anchor_visits",
                    total(&scan_reports, |r| r.cost.anchor_visits),
                ),
                ("fused_anchor_visits", sum(|r| r.cost.anchor_visits)),
                ("candidates_pruned", sum(|r| r.candidates_pruned)),
            ],
            deps,
            matchers,
            bare_ns,
            traced_ns,
        });
    }

    let geo = |f: &dyn Fn(&Row) -> u64| geomean(rows.iter().map(|r| f(r) as f64)).round() as u64;
    let aggregates = BTreeMap::from([
        (
            "bare.wall_ns".to_string(),
            rows.iter().map(|r| r.bare_ns).sum(),
        ),
        (
            "traced.wall_ns".to_string(),
            rows.iter().map(|r| r.traced_ns).sum::<f64>() as u64,
        ),
        (
            "scan.wall_ns".to_string(),
            geo(&|r| r.matchers.baseline.wall_ns),
        ),
        (
            "fused.wall_ns".to_string(),
            geo(&|r| r.matchers.current.wall_ns),
        ),
        (
            "scan.driver.pattern_ns".to_string(),
            geo(&|r| r.matchers.baseline.pattern_ns),
        ),
        (
            "fused.driver.pattern_ns".to_string(),
            geo(&|r| r.matchers.current.pattern_ns),
        ),
    ]);

    println!(
        "{:<10} {:>4} {:>9} {:>9} {:>7} {:>9} {:>9} {:>7} {:>7}",
        "workload",
        "apps",
        "full-ns",
        "incr-ns",
        "speedup",
        "scan-pat",
        "fus-pat",
        "fus-wall",
        "trace%"
    );
    for r in &rows {
        println!(
            "{:<10} {:>4} {:>9} {:>9} {:>6.2}x {:>9} {:>9} {:>7.2}x {:>6.2}%",
            r.name,
            r.counts[0].1,
            r.deps.baseline.wall_ns,
            r.deps.current.wall_ns,
            1.0 / r.deps.median_ratio,
            r.matchers.baseline.pattern_ns,
            r.matchers.current.pattern_ns,
            1.0 / r.matchers.median_ratio,
            (r.traced_ns / r.bare_ns.max(1) as f64 - 1.0) * 100.0,
        );
    }
    println!(
        "geomean over {} workloads: incremental {:.2}x (min), fused pattern phase {:.2}x, fused wall {:.2}x",
        rows.len(),
        geomean(rows.iter().map(|r| r.deps.baseline.wall_ns as f64 / r.deps.current.wall_ns.max(1) as f64)),
        aggregates["scan.driver.pattern_ns"] as f64
            / aggregates["fused.driver.pattern_ns"].max(1) as f64,
        aggregates["scan.wall_ns"] as f64 / aggregates["fused.wall_ns"].max(1) as f64,
    );
    println!(
        "trace overhead: {:.2}% (sample 1/{TRACE_SAMPLE})",
        (aggregates["traced.wall_ns"] as f64 / aggregates["bare.wall_ns"].max(1) as f64 - 1.0)
            * 100.0
    );

    let regressions = check_gates(&aggregates);
    std::fs::write(
        &out_path,
        emit_json(&rows, repeats, &aggregates, &regressions),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    });
    println!("wrote {out_path}");
    for r in &regressions {
        eprintln!("regression: {r}");
    }
    if !regressions.is_empty() {
        std::process::exit(1);
    }
    println!("{} gates passed", GATES.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Aggregates where every gate sits exactly at its limit.
    fn at_limits() -> BTreeMap<String, u64> {
        [
            ("bare.wall_ns", 1_000_000),
            ("traced.wall_ns", 1_050_000),
            ("scan.driver.pattern_ns", 20_000),
            ("fused.driver.pattern_ns", 21_000),
            ("scan.wall_ns", 300_000),
            ("fused.wall_ns", 300_000),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }

    fn regressed(key: &str, value: u64) -> Vec<String> {
        let mut aggregates = at_limits();
        aggregates.insert(key.to_string(), value);
        check_gates(&aggregates)
            .into_iter()
            .map(|r| r.metric)
            .collect()
    }

    #[test]
    fn gates_hold_at_their_limits_and_name_the_metric_past_them() {
        assert!(check_gates(&at_limits()).is_empty());
        assert_eq!(
            regressed("traced.wall_ns", 1_051_000),
            ["bare->traced.wall_ns"]
        );
        assert_eq!(
            regressed("fused.driver.pattern_ns", 21_001),
            ["scan->fused.driver.pattern_ns"]
        );
        assert_eq!(regressed("fused.wall_ns", 300_001), ["scan->fused.wall_ns"]);
        // Faster current arms never regress.
        assert!(regressed("traced.wall_ns", 900_000).is_empty());
        assert!(regressed("fused.wall_ns", 1).is_empty());
    }

    #[test]
    fn time_pair_alternates_and_takes_minimums_and_the_median_ratio() {
        let mut order = Vec::new();
        let mut n = 0;
        let t = time_pair(4, |current| {
            order.push(current);
            n += 1;
            Sample::wall(if current { 200 + n } else { 100 })
        });
        // Warm-up, then baseline first on even repeats.
        assert_eq!(
            order,
            [false, true, false, true, true, false, false, true, true, false]
        );
        assert_eq!((t.baseline.wall_ns, t.current.wall_ns), (100, 204));
        assert!((t.median_ratio - 2.08).abs() < 1e-9, "{}", t.median_ratio);
    }
}
