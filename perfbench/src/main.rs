//! The repository benchmark: one closed-loop client on one thread drives
//! the library through one workload, checks every result against the
//! reference interpreter, and prints the metrics as one JSON line.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|scale|guarded|explore --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run; `--trace
//! 1` prints the per-layer ledger. See `perfbench/README.md` for what each
//! workload and metric means.

mod ledger;
mod stats;
mod workload;

use gospel_trace::Recorder;
use stats::{describe, geomean, median, quantile, Reservoir};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{check, same_outcome, Counts, Input, Kind, Outcome, Prepared, Ready, SEQUENCE};

/// Set-ups per run; `setup_s` is their [`FAST_QUANTILE`].
const SETUP_REPEATS: usize = 301;

/// The quantile of an operation's repeats taken as its latency, and of
/// the run's set-ups taken as `setup_s` (README, "Noise").
const FAST_QUANTILE: f64 = 0.01;

struct Args {
    workload: String,
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value `{value}` for --trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = Kind::parse(&workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        kind,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload suite|scale|guarded|explore --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// 64-bit FNV-1a, for input and count fingerprints.
fn fingerprint(parts: impl IntoIterator<Item = impl AsRef<[u8]>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for part in parts {
        for &b in part.as_ref().iter().chain(&[0xff]) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// What the closed loop measured.
struct Loop {
    /// Latency samples of each operation in the untraced and the traced
    /// rounds, in ms.
    latencies: Vec<Reservoir>,
    traced: Vec<Reservoir>,
    rounds: usize,
    traced_rounds: usize,
    ops_per_round: usize,
    /// Exact counts of the first round.
    counts: Counts,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    /// Operations whose outcome differed from the first round's.
    nondeterministic: u64,
}

/// Times one set-up of the workload.
fn timed_setup(kind: Kind, inputs: &[Input]) -> Result<(f64, Ready), String> {
    let t = Instant::now();
    let ready = workload::setup(kind, inputs)?;
    Ok((t.elapsed().as_secs_f64(), ready))
}

/// Runs rounds over every operation until `budget` of loop wall time is
/// spent, finishing the round in progress. Every first-round result is
/// checked against the oracle (outside the timed region); later rounds
/// must reproduce it exactly. With `rec`, odd rounds run traced.
///
/// Set-ups are repeated at even intervals of the loop until `setup_s`
/// holds [`SETUP_REPEATS`] samples, so they see the same host speed as
/// the operations: the host's speed drifts by tens of percent from one
/// second to the next, and set-ups all at the start sample a single
/// moment.
fn measure(
    kind: Kind,
    inputs: &[Input],
    mut ready: Ready,
    vectors: &[Vec<gospel_exec::ExecValue>],
    budget: Duration,
    rec: Option<&Arc<Recorder>>,
    setup_s: &mut Vec<f64>,
) -> Result<Loop, String> {
    let setup_every = budget / SETUP_REPEATS as u32;
    let mut next_setup = setup_every;
    let reference: Vec<_> = ready
        .programs
        .iter()
        .map(|p| workload::reference(p, vectors))
        .collect();
    let per_program = if kind.runs_sequence() {
        1
    } else {
        ready.catalog.len()
    };
    let ops = ready.programs.len() * per_program;
    let mut first_sessions: Vec<Option<Prepared>> = std::mem::take(&mut ready.sessions)
        .into_iter()
        .map(Some)
        .collect();
    let mut first: Vec<(Outcome, bool)> = Vec::with_capacity(ops);
    let mut m = Loop {
        latencies: (0..ops as u64).map(Reservoir::new).collect(),
        traced: (0..ops as u64).map(Reservoir::new).collect(),
        rounds: 0,
        traced_rounds: 0,
        ops_per_round: ops,
        counts: Counts::default(),
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        nondeterministic: 0,
    };
    let mut window = Duration::ZERO;
    let mut round = 0usize;
    loop {
        let traced = rec.is_some() && round % 2 == 1;
        for op in 0..ops {
            let p = op / per_program;
            let started = Instant::now();
            let result = if kind.runs_sequence() {
                let mut session = first_sessions[op]
                    .take()
                    .unwrap_or_else(|| Prepared::new(kind, &ready.catalog, &ready.programs[p]));
                if traced {
                    session.set_recorder(rec.cloned());
                }
                workload::run_sequence(session)
            } else {
                workload::run_query(&ready.catalog, &ready.programs[p], op % per_program)
            };
            window += started.elapsed();
            if setup_s.len() < SETUP_REPEATS && window >= next_setup {
                setup_s.push(timed_setup(kind, inputs)?.0);
                next_setup += setup_every;
            }
            let ms = result.ns as f64 / 1e6;
            if traced {
                m.traced[op].push(ms);
                if let Some(r) = rec {
                    r.drain_events();
                }
            } else {
                m.latencies[op].push(ms);
            }
            let label = || match kind.runs_sequence() {
                true => inputs[p].name.clone(),
                false => format!(
                    "{}/{}",
                    inputs[p].name,
                    ready.catalog[op % per_program].name
                ),
            };
            let passed = if round == 0 {
                let (c, detail) =
                    check(&ready.programs[p], &reference[p], vectors, &result.outcome);
                m.counts.add(&c);
                if let Some(d) = detail {
                    m.failures.push(format!("{}: {d}", label()));
                }
                let passed = c.failed == 0;
                first.push((result.outcome, passed));
                passed
            } else if same_outcome(&first[op].0, &result.outcome) {
                first[op].1
            } else {
                m.nondeterministic += 1;
                let (c, detail) =
                    check(&ready.programs[p], &reference[p], vectors, &result.outcome);
                if let Some(d) = detail {
                    m.failures
                        .push(format!("{} (round {}): {d}", label(), round + 1));
                }
                c.failed == 0
            };
            m.attempted += 1;
            m.failed += u64::from(!passed);
        }
        if traced {
            m.traced_rounds += 1;
        } else {
            m.rounds += 1;
        }
        round += 1;
        if window >= budget && (rec.is_none() || m.traced_rounds > 0) {
            while setup_s.len() < SETUP_REPEATS {
                setup_s.push(timed_setup(kind, inputs)?.0);
            }
            return Ok(m);
        }
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One metric of the result line.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

fn run(args: &Args) -> Result<String, String> {
    let kind = args.kind;
    let inputs = workload::inputs(kind, args.seed);
    let input_fp = fingerprint(inputs.iter().map(|i| &i.source));
    if kind == Kind::Scale
        && input_fp
            == fingerprint(
                workload::inputs(kind, args.seed ^ 1)
                    .iter()
                    .map(|i| &i.source),
            )
    {
        return Err("scale programs do not depend on the seed".into());
    }
    let vectors = workload::vectors();
    let matcher = genesis::SessionOptions::default().matcher;
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "<unset>".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} clients=1 (closed loop, one thread)",
        args.workload, args.seed, args.seconds, u8::from(args.trace)
    );
    println!(
        "# matcher={} GENESIS_MATCHER={} GENESIS_INDEXED_SEARCH={} inputs={} input_fingerprint={input_fp:016x}",
        matcher.as_str(),
        env("GENESIS_MATCHER"),
        env("GENESIS_INDEXED_SEARCH"),
        inputs.len()
    );

    let (first_setup, ready) = timed_setup(kind, &inputs)?;
    let mut setup_s = vec![first_setup];
    let rec = args.trace.then(|| Arc::new(Recorder::new()));
    let budget = Duration::from_secs(args.seconds);
    let catalog = ready.catalog.clone();
    let programs = ready.programs.clone();
    let m = measure(
        kind,
        &inputs,
        ready,
        &vectors,
        budget,
        rec.as_ref(),
        &mut setup_s,
    )?;
    let setup_ms: Vec<f64> = setup_s.iter().map(|s| s * 1e3).collect();
    println!(
        "# setup_ms: {} p1={:.4} fastest={:.4}",
        describe(&setup_ms),
        quantile(&setup_ms, 0.01),
        quantile(&setup_ms, 0.0)
    );
    let c = &m.counts;
    // Each operation's latency is the 1st percentile of its repeats, and
    // the percentiles are taken over the operations. The host's speed
    // swings by tens of percent within a second, so the median repeat
    // moves by as much from run to run, while a low quantile repeats
    // within a few percent; the 1st percentile rather than the fastest
    // repeat, because on a calm host the fastest is a rare outlier
    // (README, "Noise"). Pooling raw repeats would also put p50 and p90 of
    // a ten-program workload on the edge between two programs.
    let per_op = |q: f64| -> Vec<f64> {
        m.latencies
            .iter()
            .map(|r| quantile(&r.samples, q))
            .collect()
    };
    let op_ms = per_op(FAST_QUANTILE);
    let per_program = m.ops_per_round / programs.len();
    let op_stmts: usize = (0..m.ops_per_round)
        .map(|op| programs[op / per_program].len())
        .sum();
    let fail_ratio = m.failed as f64 / m.attempted as f64;
    println!(
        "# ops/round={} rounds={} traced_rounds={}\n\
         # latency_ms, 1st-percentile repeat per operation: {}\n\
         # latency_ms, fastest repeat per operation: {}\n\
         # latency_ms, median repeat per operation: {}",
        m.ops_per_round,
        m.rounds,
        m.traced_rounds,
        describe(&op_ms),
        describe(&per_op(0.0)),
        describe(&per_op(0.5))
    );
    println!(
        "# fail_ratio={fail_ratio} (failed {} of {} attempted; {} of {} per round) nondeterministic={} count_fingerprint={:016x}",
        m.failed,
        m.attempted,
        c.failed,
        c.ops,
        m.nondeterministic,
        fingerprint([format!("{c:?}")])
    );
    for f in &m.failures {
        println!("# failure: {f}");
    }
    let mut correct = m.nondeterministic == 0;

    let metrics = if !args.trace {
        let steps_ratio = if c.steps_before == 0 {
            1.0
        } else {
            c.steps_after as f64 / c.steps_before as f64
        };
        vec![
            metric("setup_s", "s", quantile(&setup_s, FAST_QUANTILE)),
            metric("latency_ms.p50", "ms", quantile(&op_ms, 0.5)),
            metric("latency_ms.p90", "ms", quantile(&op_ms, 0.9)),
            metric(
                "stmts_per_s",
                "stmt/s",
                op_stmts as f64 / (op_ms.iter().sum::<f64>() / 1e3),
            ),
            metric("peak_rss_mb", "MB", peak_rss_mb()?),
            metric(
                "out_stmts_ratio",
                "ratio",
                c.passed_out_stmts as f64 / c.passed_in_stmts as f64,
            ),
            metric("exec_steps_ratio", "ratio", steps_ratio),
            metric("pass_ratio", "ratio", 1.0 - fail_ratio),
        ]
    } else {
        let rounds = m.traced_rounds as f64;
        if let (Some(rec), Kind::Suite | Kind::Scale) = (&rec, kind) {
            // Determinism between the untraced and the traced rounds: the
            // recorder's count must equal the reports' count.
            let traced = rec.counter("driver.applications") as f64 / rounds;
            if traced != c.applications as f64 {
                println!(
                    "# count mismatch: driver.applications traced {traced} untraced {}",
                    c.applications
                );
                correct = false;
            }
        }
        let sw = ledger::sweep(
            &inputs,
            &Ready {
                catalog,
                programs,
                sessions: Vec::new(),
            },
            &vectors,
            budget / 2,
        )?;
        print_rows(&sw);
        for layer in sw.layers() {
            println!(
                "# ledger {layer}: {} samples over {} passes",
                sw.sample_count(layer),
                sw.passes
            );
        }
        let traced_ms: f64 = m
            .traced
            .iter()
            .map(|r| quantile(&r.samples, FAST_QUANTILE))
            .sum();
        layer_metrics(&sw, c, traced_ms / op_ms.iter().sum::<f64>())
    };
    result_line(correct, m.attempted, m.failed, &metrics)
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order.
fn layer_metrics(sw: &ledger::Sweep, c: &Counts, trace_overhead: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    for name in [
        "gospel.parse_ns",
        "compile.generate_ns",
        "frontend.compile_ns",
        "dep.analyze_ns",
    ] {
        out.push(metric(name, "ns", sw.median(name)));
    }
    out.push(metric("dep.edges", "count", sw.edges as f64));
    for name in ["automaton.build_ns", "search.matches_ns"] {
        out.push(metric(name, "ns", sw.median(name)));
    }
    for name in ledger::APPLY_NS {
        out.push(metric(name, "ns", sw.median(name)));
    }
    out.push(metric("guard.apply_ns", "ns", sw.median("guard.apply_ns")));
    out.push(metric(
        "guard.overhead_ratio",
        "ratio",
        median(&sw.guard_ratio),
    ));
    out.push(metric("exec.run_ns", "ns", sw.median("exec.run_ns")));
    out.push(metric("exec.steps", "count", sw.exec_steps as f64));
    out.push(metric("explain.ns", "ns", sw.median("explain.ns")));
    out.push(metric(
        "explain.candidates",
        "count",
        sw.explain_candidates as f64,
    ));
    out.push(metric("trace.overhead_ratio", "ratio", trace_overhead));
    for (name, v) in [
        ("search.anchor_visits", c.anchor_visits),
        ("search.pattern_checks", c.pattern_checks),
        ("search.dep_checks", c.dep_checks),
    ] {
        out.push(metric(name, "count", v as f64));
    }
    let yield_ratio = if c.anchor_visits == 0 {
        0.0
    } else {
        c.applications as f64 / c.anchor_visits as f64
    };
    out.push(metric("search.yield_ratio", "ratio", yield_ratio));
    for (name, v) in [
        ("driver.applications", c.applications),
        ("driver.transform_ops", c.transform_ops),
        ("dep.incremental_updates", c.incremental_updates),
        ("dep.full_recomputes", c.full_recomputes),
        ("dep.edges_churn", c.edges_churn),
    ] {
        out.push(metric(name, "count", v as f64));
    }
    // Recorder totals per traced run of the sequence over one swept
    // program: plain runs for the driver, guarded runs for the guard.
    let snap = sw.plain_rec.snapshot();
    let runs = sw.traced_runs as f64;
    let hist = |name: &str| {
        snap.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, h)| h.sum as f64)
            / runs
    };
    for name in [
        "driver.search_ns",
        "driver.pattern_ns",
        "dep.update_ns",
        "driver.actions_ns",
    ] {
        out.push(metric(name, "ns/run", hist(name)));
    }
    for name in ["guard.validations", "guard.rejections", "guard.quarantines"] {
        out.push(metric(
            name,
            "count/run",
            sw.guard_rec.counter(name) as f64 / runs,
        ));
    }
    for opt in SEQUENCE {
        for phase in ledger::FUNNEL_PHASES {
            let name = format!("funnel.{opt}.{phase}");
            let v = snap.counter(&name) as f64 / runs;
            out.push(metric(name, "count/run", v));
        }
    }
    out
}

/// One row per swept program: its median apply time per optimizer and
/// its counts, then the geometric mean of each column.
fn print_rows(sw: &ledger::Sweep) {
    let mut head = format!("# {:<28} {:>6}", "program", "stmts");
    for opt in SEQUENCE {
        head += &format!(" {:>11}", format!("{opt}_ns"));
    }
    println!(
        "{head} {:>8} {:>8} {:>10}",
        "applied", "anchors", "dep_checks"
    );
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); SEQUENCE.len()];
    for r in &sw.rows {
        let mut line = format!("# {:<28} {:>6}", r.name, r.stmts);
        for (k, samples) in r.apply_ns.iter().enumerate() {
            let v = median(samples);
            cols[k].push(v);
            line += &format!(" {v:>11.0}");
        }
        println!(
            "{line} {:>8} {:>8} {:>10}",
            r.applications, r.anchor_visits, r.dep_checks
        );
    }
    let mut line = format!("# {:<28} {:>6}", "geomean", "");
    for col in &cols {
        line += &format!(" {:>11.0}", geomean(col));
    }
    println!("{line}");
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!(
                "metric {} is not a finite number: {}",
                m.name, m.value
            ));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}
