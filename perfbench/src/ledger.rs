//! The per-layer ledger of a traced run. In passes over the workload's
//! distinct programs, each harness-timed layer is timed around its public
//! call, untraced; then the sequence runs again, plain and guarded, with
//! a recorder attached, so the driver's and the guard's own layers are
//! read under the program's own names.

use crate::stats::median;
use crate::workload::{
    guarded_session, plain_session, run_sequence, Input, Prepared, Ready, SEQUENCE,
};
use genesis::{ApplyMode, Driver, FusedAutomaton};
use gospel_dep::DepGraph;
use gospel_exec::ExecValue;
use gospel_trace::Recorder;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// At most this many distinct programs take part in a sweep pass, evenly
/// spaced over the workload's list (all ten of the suite).
const SWEEP_PROGRAMS: usize = 10;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One swept program: per-[`SEQUENCE`] apply samples, and the exact
/// counts of one plain run of the sequence.
pub struct Row {
    pub name: String,
    pub stmts: usize,
    pub apply_ns: Vec<Vec<f64>>,
    pub applications: u64,
    pub anchor_visits: u64,
    pub dep_checks: u64,
}

/// Per-call samples of every harness-timed layer by metric name, the
/// exact totals of one pass, and one [`Row`] per swept program.
#[derive(Default)]
pub struct Sweep {
    samples: BTreeMap<&'static str, Vec<f64>>,
    pub edges: u64,
    pub exec_steps: u64,
    pub explain_candidates: u64,
    /// Σ guarded apply time over Σ plain apply time, per pass.
    pub guard_ratio: Vec<f64>,
    pub rows: Vec<Row>,
    pub passes: usize,
    /// Recorders of the traced (untimed) plain and guarded runs of the
    /// sequence, one of each per swept program and pass.
    pub plain_rec: Arc<Recorder>,
    pub guard_rec: Arc<Recorder>,
    pub traced_runs: usize,
}

impl Sweep {
    fn push(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Median per-call time of a layer (`NaN` if never called).
    pub fn median(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(f64::NAN, |v| median(v))
    }

    pub fn sample_count(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }

    /// Layer names with samples, in order.
    pub fn layers(&self) -> impl Iterator<Item = &&'static str> {
        self.samples.keys()
    }
}

/// Times every layer's public call in passes over the workload's programs
/// until `budget` is spent (at least one pass). Every call is checked:
/// a failure aborts the sweep, since the op loop already counts them.
pub fn sweep(
    inputs: &[Input],
    ready: &Ready,
    vectors: &[Vec<ExecValue>],
    budget: Duration,
) -> Result<Sweep, String> {
    let n = ready.programs.len();
    let picks: Vec<usize> = if n <= SWEEP_PROGRAMS {
        (0..n).collect()
    } else {
        (0..SWEEP_PROGRAMS)
            .map(|k| k * (n - 1) / (SWEEP_PROGRAMS - 1))
            .collect()
    };
    let mut sw = Sweep {
        plain_rec: Arc::new(Recorder::new()),
        guard_rec: Arc::new(Recorder::new()),
        ..Sweep::default()
    };
    for &i in &picks {
        sw.rows.push(Row {
            name: inputs[i].name.clone(),
            stmts: ready.programs[i].len(),
            apply_ns: vec![Vec::new(); SEQUENCE.len()],
            applications: 0,
            anchor_visits: 0,
            dep_checks: 0,
        });
    }
    let started = Instant::now();
    while sw.passes == 0 || started.elapsed() < budget {
        let first = sw.passes == 0;
        for (name, src) in gospel_opts::specs::ALL {
            let t = Instant::now();
            let parsed = gospel_lang::parse_validated(src);
            sw.push("gospel.parse_ns", ns_since(t));
            let (spec, info) = parsed.map_err(|e| format!("{name}: {e}"))?;
            let t = Instant::now();
            let generated = genesis::generate(spec, info);
            sw.push("compile.generate_ns", ns_since(t));
            generated.map_err(|e| format!("{name}: {e}"))?;
        }
        let (mut plain_ns, mut guard_ns) = (0.0, 0.0);
        for (row, &i) in picks.iter().enumerate() {
            let t = Instant::now();
            let compiled = gospel_frontend::compile(&inputs[i].source);
            sw.push("frontend.compile_ns", ns_since(t));
            compiled.map_err(|e| format!("{}: {e}", inputs[i].name))?;
            let (p, g) = sw.program_pass(ready, i, row, vectors, first)?;
            plain_ns += p;
            guard_ns += g;
        }
        sw.guard_ratio.push(guard_ns / plain_ns);
        sw.passes += 1;
    }
    Ok(sw)
}

impl Sweep {
    /// Times every per-program layer on program `i`; returns the summed
    /// plain and guarded apply times of the sequence.
    fn program_pass(
        &mut self,
        ready: &Ready,
        i: usize,
        row: usize,
        vectors: &[Vec<ExecValue>],
        first: bool,
    ) -> Result<(f64, f64), String> {
        let prog = &ready.programs[i];
        let t = Instant::now();
        let deps = DepGraph::analyze(prog);
        self.push("dep.analyze_ns", ns_since(t));
        let deps = deps.map_err(|e| e.to_string())?;
        let t = Instant::now();
        let auto = FusedAutomaton::build(&ready.catalog, prog);
        self.push("automaton.build_ns", ns_since(t));
        for opt in &ready.catalog {
            let t = Instant::now();
            let m = Driver::new(opt).matches_with(prog, &deps);
            self.push("search.matches_ns", ns_since(t));
            m.map_err(|e| format!("{}: {e}", opt.name))?;
            let t = Instant::now();
            let x = genesis::explain(prog, &deps, opt, &auto, None);
            self.push("explain.ns", ns_since(t));
            let x = x.map_err(|e| format!("{}: {e}", opt.name))?;
            if first {
                self.explain_candidates += x.candidates.len() as u64;
            }
        }
        for v in vectors {
            let t = Instant::now();
            let run = gospel_exec::run(prog, v);
            self.push("exec.run_ns", ns_since(t));
            if let (true, Ok(trace)) = (first, run) {
                self.exec_steps += trace.steps;
            }
        }
        if first {
            self.edges += deps.len() as u64;
        }
        let mut plain_ns = 0.0;
        let mut s = plain_session(&ready.catalog, prog);
        for (k, name) in SEQUENCE.iter().enumerate() {
            let t = Instant::now();
            let r = s.apply(name, ApplyMode::AllPoints);
            let ns = ns_since(t);
            // A failing apply (the known CPP defect shows as a wrong
            // output, never as an error) ends the plain sequence.
            let Ok(r) = r else { break };
            if first {
                let row = &mut self.rows[row];
                row.applications += r.applications as u64;
                row.anchor_visits += r.cost.anchor_visits;
                row.dep_checks += r.cost.dep_checks;
            }
            self.rows[row].apply_ns[k].push(ns);
            self.push(APPLY_NS[k], ns);
            plain_ns += ns;
        }
        let mut guard_ns = 0.0;
        let mut s = guarded_session(&ready.catalog, prog);
        for name in SEQUENCE {
            let t = Instant::now();
            let r = s.apply(name, ApplyMode::AllPoints);
            let ns = ns_since(t);
            self.push("guard.apply_ns", ns);
            guard_ns += ns;
            if let Err(e) = r {
                return Err(format!("guard {name}: {e}"));
            }
        }
        let traced = [
            (
                Prepared::Plain(plain_session(&ready.catalog, prog)),
                &self.plain_rec,
            ),
            (
                Prepared::Guarded(guarded_session(&ready.catalog, prog)),
                &self.guard_rec,
            ),
        ];
        for (mut s, rec) in traced {
            s.set_recorder(Some(Arc::clone(rec)));
            run_sequence(s);
            rec.drain_events();
        }
        self.traced_runs += 1;
        Ok((plain_ns, guard_ns))
    }
}

/// The funnel phases kept as metrics (`rolled_back` stays zero on every
/// workload).
pub const FUNNEL_PHASES: [&str; 5] = [
    "classified",
    "admitted",
    "matched",
    "dep_checked",
    "applied",
];

/// `driver.apply_ns.<OPT>` for each [`SEQUENCE`] entry.
pub const APPLY_NS: [&str; 6] = [
    "driver.apply_ns.CTP",
    "driver.apply_ns.CPP",
    "driver.apply_ns.ICM",
    "driver.apply_ns.FUS",
    "driver.apply_ns.DCE",
    "driver.apply_ns.CFO",
];
