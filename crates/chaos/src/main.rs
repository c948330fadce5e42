//! `genesis-chaos` — run the chaos campaign from the command line.
//!
//! ```text
//! genesis-chaos [--smoke] [--seed N] [--generated N] [--report FILE]
//! ```
//!
//! Exits nonzero when any cell violated a recovery invariant; the
//! per-kind summary goes to stdout and `--report` writes the full
//! campaign report as JSON (the artifact CI uploads).

use genesis_chaos::{run_campaign, CampaignConfig};
use std::process::ExitCode;

const USAGE: &str = "\
genesis-chaos: drive scripted faults across the optimizer x workload matrix

USAGE:
    genesis-chaos [OPTIONS]

OPTIONS:
    --smoke          run the reduced CI matrix (3 optimizers, 4 workloads,
                     probe point 0) instead of the full campaign
    --seed N         seed for the generated workloads (default: campaign seed)
    --generated N    number of seeded random workloads to add
    --report FILE    write the campaign report as JSON to FILE
    --help           print this help
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let mut cfg = if args.iter().any(|a| a == "--smoke") {
        CampaignConfig::smoke()
    } else {
        CampaignConfig::full()
    };
    let mut report_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => {}
            "--seed" => match value("--seed").map(|v| v.parse::<u64>()) {
                Ok(Ok(n)) => cfg.seed = n,
                _ => return usage_error("--seed needs an unsigned integer"),
            },
            "--generated" => match value("--generated").map(|v| v.parse::<usize>()) {
                Ok(Ok(n)) => cfg.generated_workloads = n,
                _ => return usage_error("--generated needs an unsigned integer"),
            },
            "--report" => match value("--report") {
                Ok(p) => report_path = Some(p),
                Err(e) => return usage_error(&e),
            },
            other => return usage_error(&format!("unknown option {other}")),
        }
    }

    // Injected panics are part of the campaign; keep them from spraying
    // backtraces while the harness contains them.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = run_campaign(&cfg);
    std::panic::set_hook(hook);

    println!(
        "chaos campaign: {} cells, {} not applicable, {} violation(s) (seed {:#x})",
        report.cells,
        report.not_applicable,
        report.violations.len(),
        report.seed
    );
    for (kind, st) in &report.kinds {
        println!(
            "  {kind:<13} cells {:>4}  fired {:>4}  n/a {:>4}  violations {:>2}",
            st.cells, st.fired, st.not_applicable, st.violations
        );
    }
    for v in &report.violations {
        println!(
            "FAIL {} x {} under {}:",
            v.workload, v.optimizer, v.fault
        );
        for p in &v.problems {
            println!("  - {p}");
        }
        println!("  minimal reproduction:");
        for s in &v.minimized_steps {
            println!("    {s}");
        }
    }
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("genesis-chaos: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("genesis-chaos: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}
