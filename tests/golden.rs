//! Golden snapshot tests for [`gospel_frontend::unparse`] and for the
//! dependence edges of [`gospel_dep::DepGraph::analyze`].
//!
//! Each of the ten suite workloads has a committed `.golden` file under
//! `tests/golden/` holding its canonical unparse. A snapshot mismatch
//! means the printer (or a workload source) changed — inspect the diff,
//! then refresh with `UPDATE_GOLDENS=1 cargo test --test golden`.
//!
//! The `.deps` files freeze the exact edge list (kind, endpoints,
//! variable, operand slots, direction vector, in canonical order) of the
//! suite and of three seeded generated programs. They are an oracle
//! independent of the analysis code: a rewrite of the dependence
//! substrate must leave them byte-identical.
//!
//! The `.matches` files freeze, for the same programs, what
//! `Driver::matches_with` reports for every catalog optimizer under each
//! membership strategy: the bindings in search order, the `Cost` counts
//! and the strategy each dependence-clause evaluation used. A rewrite of
//! the precondition solver must leave them byte-identical.
//!
//! The `.explain` files freeze, for the same programs, the
//! `ExplainReport::to_text()` narrative of every catalog optimizer: one
//! verdict per anchor candidate, naming the gate that blocked it. A
//! rewrite of the explain engine must leave them byte-identical.

use genesis::{explain, Driver, FusedAutomaton, Strategy};
use gospel_ir::Program;
use gospel_workloads::generator::{self, GenConfig};
use std::fs;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    golden_file(&format!("{name}.golden"))
}

fn golden_file(fname: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(fname)
}

fn update_goldens() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| v != "0")
}

#[test]
fn suite_unparse_matches_committed_goldens() {
    let mut stale = Vec::new();
    for (name, prog) in gospel_workloads::suite() {
        let got = gospel_frontend::unparse(&prog);
        let path = golden_path(name);
        if update_goldens() {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("{name}: {e}"));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden at {} ({e}); run with UPDATE_GOLDENS=1 to create it"
            , path.display())
        });
        if got != want {
            stale.push(format!(
                "{name}: unparse drifted from {}\n--- golden\n{want}\n--- current\n{got}",
                path.display()
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale goldens (UPDATE_GOLDENS=1 to refresh):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Generator seeds of the `.deps` snapshots beyond the suite.
const GENERATED_SEEDS: [u64; 3] = [1, 2, 3];

/// The programs with a `.deps` snapshot: the suite plus three seeded
/// generated programs of about 150 statements.
fn dep_programs() -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = gospel_workloads::suite()
        .into_iter()
        .map(|(name, prog)| (name.to_string(), prog))
        .collect();
    for seed in GENERATED_SEEDS {
        let cfg = GenConfig {
            statements: 150,
            ..GenConfig::default()
        };
        out.push((format!("gen{seed}"), generator::generate(seed, cfg)));
    }
    out
}

/// One line per edge, in the `genesis-opt deps` format, then the count.
fn render_deps(prog: &Program) -> String {
    let deps = gospel_dep::DepGraph::analyze(prog).expect("workload analyzes");
    let mut out = String::new();
    for e in deps.edges() {
        out.push_str(&e.line(prog.syms()));
        out.push('\n');
    }
    out.push_str(&format!("{} edges\n", deps.len()));
    out
}

#[test]
fn dependence_edges_match_committed_goldens() {
    let mut stale = Vec::new();
    for (name, prog) in dep_programs() {
        let got = render_deps(&prog);
        let path = golden_file(&format!("{name}.deps"));
        if update_goldens() {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("{name}: {e}"));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden at {} ({e}); run with UPDATE_GOLDENS=1 to create it",
                path.display()
            )
        });
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            stale.push(format!(
                "{name}: edges drifted from {} at line {}\n  golden:  {}\n  current: {}",
                path.display(),
                first + 1,
                want.lines().nth(first).unwrap_or("<end>"),
                got.lines().nth(first).unwrap_or("<end>")
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale dependence goldens (UPDATE_GOLDENS=1 to refresh):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// The membership strategies each `.matches` snapshot covers.
const STRATEGIES: [Strategy; 3] = [
    Strategy::MembersFirst,
    Strategy::DepsFirst,
    Strategy::Heuristic,
];

/// Every catalog optimizer's application points under each strategy,
/// with the search cost and the strategies used, run-length encoded in
/// evaluation order.
fn render_matches(prog: &Program) -> String {
    use std::fmt::Write;
    let deps = gospel_dep::DepGraph::analyze(prog).expect("workload analyzes");
    let catalog = gospel_opts::catalog().expect("catalog generates");
    let mut out = String::new();
    for opt in &catalog {
        for strategy in STRATEGIES {
            let opt = opt.with_strategy(strategy);
            let ms = Driver::new(&opt)
                .matches_with(prog, &deps)
                .unwrap_or_else(|e| panic!("{} {strategy:?}: {e}", opt.name));
            let _ = writeln!(
                out,
                "{} {strategy:?}: {} point(s)",
                opt.name,
                ms.bindings.len()
            );
            for (i, b) in ms.bindings.iter().enumerate() {
                let _ = writeln!(out, "  point {}: {}", i + 1, b.line());
            }
            let c = ms.cost;
            let _ = writeln!(
                out,
                "  cost: pattern_checks {}, dep_checks {}, anchor_visits {}",
                c.pattern_checks, c.dep_checks, c.anchor_visits
            );
            let mut runs: Vec<(Strategy, usize)> = Vec::new();
            for &s in &ms.strategies_used {
                match runs.last_mut() {
                    Some((last, n)) if *last == s => *n += 1,
                    _ => runs.push((s, 1)),
                }
            }
            let runs: Vec<String> = runs.iter().map(|(s, n)| format!("{s:?} x{n}")).collect();
            let _ = writeln!(out, "  strategies: {}", runs.join(", "));
        }
    }
    out
}

#[test]
fn catalog_matches_match_committed_goldens() {
    let mut stale = Vec::new();
    for (name, prog) in dep_programs() {
        let got = render_matches(&prog);
        let path = golden_file(&format!("{name}.matches"));
        if update_goldens() {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("{name}: {e}"));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden at {} ({e}); run with UPDATE_GOLDENS=1 to create it",
                path.display()
            )
        });
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            stale.push(format!(
                "{name}: matches drifted from {} at line {}\n  golden:  {}\n  current: {}",
                path.display(),
                first + 1,
                want.lines().nth(first).unwrap_or("<end>"),
                got.lines().nth(first).unwrap_or("<end>")
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale match goldens (UPDATE_GOLDENS=1 to refresh):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Every catalog optimizer's explain narrative, with the fused
/// automaton built over the whole catalog as a session builds it.
fn render_explain(prog: &Program) -> String {
    let deps = gospel_dep::DepGraph::analyze(prog).expect("workload analyzes");
    let catalog = gospel_opts::catalog().expect("catalog generates");
    let auto = FusedAutomaton::build(&catalog, prog);
    let mut out = String::new();
    for opt in &catalog {
        let report =
            explain(prog, &deps, opt, &auto, None).unwrap_or_else(|e| panic!("{}: {e}", opt.name));
        out.push_str(&report.to_text());
    }
    out
}

#[test]
fn catalog_explain_matches_committed_goldens() {
    let mut stale = Vec::new();
    for (name, prog) in dep_programs() {
        let got = render_explain(&prog);
        let path = golden_file(&format!("{name}.explain"));
        if update_goldens() {
            fs::write(&path, &got).unwrap_or_else(|e| panic!("{name}: {e}"));
            continue;
        }
        let want = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden at {} ({e}); run with UPDATE_GOLDENS=1 to create it",
                path.display()
            )
        });
        if got != want {
            let first = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            stale.push(format!(
                "{name}: explain drifted from {} at line {}\n  golden:  {}\n  current: {}",
                path.display(),
                first + 1,
                want.lines().nth(first).unwrap_or("<end>"),
                got.lines().nth(first).unwrap_or("<end>")
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "{} stale explain goldens (UPDATE_GOLDENS=1 to refresh):\n{}",
        stale.len(),
        stale.join("\n")
    );
}

/// Unparse must be a fixpoint of compile∘unparse: recompiling a printed
/// program and printing it again reproduces the same text.
#[test]
fn unparse_round_trips_through_compile() {
    for (name, prog) in gospel_workloads::suite() {
        let once = gospel_frontend::unparse(&prog);
        let reparsed = gospel_frontend::compile(&once)
            .unwrap_or_else(|e| panic!("{name}: unparse output failed to recompile: {e}"));
        let twice = gospel_frontend::unparse(&reparsed);
        assert_eq!(once, twice, "{name}: unparse is not stable under round-trip");
    }
}

/// No golden file is orphaned: every `.golden` corresponds to a suite
/// workload and every `.deps`, `.matches` and `.explain` to a
/// snapshotted program, so renames can't silently leave dead snapshots
/// behind.
#[test]
fn no_orphaned_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden");
    let mut names: Vec<String> = gospel_workloads::suite()
        .iter()
        .map(|(n, _)| format!("{n}.golden"))
        .collect();
    for (n, _) in dep_programs() {
        names.push(format!("{n}.deps"));
        names.push(format!("{n}.matches"));
        names.push(format!("{n}.explain"));
    }
    for entry in fs::read_dir(&dir).expect("tests/golden exists") {
        let entry = entry.unwrap();
        let fname = entry.file_name().to_string_lossy().into_owned();
        if [".golden", ".deps", ".matches", ".explain"]
            .iter()
            .any(|ext| fname.ends_with(ext))
        {
            assert!(
                names.contains(&fname),
                "orphaned golden file {fname}: no snapshotted program matches"
            );
        }
    }
}
