//! End-to-end tests of the `genesis-opt` binary.

use std::io::Write;
use std::process::{Command, Stdio};

const PROG: &str = "\
program demo
  integer n, i
  real a(50)
  n = 50
  do i = 1, n
    a(i) = 1.0
  end do
  write a(1)
end
";

fn write_prog() -> tempfile_path::TempPath {
    tempfile_path::write(PROG)
}

/// Minimal temp-file helper (std only).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn write(contents: &str) -> TempPath {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let mut p = std::env::temp_dir();
        p.push(format!(
            "genesis-opt-test-{}-{:?}-{}.mf",
            std::process::id(),
            std::thread::current().id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&p, contents).expect("write temp program");
        TempPath(p)
    }
}

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_genesis-opt"))
}

fn run_ok(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8")
}

#[test]
fn specs_lists_the_catalog() {
    let out = run_ok(&["specs"]);
    for name in ["CPP", "CTP", "DCE", "ICM", "INX", "CRC", "BMP", "PAR", "LUR", "FUS", "CFO"] {
        assert!(out.contains(name), "missing {name}:\n{out}");
    }
}

#[test]
fn show_points_apply_pipeline() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();

    let shown = run_ok(&["show", path]);
    assert!(shown.contains("do i = 1, n"), "{shown}");

    let points = run_ok(&["points", path, "CTP"]);
    assert!(points.contains("application point(s)"), "{points}");

    let applied = run_ok(&["apply", path, "CTP,PAR"]);
    assert!(applied.contains("pardo i = 1, 50"), "{applied}");
    assert!(applied.contains("write a(1)"), "{applied}");
}

#[test]
fn apply_emits_source_with_flag() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let out = run_ok(&["apply", path, "CTP,PAR", "--source"]);
    assert!(out.contains("pardo i = 1, 50"), "{out}");
    assert!(out.contains("program demo"), "{out}");
    // the emitted source recompiles through the same tool
    let reprog = tempfile_path::write(&out[out.find("program").unwrap()..]);
    let reout = run_ok(&["show", reprog.0.to_str().unwrap()]);
    assert!(reout.contains("pardo"), "{reout}");
}

#[test]
fn emit_prints_figure_6_shape() {
    let out = run_ok(&["emit", "CTP"]);
    for piece in ["set_up_CTP", "match_CTP", "pre_CTP", "act_CTP", "set_up_OPT"] {
        assert!(out.contains(piece), "missing {piece}");
    }
    let rust = run_ok(&["emit", "CTP", "--lang", "rust"]);
    assert!(rust.contains("pub fn apply_ctp"), "{rust}");
}

#[test]
fn interactive_session_over_stdin() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let mut child = bin()
        .args(["interactive", path])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"list\napply CTP\nsource\nquit\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("CTP"), "{text}");
    assert!(text.contains("application(s)"), "{text}");
    assert!(text.contains("program demo"), "{text}");
}

#[test]
fn unknown_command_fails_with_message() {
    let out = bin().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn user_spec_file_registers() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let spec = tempfile_path::write(
        "OPTIMIZATION MY TYPE Stmt: S; PRECOND Code_Pattern any S: S.opc == assign AND S.opr_1 == S.opr_2; ACTION delete(S); END",
    );
    let out = run_ok(&["points", path, "MY", "--spec", spec.0.to_str().unwrap()]);
    assert!(out.contains("0 application point(s)"), "{out}");
}

/// Runs the binary expecting failure; returns stderr.
fn run_err(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(
        !out.status.success(),
        "{args:?} unexpectedly succeeded:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Every failure must produce a single-line `error:` diagnostic on stderr
/// (plus, for validation failures, one report line per rejection).
fn last_error_line(stderr: &str) -> &str {
    let line = stderr
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    assert!(line.starts_with("error:"), "no error line in: {stderr}");
    line
}

#[test]
fn missing_program_file_fails_with_one_line() {
    let err = run_err(&["show", "/no/such/file.mf"]);
    let line = last_error_line(&err);
    assert!(line.contains("/no/such/file.mf"), "{line}");
}

#[test]
fn unreadable_program_file_fails_with_one_line() {
    // A directory is unreadable as a program file on every platform.
    let dir = std::env::temp_dir();
    let err = run_err(&["show", dir.to_str().unwrap()]);
    last_error_line(&err);
}

#[test]
fn malformed_spec_file_fails_with_one_line() {
    let prog = write_prog();
    let spec = tempfile_path::write("OPTIMIZATION oops THIS IS NOT GOSPEL");
    let err = run_err(&[
        "apply",
        prog.0.to_str().unwrap(),
        "CTP",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    let line = last_error_line(&err);
    assert!(line.contains(spec.0.to_str().unwrap()), "{line}");
}

#[test]
fn bad_numeric_flag_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--fuel", "lots"]);
    let line = last_error_line(&err);
    assert!(line.contains("--fuel"), "{line}");
}

#[test]
fn bad_inject_plan_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--inject", "gremlins"]);
    last_error_line(&err);
}

#[test]
fn unknown_matcher_fails_naming_the_choices() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--matcher", "indexed"]);
    let line = last_error_line(&err);
    assert!(line.contains("--matcher"), "{line}");
    assert!(line.contains("fused|scan"), "{line}");
}

#[test]
fn run_and_seq_apply_with_budgets() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let out = run_ok(&["run", path, "CTP", "--timeout-ms", "60000", "--max-growth", "8"]);
    assert!(out.contains("application(s)"), "{out}");
    let out = run_ok(&["seq", path, "CTP,PAR", "--validate"]);
    assert!(out.contains("pardo i = 1, 50"), "{out}");
}

#[test]
fn trace_streams_jsonl_and_metrics_prints_table() {
    let prog = write_prog();
    let path = prog.0.to_str().unwrap();
    let trace = tempfile_path::write("");
    let out = run_ok(&[
        "run",
        path,
        "CTP",
        "--trace",
        trace.0.to_str().unwrap(),
        "--metrics",
    ]);
    assert!(out.contains("driver.applications"), "{out}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    assert!(!text.is_empty(), "trace file must not be empty");
    for line in text.lines() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not a JSON object line: {line}"
        );
    }
    for needle in [
        "\"name\":\"driver.attempt\"",
        "\"name\":\"search.match\"",
        "\"name\":\"dep.update\"",
        "\"name\":\"driver.applications\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

#[test]
fn trace_without_path_fails_with_context() {
    let prog = write_prog();
    let err = run_err(&["run", prog.0.to_str().unwrap(), "CTP", "--trace"]);
    assert!(last_error_line(&err).contains("--trace"), "{err}");
}

#[test]
fn validate_trace_includes_guard_events() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    let stderr = run_err(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--validate",
        "--inject",
        "corrupt",
        "--trace",
        trace.0.to_str().unwrap(),
    ]);
    assert!(stderr.contains("[structural]"), "{stderr}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    for needle in [
        "\"name\":\"guard.apply\"",
        "\"name\":\"guard.validate\"",
        "\"name\":\"guard.rollback\"",
        "\"name\":\"guard.quarantine\"",
    ] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}

const BROKEN_CTP_SPEC: &str = "\
OPTIMIZATION CTP
TYPE
  Stmt: Si, Sj;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=))
                   AND operand(Sj, pos) == Si.opr_1;
ACTION
  modify(operand(Sj, pos), Si.opr_2);
END
";

const TWO_DEFS_PROG: &str = "\
program t
  integer c, x, y
  read c
  x = 3
  if (c > 0) then
    x = 4
  end if
  y = x
  write y
end
";

#[test]
fn validate_quarantines_a_wrong_spec_end_to_end() {
    let prog = tempfile_path::write(TWO_DEFS_PROG);
    let spec = tempfile_path::write(BROKEN_CTP_SPEC);
    // Without validation the wrong spec silently miscompiles (exit 0).
    let out = run_ok(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    assert!(out.contains("application(s)"), "{out}");
    // With --validate it is caught, rolled back, quarantined, nonzero.
    let stderr = run_err(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,DCE,CTP",
        "--validate",
        "--spec",
        spec.0.to_str().unwrap(),
    ]);
    assert!(stderr.contains("[translation]"), "{stderr}");
    assert!(stderr.contains("rolled back"), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    // The third entry (CTP again) was skipped, not re-run.
    assert!(stderr.contains("skipped CTP"), "{stderr}");
    last_error_line(&stderr);
}

#[test]
fn validate_contains_injected_panic() {
    let prog = write_prog();
    let stderr = run_err(&[
        "run",
        prog.0.to_str().unwrap(),
        "CTP",
        "--validate",
        "--inject",
        "panic",
    ]);
    assert!(stderr.contains("[internal]"), "{stderr}");
    assert!(stderr.contains("rolled back"), "{stderr}");
    last_error_line(&stderr);
}

#[test]
fn deps_dot_output_is_wellformed() {
    let prog = write_prog();
    let out = run_ok(&["deps", prog.0.to_str().unwrap(), "--dot"]);
    assert!(out.starts_with("digraph deps {"), "{out}");
    assert!(out.trim_end().ends_with('}'), "{out}");
    assert!(out.contains("style=solid"), "{out}");
}

#[test]
fn apply_accepts_trace_and_metrics() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    let out = run_ok(&[
        "apply",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        trace.0.to_str().unwrap(),
        "--metrics",
    ]);
    assert!(out.contains("driver.applications"), "{out}");
    let text = std::fs::read_to_string(&trace.0).unwrap();
    assert!(text.contains("\"name\":\"driver.attempt\""), "{text}");
    assert!(text.contains("\"name\":\"search.funnel\""), "{text}");
}

#[test]
fn explain_names_the_blocking_clause_per_candidate() {
    let prog = write_prog();
    let out = run_ok(&["explain", prog.0.to_str().unwrap(), "--opt", "CTP"]);
    assert!(out.contains("anchor candidate(s)"), "{out}");
    assert!(out.contains("FIRES"), "{out}");
    assert!(out.contains("not admitted"), "{out}");
    // Restricting to one statement narrows the report to it.
    let one = run_ok(&[
        "explain",
        prog.0.to_str().unwrap(),
        "--opt",
        "CTP",
        "--stmt",
        "0",
    ]);
    assert!(one.contains("1 anchor candidate(s)"), "{one}");
}

/// `--stmt` selects a loop-anchored optimizer's candidate by the loop's
/// head statement, the point `apply --at` anchors it at.
#[test]
fn explain_stmt_selects_a_loop_anchor_by_its_head() {
    let prog = tempfile_path::write(
        "program p\ninteger i, x\nreal a(10)\ndo i = 2, 10\na(i) = x\nend do\nwrite x\nend\n",
    );
    let path = prog.0.to_str().unwrap();
    let applied = run_ok(&["apply", path, "BMP", "--at", "s0"]);
    assert!(applied.contains("1 application"), "{applied}");
    let all = run_ok(&["explain", path, "--opt", "BMP"]);
    assert!(all.contains("L0: FIRES"), "{all}");
    let head = run_ok(&["explain", path, "--opt", "BMP", "--stmt", "s0"]);
    assert!(head.contains("1 anchor candidate(s)"), "{head}");
    assert!(head.contains("L0: FIRES"), "{head}");
}

#[test]
fn explain_requires_a_known_optimizer() {
    let prog = write_prog();
    let err = run_err(&["explain", prog.0.to_str().unwrap(), "--opt", "NOPE"]);
    assert!(last_error_line(&err).contains("NOPE"), "{err}");
}

/// Records a real trace, reports it, and gates the report against a
/// baseline whose match-phase time is half the measured one — an
/// injected ≥20% regression that must exit nonzero — while the
/// untampered baseline passes.
#[test]
fn report_baseline_gates_an_injected_match_regression() {
    let prog = write_prog();
    let trace = tempfile_path::write("");
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,DCE,PAR",
        "--validate",
        "--trace",
        trace.0.to_str().unwrap(),
    ]);
    let json = run_ok(&["report", trace.0.to_str().unwrap(), "--format", "json"]);
    assert!(json.contains("\"metrics\""), "{json}");

    // Self-comparison passes at any threshold.
    let clean = tempfile_path::write(&json);
    run_ok(&[
        "report",
        trace.0.to_str().unwrap(),
        "--baseline",
        clean.0.to_str().unwrap(),
        "--threshold-pct",
        "5",
    ]);

    // Halve the baseline's match_ns: the current run now reads as a
    // +100% match-phase regression and the gate must fail.
    let start = json.find("\"match_ns\":").expect("match_ns in report") + "\"match_ns\":".len();
    let end = start + json[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let measured: u64 = json[start..end].parse().unwrap();
    assert!(measured > 0, "the traced run must spend time matching");
    let tampered = format!("{}{}{}", &json[..start], measured / 2, &json[end..]);
    let slow = tempfile_path::write(&tampered);
    let err = run_err(&[
        "report",
        trace.0.to_str().unwrap(),
        "--baseline",
        slow.0.to_str().unwrap(),
        "--threshold-pct",
        "20",
    ]);
    assert!(err.contains("match_ns"), "{err}");
    assert!(last_error_line(&err).contains("regressed"), "{err}");
}

#[test]
fn report_rejects_a_malformed_trace_with_context() {
    let junk = tempfile_path::write("this is not jsonl\n");
    let err = run_err(&["report", junk.0.to_str().unwrap()]);
    assert!(last_error_line(&err).contains("line 1"), "{err}");
}

#[test]
fn trace_sample_keeps_counters_while_dropping_spans() {
    let prog = write_prog();
    let full = tempfile_path::write("");
    let sampled = tempfile_path::write("");
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        full.0.to_str().unwrap(),
    ]);
    run_ok(&[
        "seq",
        prog.0.to_str().unwrap(),
        "CTP,PAR",
        "--trace",
        sampled.0.to_str().unwrap(),
        "--trace-sample",
        "1000000",
    ]);
    let count = |path: &std::path::Path, needle: &str| {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .filter(|l| l.contains(needle))
            .count()
    };
    // Counters (exact by contract) survive sampling untouched...
    assert_eq!(
        count(&full.0, "\"name\":\"funnel.CTP.applied\""),
        count(&sampled.0, "\"name\":\"funnel.CTP.applied\""),
    );
    // ...while attempt spans are decimated.
    assert!(
        count(&sampled.0, "\"name\":\"driver.attempt\"")
            < count(&full.0, "\"name\":\"driver.attempt\""),
        "sampling must drop attempt spans"
    );
}
