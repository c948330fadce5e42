//! The §3 interactive interface: "the user may execute any number of
//! optimizations in any order … perform an optimization at one
//! application point (possibly overriding dependence constraints) or at
//! all possible points … decide if the data dependence should be
//! re-calculated between execution of each optimization."

use genesis::{ApplyMode, Session};
use gospel_ir::{DisplayProgram, StmtId};
use std::io::{BufRead, Write};

const HELP: &str = "\
commands:
  list                      registered optimizations
  show                      current program (IR listing)
  source                    current program as MiniFor source
  points <OPT>              application points of <OPT>
  apply <OPT>               apply at all points
  apply <OPT> at <sN>       apply at one point
  force <OPT> at <sN>       apply at one point, overriding dependences
  log                       what has been applied, with costs
  help                      this text
  quit                      end the session
";

/// Runs the interactive loop over the given reader/writer (unit-testable).
pub fn run(
    mut session: Session,
    mut input: impl BufRead,
    mut out: impl Write,
) -> std::io::Result<()> {
    writeln!(out, "GENesis interactive optimizer — `help` for commands")?;
    loop {
        crate::prompt(&mut out)?;
        let Some(line) = crate::read_line(&mut input) else {
            break;
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            [] => {}
            ["quit"] | ["exit"] | ["q"] => break,
            ["help"] => write!(out, "{HELP}")?,
            ["list"] => {
                for n in session.optimizer_names() {
                    writeln!(out, "  {n}")?;
                }
            }
            ["show"] => write!(out, "{}", DisplayProgram(session.program()))?,
            ["source"] => write!(out, "{}", gospel_frontend::unparse(session.program()))?,
            ["log"] => {
                for ev in session.log() {
                    writeln!(
                        out,
                        "  {} ({:?}): {} application(s), cost {}",
                        ev.optimizer, ev.mode, ev.report.applications, ev.report.cost
                    )?;
                }
                writeln!(out, "  total cost: {}", session.total_cost())?;
            }
            ["points", name] => match session.matches(name) {
                Ok(ms) => {
                    for (i, b) in ms.bindings.iter().enumerate() {
                        writeln!(out, "  point {}: {}", i + 1, b.line())?;
                    }
                    writeln!(out, "  {} point(s)", ms.bindings.len())?;
                }
                Err(e) => writeln!(out, "  error: {e}")?,
            },
            ["apply", name] => report(&mut out, session.apply(name, ApplyMode::AllPoints))?,
            ["apply", name, "at", point] => {
                let mode = match parse_point(point) {
                    Ok(p) => ApplyMode::AtPoint(p),
                    Err(e) => {
                        writeln!(out, "  error: {e}")?;
                        continue;
                    }
                };
                report(&mut out, session.apply(name, mode))?;
            }
            ["force", name, "at", point] => {
                let mode = match parse_point(point) {
                    Ok(p) => ApplyMode::AtPointUnchecked(p),
                    Err(e) => {
                        writeln!(out, "  error: {e}")?;
                        continue;
                    }
                };
                report(&mut out, session.apply(name, mode))?;
            }
            other => writeln!(out, "  unknown command {:?}; try `help`", other.join(" "))?,
        }
    }
    writeln!(out, "session ended; final program:")?;
    write!(out, "{}", DisplayProgram(session.program()))?;
    Ok(())
}

fn parse_point(text: &str) -> Result<StmtId, String> {
    text.trim_start_matches('s')
        .parse::<u32>()
        .map(StmtId::from_raw)
        .map_err(|_| format!("`{text}` is not a statement id (expected sN)"))
}

fn report(
    out: &mut impl Write,
    r: Result<&genesis::ApplyReport, genesis::RunError>,
) -> std::io::Result<()> {
    match r {
        Ok(rep) => writeln!(
            out,
            "  {} application(s), cost {}",
            rep.applications, rep.cost
        ),
        Err(e) => writeln!(out, "  error: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis::SessionOptions;

    fn scripted(prog_src: &str, script: &str) -> String {
        let prog = gospel_frontend::compile(prog_src).unwrap();
        let mut session = Session::with_options(prog, SessionOptions::default());
        for opt in gospel_opts::catalog().unwrap() {
            session.register(opt);
        }
        let mut out = Vec::new();
        run(session, script.as_bytes(), &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    const PROG: &str = "program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend";

    #[test]
    fn list_apply_and_quit() {
        let out = scripted(PROG, "list\napply CTP\nlog\nquit\n");
        assert!(out.contains("CTP"), "{out}");
        assert!(out.contains("2 application(s)"), "{out}");
        assert!(out.contains("total cost"), "{out}");
        assert!(out.contains("y := 3"), "{out}");
    }

    #[test]
    fn points_and_apply_at() {
        let out = scripted(PROG, "points CTP\napply CTP at s0\nshow\nquit\n");
        assert!(out.contains("point 1:"), "{out}");
        assert!(out.contains("1 application(s)"), "{out}");
    }

    #[test]
    fn force_overrides_dependences() {
        let recurrence = "program p\ninteger i\nreal a(100)\ndo i = 2, 100\na(i) = a(i-1)\nend do\nwrite a(100)\nend";
        let out = scripted(recurrence, "apply PAR at s0\nforce PAR at s0\nshow\nquit\n");
        assert!(out.contains("0 application(s)"), "{out}");
        assert!(out.contains("1 application(s)"), "{out}");
        assert!(out.contains("pardo"), "{out}");
    }

    #[test]
    fn bad_input_is_reported_not_fatal() {
        let out = scripted(PROG, "points NOPE\napply CTP at xyz\nblah\nquit\n");
        assert!(out.contains("error:"), "{out}");
        assert!(out.contains("unknown command"), "{out}");
    }

    #[test]
    fn eof_ends_session() {
        let out = scripted(PROG, "list\n");
        assert!(out.contains("session ended"), "{out}");
    }
}
