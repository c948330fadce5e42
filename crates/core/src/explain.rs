//! The explain engine: *why didn't this optimizer fire here?*
//!
//! Where the match funnel ([`crate::Driver`]'s `funnel.*` counters) says
//! how many candidates died at each stage, this module says **which**
//! stage killed **this** candidate and names the exact discriminator.
//! It runs the searcher itself over the scan enumeration of anchor
//! candidates, collecting every binding, with a verdict sink that
//! records for each candidate the deepest clause any of its bindings
//! entered. A candidate none of whose bindings completes is blocked
//! there:
//!
//! 1. **admission** — when the anchor format failed, the fused
//!    automaton's trie path is replayed via
//!    [`FusedAutomaton::explain_admission`], reporting either the root
//!    opcode-bucket miss or the first failing discriminator edge;
//! 2. **anchor format** — otherwise the clause's top-level conjuncts
//!    are re-evaluated one by one and the first false conjunct is named
//!    in GOSpeL concrete syntax;
//! 3. **the rest of the precondition** — the deepest pattern or Depend
//!    clause any binding entered is the first clause that kills every
//!    binding reaching it, reported with the witness the last killed
//!    binding met when it is a `no` clause.
//!
//! The searcher visits bindings depth-first, in the order a clause-by-
//! clause walk over binding environments would list them, so the last
//! witness it meets is that walk's last environment's.

use crate::automaton::{AdmissionVerdict, FusedAutomaton};
use crate::compile::CompiledOptimizer;
use crate::error::RunError;
use crate::resolve::Cond;
use crate::rt::{Bindings, RtVal};
use crate::solve::{cand_elems, eval_format, Cand, Elem, Searcher, VerdictSink};
use gospel_dep::DepGraph;
use gospel_ir::{LoopTable, Program, StmtId};
use gospel_lang::ast::{BoolExpr, Quant};
use gospel_lang::{pretty_bool, pretty_depend_clause, pretty_pattern_clause};
use std::fmt;
use std::sync::Arc;

/// The first gate that killed one anchor candidate, with the exact
/// discriminator that failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Blocker {
    /// The fused automaton's root opcode bucket rejected the statement.
    OpcodeMiss {
        /// The statement's opcode.
        got: String,
        /// The anchor's admissible opcode set, shared by every candidate
        /// of one explain call.
        expected: Arc<[String]>,
    },
    /// A discriminator edge on the automaton's trie path rejected the
    /// statement.
    EdgeFailed {
        /// The failing edge in GOSpeL syntax, e.g. `type(opr_2) == const`.
        edge: String,
        /// The operand's actual class keyword.
        actual: String,
    },
    /// A top-level conjunct of a pattern clause's format is false.
    FormatFailed {
        /// 0-based pattern-clause index (0 = the anchor clause).
        clause: usize,
        /// The failing conjunct in GOSpeL syntax.
        conjunct: String,
    },
    /// An `any` pattern clause after the anchor found no witness under
    /// any surviving binding.
    NoWitness {
        /// 0-based pattern-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
    },
    /// A `no` pattern clause matched an element it forbids, under every
    /// surviving binding.
    Forbidden {
        /// 0-based pattern-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
        /// The matching element, e.g. `S4`.
        witness: String,
    },
    /// An `any` Depend clause has no solution under any surviving
    /// binding.
    DepUnsatisfied {
        /// 0-based Depend-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
    },
    /// A `no` Depend clause found a solution — a forbidden dependence —
    /// under every surviving binding.
    DepForbidden {
        /// 0-based Depend-clause index.
        clause: usize,
        /// The clause in GOSpeL syntax.
        clause_text: String,
        /// The forbidden solution's bindings, e.g. `Sl = S4`.
        witness: String,
    },
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::OpcodeMiss { got, expected } => write!(
                f,
                "not admitted: opcode `{got}` is outside the anchor's \
                 opcode set {{{}}} (rejected at the automaton's root bucket)",
                expected.join(", ")
            ),
            Blocker::EdgeFailed { edge, actual } => write!(
                f,
                "not admitted: automaton edge `{edge}` failed (the operand is {actual})"
            ),
            Blocker::FormatFailed { clause, conjunct } => write!(
                f,
                "format of pattern clause {} failed at conjunct `{conjunct}`",
                clause + 1
            ),
            Blocker::NoWitness { clause, clause_text } => write!(
                f,
                "pattern clause {} (`{clause_text}`) found no witness",
                clause + 1
            ),
            Blocker::Forbidden {
                clause,
                clause_text,
                witness,
            } => write!(
                f,
                "pattern clause {} (`{clause_text}`) forbids {witness}, which matches",
                clause + 1
            ),
            Blocker::DepUnsatisfied { clause, clause_text } => write!(
                f,
                "dependence clause {} (`{clause_text}`) has no solution",
                clause + 1
            ),
            Blocker::DepForbidden {
                clause,
                clause_text,
                witness,
            } => write!(
                f,
                "dependence clause {} (`{clause_text}`) found a forbidden \
                 dependence: {witness}",
                clause + 1
            ),
        }
    }
}

/// One anchor candidate's verdict: the element examined and the first
/// gate that killed it (`None` = the optimizer fires here).
#[derive(Clone, Debug)]
pub struct CandidateExplanation {
    /// The anchor element, rendered (`S3 (assign)`, `L0`, `(L0, L1)`).
    pub anchor: String,
    /// The anchor statement, when the anchor is statement-shaped.
    pub stmt: Option<StmtId>,
    /// The first failing gate; `None` when the precondition holds.
    pub blocker: Option<Blocker>,
}

/// The full explain walk of one optimizer over one program.
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The optimizer's name as registered.
    pub optimizer: String,
    /// Whether the fused automaton narrows this optimizer's anchor.
    pub fused: bool,
    /// Always false: the walk is the search itself and never truncates.
    /// Kept for readers of earlier reports.
    pub truncated: bool,
    /// One verdict per anchor candidate, in program order.
    pub candidates: Vec<CandidateExplanation>,
}

impl ExplainReport {
    /// How many anchor candidates satisfy the whole precondition.
    pub fn fired(&self) -> usize {
        self.candidates.iter().filter(|c| c.blocker.is_none()).count()
    }

    /// The first blocked candidate's blocker, if any.
    pub fn first_blocker(&self) -> Option<&Blocker> {
        self.candidates.iter().find_map(|c| c.blocker.as_ref())
    }

    /// Human-readable narrative, one line per candidate.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{}: {} anchor candidate(s), {} satisfy the precondition{}",
            self.optimizer,
            self.candidates.len(),
            self.fired(),
            if self.fused { " [fused anchor]" } else { "" }
        );
        for c in &self.candidates {
            match &c.blocker {
                None => {
                    let _ = writeln!(s, "  {}: FIRES", c.anchor);
                }
                Some(b) => {
                    let _ = writeln!(s, "  {}: {b}", c.anchor);
                }
            }
        }
        s
    }
}

fn render_val(v: &RtVal) -> String {
    match v {
        RtVal::Stmt(s) => s.to_string(),
        RtVal::Loop(l) => l.to_string(),
        other => format!("{other:?}"),
    }
}

fn render_candidate(prog: &Program, cand: &Cand) -> String {
    let elem = |e: Elem| match e {
        Elem::Stmt(s) => format!("{s} ({})", prog.quad(s).op.gospel_name()),
        Elem::Loop(l) => l.to_string(),
    };
    match cand.1 {
        None => elem(cand.0),
        Some(b) => format!("({}, {})", elem(cand.0), elem(b)),
    }
}

/// The first top-level conjunct of a format that is false, in source
/// order. `ast` and `cond` are the same format before and after name
/// resolution, so they split into conjuncts alike.
fn first_false_conjunct<'b>(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    ast: &'b BoolExpr,
    cond: &Cond,
) -> Result<Option<&'b BoolExpr>, RunError> {
    match (ast, cond) {
        (BoolExpr::And(al, ar), Cond::And(c)) => {
            let [cl, cr] = &**c;
            match first_false_conjunct(prog, loops, env, al, cl)? {
                Some(f) => Ok(Some(f)),
                None => first_false_conjunct(prog, loops, env, ar, cr),
            }
        }
        _ => Ok((!eval_format(prog, loops, env, cond, &mut 0)?).then_some(ast)),
    }
}

/// Runs `opt`'s search over every anchor candidate and reports where
/// each one stopped. `only_stmt` restricts the search to candidates
/// anchored at that statement (the CLI's `--stmt` flag), as the driver's
/// [`crate::ApplyMode::AtPoint`] does: a loop anchor by its head.
///
/// # Errors
///
/// Propagates [`RunError`] from format or dependence evaluation — the
/// same errors the searcher raises in a real run (e.g. an `all`
/// quantifier in `Code_Pattern`).
pub fn explain(
    prog: &Program,
    deps: &DepGraph,
    opt: &CompiledOptimizer,
    auto: &FusedAutomaton,
    only_stmt: Option<StmtId>,
) -> Result<ExplainReport, RunError> {
    let Some((anchor_clause, _)) = opt.patterns.first() else {
        return Err(RunError::Action(
            "optimizer has no pattern clause to explain".into(),
        ));
    };
    if anchor_clause.quant != Quant::Any {
        return Err(RunError::Action(
            "`explain` requires an `any` anchor clause".into(),
        ));
    }
    let mut s = Searcher::with_verdicts(prog, deps, opt, Visits::default());
    s.at_point = only_stmt;
    s.find_all(usize::MAX)?;
    let visits = std::mem::take(&mut s.verdicts.0);
    let mut candidates = Vec::with_capacity(visits.len());
    let mut rendered = Rendered::default();
    for visit in &visits {
        candidates.push(CandidateExplanation {
            anchor: render_candidate(prog, &visit.cand),
            stmt: match visit.cand.0 {
                Elem::Stmt(st) => Some(st),
                Elem::Loop(_) => None,
            },
            blocker: blocker(&mut s, auto, visit, &mut rendered)?,
        });
    }
    Ok(ExplainReport {
        optimizer: opt.name.clone(),
        fused: auto.opt_id(&opt.name).is_some(),
        truncated: false,
        candidates,
    })
}

/// Text one explain call renders once and shares among the candidates
/// it blocks.
#[derive(Default)]
struct Rendered {
    /// Each clause's text, rendered for the first candidate it blocks.
    clauses: Vec<Option<String>>,
    /// The anchor's admissible opcode set, built for the first candidate
    /// outside it.
    opcodes: Option<Arc<[String]>>,
}

/// The gate that blocked one visited anchor candidate; `None` when one
/// of its bindings satisfies the whole precondition.
fn blocker(
    s: &mut Searcher<'_, Visits>,
    auto: &FusedAutomaton,
    visit: &Visit,
    rendered: &mut Rendered,
) -> Result<Option<Blocker>, RunError> {
    let (opt, d) = (s.opt, visit.depth);
    let (np, clauses) = (opt.patterns.len(), opt.patterns.len() + opt.depends.len());
    if d == 0 {
        return anchor_blocker(s, auto, &visit.cand, &mut rendered.opcodes);
    }
    if d == clauses {
        return Ok(None); // past the last clause: a binding completed
    }
    rendered.clauses.resize(clauses, None);
    let clause_text = rendered.clauses[d]
        .get_or_insert_with(|| match opt.patterns.get(d) {
            Some((clause, _)) => pretty_pattern_clause(clause),
            None => pretty_depend_clause(&opt.depends[d - np].clause),
        })
        .clone();
    // Every binding reaching clause `d` died there: by a witness when it
    // is a `no` clause, else for want of one (an `all` clause never
    // kills a binding).
    Ok(Some(match (&visit.witness, d < np) {
        (Some(Witness::Elem(c)), _) => Blocker::Forbidden {
            clause: d,
            clause_text,
            witness: render_candidate(s.prog, c),
        },
        // The solution's bindings of the clause variables, which lead
        // its row.
        (Some(Witness::Row(row)), _) => Blocker::DepForbidden {
            clause: d - np,
            clause_text,
            witness: opt.depends[d - np]
                .clause
                .vars
                .iter()
                .zip(row)
                .filter_map(|(v, val)| {
                    val.as_ref().map(|val| format!("{v} = {}", render_val(val)))
                })
                .collect::<Vec<_>>()
                .join(", "),
        },
        (None, true) => Blocker::NoWitness {
            clause: d,
            clause_text,
        },
        (None, false) => Blocker::DepUnsatisfied {
            clause: d - np,
            clause_text,
        },
    }))
}

/// Why an anchor candidate's format failed: the automaton's admission
/// verdict when it rejects the statement, else the first false conjunct,
/// evaluated with the anchor's variables bound in the search
/// environment (empty once the search has finished). `opcodes` caches
/// the anchor's opcode set once rendered.
fn anchor_blocker(
    s: &mut Searcher<'_, Visits>,
    auto: &FusedAutomaton,
    cand: &Cand,
    opcodes: &mut Option<Arc<[String]>>,
) -> Result<Option<Blocker>, RunError> {
    let (prog, opt) = (s.prog, s.opt);
    if let Elem::Stmt(st) = cand.0 {
        match auto.explain_admission(&opt.name, prog.quad(st)) {
            AdmissionVerdict::OpcodeMiss { got, expected } => {
                let expected = opcodes
                    .get_or_insert_with(|| expected.iter().map(|&e| e.to_owned()).collect())
                    .clone();
                return Ok(Some(Blocker::OpcodeMiss {
                    got: got.to_owned(),
                    expected,
                }));
            }
            v @ AdmissionVerdict::EdgeFailed { actual, .. } => {
                return Ok(Some(Blocker::EdgeFailed {
                    edge: v.edge(),
                    actual: actual.keyword().to_owned(),
                }))
            }
            AdmissionVerdict::NotFused | AdmissionVerdict::Admitted => {}
        }
    }
    let (Some(ast), Some(cond)) = (&opt.patterns[0].0.format, &opt.pattern_slots[0].format) else {
        return Ok(None);
    };
    for (&v, e) in opt.pattern_slots[0].vars.iter().zip(cand_elems(cand)) {
        s.env.put(v, Some(e.into()));
    }
    let conjunct = first_false_conjunct(prog, s.deps.loops(), &s.env, ast, cond);
    s.env.clear();
    Ok(conjunct?.map(|c| Blocker::FormatFailed {
        clause: 0,
        conjunct: pretty_bool(c),
    }))
}

/// The explain search's verdict sink: one record per visited anchor
/// candidate, in visiting order.
#[derive(Default)]
struct Visits(Vec<Visit>);

/// What the search did under one anchor candidate.
struct Visit {
    cand: Cand,
    /// The deepest clause any of its bindings entered (pattern clauses,
    /// then Depend clauses; one past the last means it fires).
    depth: usize,
    /// What the `no` clause at `depth` matched for the last binding it
    /// killed; `None` while no binding died there by a witness.
    witness: Option<Witness>,
}

enum Witness {
    /// A `no` pattern clause's matching element.
    Elem(Cand),
    /// A `no` Depend clause's first solution row.
    Row(Vec<Option<RtVal>>),
}

impl Visits {
    /// The current anchor's record, when `idx` is its deepest clause.
    fn at_depth(&mut self, idx: usize) -> Option<&mut Visit> {
        self.0.last_mut().filter(|v| v.depth == idx)
    }
}

impl VerdictSink for Visits {
    /// Records the candidate, and skips it unless admitted: its
    /// attribution is then the automaton's admission verdict.
    fn anchor(&mut self, cand: &Cand, admitted: bool) -> bool {
        self.0.push(Visit {
            cand: *cand,
            depth: 0,
            witness: None,
        });
        admitted
    }

    fn reached(&mut self, idx: usize) {
        if let Some(v) = self.0.last_mut().filter(|v| idx > v.depth) {
            v.depth = idx;
            v.witness = None;
        }
    }

    fn forbidden(&mut self, idx: usize, witness: &Cand) {
        if let Some(v) = self.at_depth(idx) {
            v.witness = Some(Witness::Elem(*witness));
        }
    }

    fn dep_forbidden(&mut self, idx: usize, solution: &[Option<RtVal>]) {
        if let Some(v) = self.at_depth(idx) {
            v.witness = Some(Witness::Row(solution.to_vec()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use gospel_lang::parse_validated;

    fn opt_of(src: &str) -> CompiledOptimizer {
        let (s, i) = parse_validated(src).unwrap();
        generate(s, i).unwrap()
    }

    fn ctp() -> CompiledOptimizer {
        opt_of(crate::CTP_EXAMPLE_SPEC)
    }

    fn world(src: &str) -> (Program, DepGraph) {
        let p = gospel_frontend::compile(src).unwrap();
        let d = DepGraph::analyze(&p).unwrap();
        (p, d)
    }

    #[test]
    fn names_the_failing_automaton_edge_and_opcode_bucket() {
        let (p, d) = world("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend");
        let opt = ctp();
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let report = explain(&p, &d, &opt, &auto, None).unwrap();
        assert!(report.fused);
        assert_eq!(report.candidates.len(), 3);
        // x = 3 propagates into y = x: the precondition holds.
        assert!(report.candidates[0].blocker.is_none());
        // y = x: admitted opcode, but the const edge fails.
        assert_eq!(
            report.candidates[1].blocker,
            Some(Blocker::EdgeFailed {
                edge: "type(opr_2) == const".into(),
                actual: "var".into(),
            })
        );
        // write y: rejected at the root bucket.
        assert_eq!(
            report.candidates[2].blocker,
            Some(Blocker::OpcodeMiss {
                got: "write".into(),
                expected: Arc::from(["assign".to_string()]),
            })
        );
        assert_eq!(report.fired(), 1);
        let text = report.to_text();
        assert!(text.contains("type(opr_2) == const"), "{text}");
        assert!(text.contains("FIRES"), "{text}");
    }

    #[test]
    fn names_the_unsatisfied_and_forbidden_dependence_clauses() {
        // x is never used: CTP's `any` flow-dep clause has no solution.
        let (p, d) = world("program p\ninteger x\nx = 3\nend");
        let opt = ctp();
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let report = explain(&p, &d, &opt, &auto, None).unwrap();
        match &report.candidates[0].blocker {
            Some(Blocker::DepUnsatisfied { clause: 0, clause_text }) => {
                assert!(clause_text.contains("flow_dep(Si, Sj"), "{clause_text}");
            }
            other => panic!("expected DepUnsatisfied, got {other:?}"),
        }

        // Two defs of x reach y = x: the `no` clause finds the second
        // (forbidden) reaching definition.
        let (p, d) = world(
            "program p\ninteger x, y, z\nread z\nx = 3\nif (z > 0) then\nx = 4\nend if\ny = x\nend",
        );
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let report = explain(&p, &d, &opt, &auto, None).unwrap();
        let anchors: Vec<&CandidateExplanation> = report
            .candidates
            .iter()
            .filter(|c| c.blocker.is_some())
            .collect();
        assert!(
            anchors.iter().any(|c| matches!(
                c.blocker,
                Some(Blocker::DepForbidden { clause: 1, .. })
            )),
            "expected a DepForbidden blocker on the second Depend clause: {:?}",
            report.candidates
        );
    }

    #[test]
    fn names_the_failing_format_conjunct_past_an_inexact_filter() {
        // The trailing self-comparison conjunct is not capturable by the
        // anchor filter, so admission passes and the format walk must
        // attribute the failure.
        let opt = opt_of(
            "OPTIMIZATION SELFA\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any S: S.opc == assign AND type(S.opr_2) == const AND S.opr_1 == S.opr_2;\n\
             ACTION\n  delete(S);\nEND",
        );
        let (p, d) = world("program p\ninteger x\nx = 3\nend");
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let report = explain(&p, &d, &opt, &auto, None).unwrap();
        assert_eq!(
            report.candidates[0].blocker,
            Some(Blocker::FormatFailed {
                clause: 0,
                conjunct: "S.opr_1 == S.opr_2".into(),
            })
        );
    }

    #[test]
    fn restricts_to_one_statement_and_counts_loop_anchors() {
        let (p, d) = world("program p\ninteger x, y\nx = 3\ny = x\nwrite y\nend");
        let opt = ctp();
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let s1 = p.iter().nth(1).unwrap();
        let report = explain(&p, &d, &opt, &auto, Some(s1)).unwrap();
        assert_eq!(report.candidates.len(), 1);
        assert_eq!(report.candidates[0].stmt, Some(s1));

        // A loop-anchored optimizer enumerates the loop table and is not
        // narrowed by the automaton.
        let lur = opt_of(
            "OPTIMIZATION LOOPY\nTYPE\n  Loop: L;\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any L;\n  Depend\n    no S: mem(S, L), ctrl_dep(L.head, S);\n\
             ACTION\n  delete(L.head);\nEND",
        );
        let (p, d) = world(
            "program p\ninteger i, x\nreal a(10)\ndo i = 1, 10\na(i) = x\nend do\nend",
        );
        let auto = FusedAutomaton::build(std::slice::from_ref(&lur), &p);
        let report = explain(&p, &d, &lur, &auto, None).unwrap();
        assert!(!report.fused);
        assert_eq!(report.candidates.len(), 1);
        match &report.candidates[0].blocker {
            Some(Blocker::DepForbidden { clause: 0, witness, .. }) => {
                assert!(!witness.is_empty());
            }
            None => {} // no control dep recorded for loop bodies: fires
            other => panic!("unexpected blocker {other:?}"),
        }
        // Restricted to one statement, a loop anchor is selected by its
        // head, as `ApplyMode::AtPoint` selects it.
        let head = p.iter().next().unwrap();
        let report = explain(&p, &d, &lur, &auto, Some(head)).unwrap();
        assert_eq!(report.candidates.len(), 1, "{}", report.to_text());
        assert_eq!(report.candidates[0].anchor, "L0");
        let body = p.iter().nth(1).unwrap();
        let report = explain(&p, &d, &lur, &auto, Some(body)).unwrap();
        assert!(report.candidates.is_empty(), "{}", report.to_text());
    }
}
