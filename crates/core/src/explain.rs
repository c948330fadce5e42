//! The explain engine: *why didn't this optimizer fire here?*
//!
//! Where the match funnel ([`crate::Driver`]'s `funnel.*` counters) says
//! how many candidates died at each stage, this module says **which**
//! stage killed **this** candidate and names the exact discriminator.
//! For every anchor candidate of one optimizer it walks the same three
//! gates the searcher walks, in the same order, and stops at the first
//! one that fails:
//!
//! 1. **admission** — the fused automaton's trie path is replayed via
//!    [`FusedAutomaton::explain_admission`], reporting either the root
//!    opcode-bucket miss or the first failing discriminator edge;
//! 2. **anchor format** — the clause's top-level conjuncts are evaluated
//!    one by one and the first false conjunct is named in GOSpeL
//!    concrete syntax;
//! 3. **the rest of the precondition** — the surviving binding
//!    environments are pushed clause-by-clause through the remaining
//!    pattern clauses and the Depend section (reusing the searcher's own
//!    [`solve_clause`] machinery), and the first clause that kills every
//!    environment is reported.
//!
//! The walk is breadth-first over environments (capped at
//! [`ENV_CAP`] to bound pathological specs — the report says so when the
//! cap bites), so unlike the searcher it does not stop at the first
//! witness: it exists to attribute failure, not to find bindings fast.
//!
//! [`solve_clause`]: crate::solve::Searcher::solve_clause

use crate::automaton::{AdmissionVerdict, FusedAutomaton};
use crate::compile::CompiledOptimizer;
use crate::error::RunError;
use crate::resolve::Cond;
use crate::rt::{Bindings, RtVal};
use crate::solve::{cand_elems, eval_format, Cand, Elem, Rows, Searcher};
use gospel_dep::DepGraph;
use gospel_ir::{LoopId, LoopTable, Program, StmtId};
use gospel_lang::ast::{BoolExpr, ElemType, PatternClause, Quant};
use gospel_lang::{pretty_bool, pretty_depend_clause, pretty_pattern_clause};
use std::fmt;

/// Environment-frontier cap: clause-by-clause survival tracking keeps at
/// most this many binding environments alive. The catalog's optimizers
/// stay in single digits; the cap only guards degenerate specifications,
/// and [`ExplainReport::truncated`] records when it bit.
pub const ENV_CAP: usize = 512;

/// The first gate that killed one anchor candidate, with the exact
/// discriminator that failed.
#[derive(Clone, Debug, PartialEq)]
pub enum Blocker {
    /// The fused automaton's root opcode bucket rejected the statement.
    OpcodeMiss {
        /// The statement's opcode.
        got: String,
        /// The anchor's admissible opcode set.
        expected: Vec<String>,
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
    /// True when [`ENV_CAP`] truncated an environment frontier — blocker
    /// attribution past the truncation point may name a later clause
    /// than the searcher would.
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
        if self.truncated {
            let _ = writeln!(
                s,
                "  note: environment frontier truncated at {ENV_CAP}; \
                 attribution past that point is approximate"
            );
        }
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

/// Anchor-shaped candidate tuples for one element type — the explain
/// engine's (unfiltered) counterpart of the searcher's candidate
/// enumeration. Fills `out`.
fn element_candidates(prog: &Program, loops: &LoopTable, ty: ElemType, out: &mut Vec<Cand>) {
    out.clear();
    let pair = |(a, b): (LoopId, LoopId)| (Elem::Loop(a), Some(Elem::Loop(b)));
    match ty {
        ElemType::Stmt => out.extend(prog.iter().map(|s| (Elem::Stmt(s), None))),
        ElemType::Loop => out.extend(loops.iter().map(|l| (Elem::Loop(l.id), None))),
        ElemType::NestedLoops => out.extend(loops.nested_pairs().into_iter().map(pair)),
        ElemType::TightLoops => out.extend(loops.tight_pairs(prog).into_iter().map(pair)),
        ElemType::AdjacentLoops => out.extend(loops.adjacent_pairs(prog).into_iter().map(pair)),
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
    let parts: Vec<String> = cand_elems(cand)
        .map(|e| match e {
            Elem::Stmt(s) => format!("{s} ({})", prog.quad(s).op.gospel_name()),
            Elem::Loop(l) => l.to_string(),
        })
        .collect();
    if parts.len() == 1 {
        parts.into_iter().next().unwrap()
    } else {
        format!("({})", parts.join(", "))
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
    checks: &mut u64,
) -> Result<Option<&'b BoolExpr>, RunError> {
    match (ast, cond) {
        (BoolExpr::And(al, ar), Cond::And(c)) => {
            let [cl, cr] = &**c;
            match first_false_conjunct(prog, loops, env, al, cl, checks)? {
                Some(f) => Ok(Some(f)),
                None => first_false_conjunct(prog, loops, env, ar, cr, checks),
            }
        }
        _ => Ok((!eval_format(prog, loops, env, cond, checks)?).then_some(ast)),
    }
}

/// Walks every anchor candidate of `opt` through admission, format and
/// the remaining precondition, and reports where each one stopped.
/// `only_stmt` restricts the walk to candidates anchored at that
/// statement (the CLI's `--stmt` flag).
///
/// # Errors
///
/// Propagates [`RunError`] from format or dependence evaluation — the
/// same errors the searcher itself would raise (e.g. an `all` quantifier
/// in `Code_Pattern`).
pub fn explain(
    prog: &Program,
    deps: &DepGraph,
    opt: &CompiledOptimizer,
    auto: &FusedAutomaton,
    only_stmt: Option<StmtId>,
) -> Result<ExplainReport, RunError> {
    let loops = deps.loops();
    let Some((anchor_clause, anchor_ty)) = opt.patterns.first() else {
        return Err(RunError::Action(
            "optimizer has no pattern clause to explain".into(),
        ));
    };
    if anchor_clause.quant != Quant::Any {
        return Err(RunError::Action(
            "`explain` requires an `any` anchor clause".into(),
        ));
    }
    let fused = auto.opt_id(&opt.name).is_some();
    let mut report = ExplainReport {
        optimizer: opt.name.clone(),
        fused,
        truncated: false,
        candidates: Vec::new(),
    };
    let mut walk = Walk {
        searcher: Searcher::new(prog, deps, opt),
        envs: Rows::default(),
        next: Rows::default(),
        sols: Rows::default(),
        cands: Vec::new(),
        truncated: false,
    };
    let mut anchors = Vec::new();
    element_candidates(prog, loops, *anchor_ty, &mut anchors);
    for cand in &anchors {
        let stmt = match cand.0 {
            Elem::Stmt(s) => Some(s),
            Elem::Loop(_) => None,
        };
        if let Some(only) = only_stmt {
            if stmt != Some(only) {
                continue;
            }
        }
        let blocker = walk.candidate(auto, anchor_clause, cand)?;
        report.candidates.push(CandidateExplanation {
            anchor: render_candidate(prog, cand),
            stmt,
            blocker,
        });
    }
    report.truncated = walk.truncated;
    Ok(report)
}

/// The state of one explain walk, reused across its candidates: the
/// searcher whose environment and clause solver the walk runs, and the
/// environment frontiers, kept as rows of every slot.
struct Walk<'a> {
    searcher: Searcher<'a>,
    envs: Rows,
    next: Rows,
    sols: Rows,
    cands: Vec<Cand>,
    truncated: bool,
}

impl Walk<'_> {
    /// Loads frontier row `i` into the searcher's environment.
    fn load(&mut self, i: usize) {
        self.searcher.env.load(self.envs.row(i));
    }

    /// Keeps the searcher's environment in the next frontier, up to
    /// [`ENV_CAP`].
    fn keep(&mut self) {
        if self.next.len() < ENV_CAP {
            self.next.push(self.searcher.env.vals());
        } else {
            self.truncated = true;
        }
    }

    /// One candidate's walk; returns the first failing gate.
    fn candidate(
        &mut self,
        auto: &FusedAutomaton,
        anchor_clause: &PatternClause,
        cand: &Cand,
    ) -> Result<Option<Blocker>, RunError> {
        let s = &mut self.searcher;
        let (prog, loops, opt) = (s.prog, s.deps.loops(), s.opt);
        // Gate 1: the fused automaton's admission path.
        if let Elem::Stmt(st) = cand.0 {
            match auto.explain_admission(&opt.name, prog.quad(st)) {
                AdmissionVerdict::OpcodeMiss { got, expected } => {
                    return Ok(Some(Blocker::OpcodeMiss {
                        got: got.to_owned(),
                        expected: expected.iter().map(|&e| e.to_owned()).collect(),
                    }))
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
        // Gate 2: the anchor format, conjunct by conjunct.
        s.env.clear();
        for (&v, e) in opt.pattern_slots[0].vars.iter().zip(cand_elems(cand)) {
            s.env.put(v, Some(e.into()));
        }
        if let (Some(ast), Some(cond)) = (&anchor_clause.format, &opt.pattern_slots[0].format) {
            let mut checks = 0u64;
            if let Some(conjunct) =
                first_false_conjunct(prog, loops, &s.env, ast, cond, &mut checks)?
            {
                return Ok(Some(Blocker::FormatFailed {
                    clause: 0,
                    conjunct: pretty_bool(conjunct),
                }));
            }
        }
        // Gate 3: the remaining pattern clauses, breadth-first over
        // surviving environments.
        let width = opt.names.len();
        self.envs.reset(width);
        self.envs.push(self.searcher.env.vals());
        for (idx, (clause, ty)) in opt.patterns.iter().enumerate().skip(1) {
            let slots = &opt.pattern_slots[idx];
            element_candidates(prog, loops, *ty, &mut self.cands);
            let holds = |s: &Searcher<'_>| -> Result<bool, RunError> {
                match &slots.format {
                    None => Ok(true),
                    Some(f) => eval_format(prog, loops, &s.env, f, &mut 0),
                }
            };
            self.next.reset(width);
            match clause.quant {
                Quant::Any => {
                    for i in 0..self.envs.len() {
                        'cands: for c in 0..self.cands.len() {
                            self.load(i);
                            let cand = self.cands[c];
                            for (&v, e) in slots.vars.iter().zip(cand_elems(&cand)) {
                                let val = RtVal::from(e);
                                match self.searcher.env.slot(v) {
                                    Some(existing) if *existing != val => continue 'cands,
                                    _ => {
                                        self.searcher.env.put(v, Some(val));
                                    }
                                }
                            }
                            if holds(&self.searcher)? {
                                self.keep();
                            }
                        }
                    }
                    if self.next.is_empty() {
                        return Ok(Some(Blocker::NoWitness {
                            clause: idx,
                            clause_text: pretty_pattern_clause(clause),
                        }));
                    }
                }
                Quant::No => {
                    let mut witness = None;
                    for i in 0..self.envs.len() {
                        let mut dead = false;
                        for c in 0..self.cands.len() {
                            self.load(i);
                            let cand = self.cands[c];
                            for (&v, e) in slots.vars.iter().zip(cand_elems(&cand)) {
                                self.searcher.env.put(v, Some(e.into()));
                            }
                            if holds(&self.searcher)? {
                                dead = true;
                                witness = Some(cand);
                                break;
                            }
                        }
                        if !dead {
                            self.next.push(self.envs.row(i));
                        }
                    }
                    if self.next.is_empty() {
                        return Ok(Some(Blocker::Forbidden {
                            clause: idx,
                            clause_text: pretty_pattern_clause(clause),
                            witness: witness
                                .map_or_else(String::new, |c| render_candidate(prog, &c)),
                        }));
                    }
                }
                Quant::All => {
                    return Err(RunError::Action(
                        "`all` in Code_Pattern is rejected at generation time".into(),
                    ))
                }
            }
            std::mem::swap(&mut self.envs, &mut self.next);
        }
        // Gate 4: the Depend section, clause by clause, running the
        // searcher's solver so strategy selection and edge semantics are
        // identical to a real run.
        for (di, cc) in opt.depends.iter().enumerate() {
            let row = &cc.slots.row;
            self.next.reset(width);
            match cc.clause.quant {
                Quant::Any => {
                    for i in 0..self.envs.len() {
                        self.load(i);
                        self.searcher.solve_clause(di, &mut self.sols)?;
                        for j in 0..self.sols.len() {
                            for (&slot, v) in row.iter().zip(self.sols.row(j)) {
                                self.searcher.env.put(slot, v.clone());
                            }
                            self.keep();
                        }
                    }
                    if self.next.is_empty() {
                        return Ok(Some(Blocker::DepUnsatisfied {
                            clause: di,
                            clause_text: pretty_depend_clause(&cc.clause),
                        }));
                    }
                }
                Quant::No => {
                    let mut witness = Vec::new();
                    for i in 0..self.envs.len() {
                        self.load(i);
                        self.searcher.solve_clause(di, &mut self.sols)?;
                        if self.sols.is_empty() {
                            self.next.push(self.envs.row(i));
                        } else {
                            witness.clear();
                            witness.extend_from_slice(self.sols.row(0));
                        }
                    }
                    if self.next.is_empty() {
                        // The solution's bindings of the clause variables,
                        // which lead its row.
                        let witness = cc
                            .clause
                            .vars
                            .iter()
                            .zip(&witness)
                            .filter_map(|(v, val)| {
                                val.as_ref().map(|val| format!("{v} = {}", render_val(val)))
                            })
                            .collect::<Vec<_>>()
                            .join(", ");
                        return Ok(Some(Blocker::DepForbidden {
                            clause: di,
                            clause_text: pretty_depend_clause(&cc.clause),
                            witness,
                        }));
                    }
                }
                Quant::All => {
                    // `all` collects a set; it never kills an environment.
                    // Mirror the searcher's collection so later clauses see
                    // the same bindings a real run would.
                    for i in 0..self.envs.len() {
                        self.load(i);
                        self.searcher.solve_clause(di, &mut self.sols)?;
                        self.searcher.bind_sets(&cc.slots, &self.sols);
                        self.next.push(self.searcher.env.vals());
                    }
                }
            }
            std::mem::swap(&mut self.envs, &mut self.next);
        }
        Ok(None)
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
                expected: vec!["assign".into()],
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
    }
}
