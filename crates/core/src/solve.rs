//! Precondition evaluation: pattern matching, dependence verification and
//! the two membership-checking strategies of §4.
//!
//! The searcher evaluates the optimizer's slot-resolved clauses (see
//! [`crate::resolve`]) against one environment that it binds and unbinds
//! in place. A dependence clause's solutions are kept as rows of the
//! slots the clause can bind, in reusable buffers; a [`Bindings`] is
//! copied out only for an application point the caller keeps.

use crate::compile::{CompiledOptimizer, Strategy};
use crate::cost::Cost;
use crate::error::RunError;
use crate::automaton::{AnchorFilter, FusedAutomaton};
use crate::resolve::{ClauseSlots, Cond, DepAtom, Endpoint, Expr, SetRef, Slot};
use crate::rt::{Bindings, RtVal};
use gospel_dep::{DepEdge, DepGraph};
use gospel_ir::{LoopId, LoopTable, Opcode, Operand, OperandPos, Program, StmtId};
use gospel_lang::ast::{Attr, CmpOp, ElemType, OperandClass, Quant};
use std::borrow::Cow;
use std::fmt;
use std::time::Instant;

// ---------------------------------------------------------------------------
// value evaluation (shared with the action interpreter)
// ---------------------------------------------------------------------------

/// A value read while evaluating an expression, borrowed from the
/// program or the environment where it lives there.
#[derive(Clone)]
pub(crate) enum Val<'a> {
    Stmt(StmtId),
    Loop(LoopId),
    Operand(Cow<'a, Operand>),
    Opc(Opcode),
    Pos(OperandPos),
    Set(&'a [(StmtId, Option<OperandPos>)]),
    Int(i64),
    Real(f64),
    Name(&'a str),
}

impl<'a> Val<'a> {
    fn of(v: &'a RtVal) -> Val<'a> {
        match v {
            RtVal::Stmt(s) => Val::Stmt(*s),
            RtVal::Loop(l) => Val::Loop(*l),
            RtVal::Operand(o) => Val::Operand(Cow::Borrowed(o)),
            RtVal::Opc(o) => Val::Opc(*o),
            RtVal::Pos(p) => Val::Pos(*p),
            RtVal::Set(items) => Val::Set(items),
            RtVal::Int(n) => Val::Int(*n),
            RtVal::Real(r) => Val::Real(*r),
            RtVal::Name(n) => Val::Name(n),
        }
    }

    /// The owned runtime value.
    pub(crate) fn into_rt(self) -> RtVal {
        match self {
            Val::Stmt(s) => RtVal::Stmt(s),
            Val::Loop(l) => RtVal::Loop(l),
            Val::Operand(o) => RtVal::Operand(o.into_owned()),
            Val::Opc(o) => RtVal::Opc(o),
            Val::Pos(p) => RtVal::Pos(p),
            Val::Set(items) => RtVal::Set(items.to_vec()),
            Val::Int(n) => RtVal::Int(n),
            Val::Real(r) => RtVal::Real(r),
            Val::Name(n) => RtVal::Name(n.to_owned()),
        }
    }

    /// The statement, if this value is one.
    pub(crate) fn as_stmt(&self) -> Option<StmtId> {
        match self {
            Val::Stmt(s) => Some(*s),
            _ => None,
        }
    }

    /// The position, if this value is one (integer literals 1–3 coerce).
    fn as_pos(&self) -> Option<OperandPos> {
        match self {
            Val::Pos(p) => Some(*p),
            Val::Int(n) => OperandPos::from_index(usize::try_from(*n).ok()?),
            _ => None,
        }
    }

    /// The operand, if this value is one (numeric literals coerce to
    /// constants).
    pub(crate) fn into_operand(self) -> Option<Cow<'a, Operand>> {
        match self {
            Val::Operand(o) => Some(o),
            Val::Int(n) => Some(Cow::Owned(Operand::int(n))),
            Val::Real(r) => Some(Cow::Owned(Operand::real(r))),
            _ => None,
        }
    }
}

impl fmt::Debug for Val<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.clone().into_rt().fmt(f)
    }
}

fn unbound(name: &str) -> RunError {
    RunError::Action(format!("`{name}` is not bound"))
}

/// Evaluates `e` in `env`, whose slots must index the table `e` was
/// resolved against.
pub(crate) fn eval<'a>(
    prog: &'a Program,
    loops: &'a LoopTable,
    env: &'a Bindings,
    e: &'a Expr,
) -> Result<Val<'a>, RunError> {
    match e {
        Expr::Int(n) => Ok(Val::Int(*n)),
        Expr::Real(r) => Ok(Val::Real(*r)),
        Expr::Var(s) => Ok(env
            .slot(*s)
            .map_or_else(|| Val::Name(env.table().name(*s)), Val::of)),
        Expr::Word(w) => Ok(Val::Name(w)),
        Expr::Ref(s, path) => {
            let mut val = env
                .slot(*s)
                .map(Val::of)
                .ok_or_else(|| unbound(env.table().name(*s)))?;
            for attr in path {
                val = step_attr(prog, loops, val, *attr)?;
            }
            Ok(val)
        }
        Expr::Unknown(base) => Err(unbound(base)),
        Expr::OperandFn(sp) => {
            let [s, p] = &**sp;
            let (stmt, pos) = operand_fn_place(prog, loops, env, s, p)?;
            Ok(Val::Operand(Cow::Borrowed(prog.quad(stmt).operand(pos))))
        }
        Expr::Eval(args) => {
            let [a, opexpr, b] = &**args;
            let fa = const_of(eval(prog, loops, env, a)?)?;
            let fb = const_of(eval(prog, loops, env, b)?)?;
            let opname = match eval(prog, loops, env, opexpr)? {
                Val::Opc(o) => o.gospel_name(),
                Val::Name(n) => n,
                other => {
                    return Err(RunError::Action(format!(
                        "eval(): operation is not an opcode: {other:?}"
                    )))
                }
            };
            let op = fold_op(opname)
                .ok_or_else(|| RunError::Action(format!("eval(): unknown op `{opname}`")))?;
            let folded = gospel_ir::Value::fold(op, fa, fb)
                .ok_or_else(|| RunError::Action("eval(): fold failed".into()))?;
            Ok(Val::Operand(Cow::Owned(Operand::Const(folded))))
        }
        Expr::Bump(args) => {
            let [x, var, k] = &**args;
            let ox = eval(prog, loops, env, x)?
                .into_operand()
                .ok_or_else(|| RunError::Action("bump(): first argument not an operand".into()))?;
            let ov = eval(prog, loops, env, var)?
                .into_operand()
                .and_then(|o| o.as_var())
                .ok_or_else(|| RunError::Action("bump(): second argument not a variable".into()))?;
            let amount = const_of(eval(prog, loops, env, k)?)?
                .as_int()
                .ok_or_else(|| RunError::Action("bump(): amount is not an integer".into()))?;
            let repl = gospel_ir::AffineExpr::var(ov).plus_const(amount);
            // A bare scalar use of the bumped variable cannot be rewritten
            // to `var + k` inside a single operand slot: fail loudly rather
            // than silently leaving it unbumped.
            if amount != 0 && ox.as_var() == Some(ov) {
                return Err(RunError::Action(
                    "bump(): the control variable is used as a direct scalar operand; \
                     the substitution is not expressible (prototype restriction)"
                        .into(),
                ));
            }
            Ok(Val::Operand(Cow::Owned(ox.substitute_affine(ov, &repl))))
        }
    }
}

fn const_of(v: Val<'_>) -> Result<gospel_ir::Value, RunError> {
    match v {
        Val::Operand(o) => match &*o {
            Operand::Const(c) => Ok(*c),
            _ => Err(RunError::Action(format!(
                "expected a constant operand, got {:?}",
                Val::Operand(o.clone())
            ))),
        },
        Val::Int(n) => Ok(gospel_ir::Value::Int(n)),
        Val::Real(r) => Ok(gospel_ir::Value::Real(r)),
        other => Err(RunError::Action(format!(
            "expected a constant operand, got {other:?}"
        ))),
    }
}

fn fold_op(name: &str) -> Option<gospel_ir::FoldOp> {
    use gospel_ir::FoldOp;
    const OPS: [(&str, FoldOp); 5] = [
        ("add", FoldOp::Add),
        ("sub", FoldOp::Sub),
        ("mul", FoldOp::Mul),
        ("div", FoldOp::Div),
        ("mod", FoldOp::Mod),
    ];
    OPS.iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|&(_, op)| op)
}

fn step_attr<'a>(
    prog: &'a Program,
    loops: &LoopTable,
    val: Val<'a>,
    attr: Attr,
) -> Result<Val<'a>, RunError> {
    let nav_err = || RunError::Action(format!("attribute `.{}` navigated off the program", attr.keyword()));
    let operand =
        |s: StmtId, pos: OperandPos| Val::Operand(Cow::Borrowed(prog.quad(s).operand(pos)));
    match (val, attr) {
        (Val::Stmt(s), Attr::Nxt) => prog.next(s).map(Val::Stmt).ok_or_else(nav_err),
        (Val::Stmt(s), Attr::Prev) => prog.prev(s).map(Val::Stmt).ok_or_else(nav_err),
        (Val::Stmt(s), Attr::Opr(i)) => {
            let pos = OperandPos::from_index(i as usize).ok_or_else(nav_err)?;
            Ok(operand(s, pos))
        }
        (Val::Stmt(s), Attr::Opc) => Ok(Val::Opc(prog.quad(s).op)),
        (Val::Loop(l), Attr::Head) => Ok(Val::Stmt(loops.get(l).head)),
        (Val::Loop(l), Attr::End) => Ok(Val::Stmt(loops.get(l).end)),
        // Live reads through the header statement so that modified bounds
        // are observed.
        (Val::Loop(l), Attr::Lcv) => Ok(operand(loops.get(l).head, OperandPos::Dst)),
        (Val::Loop(l), Attr::Init) => Ok(operand(loops.get(l).head, OperandPos::A)),
        (Val::Loop(l), Attr::Final) => Ok(operand(loops.get(l).head, OperandPos::B)),
        (Val::Loop(l), Attr::Nxt) => loops
            .by_index(l.index() + 1)
            .map(|info| Val::Loop(info.id))
            .ok_or_else(nav_err),
        (Val::Loop(l), Attr::Prev) => l
            .index()
            .checked_sub(1)
            .and_then(|i| loops.by_index(i))
            .map(|info| Val::Loop(info.id))
            .ok_or_else(nav_err),
        (other, a) => Err(RunError::Action(format!(
            "attribute `.{}` not defined on {other:?}",
            a.keyword()
        ))),
    }
}

/// Resolves an operand *place* — where `modify` writes.
pub(crate) fn eval_place(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    e: &Expr,
) -> Result<(StmtId, OperandPos), RunError> {
    match e {
        Expr::OperandFn(sp) => {
            let [s, p] = &**sp;
            operand_fn_place(prog, loops, env, s, p)
        }
        Expr::Ref(base, path) if !path.is_empty() => {
            let (prefix, last) = path.split_at(path.len() - 1);
            let name = env.table().name(*base);
            let mut holder = env.slot(*base).map(Val::of).ok_or_else(|| unbound(name))?;
            for attr in prefix {
                holder = step_attr(prog, loops, holder, *attr)?;
            }
            match (holder, last[0]) {
                (Val::Stmt(s), Attr::Opr(i)) => {
                    let pos = OperandPos::from_index(i as usize)
                        .ok_or_else(|| RunError::Action("bad operand index".into()))?;
                    Ok((s, pos))
                }
                (Val::Loop(l), Attr::Lcv) => Ok((loops.get(l).head, OperandPos::Dst)),
                (Val::Loop(l), Attr::Init) => Ok((loops.get(l).head, OperandPos::A)),
                (Val::Loop(l), Attr::Final) => Ok((loops.get(l).head, OperandPos::B)),
                (_h, a) => Err(RunError::Action(format!(
                    "`{name}.{}` is not an operand place",
                    a.keyword()
                ))),
            }
        }
        Expr::Unknown(base) => Err(unbound(base)),
        other => Err(RunError::Action(format!(
            "not an operand place: {other:?}"
        ))),
    }
}

fn operand_fn_place(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    s: &Expr,
    p: &Expr,
) -> Result<(StmtId, OperandPos), RunError> {
    let stmt = eval(prog, loops, env, s)?
        .as_stmt()
        .ok_or_else(|| RunError::Action("operand(): first argument not a statement".into()))?;
    let pos = eval(prog, loops, env, p)?
        .as_pos()
        .ok_or_else(|| RunError::Action("operand(): second argument not a position".into()))?;
    Ok((stmt, pos))
}

// ---------------------------------------------------------------------------
// comparisons
// ---------------------------------------------------------------------------

fn numeric(v: &Val<'_>) -> Option<f64> {
    match v {
        Val::Int(n) => Some(*n as f64),
        Val::Real(r) => Some(*r),
        Val::Operand(o) => match &**o {
            Operand::Const(c) => Some(c.to_f64()),
            _ => None,
        },
        _ => None,
    }
}

pub(crate) fn compare(a: &Val<'_>, op: CmpOp, b: &Val<'_>) -> Result<bool, RunError> {
    if let (Some(x), Some(y)) = (numeric(a), numeric(b)) {
        return Ok(match op {
            CmpOp::Eq => x == y,
            CmpOp::Ne => x != y,
            CmpOp::Lt => x < y,
            CmpOp::Le => x <= y,
            CmpOp::Gt => x > y,
            CmpOp::Ge => x >= y,
        });
    }
    let eq = match (a, b) {
        (Val::Stmt(x), Val::Stmt(y)) => x == y,
        (Val::Loop(x), Val::Loop(y)) => x == y,
        (Val::Pos(x), Val::Pos(y)) => x == y,
        (Val::Pos(p), Val::Int(n)) | (Val::Int(n), Val::Pos(p)) => {
            usize::try_from(*n).ok() == Some(p.index())
        }
        (Val::Operand(x), Val::Operand(y)) => x == y,
        (Val::Opc(o), Val::Name(n)) | (Val::Name(n), Val::Opc(o)) => {
            o.gospel_name().eq_ignore_ascii_case(n)
        }
        (Val::Name(x), Val::Name(y)) => x.eq_ignore_ascii_case(y),
        // Values of different kinds are simply unequal.
        _ => false,
    };
    match op {
        CmpOp::Eq => Ok(eq),
        CmpOp::Ne => Ok(!eq),
        _ => Err(RunError::Action(format!(
            "ordering comparison on non-numeric values {a:?} / {b:?}"
        ))),
    }
}

fn class_matches(o: &Operand, cls: OperandClass) -> bool {
    match cls {
        OperandClass::Const => matches!(o, Operand::Const(_)),
        OperandClass::Var => matches!(o, Operand::Var(_)),
        OperandClass::Elem => matches!(o, Operand::Elem { .. }),
        OperandClass::None => matches!(o, Operand::None),
    }
}

// ---------------------------------------------------------------------------
// candidate elements and solution rows
// ---------------------------------------------------------------------------

/// A statement or loop a pattern clause binds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Elem {
    Stmt(StmtId),
    Loop(LoopId),
}

impl From<Elem> for RtVal {
    fn from(e: Elem) -> RtVal {
        match e {
            Elem::Stmt(s) => RtVal::Stmt(s),
            Elem::Loop(l) => RtVal::Loop(l),
        }
    }
}

/// One candidate tuple of a pattern clause: an element, or a loop pair.
pub(crate) type Cand = (Elem, Option<Elem>);

/// The elements of a candidate tuple, in order.
pub(crate) fn cand_elems(c: &Cand) -> impl Iterator<Item = Elem> {
    std::iter::once(c.0).chain(c.1)
}

/// Fixed-width rows of slot values in one flat buffer: the solutions of
/// a dependence clause, or the rows a deduplication site has listed.
#[derive(Clone, Debug, Default)]
struct Rows {
    width: usize,
    len: usize,
    vals: Vec<Option<RtVal>>,
}

impl Rows {
    /// Empties the buffer and sets its row width.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.len = 0;
        self.vals.clear();
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn row(&self, i: usize) -> &[Option<RtVal>] {
        &self.vals[i * self.width..(i + 1) * self.width]
    }

    /// Appends the values of `slots` in `env`, unless an equal row is
    /// already here; returns whether the row was new.
    fn insert(&mut self, env: &Bindings, slots: &[Slot]) -> bool {
        debug_assert_eq!(slots.len(), self.width);
        let dup = (0..self.len).any(|i| {
            self.row(i)
                .iter()
                .zip(slots)
                .all(|(v, &s)| v.as_ref() == env.slot(s))
        });
        if !dup {
            self.vals
                .extend(slots.iter().map(|&s| env.slot(s).cloned()));
            self.len += 1;
        }
        !dup
    }
}

/// One dependence clause's reusable buffers: its solutions, and the
/// values its row slots had before they were bound to a solution.
#[derive(Debug, Default)]
struct ClauseBuf {
    sols: Rows,
    base: Vec<Option<RtVal>>,
}

/// One side of a dependence atom under the current environment.
#[derive(Clone, Copy)]
enum Side {
    Bound(StmtId),
    Unbound(Slot),
}

/// A continuation: called once per solution, with the solution bound in
/// the searcher's environment.
type Sink<'s, 'a, V> = dyn FnMut(&mut Searcher<'a, V>) -> Result<(), RunError> + 's;

// ---------------------------------------------------------------------------
// the searcher
// ---------------------------------------------------------------------------

/// What one search pass counted: the §4 cost model, the match funnel
/// and the fused matcher's bookkeeping. The driver adds each pass's
/// tally to its run ledger with one call ([`SearchTally::add`]).
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchTally {
    /// Pattern and dependence checks and anchor visits (the driver also
    /// adds the actions' `transform_ops` to its run-wide sum).
    pub cost: Cost,
    /// Anchor candidates skipped without a visit because the fused
    /// posting excluded them (they could never pass the anchor clause's
    /// admission tests).
    pub candidates_pruned: u64,
    /// Anchor candidates dispatched from the fused automaton's posting
    /// (surfaced as `search.fused.dispatched.<OPT>`).
    pub fused_dispatched: u64,
    /// How often the fused candidate path fell back because a posting
    /// member's program order was unknown to the dependence snapshot —
    /// the first rung of the degradation ladder (fused → scan). The
    /// driver surfaces it as `search.degraded.stale_order`.
    pub degraded_stale_order: u64,
    /// Funnel: elements the anchor enumeration considered, before any
    /// admission narrowing — `prog.len()` for statement anchors, the
    /// loop-table candidate count for loop anchors. Matcher-independent
    /// by construction.
    pub funnel_classified: u64,
    /// Funnel: visited anchor candidates inside the admission set. The
    /// posting path counts every visit (membership *is* admission); the
    /// scan path tests each visit with [`AnchorFilter::admits`] — the
    /// same predicate — so totals agree across both matchers over
    /// identical visited prefixes.
    pub funnel_admitted: u64,
    /// Funnel: admitted anchors whose clause format held (the exact
    /// `known_hold` shortcut counts here too — posting membership already
    /// proved the format).
    pub funnel_matched: u64,
    /// Funnel: pattern-section bindings that entered the Depend section.
    /// Not part of the `classified ≥ admitted ≥ matched` chain — one
    /// matched anchor can reach dependence checking under several
    /// bindings, or under none when a later pattern clause fails.
    pub funnel_dep_checked: u64,
    /// Per-Depend-clause candidate kills, indexed by clause position: how
    /// often an `any` clause found no solution or a `no` clause found one,
    /// failing the candidate binding reached from the pattern section.
    pub dep_rejects: Vec<u64>,
    /// Nanoseconds spent in the pattern-matching phase (candidate
    /// enumeration + clause format evaluation), when the searcher's
    /// `time_pattern` is set. Dependence-clause evaluation is excluded:
    /// the paper's cost model splits precondition checking into the two
    /// phases, and the fused automaton targets only this one.
    pub pattern_ns: u64,
}

impl SearchTally {
    /// Adds another pass's counts to these.
    pub(crate) fn add(&mut self, other: &SearchTally) {
        self.cost += other.cost;
        self.candidates_pruned += other.candidates_pruned;
        self.fused_dispatched += other.fused_dispatched;
        self.degraded_stale_order += other.degraded_stale_order;
        self.funnel_classified += other.funnel_classified;
        self.funnel_admitted += other.funnel_admitted;
        self.funnel_matched += other.funnel_matched;
        self.funnel_dep_checked += other.funnel_dep_checked;
        if self.dep_rejects.len() < other.dep_rejects.len() {
            self.dep_rejects.resize(other.dep_rejects.len(), 0);
        }
        for (acc, n) in self.dep_rejects.iter_mut().zip(&other.dep_rejects) {
            *acc += n;
        }
        self.pattern_ns += other.pattern_ns;
    }
}

/// Where the searcher reports what each gate decided, for callers that
/// attribute failure instead of collecting bindings (the explain
/// engine), and which strategy solved each Depend clause (the strategy
/// log of [`crate::MatchSet`]). Clause indices count the pattern
/// clauses, then the Depend clauses; index `patterns + depends` is a
/// full binding.
pub(crate) trait VerdictSink {
    /// An anchor candidate is about to be visited; `admitted` says
    /// whether it is in the anchor's admission set, outside which its
    /// format cannot hold. Returning false skips the candidate.
    fn anchor(&mut self, _cand: &Cand, _admitted: bool) -> bool {
        true
    }
    /// A binding of the current anchor entered clause `idx`.
    fn reached(&mut self, _idx: usize) {}
    /// `no` pattern clause `idx` killed the binding: `witness` matches.
    fn forbidden(&mut self, _idx: usize, _witness: &Cand) {}
    /// `no` Depend clause `idx` killed the binding: `solution` is its
    /// first solution row.
    fn dep_forbidden(&mut self, _idx: usize, _solution: &[Option<RtVal>]) {}
    /// A Depend clause is about to be solved with `strategy`.
    fn strategy(&mut self, _strategy: Strategy) {}
}

/// The sink of ordinary searches: every report compiles to nothing.
pub(crate) struct NoVerdicts;

impl VerdictSink for NoVerdicts {}

/// The sink of [`crate::Driver::matches_with`]: which strategy each
/// Depend clause used, in evaluation order (introspection for the
/// strategy experiments).
#[derive(Default)]
pub(crate) struct StrategyLog(pub Vec<Strategy>);

impl VerdictSink for StrategyLog {
    fn strategy(&mut self, strategy: Strategy) {
        self.0.push(strategy);
    }
}

/// One precondition search over a program snapshot. Owns the pass's
/// [`SearchTally`] and reports gate decisions to `verdicts`.
pub(crate) struct Searcher<'a, V = NoVerdicts> {
    pub prog: &'a Program,
    pub deps: &'a DepGraph,
    pub opt: &'a CompiledOptimizer,
    /// Restrict the first pattern clause's anchor to this statement
    /// ("select application points", §3 interface option); a loop
    /// anchor is matched by its head statement.
    pub at_point: Option<StmtId>,
    /// Resume filter: skip first-clause anchors strictly before this
    /// statement in program order. Set by the driver to the dependence
    /// update's dirty frontier — anchors before it saw no change since
    /// they last failed to match. Ignored when `at_point` is set.
    pub resume_from: Option<StmtId>,
    /// Complement filter: keep only first-clause anchors strictly
    /// *before* this statement. The driver's fixpoint safety net pairs it
    /// with a missed `resume_from` search so together the two passes
    /// cover every anchor exactly once. Ignored when `at_point` is set.
    pub stop_before: Option<StmtId>,
    /// Skip the Depend section ("override dependence restrictions").
    pub ignore_depends: bool,
    /// The catalog-wide fused automaton and this optimizer's id in it,
    /// when the driver runs the fused matcher and the automaton fuses
    /// this optimizer's anchor. The top rung of the degradation ladder:
    /// anchor candidates come from the optimizer's posting (admission
    /// already classified — zero per-search test evaluation), falling to
    /// the scan on stale order.
    pub fused: Option<(&'a FusedAutomaton, usize)>,
    /// Accumulate wall time spent in the pattern-matching phase into
    /// `tally.pattern_ns`. Off by default — the driver turns it on for
    /// sampled-in attempts, keeping the timer calls out of untraced
    /// runs.
    pub time_pattern: bool,
    /// What this search counted.
    pub tally: SearchTally,
    /// The gate-verdict sink.
    pub verdicts: V,
    /// Set by the most recent `pattern_candidates` call when the
    /// candidates came from a fused posting whose [`AnchorFilter`] is
    /// `exact` — the posting *is* the format's satisfying set, so
    /// `rec_pattern` skips format evaluation for those candidates.
    format_known: bool,
    /// How the most recent anchor enumeration relates to the admission
    /// set, so funnel accounting stays matcher-independent (see
    /// [`AnchorAdmission`]). Set by `pattern_candidates` for the anchor
    /// clause only.
    anchor_admission: AnchorAdmission<'a>,
    /// The environment the search binds and unbinds in place.
    pub env: Bindings,
    /// Per pattern clause: its candidate buffer.
    cands: Vec<Vec<Cand>>,
    /// Per Depend clause: its solution buffers.
    clause_bufs: Vec<ClauseBuf>,
    /// Per deduplication site: the rows it listed for the current input.
    seen: Vec<Rows>,
    /// Members-first candidate lists, one per clause variable.
    member_lists: Vec<Vec<Elem>>,
    /// Scratch for materialized statement sets.
    stmts: Vec<StmtId>,
}

/// How anchor candidates produced by `pattern_candidates` relate to the
/// [`AnchorFilter`] admission set — the piece of bookkeeping that lets
/// both matchers report the same `admitted` funnel totals.
enum AnchorAdmission<'a> {
    /// Candidates came from a fused posting: every visited candidate is
    /// admitted by construction.
    Posting,
    /// Scan candidates with a narrowing filter: each visited statement
    /// is tested with [`AnchorFilter::admits`], against the filter the
    /// automaton's chain was compiled from.
    Filter(&'a AnchorFilter),
    /// No admission set narrows this enumeration (loop anchors, or a
    /// format with no opcode bound): every visited candidate counts.
    All,
}

impl<'a> Searcher<'a> {
    pub fn new(prog: &'a Program, deps: &'a DepGraph, opt: &'a CompiledOptimizer) -> Searcher<'a> {
        Searcher::with_verdicts(prog, deps, opt, NoVerdicts)
    }
}

impl<'a, V: VerdictSink> Searcher<'a, V> {
    /// A searcher that reports its gate decisions to `verdicts`.
    pub fn with_verdicts(
        prog: &'a Program,
        deps: &'a DepGraph,
        opt: &'a CompiledOptimizer,
        verdicts: V,
    ) -> Searcher<'a, V> {
        Searcher {
            prog,
            deps,
            opt,
            at_point: None,
            resume_from: None,
            stop_before: None,
            ignore_depends: false,
            fused: None,
            time_pattern: false,
            tally: SearchTally {
                dep_rejects: vec![0; opt.depends.len()],
                ..SearchTally::default()
            },
            verdicts,
            format_known: false,
            anchor_admission: AnchorAdmission::All,
            env: Bindings::over(opt.names.clone()),
            cands: (0..opt.patterns.len()).map(|_| Vec::new()).collect(),
            clause_bufs: (0..opt.depends.len())
                .map(|_| ClauseBuf::default())
                .collect(),
            seen: (0..opt.sites).map(|_| Rows::default()).collect(),
            member_lists: Vec::new(),
            stmts: Vec::new(),
        }
    }

    /// Counts one visit of a candidate of clause `idx`. Returns whether
    /// it is an anchor in the admission set, under the enumeration's
    /// [`AnchorAdmission`] accounting, or `None` when the verdict sink
    /// skips it.
    fn visit(&mut self, idx: usize, admission: &AnchorAdmission<'_>, cand: &Cand) -> Option<bool> {
        if idx != 0 {
            return Some(false);
        }
        self.tally.cost.anchor_visits += 1;
        let admitted = match (admission, cand.0) {
            (AnchorAdmission::Filter(f), Elem::Stmt(s)) => f.admits(self.prog.quad(s)),
            _ => true,
        };
        if admitted {
            self.tally.funnel_admitted += 1;
        }
        self.verdicts.anchor(cand, admitted).then_some(admitted)
    }

    fn loops(&self) -> &'a LoopTable {
        self.deps.loops()
    }

    /// Starts a pattern-phase timing interval when `time_pattern` is on.
    fn pattern_timer(&self) -> Option<Instant> {
        self.time_pattern.then(Instant::now)
    }

    /// Closes a [`Searcher::pattern_timer`] interval.
    fn note_pattern(&mut self, t: Option<Instant>) {
        if let Some(t) = t {
            self.tally.pattern_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// Finds the first full binding satisfying the precondition.
    ///
    /// Short-circuits inside the search: `rec` with limit 1 returns
    /// `true` up through every active clause loop the moment the first
    /// full binding lands, so no anchor after the match is visited (see
    /// `find_first_short_circuits_anchor_visits`).
    pub fn find_first(&mut self) -> Result<Option<Bindings>, RunError> {
        let mut out = Vec::with_capacity(1);
        self.rec(0, &mut out, 1)?;
        Ok(out.pop())
    }

    /// Finds up to `limit` bindings (all application points).
    pub fn find_all(&mut self, limit: usize) -> Result<Vec<Bindings>, RunError> {
        let mut out = Vec::new();
        self.rec(0, &mut out, limit)?;
        Ok(out)
    }

    /// Recursive backtracking over pattern clauses then dependence clauses,
    /// binding the environment in place and restoring it on the way out.
    /// Returns `true` when enough bindings were collected.
    fn rec(&mut self, idx: usize, out: &mut Vec<Bindings>, limit: usize) -> Result<bool, RunError> {
        let opt = self.opt;
        let np = opt.patterns.len();
        self.verdicts.reached(idx);
        if idx < np {
            let mut cands = std::mem::take(&mut self.cands[idx]);
            let r = self.rec_pattern(idx, &mut cands, out, limit);
            self.cands[idx] = cands;
            return r;
        }
        let di = idx - np;
        let depends = if self.ignore_depends {
            0
        } else {
            opt.depends.len()
        };
        if di < depends {
            if di == 0 {
                self.tally.funnel_dep_checked += 1;
            }
            let mut buf = std::mem::take(&mut self.clause_bufs[di]);
            let r = self.rec_depend(idx, &mut buf, out, limit);
            self.clause_bufs[di] = buf;
            return r;
        }
        out.push(self.env.clone());
        Ok(out.len() >= limit)
    }

    fn rec_pattern(
        &mut self,
        idx: usize,
        cands: &mut Vec<Cand>,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let opt = self.opt;
        let ty = opt.patterns[idx].1;
        let mut t = self.pattern_timer();
        self.pattern_candidates(ty, idx, cands);
        // Snapshot before recursing: nested clauses re-enter
        // `pattern_candidates` and overwrite the flag.
        let known_hold = self.format_known;
        let admission =
            std::mem::replace(&mut self.anchor_admission, AnchorAdmission::All);
        // Format evaluation is timed as one interval over a run of
        // candidates, paused while a matched candidate's later clauses
        // run, rather than per candidate: two clock reads per match
        // instead of two per visit. Without formats to evaluate, only
        // the enumeration is timed.
        if known_hold || opt.pattern_slots[idx].format.is_none() {
            self.note_pattern(t.take());
        }
        let r = self.visit_candidates(idx, known_hold, &admission, cands, &mut t, out, limit);
        self.note_pattern(t);
        r
    }

    /// The candidate loop of [`Searcher::rec_pattern`]. `t` is the
    /// running pattern-phase interval, if one is being timed.
    #[allow(clippy::too_many_arguments)]
    fn visit_candidates(
        &mut self,
        idx: usize,
        known_hold: bool,
        admission: &AnchorAdmission<'_>,
        cands: &[Cand],
        t: &mut Option<Instant>,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let opt = self.opt;
        let vars = &opt.pattern_slots[idx].vars;
        match opt.patterns[idx].0.quant {
            Quant::Any => {
                for cand in cands.iter() {
                    let Some(admitted) = self.visit(idx, admission, cand) else {
                        continue;
                    };
                    // A variable bound by an earlier clause (loop pairs
                    // chained through a shared loop) must agree; the
                    // others are bound here and unbound after the visit.
                    let mut fresh = [0; 2];
                    let mut nfresh = 0;
                    let mut agree = true;
                    for (&slot, e) in vars.iter().zip(cand_elems(cand)) {
                        let val = RtVal::from(e);
                        match self.env.slot(slot) {
                            Some(existing) if *existing != val => {
                                agree = false;
                                break;
                            }
                            Some(_) => {}
                            None => {
                                self.env.put(slot, Some(val));
                                fresh[nfresh] = slot;
                                nfresh += 1;
                            }
                        }
                    }
                    let holds = agree && (known_hold || self.format_holds(idx)?);
                    if admitted && holds {
                        self.tally.funnel_matched += 1;
                    }
                    let done = holds && {
                        let running = t.take();
                        let timing = running.is_some();
                        self.note_pattern(running);
                        let done = self.rec(idx + 1, out, limit)?;
                        if timing {
                            *t = self.pattern_timer();
                        }
                        done
                    };
                    for &slot in &fresh[..nfresh] {
                        self.env.put(slot, None);
                    }
                    if done {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Quant::No => {
                for cand in cands.iter() {
                    let Some(admitted) = self.visit(idx, admission, cand) else {
                        continue;
                    };
                    let mut saved: [(Slot, Option<RtVal>); 2] = Default::default();
                    let mut nsaved = 0;
                    for (&slot, e) in vars.iter().zip(cand_elems(cand)) {
                        saved[nsaved] = (slot, self.env.put(slot, Some(e.into())));
                        nsaved += 1;
                    }
                    let holds = known_hold || self.format_holds(idx)?;
                    for (slot, old) in saved[..nsaved].iter_mut().rev() {
                        self.env.put(*slot, old.take());
                    }
                    if holds {
                        if admitted {
                            self.tally.funnel_matched += 1;
                        }
                        self.verdicts.forbidden(idx, cand);
                        return Ok(false); // an element matches: clause fails
                    }
                }
                self.note_pattern(t.take());
                self.rec(idx + 1, out, limit)
            }
            Quant::All => Err(RunError::Action(
                "`all` in Code_Pattern is rejected at generation time".into(),
            )),
        }
    }

    fn format_holds(&mut self, idx: usize) -> Result<bool, RunError> {
        match &self.opt.pattern_slots[idx].format {
            None => Ok(true),
            Some(f) => {
                let mut checks = 0u64;
                let ok = eval_format(self.prog, self.loops(), &self.env, f, &mut checks)?;
                self.tally.cost.pattern_checks += checks;
                Ok(ok)
            }
        }
    }

    /// This optimizer's anchor posting from the fused automaton, in
    /// program order, or `None` when the scan must run: no automaton, the
    /// optimizer is not fused, or a posting member whose program position
    /// is unknown to the dependence snapshot (stale order).
    ///
    /// Restricting anchors to the posting is sound for both `any` and
    /// `no` quantifiers: a statement outside it provably fails the
    /// clause's opcode disjunction or one of its top-level
    /// `type(var.opr_N)` conjuncts (see [`AnchorFilter`]), so its format
    /// can never hold. The second component reports
    /// [`AnchorFilter::exact`]: the posting *equals* the format's
    /// satisfying set, so the caller may treat every returned candidate
    /// as already format-checked.
    fn fused_stmt_candidates(&mut self) -> Option<(Vec<StmtId>, bool)> {
        let (auto, id) = self.fused?;
        let exact = auto.exact(id);
        let posting = auto.posting(id);
        let mut ordered = Vec::with_capacity(posting.len());
        for &s in posting {
            match self.deps.order_of(s) {
                Some(o) => ordered.push((o, s)),
                None => {
                    self.tally.degraded_stale_order += 1;
                    return None;
                }
            }
        }
        ordered.sort_unstable();
        Some((ordered.into_iter().map(|(_, s)| s).collect(), exact))
    }

    /// Fills `out` with the clause's candidate tuples, in visiting order.
    fn pattern_candidates(
        &mut self,
        ty: ElemType,
        idx: usize,
        out: &mut Vec<Cand>,
    ) {
        out.clear();
        let first = idx == 0;
        self.format_known = false;
        // Hoisted ahead of the anchor_ok closure: candidate enumeration
        // may mutate the searcher (stale-order accounting), while the
        // closure holds a shared borrow for the rest of the function.
        // Ladder order: fused posting (anchor clause only — the automaton
        // compiles anchor filters), then scan.
        let fused = (first && ty == ElemType::Stmt)
            .then(|| self.fused_stmt_candidates())
            .flatten();
        let loops = self.loops();
        let pairs = match ty {
            ElemType::NestedLoops => loops.nested_pairs(),
            ElemType::TightLoops => loops.tight_pairs(self.prog),
            ElemType::AdjacentLoops => loops.adjacent_pairs(self.prog),
            ElemType::Stmt | ElemType::Loop => Vec::new(),
        };
        if first {
            // Funnel accounting, fixed before `anchor_ok` borrows the
            // searcher. `classified` counts the enumeration's universe
            // (pre-admission, pre-resume-filter), identical for every
            // matcher; `anchor_admission` tells the visit loop how to
            // recognise the admission set among visited candidates.
            self.tally.funnel_classified += match ty {
                ElemType::Stmt => self.prog.len() as u64,
                ElemType::Loop => loops.iter().count() as u64,
                _ => pairs.len() as u64,
            };
            self.anchor_admission = if ty != ElemType::Stmt {
                AnchorAdmission::All
            } else if fused.is_some() {
                AnchorAdmission::Posting
            } else {
                self.opt.anchor().map_or(AnchorAdmission::All, AnchorAdmission::Filter)
            };
        }
        let resume_bar = self
            .resume_from
            .and_then(|r| self.deps.order_of(r));
        let stop_bar = self
            .stop_before
            .and_then(|r| self.deps.order_of(r));
        let anchor_ok = |head: StmtId| -> bool {
            if !first {
                return true;
            }
            if let Some(p) = self.at_point {
                return p == head;
            }
            match (resume_bar, self.deps.order_of(head)) {
                // Anchors strictly before the dirty frontier saw no change
                // since they last failed to match.
                (Some(bar), Some(h)) if h < bar => return false,
                _ => {}
            }
            match (stop_bar, self.deps.order_of(head)) {
                (Some(bar), Some(h)) => h < bar,
                // Unknown order (stale snapshot): stay conservative.
                _ => true,
            }
        };
        let pair = |(a, b): (LoopId, LoopId)| (Elem::Loop(a), Some(Elem::Loop(b)));
        match ty {
            ElemType::Stmt => {
                if let Some((posting, exact)) = fused {
                    self.tally.candidates_pruned +=
                        (self.prog.len().saturating_sub(posting.len())) as u64;
                    self.format_known = exact;
                    out.extend(
                        posting
                            .into_iter()
                            .filter(|&s| anchor_ok(s))
                            .map(|s| (Elem::Stmt(s), None)),
                    );
                    self.tally.fused_dispatched += out.len() as u64;
                } else {
                    out.extend(
                        self.prog
                            .iter()
                            .filter(|&s| anchor_ok(s))
                            .map(|s| (Elem::Stmt(s), None)),
                    );
                }
            }
            ElemType::Loop => out.extend(
                loops
                    .iter()
                    .filter(|l| anchor_ok(l.head))
                    .map(|l| (Elem::Loop(l.id), None)),
            ),
            // A pair is anchored at its first (outer, or earlier) loop.
            _ => out.extend(
                pairs
                    .into_iter()
                    .filter(|&(l, _)| anchor_ok(loops.get(l).head))
                    .map(pair),
            ),
        }
    }

    fn rec_depend(
        &mut self,
        idx: usize,
        buf: &mut ClauseBuf,
        out: &mut Vec<Bindings>,
        limit: usize,
    ) -> Result<bool, RunError> {
        let opt = self.opt;
        let di = idx - opt.patterns.len();
        let cc = &opt.depends[di];
        let row = &cc.slots.row;
        self.solve_clause(di, &mut buf.sols)?;
        match cc.clause.quant {
            Quant::Any => {
                if buf.sols.is_empty() {
                    self.tally.dep_rejects[di] += 1;
                    return Ok(false);
                }
                self.save_row(row, &mut buf.base);
                for i in 0..buf.sols.len() {
                    for (&s, v) in row.iter().zip(buf.sols.row(i)) {
                        self.env.put(s, v.clone());
                    }
                    let done = self.rec(idx + 1, out, limit)?;
                    self.restore_row(row, &buf.base);
                    if done {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Quant::No => {
                if buf.sols.is_empty() {
                    self.rec(idx + 1, out, limit)
                } else {
                    self.tally.dep_rejects[di] += 1;
                    self.verdicts.dep_forbidden(idx, buf.sols.row(0));
                    Ok(false)
                }
            }
            Quant::All => {
                self.save_row(row, &mut buf.base);
                self.bind_sets(&cc.slots, &buf.sols);
                let done = self.rec(idx + 1, out, limit);
                self.restore_row(row, &buf.base);
                done
            }
        }
    }

    fn save_row(&self, row: &[Slot], base: &mut Vec<Option<RtVal>>) {
        base.clear();
        base.extend(row.iter().map(|&s| self.env.slot(s).cloned()));
    }

    fn restore_row(&mut self, row: &[Slot], base: &[Option<RtVal>]) {
        for (&s, v) in row.iter().zip(base) {
            self.env.put(s, v.clone());
        }
    }

    /// Binds each variable of an `all` clause to the set its solutions
    /// collected: the distinct (statement, position) pairs, in solution
    /// order.
    fn bind_sets(&mut self, cc: &ClauseSlots, sols: &Rows) {
        for (i, var) in cc.vars.iter().enumerate() {
            let pj = var.pos.and_then(|p| cc.row.iter().position(|&s| s == p));
            let mut collected: Vec<(StmtId, Option<OperandPos>)> = Vec::new();
            for r in 0..sols.len() {
                let sol = sols.row(r);
                let stmt = sol[i].as_ref().and_then(RtVal::as_stmt);
                let pos = pj.and_then(|j| sol[j].as_ref()).and_then(RtVal::as_pos);
                if let Some(s) = stmt {
                    if !collected.contains(&(s, pos)) {
                        collected.push((s, pos));
                    }
                }
            }
            self.env.put(var.slot, Some(RtVal::Set(collected)));
        }
    }

    /// Solves Depend clause `di` under the current environment: fills
    /// `sols` with every distinct assignment of the clause's row slots
    /// (its variables and position variables) that makes the membership
    /// constraints and the condition true. The environment is left as it
    /// was.
    fn solve_clause(&mut self, di: usize, sols: &mut Rows) -> Result<(), RunError> {
        let opt = self.opt;
        let cc = &opt.depends[di];
        let strategy = self.pick_strategy(di);
        self.verdicts.strategy(strategy);
        sols.reset(cc.slots.row.len());
        match strategy {
            Strategy::MembersFirst => self.solve_members_first(&cc.slots, sols),
            Strategy::DepsFirst => self.solve_deps_first(&cc.slots, sols),
            Strategy::Heuristic => unreachable!("pick_strategy resolves Heuristic"),
        }
    }

    fn pick_strategy(&mut self, di: usize) -> Strategy {
        let opt = self.opt;
        let cc = &opt.depends[di];
        match opt.strategy {
            Strategy::MembersFirst => Strategy::MembersFirst,
            Strategy::DepsFirst if cc.deps_first_ok => Strategy::DepsFirst,
            Strategy::DepsFirst => Strategy::MembersFirst,
            Strategy::Heuristic => {
                if !cc.deps_first_ok {
                    return Strategy::MembersFirst;
                }
                let members_cost = self.estimate_members(&cc.slots);
                let deps_cost = self.estimate_deps(&cc.slots);
                if deps_cost <= members_cost {
                    Strategy::DepsFirst
                } else {
                    Strategy::MembersFirst
                }
            }
        }
    }

    /// Cost estimate for members-then-deps: the product of candidate-set
    /// sizes (the number of tuples enumerated).
    fn estimate_members(&mut self, cc: &ClauseSlots) -> usize {
        let mut product = 1usize;
        for v in &cc.vars {
            let size = self
                .member_set_size(cc, v.slot)
                .unwrap_or_else(|| self.prog.len());
            product = product.saturating_mul(size.max(1));
        }
        product
    }

    /// Size of the candidate set `member_generator` would produce for
    /// `var`: the set is listed into the reused statement buffer and
    /// counted.
    fn member_set_size(&mut self, cc: &ClauseSlots, var: Slot) -> Option<usize> {
        let m = cc
            .members
            .iter()
            .find(|m| !m.negated && m.elem == Expr::Var(var))?;
        let mut stmts = std::mem::take(&mut self.stmts);
        stmts.clear();
        let len = self.set_elements(&m.set, &mut stmts).ok().map(|()| stmts.len());
        self.stmts = stmts;
        len
    }

    /// Cost estimate for deps-then-membership: the number of edges the
    /// first binding atom would enumerate.
    fn estimate_deps(&self, cc: &ClauseSlots) -> usize {
        let Some(atom) = first_dep(&cc.cond) else {
            return usize::MAX;
        };
        match (self.side_stmt(&atom.from), self.side_stmt(&atom.to)) {
            (Some(s), _) => self.deps.from(s).count(),
            (_, Some(s)) => self.deps.to(s).count(),
            _ => self.deps.len(),
        }
    }

    fn side_stmt(&self, side: &Endpoint) -> Option<StmtId> {
        match &side.expr {
            Expr::Var(s) => self.env.slot(*s).and_then(RtVal::as_stmt),
            e @ (Expr::Ref(..) | Expr::Unknown(_)) => eval(self.prog, self.loops(), &self.env, e)
                .ok()
                .and_then(|v| v.as_stmt()),
            _ => None,
        }
    }

    /// Fills `out` with the candidate set for `var` from its first
    /// positive `mem(var, set)` constraint; false when there is none or
    /// the set does not evaluate.
    fn member_generator(&mut self, cc: &ClauseSlots, var: Slot, out: &mut Vec<Elem>) -> bool {
        let Some(m) = cc
            .members
            .iter()
            .find(|m| !m.negated && m.elem == Expr::Var(var))
        else {
            return false;
        };
        let mut stmts = std::mem::take(&mut self.stmts);
        stmts.clear();
        let ok = self.set_elements(&m.set, &mut stmts).is_ok();
        if ok {
            out.extend(stmts.iter().map(|&s| Elem::Stmt(s)));
        }
        self.stmts = stmts;
        ok
    }

    fn not_a_set(&self, slot: Slot) -> RunError {
        RunError::Action(format!(
            "`{}` is not a set (bound to {:?})",
            self.env.table().name(slot),
            self.env.slot(slot)
        ))
    }

    fn path_ends(&self, a: &Expr, b: &Expr) -> Result<(StmtId, StmtId), RunError> {
        let end = |e: &Expr| {
            eval(self.prog, self.loops(), &self.env, e)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("path(): not a statement".into()))
        };
        Ok((end(a)?, end(b)?))
    }

    /// Appends the elements of `set` to `out`, in set order.
    fn set_elements(&self, set: &SetRef, out: &mut Vec<StmtId>) -> Result<(), RunError> {
        match set {
            SetRef::Named(n) => match self.env.slot(*n) {
                Some(RtVal::Loop(l)) => out.extend(self.loops().body(self.prog, *l)),
                Some(RtVal::Set(items)) => out.extend(items.iter().map(|(s, _)| *s)),
                _ => return Err(self.not_a_set(*n)),
            },
            SetRef::Unknown(n) => return Err(unknown_set(n)),
            SetRef::Path(a, b) => {
                let (sa, sb) = self.path_ends(a, b)?;
                out.push(sa);
                out.extend(self.prog.iter_between(sa, sb));
                if sa != sb {
                    out.push(sb);
                }
            }
            SetRef::Union(ab) => {
                let [a, b] = &**ab;
                let start = out.len();
                self.set_elements(a, out)?;
                let mut right = Vec::new();
                self.set_elements(b, &mut right)?;
                for s in right {
                    if !out[start..].contains(&s) {
                        out.push(s);
                    }
                }
            }
            SetRef::Inter(ab) => {
                let [a, b] = &**ab;
                let mut right = Vec::new();
                self.set_elements(b, &mut right)?;
                let start = out.len();
                self.set_elements(a, out)?;
                let mut kept = start;
                for i in start..out.len() {
                    if right.contains(&out[i]) {
                        out[kept] = out[i];
                        kept += 1;
                    }
                }
                out.truncate(kept);
            }
        }
        Ok(())
    }

    /// Whether `elem` is in `set`, without listing the set.
    fn set_contains(&self, set: &SetRef, elem: StmtId) -> Result<bool, RunError> {
        match set {
            SetRef::Named(n) => match self.env.slot(*n) {
                Some(RtVal::Loop(l)) => Ok(self.loops().body(self.prog, *l).any(|s| s == elem)),
                Some(RtVal::Set(items)) => Ok(items.iter().any(|(s, _)| *s == elem)),
                _ => Err(self.not_a_set(*n)),
            },
            SetRef::Path(a, b) => {
                let (sa, sb) = self.path_ends(a, b)?;
                Ok(elem == sa
                    || (sa != sb && elem == sb)
                    || self.prog.iter_between(sa, sb).any(|s| s == elem))
            }
            SetRef::Union(ab) => {
                let [a, b] = &**ab;
                let in_a = self.set_contains(a, elem)?;
                let in_b = self.set_contains(b, elem)?;
                Ok(in_a || in_b)
            }
            SetRef::Inter(ab) => {
                let [a, b] = &**ab;
                let in_b = self.set_contains(b, elem)?;
                let in_a = self.set_contains(a, elem)?;
                Ok(in_a && in_b)
            }
            SetRef::Unknown(n) => Err(unknown_set(n)),
        }
    }

    // ---- strategy (1): members first --------------------------------------

    fn solve_members_first(
        &mut self,
        cc: &'a ClauseSlots,
        sols: &mut Rows,
    ) -> Result<(), RunError> {
        // Candidate list per clause variable, all built under the
        // clause's input environment.
        let mut lists = std::mem::take(&mut self.member_lists);
        if lists.len() < cc.vars.len() {
            lists.resize_with(cc.vars.len(), Vec::new);
        }
        for (var, list) in cc.vars.iter().zip(lists.iter_mut()) {
            list.clear();
            if !self.member_generator(cc, var.slot, list) {
                if var.is_loop {
                    list.extend(self.loops().iter().map(|l| Elem::Loop(l.id)));
                } else {
                    list.extend(self.prog.iter().map(Elem::Stmt));
                }
            }
        }
        let r = self.each_tuple(cc, &lists, 0, sols);
        self.member_lists = lists;
        r
    }

    /// Enumerates the product of the candidate lists, first variable
    /// outermost, and solves the condition under each tuple whose
    /// residual membership checks pass.
    fn each_tuple(
        &mut self,
        cc: &'a ClauseSlots,
        lists: &[Vec<Elem>],
        i: usize,
        sols: &mut Rows,
    ) -> Result<(), RunError> {
        let Some(var) = cc.vars.get(i).map(|v| v.slot) else {
            if self.members_hold(cc)? {
                self.each(cc, &cc.cond, &mut |s: &mut Searcher<'a, V>| {
                    sols.insert(&s.env, &cc.row);
                    Ok(())
                })?;
            }
            return Ok(());
        };
        for &e in &lists[i] {
            let old = self.env.put(var, Some(e.into()));
            let r = self.each_tuple(cc, lists, i + 1, sols);
            self.env.put(var, old);
            r?;
        }
        Ok(())
    }

    fn members_hold(&mut self, cc: &ClauseSlots) -> Result<bool, RunError> {
        for m in &cc.members {
            self.tally.cost.dep_checks += 1;
            let elem = eval(self.prog, self.loops(), &self.env, &m.elem)?
                .as_stmt()
                .ok_or_else(|| RunError::Action("mem(): element is not a statement".into()))?;
            if self.set_contains(&m.set, elem)? == m.negated {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- strategy (2): dependences first -----------------------------------

    fn solve_deps_first(&mut self, cc: &'a ClauseSlots, sols: &mut Rows) -> Result<(), RunError> {
        // Filter by membership afterwards.
        self.each(cc, &cc.cond, &mut |s: &mut Searcher<'a, V>| {
            if s.members_hold(cc)? {
                sols.insert(&s.env, &cc.row);
            }
            Ok(())
        })
    }

    // ---- relational condition evaluation ------------------------------------

    /// Calls `k` once per extension of the environment that makes `c`
    /// true, with the extension bound in place, in the order a
    /// list-of-environments evaluation would list them: `And` feeds each
    /// left solution to the right side, `Or` lists the left solutions
    /// then the right ones, and `Or` nodes and dependence atoms skip
    /// solutions they already listed. Dependence atoms may bind the
    /// clause's still-unbound variables (edge-driven generation) and
    /// position variables. Every atom is evaluated in full, so the
    /// `dep_checks` count does not depend on what `k` does.
    fn each(
        &mut self,
        cc: &'a ClauseSlots,
        c: &'a Cond,
        k: &mut Sink<'_, 'a, V>,
    ) -> Result<(), RunError> {
        match c {
            Cond::And(lr) => {
                let [l, r] = &**lr;
                self.each(cc, l, &mut |s: &mut Searcher<'a, V>| s.each(cc, r, k))
            }
            Cond::Or(lr, site) => {
                let [l, r] = &**lr;
                self.seen[*site].reset(cc.row.len());
                let mut fresh = |s: &mut Searcher<'a, V>| {
                    if s.seen[*site].insert(&s.env, &cc.row) {
                        k(s)
                    } else {
                        Ok(())
                    }
                };
                self.each(cc, l, &mut fresh)?;
                self.each(cc, r, &mut fresh)
            }
            Cond::Not(inner) => {
                let mut holds = false;
                self.each(cc, inner, &mut |_: &mut Searcher<'a, V>| {
                    holds = true;
                    Ok(())
                })?;
                if holds {
                    Ok(())
                } else {
                    k(self)
                }
            }
            Cond::Cmp(l, op, r) => {
                self.tally.cost.dep_checks += 1;
                let holds = {
                    let lv = eval(self.prog, self.loops(), &self.env, l)?;
                    let rv = eval(self.prog, self.loops(), &self.env, r)?;
                    compare(&lv, *op, &rv)?
                };
                if holds {
                    k(self)
                } else {
                    Ok(())
                }
            }
            Cond::TypeIs(v, cls, positive) => {
                self.tally.cost.dep_checks += 1;
                let holds = {
                    let o = eval(self.prog, self.loops(), &self.env, v)?
                        .into_operand()
                        .ok_or_else(|| RunError::Action("type(): not an operand".into()))?;
                    class_matches(&o, *cls) == *positive
                };
                if holds {
                    k(self)
                } else {
                    Ok(())
                }
            }
            Cond::Dep(atom) => self.each_edge(cc, atom, k),
        }
    }

    fn each_edge(
        &mut self,
        cc: &'a ClauseSlots,
        atom: &'a DepAtom,
        k: &mut Sink<'_, 'a, V>,
    ) -> Result<(), RunError> {
        let from = self.side_state(&atom.from)?;
        let to = self.side_state(&atom.to)?;
        let deps = self.deps;
        let kind = atom.kind;
        let wanted = move |e: &&DepEdge| e.kind == kind && atom.pattern.matches(&e.dirvec);
        // The cost of this atom is the number of candidate edges scanned —
        // this is what makes the two §4 strategies measurably different.
        match (from, to) {
            (Side::Bound(f), Side::Bound(t)) => {
                self.tally.cost.dep_checks += deps.from(f).count().max(1) as u64;
                let edges = deps.from(f).filter(|e| e.dst == t).filter(wanted);
                self.bind_edges(cc, atom, from, to, edges, k)
            }
            (Side::Bound(f), Side::Unbound(_)) => {
                self.tally.cost.dep_checks += deps.from(f).count().max(1) as u64;
                self.bind_edges(cc, atom, from, to, deps.from(f).filter(wanted), k)
            }
            (Side::Unbound(_), Side::Bound(t)) => {
                self.tally.cost.dep_checks += deps.to(t).count().max(1) as u64;
                self.bind_edges(cc, atom, from, to, deps.to(t).filter(wanted), k)
            }
            (Side::Unbound(_), Side::Unbound(_)) => {
                self.tally.cost.dep_checks += deps.len().max(1) as u64;
                self.bind_edges(cc, atom, from, to, deps.edges().iter().filter(wanted), k)
            }
        }
    }

    /// Binds each matching edge's unbound endpoints and the endpoints'
    /// position variables, and passes each distinct binding to `k`. The
    /// position reported is the paper's "position of the dependence
    /// within the statement": the operand position at the dependence's
    /// *sink*.
    fn bind_edges(
        &mut self,
        cc: &'a ClauseSlots,
        atom: &'a DepAtom,
        from: Side,
        to: Side,
        edges: impl Iterator<Item = &'a DepEdge>,
        k: &mut Sink<'_, 'a, V>,
    ) -> Result<(), RunError> {
        self.seen[atom.site].reset(cc.row.len());
        for e in edges {
            let mut undo: [(Slot, Option<RtVal>); 4] = Default::default();
            let mut n = 0;
            for (side, stmt) in [(from, e.src), (to, e.dst)] {
                if let Side::Unbound(v) = side {
                    undo[n] = (v, self.env.put(v, Some(RtVal::Stmt(stmt))));
                    n += 1;
                }
            }
            let mut ok = true;
            for pv in [atom.from.pos, atom.to.pos].into_iter().flatten() {
                let posval = RtVal::Pos(e.dst_pos);
                match self.env.slot(pv) {
                    None => {
                        undo[n] = (pv, self.env.put(pv, Some(posval)));
                        n += 1;
                    }
                    Some(existing) => ok &= *existing == posval,
                }
            }
            let r = if ok && self.seen[atom.site].insert(&self.env, &cc.row) {
                k(self)
            } else {
                Ok(())
            };
            for (slot, old) in undo[..n].iter_mut().rev() {
                self.env.put(*slot, old.take());
            }
            r?;
        }
        Ok(())
    }

    fn side_state(&self, side: &Endpoint) -> Result<Side, RunError> {
        let unbound_endpoint = |n: &str| {
            RunError::Action(format!(
                "dependence endpoint `{n}` is unbound and not a clause variable"
            ))
        };
        match &side.expr {
            Expr::Var(s) if self.env.slot(*s).is_none() => {
                if side.clause_var {
                    Ok(Side::Unbound(*s))
                } else {
                    Err(unbound_endpoint(self.env.table().name(*s)))
                }
            }
            Expr::Word(n) => Err(unbound_endpoint(n)),
            e => eval(self.prog, self.loops(), &self.env, e)?
                .as_stmt()
                .map(Side::Bound)
                .ok_or_else(|| RunError::Action("dependence endpoints must be statements".into())),
        }
    }
}

fn unknown_set(name: &str) -> RunError {
    RunError::Action(format!("`{name}` is not a set (bound to None)"))
}

/// The first dependence atom among the top-level conjuncts of `c`.
fn first_dep(c: &Cond) -> Option<&DepAtom> {
    match c {
        Cond::And(lr) => first_dep(&lr[0]).or_else(|| first_dep(&lr[1])),
        Cond::Dep(atom) => Some(atom),
        _ => None,
    }
}

/// Pattern-format evaluation (no dependence atoms; short-circuit with
/// per-atom counting, which the §4 "specification variants" experiment
/// relies on).
pub(crate) fn eval_format(
    prog: &Program,
    loops: &LoopTable,
    env: &Bindings,
    b: &Cond,
    checks: &mut u64,
) -> Result<bool, RunError> {
    match b {
        Cond::And(lr) => {
            Ok(eval_format(prog, loops, env, &lr[0], checks)?
                && eval_format(prog, loops, env, &lr[1], checks)?)
        }
        Cond::Or(lr, _) => {
            Ok(eval_format(prog, loops, env, &lr[0], checks)?
                || eval_format(prog, loops, env, &lr[1], checks)?)
        }
        Cond::Not(i) => Ok(!eval_format(prog, loops, env, i, checks)?),
        Cond::Cmp(l, op, r) => {
            *checks += 1;
            // Navigation off the program edge (e.g. `.nxt` of the last
            // statement) makes the comparison false rather than an error.
            let Ok(lv) = eval(prog, loops, env, l) else {
                return Ok(false);
            };
            let Ok(rv) = eval(prog, loops, env, r) else {
                return Ok(false);
            };
            compare(&lv, *op, &rv)
        }
        Cond::TypeIs(v, cls, positive) => {
            *checks += 1;
            let Ok(val) = eval(prog, loops, env, v) else {
                return Ok(false);
            };
            let o = val
                .into_operand()
                .ok_or_else(|| RunError::Action("type(): not an operand".into()))?;
            Ok(class_matches(&o, *cls) == *positive)
        }
        Cond::Dep(_) => Err(RunError::Action(
            "dependence test in Code_Pattern (rejected at validation)".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use crate::resolve::Resolver;
    use gospel_dep::{DepKind, DirPattern};
    use gospel_frontend::compile as minifor;
    use gospel_lang::ast::{BoolExpr, ElemRef, ValExpr};
    use gospel_lang::parse_validated;

    /// Resolves `v` against `env`'s own table and evaluates it.
    fn eval_val(
        prog: &Program,
        loops: &LoopTable,
        env: &Bindings,
        v: &ValExpr,
    ) -> Result<RtVal, RunError> {
        let resolver = Resolver {
            table: env.table(),
            sites: 0,
        };
        eval(prog, loops, env, &resolver.expr(v)).map(Val::into_rt)
    }

    fn world(src: &str) -> (Program, DepGraph) {
        let p = minifor(src).unwrap();
        let d = DepGraph::analyze(&p).unwrap();
        (p, d)
    }

    fn opt_of(spec: &str) -> CompiledOptimizer {
        let (s, i) = parse_validated(spec).unwrap();
        generate(s, i).unwrap()
    }

    const LOOPY: &str =
        "program p\ninteger i, n, x\nreal a(10)\nn = 10\ndo i = 1, n\na(i) = 0.0\nend do\nx = n\nend";

    #[test]
    fn attribute_navigation_on_statements_and_loops() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap();
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        env.set("L", RtVal::Loop(loops.iter().next().unwrap().id));

        let r = |base: &str, path: Vec<Attr>| {
            eval_val(
                &p,
                loops,
                &env,
                &ValExpr::Ref(ElemRef {
                    base: base.into(),
                    path,
                }),
            )
        };
        // S.nxt is the do header; S.opc is assign; S.opr_2 the constant.
        assert!(matches!(r("S", vec![Attr::Nxt]).unwrap(), RtVal::Stmt(_)));
        assert_eq!(
            r("S", vec![Attr::Opc]).unwrap(),
            RtVal::Opc(gospel_ir::Opcode::Assign)
        );
        assert_eq!(
            r("S", vec![Attr::Opr(2)]).unwrap(),
            RtVal::Operand(Operand::int(10))
        );
        // L.head.nxt is the body statement; L.lcv / L.init / L.final read live.
        assert!(matches!(
            r("L", vec![Attr::Head, Attr::Nxt]).unwrap(),
            RtVal::Stmt(_)
        ));
        assert!(matches!(
            r("L", vec![Attr::Lcv]).unwrap(),
            RtVal::Operand(Operand::Var(_))
        ));
        assert_eq!(
            r("L", vec![Attr::Init]).unwrap(),
            RtVal::Operand(Operand::int(1))
        );
        // navigating off the program is an error
        assert!(r("S", vec![Attr::Prev]).is_err());
    }

    #[test]
    fn eval_place_forms() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap();
        let head = loops.iter().next().unwrap().head;
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        env.set("L", RtVal::Loop(loops.iter().next().unwrap().id));
        env.set("p", RtVal::Pos(OperandPos::A));

        // S.opr_2
        let resolver = Resolver {
            table: env.table(),
            sites: 0,
        };
        let place_of = |v: &ValExpr| eval_place(&p, loops, &env, &resolver.expr(v));
        let place = place_of(&ValExpr::Ref(ElemRef {
            base: "S".into(),
            path: vec![Attr::Opr(2)],
        }))
        .unwrap();
        assert_eq!(place, (first, OperandPos::A));
        // operand(S, p)
        let place2 = place_of(&ValExpr::OperandFn(
            Box::new(ValExpr::Name("S".into())),
            Box::new(ValExpr::Name("p".into())),
        ))
        .unwrap();
        assert_eq!(place2, (first, OperandPos::A));
        // L.final is the head's third slot
        let place3 = place_of(&ValExpr::Ref(ElemRef {
            base: "L".into(),
            path: vec![Attr::Final],
        }))
        .unwrap();
        assert_eq!(place3, (head, OperandPos::B));
        // a bare statement is not a place
        assert!(place_of(&ValExpr::Name("S".into())).is_err());
    }

    #[test]
    fn compare_semantics() {
        use CmpOp::*;
        let cmp = |a: &RtVal, op, b: &RtVal| compare(&Val::of(a), op, &Val::of(b));
        let t = |a: &RtVal, op, b: &RtVal| cmp(a, op, b).unwrap();
        // numerics compare across Int/Real/Const operands
        assert!(t(&RtVal::Int(3), Eq, &RtVal::Operand(Operand::int(3))));
        assert!(t(&RtVal::Real(2.5), Gt, &RtVal::Int(2)));
        // positions coerce against ints
        assert!(t(&RtVal::Pos(OperandPos::B), Eq, &RtVal::Int(3)));
        // opcode vs name, case-insensitive
        assert!(t(
            &RtVal::Opc(gospel_ir::Opcode::Assign),
            Eq,
            &RtVal::Name("ASSIGN".into())
        ));
        // mismatched kinds are unequal, not an error (for ==/!=)
        assert!(t(&RtVal::Int(1), Ne, &RtVal::Name("assign".into())));
        // …but ordering them is an error
        assert!(cmp(
            &RtVal::Name("x".into()),
            Lt,
            &RtVal::Name("y".into())
        )
        .is_err());
    }

    #[test]
    fn format_counting_short_circuits() {
        let (p, d) = world(LOOPY);
        let loops = d.loops();
        let first = p.first().unwrap(); // n := 10
        let mut env = Bindings::new();
        env.set("S", RtVal::Stmt(first));
        let cond = |txt: &str| -> Cond {
            // reuse the spec parser to build conditions succinctly
            let spec = format!(
                "OPTIMIZATION T TYPE Stmt: S; PRECOND Code_Pattern any S: {txt}; ACTION delete(S); END"
            );
            let (ast, _) = parse_validated(&spec).unwrap();
            let format: BoolExpr = ast.patterns[0].format.clone().unwrap();
            Resolver {
                table: env.table(),
                sites: 0,
            }
            .cond(&format, None)
        };
        // first conjunct false => one check only
        let mut checks = 0;
        let ok = eval_format(
            &p,
            loops,
            &env,
            &cond("S.opc == add AND type(S.opr_2) == const"),
            &mut checks,
        )
        .unwrap();
        assert!(!ok);
        assert_eq!(checks, 1);
        // first true => both evaluated
        checks = 0;
        let ok = eval_format(
            &p,
            loops,
            &env,
            &cond("S.opc == assign AND type(S.opr_2) == const"),
            &mut checks,
        )
        .unwrap();
        assert!(ok);
        assert_eq!(checks, 2);
    }

    #[test]
    fn strategies_agree_on_solutions() {
        // Whatever the strategy, the set of application points must match.
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Si, Sm; Loop: L;
PRECOND
  Code_Pattern
    any L;
  Depend
    any Si, Sm: mem(Si, L), flow_dep(Si, Sm) OR anti_dep(Si, Sm);
ACTION
  delete(Si);
END
"#;
        // note: this clause is deps_first-incompatible (OR) — exercise the
        // fallback too.
        let base = opt_of(spec);
        let src = "program p\ninteger i, x\nreal a(10)\ndo i = 1, 5\nx = i\na(i) = x\nend do\nwrite a(1)\nend";
        let (p, d) = world(src);
        let mut results = Vec::new();
        for strat in [Strategy::MembersFirst, Strategy::DepsFirst, Strategy::Heuristic] {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::new(&p, &d, &opt);
            let found = s.find_all(usize::MAX).unwrap();
            results.push(found);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }

    #[test]
    fn deps_first_binds_from_edges_members_first_from_sets() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sm, Sn; Loop: L;
PRECOND
  Code_Pattern
    any L;
  Depend
    any Sm, Sn: mem(Sm, L) AND mem(Sn, L), flow_dep(Sm, Sn);
ACTION
  modify(Sm.opr_1, 1);
END
"#;
        let base = opt_of(spec);
        let src = "program p\ninteger i, x, y\ndo i = 1, 5\nx = i\ny = x\nend do\nwrite y\nend";
        let (p, d) = world(src);
        for strat in [Strategy::MembersFirst, Strategy::DepsFirst] {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::with_verdicts(&p, &d, &opt, StrategyLog::default());
            let found = s.find_first().unwrap();
            assert!(found.is_some(), "{strat:?} found nothing");
            assert_eq!(s.verdicts.0, vec![strat]);
        }
        // …and their costs differ (the E6 effect, in miniature)
        let cost_of = |strat| {
            let opt = base.with_strategy(strat);
            let mut s = Searcher::new(&p, &d, &opt);
            s.find_all(usize::MAX).unwrap();
            s.tally.cost.dep_checks
        };
        assert_ne!(
            cost_of(Strategy::MembersFirst),
            cost_of(Strategy::DepsFirst)
        );
    }

    #[test]
    fn no_clause_with_empty_binding_is_a_pure_check() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sa, Sb;
PRECOND
  Code_Pattern
    any Sa: Sa.opc == assign;
    any Sb: Sb.opc == assign;
  Depend
    no: flow_dep(Sa, Sb);
ACTION
  delete(Sb);
END
"#;
        let opt = opt_of(spec);
        // x = 1; y = x: the pair (Sa=x, Sb=y-stmt) is rejected; the search
        // backtracks to independent pairs.
        let (p, d) = world("program p\ninteger x, y\nx = 1\ny = x\nwrite y\nend");
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap().expect("some pair is independent");
        let sa = found.get("Sa").unwrap().as_stmt().unwrap();
        let sb = found.get("Sb").unwrap().as_stmt().unwrap();
        assert!(!d.exists(
            DepKind::Flow,
            sa,
            sb,
            &DirPattern::any()
        ));
    }

    #[test]
    fn resume_skips_anchors_before_the_frontier() {
        // One first-clause Stmt pattern: every live statement is an anchor
        // candidate, and each candidate visit bumps `anchor_visits`.
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger a, b, c, e\na = 1\nb = 2\nc = 3\ne = 4\nend");
        let n = p.iter().count() as u64;

        let mut s = Searcher::new(&p, &d, &opt);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.tally.cost.anchor_visits, n, "baseline visits every statement");

        // Resuming from the statement at program order k must visit exactly
        // the anchors at or after k — none before the frontier.
        let frontier = p.iter().nth(2).unwrap();
        assert_eq!(d.order_of(frontier), Some(2));
        let mut s = Searcher::new(&p, &d, &opt);
        s.resume_from = Some(frontier);
        let found = s.find_all(usize::MAX).unwrap();
        assert_eq!(s.tally.cost.anchor_visits, n - 2);
        assert!(found
            .iter()
            .all(|b| d.order_of(b.get("S").unwrap().as_stmt().unwrap()) >= Some(2)));

        // The complement pass (`stop_before`) covers exactly the skipped
        // prefix, so the two searches partition the anchor space.
        let mut s = Searcher::new(&p, &d, &opt);
        s.stop_before = Some(frontier);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.tally.cost.anchor_visits, 2);
    }

    #[test]
    fn path_sets_are_inclusive_and_ordered() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: Sa, Sb, Sm;
PRECOND
  Code_Pattern
    any Sa: Sa.opc == assign;
    any Sb: Sb.opc == write;
  Depend
    all Sm: mem(Sm, path(Sa, Sb)), Sm.opc == assign;
ACTION
  delete(Sa);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger x, y\nx = 1\ny = 2\nwrite y\nend");
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap().unwrap();
        match found.get("Sm") {
            Some(RtVal::Set(items)) => {
                // both assignments are on the path from the first assign to
                // the write
                assert_eq!(items.len(), 2, "{items:?}");
            }
            other => panic!("expected a set, got {other:?}"),
        }
    }

    #[test]
    fn find_first_short_circuits_anchor_visits() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world("program p\ninteger a, b, c, e\na = 1\nb = 2\nc = 3\ne = 4\nend");
        let n = p.iter().count() as u64;
        assert!(n >= 4);

        let mut s = Searcher::new(&p, &d, &opt);
        s.find_all(usize::MAX).unwrap();
        assert_eq!(s.tally.cost.anchor_visits, n, "find_all visits every anchor");

        // The very first statement matches, so `find_first` must stop
        // there: one anchor visit, not a collect-then-discard pass.
        let mut s = Searcher::new(&p, &d, &opt);
        let found = s.find_first().unwrap();
        assert!(found.is_some());
        assert_eq!(s.tally.cost.anchor_visits, 1);
    }

    #[test]
    fn fused_candidates_agree_with_scan_and_prune() {
        let spec = r#"
OPTIMIZATION T
TYPE Stmt: S;
PRECOND
  Code_Pattern
    any S: S.opc == assign;
ACTION
  delete(S);
END
"#;
        let opt = opt_of(spec);
        let (p, d) = world(LOOPY);
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &p);
        let id = auto.opt_id(&opt.name).expect("an opcode-pinned anchor is fused");

        let stmts_of = |found: &[Bindings]| -> Vec<StmtId> {
            found
                .iter()
                .map(|b| b.get("S").unwrap().as_stmt().unwrap())
                .collect()
        };

        let mut scan = Searcher::new(&p, &d, &opt);
        let scan_found = scan.find_all(usize::MAX).unwrap();
        assert_eq!(scan.tally.candidates_pruned, 0);

        let mut fast = Searcher::new(&p, &d, &opt);
        fast.fused = Some((&auto, id));
        let fast_found = fast.find_all(usize::MAX).unwrap();

        // Identical bindings in identical order; the posting merely skipped
        // the statements that could never carry the pinned opcode.
        assert_eq!(stmts_of(&scan_found), stmts_of(&fast_found));
        let assigns = p.iter().filter(|&s| p.quad(s).op == Opcode::Assign).count() as u64;
        assert_eq!(fast.tally.cost.anchor_visits, assigns);
        assert_eq!(fast.tally.candidates_pruned, p.len() as u64 - assigns);
        assert!(fast.tally.candidates_pruned > 0);
    }
}
