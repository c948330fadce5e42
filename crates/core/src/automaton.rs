//! The fused anchor automaton: one shared matcher for the whole catalog.
//!
//! Every registered optimizer whose anchor (first) pattern clause pins an
//! opcode is compiled into a single trie over *discriminating tests* —
//! the opcode bucket at the root, then the per-position operand-class
//! tests its [`AnchorFilter`] extracted — with common prefixes merged at
//! build time. Classifying one statement is a single walk over that trie
//! and yields the admission verdict of **all** fused optimizers at once,
//! instead of N independent per-optimizer filter probes: the shared
//! prefix (`opc == assign`, say) is tested once no matter how many
//! catalog entries start with it.
//!
//! The automaton keeps two layers:
//!
//! * **catalog-scoped** — each optimizer's *anchor chain*: its narrowing
//!   [`AnchorFilter`], the root buckets it hangs under and its class
//!   tests in canonical order. [`crate::generate`] compiles the chain
//!   once per optimizer, as the paper's generator emits `set_up_X` and
//!   `match_X` once per specification, and keeps it with the
//!   [`CompiledOptimizer`] behind an `Arc` together with the optimizer's
//!   upper-cased name. Nothing here re-reads a specification: a build
//!   shares the chains and names and lays the chains out as one trie in
//!   flat buffers, its root indexed by opcode. The trie is immutable
//!   until (de/re)registration changes the catalog, at which point the
//!   whole automaton is dropped and rebuilt
//!   ([`crate::SessionCaches::drop_optimizer`] treats it like the other
//!   per-optimizer caches).
//! * **program-scoped** — per-statement admission masks and per-optimizer
//!   posting lists, maintained O(|delta| · trie-depth) by replaying
//!   [`EditDelta`] journals: touched statements are unlisted via their
//!   recorded masks and reclassified from the post-edit program.
//!   Structural batches reclassify the whole program against the
//!   unchanged trie. Classification writes each mask in place and reuses
//!   one walk stack, so it allocates nothing per statement.
//!
//! Loop-membership is part of the automaton's test vocabulary in
//! principle (the anchor of a loop-shaped optimizer), but GOSpeL anchor
//! clauses cannot constrain membership — `mem()` lives in the Depend
//! section — and loop-anchored optimizers (`ICM`, `FUS`, `LUR`) enumerate
//! the loop table directly, which is already small. They are recorded as
//! *non-fused*: the searcher's degradation ladder (fused → scan) falls
//! through for them.
//!
//! Admission is sound for the same reason [`AnchorFilter`] admission is:
//! a statement outside an optimizer's posting provably fails its anchor
//! clause's opcode disjunction or one of its top-level
//! `type(var.opr_N)` conjuncts. When the filter was `exact`, the posting
//! *is* the satisfying set and the searcher skips format evaluation
//! entirely. The property suite asserts posting ≡ filter admission ≡
//! scan satisfaction over random journaled edit batches.
//!
//! The module also owns the front end every matcher shares: the
//! [`AnchorFilter`] extracted from an anchor clause by [`anchor_filter`]
//! and the anchor chain compiled from it, which the trie is laid out
//! from, the scan path tests per visited statement for its funnel
//! accounting, and explain replays to name the failing edge. Outside
//! tests, only `generate` extracts filters.

use crate::compile::CompiledOptimizer;
use gospel_dep::DepGraph;
use gospel_ir::{EditDelta, Opcode, Operand, Program, Quad, StmtId};
use gospel_lang::ast::{Attr, BoolExpr, CmpOp, ElemType, OperandClass, PatternClause, ValExpr};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// anchor-clause constraint extraction
// ---------------------------------------------------------------------------

/// The operand class `type(opr_N)` tests an operand against.
pub(crate) fn class_of(o: &Operand) -> OperandClass {
    match o {
        Operand::Const(_) => OperandClass::Const,
        Operand::Var(_) => OperandClass::Var,
        Operand::Elem { .. } => OperandClass::Elem,
        Operand::None => OperandClass::None,
    }
}

/// What a pattern clause's format provably requires of its variable's
/// statement, extracted once per optimizer and compiled into the
/// automaton's trie instead of evaluating the format: an
/// over-approximating opcode set and the operand classes pinned by
/// top-level `type(var.opr_N) ==/!= class` conjuncts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AnchorFilter {
    /// Admissible `gospel_name` bucket keys — every statement satisfying
    /// the format carries one of these opcodes. `None` when the format
    /// does not bound the opcode (no narrowing possible).
    pub opcodes: Option<Vec<&'static str>>,
    /// `(position, class, positive)` requirements: position is 0-based
    /// (`opr_1` → 0), and `positive` distinguishes `==` from `!=`.
    pub classes: Vec<(usize, OperandClass, bool)>,
    /// True when admission *equals* the format: every top-level conjunct
    /// is either a pure opcode disjunction over the variable or an
    /// extracted `type(var.opr_N)` test, so a statement is in the
    /// admission set **iff** its format holds. The searcher then skips
    /// format evaluation for posting members entirely. The equivalence
    /// rests on two invariants checked by the differential suite: the
    /// trie buckets on [`gospel_ir::Opcode::gospel_name`], the same key
    /// the runtime's case-insensitive `opc ==` comparison uses, and the
    /// trie's operand classification matches the runtime
    /// `type()` test over a statically valid `opr_1..=3` position
    /// (which can never raise a navigation error).
    pub exact: bool,
}

impl AnchorFilter {
    /// True when the filter can narrow a candidate enumeration at all.
    pub fn narrows(&self) -> bool {
        self.opcodes.is_some()
    }

    /// Whether one statement is in this filter's admission set — the
    /// predicate form of fused posting membership. The scan matcher's
    /// funnel accounting tests each visited anchor with this so both
    /// matchers report identical automaton-admitted totals. A filter
    /// with no opcode bound admits every statement (the automaton does
    /// not fuse it either).
    pub fn admits(&self, quad: &Quad) -> bool {
        let Some(opcodes) = self.opcodes.as_ref() else {
            return true;
        };
        if !opcodes.contains(&quad.op.gospel_name()) {
            return false;
        }
        let cls = [class_of(&quad.dst), class_of(&quad.a), class_of(&quad.b)];
        self.classes
            .iter()
            .all(|&(pos, c, positive)| (cls[pos] == c) == positive)
    }
}

/// Extracts the [`AnchorFilter`] of `var` from a clause's format.
///
/// The opcode bound is computed over the whole boolean structure:
/// `var.opc == <name>` leaves bound to one opcode, conjunctions
/// intersect, disjunctions union (an unbounded disjunct unbounds the
/// whole disjunction). `any S: S.opc == assign OR S.opc == add` thus
/// yields the two-bucket union, and `(S.opc == div AND S.opr_3 != 0)
/// OR S.opc == mod` yields `{div, mod}`. Class constraints come from
/// the top-level conjuncts only — inside a disjunction they hold on
/// just one branch, so lifting them would over-narrow.
pub fn anchor_filter(clause: &PatternClause, var: &str) -> AnchorFilter {
    let Some(format) = clause.format.as_ref() else {
        return AnchorFilter::default();
    };
    let mut filter = AnchorFilter {
        opcodes: opcode_set(format, var),
        classes: Vec::new(),
        exact: false,
    };
    let mut atoms = Vec::new();
    flatten_conj(format, &mut atoms);
    let mut all_captured = true;
    for atom in atoms {
        if let BoolExpr::TypeIs(ValExpr::Ref(r), cls, positive) = atom {
            if r.base == var {
                if let [Attr::Opr(n)] = r.path.as_slice() {
                    if let Some(pos) = (*n as usize).checked_sub(1).filter(|&p| p < 3) {
                        filter.classes.push((pos, *cls, *positive));
                        continue;
                    }
                }
            }
        }
        if !pure_opcode(atom, var) {
            all_captured = false;
        }
    }
    filter.exact = filter.opcodes.is_some() && all_captured;
    filter
}

/// True when `b` is a disjunction of `var.opc == <known name>` leaves and
/// nothing else, so admission by the extracted opcode set is *equivalent*
/// to `b` — the condition under which [`AnchorFilter::exact`] may claim a
/// conjunct without evaluating it.
fn pure_opcode(b: &BoolExpr, var: &str) -> bool {
    match b {
        BoolExpr::Or(l, r) => pure_opcode(l, var) && pure_opcode(r, var),
        BoolExpr::Cmp(l, CmpOp::Eq, r) => [(l, r), (r, l)].into_iter().any(|(a, b)| {
            is_opc_ref(a, var) && matches!(b, ValExpr::Name(n) if opcode_key(n).is_some())
        }),
        _ => false,
    }
}

/// The set of opcodes that could satisfy `b`, or `None` when `b` does
/// not bound `var`'s opcode.
fn opcode_set(b: &BoolExpr, var: &str) -> Option<Vec<&'static str>> {
    match b {
        BoolExpr::And(l, r) => match (opcode_set(l, var), opcode_set(r, var)) {
            (Some(a), Some(b)) => Some(a.into_iter().filter(|k| b.contains(k)).collect()),
            (Some(s), None) | (None, Some(s)) => Some(s),
            (None, None) => None,
        },
        BoolExpr::Or(l, r) => {
            let mut a = opcode_set(l, var)?;
            let b = opcode_set(r, var)?;
            for k in b {
                if !a.contains(&k) {
                    a.push(k);
                }
            }
            Some(a)
        }
        BoolExpr::Cmp(l, CmpOp::Eq, r) => {
            for (a, b) in [(l, r), (r, l)] {
                if is_opc_ref(a, var) {
                    if let ValExpr::Name(n) = b {
                        return opcode_key(n).map(|k| vec![k]);
                    }
                }
            }
            None
        }
        _ => None,
    }
}

fn flatten_conj<'b>(b: &'b BoolExpr, out: &mut Vec<&'b BoolExpr>) {
    match b {
        BoolExpr::And(l, r) => {
            flatten_conj(l, out);
            flatten_conj(r, out);
        }
        other => out.push(other),
    }
}

fn is_opc_ref(v: &ValExpr, var: &str) -> bool {
    matches!(v, ValExpr::Ref(r) if r.base == var && r.path.as_slice() == [Attr::Opc])
}

/// The `gospel_name` keys the trie buckets on, indexed by [`bucket`]
/// (all `call` variants share one bucket).
const OPCODE_KEYS: [&str; 22] = [
    "assign", "add", "sub", "mul", "div", "mod", "neg", "call", "do", "pardo", "enddo", "if_lt",
    "if_le", "if_gt", "if_ge", "if_eq", "if_ne", "else", "endif", "read", "write", "nop",
];

/// The root bucket of an opcode: the index of its `gospel_name` in
/// [`OPCODE_KEYS`].
fn bucket(op: Opcode) -> usize {
    match op {
        Opcode::Assign => 0,
        Opcode::Add => 1,
        Opcode::Sub => 2,
        Opcode::Mul => 3,
        Opcode::Div => 4,
        Opcode::Mod => 5,
        Opcode::Neg => 6,
        Opcode::Call(_) => 7,
        Opcode::DoHead => 8,
        Opcode::ParDo => 9,
        Opcode::EndDo => 10,
        Opcode::IfLt => 11,
        Opcode::IfLe => 12,
        Opcode::IfGt => 13,
        Opcode::IfGe => 14,
        Opcode::IfEq => 15,
        Opcode::IfNe => 16,
        Opcode::Else => 17,
        Opcode::EndIf => 18,
        Opcode::Read => 19,
        Opcode::Write => 20,
        Opcode::Nop => 21,
    }
}

/// Maps a GOSpeL opcode literal to the interned `gospel_name` key the
/// trie buckets on.
fn opcode_key(name: &str) -> Option<&'static str> {
    OPCODE_KEYS
        .iter()
        .find(|k| k.eq_ignore_ascii_case(name))
        .copied()
}

// ---------------------------------------------------------------------------
// the compiled anchor chain (catalog half, built by `generate`)
// ---------------------------------------------------------------------------

/// One discriminating test on an edge of the trie: the operand at
/// `pos` is (`positive`) or is not (`!positive`) of class `cls`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Test {
    pos: usize,
    cls: OperandClass,
    positive: bool,
}

impl Test {
    fn passes(&self, cls: &[OperandClass; 3]) -> bool {
        (cls[self.pos] == self.cls) == self.positive
    }
}

/// Deterministic ordering of class tests, so equal filters produce equal
/// chains and shared prefixes actually merge. Class outranks position:
/// the catalog's common discriminator ("some operand is a constant")
/// then leads every chain that uses it, maximizing sharing; conjunction
/// order is semantically free.
fn test_rank(t: &Test) -> (u8, usize, bool) {
    let c = match t.cls {
        OperandClass::Const => 0,
        OperandClass::Var => 1,
        OperandClass::Elem => 2,
        OperandClass::None => 3,
    };
    (c, t.pos, !t.positive)
}

/// An optimizer's anchor clause compiled for matching: the narrowing
/// [`AnchorFilter`], the root buckets it hangs under and its canonical
/// test chain. [`crate::generate`] compiles it once per optimizer; the
/// trie, the scan path's funnel accounting and explain all read that
/// one copy, shared through an `Arc`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct AnchorChain {
    /// The filter the chain was compiled from; it always narrows.
    pub(crate) filter: AnchorFilter,
    /// Bit `bucket(op)` is set for every admissible opcode.
    buckets: u32,
    /// The class tests sorted by `test_rank` and deduplicated: the edge
    /// sequence threaded into the trie under each bucket, replayed by
    /// [`FusedAutomaton::explain_admission`] to name the first failing
    /// edge.
    tests: Vec<Test>,
}

impl AnchorChain {
    /// Compiles the anchor of a pattern section: `None` unless its first
    /// clause ranges over statements and its format bounds the opcode
    /// (loop anchors and unbounded formats stay off the automaton).
    pub(crate) fn compile(patterns: &[(PatternClause, ElemType)]) -> Option<AnchorChain> {
        let filter = patterns
            .first()
            .filter(|(_, ty)| *ty == ElemType::Stmt)
            .and_then(|(c, _)| c.vars.first().map(|v| anchor_filter(c, v)))
            .filter(AnchorFilter::narrows)?;
        let mut tests: Vec<Test> = filter
            .classes
            .iter()
            .map(|&(pos, cls, positive)| Test { pos, cls, positive })
            .collect();
        tests.sort_unstable_by_key(test_rank);
        tests.dedup();
        let buckets = filter.opcodes.iter().flatten().fold(0, |bits, key| {
            let b = OPCODE_KEYS
                .iter()
                .position(|k| k == key)
                .expect("filters draw opcodes from OPCODE_KEYS");
            bits | 1 << b
        });
        Some(AnchorChain {
            filter,
            buckets,
            tests,
        })
    }

    /// Whether admission equals format satisfaction ([`AnchorFilter::exact`]).
    pub(crate) fn exact(&self) -> bool {
        self.filter.exact
    }

    fn admits_opcode(&self, op: Opcode) -> bool {
        self.buckets & 1 << bucket(op) != 0
    }
}

/// The operand classes of `dst`, `a` and `b`, the positions a test reads.
fn classes(quad: &Quad) -> [OperandClass; 3] {
    [class_of(&quad.dst), class_of(&quad.a), class_of(&quad.b)]
}

// ---------------------------------------------------------------------------
// the trie (program half)
// ---------------------------------------------------------------------------

/// The absent link in the trie's flat buffers.
const NIL: u32 = u32::MAX;

/// The placeholder test of a bucket root, which no edge leads into.
const ROOT_TEST: Test = Test {
    pos: 0,
    cls: OperandClass::None,
    positive: true,
};

/// One trie state, linked into flat buffers: its children through
/// `first_child` and their `next_sibling`s, and the optimizers whose
/// whole chain ends here through `first_out` into `outs`.
#[derive(Clone, Copy, Debug)]
struct Node {
    /// The test on the edge into this node (unused for bucket roots).
    test: Test,
    first_child: u32,
    next_sibling: u32,
    first_out: u32,
}

/// The replayed trie path of one (optimizer, statement) admission query —
/// what [`FusedAutomaton::explain_admission`] reports to the explain
/// engine. The `Admitted`/failure split agrees with [`classify`]
/// membership by construction: both walk the same edge chain.
///
/// [`classify`]: FusedAutomaton::reclassify
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionVerdict<'a> {
    /// The optimizer is not in the trie (loop anchor or unbounded
    /// opcode): admission does not narrow, every statement passes.
    NotFused,
    /// The root opcode bucket rejected the statement before any edge was
    /// walked.
    OpcodeMiss {
        /// The statement's opcode (`gospel_name`).
        got: &'static str,
        /// The anchor's admissible opcode set.
        expected: &'a [&'static str],
    },
    /// The walk entered the opcode bucket but this discriminator edge —
    /// the first failing one on the optimizer's chain — rejected it.
    EdgeFailed {
        /// 0-based operand position (`opr_1` → 0).
        pos: usize,
        /// The class the edge tests for.
        cls: OperandClass,
        /// `true` for `==`, `false` for `!=`.
        positive: bool,
        /// The operand's actual class.
        actual: OperandClass,
    },
    /// The full chain passed: the statement is in the posting.
    Admitted,
}

impl AdmissionVerdict<'_> {
    /// The failing edge in GOSpeL concrete syntax, e.g.
    /// `type(opr_2) == const` — empty for the non-failure variants.
    pub fn edge(&self) -> String {
        match self {
            AdmissionVerdict::EdgeFailed {
                pos,
                cls,
                positive,
                ..
            } => format!(
                "type(opr_{}) {} {}",
                pos + 1,
                if *positive { "==" } else { "!=" },
                cls.keyword()
            ),
            _ => String::new(),
        }
    }
}

/// The fused anchor automaton. See the module docs.
#[derive(Clone, Debug)]
pub struct FusedAutomaton {
    /// Upper-cased optimizer names, in catalog (registration) order,
    /// shared with the optimizers. The index into this vector is the
    /// optimizer id used everywhere below.
    names: Vec<Arc<str>>,
    /// The anchor chain of each optimizer with a narrowing anchor filter,
    /// shared with the optimizer; `None` for the rest (loop anchors,
    /// unbounded opcodes) — those fall down the ladder.
    fused: Vec<Option<Arc<AnchorChain>>>,
    /// Trie nodes; bucket roots are reached through `root`.
    nodes: Vec<Node>,
    /// Output lists: `(optimizer id, next)` links.
    outs: Vec<(u32, u32)>,
    /// Opcode bucket at the root: `bucket(op)` → node, or `NIL`.
    root: [u32; OPCODE_KEYS.len()],
    /// Mask words per statement slot (`ceil(names.len() / 64)`).
    words: usize,
    /// Per-statement admission masks, `words` words per `StmtId` slot —
    /// the reverse record `remove` needs.
    masks: Vec<u64>,
    /// Per-optimizer posting lists (unordered; the searcher restores
    /// program order through `DepGraph::order_of`).
    postings: Vec<Vec<StmtId>>,
    /// The classification walk's stack, reused across statements.
    stack: Vec<u32>,
    /// Trie states created by builds (drained by the driver into the
    /// `search.fused.states` counter).
    stat_states: u64,
    /// Trie nodes visited by classification walks since the last drain
    /// (`search.fused.visits`).
    stat_visits: u64,
}

impl Default for FusedAutomaton {
    fn default() -> FusedAutomaton {
        FusedAutomaton::compile(std::iter::empty())
    }
}

impl FusedAutomaton {
    /// Lays the catalog's precompiled anchor chains out as one trie and
    /// classifies every statement of `prog` against it.
    pub fn build(optimizers: &[CompiledOptimizer], prog: &Program) -> FusedAutomaton {
        let mut auto = FusedAutomaton::compile(optimizers.iter());
        auto.reclassify(prog);
        auto
    }

    /// [`FusedAutomaton::build`] over borrowed optimizers — the audit
    /// path reassembles the catalog in automaton order without cloning.
    pub fn build_refs(optimizers: &[&CompiledOptimizer], prog: &Program) -> FusedAutomaton {
        let mut auto = FusedAutomaton::compile(optimizers.iter().copied());
        auto.reclassify(prog);
        auto
    }

    /// The trie over `optimizers`' chains, with no statement classified.
    fn compile<'o>(
        optimizers: impl ExactSizeIterator<Item = &'o CompiledOptimizer>,
    ) -> FusedAutomaton {
        let n = optimizers.len();
        let mut auto = FusedAutomaton {
            names: Vec::with_capacity(n),
            fused: Vec::with_capacity(n),
            nodes: Vec::new(),
            outs: Vec::new(),
            root: [NIL; OPCODE_KEYS.len()],
            words: n.div_ceil(64).max(1),
            masks: Vec::new(),
            postings: Vec::new(),
            stack: Vec::new(),
            stat_states: 0,
            stat_visits: 0,
        };
        for opt in optimizers {
            let id = auto.names.len() as u32;
            auto.names.push(opt.key.clone());
            if let Some(chain) = &opt.anchor {
                auto.insert_chain(id, chain);
            }
            auto.fused.push(opt.anchor.clone());
        }
        auto.postings.resize_with(n, Vec::new);
        auto
    }

    /// Threads one optimizer's chain into the trie under each of its
    /// opcode buckets.
    fn insert_chain(&mut self, id: u32, chain: &AnchorChain) {
        let mut bits = chain.buckets;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            if self.root[b] == NIL {
                self.root[b] = self.fresh_node(ROOT_TEST);
            }
            let mut cur = self.root[b];
            for &t in &chain.tests {
                let mut child = self.nodes[cur as usize].first_child;
                while child != NIL && self.nodes[child as usize].test != t {
                    child = self.nodes[child as usize].next_sibling;
                }
                if child == NIL {
                    child = self.fresh_node(t);
                    let head = std::mem::replace(&mut self.nodes[cur as usize].first_child, child);
                    self.nodes[child as usize].next_sibling = head;
                }
                cur = child;
            }
            // Each bucket holds the chain once, so `id` is new here.
            let node = &mut self.nodes[cur as usize];
            self.outs.push((id, node.first_out));
            node.first_out = (self.outs.len() - 1) as u32;
        }
    }

    fn fresh_node(&mut self, test: Test) -> u32 {
        self.nodes.push(Node {
            test,
            first_child: NIL,
            next_sibling: NIL,
            first_out: NIL,
        });
        self.stat_states += 1;
        (self.nodes.len() - 1) as u32
    }

    /// Replays the trie walk of fused optimizer `name` over one quad and
    /// reports where it ended: admitted, rejected at the root opcode
    /// bucket, or rejected by a specific discriminator edge (the first
    /// failing test on the optimizer's canonical chain). The explain
    /// engine turns the verdict into its `NotAdmitted` narrative.
    pub fn explain_admission(&self, name: &str, quad: &Quad) -> AdmissionVerdict<'_> {
        let Some(id) = self.opt_id(name) else {
            return AdmissionVerdict::NotFused;
        };
        let chain = self.fused[id].as_deref().expect("opt_id implies fused");
        if !chain.admits_opcode(quad.op) {
            return AdmissionVerdict::OpcodeMiss {
                got: quad.op.gospel_name(),
                expected: chain.filter.opcodes.as_deref().unwrap_or_default(),
            };
        }
        let cls = classes(quad);
        for t in &chain.tests {
            if !t.passes(&cls) {
                return AdmissionVerdict::EdgeFailed {
                    pos: t.pos,
                    cls: t.cls,
                    positive: t.positive,
                    actual: cls[t.pos],
                };
            }
        }
        AdmissionVerdict::Admitted
    }

    /// Number of trie states.
    pub fn states(&self) -> usize {
        self.nodes.len()
    }

    /// The upper-cased optimizer names the automaton was built over, in
    /// catalog order.
    pub fn names(&self) -> &[Arc<str>] {
        &self.names
    }

    /// The id of `name` (case-insensitive) *when it is fused* — `None`
    /// for unknown names and for registered-but-not-fused optimizers
    /// (the ladder falls through for those).
    pub fn opt_id(&self, name: &str) -> Option<usize> {
        let id = self
            .names
            .iter()
            .position(|n| n.eq_ignore_ascii_case(name))?;
        self.fused[id].is_some().then_some(id)
    }

    /// True when the automaton was built over exactly `optimizers`' names
    /// (case-insensitively, in order) — the session's staleness check
    /// against the registered catalog.
    pub fn covers(&self, optimizers: &[CompiledOptimizer]) -> bool {
        self.names.len() == optimizers.len()
            && self.names.iter().zip(optimizers).all(|(n, o)| *n == o.key)
    }

    /// The admission posting of fused optimizer `id`, unordered.
    pub fn posting(&self, id: usize) -> &[StmtId] {
        &self.postings[id]
    }

    /// Whether `id`'s admission equals format satisfaction.
    pub fn exact(&self, id: usize) -> bool {
        self.fused[id].as_deref().is_some_and(AnchorChain::exact)
    }

    /// Drains the accumulated (states-built, trie-visits) statistics.
    pub fn take_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.stat_states),
            std::mem::take(&mut self.stat_visits),
        )
    }

    /// One trie walk: writes the admission mask of the quad in slot `id`
    /// — bit `o` set iff fused optimizer `o` admits the statement.
    fn classify(&mut self, id: StmtId, quad: &Quad) {
        let base = id.index() * self.words;
        let mask = &mut self.masks[base..base + self.words];
        mask.fill(0);
        let start = self.root[bucket(quad.op)];
        if start == NIL {
            return;
        }
        let cls = classes(quad);
        self.stack.clear();
        self.stack.push(start);
        while let Some(n) = self.stack.pop() {
            self.stat_visits += 1;
            let node = &self.nodes[n as usize];
            let mut o = node.first_out;
            while o != NIL {
                let (opt, next) = self.outs[o as usize];
                mask[opt as usize / 64] |= 1u64 << (opt % 64);
                o = next;
            }
            let mut child = node.first_child;
            while child != NIL {
                let c = &self.nodes[child as usize];
                if c.test.passes(&cls) {
                    self.stack.push(child);
                }
                child = c.next_sibling;
            }
        }
    }

    /// Lists statement `id` in every posting its recorded mask names.
    fn list(&mut self, id: StmtId) {
        let base = id.index() * self.words;
        for w in 0..self.words {
            let mut bits = self.masks[base + w];
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                self.postings[o].push(id);
                bits &= bits - 1;
            }
        }
    }

    /// Unlists a statement from every posting its recorded mask names.
    fn remove(&mut self, id: StmtId) {
        let base = id.index() * self.words;
        if base + self.words > self.masks.len() {
            return;
        }
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.masks[base + w]);
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                if let Some(i) = self.postings[o].iter().position(|&s| s == id) {
                    self.postings[o].swap_remove(i);
                }
                bits &= bits - 1;
            }
        }
    }

    /// Rebuilds the program-scoped layer (masks + postings) against the
    /// unchanged trie: classifies every statement, then sizes each
    /// posting to its count before listing. (Growing the postings push by
    /// push made a catalog build over a suite program take 1.9 µs
    /// instead of 1.1 µs on a 2-vCPU host.)
    pub fn reclassify(&mut self, prog: &Program) {
        self.masks.clear();
        self.masks.resize(prog.id_bound() * self.words, 0);
        for s in prog.iter() {
            self.classify(s, prog.quad(s));
        }
        for p in &mut self.postings {
            p.clear();
        }
        let mut counts = vec![0usize; self.postings.len()];
        for (slot, &m) in self.masks.iter().enumerate() {
            let mut bits = m;
            while bits != 0 {
                counts[slot % self.words * 64 + bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        for (p, &c) in self.postings.iter_mut().zip(&counts) {
            p.reserve_exact(c);
        }
        for s in prog.iter() {
            self.list(s);
        }
    }

    /// Replays one committed edit batch, leaving the postings exactly as
    /// [`FusedAutomaton::build`] over the post-edit program would, in
    /// O(|delta| · trie-depth) work.
    /// Structural batches reclassify the whole program; the trie (a pure
    /// function of the catalog) never changes here.
    pub fn update(&mut self, prog: &Program, delta: &EditDelta) {
        if delta.is_empty() {
            return;
        }
        if delta.requires_full() {
            self.reclassify(prog);
            return;
        }
        let need = prog.id_bound() * self.words;
        if need > self.masks.len() {
            self.masks.resize(need, 0);
        }
        let mut touched: Vec<StmtId> = Vec::with_capacity(delta.len());
        for op in delta.ops() {
            let id = op.stmt();
            if !touched.contains(&id) {
                touched.push(id);
            }
        }
        for &id in &touched {
            self.remove(id);
        }
        for &id in &touched {
            if prog.is_live(id) {
                self.classify(id, prog.quad(id));
                self.list(id);
            }
        }
    }

    /// Every `(optimizer id, statement)` candidate pair, in program
    /// order (ties between optimizers at one statement resolve in
    /// catalog order) — one pass over the postings dispatching the whole
    /// catalog at once. `None` when any posting member's program order
    /// is unknown to `deps` (stale order: the scan path stays
    /// authoritative).
    pub fn dispatch(&self, deps: &DepGraph) -> Option<Vec<(usize, StmtId)>> {
        let mut out: Vec<(usize, usize, StmtId)> = Vec::new();
        for (id, posting) in self.postings.iter().enumerate() {
            for &s in posting {
                out.push((deps.order_of(s)?, id, s));
            }
        }
        out.sort_unstable();
        Some(out.into_iter().map(|(_, id, s)| (id, s)).collect())
    }

    /// Structural equality against another automaton over the same
    /// catalog, ignoring posting order — the audit/property-test oracle
    /// (incrementally-maintained vs rebuilt-from-scratch).
    pub fn agrees_with(&self, other: &FusedAutomaton) -> bool {
        let norm = |p: &[Vec<StmtId>]| -> Vec<Vec<StmtId>> {
            p.iter()
                .map(|v| {
                    let mut v = v.clone();
                    v.sort_unstable();
                    v
                })
                .collect()
        };
        let exact = |a: &FusedAutomaton| -> Vec<Option<bool>> {
            a.fused.iter().map(|f| f.as_deref().map(AnchorChain::exact)).collect()
        };
        self.names == other.names
            && exact(self) == exact(other)
            && norm(&self.postings) == norm(&other.postings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::generate;
    use gospel_ir::{Opcode, Operand, OperandPos, ProgramBuilder};
    use gospel_lang::parse_validated;

    fn opt_of(name: &str, anchor: &str) -> CompiledOptimizer {
        let spec = format!(
            "OPTIMIZATION {name}\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any S: {anchor};\nACTION\n  delete(S);\nEND"
        );
        let (spec, info) = gospel_lang::parse_validated(&spec).unwrap();
        generate(spec, info).unwrap()
    }

    fn prog() -> Program {
        gospel_frontend::compile(
            "program p\ninteger i, x, y\nreal a(10)\nx = 1\ny = x\ndo i = 1, 10\na(i) = x\nend do\nwrite y\nend",
        )
        .unwrap()
    }

    #[test]
    fn shared_prefixes_merge_and_admission_matches_filters() {
        let opts = vec![
            opt_of("A", "S.opc == assign AND type(S.opr_2) == const"),
            opt_of("B", "S.opc == assign AND type(S.opr_2) == const AND type(S.opr_1) == var"),
            opt_of("C", "S.opc == assign"),
            opt_of("D", "S.opr_1 == S.opr_2"), // no opcode bound: not fused
        ];
        let p = prog();
        let auto = FusedAutomaton::build(&opts, &p);
        // A and B share the whole `assign → type(opr_2)==const` prefix; C
        // outputs at the bucket root. One bucket node, one class node for
        // the shared conjunct, one more for B's extra test.
        assert_eq!(auto.states(), 3, "common prefixes must merge");
        assert_eq!(auto.opt_id("a"), Some(0));
        assert_eq!(auto.opt_id("D"), None, "unfiltered anchors are not fused");
        assert_eq!(auto.opt_id("nope"), None);

        // Posting ≡ per-optimizer AnchorFilter admission, for every opt.
        for (i, opt) in opts.iter().enumerate() {
            let Some(id) = auto.opt_id(&opt.name) else { continue };
            assert_eq!(id, i);
            let (clause, _) = &opt.patterns[0];
            let filter = anchor_filter(clause, &clause.vars[0]);
            let mut want: Vec<StmtId> = p.iter().filter(|&s| filter.admits(p.quad(s))).collect();
            let mut got = auto.posting(id).to_vec();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "posting of {} diverged from its filter", opt.name);
        }
    }

    #[test]
    fn buckets_index_the_gospel_names() {
        let call = gospel_frontend::compile("program p\nreal x\nx = sqrt(2.0)\nend").unwrap();
        let call = call.quad(call.first().unwrap()).op;
        assert!(matches!(call, Opcode::Call(_)), "{call:?}");
        for op in [
            Opcode::Assign, Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Div, Opcode::Mod,
            Opcode::Neg, call, Opcode::DoHead, Opcode::ParDo, Opcode::EndDo, Opcode::IfLt,
            Opcode::IfLe, Opcode::IfGt, Opcode::IfGe, Opcode::IfEq, Opcode::IfNe, Opcode::Else,
            Opcode::EndIf, Opcode::Read, Opcode::Write, Opcode::Nop,
        ] {
            assert_eq!(OPCODE_KEYS[bucket(op)], op.gospel_name(), "{op:?}");
        }
    }

    #[test]
    fn generate_compiles_the_canonical_chain_once() {
        let opt = opt_of(
            "A",
            "(S.opc == neg OR S.opc == assign) AND type(S.opr_1) == var \
             AND type(S.opr_2) != const AND type(S.opr_1) == var",
        );
        let chain = opt.anchor.as_deref().expect("an opcode-pinned anchor compiles a chain");
        let (clause, _) = &opt.patterns[0];
        assert_eq!(chain.filter, anchor_filter(clause, "S"));
        assert_eq!(chain.buckets, 1 << bucket(Opcode::Assign) | 1 << bucket(Opcode::Neg));
        // Constant tests lead, the repeated conjunct is tested once.
        let tests: Vec<_> = chain.tests.iter().map(|t| (t.pos, t.cls, t.positive)).collect();
        assert_eq!(
            tests,
            [(1, OperandClass::Const, false), (0, OperandClass::Var, true)]
        );
        // A strategy copy shares the chain instead of recompiling it.
        let copy = opt.with_strategy(crate::Strategy::DepsFirst);
        assert!(Arc::ptr_eq(opt.anchor.as_ref().unwrap(), copy.anchor.as_ref().unwrap()));
        // The automaton shares it too.
        let auto = FusedAutomaton::build(std::slice::from_ref(&opt), &prog());
        assert!(Arc::ptr_eq(auto.fused[0].as_ref().unwrap(), opt.anchor.as_ref().unwrap()));
        assert!(opt_of("L", "S.opr_1 == S.opr_2").anchor.is_none());
    }

    #[test]
    fn update_replays_deltas_like_a_rebuild() {
        let opts = vec![
            opt_of("A", "S.opc == assign AND type(S.opr_2) == const"),
            opt_of("B", "S.opc == write"),
        ];
        let mut p = prog();
        let mut auto = FusedAutomaton::build(&opts, &p);

        // Modify: y = x becomes y = 7 — enters A's posting.
        let s1 = p.iter().nth(1).unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p, s1, OperandPos::A, Operand::int(7));
        auto.update(&p, &d);
        assert!(auto.agrees_with(&FusedAutomaton::build(&opts, &p)), "after modify");
        assert!(auto.posting(0).contains(&s1));

        // Insert + delete in one batch.
        let mut d = EditDelta::new();
        let x = p.syms().lookup("x").unwrap();
        d.insert_after(
            &mut p,
            Some(s1),
            Quad::assign(Operand::Var(x), Operand::int(9)),
        );
        let head = p.first().unwrap();
        d.delete(&mut p, head);
        auto.update(&p, &d);
        assert!(auto.agrees_with(&FusedAutomaton::build(&opts, &p)), "after insert+delete");

        // Structural batch: reclassify against the unchanged trie.
        let mut d = EditDelta::new();
        let last = p.iter().last().unwrap();
        d.insert_after(&mut p, Some(last), Quad::marker(Opcode::EndIf));
        assert!(d.requires_full());
        auto.update(&p, &d);
        assert!(auto.agrees_with(&FusedAutomaton::build(&opts, &p)), "after structural");

        // Undo round-trip: the journal replayed in reverse restores the
        // automaton to its original postings.
        let mut p2 = prog();
        let mut auto2 = FusedAutomaton::build(&opts, &p2);
        let before = FusedAutomaton::build(&opts, &p2);
        let s1 = p2.iter().nth(1).unwrap();
        let mut d = EditDelta::new();
        d.modify(&mut p2, s1, OperandPos::A, Operand::int(7));
        auto2.update(&p2, &d);
        d.undo(&mut p2);
        auto2.reclassify(&p2);
        assert!(auto2.agrees_with(&before));
    }

    #[test]
    fn dispatch_yields_pairs_in_program_order() {
        let opts = vec![
            opt_of("A", "S.opc == assign"),
            opt_of("B", "S.opc == write"),
        ];
        let p = prog();
        let deps = DepGraph::analyze(&p).unwrap();
        let auto = FusedAutomaton::build(&opts, &p);
        let pairs = auto.dispatch(&deps).unwrap();
        assert!(!pairs.is_empty());
        let orders: Vec<usize> = pairs
            .iter()
            .map(|&(_, s)| deps.order_of(s).unwrap())
            .collect();
        assert!(orders.windows(2).all(|w| w[0] <= w[1]), "{orders:?}");
        // Every pair is genuinely admitted; every admitted pair is there.
        let total: usize = (0..opts.len())
            .filter_map(|i| auto.opt_id(&opts[i].name))
            .map(|id| auto.posting(id).len())
            .sum();
        assert_eq!(pairs.len(), total);
    }

    #[test]
    fn explain_admission_replays_the_trie_path() {
        let opts = vec![
            opt_of("A", "S.opc == assign AND type(S.opr_2) == const"),
            opt_of("D", "S.opr_1 == S.opr_2"), // not fused
        ];
        let p = prog();
        let auto = FusedAutomaton::build(&opts, &p);
        // x = 1: assign with a const source — the whole chain passes.
        let s0 = p.first().unwrap();
        assert_eq!(
            auto.explain_admission("A", p.quad(s0)),
            AdmissionVerdict::Admitted
        );
        // y = x: assign, but opr_2 is a var — the class edge fails.
        let s1 = p.iter().nth(1).unwrap();
        let v = auto.explain_admission("A", p.quad(s1));
        assert_eq!(v.edge(), "type(opr_2) == const");
        assert!(matches!(
            v,
            AdmissionVerdict::EdgeFailed {
                pos: 1,
                cls: OperandClass::Const,
                positive: true,
                actual: OperandClass::Var,
            }
        ));
        // write y: rejected at the root opcode bucket.
        let w = p.iter().find(|&s| p.quad(s).op == Opcode::Write).unwrap();
        assert_eq!(
            auto.explain_admission("A", p.quad(w)),
            AdmissionVerdict::OpcodeMiss {
                got: "write",
                expected: &["assign"],
            }
        );
        // Unfused and unknown optimizers do not narrow.
        assert_eq!(
            auto.explain_admission("D", p.quad(w)),
            AdmissionVerdict::NotFused
        );
        assert_eq!(
            auto.explain_admission("nope", p.quad(w)),
            AdmissionVerdict::NotFused
        );
    }

    #[test]
    fn stats_accumulate_and_drain() {
        let opts = vec![opt_of("A", "S.opc == assign")];
        let p = prog();
        let mut auto = FusedAutomaton::build(&opts, &p);
        let (states, visits) = auto.take_stats();
        assert_eq!(states, auto.states() as u64);
        // one classification visit per assign-bucket statement
        assert!(visits > 0);
        assert_eq!(auto.take_stats(), (0, 0), "drained");
    }

    fn loopy() -> Program {
        // n = 10 ; do i = 1, n { a(i) = 0 ; do j = 1, 2 { x = i } } ; x = n
        let mut b = ProgramBuilder::new("loopy");
        let n = b.scalar_int("n");
        let i = b.scalar_int("i");
        let j = b.scalar_int("j");
        let x = b.scalar_int("x");
        let a = b.array_int("a", &[10]);
        b.assign(Operand::Var(n), Operand::int(10));
        let li = b.do_head(i, Operand::int(1), Operand::Var(n));
        b.assign(
            Operand::elem1(a, gospel_ir::AffineExpr::var(i)),
            Operand::int(0),
        );
        let lj = b.do_head(j, Operand::int(1), Operand::int(2));
        b.assign(Operand::Var(x), Operand::Var(i));
        b.end_do(lj);
        b.end_do(li);
        b.assign(Operand::Var(x), Operand::Var(n));
        b.finish()
    }

    fn clause_of(txt: &str) -> PatternClause {
        let spec = format!(
            "OPTIMIZATION T\nTYPE\n  Stmt: S;\nPRECOND\n  Code_Pattern\n    \
             any S: {txt};\nACTION\n  delete(S);\nEND"
        );
        parse_validated(&spec).unwrap().0.patterns.remove(0)
    }

    #[test]
    fn anchor_filter_extraction() {
        let c = clause_of("S.opc == assign AND type(S.opr_2) == const");
        let f = anchor_filter(&c, "S");
        assert_eq!(f.opcodes, Some(vec!["assign"]));
        assert_eq!(f.classes, vec![(1, OperandClass::Const, true)]);
        assert!(f.exact, "opcode leaf + class conjunct capture the format");
        // reversed sides and case-insensitivity
        let c = clause_of("ASSIGN == S.opc");
        let f = anchor_filter(&c, "S");
        assert_eq!(f.opcodes, Some(vec!["assign"]));
        assert!(f.exact);
        // a disjunction unions buckets; branch-local conjuncts stay put
        let c = clause_of(
            "(S.opc == add OR (S.opc == div AND S.opr_3 != 0)) AND type(S.opr_3) == const",
        );
        let f = anchor_filter(&c, "S");
        assert_eq!(f.opcodes, Some(vec!["add", "div"]));
        assert_eq!(f.classes, vec![(2, OperandClass::Const, true)]);
        assert!(
            !f.exact,
            "the admission set over-approximates: `S.opr_3 != 0` is not enforced"
        );
        // a pure opcode disjunction is exact on its own
        let f = anchor_filter(&clause_of("S.opc == assign OR S.opc == do"), "S");
        assert!(f.exact);
        // a disjunct with no opcode bound unbounds the whole disjunction
        let c = clause_of("S.opc == assign OR type(S.opr_2) == const");
        let f = anchor_filter(&c, "S");
        assert!(f.opcodes.is_none());
        assert!(!f.exact);
        // an uncaptured conjunct forfeits exactness but keeps the bound
        let c = clause_of("S.opc == assign AND S.opr_1 == S.opr_2");
        let f = anchor_filter(&c, "S");
        assert_eq!(f.opcodes, Some(vec!["assign"]));
        assert!(!f.exact);
        // wrong variable pins nothing
        let c = clause_of("S.opc == assign");
        assert!(!anchor_filter(&c, "T").narrows());
    }

    #[test]
    fn filtered_candidates_respect_opcode_and_class() {
        let p = loopy();
        let admitted = |f: &AnchorFilter| p.iter().filter(|&s| f.admits(p.quad(s))).count();
        // loopy has four assigns; two of them assign a constant.
        let f = anchor_filter(&clause_of("S.opc == assign AND type(S.opr_2) == const"), "S");
        assert_eq!(admitted(&f), 2);
        let f = anchor_filter(&clause_of("S.opc == assign OR S.opc == do"), "S");
        assert_eq!(admitted(&f), 6);
        let f = anchor_filter(&clause_of("S.opr_1 == S.opr_2"), "S");
        assert!(!f.narrows(), "no opcode bound, nothing to narrow");
        assert_eq!(admitted(&f), p.len(), "an unbounded filter admits everything");
    }
}
