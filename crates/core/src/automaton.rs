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
//! * **catalog-scoped** — the trie itself. Built once per catalog,
//!   immutable until (de/re)registration changes the catalog, at which
//!   point the whole automaton is dropped and rebuilt
//!   ([`crate::SessionCaches::drop_optimizer`] treats it like the other
//!   per-optimizer caches).
//! * **program-scoped** — per-statement admission masks and per-optimizer
//!   posting lists, maintained O(|delta| · trie-depth) by replaying
//!   [`EditDelta`] journals: touched statements are unlisted via their
//!   recorded masks and reclassified from the post-edit program.
//!   Structural batches reclassify the whole program against the
//!   unchanged trie.
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
//! [`AnchorFilter`] extracted from an anchor clause by [`anchor_filter`],
//! which the trie compiles and the scan path tests per visited statement
//! for its funnel accounting.

use crate::caches::normalize;
use crate::compile::CompiledOptimizer;
use gospel_dep::DepGraph;
use gospel_ir::{EditDelta, Operand, Program, Quad, StmtId};
use gospel_lang::ast::{Attr, BoolExpr, CmpOp, ElemType, OperandClass, PatternClause, ValExpr};
use std::collections::HashMap;

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

/// Maps a GOSpeL opcode literal to the interned `gospel_name` key the
/// trie buckets on (all `call` variants share one bucket).
fn opcode_key(name: &str) -> Option<&'static str> {
    const KEYS: [&str; 22] = [
        "assign", "add", "sub", "mul", "div", "mod", "neg", "call", "do", "pardo", "enddo",
        "if_lt", "if_le", "if_gt", "if_ge", "if_eq", "if_ne", "else", "endif", "read", "write",
        "nop",
    ];
    KEYS.iter()
        .find(|k| k.eq_ignore_ascii_case(name))
        .copied()
}

// ---------------------------------------------------------------------------
// the trie
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

/// One trie node: optimizers whose whole test chain ends here, plus the
/// outgoing test edges (children with strictly longer chains).
#[derive(Clone, Debug, Default)]
struct Node {
    outputs: Vec<usize>,
    edges: Vec<(Test, usize)>,
}

/// Per-fused-optimizer metadata carried out of trie construction.
#[derive(Clone, Debug)]
struct FusedEntry {
    /// The anchor filter was `exact`: admission equals format
    /// satisfaction, so the searcher skips format evaluation for posting
    /// members.
    exact: bool,
    /// The root bucket keys this optimizer's chain hangs under.
    opcodes: Vec<&'static str>,
    /// The optimizer's discriminator chain, in canonical (`test_rank`)
    /// order — exactly the edge sequence `insert_filter` threaded into
    /// the trie, kept so [`FusedAutomaton::explain_admission`] can
    /// replay the walk and name the first failing edge.
    tests: Vec<Test>,
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
#[derive(Clone, Debug, Default)]
pub struct FusedAutomaton {
    /// Normalized optimizer names, in catalog (registration) order. The
    /// index into this vector is the optimizer id used everywhere below.
    names: Vec<String>,
    /// `Some` for optimizers with a narrowing anchor filter; `None` for
    /// the rest (loop anchors, unbounded opcodes) — those fall down the
    /// ladder.
    fused: Vec<Option<FusedEntry>>,
    /// Trie nodes; roots are reached through `root`.
    nodes: Vec<Node>,
    /// Opcode bucket at the root: `gospel_name` key → node.
    root: HashMap<&'static str, usize>,
    /// Mask words per statement slot (`ceil(names.len() / 64)`).
    words: usize,
    /// Per-statement admission masks, `words` words per `StmtId` slot —
    /// the reverse record `remove` needs.
    masks: Vec<u64>,
    /// Per-optimizer posting lists (unordered; the searcher restores
    /// program order through `DepGraph::order_of`).
    postings: Vec<Vec<StmtId>>,
    /// Trie states created by builds (drained by the driver into the
    /// `search.fused.states` counter).
    stat_states: u64,
    /// Trie nodes visited by classification walks since the last drain
    /// (`search.fused.visits`).
    stat_visits: u64,
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

impl FusedAutomaton {
    /// Compiles the catalog's anchor clauses into one trie and classifies
    /// every statement of `prog` against it.
    pub fn build(optimizers: &[CompiledOptimizer], prog: &Program) -> FusedAutomaton {
        Self::build_refs(&optimizers.iter().collect::<Vec<_>>(), prog)
    }

    /// [`FusedAutomaton::build`] over borrowed optimizers — the audit
    /// path reassembles the catalog in automaton order without cloning.
    pub fn build_refs(optimizers: &[&CompiledOptimizer], prog: &Program) -> FusedAutomaton {
        let mut auto = FusedAutomaton {
            words: optimizers.len().div_ceil(64).max(1),
            ..FusedAutomaton::default()
        };
        for &opt in optimizers {
            auto.names.push(normalize(&opt.name));
            let filter = opt
                .patterns
                .first()
                .filter(|(_, ty)| *ty == ElemType::Stmt)
                .and_then(|(c, _)| c.vars.first().map(|v| anchor_filter(c, v)))
                .filter(AnchorFilter::narrows);
            let id = auto.names.len() - 1;
            match filter {
                Some(f) => {
                    let (opcodes, tests) = auto.insert_filter(id, &f);
                    auto.fused.push(Some(FusedEntry {
                        exact: f.exact,
                        opcodes,
                        tests,
                    }));
                }
                None => auto.fused.push(None),
            }
            auto.postings.push(Vec::new());
        }
        auto.reclassify(prog);
        auto
    }

    /// Threads one optimizer's filter into the trie: one chain of class
    /// tests (sorted canonically) under each of its opcode buckets.
    /// Returns the bucket keys and the canonical chain for the
    /// optimizer's [`FusedEntry`].
    fn insert_filter(
        &mut self,
        id: usize,
        filter: &AnchorFilter,
    ) -> (Vec<&'static str>, Vec<Test>) {
        let mut tests: Vec<Test> = filter
            .classes
            .iter()
            .map(|&(pos, cls, positive)| Test { pos, cls, positive })
            .collect();
        tests.sort_unstable_by_key(test_rank);
        tests.dedup();
        let keys = filter.opcodes.clone().unwrap_or_default();
        for key in &keys {
            let key = *key;
            let mut cur = match self.root.get(key) {
                Some(&n) => n,
                None => {
                    let n = self.fresh_node();
                    self.root.insert(key, n);
                    n
                }
            };
            for t in &tests {
                cur = match self.nodes[cur].edges.iter().find(|(e, _)| e == t) {
                    Some(&(_, child)) => child,
                    None => {
                        let child = self.fresh_node();
                        self.nodes[cur].edges.push((*t, child));
                        child
                    }
                };
            }
            if !self.nodes[cur].outputs.contains(&id) {
                self.nodes[cur].outputs.push(id);
            }
        }
        (keys, tests)
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
        let entry = self.fused[id].as_ref().expect("opt_id implies fused");
        let got = quad.op.gospel_name();
        if !entry.opcodes.contains(&got) {
            return AdmissionVerdict::OpcodeMiss {
                got,
                expected: &entry.opcodes,
            };
        }
        let cls = [class_of(&quad.dst), class_of(&quad.a), class_of(&quad.b)];
        for t in &entry.tests {
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

    fn fresh_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.stat_states += 1;
        self.nodes.len() - 1
    }

    /// Number of trie states.
    pub fn states(&self) -> usize {
        self.nodes.len()
    }

    /// The normalized optimizer names the automaton was built over, in
    /// catalog order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The id of `name` *when it is fused* — `None` for unknown names and
    /// for registered-but-not-fused optimizers (the ladder falls through
    /// for those).
    pub fn opt_id(&self, name: &str) -> Option<usize> {
        let key = normalize(name);
        let id = self.names.iter().position(|n| *n == key)?;
        self.fused[id].is_some().then_some(id)
    }

    /// True when the automaton was built over exactly `names` (normalized,
    /// in order) — the session's staleness check against the registered
    /// catalog.
    pub fn covers(&self, names: &[String]) -> bool {
        self.names == names
    }

    /// The admission posting of fused optimizer `id`, unordered.
    pub fn posting(&self, id: usize) -> &[StmtId] {
        &self.postings[id]
    }

    /// Whether `id`'s admission equals format satisfaction.
    pub fn exact(&self, id: usize) -> bool {
        self.fused[id].as_ref().is_some_and(|f| f.exact)
    }

    /// Drains the accumulated (states-built, trie-visits) statistics.
    pub fn take_stats(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.stat_states),
            std::mem::take(&mut self.stat_visits),
        )
    }

    /// One trie walk: the admission mask of a quad — bit `id` set iff
    /// fused optimizer `id` admits the statement.
    fn classify(&mut self, quad: &Quad) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        let Some(&start) = self.root.get(quad.op.gospel_name()) else {
            return mask;
        };
        let cls = [
            class_of(&quad.dst),
            class_of(&quad.a),
            class_of(&quad.b),
        ];
        let mut stack = vec![start];
        while let Some(n) = stack.pop() {
            self.stat_visits += 1;
            for &o in &self.nodes[n].outputs {
                mask[o / 64] |= 1u64 << (o % 64);
            }
            for &(t, child) in &self.nodes[n].edges {
                if t.passes(&cls) {
                    stack.push(child);
                }
            }
        }
        mask
    }

    /// Classifies one live statement and lists it in the admitted
    /// postings.
    fn insert(&mut self, id: StmtId, quad: &Quad) {
        let mask = self.classify(quad);
        let base = id.index() * self.words;
        for (w, &m) in mask.iter().enumerate() {
            self.masks[base + w] = m;
            let mut bits = m;
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
    /// unchanged trie.
    pub fn reclassify(&mut self, prog: &Program) {
        self.masks.clear();
        self.masks.resize(prog.id_bound() * self.words, 0);
        for p in &mut self.postings {
            p.clear();
        }
        for s in prog.iter() {
            self.insert(s, prog.quad(s));
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
                self.insert(id, prog.quad(id));
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
        self.names == other.names
            && self.fused.iter().map(|f| f.as_ref().map(|e| e.exact)).collect::<Vec<_>>()
                == other.fused.iter().map(|f| f.as_ref().map(|e| e.exact)).collect::<Vec<_>>()
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
