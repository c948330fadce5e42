//! Bit-vector dataflow: reaching definitions and reaching uses over the
//! statement-level CFG.
//!
//! Every table here is dense. Accesses are numbered in program order, so
//! the accesses of one statement are a contiguous index range, and the
//! per-variable access lists are compressed rows indexed by
//! [`Sym::index`]. Transfer facts are stored flat in program order, so the
//! worklist visits the same nodes in the same order on every run.

use crate::query::Csr;
use gospel_ir::{Cfg, Operand, OperandPos, Program, StmtId, Sym};

/// One scalar access (a definition site or a use site).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The statement.
    pub stmt: StmtId,
    /// The scalar variable.
    pub var: Sym,
    /// The operand position of the access.
    pub pos: OperandPos,
}

/// Scalar access tables for one program snapshot.
#[derive(Clone, Debug)]
pub struct Accesses {
    /// All scalar definition sites, in program order.
    pub defs: Vec<Access>,
    /// All scalar use sites, in program order.
    pub uses: Vec<Access>,
    /// Access indices grouped by [`Sym::index`], each row in program order.
    defs_of_var: Csr,
    uses_of_var: Csr,
}

impl Accesses {
    /// Collects the scalar accesses of `prog`. Array element reads/writes
    /// are handled by the subscript tests, but their *subscript variables*
    /// count as scalar uses here.
    #[cfg(test)]
    pub fn collect(prog: &Program) -> Accesses {
        Accesses::collect_where(prog, |_| true)
    }

    /// Like [`Accesses::collect`], restricted to variables accepted by
    /// `keep`. The reaching-defs/uses transfer functions are per-variable
    /// (a definition of `v` generates/kills only `v`'s bits), so the
    /// dataflow facts computed from a restricted table are *identical* to
    /// the corresponding facts of the full table — which is what makes
    /// the incremental dependence update exact.
    pub fn collect_where(prog: &Program, keep: impl Fn(Sym) -> bool) -> Accesses {
        let mut defs = Vec::new();
        let mut uses = Vec::new();
        let mut sub_vars: Vec<Sym> = Vec::new();
        for stmt in prog.iter() {
            let quad = prog.quad(stmt);
            // Definition: scalar destination only, so at most one per
            // statement.
            if let Some(Operand::Var(v)) = quad.def_operand() {
                if keep(*v) {
                    defs.push(Access {
                        stmt,
                        var: *v,
                        pos: OperandPos::Dst,
                    });
                }
            }
            // Uses: scalar operands in used positions, plus subscript
            // variables of element operands in *any* position.
            for &pos in quad.used_positions() {
                match quad.operand(pos) {
                    Operand::Var(v) if keep(*v) => uses.push(Access { stmt, var: *v, pos }),
                    e @ Operand::Elem { .. } => {
                        e.subscript_vars(&mut sub_vars);
                        for &var in sub_vars.iter().filter(|&&v| keep(v)) {
                            uses.push(Access { stmt, var, pos });
                        }
                    }
                    _ => {}
                }
            }
            if let Some(e @ Operand::Elem { .. }) = quad.def_operand() {
                e.subscript_vars(&mut sub_vars);
                for &var in sub_vars.iter().filter(|&&v| keep(v)) {
                    uses.push(Access {
                        stmt,
                        var,
                        pos: OperandPos::Dst,
                    });
                }
            }
        }
        let nsyms = prog.syms().len();
        Accesses {
            defs_of_var: Csr::build(nsyms, &defs, |a| a.var.index()),
            uses_of_var: Csr::build(nsyms, &uses, |a| a.var.index()),
            defs,
            uses,
        }
    }

    /// Definition indices of `v`, in program order.
    pub fn defs_of(&self, v: Sym) -> &[u32] {
        self.defs_of_var.row(v.index())
    }

    /// Use indices of `v`, in program order.
    pub fn uses_of(&self, v: Sym) -> &[u32] {
        self.uses_of_var.row(v.index())
    }
}

/// Per-node bit sets stored flat: one allocation for the whole CFG
/// (node `i`'s set is `words[i*stride..(i+1)*stride]`), not one per
/// node. This runs twice per incremental update, so the allocation
/// count matters.
#[derive(Clone, Debug)]
pub struct FlowSets {
    stride: usize,
    words: Vec<u64>,
}

impl FlowSets {
    fn new(n: usize, nbits: usize) -> FlowSets {
        let stride = nbits.div_ceil(64);
        FlowSets {
            stride,
            words: vec![0; n * stride],
        }
    }

    /// Appends an empty set; returns its index.
    fn push_row(&mut self) -> usize {
        self.words.resize(self.words.len() + self.stride, 0);
        self.words.len() / self.stride - 1
    }

    fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    fn row_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Sets `bit` in node `i`'s set.
    fn insert(&mut self, i: usize, bit: usize) {
        self.row_mut(i)[bit / 64] |= 1 << (bit % 64);
    }

    /// Tests `bit` in node `i`'s set.
    pub fn contains(&self, i: usize, bit: usize) -> bool {
        self.row(i)
            .get(bit / 64)
            .is_some_and(|w| w & (1 << (bit % 64)) != 0)
    }

    /// Iterates the set bits of node `i`'s set, ascending.
    #[cfg(test)]
    pub fn iter(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let b = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    wi * 64 + b
                })
            })
        })
    }
}

/// Reaching definitions and reaching uses, solved together as one
/// forward may-dataflow over a combined bit universe: definition `d` is
/// bit `d`, use `u` is bit `defs.len() + u`. The two problems share the
/// CFG and are independent bit by bit, so one fixpoint yields both.
///
/// * Reaching definitions: which scalar definitions may reach each node.
///   A definition of `v` kills all other definitions of `v`.
/// * Reaching uses: which scalar uses may reach each node without the
///   used variable being redefined in between (the substrate for anti
///   dependences). A definition of `v` kills all uses of `v`.
#[derive(Clone, Debug)]
pub struct Reaching {
    /// `IN[node]` sets.
    pub ins: FlowSets,
    /// `OUT[node]` sets.
    pub outs: FlowSets,
    ndefs: usize,
}

impl Reaching {
    /// The bit of definition `d`.
    pub fn def_bit(&self, d: u32) -> usize {
        d as usize
    }

    /// The bit of use `u`.
    pub fn use_bit(&self, u: u32) -> usize {
        self.ndefs + u as usize
    }

    /// Definitions reaching node `i`, by definition index.
    #[cfg(test)]
    pub fn defs_in(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.ins.iter(i).filter(|&b| b < self.ndefs)
    }

    /// Uses reaching node `i`, by use index.
    #[cfg(test)]
    pub fn uses_in(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.ins.iter(i).filter_map(|b| b.checked_sub(self.ndefs))
    }
}

/// An empty `u32` slot: no definition, no kill row, no row assigned.
const NONE: u32 = u32::MAX;

/// The transfer function of one CFG node: `OUT = (IN & !kill) | gen`.
/// `gen` is the node's own accesses — at most one definition plus a
/// contiguous range of uses (accesses are numbered in program order) —
/// and `kill` is a row of the per-variable kill masks: every access of
/// the one scalar the node defines.
#[derive(Clone, Copy, Debug)]
struct Fact {
    node: u32,
    /// The definition's bit, or `NONE` when the node defines no scalar.
    def_bit: u32,
    use_lo: u32,
    use_hi: u32,
    kill: u32,
}

impl Fact {
    fn gen(&self, mut set: impl FnMut(usize)) {
        if self.def_bit != NONE {
            set(self.def_bit as usize);
        }
        for bit in self.use_lo..self.use_hi {
            set(bit as usize);
        }
    }
}

/// Solves [`Reaching`] for the accesses in `acc`.
pub fn reaching(cfg: &Cfg, acc: &Accesses, nsyms: usize) -> Reaching {
    let nd = acc.defs.len();
    let nbits = nd + acc.uses.len();
    // Bits and node indices are stored as `u32` below.
    u32::try_from(nbits.max(cfg.len())).expect("access and node counts fit in u32");
    // One kill row per defined variable: all its definitions and uses.
    let mut kills = FlowSets::new(0, nbits);
    let mut row_of = vec![NONE; nsyms];
    let mut facts: Vec<Fact> = Vec::new();
    let node_of = |a: Option<&Access>| a.map_or(usize::MAX, |a| cfg.node_of(a.stmt));
    // Merge the two program-ordered access lists node by node.
    let (mut d, mut u) = (0, 0);
    while d < nd || u < acc.uses.len() {
        let node = node_of(acc.defs.get(d)).min(node_of(acc.uses.get(u)));
        let use_lo = nd + u;
        while node_of(acc.uses.get(u)) == node {
            u += 1;
        }
        let (mut def_bit, mut kill) = (NONE, NONE);
        if node_of(acc.defs.get(d)) == node {
            let var = acc.defs[d].var;
            if row_of[var.index()] == NONE {
                let row = kills.push_row();
                for &o in acc.defs_of(var) {
                    kills.insert(row, o as usize);
                }
                for &o in acc.uses_of(var) {
                    kills.insert(row, nd + o as usize);
                }
                row_of[var.index()] = u32::try_from(row).expect("row count fits in u32");
            }
            def_bit = d as u32; // the kill row includes it; gen puts it back
            kill = row_of[var.index()];
            d += 1;
        }
        facts.push(Fact {
            node: node as u32,
            def_bit,
            use_lo: use_lo as u32,
            use_hi: (nd + u) as u32,
            kill,
        });
    }
    let (ins, outs) = forward_may(cfg, nbits, &facts, &kills);
    Reaching {
        ins,
        outs,
        ndefs: nd,
    }
}

/// Worklist fixpoint over the sparse transfer facts (every unlisted node
/// passes its input through unchanged). Seeded from the fact nodes'
/// successors, so when the incremental update restricts the access
/// tables to a few dirty variables only the propagation cone of those
/// accesses is visited — not every node per round as with a
/// round-robin schedule. The fixpoint reached is the same.
fn forward_may(cfg: &Cfg, nbits: usize, facts: &[Fact], kills: &FlowSets) -> (FlowSets, FlowSets) {
    let n = cfg.len();
    let mut ins = FlowSets::new(n, nbits);
    let mut outs = FlowSets::new(n, nbits);
    let stride = ins.stride;
    if n == 0 || stride == 0 || facts.is_empty() {
        return (ins, outs);
    }
    let mut fact_of = vec![u32::MAX; n];
    for (fi, f) in facts.iter().enumerate() {
        fact_of[f.node as usize] = u32::try_from(fi).expect("fact count fits in u32");
        // IN starts empty, so OUT starts at gen.
        f.gen(|bit| outs.insert(f.node as usize, bit));
    }
    // Pending nodes as a bitset, always visiting the lowest-numbered
    // first: nodes are in program order, so for structured code this is
    // the reverse-postorder schedule, which needs the fewest visits.
    let mut pending = vec![0u64; n.div_ceil(64)];
    let mut first = usize::MAX; // lowest word that may hold a pending node
    let mark = |pending: &mut [u64], first: &mut usize, s: usize| {
        pending[s / 64] |= 1 << (s % 64);
        *first = (*first).min(s / 64);
    };
    for f in facts {
        for &s in cfg.succs(f.node as usize) {
            mark(&mut pending, &mut first, s);
        }
    }
    let mut scratch = vec![0u64; stride];
    while let Some(w) = pending.get(first..).and_then(|rest| rest.iter().position(|&w| w != 0)) {
        first += w;
        let i = first * 64 + pending[first].trailing_zeros() as usize;
        pending[first] &= pending[first] - 1;
        scratch.fill(0);
        for &p in cfg.preds(i) {
            for (a, b) in scratch.iter_mut().zip(outs.row(p)) {
                *a |= *b;
            }
        }
        if scratch == ins.row(i) {
            continue; // IN unchanged, so OUT is already consistent
        }
        ins.row_mut(i).copy_from_slice(&scratch);
        if let Some(f) = facts.get(fact_of[i] as usize) {
            if f.kill != NONE {
                for (w, k) in scratch.iter_mut().zip(kills.row(f.kill as usize)) {
                    *w &= !k;
                }
            }
            f.gen(|bit| scratch[bit / 64] |= 1 << (bit % 64));
        }
        if scratch != outs.row(i) {
            outs.row_mut(i).copy_from_slice(&scratch);
            for &s in cfg.succs(i) {
                mark(&mut pending, &mut first, s);
            }
        }
    }
    (ins, outs)
}

/// Reusable visited marks and stack for [`Exposure::exposed_from_head`],
/// one per analysis. Marks are epoch-stamped, so a check costs the nodes
/// it visits, not a fresh `O(|cfg|)` buffer.
pub struct Exposure {
    mark: Vec<u32>,
    epoch: u32,
    stack: Vec<usize>,
}

impl Exposure {
    /// Buffers for a CFG of `n` nodes.
    pub fn new(n: usize) -> Exposure {
        Exposure {
            mark: vec![0; n],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// True if there is a path from the first statement of the loop body
    /// after `head_node` to `target` along which `is_kill` never fires
    /// *before* reaching the target. Searches only forward CFG edges that
    /// stay inside the body region (node indices in `(head_node,
    /// end_node]`), ignoring the back edge.
    ///
    /// Used to decide whether an access at `target` is exposed to values
    /// that arrive at the loop header — the sink-side condition for a
    /// loop-carried dependence.
    pub fn exposed_from_head(
        &mut self,
        cfg: &Cfg,
        head_node: usize,
        end_node: usize,
        target: usize,
        is_kill: impl Fn(usize) -> bool,
    ) -> bool {
        if target <= head_node || target > end_node {
            return false;
        }
        if self.epoch == u32::MAX {
            self.mark.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.stack.clear();
        self.stack.push(head_node + 1);
        while let Some(n) = self.stack.pop() {
            if n == target {
                return true;
            }
            if n <= head_node || n > end_node || self.mark[n] == self.epoch {
                continue;
            }
            self.mark[n] = self.epoch;
            if is_kill(n) {
                continue; // the value is clobbered here; don't look past it
            }
            for &s in cfg.succs(n) {
                if s > n || s == target {
                    self.stack.push(s); // forward edges only (skip back edges)
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_frontend::compile;

    #[test]
    fn flow_sets_iterate_set_bits_in_order() {
        let mut f = FlowSets::new(2, 130);
        for bit in [0, 64, 129] {
            f.insert(1, bit);
        }
        assert!(f.contains(1, 129));
        assert!(!f.contains(1, 128));
        assert!(!f.contains(0, 0));
        assert_eq!(f.iter(1).collect::<Vec<_>>(), vec![0, 64, 129]);
        assert_eq!(f.iter(0).count(), 0);
    }

    #[test]
    fn per_variable_rows_list_accesses_in_program_order() {
        let p = compile("program p\ninteger x, y\nx = 1\ny = x\nx = y + x\nend").unwrap();
        let acc = Accesses::collect(&p);
        let x = p.syms().lookup("x").unwrap();
        let y = p.syms().lookup("y").unwrap();
        let stmts = |rows: &[u32], list: &[Access]| -> Vec<StmtId> {
            rows.iter().map(|&i| list[i as usize].stmt).collect()
        };
        let order: Vec<StmtId> = p.iter().collect();
        assert_eq!(stmts(acc.defs_of(x), &acc.defs), vec![order[0], order[2]]);
        assert_eq!(stmts(acc.uses_of(x), &acc.uses), vec![order[1], order[2]]);
        assert_eq!(stmts(acc.defs_of(y), &acc.defs), vec![order[1]]);
        assert_eq!(stmts(acc.uses_of(y), &acc.uses), vec![order[2]]);
    }

    #[test]
    fn collects_scalar_accesses() {
        let p = compile("program p\ninteger i\nreal a(10), x\nx = a(i) + x\nend").unwrap();
        let acc = Accesses::collect(&p);
        // defs: x ; uses: i (subscript), x
        assert_eq!(acc.defs.len(), 1);
        let use_vars: Vec<&str> = acc
            .uses
            .iter()
            .map(|u| p.syms().name(u.var))
            .collect();
        assert!(use_vars.contains(&"i"));
        assert!(use_vars.contains(&"x"));
    }

    #[test]
    fn reaching_def_killed_by_redefinition() {
        let p = compile("program p\ninteger x, y\nx = 1\nx = 2\ny = x\nend").unwrap();
        let cfg = gospel_ir::Cfg::of(&p);
        let acc = Accesses::collect(&p);
        let r = reaching(&cfg, &acc, p.syms().len());
        // At node 2 (y = x) only the def from node 1 reaches.
        let in2: Vec<usize> = r.defs_in(2).collect();
        assert_eq!(in2.len(), 1);
        assert_eq!(acc.defs[in2[0]].stmt, cfg.nodes()[1]);
    }

    #[test]
    fn defs_flow_around_back_edge() {
        let p = compile(
            "program p\ninteger i, s\ns = 0\ndo i = 1, 10\ns = s + 1\nend do\nend",
        )
        .unwrap();
        let cfg = gospel_ir::Cfg::of(&p);
        let acc = Accesses::collect(&p);
        let r = reaching(&cfg, &acc, p.syms().len());
        // At the body statement (node 2), both the init def (node 0) and the
        // in-loop def (node 2 itself, around the back edge) reach.
        let in2: Vec<StmtId> = r.defs_in(2).map(|d| acc.defs[d].stmt).collect();
        assert!(in2.contains(&cfg.nodes()[0]));
        assert!(in2.contains(&cfg.nodes()[2]));
    }

    #[test]
    fn reaching_uses_killed_by_def() {
        let p = compile("program p\ninteger x, y\ny = x\nx = 1\nx = 2\nend").unwrap();
        let cfg = gospel_ir::Cfg::of(&p);
        let acc = Accesses::collect(&p);
        let r = reaching(&cfg, &acc, p.syms().len());
        // The use of x at node 0 reaches node 1 (x = 1) …
        assert!(r.uses_in(1).any(|u| acc.uses[u].stmt == cfg.nodes()[0]));
        // … but is killed before node 2 (x = 2).
        assert!(!r.uses_in(2).any(|u| acc.uses[u].stmt == cfg.nodes()[0]
            && p.syms().name(acc.uses[u].var) == "x"));
    }

    #[test]
    fn exposure_stops_at_kills() {
        // do i: x = 1 ; y = x  — the use of x at node 2 is NOT exposed to
        // the header because node 1 always redefines x first.
        let p = compile(
            "program p\ninteger i, x, y\ndo i = 1, 10\nx = 1\ny = x\nend do\nend",
        )
        .unwrap();
        let cfg = gospel_ir::Cfg::of(&p);
        // nodes: 0 do, 1 x=1, 2 y=x, 3 end do
        let x_sym = p.syms().lookup("x").unwrap();
        let kills_x = |n: usize| {
            p.quad(cfg.nodes()[n]).def_base() == Some(x_sym)
        };
        let mut ex = Exposure::new(cfg.len());
        assert!(!ex.exposed_from_head(&cfg, 0, 3, 2, kills_x));
        // node 1 itself is reachable without a prior kill
        assert!(ex.exposed_from_head(&cfg, 0, 3, 1, kills_x));
        // the marks of one check do not leak into the next
        assert!(!ex.exposed_from_head(&cfg, 0, 3, 2, kills_x));
    }
}
