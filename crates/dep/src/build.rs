//! Top-level analysis driver assembling the dependence graph.

use crate::arrays::array_deps;
use crate::control::{assert_no_directions, control_deps};
use crate::edge::DepEdge;
use crate::query::DepGraph;
use crate::scalars::scalar_deps_filtered;
use gospel_ir::{Cfg, LoopStructureError, LoopTable, Program, ValidateError};
use std::cmp::Ordering;
use std::fmt;

/// Error analyzing a program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The program failed structural validation.
    Invalid(ValidateError),
    /// Loop structure could not be recovered.
    Loops(LoopStructureError),
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::Invalid(e) => write!(f, "invalid program: {e}"),
            AnalyzeError::Loops(e) => write!(f, "loop structure: {e}"),
        }
    }
}

impl std::error::Error for AnalyzeError {}

impl From<ValidateError> for AnalyzeError {
    fn from(e: ValidateError) -> Self {
        AnalyzeError::Invalid(e)
    }
}

impl From<LoopStructureError> for AnalyzeError {
    fn from(e: LoopStructureError) -> Self {
        AnalyzeError::Loops(e)
    }
}

pub(crate) fn analyze(prog: &Program) -> Result<DepGraph, AnalyzeError> {
    gospel_ir::validate(prog)?;
    let cfg = Cfg::of(prog);
    let loops = LoopTable::of(prog)?;
    let order = dense_order(prog);

    let mut edges = scalar_deps_filtered(prog, &cfg, &loops, &order, None, |_, _| true);
    edges.extend(array_deps(prog, &loops, &order));
    let ctrl = control_deps(prog);
    assert_no_directions(&ctrl);
    edges.extend(ctrl);

    sort_and_dedup(&order, &mut edges);

    Ok(DepGraph::from_edges(prog, loops, edges, order))
}

/// Program order as a dense table indexed by [`StmtId::index`]
/// (`u32::MAX` = not live). Built once per analysis or update and handed
/// on to the [`DepGraph`] it produces.
///
/// [`StmtId::index`]: gospel_ir::StmtId::index
pub(crate) fn dense_order(prog: &Program) -> Vec<u32> {
    let mut order = vec![u32::MAX; prog.id_bound()];
    for (pos, s) in prog.iter().enumerate() {
        order[s.index()] = u32::try_from(pos).expect("program fits in u32");
    }
    order
}

/// The canonical edge order, all but the direction vector packed into one
/// integer: program position of the endpoints, then kind, variable and
/// operand slots.
fn edge_key(order: &[u32], e: &DepEdge) -> u128 {
    (u128::from(order[e.src.index()]) << 96)
        | (u128::from(order[e.dst.index()]) << 64)
        | ((e.kind as u128) << 40)
        | ((e.var.index() as u128) << 8)
        | ((e.src_pos.index() as u128) << 4)
        | e.dst_pos.index() as u128
}

/// Ties of [`edge_key`] break on the direction vector by its display
/// symbols, so they match the documented `<`/`=`/`>`/`*` lexicographic
/// convention.
fn dir_cmp(a: &DepEdge, b: &DepEdge) -> Ordering {
    a.dirvec
        .iter()
        .map(|d| d.symbol())
        .cmp(b.dirvec.iter().map(|d| d.symbol()))
}

/// Keys `edges` into `keyed` (cleared first) and sorts them into the
/// canonical order. Keys are computed once per edge, not once per
/// comparison; the sort may be unstable because edges equal under the
/// order are equal outright.
fn key_sorted(
    order: &[u32],
    keyed: &mut Vec<(u128, DepEdge)>,
    edges: impl Iterator<Item = DepEdge>,
) {
    keyed.clear();
    keyed.extend(edges.map(|e| (edge_key(order, &e), e)));
    keyed.sort_unstable_by(|(ka, a), (kb, b)| ka.cmp(kb).then_with(|| dir_cmp(a, b)));
}

/// Deterministic order and deduplication — shared by the full analysis and
/// the incremental update so the two paths produce bit-identical edge
/// lists.
pub(crate) fn sort_and_dedup(order: &[u32], edges: &mut Vec<DepEdge>) {
    let mut keyed = Vec::new();
    key_sorted(order, &mut keyed, edges.drain(..));
    edges.extend(keyed.into_iter().map(|(_, e)| e));
    edges.dedup();
}

/// Merges the freshly derived edges `fresh` (drained) into an
/// already-sorted retained list.
///
/// The incremental update drops stale edges in place, which preserves
/// the canonical order: edits that move no marker keep every surviving
/// statement's relative order, so surviving pairs keep theirs. Sorting
/// just the few fresh edges and merging beats re-sorting the whole edge
/// list. Each edge is keyed once. The merge writes into `spare` and swaps
/// it in, so `spare` comes back holding the old list's emptied buffer for
/// the next merge; `keyed` is a buffer for the sort.
pub(crate) fn merge_sorted(
    order: &[u32],
    edges: &mut Vec<DepEdge>,
    spare: &mut Vec<DepEdge>,
    fresh: &mut Vec<DepEdge>,
    keyed: &mut Vec<(u128, DepEdge)>,
) {
    key_sorted(order, keyed, fresh.drain(..));
    let mut fresh = keyed.drain(..).peekable();
    spare.clear();
    spare.reserve(edges.len() + fresh.len());
    for x in edges.drain(..) {
        let kx = edge_key(order, &x);
        while let Some((_, y)) =
            fresh.next_if(|(ky, y)| ky.cmp(&kx).then_with(|| dir_cmp(y, &x)).is_lt())
        {
            spare.push(y);
        }
        spare.push(x);
    }
    spare.extend(fresh.map(|(_, e)| e));
    spare.dedup();
    std::mem::swap(edges, spare);
}
