//! Top-level analysis driver assembling the dependence graph.

use crate::arrays::array_deps_filtered;
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

    let mut edges = scalar_deps_filtered(prog, &cfg, &loops, &order, None);
    edges.extend(array_deps_filtered(prog, &loops, &order, None));
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

/// Deterministic order and deduplication — shared by the full analysis and
/// the incremental update so the two paths produce bit-identical edge
/// lists. Keys are computed once per edge, not once per comparison; the
/// sort may be unstable because edges equal under the order are equal
/// outright, and `dedup` keeps one.
pub(crate) fn sort_and_dedup(order: &[u32], edges: &mut Vec<DepEdge>) {
    let mut keyed: Vec<(u128, DepEdge)> =
        edges.drain(..).map(|e| (edge_key(order, &e), e)).collect();
    keyed.sort_unstable_by(|(ka, a), (kb, b)| ka.cmp(kb).then_with(|| dir_cmp(a, b)));
    edges.extend(keyed.into_iter().map(|(_, e)| e));
    edges.dedup();
}

/// Merges freshly derived edges into an already-sorted retained list.
///
/// The incremental update drops dirty-symbol edges with a `retain` (which
/// preserves the canonical order: non-structural edits shift program
/// positions monotonically, so surviving pairs keep their relative
/// order), then re-derives only the dirty symbols. Sorting just the small
/// fresh batch and merging beats re-sorting the whole edge list.
pub(crate) fn merge_sorted(order: &[u32], edges: &mut Vec<DepEdge>, mut fresh: Vec<DepEdge>) {
    sort_and_dedup(order, &mut fresh);
    let retained = std::mem::take(edges);
    edges.reserve(retained.len() + fresh.len());
    let mut fresh = fresh.into_iter().peekable();
    for x in retained {
        let kx = edge_key(order, &x);
        while let Some(y) = fresh.next_if(|y| {
            edge_key(order, y)
                .cmp(&kx)
                .then_with(|| dir_cmp(y, &x))
                .is_lt()
        }) {
            edges.push(y);
        }
        edges.push(x);
    }
    edges.extend(fresh);
    edges.dedup();
}
