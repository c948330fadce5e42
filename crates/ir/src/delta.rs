//! Structured edit deltas over a [`Program`].
//!
//! An [`EditDelta`] is both things the driver hot loop needs from one
//! batch of transformation primitives:
//!
//! * a **change summary** the dependence analyzer can consume to update a
//!   `DepGraph` incrementally instead of recomputing it from scratch
//!   (which statements were added/removed/moved, which operands changed,
//!   and whether the loop/branch *structure* was touched at all), and
//! * an **undo journal**: every recorded operation stores enough of the
//!   pre-edit state ([`Program::delete`] keeps the dead slot's quad, so a
//!   delete only needs its old predecessor) to replay the batch in
//!   reverse, which lets the driver mutate the program in place and still
//!   roll back a failed action list — no whole-program scratch clone.
//!
//! The delta records edits by *performing* them: call
//! [`EditDelta::delete`] instead of [`Program::delete`] and so on, and
//! the journal can never disagree with the program.

use crate::{Opcode, Operand, OperandPos, Program, Quad, StmtId};

/// One journaled transformation primitive, with the pre-edit state its
/// undo needs.
#[derive(Clone, Debug)]
pub enum EditOp {
    /// `add`/`copy`: a fresh statement was inserted.
    Insert {
        /// The new statement.
        id: StmtId,
    },
    /// `delete`: the statement was unlinked (its slot retains the quad).
    Delete {
        /// The deleted statement.
        id: StmtId,
        /// Its predecessor at deletion time (`None` = it was first).
        prev: Option<StmtId>,
        /// Snapshot of the deleted quad, for dirty-symbol extraction
        /// after the fact (the dead slot cannot be queried).
        quad: Quad,
    },
    /// `move`: the statement was relinked elsewhere.
    Move {
        /// The moved statement.
        id: StmtId,
        /// Its predecessor before the move.
        old_prev: Option<StmtId>,
    },
    /// `modify`: one operand was replaced.
    Modify {
        /// The modified statement.
        id: StmtId,
        /// Which operand slot.
        pos: OperandPos,
        /// The operand it held before.
        old: Operand,
    },
}

impl EditOp {
    /// The statement this operation touched.
    pub fn stmt(&self) -> StmtId {
        match self {
            EditOp::Insert { id }
            | EditOp::Delete { id, .. }
            | EditOp::Move { id, .. }
            | EditOp::Modify { id, .. } => *id,
        }
    }
}

/// A journal of transformation primitives applied to one program, usable
/// as a change summary for incremental dependence maintenance and as an
/// undo log. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct EditDelta {
    ops: Vec<EditOp>,
    structural: bool,
}

/// True for opcodes that shape the CFG and loop structure: inserting,
/// deleting or relocating one invalidates loop nests and direction
/// vectors wholesale, not just the edges of the touched variables.
fn is_structural(op: Opcode) -> bool {
    op.is_loop_head() || op.is_if() || matches!(op, Opcode::EndDo | Opcode::Else | Opcode::EndIf)
}

impl EditDelta {
    /// An empty delta.
    pub fn new() -> EditDelta {
        EditDelta::default()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of recorded operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// The journal, in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// True when the batch touched control structure (loop or branch
    /// markers added, removed or relocated, or a loop header's control
    /// variable rewritten). Incremental dependence maintenance must then
    /// look past the edited statements, at every statement whose
    /// enclosing structure changed.
    pub fn requires_full(&self) -> bool {
        self.structural
    }

    // ---- journaling editors -----------------------------------------------

    /// GOSpeL `add` through the journal; see [`Program::insert_after`].
    pub fn insert_after(
        &mut self,
        prog: &mut Program,
        after: Option<StmtId>,
        quad: Quad,
    ) -> StmtId {
        self.structural |= is_structural(quad.op);
        let id = prog.insert_after(after, quad);
        self.ops.push(EditOp::Insert { id });
        id
    }

    /// GOSpeL `copy` through the journal; see [`Program::copy_after`].
    pub fn copy_after(&mut self, prog: &mut Program, id: StmtId, after: Option<StmtId>) -> StmtId {
        self.structural |= is_structural(prog.quad(id).op);
        let c = prog.copy_after(id, after);
        self.ops.push(EditOp::Insert { id: c });
        c
    }

    /// GOSpeL `delete` through the journal; see [`Program::delete`].
    pub fn delete(&mut self, prog: &mut Program, id: StmtId) {
        let quad = prog.quad(id).clone();
        self.structural |= is_structural(quad.op);
        let prev = prog.prev(id);
        prog.delete(id);
        self.ops.push(EditOp::Delete { id, prev, quad });
    }

    /// GOSpeL `move` through the journal; see [`Program::move_after`].
    ///
    /// # Panics
    ///
    /// Panics if `after == Some(id)` (as [`Program::move_after`] does).
    pub fn move_after(&mut self, prog: &mut Program, id: StmtId, after: Option<StmtId>) {
        self.structural |= is_structural(prog.quad(id).op);
        let old_prev = prog.prev(id);
        prog.move_after(id, after);
        self.ops.push(EditOp::Move { id, old_prev });
    }

    /// GOSpeL `modify` through the journal; see [`Program::modify`].
    pub fn modify(&mut self, prog: &mut Program, id: StmtId, pos: OperandPos, operand: Operand) {
        // Rewriting a loop header's *control variable* changes the
        // induction structure direction vectors are keyed on — that is
        // structural. Bound rewrites (A/B) only change trip counts, which
        // feed nothing but the array subscript tests; the incremental
        // analyzer repairs those by re-testing the array pairs the loop's
        // bounds govern.
        self.structural |= prog.quad(id).op.is_loop_head() && pos == OperandPos::Dst;
        let old = prog.quad(id).operand(pos).clone();
        prog.modify(id, pos, operand);
        self.ops.push(EditOp::Modify { id, pos, old });
    }

    // ---- undo --------------------------------------------------------------

    /// Replays the journal in reverse, restoring the program to the state
    /// it had when this delta was created. Consumes the delta.
    ///
    /// Each inverse runs against exactly the program state that existed
    /// just after its forward op, so the recorded predecessors are live
    /// by construction.
    pub fn undo(self, prog: &mut Program) {
        for op in self.ops.into_iter().rev() {
            match op {
                EditOp::Insert { id } => prog.delete(id),
                EditOp::Delete { id, prev, .. } => prog.restore(id, prev),
                EditOp::Move { id, old_prev } => prog.move_after(id, old_prev),
                EditOp::Modify { id, pos, old } => prog.modify(id, pos, old),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{VarKind, VarType};

    fn prog3() -> (Program, Vec<StmtId>) {
        let mut p = Program::new("t");
        let x = p.declare("x", VarType::Int, VarKind::Scalar);
        let ids = vec![
            p.push(Quad::assign(Operand::Var(x), Operand::int(1))),
            p.push(Quad::assign(Operand::Var(x), Operand::int(2))),
            p.push(Quad::assign(Operand::Var(x), Operand::int(3))),
        ];
        (p, ids)
    }

    fn listing(p: &Program) -> Vec<Quad> {
        p.iter().map(|s| p.quad(s).clone()).collect()
    }

    #[test]
    fn undo_restores_after_every_primitive() {
        let (mut p, ids) = prog3();
        let before = listing(&p);
        let mut d = EditDelta::new();
        d.delete(&mut p, ids[1]);
        d.modify(&mut p, ids[0], OperandPos::A, Operand::int(99));
        let dst = p.quad(ids[0]).dst.clone();
        let n = d.insert_after(&mut p, Some(ids[2]), Quad::assign(dst, Operand::int(7)));
        d.move_after(&mut p, ids[0], Some(n));
        d.copy_after(&mut p, ids[2], None);
        assert_eq!(d.len(), 5);
        assert!(!d.is_empty());
        d.undo(&mut p);
        assert_eq!(listing(&p), before);
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().collect::<Vec<_>>(), ids);
    }

    #[test]
    fn undo_handles_interleaved_deletes() {
        // Delete a statement, then its recorded predecessor: the reverse
        // replay restores the predecessor first, so the anchor is live.
        let (mut p, ids) = prog3();
        let before = listing(&p);
        let mut d = EditDelta::new();
        d.delete(&mut p, ids[1]); // prev = ids[0]
        d.delete(&mut p, ids[0]); // prev = None
        d.undo(&mut p);
        assert_eq!(listing(&p), before);
    }

    #[test]
    fn structural_flag_tracks_markers_and_headers() {
        let (mut p, ids) = prog3();
        let mut d = EditDelta::new();
        d.modify(&mut p, ids[0], OperandPos::A, Operand::int(5));
        assert!(!d.requires_full(), "plain operand rewrite is incremental");

        let mut d2 = EditDelta::new();
        d2.insert_after(&mut p, Some(ids[2]), Quad::marker(Opcode::EndDo));
        assert!(d2.requires_full(), "marker insertion is structural");

        // A loop-header *bound* modify is incremental (trip counts feed
        // only the array layer); rewriting the control variable itself is
        // structural.
        let mut p2 = Program::new("loopy");
        let i = p2.declare("i", VarType::Int, VarKind::Scalar);
        let j = p2.declare("j", VarType::Int, VarKind::Scalar);
        let head = p2.push(Quad::new(
            Opcode::DoHead,
            Operand::Var(i),
            Operand::int(1),
            Operand::int(10),
        ));
        p2.push(Quad::marker(Opcode::EndDo));
        let mut d3 = EditDelta::new();
        d3.modify(&mut p2, head, OperandPos::B, Operand::int(20));
        assert!(!d3.requires_full(), "bound rewrite is incremental");
        let mut d4 = EditDelta::new();
        d4.modify(&mut p2, head, OperandPos::Dst, Operand::Var(j));
        assert!(d4.requires_full(), "control-variable rewrite is structural");
    }

    #[test]
    fn ops_expose_touched_statements() {
        let (mut p, ids) = prog3();
        let mut d = EditDelta::new();
        d.delete(&mut p, ids[1]);
        d.modify(&mut p, ids[2], OperandPos::A, Operand::int(4));
        let touched: Vec<StmtId> = d.ops().iter().map(EditOp::stmt).collect();
        assert_eq!(touched, vec![ids[1], ids[2]]);
        match &d.ops()[0] {
            EditOp::Delete { prev, quad, .. } => {
                assert_eq!(*prev, Some(ids[0]));
                assert_eq!(quad.a, Operand::int(2));
            }
            other => panic!("expected Delete, got {other:?}"),
        }
    }
}
