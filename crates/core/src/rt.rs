//! Runtime values and binding environments for specification evaluation.

use crate::resolve::{NameTable, Slot};
use gospel_ir::{LoopId, Opcode, Operand, OperandPos, StmtId};
use std::fmt;
use std::sync::Arc;

/// A runtime value a specification variable can hold while an optimizer
/// searches for (and acts on) an application point.
#[derive(Clone, Debug, PartialEq)]
pub enum RtVal {
    /// A statement.
    Stmt(StmtId),
    /// A loop (resolved against the dependence snapshot's loop table).
    Loop(LoopId),
    /// An operand value (what `Si.opr_2`, `L.init`, `operand(S, p)` yield).
    Operand(Operand),
    /// An opcode (what `Si.opc` yields).
    Opc(Opcode),
    /// An operand position bound by a `(var, pos)` dependence binding.
    Pos(OperandPos),
    /// A collected set from an `all` clause: statements with the position
    /// at which each matched (when the clause requested one).
    Set(Vec<(StmtId, Option<OperandPos>)>),
    /// An integer (literals in comparisons).
    Int(i64),
    /// A real literal.
    Real(f64),
    /// An unresolved bare name — an opcode spelling such as `assign` in
    /// `Si.opc == assign`.
    Name(String),
}

impl RtVal {
    /// The statement, if this value is one.
    pub fn as_stmt(&self) -> Option<StmtId> {
        match self {
            RtVal::Stmt(s) => Some(*s),
            _ => None,
        }
    }

    /// The loop, if this value is one.
    pub fn as_loop(&self) -> Option<LoopId> {
        match self {
            RtVal::Loop(l) => Some(*l),
            _ => None,
        }
    }

    /// The position, if this value is one (integer literals 1–3 coerce).
    pub fn as_pos(&self) -> Option<OperandPos> {
        match self {
            RtVal::Pos(p) => Some(*p),
            RtVal::Int(n) => OperandPos::from_index(usize::try_from(*n).ok()?),
            _ => None,
        }
    }

    /// The operand, if this value is one (numeric literals coerce to
    /// constants).
    pub fn as_operand(&self) -> Option<Operand> {
        match self {
            RtVal::Operand(o) => Some(o.clone()),
            RtVal::Int(n) => Some(Operand::int(*n)),
            RtVal::Real(r) => Some(Operand::real(*r)),
            _ => None,
        }
    }
}

/// A binding environment: one value slot per variable of a shared
/// name table, ordered by name. An optimizer resolves every variable
/// to its slot when it is generated, so its searcher binds and unbinds
/// slots in place and copies an environment only for a solution it
/// keeps. An environment made with [`Bindings::new`] starts with an
/// empty table and adds names as they are bound.
#[derive(Clone, Default)]
pub struct Bindings {
    names: Arc<NameTable>,
    vals: Vec<Option<RtVal>>,
}

impl Bindings {
    /// Empty environment.
    pub fn new() -> Bindings {
        Bindings::default()
    }

    /// An environment over `names` with every slot unbound.
    pub(crate) fn over(names: Arc<NameTable>) -> Bindings {
        Bindings {
            vals: vec![None; names.len()],
            names,
        }
    }

    /// Looks up a variable.
    pub fn get(&self, name: &str) -> Option<&RtVal> {
        self.names.slot(name).and_then(|s| self.vals[s].as_ref())
    }

    /// True if `name` is bound.
    pub fn is_bound(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Binds in place.
    pub fn set(&mut self, name: &str, val: RtVal) {
        let slot = match self.names.slot(name) {
            Some(s) => s,
            None => {
                let s = Arc::make_mut(&mut self.names).insert(name);
                self.vals.insert(s, None);
                s
            }
        };
        self.vals[slot] = Some(val);
    }

    /// Iterates bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RtVal)> + '_ {
        self.names
            .names()
            .zip(&self.vals)
            .filter_map(|(k, v)| v.as_ref().map(|v| (k, v)))
    }

    /// The bindings on one line, `name=value` pairs in name order — the
    /// format of `genesis-opt points` and of the `.matches` snapshots.
    pub fn line(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, (k, v)) in self.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{k}={v:?}");
        }
        out
    }

    /// The name table the slots index.
    pub(crate) fn table(&self) -> &NameTable {
        &self.names
    }

    /// Whether this environment's slots index `names`.
    pub(crate) fn is_over(&self, names: &Arc<NameTable>) -> bool {
        Arc::ptr_eq(&self.names, names)
    }

    /// The value in `slot`.
    pub(crate) fn slot(&self, slot: Slot) -> Option<&RtVal> {
        self.vals[slot].as_ref()
    }

    /// Unbinds every slot.
    pub(crate) fn clear(&mut self) {
        self.vals.fill(None);
    }

    /// Replaces the value in `slot`, returning the previous one.
    pub(crate) fn put(&mut self, slot: Slot, val: Option<RtVal>) -> Option<RtVal> {
        std::mem::replace(&mut self.vals[slot], val)
    }
}

impl PartialEq for Bindings {
    fn eq(&self, other: &Bindings) -> bool {
        if Arc::ptr_eq(&self.names, &other.names) {
            return self.vals == other.vals;
        }
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Bindings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Map<'a>(&'a Bindings);
        impl fmt::Debug for Map<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map().entries(self.0.iter()).finish()
            }
        }
        f.debug_struct("Bindings").field("map", &Map(self)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercions() {
        assert_eq!(RtVal::Int(2).as_pos(), Some(OperandPos::A));
        assert_eq!(RtVal::Int(7).as_pos(), None);
        assert_eq!(RtVal::Int(3).as_operand(), Some(Operand::int(3)));
        assert!(RtVal::Opc(Opcode::Assign).as_operand().is_none());
    }

    #[test]
    fn ad_hoc_bindings_keep_name_order_and_compare_by_content() {
        let mut b = Bindings::new();
        b.set("y", RtVal::Int(2));
        b.set("x", RtVal::Int(1));
        let mut c = b.clone();
        assert!(b.is_bound("x") && !b.is_bound("z"));
        assert_eq!(b.get("x"), Some(&RtVal::Int(1)));
        assert_eq!(b.line(), "x=Int(1), y=Int(2)");
        assert_eq!(b, c);
        c.set("x", RtVal::Int(3));
        assert_ne!(b, c);
        // Equality ignores which table backs the slots: an environment
        // over a wider table with the same bindings is equal.
        let mut d = Bindings::over(Arc::new(NameTable::new(vec!["w", "x", "y"])));
        d.set("y", RtVal::Int(2));
        d.set("x", RtVal::Int(1));
        assert_eq!(b, d);
        assert_eq!(
            format!("{b:?}"),
            "Bindings { map: {\"x\": Int(1), \"y\": Int(2)} }"
        );
    }
}
