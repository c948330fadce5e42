//! Generate-time name resolution.
//!
//! GENesis emits C procedures whose variables the C compiler resolves
//! once; this module does the same for the interpreted optimizer. Every
//! specification variable — `TYPE` variables, position variables and the
//! names `copy`/`add`/`forall` introduce — gets a dense slot in the
//! optimizer's [`NameTable`], ordered by name. Formats, dependence
//! clauses and actions are lowered to trees that refer to slots, so
//! evaluation indexes a vector instead of looking names up, and each
//! dependence atom carries its direction pattern, endpoint slots and
//! position-variable slots ready-made. A bare name that is no variable
//! (an opcode spelling such as `assign`) becomes a constant word.

use gospel_dep::{DepKind, DirPattern};
use gospel_ir::Opcode;
use gospel_lang::ast::{
    Action, Attr, BoolExpr, CmpOp, DependClause, ElemDesc, OperandClass, PatternClause, SetExpr,
    Spec, ValExpr,
};
use gospel_lang::{SpecInfo, VarClass};

/// A variable's index in its optimizer's [`NameTable`].
pub(crate) type Slot = usize;

/// The variables of one optimizer in name order; a variable's slot is
/// its position. Shared by every [`crate::Bindings`] the optimizer makes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct NameTable {
    names: Vec<String>,
}

impl NameTable {
    /// A table of the given names (sorted and deduplicated here).
    pub(crate) fn new(mut names: Vec<&str>) -> NameTable {
        names.sort_unstable();
        names.dedup();
        NameTable {
            names: names.into_iter().map(str::to_owned).collect(),
        }
    }

    /// The slot of `name`, if it is a variable of this table.
    pub(crate) fn slot(&self, name: &str) -> Option<Slot> {
        self.names.binary_search_by(|n| n.as_str().cmp(name)).ok()
    }

    /// The name of `slot`.
    pub(crate) fn name(&self, slot: Slot) -> &str {
        &self.names[slot]
    }

    /// Number of slots.
    pub(crate) fn len(&self) -> usize {
        self.names.len()
    }

    /// Adds `name` in order; returns its slot. Used only by ad-hoc
    /// environments that bind names no optimizer declared.
    pub(crate) fn insert(&mut self, name: &str) -> Slot {
        match self.names.binary_search_by(|n| n.as_str().cmp(name)) {
            Ok(s) => s,
            Err(s) => {
                self.names.insert(s, name.to_owned());
                s
            }
        }
    }

    /// All names, in slot order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.names.iter().map(String::as_str)
    }
}

/// A slot-resolved value expression.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Expr {
    Int(i64),
    Real(f64),
    /// A variable; while unbound it reads as its own name, as a bare
    /// word does.
    Var(Slot),
    /// A bare name that is no variable: an opcode spelling.
    Word(String),
    /// `base.path`, with the base resolved.
    Ref(Slot, Vec<Attr>),
    /// A reference whose base is no variable of the table; evaluating it
    /// fails as an unbound reference.
    Unknown(String),
    /// `operand(stmt, pos)`.
    OperandFn(Box<[Expr; 2]>),
    /// `eval(a, op, b)`.
    Eval(Box<[Expr; 3]>),
    /// `bump(x, var, k)`.
    Bump(Box<[Expr; 3]>),
}

/// A slot-resolved set expression.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum SetRef {
    Named(Slot),
    /// A set name that is no variable of the table (never bound).
    Unknown(String),
    Path(Expr, Expr),
    Union(Box<[SetRef; 2]>),
    Inter(Box<[SetRef; 2]>),
}

/// A slot-resolved condition. `Or` nodes and dependence atoms list
/// their solutions without duplicates; `site` indexes the searcher's
/// per-site buffer that remembers what was already listed.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Cond {
    And(Box<[Cond; 2]>),
    Or(Box<[Cond; 2]>, usize),
    Not(Box<Cond>),
    Cmp(Expr, CmpOp, Expr),
    TypeIs(Expr, OperandClass, bool),
    Dep(DepAtom),
}

/// A dependence atom `kind(from, to, dirs)` with everything its
/// evaluation needs precomputed.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct DepAtom {
    pub kind: DepKind,
    pub pattern: DirPattern,
    pub from: Endpoint,
    pub to: Endpoint,
    /// Deduplication site of this atom's solutions.
    pub site: usize,
}

/// One side of a dependence atom.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Endpoint {
    pub expr: Expr,
    /// True when the side is a bare variable of the enclosing clause, so
    /// an unbound side is generated from the edges.
    pub clause_var: bool,
    /// The position variable paired with that clause variable: it binds
    /// to each edge's sink operand position.
    pub pos: Option<Slot>,
}

/// A `mem(elem, set)` constraint.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Member {
    pub elem: Expr,
    pub set: SetRef,
    pub negated: bool,
}

/// A pattern clause's variables and format.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PatternSlots {
    pub vars: Vec<Slot>,
    pub format: Option<Cond>,
}

/// A variable of a dependence clause.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct ClauseVar {
    pub slot: Slot,
    /// A loop variable: members-first enumerates loops, not statements,
    /// for it.
    pub is_loop: bool,
    /// Its position variable.
    pub pos: Option<Slot>,
}

/// A dependence clause, resolved.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ClauseSlots {
    /// The clause variables, in declaration order.
    pub vars: Vec<ClauseVar>,
    /// The slots a solution can bind — the variables, then their
    /// position variables. Two solutions of one clause differ only here.
    pub row: Vec<Slot>,
    pub members: Vec<Member>,
    pub cond: Cond,
}

/// An `add` template.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Template {
    pub opc: String,
    pub op: Option<Opcode>,
    pub oprs: [Option<Expr>; 3],
}

/// A slot-resolved action.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Act {
    Delete(Expr),
    Copy(Expr, Expr, Slot),
    Move(Expr, Expr),
    Add(Expr, Template, Slot),
    Modify(Expr, Expr),
    ForAll {
        var: Slot,
        pos_var: Option<Slot>,
        set: SetRef,
        body: Vec<Act>,
    },
}

/// The resolved form of a whole specification.
#[derive(Clone, Debug)]
pub(crate) struct Resolved {
    pub names: NameTable,
    pub patterns: Vec<PatternSlots>,
    pub depends: Vec<ClauseSlots>,
    pub actions: Vec<Act>,
    /// Number of deduplication sites over all conditions.
    pub sites: usize,
}

/// Resolves a validated specification against its own name table.
pub(crate) fn resolve(spec: &Spec, info: &SpecInfo) -> Resolved {
    let mut names: Vec<&str> = info.classes.keys().map(String::as_str).collect();
    for d in &spec.decls {
        names.extend(d.groups.iter().flatten().map(String::as_str));
    }
    for p in &spec.patterns {
        names.extend(p.vars.iter().map(String::as_str));
    }
    for d in &spec.depends {
        names.extend(d.vars.iter().map(String::as_str));
        names.extend(d.pos_vars.iter().flatten().map(String::as_str));
    }
    action_names(&spec.actions, &mut names);
    let table = NameTable::new(names);
    let mut r = Resolver {
        table: &table,
        sites: 0,
    };
    let patterns = spec.patterns.iter().map(|p| r.pattern(p)).collect();
    let depends = spec.depends.iter().map(|d| r.clause(d, info)).collect();
    let actions = spec.actions.iter().map(|a| r.action(a)).collect();
    let sites = r.sites;
    Resolved {
        names: table,
        patterns,
        depends,
        actions,
        sites,
    }
}

/// Appends the names `copy`, `add` and `forall` in `actions` introduce.
pub(crate) fn action_names<'s>(actions: &'s [Action], out: &mut Vec<&'s str>) {
    for a in actions {
        match a {
            Action::Copy(_, _, n) | Action::Add(_, _, n) => out.push(n),
            Action::ForAll {
                var, pos_var, body, ..
            } => {
                out.push(var);
                out.extend(pos_var.as_deref());
                action_names(body, out);
            }
            _ => {}
        }
    }
}

/// Lowers AST nodes against one table.
pub(crate) struct Resolver<'t> {
    pub table: &'t NameTable,
    /// Deduplication sites handed out so far.
    pub sites: usize,
}

impl Resolver<'_> {
    fn site(&mut self) -> usize {
        self.sites += 1;
        self.sites - 1
    }

    fn slot(&self, name: &str) -> Slot {
        self.table
            .slot(name)
            .expect("every clause and action variable is in the name table")
    }

    pub fn expr(&self, v: &ValExpr) -> Expr {
        match v {
            ValExpr::Int(n) => Expr::Int(*n),
            ValExpr::Real(r) => Expr::Real(*r),
            ValExpr::Name(n) => match self.table.slot(n) {
                Some(s) => Expr::Var(s),
                None => Expr::Word(n.clone()),
            },
            ValExpr::Ref(r) => match self.table.slot(&r.base) {
                Some(s) => Expr::Ref(s, r.path.clone()),
                None => Expr::Unknown(r.base.clone()),
            },
            ValExpr::OperandFn(s, p) => Expr::OperandFn(Box::new([self.expr(s), self.expr(p)])),
            ValExpr::Eval(x, op, y) => {
                Expr::Eval(Box::new([self.expr(x), self.expr(op), self.expr(y)]))
            }
            ValExpr::Bump(x, var, k) => {
                Expr::Bump(Box::new([self.expr(x), self.expr(var), self.expr(k)]))
            }
        }
    }

    fn set(&self, s: &SetExpr) -> SetRef {
        match s {
            SetExpr::Named(n) => match self.table.slot(n) {
                Some(slot) => SetRef::Named(slot),
                None => SetRef::Unknown(n.clone()),
            },
            SetExpr::Path(a, b) => SetRef::Path(self.expr(a), self.expr(b)),
            SetExpr::Union(a, b) => SetRef::Union(Box::new([self.set(a), self.set(b)])),
            SetExpr::Inter(a, b) => SetRef::Inter(Box::new([self.set(a), self.set(b)])),
        }
    }

    /// Lowers a condition. `clause` is the enclosing dependence clause
    /// (`None` for formats): its variables are generated by dependence
    /// atoms and bind their position variables.
    pub fn cond(&mut self, b: &BoolExpr, clause: Option<&DependClause>) -> Cond {
        match b {
            BoolExpr::And(l, r) => {
                Cond::And(Box::new([self.cond(l, clause), self.cond(r, clause)]))
            }
            BoolExpr::Or(l, r) => {
                let pair = Box::new([self.cond(l, clause), self.cond(r, clause)]);
                Cond::Or(pair, self.site())
            }
            BoolExpr::Not(i) => Cond::Not(Box::new(self.cond(i, clause))),
            BoolExpr::Cmp(l, op, r) => Cond::Cmp(self.expr(l), *op, self.expr(r)),
            BoolExpr::TypeIs(v, cls, positive) => Cond::TypeIs(self.expr(v), *cls, *positive),
            BoolExpr::Dep {
                kind,
                from,
                to,
                dirs,
            } => {
                let end = |side: &ValExpr| {
                    let var = match (side, clause) {
                        (ValExpr::Name(n), Some(d)) => d.vars.iter().position(|v| v == n),
                        _ => None,
                    };
                    Endpoint {
                        expr: self.expr(side),
                        clause_var: var.is_some(),
                        pos: var
                            .and_then(|i| clause?.pos_vars[i].as_deref())
                            .map(|p| self.slot(p)),
                    }
                };
                Cond::Dep(DepAtom {
                    kind: *kind,
                    pattern: dirs
                        .as_ref()
                        .map_or_else(DirPattern::any, |d| DirPattern::new(d.clone())),
                    from: end(from),
                    to: end(to),
                    site: self.site(),
                })
            }
        }
    }

    fn pattern(&mut self, p: &PatternClause) -> PatternSlots {
        PatternSlots {
            vars: p.vars.iter().map(|v| self.slot(v)).collect(),
            format: p.format.as_ref().map(|f| self.cond(f, None)),
        }
    }

    fn clause(&mut self, d: &DependClause, info: &SpecInfo) -> ClauseSlots {
        let vars: Vec<ClauseVar> = d
            .vars
            .iter()
            .zip(&d.pos_vars)
            .map(|(v, p)| ClauseVar {
                slot: self.slot(v),
                is_loop: info.classes.get(v) == Some(&VarClass::Loop),
                pos: p.as_deref().map(|p| self.slot(p)),
            })
            .collect();
        let mut row: Vec<Slot> = vars.iter().map(|v| v.slot).collect();
        for p in vars.iter().filter_map(|v| v.pos) {
            if !row.contains(&p) {
                row.push(p);
            }
        }
        ClauseSlots {
            vars,
            row,
            members: d
                .members
                .iter()
                .map(|m| Member {
                    elem: self.expr(&m.elem),
                    set: self.set(&m.set),
                    negated: m.negated,
                })
                .collect(),
            cond: self.cond(&d.cond, Some(d)),
        }
    }

    pub fn action(&self, a: &Action) -> Act {
        match a {
            Action::Delete(x) => Act::Delete(self.expr(x)),
            Action::Copy(x, after, n) => Act::Copy(self.expr(x), self.expr(after), self.slot(n)),
            Action::Move(x, after) => Act::Move(self.expr(x), self.expr(after)),
            Action::Add(after, desc, n) => {
                Act::Add(self.expr(after), self.template(desc), self.slot(n))
            }
            Action::Modify(place, new) => Act::Modify(self.expr(place), self.expr(new)),
            Action::ForAll {
                var,
                pos_var,
                set,
                body,
            } => Act::ForAll {
                var: self.slot(var),
                pos_var: pos_var.as_deref().map(|p| self.slot(p)),
                set: self.set(set),
                body: body.iter().map(|b| self.action(b)).collect(),
            },
        }
    }

    fn template(&self, d: &ElemDesc) -> Template {
        let opr = |o: &Option<ValExpr>| o.as_ref().map(|v| self.expr(v));
        Template {
            opc: d.opc.clone(),
            op: crate::actions::opcode_by_name(&d.opc),
            oprs: [opr(&d.opr_1), opr(&d.opr_2), opr(&d.opr_3)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gospel_lang::parse_validated;

    #[test]
    fn slots_follow_name_order_and_words_stay_constant() {
        let (spec, info) = parse_validated(crate::CTP_EXAMPLE_SPEC).unwrap();
        let r = resolve(&spec, &info);
        let names: Vec<&str> = r.names.names().collect();
        assert_eq!(names, ["Si", "Sj", "Sl", "pos", "pos2"]);
        // `Si.opc == assign`: the opcode spelling is a word, not a slot.
        let Some(Cond::And(conjuncts)) = &r.patterns[0].format else {
            panic!("format is a conjunction");
        };
        assert_eq!(
            conjuncts[0],
            Cond::Cmp(
                Expr::Ref(0, vec![Attr::Opc]),
                CmpOp::Eq,
                Expr::Word("assign".into())
            )
        );
        // `any (Sj, pos): flow_dep(Si, Sj, (=)) …`: Sj is generated from
        // the edges and binds `pos`; Si is a bound endpoint.
        let Cond::And(conjuncts) = &r.depends[0].cond else {
            panic!("condition is a conjunction");
        };
        let Cond::Dep(atom) = &conjuncts[0] else {
            panic!("first conjunct is the dependence atom");
        };
        assert!(!atom.from.clause_var && atom.from.pos.is_none());
        assert!(atom.to.clause_var);
        assert_eq!(atom.to.pos, Some(3));
        assert_eq!(r.depends[0].row, [1, 3]);
    }
}
