//! # genesis — an optimizer generator
//!
//! This crate is the Rust reproduction of **GENesis** from *Automatic
//! Generation of Global Optimizers* (Whitfield & Soffa, PLDI 1991): it
//! analyzes a [GOSpeL](gospel_lang) specification and produces an
//! executable optimizer.
//!
//! The pieces correspond one-to-one to the paper's architecture:
//!
//! | Paper | Here |
//! |---|---|
//! | generator (LEX/YACC analysis → C code) | [`generate`] → [`CompiledOptimizer`] (plus [`emit`] for the Figure-6 C/Rust source) |
//! | `set_up_X` / `match_X` / `pre_X` / `act_X` | the compiled pattern, dependence and action phases |
//! | standard driver (Figure 5) | [`Driver`] |
//! | optimizer library | the pattern matcher (the catalog-wide [`FusedAutomaton`], with the full scan as its oracle), the dependence verifier over [`gospel_dep::DepGraph`], and the action interpreter |
//! | constructor + interactive interface | [`Session`] |
//!
//! The generator also reproduces the paper's §4 engineering results: it
//! counts precondition checks and transformation operations (the paper's
//! cost metric, [`Cost`]), and it implements both membership-checking
//! strategies — *members-then-dependences* and
//! *dependences-then-membership* — together with the heuristic that picks
//! the cheaper one per clause ([`Strategy`]).
//!
//! ```
//! use genesis::{generate, ApplyMode, Driver};
//!
//! let ctp = gospel_lang::parse_validated(genesis::CTP_EXAMPLE_SPEC).unwrap();
//! let opt = generate(ctp.0, ctp.1).unwrap();
//!
//! let mut prog = gospel_frontend::compile("
//! program p
//!   integer x, y
//!   x = 3
//!   y = x
//!   write y
//! end
//! ").unwrap();
//!
//! let mut driver = Driver::new(&opt);
//! let report = driver.apply(&mut prog, ApplyMode::AllPoints).unwrap();
//! assert_eq!(report.applications, 2); // y = x became y = 3, then write 3
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod actions;
mod automaton;
pub mod batch;
mod caches;
mod compile;
mod cost;
mod driver;
pub mod emit;
mod error;
mod explain;
pub mod fault;
mod resolve;
mod rt;
mod session;
mod solve;

pub use automaton::{anchor_filter, AdmissionVerdict, AnchorFilter, FusedAutomaton};
pub use batch::{run_batch, BatchItem, BatchOutcome, BatchPolicy, BatchStatus, BatchSuccess};
pub use caches::SessionCaches;
pub use compile::{generate, CompiledClause, CompiledOptimizer, Strategy};
pub use cost::Cost;
pub use driver::{ApplyMode, ApplyReport, Driver, MatchSet, MatcherKind};
pub use error::{GenerateError, RunError};
pub use explain::{explain, Blocker, CandidateExplanation, ExplainReport};
pub use fault::{FaultKind, FaultPlan};
pub use rt::{Bindings, RtVal};
pub use session::{Session, SessionOptions};

/// The paper's Figure 1 constant-propagation specification in this
/// implementation's concrete syntax (used by examples and tests).
pub const CTP_EXAMPLE_SPEC: &str = r#"
OPTIMIZATION CTP
TYPE
  Stmt: Si, Sj, Sl;
PRECOND
  Code_Pattern
    any Si: Si.opc == assign AND type(Si.opr_2) == const;
  Depend
    any (Sj, pos): flow_dep(Si, Sj, (=))
                   AND operand(Sj, pos) == Si.opr_1;
    no (Sl, pos2): flow_dep(Sl, Sj) AND (Sl != Si)
                   AND operand(Sj, pos2) == operand(Sj, pos);
ACTION
  modify(operand(Sj, pos), Si.opr_2);
END
"#;
