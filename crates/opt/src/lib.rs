//! # gospel-opts — the paper's optimization catalog
//!
//! GOSpeL specifications for the ten optimizations the paper generated
//! optimizers for — Copy Propagation (CPP), Constant Propagation (CTP),
//! Dead Code Elimination (DCE), Invariant Code Motion (ICM), Loop
//! Interchanging (INX), Loop Circulation (CRC), Bumping (BMP),
//! Parallelization (PAR), Loop Unrolling (LUR) and Loop Fusion (FUS) —
//! plus Constant Folding (CFO), which the §4 enablement experiment
//! references.
//!
//! Each optimization also has a **hand-coded baseline** implementation
//! ([`hand`]) against the same IR and dependence analysis, mirroring the
//! paper's "compare the quality of code produced by our optimizers with
//! that produced by hand-crafted optimizers" experiment, and an
//! [`interaction`] module that measures how applying one optimization
//! creates or destroys application points of another (the paper's
//! enablement/ordering experiments).
//!
//! ```
//! use gospel_opts::catalog;
//!
//! let opts = catalog().unwrap();
//! assert_eq!(opts.len(), 11);
//! let ctp = opts.iter().find(|o| o.name == "CTP").unwrap();
//! assert_eq!(ctp.depends.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hand;
pub mod interaction;
pub mod specs;

use genesis::{generate, CompiledOptimizer, GenerateError};
use gospel_lang::parse_validated;

/// Generates the full catalog of eleven optimizers from their GOSpeL
/// specifications.
///
/// # Errors
///
/// Returns the first generation error (none in a released build — the
/// specifications are tested).
pub fn catalog() -> Result<Vec<CompiledOptimizer>, GenerateError> {
    specs::ALL
        .iter()
        .map(|(_, src)| compile_spec(src))
        .collect()
}

/// Compiles one GOSpeL source into an optimizer.
///
/// # Errors
///
/// Propagates specification and generation errors.
pub fn compile_spec(src: &str) -> Result<CompiledOptimizer, GenerateError> {
    let (spec, info) = parse_validated(src).map_err(GenerateError::Spec)?;
    generate(spec, info)
}

/// Convenience: the compiled optimizer for a catalog name (`"CTP"`…).
///
/// # Panics
///
/// Panics if `name` is not in the catalog — the catalog names are the
/// eleven fixed acronyms.
pub fn by_name(name: &str) -> CompiledOptimizer {
    let (_, src) = specs::ALL
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("`{name}` is not a catalog optimization"));
    compile_spec(src).expect("catalog specifications generate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use genesis::{anchor_filter, AnchorFilter, Strategy};
    use gospel_lang::ast::ElemType;

    /// The anchor filter a fresh extraction from the spec yields, `None`
    /// where it cannot narrow.
    fn extracted(opt: &CompiledOptimizer) -> Option<AnchorFilter> {
        opt.patterns
            .first()
            .filter(|(_, ty)| *ty == ElemType::Stmt)
            .and_then(|(c, _)| c.vars.first().map(|v| anchor_filter(c, v)))
            .filter(AnchorFilter::narrows)
    }

    #[test]
    fn every_anchor_chain_equals_a_fresh_extraction() {
        let mut fused = Vec::new();
        for opt in catalog().unwrap() {
            let fresh = extracted(&opt);
            assert_eq!(opt.anchor(), fresh.as_ref(), "{}: compiled chain", opt.name);
            let copy = opt.with_strategy(Strategy::DepsFirst);
            assert_eq!(copy.anchor(), fresh.as_ref(), "{}: strategy copy", opt.name);
            if fresh.is_some() {
                fused.push(opt.name);
            }
        }
        // The statement anchors pin an opcode; the loop anchors do not.
        assert_eq!(fused, ["CPP", "CTP", "DCE", "CFO"]);
    }
}
