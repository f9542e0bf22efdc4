//! # cobalt-dsl
//!
//! The Cobalt domain-specific language for compiler optimizations, from
//! *Lerner, Millstein & Chambers, "Automatically Proving the Correctness
//! of Compiler Optimizations" (PLDI 2003)*.
//!
//! An optimization is written as a guarded rewrite rule:
//!
//! ```text
//! ψ1 followed by ψ2 until s ⇒ s' with witness P filtered through choose
//! ```
//!
//! This crate provides the language's syntax and static semantics:
//!
//! * [pattern terms](pattern) — the *extended intermediate language*
//!   with pattern variables and wildcards, with matching and
//!   instantiation;
//! * [substitutions](Subst) `θ`, which double as the execution engine's
//!   dataflow facts;
//! * the [guard language](Guard) `ψ` with user-definable
//!   [labels](LabelEnv) and `case` pattern matching;
//! * [witnesses](witness) — the invariants that justify soundness;
//! * [`Optimization`] / [`PureAnalysis`] definitions with
//!   [profitability heuristics](Choose);
//! * a [text parser](parser) for Cobalt's surface syntax.
//!
//! The execution engine lives in `cobalt-engine`; the soundness checker
//! in `cobalt-verify`.
//!
//! # Examples
//!
//! The constant-propagation pattern of the paper's Example 1, matched
//! against an enabling statement:
//!
//! ```
//! use cobalt_dsl::{ConstPat, BasePat, ExprPat, LhsPat, StmtPat, Subst, VarPat};
//! use cobalt_il::parse_stmt;
//!
//! // stmt(Y := C)
//! let enabling = StmtPat::Assign(
//!     LhsPat::Var(VarPat::pat("Y")),
//!     ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
//! );
//! let theta = enabling
//!     .try_match(&parse_stmt("a := 2").unwrap(), &Subst::new())
//!     .unwrap();
//! assert_eq!(theta.to_string(), "[C ↦ 2, Y ↦ a]");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod guard;
pub mod label;
pub mod opt;
pub mod parser;
pub mod pattern;
pub mod subst;
pub mod witness;

pub use error::{DslParseError, GuardError, InstError};
pub use guard::{Domain, Fragments, Guard, GuardNode, GuardVars, NodeCtx};
pub use guard::{Reading, Scope, Solver};
pub use label::{
    FragKind, LabelArg, LabelArgPat, LabelDef, LabelEnv, LabelInst, LabelName, LabelSet, Labels,
};
pub use parser::{parse_analysis, parse_optimization, parse_suite, Suite};
pub use opt::{
    Choose, Direction, GuardSpec, MatchSite, Optimization, PureAnalysis, RegionGuard,
    TransformPattern, Witness,
};
pub use pattern::{
    fold_expr, BasePat, ConstPat, ExprPat, IdxPat, LhsPat, ProcPat, StmtPat, VarPat,
};
pub use subst::{Binding, PatVar, Subst};
pub use witness::{BackwardWitness, ForwardWitness};
