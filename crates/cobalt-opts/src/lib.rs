//! # cobalt-opts
//!
//! The optimization suite of *Lerner, Millstein & Chambers,
//! "Automatically Proving the Correctness of Compiler Optimizations"
//! (PLDI 2003)* — "a dozen Cobalt optimizations and analyses" (§5.1),
//! written against `cobalt-dsl`, executable with `cobalt-engine`, and
//! provable with `cobalt-verify`:
//!
//! * forward: [constant propagation](const_prop),
//!   [constant folding](const_fold), [copy propagation](copy_prop),
//!   [common subexpression elimination](cse),
//!   [redundant load elimination](load_elim),
//!   [branch folding](branch_fold_true) (both directions),
//!   [self-assignment removal](self_assign_removal);
//! * backward: [dead assignment elimination](dae),
//!   [PRE code duplication](pre_duplicate) with its profitability
//!   heuristic (§2.3);
//! * pure analyses: the [taintedness pointer analysis](taint_analysis)
//!   (§2.4);
//! * and, for the §6 debugging story, the deliberately
//!   [unsound load elimination](buggy::load_elim_no_alias) that the
//!   checker rejects.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobalt_dsl::LabelEnv;
//! use cobalt_engine::{Engine, OptimizeSession};
//! use cobalt_il::parse_program;
//!
//! let prog = parse_program("proc main(x) { a := 2; b := a; c := a + b; return c; }")?;
//! let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard()));
//! let (optimized, report) = session.optimize_program(
//!     &prog,
//!     &cobalt_opts::all_analyses(),
//!     &cobalt_opts::default_pipeline(),
//!     4,
//! );
//! assert!(!report.degraded());
//! assert!(report.applied > 0);
//! # let _ = optimized;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backward;
pub mod buggy;
pub mod forward;
pub mod pointer;
pub mod registry;

pub use backward::{dae, pre_duplicate};
pub use forward::{
    branch_fold_false, branch_fold_true, const_fold, const_prop, const_prop_branch,
    const_prop_call, copy_prop, cse, load_elim, self_assign_removal,
};
pub use pointer::taint_analysis;
pub use registry::{all_analyses, all_optimizations, buggy_optimizations, default_pipeline, pre_pipeline};
