//! # cobalt-opts
//!
//! The optimization suite of *Lerner, Millstein & Chambers,
//! "Automatically Proving the Correctness of Compiler Optimizations"
//! (PLDI 2003)* — "a dozen Cobalt optimizations and analyses" (§5.1),
//! executable with `cobalt-engine` and provable with `cobalt-verify`.
//! Each rule is its Cobalt text in `suite/suite.cob`, parsed once per
//! process into the [registry](registry):
//!
//! * forward: constant propagation (into assignments, branch conditions
//!   and call arguments), constant folding, copy propagation, common
//!   subexpression elimination, redundant load elimination, branch
//!   folding (both directions), self-assignment removal;
//! * backward: dead assignment elimination and PRE code duplication
//!   (§2.3);
//! * pure analyses: the taintedness pointer analysis (§2.4);
//! * and, for the §6 debugging story, the deliberately unsound load
//!   elimination of `suite/buggy.cob`, which the checker rejects, with
//!   a [program it miscompiles](buggy::counterexample_program).
//!
//! The only Rust beside the text is what the paper puts there: the
//! profitability heuristics of `cse`, `const_fold` and PRE (§2.3),
//! attached by rule name. [`optimization`] looks a rule up by name.
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

pub mod buggy;
pub mod registry;

pub use registry::{
    all_analyses, all_optimizations, buggy_optimizations, default_pipeline, optimization,
    pre_pipeline,
};
