//! # cobalt-engine
//!
//! The execution engine for Cobalt optimizations — the reproduction of
//! the Whirlwind-based engine of *Lerner, Millstein & Chambers,
//! "Automatically Proving the Correctness of Compiler Optimizations"
//! (PLDI 2003)*, §5.2.
//!
//! Optimizations written in the Cobalt DSL are *directly executable*:
//! the engine runs a generic dataflow analysis whose facts are sets of
//! substitutions (potential witnessing regions), takes intersections at
//! merge points, finds the legal transformation sites at the fixpoint,
//! filters them through the optimization's profitability heuristic, and
//! applies the rewrites.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobalt_dsl::{
//!     BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec,
//!     LabelArgPat, LabelEnv, LhsPat, Optimization, RegionGuard, StmtPat,
//!     TransformPattern, VarPat, Witness,
//! };
//! use cobalt_engine::{AnalyzedProc, Engine};
//! use cobalt_il::parse_program;
//!
//! // Constant propagation (paper Example 1):
//! //   stmt(Y := C) followed by ¬mayDef(Y) until X := Y ⇒ X := C
//! let const_prop = Optimization::new(
//!     "const_prop",
//!     TransformPattern {
//!         direction: Direction::Forward,
//!         guard: GuardSpec::Region(RegionGuard {
//!             psi1: Guard::Stmt(StmtPat::Assign(
//!                 LhsPat::Var(VarPat::pat("Y")),
//!                 ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
//!             )),
//!             psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
//!         }),
//!         from: StmtPat::Assign(
//!             LhsPat::Var(VarPat::pat("X")),
//!             ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
//!         ),
//!         to: StmtPat::Assign(
//!             LhsPat::Var(VarPat::pat("X")),
//!             ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
//!         ),
//!         where_clause: Guard::True,
//!         witness: Witness::Forward(ForwardWitness::VarEqConst(
//!             VarPat::pat("Y"),
//!             ConstPat::pat("C"),
//!         )),
//!     },
//! );
//!
//! let prog = parse_program("proc main(x) { a := 2; b := 3; c := a; return c; }")?;
//! let engine = Engine::new(LabelEnv::standard());
//! let ap = AnalyzedProc::new(prog.main().unwrap().clone())?;
//! let (optimized, applied) = engine.apply(&ap, &const_prop)?;
//! assert_eq!(optimized.stmts[2].to_string(), "c := 2");
//! assert_eq!(applied.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzed;
pub mod dataflow;
pub mod engine;
pub mod error;
pub mod recursive;
pub mod resilient;
pub mod session;

pub use analyzed::AnalyzedProc;
pub use dataflow::{
    backward_cont_facts, backward_cont_facts_metered, backward_site_facts, forward_in_facts,
    forward_in_facts_metered, FactSet,
};
pub use engine::Engine;
pub use recursive::apply_recursive;
pub use error::EngineError;
pub use resilient::{FailureKind, PassFailure, PipelineReport};
pub use session::OptimizeSession;
