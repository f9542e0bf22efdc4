//! # cobalt-verify
//!
//! The automatic soundness checker for Cobalt optimizations — the
//! reproduction of §4 and §5.1 of *Lerner, Millstein & Chambers,
//! "Automatically Proving the Correctness of Compiler Optimizations"
//! (PLDI 2003)*.
//!
//! Given an optimization written in the Cobalt DSL, the checker
//! generates the paper's optimization-specific proof obligations —
//! F1–F3 for forward transformation patterns, B1–B3 for backward ones,
//! A1–A2 for pure analyses — and discharges each with the automatic
//! theorem prover in `cobalt-logic`. The hand-proven Theorems 1 and 2 of
//! the paper (restated for this implementation in `DESIGN.md`) lift the
//! per-state obligations to full semantic preservation, so a
//! [`Report::all_proved`] verdict means the optimization is sound for
//! *every* input program.
//!
//! # Examples
//!
//! Verifying the paper's constant-propagation example end to end:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobalt_dsl::{
//!     BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec,
//!     LabelArgPat, LabelEnv, LhsPat, Optimization, RegionGuard, StmtPat,
//!     TransformPattern, VarPat, Witness,
//! };
//! use cobalt_verify::{SemanticMeanings, Verifier};
//!
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
//! let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
//! let report = verifier.verify_optimization(&const_prop)?;
//! assert!(report.all_proved(), "{:#?}", report.failures());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod enc;
pub mod error;
pub mod guardenc;
pub mod infer;
pub mod oblig;
pub mod session;
pub mod vocab;

pub use checker::{ObligationOutcome, Report, RetryPolicy, Verifier};
pub use enc::{ArgKind, Enc, RhsKind, SemanticMeanings, Shape, ShapeKind, SymState, TaintMode};
pub use error::VerifyError;
pub use infer::{infer_witness, with_inferred_witness};
pub use oblig::{
    obligations_for_analysis_with, obligations_for_optimization_with, BankMode, Prepared,
};
pub use session::{fingerprint_obligation, ResumeMode, Session};
