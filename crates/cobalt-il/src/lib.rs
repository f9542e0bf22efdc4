//! # cobalt-il
//!
//! The C-like intermediate language underlying the Cobalt optimization
//! framework — a from-scratch reproduction of the IL of
//! *Lerner, Millstein & Chambers, "Automatically Proving the Correctness
//! of Compiler Optimizations" (PLDI 2003)*, §3.1.
//!
//! The language is untyped and features unstructured control flow,
//! pointers to local variables (`&x`, `*x`), dynamic allocation
//! (`x := new`), and recursive procedures. This crate provides:
//!
//! * the [AST](ast) with [`Program`], [`Proc`], [`Stmt`], [`Expr`];
//! * a [parser](parse_program) and [pretty-printer](pretty_program) for a
//!   textual surface syntax;
//! * [control-flow graphs](Cfg) and [well-formedness checking](validate);
//! * a concrete [interpreter](Interp) implementing the paper's `→π`
//!   transition function and the intraprocedural `↪π` that steps over
//!   calls;
//! * a random [program generator](generate) used for differential
//!   soundness testing and benchmarking.
//!
//! # Examples
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobalt_il::{parse_program, validate, Interp, Value};
//!
//! let prog = parse_program(
//!     "proc main(x) {
//!          decl y;
//!          y := x * x;
//!          return y;
//!      }",
//! )?;
//! validate(&prog)?;
//! assert_eq!(Interp::new(&prog).run(6)?, Value::Int(36));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod cfg;
pub mod error;
pub mod gen;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;

pub use ast::{BaseExpr, Expr, Index, Lhs, OpKind, Proc, ProcName, Program, Stmt, Var};
pub use cfg::{validate, violations, Cfg};
/// `cobalt-support`'s name, for crates that depend on this one alone.
pub use cobalt_support::name::Name;
pub use error::{EvalError, ParseError, WellFormedError};
pub use gen::{generate, GenConfig};
pub use interp::{
    eval_base, eval_expr, eval_lhs, eval_op, Interp, Location, State, StepOutcome, TraceEntry,
    Value, DEFAULT_FUEL,
};
pub use parser::{parse_expr, parse_program, parse_stmt};
pub use pretty::{pretty_proc, pretty_program};
