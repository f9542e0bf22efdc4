//! # cobalt-logic
//!
//! An automatic theorem prover for the ground-plus-light-quantifier
//! fragment needed by the Cobalt soundness checker — the stand-in for
//! the Simplify prover used in *Lerner, Millstein & Chambers,
//! "Automatically Proving the Correctness of Compiler Optimizations"
//! (PLDI 2003)*, §5.1.
//!
//! The prover combines:
//!
//! * hash-consed [terms](TermBank) with free constructors,
//! * [congruence closure](cc::Cc) with disequalities, constructor
//!   disjointness and injectivity,
//! * a `select`/`update` **array theory** (Simplify's built-in map
//!   axioms) decided by merging and index case splits,
//! * **tableau search** over the propositional structure, and
//! * Simplify-style **trigger-based quantifier instantiation** with
//!   skolemization of existentials.
//!
//! # Examples
//!
//! Read-over-write, the key lemma behind most dataflow obligations:
//!
//! ```
//! use cobalt_logic::{Formula, ProofTask, Solver};
//!
//! let mut solver = Solver::new();
//! let store = solver.bank.app0("store");
//! let (k, k2) = (solver.bank.app0("k"), solver.bank.app0("k2"));
//! let v = solver.bank.app0("v");
//! let upd = solver.update(store, k, v);
//! let read_back = solver.select(upd, k);
//! let read_other = solver.select(upd, k2);
//! let read_orig = solver.select(store, k2);
//!
//! // Reading the written key gives the written value…
//! assert!(solver
//!     .prove(&ProofTask { hypotheses: vec![], goal: Formula::Eq(read_back, v) })
//!     .is_proved());
//! // …and reading a *different* key is unaffected.
//! assert!(solver
//!     .prove(&ProofTask {
//!         hypotheses: vec![Formula::ne(k, k2)],
//!         goal: Formula::Eq(read_other, read_orig),
//!     })
//!     .is_proved());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cc;
pub mod formula;
pub mod solver;
pub mod term;

pub use cc::Cc;
pub use formula::Formula;
pub use solver::{
    clamp_context, Limits, Outcome, ProofTask, Solver, Stats, UnknownKind, SELECT, UPDATE,
};
pub use term::{Sym, TermBank, TermData, TermId};
