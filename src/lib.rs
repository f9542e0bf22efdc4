//! # Cobalt
//!
//! A complete, from-scratch Rust reproduction of *Sorin Lerner, Todd
//! Millstein & Craig Chambers, "Automatically Proving the Correctness
//! of Compiler Optimizations", PLDI 2003* — the Cobalt system.
//!
//! Cobalt is a domain-specific language for writing compiler
//! optimizations as guarded rewrite rules over a C-like intermediate
//! language. Optimizations written in Cobalt are:
//!
//! * **executable** — a generic dataflow engine runs them directly
//!   ([`engine`]), no reimplementation needed;
//! * **provable** — an automatic checker generates a small set of
//!   non-inductive proof obligations per optimization and discharges
//!   them with an automatic theorem prover ([`verify`], [`logic`]),
//!   establishing soundness *once and for all*, for every input program.
//!
//! The workspace members re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`il`] | `cobalt-il` | the intermediate language, CFGs, interpreter, program generator |
//! | [`logic`] | `cobalt-logic` | the automatic theorem prover (the Simplify stand-in) |
//! | [`dsl`] | `cobalt-dsl` | the Cobalt language: patterns, guards, labels, witnesses |
//! | [`engine`] | `cobalt-engine` | the optimization execution engine (§5.2) |
//! | [`verify`] | `cobalt-verify` | the soundness checker (§4, §5.1) |
//! | [`opts`] | `cobalt-opts` | the optimization suite (§2, §6) |
//! | [`lint`] | `cobalt-lint` | static analysis: rule and IL linters gating the prover |
//! | [`tv`] | `cobalt-tv` | the translation-validation baseline (§1, §8) |
//! | [`serve`] | `cobalt-serve` | the verification daemon: shared proof cache, load shedding, graceful drain |
//!
//! # Quickstart
//!
//! Prove constant propagation sound, then run it:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobalt::dsl::LabelEnv;
//! use cobalt::engine::{AnalyzedProc, Engine};
//! use cobalt::il::parse_program;
//! use cobalt::verify::{SemanticMeanings, Verifier};
//!
//! let const_prop = cobalt::opts::optimization("const_prop").unwrap();
//!
//! // 1. Prove it sound — once, for all programs.
//! let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
//! assert!(verifier.verify_optimization(&const_prop)?.all_proved());
//!
//! // 2. Run it on the paper's §5.2 example.
//! let prog = parse_program("proc main(x) { a := 2; b := 3; c := a; return c; }")?;
//! let engine = Engine::new(LabelEnv::standard());
//! let ap = AnalyzedProc::new(prog.main().unwrap().clone())?;
//! let (optimized, _) = engine.apply(&ap, &const_prop)?;
//! assert_eq!(optimized.stmts[2].to_string(), "c := 2");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod synth;

pub use cobalt_dsl as dsl;
pub use cobalt_engine as engine;
pub use cobalt_il as il;
pub use cobalt_lint as lint;
pub use cobalt_logic as logic;
pub use cobalt_opts as opts;
pub use cobalt_serve as serve;
pub use cobalt_tv as tv;
pub use cobalt_verify as verify;
