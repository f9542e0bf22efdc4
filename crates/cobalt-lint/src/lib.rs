//! # cobalt-lint
//!
//! Static analysis for Cobalt: a diagnostics core plus two linters —
//! one over `cobalt-dsl` rule ASTs (`CL0xx` codes) and one over
//! `cobalt-il` programs (`IL0xx` codes). The linters are cheap,
//! total, and purely syntactic/dataflow-level; anything requiring
//! semantic reasoning about executions stays the prover's job
//! (`cobalt-verify`). See DESIGN.md §9 for the code registry and the
//! division of labor.
//!
//! Two consumers:
//! - `cobalt lint` (CLI): human or JSON-lines output, exit code 4 on
//!   lint errors;
//! - the pre-verification gate in `cobalt-verify::checker`: rejects
//!   structurally malformed rules before any prover obligation.
//!
//! The rule linter exposes a `lint.rule` fault point
//! (`cobalt-support::fault`); an injected `fail` surfaces as a `CL000`
//! diagnostic, an injected `panic` is isolated by the callers above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod il;
pub mod rule;
pub mod vacuous;

pub use diag::{json_escape, Diagnostic, Diagnostics, Location, Severity};
pub use il::{lint_proc, lint_program};
pub use rule::{lint_analysis, lint_optimization, LintContext, RuleLintOptions};
pub use vacuous::is_propositionally_vacuous;
