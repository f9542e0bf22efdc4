//! Error types for the intermediate language.

use std::error::Error;
use std::fmt;

/// An error produced while parsing IL source text.
///
/// # Examples
///
/// ```
/// use cobalt_il::parse_program;
/// let err = parse_program("proc main(x) {").unwrap_err();
/// assert!(err.to_string().contains("line"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl ParseError {
    /// Creates a parse error at the given position.
    pub fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        ParseError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

/// A well-formedness violation found by [`crate::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// The program has no `main` procedure.
    NoMain,
    /// Two procedures share a name.
    DuplicateProc(String),
    /// A procedure declares the same local twice.
    DuplicateDecl {
        /// The offending procedure.
        proc: String,
        /// Index of the second declaration.
        index: usize,
        /// The variable declared twice.
        var: String,
    },
    /// A procedure has no statements or does not end with `return`.
    MissingReturn(String),
    /// A branch target is out of range.
    BadBranchTarget {
        /// The offending procedure.
        proc: String,
        /// Index of the branch statement.
        index: usize,
        /// The out-of-range target.
        target: usize,
    },
    /// A call names a procedure that does not exist.
    UnknownProc {
        /// The calling procedure.
        proc: String,
        /// Index of the call statement.
        index: usize,
        /// The missing callee.
        callee: String,
    },
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::NoMain => write!(f, "program has no main procedure"),
            WellFormedError::DuplicateProc(p) => write!(f, "duplicate procedure `{p}`"),
            WellFormedError::DuplicateDecl { proc, var, .. } => {
                write!(f, "procedure `{proc}` declares `{var}` more than once")
            }
            WellFormedError::MissingReturn(p) => {
                write!(f, "procedure `{p}` does not end with a return statement")
            }
            WellFormedError::BadBranchTarget { proc, index, target } => write!(
                f,
                "branch at `{proc}`:{index} targets out-of-range index {target}"
            ),
            WellFormedError::UnknownProc { proc, index, callee } => {
                write!(f, "call at `{proc}`:{index} names unknown procedure `{callee}`")
            }
        }
    }
}

impl Error for WellFormedError {}

/// A reason program evaluation did not produce a result.
///
/// Run-time errors are modeled as *stuckness* in the paper (absence of a
/// transition); this type additionally distinguishes fuel exhaustion so
/// differential testing can skip nonterminating runs rather than treating
/// them as errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Execution got stuck: the paper's model of a run-time error.
    Stuck {
        /// Procedure in which the error occurred.
        proc: String,
        /// Statement index of the faulting statement.
        index: usize,
        /// Description of the fault (undeclared variable, bad deref, …).
        reason: String,
    },
    /// The step budget was exhausted (the run may be nonterminating).
    OutOfFuel,
    /// The program was ill-formed (e.g. no `main`).
    IllFormed(WellFormedError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Stuck { proc, index, reason } => {
                write!(f, "stuck at `{proc}`:{index}: {reason}")
            }
            EvalError::OutOfFuel => write!(f, "step budget exhausted"),
            EvalError::IllFormed(e) => write!(f, "ill-formed program: {e}"),
        }
    }
}

impl Error for EvalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvalError::IllFormed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WellFormedError> for EvalError {
    fn from(e: WellFormedError) -> Self {
        EvalError::IllFormed(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let p = ParseError::new(3, 7, "expected `;`");
        assert_eq!(p.to_string(), "parse error at line 3:7: expected `;`");
        let w = WellFormedError::MissingReturn("f".into());
        assert!(w.to_string().contains("`f`"));
        let e = EvalError::Stuck {
            proc: "main".into(),
            index: 2,
            reason: "deref of non-pointer".into(),
        };
        assert!(e.to_string().contains("main"));
        assert!(EvalError::OutOfFuel.to_string().contains("budget"));
    }

    #[test]
    fn eval_error_source_chains() {
        use std::error::Error as _;
        let e = EvalError::from(WellFormedError::NoMain);
        assert!(e.source().is_some());
        assert!(EvalError::OutOfFuel.source().is_none());
    }
}
