//! Error types for the Cobalt DSL.

use crate::subst::{Binding, PatVar};
use cobalt_il::Expr;
use std::error::Error;
use std::fmt;

/// An error instantiating a pattern under a substitution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstError {
    message: String,
}

impl InstError {
    pub(crate) fn unbound(p: &PatVar) -> Self {
        InstError {
            message: format!("pattern variable `{p}` is unbound"),
        }
    }

    pub(crate) fn kind_mismatch(p: &PatVar, expected: &str, got: &Binding) -> Self {
        InstError {
            message: format!("pattern variable `{p}` should be bound to a {expected}, but is bound to `{got}`"),
        }
    }

    pub(crate) fn wildcard_in_template() -> Self {
        InstError {
            message: "wildcard patterns cannot appear in a rewrite template".into(),
        }
    }

    pub(crate) fn not_foldable(p: &PatVar, e: &Expr) -> Self {
        InstError {
            message: format!("expression `{e}` bound to `{p}` does not fold to a constant"),
        }
    }
}

impl fmt::Display for InstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instantiation error: {}", self.message)
    }
}

impl Error for InstError {}

/// An error evaluating a guard (e.g. a label applied under a
/// substitution that leaves its arguments unbound, or an undefined
/// label name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuardError {
    message: String,
}

impl GuardError {
    /// Creates a guard-evaluation error.
    pub fn new(message: impl Into<String>) -> Self {
        GuardError {
            message: message.into(),
        }
    }
}

impl fmt::Display for GuardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "guard error: {}", self.message)
    }
}

impl Error for GuardError {}

impl From<InstError> for GuardError {
    fn from(e: InstError) -> Self {
        GuardError::new(e.to_string())
    }
}

/// An error parsing Cobalt DSL source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// Description.
    pub message: String,
}

impl DslParseError {
    /// Creates a DSL parse error.
    pub fn new(line: usize, col: usize, message: impl Into<String>) -> Self {
        DslParseError {
            line,
            col,
            message: message.into(),
        }
    }
}

impl fmt::Display for DslParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cobalt parse error at line {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl Error for DslParseError {}

impl From<cobalt_il::ParseError> for DslParseError {
    fn from(e: cobalt_il::ParseError) -> Self {
        DslParseError::new(e.line, e.col, e.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = InstError::unbound(&PatVar::new("X"));
        assert!(e.to_string().contains("`X`"));
        let g = GuardError::new("label `foo` is not defined");
        assert!(g.to_string().contains("foo"));
        let p = DslParseError::new(2, 5, "expected `=>`");
        assert!(p.to_string().contains("2:5"));
    }

    #[test]
    fn guard_error_from_inst_error() {
        let g: GuardError = InstError::wildcard_in_template().into();
        assert!(g.to_string().contains("wildcard"));
    }
}
