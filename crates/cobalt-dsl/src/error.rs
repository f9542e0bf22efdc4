//! Error types for the Cobalt DSL.

use crate::subst::{Binding, PatVar};
use cobalt_il::Expr;
use std::error::Error;
use std::fmt;

/// An error instantiating a pattern under a substitution. It keeps what
/// went wrong and builds its text only when displayed: the engine refuses
/// many instantiations whose errors it drops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstError(InstFault);

#[derive(Debug, Clone, PartialEq, Eq)]
enum InstFault {
    Unbound(PatVar),
    KindMismatch(PatVar, &'static str, Binding),
    WildcardInTemplate,
    NotFoldable(PatVar, Expr),
}

impl InstError {
    pub(crate) fn unbound(p: &PatVar) -> Self {
        InstError(InstFault::Unbound(p.clone()))
    }

    pub(crate) fn kind_mismatch(p: &PatVar, expected: &'static str, got: &Binding) -> Self {
        InstError(InstFault::KindMismatch(p.clone(), expected, got.clone()))
    }

    pub(crate) fn wildcard_in_template() -> Self {
        InstError(InstFault::WildcardInTemplate)
    }

    pub(crate) fn not_foldable(p: &PatVar, e: &Expr) -> Self {
        InstError(InstFault::NotFoldable(p.clone(), e.clone()))
    }
}

impl fmt::Display for InstError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("instantiation error: ")?;
        match &self.0 {
            InstFault::Unbound(p) => write!(f, "pattern variable `{p}` is unbound"),
            InstFault::KindMismatch(p, expected, got) => write!(
                f,
                "pattern variable `{p}` should be bound to a {expected}, but is bound to `{got}`"
            ),
            InstFault::WildcardInTemplate => {
                f.write_str("wildcard patterns cannot appear in a rewrite template")
            }
            InstFault::NotFoldable(p, e) => write!(
                f,
                "expression `{e}` bound to `{p}` does not fold to a constant"
            ),
        }
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
