//! Error type for the soundness checker.

use cobalt_lint::Diagnostics;
use std::error::Error;
use std::fmt;

/// An error constructing the proof obligations of an optimization.
///
/// Note that a *failed proof* is not an error — it is reported through
/// [`crate::ObligationOutcome`]; `VerifyError` means the optimization
/// could not even be encoded (e.g. a pattern variable is used at two
/// different fragment kinds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// A pattern variable occurs at positions of two different kinds.
    KindConflict {
        /// The pattern variable.
        var: String,
        /// The first kind seen.
        first: String,
        /// The conflicting kind.
        second: String,
    },
    /// The optimization uses a construct the checker cannot encode.
    Unsupported(String),
    /// The rule was rejected by the pre-verification lint gate before
    /// any obligation reached the prover; the diagnostics name exactly
    /// what is malformed (DESIGN.md §9).
    Lint(Diagnostics),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::KindConflict { var, first, second } => write!(
                f,
                "pattern variable `{var}` is used both as a {first} and as a {second}"
            ),
            VerifyError::Unsupported(msg) => write!(f, "unsupported construct: {msg}"),
            VerifyError::Lint(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == cobalt_lint::Severity::Error);
                let (codes, messages): (Vec<&str>, Vec<&str>) =
                    errors.map(|d| (d.code, d.message.as_str())).unzip();
                write!(
                    f,
                    "rejected by lint before proving: {} error(s) [{}]: {}",
                    diags.error_count(),
                    codes.join(", "),
                    messages.join("; ")
                )
            }
        }
    }
}

impl Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = VerifyError::KindConflict {
            var: "X".into(),
            first: "variable".into(),
            second: "constant".into(),
        };
        assert!(e.to_string().contains("`X`"));
        assert!(VerifyError::Unsupported("foo".into())
            .to_string()
            .contains("foo"));
    }
}
