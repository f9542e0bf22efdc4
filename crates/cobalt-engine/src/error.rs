//! Error type for the execution engine.

use cobalt_dsl::{GuardError, InstError};
use cobalt_il::WellFormedError;
use cobalt_support::budget::Exhausted;
use std::error::Error;
use std::fmt;

/// An error raised while running an optimization or analysis.
#[derive(Debug)]
pub enum EngineError {
    /// The procedure was ill-formed (bad CFG).
    IllFormed(WellFormedError),
    /// A guard could not be evaluated.
    Guard(GuardError),
    /// A rewrite template could not be instantiated for a selected site
    /// (sites whose templates fail to instantiate are normally dropped
    /// from Δ; this arises only if a `choose` function invents one).
    Template(InstError),
    /// The analysis exhausted its
    /// [`Budget`](cobalt_support::budget::Budget) — deadline, step cap,
    /// or cancellation. Says nothing about the program or the rule,
    /// only that the budget ran out; the session quarantines the pass
    /// (sound — it is merely skipped).
    ResourceLimited(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::IllFormed(e) => write!(f, "engine: {e}"),
            EngineError::Guard(e) => write!(f, "engine: {e}"),
            EngineError::Template(e) => write!(f, "engine: {e}"),
            EngineError::ResourceLimited(reason) => {
                write!(f, "engine: resource limited: {reason}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::IllFormed(e) => Some(e),
            EngineError::Guard(e) => Some(e),
            EngineError::Template(e) => Some(e),
            EngineError::ResourceLimited(_) => None,
        }
    }
}

/// The engine's reason strings for an exhausted budget.
impl From<Exhausted> for EngineError {
    fn from(e: Exhausted) -> Self {
        EngineError::ResourceLimited(match e {
            Exhausted::Steps(max) => format!("step cap exhausted ({max} steps)"),
            Exhausted::Deadline => "wall-clock deadline exceeded".into(),
            Exhausted::Cancelled => "cancelled".into(),
        })
    }
}

impl From<WellFormedError> for EngineError {
    fn from(e: WellFormedError) -> Self {
        EngineError::IllFormed(e)
    }
}

impl From<GuardError> for EngineError {
    fn from(e: GuardError) -> Self {
        EngineError::Guard(e)
    }
}

impl From<InstError> for EngineError {
    fn from(e: InstError) -> Self {
        EngineError::Template(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = EngineError::from(WellFormedError::NoMain);
        assert!(e.to_string().contains("main"));
        assert!(e.source().is_some());
        let g = EngineError::from(GuardError::new("boom"));
        assert!(g.to_string().contains("boom"));
    }
}
