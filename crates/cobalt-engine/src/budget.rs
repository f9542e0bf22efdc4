//! Resource governance for the dataflow engine.
//!
//! The prover's fixpoints have been budgeted since PR 2
//! (`cobalt-logic::Budget`); this module gives the *engine's* worklists
//! the same discipline. A [`Budget`] carries an optional wall-clock
//! deadline, an optional per-procedure step cap, and a cooperative
//! [`Cancel`] token; a [`Meter`] spends it, checking the clock and the
//! token only every [`METER_CHECK_INTERVAL`] steps so the hot worklist
//! loop stays branch-cheap.
//!
//! A "step" is one node visit of a fixpoint sweep (or one iteration of
//! the recursive self-composition loop) — the unit in which engine work
//! actually accumulates. The step counter is **per fork**: drivers call
//! [`Budget::fork`] once per procedure, so `max_steps` bounds each
//! procedure's whole analysis pipeline independently of how procedures
//! are scheduled. That makes step-cap exhaustion deterministic at any
//! `--jobs` count, unlike a shared global counter whose interleaving
//! would vary. The *deadline* is absolute (fixed when the budget is
//! built), so every fork and every worker races the same instant.
//!
//! Exhaustion surfaces as
//! [`EngineError::ResourceLimited`](crate::EngineError::ResourceLimited),
//! which the optimization session turns into a quarantined
//! [`PassFailure`](crate::PassFailure) of kind
//! [`FailureKind::ResourceLimited`](crate::FailureKind) — the pass is
//! skipped, never misapplied (sound by §4.1 noninterference).

use crate::error::EngineError;
use cobalt_support::pool::Cancel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in steps) a [`Meter`] consults the clock, the step
/// count, and the cancel token. Matches the prover's metering cadence.
pub const METER_CHECK_INTERVAL: u32 = 16;

/// A resource budget for engine fixpoints. See the [module docs](self).
///
/// The default budget is unlimited; [`Meter::tick`] on it is one
/// increment and a compare. Cloning shares the step counter (meters of
/// one scope accumulate together); [`fork`](Self::fork) starts a fresh
/// counter for an independent scope (one procedure).
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    max_steps: Option<u64>,
    cancel: Option<Cancel>,
    spent: Arc<AtomicU64>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Adds a wall-clock deadline `d` from now. The deadline is
    /// absolute: clones and forks all race the same instant.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        // A duration too large for the clock (checked_add overflow) is
        // no deadline at all.
        self.deadline = Instant::now().checked_add(d);
        self
    }

    /// Caps the steps each fork (one procedure's analysis pipeline) may
    /// spend. Zero fails the first check.
    #[must_use]
    pub fn with_max_steps(mut self, n: u64) -> Budget {
        self.max_steps = Some(n);
        self
    }

    /// Attaches a cooperative cancel token: trip it (or a parent it is
    /// linked to) from any thread and every meter observes it at its
    /// next check.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Cancel) -> Budget {
        self.cancel = Some(cancel);
        self
    }

    /// Whether nothing bounds this budget (the fast path: meters on an
    /// unlimited budget never consult the clock).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_steps.is_none() && self.cancel.is_none()
    }

    /// The step cap, if any (a fingerprint input — it deterministically
    /// changes what a run produces, unlike the run-relative deadline).
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }

    /// The cancel token, if one is attached.
    pub fn cancel(&self) -> Option<&Cancel> {
        self.cancel.as_ref()
    }

    /// A budget with the same deadline, cap, and cancel token but a
    /// fresh step counter — an independent accounting scope.
    pub fn fork(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            max_steps: self.max_steps,
            cancel: self.cancel.clone(),
            spent: Arc::new(AtomicU64::new(0)),
        }
    }

    /// A meter spending this budget. Meters of one budget (or clone)
    /// share the step counter.
    pub fn meter(&self) -> Meter {
        Meter {
            budget: self.clone(),
            local: 0,
        }
    }
}

/// Runtime spending state over a [`Budget`]. Create with
/// [`Budget::meter`]; call [`tick`](Self::tick) once per worklist step.
#[derive(Debug)]
pub struct Meter {
    budget: Budget,
    local: u32,
}

impl Meter {
    /// Spends one step. Every [`METER_CHECK_INTERVAL`] steps the
    /// deadline, the step cap, and the cancel token are consulted.
    ///
    /// # Errors
    ///
    /// [`EngineError::ResourceLimited`] once the budget is exhausted.
    #[inline]
    pub fn tick(&mut self) -> Result<(), EngineError> {
        self.local += 1;
        if self.local < METER_CHECK_INTERVAL {
            return Ok(());
        }
        self.check()
    }

    /// Checks the budget immediately (flushing locally accumulated
    /// steps). Fixpoint entry points call this once up front so
    /// degenerate budgets (`--timeout 0`, `--max-steps 0`) fail fast
    /// and deterministically instead of racing the first sweep.
    ///
    /// # Errors
    ///
    /// [`EngineError::ResourceLimited`] once the budget is exhausted.
    pub fn check(&mut self) -> Result<(), EngineError> {
        let local = u64::from(self.local);
        self.local = 0;
        if self.budget.is_unlimited() {
            return Ok(());
        }
        let spent = self
            .budget
            .spent
            .fetch_add(local, Ordering::Relaxed)
            .saturating_add(local);
        if let Some(max) = self.budget.max_steps {
            if spent > max || max == 0 {
                return Err(EngineError::ResourceLimited(format!(
                    "step cap exhausted ({max} steps)"
                )));
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if Instant::now() >= deadline {
                return Err(EngineError::ResourceLimited(
                    "wall-clock deadline exceeded".into(),
                ));
            }
        }
        if let Some(cancel) = &self.budget.cancel {
            if cancel.is_tripped() {
                return Err(EngineError::ResourceLimited("cancelled".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let budget = Budget::unlimited();
        assert!(budget.is_unlimited());
        let mut meter = budget.meter();
        for _ in 0..10_000 {
            meter.tick().unwrap();
        }
        meter.check().unwrap();
    }

    #[test]
    fn step_cap_trips_after_the_cap() {
        let budget = Budget::unlimited().with_max_steps(64);
        let mut meter = budget.meter();
        let mut tripped = None;
        for i in 1..=200u64 {
            if meter.tick().is_err() {
                tripped = Some(i);
                break;
            }
        }
        // The cap is enforced at check granularity: the trip lands in
        // the first check interval past the cap.
        let at = tripped.expect("cap must trip");
        assert!(at > 64 && at <= 64 + u64::from(METER_CHECK_INTERVAL), "{at}");
        let e = meter.check().unwrap_err();
        assert!(e.to_string().contains("step cap"), "{e}");
    }

    #[test]
    fn zero_caps_fail_the_immediate_check() {
        let mut meter = Budget::unlimited().with_max_steps(0).meter();
        assert!(meter.check().is_err());
        let mut meter = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .meter();
        assert!(meter.check().is_err());
    }

    #[test]
    fn clones_share_steps_and_forks_do_not() {
        let budget = Budget::unlimited().with_max_steps(20);
        let mut a = budget.meter();
        let mut b = budget.clone().meter();
        for _ in 0..16 {
            a.tick().unwrap();
        }
        for _ in 0..16 {
            let _ = b.tick();
        }
        // b flushed into the shared counter: 32 > 20.
        assert!(b.check().is_err(), "clones share the counter");
        let mut c = budget.fork().meter();
        for _ in 0..16 {
            c.tick().unwrap();
        }
        assert!(c.check().is_ok(), "forks start a fresh counter");
    }

    #[test]
    fn cancel_token_trips_cooperatively() {
        let cancel = Cancel::new();
        let budget = Budget::unlimited().with_cancel(cancel.child());
        let mut meter = budget.meter();
        meter.check().unwrap();
        cancel.trip();
        let e = meter.check().unwrap_err();
        assert!(e.to_string().contains("cancelled"), "{e}");
    }
}
