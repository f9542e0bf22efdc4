//! One resource budget for every bounded computation in the workspace:
//! the prover's searches, the checker's reports, and the engine's
//! fixpoints.
//!
//! A [`Budget`] says how much a run may spend and whether its caller
//! has withdrawn it: an absolute wall-clock deadline, an optional step
//! cap, and an optional [`Cancel`] token. A [`Meter`] spends it,
//! consulting the counter, the clock, and the token only every
//! [`METER_CHECK_INTERVAL`] steps so hot loops stay branch-cheap.
//! Exhaustion is a typed [`Exhausted`]; each subsystem turns it into
//! the reason string it reports.
//!
//! The step counter belongs to an **accounting scope**: clones of a
//! budget share it, and [`Budget::fork`] starts a fresh one. The engine
//! forks once per procedure, so `--max-steps` bounds each procedure
//! independently of scheduling (step exhaustion is deterministic at any
//! `--jobs`); the prover forks once per `prove` call. A budget without
//! a step cap has no counter at all, so parallel meters of one
//! uncapped budget never contend on a shared atomic.
//!
//! The deadline is an `Instant`, fixed when it is set, so clones, forks,
//! and workers all race the same instant; [`Budget::with_deadline`] only
//! ever moves it earlier, which is how a prover tier's deadline nests
//! inside a report's. The token is only ever *observed* here: nothing
//! that spends a budget trips its token — only the token's owner does
//! (the daemon's drain).

use crate::pool::Cancel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often (in steps) a [`Meter`] consults the step counter, the
/// clock, and the cancel token.
pub const METER_CHECK_INTERVAL: u32 = 16;

/// Why a [`Meter`] stopped. Checked in this order: the step cap, then
/// the deadline, then the cancel token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhausted {
    /// The accounting scope spent more than its step cap (the cap).
    Steps(u64),
    /// The wall-clock deadline passed.
    Deadline,
    /// The cancel token was tripped.
    Cancelled,
}

/// A resource budget. See the [module docs](self).
///
/// The default budget is unlimited; [`Meter::tick`] on it is one
/// increment and a compare.
#[derive(Debug, Clone, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    /// The step cap and the counter this accounting scope spends it
    /// from (shared by clones, fresh per fork).
    steps: Option<(u64, Arc<AtomicU64>)>,
    cancel: Option<Cancel>,
}

impl Budget {
    /// An unlimited budget (the default).
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// Sets the deadline to `d` from now, unless the budget already
    /// holds an earlier one: a deadline only ever moves earlier. A
    /// duration too large for the clock adds no deadline.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Budget {
        if let Some(at) = Instant::now().checked_add(d) {
            self.deadline = Some(self.deadline.map_or(at, |held| held.min(at)));
        }
        self
    }

    /// Caps the steps this accounting scope (and each later fork) may
    /// spend. Zero fails the first check.
    #[must_use]
    pub fn with_max_steps(mut self, n: u64) -> Budget {
        self.steps = Some((n, Arc::default()));
        self
    }

    /// Attaches a cancel token: trip it from any thread and every
    /// meter observes it at its next check.
    #[must_use]
    pub fn with_cancel(mut self, cancel: Cancel) -> Budget {
        self.cancel = Some(cancel);
        self
    }

    /// The step cap, if any (a fingerprint input — it deterministically
    /// changes what a run produces, unlike the run-relative deadline).
    pub fn max_steps(&self) -> Option<u64> {
        self.steps.as_ref().map(|&(max, _)| max)
    }

    /// A budget with the same deadline, cap, and cancel token but a
    /// fresh step counter — an independent accounting scope.
    pub fn fork(&self) -> Budget {
        Budget {
            deadline: self.deadline,
            steps: self.steps.as_ref().map(|&(max, _)| (max, Arc::default())),
            cancel: self.cancel.clone(),
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
/// [`Budget::meter`]; call [`tick`](Self::tick) once per step.
#[derive(Debug)]
pub struct Meter {
    budget: Budget,
    local: u32,
}

impl Meter {
    /// Spends one step. Every [`METER_CHECK_INTERVAL`] steps the
    /// budget is [checked](Self::check).
    ///
    /// # Errors
    ///
    /// [`Exhausted`] once the budget is spent.
    #[inline]
    pub fn tick(&mut self) -> Result<(), Exhausted> {
        self.local += 1;
        if self.local < METER_CHECK_INTERVAL {
            return Ok(());
        }
        self.check()
    }

    /// Checks the budget now, flushing locally accumulated steps into
    /// the scope's counter. Entry points call this once up front so
    /// degenerate budgets (`--timeout 0`, `--max-steps 0`, a pre-tripped
    /// token) stop before any work instead of racing the first ticks.
    ///
    /// # Errors
    ///
    /// [`Exhausted`] once the budget is spent.
    pub fn check(&mut self) -> Result<(), Exhausted> {
        let local = u64::from(std::mem::take(&mut self.local));
        if let Some((max, spent)) = &self.budget.steps {
            let spent = spent
                .fetch_add(local, Ordering::Relaxed)
                .saturating_add(local);
            if spent > *max || *max == 0 {
                return Err(Exhausted::Steps(*max));
            }
        }
        if self.budget.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(Exhausted::Deadline);
        }
        if self.budget.cancel.as_ref().is_some_and(Cancel::is_tripped) {
            return Err(Exhausted::Cancelled);
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
        assert!(
            at > 64 && at <= 64 + u64::from(METER_CHECK_INTERVAL),
            "{at}"
        );
        assert_eq!(meter.check(), Err(Exhausted::Steps(64)));
    }

    #[test]
    fn zero_caps_fail_the_immediate_check() {
        let mut meter = Budget::unlimited().with_max_steps(0).meter();
        assert!(meter.check().is_err());
        let mut meter = Budget::unlimited().with_deadline(Duration::ZERO).meter();
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
        let budget = Budget::unlimited().with_cancel(cancel.clone());
        let mut meter = budget.meter();
        meter.check().unwrap();
        cancel.trip();
        assert_eq!(meter.check(), Err(Exhausted::Cancelled));
    }

    #[test]
    fn with_deadline_keeps_the_earlier_instant() {
        let later_second = Budget::unlimited()
            .with_deadline(Duration::ZERO)
            .with_deadline(Duration::from_secs(3600));
        assert_eq!(later_second.meter().check(), Err(Exhausted::Deadline));
        let earlier_second = Budget::unlimited()
            .with_deadline(Duration::from_secs(3600))
            .with_deadline(Duration::ZERO);
        assert_eq!(earlier_second.meter().check(), Err(Exhausted::Deadline));
        // A fork tightened by its own deadline leaves the parent's alone.
        let parent = Budget::unlimited().with_deadline(Duration::from_secs(3600));
        let child = parent.fork().with_deadline(Duration::ZERO);
        assert_eq!(child.meter().check(), Err(Exhausted::Deadline));
        assert_eq!(parent.meter().check(), Ok(()));
    }
}
