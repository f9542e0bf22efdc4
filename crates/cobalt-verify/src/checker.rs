//! The correctness checker: builds the obligations of an optimization or
//! pure analysis and discharges them with the automatic theorem prover
//! (paper §5.1).
//!
//! Proving is **resource-governed**: each obligation is attempted under
//! an escalating sequence of prover limits (a [`RetryPolicy`]), the
//! whole report may carry a wall-clock deadline, and a prover panic is
//! isolated to the one obligation it occurred in. The paper's pitch is
//! that soundness checking is *automatic* — Simplify runs under the
//! hood with bounded effort and a failed or timed-out proof is a
//! report, never a crash.

use crate::enc::SemanticMeanings;
use crate::error::VerifyError;
use crate::oblig::{
    obligations_for_analysis_with, obligations_for_optimization_with, BankMode, Prepared,
};
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_logic::{clamp_context, Limits, Outcome};
use cobalt_support::budget::{Budget, Exhausted};
use cobalt_support::fault;
use cobalt_support::pool::{self, Cancel, TaskResult};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The result of attempting one proof obligation.
#[derive(Debug, Clone)]
pub struct ObligationOutcome {
    /// Obligation identifier (e.g. `"F2/assign_var"`).
    pub id: String,
    /// Whether the prover discharged it.
    pub proved: bool,
    /// Total time spent on the obligation, across every attempt.
    pub elapsed: Duration,
    /// For failures: the reason and the open-branch counterexample
    /// context (paper §7), or `panicked: …` when the prover died;
    /// empty on success. Clamped to a bounded size.
    pub detail: String,
    /// Number of prover attempts made. Zero only when the report
    /// deadline expired before this obligation was reached.
    pub attempts: u32,
    /// Number of limit escalations (`attempts - 1` for attempted
    /// obligations): how many times a resource-limit `Unknown` bought a
    /// retry at the next tier.
    pub escalations: u32,
    /// For failures: whether the final attempt gave up on a resource
    /// limit (deadline, splits, terms, rounds) rather than finding a
    /// genuine open branch or panicking. Resource-limited failures say
    /// nothing about soundness; open-branch failures are evidence of a
    /// real problem.
    pub resource_limited: bool,
    /// Whether this outcome was replayed from a proof journal
    /// ([`crate::Session`]) instead of freshly discharged. Cached
    /// outcomes are always proved ones — failures are never reused —
    /// and their `attempts`/`escalations`/`elapsed` describe the
    /// original run.
    pub cached: bool,
}

/// Escalating prover-limit tiers plus an overall per-report deadline —
/// the checker's iterative-deepening retry schedule.
///
/// Each obligation starts at `tiers[0]`. An attempt that comes back as
/// a *resource-limit* [`Outcome::Unknown`] escalates to the next tier;
/// a proof, an open branch, or a panic is final. This keeps the common
/// case fast (most obligations prove instantly under small limits)
/// while still giving hard obligations the full budget.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// The limit tiers, attempted in order.
    pub tiers: Vec<Limits>,
    /// Wall-clock budget for one whole report. When it expires,
    /// remaining obligations are recorded as resource-limited failures
    /// without being attempted, and in-flight attempts stop at their
    /// next budget check.
    pub report_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            tiers: vec![
                Limits {
                    max_splits: 500,
                    max_inst_rounds: 2,
                    max_terms: 50_000,
                    deadline: Some(Duration::from_millis(250)),
                },
                Limits {
                    max_splits: 4_000,
                    max_inst_rounds: 3,
                    max_terms: 100_000,
                    deadline: Some(Duration::from_secs(2)),
                },
                Limits::default(),
            ],
            report_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with exactly one tier and no report deadline — the
    /// pre-retry behaviour of running every obligation once under
    /// fixed limits.
    pub fn single(limits: Limits) -> Self {
        RetryPolicy {
            tiers: vec![limits],
            report_deadline: None,
        }
    }

    /// Sets the overall per-report wall-clock budget.
    pub fn with_report_deadline(mut self, deadline: Duration) -> Self {
        self.report_deadline = Some(deadline);
        self
    }
}

/// The verification report for one optimization or analysis.
#[derive(Debug, Clone)]
pub struct Report {
    /// Name of the optimization or analysis.
    pub name: String,
    /// Per-obligation outcomes.
    pub outcomes: Vec<ObligationOutcome>,
    /// Total wall-clock time.
    pub elapsed: Duration,
}

impl Report {
    /// Whether every obligation was proved — i.e. the optimization is
    /// sound (Theorems 1 and 2).
    pub fn all_proved(&self) -> bool {
        self.outcomes.iter().all(|o| o.proved)
    }

    /// The identifiers of failed obligations.
    pub fn failures(&self) -> Vec<&str> {
        self.outcomes
            .iter()
            .filter(|o| !o.proved)
            .map(|o| o.id.as_str())
            .collect()
    }

    /// Whether every failure (if any) was a resource limit rather than
    /// an open branch or panic — i.e. nothing in this report is
    /// evidence of unsoundness, only of insufficient budget.
    pub fn only_resource_limited_failures(&self) -> bool {
        self.outcomes
            .iter()
            .filter(|o| !o.proved)
            .all(|o| o.resource_limited)
    }

    /// Total prover attempts across all obligations.
    pub fn total_attempts(&self) -> u32 {
        self.outcomes.iter().map(|o| o.attempts).sum()
    }

    /// How many outcomes were replayed from a proof journal rather
    /// than freshly discharged.
    pub fn cached_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.cached).count()
    }

    /// How many outcomes were freshly proved this run (proved and not
    /// cached).
    pub fn fresh_proved_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.proved && !o.cached).count()
    }

    /// A one-line summary. Fully proved reports read
    /// `const_prop: 34/34 obligations proved in 120ms`; failing ones
    /// name the failed obligations, e.g.
    /// `dae: 30/32 obligations proved (failed: B2/store_deref, B3/return) in 1.2s`.
    /// Resumed sessions add the cache split, e.g.
    /// `const_prop: 34/34 obligations proved (30 cached, 4 fresh) in 4ms`,
    /// so warm runs are observable in plain output.
    pub fn summary(&self) -> String {
        format!(
            "{} in {:.1?}",
            self.render(/* cache_note: */ true),
            self.elapsed
        )
    }

    /// [`summary`](Self::summary) without the trailing elapsed time —
    /// a deterministic rendering, stable across runs, worker counts,
    /// and cache hits. `cobalt serve` builds response payloads from
    /// this so identical requests get byte-identical responses.
    ///
    /// Deliberately also without the cache split: whether an
    /// obligation was replayed is a property of the run, not of the
    /// proof, and the daemon reports it out-of-band (`served`/
    /// `cached` response fields) instead of inside the payload.
    pub fn summary_stable(&self) -> String {
        self.render(/* cache_note: */ false)
    }

    fn render(&self, with_cache_note: bool) -> String {
        let proved = self.outcomes.iter().filter(|o| o.proved).count();
        let total = self.outcomes.len();
        let cached = self.cached_count();
        let cache_note = if with_cache_note && cached > 0 {
            format!(" ({cached} cached, {} fresh)", total - cached)
        } else {
            String::new()
        };
        if proved == total {
            return format!(
                "{}: {}/{} obligations proved{}",
                self.name, proved, total, cache_note
            );
        }
        const MAX_NAMED: usize = 6;
        let failed = self.failures();
        let extra = failed.len().saturating_sub(MAX_NAMED);
        let mut named: Vec<&str> = failed.into_iter().take(MAX_NAMED).collect();
        let suffix = if extra > 0 {
            format!(" (+{extra} more)")
        } else {
            String::new()
        };
        format!(
            "{}: {}/{} obligations proved{} (failed: {}{})",
            self.name,
            proved,
            total,
            cache_note,
            {
                named.sort();
                named.join(", ")
            },
            suffix,
        )
    }
}

/// The soundness checker for Cobalt optimizations.
///
/// # Examples
///
/// ```
/// use cobalt_dsl::LabelEnv;
/// use cobalt_verify::{SemanticMeanings, Verifier};
///
/// let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
/// # let _ = verifier;
/// ```
#[derive(Debug, Clone)]
pub struct Verifier {
    pub(crate) env: LabelEnv,
    pub(crate) meanings: SemanticMeanings,
    pub(crate) policy: RetryPolicy,
    pub(crate) jobs: usize,
    pub(crate) bank_mode: BankMode,
    pub(crate) cancel: Option<Cancel>,
}

impl Verifier {
    /// Creates a checker with the given label environment and semantic
    /// label meanings, using the default [`RetryPolicy`] and sequential
    /// (single-job) discharge.
    pub fn new(env: LabelEnv, meanings: SemanticMeanings) -> Self {
        Verifier {
            env,
            meanings,
            policy: RetryPolicy::default(),
            jobs: 1,
            bank_mode: BankMode::default(),
            cancel: None,
        }
    }

    /// Overrides the prover's resource limits with a single fixed tier
    /// (no retries, no report deadline).
    pub fn with_limits(self, limits: Limits) -> Self {
        self.with_retry_policy(RetryPolicy::single(limits))
    }

    /// Overrides the full retry policy.
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets how many worker threads [`discharge_all`](Self::discharge_all)
    /// may use. `0` and `1` both mean sequential discharge on the
    /// calling thread (the default, byte-for-byte the pre-parallel
    /// behaviour); higher values fan obligations out across a
    /// supervised pool while preserving report order, verdicts, and
    /// per-obligation retry escalation.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// The configured worker count (≥ 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Installs an external cancellation token: trip it from any
    /// thread and in-flight discharges stop at their next budget check,
    /// reporting as **resource-limited** (never proved, never unsound)
    /// — exactly how a `cobalt serve` drain deadline budget-cancels
    /// in-flight requests. The token is strictly an *input*: the
    /// checker observes it but never trips it, so one token may be
    /// shared across any number of independent batches.
    pub fn with_cancel(mut self, cancel: Cancel) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The budget of one report, started now: the report deadline and
    /// the caller's token. Every obligation's solver spends it, and
    /// each `prove` call tightens its own fork by the tier's deadline.
    pub(crate) fn report_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(d) = self.policy.report_deadline {
            budget = budget.with_deadline(d);
        }
        if let Some(cancel) = &self.cancel {
            budget = budget.with_cancel(cancel.clone());
        }
        budget
    }

    /// Overrides how obligation batches own their term banks. The
    /// default [`BankMode::BatchShared`] interns each rule's
    /// vocabulary once; [`BankMode::PerObligation`] is the original
    /// fresh-bank-per-obligation behavior, kept as a differential
    /// oracle. Both produce identical reports, summaries, and journal
    /// fingerprints.
    pub fn with_bank_mode(mut self, mode: BankMode) -> Self {
        self.bank_mode = mode;
        self
    }

    /// Attempts to prove an optimization sound.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the optimization cannot be encoded at
    /// all; failed *proofs* are reported in the [`Report`].
    pub fn verify_optimization(&self, opt: &Optimization) -> Result<Report, VerifyError> {
        self.lint_gate(&opt.name, |ctx, opts| {
            cobalt_lint::lint_optimization(opt, ctx, opts)
        })?;
        let prepared =
            obligations_for_optimization_with(opt, &self.env, &self.meanings, self.bank_mode)?;
        Ok(self.discharge_all(opt.name.clone(), prepared))
    }

    /// The fast pre-verification gate (DESIGN.md §9): structural lints
    /// only — no solver, microseconds per rule — so a malformed rule is
    /// rejected with named diagnostics before any obligation is even
    /// constructed, let alone sent to the prover. A panic inside the
    /// linter (e.g. an injected `lint.rule` fault) is isolated into a
    /// `CL000` diagnostic rather than unwinding through the checker.
    pub(crate) fn lint_gate(
        &self,
        name: &str,
        lint: impl FnOnce(&cobalt_lint::LintContext<'_>, &cobalt_lint::RuleLintOptions) -> cobalt_lint::Diagnostics,
    ) -> Result<(), VerifyError> {
        let ctx = cobalt_lint::LintContext::new(&self.env);
        let opts = cobalt_lint::RuleLintOptions::structural();
        let diags = match catch_unwind(AssertUnwindSafe(|| lint(&ctx, &opts))) {
            Ok(diags) => diags,
            Err(payload) => {
                let mut diags = cobalt_lint::Diagnostics::new();
                diags.push(cobalt_lint::Diagnostic::error(
                    "CL000",
                    cobalt_lint::Location::Rule {
                        rule: name.to_string(),
                        part: "lint".into(),
                    },
                    format!("lint panicked: {}", pool::panic_message(&*payload)),
                ));
                diags
            }
        };
        if diags.has_errors() {
            return Err(VerifyError::Lint(diags));
        }
        Ok(())
    }

    /// Attempts to prove a pure analysis sound, i.e. that its label
    /// really means its witness.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the analysis cannot be encoded.
    pub fn verify_analysis(&self, analysis: &PureAnalysis) -> Result<Report, VerifyError> {
        self.lint_gate(&analysis.name, |ctx, opts| {
            cobalt_lint::lint_analysis(analysis, ctx, opts)
        })?;
        let prepared =
            obligations_for_analysis_with(analysis, &self.env, &self.meanings, self.bank_mode)?;
        Ok(self.discharge_all(analysis.name.clone(), prepared))
    }

    /// Verifies a pure analysis and, on success, registers its label's
    /// meaning so later optimizations may rely on it — the verified
    /// counterpart of paper §2.4's "the witness provides the new
    /// label's meaning".
    ///
    /// Returns the report; the meaning is registered only when every
    /// obligation was proved, so an unverified analysis can never lend
    /// its label to an optimization proof.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError`] if the analysis cannot be encoded, or if
    /// its `defines` arguments are not plain pattern variables (the
    /// only form a meaning can be parameterized by).
    pub fn verify_and_register_analysis(
        &mut self,
        analysis: &PureAnalysis,
    ) -> Result<Report, VerifyError> {
        let report = self.verify_analysis(analysis)?;
        if report.all_proved() {
            let params: Vec<cobalt_dsl::PatVar> = analysis
                .defines
                .1
                .iter()
                .map(|a| match a {
                    cobalt_dsl::LabelArgPat::Var(cobalt_dsl::VarPat::Pat(p)) => Ok(p.clone()),
                    other => Err(VerifyError::Unsupported(format!(
                        "label parameter `{other}` is not a pattern variable"
                    ))),
                })
                .collect::<Result<_, _>>()?;
            self.meanings
                .register(analysis.defines.0.clone(), params, analysis.witness.clone());
        }
        Ok(report)
    }

    /// Discharges a prepared obligation set into a [`Report`], using
    /// the configured number of [`jobs`](Self::with_jobs).
    ///
    /// The parallel contract: outcomes appear in obligation order
    /// regardless of completion order, each obligation keeps its full
    /// [`RetryPolicy`] escalation, and the report budget fans out
    /// through every worker's prover budget. Each obligation runs to
    /// its own verdict whatever its siblings find, so a report — sound
    /// or not — is the same at any job count.
    pub fn discharge_all(&self, name: String, prepared: Vec<Prepared>) -> Report {
        let start = Instant::now();
        let budget = self.report_budget();
        let items = prepared.into_iter().map(|p| (p, 0)).collect();
        let outcomes = self.discharge_batch(items, &budget, |_, _| {});
        Report {
            name,
            outcomes,
            elapsed: start.elapsed(),
        }
    }

    /// Discharges `(obligation, start_tier)` pairs, delivering each
    /// outcome to `sink` **in obligation order** as soon as it and all
    /// its predecessors are done (a [`crate::Session`] journals from
    /// the sink, so the journal's append order matches sequential
    /// mode), and returns the ordered outcomes.
    ///
    /// With `jobs <= 1` this is the plain sequential loop — no pool, no
    /// `pool.*` fault sites — keeping the default path behaviorally
    /// identical to the pre-parallel checker.
    pub(crate) fn discharge_batch(
        &self,
        items: Vec<(Prepared, usize)>,
        budget: &Budget,
        mut sink: impl FnMut(usize, &ObligationOutcome),
    ) -> Vec<ObligationOutcome> {
        if self.jobs <= 1 || items.len() <= 1 {
            let mut outcomes = Vec::with_capacity(items.len());
            for (idx, (p, start_tier)) in items.into_iter().enumerate() {
                let outcome = self.discharge_from(p, budget, start_tier);
                sink(idx, &outcome);
                outcomes.push(outcome);
            }
            return outcomes;
        }
        // Ids survive outside the slots so a task that dies twice (the
        // supervised-retry budget) still yields a named outcome.
        let ids: Vec<String> = items.iter().map(|(p, _)| p.id.clone()).collect();
        let slots: Vec<(Option<Prepared>, usize)> = items
            .into_iter()
            .map(|(p, tier)| (Some(p), tier))
            .collect();
        let mut outcomes: Vec<ObligationOutcome> = Vec::with_capacity(slots.len());
        pool::run_ordered(
            self.jobs,
            slots,
            |_, (slot, start_tier)| {
                // The slot is empty only if a previous execution of this
                // task panicked *after* taking the obligation — possible
                // for a mid-discharge worker casualty, impossible for
                // the `pool.task` fault (which fires before pickup).
                let p = slot.take()?;
                Some(self.discharge_from(p, budget, *start_tier))
            },
            |idx, result| {
                let outcome = match result {
                    TaskResult::Done(Some(outcome)) => outcome,
                    TaskResult::Done(None) => {
                        panicked_outcome(&ids[idx], "obligation lost to a worker crash")
                    }
                    TaskResult::Panicked(message) => panicked_outcome(&ids[idx], &message),
                };
                sink(idx, &outcome);
                outcomes.push(outcome);
            },
        );
        outcomes
    }

    /// Runs one obligation through the retry schedule starting at limit
    /// tier `start_tier` — how a resumed [`crate::Session`] carries
    /// escalation state across a crash: tiers a previous run already
    /// exhausted on this obligation are not re-attempted.
    /// `attempts`/`escalations` in the outcome count this run only.
    /// Prover panics are isolated to the obligation. An exhausted
    /// report `budget` stops the schedule *between* tiers (escalation
    /// must not retry a deadline or a cancellation away); mid-search
    /// exhaustion is the solver's job.
    pub(crate) fn discharge_from(
        &self,
        mut p: Prepared,
        budget: &Budget,
        start_tier: usize,
    ) -> ObligationOutcome {
        let obligation_start = Instant::now();
        let mut attempts = 0u32;
        let mut done = |proved, detail, resource_limited, attempts: u32| ObligationOutcome {
            id: std::mem::take(&mut p.id),
            proved,
            elapsed: obligation_start.elapsed(),
            detail,
            attempts,
            escalations: attempts.saturating_sub(1),
            resource_limited,
            cached: false,
        };
        let n_tiers = self.policy.tiers.len().max(1);
        let fallback = [Limits::default()];
        let tiers: &[Limits] = if self.policy.tiers.is_empty() {
            &fallback
        } else {
            &self.policy.tiers
        };
        let start_tier = start_tier.min(n_tiers - 1);
        p.solver.set_budget(budget.clone());
        for (ti, tier) in tiers.iter().enumerate().skip(start_tier) {
            // Stand down now rather than fast-failing through every
            // remaining tier (an exhausted prove reports as a resource
            // limit, which would otherwise buy an escalation).
            if let Err(e) = budget.meter().check() {
                let detail = match e {
                    Exhausted::Cancelled => "cancelled by caller: the caller withdrew the batch",
                    _ if attempts == 0 => "report deadline exceeded before first attempt",
                    _ => "report deadline exceeded during escalation",
                };
                return done(false, detail.to_string(), true, attempts);
            }
            attempts += 1;
            p.solver.set_limits(tier.clone());
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                fault::point("checker.obligation");
                p.solver.prove(&p.task)
            }));
            match attempt {
                Err(payload) => {
                    // A prover panic is a failed obligation, not a
                    // failed suite (and not worth retrying: the same
                    // inputs would panic again).
                    let detail = format!("panicked: {}", pool::panic_message(payload.as_ref()));
                    return done(false, detail, false, attempts);
                }
                Ok(outcome) => match outcome {
                    Outcome::Proved { .. } => return done(true, String::new(), false, attempts),
                    unknown if unknown.is_resource_limited() && ti + 1 < n_tiers => {
                        // Escalate to the next tier.
                    }
                    Outcome::Unknown {
                        reason,
                        open_branch,
                        kind,
                        ..
                    } => {
                        let limited = kind == cobalt_logic::UnknownKind::ResourceLimit;
                        let mut context = open_branch;
                        clamp_context(&mut context, 12, 200);
                        let detail = if context.is_empty() {
                            reason
                        } else {
                            format!("{reason}; context: {}", context.join("; "))
                        };
                        return done(false, detail, limited, attempts);
                    }
                },
            }
        }
        unreachable!("the last tier always returns")
    }
}

/// The outcome recorded for an obligation whose worker died past the
/// pool's supervision budget (or lost the obligation to a mid-discharge
/// crash). Shaped like the sequential checker's in-obligation panic
/// outcome: failed, not resource-limited — a panic is evidence of a
/// bug, not of an undersized budget.
fn panicked_outcome(id: &str, message: &str) -> ObligationOutcome {
    ObligationOutcome {
        id: id.to_string(),
        proved: false,
        elapsed: Duration::ZERO,
        detail: format!("panicked: {message}"),
        attempts: 0,
        escalations: 0,
        resource_limited: false,
        cached: false,
    }
}
