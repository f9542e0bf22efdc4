//! Request execution: the one place a verify or optimize request
//! becomes a payload, a verdict, and an exit code — for `cobalt serve`
//! ([`execute`]) and for `cobalt verify`/`optimize`, which call the same
//! steps with their own (possibly journaled) prover and session and
//! differ only in rendering report lines with [`Report::summary`].
//!
//! Two invariants anchor the whole serve design:
//!
//! 1. **Byte-identical payloads.** The `output` text for a given
//!    request is a pure function of the request — no timings, no
//!    worker-count artifacts, no cache-state artifacts. That is what
//!    makes a cached replay indistinguishable from a fresh run, and
//!    what `scripts/verify.sh` byte-diffs against the one-shot CLI.
//!    Verify reports render through [`Report::summary_stable`]
//!    (`cobalt-verify`); optimize reports through
//!    `PipelineReport::summary`, which never had timings.
//! 2. **Fingerprint = proof-relevant inputs only.** The request
//!    fingerprint covers the operation, the full source text, the
//!    verdict-relevant options, and the prover limit *tiers* — but
//!    deliberately not wall-clock budgets, mirroring the obligation
//!    fingerprints of `cobalt-verify::Session` ("a deadline bounds a
//!    run, not a proof"). Budget-limited outcomes exit 3 and are never
//!    cached, so excluding budgets cannot alias distinct results.

use crate::cache::CachedResult;
use crate::proto::RequestOp;
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis, Suite};
use cobalt_engine::{Engine, OptimizeSession, PipelineReport};
use cobalt_il::{parse_program, pretty_program, validate, Program};
use cobalt_support::budget::Budget;
use cobalt_support::journal::Fnv64;
use cobalt_support::pool::Cancel;
use cobalt_verify::{Report, RetryPolicy, SemanticMeanings, Session, Verifier, VerifyError};
use std::sync::OnceLock;
use std::time::Duration;

/// Exit code when an obligation genuinely failed (unsound) — mirrors
/// the CLI contract.
pub const EXIT_UNSOUND: u8 = 2;
/// Exit code when failures were resource limits only (inconclusive).
pub const EXIT_RESOURCE_LIMITED: u8 = 3;

/// Version tag mixed into every request fingerprint; bump on any
/// change to the fingerprint inputs or the rendered output format so
/// stale caches invalidate wholesale instead of aliasing.
const FINGERPRINT_VERSION: &str = "cobalt-serve-fp-v1";

/// Per-request execution settings, fixed at daemon startup (requests
/// choose *what* to run; the daemon's operator chooses the budgets it
/// runs under).
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Prover retry policy (limit tiers + per-report deadline).
    pub policy: RetryPolicy,
    /// Engine wall-clock budget per optimize request.
    pub timeout: Option<Duration>,
    /// Engine fixpoint step cap per procedure.
    pub max_steps: Option<u64>,
    /// Worker threads *inside* one request (obligation-/procedure-
    /// level parallelism), as distinct from the daemon's cross-request
    /// dispatch workers.
    pub jobs: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            policy: RetryPolicy::default(),
            timeout: None,
            max_steps: None,
            jobs: 1,
        }
    }
}

/// Fingerprint of the built-in registry: every analysis and
/// optimization name plus its full `Debug` AST (buggy variants
/// included — `include_buggy` requests cover them). Computed once;
/// the registry is process-constant.
fn registry_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut h = Fnv64::new();
        for a in cobalt_opts::all_analyses() {
            h.write(a.name.as_bytes()).write(b"\0");
            h.write(format!("{a:?}").as_bytes()).write(b"\0");
        }
        for o in cobalt_opts::all_optimizations()
            .iter()
            .chain(cobalt_opts::buggy_optimizations().iter())
        {
            h.write(o.name.as_bytes()).write(b"\0");
            h.write(format!("{o:?}").as_bytes()).write(b"\0");
        }
        h.finish()
    })
}

/// Stable fingerprint of one request under one execution config. See
/// the module docs for what is — and deliberately is not — covered.
pub fn request_fingerprint(op: &RequestOp, cfg: &ExecConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write(FINGERPRINT_VERSION.as_bytes()).write(b"\0");
    match op {
        RequestOp::Verify {
            suite,
            include_buggy,
        } => {
            h.write(b"verify\0");
            match suite {
                Some(src) => {
                    h.write(b"suite\0").write(src.as_bytes());
                }
                None => {
                    h.write(b"registry\0")
                        .write(format!("{:016x}", registry_fingerprint()).as_bytes());
                }
            }
            h.write(b"\0");
            h.write(&[u8::from(*include_buggy)]).write(b"\0");
            for tier in &cfg.policy.tiers {
                h.write(format!("{tier:?}").as_bytes()).write(b"\0");
            }
        }
        RequestOp::Optimize {
            program,
            passes,
            rounds,
        } => {
            h.write(b"optimize\0");
            h.write(program.as_bytes()).write(b"\0");
            h.write(passes.as_bytes()).write(b"\0");
            h.write(&rounds.to_le_bytes()).write(b"\0");
            // Optimize applies the *verified* suite, so the registry
            // is a proof-relevant input here too.
            h.write(format!("{:016x}", registry_fingerprint()).as_bytes())
                .write(b"\0");
        }
        // Control ops are never executed through the cache; give them
        // distinct fingerprints anyway so a bug upstream cannot alias
        // them onto real work.
        RequestOp::Ping => {
            h.write(b"ping\0");
        }
        RequestOp::Stats => {
            h.write(b"stats\0");
        }
        RequestOp::Shutdown => {
            h.write(b"shutdown\0");
        }
    }
    h.finish()
}

/// One executed result, ready to answer with and (when deterministic)
/// to cache.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// CLI-compatible exit code.
    pub exit: u8,
    /// Human verdict: `proved`, `unsound`, `resource-limited`, `ok`,
    /// `error`.
    pub verdict: String,
    /// The deterministic report text.
    pub output: String,
}

impl ExecResult {
    fn new(exit: u8, verdict: &str, output: String) -> ExecResult {
        ExecResult {
            exit,
            verdict: verdict.into(),
            output,
        }
    }

    fn error(msg: impl Into<String>) -> ExecResult {
        ExecResult::new(1, "error", msg.into())
    }

    /// Packages the result for the proof cache.
    pub fn to_cached(&self, fingerprint: u64, op: &RequestOp) -> CachedResult {
        CachedResult {
            fingerprint,
            op: match op {
                RequestOp::Verify { .. } => "verify",
                RequestOp::Optimize { .. } => "optimize",
                RequestOp::Ping => "ping",
                RequestOp::Stats => "stats",
                RequestOp::Shutdown => "shutdown",
            }
            .into(),
            exit: self.exit,
            verdict: self.verdict.clone(),
            output: self.output.clone(),
        }
    }
}

/// Executes one verify/optimize request. `cancel` is the request's
/// cancellation token: tripping it (drain deadline) makes in-flight
/// proving/fixpoints stop at their next budget check and the request
/// report as resource-limited — never as proved, never as unsound.
/// Nothing inside the execution trips `cancel` itself.
///
/// Control ops (`ping`/`stats`/`shutdown`) are the server's job and
/// answer `error` here.
pub fn execute(op: &RequestOp, cfg: &ExecConfig, cancel: &Cancel) -> ExecResult {
    execute_op(op, cfg, cancel).unwrap_or_else(|error| error)
}

/// [`execute`], with a malformed request as the error.
fn execute_op(op: &RequestOp, cfg: &ExecConfig, cancel: &Cancel) -> Result<ExecResult, ExecResult> {
    Ok(match op {
        RequestOp::Verify {
            suite,
            include_buggy,
        } => {
            // Every rule's report budget observes the request token, so
            // a drain trip stands every rule's batch down.
            let rules = rules(suite.as_deref())?;
            let mut verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
                .with_retry_policy(cfg.policy.clone())
                .with_jobs(cfg.jobs)
                .with_cancel(cancel.clone());
            verify(&mut verifier, &rules, *include_buggy, Report::summary_stable)
        }
        RequestOp::Optimize {
            program,
            passes,
            rounds,
        } => {
            let (prog, passes) = pipeline(program, passes)?;
            let mut session = OptimizeSession::new(engine(cfg, cancel)).with_jobs(cfg.jobs);
            let (out, report) = optimize(&mut session, &prog, &passes, *rounds as usize);
            optimized(&out, &report)
        }
        RequestOp::Ping | RequestOp::Stats | RequestOp::Shutdown => {
            ExecResult::error("control operations are not executable requests")
        }
    })
}

/// The per-rule prover a verify run goes through: the daemon's
/// [`Verifier`] or the CLI's (possibly journaled) [`Session`].
pub trait Prover {
    /// Proves one pure analysis sound.
    fn analysis(&mut self, analysis: &PureAnalysis) -> Result<Report, VerifyError>;
    /// Proves one optimization sound.
    fn optimization(&mut self, opt: &Optimization) -> Result<Report, VerifyError>;
}

impl Prover for Verifier {
    fn analysis(&mut self, analysis: &PureAnalysis) -> Result<Report, VerifyError> {
        self.verify_analysis(analysis)
    }

    fn optimization(&mut self, opt: &Optimization) -> Result<Report, VerifyError> {
        self.verify_optimization(opt)
    }
}

impl Prover for Session {
    fn analysis(&mut self, analysis: &PureAnalysis) -> Result<Report, VerifyError> {
        self.verify_analysis(analysis)
    }

    fn optimization(&mut self, opt: &Optimization) -> Result<Report, VerifyError> {
        self.verify_optimization(opt)
    }
}

/// The rules a verify request covers: the built-in registry
/// (`suite: None`) or the parsed suite text.
///
/// # Errors
///
/// An exit-1 [`ExecResult`] for suite text that does not parse.
pub fn rules(suite: Option<&str>) -> Result<Suite, ExecResult> {
    match suite {
        None => Ok(Suite {
            optimizations: cobalt_opts::all_optimizations(),
            analyses: cobalt_opts::all_analyses(),
            labels: Vec::new(),
        }),
        Some(src) => cobalt_dsl::parse_suite(src)
            .map_err(|e| ExecResult::error(format!("suite parse error: {e}"))),
    }
}

/// Proves every analysis and optimization of `rules`, plus the buggy
/// §6 variants under `include_buggy`, rule by rule through `prover`.
/// Each report renders as `line(report)` followed by its `FAILED`
/// obligations; the last line is the verdict sentence. Exit 0 when
/// everything proved, 2 when an obligation genuinely failed (or a buggy
/// variant proved), 3 when the failures were resource limits only, 1
/// for a rule the checker refuses.
pub fn verify(
    prover: &mut impl Prover,
    rules: &Suite,
    include_buggy: bool,
    line: fn(&Report) -> String,
) -> ExecResult {
    let proved = (|| {
        let mut sound = Vec::new();
        for a in &rules.analyses {
            sound.push(prover.analysis(a)?);
        }
        for o in &rules.optimizations {
            sound.push(prover.optimization(o)?);
        }
        let mut buggy = Vec::new();
        if include_buggy {
            for o in cobalt_opts::buggy_optimizations() {
                buggy.push(prover.optimization(&o)?);
            }
        }
        Ok::<_, VerifyError>((sound, buggy))
    })();
    let (sound, buggy) = match proved {
        Ok(reports) => reports,
        Err(e) => return ExecResult::error(e.to_string()),
    };
    let mut out = String::new();
    let (mut unsound, mut limited) = (false, false);
    for report in &sound {
        if !report.all_proved() {
            if report.only_resource_limited_failures() {
                limited = true;
            } else {
                unsound = true;
            }
        }
        out.push_str(&line(report));
        out.push('\n');
        for o in report.outcomes.iter().filter(|o| !o.proved) {
            out.push_str(&format!(
                "  FAILED {}{} — {}\n",
                o.id,
                if o.resource_limited {
                    " (resource-limited)"
                } else {
                    ""
                },
                o.detail
            ));
        }
    }
    for report in &buggy {
        // A buggy variant that verifies is itself a soundness
        // regression: fail the run.
        let rejected = !report.all_proved();
        unsound |= !rejected;
        out.push_str(&format!(
            "{} — {}\n",
            line(report),
            if rejected {
                "correctly rejected"
            } else {
                "UNEXPECTEDLY PROVED"
            }
        ));
    }
    let (exit, verdict, sentence) = if unsound {
        (EXIT_UNSOUND, "unsound", "some obligations failed")
    } else if limited {
        (
            EXIT_RESOURCE_LIMITED,
            "resource-limited",
            "proving hit resource limits (inconclusive, not unsound)",
        )
    } else {
        (0, "proved", "all optimizations proved sound")
    };
    out.push_str(sentence);
    out.push('\n');
    ExecResult::new(exit, verdict, out)
}

/// The engine an optimize request runs under: `cfg`'s wall-clock
/// budget and per-procedure step cap, observing — never tripping —
/// `cancel`.
pub fn engine(cfg: &ExecConfig, cancel: &Cancel) -> Engine {
    let mut budget = Budget::unlimited().with_cancel(cancel.clone());
    if let Some(d) = cfg.timeout {
        budget = budget.with_deadline(d);
    }
    if let Some(n) = cfg.max_steps {
        budget = budget.with_max_steps(n);
    }
    Engine::new(LabelEnv::standard()).with_budget(budget)
}

/// The program and passes an optimize request names: the parsed and
/// validated program text, and the comma-separated registry `passes`
/// (`all` = the default pipeline).
///
/// # Errors
///
/// An exit-1 [`ExecResult`] for a program that does not parse or
/// validate, or a pass name the registry lacks.
pub fn pipeline(program: &str, passes: &str) -> Result<(Program, Vec<Optimization>), ExecResult> {
    let prog = parse_program(program)
        .map_err(|e| ExecResult::error(format!("program parse error: {e}")))?;
    validate(&prog).map_err(|e| ExecResult::error(e.to_string()))?;
    if passes == "all" {
        return Ok((prog, cobalt_opts::default_pipeline()));
    }
    let registry = cobalt_opts::all_optimizations();
    let passes = passes
        .split(',')
        .map(|name| {
            registry
                .iter()
                .find(|o| o.name == name)
                .cloned()
                .ok_or_else(|| ExecResult::error(format!("unknown pass `{name}`")))
        })
        .collect::<Result<_, _>>()?;
    Ok((prog, passes))
}

/// Optimizes `program` through `session` with every registry analysis
/// and `passes`. Failing passes are quarantined, never fatal (paper
/// §4.1: a skipped pass is the empty subset of its legal rewrites).
pub fn optimize(
    session: &mut OptimizeSession,
    program: &Program,
    passes: &[Optimization],
    rounds: usize,
) -> (Program, PipelineReport) {
    session.optimize_program(program, &cobalt_opts::all_analyses(), passes, rounds)
}

/// The optimize payload: the report summary, one `// skipped:` line per
/// quarantined pass, then the program. Exit 3 when a pass hit a
/// resource limit — the program is still correct, the pass was skipped,
/// never misapplied — else 0.
pub fn optimized(program: &Program, report: &PipelineReport) -> ExecResult {
    let mut out = format!("// {}\n", report.summary());
    for f in &report.failures {
        out.push_str(&format!("// skipped: {f}\n"));
    }
    out.push_str(&pretty_program(program));
    if report.resource_limited() {
        ExecResult::new(EXIT_RESOURCE_LIMITED, "resource-limited", out)
    } else {
        ExecResult::new(0, "ok", out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: &str = "forward const_prop {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    const UNSOUND_SUITE: &str = "forward bad_prop {
        stmt(Y := C) followed by !mayDef(X)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    const PROGRAM: &str = "proc main(x) { decl a; decl c; a := 2; c := a; return c; }";

    fn verify_op(suite: &str) -> RequestOp {
        RequestOp::Verify {
            suite: Some(suite.into()),
            include_buggy: false,
        }
    }

    #[test]
    fn verify_suite_proves_and_renders_without_timings() {
        let r = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        assert_eq!(r.exit, 0, "{}", r.output);
        assert_eq!(r.verdict, "proved");
        assert!(r.output.contains("obligations proved"), "{}", r.output);
        assert!(r.output.ends_with("all optimizations proved sound\n"));
        assert!(!r.output.contains(" in "), "timing leaked: {}", r.output);
    }

    #[test]
    fn verify_output_is_byte_identical_across_jobs_and_repeats() {
        let sequential = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        let parallel = execute(
            &verify_op(SUITE),
            &ExecConfig {
                jobs: 4,
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(sequential.output, parallel.output);
        assert_eq!(sequential.exit, parallel.exit);
        let again = execute(&verify_op(SUITE), &ExecConfig::default(), &Cancel::new());
        assert_eq!(sequential.output, again.output);
    }

    #[test]
    fn verify_unsound_suite_exits_2() {
        let r = execute(
            &verify_op(UNSOUND_SUITE),
            &ExecConfig::default(),
            &Cancel::new(),
        );
        assert_eq!(r.exit, EXIT_UNSOUND, "{}", r.output);
        assert_eq!(r.verdict, "unsound");
        assert!(r.output.contains("FAILED"), "{}", r.output);
    }

    #[test]
    fn verify_bad_suite_and_bad_program_are_typed_errors() {
        let r = execute(&verify_op("forward {{{"), &ExecConfig::default(), &Cancel::new());
        assert_eq!(r.exit, 1);
        assert_eq!(r.verdict, "error");
        let r = execute(
            &RequestOp::Optimize {
                program: "proc main(".into(),
                passes: "all".into(),
                rounds: 1,
            },
            &ExecConfig::default(),
            &Cancel::new(),
        );
        assert_eq!(r.exit, 1);
        assert_eq!(r.verdict, "error");
    }

    #[test]
    fn unsound_rule_never_poisons_later_batches_or_the_request_token() {
        // Regression: exec_verify shares one request-level token across
        // every per-rule batch. The parallel discharge path must not
        // trip it — or the first unsound rule would cancel every later
        // rule's batch, reporting sound rules (and, under
        // include_buggy, would-be-UNEXPECTEDLY-PROVED variants) as
        // resource-limited/"correctly rejected" by cancellation, with
        // timing-dependent bytes landing in the exit-2 cache.
        let both = format!("{UNSOUND_SUITE}\n{SUITE}");
        let cfg = ExecConfig {
            jobs: 4,
            ..ExecConfig::default()
        };
        let cancel = Cancel::new();
        let first = execute(&verify_op(&both), &cfg, &cancel);
        assert_eq!(first.exit, EXIT_UNSOUND, "{}", first.output);
        assert!(
            !cancel.is_tripped(),
            "verification must never trip the caller's request token"
        );
        assert!(
            first.output.contains("const_prop"),
            "the sound rule still reports: {}",
            first.output
        );
        assert!(
            !first.output.contains("resource-limited"),
            "no batch was cancelled by its unsound predecessor: {}",
            first.output
        );
        // Exit-2 payloads are cached and replayed, so they must be a
        // pure function of the request — byte-identical on repeats.
        for _ in 0..3 {
            let again = execute(&verify_op(&both), &cfg, &Cancel::new());
            assert_eq!(again.output, first.output);
            assert_eq!(again.exit, first.exit);
        }
    }

    #[test]
    fn pre_tripped_cancel_reports_resource_limited_never_unsound() {
        let cancel = Cancel::new();
        cancel.trip();
        let r = execute(&verify_op(SUITE), &ExecConfig::default(), &cancel);
        assert_eq!(r.exit, EXIT_RESOURCE_LIMITED, "{}", r.output);
        assert_eq!(r.verdict, "resource-limited");
    }

    #[test]
    fn optimize_rewrites_and_is_deterministic() {
        let op = RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "const_prop".into(),
            rounds: 2,
        };
        let a = execute(&op, &ExecConfig::default(), &Cancel::new());
        assert_eq!(a.exit, 0, "{}", a.output);
        assert_eq!(a.verdict, "ok");
        assert!(a.output.contains("c := 2"), "{}", a.output);
        let b = execute(
            &op,
            &ExecConfig {
                jobs: 3,
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn optimize_zero_timeout_is_resource_limited_not_cached() {
        let op = RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "all".into(),
            rounds: 2,
        };
        let r = execute(
            &op,
            &ExecConfig {
                timeout: Some(Duration::ZERO),
                ..ExecConfig::default()
            },
            &Cancel::new(),
        );
        assert_eq!(r.exit, EXIT_RESOURCE_LIMITED, "{}", r.output);
        assert!(
            !crate::cache::CachedResult::cacheable(r.exit),
            "budget-limited outcomes must never be cached"
        );
        // The printed program is still the (unoptimized, correct)
        // input — the passes were quarantined.
        assert!(r.output.contains("proc main"), "{}", r.output);
    }

    #[test]
    fn optimize_deadline_never_trips_the_request_token() {
        // Regression: the session's deadline fail-fast used to trip the
        // token it was handed, so a timed-out optimize request tripped
        // the caller's request token.
        let op = RequestOp::Optimize {
            program: PROGRAM.into(),
            passes: "all".into(),
            rounds: 2,
        };
        let cancel = Cancel::new();
        let r = execute(
            &op,
            &ExecConfig {
                timeout: Some(Duration::ZERO),
                ..ExecConfig::default()
            },
            &cancel,
        );
        assert_eq!(r.exit, EXIT_RESOURCE_LIMITED, "{}", r.output);
        assert!(
            !cancel.is_tripped(),
            "optimization must never trip the caller's request token"
        );
    }

    #[test]
    fn fingerprints_separate_proof_relevant_inputs_and_ignore_budgets() {
        let cfg = ExecConfig::default();
        let base = request_fingerprint(&verify_op(SUITE), &cfg);
        assert_eq!(base, request_fingerprint(&verify_op(SUITE), &cfg), "stable");
        assert_ne!(base, request_fingerprint(&verify_op(UNSOUND_SUITE), &cfg));
        assert_ne!(
            base,
            request_fingerprint(
                &RequestOp::Verify {
                    suite: Some(SUITE.into()),
                    include_buggy: true
                },
                &cfg
            )
        );
        assert_ne!(
            base,
            request_fingerprint(&RequestOp::Verify { suite: None, include_buggy: false }, &cfg)
        );
        // Limit tiers are proof-relevant.
        let mut capped = ExecConfig::default();
        for tier in &mut capped.policy.tiers {
            tier.max_splits = 1;
        }
        assert_ne!(base, request_fingerprint(&verify_op(SUITE), &capped));
        // Wall-clock budgets are not.
        let impatient = ExecConfig {
            timeout: Some(Duration::from_millis(1)),
            max_steps: Some(3),
            ..ExecConfig::default()
        };
        assert_eq!(base, request_fingerprint(&verify_op(SUITE), &impatient));
        // Optimize requests separate on program, passes, and rounds.
        let opt = |program: &str, passes: &str, rounds: u32| {
            request_fingerprint(
                &RequestOp::Optimize {
                    program: program.into(),
                    passes: passes.into(),
                    rounds,
                },
                &cfg,
            )
        };
        let o = opt(PROGRAM, "all", 4);
        assert_ne!(o, opt(PROGRAM, "all", 2));
        assert_ne!(o, opt(PROGRAM, "const_prop", 4));
        assert_ne!(o, opt("proc main(x) { return x; }", "all", 4));
        assert_ne!(o, base);
    }
}
