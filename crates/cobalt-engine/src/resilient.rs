//! The fault-isolating per-procedure pipeline behind
//! [`OptimizeSession`](crate::OptimizeSession), and the
//! [`PipelineReport`] it returns.
//!
//! Every pass (and every pure analysis) runs isolated per round: a pass
//! that returns an error or panics is recorded as a typed
//! [`PassFailure`], quarantined for the remaining rounds, and the
//! surviving passes keep running on the last good program.
//!
//! Skipping an arbitrary subset of passes is *sound* by construction:
//! each optimization's `choose` heuristic already selects an arbitrary
//! subset of its legal sites (paper footnote 4), and noninterference
//! (§4.1, exercised by the E7 differential tests) guarantees that every
//! subset of legal transformations preserves semantics. Dropping a pass
//! entirely is just the empty subset, so a degraded pipeline is a less
//! optimized — never a less correct — compiler.

use crate::analyzed::AnalyzedProc;
use crate::engine::Engine;
use crate::error::EngineError;
use cobalt_dsl::{Optimization, PureAnalysis};
use cobalt_il::Proc;
use cobalt_support::fault;
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How a quarantined pass failed — the typed dimension of a
/// [`PassFailure`], so callers (and the `--json` report) can
/// distinguish "ran out of budget" from "the pass is broken".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The pass exhausted the engine's
    /// [`Budget`](cobalt_support::budget::Budget)
    /// (deadline, step cap, or cancellation). Drives the exit-3 path.
    ResourceLimited,
    /// The pass returned an engine error (bad guard, injected fault,
    /// …).
    Error,
    /// The pass panicked and was caught.
    Panic,
}

impl FailureKind {
    /// The stable machine-readable name used in JSON reports and
    /// journal records.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::ResourceLimited => "resource-limited",
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
        }
    }

    /// Parses [`as_str`](Self::as_str) output (journal decode).
    pub fn parse(s: &str) -> Option<FailureKind> {
        match s {
            "resource-limited" => Some(FailureKind::ResourceLimited),
            "error" => Some(FailureKind::Error),
            "panic" => Some(FailureKind::Panic),
            _ => None,
        }
    }
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One isolated pass (or analysis) failure inside a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassFailure {
    /// What kind of failure this was.
    pub kind: FailureKind,
    /// The procedure being optimized when the failure occurred.
    pub proc: String,
    /// The failing pass or pure analysis, e.g. `"dae"` or
    /// `"analysis:taint"`.
    pub pass: String,
    /// The 0-based pipeline round in which it failed.
    pub round: usize,
    /// The error message or `panicked: …` description.
    pub reason: String,
}

impl fmt::Display for PassFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: pass `{}` failed in round {}: {}",
            self.proc, self.pass, self.round, self.reason
        )
    }
}

/// The outcome of a pipeline run: how much work was done and
/// which passes had to be skipped.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    /// Total rewrites applied across all procedures and rounds.
    pub applied: usize,
    /// Rounds completed (the maximum over procedures).
    pub rounds: usize,
    /// Procedures replayed from a fixpoint journal instead of being
    /// re-optimized (warm restart).
    pub cached: usize,
    /// Every isolated failure, in the order encountered. A pass is
    /// quarantined after its first failure, so each (proc, pass) pair
    /// appears at most once.
    pub failures: Vec<PassFailure>,
}

impl PipelineReport {
    /// Whether any pass had to be skipped.
    pub fn degraded(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Whether any failure was budget exhaustion — the condition that
    /// maps the run onto the resource-limited (exit 3) path.
    pub fn resource_limited(&self) -> bool {
        self.failures
            .iter()
            .any(|f| f.kind == FailureKind::ResourceLimited)
    }

    /// The distinct names of passes/analyses that were skipped, in
    /// first-failure order.
    pub fn skipped_passes(&self) -> Vec<&str> {
        let mut seen = HashSet::new();
        self.failures
            .iter()
            .filter(|f| seen.insert(f.pass.as_str()))
            .map(|f| f.pass.as_str())
            .collect()
    }

    /// A one-line summary, e.g.
    /// `4 rewrites in 2 rounds (degraded: skipped dae)`.
    pub fn summary(&self) -> String {
        let mut out = format!("{} rewrites in {} rounds", self.applied, self.rounds);
        if self.cached > 0 {
            out.push_str(&format!(", {} procs cached", self.cached));
        }
        if !self.failures.is_empty() {
            out.push_str(&format!(
                " (degraded: skipped {})",
                self.skipped_passes().join(", ")
            ));
        }
        out
    }

    /// A stable machine-readable rendering: one JSON object per line, a
    /// `summary` record first, then one `failure` record per isolated
    /// failure in order. Escaping follows the cobalt-lint rules
    /// ([`cobalt_lint::json_escape`]), so CI can assert on degradation
    /// behavior without parsing the free-form summary. Byte-identical
    /// at any `--jobs` count (nothing run-relative is included).
    pub fn json_lines(&self) -> String {
        let mut out = format!(
            "{{\"type\":\"summary\",\"applied\":{},\"rounds\":{},\"cached\":{},\
             \"degraded\":{},\"resource_limited\":{},\"skipped\":[{}]}}",
            self.applied,
            self.rounds,
            self.cached,
            self.degraded(),
            self.resource_limited(),
            self.skipped_passes()
                .iter()
                .map(|p| format!("\"{}\"", cobalt_lint::json_escape(p)))
                .collect::<Vec<_>>()
                .join(",")
        );
        for f in &self.failures {
            out.push('\n');
            out.push_str(&format!(
                "{{\"type\":\"failure\",\"kind\":\"{}\",\"proc\":\"{}\",\"pass\":\"{}\",\
                 \"round\":{},\"reason\":\"{}\"}}",
                f.kind,
                cobalt_lint::json_escape(&f.proc),
                cobalt_lint::json_escape(&f.pass),
                f.round,
                cobalt_lint::json_escape(&f.reason)
            ));
        }
        out
    }

    pub(crate) fn absorb(&mut self, other: PipelineReport) {
        self.applied += other.applied;
        self.rounds = self.rounds.max(other.rounds);
        self.cached += other.cached;
        self.failures.extend(other.failures);
    }
}

/// Runs `f` with panic isolation, flattening panics and engine errors
/// into a typed failure kind plus reason.
fn isolate<T>(f: impl FnOnce() -> Result<T, EngineError>) -> Result<T, (FailureKind, String)> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e @ EngineError::ResourceLimited(_))) => {
            Err((FailureKind::ResourceLimited, e.to_string()))
        }
        Ok(Err(e)) => Err((FailureKind::Error, e.to_string())),
        Err(payload) => Err((
            FailureKind::Panic,
            format!("panicked: {}", panic_payload_message(payload.as_ref())),
        )),
    }
}

fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Engine {
    /// Optimizes one procedure: each round runs every pass in order,
    /// each on an [`AnalyzedProc`] labelled by every pure analysis,
    /// until a round applies nothing or `max_rounds` is reached. A pass
    /// (or pure analysis) that returns an error or panics is skipped —
    /// recorded as a [`PassFailure`] and quarantined for the remaining
    /// rounds — while the other passes keep running on the last good
    /// version of the procedure. Never fails and never panics on
    /// account of a pass.
    ///
    /// The procedure is labelled once per version: passes reuse the
    /// labelled procedure until one changes its text or an analysis
    /// fails. Labelling is a pure function of the text and the live
    /// analyses, so reuse yields exactly the labels a fresh labelling
    /// would.
    pub(crate) fn optimize_proc_resilient(
        &self,
        proc: &Proc,
        analyses: &[PureAnalysis],
        opts: &[Optimization],
        max_rounds: usize,
    ) -> (Proc, PipelineReport) {
        let mut current = proc.clone();
        let mut report = PipelineReport::default();
        // Pass/analysis names quarantined after a failure.
        let mut dead: HashSet<String> = HashSet::new();
        let fail = |report: &mut PipelineReport,
                        dead: &mut HashSet<String>,
                        pass: String,
                        round: usize,
                        (kind, reason): (FailureKind, String)| {
            dead.insert(pass.clone());
            report.failures.push(PassFailure {
                kind,
                proc: proc.name.to_string(),
                pass,
                round,
                reason,
            });
        };
        // `current`, labelled by every live analysis, once built.
        let mut labelled: Option<AnalyzedProc> = None;
        for round in 0..max_rounds {
            let mut round_applied = 0;
            for opt in opts {
                if dead.contains(&opt.name) {
                    continue;
                }
                let (ap, reusable) = match labelled.take() {
                    Some(ap) => (ap, true),
                    None => {
                        // Prepare the analyzed procedure. A failure here
                        // is a program-level problem (ill-formed CFG),
                        // not a pass failure; without it no pass can run
                        // this round.
                        let prepared = isolate(|| AnalyzedProc::new(current.clone()));
                        let mut ap = match prepared {
                            Ok(ap) => ap,
                            Err(reason) => {
                                fail(
                                    &mut report,
                                    &mut dead,
                                    format!("prepare:{}", opt.name),
                                    round,
                                    reason,
                                );
                                continue;
                            }
                        };
                        // Run each pure analysis in isolation: a failed
                        // analysis only costs its labels (guards see
                        // fewer facts, so fewer — still sound — rewrites
                        // fire). It may leave partial labels behind, so
                        // the next pass labels afresh without it.
                        let mut reusable = true;
                        for analysis in analyses {
                            let key = format!("analysis:{}", analysis.name);
                            if dead.contains(&key) {
                                continue;
                            }
                            let ran = isolate(|| {
                                fault::point_err("engine.analysis").map_err(|e| {
                                    EngineError::Guard(cobalt_dsl::GuardError::new(e.to_string()))
                                })?;
                                self.run_pure_analysis(&mut ap, analysis)
                            });
                            if let Err(reason) = ran {
                                fail(&mut report, &mut dead, key, round, reason);
                                reusable = false;
                            }
                        }
                        (ap, reusable)
                    }
                };
                // Apply the pass itself in isolation.
                let applied = isolate(|| {
                    fault::point_err("engine.pass").map_err(|e| {
                        EngineError::Guard(cobalt_dsl::GuardError::new(e.to_string()))
                    })?;
                    self.apply(&ap, opt)
                });
                match applied {
                    Ok((next, sites)) => {
                        round_applied += sites.len();
                        current = next;
                    }
                    Err(reason) => {
                        fail(&mut report, &mut dead, opt.name.to_string(), round, reason);
                    }
                }
                if reusable && ap.proc == current {
                    labelled = Some(ap);
                }
            }
            report.applied += round_applied;
            report.rounds = round + 1;
            if round_applied == 0 {
                break;
            }
        }
        (current, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{
        BasePat, ConstPat, Direction, ExprPat, ForwardWitness, Guard, GuardSpec, LabelArgPat,
        LabelEnv, LhsPat, RegionGuard, StmtPat, TransformPattern, VarPat, Witness,
    };
    use cobalt_il::{parse_program, Program};

    fn const_prop() -> Optimization {
        Optimization::new(
            "const_prop",
            TransformPattern {
                direction: Direction::Forward,
                guard: GuardSpec::Region(RegionGuard {
                    psi1: Guard::Stmt(StmtPat::Assign(
                        LhsPat::Var(VarPat::pat("Y")),
                        ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                    )),
                    psi2: Guard::not_label("mayDef", vec![LabelArgPat::Var(VarPat::pat("Y"))]),
                }),
                from: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Var(VarPat::pat("Y"))),
                ),
                to: StmtPat::Assign(
                    LhsPat::Var(VarPat::pat("X")),
                    ExprPat::Base(BasePat::Const(ConstPat::pat("C"))),
                ),
                where_clause: Guard::True,
                witness: Witness::Forward(ForwardWitness::VarEqConst(
                    VarPat::pat("Y"),
                    ConstPat::pat("C"),
                )),
            },
        )
    }

    /// A pass whose `where` clause calls `mayDef` with the wrong arity,
    /// so guard evaluation fails with an `EngineError` at the first
    /// matching site.
    fn erroring_pass() -> Optimization {
        let mut opt = const_prop();
        opt.pattern.where_clause = Guard::Label(
            "mayDef".into(),
            vec![
                LabelArgPat::Var(VarPat::pat("X")),
                LabelArgPat::Var(VarPat::pat("Y")),
            ],
        );
        opt
    }

    /// A pass whose `choose` panics outright.
    fn panicking_pass() -> Optimization {
        let mut opt = const_prop().with_choose(|_, _| panic!("choose exploded"));
        opt.name = "panicky".into();
        opt
    }

    fn sample() -> Program {
        parse_program("proc main(x) { a := 2; b := a; c := b; return c; }").unwrap()
    }

    fn optimize(analyses: &[PureAnalysis], opts: &[Optimization]) -> (Program, PipelineReport) {
        crate::OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .optimize_program(&sample(), analyses, opts, 5)
    }

    #[test]
    fn erroring_pass_is_skipped_and_named() {
        let mut bad = erroring_pass();
        bad.name = "inventive".into();
        let (out, report) = optimize(&[], &[bad, const_prop()]);
        // The good pass still ran to fixpoint on the untouched program.
        assert_eq!(out.main().unwrap().stmts[1].to_string(), "b := 2");
        assert!(report.degraded());
        assert_eq!(report.skipped_passes(), vec!["inventive"]);
        assert_eq!(report.failures[0].round, 0);
        assert_eq!(report.failures[0].proc, "main");
        assert!(report.failures[0].to_string().contains("inventive"));
    }

    #[test]
    fn panicking_pass_is_isolated_and_quarantined() {
        let (out, report) = optimize(&[], &[panicking_pass(), const_prop()]);
        assert_eq!(out.main().unwrap().stmts[2].to_string(), "c := 2");
        assert!(report.degraded());
        assert_eq!(report.skipped_passes(), vec!["panicky"]);
        // Quarantine: the panic fired once, not once per round.
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].reason.contains("panicked"));
        assert!(report.failures[0].reason.contains("choose exploded"));
        assert!(report.summary().contains("skipped panicky"));
    }

    #[test]
    fn injected_pass_fault_degrades_gracefully() {
        let (out, report) = cobalt_support::fault::with_faults("engine.pass:fail@1", || {
            optimize(&[], &[const_prop()])
        });
        // The first pass application was killed by the injected fault;
        // const_prop is quarantined, so the program is unchanged.
        assert!(report.degraded());
        assert_eq!(report.skipped_passes(), vec!["const_prop"]);
        assert!(report.failures[0].reason.contains("injected fault"));
        assert_eq!(
            cobalt_il::pretty_program(&out),
            cobalt_il::pretty_program(&sample())
        );
    }

    #[test]
    fn injected_analysis_fault_only_costs_labels() {
        let analyses = [PureAnalysis {
            name: "taint".into(),
            guard: RegionGuard {
                psi1: Guard::Stmt(StmtPat::Decl(VarPat::pat("X"))),
                psi2: Guard::Stmt(StmtPat::Assign(
                    LhsPat::Any,
                    ExprPat::AddrOf(VarPat::pat("X")),
                ))
                .negate(),
            },
            defines: (
                "notTainted".into(),
                vec![LabelArgPat::Var(VarPat::pat("X"))],
            ),
            witness: ForwardWitness::NotPointedTo(VarPat::pat("X")),
        }];
        let (out, report) = cobalt_support::fault::with_faults("engine.analysis:panic@1", || {
            optimize(&analyses, &[const_prop()])
        });
        // The analysis is skipped, the optimization still runs.
        assert!(report.degraded());
        assert_eq!(report.skipped_passes(), vec!["analysis:taint"]);
        assert_eq!(out.main().unwrap().stmts[1].to_string(), "b := 2");
    }
}
