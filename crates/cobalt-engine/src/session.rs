//! Crash-safe, parallel optimization sessions: an [`OptimizeSession`]
//! is the one way to optimize a program. It wraps an [`Engine`] and an
//! optional persistent fixpoint journal so that a killed
//! `cobalt optimize --journal` run resumes *warm* —
//! procedures whose pipeline already completed cleanly are replayed
//! from the journal as cached instead of being re-optimized — and runs
//! per-procedure pipelines on the shared worker pool
//! (`cobalt optimize --jobs N`). See `DESIGN.md` §13.
//!
//! # Pass isolation
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
//!
//! # Fingerprints
//!
//! A journaled procedure result is only reused when its **content
//! fingerprint** matches: an FNV-64 hash over the input procedure's
//! pretty-printed body, every pure analysis and optimization of the
//! pipeline (their full `Debug` AST renderings, in order), the round
//! cap, and the budget's step cap. Any semantic change to what the
//! pipeline would compute invalidates the entry. The wall-clock
//! deadline is deliberately *not* an input: it bounds a run, not a
//! result — a procedure optimized under one deadline is byte-identical
//! under another (a procedure whose run was *degraded* by any budget is
//! never journaled at all).
//!
//! # Determinism
//!
//! Results are delivered by `pool::run_ordered` in procedure order, so
//! optimized-program bytes, pipeline reports, and journal bytes are
//! byte-identical at any `--jobs` count. Journal records contain
//! nothing run-relative (no timestamps, no worker ids).
//!
//! # Degradation
//!
//! Journal trouble — open failure, lock contention, a write error, an
//! injected `engine.journal` fault — switches the session to
//! unjournaled optimization: output, reports, and exit codes are
//! unchanged, only warmth is lost, and [`OptimizeSession::degraded`]
//! says why.

use crate::analyzed::AnalyzedProc;
use crate::engine::Engine;
use crate::error::EngineError;
use cobalt_dsl::{Optimization, PureAnalysis};
use cobalt_il::{parse_program, pretty_proc, Proc, Program};
use cobalt_support::fault;
use cobalt_support::journal::{
    decode_fields, encode_fields, Fnv64, LoadReport, Record, ResumeMode, Store, DEFAULT_LOCK_WAIT,
};
use cobalt_support::pool::{self, TaskResult};
use std::collections::HashSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

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
    /// The stable machine-readable name used in JSON reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FailureKind::ResourceLimited => "resource-limited",
            FailureKind::Error => "error",
            FailureKind::Panic => "panic",
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

/// Version tag mixed into every fingerprint; bump on any change to the
/// fingerprint inputs or the record format so stale journals invalidate
/// wholesale instead of aliasing.
const FINGERPRINT_VERSION: &str = "cobalt-engine-fp-v2";

/// Stable content fingerprint of one procedure's optimization pipeline.
///
/// Inputs: the fingerprint version, the pretty-printed input procedure,
/// the `Debug` rendering of every pure analysis and optimization (in
/// pipeline order), `max_rounds`, and the budget step cap. Nothing
/// run-relative (deadline, jobs, paths).
pub fn fingerprint_proc(
    proc: &Proc,
    analyses: &[PureAnalysis],
    opts: &[Optimization],
    max_rounds: usize,
    max_steps: Option<u64>,
) -> u64 {
    let mut h = Fnv64::new();
    h.write(FINGERPRINT_VERSION.as_bytes()).write(b"\0");
    h.write(pretty_proc(proc).as_bytes()).write(b"\0");
    for a in analyses {
        h.write(format!("{a:?}").as_bytes()).write(b"\0");
    }
    h.write(b"|\0");
    for o in opts {
        h.write(format!("{o:?}").as_bytes()).write(b"\0");
    }
    h.write(format!("rounds={max_rounds};steps={max_steps:?}").as_bytes());
    h.finish()
}

/// One journaled procedure outcome, as parsed back from a record. Only
/// *clean* pipelines (no quarantined passes) are journaled, so a cached
/// replay never hides a degradation note.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct JournalEntry {
    pub fingerprint: u64,
    pub proc: String,
    pub applied: usize,
    pub rounds: usize,
    /// The optimized procedure, pretty-printed (re-parseable — the
    /// round trip is pinned by the IL tests).
    pub body: String,
}

/// Tab-separated `key=value` fields behind a version tag; every field
/// is required.
impl Record for JournalEntry {
    fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    fn encode(&self) -> Vec<u8> {
        encode_fields(
            self.fingerprint,
            &[
                ("proc", &self.proc),
                ("applied", &self.applied),
                ("rounds", &self.rounds),
                ("body", &self.body),
            ],
        )
    }

    fn decode(payload: &[u8]) -> Option<JournalEntry> {
        let (fingerprint, [proc, applied, rounds, body]) =
            decode_fields(payload, ["proc", "applied", "rounds", "body"])?;
        Some(JournalEntry {
            fingerprint,
            proc,
            applied: applied.parse().ok()?,
            rounds: rounds.parse().ok()?,
            body,
        })
    }
}

/// A resumable, parallel optimization session. See the
/// [module docs](self).
#[derive(Debug)]
pub struct OptimizeSession {
    engine: Engine,
    jobs: usize,
    store: Store<JournalEntry>,
    /// Fingerprints of this session's outcomes (replayed and fresh, in
    /// procedure order); what [`finish`](Self::finish) compacts the
    /// journal down to.
    session_fps: Vec<u64>,
}

impl OptimizeSession {
    /// A session without a journal, running procedures sequentially.
    pub fn new(engine: Engine) -> OptimizeSession {
        OptimizeSession {
            engine,
            jobs: 1,
            store: Store::in_memory(),
            session_fps: Vec::new(),
        }
    }

    /// Runs per-procedure pipelines on up to `jobs` pool workers.
    /// Output bytes are identical at any jobs count; only wall-clock
    /// changes.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> OptimizeSession {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches (creating if absent) the fixpoint journal at `path` as a
    /// locked [`Store`] and resumes from its intact records.
    ///
    /// **Never fails**: any trouble — unopenable path, lock contention,
    /// an injected `engine.journal` fault — degrades the session to
    /// unjournaled optimization with output and exit codes unchanged
    /// ([`degraded`](Self::degraded) says why). A missing optimization
    /// cache must never block compilation.
    #[must_use]
    pub fn with_journal(mut self, path: impl AsRef<Path>, mode: ResumeMode) -> OptimizeSession {
        self.store = Store::open(path, mode, DEFAULT_LOCK_WAIT, Some("engine.journal"))
            .unwrap_or_else(|e| Store::unavailable(&e));
        self
    }

    /// Why the session is running unjournaled, if it is.
    pub fn degraded(&self) -> Option<&str> {
        self.store.degraded()
    }

    /// What the journal loader found on disk (corruption statistics).
    pub fn load_report(&self) -> &LoadReport {
        self.store.load_report()
    }

    /// Whether a journal is attached and healthy.
    pub fn is_journaled(&self) -> bool {
        self.store.is_journaled()
    }

    /// Optimizes every procedure of `program` with per-pass fault
    /// isolation, replaying journaled procedures as cached and running
    /// the rest on the worker pool. The merged [`PipelineReport`]
    /// counts replayed procedures in
    /// [`cached`](PipelineReport::cached).
    ///
    /// Never fails: budget exhaustion, pass errors, panics, and journal
    /// trouble all degrade (the report says how).
    pub fn optimize_program(
        &mut self,
        program: &Program,
        analyses: &[PureAnalysis],
        opts: &[Optimization],
        max_rounds: usize,
    ) -> (Program, PipelineReport) {
        let n = program.procs.len();
        let mut out = program.clone();
        let mut report = PipelineReport::default();
        // One compacted fingerprint slot per procedure, filled by cached
        // replays now and clean fresh results in the delivery sink —
        // procedure order regardless of jobs, so compaction bytes are
        // deterministic.
        let mut fp_slots: Vec<Option<u64>> = vec![None; n];

        let max_steps = self.engine.budget().max_steps();
        let mut tasks: Vec<(usize, u64, Proc)> = Vec::new();
        for (i, proc) in program.procs.iter().enumerate() {
            let fp = fingerprint_proc(proc, analyses, opts, max_rounds, max_steps);
            if let Some(replayed) = self.store.get(fp).and_then(|e| replay(proc, e)) {
                out = out.with_proc_replaced(replayed.0);
                report.absorb(replayed.1);
                fp_slots[i] = Some(fp);
                continue;
            }
            tasks.push((i, fp, proc.clone()));
        }

        if !tasks.is_empty() {
            let meta: Vec<(usize, u64, String)> = tasks
                .iter()
                .map(|(i, fp, p)| (*i, *fp, p.name.to_string()))
                .collect();
            let engine = self.engine.clone();
            pool::run_ordered(
                self.jobs,
                tasks,
                |_idx, (_, _, proc)| {
                    let worker = engine.clone().with_budget(engine.budget().fork());
                    optimize_proc(&worker, proc, analyses, opts, max_rounds)
                },
                |idx, result| {
                    let (i, fp, name) = &meta[idx];
                    match result {
                        TaskResult::Done((optimized, rep)) => {
                            if rep.failures.is_empty() {
                                // Journal trouble degrades the store: a
                                // sick disk must not change the output.
                                self.store.insert(JournalEntry {
                                    fingerprint: *fp,
                                    proc: name.clone(),
                                    applied: rep.applied,
                                    rounds: rep.rounds,
                                    body: pretty_proc(&optimized),
                                });
                                fp_slots[*i] = Some(*fp);
                            }
                            out = out.with_proc_replaced(optimized);
                            report.absorb(rep);
                        }
                        TaskResult::Panicked(msg) => {
                            // The supervised retry already happened; a
                            // procedure that dies twice is quarantined
                            // whole (its input text stays in `out`).
                            report.absorb(PipelineReport {
                                failures: vec![PassFailure {
                                    kind: FailureKind::Panic,
                                    proc: name.clone(),
                                    pass: "pipeline".into(),
                                    round: 0,
                                    reason: format!("panicked: {msg}"),
                                }],
                                ..PipelineReport::default()
                            });
                        }
                    }
                },
            );
        }

        self.session_fps.extend(fp_slots.into_iter().flatten());
        (out, report)
    }

    /// Compacts the journal down to this session's outcomes and
    /// releases it. Compaction failure degrades (the appended records
    /// are still on disk and loadable); it never affects results.
    pub fn finish(&mut self) {
        self.store.finish(&self.session_fps);
    }
}

/// Replays a cached entry for `proc`: parses the stored optimized body
/// and synthesizes the clean report. `None` (fall through to a fresh
/// run) if the record does not actually describe this procedure or its
/// body no longer parses.
fn replay(proc: &Proc, cached: &JournalEntry) -> Option<(Proc, PipelineReport)> {
    if cached.proc != proc.name.to_string() {
        return None;
    }
    let parsed = parse_program(&cached.body).ok()?;
    let replayed = parsed.procs.into_iter().next()?;
    if replayed.name != proc.name {
        return None;
    }
    let report = PipelineReport {
        applied: cached.applied,
        rounds: cached.rounds,
        cached: 1,
        failures: Vec::new(),
    };
    Some((replayed, report))
}

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
fn optimize_proc(
    engine: &Engine,
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
                            engine.run_pure_analysis(&mut ap, analysis)
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
                fault::point_err("engine.pass")
                    .map_err(|e| EngineError::Guard(cobalt_dsl::GuardError::new(e.to_string())))?;
                engine.apply(&ap, opt)
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
            format!("panicked: {}", pool::panic_message(payload.as_ref())),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_dsl::{Guard, LabelArgPat, LabelEnv, VarPat};

    fn proc_of(src: &str) -> Proc {
        parse_program(src).unwrap().procs.remove(0)
    }

    #[test]
    fn record_codec_round_trips() {
        let entry = JournalEntry {
            fingerprint: 0xDEAD_BEEF_0BA1_7000,
            proc: "weird\tname\nwith\\escapes".into(),
            applied: 7,
            rounds: 3,
            body: "proc main(x) {\n    /* 0 */ return x;\n}\n".into(),
        };
        let decoded = JournalEntry::decode(&entry.encode()).unwrap();
        assert_eq!(decoded, entry);
    }

    /// The on-disk bytes of one record, pinned literally so a codec
    /// change cannot silently orphan existing journals.
    #[test]
    fn record_bytes_are_golden() {
        let entry = JournalEntry {
            fingerprint: 0xDEAD_BEEF_0BA1_7000,
            proc: "main".into(),
            applied: 7,
            rounds: 3,
            body: "proc main(x) {\n    return x;\n}\n".into(),
        };
        assert_eq!(
            entry.encode(),
            b"v1\tfp=deadbeef0ba17000\tproc=main\tapplied=7\trounds=3\t\
              body=proc main(x) {\\n    return x;\\n}\\n"
        );
    }

    #[test]
    fn unknown_versions_and_garbage_decode_to_none() {
        assert!(JournalEntry::decode(b"v0\tfp=00").is_none());
        assert!(JournalEntry::decode(b"not a record").is_none());
        assert!(JournalEntry::decode(&[0xFF, 0xFE]).is_none());
        // Missing required fields.
        assert!(JournalEntry::decode(b"v1\tfp=0000000000000001").is_none());
    }

    #[test]
    fn fingerprint_covers_pipeline_inputs() {
        let p = proc_of("proc main(x) { a := 2; return a; }");
        let q = proc_of("proc main(x) { a := 3; return a; }");
        let base = fingerprint_proc(&p, &[], &[], 5, None);
        assert_ne!(base, fingerprint_proc(&q, &[], &[], 5, None));
        assert_ne!(base, fingerprint_proc(&p, &[], &[], 6, None));
        assert_ne!(base, fingerprint_proc(&p, &[], &[], 5, Some(100)));
        assert_eq!(base, fingerprint_proc(&p, &[], &[], 5, None));
    }

    #[test]
    fn replay_rejects_name_mismatch_and_bad_bodies() {
        let p = proc_of("proc main(x) { return x; }");
        let good = JournalEntry {
            fingerprint: 1,
            proc: "main".into(),
            applied: 0,
            rounds: 1,
            body: "proc main(x) { return x; }".into(),
        };
        assert!(replay(&p, &good).is_some());
        let mut wrong_name = good.clone();
        wrong_name.proc = "other".into();
        assert!(replay(&p, &wrong_name).is_none());
        let mut bad_body = good;
        bad_body.body = "not a program".into();
        assert!(replay(&p, &bad_body).is_none());
    }

    fn const_prop() -> Optimization {
        cobalt_dsl::parse_optimization(
            "forward const_prop {
                stmt(Y := C)
                followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        )
        .unwrap()
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
        let analyses = [cobalt_dsl::parse_analysis(
            "analysis taint {
                stmt(decl X)
                followed by !stmt(... := &X)
                defines notTainted(X)
                with witness notPointedTo(X)
            }",
        )
        .unwrap()];
        let (out, report) = cobalt_support::fault::with_faults("engine.analysis:panic@1", || {
            optimize(&analyses, &[const_prop()])
        });
        // The analysis is skipped, the optimization still runs.
        assert!(report.degraded());
        assert_eq!(report.skipped_passes(), vec!["analysis:taint"]);
        assert_eq!(out.main().unwrap().stmts[1].to_string(), "b := 2");
    }
}
