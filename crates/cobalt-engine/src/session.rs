//! Crash-safe, parallel optimization sessions: an [`OptimizeSession`]
//! is the one way to optimize a program. It wraps an [`Engine`] and an
//! optional persistent fixpoint journal so that a killed
//! `cobalt optimize --journal` run resumes *warm* —
//! procedures whose pipeline already completed cleanly are replayed
//! from the journal as cached instead of being re-optimized — and runs
//! per-procedure pipelines on the shared worker pool
//! (`cobalt optimize --jobs N`). See `DESIGN.md` §13.
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

use crate::engine::Engine;
use crate::resilient::{FailureKind, PassFailure, PipelineReport};
use cobalt_dsl::{Optimization, PureAnalysis};
use cobalt_il::{parse_program, pretty_proc, Proc, Program};
use cobalt_support::journal::{
    decode_fields, encode_fields, Fnv64, LoadReport, Record, ResumeMode, Store, DEFAULT_LOCK_WAIT,
};
use cobalt_support::pool::{self, TaskResult};
use std::path::Path;

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
                    worker.optimize_proc_resilient(proc, analyses, opts, max_rounds)
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
