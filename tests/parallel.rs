//! Parallel obligation discharge (ISSUE 5, DESIGN.md §11).
//!
//! The acceptance contract: `--jobs N` is an implementation detail of
//! *how fast* obligations discharge, never of *what* is proved. These
//! tests pin the determinism half — identical reports, summaries, and
//! journal bytes at any worker count, including under injected worker
//! panics and journal-lock faults — and the degradation half: faults
//! change throughput, not verdicts.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::pretty_program;
use cobalt::verify::{Report, ResumeMode, SemanticMeanings, Session, Verifier};
use cobalt_bench::many_proc_program;
use cobalt_support::journal::Journal;
use cobalt_support::{fault, prop, prop_assert, prop_assert_eq, props};
use std::path::PathBuf;
use std::time::Duration;

fn verifier(jobs: usize) -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard()).with_jobs(jobs)
}

fn scratch_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cobalt_parallel_{}_{tag}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Everything observable about a report except wall-clock time.
fn normalize(report: &Report) -> Vec<(String, bool, String, u32, u32, bool, bool)> {
    report
        .outcomes
        .iter()
        .map(|o| {
            (
                o.id.clone(),
                o.proved,
                o.detail.clone(),
                o.attempts,
                o.escalations,
                o.resource_limited,
                o.cached,
            )
        })
        .collect()
}

/// The summary with its trailing ` in <duration>` clause removed.
fn summary_sans_time(report: &Report) -> String {
    let s = report.summary();
    match s.rfind(" in ") {
        Some(at) => s[..at].to_string(),
        None => s,
    }
}

/// Journal record payloads with the (timing-dependent) `elapsed_us`
/// field zeroed; everything else must be byte-identical.
fn journal_sans_time(path: &PathBuf) -> Vec<String> {
    let opened = Journal::open(path, Duration::ZERO).expect("journal reopens");
    assert!(!opened.report.corrupted(), "{:?}", opened.report);
    opened
        .records
        .iter()
        .map(|r| {
            String::from_utf8(r.clone())
                .expect("records are utf-8")
                .split('\t')
                .map(|f| {
                    if f.starts_with("elapsed_us=") {
                        "elapsed_us=0"
                    } else {
                        f
                    }
                })
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

/// Acceptance: over the full built-in registry, a 4-worker verifier
/// produces exactly the reports a sequential one does — same ids in the
/// same order, same verdicts, same attempt/escalation bookkeeping, same
/// summaries (modulo wall clock).
#[test]
fn full_registry_reports_are_identical_at_jobs_one_and_four() {
    let seq = verifier(1);
    let par = verifier(4);
    for a in cobalt::opts::all_analyses() {
        let r1 = seq.verify_analysis(&a).unwrap();
        let r4 = par.verify_analysis(&a).unwrap();
        assert_eq!(normalize(&r1), normalize(&r4), "{}", a.name);
        assert_eq!(summary_sans_time(&r1), summary_sans_time(&r4));
    }
    for o in cobalt::opts::all_optimizations() {
        let r1 = seq.verify_optimization(&o).unwrap();
        let r4 = par.verify_optimization(&o).unwrap();
        assert_eq!(normalize(&r1), normalize(&r4), "{}", o.name);
        assert_eq!(summary_sans_time(&r1), summary_sans_time(&r4));
    }
}

/// The buggy §6 variants fail identically too: every obligation of an
/// unsound rule reaches its own verdict whatever its siblings find, so
/// the report — ids, verdicts, details, attempt bookkeeping, summary —
/// is the same at any worker count (and so is the CLI exit code, the
/// part a build system scripts against).
#[test]
fn unsound_rules_are_rejected_identically_at_any_jobs() {
    for o in cobalt::opts::buggy_optimizations() {
        let r1 = verifier(1).verify_optimization(&o).unwrap();
        let r4 = verifier(4).verify_optimization(&o).unwrap();
        assert!(!r1.all_proved(), "{}: buggy rule must fail", o.name);
        assert_eq!(normalize(&r1), normalize(&r4), "{}", o.name);
        assert_eq!(summary_sans_time(&r1), summary_sans_time(&r4), "{}", o.name);
    }
}

/// Journaled runs leave byte-identical journals (modulo the recorded
/// wall clock) at jobs 1 and 4: parallel discharge hands outcomes to
/// the journaling sink in obligation order, so append order — and
/// therefore the compacted file — matches sequential mode.
#[test]
fn journal_contents_are_identical_at_jobs_one_and_four() {
    let registry = cobalt::opts::all_optimizations();
    let mut journals = Vec::new();
    for jobs in [1usize, 4] {
        let path = scratch_journal(&format!("bytes_j{jobs}"));
        let mut session =
            Session::with_journal(verifier(jobs), &path, ResumeMode::Resume);
        for opt in &registry {
            assert!(session.verify_optimization(opt).unwrap().all_proved());
        }
        session.finish();
        assert!(session.degraded().is_none());
        journals.push(journal_sans_time(&path));
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(
        journals[0], journals[1],
        "journal record streams must not depend on --jobs"
    );
}

/// A worker panic injected mid-batch is retried by the pool supervisor:
/// the report is *identical* to an unfaulted sequential run, not merely
/// equivalent — the obligation that died on its first slot proves on
/// the retry.
#[test]
fn injected_worker_panic_is_retried_to_an_identical_report() {
    let opt = cobalt::opts::optimization("const_prop").unwrap();
    let baseline = verifier(1).verify_optimization(&opt).unwrap();
    let faulted = fault::with_faults("pool.task:panic@3", || {
        verifier(4).verify_optimization(&opt).unwrap()
    });
    assert!(faulted.all_proved(), "{}", faulted.summary());
    assert_eq!(normalize(&baseline), normalize(&faulted));
}

/// A journal-lock fault (simulated contention) degrades the session to
/// uncached verification — verdicts unchanged, `degraded()` set, no
/// journal written — identically at jobs 1 and 4.
#[test]
fn journal_lock_fault_degrades_identically_at_any_jobs() {
    let opt = cobalt::opts::optimization("const_prop").unwrap();
    let baseline = verifier(1).verify_optimization(&opt).unwrap();
    for jobs in [1usize, 4] {
        let path = scratch_journal(&format!("lockfault_j{jobs}"));
        let mut session = fault::with_faults("journal.lock:fail@1", || {
            Session::with_journal(verifier(jobs), &path, ResumeMode::Resume)
        });
        let reason = session
            .degraded()
            .unwrap_or_else(|| panic!("jobs={jobs}: lock fault must degrade"))
            .to_string();
        assert!(reason.contains("journal lock unavailable"), "{reason}");
        let report = session.verify_optimization(&opt).unwrap();
        session.finish();
        assert_eq!(
            normalize(&baseline),
            normalize(&report),
            "jobs={jobs}: degraded runs keep their verdicts"
        );
        std::fs::remove_file(&path).ok();
    }
}

/// A parallel run killed mid-suite (dropped without `finish()`) leaves
/// a journal a later run — sequential or parallel — resumes from, with
/// the dead run's obligations fully cached. The in-process mirror of
/// the soak-test round and of `scripts/verify.sh`'s kill stage.
#[test]
fn kill_mid_parallel_run_resumes_from_the_journal() {
    let path = scratch_journal("kill_resume");
    let registry = cobalt::opts::all_optimizations();
    assert!(registry.len() >= 3);

    let mut killed = Session::with_journal(verifier(4), &path, ResumeMode::Resume);
    for opt in &registry[..2] {
        assert!(killed.verify_optimization(opt).unwrap().all_proved());
    }
    drop(killed); // the kill: no finish, no compaction — and the lock dies too

    for resume_jobs in [1usize, 4] {
        let mut resumed =
            Session::with_journal(verifier(resume_jobs), &path, ResumeMode::Resume);
        assert!(
            !resumed.load_report().corrupted(),
            "in-order append+sync leaves a clean journal: {:?}",
            resumed.load_report()
        );
        for (i, opt) in registry.iter().enumerate() {
            let report = resumed.verify_optimization(opt).unwrap();
            assert!(report.all_proved(), "{}", report.summary());
            if i < 2 {
                assert_eq!(
                    report.cached_count(),
                    report.outcomes.len(),
                    "jobs={resume_jobs}, {}: proved before the kill",
                    opt.name
                );
            }
        }
        drop(resumed); // keep the journal warm for the second pass
    }
    std::fs::remove_file(&path).ok();
}

/// Runs a full journaled optimization of `prog` at the given worker
/// count and returns everything observable: program text, the
/// machine-readable report, and the compacted journal bytes.
fn optimize_observables(
    prog: &cobalt::il::Program,
    jobs: usize,
    tag: &str,
) -> (String, String, Vec<u8>) {
    let path = scratch_journal(tag);
    let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .with_jobs(jobs)
        .with_journal(&path, ResumeMode::Resume);
    assert!(session.is_journaled(), "{:?}", session.degraded());
    let (out, report) = session.optimize_program(
        prog,
        &cobalt::opts::all_analyses(),
        &cobalt::opts::default_pipeline(),
        3,
    );
    session.finish();
    assert!(session.degraded().is_none(), "{:?}", session.degraded());
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    (pretty_program(&out), report.json_lines(), bytes)
}

/// Acceptance (ISSUE 7): over a 12-procedure program, the optimized
/// program bytes, the pipeline report, and the journal bytes are
/// byte-identical at jobs 1 and 4 — `--jobs` may only change
/// wall-clock, never output. (Engine journal records carry no
/// timestamps at all, so this is raw `==`, no normalization.)
#[test]
fn optimize_output_report_and_journal_bytes_identical_at_jobs_one_and_four() {
    let prog = many_proc_program(12, 30, 7);
    let (p1, r1, j1) = optimize_observables(&prog, 1, "opt_bytes_j1");
    let (p4, r4, j4) = optimize_observables(&prog, 4, "opt_bytes_j4");
    assert_eq!(p1, p4, "optimized program must not depend on --jobs");
    assert_eq!(r1, r4, "pipeline report must not depend on --jobs");
    assert_eq!(j1, j4, "journal bytes must not depend on --jobs");
}

/// Cross-run determinism regression (ISSUE 7 satellite): dataflow fact
/// sets iterate in canonical order, so two runs in fresh processes —
/// here, fresh engines in one process, which with the former
/// `RandomState`-hashed fact sets already diverged — produce identical
/// bytes. Guards against reintroducing iteration-order dependence.
#[test]
fn optimize_runs_are_deterministic_across_engines() {
    let prog = many_proc_program(6, 35, 19);
    let render = || {
        let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard()));
        let (out, report) = session.optimize_program(
            &prog,
            &cobalt::opts::all_analyses(),
            &cobalt::opts::default_pipeline(),
            3,
        );
        format!("{}\n{}", report.json_lines(), pretty_program(&out))
    };
    let first = render();
    for _ in 0..3 {
        assert_eq!(first, render(), "optimization must be run-deterministic");
    }
}

/// A worker panic injected into the optimization pool is retried by the
/// supervisor; if the pass dies again the procedure is quarantined
/// whole — but a one-shot fault must yield output identical to the
/// clean sequential run.
#[test]
fn optimize_worker_panic_is_retried_to_identical_output() {
    let prog = many_proc_program(8, 25, 3);
    let analyses = cobalt::opts::all_analyses();
    let passes = cobalt::opts::default_pipeline();
    let (baseline, base_report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .optimize_program(&prog, &analyses, &passes, 3);
    let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(4);
    let (out, report) = fault::with_faults("pool.task:panic@2", || {
        session.optimize_program(&prog, &analyses, &passes, 3)
    });
    assert_eq!(pretty_program(&baseline), pretty_program(&out));
    assert_eq!(base_report.json_lines(), report.json_lines());
}

/// A journal written at one worker count warms a resume at another:
/// every procedure replays as cached, and the replayed program is
/// byte-identical to the one the cold run emitted.
#[test]
fn optimize_journal_warms_across_jobs_counts() {
    let prog = many_proc_program(10, 25, 11);
    let analyses = cobalt::opts::all_analyses();
    let passes = cobalt::opts::default_pipeline();
    let path = scratch_journal("opt_warm_cross");
    let mut cold = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .with_jobs(4)
        .with_journal(&path, ResumeMode::Resume);
    let (cold_out, cold_report) = cold.optimize_program(&prog, &analyses, &passes, 3);
    cold.finish();
    assert_eq!(cold_report.cached, 0);

    let mut warm = OptimizeSession::new(Engine::new(LabelEnv::standard()))
        .with_jobs(1)
        .with_journal(&path, ResumeMode::Resume);
    let (warm_out, warm_report) = warm.optimize_program(&prog, &analyses, &passes, 3);
    warm.finish();
    assert_eq!(
        warm_report.cached,
        prog.procs.len(),
        "{}",
        warm_report.summary()
    );
    assert_eq!(warm_report.applied, cold_report.applied);
    assert_eq!(pretty_program(&cold_out), pretty_program(&warm_out));
    std::fs::remove_file(&path).ok();
}

props! {
    config = prop::Config::with_cases(12);

    /// Seeded equivalence sweep: any rule of the registry, any worker
    /// count 1..=4, any of the fault regimes the supervisor must absorb
    /// (none / a one-shot worker panic at a random obligation / lock
    /// contention at session open) — the normalized report always
    /// equals the clean sequential baseline.
    fn any_rule_any_jobs_any_fault_matches_sequential(
        rule in 0usize..64,
        jobs in 1usize..5,
        regime in 0u8..3,
        panic_at in 1u64..7,
    ) {
        let registry = cobalt::opts::all_optimizations();
        let opt = &registry[rule % registry.len()];
        let baseline = verifier(1).verify_optimization(opt).unwrap();
        let (normalized, degraded_ok) = match regime {
            // No faults: pure jobs sweep.
            0 => {
                let r = verifier(jobs).verify_optimization(opt).unwrap();
                (normalize(&r), true)
            }
            // One worker panic, somewhere in the batch; the supervisor
            // retries it (a fault arg past the batch simply never
            // fires — also a valid case).
            1 => {
                let spec = format!("pool.task:panic@{panic_at}");
                let r = fault::with_faults(&spec, || {
                    verifier(jobs).verify_optimization(opt).unwrap()
                });
                (normalize(&r), true)
            }
            // Lock contention at open: journaling degrades, proving
            // doesn't.
            _ => {
                let path = scratch_journal(&format!("prop_{rule}_{jobs}_{panic_at}"));
                let mut session = fault::with_faults("journal.lock:fail@1", || {
                    Session::with_journal(verifier(jobs), &path, ResumeMode::Resume)
                });
                let degraded = session.degraded().is_some();
                let r = session.verify_optimization(opt).unwrap();
                session.finish();
                std::fs::remove_file(&path).ok();
                (normalize(&r), degraded)
            }
        };
        prop_assert!(degraded_ok, "lock fault must mark the session degraded");
        prop_assert_eq!(normalize(&baseline), normalized);
    }

    /// Seeded byte-identity sweep for the optimizer: any generated
    /// multi-procedure program, any worker count 1..=4 — the optimized
    /// program and pipeline report always equal the sequential
    /// baseline byte-for-byte.
    fn optimize_any_seed_any_jobs_matches_sequential(
        seed in 0u64..1_000,
        jobs in 1usize..5,
        procs in 2usize..7,
    ) {
        let prog = many_proc_program(procs, 20, seed);
        let analyses = cobalt::opts::all_analyses();
        let passes = cobalt::opts::default_pipeline();
        let (base_out, base_report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .optimize_program(&prog, &analyses, &passes, 2);
        let mut session =
            OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(jobs);
        let (out, report) = session.optimize_program(&prog, &analyses, &passes, 2);
        prop_assert_eq!(pretty_program(&base_out), pretty_program(&out));
        prop_assert_eq!(base_report.json_lines(), report.json_lines());
    }
}
