//! Bank ownership modes (ISSUE 6, DESIGN.md §12).
//!
//! The acceptance contract: [`BankMode`] is an implementation detail of
//! *how cheaply* a batch's obligations are built, never of *what* is
//! proved or reported. Fresh-bank-per-obligation is the oracle; the
//! batch-shared default must match it in reports, summaries, exit-code
//! classification, journal bytes, and session fingerprints — at any
//! worker count, for sound and buggy rules alike, with or without
//! injected faults.

use cobalt::dsl::LabelEnv;
use cobalt::logic::Limits;
use cobalt::verify::{
    fingerprint_obligation, obligations_for_optimization_with, BankMode, Report, ResumeMode,
    RetryPolicy, SemanticMeanings, Session, Verifier,
};
use cobalt_support::journal::Journal;
use cobalt_support::{fault, prop, prop_assert_eq, props};
use std::path::PathBuf;
use std::time::Duration;

fn verifier(jobs: usize, mode: BankMode) -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
        .with_jobs(jobs)
        .with_bank_mode(mode)
}

fn scratch_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cobalt_bankmode_{}_{tag}.cobj",
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

/// Acceptance: over the full built-in registry, the shared-bank default
/// produces exactly the reports the fresh-bank oracle does — same ids
/// in the same order, same verdicts, same attempt bookkeeping, same
/// summaries (modulo wall clock) — at one worker and at four.
#[test]
fn full_registry_reports_are_identical_across_bank_modes() {
    for jobs in [1usize, 4] {
        let fresh = verifier(jobs, BankMode::PerObligation);
        let shared = verifier(jobs, BankMode::BatchShared);
        for a in cobalt::opts::all_analyses() {
            let rf = fresh.verify_analysis(&a).unwrap();
            let rs = shared.verify_analysis(&a).unwrap();
            assert_eq!(normalize(&rf), normalize(&rs), "{} jobs={jobs}", a.name);
            assert_eq!(summary_sans_time(&rf), summary_sans_time(&rs));
        }
        for o in cobalt::opts::all_optimizations() {
            let rf = fresh.verify_optimization(&o).unwrap();
            let rs = shared.verify_optimization(&o).unwrap();
            assert_eq!(normalize(&rf), normalize(&rs), "{} jobs={jobs}", o.name);
            assert_eq!(summary_sans_time(&rf), summary_sans_time(&rs));
        }
    }
}

/// The buggy §6 variants fail identically in both modes: same verdict,
/// same exit-code classification, same failure details — including the
/// open-branch counterexample context, which must render from symbol
/// names, never from raw bank-layout-dependent ids.
#[test]
fn unsound_rules_are_rejected_identically_across_bank_modes() {
    for o in cobalt::opts::buggy_optimizations() {
        let rf = verifier(1, BankMode::PerObligation)
            .verify_optimization(&o)
            .unwrap();
        let rs = verifier(1, BankMode::BatchShared)
            .verify_optimization(&o)
            .unwrap();
        assert!(!rf.all_proved(), "{}: buggy rule must fail", o.name);
        assert_eq!(normalize(&rf), normalize(&rs), "{}", o.name);
        assert_eq!(
            rf.only_resource_limited_failures(),
            rs.only_resource_limited_failures(),
            "{}: the exit-code classification must not depend on the bank mode",
            o.name
        );
    }
}

/// Golden pin of the §6 counterexample context: the report's failure
/// detail is identical in both bank modes, names the witness terms
/// symbolically, and never leaks a raw `TermId` (whose numbering is
/// bank-layout-dependent and would differ under a shared base).
#[test]
fn open_branch_context_is_golden_across_bank_modes() {
    let buggy = cobalt::opts::buggy_optimizations().remove(0);
    let details: Vec<String> = [BankMode::PerObligation, BankMode::BatchShared]
        .into_iter()
        .map(|mode| {
            let report = verifier(1, mode).verify_optimization(&buggy).unwrap();
            let failed = report
                .outcomes
                .iter()
                .find(|o| !o.proved && o.id.starts_with("F2/assign"))
                .expect("the unsound variant must fail witness preservation");
            failed.detail.clone()
        })
        .collect();
    assert_eq!(
        details[0], details[1],
        "counterexample context must not depend on the bank mode"
    );
    let detail = &details[0];
    assert!(
        detail.contains("context:"),
        "a counterexample context is reported: {detail}"
    );
    assert!(
        detail.contains("pv$"),
        "context names pattern-variable constants symbolically: {detail}"
    );
    assert!(
        !detail.contains("TermId("),
        "no raw term ids may leak into user-visible output: {detail}"
    );
}

/// Journaled runs leave byte-identical journals (modulo the recorded
/// wall clock) in both modes: obligation fingerprints hash the
/// *rendered* hypotheses and goal, so the bank layout underneath them
/// is invisible.
#[test]
fn journal_contents_are_identical_across_bank_modes() {
    let registry = cobalt::opts::all_optimizations();
    let mut journals = Vec::new();
    for mode in [BankMode::PerObligation, BankMode::BatchShared] {
        let path = scratch_journal(&format!("bytes_{mode:?}"));
        let mut session =
            Session::with_journal(verifier(1, mode), &path, ResumeMode::Resume);
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
        "journal record streams must not depend on the bank mode"
    );
}

/// Fingerprints are equal obligation-by-obligation across modes, and a
/// journal written before the shared bank landed (simulated by a
/// fresh-bank session) warm-resumes fully cached under the shared-bank
/// default — the no-cache-invalidation acceptance criterion.
#[test]
fn fingerprints_survive_the_bank_mode_switch() {
    let opt = cobalt::opts::optimization("const_prop").unwrap();
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let tiers = RetryPolicy::default().tiers;
    let fresh = obligations_for_optimization_with(&opt, &env, &meanings, BankMode::PerObligation)
        .unwrap();
    let shared = obligations_for_optimization_with(&opt, &env, &meanings, BankMode::BatchShared)
        .unwrap();
    assert_eq!(fresh.len(), shared.len());
    for (f, s) in fresh.iter().zip(&shared) {
        assert_eq!(f.id, s.id);
        assert_eq!(
            fingerprint_obligation("rule-src", f, &tiers),
            fingerprint_obligation("rule-src", s, &tiers),
            "{}: fingerprints must be bank-layout-independent",
            f.id
        );
    }

    // Warm resume across the switch.
    let path = scratch_journal("resume_across_modes");
    let mut cold = Session::with_journal(
        verifier(1, BankMode::PerObligation),
        &path,
        ResumeMode::Resume,
    );
    assert!(cold.verify_optimization(&opt).unwrap().all_proved());
    cold.finish();
    drop(cold);
    let mut warm = Session::with_journal(
        verifier(1, BankMode::BatchShared),
        &path,
        ResumeMode::Resume,
    );
    let report = warm.verify_optimization(&opt).unwrap();
    assert!(report.all_proved(), "{}", report.summary());
    assert_eq!(
        report.cached_count(),
        report.outcomes.len(),
        "every outcome journaled under fresh banks must replay under shared banks"
    );
    warm.finish();
    std::fs::remove_file(&path).ok();
}

/// Regression for the done-instance bookkeeping bug: an instantiation
/// discarded by a tripped term budget must be *retried* on the next
/// limit tier, not remembered as already-done. Under a starved tier 0
/// the rule still proves — via escalation — in both bank modes.
#[test]
fn budget_tripped_instantiations_retry_and_prove_on_escalation() {
    let starved = RetryPolicy {
        tiers: vec![
            Limits {
                max_splits: 500,
                max_inst_rounds: 2,
                max_terms: 1,
                deadline: Some(Duration::from_millis(250)),
            },
            Limits::default(),
        ],
        report_deadline: None,
    };
    let opt = cobalt::opts::optimization("const_prop").unwrap();
    for mode in [BankMode::PerObligation, BankMode::BatchShared] {
        let report = verifier(1, mode)
            .with_retry_policy(starved.clone())
            .verify_optimization(&opt)
            .unwrap();
        assert!(report.all_proved(), "{mode:?}: {}", report.summary());
        let escalated: u32 = report.outcomes.iter().map(|o| o.escalations).sum();
        assert!(
            escalated >= 1,
            "{mode:?}: a one-term tier must trip and escalate at least once"
        );
    }
}

props! {
    config = prop::Config::with_cases(12);

    /// Seeded equivalence sweep: any rule of the registry (sound and
    /// buggy), any worker count 1 or 4, with or without an injected
    /// one-shot worker panic — the shared-bank report always equals the
    /// fresh-bank report under the same regime.
    fn any_rule_any_jobs_any_fault_matches_across_modes(
        rule in 0usize..64,
        four_jobs in 0u8..2,
        faulted in 0u8..2,
        panic_at in 1u64..7,
    ) {
        let jobs = if four_jobs == 1 { 4 } else { 1 };
        let mut registry = cobalt::opts::all_optimizations();
        registry.extend(cobalt::opts::buggy_optimizations());
        let opt = &registry[rule % registry.len()];
        let run = |mode: BankMode| {
            let v = verifier(jobs, mode);
            if faulted == 1 {
                let spec = format!("pool.task:panic@{panic_at}");
                fault::with_faults(&spec, || v.verify_optimization(opt).unwrap())
            } else {
                v.verify_optimization(opt).unwrap()
            }
        };
        let rf = run(BankMode::PerObligation);
        let rs = run(BankMode::BatchShared);
        prop_assert_eq!(normalize(&rf), normalize(&rs));
        prop_assert_eq!(summary_sans_time(&rf), summary_sans_time(&rs));
    }
}
