//! Robustness: resource-governed proving and graceful degradation.
//!
//! The paper's workflow assumes the prover may be slow or may give up —
//! "Simplify fails to prove it within a reasonable amount of time" is a
//! legitimate outcome (§5.1). These tests pin down the engineering that
//! makes that safe in practice: hard deadlines produce `Unknown`, not
//! hangs; degenerate limits fail fast, not crash; a prover panic is
//! contained to one obligation; and a pass that dies mid-pipeline is
//! skipped while the rest of the compiler keeps its (machine-verified)
//! soundness guarantee.

use cobalt::dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt::engine::{AnalyzedProc, Engine, FailureKind, OptimizeSession, PipelineReport};
use cobalt::il::{generate, pretty_program, EvalError, GenConfig, Interp, Program};
use cobalt::logic::Limits;
use cobalt::verify::{ResumeMode, RetryPolicy, SemanticMeanings, Session, Verifier};
use cobalt_support::budget::Budget;
use cobalt_support::fault;
use std::path::PathBuf;
use std::time::Duration;

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

fn scratch_journal(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "cobalt_robustness_{}_{tag}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    path
}

/// Acceptance: under a 50ms per-report deadline the *whole* built-in
/// suite still completes — every obligation gets an outcome (proved, or
/// a deadline/limit `Unknown`), nothing hangs, nothing panics, and no
/// failure claims unsoundness.
#[test]
fn fifty_ms_deadline_completes_suite_without_hang_or_panic() {
    let v = verifier().with_retry_policy(
        RetryPolicy::default().with_report_deadline(Duration::from_millis(50)),
    );
    for a in cobalt::opts::all_analyses() {
        let report = v.verify_analysis(&a).unwrap();
        assert!(!report.outcomes.is_empty());
        assert!(
            report.only_resource_limited_failures(),
            "{}: a deadline failure must not look like unsoundness: {:#?}",
            report.name,
            report.outcomes
        );
    }
    for o in cobalt::opts::all_optimizations() {
        let report = v.verify_optimization(&o).unwrap();
        assert!(!report.outcomes.is_empty());
        assert!(
            report.only_resource_limited_failures(),
            "{}: a deadline failure must not look like unsoundness: {:#?}",
            report.name,
            report.outcomes
        );
        // Generous sanity bound: the report deadline is enforced per
        // report, modulo one in-flight prover attempt.
        assert!(
            report.elapsed < Duration::from_secs(30),
            "{}: report took {:?}",
            report.name,
            report.elapsed
        );
    }
}

/// The default retry policy changes nothing about E1: everything still
/// proves, and the bookkeeping records at least one attempt per
/// obligation.
#[test]
fn default_policy_proves_const_prop_with_attempt_bookkeeping() {
    let report = verifier()
        .verify_optimization(&cobalt::opts::optimization("const_prop").unwrap())
        .unwrap();
    assert!(report.all_proved(), "{}", report.summary());
    assert!(report.total_attempts() >= report.outcomes.len() as u32);
    for o in &report.outcomes {
        assert!(o.attempts >= 1);
        assert_eq!(o.escalations, o.attempts - 1);
    }
    assert!(report.summary().contains("obligations proved"));
}

/// Degenerate limits (all zero) fail fast on *every* obligation — as a
/// resource limit, before any search or interning starts.
#[test]
fn degenerate_zero_limits_fail_every_obligation_fast() {
    let v = verifier().with_retry_policy(RetryPolicy {
        tiers: vec![Limits {
            max_splits: 0,
            max_inst_rounds: 0,
            max_terms: 0,
            deadline: None,
        }],
        report_deadline: None,
    });
    let start = std::time::Instant::now();
    let report = v
        .verify_optimization(&cobalt::opts::optimization("const_prop").unwrap())
        .unwrap();
    assert!(!report.outcomes.is_empty());
    for o in &report.outcomes {
        assert!(!o.proved, "{}: proved under zero limits?", o.id);
        assert!(o.resource_limited, "{}: {}", o.id, o.detail);
        assert_eq!(o.attempts, 1);
    }
    assert!(report.only_resource_limited_failures());
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "zero limits must fail fast, took {:?}",
        start.elapsed()
    );
}

/// Companion to the degenerate-limits fast-fail above, for the other
/// two ways a solver can be dead on arrival: a pre-tripped cancel flag
/// (the caller withdrew the run, e.g. a daemon drain) and an
/// already-expired deadline. Both must return a resource-limited
/// `Unknown` before any search or interning starts — a cancelled
/// worker that still pays NNF + congruence-closure setup per remaining
/// obligation would make cancellation slow to take effect.
#[test]
fn pre_tripped_cancel_and_expired_deadline_fail_before_search() {
    use cobalt::logic::{Formula, Outcome, ProofTask, Solver, Stats};
    use cobalt_support::pool::Cancel;

    // A goal that trivially proves, so only the fast-fail can explain
    // an Unknown outcome.
    let task_in = |s: &mut Solver| {
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        ProofTask {
            hypotheses: vec![Formula::Eq(x, y)],
            goal: Formula::Eq(y, x),
        }
    };

    let mut cancelled = Solver::new();
    let cancel = Cancel::new();
    cancel.trip();
    cancelled.set_budget(Budget::unlimited().with_cancel(cancel));
    let task = task_in(&mut cancelled);
    let out = cancelled.prove(&task);
    assert!(out.is_resource_limited(), "{out:?}");
    let Outcome::Unknown { reason, stats, .. } = out else {
        panic!("expected Unknown");
    };
    assert!(reason.contains("cancelled by caller before search"), "{reason}");
    assert_eq!(stats, Stats::default(), "no search work may have happened");

    let mut expired = Solver::new();
    expired.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
    let task = task_in(&mut expired);
    let out = expired.prove(&task);
    assert!(out.is_resource_limited(), "{out:?}");
    let Outcome::Unknown { reason, stats, .. } = out else {
        panic!("expected Unknown");
    };
    assert!(reason.contains("before search began"), "{reason}");
    assert_eq!(stats, Stats::default());
}

/// A prover panic is contained to the one obligation it occurred in:
/// that obligation fails with a `panicked: …` detail (and is *not*
/// counted as resource-limited), while every other obligation still
/// proves.
#[test]
fn prover_panic_is_isolated_to_one_obligation() {
    let report = fault::with_faults("checker.obligation:panic@1", || {
        verifier()
            .verify_optimization(&cobalt::opts::optimization("const_prop").unwrap())
            .unwrap()
    });
    let panicked: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.detail.starts_with("panicked:"))
        .collect();
    assert_eq!(panicked.len(), 1, "{:#?}", report.outcomes);
    assert!(!panicked[0].proved);
    assert!(!panicked[0].resource_limited);
    assert!(panicked[0].detail.contains("injected fault"));
    let others_proved = report
        .outcomes
        .iter()
        .filter(|o| !o.detail.starts_with("panicked:"))
        .all(|o| o.proved);
    assert!(others_proved, "{:#?}", report.outcomes);
    assert!(!report.only_resource_limited_failures());
}

/// Acceptance (ISSUE 4): a verification run killed mid-suite resumes
/// from its journal. The kill is simulated the way SIGKILL manifests in
/// process state — the `Session` is dropped without `finish()`, so the
/// journal holds the per-obligation records that were appended and
/// synced but was never compacted. The resumed run replays everything
/// the dead run proved and only proves the remainder.
#[test]
fn kill_mid_run_resume_skips_already_proved_obligations() {
    let path = scratch_journal("kill_resume");
    let registry = cobalt::opts::all_optimizations();
    assert!(registry.len() >= 3, "need several rules to kill between");

    // Run 1 gets through two rules, then the process "dies".
    let mut killed = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    for opt in &registry[..2] {
        assert!(killed.verify_optimization(opt).unwrap().all_proved());
    }
    drop(killed); // no finish(): no compaction, exactly what a kill leaves

    // Run 2 resumes: the dead run's obligations are cached, the rest
    // prove fresh, and the suite completes.
    let mut resumed = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    assert!(
        !resumed.load_report().corrupted(),
        "append+sync per outcome leaves a clean journal: {:?}",
        resumed.load_report()
    );
    for (i, opt) in registry.iter().enumerate() {
        let report = resumed.verify_optimization(opt).unwrap();
        assert!(report.all_proved(), "{}", report.summary());
        if i < 2 {
            assert_eq!(
                report.cached_count(),
                report.outcomes.len(),
                "{}: proved before the kill, must be fully cached: {}",
                opt.name,
                report.summary()
            );
        } else {
            assert_eq!(
                report.cached_count(),
                0,
                "{}: never reached before the kill",
                opt.name
            );
        }
    }
    resumed.finish();
    assert!(resumed.degraded().is_none());
    std::fs::remove_file(&path).ok();
}

/// A torn write — the tail record half-flushed when the machine died —
/// is detected, discarded, and re-proved on resume; every record before
/// the tear is still trusted and replayed.
#[test]
fn torn_write_on_kill_is_discarded_and_only_that_obligation_reproves() {
    let path = scratch_journal("torn");
    let registry = cobalt::opts::all_optimizations();

    let mut killed = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    for opt in &registry[..2] {
        assert!(killed.verify_optimization(opt).unwrap().all_proved());
    }
    drop(killed);

    // Tear the final record: chop three bytes off the file tail.
    let len = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 3).unwrap();
    drop(file);

    let mut resumed = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    assert!(
        resumed.load_report().corrupted(),
        "the tear must be reported: {:?}",
        resumed.load_report()
    );
    // Rule 0's records all predate the tear: fully cached.
    let first = resumed.verify_optimization(&registry[0]).unwrap();
    assert!(first.all_proved());
    assert_eq!(first.cached_count(), first.outcomes.len(), "{}", first.summary());
    // Rule 1 lost exactly its final record to the tear: one obligation
    // re-proves, the rest replay.
    let second = resumed.verify_optimization(&registry[1]).unwrap();
    assert!(second.all_proved(), "{}", second.summary());
    assert_eq!(
        second.cached_count(),
        second.outcomes.len() - 1,
        "exactly the torn record re-proves: {}",
        second.summary()
    );
    assert!(
        !second.outcomes.last().unwrap().cached,
        "the torn record was the last obligation journaled"
    );
    resumed.finish();

    // After finish() the journal is compacted and clean again.
    let clean = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    assert!(!clean.load_report().corrupted(), "{:?}", clean.load_report());
    std::fs::remove_file(&path).ok();
}

/// A journal write failure mid-run degrades the session to uncached
/// verification without corrupting what was already durable: the next
/// run still loads every record written before the fault.
#[test]
fn journal_write_fault_degrades_session_but_preserves_durable_records() {
    let path = scratch_journal("write_fault");
    let registry = cobalt::opts::all_optimizations();

    let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    let reports: Vec<_> = fault::with_faults("journal.write:fail@3", || {
        registry
            .iter()
            .map(|opt| session.verify_optimization(opt).unwrap())
            .collect()
    });
    // Verification itself is unharmed...
    for report in &reports {
        assert!(report.all_proved(), "{}", report.summary());
    }
    // ...but journaling shut down at the third append.
    let reason = session.degraded().expect("write fault must degrade").to_string();
    assert!(reason.contains("injected fault"), "{reason}");
    session.finish();

    let resumed = Session::with_journal(verifier(), &path, ResumeMode::Resume);
    assert!(!resumed.load_report().corrupted(), "{:?}", resumed.load_report());
    assert_eq!(
        resumed.load_report().records,
        2,
        "the two appends before the fault survive"
    );
    std::fs::remove_file(&path).ok();
}

/// E7-style semantic check: whenever the original returns a value, the
/// transformed program returns the same one.
fn check_equivalent(orig: &Program, new: &Program, arg: i64, context: &str) {
    match Interp::new(orig).with_fuel(200_000).run(arg) {
        Ok(v) => match Interp::new(new).with_fuel(400_000).run(arg) {
            Ok(w) => assert_eq!(v, w, "{context}: result changed for arg {arg}"),
            Err(e) => panic!("{context}: original returned {v}, transformed failed: {e}"),
        },
        Err(EvalError::Stuck { .. }) | Err(EvalError::OutOfFuel) => {}
        Err(other) => panic!("{context}: unexpected {other}"),
    }
}

/// Optimizes `prog` with every registry analysis and the default
/// pipeline for 3 rounds, through a fresh session on `engine`.
fn optimize(engine: &Engine, prog: &Program) -> (Program, PipelineReport) {
    OptimizeSession::new(engine.clone()).optimize_program(
        prog,
        &cobalt::opts::all_analyses(),
        &cobalt::opts::default_pipeline(),
        3,
    )
}

/// Acceptance: with a fault making a pass panic mid-pipeline, the
/// session completes, names the skipped pass, and the output is still
/// semantics-preserving by the differential harness.
#[test]
fn fault_injected_pass_panic_degrades_gracefully_and_preserves_semantics() {
    let engine = Engine::new(LabelEnv::standard());
    for seed in [7u64, 19, 42] {
        let prog = generate(&GenConfig::sized(30, seed));
        // Hit 2: the first pass application survives, the second one
        // panics — mid-pipeline, not at the start.
        let (out, report) =
            fault::with_faults("engine.pass:panic@2", || optimize(&engine, &prog));
        assert!(report.degraded(), "seed {seed}: fault did not fire");
        assert_eq!(report.skipped_passes().len(), 1);
        assert!(
            report.failures[0].reason.contains("injected fault"),
            "seed {seed}: {}",
            report.failures[0].reason
        );
        assert!(report.summary().contains("degraded: skipped"));
        for arg in -4..10 {
            check_equivalent(&prog, &out, arg, &format!("seed {seed}, degraded pipeline"));
        }
    }
}

/// Acceptance (ISSUE 7): an engine whose fixpoint budget is exhausted
/// quarantines every pass as a typed resource-limited failure — never a
/// crash, never a misoptimization. The output program is the input
/// program (sound by §4.1 noninterference: a skipped pass changes
/// nothing), and the report classifies the run for the exit-3 contract.
#[test]
fn engine_budget_exhaustion_quarantines_soundly_and_preserves_semantics() {
    let engine = Engine::new(LabelEnv::standard()).with_budget(Budget::unlimited().with_max_steps(0));
    for seed in [5u64, 23] {
        let prog = generate(&GenConfig::sized(30, seed));
        let (out, report) = optimize(&engine, &prog);
        assert!(report.degraded(), "seed {seed}: zero steps must degrade");
        assert!(
            report.resource_limited(),
            "seed {seed}: exhaustion must classify as resource-limited"
        );
        assert!(
            report
                .failures
                .iter()
                .all(|f| f.kind == FailureKind::ResourceLimited),
            "seed {seed}: {:#?}",
            report.failures
        );
        assert!(
            report.failures[0].reason.contains("step cap exhausted"),
            "seed {seed}: {}",
            report.failures[0].reason
        );
        // Passes that never enter a metered fixpoint (single-sweep
        // backward derivations) may still apply; every pass that *does*
        // need a fixpoint must be among the quarantined ones.
        assert!(
            !report.skipped_passes().is_empty(),
            "seed {seed}: the fixpoint passes must be quarantined"
        );
        for arg in -4..8 {
            check_equivalent(&prog, &out, arg, &format!("seed {seed}, exhausted budget"));
        }
    }
}

/// A generous budget is invisible: the governed engine produces exactly
/// the unlimited engine's output and the report stays clean.
#[test]
fn generous_budget_does_not_change_results() {
    let unlimited = Engine::new(LabelEnv::standard());
    let governed = Engine::new(LabelEnv::standard()).with_budget(
        Budget::unlimited()
            .with_max_steps(50_000_000)
            .with_deadline(Duration::from_secs(600)),
    );
    for seed in [7u64, 19] {
        let prog = generate(&GenConfig::sized(30, seed));
        let (a, ra) = optimize(&unlimited, &prog);
        let (b, rb) = optimize(&governed, &prog);
        assert_eq!(
            cobalt::il::pretty_program(&a),
            cobalt::il::pretty_program(&b),
            "seed {seed}"
        );
        assert_eq!(ra.applied, rb.applied, "seed {seed}");
        assert!(!rb.degraded(), "seed {seed}: {:#?}", rb.failures);
    }
}

/// Acceptance (ISSUE 7): an injected failure at the `engine.fixpoint`
/// entry quarantines the pass it hit, names the injected fault, and the
/// degraded pipeline is still semantics-preserving by the differential
/// harness.
#[test]
fn fault_injected_fixpoint_failure_degrades_and_preserves_semantics() {
    let engine = Engine::new(LabelEnv::standard());
    for seed in [7u64, 42] {
        let prog = generate(&GenConfig::sized(30, seed));
        let (out, report) =
            fault::with_faults("engine.fixpoint:fail@2", || optimize(&engine, &prog));
        assert!(report.degraded(), "seed {seed}: fault did not fire");
        assert!(
            report
                .failures
                .iter()
                .any(|f| f.kind == FailureKind::Error && f.reason.contains("injected fault")),
            "seed {seed}: {:#?}",
            report.failures
        );
        assert!(
            !report.resource_limited(),
            "seed {seed}: an injected error is a failure, not a resource limit"
        );
        for arg in -4..8 {
            check_equivalent(&prog, &out, arg, &format!("seed {seed}, fixpoint fault"));
        }
    }
}

/// Same contract for a failure injected at a merge point deep inside
/// the fixpoint loop — the mid-iteration abort must not leak a
/// half-updated solution into a rewrite.
#[test]
fn fault_injected_merge_failure_degrades_and_preserves_semantics() {
    let engine = Engine::new(LabelEnv::standard());
    for seed in [11u64, 29] {
        let prog = generate(&GenConfig::sized(30, seed));
        let (out, report) =
            fault::with_faults("engine.merge:fail@4", || optimize(&engine, &prog));
        // Branch-free seeds may never hit merge #4; the fault then
        // simply never fires, which is itself a valid (clean) run.
        if report.degraded() {
            assert!(
                report
                    .failures
                    .iter()
                    .all(|f| f.reason.contains("injected fault")),
                "seed {seed}: {:#?}",
                report.failures
            );
        }
        for arg in -4..8 {
            check_equivalent(&prog, &out, arg, &format!("seed {seed}, merge fault"));
        }
    }
}

// ---------------------------------------------------------------------------
// The verification daemon (`cobalt serve`): deadline disconnects, load
// shedding, single-flight dedup, fault degradation, graceful drain, and
// kill-the-daemon crash recovery.
// ---------------------------------------------------------------------------

mod serve {
    use super::*;
    use cobalt::serve::{
        request_with_retry, ClientConfig, ClientError, Request, RequestOp, ServeConfig,
        ServedFrom, Server, ServerHandle, Status,
    };
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;

    /// A one-rule suite (27 obligations) — the daemon's workload unit.
    const SUITE: &str = "forward const_prop {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    /// A distinct suite (different rule name → different fingerprint).
    const SUITE_B: &str = "forward const_prop_b {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    const SUITE_C: &str = "forward const_prop_c {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";

    fn verify_req(id: &str, suite: &str) -> Request {
        Request {
            id: id.into(),
            op: RequestOp::Verify {
                suite: Some(suite.into()),
                include_buggy: false,
            },
        }
    }

    fn client_cfg(handle: &ServerHandle, retries: u32) -> ClientConfig {
        ClientConfig {
            addr: handle.addr().to_string(),
            io_timeout: Duration::from_secs(120),
            retries,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(100),
        }
    }

    /// A client that stops talking is disconnected at the read
    /// deadline — and the daemon keeps serving everyone else.
    #[test]
    fn slow_client_is_disconnected_at_the_read_deadline() {
        let handle = Server::start(ServeConfig {
            read_timeout: Duration::from_millis(200),
            ..ServeConfig::default()
        })
        .unwrap();
        // Connect and go silent: the daemon must hang up on us.
        let mut mute = TcpStream::connect(handle.addr()).unwrap();
        mute.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut buf = [0u8; 16];
        let start = std::time::Instant::now();
        let n = mute.read(&mut buf).unwrap_or(0);
        assert_eq!(n, 0, "the daemon must close a silent connection");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "disconnect took {:?}",
            start.elapsed()
        );
        // The daemon is unharmed: a well-behaved client still gets
        // answered afterwards.
        let pong = request_with_retry(
            &client_cfg(&handle, 1),
            &Request { id: "p".into(), op: RequestOp::Ping },
        )
        .unwrap();
        assert_eq!(pong.status, Status::Ok);
        handle.shutdown();
        handle.join();
    }

    /// Overload: with one worker busy on a slow proof and a one-slot
    /// queue, excess requests get a typed `shed` with a usable
    /// retry hint — not an unbounded queue, not a hang.
    #[test]
    fn full_queue_sheds_with_typed_response_and_retry_hint() {
        let handle = fault::with_faults("checker.obligation:delay_ms@50", || {
            Server::start(ServeConfig {
                jobs: 1,
                queue_cap: 1,
                drain_wait: Duration::from_secs(60),
                ..ServeConfig::default()
            })
            .unwrap()
        });
        // The blocker: ~27 obligations × 50ms ≈ 1.4s of prover time.
        let blocker = {
            let cfg = client_cfg(&handle, 0);
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("blk", SUITE)))
        };
        // Give the dispatcher time to pick the blocker up, then fill
        // the queue and overflow it.
        std::thread::sleep(Duration::from_millis(400));
        let filler = {
            let cfg = client_cfg(&handle, 0);
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("fill", SUITE_B)))
        };
        std::thread::sleep(Duration::from_millis(100));
        match request_with_retry(&client_cfg(&handle, 0), &verify_req("over", SUITE_C)) {
            Err(ClientError::Shed(resp)) => {
                assert_eq!(resp.status, Status::Shed);
                assert!(
                    (25..=2000).contains(&resp.retry_after_ms),
                    "hint out of band: {}",
                    resp.retry_after_ms
                );
                assert!(resp.error.contains("queue full"), "{}", resp.error);
            }
            other => panic!("expected a typed shed, got {other:?}"),
        }
        // Nobody already admitted is harmed by the overload.
        let blocked = blocker.join().unwrap().unwrap();
        assert_eq!(blocked.exit, 0, "{}", blocked.output);
        let filled = filler.join().unwrap().unwrap();
        assert_eq!(filled.exit, 0, "{}", filled.output);
        handle.shutdown();
        let summary = handle.join();
        assert!(summary.shed >= 1, "{summary:?}");
        assert_eq!(summary.fresh, 2, "{summary:?}");
    }

    /// Single-flight dedup: two clients proving the same suite while
    /// the worker is busy land in one batch — exactly one prover run,
    /// the second response coalesced onto it, payloads byte-identical.
    #[test]
    fn concurrent_identical_requests_share_one_prover_run() {
        let handle = fault::with_faults("checker.obligation:delay_ms@20", || {
            Server::start(ServeConfig {
                jobs: 2,
                queue_cap: 16,
                drain_wait: Duration::from_secs(60),
                ..ServeConfig::default()
            })
            .unwrap()
        });
        // Occupy the dispatcher so the twins queue up together.
        let blocker = {
            let cfg = client_cfg(&handle, 0);
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("blk", SUITE_B)))
        };
        std::thread::sleep(Duration::from_millis(150));
        let twins: Vec<_> = (0..2)
            .map(|i| {
                let cfg = client_cfg(&handle, 0);
                std::thread::spawn(move || {
                    request_with_retry(&cfg, &verify_req(&format!("twin{i}"), SUITE))
                })
            })
            .collect();
        let results: Vec<_> = twins
            .into_iter()
            .map(|t| t.join().unwrap().unwrap())
            .collect();
        blocker.join().unwrap().unwrap();
        handle.shutdown();
        let summary = handle.join();
        // Identical payloads, whatever the serving path.
        assert_eq!(results[0].output, results[1].output);
        assert_eq!(results[0].exit, 0, "{}", results[0].output);
        assert_eq!(results[0].verdict, results[1].verdict);
        // Exactly one prover run for the twins (+1 for the blocker):
        // the second twin was coalesced onto the first's run, or — if
        // the batches happened to split — served from its cache entry.
        // Either way the run count cannot exceed blocker + one twin.
        assert_eq!(summary.fresh, 2, "one run for two twins: {summary:?}");
        assert_eq!(
            summary.coalesced + summary.cache_hits,
            1,
            "the second twin must not have run: {summary:?}"
        );
    }

    /// The four `serve.*` fault points degrade exactly one connection
    /// each — never the daemon, never a verdict.
    #[test]
    fn serve_fault_points_degrade_single_connections_not_the_daemon() {
        // serve.accept: the faulted connection is dropped right after
        // accept. TCP-wise the client's connect succeeded, so it sees
        // a mid-exchange reset (final — nothing executed, but the
        // client can't know that); its next request is served fine.
        let handle = fault::with_faults("serve.accept:fail@1", || {
            Server::start(ServeConfig::default()).unwrap()
        });
        let ping = Request { id: "p".into(), op: RequestOp::Ping };
        match request_with_retry(&client_cfg(&handle, 0), &ping) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected the dropped connection as Io, got {other:?}"),
        }
        let pong = request_with_retry(&client_cfg(&handle, 0), &ping).unwrap();
        assert_eq!(pong.status, Status::Ok, "the daemon must survive the accept fault");
        handle.shutdown();
        handle.join();

        // serve.read: the connection dies before reading the request —
        // the client sees a closed socket (final, not retried: nothing
        // executed, but the client can't know that), the daemon lives.
        let handle = fault::with_faults("serve.read:fail@1", || {
            Server::start(ServeConfig::default()).unwrap()
        });
        match request_with_retry(&client_cfg(&handle, 0), &verify_req("r", SUITE)) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected an Io disconnect, got {other:?}"),
        }
        let pong = request_with_retry(
            &client_cfg(&handle, 1),
            &Request { id: "p".into(), op: RequestOp::Ping },
        )
        .unwrap();
        assert_eq!(pong.status, Status::Ok);
        handle.shutdown();
        handle.join();

        // serve.write: the request EXECUTES but the response line is
        // lost. The client's manual retry is served from cache — the
        // crash-safe cache is what makes a lost response harmless.
        let handle = fault::with_faults("serve.write:fail@1", || {
            Server::start(ServeConfig::default()).unwrap()
        });
        match request_with_retry(&client_cfg(&handle, 0), &verify_req("w", SUITE)) {
            Err(ClientError::Io(_)) => {}
            other => panic!("expected an Io disconnect, got {other:?}"),
        }
        let replay = request_with_retry(&client_cfg(&handle, 0), &verify_req("w2", SUITE)).unwrap();
        assert_eq!(replay.exit, 0, "{}", replay.output);
        assert_eq!(
            replay.served,
            ServedFrom::Cache,
            "the lost response's work must be reused"
        );
        handle.shutdown();
        handle.join();
    }

    /// `serve.cache` trouble at startup degrades the daemon to an
    /// uncached in-memory cache: every verdict still correct, every
    /// response carrying the degradation note, exit path clean.
    #[test]
    fn cache_fault_degrades_to_uncached_service_with_note() {
        let journal = std::env::temp_dir().join(format!(
            "cobalt_robustness_{}_serve_cachefault.cobj",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let handle = fault::with_faults("serve.cache:fail@1", || {
            Server::start(ServeConfig {
                journal: Some((journal.clone(), ResumeMode::Resume)),
                ..ServeConfig::default()
            })
            .unwrap()
        });
        let resp = request_with_retry(&client_cfg(&handle, 0), &verify_req("c", SUITE)).unwrap();
        assert_eq!(resp.exit, 0, "degradation must not change the verdict: {}", resp.output);
        assert!(
            resp.note.contains("degraded"),
            "the response must disclose the degraded cache: {:?}",
            resp.note
        );
        handle.shutdown();
        let summary = handle.join();
        assert!(summary.degraded.is_some(), "{summary:?}");
        std::fs::remove_file(&journal).ok();
    }

    /// Graceful drain with work in flight: the in-flight request gets
    /// its full answer, then the daemon exits with a clean summary.
    #[test]
    fn drain_waits_for_in_flight_work() {
        let handle = fault::with_faults("checker.obligation:delay_ms@20", || {
            Server::start(ServeConfig {
                drain_wait: Duration::from_secs(60),
                ..ServeConfig::default()
            })
            .unwrap()
        });
        let inflight = {
            let cfg = client_cfg(&handle, 0);
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("in", SUITE)))
        };
        std::thread::sleep(Duration::from_millis(150));
        handle.shutdown();
        let resp = inflight.join().unwrap().unwrap();
        assert_eq!(resp.exit, 0, "drain must not rob the in-flight request: {}", resp.output);
        let summary = handle.join();
        assert_eq!(summary.fresh, 1, "{summary:?}");
    }

    /// Hard drain: when the grace period expires first, the in-flight
    /// request is budget-cancelled — it answers resource-limited
    /// (exit 3, inconclusive), never unsound, and the daemon still
    /// exits cleanly.
    #[test]
    fn drain_deadline_budget_cancels_in_flight_work() {
        let handle = fault::with_faults("checker.obligation:delay_ms@200", || {
            Server::start(ServeConfig {
                drain_wait: Duration::from_millis(100),
                ..ServeConfig::default()
            })
            .unwrap()
        });
        let inflight = {
            let cfg = client_cfg(&handle, 0);
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("in", SUITE)))
        };
        // Let the request start proving, then drain with a deadline
        // far shorter than its ~5s of injected prover delay.
        std::thread::sleep(Duration::from_millis(300));
        handle.shutdown();
        let summary = handle.join();
        let resp = inflight.join().unwrap().unwrap();
        assert_eq!(
            resp.exit, 3,
            "a cancelled proof is inconclusive, never a verdict: {}",
            resp.output
        );
        assert_eq!(resp.verdict, "resource-limited");
        assert_eq!(summary.fresh, 1, "{summary:?}");
    }

    /// A raw junk line gets a typed protocol error response — the
    /// connection (and daemon) survive to serve a valid request next.
    #[test]
    fn malformed_request_line_gets_typed_error_and_connection_survives() {
        let handle = Server::start(ServeConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"this is not a request\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"error\""), "{line}");
        // Same connection, valid request: still served.
        writer
            .write_all(format!("{}\n", Request { id: "p".into(), op: RequestOp::Ping }.encode()).as_bytes())
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\":\"ok\""), "{line}");
        handle.shutdown();
        let summary = handle.join();
        assert_eq!(summary.errors, 1, "{summary:?}");
    }

    /// Starts `cobalt serve` as a child process on `journal`, writing its
    /// address to `port_file`, with `COBALT_FAULTS` set to `faults`.
    fn spawn_daemon(
        port_file: &std::path::Path,
        journal: &std::path::Path,
        faults: Option<&str>,
    ) -> std::process::Child {
        std::fs::remove_file(port_file).ok();
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_cobalt"));
        cmd.args([
            "serve",
            "--port-file",
            port_file.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
        if let Some(f) = faults {
            cmd.env("COBALT_FAULTS", f);
        }
        cmd.spawn().unwrap()
    }

    /// A client for the daemon whose address appears in `port_file`.
    fn await_daemon(port_file: &std::path::Path) -> ClientConfig {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(s) = std::fs::read_to_string(port_file) {
                if s.trim().ends_with(|c: char| c.is_ascii_digit()) && !s.trim().is_empty() {
                    return ClientConfig {
                        addr: s.trim().to_string(),
                        io_timeout: Duration::from_secs(120),
                        retries: 3,
                        backoff_base: Duration::from_millis(10),
                        backoff_cap: Duration::from_millis(100),
                    };
                }
            }
            assert!(std::time::Instant::now() < deadline, "daemon never bound");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    /// Acceptance: SIGKILL the daemon *process* mid-request, restart it
    /// on the same journal, and the work completed before the kill
    /// replays from cache while the interrupted request re-proves.
    #[test]
    fn killed_daemon_restarts_warm_from_its_journal() {
        let dir = std::env::temp_dir();
        let tag = format!("cobalt_robustness_{}_kill9", std::process::id());
        let journal = dir.join(format!("{tag}.cobj"));
        let port_file = dir.join(format!("{tag}.port"));
        std::fs::remove_file(&journal).ok();

        // Daemon 1 (with injected prover delay so the kill lands
        // mid-request): complete one suite, then kill -9 during the
        // second.
        let mut child = spawn_daemon(&port_file, &journal, Some("checker.obligation:delay_ms@20"));
        let cfg = await_daemon(&port_file);
        let first = request_with_retry(&cfg, &verify_req("a", SUITE)).unwrap();
        assert_eq!(first.exit, 0, "{}", first.output);
        let interrupted = {
            let cfg = cfg.clone();
            std::thread::spawn(move || request_with_retry(&cfg, &verify_req("b", SUITE_B)))
        };
        std::thread::sleep(Duration::from_millis(250));
        child.kill().unwrap(); // SIGKILL: no drain, no compaction
        child.wait().unwrap();
        assert!(
            interrupted.join().unwrap().is_err(),
            "the killed daemon cannot have answered"
        );

        // Daemon 2, same journal: the completed suite replays from
        // cache; the interrupted one proves fresh — same verdicts.
        let mut child = spawn_daemon(&port_file, &journal, None);
        let cfg = await_daemon(&port_file);
        let warm = request_with_retry(&cfg, &verify_req("a2", SUITE)).unwrap();
        assert_eq!(warm.exit, 0, "{}", warm.output);
        assert_eq!(
            warm.served,
            ServedFrom::Cache,
            "work completed before the kill must replay warm"
        );
        assert_eq!(warm.output, first.output, "cached replay must be byte-identical");
        let reproved = request_with_retry(&cfg, &verify_req("b2", SUITE_B)).unwrap();
        assert_eq!(reproved.exit, 0, "{}", reproved.output);
        assert_eq!(reproved.served, ServedFrom::Fresh);
        // Graceful shutdown: exit code 0 and a compacted journal.
        let bye = request_with_retry(&cfg, &Request { id: "q".into(), op: RequestOp::Shutdown })
            .unwrap();
        assert_eq!(bye.status, Status::Bye);
        let status = child.wait().unwrap();
        assert!(status.success(), "graceful drain must exit 0: {status:?}");
        for f in [&journal, &port_file] {
            std::fs::remove_file(f).ok();
        }
    }

    /// SIGTERM and SIGINT drain the daemon exactly as an in-band
    /// `shutdown` does: exit 0 with the proof cache compacted into its
    /// journal, so a restarted daemon serves the same request from
    /// cache, byte for byte.
    #[cfg(unix)]
    #[test]
    fn signals_drain_like_shutdown() {
        for signal in ["-TERM", "-INT"] {
            let dir = std::env::temp_dir();
            let tag = format!("cobalt_robustness_{}_{}", std::process::id(), &signal[1..]);
            let journal = dir.join(format!("{tag}.cobj"));
            let port_file = dir.join(format!("{tag}.port"));
            std::fs::remove_file(&journal).ok();

            let mut child = spawn_daemon(&port_file, &journal, None);
            let cfg = await_daemon(&port_file);
            let first = request_with_retry(&cfg, &verify_req("a", SUITE)).unwrap();
            assert_eq!(first.exit, 0, "{}", first.output);
            assert_eq!(first.served, ServedFrom::Fresh);
            let kill = std::process::Command::new("kill")
                .args([signal, &child.id().to_string()])
                .status()
                .unwrap();
            assert!(kill.success(), "kill {signal}: {kill:?}");
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let status = loop {
                if let Some(status) = child.try_wait().unwrap() {
                    break status;
                }
                if std::time::Instant::now() >= deadline {
                    child.kill().ok();
                    child.wait().ok();
                    panic!("daemon did not exit within 10 s of kill {signal}");
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert!(status.success(), "kill {signal}: exit {status:?}");

            let mut child = spawn_daemon(&port_file, &journal, None);
            let cfg = await_daemon(&port_file);
            let warm = request_with_retry(&cfg, &verify_req("a2", SUITE)).unwrap();
            assert_eq!(warm.served, ServedFrom::Cache, "kill {signal}");
            assert_eq!(warm.output, first.output, "kill {signal}");
            let shutdown = Request {
                id: "q".into(),
                op: RequestOp::Shutdown,
            };
            let bye = request_with_retry(&cfg, &shutdown).unwrap();
            assert_eq!(bye.status, Status::Bye);
            assert!(child.wait().unwrap().success());
            for f in [&journal, &port_file] {
                std::fs::remove_file(f).ok();
            }
        }
    }
}

/// The pipeline replayed sequentially from the engine's public
/// primitives: per procedure, round, and pass, a fresh CFG, every pure
/// analysis, then the pass — stopping after a round that applies
/// nothing. Returns the program and the rewrite count.
fn reference_optimize(
    prog: &Program,
    analyses: &[PureAnalysis],
    passes: &[Optimization],
    rounds: usize,
) -> (Program, usize) {
    let engine = Engine::new(LabelEnv::standard());
    let (mut out, mut applied) = (prog.clone(), 0);
    for proc in &prog.procs {
        let mut current = proc.clone();
        for _ in 0..rounds {
            let mut round = 0;
            for pass in passes {
                let mut ap = AnalyzedProc::new(current).unwrap();
                for a in analyses {
                    engine.run_pure_analysis(&mut ap, a).unwrap();
                }
                let (next, sites) = engine.apply(&ap, pass).unwrap();
                round += sites.len();
                current = next;
            }
            applied += round;
            if round == 0 {
                break;
            }
        }
        out = out.with_proc_replaced(current);
    }
    (out, applied)
}

/// Without faults, `OptimizeSession` is exactly the sequential
/// reference at any worker count: same program bytes, same rewrite
/// count, empty report.
#[test]
fn session_matches_the_sequential_reference() {
    let analyses = cobalt::opts::all_analyses();
    let passes = cobalt::opts::default_pipeline();
    for seed in [3u64, 11] {
        let prog = generate(&GenConfig::sized(25, seed));
        let (expected, n) = reference_optimize(&prog, &analyses, &passes, 3);
        for jobs in [1, 4] {
            let (out, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
                .with_jobs(jobs)
                .optimize_program(&prog, &analyses, &passes, 3);
            assert!(!report.degraded(), "seed {seed}: {:#?}", report.failures);
            assert_eq!(pretty_program(&expected), pretty_program(&out), "seed {seed} jobs {jobs}");
            assert_eq!(report.applied, n, "seed {seed} jobs {jobs}");
        }
    }
}

/// `with_recursive` composes a rule with itself inside each procedure's
/// task. Its reference is the composition it replaced: the session
/// without it, then `apply_recursive` on each procedure. On generated
/// programs whose branches are rewired backward into loops, plus the
/// mutually-dead cycle, the session prints the reference's bytes at one
/// and four jobs and counts each removed site as a rewrite, and a
/// journaled cold/warm pair replays every procedure byte for byte.
#[test]
fn recursive_session_matches_the_composition_after_the_session() {
    let analyses = cobalt::opts::all_analyses();
    let passes = cobalt::opts::default_pipeline();
    let dae = cobalt::opts::optimization("dae").unwrap();
    let engine = Engine::new(LabelEnv::standard());
    let cycle = "proc cycle(x) { decl a; decl b; decl i; i := x; a := b + 1; b := a + 1; \
                 i := i - 1; if i goto 4 else 8; return x; }";
    let mut removed_total = 0;
    for seed in [3u64, 11, 29] {
        let mut prog = generate(&GenConfig::sized(25, seed));
        for proc in &mut prog.procs {
            for (i, stmt) in proc.stmts.iter_mut().enumerate() {
                if let cobalt::il::Stmt::If { then_target, .. } = stmt {
                    *then_target = i / 2;
                }
            }
        }
        prog.procs
            .extend(cobalt::il::parse_program(cycle).unwrap().procs);

        let (mut expected, report) =
            OptimizeSession::new(engine.clone()).optimize_program(&prog, &analyses, &passes, 3);
        assert!(!report.degraded(), "seed {seed}: {:#?}", report.failures);
        let mut applied = report.applied;
        for proc in expected.procs.clone() {
            let (composed, removed) =
                cobalt::engine::apply_recursive(&engine, &proc, &dae).unwrap();
            applied += removed.len();
            removed_total += removed.len();
            expected = expected.with_proc_replaced(composed);
        }
        let session = || OptimizeSession::new(engine.clone()).with_recursive(dae.clone());
        for jobs in [1, 4] {
            let (out, report) = session()
                .with_jobs(jobs)
                .optimize_program(&prog, &analyses, &passes, 3);
            assert!(!report.degraded(), "seed {seed}: {:#?}", report.failures);
            assert_eq!(
                pretty_program(&expected),
                pretty_program(&out),
                "seed {seed} jobs {jobs}"
            );
            assert_eq!(report.applied, applied, "seed {seed} jobs {jobs}");
        }

        let path = scratch_journal(&format!("recursive_{seed}"));
        let mut cold = session().with_journal(&path, ResumeMode::Fresh);
        let (cold_out, cold_report) = cold.optimize_program(&prog, &analyses, &passes, 3);
        cold.finish();
        let mut warm = session().with_journal(&path, ResumeMode::Resume);
        let (warm_out, warm_report) = warm.optimize_program(&prog, &analyses, &passes, 3);
        warm.finish();
        std::fs::remove_file(&path).ok();
        assert_eq!(warm_report.cached, prog.procs.len(), "seed {seed}");
        assert_eq!(
            pretty_program(&cold_out),
            pretty_program(&warm_out),
            "seed {seed}"
        );
        assert_eq!(cold_report.applied, warm_report.applied, "seed {seed}");
    }
    // Each program's cycle is removed, so the composition did work.
    assert!(removed_total >= 6, "{removed_total}");
}

/// The session labels each version of a procedure once, not once per
/// pass. Only `dae` changes this procedure, so it has two versions and
/// two labellings (one `engine.analysis` hit each), where labelling
/// before every pass takes 11 hits per round. A fault armed for the
/// 12th hit therefore never fires: the run is clean.
#[test]
fn session_labels_each_procedure_version_once() {
    let prog = cobalt::il::parse_program("proc main(x) { decl a; a := x; return x; }").unwrap();
    let (out, report) = fault::with_faults("engine.analysis:fail@12", || {
        OptimizeSession::new(Engine::new(LabelEnv::standard())).optimize_program(
            &prog,
            &cobalt::opts::all_analyses(),
            &cobalt::opts::default_pipeline(),
            3,
        )
    });
    assert!(!report.degraded(), "{:#?}", report.failures);
    assert_eq!((report.applied, report.rounds), (1, 2));
    assert_eq!(out.main().unwrap().stmts[1].to_string(), "skip");
}

/// A killed `cobalt optimize --journal` run resumes warm only from the
/// records that landed before the kill. At one job the session must
/// journal each procedure as it finishes, not all of them once the last
/// one is done: the journal grows past its 8-byte header before half
/// the run has passed.
#[test]
fn one_job_optimize_journals_each_procedure_as_it_finishes() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let prog = cobalt_bench::many_proc_program(6, 20, 7);
    let path = scratch_journal("one_job_streams");
    let finished = AtomicBool::new(false);
    let start = Instant::now();
    let first_record = std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            while !finished.load(Ordering::SeqCst) && start.elapsed() < Duration::from_secs(120) {
                if std::fs::metadata(&path).is_ok_and(|m| m.len() > 8) {
                    return Some(start.elapsed());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            None
        });
        let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .with_journal(&path, ResumeMode::Fresh);
        let (_, report) = fault::with_faults("engine.pass:delay_ms@5", || {
            session.optimize_program(
                &prog,
                &cobalt::opts::all_analyses(),
                &cobalt::opts::default_pipeline(),
                4,
            )
        });
        finished.store(true, Ordering::SeqCst);
        assert!(!report.degraded(), "{:#?}", report.failures);
        session.finish();
        watcher.join().unwrap()
    });
    let total = start.elapsed();
    std::fs::remove_file(&path).ok();
    let first_record = first_record.unwrap_or(total);
    assert!(
        first_record < total / 2,
        "first journal record after {first_record:?} of a {total:?} run"
    );
}
