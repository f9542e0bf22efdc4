//! Long-running differential soak test, ignored by default.
//!
//! Run with:
//!
//! ```sh
//! cargo test --release --test soak -- --ignored --nocapture
//! ```
//!
//! Sweeps thousands of generated programs through the whole verified
//! suite (and the recursive-DAE self-composition) checking semantic
//! preservation on several inputs each — the heavyweight version of
//! experiment E7.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{generate, pretty_program, EvalError, GenConfig, Interp, Program};
use cobalt::serve::{request_with_retry, ClientConfig, Request, RequestOp};
use cobalt::verify::{ResumeMode, SemanticMeanings, Session, Verifier};
use cobalt_support::rng::Rng;
use std::collections::HashMap;
use std::time::Duration;

#[test]
#[ignore = "soak test: minutes of CPU; run explicitly"]
fn differential_soak() {
    let engine = Engine::new(LabelEnv::standard());
    let analyses = cobalt::opts::all_analyses();
    let opts = cobalt::opts::default_pipeline();
    let mut runs = 0u64;
    let mut checked = 0u64;
    for seed in 0..4_000u64 {
        let prog = generate(&GenConfig::sized(36, seed));
        let (optimized, report) =
            OptimizeSession::new(engine.clone()).optimize_program(&prog, &analyses, &opts, 3);
        assert!(!report.degraded(), "seed {seed}: {:#?}", report.failures);
        let (rec, _) = cobalt::engine::apply_recursive(
            &engine,
            optimized.main().unwrap(),
            &cobalt::opts::dae(),
        )
        .unwrap();
        let final_prog = optimized.with_proc_replaced(rec);
        for arg in [-7, -1, 0, 1, 2, 9] {
            runs += 1;
            match Interp::new(&prog).with_fuel(200_000).run(arg) {
                Ok(v) => {
                    checked += 1;
                    let w = Interp::new(&final_prog)
                        .with_fuel(400_000)
                        .run(arg)
                        .unwrap_or_else(|e| {
                            panic!("seed {seed} arg {arg}: transformed failed: {e}")
                        });
                    assert_eq!(v, w, "seed {seed} arg {arg}");
                }
                Err(EvalError::Stuck { .. }) | Err(EvalError::OutOfFuel) => {}
                Err(other) => panic!("seed {seed}: {other}"),
            }
        }
    }
    println!("soak: {checked}/{runs} runs produced values; all preserved");
    assert!(checked > runs / 3, "generator health check");
}

/// Crash/resume soak (ISSUE 4): hundreds of rounds of killing a
/// verification session at a random point — sometimes also tearing or
/// bit-flipping the journal tail, as a dying machine would — and
/// resuming. Every resume must load without panicking, never trust a
/// damaged record, and finish the suite; once a round completes
/// cleanly, the next full run must be entirely cached.
#[test]
#[ignore = "soak test: minutes of CPU; run explicitly"]
fn journal_crash_resume_soak() {
    let path = std::env::temp_dir().join(format!(
        "cobalt_soak_journal_{}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let registry = cobalt::opts::all_optimizations();
    let verifier = || Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let mut rng = Rng::seed_from_u64(0xC0BA17);
    let mut kills = 0u32;
    let mut tears = 0u32;
    let mut flips = 0u32;

    for round in 0..300u32 {
        // Run the suite, dying after a random number of rules.
        let survive = rng.gen_range(0..=registry.len());
        let mut session = Session::with_journal(verifier(), &path, ResumeMode::Resume)
            .unwrap_or_else(|e| panic!("round {round}: journal must always open: {e}"));
        for opt in &registry[..survive] {
            let report = session.verify_optimization(opt).unwrap();
            assert!(report.all_proved(), "round {round}: {}", report.summary());
        }
        if survive == registry.len() {
            session.finish();
            assert!(session.degraded().is_none(), "round {round}");
            // A completed journal warms the very next full run entirely.
            let mut warm = Session::with_journal(verifier(), &path, ResumeMode::Resume).unwrap();
            for opt in &registry {
                let report = warm.verify_optimization(opt).unwrap();
                assert_eq!(
                    report.cached_count(),
                    report.outcomes.len(),
                    "round {round}: {}",
                    report.summary()
                );
            }
            warm.finish();
        } else {
            kills += 1;
            drop(session); // the kill: no finish, no compaction
        }

        // Occasionally damage the tail the way dying hardware does.
        let len = std::fs::metadata(&path).unwrap().len();
        match rng.gen_range(0u32..4) {
            0 if len > 4 => {
                tears += 1;
                let cut = len - rng.gen_range(1..=4.min(len));
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(cut)
                    .unwrap();
            }
            1 if len > 0 => {
                flips += 1;
                let mut bytes = std::fs::read(&path).unwrap();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0u32..8);
                std::fs::write(&path, bytes).unwrap();
            }
            _ => {}
        }
    }
    println!("journal soak: 300 rounds, {kills} kills, {tears} tears, {flips} flips survived");
    std::fs::remove_file(&path).ok();
}

/// Engine journal crash/resume soak (ISSUE 7): rounds of an optimize
/// session killed after journaling a random prefix of the program's
/// procedures — sometimes with the journal tail torn or bit-flipped, as
/// a dying machine would leave it — then resumed at an alternating
/// worker count. Every resume must open without panicking, never trust
/// a damaged record (the checksummed loader discards it and the
/// procedure re-optimizes), and produce output byte-identical to the
/// clean baseline; a completed round warms the next full run entirely.
#[test]
#[ignore = "soak test: minutes of CPU; run explicitly"]
fn engine_journal_crash_resume_soak() {
    let path = std::env::temp_dir().join(format!(
        "cobalt_soak_engine_{}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let prog = cobalt_bench::many_proc_program(10, 20, 0xC0BA17);
    let analyses = cobalt::opts::all_analyses();
    let passes = cobalt::opts::default_pipeline();
    let engine = || Engine::new(LabelEnv::standard());
    let (baseline, base_report) =
        OptimizeSession::new(engine()).optimize_program(&prog, &analyses, &passes, 3);
    assert!(!base_report.degraded(), "{:#?}", base_report.failures);
    let baseline = pretty_program(&baseline);
    let mut rng = Rng::seed_from_u64(0xC0BA17);
    let (mut kills, mut tears, mut flips) = (0u32, 0u32, 0u32);

    for round in 0..150u32 {
        let jobs = if round % 2 == 0 { 4 } else { 1 };
        let survive = rng.gen_range(0..=prog.procs.len());
        let mut session = OptimizeSession::new(engine())
            .with_jobs(jobs)
            .with_journal(&path, ResumeMode::Resume);
        assert!(
            session.is_journaled(),
            "round {round}: the journal must always reopen: {:?}",
            session.degraded()
        );
        if survive == prog.procs.len() {
            let (out, report) = session.optimize_program(&prog, &analyses, &passes, 3);
            session.finish();
            assert!(session.degraded().is_none(), "round {round}");
            assert_eq!(
                pretty_program(&out),
                baseline,
                "round {round}: resumed output must match the clean run"
            );
            assert_eq!(report.applied, base_report.applied, "round {round}");
            // A completed journal warms the very next full run entirely.
            let mut warm = OptimizeSession::new(engine())
                .with_jobs(5 - jobs)
                .with_journal(&path, ResumeMode::Resume);
            let (warm_out, warm_report) =
                warm.optimize_program(&prog, &analyses, &passes, 3);
            warm.finish();
            assert_eq!(
                warm_report.cached,
                prog.procs.len(),
                "round {round}: {}",
                warm_report.summary()
            );
            assert_eq!(pretty_program(&warm_out), baseline, "round {round}");
        } else {
            // The kill: journal only the first `survive` procedures,
            // then die without finish() — no compaction.
            kills += 1;
            let partial = Program::new(prog.procs[..survive].to_vec());
            session.optimize_program(&partial, &analyses, &passes, 3);
            drop(session);
        }

        // Occasionally damage the tail the way dying hardware does.
        let len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        match rng.gen_range(0u32..4) {
            0 if len > 4 => {
                tears += 1;
                let cut = len - rng.gen_range(1..=4.min(len));
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_len(cut)
                    .unwrap();
            }
            1 if len > 0 => {
                flips += 1;
                let mut bytes = std::fs::read(&path).unwrap();
                let at = rng.gen_range(0..bytes.len());
                bytes[at] ^= 1u8 << rng.gen_range(0u32..8);
                std::fs::write(&path, bytes).unwrap();
            }
            _ => {}
        }
    }
    println!("engine soak: 150 rounds, {kills} kills, {tears} tears, {flips} flips survived");
    std::fs::remove_file(&path).ok();
}

/// Daemon chaos soak (ISSUE 9): rounds of a real `cobalt serve`
/// process under concurrent clients, ended half the time by SIGKILL
/// mid-traffic and half the time by a graceful in-band shutdown —
/// always restarting on the same proof-cache journal. The invariants:
/// every response that arrives parses and carries a consistent verdict
/// (a sound suite never reads unsound, the planted-bug suite never
/// reads proved, and proved payload bytes never drift between fresh,
/// cached, and coalesced serves); every graceful shutdown exits 0; and every
/// restart reopens the survivor journal without complaint.
#[test]
#[ignore = "soak test: minutes of CPU; run explicitly"]
fn serve_chaos_soak() {
    const SOUND_A: &str = "forward soak_cp_a {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";
    const SOUND_B: &str = "forward soak_cp_b {
        stmt(Y := C) followed by !mayDef(Y)
        until X := Y => X := C
        with witness eta(Y) == C
    }";
    // Guard on the wrong variable: genuinely unsound, must always be
    // rejected (exit 2), never proved.
    const UNSOUND: &str = "forward soak_bad {
        stmt(Y := C) followed by !mayDef(X)
        until X := Y => X := C
        with witness eta(Y) == C
    }";
    let suites: [(&str, u8); 3] = [(SOUND_A, 0), (SOUND_B, 0), (UNSOUND, 2)];

    let dir = std::env::temp_dir();
    let tag = format!("cobalt_soak_serve_{}", std::process::id());
    let journal = dir.join(format!("{tag}.cobj"));
    let port_file = dir.join(format!("{tag}.port"));
    std::fs::remove_file(&journal).ok();

    let mut rng = Rng::seed_from_u64(0x5E12E);
    let mut expected: HashMap<u8, String> = HashMap::new(); // suite idx → payload
    let (mut kills, mut drains, mut answered, mut refused) = (0u32, 0u32, 0u64, 0u64);

    for round in 0..20u32 {
        std::fs::remove_file(&port_file).ok();
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_cobalt"))
            .args([
                "serve",
                "--jobs",
                "2",
                "--port-file",
                port_file.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
            ])
            // A small injected prover delay widens the kill window so
            // SIGKILL actually lands mid-proof sometimes.
            .env("COBALT_FAULTS", "checker.obligation:delay_ms@2")
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .unwrap();
        let addr = {
            let deadline = std::time::Instant::now() + Duration::from_secs(30);
            loop {
                match std::fs::read_to_string(&port_file) {
                    Ok(s) if s.trim().ends_with(|c: char| c.is_ascii_digit()) => {
                        break s.trim().to_string()
                    }
                    _ => {}
                }
                assert!(std::time::Instant::now() < deadline, "round {round}: never bound");
                std::thread::sleep(Duration::from_millis(20));
            }
        };

        // Concurrent clients hammer a random mix of the three suites.
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let addr = addr.clone();
                let picks: Vec<u8> =
                    (0..3).map(|_| rng.gen_range(0u32..3) as u8).collect();
                std::thread::spawn(move || {
                    let cfg = ClientConfig {
                        addr,
                        io_timeout: Duration::from_secs(60),
                        retries: 1,
                        backoff_base: Duration::from_millis(5),
                        backoff_cap: Duration::from_millis(50),
                    };
                    let mut got: Vec<(u8, u8, String)> = Vec::new();
                    let mut lost = 0u64;
                    for (i, &pick) in picks.iter().enumerate() {
                        let req = Request {
                            id: format!("w{w}r{i}"),
                            op: RequestOp::Verify {
                                suite: Some(suites[pick as usize].0.to_string()),
                                include_buggy: false,
                            },
                        };
                        match request_with_retry(&cfg, &req) {
                            // A parsed response: the protocol survived
                            // whatever the chaos was doing.
                            Ok(resp) => got.push((pick, resp.exit, resp.output)),
                            // Connection trouble is legitimate while
                            // the daemon is being killed; a response
                            // that PARSES WRONG would panic above.
                            Err(_) => lost += 1,
                        }
                    }
                    (got, lost)
                })
            })
            .collect();

        let kill = rng.gen_range(0u32..2) == 0;
        if kill {
            // Let some traffic land, then SIGKILL mid-flight.
            std::thread::sleep(Duration::from_millis(rng.gen_range(30..400) as u64));
            child.kill().unwrap();
            kills += 1;
        }
        for worker in workers {
            let (got, lost) = worker.join().unwrap();
            refused += lost;
            for (pick, exit, output) in got {
                answered += 1;
                // Exit 3 (resource-limited) is a legitimate inconclusive
                // answer while a drain budget-cancels in-flight work; the
                // verdict invariants are one-sided: a sound suite never
                // reads unsound and the planted bug never reads proved.
                let want_exit = suites[pick as usize].1;
                assert!(
                    exit == want_exit || exit == 3,
                    "round {round}: verdict flipped for suite {pick} (exit {exit}): {output}"
                );
                // Payload bytes never drift across fresh/cache/coalesced
                // serves, rounds, or daemon generations. Only conclusive
                // sound payloads are byte-stable here: a drain can cancel
                // part of an unsound suite's obligations and still answer
                // exit 2, with those obligations among its FAILED lines.
                if exit == 0 {
                    let prior = expected.entry(pick).or_insert_with(|| output.clone());
                    assert_eq!(*prior, output, "round {round}: payload drift for suite {pick}");
                }
            }
        }
        if kill {
            child.wait().unwrap();
        } else {
            drains += 1;
            let bye = request_with_retry(
                &ClientConfig {
                    addr,
                    io_timeout: Duration::from_secs(60),
                    retries: 2,
                    backoff_base: Duration::from_millis(10),
                    backoff_cap: Duration::from_millis(100),
                },
                &Request { id: "bye".into(), op: RequestOp::Shutdown },
            )
            .unwrap();
            assert_eq!(format!("{:?}", bye.status), "Bye", "round {round}");
            let status = child.wait().unwrap();
            assert!(status.success(), "round {round}: graceful drain must exit 0: {status:?}");
        }
    }
    println!(
        "serve soak: 20 rounds, {kills} kills, {drains} drains; \
         {answered} answered, {refused} refused mid-chaos"
    );
    assert!(answered > 0, "the soak never exercised a response");
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&port_file).ok();
}

/// Parallel kill/resume soak (ISSUE 5): rounds of a `--jobs 4` session
/// killed partway through the suite, resumed at an alternating worker
/// count. Parallel discharge journals outcomes in obligation order, so
/// a kill between appends leaves exactly the same clean prefix a
/// sequential kill would: every resume loads uncorrupted, replays what
/// the dead run proved, and a completed round warms the next full run
/// entirely — regardless of the jobs count on either side of the kill.
#[test]
#[ignore = "soak test: minutes of CPU; run explicitly"]
fn parallel_kill_resume_soak() {
    let path = std::env::temp_dir().join(format!(
        "cobalt_soak_parallel_{}.cobj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let registry = cobalt::opts::all_optimizations();
    let verifier = |jobs: usize| {
        Verifier::new(LabelEnv::standard(), SemanticMeanings::standard()).with_jobs(jobs)
    };
    let mut rng = Rng::seed_from_u64(0x9A11E7);
    let mut kills = 0u32;

    for round in 0..120u32 {
        let jobs = if round % 2 == 0 { 4 } else { 1 };
        let survive = rng.gen_range(0..=registry.len());
        let mut session = Session::with_journal(verifier(jobs), &path, ResumeMode::Resume)
            .unwrap_or_else(|e| panic!("round {round}: journal must always open: {e}"));
        assert!(
            session.degraded().is_none(),
            "round {round}: the dead run's lock died with it; no contention"
        );
        assert!(
            !session.load_report().corrupted(),
            "round {round}: in-order parallel appends leave a clean journal: {:?}",
            session.load_report()
        );
        for opt in &registry[..survive] {
            let report = session.verify_optimization(opt).unwrap();
            assert!(report.all_proved(), "round {round}: {}", report.summary());
        }
        if survive == registry.len() {
            session.finish();
            assert!(session.degraded().is_none(), "round {round}");
            // A completed journal warms the next full run — at the
            // *other* worker count — entirely.
            let mut warm =
                Session::with_journal(verifier(5 - jobs), &path, ResumeMode::Resume).unwrap();
            for opt in &registry {
                let report = warm.verify_optimization(opt).unwrap();
                assert_eq!(
                    report.cached_count(),
                    report.outcomes.len(),
                    "round {round}: {}",
                    report.summary()
                );
            }
            warm.finish();
        } else {
            kills += 1;
            drop(session); // the kill: no finish, no compaction, lock released
        }
    }
    println!("parallel soak: 120 rounds, {kills} kills survived");
    std::fs::remove_file(&path).ok();
}
