//! The `cobalt` command-line tool: run, optimize, verify, and validate
//! from the shell.
//!
//! ```text
//! cobalt run <prog.il> [--arg N]
//! cobalt optimize <prog.il> [--passes a,b,…|all] [--rounds N] [--recursive-dae]
//!                 [--timeout SECS] [--max-steps N] [--jobs N]
//!                 [--journal PATH [--resume|--fresh]] [--json]
//! cobalt verify [<suite.cob>] [--include-buggy] [--timeout SECS] [--max-splits N]
//!               [--jobs N] [--journal PATH [--resume|--fresh]]
//! cobalt lint [<file.il|file.cob>…] [--json] [--deny warn]
//! cobalt validate <orig.il> <new.il>
//! cobalt hunt <name|suite.cob> [--tries N]
//! cobalt serve [--addr A] [--port-file P] [--queue N] [--jobs N|auto]
//!              [--timeout SECS] [--max-steps N] [--journal PATH [--resume|--fresh]]
//!              [--read-timeout-ms N] [--write-timeout-ms N] [--drain-ms N]
//! cobalt client <verify [suite.cob]|optimize <prog.il>|ping|stats|shutdown>
//!               [--addr A|--port-file P] [--retries N] [--include-buggy]
//!               [--passes a,b|all] [--rounds N]
//! ```
//!
//! `verify` exit codes: 0 all proved; 2 an obligation genuinely failed
//! (unsound); 3 failures were resource limits only (inconclusive);
//! 1 anything else.
//!
//! `optimize` exit codes: 0 ok; 3 a pass hit a resource limit (the
//! printed program is still correct — the pass was skipped, never
//! misapplied); 1 anything else.
//!
//! `verify` and `optimize` print what `cobalt-serve::exec` computes —
//! the same payload `cobalt client` gets from the daemon — after any
//! journal or recursive-DAE notes.
//!
//! `lint` exit codes: 0 clean; 4 lint errors (or warnings under
//! `--deny warn`); 1 anything else (unreadable file, parse error).

use cobalt::dsl::LabelEnv;
use cobalt::engine::{EngineError, OptimizeSession};
use cobalt::il::{parse_program, Interp};
use cobalt::serve::exec::{self, ExecConfig, ExecResult, EXIT_RESOURCE_LIMITED};
use cobalt::serve::{
    request_with_retry, ClientConfig, ClientError, Request, RequestOp, ServeConfig, Server, Status,
};
use cobalt::verify::{Report, ResumeMode, RetryPolicy, SemanticMeanings, Session, Verifier};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Exit code for `lint` when diagnostics fail the run (errors, or
/// warnings under `--deny warn`).
const EXIT_LINT: u8 = 4;

/// A CLI failure carrying its process exit code.
#[derive(Debug)]
struct CliError {
    code: u8,
    msg: String,
    /// Report text that belongs on stdout even on failure (e.g. lint
    /// diagnostics, which downstream tools parse as JSON lines).
    out: Option<String>,
}

impl CliError {
    fn general(msg: impl Into<String>) -> Self {
        CliError {
            code: 1,
            msg: msg.into(),
            out: None,
        }
    }
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::general(msg)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            if let Some(out) = &e.out {
                print!("{out}");
            }
            eprintln!("cobalt: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

const USAGE: &str = "usage:
  cobalt run <prog.il> [--arg N]
      parse, validate, and interpret main(N) (default N = 0)
  cobalt optimize <prog.il> [--passes a,b|all] [--rounds N] [--recursive-dae]
                  [--timeout SECS] [--max-steps N] [--jobs N]
                  [--journal PATH [--resume|--fresh]] [--json]
      run the (machine-verified) optimization suite and print the
      result, exactly as `cobalt client optimize` does; a failing pass
      is skipped (quarantined) soundly and named in a `// skipped:`
      line. --recursive-dae then removes mutually-dead assignments.
      --timeout bounds wall-clock for the whole run and --max-steps caps
      fixpoint steps per procedure; a budget-exhausted pass is skipped
      soundly and the run exits 3. --jobs optimizes procedures across N
      pool workers (default 1, or COBALT_JOBS) with byte-identical
      output at any count. --journal records per-procedure fixpoint
      results in a crash-safe journal and (by default, or with --resume)
      replays completed procedures as cached after a kill; --fresh
      discards it first. --json prints the pipeline report as JSON
      lines instead of the program. exit codes: 0 ok, 3 resource-limited,
      1 other errors
  cobalt verify [<suite.cob>] [--include-buggy] [--timeout SECS] [--max-splits N]
                [--jobs N] [--journal PATH [--resume|--fresh]]
      prove every optimization sound; with no file, the built-in suite.
      the report on stdout is what `cobalt client verify` prints, plus
      each report's time. --timeout bounds wall-clock per report;
      --max-splits caps case splits per proof attempt. --jobs
      discharges a report's obligations across N supervised workers
      (default 1, or the COBALT_JOBS environment variable); verdicts
      and exit codes are identical at any job count. --journal records
      every obligation outcome in a crash-safe proof journal and (by
      default, or with --resume) replays already-proved obligations
      from it, so a killed run resumes warm; --fresh discards the
      journal first. exit codes: 0 all proved, 2 unsound,
      3 resource-limited (inconclusive), 1 other errors
  cobalt lint [<file.il|file.cob>…] [--json] [--deny warn]
      static analysis: named diagnostics (CL0xx for rules, IL0xx for
      programs) without invoking the prover. with no files, lints the
      whole built-in registry (including the buggy variants — their
      bugs are semantic, the prover's job). --json emits one JSON
      object per line; --deny warn makes warnings failing. exit codes:
      0 clean, 4 lint errors, 1 other errors
  cobalt trace <prog.il> [--arg N]
      interpret main(N) printing every executed statement
  cobalt validate <orig.il> <new.il>
      translation validation of a single compile (the baseline approach)
  cobalt hunt <name|suite.cob> [--tries N]
      search for a counterexample program for a (presumably unsound)
      optimization; `name` may be `buggy` for the built-in §6 variant
  cobalt serve [--addr A] [--port-file P] [--queue N] [--jobs N|auto]
               [--timeout SECS] [--max-steps N]
               [--journal PATH [--resume|--fresh]]
               [--read-timeout-ms N] [--write-timeout-ms N] [--drain-ms N]
      run the verification daemon: newline-delimited JSON requests over
      TCP, multiplexed onto --jobs pool workers. Identical requests
      share one prover run (single-flight) and later repeats replay
      from the --journal proof cache. A full --queue (default 64) sheds
      with a typed `shed` response and a retry hint instead of queueing
      unboundedly; slow clients are disconnected after the read/write
      deadlines. SIGTERM/SIGINT or an in-band `shutdown` request drains
      gracefully: stop accepting, finish or budget-cancel in-flight
      work, compact the journal, exit 0. --addr defaults to
      127.0.0.1:0 (ephemeral); --port-file writes the bound address for
      scripts. --timeout/--max-steps bound each request exactly as the
      one-shot commands do
  cobalt client <verify [suite.cob]|optimize <prog.il>|ping|stats|shutdown>
                [--addr A|--port-file P] [--retries N] [--io-timeout SECS]
                [--include-buggy] [--passes a,b|all] [--rounds N]
      send one request to a running daemon and print its output.
      Connection failures and shed responses retry with capped
      exponential backoff (--retries, default 5), honoring the daemon's
      retry_after_ms hint. --io-timeout bounds this client's socket
      reads/writes (default 600); request budgets are the daemon's
      --timeout, so passing --timeout here is a typed error. exit codes
      mirror the one-shot commands: 0 ok/proved, 2 unsound,
      3 resource-limited or shed after retries, 1 other errors
";

/// Entry point, factored for testing.
fn run_cli(args: &[String]) -> Result<String, CliError> {
    let mut it = args.iter();
    match it.next().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]).map_err(CliError::general),
        Some("trace") => cmd_trace(&args[1..]).map_err(CliError::general),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]).map_err(CliError::general),
        Some("hunt") => cmd_hunt(&args[1..]).map_err(CliError::general),
        Some("serve") => cmd_serve(&args[1..]),
        Some("client") => cmd_client(&args[1..]),
        Some("--help") | Some("-h") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::general(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|w| w[0] == flag)
        .map(|w| w[1].as_str())
}

fn positional(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for (i, a) in args.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            // Flags with values.
            skip = matches!(
                a.as_str(),
                "--arg" | "--passes" | "--rounds" | "--tries" | "--timeout" | "--max-splits"
                    | "--max-steps" | "--jobs" | "--deny" | "--journal" | "--addr"
                    | "--port-file" | "--queue" | "--retries" | "--io-timeout"
                    | "--read-timeout-ms" | "--write-timeout-ms" | "--drain-ms"
            ) && i + 1 < args.len();
            continue;
        }
        out.push(a.as_str());
    }
    out
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(format!("run: expected one program file\n{USAGE}"));
    };
    let arg: i64 = flag_value(args, "--arg")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--arg: {e}"))?;
    let prog = parse_program(&read(path)?).map_err(|e| e.to_string())?;
    cobalt::il::validate(&prog).map_err(|e| e.to_string())?;
    let result = Interp::new(&prog).run(arg).map_err(|e| e.to_string())?;
    Ok(format!("main({arg}) = {result}\n"))
}

fn cmd_trace(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(format!("trace: expected one program file\n{USAGE}"));
    };
    let arg: i64 = flag_value(args, "--arg")
        .unwrap_or("0")
        .parse()
        .map_err(|e| format!("--arg: {e}"))?;
    let prog = parse_program(&read(path)?).map_err(|e| e.to_string())?;
    cobalt::il::validate(&prog).map_err(|e| e.to_string())?;
    let (trace, result) = Interp::new(&prog).with_fuel(10_000).run_traced(arg);
    let mut out = String::new();
    for entry in &trace {
        out.push_str(&format!("{entry}\n"));
    }
    match result {
        Ok(v) => out.push_str(&format!("=> main({arg}) = {v} ({} steps)\n", trace.len())),
        Err(e) => out.push_str(&format!("=> {e} (after {} steps)\n", trace.len())),
    }
    Ok(out)
}

/// The flag cluster shared by every budgeted command (`optimize`,
/// `verify`, `serve`, `client`): wall-clock budget, step cap, worker
/// count, journal spec, and output mode. Parsed once into one typed
/// value instead of being re-scraped flag-by-flag in each command.
#[derive(Debug, Clone, Default)]
struct CommonFlags {
    /// `--timeout SECS` (fractions allowed), as a duration.
    timeout: Option<Duration>,
    /// `--max-steps N` fixpoint step cap.
    max_steps: Option<u64>,
    /// Resolved worker count: `--jobs N|auto`, then `COBALT_JOBS`,
    /// then 1.
    jobs: usize,
    /// `--journal PATH` plus the `--resume`/`--fresh` mode.
    journal: Option<(String, ResumeMode)>,
    /// `--json`.
    json: bool,
}

impl CommonFlags {
    /// Parses the shared cluster; `cmd` prefixes error messages.
    fn parse(args: &[String], cmd: &str) -> Result<CommonFlags, CliError> {
        let timeout = match flag_value(args, "--timeout") {
            None => None,
            Some(secs) => {
                let secs: f64 = secs
                    .parse()
                    .map_err(|e| CliError::general(format!("--timeout: {e}")))?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err(CliError::general(format!(
                        "--timeout: expected a nonnegative number, got `{secs}`"
                    )));
                }
                Some(Duration::from_secs_f64(secs))
            }
        };
        let max_steps = match flag_value(args, "--max-steps") {
            None => None,
            Some(n) => Some(
                n.parse::<u64>()
                    .map_err(|e| CliError::general(format!("--max-steps: {e}")))?,
            ),
        };
        Ok(CommonFlags {
            timeout,
            max_steps,
            jobs: resolve_jobs(args).map_err(CliError::general)?,
            journal: journal_spec(args, cmd)?.map(|(p, m)| (p.to_string(), m)),
            json: args.iter().any(|a| a == "--json"),
        })
    }
}

/// How `verify` and `optimize` print a report-bearing execution result
/// (exit 0, 2 or 3): `notes`, then the payload on stdout; a non-zero
/// verdict adds the one `cobalt: {why}` line on stderr.
fn exec_outcome(notes: String, result: ExecResult, why: &str) -> Result<String, CliError> {
    match result.exit {
        0 => Ok(notes + &result.output),
        code => Err(CliError {
            code,
            msg: why.to_string(),
            out: Some(notes + &result.output),
        }),
    }
}

fn cmd_optimize(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let [path] = pos.as_slice() else {
        return Err(CliError::general(format!(
            "optimize: expected one program file\n{USAGE}"
        )));
    };
    let common = CommonFlags::parse(args, "optimize")?;
    let rounds: usize = flag_value(args, "--rounds")
        .unwrap_or("4")
        .parse()
        .map_err(|e| format!("--rounds: {e}"))?;
    let passes = flag_value(args, "--passes").unwrap_or("all");
    let (prog, passes) =
        exec::pipeline(&read(path)?, passes).map_err(|e| CliError::general(e.output))?;
    let cfg = ExecConfig {
        timeout: common.timeout,
        max_steps: common.max_steps,
        ..ExecConfig::default()
    };
    // The one-shot CLI has no caller token to observe; a fresh one is
    // never tripped.
    let engine = exec::engine(&cfg, &Default::default());
    let mut session = OptimizeSession::new(engine.clone()).with_jobs(common.jobs);
    if let Some((jpath, mode)) = &common.journal {
        session = session.with_journal(jpath, *mode);
    }
    let (mut out, report) = exec::optimize(&mut session, &prog, &passes, rounds);
    session.finish();
    let mut notes = String::new();
    let loaded = session.load_report();
    if loaded.corrupted() {
        notes.push_str(&format!(
            "// note: journal recovered {} record(s), discarded {} corrupt byte(s)\n",
            loaded.records, loaded.discarded_bytes,
        ));
    }
    if let Some(reason) = session.degraded() {
        // Journal trouble never fails optimization — it degrades to an
        // unjournaled run and says so.
        notes.push_str(&format!("// note: journaling disabled ({reason})\n"));
    }
    if args.iter().any(|a| a == "--recursive-dae") {
        let mut extra = 0;
        for proc in out.procs.clone() {
            // Budget exhaustion is exit 3 (inconclusive), anything else 1.
            let (p, removed) =
                cobalt::engine::apply_recursive(&engine, &proc, &cobalt::opts::dae()).map_err(
                    |e| CliError {
                        code: match e {
                            EngineError::ResourceLimited(_) => EXIT_RESOURCE_LIMITED,
                            _ => 1,
                        },
                        msg: e.to_string(),
                        out: None,
                    },
                )?;
            extra += removed.len();
            out = out.with_proc_replaced(p);
        }
        if extra > 0 {
            notes.push_str(&format!("// note: +{extra} by recursive DAE\n"));
        }
    }
    let mut result = exec::optimized(&out, &report);
    if common.json {
        // Machine-readable: the report only (JSON lines, stable bytes
        // at any --jobs count).
        notes.clear();
        result.output = format!("{}\n", report.json_lines());
    }
    exec_outcome(
        notes,
        result,
        "optimization hit resource limits; affected passes were skipped soundly",
    )
}

/// Builds the retry policy for `verify` from the shared `--timeout`
/// (per-report wall-clock budget) and `--max-splits` (cap on case
/// splits per proof attempt, applied to every tier).
fn verify_policy(args: &[String], common: &CommonFlags) -> Result<RetryPolicy, String> {
    let mut policy = RetryPolicy::default();
    if let Some(n) = flag_value(args, "--max-splits") {
        let n: usize = n.parse().map_err(|e| format!("--max-splits: {e}"))?;
        for tier in &mut policy.tiers {
            tier.max_splits = tier.max_splits.min(n);
        }
    }
    if let Some(timeout) = common.timeout {
        policy = policy.with_report_deadline(timeout);
    }
    Ok(policy)
}

/// Resolves the worker count: `--jobs` wins, then the `COBALT_JOBS`
/// environment variable, then 1 (sequential — the pool is bypassed
/// entirely). The value `auto` (from either source) asks the host via
/// [`std::thread::available_parallelism`], clamped to 64; the pool
/// further clamps its workers to the task count, so an oversized
/// answer never spawns idle threads. Zero and non-numeric values are
/// typed CLI errors, from either source.
fn resolve_jobs(args: &[String]) -> Result<usize, String> {
    let (value, source) = match flag_value(args, "--jobs") {
        Some(v) => (v.to_string(), "--jobs"),
        None => match std::env::var("COBALT_JOBS") {
            Ok(v) => (v, "COBALT_JOBS"),
            Err(_) => return Ok(1),
        },
    };
    if value.trim() == "auto" {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        return Ok(n.min(64));
    }
    let jobs: usize = value
        .trim()
        .parse()
        .map_err(|e| format!("{source}: {e} (`{value}`)"))?;
    if jobs == 0 {
        return Err(format!("{source}: expected a positive worker count, got 0"));
    }
    Ok(jobs)
}

/// Parses `--journal PATH` plus the mutually exclusive
/// `--resume`/`--fresh` mode flags (shared by `verify` and `optimize`).
/// Both mode flags require `--journal`; with `--journal` alone the
/// session resumes (an absent or empty journal resumes to nothing, so
/// this is always safe). `cmd` prefixes error messages.
fn journal_spec<'a>(
    args: &'a [String],
    cmd: &str,
) -> Result<Option<(&'a str, ResumeMode)>, CliError> {
    let resume = args.iter().any(|a| a == "--resume");
    let fresh = args.iter().any(|a| a == "--fresh");
    if resume && fresh {
        return Err(CliError::general(format!(
            "{cmd}: --resume and --fresh are mutually exclusive"
        )));
    }
    match flag_value(args, "--journal") {
        None if resume || fresh => Err(CliError::general(format!(
            "{cmd}: --resume/--fresh require --journal PATH"
        ))),
        None => Ok(None),
        Some(path) => {
            let mode = if fresh {
                ResumeMode::Fresh
            } else {
                ResumeMode::Resume
            };
            Ok(Some((path, mode)))
        }
    }
}

/// Builds the verification session for `verify` from the parsed
/// journal spec. A journal path that cannot be opened is a typed CLI
/// error (exit 1), not a panic.
fn verify_session(common: &CommonFlags, verifier: Verifier) -> Result<Session, CliError> {
    match &common.journal {
        None => Ok(Session::new(verifier)),
        Some((path, mode)) => Session::with_journal(verifier, path, *mode).map_err(|e| {
            CliError::general(format!("verify: opening journal `{path}`: {e}"))
        }),
    }
}

fn cmd_verify(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let common = CommonFlags::parse(args, "verify")?;
    let suite = pos.first().map(|p| read(p)).transpose()?;
    let rules = exec::rules(suite.as_deref()).map_err(|e| CliError::general(e.output))?;
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
        .with_retry_policy(verify_policy(args, &common)?)
        .with_jobs(common.jobs);
    let mut session = verify_session(&common, verifier)?;
    let include_buggy = args.iter().any(|a| a == "--include-buggy");
    let result = exec::verify(&mut session, &rules, include_buggy, Report::summary);
    if result.exit == 1 {
        // No finish: compaction would drop the journal records of the
        // rules this failed run never reached.
        return Err(CliError::general(result.output));
    }
    session.finish();
    let mut notes = String::new();
    let loaded = session.load_report();
    if loaded.corrupted() {
        notes.push_str(&format!(
            "note: journal recovered {} record(s), discarded {} corrupt byte(s){}\n",
            loaded.records,
            loaded.discarded_bytes,
            loaded
                .corruption
                .as_deref()
                .map(|c| format!(" ({c})"))
                .unwrap_or_default(),
        ));
    }
    if let Some(reason) = session.degraded() {
        // Journal trouble never fails verification — it degrades to an
        // uncached run and says so, preserving the exit-code contract.
        notes.push_str(&format!(
            "note: journaling disabled ({reason}); verification continued uncached\n"
        ));
    }
    // The payload's last line is its verdict sentence.
    let why = result.output.lines().last().unwrap_or_default().to_string();
    exec_outcome(notes, result, &why)
}

fn cmd_lint(args: &[String]) -> Result<String, CliError> {
    use cobalt::lint::{
        lint_analysis, lint_optimization, lint_program, Diagnostics, LintContext, RuleLintOptions,
    };
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = match flag_value(args, "--deny") {
        None => false,
        Some("warn") => true,
        Some(other) => {
            return Err(CliError::general(format!(
                "--deny: expected `warn`, got `{other}`"
            )))
        }
    };
    let env = LabelEnv::standard();
    let lint_opts = RuleLintOptions::default();
    let mut diags = Diagnostics::new();
    let pos = positional(args);
    if pos.is_empty() {
        // Lint the whole built-in registry. The buggy §6 variants are
        // included deliberately: they must be structurally clean — the
        // bug each one carries is semantic, which is the prover's job
        // (DESIGN.md §9).
        let analyses = cobalt::opts::all_analyses();
        let ctx = LintContext::new(&env).with_analyses(&analyses);
        for a in &analyses {
            diags.absorb(lint_analysis(a, &ctx, &lint_opts));
        }
        for o in cobalt::opts::all_optimizations()
            .iter()
            .chain(cobalt::opts::buggy_optimizations().iter())
        {
            diags.absorb(lint_optimization(o, &ctx, &lint_opts));
        }
    } else {
        for path in pos {
            if path.ends_with(".cob") {
                let suite =
                    cobalt::dsl::parse_suite(&read(path)?).map_err(|e| e.to_string())?;
                let ctx = LintContext::new(&env).with_analyses(&suite.analyses);
                for a in &suite.analyses {
                    diags.absorb(lint_analysis(a, &ctx, &lint_opts));
                }
                for o in &suite.optimizations {
                    diags.absorb(lint_optimization(o, &ctx, &lint_opts));
                }
            } else {
                let prog = parse_program(&read(path)?).map_err(|e| e.to_string())?;
                lint_program(&prog, &mut diags);
            }
        }
    }
    let out = if json {
        diags.json_lines()
    } else {
        diags.render_human()
    };
    if diags.is_failing(deny_warnings) {
        Err(CliError {
            code: EXIT_LINT,
            msg: format!(
                "lint failed: {} error(s), {} warning(s)",
                diags.error_count(),
                diags.warning_count()
            ),
            out: Some(out),
        })
    } else {
        Ok(out)
    }
}

fn cmd_validate(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [orig_path, new_path] = pos.as_slice() else {
        return Err(format!("validate: expected two program files\n{USAGE}"));
    };
    let orig = parse_program(&read(orig_path)?).map_err(|e| e.to_string())?;
    let new = parse_program(&read(new_path)?).map_err(|e| e.to_string())?;
    let mut out = String::new();
    for proc in &orig.procs {
        let Some(new_proc) = new.proc(&proc.name) else {
            return Err(format!("procedure `{}` missing from the transformed program", proc.name));
        };
        let report = cobalt::tv::validate_proc(proc, new_proc).map_err(|e| e.to_string())?;
        for site in &report.sites {
            out.push_str(&format!(
                "{}:{} {} — {}\n",
                proc.name,
                site.index,
                if site.validated { "ok" } else { "REJECTED" },
                site.reason
            ));
        }
        if !report.validated() {
            return Err(format!("{out}validation failed"));
        }
    }
    out.push_str("validated\n");
    Ok(out)
}

fn cmd_hunt(args: &[String]) -> Result<String, String> {
    let pos = positional(args);
    let [what] = pos.as_slice() else {
        return Err(format!("hunt: expected an optimization name or suite file\n{USAGE}"));
    };
    let tries: u64 = flag_value(args, "--tries")
        .unwrap_or("3000")
        .parse()
        .map_err(|e| format!("--tries: {e}"))?;
    let opt = if *what == "buggy" {
        cobalt::opts::buggy::load_elim_no_alias()
    } else if what.ends_with(".cob") {
        let suite = cobalt::dsl::parse_suite(&read(what)?).map_err(|e| e.to_string())?;
        suite
            .optimizations
            .into_iter()
            .next()
            .ok_or_else(|| "suite file contains no optimizations".to_string())?
    } else {
        cobalt::opts::all_optimizations()
            .into_iter()
            .find(|o| &o.name == what)
            .ok_or_else(|| format!("unknown optimization `{what}`"))?
    };
    let cfg = cobalt::synth::SynthConfig {
        tries,
        ..Default::default()
    };
    match cobalt::synth::find_counterexample(&opt, &cfg) {
        Some(cx) => Ok(format!("counterexample found for `{}`:\n{cx}", opt.name)),
        None => Ok(format!(
            "no counterexample found for `{}` in {tries} tries\n",
            opt.name
        )),
    }
}

/// Parses a `--…-ms MILLIS` flag with a default.
fn ms_flag(args: &[String], flag: &str, default_ms: u64) -> Result<Duration, CliError> {
    match flag_value(args, flag) {
        None => Ok(Duration::from_millis(default_ms)),
        Some(v) => v
            .parse::<u64>()
            .map(Duration::from_millis)
            .map_err(|e| CliError::general(format!("{flag}: {e}"))),
    }
}

fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    if !pos.is_empty() {
        return Err(CliError::general(format!(
            "serve: unexpected argument `{}`\n{USAGE}",
            pos[0]
        )));
    }
    let common = CommonFlags::parse(args, "serve")?;
    let queue_cap: usize = flag_value(args, "--queue")
        .unwrap_or("64")
        .parse()
        .map_err(|e| format!("--queue: {e}"))?;
    if queue_cap == 0 {
        return Err(CliError::general("--queue: expected a positive capacity, got 0"));
    }
    let exec = ExecConfig {
        policy: verify_policy(args, &common)?,
        timeout: common.timeout,
        max_steps: common.max_steps,
        // Within-request parallelism is the dispatcher's decision
        // (batch-size dependent); this is only the fallback.
        jobs: 1,
    };
    let cfg = ServeConfig {
        addr: flag_value(args, "--addr").unwrap_or("127.0.0.1:0").to_string(),
        port_file: flag_value(args, "--port-file").map(PathBuf::from),
        jobs: common.jobs,
        queue_cap,
        exec,
        journal: common
            .journal
            .as_ref()
            .map(|(p, m)| (PathBuf::from(p), *m)),
        read_timeout: ms_flag(args, "--read-timeout-ms", 10_000)?,
        write_timeout: ms_flag(args, "--write-timeout-ms", 10_000)?,
        drain_wait: ms_flag(args, "--drain-ms", 5_000)?,
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg)
        .map_err(|e| CliError::general(format!("serve: starting daemon: {e}")))?;
    // The address goes to stderr immediately (stdout is the summary,
    // printed at exit); scripts rendezvous via --port-file.
    eprintln!("cobalt serve: listening on {}", handle.addr());
    let summary = handle.join();
    let mut out = format!(
        "serve: {} request(s) — {} fresh, {} cached, {} coalesced, {} shed, {} error(s); {} cache entr{}\n",
        summary.received,
        summary.fresh,
        summary.cache_hits,
        summary.coalesced,
        summary.shed,
        summary.errors,
        summary.cache_entries,
        if summary.cache_entries == 1 { "y" } else { "ies" },
    );
    if let Some(reason) = &summary.degraded {
        out.push_str(&format!(
            "note: proof cache degraded ({reason}); daemon served uncached\n"
        ));
    }
    Ok(out)
}

fn cmd_client(args: &[String]) -> Result<String, CliError> {
    let pos = positional(args);
    let Some(&op_name) = pos.first() else {
        return Err(CliError::general(format!(
            "client: expected an operation (verify|optimize|ping|stats|shutdown)\n{USAGE}"
        )));
    };
    let common = CommonFlags::parse(args, "client")?;
    // `--timeout` is the *daemon-side* request budget everywhere else
    // (serve docs: it bounds requests exactly as the one-shot commands
    // do). Reinterpreting it as this client's socket deadline would
    // make a habitual `--timeout 5` abandon the read mid-exchange
    // while the daemon keeps executing — reject it and point at the
    // distinct flag instead.
    if common.timeout.is_some() {
        return Err(CliError::general(
            "client: --timeout is a daemon-side request budget (set it on `cobalt serve`); \
             use --io-timeout SECS to bound this client's socket I/O",
        ));
    }
    let io_timeout = match flag_value(args, "--io-timeout") {
        None => Duration::from_secs(600),
        Some(secs) => {
            let secs: f64 = secs
                .parse()
                .map_err(|e| CliError::general(format!("--io-timeout: {e}")))?;
            if !secs.is_finite() || secs <= 0.0 {
                return Err(CliError::general(format!(
                    "--io-timeout: expected a positive number of seconds, got `{secs}`"
                )));
            }
            Duration::from_secs_f64(secs)
        }
    };
    let op = match op_name {
        "ping" => RequestOp::Ping,
        "stats" => RequestOp::Stats,
        "shutdown" => RequestOp::Shutdown,
        "verify" => RequestOp::Verify {
            suite: pos.get(1).map(|p| read(p)).transpose()?,
            include_buggy: args.iter().any(|a| a == "--include-buggy"),
        },
        "optimize" => {
            let Some(path) = pos.get(1) else {
                return Err(CliError::general(format!(
                    "client optimize: expected one program file\n{USAGE}"
                )));
            };
            RequestOp::Optimize {
                program: read(path)?,
                passes: flag_value(args, "--passes").unwrap_or("all").to_string(),
                rounds: flag_value(args, "--rounds")
                    .unwrap_or("4")
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?,
            }
        }
        other => {
            return Err(CliError::general(format!(
                "client: unknown operation `{other}`\n{USAGE}"
            )))
        }
    };
    let addr = match (flag_value(args, "--addr"), flag_value(args, "--port-file")) {
        (Some(a), _) => a.to_string(),
        (None, Some(pf)) => read(pf)?.trim().to_string(),
        (None, None) => ClientConfig::default().addr,
    };
    let cfg = ClientConfig {
        addr,
        io_timeout,
        retries: flag_value(args, "--retries")
            .unwrap_or("5")
            .parse()
            .map_err(|e| format!("--retries: {e}"))?,
        ..ClientConfig::default()
    };
    let req = Request {
        id: format!("cli-{}", std::process::id()),
        op,
    };
    let resp = match request_with_retry(&cfg, &req) {
        Ok(resp) => resp,
        Err(ClientError::Shed(r)) => {
            // Still overloaded after the whole retry budget: the
            // daemon is resource-limited, not wrong — exit 3, like any
            // exhausted budget.
            return Err(CliError {
                code: EXIT_RESOURCE_LIMITED,
                msg: format!(
                    "daemon shed the request after retries ({})",
                    if r.error.is_empty() { "overloaded" } else { &r.error }
                ),
                out: None,
            });
        }
        Err(e) => return Err(CliError::general(format!("client: {e}"))),
    };
    if !resp.note.is_empty() {
        eprintln!("cobalt client: note: {}", resp.note);
    }
    match resp.status {
        Status::Bye => Ok("daemon draining\n".to_string()),
        Status::Ok if resp.exit == 0 => Ok(resp.output),
        Status::Ok => Err(CliError {
            code: resp.exit,
            msg: format!("daemon verdict: {}", resp.verdict),
            out: Some(resp.output),
        }),
        _ => Err(CliError::general(format!(
            "daemon error: {}",
            if resp.error.is_empty() { "unspecified" } else { &resp.error }
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_tmp(name: &str, contents: &str) -> String {
        // Keep `name` (and so its extension) last: `cobalt lint`
        // dispatches on the file extension.
        let path = std::env::temp_dir().join(format!("cobalt_cli_{}_{name}", std::process::id()));
        std::fs::write(&path, contents).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run_cli(&[]).unwrap().contains("usage"));
        assert!(run_cli(&["bogus".into()]).is_err());
    }

    #[test]
    fn run_command_interprets() {
        let p = write_tmp("run.il", "proc main(x) { decl y; y := x + 1; return y; }");
        let out = run_cli(&["run".into(), p.clone(), "--arg".into(), "41".into()]).unwrap();
        assert_eq!(out, "main(41) = 42\n");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_command_rewrites() {
        let p = write_tmp(
            "opt.il",
            "proc main(x) { decl a; decl c; a := 2; c := a; return c; }",
        );
        let out = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--passes".into(),
            "const_prop".into(),
        ])
        .unwrap();
        assert!(out.contains("c := 2"), "{out}");
        std::fs::remove_file(p).ok();
    }

    /// A small two-procedure program with a loop, so fixpoints take
    /// enough steps to exercise budgets and parallelism.
    const TWO_PROCS: &str = "proc f(x) { decl a; decl c; a := 2; c := a; return c; }
proc main(x) {
    decl i;
    decl s;
    i := x;
    s := 0;
    if i goto 5 else 8;
    s := s + i;
    i := i - 1;
    if i goto 5 else 8;
    return s;
}";

    #[test]
    fn optimize_timeout_zero_exits_resource_limited() {
        let p = write_tmp("opt_to.il", TWO_PROCS);
        // Exit 3, and the (unoptimized, still-correct) program is
        // printed with a degradation note.
        let err = run_cli(&["optimize".into(), p.clone(), "--timeout".into(), "0".into()])
            .unwrap_err();
        assert_eq!(err.code, EXIT_RESOURCE_LIMITED, "{}", err.msg);
        assert!(err.msg.contains("resource limits"), "{}", err.msg);
        let out = err.out.expect("a budget-limited run still prints the program");
        assert!(out.contains("proc main"), "{out}");
        assert!(out.contains("resource limited"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_max_steps_zero_quarantines_soundly() {
        let p = write_tmp("opt_ms.il", TWO_PROCS);
        let err = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--max-steps".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_RESOURCE_LIMITED, "{}", err.msg);
        let out = err.out.unwrap();
        // Nothing was rewritten — the program must round-trip intact.
        assert!(out.contains("step cap exhausted"), "{out}");
        assert!(out.contains("s := s + i"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_json_emits_report_lines_only() {
        let p = write_tmp("opt_json.il", TWO_PROCS);
        let out = run_cli(&["optimize".into(), p.clone(), "--json".into()]).unwrap();
        let mut lines = out.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("{\"type\":\"summary\""), "{first}");
        assert!(first.contains("\"applied\":"), "{first}");
        // No program text in machine-readable mode.
        assert!(!out.contains("proc main"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_jobs_output_is_byte_identical() {
        let p = write_tmp("opt_jobs.il", TWO_PROCS);
        let one = run_cli(&["optimize".into(), p.clone(), "--jobs".into(), "1".into()]).unwrap();
        let four = run_cli(&["optimize".into(), p.clone(), "--jobs".into(), "4".into()]).unwrap();
        assert_eq!(one, four);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_journal_resumes_warm() {
        let p = write_tmp("opt_jnl.il", TWO_PROCS);
        let jpath = std::env::temp_dir().join(format!("cobalt_cli_{}_opt.journal", std::process::id()));
        let j = jpath.to_string_lossy().into_owned();
        let cold = run_cli(&["optimize".into(), p.clone(), "--journal".into(), j.clone()]).unwrap();
        assert!(!cold.contains("cached"), "{cold}");
        let warm = run_cli(&["optimize".into(), p.clone(), "--journal".into(), j.clone()]).unwrap();
        assert!(warm.contains("2 procs cached"), "{warm}");
        // Warm resume replays the same result: program text identical.
        assert_eq!(
            cold.lines().skip(1).collect::<Vec<_>>(),
            warm.lines().skip(1).collect::<Vec<_>>(),
        );
        // --fresh discards the cache and recomputes.
        let fresh = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--journal".into(),
            j.clone(),
            "--fresh".into(),
        ])
        .unwrap();
        assert!(!fresh.contains("cached"), "{fresh}");
        std::fs::remove_file(p).ok();
        std::fs::remove_file(jpath).ok();
    }

    #[test]
    fn optimize_journal_mode_flags_are_validated() {
        let p = write_tmp("opt_jv.il", TWO_PROCS);
        let err = run_cli(&["optimize".into(), p.clone(), "--resume".into()]).unwrap_err();
        assert!(err.msg.contains("require --journal"), "{}", err.msg);
        let err = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--journal".into(),
            "x.journal".into(),
            "--resume".into(),
            "--fresh".into(),
        ])
        .unwrap_err();
        assert!(err.msg.contains("mutually exclusive"), "{}", err.msg);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_fixpoint_fault_degrades_not_fatal() {
        let p = write_tmp("opt_fault.il", TWO_PROCS);
        let out = cobalt_support::fault::with_faults("engine.fixpoint:fail@1", || {
            run_cli(&["optimize".into(), p.clone()]).unwrap()
        });
        // The injected failure quarantines one pass; the run still
        // succeeds (exit 0) and prints a valid program.
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("injected fault"), "{out}");
        assert!(out.contains("proc main"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_recursive_dae_runs_whatever_other_flags() {
        // A mutually-dead cycle: `a` and `b` only feed each other.
        let p = write_tmp(
            "opt_rdae.il",
            "proc main(x) { decl a; decl b; decl i; i := x; a := b + 1; b := a + 1; \
             i := i - 1; if i goto 4 else 8; return x; }",
        );
        let out = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--recursive-dae".into(),
            "--jobs".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(out.starts_with("// note: +2 by recursive DAE\n"), "{out}");
        assert!(out.contains("/* 4 */ skip;"), "{out}");
        assert!(out.contains("/* 5 */ skip;"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_prints_the_daemon_payload() {
        let p = write_tmp("opt_parity.il", TWO_PROCS);
        let out = run_cli(&["optimize".into(), p.clone()]).unwrap();
        let op = RequestOp::Optimize {
            program: TWO_PROCS.into(),
            passes: "all".into(),
            rounds: 4,
        };
        let served = exec::execute(&op, &ExecConfig::default(), &Default::default());
        assert_eq!(served.exit, 0, "{}", served.output);
        assert_eq!(out, served.output);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_journal_fault_degrades_to_unjournaled() {
        let p = write_tmp("opt_jfault.il", TWO_PROCS);
        let jpath =
            std::env::temp_dir().join(format!("cobalt_cli_{}_optjf.journal", std::process::id()));
        let j = jpath.to_string_lossy().into_owned();
        let out = cobalt_support::fault::with_faults("engine.journal:fail@1", || {
            run_cli(&["optimize".into(), p.clone(), "--journal".into(), j.clone()]).unwrap()
        });
        assert!(out.contains("journaling disabled"), "{out}");
        assert!(out.contains("proc main"), "{out}");
        std::fs::remove_file(p).ok();
        std::fs::remove_file(jpath).ok();
    }

    #[test]
    fn verify_command_on_suite_file() {
        let p = write_tmp(
            "suite.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let out = run_cli(&["verify".into(), p.clone()]).unwrap();
        assert!(out.contains("all optimizations proved sound"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn verify_timeout_zero_exits_resource_limited() {
        let p = write_tmp(
            "suite_to.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let err = run_cli(&[
            "verify".into(),
            p.clone(),
            "--timeout".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_RESOURCE_LIMITED, "{}", err.msg);
        assert!(err.msg.contains("resource limits"), "{}", err.msg);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn verify_unsound_suite_exits_unsound() {
        // const_prop with the guard protecting the wrong variable: the
        // region no longer establishes eta(Y) == C, so an obligation
        // fails on a genuine open branch.
        let p = write_tmp(
            "suite_bad.cob",
            "forward bad_prop {
                stmt(Y := C) followed by !mayDef(X)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let err = run_cli(&["verify".into(), p.clone()]).unwrap_err();
        assert_eq!(err.code, exec::EXIT_UNSOUND, "{}", err.msg);
        assert!(err.msg.contains("some obligations failed"), "{}", err.msg);
        // The report itself goes to stdout, like every other verdict.
        let out = err.out.expect("an unsound verdict still prints its report");
        assert!(out.contains("FAILED"), "{out}");
        std::fs::remove_file(p).ok();
    }

    /// `verify`'s stdout with each report's ` in <time>` removed — the
    /// one byte range the daemon's stable payload leaves out. The time
    /// ends a line, or precedes a buggy variant's verdict.
    fn without_times(out: &str) -> String {
        let mut kept = String::new();
        let mut rest = out;
        while let Some(at) = rest.find(" in ") {
            kept.push_str(&rest[..at]);
            let after = &rest[at + " in ".len()..];
            let end = after.find([' ', '\n']).unwrap_or(after.len());
            let time = &after[..end];
            if time.starts_with(|c: char| c.is_ascii_digit()) && time.ends_with('s') {
                rest = &after[end..];
            } else {
                kept.push_str(" in ");
                rest = after;
            }
        }
        kept + rest
    }

    #[test]
    fn verify_prints_the_daemon_payload_plus_times() {
        let sound = "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }";
        let unsound = "forward bad_prop {
                stmt(Y := C) followed by !mayDef(X)
                until X := Y => X := C
                with witness eta(Y) == C
            }";
        let ok = write_tmp("parity_ok.cob", sound);
        let bad = write_tmp("parity_bad.cob", unsound);
        // (CLI arguments, the request the daemon answers with the same
        // payload) — the built-in registry with its buggy variants too.
        let inputs = [
            (vec![ok.clone()], Some(sound), false),
            (vec![bad.clone()], Some(unsound), false),
            (vec!["--include-buggy".to_string()], None, true),
        ];
        for (args, suite, include_buggy) in inputs {
            let op = RequestOp::Verify {
                suite: suite.map(String::from),
                include_buggy,
            };
            let served = exec::execute(&op, &ExecConfig::default(), &Default::default());
            for jobs in ["1", "4"] {
                let mut cli = vec!["verify".to_string(), "--jobs".into(), jobs.into()];
                cli.extend(args.iter().cloned());
                let out = match run_cli(&cli) {
                    Ok(out) => out,
                    Err(e) => e.out.expect("every verdict prints its report"),
                };
                assert_eq!(without_times(&out), served.output, "{cli:?}");
            }
        }
        std::fs::remove_file(ok).ok();
        std::fs::remove_file(bad).ok();
    }

    fn common(args: &[String]) -> CommonFlags {
        CommonFlags::parse(args, "test").unwrap()
    }

    #[test]
    fn verify_flags_parse_and_cap_tiers() {
        let args = vec!["--max-splits".to_string(), "7".to_string()];
        let policy = verify_policy(&args, &common(&args)).unwrap();
        assert!(policy.tiers.iter().all(|t| t.max_splits == 7));
        // Bad timeouts are caught once, in the shared cluster parse.
        assert!(CommonFlags::parse(&["--timeout".into(), "abc".into()], "t").is_err());
        assert!(CommonFlags::parse(&["--timeout".into(), "-1".into()], "t").is_err());
        let args = vec!["--timeout".to_string(), "1.5".to_string()];
        let policy = verify_policy(&args, &common(&args)).unwrap();
        assert_eq!(
            policy.report_deadline,
            Some(std::time::Duration::from_millis(1500))
        );
    }

    #[test]
    fn common_flags_parse_the_whole_cluster_once() {
        let args: Vec<String> = [
            "--timeout", "2", "--max-steps", "9", "--jobs", "3", "--journal", "j.cobj",
            "--fresh", "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let c = common(&args);
        assert_eq!(c.timeout, Some(std::time::Duration::from_secs(2)));
        assert_eq!(c.max_steps, Some(9));
        assert_eq!(c.jobs, 3);
        assert_eq!(c.journal, Some(("j.cobj".to_string(), ResumeMode::Fresh)));
        assert!(c.json);
    }

    #[test]
    fn resolve_jobs_flag_parses_and_rejects_nonsense() {
        // No flag and no env (the test env never sets COBALT_JOBS):
        // sequential default.
        assert_eq!(resolve_jobs(&[]).unwrap(), 1);
        assert_eq!(resolve_jobs(&["--jobs".into(), "4".into()]).unwrap(), 4);
        assert_eq!(resolve_jobs(&["--jobs".into(), " 2 ".into()]).unwrap(), 2);
        let err = resolve_jobs(&["--jobs".into(), "0".into()]).unwrap_err();
        assert!(err.contains("positive worker count"), "{err}");
        let err = resolve_jobs(&["--jobs".into(), "many".into()]).unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        // And it surfaces as a typed exit-1 CLI error, not a panic.
        let err = run_cli(&["verify".into(), "--jobs".into(), "0".into()]).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
    }

    #[test]
    fn resolve_jobs_auto_asks_the_host_and_clamps() {
        let jobs = resolve_jobs(&["--jobs".into(), "auto".into()]).unwrap();
        assert!(jobs >= 1, "auto resolved to zero workers");
        assert!(jobs <= 64, "auto must clamp: got {jobs}");
        let host = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(jobs, host.min(64));
        // `auto` still runs a real verification identically: the pool
        // further clamps workers to the task count (a regression test
        // for the worker clamp — see pool::run_ordered).
        let p = write_tmp(
            "suite_auto.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let strip_times = |s: String| -> Vec<String> {
            // "… proved in 6.9ms" → "… proved" (wall-clock is the one
            // legitimately nondeterministic byte range).
            s.lines()
                .map(|l| l.split(" in ").next().unwrap_or(l).to_string())
                .collect()
        };
        let auto = run_cli(&["verify".into(), p.clone(), "--jobs".into(), "auto".into()]).unwrap();
        let seq = run_cli(&["verify".into(), p.clone()]).unwrap();
        assert_eq!(strip_times(auto), strip_times(seq));
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn verify_parallel_jobs_proves_the_suite() {
        let p = write_tmp(
            "suite_par.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let out = run_cli(&["verify".into(), p.clone(), "--jobs".into(), "4".into()]).unwrap();
        assert!(out.contains("all optimizations proved sound"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn verify_journal_resume_reports_cached_obligations() {
        let suite = write_tmp(
            "suite_j.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let journal = std::env::temp_dir().join(format!(
            "cobalt_cli_journal_{}.cobj",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let j = journal.to_string_lossy().into_owned();
        // Cold run: everything fresh, no cache note.
        let cold = run_cli(&["verify".into(), suite.clone(), "--journal".into(), j.clone()])
            .unwrap();
        assert!(cold.contains("all optimizations proved sound"), "{cold}");
        assert!(!cold.contains("cached"), "{cold}");
        // Warm run (default --journal semantics = resume): all cached.
        let warm = run_cli(&["verify".into(), suite.clone(), "--journal".into(), j.clone()])
            .unwrap();
        assert!(warm.contains("cached, 0 fresh"), "{warm}");
        // --fresh wipes the cache: back to a cold run.
        let fresh = run_cli(&[
            "verify".into(),
            suite.clone(),
            "--journal".into(),
            j.clone(),
            "--fresh".into(),
        ])
        .unwrap();
        assert!(!fresh.contains("cached"), "{fresh}");
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(suite).ok();
    }

    #[test]
    fn verify_journal_flag_errors_are_typed_exit_1() {
        // Unopenable journal path: typed CLI error, exit 1 — not a
        // panic, not an unwrap (the file-I/O audit regression).
        let err = run_cli(&[
            "verify".into(),
            "--journal".into(),
            "/nonexistent-dir/sub/j.cobj".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
        assert!(err.msg.contains("opening journal"), "{}", err.msg);
        // Mode flags without --journal, and conflicting mode flags.
        let err = run_cli(&["verify".into(), "--resume".into()]).unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.msg.contains("require --journal"), "{}", err.msg);
        let err = run_cli(&[
            "verify".into(),
            "--journal".into(),
            "j".into(),
            "--resume".into(),
            "--fresh".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 1);
        assert!(err.msg.contains("mutually exclusive"), "{}", err.msg);
    }

    #[test]
    fn verify_journal_write_fault_degrades_to_uncached() {
        let suite = write_tmp(
            "suite_jf.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let journal = std::env::temp_dir().join(format!(
            "cobalt_cli_journal_fault_{}.cobj",
            std::process::id()
        ));
        std::fs::remove_file(&journal).ok();
        let out = cobalt_support::fault::with_faults("journal.write:fail@1", || {
            run_cli(&[
                "verify".into(),
                suite.clone(),
                "--journal".into(),
                journal.to_string_lossy().into_owned(),
            ])
        })
        .unwrap();
        assert!(out.contains("journaling disabled"), "{out}");
        assert!(out.contains("all optimizations proved sound"), "{out}");
        std::fs::remove_file(&journal).ok();
        std::fs::remove_file(suite).ok();
    }

    #[test]
    fn lint_builtin_registry_is_clean() {
        let out = run_cli(&["lint".into()]).unwrap();
        assert!(out.contains("0 error(s)"), "{out}");
    }

    #[test]
    fn lint_flags_il_defects_with_exit_4() {
        // Branch target 9 is out of range: IL001, an error.
        let p = write_tmp(
            "lint_bad.il",
            "proc main(x) { if x goto 9 else 1; return x; }",
        );
        let err = run_cli(&["lint".into(), p.clone()]).unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        assert!(err.out.as_deref().unwrap_or("").contains("IL001"), "{err:?}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn lint_deny_warn_promotes_warnings() {
        // Statements after the first return are unreachable: IL003,
        // a warning — passing by default, failing under --deny warn.
        let p = write_tmp(
            "lint_warn.il",
            "proc main(x) { return x; skip; return x; }",
        );
        let ok = run_cli(&["lint".into(), p.clone()]).unwrap();
        assert!(ok.contains("IL003"), "{ok}");
        let err = run_cli(&["lint".into(), p.clone(), "--deny".into(), "warn".into()])
            .unwrap_err();
        assert_eq!(err.code, EXIT_LINT, "{}", err.msg);
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn lint_json_emits_one_object_per_line() {
        let p = write_tmp(
            "lint_json.il",
            "proc main(x) { if x goto 9 else 1; return x; }",
        );
        let err = run_cli(&["lint".into(), p.clone(), "--json".into()]).unwrap_err();
        let out = err.out.expect("json report on stdout");
        assert!(!out.is_empty());
        for line in out.lines() {
            assert!(
                line.starts_with("{\"code\":\"") && line.ends_with('}'),
                "not a JSON object line: {line}"
            );
        }
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn lint_rejects_lint_suite_rules_and_bad_deny_value() {
        // A suite rule whose template uses an unbound constant: CL001.
        let p = write_tmp(
            "lint_suite.cob",
            "forward broken {
                stmt(Y := D) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let err = run_cli(&["lint".into(), p.clone()]).unwrap_err();
        assert_eq!(err.code, EXIT_LINT, "{}", err.msg);
        assert!(err.out.as_deref().unwrap_or("").contains("CL001"), "{err:?}");
        std::fs::remove_file(p).ok();
        let bad = run_cli(&["lint".into(), "--deny".into(), "error".into()]).unwrap_err();
        assert_eq!(bad.code, 1);
    }

    #[test]
    fn lint_fault_point_fails_the_run() {
        let err = cobalt_support::fault::with_faults("lint.rule:fail@1", || {
            run_cli(&["lint".into()])
        })
        .unwrap_err();
        assert_eq!(err.code, EXIT_LINT, "{}", err.msg);
        assert!(err.out.as_deref().unwrap_or("").contains("CL000"), "{err:?}");
    }

    /// Full serve/client loop through `run_cli` itself: daemon on an
    /// ephemeral port (rendezvous via --port-file), one client verify,
    /// one warm repeat, then an in-band shutdown — asserting the
    /// client's stdout is byte-identical between fresh and cached.
    #[test]
    fn serve_and_client_commands_round_trip() {
        let suite = write_tmp(
            "serve_cli.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let pf_path = std::env::temp_dir().join(format!(
            "cobalt_cli_{}_serve.port",
            std::process::id()
        ));
        std::fs::remove_file(&pf_path).ok();
        let pf = pf_path.to_string_lossy().into_owned();
        let server = {
            let pf = pf.clone();
            std::thread::spawn(move || {
                run_cli(&["serve".into(), "--port-file".into(), pf, "--jobs".into(), "2".into()])
            })
        };
        // Wait for the port file (the daemon writes it after bind).
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while !pf_path.exists() {
            assert!(std::time::Instant::now() < deadline, "daemon never bound");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let client = |extra: &[&str]| {
            let mut args: Vec<String> = vec!["client".into()];
            args.extend(extra.iter().map(|s| s.to_string()));
            args.extend(["--port-file".into(), pf.clone()]);
            run_cli(&args)
        };
        assert_eq!(client(&["ping"]).unwrap(), "pong\n");
        let cold = client(&["verify", &suite]).unwrap();
        assert!(cold.contains("proved"), "{cold}");
        let warm = client(&["verify", &suite]).unwrap();
        assert_eq!(cold, warm, "cached replay must be byte-identical");
        let stats = client(&["stats"]).unwrap();
        assert!(stats.contains("cache_hits=1"), "{stats}");
        assert_eq!(client(&["shutdown"]).unwrap(), "daemon draining\n");
        let summary = server.join().unwrap().unwrap();
        assert!(summary.contains("1 fresh"), "{summary}");
        assert!(summary.contains("1 cached"), "{summary}");
        std::fs::remove_file(&pf_path).ok();
        std::fs::remove_file(suite).ok();
    }

    #[test]
    fn client_without_daemon_is_a_typed_connect_error() {
        // Bind-then-drop to find a dead port; 0 retries keeps it fast.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let err = run_cli(&[
            "client".into(),
            "ping".into(),
            "--addr".into(),
            addr,
            "--retries".into(),
            "0".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
        assert!(err.msg.contains("connect"), "{}", err.msg);
    }

    #[test]
    fn serve_and_client_flags_are_validated() {
        let err = run_cli(&["serve".into(), "--queue".into(), "0".into()]).unwrap_err();
        assert!(err.msg.contains("--queue"), "{}", err.msg);
        let err = run_cli(&["serve".into(), "stray".into()]).unwrap_err();
        assert!(err.msg.contains("unexpected argument"), "{}", err.msg);
        let err = run_cli(&["client".into()]).unwrap_err();
        assert!(err.msg.contains("expected an operation"), "{}", err.msg);
        let err = run_cli(&["client".into(), "dance".into()]).unwrap_err();
        assert!(err.msg.contains("unknown operation"), "{}", err.msg);
        let err = run_cli(&["client".into(), "optimize".into()]).unwrap_err();
        assert!(err.msg.contains("expected one program file"), "{}", err.msg);
        // --timeout is the daemon-side budget; on the client it is a
        // typed error, not a silently reinterpreted socket deadline.
        let err = run_cli(&[
            "client".into(),
            "ping".into(),
            "--timeout".into(),
            "5".into(),
        ])
        .unwrap_err();
        assert!(err.msg.contains("--io-timeout"), "{}", err.msg);
        for bad in ["abc", "0", "-1"] {
            let err = run_cli(&[
                "client".into(),
                "ping".into(),
                "--io-timeout".into(),
                bad.into(),
            ])
            .unwrap_err();
            assert!(err.msg.contains("--io-timeout"), "{}", err.msg);
        }
    }

    #[test]
    fn validate_command_checks_pairs() {
        let a = write_tmp("tv_a.il", "proc main(x) { decl a; decl c; a := 2; c := a; return c; }");
        let b = write_tmp("tv_b.il", "proc main(x) { decl a; decl c; a := 2; c := 2; return c; }");
        let out = run_cli(&["validate".into(), a.clone(), b.clone()]).unwrap();
        assert!(out.contains("validated"), "{out}");
        let bad = write_tmp("tv_c.il", "proc main(x) { decl a; decl c; a := 2; c := 3; return c; }");
        assert!(run_cli(&["validate".into(), a.clone(), bad.clone()]).is_err());
        for f in [a, b, bad] {
            std::fs::remove_file(f).ok();
        }
    }
}
