//! The `cobalt` command-line tool: run, optimize, verify, lint,
//! validate, and hunt from the shell, or serve verdicts to `cobalt
//! client`. [`USAGE`] lists every command with its flags and exit
//! codes; [`flag_spec`] is the table each command's arguments are
//! parsed against, so a flag a command does not list is an error.
//!
//! `verify` and `optimize` print what `cobalt-serve::exec` computes —
//! the same payload `cobalt client` gets from the daemon — after any
//! journal notes.

use cobalt::dsl::{parse_suite, LabelDef, LabelEnv, Suite};
use cobalt::engine::OptimizeSession;
use cobalt::il::{parse_program, Interp};
use cobalt::serve::exec::{self, ExecConfig, ExecResult, EXIT_RESOURCE_LIMITED};
use cobalt::serve::{
    request_with_retry, ClientConfig, ClientError, Request, RequestOp, ServeConfig, Server, Status,
};
use cobalt::synth::SynthConfig;
use cobalt::verify::{Report, ResumeMode, RetryPolicy, Session};
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
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

/// Any displayable error is a general (exit 1) failure with that text.
impl<E: Display> From<E> for CliError {
    fn from(e: E) -> Self {
        CliError {
            code: 1,
            msg: e.to_string(),
            out: None,
        }
    }
}

/// Returns a general (exit 1) failure with a `format!` message.
macro_rules! bail {
    ($($fmt:tt)*) => {
        return Err(format!($($fmt)*).into())
    };
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
                  [--timeout SECS] [--max-steps N] [--jobs N|auto]
                  [--journal PATH [--resume|--fresh]] [--json]
      run the (machine-verified) optimization suite and print the result,
      exactly as `cobalt client optimize` does. A failing pass, or one
      that exhausts --timeout (the whole run) or --max-steps (per
      procedure), is skipped soundly and named in a `// skipped:` line.
      --recursive-dae then removes mutually-dead assignments. --jobs
      optimizes procedures on N workers (default 1), byte-identically.
      --journal caches per-procedure results so a killed run resumes
      warm; --fresh discards them first. --json prints the pipeline
      report as JSON lines instead of the program. exit codes: 0 ok,
      3 resource-limited, 1 other errors
  cobalt verify [<suite.cob>] [--include-buggy] [--timeout SECS] [--max-splits N]
                [--jobs N|auto] [--journal PATH [--resume|--fresh]]
      prove every optimization sound; with no file, the built-in suite.
      stdout is what `cobalt client verify` prints, plus each report's
      time. --timeout bounds each report; --max-splits caps case splits
      per proof attempt. --jobs proves on N supervised workers (default
      1) with identical verdicts. --journal caches every obligation
      outcome so a killed run resumes warm; --fresh discards it first.
      exit codes: 0 all proved, 2 unsound, 3 resource-limited
      (inconclusive), 1 other errors
  cobalt lint [<file.il|file.cob>…] [--json] [--deny warn]
      named diagnostics (CL0xx for rules, IL0xx for programs) without
      the prover; with no files, the whole built-in registry, buggy
      variants included. --json emits one JSON object per line; --deny
      warn makes warnings failing. exit codes: 0 clean, 4 lint errors,
      1 other errors
  cobalt trace <prog.il> [--arg N]
      interpret main(N) printing every executed statement
  cobalt validate <orig.il> <new.il>
      translation validation of a single compile (the baseline approach)
  cobalt hunt <name|suite.cob> [--tries N]
      search for a counterexample program for a (presumably unsound)
      optimization; `name` may be `buggy` for the built-in §6 variant
  cobalt serve [--addr A] [--port-file P] [--queue N] [--jobs N|auto]
               [--timeout SECS] [--max-steps N] [--max-splits N]
               [--journal PATH [--resume|--fresh]]
      run the verification daemon: newline-delimited JSON over TCP on
      --jobs workers. Identical requests share one prover run, and
      repeats replay from the --journal proof cache. A full --queue
      (default 64) sheds with a retry hint; slow clients are
      disconnected. SIGTERM/SIGINT or a `shutdown` request drains
      gracefully and exits 0. --addr defaults to 127.0.0.1:0
      (ephemeral); --port-file writes the bound address for scripts.
      --timeout/--max-steps/--max-splits bound each request as they do
      the one-shot commands
  cobalt client <verify [suite.cob]|optimize <prog.il>|ping|stats|shutdown>
                [--addr A|--port-file P] [--retries N]
                [--include-buggy] [--passes a,b|all] [--rounds N]
      send one request to a running daemon and print its output,
      retrying refused connections and shed responses with backoff
      (--retries, default 5). exit codes: 0 ok/proved, 2 unsound,
      3 resource-limited or shed after retries, 1 other errors
a flag a command does not list is an error (exit 1); a --journal that
cannot be opened degrades to an uncached run with a note.
";

/// Every flag `cmd` accepts, with whether it takes a value (`true`) or
/// is a switch (`false`). `None` for an unknown command.
#[rustfmt::skip]
fn flag_spec(cmd: &str) -> Option<&'static [(&'static str, bool)]> {
    Some(match cmd {
        "run" | "trace" => &[("--arg", true)],
        "optimize" => &[
            ("--passes", true), ("--rounds", true), ("--recursive-dae", false),
            ("--timeout", true), ("--max-steps", true), ("--jobs", true),
            ("--journal", true), ("--resume", false), ("--fresh", false), ("--json", false),
        ],
        "verify" => &[
            ("--include-buggy", false), ("--timeout", true), ("--max-splits", true),
            ("--jobs", true), ("--journal", true), ("--resume", false), ("--fresh", false),
        ],
        "lint" => &[("--json", false), ("--deny", true)],
        "validate" => &[],
        "hunt" => &[("--tries", true)],
        "serve" => &[
            ("--addr", true), ("--port-file", true), ("--queue", true), ("--jobs", true),
            ("--timeout", true), ("--max-steps", true), ("--max-splits", true),
            ("--journal", true), ("--resume", false), ("--fresh", false),
        ],
        "client" => &[
            ("--addr", true), ("--port-file", true), ("--retries", true),
            ("--include-buggy", false), ("--passes", true), ("--rounds", true),
        ],
        _ => return None,
    })
}

/// A command's arguments, parsed once against its [`flag_spec`] row.
struct Args<'a> {
    cmd: &'a str,
    /// The arguments that are neither flags nor flag values, in order.
    pos: Vec<&'a str>,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Args<'a> {
    /// Splits `args` into positionals and the flags `cmd` accepts. An
    /// unknown command, an unknown flag, or a value flag that is last
    /// or followed by another `--` flag is an error. (`--arg -5` is a
    /// value.)
    fn parse(cmd: &'a str, args: &'a [String]) -> Result<Args<'a>, CliError> {
        let Some(spec) = flag_spec(cmd) else {
            bail!("unknown command `{cmd}`\n{USAGE}")
        };
        let (mut pos, mut flags) = (Vec::new(), Vec::new());
        let mut it = args.iter().map(String::as_str);
        while let Some(arg) = it.next() {
            if !arg.starts_with("--") {
                pos.push(arg);
                continue;
            }
            let Some(&(flag, takes_value)) = spec.iter().find(|(f, _)| *f == arg) else {
                bail!("{cmd}: unknown flag `{arg}`\n{USAGE}")
            };
            let value = if takes_value {
                match it.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => bail!("{flag}: expected a value"),
                }
            } else {
                None
            };
            flags.push((flag, value));
        }
        Ok(Args { cmd, pos, flags })
    }

    /// The first occurrence of `flag`, which must be in this command's
    /// row.
    fn find(&self, flag: &str) -> Option<&(&'a str, Option<&'a str>)> {
        debug_assert!(flag_spec(self.cmd).is_some_and(|s| s.iter().any(|(f, _)| *f == flag)));
        self.flags.iter().find(|(f, _)| *f == flag)
    }

    /// Whether the switch `flag` was given.
    fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The value of `flag`, if given.
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.find(flag).and_then(|(_, v)| *v)
    }

    /// The value of `flag` through `parse`, if given; an error reads
    /// `--flag: <error>`.
    fn parse_with<T, E: Display>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Result<T, E>,
    ) -> Result<Option<T>, CliError> {
        self.value(flag)
            .map(|v| parse(v).map_err(|e| format!("{flag}: {e}").into()))
            .transpose()
    }

    /// The value of `flag` parsed as a `T`, if given.
    fn get<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, CliError> {
        self.parse_with(flag, str::parse)
    }

    /// `--timeout SECS` (fractions allowed) as a duration.
    fn timeout(&self) -> Result<Option<Duration>, CliError> {
        self.parse_with("--timeout", |v| {
            let secs = v.parse::<f64>().map_err(|e| e.to_string())?;
            if !secs.is_finite() || secs < 0.0 {
                return Err(format!("expected a nonnegative number, got `{secs}`"));
            }
            Ok(Duration::from_secs_f64(secs))
        })
    }

    /// `--jobs N|auto`; 1 (sequential, no pool) when absent. `auto` asks
    /// [`std::thread::available_parallelism`], clamped to 64 (the pool
    /// further clamps its workers to the task count).
    fn jobs(&self) -> Result<usize, CliError> {
        let jobs = self.parse_with("--jobs", |v| match v.trim() {
            "auto" => Ok(std::thread::available_parallelism().map_or(1, NonZeroUsize::get).min(64)),
            n => match n.parse::<usize>() {
                Ok(0) => Err("expected a positive worker count, got 0".to_string()),
                Ok(n) => Ok(n),
                Err(e) => Err(format!("{e} (`{v}`)")),
            },
        })?;
        Ok(jobs.unwrap_or(1))
    }

    /// `--journal PATH` plus the mutually exclusive `--resume`/`--fresh`
    /// mode. Both mode flags require `--journal`; with `--journal` alone
    /// the session resumes (an absent or empty journal resumes to
    /// nothing, so this is always safe).
    fn journal(&self) -> Result<Option<(PathBuf, ResumeMode)>, CliError> {
        let (cmd, resume, fresh) = (self.cmd, self.has("--resume"), self.has("--fresh"));
        if resume && fresh {
            bail!("{cmd}: --resume and --fresh are mutually exclusive");
        }
        let mode = if fresh {
            ResumeMode::Fresh
        } else {
            ResumeMode::Resume
        };
        match self.value("--journal") {
            None if resume || fresh => bail!("{cmd}: --resume/--fresh require --journal PATH"),
            path => Ok(path.map(|path| (PathBuf::from(path), mode))),
        }
    }

    /// The prover policy: `--max-splits` caps case splits per proof
    /// attempt on every tier, and `--timeout` bounds each report's
    /// wall-clock.
    fn policy(&self) -> Result<RetryPolicy, CliError> {
        let mut policy = RetryPolicy::default();
        if let Some(n) = self.get::<usize>("--max-splits")? {
            for tier in &mut policy.tiers {
                tier.max_splits = tier.max_splits.min(n);
            }
        }
        if let Some(timeout) = self.timeout()? {
            policy = policy.with_report_deadline(timeout);
        }
        Ok(policy)
    }

    /// Exactly `N` positional arguments, or `{cmd}: expected {what}`.
    fn positional<const N: usize>(&self, what: &str) -> Result<[&'a str; N], CliError> {
        match self.pos[..].try_into() {
            Ok(pos) => Ok(pos),
            Err(_) => bail!("{}: expected {what}\n{USAGE}", self.cmd),
        }
    }
}

/// Entry point, factored for testing.
fn run_cli(args: &[String]) -> Result<String, CliError> {
    let cmd = match args.first().map(String::as_str) {
        None | Some("--help" | "-h") => return Ok(USAGE.to_string()),
        Some(cmd) => cmd,
    };
    let args = Args::parse(cmd, &args[1..])?;
    match cmd {
        "run" => cmd_run(&args, false),
        "trace" => cmd_run(&args, true),
        "optimize" => cmd_optimize(&args),
        "verify" => cmd_verify(&args),
        "lint" => cmd_lint(&args),
        "validate" => cmd_validate(&args),
        "hunt" => cmd_hunt(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        _ => unreachable!("Args::parse rejects unknown commands"),
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading `{path}`: {e}"))
}

/// `run`, or `trace` when `traced`: interprets `main(--arg)`.
fn cmd_run(args: &Args, traced: bool) -> Result<String, CliError> {
    let [path] = args.positional("one program file")?;
    let arg: i64 = args.get("--arg")?.unwrap_or(0);
    let prog = parse_program(&read(path)?)?;
    cobalt::il::validate(&prog)?;
    if !traced {
        let result = Interp::new(&prog).run(arg)?;
        return Ok(format!("main({arg}) = {result}\n"));
    }
    let (trace, result) = Interp::new(&prog).with_fuel(10_000).run_traced(arg);
    let mut out: String = trace.iter().map(|entry| format!("{entry}\n")).collect();
    match result {
        Ok(v) => out.push_str(&format!("=> main({arg}) = {v} ({} steps)\n", trace.len())),
        Err(e) => out.push_str(&format!("=> {e} (after {} steps)\n", trace.len())),
    }
    Ok(out)
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

fn cmd_optimize(args: &Args) -> Result<String, CliError> {
    let [path] = args.positional("one program file")?;
    let rounds: usize = args.get("--rounds")?.unwrap_or(4);
    let cfg = ExecConfig {
        timeout: args.timeout()?,
        max_steps: args.get("--max-steps")?,
        ..ExecConfig::default()
    };
    let jobs = args.jobs()?;
    let journal = args.journal()?;
    let passes = args.value("--passes").unwrap_or("all");
    let (prog, passes) = exec::pipeline(&read(path)?, passes).map_err(|e| e.output)?;
    // The one-shot CLI has no caller token to observe; a fresh one is
    // never tripped.
    let mut session = OptimizeSession::new(exec::engine(&cfg, &Default::default())).with_jobs(jobs);
    if args.has("--recursive-dae") {
        let dae = cobalt::opts::optimization("dae").expect("dae is in the registry");
        session = session.with_recursive(dae);
    }
    if let Some((jpath, mode)) = journal {
        session = session.with_journal(jpath, mode);
    }
    let (out, report) = exec::optimize(&mut session, &prog, &passes, rounds);
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
    let mut result = exec::optimized(&out, &report);
    if args.has("--json") {
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

fn cmd_verify(args: &Args) -> Result<String, CliError> {
    let cfg = ExecConfig {
        policy: args.policy()?,
        jobs: args.jobs()?,
        ..ExecConfig::default()
    };
    let journal = args.journal()?;
    let suite = args.pos.first().map(|p| read(p)).transpose()?;
    let rules = exec::rules(suite.as_deref()).map_err(|e| e.output)?;
    let verifier = exec::verifier(&rules, &cfg, &Default::default());
    let mut session = match journal {
        None => Session::new(verifier),
        Some((path, mode)) => Session::with_journal(verifier, path, mode),
    };
    let result = exec::verify(&mut session, &rules, args.has("--include-buggy"), Report::summary);
    if result.exit == 1 {
        // No finish: compaction would drop the journal records of the
        // rules this failed run never reached. The reports of the rules
        // before the refusal go to stdout, the refusal to stderr.
        let output = result.output.as_str();
        let (reports, refusal) = output.rsplit_once('\n').unwrap_or(("", output));
        return Err(CliError {
            code: 1,
            msg: refusal.to_string(),
            out: (!reports.is_empty()).then(|| format!("{reports}\n")),
        });
    }
    session.finish();
    let mut notes = String::new();
    let loaded = session.load_report();
    if loaded.corrupted() {
        let detail = loaded.corruption.as_deref().map(|c| format!(" ({c})"));
        notes.push_str(&format!(
            "note: journal recovered {} record(s), discarded {} corrupt byte(s){}\n",
            loaded.records,
            loaded.discarded_bytes,
            detail.unwrap_or_default(),
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

fn cmd_lint(args: &Args) -> Result<String, CliError> {
    use cobalt::lint::{
        lint_analysis, lint_label, lint_optimization, lint_program, Diagnostics, LintContext,
        RuleLintOptions,
    };
    let deny_warnings = match args.value("--deny") {
        None => false,
        Some("warn") => true,
        Some(other) => bail!("--deny: expected `warn`, got `{other}`"),
    };
    // A suite's labels, then its analyses and optimizations. Semantic
    // labels come into scope as `verify` gives them meaning: the
    // registry's analyses, then the suite's in order.
    let lint_suite = |suite: &Suite, labels: &[LabelDef]| {
        let (env, opts) = (suite.label_env(), RuleLintOptions::default());
        let mut ctx = LintContext::new(&env).with_analyses(&cobalt::opts::all_analyses());
        let mut analyses = Diagnostics::new();
        for a in &suite.analyses {
            analyses.absorb(lint_analysis(a, &ctx, &opts));
            ctx.learn(a);
        }
        let mut diags = Diagnostics::new();
        for l in labels {
            diags.absorb(lint_label(l, &ctx));
        }
        diags.absorb(analyses);
        for o in &suite.optimizations {
            diags.absorb(lint_optimization(o, &ctx, &opts));
        }
        diags
    };
    let mut diags = Diagnostics::new();
    if args.pos.is_empty() {
        // Lint the whole built-in registry and the standard labels. The
        // buggy §6 variants are included deliberately: they must be
        // structurally clean — the bug each one carries is semantic,
        // which is the prover's job (DESIGN.md §9).
        let mut registry = exec::rules(None).map_err(|e| e.output)?;
        registry.optimizations.extend(cobalt::opts::buggy_optimizations());
        let mut labels: Vec<LabelDef> = LabelEnv::standard().iter().cloned().collect();
        labels.sort_by(|a, b| a.name.as_str().cmp(b.name.as_str()));
        diags.absorb(lint_suite(&registry, &labels));
    }
    for path in &args.pos {
        if path.ends_with(".cob") {
            let suite = parse_suite(&read(path)?)?;
            diags.absorb(lint_suite(&suite, &suite.labels));
        } else {
            lint_program(&parse_program(&read(path)?)?, &mut diags);
        }
    }
    let out = if args.has("--json") {
        diags.json_lines()
    } else {
        diags.render_human()
    };
    if !diags.is_failing(deny_warnings) {
        return Ok(out);
    }
    let (errors, warnings) = (diags.error_count(), diags.warning_count());
    Err(CliError {
        code: EXIT_LINT,
        msg: format!("lint failed: {errors} error(s), {warnings} warning(s)"),
        out: Some(out),
    })
}

fn cmd_validate(args: &Args) -> Result<String, CliError> {
    let [orig_path, new_path] = args.positional("two program files")?;
    let orig = parse_program(&read(orig_path)?)?;
    let new = parse_program(&read(new_path)?)?;
    let mut out = String::new();
    for proc in &orig.procs {
        let Some(new_proc) = new.proc(&proc.name) else {
            bail!("procedure `{}` missing from the transformed program", proc.name);
        };
        let report = cobalt::tv::validate_proc(proc, new_proc)?;
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
            bail!("{out}validation failed");
        }
    }
    out.push_str("validated\n");
    Ok(out)
}

fn cmd_hunt(args: &Args) -> Result<String, CliError> {
    let [what] = args.positional("an optimization name or suite file")?;
    let defaults = SynthConfig::default();
    let cfg = SynthConfig {
        tries: args.get("--tries")?.unwrap_or(defaults.tries),
        ..defaults
    };
    // The registry's analyses, then a suite file's own, as
    // `Suite::label_env` puts a file's labels after the standard ones.
    let mut analyses = cobalt::opts::all_analyses();
    let (opt, env) = if what == "buggy" {
        (cobalt::opts::buggy_optimizations().remove(0), LabelEnv::standard())
    } else if what.ends_with(".cob") {
        let suite = parse_suite(&read(what)?)?;
        let Some(opt) = suite.optimizations.first().cloned() else {
            bail!("suite file contains no optimizations")
        };
        analyses.extend(suite.analyses.iter().cloned());
        (opt, suite.label_env())
    } else {
        let opt = cobalt::opts::optimization(what)
            .ok_or_else(|| format!("unknown optimization `{what}`"))?;
        (opt, LabelEnv::standard())
    };
    match cobalt::synth::find_counterexample(&opt, &env, &analyses, &cfg) {
        Some(cx) => Ok(format!("counterexample found for `{}`:\n{cx}", opt.name)),
        None => Ok(format!(
            "no counterexample found for `{}` in {} tries\n",
            opt.name, cfg.tries
        )),
    }
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    if let Some(stray) = args.pos.first() {
        bail!("serve: unexpected argument `{stray}`\n{USAGE}");
    }
    let defaults = ServeConfig::default();
    let cfg = ServeConfig {
        addr: args.value("--addr").map_or(defaults.addr, String::from),
        port_file: args.value("--port-file").map(PathBuf::from),
        jobs: args.jobs()?,
        queue_cap: args.get("--queue")?.unwrap_or(defaults.queue_cap),
        exec: ExecConfig {
            policy: args.policy()?,
            timeout: args.timeout()?,
            max_steps: args.get("--max-steps")?,
            ..ExecConfig::default()
        },
        journal: args.journal()?,
        ..defaults
    };
    if cfg.queue_cap == 0 {
        bail!("--queue: expected a positive capacity, got 0");
    }
    let handle = Server::start(cfg)
        .map_err(|e| format!("serve: starting daemon: {e}"))?;
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

fn cmd_client(args: &Args) -> Result<String, CliError> {
    let Some(&op_name) = args.pos.first() else {
        bail!("client: expected an operation (verify|optimize|ping|stats|shutdown)\n{USAGE}");
    };
    let op = match op_name {
        "ping" => RequestOp::Ping,
        "stats" => RequestOp::Stats,
        "shutdown" => RequestOp::Shutdown,
        "verify" => RequestOp::Verify {
            suite: args.pos.get(1).map(|p| read(p)).transpose()?,
            include_buggy: args.has("--include-buggy"),
        },
        "optimize" => {
            let Some(path) = args.pos.get(1) else {
                bail!("client optimize: expected one program file\n{USAGE}");
            };
            RequestOp::Optimize {
                program: read(path)?,
                passes: args.value("--passes").unwrap_or("all").to_string(),
                rounds: args.get("--rounds")?.unwrap_or(4),
            }
        }
        other => bail!("client: unknown operation `{other}`\n{USAGE}"),
    };
    let defaults = ClientConfig::default();
    let cfg = ClientConfig {
        addr: match (args.value("--addr"), args.value("--port-file")) {
            (Some(addr), _) => addr.to_string(),
            (None, Some(port_file)) => read(port_file)?.trim().to_string(),
            (None, None) => defaults.addr,
        },
        retries: args.get("--retries")?.unwrap_or(defaults.retries),
        ..defaults
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
        Err(e) => bail!("client: {e}"),
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
        _ => bail!(
            "daemon error: {}",
            if resp.error.is_empty() { "unspecified" } else { &resp.error }
        ),
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
    fn value_flag_without_a_value_is_an_error() {
        let p = write_tmp("noval.il", "proc main(x) { decl y; y := x + 1; return y; }");
        let cases: [(&[&str], &str); 3] = [
            (&["verify", "--timeout"], "--timeout"),
            (&["run", &p, "--arg"], "--arg"),
            (&["verify", "--journal", "--fresh"], "--journal"),
        ];
        for (case, flag) in cases {
            let args: Vec<String> = case.iter().map(|s| s.to_string()).collect();
            let err = run_cli(&args).unwrap_err();
            assert_eq!(err.code, 1, "{case:?}: {}", err.msg);
            assert_eq!(err.msg, format!("{flag}: expected a value"), "{case:?}");
        }
        // The journal is not created under the name of the next flag.
        assert!(!std::path::Path::new("--fresh").exists());
        // A negative number is a value, not a flag.
        let out = run_cli(&["run".into(), p.clone(), "--arg".into(), "-5".into()]).unwrap();
        assert_eq!(out, "main(-5) = -4\n");
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

    /// A mutually-dead cycle: `a` and `b` only feed each other.
    const DEAD_CYCLE: &str = "proc main(x) { decl a; decl b; decl i; i := x; a := b + 1; \
                              b := a + 1; i := i - 1; if i goto 4 else 8; return x; }";

    #[test]
    fn optimize_recursive_dae_runs_whatever_other_flags() {
        let p = write_tmp("opt_rdae.il", DEAD_CYCLE);
        let out = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--recursive-dae".into(),
            "--jobs".into(),
            "2".into(),
        ])
        .unwrap();
        assert!(out.starts_with("// 2 rewrites in 1 rounds\n"), "{out}");
        assert!(out.contains("/* 4 */ skip;"), "{out}");
        assert!(out.contains("/* 5 */ skip;"), "{out}");
        // `--json` counts the removed sites too.
        let json = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--recursive-dae".into(),
            "--json".into(),
        ])
        .unwrap();
        let summary = "{\"type\":\"summary\",\"applied\":2,";
        assert!(json.starts_with(summary), "{json}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_recursive_dae_caps_steps_per_procedure() {
        // Four copies of the cycle: each procedure fits the cap alone.
        let copies: Vec<String> = ["main", "c1", "c2", "c3"]
            .iter()
            .map(|name| DEAD_CYCLE.replace("main", name))
            .collect();
        let p = write_tmp("opt_rdae_cap.il", &copies.join("\n"));
        let out = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--recursive-dae".into(),
            "--max-steps".into(),
            "120".into(),
        ])
        .unwrap();
        assert!(out.starts_with("// 8 rewrites in 1 rounds\n"), "{out}");
        std::fs::remove_file(p).ok();
    }

    #[test]
    fn optimize_recursive_dae_out_of_steps_prints_the_program() {
        let p = write_tmp("opt_rdae_ms.il", DEAD_CYCLE);
        let err = run_cli(&[
            "optimize".into(),
            p.clone(),
            "--recursive-dae".into(),
            "--max-steps".into(),
            "20".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, EXIT_RESOURCE_LIMITED, "{}", err.msg);
        let out = err.out.expect("a resource-limited run prints the program");
        assert!(out.contains("proc main"), "{out}");
        let skipped = "// skipped: main: pass `recursive:dae`";
        assert!(out.contains(skipped), "{out}");
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

    /// A suite whose analysis defines `myLabel` as `notPointedTo(X)`,
    /// which does not keep `Y`'s value: `bad_prop` is unsound.
    const HOLE_SUITE: &str = "
        analysis mytaint { stmt(decl X) followed by !stmt(... := &X)
            defines myLabel(X) with witness notPointedTo(X) }
        forward bad_prop { stmt(Y := C) followed by myLabel(Y)
            until X := Y => X := C with witness eta(Y) == C }";

    /// `verify` of `suite` as `file`: the exit code, stdout and the
    /// error message.
    fn verify_suite(file: &str, suite: &str) -> (u8, String, String) {
        let p = write_tmp(file, suite);
        let result = run_cli(&["verify".into(), p.clone()]);
        std::fs::remove_file(p).ok();
        match result {
            Ok(out) => (0, out, String::new()),
            Err(e) => (e.code, e.out.unwrap_or_default(), e.msg),
        }
    }

    #[test]
    fn verify_reads_an_analysis_label_as_its_verified_witness() {
        let failed = |out: &str| -> Vec<String> {
            let lines = out.lines().filter(|l| l.starts_with("  FAILED "));
            lines
                .map(|l| l.split(" — ").next().unwrap().to_string())
                .collect()
        };
        let (code, hole, _) = verify_suite("hole.cob", HOLE_SUITE);
        assert_eq!(code, exec::EXIT_UNSOUND, "{hole}");
        assert!(
            hole.contains("bad_prop: 15/29 obligations proved"),
            "{hole}"
        );
        // The control: the same suite under the built-in label's name.
        let control = HOLE_SUITE.replace("myLabel", "notTainted");
        let (code, control, _) = verify_suite("hole_control.cob", &control);
        assert_eq!(code, exec::EXIT_UNSOUND, "{control}");
        assert_eq!(failed(&hole).len(), 14, "{hole}");
        assert_eq!(failed(&hole), failed(&control));
    }

    #[test]
    fn verify_refuses_a_semantic_label_without_a_verified_meaning() {
        let (analysis, rule) = HOLE_SUITE.split_once("forward").unwrap();
        let used_early = "analysis early { stmt(decl X) followed by myLabel(X)
                              defines early(X) with witness notPointedTo(X) }";
        let conflict = "analysis zero { stmt(X := 0) followed by !mayDef(X)
                            defines notTainted(X) with witness eta(X) == 0 }";
        for (file, suite, label) in [
            ("label_unknown.cob", format!("forward{rule}"), "`myLabel`"),
            (
                "label_early.cob",
                format!("{used_early}\n{analysis}"),
                "`myLabel`",
            ),
            ("label_conflict.cob", conflict.to_string(), "`notTainted`"),
        ] {
            let (code, out, msg) = verify_suite(file, &suite);
            assert_eq!(code, 1, "{file}: {out}");
            assert!(msg.contains(label), "{file}: {msg}");
        }
    }

    #[test]
    fn verify_prints_the_reports_before_a_refusal() {
        let suite = "analysis bad { stmt(decl X) followed by true
                         defines myLabel(X) with witness notPointedTo(X) }
                     forward use_bad { stmt(Y := C) followed by myLabel(Y)
                         until X := Y => X := C with witness eta(Y) == C }";
        let p = write_tmp("refused_late.cob", suite);
        let jpath = format!("{p}.journal");
        let args = [
            "verify".into(),
            p.clone(),
            "--journal".into(),
            jpath.clone(),
        ];
        let err = run_cli(&args).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
        // The refusal is the one stderr line; `bad`'s report is stdout.
        assert!(
            err.msg.contains("`myLabel`") && !err.msg.contains('\n'),
            "{}",
            err.msg
        );
        let out = err.out.expect("the reports before the refusal");
        assert!(out.starts_with("bad: 26/28 obligations proved"), "{out}");
        assert!(out.contains("  FAILED A2/assign_addrof"), "{out}");
        assert!(out.ends_with('\n') && !out.contains("myLabel"), "{out}");
        // Exit 1 leaves the journal uncompacted: a rerun replays what
        // `bad` proved.
        let again = run_cli(&args).unwrap_err();
        assert!(again.out.unwrap().contains("(26 cached, 2 fresh)"));
        std::fs::remove_file(p).ok();
        std::fs::remove_file(jpath).ok();
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

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn verify_flags_parse_and_cap_tiers() {
        let args = strings(&["--max-splits", "7"]);
        let policy = Args::parse("verify", &args).unwrap().policy().unwrap();
        assert!(policy.tiers.iter().all(|t| t.max_splits == 7));
        // Bad timeouts are caught once, in the shared parse.
        for bad in ["abc", "-1"] {
            let args = strings(&["--timeout", bad]);
            assert!(Args::parse("verify", &args).unwrap().timeout().is_err());
        }
        let args = strings(&["--timeout", "1.5"]);
        let policy = Args::parse("verify", &args).unwrap().policy().unwrap();
        assert_eq!(
            policy.report_deadline,
            Some(std::time::Duration::from_millis(1500))
        );
    }

    #[test]
    fn common_flags_parse_the_whole_cluster_once() {
        let args = strings(&[
            "--timeout", "2", "--max-steps", "9", "--jobs", "3", "--journal", "j.cobj",
            "--fresh", "--json",
        ]);
        let c = Args::parse("optimize", &args).unwrap();
        assert_eq!(c.timeout().unwrap(), Some(std::time::Duration::from_secs(2)));
        assert_eq!(c.get::<u64>("--max-steps").unwrap(), Some(9));
        assert_eq!(c.jobs().unwrap(), 3);
        assert_eq!(
            c.journal().unwrap(),
            Some((PathBuf::from("j.cobj"), ResumeMode::Fresh))
        );
        assert!(c.has("--json"));
    }

    fn jobs(args: &[&str]) -> Result<usize, CliError> {
        Args::parse("verify", &strings(args))?.jobs()
    }

    #[test]
    fn resolve_jobs_flag_parses_and_rejects_nonsense() {
        // No flag: sequential default.
        assert_eq!(jobs(&[]).unwrap(), 1);
        assert_eq!(jobs(&["--jobs", "4"]).unwrap(), 4);
        assert_eq!(jobs(&["--jobs", " 2 "]).unwrap(), 2);
        let err = jobs(&["--jobs", "0"]).unwrap_err();
        assert!(err.msg.contains("positive worker count"), "{}", err.msg);
        let err = jobs(&["--jobs", "many"]).unwrap_err();
        assert!(err.msg.contains("--jobs"), "{}", err.msg);
        // And it surfaces as a typed exit-1 CLI error, not a panic.
        let err = run_cli(&["verify".into(), "--jobs".into(), "0".into()]).unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
    }

    #[test]
    fn resolve_jobs_auto_asks_the_host_and_clamps() {
        let jobs = jobs(&["--jobs", "auto"]).unwrap();
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
    fn verify_unopenable_journal_degrades_and_mode_flag_errors_exit_1() {
        // Unopenable journal path: like any journal I/O failure, it
        // degrades to an uncached run — the note, then the verdict,
        // exit 0.
        let p = write_tmp(
            "suite_nojournal.cob",
            "forward const_prop {
                stmt(Y := C) followed by !mayDef(Y)
                until X := Y => X := C
                with witness eta(Y) == C
            }",
        );
        let out = run_cli(&[
            "verify".into(),
            p.clone(),
            "--journal".into(),
            "/nonexistent-dir/sub/j.cobj".into(),
        ])
        .unwrap();
        assert!(
            out.starts_with("note: journaling disabled (journal unavailable "),
            "{out}"
        );
        assert!(out.ends_with("all optimizations proved sound\n"), "{out}");
        std::fs::remove_file(p).ok();
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
    fn lint_flags_a_duplicate_procedure_like_run_does() {
        // `run` rejects the second `f`; lint reports it as IL008.
        let p = write_tmp(
            "lint_dup_proc.il",
            "proc main(x) { y := f(x); return y; } proc f(a) { return a; } \
             proc f(b) { decl c; return b; }",
        );
        let run = run_cli(&["run".into(), p.clone()]).unwrap_err();
        assert!(run.msg.contains("duplicate procedure `f`"), "{run:?}");
        let err = run_cli(&["lint".into(), p.clone()]).unwrap_err();
        assert_eq!(err.code, EXIT_LINT);
        assert!(
            err.out.as_deref().unwrap_or("").contains("IL008"),
            "{err:?}"
        );
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
    fn lint_checks_label_definitions() {
        // `case` appears only in label bodies: a shadowed arm there is
        // CL005, a warning that fails the run under --deny warn.
        let p = write_tmp(
            "lint_labels.cob",
            "label dup(Y) { case skip => true case skip => false else => false }
             forward skip_dup {
                stmt(decl Y) followed by !dup(Y)
                until X := Y => X := Y
                with witness true
             }",
        );
        let ok = run_cli(&["lint".into(), p.clone()]).unwrap();
        assert!(ok.contains("CL005") && ok.contains("dup/label"), "{ok}");
        let err = run_cli(&["lint".into(), p.clone(), "--deny".into(), "warn".into()]).unwrap_err();
        assert_eq!(err.code, EXIT_LINT, "{}", err.msg);
        std::fs::remove_file(p).ok();
        // The registry's own text stays clean, labels included.
        for path in [
            "crates/cobalt-opts/suite/suite.cob",
            "crates/cobalt-opts/suite/buggy.cob",
            "crates/cobalt-dsl/src/stdlib.cob",
        ] {
            let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
            let out = run_cli(&["lint".into(), path.clone(), "--deny".into(), "warn".into()]);
            assert!(out.is_ok(), "{path}: {out:?}");
        }
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
        // --timeout is the daemon-side budget; the client does not list
        // it, so it is an error, not a silently reinterpreted socket
        // deadline.
        let err = run_cli(&[
            "client".into(),
            "ping".into(),
            "--timeout".into(),
            "5".into(),
        ])
        .unwrap_err();
        assert_eq!(err.code, 1, "{}", err.msg);
        assert!(
            err.msg.starts_with("client: unknown flag `--timeout`"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn unknown_and_misplaced_flags_are_errors() {
        let p = write_tmp("flags.il", "proc main(x) { return x; }");
        let cases: [&[&str]; 4] = [
            &["verify", "--include-bugy"],
            &["optimize", &p, "--jsno"],
            &["run", &p, "--jobs", "4"],
            &["lint", "--timeout", "1"],
        ];
        for case in cases {
            let err = run_cli(&strings(case)).unwrap_err();
            assert_eq!(err.code, 1, "{case:?}: {}", err.msg);
            let (cmd, flag) = (case[0], case.iter().find(|a| a.starts_with("--")).unwrap());
            assert!(
                err.msg.starts_with(&format!("{cmd}: unknown flag `{flag}`\n")),
                "{case:?}: {}",
                err.msg
            );
            assert!(err.msg.contains(USAGE), "{case:?}");
        }
        std::fs::remove_file(p).ok();
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
