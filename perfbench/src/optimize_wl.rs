//! `optimize_generated`: seeded call-free generated programs through
//! `default_pipeline()` for 3 rounds with `OptimizeSession` at 2 jobs.
//!
//! The engine and the pool do all of the work and the prover none.
//! Procedure sizes are mixed from 20 to 160 statements because engine
//! cost grows faster than linearly with size; every program has the
//! same size mix, so seeds change content but not the shape of the
//! work. This is the only workload whose output program is
//! itself measured: `optimize.out_stmts_ratio` catches a speed-up that
//! silently drops rewrites.
//!
//! Oracle: each procedure that returns a value under the `cobalt-il`
//! interpreter on seeded arguments returns the same value after
//! optimization (the refinement rule of `tests/differential.rs`).
//! Traced, a replay calls `AnalyzedProc::new` → `run_pure_analysis` →
//! `legal_sites` → `Choose::select` → `apply_sites` itself and must
//! print a program byte-identical to `OptimizeSession`'s.

use crate::trace::Tracer;
use crate::{host_scale, low_quartile, mean, median, ms, peak_rss_mb, Outcome, RunCfg, Setups};
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_engine::{AnalyzedProc, Engine, OptimizeSession};
use cobalt_il::{generate, pretty_program, GenConfig, Interp, Proc, ProcName, Program, Stmt};
use cobalt_support::journal::Fnv64;
use cobalt_support::Rng;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Programs per seeded corpus; each timed pass optimizes all of them.
const PROGRAMS: usize = 8;
/// Statement counts of the procedures of every program, largest first
/// so that the two workers split each program the same way whatever
/// the seed.
const SIZES: &[usize] = &[160, 120, 80, 40, 20];
const JOBS: usize = 2;
const ROUNDS: usize = 3;
/// Interpreter arguments tried per procedure by the oracle.
const ARGS_PER_PROC: usize = 3;
const SETUP_REPS: u32 = 9;

struct Corpus {
    programs: Vec<Program>,
    /// Seeded oracle arguments, per program and procedure.
    args: Vec<Vec<Vec<i64>>>,
}

fn corpus(seed: u64) -> Corpus {
    let mut rng = Rng::seed_from_u64(seed);
    let mut programs = Vec::with_capacity(PROGRAMS);
    let mut args = Vec::with_capacity(PROGRAMS);
    for _ in 0..PROGRAMS {
        let procs: Vec<Proc> = SIZES
            .iter()
            .enumerate()
            .map(|(i, &n)| generated_proc(i, n, rng.next_u64()))
            .collect();
        args.push(
            procs
                .iter()
                .map(|_| {
                    (0..ARGS_PER_PROC)
                        .map(|_| rng.gen_range(-3i64..=12))
                        .collect()
                })
                .collect(),
        );
        programs.push(Program::new(procs));
    }
    Corpus { programs, args }
}

/// One call-free generated body, named `main`, `p1`, `p2`, … so the
/// program still interprets from `main` (as `cobalt_bench` builds them).
fn generated_proc(i: usize, stmts: usize, seed: u64) -> Proc {
    let cfg = GenConfig {
        num_helpers: 0,
        call_ratio: 0.0,
        seed,
        ..GenConfig::sized(stmts, 0)
    };
    let mut proc = generate(&cfg)
        .procs
        .into_iter()
        .next()
        .expect("generated main");
    proc.name = ProcName::new(if i == 0 {
        "main".to_string()
    } else {
        format!("p{i}")
    });
    proc
}

fn corpus_hash(c: &Corpus) -> u64 {
    let mut h = Fnv64::new();
    for (p, args) in c.programs.iter().zip(&c.args) {
        h.write(pretty_program(p).as_bytes());
        h.write(format!("{args:?}").as_bytes());
    }
    h.finish()
}

fn stmts(p: &Program) -> usize {
    p.procs.iter().map(|q| q.stmts.len()).sum()
}

fn non_skip(p: &Program) -> usize {
    p.procs
        .iter()
        .flat_map(|q| &q.stmts)
        .filter(|s| !matches!(s, Stmt::Skip))
        .count()
}

/// The refinement oracle: whenever the original procedure returns a
/// value, the optimized one returns the same value. Returns how many
/// procedures disagree.
fn refinement_failures(orig: &Program, new: &Program, args: &[Vec<i64>]) -> u64 {
    let alone = |p: &Proc| {
        let mut p = p.clone();
        p.name = ProcName::new("main");
        Program::new(vec![p])
    };
    let mut bad = 0;
    for ((a, b), args) in orig.procs.iter().zip(&new.procs).zip(args) {
        let (pa, pb) = (alone(a), alone(b));
        let ok = args
            .iter()
            .all(|&x| match Interp::new(&pa).with_fuel(200_000).run(x) {
                Ok(v) => matches!(Interp::new(&pb).with_fuel(400_000).run(x), Ok(w) if w == v),
                Err(_) => true,
            });
        bad += u64::from(!ok);
    }
    bad
}

struct Pipeline {
    analyses: Vec<PureAnalysis>,
    passes: Vec<Optimization>,
}

fn optimize(pl: &Pipeline, prog: &Program) -> (Program, bool) {
    let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(JOBS);
    let (out, report) = session.optimize_program(prog, &pl.analyses, &pl.passes, ROUNDS);
    (out, report.failures.is_empty())
}

/// Engine counters summed over one replay of the corpus.
#[derive(Default)]
struct Counts {
    analysis_calls: u64,
    sites: u64,
    applied: u64,
    rounds: u64,
}

/// Replays `OptimizeSession`'s per-procedure pipeline through the
/// engine's public functions, one procedure after another.
fn replay(
    t: &mut Tracer,
    engine: &Engine,
    pl: &Pipeline,
    id: &str,
    prog: &Program,
    c: &mut Counts,
) -> Option<Program> {
    t.span("optimize.program", id, |t| {
        let mut out = prog.clone();
        for proc in &prog.procs {
            let name = proc.name.to_string();
            let mut current = proc.clone();
            for _ in 0..ROUNDS {
                c.rounds += 1;
                let mut round_applied = 0;
                for opt in &pl.passes {
                    let mut ap = t
                        .span("il.cfg", &name, |_| AnalyzedProc::new(current.clone()))
                        .ok()?;
                    for a in &pl.analyses {
                        c.analysis_calls += 1;
                        t.span("engine.analysis", &name, |_| {
                            engine.run_pure_analysis(&mut ap, a)
                        })
                        .ok()?;
                    }
                    let span = format!("engine.legal_sites.{}", opt.name);
                    let sites = t
                        .span(&span, &name, |_| engine.legal_sites(&ap, opt))
                        .ok()?;
                    c.sites += sites.len() as u64;
                    let (next, applied) = t.span("engine.rewrite", &name, |_| {
                        let selected = opt.choose.select(&sites, &ap.proc);
                        let mut seen = HashSet::new();
                        let applied = selected.iter().filter(|s| seen.insert(s.index)).count();
                        (engine.apply_sites(&ap, opt, &selected), applied)
                    });
                    current = next.ok()?;
                    round_applied += applied;
                }
                c.applied += round_applied as u64;
                if round_applied == 0 {
                    break;
                }
            }
            out = out.with_proc_replaced(current);
        }
        Some(out)
    })
}

/// Replays the corpus at least once and then until `budget` is spent,
/// each program once with the recorder off and once recorded into `t`,
/// so that the two are timed under the same host conditions. Each
/// replay must print `OptimizeSession`'s output. Returns per-program
/// wall times (ms) unrecorded and recorded, and the counters of the
/// first recorded pass over the corpus.
fn replay_phase(
    t: &mut Tracer,
    pl: &Pipeline,
    c: &Corpus,
    expected: &[String],
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, Counts) {
    let engine = Engine::new(LabelEnv::standard());
    let mut off = Tracer::new(false, Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first = Counts::default();
    let phase = Instant::now();
    let mut i = 0;
    while i < c.programs.len() || phase.elapsed() < budget {
        let k = i % c.programs.len();
        for recorded in [false, true] {
            let tracer = if recorded { &mut *t } else { &mut off };
            let mut counts = Counts::default();
            let start = Instant::now();
            let got = replay(
                tracer,
                &engine,
                pl,
                &k.to_string(),
                &c.programs[k],
                &mut counts,
            );
            let walls = if recorded { &mut traced } else { &mut plain };
            walls.push(ms(start.elapsed()));
            if got.map(|p| pretty_program(&p)).as_deref() != Some(expected[k].as_str()) {
                out.problem(format!(
                    "replay of program {k} differs from OptimizeSession's output"
                ));
            }
            if recorded && i < c.programs.len() {
                first.analysis_calls += counts.analysis_calls;
                first.sites += counts.sites;
                first.applied += counts.applied;
                first.rounds += counts.rounds;
            }
        }
        i += 1;
    }
    (plain, traced, first)
}

fn setup(pl: &Pipeline, warm: &Program) -> Duration {
    let t = Instant::now();
    std::hint::black_box(optimize(pl, warm));
    t.elapsed().mul_f64(host_scale())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let c = corpus(cfg.seed);
    out.inputs_hash = corpus_hash(&c);
    if corpus_hash(&corpus(cfg.seed)) != out.inputs_hash {
        out.problem("the same seed generated different inputs");
    }
    let pl = Pipeline {
        analyses: cobalt_opts::all_analyses(),
        passes: cobalt_opts::default_pipeline(),
    };
    // Set-up optimizes one fixed small program, the same for every seed.
    let warm = Program::new(vec![generated_proc(0, 40, 0x5eed)]);

    // Peak memory of one pass over the corpus at one job, measured
    // before any worker thread exists: single-threaded allocation makes
    // it a function of the inputs, not of thread interleaving.
    if !cfg.trace {
        for prog in &c.programs {
            let mut session = OptimizeSession::new(Engine::new(LabelEnv::standard()));
            std::hint::black_box(session.optimize_program(prog, &pl.analyses, &pl.passes, ROUNDS));
        }
        out.peak_rss_mb = peak_rss_mb();
    }

    // Untraced phase: whole passes over the corpus through
    // OptimizeSession, so every program is repeated equally often.
    let budget = cfg.phase_budget();
    let mut setups = Setups::new(budget, SETUP_REPS);
    let mut expected: Vec<String> = Vec::with_capacity(c.programs.len());
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); c.programs.len()];
    // The same times normalized to host speed, for the end-to-end metrics.
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); c.programs.len()];
    let mut passes = 0;
    let (mut before, mut after) = (0usize, 0usize);
    let phase = Instant::now();
    while passes == 0 || phase.elapsed() < budget {
        for (k, prog) in c.programs.iter().enumerate() {
            if !cfg.trace {
                setups.tick(phase.elapsed(), || setup(&pl, &warm));
            }
            let start = Instant::now();
            let (optimized, clean) = optimize(&pl, prog);
            let t = ms(start.elapsed());
            times[k].push(t);
            scaled[k].push(t * host_scale());
            out.attempted += 1;
            let text = pretty_program(&optimized);
            if passes == 0 {
                let bad = refinement_failures(prog, &optimized, &c.args[k]);
                out.failed += u64::from(bad > 0 || !clean);
                before += non_skip(prog);
                after += non_skip(&optimized);
                expected.push(text);
            } else if text != expected[k] {
                out.failed += 1;
                out.problem(format!("program {k} optimized differently on a later pass"));
            }
        }
        passes += 1;
    }
    let all_times = times.concat();
    let in_stmts: usize = c.programs.iter().map(stmts).sum();
    // Each program's time is the lower quartile of its repetitions:
    // host contention only ever adds time, and comes in bursts that
    // spare most repetitions.
    let per_program = |t: &[Vec<f64>]| -> Vec<f64> { t.iter().map(|v| low_quartile(v)).collect() };
    let stmts_per_s = |per: &[f64]| in_stmts as f64 / (per.iter().sum::<f64>() / 1e3);
    let (raw, per_program) = (per_program(&times), per_program(&scaled));
    out.set("work_per_s", stmts_per_s(&per_program));
    out.set("op_ms_p50", median(&per_program));
    if !cfg.trace {
        out.set("setup_s", low_quartile(&setups.times));
        return out;
    }

    out.set("optimize.stmts_per_s", stmts_per_s(&raw));
    out.set("optimize.program_ms_p50", median(&all_times));
    out.set("optimize.out_stmts_ratio", after as f64 / before as f64);

    // The replay, with the recorder off and on in turn: the difference
    // is the tracing overhead.
    let mut tracer = Tracer::new(true, Instant::now());
    let (plain, walls, counts) = replay_phase(&mut tracer, &pl, &c, &expected, budget, &mut out);
    let n = walls.len() as f64;
    let selfs = tracer.self_times();
    let layer = |name: &str| selfs.get(name).map_or(0.0, |d| ms(*d)) / n;
    let mut attributed = 0.0;
    for (metric, span) in [
        ("il.cfg_ms", "il.cfg"),
        ("engine.analysis_ms", "engine.analysis"),
        ("engine.rewrite_ms", "engine.rewrite"),
    ] {
        attributed += layer(span);
        out.set(metric, layer(span));
    }
    for p in &pl.passes {
        let v = layer(&format!("engine.legal_sites.{}", p.name));
        attributed += v;
        out.set(format!("engine.legal_sites_ms.{}", p.name), v);
    }
    let e2e = mean(&walls);
    let untraced = mean(&plain);
    out.set("trace.e2e_ms", e2e);
    out.set("trace.untraced_ms", untraced);
    out.set("trace.overhead_pct", (e2e - untraced) / untraced * 100.0);
    out.set("trace.unattributed_ms", e2e - attributed);
    out.set("engine.analysis_calls", counts.analysis_calls as f64);
    out.set("engine.sites", counts.sites as f64);
    out.set("engine.applied", counts.applied as f64);
    out.set(
        "engine.applied_ratio",
        counts.applied as f64 / counts.sites.max(1) as f64,
    );
    out.set("engine.rounds", counts.rounds as f64);
    out.set("pool.efficiency", e2e / (JOBS as f64 * mean(&all_times)));
    if let Err(e) = tracer.write_jsonl(&cfg.out_dir.join("trace-optimize_generated.jsonl")) {
        out.problem(format!("cannot write trace: {e}"));
    }
    out
}
