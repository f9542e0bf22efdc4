//! `verify_registry`: the paper's E1. The surface suite is parsed from
//! text and verified rule by rule at one job, together with the §6
//! unsound load elimination, in a seed-permuted order, pass after pass.
//!
//! The prover does almost all of the work; engine, serve, journal and
//! pool do none, so this is their bypass workload. Rejecting the
//! unsound rule saturates an open branch instead of closing every
//! branch and takes about 40 % of a pass, so a change that speeds
//! proofs but slows refutation shows in `work_per_s` here.
//!
//! Untraced, the `Verifier` entry point does the work. Traced, a replay
//! calls each layer's public function in turn — lint, obligation
//! generation, `Solver::prove` under the same retry tiers — and must
//! reach the same obligation ids and verdicts.

use crate::trace::Tracer;
use crate::{
    host_scale, low_quartile, mean, median, ms, peak_rss_mb, quantile, Outcome, RunCfg, Setups,
};
use cobalt_dsl::{LabelEnv, Optimization, PureAnalysis};
use cobalt_lint::{LintContext, RuleLintOptions};
use cobalt_support::journal::Fnv64;
use cobalt_support::Rng;
use cobalt_verify::{
    obligations_for_analysis_with, obligations_for_optimization_with, BankMode, Report,
    RetryPolicy, SemanticMeanings, Verifier,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const SUITE_SRC: &str = include_str!("../../crates/cobalt-opts/suite/suite.cob");

/// How often set-up (a fresh `Verifier` plus one full pass) is timed.
const SETUP_REPS: u32 = 9;

/// The rule definitions of the surface suite, as `(name, text)` blocks
/// in file order.
pub fn suite_blocks() -> Vec<(String, String)> {
    let mut blocks = Vec::new();
    let mut current: Option<(String, String)> = None;
    for line in SUITE_SRC.lines() {
        if let Some((_, text)) = current.as_mut() {
            text.push_str(line);
            text.push('\n');
            if line.trim_end() == "}" {
                blocks.push(current.take().expect("open block"));
            }
            continue;
        }
        let mut words = line.split_whitespace();
        if let (Some("forward" | "backward" | "local" | "analysis"), Some(name)) =
            (words.next(), words.next())
        {
            current = Some((name.to_string(), format!("{line}\n")));
        }
    }
    blocks
}

/// One entry of the verification order.
enum Entry {
    Sound(String),
    Unsound,
}

struct Inputs {
    text: String,
    order: Vec<Entry>,
    buggy: Optimization,
}

fn inputs(seed: u64) -> Inputs {
    let mut blocks = suite_blocks();
    let mut rng = Rng::seed_from_u64(seed);
    rng.shuffle(&mut blocks);
    let text: String = blocks.iter().map(|(_, b)| format!("{b}\n")).collect();
    let mut order: Vec<Entry> = blocks
        .iter()
        .map(|(n, _)| Entry::Sound(n.clone()))
        .collect();
    let at = rng.gen_range(0..=order.len());
    order.insert(at, Entry::Unsound);
    let buggy = cobalt_opts::buggy_optimizations()
        .into_iter()
        .next()
        .expect("the registry has a buggy variant");
    Inputs { text, order, buggy }
}

fn inputs_hash(inp: &Inputs) -> u64 {
    let mut h = Fnv64::new();
    h.write(inp.text.as_bytes());
    for e in &inp.order {
        match e {
            Entry::Sound(n) => h.write(n.as_bytes()),
            Entry::Unsound => h.write(b"<unsound>"),
        };
    }
    h.finish()
}

enum Rule<'a> {
    Opt(&'a Optimization),
    Analysis(&'a PureAnalysis),
}

/// Looks up the parsed rule for each sound entry.
fn resolve<'a>(suite: &'a cobalt_dsl::Suite, name: &str) -> Option<Rule<'a>> {
    suite
        .optimizations
        .iter()
        .find(|o| o.name == name)
        .map(Rule::Opt)
        .or_else(|| {
            suite
                .analyses
                .iter()
                .find(|a| a.name == name)
                .map(Rule::Analysis)
        })
}

/// Obligation ids and verdicts of one rule, the replay-fidelity key.
type Verdicts = Vec<(String, bool)>;

/// One untraced pass through `Verifier`.
#[derive(Default)]
struct Pass {
    wall: Duration,
    /// Time to each sound rule's verdict, with its share of the parse.
    sound: Vec<Duration>,
    /// Time to the unsound rule's verdict.
    reject: Vec<Duration>,
    sound_obligations: u64,
    obligations: u64,
    attempts: u64,
    escalations: u64,
    verdicts: BTreeMap<String, Verdicts>,
    wrong: u64,
    ops: u64,
}

fn verdicts(report: &Report) -> Verdicts {
    report
        .outcomes
        .iter()
        .map(|o| (o.id.clone(), o.proved))
        .collect()
}

fn untraced_pass(v: &Verifier, inp: &Inputs) -> Pass {
    let mut pass = Pass::default();
    let start = Instant::now();
    let suite = match cobalt_dsl::parse_suite(&inp.text) {
        Ok(s) => s,
        Err(_) => {
            pass.ops = inp.order.len() as u64;
            pass.wrong = pass.ops;
            return pass;
        }
    };
    let n_sound = inp.order.len() as u32 - 1;
    let share = start.elapsed() / n_sound;
    for entry in &inp.order {
        pass.ops += 1;
        let t = Instant::now();
        let (name, report) = match entry {
            Entry::Sound(name) => {
                let report = match resolve(&suite, name) {
                    Some(Rule::Opt(o)) => v.verify_optimization(o),
                    Some(Rule::Analysis(a)) => v.verify_analysis(a),
                    None => {
                        pass.wrong += 1;
                        continue;
                    }
                };
                (name.clone(), report)
            }
            Entry::Unsound => (inp.buggy.name.clone(), v.verify_optimization(&inp.buggy)),
        };
        let dt = t.elapsed();
        let Ok(report) = report else {
            pass.wrong += 1;
            continue;
        };
        let n = report.outcomes.len() as u64;
        pass.obligations += n;
        pass.attempts += u64::from(report.total_attempts());
        pass.escalations += report
            .outcomes
            .iter()
            .map(|o| u64::from(o.escalations))
            .sum::<u64>();
        match entry {
            Entry::Sound(_) => {
                // Oracle: every sound rule of the suite proves.
                if !report.all_proved() {
                    pass.wrong += 1;
                }
                pass.sound.push(dt + share);
                pass.sound_obligations += n;
            }
            Entry::Unsound => {
                // Oracle: the §6 rule is rejected on an open branch,
                // not merely out of budget.
                if report.all_proved() || report.only_resource_limited_failures() {
                    pass.wrong += 1;
                }
                pass.reject.push(dt);
            }
        }
        pass.verdicts.insert(name, verdicts(&report));
    }
    pass.wall = start.elapsed();
    pass
}

/// Solver counters summed over one traced pass.
#[derive(Default, Clone, PartialEq, Debug)]
struct Counts {
    obligations: u64,
    calls: u64,
    proved_calls: u64,
    splits: u64,
    instances: u64,
    branches: u64,
}

/// One traced pass: the layers' public functions called in turn.
fn traced_pass(
    t: &mut Tracer,
    pass_no: usize,
    env: &LabelEnv,
    meanings: &SemanticMeanings,
    tiers: &[cobalt_logic::Limits],
    inp: &Inputs,
) -> (BTreeMap<String, Verdicts>, Counts, Duration) {
    let start = Instant::now();
    let mut counts = Counts::default();
    let mut all = BTreeMap::new();
    t.span("verify.pass", &pass_no.to_string(), |t| {
        let Ok(suite) = t.span("dsl.parse", "suite", |_| cobalt_dsl::parse_suite(&inp.text)) else {
            return;
        };
        for entry in &inp.order {
            let (name, rule) = match entry {
                Entry::Sound(name) => match resolve(&suite, name) {
                    Some(rule) => (name.as_str(), rule),
                    None => continue,
                },
                Entry::Unsound => (inp.buggy.name.as_str(), Rule::Opt(&inp.buggy)),
            };
            let lint_ok = t.span("lint.rule", name, |_| {
                let ctx = LintContext::new(env);
                let opts = RuleLintOptions::structural();
                let diags = match rule {
                    Rule::Opt(o) => cobalt_lint::lint_optimization(o, &ctx, &opts),
                    Rule::Analysis(a) => cobalt_lint::lint_analysis(a, &ctx, &opts),
                };
                !diags.has_errors()
            });
            if !lint_ok {
                continue;
            }
            let prepared = t.span("verify.encode", name, |_| match rule {
                Rule::Opt(o) => {
                    obligations_for_optimization_with(o, env, meanings, BankMode::default())
                }
                Rule::Analysis(a) => {
                    obligations_for_analysis_with(a, env, meanings, BankMode::default())
                }
            });
            let Ok(prepared) = prepared else { continue };
            let mut rule_verdicts = Vec::with_capacity(prepared.len());
            for mut p in prepared {
                counts.obligations += 1;
                let id = format!("{name}/{}", p.id);
                let mut proved = false;
                for (ti, tier) in tiers.iter().enumerate() {
                    p.solver.set_limits(tier.clone());
                    let outcome = t.span("logic.prove", &id, |_| p.solver.prove(&p.task));
                    let s = outcome.stats();
                    counts.calls += 1;
                    counts.splits += s.splits as u64;
                    counts.instances += s.instances as u64;
                    counts.branches += s.branches as u64;
                    if outcome.is_proved() {
                        counts.proved_calls += 1;
                        proved = true;
                        break;
                    }
                    if !(outcome.is_resource_limited() && ti + 1 < tiers.len()) {
                        break;
                    }
                }
                rule_verdicts.push((p.id, proved));
            }
            all.insert(name.to_string(), rule_verdicts);
        }
    });
    (all, counts, start.elapsed())
}

/// Replays passes until `budget` is spent, alternating a pass with the
/// recorder off and one recorded into `t`, so that the two are timed
/// under the same host conditions. Each pass is checked against the
/// `Verifier` reference. Returns the wall times (ms) of the unrecorded
/// and the recorded passes and the counters of the first pass.
fn replay_phase(
    t: &mut Tracer,
    inp: &Inputs,
    reference: &BTreeMap<String, Verdicts>,
    budget: Duration,
    out: &mut Outcome,
) -> (Vec<f64>, Vec<f64>, Counts) {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let tiers = RetryPolicy::default().tiers;
    let mut off = Tracer::new(false, Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut first: Option<Counts> = None;
    let phase = Instant::now();
    while traced.is_empty() || phase.elapsed() < budget {
        for recorded in [false, true] {
            let tracer = if recorded { &mut *t } else { &mut off };
            let (got, counts, wall) =
                traced_pass(tracer, traced.len(), &env, &meanings, &tiers, inp);
            let walls = if recorded { &mut traced } else { &mut plain };
            walls.push(ms(wall));
            if got != *reference {
                out.problem("replay disagrees with Verifier on obligation ids or verdicts");
            }
            match &first {
                None => first = Some(counts),
                Some(c) if *c != counts => out.problem("solver counters changed between passes"),
                Some(_) => {}
            }
        }
    }
    (plain, traced, first.unwrap_or_default())
}

fn setup() -> Duration {
    let inp = inputs(0);
    let t = Instant::now();
    let v = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard()).with_jobs(1);
    std::hint::black_box(untraced_pass(&v, &inp).ops);
    t.elapsed().mul_f64(host_scale())
}

pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::default();
    let inp = inputs(cfg.seed);
    out.inputs_hash = inputs_hash(&inp);
    if inputs_hash(&inputs(cfg.seed)) != out.inputs_hash {
        out.problem("the same seed generated different inputs");
    }

    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard()).with_jobs(1);

    // Untraced phase. Each pass is the same work, so per-pass figures
    // are comparable; only their summaries are kept. The end-to-end
    // times are normalized to host speed pass by pass.
    let budget = cfg.phase_budget();
    let mut setups = Setups::new(budget, SETUP_REPS);
    let mut reference: Option<Pass> = None;
    let (mut pass_s, mut pass_p50_ms, mut sound_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sound, mut reject) = (Vec::new(), Vec::new());
    let phase = Instant::now();
    while pass_s.is_empty() || phase.elapsed() < budget {
        if !cfg.trace {
            setups.tick(phase.elapsed(), setup);
        }
        let mut pass = untraced_pass(&verifier, &inp);
        let scale = host_scale();
        out.attempted += pass.ops;
        out.failed += pass.wrong;
        pass_s.push(pass.wall.as_secs_f64() * scale);
        sound_s.push(pass.sound.iter().sum::<Duration>().as_secs_f64());
        let verdict_ms: Vec<f64> = pass
            .sound
            .iter()
            .chain(&pass.reject)
            .map(|d| ms(*d))
            .collect();
        pass_p50_ms.push(median(&verdict_ms) * scale);
        if cfg.trace {
            sound.extend(pass.sound.iter().map(|d| ms(*d)));
            reject.extend(pass.reject.iter().map(|d| ms(*d)));
        }
        match &reference {
            None => {
                reference = Some(pass);
                out.peak_rss_mb = peak_rss_mb();
            }
            Some(r) => {
                if pass.verdicts != r.verdicts || pass.obligations != r.obligations {
                    out.problem("verdicts or obligation counts changed between passes");
                }
                pass.verdicts.clear();
            }
        }
    }
    let first = reference.expect("at least one pass");

    out.set(
        "work_per_s",
        first.obligations as f64 / low_quartile(&pass_s),
    );
    out.set("op_ms_p50", low_quartile(&pass_p50_ms));
    if !cfg.trace {
        out.set("setup_s", low_quartile(&setups.times));
        return out;
    }

    out.set(
        "verify.obls_per_s",
        first.sound_obligations as f64 / median(&sound_s),
    );
    out.set("verify.prove_ms_p50", median(&sound));
    out.set("verify.prove_ms_p99", quantile(&sound, 0.99));
    out.set("verify.reject_ms_p50", median(&reject));
    out.set("verify.attempts", first.attempts as f64);
    out.set("verify.escalations", first.escalations as f64);
    let reference = first.verdicts;

    // The replay through the layers' public functions, with the
    // recorder off and on in turn: the difference is the tracing
    // overhead.
    let mut tracer = Tracer::new(true, Instant::now());
    let (plain, walls, counts) = replay_phase(&mut tracer, &inp, &reference, budget, &mut out);
    let selfs = tracer.self_times();
    let layer = |name: &str| selfs.get(name).map_or(0.0, |d| ms(*d)) / walls.len() as f64;
    let e2e = mean(&walls);
    let untraced_pass_ms = mean(&plain);
    let layers = ["dsl.parse", "lint.rule", "verify.encode", "logic.prove"];
    let attributed: f64 = layers.iter().map(|l| layer(l)).sum();
    out.set("dsl.parse_ms", layer("dsl.parse"));
    out.set("lint.rule_ms", layer("lint.rule"));
    out.set("verify.encode_ms", layer("verify.encode"));
    out.set("logic.prove_ms", layer("logic.prove"));
    let prove_calls: Vec<f64> = tracer
        .durations("logic.prove")
        .into_iter()
        .map(ms)
        .collect();
    out.set("logic.prove_ms_p50", median(&prove_calls));
    out.set("verify.obligations", counts.obligations as f64);
    out.set("logic.calls", counts.calls as f64);
    out.set("logic.splits", counts.splits as f64);
    out.set("logic.instances", counts.instances as f64);
    out.set("logic.branches", counts.branches as f64);
    out.set(
        "logic.proved_ratio",
        counts.proved_calls as f64 / counts.calls.max(1) as f64,
    );
    out.set("trace.e2e_ms", e2e);
    out.set("trace.untraced_ms", untraced_pass_ms);
    out.set(
        "trace.overhead_pct",
        (e2e - untraced_pass_ms) / untraced_pass_ms * 100.0,
    );
    out.set("trace.unattributed_ms", e2e - attributed);
    if let Err(e) = tracer.write_jsonl(&cfg.out_dir.join("trace-verify_registry.jsonl")) {
        out.problem(format!("cannot write trace: {e}"));
    }
    out
}
