//! The Cobalt benchmark: three seeded workloads that drive the public
//! entry points end to end, plus a traced run that attributes their time
//! to the layers (modules) underneath.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload verify_registry|optimize_generated|serve_mixed \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures with the recorder off and reports the
//! end-to-end metrics; `--trace 1` runs the same workload untraced and
//! then traced, and reports the per-layer metrics (spans go to
//! `perfbench/out/trace-<workload>.jsonl`). Every run checks the
//! program's outputs against independent oracles. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (name → value and unit). See `perfbench/README.md` for
//! why each workload exists and which layer metric should move which
//! end-to-end metric.

mod optimize_wl;
mod serve_wl;
mod trace;
mod verify_wl;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// End-to-end metrics, reported by every workload's untraced run.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_per_s", "1/s"),
    ("op_ms_p50", "ms"),
];

/// The 11 passes of `cobalt_opts::default_pipeline()`, in order.
const PASSES: &[&str] = &[
    "const_prop",
    "const_prop_branch",
    "const_prop_call",
    "const_fold",
    "copy_prop",
    "cse",
    "load_elim",
    "branch_fold_true",
    "branch_fold_false",
    "self_assign_removal",
    "dae",
];

/// Per-layer metrics, reported by every workload's traced run (zero
/// where the workload bypasses the layer).
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: &[(&str, &str)] = &[
        ("trace.e2e_ms", "ms"),
        ("trace.untraced_ms", "ms"),
        ("trace.overhead_pct", "%"),
        ("trace.unattributed_ms", "ms"),
        ("dsl.parse_ms", "ms"),
        ("lint.rule_ms", "ms"),
        ("verify.encode_ms", "ms"),
        ("verify.obligations", "count"),
        ("verify.attempts", "count"),
        ("verify.escalations", "count"),
        ("logic.prove_ms", "ms"),
        ("logic.prove_ms_p50", "ms"),
        ("logic.calls", "count"),
        ("logic.splits", "count"),
        ("logic.instances", "count"),
        ("logic.branches", "count"),
        ("logic.proved_ratio", "ratio"),
        ("verify.obls_per_s", "1/s"),
        ("verify.prove_ms_p50", "ms"),
        ("verify.prove_ms_p99", "ms"),
        ("verify.reject_ms_p50", "ms"),
        ("il.cfg_ms", "ms"),
        ("engine.analysis_ms", "ms"),
        ("engine.analysis_calls", "count"),
        ("engine.rewrite_ms", "ms"),
        ("engine.sites", "count"),
        ("engine.applied", "count"),
        ("engine.applied_ratio", "ratio"),
        ("engine.rounds", "count"),
        ("pool.efficiency", "ratio"),
        ("optimize.stmts_per_s", "1/s"),
        ("optimize.program_ms_p50", "ms"),
        ("optimize.out_stmts_ratio", "ratio"),
        ("serve.latency_ms_p50", "ms"),
        ("serve.latency_ms_p99", "ms"),
        ("serve.hit_ms_p50", "ms"),
        ("serve.miss_ms_p50", "ms"),
        ("serve.connect_ms_p50", "ms"),
        ("serve.first_byte_ms_p50", "ms"),
        ("serve.unattributed_ms_p50", "ms"),
        ("serve.decode_us", "us"),
        ("serve.cache_get_us", "us"),
        ("serve.exec_ms", "ms"),
        ("serve.cache_insert_ms", "ms"),
        ("serve.encode_us", "us"),
        ("journal.load_ms", "ms"),
        ("serve.hit_ratio", "ratio"),
        ("serve.coalesced", "count"),
        ("serve.shed", "count"),
        ("serve.errors", "count"),
        ("loadgen.late_ms_p99", "ms"),
    ];
    let mut all: Vec<(String, &str)> = fixed.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    all.extend(
        PASSES
            .iter()
            .map(|p| (format!("engine.legal_sites_ms.{p}"), "ms")),
    );
    all
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (rule verdicts, programs, requests).
    pub attempted: u64,
    /// Operations whose output failed an oracle.
    pub failed: u64,
    /// Checks that failed outside any single operation (replay
    /// fidelity, determinism, run validity).
    pub problems: Vec<String>,
    /// Conditions that make a run's figures suspect without making its
    /// outputs wrong; printed, never folded into `correct`.
    pub flags: Vec<String>,
    /// Measured values by metric name.
    pub metrics: BTreeMap<String, f64>,
    /// Hash of the generated inputs.
    pub inputs_hash: u64,
    /// Peak RSS after a fixed amount of work (the first full pass over
    /// the inputs), so that it does not grow with the number of passes
    /// a run happens to fit in.
    pub peak_rss_mb: Option<f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Records a failed check (each distinct one once).
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        if !self.problems.contains(&what) {
            self.problems.push(what);
        }
    }
}

/// Settings of one run.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces and scratch journals go.
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// The measuring budget of one phase: the whole run untraced, or
    /// half of it in each of the untraced and traced phases.
    pub fn phase_budget(&self) -> Duration {
        let secs = if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        };
        Duration::from_secs_f64(secs)
    }
}

/// Set-up repetitions spread evenly over a measuring phase, so that a
/// burst of host noise cannot dominate them.
pub struct Setups {
    every: Duration,
    next: Duration,
    pub times: Vec<f64>,
}

impl Setups {
    pub fn new(budget: Duration, reps: u32) -> Setups {
        Setups {
            every: budget / reps,
            next: Duration::ZERO,
            times: Vec::new(),
        }
    }

    /// Times one set-up when the phase has reached the next slot.
    pub fn tick(&mut self, elapsed: Duration, setup: impl FnOnce() -> Duration) {
        if elapsed >= self.next {
            self.times.push(setup().as_secs_f64());
            self.next += self.every;
        }
    }
}

/// Quantile by linear interpolation between closest ranks (for
/// quartiles the same as Python's `statistics.quantiles` with
/// `method="inclusive"`); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The end-to-end time statistic: the lower quartile of per-slice
/// values (per-pass or per-slice medians, set-up times). Contention
/// from other tenants of a shared host comes in bursts of seconds that
/// slow a minority of slices; this reads the uncontended level without
/// being the extreme of one lucky sample.
pub fn low_quartile(xs: &[f64]) -> f64 {
    quantile(xs, 0.25)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// CPU time used by this whole process so far: every thread, exited
/// ones included.
pub fn process_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is a
    // constant the kernel defines; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The calibration kernel's time on the host the benchmark was tuned on
/// (a shared 2-vCPU x86-64 VM), so that normalized times read close to
/// that host's wall times.
const CALIBRATION_REF: Duration = Duration::from_micros(2500);

/// One run of the calibration kernel: a fixed, std-only mix of string
/// formatting, hashing, allocation, ordered-map inserts and sorting,
/// like the prover's and the engine's inner loops but sharing no code
/// with them, so no change to the program can make it faster.
fn calibration_kernel() -> Duration {
    use std::collections::hash_map::DefaultHasher;
    use std::collections::{BTreeMap, HashMap};
    use std::hash::BuildHasherDefault;
    let t = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let keys: Vec<String> = (0..4000).map(|_| format!("k{:x}", next() % 3000)).collect();
    let mut h: HashMap<&str, Vec<u64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for k in &keys {
        h.entry(k.as_str()).or_default().push(next());
    }
    let mut b: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, v) in h.values().enumerate() {
        b.insert(v[0] % 5000, i);
    }
    let mut v: Vec<u64> = (0..20000).map(|_| next()).collect();
    v.sort_unstable();
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(h[k.as_str()].len() as u64);
    }
    acc = acc.wrapping_add(b.range(1000..4000).count() as u64 + v[v.len() / 2]);
    std::hint::black_box(acc);
    t.elapsed()
}

/// The factor that normalizes CPU-bound timings taken just before to
/// the host speed of `CALIBRATION_REF`.
///
/// Other tenants of a shared host slow every core by up to ~1.6x for
/// minutes at a time, longer than a run, so no statistic inside one run
/// can remove it. A timing multiplied by this factor is divided by the
/// calibration kernel's time now (the fastest of three runs) and scaled
/// by `CALIBRATION_REF`: a change to the program moves the result in
/// full, a change in host speed mostly cancels.
pub fn host_scale() -> f64 {
    let now = (0..3)
        .map(|_| calibration_kernel())
        .min()
        .expect("three runs");
    CALIBRATION_REF.as_secs_f64() / now.as_secs_f64().max(1e-9)
}

/// Peak resident set size of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        out_dir,
    };
    let run = match args.workload.as_str() {
        "verify_registry" => verify_wl::run,
        "optimize_generated" => optimize_wl::run,
        "serve_mixed" => serve_wl::run,
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let mut out = run(&cfg);
    match out.peak_rss_mb {
        Some(mb) => out.set("peak_rss_mb", mb),
        None if !cfg.trace => out.problem("VmHWM unavailable"),
        None => {}
    }
    report(&args.workload, &cfg, out);
}

/// Prints every metric the run measured by name with its unit, then
/// the JSON result line, which holds the end-to-end metrics (`--trace
/// 0`) or the per-layer metrics (`--trace 1`). Exits 0 whenever a result
/// was produced; correctness is in the result, not the exit code.
fn report(workload: &str, cfg: &RunCfg, mut out: Outcome) {
    let end_to_end: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    let all: Vec<(String, &str)> = end_to_end.iter().cloned().chain(per_layer()).collect();
    let reported = if cfg.trace { per_layer() } else { end_to_end };
    let unregistered: Vec<String> = out
        .metrics
        .keys()
        .filter(|name| !all.iter().any(|(n, _)| n == *name))
        .cloned()
        .collect();
    for name in unregistered {
        out.problem(format!("internal: unregistered metric `{name}`"));
    }
    // The metric lists here and in BENCHMARK.json must agree.
    let declared = BENCHMARK_JSON.matches("\"better\":").count();
    if declared != all.len() {
        out.problem(format!(
            "BENCHMARK.json declares {declared} metrics, the benchmark {}",
            all.len()
        ));
    }
    for (name, unit) in &all {
        if !BENCHMARK_JSON.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")) {
            out.problem(format!(
                "metric `{name}` ({unit}) is not declared in BENCHMARK.json"
            ));
        }
    }
    println!(
        "workload={workload} seed={} trace={}",
        cfg.seed,
        u8::from(cfg.trace)
    );
    println!("inputs_hash={:016x}", out.inputs_hash);
    let mut fields = Vec::new();
    for (name, unit) in &all {
        let in_result = reported.iter().any(|(n, _)| n == name);
        let Some(mut value) = out.metrics.get(name).copied().or(in_result.then_some(0.0)) else {
            continue;
        };
        if !value.is_finite() {
            out.problem(format!("metric `{name}` is not finite"));
            value = 0.0;
        }
        println!("metric {name} = {value} {unit}");
        if in_result {
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    for f in &out.flags {
        println!("flag: {f}");
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    let correct = out.failed == 0 && out.problems.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
