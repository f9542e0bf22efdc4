//! A minimal benchmark harness.
//!
//! A hermetic stand-in for `criterion` supporting the subset the
//! workspace's benches use: benchmark groups, per-group sample sizes,
//! throughput annotation, warmup, N timed samples, and median/p95/mean
//! statistics. Results are printed human-readably and, one JSON object
//! per line, to stdout (prefixed `BENCH_JSON`).
//!
//! Entry points are the [`bench_group!`](crate::bench_group) and
//! [`bench_main!`](crate::bench_main) macros:
//!
//! ```no_run
//! use cobalt_support::bench::Bench;
//!
//! fn my_benches(c: &mut Bench) {
//!     c.bench_function("fib/20", |b| b.iter(|| (1..=20u64).product::<u64>()));
//! }
//!
//! cobalt_support::bench_group!(benches, my_benches);
//! cobalt_support::bench_main!(benches);
//! ```
//!
//! There are two modes. `cargo bench` measures. When `cargo test` (or
//! `cargo bench -- --test`) executes a `harness = false` bench target
//! it passes `--test`; the harness then runs every benchmark for a
//! single iteration (a smoke test) instead of measuring.

use std::fmt::Display;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing profile for one run of the harness.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Default number of timed samples per benchmark.
    pub sample_size: usize,
    /// Wall-clock spent warming up before sampling.
    pub warmup: Duration,
    /// Target wall-clock per sample (sets iterations per sample).
    pub sample_time: Duration,
    /// If set, run each benchmark exactly once, untimed (smoke mode).
    pub smoke_only: bool,
}

impl Profile {
    fn from_args(args: &[String]) -> Self {
        if args.iter().any(|a| a == "--test") {
            Profile {
                sample_size: 1,
                warmup: Duration::ZERO,
                sample_time: Duration::ZERO,
                smoke_only: true,
            }
        } else {
            Profile {
                sample_size: 30,
                warmup: Duration::from_millis(150),
                sample_time: Duration::from_millis(40),
                smoke_only: false,
            }
        }
    }
}

/// Identifies one benchmark, e.g. `const_prop/160`.
#[derive(Debug, Clone)]
pub struct BenchId(pub String);

impl BenchId {
    /// An id made of a function name and a parameter, `name/param`.
    pub fn new(name: impl Display, param: impl Display) -> Self {
        BenchId(format!("{name}/{param}"))
    }

    /// An id that is just a parameter (the group provides the name).
    pub fn from_parameter(param: impl Display) -> Self {
        BenchId(param.to_string())
    }
}

impl From<&str> for BenchId {
    fn from(s: &str) -> Self {
        BenchId(s.to_string())
    }
}

impl From<String> for BenchId {
    fn from(s: String) -> Self {
        BenchId(s)
    }
}

/// Throughput annotation, reported alongside timings.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Full benchmark name (`group/id`).
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample.
    pub iters_per_sample: u64,
    /// Median ns/iter.
    pub median_ns: f64,
    /// 95th-percentile ns/iter.
    pub p95_ns: f64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Minimum ns/iter.
    pub min_ns: f64,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

impl Stats {
    /// This result as a one-line JSON object (the `BENCH_JSON` payload).
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"name\":{:?},\"samples\":{},\"iters_per_sample\":{},\
             \"median_ns\":{:.1},\"p95_ns\":{:.1},\"mean_ns\":{:.1},\"min_ns\":{:.1}",
            self.name, self.samples, self.iters_per_sample,
            self.median_ns, self.p95_ns, self.mean_ns, self.min_ns,
        );
        if let Some(Throughput::Elements(n)) = self.throughput {
            let per_sec = n as f64 / (self.median_ns * 1e-9);
            s.push_str(&format!(
                ",\"elements\":{n},\"elements_per_sec\":{per_sec:.1}"
            ));
        }
        s.push('}');
        s
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Records per-iteration timings for one benchmark; handed to the
/// benchmark closure, which must call [`Bencher::iter`] exactly once.
pub struct Bencher<'a> {
    profile: &'a Profile,
    sample_size: usize,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher<'_> {
    /// Measures the closure: warmup, then `sample_size` timed samples.
    pub fn iter<O>(&mut self, mut routine: impl FnMut() -> O) {
        if self.profile.smoke_only {
            black_box(routine());
            self.samples_ns = vec![0.0];
            self.iters_per_sample = 1;
            return;
        }
        // Warmup, counting iterations to calibrate the sample size.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        loop {
            black_box(routine());
            warmup_iters += 1;
            if warmup_start.elapsed() >= self.profile.warmup {
                break;
            }
        }
        let per_iter = warmup_start.elapsed().as_secs_f64() / warmup_iters as f64;
        let iters = ((self.profile.sample_time.as_secs_f64() / per_iter).ceil() as u64).max(1);
        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            samples.push(start.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        self.samples_ns = samples;
        self.iters_per_sample = iters;
    }
}

/// The harness: collects and reports benchmark results.
pub struct Bench {
    profile: Profile,
    filter: Option<String>,
    results: Vec<Stats>,
}

impl Bench {
    /// Builds a harness from the process's command-line arguments.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let profile = Profile::from_args(&args);
        // The first non-flag argument is a substring filter (as with
        // libtest/criterion).
        let filter = args
            .iter()
            .find(|a| !a.starts_with('-') && *a != "benches")
            .cloned();
        Bench {
            profile,
            filter,
            results: Vec::new(),
        }
    }

    /// A harness with an explicit profile (for tests).
    pub fn with_profile(profile: Profile) -> Self {
        Bench {
            profile,
            filter: None,
            results: Vec::new(),
        }
    }

    /// Benchmarks a standalone function.
    pub fn bench_function(&mut self, id: impl Into<BenchId>, f: impl FnMut(&mut Bencher)) {
        let name = id.into().0;
        let sample_size = self.profile.sample_size;
        self.run_benchmark(name, sample_size, None, f);
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchGroup<'_> {
        let sample_size = self.profile.sample_size;
        BenchGroup {
            bench: self,
            name: name.into(),
            sample_size,
            throughput: None,
        }
    }

    fn run_benchmark(
        &mut self,
        name: String,
        sample_size: usize,
        throughput: Option<Throughput>,
        mut f: impl FnMut(&mut Bencher),
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            profile: &self.profile,
            sample_size,
            samples_ns: Vec::new(),
            iters_per_sample: 0,
        };
        f(&mut bencher);
        let mut ns = bencher.samples_ns;
        if ns.is_empty() {
            eprintln!("warning: benchmark {name} never called Bencher::iter");
            return;
        }
        ns.sort_by(|a, b| a.total_cmp(b));
        let median = if ns.len() % 2 == 1 {
            ns[ns.len() / 2]
        } else {
            (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2.0
        };
        let p95 = ns[((ns.len() as f64 * 0.95).ceil() as usize).min(ns.len()) - 1];
        let stats = Stats {
            name,
            samples: ns.len(),
            iters_per_sample: bencher.iters_per_sample,
            median_ns: median,
            p95_ns: p95,
            mean_ns: ns.iter().sum::<f64>() / ns.len() as f64,
            min_ns: ns[0],
            throughput,
        };
        self.report(&stats);
        self.results.push(stats);
    }

    fn report(&self, stats: &Stats) {
        if self.profile.smoke_only {
            println!("smoke {:<48} ok", stats.name);
            return;
        }
        println!(
            "bench {:<48} median {:>12}   p95 {:>12}   min {:>12}",
            stats.name,
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.min_ns),
        );
        println!("BENCH_JSON {}", stats.json());
    }

    /// All results collected so far.
    pub fn results(&self) -> &[Stats] {
        &self.results
    }

    /// Prints the end-of-run summary line.
    pub fn final_summary(&self) {
        println!(
            "completed {} benchmark{}",
            self.results.len(),
            if self.results.len() == 1 { "" } else { "s" },
        );
    }
}

/// A group of related benchmarks sharing a name prefix, sample size,
/// and throughput annotation.
pub struct BenchGroup<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        if !self.bench.profile.smoke_only {
            self.sample_size = n.clamp(2, self.bench.profile.sample_size.max(2));
        }
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks a closure under `group_name/id`.
    pub fn bench_function(
        &mut self,
        id: impl Into<BenchId>,
        f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.into().0);
        let (n, t) = (self.sample_size, self.throughput);
        self.bench.run_benchmark(name, n, t, f);
        self
    }

    /// Benchmarks a closure that borrows a fixed input.
    pub fn bench_with_input<I: ?Sized>(
        &mut self,
        id: impl Into<BenchId>,
        input: &I,
        mut f: impl FnMut(&mut Bencher, &I),
    ) -> &mut Self {
        self.bench_function(id, |b| f(b, input))
    }

    /// Closes the group (kept for call-site symmetry; drop suffices).
    pub fn finish(self) {}
}

/// Bundles benchmark functions into a named group runner, mirroring
/// `criterion_group!`.
#[macro_export]
macro_rules! bench_group {
    ($name:ident, $($func:path),+ $(,)?) => {
        fn $name(bench: &mut $crate::bench::Bench) {
            $( $func(bench); )+
        }
    };
}

/// Expands to `fn main` running the given group runners, mirroring
/// `criterion_main!`.
#[macro_export]
macro_rules! bench_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut bench = $crate::bench::Bench::from_env();
            $( $group(&mut bench); )+
            bench.final_summary();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_profile() -> Profile {
        Profile {
            sample_size: 4,
            warmup: Duration::from_micros(200),
            sample_time: Duration::from_micros(200),
            smoke_only: false,
        }
    }

    #[test]
    fn measures_and_reports_sane_stats() {
        let mut bench = Bench::with_profile(fast_profile());
        bench.bench_function("sum/1000", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        let stats = &bench.results()[0];
        assert_eq!(stats.name, "sum/1000");
        assert_eq!(stats.samples, 4);
        assert!(stats.median_ns > 0.0);
        assert!(stats.min_ns <= stats.median_ns);
        assert!(stats.median_ns <= stats.p95_ns);
    }

    #[test]
    fn groups_prefix_names_and_carry_throughput() {
        let mut bench = Bench::with_profile(fast_profile());
        {
            let mut group = bench.benchmark_group("g");
            group.sample_size(3);
            group.throughput(Throughput::Elements(64));
            group.bench_with_input(BenchId::from_parameter(64), &64u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            group.bench_function(BenchId::new("named", 7), |b| b.iter(|| 7u64 * 6));
            group.finish();
        }
        let names: Vec<_> = bench.results().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["g/64", "g/named/7"]);
        let json = bench.results()[0].json();
        assert!(json.contains("\"elements\":64"), "{json}");
        assert!(json.contains("elements_per_sec"), "{json}");
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut bench = Bench::with_profile(Profile {
            sample_size: 1,
            warmup: Duration::ZERO,
            sample_time: Duration::ZERO,
            smoke_only: true,
        });
        let mut calls = 0;
        bench.bench_function("once", |b| {
            b.iter(|| calls += 1);
        });
        assert_eq!(calls, 1);
    }

    #[test]
    fn json_lines_are_parseable_shape() {
        let stats = Stats {
            name: "x/\"quoted\"".into(),
            samples: 3,
            iters_per_sample: 10,
            median_ns: 1.5,
            p95_ns: 2.0,
            mean_ns: 1.6,
            min_ns: 1.0,
            throughput: None,
        };
        let json = stats.json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        // Name with quotes must be escaped (Debug formatting).
        assert!(json.contains("\\\"quoted\\\""), "{json}");
    }
}
