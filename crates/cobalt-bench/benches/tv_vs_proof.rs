//! Experiment E5: the trust-cost comparison the paper's introduction
//! draws — translation validation pays a checking cost on **every**
//! compile (growing with program size), while the Cobalt proof is a
//! **one-time** cost independent of the programs later compiled.
//!
//! The crossover these benchmarks expose: after a handful of compiles
//! of moderate programs, the amortized once-and-for-all proof is
//! cheaper — and it covers *all* programs, not just the validated runs.

use cobalt_bench::{bench_program, SIZES};
use cobalt_dsl::{LabelEnv, Optimization};
use cobalt_engine::{Engine, OptimizeSession};
use cobalt_il::Program;
use cobalt_tv::validate_proc;
use cobalt_verify::{SemanticMeanings, Verifier};
use cobalt_support::bench::{Bench, BenchId};
use cobalt_support::{bench_group, bench_main};

/// Optimizes `prog` with `opts` for one round; returns the program and
/// the rewrite count.
fn optimize(engine: &Engine, prog: &Program, opts: &[Optimization]) -> (Program, usize) {
    let (out, report) = OptimizeSession::new(engine.clone()).optimize_program(prog, &[], opts, 1);
    assert!(!report.degraded(), "{:#?}", report.failures);
    (out, report.applied)
}

/// The one-time cost: prove constant propagation sound, once and for
/// all programs.
fn bench_once_and_for_all(c: &mut Bench) {
    let verifier = Verifier::new(LabelEnv::standard(), SemanticMeanings::standard());
    let const_prop = cobalt_opts::const_prop();
    c.bench_function("trust/prove_once", |b| {
        b.iter(|| {
            let report = verifier.verify_optimization(&const_prop).unwrap();
            assert!(report.all_proved());
        })
    });
}

/// The per-compile cost: optimize a program and validate the output,
/// for each program size.
fn bench_validate_every_compile(c: &mut Bench) {
    let engine = Engine::new(LabelEnv::standard());
    let const_prop = cobalt_opts::const_prop();
    let mut group = c.benchmark_group("trust/validate_per_compile");
    for &n in SIZES {
        let prog = bench_program(n, 21);
        let (optimized, _) = optimize(&engine, &prog, std::slice::from_ref(&const_prop));
        let orig = prog.main().unwrap().clone();
        let new = optimized.main().unwrap().clone();
        group.bench_with_input(BenchId::from_parameter(n), &(orig, new), |b, (o, t)| {
            b.iter(|| {
                let report = validate_proc(o, t).unwrap();
                assert!(report.validated());
            })
        });
    }
    group.finish();
}

/// The compile-time overhead comparison at a fixed size: optimization
/// alone vs optimization + validation.
fn bench_compile_overhead(c: &mut Bench) {
    let engine = Engine::new(LabelEnv::standard());
    let opts = [cobalt_opts::const_prop(), cobalt_opts::dae()];
    let prog = bench_program(160, 23);
    let mut group = c.benchmark_group("trust/compile_overhead");
    group.bench_function("optimize_only", |b| {
        b.iter(|| optimize(&engine, &prog, &opts).1)
    });
    group.bench_function("optimize_and_validate", |b| {
        b.iter(|| {
            let (out, n) = optimize(&engine, &prog, &opts);
            // Validating a multi-pass compile honestly requires
            // per-pass validation; approximate with per-opt reruns.
            let mut cur = prog.clone();
            for opt in &opts {
                let (next, _) = optimize(&engine, &cur, std::slice::from_ref(opt));
                let r = validate_proc(cur.main().unwrap(), next.main().unwrap()).unwrap();
                assert!(r.validated(), "{:?}", r.rejections());
                cur = next;
            }
            let _ = out;
            n
        })
    });
    group.finish();
}

bench_group!(
    benches,
    bench_once_and_for_all,
    bench_validate_every_compile,
    bench_compile_overhead
);
bench_main!(benches);
