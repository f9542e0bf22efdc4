//! Experiment E6: execution-engine cost as a function of program size,
//! and the cost of running the suite as one composed pipeline versus
//! separate passes. (The paper's §1 motivates proving optimizations
//! once partly because per-run validation "can have a substantial
//! impact on the time to run an optimization" — this benchmark gives
//! the engine-side baseline those overheads are compared against.)

use cobalt_bench::{bench_program, SIZES};
use cobalt_dsl::LabelEnv;
use cobalt_engine::{AnalyzedProc, Engine, OptimizeSession};
use cobalt_support::bench::{Bench, BenchId, Throughput};
use cobalt_support::{bench_group, bench_main};

fn bench_single_pass_scaling(c: &mut Bench) {
    let engine = Engine::new(LabelEnv::standard());
    let const_prop = cobalt_opts::optimization("const_prop").unwrap();
    let dae = cobalt_opts::optimization("dae").unwrap();
    let mut group = c.benchmark_group("engine_scaling");
    for &n in SIZES {
        let prog = bench_program(n, 7);
        let main = prog.main().unwrap().clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchId::new("const_prop", n), &main, |b, m| {
            b.iter(|| {
                let ap = AnalyzedProc::new(m.clone()).unwrap();
                engine.apply(&ap, &const_prop).unwrap().1.len()
            })
        });
        group.bench_with_input(BenchId::new("dae", n), &main, |b, m| {
            b.iter(|| {
                let ap = AnalyzedProc::new(m.clone()).unwrap();
                engine.apply(&ap, &dae).unwrap().1.len()
            })
        });
    }
    group.finish();
}

fn bench_full_suite(c: &mut Bench) {
    let engine = Engine::new(LabelEnv::standard());
    let opts = cobalt_opts::all_optimizations();
    let analyses = cobalt_opts::all_analyses();
    let mut group = c.benchmark_group("engine_suite");
    group.sample_size(10);
    for &n in &SIZES[..3] {
        let prog = bench_program(n, 11);
        for (name, rounds) in [("one_round", 1), ("to_fixpoint", 4)] {
            group.bench_with_input(BenchId::new(name, n), &prog, |b, p| {
                b.iter(|| {
                    let mut session = OptimizeSession::new(engine.clone());
                    session.optimize_program(p, &analyses, &opts, rounds).1.applied
                })
            });
        }
    }
    group.finish();
}

fn bench_taint_analysis(c: &mut Bench) {
    let engine = Engine::new(LabelEnv::standard());
    let taint = cobalt_opts::all_analyses().remove(0);
    let mut group = c.benchmark_group("taint_analysis");
    for &n in SIZES {
        let prog = bench_program(n, 13);
        let main = prog.main().unwrap().clone();
        group.bench_with_input(BenchId::from_parameter(n), &main, |b, m| {
            b.iter(|| {
                let mut ap = AnalyzedProc::new(m.clone()).unwrap();
                engine.run_pure_analysis(&mut ap, &taint).unwrap()
            })
        });
    }
    group.finish();
}

bench_group!(
    benches,
    bench_single_pass_scaling,
    bench_full_suite,
    bench_taint_analysis
);
bench_main!(benches);
