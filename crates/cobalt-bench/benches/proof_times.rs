//! Experiment E1: per-optimization soundness-proof times — the
//! reproduction of the paper's §5.1 claim ("3 to 104 seconds, with an
//! average of 28 seconds" on Simplify/2003 hardware).
//!
//! One benchmark per optimization and analysis, plus the rejection of
//! the §6 unsound rule; EXPERIMENTS.md's E1 table is these medians.
//! Obligation counts per rule are in `cobalt verify`'s summary lines.

use cobalt_dsl::LabelEnv;
use cobalt_verify::{SemanticMeanings, Verifier};
use cobalt_support::bench::Bench;
use cobalt_support::{bench_group, bench_main};

fn verifier() -> Verifier {
    Verifier::new(LabelEnv::standard(), SemanticMeanings::standard())
}

fn bench_proof_times(c: &mut Bench) {
    let v = verifier();
    let mut group = c.benchmark_group("proof_times");
    group.sample_size(10);
    for analysis in cobalt_opts::all_analyses() {
        group.bench_function(format!("analysis/{}", analysis.name), |b| {
            b.iter(|| {
                let report = v.verify_analysis(&analysis).expect("encodable");
                assert!(report.all_proved());
                report.outcomes.len()
            })
        });
    }
    for opt in cobalt_opts::all_optimizations() {
        group.bench_function(format!("opt/{}", opt.name), |b| {
            b.iter(|| {
                let report = v.verify_optimization(&opt).expect("encodable");
                assert!(report.all_proved());
                report.outcomes.len()
            })
        });
    }
    // The rejection path (paper §6): how long until the buggy variant's
    // failed obligation surfaces.
    for opt in cobalt_opts::buggy_optimizations() {
        group.bench_function(format!("reject/{}", opt.name), |b| {
            b.iter(|| {
                let report = v.verify_optimization(&opt).expect("encodable");
                assert!(!report.all_proved());
                report.failures().len()
            })
        });
    }
    group.finish();
}

bench_group!(benches, bench_proof_times);
bench_main!(benches);
