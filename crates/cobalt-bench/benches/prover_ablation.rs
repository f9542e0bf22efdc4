//! Ablation benchmarks for the theorem prover's design choices
//! (DESIGN.md §4): congruence-closure throughput, array case-splitting,
//! trigger-based instantiation, and the effect of the obligation
//! builders' per-shape decomposition (small vocabularies) versus a
//! monolithic vocabulary.

use cobalt_logic::{Cc, Formula, Limits, ProofTask, Solver, TermBank};
use cobalt_support::bench::{Bench, BenchId};
use cobalt_support::{bench_group, bench_main};

/// Raw congruence closure: merge a chain and let congruence propagate
/// through n layers of function applications.
fn bench_congruence_closure(c: &mut Bench) {
    let mut group = c.benchmark_group("prover/congruence");
    for &n in &[32usize, 128, 512] {
        group.bench_with_input(BenchId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut bank = TermBank::new();
                let f = bank.sym("f");
                let consts: Vec<_> = (0..n).map(|i| bank.app0(&format!("c{i}"))).collect();
                let apps: Vec<_> = consts.iter().map(|&x| bank.app(f, vec![x])).collect();
                let mut cc = Cc::new();
                for &a in &apps {
                    cc.register(a, &bank);
                }
                for w in consts.windows(2) {
                    cc.merge(w[0], w[1], &bank);
                }
                assert!(cc.are_eq(apps[0], apps[n - 1]));
            })
        });
    }
    group.finish();
}

/// Array reasoning: read-over-write chains of increasing depth force
/// one case split per layer.
fn bench_array_chains(c: &mut Bench) {
    let mut group = c.benchmark_group("prover/array_chain");
    for &depth in &[4usize, 8, 16] {
        group.bench_with_input(BenchId::from_parameter(depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut s = Solver::new();
                let m0 = s.bank.app0("m");
                let keys: Vec<_> = (0..depth).map(|i| s.bank.app0(&format!("k{i}"))).collect();
                let vals: Vec<_> = (0..depth).map(|i| s.bank.app0(&format!("v{i}"))).collect();
                let mut m = m0;
                for i in 0..depth {
                    m = s.update(m, keys[i], vals[i]);
                }
                let probe = s.bank.app0("probe");
                let read = s.select(m, probe);
                let base = s.select(m0, probe);
                // probe differs from every key ⊨ the chain is transparent.
                let hyps: Vec<Formula> =
                    keys.iter().map(|&k| Formula::ne(probe, k)).collect();
                let out = s.prove(&ProofTask {
                    hypotheses: hyps,
                    goal: Formula::Eq(read, base),
                });
                assert!(out.is_proved());
            })
        });
    }
    group.finish();
}

/// Trigger instantiation: a pointwise store-agreement hypothesis must
/// be instantiated at each of n probe locations.
fn bench_instantiation(c: &mut Bench) {
    let mut group = c.benchmark_group("prover/instantiation");
    for &n in &[4usize, 16, 64] {
        group.bench_with_input(BenchId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut s = Solver::new();
                let (m1, m2) = (s.bank.app0("m1"), s.bank.app0("m2"));
                let vsym = s.bank.sym("L");
                let v = s.bank.var("L");
                let s1 = s.select(m1, v);
                let s2 = s.select(m2, v);
                let hyp = Formula::Forall {
                    vars: vec![vsym],
                    triggers: vec![s1, s2],
                    body: Box::new(Formula::Eq(s1, s2)),
                };
                let goal = Formula::and((0..n).map(|i| {
                    let k = s.bank.app0(&format!("p{i}"));
                    let a = s.select(m1, k);
                    let b = s.select(m2, k);
                    Formula::Eq(a, b)
                }));
                let out = s.prove(&ProofTask {
                    hypotheses: vec![hyp],
                    goal,
                });
                assert!(out.is_proved());
            })
        });
    }
    group.finish();
}

/// Vocabulary-size ablation: the same F3-style VC with increasing
/// numbers of irrelevant variable constants shows why the obligation
/// builders keep per-shape vocabularies minimal (each extra pair adds
/// an injectivity disjunction, i.e. a potential case split).
fn bench_vocabulary_ablation(c: &mut Bench) {
    let mut group = c.benchmark_group("prover/vocab_ablation");
    for &extra in &[0usize, 4, 8, 12] {
        group.bench_with_input(BenchId::from_parameter(extra), &extra, |b, &extra| {
            b.iter(|| {
                let mut s = Solver::with_limits(Limits::default());
                let env = s.bank.app0("env");
                let store = s.bank.app0("store");
                let iv = s.bank.constructor("intval");
                let cc = s.bank.app0("C");
                let ivc = s.bank.app(iv, vec![cc]);
                let mut vars = vec![s.bank.app0("X"), s.bank.app0("Y")];
                for i in 0..extra {
                    vars.push(s.bank.app0(&format!("Z{i}")));
                }
                let mut hyps = Vec::new();
                // Pairwise injectivity instances, as the encoder emits.
                for i in 0..vars.len() {
                    for j in (i + 1)..vars.len() {
                        let li = s.select(env, vars[i]);
                        let lj = s.select(env, vars[j]);
                        hyps.push(Formula::or([
                            Formula::Eq(vars[i], vars[j]),
                            Formula::ne(li, lj),
                        ]));
                    }
                }
                let ly = s.select(env, vars[1]);
                let vy = s.select(store, ly);
                hyps.push(Formula::Eq(vy, ivc));
                let lx = s.select(env, vars[0]);
                let u1 = s.update(store, lx, vy);
                let u2 = s.update(store, lx, ivc);
                let lsym = s.bank.sym("l");
                let lv = s.bank.var("l");
                let r1 = s.select(u1, lv);
                let r2 = s.select(u2, lv);
                let goal = Formula::Forall {
                    vars: vec![lsym],
                    triggers: vec![r1, r2],
                    body: Box::new(Formula::Eq(r1, r2)),
                };
                let out = s.prove(&ProofTask {
                    hypotheses: hyps,
                    goal,
                });
                assert!(out.is_proved());
            })
        });
    }
    group.finish();
}

bench_group!(
    benches,
    bench_congruence_closure,
    bench_array_chains,
    bench_instantiation,
    bench_vocabulary_ablation
);
bench_main!(benches);
