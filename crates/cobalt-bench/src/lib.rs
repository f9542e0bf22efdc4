//! # cobalt-bench
//!
//! The benchmark harness reproducing the evaluation of the Cobalt paper
//! (see `EXPERIMENTS.md` at the workspace root):
//!
//! * `benches/proof_times` — **E1**, the §5.1 proof-time table;
//! * `benches/engine_scaling` — **E6**, execution-engine cost vs
//!   program size;
//! * `benches/tv_vs_proof` — **E5**, one-time proof vs per-compile
//!   translation validation;
//! * `benches/prover_ablation` — ablations of the theorem prover's
//!   design choices.
//!
//! Shared workload builders live in this library crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use cobalt_il::{generate, GenConfig, ProcName, Program};

/// Deterministic benchmark programs of a given size.
pub fn bench_program(stmts: usize, seed: u64) -> Program {
    generate(&GenConfig::sized(stmts, seed))
}

/// A deterministic program of `procs` similarly-sized procedures, each
/// with `stmts_per_proc` statements — the workload for the
/// parallel-determinism and soak tests, where per-procedure fixpoints
/// are the unit of parallelism.
///
/// Each procedure is an independently generated call-free `main` body
/// (calls would dangle across the merge), renamed `main`, `p1`, `p2`, …
/// so the program still interprets from `main`.
pub fn many_proc_program(procs: usize, stmts_per_proc: usize, seed: u64) -> Program {
    let bodies = (0..procs).map(|i| {
        let cfg = GenConfig {
            num_helpers: 0,
            call_ratio: 0.0,
            seed: seed.wrapping_add(i as u64).wrapping_mul(0x9E37_79B9),
            ..GenConfig::sized(stmts_per_proc, 0)
        };
        let mut proc = generate(&cfg).procs.into_iter().next().expect("generated main");
        proc.name = ProcName::new(if i == 0 {
            "main".to_string()
        } else {
            format!("p{i}")
        });
        proc
    });
    Program::new(bodies.collect())
}

/// The standard size ladder used by the scaling benchmarks.
pub const SIZES: &[usize] = &[10, 40, 160, 640];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_programs_validate() {
        for &n in SIZES {
            cobalt_il::validate(&bench_program(n, 1)).unwrap();
        }
    }

    #[test]
    fn many_proc_programs_validate_and_are_deterministic() {
        let a = many_proc_program(8, 30, 42);
        cobalt_il::validate(&a).unwrap();
        assert_eq!(a.procs.len(), 8);
        assert!(a.main().is_some());
        let b = many_proc_program(8, 30, 42);
        assert_eq!(
            cobalt_il::pretty_program(&a),
            cobalt_il::pretty_program(&b)
        );
    }
}
