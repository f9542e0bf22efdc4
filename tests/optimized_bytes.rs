//! Pins the bytes `OptimizeSession` prints for a fixed corpus.
//!
//! `scripts/verify.sh` pins how many sites, rewrites and rounds the
//! engine smoke finds, not which rewrite happens where, so a label
//! lookup that trades one rewrite for another would keep those counts.
//! This digest covers every optimized procedure's text with its
//! rewrite and round counts, at one job and at four, for two kinds of
//! program: call-free generated procedures of 160, 80 and 20 statements
//! (as the benchmark builds them), and default generated programs, whose
//! calls and pointer stores make `mayDef`/`mayUse` read the taint
//! analysis's labels.

use cobalt::dsl::LabelEnv;
use cobalt::engine::{Engine, OptimizeSession};
use cobalt::il::{generate, pretty_program, GenConfig, Proc, ProcName, Program, Stmt};
use cobalt_support::journal::Fnv64;

/// One call-free generated body of about `stmts` statements, named
/// `main`, `p1`, `p2`, … by its position `i`.
fn call_free(i: usize, stmts: usize, seed: u64) -> Proc {
    let cfg = GenConfig {
        num_helpers: 0,
        call_ratio: 0.0,
        seed,
        ..GenConfig::sized(stmts, 0)
    };
    let mut proc = generate(&cfg).procs.remove(0);
    proc.name = ProcName::new(if i == 0 {
        "main".to_string()
    } else {
        format!("p{i}")
    });
    proc
}

fn corpus() -> Vec<Program> {
    let sized = (0..4u64).map(|k| {
        let procs = [160, 80, 20].iter().enumerate();
        Program::new(
            procs
                .map(|(i, &n)| call_free(i, n, 0xb17e + 31 * k + i as u64))
                .collect(),
        )
    });
    let defaults = (0..64).map(|seed| {
        generate(&GenConfig {
            seed,
            ..GenConfig::default()
        })
    });
    sized.chain(defaults).collect()
}

#[test]
fn optimized_bytes_are_pinned() {
    let corpus = corpus();
    let stmts = || corpus.iter().flat_map(|p| &p.procs).flat_map(|q| &q.stmts);
    assert!(
        stmts().any(|s| matches!(s, Stmt::Call { .. })),
        "no call in the corpus"
    );
    assert!(stmts().any(|s| matches!(s, Stmt::Assign(cobalt::il::Lhs::Deref(_), _))));
    let (analyses, passes) = (
        cobalt::opts::all_analyses(),
        cobalt::opts::default_pipeline(),
    );
    let mut digests = Vec::new();
    for jobs in [1, 4] {
        let mut h = Fnv64::new();
        for prog in &corpus {
            let mut session =
                OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(jobs);
            let (out, report) = session.optimize_program(prog, &analyses, &passes, 3);
            assert!(!report.degraded(), "{:#?}", report.failures);
            h.write(pretty_program(&out).as_bytes());
            h.write(format!("\0applied={};rounds={}\0", report.applied, report.rounds).as_bytes());
        }
        digests.push(h.finish());
    }
    assert_eq!(digests[0], digests[1], "jobs 1 and 4 differ");
    assert_eq!(
        digests[0], 0x444e_ecd9_d0fd_4709,
        "digest {:#018x}",
        digests[0]
    );
}
