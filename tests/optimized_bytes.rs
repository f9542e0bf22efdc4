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
use cobalt::il::{
    generate, pretty_program, BaseExpr, Expr, GenConfig, Lhs, Proc, ProcName, Program, Stmt, Var,
};
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

/// Generated programs in which most statements touch pointers (`*p := …`,
/// `x := *p`, `p := new`, `p := &v`) or call, each with a diamond spliced
/// in after its declarations and pointer set-up:
///
/// ```text
/// y := c; if arg goto A else B;
/// A: p := &y; if 1 goto J else J;
/// B: *q := 1;
/// J: x := y; …the generated body…
/// ```
///
/// `notTainted(y)` holds at the store but not at the merge after it, so
/// `x := y` becomes `x := c` only if the store's `mayDef(y)` reads the
/// store's own labels; in the generated bodies the taint labels decide
/// further rewrites across stores, loads and calls.
fn label_decided() -> Vec<Program> {
    (0..24u64)
        .map(|seed| {
            let mut prog = generate(&GenConfig {
                num_vars: 12,
                num_stmts: 30,
                pointer_ratio: 0.7,
                call_ratio: 0.2,
                seed: 0x7a17 + seed,
                ..GenConfig::default()
            });
            let main = &mut prog.procs[0];
            let at = main.stmts.iter().position(|s| {
                !matches!(s, Stmt::Decl(_) | Stmt::New(_) | Stmt::Assign(_, Expr::AddrOf(_)))
            });
            let at = at.expect("a generated body");
            let taken: Vec<&Var> = (main.stmts[..at].iter())
                .filter_map(|s| match s {
                    Stmt::Assign(_, Expr::AddrOf(v)) => Some(v),
                    _ => None,
                })
                .collect();
            let y = (0..).map(|i| Var::new(format!("v{i}"))).find(|v| !taken.contains(&v));
            let (y, x) = (y.expect("an untaken scalar"), Var::new("arg"));
            let (p, q) = (Var::new("p0"), Var::new(format!("p{}", seed % 4)));
            let c = Expr::constant(seed as i64 + 2);
            let diamond = [
                Stmt::Assign(Lhs::Var(y.clone()), c),
                Stmt::If {
                    cond: BaseExpr::Var(x.clone()),
                    then_target: at + 2,
                    else_target: at + 4,
                },
                Stmt::Assign(Lhs::Var(p), Expr::AddrOf(y.clone())),
                Stmt::If {
                    cond: BaseExpr::Const(1),
                    then_target: at + 5,
                    else_target: at + 5,
                },
                Stmt::Assign(Lhs::Deref(q), Expr::constant(1)),
                Stmt::Assign(Lhs::Var(x), Expr::var(y.as_str())),
            ];
            for s in &mut main.stmts[at..] {
                if let Stmt::If {
                    then_target,
                    else_target,
                    ..
                } = s
                {
                    *then_target += diamond.len();
                    *else_target += diamond.len();
                }
            }
            main.stmts.splice(at..at, diamond);
            prog
        })
        .collect()
}

/// What `OptimizeSession` prints for each program of `corpus` at `jobs`
/// jobs, with the registry's analyses or with none.
fn optimized(corpus: &[Program], labelled: bool, jobs: usize) -> Vec<String> {
    let analyses = if labelled {
        cobalt::opts::all_analyses()
    } else {
        Vec::new()
    };
    let passes = cobalt::opts::default_pipeline();
    (corpus.iter())
        .map(|prog| {
            let mut session =
                OptimizeSession::new(Engine::new(LabelEnv::standard())).with_jobs(jobs);
            let (out, report) = session.optimize_program(prog, &analyses, &passes, 3);
            assert!(!report.degraded(), "{:#?}", report.failures);
            format!(
                "{}\0applied={};rounds={}\0",
                pretty_program(&out),
                report.applied,
                report.rounds
            )
        })
        .collect()
}

/// Pins the bytes of a corpus in which the taint labels decide rewrites,
/// at one job and at four: a label lookup that reads another node's row,
/// or a `mayDef`/`mayUse` that ignores `notTainted`, changes them. At
/// least half of the programs must optimize differently without the
/// analyses, or the corpus would not exercise the labels.
#[test]
fn label_decided_bytes_are_pinned() {
    let corpus = label_decided();
    for prog in &corpus {
        cobalt::il::validate(prog).unwrap();
    }
    let labelled = optimized(&corpus, true, 1);
    let bare = optimized(&corpus, false, 1);
    let differ = labelled.iter().zip(&bare).filter(|(a, b)| a != b).count();
    assert!(
        2 * differ >= corpus.len(),
        "labels decide only {differ} of {} programs",
        corpus.len()
    );
    assert_eq!(optimized(&corpus, true, 4), labelled, "jobs 1 and 4 differ");
    let mut h = Fnv64::new();
    for text in &labelled {
        h.write(text.as_bytes());
    }
    assert_eq!(h.finish(), 0xf775_84c5_cf58_ed80, "digest {:#018x}", h.finish());
}
