//! The prover's search, pinned.
//!
//! Verdicts alone do not pin the search: a change to the split order or
//! the instance order can still prove every sound rule and reject the
//! §6 rule. This test replays every obligation of the registry (every
//! analysis, every sound optimization and the §6 unsound rule) through
//! `Solver::prove` under the default retry tiers, exactly as the checker
//! escalates, and digests what each attempt did: its verdict, its
//! resource-limit flag, its split, instance and branch counts, and the
//! literals of its open branch. A speed change to the prover must leave
//! the digest alone.
//!
//! A retried attempt on the same solver resumes the search where the
//! last tier stopped; the second test holds every such attempt to what
//! a restart from the root reports.

use cobalt::dsl::LabelEnv;
use cobalt::logic::{Formula, Limits, Outcome, ProofTask};
use cobalt::verify::{
    obligations_for_analysis_with, obligations_for_optimization_with, BankMode, Prepared,
    RetryPolicy, SemanticMeanings,
};
use cobalt_support::journal::Fnv64;

/// Digest of the whole replay; recompute it only for a change that is
/// meant to move the search.
const SEARCH_DIGEST: u64 = 0xd542_12a3_0b71_2a38;

/// Escalates one obligation through `tiers` the way the checker does:
/// the same solver, a new limit per tier, until an attempt is not
/// resource-limited. Feeds one line per attempt into `h` and returns
/// how many attempts it took.
fn replay(h: &mut Fnv64, rule: &str, mut p: Prepared, tiers: &[Limits]) -> usize {
    let mut attempts = 0;
    for (tier, limits) in tiers.iter().enumerate() {
        attempts += 1;
        p.solver.set_limits(limits.clone());
        let outcome = p.solver.prove(&p.task);
        let s = outcome.stats();
        let mut line = format!(
            "{rule}\t{}\t{tier}\t{}\t{}\t{}\t{}\t{}",
            p.id,
            outcome.is_proved(),
            outcome.is_resource_limited(),
            s.splits,
            s.instances,
            s.branches
        );
        if let Outcome::Unknown { open_branch, .. } = &outcome {
            for lit in open_branch {
                line.push('\t');
                line.push_str(lit);
            }
        }
        line.push('\n');
        h.write(line.as_bytes());
        if !outcome.is_resource_limited() {
            break;
        }
    }
    attempts
}

#[test]
fn registry_search_is_pinned() {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    // The counted caps (splits, rounds, terms) stay; the wall-clock
    // deadlines go, so the digest is a function of the obligations and
    // not of the host's speed.
    let tiers: Vec<Limits> = RetryPolicy::default()
        .tiers
        .into_iter()
        .map(|l| Limits {
            deadline: None,
            ..l
        })
        .collect();
    let mut h = Fnv64::new();
    let (mut obligations, mut attempts) = (0, 0);
    let mut run = |h: &mut Fnv64, rule: &str, prepared: Vec<Prepared>| {
        for p in prepared {
            obligations += 1;
            attempts += replay(h, rule, p, &tiers);
        }
    };
    for a in cobalt::opts::all_analyses() {
        let prepared =
            obligations_for_analysis_with(&a, &env, &meanings, BankMode::default()).unwrap();
        run(&mut h, &a.name, prepared);
    }
    let section6 = cobalt::opts::buggy_optimizations()
        .into_iter()
        .next()
        .expect("the registry has the §6 rule");
    for o in cobalt::opts::all_optimizations().iter().chain([&section6]) {
        let prepared =
            obligations_for_optimization_with(o, &env, &meanings, BankMode::default()).unwrap();
        run(&mut h, &o.name, prepared);
    }
    assert_eq!((obligations, attempts), (269, 270));
    assert_eq!(h.finish(), SEARCH_DIGEST, "digest {:#018x}", h.finish());
}

/// Every obligation of the registry and the §6 rule, prepared afresh on
/// each call, with the rule it belongs to.
fn registry_obligations() -> Vec<(String, Prepared)> {
    let env = LabelEnv::standard();
    let meanings = SemanticMeanings::standard();
    let mut out = Vec::new();
    for a in cobalt::opts::all_analyses() {
        let prepared =
            obligations_for_analysis_with(&a, &env, &meanings, BankMode::default()).unwrap();
        out.extend(prepared.into_iter().map(|p| (a.name.clone(), p)));
    }
    let section6 = cobalt::opts::buggy_optimizations()
        .into_iter()
        .next()
        .expect("the registry has the §6 rule");
    for o in cobalt::opts::all_optimizations().iter().chain([&section6]) {
        let prepared =
            obligations_for_optimization_with(o, &env, &meanings, BankMode::default()).unwrap();
        out.extend(prepared.into_iter().map(|p| (o.name.clone(), p)));
    }
    out
}

/// What an attempt reports, `elapsed` aside.
fn verdict(o: &Outcome) -> String {
    match o {
        Outcome::Proved { stats, .. } => format!("proved {stats:?}"),
        Outcome::Unknown {
            reason,
            kind,
            open_branch,
            stats,
            ..
        } => format!("{kind:?} {reason} {stats:?} {open_branch:?}"),
    }
}

/// Proves `∀V. V ≠ probe` on the obligation's solver. Refuting it
/// mints a skolem equal to `probe`, so the open branch it reports names
/// the next skolem number: what the search minted so far shows.
fn skolem_probe(p: &mut Prepared) -> Outcome {
    let bank = &mut p.solver.bank;
    let (v, var, probe) = (bank.sym("V"), bank.var("V"), bank.app0("probe"));
    p.solver.prove(&ProofTask {
        hypotheses: vec![],
        goal: Formula::Forall {
            vars: vec![v],
            triggers: vec![],
            body: Box::new(Formula::ne(var, probe)),
        },
    })
}

/// Escalates every registry obligation through `ladder` (split cap,
/// round cap) twice: A on one solver, as the checker does, so each
/// retry resumes; B with an unrelated task proved before each retry,
/// which drops B's checkpoint, so B restarts from the root. Requires the
/// same report from both at every tier, and the same skolem count after
/// the last, and returns how many attempts stopped on the split cap,
/// how many on the round cap, and how many found an open branch after
/// resuming.
fn resume_against_restart(ladder: &[(usize, usize)]) -> (usize, usize, usize) {
    let trivial = ProofTask {
        hypotheses: vec![],
        goal: Formula::True,
    };
    let (mut split_stops, mut round_stops, mut open_after_resume) = (0, 0, 0);
    for ((rule, mut a), (_, mut b)) in registry_obligations()
        .into_iter()
        .zip(registry_obligations())
    {
        for (tier, &(max_splits, max_inst_rounds)) in ladder.iter().enumerate() {
            if tier > 0 {
                assert!(b.solver.prove(&trivial).is_proved());
            }
            let limits = Limits {
                max_splits,
                max_inst_rounds,
                max_terms: 200_000,
                deadline: None,
            };
            a.solver.set_limits(limits.clone());
            b.solver.set_limits(limits);
            let (oa, ob) = (a.solver.prove(&a.task), b.solver.prove(&b.task));
            assert_eq!(verdict(&oa), verdict(&ob), "{rule} {} at tier {tier}", a.id);
            match &oa {
                Outcome::Unknown { reason, .. } if oa.is_resource_limited() => {
                    split_stops += usize::from(reason.starts_with("case-split limit"));
                    round_stops += usize::from(reason.starts_with("instantiation-round limit"));
                }
                _ => {
                    open_after_resume += usize::from(tier > 0 && !oa.is_proved());
                    break;
                }
            }
        }
        let (pa, pb) = (skolem_probe(&mut a), skolem_probe(&mut b));
        assert_eq!(
            verdict(&pa),
            verdict(&pb),
            "{rule} {}: skolems minted",
            a.id
        );
    }
    (split_stops, round_stops, open_after_resume)
}

#[test]
fn escalation_resumes_like_a_restart() {
    // Split caps low enough that 134 attempts stop on one, some of them
    // twice; the §6 rule's failing obligations are found open only
    // after resuming.
    let (split_stops, _, open_after) =
        resume_against_restart(&[(4, 1), (32, 2), (256, 3), (20_000, 4)]);
    assert!(
        split_stops >= 100 && open_after > 0,
        "{split_stops} {open_after}"
    );
    // No round cap stops the ladder above, so a second one starts at
    // zero rounds: its first tier stops on either cap.
    let (split_stops, round_stops, open_after) =
        resume_against_restart(&[(4, 0), (32, 1), (256, 2), (20_000, 4)]);
    assert!(split_stops >= 50 && round_stops >= 50 && open_after > 0);
}
