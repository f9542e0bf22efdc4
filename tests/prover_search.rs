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

use cobalt::dsl::LabelEnv;
use cobalt::logic::{Limits, Outcome};
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
