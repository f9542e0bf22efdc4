//! The prover's search, pinned.
//!
//! Verdicts alone do not pin the search: a change to the split order or
//! the instance order can still prove every sound rule and reject the
//! §6 rule. This test replays every obligation of the registry (every
//! analysis, every sound optimization and the §6 unsound rule) through
//! `Solver::prove`, escalating through limit tiers exactly as the
//! checker does, and digests what each attempt did: its verdict, its
//! resource-limit flag, its split, instance and branch counts, and the
//! literals of its open branch. A speed change to the prover must leave
//! the digest alone.
//!
//! Each retried attempt searches again from the root; the second test
//! holds a ladder's final answer to one attempt at its last tier.

use cobalt::dsl::LabelEnv;
use cobalt::logic::{Limits, Outcome};
use cobalt::verify::{
    obligations_for_analysis_with, obligations_for_optimization_with, BankMode, Prepared,
    RetryPolicy, SemanticMeanings,
};
use cobalt_support::journal::Fnv64;

/// Digest of the whole replay under the former three-tier default
/// ladder ([`former_ladder`]); recompute it only for a change that is
/// meant to move the search.
const LADDER_DIGEST: u64 = 0x2184_09d5_b7d1_743d;

/// The same digest under [`RetryPolicy::default()`]. It equals
/// [`LADDER_DIGEST`]: no registry obligation escalates under the ladder.
const DEFAULT_DIGEST: u64 = 0x2184_09d5_b7d1_743d;

/// Limits with these counted caps and no deadline, which would make the
/// search depend on the host's speed.
fn caps(max_splits: usize, max_inst_rounds: usize, max_terms: usize) -> Limits {
    Limits {
        max_splits,
        max_inst_rounds,
        max_terms,
        deadline: None,
    }
}

/// The checker's default tiers before the default became one tier, with
/// their wall-clock deadlines dropped. Every registry obligation is
/// answered at the first tier; `a_ladder_answers_as_its_last_tier`
/// pins escalated searches under tighter ladders.
fn former_ladder() -> Vec<Limits> {
    vec![
        caps(500, 2, 50_000),
        caps(4_000, 3, 100_000),
        Limits::default(),
    ]
}

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

/// Replays the registry through `tiers`: (obligations, attempts, digest).
fn digest_registry(tiers: &[Limits]) -> (usize, usize, u64) {
    let mut h = Fnv64::new();
    let (mut obligations, mut attempts) = (0, 0);
    for (rule, p) in registry_obligations() {
        obligations += 1;
        attempts += replay(&mut h, &rule, p, tiers);
    }
    (obligations, attempts, h.finish())
}

#[test]
fn registry_search_is_pinned() {
    let (obligations, attempts, digest) = digest_registry(&former_ladder());
    assert_eq!((obligations, attempts), (278, 278));
    assert_eq!(digest, LADDER_DIGEST, "digest {digest:#018x}");
    // The default policy proves each obligation in one attempt, and
    // sets no deadline.
    let tiers = RetryPolicy::default().tiers;
    assert!(tiers.iter().all(|t| t.deadline.is_none()));
    let (obligations, attempts, digest) = digest_registry(&tiers);
    assert_eq!((obligations, attempts), (278, 278));
    assert_eq!(digest, DEFAULT_DIGEST, "digest {digest:#018x}");
}

/// What an attempt reports apart from `elapsed` and its open branch,
/// whose skolem numbers depend on what the solver minted before.
fn verdict(o: &Outcome) -> String {
    match o {
        Outcome::Proved { stats, .. } => format!("proved {stats:?}"),
        Outcome::Unknown {
            reason,
            kind,
            stats,
            ..
        } => format!("{kind:?} {reason} {stats:?}"),
    }
}

/// Escalates every registry obligation through `ladder` (split cap,
/// round cap), restarting tier by tier on one solver as the checker
/// does, and requires its final outcome to report what one attempt at
/// the ladder's last tier reports on a fresh `Prepared`. Returns how
/// many attempts stopped on the split cap, how many on the round cap,
/// and how many obligations the ladder found open after escalating.
fn ladder_against_last_tier(ladder: &[(usize, usize)]) -> (usize, usize, usize) {
    let ladder: Vec<Limits> = ladder.iter().map(|&(s, r)| caps(s, r, 200_000)).collect();
    let last = ladder.last().expect("a ladder has tiers");
    let (mut split_stops, mut round_stops, mut open_after_escalating) = (0, 0, 0);
    for ((rule, mut a), (_, mut b)) in registry_obligations()
        .into_iter()
        .zip(registry_obligations())
    {
        let mut outcome = None;
        for (tier, limits) in ladder.iter().enumerate() {
            a.solver.set_limits(limits.clone());
            let o = a.solver.prove(&a.task);
            if let Outcome::Unknown { reason, .. } = &o {
                if o.is_resource_limited() && tier + 1 < ladder.len() {
                    split_stops += usize::from(reason.starts_with("case-split limit"));
                    round_stops += usize::from(reason.starts_with("instantiation-round limit"));
                    continue;
                }
                open_after_escalating += usize::from(tier > 0 && !o.is_resource_limited());
            }
            outcome = Some(o);
            break;
        }
        let outcome = outcome.expect("the last tier always answers");
        b.solver.set_limits(last.clone());
        let once = b.solver.prove(&b.task);
        assert_eq!(verdict(&outcome), verdict(&once), "{rule} {}", a.id);
    }
    (split_stops, round_stops, open_after_escalating)
}

#[test]
fn a_ladder_answers_as_its_last_tier() {
    // Split caps low enough that more than a hundred attempts stop on
    // one, some of them twice; the §6 rule's failing obligations are
    // found open only after escalating.
    let (split_stops, _, open_after) =
        ladder_against_last_tier(&[(4, 1), (32, 2), (256, 3), (20_000, 4)]);
    assert!(
        split_stops >= 100 && open_after > 0,
        "{split_stops} {open_after}"
    );
    // No round cap stops the ladder above, so a second one starts at
    // zero rounds: its first tier stops on either cap.
    let (split_stops, round_stops, open_after) =
        ladder_against_last_tier(&[(4, 0), (32, 1), (256, 2), (20_000, 4)]);
    assert!(
        split_stops >= 50 && round_stops >= 50 && open_after > 0,
        "{split_stops} {round_stops} {open_after}"
    );
}
