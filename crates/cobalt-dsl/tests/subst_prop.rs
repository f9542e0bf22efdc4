//! `Subst` against its slow oracle, `BTreeMap<PatVar, Binding>`.
//!
//! A substitution keeps its bindings sorted in one vector, yet it must
//! bind, look up, iterate, compare, hash and print exactly as the map it
//! replaced: the engine ranks its dataflow universe by `Subst`'s order,
//! and a rule's `Debug` text, which keys the engine journal, prints the
//! substitutions inside it. Random bind scripts run against both.

use cobalt_dsl::{Binding, PatVar, Subst};
use cobalt_il::{parse_expr, ProcName, Var};
use cobalt_support::{prop, prop_assert_eq, props, FastHasher};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Pattern-variable names, one beyond the inline name limit.
const PAT_VARS: &[&str] = &["X", "Y", "C", "$Q", "E1", "I2", "LongerThanTheInlineLimit"];

fn binding(kind: u8, k: u8) -> Binding {
    let names = ["a", "b", "x", "a_variable_name_longer_than_inline"];
    let name = names[usize::from(k) % names.len()];
    match kind {
        0 => Binding::Var(Var::new(name)),
        1 => Binding::Const(i64::from(k) - 2),
        2 => Binding::Expr(parse_expr(&format!("{name} + {k}")).unwrap()),
        3 => Binding::Index(usize::from(k)),
        _ => Binding::Proc(ProcName::new(name)),
    }
}

type Oracle = BTreeMap<PatVar, Binding>;

/// Applies a bind script to both sides, requiring equal results.
fn run(script: &[(u8, u8, u8)]) -> Result<(Subst, Oracle), String> {
    let (mut subst, mut oracle) = (Subst::new(), Oracle::new());
    for &(v, kind, k) in script {
        let v = PatVar::new(PAT_VARS[usize::from(v)]);
        let b = binding(kind, k);
        let want = match oracle.get(&v) {
            Some(prev) => *prev == b,
            None => oracle.insert(v.clone(), b.clone()).is_none(),
        };
        if subst.bind(v.clone(), b.clone()) != want {
            return Err(format!("bind {v} ↦ {b} disagrees with the map"));
        }
    }
    Ok((subst, oracle))
}

fn hash_with<H: Hasher>(mut h: H, v: &impl Hash) -> u64 {
    v.hash(&mut h);
    h.finish()
}

type Script = prop::VecStrategy<(Range<u8>, Range<u8>, Range<u8>)>;

/// Up to 11 binds of (pattern variable, binding kind, fragment).
fn script() -> Script {
    prop::vec((0..PAT_VARS.len() as u8, 0u8..5, 0u8..4), 0..12)
}

props! {
    config = prop::Config::with_cases(512);

    fn subst_agrees_with_btreemap(a in script(), b in script(), shared in 0usize..12) {
        // The second script often starts like the first, so the two
        // substitutions share bindings and compare on near misses.
        let b: Vec<_> = a.iter().take(shared).chain(&b).copied().collect();
        let (sa, ma) = run(&a).map_err(prop::CaseError::fail)?;
        let (sb, mb) = run(&b).map_err(prop::CaseError::fail)?;
        for v in PAT_VARS.iter().map(|v| PatVar::new(*v)) {
            prop_assert_eq!(sa.get(&v), ma.get(&v));
            prop_assert_eq!(sa.contains(&v), ma.contains_key(&v));
        }
        prop_assert_eq!(sa.len(), ma.len());
        prop_assert_eq!(sa.iter().collect::<Vec<_>>(), ma.iter().collect::<Vec<_>>());
        prop_assert_eq!(sa == sb, ma == mb);
        prop_assert_eq!(sa.cmp(&sb), ma.cmp(&mb));
        prop_assert_eq!(sa.partial_cmp(&sb), ma.partial_cmp(&mb));
        prop_assert_eq!(
            hash_with(FastHasher::default(), &sa),
            hash_with(FastHasher::default(), &ma)
        );
        prop_assert_eq!(
            hash_with(DefaultHasher::new(), &sa),
            hash_with(DefaultHasher::new(), &ma)
        );
        prop_assert_eq!(format!("{sa:?}"), format!("{ma:?}"));
        prop_assert_eq!(format!("{sa:#?}"), format!("{ma:#?}"));
        let collected: Subst = ma.clone().into_iter().collect();
        prop_assert_eq!(collected, sa);
    }
}
