//! `Name` against its slow oracle, `String`.
//!
//! A name is stored inline up to `name::INLINE` bytes and boxed beyond,
//! yet it must compare, order, hash and print exactly as the `String`
//! with the same text: rule `Debug` text keys the engine journal, and
//! substitutions order the dataflow universe by the names they hold.
//! The strings here are ASCII or multi-byte, of 0 to 40 bytes, so both
//! sides of the inline limit are covered, and pairs are often equal or
//! share a prefix, so equality and ordering are exercised on near
//! misses.

use cobalt_support::name::Name;
use cobalt_support::{prop, prop_assert_eq, props, FastHasher};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Printable ASCII, or any character, per the flag.
fn text(ascii: &[u8], any: &[char], use_ascii: bool) -> String {
    let mut s: String = match use_ascii {
        true => ascii.iter().map(|&b| char::from(b)).collect(),
        false => any.iter().collect(),
    };
    while s.len() > 40 {
        s.pop();
    }
    s
}

/// A second string related to `a` as `how` says: equal, a prefix, an
/// extension, or unrelated.
fn related(a: &str, b: String, how: u8) -> String {
    match how {
        0 => a.to_string(),
        1 => a.chars().take(a.chars().count() / 2).collect(),
        2 => {
            let joined: Vec<char> = a.chars().chain(b.chars()).collect();
            text(&[], &joined, false)
        }
        _ => b,
    }
}

fn hash_with<H: Hasher>(mut h: H, v: &impl Hash) -> u64 {
    v.hash(&mut h);
    h.finish()
}

props! {
    config = prop::Config::with_cases(512);

    fn name_agrees_with_string(
        a in (prop::vec(32u8..127, 0..41), prop::vec(prop::any_char(), 0..41), prop::any_bool()),
        b in (prop::vec(32u8..127, 0..41), prop::vec(prop::any_char(), 0..41), prop::any_bool()),
        how in 0u8..4,
    ) {
        let sa = text(&a.0, &a.1, a.2);
        let sb = related(&sa, text(&b.0, &b.1, b.2), how);
        let (na, nb) = (Name::new(&sa), Name::new(&sb));
        prop_assert_eq!(na.as_str(), sa.as_str());
        prop_assert_eq!(na == nb, sa == sb);
        prop_assert_eq!(na.cmp(&nb), sa.cmp(&sb));
        prop_assert_eq!(na.partial_cmp(&nb), sa.partial_cmp(&sb));
        prop_assert_eq!(
            hash_with(FastHasher::default(), &na),
            hash_with(FastHasher::default(), &sa)
        );
        prop_assert_eq!(
            hash_with(DefaultHasher::new(), &na),
            hash_with(DefaultHasher::new(), &sa)
        );
        prop_assert_eq!(format!("{na}"), format!("{sa}"));
        prop_assert_eq!(format!("{na:?}"), format!("{sa:?}"));
        prop_assert_eq!(format!("{:?}", (&na, &nb)), format!("{:?}", (&sa, &sb)));
    }
}
