//! An immutable name, stored inline when short.
//!
//! Guard evaluation clones variable, procedure, pattern-variable and
//! label names at every step, so a name owning a heap `String` costs an
//! allocation per clone. A [`Name`] of up to [`INLINE`] bytes lives in
//! the value itself; a longer one is boxed. Equality, order, hashing,
//! `Display` and `Debug` are those of the `String` with the same text:
//! rule `Debug` text keys the engine journal, and substitutions order
//! the engine's dataflow universe by the names they hold.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// The longest name kept inline.
pub const INLINE: usize = 22;

/// An immutable name; see the [module docs](self).
#[derive(Clone, PartialEq, Eq)]
pub struct Name(Repr);

/// Inline iff at most [`INLINE`] bytes long, with the unused bytes zero,
/// so that the derived equality is the equality of the text.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, bytes: [u8; INLINE] },
    Boxed(Box<str>),
}

impl Name {
    /// A name with the text `s`.
    pub fn new(s: &str) -> Self {
        if s.len() > INLINE {
            return Name(Repr::Boxed(s.into()));
        }
        let mut bytes = [0; INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Name(Repr::Inline {
            len: s.len() as u8,
            bytes,
        })
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("built from a str")
    }

    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Boxed(s) => s.as_bytes(),
        }
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_sides_of_the_inline_limit_keep_their_text() {
        for len in [0, 1, INLINE - 1, INLINE, INLINE + 1, 40] {
            let s = "é".repeat(len / 2) + &"x".repeat(len % 2);
            let n = Name::new(&s);
            assert_eq!(n.as_str(), s);
            assert_eq!(matches!(n.0, Repr::Inline { .. }), s.len() <= INLINE);
        }
    }

    #[test]
    fn a_name_is_no_larger_than_a_string() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
    }
}
