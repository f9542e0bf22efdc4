//! Pattern variables and substitutions.
//!
//! A substitution `θ` maps the pattern variables of an optimization to
//! fragments of the procedure being optimized (paper §3.2.1-§3.2.2).
//! Substitutions are the *dataflow facts* of the execution engine
//! (paper §5.2), so they are ordered and hashable.

use cobalt_il::{Expr, Name, ProcName, Var};
use std::collections::BTreeMap;
use std::fmt;

/// A pattern variable, e.g. `X`, `Y`, `C`, `E`.
///
/// By convention pattern variables are upper-case, but any name is
/// allowed; the kind of fragment a pattern variable ranges over is
/// determined by the syntactic position it occupies in a pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatVar(Name);

impl PatVar {
    /// Creates a pattern variable.
    pub fn new(name: impl AsRef<str>) -> Self {
        PatVar(Name::new(name.as_ref()))
    }

    /// The variable's name.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for PatVar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for PatVar {
    fn from(s: &str) -> Self {
        PatVar::new(s)
    }
}

/// A program fragment bound to a pattern variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Binding {
    /// A program variable.
    Var(Var),
    /// An integer constant.
    Const(i64),
    /// An expression.
    Expr(Expr),
    /// A statement index (branch target).
    Index(usize),
    /// A procedure name.
    Proc(ProcName),
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Binding::Var(v) => write!(f, "{v}"),
            Binding::Const(c) => write!(f, "{c}"),
            Binding::Expr(e) => write!(f, "{e}"),
            Binding::Index(i) => write!(f, "{i}"),
            Binding::Proc(p) => write!(f, "{p}"),
        }
    }
}

/// A substitution `θ` from pattern variables to program fragments.
///
/// Its bindings are kept sorted by pattern variable in one vector, so a
/// clone is one exact-size allocation. Equality, order, hashing and
/// `Debug` are those of the `BTreeMap<PatVar, Binding>` with the same
/// bindings (the engine ranks its dataflow universe by this order).
///
/// # Examples
///
/// ```
/// use cobalt_dsl::{Binding, Subst};
/// use cobalt_il::Var;
///
/// let mut theta = Subst::new();
/// assert!(theta.bind("Y".into(), Binding::Var(Var::new("a"))));
/// // Rebinding to the same fragment succeeds, to a different one fails.
/// assert!(theta.bind("Y".into(), Binding::Var(Var::new("a"))));
/// assert!(!theta.bind("Y".into(), Binding::Var(Var::new("b"))));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Subst(Vec<(PatVar, Binding)>);

impl Subst {
    /// The empty substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    fn find(&self, v: &PatVar) -> Result<usize, usize> {
        self.0.binary_search_by(|(p, _)| p.cmp(v))
    }

    /// Binds `v` to `b`. Returns false (leaving the substitution
    /// unchanged) if `v` is already bound to a different fragment.
    pub fn bind(&mut self, v: PatVar, b: Binding) -> bool {
        match self.find(&v) {
            Ok(k) => self.0[k].1 == b,
            Err(k) => {
                self.0.insert(k, (v, b));
                true
            }
        }
    }

    /// [`bind`](Self::bind) without building what it need not keep:
    /// when `v` is bound, `same` compares its fragment in place;
    /// otherwise `v` is bound to what `make` returns.
    pub(crate) fn bind_with(
        &mut self,
        v: &PatVar,
        same: impl FnOnce(&Binding) -> bool,
        make: impl FnOnce() -> Binding,
    ) -> bool {
        match self.find(v) {
            Ok(k) => same(&self.0[k].1),
            Err(k) => {
                self.0.insert(k, (v.clone(), make()));
                true
            }
        }
    }

    /// A copy of this substitution [bound](Self::bind) `v ↦ b`, in one
    /// exact-size allocation.
    pub(crate) fn with(&self, v: &PatVar, b: Binding) -> Subst {
        let mut out = Subst(Vec::with_capacity(self.0.len() + 1));
        out.0.extend_from_slice(&self.0);
        out.bind(v.clone(), b);
        out
    }

    /// The binding of `v`, if any.
    pub fn get(&self, v: &PatVar) -> Option<&Binding> {
        self.find(v).ok().map(|k| &self.0[k].1)
    }

    /// Whether `v` is bound.
    pub fn contains(&self, v: &PatVar) -> bool {
        self.find(v).is_ok()
    }

    /// Number of bound pattern variables.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the substitution is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates over `(pattern variable, binding)` pairs in order.
    pub fn iter(&self) -> impl Iterator<Item = (&PatVar, &Binding)> {
        self.0.iter().map(|(v, b)| (v, b))
    }

    /// Merges another substitution in; fails on any conflicting binding
    /// (leaving `self` partially extended — callers clone first).
    pub fn merge(&mut self, other: &Subst) -> bool {
        for (v, b) in other.iter() {
            if !self.bind(v.clone(), b.clone()) {
                return false;
            }
        }
        true
    }
}

impl fmt::Debug for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl fmt::Display for Subst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (v, b)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v} ↦ {b}")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<(PatVar, Binding)> for Subst {
    /// A later binding of a variable replaces an earlier one, as in a map.
    fn from_iter<T: IntoIterator<Item = (PatVar, Binding)>>(iter: T) -> Self {
        let map: BTreeMap<_, _> = iter.into_iter().collect();
        Subst(map.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_and_get() {
        let mut s = Subst::new();
        assert!(s.bind("C".into(), Binding::Const(2)));
        assert_eq!(s.get(&"C".into()), Some(&Binding::Const(2)));
        assert!(s.contains(&"C".into()));
        assert!(!s.contains(&"D".into()));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn conflicting_bind_fails() {
        let mut s = Subst::new();
        assert!(s.bind("C".into(), Binding::Const(2)));
        assert!(!s.bind("C".into(), Binding::Const(3)));
        assert_eq!(s.get(&"C".into()), Some(&Binding::Const(2)));
    }

    #[test]
    fn merge_detects_conflicts() {
        let a: Subst = [("X".into(), Binding::Const(1))].into_iter().collect();
        let b: Subst = [("Y".into(), Binding::Const(2))].into_iter().collect();
        let c: Subst = [("X".into(), Binding::Const(9))].into_iter().collect();
        let mut m = a.clone();
        assert!(m.merge(&b));
        assert_eq!(m.len(), 2);
        let mut m2 = a.clone();
        assert!(!m2.merge(&c));
    }

    #[test]
    fn display_matches_paper_notation() {
        let s: Subst = [
            ("C".into(), Binding::Const(2)),
            ("Y".into(), Binding::Var(Var::new("a"))),
        ]
        .into_iter()
        .collect();
        assert_eq!(s.to_string(), "[C ↦ 2, Y ↦ a]");
    }

    #[test]
    fn substs_are_hashable_set_members() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        let a: Subst = [("X".into(), Binding::Const(1))].into_iter().collect();
        set.insert(a.clone());
        assert!(set.contains(&a));
        let b: Subst = [("X".into(), Binding::Const(2))].into_iter().collect();
        assert!(!set.contains(&b));
    }
}
