//! Hash-consed first-order terms.
//!
//! All terms live in a [`TermBank`], which interns structurally equal
//! terms to the same [`TermId`]. Function symbols are interned strings;
//! a symbol may be declared a *constructor*, in which case the solver
//! treats distinct constructors as disjoint and every constructor as
//! injective (the free-datatype theory used to model IL statements,
//! expressions, and values).
//!
//! # Layered banks
//!
//! A bank may sit on top of a frozen **base** ([`TermBank::freeze`] /
//! [`TermBank::with_base`]): lookups fall through to the base, new
//! interning lands in the overlay, and ids number continuously past the
//! base. This is how a batch of proof obligations shares one interned
//! vocabulary: the batch's encoding is frozen once, and each obligation
//! gets a cheap private overlay for search-time terms (skolems,
//! instantiation results), so parallel workers never contend on — or
//! mutate — shared state.

use cobalt_support::{FastBuildHasher, FastMap, FastSet};
use std::fmt;
use std::hash::BuildHasher;
use std::sync::Arc;

/// An interned function or variable symbol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(u32);

impl Sym {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// An interned term; indexes into its [`TermBank`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// The structure of a term.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TermData {
    /// A function application `f(t₁, …, tₙ)`; constants are nullary.
    App(Sym, Vec<TermId>),
    /// An integer literal. Distinct literals are distinct values.
    Int(i64),
    /// A free variable, used in quantified formulas and trigger
    /// patterns. Variables never appear in ground assertions.
    Var(Sym),
}

/// The arena of interned symbols and terms.
///
/// # Examples
///
/// ```
/// use cobalt_logic::TermBank;
/// let mut bank = TermBank::new();
/// let f = bank.sym("f");
/// let a = bank.app0("a");
/// let fa1 = bank.app(f, vec![a]);
/// let fa2 = bank.app(f, vec![a]);
/// assert_eq!(fa1, fa2); // hash-consed
/// ```
#[derive(Debug, Clone, Default)]
pub struct TermBank {
    /// Frozen lower layer, if this bank is an overlay. At most one
    /// level deep: a base is never itself an overlay.
    base: Option<Arc<TermBank>>,
    sym_names: Vec<String>,
    sym_memo: FastMap<String, Sym>,
    /// Every term's structure, stored once.
    terms: Vec<TermData>,
    /// The term interned last of each structure hash; the second half
    /// of its `term_info` links it to the earlier terms of that hash.
    term_memo: FastMap<u64, TermId>,
    /// Per term: `has_var`, precomputed at intern time (arguments are
    /// always interned first, so one lookup per argument suffices), and
    /// the term interned before it with the same structure hash.
    term_info: Vec<(bool, Option<TermId>)>,
    constructors: Vec<bool>,
    /// Base symbols promoted to constructors by this overlay. Rare:
    /// encoding interns constructor symbols up front, so overlays
    /// normally only add fresh ones.
    ctor_promotions: FastSet<Sym>,
}

impl TermBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        TermBank::default()
    }

    /// Freezes this bank into a shareable base layer.
    ///
    /// # Panics
    ///
    /// Panics if this bank is itself an overlay (bases are one level).
    pub fn freeze(self) -> Arc<TermBank> {
        assert!(self.base.is_none(), "cannot freeze an overlay bank");
        Arc::new(self)
    }

    /// Creates an empty overlay on top of a frozen base: every base
    /// symbol and term is visible, and new interning is private to the
    /// overlay.
    pub fn with_base(base: Arc<TermBank>) -> Self {
        assert!(base.base.is_none(), "bank bases do not nest");
        TermBank {
            base: Some(base),
            ..TermBank::default()
        }
    }

    fn base_syms(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.sym_names.len())
    }

    fn base_terms(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.terms.len())
    }

    /// Interns a symbol name.
    pub fn sym(&mut self, name: &str) -> Sym {
        if let Some(s) = self.find_sym(name) {
            return s;
        }
        let s = Sym((self.base_syms() + self.sym_names.len()) as u32);
        self.sym_names.push(name.to_string());
        self.sym_memo.insert(name.to_string(), s);
        self.constructors.push(false);
        s
    }

    /// Looks a symbol up by name without interning it.
    pub fn find_sym(&self, name: &str) -> Option<Sym> {
        if let Some(b) = &self.base {
            if let Some(&s) = b.sym_memo.get(name) {
                return Some(s);
            }
        }
        self.sym_memo.get(name).copied()
    }

    /// Interns a symbol and marks it as a constructor: the solver treats
    /// applications of distinct constructors as never equal, and every
    /// constructor as injective.
    pub fn constructor(&mut self, name: &str) -> Sym {
        let s = self.sym(name);
        let bs = self.base_syms();
        if s.idx() < bs {
            if !self.base.as_ref().expect("base symbol implies base").constructors[s.idx()] {
                self.ctor_promotions.insert(s);
            }
        } else {
            self.constructors[s.idx() - bs] = true;
        }
        s
    }

    /// Whether `s` was declared a constructor.
    pub fn is_constructor(&self, s: Sym) -> bool {
        let bs = self.base_syms();
        if s.idx() < bs {
            self.base.as_ref().expect("base symbol implies base").constructors[s.idx()]
                || (!self.ctor_promotions.is_empty() && self.ctor_promotions.contains(&s))
        } else {
            self.constructors[s.idx() - bs]
        }
    }

    /// The name of a symbol.
    pub fn sym_name(&self, s: Sym) -> &str {
        let bs = self.base_syms();
        if s.idx() < bs {
            &self.base.as_ref().expect("base symbol implies base").sym_names[s.idx()]
        } else {
            &self.sym_names[s.idx() - bs]
        }
    }

    /// The term of this layer with structure `data`, whose hash is `h`.
    fn find_term(&self, data: &TermData, h: u64) -> Option<TermId> {
        let local = |t: TermId| t.idx() - self.base_terms();
        let first = self.term_memo.get(&h).copied();
        std::iter::successors(first, |&t| self.term_info[local(t)].1)
            .find(|&t| self.terms[local(t)] == *data)
    }

    fn intern(&mut self, data: TermData) -> TermId {
        let h = FastBuildHasher::default().hash_one(&data);
        let found = self.base.as_ref().and_then(|b| b.find_term(&data, h));
        if let Some(t) = found.or_else(|| self.find_term(&data, h)) {
            return t;
        }
        let hv = match &data {
            TermData::Var(_) => true,
            TermData::Int(_) => false,
            TermData::App(_, args) => args.iter().any(|&a| self.has_var(a)),
        };
        let t = TermId((self.base_terms() + self.terms.len()) as u32);
        self.terms.push(data);
        let prev = self.term_memo.insert(h, t);
        self.term_info.push((hv, prev));
        t
    }

    /// Interns a function application.
    pub fn app(&mut self, f: Sym, args: Vec<TermId>) -> TermId {
        self.intern(TermData::App(f, args))
    }

    /// Interns a nullary application (a constant) by name.
    pub fn app0(&mut self, name: &str) -> TermId {
        let f = self.sym(name);
        self.app(f, Vec::new())
    }

    /// Interns an integer literal.
    pub fn int(&mut self, n: i64) -> TermId {
        self.intern(TermData::Int(n))
    }

    /// Interns a free variable by name.
    pub fn var(&mut self, name: &str) -> TermId {
        let s = self.sym(name);
        self.intern(TermData::Var(s))
    }

    /// The structure of a term.
    pub fn data(&self, t: TermId) -> &TermData {
        let bt = self.base_terms();
        if t.idx() < bt {
            &self.base.as_ref().expect("base term implies base").terms[t.idx()]
        } else {
            &self.terms[t.idx() - bt]
        }
    }

    /// Number of interned terms (including any base layer's).
    pub fn len(&self) -> usize {
        self.base_terms() + self.terms.len()
    }

    /// Whether the bank contains no terms.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `t` contains any [`TermData::Var`] leaf. O(1): the flag
    /// is computed once when the term is interned.
    pub fn has_var(&self, t: TermId) -> bool {
        let bt = self.base_terms();
        if t.idx() < bt {
            let base = self.base.as_ref().expect("base term implies base");
            base.term_info[t.idx()].0
        } else {
            self.term_info[t.idx() - bt].0
        }
    }

    /// Capture-free substitution of variables by terms.
    pub fn subst(&mut self, t: TermId, map: &[(Sym, TermId)]) -> TermId {
        if !self.has_var(t) {
            return t;
        }
        let arg = |bank: &Self, i: usize| match bank.data(t) {
            TermData::App(_, args) => args[i],
            TermData::Var(_) | TermData::Int(_) => unreachable!("an application"),
        };
        let (f, n) = match self.data(t) {
            TermData::Var(v) => return map.iter().find(|&&(s, _)| s == *v).map_or(t, |&(_, r)| r),
            TermData::Int(_) => return t,
            TermData::App(f, args) => (*f, args.len()),
        };
        // The argument list is copied once an argument changes.
        let mut changed: Option<Vec<TermId>> = None;
        for i in 0..n {
            let a = arg(self, i);
            let b = self.subst(a, map);
            if b != a && changed.is_none() {
                let mut args = Vec::with_capacity(n);
                args.extend((0..i).map(|j| arg(self, j)));
                changed = Some(args);
            }
            if let Some(args) = &mut changed {
                args.push(b);
            }
        }
        match changed {
            Some(args) => self.app(f, args),
            None => t,
        }
    }

    /// Renders a term as an S-expression, for diagnostics.
    pub fn display(&self, t: TermId) -> String {
        let mut out = String::new();
        self.write_term(t, &mut out);
        out
    }

    fn write_term(&self, t: TermId, out: &mut String) {
        use fmt::Write as _;
        match self.data(t) {
            TermData::Int(n) => {
                let _ = write!(out, "{n}");
            }
            TermData::Var(v) => {
                let _ = write!(out, "?{}", self.sym_name(*v));
            }
            TermData::App(f, args) => {
                if args.is_empty() {
                    let _ = write!(out, "{}", self.sym_name(*f));
                } else {
                    let _ = write!(out, "({}", self.sym_name(*f));
                    for &a in args {
                        out.push(' ');
                        self.write_term(a, out);
                    }
                    out.push(')');
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedupes() {
        let mut b = TermBank::new();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        let t1 = b.app(f, vec![x, y]);
        let t2 = b.app(f, vec![x, y]);
        let t3 = b.app(f, vec![y, x]);
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
        assert_eq!(b.int(5), b.int(5));
        assert_ne!(b.int(5), b.int(6));
    }

    #[test]
    fn constructor_flag() {
        let mut b = TermBank::new();
        let c = b.constructor("cons");
        let f = b.sym("f");
        assert!(b.is_constructor(c));
        assert!(!b.is_constructor(f));
        // Re-interning the same name preserves identity.
        assert_eq!(b.sym("cons"), c);
    }

    #[test]
    fn substitution() {
        let mut b = TermBank::new();
        let f = b.sym("f");
        let v = b.var("X");
        let a = b.app0("a");
        let t = b.app(f, vec![v, a]);
        let vsym = b.sym("X");
        let map = vec![(vsym, a)];
        let t2 = b.subst(t, &map);
        assert_eq!(b.display(t2), "(f a a)");
        // Substituting a variable not in the map is the identity.
        let w = b.var("Y");
        assert_eq!(b.subst(w, &map), w);
    }

    #[test]
    fn has_var_detection() {
        let mut b = TermBank::new();
        let f = b.sym("f");
        let v = b.var("X");
        let a = b.app0("a");
        let t = b.app(f, vec![a, v]);
        let g = b.app(f, vec![a, a]);
        assert!(b.has_var(t));
        assert!(!b.has_var(g));
    }

    #[test]
    fn display_forms() {
        let mut b = TermBank::new();
        let sel = b.sym("select");
        let m = b.app0("m");
        let k = b.int(3);
        let t = b.app(sel, vec![m, k]);
        assert_eq!(b.display(t), "(select m 3)");
    }

    #[test]
    fn overlay_sees_base_and_extends_it() {
        let mut base = TermBank::new();
        let f = base.sym("f");
        let a = base.app0("a");
        let fa = base.app(f, vec![a]);
        let n_terms = base.len();
        let frozen = base.freeze();

        let mut o1 = TermBank::with_base(frozen.clone());
        let mut o2 = TermBank::with_base(frozen);
        // Base lookups return base ids, no new interning.
        assert_eq!(o1.sym("f"), f);
        assert_eq!(o1.app0("a"), a);
        assert_eq!(o1.app(f, vec![a]), fa);
        assert_eq!(o1.len(), n_terms);
        // Fresh terms number past the base and stay private.
        let b1 = o1.app0("fresh");
        let b2 = o2.app0("other");
        assert_eq!(b1.idx(), n_terms);
        assert_eq!(b2.idx(), n_terms);
        assert_eq!(o1.display(b1), "fresh");
        assert_eq!(o2.display(b2), "other");
        // Structural operations cross the layer boundary.
        let fb = o1.app(f, vec![b1]);
        assert_eq!(o1.display(fb), "(f fresh)");
        assert!(!o1.has_var(fb));
        let v = o1.var("X");
        let fv = o1.app(f, vec![v]);
        assert!(o1.has_var(fv));
    }

    #[test]
    fn overlay_constructor_promotion() {
        let mut base = TermBank::new();
        let c = base.constructor("ctor");
        let plain = base.sym("plain");
        let frozen = base.freeze();
        let mut o = TermBank::with_base(frozen);
        assert!(o.is_constructor(c));
        assert!(!o.is_constructor(plain));
        // Promoting a base symbol in the overlay is overlay-local.
        assert_eq!(o.constructor("plain"), plain);
        assert!(o.is_constructor(plain));
        // Fresh overlay constructors work as usual.
        let fresh = o.constructor("fresh_ctor");
        assert!(o.is_constructor(fresh));
        let fresh_plain = o.sym("fresh_plain");
        assert!(!o.is_constructor(fresh_plain));
    }
}
