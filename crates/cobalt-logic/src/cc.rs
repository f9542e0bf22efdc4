//! Congruence closure over hash-consed terms, with disequalities and a
//! free-constructor theory.
//!
//! This is the ground decision core of the prover: a union-find over
//! [`TermId`]s with congruence propagation (Nelson–Oppen style use
//! lists), plus:
//!
//! * **disequality tracking** — asserting `a ≠ b` and later deriving
//!   `a = b` is a conflict;
//! * **constructors** — applications of distinct constructor symbols are
//!   never equal; merging two applications of the *same* constructor
//!   merges their arguments (injectivity); distinct integer literals are
//!   distinct values.

use crate::term::{Sym, TermBank, TermData, TermId};
use cobalt_support::FastMap;

/// A congruence signature: a function symbol applied to the class
/// representatives of its arguments. Two applications with the same
/// signature are equal by congruence. Inline for the common arities so
/// that registration — which re-derives signatures on every split
/// alternative after a rewind — does not allocate per application.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SigKey {
    K1(Sym, TermId),
    K2(Sym, TermId, TermId),
    K3(Sym, TermId, TermId, TermId),
    KN(Sym, Vec<TermId>),
}

/// One reversible mutation, recorded while at least one savepoint is
/// outstanding and replayed in reverse by [`Cc::restore`].
#[derive(Debug, Clone)]
enum TrailOp {
    /// A term was registered (undo: clear its membership flag; the
    /// use-list/signature/constructor entries it created are trailed
    /// individually).
    Registered(TermId),
    /// `parent[t]` was overwritten; the old value.
    Parent(TermId, TermId),
    /// `size[t]` was overwritten; the old value.
    Size(TermId, u32),
    /// A signature was inserted (signatures are never overwritten).
    SigInsert(SigKey),
    /// `moved` use-list entries went from `from`'s tail onto `to`'s.
    UseMove {
        from: TermId,
        to: TermId,
        moved: usize,
    },
    /// A term was pushed onto `root`'s use list.
    UseListPush(TermId),
    /// A disequality was watched under both its endpoint roots.
    DiseqPush(TermId, TermId),
    /// `moved` diseq-watch entries went from `from`'s tail onto `to`'s.
    DiseqMove {
        from: TermId,
        to: TermId,
        moved: usize,
    },
    /// A constructor witness was recorded for a previously witness-free
    /// class (witnesses are never overwritten).
    CtorInsert(TermId),
    /// The conflict flag was set (it was `None` before: merges stop at
    /// the first conflict).
    Conflict,
}

/// A congruence-closure context.
///
/// Cloning a `Cc` is how a caller forks independent equivalence
/// classes over the shared (append-only) [`TermBank`]. The solver's
/// tableau search instead uses the cheaper [`save`](Cc::save) /
/// [`restore`](Cc::restore) undo trail: a savepoint marks the trail,
/// every subsequent mutation is recorded, and `restore` rewinds to the
/// mark — so case splits reuse one context instead of re-closing (or
/// deep-cloning) per branch.
#[derive(Debug, Clone, Default)]
pub struct Cc {
    parent: Vec<TermId>,
    size: Vec<u32>,
    /// Terms whose use lists, signatures, and constructor witnesses
    /// have been built. Registration is *demand-driven* (see
    /// [`register`](Cc::register)): a caller working over a large
    /// shared bank registers only the terms its problem mentions, so
    /// the cost of closure tracks the problem, not the bank.
    registered: Vec<bool>,
    use_list: FastMap<TermId, Vec<TermId>>,
    sig: FastMap<SigKey, TermId>,
    /// Asserted disequalities, watched under the *current root* of each
    /// endpoint (so every disequality appears in exactly two lists —
    /// or one, with multiplicity, if the roots later coincide in a
    /// conflict). Unions re-home the dying root's watch list, so both
    /// violation checking in [`merge`](Cc::merge) and the
    /// [`are_diseq`](Cc::are_diseq) query touch only the disequalities
    /// incident to the classes involved, never the whole set.
    diseq_watch: FastMap<TermId, Vec<(TermId, TermId)>>,
    /// Per-class witness that the class contains a constructor
    /// application or integer literal, keyed by representative.
    ctor: FastMap<TermId, TermId>,
    conflict: Option<String>,
    /// Bumped on every observable state change (registration, union,
    /// disequality, rewind). Callers memoize derived results — e.g.
    /// a theory-propagation pass that came up empty — keyed on this:
    /// same version, same answers. Rewinds bump it too, so a restored
    /// state never aliases the version of the state it replaced.
    version: u64,
    trail: Vec<TrailOp>,
    saves: Vec<usize>,
}

impl Cc {
    /// Creates an empty context.
    pub fn new() -> Self {
        Cc::default()
    }

    /// Whether any savepoint is outstanding (mutations are trailed and
    /// path compression is suspended: compressing across an undone
    /// merge would corrupt restored classes).
    fn trailing(&self) -> bool {
        !self.saves.is_empty()
    }

    /// Marks a savepoint. Every mutation until the matching
    /// [`restore`](Cc::restore) is recorded on the undo trail.
    /// Savepoints nest.
    pub fn save(&mut self) {
        self.saves.push(self.trail.len());
    }

    /// Rewinds to the most recent savepoint, undoing every mutation
    /// (merges, registrations, disequalities, a derived conflict) since.
    ///
    /// # Panics
    ///
    /// Panics if no savepoint is outstanding.
    pub fn restore(&mut self) {
        let mark = self.saves.pop().expect("restore without a matching save");
        self.version += 1;
        while self.trail.len() > mark {
            match self.trail.pop().expect("len checked") {
                TrailOp::Registered(t) => {
                    self.registered[t.idx()] = false;
                }
                TrailOp::Parent(t, old) => self.parent[t.idx()] = old,
                TrailOp::Size(t, old) => self.size[t.idx()] = old,
                TrailOp::SigInsert(key) => {
                    self.sig.remove(&key);
                }
                TrailOp::UseMove { from, to, moved } => {
                    if moved > 0 {
                        let dst = self
                            .use_list
                            .get_mut(&to)
                            .expect("use-move target list present");
                        let tail = dst.split_off(dst.len() - moved);
                        self.use_list.insert(from, tail);
                    }
                }
                TrailOp::UseListPush(root) => {
                    self.use_list
                        .get_mut(&root)
                        .expect("pushed use list present")
                        .pop();
                }
                TrailOp::CtorInsert(t) => {
                    self.ctor.remove(&t);
                }
                TrailOp::DiseqPush(ra, rb) => {
                    self.diseq_watch
                        .get_mut(&ra)
                        .expect("watched diseq list present")
                        .pop();
                    self.diseq_watch
                        .get_mut(&rb)
                        .expect("watched diseq list present")
                        .pop();
                }
                TrailOp::DiseqMove { from, to, moved } => {
                    if moved > 0 {
                        let dst = self
                            .diseq_watch
                            .get_mut(&to)
                            .expect("diseq-move target list present");
                        let tail = dst.split_off(dst.len() - moved);
                        self.diseq_watch.insert(from, tail);
                    }
                }
                TrailOp::Conflict => self.conflict = None,
            }
        }
    }

    /// Pops every outstanding savepoint, rewinding to the state before
    /// the first [`save`](Cc::save). Convenient when a search unwinds
    /// through several nested splits at once.
    pub fn restore_all(&mut self) {
        while self.trailing() {
            self.restore();
        }
    }

    /// The state-change counter (see the `version` field): any two
    /// observably different states of this context report different
    /// versions, so equal versions mean cached query results are still
    /// valid.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether a contradiction has been derived.
    pub fn in_conflict(&self) -> bool {
        self.conflict.is_some()
    }

    /// Description of the contradiction, if any.
    pub fn conflict(&self) -> Option<&str> {
        self.conflict.as_deref()
    }

    /// Grows the union-find arrays to cover every bank term, with fresh
    /// terms as their own (singleton) classes. Idempotent and never
    /// trailed: identity *is* the virgin state, so stale capacity left
    /// behind by a rewind is harmless.
    ///
    /// Must be called after any batch of term creation and before
    /// registering or merging the new terms.
    pub fn ensure(&mut self, bank: &TermBank) {
        let n = bank.len();
        if self.parent.len() < n {
            self.parent.extend((self.parent.len()..n).map(|i| TermId(i as u32)));
            self.size.resize(n, 1);
            self.registered.resize(n, false);
        }
    }

    /// Registers `t` and (recursively) its subterms: builds their use
    /// lists, signatures, and constructor witnesses, propagating any
    /// congruences that fall out.
    ///
    /// Registration is demand-driven so that closure over a large
    /// shared bank costs only the terms the caller actually mentions;
    /// unregistered terms still answer [`find`](Cc::find) queries as
    /// their own singleton classes. Congruence closure is conservative
    /// — extra terms never add equalities among existing ones — so the
    /// equivalence relation over the registered set is the same as if
    /// the whole bank had been registered.
    ///
    /// Call [`ensure`](Cc::ensure) first after minting new terms.
    pub fn register(&mut self, t: TermId, bank: &TermBank) {
        if self.registered[t.idx()] {
            return;
        }
        self.version += 1;
        self.registered[t.idx()] = true;
        if self.trailing() {
            self.trail.push(TrailOp::Registered(t));
        }
        match bank.data(t) {
            TermData::App(f, args) => {
                let f = *f;
                for &a in args {
                    self.register(a, bank);
                }
                for &a in args {
                    let ra = self.find(a);
                    self.use_list.entry(ra).or_default().push(t);
                    if self.trailing() {
                        self.trail.push(TrailOp::UseListPush(ra));
                    }
                }
                if bank.is_constructor(f) {
                    self.ctor.insert(t, t);
                    if self.trailing() {
                        self.trail.push(TrailOp::CtorInsert(t));
                    }
                }
                let key = self.sig_key(f, args);
                if let Some(&q) = self.sig.get(&key) {
                    self.merge(t, q, bank);
                } else {
                    if self.trailing() {
                        self.trail.push(TrailOp::SigInsert(key.clone()));
                    }
                    self.sig.insert(key, t);
                }
            }
            TermData::Int(_) => {
                self.ctor.insert(t, t);
                if self.trailing() {
                    self.trail.push(TrailOp::CtorInsert(t));
                }
            }
            TermData::Var(_) => {}
        }
    }

    /// The congruence signature of `f` applied to `args`, with each
    /// argument resolved to its current class representative.
    fn sig_key(&mut self, f: Sym, args: &[TermId]) -> SigKey {
        match *args {
            [a] => SigKey::K1(f, self.find(a)),
            [a, b] => SigKey::K2(f, self.find(a), self.find(b)),
            [a, b, c] => SigKey::K3(f, self.find(a), self.find(b), self.find(c)),
            _ => SigKey::KN(f, args.iter().map(|&t| self.find(t)).collect()),
        }
    }

    /// The class representative of `t`, with path compression (skipped
    /// while a savepoint is outstanding — compressed pointers must not
    /// outlive the merges they shortcut).
    pub fn find(&mut self, t: TermId) -> TermId {
        // Terms minted since the last `ensure` are necessarily unmerged:
        // their class is the identity.
        if t.idx() >= self.parent.len() {
            return t;
        }
        let mut root = t;
        while self.parent[root.idx()] != root {
            root = self.parent[root.idx()];
        }
        if self.saves.is_empty() {
            let mut cur = t;
            while self.parent[cur.idx()] != root {
                let next = self.parent[cur.idx()];
                self.parent[cur.idx()] = root;
                cur = next;
            }
        }
        root
    }

    /// Whether `a` and `b` are known equal.
    pub fn are_eq(&mut self, a: TermId, b: TermId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Whether `a ≠ b` is known, either from an asserted disequality or
    /// from the constructor theory.
    pub fn are_diseq(&mut self, a: TermId, b: TermId, bank: &TermBank) -> bool {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return false;
        }
        // Watched by current root: only disequalities incident to `a`'s
        // class can separate the pair.
        let n = self.diseq_watch.get(&ra).map_or(0, Vec::len);
        for i in 0..n {
            let (x, y) = self.diseq_watch[&ra][i];
            let (rx, ry) = (self.find(x), self.find(y));
            if (rx, ry) == (ra, rb) || (rx, ry) == (rb, ra) {
                return true;
            }
        }
        if let (Some(&ca), Some(&cb)) = (self.ctor.get(&ra), self.ctor.get(&rb)) {
            return match ctor_clash(bank, ca, cb) {
                Some(CtorRel::Clash(_)) => true,
                Some(CtorRel::SameCtor) => {
                    // Injectivity: same-constructor applications are
                    // distinct exactly when some argument pair is.
                    match (bank.data(ca).clone(), bank.data(cb).clone()) {
                        (TermData::App(_, ax), TermData::App(_, ay)) => ax
                            .into_iter()
                            .zip(ay)
                            .any(|(x, y)| self.are_diseq(x, y, bank)),
                        _ => false,
                    }
                }
                None => false,
            };
        }
        false
    }

    /// Asserts `a = b`, propagating congruences, injectivity, and
    /// checking disequalities and constructor disjointness.
    ///
    /// On contradiction the context enters the conflict state (see
    /// [`in_conflict`](Self::in_conflict)); further operations are
    /// harmless no-ops.
    pub fn merge(&mut self, a: TermId, b: TermId, bank: &TermBank) {
        if self.conflict.is_some() {
            return;
        }
        let mut pending = vec![(a, b)];
        while let Some((x, y)) = pending.pop() {
            if self.conflict.is_some() {
                return;
            }
            let mut rx = self.find(x);
            let mut ry = self.find(y);
            if rx == ry {
                continue;
            }
            // Union by size: ry joins rx.
            if self.size[rx.idx()] < self.size[ry.idx()] {
                std::mem::swap(&mut rx, &mut ry);
            }
            // Constructor theory.
            match (self.ctor.get(&rx).copied(), self.ctor.get(&ry).copied()) {
                (Some(cx), Some(cy)) => match ctor_clash(bank, cx, cy) {
                    Some(CtorRel::SameCtor) => {
                        if let (TermData::App(_, ax), TermData::App(_, ay)) =
                            (bank.data(cx).clone(), bank.data(cy).clone())
                        {
                            pending.extend(ax.into_iter().zip(ay));
                        }
                    }
                    Some(CtorRel::Clash(msg)) => {
                        if self.trailing() {
                            self.trail.push(TrailOp::Conflict);
                        }
                        self.version += 1;
                        self.conflict = Some(msg);
                        return;
                    }
                    None => {}
                },
                (None, Some(cy)) => {
                    self.ctor.insert(rx, cy);
                    if self.trailing() {
                        self.trail.push(TrailOp::CtorInsert(rx));
                    }
                }
                _ => {}
            }
            if self.trailing() {
                self.trail.push(TrailOp::Parent(ry, self.parent[ry.idx()]));
                self.trail.push(TrailOp::Size(rx, self.size[rx.idx()]));
            }
            self.version += 1;
            self.parent[ry.idx()] = rx;
            self.size[rx.idx()] += self.size[ry.idx()];
            // Re-normalize signatures of applications that used ry.
            let moved = self.use_list.remove(&ry).unwrap_or_default();
            for p in &moved {
                let (f, args) = match bank.data(*p) {
                    TermData::App(f, args) => (*f, args),
                    _ => continue,
                };
                let key = self.sig_key(f, args);
                match self.sig.get(&key) {
                    Some(&q) => {
                        if self.find(q) != self.find(*p) {
                            pending.push((*p, q));
                        }
                    }
                    None => {
                        if self.trailing() {
                            self.trail.push(TrailOp::SigInsert(key.clone()));
                        }
                        self.sig.insert(key, *p);
                    }
                }
            }
            if self.trailing() {
                self.trail.push(TrailOp::UseMove {
                    from: ry,
                    to: rx,
                    moved: moved.len(),
                });
            }
            self.use_list.entry(rx).or_default().extend(moved);
            // Re-home ry's watched disequalities onto rx. Only the moved
            // entries can be newly violated: a violation means both
            // endpoints now share a root, which requires one of them to
            // have been rooted at the dying class ry.
            let moved_d = self.diseq_watch.remove(&ry).unwrap_or_default();
            if self.trailing() {
                self.trail.push(TrailOp::DiseqMove {
                    from: ry,
                    to: rx,
                    moved: moved_d.len(),
                });
            }
            self.diseq_watch
                .entry(rx)
                .or_default()
                .extend(moved_d.iter().copied());
            for &(u, v) in &moved_d {
                if self.find(u) == self.find(v) {
                    if self.trailing() {
                        self.trail.push(TrailOp::Conflict);
                    }
                    self.version += 1;
                    self.conflict = Some(format!(
                        "asserted disequality violated: {} = {}",
                        bank.display(u),
                        bank.display(v)
                    ));
                    return;
                }
            }
        }
    }

    /// Asserts `a ≠ b`.
    ///
    /// Conflicts immediately if `a = b` is already known.
    pub fn assert_diseq(&mut self, a: TermId, b: TermId, bank: &TermBank) {
        if self.conflict.is_some() {
            return;
        }
        if self.are_eq(a, b) {
            if self.trailing() {
                self.trail.push(TrailOp::Conflict);
            }
            self.conflict = Some(format!(
                "disequality {} ≠ {} contradicts known equality",
                bank.display(a),
                bank.display(b)
            ));
            return;
        }
        let (ra, rb) = (self.find(a), self.find(b));
        self.version += 1;
        self.diseq_watch.entry(ra).or_default().push((a, b));
        self.diseq_watch.entry(rb).or_default().push((a, b));
        if self.trailing() {
            self.trail.push(TrailOp::DiseqPush(ra, rb));
        }
    }

    /// The constructor application or integer literal known to be in
    /// `t`'s class, if any.
    pub fn ctor_of(&mut self, t: TermId) -> Option<TermId> {
        let r = self.find(t);
        self.ctor.get(&r).copied()
    }
}

#[derive(Debug, PartialEq, Eq)]
enum CtorRel {
    SameCtor,
    Clash(String),
}

/// Classifies the relationship between two constructor witnesses.
fn ctor_clash(bank: &TermBank, a: TermId, b: TermId) -> Option<CtorRel> {
    match (bank.data(a), bank.data(b)) {
        (TermData::Int(m), TermData::Int(n)) => {
            if m == n {
                None
            } else {
                Some(CtorRel::Clash(format!("distinct integers {m} and {n}")))
            }
        }
        (TermData::Int(n), TermData::App(f, _)) | (TermData::App(f, _), TermData::Int(n)) => {
            Some(CtorRel::Clash(format!(
                "integer {n} vs constructor {}",
                bank.sym_name(*f)
            )))
        }
        (TermData::App(f, _), TermData::App(g, _)) => {
            if f == g {
                Some(CtorRel::SameCtor)
            } else {
                Some(CtorRel::Clash(format!(
                    "distinct constructors {} and {}",
                    bank.sym_name(*f),
                    bank.sym_name(*g)
                )))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (TermBank, Cc) {
        (TermBank::new(), Cc::new())
    }

    /// Grows `cc` over the bank and registers `terms` (with their
    /// subterms): the path the solver runs.
    fn register(cc: &mut Cc, b: &TermBank, terms: &[TermId]) {
        cc.ensure(b);
        for &t in terms {
            cc.register(t, b);
        }
    }

    #[test]
    fn transitivity() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        let z = b.app0("z");
        register(&mut cc, &b, &[x, y, z]);
        cc.merge(x, y, &b);
        cc.merge(y, z, &b);
        assert!(cc.are_eq(x, z));
    }

    #[test]
    fn congruence_propagates() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        register(&mut cc, &b, &[fx, fy]);
        assert!(!cc.are_eq(fx, fy));
        cc.merge(x, y, &b);
        assert!(cc.are_eq(fx, fy));
    }

    #[test]
    fn congruence_on_terms_created_after_merge() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        register(&mut cc, &b, &[x, y]);
        cc.merge(x, y, &b);
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        register(&mut cc, &b, &[fx, fy]);
        assert!(cc.are_eq(fx, fy));
    }

    #[test]
    fn nested_congruence() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let g = b.sym("g");
        let x = b.app0("x");
        let y = b.app0("y");
        let gx = b.app(g, vec![x]);
        let gy = b.app(g, vec![y]);
        let fgx = b.app(f, vec![gx]);
        let fgy = b.app(f, vec![gy]);
        register(&mut cc, &b, &[fgx, fgy]);
        cc.merge(x, y, &b);
        assert!(cc.are_eq(fgx, fgy));
    }

    #[test]
    fn diseq_conflict() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        let z = b.app0("z");
        register(&mut cc, &b, &[x, y, z]);
        cc.assert_diseq(x, z, &b);
        assert!(!cc.in_conflict());
        cc.merge(x, y, &b);
        assert!(!cc.in_conflict());
        cc.merge(y, z, &b);
        assert!(cc.in_conflict());
    }

    #[test]
    fn distinct_int_literals_conflict() {
        let (mut b, mut cc) = setup();
        let one = b.int(1);
        let two = b.int(2);
        let x = b.app0("x");
        register(&mut cc, &b, &[one, two, x]);
        cc.merge(x, one, &b);
        cc.merge(x, two, &b);
        assert!(cc.in_conflict());
    }

    #[test]
    fn distinct_constructors_conflict() {
        let (mut b, mut cc) = setup();
        let skip = b.constructor("skip");
        let decl = b.constructor("decl");
        let x = b.app0("x");
        let s = b.app(skip, vec![]);
        let d = b.app(decl, vec![x]);
        register(&mut cc, &b, &[s, d]);
        cc.merge(s, d, &b);
        assert!(cc.in_conflict());
    }

    #[test]
    fn constructor_injectivity() {
        let (mut b, mut cc) = setup();
        let pair = b.constructor("pair");
        let (x, y, u, v) = (b.app0("x"), b.app0("y"), b.app0("u"), b.app0("v"));
        let p1 = b.app(pair, vec![x, y]);
        let p2 = b.app(pair, vec![u, v]);
        register(&mut cc, &b, &[p1, p2]);
        cc.merge(p1, p2, &b);
        assert!(!cc.in_conflict());
        assert!(cc.are_eq(x, u));
        assert!(cc.are_eq(y, v));
    }

    #[test]
    fn injectivity_can_conflict_transitively() {
        let (mut b, mut cc) = setup();
        let c = b.constructor("c");
        let one = b.int(1);
        let two = b.int(2);
        let c1 = b.app(c, vec![one]);
        let c2 = b.app(c, vec![two]);
        register(&mut cc, &b, &[c1, c2]);
        cc.merge(c1, c2, &b);
        assert!(cc.in_conflict());
    }

    #[test]
    fn are_diseq_via_constructors() {
        let (mut b, mut cc) = setup();
        let skip = b.constructor("skip");
        let decl = b.constructor("decl");
        let x = b.app0("x");
        let s = b.app(skip, vec![]);
        let d = b.app(decl, vec![x]);
        let c = b.app0("cur");
        register(&mut cc, &b, &[s, d, c]);
        cc.merge(c, s, &b);
        assert!(cc.are_diseq(c, d, &b));
        let one = b.int(1);
        let zero = b.int(0);
        register(&mut cc, &b, &[one, zero]);
        assert!(cc.are_diseq(one, zero, &b));
    }

    #[test]
    fn injectivity_propagates_into_are_diseq() {
        // locval(a) ≠ locval(b) follows from a ≠ b without a case
        // split, because constructors are injective.
        let (mut b, mut cc) = setup();
        let locval = b.constructor("locval");
        let (x, y) = (b.app0("x"), b.app0("y"));
        let lx = b.app(locval, vec![x]);
        let ly = b.app(locval, vec![y]);
        register(&mut cc, &b, &[lx, ly]);
        assert!(!cc.are_diseq(lx, ly, &b));
        cc.assert_diseq(x, y, &b);
        assert!(cc.are_diseq(lx, ly, &b));
        // Nested: locval(locval(x)) vs locval(locval(y)).
        let llx = b.app(locval, vec![lx]);
        let lly = b.app(locval, vec![ly]);
        register(&mut cc, &b, &[llx, lly]);
        assert!(cc.are_diseq(llx, lly, &b));
    }

    #[test]
    fn clone_isolates_branches() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        register(&mut cc, &b, &[x, y]);
        let mut branch = cc.clone();
        branch.merge(x, y, &b);
        assert!(branch.are_eq(x, y));
        assert!(!cc.are_eq(x, y));
    }

    #[test]
    fn save_restore_undoes_merges() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        register(&mut cc, &b, &[fx, fy]);
        cc.save();
        cc.merge(x, y, &b);
        assert!(cc.are_eq(x, y));
        assert!(cc.are_eq(fx, fy));
        cc.restore();
        assert!(!cc.are_eq(x, y));
        assert!(!cc.are_eq(fx, fy));
        // The context is fully reusable after the rewind.
        cc.merge(x, y, &b);
        assert!(cc.are_eq(fx, fy));
    }

    #[test]
    fn save_restore_undoes_syncs() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        register(&mut cc, &b, &[x, y]);
        cc.merge(x, y, &b);
        cc.save();
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        register(&mut cc, &b, &[fx, fy]);
        assert!(cc.are_eq(fx, fy));
        cc.restore();
        // fx/fy were deregistered; registering them again re-derives
        // the congruence from the surviving x = y merge.
        register(&mut cc, &b, &[fx, fy]);
        assert!(cc.are_eq(fx, fy));
        assert!(cc.are_eq(x, y));
    }

    #[test]
    fn demand_registration_tracks_the_problem_not_the_bank() {
        // Registering only the terms a problem mentions yields the same
        // equivalence relation over them as registering the whole bank,
        // while foreign terms stay untouched singleton classes.
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let g = b.sym("g");
        let x = b.app0("x");
        let y = b.app0("y");
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        let gx = b.app(g, vec![x]);
        let gy = b.app(g, vec![y]);
        cc.ensure(&b);
        cc.register(fx, &b);
        cc.register(fy, &b);
        cc.merge(x, y, &b);
        assert!(cc.are_eq(fx, fy));
        // gx/gy were never registered: no use lists, no congruence, and
        // find answers identity for them.
        assert_eq!(cc.find(gx), gx);
        assert!(!cc.are_eq(gx, gy));
        // Late registration catches up on the standing merge.
        cc.register(gx, &b);
        cc.register(gy, &b);
        assert!(cc.are_eq(gx, gy));
    }

    #[test]
    fn find_is_identity_beyond_ensure() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        cc.ensure(&b);
        cc.register(x, &b);
        let late = b.app0("late");
        // Minted after the last `ensure`: still a valid singleton query.
        assert_eq!(cc.find(late), late);
        assert!(!cc.are_eq(x, late));
    }

    #[test]
    fn save_restore_undoes_demand_registration() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        cc.ensure(&b);
        cc.register(x, &b);
        cc.register(y, &b);
        cc.merge(x, y, &b);
        cc.save();
        cc.register(fx, &b);
        cc.register(fy, &b);
        assert!(cc.are_eq(fx, fy));
        cc.restore();
        // fx/fy were deregistered; re-registering re-derives the
        // congruence from the surviving x = y merge.
        assert!(!cc.are_eq(fx, fy));
        cc.register(fx, &b);
        cc.register(fy, &b);
        assert!(cc.are_eq(fx, fy));
        assert!(cc.are_eq(x, y));
    }

    #[test]
    fn save_restore_undoes_diseqs_and_conflicts() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        register(&mut cc, &b, &[x, y]);
        cc.save();
        cc.assert_diseq(x, y, &b);
        cc.merge(x, y, &b);
        assert!(cc.in_conflict());
        cc.restore();
        assert!(!cc.in_conflict());
        assert!(!cc.are_eq(x, y));
        assert!(!cc.are_diseq(x, y, &b));
        cc.merge(x, y, &b);
        assert!(cc.are_eq(x, y));
        assert!(!cc.in_conflict());
    }

    #[test]
    fn save_restore_undoes_ctor_conflict() {
        let (mut b, mut cc) = setup();
        let one = b.int(1);
        let two = b.int(2);
        let x = b.app0("x");
        register(&mut cc, &b, &[one, two, x]);
        cc.merge(x, one, &b);
        cc.save();
        cc.merge(x, two, &b);
        assert!(cc.in_conflict());
        cc.restore();
        assert!(!cc.in_conflict());
        assert!(cc.are_eq(x, one));
        assert_eq!(cc.ctor_of(x), Some(one));
    }

    #[test]
    fn nested_savepoints_rewind_in_order() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        let z = b.app0("z");
        register(&mut cc, &b, &[x, y, z]);
        cc.save();
        cc.merge(x, y, &b);
        cc.save();
        cc.merge(y, z, &b);
        assert!(cc.are_eq(x, z));
        cc.restore();
        assert!(cc.are_eq(x, y));
        assert!(!cc.are_eq(x, z));
        cc.restore();
        assert!(!cc.are_eq(x, y));
    }

    #[test]
    fn restore_all_pops_every_savepoint() {
        let (mut b, mut cc) = setup();
        let x = b.app0("x");
        let y = b.app0("y");
        let z = b.app0("z");
        register(&mut cc, &b, &[x, y, z]);
        cc.save();
        cc.merge(x, y, &b);
        cc.save();
        cc.merge(y, z, &b);
        cc.save();
        cc.assert_diseq(x, z, &b);
        assert!(cc.in_conflict());
        cc.restore_all();
        assert!(!cc.in_conflict());
        assert!(!cc.are_eq(x, y));
        assert!(!cc.are_eq(y, z));
        // After restore_all the trail is quiescent: path compression is
        // legal again and mutations are permanent.
        cc.merge(x, z, &b);
        assert!(cc.are_eq(x, z));
    }

    #[test]
    fn save_restore_matches_clone_semantics() {
        // Trail-based rewind and the clone-per-branch scheme must agree
        // on every query, since the solver switched from the latter to
        // the former.
        let (mut b, mut cc) = setup();
        let pair = b.constructor("pair");
        let (x, y, u, v) = (b.app0("x"), b.app0("y"), b.app0("u"), b.app0("v"));
        let p1 = b.app(pair, vec![x, y]);
        let p2 = b.app(pair, vec![u, v]);
        register(&mut cc, &b, &[p1, p2]);
        let mut cloned = cc.clone();
        cloned.merge(p1, p2, &b);
        cc.save();
        cc.merge(p1, p2, &b);
        for &(s, t) in &[(x, u), (y, v), (p1, p2), (x, y)] {
            assert_eq!(cc.are_eq(s, t), cloned.are_eq(s, t));
            assert_eq!(cc.are_diseq(s, t, &b), cloned.are_diseq(s, t, &b));
        }
        cc.restore();
        assert!(!cc.are_eq(x, u));
        assert!(!cc.are_eq(p1, p2));
    }

    #[test]
    fn conflict_is_sticky_and_safe() {
        let (mut b, mut cc) = setup();
        let one = b.int(1);
        let two = b.int(2);
        register(&mut cc, &b, &[one, two]);
        cc.merge(one, two, &b);
        assert!(cc.in_conflict());
        let x = b.app0("x");
        register(&mut cc, &b, &[x]);
        cc.merge(x, one, &b);
        cc.assert_diseq(x, two, &b);
        assert!(cc.in_conflict());
        assert!(cc.conflict().is_some());
    }
}
