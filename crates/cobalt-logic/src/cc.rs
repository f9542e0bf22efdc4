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

/// A term's position in [`Cc`]'s per-term state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Slot(u32);

/// A congruence signature: a function symbol applied to the classes
/// (root slots) of its arguments. Two applications with the same
/// signature are equal by congruence. Inline for the common arities so
/// that registration — which re-derives signatures on every split
/// alternative after a rewind — does not allocate per application.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum SigKey {
    K1(Sym, Slot),
    K2(Sym, Slot, Slot),
    K3(Sym, Slot, Slot, Slot),
    KN(Sym, Box<[Slot]>),
}

/// One reversible mutation, recorded while at least one savepoint is
/// outstanding and replayed in reverse by [`Cc::restore`].
#[derive(Debug, Clone)]
enum TrailOp {
    /// A term was registered (undo: clear its membership flag; the
    /// use-list/signature/constructor entries it created are trailed
    /// individually).
    Registered(Slot),
    /// A slot's parent was overwritten; the old value.
    Parent(Slot, Slot),
    /// A slot's size was overwritten; the old value.
    Size(Slot, u32),
    /// The signature of an application was inserted (signatures are
    /// never overwritten). Its key is recomputed on undo: every later
    /// mutation is undone by then, so its classes are what they were.
    SigInsert(TermId),
    /// A term was pushed onto a root's use list, whose tail was `prev`.
    UsePush { root: Slot, prev: u32 },
    /// A dying root's use list was linked after `to`'s, whose tail was
    /// `prev`.
    UseLink { to: Slot, prev: u32 },
    /// A disequality was pushed onto a root's watch list, whose tail was
    /// `prev`.
    DiseqPush { root: Slot, prev: u32 },
    /// A dying root's watch list was linked after `to`'s, whose tail
    /// was `prev`.
    DiseqLink { to: Slot, prev: u32 },
    /// A constructor witness was recorded for a witness-free class
    /// (witnesses are never overwritten).
    CtorInsert(Slot),
    /// The conflict flag was set (it was clear before: merges stop at
    /// the first conflict).
    Conflict,
}

/// No cell: the end of a list.
const NIL: u32 = u32::MAX;

/// A list of cells in a [`Cells`] arena: its first and last cell.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// An arena of singly linked list cells, each an item and the index of
/// the next cell. A union links the dying root's list after the
/// survivor's in O(1), leaving the dying root's own ends in place, and
/// its undo cuts the link again.
#[derive(Debug, Clone)]
struct Cells<T> {
    cells: Vec<(T, u32)>,
}

impl<T> Default for Cells<T> {
    fn default() -> Self {
        Cells { cells: Vec::new() }
    }
}

impl<T: Copy> Cells<T> {
    /// Appends `item` to `list`; returns the list's previous tail.
    fn push(&mut self, list: &mut List, item: T) -> u32 {
        let cell = self.cells.len() as u32;
        self.cells.push((item, NIL));
        self.link(
            list,
            List {
                head: cell,
                tail: cell,
            },
        )
    }

    /// Links `other` after `list`; returns `list`'s previous tail.
    fn link(&mut self, list: &mut List, other: List) -> u32 {
        let prev = list.tail;
        if other.head != NIL {
            match prev {
                NIL => list.head = other.head,
                _ => self.cells[prev as usize].1 = other.head,
            }
            list.tail = other.tail;
        }
        prev
    }

    /// Undoes a [`link`](Self::link) that found `prev` as the tail.
    fn cut(&mut self, list: &mut List, prev: u32) {
        match prev {
            NIL => *list = List::EMPTY,
            _ => {
                self.cells[prev as usize].1 = NIL;
                list.tail = prev;
            }
        }
    }

    /// Undoes the latest [`push`](Self::push), onto `list`: rewinds are
    /// last in, first out, so its cell is the arena's last.
    fn pop(&mut self, list: &mut List, prev: u32) {
        self.cut(list, prev);
        self.cells.pop();
    }

    /// The cell after `cell`, with its item.
    fn next(&self, cell: u32) -> Option<(T, u32)> {
        (cell != NIL).then(|| self.cells[cell as usize])
    }
}

/// The state of one touched term.
#[derive(Debug, Clone)]
struct Node {
    term: TermId,
    parent: Slot,
    size: u32,
    /// Whether the term's use-list entries, signature and constructor
    /// witness have been built (see [`Cc::register`]).
    registered: bool,
    /// A constructor application or integer literal in the class, kept
    /// under its root.
    ctor: Option<TermId>,
    /// The applications over this class, kept under its root.
    uses: List,
    /// Asserted disequalities, watched under the *current root* of each
    /// endpoint (so every disequality appears in exactly two lists —
    /// or one, with multiplicity, if the roots later coincide in a
    /// conflict). Unions link the dying root's watch list onto the
    /// survivor's, so both violation checking in [`Cc::merge`] and the
    /// [`are_diseq`](Cc::are_diseq) query touch only the disequalities
    /// incident to the classes involved, never the whole set.
    diseqs: List,
}

/// Term ids per page of a [`SlotIndex`].
const PAGE: usize = 64;

/// The slot of every term a context has touched, by term id, in pages
/// allocated on first touch: the index costs the pages its terms fall
/// in, not the bank under them.
#[derive(Debug, Clone, Default)]
struct SlotIndex {
    pages: Vec<Option<Box<[u32; PAGE]>>>,
}

/// A page entry with no slot.
const NO_SLOT: u32 = u32::MAX;

impl SlotIndex {
    fn get(&self, t: TermId) -> Option<Slot> {
        let page = self.pages.get(t.idx() / PAGE)?.as_ref()?;
        let s = page[t.idx() % PAGE];
        (s != NO_SLOT).then_some(Slot(s))
    }

    fn insert(&mut self, t: TermId, s: Slot) {
        let p = t.idx() / PAGE;
        if self.pages.len() <= p {
            self.pages.resize_with(p + 1, || None);
        }
        let page = self.pages[p].get_or_insert_with(|| Box::new([NO_SLOT; PAGE]));
        page[t.idx() % PAGE] = s.0;
    }
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
///
/// A context keeps state only for the terms it touches — the terms it
/// registers, merges or separates — in one slot each: a term it never
/// touched is its own singleton class. So a context over a large
/// shared bank costs its own terms, not the bank's, to build and to
/// drop. A class's use list and watch list live under its root, as
/// linked cells: a union links the dying root's lists after the
/// survivor's and leaves the dying root's ends in place (nothing reads
/// a non-root's lists), so its undo only cuts the link.
#[derive(Debug, Clone, Default)]
pub struct Cc {
    index: SlotIndex,
    nodes: Vec<Node>,
    uses: Cells<TermId>,
    diseqs: Cells<(TermId, TermId)>,
    sig: FastMap<SigKey, TermId>,
    conflict: bool,
    /// Bumped on every observable state change (registration, union,
    /// disequality, rewind). Callers memoize derived results — e.g.
    /// a theory-propagation pass that came up empty — keyed on this:
    /// same version, same answers. Rewinds bump it too, so a restored
    /// state never aliases the version of the state it replaced.
    version: u64,
    trail: Vec<TrailOp>,
    saves: Vec<usize>,
    /// [`merge`](Cc::merge)'s worklist, kept to reuse its allocation.
    pending: Vec<(TermId, TermId)>,
    /// The root pairs whose constructor arguments
    /// [`are_diseq`](Cc::are_diseq) is comparing, innermost last.
    unfolding: Vec<(Slot, Slot)>,
}

impl std::ops::Index<Slot> for Cc {
    type Output = Node;

    fn index(&self, s: Slot) -> &Node {
        &self.nodes[s.0 as usize]
    }
}

impl std::ops::IndexMut<Slot> for Cc {
    fn index_mut(&mut self, s: Slot) -> &mut Node {
        &mut self.nodes[s.0 as usize]
    }
}

impl Cc {
    /// Creates an empty context.
    pub fn new() -> Self {
        Cc::default()
    }

    /// Creates an empty context with room for `terms` touched terms,
    /// about two thirds of them applications with a signature.
    pub fn with_capacity(terms: usize) -> Self {
        Cc {
            nodes: Vec::with_capacity(terms),
            uses: Cells {
                cells: Vec::with_capacity(terms),
            },
            sig: FastMap::with_capacity_and_hasher(terms * 2 / 3, Default::default()),
            ..Cc::default()
        }
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
    pub fn restore(&mut self, bank: &TermBank) {
        let mark = self.saves.pop().expect("restore without a matching save");
        self.version += 1;
        while self.trail.len() > mark {
            match self.trail.pop().expect("len checked") {
                TrailOp::Registered(s) => self[s].registered = false,
                TrailOp::Parent(s, old) => self[s].parent = old,
                TrailOp::Size(s, old) => self[s].size = old,
                TrailOp::SigInsert(p) => {
                    let TermData::App(f, args) = bank.data(p) else {
                        unreachable!("only applications have signatures")
                    };
                    let key = self.sig_key(*f, args);
                    self.sig.remove(&key);
                }
                TrailOp::UsePush { root, prev } => {
                    let r = &mut self.nodes[root.0 as usize];
                    self.uses.pop(&mut r.uses, prev);
                }
                TrailOp::UseLink { to, prev } => {
                    let r = &mut self.nodes[to.0 as usize];
                    self.uses.cut(&mut r.uses, prev);
                }
                TrailOp::CtorInsert(s) => self[s].ctor = None,
                TrailOp::DiseqPush { root, prev } => {
                    let r = &mut self.nodes[root.0 as usize];
                    self.diseqs.pop(&mut r.diseqs, prev);
                }
                TrailOp::DiseqLink { to, prev } => {
                    let r = &mut self.nodes[to.0 as usize];
                    self.diseqs.cut(&mut r.diseqs, prev);
                }
                TrailOp::Conflict => self.conflict = false,
            }
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
        self.conflict
    }

    /// Enters the conflict state, if it is not in it already.
    fn set_conflict(&mut self) {
        if self.conflict {
            return;
        }
        if self.trailing() {
            self.trail.push(TrailOp::Conflict);
        }
        self.conflict = true;
    }

    /// `t`'s slot, made on first touch as a singleton class. Never
    /// trailed: a fresh slot *is* the untouched state, and a rewind
    /// undoes every mutation made to it since, so a slot left behind
    /// by a rewind is harmless.
    fn touch(&mut self, t: TermId) -> Slot {
        if let Some(s) = self.index.get(t) {
            return s;
        }
        let s = Slot(self.nodes.len() as u32);
        self.nodes.push(Node {
            term: t,
            parent: s,
            size: 1,
            registered: false,
            ctor: None,
            uses: List::EMPTY,
            diseqs: List::EMPTY,
        });
        self.index.insert(t, s);
        s
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
    pub fn register(&mut self, t: TermId, bank: &TermBank) {
        let s = self.touch(t);
        if self[s].registered {
            return;
        }
        self.version += 1;
        self[s].registered = true;
        if self.trailing() {
            self.trail.push(TrailOp::Registered(s));
        }
        match bank.data(t) {
            TermData::App(f, args) => {
                let f = *f;
                for &a in args {
                    self.register(a, bank);
                }
                for &a in args {
                    let root = self.class(a);
                    let r = &mut self.nodes[root.0 as usize];
                    let prev = self.uses.push(&mut r.uses, t);
                    if self.trailing() {
                        self.trail.push(TrailOp::UsePush { root, prev });
                    }
                }
                if bank.is_constructor(f) {
                    self.add_ctor(s, t, bank);
                }
                // Hash-consing makes a constant the only application of
                // its symbol to no arguments: its signature could only
                // ever match itself.
                if args.is_empty() {
                    return;
                }
                let key = self.sig_key(f, args);
                if let Some(&q) = self.sig.get(&key) {
                    self.merge(t, q, bank);
                } else {
                    if self.trailing() {
                        self.trail.push(TrailOp::SigInsert(t));
                    }
                    self.sig.insert(key, t);
                }
            }
            TermData::Int(_) => self.add_ctor(s, t, bank),
            TermData::Var(_) => {}
        }
    }

    /// Adds `t`, a constructor application or integer literal just
    /// registered at slot `s`, to its class's witnesses: the class's
    /// first witness, or one more that must agree with the one it has
    /// (a term merged before it was registered is already in a class).
    fn add_ctor(&mut self, s: Slot, t: TermId, bank: &TermBank) {
        let r = self.root(s);
        let Some(c) = self[r].ctor else {
            self.set_ctor(r, t);
            return;
        };
        match ctor_rel(bank, c, t) {
            Some(CtorRel::SameCtor(ax, ay)) => {
                for (&a, &b) in ax.iter().zip(ay) {
                    self.merge(a, b, bank);
                }
            }
            Some(CtorRel::Clash) => {
                self.version += 1;
                self.set_conflict();
            }
            None => {}
        }
    }

    /// Records `witness` as the constructor witness of the
    /// witness-free class rooted at `s`.
    fn set_ctor(&mut self, s: Slot, witness: TermId) {
        self[s].ctor = Some(witness);
        if self.trailing() {
            self.trail.push(TrailOp::CtorInsert(s));
        }
    }

    /// The root slot of `s`'s class, with path compression (skipped
    /// while a savepoint is outstanding — compressed pointers must not
    /// outlive the merges they shortcut).
    fn root(&mut self, s: Slot) -> Slot {
        let root = self.root_at(s);
        if !self.trailing() {
            let mut cur = s;
            while self[cur].parent != root {
                let next = self[cur].parent;
                self[cur].parent = root;
                cur = next;
            }
        }
        root
    }

    /// The root slot of `s`'s class, without path compression.
    fn root_at(&self, s: Slot) -> Slot {
        let mut root = s;
        while self[root].parent != root {
            root = self[root].parent;
        }
        root
    }

    /// The congruence signature of `f` applied to registered `args`,
    /// each resolved to its current class. It compresses no path, so a
    /// rewind can recompute it (see [`TrailOp::SigInsert`]).
    fn sig_key(&self, f: Sym, args: &[TermId]) -> SigKey {
        let class = |t: TermId| self.root_at(self.index.get(t).expect("registered argument"));
        match *args {
            [a] => SigKey::K1(f, class(a)),
            [a, b] => SigKey::K2(f, class(a), class(b)),
            [a, b, c] => SigKey::K3(f, class(a), class(b), class(c)),
            _ => SigKey::KN(f, args.iter().map(|&t| class(t)).collect()),
        }
    }

    /// The root slot of `t`'s class, touching `t`.
    fn class(&mut self, t: TermId) -> Slot {
        let s = self.touch(t);
        self.root(s)
    }

    /// The root slot of `t`'s class; `None` for an untouched term, a
    /// singleton class with no watches and no constructor witness.
    fn class_of(&mut self, t: TermId) -> Option<Slot> {
        let s = self.index.get(t)?;
        Some(self.root(s))
    }

    /// The class representative of `t`.
    pub fn find(&mut self, t: TermId) -> TermId {
        match self.class_of(t) {
            Some(r) => self[r].term,
            None => t,
        }
    }

    /// Whether `a` and `b` are known equal.
    pub fn are_eq(&mut self, a: TermId, b: TermId) -> bool {
        a == b || self.find(a) == self.find(b)
    }

    /// Whether `a ≠ b` is known, either from an asserted disequality or
    /// from the constructor theory.
    pub fn are_diseq(&mut self, a: TermId, b: TermId, bank: &TermBank) -> bool {
        let (Some(ra), Some(rb)) = (self.class_of(a), self.class_of(b)) else {
            return false;
        };
        if ra == rb {
            return false;
        }
        // Watched by current root: only disequalities incident to `a`'s
        // class can separate the pair.
        let mut cell = self[ra].diseqs.head;
        while let Some(((x, y), next)) = self.diseqs.next(cell) {
            let (rx, ry) = (self.class(x), self.class(y));
            if (rx, ry) == (ra, rb) || (rx, ry) == (rb, ra) {
                return true;
            }
            cell = next;
        }
        let (Some(ca), Some(cb)) = (self[ra].ctor, self[rb].ctor) else {
            return false;
        };
        match ctor_rel(bank, ca, cb) {
            Some(CtorRel::Clash) => true,
            // Injectivity: same-constructor applications are distinct
            // exactly when some argument pair is. A pair met again while
            // its own arguments are compared lies on a cyclic class
            // (`x = c(x)`): unfolding it again would never end.
            Some(CtorRel::SameCtor(ax, ay)) => {
                if self.unfolding.contains(&(ra, rb)) {
                    return false;
                }
                self.unfolding.push((ra, rb));
                let distinct = ax.iter().zip(ay).any(|(&x, &y)| self.are_diseq(x, y, bank));
                self.unfolding.pop();
                distinct
            }
            None => false,
        }
    }

    /// Asserts `a = b`, propagating congruences, injectivity, and
    /// checking disequalities and constructor disjointness.
    ///
    /// On contradiction the context enters the conflict state (see
    /// [`in_conflict`](Self::in_conflict)); further operations are
    /// harmless no-ops.
    pub fn merge(&mut self, a: TermId, b: TermId, bank: &TermBank) {
        if self.conflict {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        pending.push((a, b));
        self.close(&mut pending, bank);
        pending.clear();
        self.pending = pending;
    }

    /// Unites the pairs on `pending` and every pair their congruences
    /// and injectivity imply, stopping at the first conflict.
    fn close(&mut self, pending: &mut Vec<(TermId, TermId)>, bank: &TermBank) {
        while let Some((x, y)) = pending.pop() {
            if self.conflict {
                return;
            }
            let mut rx = self.class(x);
            let mut ry = self.class(y);
            if rx == ry {
                continue;
            }
            // Union by size: ry joins rx.
            if self[rx].size < self[ry].size {
                std::mem::swap(&mut rx, &mut ry);
            }
            // Constructor theory.
            match (self[rx].ctor, self[ry].ctor) {
                (Some(cx), Some(cy)) => match ctor_rel(bank, cx, cy) {
                    Some(CtorRel::SameCtor(ax, ay)) => {
                        pending.extend(ax.iter().copied().zip(ay.iter().copied()));
                    }
                    Some(CtorRel::Clash) => {
                        self.version += 1;
                        self.set_conflict();
                        return;
                    }
                    None => {}
                },
                (None, Some(cy)) => self.set_ctor(rx, cy),
                _ => {}
            }
            if self.trailing() {
                self.trail.push(TrailOp::Parent(ry, self[ry].parent));
                self.trail.push(TrailOp::Size(rx, self[rx].size));
            }
            self.version += 1;
            self[ry].parent = rx;
            self[rx].size += self[ry].size;
            // Re-normalize signatures of applications that used ry, then
            // link ry's use list after rx's.
            let moved = self[ry].uses;
            let mut cell = moved.head;
            while let Some((p, next)) = self.uses.next(cell) {
                cell = next;
                let (f, args) = match bank.data(p) {
                    TermData::App(f, args) => (*f, args),
                    _ => continue,
                };
                let key = self.sig_key(f, args);
                match self.sig.get(&key) {
                    Some(&q) => {
                        if self.class(q) != self.class(p) {
                            pending.push((p, q));
                        }
                    }
                    None => {
                        if self.trailing() {
                            self.trail.push(TrailOp::SigInsert(p));
                        }
                        self.sig.insert(key, p);
                    }
                }
            }
            let r = &mut self.nodes[rx.0 as usize];
            let prev = self.uses.link(&mut r.uses, moved);
            if self.trailing() {
                self.trail.push(TrailOp::UseLink { to: rx, prev });
            }
            // Link ry's watched disequalities after rx's. Only ry's can
            // be newly violated: a violation means both endpoints now
            // share a root, which requires one of them to have been
            // rooted at the dying class ry.
            let moved = self[ry].diseqs;
            let r = &mut self.nodes[rx.0 as usize];
            let prev = self.diseqs.link(&mut r.diseqs, moved);
            if self.trailing() {
                self.trail.push(TrailOp::DiseqLink { to: rx, prev });
            }
            let mut violated = false;
            let mut cell = moved.head;
            while let Some(((u, v), next)) = self.diseqs.next(cell) {
                if self.class(u) == self.class(v) {
                    violated = true;
                    break;
                }
                cell = next;
            }
            if violated {
                self.version += 1;
                self.set_conflict();
                return;
            }
        }
    }

    /// Asserts `a ≠ b`.
    ///
    /// Conflicts immediately if `a = b` is already known.
    pub fn assert_diseq(&mut self, a: TermId, b: TermId) {
        if self.conflict {
            return;
        }
        if self.are_eq(a, b) {
            self.set_conflict();
            return;
        }
        let (ra, rb) = (self.class(a), self.class(b));
        self.version += 1;
        for root in [ra, rb] {
            let prev = self
                .diseqs
                .push(&mut self.nodes[root.0 as usize].diseqs, (a, b));
            if self.trailing() {
                self.trail.push(TrailOp::DiseqPush { root, prev });
            }
        }
    }

    /// The constructor application or integer literal known to be in
    /// `t`'s class, if any.
    pub fn ctor_of(&mut self, t: TermId) -> Option<TermId> {
        let r = self.class_of(t)?;
        self[r].ctor
    }
}

/// How two constructor witnesses relate.
enum CtorRel<'b> {
    /// Applications of one constructor, with their argument lists:
    /// equal exactly when the arguments are pairwise equal.
    SameCtor(&'b [TermId], &'b [TermId]),
    /// Distinct constructors or distinct integers: never equal.
    Clash,
}

/// Classifies the relationship between two constructor witnesses;
/// `None` for equal integer literals.
fn ctor_rel(bank: &TermBank, a: TermId, b: TermId) -> Option<CtorRel<'_>> {
    match (bank.data(a), bank.data(b)) {
        (TermData::Int(m), TermData::Int(n)) => (m != n).then_some(CtorRel::Clash),
        (TermData::App(f, ax), TermData::App(g, ay)) if f == g => Some(CtorRel::SameCtor(ax, ay)),
        (TermData::Int(_) | TermData::App(..), TermData::Int(_) | TermData::App(..)) => {
            Some(CtorRel::Clash)
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

    /// Registers `terms` (with their subterms): the path the solver
    /// runs.
    fn register(cc: &mut Cc, b: &TermBank, terms: &[TermId]) {
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
        cc.assert_diseq(x, z);
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
        cc.assert_diseq(x, y);
        assert!(cc.are_diseq(lx, ly, &b));
        // Nested: locval(locval(x)) vs locval(locval(y)).
        let llx = b.app(locval, vec![lx]);
        let lly = b.app(locval, vec![ly]);
        register(&mut cc, &b, &[llx, lly]);
        assert!(cc.are_diseq(llx, lly, &b));
    }

    #[test]
    fn are_diseq_terminates_on_cyclic_constructor_classes() {
        // x = pair(x, 0) and y = pair(y, 0): whether x ≠ y unfolds to
        // the same question about x and y, which settles nothing.
        let (mut b, mut cc) = setup();
        let pair = b.constructor("pair");
        let zero = b.int(0);
        let (x, y) = (b.app0("x"), b.app0("y"));
        let px = b.app(pair, vec![x, zero]);
        let py = b.app(pair, vec![y, zero]);
        register(&mut cc, &b, &[px, py]);
        cc.merge(x, px, &b);
        cc.merge(y, py, &b);
        assert!(!cc.are_diseq(x, y, &b));
        // z = pair(z, 1): the cyclic first arguments settle nothing, the
        // second ones separate x from z.
        let one = b.int(1);
        let z = b.app0("z");
        let pz = b.app(pair, vec![z, one]);
        register(&mut cc, &b, &[pz]);
        cc.merge(z, pz, &b);
        assert!(cc.are_diseq(x, z, &b));
        assert!(!cc.in_conflict());
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
        cc.restore(&b);
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
        cc.restore(&b);
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
    fn untouched_terms_are_singletons_and_merge_unregistered() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        cc.register(x, &b);
        let late = b.app0("late");
        // Minted after the context last saw the bank: still a valid
        // singleton query, and the context keeps no state for it.
        assert_eq!(cc.find(late), late);
        assert!(!cc.are_eq(x, late));
        assert!(!cc.are_diseq(x, late, &b));
        assert_eq!(cc.ctor_of(late), None);
        assert_eq!(cc.nodes.len(), 1);
        // Merging terms never registered unites them; registering an
        // application over them later sees the union.
        let y = b.app0("y");
        cc.merge(late, y, &b);
        assert!(cc.are_eq(y, late));
        let (fl, fy) = (b.app(f, vec![late]), b.app(f, vec![y]));
        register(&mut cc, &b, &[fl, fy]);
        assert!(cc.are_eq(fl, fy));
    }

    #[test]
    fn save_restore_undoes_demand_registration() {
        let (mut b, mut cc) = setup();
        let f = b.sym("f");
        let x = b.app0("x");
        let y = b.app0("y");
        let fx = b.app(f, vec![x]);
        let fy = b.app(f, vec![y]);
        cc.register(x, &b);
        cc.register(y, &b);
        cc.merge(x, y, &b);
        cc.save();
        cc.register(fx, &b);
        cc.register(fy, &b);
        assert!(cc.are_eq(fx, fy));
        cc.restore(&b);
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
        cc.assert_diseq(x, y);
        cc.merge(x, y, &b);
        assert!(cc.in_conflict());
        cc.restore(&b);
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
        cc.restore(&b);
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
        cc.restore(&b);
        assert!(cc.are_eq(x, y));
        assert!(!cc.are_eq(x, z));
        cc.restore(&b);
        assert!(!cc.are_eq(x, y));
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
        cc.restore(&b);
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
        cc.assert_diseq(x, two);
        assert!(cc.in_conflict());
    }
}
