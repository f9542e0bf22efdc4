//! The proof search engine: a tableau over the congruence-closure core,
//! with an integrated select/update array theory and trigger-based
//! quantifier instantiation.
//!
//! This plays the role Simplify plays in the paper (§5.1): it receives
//! the optimization-specific proof obligations together with background
//! axioms and attempts to discharge them fully automatically. The
//! obligations are *validity* checks `hypotheses ⊨ goal`; the solver
//! refutes `hypotheses ∧ ¬goal` by closing every tableau branch.
//!
//! Theories:
//!
//! * **EUF** with free constructors — see [`crate::cc`].
//! * **Arrays** (`select`/`update`): read-over-write is decided by
//!   merging when indices are known equal or known distinct, and by
//!   case-splitting on index equality otherwise.
//! * **Quantifiers**: universal hypotheses are instantiated by syntactic
//!   matching of their trigger patterns against ground terms
//!   (Simplify-style matching); existential hypotheses (and universal
//!   goals) are skolemized.

use crate::cc::Cc;
use crate::formula::Formula;
use crate::term::{Sym, TermBank, TermData, TermId};
use cobalt_support::budget::{Budget, Exhausted, Meter};
use cobalt_support::fault;
use cobalt_support::{FastMap, FastSet};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The function symbol used for array reads.
pub const SELECT: &str = "select";
/// The function symbol used for functional array writes.
pub const UPDATE: &str = "update";

/// Resource limits for proof search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of case splits across the whole search.
    pub max_splits: usize,
    /// Maximum quantifier-instantiation rounds per branch.
    pub max_inst_rounds: usize,
    /// Hard cap on interned terms (guards runaway instantiation).
    pub max_terms: usize,
    /// Wall-clock deadline for one `prove` call. `None` means no
    /// deadline; exceeding it yields a resource-limit
    /// [`Outcome::Unknown`], never an error or a hang.
    pub deadline: Option<Duration>,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_splits: 20_000,
            max_inst_rounds: 4,
            max_terms: 200_000,
            deadline: None,
        }
    }
}

/// The reason a `prove` call that exhausted its budget reports; `when`
/// says how far it got (`before search began`, `after 1.2ms`).
fn exhausted_reason(e: Exhausted, when: &str) -> String {
    match e {
        Exhausted::Steps(cap) => format!("step cap of {cap} exceeded"),
        Exhausted::Deadline => format!("deadline exceeded {when}"),
        Exhausted::Cancelled => format!("cancelled by caller {when}"),
    }
}

/// Statistics from a successful proof.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of case splits explored.
    pub splits: usize,
    /// Number of quantifier instances generated.
    pub instances: usize,
    /// Number of tableau branches closed.
    pub branches: usize,
}

/// Why a proof attempt came back [`Outcome::Unknown`]. The distinction
/// drives retry policy: a resource limit is worth retrying with a
/// bigger budget, an open branch is not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownKind {
    /// The search saturated with an open branch — evidence (not proof)
    /// that the goal does not follow from the hypotheses.
    OpenBranch,
    /// The search gave up on a resource limit: case splits, interned
    /// terms, instantiation rounds, steps, deadline, or cancellation.
    ResourceLimit,
}

/// The outcome of a proof attempt.
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The goal is valid under the hypotheses.
    Proved {
        /// Search statistics.
        stats: Stats,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
    /// The search found a branch it could not close (potential
    /// counterexample) or hit a resource limit.
    Unknown {
        /// Why the search gave up.
        reason: String,
        /// Whether the failure was a resource limit or a saturated open
        /// branch.
        kind: UnknownKind,
        /// The literals of the first open branch — the paper's
        /// "counterexample context" (§7), used for error reporting.
        /// Clamped to [`MAX_CONTEXT_LITERALS`] entries.
        open_branch: Vec<String>,
        /// Search statistics up to the point of giving up.
        stats: Stats,
        /// Wall-clock time spent.
        elapsed: Duration,
    },
}

impl Outcome {
    /// Whether the obligation was proved.
    pub fn is_proved(&self) -> bool {
        matches!(self, Outcome::Proved { .. })
    }

    /// Whether the attempt gave up on a resource limit (splits, terms,
    /// rounds, steps, deadline, or cancellation) rather than saturating
    /// with an open branch. Resource-limited attempts are candidates
    /// for retrying with a larger budget.
    pub fn is_resource_limited(&self) -> bool {
        matches!(
            self,
            Outcome::Unknown {
                kind: UnknownKind::ResourceLimit,
                ..
            }
        )
    }

    /// Time spent on the attempt.
    pub fn elapsed(&self) -> Duration {
        match self {
            Outcome::Proved { elapsed, .. } | Outcome::Unknown { elapsed, .. } => *elapsed,
        }
    }

    /// Search statistics, whether or not the proof succeeded.
    pub fn stats(&self) -> &Stats {
        match self {
            Outcome::Proved { stats, .. } | Outcome::Unknown { stats, .. } => stats,
        }
    }
}

/// Most literals kept in a counterexample context; the rest collapse
/// into a `… (+N more)` marker.
pub const MAX_CONTEXT_LITERALS: usize = 12;

/// Longest rendered literal kept in a counterexample context; longer
/// ones are cut at a char boundary with a `…` suffix.
pub const MAX_CONTEXT_LITERAL_CHARS: usize = 200;

/// Clamps a counterexample context in place: at most `max_lits`
/// literals, each at most `max_chars` characters, with a trailing
/// `… (+N more)` marker when literals were dropped. Large proof
/// obligations otherwise produce unbounded multi-KB failure strings.
pub fn clamp_context(lits: &mut Vec<String>, max_lits: usize, max_chars: usize) {
    for lit in lits.iter_mut() {
        if lit.chars().count() > max_chars {
            let cut = lit
                .char_indices()
                .nth(max_chars.saturating_sub(1))
                .map_or(lit.len(), |(i, _)| i);
            lit.truncate(cut);
            lit.push('…');
        }
    }
    if lits.len() > max_lits {
        let dropped = lits.len() - max_lits;
        lits.truncate(max_lits);
        lits.push(format!("… (+{dropped} more)"));
    }
}

/// A proof obligation: `hypotheses ⊨ goal`.
#[derive(Debug, Clone)]
pub struct ProofTask {
    /// Formulas assumed true.
    pub hypotheses: Vec<Formula>,
    /// The formula to establish.
    pub goal: Formula,
}

/// The theorem prover.
///
/// # Examples
///
/// ```
/// use cobalt_logic::{Formula, ProofTask, Solver};
/// let mut solver = Solver::new();
/// let x = solver.bank.app0("x");
/// let y = solver.bank.app0("y");
/// let task = ProofTask {
///     hypotheses: vec![Formula::Eq(x, y)],
///     goal: Formula::Eq(y, x),
/// };
/// assert!(solver.prove(&task).is_proved());
/// ```
#[derive(Debug, Default)]
pub struct Solver {
    /// The term arena. Public so callers can build hypothesis and goal
    /// terms directly in it.
    pub bank: TermBank,
    limits: Limits,
    budget: Budget,
    skolem_counter: u64,
    /// Congruence-closure context kept warm between `prove` calls.
    /// The permanent (below-savepoint) layer only ever registers bank
    /// terms — hash-consing guarantees a merge-free sync — so the next
    /// call resumes from it instead of re-registering every term.
    cc_cache: Option<Cc>,
}

impl Solver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Solver::default()
    }

    /// Creates a solver with the given limits.
    pub fn with_limits(limits: Limits) -> Self {
        Solver {
            limits,
            ..Solver::default()
        }
    }

    /// Creates a solver whose bank overlays a frozen shared base (see
    /// [`TermBank::with_base`]): the base vocabulary is visible, and
    /// search-time terms (skolems, instances) stay private to this
    /// solver. Batch verification uses this to encode a rule's
    /// obligations once and prove each against a cheap overlay.
    pub fn with_base_bank(base: Arc<TermBank>) -> Self {
        Solver {
            bank: TermBank::with_base(base),
            ..Solver::default()
        }
    }

    /// Replaces the resource limits (e.g. after terms have already been
    /// built in the bank).
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Replaces the budget (deadline, step cap, cancel token) every
    /// subsequent `prove` call spends: each call meters its own fork,
    /// tightened by the [`Limits`] deadline.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The distinguished "true" constant used to encode predicates.
    pub fn tt(&mut self) -> TermId {
        let s = self.bank.constructor("$true");
        self.bank.app(s, Vec::new())
    }

    /// Builds `select(map, key)`.
    pub fn select(&mut self, map: TermId, key: TermId) -> TermId {
        let s = self.bank.sym(SELECT);
        self.bank.app(s, vec![map, key])
    }

    /// Builds `update(map, key, value)`.
    pub fn update(&mut self, map: TermId, key: TermId, value: TermId) -> TermId {
        let s = self.bank.sym(UPDATE);
        self.bank.app(s, vec![map, key, value])
    }

    /// Attempts to prove the task, refuting `hypotheses ∧ ¬goal`.
    ///
    /// Effort is bounded by the solver's [`Limits`] and [`Budget`]:
    /// when any cap, deadline, or cancellation is hit the search stops
    /// and reports a resource-limit [`Outcome::Unknown`] — it never
    /// runs unbounded.
    pub fn prove(&mut self, task: &ProofTask) -> Outcome {
        let start = Instant::now();
        fault::point("solver.prove");
        // Degenerate limits short-circuit before any work. The term cap
        // bounds terms *minted during this call* — never the bank's
        // total size, which depends on how much vocabulary the caller
        // (or a shared base layer) interned up front — so only a cap of
        // zero can make no progress at all.
        if self.limits.max_terms == 0 {
            return Outcome::Unknown {
                reason: "term limit of 0 exceeded before search began".into(),
                kind: UnknownKind::ResourceLimit,
                open_branch: Vec::new(),
                stats: Stats::default(),
                elapsed: start.elapsed(),
            };
        }
        // A cancelled or zero-budget call must not start a tableau at
        // all: NNF conversion and the congruence-closure sync below do
        // real work proportional to the obligation.
        let mut budget = self.budget.fork();
        if let Some(d) = self.limits.deadline {
            budget = budget.with_deadline(d);
        }
        let mut meter = budget.meter();
        if let Err(e) = meter.check() {
            return Outcome::Unknown {
                reason: exhausted_reason(e, "before search began"),
                kind: UnknownKind::ResourceLimit,
                open_branch: Vec::new(),
                stats: Stats::default(),
                elapsed: start.elapsed(),
            };
        }
        // Canonicalize the NNF hypothesis set before building any search
        // state: flatten conjunctions, drop `true`, dedup structural
        // repeats, and close immediately on an explicit `false` or an
        // exact literal/negation pair (the cheap contradictions that
        // otherwise cost a full tableau setup to notice).
        let mut work: VecDeque<Formula> =
            task.hypotheses.iter().map(|h| h.clone().nnf()).collect();
        work.push_back(task.goal.clone().negate().nnf());
        let mut formulas: Vec<Formula> = Vec::with_capacity(work.len());
        let mut seen: FastSet<Formula> = FastSet::default();
        let mut contradiction = false;
        while let Some(f) = work.pop_front() {
            match f {
                Formula::True => {}
                Formula::False => {
                    contradiction = true;
                    break;
                }
                Formula::And(ps) => {
                    for p in ps.into_iter().rev() {
                        work.push_front(p);
                    }
                }
                f => {
                    let neg = match &f {
                        Formula::Not(p) => Some((**p).clone()),
                        Formula::Eq(..) | Formula::Holds(..) => {
                            Some(Formula::Not(Box::new(f.clone())))
                        }
                        _ => None,
                    };
                    if neg.is_some_and(|n| seen.contains(&n)) {
                        contradiction = true;
                        break;
                    }
                    if seen.insert(f.clone()) {
                        formulas.push(f);
                    }
                }
            }
        }
        if contradiction {
            return Outcome::Proved {
                stats: Stats {
                    branches: 1,
                    ..Stats::default()
                },
                elapsed: start.elapsed(),
            };
        }
        let start_terms = self.bank.len();
        let mut cc = self.cc_cache.take().unwrap_or_default();
        cc.ensure(&self.bank);
        let mut relevant = RelevantSet::new(&self.bank);
        for f in &formulas {
            relevant.mark_formula(&self.bank, f);
        }
        // Register the task's relevant terms — and only those — into
        // the permanent layer. Under a batch-shared bank the bank holds
        // a whole rule's vocabulary; registering every bank term would
        // make each obligation pay for its siblings. The permanent
        // layer stays merge-free (hash-consing keeps virgin signatures
        // unique), keeping the cached context reusable forever.
        for &(t, _) in &relevant.order {
            cc.register(t, &self.bank);
        }
        // Base savepoint: every search-time effect (merges, diseqs,
        // registrations of minted terms) lands on the undo trail and is
        // rewound before the context goes back in the cache.
        cc.save();
        let reg_upto = relevant.order.len();
        let mut branch = Branch {
            cc,
            todo: formulas,
            splits: Vec::new(),
            consumed_log: Vec::new(),
            foralls: Vec::new(),
            done_instances: FastSet::default(),
            done_order: Vec::new(),
            inst_rounds: 0,
            relevant,
            reg_upto,
            array_quiet_at: None,
        };
        let mut search = Search {
            solver: self,
            stats: Stats::default(),
            limit_hit: None,
            meter,
            start,
            start_terms,
            debug: std::env::var_os("COBALT_LOGIC_DEBUG").is_some(),
        };
        let closed = search.close(&mut branch);
        let stats = search.stats.clone();
        let limit_hit = search.limit_hit.take();
        let mut cc = branch.cc;
        cc.restore_all();
        self.cc_cache = Some(cc);
        let elapsed = start.elapsed();
        match closed {
            BranchResult::Closed => Outcome::Proved { stats, elapsed },
            BranchResult::Open(lits) => {
                let (reason, kind) = match limit_hit {
                    Some(reason) => (reason, UnknownKind::ResourceLimit),
                    None => (
                        "open branch: goal not provable from hypotheses".into(),
                        UnknownKind::OpenBranch,
                    ),
                };
                Outcome::Unknown {
                    reason,
                    kind,
                    open_branch: lits,
                    stats,
                    elapsed,
                }
            }
        }
    }

    fn fresh_skolem(&mut self, base: &str) -> TermId {
        self.skolem_counter += 1;
        let name = format!("$sk_{}_{}", base, self.skolem_counter);
        self.bank.app0(&name)
    }
}

#[derive(Debug)]
struct Branch {
    cc: Cc,
    todo: Vec<Formula>,
    splits: Vec<PendingSplit>,
    /// Positions in `splits` consumed by case splitting, in consumption
    /// order. Consumption is flagged in place (never removed) so that a
    /// branch restore can un-flag exactly the entries consumed since
    /// the savepoint — a length pair in [`BranchMark`] — instead of
    /// deep-cloning every pending disjunction per split alternative.
    consumed_log: Vec<usize>,
    foralls: Vec<Formula>,
    done_instances: FastSet<(usize, InstKey)>,
    /// Insertion journal for `done_instances`, so a branch restore can
    /// pop exactly the keys recorded since the savepoint.
    done_order: Vec<(usize, InstKey)>,
    inst_rounds: usize,
    /// Terms appearing in formulas asserted on *this* branch. The term
    /// bank is shared between branches (and, under a base layer, with
    /// the whole batch), so theory propagation and trigger matching
    /// must ignore foreign terms (e.g. skolems minted by sibling
    /// branches) or the search degenerates.
    relevant: RelevantSet,
    /// How many entries of `relevant.order` have been registered in the
    /// congruence core. The core registers relevant terms on demand
    /// (never the whole shared bank); this watermark is what
    /// [`Search::sync_cc`] advances, and a branch restore rewinds it in
    /// lockstep with the relevant-set rollback and the `Cc` trail.
    reg_upto: usize,
    /// Memo for [`Search::propagate_arrays`]: the `(cc version,
    /// selects, updates)` fingerprint of the last pass that came up
    /// quiet. The scan is a deterministic function of exactly that
    /// state, so matching fingerprints let the pass return `Quiet`
    /// without rescanning. Never rolled back: `Cc::restore` bumps the
    /// version, so a stale memo can only miss, not lie.
    array_quiet_at: Option<(u64, usize, usize)>,
}

/// The argument tuple identifying one instance of a universal: the
/// terms bound to its variables, in prefix order. Inline for the
/// overwhelmingly common arities — instantiation re-derives every
/// candidate binding each round and skips the already-done ones, so
/// the skip path must not allocate just to build a set key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum InstKey {
    One(TermId),
    Two(TermId, TermId),
    Many(Vec<TermId>),
}

impl InstKey {
    fn of(vars: &[Sym], binding: &Binding) -> InstKey {
        let get = |i: usize| bound(binding, vars[i]).expect("binding covers all vars");
        match vars.len() {
            1 => InstKey::One(get(0)),
            2 => InstKey::Two(get(0), get(1)),
            _ => InstKey::Many((0..vars.len()).map(get).collect()),
        }
    }
}

/// A pending boolean disjunction awaiting a case split.
#[derive(Debug)]
struct PendingSplit {
    formulas: Vec<Formula>,
    consumed: bool,
}

/// The branch's relevant terms, indexed for the hot loops: a membership
/// set, a deterministic *mark order* (every output-affecting iteration
/// walks it, never numeric `TermId` order — ids depend on the bank
/// layout, which differs between a fresh and a batch-shared bank), a
/// per-top-symbol index of ground applications for trigger matching,
/// and pre-classified `select`/`update` applications for the array
/// theory.
#[derive(Debug, Default)]
struct RelevantSet {
    set: FastSet<TermId>,
    /// Marked terms in mark order; the symbol is `Some(f)` exactly when
    /// the term was indexed under `by_top[f]` (a ground application).
    order: Vec<(TermId, Option<Sym>)>,
    /// Ground applications by top symbol, in mark order.
    by_top: FastMap<Sym, Vec<TermId>>,
    /// Ground `select(m, k)` applications: `(term, m, k)`.
    selects: Vec<(TermId, TermId, TermId)>,
    /// Ground `update(m, k, v)` applications: `(term, m, k, v)`.
    updates: Vec<(TermId, TermId, TermId, TermId)>,
    select_sym: Option<Sym>,
    update_sym: Option<Sym>,
}

/// A [`RelevantSet`] checkpoint; everything is append-only, so lengths
/// suffice.
#[derive(Debug, Clone, Copy)]
struct RelevantMark {
    order_len: usize,
    selects_len: usize,
    updates_len: usize,
}

impl RelevantSet {
    fn new(bank: &TermBank) -> Self {
        RelevantSet {
            // All function symbols in an obligation are interned before
            // `prove` (search only mints skolem constants and
            // substitution instances), so resolving once here is sound.
            select_sym: bank.find_sym(SELECT),
            update_sym: bank.find_sym(UPDATE),
            ..RelevantSet::default()
        }
    }

    /// Adds `t` and all its subterms.
    fn mark_term(&mut self, bank: &TermBank, t: TermId) {
        if !self.set.insert(t) {
            return;
        }
        let mut top = None;
        if let TermData::App(f, args) = bank.data(t) {
            let f = *f;
            for &a in args {
                self.mark_term(bank, a);
            }
            if !bank.has_var(t) {
                top = Some(f);
                self.by_top.entry(f).or_default().push(t);
                if Some(f) == self.select_sym && args.len() == 2 {
                    self.selects.push((t, args[0], args[1]));
                } else if Some(f) == self.update_sym && args.len() == 3 {
                    self.updates.push((t, args[0], args[1], args[2]));
                }
            }
        }
        self.order.push((t, top));
    }

    /// Adds every term of a formula.
    fn mark_formula(&mut self, bank: &TermBank, f: &Formula) {
        match f {
            Formula::True | Formula::False => {}
            Formula::Eq(a, b) => {
                self.mark_term(bank, *a);
                self.mark_term(bank, *b);
            }
            Formula::Holds(t) => self.mark_term(bank, *t),
            Formula::Not(p) => self.mark_formula(bank, p),
            Formula::And(ps) | Formula::Or(ps) => {
                for p in ps {
                    self.mark_formula(bank, p);
                }
            }
            Formula::Implies(p, q) | Formula::Iff(p, q) => {
                self.mark_formula(bank, p);
                self.mark_formula(bank, q);
            }
            Formula::Forall { body, .. } | Formula::Exists { body, .. } => {
                self.mark_formula(bank, body);
            }
        }
    }

    fn checkpoint(&self) -> RelevantMark {
        RelevantMark {
            order_len: self.order.len(),
            selects_len: self.selects.len(),
            updates_len: self.updates.len(),
        }
    }

    fn rollback(&mut self, mark: RelevantMark) {
        while self.order.len() > mark.order_len {
            let (t, top) = self.order.pop().expect("len checked");
            self.set.remove(&t);
            if let Some(f) = top {
                self.by_top
                    .get_mut(&f)
                    .expect("indexed symbol has a bucket")
                    .pop();
            }
        }
        self.selects.truncate(mark.selects_len);
        self.updates.truncate(mark.updates_len);
    }
}

enum BranchResult {
    Closed,
    /// Literals describing the open branch.
    Open(Vec<String>),
}

struct Search<'a> {
    solver: &'a mut Solver,
    stats: Stats,
    limit_hit: Option<String>,
    meter: Meter,
    /// When the `prove` call began (reason strings report the elapsed
    /// time).
    start: Instant,
    /// Bank size when the search began. The term cap bounds
    /// `bank.len() - start_terms` — terms *minted by this search* — so
    /// limits behave identically whether the bank is fresh or layered
    /// on a large shared base.
    start_terms: usize,
    /// `COBALT_LOGIC_DEBUG` presence, resolved once per search: the
    /// split loop is far too hot for a `getenv` per iteration.
    debug: bool,
}

/// Checkpoint of everything [`Search::split`] must rewind between
/// alternatives. Paired with a [`Cc::save`] savepoint taken at the same
/// moment.
struct BranchMark {
    todo_len: usize,
    splits_len: usize,
    consumed_len: usize,
    foralls_len: usize,
    done_len: usize,
    inst_rounds: usize,
    relevant: RelevantMark,
    reg_upto: usize,
}

impl Search<'_> {
    /// Advances the budget meter; returns true (and records the limit)
    /// when the budget is exhausted.
    fn out_of_budget(&mut self) -> bool {
        if self.limit_hit.is_some() {
            return true;
        }
        match self.meter.tick() {
            Ok(()) => false,
            Err(e) => {
                let when = format!("after {:.1?}", self.start.elapsed());
                self.limit_hit = Some(exhausted_reason(e, &when));
                true
            }
        }
    }

    /// Terms interned since this search began.
    fn minted(&self) -> usize {
        self.solver.bank.len() - self.start_terms
    }

    /// Brings the congruence core up to date with the relevant set:
    /// registers every term marked since the last call. This — not a
    /// whole-bank sweep — is how new terms (skolems, instances, theory
    /// propagations) join the core, so closure cost tracks the branch's
    /// footprint even when the bank is shared across a whole batch of
    /// obligations.
    fn sync_cc(&mut self, branch: &mut Branch) {
        branch.cc.ensure(&self.solver.bank);
        while branch.reg_upto < branch.relevant.order.len() {
            let (t, _) = branch.relevant.order[branch.reg_upto];
            branch.cc.register(t, &self.solver.bank);
            branch.reg_upto += 1;
        }
    }

    /// Registers the distinguished `$true` constant, which backs
    /// `Holds` literals without ever being marked relevant (it must not
    /// feed trigger matching or binding enumeration).
    fn register_tt(&mut self, branch: &mut Branch) -> TermId {
        let tt = self.solver.tt();
        branch.cc.ensure(&self.solver.bank);
        branch.cc.register(tt, &self.solver.bank);
        tt
    }

    /// Attempts to close a branch; returns `Closed` if a contradiction
    /// was derived on every sub-branch.
    fn close(&mut self, branch: &mut Branch) -> BranchResult {
        loop {
            if self.out_of_budget() {
                return BranchResult::Open(vec![]);
            }
            // 1. Assert pending formulas into the congruence core.
            let mut conflict = false;
            while let Some(f) = branch.todo.pop() {
                if self.out_of_budget() {
                    return BranchResult::Open(vec![]);
                }
                if self.assert_formula(branch, f) {
                    conflict = true;
                    break;
                }
            }
            if conflict || branch.cc.in_conflict() {
                self.stats.branches += 1;
                return BranchResult::Closed;
            }
            // 2. Array theory propagation.
            match self.propagate_arrays(branch) {
                ArrayStep::Progress => continue,
                ArrayStep::Conflict => {
                    self.stats.branches += 1;
                    return BranchResult::Closed;
                }
                ArrayStep::Split(k1, k2) => {
                    return self.split(
                        branch,
                        vec![Formula::Eq(k1, k2), Formula::ne(k1, k2)],
                    );
                }
                ArrayStep::Quiet => {}
            }
            // 3. Boolean case splits.
            if let Some(pos) = self.pick_split(branch) {
                branch.splits[pos].consumed = true;
                branch.consumed_log.push(pos);
                let mut remaining = Vec::new();
                let mut satisfied = false;
                for di in 0..branch.splits[pos].formulas.len() {
                    let d = branch.splits[pos].formulas[di].clone();
                    match self.literal_status(branch, &d) {
                        LitStatus::True => {
                            satisfied = true;
                            break;
                        }
                        LitStatus::False => {}
                        LitStatus::Undecided => remaining.push(d),
                    }
                }
                if satisfied {
                    continue;
                }
                match remaining.len() {
                    0 => {
                        self.stats.branches += 1;
                        return BranchResult::Closed;
                    }
                    1 => {
                        branch.todo.push(remaining.pop().expect("len checked"));
                        continue;
                    }
                    _ => return self.split(branch, remaining),
                }
            }
            // 4. Quantifier instantiation.
            if branch.inst_rounds < self.solver.limits.max_inst_rounds {
                branch.inst_rounds += 1;
                let instances = self.instantiate(branch);
                if !instances.is_empty() {
                    self.stats.instances += instances.len();
                    branch.todo.extend(instances);
                    continue;
                }
            } else if !branch.foralls.is_empty() && self.limit_hit.is_none() {
                // The round cap stopped us from even attempting another
                // instantiation round while universals remained; more
                // rounds might have closed the branch, so report a
                // resource limit rather than a definitive open branch.
                // (A branch that *saturated* — a round produced no new
                // instances — ends with inst_rounds below the cap and
                // is reported as genuinely open.)
                self.limit_hit = Some(format!(
                    "instantiation-round limit of {} reached with universals unsaturated",
                    self.solver.limits.max_inst_rounds
                ));
            }
            // Nothing more to do: the branch stays open.
            return BranchResult::Open(self.describe_branch(branch));
        }
    }

    fn mark(&mut self, branch: &mut Branch) -> BranchMark {
        branch.cc.save();
        BranchMark {
            todo_len: branch.todo.len(),
            splits_len: branch.splits.len(),
            consumed_len: branch.consumed_log.len(),
            foralls_len: branch.foralls.len(),
            done_len: branch.done_order.len(),
            inst_rounds: branch.inst_rounds,
            relevant: branch.relevant.checkpoint(),
            reg_upto: branch.reg_upto,
        }
    }

    fn restore(&mut self, branch: &mut Branch, mark: BranchMark) {
        branch.cc.restore();
        branch.todo.truncate(mark.todo_len);
        while branch.consumed_log.len() > mark.consumed_len {
            let pos = branch.consumed_log.pop().expect("len checked");
            branch.splits[pos].consumed = false;
        }
        branch.splits.truncate(mark.splits_len);
        branch.foralls.truncate(mark.foralls_len);
        while branch.done_order.len() > mark.done_len {
            let key = branch.done_order.pop().expect("len checked");
            branch.done_instances.remove(&key);
        }
        branch.inst_rounds = mark.inst_rounds;
        branch.relevant.rollback(mark.relevant);
        branch.reg_upto = mark.reg_upto;
    }

    /// Splits the branch on the given alternatives; closed iff all
    /// close. Alternatives share one branch via savepoint/rewind (the
    /// undo trail in [`Cc`]) instead of deep-cloning per alternative;
    /// an open result propagates straight out, leaving its savepoints
    /// for the prove-level `restore_all`.
    fn split(&mut self, branch: &mut Branch, alternatives: Vec<Formula>) -> BranchResult {
        fault::point("solver.split");
        if self.out_of_budget() {
            return BranchResult::Open(vec![]);
        }
        self.stats.splits += 1;
        if self.debug && self.stats.splits <= 64 {
            let parts: Vec<String> = alternatives
                .iter()
                .map(|a| a.display(&self.solver.bank))
                .collect();
            eprintln!("[split {}] {}", self.stats.splits, parts.join("  |  "));
        }
        if self.stats.splits > self.solver.limits.max_splits {
            self.limit_hit = Some(format!(
                "case-split limit of {} exceeded",
                self.solver.limits.max_splits
            ));
            return BranchResult::Open(vec![]);
        }
        // Splits only fire once the todo queue is drained, so the mark
        // below need not capture queue contents beyond its (zero) length.
        debug_assert!(branch.todo.is_empty(), "split on a non-drained todo queue");
        let n = alternatives.len();
        for (i, alt) in alternatives.into_iter().enumerate() {
            let last = i + 1 == n;
            // The last alternative continues in place: its effects are
            // covered by the enclosing savepoint (or the prove-level
            // base savepoint at the top).
            let mark = if last { None } else { Some(self.mark(branch)) };
            branch.todo.push(alt);
            let res = self.close(branch);
            if self.debug && self.stats.splits <= 64 {
                eprintln!(
                    "[alt {i} of split] {}",
                    match &res {
                        BranchResult::Closed => "closed",
                        BranchResult::Open(_) => "open",
                    }
                );
            }
            match res {
                BranchResult::Closed => {
                    if let Some(mark) = mark {
                        self.restore(branch, mark);
                    }
                }
                open => return open,
            }
        }
        BranchResult::Closed
    }

    /// Asserts one NNF formula; returns true on immediate conflict.
    fn assert_formula(&mut self, branch: &mut Branch, f: Formula) -> bool {
        branch.relevant.mark_formula(&self.solver.bank, &f);
        match f {
            Formula::True => false,
            Formula::False => true,
            Formula::Eq(a, b) => {
                self.sync_cc(branch);
                branch.cc.merge(a, b, &self.solver.bank);
                branch.cc.in_conflict()
            }
            Formula::Holds(t) => {
                let tt = self.register_tt(branch);
                self.sync_cc(branch);
                branch.cc.merge(t, tt, &self.solver.bank);
                branch.cc.in_conflict()
            }
            Formula::Not(inner) => match *inner {
                Formula::Eq(a, b) => {
                    self.sync_cc(branch);
                    branch.cc.assert_diseq(a, b, &self.solver.bank);
                    branch.cc.in_conflict()
                }
                Formula::Holds(t) => {
                    let tt = self.register_tt(branch);
                    self.sync_cc(branch);
                    branch.cc.assert_diseq(t, tt, &self.solver.bank);
                    branch.cc.in_conflict()
                }
                other => {
                    // NNF guarantees negation only wraps atoms.
                    branch.todo.push(other.negate().nnf());
                    false
                }
            },
            Formula::And(ps) => {
                branch.todo.extend(ps);
                false
            }
            Formula::Or(ps) => {
                branch.splits.push(PendingSplit {
                    formulas: ps,
                    consumed: false,
                });
                false
            }
            f @ Formula::Forall { .. } => {
                branch.foralls.push(f);
                false
            }
            Formula::Exists { vars, body } => {
                if self.debug {
                    eprintln!(
                        "[skolemize] splits={} foralls={} inst_rounds={}",
                        branch.splits.len(),
                        branch.foralls.len(),
                        branch.inst_rounds
                    );
                }
                let mut map = Vec::with_capacity(vars.len());
                for v in vars {
                    let name = self.solver.bank.sym_name(v).to_string();
                    let sk = self.solver.fresh_skolem(&name);
                    map.push((v, sk));
                }
                let inst = body.subst(&mut self.solver.bank, &map);
                branch.todo.push(inst);
                false
            }
            Formula::Implies(_, _) | Formula::Iff(_, _) => {
                branch.todo.push(f.nnf());
                false
            }
        }
    }

    fn literal_status(&mut self, branch: &mut Branch, f: &Formula) -> LitStatus {
        self.sync_cc(branch);
        match f {
            Formula::True => LitStatus::True,
            Formula::False => LitStatus::False,
            Formula::Eq(a, b) => {
                if branch.cc.are_eq(*a, *b) {
                    LitStatus::True
                } else if branch.cc.are_diseq(*a, *b, &self.solver.bank) {
                    LitStatus::False
                } else {
                    LitStatus::Undecided
                }
            }
            Formula::Holds(t) => {
                let tt = self.register_tt(branch);
                if branch.cc.are_eq(*t, tt) {
                    LitStatus::True
                } else if branch.cc.are_diseq(*t, tt, &self.solver.bank) {
                    LitStatus::False
                } else {
                    LitStatus::Undecided
                }
            }
            Formula::Not(inner) => match self.literal_status(branch, inner) {
                LitStatus::True => LitStatus::False,
                LitStatus::False => LitStatus::True,
                LitStatus::Undecided => LitStatus::Undecided,
            },
            _ => LitStatus::Undecided,
        }
    }

    fn pick_split(&mut self, branch: &mut Branch) -> Option<usize> {
        // Prefer the smallest unconsumed disjunction (cheapest split).
        let mut best: Option<usize> = None;
        for i in 0..branch.splits.len() {
            if branch.splits[i].consumed {
                continue;
            }
            if best.map_or(true, |b| {
                branch.splits[i].formulas.len() < branch.splits[b].formulas.len()
            }) {
                best = Some(i);
            }
        }
        best
    }

    /// Array theory: for every `select(m, k)` whose map class contains
    /// an `update(m2, k2, v2)`, resolve by index (dis)equality or
    /// request a case split. The candidates come pre-classified off the
    /// relevant set (no bank scan); length snapshots keep the iteration
    /// stable while read-over-write mints new selects into the set.
    fn propagate_arrays(&mut self, branch: &mut Branch) -> ArrayStep {
        self.sync_cc(branch);
        let n_selects = branch.relevant.selects.len();
        let n_updates = branch.relevant.updates.len();
        let memo_key = (branch.cc.version(), n_selects, n_updates);
        if branch.array_quiet_at == Some(memo_key) {
            return ArrayStep::Quiet;
        }
        let mut pending_split: Option<(TermId, TermId)> = None;
        let mut progress = false;
        for si in 0..n_selects {
            let (s, m, k) = branch.relevant.selects[si];
            for ui in 0..n_updates {
                let (u, m2, k2, v2) = branch.relevant.updates[ui];
                if !branch.cc.are_eq(u, m) {
                    continue;
                }
                if branch.cc.are_eq(k, k2) {
                    if !branch.cc.are_eq(s, v2) {
                        branch.cc.merge(s, v2, &self.solver.bank);
                        progress = true;
                        if branch.cc.in_conflict() {
                            return ArrayStep::Conflict;
                        }
                    }
                } else if branch.cc.are_diseq(k, k2, &self.solver.bank) {
                    if self.minted() >= self.solver.limits.max_terms {
                        self.limit_hit = Some("term limit exceeded".into());
                        return ArrayStep::Quiet;
                    }
                    let s2 = self.solver.select(m2, k);
                    branch.relevant.mark_term(&self.solver.bank, s2);
                    self.sync_cc(branch);
                    if !branch.cc.are_eq(s, s2) {
                        branch.cc.merge(s, s2, &self.solver.bank);
                        progress = true;
                        if branch.cc.in_conflict() {
                            return ArrayStep::Conflict;
                        }
                    }
                } else if pending_split.is_none() {
                    pending_split = Some((k, k2));
                }
            }
        }
        if progress {
            ArrayStep::Progress
        } else if let Some((k, k2)) = pending_split {
            ArrayStep::Split(k, k2)
        } else {
            branch.array_quiet_at = Some(memo_key);
            ArrayStep::Quiet
        }
    }

    /// Trigger-based instantiation of universal hypotheses.
    fn instantiate(&mut self, branch: &mut Branch) -> Vec<Formula> {
        let mut out = Vec::new();
        for fi in 0..branch.foralls.len() {
            let (vars, triggers) = match &branch.foralls[fi] {
                Formula::Forall { vars, triggers, .. } => (vars.clone(), triggers.clone()),
                _ => continue,
            };
            let bindings = if triggers.is_empty() {
                enumerate_bindings(&self.solver.bank, &branch.relevant, &vars)
            } else {
                let mut all = Vec::new();
                for &trig in &triggers {
                    match_trigger(&self.solver.bank, &branch.relevant, trig, &vars, &mut all);
                }
                all
            };
            for binding in bindings {
                let key = (fi, InstKey::of(&vars, &binding));
                if branch.done_instances.contains(&key) {
                    continue;
                }
                // Limit and budget checks come BEFORE the done-instance
                // bookkeeping: an instance discarded by a tripped limit
                // must stay eligible for a later round or a retry at a
                // larger budget, not be remembered as already produced.
                if self.minted() >= self.solver.limits.max_terms {
                    self.limit_hit = Some("term limit exceeded during instantiation".into());
                    return out;
                }
                if self.out_of_budget() {
                    return out;
                }
                branch.done_instances.insert(key.clone());
                branch.done_order.push(key);
                let Formula::Forall { body, .. } = &branch.foralls[fi] else {
                    unreachable!("checked above");
                };
                let body = (**body).clone();
                out.push(body.subst(&mut self.solver.bank, &binding));
            }
        }
        out
    }

    /// Renders the open branch as a counterexample context (the paper's
    /// §7 error-reporting artifact): the equivalence classes the branch
    /// committed to among named constants, plus whatever remained
    /// undecided or unsaturated. Iterates the relevant set in mark
    /// order — never numeric `TermId` order, which depends on the bank
    /// layout — so the rendering is identical under fresh and
    /// batch-shared banks.
    fn describe_branch(&mut self, branch: &mut Branch) -> Vec<String> {
        let mut out = Vec::new();
        // Merged classes among the branch's named constants.
        let named: Vec<TermId> = branch
            .relevant
            .order
            .iter()
            .map(|&(t, _)| t)
            .filter(|&t| matches!(self.solver.bank.data(t), TermData::App(_, args) if args.is_empty()))
            .collect();
        let mut classes: FastMap<TermId, Vec<TermId>> = FastMap::default();
        for t in named {
            let r = branch.cc.find(t);
            classes.entry(r).or_default().push(t);
        }
        let mut class_lines: Vec<String> = classes
            .values()
            .filter(|members| members.len() > 1)
            .map(|members| {
                let names: Vec<String> = members
                    .iter()
                    .map(|&t| self.solver.bank.display(t))
                    .collect();
                format!("assumed equal: {}", names.join(" = "))
            })
            .collect();
        class_lines.sort();
        out.extend(class_lines.into_iter().take(6));
        // Render only as many groups as could survive the clamp below;
        // large VCs would otherwise build multi-KB strings just to
        // throw them away.
        let room = MAX_CONTEXT_LITERALS + 1;
        let mut dropped = 0usize;
        for group in &branch.splits {
            if group.consumed {
                continue;
            }
            if out.len() >= room {
                dropped += 1;
                continue;
            }
            let parts: Vec<String> = group
                .formulas
                .iter()
                .map(|g| g.display(&self.solver.bank))
                .collect();
            out.push(format!("undecided: (or {})", parts.join(" ")));
        }
        for f in &branch.foralls {
            if out.len() >= room {
                dropped += 1;
                continue;
            }
            out.push(format!("unsaturated: {}", f.display(&self.solver.bank)));
        }
        out.extend(std::iter::repeat_with(String::new).take(dropped));
        clamp_context(&mut out, MAX_CONTEXT_LITERALS, MAX_CONTEXT_LITERAL_CHARS);
        out
    }
}

/// A quantifier-instantiation binding. A plain vector, not a hash
/// table: quantifier prefixes bind a handful of variables, and bindings
/// are created (and discarded) once per matching candidate — linear
/// scans win on both fronts.
type Binding = Vec<(Sym, TermId)>;

/// The term `v` is bound to, if any.
fn bound(binding: &Binding, v: Sym) -> Option<TermId> {
    binding.iter().find(|&&(s, _)| s == v).map(|&(_, t)| t)
}

/// For trigger-less single-variable quantifiers: every ground term
/// relevant to the branch (capped), in mark order.
fn enumerate_bindings(
    bank: &TermBank,
    relevant: &RelevantSet,
    vars: &[Sym],
) -> Vec<Binding> {
    if vars.len() != 1 {
        return Vec::new();
    }
    const ENUM_CAP: usize = 512;
    let mut out = Vec::new();
    for &(t, _) in relevant.order.iter().take(ENUM_CAP) {
        if matches!(bank.data(t), TermData::Var(_)) || bank.has_var(t) {
            continue;
        }
        out.push(vec![(vars[0], t)]);
    }
    out
}

/// Matches one trigger pattern against the branch's ground terms,
/// appending complete bindings to `out`. An application trigger only
/// consults the `by_top` bucket for its head symbol — the common case —
/// instead of scanning every relevant term.
fn match_trigger(
    bank: &TermBank,
    relevant: &RelevantSet,
    trigger: TermId,
    vars: &[Sym],
    out: &mut Vec<Binding>,
) {
    let candidates: Box<dyn Iterator<Item = TermId> + '_> = match bank.data(trigger) {
        TermData::App(f, _) => match relevant.by_top.get(f) {
            Some(bucket) => Box::new(bucket.iter().copied()),
            None => return,
        },
        // Rare non-application trigger: fall back to the full mark-order
        // scan of ground terms.
        _ => Box::new(
            relevant
                .order
                .iter()
                .map(|&(t, _)| t)
                .filter(|&t| !bank.has_var(t)),
        ),
    };
    for t in candidates {
        let mut binding = Binding::new();
        if match_pattern(bank, trigger, t, &mut binding)
            && vars.iter().all(|v| bound(&binding, *v).is_some())
        {
            out.push(binding);
        }
    }
}

fn match_pattern(
    bank: &TermBank,
    pat: TermId,
    t: TermId,
    binding: &mut Binding,
) -> bool {
    match bank.data(pat) {
        TermData::Var(v) => match bound(binding, *v) {
            Some(prev) => prev == t,
            None => {
                binding.push((*v, t));
                true
            }
        },
        TermData::Int(n) => matches!(bank.data(t), TermData::Int(m) if m == n),
        TermData::App(f, pargs) => match bank.data(t) {
            TermData::App(g, targs) if g == f && targs.len() == pargs.len() => pargs
                .iter()
                .zip(targs.iter())
                .all(|(&p, &a)| match_pattern(bank, p, a, binding)),
            _ => false,
        },
    }
}

enum LitStatus {
    True,
    False,
    Undecided,
}

enum ArrayStep {
    Quiet,
    Progress,
    Conflict,
    Split(TermId, TermId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_support::pool::Cancel;

    fn prove(solver: &mut Solver, hyps: Vec<Formula>, goal: Formula) -> bool {
        solver
            .prove(&ProofTask {
                hypotheses: hyps,
                goal,
            })
            .is_proved()
    }

    #[test]
    fn euf_transitivity_and_congruence() {
        let mut s = Solver::new();
        let f = s.bank.sym("f");
        let (x, y, z) = (s.bank.app0("x"), s.bank.app0("y"), s.bank.app0("z"));
        let fx = s.bank.app(f, vec![x]);
        let fz = s.bank.app(f, vec![z]);
        assert!(prove(
            &mut s,
            vec![Formula::Eq(x, y), Formula::Eq(y, z)],
            Formula::Eq(fx, fz)
        ));
    }

    #[test]
    fn unprovable_goal_is_unknown() {
        let mut s = Solver::new();
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: vec![],
            goal: Formula::Eq(x, y),
        });
        assert!(!out.is_proved());
        if let Outcome::Unknown { reason, .. } = out {
            assert!(reason.contains("open branch"), "{reason}");
        }
    }

    #[test]
    fn modus_ponens_via_disjunction() {
        let mut s = Solver::new();
        let p = s.bank.app0("p");
        let q = s.bank.app0("q");
        let hyp1 = Formula::implies(Formula::Holds(p), Formula::Holds(q));
        let hyp2 = Formula::Holds(p);
        assert!(prove(&mut s, vec![hyp1, hyp2], Formula::Holds(q)));
    }

    #[test]
    fn case_split_on_disjunction() {
        let mut s = Solver::new();
        let (a, b, c) = (s.bank.app0("a"), s.bank.app0("b"), s.bank.app0("c"));
        // (a=c ∨ b=c) ∧ a=b ⊨ b=c
        let hyp = Formula::or([Formula::Eq(a, c), Formula::Eq(b, c)]);
        assert!(prove(
            &mut s,
            vec![hyp, Formula::Eq(a, b)],
            Formula::Eq(b, c)
        ));
    }

    #[test]
    fn read_over_write_same_key() {
        let mut s = Solver::new();
        let m = s.bank.app0("m");
        let k = s.bank.app0("k");
        let v = s.bank.app0("v");
        let upd = s.update(m, k, v);
        let sel = s.select(upd, k);
        assert!(prove(&mut s, vec![], Formula::Eq(sel, v)));
    }

    #[test]
    fn read_over_write_distinct_key() {
        let mut s = Solver::new();
        let m = s.bank.app0("m");
        let (k1, k2) = (s.bank.app0("k1"), s.bank.app0("k2"));
        let v = s.bank.app0("v");
        let upd = s.update(m, k1, v);
        let sel = s.select(upd, k2);
        let sel0 = s.select(m, k2);
        assert!(prove(
            &mut s,
            vec![Formula::ne(k1, k2)],
            Formula::Eq(sel, sel0)
        ));
    }

    #[test]
    fn read_over_write_requires_case_split() {
        let mut s = Solver::new();
        let m = s.bank.app0("m");
        let (k1, k2) = (s.bank.app0("k1"), s.bank.app0("k2"));
        let v = s.bank.app0("v");
        let upd = s.update(m, k1, v);
        let sel = s.select(upd, k2);
        let sel0 = s.select(m, k2);
        // Without knowing k1 vs k2: select(update(m,k1,v),k2) is either v
        // (if k1=k2) or select(m,k2). Prove the disjunction.
        let goal = Formula::or([Formula::Eq(sel, v), Formula::Eq(sel, sel0)]);
        assert!(prove(&mut s, vec![], goal));
    }

    #[test]
    fn nested_updates() {
        let mut s = Solver::new();
        let m = s.bank.app0("m");
        let (k1, k2) = (s.bank.app0("k1"), s.bank.app0("k2"));
        let (v1, v2) = (s.bank.app0("v1"), s.bank.app0("v2"));
        let u1 = s.update(m, k1, v1);
        let u2 = s.update(u1, k2, v2);
        let sel = s.select(u2, k1);
        // k1 ≠ k2 ⊨ select(update(update(m,k1,v1),k2,v2), k1) = v1
        assert!(prove(
            &mut s,
            vec![Formula::ne(k1, k2)],
            Formula::Eq(sel, v1)
        ));
    }

    #[test]
    fn constructors_discriminate() {
        let mut s = Solver::new();
        let skip = s.bank.constructor("skip");
        let decl = s.bank.constructor("decl");
        let x = s.bank.app0("x");
        let sk = s.bank.app(skip, vec![]);
        let dc = s.bank.app(decl, vec![x]);
        let cur = s.bank.app0("cur");
        // cur = skip ⊨ ¬(cur = decl(x))
        assert!(prove(
            &mut s,
            vec![Formula::Eq(cur, sk)],
            Formula::ne(cur, dc)
        ));
    }

    #[test]
    fn constructor_injectivity_proves_arg_equality() {
        let mut s = Solver::new();
        let c = s.bank.constructor("intval");
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let cx = s.bank.app(c, vec![x]);
        let cy = s.bank.app(c, vec![y]);
        assert!(prove(
            &mut s,
            vec![Formula::Eq(cx, cy)],
            Formula::Eq(x, y)
        ));
    }

    #[test]
    fn distinct_int_literals() {
        let mut s = Solver::new();
        let zero = s.bank.int(0);
        let one = s.bank.int(1);
        assert!(prove(&mut s, vec![], Formula::ne(zero, one)));
    }

    #[test]
    fn skolemization_of_universal_goal() {
        let mut s = Solver::new();
        // hyp: ∀v. f(v) = a  ⊨  goal: ∀w. f(w) = a
        let fsym = s.bank.sym("f");
        let a = s.bank.app0("a");
        let vsym = s.bank.sym("V");
        let v = s.bank.var("V");
        let fv = s.bank.app(fsym, vec![v]);
        let hyp = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![fv],
            body: Box::new(Formula::Eq(fv, a)),
        };
        let wsym = s.bank.sym("W");
        let w = s.bank.var("W");
        let fw = s.bank.app(fsym, vec![w]);
        let goal = Formula::Forall {
            vars: vec![wsym],
            triggers: vec![],
            body: Box::new(Formula::Eq(fw, a)),
        };
        assert!(prove(&mut s, vec![hyp], goal));
    }

    #[test]
    fn instantiation_with_guard() {
        let mut s = Solver::new();
        // ∀v. v ≠ k ⇒ select(m, v) = select(n, v); c ≠ k
        // ⊨ select(m, c) = select(n, c)
        let (m, n, k, c) = (
            s.bank.app0("m"),
            s.bank.app0("n"),
            s.bank.app0("k"),
            s.bank.app0("c"),
        );
        let vsym = s.bank.sym("V");
        let v = s.bank.var("V");
        let sel_mv = s.select(m, v);
        let sel_nv = s.select(n, v);
        let hyp = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![sel_mv],
            body: Box::new(Formula::implies(
                Formula::ne(v, k),
                Formula::Eq(sel_mv, sel_nv),
            )),
        };
        let sel_mc = s.select(m, c);
        let sel_nc = s.select(n, c);
        assert!(prove(
            &mut s,
            vec![hyp, Formula::ne(c, k)],
            Formula::Eq(sel_mc, sel_nc)
        ));
    }

    #[test]
    fn enumeration_fallback_for_triggerless_forall() {
        let mut s = Solver::new();
        let p = s.bank.sym("p");
        let a = s.bank.app0("a");
        let vsym = s.bank.sym("V");
        let v = s.bank.var("V");
        let pv = s.bank.app(p, vec![v]);
        let hyp = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![],
            body: Box::new(Formula::Holds(pv)),
        };
        let pa = s.bank.app(p, vec![a]);
        assert!(prove(&mut s, vec![hyp], Formula::Holds(pa)));
    }

    #[test]
    fn split_limit_reports_unknown() {
        let mut s = Solver::with_limits(Limits {
            max_splits: 1,
            ..Limits::default()
        });
        let atoms: Vec<TermId> = (0..6).map(|i| s.bank.app0(&format!("a{i}"))).collect();
        let target = s.bank.app0("t");
        let hyps: Vec<Formula> = atoms
            .chunks(2)
            .map(|c| Formula::or([Formula::Eq(c[0], target), Formula::Eq(c[1], target)]))
            .collect();
        let impossible = Formula::Eq(atoms[0], atoms[1]);
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: impossible,
        });
        assert!(!out.is_proved());
    }

    /// A task needing many case splits: n binary disjunctions over
    /// fresh atoms with an impossible goal.
    fn split_heavy_task(s: &mut Solver, n: usize) -> ProofTask {
        let atoms: Vec<TermId> = (0..2 * n).map(|i| s.bank.app0(&format!("a{i}"))).collect();
        let target = s.bank.app0("t");
        let hyps: Vec<Formula> = atoms
            .chunks(2)
            .map(|c| Formula::or([Formula::Eq(c[0], target), Formula::Eq(c[1], target)]))
            .collect();
        ProofTask {
            hypotheses: hyps,
            goal: Formula::Eq(atoms[0], atoms[1]),
        }
    }

    #[test]
    fn deadline_zero_reports_resource_limit() {
        let mut s = Solver::with_limits(Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        });
        let task = split_heavy_task(&mut s, 8);
        let out = s.prove(&task);
        assert!(out.is_resource_limited(), "{out:?}");
        if let Outcome::Unknown { reason, .. } = &out {
            assert!(reason.contains("deadline exceeded"), "{reason}");
        }
    }

    #[test]
    fn budget_deadline_merges_with_limits_deadline() {
        let mut s = Solver::with_limits(Limits {
            deadline: Some(Duration::from_secs(3600)),
            ..Limits::default()
        });
        s.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let task = split_heavy_task(&mut s, 8);
        assert!(s.prove(&task).is_resource_limited());
    }

    #[test]
    fn step_cap_reports_resource_limit() {
        let mut s = Solver::new();
        s.set_budget(Budget::unlimited().with_max_steps(3));
        let task = split_heavy_task(&mut s, 8);
        let out = s.prove(&task);
        assert!(out.is_resource_limited(), "{out:?}");
        if let Outcome::Unknown { reason, .. } = &out {
            assert!(reason.contains("step cap"), "{reason}");
        }
    }

    #[test]
    fn cancel_token_aborts_search() {
        let mut s = Solver::new();
        let cancel = Cancel::new();
        s.set_budget(Budget::unlimited().with_cancel(cancel.clone()));
        cancel.trip();
        let task = split_heavy_task(&mut s, 8);
        let out = s.prove(&task);
        assert!(out.is_resource_limited(), "{out:?}");
        if let Outcome::Unknown { reason, .. } = &out {
            assert!(reason.contains("cancelled"), "{reason}");
        }
    }

    #[test]
    fn cancelled_solver_never_starts_a_tableau() {
        // Regression: a pre-tripped cancel token (the caller withdrew
        // the run) must fast-fail before NNF and congruence-closure
        // setup, like the zero-deadline path.
        let mut s = Solver::new();
        let cancel = Cancel::new();
        cancel.trip();
        s.set_budget(Budget::unlimited().with_cancel(cancel));
        // A provable goal: only the fast-fail can explain an Unknown.
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: vec![Formula::Eq(x, y)],
            goal: Formula::Eq(y, x),
        });
        assert!(out.is_resource_limited(), "{out:?}");
        let Outcome::Unknown { reason, stats, .. } = out else {
            panic!("expected Unknown");
        };
        assert!(reason.contains("cancelled by caller before search"), "{reason}");
        assert_eq!(stats, Stats::default(), "no search work may have happened");
    }

    #[test]
    fn expired_deadline_never_starts_a_tableau() {
        let mut s = Solver::new();
        s.set_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: vec![Formula::Eq(x, y)],
            goal: Formula::Eq(y, x),
        });
        assert!(out.is_resource_limited(), "{out:?}");
        let Outcome::Unknown { reason, stats, .. } = out else {
            panic!("expected Unknown");
        };
        assert!(reason.contains("before search began"), "{reason}");
        assert_eq!(stats, Stats::default());
    }

    #[test]
    fn budget_does_not_disturb_successful_proofs() {
        let mut s = Solver::new();
        s.set_budget(Budget::unlimited().with_deadline(Duration::from_secs(60)));
        let f = s.bank.sym("f");
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let fx = s.bank.app(f, vec![x]);
        let fy = s.bank.app(f, vec![y]);
        assert!(prove(&mut s, vec![Formula::Eq(x, y)], Formula::Eq(fx, fy)));
    }

    #[test]
    fn degenerate_zero_limits_fail_fast_without_panic() {
        // Regression: max_terms 0 used to be noticed only once
        // instantiation began; it must short-circuit before search.
        let mut s = Solver::with_limits(Limits {
            max_splits: 0,
            max_terms: 0,
            max_inst_rounds: 0,
            deadline: None,
        });
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let start = Instant::now();
        let out = s.prove(&ProofTask {
            hypotheses: vec![Formula::Eq(x, y)],
            goal: Formula::Eq(y, x),
        });
        assert!(out.is_resource_limited(), "{out:?}");
        if let Outcome::Unknown { reason, .. } = &out {
            assert!(reason.contains("term limit"), "{reason}");
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn split_limit_is_flagged_as_resource_limit() {
        let mut s = Solver::with_limits(Limits {
            max_splits: 1,
            ..Limits::default()
        });
        let task = split_heavy_task(&mut s, 3);
        let out = s.prove(&task);
        assert!(!out.is_proved());
        assert!(out.is_resource_limited(), "{out:?}");
    }

    #[test]
    fn saturated_open_branch_is_not_resource_limited() {
        let mut s = Solver::new();
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: vec![],
            goal: Formula::Eq(x, y),
        });
        assert!(!out.is_proved());
        assert!(!out.is_resource_limited(), "{out:?}");
    }

    #[test]
    fn inst_round_cap_with_unsaturated_foralls_is_a_limit() {
        let mut s = Solver::with_limits(Limits {
            max_inst_rounds: 0,
            ..Limits::default()
        });
        let p = s.bank.sym("p");
        let a = s.bank.app0("a");
        let vsym = s.bank.sym("V");
        let v = s.bank.var("V");
        let pv = s.bank.app(p, vec![v]);
        let hyp = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![],
            body: Box::new(Formula::Holds(pv)),
        };
        let pa = s.bank.app(p, vec![a]);
        let out = s.prove(&ProofTask {
            hypotheses: vec![hyp],
            goal: Formula::Holds(pa),
        });
        assert!(!out.is_proved());
        assert!(out.is_resource_limited(), "{out:?}");
    }

    #[test]
    fn open_branch_context_is_clamped() {
        let mut s = Solver::new();
        // 30 unsaturated universals (two vars, no triggers: never
        // instantiated) → far more context lines than the clamp
        // allows; one of them mentions an enormous ground term so a
        // single rendered literal would exceed the length clamp too.
        let p = s.bank.sym("p");
        let f = s.bank.sym("f");
        let mut deep = s.bank.app0("leaf_with_a_rather_long_name");
        for _ in 0..80 {
            deep = s.bank.app(f, vec![deep]);
        }
        let mut hyps = Vec::new();
        for i in 0..30 {
            let vsym = s.bank.sym(&format!("V{i}"));
            let wsym = s.bank.sym(&format!("W{i}"));
            let v = s.bank.var(&format!("V{i}"));
            let w = s.bank.var(&format!("W{i}"));
            let body = s.bank.app(p, vec![v, w, deep]);
            hyps.push(Formula::Forall {
                vars: vec![vsym, wsym],
                triggers: vec![],
                body: Box::new(Formula::Holds(body)),
            });
        }
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: Formula::Eq(x, y),
        });
        let Outcome::Unknown { open_branch, .. } = out else {
            panic!("expected Unknown");
        };
        assert!(
            open_branch.len() <= MAX_CONTEXT_LITERALS + 1,
            "{} lines",
            open_branch.len()
        );
        assert!(
            open_branch.last().unwrap().contains("more)"),
            "expected a (+N more) marker, got {:?}",
            open_branch.last()
        );
        for lit in &open_branch {
            assert!(
                lit.chars().count() <= MAX_CONTEXT_LITERAL_CHARS,
                "literal too long: {} chars",
                lit.chars().count()
            );
        }
    }

    #[test]
    fn clamp_context_helper_behaviour() {
        let mut lits: Vec<String> = (0..20).map(|i| format!("lit{i}")).collect();
        clamp_context(&mut lits, 5, 100);
        assert_eq!(lits.len(), 6);
        assert_eq!(lits[5], "… (+15 more)");
        let mut long = vec!["x".repeat(500)];
        clamp_context(&mut long, 5, 10);
        assert!(long[0].chars().count() <= 10);
        assert!(long[0].ends_with('…'));
        let mut small = vec!["a".to_string()];
        clamp_context(&mut small, 5, 10);
        assert_eq!(small, vec!["a".to_string()]);
    }

    #[test]
    fn fault_point_in_prove_is_isolated_by_caller() {
        cobalt_support::fault::with_faults("solver.prove:panic@1", || {
            let result = std::panic::catch_unwind(|| {
                let mut s = Solver::new();
                let x = s.bank.app0("x");
                s.prove(&ProofTask {
                    hypotheses: vec![],
                    goal: Formula::Eq(x, x),
                })
            });
            assert!(result.is_err(), "injected panic must fire");
        });
    }

    #[test]
    fn iff_in_hypotheses() {
        let mut s = Solver::new();
        let p = s.bank.app0("p");
        let q = s.bank.app0("q");
        let hyp = Formula::Iff(Box::new(Formula::Holds(p)), Box::new(Formula::Holds(q)));
        assert!(prove(
            &mut s,
            vec![hyp, Formula::Holds(q)],
            Formula::Holds(p)
        ));
    }

    #[test]
    fn proof_by_contradiction_with_negated_predicate() {
        let mut s = Solver::new();
        let p = s.bank.app0("p");
        assert!(prove(
            &mut s,
            vec![Formula::Holds(p).negate(), Formula::Holds(p)],
            Formula::False
        ));
    }

    #[test]
    fn solver_is_reusable_across_prove_calls() {
        // The cached congruence context must rewind completely between
        // calls: a merge assumed in one proof must not leak into the
        // next, and the next proof must still see the whole bank.
        let mut s = Solver::new();
        let f = s.bank.sym("f");
        let (x, y, z) = (s.bank.app0("x"), s.bank.app0("y"), s.bank.app0("z"));
        let fx = s.bank.app(f, vec![x]);
        let fy = s.bank.app(f, vec![y]);
        assert!(prove(&mut s, vec![Formula::Eq(x, y)], Formula::Eq(fx, fy)));
        // x = y was only an assumption of the previous task.
        let out = s.prove(&ProofTask {
            hypotheses: vec![],
            goal: Formula::Eq(x, y),
        });
        assert!(!out.is_proved());
        // And a third call still proves with hypotheses spanning the
        // whole (never-rolled-back) bank.
        assert!(prove(
            &mut s,
            vec![Formula::Eq(x, z), Formula::Eq(z, y)],
            Formula::Eq(fx, fy)
        ));
    }

    #[test]
    fn term_limit_counts_minted_terms_not_bank_size() {
        // A big up-front vocabulary must not eat into the search's term
        // budget: the cap bounds terms minted during prove.
        let mut s = Solver::new();
        for i in 0..100 {
            s.bank.app0(&format!("pre{i}"));
        }
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        s.set_limits(Limits {
            max_terms: 1,
            ..Limits::default()
        });
        assert!(prove(&mut s, vec![Formula::Eq(x, y)], Formula::Eq(y, x)));
    }

    #[test]
    fn contradictory_hypotheses_close_without_search() {
        let mut s = Solver::new();
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        let out = s.prove(&ProofTask {
            hypotheses: vec![Formula::Eq(x, y), Formula::ne(x, y)],
            goal: Formula::False,
        });
        match out {
            Outcome::Proved { stats, .. } => {
                assert_eq!(stats.branches, 1);
                assert_eq!(stats.splits, 0);
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn false_hypothesis_proves_anything() {
        let mut s = Solver::new();
        let (x, y) = (s.bank.app0("x"), s.bank.app0("y"));
        assert!(prove(&mut s, vec![Formula::False], Formula::Eq(x, y)));
    }

    #[test]
    fn duplicate_hypotheses_are_deduplicated() {
        let mut s = Solver::new();
        let (a, b, c) = (s.bank.app0("a"), s.bank.app0("b"), s.bank.app0("c"));
        let disj = Formula::or([Formula::Eq(a, c), Formula::Eq(b, c)]);
        // Ten copies of the same disjunction must cost one split, not ten.
        let hyps: Vec<Formula> = std::iter::repeat_with(|| disj.clone())
            .take(10)
            .chain([Formula::Eq(a, b)])
            .collect();
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: Formula::Eq(b, c),
        });
        match out {
            Outcome::Proved { stats, .. } => {
                assert!(stats.splits <= 1, "splits: {}", stats.splits);
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }

    #[test]
    fn overlay_solver_proves_against_shared_base() {
        // Batch mode: encode a vocabulary once, freeze it, and prove in
        // an overlay. Skolems minted by the overlay stay private.
        let mut base = TermBank::new();
        let f = base.sym("f");
        let a = base.app0("a");
        let vsym = base.sym("V");
        let v = base.var("V");
        let fv = base.app(f, vec![v]);
        let hyp = Formula::Forall {
            vars: vec![vsym],
            triggers: vec![fv],
            body: Box::new(Formula::Eq(fv, a)),
        };
        let frozen = base.freeze();
        let mut s1 = Solver::with_base_bank(frozen.clone());
        let mut s2 = Solver::with_base_bank(frozen);
        let fa1 = {
            let aa = s1.bank.app0("a");
            s1.bank.app(f, vec![aa])
        };
        assert!(prove(&mut s1, vec![hyp.clone()], Formula::Eq(fa1, a)));
        let fa2 = {
            let aa = s2.bank.app0("a");
            s2.bank.app(f, vec![aa])
        };
        assert!(prove(&mut s2, vec![hyp], Formula::Eq(fa2, a)));
    }

    #[test]
    fn stats_are_recorded() {
        let mut s = Solver::new();
        let m = s.bank.app0("m");
        let (k1, k2) = (s.bank.app0("k1"), s.bank.app0("k2"));
        let v = s.bank.app0("v");
        let upd = s.update(m, k1, v);
        let sel = s.select(upd, k2);
        let sel0 = s.select(m, k2);
        let goal = Formula::or([Formula::Eq(sel, v), Formula::Eq(sel, sel0)]);
        let out = s.prove(&ProofTask {
            hypotheses: vec![],
            goal,
        });
        match out {
            Outcome::Proved { stats, .. } => {
                assert!(stats.branches >= 1);
            }
            other => panic!("expected proof, got {other:?}"),
        }
    }
}
