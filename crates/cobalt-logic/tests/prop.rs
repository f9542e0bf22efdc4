//! Property tests for the prover against independent oracles.
//!
//! Soundness is the property that matters most — a prover that "proves"
//! invalid obligations would silently certify unsound optimizations —
//! so every generator below builds problems whose validity is decided
//! by an oracle that shares no code with the solver: a plain union-find
//! for equality reasoning, concrete map evaluation for arrays, and
//! truth-table enumeration for propositional structure. The congruence
//! core's undo trail is checked differently: against a context rebuilt
//! without savepoints from the operations that survive.

use cobalt_logic::{Cc, Formula, ProofTask, Solver, TermBank, TermId};
use cobalt_support::prop::{any_bool, vec, Config};
use cobalt_support::{prop_assert_eq, props};

// ---------------------------------------------------------------------
// Equality closure over constants, oracle: naive union-find.
// ---------------------------------------------------------------------

fn uf_find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        x = parent[x];
    }
    x
}

props! {
    config = Config::with_cases(128);

    fn equality_reasoning_matches_union_find(
        eqs in vec((0usize..6, 0usize..6), 0..8),
        goal in (0usize..6, 0usize..6),
    ) {
        // Oracle.
        let mut parent: Vec<usize> = (0..6).collect();
        for &(a, b) in &eqs {
            let (ra, rb) = (uf_find(&mut parent, a), uf_find(&mut parent, b));
            parent[ra] = rb;
        }
        let expected = uf_find(&mut parent, goal.0) == uf_find(&mut parent, goal.1);

        // Prover.
        let mut s = Solver::new();
        let consts: Vec<_> = (0..6).map(|i| s.bank.app0(&format!("c{i}"))).collect();
        let hyps: Vec<Formula> = eqs
            .iter()
            .map(|&(a, b)| Formula::Eq(consts[a], consts[b]))
            .collect();
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: Formula::Eq(consts[goal.0], consts[goal.1]),
        });
        // Completeness: implied equalities are proved. Soundness: a
        // non-implied equality has a countermodel (distinct values per
        // class) and must NOT be proved.
        prop_assert_eq!(out.is_proved(), expected);
    }

    fn congruence_is_sound(
        eqs in vec((0usize..4, 0usize..4), 0..5),
        probe in (0usize..4, 0usize..4),
    ) {
        // Oracle on f-applications: f(a) = f(b) iff a ~ b (freeness).
        let mut parent: Vec<usize> = (0..4).collect();
        for &(a, b) in &eqs {
            let (ra, rb) = (uf_find(&mut parent, a), uf_find(&mut parent, b));
            parent[ra] = rb;
        }
        let expected = uf_find(&mut parent, probe.0) == uf_find(&mut parent, probe.1);

        let mut s = Solver::new();
        let f = s.bank.sym("f");
        let consts: Vec<_> = (0..4).map(|i| s.bank.app0(&format!("c{i}"))).collect();
        let apps: Vec<_> = consts.iter().map(|&c| s.bank.app(f, vec![c])).collect();
        let hyps: Vec<Formula> = eqs
            .iter()
            .map(|&(a, b)| Formula::Eq(consts[a], consts[b]))
            .collect();
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: Formula::Eq(apps[probe.0], apps[probe.1]),
        });
        // f(a) = f(b) is implied exactly when a ~ b for a free f.
        prop_assert_eq!(out.is_proved(), expected);
    }

    // -----------------------------------------------------------------
    // Arrays with concrete integer keys, oracle: a BTreeMap.
    // -----------------------------------------------------------------

    fn array_reads_match_concrete_maps(
        writes in vec((0i64..5, 0i64..100), 1..8),
        probe in 0i64..5,
        corrupt in any_bool(),
    ) {
        use std::collections::BTreeMap;
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        for &(k, v) in &writes {
            model.insert(k, v);
        }
        let Some(&expected) = model.get(&probe) else {
            // Reading an unwritten key yields the base map's value;
            // nothing to check.
            return Ok(());
        };

        let mut s = Solver::new();
        let base = s.bank.app0("m0");
        let mut m = base;
        for &(k, v) in &writes {
            let kt = s.bank.int(k);
            let vt = s.bank.int(v);
            m = s.update(m, kt, vt);
        }
        let probe_t = s.bank.int(probe);
        let read = s.select(m, probe_t);
        let claim = if corrupt { expected + 1 } else { expected };
        let claim_t = s.bank.int(claim);
        let out = s.prove(&ProofTask {
            hypotheses: vec![],
            goal: Formula::Eq(read, claim_t),
        });
        prop_assert_eq!(out.is_proved(), !corrupt);
    }

    // -----------------------------------------------------------------
    // Propositional structure, oracle: truth tables.
    // -----------------------------------------------------------------

    fn propositional_implication_matches_truth_tables(
        clauses in vec(vec((0usize..4, any_bool()), 1..3), 0..4),
        goal_atom in 0usize..4,
        goal_neg in any_bool(),
    ) {
        // Oracle: hyps ⊨ goal iff every assignment satisfying all
        // clauses satisfies the goal literal.
        let eval_lit = |assign: usize, (atom, neg): (usize, bool)| -> bool {
            let v = assign & (1 << atom) != 0;
            if neg { !v } else { v }
        };
        let mut expected = true;
        for assign in 0..16usize {
            let hyps_hold = clauses
                .iter()
                .all(|cl| cl.iter().any(|&l| eval_lit(assign, l)));
            if hyps_hold && !eval_lit(assign, (goal_atom, goal_neg)) {
                expected = false;
                break;
            }
        }

        let mut s = Solver::new();
        let atoms: Vec<_> = (0..4).map(|i| s.bank.app0(&format!("p{i}"))).collect();
        let lit = |(atom, neg): (usize, bool)| -> Formula {
            let f = Formula::Holds(atoms[atom]);
            if neg {
                f.negate()
            } else {
                f
            }
        };
        let hyps: Vec<Formula> = clauses
            .iter()
            .map(|cl| Formula::or(cl.iter().map(|&l| lit(l))))
            .collect();
        let out = s.prove(&ProofTask {
            hypotheses: hyps,
            goal: lit((goal_atom, goal_neg)),
        });
        prop_assert_eq!(out.is_proved(), expected, "clauses {:?}", clauses);
    }
}

// ---------------------------------------------------------------------
// Congruence-closure undo, oracle: a context rebuilt without savepoints
// from the operations that survive every restore.
// ---------------------------------------------------------------------

/// A small term universe nested to depth 2: three constants `c0..c2`,
/// the integers 0 and 1, a unary free symbol `f` and a binary
/// constructor `pair`. The constants come first.
fn cc_universe() -> (TermBank, Vec<TermId>) {
    let mut bank = TermBank::new();
    let f = bank.sym("f");
    let pair = bank.constructor("pair");
    let c: Vec<TermId> = (0..3).map(|i| bank.app0(&format!("c{i}"))).collect();
    let (zero, one) = (bank.int(0), bank.int(1));
    let fc: Vec<TermId> = c.iter().map(|&x| bank.app(f, vec![x])).collect();
    let p0 = bank.app(pair, vec![c[0], zero]);
    let p1 = bank.app(pair, vec![c[1], one]);
    let mut terms = c.clone();
    terms.extend([zero, one]);
    terms.extend(&fc);
    terms.extend([p0, p1]);
    terms.push(bank.app(f, vec![fc[0]]));
    terms.push(bank.app(pair, vec![fc[1], c[2]]));
    terms.push(bank.app(f, vec![p1]));
    (bank, terms)
}

/// One trailed mutation of a congruence-closure script. `Merge` and
/// `Diseq` register their operands first, as the solver does; `Union`
/// merges terms that may never have been registered.
#[derive(Debug, Clone, Copy)]
enum CcOp {
    Register(TermId),
    Merge(TermId, TermId),
    Diseq(TermId, TermId),
    Union(TermId, TermId),
}

fn cc_apply(cc: &mut Cc, bank: &TermBank, op: CcOp) {
    match op {
        CcOp::Register(t) => cc.register(t, bank),
        CcOp::Merge(a, b) => {
            cc.register(a, bank);
            cc.register(b, bank);
            cc.merge(a, b, bank);
        }
        CcOp::Diseq(a, b) => {
            cc.register(a, bank);
            cc.register(b, bank);
            cc.assert_diseq(a, b);
        }
        CcOp::Union(a, b) => cc.merge(a, b, bank),
    }
}

props! {
    // A restore that leaves one stale use-list entry shows up only on
    // a few scripts in a hundred, so this property runs more cases.
    config = Config::with_cases(512);

    fn cc_restore_matches_a_rebuilt_context(
        script in vec((0u8..10, 0usize..13, 0usize..13), 1..48),
    ) {
        let (bank, terms) = cc_universe();
        let mut cc = Cc::new();
        // The operations that survive, and the log length at each
        // outstanding savepoint.
        let mut log: Vec<CcOp> = Vec::new();
        let mut saves: Vec<usize> = Vec::new();
        for (step, &(kind, i, j)) in script.iter().enumerate() {
            let (a, b) = (terms[i], terms[j]);
            let op = match kind {
                0 | 1 => Some(CcOp::Register(a)),
                // Merging constants drives congruence through the
                // applications registered over them.
                2 | 3 => Some(CcOp::Merge(terms[i % 3], terms[j % 3])),
                4 => Some(CcOp::Merge(a, b)),
                5 => Some(CcOp::Diseq(a, b)),
                9 => Some(CcOp::Union(a, b)),
                6 => {
                    cc.save();
                    saves.push(log.len());
                    None
                }
                _ => {
                    if let Some(mark) = saves.pop() {
                        cc.restore(&bank);
                        log.truncate(mark);
                    }
                    None
                }
            };
            if let Some(op) = op {
                cc_apply(&mut cc, &bank, op);
                log.push(op);
            }
            let mut oracle = Cc::new();
            for &op in &log {
                cc_apply(&mut oracle, &bank, op);
            }
            // Every pair, registered or not: a term no surviving
            // operation registered must still be a singleton.
            prop_assert_eq!(cc.in_conflict(), oracle.in_conflict(), "step {}", step);
            for &s in &terms {
                for &t in &terms {
                    prop_assert_eq!(cc.are_eq(s, t), oracle.are_eq(s, t), "step {}", step);
                    prop_assert_eq!(
                        cc.are_diseq(s, t, &bank),
                        oracle.are_diseq(s, t, &bank),
                        "step {}",
                        step
                    );
                }
            }
        }
    }
}
