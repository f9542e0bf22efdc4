//! Concrete dataflow facts for translation validation.
//!
//! Unlike the Cobalt checker — which proves an optimization sound once
//! and for all over *symbolic* programs — a translation validator must
//! re-derive, for every compiled procedure, enough facts about the
//! *concrete* program to justify each rewrite (Necula 2000; paper §1,
//! §8). This module computes those facts:
//!
//! * forward **value equalities**: `x = c`, `x = y`, `x = e` holding on
//!   every path into a node;
//! * backward **liveness**: whether a variable's value may be observed
//!   after a node;
//! * backward **anticipated assignments**: whether `x := e` is executed
//!   on every path from a node before `x` is used or `e` changes.

use cobalt_il::{BaseExpr, Cfg, Expr, Lhs, Proc, Stmt, Var};
use std::collections::BTreeSet;

/// A value-equality fact about the state before a node.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fact {
    /// `x` holds the constant.
    VarConst(Var, i64),
    /// `x` and `y` hold the same value.
    VarVar(Var, Var),
    /// `x` holds the current value of the expression.
    VarExpr(Var, Expr),
}

type FactSet = BTreeSet<Fact>;

/// Whether executing `s` may change the value of any variable `e`
/// reads, or the target of a dereference in `e` (conservative).
fn stmt_disturbs_expr(s: &Stmt, e: &Expr) -> bool {
    if e.has_deref() {
        // Conservative: pointer targets may be changed by any write.
        return !matches!(s, Stmt::Skip | Stmt::If { .. } | Stmt::Return(_) | Stmt::Decl(_));
    }
    match s {
        Stmt::Assign(Lhs::Deref(_), _) | Stmt::Call { .. } => true,
        _ => match s.syntactic_def() {
            Some(d) => e.read_vars().contains(&d),
            None => false,
        },
    }
}

fn stmt_defines(s: &Stmt, x: &Var) -> bool {
    match s {
        Stmt::Assign(Lhs::Deref(_), _) | Stmt::Call { .. } => true,
        _ => s.syntactic_def() == Some(x),
    }
}

fn kill_and_gen(s: &Stmt, facts: &FactSet) -> FactSet {
    let mut out: FactSet = facts
        .iter()
        .filter(|f| match f {
            Fact::VarConst(x, _) => !stmt_defines(s, x),
            Fact::VarVar(x, y) => !stmt_defines(s, x) && !stmt_defines(s, y),
            Fact::VarExpr(x, e) => !stmt_defines(s, x) && !stmt_disturbs_expr(s, e),
        })
        .cloned()
        .collect();
    if let Stmt::Assign(Lhs::Var(x), e) = s {
        match e {
            Expr::Base(BaseExpr::Const(c)) => {
                out.insert(Fact::VarConst(x.clone(), *c));
            }
            Expr::Base(BaseExpr::Var(y)) => {
                if x != y {
                    out.insert(Fact::VarVar(x.clone(), y.clone()));
                }
            }
            e => {
                if !e.read_vars().contains(&x) && !stmt_disturbs_expr(s, e) {
                    out.insert(Fact::VarExpr(x.clone(), e.clone()));
                }
            }
        }
    }
    out
}

/// Computes the value-equality facts holding before every node.
pub fn value_facts(proc: &Proc, cfg: &Cfg) -> Vec<FactSet> {
    let n = proc.len();
    // Universe: facts generated anywhere.
    let mut universe = FactSet::new();
    for s in &proc.stmts {
        universe.extend(kill_and_gen(s, &FactSet::new()));
    }
    let mut ins: Vec<FactSet> = vec![universe.clone(); n];
    ins[cfg.entry()] = FactSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let in_fact = if i == cfg.entry() {
                FactSet::new()
            } else {
                let mut preds = cfg.predecessors(i).iter();
                match preds.next() {
                    None => FactSet::new(),
                    Some(&p0) => {
                        let mut acc = kill_and_gen(&proc.stmts[p0], &ins[p0]);
                        for &p in preds {
                            let out = kill_and_gen(&proc.stmts[p], &ins[p]);
                            acc = acc.intersection(&out).cloned().collect();
                        }
                        acc
                    }
                }
            };
            if in_fact != ins[i] {
                ins[i] = in_fact;
                changed = true;
            }
        }
    }
    ins
}

/// Computes, for each node, the variables that may be *used* at or
/// after it (backward liveness, conservative about pointers and calls).
pub fn live_vars(proc: &Proc, cfg: &Cfg) -> Vec<BTreeSet<Var>> {
    let n = proc.len();
    let all_vars: BTreeSet<Var> = proc.variables().into_iter().collect();
    let mut live: Vec<BTreeSet<Var>> = vec![BTreeSet::new(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let s = &proc.stmts[i];
            let mut out = BTreeSet::new();
            for &m in cfg.successors(i) {
                out.extend(live[m].iter().cloned());
            }
            let mut inset: BTreeSet<Var> = out;
            if let Some(d) = s.syntactic_def() {
                inset.remove(d);
            }
            // Pointer reads and calls may observe anything.
            let reads_everything = matches!(s, Stmt::Call { .. })
                || matches!(s, Stmt::Assign(_, e) if e.has_deref());
            if reads_everything {
                inset.extend(all_vars.iter().cloned());
            }
            for v in s.read_vars() {
                inset.insert(v.clone());
            }
            if inset != live[i] {
                live[i] = inset;
                changed = true;
            }
        }
    }
    live
}

/// Whether on every path from `start` the assignment `x := e` executes
/// before `x` is used or the value of `e` is disturbed. Used to
/// validate insertions (PRE code duplication).
pub fn anticipated(proc: &Proc, cfg: &Cfg, start: usize, x: &Var, e: &Expr) -> bool {
    // anticipated(n) = stmt(n) is `x := e` and x unused at n
    //                ∨ (n innocuous for x, e) ∧ all succ anticipated.
    let n = proc.len();
    let mut ant = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let s = &proc.stmts[i];
            let is_enabling = matches!(s, Stmt::Assign(Lhs::Var(w), rhs) if w == x && rhs == e)
                && !s.read_vars().contains(&x);
            let innocuous = !stmt_disturbs_expr(s, e)
                && !stmt_defines(s, x)
                && !s.read_vars().contains(&x)
                && !matches!(s, Stmt::Return(_));
            let succs = cfg.successors(i);
            let val =
                is_enabling || (innocuous && !succs.is_empty() && succs.iter().all(|&m| ant[m]));
            if val != ant[i] {
                ant[i] = val;
                changed = true;
            }
        }
    }
    ant.get(start).copied().unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_il::parse_program;

    fn setup(src: &str) -> (Proc, Cfg) {
        let prog = parse_program(src).unwrap();
        let p = prog.main().unwrap().clone();
        let cfg = Cfg::new(&p).unwrap();
        (p, cfg)
    }

    #[test]
    fn const_facts_flow_and_kill() {
        let (p, cfg) = setup("proc main(x) { a := 2; b := a; a := x; c := a; return c; }");
        let facts = value_facts(&p, &cfg);
        assert!(facts[1].contains(&Fact::VarConst(Var::new("a"), 2)));
        // After a := x the constant fact is gone, the copy fact appears.
        assert!(!facts[3].contains(&Fact::VarConst(Var::new("a"), 2)));
        assert!(facts[3].contains(&Fact::VarVar(Var::new("a"), Var::new("x"))));
        // b = a survives? a was redefined at 2: killed.
        assert!(!facts[3].contains(&Fact::VarVar(Var::new("b"), Var::new("a"))));
    }

    #[test]
    fn facts_intersect_at_merges() {
        let (p, cfg) = setup(
            "proc main(x) {
                if x goto 2 else 1;
                a := 2;
                c := a;
                return c;
             }",
        );
        let facts = value_facts(&p, &cfg);
        assert!(!facts[2].contains(&Fact::VarConst(Var::new("a"), 2)));
    }

    #[test]
    fn expr_facts_respect_operand_kills() {
        let (p, cfg) = setup("proc main(x) { a := x + 1; x := 2; b := x + 1; return b; }");
        let facts = value_facts(&p, &cfg);
        assert!(facts[1].contains(&Fact::VarExpr(
            Var::new("a"),
            cobalt_il::parse_expr("x + 1").unwrap()
        )));
        assert!(!facts[2].iter().any(|f| matches!(f, Fact::VarExpr(..))));
    }

    #[test]
    fn liveness_basics() {
        let (p, cfg) = setup("proc main(x) { a := 1; b := a; return b; }");
        let live = live_vars(&p, &cfg);
        assert!(live[1].contains(&Var::new("a")));
        assert!(!live[2].contains(&Var::new("a")));
        assert!(live[2].contains(&Var::new("b")));
    }

    #[test]
    fn liveness_conservative_about_pointers() {
        let (p, cfg) = setup(
            "proc main(x) { decl y; decl p; y := 1; b := *p; return b; }",
        );
        let live = live_vars(&p, &cfg);
        // b := *p may read y: y live before node 3.
        assert!(live[3].contains(&Var::new("y")));
    }

    #[test]
    fn anticipation_for_insertion() {
        let (p, cfg) = setup(
            "proc main(x) {
                skip;
                a := x + 1;
                return a;
             }",
        );
        let e = cobalt_il::parse_expr("x + 1").unwrap();
        assert!(anticipated(&p, &cfg, 0, &Var::new("a"), &e));
        // Not anticipated if a path avoids the assignment.
        let (p2, cfg2) = setup(
            "proc main(x) {
                skip;
                if x goto 3 else 2;
                a := x + 1;
                return x;
             }",
        );
        assert!(!anticipated(&p2, &cfg2, 0, &Var::new("a"), &e));
    }
}
