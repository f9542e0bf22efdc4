//! Control-flow graphs over procedures, plus well-formedness validation.
//!
//! One CFG node per statement; edges follow the fall-through/branch
//! structure of the IL. The entry node is index 0 (paper §3.2.2); exit
//! nodes are the `return` statements.

use crate::ast::{Index, Proc, Program, Stmt, Var};
use crate::error::WellFormedError;

/// The control-flow graph of a single procedure.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = cobalt_il::parse_program(
///     "proc main(x) { if x goto 2 else 1; skip; return x; }",
/// )?;
/// let cfg = cobalt_il::Cfg::new(prog.main().unwrap())?;
/// assert_eq!(cfg.successors(0), &[2, 1]);
/// assert_eq!(cfg.predecessors(2), &[0, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    /// Node `i`'s successors are `succs[succ_at[i]..succ_at[i + 1]]`,
    /// `then` before `else`.
    succ_at: Vec<usize>,
    succs: Vec<Index>,
    /// Node `i`'s predecessors are `preds[pred_at[i]..pred_at[i + 1]]`,
    /// ascending.
    pred_at: Vec<usize>,
    preds: Vec<Index>,
    exits: Vec<Index>,
}

impl Cfg {
    /// Builds the CFG for `proc`, validating branch targets and the
    /// trailing-`return` requirement on the way.
    ///
    /// # Errors
    ///
    /// Returns a [`WellFormedError`] if the procedure is empty, does not
    /// end with `return`, or branches out of range.
    pub fn new(proc: &Proc) -> Result<Cfg, WellFormedError> {
        let mut violations = Vec::new();
        shape_violations(proc, &mut violations);
        if let Some(e) = violations.into_iter().next() {
            return Err(e);
        }
        let n = proc.stmts.len();
        let (mut succ_at, mut succs) = (Vec::with_capacity(n + 1), Vec::with_capacity(2 * n));
        let mut exits = Vec::new();
        succ_at.push(0);
        for (i, s) in proc.stmts.iter().enumerate() {
            match s {
                Stmt::Return(_) => exits.push(i),
                Stmt::If {
                    then_target,
                    else_target,
                    ..
                } => {
                    succs.push(*then_target);
                    if else_target != then_target {
                        succs.push(*else_target);
                    }
                }
                // The last statement is a `return`, so any other has a
                // next one.
                _ => succs.push(i + 1),
            }
            succ_at.push(succs.len());
        }
        // Counting sort by target; sources are visited in ascending
        // order, and `pred_at[t]` runs from t's start to t + 1's.
        let mut pred_at = vec![0; n + 1];
        for &t in &succs {
            pred_at[t + 1] += 1;
        }
        for t in 0..n {
            pred_at[t + 1] += pred_at[t];
        }
        let mut preds = vec![0; succs.len()];
        for i in 0..n {
            for &t in &succs[succ_at[i]..succ_at[i + 1]] {
                preds[pred_at[t]] = i;
                pred_at[t] += 1;
            }
        }
        pred_at.copy_within(0..n, 1);
        pred_at[0] = 0;
        Ok(Cfg {
            succ_at,
            succs,
            pred_at,
            preds,
            exits,
        })
    }

    /// Number of nodes (statements).
    pub fn len(&self) -> usize {
        self.succ_at.len() - 1
    }

    /// Whether the CFG has no nodes. Always false for a valid CFG.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entry node index (always 0).
    pub fn entry(&self) -> Index {
        0
    }

    /// The exit nodes, i.e. indices of `return` statements.
    pub fn exits(&self) -> &[Index] {
        &self.exits
    }

    /// Successors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn successors(&self, i: Index) -> &[Index] {
        &self.succs[self.succ_at[i]..self.succ_at[i + 1]]
    }

    /// Predecessors of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn predecessors(&self, i: Index) -> &[Index] {
        &self.preds[self.pred_at[i]..self.pred_at[i + 1]]
    }

    /// Nodes reachable from the entry, in a deterministic BFS order.
    pub fn reachable(&self) -> Vec<Index> {
        let mut seen = vec![false; self.len()];
        let mut queue = std::collections::VecDeque::from([self.entry()]);
        let mut order = Vec::new();
        seen[self.entry()] = true;
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &s in self.successors(i) {
                if !seen[s] {
                    seen[s] = true;
                    queue.push_back(s);
                }
            }
        }
        order
    }
}

/// Appends [`Cfg::new`]'s conditions that one procedure violates: a
/// missing trailing `return`, then each out-of-range branch target,
/// statement by statement, `then` before `else`.
fn shape_violations(proc: &Proc, out: &mut Vec<WellFormedError>) {
    if !matches!(proc.stmts.last(), Some(Stmt::Return(_))) {
        out.push(WellFormedError::MissingReturn(proc.name.to_string()));
    }
    for (index, s) in proc.stmts.iter().enumerate() {
        if let Stmt::If {
            then_target,
            else_target,
            ..
        } = s
        {
            for &target in [then_target, else_target] {
                if target >= proc.stmts.len() {
                    out.push(WellFormedError::BadBranchTarget {
                        proc: proc.name.to_string(),
                        index,
                        target,
                    });
                }
            }
        }
    }
}

/// Every violation of paper §3.1's conditions except a missing `main`
/// (which a library fragment may lack), one list per procedure of
/// `prog`, in its order. A procedure's list holds, in the order
/// [`validate`] checks them: a name that repeats an earlier
/// procedure's; statement by statement, a second `decl` of a local and
/// a call of an unknown procedure; then [`Cfg::new`]'s, a missing
/// trailing `return` and each out-of-range branch target.
pub fn violations(prog: &Program) -> Vec<Vec<WellFormedError>> {
    let mut all = Vec::with_capacity(prog.procs.len());
    for (i, p) in prog.procs.iter().enumerate() {
        let mut out = Vec::new();
        if prog.procs[..i].iter().any(|q| q.name == p.name) {
            out.push(WellFormedError::DuplicateProc(p.name.to_string()));
        }
        let mut declared: Vec<&Var> = Vec::new();
        for (index, s) in p.stmts.iter().enumerate() {
            match s {
                Stmt::Decl(v) if declared.contains(&v) => {
                    out.push(WellFormedError::DuplicateDecl {
                        proc: p.name.to_string(),
                        index,
                        var: v.to_string(),
                    })
                }
                Stmt::Decl(v) => declared.push(v),
                Stmt::Call { proc: callee, .. } if prog.proc(callee).is_none() => {
                    out.push(WellFormedError::UnknownProc {
                        proc: p.name.to_string(),
                        index,
                        callee: callee.to_string(),
                    })
                }
                _ => {}
            }
        }
        shape_violations(p, &mut out);
        all.push(out);
    }
    all
}

/// Checks the global well-formedness conditions of paper §3.1: a `main`
/// procedure exists, procedure names are unique, no procedure declares a
/// local twice, every procedure ends in `return` with in-range branch
/// targets, and every callee exists.
///
/// # Errors
///
/// Returns [`WellFormedError::NoMain`], else the first violation
/// [`violations`] lists.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let prog = cobalt_il::parse_program("proc main(x) { return x; }")?;
/// cobalt_il::validate(&prog)?;
/// # Ok(())
/// # }
/// ```
pub fn validate(prog: &Program) -> Result<(), WellFormedError> {
    if prog.main().is_none() {
        return Err(WellFormedError::NoMain);
    }
    match violations(prog).into_iter().flatten().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn cfg_of(body: &str) -> Result<Cfg, WellFormedError> {
        let src = format!("proc main(x) {{ {body} }}");
        let prog = parse_program(&src).unwrap();
        Cfg::new(prog.main().unwrap())
    }

    #[test]
    fn straight_line_edges() {
        let cfg = cfg_of("skip; skip; return x;").unwrap();
        assert_eq!(cfg.successors(0), &[1]);
        assert_eq!(cfg.successors(1), &[2]);
        assert_eq!(cfg.successors(2), &[] as &[usize]);
        assert_eq!(cfg.exits(), &[2]);
    }

    #[test]
    fn branch_edges_and_merge_preds() {
        let cfg = cfg_of("if x goto 2 else 1; skip; return x;").unwrap();
        assert_eq!(cfg.successors(0), &[2, 1]);
        assert_eq!(cfg.predecessors(2), &[0, 1]);
    }

    #[test]
    fn self_loop_allowed() {
        let cfg = cfg_of("if x goto 0 else 1; return x;").unwrap();
        assert_eq!(cfg.successors(0), &[0, 1]);
        assert_eq!(cfg.predecessors(0), &[0]);
    }

    #[test]
    fn identical_targets_deduplicated() {
        let cfg = cfg_of("if x goto 1 else 1; return x;").unwrap();
        assert_eq!(cfg.successors(0), &[1]);
    }

    #[test]
    fn rejects_out_of_range_target() {
        let err = cfg_of("if x goto 9 else 1; return x;").unwrap_err();
        assert!(matches!(err, WellFormedError::BadBranchTarget { target: 9, .. }));
    }

    #[test]
    fn rejects_missing_return() {
        assert!(matches!(
            cfg_of("skip; skip;").unwrap_err(),
            WellFormedError::MissingReturn(_)
        ));
    }

    #[test]
    fn multiple_returns_are_exits() {
        let cfg = cfg_of("if x goto 2 else 1; return x; return x;").unwrap();
        assert_eq!(cfg.exits(), &[1, 2]);
    }

    #[test]
    fn reachable_skips_dead_code() {
        let cfg = cfg_of("if x goto 3 else 3; skip; skip; return x;").unwrap();
        assert_eq!(cfg.reachable(), vec![0, 3]);
    }

    #[test]
    fn violations_lists_every_violation_in_validate_order() {
        let prog = parse_program(
            "proc main(x) { decl y; y := g(1); decl y; if x goto 9 else 7; }
             proc main(z) { return z; }",
        )
        .unwrap();
        let all = violations(&prog);
        let shown: Vec<Vec<String>> = all
            .iter()
            .map(|vs| vs.iter().map(ToString::to_string).collect())
            .collect();
        assert_eq!(
            shown,
            [
                vec![
                    "call at `main`:1 names unknown procedure `g`",
                    "procedure `main` declares `y` more than once",
                    "procedure `main` does not end with a return statement",
                    "branch at `main`:3 targets out-of-range index 9",
                    "branch at `main`:3 targets out-of-range index 7",
                ],
                vec!["duplicate procedure `main`"],
            ]
        );
        assert_eq!(validate(&prog).unwrap_err(), all[0][0]);
        assert!(matches!(
            all[0][1],
            WellFormedError::DuplicateDecl { index: 2, .. }
        ));
    }

    #[test]
    fn validate_full_program() {
        let good = parse_program(
            "proc main(x) { y := f(1); return y; } proc f(a) { return a; }",
        )
        .unwrap();
        assert!(validate(&good).is_ok());

        let no_main = parse_program("proc f(a) { return a; }").unwrap();
        assert_eq!(validate(&no_main).unwrap_err(), WellFormedError::NoMain);

        let dup = parse_program("proc main(x) { return x; } proc main(y) { return y; }").unwrap();
        assert!(matches!(
            validate(&dup).unwrap_err(),
            WellFormedError::DuplicateProc(_)
        ));

        let dup_decl =
            parse_program("proc main(x) { decl y; decl y; return x; }").unwrap();
        assert!(matches!(
            validate(&dup_decl).unwrap_err(),
            WellFormedError::DuplicateDecl { .. }
        ));

        let unknown = parse_program("proc main(x) { y := g(1); return y; }").unwrap();
        assert!(matches!(
            validate(&unknown).unwrap_err(),
            WellFormedError::UnknownProc { .. }
        ));
    }
}
