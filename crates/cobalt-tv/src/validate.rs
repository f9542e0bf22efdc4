//! The per-compilation translation validator.
//!
//! Given the original and the transformed procedure, the validator
//! re-derives dataflow facts about the *concrete* original program and
//! discharges, for every changed statement, a verification condition
//! justifying the change — the approach of translation validation
//! (Pnueli et al. 1998; Necula 2000) that the paper contrasts with
//! proving optimizations sound once and for all (§1, §8).
//!
//! Supported rewrite forms (matching the Cobalt suite):
//!
//! * value rewrites `x := e ⇒ x := e'` — validated by a solver VC under
//!   the node's value facts;
//! * removals `x := e ⇒ skip` — validated by liveness of `x` in the
//!   transformed program;
//! * insertions `skip ⇒ x := e` — validated by anticipation of `x := e`
//!   in the original program;
//! * branch retargeting `if c … ⇒ if c …` — validated by constant
//!   conditions.

use crate::facts::{anticipated, live_vars, value_facts, Fact};
use cobalt_il::{BaseExpr, Cfg, Expr, Lhs, Proc, Stmt, WellFormedError};
use cobalt_logic::{Formula, ProofTask, Solver, TermId};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::time::{Duration, Instant};

/// Why validation could not even be attempted.
#[derive(Debug)]
pub enum TvError {
    /// One of the procedures is ill-formed.
    IllFormed(WellFormedError),
    /// The procedures differ structurally (name, parameter, or length),
    /// which single-statement rewrites never produce.
    StructureMismatch(String),
}

impl fmt::Display for TvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvError::IllFormed(e) => write!(f, "translation validation: {e}"),
            TvError::StructureMismatch(m) => {
                write!(f, "translation validation: structure mismatch: {m}")
            }
        }
    }
}

impl Error for TvError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TvError::IllFormed(e) => Some(e),
            TvError::StructureMismatch(_) => None,
        }
    }
}

impl From<WellFormedError> for TvError {
    fn from(e: WellFormedError) -> Self {
        TvError::IllFormed(e)
    }
}

/// The outcome for one changed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteVerdict {
    /// Statement index.
    pub index: usize,
    /// Whether the change was justified.
    pub validated: bool,
    /// Human-readable justification or rejection reason.
    pub reason: String,
}

/// The outcome of validating one procedure pair.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Per-changed-site verdicts.
    pub sites: Vec<SiteVerdict>,
    /// Total validation time (fact computation + VCs).
    pub elapsed: Duration,
}

impl ValidationReport {
    /// Whether every change was validated.
    pub fn validated(&self) -> bool {
        self.sites.iter().all(|s| s.validated)
    }

    /// The rejected sites.
    pub fn rejections(&self) -> Vec<&SiteVerdict> {
        self.sites.iter().filter(|s| !s.validated).collect()
    }
}

/// Validates that `new` is a semantics-preserving transformation of
/// `orig`, assuming single-statement rewrites.
///
/// # Errors
///
/// Returns [`TvError`] if the procedures are ill-formed or differ
/// structurally. A *rejected* change is reported in the
/// [`ValidationReport`], not as an error.
pub fn validate_proc(orig: &Proc, new: &Proc) -> Result<ValidationReport, TvError> {
    let start = Instant::now();
    if orig.name != new.name || orig.param != new.param {
        return Err(TvError::StructureMismatch("name or parameter".into()));
    }
    if orig.len() != new.len() {
        return Err(TvError::StructureMismatch(format!(
            "lengths {} vs {}",
            orig.len(),
            new.len()
        )));
    }
    let cfg_orig = Cfg::new(orig)?;
    let cfg_new = Cfg::new(new)?;
    let facts = value_facts(orig, &cfg_orig);
    let live_new = live_vars(new, &cfg_new);
    let mut sites = Vec::new();
    for (i, (s, s2)) in orig.stmts.iter().zip(&new.stmts).enumerate() {
        if s == s2 {
            continue;
        }
        let verdict = validate_site(orig, &cfg_new, &facts[i], &live_new, i, s, s2);
        sites.push(verdict);
    }
    Ok(ValidationReport {
        sites,
        elapsed: start.elapsed(),
    })
}

fn validate_site(
    orig: &Proc,
    cfg_new: &Cfg,
    facts: &BTreeSet<Fact>,
    live_new: &[BTreeSet<cobalt_il::Var>],
    index: usize,
    s: &Stmt,
    s2: &Stmt,
) -> SiteVerdict {
    let reject = |reason: String| SiteVerdict {
        index,
        validated: false,
        reason,
    };
    let accept = |reason: String| SiteVerdict {
        index,
        validated: true,
        reason,
    };
    match (s, s2) {
        // Removal: x := e ⇒ skip. Valid if the assignment was a no-op
        // (the facts prove e = x, e.g. a self-assignment) or x is dead.
        (Stmt::Assign(Lhs::Var(x), e), Stmt::Skip) => {
            if value_vc(facts, e, &Expr::Base(BaseExpr::Var(x.clone()))) == Some(true) {
                return accept(format!("`{x} := {e}` was a no-op"));
            }
            let live_after = cfg_new
                .successors(index)
                .iter()
                .any(|&m| live_new[m].contains(x));
            if live_after {
                reject(format!("removed assignment to live variable `{x}`"))
            } else {
                accept(format!("`{x}` is dead after the removal"))
            }
        }
        // Insertion: skip ⇒ x := e.
        (Stmt::Skip, Stmt::Assign(Lhs::Var(x), e)) => {
            let cfg_orig = match Cfg::new(orig) {
                Ok(c) => c,
                Err(e) => return reject(format!("original CFG: {e}")),
            };
            if anticipated(orig, &cfg_orig, index, x, e) {
                accept(format!("`{x} := {e}` is anticipated on every path"))
            } else {
                reject(format!("inserted `{x} := {e}` is not anticipated"))
            }
        }
        // Branch retargeting.
        (
            Stmt::If {
                cond: c1,
                then_target: t1,
                else_target: e1,
            },
            Stmt::If {
                cond: c2,
                then_target: t2,
                else_target: e2,
            },
        ) => {
            if c1 != c2 {
                return reject("branch condition changed".into());
            }
            let constant = match c1 {
                BaseExpr::Const(c) => Some(*c),
                BaseExpr::Var(v) => facts.iter().find_map(|f| match f {
                    Fact::VarConst(x, c) if x == v => Some(*c),
                    _ => None,
                }),
            };
            match constant {
                Some(c) if c != 0 && t2 == e2 && t2 == t1 => {
                    accept(format!("condition is constant {c} ≠ 0"))
                }
                Some(0) if t2 == e2 && t2 == e1 => accept("condition is constant 0".into()),
                _ => reject("branch targets changed without a constant condition".into()),
            }
        }
        // Value rewrite: x := e ⇒ x := e'.
        (Stmt::Assign(Lhs::Var(x), e), Stmt::Assign(Lhs::Var(x2), e2)) => {
            if x != x2 {
                return reject("assignment destination changed".into());
            }
            match value_vc(facts, e, e2) {
                Some(true) => accept(format!("facts prove `{e}` = `{e2}`")),
                Some(false) => reject(format!("cannot prove `{e}` = `{e2}`")),
                None => reject(format!("unsupported expression forms `{e}`, `{e2}`")),
            }
        }
        _ => reject(format!("unsupported rewrite `{s}` ⇒ `{s2}`")),
    }
}

/// Discharges the VC "under the node's facts, `e` and `e2` evaluate to
/// the same value" with the automatic theorem prover. Returns `None`
/// for expression forms outside the encodable fragment.
fn value_vc(facts: &BTreeSet<Fact>, e: &Expr, e2: &Expr) -> Option<bool> {
    let mut solver = Solver::new();
    let mut enc = VcEnc::new(&mut solver);
    let mut hyps = Vec::new();
    for f in facts {
        match f {
            Fact::VarConst(x, c) => {
                let vx = enc.var_value(x);
                let iv = enc.intval_lit(*c);
                hyps.push(Formula::Eq(vx, iv));
            }
            Fact::VarVar(x, y) => {
                let vx = enc.var_value(x);
                let vy = enc.var_value(y);
                hyps.push(Formula::Eq(vx, vy));
            }
            Fact::VarExpr(x, rhs) => {
                let vx = enc.var_value(x);
                if let Some(ve) = enc.expr_value(rhs) {
                    hyps.push(Formula::Eq(vx, ve));
                }
            }
        }
    }
    let v1 = enc.expr_value(e)?;
    let v2 = enc.expr_value(e2)?;
    let task = ProofTask {
        hypotheses: hyps,
        goal: Formula::Eq(v1, v2),
    };
    Some(solver.prove(&task).is_proved())
}

/// A small encoder for concrete-program VCs: every concrete variable
/// gets its own location constructor, so distinctness is structural.
struct VcEnc<'a> {
    s: &'a mut Solver,
    store: TermId,
}

impl<'a> VcEnc<'a> {
    fn new(s: &'a mut Solver) -> Self {
        let store = s.bank.app0("store");
        VcEnc { s, store }
    }

    fn var_value(&mut self, x: &cobalt_il::Var) -> TermId {
        let loc = self.s.bank.constructor(&format!("loc${x}"));
        let loc = self.s.bank.app(loc, Vec::new());
        self.s.select(self.store, loc)
    }

    fn intval_lit(&mut self, c: i64) -> TermId {
        let iv = self.s.bank.constructor("intval");
        let lit = self.s.bank.int(c);
        self.s.bank.app(iv, vec![lit])
    }

    fn expr_value(&mut self, e: &Expr) -> Option<TermId> {
        match e {
            Expr::Base(BaseExpr::Var(x)) => Some(self.var_value(x)),
            Expr::Base(BaseExpr::Const(c)) => Some(self.intval_lit(*c)),
            Expr::Op(op, args) => {
                // Ground all-constant applications with the shared
                // evaluator, so folded arithmetic validates.
                let const_args: Option<Vec<i64>> = args
                    .iter()
                    .map(|a| match a {
                        BaseExpr::Const(c) => Some(*c),
                        BaseExpr::Var(_) => None,
                    })
                    .collect();
                if let Some(v) = const_args.and_then(|cs| cobalt_il::eval_op(*op, &cs)) {
                    return Some(self.intval_lit(v));
                }
                let opc = self.s.bank.constructor(&format!("op${op:?}"));
                let mut ts = vec![self.s.bank.app(opc, Vec::new())];
                for a in args {
                    ts.push(match a {
                        BaseExpr::Var(x) => self.var_value(x),
                        BaseExpr::Const(c) => self.intval_lit(*c),
                    });
                }
                let f = self.s.bank.sym(&format!("opval{}", args.len()));
                let r = self.s.bank.app(f, ts);
                let iv = self.s.bank.constructor("intval");
                Some(self.s.bank.app(iv, vec![r]))
            }
            // Dereferences and address-taking are outside the VC
            // fragment; equal syntax was already handled by the caller.
            Expr::Deref(_) | Expr::AddrOf(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_il::parse_program;

    fn procs(a: &str, b: &str) -> (Proc, Proc) {
        let pa = parse_program(a).unwrap().main().unwrap().clone();
        let pb = parse_program(b).unwrap().main().unwrap().clone();
        (pa, pb)
    }

    #[test]
    fn validates_constant_propagation() {
        let (a, b) = procs(
            "proc main(x) { a := 2; c := a; return c; }",
            "proc main(x) { a := 2; c := 2; return c; }",
        );
        let r = validate_proc(&a, &b).unwrap();
        assert!(r.validated(), "{:?}", r.rejections());
    }

    #[test]
    fn rejects_wrong_constant() {
        let (a, b) = procs(
            "proc main(x) { a := 2; c := a; return c; }",
            "proc main(x) { a := 2; c := 3; return c; }",
        );
        let r = validate_proc(&a, &b).unwrap();
        assert!(!r.validated());
    }

    #[test]
    fn validates_copy_propagation_and_cse() {
        let (a, b) = procs(
            "proc main(x) { a := x; b := a; c := x + 1; d := x + 1; return d; }",
            "proc main(x) { a := x; b := x; c := x + 1; d := c; return d; }",
        );
        let r = validate_proc(&a, &b).unwrap();
        assert!(r.validated(), "{:?}", r.rejections());
    }

    #[test]
    fn validates_dead_code_removal_but_rejects_live_removal() {
        let (a, b) = procs(
            "proc main(x) { a := 1; a := x; return a; }",
            "proc main(x) { skip; a := x; return a; }",
        );
        assert!(validate_proc(&a, &b).unwrap().validated());
        let (a, b) = procs(
            "proc main(x) { a := 1; b := a; return b; }",
            "proc main(x) { skip; b := a; return b; }",
        );
        assert!(!validate_proc(&a, &b).unwrap().validated());
    }

    #[test]
    fn validates_pre_insertion() {
        let (a, b) = procs(
            "proc main(x) { skip; a := x + 1; return a; }",
            "proc main(x) { a := x + 1; a := x + 1; return a; }",
        );
        let r = validate_proc(&a, &b).unwrap();
        assert!(r.validated(), "{:?}", r.rejections());
        // Insertion without anticipation is rejected.
        let (a, b) = procs(
            "proc main(x) { skip; return x; }",
            "proc main(x) { a := x + 1; return x; }",
        );
        assert!(!validate_proc(&a, &b).unwrap().validated());
    }

    #[test]
    fn validates_branch_folding() {
        let (a, b) = procs(
            "proc main(x) { if 1 goto 2 else 1; skip; return x; }",
            "proc main(x) { if 1 goto 2 else 2; skip; return x; }",
        );
        assert!(validate_proc(&a, &b).unwrap().validated());
        // Retargeting a variable branch is rejected.
        let (a, b) = procs(
            "proc main(x) { if x goto 2 else 1; skip; return x; }",
            "proc main(x) { if x goto 2 else 2; skip; return x; }",
        );
        assert!(!validate_proc(&a, &b).unwrap().validated());
    }

    #[test]
    fn catches_the_buggy_load_elimination() {
        // The §6 miscompilation: translation validation also catches it
        // (per run), while the Cobalt checker rejects the optimization
        // once and for all.
        let (a, b) = procs(
            "proc main(x) {
                decl y; decl p; decl a; decl b;
                p := &y; y := 7; a := *p; y := 9; b := *p;
                return b;
             }",
            "proc main(x) {
                decl y; decl p; decl a; decl b;
                p := &y; y := 7; a := *p; y := 9; b := a;
                return b;
             }",
        );
        let r = validate_proc(&a, &b).unwrap();
        assert!(!r.validated());
    }

    #[test]
    fn structure_mismatch_is_an_error() {
        let (a, b) = procs(
            "proc main(x) { skip; return x; }",
            "proc main(x) { return x; }",
        );
        assert!(matches!(
            validate_proc(&a, &b),
            Err(TvError::StructureMismatch(_))
        ));
    }

    #[test]
    fn validates_whole_optimizer_output() {
        use cobalt_dsl::LabelEnv;
        use cobalt_engine::{Engine, OptimizeSession};
        let prog = parse_program(
            "proc main(x) {
                a := 2;
                b := a;
                c := b + 1;
                d := b + 1;
                d := d;
                return d;
             }",
        )
        .unwrap();
        let (optimized, report) = OptimizeSession::new(Engine::new(LabelEnv::standard()))
            .optimize_program(&prog, &[], &cobalt_opts::default_pipeline(), 1);
        assert!(!report.degraded(), "{:#?}", report.failures);
        assert!(report.applied > 0);
        // Validate each round's output against its input would be the
        // honest protocol; with one round this is direct.
        let r = validate_proc(prog.main().unwrap(), optimized.main().unwrap()).unwrap();
        assert!(r.validated(), "{:?}", r.rejections());
    }
}
