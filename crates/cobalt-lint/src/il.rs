//! The IL linter: structural checks over `cobalt-il` programs,
//! emitting `IL0xx` diagnostics (registry in DESIGN.md §9).
//!
//! The §3.1 well-formedness violations (IL001, IL002, IL006, IL007,
//! IL008) are the ones [`cobalt_il::violations`] lists, so lint and
//! `validate` cannot disagree on them; a missing `main` is not one of
//! them, because fixtures and library fragments are legitimate lint
//! inputs. The CFG-based checks (reachability, definite assignment)
//! run only on procedures whose CFG constructs.

use crate::diag::{Diagnostic, Diagnostics, Location};
use cobalt_il::{Cfg, Expr, Lhs, Proc, Program, Stmt, Var, WellFormedError};
use std::collections::{BTreeMap, BTreeSet};

fn loc(proc: &Proc, index: Option<usize>) -> Location {
    Location::Il {
        proc: proc.name.to_string(),
        index,
    }
}

/// The diagnostic for one of `proc`'s §3.1 violations.
fn violation(proc: &Proc, v: &WellFormedError) -> Option<Diagnostic> {
    let n = proc.stmts.len();
    Some(match v {
        WellFormedError::BadBranchTarget { index, target, .. } => Diagnostic::error(
            "IL001",
            loc(proc, Some(*index)),
            format!("branch target {target} is out of range (procedure has {n} statements)"),
        )
        .with_suggestion("branch targets are 0-based statement indices"),
        WellFormedError::MissingReturn(_) => Diagnostic::error(
            "IL002",
            loc(proc, n.checked_sub(1)),
            "procedure does not end in `return`; control can fall off the end",
        )
        .with_suggestion("add a trailing `return <var>;`"),
        WellFormedError::UnknownProc { index, callee, .. } => Diagnostic::error(
            "IL006",
            loc(proc, Some(*index)),
            format!("call to unknown procedure `{callee}`"),
        )
        .with_suggestion("define the procedure or fix the name"),
        WellFormedError::DuplicateDecl { index, var, .. } => Diagnostic::error(
            "IL007",
            loc(proc, Some(*index)),
            format!("`{var}` is declared more than once"),
        ),
        WellFormedError::DuplicateProc(name) => Diagnostic::error(
            "IL008",
            loc(proc, None),
            format!("procedure `{name}` is defined more than once"),
        )
        .with_suggestion("rename one of them; `run` and `optimize` reject the program"),
        // `violations` never lists it: lint does not require a `main`.
        WellFormedError::NoMain => return None,
    })
}

/// Lints a whole program, procedure by procedure: its §3.1 violations
/// in the order `validate` checks them, then the IL005 and CFG-based
/// warnings.
pub fn lint_program(prog: &Program, diags: &mut Diagnostics) {
    for (proc, violations) in prog.procs.iter().zip(cobalt_il::violations(prog)) {
        for d in violations.iter().filter_map(|v| violation(proc, v)) {
            diags.push(d);
        }
        lint_proc(proc, diags);
    }
}

/// The warnings about one procedure: IL005, then, when its CFG
/// constructs, IL003 and IL004.
fn lint_proc(proc: &Proc, diags: &mut Diagnostics) {
    let n = proc.stmts.len();

    // IL005: a pointer assigned `&x` but never dereferenced suggests a
    // dead address-of (statement-list scan; no CFG needed).
    let mut taken: BTreeMap<&Var, usize> = BTreeMap::new();
    let mut derefed: BTreeSet<&Var> = BTreeSet::new();
    for (i, s) in proc.stmts.iter().enumerate() {
        if let Stmt::Assign(lhs, e) = s {
            if let (Lhs::Var(p), Expr::AddrOf(_)) = (lhs, e) {
                taken.entry(p).or_insert(i);
            }
            if let Lhs::Deref(p) = lhs {
                derefed.insert(p);
            }
            if let Expr::Deref(p) = e {
                derefed.insert(p);
            }
        }
    }
    for (p, i) in taken {
        if !derefed.contains(p) {
            diags.push(
                Diagnostic::warning(
                    "IL005",
                    loc(proc, Some(i)),
                    format!("`{p}` holds an address but is never dereferenced"),
                )
                .with_suggestion(
                    "taking an address taints its target for the pointer analysis; \
                     drop the `&` if the indirection is unused",
                ),
            );
        }
    }

    // The remaining checks need a CFG.
    let Ok(cfg) = Cfg::new(proc) else {
        return;
    };

    // IL003: unreachable statements.
    let reachable: BTreeSet<usize> = cfg.reachable().into_iter().collect();
    for i in 0..n {
        if !reachable.contains(&i) {
            diags.push(
                Diagnostic::warning(
                    "IL003",
                    loc(proc, Some(i)),
                    format!("statement {i} (`{}`) is unreachable", proc.stmts[i]),
                )
                .with_suggestion("delete it or fix the branch structure"),
            );
        }
    }

    // IL004: use before definite assignment, by forward dataflow over
    // the CFG: in[entry] = {param}; transfer adds the syntactic def
    // (`decl` initializes to 0, so it counts); merge is intersection.
    // Unvisited nodes start at ⊤ so loop back-edges do not poison the
    // meet (cf. `fib.il`).
    let all_vars: BTreeSet<Var> = proc.variables().into_iter().collect();
    let top = all_vars.clone();
    let mut input: Vec<Option<BTreeSet<Var>>> = vec![None; n];
    let entry_in: BTreeSet<Var> = [proc.param.clone()].into_iter().collect();
    input[cfg.entry()] = Some(entry_in);
    let mut work: Vec<usize> = vec![cfg.entry()];
    while let Some(i) = work.pop() {
        let in_i = input[i].clone().unwrap_or_else(|| top.clone());
        let mut out = in_i;
        if let Some(v) = proc.stmts[i].syntactic_def() {
            out.insert(v.clone());
        }
        for &s in cfg.successors(i) {
            let merged = match &input[s] {
                None => out.clone(),
                Some(prev) => prev.intersection(&out).cloned().collect(),
            };
            if input[s].as_ref() != Some(&merged) {
                input[s] = Some(merged);
                work.push(s);
            }
        }
    }
    for &i in &reachable {
        let Some(in_i) = &input[i] else { continue };
        for v in proc.stmts[i].read_vars() {
            if !in_i.contains(v) {
                diags.push(
                    Diagnostic::warning(
                        "IL004",
                        loc(proc, Some(i)),
                        format!("`{v}` may be read before it is assigned"),
                    )
                    .with_suggestion(format!("declare or assign `{v}` on every path to here")),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobalt_il::parse_program;

    fn lint_src(src: &str) -> Diagnostics {
        let prog = parse_program(src).expect("fixture parses");
        let mut diags = Diagnostics::new();
        lint_program(&prog, &mut diags);
        diags
    }

    fn codes(diags: &Diagnostics) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn il001_dangling_branch_target() {
        let diags = lint_src("proc main(x) { if x goto 9 else 1; return x; }");
        assert!(codes(&diags).contains(&"IL001"), "{}", diags.render_human());
        assert!(diags.has_errors());
    }

    #[test]
    fn il002_missing_return() {
        let diags = lint_src("proc main(x) { x := 1; skip; }");
        assert!(codes(&diags).contains(&"IL002"), "{}", diags.render_human());
    }

    #[test]
    fn il003_unreachable_statement() {
        let diags = lint_src("proc main(x) { if x goto 3 else 3; skip; skip; return x; }");
        let il003 = diags.iter().filter(|d| d.code == "IL003").count();
        assert_eq!(il003, 2, "{}", diags.render_human());
        assert!(!diags.has_errors(), "unreachable code is a warning");
    }

    #[test]
    fn il004_use_before_def_on_one_path() {
        // `y` is assigned only on the then-path but read afterward.
        let diags = lint_src(
            "proc main(x) { decl y; decl z; if x goto 3 else 4; z := 1; y := z + 1; return y; }",
        );
        // z is read at 4 but only assigned on the path through 3.
        let msgs: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "IL004")
            .map(|d| d.message.clone())
            .collect();
        assert!(msgs.is_empty(), "decl initializes to 0: {msgs:?}");

        let diags = lint_src("proc main(x) { y := q + 1; return y; }");
        let msgs: Vec<_> = diags
            .iter()
            .filter(|d| d.code == "IL004")
            .map(|d| d.message.clone())
            .collect();
        assert_eq!(msgs.len(), 1, "{}", diags.render_human());
        assert!(msgs[0].contains("`q`"), "{msgs:?}");
    }

    #[test]
    fn il004_loop_back_edge_converges_clean() {
        // The fib.il shape: a loop whose body reads variables defined
        // before entry must not be flagged.
        let fib = std::fs::read_to_string(
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/programs/fib.il"),
        )
        .expect("fib.il present");
        let diags = lint_src(&fib);
        assert!(diags.is_empty(), "{}", diags.render_human());
    }

    #[test]
    fn il005_address_taken_never_dereferenced() {
        let diags = lint_src("proc main(x) { decl y; decl p; p := &y; return x; }");
        assert!(codes(&diags).contains(&"IL005"), "{}", diags.render_human());
        assert!(!diags.has_errors());

        // A dereference anywhere clears the warning (pointers.il shape).
        let diags =
            lint_src("proc main(x) { decl y; decl p; decl a; p := &y; a := *p; return a; }");
        assert!(!codes(&diags).contains(&"IL005"), "{}", diags.render_human());
    }

    #[test]
    fn il006_unknown_callee() {
        let diags = lint_src("proc main(x) { y := missing(1); return y; }");
        assert!(codes(&diags).contains(&"IL006"), "{}", diags.render_human());
    }

    #[test]
    fn il007_duplicate_decl() {
        let diags = lint_src("proc main(x) { decl y; decl y; return x; }");
        assert!(codes(&diags).contains(&"IL007"), "{}", diags.render_human());
    }

    #[test]
    fn il008_duplicate_procedure() {
        // `run` and `optimize` reject this program; lint must too.
        let diags = lint_src(
            "proc main(x) { y := f(x); return y; } proc f(a) { return a; } \
             proc f(b) { decl c; return b; }",
        );
        let found: Vec<_> = diags
            .iter()
            .map(|d| (d.code, d.location.to_string()))
            .collect();
        assert_eq!(
            found,
            [("IL008", "f".to_string())],
            "{}",
            diags.render_human()
        );
        assert!(diags.has_errors());
    }

    #[test]
    fn example_programs_are_clean() {
        for name in ["fib.il", "pointers.il", "redundant.il"] {
            let src = std::fs::read_to_string(format!(
                "{}/../../examples/programs/{name}",
                env!("CARGO_MANIFEST_DIR")
            ))
            .expect("example present");
            let diags = lint_src(&src);
            assert!(diags.is_empty(), "{name}: {}", diags.render_human());
        }
    }
}
