//! Rule text is IL text plus pattern variables (paper §3.2.1): the
//! rule parser reads the IL's own tokens, so every IL operator and
//! comment style works in a rule.

use cobalt::dsl::{parse_suite, Guard, GuardNode, GuardSpec, LabelEnv, StmtPat, Subst};
use cobalt::il::parse_stmt;
use cobalt::lint::{lint_optimization, LintContext, RuleLintOptions};

/// One rule per operator the rule parser could not read before it
/// shared the IL's lexer, plus a region rule whose `stmt(…)` patterns
/// use `&&` and `!` next to the guard's own.
const SUITE: &str = "
/* Statement patterns may use any IL operator,
   and a block comment may open the file. */
local ne { rewrite X := A != B => X := B != A }
local le { rewrite X := A <= B => X := B >= A }
local ge { rewrite X := A >= B => X := B <= A }
local and { rewrite X := A && B => X := B && A }
local or { rewrite X := A || B => X := B || A }
local not { rewrite X := !A => X := A == 0 }  # a line comment

forward and_prop {
    stmt(Y := A && B) && !stmt(Y := !A)
    followed by !mayDef(Y) && !mayDef(A) && !mayDef(B)
    until X := Y => X := A && B
    with witness eta(Y) == eta(A && B)
}
";

#[test]
fn every_il_operator_parses_lints_clean_and_matches_in_a_rule() {
    let suite = parse_suite(SUITE).unwrap();
    assert_eq!(suite.optimizations.len(), 7);
    let env = LabelEnv::standard();
    let ctx = LintContext::new(&env);
    for opt in &suite.optimizations {
        let diags = lint_optimization(opt, &ctx, &RuleLintOptions::default());
        // The operators lint clean. Every template applies an operator,
        // which the checker cannot prove (CL012), and `and_prop`'s
        // witness `eta(A && B)` is a form the checker cannot encode
        // (CL011).
        let codes: Vec<&str> = diags.iter().map(|d| d.code).collect();
        let want: &[&str] = if opt.name == "and_prop" {
            &["CL011", "CL012"]
        } else {
            &["CL012"]
        };
        assert_eq!(codes, want, "{}: {}", opt.name, diags.render_human());
    }
    let rewrites = [
        ("x := a != b", "x := b != a"),
        ("x := a <= b", "x := b >= a"),
        ("x := a >= b", "x := b <= a"),
        ("x := a && b", "x := b && a"),
        ("x := a || b", "x := b || a"),
        ("x := !a", "x := a == 0"),
    ];
    for (opt, (from, to)) in suite.optimizations.iter().zip(rewrites) {
        let theta = opt
            .pattern
            .from
            .try_match(&parse_stmt(from).unwrap(), &Subst::new())
            .unwrap_or_else(|| panic!("{}: `{from}` does not match", opt.name));
        let rewritten = opt.pattern.to.instantiate(&theta).unwrap();
        assert_eq!(rewritten.to_string(), to, "{}", opt.name);
    }
    let GuardSpec::Region(rg) = &suite.optimizations[6].pattern.guard else {
        panic!("and_prop is a region rule");
    };
    // The guard's `&&` and `!` stay outside the `stmt(…)` patterns.
    let mut stmts = Vec::new();
    rg.psi1.visit(&mut |node, scope| {
        if let GuardNode::Atom(Guard::Stmt(pat)) = node {
            stmts.push((scope.negated, pat));
        }
    });
    let matches = |pat: &StmtPat, src: &str| {
        pat.try_match(&parse_stmt(src).unwrap(), &Subst::new())
            .is_some()
    };
    let [(false, enabling), (true, excluded)] = stmts[..] else {
        panic!("two statement patterns, the second negated: {:?}", rg.psi1);
    };
    assert!(matches(enabling, "y := a && b"));
    assert!(matches(excluded, "y := !a"));
}
