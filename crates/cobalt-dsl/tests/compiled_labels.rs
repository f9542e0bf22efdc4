//! Compiled labels against their slow oracle, the walk over the body.
//!
//! `LabelEnv::define` compiles a one-parameter label whose body is a
//! `case` over the statement: it is then evaluated arm by arm, its atoms
//! tested directly, reading its argument in place and building no
//! substitution. The walk over the definition under a substitution stays
//! the reference: every guard must evaluate alike under an
//! environment and under its `interpreted()` copy, errors included, for
//! the standard labels and for random `case` labels. Some random labels
//! cannot compile (an arm pattern naming the parameter, a nested defined
//! label, `unchanged`, an unbound or non-variable operand) and must fall
//! back; arguments are bound to variables, constants and expressions, or
//! unbound; labels are masked or not; and chains of defined labels reach
//! the depth limit, where the compiled arms must give way to the walk's
//! error.

use cobalt_dsl::{
    parse_suite, Binding, ConstPat, Domain, ExprPat, Guard, LabelArg, LabelArgPat, LabelDef,
    LabelEnv, LabelInst, LabelName, LabelSet, NodeCtx, Subst, VarPat,
};
use cobalt_il::{generate, Expr, GenConfig, Lhs, Stmt, Var};
use cobalt_support::{prop, prop_assert_eq, props, Rng};

/// Arm patterns, each with the `$`-names it binds; `$F` is a procedure,
/// `$C` a constant, `$E` an expression. The last names the parameter.
const ARMS: &[(&str, &[&str])] = &[
    ("*$P := ...", &["$P"]),
    ("... := *$P", &["$P"]),
    ("$D := $F($Z)", &["$D", "$F", "$Z"]),
    ("$D := $F($C)", &["$D", "$F", "$C"]),
    ("$D := &$A", &["$D", "$A"]),
    ("$D := $A", &["$D", "$A"]),
    ("$D := $A + $B", &["$D", "$A", "$B"]),
    ("$D := $E", &["$D", "$E"]),
    ("decl $D", &["$D"]),
    ("return $D", &["$D"]),
    ("$D := new", &["$D"]),
    ("if $A goto $I else $J", &["$A", "$I"]),
    ("skip", &[]),
    ("Y := ...", &[]),
];

/// A variable operand: mostly the parameter or an arm's variable, at
/// times a concrete variable or one nothing binds.
fn operand(rng: &mut Rng, locals: &[&str]) -> String {
    match rng.gen_range(0..20) {
        0..=8 => "Y".into(),
        9..=14 if !locals.is_empty() => rng.choose(locals).to_string(),
        15..=17 => rng.choose(&["x", "v0", "p0"]).to_string(),
        18 => "$U".into(),
        _ => "Y".into(),
    }
}

/// A guard over the supported atoms, with a few that are not: a defined
/// label (`mayDef`), `unchanged`, and `true`/`false`.
fn guard(rng: &mut Rng, locals: &[&str], depth: usize) -> String {
    let leaf = depth == 0 || rng.gen_bool(0.4);
    if !leaf {
        let (a, b) = (guard(rng, locals, depth - 1), guard(rng, locals, depth - 1));
        return match rng.gen_range(0..3) {
            0 => format!("!({a})"),
            1 => format!("({a} && {b})"),
            _ => format!("({a} || {b})"),
        };
    }
    let o = operand(rng, locals);
    match rng.gen_range(0..24) {
        0..=5 => format!("syntacticDef({o})"),
        6..=11 => format!("syntacticUse({o})"),
        12..=15 => format!("{o} == {}", operand(rng, locals)),
        16..=19 => format!("notTainted({o})"),
        20 => format!("mayDef({o})"),
        21 => format!("unchanged({o})"),
        22 => "true".into(),
        _ => "false".into(),
    }
}

/// The text of a random one-parameter `case` label.
fn random_label(rng: &mut Rng, name: &str) -> String {
    let mut text = format!("label {name}(Y) {{\n");
    for _ in 0..rng.gen_range(1..5) {
        let (pat, locals) = if rng.gen_bool(0.05) {
            ARMS[ARMS.len() - 1]
        } else {
            *rng.choose(&ARMS[..ARMS.len() - 1])
        };
        text += &format!("    case {pat} => {}\n", guard(rng, locals, 2));
    }
    text + &format!("    else => {}\n}}\n", guard(rng, &[], 2))
}

/// Random labels `r0`, `r1`, … defined over the standard environment.
fn random_env(rng: &mut Rng, count: usize) -> (LabelEnv, Vec<LabelName>) {
    let mut env = LabelEnv::standard();
    let names: Vec<String> = (0..count).map(|i| format!("r{i}")).collect();
    let text: String = names.iter().map(|n| random_label(rng, n)).collect();
    for def in parse_suite(&text).expect("random labels parse").labels {
        env.define(def);
    }
    (env, names.iter().map(LabelName::new).collect())
}

/// Every statement of a few generated programs with calls, pointer
/// stores, loads and address-taking.
fn statements() -> Vec<Stmt> {
    let stmts: Vec<Stmt> = (0..4)
        .flat_map(|seed| {
            let cfg = GenConfig {
                num_vars: 6,
                num_stmts: 40,
                pointer_ratio: 0.5,
                call_ratio: 0.2,
                seed,
                ..GenConfig::default()
            };
            generate(&cfg).procs.into_iter().flat_map(|p| p.stmts)
        })
        .collect();
    let has = |f: fn(&Stmt) -> bool| stmts.iter().any(f);
    assert!(has(|s| matches!(s, Stmt::Call { .. })));
    assert!(has(|s| matches!(s, Stmt::Assign(Lhs::Deref(_), _))));
    assert!(has(|s| matches!(s, Stmt::Assign(_, Expr::Deref(_)))));
    assert!(has(|s| matches!(s, Stmt::Assign(_, Expr::AddrOf(_)))));
    stmts
}

/// A label argument and the substitution it is read under: a pattern
/// variable bound to a variable, a constant or an expression, or
/// unbound; a concrete variable; a constant or expression argument; or
/// two arguments for one parameter.
fn argument(rng: &mut Rng, vars: &[Var], exprs: &[Expr]) -> (Vec<LabelArgPat>, Subst) {
    let a = || LabelArgPat::Var(VarPat::pat("A"));
    let mut theta = Subst::new();
    let args = match rng.gen_range(0..12) {
        0..=5 => {
            theta.bind("A".into(), Binding::Var(rng.choose(vars).clone()));
            vec![a()]
        }
        6 => {
            theta.bind("A".into(), Binding::Const(3));
            vec![a()]
        }
        7 => {
            theta.bind("A".into(), Binding::Expr(rng.choose(exprs).clone()));
            vec![a()]
        }
        8 => vec![a()],
        9 => vec![LabelArgPat::Var(VarPat::Concrete(rng.choose(vars).clone()))],
        10 => vec![LabelArgPat::Const(ConstPat::Concrete(1))],
        _ => vec![a(), a()],
    };
    (args, theta)
}

/// `d0(Y) = d1(Y)`, …, `d{len-1}(Y) = target(Y)`: `d0` reaches `target`
/// `len` levels deep.
fn chain(env: &mut LabelEnv, len: usize, target: &LabelName) {
    let y = || vec![LabelArgPat::Var(VarPat::pat("Y"))];
    for k in 0..len {
        let next = if k + 1 == len {
            target.clone()
        } else {
            LabelName::new(format!("d{}", k + 1))
        };
        env.define(LabelDef {
            name: LabelName::new(format!("d{k}")),
            params: vec!["Y".into()],
            body: Guard::Label(next, y()),
        });
    }
}

fn eval(
    guard: &Guard,
    theta: &Subst,
    stmt: &Stmt,
    labels: &Vec<LabelSet>,
    env: &LabelEnv,
) -> Result<bool, String> {
    let domain = Domain::default();
    let ctx = NodeCtx {
        stmt,
        node: 0,
        labels,
        env,
        domain: &domain,
    };
    guard.eval(&ctx, theta).map_err(|e| e.to_string())
}

#[test]
fn random_labels_compile_and_fall_back() {
    let mut rng = Rng::seed_from_u64(7);
    let (env, names) = random_env(&mut rng, 200);
    let compiled = names.iter().filter(|n| env.is_compiled(n)).count();
    let share = format!("{compiled} of 200 random labels compile");
    assert!((40..=160).contains(&compiled), "{share}");
    assert!(!env.interpreted().is_compiled(&"mayDef".into()));
}

props! {
    config = prop::Config::with_cases(256);

    fn compiled_labels_agree_with_the_walk(seed in 0u64..u64::MAX) {
        let mut rng = Rng::seed_from_u64(seed);
        let stmts = statements();
        let (mut env, mut names) = random_env(&mut rng, 4);
        names.extend(["mayDef", "mayUse"].map(LabelName::new));
        let len = rng.gen_range(29usize..35);
        let target = rng.choose(&names).clone();
        chain(&mut env, len, &target);
        names.push(LabelName::new("d0"));
        let oracle = env.interpreted();
        let mut vars: Vec<Var> = ["x", "y", "v0", "p0", "arg"].map(Var::new).to_vec();
        let mut exprs = Vec::new();
        for s in &stmts {
            vars.extend(s.reads().cloned());
            if let Stmt::Assign(_, e) = s {
                exprs.push(e.clone());
            }
        }
        for _ in 0..32 {
            let stmt = rng.choose(&stmts);
            let mut labels = vec![LabelSet::new()];
            if rng.gen_bool(0.7) {
                for v in &vars {
                    if rng.gen_bool(0.5) {
                        let inst = LabelInst::new("notTainted", vec![LabelArg::Var(v.clone())]);
                        labels[0].insert(inst);
                    }
                }
            }
            for name in &names {
                let (args, theta) = argument(&mut rng, &vars, &exprs);
                let g = Guard::Label(name.clone(), args);
                prop_assert_eq!(
                    eval(&g, &theta, stmt, &labels, &env),
                    eval(&g, &theta, stmt, &labels, &oracle),
                    "{:?} under {} at `{}`",
                    g,
                    theta,
                    stmt
                );
            }
            // `unchanged(E)` reads `mayDef` and `notTainted` one level down.
            let mut theta = Subst::new();
            theta.bind("E".into(), Binding::Expr(rng.choose(&exprs).clone()));
            let g = Guard::Unchanged(ExprPat::Pat("E".into()));
            prop_assert_eq!(
                eval(&g, &theta, stmt, &labels, &env),
                eval(&g, &theta, stmt, &labels, &oracle)
            );
        }
    }
}
