//! Labels: named properties of CFG nodes (paper §2.1.3).
//!
//! A label is either *defined* — given by a predicate over the current
//! statement, registered in a [`LabelEnv`] — or *semantic* — attached to
//! nodes by a pure analysis (paper §2.4) and looked up through the
//! procedure's [`Labels`]. A label name with no definition is treated as
//! semantic; if the node does not carry it, it evaluates to false, which
//! is the conservative direction for the way labels are used in guards
//! (e.g. `¬notTainted(Y)` then holds).

use crate::pattern::{ConstPat, ExprPat, StmtPat, VarPat};
use crate::subst::{Binding, PatVar, Subst};
use crate::error::InstError;
use crate::guard::{Guard, NodeCtx};
use cobalt_il::{Expr, Name, Var};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The name of a label, e.g. `mayDef` or `notTainted`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LabelName(Name);

impl LabelName {
    /// Creates a label name.
    pub fn new(name: impl AsRef<str>) -> Self {
        LabelName(Name::new(name.as_ref()))
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        self.0.as_str()
    }
}

impl fmt::Display for LabelName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for LabelName {
    fn from(s: &str) -> Self {
        LabelName::new(s)
    }
}

/// A concrete label argument (no pattern variables).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelArg {
    /// A program variable.
    Var(Var),
    /// A constant.
    Const(i64),
    /// An expression.
    Expr(Expr),
}

impl fmt::Display for LabelArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelArg::Var(v) => write!(f, "{v}"),
            LabelArg::Const(c) => write!(f, "{c}"),
            LabelArg::Expr(e) => write!(f, "{e}"),
        }
    }
}

impl From<LabelArg> for Binding {
    fn from(a: LabelArg) -> Binding {
        match a {
            LabelArg::Var(v) => Binding::Var(v),
            LabelArg::Const(c) => Binding::Const(c),
            LabelArg::Expr(e) => Binding::Expr(e),
        }
    }
}

/// A concrete label instance, e.g. `notTainted(y)`: one member of a
/// node's labels `L_p(ι)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelInst {
    /// The label name.
    pub name: LabelName,
    /// The concrete arguments.
    pub args: Vec<LabelArg>,
}

impl LabelInst {
    /// Creates a label instance.
    pub fn new(name: impl Into<LabelName>, args: Vec<LabelArg>) -> Self {
        LabelInst {
            name: name.into(),
            args,
        }
    }
}

impl fmt::Display for LabelInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")")
    }
}

/// A label argument position in a guard: may contain pattern variables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum LabelArgPat {
    /// A variable position.
    Var(VarPat),
    /// A constant position.
    Const(ConstPat),
    /// An expression position.
    Expr(ExprPat),
}

impl LabelArgPat {
    /// Instantiates into a concrete argument under `theta`.
    ///
    /// # Errors
    ///
    /// Fails on unbound or kind-mismatched pattern variables.
    pub fn instantiate(&self, theta: &Subst) -> Result<LabelArg, InstError> {
        match self {
            LabelArgPat::Var(v) => Ok(LabelArg::Var(v.instantiate(theta)?)),
            LabelArgPat::Const(c) => Ok(LabelArg::Const(c.instantiate(theta)?)),
            LabelArgPat::Expr(e) => Ok(LabelArg::Expr(e.instantiate(theta)?)),
        }
    }

    /// Appends every pattern-variable occurrence, in order, including
    /// those nested inside a compound expression argument.
    pub fn vars(&self, out: &mut Vec<(PatVar, FragKind)>) {
        match self {
            LabelArgPat::Var(v) => v.vars(out),
            LabelArgPat::Const(c) => c.vars(out),
            LabelArgPat::Expr(e) => e.vars(out),
        }
    }
}

impl fmt::Display for LabelArgPat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LabelArgPat::Var(v) => write!(f, "{v}"),
            LabelArgPat::Const(c) => write!(f, "{c}"),
            LabelArgPat::Expr(e) => write!(f, "{e}"),
        }
    }
}

/// The kind of fragment a pattern variable ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FragKind {
    /// Program variables.
    Var,
    /// Integer constants.
    Const,
    /// Expressions.
    Expr,
    /// Statement indices (branch targets).
    Index,
    /// Procedure names.
    Proc,
}

/// A user label definition: a predicate over `currStmt` (paper §2.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelDef {
    /// The label's name.
    pub name: LabelName,
    /// Formal parameters, bound to the label's arguments on use.
    pub params: Vec<PatVar>,
    /// The defining predicate; refers to the node's statement via
    /// statement guards ([`Guard::Stmt`], [`Guard::CaseStmt`], the
    /// syntactic primitives, …).
    pub body: Guard,
}

/// The label environment: all label definitions in scope.
///
/// Defining a label compiles it where it can ([`LabelEnv::is_compiled`]):
/// a one-parameter label whose body is a `case` over the statement, with
/// no arm pattern naming the parameter, is then evaluated arm by arm,
/// reading its argument in place. Clones share the definitions.
///
/// # Examples
///
/// ```
/// use cobalt_dsl::LabelEnv;
/// let env = LabelEnv::standard();
/// assert!(env.lookup(&"mayDef".into()).is_some());
/// assert!(env.is_compiled(&"mayDef".into()));
/// assert!(env.lookup(&"notTainted".into()).is_none()); // semantic
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelEnv {
    /// In definition order, one per name, each with whether it compiled:
    /// a handful, found by name.
    defs: Arc<Vec<(LabelDef, bool)>>,
}

impl LabelEnv {
    /// An empty environment (all labels treated as semantic).
    pub fn new() -> Self {
        LabelEnv::default()
    }

    /// The standard environment: `mayDef`/`mayUse` in their
    /// pointer-aware forms (paper §2.4), which degrade to the
    /// conservative forms when no `notTainted` facts are present. Their
    /// text is `stdlib.cob`, parsed once per process.
    pub fn standard() -> Self {
        static STANDARD: OnceLock<LabelEnv> = OnceLock::new();
        STANDARD
            .get_or_init(|| {
                let stdlib =
                    crate::parse_suite(include_str!("stdlib.cob")).expect("stdlib.cob parses");
                let mut env = LabelEnv::new();
                for def in stdlib.labels {
                    env.define(def);
                }
                env
            })
            .clone()
    }

    /// Registers (or replaces) a label definition, and compiles every
    /// definition again: the new name may be one a compiled label read
    /// as semantic.
    pub fn define(&mut self, def: LabelDef) {
        let defs = Arc::make_mut(&mut self.defs);
        match defs.iter_mut().find(|d| d.0.name == def.name) {
            Some(old) => old.0 = def,
            None => defs.push((def, false)),
        }
        for k in 0..defs.len() {
            defs[k].1 = compiles(&defs[k].0, &|name| defs.iter().any(|d| d.0.name == *name));
        }
    }

    /// Looks up a definition; `None` means the label is semantic.
    pub fn lookup(&self, name: &LabelName) -> Option<&LabelDef> {
        self.find(name).map(|d| &d.0)
    }

    /// A definition and whether it compiled.
    pub(crate) fn find(&self, name: &LabelName) -> Option<&(LabelDef, bool)> {
        self.defs.iter().find(|d| d.0.name == *name)
    }

    /// Whether `name` is a defined label evaluated arm by arm
    /// ([`eval_arms`]) rather than by walking its body under a
    /// substitution.
    pub fn is_compiled(&self, name: &LabelName) -> bool {
        self.find(name).is_some_and(|d| d.1)
    }

    /// This environment with no label compiled: the slow oracle the
    /// compiled labels are tested against.
    pub fn interpreted(&self) -> LabelEnv {
        let defs = self.defs.iter().map(|d| (d.0.clone(), false));
        LabelEnv {
            defs: Arc::new(defs.collect()),
        }
    }

    /// Iterates over all definitions.
    pub fn iter(&self) -> impl Iterator<Item = &LabelDef> {
        self.defs.iter().map(|d| &d.0)
    }
}

/// Whether `def` compiles (DESIGN.md §13): it has one parameter and a
/// `case` body whose arm patterns do not name it, and each arm's guard
/// reads only the parameter, concrete variables and variables its pattern
/// binds at variable positions only, in atoms [`direct`] accepts.
fn compiles(def: &LabelDef, defined: &dyn Fn(&LabelName) -> bool) -> bool {
    let ([param], Guard::CaseStmt { arms, default }) = (&def.params[..], &def.body) else {
        return false;
    };
    let arm = |pat: Option<&StmtPat>, g: &Guard| {
        let mut vars = Vec::new();
        pat.inspect(|pat| pat.vars(&mut vars));
        let bound = |v: &VarPat| match v {
            VarPat::Concrete(_) => true,
            VarPat::Pat(p) => {
                p == param
                    || vars.iter().any(|(q, _)| q == p)
                        && vars.iter().all(|(q, k)| q != p || *k == FragKind::Var)
            }
        };
        vars.iter().all(|(p, _)| p != param) && direct(g, &bound, defined)
    };
    arms.iter().all(|(pat, g)| arm(Some(pat), g)) && arm(None, default)
}

/// Whether `g` is built from `true`, `false`, `!`, `&&`, `||`,
/// `syntacticDef`, `syntacticUse`, `==` of variables and labels of one
/// variable that are not `defined`, over `bound` variables: a guard that
/// never fails.
fn direct(
    g: &Guard,
    bound: &dyn Fn(&VarPat) -> bool,
    defined: &dyn Fn(&LabelName) -> bool,
) -> bool {
    match g {
        Guard::True | Guard::False => true,
        Guard::Not(g) => direct(g, bound, defined),
        Guard::And(gs) | Guard::Or(gs) => gs.iter().all(|g| direct(g, bound, defined)),
        Guard::SyntacticDef(v) | Guard::SyntacticUse(v) => bound(v),
        Guard::VarEq(a, b) => bound(a) && bound(b),
        Guard::Label(name, args) => {
            !defined(name) && matches!(&args[..], [LabelArgPat::Var(v)] if bound(v))
        }
        _ => false,
    }
}

/// A compiled label's value at `ctx`'s node with its parameter bound to
/// `arg`: the guard of the first arm whose pattern matches the statement
/// under the empty θ, its atoms tested directly.
pub(crate) fn eval_arms(def: &LabelDef, ctx: &NodeCtx<'_>, arg: &Var) -> bool {
    let Guard::CaseStmt { arms, default } = &def.body else {
        unreachable!("a compiled label is a `case`")
    };
    let none = Subst::new();
    let matched = (arms.iter()).find_map(|(pat, g)| Some((g, pat.try_match(ctx.stmt, &none)?)));
    let (g, locals) = matched.unwrap_or((default, none));
    Arm {
        ctx,
        param: &def.params[0],
        arg,
        locals,
    }
    .eval(g)
}

/// What a compiled label's arm reads.
struct Arm<'a> {
    ctx: &'a NodeCtx<'a>,
    param: &'a PatVar,
    arg: &'a Var,
    locals: Subst,
}

impl Arm<'_> {
    fn var<'v>(&'v self, v: &'v VarPat) -> &'v Var {
        match v {
            VarPat::Concrete(v) => v,
            VarPat::Pat(p) if p == self.param => self.arg,
            VarPat::Pat(p) => match self.locals.get(p) {
                Some(Binding::Var(v)) => v,
                _ => unreachable!("a compiled arm's pattern binds `{p}` to a variable"),
            },
        }
    }

    fn eval(&self, g: &Guard) -> bool {
        let stmt = self.ctx.stmt;
        match g {
            Guard::True => true,
            Guard::False => false,
            Guard::Not(g) => !self.eval(g),
            Guard::And(gs) => gs.iter().all(|g| self.eval(g)),
            Guard::Or(gs) => gs.iter().any(|g| self.eval(g)),
            Guard::SyntacticDef(v) => stmt.syntactic_def() == Some(self.var(v)),
            Guard::SyntacticUse(v) => {
                let v = self.var(v);
                stmt.reads().any(|w| w == v)
            }
            Guard::VarEq(a, b) => self.var(a) == self.var(b),
            Guard::Label(name, args) => {
                let [LabelArgPat::Var(v)] = &args[..] else {
                    unreachable!("a compiled label reads labels of one variable")
                };
                let arg = [LabelArg::Var(self.var(v).clone())];
                self.ctx.labels.holds(self.ctx.node, name, &arg)
            }
            _ => unreachable!("a compiled label tests no other atom"),
        }
    }
}

/// The semantic labels of a procedure's nodes, as guard evaluation
/// reads them.
pub trait Labels: fmt::Debug {
    /// Whether node `node` carries the label instance `name(args)`.
    fn holds(&self, node: usize, name: &LabelName, args: &[LabelArg]) -> bool;
}

/// The semantic labels attached to one CFG node, as a set of instances:
/// the plain form test oracles keep.
pub type LabelSet = HashSet<LabelInst>;

/// One set per node, indexed by node.
impl Labels for Vec<LabelSet> {
    fn holds(&self, node: usize, name: &LabelName, args: &[LabelArg]) -> bool {
        self[node].contains(&LabelInst::new(name.clone(), args.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_inst_display() {
        let l = LabelInst::new(
            "notTainted",
            vec![LabelArg::Var(Var::new("y"))],
        );
        assert_eq!(l.to_string(), "notTainted(y)");
    }

    #[test]
    fn label_arg_to_binding() {
        assert_eq!(
            Binding::from(LabelArg::Const(3)),
            Binding::Const(3)
        );
        assert_eq!(
            Binding::from(LabelArg::Var(Var::new("x"))),
            Binding::Var(Var::new("x"))
        );
    }

    #[test]
    fn env_define_and_lookup() {
        let mut env = LabelEnv::new();
        assert!(env.lookup(&"foo".into()).is_none());
        env.define(LabelDef {
            name: "foo".into(),
            params: vec!["X".into()],
            body: Guard::True,
        });
        assert_eq!(env.lookup(&"foo".into()).unwrap().params.len(), 1);
        assert_eq!(env.iter().count(), 1);
    }

    #[test]
    fn standard_env_has_core_labels() {
        let env = LabelEnv::standard();
        for name in ["mayDef", "mayUse"] {
            assert!(env.lookup(&name.into()).is_some(), "{name} missing");
        }
    }

    /// The engine evaluates `mayDef`/`mayUse` at every node for every
    /// substitution, so each label of `stdlib.cob` must take the compiled
    /// path, not the walk.
    #[test]
    fn every_standard_label_compiles() {
        let env = LabelEnv::standard();
        for def in env.iter() {
            let name = &def.name;
            assert!(env.is_compiled(name), "`{name}` does not compile");
        }
        assert!(env.iter().count() >= 2);
    }

    #[test]
    fn a_new_definition_recompiles_the_labels_that_read_it() {
        let mut env = LabelEnv::standard();
        env.define(LabelDef {
            name: "notTainted".into(),
            params: vec!["X".into()],
            body: Guard::True,
        });
        assert!(!env.is_compiled(&"mayDef".into()));
        assert!(LabelEnv::standard().is_compiled(&"mayDef".into()));
    }

    fn eval_may_def(stmt_src: &str, var: &str, tainted_facts: &[&str]) -> bool {
        use crate::guard::{Domain, NodeCtx};
        let stmt = cobalt_il::parse_stmt(stmt_src).unwrap();
        let mut labels = vec![LabelSet::new()];
        for v in tainted_facts {
            labels[0].insert(LabelInst::new(
                "notTainted",
                vec![LabelArg::Var(Var::new(*v))],
            ));
        }
        let env = LabelEnv::standard();
        let domain = Domain::default();
        let ctx = NodeCtx {
            stmt: &stmt,
            node: 0,
            labels: &labels,
            env: &env,
            domain: &domain,
        };
        Guard::Label(
            "mayDef".into(),
            vec![LabelArgPat::Var(VarPat::Concrete(Var::new(var)))],
        )
        .eval(&ctx, &Subst::new())
        .unwrap()
    }

    #[test]
    fn call_with_const_arg_may_define_dst() {
        assert!(eval_may_def("y := f(1)", "y", &[]));
        assert!(eval_may_def("z := f(1)", "y", &[]));
        // …but not a notTainted other variable.
        assert!(!eval_may_def("z := f(1)", "y", &["y"]));
        // The destination is always defined, even if notTainted.
        assert!(eval_may_def("y := f(1)", "y", &["y"]));
    }

    #[test]
    fn pointer_store_respects_taint() {
        assert!(eval_may_def("*p := 1", "y", &[]));
        assert!(!eval_may_def("*p := 1", "y", &["y"]));
    }

    #[test]
    fn new_defines_only_its_destination() {
        assert!(eval_may_def("y := new", "y", &[]));
        assert!(!eval_may_def("y := new", "z", &[]));
    }
}
