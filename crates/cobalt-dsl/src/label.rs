//! Labels: named properties of CFG nodes (paper §2.1.3).
//!
//! A label is either *defined* — given by a predicate over the current
//! statement, registered in a [`LabelEnv`] — or *semantic* — attached to
//! nodes by a pure analysis (paper §2.4) and looked up through the
//! procedure's [`Labels`]. A label name with no definition is treated as
//! semantic; if the node does not carry it, it evaluates to false, which
//! is the conservative direction for the way labels are used in guards
//! (e.g. `¬notTainted(Y)` then holds).

use crate::pattern::{ConstPat, ExprPat, VarPat};
use crate::subst::{Binding, PatVar, Subst};
use crate::error::InstError;
use crate::guard::Guard;
use cobalt_il::{Expr, Name, Var};
use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

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
/// # Examples
///
/// ```
/// use cobalt_dsl::LabelEnv;
/// let env = LabelEnv::standard();
/// assert!(env.lookup(&"mayDef".into()).is_some());
/// assert!(env.lookup(&"notTainted".into()).is_none()); // semantic
/// ```
#[derive(Debug, Clone, Default)]
pub struct LabelEnv {
    /// In definition order, one per name: a handful, found by name.
    defs: Vec<LabelDef>,
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

    /// Registers (or replaces) a label definition.
    pub fn define(&mut self, def: LabelDef) {
        match self.defs.iter_mut().find(|d| d.name == def.name) {
            Some(old) => *old = def,
            None => self.defs.push(def),
        }
    }

    /// Looks up a definition; `None` means the label is semantic.
    pub fn lookup(&self, name: &LabelName) -> Option<&LabelDef> {
        self.defs.iter().find(|d| d.name == *name)
    }

    /// Iterates over all definitions.
    pub fn iter(&self) -> impl Iterator<Item = &LabelDef> {
        self.defs.iter()
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
