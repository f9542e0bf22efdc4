//! Abstract syntax of the Cobalt intermediate language.
//!
//! A program `π` is a sequence of procedures; each procedure is a sequence
//! of statements indexed consecutively from 0 (paper §3.1). The language is
//! untyped and C-like: unstructured control flow (`if b goto ι else ι`),
//! pointers to local variables (`&x`, `*x`), dynamic allocation
//! (`x := new`), recursive procedure calls and returns.
//!
//! All AST types are passive data structures with public fields, following
//! the C-struct spirit of the API guidelines.

use std::fmt;

/// A local variable name.
///
/// # Examples
///
/// ```
/// use cobalt_il::Var;
/// let x = Var::new("x");
/// assert_eq!(x.as_str(), "x");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(String);

impl Var {
    /// Creates a variable from a name.
    pub fn new(name: impl Into<String>) -> Self {
        Var(name.into())
    }

    /// Returns the variable's name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var::new(s)
    }
}

/// A procedure name.
///
/// # Examples
///
/// ```
/// use cobalt_il::ProcName;
/// let p = ProcName::new("main");
/// assert_eq!(p.as_str(), "main");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcName(String);

impl ProcName {
    /// Creates a procedure name.
    pub fn new(name: impl Into<String>) -> Self {
        ProcName(name.into())
    }

    /// Returns the name as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for ProcName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ProcName {
    fn from(s: &str) -> Self {
        ProcName::new(s)
    }
}

/// A base expression: a variable reference or an integer constant
/// (paper grammar: `b ::= x | c`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BaseExpr {
    /// A variable reference.
    Var(Var),
    /// An integer constant.
    Const(i64),
}

impl BaseExpr {
    /// Convenience constructor for a variable operand.
    pub fn var(name: impl Into<String>) -> Self {
        BaseExpr::Var(Var::new(name))
    }
}

impl fmt::Display for BaseExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaseExpr::Var(v) => write!(f, "{v}"),
            BaseExpr::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<i64> for BaseExpr {
    fn from(c: i64) -> Self {
        BaseExpr::Const(c)
    }
}

impl From<Var> for BaseExpr {
    fn from(v: Var) -> Self {
        BaseExpr::Var(v)
    }
}

/// An n-ary operator over non-pointer values (paper grammar: `op`).
///
/// Applying any operator to a location value is a run-time error
/// (execution gets stuck), matching the paper's restriction of operators
/// to non-pointer values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    /// Integer addition (arity ≥ 1; unary `+` is the identity).
    Add,
    /// Integer subtraction; unary form is negation.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division; division by zero is a run-time error.
    Div,
    /// Integer remainder; zero divisor is a run-time error.
    Mod,
    /// Equality; yields 1 or 0.
    Eq,
    /// Disequality; yields 1 or 0.
    Ne,
    /// Less-than; yields 1 or 0.
    Lt,
    /// Less-or-equal; yields 1 or 0.
    Le,
    /// Greater-than; yields 1 or 0.
    Gt,
    /// Greater-or-equal; yields 1 or 0.
    Ge,
    /// Logical conjunction over 0/nonzero truthiness; yields 1 or 0.
    And,
    /// Logical disjunction; yields 1 or 0.
    Or,
    /// Logical negation (unary); yields 1 or 0.
    Not,
}

impl OpKind {
    /// The surface-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            OpKind::Add => "+",
            OpKind::Sub => "-",
            OpKind::Mul => "*",
            OpKind::Div => "/",
            OpKind::Mod => "%",
            OpKind::Eq => "==",
            OpKind::Ne => "!=",
            OpKind::Lt => "<",
            OpKind::Le => "<=",
            OpKind::Gt => ">",
            OpKind::Ge => ">=",
            OpKind::And => "&&",
            OpKind::Or => "||",
            OpKind::Not => "!",
        }
    }

    /// All operator kinds, for exhaustive case analysis and generation.
    pub fn all() -> &'static [OpKind] {
        &[
            OpKind::Add,
            OpKind::Sub,
            OpKind::Mul,
            OpKind::Div,
            OpKind::Mod,
            OpKind::Eq,
            OpKind::Ne,
            OpKind::Lt,
            OpKind::Le,
            OpKind::Gt,
            OpKind::Ge,
            OpKind::And,
            OpKind::Or,
            OpKind::Not,
        ]
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An expression (paper grammar: `e ::= b | *x | &x | op b … b`).
///
/// Note that operator arguments are *base* expressions only; compound
/// expressions must be built via temporaries, as in three-address code.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Expr {
    /// A base expression.
    Base(BaseExpr),
    /// A pointer dereference `*x`.
    Deref(Var),
    /// Taking the address of a local: `&x`.
    AddrOf(Var),
    /// An n-ary operator application `op(b, …, b)` with arity ≥ 1.
    Op(OpKind, Vec<BaseExpr>),
}

impl Expr {
    /// Convenience constructor for a variable expression.
    pub fn var(name: impl Into<String>) -> Self {
        Expr::Base(BaseExpr::var(name))
    }

    /// Convenience constructor for a constant expression.
    pub fn constant(c: i64) -> Self {
        Expr::Base(BaseExpr::Const(c))
    }

    /// Convenience constructor for a binary operator application.
    pub fn binop(op: OpKind, lhs: BaseExpr, rhs: BaseExpr) -> Self {
        Expr::Op(op, vec![lhs, rhs])
    }

    /// The variables this expression *reads* (not counting `&x`, which
    /// mentions `x` without reading its contents).
    pub fn read_vars(&self) -> Vec<&Var> {
        match self {
            Expr::Base(BaseExpr::Var(v)) | Expr::Deref(v) => vec![v],
            Expr::Base(BaseExpr::Const(_)) | Expr::AddrOf(_) => vec![],
            Expr::Op(_, args) => args
                .iter()
                .filter_map(|b| match b {
                    BaseExpr::Var(v) => Some(v),
                    BaseExpr::Const(_) => None,
                })
                .collect(),
        }
    }

    /// All variables syntactically mentioned, including in `&x`.
    pub fn mentioned_vars(&self) -> Vec<&Var> {
        match self {
            Expr::Base(BaseExpr::Var(v)) | Expr::Deref(v) | Expr::AddrOf(v) => vec![v],
            Expr::Base(BaseExpr::Const(_)) => vec![],
            Expr::Op(_, args) => args
                .iter()
                .filter_map(|b| match b {
                    BaseExpr::Var(v) => Some(v),
                    BaseExpr::Const(_) => None,
                })
                .collect(),
        }
    }

    /// Whether this expression dereferences a pointer.
    pub fn has_deref(&self) -> bool {
        matches!(self, Expr::Deref(_))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Base(b) => write!(f, "{b}"),
            Expr::Deref(v) => write!(f, "*{v}"),
            Expr::AddrOf(v) => write!(f, "&{v}"),
            Expr::Op(op, args) => match (op, args.as_slice()) {
                (_, [a, b]) => write!(f, "{a} {op} {b}"),
                (OpKind::Not, [a]) => write!(f, "!{a}"),
                (OpKind::Sub, [a]) => write!(f, "-{a}"),
                _ => {
                    write!(f, "{op}(")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, ")")
                }
            },
        }
    }
}

impl From<BaseExpr> for Expr {
    fn from(b: BaseExpr) -> Self {
        Expr::Base(b)
    }
}

/// An assignable location (paper grammar: `lhs ::= x | *x`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Lhs {
    /// A local variable.
    Var(Var),
    /// The location pointed to by a local: `*x`.
    Deref(Var),
}

impl Lhs {
    /// Convenience constructor for a variable left-hand side.
    pub fn var(name: impl Into<String>) -> Self {
        Lhs::Var(Var::new(name))
    }
}

impl fmt::Display for Lhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lhs::Var(v) => write!(f, "{v}"),
            Lhs::Deref(v) => write!(f, "*{v}"),
        }
    }
}

/// A statement index within a procedure (paper: `ι`).
pub type Index = usize;

/// A statement (paper grammar: `s`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Stmt {
    /// `decl x` — declares local `x`, giving it a fresh location
    /// initialized to 0.
    Decl(Var),
    /// `skip` — no effect. Also used as the replacement form for
    /// statement removal and the source form for statement insertion.
    Skip,
    /// `lhs := e` — assignment through a variable or pointer.
    Assign(Lhs, Expr),
    /// `x := new` — heap allocation; stores a fresh location into `x`.
    New(Var),
    /// `x := p(b)` — procedure call.
    Call {
        /// Destination variable receiving the callee's return value.
        dst: Var,
        /// Callee name.
        proc: ProcName,
        /// The single actual argument.
        arg: BaseExpr,
    },
    /// `if b goto ι else ι` — conditional branch on a base expression
    /// (nonzero means true; branching on a location is a run-time error).
    If {
        /// The branch condition.
        cond: BaseExpr,
        /// Target when the condition is nonzero.
        then_target: Index,
        /// Target when the condition is zero.
        else_target: Index,
    },
    /// `return x` — returns the value of `x` to the caller.
    Return(Var),
}

impl Stmt {
    /// Convenience constructor for `x := e`.
    pub fn assign_var(name: impl Into<String>, e: Expr) -> Self {
        Stmt::Assign(Lhs::var(name), e)
    }

    /// The variables whose *contents* this statement reads.
    ///
    /// `&x` does not read `x`; `*x := e` reads `x` (the pointer) and the
    /// reads of `e`; `x := p(b)` reads `b`.
    pub fn read_vars(&self) -> Vec<&Var> {
        match self {
            Stmt::Decl(_) | Stmt::Skip | Stmt::New(_) => vec![],
            Stmt::Assign(lhs, e) => {
                let mut vs = e.read_vars();
                if let Lhs::Deref(p) = lhs {
                    vs.push(p);
                }
                vs
            }
            Stmt::Call { arg, .. } => match arg {
                BaseExpr::Var(v) => vec![v],
                BaseExpr::Const(_) => vec![],
            },
            Stmt::If { cond, .. } => match cond {
                BaseExpr::Var(v) => vec![v],
                BaseExpr::Const(_) => vec![],
            },
            Stmt::Return(v) => vec![v],
        }
    }

    /// The variable this statement *syntactically* defines, if any.
    ///
    /// A pointer store `*x := e` defines no variable syntactically (it
    /// may define any tainted variable semantically — see the `mayDef`
    /// label in `cobalt-dsl`).
    pub fn syntactic_def(&self) -> Option<&Var> {
        match self {
            Stmt::Decl(v) | Stmt::New(v) => Some(v),
            Stmt::Assign(Lhs::Var(v), _) => Some(v),
            Stmt::Call { dst, .. } => Some(dst),
            Stmt::Assign(Lhs::Deref(_), _) | Stmt::Skip | Stmt::If { .. } | Stmt::Return(_) => {
                None
            }
        }
    }
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stmt::Decl(v) => write!(f, "decl {v}"),
            Stmt::Skip => write!(f, "skip"),
            Stmt::Assign(lhs, e) => write!(f, "{lhs} := {e}"),
            Stmt::New(v) => write!(f, "{v} := new"),
            Stmt::Call { dst, proc, arg } => write!(f, "{dst} := {proc}({arg})"),
            Stmt::If {
                cond,
                then_target,
                else_target,
            } => write!(f, "if {cond} goto {then_target} else {else_target}"),
            Stmt::Return(v) => write!(f, "return {v}"),
        }
    }
}

/// A procedure `p(x) { s; …; s; }` (paper grammar: `pr`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Proc {
    /// The procedure's name.
    pub name: ProcName,
    /// The single formal parameter.
    pub param: Var,
    /// The statement sequence; `stmts[ι]` is the statement at index `ι`.
    pub stmts: Vec<Stmt>,
}

impl Proc {
    /// Creates a procedure.
    pub fn new(name: impl Into<String>, param: impl Into<String>, stmts: Vec<Stmt>) -> Self {
        Proc {
            name: ProcName::new(name),
            param: Var::new(param),
            stmts,
        }
    }

    /// The statement at index `ι`, i.e. `stmtAt(p, ι)`.
    pub fn stmt_at(&self, index: Index) -> Option<&Stmt> {
        self.stmts.get(index)
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the procedure has no statements (always ill-formed).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// All variables declared in or otherwise mentioned by the procedure,
    /// including the parameter, deduplicated in first-mention order.
    pub fn variables(&self) -> Vec<Var> {
        let mut seen = Vec::new();
        let mut push = |v: &Var| {
            if !seen.contains(v) {
                seen.push(v.clone());
            }
        };
        push(&self.param);
        for s in &self.stmts {
            match s {
                Stmt::Decl(v) | Stmt::New(v) | Stmt::Return(v) => push(v),
                Stmt::Skip => {}
                Stmt::Assign(lhs, e) => {
                    match lhs {
                        Lhs::Var(v) | Lhs::Deref(v) => push(v),
                    }
                    for v in e.mentioned_vars() {
                        push(v);
                    }
                }
                Stmt::Call { dst, arg, .. } => {
                    push(dst);
                    if let BaseExpr::Var(v) = arg {
                        push(v);
                    }
                }
                Stmt::If { cond, .. } => {
                    if let BaseExpr::Var(v) = cond {
                        push(v);
                    }
                }
            }
        }
        seen
    }

    /// All integer constants appearing in the procedure, deduplicated.
    pub fn constants(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut push = |c: i64| {
            if !out.contains(&c) {
                out.push(c);
            }
        };
        let base = |b: &BaseExpr, push: &mut dyn FnMut(i64)| {
            if let BaseExpr::Const(c) = b {
                push(*c);
            }
        };
        for s in &self.stmts {
            match s {
                Stmt::Assign(_, e) => match e {
                    Expr::Base(b) => base(b, &mut push),
                    Expr::Op(_, args) => {
                        for a in args {
                            base(a, &mut push);
                        }
                    }
                    Expr::Deref(_) | Expr::AddrOf(_) => {}
                },
                Stmt::Call { arg, .. } => base(arg, &mut push),
                Stmt::If { cond, .. } => base(cond, &mut push),
                _ => {}
            }
        }
        out
    }
}

/// A whole program: a sequence of procedures with a distinguished `main`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The procedures, in declaration order.
    pub procs: Vec<Proc>,
}

impl Program {
    /// Creates a program from its procedures.
    pub fn new(procs: Vec<Proc>) -> Self {
        Program { procs }
    }

    /// Looks up a procedure by name.
    pub fn proc(&self, name: &ProcName) -> Option<&Proc> {
        self.procs.iter().find(|p| &p.name == name)
    }

    /// Mutable lookup of a procedure by name.
    pub fn proc_mut(&mut self, name: &ProcName) -> Option<&mut Proc> {
        self.procs.iter_mut().find(|p| &p.name == name)
    }

    /// The distinguished `main` procedure, if present.
    pub fn main(&self) -> Option<&Proc> {
        self.proc(&ProcName::new("main"))
    }

    /// Returns `π[p ↦ p']`: this program with the procedure named
    /// `p'.name` replaced by `p'`.
    ///
    /// If no procedure with that name exists, the program is returned
    /// unchanged.
    pub fn with_proc_replaced(&self, replacement: Proc) -> Program {
        let mut out = self.clone();
        if let Some(slot) = out.proc_mut(&replacement.name) {
            *slot = replacement;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> Var {
        Var::new("x")
    }

    #[test]
    fn var_display_and_eq() {
        assert_eq!(x().to_string(), "x");
        assert_eq!(Var::new("x"), Var::from("x"));
        assert_ne!(Var::new("x"), Var::new("y"));
    }

    #[test]
    fn expr_display_forms() {
        assert_eq!(Expr::var("a").to_string(), "a");
        assert_eq!(Expr::constant(42).to_string(), "42");
        assert_eq!(Expr::Deref(x()).to_string(), "*x");
        assert_eq!(Expr::AddrOf(x()).to_string(), "&x");
        assert_eq!(
            Expr::binop(OpKind::Add, BaseExpr::var("a"), BaseExpr::Const(1)).to_string(),
            "a + 1"
        );
        assert_eq!(
            Expr::Op(OpKind::Not, vec![BaseExpr::var("a")]).to_string(),
            "!a"
        );
        assert_eq!(
            Expr::Op(
                OpKind::Add,
                vec![BaseExpr::var("a"), BaseExpr::var("b"), BaseExpr::Const(3)]
            )
            .to_string(),
            "+(a, b, 3)"
        );
    }

    #[test]
    fn stmt_display_forms() {
        assert_eq!(Stmt::Decl(x()).to_string(), "decl x");
        assert_eq!(Stmt::Skip.to_string(), "skip");
        assert_eq!(
            Stmt::Assign(Lhs::Deref(x()), Expr::constant(1)).to_string(),
            "*x := 1"
        );
        assert_eq!(Stmt::New(x()).to_string(), "x := new");
        assert_eq!(
            Stmt::Call {
                dst: x(),
                proc: ProcName::new("f"),
                arg: BaseExpr::Const(3)
            }
            .to_string(),
            "x := f(3)"
        );
        assert_eq!(
            Stmt::If {
                cond: BaseExpr::var("b"),
                then_target: 2,
                else_target: 5
            }
            .to_string(),
            "if b goto 2 else 5"
        );
        assert_eq!(Stmt::Return(x()).to_string(), "return x");
    }

    #[test]
    fn read_vars_of_pointer_store_includes_pointer() {
        let s = Stmt::Assign(Lhs::Deref(Var::new("p")), Expr::var("y"));
        let names: Vec<_> = s.read_vars().iter().map(|v| v.as_str()).collect();
        assert!(names.contains(&"p"));
        assert!(names.contains(&"y"));
    }

    #[test]
    fn addr_of_is_mentioned_but_not_read() {
        let e = Expr::AddrOf(x());
        assert!(e.read_vars().is_empty());
        assert_eq!(e.mentioned_vars(), vec![&x()]);
    }

    #[test]
    fn syntactic_def_cases() {
        assert_eq!(Stmt::Decl(x()).syntactic_def(), Some(&x()));
        assert_eq!(Stmt::New(x()).syntactic_def(), Some(&x()));
        assert_eq!(
            Stmt::assign_var("x", Expr::constant(1)).syntactic_def(),
            Some(&x())
        );
        assert_eq!(
            Stmt::Assign(Lhs::Deref(x()), Expr::constant(1)).syntactic_def(),
            None
        );
        assert_eq!(Stmt::Skip.syntactic_def(), None);
        assert_eq!(Stmt::Return(x()).syntactic_def(), None);
    }

    #[test]
    fn proc_variables_and_constants() {
        let p = Proc::new(
            "main",
            "a",
            vec![
                Stmt::Decl(Var::new("y")),
                Stmt::assign_var("y", Expr::constant(5)),
                Stmt::assign_var("z", Expr::binop(OpKind::Add, BaseExpr::var("y"), 7.into())),
                Stmt::Return(Var::new("z")),
            ],
        );
        let vars: Vec<_> = p.variables().iter().map(|v| v.to_string()).collect();
        assert_eq!(vars, ["a", "y", "z"]);
        assert_eq!(p.constants(), [5, 7]);
    }

    #[test]
    fn program_replace_proc() {
        let p1 = Proc::new("main", "a", vec![Stmt::Return(Var::new("a"))]);
        let p2 = Proc::new("main", "a", vec![Stmt::Skip, Stmt::Return(Var::new("a"))]);
        let prog = Program::new(vec![p1]);
        let prog2 = prog.with_proc_replaced(p2.clone());
        assert_eq!(prog2.main(), Some(&p2));
        assert_eq!(prog.main().map(|p| p.len()), Some(1));
    }
}
