//! Abstract syntax tree for the C subset.

/// A parsed translation unit.
#[derive(Clone, Debug, Default)]
pub struct Unit {
    /// Struct definitions, in order.
    pub structs: Vec<StructDef>,
    /// File-scope variable declarations.
    pub globals: Vec<Decl>,
    /// Function definitions (prototypes without bodies become externals).
    pub funcs: Vec<FuncDef>,
    /// Names declared by prototypes only (external procedures).
    pub protos: Vec<Proto>,
}

/// `struct name { fields };`
#[derive(Clone, Debug)]
pub struct StructDef {
    /// Struct tag.
    pub name: String,
    /// Field names with their types.
    pub fields: Vec<(String, Type)>,
    /// Source line.
    pub line: u32,
}

/// A function prototype (no body).
#[derive(Clone, Debug)]
pub struct Proto {
    /// Function name.
    pub name: String,
    /// Number of declared parameters.
    pub params: usize,
    /// Source line.
    pub line: u32,
}

/// Types (sizes are abstracted; `char`/`short`/`long` all behave as `int`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Type {
    /// Any integer type.
    Int,
    /// `void` (function returns only).
    Void,
    /// Pointer to `T`.
    Ptr(Box<Type>),
    /// Array of `T` with optional constant length.
    Array(Box<Type>, Option<i64>),
    /// A named struct.
    Struct(String),
    /// Pointer-to-function (arity only).
    FuncPtr(usize),
}

/// A variable declaration, possibly initialized.
#[derive(Clone, Debug)]
pub struct Decl {
    /// Declared name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Initializer expression, if any.
    pub init: Option<Expr>,
    /// Source line.
    pub line: u32,
}

/// A function definition.
#[derive(Clone, Debug)]
pub struct FuncDef {
    /// Function name.
    pub name: String,
    /// Parameters in order.
    pub params: Vec<(String, Type)>,
    /// Whether the return type is `void`.
    pub returns_void: bool,
    /// The body.
    pub body: Vec<Stmt>,
    /// Source line.
    pub line: u32,
}

/// Statements.
#[derive(Clone, Debug)]
pub enum Stmt {
    /// A nested block with its own scope.
    Block(Vec<Stmt>),
    /// Local declaration.
    Decl(Decl),
    /// Expression statement.
    Expr(Expr, u32),
    /// `if (c) t else e`.
    If(Expr, Box<Stmt>, Option<Box<Stmt>>, u32),
    /// `while (c) body`.
    While(Expr, Box<Stmt>, u32),
    /// `do body while (c);`
    DoWhile(Box<Stmt>, Expr, u32),
    /// `for (init; cond; step) body` — any clause may be absent.
    For(Option<Expr>, Option<Expr>, Option<Expr>, Box<Stmt>, u32),
    /// `switch (e) { case k: ... }` — lowered to an if-else cascade.
    Switch(Expr, Vec<SwitchArm>, u32),
    /// `break;`
    Break(u32),
    /// `continue;`
    Continue(u32),
    /// `return e?;`
    Return(Option<Expr>, u32),
    /// `goto label;`
    Goto(String, u32),
    /// `label: stmt`
    Label(String, Box<Stmt>),
    /// `;`
    Empty,
}

/// One arm of a `switch`.
#[derive(Clone, Debug)]
pub struct SwitchArm {
    /// Case values (`None` = `default`). Multiple labels share one body.
    pub values: Vec<Option<i64>>,
    /// Body statements (fall-through is not modeled; each arm is closed).
    pub body: Vec<Stmt>,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// String literal (used as an anonymous constant array).
    Str(String),
    /// Variable (or function) reference.
    Ident(String),
    /// `e1 op e2` (non-assignment binary operator).
    Binary(BinKind, Box<Expr>, Box<Expr>),
    /// `op e`.
    Unary(UnKind, Box<Expr>),
    /// `*e`.
    Deref(Box<Expr>),
    /// `&e`.
    AddrOf(Box<Expr>),
    /// `e1[e2]`.
    Index(Box<Expr>, Box<Expr>),
    /// `e.field`.
    Member(Box<Expr>, String),
    /// `e->field`.
    Arrow(Box<Expr>, String),
    /// `callee(args)`; callee may be any expression (function pointers).
    Call(Box<Expr>, Vec<Expr>),
    /// `lhs = rhs` or compound assignment.
    Assign(Option<BinKind>, Box<Expr>, Box<Expr>),
    /// Pre/post increment/decrement.
    IncDec {
        /// The operand l-value expression.
        target: Box<Expr>,
        /// +1 or -1.
        delta: i64,
        /// Whether the original value is the expression's result.
        post: bool,
    },
    /// `c ? t : e`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `sizeof(...)` — abstracted to an unknown positive constant.
    Sizeof,
    /// `NULL`.
    Null,
    /// Comma expression `a, b`.
    Comma(Box<Expr>, Box<Expr>),
}

/// Non-assignment binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinKind {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    LAnd,
    LOr,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
}

/// Unary operators (deref/addr-of have dedicated nodes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnKind {
    Neg,
    Not,
    BitNot,
}
