//! Recursive-descent parser for the C subset.

use crate::ast::*;
use crate::token::{Kw, Punct, Tok, Token};
use crate::FrontError;

/// Parses a token stream into a [`Unit`].
///
/// # Errors
///
/// Returns the first syntax error with its source line.
pub fn parse_unit(tokens: &[Token]) -> Result<Unit, FrontError> {
    Parser {
        tokens,
        pos: 0,
        depth: 0,
        typedefs: std::collections::HashMap::new(),
        enum_consts: std::collections::HashMap::new(),
    }
    .unit()
}

/// Maximum statement/expression nesting the parser accepts. Recursive
/// descent burns native stack per nesting level and a stack overflow is
/// *not* a catchable error — it aborts the whole process, defeating the
/// pipeline's panic isolation — so pathological inputs (`((((…))))`,
/// `{{{{…}}}}`) must be rejected with a structured error well before the
/// stack runs out. The parser may run on a worker or test thread with only
/// a 2 MiB stack, and a nested block costs three debug-build frames
/// (~16 KiB) per level, so the bound must stay well under ~128; 64 levels
/// is still far beyond anything a human (or our generator) writes.
const MAX_NESTING: u32 = 64;

struct Parser<'t> {
    tokens: &'t [Token],
    pos: usize,
    /// Current statement/expression nesting, bounded by [`MAX_NESTING`].
    depth: u32,
    /// `typedef` aliases in scope (file scope only).
    typedefs: std::collections::HashMap<String, Type>,
    /// `enum` constants in scope.
    enum_consts: std::collections::HashMap<String, i64>,
}

impl<'t> Parser<'t> {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, ahead: usize) -> &Tok {
        &self.tokens[(self.pos + ahead).min(self.tokens.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos.min(self.tokens.len() - 1)].line
    }

    /// Steps past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
    }

    /// The current token, stepping past it.
    fn take(&mut self) -> Tok {
        let t = self.peek().clone();
        self.bump();
        t
    }

    fn eat(&mut self, p: Punct) -> bool {
        if *self.peek() == Tok::Punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, p: Punct) -> Result<(), FrontError> {
        if self.eat(p) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{p:?}`, found {}",
                self.peek().describe()
            )))
        }
    }

    fn eat_kw(&mut self, k: Kw) -> bool {
        if *self.peek() == Tok::Kw(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn err(&self, message: impl Into<String>) -> FrontError {
        FrontError::new(self.line(), message)
    }

    /// Counts one level of recursion; errors out (instead of overflowing
    /// the native stack) past [`MAX_NESTING`]. Pair with [`Parser::leave`].
    fn enter(&mut self) -> Result<(), FrontError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            Err(self.err(format!("nesting deeper than {MAX_NESTING} levels")))
        } else {
            Ok(())
        }
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    fn ident(&mut self) -> Result<String, FrontError> {
        match self.take() {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {}", other.describe()))),
        }
    }

    // ---- types ---------------------------------------------------------

    fn at_type_start(&self) -> bool {
        match self.peek() {
            Tok::Kw(
                Kw::Int
                | Kw::Char
                | Kw::Long
                | Kw::Short
                | Kw::Unsigned
                | Kw::Signed
                | Kw::Void
                | Kw::Struct
                | Kw::Enum
                | Kw::Extern
                | Kw::Static
                | Kw::Const,
            ) => true,
            // A typedef name followed by something declarator-shaped.
            Tok::Ident(name) if self.typedefs.contains_key(name) => {
                matches!(self.peek_at(1), Tok::Ident(_) | Tok::Punct(Punct::Star))
            }
            _ => false,
        }
    }

    /// Parses a type specifier (without declarator stars/arrays).
    fn type_spec(&mut self) -> Result<Type, FrontError> {
        while matches!(self.peek(), Tok::Kw(Kw::Extern | Kw::Static | Kw::Const)) {
            self.bump();
        }
        let mut saw_int = false;
        loop {
            match self.peek() {
                Tok::Kw(Kw::Int | Kw::Char | Kw::Long | Kw::Short | Kw::Unsigned | Kw::Signed) => {
                    saw_int = true;
                    self.bump();
                }
                Tok::Kw(Kw::Const) => {
                    self.bump();
                }
                _ => break,
            }
        }
        if saw_int {
            return Ok(Type::Int);
        }
        if self.eat_kw(Kw::Void) {
            return Ok(Type::Void);
        }
        if self.eat_kw(Kw::Struct) {
            let name = self.ident()?;
            return Ok(Type::Struct(name));
        }
        if self.eat_kw(Kw::Enum) {
            // `enum tag` as a type is just an integer.
            if matches!(self.peek(), Tok::Ident(_)) {
                self.bump();
            }
            return Ok(Type::Int);
        }
        if let Tok::Ident(name) = self.peek() {
            if let Some(ty) = self.typedefs.get(name).cloned() {
                self.bump();
                return Ok(ty);
            }
        }
        Err(self.err(format!("expected type, found {}", self.peek().describe())))
    }

    /// Parses declarator stars and the name: `**name` or `(*name)(...)`.
    fn declarator(&mut self, base: Type) -> Result<(String, Type), FrontError> {
        let mut ty = base;
        while self.eat(Punct::Star) {
            ty = Type::Ptr(Box::new(ty));
        }
        // Function-pointer declarator: ( * name ) ( params )
        if *self.peek() == Tok::Punct(Punct::LParen) && *self.peek_at(1) == Tok::Punct(Punct::Star)
        {
            self.bump(); // (
            self.bump(); // *
            let name = self.ident()?;
            self.expect(Punct::RParen)?;
            self.expect(Punct::LParen)?;
            let mut arity = 0;
            if !self.eat(Punct::RParen) {
                loop {
                    let base = self.type_spec()?;
                    // Parameter declarators in a prototype: stars + optional name.
                    let mut pt = base;
                    while self.eat(Punct::Star) {
                        pt = Type::Ptr(Box::new(pt));
                    }
                    if matches!(self.peek(), Tok::Ident(_)) {
                        self.bump();
                    }
                    arity += 1;
                    if !self.eat(Punct::Comma) {
                        break;
                    }
                }
                self.expect(Punct::RParen)?;
            }
            return Ok((name, Type::FuncPtr(arity)));
        }
        let name = self.ident()?;
        // Array suffixes.
        while self.eat(Punct::LBracket) {
            let len = match self.peek() {
                Tok::Int(n) => {
                    let n = *n;
                    self.bump();
                    Some(n)
                }
                _ => None,
            };
            self.expect(Punct::RBracket)?;
            ty = Type::Array(Box::new(ty), len);
        }
        Ok((name, ty))
    }

    // ---- top level -----------------------------------------------------

    fn unit(&mut self) -> Result<Unit, FrontError> {
        let mut unit = Unit::default();
        while *self.peek() != Tok::Eof {
            self.top_item(&mut unit)?;
        }
        Ok(unit)
    }

    fn top_item(&mut self, unit: &mut Unit) -> Result<(), FrontError> {
        let line = self.line();
        // typedef <type> <name>;
        if self.eat_kw(Kw::Typedef) {
            let base = self.type_spec()?;
            let (name, ty) = self.declarator(base)?;
            self.expect(Punct::Semi)?;
            self.typedefs.insert(name, ty);
            return Ok(());
        }
        // enum [tag] { A, B = k, C };
        if *self.peek() == Tok::Kw(Kw::Enum)
            && (matches!(self.peek_at(1), Tok::Punct(Punct::LBrace))
                || (matches!(self.peek_at(1), Tok::Ident(_))
                    && matches!(self.peek_at(2), Tok::Punct(Punct::LBrace))))
        {
            self.bump();
            if matches!(self.peek(), Tok::Ident(_)) {
                self.bump();
            }
            self.expect(Punct::LBrace)?;
            let mut next = 0i64;
            while !self.eat(Punct::RBrace) {
                let name = self.ident()?;
                if self.eat(Punct::Assign) {
                    let neg = self.eat(Punct::Minus);
                    let Tok::Int(n) = self.take() else {
                        return Err(self.err("expected integer enum value"));
                    };
                    next = if neg { -n } else { n };
                }
                self.enum_consts.insert(name, next);
                next += 1;
                if !self.eat(Punct::Comma) {
                    self.expect(Punct::RBrace)?;
                    break;
                }
            }
            self.expect(Punct::Semi)?;
            return Ok(());
        }
        // struct definition?
        if *self.peek() == Tok::Kw(Kw::Struct)
            && matches!(self.peek_at(1), Tok::Ident(_))
            && *self.peek_at(2) == Tok::Punct(Punct::LBrace)
        {
            self.bump();
            let name = self.ident()?;
            self.expect(Punct::LBrace)?;
            let mut fields = Vec::new();
            while !self.eat(Punct::RBrace) {
                let base = self.type_spec()?;
                loop {
                    let (fname, fty) = self.declarator(base.clone())?;
                    fields.push((fname, fty));
                    if !self.eat(Punct::Comma) {
                        break;
                    }
                }
                self.expect(Punct::Semi)?;
            }
            self.expect(Punct::Semi)?;
            unit.structs.push(StructDef { name, fields, line });
            return Ok(());
        }

        let base = self.type_spec()?;
        // `type name (params) { body }` — function definition or prototype.
        let (name, ty) = self.declarator(base.clone())?;
        if !matches!(ty, Type::FuncPtr(_)) && *self.peek() == Tok::Punct(Punct::LParen) {
            return self.function(
                unit,
                name,
                matches!(base, Type::Void) && ty == Type::Void,
                line,
            );
        }
        // Global declaration(s): `type a = e, *b, c[4];`
        let mut pending = (name, ty);
        loop {
            let init = if self.eat(Punct::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            unit.globals.push(Decl {
                name: pending.0,
                ty: pending.1,
                init,
                line,
            });
            if !self.eat(Punct::Comma) {
                break;
            }
            pending = self.declarator(base.clone())?;
        }
        self.expect(Punct::Semi)?;
        Ok(())
    }

    /// Initializer: a plain expression or a braced list (abstracted to the
    /// first element joined with unknowns by the lowering pass).
    fn initializer(&mut self) -> Result<Expr, FrontError> {
        self.enter()?;
        let r = self.initializer_inner();
        self.leave();
        r
    }

    fn initializer_inner(&mut self) -> Result<Expr, FrontError> {
        if self.eat(Punct::LBrace) {
            // `{a, b, ...}` — keep the first element; array summarization
            // joins all elements into one abstract cell anyway.
            let first = if *self.peek() == Tok::Punct(Punct::RBrace) {
                Expr::Int(0)
            } else {
                let mut e = self.initializer()?;
                while self.eat(Punct::Comma) {
                    if *self.peek() == Tok::Punct(Punct::RBrace) {
                        break;
                    }
                    let next = self.initializer()?;
                    e = Expr::Comma(Box::new(e), Box::new(next));
                }
                e
            };
            self.expect(Punct::RBrace)?;
            Ok(first)
        } else {
            self.assignment_expr()
        }
    }

    fn function(
        &mut self,
        unit: &mut Unit,
        name: String,
        returns_void: bool,
        line: u32,
    ) -> Result<(), FrontError> {
        self.expect(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.eat(Punct::RParen) {
            if *self.peek() == Tok::Kw(Kw::Void) && *self.peek_at(1) == Tok::Punct(Punct::RParen) {
                self.bump();
                self.bump();
            } else {
                let mut anon = 0usize;
                loop {
                    let base = self.type_spec()?;
                    // Parameters may be anonymous in prototypes
                    // (`int f(int);`): fall back to a synthetic name.
                    let mut ty = base;
                    while self.eat(Punct::Star) {
                        ty = Type::Ptr(Box::new(ty));
                    }
                    let (pname, pty) = if matches!(self.peek(), Tok::Ident(_))
                        || *self.peek() == Tok::Punct(Punct::LParen)
                    {
                        self.declarator(ty)?
                    } else {
                        anon += 1;
                        (format!("__anon{anon}"), ty)
                    };
                    params.push((pname, pty));
                    if !self.eat(Punct::Comma) {
                        break;
                    }
                }
                self.expect(Punct::RParen)?;
            }
        }
        if self.eat(Punct::Semi) {
            unit.protos.push(Proto {
                name,
                params: params.len(),
                line,
            });
            return Ok(());
        }
        self.expect(Punct::LBrace)?;
        let body = self.block_body()?;
        unit.funcs.push(FuncDef {
            name,
            params,
            returns_void,
            body,
            line,
        });
        Ok(())
    }

    // ---- statements ----------------------------------------------------

    fn block_body(&mut self) -> Result<Vec<Stmt>, FrontError> {
        let mut stmts = Vec::new();
        while !self.eat(Punct::RBrace) {
            if *self.peek() == Tok::Eof {
                return Err(self.err("unexpected end of input inside block"));
            }
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, FrontError> {
        self.enter()?;
        let r = self.stmt_inner();
        self.leave();
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, FrontError> {
        let line = self.line();
        match self.peek().clone() {
            Tok::Punct(Punct::LBrace) => {
                self.bump();
                Ok(Stmt::Block(self.block_body()?))
            }
            Tok::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Empty)
            }
            Tok::Kw(Kw::If) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect(Punct::RParen)?;
                let then = Box::new(self.stmt()?);
                let els = if self.eat_kw(Kw::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If(cond, then, els, line))
            }
            Tok::Kw(Kw::While) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect(Punct::RParen)?;
                Ok(Stmt::While(cond, Box::new(self.stmt()?), line))
            }
            Tok::Kw(Kw::Do) => {
                self.bump();
                let body = Box::new(self.stmt()?);
                if !self.eat_kw(Kw::While) {
                    return Err(self.err("expected `while` after do-body"));
                }
                self.expect(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect(Punct::RParen)?;
                self.expect(Punct::Semi)?;
                Ok(Stmt::DoWhile(body, cond, line))
            }
            Tok::Kw(Kw::For) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let init = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else if self.at_type_start() {
                    // C99 `for (int i = 0; ...)` — hoist as a block.
                    let decl = self.local_decl()?;
                    self.expect(Punct::Semi)?;
                    let cond = if *self.peek() == Tok::Punct(Punct::Semi) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(Punct::Semi)?;
                    let step = if *self.peek() == Tok::Punct(Punct::RParen) {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(Punct::RParen)?;
                    let body = Box::new(self.stmt()?);
                    let mut block: Vec<Stmt> = decl.into_iter().map(Stmt::Decl).collect();
                    block.push(Stmt::For(None, cond, step, body, line));
                    return Ok(Stmt::Block(block));
                } else {
                    Some(self.expr()?)
                };
                self.expect(Punct::Semi)?;
                let cond = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Punct::Semi)?;
                let step = if *self.peek() == Tok::Punct(Punct::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Punct::RParen)?;
                Ok(Stmt::For(init, cond, step, Box::new(self.stmt()?), line))
            }
            Tok::Kw(Kw::Switch) => {
                self.bump();
                self.expect(Punct::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(Punct::RParen)?;
                self.expect(Punct::LBrace)?;
                let mut arms: Vec<SwitchArm> = Vec::new();
                while !self.eat(Punct::RBrace) {
                    let mut values = Vec::new();
                    loop {
                        if self.eat_kw(Kw::Case) {
                            let neg = self.eat(Punct::Minus);
                            let Tok::Int(n) = self.take() else {
                                return Err(self.err("expected integer after `case`"));
                            };
                            self.expect(Punct::Colon)?;
                            values.push(Some(if neg { -n } else { n }));
                        } else if self.eat_kw(Kw::Default) {
                            self.expect(Punct::Colon)?;
                            values.push(None);
                        } else {
                            break;
                        }
                    }
                    if values.is_empty() {
                        return Err(self.err("expected `case`/`default` in switch body"));
                    }
                    let mut body = Vec::new();
                    while !matches!(
                        self.peek(),
                        Tok::Kw(Kw::Case | Kw::Default) | Tok::Punct(Punct::RBrace)
                    ) {
                        // `break` terminates the arm; we don't model fallthrough.
                        if *self.peek() == Tok::Kw(Kw::Break) {
                            self.bump();
                            self.expect(Punct::Semi)?;
                            break;
                        }
                        body.push(self.stmt()?);
                    }
                    arms.push(SwitchArm { values, body });
                }
                Ok(Stmt::Switch(scrutinee, arms, line))
            }
            Tok::Kw(Kw::Break) => {
                self.bump();
                self.expect(Punct::Semi)?;
                Ok(Stmt::Break(line))
            }
            Tok::Kw(Kw::Continue) => {
                self.bump();
                self.expect(Punct::Semi)?;
                Ok(Stmt::Continue(line))
            }
            Tok::Kw(Kw::Return) => {
                self.bump();
                let value = if *self.peek() == Tok::Punct(Punct::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(Punct::Semi)?;
                Ok(Stmt::Return(value, line))
            }
            Tok::Kw(Kw::Goto) => {
                self.bump();
                let label = self.ident()?;
                self.expect(Punct::Semi)?;
                Ok(Stmt::Goto(label, line))
            }
            Tok::Ident(name) if *self.peek_at(1) == Tok::Punct(Punct::Colon) => {
                self.bump();
                self.bump();
                Ok(Stmt::Label(name, Box::new(self.stmt()?)))
            }
            _ if self.at_type_start() => {
                let decls = self.local_decl()?;
                self.expect(Punct::Semi)?;
                if decls.len() == 1 {
                    Ok(Stmt::Decl(decls.into_iter().next().expect("len checked")))
                } else {
                    Ok(Stmt::Block(decls.into_iter().map(Stmt::Decl).collect()))
                }
            }
            _ => {
                let e = self.expr()?;
                self.expect(Punct::Semi)?;
                Ok(Stmt::Expr(e, line))
            }
        }
    }

    fn local_decl(&mut self) -> Result<Vec<Decl>, FrontError> {
        let line = self.line();
        let base = self.type_spec()?;
        let mut out = Vec::new();
        loop {
            let (name, ty) = self.declarator(base.clone())?;
            let init = if self.eat(Punct::Assign) {
                Some(self.initializer()?)
            } else {
                None
            };
            out.push(Decl {
                name,
                ty,
                init,
                line,
            });
            if !self.eat(Punct::Comma) {
                break;
            }
        }
        Ok(out)
    }

    // ---- expressions ---------------------------------------------------

    fn expr(&mut self) -> Result<Expr, FrontError> {
        let mut e = self.assignment_expr()?;
        while self.eat(Punct::Comma) {
            let rhs = self.assignment_expr()?;
            e = Expr::Comma(Box::new(e), Box::new(rhs));
        }
        Ok(e)
    }

    fn assignment_expr(&mut self) -> Result<Expr, FrontError> {
        self.enter()?;
        let r = self.assignment_expr_inner();
        self.leave();
        r
    }

    fn assignment_expr_inner(&mut self) -> Result<Expr, FrontError> {
        let lhs = self.conditional_expr()?;
        let op = match self.peek() {
            Tok::Punct(Punct::Assign) => Some(None),
            Tok::Punct(Punct::PlusAssign) => Some(Some(BinKind::Add)),
            Tok::Punct(Punct::MinusAssign) => Some(Some(BinKind::Sub)),
            Tok::Punct(Punct::StarAssign) => Some(Some(BinKind::Mul)),
            Tok::Punct(Punct::SlashAssign) => Some(Some(BinKind::Div)),
            Tok::Punct(Punct::PercentAssign) => Some(Some(BinKind::Mod)),
            Tok::Punct(Punct::AmpAssign) => Some(Some(BinKind::BitAnd)),
            Tok::Punct(Punct::PipeAssign) => Some(Some(BinKind::BitOr)),
            Tok::Punct(Punct::CaretAssign) => Some(Some(BinKind::BitXor)),
            Tok::Punct(Punct::ShlAssign) => Some(Some(BinKind::Shl)),
            Tok::Punct(Punct::ShrAssign) => Some(Some(BinKind::Shr)),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.assignment_expr()?;
            return Ok(Expr::Assign(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn conditional_expr(&mut self) -> Result<Expr, FrontError> {
        let cond = self.binary_expr(0)?;
        if self.eat(Punct::Question) {
            let t = self.expr()?;
            self.expect(Punct::Colon)?;
            let e = self.conditional_expr()?;
            return Ok(Expr::Cond(Box::new(cond), Box::new(t), Box::new(e)));
        }
        Ok(cond)
    }

    fn binary_expr(&mut self, min_prec: u8) -> Result<Expr, FrontError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = self.peek_binop() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn peek_binop(&self) -> Option<(BinKind, u8)> {
        let p = match self.peek() {
            Tok::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::PipePipe => (BinKind::LOr, 1),
            Punct::AmpAmp => (BinKind::LAnd, 2),
            Punct::Pipe => (BinKind::BitOr, 3),
            Punct::Caret => (BinKind::BitXor, 4),
            Punct::Amp => (BinKind::BitAnd, 5),
            Punct::EqEq => (BinKind::Eq, 6),
            Punct::Ne => (BinKind::Ne, 6),
            Punct::Lt => (BinKind::Lt, 7),
            Punct::Le => (BinKind::Le, 7),
            Punct::Gt => (BinKind::Gt, 7),
            Punct::Ge => (BinKind::Ge, 7),
            Punct::Shl => (BinKind::Shl, 8),
            Punct::Shr => (BinKind::Shr, 8),
            Punct::Plus => (BinKind::Add, 9),
            Punct::Minus => (BinKind::Sub, 9),
            Punct::Star => (BinKind::Mul, 10),
            Punct::Slash => (BinKind::Div, 10),
            Punct::Percent => (BinKind::Mod, 10),
            _ => return None,
        })
    }

    fn unary_expr(&mut self) -> Result<Expr, FrontError> {
        self.enter()?;
        let r = self.unary_expr_inner();
        self.leave();
        r
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, FrontError> {
        match self.peek().clone() {
            Tok::Punct(Punct::Star) => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.unary_expr()?)))
            }
            Tok::Punct(Punct::Amp) => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary_expr()?)))
            }
            Tok::Punct(Punct::Minus) => {
                self.bump();
                Ok(Expr::Unary(UnKind::Neg, Box::new(self.unary_expr()?)))
            }
            Tok::Punct(Punct::Bang) => {
                self.bump();
                Ok(Expr::Unary(UnKind::Not, Box::new(self.unary_expr()?)))
            }
            Tok::Punct(Punct::Tilde) => {
                self.bump();
                Ok(Expr::Unary(UnKind::BitNot, Box::new(self.unary_expr()?)))
            }
            Tok::Punct(Punct::Plus) => {
                self.bump();
                self.unary_expr()
            }
            Tok::Punct(Punct::PlusPlus) => {
                self.bump();
                let t = self.unary_expr()?;
                Ok(Expr::IncDec {
                    target: Box::new(t),
                    delta: 1,
                    post: false,
                })
            }
            Tok::Punct(Punct::MinusMinus) => {
                self.bump();
                let t = self.unary_expr()?;
                Ok(Expr::IncDec {
                    target: Box::new(t),
                    delta: -1,
                    post: false,
                })
            }
            Tok::Kw(Kw::Sizeof) => {
                self.bump();
                if self.eat(Punct::LParen) {
                    // Either a type or an expression; skip to matching paren.
                    let mut depth = 1;
                    while depth > 0 {
                        match self.take() {
                            Tok::Punct(Punct::LParen) => depth += 1,
                            Tok::Punct(Punct::RParen) => depth -= 1,
                            Tok::Eof => return Err(self.err("unterminated sizeof")),
                            _ => {}
                        }
                    }
                } else {
                    self.unary_expr()?;
                }
                Ok(Expr::Sizeof)
            }
            // Cast: `(type) expr` — types are abstracted, the cast is a no-op.
            Tok::Punct(Punct::LParen) if self.type_cast_lookahead() => {
                self.bump();
                let _ = self.type_spec()?;
                while self.eat(Punct::Star) {}
                self.expect(Punct::RParen)?;
                self.unary_expr()
            }
            _ => self.postfix_expr(),
        }
    }

    /// Whether `( type-ish` follows — a cast rather than a parenthesized
    /// expression.
    fn type_cast_lookahead(&self) -> bool {
        match self.peek_at(1) {
            Tok::Kw(
                Kw::Int
                | Kw::Char
                | Kw::Long
                | Kw::Short
                | Kw::Unsigned
                | Kw::Signed
                | Kw::Void
                | Kw::Struct
                | Kw::Enum
                | Kw::Const,
            ) => true,
            // `(tydef_name)` or `(tydef_name *…)` followed by `)`/`*`.
            Tok::Ident(name) if self.typedefs.contains_key(name) => matches!(
                self.peek_at(2),
                Tok::Punct(Punct::RParen) | Tok::Punct(Punct::Star)
            ),
            _ => false,
        }
    }

    fn postfix_expr(&mut self) -> Result<Expr, FrontError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::Punct(Punct::LParen) => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(Punct::RParen) {
                        loop {
                            args.push(self.assignment_expr()?);
                            if !self.eat(Punct::Comma) {
                                break;
                            }
                        }
                        self.expect(Punct::RParen)?;
                    }
                    e = Expr::Call(Box::new(e), args);
                }
                Tok::Punct(Punct::LBracket) => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Punct::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(idx));
                }
                Tok::Punct(Punct::Dot) => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Member(Box::new(e), f);
                }
                Tok::Punct(Punct::Arrow) => {
                    self.bump();
                    let f = self.ident()?;
                    e = Expr::Arrow(Box::new(e), f);
                }
                Tok::Punct(Punct::PlusPlus) => {
                    self.bump();
                    e = Expr::IncDec {
                        target: Box::new(e),
                        delta: 1,
                        post: true,
                    };
                }
                Tok::Punct(Punct::MinusMinus) => {
                    self.bump();
                    e = Expr::IncDec {
                        target: Box::new(e),
                        delta: -1,
                        post: true,
                    };
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary_expr(&mut self) -> Result<Expr, FrontError> {
        let line = self.line();
        match self.take() {
            Tok::Int(n) => Ok(Expr::Int(n)),
            Tok::Str(s) => Ok(Expr::Str(s)),
            Tok::Kw(Kw::Null) => Ok(Expr::Null),
            Tok::Ident(name) => match self.enum_consts.get(&name) {
                Some(&v) => Ok(Expr::Int(v)),
                None => Ok(Expr::Ident(name)),
            },
            Tok::Punct(Punct::LParen) => {
                let e = self.expr()?;
                self.expect(Punct::RParen)?;
                Ok(e)
            }
            other => Err(FrontError::new(
                line,
                format!("expected expression, found {}", other.describe()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Unit {
        parse_unit(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse failed: {e}\nin: {src}"))
    }

    #[test]
    fn parses_function_with_locals() {
        let u = parse("int main() { int x = 1; x = x + 2; return x; }");
        assert_eq!(u.funcs.len(), 1);
        assert_eq!(u.funcs[0].name, "main");
        assert_eq!(u.funcs[0].body.len(), 3);
    }

    #[test]
    fn parses_struct_def() {
        let u = parse("struct node { int data; struct node *next; }; int main() { return 0; }");
        assert_eq!(u.structs.len(), 1);
        assert_eq!(u.structs[0].fields.len(), 2);
        assert_eq!(
            u.structs[0].fields[1].1,
            Type::Ptr(Box::new(Type::Struct("node".into())))
        );
    }

    #[test]
    fn parses_globals_and_protos() {
        let u = parse("int g = 3; char *s; int helper(int a); int main() { return g; }");
        assert_eq!(u.globals.len(), 2);
        assert_eq!(u.protos.len(), 1);
        assert_eq!(u.protos[0].params, 1);
    }

    #[test]
    fn parses_control_flow() {
        let u = parse(
            "int main() {
                int i;
                for (i = 0; i < 10; i++) { if (i == 5) break; else continue; }
                while (i > 0) i--;
                do { i += 2; } while (i < 4);
                goto done;
                done: return i;
            }",
        );
        assert_eq!(u.funcs.len(), 1);
    }

    #[test]
    fn parses_switch_as_arms() {
        let u = parse(
            "int main(int argc) {
                switch (argc) {
                    case 1: return 1;
                    case 2: case 3: argc = 0; break;
                    default: argc = 9; break;
                }
                return argc;
            }",
        );
        let Stmt::Switch(_, arms, _) = &u.funcs[0].body[0] else {
            panic!("expected switch")
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[1].values, vec![Some(2), Some(3)]);
        assert_eq!(arms[2].values, vec![None]);
    }

    #[test]
    fn parses_pointer_expressions() {
        let u = parse("int main(int *p) { *p = 3; int **q = &p; **q = *p + 1; return p[0]; }");
        assert_eq!(u.funcs[0].params.len(), 1);
    }

    #[test]
    fn parses_function_pointers() {
        let u = parse(
            "int f(int x) { return x; } int main() { int (*fp)(int); fp = f; return fp(3); }",
        );
        assert_eq!(u.funcs.len(), 2);
    }

    #[test]
    fn parses_casts_and_sizeof() {
        parse("int main() { int x = (int)3; char *p = (char *)0; x = sizeof(int); x = sizeof x; return x; }");
    }

    #[test]
    fn parses_ternary_and_comma() {
        let u = parse("int main(int a) { int b = a ? 1 : 2; b = (a, b); return b; }");
        assert_eq!(u.funcs.len(), 1);
    }

    #[test]
    fn c99_for_decl() {
        parse("int main() { int s = 0; for (int i = 0; i < 4; i++) s += i; return s; }");
    }

    #[test]
    fn error_has_line() {
        let toks = lex("int main() {\n  return +;\n}").unwrap();
        let err = parse_unit(&toks).unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn array_declarations() {
        let u = parse("int buf[10]; int main() { int local[5]; local[0] = buf[9]; return 0; }");
        assert_eq!(u.globals[0].ty, Type::Array(Box::new(Type::Int), Some(10)));
    }
}

#[cfg(test)]
mod typedef_enum_tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Unit {
        parse_unit(&lex(src).unwrap()).unwrap_or_else(|e| panic!("parse failed: {e}\nin: {src}"))
    }

    #[test]
    fn typedef_of_scalar_and_pointer() {
        let u = parse(
            "typedef int size;
             typedef int *intp;
             size g = 4;
             int main() { size n = g; intp p = &g; *p = n; return n; }",
        );
        assert_eq!(u.globals.len(), 1);
        assert_eq!(u.globals[0].ty, Type::Int);
    }

    #[test]
    fn typedef_of_struct() {
        parse(
            "struct pair { int a; int b; };
             typedef struct pair pair_t;
             int main() { pair_t p; p.a = 1; return p.a; }",
        );
    }

    #[test]
    fn enum_constants_fold_to_ints() {
        let u = parse(
            "enum color { RED, GREEN = 5, BLUE };
             int main() { int x = BLUE; enum color c = RED; return x + c; }",
        );
        // BLUE folds to 6 in the initializer.
        let f = &u.funcs[0];
        let Stmt::Decl(d) = &f.body[0] else { panic!() };
        assert_eq!(d.init, Some(Expr::Int(6)));
    }

    #[test]
    fn typedef_cast() {
        parse(
            "typedef int myint;
             int main() { int x = (myint)3; myint *p = (myint *)0; return x; }",
        );
    }

    #[test]
    fn typedef_name_usable_as_variable_elsewhere() {
        // A name that is NOT typedef'd stays an ordinary identifier.
        parse("int size; int main() { size = 3; return size; }");
    }
}
