//! Declaration parsing: type specifiers, declarators, struct/enum
//! definitions, globals, prototypes, and function definitions.

use super::Parser;
use crate::ast::{Expr, ExprKind, Function, Global, Init, Param, UnaryOp};
use crate::error::{parse_err, Result};
use crate::span::Span;
use crate::token::{Keyword, Punct, TokenKind};
use crate::types::{Field, FuncSig, Type};

/// A parsed declarator: the shape of the declaration around the name.
#[derive(Debug, Clone)]
pub(crate) enum Declarator {
    /// The declared name (or `None` for an abstract declarator).
    Name(Option<String>, Span),
    /// `* D`
    Ptr(Box<Declarator>),
    /// `D [n]`
    Array(Box<Declarator>, Option<u64>),
    /// `D (params)`
    Func(Box<Declarator>, Vec<Param>, bool),
}

impl Declarator {
    /// Applies the declarator to a base type, producing the declared
    /// name and its full type.
    pub(crate) fn apply(self, base: Type) -> (Option<String>, Span, Type) {
        match self {
            Declarator::Name(n, sp) => (n, sp, base),
            Declarator::Ptr(inner) => inner.apply(base.ptr_to()),
            Declarator::Array(inner, n) => inner.apply(Type::Array(Box::new(base), n)),
            Declarator::Func(inner, params, variadic) => {
                let sig = FuncSig {
                    ret: base,
                    params: params.iter().map(|p| p.ty.clone()).collect(),
                    variadic,
                };
                inner.apply(Type::Func(Box::new(sig)))
            }
        }
    }

    /// Recognizes a declarator that *declares a function*: the
    /// derivation closest to the name is `Func`. Handles pointer
    /// returns (`int *f(void)`) and function-pointer returns
    /// (`void (*pick(void))(void)`). Returns the name, its span, and
    /// the named parameters of the innermost function derivation.
    fn as_function_decl(&self) -> Option<(&str, Span, &[Param])> {
        match self {
            Declarator::Name(..) => None,
            Declarator::Func(inner, params, _) => {
                if let Declarator::Name(Some(name), sp) = inner.as_ref() {
                    Some((name, *sp, params))
                } else {
                    inner.as_function_decl()
                }
            }
            Declarator::Ptr(inner) | Declarator::Array(inner, _) => inner.as_function_decl(),
        }
    }
}

impl Parser {
    /// True if the current token can begin a type specifier.
    pub(crate) fn at_type_start(&self) -> bool {
        matches!(
            self.peek().kind,
            TokenKind::Keyword(
                Keyword::Int
                    | Keyword::Char
                    | Keyword::Double
                    | Keyword::Float
                    | Keyword::Long
                    | Keyword::Short
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Void
                    | Keyword::Struct
                    | Keyword::Union
                    | Keyword::Enum
                    | Keyword::Const
                    | Keyword::Volatile
            )
        )
    }

    fn skip_qualifiers(&mut self) {
        while self.eat_keyword(Keyword::Const)
            || self.eat_keyword(Keyword::Volatile)
            || self.eat_keyword(Keyword::Register)
        {}
    }

    fn skip_storage_class(&mut self) {
        while self.eat_keyword(Keyword::Static) || self.eat_keyword(Keyword::Extern) {}
    }

    /// Parses a type specifier (`int`, `unsigned long`, `struct s`,
    /// `enum e { … }`, …).
    pub(crate) fn type_specifier(&mut self) -> Result<Type> {
        self.skip_qualifiers();
        if self.peek().is_keyword(Keyword::Struct) || self.peek().is_keyword(Keyword::Union) {
            return self.struct_specifier();
        }
        if self.peek().is_keyword(Keyword::Enum) {
            return self.enum_specifier();
        }
        // Collect a run of arithmetic type keywords and normalize.
        let mut saw_void = false;
        let mut saw_char = false;
        let mut saw_float = false;
        let mut saw_int_like = false;
        let mut any = false;
        while let TokenKind::Keyword(kw) = self.peek().kind {
            match kw {
                Keyword::Void => saw_void = true,
                Keyword::Char => saw_char = true,
                Keyword::Double | Keyword::Float => saw_float = true,
                Keyword::Int
                | Keyword::Long
                | Keyword::Short
                | Keyword::Unsigned
                | Keyword::Signed => saw_int_like = true,
                Keyword::Const | Keyword::Volatile | Keyword::Register => {}
                _ => break,
            }
            any = true;
            self.bump();
        }
        if !any {
            return Err(self.unexpected("a type specifier"));
        }
        self.skip_qualifiers();
        Ok(if saw_void {
            Type::Void
        } else if saw_float {
            Type::Double
        } else if saw_char && !saw_int_like {
            Type::Char
        } else {
            Type::Int
        })
    }

    fn struct_specifier(&mut self) -> Result<Type> {
        let is_union = self.peek().is_keyword(Keyword::Union);
        self.bump(); // struct / union
        let tag = match &self.peek().kind {
            TokenKind::Ident(_) => Some(self.expect_ident()?),
            _ => None,
        };
        if self.eat_punct(Punct::LBrace) {
            let fields = self.struct_fields()?;
            match tag {
                Some((name, sp)) => {
                    let id = self.program.structs.declare(&name, is_union);
                    if !self.program.structs.complete(id, fields) {
                        return Err(parse_err(sp, format!("redefinition of struct `{name}`")));
                    }
                    Ok(Type::Struct(id))
                }
                None => Ok(Type::Struct(
                    self.program.structs.add_anon(is_union, fields),
                )),
            }
        } else {
            match tag {
                Some((name, _)) => Ok(Type::Struct(self.program.structs.declare(&name, is_union))),
                None => Err(self.unexpected("a struct tag or `{`")),
            }
        }
    }

    fn struct_fields(&mut self) -> Result<Vec<Field>> {
        let mut fields = Vec::new();
        while !self.eat_punct(Punct::RBrace) {
            let base = self.type_specifier()?;
            loop {
                let d = self.declarator()?;
                let (name, sp, ty) = d.apply(base.clone());
                let Some(name) = name else {
                    return Err(parse_err(sp, "struct field must be named"));
                };
                if fields.iter().any(|f: &Field| f.name == name) {
                    return Err(parse_err(sp, format!("duplicate field `{name}`")));
                }
                fields.push(Field { name, ty });
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::Semi)?;
        }
        Ok(fields)
    }

    fn enum_specifier(&mut self) -> Result<Type> {
        self.bump(); // enum
        if matches!(self.peek().kind, TokenKind::Ident(_)) {
            self.expect_ident()?; // tag, unused — enums are just ints
        }
        if self.eat_punct(Punct::LBrace) {
            let mut next = 0i64;
            loop {
                if self.eat_punct(Punct::RBrace) {
                    break;
                }
                let (name, _) = self.expect_ident()?;
                if self.eat_punct(Punct::Assign) {
                    next = self.const_expr()?;
                }
                self.enum_consts.insert(name, next);
                next += 1;
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
        }
        Ok(Type::Int)
    }

    /// Parses a (possibly abstract) declarator.
    pub(crate) fn declarator(&mut self) -> Result<Declarator> {
        if self.eat_punct(Punct::Star) {
            self.skip_qualifiers();
            return Ok(Declarator::Ptr(Box::new(self.declarator()?)));
        }
        self.direct_declarator()
    }

    fn direct_declarator(&mut self) -> Result<Declarator> {
        let mut d = if self.peek().is_punct(Punct::LParen) && self.paren_is_declarator() {
            self.bump(); // (
            let inner = self.declarator()?;
            self.expect_punct(Punct::RParen)?;
            inner
        } else if matches!(self.peek().kind, TokenKind::Ident(_)) {
            let (name, sp) = self.expect_ident()?;
            Declarator::Name(Some(name), sp)
        } else {
            Declarator::Name(None, self.span())
        };
        loop {
            if self.eat_punct(Punct::LBracket) {
                let size = if self.peek().is_punct(Punct::RBracket) {
                    None
                } else {
                    let v = self.const_expr()?;
                    if v < 0 {
                        return Err(parse_err(self.span(), "array size must be non-negative"));
                    }
                    Some(v as u64)
                };
                self.expect_punct(Punct::RBracket)?;
                d = Declarator::Array(Box::new(d), size);
            } else if self.peek().is_punct(Punct::LParen) {
                self.bump();
                let (params, variadic) = self.param_list()?;
                d = Declarator::Func(Box::new(d), params, variadic);
            } else {
                break;
            }
        }
        Ok(d)
    }

    /// Disambiguates `(` in a direct declarator: inner declarator vs a
    /// parameter list of an abstract function declarator. Without
    /// typedefs an identifier or `*` or a nested `(` means declarator.
    fn paren_is_declarator(&self) -> bool {
        matches!(
            self.peek_at(1).kind,
            TokenKind::Punct(Punct::Star) | TokenKind::Ident(_) | TokenKind::Punct(Punct::LParen)
        )
    }

    fn param_list(&mut self) -> Result<(Vec<Param>, bool)> {
        if self.eat_punct(Punct::RParen) {
            // `()` — unspecified parameters; treat as variadic.
            return Ok((Vec::new(), true));
        }
        // `(void)`
        if self.peek().is_keyword(Keyword::Void) && self.peek_at(1).is_punct(Punct::RParen) {
            self.bump();
            self.bump();
            return Ok((Vec::new(), false));
        }
        let mut params = Vec::new();
        let mut variadic = false;
        loop {
            if self.eat_punct(Punct::Dot) {
                self.expect_punct(Punct::Dot)?;
                self.expect_punct(Punct::Dot)?;
                variadic = true;
                break;
            }
            let base = self.type_specifier()?;
            let d = self.declarator()?;
            let (name, sp, ty) = d.apply(base);
            // Parameters of array/function type decay.
            let ty = ty.decay();
            params.push(Param {
                name: name.unwrap_or_default(),
                ty,
                span: sp,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        Ok((params, variadic))
    }

    /// Parses one external declaration: a struct/enum declaration, a
    /// global variable line, a prototype, or a function definition.
    pub(crate) fn external_declaration(&mut self) -> Result<()> {
        self.skip_storage_class();
        let base = self.type_specifier()?;
        self.skip_storage_class();
        if self.eat_punct(Punct::Semi) {
            return Ok(()); // bare `struct s {...};` or `enum {...};`
        }
        let first = self.declarator()?;
        // Function definition?
        if first.as_function_decl().is_some() && self.peek().is_punct(Punct::LBrace) {
            return self.function_definition(base, first);
        }
        // Otherwise: prototypes or globals, comma-separated.
        self.finish_declaration_line(base, first)
    }

    fn function_definition(&mut self, base: Type, d: Declarator) -> Result<()> {
        let (name, sp, params) = d
            .as_function_decl()
            .expect("caller checked function declarator");
        let params = params.to_vec();
        let (name, sp) = (name.to_owned(), sp);
        // The full declarator applied to the base yields the function's
        // type (including pointer / function-pointer returns).
        let (_, _, full_ty) = d.apply(base);
        let Type::Func(sig) = full_ty else {
            return Err(parse_err(
                sp,
                format!("`{name}` does not declare a function"),
            ));
        };
        for p in &params {
            if p.name.is_empty() {
                return Err(parse_err(
                    sp,
                    format!("unnamed parameter in definition of `{name}`"),
                ));
            }
        }
        self.expect_punct(Punct::LBrace)?;
        let body = self.block_stmts()?;
        let func = Function {
            name: name.clone(),
            ret: sig.ret,
            params,
            variadic: sig.variadic,
            body: Some(body),
            locals: Vec::new(),
            span: sp,
        };
        self.add_function(func, sp)
    }

    fn finish_declaration_line(&mut self, base: Type, first: Declarator) -> Result<()> {
        let mut d = first;
        loop {
            let (name, sp, ty) = d.apply(base.clone());
            let Some(name) = name else {
                return Err(parse_err(sp, "declaration must declare a name"));
            };
            if let Type::Func(sig) = &ty {
                // Prototype.
                let func = Function {
                    name: name.clone(),
                    ret: sig.ret.clone(),
                    params: sig
                        .params
                        .iter()
                        .map(|t| Param {
                            name: String::new(),
                            ty: t.clone(),
                            span: sp,
                        })
                        .collect(),
                    variadic: sig.variadic,
                    body: None,
                    locals: Vec::new(),
                    span: sp,
                };
                self.add_function(func, sp)?;
            } else {
                let init = if self.eat_punct(Punct::Assign) {
                    Some(self.initializer()?)
                } else {
                    None
                };
                self.add_global(
                    Global {
                        name,
                        ty,
                        init,
                        span: sp,
                    },
                    sp,
                )?;
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
            d = self.declarator()?;
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn add_function(&mut self, func: Function, sp: Span) -> Result<()> {
        if let Some(pos) = self
            .function_index
            .get(&self.program.functions, &func.name, |f| &f.name)
        {
            let existing = &self.program.functions[pos];
            if existing.is_definition() && func.is_definition() {
                return Err(parse_err(
                    sp,
                    format!("redefinition of function `{}`", func.name),
                ));
            }
            if func.is_definition() {
                self.program.functions[pos] = func;
            }
            return Ok(());
        }
        self.function_index
            .insert(&func.name, self.program.functions.len());
        self.program.functions.push(func);
        Ok(())
    }

    fn add_global(&mut self, g: Global, sp: Span) -> Result<()> {
        if let Some(pos) = self
            .global_index
            .get(&self.program.globals, &g.name, |x| &x.name)
        {
            let existing = &mut self.program.globals[pos];
            if existing.init.is_some() && g.init.is_some() {
                return Err(parse_err(
                    sp,
                    format!("redefinition of global `{}`", g.name),
                ));
            }
            if g.init.is_some() {
                existing.init = g.init;
            }
            return Ok(());
        }
        if self
            .function_index
            .get(&self.program.functions, &g.name, |f| &f.name)
            .is_some()
        {
            return Err(parse_err(
                sp,
                format!("`{}` redeclared as a variable", g.name),
            ));
        }
        self.global_index
            .insert(&g.name, self.program.globals.len());
        self.program.globals.push(g);
        Ok(())
    }

    /// Parses an initializer (scalar expression or brace list).
    pub(crate) fn initializer(&mut self) -> Result<Init> {
        if self.eat_punct(Punct::LBrace) {
            let mut items = Vec::new();
            loop {
                if self.eat_punct(Punct::RBrace) {
                    break;
                }
                items.push(self.initializer()?);
                if !self.eat_punct(Punct::Comma) {
                    self.expect_punct(Punct::RBrace)?;
                    break;
                }
            }
            Ok(Init::List(items))
        } else {
            Ok(Init::Expr(self.assign_expr()?))
        }
    }

    // ----- constant expressions -------------------------------------------

    /// Parses and folds an integer constant expression (used for array
    /// sizes, enum values, and case labels).
    pub(crate) fn const_expr(&mut self) -> Result<i64> {
        let e = self.conditional_expr()?;
        self.fold_const(&e)
    }

    pub(crate) fn fold_const(&self, e: &Expr) -> Result<i64> {
        use crate::ast::BinaryOp::*;
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Ok(*v),
            ExprKind::Ident(name, _) => self
                .enum_consts
                .get(name)
                .copied()
                .ok_or_else(|| parse_err(e.span, format!("`{name}` is not a constant"))),
            ExprKind::Unary(UnaryOp::Neg, x) => Ok(-self.fold_const(x)?),
            ExprKind::Unary(UnaryOp::Not, x) => Ok((self.fold_const(x)? == 0) as i64),
            ExprKind::Unary(UnaryOp::BitNot, x) => Ok(!self.fold_const(x)?),
            ExprKind::Binary(op, a, b) => {
                let (a, b) = (self.fold_const(a)?, self.fold_const(b)?);
                Ok(match op {
                    Add => a.wrapping_add(b),
                    Sub => a.wrapping_sub(b),
                    Mul => a.wrapping_mul(b),
                    Div => {
                        if b == 0 {
                            return Err(parse_err(e.span, "division by zero in constant"));
                        }
                        a / b
                    }
                    Rem => {
                        if b == 0 {
                            return Err(parse_err(e.span, "division by zero in constant"));
                        }
                        a % b
                    }
                    Shl => a.wrapping_shl(b as u32),
                    Shr => a.wrapping_shr(b as u32),
                    Lt => (a < b) as i64,
                    Gt => (a > b) as i64,
                    Le => (a <= b) as i64,
                    Ge => (a >= b) as i64,
                    Eq => (a == b) as i64,
                    Ne => (a != b) as i64,
                    BitAnd => a & b,
                    BitOr => a | b,
                    BitXor => a ^ b,
                    LogAnd => ((a != 0) && (b != 0)) as i64,
                    LogOr => ((a != 0) || (b != 0)) as i64,
                })
            }
            ExprKind::Cond(c, t, f) => {
                if self.fold_const(c)? != 0 {
                    self.fold_const(t)
                } else {
                    self.fold_const(f)
                }
            }
            ExprKind::SizeofTy(ty) => Ok(size_of_type(ty, &self.program.structs)),
            ExprKind::Cast(_, inner) => self.fold_const(inner),
            _ => Err(parse_err(e.span, "not a constant expression")),
        }
    }
}

pub(crate) use crate::types::size_of as size_of_type;
