//! Semantic analysis: name resolution, block-scope flattening, and
//! expression typing.
//!
//! After [`analyze`] succeeds:
//! - every [`ExprKind::Ident`] carries a [`Resolution`];
//! - every [`Expr::ty`] is `Some`;
//! - every [`LocalDecl::local_id`] is `Some`, and each function's
//!   [`Function::locals`] lists its (uniquely renamed) locals;
//! - calls to undeclared functions are resolved against the modelled
//!   external table ([`crate::builtins`]) or registered as implicit
//!   prototypes.

use crate::ast::*;
use crate::builtins::builtins;
use crate::error::{sema_err, Result};
use crate::name_index::NameIndex;
use crate::span::Span;
use crate::types::{FuncSig, StructTable, Type};
use std::collections::BTreeMap;

/// Runs semantic analysis over a parsed program, mutating it in place.
///
/// # Errors
///
/// Returns the first semantic error: undeclared variables, bad
/// dereferences, unknown struct fields, calls to non-functions, etc.
pub fn analyze(program: &mut Program) -> Result<()> {
    let mut names = FileScope::new(program);
    // Register modelled externals that the program does not itself declare.
    for b in builtins() {
        if names.function(program, b.name).is_some() {
            continue;
        }
        names.add_function(
            program,
            Function {
                name: b.name.to_owned(),
                ret: b.sig.ret.clone(),
                params: b
                    .sig
                    .params
                    .iter()
                    .map(|t| Param {
                        name: String::new(),
                        ty: t.clone(),
                        span: Span::dummy(),
                    })
                    .collect(),
                variadic: b.sig.variadic,
                body: None,
                locals: Vec::new(),
                span: Span::dummy(),
            },
        );
    }

    let n = program.functions.len();
    for idx in 0..n {
        let body = program.functions[idx].body.take();
        let Some(mut body) = body else { continue };
        let mut ctx = FnCtx::new(program, &mut names, idx);
        for stmt in &mut body {
            ctx.stmt(stmt)?;
        }
        let locals = ctx.locals;
        let func = &mut program.functions[idx];
        func.locals = locals;
        func.body = Some(body);
    }

    // Type global initializers (scalar expressions only need typing; list
    // structure is validated by the simplifier against the declared type).
    let n_globals = program.globals.len();
    for idx in 0..n_globals {
        let init = program.globals[idx].init.take();
        let Some(mut init) = init else { continue };
        {
            let mut ctx = GlobalInitCtx {
                program,
                names: &mut names,
            };
            ctx.init(&mut init)?;
        }
        program.globals[idx].init = Some(init);
    }
    Ok(())
}

/// File-scope name lookup, kept in step with every function sema
/// appends to the program.
struct FileScope {
    globals: NameIndex,
    functions: NameIndex,
}

impl FileScope {
    fn new(program: &Program) -> Self {
        FileScope {
            globals: NameIndex::build(&program.globals, |g| &g.name),
            functions: NameIndex::build(&program.functions, |f| &f.name),
        }
    }

    fn global(&self, program: &Program, name: &str) -> Option<GlobalId> {
        let pos = self.globals.get(&program.globals, name, |g| &g.name)?;
        Some(GlobalId(pos as u32))
    }

    fn function(&self, program: &Program, name: &str) -> Option<FuncId> {
        let pos = self.functions.get(&program.functions, name, |f| &f.name)?;
        Some(FuncId(pos as u32))
    }

    /// Appends `func` to the program and indexes it.
    fn add_function(&mut self, program: &mut Program, func: Function) {
        self.functions.insert(&func.name, program.functions.len());
        program.functions.push(func);
    }
}

/// Typing context for global initializers (no locals in scope).
struct GlobalInitCtx<'a> {
    program: &'a mut Program,
    names: &'a mut FileScope,
}

impl GlobalInitCtx<'_> {
    fn init(&mut self, init: &mut Init) -> Result<()> {
        match init {
            Init::Expr(e) => {
                // Reuse FnCtx machinery with an empty local scope by
                // borrowing the program for a synthetic context.
                let mut ctx = FnCtx::global_scope(self.program, self.names);
                ctx.expr(e)?;
                Ok(())
            }
            Init::List(items) => {
                for i in items {
                    self.init(i)?;
                }
                Ok(())
            }
        }
    }
}

struct FnCtx<'a> {
    program: &'a mut Program,
    names: &'a mut FileScope,
    /// Index of the function being analyzed (usize::MAX at global scope).
    func_idx: usize,
    /// Flattened local list being built.
    locals: Vec<Local>,
    /// Stack of block scopes mapping source names to resolutions.
    scopes: Vec<BTreeMap<String, Resolution>>,
    /// How many locals share each source name (for `$n` renaming).
    name_counts: BTreeMap<String, u32>,
}

impl<'a> FnCtx<'a> {
    fn new(program: &'a mut Program, names: &'a mut FileScope, func_idx: usize) -> Self {
        let mut scopes = vec![BTreeMap::new()];
        let param_count = program.functions[func_idx].params.len();
        for i in 0..param_count {
            let name = program.functions[func_idx].params[i].name.clone();
            scopes[0].insert(name, Resolution::Param(i as u32));
        }
        FnCtx {
            program,
            names,
            func_idx,
            locals: Vec::new(),
            scopes,
            name_counts: BTreeMap::new(),
        }
    }

    fn global_scope(program: &'a mut Program, names: &'a mut FileScope) -> Self {
        FnCtx {
            program,
            names,
            func_idx: usize::MAX,
            locals: Vec::new(),
            scopes: vec![BTreeMap::new()],
            name_counts: BTreeMap::new(),
        }
    }

    fn structs(&self) -> &StructTable {
        &self.program.structs
    }

    fn resolve(&self, name: &str) -> Option<Resolution> {
        for scope in self.scopes.iter().rev() {
            if let Some(r) = scope.get(name) {
                return Some(*r);
            }
        }
        if let Some(id) = self.names.global(self.program, name) {
            return Some(Resolution::Global(id));
        }
        if let Some(id) = self.names.function(self.program, name) {
            return Some(Resolution::Func(id));
        }
        if let Some(v) = self.program.enum_consts.get(name) {
            return Some(Resolution::EnumConst(*v));
        }
        None
    }

    fn declare_local(&mut self, name: &str, ty: Type, span: Span) -> LocalId {
        let count = self.name_counts.entry(name.to_owned()).or_insert(0);
        let unique = if *count == 0 {
            name.to_owned()
        } else {
            format!("{name}${count}")
        };
        *count += 1;
        let id = LocalId(self.locals.len() as u32);
        self.locals.push(Local {
            name: unique,
            ty,
            span,
        });
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_owned(), Resolution::Local(id));
        id
    }

    fn resolution_type(&self, r: Resolution) -> Type {
        match r {
            Resolution::Local(id) => self.locals[id.0 as usize].ty.clone(),
            Resolution::Param(i) => self.program.functions[self.func_idx].params[i as usize]
                .ty
                .clone(),
            Resolution::Global(id) => self.program.globals[id.0 as usize].ty.clone(),
            Resolution::Func(id) => {
                let f = &self.program.functions[id.0 as usize];
                Type::Func(Box::new(f.sig()))
            }
            Resolution::EnumConst(_) => Type::Int,
        }
    }

    // ----- statements ------------------------------------------------------

    fn stmt(&mut self, s: &mut Stmt) -> Result<()> {
        match &mut s.kind {
            StmtKind::Expr(e) => {
                self.expr(e)?;
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    let id = self.declare_local(&d.name, d.ty.clone(), d.span);
                    d.local_id = Some(id);
                    if let Some(init) = &mut d.init {
                        self.init(init)?;
                    }
                }
            }
            StmtKind::If(c, t, e) => {
                self.expr(c)?;
                self.stmt(t)?;
                if let Some(e) = e {
                    self.stmt(e)?;
                }
            }
            StmtKind::While(c, b) => {
                self.expr(c)?;
                self.stmt(b)?;
            }
            StmtKind::DoWhile(b, c) => {
                self.stmt(b)?;
                self.expr(c)?;
            }
            StmtKind::For(i, c, st, b) => {
                if let Some(i) = i {
                    self.expr(i)?;
                }
                if let Some(c) = c {
                    self.expr(c)?;
                }
                if let Some(st) = st {
                    self.expr(st)?;
                }
                self.stmt(b)?;
            }
            StmtKind::Switch(e, arms) => {
                self.expr(e)?;
                for arm in arms {
                    self.scopes.push(BTreeMap::new());
                    for s in &mut arm.stmts {
                        self.stmt(s)?;
                    }
                    self.scopes.pop();
                }
            }
            StmtKind::Return(e) => {
                if let Some(e) = e {
                    self.expr(e)?;
                }
            }
            StmtKind::Block(stmts) => {
                self.scopes.push(BTreeMap::new());
                for s in stmts {
                    self.stmt(s)?;
                }
                self.scopes.pop();
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Empty => {}
        }
        Ok(())
    }

    fn init(&mut self, init: &mut Init) -> Result<()> {
        match init {
            Init::Expr(e) => self.expr(e).map(|_| ()),
            Init::List(items) => {
                for i in items {
                    self.init(i)?;
                }
                Ok(())
            }
        }
    }

    // ----- expressions ------------------------------------------------------

    /// Types an expression tree, filling `ty` on every node.
    fn expr(&mut self, e: &mut Expr) -> Result<Type> {
        let ty = self.expr_kind(&mut e.kind, e.span)?;
        e.ty = Some(ty.clone());
        Ok(ty)
    }

    fn expr_kind(&mut self, kind: &mut ExprKind, span: Span) -> Result<Type> {
        match kind {
            ExprKind::IntLit(_) => Ok(Type::Int),
            ExprKind::FloatLit(_) => Ok(Type::Double),
            ExprKind::CharLit(_) => Ok(Type::Int),
            ExprKind::StrLit(_) => Ok(Type::Char.ptr_to()),
            ExprKind::Ident(name, res) => {
                let r = self
                    .resolve(name)
                    .ok_or_else(|| sema_err(span, format!("undeclared identifier `{name}`")))?;
                *res = Some(r);
                Ok(self.resolution_type(r))
            }
            ExprKind::Unary(op, inner) => {
                let it = self.expr(inner)?;
                match op {
                    UnaryOp::Neg | UnaryOp::BitNot => Ok(it),
                    UnaryOp::Not => Ok(Type::Int),
                    UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec => {
                        Ok(it)
                    }
                    UnaryOp::AddrOf => {
                        if matches!(inner.kind, ExprKind::Ident(_, Some(Resolution::Func(_)))) {
                            // `&f` on a function designator yields the
                            // same function pointer as plain `f`.
                            Ok(it.decay())
                        } else if !is_lvalue(inner) {
                            Err(sema_err(span, "cannot take the address of an rvalue"))
                        } else {
                            Ok(it.ptr_to())
                        }
                    }
                    UnaryOp::Deref => {
                        let d = it.decay();
                        match d {
                            Type::Pointer(p) => {
                                if matches!(*p, Type::Void) {
                                    Err(sema_err(span, "dereference of `void*`"))
                                } else {
                                    Ok(*p)
                                }
                            }
                            _ => Err(sema_err(
                                span,
                                format!(
                                    "cannot dereference non-pointer of type `{}`",
                                    it.display(self.structs())
                                ),
                            )),
                        }
                    }
                }
            }
            ExprKind::Binary(op, a, b) => {
                let ta = self.expr(a)?.decay();
                let tb = self.expr(b)?.decay();
                if op.is_comparison() || op.is_logical() {
                    return Ok(Type::Int);
                }
                Ok(match (*op, &ta, &tb) {
                    (BinaryOp::Add | BinaryOp::Sub, Type::Pointer(_), Type::Pointer(_)) => {
                        Type::Int // pointer difference
                    }
                    (BinaryOp::Add | BinaryOp::Sub, Type::Pointer(_), _) => ta.clone(),
                    (BinaryOp::Add, _, Type::Pointer(_)) => tb.clone(),
                    _ => {
                        if ta == Type::Double || tb == Type::Double {
                            Type::Double
                        } else {
                            Type::Int
                        }
                    }
                })
            }
            ExprKind::Assign(lhs, _, rhs) => {
                let lt = self.expr(lhs)?;
                self.expr(rhs)?;
                if !is_lvalue(lhs) {
                    return Err(sema_err(span, "assignment target is not an lvalue"));
                }
                Ok(lt)
            }
            ExprKind::Cond(c, t, f) => {
                self.expr(c)?;
                let tt = self.expr(t)?.decay();
                let tf = self.expr(f)?.decay();
                // Prefer the pointer branch so that `p ? p : 0` is a pointer.
                Ok(if tt.is_pointer() {
                    tt
                } else if tf.is_pointer() {
                    tf
                } else {
                    tt
                })
            }
            ExprKind::Call(callee, args) => {
                // Implicitly declare `foo(...)` for an unknown direct callee.
                if let ExprKind::Ident(name, _) = &callee.kind {
                    if self.resolve(name).is_none() {
                        let fname = name.clone();
                        self.names.add_function(
                            self.program,
                            Function {
                                name: fname,
                                ret: Type::Int,
                                params: Vec::new(),
                                variadic: true,
                                body: None,
                                locals: Vec::new(),
                                span,
                            },
                        );
                    }
                }
                let ct = self.expr(callee)?.decay();
                for a in args.iter_mut() {
                    self.expr(a)?;
                }
                let sig = callee_sig(&ct).ok_or_else(|| {
                    sema_err(
                        span,
                        format!("called object has type `{}`", ct.display(self.structs())),
                    )
                })?;
                if !sig.variadic && sig.params.len() != args.len() {
                    return Err(sema_err(
                        span,
                        format!(
                            "call supplies {} argument(s) but callee takes {}",
                            args.len(),
                            sig.params.len()
                        ),
                    ));
                }
                Ok(sig.ret.clone())
            }
            ExprKind::Index(base, idx) => {
                let bt = self.expr(base)?.decay();
                self.expr(idx)?;
                match bt {
                    Type::Pointer(p) => Ok(*p),
                    _ => Err(sema_err(
                        span,
                        format!(
                            "cannot index non-array type `{}`",
                            bt.display(self.structs())
                        ),
                    )),
                }
            }
            ExprKind::Member(base, field, arrow) => {
                let bt = self.expr(base)?;
                let sid = match (&bt, *arrow) {
                    (Type::Struct(id), false) => *id,
                    (Type::Pointer(inner), true) => match inner.as_ref() {
                        Type::Struct(id) => *id,
                        _ => {
                            return Err(sema_err(span, "`->` on non-struct pointer"));
                        }
                    },
                    (Type::Pointer(_), false) => {
                        return Err(sema_err(span, "`.` used on a pointer; use `->`"));
                    }
                    (Type::Struct(_), true) => {
                        return Err(sema_err(span, "`->` used on a struct value; use `.`"));
                    }
                    _ => {
                        return Err(sema_err(
                            span,
                            format!(
                                "member access on non-struct type `{}`",
                                bt.display(self.structs())
                            ),
                        ));
                    }
                };
                let def = self.structs().def(sid);
                if !def.complete {
                    return Err(sema_err(span, "member access on incomplete struct type"));
                }
                def.field(field)
                    .map(|f| f.ty.clone())
                    .ok_or_else(|| sema_err(span, format!("no field `{field}` in struct")))
            }
            ExprKind::Cast(ty, inner) => {
                self.expr(inner)?;
                Ok(ty.clone())
            }
            ExprKind::SizeofTy(_) => Ok(Type::Int),
            ExprKind::SizeofExpr(inner) => {
                self.expr(inner)?;
                Ok(Type::Int)
            }
            ExprKind::Comma(a, b) => {
                self.expr(a)?;
                self.expr(b)
            }
        }
    }
}

fn callee_sig(decayed: &Type) -> Option<&FuncSig> {
    match decayed {
        Type::Pointer(inner) => match inner.as_ref() {
            Type::Func(sig) => Some(sig),
            _ => None,
        },
        Type::Func(sig) => Some(sig),
        _ => None,
    }
}

/// Conservative lvalue check: identifiers (not functions/enum constants),
/// dereferences, indexes, and member accesses.
fn is_lvalue(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Ident(_, Some(Resolution::Func(_) | Resolution::EnumConst(_))) => false,
        ExprKind::Ident(..) => true,
        ExprKind::Unary(UnaryOp::Deref, _) => true,
        ExprKind::Index(..) => true,
        ExprKind::Member(..) => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Program {
        let mut p = parse(src).expect("parse ok");
        analyze(&mut p).expect("sema ok");
        p
    }

    fn check_err(src: &str) -> crate::error::FrontendError {
        let mut p = parse(src).expect("parse ok");
        analyze(&mut p).expect_err("sema should fail")
    }

    #[test]
    fn resolves_params_locals_globals() {
        let p = check("int g; int f(int a) { int x; x = a + g; return x; }");
        let f = p.function("f").unwrap().1;
        assert_eq!(f.locals.len(), 1);
        assert_eq!(f.locals[0].name, "x");
    }

    #[test]
    fn shadowed_locals_get_unique_names() {
        let p = check("int f(void) { int x; x = 1; { int x; x = 2; } return x; }");
        let f = p.function("f").unwrap().1;
        let names: Vec<_> = f.locals.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(names, vec!["x", "x$1"]);
    }

    #[test]
    fn types_pointer_expressions() {
        let p = check("int f(int **pp) { int *q; q = *pp; return *q; }");
        let f = p.function("f").unwrap().1;
        let body = f.body.as_ref().unwrap();
        // `q = *pp` — check the assignment's type is int*.
        let StmtKind::Expr(e) = &body[1].kind else {
            panic!()
        };
        assert_eq!(e.ty, Some(Type::Int.ptr_to()));
    }

    #[test]
    fn function_designator_decays() {
        let p = check("int foo(void){return 0;} int (*fp)(void); int main(void){ fp = foo; fp = &foo; return fp(); }");
        assert!(p.function("foo").is_some());
    }

    #[test]
    fn undeclared_variable_is_error() {
        let e = check_err("int f(void) { return nope; }");
        assert!(e.message().contains("undeclared"));
    }

    #[test]
    fn deref_non_pointer_is_error() {
        let e = check_err("int f(int x) { return *x; }");
        assert!(e.message().contains("dereference"));
    }

    #[test]
    fn deref_void_pointer_is_error() {
        let e = check_err("int f(void *p) { return *p; }");
        assert!(e.message().contains("void*"));
    }

    #[test]
    fn unknown_field_is_error() {
        let e = check_err("struct s { int a; }; int f(struct s *p) { return p->b; }");
        assert!(e.message().contains("no field"));
    }

    #[test]
    fn dot_on_pointer_is_error() {
        let e = check_err("struct s { int a; }; int f(struct s *p) { return p.a; }");
        assert!(e.message().contains("->"));
    }

    #[test]
    fn malloc_is_modelled() {
        let p = check("int main(void) { int *p; p = (int*) malloc(4); *p = 1; return *p; }");
        assert!(p.function("malloc").is_some());
        assert!(!p.function("malloc").unwrap().1.is_definition());
    }

    #[test]
    fn implicit_function_declaration() {
        let p = check("int main(void) { return mystery(1, 2); }");
        let f = p.function("mystery").unwrap().1;
        assert!(f.variadic);
        assert!(!f.is_definition());
    }

    #[test]
    fn wrong_arity_is_error() {
        let e = check_err("int f(int a) { return a; } int main(void) { return f(1, 2); }");
        assert!(e.message().contains("argument"));
    }

    #[test]
    fn assignment_needs_lvalue() {
        let e = check_err("int f(int a) { (a + 1) = 2; return a; }");
        assert!(e.message().contains("lvalue"));
    }

    #[test]
    fn pointer_arithmetic_types() {
        let p = check("int f(int *p, int *q) { p = p + 1; return q - p; }");
        let f = p.function("f").unwrap().1;
        let StmtKind::Expr(e) = &f.body.as_ref().unwrap()[0].kind else {
            panic!()
        };
        assert_eq!(e.ty, Some(Type::Int.ptr_to()));
    }

    #[test]
    fn array_indexing_types() {
        let p = check("double m[8]; double f(int i) { return m[i]; }");
        let f = p.function("f").unwrap().1;
        let StmtKind::Return(Some(e)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!()
        };
        assert_eq!(e.ty, Some(Type::Double));
    }

    #[test]
    fn global_initializers_typed() {
        let p = check("int a = 1 + 2; int *pa = &a;");
        let g = p.global("pa").unwrap().1;
        let Some(Init::Expr(e)) = &g.init else {
            panic!()
        };
        assert_eq!(e.ty, Some(Type::Int.ptr_to()));
    }

    #[test]
    fn string_literal_is_char_pointer() {
        let p = check("char *msg = \"hello\";");
        let Some(Init::Expr(e)) = &p.globals[0].init else {
            panic!()
        };
        assert_eq!(e.ty, Some(Type::Char.ptr_to()));
    }
}
