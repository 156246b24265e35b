//! The simplifier: lowers the typed AST into SIMPLE form.
//!
//! Responsibilities (mirroring the McCAT SIMPLE design of §2 of the
//! paper):
//! - compile complex expressions into sequences of basic statements with
//!   compiler temporaries;
//! - guarantee at most one level of pointer indirection per variable
//!   reference;
//! - simplify call arguments to constants or variable references;
//! - simplify conditions to side-effect-free simple expressions, hoisting
//!   their computation into `pre_cond` blocks;
//! - move variable initializations from declarations into statements
//!   (global initializers are hoisted to the top of `main`);
//! - break struct assignments into per-field assignments;
//! - turn `malloc`/`calloc`/`realloc` calls into [`BasicStmt::Alloc`].

use crate::ir::*;
use pta_cfront::ast::{
    self, BinaryOp, Expr, ExprKind, FuncId, Init, Resolution, Stmt as AStmt, StmtKind, UnaryOp,
};
use pta_cfront::error::{FrontendError, Phase};
use pta_cfront::span::Span;
use pta_cfront::types::{StructTable, Type};

/// Lowers a semantically-analyzed program into SIMPLE.
///
/// # Errors
///
/// Returns an error for constructs outside the analysable subset (e.g.
/// an initializer list that does not match its declared type).
pub fn lower(program: &ast::Program) -> Result<IrProgram, FrontendError> {
    let globals: Vec<IrGlobal> = program
        .globals
        .iter()
        .map(|g| IrGlobal {
            name: g.name.clone(),
            ty: g.ty.clone(),
        })
        .collect();

    let entry = program.main();
    let mut ir = IrProgram {
        structs: program.structs.clone(),
        globals,
        functions: Vec::new(),
        entry,
        n_stmts: 0,
        call_sites: Vec::new(),
        spans: Vec::new(),
    };

    let mut next_stmt = 0u32;
    for (idx, f) in program.functions.iter().enumerate() {
        let func_id = FuncId(idx as u32);
        let mut vars: Vec<IrVar> = f
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| IrVar {
                name: p.name.clone(),
                ty: p.ty.clone(),
                kind: VarKind::Param(i as u32),
            })
            .collect();
        vars.extend(f.locals.iter().map(|l| IrVar {
            name: l.name.clone(),
            ty: l.ty.clone(),
            kind: VarKind::Local,
        }));
        let body = match &f.body {
            None => None,
            Some(stmts) => {
                let mut ctx = Lower {
                    ast: program,
                    func_id,
                    vars: &mut vars,
                    next_stmt: &mut next_stmt,
                    call_sites: &mut ir.call_sites,
                    n_params: f.params.len(),
                    spans: &mut ir.spans,
                    cur_span: f.span,
                };
                let mut out = Vec::new();
                // Hoist global initializers into the entry function.
                if Some(func_id) == entry {
                    for (gi, g) in program.globals.iter().enumerate() {
                        if let Some(init) = &g.init {
                            let path = VarPath::global(ast::GlobalId(gi as u32));
                            ctx.lower_init(&mut out, path, &g.ty, init, g.span)?;
                        }
                    }
                }
                for s in stmts {
                    ctx.stmt(&mut out, s)?;
                }
                Some(Stmt::Seq(out))
            }
        };
        ir.functions.push(IrFunction {
            name: f.name.clone(),
            ret: f.ret.clone(),
            n_params: f.params.len(),
            vars,
            body,
            variadic: f.variadic,
            span: f.span,
        });
    }
    ir.n_stmts = next_stmt;
    Ok(ir)
}

fn err(span: Span, msg: impl Into<String>) -> FrontendError {
    FrontendError::new(Phase::Sema, span, msg)
}

struct Lower<'a> {
    ast: &'a ast::Program,
    func_id: FuncId,
    vars: &'a mut Vec<IrVar>,
    next_stmt: &'a mut u32,
    call_sites: &'a mut Vec<CallSiteInfo>,
    n_params: usize,
    spans: &'a mut Vec<Span>,
    cur_span: Span,
}

impl<'a> Lower<'a> {
    fn structs(&self) -> &StructTable {
        &self.ast.structs
    }

    fn fresh_id(&mut self) -> StmtId {
        let id = StmtId(*self.next_stmt);
        *self.next_stmt += 1;
        debug_assert_eq!(self.spans.len(), id.0 as usize);
        self.spans.push(self.cur_span);
        id
    }

    fn temp(&mut self, ty: Type) -> IrVarId {
        let id = IrVarId(self.vars.len() as u32);
        self.vars.push(IrVar {
            name: format!("_t{}", self.vars.len()),
            ty,
            kind: VarKind::Temp,
        });
        id
    }

    fn emit(&mut self, out: &mut Vec<Stmt>, b: BasicStmt) {
        let id = self.fresh_id();
        out.push(Stmt::Basic(b, id));
    }

    fn emit_call(
        &mut self,
        out: &mut Vec<Stmt>,
        lhs: Option<VarRef>,
        target: CallTarget,
        args: Vec<Operand>,
    ) {
        let id = self.fresh_id();
        let cs = CallSiteId(self.call_sites.len() as u32);
        self.call_sites.push(CallSiteInfo {
            caller: self.func_id,
            stmt: id,
            indirect: matches!(target, CallTarget::Indirect(_)),
        });
        out.push(Stmt::Basic(
            BasicStmt::Call {
                lhs,
                target,
                args,
                call_site: cs,
            },
            id,
        ));
    }

    /// Resolves an identifier to its IR path base.
    fn res_path(&self, r: Resolution) -> Option<VarPath> {
        match r {
            Resolution::Local(id) => Some(VarPath::var(IrVarId(self.n_params as u32 + id.0))),
            Resolution::Param(i) => Some(VarPath::var(IrVarId(i))),
            Resolution::Global(id) => Some(VarPath::global(id)),
            _ => None,
        }
    }

    // ----- statements ------------------------------------------------------

    fn stmt(&mut self, out: &mut Vec<Stmt>, s: &AStmt) -> Result<(), FrontendError> {
        self.cur_span = s.span;
        match &s.kind {
            StmtKind::Expr(e) => self.expr_stmt(out, e),
            StmtKind::Decl(decls) => {
                for d in decls {
                    if let Some(init) = &d.init {
                        let lid = d.local_id.expect("sema assigned local ids");
                        let path = VarPath::var(IrVarId(self.n_params as u32 + lid.0));
                        self.lower_init(out, path, &d.ty, init, d.span)?;
                    }
                }
                Ok(())
            }
            StmtKind::If(c, t, e) => {
                let cond = self.lower_cond(out, c)?;
                let mut then_v = Vec::new();
                self.stmt(&mut then_v, t)?;
                let else_s = match e {
                    Some(e) => {
                        let mut else_v = Vec::new();
                        self.stmt(&mut else_v, e)?;
                        Some(Box::new(Stmt::Seq(else_v)))
                    }
                    None => None,
                };
                let id = self.fresh_id();
                out.push(Stmt::If {
                    cond,
                    then_s: Box::new(Stmt::Seq(then_v)),
                    else_s,
                    id,
                });
                Ok(())
            }
            StmtKind::While(c, b) => {
                let mut pre = Vec::new();
                let cond = self.lower_cond(&mut pre, c)?;
                let mut body = Vec::new();
                self.stmt(&mut body, b)?;
                let id = self.fresh_id();
                out.push(Stmt::While {
                    pre_cond: Box::new(Stmt::Seq(pre)),
                    cond,
                    body: Box::new(Stmt::Seq(body)),
                    id,
                });
                Ok(())
            }
            StmtKind::DoWhile(b, c) => {
                let mut body = Vec::new();
                self.stmt(&mut body, b)?;
                let mut pre = Vec::new();
                let cond = self.lower_cond(&mut pre, c)?;
                let id = self.fresh_id();
                out.push(Stmt::DoWhile {
                    body: Box::new(Stmt::Seq(body)),
                    pre_cond: Box::new(Stmt::Seq(pre)),
                    cond,
                    id,
                });
                Ok(())
            }
            StmtKind::For(i, c, st, b) => {
                let mut init = Vec::new();
                if let Some(i) = i {
                    self.expr_stmt(&mut init, i)?;
                }
                let mut pre = Vec::new();
                let cond = match c {
                    Some(c) => self.lower_cond(&mut pre, c)?,
                    None => CondExpr::ConstTrue,
                };
                let mut step = Vec::new();
                if let Some(st) = st {
                    self.expr_stmt(&mut step, st)?;
                }
                let mut body = Vec::new();
                self.stmt(&mut body, b)?;
                let id = self.fresh_id();
                out.push(Stmt::For {
                    init: Box::new(Stmt::Seq(init)),
                    pre_cond: Box::new(Stmt::Seq(pre)),
                    cond,
                    step: Box::new(Stmt::Seq(step)),
                    body: Box::new(Stmt::Seq(body)),
                    id,
                });
                Ok(())
            }
            StmtKind::Switch(e, arms) => {
                let scrutinee = self.rvalue(out, e)?;
                let mut ir_arms = Vec::new();
                let mut has_default = false;
                for arm in arms {
                    if arm.labels.contains(&None) {
                        has_default = true;
                    }
                    let mut body = Vec::new();
                    for s in &arm.stmts {
                        self.stmt(&mut body, s)?;
                    }
                    ir_arms.push(IrSwitchArm {
                        labels: arm.labels.clone(),
                        body: Stmt::Seq(body),
                    });
                }
                let id = self.fresh_id();
                out.push(Stmt::Switch {
                    scrutinee,
                    arms: ir_arms,
                    has_default,
                    id,
                });
                Ok(())
            }
            StmtKind::Break => {
                let id = self.fresh_id();
                out.push(Stmt::Break(id));
                Ok(())
            }
            StmtKind::Continue => {
                let id = self.fresh_id();
                out.push(Stmt::Continue(id));
                Ok(())
            }
            StmtKind::Return(e) => {
                let v = match e {
                    Some(e) => Some(self.rvalue(out, e)?),
                    None => None,
                };
                self.emit(out, BasicStmt::Return(v));
                Ok(())
            }
            StmtKind::Block(stmts) => {
                for s in stmts {
                    self.stmt(out, s)?;
                }
                Ok(())
            }
            StmtKind::Empty => Ok(()),
        }
    }

    /// Lowers an expression evaluated only for its effects.
    fn expr_stmt(&mut self, out: &mut Vec<Stmt>, e: &Expr) -> Result<(), FrontendError> {
        match &e.kind {
            ExprKind::Assign(..) => {
                self.rvalue(out, e)?;
                Ok(())
            }
            ExprKind::Call(..) => {
                self.lower_call(out, e, false)?;
                Ok(())
            }
            ExprKind::Unary(
                UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec,
                inner,
            ) => {
                let op = match &e.kind {
                    ExprKind::Unary(op, _) => *op,
                    _ => unreachable!(),
                };
                let lv = self.lvalue(out, inner)?;
                self.emit_incdec(out, &lv, inner.ty(), op);
                Ok(())
            }
            ExprKind::Comma(a, b) => {
                self.expr_stmt(out, a)?;
                self.expr_stmt(out, b)
            }
            _ => {
                self.rvalue(out, e)?;
                Ok(())
            }
        }
    }

    fn emit_incdec(&mut self, out: &mut Vec<Stmt>, lv: &VarRef, ty: &Type, op: UnaryOp) {
        let inc = matches!(op, UnaryOp::PreInc | UnaryOp::PostInc);
        if ty.is_pointer() {
            let shift = if inc {
                IdxClass::Positive
            } else {
                IdxClass::Unknown
            };
            self.emit(
                out,
                BasicStmt::PtrArith {
                    lhs: lv.clone(),
                    ptr: lv.clone(),
                    shift,
                },
            );
        } else {
            let bop = if inc { BinaryOp::Add } else { BinaryOp::Sub };
            self.emit(
                out,
                BasicStmt::Binary {
                    lhs: lv.clone(),
                    op: bop,
                    a: Operand::Ref(lv.clone()),
                    b: Operand::int(1),
                },
            );
        }
    }

    // ----- initializers ----------------------------------------------------

    fn lower_init(
        &mut self,
        out: &mut Vec<Stmt>,
        path: VarPath,
        ty: &Type,
        init: &Init,
        span: Span,
    ) -> Result<(), FrontendError> {
        self.cur_span = span;
        match (init, ty) {
            (Init::Expr(e), _) => {
                let lv = VarRef::Path(path);
                self.assign_into(out, lv, ty, e)
            }
            (Init::List(items), Type::Array(elem, _)) => {
                for (i, item) in items.iter().enumerate() {
                    let p = path
                        .clone()
                        .project(IrProj::Index(IdxClass::of_const(i as i64)));
                    self.lower_init(out, p, elem, item, span)?;
                }
                Ok(())
            }
            (Init::List(items), Type::Struct(id)) => {
                let fields = self.structs().def(*id).fields.clone();
                if items.len() > fields.len() {
                    return Err(err(span, "too many initializers for struct"));
                }
                for (item, field) in items.iter().zip(fields.iter()) {
                    let p = path.clone().project(IrProj::Field(field.name.clone()));
                    self.lower_init(out, p, &field.ty, item, span)?;
                }
                Ok(())
            }
            (Init::List(items), _) if items.len() == 1 => {
                // `int x = {1};` — scalar braced initializer.
                self.lower_init(out, path, ty, &items[0], span)
            }
            (Init::List(_), _) => Err(err(span, "initializer list does not match declared type")),
        }
    }

    // ----- lvalues ---------------------------------------------------------

    /// Lowers an lvalue expression to a SIMPLE variable reference
    /// (introducing temporaries to keep at most one dereference).
    fn lvalue(&mut self, out: &mut Vec<Stmt>, e: &Expr) -> Result<VarRef, FrontendError> {
        match &e.kind {
            ExprKind::Ident(name, res) => {
                let r = res.expect("sema resolved idents");
                match self.res_path(r) {
                    Some(p) => Ok(VarRef::Path(p)),
                    None => Err(err(e.span, format!("`{name}` is not assignable storage"))),
                }
            }
            ExprKind::Member(base, field, false) => {
                let b = self.lvalue(out, base)?;
                Ok(ref_project(b, IrProj::Field(field.clone())))
            }
            ExprKind::Member(base, field, true) => {
                let path = self.pointer_path(out, base)?;
                Ok(VarRef::Deref {
                    path,
                    shift: IdxClass::Zero,
                    after: vec![IrProj::Field(field.clone())],
                })
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                let it = inner.ty();
                if it.is_array() {
                    // `*a` on an array is `a[0]` — no pointer dereference.
                    let b = self.lvalue(out, inner)?;
                    return Ok(ref_project(b, IrProj::Index(IdxClass::Zero)));
                }
                let path = self.pointer_path(out, inner)?;
                Ok(VarRef::Deref {
                    path,
                    shift: IdxClass::Zero,
                    after: vec![],
                })
            }
            ExprKind::Index(base, idx) => {
                let class = self.idx_class(idx);
                // Evaluate the index for its side effects.
                if has_effects(idx) {
                    self.expr_stmt(out, idx)?;
                }
                let bt = base.ty();
                if bt.is_array() {
                    let b = self.lvalue(out, base)?;
                    Ok(ref_project(b, IrProj::Index(class)))
                } else {
                    // Pointer subscript: one dereference with a shift.
                    let path = self.pointer_path(out, base)?;
                    Ok(VarRef::Deref {
                        path,
                        shift: class,
                        after: vec![],
                    })
                }
            }
            ExprKind::Cast(_, inner) => self.lvalue(out, inner),
            _ => Err(err(e.span, "expression is not an lvalue in SIMPLE form")),
        }
    }

    /// Lowers a pointer-valued expression to a dereference-free path
    /// (the pointer that a single-deref reference will go through).
    fn pointer_path(&mut self, out: &mut Vec<Stmt>, e: &Expr) -> Result<VarPath, FrontendError> {
        // Fast path: the expression is already a dereference-free lvalue.
        if let Ok(VarRef::Path(p)) = self.try_simple_lvalue(e) {
            return Ok(p);
        }
        let ty = e.ty().decay();
        let op = self.rvalue(out, e)?;
        match op {
            Operand::Ref(VarRef::Path(p)) => Ok(p),
            other => {
                let t = self.temp(ty);
                self.emit(
                    out,
                    BasicStmt::Copy {
                        lhs: VarRef::Path(VarPath::var(t)),
                        rhs: other,
                    },
                );
                Ok(VarPath::var(t))
            }
        }
    }

    /// Tries to view `e` as a dereference-free lvalue without emitting
    /// any statements (no side effects allowed).
    fn try_simple_lvalue(&mut self, e: &Expr) -> Result<VarRef, FrontendError> {
        match &e.kind {
            ExprKind::Ident(_, Some(r)) => match self.res_path(*r) {
                Some(p) => Ok(VarRef::Path(p)),
                None => Err(err(e.span, "not simple storage")),
            },
            ExprKind::Member(base, field, false) => {
                let b = self.try_simple_lvalue(base)?;
                match b {
                    VarRef::Path(_) => Ok(ref_project(b, IrProj::Field(field.clone()))),
                    _ => Err(err(e.span, "not simple")),
                }
            }
            ExprKind::Index(base, idx) if base.ty().is_array() && !has_effects(idx) => {
                let class = self.idx_class(idx);
                let b = self.try_simple_lvalue(base)?;
                match b {
                    VarRef::Path(_) => Ok(ref_project(b, IrProj::Index(class))),
                    _ => Err(err(e.span, "not simple")),
                }
            }
            _ => Err(err(e.span, "not simple")),
        }
    }

    fn idx_class(&self, idx: &Expr) -> IdxClass {
        match const_int(idx) {
            Some(0) => IdxClass::Zero,
            Some(v) if v > 0 => IdxClass::Positive,
            _ => IdxClass::Unknown,
        }
    }

    // ----- rvalues ---------------------------------------------------------

    /// Lowers an expression to an operand, emitting any needed basic
    /// statements.
    fn rvalue(&mut self, out: &mut Vec<Stmt>, e: &Expr) -> Result<Operand, FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) | ExprKind::CharLit(v) => Ok(Operand::int(*v)),
            ExprKind::FloatLit(v) => Ok(Operand::Const(Const::Float(*v))),
            ExprKind::StrLit(s) => Ok(Operand::Str(s.clone())),
            ExprKind::Ident(_, Some(Resolution::Func(id))) => Ok(Operand::Func(*id)),
            ExprKind::Ident(_, Some(Resolution::EnumConst(v))) => Ok(Operand::int(*v)),
            ExprKind::Ident(..) | ExprKind::Member(..) | ExprKind::Index(..) => {
                let lv = self.lvalue(out, e)?;
                Ok(self.decayed_read(lv, e.ty()))
            }
            ExprKind::Unary(UnaryOp::AddrOf, inner) => {
                if let ExprKind::Ident(_, Some(Resolution::Func(id))) = &inner.kind {
                    return Ok(Operand::Func(*id));
                }
                let lv = self.lvalue(out, inner)?;
                Ok(Operand::AddrOf(lv))
            }
            ExprKind::Unary(UnaryOp::Deref, inner) => {
                if inner.ty().decay().is_func_pointerish() && e.ty().is_func() {
                    // `*fp` yields the function designator, which decays
                    // back to the pointer value: just read `fp`.
                    return self.rvalue(out, inner);
                }
                let lv = self.lvalue(out, e)?;
                Ok(self.decayed_read(lv, e.ty()))
            }
            ExprKind::Unary(op @ (UnaryOp::PreInc | UnaryOp::PreDec), inner) => {
                let lv = self.lvalue(out, inner)?;
                self.emit_incdec(out, &lv, inner.ty(), *op);
                Ok(Operand::Ref(lv))
            }
            ExprKind::Unary(op @ (UnaryOp::PostInc | UnaryOp::PostDec), inner) => {
                let lv = self.lvalue(out, inner)?;
                let t = self.temp(inner.ty().clone());
                let tref = VarRef::Path(VarPath::var(t));
                self.emit(
                    out,
                    BasicStmt::Copy {
                        lhs: tref.clone(),
                        rhs: Operand::Ref(lv.clone()),
                    },
                );
                self.emit_incdec(out, &lv, inner.ty(), *op);
                Ok(Operand::Ref(tref))
            }
            ExprKind::Unary(op, inner) => {
                let v = self.rvalue(out, inner)?;
                if let Operand::Const(Const::Int(x)) = v {
                    // Fold constant unary arithmetic.
                    let folded = match op {
                        UnaryOp::Neg => Some(-x),
                        UnaryOp::Not => Some((x == 0) as i64),
                        UnaryOp::BitNot => Some(!x),
                        _ => None,
                    };
                    if let Some(f) = folded {
                        return Ok(Operand::int(f));
                    }
                }
                let t = self.temp(e.ty().clone());
                let lhs = VarRef::Path(VarPath::var(t));
                self.emit(
                    out,
                    BasicStmt::Unary {
                        lhs: lhs.clone(),
                        op: *op,
                        rhs: v,
                    },
                );
                Ok(Operand::Ref(lhs))
            }
            ExprKind::Binary(op, a, b) => self.lower_binary(out, e, *op, a, b),
            ExprKind::Assign(lhs, op, rhs) => {
                let lv = self.lvalue(out, lhs)?;
                match op {
                    None => {
                        self.assign_into_ref(out, lv.clone(), lhs.ty(), rhs)?;
                    }
                    Some(bop) => {
                        if lhs.ty().is_pointer() && matches!(bop, BinaryOp::Add | BinaryOp::Sub) {
                            let shift = match (bop, const_int(rhs)) {
                                (BinaryOp::Add, Some(0)) | (BinaryOp::Sub, Some(0)) => {
                                    IdxClass::Zero
                                }
                                (BinaryOp::Add, Some(v)) if v > 0 => IdxClass::Positive,
                                _ => IdxClass::Unknown,
                            };
                            if has_effects(rhs) {
                                self.expr_stmt(out, rhs)?;
                            }
                            self.emit(
                                out,
                                BasicStmt::PtrArith {
                                    lhs: lv.clone(),
                                    ptr: lv.clone(),
                                    shift,
                                },
                            );
                        } else {
                            let v = self.rvalue(out, rhs)?;
                            self.emit(
                                out,
                                BasicStmt::Binary {
                                    lhs: lv.clone(),
                                    op: *bop,
                                    a: Operand::Ref(lv.clone()),
                                    b: v,
                                },
                            );
                        }
                    }
                }
                Ok(Operand::Ref(lv))
            }
            ExprKind::Cond(c, t, f) => {
                let cond = self.lower_cond(out, c)?;
                let tmp = self.temp(e.ty().clone());
                let tref = VarRef::Path(VarPath::var(tmp));
                let mut then_v = Vec::new();
                let tv = self.rvalue(&mut then_v, t)?;
                self.emit(
                    &mut then_v,
                    BasicStmt::Copy {
                        lhs: tref.clone(),
                        rhs: tv,
                    },
                );
                let mut else_v = Vec::new();
                let fv = self.rvalue(&mut else_v, f)?;
                self.emit(
                    &mut else_v,
                    BasicStmt::Copy {
                        lhs: tref.clone(),
                        rhs: fv,
                    },
                );
                let id = self.fresh_id();
                out.push(Stmt::If {
                    cond,
                    then_s: Box::new(Stmt::Seq(then_v)),
                    else_s: Some(Box::new(Stmt::Seq(else_v))),
                    id,
                });
                Ok(Operand::Ref(tref))
            }
            ExprKind::Call(..) => {
                let dst = self.lower_call(out, e, true)?;
                Ok(dst.expect("lower_call returns a value when requested"))
            }
            ExprKind::Cast(_, inner) => self.rvalue(out, inner),
            ExprKind::SizeofTy(ty) => {
                Ok(Operand::int(pta_cfront::types::size_of(ty, self.structs())))
            }
            ExprKind::SizeofExpr(inner) => Ok(Operand::int(pta_cfront::types::size_of(
                inner.ty(),
                self.structs(),
            ))),
            ExprKind::Comma(a, b) => {
                self.expr_stmt(out, a)?;
                self.rvalue(out, b)
            }
        }
    }

    /// Reads an lvalue as an rvalue, applying array decay.
    fn decayed_read(&mut self, lv: VarRef, ty: &Type) -> Operand {
        if ty.is_array() {
            // An array rvalue is the address of its first element.
            Operand::AddrOf(ref_project(lv, IrProj::Index(IdxClass::Zero)))
        } else {
            Operand::Ref(lv)
        }
    }

    fn lower_binary(
        &mut self,
        out: &mut Vec<Stmt>,
        e: &Expr,
        op: BinaryOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<Operand, FrontendError> {
        if op.is_logical() {
            return self.lower_logical(out, e, op, a, b);
        }
        // Pointer arithmetic: result is a pointer.
        let rty = e.ty().decay();
        if rty.is_pointer() && matches!(op, BinaryOp::Add | BinaryOp::Sub) {
            let (ptr_e, int_e) = if a.ty().decay().is_pointer() {
                (a, b)
            } else {
                (b, a)
            };
            let shift = match (op, const_int(int_e)) {
                (_, Some(0)) => IdxClass::Zero,
                (BinaryOp::Add, Some(v)) if v > 0 => IdxClass::Positive,
                _ => IdxClass::Unknown,
            };
            if has_effects(int_e) {
                self.expr_stmt(out, int_e)?;
            }
            let pv = self.rvalue(out, ptr_e)?;
            // `p + 0` is just `p`.
            if shift == IdxClass::Zero {
                return Ok(pv);
            }
            // `&a[k] + i` folds into `&a[k+i]` when the shape allows.
            if let Operand::AddrOf(r) = &pv {
                if let Some(shifted) = shift_addr(r, shift) {
                    return Ok(Operand::AddrOf(shifted));
                }
            }
            let pr = self.operand_to_ref(out, pv, rty.clone());
            let t = self.temp(rty);
            let lhs = VarRef::Path(VarPath::var(t));
            self.emit(
                out,
                BasicStmt::PtrArith {
                    lhs: lhs.clone(),
                    ptr: pr,
                    shift,
                },
            );
            return Ok(Operand::Ref(lhs));
        }
        let av = self.rvalue(out, a)?;
        let bv = self.rvalue(out, b)?;
        if let (Operand::Const(Const::Int(x)), Operand::Const(Const::Int(y))) = (&av, &bv) {
            if let Some(f) = fold_int(op, *x, *y) {
                return Ok(Operand::int(f));
            }
        }
        let t = self.temp(e.ty().clone());
        let lhs = VarRef::Path(VarPath::var(t));
        self.emit(
            out,
            BasicStmt::Binary {
                lhs: lhs.clone(),
                op,
                a: av,
                b: bv,
            },
        );
        Ok(Operand::Ref(lhs))
    }

    fn lower_logical(
        &mut self,
        out: &mut Vec<Stmt>,
        e: &Expr,
        op: BinaryOp,
        a: &Expr,
        b: &Expr,
    ) -> Result<Operand, FrontendError> {
        let t = self.temp(e.ty().clone());
        let tref = VarRef::Path(VarPath::var(t));
        let cond = self.lower_cond(out, a)?;
        // t = a && b  →  if (a) { t = (b != 0); } else { t = 0; }
        // t = a || b  →  if (a) { t = 1; } else { t = (b != 0); }
        let mut eval_b = Vec::new();
        let bv = self.rvalue(&mut eval_b, b)?;
        self.emit(
            &mut eval_b,
            BasicStmt::Binary {
                lhs: tref.clone(),
                op: BinaryOp::Ne,
                a: bv,
                b: Operand::int(0),
            },
        );
        let mut const_v = Vec::new();
        let k = if op == BinaryOp::LogAnd { 0 } else { 1 };
        self.emit(
            &mut const_v,
            BasicStmt::Copy {
                lhs: tref.clone(),
                rhs: Operand::int(k),
            },
        );
        let (then_v, else_v) = if op == BinaryOp::LogAnd {
            (eval_b, const_v)
        } else {
            (const_v, eval_b)
        };
        let id = self.fresh_id();
        out.push(Stmt::If {
            cond,
            then_s: Box::new(Stmt::Seq(then_v)),
            else_s: Some(Box::new(Stmt::Seq(else_v))),
            id,
        });
        Ok(Operand::Ref(tref))
    }

    fn operand_to_ref(&mut self, out: &mut Vec<Stmt>, op: Operand, ty: Type) -> VarRef {
        match op {
            Operand::Ref(r) => r,
            other => {
                let t = self.temp(ty);
                let lhs = VarRef::Path(VarPath::var(t));
                self.emit(
                    out,
                    BasicStmt::Copy {
                        lhs: lhs.clone(),
                        rhs: other,
                    },
                );
                lhs
            }
        }
    }

    // ----- assignments (with struct expansion) -----------------------------

    fn assign_into(
        &mut self,
        out: &mut Vec<Stmt>,
        lv: VarRef,
        ty: &Type,
        rhs: &Expr,
    ) -> Result<(), FrontendError> {
        self.assign_into_ref(out, lv, ty, rhs)
    }

    fn assign_into_ref(
        &mut self,
        out: &mut Vec<Stmt>,
        lv: VarRef,
        ty: &Type,
        rhs: &Expr,
    ) -> Result<(), FrontendError> {
        if ty.is_struct() {
            // Struct assignment: obtain a readable reference for the rhs
            // and expand field by field.
            let rv = self.rvalue(out, rhs)?;
            let rref = match rv {
                Operand::Ref(r) => r,
                _ => return Err(err(rhs.span, "struct value expected")),
            };
            self.expand_struct_copy(out, &lv, &rref, ty);
            return Ok(());
        }
        let v = self.rvalue(out, rhs)?;
        self.emit(out, BasicStmt::Copy { lhs: lv, rhs: v });
        Ok(())
    }

    /// Breaks a struct assignment into per-leaf-field assignments, as the
    /// paper prescribes for the basic rules.
    fn expand_struct_copy(&mut self, out: &mut Vec<Stmt>, lhs: &VarRef, rhs: &VarRef, ty: &Type) {
        match ty {
            Type::Struct(id) => {
                let fields = self.structs().def(*id).fields.clone();
                for f in &fields {
                    let l = ref_project(lhs.clone(), IrProj::Field(f.name.clone()));
                    let r = ref_project(rhs.clone(), IrProj::Field(f.name.clone()));
                    self.expand_struct_copy(out, &l, &r, &f.ty);
                }
            }
            Type::Array(elem, _) => {
                // Element-wise copy collapses to a weak update over the
                // head/tail locations.
                for class in [IdxClass::Zero, IdxClass::Unknown] {
                    let l = ref_project(lhs.clone(), IrProj::Index(class));
                    let r = ref_project(rhs.clone(), IrProj::Index(class));
                    self.expand_struct_copy(out, &l, &r, elem);
                }
            }
            _ => {
                self.emit(
                    out,
                    BasicStmt::Copy {
                        lhs: lhs.clone(),
                        rhs: Operand::Ref(rhs.clone()),
                    },
                );
            }
        }
    }

    // ----- calls -----------------------------------------------------------

    /// Lowers a call expression. Returns the result operand when
    /// `want_value` is set.
    fn lower_call(
        &mut self,
        out: &mut Vec<Stmt>,
        e: &Expr,
        want_value: bool,
    ) -> Result<Option<Operand>, FrontendError> {
        let ExprKind::Call(callee, args) = &e.kind else {
            return Err(err(e.span, "not a call"));
        };
        // Heap allocators become Alloc statements.
        if let ExprKind::Ident(name, Some(Resolution::Func(_))) = &callee.kind {
            if matches!(name.as_str(), "malloc" | "calloc" | "realloc") {
                let size = if args.is_empty() {
                    Operand::int(0)
                } else {
                    self.rvalue(out, &args[0])?
                };
                // Evaluate any extra args for effects.
                for a in args.iter().skip(1) {
                    if has_effects(a) {
                        self.expr_stmt(out, a)?;
                    }
                }
                let t = self.temp(e.ty().clone());
                let lhs = VarRef::Path(VarPath::var(t));
                self.emit(
                    out,
                    BasicStmt::Alloc {
                        lhs: lhs.clone(),
                        size,
                    },
                );
                return Ok(Some(Operand::Ref(lhs)));
            }
        }
        let target = self.lower_callee(out, callee)?;
        let mut ops = Vec::new();
        for a in args {
            let v = self.rvalue(out, a)?;
            // Arguments must be constants or variable references; anything
            // else (another call's temp, &x is fine) is already simple.
            ops.push(v);
        }
        let ret_ty = e.ty().clone();
        let lhs = if want_value && ret_ty != Type::Void {
            let t = self.temp(ret_ty);
            Some(VarRef::Path(VarPath::var(t)))
        } else {
            None
        };
        self.emit_call(out, lhs.clone(), target, ops);
        Ok(match lhs {
            Some(r) => Some(Operand::Ref(r)),
            None if want_value => Some(Operand::int(0)), // void call in value position
            None => None,
        })
    }

    fn lower_callee(
        &mut self,
        out: &mut Vec<Stmt>,
        callee: &Expr,
    ) -> Result<CallTarget, FrontendError> {
        match &callee.kind {
            ExprKind::Ident(_, Some(Resolution::Func(id))) => Ok(CallTarget::Direct(*id)),
            ExprKind::Cast(_, inner) => self.lower_callee(out, inner),
            // `(*fp)(…)` — the called value is `fp` itself.
            ExprKind::Unary(UnaryOp::Deref, inner)
                if inner.ty().decay().is_func_pointerish() && callee.ty().is_func() =>
            {
                self.lower_callee_value(out, inner)
            }
            ExprKind::Unary(UnaryOp::AddrOf, inner)
                if matches!(inner.kind, ExprKind::Ident(_, Some(Resolution::Func(_)))) =>
            {
                match &inner.kind {
                    ExprKind::Ident(_, Some(Resolution::Func(id))) => Ok(CallTarget::Direct(*id)),
                    _ => unreachable!(),
                }
            }
            _ => self.lower_callee_value(out, callee),
        }
    }

    /// Lowers an expression whose *value* is the function pointer being
    /// called.
    fn lower_callee_value(
        &mut self,
        out: &mut Vec<Stmt>,
        e: &Expr,
    ) -> Result<CallTarget, FrontendError> {
        let v = self.rvalue(out, e)?;
        match v {
            Operand::Func(id) => Ok(CallTarget::Direct(id)),
            Operand::Ref(r) => Ok(CallTarget::Indirect(r)),
            other => {
                let t = self.temp(e.ty().decay());
                let lhs = VarRef::Path(VarPath::var(t));
                self.emit(
                    out,
                    BasicStmt::Copy {
                        lhs: lhs.clone(),
                        rhs: other,
                    },
                );
                Ok(CallTarget::Indirect(lhs))
            }
        }
    }

    // ----- conditions ------------------------------------------------------

    /// Lowers a condition to a side-effect-free simple expression,
    /// emitting its computation into `out`.
    fn lower_cond(&mut self, out: &mut Vec<Stmt>, e: &Expr) -> Result<CondExpr, FrontendError> {
        match &e.kind {
            ExprKind::IntLit(v) if *v != 0 => Ok(CondExpr::ConstTrue),
            ExprKind::Binary(op, a, b) if op.is_comparison() => {
                let av = self.rvalue(out, a)?;
                let bv = self.rvalue(out, b)?;
                Ok(CondExpr::Rel(*op, av, bv))
            }
            ExprKind::Unary(UnaryOp::Not, inner) => {
                // Only keep `!x` simple when x is already an operand.
                let v = self.rvalue(out, inner)?;
                Ok(CondExpr::Not(v))
            }
            ExprKind::Cast(_, inner) => self.lower_cond(out, inner),
            _ => {
                let v = self.rvalue(out, e)?;
                Ok(CondExpr::Test(v))
            }
        }
    }
}

/// Appends a projection to a variable reference (to the post-deref
/// projections for indirect references).
pub(crate) fn ref_project(r: VarRef, p: IrProj) -> VarRef {
    match r {
        VarRef::Path(path) => VarRef::Path(path.project(p)),
        VarRef::Deref {
            path,
            shift,
            mut after,
        } => {
            after.push(p);
            VarRef::Deref { path, shift, after }
        }
    }
}

/// `&ref + shift` folding: shifts the final index projection when
/// possible.
fn shift_addr(r: &VarRef, shift: IdxClass) -> Option<VarRef> {
    if shift == IdxClass::Zero {
        return Some(r.clone());
    }
    let combine = |c: IdxClass| match (c, shift) {
        (IdxClass::Zero, IdxClass::Positive) | (IdxClass::Positive, IdxClass::Positive) => {
            IdxClass::Positive
        }
        _ => IdxClass::Unknown,
    };
    match r {
        VarRef::Path(path) => {
            let mut path = path.clone();
            match path.projs.last_mut() {
                Some(IrProj::Index(c)) => {
                    *c = combine(*c);
                    Some(VarRef::Path(path))
                }
                _ => None,
            }
        }
        VarRef::Deref {
            path,
            shift: s0,
            after,
        } => {
            if after.is_empty() {
                let s = combine(*s0);
                Some(VarRef::Deref {
                    path: path.clone(),
                    shift: s,
                    after: vec![],
                })
            } else {
                let mut after = after.clone();
                match after.last_mut() {
                    Some(IrProj::Index(c)) => {
                        *c = combine(*c);
                        Some(VarRef::Deref {
                            path: path.clone(),
                            shift: *s0,
                            after,
                        })
                    }
                    _ => None,
                }
            }
        }
    }
}

/// Constant-detects an integer expression (literals, enum constants,
/// negation of literals).
fn const_int(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) | ExprKind::CharLit(v) => Some(*v),
        ExprKind::Ident(_, Some(Resolution::EnumConst(v))) => Some(*v),
        ExprKind::Unary(UnaryOp::Neg, inner) => const_int(inner).map(|v| -v),
        ExprKind::Cast(_, inner) => const_int(inner),
        _ => None,
    }
}

fn fold_int(op: BinaryOp, a: i64, b: i64) -> Option<i64> {
    use BinaryOp::*;
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return None;
            }
            a / b
        }
        Rem => {
            if b == 0 {
                return None;
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
        LogAnd | LogOr => return None,
    })
}

/// Conservative side-effect check for expressions.
fn has_effects(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Assign(..) | ExprKind::Call(..) => true,
        ExprKind::Unary(
            UnaryOp::PreInc | UnaryOp::PreDec | UnaryOp::PostInc | UnaryOp::PostDec,
            _,
        ) => true,
        ExprKind::Unary(_, a) => has_effects(a),
        ExprKind::Binary(_, a, b) => has_effects(a) || has_effects(b),
        ExprKind::Cond(c, t, f) => has_effects(c) || has_effects(t) || has_effects(f),
        ExprKind::Index(a, b) => has_effects(a) || has_effects(b),
        ExprKind::Member(a, _, _) => has_effects(a),
        ExprKind::Cast(_, a) => has_effects(a),
        ExprKind::Comma(..) => true,
        _ => false,
    }
}
