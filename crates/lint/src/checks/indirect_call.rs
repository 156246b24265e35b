//! `indirect-call`: function-pointer calls that cannot work.
//!
//! The engine resolves indirect callees from the pointer's R-location
//! set (Figure 5); this check re-derives that set read-only and
//! reports:
//!
//! - no function among the targets (NULL-only, or data locations from
//!   cast abuse) — the engine treats the call as a no-op, so this is a
//!   definite error;
//! - NULL among the targets next to real functions — possibly NULL at
//!   the call, a warning;
//! - an arity mismatch between the call and a resolved target —
//!   definite when the mismatching function is the unique, definite
//!   target, possible otherwise.

use crate::{Check, Diagnostic, LintContext, Severity};
use pta_cfront::ast::FuncId;
use pta_core::Def;
use pta_simple::{printer, BasicStmt, CallTarget, Operand, StmtId, VarRef};

/// See the module docs.
pub struct IndirectCall;

impl Check for IndirectCall {
    fn id(&self) -> &'static str {
        "indirect-call"
    }

    fn description(&self) -> &'static str {
        "indirect calls with no or incompatible function targets"
    }

    fn demand_roots(&self, ir: &pta_simple::IrProgram) -> Option<Vec<pta_core::QueryRoot>> {
        // The check reads facts exactly at the indirect call sites it
        // walks below.
        let mut roots = Vec::new();
        for (fid, f) in ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            body.for_each_basic(&mut |b, id| {
                if matches!(
                    b,
                    BasicStmt::Call {
                        target: CallTarget::Indirect(_),
                        ..
                    }
                ) {
                    roots.push((fid, id));
                }
            });
        }
        Some(roots)
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (fid, f) in cx.ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            let mut sites: Vec<(StmtId, &VarRef, usize)> = Vec::new();
            body.for_each_basic(&mut |b, id| {
                if let BasicStmt::Call {
                    target: CallTarget::Indirect(r),
                    args,
                    ..
                } = b
                {
                    sites.push((id, r, args.len()));
                }
            });
            for (stmt, fnptr, n_args) in sites {
                if !cx.query.reached(stmt) {
                    continue;
                }
                let set = cx.query.at(stmt);
                let vals = cx
                    .query
                    .operand_r_locations(fid, set, &Operand::Ref(fnptr.clone()));
                if vals.is_empty() {
                    continue; // nothing materialized: dead path
                }
                let txt = printer::ref_str(cx.ir, f, fnptr);
                let span = cx.query.span_of(stmt);
                let fns: Vec<(FuncId, Def)> = vals
                    .iter()
                    .filter_map(|(t, d)| cx.result.locs.as_function(*t).map(|g| (g, *d)))
                    .collect();
                if fns.is_empty() {
                    out.push(Diagnostic {
                        check_id: self.id(),
                        severity: Severity::Error,
                        fidelity: cx.fidelity,
                        function: f.name.clone(),
                        stmt: Some(stmt),
                        span,
                        message: format!(
                            "indirect call through `{}` in `{}` has no function targets \
                             on any path; the call can never succeed",
                            txt, f.name
                        ),
                    });
                    continue;
                }
                if vals.iter().any(|(t, _)| cx.result.locs.is_null(*t)) {
                    out.push(Diagnostic {
                        check_id: self.id(),
                        severity: Severity::Warning,
                        fidelity: cx.fidelity,
                        function: f.name.clone(),
                        stmt: Some(stmt),
                        span,
                        message: format!(
                            "indirect call through `{}` in `{}`: the pointer may be NULL \
                             at the call",
                            txt, f.name
                        ),
                    });
                }
                for (g, d) in &fns {
                    let callee = cx.ir.function(*g);
                    let ok =
                        n_args == callee.n_params || (callee.variadic && n_args >= callee.n_params);
                    if ok {
                        continue;
                    }
                    let definite = fns.len() == 1 && *d == Def::D;
                    out.push(Diagnostic {
                        check_id: self.id(),
                        severity: if definite {
                            Severity::Error
                        } else {
                            Severity::Warning
                        },
                        fidelity: cx.fidelity,
                        function: f.name.clone(),
                        stmt: Some(stmt),
                        span,
                        message: format!(
                            "indirect call through `{}` in `{}` passes {} argument{} to \
                             `{}`, which takes {}",
                            txt,
                            f.name,
                            n_args,
                            if n_args == 1 { "" } else { "s" },
                            callee.name,
                            callee.n_params
                        ),
                    });
                }
            }
        }
    }
}
