//! `heap-leak`: the last pointer to heap storage is overwritten.
//!
//! `heap-escape` (PR 3) catches heap that dies with a returning frame;
//! this check catches the *mid-function* loss: a strong store into the
//! only remaining holder of a heap location makes that allocation
//! unreachable on the spot. At each strong pointer overwrite the facts
//! *before* the statement name the old heap targets; if the overwritten
//! slot was their only holder and the incoming value does not retain
//! them, they leak here.
//!
//! Always a warning: the heap model is a summary location (one per
//! allocation site under `--heap-sites`, a single `heap` otherwise), so
//! another live allocation can share the abstract location — and with
//! the single-summary model a self-assignment through fresh heap keeps
//! the summary "reachable". The check is therefore markedly more
//! precise under `--heap-sites`. Lowering temporaries (`_tN`,
//! dead by construction after their expression) do not count as
//! holders, or chained allocation statements would mask every loss.

use crate::{Check, Diagnostic, LintContext, Severity};
use pta_core::location::LocBase;
use pta_simple::{BasicStmt, Operand, VarKind, VarRef};

/// See the module docs.
pub struct HeapLeak;

impl Check for HeapLeak {
    fn id(&self) -> &'static str {
        "heap-leak"
    }

    fn description(&self) -> &'static str {
        "overwrite of the last pointer to heap storage"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        if cx.dataflow.is_none() {
            return; // degraded run: per-point facts too weak to accuse
        }
        for (fid, f) in cx.ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            let mut sites: Vec<(pta_simple::StmtId, &VarRef, Option<&Operand>)> = Vec::new();
            body.for_each_basic(&mut |b, id| match b {
                BasicStmt::Copy { lhs, rhs } => sites.push((id, lhs, Some(rhs))),
                BasicStmt::Alloc { lhs, .. } => sites.push((id, lhs, None)),
                _ => {}
            });
            for (stmt, lhs, rhs) in sites {
                if !cx.query.reached(stmt) {
                    continue;
                }
                let set = cx.query.at(stmt);
                let ls = cx.query.l_locations(fid, set, lhs);
                // Only strong overwrites lose the old value for sure.
                if ls.len() != 1
                    || ls[0].1 != pta_core::Def::D
                    || cx.result.locs.is_summary(ls[0].0)
                {
                    continue;
                }
                let l = ls[0].0;
                let old_heap: Vec<_> = set
                    .targets(l)
                    .filter(|(t, _)| cx.result.locs.is_heap(*t))
                    .map(|(t, _)| t)
                    .collect();
                if old_heap.is_empty() {
                    continue;
                }
                // What the slot holds afterwards still reaches these.
                let kept: Vec<_> = match rhs {
                    Some(op) => cx
                        .query
                        .operand_r_locations(fid, set, op)
                        .into_iter()
                        .map(|(t, _)| t)
                        .collect(),
                    None => Vec::new(), // fresh allocation: old targets lost
                };
                for t in old_heap {
                    if kept.contains(&t) {
                        continue;
                    }
                    // Any other holder — another local, a global, the
                    // caller's memory (symbolic), a return slot — keeps
                    // the storage reachable. Lowering temps don't count.
                    let held_elsewhere = set.iter().any(|(s, t2, _)| {
                        t2 == t
                            && s != l
                            && !matches!(&cx.result.locs.get(s).base,
                                LocBase::Var(g, v)
                                    if matches!(cx.ir.function(*g).var(*v).kind, VarKind::Temp))
                    });
                    if held_elsewhere {
                        continue;
                    }
                    out.push(Diagnostic {
                        check_id: self.id(),
                        severity: Severity::Warning,
                        fidelity: cx.fidelity,
                        function: f.name.clone(),
                        stmt: Some(stmt),
                        span: cx.query.span_of(stmt),
                        message: format!(
                            "overwriting `{}` in `{}` loses the last pointer to `{}` \
                             (possible leak)",
                            cx.result.locs.name(l),
                            f.name,
                            cx.result.locs.name(t)
                        ),
                    });
                }
            }
        }
    }
}
