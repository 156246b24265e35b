//! `null-deref`: dereferences whose pointer has NULL among its targets.
//!
//! The paper initializes every pointer to `(p, null, D)` (§6), so an
//! uninitialized pointer dereference shows up as a NULL-only target set
//! — a *definite* error. A pointer that is NULL on only some paths
//! keeps NULL as one possible target — a warning.

use crate::{Check, Diagnostic, LintContext, Severity};
use pta_core::stats::collect_indirect_refs;
use pta_simple::printer;

/// See the module docs.
pub struct NullDeref;

impl Check for NullDeref {
    fn id(&self) -> &'static str {
        "null-deref"
    }

    fn description(&self) -> &'static str {
        "dereference of a pointer that is NULL or uninitialized"
    }

    fn demand_roots(&self, ir: &pta_simple::IrProgram) -> Option<Vec<pta_core::QueryRoot>> {
        // The check reads facts exactly at the dereference sites it
        // walks below.
        Some(
            collect_indirect_refs(ir)
                .into_iter()
                .map(|occ| (occ.func, occ.stmt))
                .collect(),
        )
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for occ in collect_indirect_refs(cx.ir) {
            if !cx.query.reached(occ.stmt) {
                continue; // dead code: no facts, nothing to report
            }
            let set = cx.query.at(occ.stmt);
            let tgts = cx.query.deref_base_targets(occ.func, set, &occ.r);
            let any_null = tgts.iter().any(|(t, _)| cx.result.locs.is_null(*t));
            if !any_null {
                continue;
            }
            let only_null = tgts.iter().all(|(t, _)| cx.result.locs.is_null(*t));
            let f = cx.ir.function(occ.func);
            let txt = printer::ref_str(cx.ir, f, &occ.r);
            let (severity, why) = if only_null {
                (
                    Severity::Error,
                    "is NULL or uninitialized on every path to this point",
                )
            } else {
                (Severity::Warning, "may be NULL at this point")
            };
            out.push(Diagnostic {
                check_id: self.id(),
                severity,
                fidelity: cx.fidelity,
                function: f.name.clone(),
                stmt: Some(occ.stmt),
                span: cx.query.span_of(occ.stmt),
                message: format!(
                    "`{}` in `{}`: the dereferenced pointer {}",
                    txt, f.name, why
                ),
            });
        }
    }
}
