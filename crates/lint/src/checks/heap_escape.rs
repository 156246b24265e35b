//! `heap-escape`: heap storage about to become unreachable.
//!
//! At each `return` of a function, heap locations whose every holder is
//! one of the function's own (dying) locals are about to leak: nothing
//! that survives the frame — a global, the caller's memory (symbolic
//! invisible variables), or the returned value — can still reach them.
//! The heap model is a summary location, so this is always a *possible*
//! finding (a warning): two allocations share the abstract `heap`, and
//! one surviving reference keeps the summary alive.
//!
//! Reachability is computed over storage roots (location bases), so a
//! pointer stored in a field of a live struct keeps its target alive.

use crate::{Check, Diagnostic, LintContext, Severity};
use pta_core::location::LocBase;
use pta_simple::{BasicStmt, Operand, StmtId};
use std::collections::BTreeSet;

/// See the module docs.
pub struct HeapEscape;

/// True for the simplifier's generated temporaries (`_t1`, `_t2`, …).
fn is_simplifier_temp(name: &str) -> bool {
    name.strip_prefix("_t")
        .is_some_and(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

impl Check for HeapEscape {
    fn id(&self) -> &'static str {
        "heap-escape"
    }

    fn description(&self) -> &'static str {
        "heap reachable only from dead locals at scope exit"
    }

    fn run(&self, cx: &LintContext<'_>, out: &mut Vec<Diagnostic>) {
        for (fid, f) in cx.ir.defined_functions() {
            let Some(body) = &f.body else { continue };
            let mut returns: Vec<(StmtId, Option<Operand>)> = Vec::new();
            body.for_each_basic(&mut |b, id| {
                if let BasicStmt::Return(v) = b {
                    returns.push((id, v.clone()));
                }
            });
            for (stmt, ret) in returns {
                if !cx.query.reached(stmt) {
                    continue;
                }
                let set = cx.query.at(stmt);
                // Bases that survive the frame: globals, string storage,
                // the caller's memory behind symbolic names, and
                // whatever the return value hands back.
                let mut alive: BTreeSet<LocBase> = BTreeSet::new();
                for (s, t, _) in set.iter() {
                    for l in [s, t] {
                        if let b @ (LocBase::Global(_) | LocBase::StrLit | LocBase::Symbolic(..)) =
                            cx.result.locs.get(l).base.clone()
                        {
                            alive.insert(b);
                        }
                    }
                }
                if let Some(op) = &ret {
                    for (t, _) in cx.query.operand_r_locations(fid, set, op) {
                        alive.insert(cx.result.locs.get(t).base.clone());
                    }
                }
                // Pointers stored in surviving storage keep their
                // targets alive, transitively.
                loop {
                    let mut grew = false;
                    for (s, t, _) in set.iter() {
                        if alive.contains(&cx.result.locs.get(s).base) {
                            grew |= alive.insert(cx.result.locs.get(t).base.clone());
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                // Heap held only by this function's locals → leak.
                let mut holders: Vec<String> = Vec::new();
                for (s, t, _) in set.iter() {
                    if !cx.result.locs.is_heap(t) || alive.contains(&cx.result.locs.get(t).base) {
                        continue;
                    }
                    if matches!(cx.result.locs.get(s).base, LocBase::Var(g, _) if g == fid) {
                        let name = cx.result.locs.name(s).to_owned();
                        if !holders.contains(&name) {
                            holders.push(name);
                        }
                    }
                }
                if holders.is_empty() {
                    continue;
                }
                // Simplifier temporaries (`_tN`) also hold the heap
                // pointer but mean nothing to the user; hide them
                // whenever a user-named holder exists.
                let named: Vec<String> = holders
                    .iter()
                    .filter(|h| !is_simplifier_temp(h))
                    .cloned()
                    .collect();
                let holders = if named.is_empty() { holders } else { named };
                out.push(Diagnostic {
                    check_id: self.id(),
                    severity: Severity::Warning,
                    fidelity: cx.fidelity,
                    function: f.name.clone(),
                    stmt: Some(stmt),
                    span: cx.query.span_of(stmt),
                    message: format!(
                        "heap storage is reachable only from {} of `{}` when it returns \
                         (possible leak: {})",
                        if holders.len() == 1 {
                            "the dying local"
                        } else {
                            "the dying locals"
                        },
                        f.name,
                        holders.join(", ")
                    ),
                });
            }
        }
    }
}
