//! The unmap process (§4.1): translates the callee's output points-to
//! set back into the caller's name space at the call site.
//!
//! Symbolic names are replaced by the invisible variables they
//! represent (per the map information); globals translate to
//! themselves; relationships involving the callee's own variables are
//! dropped (their storage is dead after the return). Mapped caller
//! locations with a unique, non-summary name are *strongly* replaced by
//! the callee's facts; summaries and multi-representative invisibles
//! are updated weakly.

use crate::analysis::{Analyzer, EscapeEvent, EscapeVia};
use crate::invocation_graph::MapInfo;
use crate::location::{LocBase, LocId};
use crate::points_to_set::{Def, PtSet};
use crate::trace::TraceEvent;
use pta_cfront::ast::FuncId;
use pta_simple::CallSiteId;

impl<'p> Analyzer<'p> {
    /// Translates `callee_out` back to the caller, starting from the
    /// caller's `input` at the call site.
    pub(crate) fn unmap_process(
        &mut self,
        cs: CallSiteId,
        callee: FuncId,
        input: &PtSet,
        callee_out: &PtSet,
        sym_reps: &MapInfo,
        mapped_sources: &[LocId],
    ) -> PtSet {
        let t0 = self.tracer.now();
        let mut out = input.clone();
        // Invisible caller location → the symbolic name standing for it.
        let rev = &mut self.unmap_scratch;
        for (sym, reps) in sym_reps {
            for &r in reps {
                rev.insert(r, *sym);
            }
        }

        // Strong replacement for uniquely-named non-summary sources;
        // weak (demote) for the rest.
        for &l in mapped_sources {
            let unique = match rev.get(l) {
                Some(sym) => sym_reps.get(&sym).map_or(1, |r| r.len()) == 1,
                None => true, // visible location: named by itself
            };
            if unique && !self.locs.is_summary(l) {
                out.kill_from(l);
            } else {
                out.demote_from(l);
            }
        }
        rev.clear();

        for (s, t, d) in callee_out.iter() {
            let srcs = self.rtr(callee, s, sym_reps);
            if srcs.is_empty() {
                continue;
            }
            let tgts = self.rtr(callee, t, sym_reps);
            if tgts.is_empty() {
                if self.is_callee_local(callee, t) {
                    self.warn(format!(
                        "address of a local of `{}` escapes through its caller (dangling pointer dropped)",
                        self.ir.function(callee).name
                    ));
                    let local = self.locs.name(t).to_owned();
                    self.escape(EscapeEvent {
                        callee,
                        call_site: cs,
                        via: EscapeVia::Unmap,
                        local,
                        def: d,
                    });
                }
                continue;
            }
            let unique = srcs.len() == 1 && tgts.len() == 1;
            for &s2 in &srcs {
                for &t2 in &tgts {
                    let d2 = if d == Def::D && unique {
                        Def::D
                    } else {
                        Def::P
                    };
                    out.insert_weak(s2, t2, d2);
                }
            }
        }
        if let Some(t0) = t0 {
            let dur_us = t0.elapsed().as_micros() as u64;
            let callee_name = self.ir.function(callee).name.clone();
            let (callee_pairs, caller_pairs) = (callee_out.len(), out.len());
            self.tracer.emit(|| TraceEvent::Unmap {
                callee: callee_name,
                callee_pairs,
                caller_pairs,
                dur_us,
            });
        }
        out
    }

    /// Reverse-translates one callee location to caller locations.
    /// Returns an empty vector for locations scoped to the callee.
    pub(crate) fn rtr(&mut self, callee: FuncId, l: LocId, sym_reps: &MapInfo) -> Vec<LocId> {
        let d = self.locs.get(l).clone();
        match d.base {
            LocBase::Symbolic(f, _) if f == callee => {
                let Some(base) = self.locs.lookup(&d.base, &[]) else {
                    return Vec::new();
                };
                let Some(reps) = sym_reps.get(&base) else {
                    return Vec::new();
                };
                let mut out = Vec::new();
                for &rep in reps {
                    let mut cur = rep;
                    let mut ok = true;
                    for p in &d.projs {
                        match self.locs.project(cur, p.clone(), self.ir) {
                            Some(n) => cur = n,
                            None => {
                                ok = false;
                                break;
                            }
                        }
                    }
                    if ok && !out.contains(&cur) {
                        out.push(cur);
                    }
                }
                out
            }
            LocBase::Var(f, _) | LocBase::Ret(f) | LocBase::Symbolic(f, _) if f == callee => {
                Vec::new()
            }
            // Variables or symbols of some *other* function should never
            // appear in a callee's output; drop them defensively.
            LocBase::Var(..) | LocBase::Ret(_) | LocBase::Symbolic(..) => Vec::new(),
            _ => vec![l],
        }
    }

    pub(crate) fn is_callee_local(&self, callee: FuncId, l: LocId) -> bool {
        matches!(self.locs.get(l).base, LocBase::Var(f, _) if f == callee)
    }
}
