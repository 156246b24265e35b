//! Steensgaard-style flow-insensitive, unification-based points-to
//! analysis.
//!
//! Equality constraints over a union-find of storage classes: each class
//! has at most one pointee class, and assignments unify. Near-linear,
//! but much coarser than both Andersen and the paper's analysis —
//! field-insensitive (projections collapse to the root variable).

use crate::analysis::AnalysisError;
use crate::location::{LocId, LocationTable};
use pta_cfront::ast::FuncId;
use pta_cfront::builtins::{extern_effect, ExternEffect};
use pta_simple::{BasicStmt, CallTarget, IrProgram, Operand, VarBase, VarRef};
use std::collections::BTreeMap;

/// Result of the Steensgaard-style baseline.
#[derive(Debug)]
pub struct SteensgaardResult {
    /// Locations created (root variables only — field-insensitive).
    pub locs: LocationTable,
    uf: UnionFind,
    pts: BTreeMap<u32, u32>,
}

impl SteensgaardResult {
    /// All locations in the pointee class of `src` (its points-to set).
    pub fn targets(&self, src: LocId) -> Vec<LocId> {
        let c = self.uf.find_const(src.0);
        let Some(p) = self.pts.get(&c) else {
            return Vec::new();
        };
        let p = self.uf.find_const(*p);
        let mut out: Vec<LocId> = (0..self.uf.len() as u32)
            .filter(|i| self.uf.find_const(*i) == p)
            .map(LocId)
            .collect();
        out.retain(|l| !self.locs.is_null(*l));
        out
    }

    /// Target names of a location, sorted.
    pub fn target_names(&self, src: LocId) -> Vec<String> {
        let mut v: Vec<String> = self
            .targets(src)
            .into_iter()
            .map(|t| self.locs.name(t).to_owned())
            .collect();
        v.sort();
        v
    }

    /// Number of distinct storage classes.
    pub fn class_count(&self) -> usize {
        (0..self.uf.len() as u32)
            .filter(|i| self.uf.find_const(*i) == *i)
            .count()
    }
}

#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new() -> Self {
        UnionFind { parent: Vec::new() }
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    fn ensure(&mut self, i: u32) {
        while self.parent.len() <= i as usize {
            self.parent.push(self.parent.len() as u32);
        }
    }

    fn find(&mut self, i: u32) -> u32 {
        self.ensure(i);
        let mut root = i;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = i;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn find_const(&self, i: u32) -> u32 {
        if i as usize >= self.parent.len() {
            return i;
        }
        let mut root = i;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> u32 {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb as usize] = ra;
        }
        ra
    }
}

struct Solver<'p> {
    ir: &'p IrProgram,
    locs: LocationTable,
    uf: UnionFind,
    pts: BTreeMap<u32, u32>,
}

/// Runs the Steensgaard-style baseline.
///
/// # Errors
///
/// Currently infallible in practice; signature kept parallel to the
/// other engines.
pub fn steensgaard(ir: &IrProgram) -> Result<SteensgaardResult, AnalysisError> {
    steensgaard_budgeted(ir, None)
}

/// [`steensgaard`] with an optional wall-clock deadline, checked once
/// per function pass. The last rung of the degradation ladder still
/// must not hang.
///
/// # Errors
///
/// Returns [`AnalysisError::Deadline`] on expiry.
pub fn steensgaard_budgeted(
    ir: &IrProgram,
    deadline: Option<std::time::Duration>,
) -> Result<SteensgaardResult, AnalysisError> {
    let budget = crate::budget::Budget::new(u64::MAX, deadline, usize::MAX, u32::MAX);
    let expired = |f: FuncId| AnalysisError::Deadline {
        limit: deadline.unwrap_or_default(),
        at: crate::baseline::baseline_trip("steensgaard", ir, Some(f)),
    };
    let mut e = Solver {
        ir,
        locs: LocationTable::new(),
        uf: UnionFind::new(),
        pts: BTreeMap::new(),
    };
    e.locs.null();
    e.locs.heap();
    e.locs.strlit();
    for (fid, f) in ir.functions.iter().enumerate() {
        let func = FuncId(fid as u32);
        let Some(body) = &f.body else { continue };
        if budget.check_deadline().is_err() {
            return Err(expired(func));
        }
        body.for_each_basic(&mut |b, _| e.stmt(func, b));
    }
    // Resolve indirect calls against the (now complete) unification and
    // process them once more (one extra pass is enough in practice for
    // this baseline; exactness is not the goal).
    for (fid, f) in ir.functions.iter().enumerate() {
        let func = FuncId(fid as u32);
        let Some(body) = &f.body else { continue };
        if budget.check_deadline().is_err() {
            return Err(expired(func));
        }
        body.for_each_basic(&mut |b, _| {
            if let BasicStmt::Call {
                lhs,
                target: CallTarget::Indirect(r),
                args,
                ..
            } = b
            {
                let fp = e.base_loc(func, r);
                let targets: Vec<FuncId> = match fp {
                    Some(fp) => {
                        let res = SteensgaardResultView { e: &e };
                        res.targets(fp)
                            .into_iter()
                            .filter_map(|t| e.locs.as_function(t))
                            .collect()
                    }
                    None => Vec::new(),
                };
                for callee in targets {
                    e.call(func, callee, lhs.as_ref(), args);
                }
            }
        });
    }
    Ok(SteensgaardResult {
        locs: e.locs,
        uf: e.uf,
        pts: e.pts,
    })
}

struct SteensgaardResultView<'a, 'p> {
    e: &'a Solver<'p>,
}

impl SteensgaardResultView<'_, '_> {
    fn targets(&self, src: LocId) -> Vec<LocId> {
        let c = self.e.uf.find_const(src.0);
        let Some(p) = self.e.pts.get(&c) else {
            return Vec::new();
        };
        let p = self.e.uf.find_const(*p);
        (0..self.e.uf.len() as u32)
            .filter(|i| self.e.uf.find_const(*i) == p)
            .map(LocId)
            .collect()
    }
}

impl<'p> Solver<'p> {
    /// Field-insensitive: the root variable location of a path.
    fn base_loc(&mut self, func: FuncId, r: &VarRef) -> Option<LocId> {
        let path = match r {
            VarRef::Path(p) => p,
            VarRef::Deref { path, .. } => path,
        };
        Some(match path.base {
            VarBase::Global(g) => self.locs.global(self.ir, g),
            VarBase::Var(v) => self.locs.var(self.ir, func, v),
        })
    }

    fn deref_count(r: &VarRef) -> usize {
        match r {
            VarRef::Path(_) => 0,
            VarRef::Deref { .. } => 1,
        }
    }

    /// The pointee class of `c`, created on demand.
    fn pointee(&mut self, c: u32) -> u32 {
        let c = self.uf.find(c);
        if let Some(p) = self.pts.get(&c) {
            return self.uf.find(*p);
        }
        // Fresh bottom class: a synthetic location.
        let fresh = self.locs.symbolic(
            FuncId(u32::MAX),
            &format!("$steens{}", self.locs.len()),
            0,
            None,
        );
        self.uf.ensure(fresh.0);
        self.pts.insert(c, fresh.0);
        self.uf.find(fresh.0)
    }

    /// Unifies two classes and (recursively) their pointees.
    fn join(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.uf.find(a), self.uf.find(b));
        if ra == rb {
            return;
        }
        let pa = self.pts.get(&ra).copied();
        let pb = self.pts.get(&rb).copied();
        let r = self.uf.union(ra, rb);
        match (pa, pb) {
            (Some(x), Some(y)) => {
                self.pts.insert(r, x);
                self.join(x, y);
            }
            (Some(x), None) | (None, Some(x)) => {
                self.pts.insert(r, x);
            }
            (None, None) => {}
        }
    }

    /// Class of the *value* of a reference (applying its dereferences).
    fn value_class(&mut self, func: FuncId, r: &VarRef) -> Option<u32> {
        let base = self.base_loc(func, r)?;
        self.uf.ensure(base.0);
        let mut c = self.uf.find(base.0);
        for _ in 0..Self::deref_count(r) {
            c = self.pointee(c);
        }
        Some(self.pointee(c)) // value of a pointer = its pointee class
    }

    /// Class holding the operand's pointer value (pointee class).
    fn operand_class(&mut self, func: FuncId, op: &Operand) -> Option<u32> {
        match op {
            Operand::Ref(r) => self.value_class(func, r),
            Operand::AddrOf(r) => {
                let base = self.base_loc(func, r)?;
                self.uf.ensure(base.0);
                let mut c = self.uf.find(base.0);
                for _ in 0..Self::deref_count(r) {
                    c = self.pointee(c);
                }
                Some(c)
            }
            Operand::Func(f) => {
                let l = self.locs.function(self.ir, *f);
                self.uf.ensure(l.0);
                Some(self.uf.find(l.0))
            }
            Operand::Str(_) => {
                let l = self.locs.strlit();
                self.uf.ensure(l.0);
                Some(self.uf.find(l.0))
            }
            Operand::Const(_) => None,
        }
    }

    /// `lhs = <class>`: unify the lhs's pointee class with `rhs_class`.
    fn bind(&mut self, func: FuncId, lhs: &VarRef, rhs_class: u32) {
        let Some(base) = self.base_loc(func, lhs) else {
            return;
        };
        self.uf.ensure(base.0);
        let mut c = self.uf.find(base.0);
        for _ in 0..Self::deref_count(lhs) {
            c = self.pointee(c);
        }
        let p = self.pointee(c);
        self.join(p, rhs_class);
    }

    fn stmt(&mut self, func: FuncId, b: &BasicStmt) {
        match b {
            BasicStmt::Copy { lhs, rhs } => {
                if let Some(rc) = self.operand_class(func, rhs) {
                    self.bind(func, lhs, rc);
                }
            }
            BasicStmt::PtrArith { lhs, ptr, .. } => {
                if let Some(rc) = self.value_class(func, &ptr.clone()) {
                    self.bind(func, lhs, rc);
                }
            }
            BasicStmt::Alloc { lhs, .. } => {
                let heap = self.locs.heap();
                self.uf.ensure(heap.0);
                let hc = self.uf.find(heap.0);
                self.bind(func, lhs, hc);
            }
            BasicStmt::Call {
                lhs,
                target: CallTarget::Direct(callee),
                args,
                ..
            } => {
                self.call(func, *callee, lhs.as_ref(), args);
            }
            // Indirect calls are handled in the second pass.
            BasicStmt::Call { .. } => {}
            BasicStmt::Return(Some(v))
                if self
                    .ir
                    .function(func)
                    .ret
                    .carries_pointers(&self.ir.structs) =>
            {
                let ret = self.locs.ret(self.ir, func);
                self.uf.ensure(ret.0);
                if let Some(vc) = self.operand_class(func, v) {
                    let rp = {
                        let c = self.uf.find(ret.0);
                        self.pointee(c)
                    };
                    self.join(rp, vc);
                }
            }
            _ => {}
        }
    }

    fn call(&mut self, func: FuncId, callee: FuncId, lhs: Option<&VarRef>, args: &[Operand]) {
        if !self.ir.function(callee).is_defined() {
            if let Some(ExternEffect::ReturnsHeap) = extern_effect(&self.ir.function(callee).name) {
                if let Some(lhs) = lhs {
                    let heap = self.locs.heap();
                    self.uf.ensure(heap.0);
                    let hc = self.uf.find(heap.0);
                    self.bind(func, lhs, hc);
                }
            }
            return;
        }
        let n = self.ir.function(callee).n_params;
        for (i, arg) in args.iter().enumerate().take(n) {
            let formal = self
                .locs
                .var(self.ir, callee, pta_simple::IrVarId(i as u32));
            self.uf.ensure(formal.0);
            if let Some(ac) = self.operand_class(func, &arg.clone()) {
                let fc = self.uf.find(formal.0);
                let fp = self.pointee(fc);
                self.join(fp, ac);
            }
        }
        if let Some(lhs) = lhs {
            if self
                .ir
                .function(callee)
                .ret
                .carries_pointers(&self.ir.structs)
            {
                let ret = self.locs.ret(self.ir, callee);
                self.uf.ensure(ret.0);
                let rc = self.uf.find(ret.0);
                let rp = self.pointee(rc);
                self.bind(func, lhs, rp);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> (IrProgram, SteensgaardResult) {
        let ir = pta_simple::compile(src).expect("compile ok");
        let r = steensgaard(&ir).expect("steensgaard ok");
        (ir, r)
    }

    fn targets(ir: &IrProgram, r: &SteensgaardResult, func: &str, var: &str) -> Vec<String> {
        let (fid, f) = ir.function_by_name(func).unwrap();
        let vi = f.vars.iter().position(|v| v.name == var);
        let src = match vi {
            Some(vi) => r.locs.lookup(
                &crate::location::LocBase::Var(fid, pta_simple::IrVarId(vi as u32)),
                &[],
            ),
            None => {
                let gi = ir.globals.iter().position(|g| g.name == var).unwrap();
                r.locs.lookup(
                    &crate::location::LocBase::Global(pta_cfront::ast::GlobalId(gi as u32)),
                    &[],
                )
            }
        };
        match src {
            Some(s) => {
                let mut names = r.target_names(s);
                names.retain(|n| !n.starts_with("$steens"));
                names
            }
            None => vec![],
        }
    }

    #[test]
    fn unification_merges_assigned_targets() {
        let (ir, r) = run("int x, y; int main(void){ int *p; p = &x; p = &y; return 0; }");
        // x and y end up in the same class → both are targets.
        let t = targets(&ir, &r, "main", "p");
        assert!(t.contains(&"x".to_string()), "got {t:?}");
        assert!(t.contains(&"y".to_string()), "got {t:?}");
    }

    #[test]
    fn unification_is_coarser_than_andersen() {
        // q = &x; p = q; p = &y — Steensgaard unifies pts(p) and pts(q),
        // so q also "points to" y; Andersen would keep q at {x}.
        let (ir, r) =
            run("int x, y; int main(void){ int *p; int *q; q = &x; p = q; p = &y; return 0; }");
        let tq = targets(&ir, &r, "main", "q");
        assert!(tq.contains(&"x".to_string()), "got {tq:?}");
        assert!(tq.contains(&"y".to_string()), "got {tq:?}");
    }

    #[test]
    fn interprocedural_unification() {
        let (ir, r) = run("int x;
             void set(int **p, int *v) { *p = v; }
             int main(void){ int *a; set(&a, &x); return 0; }");
        let ta = targets(&ir, &r, "main", "a");
        assert!(ta.contains(&"x".to_string()), "got {ta:?}");
    }

    #[test]
    fn class_count_is_finite_and_positive() {
        let (_, r) = run("int x; int main(void){ int *p; p = &x; return 0; }");
        assert!(r.class_count() > 0);
    }
}
