//! Abstract stack locations (§3.1 of the paper).
//!
//! Every real storage location that can participate in a points-to
//! relationship is represented by exactly one *named abstract stack
//! location* (Property 3.1): a named variable, a field path inside it,
//! an array head/tail element, a *symbolic name* (`1_x`, `2_x`, …) for an
//! invisible variable, the single `heap` location, the `null`
//! pseudo-location, string-literal storage, or a function (the target of
//! a function pointer).
//!
//! [`LocationTable`] is the per-program interner behind the analysis:
//! every location shape maps to a dense [`LocId`] exactly once, via an
//! FxHash-bucketed index (no structural tree comparisons on the hot
//! path), and each id carries a classification bitmask so predicates
//! like [`LocationTable::is_summary`] are a single flag test instead of
//! a match over the interned data.

use crate::dense::{FxHashMap, FxHasher};
use pta_cfront::ast::{FuncId, GlobalId};
use pta_cfront::types::Type;
use pta_simple::{IrProgram, IrVarId};
use std::fmt;
use std::hash::{Hash, Hasher};

/// An interned abstract stack location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LocId(pub u32);

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loc{}", self.0)
    }
}

/// One projection step inside a storage object.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Proj {
    /// A struct/union field.
    Field(String),
    /// The first element of an array (`a[0]` — `a_head` in the paper).
    Head,
    /// All other elements (`a[1..]` — `a_tail`; a *summary* location).
    Tail,
}

/// The root of an abstract location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LocBase {
    /// A global variable.
    Global(GlobalId),
    /// A parameter, local, or temporary of a function.
    Var(FuncId, IrVarId),
    /// A symbolic name for invisible variables, owned by a function.
    /// The `u32` indexes the function's symbolic-name registry.
    Symbolic(FuncId, u32),
    /// The single abstract heap location.
    Heap,
    /// An allocation-site-specific heap location (extension: enabled by
    /// `AnalysisConfig::heap_sites`; the paper uses the single `heap`).
    HeapSite(u32),
    /// The NULL pseudo-location (every pointer is initialized to it).
    Null,
    /// Storage of all string literals.
    StrLit,
    /// The code location of a function (target of function pointers).
    Function(FuncId),
    /// The return-value slot of a function (analysis-internal).
    Ret(FuncId),
}

/// The interned data of one location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocData {
    /// Root storage.
    pub base: LocBase,
    /// Projections from the root.
    pub projs: Vec<Proj>,
    /// The C type of this location (`None` for `heap`, `null`,
    /// string-literal storage, and functions, which are untyped
    /// summaries).
    pub ty: Option<Type>,
    /// Human-readable name (stable, used in reports and tests).
    pub name: String,
}

/// Metadata of a symbolic name (created by the map process).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolicData {
    /// The function whose scope the name lives in.
    pub func: FuncId,
    /// Indirection depth (the `1` of `1_x`).
    pub depth: u32,
    /// Printable name (`1_x`).
    pub name: String,
    /// The type of the invisible variables it stands for.
    pub ty: Option<Type>,
}

// Per-location classification flags, computed once at intern time.
const F_SUMMARY: u8 = 1 << 0;
const F_NULL: u8 = 1 << 1;
const F_FUNCTION: u8 = 1 << 2;
const F_HEAP: u8 = 1 << 3;
const F_SYMBOLIC: u8 = 1 << 4;

fn classify(base: &LocBase, projs: &[Proj]) -> u8 {
    let mut f = 0;
    match base {
        LocBase::Heap | LocBase::HeapSite(_) => f |= F_HEAP | F_SUMMARY,
        LocBase::StrLit => f |= F_SUMMARY,
        LocBase::Null => f |= F_NULL,
        LocBase::Function(_) => f |= F_FUNCTION,
        LocBase::Symbolic(..) => f |= F_SYMBOLIC,
        _ => {}
    }
    if projs.iter().any(|p| matches!(p, Proj::Tail)) {
        f |= F_SUMMARY;
    }
    f
}

fn key_hash(base: &LocBase, projs: &[Proj]) -> u64 {
    let mut h = FxHasher::default();
    base.hash(&mut h);
    projs.hash(&mut h);
    h.finish()
}

fn sym_hash(func: FuncId, name: &str) -> u64 {
    let mut h = FxHasher::default();
    func.hash(&mut h);
    name.hash(&mut h);
    h.finish()
}

/// Interning table for abstract locations.
///
/// Locations are created deterministically in analysis order, so ids are
/// stable for a given program and configuration. The index maps the
/// FxHash of `(base, projs)` to candidate ids (hand-rolled hash
/// buckets), so lookups never clone the key and hits cost one hash plus
/// a candidate comparison.
#[derive(Debug, Clone, Default)]
pub struct LocationTable {
    data: Vec<LocData>,
    flags: Vec<u8>,
    index: FxHashMap<u64, Vec<LocId>>,
    symbolics: Vec<SymbolicData>,
    sym_index: FxHashMap<u64, Vec<u32>>,
    /// Allocation-site heap locations in id order, appended by
    /// [`LocationTable::intern`] (so a reload through `intern` rebuilds it).
    heap_sites: Vec<LocId>,
}

/// Former name of [`LocationTable`], kept for downstream code.
pub type LocTable = LocationTable;

impl LocationTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned locations.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no location has been interned.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The data behind an id.
    pub fn get(&self, id: LocId) -> &LocData {
        &self.data[id.0 as usize]
    }

    /// The display name of a location.
    pub fn name(&self, id: LocId) -> &str {
        &self.data[id.0 as usize].name
    }

    /// Finds an already-interned location.
    pub fn lookup(&self, base: &LocBase, projs: &[Proj]) -> Option<LocId> {
        let candidates = self.index.get(&key_hash(base, projs))?;
        candidates.iter().copied().find(|&id| {
            let d = &self.data[id.0 as usize];
            d.base == *base && d.projs == projs
        })
    }

    /// Interns a location.
    pub fn intern(
        &mut self,
        base: LocBase,
        projs: Vec<Proj>,
        ty: Option<Type>,
        name: String,
    ) -> LocId {
        if let Some(id) = self.lookup(&base, &projs) {
            return id;
        }
        let id = LocId(self.data.len() as u32);
        self.index
            .entry(key_hash(&base, &projs))
            .or_default()
            .push(id);
        self.flags.push(classify(&base, &projs));
        if matches!(base, LocBase::HeapSite(_)) {
            self.heap_sites.push(id);
        }
        self.data.push(LocData {
            base,
            projs,
            ty,
            name,
        });
        id
    }

    /// Interns a projection-free root, building its type and name only
    /// on a miss: root constructors run per call and per statement, and
    /// a hit must not pay for a `String` or a `Type` clone.
    fn root(&mut self, base: LocBase, make: impl FnOnce() -> (Option<Type>, String)) -> LocId {
        if let Some(id) = self.lookup(&base, &[]) {
            return id;
        }
        let (ty, name) = make();
        self.intern(base, vec![], ty, name)
    }

    /// The `heap` location.
    pub fn heap(&mut self) -> LocId {
        self.root(LocBase::Heap, || (None, "heap".to_owned()))
    }

    /// An allocation-site heap location (extension).
    pub fn heap_site(&mut self, site: u32) -> LocId {
        self.root(LocBase::HeapSite(site), || (None, format!("heap@s{site}")))
    }

    /// Every allocation-site heap location interned so far, in id order.
    pub fn heap_sites(&self) -> &[LocId] {
        &self.heap_sites
    }

    /// The `null` pseudo-location.
    pub fn null(&mut self) -> LocId {
        self.root(LocBase::Null, || (None, "null".to_owned()))
    }

    /// The string-literal storage location.
    pub fn strlit(&mut self) -> LocId {
        self.root(LocBase::StrLit, || (None, "strlit".to_owned()))
    }

    /// The code location of function `f`.
    pub fn function(&mut self, ir: &IrProgram, f: FuncId) -> LocId {
        self.root(LocBase::Function(f), || (None, ir.function(f).name.clone()))
    }

    /// The return-value slot of function `f`.
    pub fn ret(&mut self, ir: &IrProgram, f: FuncId) -> LocId {
        self.root(LocBase::Ret(f), || {
            let func = ir.function(f);
            (Some(func.ret.clone()), format!("ret@{}", func.name))
        })
    }

    /// The location of a variable root.
    pub fn var(&mut self, ir: &IrProgram, func: FuncId, v: IrVarId) -> LocId {
        self.root(LocBase::Var(func, v), || {
            let data = ir.function(func).var(v);
            (Some(data.ty.clone()), data.name.clone())
        })
    }

    /// The location of a global root.
    pub fn global(&mut self, ir: &IrProgram, g: GlobalId) -> LocId {
        self.root(LocBase::Global(g), || {
            let data = ir.global(g);
            (Some(data.ty.clone()), data.name.clone())
        })
    }

    /// Projects a location by one step, computing the resulting type and
    /// name. Projections on `heap`/`strlit` collapse back to the summary
    /// location itself; projections on `null` or functions return `None`.
    pub fn project(&mut self, id: LocId, proj: Proj, ir: &IrProgram) -> Option<LocId> {
        let d = self.get(id).clone();
        match d.base {
            LocBase::Heap | LocBase::HeapSite(_) | LocBase::StrLit => return Some(id),
            LocBase::Null | LocBase::Function(_) => return None,
            _ => {}
        }
        let ty = d.ty.as_ref()?;
        let (new_ty, suffix) = match &proj {
            Proj::Field(f) => {
                let Type::Struct(sid) = ty else { return None };
                let def = ir.structs.def(*sid);
                let field = def.field(f)?;
                (field.ty.clone(), format!(".{f}"))
            }
            Proj::Head => {
                let elem = ty.elem()?;
                (elem.clone(), "[0]".to_owned())
            }
            Proj::Tail => {
                let elem = ty.elem()?;
                (elem.clone(), "[1..]".to_owned())
            }
        };
        let mut projs = d.projs.clone();
        projs.push(proj);
        let name = format!("{}{}", d.name, suffix);
        Some(self.intern(d.base, projs, Some(new_ty), name))
    }

    /// Creates (or returns) a symbolic name owned by `func`.
    pub fn symbolic(&mut self, func: FuncId, name: &str, depth: u32, ty: Option<Type>) -> LocId {
        let h = sym_hash(func, name);
        let found = self.sym_index.get(&h).and_then(|candidates| {
            candidates.iter().copied().find(|&i| {
                let s = &self.symbolics[i as usize];
                s.func == func && s.name == name
            })
        });
        let sym_idx = match found {
            Some(i) => i,
            None => {
                let i = self.symbolics.len() as u32;
                self.symbolics.push(SymbolicData {
                    func,
                    depth,
                    name: name.to_owned(),
                    ty: ty.clone(),
                });
                self.sym_index.entry(h).or_default().push(i);
                i
            }
        };
        self.intern(
            LocBase::Symbolic(func, sym_idx),
            vec![],
            ty,
            name.to_owned(),
        )
    }

    /// Metadata of a symbolic location's base (if it is one).
    pub fn symbolic_data(&self, id: LocId) -> Option<&SymbolicData> {
        match self.get(id).base {
            LocBase::Symbolic(_, i) => Some(&self.symbolics[i as usize]),
            _ => None,
        }
    }

    /// The type of a location, if known.
    pub fn ty(&self, id: LocId) -> Option<&Type> {
        self.get(id).ty.as_ref()
    }

    #[inline]
    fn flag(&self, id: LocId, f: u8) -> bool {
        self.flags[id.0 as usize] & f != 0
    }

    /// True if this abstract location may stand for more than one real
    /// location, so that strong updates (kills) through it are unsound:
    /// the `heap`, string-literal storage, and any array-tail element.
    pub fn is_summary(&self, id: LocId) -> bool {
        self.flag(id, F_SUMMARY)
    }

    /// True if the location is the `null` pseudo-location.
    pub fn is_null(&self, id: LocId) -> bool {
        self.flag(id, F_NULL)
    }

    /// True for function code locations.
    pub fn is_function(&self, id: LocId) -> bool {
        self.flag(id, F_FUNCTION)
    }

    /// The function id if this is a function code location.
    pub fn as_function(&self, id: LocId) -> Option<FuncId> {
        match self.get(id).base {
            LocBase::Function(f) => Some(f),
            _ => None,
        }
    }

    /// True for heap locations (the summary `heap` or any
    /// allocation-site location).
    pub fn is_heap(&self, id: LocId) -> bool {
        self.flag(id, F_HEAP)
    }

    /// True if the location lives in the scope of `func` (its variables
    /// and symbolic names) — i.e. it disappears when `func` returns.
    pub fn is_scoped_to(&self, id: LocId, func: FuncId) -> bool {
        match self.get(id).base {
            LocBase::Var(f, _) | LocBase::Symbolic(f, _) | LocBase::Ret(f) => f == func,
            _ => false,
        }
    }

    /// True for symbolic locations (at any projection depth).
    pub fn is_symbolic(&self, id: LocId) -> bool {
        self.flag(id, F_SYMBOLIC)
    }

    /// Iterates over all interned ids.
    pub fn ids(&self) -> impl Iterator<Item = LocId> {
        (0..self.data.len() as u32).map(LocId)
    }

    /// The symbolic-name registry in creation order (persisted by the
    /// store so [`LocBase::Symbolic`] indices survive a reload).
    pub fn symbolic_entries(&self) -> &[SymbolicData] {
        &self.symbolics
    }

    /// Re-registers a symbolic name during a snapshot reload, *without*
    /// interning a location for it (the location rows are replayed
    /// separately, in id order). Must be called in the registry's
    /// original creation order. Returns the registry index.
    pub fn restore_symbolic(
        &mut self,
        func: FuncId,
        name: &str,
        depth: u32,
        ty: Option<Type>,
    ) -> u32 {
        let h = sym_hash(func, name);
        let i = self.symbolics.len() as u32;
        self.symbolics.push(SymbolicData {
            func,
            depth,
            name: name.to_owned(),
            ty,
        });
        self.sym_index.entry(h).or_default().push(i);
        i
    }

    /// Recomputes the types and names of variable-rooted rows belonging
    /// to `funcs` against a (possibly edited) program.
    ///
    /// A preloaded table keys rows by `(base, projs)` only, so rows of a
    /// *dirty* function would otherwise keep the types and names of the
    /// old source — and location types steer the analysis (pointer-leaf
    /// enumeration). Rows whose variable no longer exists, or whose
    /// projection path no longer type-checks, keep their old data: the
    /// new code can never look such a row up, because resolving the same
    /// path against the new program fails first.
    ///
    /// Rows rooted elsewhere need no refresh: globals and struct layouts
    /// are skeleton-fixed, `Ret` types are signature-fixed, and symbolic
    /// types derive from signatures and globals.
    pub fn refresh_for(&mut self, ir: &IrProgram, funcs: &std::collections::BTreeSet<FuncId>) {
        for i in 0..self.data.len() {
            let LocBase::Var(f, v) = self.data[i].base else {
                continue;
            };
            if !funcs.contains(&f) {
                continue;
            }
            let function = ir.function(f);
            let Some(var) = function.vars.get(v.0 as usize) else {
                continue;
            };
            let mut ty = var.ty.clone();
            let mut name = var.name.clone();
            let mut ok = true;
            for p in &self.data[i].projs {
                match p {
                    Proj::Field(fname) => {
                        let Type::Struct(sid) = ty else {
                            ok = false;
                            break;
                        };
                        let Some(field) = ir.structs.def(sid).field(fname) else {
                            ok = false;
                            break;
                        };
                        ty = field.ty.clone();
                        name.push('.');
                        name.push_str(fname);
                    }
                    Proj::Head => {
                        let Some(elem) = ty.elem() else {
                            ok = false;
                            break;
                        };
                        ty = elem.clone();
                        name.push_str("[0]");
                    }
                    Proj::Tail => {
                        let Some(elem) = ty.elem() else {
                            ok = false;
                            break;
                        };
                        ty = elem.clone();
                        name.push_str("[1..]");
                    }
                }
            }
            if ok {
                self.data[i].ty = Some(ty);
                self.data[i].name = name;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ir() -> IrProgram {
        pta_simple::compile(
            "struct s { int *p; int a[4]; };
             struct s gs;
             int arr[8];
             int f1(void) { return 1; }
             int main(void) { int x; int *q; q = &x; return f1(); }",
        )
        .expect("compile ok")
    }

    #[test]
    fn intern_is_idempotent() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let a = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let b = t.global(&ir, pta_cfront::ast::GlobalId(0));
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn project_fields_and_arrays() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let gs = t.global(&ir, pta_cfront::ast::GlobalId(0));
        let p = t.project(gs, Proj::Field("p".into()), &ir).unwrap();
        assert_eq!(t.name(p), "gs.p");
        assert_eq!(t.ty(p), Some(&pta_cfront::types::Type::Int.ptr_to()));
        let a = t.project(gs, Proj::Field("a".into()), &ir).unwrap();
        let head = t.project(a, Proj::Head, &ir).unwrap();
        let tail = t.project(a, Proj::Tail, &ir).unwrap();
        assert_eq!(t.name(head), "gs.a[0]");
        assert_eq!(t.name(tail), "gs.a[1..]");
        assert!(!t.is_summary(head));
        assert!(t.is_summary(tail));
    }

    #[test]
    fn bad_projections_return_none() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let gs = t.global(&ir, pta_cfront::ast::GlobalId(0));
        assert!(t.project(gs, Proj::Field("zzz".into()), &ir).is_none());
        assert!(t.project(gs, Proj::Head, &ir).is_none());
        let null = t.null();
        assert!(t.project(null, Proj::Head, &ir).is_none());
    }

    #[test]
    fn heap_projections_collapse() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let h = t.heap();
        assert_eq!(t.project(h, Proj::Field("p".into()), &ir), Some(h));
        assert_eq!(t.project(h, Proj::Tail, &ir), Some(h));
        assert!(t.is_summary(h));
    }

    #[test]
    fn symbolic_names_are_per_function() {
        let ir = tiny_ir();
        let mut t = LocationTable::new();
        let (main_id, _) = ir.function_by_name("main").unwrap();
        let (f1_id, _) = ir.function_by_name("f1").unwrap();
        let s1 = t.symbolic(main_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        let s2 = t.symbolic(main_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        let s3 = t.symbolic(f1_id, "1_x", 1, Some(pta_cfront::types::Type::Int));
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(t.symbolic_data(s1).unwrap().depth, 1);
        assert!(t.is_symbolic(s1));
    }

    #[test]
    fn scoping_and_classification() {
        let ir = tiny_ir();
        // The old name still works through the alias.
        let mut t = LocTable::new();
        let (main_id, _) = ir.function_by_name("main").unwrap();
        let (f1_id, _) = ir.function_by_name("f1").unwrap();
        let x = t.var(&ir, main_id, pta_simple::IrVarId(0));
        assert!(t.is_scoped_to(x, main_id));
        assert!(!t.is_scoped_to(x, f1_id));
        let fl = t.function(&ir, f1_id);
        assert!(t.is_function(fl));
        assert_eq!(t.as_function(fl), Some(f1_id));
        let n = t.null();
        assert!(t.is_null(n));
        assert!(!t.is_summary(n));
    }
}
