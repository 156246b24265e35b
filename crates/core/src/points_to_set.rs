//! Points-to sets: the analysis abstraction of §3 of the paper.
//!
//! A points-to set is a set of triples `(x, y, D|P)`: abstract stack
//! location `x` *definitely* or *possibly* contains the address of `y`
//! (Definitions 3.1/3.2).
//!
//! # Representation
//!
//! Triples are packed into single `u64` words — source id in the high
//! 32 bits, target id in bits 1..32, the definiteness in bit 0 (set
//! for `D`) — and kept in one sorted flat array. Sorting by the word
//! is sorting by `(source, target)`, so set operations (merge, subset,
//! equality) are linear merge-joins over machine words, lookups are a
//! binary search, and per-source ranges (`targets`, `kill_from`) are
//! contiguous slices. Demoting `D → P` clears bit 0, which cannot
//! reorder the array because pair keys are unique. Sets of up to six
//! triples — the overwhelming majority of per-variable sets — live
//! inline without a heap allocation.
//!
//! A larger array is shared copy-on-write: cloning a set (recording it
//! at a program point, handing it to a branch or a call target) bumps
//! a reference count. The first edit that changes a shared array
//! builds the new one in a single pass; an edit that changes nothing
//! (re-inserting a pair, demoting `P` triples) leaves it shared, and an
//! array held by one set is edited in place.

use crate::location::LocId;
use std::fmt;
use std::sync::Arc;

/// Definiteness of a points-to relationship.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Def {
    /// Holds on every execution path, and both endpoints name exactly
    /// one real location.
    D,
    /// May hold on some execution path.
    P,
}

impl Def {
    /// `D ∧ D = D`, anything else `P` (used when composing hops and when
    /// merging control-flow branches).
    pub fn and(self, other: Def) -> Def {
        if self == Def::D && other == Def::D {
            Def::D
        } else {
            Def::P
        }
    }
}

impl fmt::Display for Def {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Def::D => write!(f, "D"),
            Def::P => write!(f, "P"),
        }
    }
}

/// Bit 0 of a packed triple: set for `D`, clear for `P`.
const D_BIT: u64 = 1;
/// Mask selecting the `(source, target)` pair key of a packed triple.
const KEY_MASK: u64 = !D_BIT;

#[inline]
fn pack(src: LocId, tgt: LocId, d: Def) -> u64 {
    debug_assert!(tgt.0 < 1 << 31, "LocId overflows the packed target field");
    key(src, tgt) | (d == Def::D) as u64
}

#[inline]
fn key(src: LocId, tgt: LocId) -> u64 {
    ((src.0 as u64) << 32) | ((tgt.0 as u64) << 1)
}

#[inline]
fn unpack_src(e: u64) -> LocId {
    LocId((e >> 32) as u32)
}

#[inline]
fn unpack_tgt(e: u64) -> LocId {
    LocId(((e >> 1) & 0x7FFF_FFFF) as u32)
}

#[inline]
fn unpack_def(e: u64) -> Def {
    if e & D_BIT != 0 {
        Def::D
    } else {
        Def::P
    }
}

/// Triples held inline before the set spills to the heap.
const INLINE: usize = 6;

/// Storage of the packed triples: a small inline buffer or a spilled
/// array shared copy-on-write between sets. Invariant: the occupied
/// prefix is sorted and pair keys are unique.
#[derive(Clone)]
enum Rep {
    Inline { len: u8, buf: [u64; INLINE] },
    Spilled(Arc<Vec<u64>>),
}

impl Rep {
    const EMPTY: Rep = Rep::Inline {
        len: 0,
        buf: [0; INLINE],
    };

    #[inline]
    fn as_slice(&self) -> &[u64] {
        match self {
            Rep::Inline { len, buf } => &buf[..*len as usize],
            Rep::Spilled(v) => v,
        }
    }

    /// The words for an in-place edit of definiteness bits, unsharing
    /// a shared array with one copy. Call it only for an edit that
    /// changes something.
    #[inline]
    fn words_mut(&mut self) -> &mut [u64] {
        match self {
            Rep::Inline { len, buf } => &mut buf[..*len as usize],
            Rep::Spilled(v) => Arc::make_mut(v).as_mut_slice(),
        }
    }

    /// True if both hold the same spilled array.
    #[inline]
    fn same_array(&self, other: &Rep) -> bool {
        matches!((self, other), (Rep::Spilled(a), Rep::Spilled(b)) if Arc::ptr_eq(a, b))
    }

    /// Replaces the words in `range` with `with` (at most one word). An
    /// owned array is edited in place; a shared one is rebuilt in one
    /// pass from the parts that survive.
    fn splice(&mut self, range: std::ops::Range<usize>, with: Option<u64>) {
        match self {
            Rep::Inline { len, buf } => {
                let n = *len as usize;
                let m = n - range.len() + with.is_some() as usize;
                if m > INLINE {
                    let mut v = Vec::with_capacity(n * 2);
                    v.extend_from_slice(&buf[..range.start]);
                    v.extend(with);
                    v.extend_from_slice(&buf[range.end..n]);
                    *self = Rep::Spilled(Arc::new(v));
                    return;
                }
                let tail = range.start + with.is_some() as usize;
                buf.copy_within(range.end..n, tail);
                if let Some(e) = with {
                    buf[range.start] = e;
                }
                *len = m as u8;
            }
            Rep::Spilled(v) => match Arc::get_mut(v) {
                Some(v) => {
                    v.drain(range.clone());
                    if let Some(e) = with {
                        v.insert(range.start, e);
                    }
                }
                None => {
                    // Keep the old length as capacity: a kill is most
                    // often followed by inserts for the same source.
                    let mut out = Vec::with_capacity(v.len() + with.is_some() as usize);
                    out.extend_from_slice(&v[..range.start]);
                    out.extend(with);
                    out.extend_from_slice(&v[range.end..]);
                    *self = Rep::from_sorted(out);
                }
            },
        }
    }

    fn from_sorted(v: Vec<u64>) -> Self {
        if v.len() <= INLINE {
            let mut buf = [0u64; INLINE];
            buf[..v.len()].copy_from_slice(&v);
            Rep::Inline {
                len: v.len() as u8,
                buf,
            }
        } else {
            Rep::Spilled(Arc::new(v))
        }
    }
}

/// The end of the run of words in `s` that starts at `from` and whose
/// keys lie below `k`; `s[from]` is known to be below. Searches
/// exponentially, then by bisection, so the cost is logarithmic in the
/// run's length.
#[inline]
fn run_end(s: &[u64], from: usize, k: u64) -> usize {
    let below = |e: &u64| (e & KEY_MASK) < k;
    let (mut lo, mut step) = (from, 1);
    let mut hi = from + 1;
    while hi < s.len() && below(&s[hi]) {
        lo = hi;
        step *= 2;
        hi = from + step;
    }
    let hi = hi.min(s.len());
    lo + 1 + s[lo + 1..hi].partition_point(below)
}

/// Appends `run` to `out` with every triple demoted to `P`.
#[inline]
fn extend_demoted(out: &mut Vec<u64>, run: &[u64]) {
    out.extend(run.iter().map(|e| e & KEY_MASK));
}

/// A set of points-to triples over interned locations, stored as one
/// sorted array of packed `u64` words (see the module docs).
#[derive(Clone)]
pub struct PtSet {
    rep: Rep,
}

impl Default for PtSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for PtSet {
    fn eq(&self, other: &Self) -> bool {
        self.rep.same_array(&other.rep) || self.rep.as_slice() == other.rep.as_slice()
    }
}

impl Eq for PtSet {}

impl fmt::Debug for PtSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|(s, t, d)| (s.0, t.0, d)))
            .finish()
    }
}

impl PtSet {
    /// An empty set.
    pub const fn new() -> Self {
        PtSet { rep: Rep::EMPTY }
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.rep.as_slice().len()
    }

    /// True if there are no triples.
    pub fn is_empty(&self) -> bool {
        self.rep.as_slice().is_empty()
    }

    /// A content fingerprint (FNV-1a over the packed words). Equal sets
    /// hash equal; used by the trace layer as a compact input-context
    /// id for memo hit/miss events and by the store to match warm
    /// context pairs.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::fingerprint::Fnv1a::new();
        for &w in self.rep.as_slice() {
            h.write_u64(w);
        }
        h.finish()
    }

    /// Index of the pair `(src, tgt)` if present, else its insertion
    /// point.
    #[inline]
    fn pair_index(&self, src: LocId, tgt: LocId) -> Result<usize, usize> {
        let k = key(src, tgt);
        let s = self.rep.as_slice();
        let i = s.partition_point(|&e| (e & KEY_MASK) < k);
        if s.get(i).is_some_and(|&e| e & KEY_MASK == k) {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// The contiguous index range of triples whose source is `src`.
    #[inline]
    fn source_range(&self, src: LocId) -> std::ops::Range<usize> {
        let s = self.rep.as_slice();
        let lo = (src.0 as u64) << 32;
        let hi = ((src.0 as u64) + 1) << 32;
        s.partition_point(|&e| e < lo)..s.partition_point(|&e| e < hi)
    }

    /// The definiteness of `(src, tgt)` if present.
    pub fn get(&self, src: LocId, tgt: LocId) -> Option<Def> {
        self.pair_index(src, tgt)
            .ok()
            .map(|i| unpack_def(self.rep.as_slice()[i]))
    }

    /// True if the triple `(src, tgt, d)` with any definiteness exists.
    pub fn contains(&self, src: LocId, tgt: LocId) -> bool {
        self.pair_index(src, tgt).is_ok()
    }

    /// The targets of `src` with their definiteness.
    pub fn targets(&self, src: LocId) -> impl Iterator<Item = (LocId, Def)> + '_ {
        let r = self.source_range(src);
        self.rep.as_slice()[r]
            .iter()
            .map(|&e| (unpack_tgt(e), unpack_def(e)))
    }

    /// Number of targets of `src`.
    pub fn target_count(&self, src: LocId) -> usize {
        self.source_range(src).len()
    }

    /// Inserts a triple. If the pair already exists, `D` wins: an
    /// insertion is a *generated* fact at the current point, which can
    /// only sharpen what survived kill/change processing.
    pub fn insert(&mut self, src: LocId, tgt: LocId, d: Def) {
        match self.pair_index(src, tgt) {
            Ok(i) => {
                if d == Def::D && self.rep.as_slice()[i] & D_BIT == 0 {
                    self.rep.words_mut()[i] |= D_BIT;
                }
            }
            Err(i) => self.rep.splice(i..i, Some(pack(src, tgt, d))),
        }
    }

    /// Inserts a triple, weakening to `P` if the pair already exists with
    /// a different definiteness (used when accumulating from multiple
    /// contexts).
    pub fn insert_weak(&mut self, src: LocId, tgt: LocId, d: Def) {
        match self.pair_index(src, tgt) {
            Ok(i) => {
                if unpack_def(self.rep.as_slice()[i]) != d {
                    self.rep.words_mut()[i] &= KEY_MASK;
                }
            }
            Err(i) => self.rep.splice(i..i, Some(pack(src, tgt, d))),
        }
    }

    /// Removes every triple whose source is `src` ("kill").
    pub fn kill_from(&mut self, src: LocId) {
        let r = self.source_range(src);
        if !r.is_empty() {
            self.rep.splice(r, None);
        }
    }

    /// Demotes every triple from `src` to `P` ("change").
    pub fn demote_from(&mut self, src: LocId) {
        let r = self.source_range(src);
        if self.rep.as_slice()[r.clone()]
            .iter()
            .any(|e| e & D_BIT != 0)
        {
            for e in &mut self.rep.words_mut()[r] {
                *e &= KEY_MASK;
            }
        }
    }

    /// Removes a specific triple.
    pub fn remove(&mut self, src: LocId, tgt: LocId) {
        if let Ok(i) = self.pair_index(src, tgt) {
            self.rep.splice(i..i + 1, None);
        }
    }

    /// Merges two flow facts at a control-flow join: a pair definite in
    /// both stays definite; a pair present in only one side, or possible
    /// in either, is possible (Definition 3.3). A sorted merge-join that
    /// copies a run present on one side only in bulk.
    pub fn merge(&self, other: &PtSet) -> PtSet {
        if self.rep.same_array(&other.rep) {
            return self.clone();
        }
        let (a, b) = (self.rep.as_slice(), other.rep.as_slice());
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (ka, kb) = (a[i] & KEY_MASK, b[j] & KEY_MASK);
            match ka.cmp(&kb) {
                std::cmp::Ordering::Equal => {
                    // D ∧ D = D: the definiteness bits AND together.
                    out.push(ka | (a[i] & b[j] & D_BIT));
                    i += 1;
                    j += 1;
                }
                // One-sided → P.
                std::cmp::Ordering::Less => {
                    let end = run_end(a, i, kb);
                    extend_demoted(&mut out, &a[i..end]);
                    i = end;
                }
                std::cmp::Ordering::Greater => {
                    let end = run_end(b, j, ka);
                    extend_demoted(&mut out, &b[j..end]);
                    j = end;
                }
            }
        }
        extend_demoted(&mut out, &a[i..]);
        extend_demoted(&mut out, &b[j..]);
        // Merged sets are kept at program points: return the slack.
        out.shrink_to_fit();
        PtSet {
            rep: Rep::from_sorted(out),
        }
    }

    /// Joins any number of flow facts at once: a pair is definite iff
    /// it is definite in every set. Equal to folding [`PtSet::merge`]
    /// over `sets`, but each pair is merged O(log k) times rather than
    /// once per later set. `None` (⊥) for no sets.
    pub fn merge_all(sets: &[PtSet]) -> Option<PtSet> {
        match sets {
            [] => None,
            [s] => Some(s.clone()),
            _ => {
                let (lo, hi) = sets.split_at(sets.len() / 2);
                let (lo, hi) = (Self::merge_all(lo)?, Self::merge_all(hi)?);
                Some(lo.merge(&hi))
            }
        }
    }

    /// Accumulates `other` into `self` with [`PtSet::insert_weak`]
    /// semantics (union; conflicting definiteness becomes `P`). Unlike
    /// [`PtSet::merge`], pairs present on only one side keep their
    /// definiteness — used for per-statement statistics over contexts.
    pub fn absorb(&mut self, other: &PtSet) {
        for (src, tgt, d) in other.iter() {
            self.insert_weak(src, tgt, d);
        }
    }

    /// True if analyzing with `other` as input subsumes analyzing with
    /// `self`: every triple of `self` appears in `other`, and a
    /// possible triple in `self` is not claimed definite by `other`
    /// (a definite claim is *stronger*, so it would not be a safe
    /// generalization). A sorted two-pointer walk.
    pub fn subset_of(&self, other: &PtSet) -> bool {
        if self.rep.same_array(&other.rep) {
            return true;
        }
        let (a, b) = (self.rep.as_slice(), other.rep.as_slice());
        let mut j = 0;
        for &ea in a {
            let ka = ea & KEY_MASK;
            while j < b.len() && (b[j] & KEY_MASK) < ka {
                j += 1;
            }
            if j >= b.len() || b[j] & KEY_MASK != ka {
                return false;
            }
            // Fails only when `other` claims D for a pair `self` has
            // as P (bit arithmetic: D = 1 > P = 0).
            if ea & D_BIT < b[j] & D_BIT {
                return false;
            }
            j += 1;
        }
        true
    }

    /// Iterates all triples in deterministic `(source, target)` order.
    pub fn iter(&self) -> impl Iterator<Item = (LocId, LocId, Def)> + '_ {
        self.rep
            .as_slice()
            .iter()
            .map(|&e| (unpack_src(e), unpack_tgt(e), unpack_def(e)))
    }

    /// Iterates all source locations (ascending, deduplicated).
    pub fn sources(&self) -> impl Iterator<Item = LocId> + '_ {
        let s = self.rep.as_slice();
        let mut i = 0;
        std::iter::from_fn(move || {
            if i >= s.len() {
                return None;
            }
            let src = unpack_src(s[i]);
            while i < s.len() && unpack_src(s[i]) == src {
                i += 1;
            }
            Some(src)
        })
    }
}

impl FromIterator<(LocId, LocId, Def)> for PtSet {
    fn from_iter<I: IntoIterator<Item = (LocId, LocId, Def)>>(iter: I) -> Self {
        let mut s = PtSet::new();
        for (a, b, d) in iter {
            s.insert(a, b, d);
        }
        s
    }
}

impl Extend<(LocId, LocId, Def)> for PtSet {
    fn extend<I: IntoIterator<Item = (LocId, LocId, Def)>>(&mut self, iter: I) {
        for (a, b, d) in iter {
            self.insert(a, b, d);
        }
    }
}

/// A flow fact: `None` is ⊥ (program point unreachable), used as the
/// initial output estimate of recursive nodes (Figure 4) and for paths
/// cut by `break`/`return`/`exit`.
pub type Flow = Option<PtSet>;

/// Merges two flow facts (`⊥` is the identity).
pub fn merge_flow(a: Flow, b: Flow) -> Flow {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.merge(&y)),
    }
}

/// `a ⊆ b` on flow facts (`⊥` is below everything).
pub fn flow_subset(a: &Flow, b: &Flow) -> bool {
    match (a, b) {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(x), Some(y)) => x.subset_of(y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LocId {
        LocId(i)
    }

    #[test]
    fn insert_and_query() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::D);
        s.insert(l(0), l(2), Def::P);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        assert_eq!(s.target_count(l(0)), 2);
        assert_eq!(s.target_count(l(1)), 0);
    }

    #[test]
    fn insert_d_wins_over_p() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::P);
        s.insert(l(0), l(1), Def::D);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        // And D stays D when P inserted after.
        s.insert(l(0), l(1), Def::P);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
    }

    #[test]
    fn insert_weak_conflict_becomes_p() {
        let mut s = PtSet::new();
        s.insert_weak(l(0), l(1), Def::D);
        assert_eq!(s.get(l(0), l(1)), Some(Def::D));
        s.insert_weak(l(0), l(1), Def::P);
        assert_eq!(s.get(l(0), l(1)), Some(Def::P));
    }

    #[test]
    fn kill_and_demote() {
        let mut s = PtSet::new();
        s.insert(l(0), l(1), Def::D);
        s.insert(l(0), l(2), Def::D);
        s.insert(l(3), l(1), Def::D);
        s.demote_from(l(0));
        assert_eq!(s.get(l(0), l(1)), Some(Def::P));
        assert_eq!(s.get(l(3), l(1)), Some(Def::D));
        s.kill_from(l(0));
        assert_eq!(s.target_count(l(0)), 0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merge_definiteness_rules() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D); // D on both sides → D
        a.insert(l(0), l(2), Def::D); // only on this side → P
        a.insert(l(0), l(3), Def::P); // P+D → P
        let mut b = PtSet::new();
        b.insert(l(0), l(1), Def::D);
        b.insert(l(0), l(3), Def::D);
        b.insert(l(4), l(5), Def::P); // only on that side → P
        let m = a.merge(&b);
        assert_eq!(m.get(l(0), l(1)), Some(Def::D));
        assert_eq!(m.get(l(0), l(2)), Some(Def::P));
        assert_eq!(m.get(l(0), l(3)), Some(Def::P));
        assert_eq!(m.get(l(4), l(5)), Some(Def::P));
    }

    #[test]
    fn merge_is_commutative() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        a.insert(l(2), l(3), Def::P);
        let mut b = PtSet::new();
        b.insert(l(0), l(1), Def::P);
        b.insert(l(5), l(6), Def::D);
        assert_eq!(a.merge(&b), b.merge(&a));
    }

    #[test]
    fn subset_semantics() {
        let mut small = PtSet::new();
        small.insert(l(0), l(1), Def::D);
        let mut big = PtSet::new();
        big.insert(l(0), l(1), Def::P);
        big.insert(l(0), l(2), Def::P);
        // D input is subsumed by a more general P input.
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        // A definite claim does NOT subsume a possible fact.
        let mut dset = PtSet::new();
        dset.insert(l(0), l(1), Def::D);
        let mut pset = PtSet::new();
        pset.insert(l(0), l(1), Def::P);
        assert!(!pset.subset_of(&dset));
        assert!(dset.subset_of(&pset));
    }

    #[test]
    fn flow_merge_bottom_is_identity() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        let m = merge_flow(Some(a.clone()), None);
        assert_eq!(m, Some(a.clone()));
        let m2 = merge_flow(None, Some(a.clone()));
        assert_eq!(m2, Some(a));
        assert_eq!(merge_flow(None, None), None);
    }

    #[test]
    fn absorb_keeps_one_sided_defs() {
        let mut a = PtSet::new();
        a.insert(l(0), l(1), Def::D);
        let mut b = PtSet::new();
        b.insert(l(2), l(3), Def::D);
        a.absorb(&b);
        assert_eq!(a.get(l(2), l(3)), Some(Def::D));
        assert_eq!(a.get(l(0), l(1)), Some(Def::D));
    }

    // ---- packed-representation specifics --------------------------------

    #[test]
    fn spill_past_inline_capacity_preserves_order_and_content() {
        let mut s = PtSet::new();
        // Insert out of order, well past the inline capacity.
        for i in (0..40u32).rev() {
            s.insert(l(i % 7), l(i), if i % 3 == 0 { Def::D } else { Def::P });
        }
        assert_eq!(s.len(), 40);
        let triples: Vec<_> = s.iter().collect();
        let mut sorted = triples.clone();
        sorted.sort_by_key(|(a, b, _)| (*a, *b));
        assert_eq!(triples, sorted, "iteration is (source, target) ordered");
        for (src, tgt, d) in triples {
            assert_eq!(s.get(src, tgt), Some(d));
        }
    }

    #[test]
    fn equality_ignores_storage_mode() {
        let mut a = PtSet::new();
        for i in 0..20u32 {
            a.insert(l(0), l(i), Def::P);
        }
        for i in 1..20u32 {
            a.remove(l(0), l(i)); // spilled, then shrunk back to 1
        }
        let mut b = PtSet::new();
        b.insert(l(0), l(0), Def::P);
        assert_eq!(a, b);
    }

    fn spilled(n: u32) -> PtSet {
        (0..n).map(|i| (l(i % 3), l(i), Def::D)).collect()
    }

    #[test]
    fn edits_that_change_nothing_keep_the_array_shared() {
        let a = spilled(20);
        let mut b = a.clone();
        assert!(a.rep.same_array(&b.rep), "clone shares the array");
        b.insert(l(0), l(0), Def::D); // already D
        b.insert(l(0), l(0), Def::P); // D wins
        b.insert_weak(l(1), l(1), Def::D); // same definiteness
        b.kill_from(l(7)); // no triples from l7
        b.remove(l(0), l(1)); // absent pair
        let mut c = b.clone();
        c.demote_from(l(1));
        let d = c.clone();
        c.demote_from(l(1)); // already all P
        assert!(a.rep.same_array(&b.rep));
        assert!(c.rep.same_array(&d.rep));
        assert!(!a.rep.same_array(&c.rep), "a real change unshares");
    }

    #[test]
    fn an_edit_of_a_shared_array_rebuilds_it_once() {
        let a = spilled(20);
        let mut b = a.clone();
        b.kill_from(l(1));
        assert_eq!(a.len(), 20, "the other holder keeps its triples");
        assert_eq!(b.len(), 13);
        // Now sole owner: a further edit stays in place.
        let Rep::Spilled(before) = &b.rep else {
            panic!("13 triples spill")
        };
        let before = Arc::as_ptr(before);
        b.insert(l(1), l(40), Def::P);
        let Rep::Spilled(after) = &b.rep else {
            panic!("14 triples spill")
        };
        assert_eq!(
            before,
            Arc::as_ptr(after),
            "an owned array is edited in place"
        );
    }

    #[test]
    fn merge_copies_one_sided_runs_and_masks_their_definiteness() {
        let a: PtSet = (0..30).map(|i| (l(0), l(i), Def::D)).collect();
        let b: PtSet = [(l(0), l(10), Def::D), (l(0), l(40), Def::D)]
            .into_iter()
            .collect();
        let m = a.merge(&b);
        assert_eq!(m.len(), 31);
        assert_eq!(m.get(l(0), l(10)), Some(Def::D));
        assert!(m
            .iter()
            .filter(|&(_, t, _)| t != l(10))
            .all(|(_, _, d)| d == Def::P));
        assert!(a.merge(&a.clone()).rep.same_array(&a.rep));
    }

    #[test]
    fn merge_all_ignores_no_set_and_joins_the_rest() {
        assert_eq!(PtSet::merge_all(&[]), None);
        let a = spilled(10);
        assert_eq!(PtSet::merge_all(std::slice::from_ref(&a)), Some(a.clone()));
        let mut b = a.clone();
        b.remove(l(0), l(0));
        let m = PtSet::merge_all(&[a.clone(), b.clone(), a.clone()]).expect("three sets");
        assert_eq!(m, a.merge(&b).merge(&a));
        assert_eq!(m.get(l(0), l(0)), Some(Def::P));
        assert_eq!(m.get(l(1), l(1)), Some(Def::D));
    }

    #[test]
    fn kill_removes_a_contiguous_run_in_a_spilled_set() {
        let mut s = PtSet::new();
        for i in 0..10u32 {
            s.insert(l(1), l(i), Def::P);
        }
        s.insert(l(0), l(0), Def::D);
        s.insert(l(2), l(0), Def::D);
        s.kill_from(l(1));
        assert_eq!(s.len(), 2);
        assert!(s.contains(l(0), l(0)));
        assert!(s.contains(l(2), l(0)));
    }
}
