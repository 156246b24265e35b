//! Alias-pair generation (§7.1, Figures 8 and 9).
//!
//! Traditional alias analyses report pairs like `(*p, x)` or
//! `(**a, *b)`. Points-to sets imply these pairs by transitive closure:
//! `p → x` yields `(*p, x)`; `p → x, x → y` yields `(**p, *x)` and
//! `(**p, y)`, and two pointers with a common target are mutually
//! aliased (`(*p, *q)`).

use pta_core::{AnalysisResult, Def, LocId, PtSet};
use pta_simple::StmtId;

/// A derived alias pair between two reference expressions, rendered with
/// location names and `*` prefixes, plus its definiteness.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AliasPair {
    /// Left reference, e.g. `*p`.
    pub lhs: String,
    /// Right reference, e.g. `x` or `*q`.
    pub rhs: String,
    /// Definite (must) or possible (may) alias.
    pub def: Def,
}

impl std::fmt::Display for AliasPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {}) {}", self.lhs, self.rhs, self.def)
    }
}

fn stars(n: usize, name: &str) -> String {
    format!("{}{}", "*".repeat(n), name)
}

/// Derives the alias pairs implied by the points-to set at a program
/// point, up to `max_depth` levels of dereference. NULL targets are
/// ignored.
pub fn alias_pairs_at(result: &AnalysisResult, stmt: StmtId, max_depth: usize) -> Vec<AliasPair> {
    let set = result.at(stmt);
    alias_pairs_of(result, set, max_depth)
}

/// Derives alias pairs from an explicit points-to set.
pub fn alias_pairs_of(result: &AnalysisResult, set: &PtSet, max_depth: usize) -> Vec<AliasPair> {
    let locs = &result.locs;
    // reach[k] holds (pointer, target, def) pairs k+1 dereferences deep.
    let base: Vec<(LocId, LocId, Def)> = set
        .iter()
        .filter(|(_, t, _)| !locs.is_null(*t) && !locs.is_function(*t))
        .collect();
    let mut levels: Vec<Vec<(LocId, LocId, Def)>> = vec![base];
    for _ in 1..max_depth {
        let prev = levels.last().expect("at least one level");
        let mut next = Vec::new();
        for (p, mid, d1) in prev {
            for (t, d2) in set.targets(*mid) {
                if locs.is_null(t) || locs.is_function(t) {
                    continue;
                }
                let entry = (*p, t, d1.and(d2));
                if !next.contains(&entry) {
                    next.push(entry);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        levels.push(next);
    }

    let mut out = Vec::new();
    // (1) Deref-to-location pairs: p → x gives (*p, x); p →→ y gives (**p, y).
    for (k, level) in levels.iter().enumerate() {
        for (p, t, d) in level {
            out.push(AliasPair {
                lhs: stars(k + 1, locs.name(*p)),
                rhs: locs.name(*t).to_owned(),
                def: *d,
            });
        }
    }
    // (2) Deref-to-deref pairs: common targets at the same depth, and
    // p → x gives (**p, *x) style pairs one level up.
    for (k, level) in levels.iter().enumerate() {
        for (i, (p, t, d1)) in level.iter().enumerate() {
            // (*^{k+2} p, *^{1} t) chains: *p aliases x, so **p aliases *x.
            if k + 2 <= max_depth {
                out.push(AliasPair {
                    lhs: stars(k + 2, locs.name(*p)),
                    rhs: stars(1, locs.name(*t)),
                    def: *d1,
                });
            }
            for (q, u, d2) in level.iter().skip(i + 1) {
                if t == u && p != q {
                    out.push(AliasPair {
                        lhs: stars(k + 1, locs.name(*p)),
                        rhs: stars(k + 1, locs.name(*q)),
                        def: d1.and(*d2),
                    });
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn last_point(t: &pta_core::Pta, func: &str) -> StmtId {
        t.find_stmt(func, "return", 0).expect("return stmt")
    }

    #[test]
    fn figure8_no_spurious_pair() {
        // Figure 8: after S1 x=&y, S2 y=&z, S3 y=&w the Landi/Ryder
        // alias pairs include the spurious (**x, z); the points-to
        // closure does not.
        let t = pta_core::run_source(
            "int main(void){ int **x; int *y; int z; int w;
               x = &y; y = &z; y = &w; return 0; }",
        )
        .unwrap();
        let ret = last_point(&t, "main");
        let pairs = alias_pairs_at(&t.result, ret, 3);
        let has = |l: &str, r: &str| pairs.iter().any(|p| p.lhs == l && p.rhs == r);
        assert!(has("*x", "y"), "pairs: {pairs:?}");
        assert!(has("*y", "w"), "pairs: {pairs:?}");
        assert!(has("**x", "w"), "pairs: {pairs:?}");
        assert!(has("**x", "*y"), "pairs: {pairs:?}");
        // The spurious pair of Figure 8(b) is absent.
        assert!(!has("**x", "z"), "spurious pair generated: {pairs:?}");
    }

    #[test]
    fn figure9_closure_generates_spurious_pair() {
        // Figure 9: the transitive closure *does* generate the spurious
        // (**a, c) (the price of the compact abstraction) — assert the
        // documented behaviour.
        let t = pta_core::run_source(
            "int c0;
             int main(void){ int **a; int *b; int c;
               if (c0) a = &b; else b = &c;
               return 0; }",
        )
        .unwrap();
        let ret = last_point(&t, "main");
        let pairs = alias_pairs_at(&t.result, ret, 3);
        let has = |l: &str, r: &str| pairs.iter().any(|p| p.lhs == l && p.rhs == r);
        assert!(has("*a", "b"), "pairs: {pairs:?}");
        assert!(has("*b", "c"), "pairs: {pairs:?}");
        assert!(has("**a", "c"), "pairs: {pairs:?}");
    }

    #[test]
    fn definiteness_composes_through_closure() {
        let t = pta_core::run_source(
            "int main(void){ int **x; int *y; int z; x = &y; y = &z; return 0; }",
        )
        .unwrap();
        let ret = last_point(&t, "main");
        let pairs = alias_pairs_at(&t.result, ret, 3);
        let pair = pairs
            .iter()
            .find(|p| p.lhs == "**x" && p.rhs == "z")
            .unwrap();
        assert_eq!(pair.def, Def::D);
    }

    #[test]
    fn mutual_alias_from_common_target() {
        let t = pta_core::run_source(
            "int x; int main(void){ int *p; int *q; p = &x; q = &x; return 0; }",
        )
        .unwrap();
        let ret = last_point(&t, "main");
        let pairs = alias_pairs_at(&t.result, ret, 2);
        assert!(
            pairs.iter().any(|p| p.lhs == "*p" && p.rhs == "*q"),
            "pairs: {pairs:?}"
        );
    }

    #[test]
    fn depth_limit_respected() {
        let t = pta_core::run_source(
            "int main(void){ int **x; int *y; int z; x = &y; y = &z; return 0; }",
        )
        .unwrap();
        let ret = last_point(&t, "main");
        let pairs = alias_pairs_at(&t.result, ret, 1);
        assert!(pairs.iter().all(|p| !p.lhs.starts_with("**")));
    }
}
