//! Property-based tests (pta-prop) over the core data structures and
//! the analysis pipeline.

use pta::core::points_to_set::{merge_flow, Def, PtSet};
use pta::core::LocId;
use pta_prop::{check, Rng};

// ---------------------------------------------------------------------
// PtSet lattice laws
// ---------------------------------------------------------------------

fn arb_def(g: &mut Rng) -> Def {
    if g.ratio(1, 2) {
        Def::D
    } else {
        Def::P
    }
}

fn arb_ptset(g: &mut Rng) -> PtSet {
    let mut s = PtSet::new();
    for _ in 0..g.usize(0..24) {
        let a = g.u32(0..12);
        let b = g.u32(0..12);
        let d = arb_def(g);
        // insert_weak keeps arbitrary mixes consistent.
        s.insert_weak(LocId(a), LocId(b), d);
    }
    s
}

#[test]
fn merge_is_commutative() {
    check("merge commutes", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        assert_eq!(a.merge(&b), b.merge(&a));
    });
}

#[test]
fn merge_is_associative() {
    check("merge associates", 256, |g| {
        let (a, b, c) = (arb_ptset(g), arb_ptset(g), arb_ptset(g));
        assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
    });
}

#[test]
fn merge_is_idempotent() {
    check("merge idempotent", 256, |g| {
        let a = arb_ptset(g);
        assert_eq!(a.merge(&a), a);
    });
}

#[test]
fn merge_is_an_upper_bound() {
    check("merge upper bound", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        let m = a.merge(&b);
        assert!(a.subset_of(&m), "a ⊄ merge");
        assert!(b.subset_of(&m), "b ⊄ merge");
    });
}

#[test]
fn subset_is_reflexive() {
    check("subset reflexive", 256, |g| {
        let a = arb_ptset(g);
        assert!(a.subset_of(&a));
    });
}

#[test]
fn subset_is_transitive() {
    check("subset transitive", 256, |g| {
        let (a, b, c) = (arb_ptset(g), arb_ptset(g), arb_ptset(g));
        let ab = a.merge(&b);
        let abc = ab.merge(&c);
        assert!(a.subset_of(&ab));
        assert!(ab.subset_of(&abc));
        assert!(a.subset_of(&abc));
    });
}

#[test]
fn flow_merge_has_bottom_identity() {
    check("flow bottom identity", 256, |g| {
        let a = arb_ptset(g);
        assert_eq!(merge_flow(Some(a.clone()), None), Some(a.clone()));
        assert_eq!(merge_flow(None, Some(a.clone())), Some(a));
    });
}

#[test]
fn kill_removes_all_pairs_from_source() {
    check("kill clears source", 256, |g| {
        let mut s = arb_ptset(g);
        let src = g.u32(0..12);
        s.kill_from(LocId(src));
        assert_eq!(s.target_count(LocId(src)), 0);
    });
}

#[test]
fn demote_leaves_no_definite_pairs() {
    check("demote leaves only P", 256, |g| {
        let mut s = arb_ptset(g);
        let src = g.u32(0..12);
        s.demote_from(LocId(src));
        for (_, d) in s.targets(LocId(src)) {
            assert_eq!(d, Def::P);
        }
    });
}

#[test]
fn merged_pair_is_definite_only_if_definite_in_both() {
    check("merge definiteness", 256, |g| {
        let (a, b) = (arb_ptset(g), arb_ptset(g));
        let m = a.merge(&b);
        for (s, t, d) in m.iter() {
            if d == Def::D {
                assert_eq!(a.get(s, t), Some(Def::D));
                assert_eq!(b.get(s, t), Some(Def::D));
            }
        }
    });
}

// ---------------------------------------------------------------------
// PtSet storage: the run-copying merge, the k-way join, and
// copy-on-write sharing of spilled arrays
// ---------------------------------------------------------------------

fn triples(s: &PtSet) -> Vec<(LocId, LocId, Def)> {
    s.iter().collect()
}

/// A set with long per-source runs (sources 0..6, targets 0..80), so
/// merges meet one-sided runs, interleavings and spilled arrays.
fn arb_wide_ptset(g: &mut Rng) -> PtSet {
    let mut s = PtSet::new();
    for _ in 0..g.usize(0..120) {
        let (a, b) = (g.u32(0..6), g.u32(0..80));
        s.insert_weak(LocId(a), LocId(b), arb_def(g));
    }
    s
}

/// One random edit through the public mutators, to apply to any set.
fn arb_edit(g: &mut Rng) -> impl Fn(&mut PtSet) {
    let (a, b, d) = (LocId(g.u32(0..6)), LocId(g.u32(0..80)), arb_def(g));
    let kind = g.usize(0..5);
    move |s: &mut PtSet| match kind {
        0 => s.insert(a, b, d),
        1 => s.insert_weak(a, b, d),
        2 => s.kill_from(a),
        3 => s.demote_from(a),
        _ => s.remove(a, b),
    }
}

/// A set that shares history with `base`: a clone (so the spilled
/// array starts shared) with a few edits.
fn arb_related(g: &mut Rng, base: &PtSet) -> PtSet {
    let mut s = base.clone();
    for _ in 0..g.usize(0..4) {
        arb_edit(g)(&mut s);
    }
    s
}

/// The merge as one element-by-element loop over both sorted triple
/// lists, without run copying or shortcuts: the reference the packed
/// merge must reproduce.
fn reference_merge(a: &PtSet, b: &PtSet) -> Vec<(LocId, LocId, Def)> {
    let (a, b) = (triples(a), triples(b));
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ka, kb) = ((a[i].0, a[i].1), (b[j].0, b[j].1));
        match ka.cmp(&kb) {
            std::cmp::Ordering::Equal => {
                out.push((ka.0, ka.1, a[i].2.and(b[j].2)));
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                out.push((ka.0, ka.1, Def::P));
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push((kb.0, kb.1, Def::P));
                j += 1;
            }
        }
    }
    out.extend(a[i..].iter().map(|&(s, t, _)| (s, t, Def::P)));
    out.extend(b[j..].iter().map(|&(s, t, _)| (s, t, Def::P)));
    out
}

#[test]
fn merge_matches_the_element_by_element_reference() {
    check("merge = reference loop", 512, |g| {
        let a = if g.ratio(1, 2) {
            arb_wide_ptset(g)
        } else {
            arb_ptset(g)
        };
        let b = match g.usize(0..3) {
            0 => arb_wide_ptset(g),
            1 => arb_related(g, &a),
            _ => arb_ptset(g),
        };
        assert_eq!(triples(&a.merge(&b)), reference_merge(&a, &b));
        assert_eq!(triples(&b.merge(&a)), reference_merge(&b, &a));
    });
}

#[test]
fn merge_all_equals_the_left_fold_of_merge() {
    check("merge_all = fold of merge", 256, |g| {
        let base = arb_wide_ptset(g);
        let mut sets: Vec<PtSet> = Vec::new();
        for _ in 0..g.usize(0..41) {
            let s = match g.usize(0..5) {
                0 => PtSet::new(),
                1 if !sets.is_empty() => g.pick(&sets).clone(), // a repeat
                2 => arb_related(g, &base),
                3 => arb_ptset(g),
                _ => arb_wide_ptset(g),
            };
            sets.push(s);
        }
        let fold = sets
            .iter()
            .fold(None, |acc, s| merge_flow(acc, Some(s.clone())));
        let all = PtSet::merge_all(&sets);
        assert_eq!(all.as_ref().map(triples), fold.as_ref().map(triples));
        assert_eq!(all.is_none(), sets.is_empty());
    });
}

#[test]
fn merge_with_a_clone_of_itself_is_the_identity() {
    check("a ⊔ clone(a) = a", 256, |g| {
        let a = arb_wide_ptset(g);
        let before = triples(&a);
        assert_eq!(triples(&a.merge(&a.clone())), before);
        assert_eq!(a.merge(&a.clone()), a);
    });
}

#[test]
fn edits_of_a_clone_leave_the_original_unchanged() {
    check("copy-on-write isolation", 512, |g| {
        let original = arb_wide_ptset(g);
        let before = triples(&original);
        let mut copy = original.clone();
        // The same edits on a set built independently, sharing nothing.
        let mut fresh: PtSet = before.iter().copied().collect();
        for _ in 0..g.usize(1..6) {
            let edit = arb_edit(g);
            edit(&mut copy);
            edit(&mut fresh);
            assert_eq!(triples(&original), before, "the original changed");
            assert_eq!(
                triples(&copy),
                triples(&fresh),
                "the clone's edit went wrong"
            );
        }
    });
}

// ---------------------------------------------------------------------
// Generated straight-line programs: the analysis terminates, maintains
// Definition 3.1, and is deterministic.
// ---------------------------------------------------------------------

/// Renders a random straight-line pointer program with `n` statements
/// over ints x0..x3, pointers p0..p3, and double pointers q0..q1.
fn render_program(stmts: &[u8]) -> String {
    let mut body = String::new();
    for (i, op) in stmts.iter().enumerate() {
        let s = match op % 12 {
            0 => format!("p{} = &x{};", op % 4, (op / 4) % 4),
            1 => format!("p{} = p{};", op % 4, (op / 4) % 4),
            2 => format!("q{} = &p{};", op % 2, (op / 4) % 4),
            3 => format!("*q{} = &x{};", op % 2, (op / 4) % 4),
            4 => format!("p{} = *q{};", op % 4, op % 2),
            5 => format!("if (c{}) p{} = &x{};", i % 3, op % 4, (op / 4) % 4),
            6 => format!("p{} = 0;", op % 4),
            7 => format!("p{} = (int*) malloc(4);", op % 4),
            8 => format!(
                "while (c{}) {{ p{} = p{}; c{} = c{} - 1; }}",
                i % 3,
                op % 4,
                (op / 4) % 4,
                i % 3,
                i % 3
            ),
            9 => format!("q{} = &p{};", op % 2, op % 4),
            10 => format!("x{} = x{} + 1;", op % 4, (op / 4) % 4),
            _ => format!(
                "if (c{}) q{} = &p{}; else q{} = &p{};",
                i % 3,
                op % 2,
                op % 4,
                op % 2,
                (op / 3) % 4
            ),
        };
        body.push_str("    ");
        body.push_str(&s);
        body.push('\n');
    }
    format!(
        "int x0, x1, x2, x3;\nint c0, c1, c2;\n\
         int main(void) {{\n    int *p0; int *p1; int *p2; int *p3;\n    int **q0; int **q1;\n{body}    return 0;\n}}\n"
    )
}

fn arb_stmts(g: &mut Rng, max: usize) -> Vec<u8> {
    g.vec(1..max, |g| g.u8())
}

#[test]
fn random_programs_analyze_and_keep_definition_3_1() {
    check("definition 3.1 holds", 64, |g| {
        let stmts = arb_stmts(g, 30);
        let src = render_program(&stmts);
        let t = pta::analyze_c(&src).expect("generated program analyses");
        for set in t.result.per_stmt.values() {
            for src_loc in set.sources() {
                let d_count = set.targets(src_loc).filter(|(_, d)| *d == Def::D).count();
                assert!(d_count <= 1, "source with {d_count} definite targets");
            }
        }
    });
}

#[test]
fn random_programs_are_deterministic() {
    check("analysis deterministic", 32, |g| {
        let stmts = arb_stmts(g, 20);
        let src = render_program(&stmts);
        let a = pta::analyze_c(&src).expect("analyses");
        let b = pta::analyze_c(&src).expect("analyses");
        assert_eq!(a.result.exit_set, b.result.exit_set);
    });
}

#[test]
fn random_programs_context_sensitive_at_least_as_precise_as_andersen() {
    check("cs ⊆ andersen", 32, |g| {
        let stmts = arb_stmts(g, 20);
        let src = render_program(&stmts);
        let t = pta::analyze_c(&src).expect("analyses");
        let ir = pta::simple::compile(&src).expect("compiles");
        let and = pta::core::baseline::andersen(&ir).expect("andersen");
        // Every non-null pair in the context-sensitive exit set also
        // exists in Andersen's (coarser) solution — i.e. the precise
        // analysis never invents pairs the inclusion-based one misses.
        // (Both are sound, Andersen is flow-insensitive so it covers
        // every program point at once.)
        for (s, tgt, _) in t.result.exit_set.iter() {
            if t.result.locs.is_null(tgt) {
                continue;
            }
            let sname = t.result.locs.name(s);
            let tname = t.result.locs.name(tgt);
            let found = and
                .solution
                .iter()
                .any(|(s2, t2, _)| and.locs.name(s2) == sname && and.locs.name(t2) == tname);
            assert!(found, "pair ({sname},{tname}) missing from Andersen");
        }
    });
}

// ---------------------------------------------------------------------
// Front-end robustness: random token soup never panics.
// ---------------------------------------------------------------------

#[test]
fn frontend_never_panics_on_ascii_soup() {
    check("frontend total", 128, |g| {
        let s = g.ascii_soup(0..200);
        let _ = pta::cfront::frontend(&s); // must return, not panic
    });
}

#[test]
fn lexer_round_trips_identifiers() {
    check("ident round-trip", 128, |g| {
        let name = g.ident(13);
        if pta::cfront::token::Keyword::from_str(&name).is_some() {
            return; // keyword: lexes as a keyword token, skip
        }
        let toks = pta::cfront::lexer::lex(&name).unwrap();
        assert_eq!(toks.len(), 2); // ident + EOF
        match &toks[0].kind {
            pta::cfront::token::TokenKind::Ident(n) => assert_eq!(n, &name),
            other => panic!("unexpected token {other:?}"),
        }
    });
}

#[test]
fn lexer_round_trips_integers() {
    check("integer round-trip", 128, |g| {
        let v = g.u64(0..1_000_000_000) as i64;
        let toks = pta::cfront::lexer::lex(&v.to_string()).unwrap();
        match &toks[0].kind {
            pta::cfront::token::TokenKind::IntLit(x) => assert_eq!(*x, v),
            other => panic!("unexpected token {other:?}"),
        }
    });
}

// ---------------------------------------------------------------------
// Pipeline robustness: panics are bugs, errors are fine
// ---------------------------------------------------------------------

/// Runs the whole pipeline on `src` and asserts it returns (Ok or Err)
/// rather than panicking. This is the executable form of the panic-site
/// audit: every `unwrap`/`expect` left in `pta-cfront` and `pta-core`
/// is an internal invariant, so no input may reach one.
fn assert_no_panic(src: &str) {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = pta::core::run_source(src);
    }));
    assert!(caught.is_ok(), "pipeline panicked on input:\n{src}");
}

#[test]
fn pipeline_never_panics_on_ascii_soup() {
    check("no panic on soup", 256, |g| {
        assert_no_panic(&g.ascii_soup(0..400));
    });
}

#[test]
fn pipeline_never_panics_on_keyword_soup() {
    const WORDS: &[&str] = &[
        "int", "void", "*", "&", "(", ")", "{", "}", ";", ",", "=", "if", "while", "return",
        "struct", "x", "p", "main", "[", "]", "1", "malloc", ".", "->", "double", "for", "else",
        "switch", "case", "break", "0",
    ];
    check("no panic on keyword soup", 256, |g| {
        let n = g.usize(0..80);
        let src: Vec<&str> = (0..n).map(|_| *g.pick(WORDS)).collect();
        assert_no_panic(&src.join(" "));
    });
}

#[test]
fn pipeline_never_panics_on_mutated_valid_programs() {
    check("no panic on mutations", 128, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let mut bytes = pta_prop::cgen::generate(family, g).into_bytes();
        for _ in 0..g.usize(1..8) {
            if bytes.is_empty() {
                break;
            }
            let i = g.usize(0..bytes.len());
            match g.usize(0..3) {
                0 => bytes[i] = b' ' + (g.next_u64() % 95) as u8,
                1 => {
                    bytes.remove(i);
                }
                _ => bytes.insert(i, b' ' + (g.next_u64() % 95) as u8),
            }
        }
        assert_no_panic(&String::from_utf8_lossy(&bytes));
    });
}

// ---------------------------------------------------------------------
// Generated programs through lint and demand: same answers every way
// ---------------------------------------------------------------------

use pta::core::AnalysisConfig;

#[test]
fn lint_output_is_deterministic_across_jobs_on_generated_programs() {
    // The dataflow-backed checks must not introduce any worker-count
    // dependence: a batch of generated files lints byte-identically
    // serial and parallel, JSON and text alike.
    check("lint determinism across jobs", 8, |g| {
        let inputs: Vec<pta::lint::FileInput> = (0..4)
            .map(|i| {
                let family = *g.pick(pta_prop::cgen::FAMILIES);
                pta::lint::FileInput {
                    path: format!("g{i}.c"),
                    source: pta_prop::cgen::generate(family, g),
                }
            })
            .collect();
        let config = AnalysisConfig::default();
        let opts = pta::lint::LintOptions::default();
        let base = pta::lint::lint_files(&inputs, &config, &opts, 1);
        let (base_text, base_json) = (pta::lint::render_text(&base), pta::lint::render_json(&base));
        for jobs in [2, 5, 8] {
            let got = pta::lint::lint_files(&inputs, &config, &opts, jobs);
            assert_eq!(
                base_text,
                pta::lint::render_text(&got),
                "text diverged at jobs={jobs}"
            );
            assert_eq!(
                base_json,
                pta::lint::render_json(&got),
                "json diverged at jobs={jobs}"
            );
        }
    });
}

#[test]
fn demand_rooted_answers_equal_exhaustive_on_generated_programs() {
    // The demand-driven equivalence guarantee (docs/QUERIES.md) on
    // generated pathology: rooting an analysis at a *random* program
    // point — across all families, including the unresolved-indirect-
    // call ones that force slice widening — yields the same name-level
    // facts at the root as the exhaustive engine. Fallbacks count: a
    // plan that falls back must still return the exhaustive facts.
    check("demand ≡ exhaustive", 24, |g| {
        let family = *g.pick(pta_prop::cgen::FAMILIES);
        let source = pta_prop::cgen::generate(family, g);
        let Ok(ir) = pta::simple::compile(&source) else {
            return; // generator corner the frontend rejects: vacuous
        };
        let Ok(full) = pta::core::analyze_with(&ir, AnalysisConfig::default()) else {
            return;
        };
        let mut points: Vec<pta::core::QueryRoot> = Vec::new();
        for (fid, f) in ir.defined_functions() {
            if let Some(body) = &f.body {
                body.for_each_basic(&mut |_, id| points.push((fid, id)));
            }
        }
        if points.is_empty() {
            return;
        }
        let names = |r: &pta::core::AnalysisResult, stmt| {
            let mut v: Vec<(String, String, bool)> = r
                .at(stmt)
                .iter()
                .map(|(s, t, d)| {
                    (
                        r.locs.name(s).to_owned(),
                        r.locs.name(t).to_owned(),
                        d == pta::core::Def::D,
                    )
                })
                .collect();
            v.sort();
            v
        };
        for _ in 0..3 {
            let root = points[g.usize(0..points.len())];
            let out = pta::core::analyze_demand(&ir, &AnalysisConfig::default(), &[root])
                .expect("demand run must succeed when the exhaustive run does");
            assert_eq!(
                names(&full, root.1),
                names(&out.result, root.1),
                "facts diverged at {root:?} ({}, mode {:?}) in:\n{source}",
                family,
                out.mode,
            );
        }
    });
}
