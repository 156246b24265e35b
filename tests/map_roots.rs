//! Tier-1 guarantees of the map process's program-wide roots: the
//! pointer leaves of the globals, computed once per run, and the
//! location table's live list of allocation-site heap locations. Each
//! case pins its facts (`canonical_facts`) to a golden recorded when
//! every map process still re-derived both from the whole table.

use pta_core::analysis::{analyze_recorded, AnalysisConfig};
use pta_core::location::{LocBase, LocationTable};
use pta_core::{run_source_with, Def, Fidelity, Pta};
use pta_lint::{lint_ir, LintOptions};
use pta_store::{
    analyze_incremental, canonical_facts, parse, perturb_source, serialize, Snapshot, WarmMode,
};
use std::path::PathBuf;

fn programs_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/programs/map_roots")
}

fn read(name: &str) -> String {
    let path = programs_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn heap_sites() -> AnalysisConfig {
    AnalysisConfig {
        heap_sites: true,
        ..Default::default()
    }
}

/// The site list must hold exactly the table's `HeapSite` rows, in id
/// order — what the map process used to find by scanning every row.
fn assert_site_list_complete(locs: &LocationTable) {
    let scanned: Vec<_> = locs
        .ids()
        .filter(|l| matches!(locs.get(*l).base, LocBase::HeapSite(_)))
        .collect();
    assert_eq!(locs.heap_sites(), scanned.as_slice());
}

fn analyze(source: &str, config: AnalysisConfig) -> Pta {
    let pta = run_source_with(source, config).expect("program analyses");
    assert_site_list_complete(&pta.result.locs);
    pta
}

#[test]
fn struct_global_leaves_are_projections() {
    let pta = analyze(&read("struct_globals.c"), AnalysisConfig::default());
    assert_eq!(
        canonical_facts(&pta.ir, &pta.result),
        read("struct_globals.facts")
    );
    // Facts written into field and array-element leaves by one callee
    // reach main and the later callees.
    assert_eq!(pta.exit_targets_of("main", "r"), vec![("x".into(), Def::D)]);
    assert_eq!(pta.exit_targets_of("main", "s"), vec![("y".into(), Def::D)]);
    assert!(
        pta.exit_targets_of("main", "t")
            .contains(&("z".into(), Def::P)),
        "{:?}",
        pta.exit_targets_of("main", "t")
    );
}

#[test]
fn allocation_site_first_reached_mid_run_is_visible_to_later_callees() {
    let pta = analyze(&read("late_site.c"), heap_sites());
    assert_eq!(
        canonical_facts(&pta.ir, &pta.result),
        read("late_site.facts")
    );
    assert_eq!(pta.result.locs.heap_sites().len(), 1);
    // `peek` can only see the site's contents through the site list.
    assert_eq!(pta.exit_targets_of("main", "r"), vec![("x".into(), Def::P)]);
}

#[test]
fn warm_run_rebuilds_the_site_list_from_the_restored_table() {
    let config = heap_sites();
    let v1 = read("late_site.c");
    let ir1 = pta_simple::compile(&v1).expect("compiles");
    let run = analyze_recorded(&ir1, config.clone()).expect("analyses");
    let lint = lint_ir(
        &ir1,
        &run.result,
        Fidelity::ContextSensitive,
        &LintOptions::default(),
    );
    let snap = Snapshot::build(&ir1, &config, &run, &lint);
    let snap = parse(&serialize(&snap)).expect("snapshot round-trips");

    // Editing main re-analyses it against the restored table, where the
    // site already exists before the first call.
    let v2 = perturb_source(&v1).expect("main has a return");
    let ir2 = pta_simple::compile(&v2).expect("edited program compiles");
    let warm = analyze_incremental(&ir2, &config, Some(&snap)).expect("warm run");
    match &warm.mode {
        WarmMode::Warm { dirty, .. } => assert_eq!(dirty, &["main".to_owned()]),
        WarmMode::Cold(r) => panic!("unexpectedly cold: {r:?}"),
    }
    assert_site_list_complete(&warm.run.result.locs);
    let cold = analyze(&v2, config);
    let facts = canonical_facts(&ir2, &warm.run.result);
    assert_eq!(facts, canonical_facts(&ir2, &cold.result));
    assert_eq!(facts, read("late_site_edited.facts"));
}
