//! Tier-1 guarantees of the fact store: incremental re-analysis is
//! byte-identical to a cold run, snapshots round-trip losslessly, and
//! every kind of damage degrades to a cold run instead of failing.

use pta_benchsuite::SUITE;
use pta_core::analysis::{analyze_recorded, AnalysisConfig};
use pta_core::Fidelity;
use pta_lint::{lint_ir, LintOptions};
use pta_store::{
    analyze_incremental, canonical_facts, parse, perturb_source, serialize, verify, ColdReason,
    Snapshot, StoreError, WarmMode,
};

fn lint_of(
    ir: &pta_simple::IrProgram,
    result: &pta_core::AnalysisResult,
) -> Vec<pta_lint::Diagnostic> {
    lint_ir(
        ir,
        result,
        Fidelity::ContextSensitive,
        &LintOptions::default(),
    )
}

/// Cold-analyses a source and snapshots the run.
fn cold_snapshot(source: &str) -> (pta_simple::IrProgram, Snapshot) {
    let ir = pta_simple::compile(source).expect("benchmark compiles");
    let run = analyze_recorded(&ir, AnalysisConfig::default()).expect("benchmark analyses");
    let lint = lint_of(&ir, &run.result);
    let snap = Snapshot::build(&ir, &AnalysisConfig::default(), &run, &lint);
    (ir, snap)
}

#[test]
fn warm_replay_of_unchanged_suite_is_byte_identical() {
    for b in SUITE {
        let (ir, snap) = cold_snapshot(b.source);
        // Round-trip through text first: the warm path must work off
        // exactly what a file would hold.
        let snap = parse(&serialize(&snap)).expect("round-trip parses");
        let cold = analyze_recorded(&ir, AnalysisConfig::default()).unwrap();
        let inc = analyze_incremental(&ir, &AnalysisConfig::default(), Some(&snap)).unwrap();
        match &inc.mode {
            WarmMode::Warm {
                seed_hits, dirty, ..
            } => {
                assert!(dirty.is_empty(), "{}: nothing is dirty", b.name);
                assert!(*seed_hits > 0, "{}: expected warm hits", b.name);
            }
            WarmMode::Cold(r) => panic!("{}: unexpectedly cold: {r:?}", b.name),
        }
        // Identical source: the result must match id-for-id, not just
        // name-for-name.
        assert_eq!(
            inc.run.result.per_stmt, cold.result.per_stmt,
            "{}: per-statement facts differ",
            b.name
        );
        assert_eq!(inc.run.result.exit_set, cold.result.exit_set, "{}", b.name);
        assert_eq!(inc.run.result.warnings, cold.result.warnings, "{}", b.name);
        assert_eq!(inc.run.result.escapes, cold.result.escapes, "{}", b.name);
        assert_eq!(
            canonical_facts(&ir, &inc.run.result),
            canonical_facts(&ir, &cold.result),
            "{}: canonical facts differ",
            b.name
        );
        assert_eq!(
            lint_of(&ir, &inc.run.result),
            lint_of(&ir, &cold.result),
            "{}: lint findings differ",
            b.name
        );
    }
}

#[test]
fn single_function_edit_matches_cold_run_on_every_benchmark() {
    for b in SUITE {
        let (_, snap) = cold_snapshot(b.source);
        let Some(mutated) = perturb_source(b.source) else {
            panic!("{}: no return statement to perturb", b.name);
        };
        let ir2 = pta_simple::compile(&mutated).expect("mutated benchmark compiles");
        let cold = analyze_recorded(&ir2, AnalysisConfig::default()).unwrap();
        let inc = analyze_incremental(&ir2, &AnalysisConfig::default(), Some(&snap)).unwrap();
        match &inc.mode {
            WarmMode::Warm { dirty, .. } => {
                assert_eq!(dirty.len(), 1, "{}: exactly one function edited", b.name);
            }
            WarmMode::Cold(r) => panic!("{}: unexpectedly cold: {r:?}", b.name),
        }
        assert_eq!(
            canonical_facts(&ir2, &inc.run.result),
            canonical_facts(&ir2, &cold.result),
            "{}: incremental facts differ from cold after edit",
            b.name
        );
        assert_eq!(
            lint_of(&ir2, &inc.run.result),
            lint_of(&ir2, &cold.result),
            "{}: lint differs after edit",
            b.name
        );
    }
}

#[test]
fn snapshot_text_round_trips_and_verifies() {
    let b = SUITE[0];
    let (_, snap) = cold_snapshot(b.source);
    let text = serialize(&snap);
    let reparsed = parse(&text).expect("parses");
    assert_eq!(serialize(&reparsed), text, "serialization is idempotent");
    let summary = verify(&text).expect("verifies");
    assert!(summary.functions > 0 && summary.nodes > 0 && summary.pairs > 0);
}

#[test]
fn every_single_byte_corruption_degrades_cleanly() {
    let b = SUITE[1];
    let (ir, snap) = cold_snapshot(b.source);
    let text = serialize(&snap);
    let bytes = text.as_bytes();
    // Sample positions across the whole file (header, checksum, every
    // section) and flip one byte at each.
    let step = (bytes.len() / 97).max(1);
    for pos in (0..bytes.len()).step_by(step) {
        let mut damaged = bytes.to_vec();
        damaged[pos] = if damaged[pos] == b'0' { b'1' } else { b'0' };
        let Ok(damaged) = String::from_utf8(damaged) else {
            continue;
        };
        match parse(&damaged) {
            // A flip that leaves the text parseable must have been
            // semantically neutral is impossible: the checksum covers
            // the payload and the header covers itself.
            Ok(_) => panic!("byte flip at {pos} went undetected"),
            Err(e) => {
                // The orchestration layer turns any of these into a
                // cold run.
                let inc = analyze_incremental(&ir, &AnalysisConfig::default(), None).unwrap();
                assert!(matches!(inc.mode, WarmMode::Cold(ColdReason::NoSnapshot)));
                drop(e);
            }
        }
    }
}

#[test]
fn version_config_and_skeleton_mismatches_fall_back_cold() {
    let b = SUITE[2];
    let (ir, snap) = cold_snapshot(b.source);

    // Foreign schema version.
    let text = serialize(&snap).replacen(pta_core::SCHEMA_VERSION, "pta.v0", 1);
    assert!(matches!(parse(&text), Err(StoreError::Version { .. })));

    // Changed configuration: warm start refuses, incremental goes cold.
    let mut other = AnalysisConfig::default();
    other.max_sym_depth += 1;
    assert!(matches!(
        pta_store::warm_start(&ir, &other, &snap),
        Err(StoreError::Config)
    ));
    let inc = analyze_incremental(&ir, &other, Some(&snap)).unwrap();
    assert!(matches!(
        inc.mode,
        WarmMode::Cold(ColdReason::Store(StoreError::Config))
    ));

    // Changed skeleton (new global): same story.
    let grown = format!("int __pta_new_global;\n{}", b.source);
    let ir3 = pta_simple::compile(&grown).unwrap();
    let inc = analyze_incremental(&ir3, &AnalysisConfig::default(), Some(&snap)).unwrap();
    assert!(matches!(
        inc.mode,
        WarmMode::Cold(ColdReason::Store(StoreError::Skeleton))
    ));
}

#[test]
fn reload_supports_queries_without_reanalysis() {
    let b = SUITE[0];
    let (ir, snap) = cold_snapshot(b.source);
    let result = pta_store::reload_result(&snap).expect("reloads");
    let fresh = analyze_recorded(&ir, AnalysisConfig::default()).unwrap();
    assert_eq!(result.per_stmt, fresh.result.per_stmt);
    assert_eq!(result.exit_set, fresh.result.exit_set);
    assert_eq!(snap.diagnostics(), lint_of(&ir, &fresh.result));
}

/// The fidelity decoder no longer knows the removed `summary` rung. A
/// snapshot whose lint findings carry that tag (the snapshot format
/// could encode it while the rung existed) is a typed error even behind
/// a valid checksum, and the incremental run falls back to a cold run
/// with the same answers.
#[test]
fn snapshot_with_retired_summary_fidelity_falls_back_cold() {
    let b = SUITE
        .iter()
        .find(|b| b.name == "hash")
        .expect("hash is in the suite");
    let (ir, snap) = cold_snapshot(b.source);
    assert!(!snap.lint.is_empty(), "hash must have findings to re-tag");
    let text = serialize(&snap);
    // Header, checksum, payload: re-tag every finding (fidelity is the
    // fourth token of an `l` line) and re-checksum the payload.
    let mut parts = text.splitn(3, '\n');
    let (header, _, payload) = (
        parts.next().unwrap(),
        parts.next().unwrap(),
        parts.next().unwrap(),
    );
    let old_payload: String = payload
        .lines()
        .map(|l| {
            let mut toks: Vec<&str> = l.split(' ').collect();
            if toks[0] == "l" {
                assert_eq!(toks[3], "context-sensitive", "{l}");
                toks[3] = "summary";
            }
            toks.join(" ") + "\n"
        })
        .collect();
    let old = format!(
        "{header}\nchecksum {:016x}\n{old_payload}",
        pta_core::fingerprint::fnv1a(old_payload.as_bytes())
    );

    let dir = std::env::temp_dir().join(format!("pta-store-retired-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hash.ptas");
    std::fs::write(&path, &old).unwrap();
    let loaded = pta_store::load(&path);
    let _ = std::fs::remove_dir_all(&dir);
    match &loaded {
        Err(StoreError::Corrupt { msg, .. }) => {
            assert!(msg.contains("bad fidelity `summary`"), "{msg}")
        }
        other => panic!("expected a typed corruption error, got {other:?}"),
    }

    let inc = analyze_incremental(&ir, &AnalysisConfig::default(), loaded.as_ref().ok()).unwrap();
    assert!(matches!(inc.mode, WarmMode::Cold(ColdReason::NoSnapshot)));
    let cold = analyze_recorded(&ir, AnalysisConfig::default()).unwrap();
    assert_eq!(
        canonical_facts(&ir, &inc.run.result),
        canonical_facts(&ir, &cold.result)
    );
    assert_eq!(lint_of(&ir, &inc.run.result), snap.diagnostics());
}
