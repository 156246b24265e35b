//! Self-tests of the benchmark: seeded inputs, the correctness gate,
//! and the metric contract with `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use pta_perfbench::gen::{self, ServeSchedule};
use pta_perfbench::pipeline::{self, Expect};
use pta_perfbench::{serve_edit, Args, Workload};
use pta_store::json::{self, Json};
use std::time::Duration;

/// Every generated input of one seed, rendered to bytes.
fn inputs(seed: u64) -> Vec<u8> {
    let mut out = String::new();
    for round in gen::SuiteRounds::new(seed, 18).take(3) {
        out.push_str(&format!("{round:?}\n"));
    }
    for v in gen::variants(seed, |g| gen::fanout_variant(64, g)) {
        out.push_str(&v);
    }
    for v in gen::variants(seed, |g| gen::wide_variant(64, g)) {
        out.push_str(&v);
    }
    let tenants = serve_edit::tenants(seed).expect("suite compiles");
    for t in &tenants {
        out.push_str(&t.queries.join("\n"));
    }
    let counts = tenants.iter().map(|t| t.queries.len()).collect();
    for step in ServeSchedule::new(seed, counts).take(5000) {
        out.push_str(&format!("{step:?}\n"));
    }
    out.into_bytes()
}

#[test]
fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
    let a = inputs(7);
    assert_eq!(a, inputs(7));
    assert_ne!(a, inputs(8));
}

/// A source's lines, sorted, with each selector target `fp = tK;`
/// reduced to `fp = t;`, and the targets, sorted.
fn lines_and_targets(source: &str) -> (Vec<String>, Vec<usize>) {
    let mut lines = Vec::new();
    let mut targets = Vec::new();
    for l in source.lines() {
        match l.split_once("fp = t") {
            Some((head, rest)) => {
                let (k, tail) = rest.split_once(';').expect("a selector assignment");
                targets.push(k.parse().expect("a target number"));
                lines.push(format!("{head}fp = t;{tail}"));
            }
            None => lines.push(l.to_owned()),
        }
    }
    lines.sort();
    targets.sort();
    (lines, targets)
}

/// The variants are the generators' own output reordered, so sizes and
/// answers by construction cannot drift from `pta_prop::cgen`.
#[test]
fn seeds_keep_generated_sizes() {
    for seed in [1, 2, 3] {
        let fan = gen::variants(seed, |g| gen::fanout_variant(64, g));
        let wide = gen::variants(seed, |g| gen::wide_variant(64, g));
        let base = lines_and_targets(&pta_prop::cgen::call_fanout(64));
        assert!(fan.iter().all(|v| lines_and_targets(v) == base));
        let base = lines_and_targets(&pta_prop::cgen::wide_indirect(64));
        assert_eq!(base.1, (0..64).collect::<Vec<_>>());
        assert!(wide.iter().all(|v| lines_and_targets(v) == base));
    }
}

fn suite_args() -> Args {
    Args {
        workload: Workload::SuiteLint,
        seed: 3,
        seconds: Duration::from_millis(300),
        trace: false,
    }
}

#[test]
fn recorded_expectations_pass_and_a_corrupted_one_fails() {
    let suite = pipeline::parse_expected(pipeline::SUITE_EXPECTED).expect("well-formed");
    let clean = pipeline::run(&suite_args(), &suite).expect("runs");
    assert!(clean.attempted > 0);
    assert_eq!(clean.failed, 0, "{:?}", clean.first_failure);

    let mut corrupt = suite.clone();
    let Some(Expect::Digest { facts, .. }) = corrupt.get_mut("livc") else {
        panic!("livc has a digest");
    };
    *facts = "0000000000000000".to_owned();
    let broken = pipeline::run(&suite_args(), &corrupt).expect("runs");
    assert!(broken.failed > 0 && broken.failed_frac() > 0.0);
    assert!(broken
        .first_failure
        .as_deref()
        .unwrap_or("")
        .starts_with("livc"));
}

fn metric_specs(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Runs every workload of `BENCHMARK.json` untraced and traced and
/// checks that the result line carries exactly the listed metrics with
/// their units.
#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    let dir = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = json::parse(&text).expect("BENCHMARK.json parses");
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("no workloads");
    };
    for w in workloads {
        let name = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args([
                    "--workload",
                    name,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("benchmark runs");
            assert!(out.status.success(), "{name} --trace {trace} failed");
            let stdout = String::from_utf8(out.stdout).expect("utf-8");
            let last = stdout.lines().last().expect("a result line");
            let result = json::parse(last).expect("result line is JSON");
            assert_eq!(
                result.get("correct"),
                Some(&Json::Bool(true)),
                "{name}: {last}"
            );
            let Some(Json::Obj(printed)) = result.get("metrics") else {
                panic!("{name}: no metrics object");
            };
            let want = metric_specs(&bench, key);
            assert_eq!(
                printed.len(),
                want.len(),
                "{name} --trace {trace}: metric count"
            );
            for (metric, unit) in want {
                let m = result
                    .get("metrics")
                    .and_then(|ms| ms.get(&metric))
                    .unwrap_or_else(|| panic!("{name} --trace {trace}: `{metric}` missing"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit.as_str()),
                    "{name}: {metric}"
                );
                assert!(
                    matches!(m.get("value"), Some(Json::Num(_))),
                    "{name}: {metric} value"
                );
            }
        }
    }
}
