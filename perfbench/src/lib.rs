//! The repository's benchmark: four seeded workloads over the PTA
//! pipeline, end-to-end metrics from an untraced run and per-layer
//! metrics from a traced one. See `README.md` for what each workload
//! stresses and which layer metric should move which end-to-end metric.

pub mod calib;
pub mod gen;
pub mod measure;
pub mod pipeline;
pub mod report;
pub mod serve_edit;
pub mod spans;

use measure::{median, tail};
use report::Outcome;
use std::time::Duration;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 18 suite programs through `pta lint`, in seeded rounds.
    SuiteLint,
    /// `call_fanout(1024)` through `pta lint`: one callee, 1024
    /// identical contexts.
    FanoutCold,
    /// `wide_indirect(2048)` through `pta lint`: one indirect call,
    /// 2048 targets.
    FnptrWide,
    /// The suite as tenants of a local socket server, queried beside edits.
    ServeEdit,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::SuiteLint,
    Workload::FanoutCold,
    Workload::FnptrWide,
    Workload::ServeEdit,
];

impl Workload {
    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SuiteLint => "suite-lint",
            Workload::FanoutCold => "fanout-cold",
            Workload::FnptrWide => "fnptr-wide",
            Workload::ServeEdit => "serve-edit",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The end-to-end metrics an untraced run prints, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics a traced run prints, with units. A workload
/// that does not exercise a layer prints 0 for it.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("cfront.lex_ms", "ms"),
    ("cfront.parse_ms", "ms"),
    ("cfront.sema_ms", "ms"),
    ("cfront.tokens", "count"),
    ("simple.lower_ms", "ms"),
    ("simple.validate_ms", "ms"),
    ("simple.ir_stmts", "count"),
    ("core.analyze_ms", "ms"),
    ("core.ig_nodes", "count"),
    ("core.memo_hits", "count"),
    ("core.memo_misses", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.maps", "count"),
    ("core.unmaps", "count"),
    ("core.invisibles", "count"),
    ("core.stmt_transfers", "count"),
    ("core.steps", "count"),
    ("core.degraded", "count"),
    ("lint.lint_ms", "ms"),
    ("lint.dataflow_ms", "ms"),
    ("lint.diagnostics", "count"),
    ("store.build_ms", "ms"),
    ("store.encode_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.save_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.snapshot_kb", "KiB"),
    ("store.warm_start_ms", "ms"),
    ("store.incremental_ms", "ms"),
    ("store.seed_hits", "count"),
    ("store.dirty_funcs", "count"),
    ("serve.handle_us", "us"),
    ("serve.points_to_us", "us"),
    ("serve.aliases_us", "us"),
    ("serve.call_targets_us", "us"),
    ("serve.lint_us", "us"),
    ("serve.resolve_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.tenant_builds", "count"),
    ("serve.tenant_evictions", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.reload_p50_ms", "ms"),
    ("serve.reload_tail_ms", "ms"),
    ("trace.unaccounted_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("growth.lex", "slope"),
    ("growth.parse", "slope"),
    ("growth.sema", "slope"),
    ("growth.lower", "slope"),
    ("growth.validate", "slope"),
    ("growth.analyze", "slope"),
    ("growth.dataflow", "slope"),
    ("growth.lint", "slope"),
];

/// Pushes the end-to-end metrics of a measured loop: every time is CPU
/// time at reference speed (see [`calib`]), with the raw wall times
/// beside it in the table.
pub fn end_to_end(result: &mut Outcome, setup_s: &[f64], meter: &calib::Meter) {
    result.push_noted(
        "setup_s",
        median(setup_s),
        "s",
        format!("median of {} set-ups", setup_s.len()),
    );
    result.push_noted(
        "op_p50_ms",
        median(&meter.lat_ms),
        "ms",
        format!(
            "n={}; wall {:.4} ms",
            meter.lat_ms.len(),
            median(&meter.wall_ms)
        ),
    );
    let (tail_ms, pct) = tail(&meter.lat_ms).unwrap_or((0.0, 0.0));
    result.push_noted(
        "op_tail_ms",
        tail_ms,
        "ms",
        format!(
            "p{pct:.2}, n={}, {} beyond; wall {:.4} ms",
            meter.lat_ms.len(),
            measure::TAIL_BEYOND,
            tail(&meter.wall_ms).map_or(0.0, |t| t.0)
        ),
    );
    result.push_noted(
        "ops_per_s",
        meter.lat_ms.len() as f64 / meter.busy_s.max(1e-9),
        "1/s",
        format!(
            "{} ops in {:.3} s; wall {:.3} s",
            meter.lat_ms.len(),
            meter.busy_s,
            meter.busy_wall_s
        ),
    );
    result.push("peak_rss_mb", measure::peak_rss_mb(), "MB");
    let kernel_cpu: Vec<f64> = meter.kernel.iter().map(|k| k.cpu_ms).collect();
    let kernel_wall: Vec<f64> = meter.kernel.iter().map(|k| k.wall_ms).collect();
    result.notes.push(format!(
        "reference kernel: median CPU {:.4} ms, wall {:.4} ms, over {} samples (nominal {} ms)",
        median(&kernel_cpu),
        median(&kernel_wall),
        meter.kernel.len(),
        calib::NOMINAL_MS
    ));
}

/// Pushes the unaccounted share and the tracing overhead.
pub fn push_trace_summary(
    result: &mut Outcome,
    unaccounted: f64,
    traced_p50: f64,
    untraced_p50: f64,
) {
    result.push("trace.unaccounted_frac", unaccounted, "ratio");
    result.push_noted(
        "trace.overhead_ms",
        traced_p50 - untraced_p50,
        "ms",
        format!("traced op_p50 {traced_p50:.4} ms"),
    );
    result.push("trace.untraced_p50_ms", untraced_p50, "ms");
}

/// Orders `result`'s metrics as `names` lists them, adding a 0 for each
/// one the workload does not exercise.
pub fn complete(result: &mut Outcome, names: &[(&'static str, &'static str)]) {
    let mut have = std::mem::take(&mut result.metrics);
    for &(name, unit) in names {
        match have.iter().position(|m| m.name == name) {
            Some(i) => result.metrics.push(have.swap_remove(i)),
            None => result.push_noted(name, 0.0, unit, "not measured on this workload".to_owned()),
        }
    }
}

/// Runs one workload as `args` asks.
///
/// # Errors
///
/// Set-up failed: no result can be printed.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (mut result, rec) = match (args.workload, args.trace) {
        (Workload::ServeEdit, false) => (serve_edit::run(args)?, None),
        (Workload::ServeEdit, true) => {
            let (r, rec) = serve_edit::run_traced(args)?;
            (r, Some(rec))
        }
        (_, trace) => {
            let suite = pipeline::parse_expected(pipeline::SUITE_EXPECTED)?;
            if trace {
                let (r, rec) = pipeline::run_traced(args, &suite)?;
                (r, Some(rec))
            } else {
                (pipeline::run(args, &suite)?, None)
            }
        }
    };
    if let Some(rec) = rec {
        let path = out_dir().join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        match rec.write_jsonl(&path) {
            Ok(()) => result
                .notes
                .push(format!("spans written to {}", path.display())),
            Err(e) => result.notes.push(format!("spans not written: {e}")),
        }
    }
    complete(
        &mut result,
        if args.trace { &PER_LAYER } else { &END_TO_END },
    );
    Ok(result)
}

/// Where runs leave spans and scratch files: `out/` beside this
/// package's manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
