//! The three `pta lint`-shaped workloads: one op compiles a source,
//! analyses it through the resilient ladder and lints the result.

use crate::calib::{self, Meter, Stamp};
use crate::gen;
use crate::measure::{self, digest, median, ms};
use crate::report::Outcome;
use crate::spans::{Profile, Recorder, Span, OP};
use crate::{Args, Workload};
use pta_core::{
    analyze_resilient, AnalysisConfig, Fidelity, LocBase, ResilientOutcome, TraceMetrics,
};
use pta_lint::{Diagnostic, LintOptions};
use pta_simple::IrProgram;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// `call_fanout` size: about 0.2 s per op, mostly re-analysis of the
/// shared callee.
pub const FANOUT_N: usize = 1024;
/// `wide_indirect` size: about 0.35 s per op, mostly fan-out of one
/// indirect call.
pub const WIDE_N: usize = 2048;
/// Samples a measured loop takes at least, so a tail percentile with
/// ten samples beyond it exists.
pub const MIN_OPS: usize = measure::TAIL_BEYOND + 1;

/// What an op's answers are checked against.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Digests of `canonical_facts` and of the rendered diagnostics.
    Digest {
        /// Digest of `pta_store::canonical_facts`.
        facts: String,
        /// Digest of the diagnostics, one `Display` line each.
        lint: String,
    },
    /// `call_fanout(n)`, checked by construction.
    Fanout(usize),
    /// `wide_indirect(n)`, checked by construction.
    Wide(usize),
}

/// One source an op can run on.
#[derive(Debug, Clone)]
pub struct Input {
    /// Program name (suite) or variant label.
    pub name: String,
    /// C source.
    pub source: String,
    /// Expected answers.
    pub expect: Expect,
}

/// What one op produced.
pub struct Output {
    /// The SIMPLE program.
    pub ir: IrProgram,
    /// The analysis and the ladder rung that produced it.
    pub outcome: ResilientOutcome,
    /// Lint findings.
    pub diags: Vec<Diagnostic>,
}

/// One op, exactly as `pta lint FILE` runs it.
///
/// # Errors
///
/// A front-end or analysis error, rendered.
pub fn op(source: &str) -> Result<Output, String> {
    let ir = pta_simple::compile(source).map_err(|e| e.to_string())?;
    let outcome = analyze_resilient(&ir, AnalysisConfig::default()).map_err(|e| e.to_string())?;
    let diags = pta_lint::lint_ir(
        &ir,
        &outcome.result,
        outcome.fidelity,
        &LintOptions::default(),
    );
    Ok(Output { ir, outcome, diags })
}

/// The same op with a span around each layer call. Two calls are made
/// twice, because the layer API offers no other boundary: the lexer
/// runs once on its own before `parse` (which lexes again), and the
/// dataflow facts are computed once on their own before `lint_ir`
/// (which computes them again). [`layer_ms`] subtracts the
/// repeated part from the outer call's self time.
///
/// # Errors
///
/// As [`op`].
pub fn traced_op(rec: &Recorder, op: u64, source: &str) -> Result<(Output, usize), String> {
    let id = rec.id();
    let start_ns = rec.now_ns();
    let result = (|| {
        let tokens = rec
            .time("cfront.lex", op, id, || pta_cfront::lexer::lex(source))
            .map_err(|e| e.to_string())?;
        let mut ast = rec
            .time("cfront.parse", op, id, || pta_cfront::parser::parse(source))
            .map_err(|e| e.to_string())?;
        rec.time("cfront.sema", op, id, || {
            pta_cfront::sema::analyze(&mut ast)
        })
        .map_err(|e| e.to_string())?;
        let ir = rec
            .time("simple.lower", op, id, || pta_simple::lower(&ast))
            .map_err(|e| e.to_string())?;
        rec.time("simple.validate", op, id, || pta_simple::validate(&ir))
            .map_err(|e| e.to_string())?;
        let outcome = rec
            .time("core.analyze", op, id, || {
                analyze_resilient(&ir, AnalysisConfig::default())
            })
            .map_err(|e| e.to_string())?;
        if outcome.fidelity.is_full() {
            rec.time("lint.dataflow", op, id, || {
                let q = pta_core::FactQuery::new(&ir, &outcome.result);
                drop(pta_core::dataflow::ProgramDataflow::compute(&q));
            });
        }
        let diags = rec.time("lint.lint", op, id, || {
            pta_lint::lint_ir(
                &ir,
                &outcome.result,
                outcome.fidelity,
                &LintOptions::default(),
            )
        });
        Ok((Output { ir, outcome, diags }, tokens.len()))
    })();
    rec.push(Span {
        id,
        parent: None,
        op,
        name: OP,
        start_ns,
        end_ns: rec.now_ns(),
    });
    result
}

/// The diagnostics as `pta lint` prints them, one per line.
pub fn lint_text(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| format!("{d}\n")).collect()
}

/// Checks an op's answers against `expect`.
///
/// # Errors
///
/// What differs.
pub fn check(expect: &Expect, out: &Output) -> Result<(), String> {
    if out.outcome.fidelity != Fidelity::ContextSensitive {
        return Err(format!("degraded to {}", out.outcome.fidelity));
    }
    match expect {
        Expect::Digest { facts, lint } => {
            let got = digest(pta_store::canonical_facts(&out.ir, &out.outcome.result).as_bytes());
            if &got != facts {
                return Err(format!("facts digest {got}, expected {facts}"));
            }
            let got = digest(lint_text(&out.diags).as_bytes());
            if &got != lint {
                return Err(format!("lint digest {got}, expected {lint}"));
            }
            Ok(())
        }
        Expect::Fanout(n) => check_fanout(*n, out),
        Expect::Wide(n) => check_wide(*n, out),
    }
}

/// Targets of every pointer variable named `var`, per owning function
/// name, over all program points (and main's exit).
fn targets_of(out: &Output, var: &str) -> BTreeMap<String, BTreeSet<(String, bool)>> {
    let r = &out.outcome.result;
    let mut found: BTreeMap<String, BTreeSet<(String, bool)>> = BTreeMap::new();
    for set in r.per_stmt.values().chain(std::iter::once(&r.exit_set)) {
        for (a, b, d) in set.iter() {
            if r.locs.name(a) != var {
                continue;
            }
            let owner = match r.locs.get(a).base {
                LocBase::Var(f, _) => out.ir.function(f).name.clone(),
                _ => String::new(),
            };
            let definite = d == pta_core::Def::D;
            found
                .entry(owner)
                .or_default()
                .insert((r.locs.name(b).to_owned(), definite));
        }
    }
    found
}

/// `call_fanout(n)`: `main`, `n` callers and `n` contexts of `work` in
/// the invocation graph. Each caller's `q` definitely points to `g0`
/// after the call: `work` copies `v` down its chain `a0..a63`, and the
/// `&g1` / `&g2` it stores into `a20` and `a40` inside the loop are
/// overwritten (by the chain, and by `*w5 = a63`) before anything reads
/// them, so `*p = a63` stores `&g0` alone. Lint reports exactly one
/// finding, the dead store to `a20`; the one to `a40` is not reported
/// because `w5 = &a40` takes its address.
fn check_fanout(n: usize, out: &Output) -> Result<(), String> {
    let nodes = out.outcome.result.ig.stats().nodes;
    if nodes != 2 * n + 1 {
        return Err(format!(
            "{nodes} invocation-graph nodes, expected {}",
            2 * n + 1
        ));
    }
    let want: BTreeSet<(String, bool)> = [("g0".to_owned(), true)].into();
    let q = targets_of(out, "q");
    let callers = q.keys().filter(|k| k.starts_with('c')).count();
    if callers != n {
        return Err(format!("`q` has facts in {callers} callers, expected {n}"));
    }
    for (f, got) in &q {
        let pointees: BTreeSet<_> = got.iter().filter(|(t, _)| t != "null").cloned().collect();
        if pointees != want {
            return Err(format!("{f}::q points to {pointees:?}"));
        }
    }
    match &out.diags[..] {
        [d] if d.check_id == "dead-store"
            && d.function == "work"
            && d.message.contains("`a20`") => {}
        other => {
            return Err(format!(
                "lint found {:?}, expected one dead store to `a20` in `work`",
                other.iter().map(ToString::to_string).collect::<Vec<_>>()
            ))
        }
    }
    Ok(())
}

/// `wide_indirect(n)`: the one indirect call resolves to all `n`
/// targets, each analysed once under main; at main's exit `shared`
/// possibly points to every `g_i` and to nothing else.
fn check_wide(n: usize, out: &Output) -> Result<(), String> {
    let r = &out.outcome.result;
    let nodes = r.ig.stats().nodes;
    if nodes != n + 1 {
        return Err(format!(
            "{nodes} invocation-graph nodes, expected {}",
            n + 1
        ));
    }
    let q = pta_core::FactQuery::new(&out.ir, r);
    let indirect: Vec<_> = (0..out.ir.call_sites.len())
        .filter(|&i| out.ir.call_sites[i].indirect)
        .collect();
    let [site] = indirect[..] else {
        return Err(format!(
            "{} indirect call sites, expected 1",
            indirect.len()
        ));
    };
    let targets = q.call_targets(pta_simple::CallSiteId(site as u32));
    if targets.len() != n {
        return Err(format!(
            "indirect call resolves to {} targets, expected {n}",
            targets.len()
        ));
    }
    let mut exit: BTreeSet<String> = BTreeSet::new();
    for (a, b, d) in r.exit_set.iter() {
        if r.locs.name(a) == "shared" {
            if d == pta_core::Def::D {
                return Err(format!("shared definitely points to {}", r.locs.name(b)));
            }
            exit.insert(r.locs.name(b).to_owned());
        }
    }
    let want: BTreeSet<String> = (0..n).map(|i| format!("g{i}")).collect();
    if exit != want {
        return Err(format!(
            "shared points to {} globals at exit, expected g0..g{}",
            exit.len(),
            n - 1
        ));
    }
    Ok(())
}

/// The suite's expected digests: `name facts lint` per line.
pub const SUITE_EXPECTED: &str = include_str!("../expected/suite-lint.txt");

/// Parses [`SUITE_EXPECTED`]-shaped text.
///
/// # Errors
///
/// A malformed line.
pub fn parse_expected(text: &str) -> Result<BTreeMap<String, Expect>, String> {
    let mut out = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let [name, facts, lint] = f[..] else {
            return Err(format!("malformed expectation line `{line}`"));
        };
        out.insert(
            name.to_owned(),
            Expect::Digest {
                facts: facts.to_owned(),
                lint: lint.to_owned(),
            },
        );
    }
    Ok(out)
}

/// The inputs of a pipeline workload and the order ops visit them in.
/// Every stretch of `inputs.len()` ops from the start of `order` visits
/// each input once, so counts over the first such stretch repeat
/// exactly for one seed.
pub struct Inputs {
    /// Distinct sources.
    pub inputs: Vec<Input>,
    /// Input index of every op, in order (long enough for any run).
    pub order: Box<dyn Iterator<Item = usize>>,
}

/// Builds a pipeline workload's inputs from the seed. `suite` holds
/// the expected digests of the suite programs.
///
/// # Errors
///
/// A suite program without an expectation.
pub fn build_inputs(
    workload: Workload,
    seed: u64,
    n: usize,
    suite: &BTreeMap<String, Expect>,
) -> Result<Inputs, String> {
    match workload {
        Workload::SuiteLint => {
            let mut inputs = Vec::new();
            for b in pta_benchsuite::all_benchmarks() {
                let expect = suite
                    .get(b.name)
                    .cloned()
                    .ok_or_else(|| format!("no expectation for suite program `{}`", b.name))?;
                inputs.push(Input {
                    name: b.name.to_owned(),
                    source: b.source.to_owned(),
                    expect,
                });
            }
            let order = gen::SuiteRounds::new(seed, inputs.len()).flatten();
            Ok(Inputs {
                inputs,
                order: Box::new(order),
            })
        }
        Workload::FanoutCold | Workload::FnptrWide => {
            let fanout = workload == Workload::FanoutCold;
            let sources = if fanout {
                gen::variants(seed, |g| gen::fanout_variant(n, g))
            } else {
                gen::variants(seed, |g| gen::wide_variant(n, g))
            };
            let inputs: Vec<Input> = sources
                .into_iter()
                .enumerate()
                .map(|(i, source)| Input {
                    name: format!("{}-v{i}", workload.name()),
                    source,
                    expect: if fanout {
                        Expect::Fanout(n)
                    } else {
                        Expect::Wide(n)
                    },
                })
                .collect();
            let len = inputs.len();
            Ok(Inputs {
                inputs,
                order: Box::new((0..len).cycle()),
            })
        }
        Workload::ServeEdit => Err("serve-edit is not a pipeline workload".to_owned()),
    }
}

/// The workload's program size parameter.
pub fn size(workload: Workload) -> usize {
    match workload {
        Workload::FanoutCold => FANOUT_N,
        Workload::FnptrWide => WIDE_N,
        _ => 0,
    }
}

/// Runs `f` with panics turned into errors.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".to_owned()))
}

/// Set-up: generate the inputs and warm up with one op per distinct
/// input (one round for the suite).
fn setup(args: &Args, n: usize, suite: &BTreeMap<String, Expect>) -> Result<Inputs, String> {
    let inputs = build_inputs(args.workload, args.seed, n, suite)?;
    let warm = if args.workload == Workload::SuiteLint {
        inputs.inputs.len()
    } else {
        1
    };
    for input in &inputs.inputs[..warm] {
        drop(guarded(|| op(&input.source))?);
    }
    Ok(inputs)
}

/// Set-ups per run; the median is reported. A run is this many
/// segments, each a fresh set-up followed by `1 / SETUPS` of the
/// measured time, so the set-up samples are spread over the run as the
/// op samples are and drift in machine speed moves both alike.
pub const SETUPS: usize = 7;

/// Runs untraced ops until `deadline` (and at least `min_ops`),
/// checking every answer off the clock; records into `meter`.
fn run_loop(
    inputs: &mut Inputs,
    deadline: Instant,
    min_ops: usize,
    meter: &mut Meter,
    result: &mut Outcome,
) {
    let mut ops = 0;
    meter.open();
    while Instant::now() < deadline || ops < min_ops {
        let i = inputs.order.next().expect("endless order");
        let input = &inputs.inputs[i];
        let t0 = Stamp::now();
        let out = guarded(|| op(&input.source));
        meter.op(t0.elapsed());
        ops += 1;
        result.record(
            out.and_then(|o| check(&input.expect, &o).map_err(|e| format!("{}: {e}", input.name))),
        );
        meter.tick();
    }
    meter.close();
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Set-up failed.
pub fn run(args: &Args, suite: &BTreeMap<String, Expect>) -> Result<Outcome, String> {
    let n = size(args.workload);
    let mut setup_s = Vec::new();
    let mut result = Outcome::default();
    let mut meter = Meter::new();
    for _ in 0..SETUPS {
        let (inputs, s) = calib::time_s(|| setup(args, n, suite));
        let mut inputs = inputs?;
        setup_s.push(s);
        let deadline = Instant::now() + args.seconds.div_f64(SETUPS as f64);
        run_loop(
            &mut inputs,
            deadline,
            MIN_OPS.div_ceil(SETUPS),
            &mut meter,
            &mut result,
        );
    }
    crate::end_to_end(&mut result, &setup_s, &meter);
    Ok(result)
}

/// Per-layer counts of the count window, summed.
#[derive(Default)]
struct Counts {
    ops: u64,
    tokens: u64,
    ir_stmts: u64,
    diagnostics: u64,
    degraded: u64,
    core: TraceMetrics,
}

impl Counts {
    fn add(&mut self, out: &Output, tokens: usize) {
        self.ops += 1;
        self.tokens += tokens as u64;
        self.ir_stmts += u64::from(out.ir.n_stmts);
        self.diagnostics += out.diags.len() as u64;
        if !out.outcome.fidelity.is_full() {
            self.degraded += 1;
        }
        // Counts only: a second, instrumented analysis of the same IR.
        let mut core = TraceMetrics::new();
        if pta_core::analyze_traced(&out.ir, AnalysisConfig::default(), &mut core).is_err() {
            return;
        }
        let c = &mut self.core;
        c.ig_nodes += core.ig_nodes;
        c.memo_hits += core.memo_hits;
        c.memo_misses += core.memo_misses;
        c.maps += core.maps;
        c.unmaps += core.unmaps;
        c.invisibles += core.invisibles;
        c.stmt_events += core.stmt_events;
        c.steps += core.steps;
    }
}

/// Runs traced ops for `budget` (and at least `min_ops`); the first
/// `window` ops also feed `counts`.
fn traced_loop(
    rec: &Recorder,
    inputs: &mut Inputs,
    budget: Duration,
    min_ops: usize,
    counts: &mut Counts,
    window: usize,
    result: &mut Outcome,
) -> Vec<f64> {
    let start = Instant::now();
    let mut lat = Vec::new();
    while start.elapsed() < budget || lat.len() < min_ops {
        let i = inputs.order.next().expect("endless order");
        let input = &inputs.inputs[i];
        let op_id = rec.id() as u64;
        let t0 = Instant::now();
        let out = guarded(|| traced_op(rec, op_id, &input.source));
        lat.push(ms(t0.elapsed()));
        let checked = out.and_then(|(o, tokens)| {
            if (counts.ops as usize) < window {
                counts.add(&o, tokens);
            }
            check(&input.expect, &o).map_err(|e| format!("{}: {e}", input.name))
        });
        result.record(checked);
    }
    lat
}

/// Self milliseconds per op of each timed layer call, with the repeated
/// lexing and dataflow taken out of `parse` and `lint`.
fn layer_ms(p: &Profile) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let lex = p.per_op_ms("cfront.lex");
    let dataflow = p.per_op_ms("lint.dataflow");
    m.insert("cfront.lex_ms", lex);
    m.insert(
        "cfront.parse_ms",
        (p.per_op_ms("cfront.parse") - lex).max(0.0),
    );
    m.insert("cfront.sema_ms", p.per_op_ms("cfront.sema"));
    m.insert("simple.lower_ms", p.per_op_ms("simple.lower"));
    m.insert("simple.validate_ms", p.per_op_ms("simple.validate"));
    m.insert("core.analyze_ms", p.per_op_ms("core.analyze"));
    m.insert("lint.dataflow_ms", dataflow);
    m.insert(
        "lint.lint_ms",
        (p.per_op_ms("lint.lint") - dataflow).max(0.0),
    );
    m
}

/// Growth-exponent metric names, keyed by the layer metric they fit.
pub const GROWTH: [(&str, &str); 8] = [
    ("cfront.lex_ms", "growth.lex"),
    ("cfront.parse_ms", "growth.parse"),
    ("cfront.sema_ms", "growth.sema"),
    ("simple.lower_ms", "growth.lower"),
    ("simple.validate_ms", "growth.validate"),
    ("core.analyze_ms", "growth.analyze"),
    ("lint.dataflow_ms", "growth.dataflow"),
    ("lint.lint_ms", "growth.lint"),
];

/// The traced run: per-layer metrics, the unaccounted share, the
/// tracing overhead and, on the generated workloads, growth exponents
/// between `n / 4` and `n`.
///
/// # Errors
///
/// Set-up failed.
pub fn run_traced(
    args: &Args,
    suite: &BTreeMap<String, Expect>,
) -> Result<(Outcome, Recorder), String> {
    let n = size(args.workload);
    let mut inputs = setup(args, n, suite)?;
    let mut result = Outcome::default();
    // Traced ops first, so the count window starts at the same input
    // on every run of one seed.
    let rec = Recorder::new();
    let mut counts = Counts::default();
    let window = inputs.inputs.len();
    let lat = traced_loop(
        &rec,
        &mut inputs,
        args.seconds.mul_f64(0.5),
        window,
        &mut counts,
        window,
        &mut result,
    );
    let mut untraced = Meter::new();
    let deadline = Instant::now() + args.seconds.mul_f64(0.3);
    run_loop(&mut inputs, deadline, 5, &mut untraced, &mut result);
    let profile = Profile::of(&rec.spans());
    let layers = layer_ms(&profile);

    let mut growth: BTreeMap<&'static str, f64> = BTreeMap::new();
    if n > 0 {
        let small = n / 4;
        let mut small_inputs = build_inputs(args.workload, args.seed, small, suite)?;
        let small_rec = Recorder::new();
        traced_loop(
            &small_rec,
            &mut small_inputs,
            args.seconds.mul_f64(0.2),
            2 * gen::VARIANTS,
            &mut Counts::default(),
            0,
            &mut result,
        );
        let small_layers = layer_ms(&Profile::of(&small_rec.spans()));
        for (layer, name) in GROWTH {
            growth.insert(
                name,
                measure::slope(small as f64, small_layers[layer], n as f64, layers[layer]),
            );
        }
        result.notes.push(format!(
            "growth exponents fit n = {small} and n = {n} (log-log slope of self time per op)"
        ));
    }

    let ops = counts.ops.max(1) as f64;
    let c = &counts.core;
    let per_op = |x: u64| x as f64 / ops;
    let l = |k: &str| layers[k];
    result.push("cfront.lex_ms", l("cfront.lex_ms"), "ms");
    result.push("cfront.parse_ms", l("cfront.parse_ms"), "ms");
    result.push("cfront.sema_ms", l("cfront.sema_ms"), "ms");
    result.push("cfront.tokens", per_op(counts.tokens), "count");
    result.push("simple.lower_ms", l("simple.lower_ms"), "ms");
    result.push("simple.validate_ms", l("simple.validate_ms"), "ms");
    result.push("simple.ir_stmts", per_op(counts.ir_stmts), "count");
    result.push("core.analyze_ms", l("core.analyze_ms"), "ms");
    result.push("core.ig_nodes", per_op(c.ig_nodes as u64), "count");
    result.push("core.memo_hits", per_op(c.memo_hits), "count");
    result.push("core.memo_misses", per_op(c.memo_misses), "count");
    let lookups = c.memo_hits + c.memo_misses;
    result.push(
        "core.memo_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            c.memo_hits as f64 / lookups as f64
        },
        "ratio",
    );
    result.push("core.maps", per_op(c.maps), "count");
    result.push("core.unmaps", per_op(c.unmaps), "count");
    result.push("core.invisibles", per_op(c.invisibles), "count");
    result.push("core.stmt_transfers", per_op(c.stmt_events), "count");
    result.push("core.steps", per_op(c.steps), "count");
    result.push("core.degraded", per_op(counts.degraded), "count");
    result.push("lint.lint_ms", l("lint.lint_ms"), "ms");
    result.push("lint.dataflow_ms", l("lint.dataflow_ms"), "ms");
    result.push("lint.diagnostics", per_op(counts.diagnostics), "count");
    let traced_p50 = median(&lat);
    let untraced_p50 = median(&untraced.wall_ms);
    crate::push_trace_summary(
        &mut result,
        profile.unaccounted_frac(),
        traced_p50,
        untraced_p50,
    );
    for (_, name) in GROWTH {
        result.push(name, growth.get(name).copied().unwrap_or(0.0), "slope");
    }
    result.notes.push(format!(
        "counts are per op over the first {} ops; times are self time per op over {} traced ops",
        counts.ops, profile.ops
    ));
    Ok((result, rec))
}

/// The digest lines of every suite program at this commit, in the
/// format [`parse_expected`] reads.
pub fn print_expected() -> String {
    let mut out = String::from("# name facts-digest lint-digest (perfbench --print-expected)\n");
    for b in pta_benchsuite::all_benchmarks() {
        match op(b.source) {
            Ok(o) => {
                let facts = digest(pta_store::canonical_facts(&o.ir, &o.outcome.result).as_bytes());
                let lint = digest(lint_text(&o.diags).as_bytes());
                out.push_str(&format!("{} {facts} {lint}\n", b.name));
            }
            Err(e) => out.push_str(&format!("# {}: {e}\n", b.name)),
        }
    }
    out
}
