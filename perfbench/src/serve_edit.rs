//! `serve-edit`: the suite programs as tenants of a local socket server,
//! queried by one closed-loop client that edits a tenant's source every
//! [`gen::EDIT_EVERY`] requests.
//!
//! The tenant cache holds fewer tenants than there are, so a steady
//! share of reads misses and rebuilds a tenant (load the snapshot, warm
//! analysis, lint, build and save the new snapshot with its fsync).
//! Every response is compared with the answer of a cold analysis of the
//! same source version, computed before the first set-up.

use crate::calib::{self, Meter, Stamp};
use crate::gen::{self, Step};
use crate::measure::{median, ms, tail};
use crate::pipeline::{MIN_OPS, SETUPS};
use crate::report::Outcome;
use crate::spans::{Profile, Recorder, Span, OP};
use crate::Args;
use pta_core::{AnalysisConfig, Fidelity, Pta};
use pta_store::serve::QueryMetrics;
use pta_store::server::{
    connect, serve_with, LineHandler, ListenAddr, Listener, ServeOptions, Stream,
};
use pta_store::{Router, TenantCache, TenantSpec};
use std::io::{BufRead as _, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Tenants the cache keeps resident, below the 18 configured.
pub const CAPACITY: usize = 12;
/// Requests whose per-layer counts a traced run reports.
pub const COUNT_WINDOW: usize = 2000;
/// A program name no tenant has.
const UNKNOWN: &str = "no-such-program";

/// One tenant's inputs.
pub struct Tenant {
    /// Tenant name (the suite program's).
    pub name: String,
    /// The source as shipped, and with one inert statement added
    /// (`pta_store::perturb_source`). Edits alternate between them.
    pub versions: [String; 2],
    /// Request lines (`pta_prop::serve::build_workload` with a
    /// `"program"` field).
    pub queries: Vec<String>,
}

/// Builds every tenant's inputs from the seed. Tenants are in
/// popularity order, which is fixed: the suite's order with `livc`
/// last.
///
/// # Errors
///
/// A suite program that does not compile.
pub fn tenants(seed: u64) -> Result<Vec<Tenant>, String> {
    let mut out = Vec::new();
    for (i, b) in pta_benchsuite::all_benchmarks().into_iter().enumerate() {
        let v1 = pta_store::perturb_source(b.source)
            .ok_or_else(|| format!("`{}` has no return to perturb", b.name))?;
        let ir = pta_simple::compile(b.source).map_err(|e| format!("`{}`: {e}", b.name))?;
        let mut g = gen::query_mix_rng(seed, i);
        let prefix = format!("{{\"program\":\"{}\",", b.name);
        let queries = pta_prop::serve::build_workload(&ir, &mut g)
            .into_iter()
            .map(|q| q.replacen('{', &prefix, 1))
            .collect();
        out.push(Tenant {
            name: b.name.to_owned(),
            versions: [b.source.to_owned(), v1],
            queries,
        });
    }
    Ok(out)
}

/// One tenant's expected responses: `[version][query]`.
pub type Answers = [Vec<String>; 2];

/// The expected response to every query of every tenant version, from
/// a cold analysis of that version: `[tenant][version][query]`.
///
/// # Errors
///
/// A version that fails to compile or analyse.
pub fn expected(tenants: &[Tenant]) -> Result<Vec<Answers>, String> {
    let config = AnalysisConfig::default();
    let mut out = Vec::new();
    for t in tenants {
        let mut per_version: Answers = Default::default();
        for (v, source) in t.versions.iter().enumerate() {
            let ir = pta_simple::compile(source).map_err(|e| format!("`{}`: {e}", t.name))?;
            let cold = pta_store::analyze_incremental(&ir, &config, None)
                .map_err(|e| format!("`{}`: {e}", t.name))?;
            let lint = pta_lint::lint_ir(
                &ir,
                &cold.run.result,
                Fidelity::ContextSensitive,
                &pta_lint::LintOptions::default(),
            );
            let engine = pta_store::ServeEngine::new(
                Pta {
                    ir,
                    result: cold.run.result,
                },
                lint,
            )
            .with_program(&t.name);
            per_version[v] = t.queries.iter().map(|q| engine.handle_line(q).0).collect();
        }
        out.push(per_version);
    }
    Ok(out)
}

/// The request naming [`UNKNOWN`], and its in-band error answer.
fn unknown_request() -> (String, String) {
    let line = format!("{{\"id\":0,\"program\":\"{UNKNOWN}\",\"op\":\"lint\"}}");
    let id = pta_store::json::parse("0").expect("a JSON number");
    let want = pta_store::tenant::error_response(&id, &format!("unknown program `{UNKNOWN}`"));
    (line, want)
}

/// Serve-side counts over the count window of a traced run.
#[derive(Default)]
struct ServeCounts {
    resolved: u64,
    builds: u64,
    evictions: u64,
}

/// What a traced run shares between the client and the server thread.
#[derive(Default)]
struct Tracing {
    rec: Recorder,
    /// Ids of the request being served and of its op span, published
    /// by the client before each traced send: on one closed-loop
    /// connection the server handles exactly that request next.
    op: AtomicU64,
    span: AtomicU32,
    /// Set while a traced request is in flight. Other requests (the
    /// warm-up) pass straight to the router, unrecorded.
    active: AtomicBool,
    counts: Mutex<ServeCounts>,
}

/// The router with a span around each layer call: the tenant lookup
/// (`TenantCache::resolve`, which builds on a miss) and the answer
/// (`Router::handle_text`, whose own lookup then hits).
struct TracedRouter<'a> {
    router: &'a Router,
    tracing: &'a Tracing,
}

/// Span name of a handled request, by operation.
fn handle_span(op: &str) -> &'static str {
    match op {
        "points-to" => "serve.points_to",
        "aliases?" => "serve.aliases",
        "call-targets" => "serve.call_targets",
        "lint" => "serve.lint",
        _ => "serve.other",
    }
}

impl LineHandler for TracedRouter<'_> {
    fn handle_text(&self, line: &str) -> (String, Vec<QueryMetrics>) {
        if !self.tracing.active.load(Ordering::Acquire) {
            return self.router.handle_text(line);
        }
        let (rec, op) = (&self.tracing.rec, self.tracing.op.load(Ordering::Acquire));
        let parent = self.tracing.span.load(Ordering::Acquire);
        let program = pta_store::json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("program").and_then(|p| p.as_str()).map(str::to_owned));
        let cache = self.router.cache();
        let (builds, evictions) = (cache.build_count(), cache.eviction_count());
        let resolved = rec.time("serve.resolve", op, parent, || {
            cache.resolve(program.as_deref()).is_ok()
        });
        if op < COUNT_WINDOW as u64 {
            let mut c = self.tracing.counts.lock().expect("serve counts lock");
            c.resolved += u64::from(resolved);
            c.builds += cache.build_count() - builds;
            c.evictions += cache.eviction_count() - evictions;
        }
        let start_ns = rec.now_ns();
        let (resp, metrics) = self.router.handle_text(line);
        let name = handle_span(metrics.first().map_or("?", |m| m.op.as_str()));
        rec.push(Span {
            id: rec.id(),
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns: rec.now_ns(),
        });
        (resp, metrics)
    }
}

/// A closed-loop client on one connection.
struct Client {
    writer: Stream,
    reader: BufReader<Stream>,
    line: String,
}

impl Client {
    fn connect(addr: &ListenAddr) -> Result<Client, String> {
        let writer = connect(addr).map_err(|e| format!("connect: {e}"))?;
        let deadline = Some(Duration::from_secs(60));
        let _ = writer.set_read_timeout(deadline);
        let reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends one request and waits for its answer.
    fn call(&mut self, request: &str) -> Result<&str, String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }
}

/// The client's side of a run: which version each tenant's source is
/// at, and the request stream.
struct Session<'a> {
    tenants: &'a [Tenant],
    expected: &'a [Answers],
    unknown: (String, String),
    dir: PathBuf,
    version: Vec<usize>,
    schedule: &'a mut gen::ServeSchedule,
    sent: u64,
}

/// What a stretch of the loop measured.
#[derive(Default)]
struct Measured {
    lat_ms: Vec<f64>,
    reload_ms: Vec<f64>,
    edits: Vec<(usize, usize)>,
    wall: Duration,
}

impl Session<'_> {
    fn source_path(&self, t: usize) -> PathBuf {
        self.dir.join(format!("{}.c", self.tenants[t].name))
    }

    /// Runs the schedule until `deadline` (and at least `min_requests`),
    /// checking each answer. With a recorder, each request is an op span.
    /// With a meter, each round trip is an op latency and the loop's wall
    /// time is busy time, both at reference speed.
    fn drive(
        &mut self,
        client: &mut Client,
        deadline: Instant,
        min_requests: u64,
        trace: Option<&Tracing>,
        mut meter: Option<&mut Meter>,
        result: &mut Outcome,
    ) -> Measured {
        let mut m = Measured::default();
        if let Some(meter) = meter.as_deref_mut() {
            meter.open();
        }
        let start = Instant::now();
        let first = self.sent;
        while Instant::now() < deadline || self.sent - first < min_requests {
            let step_start = Stamp::now();
            let step = self.schedule.next().expect("endless schedule");
            let mut edit_start = None;
            let (tenant, query) = match step {
                Step::Query { tenant, query } => (Some(tenant), query),
                Step::Edit { tenant, query } => {
                    let v = 1 - self.version[tenant];
                    let t0 = Instant::now();
                    if let Err(e) =
                        std::fs::write(self.source_path(tenant), &self.tenants[tenant].versions[v])
                    {
                        result.record(Err(format!("edit {}: {e}", self.tenants[tenant].name)));
                        continue;
                    }
                    self.version[tenant] = v;
                    m.edits.push((tenant, v));
                    edit_start = Some(t0);
                    (Some(tenant), query)
                }
                Step::UnknownProgram => (None, 0),
            };
            let (request, want) = match tenant {
                Some(t) => (
                    self.tenants[t].queries[query].as_str(),
                    self.expected[t][self.version[t]][query].as_str(),
                ),
                None => (self.unknown.0.as_str(), self.unknown.1.as_str()),
            };
            let op = self.sent;
            self.sent += 1;
            let span = trace.map(|tr| {
                let id = tr.rec.id();
                tr.op.store(op, Ordering::Release);
                tr.span.store(id, Ordering::Release);
                tr.active.store(true, Ordering::Release);
                (tr, id, tr.rec.now_ns())
            });
            let t0 = Stamp::now();
            let got = client.call(request).map(|r| r == want);
            let round_trip = t0.elapsed();
            let done = Instant::now();
            if let Some((tr, id, start_ns)) = span {
                tr.active.store(false, Ordering::Release);
                let rec = &tr.rec;
                rec.push(Span {
                    id,
                    parent: None,
                    op,
                    name: OP,
                    start_ns,
                    end_ns: rec.now_ns(),
                });
            }
            m.lat_ms.push(round_trip.wall_ms);
            if let Some(e0) = edit_start {
                m.reload_ms.push(ms(done - e0));
            }
            let label = tenant.map_or(UNKNOWN, |t| self.tenants[t].name.as_str());
            let broken = got.is_err();
            result.record(match got {
                Ok(true) => Ok(()),
                Ok(false) => Err(format!("{label}: wrong answer to {request}")),
                Err(e) => Err(format!("{label}: {e}")),
            });
            if let Some(meter) = meter.as_deref_mut() {
                meter.latency(round_trip);
                meter.busy(step_start.elapsed());
                meter.tick();
            }
            if broken {
                break;
            }
        }
        m.wall = start.elapsed();
        if let Some(meter) = meter {
            meter.close();
        }
        m
    }
}

/// A fresh working directory for one set-up.
fn work_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = crate::out_dir().join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("store")).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// The server's socket in `dir`, relative to the working directory where
/// it lies below it: a socket path holds at most 107 bytes, and the
/// checkout the benchmark runs in may sit deep.
///
/// The client talks to the server over a Unix-domain socket, the
/// server's other transport, not TCP loopback: over TCP the kernel's
/// network stack took a third of a round trip's CPU time (a median of
/// 32 against 24 us), a share that measures the host, not the program.
fn socket_path(dir: &Path) -> PathBuf {
    let path = dir.join("serve.sock");
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or(path)
}

/// Writes the tenant sources and builds every tenant's first snapshot
/// through the cache, least popular first, so the cache starts out
/// holding the most popular tenants.
fn start_tenants(dir: &Path, tenants: &[Tenant]) -> Result<Router, String> {
    let mut specs = Vec::new();
    for t in tenants {
        let path = dir.join(format!("{}.c", t.name));
        std::fs::write(&path, &t.versions[0]).map_err(|e| format!("{}: {e}", path.display()))?;
        specs.push(TenantSpec::from_source(&path, &dir.join("store")));
    }
    let router = Router::new(TenantCache::new(
        specs,
        CAPACITY,
        AnalysisConfig::default(),
        None,
    ));
    for t in tenants.iter().rev() {
        router.cache().resolve(Some(&t.name))?;
    }
    Ok(router)
}

/// The inputs and expected answers every set-up of a run shares.
struct Run<'a> {
    args: &'a Args,
    tenants: &'a [Tenant],
    expected: &'a [Answers],
}

impl Run<'_> {
    /// The request stream from its start.
    fn schedule(&self) -> gen::ServeSchedule {
        gen::ServeSchedule::new(
            self.args.seed,
            self.tenants.iter().map(|t| t.queries.len()).collect(),
        )
    }

    /// One set-up: inputs, snapshots, server, warm-up (one query per
    /// tenant, least popular first). Calls `body` with the session and
    /// a connected client, then stops the server and removes the files.
    fn with_setup<T>(
        &self,
        tag: &str,
        traced: Option<&Tracing>,
        schedule: &mut gen::ServeSchedule,
        body: impl FnOnce(&mut Session<'_>, &mut Client, f64) -> Result<T, String>,
    ) -> Result<T, String> {
        let kernel_before = calib::kernel_cost();
        let t0 = Stamp::now();
        let fresh = tenants(self.args.seed)?;
        let dir = work_dir(tag)?;
        let router = start_tenants(&dir, &fresh)?;
        let listener = Listener::bind(&ListenAddr::Unix(socket_path(&dir)))
            .map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr();
        let stop = AtomicBool::new(false);
        let opts = ServeOptions::default();
        let traced_router = traced.map(|tracing| TracedRouter {
            router: &router,
            tracing,
        });
        let outcome = std::thread::scope(|s| {
            let server = match &traced_router {
                Some(h) => s.spawn(|| serve_with(&listener, h, &stop, &opts)),
                None => s.spawn(|| serve_with(&listener, &router, &stop, &opts)),
            };
            let result = (|| {
                let mut client = Client::connect(&addr)?;
                let mut session = Session {
                    tenants: self.tenants,
                    expected: self.expected,
                    unknown: unknown_request(),
                    dir: dir.clone(),
                    version: vec![0; self.tenants.len()],
                    schedule,
                    sent: 0,
                };
                for (t, tenant) in self.tenants.iter().enumerate().rev() {
                    let got = client.call(&tenant.queries[0])?;
                    if got != self.expected[t][0][0] {
                        return Err(format!("{}: wrong warm-up answer", tenant.name));
                    }
                }
                let cpu_ms = t0.elapsed().cpu_ms;
                let setup_s = calib::scale(cpu_ms, kernel_before, calib::kernel_cost()) / 1e3;
                body(&mut session, &mut client, setup_s)
            })();
            stop.store(true, Ordering::Release);
            let served = server.join();
            match served {
                Ok(Ok(())) => result,
                Ok(Err(e)) => Err(format!("server: {e}")),
                Err(_) => Err("server thread panicked".to_owned()),
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
        outcome
    }
}

/// Builds the inputs and the expected answers.
fn prepare(args: &Args) -> Result<(Vec<Tenant>, Vec<Answers>), String> {
    let tenants = tenants(args.seed)?;
    let expected = expected(&tenants)?;
    Ok((tenants, expected))
}

/// Pushes the reload latencies as table notes.
fn note_reloads(result: &mut Outcome, reload_ms: &[f64]) {
    let tail_note = match tail(reload_ms) {
        Some((v, p)) => format!("reload tail {v:.4} ms (p{p:.2})"),
        None => "reload tail: too few samples".to_owned(),
    };
    result.notes.push(format!(
        "reload_p50_ms {:.4} ms (raw wall) over {} edits; {tail_note}",
        median(reload_ms),
        reload_ms.len()
    ));
}

/// The untraced run: end-to-end metrics.
///
/// # Errors
///
/// Set-up failed.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let (tenants, expected) = prepare(args)?;
    let run = Run {
        args,
        tenants: &tenants,
        expected: &expected,
    };
    let mut setup_s = Vec::new();
    let mut result = Outcome::default();
    let mut meter = Meter::new();
    let mut reload_ms = Vec::new();
    // One schedule across the segments: each takes up the stream where
    // the last one stopped.
    let mut schedule = run.schedule();
    for i in 0..SETUPS {
        let segment =
            run.with_setup(&i.to_string(), None, &mut schedule, |session, client, s| {
                setup_s.push(s);
                let deadline = Instant::now() + args.seconds.div_f64(SETUPS as f64);
                Ok(session.drive(
                    client,
                    deadline,
                    MIN_OPS.div_ceil(SETUPS) as u64,
                    None,
                    Some(&mut meter),
                    &mut result,
                ))
            })?;
        reload_ms.extend(segment.reload_ms);
    }
    crate::end_to_end(&mut result, &setup_s, &meter);
    note_reloads(&mut result, &reload_ms);
    Ok(result)
}

/// Replays the reload pipeline of each edit in `edits` through the
/// store's public functions, one op span per edit: what the tenant
/// cache does on a reload, call by call.
fn store_pass(
    rec: &Recorder,
    tenants: &[Tenant],
    edits: &[(usize, usize)],
    first_op: u64,
) -> Result<(f64, f64, f64), String> {
    let config = AnalysisConfig::default();
    let dir = work_dir("store-pass")?;
    let lint_of = |ir: &pta_simple::IrProgram, run: &pta_core::EngineRun| {
        pta_lint::lint_ir(
            ir,
            &run.result,
            Fidelity::ContextSensitive,
            &pta_lint::LintOptions::default(),
        )
    };
    let (mut kb, mut seed_hits, mut dirty) = (0.0, 0.0, 0.0);
    for (k, &(t, v)) in edits.iter().enumerate() {
        let tenant = &tenants[t];
        let path = dir.join(format!("{}.ptas", tenant.name));
        // The snapshot the reload starts from: the other version's.
        let old_ir = pta_simple::compile(&tenant.versions[1 - v]).map_err(|e| e.to_string())?;
        let old =
            pta_store::analyze_incremental(&old_ir, &config, None).map_err(|e| e.to_string())?;
        let old_snap =
            pta_store::Snapshot::build(&old_ir, &config, &old.run, &lint_of(&old_ir, &old.run));
        pta_store::save(&path, &old_snap).map_err(|e| e.to_string())?;
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let ir = pta_simple::compile(&tenant.versions[v]).map_err(|e| e.to_string())?;

        let op = first_op + k as u64;
        let id = rec.id();
        let start_ns = rec.now_ns();
        let snap = rec
            .time("store.load", op, id, || pta_store::load(&path))
            .map_err(|e| e.to_string())?;
        drop(rec.time("store.decode", op, id, || pta_store::parse(&text)));
        drop(rec.time("store.warm_start", op, id, || {
            pta_store::warm_start(&ir, &config, &snap)
        }));
        let inc = rec
            .time("store.incremental", op, id, || {
                pta_store::analyze_incremental(&ir, &config, Some(&snap))
            })
            .map_err(|e| e.to_string())?;
        let lint = lint_of(&ir, &inc.run);
        let fresh = rec.time("store.build", op, id, || {
            pta_store::Snapshot::build(&ir, &config, &inc.run, &lint)
        });
        let encoded = rec.time("store.encode", op, id, || pta_store::serialize(&fresh));
        rec.time("store.save", op, id, || pta_store::save(&path, &fresh))
            .map_err(|e| e.to_string())?;
        rec.push(Span {
            id,
            parent: None,
            op,
            name: OP,
            start_ns,
            end_ns: rec.now_ns(),
        });
        kb += encoded.len() as f64 / 1024.0;
        if let pta_store::WarmMode::Warm {
            seed_hits: hits,
            dirty: d,
            ..
        } = &inc.mode
        {
            seed_hits += *hits as f64;
            dirty += d.len() as f64;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let n = edits.len().max(1) as f64;
    Ok((kb / n, seed_hits / n, dirty / n))
}

/// The traced run: serve and store per-layer metrics, the unaccounted
/// share and the tracing overhead.
///
/// # Errors
///
/// Set-up failed.
pub fn run_traced(args: &Args) -> Result<(Outcome, Recorder), String> {
    let (tenants, expected) = prepare(args)?;
    let run = Run {
        args,
        tenants: &tenants,
        expected: &expected,
    };
    let tracing = Tracing::default();
    let mut result = Outcome::default();
    let traced = run.with_setup(
        "traced",
        Some(&tracing),
        &mut run.schedule(),
        |session, client, _| {
            let deadline = Instant::now() + args.seconds.mul_f64(0.4);
            Ok(session.drive(
                client,
                deadline,
                COUNT_WINDOW as u64,
                Some(&tracing),
                None,
                &mut result,
            ))
        },
    )?;
    // The overhead baseline: the same schedule on a plain router.
    let untraced = run.with_setup(
        "untraced",
        None,
        &mut run.schedule(),
        |session, client, _| {
            let deadline = Instant::now() + args.seconds.mul_f64(0.3);
            Ok(session.drive(client, deadline, 1, None, None, &mut result))
        },
    )?;
    let counts = tracing.counts.into_inner().expect("serve counts lock");
    let rec = tracing.rec;

    let serve_spans: Vec<Span> = rec.spans();
    let profile = Profile::of(&serve_spans);
    // The edits inside the count window, replayed through the store.
    let window_edits: Vec<(usize, usize)> = traced
        .edits
        .iter()
        .copied()
        .take(COUNT_WINDOW / gen::EDIT_EVERY)
        .collect();
    let store_first_op = 1 << 40;
    let (kb, seed_hits, dirty) = store_pass(&rec, &tenants, &window_edits, store_first_op)?;
    let store_spans: Vec<Span> = rec
        .spans()
        .into_iter()
        .filter(|s| s.op >= store_first_op)
        .collect();
    let store = Profile::of(&store_spans);

    let s = |name: &str| store.per_op_ms(name);
    result.push("store.build_ms", s("store.build"), "ms");
    result.push("store.encode_ms", s("store.encode"), "ms");
    result.push("store.decode_ms", s("store.decode"), "ms");
    result.push(
        "store.save_ms",
        (s("store.save") - s("store.encode")).max(0.0),
        "ms",
    );
    result.push(
        "store.load_ms",
        (s("store.load") - s("store.decode")).max(0.0),
        "ms",
    );
    result.push("store.snapshot_kb", kb, "KiB");
    result.push("store.warm_start_ms", s("store.warm_start"), "ms");
    result.push(
        "store.incremental_ms",
        (s("store.incremental") - s("store.warm_start")).max(0.0),
        "ms",
    );
    result.push("store.seed_hits", seed_hits, "count");
    result.push("store.dirty_funcs", dirty, "count");

    let handled: Vec<&str> = [
        "serve.points_to",
        "serve.aliases",
        "serve.call_targets",
        "serve.lint",
        "serve.other",
    ]
    .into();
    let handle_ns: u64 = handled
        .iter()
        .map(|n| profile.self_ns.get(n).copied().unwrap_or(0))
        .sum();
    let handle_calls: u64 = handled
        .iter()
        .map(|n| profile.calls.get(n).copied().unwrap_or(0))
        .sum();
    result.push(
        "serve.handle_us",
        handle_ns as f64 / handle_calls.max(1) as f64 / 1e3,
        "us",
    );
    result.push(
        "serve.points_to_us",
        profile.per_call_us("serve.points_to"),
        "us",
    );
    result.push(
        "serve.aliases_us",
        profile.per_call_us("serve.aliases"),
        "us",
    );
    result.push(
        "serve.call_targets_us",
        profile.per_call_us("serve.call_targets"),
        "us",
    );
    result.push("serve.lint_us", profile.per_call_us("serve.lint"), "us");
    result.push(
        "serve.resolve_us",
        profile.per_call_us("serve.resolve"),
        "us",
    );
    result.push(
        "serve.transport_us",
        profile.unaccounted_ns as f64 / profile.ops.max(1) as f64 / 1e3,
        "us",
    );
    result.push("serve.tenant_builds", counts.builds as f64, "count");
    result.push("serve.tenant_evictions", counts.evictions as f64, "count");
    result.push(
        "serve.cache_hit_ratio",
        if counts.resolved == 0 {
            0.0
        } else {
            1.0 - counts.builds as f64 / counts.resolved as f64
        },
        "ratio",
    );
    result.push_noted(
        "serve.reload_p50_ms",
        median(&traced.reload_ms),
        "ms",
        format!("n={}", traced.reload_ms.len()),
    );
    let (reload_tail, pct) = tail(&traced.reload_ms).unwrap_or((0.0, 0.0));
    result.push_noted(
        "serve.reload_tail_ms",
        reload_tail,
        "ms",
        format!("p{pct:.2}, n={}", traced.reload_ms.len()),
    );
    crate::push_trace_summary(
        &mut result,
        profile.unaccounted_frac(),
        median(&traced.lat_ms),
        median(&untraced.lat_ms),
    );
    result.notes.push(format!(
        "counts cover the first {COUNT_WINDOW} requests of {} traced; store times are per reload over {} replayed edits",
        traced.lat_ms.len(),
        window_edits.len()
    ));
    Ok((result, rec))
}
