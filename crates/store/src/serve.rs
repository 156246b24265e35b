//! The `pta serve` query engine: a deterministic JSONL
//! request/response protocol over a loaded fact base.
//!
//! One request per line, one response per line. Requests are flat JSON
//! objects:
//!
//! ```text
//! {"id": 1, "op": "points-to", "func": "main", "var": "p", "stmt": 4}
//! {"id": 2, "op": "aliases?", "a_func": "main", "a_var": "p", "b_func": "main", "b_var": "q"}
//! {"id": 3, "op": "call-targets", "site": 0}
//! {"id": 4, "op": "lint", "function": "main"}
//! ```
//!
//! A line may also be a JSON *array* of request objects — a batch. The
//! response is then a JSON array of the individual responses, in
//! request order, still on one line ([`ServeEngine::handle_text`]).
//!
//! `stmt` is optional for `points-to`/`aliases?`; without it the query
//! runs against the exit set of `main`. Responses echo `id`, carry
//! `"ok": true|false`, and are rendered with sorted keys and sorted
//! fact lists — byte-identical across runs and across concurrent
//! clients, which the stress harness asserts under `--jobs` (and over
//! real socket connections, see the `server` module).
//!
//! Per-query metrics (`serve-query` events: op, outcome, microseconds,
//! and the program name on multi-tenant servers) go to *stderr* so
//! stdout stays deterministic. An optional per-query budget turns
//! over-deadline answers into `"error": "budget"` responses instead of
//! stalling the daemon. Errors of any kind — unparsable lines, unknown
//! ops, bad parameters — are answered as structured error objects;
//! they never terminate the serving loop.

use crate::json::{self, escape as json_str, Json};
use pta_core::{Def, FactQuery, LocId, PtSet, Pta};
use pta_lint::Diagnostic;
use pta_simple::{CallSiteId, StmtId};
use std::time::{Duration, Instant};

/// Most request objects a single batch array may carry; longer batches
/// are answered with one in-band `too-large` error instead of being
/// dispatched (an overload guard: one line must not buy unbounded
/// work).
pub const MAX_BATCH_ITEMS: usize = 1024;

/// The in-band error message for an over-long batch.
pub(crate) fn batch_too_large(n: usize) -> String {
    format!("too-large: batch of {n} requests exceeds {MAX_BATCH_ITEMS}")
}

/// One metrics record of a served query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMetrics {
    /// The requested operation (or `?` when unparsable).
    pub op: String,
    /// Whether the query succeeded.
    pub ok: bool,
    /// Wall-clock service time in microseconds.
    pub micros: u128,
    /// The program (tenant) that answered, when the engine is labelled.
    pub program: Option<String>,
}

impl QueryMetrics {
    /// Renders the record as a `serve-query` JSONL event (the trace
    /// schema's shape: an `ev` tag plus flat fields).
    pub fn render(&self) -> String {
        let program = match &self.program {
            Some(p) => format!(",\"program\":{}", json_str(p)),
            None => String::new(),
        };
        format!(
            "{{\"ev\":\"serve-query\",\"op\":{},\"ok\":{},\"us\":{}{}}}",
            json_str(&self.op),
            self.ok,
            self.micros,
            program
        )
    }
}

/// The query engine behind `pta serve`: an analysed program, its lint
/// findings, and an optional per-query time budget.
pub struct ServeEngine {
    pta: Pta,
    lint: Vec<Diagnostic>,
    budget: Option<Duration>,
    program: Option<String>,
}

impl ServeEngine {
    /// Wraps an analysed program and its lint findings.
    pub fn new(pta: Pta, lint: Vec<Diagnostic>) -> Self {
        ServeEngine {
            pta,
            lint,
            budget: None,
            program: None,
        }
    }

    /// Sets a per-query wall-clock budget: queries that overrun answer
    /// `"error": "budget"` instead of their result.
    pub fn with_budget(mut self, budget: Option<Duration>) -> Self {
        self.budget = budget;
        self
    }

    /// Labels the engine with its tenant name; the label rides along on
    /// every metrics record.
    pub fn with_program(mut self, name: impl Into<String>) -> Self {
        self.program = Some(name.into());
        self
    }

    /// The analysed program.
    pub fn pta(&self) -> &Pta {
        &self.pta
    }

    /// Serves one request *line* (a single JSON object); always returns
    /// exactly one response line (no trailing newline) plus the metrics
    /// record for it. Batch arrays are rejected here — use
    /// [`ServeEngine::handle_text`] for the full line grammar.
    pub fn handle_line(&self, line: &str) -> (String, QueryMetrics) {
        match json::parse(line.trim()) {
            Ok(req) => self.handle_request(&req),
            Err(e) => self.error_line(&format!("bad request: {e}")),
        }
    }

    /// Serves one *text* line of the wire protocol: a single request
    /// object, or a batch (JSON array of request objects) answered as a
    /// JSON array of responses in request order. Unparsable lines get a
    /// single structured error object; batches beyond
    /// [`MAX_BATCH_ITEMS`] get an in-band `too-large` error.
    pub fn handle_text(&self, line: &str) -> (String, Vec<QueryMetrics>) {
        match json::parse(line.trim()) {
            Ok(Json::Arr(items)) if items.len() > MAX_BATCH_ITEMS => {
                let (resp, m) = self.error_line(&batch_too_large(items.len()));
                (resp, vec![m])
            }
            Ok(Json::Arr(items)) => {
                let mut parts = Vec::with_capacity(items.len());
                let mut metrics = Vec::with_capacity(items.len());
                for item in &items {
                    let (resp, m) = self.handle_request(item);
                    parts.push(resp);
                    metrics.push(m);
                }
                (format!("[{}]", parts.join(",")), metrics)
            }
            Ok(req) => {
                let (resp, m) = self.handle_request(&req);
                (resp, vec![m])
            }
            Err(e) => {
                let (resp, m) = self.error_line(&format!("bad request: {e}"));
                (resp, vec![m])
            }
        }
    }

    /// Serves one parsed request value.
    pub fn handle_request(&self, req: &Json) -> (String, QueryMetrics) {
        let t0 = Instant::now();
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let op = match req {
            Json::Obj(_) => req
                .get("op")
                .and_then(|v| v.as_str())
                .unwrap_or("?")
                .to_owned(),
            _ => "?".to_owned(),
        };
        let body = if req.is_obj() {
            self.dispatch(&op, req)
        } else {
            Err("bad request: expected a request object".to_owned())
        };
        let elapsed = t0.elapsed();
        let over = self.budget.is_some_and(|b| elapsed > b);
        let body = if over { Err("budget".to_owned()) } else { body };
        let (ok, payload) = match body {
            Ok(fields) => (true, fields),
            Err(msg) => (false, format!(",\"error\":{}", json_str(&msg))),
        };
        let line = format!("{{\"id\":{},\"ok\":{}{}}}", id.render(), ok, payload);
        let metrics = QueryMetrics {
            op,
            ok,
            micros: elapsed.as_micros(),
            program: self.program.clone(),
        };
        (line, metrics)
    }

    /// A structured error response for a line that never reached
    /// dispatch (unparsable, invalid UTF-8, ...).
    pub fn error_line(&self, msg: &str) -> (String, QueryMetrics) {
        (
            format!("{{\"id\":null,\"ok\":false,\"error\":{}}}", json_str(msg)),
            QueryMetrics {
                op: "?".to_owned(),
                ok: false,
                micros: 0,
                program: self.program.clone(),
            },
        )
    }

    /// Routes one parsed request. `Ok` carries extra response fields
    /// (each starting with a comma), `Err` a message.
    fn dispatch(&self, op: &str, req: &Json) -> Result<String, String> {
        match op {
            "points-to" => self.op_points_to(req),
            "aliases?" => self.op_aliases(req),
            "call-targets" => self.op_call_targets(req),
            "lint" => self.op_lint(req),
            "?" => Err("missing op".to_owned()),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn str_param<'a>(&self, req: &'a Json, key: &str) -> Result<&'a str, String> {
        req.get(key)
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("missing string parameter `{key}`"))
    }

    /// The points-to set at `stmt`, or the exit set of `main` when the
    /// request names no program point.
    fn set_at(&self, req: &Json) -> Result<&PtSet, String> {
        match req.get("stmt") {
            None | Some(Json::Null) => Ok(&self.pta.result.exit_set),
            Some(v) => {
                let stmt = v.as_u32().ok_or("bad `stmt` parameter")?;
                if stmt >= self.pta.ir.n_stmts {
                    return Err(format!("no such program point s{stmt}"));
                }
                Ok(self.pta.result.at(StmtId(stmt)))
            }
        }
    }

    fn resolve(&self, func: &str, var: &str) -> Result<LocId, String> {
        self.pta
            .loc_of(func, var)
            .ok_or_else(|| format!("unknown location `{var}` in `{func}`"))
    }

    fn op_points_to(&self, req: &Json) -> Result<String, String> {
        let func = self.str_param(req, "func")?;
        let var = self.str_param(req, "var")?;
        let src = self.resolve(func, var)?;
        let set = self.set_at(req)?;
        let mut targets: Vec<(String, Def)> = set
            .targets(src)
            .filter(|(t, _)| !self.pta.result.locs.is_null(*t))
            .map(|(t, d)| (self.pta.result.locs.name(t).to_owned(), d))
            .collect();
        targets.sort();
        let rendered: Vec<String> = targets
            .iter()
            .map(|(n, d)| {
                format!(
                    "{{\"name\":{},\"def\":\"{}\"}}",
                    json_str(n),
                    match d {
                        Def::D => "D",
                        Def::P => "P",
                    }
                )
            })
            .collect();
        Ok(format!(",\"targets\":[{}]", rendered.join(",")))
    }

    fn op_aliases(&self, req: &Json) -> Result<String, String> {
        let a = self.resolve(
            self.str_param(req, "a_func")?,
            self.str_param(req, "a_var")?,
        )?;
        let b = self.resolve(
            self.str_param(req, "b_func")?,
            self.str_param(req, "b_var")?,
        )?;
        let set = self.set_at(req)?;
        // Alias verdict on the definitely/possibly lattice: a common
        // non-NULL target hit definitely by both sides makes the alias
        // definite; any common target makes it possible.
        let bt: std::collections::BTreeMap<LocId, Def> = set
            .targets(b)
            .filter(|(t, _)| !self.pta.result.locs.is_null(*t))
            .collect();
        let mut verdict = "no";
        let mut common: Vec<String> = Vec::new();
        for (t, da) in set.targets(a) {
            if self.pta.result.locs.is_null(t) {
                continue;
            }
            if let Some(db) = bt.get(&t) {
                if da == Def::D && *db == Def::D {
                    verdict = "definitely";
                } else if verdict == "no" {
                    verdict = "possibly";
                }
                common.push(self.pta.result.locs.name(t).to_owned());
            }
        }
        common.sort();
        common.dedup();
        let rendered: Vec<String> = common.iter().map(|n| json_str(n)).collect();
        Ok(format!(
            ",\"alias\":{},\"common\":[{}]",
            json_str(verdict),
            rendered.join(",")
        ))
    }

    fn op_call_targets(&self, req: &Json) -> Result<String, String> {
        let site = req
            .get("site")
            .and_then(|v| v.as_u32())
            .ok_or("missing numeric parameter `site`")?;
        if site as usize >= self.pta.ir.call_sites.len() {
            return Err(format!("no such call site cs{site}"));
        }
        let q = FactQuery::new(&self.pta.ir, &self.pta.result);
        let names: Vec<String> = q
            .call_targets(CallSiteId(site))
            .into_iter()
            .map(|f| json_str(&self.pta.ir.function(f).name))
            .collect();
        Ok(format!(",\"targets\":[{}]", names.join(",")))
    }

    fn op_lint(&self, req: &Json) -> Result<String, String> {
        let filter = match req.get("function") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("bad `function` parameter")?),
        };
        let rendered: Vec<String> = self
            .lint
            .iter()
            .filter(|d| filter.is_none_or(|f| d.function == f))
            .map(|d| {
                format!(
                    "{{\"check\":{},\"severity\":{},\"fidelity\":{},\"function\":{},\"message\":{}}}",
                    json_str(d.check_id),
                    json_str(d.severity.tag()),
                    json_str(d.fidelity.tag()),
                    json_str(&d.function),
                    json_str(&d.message)
                )
            })
            .collect();
        Ok(format!(",\"findings\":[{}]", rendered.join(",")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> ServeEngine {
        let pta = pta_core::run_source(
            "int x, y;
             void set(int **p, int *v) { *p = v; }
             int main(void) { int *q; set(&q, &x); return *q; }",
        )
        .unwrap();
        let lint = pta_lint::lint_ir(
            &pta.ir,
            &pta.result,
            pta_core::Fidelity::ContextSensitive,
            &pta_lint::LintOptions::default(),
        );
        ServeEngine::new(pta, lint)
    }

    #[test]
    fn points_to_and_aliases_answer_deterministically() {
        let e = engine();
        let (r1, m) = e.handle_line(r#"{"id": 1, "op": "points-to", "func": "main", "var": "q"}"#);
        assert!(r1.starts_with("{\"id\":1,\"ok\":true"), "{r1}");
        assert!(r1.contains("\"name\":\"x\""), "{r1}");
        assert!(m.ok);
        let (r2, _) = e.handle_line(
            r#"{"id": 2, "op": "aliases?", "a_func": "main", "a_var": "q", "b_func": "main", "b_var": "q"}"#,
        );
        assert!(r2.contains("\"alias\":\"definitely\""), "{r2}");
        // Same request, same bytes.
        let (r1b, _) = e.handle_line(r#"{"id": 1, "op": "points-to", "func": "main", "var": "q"}"#);
        assert_eq!(r1, r1b);
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let e = engine();
        let (r, m) = e.handle_line("not json");
        assert!(r.starts_with("{\"id\":null,\"ok\":false"), "{r}");
        assert!(!m.ok);
        let (r, _) = e.handle_line(r#"{"op": "nope"}"#);
        assert!(r.contains("unknown op"), "{r}");
        let (r, _) = e.handle_line(r#"{"op": "points-to", "func": "main", "var": "zz"}"#);
        assert!(r.contains("unknown location"), "{r}");
    }

    #[test]
    fn lint_filter_and_call_targets() {
        let e = engine();
        let (r, _) = e.handle_line(r#"{"op": "lint"}"#);
        assert!(r.contains("\"findings\":["), "{r}");
        let (r, _) = e.handle_line(r#"{"op": "call-targets", "site": 0}"#);
        assert!(r.contains("\"set\""), "{r}");
    }

    #[test]
    fn batches_answer_an_array_of_individual_responses() {
        let e = engine();
        let q1 = r#"{"id":1,"op":"points-to","func":"main","var":"q"}"#;
        let q2 = r#"{"id":2,"op":"call-targets","site":0}"#;
        let (r1, _) = e.handle_line(q1);
        let (r2, _) = e.handle_line(q2);
        let (batch, metrics) = e.handle_text(&format!("[{q1},{q2}]"));
        assert_eq!(batch, format!("[{r1},{r2}]"));
        assert_eq!(metrics.len(), 2);
        // Empty batch, empty response, no metrics.
        let (empty, m) = e.handle_text("[]");
        assert_eq!(empty, "[]");
        assert!(m.is_empty());
        // A non-object batch element is an in-band error.
        let (r, _) = e.handle_text("[42]");
        assert!(r.starts_with("[{\"id\":null,\"ok\":false"), "{r}");
    }

    #[test]
    fn program_label_rides_on_metrics() {
        let e = engine().with_program("hash");
        let (_, m) = e.handle_line(r#"{"op":"lint"}"#);
        assert_eq!(m.program.as_deref(), Some("hash"));
        assert!(
            m.render().contains("\"program\":\"hash\""),
            "{}",
            m.render()
        );
        let (_, m) = engine().handle_line(r#"{"op":"lint"}"#);
        assert!(!m.render().contains("program"), "{}", m.render());
    }
}
