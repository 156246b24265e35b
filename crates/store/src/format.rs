//! The on-disk snapshot format: a versioned, line-oriented,
//! deterministic text encoding with an FNV-1a payload checksum.
//!
//! Layout (`\n`-separated lines, space-separated tokens):
//!
//! ```text
//! pta-store pta.v1          header: magic + schema version
//! checksum <16 hex>         FNV-1a over every byte after this line
//! skeleton <16 hex>         program-skeleton fingerprint
//! config <16 hex>           analysis-configuration digest
//! funcs <n>                 then n  `fn <id> <fp> <name>` lines
//! syms <n>                  then n  `sym <func> <depth> <name> <ty>` lines
//! locs <n>                  then n  `loc <base> <projs> <ty> <name>` lines
//! ig <n> <root>             then n  `node …` + `mi …` + `ch …` line triples
//! caps <n>                  then n  `cap …` groups (cp/cw/ce lines)
//! result                    rs/rp, exit, warns/w, escs/e lines
//! lint <n>                  then n  `l …` lines
//! end
//! ```
//!
//! Strings are percent-encoded (every byte `<= 0x20`, `%`, and
//! `>= 0x7f`; a lone `%` is the empty string), so tokens never contain
//! whitespace and the encoding is byte-deterministic. Types use a
//! self-delimiting prefix code. Points-to sets are `src,tgt,D|P`
//! triples joined by `;` (or `0` when empty; `!` is the absent flow ⊥).
//!
//! Every parse failure is a typed [`StoreError`] — the orchestration
//! layer degrades to a cold run on any of them, never a panic.

use pta_cfront::ast::{FuncId, GlobalId};
use pta_cfront::types::{FuncSig, StructId, Type};
use pta_core::analysis::{Capture, EscapeEvent, EscapeVia};
use pta_core::fingerprint::{fnv1a, SCHEMA_VERSION};
use pta_core::invocation_graph::{IgKind, MapInfo};
use pta_core::location::{LocBase, LocData, LocId, Proj, SymbolicData};
use pta_core::points_to_set::{Def, Flow, PtSet};
use pta_core::Fidelity;
use pta_lint::Severity;
use pta_simple::{CallSiteId, IrVarId, StmtId};
use std::collections::BTreeMap;
use std::fmt;

/// The magic token opening every snapshot.
pub const MAGIC: &str = "pta-store";

/// Why a snapshot could not be used. Every variant degrades to a cold
/// run at the orchestration layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem-level failure (missing file, unreadable, …).
    Io(String),
    /// The header is not `pta-store` + the current schema version.
    Version {
        /// The header line actually found.
        found: String,
    },
    /// The payload checksum does not match its content.
    Checksum,
    /// A structural parse failure.
    Corrupt {
        /// 1-based line of the failure.
        line: usize,
        /// What was wrong.
        msg: String,
    },
    /// The snapshot was taken from a program with a different skeleton
    /// (globals/structs/signatures), so its dense ids are meaningless.
    Skeleton,
    /// The snapshot was taken under a different analysis configuration.
    Config,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Version { found } => {
                write!(
                    f,
                    "unsupported snapshot header `{found}` (want `{MAGIC} {SCHEMA_VERSION}`)"
                )
            }
            StoreError::Checksum => write!(f, "snapshot payload checksum mismatch"),
            StoreError::Corrupt { line, msg } => {
                write!(f, "corrupt snapshot at line {line}: {msg}")
            }
            StoreError::Skeleton => {
                write!(f, "snapshot is for a program with a different skeleton")
            }
            StoreError::Config => write!(f, "snapshot was taken under a different configuration"),
        }
    }
}

impl std::error::Error for StoreError {}

/// One function's identity row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnRow {
    /// Dense function id (valid because the skeleton matched).
    pub func: u32,
    /// Source fingerprint at save time.
    pub fp: u64,
    /// Name (diagnostics only; ids are authoritative).
    pub name: String,
}

/// One invocation-graph node, in absolute (snapshot-wide) ids.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// Invoked function.
    pub func: u32,
    /// Parent node (`None` for the root).
    pub parent: Option<u32>,
    /// Node kind.
    pub kind: IgKind,
    /// Approximate nodes: the matching recursive node.
    pub rec: Option<u32>,
    /// Memo validity.
    pub memo_valid: bool,
    /// Memoized input.
    pub stored_input: Option<PtSet>,
    /// Memoized output.
    pub stored_output: Flow,
    /// Per-context map information.
    pub map_info: MapInfo,
    /// Children as `(call site, callee func, node id)`.
    pub children: Vec<(u32, u32, u32)>,
}

/// One persisted lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintRow {
    /// Stable check id (validated against the registry at parse time).
    pub check_id: String,
    /// Finding severity.
    pub severity: Severity,
    /// Fidelity of the producing engine.
    pub fidelity: Fidelity,
    /// Enclosing function name.
    pub function: String,
    /// Program point, if statement-tied.
    pub stmt: Option<u32>,
    /// Source span as `(start, end, line, col)`.
    pub span: (usize, usize, u32, u32),
    /// Message text.
    pub message: String,
}

/// A parsed snapshot: everything a warm start or a serve engine needs,
/// in program-independent form (dense ids are validated against the
/// skeleton fingerprint before use).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Skeleton fingerprint of the source program.
    pub skeleton: u64,
    /// Digest of the analysis configuration.
    pub config: u64,
    /// Per-function fingerprints.
    pub functions: Vec<FnRow>,
    /// Symbolic-name registry in creation order.
    pub syms: Vec<SymbolicData>,
    /// Location rows in id order.
    pub locs: Vec<LocData>,
    /// Invocation-graph nodes in id order.
    pub nodes: Vec<NodeRow>,
    /// Root node id.
    pub root: Option<u32>,
    /// Captured side outputs per node id.
    pub captures: BTreeMap<u32, Capture>,
    /// Final merged per-statement facts.
    pub per_stmt: BTreeMap<StmtId, PtSet>,
    /// Final exit set of `main`.
    pub exit_set: PtSet,
    /// Final warnings, in emission order.
    pub warnings: Vec<String>,
    /// Final escape events, in emission order.
    pub escapes: Vec<EscapeEvent>,
    /// Lint findings of the saved run.
    pub lint: Vec<LintRow>,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            skeleton: 0,
            config: 0,
            functions: Vec::new(),
            syms: Vec::new(),
            locs: Vec::new(),
            nodes: Vec::new(),
            root: None,
            captures: BTreeMap::new(),
            per_stmt: BTreeMap::new(),
            exit_set: PtSet::new(),
            warnings: Vec::new(),
            escapes: Vec::new(),
            lint: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------
// String encoding
// ---------------------------------------------------------------------

/// Percent-encodes a string into a single whitespace-free token. The
/// empty string becomes a lone `%`.
pub fn enc_str(s: &str) -> String {
    if s.is_empty() {
        return "%".to_owned();
    }
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        if b <= 0x20 || b == b'%' || b >= 0x7f {
            out.push('%');
            out.push_str(&format!("{b:02x}"));
        } else {
            out.push(b as char);
        }
    }
    out
}

/// Decodes [`enc_str`].
pub fn dec_str(tok: &str) -> Result<String, String> {
    if tok == "%" {
        return Ok(String::new());
    }
    let bytes = tok.as_bytes();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| "truncated percent escape".to_owned())?;
            let hex = std::str::from_utf8(hex).map_err(|_| "bad percent escape".to_owned())?;
            let v = u8::from_str_radix(hex, 16).map_err(|_| "bad percent escape".to_owned())?;
            out.push(v);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| "escaped string is not UTF-8".to_owned())
}

// ---------------------------------------------------------------------
// Type encoding (self-delimiting prefix code)
// ---------------------------------------------------------------------

fn enc_ty_into(t: &Type, out: &mut String) {
    match t {
        Type::Void => out.push('v'),
        Type::Int => out.push('i'),
        Type::Char => out.push('c'),
        Type::Double => out.push('d'),
        Type::Pointer(inner) => {
            out.push('p');
            enc_ty_into(inner, out);
        }
        Type::Array(elem, n) => {
            out.push('A');
            match n {
                Some(n) => out.push_str(&n.to_string()),
                None => out.push('?'),
            }
            out.push(';');
            enc_ty_into(elem, out);
        }
        Type::Struct(sid) => {
            out.push('s');
            out.push_str(&sid.0.to_string());
            out.push(';');
        }
        Type::Func(sig) => {
            out.push('f');
            out.push_str(&sig.params.len().to_string());
            out.push(';');
            for p in &sig.params {
                enc_ty_into(p, out);
            }
            out.push(if sig.variadic { 'V' } else { '.' });
            enc_ty_into(&sig.ret, out);
        }
    }
}

/// Encodes a type as a whitespace-free token.
pub fn enc_ty(t: &Type) -> String {
    let mut s = String::new();
    enc_ty_into(t, &mut s);
    s
}

/// Encodes an optional type (`-` is `None`).
pub fn enc_opt_ty(t: &Option<Type>) -> String {
    match t {
        Some(t) => enc_ty(t),
        None => "-".to_owned(),
    }
}

struct Cur<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cur<'_> {
    fn next(&mut self) -> Result<u8, String> {
        let c = *self.b.get(self.i).ok_or("truncated type")?;
        self.i += 1;
        Ok(c)
    }

    fn number(&mut self) -> Result<u64, String> {
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return Err("expected a number in type".to_owned());
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "bad number in type".to_owned())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.next()? != c {
            return Err(format!("expected `{}` in type", c as char));
        }
        Ok(())
    }
}

fn dec_ty_cur(c: &mut Cur) -> Result<Type, String> {
    match c.next()? {
        b'v' => Ok(Type::Void),
        b'i' => Ok(Type::Int),
        b'c' => Ok(Type::Char),
        b'd' => Ok(Type::Double),
        b'p' => Ok(Type::Pointer(Box::new(dec_ty_cur(c)?))),
        b'A' => {
            let n = if c.b.get(c.i) == Some(&b'?') {
                c.i += 1;
                None
            } else {
                Some(c.number()?)
            };
            c.expect(b';')?;
            Ok(Type::Array(Box::new(dec_ty_cur(c)?), n))
        }
        b's' => {
            let id = c.number()? as u32;
            c.expect(b';')?;
            Ok(Type::Struct(StructId(id)))
        }
        b'f' => {
            let k = c.number()? as usize;
            c.expect(b';')?;
            if k > 4096 {
                return Err("implausible parameter count in type".to_owned());
            }
            let mut params = Vec::with_capacity(k);
            for _ in 0..k {
                params.push(dec_ty_cur(c)?);
            }
            let variadic = match c.next()? {
                b'V' => true,
                b'.' => false,
                _ => return Err("bad variadic marker in type".to_owned()),
            };
            let ret = dec_ty_cur(c)?;
            Ok(Type::Func(Box::new(FuncSig {
                ret,
                params,
                variadic,
            })))
        }
        other => Err(format!("unknown type tag `{}`", other as char)),
    }
}

/// Decodes [`enc_ty`].
pub fn dec_ty(tok: &str) -> Result<Type, String> {
    let mut c = Cur {
        b: tok.as_bytes(),
        i: 0,
    };
    let t = dec_ty_cur(&mut c)?;
    if c.i != c.b.len() {
        return Err("trailing bytes after type".to_owned());
    }
    Ok(t)
}

/// Decodes [`enc_opt_ty`].
pub fn dec_opt_ty(tok: &str) -> Result<Option<Type>, String> {
    if tok == "-" {
        return Ok(None);
    }
    dec_ty(tok).map(Some)
}

// ---------------------------------------------------------------------
// Points-to sets, locations
// ---------------------------------------------------------------------

fn def_tag(d: Def) -> &'static str {
    match d {
        Def::D => "D",
        Def::P => "P",
    }
}

fn dec_def(s: &str) -> Result<Def, String> {
    match s {
        "D" => Ok(Def::D),
        "P" => Ok(Def::P),
        _ => Err(format!("bad definiteness `{s}`")),
    }
}

/// Encodes a points-to set (`0` when empty).
pub fn enc_ptset(s: &PtSet) -> String {
    if s.is_empty() {
        return "0".to_owned();
    }
    let mut out = String::new();
    for (i, (a, b, d)) in s.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&format!("{},{},{}", a.0, b.0, def_tag(d)));
    }
    out
}

/// Decodes [`enc_ptset`].
pub fn dec_ptset(tok: &str) -> Result<PtSet, String> {
    let mut set = PtSet::new();
    if tok == "0" {
        return Ok(set);
    }
    for t in tok.split(';') {
        let mut it = t.split(',');
        let a: u32 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or("bad points-to triple")?;
        let b: u32 = it
            .next()
            .and_then(|x| x.parse().ok())
            .ok_or("bad points-to triple")?;
        let d = dec_def(it.next().ok_or("bad points-to triple")?)?;
        if it.next().is_some() {
            return Err("bad points-to triple".to_owned());
        }
        set.insert(LocId(a), LocId(b), d);
    }
    Ok(set)
}

/// Encodes a flow value (`!` is ⊥).
pub fn enc_flow(f: &Flow) -> String {
    match f {
        None => "!".to_owned(),
        Some(s) => enc_ptset(s),
    }
}

/// Decodes [`enc_flow`].
pub fn dec_flow(tok: &str) -> Result<Flow, String> {
    if tok == "!" {
        return Ok(None);
    }
    dec_ptset(tok).map(Some)
}

fn enc_base(b: &LocBase) -> String {
    match b {
        LocBase::Global(g) => format!("g{}", g.0),
        LocBase::Var(f, v) => format!("V{}.{}", f.0, v.0),
        LocBase::Symbolic(f, i) => format!("y{}.{}", f.0, i),
        LocBase::Heap => "h".to_owned(),
        LocBase::HeapSite(s) => format!("H{s}"),
        LocBase::Null => "n".to_owned(),
        LocBase::StrLit => "S".to_owned(),
        LocBase::Function(f) => format!("F{}", f.0),
        LocBase::Ret(f) => format!("r{}", f.0),
    }
}

fn dec_base(tok: &str) -> Result<LocBase, String> {
    let pair = |rest: &str| -> Result<(u32, u32), String> {
        let (a, b) = rest.split_once('.').ok_or("bad location base")?;
        Ok((
            a.parse().map_err(|_| "bad location base")?,
            b.parse().map_err(|_| "bad location base")?,
        ))
    };
    let num = |rest: &str| -> Result<u32, String> {
        rest.parse().map_err(|_| "bad location base".to_owned())
    };
    match tok.split_at(1) {
        ("g", rest) => Ok(LocBase::Global(GlobalId(num(rest)?))),
        ("V", rest) => {
            let (f, v) = pair(rest)?;
            Ok(LocBase::Var(FuncId(f), IrVarId(v)))
        }
        ("y", rest) => {
            let (f, i) = pair(rest)?;
            Ok(LocBase::Symbolic(FuncId(f), i))
        }
        ("h", "") => Ok(LocBase::Heap),
        ("H", rest) => Ok(LocBase::HeapSite(num(rest)?)),
        ("n", "") => Ok(LocBase::Null),
        ("S", "") => Ok(LocBase::StrLit),
        ("F", rest) => Ok(LocBase::Function(FuncId(num(rest)?))),
        ("r", rest) => Ok(LocBase::Ret(FuncId(num(rest)?))),
        _ => Err(format!("unknown location base `{tok}`")),
    }
}

fn enc_projs(ps: &[Proj]) -> String {
    if ps.is_empty() {
        return "-".to_owned();
    }
    let mut out = String::new();
    for (i, p) in ps.iter().enumerate() {
        if i > 0 {
            out.push('/');
        }
        match p {
            Proj::Field(f) => {
                out.push('f');
                out.push_str(&enc_str(f));
            }
            Proj::Head => out.push('h'),
            Proj::Tail => out.push('t'),
        }
    }
    out
}

fn dec_projs(tok: &str) -> Result<Vec<Proj>, String> {
    if tok == "-" {
        return Ok(Vec::new());
    }
    tok.split('/')
        .map(|p| match p.split_at(1) {
            ("f", rest) => Ok(Proj::Field(dec_str(rest)?)),
            ("h", "") => Ok(Proj::Head),
            ("t", "") => Ok(Proj::Tail),
            _ => Err(format!("unknown projection `{p}`")),
        })
        .collect()
}

fn enc_opt_u32(v: Option<u32>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "-".to_owned(),
    }
}

fn dec_opt_u32(tok: &str) -> Result<Option<u32>, String> {
    if tok == "-" {
        return Ok(None);
    }
    tok.parse().map(Some).map_err(|_| "bad number".to_owned())
}

fn kind_tag(k: IgKind) -> &'static str {
    match k {
        IgKind::Ordinary => "o",
        IgKind::Recursive => "r",
        IgKind::Approximate => "a",
    }
}

fn dec_kind(tok: &str) -> Result<IgKind, String> {
    match tok {
        "o" => Ok(IgKind::Ordinary),
        "r" => Ok(IgKind::Recursive),
        "a" => Ok(IgKind::Approximate),
        _ => Err(format!("bad node kind `{tok}`")),
    }
}

fn via_tag(v: EscapeVia) -> &'static str {
    match v {
        EscapeVia::Unmap => "u",
        EscapeVia::Return => "r",
    }
}

fn dec_via(tok: &str) -> Result<EscapeVia, String> {
    match tok {
        "u" => Ok(EscapeVia::Unmap),
        "r" => Ok(EscapeVia::Return),
        _ => Err(format!("bad escape kind `{tok}`")),
    }
}

fn enc_escape(e: &EscapeEvent) -> String {
    format!(
        "{} {} {} {} {}",
        e.callee.0,
        e.call_site.0,
        via_tag(e.via),
        def_tag(e.def),
        enc_str(&e.local)
    )
}

fn dec_severity(tok: &str) -> Result<Severity, String> {
    match tok {
        "warning" => Ok(Severity::Warning),
        "error" => Ok(Severity::Error),
        _ => Err(format!("bad severity `{tok}`")),
    }
}

fn dec_fidelity(tok: &str) -> Result<Fidelity, String> {
    for f in [
        Fidelity::ContextSensitive,
        Fidelity::ContextInsensitive,
        Fidelity::Andersen,
        Fidelity::Steensgaard,
    ] {
        if f.tag() == tok {
            return Ok(f);
        }
    }
    Err(format!("bad fidelity `{tok}`"))
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

/// Renders a snapshot as its canonical text form (header, checksum,
/// payload). Serializing the same snapshot always yields the same
/// bytes.
pub fn serialize(snap: &Snapshot) -> String {
    use std::fmt::Write as _;
    let mut p = String::new();
    let _ = writeln!(p, "skeleton {:016x}", snap.skeleton);
    let _ = writeln!(p, "config {:016x}", snap.config);
    let _ = writeln!(p, "funcs {}", snap.functions.len());
    for f in &snap.functions {
        let _ = writeln!(p, "fn {} {:016x} {}", f.func, f.fp, enc_str(&f.name));
    }
    let _ = writeln!(p, "syms {}", snap.syms.len());
    for s in &snap.syms {
        let _ = writeln!(
            p,
            "sym {} {} {} {}",
            s.func.0,
            s.depth,
            enc_str(&s.name),
            enc_opt_ty(&s.ty)
        );
    }
    let _ = writeln!(p, "locs {}", snap.locs.len());
    for l in &snap.locs {
        let _ = writeln!(
            p,
            "loc {} {} {} {}",
            enc_base(&l.base),
            enc_projs(&l.projs),
            enc_opt_ty(&l.ty),
            enc_str(&l.name)
        );
    }
    let _ = writeln!(p, "ig {} {}", snap.nodes.len(), enc_opt_u32(snap.root));
    for n in &snap.nodes {
        let _ = writeln!(
            p,
            "node {} {} {} {} {} {} {}",
            n.func,
            enc_opt_u32(n.parent),
            kind_tag(n.kind),
            enc_opt_u32(n.rec),
            u8::from(n.memo_valid),
            match &n.stored_input {
                Some(s) => enc_ptset(s),
                None => "!".to_owned(),
            },
            enc_flow(&n.stored_output)
        );
        let mut mi = format!("mi {}", n.map_info.len());
        for (k, v) in &n.map_info {
            let reps: Vec<String> = v.iter().map(|l| l.0.to_string()).collect();
            let _ = write!(mi, " {}={}", k.0, reps.join(","));
        }
        p.push_str(&mi);
        p.push('\n');
        let mut ch = format!("ch {}", n.children.len());
        for (cs, f, id) in &n.children {
            let _ = write!(ch, " {cs},{f},{id}");
        }
        p.push_str(&ch);
        p.push('\n');
    }
    let _ = writeln!(p, "caps {}", snap.captures.len());
    for (node, cap) in &snap.captures {
        let _ = writeln!(
            p,
            "cap {} {} {} {} {}",
            node,
            u8::from(cap.complete),
            cap.per_stmt.len(),
            cap.warnings.len(),
            cap.escapes.len()
        );
        for (id, set) in &cap.per_stmt {
            let _ = writeln!(p, "cp {} {}", id.0, enc_ptset(set));
        }
        for w in &cap.warnings {
            let _ = writeln!(p, "cw {}", enc_str(w));
        }
        for e in &cap.escapes {
            let _ = writeln!(p, "ce {}", enc_escape(e));
        }
    }
    let _ = writeln!(p, "result");
    let _ = writeln!(p, "rs {}", snap.per_stmt.len());
    for (id, set) in &snap.per_stmt {
        let _ = writeln!(p, "rp {} {}", id.0, enc_ptset(set));
    }
    let _ = writeln!(p, "exit {}", enc_ptset(&snap.exit_set));
    let _ = writeln!(p, "warns {}", snap.warnings.len());
    for w in &snap.warnings {
        let _ = writeln!(p, "w {}", enc_str(w));
    }
    let _ = writeln!(p, "escs {}", snap.escapes.len());
    for e in &snap.escapes {
        let _ = writeln!(p, "e {}", enc_escape(e));
    }
    let _ = writeln!(p, "lint {}", snap.lint.len());
    for l in &snap.lint {
        let _ = writeln!(
            p,
            "l {} {} {} {} {} {} {} {} {} {}",
            enc_str(&l.check_id),
            l.severity.tag(),
            l.fidelity.tag(),
            enc_opt_u32(l.stmt),
            l.span.0,
            l.span.1,
            l.span.2,
            l.span.3,
            enc_str(&l.function),
            enc_str(&l.message)
        );
    }
    let _ = writeln!(p, "end");

    let mut out = String::with_capacity(p.len() + 64);
    let _ = writeln!(out, "{MAGIC} {SCHEMA_VERSION}");
    let _ = writeln!(out, "checksum {:016x}", fnv1a(p.as_bytes()));
    out.push_str(&p);
    out
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

struct Parser<'a> {
    lines: std::str::Lines<'a>,
    line_no: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, StoreError> {
        Err(StoreError::Corrupt {
            line: self.line_no,
            msg: msg.into(),
        })
    }

    /// Next line split into tokens; the first token must equal `tag`.
    fn line(&mut self, tag: &str) -> Result<Vec<&'a str>, StoreError> {
        let Some(l) = self.lines.next() else {
            return Err(StoreError::Corrupt {
                line: self.line_no + 1,
                msg: format!("unexpected end of snapshot (wanted `{tag}`)"),
            });
        };
        self.line_no += 1;
        let toks: Vec<&str> = l.split(' ').collect();
        if toks.first() != Some(&tag) {
            return self.err(format!(
                "expected a `{tag}` line, found `{}`",
                toks.first().unwrap_or(&"")
            ));
        }
        Ok(toks)
    }

    fn count(&self, toks: &[&str], at: usize) -> Result<usize, StoreError> {
        toks.get(at)
            .and_then(|t| t.parse().ok())
            .ok_or(StoreError::Corrupt {
                line: self.line_no,
                msg: "bad count".to_owned(),
            })
    }

    fn tok<'b>(&self, toks: &[&'b str], at: usize) -> Result<&'b str, StoreError> {
        toks.get(at).copied().ok_or(StoreError::Corrupt {
            line: self.line_no,
            msg: "missing token".to_owned(),
        })
    }

    fn u32_at(&self, toks: &[&str], at: usize) -> Result<u32, StoreError> {
        self.tok(toks, at)?
            .parse()
            .map_err(|_| StoreError::Corrupt {
                line: self.line_no,
                msg: "bad number".to_owned(),
            })
    }

    fn hex_at(&self, toks: &[&str], at: usize) -> Result<u64, StoreError> {
        u64::from_str_radix(self.tok(toks, at)?, 16).map_err(|_| StoreError::Corrupt {
            line: self.line_no,
            msg: "bad hex value".to_owned(),
        })
    }

    fn map<T>(&self, r: Result<T, String>) -> Result<T, StoreError> {
        r.map_err(|msg| StoreError::Corrupt {
            line: self.line_no,
            msg,
        })
    }
}

/// Parses (and checksums) snapshot text.
///
/// # Errors
///
/// [`StoreError::Version`] for a foreign header, [`StoreError::Checksum`]
/// for payload damage the structural parser cannot even reach, and
/// [`StoreError::Corrupt`] (with a line number) for structural damage.
pub fn parse(text: &str) -> Result<Snapshot, StoreError> {
    // Header and checksum lines are handled before line-based parsing so
    // a corrupt count cannot desynchronize them.
    let mut head = text.splitn(3, '\n');
    let magic = head.next().unwrap_or("");
    if magic != format!("{MAGIC} {SCHEMA_VERSION}") {
        return Err(StoreError::Version {
            found: magic.to_owned(),
        });
    }
    let csum_line = head.next().unwrap_or("");
    let payload = head.next().unwrap_or("");
    let Some(csum) = csum_line.strip_prefix("checksum ") else {
        return Err(StoreError::Corrupt {
            line: 2,
            msg: "missing checksum line".to_owned(),
        });
    };
    let csum = u64::from_str_radix(csum, 16).map_err(|_| StoreError::Corrupt {
        line: 2,
        msg: "bad checksum value".to_owned(),
    })?;
    if fnv1a(payload.as_bytes()) != csum {
        return Err(StoreError::Checksum);
    }

    let mut p = Parser {
        lines: payload.lines(),
        line_no: 2,
    };
    let mut snap = Snapshot::default();

    let t = p.line("skeleton")?;
    snap.skeleton = p.hex_at(&t, 1)?;
    let t = p.line("config")?;
    snap.config = p.hex_at(&t, 1)?;

    let t = p.line("funcs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("fn")?;
        snap.functions.push(FnRow {
            func: p.u32_at(&t, 1)?,
            fp: p.hex_at(&t, 2)?,
            name: p.map(dec_str(p.tok(&t, 3)?))?,
        });
    }

    let t = p.line("syms")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("sym")?;
        snap.syms.push(SymbolicData {
            func: FuncId(p.u32_at(&t, 1)?),
            depth: p.u32_at(&t, 2)?,
            name: p.map(dec_str(p.tok(&t, 3)?))?,
            ty: p.map(dec_opt_ty(p.tok(&t, 4)?))?,
        });
    }

    let t = p.line("locs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("loc")?;
        snap.locs.push(LocData {
            base: p.map(dec_base(p.tok(&t, 1)?))?,
            projs: p.map(dec_projs(p.tok(&t, 2)?))?,
            ty: p.map(dec_opt_ty(p.tok(&t, 3)?))?,
            name: p.map(dec_str(p.tok(&t, 4)?))?,
        });
    }

    let t = p.line("ig")?;
    let n = p.count(&t, 1)?;
    snap.root = p.map(dec_opt_u32(p.tok(&t, 2)?))?;
    for _ in 0..n {
        let t = p.line("node")?;
        let stored_input = match p.tok(&t, 6)? {
            "!" => None,
            s => Some(p.map(dec_ptset(s))?),
        };
        let mut row = NodeRow {
            func: p.u32_at(&t, 1)?,
            parent: p.map(dec_opt_u32(p.tok(&t, 2)?))?,
            kind: p.map(dec_kind(p.tok(&t, 3)?))?,
            rec: p.map(dec_opt_u32(p.tok(&t, 4)?))?,
            memo_valid: p.u32_at(&t, 5)? != 0,
            stored_input,
            stored_output: p.map(dec_flow(p.tok(&t, 7)?))?,
            map_info: MapInfo::new(),
            children: Vec::new(),
        };
        let t = p.line("mi")?;
        let k = p.count(&t, 1)?;
        for i in 0..k {
            let entry = p.tok(&t, 2 + i)?;
            let Some((key, reps)) = entry.split_once('=') else {
                return p.err("bad map-info entry");
            };
            let key: u32 = match key.parse() {
                Ok(k) => k,
                Err(_) => return p.err("bad map-info key"),
            };
            let mut locs = Vec::new();
            if !reps.is_empty() {
                for r in reps.split(',') {
                    match r.parse::<u32>() {
                        Ok(v) => locs.push(LocId(v)),
                        Err(_) => return p.err("bad map-info value"),
                    }
                }
            }
            row.map_info.insert(LocId(key), locs);
        }
        let t = p.line("ch")?;
        let k = p.count(&t, 1)?;
        for i in 0..k {
            let entry = p.tok(&t, 2 + i)?;
            let parts: Vec<&str> = entry.split(',').collect();
            if parts.len() != 3 {
                return p.err("bad child entry");
            }
            let nums: Option<Vec<u32>> = parts.iter().map(|s| s.parse().ok()).collect();
            let Some(nums) = nums else {
                return p.err("bad child entry");
            };
            row.children.push((nums[0], nums[1], nums[2]));
        }
        snap.nodes.push(row);
    }

    let t = p.line("caps")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("cap")?;
        let node = p.u32_at(&t, 1)?;
        let complete = p.u32_at(&t, 2)? != 0;
        let (np, nw, ne) = (p.count(&t, 3)?, p.count(&t, 4)?, p.count(&t, 5)?);
        let mut cap = Capture::new();
        cap.complete = complete;
        for _ in 0..np {
            let t = p.line("cp")?;
            cap.per_stmt
                .insert(StmtId(p.u32_at(&t, 1)?), p.map(dec_ptset(p.tok(&t, 2)?))?);
        }
        for _ in 0..nw {
            let t = p.line("cw")?;
            cap.warnings.push(p.map(dec_str(p.tok(&t, 1)?))?);
        }
        for _ in 0..ne {
            let t = p.line("ce")?;
            cap.escapes.push(parse_escape(&p, &t)?);
        }
        snap.captures.insert(node, cap);
    }

    p.line("result")?;
    let t = p.line("rs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("rp")?;
        snap.per_stmt
            .insert(StmtId(p.u32_at(&t, 1)?), p.map(dec_ptset(p.tok(&t, 2)?))?);
    }
    let t = p.line("exit")?;
    snap.exit_set = p.map(dec_ptset(p.tok(&t, 1)?))?;
    let t = p.line("warns")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("w")?;
        snap.warnings.push(p.map(dec_str(p.tok(&t, 1)?))?);
    }
    let t = p.line("escs")?;
    let n = p.count(&t, 1)?;
    for _ in 0..n {
        let t = p.line("e")?;
        snap.escapes.push(parse_escape(&p, &t)?);
    }

    let t = p.line("lint")?;
    let n = p.count(&t, 1)?;
    let known: Vec<&'static str> = pta_lint::all_checks().iter().map(|c| c.id()).collect();
    for _ in 0..n {
        let t = p.line("l")?;
        let check_id = p.map(dec_str(p.tok(&t, 1)?))?;
        if !known.contains(&check_id.as_str()) {
            return p.err(format!("unknown lint check id `{check_id}`"));
        }
        snap.lint.push(LintRow {
            check_id,
            severity: p.map(dec_severity(p.tok(&t, 2)?))?,
            fidelity: p.map(dec_fidelity(p.tok(&t, 3)?))?,
            stmt: p.map(dec_opt_u32(p.tok(&t, 4)?))?,
            span: (
                self_parse(&p, &t, 5)?,
                self_parse(&p, &t, 6)?,
                p.u32_at(&t, 7)?,
                p.u32_at(&t, 8)?,
            ),
            function: p.map(dec_str(p.tok(&t, 9)?))?,
            message: p.map(dec_str(p.tok(&t, 10)?))?,
        });
    }
    p.line("end")?;
    Ok(snap)
}

fn self_parse(p: &Parser, toks: &[&str], at: usize) -> Result<usize, StoreError> {
    p.tok(toks, at)?.parse().map_err(|_| StoreError::Corrupt {
        line: p.line_no,
        msg: "bad number".to_owned(),
    })
}

fn parse_escape(p: &Parser, toks: &[&str]) -> Result<EscapeEvent, StoreError> {
    Ok(EscapeEvent {
        callee: FuncId(p.u32_at(toks, 1)?),
        call_site: CallSiteId(p.u32_at(toks, 2)?),
        via: p.map(dec_via(p.tok(toks, 3)?))?,
        def: p.map(dec_def(p.tok(toks, 4)?))?,
        local: p.map(dec_str(p.tok(toks, 5)?))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn string_roundtrip_covers_awkward_bytes() {
        for s in [
            "",
            "plain",
            "two words",
            "percent% sign",
            "tab\there",
            "née",
        ] {
            let enc = enc_str(s);
            assert!(!enc.contains(' '), "{enc:?} must be space-free");
            assert_eq!(dec_str(&enc).unwrap(), s);
        }
    }

    #[test]
    fn type_roundtrip() {
        let sig = FuncSig {
            ret: Type::Int.ptr_to(),
            params: vec![Type::Char, Type::Array(Box::new(Type::Double), Some(4))],
            variadic: true,
        };
        let cases = [
            Type::Void,
            Type::Int.ptr_to().ptr_to(),
            Type::Array(Box::new(Type::Struct(StructId(3))), None),
            Type::Func(Box::new(sig)),
        ];
        for t in cases {
            assert_eq!(dec_ty(&enc_ty(&t)).unwrap(), t, "{}", enc_ty(&t));
        }
        assert!(dec_ty("px").is_err());
        assert!(dec_ty("ii").is_err());
    }

    #[test]
    fn ptset_roundtrip() {
        let mut s = PtSet::new();
        s.insert(LocId(3), LocId(7), Def::D);
        s.insert(LocId(1), LocId(0), Def::P);
        let enc = enc_ptset(&s);
        assert_eq!(dec_ptset(&enc).unwrap(), s);
        assert_eq!(dec_ptset("0").unwrap(), PtSet::new());
        assert_eq!(dec_flow("!").unwrap(), None);
        assert!(dec_ptset("1,2").is_err());
    }

    #[test]
    fn base_and_projs_roundtrip() {
        let bases = [
            LocBase::Global(GlobalId(2)),
            LocBase::Var(FuncId(1), IrVarId(4)),
            LocBase::Symbolic(FuncId(0), 9),
            LocBase::Heap,
            LocBase::HeapSite(12),
            LocBase::Null,
            LocBase::StrLit,
            LocBase::Function(FuncId(5)),
            LocBase::Ret(FuncId(6)),
        ];
        for b in bases {
            assert_eq!(dec_base(&enc_base(&b)).unwrap(), b);
        }
        let projs = vec![Proj::Field("next".into()), Proj::Head, Proj::Tail];
        assert_eq!(dec_projs(&enc_projs(&projs)).unwrap(), projs);
        assert_eq!(dec_projs("-").unwrap(), Vec::<Proj>::new());
    }

    #[test]
    fn empty_snapshot_roundtrip_is_byte_stable() {
        let snap = Snapshot::default();
        let text = serialize(&snap);
        let parsed = parse(&text).unwrap();
        assert_eq!(serialize(&parsed), text);
    }

    #[test]
    fn version_and_checksum_are_enforced() {
        let text = serialize(&Snapshot::default());
        let wrong = text.replacen(SCHEMA_VERSION, "pta.v0", 1);
        assert!(matches!(parse(&wrong), Err(StoreError::Version { .. })));
        // Flip one payload byte: the checksum must catch it.
        let mut damaged = text.clone().into_bytes();
        let i = text.len() - 3;
        damaged[i] = damaged[i].wrapping_add(1);
        let damaged = String::from_utf8(damaged).unwrap();
        assert!(matches!(
            parse(&damaged),
            Err(StoreError::Checksum) | Err(StoreError::Corrupt { .. })
        ));
    }
}
