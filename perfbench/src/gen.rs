//! Seeded input generation.
//!
//! The seed picks the order of the suite programs in each round, the
//! textual variant of each generated program, the serve query mix and
//! the edit schedule. It never changes an input's size or its answers
//! by construction, so every seed costs the program the same work and
//! checks against the same expectations.

use pta_prop::Rng;

/// Distinct streams derived from one seed, so adding draws to one input
/// does not shift another.
fn stream(seed: u64, salt: u64) -> Rng {
    Rng::new(pta_prop::case_seed(
        seed ^ 0x7065_7266_6265_6e63,
        salt as u32,
    ))
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(g: &mut Rng, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = g.usize(0..i + 1);
        p.swap(i, j);
    }
    p
}

/// The suite in one seeded round order per call: `rounds.next()` yields
/// a fresh permutation of the program indices.
pub struct SuiteRounds {
    g: Rng,
    n: usize,
}

impl SuiteRounds {
    /// Rounds over `n` programs, ordered by `seed`.
    pub fn new(seed: u64, n: usize) -> Self {
        SuiteRounds {
            g: stream(seed, 1),
            n,
        }
    }
}

impl Iterator for SuiteRounds {
    type Item = Vec<usize>;
    fn next(&mut self) -> Option<Vec<usize>> {
        Some(permutation(&mut self.g, self.n))
    }
}

/// Number of textual variants of a generated program one run cycles
/// through.
pub const VARIANTS: usize = 3;

/// `pta_prop::cgen::call_fanout(n)` with the caller definitions and
/// main's call order permuted. Every caller still hands `work` the same
/// context, so the invocation graph has `2n + 1` nodes and each
/// caller's `q` definitely points to `g0` only (the stores of `&g1` and
/// `&g2` in `work` are dead).
pub fn fanout_variant(n: usize, g: &mut Rng) -> String {
    let base = pta_prop::cgen::call_fanout(n);
    // The generator prints `work` first, then one caller per line, then
    // main; only the caller lines and main's call lines are reordered.
    let lines: Vec<&str> = base.lines().collect();
    let first_caller = lines
        .iter()
        .position(|l| l.starts_with("void c"))
        .expect("call_fanout defines callers");
    let main_at = lines
        .iter()
        .position(|l| l.starts_with("int main"))
        .expect("call_fanout defines main");
    let mut out = String::with_capacity(base.len());
    for l in &lines[..first_caller] {
        out.push_str(l);
        out.push('\n');
    }
    for i in permutation(g, main_at - first_caller) {
        out.push_str(lines[first_caller + i]);
        out.push('\n');
    }
    out.push_str(lines[main_at]);
    out.push('\n');
    let calls = &lines[main_at + 1..main_at + 1 + n];
    for i in permutation(g, n) {
        out.push_str(calls[i]);
        out.push('\n');
    }
    for l in &lines[main_at + 1 + n..] {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// `pta_prop::cgen::wide_indirect(n)` with the target definitions and
/// the selector chain permuted. The one indirect call still resolves to
/// all `n` targets `t0..t{n-1}`, and at main's exit `shared` possibly
/// points to every `g0..g{n-1}`.
pub fn wide_variant(n: usize, g: &mut Rng) -> String {
    let base = pta_prop::cgen::wide_indirect(n);
    // The generator prints `sel` and `shared`, then one `int g_i;` /
    // `void t_i` line pair per target, then main: its pointer
    // declaration, `fp = t0;`, one `if (sel == k) { fp = t_k; }` line
    // per other target, the call and the return. The pairs are
    // reordered, and the selector lines get permuted targets.
    let lines: Vec<&str> = base.lines().collect();
    let main_at = lines
        .iter()
        .position(|l| l.starts_with("int main"))
        .expect("wide_indirect defines main");
    let n = (main_at - 2) / 2;
    let mut out = String::with_capacity(base.len());
    for l in &lines[..2] {
        out.push_str(l);
        out.push('\n');
    }
    for i in permutation(g, n) {
        out.push_str(lines[2 + 2 * i]);
        out.push('\n');
        out.push_str(lines[3 + 2 * i]);
        out.push('\n');
    }
    for l in &lines[main_at..main_at + 2] {
        out.push_str(l);
        out.push('\n');
    }
    for (k, t) in permutation(g, n).into_iter().enumerate() {
        let line = lines[main_at + 2 + k];
        let target = format!("fp = t{k};");
        assert!(line.contains(&target), "selector line {k} assigns t{k}");
        out.push_str(&line.replacen(&target, &format!("fp = t{t};"), 1));
        out.push('\n');
    }
    for l in &lines[main_at + 2 + n..] {
        out.push_str(l);
        out.push('\n');
    }
    out
}

/// The [`VARIANTS`] sources one run of a generated workload cycles
/// through.
pub fn variants(seed: u64, f: impl Fn(&mut Rng) -> String) -> Vec<String> {
    let mut g = stream(seed, 2);
    (0..VARIANTS).map(|_| f(&mut g)).collect()
}

/// One step of the serve-edit client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Send query `query` of tenant `tenant`'s mix.
    Query {
        /// Tenant index.
        tenant: usize,
        /// Index into the tenant's query list.
        query: usize,
    },
    /// Rewrite tenant `tenant`'s source with its other version, then
    /// query it.
    Edit {
        /// Tenant index.
        tenant: usize,
        /// Index into the tenant's query list.
        query: usize,
    },
    /// A request naming a program the server does not have; the answer
    /// is an in-band error.
    UnknownProgram,
}

/// Queries between two edits.
pub const EDIT_EVERY: usize = 100;
/// Requests between two unknown-program requests.
pub const UNKNOWN_EVERY: usize = 500;

/// The serve-edit request stream. Tenant popularity is fixed by rank
/// (Zipf, exponent 1), so every seed misses the cache at about the same
/// rate; the seed picks which query of a tenant's mix is sent and which
/// tenant each edit touches.
pub struct ServeSchedule {
    g: Rng,
    cumulative: Vec<f64>,
    query_counts: Vec<usize>,
    sent: usize,
}

impl ServeSchedule {
    /// A schedule over tenants whose query lists have `query_counts`
    /// entries, in popularity order.
    pub fn new(seed: u64, query_counts: Vec<usize>) -> Self {
        let mut cumulative = Vec::with_capacity(query_counts.len());
        let mut acc = 0.0;
        for rank in 0..query_counts.len() {
            acc += 1.0 / (rank + 1) as f64;
            cumulative.push(acc);
        }
        ServeSchedule {
            g: stream(seed, 3),
            cumulative,
            query_counts,
            sent: 0,
        }
    }

    fn tenant(&mut self) -> usize {
        let total = *self.cumulative.last().expect("at least one tenant");
        let x = (self.g.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

impl Iterator for ServeSchedule {
    type Item = Step;
    fn next(&mut self) -> Option<Step> {
        self.sent += 1;
        if self.sent % UNKNOWN_EVERY == 1 {
            return Some(Step::UnknownProgram);
        }
        let tenant = self.tenant();
        let query = self.g.usize(0..self.query_counts[tenant]);
        if self.sent.is_multiple_of(EDIT_EVERY) {
            return Some(Step::Edit { tenant, query });
        }
        Some(Step::Query { tenant, query })
    }
}

/// The seed of tenant `tenant`'s query mix
/// (`pta_prop::serve::build_workload`).
pub fn query_mix_rng(seed: u64, tenant: usize) -> Rng {
    stream(seed, 100 + tenant as u64)
}
