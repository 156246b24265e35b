//! Content fingerprints shared by the trace layer and the persistent
//! fact store.
//!
//! One FNV-1a implementation serves every fingerprint in the workspace:
//! the per-context input hashes in trace events
//! ([`crate::points_to_set::PtSet::fingerprint`]), the per-function
//! source fingerprints the store uses to decide which memoized context
//! pairs are safe to replay, and the snapshot payload checksum.
//!
//! # What the function fingerprint covers
//!
//! [`function`] hashes the function's name, signature, variables, and
//! its *printed* SIMPLE body. The printer embeds statement ids
//! (`[s12]`) and call-site ids (`/* cs3 */`) in its output, so any edit
//! that renumbers program points — even in an otherwise-untouched
//! function — changes that function's fingerprint. That is deliberate
//! and conservative: a replayed context pair stores facts keyed by
//! `StmtId`, so a function whose statement ids moved must be treated as
//! dirty.
//!
//! [`skeleton`] hashes everything *outside* function bodies: globals,
//! struct definitions, and the ordered function list with signatures
//! and defined/extern status. The store replays nothing when the
//! skeleton changed, because the dense ids (`FuncId`, `GlobalId`,
//! `StructId`) are only guaranteed stable while the skeleton is
//! unchanged.

use crate::analysis::AnalysisConfig;
use pta_cfront::ast::FuncId;
use pta_simple::IrProgram;

/// Version tag written into every persisted artifact (store snapshots,
/// bench JSON). Bump when any on-disk format changes shape.
pub const SCHEMA_VERSION: &str = "pta.v1";

/// The FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hashes raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Hashes a string's bytes followed by a NUL separator, so
    /// `"ab","c"` and `"a","bc"` hash differently.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0]);
    }

    /// Hashes a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice (the snapshot payload checksum).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Source fingerprint of one function: name, signature, variable table,
/// and the printed SIMPLE body (which embeds statement and call-site
/// ids — see the module docs for why that is wanted).
pub fn function(ir: &IrProgram, f: FuncId) -> u64 {
    let func = ir.function(f);
    let mut h = Fnv1a::new();
    h.write_str(&func.name);
    h.write_str(&format!("{:?}", func.ret));
    h.write_u64(func.n_params as u64);
    h.write_u64(u64::from(func.variadic));
    for v in &func.vars {
        h.write_str(&v.name);
        h.write_str(&format!("{:?}", v.ty));
        h.write_str(&format!("{:?}", v.kind));
    }
    match &func.body {
        Some(_) => h.write_str(&pta_simple::printer::print_function(ir, func)),
        None => h.write_str("<extern>"),
    }
    h.finish()
}

/// Skeleton fingerprint of a program: globals, struct definitions, and
/// the ordered function list with signatures and defined/extern status
/// — everything that pins the dense id spaces, but no function bodies.
pub fn skeleton(ir: &IrProgram) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(ir.globals.len() as u64);
    for g in &ir.globals {
        h.write_str(&g.name);
        h.write_str(&format!("{:?}", g.ty));
    }
    h.write_u64(ir.structs.len() as u64);
    for (_, def) in ir.structs.iter() {
        h.write_str(&format!("{def:?}"));
    }
    h.write_u64(ir.functions.len() as u64);
    for func in &ir.functions {
        h.write_str(&func.name);
        h.write_str(&format!("{:?}", func.ret));
        h.write_u64(func.n_params as u64);
        for v in func.vars.iter().take(func.n_params) {
            h.write_str(&format!("{:?}", v.ty));
        }
        h.write_u64(u64::from(func.variadic));
        h.write_u64(u64::from(func.is_defined()));
    }
    h.write_u64(ir.entry.map_or(u64::MAX, |f| u64::from(f.0)));
    h.finish()
}

/// Digest of every analysis knob that can change computed facts. A
/// snapshot saved under one configuration is never replayed under
/// another.
pub fn config(c: &AnalysisConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(u64::from(c.max_sym_depth));
    h.write_u64(c.max_ig_nodes as u64);
    h.write_u64(u64::from(c.strict_externs));
    h.write_u64(c.max_steps);
    h.write_u64(u64::from(c.record_stats));
    h.write_u64(u64::from(c.heap_sites));
    h.write_u64(c.deadline.map_or(u64::MAX, |d| d.as_millis() as u64));
    h.write_u64(c.max_pt_pairs as u64);
    h.write_u64(u64::from(c.max_map_depth));
    // A retired boolean knob (always off) keeps its slot, so snapshots
    // saved before its removal still match under the same settings.
    h.write_u64(0);
    match &c.demand {
        None => h.write_u64(u64::MAX),
        Some(d) => {
            // Salt with the slice content: a sliced run's facts are only
            // valid for these roots, so it must never be confused with
            // (or warm-start from) an exhaustive or differently-sliced
            // run.
            h.write_u64(d.slice.len() as u64);
            for f in &d.slice {
                h.write_u64(u64::from(f.0));
            }
            h.write_u64(d.roots.len() as u64);
            for (f, s) in &d.roots {
                h.write_u64(u64::from(f.0));
                h.write_u64(u64::from(s.0));
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn write_str_is_boundary_sensitive() {
        let mut a = Fnv1a::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Fnv1a::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn body_edit_changes_only_that_function() {
        let ir1 = pta_simple::compile(
            "int f(void){ return 1; }
             int main(void){ return f(); }",
        )
        .unwrap();
        let ir2 = pta_simple::compile(
            "int f(void){ int x; x = 2; return x; }
             int main(void){ return f(); }",
        )
        .unwrap();
        let (f1, _) = ir1.function_by_name("f").unwrap();
        let (f2, _) = ir2.function_by_name("f").unwrap();
        assert_ne!(function(&ir1, f1), function(&ir2, f2));
        assert_eq!(skeleton(&ir1), skeleton(&ir2));
        // `f` comes first, so main's statement ids shift and its
        // fingerprint must change with them.
        let (m1, _) = ir1.function_by_name("main").unwrap();
        let (m2, _) = ir2.function_by_name("main").unwrap();
        assert_ne!(function(&ir1, m1), function(&ir2, m2));
    }

    #[test]
    fn skeleton_tracks_globals_and_signatures() {
        let a = pta_simple::compile("int g; int main(void){ return 0; }").unwrap();
        let b = pta_simple::compile("int h; int main(void){ return 0; }").unwrap();
        let c = pta_simple::compile("int g; int main(void){ return 0; }").unwrap();
        assert_ne!(skeleton(&a), skeleton(&b));
        assert_eq!(skeleton(&a), skeleton(&c));
    }

    #[test]
    fn config_digest_tracks_every_knob() {
        let base = AnalysisConfig::default();
        let d0 = config(&base);
        let variants = [
            AnalysisConfig {
                max_sym_depth: 4,
                ..base.clone()
            },
            AnalysisConfig {
                heap_sites: true,
                ..base.clone()
            },
            AnalysisConfig {
                max_steps: 1,
                ..base.clone()
            },
            AnalysisConfig {
                deadline: Some(std::time::Duration::from_millis(5)),
                ..base.clone()
            },
            AnalysisConfig {
                demand: Some(crate::demand::DemandInfo {
                    slice: std::collections::BTreeSet::new(),
                    roots: Vec::new(),
                    reachable: 0,
                    widened: false,
                }),
                ..base.clone()
            },
        ];
        for v in variants {
            assert_ne!(config(&v), d0);
        }
        assert_eq!(config(&base), d0);
    }
}
