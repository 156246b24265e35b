//! # pta-cfront — C front end for the PTA points-to analysis
//!
//! A from-scratch lexer, parser, and semantic analyzer for the C subset
//! analysed by the PLDI 1994 points-to paper (Emami, Ghiya, Hendren).
//! The subset is deliberately large: multi-level pointers, the
//! address-of operator, structs/unions, arrays (including arrays of
//! function pointers), full declarator syntax, all structured control
//! flow, `enum` constants, and calls through function pointers. `goto`,
//! `typedef`, and the preprocessor are excluded (see `DESIGN.md`).
//!
//! The typical entry point is [`frontend`], which runs all phases:
//!
//! ```
//! let program = pta_cfront::frontend(
//!     "int g; int main(void) { int *p; p = &g; return *p; }",
//! )?;
//! assert!(program.main().is_some());
//! # Ok::<(), pta_cfront::FrontendError>(())
//! ```

pub mod ast;
pub mod builtins;
pub mod error;
pub mod lexer;
mod name_index;
pub mod parser;
pub mod sema;
pub mod span;
pub mod token;
pub mod types;

pub use ast::Program;
pub use error::{FrontendError, Phase, Result};
pub use span::Span;

/// Runs the full front end (lex, parse, sema) over one translation unit.
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error.
pub fn frontend(source: &str) -> Result<Program> {
    let mut program = parser::parse(source)?;
    sema::analyze(&mut program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontend_end_to_end() {
        let p = frontend(
            "struct pair { int *a; int *b; };
             int x, y;
             struct pair make(void) { struct pair p; p.a = &x; p.b = &y; return p; }
             int main(void) { struct pair q; q = make(); return *q.a; }",
        )
        .expect("frontend ok");
        assert!(p.main().is_some());
        assert!(p.structs.by_tag("pair").is_some());
    }

    #[test]
    fn frontend_reports_parse_errors() {
        let e = frontend("int main( {").unwrap_err();
        assert_eq!(e.phase(), Phase::Parse);
    }

    #[test]
    fn frontend_reports_sema_errors() {
        let e = frontend("int main(void) { return undefined_var; }").unwrap_err();
        assert_eq!(e.phase(), Phase::Sema);
    }
}
