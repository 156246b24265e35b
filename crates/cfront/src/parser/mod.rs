//! Recursive-descent parser for the C subset.
//!
//! The grammar is standard C89 minus the preprocessor, `goto`/labels,
//! `typedef`, and K&R-style definitions. Declarators are fully general
//! (`int (*fparr[24])(void)` parses), which matters for the paper's
//! function-pointer benchmarks.

mod decl;
mod expr;
mod stmt;

use crate::ast::Program;
use crate::error::{parse_err, FrontendError, Result};
use crate::lexer::lex;
use crate::name_index::NameIndex;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use std::collections::BTreeMap;

/// Parses a full translation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error encountered.
pub fn parse(source: &str) -> Result<Program> {
    let tokens = lex(source)?;
    let mut parser = Parser::new(tokens);
    parser.translation_unit()?;
    Ok(parser.program)
}

pub(crate) struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    pub(crate) program: Program,
    /// Enum constants, usable in constant expressions during parsing.
    pub(crate) enum_consts: BTreeMap<String, i64>,
    /// Name lookup over `program.functions`.
    pub(crate) function_index: NameIndex,
    /// Name lookup over `program.globals`.
    pub(crate) global_index: NameIndex,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser {
            tokens,
            pos: 0,
            program: Program::new(),
            enum_consts: BTreeMap::new(),
            function_index: NameIndex::default(),
            global_index: NameIndex::default(),
        }
    }

    fn translation_unit(&mut self) -> Result<()> {
        while !self.at_eof() {
            self.external_declaration()?;
        }
        self.program.enum_consts = std::mem::take(&mut self.enum_consts);
        Ok(())
    }

    // ----- token cursor helpers -------------------------------------------

    pub(crate) fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    pub(crate) fn peek_at(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)]
    }

    pub(crate) fn at_eof(&self) -> bool {
        matches!(self.peek().kind, TokenKind::Eof)
    }

    pub(crate) fn span(&self) -> Span {
        self.peek().span
    }

    pub(crate) fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn eat_punct(&mut self, p: Punct) -> bool {
        if self.peek().is_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.peek().is_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    pub(crate) fn expect_punct(&mut self, p: Punct) -> Result<Span> {
        if self.peek().is_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("`{}`", p.as_str())))
        }
    }

    pub(crate) fn expect_ident(&mut self) -> Result<(String, Span)> {
        match &self.peek().kind {
            TokenKind::Ident(_) => {
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(s) => Ok((s, t.span)),
                    _ => unreachable!("peek matched TokenKind::Ident"),
                }
            }
            _ => Err(self.unexpected("an identifier")),
        }
    }

    pub(crate) fn unexpected(&self, wanted: &str) -> FrontendError {
        parse_err(
            self.span(),
            format!("expected {wanted}, found {}", self.peek().kind),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::*;
    use crate::types::Type;

    fn p(src: &str) -> Program {
        parse(src).expect("parse ok")
    }

    #[test]
    fn parse_empty_program() {
        let prog = p("");
        assert!(prog.functions.is_empty());
        assert!(prog.globals.is_empty());
    }

    #[test]
    fn parse_global_scalars_and_pointers() {
        let prog = p("int a; int *pa; int **ppa; char c; double d;");
        assert_eq!(prog.globals.len(), 5);
        assert_eq!(prog.globals[0].ty, Type::Int);
        assert_eq!(prog.globals[1].ty, Type::Int.ptr_to());
        assert_eq!(prog.globals[2].ty, Type::Int.ptr_to().ptr_to());
        assert_eq!(prog.globals[3].ty, Type::Char);
        assert_eq!(prog.globals[4].ty, Type::Double);
    }

    #[test]
    fn parse_multi_declarator_line() {
        let prog = p("int a, *b, c[4];");
        assert_eq!(prog.globals.len(), 3);
        assert_eq!(prog.globals[1].ty, Type::Int.ptr_to());
        assert_eq!(
            prog.globals[2].ty,
            Type::Array(Box::new(Type::Int), Some(4))
        );
    }

    #[test]
    fn parse_function_pointer_declarator() {
        let prog = p("int (*fp)(int, char*);");
        let ty = &prog.globals[0].ty;
        let Type::Pointer(inner) = ty else {
            panic!("expected pointer, got {ty:?}")
        };
        let Type::Func(sig) = inner.as_ref() else {
            panic!("expected function")
        };
        assert_eq!(sig.ret, Type::Int);
        assert_eq!(sig.params, vec![Type::Int, Type::Char.ptr_to()]);
        assert!(!sig.variadic);
    }

    #[test]
    fn parse_array_of_function_pointers() {
        let prog = p("double (*table[24])(void);");
        let Type::Array(elem, Some(24)) = &prog.globals[0].ty else {
            panic!("expected array[24]")
        };
        let Type::Pointer(inner) = elem.as_ref() else {
            panic!("expected pointer")
        };
        assert!(inner.is_func());
    }

    #[test]
    fn parse_struct_definition_and_use() {
        let prog = p("struct node { int val; struct node *next; }; struct node *head;");
        let id = prog.structs.by_tag("node").unwrap();
        let def = prog.structs.def(id);
        assert!(def.complete);
        assert_eq!(def.fields.len(), 2);
        assert_eq!(prog.globals[0].ty, Type::Struct(id).ptr_to());
    }

    #[test]
    fn parse_enum_constants() {
        let prog = p("enum color { RED, GREEN = 5, BLUE }; int x[BLUE];");
        assert_eq!(prog.enum_consts["RED"], 0);
        assert_eq!(prog.enum_consts["GREEN"], 5);
        assert_eq!(prog.enum_consts["BLUE"], 6);
        assert_eq!(
            prog.globals[0].ty,
            Type::Array(Box::new(Type::Int), Some(6))
        );
    }

    #[test]
    fn parse_function_definition() {
        let prog = p("int add(int a, int b) { return a + b; }");
        let (_, f) = prog.function("add").unwrap();
        assert!(f.is_definition());
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.ret, Type::Int);
        assert_eq!(f.body.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn parse_prototype_then_definition_merges() {
        let prog = p("int f(int); int f(int x) { return x; }");
        assert_eq!(prog.functions.iter().filter(|f| f.name == "f").count(), 1);
        assert!(prog.function("f").unwrap().1.is_definition());
    }

    #[test]
    fn parse_variadic_prototype() {
        let prog = p("int printf(char *fmt, ...);");
        assert!(prog.function("printf").unwrap().1.variadic);
    }

    #[test]
    fn parse_control_flow_statements() {
        let prog = p(r#"
            int main(void) {
                int i, s;
                s = 0;
                for (i = 0; i < 10; i++) { s += i; }
                while (s > 0) { s--; if (s == 3) break; else continue; }
                do { s++; } while (s < 2);
                switch (s) { case 1: s = 2; break; case 2: case 3: s = 4; break; default: s = 0; }
                return s;
            }
        "#);
        let f = prog.function("main").unwrap().1;
        assert!(f.is_definition());
        let body = f.body.as_ref().unwrap();
        assert!(body.iter().any(|s| matches!(s.kind, StmtKind::Switch(..))));
        assert!(body.iter().any(|s| matches!(s.kind, StmtKind::For(..))));
        assert!(body.iter().any(|s| matches!(s.kind, StmtKind::DoWhile(..))));
    }

    #[test]
    fn parse_switch_arm_structure() {
        let prog =
            p("int f(int x){ switch(x){ case 1: case 2: x=1; break; default: x=0; } return x; }");
        let f = prog.function("f").unwrap().1;
        let body = f.body.as_ref().unwrap();
        let StmtKind::Switch(_, arms) = &body[0].kind else {
            panic!("expected switch")
        };
        assert_eq!(arms.len(), 2);
        assert_eq!(arms[0].labels, vec![Some(1), Some(2)]);
        assert_eq!(arms[1].labels, vec![None]);
    }

    #[test]
    fn parse_expressions_with_precedence() {
        let prog = p("int f(int a, int b){ return a + b * 2 == 0 ? a : b; }");
        let f = prog.function("f").unwrap().1;
        let StmtKind::Return(Some(e)) = &f.body.as_ref().unwrap()[0].kind else {
            panic!("expected return expr")
        };
        let ExprKind::Cond(c, _, _) = &e.kind else {
            panic!("ternary at top")
        };
        let ExprKind::Binary(BinaryOp::Eq, lhs, _) = &c.kind else {
            panic!("== below ?:")
        };
        assert!(matches!(lhs.kind, ExprKind::Binary(BinaryOp::Add, _, _)));
    }

    #[test]
    fn parse_casts_and_sizeof() {
        let prog = p("int f(void){ int *p; p = (int*) 0; return sizeof(int*) + sizeof *p; }");
        assert!(prog.function("f").unwrap().1.is_definition());
    }

    #[test]
    fn parse_member_and_index_chains() {
        let prog = p("struct s { int a[4]; struct s *next; };
             int f(struct s *p){ return p->next->a[2] + (*p).a[0]; }");
        assert!(prog.function("f").unwrap().1.is_definition());
    }

    #[test]
    fn parse_global_initializers() {
        let prog = p("int a = 3; int t[3] = {1, 2, 3}; int *p = 0;");
        assert!(matches!(prog.globals[0].init, Some(Init::Expr(_))));
        let Some(Init::List(items)) = &prog.globals[1].init else {
            panic!("list")
        };
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn parse_error_reports_location() {
        let err = parse("int main( { }").unwrap_err();
        assert_eq!(err.phase(), crate::error::Phase::Parse);
    }

    #[test]
    fn parse_rejects_goto_free_subset_violations() {
        assert!(parse("int f(void){ lbl: return 0; }").is_err());
    }

    #[test]
    fn parse_storage_classes_ignored() {
        let prog = p("static int counter; extern int other; static int helper(void) { return 1; }");
        assert_eq!(prog.globals.len(), 2);
        assert!(prog.function("helper").unwrap().1.is_definition());
    }
}
