//! Tier-1 guarantees of file-scope name handling in the front end: the
//! parser's duplicate-declaration rules and sema's resolution of global
//! and function names, both served from name indexes, keep the
//! semantics of a first-match scan over the program's lists.

use pta_cfront::ast::{ExprKind, FuncId, Resolution, StmtKind};
use pta_cfront::{frontend, Phase, Program};
use pta_simple::{BasicStmt, CallTarget};

fn ok(src: &str) -> Program {
    frontend(src).expect("frontend ok")
}

fn parse_error(src: &str) -> String {
    let e = frontend(src).expect_err("frontend should fail");
    assert_eq!(e.phase(), Phase::Parse, "{e}");
    e.message().to_owned()
}

/// The resolution of the left-hand side of the first top-level
/// assignment in `func`'s body.
fn first_assign_target(p: &Program, func: &str) -> Resolution {
    let body = p.function(func).unwrap().1.body.as_ref().unwrap();
    body.iter()
        .find_map(|s| match &s.kind {
            StmtKind::Expr(e) => match &e.kind {
                ExprKind::Assign(lhs, _, _) => match &lhs.kind {
                    ExprKind::Ident(_, r) => *r,
                    _ => None,
                },
                _ => None,
            },
            _ => None,
        })
        .expect("an assignment to a name")
}

/// Every direct call target in `func`, in statement order.
fn direct_calls(ir: &pta_simple::IrProgram, func: &str) -> Vec<FuncId> {
    let mut out = Vec::new();
    let body = ir.function_by_name(func).unwrap().1.body.as_ref().unwrap();
    body.for_each_basic(&mut |s, _| {
        if let BasicStmt::Call {
            target: CallTarget::Direct(f),
            ..
        } = s
        {
            out.push(*f);
        }
    });
    out
}

#[test]
fn redefinitions_are_rejected() {
    assert_eq!(
        parse_error("int x = 1; int x = 2; int main(void){ return 0; }"),
        "redefinition of global `x`"
    );
    assert_eq!(
        parse_error(
            "int f(void){ return 0; } int f(void){ return 1; } int main(void){ return 0; }"
        ),
        "redefinition of function `f`"
    );
}

#[test]
fn a_function_name_cannot_become_a_variable() {
    assert_eq!(
        parse_error("int f(void); int f; int main(void){ return 0; }"),
        "`f` redeclared as a variable"
    );
    assert_eq!(
        parse_error("int f(void){ return 0; } int g, f = 3;"),
        "`f` redeclared as a variable"
    );
}

#[test]
fn prototype_then_definition_keeps_the_first_id() {
    let src = "int g(void);
               int h(void){ return g(); }
               int g(void){ return 1; }
               int main(void){ return h() + g(); }";
    let p = ok(src);
    let (id, g) = p.function("g").unwrap();
    assert_eq!(id, FuncId(0));
    assert!(g.is_definition());
    assert_eq!(p.functions.iter().filter(|f| f.name == "g").count(), 1);
    let ir = pta_simple::compile(src).unwrap();
    assert_eq!(direct_calls(&ir, "h"), vec![FuncId(0)]);
    assert!(direct_calls(&ir, "main").contains(&FuncId(0)));
}

#[test]
fn tentative_global_merges_a_later_initializer() {
    let p = ok("int x; int y; int x = 1; int main(void){ return x; }");
    assert_eq!(p.globals.len(), 2);
    let (id, x) = p.global("x").unwrap();
    assert_eq!(id.0, 0);
    assert!(x.init.is_some());
    // The merge works in either order.
    let p = ok("int x = 1; int x; int main(void){ return x; }");
    assert_eq!(p.globals.len(), 1);
    assert!(p.globals[0].init.is_some());
}

#[test]
fn implicit_prototype_and_later_calls_share_one_id() {
    let src = "int a(void){ return helper(1); }
               int b(void){ return helper(2) + helper(3); }
               int main(void){ return a() + b() + helper(4); }";
    let p = ok(src);
    assert_eq!(p.functions.iter().filter(|f| f.name == "helper").count(), 1);
    let (helper, f) = p.function("helper").unwrap();
    assert!(!f.is_definition());
    assert!(f.variadic);
    let ir = pta_simple::compile(src).unwrap();
    assert_eq!(direct_calls(&ir, "a"), vec![helper]);
    assert_eq!(direct_calls(&ir, "b"), vec![helper, helper]);
    assert!(direct_calls(&ir, "main").contains(&helper));
}

#[test]
fn locals_shadow_globals_and_functions() {
    let p = ok("int *g; int y;
                int use_global(void){ g = &y; return 0; }
                int shadow(void){ int *g; g = &y; return 0; }
                int f(void){ return 0; }
                int shadow_fn(void){ int f; f = 2; return f; }
                int main(void){ use_global(); shadow(); return shadow_fn(); }");
    assert!(matches!(
        first_assign_target(&p, "use_global"),
        Resolution::Global(_)
    ));
    assert!(matches!(
        first_assign_target(&p, "shadow"),
        Resolution::Local(_)
    ));
    assert!(matches!(
        first_assign_target(&p, "shadow_fn"),
        Resolution::Local(_)
    ));
}
