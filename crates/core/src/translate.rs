//! XPath 1.0 → XQuery expression translation.
//!
//! XSLT and XQuery "share the same XPath and many functions and operators
//! as a common core" (paper §3), so this mapping is mostly structural. The
//! interesting parts are context handling (the XSLT current node becomes an
//! explicit XQuery variable) and the small set of constructs that cannot be
//! translated (body-level `position()`/`last()`), which surface as
//! [`RewriteError`] and send the transformation to a fallback tier.

use crate::error::RewriteError;
use xsltdb_xpath::{Axis, BinOp, Expr, LocationPath, NodeTest};
use xsltdb_xquery::{PathStart, XqExpr, XqStep};

/// What a relative path is resolved against.
#[derive(Debug, Clone)]
pub enum CtxRef {
    /// A named variable holding the current node (`$var002`).
    Var(String),
    /// The dynamic context item (used inside predicates).
    ContextItem,
}

impl CtxRef {
    pub fn var(name: &str) -> CtxRef {
        CtxRef::Var(name.to_string())
    }

    fn to_expr(&self) -> XqExpr {
        match self {
            CtxRef::Var(v) => XqExpr::VarRef(v.clone()),
            CtxRef::ContextItem => XqExpr::ContextItem,
        }
    }

    fn to_path_start(&self) -> PathStart {
        match self {
            CtxRef::Var(v) => PathStart::Expr(Box::new(XqExpr::VarRef(v.clone()))),
            CtxRef::ContextItem => PathStart::Context,
        }
    }
}

/// Translation environment: the current-node binding and the variable
/// holding the whole input document (for absolute paths).
#[derive(Debug, Clone)]
pub struct XlatCtx {
    /// What relative paths resolve against (changes inside predicates).
    pub current: CtxRef,
    /// The XSLT `current()` node — stable across predicate nesting.
    pub xslt_current: CtxRef,
    /// Name of the variable bound to the input document (`var000`).
    pub root_var: String,
    /// Variable holding the 1-based position of the current node in the
    /// enclosing iteration (`for … at $p`), when the generator bound one.
    /// Body-level `position()` translates to it; without it translation
    /// fails and the pipeline falls back.
    pub pos_var: Option<String>,
    /// Variable holding the size of the enclosing iteration's node list
    /// (`let $l := fn:count(…)`). Body-level `last()` translates to it.
    pub last_var: Option<String>,
}

impl XlatCtx {
    pub fn new(current: CtxRef, root_var: &str) -> Self {
        XlatCtx {
            current: current.clone(),
            xslt_current: current,
            root_var: root_var.to_string(),
            pos_var: None,
            last_var: None,
        }
    }

    /// Attach position/size variables for body-level `position()`/`last()`.
    pub fn with_position(mut self, pos_var: Option<String>, last_var: Option<String>) -> Self {
        self.pos_var = pos_var;
        self.last_var = last_var;
        self
    }

    fn inside_predicate(&self) -> Self {
        XlatCtx {
            current: CtxRef::ContextItem,
            xslt_current: self.xslt_current.clone(),
            root_var: self.root_var.clone(),
            // Predicates get the evaluator's own focus; the loop variables
            // belong to the body outside.
            pos_var: None,
            last_var: None,
        }
    }
}

/// Translate an XPath expression into an XQuery expression.
pub fn xpath_to_xq(e: &Expr, cx: &XlatCtx) -> Result<XqExpr, RewriteError> {
    match e {
        Expr::Number(n) => Ok(XqExpr::NumLit(*n)),
        Expr::Literal(s) => Ok(XqExpr::StrLit(s.clone())),
        Expr::Var(v) => Ok(XqExpr::VarRef(v.clone())),
        Expr::Neg(inner) => Ok(XqExpr::Neg(Box::new(xpath_to_xq(inner, cx)?))),
        Expr::Binary(op, a, b) => {
            let l = Box::new(xpath_to_xq(a, cx)?);
            let r = Box::new(xpath_to_xq(b, cx)?);
            Ok(match op {
                BinOp::Or => XqExpr::Or(l, r),
                BinOp::And => XqExpr::And(l, r),
                BinOp::Union => XqExpr::Union(l, r),
                BinOp::Cmp(op) => XqExpr::Compare(*op, l, r),
                BinOp::Arith(op) => XqExpr::Arith(*op, l, r),
            })
        }
        Expr::Path(p) => translate_path(p, cx),
        Expr::Filter { primary, predicates, steps } => {
            let base = xpath_to_xq(primary, cx)?;
            let filtered = if predicates.is_empty() {
                base
            } else {
                let pcx = cx.inside_predicate();
                XqExpr::Filter {
                    base: Box::new(base),
                    predicates: predicates
                        .iter()
                        .map(|p| xpath_to_xq(p, &pcx))
                        .collect::<Result<_, _>>()?,
                }
            };
            if steps.is_empty() {
                Ok(filtered)
            } else {
                Ok(XqExpr::Path {
                    start: PathStart::Expr(Box::new(filtered)),
                    steps: translate_steps(steps, cx)?,
                })
            }
        }
        Expr::Call(name, args) => translate_call(name, args, cx),
    }
}

fn translate_path(p: &LocationPath, cx: &XlatCtx) -> Result<XqExpr, RewriteError> {
    let steps = translate_steps(&p.steps, cx)?;
    if p.absolute {
        // Absolute paths in a stylesheet address the *input document* root,
        // which in the generated query is `$var000` (bound to the input).
        return Ok(XqExpr::Path {
            start: PathStart::Expr(Box::new(XqExpr::VarRef(cx.root_var.clone()))),
            steps,
        });
    }
    if steps.len() == 1
        && steps[0].axis == Axis::SelfAxis
        && steps[0].test == NodeTest::Node
        && steps[0].predicates.is_empty()
    {
        // A bare `.`.
        return Ok(cx.current.to_expr());
    }
    Ok(XqExpr::Path { start: cx.current.to_path_start(), steps })
}

fn translate_steps(
    steps: &[xsltdb_xpath::Step],
    cx: &XlatCtx,
) -> Result<Vec<XqStep>, RewriteError> {
    let pcx = cx.inside_predicate();
    steps
        .iter()
        .map(|s| {
            Ok(XqStep {
                axis: s.axis,
                test: s.test.clone(),
                predicates: s
                    .predicates
                    .iter()
                    .map(|p| xpath_to_xq(p, &pcx))
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

fn translate_call(name: &str, args: &[Expr], cx: &XlatCtx) -> Result<XqExpr, RewriteError> {
    let mut xq_args: Vec<XqExpr> = args
        .iter()
        .map(|a| xpath_to_xq(a, cx))
        .collect::<Result<_, _>>()?;
    // XPath's context-dependent functions default to the current node when
    // called without arguments; the generated FLWOR has no dynamic focus,
    // so the current-node binding must be passed explicitly.
    if xq_args.is_empty()
        && matches!(
            name,
            "name" | "local-name" | "string" | "string-length" | "normalize-space" | "number"
        )
    {
        xq_args.push(cx.current.to_expr());
    }
    match name {
        // `current()` is the statically known current node of the template.
        "current" => Ok(cx.xslt_current.to_expr()),
        // Positional context functions: inside predicates the XQuery
        // evaluator provides a focus; in loop bodies the generator binds
        // explicit `at`/count variables. With neither, the generated FLWOR
        // has no focus, so translation must fail and the pipeline falls
        // back.
        "position" | "last" if matches!(cx.current, CtxRef::ContextItem) => {
            Ok(XqExpr::call(&format!("fn:{name}"), xq_args))
        }
        "position" if cx.pos_var.is_some() => Ok(XqExpr::VarRef(
            cx.pos_var.clone().expect("checked above"),
        )),
        "last" if cx.last_var.is_some() => Ok(XqExpr::VarRef(
            cx.last_var.clone().expect("checked above"),
        )),
        "position" | "last" => Err(RewriteError::new(format!(
            "{name}() outside a predicate has no XQuery equivalent in the generated FLWOR"
        ))),
        "document" | "key" | "id" => Err(RewriteError::new(format!(
            "{name}() is not supported by the rewrite"
        ))),
        // The shared core library maps 1:1 onto fn:*.
        "string" | "concat" | "contains" | "starts-with" | "substring"
        | "substring-before" | "substring-after" | "string-length" | "normalize-space"
        | "translate" | "count" | "sum" | "not" | "boolean" | "number" | "floor"
        | "ceiling" | "round" | "true" | "false" | "name" | "local-name" => {
            Ok(XqExpr::call(&format!("fn:{name}"), xq_args))
        }
        "generate-id" => Err(RewriteError::new(
            "generate-id() is not supported by the rewrite",
        )),
        "format-number" => Err(RewriteError::new(
            "format-number() is not supported by the rewrite",
        )),
        other => Err(RewriteError::new(format!("unknown function {other}()"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_xpath::parse_expr;
    use xsltdb_xquery::pretty;

    fn tr(src: &str) -> String {
        let e = parse_expr(src).unwrap();
        let cx = XlatCtx::new(CtxRef::var("var002"), "var000");
        pretty(&xpath_to_xq(&e, &cx).unwrap())
    }

    #[test]
    fn relative_path() {
        assert_eq!(tr("dname"), "$var002/dname");
        assert_eq!(tr("employees/emp"), "$var002/employees/emp");
    }

    #[test]
    fn dot_becomes_var() {
        assert_eq!(tr("."), "$var002");
    }

    #[test]
    fn absolute_path_uses_root_var() {
        assert_eq!(tr("/dept/dname"), "$var000/dept/dname");
    }

    #[test]
    fn predicate_context_is_context_item() {
        assert_eq!(tr("emp[sal > 2000]"), "$var002/emp[sal > 2000]");
        // `.` inside a predicate is the context item, not $var002.
        assert_eq!(tr("empno[. = 3456]"), "$var002/empno[. = 3456]");
    }

    #[test]
    fn functions_map_to_fn() {
        assert_eq!(tr("string(.)"), "fn:string($var002)");
        assert_eq!(tr("concat('a', name())"), "fn:concat(\"a\", fn:name($var002))");
        assert_eq!(tr("count(emp)"), "fn:count($var002/emp)");
    }

    #[test]
    fn current_becomes_current_var() {
        assert_eq!(tr("current()"), "$var002");
        assert_eq!(tr("emp[empno = current()]"), "$var002/emp[empno = $var002]");
    }

    #[test]
    fn union_translates() {
        assert_eq!(tr("@* | node()"), "$var002/@* | $var002/node()");
    }

    #[test]
    fn position_in_predicate_ok_outside_fails() {
        assert_eq!(tr("emp[position() = 1]"), "$var002/emp[fn:position() = 1]");
        let e = parse_expr("position()").unwrap();
        let cx = XlatCtx::new(CtxRef::var("v"), "var000");
        assert!(xpath_to_xq(&e, &cx).is_err());
    }

    #[test]
    fn unsupported_functions_error() {
        let cx = XlatCtx::new(CtxRef::var("v"), "var000");
        for src in ["document('x')", "key('k', 'v')", "generate-id()"] {
            let e = parse_expr(src).unwrap();
            assert!(xpath_to_xq(&e, &cx).is_err(), "{src} should fail");
        }
    }

    #[test]
    fn operators_translate() {
        // The pretty-printer parenthesises nested operands.
        assert_eq!(tr("1 + 2 * 3"), "1 + (2 * 3)");
        assert_eq!(
            tr("sal > 2000 and sal < 9000"),
            "($var002/sal > 2000) and ($var002/sal < 9000)"
        );
    }
}
