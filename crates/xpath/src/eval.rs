//! The XPath 1.0 evaluator.

// Guard-bearing hot path: a stray unwrap here is a latent panic the
// pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::ast::{BinOp, Expr, LocationPath, Step};
use crate::axes::{axis_nodes, test_matches};
use crate::value::{arith, compare, Value};
use std::collections::HashMap;
use std::fmt;
use xsltdb_xml::{Document, Guard, GuardExceeded, NodeId};

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct XPathError(pub String);

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error: {}", self.0)
    }
}

impl std::error::Error for XPathError {}

/// Surface a guard trip as this engine's native error type; the structured
/// [`GuardExceeded`] stays recorded on the guard for the pipeline to read.
fn guard_err(e: GuardExceeded) -> XPathError {
    XPathError(e.to_string())
}

/// Variable bindings visible to an expression.
pub trait VarResolver {
    fn resolve(&self, name: &str) -> Option<Value>;
}

/// The empty variable environment.
pub struct NoVars;

impl VarResolver for NoVars {
    fn resolve(&self, _name: &str) -> Option<Value> {
        None
    }
}

impl VarResolver for HashMap<String, Value> {
    fn resolve(&self, name: &str) -> Option<Value> {
        self.get(name).cloned()
    }
}

/// Ambient evaluation environment shared across an expression tree.
pub struct Env<'a> {
    pub vars: &'a dyn VarResolver,
    /// The XSLT `current()` node, when evaluated from a stylesheet.
    pub current: Option<NodeId>,
    /// Partial-evaluation mode (paper section 4.1): every predicate is
    /// assumed true and becomes a *residual* in the generated XQuery.
    pub assume_predicates: bool,
    /// Resource budgets charged while evaluating; unlimited by default.
    pub guard: Guard,
}

impl<'a> Env<'a> {
    #[cfg(test)]
    fn with_vars(vars: &'a dyn VarResolver) -> Self {
        Env { vars, current: None, assume_predicates: false, guard: Guard::unlimited() }
    }
}

impl Default for Env<'static> {
    fn default() -> Self {
        Env { vars: &NoVars, current: None, assume_predicates: false, guard: Guard::unlimited() }
    }
}

/// Dynamic evaluation context: document, context node, position and size.
pub struct Ctx<'a> {
    pub doc: &'a Document,
    pub node: NodeId,
    pub position: usize,
    pub size: usize,
    pub env: &'a Env<'a>,
}

impl<'a> Ctx<'a> {
    pub fn new(doc: &'a Document, node: NodeId, env: &'a Env<'a>) -> Self {
        Ctx { doc, node, position: 1, size: 1, env }
    }

    fn at(&self, node: NodeId, position: usize, size: usize) -> Ctx<'a> {
        Ctx { doc: self.doc, node, position, size, env: self.env }
    }
}

/// Evaluate a parsed expression in a context.
pub fn evaluate(expr: &Expr, ctx: &Ctx<'_>) -> Result<Value, XPathError> {
    ctx.env.guard.charge(1).map_err(guard_err)?;
    match expr {
        Expr::Number(n) => Ok(Value::Num(*n)),
        Expr::Literal(s) => Ok(Value::Str(s.clone())),
        Expr::Var(name) => ctx
            .env
            .vars
            .resolve(name)
            .ok_or_else(|| XPathError(format!("undefined variable ${name}"))),
        Expr::Neg(e) => Ok(Value::Num(-evaluate(e, ctx)?.number(ctx.doc))),
        Expr::Path(p) => eval_path(p, ctx).map(Value::NodeSet),
        Expr::Filter { primary, predicates, steps } => {
            let base = evaluate(primary, ctx)?;
            let mut nodes = base
                .into_nodeset("filter expression")
                .map_err(XPathError)?;
            for pred in predicates {
                nodes = filter_by_predicate(nodes, pred, ctx, false)?;
            }
            if steps.is_empty() {
                return Ok(Value::NodeSet(nodes));
            }
            eval_steps(steps, nodes, ctx).map(Value::NodeSet)
        }
        Expr::Call(name, args) => crate::functions::call(name, args, ctx),
        Expr::Binary(op, l, r) => eval_binary(*op, l, r, ctx),
    }
}

/// Evaluate an expression parsed from `src` — convenience for tests and
/// simple callers.
pub fn evaluate_str(src: &str, ctx: &Ctx<'_>) -> Result<Value, XPathError> {
    let e = crate::parser::parse_expr(src).map_err(|e| XPathError(e.to_string()))?;
    evaluate(&e, ctx)
}

fn eval_binary(op: BinOp, l: &Expr, r: &Expr, ctx: &Ctx<'_>) -> Result<Value, XPathError> {
    match op {
        BinOp::Or => {
            if evaluate(l, ctx)?.boolean() {
                return Ok(Value::Bool(true));
            }
            Ok(Value::Bool(evaluate(r, ctx)?.boolean()))
        }
        BinOp::And => {
            if !evaluate(l, ctx)?.boolean() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(evaluate(r, ctx)?.boolean()))
        }
        BinOp::Union => {
            let a = evaluate(l, ctx)?.into_nodeset("union operand").map_err(XPathError)?;
            let b = evaluate(r, ctx)?.into_nodeset("union operand").map_err(XPathError)?;
            let mut v = a;
            v.extend(b);
            v.sort();
            v.dedup();
            Ok(Value::NodeSet(v))
        }
        BinOp::Arith(op) => {
            let a = evaluate(l, ctx)?.number(ctx.doc);
            let b = evaluate(r, ctx)?.number(ctx.doc);
            Ok(Value::Num(arith(op, a, b)))
        }
        BinOp::Cmp(op) => {
            let a = evaluate(l, ctx)?;
            let b = evaluate(r, ctx)?;
            Ok(Value::Bool(compare(op, a.operand(ctx.doc), b.operand(ctx.doc))))
        }
    }
}

/// Evaluate a location path to a document-ordered node-set.
fn eval_path(path: &LocationPath, ctx: &Ctx<'_>) -> Result<Vec<NodeId>, XPathError> {
    let start = if path.absolute { vec![NodeId::DOCUMENT] } else { vec![ctx.node] };
    eval_steps(&path.steps, start, ctx)
}

/// Evaluate a sequence of steps from a set of starting nodes.
pub fn eval_steps(
    steps: &[Step],
    start: Vec<NodeId>,
    ctx: &Ctx<'_>,
) -> Result<Vec<NodeId>, XPathError> {
    let mut current = start;
    for step in steps {
        let mut next: Vec<NodeId> = Vec::new();
        for &cn in &current {
            ctx.env.guard.charge(1).map_err(guard_err)?;
            let candidates: Vec<NodeId> = axis_nodes(ctx.doc, cn, step.axis)
                .into_iter()
                .filter(|&n| test_matches(ctx.doc, n, step.axis, &step.test))
                .collect();
            // One fuel unit per candidate the axis surfaced, so `//x//y`
            // blowups are charged even when predicates later discard them.
            ctx.env.guard.charge(candidates.len() as u64).map_err(guard_err)?;
            let filtered = apply_predicates(candidates, &step.predicates, ctx)?;
            next.extend(filtered);
        }
        next.sort();
        next.dedup();
        current = next;
    }
    Ok(current)
}

fn apply_predicates(
    mut nodes: Vec<NodeId>,
    predicates: &[Expr],
    ctx: &Ctx<'_>,
) -> Result<Vec<NodeId>, XPathError> {
    for pred in predicates {
        nodes = filter_by_predicate(nodes, pred, ctx, ctx.env.assume_predicates)?;
    }
    Ok(nodes)
}

/// Filter a candidate list (already in axis/predicate order) by one
/// predicate. A numeric predicate value selects by position.
fn filter_by_predicate(
    nodes: Vec<NodeId>,
    pred: &Expr,
    ctx: &Ctx<'_>,
    assume_true: bool,
) -> Result<Vec<NodeId>, XPathError> {
    if assume_true {
        // Partial-evaluation mode: the predicate is residual; keep all
        // candidates (paper §4.1).
        return Ok(nodes);
    }
    let size = nodes.len();
    let mut out = Vec::with_capacity(nodes.len());
    for (i, n) in nodes.into_iter().enumerate() {
        let sub = ctx.at(n, i + 1, size);
        let v = evaluate(pred, &sub)?;
        let keep = match v {
            Value::Num(x) => (i + 1) as f64 == x,
            other => other.boolean(),
        };
        if keep {
            out.push(n);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_xml::parse::parse;

    const DOC: &str = r#"<dept>
<dname>ACCOUNTING</dname>
<loc>NEW YORK</loc>
<employees>
<emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>
<emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>
<emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>
</employees>
</dept>"#;

    fn eval(src: &str) -> Value {
        let doc = parse(DOC).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        // Leak to simplify test lifetimes.
        let v = evaluate_str(src, &ctx).unwrap();
        // Convert node-sets to strings eagerly for assertion convenience.
        v
    }

    fn eval_string(src: &str) -> String {
        let doc = parse(DOC).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        let v = evaluate_str(src, &ctx).unwrap();
        v.string(&doc)
    }

    fn eval_count(src: &str) -> usize {
        let doc = parse(DOC).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        match evaluate_str(src, &ctx).unwrap() {
            Value::NodeSet(ns) => ns.len(),
            other => panic!("expected node-set, got {other:?}"),
        }
    }

    #[test]
    fn absolute_child_path() {
        assert_eq!(eval_string("/dept/dname"), "ACCOUNTING");
    }

    #[test]
    fn value_predicate_selects() {
        assert_eq!(eval_count("/dept/employees/emp[sal > 2000]"), 2);
        assert_eq!(
            eval_string("/dept/employees/emp[sal > 2000]/ename"),
            "CLARK"
        );
    }

    #[test]
    fn positional_predicate() {
        assert_eq!(eval_string("/dept/employees/emp[2]/ename"), "MILLER");
        assert_eq!(eval_string("/dept/employees/emp[last()]/ename"), "SMITH");
        assert_eq!(
            eval_string("/dept/employees/emp[position() = 1]/empno"),
            "7782"
        );
    }

    #[test]
    fn descendant_axis() {
        assert_eq!(eval_count("//emp"), 3);
        // 11 value texts + 8 inter-element whitespace texts.
        assert_eq!(eval_count("//text()"), 19);
    }

    #[test]
    fn parent_and_ancestor() {
        assert_eq!(eval_count("//sal/parent::emp"), 3);
        assert_eq!(eval_count("//sal/ancestor::dept"), 1);
        assert_eq!(eval_string("//empno[. = 7934]/../ename"), "MILLER");
    }

    #[test]
    fn union_dedupes_and_orders() {
        assert_eq!(eval_count("/dept/dname | /dept/loc | /dept/dname"), 2);
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(eval("1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval("10 div 4"), Value::Num(2.5));
        assert_eq!(eval("10 mod 3"), Value::Num(1.0));
        assert_eq!(eval("2 > 1"), Value::Bool(true));
        assert_eq!(eval("1 = 2 or 2 = 2"), Value::Bool(true));
        assert_eq!(eval("-sum(//sal)"), Value::Num(-8650.0));
    }

    #[test]
    fn nodeset_vs_string_equality_is_existential() {
        assert_eq!(eval("//ename = 'CLARK'"), Value::Bool(true));
        assert_eq!(eval("//ename = 'NOBODY'"), Value::Bool(false));
        // != is also existential: some ename differs from CLARK.
        assert_eq!(eval("//ename != 'CLARK'"), Value::Bool(true));
    }

    #[test]
    fn nodeset_vs_number_relational_respects_side() {
        assert_eq!(eval("//sal > 4000"), Value::Bool(true));
        assert_eq!(eval("4000 > //sal"), Value::Bool(true));
        assert_eq!(eval("//sal > 5000"), Value::Bool(false));
        assert_eq!(eval("5000 > //sal"), Value::Bool(true));
    }

    #[test]
    fn filter_expression_with_steps() {
        let doc = parse(DOC).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        let emps = evaluate_str("/dept/employees", &ctx).unwrap();
        let mut vars = HashMap::new();
        vars.insert("var003".to_string(), emps);
        let env2 = Env::with_vars(&vars);
        let ctx2 = Ctx::new(&doc, NodeId::DOCUMENT, &env2);
        let v = evaluate_str("$var003/emp[sal > 2000]", &ctx2).unwrap();
        assert_eq!(v.as_nodeset().unwrap().len(), 2);
    }

    #[test]
    fn assume_predicates_mode_keeps_all() {
        let doc = parse(DOC).unwrap();
        let env = Env { assume_predicates: true, ..Default::default() };
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        let v = evaluate_str("/dept/employees/emp[sal > 99999]", &ctx).unwrap();
        assert_eq!(v.as_nodeset().unwrap().len(), 3);
    }

    #[test]
    fn undefined_variable_errors() {
        let doc = parse(DOC).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        assert!(evaluate_str("$nope", &ctx).is_err());
    }

    #[test]
    fn attribute_access() {
        let doc = parse(r#"<t border="2"><tr a="x"/></t>"#).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        assert_eq!(
            evaluate_str("/t/@border", &ctx).unwrap().string(&doc),
            "2"
        );
        assert_eq!(
            evaluate_str("//@*", &ctx).unwrap().as_nodeset().unwrap().len(),
            2
        );
    }

    #[test]
    fn guard_fuel_trips_on_wide_scan() {
        use xsltdb_xml::guard::{Limits, Resource};
        let doc = parse(DOC).unwrap();
        let guard = Guard::new(Limits::UNLIMITED.with_fuel(5));
        let env = Env { guard: guard.clone(), ..Default::default() };
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        let err = evaluate_str("//text()", &ctx).unwrap_err();
        assert!(err.0.contains("fuel"), "{err}");
        let trip = guard.trip().expect("structured trip recorded");
        assert_eq!(trip.resource, Resource::Fuel);
        assert_eq!(trip.limit, 5);
        assert!(trip.spent > 5);
    }

    #[test]
    fn guard_unlimited_by_default() {
        // The default Env must behave exactly as before ExecGuard.
        assert_eq!(eval_count("//emp"), 3);
    }

    #[test]
    fn predicate_on_attribute() {
        let doc = parse(r#"<r><i k="a">1</i><i k="b">2</i></r>"#).unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        assert_eq!(
            evaluate_str("/r/i[@k = 'b']", &ctx).unwrap().string(&doc),
            "2"
        );
    }
}
