//! Test-side helper: a generated query with its `Annotated` wrappers
//! removed. The printer writes an annotation as an XQuery comment, which
//! the parser drops, so this is what a printed query must re-parse to.

use xsltdb_xquery::{AttrValuePart, Clause, PathStart, XQuery, XqExpr};

/// Remove every `Annotated` wrapper from `e`, in place.
fn strip(e: &mut XqExpr) {
    if let XqExpr::Annotated { expr, .. } = e {
        let inner = std::mem::replace(expr.as_mut(), XqExpr::Empty);
        *e = inner;
        return strip(e);
    }
    match e {
        XqExpr::Seq(es) | XqExpr::Call { args: es, .. } => es.iter_mut().for_each(strip),
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            for c in clauses {
                match c {
                    Clause::For { source: x, .. } | Clause::Let { value: x, .. } => strip(x),
                }
            }
            where_clause.iter_mut().for_each(|w| strip(w));
            order_by.iter_mut().for_each(|o| strip(&mut o.key));
            strip(ret);
        }
        XqExpr::If { cond, then, els } => [cond, then, els].into_iter().for_each(|x| strip(x)),
        XqExpr::Or(a, b)
        | XqExpr::And(a, b)
        | XqExpr::Union(a, b)
        | XqExpr::Compare(_, a, b)
        | XqExpr::Arith(_, a, b)
        | XqExpr::CompElem { name: a, content: b }
        | XqExpr::CompAttr { name: a, value: b } => {
            strip(a);
            strip(b);
        }
        XqExpr::Neg(a)
        | XqExpr::InstanceOf(a, _)
        | XqExpr::CompText(a)
        | XqExpr::CompComment(a)
        | XqExpr::CompPi { content: a, .. } => strip(a),
        XqExpr::Path { start, steps } => {
            if let PathStart::Expr(b) = start {
                strip(b);
            }
            steps.iter_mut().flat_map(|s| &mut s.predicates).for_each(strip);
        }
        XqExpr::Filter { base, predicates } => {
            strip(base);
            predicates.iter_mut().for_each(strip);
        }
        XqExpr::DirectElem { attrs, content, .. } => {
            for part in attrs.iter_mut().flat_map(|(_, parts)| parts) {
                if let AttrValuePart::Expr(x) = part {
                    strip(x);
                }
            }
            content.iter_mut().for_each(strip);
        }
        _ => {}
    }
}

/// `q` without any `Annotated` wrapper.
pub fn stripped(q: &XQuery) -> XQuery {
    let mut q = q.clone();
    q.variables.iter_mut().for_each(|v| strip(&mut v.value));
    q.functions.iter_mut().for_each(|f| strip(&mut f.body));
    strip(&mut q.body);
    q
}
