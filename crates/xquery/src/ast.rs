//! Abstract syntax for the XQuery subset used as the paper's intermediate
//! language (§3, §6): FLWOR, conditionals, direct and computed constructors,
//! sequence expressions, user-defined functions, `instance of` tests and
//! path expressions. Axis steps reuse the XPath crate's `Axis`/`NodeTest`.

use std::fmt;
use xsltdb_xml::QName;
use xsltdb_xpath::{ArithOp, Axis, CmpOp, NodeTest};

/// A FLWOR binding clause.
#[derive(Debug, Clone, PartialEq)]
pub enum Clause {
    /// `for $var at $pos in source` — `at` binds the 1-based position of
    /// the tuple in the *input* sequence (pre-`order by`, per the XQuery
    /// spec). The XSLT rewrite therefore nests a sorted inner FLWOR inside
    /// an outer `for ... at` when post-sort positions are needed.
    For { var: String, at: Option<String>, source: XqExpr },
    Let { var: String, value: XqExpr },
}

/// One `order by` key. The key's value says how it sorts: a number
/// (`fn:number(...)` marks an `xsl:sort data-type="number"` key) sorts as
/// a number, anything else as its string value.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderSpec {
    pub key: XqExpr,
    pub descending: bool,
}

/// Sequence types accepted after `instance of`.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqType {
    Element(Option<String>),
    Attribute(Option<String>),
    Text,
    Node,
    Item,
}

impl fmt::Display for SeqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqType::Element(Some(n)) => write!(f, "element({n})"),
            SeqType::Element(None) => write!(f, "element()"),
            SeqType::Attribute(Some(n)) => write!(f, "attribute({n})"),
            SeqType::Attribute(None) => write!(f, "attribute()"),
            SeqType::Text => write!(f, "text()"),
            SeqType::Node => write!(f, "node()"),
            SeqType::Item => write!(f, "item()"),
        }
    }
}

/// How a path expression starts.
#[derive(Debug, Clone, PartialEq)]
pub enum PathStart {
    /// `/steps` — from the root of the context node's document.
    Root,
    /// `.` or a bare relative path — from the context item.
    Context,
    /// `$var/steps` or `(expr)/steps`.
    Expr(Box<XqExpr>),
}

/// One axis step with predicates.
#[derive(Debug, Clone, PartialEq)]
pub struct XqStep {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<XqExpr>,
}

/// A part of a direct attribute value (mini-AVT: text and enclosed exprs).
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValuePart {
    Text(String),
    Expr(XqExpr),
}

/// XQuery expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum XqExpr {
    /// Comma sequence `(a, b, c)`.
    Seq(Vec<XqExpr>),
    /// FLWOR expression.
    Flwor {
        clauses: Vec<Clause>,
        where_clause: Option<Box<XqExpr>>,
        order_by: Vec<OrderSpec>,
        ret: Box<XqExpr>,
    },
    If {
        cond: Box<XqExpr>,
        then: Box<XqExpr>,
        els: Box<XqExpr>,
    },
    Or(Box<XqExpr>, Box<XqExpr>),
    And(Box<XqExpr>, Box<XqExpr>),
    /// Node-set union `a | b` (document order, deduplicated).
    Union(Box<XqExpr>, Box<XqExpr>),
    /// An XPath 1.0 comparison: the subset runs in XPath 1.0 compatibility
    /// mode, as an XSLT 2.0 processor runs a 1.0 stylesheet.
    Compare(CmpOp, Box<XqExpr>, Box<XqExpr>),
    Arith(ArithOp, Box<XqExpr>, Box<XqExpr>),
    Neg(Box<XqExpr>),
    InstanceOf(Box<XqExpr>, SeqType),
    /// A path: a start followed by steps. A start with no steps is just the
    /// start expression.
    Path { start: PathStart, steps: Vec<XqStep> },
    /// Postfix predicates on an arbitrary primary: `$x[...]`.
    Filter { base: Box<XqExpr>, predicates: Vec<XqExpr> },
    StrLit(String),
    NumLit(f64),
    VarRef(String),
    ContextItem,
    /// Function call; `name` keeps its prefix (`fn:string`, `local:t1`).
    Call { name: String, args: Vec<XqExpr> },
    /// `<name attr="...">content</name>`.
    DirectElem {
        name: QName,
        attrs: Vec<(QName, Vec<AttrValuePart>)>,
        content: Vec<XqExpr>,
    },
    /// Literal text inside a direct constructor.
    TextContent(String),
    /// `element {nameExpr} {content}` — name may be constant.
    CompElem { name: Box<XqExpr>, content: Box<XqExpr> },
    /// `attribute {nameExpr} {value}`.
    CompAttr { name: Box<XqExpr>, value: Box<XqExpr> },
    /// `text {expr}`.
    CompText(Box<XqExpr>),
    /// `comment {expr}` — a computed comment node.
    CompComment(Box<XqExpr>),
    /// `processing-instruction target {expr}` — a computed PI with a
    /// constant target (the only form the XSLT rewrite emits).
    CompPi { target: String, content: Box<XqExpr> },
    /// An expression annotated with a pretty-printed comment
    /// (`(: <xsl:template match="dept"> :)` in the paper's Table 8).
    /// Evaluates exactly as the inner expression.
    Annotated { comment: String, expr: Box<XqExpr> },
    /// The empty sequence `()`.
    Empty,
}

impl XqExpr {
    pub fn var(name: &str) -> XqExpr {
        XqExpr::VarRef(name.to_string())
    }

    pub fn call(name: &str, args: Vec<XqExpr>) -> XqExpr {
        XqExpr::Call { name: name.to_string(), args }
    }

    pub fn string_of(e: XqExpr) -> XqExpr {
        XqExpr::call("fn:string", vec![e])
    }

    /// Strip annotations (for structural comparisons in tests).
    pub fn unannotated(&self) -> &XqExpr {
        match self {
            XqExpr::Annotated { expr, .. } => expr.unannotated(),
            other => other,
        }
    }
}

/// A user-defined function from the prolog.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Name with prefix, e.g. `local:tmpl001`.
    pub name: String,
    pub params: Vec<String>,
    pub body: XqExpr,
}

/// A prolog variable declaration: `declare variable $x := expr;`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    pub name: String,
    pub value: XqExpr,
}

/// A complete query: prolog plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct XQuery {
    pub variables: Vec<VarDecl>,
    pub functions: Vec<FunctionDecl>,
    pub body: XqExpr,
}

impl XQuery {
    /// A query that is just a body.
    pub fn of(body: XqExpr) -> XQuery {
        XQuery { variables: Vec::new(), functions: Vec::new(), body }
    }
}

/// Walk all subexpressions of `e`, including `e` itself.
pub fn walk_exprs<'a>(e: &'a XqExpr, f: &mut impl FnMut(&'a XqExpr)) {
    f(e);
    match e {
        XqExpr::Seq(es) => es.iter().for_each(|x| walk_exprs(x, f)),
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            for c in clauses {
                match c {
                    Clause::For { source, .. } => walk_exprs(source, f),
                    Clause::Let { value, .. } => walk_exprs(value, f),
                }
            }
            if let Some(w) = where_clause {
                walk_exprs(w, f);
            }
            for o in order_by {
                walk_exprs(&o.key, f);
            }
            walk_exprs(ret, f);
        }
        XqExpr::If { cond, then, els } => {
            walk_exprs(cond, f);
            walk_exprs(then, f);
            walk_exprs(els, f);
        }
        XqExpr::Or(a, b)
        | XqExpr::And(a, b)
        | XqExpr::Union(a, b)
        | XqExpr::Compare(_, a, b)
        | XqExpr::Arith(_, a, b) => {
            walk_exprs(a, f);
            walk_exprs(b, f);
        }
        XqExpr::Neg(a)
        | XqExpr::InstanceOf(a, _)
        | XqExpr::CompText(a)
        | XqExpr::CompComment(a)
        | XqExpr::CompPi { content: a, .. } => walk_exprs(a, f),
        XqExpr::Path { start, steps } => {
            if let PathStart::Expr(e) = start {
                walk_exprs(e, f);
            }
            for s in steps {
                s.predicates.iter().for_each(|p| walk_exprs(p, f));
            }
        }
        XqExpr::Filter { base, predicates } => {
            walk_exprs(base, f);
            predicates.iter().for_each(|p| walk_exprs(p, f));
        }
        XqExpr::Call { args, .. } => args.iter().for_each(|a| walk_exprs(a, f)),
        XqExpr::DirectElem { attrs, content, .. } => {
            for (_, parts) in attrs {
                for p in parts {
                    if let AttrValuePart::Expr(e) = p {
                        walk_exprs(e, f);
                    }
                }
            }
            content.iter().for_each(|c| walk_exprs(c, f));
        }
        XqExpr::CompElem { name, content } => {
            walk_exprs(name, f);
            walk_exprs(content, f);
        }
        XqExpr::CompAttr { name, value } => {
            walk_exprs(name, f);
            walk_exprs(value, f);
        }
        XqExpr::Annotated { expr, .. } => walk_exprs(expr, f),
        XqExpr::StrLit(_)
        | XqExpr::NumLit(_)
        | XqExpr::VarRef(_)
        | XqExpr::ContextItem
        | XqExpr::TextContent(_)
        | XqExpr::Empty => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unannotated_strips_nesting() {
        let e = XqExpr::Annotated {
            comment: "outer".into(),
            expr: Box::new(XqExpr::Annotated {
                comment: "inner".into(),
                expr: Box::new(XqExpr::NumLit(1.0)),
            }),
        };
        assert_eq!(e.unannotated(), &XqExpr::NumLit(1.0));
    }

    #[test]
    fn walk_visits_all() {
        let e = XqExpr::Seq(vec![
            XqExpr::NumLit(1.0),
            XqExpr::If {
                cond: Box::new(XqExpr::var("x")),
                then: Box::new(XqExpr::NumLit(2.0)),
                els: Box::new(XqExpr::Empty),
            },
        ]);
        let mut n = 0;
        walk_exprs(&e, &mut |_| n += 1);
        assert_eq!(n, 6);
    }
}
