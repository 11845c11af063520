//! Wider coverage of the XPath→XQuery translation over expressions that
//! appear in real stylesheets, round-tripped through the XQuery parser and
//! checked for evaluation agreement with the XPath engine.

use std::rc::Rc;
use xsltdb::translate::{xpath_to_xq, CtxRef, XlatCtx};
use xsltdb_xml::{parse_xml, Guard, NodeId, TextSink};
use xsltdb_xpath::eval::{Ctx, Env};
use xsltdb_xpath::parse_expr;
use xsltdb_xquery::{evaluate_query_to_sink, Item, NodeHandle, VarDecl, XQuery, XqExpr};

const DOC: &str = "<dept><dname>ACCOUNTING</dname><employees>\
    <emp><empno>1</empno><sal>100</sal></emp>\
    <emp><empno>2</empno><sal>900</sal></emp>\
    </employees></dept>";

/// Evaluate `src` with XPath 1.0 (context = root element), and the
/// translated XQuery (current-node variable bound to the same element);
/// both string-ified results must agree.
fn agree(src: &str) {
    let doc = parse_xml(DOC).unwrap();
    let root = doc.root_element().unwrap();

    let env = Env::default();
    let ctx = Ctx::new(&doc, root, &env);
    let xp = parse_expr(src).unwrap();
    let xpath_val = xsltdb_xpath::evaluate(&xp, &ctx).unwrap().string(&doc);

    let cx = XlatCtx::new(CtxRef::var("cur"), "var000");
    let xq = xpath_to_xq(&xp, &cx).unwrap();
    // Parse the pretty-printed form back to confirm syntactic validity.
    let printed = xsltdb_xquery::pretty(&xq);
    xsltdb_xquery::parse_xq_expr(&printed)
        .unwrap_or_else(|e| panic!("translated expr does not reparse: {printed}\n{e}"));

    let rc = Rc::new(doc);
    let q = XQuery {
        variables: vec![VarDecl { name: "var000".into(), value: XqExpr::ContextItem }],
        functions: Vec::new(),
        body: XqExpr::call("fn:string", vec![xq]),
    };
    // The query's one string item arrives as text: a `TextSink` holds it.
    let mut out = TextSink::new(Guard::unlimited());
    evaluate_query_to_sink(
        &q,
        Some(NodeHandle::new(Rc::clone(&rc), NodeId::DOCUMENT)),
        vec![("cur".into(), vec![Item::Node(NodeHandle::new(rc, root))])],
        Guard::unlimited(),
        &mut out,
    )
    .unwrap();
    let xq_val = out.into_string();
    assert_eq!(xq_val, xpath_val, "disagreement on `{src}` (translated: {printed})");
}

#[test]
fn paths_agree() {
    for src in [
        "dname",
        "employees/emp/empno",
        ".",
        "/dept/dname",
        "//sal",
        "employees/emp[sal > 500]/empno",
        "employees/emp[2]/sal",
        "employees/emp[last()]/empno",
    ] {
        agree(src);
    }
}

#[test]
fn functions_agree() {
    for src in [
        "string(dname)",
        "concat(dname, '!')",
        "count(employees/emp)",
        "sum(employees/emp/sal)",
        "substring(dname, 2, 3)",
        "string-length(dname)",
        "normalize-space(concat(' ', dname, ' '))",
        "translate(dname, 'ACG', 'acg')",
        "contains(dname, 'COUNT')",
        "starts-with(dname, 'ACC')",
        "not(employees/emp)",
        "floor(sum(employees/emp/sal) div count(employees/emp))",
    ] {
        agree(src);
    }
}

#[test]
fn operators_agree() {
    for src in [
        "1 + 2 * 3 - 4",
        "10 div 4",
        "10 mod 3",
        "sum(employees/emp/sal) > 500",
        "dname = 'ACCOUNTING'",
        "dname != 'X' and count(employees/emp) = 2",
        "count(employees/emp) = 1 or dname = 'ACCOUNTING'",
        "-count(employees/emp)",
    ] {
        agree(src);
    }
}

#[test]
fn unions_and_axes_agree() {
    for src in [
        "dname | employees",
        "employees/emp/empno | employees/emp/sal",
        "employees/emp/sal/..",
    ] {
        agree(src);
    }
}
