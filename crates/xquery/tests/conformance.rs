//! XQuery-subset conformance battery: constructor semantics, FLWOR corner
//! cases, comparison rules and error behaviour beyond the unit tests.

use xsltdb_xml::{Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, parse_query, NodeHandle, XqError};

/// Run `src` over `xml` through the one entry point into a `StreamWriter`.
fn eval(src: &str, xml: &str) -> Result<String, XqError> {
    let q = parse_query(src).unwrap_or_else(|e| panic!("parse failed for {src}: {e}"));
    let input = NodeHandle::document(xsltdb_xml::parse::parse(xml).unwrap());
    let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
    evaluate_query_to_sink(&q, Some(input), Vec::new(), Guard::unlimited(), &mut out)?;
    Ok(String::from_utf8(out.finish().unwrap()).unwrap())
}

fn run(src: &str, xml: &str) -> String {
    eval(src, xml).unwrap_or_else(|e| panic!("eval failed for {src}: {e}"))
}

fn run_err(src: &str, xml: &str) -> String {
    eval(src, xml).unwrap_err().to_string()
}

#[test]
fn constructor_copies_are_new_nodes() {
    // A copied node is distinct from the original: navigating the copy
    // stays inside the new tree.
    assert_eq!(
        run("let $c := <w>{/r/a}</w> return fn:count($c/a)", "<r><a/><a/>ignored</r>"),
        "2"
    );
}

#[test]
fn nested_flwor_tuple_order() {
    // Adjacent atomics in the flattened content sequence are space-joined,
    // even across separate enclosed expressions (XQuery §3.7.1.3) — the
    // reason the XSLT rewrite wraps value-of results in text{} nodes.
    assert_eq!(
        run(
            "for $a in /r/x, $b in /r/y return <p>{fn:string($a)}{fn:string($b)}</p>",
            "<r><x>1</x><x>2</x><y>a</y><y>b</y></r>"
        ),
        "<p>1 a</p><p>1 b</p><p>2 a</p><p>2 b</p>"
    );
    // Text nodes break the adjacency.
    assert_eq!(
        run(
            "for $a in /r/x return <p>{text {fn:string($a)}}{text {fn:string($a)}}</p>",
            "<r><x>7</x></r>"
        ),
        "<p>77</p>"
    );
}

#[test]
fn let_after_for_rebinds_per_tuple() {
    assert_eq!(
        run(
            "for $x in /r/v let $d := $x * 2 return <o>{$d}</o>",
            "<r><v>1</v><v>3</v></r>"
        ),
        "<o>2</o><o>6</o>"
    );
}

#[test]
fn where_filters_tuples() {
    assert_eq!(
        run(
            "for $x in /r/v where $x mod 2 = 0 return fn:string($x)",
            "<r><v>1</v><v>2</v><v>3</v><v>4</v></r>"
        ),
        "2 4"
    );
}

#[test]
fn order_by_numeric_vs_string() {
    let xml = "<r><v>10</v><v>9</v></r>";
    assert_eq!(run("for $v in /r/v order by fn:number($v) return fn:string($v)", xml), "9 10");
    assert_eq!(run("for $v in /r/v order by fn:string($v) return fn:string($v)", xml), "10 9");
}

#[test]
fn empty_for_source_yields_empty() {
    assert_eq!(run("for $x in /r/none return <o/>", "<r/>"), "");
}

#[test]
fn if_branches_lazy() {
    // The untaken branch must not evaluate (an undefined variable there
    // would otherwise error).
    assert_eq!(run("if (fn:true()) then 1 else $undefined", "<r/>"), "1");
}

#[test]
fn and_or_short_circuit() {
    assert_eq!(run("if (fn:false() and $undefined) then 1 else 2", "<r/>"), "2");
    assert_eq!(run("if (fn:true() or $undefined) then 1 else 2", "<r/>"), "1");
}

#[test]
fn general_comparison_empty_sequence_is_false() {
    assert_eq!(run("/r/none = 1", "<r/>"), "false");
    assert_eq!(run("/r/none != 1", "<r/>"), "false");
}

#[test]
fn attribute_step_and_comparison() {
    assert_eq!(
        run("fn:string(/r/i[@k = 'b'])", r#"<r><i k="a">1</i><i k="b">2</i></r>"#),
        "2"
    );
}

#[test]
fn union_in_query() {
    assert_eq!(
        run("fn:count(/r/a | /r/b | /r/a)", "<r><a/><b/><b/></r>"),
        "3"
    );
}

#[test]
fn parent_axis_navigation() {
    assert_eq!(
        run("fn:name(/r/a/text()/..)", "<r><a>x</a></r>"),
        "a"
    );
}

#[test]
fn attr_constructor_merges_into_element() {
    assert_eq!(
        run(r#"<e>{attribute {"k"} {"v"}, "body"}</e>"#, "<r/>"),
        r#"<e k="v">body</e>"#
    );
}

#[test]
fn attribute_after_content_is_an_error() {
    let e = run_err(r#"<e>{"body", attribute {"k"} {"v"}}</e>"#, "<r/>");
    assert!(e.contains("before child content"), "{e}");
}

#[test]
fn sequence_flattening() {
    assert_eq!(run("((1, 2), (3, (4, 5)))", "<r/>"), "1 2 3 4 5");
}

#[test]
fn arithmetic_on_node_values() {
    assert_eq!(run("/r/a + /r/b", "<r><a>3</a><b>4</b></r>"), "7");
}

#[test]
fn division_and_modulo() {
    assert_eq!(run("7 div 2", "<r/>"), "3.5");
    assert_eq!(run("7 mod 2", "<r/>"), "1");
    assert_eq!(run("1 div 0", "<r/>"), "Infinity");
}

#[test]
fn predicates_chain() {
    assert_eq!(
        run("fn:string(/r/i[. > 1][1])", "<r><i>1</i><i>5</i><i>9</i></r>"),
        "5"
    );
}

#[test]
fn function_sees_only_parameters() {
    let e = run_err(
        "declare function local:f($a) { $outer }; let $outer := 1 return local:f(2)",
        "<r/>",
    );
    assert!(e.contains("undefined variable"), "{e}");
}

#[test]
fn instance_of_cardinality_one() {
    // Two nodes are not an `element()` instance (exactly-one semantics).
    assert_eq!(run("(/r/a) instance of element(a)", "<r><a/><a/></r>"), "false");
}

#[test]
fn deep_constructor_nesting() {
    let mut q = String::new();
    for _ in 0..30 {
        q.push_str("<d>");
    }
    q.push_str("{1}");
    for _ in 0..30 {
        q.push_str("</d>");
    }
    let out = run(&q, "<r/>");
    assert!(out.starts_with("<d><d>"));
    assert!(out.contains(">1<"));
}

#[test]
fn comments_ignored_anywhere() {
    assert_eq!(
        run("(: a :) 1 (: b (: nested :) :) + (: c :) 2", "<r/>"),
        "3"
    );
}
