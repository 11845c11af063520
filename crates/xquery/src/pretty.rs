//! Pretty-printer producing the paper's Table-8 style textual XQuery. The
//! output parses back with [`crate::parser::parse_query`] (round-trip tested).

use crate::ast::*;

/// Render a full query.
pub fn pretty_query(q: &XQuery) -> String {
    let mut out = String::new();
    for v in &q.variables {
        out.push_str(&format!("declare variable ${} := {};\n", v.name, pretty(&v.value)));
    }
    for f in &q.functions {
        let params: Vec<String> = f.params.iter().map(|p| format!("${p}")).collect();
        out.push_str(&format!(
            "declare function {}({}) {{\n{}\n}};\n",
            f.name,
            params.join(", "),
            indent(&pretty(&f.body), 1)
        ));
    }
    out.push_str(&pretty(&q.body));
    out
}

/// Render one expression.
pub fn pretty(e: &XqExpr) -> String {
    let mut s = String::new();
    write_expr(e, 0, &mut s);
    s
}

fn indent(s: &str, levels: usize) -> String {
    let pad = "  ".repeat(levels);
    s.lines()
        .map(|l| if l.is_empty() { l.to_string() } else { format!("{pad}{l}") })
        .collect::<Vec<_>>()
        .join("\n")
}

fn pad_to(out: &mut String, level: usize) {
    for _ in 0..level {
        out.push_str("  ");
    }
}

fn write_expr(e: &XqExpr, level: usize, out: &mut String) {
    match e {
        XqExpr::Empty => out.push_str("()"),
        XqExpr::StrLit(s) => {
            out.push('"');
            out.push_str(&s.replace('"', "\"\""));
            out.push('"');
        }
        XqExpr::NumLit(n) => out.push_str(&xsltdb_xpath::value::num_to_string(*n)),
        XqExpr::VarRef(v) => {
            out.push('$');
            out.push_str(v);
        }
        XqExpr::ContextItem => out.push('.'),
        XqExpr::TextContent(t) => out.push_str(&escape_content(t)),
        XqExpr::Annotated { comment, expr } => {
            out.push_str(&format!("(: {comment} :)\n"));
            pad_to(out, level);
            write_expr(expr, level, out);
        }
        XqExpr::Seq(es) => {
            out.push_str("(\n");
            for (i, sub) in es.iter().enumerate() {
                pad_to(out, level + 1);
                write_expr(sub, level + 1, out);
                if i + 1 < es.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            pad_to(out, level);
            out.push(')');
        }
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            for c in clauses {
                match c {
                    Clause::For { var, at, source } => {
                        out.push_str(&format!("for ${var}"));
                        if let Some(p) = at {
                            out.push_str(&format!(" at ${p}"));
                        }
                        out.push_str(" in ");
                        write_expr(source, level, out);
                    }
                    Clause::Let { var, value } => {
                        out.push_str(&format!("let ${var} := "));
                        write_expr(value, level, out);
                    }
                }
                out.push('\n');
                pad_to(out, level);
            }
            if let Some(w) = where_clause {
                out.push_str("where ");
                write_expr(w, level, out);
                out.push('\n');
                pad_to(out, level);
            }
            if !order_by.is_empty() {
                out.push_str("order by ");
                for (i, o) in order_by.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_expr(&o.key, level, out);
                    if o.descending {
                        out.push_str(" descending");
                    }
                }
                out.push('\n');
                pad_to(out, level);
            }
            out.push_str("return\n");
            pad_to(out, level + 1);
            write_expr(ret, level + 1, out);
        }
        XqExpr::If { cond, then, els } => {
            out.push_str("if (");
            write_expr(cond, level, out);
            out.push_str(") then\n");
            pad_to(out, level + 1);
            write_expr(then, level + 1, out);
            out.push('\n');
            pad_to(out, level);
            out.push_str("else\n");
            pad_to(out, level + 1);
            write_expr(els, level + 1, out);
        }
        XqExpr::Or(a, b) => binary(out, level, a, "or", b),
        XqExpr::Union(a, b) => binary(out, level, a, "|", b),
        XqExpr::And(a, b) => binary(out, level, a, "and", b),
        XqExpr::Compare(op, a, b) => binary(out, level, a, op.symbol(), b),
        XqExpr::Arith(op, a, b) => binary(out, level, a, op.symbol(), b),
        XqExpr::Neg(a) => {
            out.push('-');
            write_operand(a, level, out);
        }
        XqExpr::InstanceOf(a, t) => {
            write_operand(a, level, out);
            out.push_str(&format!(" instance of {t}"));
        }
        XqExpr::Path { start, steps } => {
            match start {
                PathStart::Root => {
                    out.push('/');
                    if steps.is_empty() {
                        return;
                    }
                }
                PathStart::Context => {
                    // Purely relative; no prefix.
                }
                PathStart::Expr(b) => {
                    write_operand(b, level, out);
                    if !steps.is_empty() {
                        out.push('/');
                    }
                }
            }
            write_steps(steps, start, level, out);
        }
        XqExpr::Filter { base, predicates } => {
            write_operand(base, level, out);
            for p in predicates {
                out.push('[');
                write_expr(p, level, out);
                out.push(']');
            }
        }
        XqExpr::Call { name, args } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(a, level, out);
            }
            out.push(')');
        }
        XqExpr::DirectElem { name, attrs, content } => {
            out.push('<');
            out.push_str(&name.lexical());
            for (aname, parts) in attrs {
                out.push(' ');
                out.push_str(&aname.lexical());
                out.push_str("=\"");
                for p in parts {
                    match p {
                        AttrValuePart::Text(t) => {
                            out.push_str(&t.replace('"', "\"\"").replace('{', "{{").replace('}', "}}"))
                        }
                        AttrValuePart::Expr(e) => {
                            out.push('{');
                            write_expr(e, level, out);
                            out.push('}');
                        }
                    }
                }
                out.push('"');
            }
            if content.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let complex = content.len() > 1
                || content
                    .iter()
                    .any(|c| !matches!(c, XqExpr::TextContent(_) | XqExpr::StrLit(_)));
            // Newlines may only be inserted next to non-text items: a
            // newline adjacent to literal text would change the text node on
            // reparse.
            let mut prev_text = false;
            for c in content {
                match c {
                    XqExpr::TextContent(t) => {
                        out.push_str(&escape_content(t));
                        prev_text = true;
                    }
                    XqExpr::DirectElem { .. } => {
                        if complex && !prev_text {
                            out.push('\n');
                            pad_to(out, level + 1);
                        }
                        write_expr(c, level + 1, out);
                        prev_text = false;
                    }
                    other => {
                        if complex && !prev_text {
                            out.push('\n');
                            pad_to(out, level + 1);
                        }
                        out.push('{');
                        write_expr(other, level + 1, out);
                        out.push('}');
                        prev_text = false;
                    }
                }
            }
            if complex && !prev_text {
                out.push('\n');
                pad_to(out, level);
            }
            out.push_str("</");
            out.push_str(&name.lexical());
            out.push('>');
        }
        XqExpr::CompElem { name, content } => {
            out.push_str("element {");
            write_expr(name, level, out);
            out.push_str("} {");
            write_expr(content, level, out);
            out.push('}');
        }
        XqExpr::CompAttr { name, value } => {
            out.push_str("attribute {");
            write_expr(name, level, out);
            out.push_str("} {");
            write_expr(value, level, out);
            out.push('}');
        }
        XqExpr::CompText(e) => {
            out.push_str("text {");
            write_expr(e, level, out);
            out.push('}');
        }
        XqExpr::CompComment(e) => {
            out.push_str("comment {");
            write_expr(e, level, out);
            out.push('}');
        }
        XqExpr::CompPi { target, content } => {
            out.push_str("processing-instruction ");
            out.push_str(target);
            out.push_str(" {");
            write_expr(content, level, out);
            out.push('}');
        }
    }
}

fn write_steps(steps: &[XqStep], start: &PathStart, level: usize, out: &mut String) {
    let mut first = true;
    let mut i = 0;
    while i < steps.len() {
        let s = &steps[i];
        let collapsible = s.axis == xsltdb_xpath::Axis::DescendantOrSelf
            && s.test == xsltdb_xpath::NodeTest::Node
            && s.predicates.is_empty()
            && i + 1 < steps.len();
        if collapsible && (!first || !matches!(start, PathStart::Context)) {
            // A leading step follows the '/' the caller printed.
            out.push_str(if first { "/" } else { "//" });
            i += 1;
            write_step(&steps[i], level, out);
            first = false;
            i += 1;
            continue;
        }
        if !first {
            out.push('/');
        }
        write_step(s, level, out);
        first = false;
        i += 1;
    }
}

fn write_step(s: &XqStep, level: usize, out: &mut String) {
    use xsltdb_xpath::Axis;
    match (s.axis, &s.test) {
        (Axis::SelfAxis, xsltdb_xpath::NodeTest::Node) => out.push('.'),
        (Axis::Parent, xsltdb_xpath::NodeTest::Node) => out.push_str(".."),
        (Axis::Child, t) => out.push_str(&t.to_string()),
        (Axis::Attribute, t) => {
            out.push('@');
            out.push_str(&t.to_string());
        }
        (a, t) => out.push_str(&format!("{}::{t}", a.name())),
    }
    for p in &s.predicates {
        out.push('[');
        write_expr(p, level, out);
        out.push(']');
    }
}

fn binary(out: &mut String, level: usize, a: &XqExpr, op: &str, b: &XqExpr) {
    write_operand(a, level, out);
    out.push(' ');
    out.push_str(op);
    out.push(' ');
    write_operand(b, level, out);
}

/// Operands of binary/postfix constructs get parentheses unless atomic.
fn write_operand(e: &XqExpr, level: usize, out: &mut String) {
    let atomic = matches!(
        e,
        XqExpr::StrLit(_)
            | XqExpr::NumLit(_)
            | XqExpr::VarRef(_)
            | XqExpr::ContextItem
            | XqExpr::Call { .. }
            | XqExpr::Path { .. }
            | XqExpr::Filter { .. }
            | XqExpr::Empty
            | XqExpr::DirectElem { .. }
            | XqExpr::Seq(_)
    );
    if atomic {
        write_expr(e, level, out);
    } else {
        out.push('(');
        write_expr(e, level, out);
        out.push(')');
    }
}

fn escape_content(t: &str) -> String {
    t.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('{', "{{")
        .replace('}', "}}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_query};

    fn roundtrip(src: &str) {
        let e1 = parse_expr(src).unwrap();
        let printed = pretty(&e1);
        let e2 = parse_expr(&printed)
            .unwrap_or_else(|err| panic!("reparse failed for:\n{printed}\n{err}"));
        assert_eq!(e1, e2, "mismatch:\n{printed}");
    }

    #[test]
    fn roundtrips() {
        for src in [
            "for $tr in ./table/tr return $tr",
            "let $a := /dept return fn:string($a/dname)",
            r#"<H2>Department name: {fn:string($v)}</H2>"#,
            r#"<table border="2"><td><b>EmpNo</b></td>{1}</table>"#,
            "if ($v instance of element(dname)) then 1 else 2",
            "(1, 2, <x/>)",
            "fn:concat(\"a\", fn:string($b))",
            "$var003/emp[sal > 2000]",
            "$var000//text()",
            "$var002/.//zip",
            "for $e in $x/emp order by fn:number($e/sal) descending return $e",
            "-(1 + 2)",
            "element {'x'} {1, 2}",
            "fn:string-join(for $t in $v//text() return fn:string($t), \" \")",
            "for $e in $x/emp where $e/sal > 100 order by $e/ename descending return $e",
            "for $e at $p in $x/emp return <i n=\"{$p}\">{fn:string($e)}</i>",
            "comment {\"generated\"}",
            "processing-instruction target {\"run\"}",
            "for $v at $p in (for $s in $x/row order by $s/city return $s) return $p",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn query_with_prolog_roundtrips() {
        let src = "declare variable $var000 := .;\ndeclare function local:t($n) { fn:string($n) };\nlocal:t($var000)";
        let q1 = parse_query(src).unwrap();
        let printed = pretty_query(&q1);
        let q2 = parse_query(&printed).unwrap_or_else(|e| panic!("{printed}\n{e}"));
        assert_eq!(q1, q2);
    }

    #[test]
    fn annotated_prints_comment() {
        let e = XqExpr::Annotated {
            comment: r#"<xsl:template match="dept">"#.into(),
            expr: Box::new(XqExpr::NumLit(1.0)),
        };
        let p = pretty(&e);
        assert!(p.contains(r#"(: <xsl:template match="dept"> :)"#));
        // And parses back (comment ignored).
        assert_eq!(parse_expr(&p).unwrap(), XqExpr::NumLit(1.0));
    }

    #[test]
    fn string_with_quotes_roundtrips() {
        let e = XqExpr::StrLit("say \"hi\"".into());
        let p = pretty(&e);
        assert_eq!(parse_expr(&p).unwrap(), e);
    }
}
