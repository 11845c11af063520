//! Render SQL/XML queries as SQL text in the style of the paper's Table 7 —
//! display only, for documentation, examples and EXPLAIN-style output.

use crate::exec::Conjunction;
use crate::pubexpr::{AggFunc, AggOrder, AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_xpath::ArithOp;

/// Render a full query.
pub fn sql_text(q: &SqlXmlQuery) -> String {
    let mut s = String::from("SELECT ");
    s.push_str(&pub_text(&q.select, 1));
    s.push_str(&format!("\nFROM {}", q.base_table.to_uppercase()));
    if !q.where_clause.is_empty() {
        s.push_str("\nWHERE ");
        s.push_str(&conj_text(&q.where_clause));
    }
    if !q.order_by.is_empty() {
        s.push_str("\nORDER BY ");
        s.push_str(&order_text(&q.order_by));
    }
    s
}

fn order_text(order_by: &[AggOrder]) -> String {
    order_by
        .iter()
        .map(|o| {
            format!(
                "{}{}{}",
                o.column.to_uppercase(),
                if o.numeric { " NUMERIC" } else { "" },
                if o.descending { " DESC" } else { "" }
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn conj_text(c: &Conjunction) -> String {
    c.terms
        .iter()
        .map(|t| format!("{} {} {}", t.column.to_uppercase(), t.op.symbol(), t.value))
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn pad(level: usize) -> String {
    "  ".repeat(level)
}

fn pub_text(e: &PubExpr, level: usize) -> String {
    match e {
        PubExpr::Literal(s) => format!("'{s}'"),
        PubExpr::ColumnRef { table, column } => {
            format!("\"{}\".\"{}\"", table.to_uppercase(), column.to_uppercase())
        }
        PubExpr::StrConcat(parts) => parts
            .iter()
            .map(|p| pub_text(p, level))
            .collect::<Vec<_>>()
            .join(" || "),
        PubExpr::Concat(parts) => {
            let inner = parts
                .iter()
                .map(|p| format!("{}{}", pad(level), pub_text(p, level + 1)))
                .collect::<Vec<_>>()
                .join(",\n");
            format!("XMLConcat(\n{inner})")
        }
        PubExpr::Element { name, attrs, children } => {
            let mut args = vec![format!("\"{name}\"")];
            if !attrs.is_empty() {
                let alist = attrs
                    .iter()
                    .map(|(n, v)| format!("{} AS \"{n}\"", pub_text(v, level)))
                    .collect::<Vec<_>>()
                    .join(", ");
                args.push(format!("XMLAttributes({alist})"));
            }
            for c in children {
                args.push(pub_text(c, level + 1));
            }
            if args.iter().map(String::len).sum::<usize>() < 60 {
                format!("XMLElement({})", args.join(", "))
            } else {
                let inner = args
                    .iter()
                    .map(|a| format!("{}{a}", pad(level)))
                    .collect::<Vec<_>>()
                    .join(",\n");
                format!("XMLElement(\n{inner})")
            }
        }
        PubExpr::Agg { table, predicate, order_by, limit, body } => {
            let mut s = format!(
                "(SELECT XMLAgg({}{})\n{}FROM {}",
                pub_text(body, level + 1),
                if order_by.is_empty() {
                    String::new()
                } else {
                    format!(" ORDER BY {}", order_text(order_by))
                },
                pad(level),
                table.to_uppercase()
            );
            if !predicate.is_empty() {
                s.push_str(&format!("\n{}WHERE {}", pad(level), agg_pred_text(predicate)));
            }
            if let Some(k) = limit {
                s.push_str(&format!("\n{}FETCH FIRST {k} ROWS ONLY", pad(level)));
            }
            s.push(')');
            s
        }
        PubExpr::Arith { op, left, right } => {
            let op = match op {
                ArithOp::Div => "/",
                ArithOp::Mod => "%",
                other => other.symbol(),
            };
            format!("({} {op} {})", pub_text(left, level), pub_text(right, level))
        }
        PubExpr::Case { cond, table: _, then, els } => format!(
            "CASE WHEN {} {} {} THEN {} ELSE {} END",
            cond.column.to_uppercase(),
            cond.op.symbol(),
            cond.value,
            pub_text(then, level),
            pub_text(els, level)
        ),
        PubExpr::ScalarAgg { func, column, table, predicate } => {
            let f = match (func, column) {
                (AggFunc::Count, _) => "count(*)".to_string(),
                (AggFunc::Sum, Some(c)) => format!("sum({})", c.to_uppercase()),
                (AggFunc::Sum, None) => "sum(?)".to_string(),
            };
            let mut s = format!("(SELECT {f} FROM {}", table.to_uppercase());
            if !predicate.is_empty() {
                s.push_str(&format!(" WHERE {}", agg_pred_text(predicate)));
            }
            s.push(')');
            s
        }
        PubExpr::Comment(content) => {
            format!("XMLComment({})", pub_text(content, level))
        }
        PubExpr::Pi { target, content } => {
            format!("XMLPI(NAME \"{target}\", {})", pub_text(content, level))
        }
        PubExpr::RowNumber { table } => {
            format!("ROW_NUMBER() OVER ({})", table.to_uppercase())
        }
    }
}

fn agg_pred_text(terms: &[AggPredTerm]) -> String {
    terms
        .iter()
        .map(|t| match t {
            AggPredTerm::Const(c) => {
                format!("{} {} {}", c.column.to_uppercase(), c.op.symbol(), c.value)
            }
            AggPredTerm::Correlate { inner_column, outer_table, outer_column } => format!(
                "{} = {}.{}",
                inner_column.to_uppercase(),
                outer_table.to_uppercase(),
                outer_column.to_uppercase()
            ),
        })
        .collect::<Vec<_>>()
        .join("\n  AND ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::Datum;
    use crate::exec::ColumnCmp;
    use xsltdb_xpath::CmpOp;

    #[test]
    fn renders_table7_like_text() {
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::Concat(vec![
                PubExpr::elem("H1", vec![PubExpr::lit("HIGHLY PAID DEPT EMPLOYEES")]),
                PubExpr::Agg {
                    table: "emp".into(),
                    predicate: vec![
                        AggPredTerm::Const(ColumnCmp::new("sal", CmpOp::Gt, Datum::Int(2000))),
                        AggPredTerm::Correlate {
                            inner_column: "deptno".into(),
                            outer_table: "dept".into(),
                            outer_column: "deptno".into(),
                        },
                    ],
                    order_by: Vec::new(),
                    limit: None,
                    body: Box::new(PubExpr::elem("tr", vec![PubExpr::col("emp", "empno")])),
                },
            ]),
        };
        let text = sql_text(&q);
        assert!(text.starts_with("SELECT XMLConcat("));
        assert!(text.contains("XMLElement(\"H1\", 'HIGHLY PAID DEPT EMPLOYEES')"));
        assert!(text.contains("SELECT XMLAgg("));
        assert!(text.contains("SAL > 2000"));
        assert!(text.contains("DEPTNO = DEPT.DEPTNO"));
        assert!(text.contains("FROM DEPT"));
    }

    #[test]
    fn renders_where_and_attrs() {
        let q = SqlXmlQuery {
            base_table: "emp".into(),
            where_clause: Conjunction::single("sal", CmpOp::Ge, Datum::Int(100)),
            order_by: Vec::new(),
            select: PubExpr::Element {
                name: "table".into(),
                attrs: vec![("border".into(), PubExpr::lit("2"))],
                children: vec![],
            },
        };
        let text = sql_text(&q);
        assert!(text.contains("XMLAttributes('2' AS \"border\")"));
        assert!(text.contains("WHERE SAL >= 100"));
    }
}
