//! Structural information from SQL/XML publishing views (paper §3.2,
//! bullet 2): the view's construction expression *is* the structure, and it
//! also tells us which column produces each text node and which table's
//! rows produce each repeated element — exactly the bindings the
//! XQuery→SQL/XML rewrite needs.

use crate::model::{
    Cardinality, ChildDecl, ContentBinding, ElemDecl, ModelGroup, Origin, RowSource, StructInfo,
};
use xsltdb_relstore::pubexpr::PubExpr;
use xsltdb_relstore::XmlView;

/// Error deriving structure from a view.
#[derive(Debug, Clone, PartialEq)]
pub struct DeriveError(pub String);

impl std::fmt::Display for DeriveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "structure derivation error: {}", self.0)
    }
}

impl std::error::Error for DeriveError {}

/// Derive [`StructInfo`] from an XMLType view definition.
pub fn struct_of_view(view: &XmlView) -> Result<StructInfo, DeriveError> {
    let root = elem_of_pub(&view.query.select)?.ok_or_else(|| {
        DeriveError(format!("view {} does not construct a root element", view.name))
    })?;
    Ok(StructInfo {
        root,
        origin: Origin::View {
            base_table: view.query.base_table.clone(),
            where_clause: view.query.where_clause.clone(),
            order_by: view.query.order_by.clone(),
        },
    })
}

/// Derive the element declaration built by a publishing expression;
/// `Ok(None)` when the expression is pure text.
fn elem_of_pub(e: &PubExpr) -> Result<Option<ElemDecl>, DeriveError> {
    match e {
        PubExpr::Element { name, attrs, children } => {
            let mut decl = ElemDecl {
                name: name.clone(),
                group: ModelGroup::Sequence,
                children: Vec::new(),
                has_text: false,
                attributes: attrs.iter().map(|(n, _)| n.clone()).collect(),
                content: ContentBinding::Unbound,
                row_source: None,
            };
            let mut text_exprs: Vec<PubExpr> = Vec::new();
            collect_children(children, &mut decl, &mut text_exprs)?;
            if !text_exprs.is_empty() {
                decl.has_text = true;
                decl.content = ContentBinding::Pub(if text_exprs.len() == 1 {
                    text_exprs.pop().expect("non-empty")
                } else {
                    PubExpr::StrConcat(text_exprs)
                });
            }
            Ok(Some(decl))
        }
        _ => Ok(None),
    }
}

fn collect_children(
    children: &[PubExpr],
    decl: &mut ElemDecl,
    text_exprs: &mut Vec<PubExpr>,
) -> Result<(), DeriveError> {
    for c in children {
        match c {
            PubExpr::Element { .. } => {
                let child = elem_of_pub(c)?.expect("element case");
                decl.children.push(ChildDecl { decl: child, card: Cardinality::One });
            }
            PubExpr::Concat(inner) => collect_children(inner, decl, text_exprs)?,
            PubExpr::Literal(_) | PubExpr::ColumnRef { .. } | PubExpr::StrConcat(_)
            | PubExpr::ScalarAgg { .. } => {
                text_exprs.push(c.clone());
            }
            PubExpr::Case { .. } | PubExpr::Arith { .. } => {
                return Err(DeriveError(
                    "CASE/arithmetic expressions are not supported in view definitions".into(),
                ))
            }
            PubExpr::Comment(_) | PubExpr::Pi { .. } | PubExpr::RowNumber { .. } => {
                return Err(DeriveError(
                    "comment/PI/row-number expressions are not supported in view definitions"
                        .into(),
                ))
            }
            PubExpr::Agg { limit: Some(_), .. } => {
                return Err(DeriveError(
                    "XMLAgg row limits are not supported in view definitions".into(),
                ))
            }
            PubExpr::Agg { table, predicate, order_by, limit: None, body } => {
                let mut child = elem_of_pub(body)?.ok_or_else(|| {
                    DeriveError("XMLAgg body must construct an element".into())
                })?;
                child.row_source = Some(RowSource {
                    table: table.clone(),
                    predicate: predicate.clone(),
                    order_by: order_by.clone(),
                });
                decl.children.push(ChildDecl { decl: child, card: Cardinality::Many });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_relstore::exec::Conjunction;
    use xsltdb_relstore::pubexpr::{AggPredTerm, SqlXmlQuery};

    fn dept_emp_view() -> XmlView {
        XmlView::new(
            "dept_emp",
            SqlXmlQuery {
                base_table: "dept".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem(
                    "dept",
                    vec![
                        PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
                        PubExpr::elem("loc", vec![PubExpr::col("dept", "loc")]),
                        PubExpr::elem(
                            "employees",
                            vec![PubExpr::Agg {
                                table: "emp".into(),
                                predicate: vec![AggPredTerm::Correlate {
                                    inner_column: "deptno".into(),
                                    outer_table: "dept".into(),
                                    outer_column: "deptno".into(),
                                }],
                                order_by: Vec::new(),
                                limit: None,
                                body: Box::new(PubExpr::elem(
                                    "emp",
                                    vec![
                                        PubExpr::elem(
                                            "empno",
                                            vec![PubExpr::col("emp", "empno")],
                                        ),
                                        PubExpr::elem("sal", vec![PubExpr::col("emp", "sal")]),
                                    ],
                                )),
                            }],
                        ),
                    ],
                ),
            },
        )
    }

    #[test]
    fn derives_dept_structure() {
        let info = struct_of_view(&dept_emp_view()).unwrap();
        assert_eq!(info.root.name, "dept");
        assert_eq!(info.root.children.len(), 3);
        assert!(matches!(&info.origin, Origin::View { base_table, .. } if base_table == "dept"));
        let dname = info.root.child("dname").unwrap();
        assert_eq!(dname.card, Cardinality::One);
        assert!(dname.decl.has_text);
        assert!(matches!(
            dname.decl.content,
            ContentBinding::Pub(PubExpr::ColumnRef { .. })
        ));
    }

    #[test]
    fn agg_body_is_many_with_row_source() {
        let info = struct_of_view(&dept_emp_view()).unwrap();
        let emp = info.root.descend(&["employees", "emp"]).unwrap();
        let employees = info.root.child("employees").unwrap();
        let emp_child = employees.decl.child("emp").unwrap();
        assert_eq!(emp_child.card, Cardinality::Many);
        let rs = emp.row_source.as_ref().unwrap();
        assert_eq!(rs.table, "emp");
        assert_eq!(rs.predicate.len(), 1);
    }

    #[test]
    fn column_bindings_recorded() {
        let info = struct_of_view(&dept_emp_view()).unwrap();
        let sal = info.root.descend(&["employees", "emp", "sal"]).unwrap();
        match &sal.content {
            ContentBinding::Pub(PubExpr::ColumnRef { table, column }) => {
                assert_eq!(table, "emp");
                assert_eq!(column, "sal");
            }
            other => panic!("expected column binding, got {other:?}"),
        }
    }

    #[test]
    fn non_element_root_rejected() {
        let v = XmlView::new(
            "bad",
            SqlXmlQuery {
                base_table: "t".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::lit("just text"),
            },
        );
        assert!(struct_of_view(&v).is_err());
    }

    #[test]
    fn mixed_literal_and_column_becomes_strconcat_binding() {
        let v = XmlView::new(
            "v",
            SqlXmlQuery {
                base_table: "t".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem(
                    "x",
                    vec![PubExpr::lit("Name: "), PubExpr::col("t", "name")],
                ),
            },
        );
        let info = struct_of_view(&v).unwrap();
        assert!(matches!(info.root.content, ContentBinding::Pub(PubExpr::StrConcat(_))));
    }
}
