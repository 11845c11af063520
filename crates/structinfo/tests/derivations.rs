//! Cross-source structural derivation tests: the same logical schema
//! expressed as a DTD, an XML Schema and a publishing view must produce
//! interchangeable structural information (same names, cardinalities and
//! sample shapes) — the property §3.2 relies on when it treats all four
//! sources uniformly.

use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::XmlView;
use xsltdb_structinfo::{
    struct_of_dtd, struct_of_view, struct_of_xsd, Cardinality, SampleDoc, StructInfo,
};

fn dtd_info() -> StructInfo {
    struct_of_dtd(
        r#"<!ELEMENT dept (dname, employees)>
           <!ELEMENT dname (#PCDATA)>
           <!ELEMENT employees (emp*)>
           <!ELEMENT emp (sal)>
           <!ELEMENT sal (#PCDATA)>"#,
        "dept",
    )
    .unwrap()
}

fn xsd_info() -> StructInfo {
    struct_of_xsd(
        r#"<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
          <xs:element name="dept">
            <xs:complexType><xs:sequence>
              <xs:element name="dname" type="xs:string"/>
              <xs:element name="employees">
                <xs:complexType><xs:sequence>
                  <xs:element name="emp" minOccurs="0" maxOccurs="unbounded">
                    <xs:complexType><xs:sequence>
                      <xs:element name="sal" type="xs:decimal"/>
                    </xs:sequence></xs:complexType>
                  </xs:element>
                </xs:sequence></xs:complexType>
              </xs:element>
            </xs:sequence></xs:complexType>
          </xs:element>
        </xs:schema>"#,
    )
    .unwrap()
}

fn view_info() -> StructInfo {
    struct_of_view(&XmlView::new(
        "vu",
        SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "dept",
                vec![
                    PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
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
                                vec![PubExpr::elem("sal", vec![PubExpr::col("emp", "sal")])],
                            )),
                        }],
                    ),
                ],
            ),
        },
    ))
    .unwrap()
}

fn shape(info: &StructInfo) -> Vec<(String, bool)> {
    fn walk(d: &xsltdb_structinfo::ElemDecl, out: &mut Vec<(String, bool)>, many: bool) {
        out.push((d.name.clone(), many));
        for c in &d.children {
            walk(&c.decl, out, c.card == Cardinality::Many);
        }
    }
    let mut out = Vec::new();
    walk(&info.root, &mut out, false);
    out
}

#[test]
fn all_three_sources_agree_on_shape() {
    let expected = vec![
        ("dept".to_string(), false),
        ("dname".to_string(), false),
        ("employees".to_string(), false),
        ("emp".to_string(), true),
        ("sal".to_string(), false),
    ];
    assert_eq!(shape(&dtd_info()), expected, "DTD");
    assert_eq!(shape(&xsd_info()), expected, "XSD");
    assert_eq!(shape(&view_info()), expected, "view");
}

#[test]
fn all_three_sources_generate_identical_samples() {
    let a = xsltdb_xml::to_string(&SampleDoc::generate(&dtd_info()).doc);
    let b = xsltdb_xml::to_string(&SampleDoc::generate(&xsd_info()).doc);
    let c = xsltdb_xml::to_string(&SampleDoc::generate(&view_info()).doc);
    assert_eq!(a, b);
    assert_eq!(b, c);
    assert_eq!(
        a,
        "<dept><dname>0</dname><employees><emp><sal>0</sal></emp></employees></dept>"
    );
}

#[test]
fn only_view_source_carries_bindings() {
    use xsltdb_structinfo::ContentBinding;
    let sal_dtd = dtd_info();
    let sal_view = view_info();
    let d = sal_dtd.root.descend(&["employees", "emp", "sal"]).unwrap();
    let v = sal_view.root.descend(&["employees", "emp", "sal"]).unwrap();
    assert!(matches!(d.content, ContentBinding::Unbound));
    assert!(matches!(v.content, ContentBinding::Pub(_)));
    assert!(
        sal_view
            .root
            .descend(&["employees", "emp"])
            .unwrap()
            .row_source
            .is_some()
    );
}

#[test]
fn decl_counts_match() {
    assert_eq!(dtd_info().root.decl_count(), 5);
    assert_eq!(xsd_info().root.decl_count(), 5);
    assert_eq!(view_info().root.decl_count(), 5);
}
