//! Property-based testing of the central invariant: for documents drawn
//! randomly from a schema and stylesheets drawn from a parameterised
//! family, the rewritten XQuery's output equals the XSLTVM's output.

use proptest::prelude::*;
use std::rc::Rc;
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_structinfo::{struct_of_dtd, StructInfo};
use xsltdb_xml::{parse_trimmed, to_string, Guard, NodeId, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle};
use xsltdb_xslt::{compile_str, transform};

const DEPT_DTD: &str = r#"
    <!ELEMENT dept (dname, loc, employees)>
    <!ELEMENT dname (#PCDATA)>
    <!ELEMENT loc (#PCDATA)>
    <!ELEMENT employees (emp*)>
    <!ELEMENT emp (empno, ename, sal)>
    <!ELEMENT empno (#PCDATA)>
    <!ELEMENT ename (#PCDATA)>
    <!ELEMENT sal (#PCDATA)>
"#;

fn dept_info() -> StructInfo {
    struct_of_dtd(DEPT_DTD, "dept").unwrap()
}

#[derive(Debug, Clone)]
struct Emp {
    empno: u32,
    ename: String,
    sal: u32,
}

fn emp_strategy() -> impl Strategy<Value = Emp> {
    (1000u32..9999, "[A-Z]{1,8}", 0u32..10000).prop_map(|(empno, ename, sal)| Emp {
        empno,
        ename,
        sal,
    })
}

fn doc_strategy() -> impl Strategy<Value = String> {
    (
        "[A-Z]{1,10}",
        "[A-Z ]{1,12}",
        proptest::collection::vec(emp_strategy(), 0..8),
    )
        .prop_map(|(dname, loc, emps)| {
            let mut s = format!("<dept><dname>{dname}</dname><loc>{}</loc><employees>", loc.trim());
            for e in emps {
                s.push_str(&format!(
                    "<emp><empno>{}</empno><ename>{}</ename><sal>{}</sal></emp>",
                    e.empno, e.ename, e.sal
                ));
            }
            s.push_str("</employees></dept>");
            s
        })
}

fn check_equivalence(doc_text: &str, stylesheet: &str, info: &StructInfo) {
    let sheet = compile_str(stylesheet).unwrap();
    let doc = parse_trimmed(doc_text).unwrap();
    let expected = to_string(&transform(&sheet, &doc).unwrap());
    let outcome = rewrite(&sheet, info, &RewriteOptions::default()).unwrap();
    let input = NodeHandle::new(Rc::new(doc), NodeId::DOCUMENT);
    let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
    evaluate_query_to_sink(&outcome.query, Some(input), Vec::new(), Guard::unlimited(), &mut out)
        .unwrap();
    let got = String::from_utf8(out.finish().unwrap()).unwrap();
    assert_eq!(
        got,
        expected,
        "mismatch for doc {doc_text}\nquery:\n{}",
        xsltdb_xquery::pretty_query(&outcome.query)
    );
}

fn param_stylesheet(threshold: u32, descending: bool, with_sort: bool) -> String {
    let sort = if with_sort {
        format!(
            r#"<xsl:sort select="sal" data-type="number" order="{}"/>"#,
            if descending { "descending" } else { "ascending" }
        )
    } else {
        String::new()
    };
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="dept">
          <report for="{{dname}}">
            <xsl:apply-templates select="employees/emp[sal &gt; {threshold}]">{sort}</xsl:apply-templates>
            <count><xsl:value-of select="count(employees/emp)"/></count>
            <payroll><xsl:value-of select="sum(employees/emp/sal)"/></payroll>
          </report>
        </xsl:template>
        <xsl:template match="emp">
          <row no="{{empno}}">
            <xsl:choose>
              <xsl:when test="sal &gt; 5000"><high><xsl:value-of select="ename"/></high></xsl:when>
              <xsl:otherwise><low><xsl:value-of select="ename"/></low></xsl:otherwise>
            </xsl:choose>
          </row>
        </xsl:template>
        </xsl:stylesheet>"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rewrite_equals_vm_on_random_docs(doc in doc_strategy(), threshold in 0u32..10000) {
        let sheet = param_stylesheet(threshold, false, false);
        check_equivalence(&doc, &sheet, &dept_info());
    }

    #[test]
    fn rewrite_equals_vm_with_sorting(
        doc in doc_strategy(),
        threshold in 0u32..10000,
        descending in any::<bool>(),
    ) {
        let sheet = param_stylesheet(threshold, descending, true);
        check_equivalence(&doc, &sheet, &dept_info());
    }

    #[test]
    fn builtin_only_rewrite_equals_vm(doc in doc_strategy()) {
        let sheet = r#"<xsl:stylesheet version="1.0"
            xmlns:xsl="http://www.w3.org/1999/XSL/Transform"/>"#;
        check_equivalence(&doc, sheet, &dept_info());
    }

    #[test]
    fn identityish_per_field_templates(doc in doc_strategy()) {
        let sheet = r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
          <xsl:template match="dept"><d><xsl:apply-templates/></d></xsl:template>
          <xsl:template match="dname"><a><xsl:value-of select="."/></a></xsl:template>
          <xsl:template match="loc"><b><xsl:value-of select="."/></b></xsl:template>
          <xsl:template match="employees"><c><xsl:apply-templates select="emp"/></c></xsl:template>
          <xsl:template match="emp"><e><xsl:value-of select="empno"/>:<xsl:value-of select="sal"/></e></xsl:template>
        </xsl:stylesheet>"#;
        check_equivalence(&doc, sheet, &dept_info());
    }
}

// ---------------------------------------------------------------------------
// Random stylesheets: generate template bodies from a small grammar of XSLT
// instructions over the dept schema and check rewrite equivalence.
// ---------------------------------------------------------------------------

/// One randomly chosen instruction for the `emp` template body.
#[derive(Debug, Clone)]
enum EmpInstr {
    ValueOf(&'static str),
    LiteralWithAvt(&'static str),
    IfOverSal(u32),
    ChooseOverSal(u32, u32),
    CountSiblings,
}

impl EmpInstr {
    fn render(&self) -> String {
        match self {
            EmpInstr::ValueOf(f) => format!("<v><xsl:value-of select=\"{f}\"/></v>"),
            EmpInstr::LiteralWithAvt(f) => format!("<a x=\"{{{f}}}\"/>"),
            EmpInstr::IfOverSal(t) => format!(
                "<xsl:if test=\"sal &gt; {t}\"><rich/></xsl:if>"
            ),
            EmpInstr::ChooseOverSal(a, b) => {
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                format!(
                    "<xsl:choose>\
                     <xsl:when test=\"sal &gt; {hi}\"><h/></xsl:when>\
                     <xsl:when test=\"sal &gt; {lo}\"><m/></xsl:when>\
                     <xsl:otherwise><l/></xsl:otherwise>\
                     </xsl:choose>"
                )
            }
            EmpInstr::CountSiblings => {
                "<n><xsl:value-of select=\"count(../emp)\"/></n>".to_string()
            }
        }
    }
}

fn emp_instr_strategy() -> impl Strategy<Value = EmpInstr> {
    prop_oneof![
        prop_oneof![Just("empno"), Just("ename"), Just("sal")].prop_map(EmpInstr::ValueOf),
        prop_oneof![Just("empno"), Just("sal")].prop_map(EmpInstr::LiteralWithAvt),
        (0u32..10000).prop_map(EmpInstr::IfOverSal),
        ((0u32..10000), (0u32..10000)).prop_map(|(a, b)| EmpInstr::ChooseOverSal(a, b)),
        Just(EmpInstr::CountSiblings),
    ]
}

/// Shape of the dept template: which dispatch strategy it uses.
#[derive(Debug, Clone)]
enum DeptShape {
    ApplyAll,
    ApplyEmps { threshold: u32, sorted: bool },
    ForEachEmps { threshold: u32 },
}

fn dept_shape_strategy() -> impl Strategy<Value = DeptShape> {
    prop_oneof![
        Just(DeptShape::ApplyAll),
        ((0u32..10000), any::<bool>())
            .prop_map(|(threshold, sorted)| DeptShape::ApplyEmps { threshold, sorted }),
        (0u32..10000).prop_map(|threshold| DeptShape::ForEachEmps { threshold }),
    ]
}

fn random_stylesheet(shape: &DeptShape, emp_body: &[EmpInstr]) -> String {
    let body: String = emp_body.iter().map(EmpInstr::render).collect();
    let dept = match shape {
        DeptShape::ApplyAll => "<d><xsl:apply-templates/></d>".to_string(),
        DeptShape::ApplyEmps { threshold, sorted } => {
            let sort = if *sorted {
                r#"<xsl:sort select="sal" data-type="number"/>"#
            } else {
                ""
            };
            format!(
                "<d><xsl:apply-templates select=\"employees/emp[sal &gt; {threshold}]\">{sort}</xsl:apply-templates></d>"
            )
        }
        DeptShape::ForEachEmps { threshold } => format!(
            "<d><xsl:for-each select=\"employees/emp[sal &gt; {threshold}]\"><e>{body}</e></xsl:for-each></d>"
        ),
    };
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:template match="dept">{dept}</xsl:template>
        <xsl:template match="dname"><nm><xsl:value-of select="."/></nm></xsl:template>
        <xsl:template match="loc"/>
        <xsl:template match="employees"><xsl:apply-templates select="emp"/></xsl:template>
        <xsl:template match="emp"><row>{body}</row></xsl:template>
        </xsl:stylesheet>"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_stylesheets_rewrite_equivalently(
        doc in doc_strategy(),
        shape in dept_shape_strategy(),
        emp_body in proptest::collection::vec(emp_instr_strategy(), 1..4),
    ) {
        let sheet = random_stylesheet(&shape, &emp_body);
        check_equivalence(&doc, &sheet, &dept_info());
    }
}
