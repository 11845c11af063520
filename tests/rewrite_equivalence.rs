//! Equivalence battery: for a range of stylesheets and inputs, the output
//! of the rewritten XQuery (inline mode, and the straightforward [9]
//! translation) must byte-for-byte match the functional XSLTVM evaluation.
//! Structural information comes from a DTD, exercising §3.2 bullet 1.

use xsltdb::xqgen::{rewrite, rewrite_straightforward, RewriteMode, RewriteOptions};
use xsltdb_structinfo::{struct_of_dtd, StructInfo};
use xsltdb_xml::{parse_trimmed, to_string, Document, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle, XQuery};
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

const DEPT_DOC: &str = "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>\
    <emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>\
    <emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>\
    <emp><empno>7954</empno><ename>SMITH</ename><sal>4900</sal></emp>\
    </employees></dept>";

fn wrap(body: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
    )
}

fn dept_info() -> StructInfo {
    struct_of_dtd(DEPT_DTD, "dept").unwrap()
}

/// Run a rewritten query over `doc` the way the XQuery tier does: through
/// `evaluate_query_to_sink` into a `StreamWriter`.
fn run_query(q: &XQuery, doc: Document) -> Result<String, String> {
    let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
    let input = Some(NodeHandle::document(doc));
    evaluate_query_to_sink(q, input, Vec::new(), Guard::unlimited(), &mut out)
        .map_err(|e| e.to_string())?;
    Ok(String::from_utf8(out.finish().map_err(|e| e.to_string())?).unwrap())
}

/// Assert the inline rewrite output equals the VM output; returns the mode.
fn assert_equivalent(body: &str, doc_text: &str, info: &StructInfo) -> RewriteMode {
    let sheet = compile_str(&wrap(body)).unwrap();
    let doc = parse_trimmed(doc_text).unwrap();
    let expected = to_string(&transform(&sheet, &doc).unwrap());

    let outcome = rewrite(&sheet, info, &RewriteOptions::default())
        .unwrap_or_else(|e| panic!("rewrite failed for:\n{body}\n{e}"));
    let got = run_query(&outcome.query, doc.clone()).unwrap_or_else(|e| {
        panic!(
            "evaluation failed for:\n{}\n{e}",
            xsltdb_xquery::pretty_query(&outcome.query)
        )
    });
    assert_eq!(
        got,
        expected,
        "rewrite output differs for stylesheet:\n{body}\nquery:\n{}",
        xsltdb_xquery::pretty_query(&outcome.query)
    );

    // The straightforward translation must agree too.
    let sf = rewrite_straightforward(&sheet).unwrap();
    let got = run_query(&sf.query, doc).unwrap_or_else(|e| {
        panic!(
            "straightforward evaluation failed for:\n{}\n{e}",
            xsltdb_xquery::pretty_query(&sf.query)
        )
    });
    assert_eq!(got, expected, "straightforward output differs for:\n{body}");

    outcome.mode
}

#[test]
fn empty_stylesheet_builtin_only() {
    let mode = assert_equivalent("", DEPT_DOC, &dept_info());
    assert_eq!(mode, RewriteMode::Inline);
}

#[test]
fn value_of_and_literals() {
    assert_equivalent(
        r#"<xsl:template match="dept"><out><xsl:value-of select="dname"/>@<xsl:value-of select="loc"/></out></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn apply_templates_default_select() {
    assert_equivalent(
        r#"<xsl:template match="dept"><d><xsl:apply-templates/></d></xsl:template>
           <xsl:template match="dname"><n><xsl:value-of select="."/></n></xsl:template>
           <xsl:template match="loc"><l><xsl:value-of select="."/></l></xsl:template>
           <xsl:template match="employees"><e><xsl:apply-templates select="emp"/></e></xsl:template>
           <xsl:template match="emp"><p><xsl:value-of select="ename"/></p></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn value_predicate_filters() {
    assert_equivalent(
        r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp[sal &gt; 2000]"/></xsl:template>
           <xsl:template match="emp"><hi><xsl:value-of select="ename"/></hi></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn for_each_with_sort() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:for-each select="employees/emp">
               <xsl:sort select="sal" data-type="number" order="descending"/>
               <s><xsl:value-of select="sal"/></s>
             </xsl:for-each>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn apply_templates_with_sort() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:apply-templates select="employees/emp">
               <xsl:sort select="ename"/>
             </xsl:apply-templates>
           </xsl:template>
           <xsl:template match="emp"><n><xsl:value-of select="ename"/></n></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn choose_over_values() {
    assert_equivalent(
        r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp"/></xsl:template>
           <xsl:template match="emp">
             <xsl:choose>
               <xsl:when test="sal &gt; 4000"><vp><xsl:value-of select="ename"/></vp></xsl:when>
               <xsl:when test="sal &gt; 2000"><mgr><xsl:value-of select="ename"/></mgr></xsl:when>
               <xsl:otherwise><clerk><xsl:value-of select="ename"/></clerk></xsl:otherwise>
             </xsl:choose>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn variables_and_call_template() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:variable name="city" select="loc"/>
             <xsl:call-template name="header">
               <xsl:with-param name="title" select="dname"/>
             </xsl:call-template>
             <place><xsl:value-of select="$city"/></place>
           </xsl:template>
           <xsl:template name="header">
             <xsl:param name="title" select="'none'"/>
             <h><xsl:value-of select="$title"/></h>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn rtf_variable_value_and_copy() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:variable name="frag"><x>1</x><y>2</y></xsl:variable>
             <out><xsl:copy-of select="$frag"/></out>
             <s><xsl:value-of select="$frag"/></s>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn avt_attributes() {
    assert_equivalent(
        r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp"/></xsl:template>
           <xsl:template match="emp"><row id="e-{empno}" pay="{sal}"/></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn computed_element_and_attribute() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:element name="dept-view">
               <xsl:attribute name="name"><xsl:value-of select="dname"/></xsl:attribute>
             </xsl:element>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn aggregates_count_and_sum() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <stats>
               <n><xsl:value-of select="count(employees/emp)"/></n>
               <total><xsl:value-of select="sum(employees/emp/sal)"/></total>
             </stats>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn residual_pattern_predicates() {
    // Tables 18/19: two templates on the same element, one predicated.
    assert_equivalent(
        r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp"/></xsl:template>
           <xsl:template match="emp[sal &gt; 4000]" priority="1"><vip><xsl:value-of select="ename"/></vip></xsl:template>
           <xsl:template match="emp"><std><xsl:value-of select="ename"/></std></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn text_templates_and_builtin_mix() {
    assert_equivalent(
        r#"<xsl:template match="dname"><DN><xsl:value-of select="."/></DN></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn string_functions_in_templates() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <o a="{substring(dname, 1, 3)}">
               <xsl:value-of select="concat(dname, '/', loc)"/>
               <xsl:value-of select="translate(dname, 'ACO', 'aco')"/>
             </o>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

/// `substring()` with infinite or NaN bounds (XPath 1.0 §4.2): the VM and
/// the XQuery tier share one kernel, so both select nothing when
/// `round(start) + round(len)` is NaN or `-INF`.
#[test]
fn substring_with_infinite_bounds() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <o>
               <a><xsl:value-of select="substring('12345', -1 div 0, 1 div 0)"/></a>
               <b><xsl:value-of select="substring('12345', 1, -1 div 0)"/></b>
               <c><xsl:value-of select="substring('12345', -42, 1 div 0)"/></c>
               <d><xsl:value-of select="substring('12345', 0 div 0, 3)"/></d>
             </o>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

/// XSLT 1.0 compares `data-type="text"` sort keys as strings, even when
/// the key expression yields a number: `212` sorts before `5`.
#[test]
fn text_sort_key_with_a_number_value_sorts_as_a_string() {
    assert_equivalent(
        r#"<xsl:template match="table"><s><xsl:for-each select="row">
             <xsl:sort select="count(*) + id"/>
             <i><xsl:value-of select="id"/></i>
           </xsl:for-each></s></xsl:template>"#,
        &xsltdb_xsltmark::db_xml(30, 11),
        &xsltdb_xsltmark::db_struct_info(),
    );
}

#[test]
fn nested_for_each() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:for-each select="employees">
               <xsl:for-each select="emp[sal &gt; 1500]">
                 <e><xsl:value-of select="empno"/></e>
               </xsl:for-each>
             </xsl:for-each>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn choice_model_group() {
    let dtd = r#"
        <!ELEMENT msg (err | ok)>
        <!ELEMENT err (#PCDATA)>
        <!ELEMENT ok (#PCDATA)>
    "#;
    let info = struct_of_dtd(dtd, "msg").unwrap();
    for doc in ["<msg><err>boom</err></msg>", "<msg><ok>fine</ok></msg>"] {
        assert_equivalent(
            r#"<xsl:template match="msg"><m><xsl:apply-templates/></m></xsl:template>
               <xsl:template match="err"><E><xsl:value-of select="."/></E></xsl:template>
               <xsl:template match="ok"><O><xsl:value-of select="."/></O></xsl:template>"#,
            doc,
            &info,
        );
    }
}

#[test]
fn optional_child_absent_and_present() {
    let dtd = r#"
        <!ELEMENT r (a, b?)>
        <!ELEMENT a (#PCDATA)>
        <!ELEMENT b (#PCDATA)>
    "#;
    let info = struct_of_dtd(dtd, "r").unwrap();
    for doc in ["<r><a>1</a><b>2</b></r>", "<r><a>1</a></r>"] {
        assert_equivalent(
            r#"<xsl:template match="r"><o><xsl:apply-templates/></o></xsl:template>
               <xsl:template match="a"><A/></xsl:template>
               <xsl:template match="b"><B><xsl:value-of select="."/></B></xsl:template>"#,
            doc,
            &info,
        );
    }
}

#[test]
fn recursive_stylesheet_falls_back_but_matches() {
    let rec_body = r#"
        <xsl:template match="/"><xsl:call-template name="count">
          <xsl:with-param name="n" select="3"/>
        </xsl:call-template></xsl:template>
        <xsl:template name="count">
          <xsl:param name="n" select="0"/>
          <xsl:if test="$n &gt; 0">
            <i><xsl:value-of select="$n"/></i>
            <xsl:call-template name="count">
              <xsl:with-param name="n" select="$n - 1"/>
            </xsl:call-template>
          </xsl:if>
        </xsl:template>"#;
    let sheet = compile_str(&wrap(rec_body)).unwrap();
    let doc = parse_trimmed(DEPT_DOC).unwrap();
    let expected = to_string(&transform(&sheet, &doc).unwrap());
    let outcome = rewrite(&sheet, &dept_info(), &RewriteOptions::default()).unwrap();
    assert_ne!(outcome.mode, RewriteMode::Inline);
    assert_eq!(run_query(&outcome.query, doc).unwrap(), expected);
}

#[test]
fn modes_dispatch_correctly() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:apply-templates select="dname"/>
             <xsl:apply-templates select="dname" mode="loud"/>
           </xsl:template>
           <xsl:template match="dname"><q><xsl:value-of select="."/></q></xsl:template>
           <xsl:template match="dname" mode="loud"><Q><xsl:value-of select="."/></Q></xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn apply_templates_with_params() {
    assert_equivalent(
        r#"<xsl:template match="dept">
             <xsl:apply-templates select="employees/emp">
               <xsl:with-param name="tag" select="'E'"/>
             </xsl:apply-templates>
           </xsl:template>
           <xsl:template match="emp">
             <xsl:param name="tag" select="'X'"/>
             <o t="{$tag}"><xsl:value-of select="empno"/></o>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn xsl_if_conditional() {
    assert_equivalent(
        r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp"/></xsl:template>
           <xsl:template match="emp">
             <xsl:if test="sal &gt; 2000"><rich><xsl:value-of select="ename"/></rich></xsl:if>
           </xsl:template>"#,
        DEPT_DOC,
        &dept_info(),
    );
}

#[test]
fn mixed_content_preserves_document_order() {
    // Text interleaved with element children: the generated query must not
    // hoist the text ahead of the elements.
    let dtd = "<!ELEMENT p (#PCDATA | b)*> <!ELEMENT b (#PCDATA)>";
    let info = struct_of_dtd(dtd, "p").unwrap();
    for doc in [
        "<p>alpha<b>beta</b>gamma</p>",
        "<p><b>first</b>middle<b>last</b></p>",
    ] {
        assert_equivalent(
            r#"<xsl:template match="p"><o><xsl:apply-templates/></o></xsl:template>
               <xsl:template match="b">[<xsl:value-of select="."/>]</xsl:template>"#,
            doc,
            &info,
        );
    }
}

#[test]
fn xsd_derived_structure_equivalence() {
    // §3.2 bullet 1 via XML Schema instead of DTD.
    let xsd = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="order">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="customer" type="xs:string"/>
        <xs:element name="line" minOccurs="0" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="sku" type="xs:string"/>
              <xs:element name="qty" type="xs:integer"/>
            </xs:sequence>
          </xs:complexType>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;
    let info = xsltdb_structinfo::struct_of_xsd(xsd).unwrap();
    let doc = "<order><customer>ACME</customer>\
               <line><sku>A1</sku><qty>3</qty></line>\
               <line><sku>B2</sku><qty>7</qty></line></order>";
    let mode = assert_equivalent(
        r#"<xsl:template match="order">
             <invoice for="{customer}">
               <xsl:apply-templates select="line[qty &gt; 5]"/>
               <lines><xsl:value-of select="count(line)"/></lines>
             </invoice>
           </xsl:template>
           <xsl:template match="line"><big sku="{sku}"/></xsl:template>"#,
        doc,
        &info,
    );
    assert_eq!(mode, RewriteMode::Inline);
}

#[test]
fn multiple_docs_same_query() {
    // The compiled query is reusable across documents of the same schema —
    // the paper's core use case ("a set of large number of input XML
    // documents ... conforming to one schema").
    let info = dept_info();
    let sheet = compile_str(&wrap(
        r#"<xsl:template match="dept"><n><xsl:value-of select="count(employees/emp)"/></n></xsl:template>"#,
    ))
    .unwrap();
    let outcome = rewrite(&sheet, &info, &RewriteOptions::default()).unwrap();
    for n in 0..4 {
        let mut body = String::from("<dept><dname>D</dname><loc>L</loc><employees>");
        for i in 0..n {
            body.push_str(&format!(
                "<emp><empno>{i}</empno><ename>E{i}</ename><sal>{}</sal></emp>",
                100 * i
            ));
        }
        body.push_str("</employees></dept>");
        let doc = parse_trimmed(&body).unwrap();
        let expected = to_string(&transform(&sheet, &doc).unwrap());
        assert_eq!(run_query(&outcome.query, doc).unwrap(), expected);
    }
}
