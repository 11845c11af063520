//! Schema-driven recompilation (paper §6 and §7.3): the same stylesheet is
//! partially evaluated against *different* structural information, and each
//! schema version yields its own specialised XQuery — the recompilation
//! Oracle automates when a registered XML schema evolves.
//!
//! Version 1 of the schema has no `phone` element; version 2 adds it as an
//! optional child. The stylesheet has a `phone` template — dead code under
//! v1 (removed by §3.7), live under v2.
//!
//! Run with: `cargo run --example schema_evolution`

use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_structinfo::{struct_of_dtd, struct_of_xsd};
use xsltdb_xml::{parse_trimmed, to_string, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, pretty_query, NodeHandle};
use xsltdb_xslt::compile_str;

const STYLESHEET: &str = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="contact"><card><xsl:apply-templates/></card></xsl:template>
<xsl:template match="name"><n><xsl:value-of select="."/></n></xsl:template>
<xsl:template match="email"><e><xsl:value-of select="."/></e></xsl:template>
<xsl:template match="phone"><p><xsl:value-of select="."/></p></xsl:template>
</xsl:stylesheet>"#;

/// Schema version 1 as a DTD (no phone).
const DTD_V1: &str = r#"
    <!ELEMENT contact (name, email)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT email (#PCDATA)>
"#;

/// Schema version 2 as an XML Schema (optional phone added).
const XSD_V2: &str = r#"
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="contact">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="name" type="xs:string"/>
        <xs:element name="email" type="xs:string"/>
        <xs:element name="phone" type="xs:string" minOccurs="0"/>
      </xs:sequence>
    </xs:complexType>
  </xs:element>
</xs:schema>"#;

fn main() {
    let sheet = compile_str(STYLESHEET).expect("stylesheet compiles");

    let v1 = struct_of_dtd(DTD_V1, "contact").expect("DTD parses");
    let v2 = struct_of_xsd(XSD_V2).expect("XSD parses");

    // The paper's §4.2 artifact: the annotated sample document the partial
    // evaluator runs the XSLTVM against (xdb:* attributes carry the model
    // group and cardinality information).
    println!("=== Annotated sample documents (paper §4.2) ===\n");
    println!("v1: {}", to_string(&xsltdb_structinfo::generate_annotated(&v1)));
    println!("v2: {}\n", to_string(&xsltdb_structinfo::generate_annotated(&v2)));

    let q1 = rewrite(&sheet, &v1, &RewriteOptions::default()).expect("v1 rewrite");
    let q2 = rewrite(&sheet, &v2, &RewriteOptions::default()).expect("v2 rewrite");

    println!("=== Query specialised for schema v1 (DTD, no phone) ===\n");
    println!("{}\n", pretty_query(&q1.query));
    println!(
        "dead templates removed: {} (the phone template is unreachable)\n",
        q1.removed_templates
    );

    println!("=== Query specialised for schema v2 (XSD, optional phone) ===\n");
    println!("{}\n", pretty_query(&q2.query));
    println!("dead templates removed: {}\n", q2.removed_templates);

    // Run each specialised query over a conforming document.
    for (label, query, doc_text) in [
        ("v1", &q1.query, "<contact><name>Ada</name><email>ada@ex.org</email></contact>"),
        (
            "v2",
            &q2.query,
            "<contact><name>Ada</name><email>ada@ex.org</email><phone>555-1234</phone></contact>",
        ),
        (
            "v2 (phone absent)",
            &q2.query,
            "<contact><name>Bob</name><email>bob@ex.org</email></contact>",
        ),
    ] {
        let doc = parse_trimmed(doc_text).expect("document parses");
        let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
        let input = Some(NodeHandle::document(doc));
        evaluate_query_to_sink(query, input, Vec::new(), Guard::unlimited(), &mut out)
            .expect("query runs");
        let bytes = out.finish().expect("output closes");
        println!("{label}: {}", String::from_utf8_lossy(&bytes));
    }
}
