//! Example 2 (§2.2) as a measurement: the user XQuery of Table 10 over an
//! XSLT view, executed (a) naïvely — materialise the view, run the XSLT
//! functionally, evaluate the query over the result — versus (b) via the
//! combined optimisation — compose the two rewrites into the Table 11
//! SQL/XML query and run it straight against the base tables.

use xsltdb::combined::compose_over_xslt_view;
use xsltdb::pipeline::no_rewrite_transform;
use xsltdb::sqlrewrite::rewrite_to_sql;
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_bench::median_micros;
use xsltdb_relstore::ExecStats;
use xsltdb_structinfo::struct_of_view;
use xsltdb_xml::{Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, parse_query, NodeHandle};
use xsltdb_xslt::compile_str;
use xsltdb_xsltmark::db_catalog;

fn main() {
    let rows = 2000usize;
    let iters = 9;
    let (catalog, view) = db_catalog(rows, 0xDB);

    // An XSLT view over the db document, then a query over its result.
    let stylesheet = r#"<xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="table">
<listing><head>all rows</head>
<body><xsl:apply-templates select="row[zip &gt; 70000]"/></body>
</listing>
</xsl:template>
<xsl:template match="row">
<entry><who><xsl:value-of select="lastname"/></who><zip><xsl:value-of select="zip"/></zip></entry>
</xsl:template>
</xsl:stylesheet>"#;
    let user_query = "for $e in ./listing/body/entry return $e";

    let sheet = compile_str(stylesheet).expect("stylesheet compiles");
    let info = struct_of_view(&view).expect("structure derivable");
    let xslt_q = rewrite(&sheet, &info, &RewriteOptions::default()).expect("rewrites");
    let user_q = parse_query(user_query).expect("user query parses");
    let composed = compose_over_xslt_view(&user_q, &xslt_q.query).expect("composes");
    let sql = rewrite_to_sql(&composed, &info).expect("SQL rewrite succeeds");

    println!("Example 2 — combined optimisation of XQuery over an XSLT view ({rows} rows)");
    println!();

    let stats = ExecStats::new();
    let naive = median_micros(iters, || {
        let run = no_rewrite_transform(&catalog, &view, &sheet, &stats).expect("baseline");
        for doc in run.documents {
            let mut out = StreamWriter::new(std::io::sink(), Guard::unlimited());
            let input = Some(NodeHandle::document(doc));
            evaluate_query_to_sink(&user_q, input, Vec::new(), Guard::unlimited(), &mut out)
                .expect("user query runs");
        }
    });
    let combined = median_micros(iters, || {
        let _ = sql.execute(&catalog, &stats).expect("Table 11 plan runs");
    });

    println!("{:<44} | {:>12}", "execution strategy", "median (µs)");
    println!("{}", "-".repeat(60));
    println!("{:<44} | {:>12.1}", "naive: materialise + XSLT + XQuery", naive);
    println!("{:<44} | {:>12.1}", "combined: composed Table-11 SQL/XML plan", combined);
    println!();
    println!("speedup: {:.1}x — the XSLT view never runs; the composed query", naive / combined);
    println!("reads the base tables directly (paper §2.2 / Table 11).");
}
