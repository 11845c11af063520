//! Datum differential for the SQL/XML publisher: every kind of column
//! value — NULL, integers at their extremes, awkward floats, text that
//! needs escaping — printed as element content, as attribute values and
//! inside `||` concatenation must serialize to exactly `Datum::to_text`
//! escaped for its position. Run over both storage backings and both
//! emission sinks, so reading a bound row by reference can never print
//! something the owned rendering would not.

use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::{
    Catalog, ColType, Datum, ExecStats, PubExpr, SlotBindings, SqlXmlQuery, Table,
};
use xsltdb_xml::escape::{escape_attr, escape_text};
use xsltdb_xml::{Guard, StreamWriter, TreeSink};

fn rows() -> Vec<[Datum; 3]> {
    let text = |s: &str| Datum::Text(s.into());
    vec![
        [Datum::Null, Datum::Null, Datum::Null],
        [Datum::Int(0), Datum::Num(f64::NAN), text("<&>\"\r")],
        [Datum::Int(-7), Datum::Num(-0.0), text("plain")],
        [Datum::Int(i64::MIN), Datum::Num(1e21), text("")],
        [Datum::Int(i64::MAX), Datum::Num(0.5), text("a\tb\nc ]]>")],
        [Datum::Int(-1), Datum::Int(3), text("é &amp;")],
    ]
}

const COLS: [&str; 3] = ["i", "n", "t"];

fn catalog(paged: bool) -> Catalog {
    let mut t = Table::new("d", &[("i", ColType::Int), ("n", ColType::Num), ("t", ColType::Text)]);
    for row in rows() {
        t.insert(row.to_vec()).unwrap();
    }
    let mut c = if paged { Catalog::new_paged(4) } else { Catalog::new() };
    c.add_table(t);
    assert_eq!(c.table("d").unwrap().is_paged(), paged);
    c
}

/// `[i|n|t]` as SQL `||` over the three columns.
fn concat() -> PubExpr {
    let mut parts = vec![PubExpr::lit("[")];
    for (k, c) in COLS.iter().enumerate() {
        if k > 0 {
            parts.push(PubExpr::lit("|"));
        }
        parts.push(PubExpr::col("d", c));
    }
    parts.push(PubExpr::lit("]"));
    PubExpr::StrConcat(parts)
}

/// `<r i=.. n=.. t=.. s=..><i>..</i><n>..</n><t>..</t><s>..</s></r>`.
fn query() -> SqlXmlQuery {
    let mut attrs: Vec<(String, PubExpr)> =
        COLS.iter().map(|c| (c.to_string(), PubExpr::col("d", c))).collect();
    attrs.push(("s".into(), concat()));
    let mut children: Vec<PubExpr> =
        COLS.iter().map(|c| PubExpr::elem(c, vec![PubExpr::col("d", c)])).collect();
    children.push(PubExpr::elem("s", vec![concat()]));
    SqlXmlQuery {
        base_table: "d".into(),
        where_clause: Conjunction::default(),
        order_by: Vec::new(),
        select: PubExpr::Element { name: "r".into(), attrs, children },
    }
}

/// The expected bytes, built from `Datum::to_text` alone.
fn expected() -> String {
    let mut out = String::new();
    for row in rows() {
        let texts: Vec<String> = row.iter().map(Datum::to_text).collect();
        let cat = format!("[{}]", texts.join("|"));
        out.push_str("<r");
        for (name, v) in COLS.iter().zip(&texts).chain([(&"s", &cat)]) {
            out.push_str(&format!(" {name}=\"{}\"", escape_attr(v)));
        }
        out.push('>');
        for (name, v) in COLS.iter().zip(&texts).chain([(&"s", &cat)]) {
            if v.is_empty() {
                out.push_str(&format!("<{name}/>"));
            } else {
                out.push_str(&format!("<{name}>{}</{name}>", escape_text(v)));
            }
        }
        out.push_str("</r>");
    }
    out
}

#[test]
fn every_datum_kind_publishes_as_its_to_text_rendering() {
    let want = expected();
    // The awkward renderings really are in play.
    for needle in
        ["-9223372036854775808", "NaN", "1000000000000000000000", "0.5", "&lt;&amp;&gt;", "&#13;"]
    {
        assert!(want.contains(needle), "expected output lacks {needle}: {want}");
    }
    let q = query();
    for paged in [false, true] {
        let c = catalog(paged);
        let stats = ExecStats::new();
        let guard = Guard::unlimited();
        let mut w = StreamWriter::new(Vec::new(), guard.clone());
        q.run(&c, &stats, &guard, &SlotBindings::identity(), &mut w).unwrap();
        let streamed = String::from_utf8(w.finish().unwrap()).unwrap();
        assert_eq!(streamed, want, "StreamWriter, paged = {paged}");

        let mut tree = TreeSink::new(guard.clone());
        q.run(&c, &stats, &guard, &SlotBindings::identity(), &mut tree).unwrap();
        let docs = tree.into_documents();
        assert_eq!(docs.len(), rows().len());
        let built: String = docs.iter().map(xsltdb_xml::to_string).collect();
        assert_eq!(built, want, "TreeSink, paged = {paged}");
    }
}
