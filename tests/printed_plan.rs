//! The printed XQuery is the query that runs. For each of the forty
//! XSLTMark cases, in inline mode, function mode and the straightforward
//! translation, `parse_query(pretty_query(q))` must equal `q` once its
//! `Annotated` wrappers are stripped (the printer writes them as comments,
//! which the parser drops). The re-parsed query must also serve the same
//! bytes as `q` over a db document whose zips sort differently as text
//! and as numbers.

#[path = "support/unannotated.rs"]
mod unannotated;

use unannotated::stripped;
use xsltdb::xqgen::{rewrite, rewrite_straightforward, RewriteOptions};
use xsltdb_xml::{parse_trimmed, Document, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, parse_query, pretty_query, NodeHandle, XQuery};
use xsltdb_xsltmark::{all_cases, db_rows, db_struct_info};
use xsltdb_xslt::compile_str;

/// The db document with each zip cut to `zip % 997`: one- to three-digit
/// zips, so `"10" < "9"` as text while 9 < 10 as numbers.
fn mixed_width_db(rows: usize, seed: u64) -> Document {
    let mut s = String::from("<table>");
    for r in db_rows(rows, seed) {
        s.push_str(&format!(
            "<row><id>{}</id><firstname>{}</firstname><lastname>{}</lastname>\
             <street>{}</street><city>{}</city><state>{}</state><zip>{}</zip></row>",
            r.id, r.firstname, r.lastname, r.street, r.city, r.state, r.zip % 997
        ));
    }
    s.push_str("</table>");
    parse_trimmed(&s).expect("generated XML parses")
}

fn serve(q: &XQuery, doc: &Document) -> Result<Vec<u8>, String> {
    let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
    let input = Some(NodeHandle::document(doc.clone()));
    evaluate_query_to_sink(q, input, Vec::new(), Guard::unlimited(), &mut out)
        .map_err(|e| e.to_string())?;
    out.finish().map_err(|e| e.to_string())
}

#[test]
fn every_generated_query_reparses_to_itself_and_serves_the_same_bytes() {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(check_all_cases)
        .expect("spawn")
        .join()
        .expect("round-trip thread panicked");
}

fn check_all_cases() {
    let doc = mixed_width_db(30, 11);
    let info = db_struct_info();
    let functions = RewriteOptions { inline: false, ..RewriteOptions::default() };
    let mut checked = 0;
    let mut failures = Vec::new();
    for case in all_cases() {
        let sheet = compile_str(&case.stylesheet).expect("suite sheet compiles");
        let outcomes = [
            ("inline", rewrite(&sheet, &info, &RewriteOptions::default())),
            ("function", rewrite(&sheet, &info, &functions)),
            ("straightforward", rewrite_straightforward(&sheet)),
        ];
        for (mode, outcome) in outcomes {
            // A case that does not rewrite runs on the VM: it has no query.
            let Ok(outcome) = outcome else { continue };
            checked += 1;
            let q = &outcome.query;
            let printed = pretty_query(q);
            let name = case.name;
            let reparsed = parse_query(&printed)
                .unwrap_or_else(|e| panic!("{name} ({mode}) does not reparse: {e}\n{printed}"));
            if reparsed != stripped(q) {
                failures.push(format!("{name} ({mode}): reparses to another query"));
            }
            let want = serve(q, &doc).unwrap_or_else(|e| panic!("{name} ({mode}) fails: {e}"));
            if serve(&reparsed, &doc) != Ok(want) {
                failures.push(format!("{name} ({mode}): reparsed query serves other bytes"));
            }
        }
    }
    // Inline mode rewrites 39 of the cases; function and straightforward
    // mode 37 each (see the suite's pinned list).
    assert_eq!(checked, 113);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
