//! Explore an XSLTMark case: show its stylesheet, the generated XQuery,
//! the rewrite mode and the equivalence check against the XSLTVM, then the
//! plan over the relationally backed `db` view: its tier, why it fell
//! below the SQL tier, and what of the view the XQuery tier materialises.
//!
//! Run with: `cargo run --example xsltmark_explorer [case-name]`
//! (default case: `dbonerow`; pass `--list` to see all forty). Any other
//! argument that names no case, `--help` included, prints the usage and
//! the case list and exits non-zero.

use xsltdb::pipeline::{plan_transform, Tier};
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb_xml::{parse_trimmed, to_string, Guard, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, pretty_query, NodeHandle};
use xsltdb_xslt::{compile_str, transform};
use xsltdb_xsltmark::{all_cases, db_catalog, db_struct_info, db_xml};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "dbonerow".to_string());
    let cases = all_cases();
    let Some(c) = cases.iter().find(|c| c.name == arg) else {
        let rows: String =
            cases.iter().map(|c| format!("\n  {:<14} ({:?})", c.name, c.area)).collect();
        let list = format!("The forty XSLTMark cases:\n{rows}");
        if arg == "--list" {
            println!("{list}");
            return;
        }
        eprintln!("usage: xsltmark_explorer [case-name | --list]\n\n{list}");
        std::process::exit(2);
    };
    println!("=== case `{}` ({:?}) ===\n", c.name, c.area);
    println!("--- stylesheet ---\n{}\n", c.stylesheet);

    let sheet = compile_str(&c.stylesheet).expect("case compiles");
    let info = db_struct_info();
    match rewrite(&sheet, &info, &RewriteOptions::default()) {
        Ok(outcome) => {
            println!(
                "--- generated XQuery (mode {:?}, fully inlined: {}, \
                 dead templates removed: {}) ---\n",
                outcome.mode,
                outcome.fully_inlined(),
                outcome.removed_templates
            );
            println!("{}\n", pretty_query(&outcome.query));

            let doc = parse_trimmed(&db_xml(8, 0xDB)).expect("doc parses");
            let expected = to_string(&transform(&sheet, &doc).expect("VM runs"));
            let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
            let input = Some(NodeHandle::document(doc));
            let evaluated = evaluate_query_to_sink(
                &outcome.query,
                input,
                Vec::new(),
                Guard::unlimited(),
                &mut out,
            )
            .map_err(|e| e.to_string())
            .and_then(|_| out.finish().map_err(|e| e.to_string()));
            match evaluated {
                Ok(bytes) => {
                    let got = String::from_utf8_lossy(&bytes);
                    println!("--- output over an 8-row db document ---\n{got}\n");
                    println!("matches the XSLTVM output: {}", got == expected);
                }
                Err(e) => println!("query evaluation failed: {e}"),
            }
        }
        Err(e) => {
            println!("--- the rewrite is not applicable ---\n{e}\n");
            println!("the case executes on the VM tier (functional evaluation).");
        }
    }

    let (_, view) = db_catalog(8, 0xDB);
    let plan = plan_transform(&view, &c.stylesheet, &RewriteOptions::default()).expect("plans");
    println!("\n--- plan over the db view ---");
    println!("tier:            {:?}", plan.tier);
    println!("fallback reason: {}", plan.fallback_reason.as_deref().unwrap_or("-"));
    match plan.tier {
        Tier::Sql => println!("materialises:    nothing ({} on a fallback)", plan.projection),
        Tier::XQuery => println!("materialises:    {}", plan.projection),
        Tier::Vm => println!("materialises:    the whole view"),
    }
}
