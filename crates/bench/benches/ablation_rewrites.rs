//! Ablations of the §3.3–3.7 rewrite techniques (the design choices
//! DESIGN.md calls out), measured as XQuery-evaluation time of the
//! generated queries over the same materialised document:
//!
//! * `inline_full`      — every optimisation on (the paper's approach);
//! * `no_model_groups`  — children dispatch via the Table 12 `for …
//!   instance of` loop instead of model-group specialisation;
//! * `no_cardinality`   — `FOR` everywhere, never `LET`;
//! * `straightforward`  — the [9] translation: runtime pattern dispatch
//!   through per-template functions (what §6 argues is inefficient).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::rc::Rc;
use xsltdb::xqgen::{rewrite, rewrite_straightforward, RewriteOptions};
use xsltdb_xml::{parse_trimmed, Guard, NodeId, StreamWriter};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle, SinkRun, XQuery};
use xsltdb_xslt::compile_str;
use xsltdb_xsltmark::{case, db_struct_info, db_xml};

const ROWS: usize = 1000;

/// Run `q` over `doc` the way the XQuery tier does: streamed into a
/// writer (here one that discards the bytes).
fn run(q: &XQuery, doc: &Rc<xsltdb_xml::Document>) -> SinkRun {
    let input = NodeHandle::new(Rc::clone(doc), NodeId::DOCUMENT);
    let mut out = StreamWriter::new(std::io::sink(), Guard::unlimited());
    let run = evaluate_query_to_sink(q, Some(input), Vec::new(), Guard::unlimited(), &mut out)
        .expect("query runs");
    out.finish().expect("output closes");
    run
}

/// The apply-templates-heavy case where dispatch strategy matters most.
const CASE: &str = "metric";

fn variants() -> Vec<(&'static str, XQuery)> {
    let sheet = compile_str(&case(CASE).stylesheet).expect("case compiles");
    let info = db_struct_info();
    let full = RewriteOptions::default();
    let no_groups = RewriteOptions { use_model_groups: false, ..full.clone() };
    let no_card = RewriteOptions { use_cardinality: false, ..full.clone() };
    vec![
        (
            "inline_full",
            rewrite(&sheet, &info, &full).expect("rewrites").query,
        ),
        (
            "no_model_groups",
            rewrite(&sheet, &info, &no_groups).expect("rewrites").query,
        ),
        (
            "no_cardinality",
            rewrite(&sheet, &info, &no_card).expect("rewrites").query,
        ),
        (
            "straightforward",
            rewrite_straightforward(&sheet).expect("rewrites").query,
        ),
    ]
}

fn ablation(c: &mut Criterion) {
    let doc = Rc::new(parse_trimmed(&db_xml(ROWS, 0xDB)).expect("doc parses"));
    let mut group = c.benchmark_group("ablation_rewrites");
    group.sample_size(10);
    for (name, query) in variants() {
        group.bench_with_input(BenchmarkId::new(CASE, name), &query, |b, q| {
            b.iter(|| black_box(run(q, &doc)))
        });
    }
    group.finish();
}

/// §3.7 in isolation: the `decoy` case carries seven never-matching
/// templates; with dead-template removal off (function mode) every apply
/// site tests them all at run time.
fn dead_templates(c: &mut Criterion) {
    let sheet = compile_str(&case("decoy").stylesheet).expect("case compiles");
    let info = db_struct_info();
    let doc = Rc::new(parse_trimmed(&db_xml(ROWS, 0xDB)).expect("doc parses"));
    let removed = rewrite(
        &sheet,
        &info,
        &RewriteOptions { inline: false, ..Default::default() },
    )
    .expect("rewrites")
    .query;
    let kept = rewrite(
        &sheet,
        &info,
        &RewriteOptions { inline: false, remove_dead_templates: false, ..Default::default() },
    )
    .expect("rewrites")
    .query;

    let mut group = c.benchmark_group("ablation_dead_templates");
    group.sample_size(10);
    for (name, query) in [("removed_3_7", removed), ("kept", kept)] {
        group.bench_with_input(BenchmarkId::new("decoy", name), &query, |b, q| {
            b.iter(|| black_box(run(q, &doc)))
        });
    }
    group.finish();
}

criterion_group!(benches, ablation, dead_templates);
criterion_main!(benches);
