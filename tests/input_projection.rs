//! Static input projection for the XQuery tier: the tier materialises only
//! the view nodes the rewritten query can reach, and stops an `XMLAgg`
//! after row `k` when the query reads only `row[k]`.
//!
//! * **Differential** — every rewritten case, forced through the XQuery
//!   tier (an injected SQL-tier fault where it plans SQL), over Mem and
//!   Paged catalogs at several sizes, is byte-identical to the VM.
//! * **Adversarial sheets** — position, wildcards, unions, string values,
//!   parameters and the axes the analysis does not model.
//! * **Analysis pins** — the projection of every XQuery-tier case.
//! * **Materialisation counts** — peak materialised nodes at 10k rows.
//! * **Budgets** — a fuel budget the full view would trip now completes.

use std::sync::Arc;
use xsltdb::pipeline::{no_rewrite_transform, plan_transform, Tier, TransformPlan};
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{FaultKind, FaultPoint, Guard, Limits, PipelineError, Resource};
use xsltdb_relstore::{Catalog, ExecStats, XmlView};
use xsltdb_xml::to_string;
use xsltdb_xsltmark::{all_cases, case, db_catalog, db_catalog_paged};

/// Planning and evaluating the recursive cases wants a deep stack.
fn on_big_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(64 * 1024 * 1024)
        .spawn(f)
        .expect("spawn")
        .join()
        .expect("test thread panicked")
}

fn plan(sheet: &str) -> Arc<TransformPlan> {
    let (_, view) = db_catalog(4, 1);
    Arc::new(plan_transform(&view, sheet, &RewriteOptions::default()).expect("plans"))
}

/// Plan `sheet` over `view` and run it through the XQuery tier (the SQL
/// tier faulted away where the plan has one); return the bytes, the tier
/// that produced them and the peak materialised nodes. The plan is fresh
/// for every run, because the faulted run demotes the plan it ran.
fn run_xquery(sheet: &str, catalog: &Catalog, view: &XmlView) -> (String, Tier, u64) {
    let plan = Arc::new(plan_transform(view, sheet, &RewriteOptions::default()).expect("plans"));
    let bound = plan.bind(view, catalog).expect("binds");
    let guard = Guard::unlimited();
    let guard = match plan.tier {
        Tier::Sql => guard.with_fault(FaultPoint::SqlExec, FaultKind::Error),
        _ => guard,
    };
    let stats = ExecStats::new();
    let mut out = Vec::new();
    let run = bound
        .execute_to_writer(catalog, &stats, &guard, &mut out)
        .expect("runs");
    let nodes = stats.snapshot().peak_materialized_nodes;
    (String::from_utf8(out).expect("utf-8"), run.tier, nodes)
}

fn vm_output(plan: &TransformPlan, catalog: &Catalog, view: &XmlView) -> String {
    let run = no_rewrite_transform(catalog, view, &plan.sheet, &ExecStats::new()).expect("VM");
    run.documents.iter().map(to_string).collect()
}

/// Mem and Paged catalogs at every size the differential covers.
fn catalogs() -> Vec<(String, Catalog, XmlView)> {
    let mut out = Vec::new();
    for rows in [0, 1, 2, 3, 64] {
        let (c, v) = db_catalog(rows, 0x5EED);
        out.push((format!("mem/{rows}"), c, v));
        let (c, v) = db_catalog_paged(rows, 0x5EED, 16);
        out.push((format!("paged/{rows}"), c, v));
    }
    out
}

#[test]
fn every_rewritten_case_is_byte_identical_through_the_xquery_tier() {
    on_big_stack(|| {
        let catalogs = catalogs();
        let mut rewritten = 0;
        for c in all_cases() {
            let plan = plan(&c.stylesheet);
            if plan.rewrite.is_none() {
                continue;
            }
            rewritten += 1;
            for (label, catalog, view) in &catalogs {
                let (got, tier, _) = run_xquery(&c.stylesheet, catalog, view);
                assert_eq!(tier, Tier::XQuery, "{} on {label}", c.name);
                assert_eq!(
                    got,
                    vm_output(&plan, catalog, view),
                    "{} on {label}",
                    c.name
                );
            }
        }
        assert_eq!(rewritten, 39, "every case but `functions` has a rewrite");
    });
}

fn sheet(templates: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{templates}</xsl:stylesheet>"#
    )
}

/// `table` applies `select`; each selected row prints its `id`.
fn rows_sheet(select: &str) -> String {
    sheet(&format!(
        r#"<xsl:template match="table"><o><xsl:apply-templates select="{select}"/></o></xsl:template>
           <xsl:template match="row"><r><xsl:value-of select="id"/></r></xsl:template>"#
    ))
}

/// `table` prints the value of `select`.
fn value_sheet(select: &str) -> String {
    sheet(&format!(
        r#"<xsl:template match="table"><o><xsl:value-of select="{select}"/></o></xsl:template>"#
    ))
}

/// The adversarial sheets, with the projection each one gets.
fn adversarial() -> Vec<(&'static str, String, &'static str)> {
    vec![
        ("row[last()]", rows_sheet("row[last()]"), "table{row{id}}"),
        ("row[2]", rows_sheet("row[2]"), "table{row[..2]{id}}"),
        (
            "row[zip>5][1]",
            rows_sheet("row[zip &gt; 50000][1]"),
            "table{row{id,zip}}",
        ),
        (
            "row[1][zip>5]",
            rows_sheet("row[1][zip &gt; 50000]"),
            "table{row[..1]{id,zip}}",
        ),
        (
            "count(row[1])",
            value_sheet("count(row[1])"),
            "table{row[..1]{}}",
        ),
        ("*[3]", rows_sheet("*[3]"), "table{row{id}}"),
        (
            "row[1]/*[3]",
            value_sheet("row[1]/*[3]"),
            "table{row[..1]{id,firstname,lastname,street,city,state,zip}}",
        ),
        ("string(.)", value_sheet("."), "full"),
        ("name(*)", value_sheet("name(*)"), "table{row{}}"),
        (
            "row[1] | row[2]",
            rows_sheet("row[1] | row[2]"),
            "table{row[..2]{id}}",
        ),
        (
            "two named templates",
            sheet(
                r#"<xsl:template match="table"><o><xsl:call-template name="outer"><xsl:with-param name="n" select="row[2]/lastname"/></xsl:call-template></o></xsl:template>
                   <xsl:template name="outer"><xsl:param name="n"/><xsl:call-template name="inner"><xsl:with-param name="m" select="$n"/></xsl:call-template></xsl:template>
                   <xsl:template name="inner"><xsl:param name="m"/><i><xsl:value-of select="$m"/></i></xsl:template>"#,
            ),
            "table{row[..2]{lastname}}",
        ),
        (
            "$r[1]",
            sheet(
                r#"<xsl:template match="table"><o><xsl:for-each select="row"><xsl:variable name="r" select="."/><i><xsl:value-of select="$r[1]/id"/></i></xsl:for-each></o></xsl:template>"#,
            ),
            "full",
        ),
        (
            "*[1]/self::zip",
            value_sheet("row[1]/*[1]/self::zip"),
            "table{row[..1]{id{},firstname{},lastname{},street{},city{},state{},zip}}",
        ),
        (
            "row[1] and //zip",
            value_sheet("concat(row[1]/id, '/', count(.//zip))"),
            "table{row{id,zip{}}}",
        ),
        (
            "following-sibling::row",
            value_sheet("row[1]/following-sibling::row[1]/id"),
            "full",
        ),
        ("..", value_sheet("row[2]/zip/../id"), "full"),
        // The trace never witnesses a sibling selection: the `row`
        // template must survive §3.7 in function mode…
        (
            "apply-templates following-sibling::row",
            rows_sheet("row[1]/following-sibling::row[1]"),
            "full",
        ),
        // …and an inline site under a sibling for-each must not trace `()`.
        (
            "for-each following-sibling::row",
            sheet(
                r#"<xsl:template match="table"><o><xsl:for-each select="row[1]/following-sibling::row[1]"><xsl:apply-templates select="."/></xsl:for-each></o></xsl:template>
                   <xsl:template match="row"><r><xsl:value-of select="id"/></r></xsl:template>"#,
            ),
            "full",
        ),
    ]
}

#[test]
fn adversarial_sheets_match_the_vm_through_the_xquery_tier() {
    on_big_stack(|| {
        let sizes: Vec<_> = [0, 1, 2, 3, 5]
            .into_iter()
            .map(|n| db_catalog(n, 0xAD))
            .collect();
        for (name, src, shape) in adversarial() {
            let plan = plan(&src);
            assert!(plan.rewrite.is_some(), "{name} must rewrite");
            assert_eq!(plan.projection.to_string(), shape, "{name}");
            for (catalog, view) in &sizes {
                let (got, tier, _) = run_xquery(&src, catalog, view);
                assert_eq!(tier, Tier::XQuery, "{name}");
                assert_eq!(got, vm_output(&plan, catalog, view), "{name}");
            }
        }
    });
}

#[test]
fn xquery_tier_cases_have_pinned_projections() {
    let pinned = [
        ("identity", "full"),
        ("descendants", "table{row{zip{}}}"),
        ("union", "table{row[..1]{firstname,lastname}}"),
        ("params", "table{row[..1]{id}}"),
        ("modes", "table{row[..1]{firstname,lastname}}"),
        ("bottles", "table{}"),
        ("tower", "table{}"),
        ("queens", "table{}"),
        ("games", "table{}"),
        ("wordcount", "table{row[..1]{street}}"),
        ("reverser", "table{row[..1]{lastname}}"),
        (
            "oddtemplates",
            "table{row{id{},firstname{},lastname{},street{},city{},state{},zip{}}}",
        ),
        ("hierarchy", "table{}"),
        ("summarize", "table{}"),
        ("encrypt", "table{row[..1]{lastname}}"),
        ("backwards", "full"),
    ];
    on_big_stack(move || {
        for (name, shape) in pinned {
            let plan = plan(&case(name).stylesheet);
            assert_eq!(plan.tier, Tier::XQuery, "{name}");
            assert_eq!(plan.projection.to_string(), shape, "{name}");
        }
        let xq = all_cases()
            .iter()
            .filter(|c| plan(&c.stylesheet).tier == Tier::XQuery)
            .count();
        assert_eq!(xq, pinned.len(), "every XQuery-tier case is pinned");
    });
}

#[test]
fn materialisation_counts_at_10k_rows() {
    on_big_stack(|| {
        let (catalog, view) = db_catalog(10_000, 1);
        let nodes = |name: &str| {
            let (got, tier, nodes) = run_xquery(&case(name).stylesheet, &catalog, &view);
            assert_eq!(tier, Tier::XQuery, "{name}");
            assert!(!got.is_empty(), "{name}");
            nodes
        };
        // The document node and `<table>`.
        assert_eq!(nodes("hierarchy"), 2);
        // `row[1]` with `firstname` and `lastname` and their text.
        assert!(nodes("union") <= 7);
        // Every row with its `zip` element, no text.
        assert_eq!(nodes("descendants"), 20_002);
        // The whole view.
        assert_eq!(nodes("identity"), 150_002);
    });
}

#[test]
fn a_fuel_budget_the_full_view_trips_now_completes() {
    on_big_stack(|| {
        let (catalog, view) = db_catalog(1_000, 1);
        let budget = Limits::UNLIMITED.with_fuel(2_000);
        // Materialising the whole view alone costs more than the budget...
        let full = view.materialize_guarded(&catalog, &ExecStats::new(), &Guard::new(budget));
        assert!(full.is_err(), "the full view fits the budget");
        // ...but `hierarchy` reads no rows, so its projection fits.
        let hierarchy = plan(&case("hierarchy").stylesheet);
        assert_eq!(hierarchy.projection.to_string(), "table{}");
        let bound = hierarchy.bind(&view, &catalog).unwrap();
        let mut out = Vec::new();
        let run =
            bound.execute_to_writer(&catalog, &ExecStats::new(), &Guard::new(budget), &mut out);
        assert_eq!(run.expect("completes under the budget").tier, Tier::XQuery);
        assert!(String::from_utf8(out).unwrap().starts_with("<tree>"));
        // `identity` still needs the whole view and still trips.
        let identity = plan(&case("identity").stylesheet)
            .bind(&view, &catalog)
            .unwrap();
        match identity.execute_to_writer(
            &catalog,
            &ExecStats::new(),
            &Guard::new(budget),
            &mut Vec::new(),
        ) {
            Err(PipelineError::Guard(g)) => assert_eq!(g.resource, Resource::Fuel),
            other => panic!("expected a fuel trip, got {:?}", other.map(|r| r.tier)),
        }
    });
}

/// A view with attributes and mixed content:
/// `<r n="1">x<i k="{k}">{v}</i>*y<z/></r>` over one anchor row.
fn mixed_view() -> (Catalog, XmlView) {
    use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
    use xsltdb_relstore::{ColType, Conjunction, Datum, Table};
    let mut doc = Table::new("doc", &[("d", ColType::Int)]);
    doc.insert(vec![Datum::Int(1)]).unwrap();
    let mut items = Table::new("items", &[("k", ColType::Int), ("v", ColType::Text)]);
    for (k, v) in [(3, "c"), (1, "a"), (2, "b")] {
        items
            .insert(vec![Datum::Int(k), Datum::Text(v.into())])
            .unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add_table(doc);
    catalog.add_table(items);
    let select = PubExpr::Element {
        name: "r".into(),
        attrs: vec![("n".into(), PubExpr::lit("1"))],
        children: vec![
            PubExpr::lit("x"),
            PubExpr::Agg {
                table: "items".into(),
                predicate: Vec::new(),
                order_by: Vec::new(),
                limit: None,
                body: Box::new(PubExpr::Element {
                    name: "i".into(),
                    attrs: vec![("k".into(), PubExpr::col("items", "k"))],
                    children: vec![PubExpr::col("items", "v")],
                }),
            },
            PubExpr::lit("y"),
            PubExpr::elem("z", Vec::new()),
        ],
    };
    let query = SqlXmlQuery {
        base_table: "doc".into(),
        where_clause: Conjunction::default(),
        order_by: Vec::new(),
        select,
    };
    (catalog, XmlView::new("mixed", query))
}

#[test]
fn attributes_and_mixed_content_project_soundly() {
    let (catalog, view) = mixed_view();
    let r = |body: &str| {
        sheet(&format!(
            r#"<xsl:template match="r"><o>{body}</o></xsl:template>"#
        ))
    };
    for (src, shape) in [
        // Text either side of the items stays two text nodes.
        (
            r#"<xsl:for-each select="text()">[<xsl:value-of select="."/>]</xsl:for-each>"#,
            "r{i{},z,text()}",
        ),
        (r#"<xsl:value-of select="i[2]/@k"/>"#, "r{i[..2]{}}"),
        (r#"<xsl:value-of select="count(i[@k &gt; 1])"/>"#, "r{i{}}"),
        (
            r#"<xsl:value-of select="@n"/>|<xsl:value-of select="z"/>"#,
            "r{z}",
        ),
    ] {
        let src = r(src);
        let plan = Arc::new(plan_transform(&view, &src, &RewriteOptions::default()).unwrap());
        assert_eq!(plan.projection.to_string(), shape, "{src}");
        let (got, tier, _) = run_xquery(&src, &catalog, &view);
        assert_eq!(tier, Tier::XQuery, "{src}");
        assert_eq!(got, vm_output(&plan, &catalog, &view), "{src}");
    }
}

/// Queries written directly against the `db` view: evaluated over the
/// full and the projected view, they must print the same.
#[test]
fn hand_written_queries_read_the_same_from_the_projected_view() {
    use xsltdb::projection::Projection;
    use xsltdb_xml::{Guard, StreamWriter};
    use xsltdb_xquery::{evaluate_query_to_sink, parse_query, NodeHandle};
    let (catalog, view) = db_catalog(5, 0xAD);
    let info = xsltdb_structinfo::canonicalize_view(&view)
        .canonical
        .unwrap();
    let full = view.materialize(&catalog, &ExecStats::new()).unwrap();
    for (src, shape) in [
        // The query's result is copied out whole.
        (
            "$var000/table/row[2]",
            "table{row[..2]{id,firstname,lastname,street,city,state,zip}}",
        ),
        // `$c` holds several nodes: the `else` branch may still see a zip.
        (
            r#"let $c := $var000/table/row[1]/* return
               if ($c instance of element(zip)) then "zip"
               else fn:string-join(for $x in $c return fn:string($x), ",")"#,
            "table{row[..1]{id,firstname,lastname,street,city,state,zip}}",
        ),
        // A `for` variable holds one: its `else` branch is narrowed.
        (
            r#"for $x in $var000/table/row[1]/* return
               if ($x instance of element(zip)) then "zip" else fn:string($x)"#,
            "table{row[..1]{id,firstname,lastname,street,city,state,zip{}}}",
        ),
    ] {
        let query = parse_query(&format!("declare variable $var000 := .; {src}")).unwrap();
        let projection = Projection::of_query(&query, &info);
        assert_eq!(projection.to_string(), shape, "{src}");
        let pruned = projection
            .apply(&view)
            .materialize(&catalog, &ExecStats::new())
            .unwrap();
        let run = |doc: &xsltdb_xml::Document| {
            let mut out = StreamWriter::new(Vec::new(), Guard::unlimited());
            let input = Some(NodeHandle::document(doc.clone()));
            evaluate_query_to_sink(&query, input, Vec::new(), Guard::unlimited(), &mut out)
                .unwrap();
            out.finish().unwrap()
        };
        assert_eq!(run(&pruned[0]), run(&full[0]), "{src}");
    }
}
