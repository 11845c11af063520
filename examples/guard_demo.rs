//! ExecGuard tour: resource governance and graceful degradation on the
//! worked example of §2.
//!
//! Runs the quickstart pipeline through the one execution lattice
//! (`execute_to_writer`) several ways: under server-default limits, with
//! budgets small enough to trip (fuel, depth, deadline), and with injected
//! faults that force the SQL→XQuery→VM fallback lattice to exercise its
//! edges. A failed tier demotes its plan: later runs of that plan start
//! below it.
//!
//! Run with: `cargo run --example guard_demo`

use xsltdb::pipeline::plan_bound;
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{BoundPlan, FaultKind, FaultPoint, Guard, Limits, PipelineError, StreamRun};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use std::time::Duration;

fn setup() -> (Catalog, XmlView) {
    let mut dept = Table::new(
        "dept",
        &[("deptno", ColType::Int), ("dname", ColType::Text), ("loc", ColType::Text)],
    );
    for (no, dn, loc) in [(10, "ACCOUNTING", "NEW YORK"), (40, "OPERATIONS", "BOSTON")] {
        dept.insert(vec![Datum::Int(no), Datum::Text(dn.into()), Datum::Text(loc.into())])
            .expect("row matches schema");
    }
    let mut emp = Table::new(
        "emp",
        &[("empno", ColType::Int), ("ename", ColType::Text), ("sal", ColType::Int), ("deptno", ColType::Int)],
    );
    for (no, en, sal, d) in
        [(7782, "CLARK", 2450, 10), (7934, "MILLER", 1300, 10), (7954, "SMITH", 4900, 40)]
    {
        emp.insert(vec![Datum::Int(no), Datum::Text(en.into()), Datum::Int(sal), Datum::Int(d)])
            .expect("row matches schema");
    }
    let mut catalog = Catalog::new();
    catalog.add_table(dept);
    catalog.add_table(emp);
    let view = XmlView::new(
        "dept_emp",
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
                                vec![PubExpr::elem("ename", vec![PubExpr::col("emp", "ename")])],
                            )),
                        }],
                    ),
                ],
            ),
        },
    );
    catalog.add_view(view.clone());
    (catalog, view)
}

const SHEET: &str = r#"<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept"><out><xsl:apply-templates select="employees/emp"/></out></xsl:template>
<xsl:template match="emp"><e><xsl:value-of select="ename"/></e></xsl:template>
</xsl:stylesheet>"#;

const RUNAWAY: &str = r#"<?xml version="1.0"?><xsl:stylesheet version="1.0"
xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
<xsl:template match="dept"><xsl:apply-templates select="."/></xsl:template>
</xsl:stylesheet>"#;

/// Run `plan` through the degradation lattice, discarding the bytes.
fn run(plan: &BoundPlan, catalog: &Catalog, guard: &Guard) -> Result<StreamRun, PipelineError> {
    plan.execute_to_writer(catalog, &ExecStats::new(), guard, &mut std::io::sink())
}

fn main() {
    let (catalog, view) = setup();
    let opts = RewriteOptions::default();

    // 1. Normal work under the server-default budget.
    let plan = plan_bound(&catalog, &view, SHEET, &opts).expect("planning succeeds");
    let guard = Guard::new(Limits::server_default());
    let done = run(&plan, &catalog, &guard).expect("within budget");
    println!(
        "[1] server-default limits: tier={:?}, {} bytes, {} fuel spent, fallbacks={}",
        done.tier,
        done.bytes_written,
        guard.fuel_spent(),
        done.fallbacks.len()
    );

    // 2. A runaway stylesheet trips the recursion ceiling, on every tier.
    let runaway = plan_bound(&catalog, &view, RUNAWAY, &opts).expect("planning succeeds");
    let guard = Guard::new(Limits::UNLIMITED.with_max_depth(32));
    match run(&runaway, &catalog, &guard) {
        Err(PipelineError::Guard(trip)) => println!("[2] runaway recursion: {trip}"),
        other => panic!("expected a guard trip, got {other:?}"),
    }

    // 3. An already-expired deadline stops the pipeline at the first charge.
    let guard = Guard::new(Limits::UNLIMITED.with_deadline(Duration::ZERO));
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::Guard(trip)) => println!("[3] expired deadline:  {trip}"),
        other => panic!("expected a guard trip, got {other:?}"),
    }

    // 4. An injected SQL-tier fault degrades to a lower tier; the chain of
    //    abandoned tiers rides along on the result.
    let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let done = run(&plan, &catalog, &guard).expect("a lower tier answers");
    println!(
        "[4] injected SQL fault: answered by tier={:?} after {:?}",
        done.tier,
        done.fallbacks.iter().map(|f| f.tier).collect::<Vec<_>>()
    );

    // 5. Even a panicking tier is contained and degraded past. Step 4
    //    demoted `plan` past its SQL tier, so a fresh plan meets the fault;
    //    the demoted one starts on the XQuery tier with nothing to abandon.
    let fresh = plan_bound(&catalog, &view, SHEET, &opts).expect("planning succeeds");
    let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Panic);
    let done = run(&fresh, &catalog, &guard).expect("a lower tier answers");
    let first = done.fallbacks.first().expect("one tier was abandoned");
    let demoted = run(&plan, &catalog, &Guard::unlimited()).expect("the demoted plan answers");
    assert!(demoted.fallbacks.is_empty() && demoted.tier == done.tier);
    println!(
        "[5] injected SQL panic: contained (panicked={}), answered by tier={:?}; \
         the demoted plan starts there",
        first.panicked, done.tier
    );

    // 6. A guard trip is terminal — the budget is shared, so no tier is
    //    retried even though lower tiers are healthy.
    let guard = Guard::new(Limits::UNLIMITED.with_fuel(1));
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::Guard(trip)) => println!("[6] shared budget:     {trip} (no fallback)"),
        other => panic!("expected a terminal guard trip, got {other:?}"),
    }

    // 7. Hostile input at the front door: absurdly deep nesting is a parse
    //    error, not a stack overflow.
    let bomb = "<a>".repeat(5000) + &"</a>".repeat(5000);
    match xsltdb_xml::parse_xml(&bomb) {
        Err(e) => println!("[7] 5000-deep input:   {e}"),
        Ok(_) => panic!("deep nesting should be rejected"),
    }
}
