//! ExecGuard integration suite: resource-budget trips, panic isolation and
//! the fault-injected fallback lattice, end to end through the pipeline.
//!
//! The acceptance bar: infinite template recursion, unbounded FLWOR
//! expansion and an expired wall-clock deadline must each terminate with a
//! structured `GuardExceeded` — no panic, no hang — on every tier, and an
//! injected SQL-tier fault must complete through the VM tier with the
//! fallback chain reported.

use std::time::Duration;
use xsltdb::xqgen::RewriteOptions;
use xsltdb::{
    plan_bound, BoundPlan, FaultKind, FaultPoint, Guard, GuardExceeded, Limits, PipelineError,
    Resource, StreamRun, Tier, TierFailure,
};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, ExecStats, Table, XmlView};
use xsltdb_xml::StreamWriter;
use xsltdb_xquery::{evaluate_query_to_sink, parse_query, NodeHandle};

fn setup() -> (Catalog, XmlView) {
    let mut t = Table::new("t", &[("v", ColType::Int)]);
    for v in [7, 8, 9] {
        t.insert(vec![Datum::Int(v)]).unwrap();
    }
    let mut catalog = Catalog::new();
    catalog.add_table(t);
    let view = XmlView::new(
        "vu",
        SqlXmlQuery {
            base_table: "t".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem("r", vec![PubExpr::elem("v", vec![PubExpr::col("t", "v")])]),
        },
    );
    catalog.add_view(view.clone());
    (catalog, view)
}

fn wrap(body: &str) -> String {
    format!(
        r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
    )
}

/// A stylesheet the planner can push all the way to the SQL tier.
const SQL_OK: &str = r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#;
/// substring() has no SQL translation → plans to the XQuery tier.
const XQUERY_ONLY: &str =
    r#"<xsl:template match="r"><o><xsl:value-of select="substring(v, 1, 1)"/></o></xsl:template>"#;
/// generate-id() is not rewritable at all → plans to the VM tier.
const VM_ONLY: &str =
    r#"<xsl:template match="r"><o id="{generate-id(.)}"><xsl:value-of select="v"/></o></xsl:template>"#;
/// A template that re-applies itself to the same node forever.
const INFINITE_RECURSION: &str =
    r#"<xsl:template match="r"><xsl:apply-templates select="."/></xsl:template>"#;
/// What every tier must produce for the three rows of `setup()`.
const ALL_ROWS: &str = "<o>7</o><o>8</o><o>9</o>";

/// Run `plan` through the degradation lattice into a buffer; on success,
/// hand back the run together with the bytes it wrote.
fn run(
    plan: &BoundPlan,
    catalog: &Catalog,
    guard: &Guard,
) -> Result<(StreamRun, String), PipelineError> {
    let mut out = Vec::new();
    let run = plan.execute_to_writer(catalog, &ExecStats::new(), guard, &mut out)?;
    Ok((run, String::from_utf8(out).expect("output is UTF-8")))
}

fn expect_guard_trip(r: Result<(StreamRun, String), PipelineError>, resource: Resource) {
    match r {
        Err(PipelineError::Guard(GuardExceeded { resource: got, .. })) => {
            assert_eq!(got, resource, "tripped the wrong budget");
        }
        Err(other) => panic!("expected a guard trip on {resource:?}, got {other:?}"),
        Ok((run, _)) => panic!(
            "expected a guard trip on {resource:?}, but the {:?} tier succeeded",
            run.tier
        ),
    }
}

// ---------------------------------------------------------------- budgets

#[test]
fn infinite_template_recursion_trips_depth() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(INFINITE_RECURSION), &RewriteOptions::default())
        .unwrap();
    // Recursion defeats the SQL rewrite (the straightforward translation
    // keeps its recursive functions), so this planned below the SQL tier.
    assert_ne!(plan.tier(), Tier::Sql);
    let guard = Guard::new(Limits::UNLIMITED.with_max_depth(32));
    expect_guard_trip(run(&plan, &catalog, &guard), Resource::Depth);
}

#[test]
fn infinite_template_recursion_trips_fuel_when_depth_is_roomy() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(INFINITE_RECURSION), &RewriteOptions::default())
        .unwrap();
    // Small enough that the trip fires long before the runaway recursion
    // can exhaust the 2 MiB test-thread stack.
    let guard = Guard::new(Limits::UNLIMITED.with_fuel(120));
    expect_guard_trip(run(&plan, &catalog, &guard), Resource::Fuel);
}

#[test]
fn infinite_template_recursion_trips_depth_on_vm_tier() {
    // Knock out the XQuery tier at entry so the recursion reaches the VM:
    // the depth budget is exercised on the functional-evaluation path too,
    // not just the planned tier.
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(INFINITE_RECURSION), &RewriteOptions::default())
        .unwrap();
    assert_eq!(plan.tier(), Tier::XQuery);
    let guard = Guard::new(Limits::UNLIMITED.with_max_depth(32))
        .with_fault(FaultPoint::XQueryExec, FaultKind::Error);
    match run(&plan, &catalog, &guard) {
        Err(e) => assert!(e.to_string().contains("depth"), "unexpected error: {e}"),
        Ok(_) => panic!("runaway recursion must not complete"),
    }
    assert_eq!(guard.take_fault(FaultPoint::XQueryExec), None, "the XQuery tier never ran");
    assert_eq!(guard.trip().unwrap().resource, Resource::Depth);
}

#[test]
fn unbounded_flwor_expansion_trips_fuel() {
    // A recursive user function with a FLWOR body — the XQuery-tier shape
    // of runaway work. 200 fuel units stop it after a handful of tuples.
    let q = parse_query(
        "declare function local:spin($s) { for $x in $s return local:spin($s) }; \
         local:spin((1, 2, 3, 4, 5, 6, 7, 8))",
    )
    .unwrap();
    let doc = xsltdb_xml::parse_xml("<r/>").unwrap();
    let guard = Guard::new(Limits::UNLIMITED.with_fuel(200));
    let mut out = StreamWriter::new(Vec::new(), guard.clone());
    let input = Some(NodeHandle::document(doc));
    let r = evaluate_query_to_sink(&q, input, Vec::new(), guard.clone(), &mut out);
    assert!(r.is_err(), "runaway FLWOR must terminate with an error");
    assert_eq!(guard.trip().unwrap().resource, Resource::Fuel);
}

#[test]
fn ten_ms_deadline_terminates_every_tier() {
    let (catalog, view) = setup();
    for sheet in [SQL_OK, XQUERY_ONLY, VM_ONLY] {
        let plan = plan_bound(&catalog, &view, &wrap(sheet), &RewriteOptions::default()).unwrap();
        let guard = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_millis(10)));
        // Let the 10ms budget expire before the work starts, so the very
        // first strided clock check trips it deterministically.
        std::thread::sleep(Duration::from_millis(12));
        expect_guard_trip(run(&plan, &catalog, &guard), Resource::Deadline);
    }
}

#[test]
fn guard_trips_are_terminal_not_fallback_fodder() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql);
    // Fuel so small the SQL tier trips immediately. The XQuery and VM
    // tiers must NOT be tried: the error is Guard, not TiersExhausted.
    let guard = Guard::new(Limits::UNLIMITED.with_fuel(1));
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::Guard(trip)) => assert_eq!(trip.resource, Resource::Fuel),
        other => panic!("expected terminal guard trip, got {other:?}"),
    }
}

#[test]
fn server_default_limits_pass_normal_work() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    let guard = Guard::new(Limits::server_default());
    let (run, bytes) = run(&plan, &catalog, &guard).unwrap();
    assert_eq!(run.tier, Tier::Sql);
    assert!(run.fallbacks.is_empty());
    assert_eq!(bytes, ALL_ROWS);
}

#[test]
fn vm_output_is_charged_once_not_again_on_copy_out() {
    // The VM charges the text it builds into its result trees; copying
    // those trees to the writer must not charge the serialized bytes on
    // top. A cap of half the serialized size leaves room for the former
    // but not for both.
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(VM_ONLY), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Vm);
    let (full, _) = run(&plan, &catalog, &Guard::unlimited()).unwrap();
    let cap = Guard::new(Limits::UNLIMITED.with_max_output_bytes(full.bytes_written / 2));
    let (capped, _) = run(&plan, &catalog, &cap).unwrap();
    assert_eq!(capped.bytes_written, full.bytes_written);
}

// --------------------------------------------------- fallback lattice edges

#[test]
fn sql_fault_falls_back_to_xquery() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql);
    assert!(plan.fallback_reason().is_none());
    let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let (run, bytes) = run(&plan, &catalog, &guard).unwrap();
    assert_eq!(run.tier, Tier::XQuery);
    assert_eq!(run.fallbacks.len(), 1);
    assert_eq!(run.fallbacks[0].tier, "sql");
    assert!(!run.fallbacks[0].panicked);
    assert!(run.fallbacks[0].reason.contains("injected fault"));
    assert_eq!(bytes, ALL_ROWS);
}

#[test]
fn sql_and_xquery_faults_fall_back_to_vm_with_full_chain() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    let guard = Guard::unlimited()
        .with_fault(FaultPoint::SqlExec, FaultKind::Error)
        .with_fault(FaultPoint::XQueryExec, FaultKind::Error);
    let (run, bytes) = run(&plan, &catalog, &guard).unwrap();
    assert_eq!(run.tier, Tier::Vm);
    let chain: Vec<&str> = run.fallbacks.iter().map(|f| f.tier).collect();
    assert_eq!(chain, ["sql", "xquery"]);
    // All three rows still transformed correctly on the slowest tier.
    assert_eq!(bytes, ALL_ROWS);
}

#[test]
fn xquery_fault_falls_back_to_vm() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(XQUERY_ONLY), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::XQuery);
    // The plan records why it could not reach the SQL tier…
    assert!(plan.fallback_reason().is_some());
    let guard = Guard::unlimited().with_fault(FaultPoint::XQueryExec, FaultKind::Error);
    let (run, _) = run(&plan, &catalog, &guard).unwrap();
    // …and the execution-time chain records the XQuery-tier failure.
    assert_eq!(run.tier, Tier::Vm);
    assert_eq!(run.fallbacks.len(), 1);
    assert_eq!(run.fallbacks[0].tier, "xquery");
}

#[test]
fn vm_hard_failure_surfaces_typed_error() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(VM_ONLY), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Vm);
    let guard = Guard::unlimited().with_fault(FaultPoint::VmExec, FaultKind::Error);
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::Xslt(e)) => assert!(e.0.contains("injected fault")),
        other => panic!("expected the VM tier's own error, got {other:?}"),
    }
}

/// A built-in called with too many arguments is an error on the VM, so it
/// must be one on the XQuery tier too: neither tier may serve bytes.
#[test]
fn wrong_arity_calls_fail_typed_on_every_tier() {
    let (catalog, view) = setup();
    for select in [
        "string('a','b')",
        "true(1)",
        "string-length('ab','c')",
        "normalize-space('a','b')",
        "number('1','2')",
        "v[position(1) = 1]",
    ] {
        let body = format!(
            r#"<xsl:template match="r"><o><xsl:value-of select="{select}"/></o></xsl:template>"#
        );
        let plan = plan_bound(&catalog, &view, &wrap(&body), &RewriteOptions::default()).unwrap();
        assert_eq!(plan.tier(), Tier::XQuery, "{select}: {:?}", plan.fallback_reason());
        match run(&plan, &catalog, &Guard::unlimited()) {
            Err(PipelineError::TiersExhausted { attempts }) => {
                let tiers: Vec<&str> = attempts.iter().map(|a| a.tier).collect();
                assert_eq!(tiers, ["xquery", "vm"], "{select}");
                let typed = |a: &TierFailure| !a.panicked && a.reason.contains("argument(s), got");
                assert!(attempts.iter().all(typed), "{select}: {attempts:?}");
            }
            other => panic!("{select}: expected every tier to fail, got {other:?}"),
        }
    }
}

#[test]
fn materialize_fault_fails_xquery_then_vm_finds_it_disarmed() {
    // The Materialize fault is one-shot: it kills the XQuery tier's view
    // materialisation, then the VM tier's own materialisation proceeds.
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(XQUERY_ONLY), &RewriteOptions::default()).unwrap();
    let guard = Guard::unlimited().with_fault(FaultPoint::Materialize, FaultKind::Error);
    let (run, _) = run(&plan, &catalog, &guard).unwrap();
    assert_eq!(run.tier, Tier::Vm);
    assert!(run.fallbacks[0].reason.contains("injected fault materialising"));
}

#[test]
fn every_fault_point_and_kind_degrades_to_the_same_tier() {
    // (plan, fault point, tier that answers, failed tiers before it). The
    // VM has no tier below it; its faults are the typed-error tests above.
    let cases = [
        (SQL_OK, FaultPoint::SqlExec, Tier::XQuery, "sql"),
        (XQUERY_ONLY, FaultPoint::XQueryExec, Tier::Vm, "xquery"),
        (XQUERY_ONLY, FaultPoint::Materialize, Tier::Vm, "xquery"),
    ];
    let (catalog, view) = setup();
    for (sheet, point, tier, failed) in cases {
        for kind in [FaultKind::Error, FaultKind::Panic] {
            // A fresh plan per run: the faulted run demotes the plan it ran.
            let plan =
                plan_bound(&catalog, &view, &wrap(sheet), &RewriteOptions::default()).unwrap();
            let guard = Guard::unlimited().with_fault(point, kind);
            let (run, bytes) = run(&plan, &catalog, &guard).unwrap();
            assert_eq!(run.tier, tier, "{point:?} × {kind:?}");
            let chain: Vec<(&str, bool)> =
                run.fallbacks.iter().map(|f| (f.tier, f.panicked)).collect();
            assert_eq!(chain, [(failed, kind == FaultKind::Panic)], "{point:?} × {kind:?}");
            assert_eq!(bytes, ALL_ROWS, "{point:?} × {kind:?}");
        }
    }
}

// ------------------------------------------------------------ panic safety

#[test]
fn sql_panic_is_contained_and_falls_back() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Panic);
    let (run, _) = run(&plan, &catalog, &guard).unwrap();
    assert_eq!(run.tier, Tier::XQuery);
    assert!(run.fallbacks[0].panicked);
    assert!(run.fallbacks[0].reason.contains("injected panic"));
}

#[test]
fn vm_panic_with_no_tier_left_is_a_typed_panic_error() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(VM_ONLY), &RewriteOptions::default()).unwrap();
    let guard = Guard::unlimited().with_fault(FaultPoint::VmExec, FaultKind::Panic);
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::Panic { tier, message }) => {
            assert_eq!(tier, "vm");
            assert!(message.contains("injected panic"));
        }
        other => panic!("expected a contained panic error, got {other:?}"),
    }
}

#[test]
fn every_tier_panicking_reports_the_exhausted_chain() {
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    let guard = Guard::unlimited()
        .with_fault(FaultPoint::SqlExec, FaultKind::Panic)
        .with_fault(FaultPoint::XQueryExec, FaultKind::Panic)
        .with_fault(FaultPoint::VmExec, FaultKind::Panic);
    match run(&plan, &catalog, &guard) {
        Err(PipelineError::TiersExhausted { attempts }) => {
            let tiers: Vec<&str> = attempts.iter().map(|a| a.tier).collect();
            assert_eq!(tiers, ["sql", "xquery", "vm"]);
            assert!(attempts.iter().all(|a| a.panicked));
        }
        other => panic!("expected TiersExhausted, got {other:?}"),
    }
}

#[test]
fn shared_budget_accumulates_across_fallback_tiers() {
    // The fuel spent on the failed SQL attempt counts against the XQuery
    // and VM attempts too: with a budget sized for exactly one clean run,
    // a post-fault fallback trips it.
    let (catalog, view) = setup();
    // A fresh plan per run: the faulted probe demotes the plan it ran, and
    // the tight run must fall back from SQL too.
    let fresh = || plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();

    // Measure a clean XQuery-tier run's fuel appetite.
    let probe = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let (probed, _) = run(&fresh(), &catalog, &probe).unwrap();
    assert_eq!(probed.tier, Tier::XQuery);
    let appetite = probe.fuel_spent();

    // The same work with the budget set just under it must trip.
    let tight = Guard::new(Limits::UNLIMITED.with_fuel(appetite.saturating_sub(1)))
        .with_fault(FaultPoint::SqlExec, FaultKind::Error);
    expect_guard_trip(run(&fresh(), &catalog, &tight), Resource::Fuel);
}

// --------------------------------------------------------------- demotion

#[test]
fn each_fault_point_fires_only_at_its_own_tier() {
    // One SqlExec-faulted run demotes the plan to the XQuery tier. A second
    // run with SqlExec armed starts there, and the XQuery tier's projected
    // materialisation fires only `Materialize`: the armed SqlExec stays
    // unfired and the run completes with no fallback.
    let (catalog, view) = setup();
    let plan = plan_bound(&catalog, &view, &wrap(SQL_OK), &RewriteOptions::default()).unwrap();
    assert_eq!(plan.tier(), Tier::Sql);
    let faulted = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let (demoting, _) = run(&plan, &catalog, &faulted).unwrap();
    assert_eq!((demoting.tier, demoting.fallbacks.len()), (Tier::XQuery, 1));

    let armed = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
    let (served, bytes) = run(&plan, &catalog, &armed).unwrap();
    assert_eq!(served.tier, Tier::XQuery);
    assert!(served.fallbacks.is_empty(), "{:?}", served.fallbacks);
    assert_eq!(bytes, ALL_ROWS);
    assert_eq!(armed.take_fault(FaultPoint::SqlExec), Some(FaultKind::Error));
    // `execute` runs the planned tier and ignores the demotion.
    let docs = plan.execute(&catalog, &ExecStats::new()).unwrap();
    let planned: String = docs.iter().map(xsltdb_xml::to_string).collect();
    assert_eq!(planned, ALL_ROWS);
}
