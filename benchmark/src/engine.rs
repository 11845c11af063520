//! The one file that calls the engine.
//!
//! Every function the benchmark times, every counter it reads and every
//! catalog it builds goes through here, so an engine API change is a
//! one-file follow-up. Nothing in this file measures; callers put their
//! own clocks and spans around these calls.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::sync::Arc;

use xsltdb::pipeline::{plan_cached_shared, plan_transform, Tier};
use xsltdb::sqlrewrite::rewrite_to_sql;
use xsltdb::xqgen::{rewrite, RewriteOptions};
use xsltdb::{Guard, Limits};
use xsltdb_serve::{read_response, write_request, FrontDoorConfig, Server};
use xsltdb_structinfo::canonicalize_view;
use xsltdb_xml::{NodeId, StreamWriter};
use xsltdb_xquery::{analyze_query, evaluate_query_to_sink, NodeHandle};

pub use xsltdb::pipeline::{BoundPlan, TransformPlan};
pub use xsltdb::plancache::SharedPlanCache;
pub use xsltdb::xqgen::RewriteOutcome;
pub use xsltdb_relstore::{Catalog, ExecStats, XmlView};
pub use xsltdb_serve::{FrontDoor, Request, Response, ServerHandle, Status};
pub use xsltdb_structinfo::StructInfo;
pub use xsltdb_xml::Document;
pub use xsltdb_xslt::Stylesheet;
pub use xsltdb_xsltmark::{all_cases, dbonerow_stylesheet};

/// The name the server registers the `db` view under.
const VIEW_NAME: &str = "db";

// ---- data --------------------------------------------------------------

/// The measured catalog: indexed, in memory or behind a buffer pool of
/// `pool_frames` 4 KiB frames.
pub fn build_catalog(rows: usize, seed: u64, pool_frames: Option<usize>) -> (Catalog, XmlView) {
    match pool_frames {
        None => xsltdb_xsltmark::db_catalog(rows, seed),
        Some(frames) => xsltdb_xsltmark::db_catalog_paged(rows, seed, frames),
    }
}

/// The oracle's catalog: same rows, no indexes, never paged.
pub fn build_reference_catalog(rows: usize, seed: u64) -> (Catalog, XmlView) {
    xsltdb_xsltmark::db_catalog_unindexed(rows, seed)
}

/// The `id` column in row order (the point workloads draw from it).
pub fn row_ids(rows: usize, seed: u64) -> Vec<i64> {
    xsltdb_xsltmark::db_rows(rows, seed)
        .into_iter()
        .map(|r| r.id)
        .collect()
}

// ---- oracle: the XSLTVM, never a tier under test -------------------------

/// Materialise the view once; every reference transform reads these.
pub fn reference_documents(catalog: &Catalog, view: &XmlView) -> Result<Vec<Document>, String> {
    view.materialize(catalog, &ExecStats::new())
        .map_err(|e| e.to_string())
}

/// What `no_rewrite_transform` + `to_string` produce for `sheet`, with
/// the view materialisation hoisted into [`reference_documents`].
pub fn reference_output(docs: &[Document], sheet: &str) -> Result<Vec<u8>, String> {
    let compiled = xsltdb_xslt::compile_str(sheet).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for d in docs {
        let result = xsltdb_xslt::transform(&compiled, d).map_err(|e| e.to_string())?;
        out.extend_from_slice(xsltdb_xml::to_string(&result).as_bytes());
    }
    Ok(out)
}

// ---- the door and the socket --------------------------------------------

/// `FrontDoorConfig::server_default()`, with the result cache off unless
/// asked for: the socket server holds an immutable catalog, so with the
/// cache on every repeat is a hit and nothing below the door runs.
pub fn new_door(result_cache: bool) -> FrontDoor {
    let mut config = FrontDoorConfig::server_default();
    if !result_cache {
        config.result_cache_bytes = 0;
    }
    FrontDoor::new(config)
}

pub fn door_transform(
    door: &FrontDoor,
    catalog: &Catalog,
    view: &XmlView,
    sheet: &str,
) -> Result<Vec<u8>, String> {
    door.transform(catalog, view, sheet, &RewriteOptions::default())
        .map(|out| out.bytes)
        .map_err(|e| e.to_string())
}

/// Serve `view` from `door` on an ephemeral loopback port. The door is
/// handed back too: its counters outlive the move into the server.
pub fn start_server(
    door: FrontDoor,
    catalog: Catalog,
    view: XmlView,
) -> io::Result<(ServerHandle, Arc<FrontDoor>)> {
    let mut server = Server::new(door, catalog);
    server.register_view(VIEW_NAME, view);
    let door = Arc::clone(server.door());
    Ok((server.serve(0)?, door))
}

/// A client connection as any sensible client opens one: `TCP_NODELAY`
/// on, nothing else tuned.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    Ok(conn)
}

pub fn request(sheet: String) -> Request {
    Request {
        view: VIEW_NAME.to_string(),
        stylesheet: sheet,
    }
}

/// One closed-loop round trip: first request byte out to last response
/// byte in.
pub fn round_trip(conn: &mut TcpStream, req: &Request) -> io::Result<Response> {
    write_request(conn, req)?;
    read_response(conn)
}

/// What a door has counted so far; callers difference two of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct DoorCounters {
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// Requests shed at admission, overload and queue timeout together.
    pub shed: u64,
    pub retries: u64,
}

pub fn door_counters(door: &FrontDoor) -> DoorCounters {
    let (plan_hits, plan_misses) = plan_cache_counters(door.cache());
    let stats = door.stats();
    DoorCounters {
        plan_hits,
        plan_misses,
        shed: stats.shed_overloaded + stats.shed_timeout,
        retries: stats.retries,
    }
}

// ---- planning, whole and by parts ---------------------------------------

pub fn plan_whole(view: &XmlView, sheet: &str) -> Result<TransformPlan, String> {
    plan_transform(view, sheet, &RewriteOptions::default()).map_err(|e| e.to_string())
}

pub fn compile(sheet: &str) -> Result<Stylesheet, String> {
    xsltdb_xslt::compile_str(sheet).map_err(|e| e.to_string())
}

/// `None` is the planner's "structure underivable, VM tier".
pub fn canonicalize(view: &XmlView) -> Option<StructInfo> {
    canonicalize_view(view).canonical
}

/// `None` is the planner's "falls to the VM tier".
pub fn xq_rewrite(sheet: &Stylesheet, info: &StructInfo) -> Option<RewriteOutcome> {
    rewrite(sheet, info, &RewriteOptions::default()).ok()
}

/// `false` is the planner's "falls to the XQuery tier".
pub fn sql_rewrite(outcome: &RewriteOutcome, info: &StructInfo) -> bool {
    rewrite_to_sql(&outcome.query, info).is_ok()
}

pub fn emission(outcome: &RewriteOutcome) -> usize {
    analyze_query(&outcome.query).emit_sites
}

// ---- serving, rung by rung ----------------------------------------------

pub fn new_plan_cache() -> SharedPlanCache {
    SharedPlanCache::default()
}

/// (hits, misses) of a plan cache since it was built.
pub fn plan_cache_counters(cache: &SharedPlanCache) -> (u64, u64) {
    let s = cache.stats();
    (s.hits, s.misses)
}

/// Plan-cache lookup (planning on a miss) and bind.
pub fn plan_lookup(
    cache: &SharedPlanCache,
    catalog: &Catalog,
    view: &XmlView,
    sheet: &str,
) -> Result<BoundPlan, String> {
    plan_cached_shared(cache, catalog, view, sheet, &RewriteOptions::default())
        .map_err(|e| e.to_string())
}

/// Run a bound plan into `out` under the guard budget the door would arm.
pub fn execute(
    plan: &BoundPlan,
    catalog: &Catalog,
    stats: &ExecStats,
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let guard = Guard::new(Limits::server_default());
    plan.execute_to_writer(catalog, stats, &guard, out)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// The counters of one execution that the report names.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounters {
    pub rows_scanned: u64,
    pub index_probes: u64,
    pub peak_materialized_nodes: u64,
    pub spilled_subtrees: u64,
}

pub fn exec_counters(stats: &ExecStats) -> ExecCounters {
    let s = stats.snapshot();
    ExecCounters {
        rows_scanned: s.rows_scanned,
        index_probes: s.index_probes,
        peak_materialized_nodes: s.peak_materialized_nodes,
        spilled_subtrees: s.spilled_subtrees,
    }
}

/// Buffer-pool totals so far; all zero for an in-memory catalog. Callers
/// difference two of these.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub page_reads: u64,
    pub pool_hits: u64,
    pub evictions: u64,
}

pub fn pool_counters(catalog: &Catalog) -> PoolCounters {
    catalog
        .pool_stats()
        .map_or_else(PoolCounters::default, |p| PoolCounters {
            page_reads: p.page_reads,
            pool_hits: p.pool_hits,
            evictions: p.evictions,
        })
}

/// What runs underneath `execute` on the tiers that materialise the view.
pub enum BelowExec<'a> {
    XQuery(&'a RewriteOutcome),
    Vm(&'a Stylesheet),
}

/// `None` on the SQL tier: no materialisation, nothing to take apart
/// from outside.
pub fn below_exec(plan: &BoundPlan) -> Option<BelowExec<'_>> {
    match (plan.tier(), &plan.plan().rewrite) {
        (Tier::Sql, _) => None,
        (Tier::XQuery, Some(outcome)) => Some(BelowExec::XQuery(outcome)),
        _ => Some(BelowExec::Vm(plan.sheet())),
    }
}

/// `XmlView::materialize` of the view the plan is bound to.
pub fn materialize(
    plan: &BoundPlan,
    catalog: &Catalog,
    stats: &ExecStats,
) -> Result<Vec<Rc<Document>>, String> {
    let docs = plan
        .view
        .materialize(catalog, stats)
        .map_err(|e| e.to_string())?;
    Ok(docs.into_iter().map(Rc::new).collect())
}

/// The XQuery tier's evaluator over already materialised documents.
pub fn xquery_eval(
    outcome: &RewriteOutcome,
    docs: &[Rc<Document>],
    out: &mut Vec<u8>,
) -> Result<(), String> {
    let guard = Guard::new(Limits::server_default());
    let mut writer = StreamWriter::new(out, guard.clone());
    for d in docs {
        let input = NodeHandle::new(Rc::clone(d), NodeId::DOCUMENT);
        evaluate_query_to_sink(
            &outcome.query,
            Some(input),
            Vec::new(),
            guard.clone(),
            &mut writer,
        )
        .map_err(|e| e.to_string())?;
    }
    writer.finish().map(|_| ()).map_err(|e| e.to_string())
}

/// The VM tier's transform over one already materialised document.
pub fn vm_transform(sheet: &Stylesheet, doc: &Document) -> Result<Document, String> {
    xsltdb_xslt::transform(sheet, doc).map_err(|e| e.to_string())
}

pub fn serialize(doc: &Document) -> String {
    xsltdb_xml::to_string(doc)
}
