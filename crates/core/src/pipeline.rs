//! The tiered transformation pipeline and the no-rewrite baseline.
//!
//! Planning tries the tiers in order of the paper's architecture diagram
//! (Figure 1):
//!
//! 1. **SQL tier** — XSLT → XQuery → SQL/XML over the view's base tables
//!    (Table 7): no XML materialisation at all, value predicates through
//!    B-tree indexes;
//! 2. **XQuery tier** — XSLT → XQuery evaluated over the materialised view
//!    documents: still no template dispatch or pattern matching at run
//!    time;
//! 3. **VM tier** — the functional evaluation (materialise + XSLTVM), which
//!    is also the *no-rewrite baseline* of the paper's Figures 2 and 3.
//!
//! A prepared [`TransformPlan`] is a pure function of (stylesheet ×
//! canonical structure × options): planning canonicalises the view's
//! structure first, so the plan names tables only through symbolic slots
//! and carries **no view identity at all**. Executing requires binding the
//! plan to a concrete view ([`TransformPlan::bind`] → [`BoundPlan`]),
//! which validates the view's canonical fingerprint and resolves each slot
//! against the catalog — one prepared plan serves every view in a shape
//! family.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]
// The plan path shares one Arc'd plan across many binds; a stray clone of
// the plan (or the old Rc idiom) would silently undo the sharing.
#![cfg_attr(not(test), deny(clippy::redundant_clone))]

use crate::error::{PipelineError, TierFailure};
use crate::guard::{FaultKind, FaultPoint, Guard};
use crate::plancache::{PlanKey, SharedPlanCache};
use crate::projection::Projection;
use crate::sqlrewrite::rewrite_to_sql;
use crate::xqgen::{rewrite, RewriteOptions, RewriteOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;
use xsltdb_relstore::pubexpr::SqlXmlQuery;
use xsltdb_relstore::{slot_name, Catalog, ExecStats, SlotBindings, StoreError, XmlView};
use xsltdb_structinfo::{canonicalize_view, ViewCanon};
use xsltdb_xml::{replay_subtree, Document, NodeId, StreamWriter, TreeSink, XmlSink};
use xsltdb_xquery::{evaluate_query_to_sink, NodeHandle};
use xsltdb_xslt::{compile_str, transform, transform_with, NoTrace, Stylesheet, TransformOptions};

/// Which execution strategy a plan uses, fastest first: the discriminants
/// index the degradation lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Pure SQL/XML over base tables.
    Sql,
    /// Rewritten XQuery over materialised view documents.
    XQuery,
    /// Functional evaluation (materialise + XSLTVM) — the no-rewrite path.
    Vm,
}

/// The degradation lattice, fastest tier first.
const LATTICE: [Tier; 3] = [Tier::Sql, Tier::XQuery, Tier::Vm];

/// A prepared transformation of a *shape family* by a stylesheet.
///
/// Identity-free: the SQL query (when present) names tables through
/// symbolic slots (`$t0`, `$t1`, …) and no view is stored. `Send + Sync`
/// (asserted at compile time in `plancache`), shared as `Arc` through the
/// caches, and executed by [binding](Self::bind) to a concrete view.
pub struct TransformPlan {
    pub tier: Tier,
    pub sheet: Stylesheet,
    /// Present on the SQL and XQuery tiers.
    pub rewrite: Option<RewriteOutcome>,
    /// Present on the SQL tier; table names are symbolic slots.
    pub sql: Option<SqlXmlQuery>,
    /// Canonical fingerprint of the shape this plan was prepared for.
    /// Binding validates against it, so a plan can never execute over a
    /// view of a different structure.
    pub canonical_fp: u64,
    /// Number of table slots the plan references (`$t0` .. `$t{n-1}`).
    pub slot_count: usize,
    /// Why the plan fell back below the SQL tier, if it did.
    pub fallback_reason: Option<String>,
    /// The part of the view the XQuery tier materialises: what the
    /// rewritten query can reach ([`Projection::Full`] without a rewrite).
    pub projection: Projection,
    /// The first tier [`BoundPlan::execute_to_writer`] tries, as a
    /// [`LATTICE`] index: `tier` when planned, then below every tier that
    /// failed this plan without tripping its guard. Only the lattice reads
    /// or writes it.
    start: AtomicU8,
}

/// A [`TransformPlan`] bound to one concrete view: the shared plan, the
/// view (for the materialising tiers), and the slot → table bindings (for
/// the SQL tier). Cheap to construct per call; all the execute entry
/// points live here.
#[derive(Clone)]
pub struct BoundPlan {
    pub plan: Arc<TransformPlan>,
    pub view: XmlView,
    pub bindings: SlotBindings,
}

/// Plan the transformation of every row of `view` by `stylesheet_src`.
///
/// The result is identity-free — call [`TransformPlan::bind`] (or use
/// [`plan_bound`] / [`plan_cached_shared`]) to execute it.
pub fn plan_transform(
    view: &XmlView,
    stylesheet_src: &str,
    opts: &RewriteOptions,
) -> Result<TransformPlan, PipelineError> {
    let sheet = compile_str(stylesheet_src)?;
    plan_compiled(view, sheet, opts)
}

/// Plan `view` × `stylesheet_src` and bind the plan back to `view` — the
/// one-shot convenience for callers that do not cache.
pub fn plan_bound(
    catalog: &Catalog,
    view: &XmlView,
    stylesheet_src: &str,
    opts: &RewriteOptions,
) -> Result<BoundPlan, PipelineError> {
    let plan = Arc::new(plan_transform(view, stylesheet_src, opts)?);
    plan.bind(view, catalog)
}

/// The validity floor for plans over `view`: the newest per-table DDL
/// stamp across the view's read-set. A cached plan planned at or after
/// this instant cannot have missed any DDL that touched a table it reads;
/// DDL on *unrelated* tables moves the global clock but not this floor, so
/// same-shaped sibling plans stay cached (plan-aware invalidation).
///
/// This is conservative in the safe direction on both sides: planning
/// consults only the view definition (access paths are chosen per
/// execution by the scan planner), so serving an "older" plan is always
/// byte-identical — the floor just preserves the replan-on-relevant-DDL
/// contract without the collateral eviction.
fn plan_valid_at(catalog: &Catalog, view: &XmlView) -> u64 {
    let tables = view.referenced_tables();
    catalog.max_ddl_stamp(tables.iter().map(String::as_str))
}

/// The front door for repeated transforms: plan through a
/// [`SharedPlanCache`] — any number of threads at once (see its docs for
/// striping and miss races); a one-shard cache is the exclusive cache.
///
/// A lookup hit returns the shared prepared plan without touching the
/// compile → partial-evaluate → rewrite pipeline at all; a miss plans from
/// scratch and admits the result. Entries are keyed by the content of
/// (stylesheet text × **canonical** structure fingerprint × options) and
/// validated against the per-table DDL stamps of the view's read-set
/// ([`Catalog::max_ddl_stamp`]), so `create_index` / table replacement on
/// a table the plan *reads* transparently forces a replan while DDL on
/// unrelated tables leaves the entry warm — and two views publishing the
/// same shape share one entry, with the returned [`BoundPlan`] binding the
/// shared plan to *this* view's tables.
///
/// Cached plans are immutable — execute them with a fresh [`Guard`] per
/// call ([`BoundPlan::execute_to_writer`]); a budget trip in one execution
/// never poisons the entry.
pub fn plan_cached_shared(
    cache: &SharedPlanCache,
    catalog: &Catalog,
    view: &XmlView,
    stylesheet_src: &str,
    opts: &RewriteOptions,
) -> Result<BoundPlan, PipelineError> {
    let canon = cache.view_canon(view);
    let key = PlanKey::with_fingerprint(canon.fingerprint, stylesheet_src, opts);
    let plan = match cache.lookup(&key, plan_valid_at(catalog, view)) {
        Some(plan) => plan,
        None => {
            let plan = Arc::new(plan_canonical(&canon, compile_str(stylesheet_src)?, opts));
            cache.insert(key, Arc::clone(&plan), catalog.generation());
            plan
        }
    };
    plan.bind_with(view, catalog, canon.fingerprint, canon.bindings.clone())
}

/// Plan with a pre-compiled stylesheet.
///
/// Canonicalises the view's structure first and rewrites against the
/// canonical form, so the emitted SQL names tables only through slots and
/// the plan is shareable across the whole shape family.
pub fn plan_compiled(
    view: &XmlView,
    sheet: Stylesheet,
    opts: &RewriteOptions,
) -> Result<TransformPlan, PipelineError> {
    Ok(plan_canonical(&canonicalize_view(view), sheet, opts))
}

/// Plan against an already canonicalised view structure.
fn plan_canonical(canon: &ViewCanon, sheet: Stylesheet, opts: &RewriteOptions) -> TransformPlan {
    let Some(info) = &canon.canonical else {
        return TransformPlan {
            tier: Tier::Vm,
            sheet,
            rewrite: None,
            sql: None,
            canonical_fp: canon.fingerprint,
            slot_count: 0,
            fallback_reason: canon.note.clone(),
            projection: Projection::Full,
            start: AtomicU8::new(Tier::Vm as u8),
        };
    };
    let (tier, rewrite_out, sql, fallback_reason) = match rewrite(&sheet, info, opts) {
        Ok(outcome) => match rewrite_to_sql(&outcome.query, info) {
            Ok(sql) => (Tier::Sql, Some(outcome), Some(sql), None),
            Err(e) => (Tier::XQuery, Some(outcome), None, Some(e.to_string())),
        },
        Err(e) => (Tier::Vm, None, None, Some(e.to_string())),
    };
    // Every rewritten plan can reach the XQuery tier: SQL plans by fallback.
    let projection = rewrite_out
        .as_ref()
        .map_or(Projection::Full, |o| Projection::of_query(&o.query, info));
    TransformPlan {
        tier,
        sheet,
        rewrite: rewrite_out,
        sql,
        canonical_fp: canon.fingerprint,
        slot_count: canon.slot_count,
        fallback_reason,
        projection,
        start: AtomicU8::new(tier as u8),
    }
}

/// Result of an execution through the degradation lattice
/// ([`BoundPlan::execute_to_writer`]).
#[derive(Debug)]
pub struct StreamRun {
    /// Total bytes delivered to the writer.
    pub bytes_written: u64,
    /// The tier that produced the bytes (≤ the planned tier). [`Tier::Sql`]
    /// means true streaming (zero DOM nodes); the XQuery tier materialises
    /// its input view rows, the VM tier its input and result trees.
    pub tier: Tier,
    /// Failed attempts before the successful tier, in lattice order.
    pub fallbacks: Vec<TierFailure>,
}

/// Tracks how many bytes have reached the caller's writer, so the fallback
/// lattice can tell a clean tier failure (nothing written — safe to retry
/// on a lower tier) from a mid-stream one (bytes are already on the wire —
/// falling back would corrupt the output).
struct CountingWriter<'a> {
    inner: &'a mut dyn std::io::Write,
    written: u64,
}

impl std::io::Write for CountingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl Tier {
    fn name(self) -> &'static str {
        match self {
            Tier::Sql => "sql",
            Tier::XQuery => "xquery",
            Tier::Vm => "vm",
        }
    }
}

/// One failed tier attempt: the reporting shape plus the original typed
/// error (absent when the tier died by panic).
struct Attempt {
    failure: TierFailure,
    error: Option<PipelineError>,
}

impl Attempt {
    /// What a lone failed attempt surfaces: the tier's own typed error, or a
    /// typed panic when the tier died by panic.
    fn into_error(self) -> PipelineError {
        match self.error {
            Some(e) => e,
            None => PipelineError::Panic { tier: self.failure.tier, message: self.failure.reason },
        }
    }
}

/// Run a tier body with panic containment. A panic inside an engine is an
/// engine bug, not a reason to poison the whole session: it is caught at
/// the tier boundary and converted into a failed attempt.
fn contained<T>(
    tier: Tier,
    body: impl FnOnce() -> Result<T, PipelineError>,
) -> Result<T, Attempt> {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(Attempt {
            failure: TierFailure {
                tier: tier.name(),
                reason: e.to_string(),
                panicked: false,
            },
            error: Some(e),
        }),
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(Attempt {
                failure: TierFailure { tier: tier.name(), reason: message, panicked: true },
                error: None,
            })
        }
    }
}

impl TransformPlan {
    /// Bind this prepared plan to a concrete view: canonicalise the view,
    /// validate its shape fingerprint against the plan's, and resolve
    /// every table slot against `catalog`. The [`BoundPlan`] is cheap and
    /// per-call; the plan itself stays shared.
    pub fn bind(
        self: &Arc<Self>,
        view: &XmlView,
        catalog: &Catalog,
    ) -> Result<BoundPlan, PipelineError> {
        let canon = canonicalize_view(view);
        self.bind_with(view, catalog, canon.fingerprint, canon.bindings)
    }

    /// [`Self::bind`] with a pre-computed canonicalisation (the cache path,
    /// where the per-(view, generation) memo already holds it).
    ///
    /// Fails with [`PipelineError::BindingMismatch`] when `fingerprint`
    /// differs from the plan's, and [`PipelineError::UnboundSlot`] when a
    /// slot the plan references has no binding; every bound table must
    /// exist in `catalog`.
    pub(crate) fn bind_with(
        self: &Arc<Self>,
        view: &XmlView,
        catalog: &Catalog,
        fingerprint: u64,
        bindings: SlotBindings,
    ) -> Result<BoundPlan, PipelineError> {
        if fingerprint != self.canonical_fp {
            return Err(PipelineError::BindingMismatch {
                expected: self.canonical_fp,
                got: fingerprint,
            });
        }
        for i in 0..self.slot_count {
            let slot = slot_name(i);
            match bindings.get(&slot) {
                None => return Err(PipelineError::UnboundSlot { slot }),
                Some(table) => {
                    catalog.table(table)?;
                }
            }
        }
        Ok(BoundPlan { plan: Arc::clone(self), view: view.clone(), bindings })
    }
}

impl BoundPlan {
    /// The execution tier of the underlying plan.
    pub fn tier(&self) -> Tier {
        self.plan.tier
    }

    /// The compiled stylesheet of the underlying plan.
    pub fn sheet(&self) -> &Stylesheet {
        &self.plan.sheet
    }

    /// The shared, immutable plan this binding draws on.
    pub fn plan(&self) -> &Arc<TransformPlan> {
        &self.plan
    }

    /// The slot-to-table bindings this plan executes with.
    pub fn bindings(&self) -> &SlotBindings {
        &self.bindings
    }

    /// Why the underlying plan fell below the SQL tier, if it did.
    pub fn fallback_reason(&self) -> Option<&str> {
        self.plan.fallback_reason.as_deref()
    }

    /// Run the plan's **planned tier** and materialise its output: one
    /// result document per view row.
    ///
    /// Exactly one tier runs — the one the planner chose — unguarded and
    /// with no fallback: that tier's error is the result, and a panic
    /// propagates to the caller. It is the same tier body
    /// [`Self::execute_to_writer`] runs, emitting into a row-sealing
    /// [`TreeSink`] instead of a [`StreamWriter`]. Budgets, panic
    /// containment and the degradation lattice live in
    /// [`Self::execute_to_writer`].
    pub fn execute(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
    ) -> Result<Vec<Document>, PipelineError> {
        let mut rows = TreeSink::unguarded();
        self.run_tier(self.plan.tier, catalog, stats, &Guard::unlimited(), &mut rows)?;
        let docs = rows.into_documents();
        for doc in &docs {
            stats.note_materialized_nodes(doc.node_count() as u64);
        }
        Ok(docs)
    }

    /// Run the plan under a [`Guard`], streaming the result bytes into
    /// `out` with graceful degradation — the one execution lattice.
    ///
    /// The lattice starts at the plan's start tier — its planned tier
    /// unless a failure demoted it — and a tier that errors or panics at
    /// execution time falls back to the next slower tier (SQL → XQuery →
    /// VM); the chain of failed attempts is reported in
    /// [`StreamRun::fallbacks`]. Every such failure also **demotes the
    /// plan**: the engine is deterministic, so the tier would fail this
    /// plan again, and later executions of the shared plan start below it
    /// (never below the VM). Demotion changes which tier runs, never the
    /// bytes. Two failures are terminal instead:
    ///
    /// * **Guard trips** — the budgets are shared across tiers, so a lower
    ///   tier would only burn the remainder before tripping on the same
    ///   limit. A trip indicts the request's budget, not the plan, so it
    ///   never demotes.
    /// * **Dirty failures** — a tier that fails *after* bytes reached the
    ///   writer, because a lower tier would emit the prefix twice and bytes
    ///   handed to an external writer cannot be unwritten. The
    ///   deterministic fault points all fire at tier entry, before any
    ///   write, so injected faults always degrade. A dirty failure still
    ///   demotes the plan.
    ///
    /// The SQL tier pulls rows through the iterator operators and
    /// serializes them as they are published — zero DOM nodes, with
    /// `max_output_bytes` charged per write so trips fire mid-stream. The
    /// XQuery tier streams too: constructors in emission position push
    /// events straight into the writer, and only re-inspected
    /// subexpressions spill to a transient tree (reported via
    /// `spilled_subtrees` / `peak_spilled_nodes` on [`ExecStats`]). The VM
    /// tier builds its result trees — charging their output as it goes —
    /// and copies them out. Every path is byte-identical.
    pub fn execute_to_writer(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
        out: &mut dyn std::io::Write,
    ) -> Result<StreamRun, PipelineError> {
        let mut attempts: Vec<Attempt> = Vec::new();
        let mut w = CountingWriter { inner: out, written: 0 };

        let start = usize::from(self.plan.start.load(Ordering::Relaxed));

        for &tier in &LATTICE[start..] {
            let before = w.written;
            let result = contained(tier, || {
                // The VM charged its output while building its result trees;
                // copying them to the writer must not charge them again.
                let budget = if tier == Tier::Vm { Guard::unlimited() } else { guard.clone() };
                let mut sink = StreamWriter::new(&mut w, budget);
                self.run_tier(tier, catalog, stats, guard, &mut sink)?;
                sink.finish()?;
                Ok(())
            });
            match result {
                Ok(()) => {
                    stats.add_streamed_bytes(w.written);
                    return Ok(StreamRun {
                        bytes_written: w.written,
                        tier,
                        fallbacks: attempts.into_iter().map(|a| a.failure).collect(),
                    });
                }
                Err(attempt) => {
                    // Report a trip's structured evidence, not the stringly
                    // engine error it surfaced as.
                    if let Some(trip) = guard.trip() {
                        return Err(PipelineError::Guard(trip));
                    }
                    // Never past the VM: it is the last tier there is.
                    let below = (tier as u8 + 1).min(Tier::Vm as u8);
                    self.plan.start.fetch_max(below, Ordering::Relaxed);
                    let dirty = w.written > before;
                    attempts.push(attempt);
                    if dirty {
                        break;
                    }
                }
            }
        }

        // Everything failed. A lone attempt surfaces its own typed error; a
        // traversed lattice reports the whole chain.
        match <[Attempt; 1]>::try_from(attempts) {
            Ok([only]) => Err(only.into_error()),
            Err(attempts) => Err(PipelineError::TiersExhausted {
                attempts: attempts.into_iter().map(|a| a.failure).collect(),
            }),
        }
    }

    /// Run exactly one tier of the plan under `guard`: every view row's
    /// result is emitted into `out`, followed by a row boundary. No
    /// fallback and no panic containment — [`Self::execute_to_writer`]
    /// adds both; the sink decides whether the result is bytes or trees.
    fn run_tier(
        &self,
        tier: Tier,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
        out: &mut dyn XmlSink,
    ) -> Result<(), PipelineError> {
        match tier {
            Tier::Sql => {
                if let Some(kind) = guard.take_fault(FaultPoint::SqlExec) {
                    match kind {
                        FaultKind::Error => {
                            return Err(StoreError::new("injected fault at SQL tier").into())
                        }
                        FaultKind::Panic => panic!("injected panic at SQL tier"),
                    }
                }
                let sql = self
                    .plan
                    .sql
                    .as_ref()
                    .ok_or_else(|| PipelineError::internal("no SQL query in plan"))?;
                sql.run(catalog, stats, guard, &self.bindings, out)?;
            }
            Tier::XQuery => {
                let outcome = self
                    .plan
                    .rewrite
                    .as_ref()
                    .ok_or_else(|| PipelineError::internal("no rewrite outcome in plan"))?;
                let (mut spilled, mut peak_spill) = (0, 0);
                // Only what the query can reach: the bound view's own query,
                // pruned by the plan's projection.
                let input = self.plan.projection.apply(&self.view);
                for doc in input.materialize_guarded(catalog, stats, guard)? {
                    let input = NodeHandle::document(doc);
                    let run = evaluate_query_to_sink(
                        &outcome.query,
                        Some(input),
                        Vec::new(),
                        guard.clone(),
                        out,
                    )?;
                    spilled += run.spilled_subtrees;
                    peak_spill = run.peak_spilled_nodes.max(peak_spill);
                    out.end_row()?;
                }
                stats.add_spilled_subtrees(spilled);
                stats.note_spilled_nodes(peak_spill);
            }
            Tier::Vm => {
                let opts = TransformOptions { guard: guard.clone(), ..Default::default() };
                for doc in self.view.materialize_guarded(catalog, stats, guard)? {
                    let result = transform_with(&self.plan.sheet, &doc, &opts, &mut NoTrace)?;
                    stats.note_materialized_nodes(result.node_count() as u64);
                    replay_subtree(&result, NodeId::DOCUMENT, out)?;
                    out.end_row()?;
                }
            }
        }
        Ok(())
    }
}

/// Result of the no-rewrite baseline.
pub struct BaselineRun {
    pub documents: Vec<Document>,
    /// Total nodes materialised before the XSLT processor could start — the
    /// cost the rewrite avoids.
    pub materialized_nodes: usize,
}

/// The paper's no-rewrite baseline: materialise every view row as a DOM and
/// run the XSLTVM over it.
pub fn no_rewrite_transform(
    catalog: &Catalog,
    view: &XmlView,
    sheet: &Stylesheet,
    stats: &ExecStats,
) -> Result<BaselineRun, PipelineError> {
    let docs = view.materialize(catalog, stats)?;
    let materialized_nodes = docs.iter().map(Document::node_count).sum();
    let mut out = Vec::with_capacity(docs.len());
    for d in &docs {
        let result = transform(sheet, d)?;
        stats.note_materialized_nodes(result.node_count() as u64);
        out.push(result);
    }
    Ok(BaselineRun { documents: out, materialized_nodes })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::Limits;
    use xsltdb_relstore::exec::Conjunction;
    use xsltdb_relstore::pubexpr::PubExpr;
    use xsltdb_relstore::{ColType, Datum, Table};

    fn setup() -> (Catalog, XmlView) {
        let mut t = Table::new("t", &[("v", ColType::Int)]);
        t.insert(vec![Datum::Int(7)]).unwrap();
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

    #[test]
    fn simple_stylesheet_plans_to_sql_tier() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::Sql);
        let stats = ExecStats::new();
        let docs = bound.execute(&catalog, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<o>7</o>");
    }

    #[test]
    fn plans_are_identity_free_and_sql_names_slots() {
        let (_catalog, view) = setup();
        let plan = plan_transform(
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(plan.tier, Tier::Sql);
        assert_eq!(plan.slot_count, 1);
        let sql = plan.sql.as_ref().unwrap();
        assert_eq!(sql.base_table, "$t0", "SQL must be over slots, not tables");
    }

    #[test]
    fn binding_validates_shape_and_slots() {
        let (catalog, view) = setup();
        let src = wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#);
        let plan = Arc::new(plan_transform(&view, &src, &RewriteOptions::default()).unwrap());

        // A same-shaped view over a different table binds fine...
        let mut t2 = Table::new("t2", &[("v", ColType::Int)]);
        t2.insert(vec![Datum::Int(9)]).unwrap();
        let (mut catalog2, _) = setup();
        catalog2.add_table(t2);
        let view2 = XmlView::new(
            "vu2",
            SqlXmlQuery {
                base_table: "t2".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem(
                    "r",
                    vec![PubExpr::elem("v", vec![PubExpr::col("t2", "v")])],
                ),
            },
        );
        let bound2 = plan.bind(&view2, &catalog2).unwrap();
        let stats = ExecStats::new();
        let docs = bound2.execute(&catalog2, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<o>9</o>", "rebind reads t2's rows");

        // ... a differently-shaped view is a typed mismatch ...
        let other = XmlView::new(
            "other",
            SqlXmlQuery {
                base_table: "t".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem("r", vec![PubExpr::elem("w", vec![PubExpr::col("t", "v")])]),
            },
        );
        match plan.bind(&other, &catalog) {
            Err(PipelineError::BindingMismatch { expected, got }) => {
                assert_eq!(expected, plan.canonical_fp);
                assert_ne!(got, expected);
            }
            other => panic!("expected BindingMismatch, got {other:?}", other = other.map(|_| ())),
        }

        // ... and an incomplete binding is a typed unbound-slot error.
        match plan.bind_with(&view, &catalog, plan.canonical_fp, SlotBindings::new()) {
            Err(PipelineError::UnboundSlot { slot }) => assert_eq!(slot, "$t0"),
            other => panic!("expected UnboundSlot, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn untranslatable_sql_shape_falls_to_xquery_tier() {
        // substring() has no SQL translation but is fine in XQuery.
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(
                r#"<xsl:template match="r"><o><xsl:value-of select="substring(v, 1, 1)"/></o></xsl:template>"#,
            ),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::XQuery, "{:?}", bound.fallback_reason());
        assert!(bound.fallback_reason().is_some());
        let stats = ExecStats::new();
        let docs = bound.execute(&catalog, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<o>7</o>");
    }

    #[test]
    fn unrewritable_stylesheet_falls_to_vm_tier() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(
                r#"<xsl:template match="r"><o id="{generate-id(.)}"><xsl:value-of select="v"/></o></xsl:template>"#,
            ),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::Vm, "{:?}", bound.fallback_reason());
        let stats = ExecStats::new();
        let docs = bound.execute(&catalog, &stats).unwrap();
        assert!(xsltdb_xml::to_string(&docs[0]).contains("<o id="));
    }

    #[test]
    fn bad_stylesheet_is_a_hard_error() {
        let (_c, view) = setup();
        assert!(plan_transform(&view, "<not-xslt/>", &RewriteOptions::default()).is_err());
    }

    #[test]
    fn plan_cached_shares_one_prepared_plan() {
        let (catalog, view) = setup();
        let cache = SharedPlanCache::with_shards(crate::DEFAULT_PLAN_CACHE_BYTES, 1);
        let src = wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#);
        let opts = RewriteOptions::default();
        let first = plan_cached_shared(&cache, &catalog, &view, &src, &opts).unwrap();
        let second = plan_cached_shared(&cache, &catalog, &view, &src, &opts).unwrap();
        assert!(
            Arc::ptr_eq(&first.plan, &second.plan),
            "hit must return the same prepared plan"
        );
        let snap = cache.stats();
        assert_eq!((snap.hits, snap.misses), (1, 1));
        let stats = ExecStats::new();
        let docs = second.execute(&catalog, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<o>7</o>");
    }

    #[test]
    fn plan_cached_replans_after_ddl() {
        let (mut catalog, view) = setup();
        let cache = SharedPlanCache::with_shards(crate::DEFAULT_PLAN_CACHE_BYTES, 1);
        let src = wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#);
        let opts = RewriteOptions::default();
        let first = plan_cached_shared(&cache, &catalog, &view, &src, &opts).unwrap();
        catalog.create_index("t", "v").unwrap();
        let second = plan_cached_shared(&cache, &catalog, &view, &src, &opts).unwrap();
        assert!(!Arc::ptr_eq(&first.plan, &second.plan), "DDL must force a replan");
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let (catalog, view) = setup();
        let cache = SharedPlanCache::with_shards(crate::DEFAULT_PLAN_CACHE_BYTES, 1);
        for _ in 0..2 {
            assert!(plan_cached_shared(
                &cache,
                &catalog,
                &view,
                "<not-xslt/>",
                &RewriteOptions::default()
            )
            .is_err());
        }
        assert_eq!(cache.entry_count(), 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn fresh_guard_per_execution_trips_independently() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        let stats = ExecStats::new();
        let starved = Guard::new(Limits::UNLIMITED.with_fuel(1));
        let tripped =
            bound.execute_to_writer(&catalog, &stats, &starved, &mut Vec::new()).unwrap_err();
        assert!(tripped.is_guard_trip(), "got {tripped:?}");
        // The same immutable plan runs to completion on the next call.
        let mut out = Vec::new();
        bound.execute_to_writer(&catalog, &stats, &Guard::unlimited(), &mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap(), "<o>7</o>");
    }

    #[test]
    fn execute_to_writer_streams_sql_tier_byte_identically() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::Sql);
        let stats = ExecStats::new();
        let expected: String =
            bound.execute(&catalog, &stats).unwrap().iter().map(xsltdb_xml::to_string).collect();

        let streamed_stats = ExecStats::new();
        let mut buf = Vec::new();
        let run = bound
            .execute_to_writer(&catalog, &streamed_stats, &Guard::unlimited(), &mut buf)
            .unwrap();
        assert_eq!(run.tier, Tier::Sql);
        assert!(run.fallbacks.is_empty());
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
        assert_eq!(run.bytes_written as usize, expected.len());
        let snap = streamed_stats.snapshot();
        assert_eq!(snap.streamed_bytes, run.bytes_written);
        assert_eq!(snap.peak_materialized_nodes, 0, "SQL tier must not build DOM");
    }

    #[test]
    fn execute_to_writer_streams_xquery_tier_byte_identically() {
        // substring() keeps the plan on the XQuery tier.
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(
                r#"<xsl:template match="r"><o><a/><b/><c/><xsl:value-of select="substring(v, 1, 1)"/></o></xsl:template>"#,
            ),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::XQuery);
        let rewrite = bound.plan().rewrite.as_ref().expect("rewritten plan");
        let emission = xsltdb_xquery::analyze_query(&rewrite.query);
        assert!(emission.spill_free(), "this query has no re-inspected constructors");

        let stats = ExecStats::new();
        let expected: String =
            bound.execute(&catalog, &stats).unwrap().iter().map(xsltdb_xml::to_string).collect();
        // Satellite check: the materialising path reports the result tree
        // (<o> + 3 children + text under a document = 6 nodes), not just
        // the 4-node input document.
        assert_eq!(stats.snapshot().peak_materialized_nodes, 6);

        let streamed_stats = ExecStats::new();
        let mut buf = Vec::new();
        let run = bound
            .execute_to_writer(&catalog, &streamed_stats, &Guard::unlimited(), &mut buf)
            .unwrap();
        assert_eq!(run.tier, Tier::XQuery);
        assert!(run.fallbacks.is_empty());
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
        let snap = streamed_stats.snapshot();
        assert_eq!(snap.streamed_bytes, run.bytes_written);
        assert_eq!(snap.spilled_subtrees, 0, "spill-free query must not build result trees");
        assert_eq!(snap.peak_spilled_nodes, 0);
        // Only the input document is materialised on the streaming path.
        assert_eq!(snap.peak_materialized_nodes, 4);
    }

    #[test]
    fn execute_to_writer_xquery_tier_guard_trip_is_terminal() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(
                r#"<xsl:template match="r"><o><xsl:value-of select="substring(v, 1, 1)"/></o></xsl:template>"#,
            ),
            &RewriteOptions::default(),
        )
        .unwrap();
        assert_eq!(bound.tier(), Tier::XQuery);
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(3));
        let mut buf = Vec::new();
        let err = bound
            .execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut buf)
            .unwrap_err();
        assert!(err.is_guard_trip(), "got {err:?}");
        assert!(buf.len() as u64 <= 3, "partial bytes must stay under the cap");
    }

    #[test]
    fn execute_to_writer_falls_back_on_injected_sql_fault() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        let stats = ExecStats::new();
        let expected: String =
            bound.execute(&catalog, &stats).unwrap().iter().map(xsltdb_xml::to_string).collect();

        // The fault fires at SQL-tier entry, before any byte is written, so
        // the lattice may retry on the XQuery tier cleanly.
        let guard = Guard::unlimited().with_fault(FaultPoint::SqlExec, FaultKind::Error);
        let mut buf = Vec::new();
        let run = bound.execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut buf).unwrap();
        assert_eq!(run.tier, Tier::XQuery);
        assert_eq!(run.fallbacks.len(), 1);
        assert_eq!(run.fallbacks[0].tier, "sql");
        assert_eq!(String::from_utf8(buf).unwrap(), expected);
    }

    #[test]
    fn execute_to_writer_guard_trip_is_terminal_with_bounded_partial_output() {
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(3));
        let mut buf = Vec::new();
        let err = bound
            .execute_to_writer(&catalog, &ExecStats::new(), &guard, &mut buf)
            .unwrap_err();
        assert!(err.is_guard_trip(), "got {err:?}");
        assert!(buf.len() as u64 <= 3, "partial bytes must stay under the cap");
    }

    #[test]
    fn execute_to_writer_mid_stream_write_failure_is_terminal() {
        struct FailAfter {
            budget: usize,
        }
        impl std::io::Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if buf.len() > self.budget {
                    return Err(std::io::Error::other("wire broke"));
                }
                self.budget -= buf.len();
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (catalog, view) = setup();
        let bound = plan_bound(
            &catalog,
            &view,
            &wrap(r#"<xsl:template match="r"><o><xsl:value-of select="v"/></o></xsl:template>"#),
            &RewriteOptions::default(),
        )
        .unwrap();
        // The first chunk ("<o>") fits; a later one breaks the wire. Bytes
        // are on the wire, so no lower tier may run: the error surfaces.
        let err = bound
            .execute_to_writer(
                &catalog,
                &ExecStats::new(),
                &Guard::unlimited(),
                &mut FailAfter { budget: 3 },
            )
            .unwrap_err();
        assert!(!err.is_guard_trip());
        assert!(err.to_string().contains("wire broke"), "got {err}");
    }

    #[test]
    fn baseline_reports_materialized_nodes() {
        let (catalog, view) = setup();
        let sheet = xsltdb_xslt::compile_str(&wrap("")).unwrap();
        let stats = ExecStats::new();
        let run = no_rewrite_transform(&catalog, &view, &sheet, &stats).unwrap();
        // <r><v>7</v></r>: document + r + v + text = 4 nodes.
        assert_eq!(run.materialized_nodes, 4);
    }
}
