//! SQL/XML publishing expressions — `XMLElement`, `XMLConcat`, `XMLAgg`,
//! `XMLAttributes`, string concatenation and column references. This is the
//! target language of the paper's final rewrite step (Table 7 / Table 11):
//! a query made only of publishing functions over relational columns.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::binding::SlotBindings;
use crate::catalog::Catalog;
use crate::datum::{ColType, Datum};
use crate::exec::{guard_err, scan_guarded, AccessPath, ColumnCmp, Conjunction};
use crate::stats::ExecStats;
use crate::table::{RowId, StoreError, Table};
use std::borrow::Cow;
use xsltdb_xpath::value::{arith, num_to_string, sort_rows, str_to_num, ArithOp, CmpOp, SortValue};
use xsltdb_xml::{Document, Guard, QName, SinkError, TextSink, TreeSink, XmlSink};

/// Lower a sink refusal to the store's error type. Guard trips keep their
/// structured evidence reachable via `Guard::trip`, so the stringly form
/// here only carries the message.
fn sink_err(e: SinkError) -> StoreError {
    match e {
        SinkError::Guard(g) => guard_err(g),
        other => StoreError::new(other.to_string()),
    }
}

/// Aggregate functions usable in scalar subqueries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
}

/// A comparison term whose right-hand side may be a constant or a column of
/// the *outer* row (the correlation of a scalar subquery).
#[derive(Debug, Clone, PartialEq)]
pub enum AggPredTerm {
    Const(ColumnCmp),
    /// `inner_column = outer_table.outer_column`.
    Correlate { inner_column: String, outer_table: String, outer_column: String },
}

/// An `ORDER BY` key of an `XMLAgg` or of a base-table row source.
///
/// Rows sort through `xsltdb_xpath::value::sort_rows`, the VM's own
/// kernel. `numeric` marks a `data-type="number"` key: values are coerced
/// with `str_to_num` and NaN (an unparseable key) sorts *first* ascending.
/// Text keys compare byte-wise on the column's text rendering — not the
/// datum's typed order, which would diverge on numeric columns sorted as
/// text (`"10" < "9"`).
#[derive(Debug, Clone, PartialEq)]
pub struct AggOrder {
    pub column: String,
    pub descending: bool,
    pub numeric: bool,
}

/// A publishing expression, evaluated per outer-row binding.
#[derive(Debug, Clone, PartialEq)]
pub enum PubExpr {
    /// `XMLElement("name", XMLAttributes(...), children...)`.
    Element { name: String, attrs: Vec<(String, PubExpr)>, children: Vec<PubExpr> },
    /// `XMLConcat(...)` — splice children in place.
    Concat(Vec<PubExpr>),
    /// A string literal (text content).
    Literal(String),
    /// A column of a bound table (text content).
    ColumnRef { table: String, column: String },
    /// SQL `||` string concatenation (text content).
    StrConcat(Vec<PubExpr>),
    /// Correlated `(SELECT XMLAgg(body ORDER BY ...) FROM table WHERE ...
    /// FETCH FIRST limit ROWS ONLY)`. The limit applies after the predicate
    /// and the ordering: it keeps the first `limit` rows the aggregate
    /// would otherwise publish.
    Agg {
        table: String,
        predicate: Vec<AggPredTerm>,
        order_by: Vec<AggOrder>,
        limit: Option<usize>,
        body: Box<PubExpr>,
    },
    /// Numeric arithmetic over scalar subexpressions, published as text
    /// (`sum(SAL) / count(*)`-style projections).
    Arith {
        op: ArithOp,
        left: Box<PubExpr>,
        right: Box<PubExpr>,
    },
    /// SQL `CASE WHEN col op const THEN ... ELSE ... END` over a bound row —
    /// the target of rewritten `xsl:if`/`xsl:choose` over column values.
    Case {
        cond: ColumnCmp,
        /// Table whose bound row the condition reads.
        table: String,
        then: Box<PubExpr>,
        els: Box<PubExpr>,
    },
    /// Correlated scalar `(SELECT count(*)/sum(col) FROM table WHERE ...)`,
    /// published as text.
    ScalarAgg {
        func: AggFunc,
        column: Option<String>,
        table: String,
        predicate: Vec<AggPredTerm>,
    },
    /// `XMLComment(content)` — a comment node whose content is the
    /// string-value of the inner expression.
    Comment(Box<PubExpr>),
    /// `XMLPI(NAME target, content)` — a processing instruction with a
    /// constant target (the only form the XSLT rewrite emits).
    Pi { target: String, content: Box<PubExpr> },
    /// The 1-based position of the bound row of `table` within its row
    /// source — SQL's `ROW_NUMBER() OVER (...)`, the lowering of XPath
    /// `position()` over an ordered row scan. Every row is bound
    /// positionally (by an `Agg` loop or the base-table scan).
    RowNumber { table: String },
}

impl PubExpr {
    pub fn elem(name: &str, children: Vec<PubExpr>) -> PubExpr {
        PubExpr::Element { name: name.to_string(), attrs: Vec::new(), children }
    }

    pub fn col(table: &str, column: &str) -> PubExpr {
        PubExpr::ColumnRef { table: table.to_string(), column: column.to_string() }
    }

    pub fn lit(s: &str) -> PubExpr {
        PubExpr::Literal(s.to_string())
    }

    /// Append every table name this expression can read to `out`
    /// (deduplicated, first-mention order): column references, aggregate
    /// subquery tables, correlation *outer* tables, CASE condition tables.
    /// Mirrors the walk canonicalisation performs, so a canonical plan's
    /// slots cover exactly this set.
    fn collect_tables(&self, out: &mut Vec<String>) {
        fn push(out: &mut Vec<String>, t: &str) {
            if !out.iter().any(|x| x == t) {
                out.push(t.to_string());
            }
        }
        fn preds(out: &mut Vec<String>, predicate: &[AggPredTerm]) {
            for term in predicate {
                if let AggPredTerm::Correlate { outer_table, .. } = term {
                    push(out, outer_table);
                }
            }
        }
        match self {
            PubExpr::Literal(_) => {}
            PubExpr::ColumnRef { table, .. } => push(out, table),
            PubExpr::Concat(parts) | PubExpr::StrConcat(parts) => {
                for p in parts {
                    p.collect_tables(out);
                }
            }
            PubExpr::Element { attrs, children, .. } => {
                for (_, a) in attrs {
                    a.collect_tables(out);
                }
                for c in children {
                    c.collect_tables(out);
                }
            }
            PubExpr::Arith { left, right, .. } => {
                left.collect_tables(out);
                right.collect_tables(out);
            }
            PubExpr::Case { table, then, els, .. } => {
                push(out, table);
                then.collect_tables(out);
                els.collect_tables(out);
            }
            PubExpr::Agg { table, predicate, body, .. } => {
                push(out, table);
                preds(out, predicate);
                body.collect_tables(out);
            }
            PubExpr::ScalarAgg { table, predicate, .. } => {
                push(out, table);
                preds(out, predicate);
            }
            PubExpr::Comment(content) => content.collect_tables(out),
            PubExpr::Pi { content, .. } => content.collect_tables(out),
            PubExpr::RowNumber { table } => push(out, table),
        }
    }
}

/// One bound row, read by reference: its resolved table name, the table,
/// its 1-based position in its row source (what [`PubExpr::RowNumber`]
/// reads) and its values — lent by a `Mem` table, decoded once by a paged
/// one, however many columns the expression prints.
struct BoundRow<'a> {
    table: &'a str,
    tab: &'a Table,
    row: RowId,
    pos: u64,
    values: Cow<'a, [Datum]>,
}

impl BoundRow<'_> {
    /// The value of `column` in this row, by reference.
    fn value(&self, column: &str) -> Result<&Datum, StoreError> {
        let name = &self.tab.name;
        let i = self
            .tab
            .col_index(column)
            .ok_or_else(|| StoreError::new(format!("table {name} has no column {column}")))?;
        self.values
            .get(i)
            .ok_or_else(|| StoreError::new(format!("table {name}: row {} is short", self.row)))
    }
}

/// Row bindings during evaluation: innermost binding of a table name wins.
#[derive(Default)]
pub(crate) struct Bindings<'a> {
    stack: Vec<BoundRow<'a>>,
}

impl<'a> Bindings<'a> {
    /// Bind each of `rows` of `tab` in turn, under its resolved name
    /// `table` at positions 1, 2, …, and run `f` while it is bound.
    fn each_row(
        &mut self,
        table: &'a str,
        tab: &'a Table,
        rows: Vec<RowId>,
        mut f: impl FnMut(&mut Self) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        for (i, row) in rows.into_iter().enumerate() {
            let values = tab.row_ref(row)?;
            self.stack.push(BoundRow { table, tab, row, pos: i as u64 + 1, values });
            let res = f(self);
            self.stack.pop();
            res?;
        }
        Ok(())
    }

    fn get(&self, table: &str) -> Result<&BoundRow<'a>, StoreError> {
        let bound = self.stack.iter().rev().find(|b| b.table == table);
        bound.ok_or_else(|| StoreError::new(format!("no row bound for table {table}")))
    }
}

/// Evaluate a publishing expression, emitting construction events into any
/// [`XmlSink`] — a [`TreeSink`] to materialise, a [`StreamWriter`] to
/// serialize with zero DOM nodes, a [`TextSink`] for string values.
///
/// `guard` is charged per expression node and billed for produced elements
/// against the output caps (output *bytes* are billed by the sink itself,
/// which knows what a byte is for its representation). Every table name in
/// the expression is resolved through `slots` before it touches the catalog
/// or the row bindings — canonicalised plans name tables symbolically
/// (`$t0`, `$t1`, …); concrete expressions pass
/// [`SlotBindings::identity`]. Row bindings are keyed by *resolved* names
/// throughout, so a slot and its concrete table can never refer to
/// different rows.
///
/// [`StreamWriter`]: xsltdb_xml::StreamWriter
pub(crate) fn eval_pub<'a>(
    expr: &'a PubExpr,
    catalog: &'a Catalog,
    stats: &ExecStats,
    bindings: &mut Bindings<'a>,
    out: &mut dyn XmlSink,
    guard: &Guard,
    slots: &'a SlotBindings,
) -> Result<(), StoreError> {
    guard.charge(1).map_err(guard_err)?;
    match expr {
        PubExpr::Literal(s) => out.text(s).map_err(sink_err),
        PubExpr::ColumnRef { table, column } => {
            let d = bindings.get(slots.resolve(table)?)?.value(column)?;
            d.with_text(|s| out.text(s)).map_err(sink_err)
        }
        PubExpr::StrConcat(parts) => {
            for p in parts {
                eval_pub(p, catalog, stats, bindings, out, guard, slots)?;
            }
            Ok(())
        }
        PubExpr::Concat(parts) => {
            for p in parts {
                eval_pub(p, catalog, stats, bindings, out, guard, slots)?;
            }
            Ok(())
        }
        PubExpr::Element { name, attrs, children } => {
            stats.add_element();
            guard.charge_output_nodes(1).map_err(guard_err)?;
            out.start_element(QName::local(name)).map_err(sink_err)?;
            for (aname, avalue) in attrs {
                let text = eval_to_text(avalue, catalog, stats, bindings, guard, slots)?;
                out.attribute(QName::local(aname), &text).map_err(sink_err)?;
            }
            for c in children {
                eval_pub(c, catalog, stats, bindings, out, guard, slots)?;
            }
            out.end_element().map_err(sink_err)
        }
        PubExpr::Arith { op, left, right } => {
            let l = str_to_num(&eval_to_text(left, catalog, stats, bindings, guard, slots)?);
            let r = str_to_num(&eval_to_text(right, catalog, stats, bindings, guard, slots)?);
            out.text(&num_to_string(arith(*op, l, r))).map_err(sink_err)
        }
        PubExpr::Case { cond, table, then, els } => {
            let d = bindings.get(slots.resolve(table)?)?.value(&cond.column)?;
            let branch = if cond.holds(d) { then } else { els };
            eval_pub(branch, catalog, stats, bindings, out, guard, slots)
        }
        PubExpr::Agg { table, predicate, order_by, limit, body } => {
            let table = slots.resolve(table)?;
            // Unordered, the scan itself can stop at the limit; ordered, the
            // sort needs every qualifying row first.
            let scan_limit = if order_by.is_empty() { *limit } else { None };
            let rows =
                agg_rows(table, predicate, scan_limit, catalog, stats, bindings, guard, slots)?;
            let mut rows = order_rows(rows, table, order_by, catalog)?;
            rows.truncate(limit.unwrap_or(usize::MAX));
            bindings.each_row(table, catalog.table(table)?, rows, |bindings| {
                eval_pub(body, catalog, stats, bindings, out, guard, slots)
            })
        }
        PubExpr::ScalarAgg { func, column, table, predicate } => {
            let table = slots.resolve(table)?;
            let rows = agg_rows(table, predicate, None, catalog, stats, bindings, guard, slots)?;
            let text = match func {
                AggFunc::Count => (rows.len() as i64).to_string(),
                AggFunc::Sum => {
                    let col = column
                        .as_deref()
                        .ok_or_else(|| StoreError::new("sum() needs a column"))?;
                    let t = catalog.table(table)?;
                    // XPath sum(): each published value's number(), so a
                    // NULL (published "") makes the sum NaN, as it does on
                    // every other tier.
                    let mut total = 0.0;
                    for r in &rows {
                        total += t.value_by_name(*r, col)?.number();
                    }
                    num_to_string(total)
                }
            };
            out.text(&text).map_err(sink_err)
        }
        PubExpr::Comment(content) => {
            let text = eval_to_text(content, catalog, stats, bindings, guard, slots)?;
            guard.charge_output_nodes(1).map_err(guard_err)?;
            out.comment(&text).map_err(sink_err)
        }
        PubExpr::Pi { target, content } => {
            let text = eval_to_text(content, catalog, stats, bindings, guard, slots)?;
            guard.charge_output_nodes(1).map_err(guard_err)?;
            out.pi(target, &text).map_err(sink_err)
        }
        PubExpr::RowNumber { table } => {
            let pos = bindings.get(slots.resolve(table)?)?.pos;
            out.text(&pos.to_string()).map_err(sink_err)
        }
    }
}

/// Evaluate a text-producing expression to its string value (for
/// attributes, comments and arithmetic operands). A [`TextSink`] collects
/// exactly the string-value of the events — no temporary tree.
pub(crate) fn eval_to_text<'a>(
    expr: &'a PubExpr,
    catalog: &'a Catalog,
    stats: &ExecStats,
    bindings: &mut Bindings<'a>,
    guard: &Guard,
    slots: &'a SlotBindings,
) -> Result<String, StoreError> {
    let mut sink = TextSink::new(guard.clone());
    eval_pub(expr, catalog, stats, bindings, &mut sink, guard, slots)?;
    Ok(sink.into_string())
}

/// `table` must already be slot-resolved by the caller; `slots` is still
/// needed here because correlation terms name the *outer* table, which may
/// itself be symbolic in a canonicalised plan.
#[allow(clippy::too_many_arguments)]
fn agg_rows(
    table: &str,
    predicate: &[AggPredTerm],
    limit: Option<usize>,
    catalog: &Catalog,
    stats: &ExecStats,
    bindings: &Bindings,
    guard: &Guard,
    slots: &SlotBindings,
) -> Result<Vec<RowId>, StoreError> {
    // Resolve correlation terms to constants from the outer bindings, so the
    // access-path planner can use an index on the correlated column too.
    // A correlation is node = node: the two published strings are equal.
    // Against a numeric inner column a finite number compares the same way
    // (as doubles, so integers beyond 2^53 may meet) and can still probe;
    // every other value compares as its text.
    let inner = catalog.table(table)?;
    let mut conj = Conjunction::default();
    for term in predicate {
        match term {
            AggPredTerm::Const(c) => conj.terms.push(c.clone()),
            AggPredTerm::Correlate { inner_column, outer_table, outer_column } => {
                let v = bindings.get(slots.resolve(outer_table)?)?.value(outer_column)?;
                let numeric = inner.col_type(inner_column).is_some_and(|ty| ty != ColType::Text);
                let value = match v {
                    Datum::Int(_) | Datum::Num(_) if numeric && v.number().is_finite() => v.clone(),
                    other => Datum::Text(other.to_text()),
                };
                conj.terms.push(ColumnCmp::new(inner_column, CmpOp::Eq, value));
            }
        }
    }
    let (rows, _path) = scan_guarded(catalog, stats, table, &conj, guard, limit)?;
    Ok(rows)
}

fn order_rows(
    rows: Vec<RowId>,
    table: &str,
    order_by: &[AggOrder],
    catalog: &Catalog,
) -> Result<Vec<RowId>, StoreError> {
    if order_by.is_empty() {
        return Ok(rows);
    }
    let t = catalog.table(table)?;
    let mut cols = Vec::with_capacity(order_by.len());
    for o in order_by {
        let ci = t
            .col_index(&o.column)
            .ok_or_else(|| StoreError::new(format!("no column {} in {table}", o.column)))?;
        cols.push((ci, o.numeric));
    }
    // Fetch each key's text once through the (fallible, possibly paged)
    // access seam, then sort with the XSLT tier's comparison, not the
    // datum's typed order — see [`AggOrder`].
    let mut decorated = Vec::with_capacity(rows.len());
    for r in rows {
        let mut keys = Vec::with_capacity(cols.len());
        for &(ci, numeric) in &cols {
            let text = t.value(r, ci)?.to_text();
            keys.push(if numeric {
                SortValue::Num(str_to_num(&text))
            } else {
                SortValue::Str(text)
            });
        }
        decorated.push((keys, r));
    }
    let descending: Vec<bool> = order_by.iter().map(|o| o.descending).collect();
    Ok(sort_rows(decorated, &descending))
}

/// A complete SQL/XML query: one publishing expression per row of a base
/// table (possibly filtered, possibly ordered) — the shape of Tables 3, 7
/// and 11, extended with a base-row `ORDER BY` for the `xsl:sort` lowering.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlXmlQuery {
    pub base_table: String,
    pub where_clause: Conjunction,
    /// Sort keys applied to the base rows before publishing. Rows are
    /// bound positionally either way, so `RowNumber` over the base table
    /// reads post-sort positions — XSLT's `position()` after `xsl:sort`.
    pub order_by: Vec<AggOrder>,
    pub select: PubExpr,
}

impl SqlXmlQuery {
    /// Run the query: one result document per qualifying base row.
    pub fn execute(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
    ) -> Result<Vec<Document>, StoreError> {
        self.materialize(catalog, stats, &Guard::unlimited())
    }

    /// [`Self::run`] over the query's concrete tables into a row-sealing
    /// [`TreeSink`] charged against `guard`: one document per base row,
    /// each recorded as materialised in `stats`.
    pub(crate) fn materialize(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
    ) -> Result<Vec<Document>, StoreError> {
        let mut rows = TreeSink::new(guard.clone());
        self.run(catalog, stats, guard, &SlotBindings::identity(), &mut rows)?;
        let docs = rows.into_documents();
        for doc in &docs {
            stats.note_materialized_nodes(doc.node_count() as u64);
        }
        Ok(docs)
    }

    /// Run the query into `out`: rows are pulled through the iterator
    /// operators and each row's publishing expression emits its events,
    /// followed by a row boundary ([`XmlSink::end_row`]). The sink decides
    /// what a result is — a [`TreeSink`] seals one document per row, a
    /// [`StreamWriter`] serializes with zero DOM nodes and charges every
    /// byte against the guard as it is written (the paper's §5 emission
    /// model), and the two produce the same bytes.
    ///
    /// Scans and publishing are charged against `guard`. No fault point
    /// fires here: the pipeline fires [`FaultPoint::SqlExec`] at the SQL
    /// tier's entry, so the XQuery and VM tiers, which materialise their
    /// view through this query, can fire only [`FaultPoint::Materialize`]
    /// (at the view). The base table and every table named inside the
    /// publishing expression are resolved through `slots` first — how a
    /// canonicalised plan (whose query names only `$t0`, `$t1`, …) runs
    /// against one concrete view of the family; concrete queries pass
    /// [`SlotBindings::identity`].
    ///
    /// [`StreamWriter`]: xsltdb_xml::StreamWriter
    /// [`FaultPoint::SqlExec`]: xsltdb_xml::FaultPoint::SqlExec
    /// [`FaultPoint::Materialize`]: xsltdb_xml::FaultPoint::Materialize
    pub fn run(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
        slots: &SlotBindings,
        out: &mut dyn XmlSink,
    ) -> Result<(), StoreError> {
        let base_table = slots.resolve(&self.base_table)?;
        let (rows, _path) =
            scan_guarded(catalog, stats, base_table, &self.where_clause, guard, None)?;
        let rows = order_rows(rows, base_table, &self.order_by, catalog)?;
        let base = catalog.table(base_table)?;
        Bindings::default().each_row(base_table, base, rows, |bindings| {
            eval_pub(&self.select, catalog, stats, bindings, out, guard, slots)?;
            out.end_row().map_err(sink_err)
        })
    }

    /// The access path the base-table scan would take (for EXPLAIN-style
    /// reporting). `slots` resolves a symbolic base table; pass
    /// [`SlotBindings::identity`] for concrete queries.
    ///
    /// When the query orders its base rows and the leading sort key has a
    /// B-tree index, a predicate-free scan is reported as
    /// [`AccessPath::IndexOrdered`]: the index can deliver rows already in
    /// key order, absorbing the sort into the access path. A predicate
    /// that wins an index probe keeps its own path — the probe's
    /// selectivity outweighs saving the sort.
    pub fn explain_base_path(
        &self,
        catalog: &Catalog,
        slots: &SlotBindings,
    ) -> Result<AccessPath, StoreError> {
        let stats = ExecStats::new();
        let base = slots.resolve(&self.base_table)?;
        let (_, path) = scan_guarded(
            catalog,
            &stats,
            base,
            &self.where_clause,
            &Guard::unlimited(),
            None,
        )?;
        if path == AccessPath::FullScan {
            if let Some(o) = self.order_by.first() {
                if catalog.index_on(base, &o.column).is_some() {
                    return Ok(AccessPath::IndexOrdered { column: o.column.clone() });
                }
            }
        }
        Ok(path)
    }

    /// Every table this query can read — the base table plus everything the
    /// publishing expression references (deduplicated, base table first).
    /// This is the query's *read-set*: a result computed from it can only
    /// change if one of these tables changes.
    pub fn referenced_tables(&self) -> Vec<String> {
        let mut out = vec![self.base_table.clone()];
        self.select.collect_tables(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{ColType, Datum};
    use crate::table::Table;
    use xsltdb_xml::StreamWriter;

    /// The paper's dept/emp schema (Tables 1 and 2).
    pub(crate) fn paper_catalog() -> Catalog {
        let mut dept = Table::new(
            "dept",
            &[("deptno", ColType::Int), ("dname", ColType::Text), ("loc", ColType::Text)],
        );
        dept.insert(vec![
            Datum::Int(10),
            Datum::Text("ACCOUNTING".into()),
            Datum::Text("NEW YORK".into()),
        ])
        .unwrap();
        dept.insert(vec![
            Datum::Int(40),
            Datum::Text("OPERATIONS".into()),
            Datum::Text("BOSTON".into()),
        ])
        .unwrap();
        let mut emp = Table::new(
            "emp",
            &[
                ("empno", ColType::Int),
                ("ename", ColType::Text),
                ("job", ColType::Text),
                ("sal", ColType::Int),
                ("deptno", ColType::Int),
            ],
        );
        for (no, name, job, sal, d) in [
            (7782, "CLARK", "MANAGER", 2450, 10),
            (7934, "MILLER", "CLERK", 1300, 10),
            (7954, "SMITH", "VP", 4900, 40),
        ] {
            emp.insert(vec![
                Datum::Int(no),
                Datum::Text(name.into()),
                Datum::Text(job.into()),
                Datum::Int(sal),
                Datum::Int(d),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(dept);
        c.add_table(emp);
        c.create_index("emp", "sal").unwrap();
        c.create_index("emp", "deptno").unwrap();
        c
    }

    /// The dept_emp view construction of Table 3.
    pub(crate) fn dept_emp_pub() -> PubExpr {
        PubExpr::elem(
            "dept",
            vec![
                PubExpr::elem("dname", vec![PubExpr::col("dept", "dname")]),
                PubExpr::elem("loc", vec![PubExpr::col("dept", "loc")]),
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
                            vec![
                                PubExpr::elem("empno", vec![PubExpr::col("emp", "empno")]),
                                PubExpr::elem("ename", vec![PubExpr::col("emp", "ename")]),
                                PubExpr::elem("sal", vec![PubExpr::col("emp", "sal")]),
                            ],
                        )),
                    }],
                ),
            ],
        )
    }

    #[test]
    fn table3_view_produces_table4_rows() {
        let c = paper_catalog();
        let stats = ExecStats::new();
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: dept_emp_pub(),
        };
        let docs = q.execute(&c, &stats).unwrap();
        assert_eq!(docs.len(), 2);
        let first = xsltdb_xml::to_string(&docs[0]);
        assert_eq!(
            first,
            "<dept><dname>ACCOUNTING</dname><loc>NEW YORK</loc><employees>\
             <emp><empno>7782</empno><ename>CLARK</ename><sal>2450</sal></emp>\
             <emp><empno>7934</empno><ename>MILLER</ename><sal>1300</sal></emp>\
             </employees></dept>"
        );
        let second = xsltdb_xml::to_string(&docs[1]);
        assert!(second.contains("<ename>SMITH</ename>"));
    }

    #[test]
    fn rewritten_table7_query_uses_sal_index() {
        // The Table 7 shape: per dept row, H1/H2s plus an XMLAgg over emp
        // with `sal > 2000 AND deptno = dept.deptno`.
        let c = paper_catalog();
        let stats = ExecStats::new();
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::Concat(vec![
                PubExpr::elem("H1", vec![PubExpr::lit("HIGHLY PAID DEPT EMPLOYEES")]),
                PubExpr::elem(
                    "H2",
                    vec![PubExpr::StrConcat(vec![
                        PubExpr::lit("Department name: "),
                        PubExpr::col("dept", "dname"),
                    ])],
                ),
                PubExpr::Element {
                    name: "table".into(),
                    attrs: vec![("border".into(), PubExpr::lit("2"))],
                    children: vec![PubExpr::Agg {
                        table: "emp".into(),
                        predicate: vec![
                            AggPredTerm::Const(ColumnCmp::new(
                                "sal",
                                CmpOp::Gt,
                                Datum::Int(2000),
                            )),
                            AggPredTerm::Correlate {
                                inner_column: "deptno".into(),
                                outer_table: "dept".into(),
                                outer_column: "deptno".into(),
                            },
                        ],
                        order_by: Vec::new(),
                        limit: None,
                        body: Box::new(PubExpr::elem(
                            "tr",
                            vec![PubExpr::elem("td", vec![PubExpr::col("emp", "ename")])],
                        )),
                    }],
                },
            ]),
        };
        let docs = q.execute(&c, &stats).unwrap();
        assert_eq!(docs.len(), 2);
        let s0 = xsltdb_xml::to_string(&docs[0]);
        assert!(s0.contains("<td>CLARK</td>"));
        assert!(!s0.contains("MILLER"));
        // Index used for the correlated probe.
        assert!(stats.snapshot().index_probes >= 2);
    }

    #[test]
    fn scalar_aggregates() {
        let c = paper_catalog();
        let stats = ExecStats::new();
        let count = eval_to_text(
            &PubExpr::ScalarAgg {
                func: AggFunc::Count,
                column: None,
                table: "emp".into(),
                predicate: vec![],
            },
            &c,
            &stats,
            &mut Bindings::default(),
            &Guard::unlimited(),
            &SlotBindings::identity(),
        )
        .unwrap();
        assert_eq!(count, "3");
        let sum = eval_to_text(
            &PubExpr::ScalarAgg {
                func: AggFunc::Sum,
                column: Some("sal".into()),
                table: "emp".into(),
                predicate: vec![],
            },
            &c,
            &stats,
            &mut Bindings::default(),
            &Guard::unlimited(),
            &SlotBindings::identity(),
        )
        .unwrap();
        assert_eq!(sum, "8650");
    }

    #[test]
    fn agg_order_by() {
        let c = paper_catalog();
        let stats = ExecStats::new();
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::single("deptno", CmpOp::Eq, Datum::Int(10)),
            order_by: Vec::new(),
            select: PubExpr::Agg {
                table: "emp".into(),
                predicate: vec![AggPredTerm::Correlate {
                    inner_column: "deptno".into(),
                    outer_table: "dept".into(),
                    outer_column: "deptno".into(),
                }],
                order_by: vec![AggOrder {
                    column: "sal".into(),
                    descending: false,
                    numeric: false,
                }],
                limit: None,
                body: Box::new(PubExpr::elem("s", vec![PubExpr::col("emp", "sal")])),
            },
        };
        let docs = q.execute(&c, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<s>1300</s><s>2450</s>");
    }

    #[test]
    fn agg_limit_applies_after_predicate_and_order() {
        let c = paper_catalog();
        let agg = |order_by: Vec<AggOrder>, limit| SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::single("deptno", CmpOp::Eq, Datum::Int(10)),
            order_by: Vec::new(),
            select: PubExpr::Agg {
                table: "emp".into(),
                predicate: vec![AggPredTerm::Correlate {
                    inner_column: "deptno".into(),
                    outer_table: "dept".into(),
                    outer_column: "deptno".into(),
                }],
                order_by,
                limit,
                body: Box::new(PubExpr::elem("s", vec![PubExpr::col("emp", "sal")])),
            },
        };
        let run = |q: &SqlXmlQuery| xsltdb_xml::to_string(&q.execute(&c, &ExecStats::new()).unwrap()[0]);
        let sal = AggOrder { column: "sal".into(), descending: false, numeric: true };
        assert_eq!(run(&agg(Vec::new(), Some(1))), "<s>2450</s>");
        assert_eq!(run(&agg(vec![sal.clone()], Some(1))), "<s>1300</s>");
        assert_eq!(run(&agg(vec![sal], Some(5))), "<s>1300</s><s>2450</s>");
        assert_eq!(run(&agg(Vec::new(), Some(0))), "");
        let text = crate::sqlpretty::sql_text(&agg(Vec::new(), Some(1)));
        assert!(text.contains("FETCH FIRST 1 ROWS ONLY"), "{text}");
    }

    #[test]
    fn referenced_tables_walks_the_whole_expression() {
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: dept_emp_pub(),
        };
        // Base table first, then first-mention order; correlation outer
        // tables dedupe against the base table.
        assert_eq!(q.referenced_tables(), vec!["dept".to_string(), "emp".to_string()]);

        let scalar = SqlXmlQuery {
            base_table: "a".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::Concat(vec![
                PubExpr::Case {
                    cond: ColumnCmp::new("x", CmpOp::Eq, crate::datum::Datum::Int(1)),
                    table: "b".into(),
                    then: Box::new(PubExpr::col("c", "y")),
                    els: Box::new(PubExpr::lit("")),
                },
                PubExpr::ScalarAgg {
                    func: AggFunc::Count,
                    column: None,
                    table: "d".into(),
                    predicate: vec![AggPredTerm::Correlate {
                        inner_column: "k".into(),
                        outer_table: "e".into(),
                        outer_column: "k".into(),
                    }],
                },
            ]),
        };
        assert_eq!(
            scalar.referenced_tables(),
            vec!["a", "b", "c", "d", "e"].into_iter().map(String::from).collect::<Vec<_>>()
        );
    }

    #[test]
    fn missing_binding_is_error() {
        let c = paper_catalog();
        let stats = ExecStats::new();
        let mut b = TreeSink::unguarded();
        let r = eval_pub(
            &PubExpr::col("dept", "dname"),
            &c,
            &stats,
            &mut Bindings::default(),
            &mut b,
            &Guard::unlimited(),
            &SlotBindings::identity(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn streaming_matches_materialized_serialization() {
        let c = paper_catalog();
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: dept_emp_pub(),
        };
        let stats = ExecStats::new();
        let docs = q.execute(&c, &stats).unwrap();
        let expected: String = docs.iter().map(xsltdb_xml::to_string).collect();
        assert!(stats.snapshot().peak_materialized_nodes > 0);

        let streamed_stats = ExecStats::new();
        let mut sink = StreamWriter::new(Vec::new(), Guard::unlimited());
        q.run(&c, &streamed_stats, &Guard::unlimited(), &SlotBindings::identity(), &mut sink)
            .unwrap();
        assert_eq!(sink.bytes_written() as usize, expected.len());
        assert_eq!(String::from_utf8(sink.finish().unwrap()).unwrap(), expected);
        // The point of the exercise: nothing was materialised.
        assert_eq!(streamed_stats.snapshot().peak_materialized_nodes, 0);
    }

    #[test]
    fn streaming_trips_output_byte_cap_mid_stream() {
        let c = paper_catalog();
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: dept_emp_pub(),
        };
        let guard = Guard::new(
            xsltdb_xml::Limits::UNLIMITED.with_max_output_bytes(40),
        );
        let mut buf = Vec::new();
        let mut sink = StreamWriter::new(&mut buf, guard.clone());
        let err = q
            .run(&c, &ExecStats::new(), &guard, &SlotBindings::identity(), &mut sink)
            .unwrap_err();
        drop(sink);
        assert!(err.message().contains("output bytes"), "unexpected error: {err:?}");
        assert!(guard.trip().is_some());
        // The error itself carries the structured trip evidence — layers
        // above can classify it without the Guard side channel.
        assert_eq!(err.trip(), guard.trip());
        // Partial output stopped at the budget, not after a whole tree.
        assert!(buf.len() as u64 <= 40);
        assert!(!buf.is_empty(), "the stream should have started");
    }
}

#[cfg(test)]
mod arith_tests {
    use super::*;
    use xsltdb_xpath::ArithOp;

    #[test]
    fn arithmetic_over_scalar_aggs() {
        let c = super::tests::paper_catalog();
        let stats = ExecStats::new();
        // avg salary = sum(sal) / count(*) = 8650 / 3.
        let avg = PubExpr::Arith {
            op: ArithOp::Div,
            left: Box::new(PubExpr::ScalarAgg {
                func: AggFunc::Sum,
                column: Some("sal".into()),
                table: "emp".into(),
                predicate: vec![],
            }),
            right: Box::new(PubExpr::ScalarAgg {
                func: AggFunc::Count,
                column: None,
                table: "emp".into(),
                predicate: vec![],
            }),
        };
        let text = eval_to_text(
            &avg,
            &c,
            &stats,
            &mut Bindings::default(),
            &Guard::unlimited(),
            &SlotBindings::identity(),
        )
        .unwrap();
        assert_eq!(text.parse::<f64>().unwrap().round(), 2883.0);
    }

    #[test]
    fn arith_pretty_prints() {
        let e = PubExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(PubExpr::lit("1")),
            right: Box::new(PubExpr::lit("2")),
        };
        let q = SqlXmlQuery {
            base_table: "dept".into(),
            where_clause: crate::exec::Conjunction::default(),
            order_by: Vec::new(),
            select: e,
        };
        assert!(crate::sqlpretty::sql_text(&q).contains("('1' + '2')"));
    }
}

#[cfg(test)]
mod access_path_tests {
    use super::*;
    use crate::datum::{ColType, Datum};
    use crate::exec::{AccessPath, Conjunction};
    use xsltdb_xpath::CmpOp;
    use crate::table::Table;

    /// The XSLTMark db workload's row table: B-tree indexes on `id`,
    /// `zip` and `state` — and deliberately none on `city`.
    fn dbtail_catalog() -> Catalog {
        let mut catalog = Catalog::new();
        catalog.add_table(Table::new(
            "db_rows",
            &[
                ("id", ColType::Int),
                ("firstname", ColType::Text),
                ("lastname", ColType::Text),
                ("street", ColType::Text),
                ("city", ColType::Text),
                ("state", ColType::Text),
                ("zip", ColType::Int),
            ],
        ));
        let t = catalog.table_mut("db_rows").unwrap();
        for (id, first, last, city, state, zip) in [
            (3, "Al", "Barker", "Dover", "NY", 11100),
            (1, "Bea", "Katz", "Anytown", "CA", 90210),
            (2, "Carl", "Lane", "Dover", "CA", 90210),
        ] {
            t.insert(vec![
                Datum::Int(id),
                Datum::Text(first.into()),
                Datum::Text(last.into()),
                Datum::Text("1 Any St.".into()),
                Datum::Text(city.into()),
                Datum::Text(state.into()),
                Datum::Int(zip),
            ])
            .unwrap();
        }
        catalog.create_index("db_rows", "id").unwrap();
        catalog.create_index("db_rows", "zip").unwrap();
        catalog.create_index("db_rows", "state").unwrap();
        catalog
    }

    fn dbtail_query(where_clause: Conjunction, order_by: Vec<AggOrder>) -> SqlXmlQuery {
        SqlXmlQuery {
            base_table: "db_rows".into(),
            where_clause,
            order_by,
            select: PubExpr::elem("r", vec![PubExpr::col("db_rows", "lastname")]),
        }
    }

    fn asc(column: &str) -> AggOrder {
        AggOrder { column: column.into(), descending: false, numeric: false }
    }

    #[test]
    fn order_by_indexed_column_reports_ordered_index_scan() {
        let catalog = dbtail_catalog();
        let q = dbtail_query(Conjunction::default(), vec![asc("zip")]);
        assert_eq!(
            q.explain_base_path(&catalog, &SlotBindings::identity()).unwrap(),
            AccessPath::IndexOrdered { column: "zip".into() }
        );
    }

    #[test]
    fn only_the_leading_sort_key_picks_the_ordered_scan() {
        let catalog = dbtail_catalog();
        // city (unindexed) leads: the secondary indexed key cannot deliver
        // the ordering, so the scan stays full.
        let q = dbtail_query(Conjunction::default(), vec![asc("city"), asc("zip")]);
        assert_eq!(q.explain_base_path(&catalog, &SlotBindings::identity()).unwrap(), AccessPath::FullScan);
        // state (indexed) leads: ordered index scan on it.
        let q = dbtail_query(Conjunction::default(), vec![asc("state"), asc("city")]);
        assert_eq!(
            q.explain_base_path(&catalog, &SlotBindings::identity()).unwrap(),
            AccessPath::IndexOrdered { column: "state".into() }
        );
    }

    #[test]
    fn unordered_scan_stays_full() {
        let catalog = dbtail_catalog();
        let q = dbtail_query(Conjunction::default(), Vec::new());
        assert_eq!(q.explain_base_path(&catalog, &SlotBindings::identity()).unwrap(), AccessPath::FullScan);
    }

    #[test]
    fn index_probe_outranks_the_ordered_scan() {
        let catalog = dbtail_catalog();
        // A predicate that wins an index probe keeps its own access path:
        // the probe's selectivity outweighs absorbing the sort.
        let q = dbtail_query(
            Conjunction::single("id", CmpOp::Eq, Datum::Int(2)),
            vec![asc("zip")],
        );
        assert_eq!(
            q.explain_base_path(&catalog, &SlotBindings::identity()).unwrap(),
            AccessPath::IndexEq { column: "id".into() }
        );
    }
}
