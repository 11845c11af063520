//! XQuery → SQL/XML rewrite (the paper's second rewrite step, after \[3,4\]):
//! path expressions over an XMLType *publishing view* are replaced by the
//! relational columns and row sources recorded in the view-derived
//! structural information, producing a query of pure SQL/XML publishing
//! functions (Table 7 / Table 11) whose predicates the relational engine
//! can evaluate through B-tree indexes.
//!
//! Shapes the rewrite cannot map (user-defined functions, paths with no
//! column binding, non-column conditionals) return [`RewriteError`]; the
//! pipeline then runs the XQuery tier instead — rewrites degrade, they
//! never fail the transformation.
//!
//! The rewrite is **name-agnostic**: every table reference in the emitted
//! [`SqlXmlQuery`] is copied verbatim from the structural information it
//! is given. The pipeline plans against *canonical* structure
//! ([`xsltdb_structinfo::canonicalize`]), whose table names are binding
//! slots (`$t0`, `$t1`, …), so prepared SQL is slot-named and identity-free
//! — concrete tables are substituted at execute time via
//! [`xsltdb_relstore::SlotBindings`]. Nothing in this module special-cases
//! slots; rewriting over raw (concrete-named) structure emits ordinary
//! table names, which the executor's identity bindings pass through.

use crate::error::RewriteError;
use crate::xqgen::ROOT_VAR;
use std::collections::HashMap;
use xsltdb_relstore::exec::ColumnCmp;
use xsltdb_relstore::pubexpr::{AggFunc, AggOrder, AggPredTerm, PubExpr, SqlXmlQuery};
use xsltdb_relstore::Datum;
use xsltdb_structinfo::{ContentBinding, ElemDecl, Origin, StructInfo};
use xsltdb_xpath::{Axis, CmpOp, NodeTest};
use xsltdb_xquery::{Clause, PathStart, XQuery, XqExpr, XqStep};

/// Rewrite an (inline-mode) XQuery over a publishing-view structure into a
/// SQL/XML query.
pub fn rewrite_to_sql(query: &XQuery, info: &StructInfo) -> Result<SqlXmlQuery, RewriteError> {
    let Origin::View { base_table, where_clause, order_by } = &info.origin else {
        return Err(RewriteError::new(
            "SQL rewrite requires view-derived structural information",
        ));
    };
    if !query.functions.is_empty() {
        return Err(RewriteError::new(
            "SQL rewrite requires a fully inlined query (no functions)",
        ));
    }
    let mut tr = SqlTr { info, env: HashMap::new() };
    // The prolog is expected to bind the input document variable.
    for v in &query.variables {
        if v.name == ROOT_VAR && v.value == XqExpr::ContextItem {
            tr.env.insert(v.name.clone(), Binding::DocRoot);
        } else {
            return Err(RewriteError::new(format!(
                "unsupported prolog variable ${}",
                v.name
            )));
        }
    }
    let select = tr.expr(&query.body)?;
    // The view's own row filter and row order decide which documents exist
    // and in what order: the rewritten query keeps both.
    Ok(SqlXmlQuery {
        base_table: base_table.clone(),
        where_clause: where_clause.clone(),
        order_by: order_by.clone(),
        select,
    })
}

#[derive(Clone)]
enum Binding<'a> {
    /// The document node of the view's per-row XML value.
    DocRoot,
    /// A node at this declaration (cardinality-One navigation).
    Decl(&'a ElemDecl),
    /// A computed text value.
    Text(PubExpr),
    /// The 1-based row number of the named table's current row in the
    /// enclosing aggregation (`for … at $p`).
    Position { table: String },
}

struct SqlTr<'a> {
    info: &'a StructInfo,
    env: HashMap<String, Binding<'a>>,
}

/// A resolved path target.
enum Resolved<'a> {
    /// A single node (chain of cardinality-One steps).
    Single(&'a ElemDecl),
    /// A repeated node backed by a row source, with residual predicate
    /// terms extracted from path predicates.
    Rows { decl: &'a ElemDecl, extra: Vec<AggPredTerm> },
    /// Rows followed by a One child (`emp/sal` under `sum()`).
    RowsChild { rows: &'a ElemDecl, extra: Vec<AggPredTerm>, child: &'a ElemDecl },
}

impl<'a> SqlTr<'a> {
    fn expr(&mut self, e: &XqExpr) -> Result<PubExpr, RewriteError> {
        match e {
            XqExpr::Annotated { expr, .. } => self.expr(expr),
            XqExpr::Empty => Ok(PubExpr::Literal(String::new())),
            XqExpr::TextContent(t) | XqExpr::StrLit(t) => Ok(PubExpr::Literal(t.clone())),
            XqExpr::NumLit(n) => {
                Ok(PubExpr::Literal(xsltdb_xpath::value::num_to_string(*n)))
            }
            XqExpr::CompText(inner) => self.expr(inner),
            XqExpr::CompComment(inner) => {
                Ok(PubExpr::Comment(Box::new(self.expr(inner)?)))
            }
            XqExpr::CompPi { target, content } => Ok(PubExpr::Pi {
                target: target.clone(),
                content: Box::new(self.expr(content)?),
            }),
            XqExpr::Seq(es) => Ok(PubExpr::Concat(
                es.iter().map(|x| self.expr(x)).collect::<Result<_, _>>()?,
            )),
            XqExpr::DirectElem { name, attrs, content } => {
                let mut a = Vec::with_capacity(attrs.len());
                for (aname, parts) in attrs {
                    let mut pieces = Vec::with_capacity(parts.len());
                    for p in parts {
                        pieces.push(match p {
                            xsltdb_xquery::AttrValuePart::Text(t) => {
                                PubExpr::Literal(t.clone())
                            }
                            xsltdb_xquery::AttrValuePart::Expr(e) => self.expr(e)?,
                        });
                    }
                    let value = if pieces.len() == 1 {
                        pieces.pop().expect("one element")
                    } else {
                        PubExpr::StrConcat(pieces)
                    };
                    a.push((aname.lexical(), value));
                }
                let mut children = Vec::with_capacity(content.len());
                for c in content {
                    // Computed attributes at the head of the content lift
                    // into XMLAttributes.
                    if let XqExpr::CompAttr { name, value } = c {
                        if children.is_empty() {
                            let n = self.const_string(name)?;
                            a.push((n, self.expr(value)?));
                            continue;
                        }
                        return Err(RewriteError::new(
                            "computed attribute after element content",
                        ));
                    }
                    children.push(self.expr(c)?);
                }
                Ok(PubExpr::Element { name: name.lexical(), attrs: a, children })
            }
            XqExpr::CompElem { name, content } => {
                let n = self.const_string(name)?;
                // Lift leading computed attributes, as in direct constructors.
                let items: Vec<&XqExpr> = match content.as_ref() {
                    XqExpr::Seq(es) => es.iter().collect(),
                    other => vec![other],
                };
                let mut attrs = Vec::new();
                let mut children = Vec::new();
                for c in items {
                    if let XqExpr::CompAttr { name, value } = c {
                        if children.is_empty() {
                            attrs.push((self.const_string(name)?, self.expr(value)?));
                            continue;
                        }
                        return Err(RewriteError::new(
                            "computed attribute after element content",
                        ));
                    }
                    children.push(self.expr(c)?);
                }
                Ok(PubExpr::Element { name: n, attrs, children })
            }
            XqExpr::Arith(op, l, r) => Ok(PubExpr::Arith {
                op: *op,
                left: Box::new(self.scalar(l)?),
                right: Box::new(self.scalar(r)?),
            }),
            XqExpr::Call { name, args } => self.call(name, args),
            XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
                self.flwor(clauses, where_clause.as_deref(), order_by, ret)
            }
            XqExpr::If { cond, then, els } => {
                let (table, column_cmp) = self.condition(cond)?;
                Ok(PubExpr::Case {
                    cond: column_cmp,
                    table,
                    then: Box::new(self.expr(then)?),
                    els: Box::new(self.expr(els)?),
                })
            }
            XqExpr::VarRef(v) => match self.env.get(v) {
                Some(Binding::Text(p)) => Ok(p.clone()),
                Some(Binding::Decl(d)) => self.decl_text(d),
                Some(Binding::Position { table }) => {
                    Ok(PubExpr::RowNumber { table: table.clone() })
                }
                _ => Err(RewriteError::new(format!(
                    "variable ${v} has no SQL translation"
                ))),
            },
            XqExpr::Path { .. } => {
                // A bare path in content position: copy of view XML — only
                // text-bound single targets are supported.
                match self.resolve_path(e)? {
                    Resolved::Single(d) => self.decl_text(d),
                    _ => Err(RewriteError::new(
                        "copying repeated view nodes is not supported by the SQL rewrite",
                    )),
                }
            }
            other => Err(RewriteError::new(format!(
                "expression has no SQL translation: {other:?}"
            ))),
        }
    }

    /// A scalar (text-producing) operand: paths resolve to their bindings.
    fn scalar(&mut self, e: &XqExpr) -> Result<PubExpr, RewriteError> {
        match e {
            XqExpr::Path { .. } => match self.resolve_path(e)? {
                Resolved::Single(d) => self.decl_text(d),
                _ => Err(RewriteError::new("scalar operand selects repeated nodes")),
            },
            other => self.expr(other),
        }
    }

    fn const_string(&mut self, e: &XqExpr) -> Result<String, RewriteError> {
        match e {
            XqExpr::StrLit(s) => Ok(s.clone()),
            _ => Err(RewriteError::new("dynamic names have no SQL translation")),
        }
    }

    /// Text content of a declaration (its recorded publishing expression).
    fn decl_text(&self, d: &ElemDecl) -> Result<PubExpr, RewriteError> {
        match &d.content {
            ContentBinding::Pub(p) => Ok(p.clone()),
            ContentBinding::Unbound if d.children.is_empty() && !d.has_text => {
                Ok(PubExpr::Literal(String::new()))
            }
            ContentBinding::Unbound => Err(RewriteError::new(format!(
                "element <{}> has no column binding",
                d.name
            ))),
        }
    }

    fn call(&mut self, name: &str, args: &[XqExpr]) -> Result<PubExpr, RewriteError> {
        match (name, args) {
            ("fn:string", [arg]) => match arg {
                XqExpr::Path { .. } | XqExpr::VarRef(_) => match arg {
                    XqExpr::VarRef(v) => match self.env.get(v).cloned() {
                        Some(Binding::Text(p)) => Ok(p),
                        Some(Binding::Decl(d)) => self.decl_text(d),
                        Some(Binding::Position { table }) => {
                            Ok(PubExpr::RowNumber { table })
                        }
                        _ => Err(RewriteError::new(format!("${v} unbound"))),
                    },
                    _ => match self.resolve_path(arg)? {
                        Resolved::Single(d) => self.decl_text(d),
                        _ => Err(RewriteError::new(
                            "fn:string over repeated nodes is not supported",
                        )),
                    },
                },
                XqExpr::StrLit(s) => Ok(PubExpr::Literal(s.clone())),
                other => self.expr(other),
            },
            ("fn:concat", args) => Ok(PubExpr::StrConcat(
                args.iter().map(|a| self.call("fn:string", std::slice::from_ref(a)))
                    .collect::<Result<_, _>>()?,
            )),
            ("fn:count", [arg]) => match self.resolve_path(arg)? {
                Resolved::Rows { decl, extra } => {
                    let rs = decl.row_source.as_ref().ok_or_else(|| {
                        RewriteError::new("count() target has no row source")
                    })?;
                    let mut predicate = rs.predicate.clone();
                    predicate.extend(extra);
                    Ok(PubExpr::ScalarAgg {
                        func: AggFunc::Count,
                        column: None,
                        table: rs.table.clone(),
                        predicate,
                    })
                }
                _ => Err(RewriteError::new("count() needs a repeated view node")),
            },
            ("fn:sum", [arg]) => match self.resolve_path(arg)? {
                Resolved::RowsChild { rows, extra, child } => {
                    let rs = rows.row_source.as_ref().ok_or_else(|| {
                        RewriteError::new("sum() target has no row source")
                    })?;
                    let column = self.column_of(child)?;
                    let mut predicate = rs.predicate.clone();
                    predicate.extend(extra);
                    Ok(PubExpr::ScalarAgg {
                        func: AggFunc::Sum,
                        column: Some(column),
                        table: rs.table.clone(),
                        predicate,
                    })
                }
                _ => Err(RewriteError::new(
                    "sum() needs a column under a repeated view node",
                )),
            },
            _ => Err(RewriteError::new(format!(
                "function {name}() has no SQL translation"
            ))),
        }
    }

    /// The column a declaration's text is bound to (for aggregates and
    /// predicates).
    fn column_of(&self, d: &ElemDecl) -> Result<String, RewriteError> {
        match &d.content {
            ContentBinding::Pub(PubExpr::ColumnRef { column, .. }) => Ok(column.clone()),
            _ => Err(RewriteError::new(format!(
                "element <{}> is not bound to a single column",
                d.name
            ))),
        }
    }

    fn flwor(
        &mut self,
        clauses: &[Clause],
        where_clause: Option<&XqExpr>,
        order_by: &[xsltdb_xquery::OrderSpec],
        ret: &XqExpr,
    ) -> Result<PubExpr, RewriteError> {
        let Some((first, rest)) = clauses.split_first() else {
            if where_clause.is_some() {
                return Err(RewriteError::new("where without for has no SQL translation"));
            }
            return self.expr(ret);
        };
        match first {
            Clause::Let { var, value } => {
                let binding = match value {
                    XqExpr::Path { .. } => match self.resolve_path(value)? {
                        Resolved::Single(d) => Binding::Decl(d),
                        _ => {
                            return Err(RewriteError::new(
                                "let over repeated nodes is not supported",
                            ))
                        }
                    },
                    other => Binding::Text(self.expr(other)?),
                };
                let saved = self.env.insert(var.clone(), binding);
                let inner = self.flwor_inner(rest, where_clause, order_by, ret);
                restore(&mut self.env, var, saved);
                inner
            }
            Clause::For { var, at, source } => {
                // XQuery assigns `at` positions *before* the same FLWOR's
                // `order by` and `where` run; SQL numbers rows after
                // ordering and filtering. Sorted positional loops therefore
                // arrive in the nested shape
                // `for $v at $p in (for $s in SRC order by K return $s)`,
                // which this arm unwraps; `at` combined with a same-level
                // `order by` or `where` would diverge between tiers.
                if at.is_some() && !order_by.is_empty() {
                    return Err(RewriteError::new(
                        "`at` with `order by` in one FLWOR has no SQL translation",
                    ));
                }
                if at.is_some() && where_clause.is_some() {
                    return Err(RewriteError::new(
                        "`at` with `where` in one FLWOR has no SQL translation",
                    ));
                }
                let (src, inner_var, sort_specs): (
                    &XqExpr,
                    Option<&String>,
                    &[xsltdb_xquery::OrderSpec],
                ) = match source {
                    XqExpr::Flwor {
                        clauses: ic,
                        where_clause: None,
                        order_by: ob,
                        ret: iret,
                    } if !ob.is_empty() => match &ic[..] {
                        [Clause::For { var: iv, at: None, source: isrc }]
                            if **iret == XqExpr::VarRef(iv.clone()) =>
                        {
                            (isrc, Some(iv), ob.as_slice())
                        }
                        _ => {
                            return Err(RewriteError::new(
                                "nested for-clause source is not a sorted row source",
                            ))
                        }
                    },
                    other => (other, None, order_by),
                };
                let Resolved::Rows { decl, mut extra } = self.resolve_path(src)?
                else {
                    return Err(RewriteError::new(
                        "for-clause source is not a repeated view node",
                    ));
                };
                let rs = decl.row_source.as_ref().ok_or_else(|| {
                    RewriteError::new("for-clause target has no row source")
                })?;
                let table = rs.table.clone();
                let saved = self.env.insert(var.clone(), Binding::Decl(decl));
                // The inner sort variable resolves order keys; the `at`
                // variable becomes the SQL row number over the same rows.
                let saved_inner = inner_var
                    .map(|iv| self.env.insert(iv.clone(), Binding::Decl(decl)));
                let saved_at = at.as_ref().map(|p| {
                    self.env
                        .insert(p.clone(), Binding::Position { table: table.clone() })
                });
                let result = (|| -> Result<PubExpr, RewriteError> {
                    if let Some(w) = where_clause {
                        let mut terms = self.where_terms(w).map_err(|_| {
                            RewriteError::new("where clause is not a column comparison")
                        })?;
                        extra.append(&mut terms);
                    }
                    let mut orders = Vec::new();
                    for o in sort_specs {
                        // `fn:number(path)` is a numeric key, a path a text one.
                        let (key, numeric) = match &o.key {
                            XqExpr::Call { name, args } if name == "fn:number" => {
                                (args.first().unwrap_or(&o.key), true)
                            }
                            key => (key, false),
                        };
                        let col = match self.resolve_path(key) {
                            Ok(Resolved::Single(d)) => self.column_of(d)?,
                            _ => {
                                return Err(RewriteError::new(
                                    "order-by key is not a bound column",
                                ))
                            }
                        };
                        orders.push(AggOrder {
                            column: col,
                            descending: o.descending,
                            numeric,
                        });
                    }
                    // `xsl:sort` is stable over document order, which is
                    // the view's row order: its keys break the ties.
                    orders.extend(rs.order_by.iter().cloned());
                    let body = self.flwor_inner(rest, None, &[], ret)?;
                    let mut predicate = rs.predicate.clone();
                    predicate.extend(extra);
                    Ok(PubExpr::Agg {
                        table: table.clone(),
                        predicate,
                        order_by: orders,
                        limit: None,
                        body: Box::new(body),
                    })
                })();
                restore(&mut self.env, var, saved);
                if let Some(iv) = inner_var {
                    restore(&mut self.env, iv, saved_inner.flatten());
                }
                if let Some(p) = at {
                    restore(&mut self.env, p, saved_at.flatten());
                }
                result
            }
        }
    }

    fn flwor_inner(
        &mut self,
        rest: &[Clause],
        where_clause: Option<&XqExpr>,
        order_by: &[xsltdb_xquery::OrderSpec],
        ret: &XqExpr,
    ) -> Result<PubExpr, RewriteError> {
        if rest.is_empty() && where_clause.is_none() && order_by.is_empty() {
            self.expr(ret)
        } else {
            self.flwor(rest, where_clause, order_by, ret)
        }
    }

    /// Translate `where` conjuncts into predicate terms over `decl`'s row.
    fn where_terms(&mut self, w: &XqExpr) -> Result<Vec<AggPredTerm>, RewriteError> {
        match w {
            XqExpr::And(a, b) => {
                let mut t = self.where_terms(a)?;
                t.extend(self.where_terms(b)?);
                Ok(t)
            }
            XqExpr::Compare(op, l, r) => {
                let cmp = self.column_comparison(*op, l, r)?;
                Ok(vec![AggPredTerm::Const(cmp)])
            }
            _ => Err(RewriteError::new("unsupported where clause shape")),
        }
    }

    /// An `xsl:if` / `xsl:when` condition as a single column comparison,
    /// returning the bound table too.
    fn condition(&mut self, cond: &XqExpr) -> Result<(String, ColumnCmp), RewriteError> {
        match cond {
            XqExpr::Compare(op, l, r) => {
                let (table, cmp) = self.column_comparison_with_table(*op, l, r)?;
                Ok((table, cmp))
            }
            _ => Err(RewriteError::new(
                "conditional is not a column comparison",
            )),
        }
    }

    fn column_comparison(
        &mut self,
        op: CmpOp,
        l: &XqExpr,
        r: &XqExpr,
    ) -> Result<ColumnCmp, RewriteError> {
        Ok(self.column_comparison_with_table(op, l, r)?.1)
    }

    fn column_comparison_with_table(
        &mut self,
        op: CmpOp,
        l: &XqExpr,
        r: &XqExpr,
    ) -> Result<(String, ColumnCmp), RewriteError> {
        // Normalise to column-op-literal.
        let (path, lit, op) = match (l, r) {
            (p @ (XqExpr::Path { .. } | XqExpr::VarRef(_)), lit) => (p, lit, op),
            (lit, p @ (XqExpr::Path { .. } | XqExpr::VarRef(_))) => (p, lit, op.flip()),
            _ => return Err(RewriteError::new("comparison has no column side")),
        };
        let (table, column) = match path {
            XqExpr::VarRef(v) => match self.env.get(v) {
                Some(Binding::Decl(d)) => self.table_column_of(d)?,
                _ => return Err(RewriteError::new(format!("${v} is not a column"))),
            },
            _ => match self.resolve_path(path)? {
                Resolved::Single(d) => self.table_column_of(d)?,
                _ => {
                    return Err(RewriteError::new(
                        "comparison path is not a single column",
                    ))
                }
            },
        };
        Ok((table, ColumnCmp { column, op, value: literal(lit)? }))
    }

    fn table_column_of(&self, d: &ElemDecl) -> Result<(String, String), RewriteError> {
        match &d.content {
            ContentBinding::Pub(PubExpr::ColumnRef { table, column }) => {
                Ok((table.clone(), column.clone()))
            }
            _ => Err(RewriteError::new(format!(
                "element <{}> is not bound to a column",
                d.name
            ))),
        }
    }

    /// Resolve a path expression against the view structure.
    fn resolve_path(&mut self, e: &XqExpr) -> Result<Resolved<'a>, RewriteError> {
        let (start, steps): (Binding<'a>, &[XqStep]) = match e {
            XqExpr::Path { start, steps } => {
                let base = match start {
                    PathStart::Expr(b) => match b.as_ref() {
                        XqExpr::VarRef(v) => self
                            .env
                            .get(v)
                            .cloned()
                            .ok_or_else(|| RewriteError::new(format!("${v} unbound")))?,
                        _ => {
                            return Err(RewriteError::new(
                                "path base is not a variable",
                            ))
                        }
                    },
                    PathStart::Root => Binding::DocRoot,
                    PathStart::Context => {
                        return Err(RewriteError::new(
                            "context-relative paths are not supported here",
                        ))
                    }
                };
                (base, steps)
            }
            XqExpr::VarRef(v) => (
                self.env
                    .get(v)
                    .cloned()
                    .ok_or_else(|| RewriteError::new(format!("${v} unbound")))?,
                &[],
            ),
            _ => return Err(RewriteError::new("not a path expression")),
        };

        let mut cur: &'a ElemDecl = match start {
            Binding::DocRoot => {
                // First step must select the root element.
                let Some((first, rest)) = steps.split_first() else {
                    return Err(RewriteError::new("document node is not a column"));
                };
                let name = step_name(first)?;
                if name != self.info.root.name {
                    return Err(RewriteError::new(format!(
                        "path selects <{name}>, the view root is <{}>",
                        self.info.root.name
                    )));
                }
                if !first.predicates.is_empty() {
                    return Err(RewriteError::new("predicates on the view root"));
                }
                return self.resolve_from(&self.info.root, rest);
            }
            Binding::Decl(d) => d,
            Binding::Text(_) => {
                return Err(RewriteError::new("cannot navigate into a text value"))
            }
            Binding::Position { .. } => {
                return Err(RewriteError::new("cannot navigate into a position value"))
            }
        };
        if steps.is_empty() {
            return Ok(Resolved::Single(cur));
        }
        let r = self.resolve_from(cur, steps)?;
        cur = match &r {
            Resolved::Single(d) => d,
            _ => return Ok(r),
        };
        Ok(Resolved::Single(cur))
    }

    fn resolve_from(
        &self,
        mut cur: &'a ElemDecl,
        steps: &[XqStep],
    ) -> Result<Resolved<'a>, RewriteError> {
        for (i, step) in steps.iter().enumerate() {
            let name = step_name(step)?;
            let child = cur
                .child(&name)
                .ok_or_else(|| {
                    RewriteError::new(format!("<{}> has no child <{name}>", cur.name))
                })?;
            if child.card.is_many() {
                // Residual predicates on the repeated step become row
                // predicates.
                let mut extra = Vec::new();
                for p in &step.predicates {
                    extra.push(AggPredTerm::Const(
                        self.predicate_term(p, &child.decl)?,
                    ));
                }
                let rest = &steps[i + 1..];
                if rest.is_empty() {
                    return Ok(Resolved::Rows { decl: &child.decl, extra });
                }
                if rest.len() == 1 && rest[0].predicates.is_empty() {
                    let cname = step_name(&rest[0])?;
                    let gchild = child.decl.child(&cname).ok_or_else(|| {
                        RewriteError::new(format!(
                            "<{}> has no child <{cname}>",
                            child.decl.name
                        ))
                    })?;
                    return Ok(Resolved::RowsChild {
                        rows: &child.decl,
                        extra,
                        child: &gchild.decl,
                    });
                }
                return Err(RewriteError::new(
                    "deep navigation below a repeated node is not supported",
                ));
            }
            if !step.predicates.is_empty() {
                return Err(RewriteError::new(
                    "predicates on single-occurrence steps are not supported",
                ));
            }
            cur = &child.decl;
        }
        Ok(Resolved::Single(cur))
    }

    /// A predicate on a repeated step: `child-column op literal` or
    /// `. op literal`.
    fn predicate_term(
        &self,
        p: &XqExpr,
        rows_decl: &'a ElemDecl,
    ) -> Result<ColumnCmp, RewriteError> {
        match p {
            XqExpr::Compare(op, l, r) => {
                let (path, lit, op) = match (l.as_ref(), r.as_ref()) {
                    (pp @ XqExpr::Path { .. }, lit) => (Some(pp), lit, *op),
                    (XqExpr::ContextItem, lit) => (None, lit, *op),
                    (lit, pp @ XqExpr::Path { .. }) => (Some(pp), lit, op.flip()),
                    (lit, XqExpr::ContextItem) => (None, lit, op.flip()),
                    _ => {
                        return Err(RewriteError::new(
                            "row predicate is not a column comparison",
                        ))
                    }
                };
                let column = match path {
                    None => match &rows_decl.content {
                        ContentBinding::Pub(PubExpr::ColumnRef { column, .. }) => {
                            column.clone()
                        }
                        _ => {
                            return Err(RewriteError::new(
                                "`.` in a predicate needs a column-bound element",
                            ))
                        }
                    },
                    Some(XqExpr::Path { start: PathStart::Context, steps }) => {
                        if steps.len() != 1 {
                            return Err(RewriteError::new(
                                "deep predicate paths are not supported",
                            ));
                        }
                        let name = step_name(&steps[0])?;
                        let child = rows_decl.child(&name).ok_or_else(|| {
                            RewriteError::new(format!(
                                "<{}> has no child <{name}>",
                                rows_decl.name
                            ))
                        })?;
                        match &child.decl.content {
                            ContentBinding::Pub(PubExpr::ColumnRef { column, .. }) => {
                                column.clone()
                            }
                            _ => {
                                return Err(RewriteError::new(format!(
                                    "<{name}> is not bound to a column"
                                )))
                            }
                        }
                    }
                    Some(_) => {
                        return Err(RewriteError::new(
                            "row predicate path is not context-relative",
                        ))
                    }
                };
                Ok(ColumnCmp { column, op, value: literal(lit)? })
            }
            _ => Err(RewriteError::new("unsupported row predicate shape")),
        }
    }
}

fn restore<'a>(
    env: &mut HashMap<String, Binding<'a>>,
    var: &str,
    saved: Option<Binding<'a>>,
) {
    match saved {
        Some(b) => {
            env.insert(var.to_string(), b);
        }
        None => {
            env.remove(var);
        }
    }
}

fn step_name(s: &XqStep) -> Result<String, RewriteError> {
    if s.axis != Axis::Child {
        return Err(RewriteError::new(format!(
            "axis {} has no SQL translation",
            s.axis.name()
        )));
    }
    match &s.test {
        NodeTest::Name { local, .. } => Ok(local.clone()),
        other => Err(RewriteError::new(format!(
            "node test {other} has no SQL translation"
        ))),
    }
}

/// A comparison's constant side as the SQL literal: a number or a string.
fn literal(lit: &XqExpr) -> Result<Datum, RewriteError> {
    match lit {
        XqExpr::NumLit(n) => Ok(Datum::Num(*n)),
        XqExpr::StrLit(s) => Ok(Datum::Text(s.clone())),
        _ => Err(RewriteError::new("comparison literal is not constant")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_relstore::exec::Conjunction;
    use xsltdb_relstore::pubexpr::SqlXmlQuery;
    use xsltdb_relstore::XmlView;
    use xsltdb_structinfo::struct_of_view;
    use xsltdb_xquery::parse_query;

    /// A small single-table view: <r><a>col a</a><items><i><v>col v</v></i>*</items></r>
    fn view_info() -> StructInfo {
        let view = XmlView::new(
            "vu",
            SqlXmlQuery {
                base_table: "base".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem(
                    "r",
                    vec![
                        PubExpr::elem("a", vec![PubExpr::col("base", "a")]),
                        PubExpr::elem(
                            "items",
                            vec![PubExpr::Agg {
                                table: "item".into(),
                                predicate: vec![AggPredTerm::Correlate {
                                    inner_column: "rid".into(),
                                    outer_table: "base".into(),
                                    outer_column: "id".into(),
                                }],
                                order_by: Vec::new(),
                                limit: None,
                                body: Box::new(PubExpr::elem(
                                    "i",
                                    vec![PubExpr::elem("v", vec![PubExpr::col("item", "v")])],
                                )),
                            }],
                        ),
                    ],
                ),
            },
        );
        struct_of_view(&view).unwrap()
    }

    fn rewrite_src(src: &str) -> Result<SqlXmlQuery, RewriteError> {
        let q = parse_query(src).unwrap();
        rewrite_to_sql(&q, &view_info())
    }

    #[test]
    fn scalar_path_becomes_column() {
        let sql = rewrite_src(
            "declare variable $var000 := .; <o>{fn:string($var000/r/a)}</o>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Element { children, .. } => {
                assert_eq!(children[0], PubExpr::col("base", "a"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn canonical_info_yields_slot_named_sql() {
        // The same rewrite over *canonicalised* structure emits the SQL the
        // plan cache actually stores: tables are binding slots, not names.
        let (canon, template) = xsltdb_structinfo::canonicalize(&view_info());
        let q = parse_query(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i return <x>{fn:string($i/v)}</x>",
        )
        .unwrap();
        let sql = rewrite_to_sql(&q, &canon.info).unwrap();
        assert_eq!(sql.base_table, "$t0");
        match &sql.select {
            PubExpr::Agg { table, predicate, .. } => {
                assert_eq!(table, "$t1");
                assert!(predicate.iter().any(|t| matches!(
                    t,
                    AggPredTerm::Correlate { outer_table, .. } if outer_table == "$t0"
                )));
            }
            other => panic!("{other:?}"),
        }
        // The binding template maps the slots back to the concrete tables.
        assert_eq!(template.tables, vec!["base".to_string(), "item".to_string()]);
    }

    #[test]
    fn for_over_many_becomes_agg_with_predicate() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i[v > 5] return <x>{fn:string($i/v)}</x>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Agg { table, predicate, .. } => {
                assert_eq!(table, "item");
                // correlation + residual value predicate
                assert_eq!(predicate.len(), 2);
                assert!(predicate.iter().any(|t| matches!(
                    t,
                    AggPredTerm::Const(c) if c.column == "v" && c.op == CmpOp::Gt
                )));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn count_and_sum_become_scalar_aggs() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             <s><c>{fn:count($var000/r/items/i)}</c><t>{fn:sum($var000/r/items/i/v)}</t></s>",
        )
        .unwrap();
        let text = xsltdb_relstore::sql_text(&SqlXmlQuery {
            base_table: sql.base_table.clone(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: sql.select.clone(),
        });
        assert!(text.contains("count(*)"), "{text}");
        assert!(text.contains("sum(V)"), "{text}");
    }

    #[test]
    fn conditional_becomes_case() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i return \
             (if ($i/v > 10) then <big/> else <small/>)",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Agg { body, .. } => {
                assert!(matches!(**body, PubExpr::Case { .. }), "{body:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_clause_becomes_predicate() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i where $i/v = 3 return <x/>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Agg { predicate, .. } => {
                assert!(predicate.iter().any(|t| matches!(
                    t,
                    AggPredTerm::Const(c) if c.column == "v" && c.op == CmpOp::Eq
                )));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_maps_to_agg_order() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i order by $i/v descending return <x/>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Agg { order_by, .. } => {
                assert_eq!(order_by.len(), 1);
                assert_eq!(order_by[0].column, "v");
                assert!(order_by[0].descending);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn functions_are_rejected() {
        let q = parse_query(
            "declare variable $var000 := .; \
             declare function local:f($n) { $n }; local:f($var000)",
        )
        .unwrap();
        assert!(rewrite_to_sql(&q, &view_info()).is_err());
    }

    #[test]
    fn unknown_child_is_rejected() {
        assert!(rewrite_src(
            "declare variable $var000 := .; fn:string($var000/r/nonexistent)"
        )
        .is_err());
    }

    #[test]
    fn wrong_root_is_rejected() {
        assert!(rewrite_src(
            "declare variable $var000 := .; fn:string($var000/other/a)"
        )
        .is_err());
    }

    #[test]
    fn non_view_origin_rejected() {
        let q = parse_query("declare variable $var000 := .; <a/>").unwrap();
        let mut info = view_info();
        info.origin = Origin::Dtd;
        assert!(rewrite_to_sql(&q, &info).is_err());
    }

    #[test]
    fn concat_becomes_strconcat() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             <o>{fn:concat(\"x: \", fn:string($var000/r/a))}</o>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Element { children, .. } => {
                assert!(matches!(children[0], PubExpr::StrConcat(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn flipped_comparison_normalised() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             for $i in $var000/r/items/i[10 > v] return <x/>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Agg { predicate, .. } => {
                assert!(predicate.iter().any(|t| matches!(
                    t,
                    AggPredTerm::Const(c) if c.column == "v" && c.op == CmpOp::Lt
                )));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_binding_resolves() {
        let sql = rewrite_src(
            "declare variable $var000 := .; \
             let $r := $var000/r return <o>{fn:string($r/a)}</o>",
        )
        .unwrap();
        match &sql.select {
            PubExpr::Element { children, .. } => {
                assert_eq!(children[0], PubExpr::col("base", "a"));
            }
            other => panic!("{other:?}"),
        }
    }
}
