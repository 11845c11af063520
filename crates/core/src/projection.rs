//! Static input projection for the XQuery tier: Marian & Siméon's
//! *Projecting XML Documents* (VLDB 2003), applied to a publishing view.
//!
//! The XQuery tier used to materialise the whole view before evaluating
//! the rewritten query over it. The view's structure is finite and known,
//! so the query can be interpreted abstractly against it, once per plan,
//! to find the nodes it can reach; the view's SQL/XML query is then pruned
//! to publish only those, and an `XMLAgg` whose rows the query reads only
//! as `row[k]` stops after its `k`-th row.
//!
//! * An abstract value is a set of **node classes**: the document node, an
//!   element declaration, a declaration's text, or its attributes.
//! * A path step maps one set to the next and keeps nothing by itself.
//! * A set is *kept* when it is consumed. Existence uses (a `for` source,
//!   `count`/`exists`/`empty`, an effective boolean value, `instance of`,
//!   `fn:name`) keep the nodes without their content; atomisation and
//!   copying into a constructor keep whole subtrees. Keeping a node keeps
//!   its ancestors.
//! * `if ($v instance of …)` (and `or`s of such tests) narrows `$v` in each
//!   branch. Function parameters are summarised per function, as the
//!   union over call sites, iterated to a fixpoint.
//! * A repeated declaration gets a row limit `k` only when every step that
//!   reaches it is a named child step whose first predicate is the integer
//!   literal `k` (the largest such `k` wins).
//!
//! Anything not modelled — reverse or sibling axes, a node flowing into an
//! unknown function, a prefixed name test, a positional filter over input
//! nodes — yields [`Projection::Full`]: today's whole view.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt::{self, Write};
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::XmlView;
use xsltdb_structinfo::{ElemDecl, Origin, StructInfo};
use xsltdb_xpath::{Axis, NodeTest};
use xsltdb_xquery::ast::walk_exprs;
use xsltdb_xquery::{AttrValuePart, Clause, PathStart, SeqType, XQuery, XqExpr, XqStep};

/// What the XQuery tier materialises of one element declaration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Kept {
    /// The element itself (with its attributes).
    pub element: bool,
    /// Its text content.
    pub text: bool,
    /// For a repeated declaration: how many rows its `XMLAgg` publishes
    /// (`None`: all of them).
    pub limit: Option<usize>,
}

/// The part of a view the XQuery tier materialises for one plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// The whole view.
    Full,
    /// Per element declaration, in document order, what to keep; `shape`
    /// is the [`Display`](fmt::Display) form.
    Pruned { kept: Vec<Kept>, shape: String },
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::Full => f.write_str("full"),
            Projection::Pruned { shape, .. } => f.write_str(shape),
        }
    }
}

impl Projection {
    /// Analyse `query` against the view structure `info` (canonical or
    /// not: only element names and shape matter).
    pub fn of_query(query: &XQuery, info: &StructInfo) -> Projection {
        if !matches!(info.origin, Origin::View { .. }) {
            return Projection::Full;
        }
        Analysis::new(info, query)
            .and_then(|a| a.run(query))
            .unwrap_or(Projection::Full)
    }

    /// Heap bytes this projection holds (for the plan cache's cost model).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            Projection::Full => 0,
            Projection::Pruned { kept, shape } => {
                64 + kept.len() * std::mem::size_of::<Kept>() + shape.len()
            }
        }
    }

    /// The view to materialise: `view` itself when nothing is pruned,
    /// otherwise a copy whose query publishes only the kept nodes and
    /// stops each limited `XMLAgg` early. The view's own `WHERE` and
    /// `ORDER BY` stay. A view whose shape does not line up with the
    /// projection (it cannot, once bound by fingerprint) stays whole.
    pub fn apply<'v>(&self, view: &'v XmlView) -> Cow<'v, XmlView> {
        let Projection::Pruned { kept, .. } = self else {
            return Cow::Borrowed(view);
        };
        let mut next = 0;
        match prune_elem(&view.query.select, kept, &mut next) {
            Some(select) if next == kept.len() => Cow::Owned(XmlView {
                name: view.name.clone(),
                query: SqlXmlQuery {
                    base_table: view.query.base_table.clone(),
                    where_clause: view.query.where_clause.clone(),
                    order_by: view.query.order_by.clone(),
                    select,
                },
            }),
            _ => Cow::Borrowed(view),
        }
    }
}

/// Prune one `XMLElement` (declaration `*next`) and its subtree; `None`
/// when the expression does not have the shape the structure records.
fn prune_elem(e: &PubExpr, kept: &[Kept], next: &mut usize) -> Option<PubExpr> {
    let PubExpr::Element {
        name,
        attrs,
        children,
    } = e
    else {
        return None;
    };
    let own = *kept.get(*next)?;
    *next += 1;
    let mut out = Vec::new();
    prune_children(children, own, kept, next, &mut out)?;
    Some(PubExpr::Element {
        name: name.clone(),
        attrs: attrs.clone(),
        children: out,
    })
}

fn prune_children(
    children: &[PubExpr],
    own: Kept,
    kept: &[Kept],
    next: &mut usize,
    out: &mut Vec<PubExpr>,
) -> Option<()> {
    for c in children {
        let at = *next;
        match c {
            PubExpr::Element { .. } => {
                let pruned = prune_elem(c, kept, next)?;
                if kept.get(at)?.element {
                    out.push(pruned);
                }
            }
            PubExpr::Concat(inner) => prune_children(inner, own, kept, next, out)?,
            // A derivable view declares no limit of its own.
            PubExpr::Agg {
                table,
                predicate,
                order_by,
                body,
                ..
            } => {
                let pruned = prune_elem(body, kept, next)?;
                let k = *kept.get(at)?;
                if k.element {
                    out.push(PubExpr::Agg {
                        table: table.clone(),
                        predicate: predicate.clone(),
                        order_by: order_by.clone(),
                        limit: k.limit,
                        body: Box::new(pruned),
                    });
                }
            }
            // Everything else a view element holds is its text.
            _ if own.text => out.push(c.clone()),
            _ => {}
        }
    }
    Some(())
}

// ---- the abstract domain ---------------------------------------------------

/// A set of node classes: bit 0 is the document node; declaration `i`
/// owns bits `1 + 3i` (element), `2 + 3i` (text) and `3 + 3i`
/// (attributes). Views with more declarations than fit are not modelled.
type Set = u128;
const MAX_DECLS: usize = 42;
const DOC: Set = 1;
/// Fixpoint rounds before the analysis gives up.
const MAX_ROUNDS: usize = 32;

fn elem(i: usize) -> Set {
    1 << (1 + 3 * i)
}
fn text(i: usize) -> Set {
    1 << (2 + 3 * i)
}
fn attr(i: usize) -> Set {
    1 << (3 + 3 * i)
}

/// The declarations whose class of kind `kind` (0 element, 1 text,
/// 2 attributes) is in `s`.
fn decls_in(s: Set, kind: u32) -> impl Iterator<Item = usize> {
    let mut rest = s & !DOC;
    std::iter::from_fn(move || {
        while rest != 0 {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            if (bit - 1) % 3 == kind {
                return Some(((bit - 1) / 3) as usize);
            }
        }
        None
    })
}

/// An abstract value: the input node classes it may hold, and whether it
/// holds at most one item (`for` variables do), which is what makes the
/// `else` branch of an `instance of` test narrow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Val {
    nodes: Set,
    single: bool,
}

const ATOM: Val = Val {
    nodes: 0,
    single: false,
};

impl Val {
    fn one(nodes: Set) -> Val {
        Val {
            nodes,
            single: true,
        }
    }
    fn join(self, other: Val) -> Val {
        Val {
            nodes: self.nodes | other.nodes,
            single: self.single && other.single,
        }
    }
}

/// The query does something the analysis does not model.
struct Unmodelled;

type R<T> = Result<T, Unmodelled>;

/// How the steps reaching a repeated declaration select its rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reach {
    Unreached,
    Limited(usize),
    Unlimited,
}

impl Reach {
    fn join(self, other: Reach) -> Reach {
        match (self, other) {
            (Reach::Unreached, r) | (r, Reach::Unreached) => r,
            (Reach::Limited(a), Reach::Limited(b)) => Reach::Limited(a.max(b)),
            _ => Reach::Unlimited,
        }
    }
}

struct Decl<'s> {
    decl: &'s ElemDecl,
    parent: Option<usize>,
    many: bool,
    /// Element classes of the children.
    children: Set,
    /// Every class strictly below the element, its own text and
    /// attributes included.
    below: Set,
    reach: Reach,
}

struct Analysis<'s, 'q> {
    decls: Vec<Decl<'s>>,
    all_elems: Set,
    all_texts: Set,
    all_attrs: Set,
    /// Classes kept without their content, and kept whole.
    kept: Set,
    deep: Set,
    /// Function name → its index in the prolog.
    functions: HashMap<&'q str, usize>,
    /// Per function: the join of its arguments over all call sites
    /// (`None` until it is called), and of its results.
    params: Vec<Option<Vec<Val>>>,
    returns: Vec<Val>,
    /// Per function: already analysed in this round, so a summary that
    /// grows now needs another round.
    passed: Vec<bool>,
    changed: bool,
    /// The variables in scope, innermost last.
    vars: Vec<(&'q str, Val)>,
}

impl<'s, 'q> Analysis<'s, 'q> {
    fn new(info: &'s StructInfo, query: &'q XQuery) -> R<Self> {
        let mut a = Analysis {
            decls: Vec::with_capacity(info.root.decl_count()),
            all_elems: 0,
            all_texts: 0,
            all_attrs: 0,
            kept: 0,
            deep: 0,
            functions: query
                .functions
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.as_str(), i))
                .collect(),
            params: vec![None; query.functions.len()],
            returns: vec![ATOM; query.functions.len()],
            passed: vec![false; query.functions.len()],
            changed: false,
            vars: Vec::with_capacity(16),
        };
        a.flatten(&info.root, None, false)?;
        for (i, d) in a.decls.iter().enumerate() {
            a.all_elems |= elem(i);
            a.all_attrs |= attr(i);
            if d.decl.has_text {
                a.all_texts |= text(i);
            }
        }
        Ok(a)
    }

    /// Number the declarations in document order (the order the view's
    /// publishing expression constructs them in).
    fn flatten(&mut self, d: &'s ElemDecl, parent: Option<usize>, many: bool) -> R<Set> {
        let i = self.decls.len();
        if i >= MAX_DECLS {
            return Err(Unmodelled);
        }
        self.decls.push(Decl {
            decl: d,
            parent,
            many,
            children: 0,
            below: 0,
            reach: Reach::Unreached,
        });
        let mut below = text(i) | attr(i);
        let mut children = 0;
        for c in &d.children {
            let j = self.decls.len();
            children |= elem(j);
            below |= elem(j) | self.flatten(&c.decl, Some(i), c.card.is_many())?;
        }
        self.decls[i].children = children;
        self.decls[i].below = below;
        Ok(below)
    }

    fn run(mut self, query: &'q XQuery) -> R<Projection> {
        for _ in 0..MAX_ROUNDS {
            self.changed = false;
            self.passed.fill(false);
            let doc = Some(Val::one(DOC));
            self.vars.clear();
            for v in &query.variables {
                let val = self.expr(&v.value, doc)?;
                self.vars.push((v.name.as_str(), val));
            }
            // The query's result is serialised: a copy.
            let body = self.expr(&query.body, doc)?;
            self.deep |= body.nodes;
            for (i, f) in query.functions.iter().enumerate() {
                self.passed[i] = true;
                let Some(args) = &self.params[i] else {
                    continue;
                };
                // A function sees its parameters and no context item.
                self.vars.clear();
                self.vars.extend(
                    f.params
                        .iter()
                        .map(String::as_str)
                        .zip(args.iter().copied()),
                );
                let r = self.expr(&f.body, None)?;
                let new = self.returns[i].join(r);
                self.changed |= new != self.returns[i];
                self.returns[i] = new;
            }
            if !self.changed {
                return Ok(self.finish());
            }
        }
        Err(Unmodelled)
    }

    /// Analyse `es` and keep what they hold: with its content (`deep`,
    /// for atomisation and copies) or without (existence uses).
    fn consume(
        &mut self,
        es: impl IntoIterator<Item = &'q XqExpr>,
        ctx: Option<Val>,
        deep: bool,
    ) -> R<Val> {
        for e in es {
            let v = self.expr(e, ctx)?;
            *(if deep { &mut self.deep } else { &mut self.kept }) |= v.nodes;
        }
        Ok(ATOM)
    }

    fn var(&self, name: &str) -> R<Val> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or(Unmodelled)
    }

    /// Analyse `e` with context item `ctx` (`None` in function bodies).
    fn expr(&mut self, e: &'q XqExpr, ctx: Option<Val>) -> R<Val> {
        Ok(match e {
            XqExpr::StrLit(_) | XqExpr::NumLit(_) | XqExpr::TextContent(_) | XqExpr::Empty => ATOM,
            XqExpr::VarRef(v) => self.var(v)?,
            XqExpr::ContextItem => ctx.ok_or(Unmodelled)?,
            XqExpr::Annotated { expr, .. } => self.expr(expr, ctx)?,
            XqExpr::Seq(es) => {
                let mut acc = Val::one(0);
                for x in es {
                    acc = acc.join(self.expr(x, ctx)?);
                }
                Val {
                    nodes: acc.nodes,
                    single: acc.single && es.len() == 1,
                }
            }
            XqExpr::Union(a, b) => {
                let v = self.expr(a, ctx)?.join(self.expr(b, ctx)?);
                Val {
                    nodes: v.nodes,
                    single: false,
                }
            }
            XqExpr::Or(a, b) | XqExpr::And(a, b) => self.consume([&**a, &**b], ctx, false)?,
            XqExpr::InstanceOf(a, _) => self.consume([&**a], ctx, false)?,
            XqExpr::Compare(_, a, b)
            | XqExpr::Arith(_, a, b)
            | XqExpr::CompElem {
                name: a,
                content: b,
            }
            | XqExpr::CompAttr { name: a, value: b } => self.consume([&**a, &**b], ctx, true)?,
            XqExpr::Neg(a)
            | XqExpr::CompText(a)
            | XqExpr::CompComment(a)
            | XqExpr::CompPi { content: a, .. } => self.consume([&**a], ctx, true)?,
            XqExpr::DirectElem { attrs, content, .. } => {
                let parts = attrs
                    .iter()
                    .flat_map(|(_, parts)| parts)
                    .filter_map(|p| match p {
                        AttrValuePart::Expr(x) => Some(x),
                        AttrValuePart::Text(_) => None,
                    });
                self.consume(parts.chain(content), ctx, true)?
            }
            XqExpr::If { cond, then, els } => {
                self.consume([&**cond], ctx, false)?;
                let (t, f) = match self.narrowing(cond) {
                    Some((var, some, all)) => {
                        let v = self.var(var)?;
                        let others = if v.single { v.nodes & !all } else { v.nodes };
                        let t = self.narrowed(
                            var,
                            Val {
                                nodes: v.nodes & some,
                                ..v
                            },
                            then,
                            ctx,
                        )?;
                        (t, self.narrowed(var, Val { nodes: others, ..v }, els, ctx)?)
                    }
                    None => (self.expr(then, ctx)?, self.expr(els, ctx)?),
                };
                Val {
                    nodes: t.nodes | f.nodes,
                    single: false,
                }
            }
            XqExpr::Flwor {
                clauses,
                where_clause,
                order_by,
                ret,
            } => {
                let scope = self.vars.len();
                let mut iterates = false;
                for c in clauses {
                    match c {
                        Clause::For { var, at, source } => {
                            let src = self.expr(source, ctx)?;
                            self.kept |= src.nodes;
                            self.vars.push((var.as_str(), Val::one(src.nodes)));
                            if let Some(p) = at {
                                self.vars.push((p.as_str(), ATOM));
                            }
                            iterates = true;
                        }
                        Clause::Let { var, value } => {
                            let v = self.expr(value, ctx)?;
                            self.vars.push((var.as_str(), v));
                        }
                    }
                }
                self.consume(where_clause.as_deref(), ctx, false)?;
                self.consume(order_by.iter().map(|o| &o.key), ctx, true)?;
                let r = self.expr(ret, ctx)?;
                self.vars.truncate(scope);
                Val {
                    nodes: r.nodes,
                    single: r.single && !iterates,
                }
            }
            XqExpr::Filter { base, predicates } => {
                let b = self.expr(base, ctx)?;
                for p in predicates {
                    if b.nodes != 0 && positional(p) {
                        return Err(Unmodelled);
                    }
                    self.consume([p], Some(Val::one(b.nodes)), false)?;
                }
                b
            }
            XqExpr::Path { start, steps } => {
                let mut cur = match start {
                    PathStart::Root => {
                        ctx.ok_or(Unmodelled)?;
                        Val::one(DOC)
                    }
                    PathStart::Context => ctx.ok_or(Unmodelled)?,
                    PathStart::Expr(x) => self.expr(x, ctx)?,
                };
                for s in steps {
                    cur = Val {
                        nodes: self.step(cur.nodes, s)?,
                        single: false,
                    };
                }
                cur
            }
            XqExpr::Call { name, args } => self.call(name, args, ctx)?,
        })
    }

    /// Analyse `e` with `var` rebound to `v`.
    fn narrowed(&mut self, var: &'q str, v: Val, e: &'q XqExpr, ctx: Option<Val>) -> R<Val> {
        self.vars.push((var, v));
        let r = self.expr(e, ctx);
        self.vars.pop();
        r
    }

    fn call(&mut self, name: &'q str, args: &'q [XqExpr], ctx: Option<Val>) -> R<Val> {
        if let Some(&f) = self.functions.get(name) {
            // A summary that grows after its function was analysed in this
            // round (a first call included) calls for another round.
            if self.params[f].is_none() {
                self.params[f] = Some(vec![Val::one(0); args.len()]);
                self.changed |= self.passed[f];
            }
            for (i, a) in args.iter().enumerate() {
                let v = self.expr(a, ctx)?;
                let s = self.params[f]
                    .as_mut()
                    .and_then(|s| s.get_mut(i))
                    .ok_or(Unmodelled)?;
                let joined = s.join(v);
                self.changed |= joined != *s && self.passed[f];
                *s = joined;
            }
            return Ok(self.returns[f]);
        }
        let mut nodes = 0;
        for a in args {
            nodes |= self.expr(a, ctx)?.nodes;
        }
        let plain = name.strip_prefix("fn:").unwrap_or(name);
        let whole = match plain {
            "count" | "exists" | "empty" | "not" | "boolean" | "name" | "local-name" | "true"
            | "false" | "position" | "last" => false,
            "string" | "data" | "concat" | "string-join" | "sum" | "avg" | "min" | "max"
            | "number" | "floor" | "ceiling" | "round" | "contains" | "starts-with"
            | "substring-before" | "substring-after" | "substring" | "string-length"
            | "normalize-space" | "translate" | "upper-case" | "lower-case" | "distinct-values" => {
                true
            }
            _ if nodes == 0 => return Ok(ATOM),
            _ => return Err(Unmodelled),
        };
        // A zero-argument form reads the context item.
        if args.is_empty() {
            nodes = ctx.map_or(0, |c| c.nodes);
        }
        *(if whole {
            &mut self.deep
        } else {
            &mut self.kept
        }) |= nodes;
        Ok(ATOM)
    }

    /// The classes one axis step reaches from `from`. Predicates are
    /// analysed with the step's classes as context; a positional one keeps
    /// every candidate, so each keeps its position.
    fn step(&mut self, from: Set, s: &'q XqStep) -> R<Set> {
        let cand = match s.axis {
            Axis::Child => self.children(from) & self.node_test(&s.test)?,
            Axis::SelfAxis => from & self.node_test(&s.test)?,
            Axis::Descendant | Axis::DescendantOrSelf => {
                let below = self.descendants(from);
                // Descendant steps see every row of every aggregate below.
                for i in decls_in(below, 0) {
                    self.decls[i].reach = Reach::Unlimited;
                }
                let reached = if s.axis == Axis::Descendant {
                    below
                } else {
                    below | from
                };
                reached & self.node_test(&s.test)?
            }
            Axis::Attribute => {
                let mut attrs = 0;
                for i in decls_in(from, 0) {
                    if self.attr_matches(i, &s.test)? {
                        attrs |= attr(i);
                    }
                }
                attrs
            }
            _ => return Err(Unmodelled),
        };
        if s.axis == Axis::Child {
            let named = matches!(s.test, NodeTest::Name { .. });
            let k = s.predicates.first().and_then(int_literal);
            for i in decls_in(cand, 0) {
                if self.decls[i].many {
                    let r = match k {
                        Some(k) if named => Reach::Limited(k),
                        _ => Reach::Unlimited,
                    };
                    self.decls[i].reach = self.decls[i].reach.join(r);
                }
            }
        }
        for p in &s.predicates {
            if positional(p) {
                self.kept |= cand;
            }
            self.consume([p], Some(Val::one(cand)), false)?;
        }
        Ok(cand)
    }

    /// Element and text children (the root element for the document).
    fn children(&self, from: Set) -> Set {
        let mut out = if from & DOC != 0 { elem(0) } else { 0 };
        for i in decls_in(from, 0) {
            out |= self.decls[i].children | (text(i) & self.all_texts);
        }
        out
    }

    fn descendants(&self, from: Set) -> Set {
        let mut out = if from & DOC != 0 {
            elem(0) | self.decls[0].below
        } else {
            0
        };
        for i in decls_in(from, 0) {
            out |= self.decls[i].below;
        }
        out & (self.all_elems | self.all_texts)
    }

    /// The classes a node test admits on an element-principal axis.
    fn node_test(&self, t: &NodeTest) -> R<Set> {
        Ok(match t {
            NodeTest::Name {
                prefix: None,
                local,
            } => self.named(local),
            NodeTest::Name { .. } | NodeTest::PrefixStar(_) => return Err(Unmodelled),
            NodeTest::Star => self.all_elems,
            NodeTest::Text => self.all_texts,
            NodeTest::Node => DOC | self.all_elems | self.all_texts | self.all_attrs,
            NodeTest::Comment | NodeTest::Pi(_) => 0,
        })
    }

    fn named(&self, local: &str) -> Set {
        self.decls
            .iter()
            .enumerate()
            .filter(|(_, d)| d.decl.name == local)
            .fold(0, |s, (i, _)| s | elem(i))
    }

    fn attr_matches(&self, i: usize, t: &NodeTest) -> R<bool> {
        let attrs = &self.decls[i].decl.attributes;
        Ok(match t {
            NodeTest::Name {
                prefix: None,
                local,
            } => attrs.iter().any(|a| a == local),
            NodeTest::Star | NodeTest::Node => !attrs.is_empty(),
            NodeTest::Name { .. } | NodeTest::PrefixStar(_) => return Err(Unmodelled),
            _ => false,
        })
    }

    /// For `$v instance of T` (or an `or` of such tests on one variable):
    /// the variable, the classes of which *some* instance passes, and the
    /// classes of which *every* instance passes.
    fn narrowing(&self, cond: &'q XqExpr) -> Option<(&'q str, Set, Set)> {
        match cond.unannotated() {
            XqExpr::Seq(es) if es.len() == 1 => self.narrowing(&es[0]),
            XqExpr::Or(a, b) => {
                let (va, sa, aa) = self.narrowing(a)?;
                let (vb, sb, ab) = self.narrowing(b)?;
                (va == vb).then_some((va, sa | sb, aa | ab))
            }
            XqExpr::InstanceOf(v, t) => {
                let XqExpr::VarRef(var) = v.unannotated() else {
                    return None;
                };
                let (some, all) = match t {
                    SeqType::Element(None) => (self.all_elems, self.all_elems),
                    SeqType::Element(Some(n)) if !n.contains(':') => (self.named(n), self.named(n)),
                    // One class holds all of an element's attributes, so
                    // a named test cannot narrow the `else` branch.
                    SeqType::Element(Some(_)) | SeqType::Attribute(Some(_)) => {
                        (self.all_elems | self.all_attrs, 0)
                    }
                    SeqType::Attribute(None) => (self.all_attrs, self.all_attrs),
                    SeqType::Text => (self.all_texts, self.all_texts),
                    SeqType::Node | SeqType::Item => (Set::MAX, Set::MAX),
                };
                Some((var.as_str(), some, all))
            }
            _ => None,
        }
    }

    /// Close the kept sets (subtrees, attributes and text imply their
    /// element, elements imply their ancestors) and read off the result.
    fn finish(mut self) -> Projection {
        if self.deep & DOC != 0 {
            return Projection::Full;
        }
        let mut kept = self.kept | self.deep;
        for i in decls_in(self.deep, 0) {
            kept |= self.decls[i].below;
            for j in decls_in(self.decls[i].below, 0) {
                self.decls[j].reach = Reach::Unlimited;
            }
        }
        for i in decls_in(kept & self.all_texts, 1) {
            // Text between element children stays separated by them.
            if self.decls[i].children != 0 {
                kept |= self.decls[i].children;
                for j in decls_in(self.decls[i].children, 0) {
                    self.decls[j].reach = Reach::Unlimited;
                }
            }
        }
        kept |= elem(0);
        // Parents precede their children, so one backward pass carries
        // every kept class up to the root.
        for (i, d) in self.decls.iter().enumerate().rev() {
            if kept & (elem(i) | text(i) | attr(i)) != 0 {
                kept |= elem(i) | d.parent.map_or(0, elem);
            }
        }
        let result: Vec<Kept> = (0..self.decls.len())
            .map(|i| Kept {
                element: kept & elem(i) != 0,
                text: kept & text(i) != 0 && self.decls[i].decl.has_text,
                limit: match self.decls[i].reach {
                    Reach::Limited(k) if self.decls[i].many => Some(k),
                    _ => None,
                },
            })
            .collect();
        let whole = result
            .iter()
            .zip(&self.decls)
            .all(|(k, d)| k.element && (k.text || !d.decl.has_text) && k.limit.is_none());
        if whole {
            return Projection::Full;
        }
        let mut shape = String::with_capacity(64);
        render(&self.decls, &result, 0, &mut shape);
        Projection::Pruned {
            kept: result,
            shape,
        }
    }
}

/// `name[..k]{children}`: a leaf whose text is dropped shows as `name{}`.
fn render(decls: &[Decl], kept: &[Kept], i: usize, out: &mut String) {
    let d = decls[i].decl;
    out.push_str(&d.name);
    if let Some(k) = kept[i].limit {
        let _ = write!(out, "[..{k}]");
    }
    if d.children.is_empty() {
        if d.has_text && !kept[i].text {
            out.push_str("{}");
        }
        return;
    }
    out.push('{');
    let mut first = true;
    for j in decls_in(decls[i].children, 0).filter(|&j| kept[j].element) {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        render(decls, kept, j, out);
    }
    if kept[i].text {
        out.push_str(if first { "text()" } else { ",text()" });
    }
    out.push('}');
}

/// `k` when `p` is the integer literal `k ≥ 1`.
fn int_literal(p: &XqExpr) -> Option<usize> {
    match p.unannotated() {
        XqExpr::NumLit(n) if *n >= 1.0 && n.fract() == 0.0 && *n <= 1e9 => Some(*n as usize),
        _ => None,
    }
}

/// Whether a predicate may select by position: it may evaluate to a
/// number, or reads `position()` / `last()` anywhere inside.
fn positional(p: &XqExpr) -> bool {
    let mut reads_position = false;
    walk_exprs(p, &mut |e| {
        if let XqExpr::Call { name, .. } = e {
            let plain = name.strip_prefix("fn:").unwrap_or(name);
            reads_position |= plain == "position" || plain == "last";
        }
    });
    reads_position || may_be_numeric(p)
}

fn may_be_numeric(e: &XqExpr) -> bool {
    match e {
        XqExpr::Path {
            start: PathStart::Expr(b),
            steps,
        } if steps.is_empty() => may_be_numeric(b),
        XqExpr::Annotated { expr, .. } => may_be_numeric(expr),
        XqExpr::If { then, els, .. } => may_be_numeric(then) || may_be_numeric(els),
        XqExpr::Seq(es) => es.iter().any(may_be_numeric),
        XqExpr::Call { name, .. } => !matches!(
            name.strip_prefix("fn:").unwrap_or(name),
            "not"
                | "exists"
                | "empty"
                | "boolean"
                | "true"
                | "false"
                | "contains"
                | "starts-with"
                | "string"
                | "concat"
                | "name"
                | "local-name"
                | "normalize-space"
                | "substring"
                | "substring-before"
                | "substring-after"
                | "translate"
                | "string-join"
                | "upper-case"
                | "lower-case"
        ),
        // Booleans, strings, nodes and constructed nodes.
        XqExpr::Compare(..)
        | XqExpr::And(..)
        | XqExpr::Or(..)
        | XqExpr::InstanceOf(..)
        | XqExpr::StrLit(_)
        | XqExpr::TextContent(_)
        | XqExpr::Union(..)
        | XqExpr::Path { .. }
        | XqExpr::DirectElem { .. }
        | XqExpr::CompElem { .. }
        | XqExpr::CompAttr { .. }
        | XqExpr::CompText(_)
        | XqExpr::CompComment(_)
        | XqExpr::CompPi { .. }
        | XqExpr::Empty => false,
        _ => true,
    }
}
