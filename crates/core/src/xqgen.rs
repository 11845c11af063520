//! XQuery generation from the template execution graph (paper §4.4) with
//! the optimisations of §3.3–3.7, plus the *straightforward* translation of
//! Fokoue et al. \[9\] used when no structural information is available (and
//! as an ablation baseline).
//!
//! One body translator (`OpGen`) turns every XSLT instruction into XQuery
//! the same way in every mode. The modes differ only in how a template is
//! invoked (`Invoke`), the two ways of §4.4:
//!
//! * **Inline** ("inline mode"): the execution graph is acyclic; every
//!   `xsl:apply-templates` / `xsl:call-template` expands the traced target
//!   template at its call site. Uses model-group specialisation (§3.4),
//!   FOR/LET cardinality selection (§3.4), residual pattern predicates
//!   (Tables 18/19), dead-template removal (§3.7) and built-in-only
//!   compaction (§3.6).
//! * **Functions** ("non-inline mode"): one XQuery function per
//!   *instantiated* template, called through a run-time pattern-matching
//!   chain. Used when the graph is recursive, when a select navigates
//!   where the trace cannot follow, or when inlining is switched off.
//! * **Straightforward** (\[9\]): function mode without structural
//!   information — every template is kept, and every dispatch keeps the
//!   backward parent-axis tests that §3.5 eliminates when structure is
//!   known.

use crate::error::RewriteError;
use crate::pe::{partial_evaluate, PeResult, StateId, Transition};
use crate::translate::{xpath_to_xq, CtxRef, XlatCtx};
use xsltdb_structinfo::{Cardinality, ElemDecl, ModelGroup, SampleDoc, SampleNode, StructInfo};
use xsltdb_xpath::pattern::{Link, PathPattern};
use xsltdb_xpath::{Axis, NodeTest};
use xsltdb_xquery::{
    Clause, FunctionDecl, OrderSpec, PathStart, SeqType, VarDecl, XQuery, XqExpr, XqStep,
};
use xsltdb_xslt::ast::{
    walk_ops, Op, SiteId, SortKey, Template, TemplateId, VarValueSource, WithParam,
};
use xsltdb_xslt::avt::{Avt, AvtPart};
use xsltdb_xslt::{Stylesheet, BUILTIN_SITE};

/// The variable bound to the input document in generated queries.
pub const ROOT_VAR: &str = "var000";
/// RTF variables are wrapped in this synthetic element so both
/// `xsl:value-of` (string value) and `xsl:copy-of` (children) work.
pub const RTF_WRAPPER: &str = "xdb-rtf";

/// Rewrite options — each flag corresponds to one optimisation from the
/// paper, so ablation benchmarks can disable them individually.
#[derive(Debug, Clone)]
pub struct RewriteOptions {
    /// §3.3 template instantiation inlining (off ⇒ function mode even for
    /// acyclic graphs).
    pub inline: bool,
    /// §3.4 children instantiation specialised by model group (off ⇒ the
    /// Table 12 `for … instance of` dispatch everywhere).
    pub use_model_groups: bool,
    /// §3.4 FOR/LET selection from cardinality (off ⇒ always FOR).
    pub use_cardinality: bool,
    /// §3.5 removal of backward-axis pattern tests (only observable in the
    /// function/straightforward modes, where patterns are tested at run
    /// time).
    pub remove_backward_steps: bool,
    /// §3.6 compact query when only built-in templates run.
    pub builtin_compaction: bool,
    /// §3.7 drop templates the trace never instantiates.
    pub remove_dead_templates: bool,
    /// Emit `(: <xsl:template …> :)` comments as in Table 8.
    pub annotate: bool,
}

impl Default for RewriteOptions {
    fn default() -> Self {
        RewriteOptions {
            inline: true,
            use_model_groups: true,
            use_cardinality: true,
            remove_backward_steps: true,
            builtin_compaction: true,
            remove_dead_templates: true,
            annotate: true,
        }
    }
}

/// Which generation strategy produced the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteMode {
    Inline,
    Functions,
    Straightforward,
}

/// The result of an XSLT→XQuery rewrite.
#[derive(Debug, Clone)]
pub struct RewriteOutcome {
    pub query: XQuery,
    pub mode: RewriteMode,
    /// Templates dropped by §3.7 (declared but never instantiated).
    pub removed_templates: usize,
    /// The execution graph contained a cycle.
    pub recursive: bool,
}

impl RewriteOutcome {
    /// The paper's §5 "inline" metric: a query with no function calls.
    pub fn fully_inlined(&self) -> bool {
        self.query.functions.is_empty()
    }
}

/// Rewrite a stylesheet into XQuery using structural information.
pub fn rewrite(
    sheet: &Stylesheet,
    info: &StructInfo,
    opts: &RewriteOptions,
) -> Result<RewriteOutcome, RewriteError> {
    match partial_evaluate(sheet, info) {
        Ok(pe) if !pe.graph.recursive && opts.inline && !sheet_uses_untraceable_axes(sheet) => {
            // Inline generation can still hit constructs it has no shape
            // for; degrade to functions.
            inline_generate(sheet, info, &pe, opts)
                .or_else(|_| functions_generate(sheet, Some(&pe), opts))
        }
        Ok(pe) => functions_generate(sheet, Some(&pe), opts),
        Err(_) => functions_generate(sheet, None, opts),
    }
}

/// Does any node-selecting expression of the stylesheet — an
/// apply-templates, for-each, variable, param or with-param select, local
/// or global — navigate upward or sideways? The sample document carries a
/// single instance per repeated element, so the trace never witnesses such
/// a selection: an inline site would trace nothing, and a template reached
/// only through one would look dead. When this holds, [`rewrite`] does not
/// inline and function mode keeps every template (its run-time dispatch
/// stays correct).
fn sheet_uses_untraceable_axes(sheet: &Stylesheet) -> bool {
    fn source_bad(v: &VarValueSource) -> bool {
        match v {
            VarValueSource::Select(e) => uses_untraceable_axes(e),
            VarValueSource::Body(body) => body_bad(body),
            VarValueSource::Empty => false,
        }
    }
    fn body_bad(body: &[Op]) -> bool {
        let mut bad = false;
        walk_ops(body, &mut |op| {
            bad |= match op {
                Op::ApplyTemplates { select, with_params, .. } => {
                    select.as_ref().is_some_and(uses_untraceable_axes)
                        || with_params.iter().any(|wp| source_bad(&wp.value))
                }
                Op::CallTemplate { with_params, .. } => {
                    with_params.iter().any(|wp| source_bad(&wp.value))
                }
                Op::ForEach { select, .. } => uses_untraceable_axes(select),
                Op::Variable { value: VarValueSource::Select(e), .. } => uses_untraceable_axes(e),
                _ => false,
            }
        });
        bad
    }
    sheet.global_vars.iter().any(|(_, v)| source_bad(v))
        || sheet
            .templates
            .iter()
            .any(|t| body_bad(&t.body) || t.params.iter().any(|(_, v)| source_bad(v)))
}

/// Does an XPath expression navigate upward or sideways?
fn uses_untraceable_axes(e: &xsltdb_xpath::Expr) -> bool {
    use xsltdb_xpath::Expr as XE;
    fn steps_bad(steps: &[xsltdb_xpath::Step]) -> bool {
        steps.iter().any(|s| {
            matches!(
                s.axis,
                Axis::Parent
                    | Axis::Ancestor
                    | Axis::AncestorOrSelf
                    | Axis::PrecedingSibling
                    | Axis::FollowingSibling
                    | Axis::Preceding
                    | Axis::Following
            ) || s.predicates.iter().any(uses_untraceable_axes)
        })
    }
    match e {
        XE::Path(p) => steps_bad(&p.steps),
        XE::Filter { primary, predicates, steps } => {
            uses_untraceable_axes(primary)
                || predicates.iter().any(uses_untraceable_axes)
                || steps_bad(steps)
        }
        XE::Binary(_, a, b) => uses_untraceable_axes(a) || uses_untraceable_axes(b),
        XE::Neg(a) => uses_untraceable_axes(a),
        XE::Call(_, args) => args.iter().any(uses_untraceable_axes),
        _ => false,
    }
}

/// The straightforward translation of \[9\]: no structural information, full
/// runtime dispatch.
pub fn rewrite_straightforward(sheet: &Stylesheet) -> Result<RewriteOutcome, RewriteError> {
    functions_generate(sheet, None, &RewriteOptions::default())
}

// --------------------------------------------------------------------------
// Shared helpers
// --------------------------------------------------------------------------

fn seq_of(items: Vec<XqExpr>) -> XqExpr {
    let mut items = finalize_sequence(items);
    match items.len() {
        0 => XqExpr::Empty,
        1 => items.pop().expect("one element"),
        _ => XqExpr::Seq(items),
    }
}

/// At sequence level (outside a direct constructor), literal text must be a
/// text *node*, not an atomic — adjacent atomics would be space-joined.
fn finalize_sequence(items: Vec<XqExpr>) -> Vec<XqExpr> {
    items
        .into_iter()
        .map(|i| match i {
            XqExpr::TextContent(t) => XqExpr::CompText(Box::new(XqExpr::StrLit(t))),
            other => other,
        })
        .collect()
}

fn avt_to_attr_parts(
    avt: &Avt,
    cx: &XlatCtx,
) -> Result<Vec<xsltdb_xquery::AttrValuePart>, RewriteError> {
    avt.0
        .iter()
        .map(|p| {
            Ok(match p {
                AvtPart::Text(t) => xsltdb_xquery::AttrValuePart::Text(t.clone()),
                AvtPart::Expr(e) => {
                    xsltdb_xquery::AttrValuePart::Expr(XqExpr::string_of(xpath_to_xq(e, cx)?))
                }
            })
        })
        .collect()
}

fn avt_to_string_expr(avt: &Avt, cx: &XlatCtx) -> Result<XqExpr, RewriteError> {
    if let Some(c) = avt.as_constant() {
        return Ok(XqExpr::StrLit(c));
    }
    let mut parts = Vec::new();
    for p in &avt.0 {
        parts.push(match p {
            AvtPart::Text(t) => XqExpr::StrLit(t.clone()),
            AvtPart::Expr(e) => XqExpr::string_of(xpath_to_xq(e, cx)?),
        });
    }
    if parts.len() == 1 {
        Ok(XqExpr::string_of(parts.pop().expect("one element")))
    } else {
        Ok(XqExpr::call("fn:concat", parts))
    }
}

/// Turn generated content items into a single string-valued expression (for
/// `xsl:attribute` content).
fn items_to_string_expr(items: Vec<XqExpr>) -> XqExpr {
    let mut parts: Vec<XqExpr> = items
        .into_iter()
        .map(|i| match i {
            XqExpr::TextContent(t) => XqExpr::StrLit(t),
            XqExpr::CompText(inner) => *inner,
            other => XqExpr::string_of(other),
        })
        .collect();
    match parts.len() {
        0 => XqExpr::StrLit(String::new()),
        1 => parts.pop().expect("one element"),
        _ => XqExpr::call("fn:concat", parts),
    }
}

/// `xsl:sort` keys become `order by` specs. The key's value carries its
/// data type: a `data-type="number"` key is wrapped in `fn:number`, and a
/// text key that is not a location path (whose atomized value is already
/// a string) in `fn:string`, since XSLT compares a text key as a string
/// whatever its value.
fn sorts_to_order_by(
    sorts: &[SortKey],
    var: &str,
    root_var: &str,
) -> Result<Vec<OrderSpec>, RewriteError> {
    sorts
        .iter()
        .map(|k| {
            let cx = XlatCtx::new(CtxRef::var(var), root_var);
            let key = xpath_to_xq(&k.select, &cx)?;
            let key = if k.data_type_number {
                XqExpr::call("fn:number", vec![key])
            } else if matches!(k.select, xsltdb_xpath::Expr::Path(_)) {
                key
            } else {
                XqExpr::string_of(key)
            };
            Ok(OrderSpec { key, descending: k.descending })
        })
        .collect()
}

/// Build the clause list for one iteration that may need positional
/// context: a `let` counting the node list first (so `last()` is evaluated
/// once per loop, not per row), then the `for`, with an `at` variable when
/// `position()` is used. XQuery `at` numbers the *input* sequence while
/// XSLT positions are post-sort, so a sorted positional loop wraps the
/// source in its own ordered FLWOR instead of using `order by` here.
/// Returns (clauses, order-by, position variable, count variable).
#[allow(clippy::type_complexity)]
fn iteration_clauses(
    fresh: &mut dyn FnMut() -> String,
    var: String,
    source: XqExpr,
    sorts: &[SortKey],
    uses_pos: bool,
    uses_last: bool,
) -> Result<(Vec<Clause>, Vec<OrderSpec>, Option<String>, Option<String>), RewriteError> {
    let mut clauses = Vec::new();
    let last_var = if uses_last {
        let lv = fresh();
        clauses.push(Clause::Let {
            var: lv.clone(),
            value: XqExpr::call("fn:count", vec![source.clone()]),
        });
        Some(lv)
    } else {
        None
    };
    let (source, order_by) = if uses_pos && !sorts.is_empty() {
        let sv = fresh();
        let ob = sorts_to_order_by(sorts, &sv, ROOT_VAR)?;
        (
            XqExpr::Flwor {
                clauses: vec![Clause::For { var: sv.clone(), at: None, source }],
                where_clause: None,
                order_by: ob,
                ret: Box::new(XqExpr::var(&sv)),
            },
            Vec::new(),
        )
    } else {
        let ob = sorts_to_order_by(sorts, &var, ROOT_VAR)?;
        (source, ob)
    };
    let pos_var = if uses_pos { Some(fresh()) } else { None };
    clauses.push(Clause::For { var, at: pos_var.clone(), source });
    Ok((clauses, order_by, pos_var, last_var))
}

/// Body-level `position()` / `last()` usage scan: decides whether an
/// iteration must bind `at`/count variables. Path-step and filter
/// predicates are skipped (predicates get the evaluator's own focus), and
/// so are `xsl:for-each` bodies (they rebind the position) — but for-each
/// *select* expressions count, as do call-template targets, which keep the
/// caller's position context.
fn ops_use_position(sheet: &Stylesheet, ops: &[Op]) -> (bool, bool) {
    let mut pos = false;
    let mut last = false;
    scan_ops(sheet, ops, 16, &mut pos, &mut last);
    (pos, last)
}

fn scan_ops(sheet: &Stylesheet, ops: &[Op], depth: usize, pos: &mut bool, last: &mut bool) {
    if depth == 0 {
        // Deep call-template chains: assume the worst — a spurious `at`
        // binding is harmless, a missing one is wrong.
        *pos = true;
        *last = true;
    }
    for op in ops {
        if *pos && *last {
            return;
        }
        match op {
            Op::Text(_) => {}
            Op::ValueOf(e) | Op::CopyOf(e) => scan_expr(e, pos, last),
            Op::LiteralElement { attrs, body, .. } => {
                for (_, avt) in attrs {
                    scan_avt(avt, pos, last);
                }
                scan_ops(sheet, body, depth, pos, last);
            }
            Op::Element { name, body } | Op::Pi { name, body } => {
                scan_avt(name, pos, last);
                scan_ops(sheet, body, depth, pos, last);
            }
            Op::Attribute { name, body } => {
                scan_avt(name, pos, last);
                scan_ops(sheet, body, depth, pos, last);
            }
            Op::Comment { body } | Op::Copy { body } | Op::Message { body } => {
                scan_ops(sheet, body, depth, pos, last);
            }
            Op::If { test, body } => {
                scan_expr(test, pos, last);
                scan_ops(sheet, body, depth, pos, last);
            }
            Op::Choose { whens, otherwise } => {
                for (t, b) in whens {
                    scan_expr(t, pos, last);
                    scan_ops(sheet, b, depth, pos, last);
                }
                scan_ops(sheet, otherwise, depth, pos, last);
            }
            Op::Variable { value, .. } => scan_var_source(sheet, value, depth, pos, last),
            Op::ForEach { select, .. } => scan_expr(select, pos, last),
            Op::ApplyTemplates { select, with_params, .. } => {
                if let Some(e) = select {
                    scan_expr(e, pos, last);
                }
                for wp in with_params {
                    scan_var_source(sheet, &wp.value, depth, pos, last);
                }
            }
            Op::CallTemplate { name, with_params, .. } => {
                for wp in with_params {
                    scan_var_source(sheet, &wp.value, depth, pos, last);
                }
                if let Some(tid) = sheet.named_template(name) {
                    let t = sheet.template(tid);
                    for (_, default) in &t.params {
                        scan_var_source(sheet, default, depth, pos, last);
                    }
                    scan_ops(sheet, &t.body, depth.saturating_sub(1), pos, last);
                }
            }
        }
    }
}

fn scan_expr(e: &xsltdb_xpath::Expr, pos: &mut bool, last: &mut bool) {
    use xsltdb_xpath::Expr as XE;
    match e {
        XE::Call(name, args) => {
            match name.as_str() {
                "position" => *pos = true,
                "last" => *last = true,
                _ => {}
            }
            for a in args {
                scan_expr(a, pos, last);
            }
        }
        XE::Binary(_, a, b) => {
            scan_expr(a, pos, last);
            scan_expr(b, pos, last);
        }
        XE::Neg(a) => scan_expr(a, pos, last),
        XE::Filter { primary, .. } => scan_expr(primary, pos, last),
        // Path-step predicates get the evaluator's own focus.
        _ => {}
    }
}

fn scan_avt(avt: &Avt, pos: &mut bool, last: &mut bool) {
    for p in &avt.0 {
        if let AvtPart::Expr(e) = p {
            scan_expr(e, pos, last);
        }
    }
}

fn scan_var_source(
    sheet: &Stylesheet,
    src: &VarValueSource,
    depth: usize,
    pos: &mut bool,
    last: &mut bool,
) {
    match src {
        VarValueSource::Select(e) => scan_expr(e, pos, last),
        VarValueSource::Body(ops) => scan_ops(sheet, ops, depth, pos, last),
        VarValueSource::Empty => {}
    }
}

/// The `instance of` test for one kind of sample node / pattern step test.
fn kind_test(var: &str, test: &NodeTest) -> Result<XqExpr, RewriteError> {
    let v = Box::new(XqExpr::var(var));
    Ok(match test {
        NodeTest::Name { prefix: _, local } => {
            XqExpr::InstanceOf(v, SeqType::Element(Some(local.clone())))
        }
        NodeTest::Star => XqExpr::InstanceOf(v, SeqType::Element(None)),
        NodeTest::Text => XqExpr::InstanceOf(v, SeqType::Text),
        // The `node()` pattern is `child::node()`: a node with a parent that
        // is not an attribute — never the document node.
        NodeTest::Node => XqExpr::And(
            Box::new(XqExpr::call("fn:exists", vec![parent_path(var)])),
            Box::new(XqExpr::call(
                "fn:not",
                vec![XqExpr::InstanceOf(v, SeqType::Attribute(None))],
            )),
        ),
        NodeTest::Comment | NodeTest::Pi(_) => {
            return Err(RewriteError::new(
                "comment()/processing-instruction() dispatch is not supported",
            ))
        }
        NodeTest::PrefixStar(_) => {
            return Err(RewriteError::new("prefix:* dispatch is not supported"))
        }
    })
}

/// Residual predicates of the pattern alternative that matches `node_name`
/// (`None` for text nodes). Predicates are only supported on the final step.
fn residual_predicates<'p>(
    t: &'p Template,
    node: &SampleNode,
) -> Result<Vec<&'p xsltdb_xpath::Expr>, RewriteError> {
    let Some(pattern) = &t.pattern else {
        return Ok(Vec::new());
    };
    for alt in &pattern.alternatives {
        if !alt_matches_kind(alt, node) {
            continue;
        }
        let mut preds = Vec::new();
        for (i, step) in alt.steps.iter().enumerate() {
            if step.predicates.is_empty() {
                continue;
            }
            if i + 1 != alt.steps.len() {
                return Err(RewriteError::new(format!(
                    "pattern `{pattern}` has predicates on a non-final step"
                )));
            }
            preds.extend(step.predicates.iter());
        }
        return Ok(preds);
    }
    Ok(Vec::new())
}

/// Does a pattern alternative's final step test match a sample-node kind?
fn alt_matches_kind(alt: &PathPattern, node: &SampleNode) -> bool {
    let Some(last) = alt.steps.last() else {
        return matches!(node, SampleNode::Root);
    };
    match node {
        SampleNode::Element(_) | SampleNode::Root => matches!(
            (&last.test, last.axis),
            (NodeTest::Name { .. }, Axis::Child)
                | (NodeTest::Star, Axis::Child)
                | (NodeTest::Node, Axis::Child)
        ),
        SampleNode::Text(_) => {
            matches!(last.test, NodeTest::Text | NodeTest::Node) && last.axis == Axis::Child
        }
        SampleNode::Attribute(..) => last.axis == Axis::Attribute,
    }
}

fn and_all(mut conds: Vec<XqExpr>) -> XqExpr {
    match conds.len() {
        0 => XqExpr::call("fn:true", vec![]),
        1 => conds.pop().expect("one element"),
        _ => {
            let mut it = conds.into_iter();
            let first = it.next().expect("non-empty");
            it.fold(first, |acc, c| XqExpr::And(Box::new(acc), Box::new(c)))
        }
    }
}

/// The dynamic `xsl:copy` translation (shallow copy of the current node).
fn dynamic_copy(ctx: &CtxRef, content: Vec<XqExpr>) -> XqExpr {
    let v = ctx_expr(ctx);
    let name_of = XqExpr::call("fn:name", vec![v.clone()]);
    XqExpr::If {
        cond: Box::new(XqExpr::InstanceOf(Box::new(v.clone()), SeqType::Element(None))),
        then: Box::new(XqExpr::CompElem {
            name: Box::new(name_of.clone()),
            content: Box::new(seq_of(content)),
        }),
        els: Box::new(XqExpr::If {
            cond: Box::new(XqExpr::InstanceOf(
                Box::new(v.clone()),
                SeqType::Attribute(None),
            )),
            then: Box::new(XqExpr::CompAttr {
                name: Box::new(name_of),
                value: Box::new(XqExpr::string_of(v.clone())),
            }),
            els: Box::new(XqExpr::CompText(Box::new(XqExpr::string_of(v)))),
        }),
    }
}

// --------------------------------------------------------------------------
// The op translator, shared by every mode
// --------------------------------------------------------------------------

#[derive(Clone)]
struct Env {
    /// The traced state of the current node (inline mode only).
    state: StateId,
    ctx: CtxRef,
    /// Variables bound to RTF wrapper elements (for `copy-of`).
    rtf_vars: Vec<String>,
    /// `at` variable of the enclosing iteration, when the generator bound
    /// one — the translation of body-level `position()`.
    pos_var: Option<String>,
    /// Count variable of the enclosing iteration's node list, when bound —
    /// the translation of body-level `last()`.
    last_var: Option<String>,
}

impl Env {
    /// A template function's entry environment: `ctx` is its node, with no
    /// positional context.
    fn at(ctx: CtxRef) -> Env {
        Env { state: 0, ctx, rtf_vars: Vec::new(), pos_var: None, last_var: None }
    }

    fn xlat(&self) -> XlatCtx {
        XlatCtx::new(self.ctx.clone(), ROOT_VAR)
            .with_position(self.pos_var.clone(), self.last_var.clone())
    }
}

/// The translator of template bodies (§4.4). Every instruction translates
/// the same way in every mode; `M` decides only how a template is invoked
/// ([`Invoke`]).
struct OpGen<'a, M> {
    sheet: &'a Stylesheet,
    opts: &'a RewriteOptions,
    next_var: u32,
    mode: M,
}

/// How `xsl:apply-templates` and `xsl:call-template` become XQuery.
trait Invoke {
    fn invoke(&mut self, op: &Op, env: &Env) -> Result<XqExpr, RewriteError>;
}

/// Inline mode: expand the traced target state at its call site.
struct Inline<'a> {
    info: &'a StructInfo,
    pe: &'a PeResult,
    depth: usize,
}

/// Function mode and the straightforward translation: each template in
/// `included` is one XQuery function; apply-templates picks the function
/// by a run-time dispatch chain. The straightforward translation has no
/// trace (`pe` is `None`).
struct Functions<'a> {
    pe: Option<&'a PeResult>,
    included: Vec<TemplateId>,
}

impl<M> OpGen<'_, M>
where
    Self: Invoke,
{
    fn fresh_var(&mut self) -> String {
        self.next_var += 1;
        format!("var{:03}", self.next_var)
    }

    fn var_source_expr(
        &mut self,
        src: &VarValueSource,
        env: &Env,
    ) -> Result<XqExpr, RewriteError> {
        match src {
            VarValueSource::Select(e) => xpath_to_xq(e, &env.xlat()),
            VarValueSource::Empty => Ok(XqExpr::StrLit(String::new())),
            VarValueSource::Body(body) => {
                let items = self.gen_ops(body, env)?;
                Ok(XqExpr::DirectElem {
                    name: xsltdb_xml::QName::local(RTF_WRAPPER),
                    attrs: Vec::new(),
                    content: items,
                })
            }
        }
    }

    fn gen_ops(&mut self, ops: &[Op], env: &Env) -> Result<Vec<XqExpr>, RewriteError> {
        let mut out = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Variable { name, value } => {
                    // The rest of the body sees the binding: nest it.
                    let is_rtf = matches!(value, VarValueSource::Body(_));
                    let val = self.var_source_expr(value, env)?;
                    let mut env2 = env.clone();
                    if is_rtf {
                        env2.rtf_vars.push(name.clone());
                    }
                    let rest = self.gen_ops(&ops[i + 1..], &env2)?;
                    out.push(XqExpr::Flwor {
                        clauses: vec![Clause::Let { var: name.clone(), value: val }],
                        where_clause: None,
                        order_by: Vec::new(),
                        ret: Box::new(seq_of(rest)),
                    });
                    return Ok(out);
                }
                other => out.push(self.gen_op(other, env)?),
            }
        }
        Ok(out)
    }

    fn gen_op(&mut self, op: &Op, env: &Env) -> Result<XqExpr, RewriteError> {
        let cx = env.xlat();
        match op {
            Op::Text(t) => Ok(XqExpr::TextContent(t.clone())),
            Op::ValueOf(e) => Ok(XqExpr::CompText(Box::new(XqExpr::string_of(
                xpath_to_xq(e, &cx)?,
            )))),
            Op::LiteralElement { name, attrs, body } => {
                let mut aparts = Vec::with_capacity(attrs.len());
                for (aname, avt) in attrs {
                    aparts.push((aname.clone(), avt_to_attr_parts(avt, &cx)?));
                }
                Ok(XqExpr::DirectElem {
                    name: name.clone(),
                    attrs: aparts,
                    content: self.gen_ops(body, env)?,
                })
            }
            Op::Element { name, body } => Ok(XqExpr::CompElem {
                name: Box::new(avt_to_string_expr(name, &cx)?),
                content: Box::new(seq_of(self.gen_ops(body, env)?)),
            }),
            Op::Attribute { name, body } => {
                let items = self.gen_ops(body, env)?;
                Ok(XqExpr::CompAttr {
                    name: Box::new(avt_to_string_expr(name, &cx)?),
                    value: Box::new(items_to_string_expr(items)),
                })
            }
            Op::If { test, body } => Ok(XqExpr::If {
                cond: Box::new(xpath_to_xq(test, &cx)?),
                then: Box::new(seq_of(self.gen_ops(body, env)?)),
                els: Box::new(XqExpr::Empty),
            }),
            Op::Choose { whens, otherwise } => {
                let mut expr = seq_of(self.gen_ops(otherwise, env)?);
                for (test, body) in whens.iter().rev() {
                    expr = XqExpr::If {
                        cond: Box::new(xpath_to_xq(test, &cx)?),
                        then: Box::new(seq_of(self.gen_ops(body, env)?)),
                        els: Box::new(expr),
                    };
                }
                Ok(expr)
            }
            Op::ForEach { select, sorts, body } => {
                let var = self.fresh_var();
                let source = xpath_to_xq(select, &cx)?;
                let (uses_pos, uses_last) = ops_use_position(self.sheet, body);
                let (clauses, order_by, pos_var, last_var) = {
                    let mut fresh = || self.fresh_var();
                    iteration_clauses(&mut fresh, var.clone(), source, sorts, uses_pos, uses_last)?
                };
                let mut env2 = env.clone();
                env2.ctx = CtxRef::var(&var);
                env2.pos_var = pos_var;
                env2.last_var = last_var;
                let items = self.gen_ops(body, &env2)?;
                Ok(XqExpr::Flwor {
                    clauses,
                    where_clause: None,
                    order_by,
                    ret: Box::new(seq_of(items)),
                })
            }
            Op::ApplyTemplates { .. } | Op::CallTemplate { .. } => self.invoke(op, env),
            Op::Copy { body } => {
                let content = self.gen_ops(body, env)?;
                Ok(dynamic_copy(&env.ctx, content))
            }
            Op::CopyOf(e) => {
                if let xsltdb_xpath::Expr::Var(v) = e {
                    if env.rtf_vars.contains(v) {
                        // Copy the RTF wrapper's children.
                        return Ok(child_node_path(&CtxRef::var(v)));
                    }
                }
                xpath_to_xq(e, &cx)
            }
            Op::Comment { body } => {
                let items = self.gen_ops(body, env)?;
                Ok(XqExpr::CompComment(Box::new(items_to_string_expr(items))))
            }
            Op::Pi { name, body } => {
                let target = name.as_constant().ok_or_else(|| {
                    RewriteError::new(
                        "computed processing-instruction targets are not supported by the rewrite",
                    )
                })?;
                let items = self.gen_ops(body, env)?;
                Ok(XqExpr::CompPi { target, content: Box::new(items_to_string_expr(items)) })
            }
            Op::Message { .. } => Ok(XqExpr::Empty),
            Op::Variable { .. } => unreachable!("handled in gen_ops"),
        }
    }
}

// --------------------------------------------------------------------------
// Inline mode
// --------------------------------------------------------------------------

const MAX_INLINE_DEPTH: usize = 64;

fn inline_generate(
    sheet: &Stylesheet,
    info: &StructInfo,
    pe: &PeResult,
    opts: &RewriteOptions,
) -> Result<RewriteOutcome, RewriteError> {
    let match_template_count = sheet.match_templates().count();
    let removed = match_template_count.saturating_sub(pe.graph.instantiated.len());

    let body = if opts.builtin_compaction && pe.graph.builtin_only() {
        // §3.6 / Table 21: the whole document uses built-in templates.
        let inner = XqExpr::Flwor {
            clauses: vec![Clause::For {
                var: "var001".into(),
                at: None,
                source: XqExpr::Path {
                    start: PathStart::Expr(Box::new(XqExpr::var(ROOT_VAR))),
                    steps: vec![
                        XqStep {
                            axis: Axis::DescendantOrSelf,
                            test: NodeTest::Node,
                            predicates: Vec::new(),
                        },
                        XqStep { axis: Axis::Child, test: NodeTest::Text, predicates: Vec::new() },
                    ],
                },
            }],
            where_clause: None,
            order_by: Vec::new(),
            ret: Box::new(XqExpr::string_of(XqExpr::var("var001"))),
        };
        let joined = XqExpr::call(
            "fn:string-join",
            vec![inner, XqExpr::StrLit(String::new())],
        );
        if opts.annotate {
            XqExpr::Annotated { comment: "builtin template".into(), expr: Box::new(joined) }
        } else {
            joined
        }
    } else {
        let mut g = OpGen { sheet, opts, next_var: 1, mode: Inline { info, pe, depth: 0 } };
        g.gen_state(pe.graph.root, CtxRef::var(ROOT_VAR), Vec::new(), None, None)?
    };

    Ok(RewriteOutcome {
        query: XQuery {
            variables: vec![VarDecl { name: ROOT_VAR.into(), value: XqExpr::ContextItem }],
            functions: Vec::new(),
            body,
        },
        mode: RewriteMode::Inline,
        removed_templates: removed,
        recursive: false,
    })
}

impl Invoke for OpGen<'_, Inline<'_>> {
    fn invoke(&mut self, op: &Op, env: &Env) -> Result<XqExpr, RewriteError> {
        match op {
            Op::ApplyTemplates { site, select, mode: _, sorts, with_params } => {
                self.gen_apply_site(env, *site, select.as_ref(), sorts, with_params)
            }
            Op::CallTemplate { site, name, with_params } => {
                let st = self.mode.pe.graph.state(env.state);
                let trans = st
                    .transitions
                    .get(site)
                    .and_then(|v| v.first())
                    .cloned()
                    .ok_or_else(|| {
                        RewriteError::new(format!(
                            "no trace for call-template `{name}` (site {site:?})"
                        ))
                    })?;
                let lets = self.with_param_lets(with_params, env)?;
                // call-template keeps the caller's current node *and*
                // position context.
                self.gen_state(
                    trans.target,
                    env.ctx.clone(),
                    lets,
                    env.pos_var.clone(),
                    env.last_var.clone(),
                )
            }
            _ => unreachable!("not a template invocation"),
        }
    }
}

impl<'a> OpGen<'_, Inline<'a>> {
    fn decl_of(&self, node: &SampleNode) -> Option<&'a ElemDecl> {
        match node {
            SampleNode::Element(path) => Some(SampleDoc::decl_at(self.mode.info, path)),
            _ => None,
        }
    }

    /// Generate the inlined expression for a state with the given context
    /// binding, parameter lets, and positional context (the `at`/count
    /// variables of the iteration that bound this node, if any).
    fn gen_state(
        &mut self,
        state: StateId,
        ctx: CtxRef,
        param_lets: Vec<(String, XqExpr)>,
        pos_var: Option<String>,
        last_var: Option<String>,
    ) -> Result<XqExpr, RewriteError> {
        self.mode.depth += 1;
        if self.mode.depth > MAX_INLINE_DEPTH {
            self.mode.depth -= 1;
            return Err(RewriteError::new("inline expansion too deep"));
        }
        let r = self.gen_state_inner(state, ctx, param_lets, pos_var, last_var);
        self.mode.depth -= 1;
        r
    }

    fn gen_state_inner(
        &mut self,
        state: StateId,
        ctx: CtxRef,
        mut param_lets: Vec<(String, XqExpr)>,
        pos_var: Option<String>,
        last_var: Option<String>,
    ) -> Result<XqExpr, RewriteError> {
        let st = self.mode.pe.graph.state(state).clone();
        match st.template {
            None => {
                // Built-in rule.
                match &st.node {
                    SampleNode::Text(_) | SampleNode::Attribute(..) => Ok(XqExpr::CompText(
                        Box::new(XqExpr::string_of(ctx_expr(&ctx))),
                    )),
                    SampleNode::Element(_) | SampleNode::Root => {
                        let env = Env { state, ctx, rtf_vars: Vec::new(), pos_var, last_var };
                        self.gen_apply_site(&env, BUILTIN_SITE, None, &[], &[])
                    }
                }
            }
            Some(tid) => {
                let t = self.sheet.template(tid);
                let env = Env { state, ctx, rtf_vars: Vec::new(), pos_var, last_var };
                // Defaults for parameters not passed.
                for (pname, default) in &t.params {
                    if param_lets.iter().any(|(n, _)| n == pname) {
                        continue;
                    }
                    let v = self.var_source_expr(default, &env)?;
                    param_lets.push((pname.clone(), v));
                }
                let items = self.gen_ops(&t.body, &env)?;
                let mut body = seq_of(items);
                if !param_lets.is_empty() {
                    body = XqExpr::Flwor {
                        clauses: param_lets
                            .into_iter()
                            .map(|(var, value)| Clause::Let { var, value })
                            .collect(),
                        where_clause: None,
                        order_by: Vec::new(),
                        ret: Box::new(body),
                    };
                }
                if self.opts.annotate {
                    let label = match (&t.pattern, &t.name) {
                        (Some(p), _) => format!("<xsl:template match=\"{p}\">"),
                        (None, Some(n)) => format!("<xsl:template name=\"{n}\">"),
                        _ => "<xsl:template>".to_string(),
                    };
                    body = XqExpr::Annotated { comment: label, expr: Box::new(body) };
                }
                Ok(body)
            }
        }
    }

    fn with_param_lets(
        &mut self,
        with_params: &[WithParam],
        env: &Env,
    ) -> Result<Vec<(String, XqExpr)>, RewriteError> {
        with_params
            .iter()
            .map(|wp| Ok((wp.name.clone(), self.var_source_expr(&wp.value, env)?)))
            .collect()
    }

    /// Generate the expansion of one `<xsl:apply-templates>` site (or the
    /// built-in rule's implicit one).
    fn gen_apply_site(
        &mut self,
        env: &Env,
        site: SiteId,
        select: Option<&xsltdb_xpath::Expr>,
        sorts: &[SortKey],
        with_params: &[WithParam],
    ) -> Result<XqExpr, RewriteError> {
        let st = self.mode.pe.graph.state(env.state);
        let trans: Vec<Transition> =
            st.transitions.get(&site).cloned().unwrap_or_default();
        if trans.is_empty() {
            return Ok(XqExpr::Empty);
        }
        // Group consecutive transitions by matched node: each node's group
        // is its candidate chain (best first).
        let mut groups: Vec<(SampleNode, Vec<StateId>)> = Vec::new();
        for t in &trans {
            match groups.last_mut() {
                Some((n, targets)) if *n == t.node => targets.push(t.target),
                _ => groups.push((t.node.clone(), vec![t.target])),
            }
        }

        let param_lets = self.with_param_lets(with_params, env)?;
        let cx = env.xlat();

        match select {
            Some(sel) => {
                let source = xpath_to_xq(sel, &cx)?;
                if groups.len() == 1 {
                    let (node, targets) = groups.pop().expect("one group");
                    let card = self.cardinality_of(&node);
                    self.gen_binding(&node, &targets, source, card, sorts, &param_lets)
                } else {
                    self.gen_dispatch_loop(source, &groups, sorts, &param_lets)
                }
            }
            None => {
                // Default select: `child::node()` — specialise by the model
                // group of the current declaration (§3.4).
                let decl = self.decl_of(&st.node.clone());
                let group = decl.map(|d| d.group).unwrap_or(ModelGroup::Sequence);
                // Mixed content (text plus element children): per-child
                // bindings would reorder text relative to elements, so the
                // document-order dispatch loop is the only correct shape.
                let mixed = decl.is_some_and(|d| d.has_text && !d.children.is_empty());
                let use_groups = self.opts.use_model_groups && !mixed;
                match group {
                    _ if !use_groups => {
                        let source = child_node_path(&env.ctx);
                        self.gen_dispatch_loop(source, &groups, sorts, &param_lets)
                    }
                    ModelGroup::All => {
                        let source = child_node_path(&env.ctx);
                        self.gen_dispatch_loop(source, &groups, sorts, &param_lets)
                    }
                    ModelGroup::Sequence => {
                        let mut items = Vec::with_capacity(groups.len());
                        for (node, targets) in &groups {
                            let path = self.child_path(&env.ctx, node)?;
                            let card = self.cardinality_of(node);
                            items.push(
                                self.gen_binding(node, targets, path, card, sorts, &param_lets)?,
                            );
                        }
                        Ok(seq_of(items))
                    }
                    ModelGroup::Choice => {
                        // Table 13: existence-tested chain; exactly one child
                        // is present.
                        let mut expr = XqExpr::Empty;
                        for (node, targets) in groups.iter().rev() {
                            let path = self.child_path(&env.ctx, node)?;
                            let binding = self.gen_binding(
                                node,
                                targets,
                                path.clone(),
                                Cardinality::One,
                                sorts,
                                &param_lets,
                            )?;
                            expr = XqExpr::If {
                                cond: Box::new(path),
                                then: Box::new(binding),
                                els: Box::new(expr),
                            };
                        }
                        Ok(expr)
                    }
                }
            }
        }
    }

    /// The path from the context to one child sample node.
    fn child_path(&self, ctx: &CtxRef, node: &SampleNode) -> Result<XqExpr, RewriteError> {
        let step = match node {
            SampleNode::Element(path) => {
                let name = path
                    .last()
                    .map(|_| SampleDoc::decl_at(self.mode.info, path).name.clone())
                    .unwrap_or_else(|| self.mode.info.root.name.clone());
                XqStep {
                    axis: Axis::Child,
                    test: NodeTest::Name { prefix: None, local: name },
                    predicates: Vec::new(),
                }
            }
            SampleNode::Text(_) => XqStep {
                axis: Axis::Child,
                test: NodeTest::Text,
                predicates: Vec::new(),
            },
            SampleNode::Attribute(_, name) => XqStep {
                axis: Axis::Attribute,
                test: NodeTest::Name { prefix: None, local: name.clone() },
                predicates: Vec::new(),
            },
            SampleNode::Root => {
                return Err(RewriteError::new("cannot navigate to the root as a child"))
            }
        };
        Ok(ctx_step(ctx, step))
    }

    /// The cardinality of a child sample node within its parent.
    fn cardinality_of(&self, node: &SampleNode) -> Cardinality {
        match node {
            SampleNode::Element(path) if !path.is_empty() => {
                let parent = SampleDoc::decl_at(self.mode.info, &path[..path.len() - 1]);
                parent.children[*path.last().expect("non-empty")].card
            }
            // The root element occurs exactly once; text/attributes are
            // single within their position.
            _ => Cardinality::One,
        }
    }

    /// Whether any candidate template body for these targets uses
    /// body-level `position()` / `last()` (so the binding must carry
    /// loop variables).
    fn targets_use_position(&self, targets: &[StateId]) -> (bool, bool) {
        let mut pos = false;
        let mut last = false;
        for &t in targets {
            if let Some(tid) = self.mode.pe.graph.state(t).template {
                let (p, l) = ops_use_position(self.sheet, &self.sheet.template(tid).body);
                pos |= p;
                last |= l;
            }
        }
        (pos, last)
    }

    /// Bind the nodes of one group to a fresh variable (FOR or LET per
    /// cardinality, §3.4) and inline the candidate chain.
    #[allow(clippy::too_many_arguments)]
    fn gen_binding(
        &mut self,
        node: &SampleNode,
        targets: &[StateId],
        source: XqExpr,
        card: Cardinality,
        sorts: &[SortKey],
        param_lets: &[(String, XqExpr)],
    ) -> Result<XqExpr, RewriteError> {
        let var = self.fresh_var();
        let (uses_pos, uses_last) = self.targets_use_position(targets);
        let use_let = self.opts.use_cardinality
            && card == Cardinality::One
            && sorts.is_empty()
            && !uses_pos
            && !uses_last;
        if use_let {
            let inner =
                self.gen_candidate_chain(&var, node, targets, param_lets, &None, &None)?;
            return Ok(XqExpr::Flwor {
                clauses: vec![Clause::Let { var, value: source }],
                where_clause: None,
                order_by: Vec::new(),
                ret: Box::new(inner),
            });
        }
        let (clauses, order_by, pos_var, last_var) = {
            let mut fresh = || self.fresh_var();
            iteration_clauses(&mut fresh, var.clone(), source, sorts, uses_pos, uses_last)?
        };
        let inner =
            self.gen_candidate_chain(&var, node, targets, param_lets, &pos_var, &last_var)?;
        Ok(XqExpr::Flwor {
            clauses,
            where_clause: None,
            order_by,
            ret: Box::new(inner),
        })
    }

    /// The conditional chain over a node's candidate templates (Tables
    /// 18/19): residual pattern predicates become runtime tests.
    #[allow(clippy::too_many_arguments)]
    fn gen_candidate_chain(
        &mut self,
        var: &str,
        node: &SampleNode,
        targets: &[StateId],
        param_lets: &[(String, XqExpr)],
        pos_var: &Option<String>,
        last_var: &Option<String>,
    ) -> Result<XqExpr, RewriteError> {
        let mut expr = XqExpr::Empty;
        for &target in targets.iter().rev() {
            let st = self.mode.pe.graph.state(target).clone();
            let inlined = self.gen_state(
                target,
                CtxRef::var(var),
                param_lets.to_vec(),
                pos_var.clone(),
                last_var.clone(),
            )?;
            match st.template {
                None => {
                    expr = inlined; // built-in: unconditional terminal
                }
                Some(tid) => {
                    let t = self.sheet.template(tid);
                    let preds = residual_predicates(t, node)?;
                    if preds.is_empty() {
                        expr = inlined;
                    } else {
                        let pcx = XlatCtx::new(CtxRef::var(var), ROOT_VAR);
                        let conds: Vec<XqExpr> = preds
                            .iter()
                            .map(|p| xpath_to_xq(p, &pcx))
                            .collect::<Result<_, _>>()?;
                        expr = XqExpr::If {
                            cond: Box::new(and_all(conds)),
                            then: Box::new(inlined),
                            els: Box::new(expr),
                        };
                    }
                }
            }
        }
        Ok(expr)
    }

    /// The Table 12 shape: iterate `source` and dispatch on node kind.
    fn gen_dispatch_loop(
        &mut self,
        source: XqExpr,
        groups: &[(SampleNode, Vec<StateId>)],
        sorts: &[SortKey],
        param_lets: &[(String, XqExpr)],
    ) -> Result<XqExpr, RewriteError> {
        let var = self.fresh_var();
        let (mut uses_pos, mut uses_last) = (false, false);
        for (_, targets) in groups {
            let (p, l) = self.targets_use_position(targets);
            uses_pos |= p;
            uses_last |= l;
        }
        let (clauses, order_by, pos_var, last_var) = {
            let mut fresh = || self.fresh_var();
            iteration_clauses(&mut fresh, var.clone(), source, sorts, uses_pos, uses_last)?
        };
        let mut expr = XqExpr::Empty;
        for (node, targets) in groups.iter().rev() {
            let chain =
                self.gen_candidate_chain(&var, node, targets, param_lets, &pos_var, &last_var)?;
            let cond = match node {
                SampleNode::Element(path) => {
                    let name = SampleDoc::decl_at(self.mode.info, path).name.clone();
                    XqExpr::InstanceOf(
                        Box::new(XqExpr::var(&var)),
                        SeqType::Element(Some(name)),
                    )
                }
                SampleNode::Text(_) => {
                    XqExpr::InstanceOf(Box::new(XqExpr::var(&var)), SeqType::Text)
                }
                SampleNode::Attribute(_, name) => XqExpr::InstanceOf(
                    Box::new(XqExpr::var(&var)),
                    SeqType::Attribute(Some(name.clone())),
                ),
                SampleNode::Root => continue,
            };
            expr = XqExpr::If { cond: Box::new(cond), then: Box::new(chain), els: Box::new(expr) };
        }
        Ok(XqExpr::Flwor {
            clauses,
            where_clause: None,
            order_by,
            ret: Box::new(expr),
        })
    }
}

fn ctx_expr(ctx: &CtxRef) -> XqExpr {
    match ctx {
        CtxRef::Var(v) => XqExpr::var(v),
        CtxRef::ContextItem => XqExpr::ContextItem,
    }
}

/// One step from the context: `$v/step`, or `step` from the context item.
fn ctx_step(ctx: &CtxRef, step: XqStep) -> XqExpr {
    let start = match ctx {
        CtxRef::Var(v) => PathStart::Expr(Box::new(XqExpr::var(v))),
        CtxRef::ContextItem => PathStart::Context,
    };
    XqExpr::Path { start, steps: vec![step] }
}

fn child_node_path(ctx: &CtxRef) -> XqExpr {
    ctx_step(ctx, XqStep { axis: Axis::Child, test: NodeTest::Node, predicates: Vec::new() })
}

/// `$var/..`
fn parent_path(var: &str) -> XqExpr {
    ctx_step(
        &CtxRef::var(var),
        XqStep { axis: Axis::Parent, test: NodeTest::Node, predicates: Vec::new() },
    )
}

// --------------------------------------------------------------------------
// Function mode (non-inline §4.4) and the straightforward translation [9]
// --------------------------------------------------------------------------

/// The node parameter of generated template functions.
const NODE_PARAM: &str = "xdbn";

fn functions_generate(
    sheet: &Stylesheet,
    pe: Option<&PeResult>,
    opts: &RewriteOptions,
) -> Result<RewriteOutcome, RewriteError> {
    // §3.7 trusts the trace; a sibling/ancestor selection it cannot
    // witness may reach a template it never saw instantiated.
    let keep_all = !opts.remove_dead_templates || sheet_uses_untraceable_axes(sheet);
    let included: Vec<TemplateId> = sheet
        .templates
        .iter()
        .enumerate()
        .map(|(i, _)| TemplateId(i as u32))
        .filter(|tid| keep_all || pe.is_none_or(|p| p.graph.instantiated.contains(tid)))
        .collect();
    let removed = sheet.templates.len() - included.len();
    let mut g = OpGen { sheet, opts, next_var: 1, mode: Functions { pe, included } };

    let mut functions = Vec::new();
    for tid in g.mode.included.clone() {
        let t = sheet.template(tid);
        let mut params = vec![NODE_PARAM.to_string()];
        params.extend(t.params.iter().map(|(n, _)| n.clone()));
        let body = seq_of(g.gen_ops(&t.body, &Env::at(CtxRef::var(NODE_PARAM)))?);
        functions.push(FunctionDecl { name: func_name(tid), params, body });
    }

    // One built-in dispatcher per mode that occurs in the stylesheet.
    let mut modes: Vec<Option<String>> = vec![None];
    for t in &sheet.templates {
        if !modes.contains(&t.mode) {
            modes.push(t.mode.clone());
        }
    }
    for mode in &modes {
        functions.push(g.builtin_function(mode.as_deref())?);
    }

    let root_chain = g.dispatch_chain(ROOT_VAR, None, &[])?;

    Ok(RewriteOutcome {
        query: XQuery {
            variables: vec![VarDecl { name: ROOT_VAR.into(), value: XqExpr::ContextItem }],
            functions,
            body: root_chain,
        },
        mode: if pe.is_some() { RewriteMode::Functions } else { RewriteMode::Straightforward },
        removed_templates: removed,
        recursive: pe.map(|p| p.graph.recursive).unwrap_or(false),
    })
}

fn func_name(tid: TemplateId) -> String {
    format!("local:tmpl{:03}", tid.0)
}

fn builtin_name(mode: Option<&str>) -> String {
    match mode {
        None => "local:xdb-builtin".to_string(),
        Some(m) => format!("local:xdb-builtin-{m}"),
    }
}

impl Invoke for OpGen<'_, Functions<'_>> {
    fn invoke(&mut self, op: &Op, env: &Env) -> Result<XqExpr, RewriteError> {
        match op {
            Op::ApplyTemplates { site: _, select, mode, sorts, with_params } => {
                let source = match select {
                    Some(e) => xpath_to_xq(e, &env.xlat())?,
                    None => child_node_path(&env.ctx),
                };
                let var = self.fresh_var();
                // `with_params` values reference the caller context and are
                // evaluated per call inside the chain (see dispatch_chain).
                let chain = self.dispatch_chain(&var, mode.as_deref(), with_params)?;
                Ok(XqExpr::Flwor {
                    clauses: vec![Clause::For { var: var.clone(), at: None, source }],
                    where_clause: None,
                    order_by: sorts_to_order_by(sorts, &var, ROOT_VAR)?,
                    ret: Box::new(chain),
                })
            }
            Op::CallTemplate { site: _, name, with_params } => {
                let tid = self
                    .sheet
                    .named_template(name)
                    .ok_or_else(|| RewriteError::new(format!("no template named {name}")))?;
                self.call_expr(tid, ctx_expr(&env.ctx), with_params, env)
            }
            _ => unreachable!("not a template invocation"),
        }
    }
}

impl OpGen<'_, Functions<'_>> {
    /// A call `local:tmplNNN($node, params…)`; missing parameters get their
    /// declared defaults (evaluated against the callee node).
    fn call_expr(
        &mut self,
        tid: TemplateId,
        node: XqExpr,
        with_params: &[WithParam],
        env: &Env,
    ) -> Result<XqExpr, RewriteError> {
        let t = self.sheet.template(tid);
        let mut args = vec![node.clone()];
        for (pname, default) in &t.params {
            let arg = match with_params.iter().find(|wp| &wp.name == pname) {
                Some(wp) => self.var_source_expr(&wp.value, env)?,
                None => {
                    // Defaults see the callee's context node.
                    let callee_ctx = match &node {
                        XqExpr::VarRef(v) => CtxRef::var(v),
                        _ => env.ctx.clone(),
                    };
                    self.var_source_expr(default, &Env::at(callee_ctx))?
                }
            };
            args.push(arg);
        }
        Ok(XqExpr::Call { name: func_name(tid), args })
    }

    /// The runtime template-dispatch conditional chain for the node bound
    /// to `$var`.
    fn dispatch_chain(
        &mut self,
        var: &str,
        mode: Option<&str>,
        with_params: &[WithParam],
    ) -> Result<XqExpr, RewriteError> {
        // Candidates: templates of this mode, best first.
        let mut cands: Vec<(f64, u32, TemplateId)> = self
            .sheet
            .match_templates()
            .filter(|(tid, t)| t.mode.as_deref() == mode && self.mode.included.contains(tid))
            .map(|(tid, t)| (t.priority, tid.0, tid))
            .collect();
        cands.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.1.cmp(&a.1))
        });

        let env = Env::at(CtxRef::var(var));
        let mut expr = XqExpr::Call {
            name: builtin_name(mode),
            args: vec![XqExpr::var(var)],
        };
        for (_, _, tid) in cands.into_iter().rev() {
            let t = self.sheet.template(tid);
            let pattern = t.pattern.as_ref().expect("match template");
            let mut alt_conds = Vec::new();
            for alt in &pattern.alternatives {
                alt_conds.push(self.pattern_condition(alt, var)?);
            }
            let cond = alt_conds
                .into_iter()
                .reduce(|a, b| XqExpr::Or(Box::new(a), Box::new(b)))
                .unwrap_or_else(|| XqExpr::call("fn:false", vec![]));
            let call = self.call_expr(tid, XqExpr::var(var), with_params, &env)?;
            expr = XqExpr::If { cond: Box::new(cond), then: Box::new(call), els: Box::new(expr) };
        }
        Ok(expr)
    }

    /// Translate one pattern alternative into a runtime boolean test over
    /// `$var` — the [9]-style test, including backward parent/ancestor
    /// checks unless §3.5 removes them.
    fn pattern_condition(
        &mut self,
        alt: &PathPattern,
        var: &str,
    ) -> Result<XqExpr, RewriteError> {
        if alt.steps.is_empty() {
            // The `/` pattern: the document node has no parent.
            return Ok(XqExpr::call("fn:empty", vec![parent_path(var)]));
        }
        let last = alt.steps.last().expect("non-empty");
        let mut conds = vec![match last.axis {
            Axis::Attribute => match &last.test {
                NodeTest::Name { local, .. } => XqExpr::InstanceOf(
                    Box::new(XqExpr::var(var)),
                    SeqType::Attribute(Some(local.clone())),
                ),
                NodeTest::Star | NodeTest::Node => XqExpr::InstanceOf(
                    Box::new(XqExpr::var(var)),
                    SeqType::Attribute(None),
                ),
                other => {
                    return Err(RewriteError::new(format!(
                        "unsupported attribute pattern test {other}"
                    )))
                }
            },
            _ => kind_test(var, &last.test)?,
        }];
        // Residual predicates on the last step.
        let pcx = XlatCtx::new(CtxRef::var(var), ROOT_VAR);
        for p in &last.predicates {
            conds.push(xpath_to_xq(p, &pcx)?);
        }
        // Backward steps (§3.5): parent/ancestor chain tests.
        if alt.steps.len() > 1 || alt.absolute {
            if self.opts.remove_backward_steps && self.mode.pe.is_some() {
                // With structural information the parents are known; drop
                // the tests (Table 17 → Table 19 simplification).
            } else {
                let mut steps = Vec::new();
                for (i, s) in alt.steps.iter().enumerate().rev() {
                    if i == alt.steps.len() - 1 {
                        continue;
                    }
                    if !s.predicates.is_empty() {
                        return Err(RewriteError::new(
                            "pattern predicates on non-final steps are not supported",
                        ));
                    }
                    // The link of the step to our right tells how we relate.
                    let link = alt.steps[i + 1].link;
                    let axis = match link {
                        Link::Child => Axis::Parent,
                        Link::Descendant => Axis::Ancestor,
                    };
                    steps.push(XqStep { axis, test: s.test.clone(), predicates: Vec::new() });
                }
                if alt.absolute {
                    // The topmost step must hang off the document node.
                    steps.push(XqStep {
                        axis: Axis::Parent,
                        test: NodeTest::Node,
                        predicates: Vec::new(),
                    });
                    steps.push(XqStep {
                        axis: Axis::Parent,
                        test: NodeTest::Node,
                        predicates: Vec::new(),
                    });
                    let path = XqExpr::Path {
                        start: PathStart::Expr(Box::new(XqExpr::var(var))),
                        steps,
                    };
                    conds.push(XqExpr::call("fn:empty", vec![path]));
                } else if !steps.is_empty() {
                    let path = XqExpr::Path {
                        start: PathStart::Expr(Box::new(XqExpr::var(var))),
                        steps,
                    };
                    conds.push(XqExpr::call("fn:exists", vec![path]));
                }
            }
        }
        Ok(and_all(conds))
    }

    /// `local:xdb-builtin($n)`: the built-in rules as a recursive function.
    fn builtin_function(&mut self, mode: Option<&str>) -> Result<FunctionDecl, RewriteError> {
        let n = || XqExpr::var(NODE_PARAM);
        let var = self.fresh_var();
        let chain = self.dispatch_chain(&var, mode, &[])?;
        let recurse = XqExpr::Flwor {
            clauses: vec![Clause::For {
                var: var.clone(),
                at: None,
                source: child_node_path(&CtxRef::var(NODE_PARAM)),
            }],
            where_clause: None,
            order_by: Vec::new(),
            ret: Box::new(chain),
        };
        let body = XqExpr::If {
            cond: Box::new(XqExpr::Or(
                Box::new(XqExpr::InstanceOf(Box::new(n()), SeqType::Text)),
                Box::new(XqExpr::InstanceOf(Box::new(n()), SeqType::Attribute(None))),
            )),
            then: Box::new(XqExpr::CompText(Box::new(XqExpr::string_of(n())))),
            els: Box::new(recurse),
        };
        Ok(FunctionDecl {
            name: builtin_name(mode),
            params: vec![NODE_PARAM.to_string()],
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_structinfo::{struct_of_dtd, StructInfo};
    use xsltdb_xquery::pretty_query;
    use xsltdb_xslt::compile_str;

    const DTD: &str = r#"
        <!ELEMENT dept (dname, loc, employees)>
        <!ELEMENT dname (#PCDATA)>
        <!ELEMENT loc (#PCDATA)>
        <!ELEMENT employees (emp*)>
        <!ELEMENT emp (empno, sal)>
        <!ELEMENT empno (#PCDATA)>
        <!ELEMENT sal (#PCDATA)>
    "#;

    fn info() -> StructInfo {
        struct_of_dtd(DTD, "dept").unwrap()
    }

    fn wrap(body: &str) -> String {
        format!(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
        )
    }

    fn gen(body: &str, opts: &RewriteOptions) -> RewriteOutcome {
        let sheet = compile_str(&wrap(body)).unwrap();
        rewrite(&sheet, &info(), opts).unwrap()
    }

    #[test]
    fn builtin_only_compaction_produces_string_join() {
        let out = gen("", &RewriteOptions::default());
        let p = pretty_query(&out.query);
        assert!(p.contains("fn:string-join"), "{p}");
        assert!(p.contains("//text()"), "{p}");
        assert!(out.fully_inlined());
    }

    #[test]
    fn builtin_compaction_can_be_disabled() {
        let opts = RewriteOptions { builtin_compaction: false, ..Default::default() };
        let out = gen("", &opts);
        let p = pretty_query(&out.query);
        assert!(!p.contains("fn:string-join"), "{p}");
    }

    #[test]
    fn cardinality_selects_let_for_single_children() {
        // dname occurs exactly once: LET; emp repeats: FOR (Table 15).
        let out = gen(
            r#"<xsl:template match="dept"><xsl:apply-templates/></xsl:template>
               <xsl:template match="dname"><n/></xsl:template>
               <xsl:template match="loc"><l/></xsl:template>
               <xsl:template match="employees"><xsl:apply-templates select="emp"/></xsl:template>
               <xsl:template match="emp"><e/></xsl:template>"#,
            &RewriteOptions::default(),
        );
        let p = pretty_query(&out.query);
        assert!(p.contains("let $"), "expected LET bindings in {p}");
        assert!(p.contains("for $"), "expected FOR over emp in {p}");
    }

    #[test]
    fn cardinality_off_uses_for_everywhere() {
        let opts = RewriteOptions { use_cardinality: false, ..Default::default() };
        let out = gen(
            r#"<xsl:template match="dept"><xsl:apply-templates select="dname"/></xsl:template>
               <xsl:template match="dname"><n/></xsl:template>"#,
            &opts,
        );
        let p = pretty_query(&out.query);
        assert!(!p.contains("let $var"), "{p}");
    }

    #[test]
    fn model_groups_off_generates_instance_dispatch() {
        let opts = RewriteOptions { use_model_groups: false, ..Default::default() };
        let out = gen(
            r#"<xsl:template match="dept"><xsl:apply-templates/></xsl:template>
               <xsl:template match="dname"><n/></xsl:template>"#,
            &opts,
        );
        let p = pretty_query(&out.query);
        // Table 12 shape: iterate node() and test kinds.
        assert!(p.contains("node()"), "{p}");
        assert!(p.contains("instance of element(dname)"), "{p}");
    }

    #[test]
    fn residual_pattern_predicates_generate_conditionals() {
        let out = gen(
            r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp"/></xsl:template>
               <xsl:template match="emp[sal &gt; 100]" priority="1"><rich/></xsl:template>
               <xsl:template match="emp"><poor/></xsl:template>"#,
            &RewriteOptions::default(),
        );
        let p = pretty_query(&out.query);
        assert!(p.contains("sal > 100"), "{p}");
        assert!(p.contains("if ("), "{p}");
        assert!(p.contains("<rich/>") && p.contains("<poor/>"), "{p}");
    }

    #[test]
    fn dead_template_removal_counts() {
        let out = gen(
            r#"<xsl:template match="dept"><d/></xsl:template>
               <xsl:template match="never1"><n/></xsl:template>
               <xsl:template match="never2"><n/></xsl:template>"#,
            &RewriteOptions::default(),
        );
        assert_eq!(out.removed_templates, 2);
        let p = pretty_query(&out.query);
        assert!(!p.contains("never"), "{p}");
    }

    #[test]
    fn annotations_emit_template_comments() {
        let out = gen(
            r#"<xsl:template match="dept"><d/></xsl:template>"#,
            &RewriteOptions::default(),
        );
        let p = pretty_query(&out.query);
        assert!(p.contains(r#"(: <xsl:template match="dept"> :)"#), "{p}");
        let no_annot = RewriteOptions { annotate: false, ..Default::default() };
        let out = gen(r#"<xsl:template match="dept"><d/></xsl:template>"#, &no_annot);
        assert!(!pretty_query(&out.query).contains("(:"));
    }

    #[test]
    fn inline_disabled_forces_function_mode() {
        let opts = RewriteOptions { inline: false, ..Default::default() };
        let out = gen(
            r#"<xsl:template match="dept"><d/></xsl:template>"#,
            &opts,
        );
        assert_eq!(out.mode, RewriteMode::Functions);
        assert!(!out.fully_inlined());
    }

    #[test]
    fn straightforward_keeps_backward_tests_inline_removes_them() {
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dept"><xsl:apply-templates select="employees/emp/empno"/></xsl:template>
               <xsl:template match="emp/empno"><e><xsl:value-of select="."/></e></xsl:template>"#,
        ))
        .unwrap();
        // Straightforward ([9] / Table 17): parent-axis existence test.
        let sf = rewrite_straightforward(&sheet).unwrap();
        let p = pretty_query(&sf.query);
        assert!(p.contains("parent::emp"), "{p}");
        // Inline with structure (Table 19): no backward test at all.
        let inline = rewrite(&sheet, &info(), &RewriteOptions::default()).unwrap();
        assert_eq!(inline.mode, RewriteMode::Inline);
        let p = pretty_query(&inline.query);
        assert!(!p.contains("parent::"), "{p}");
    }

    #[test]
    fn generated_query_always_reparses() {
        for body in [
            "",
            r#"<xsl:template match="dept"><d><xsl:apply-templates/></d></xsl:template>"#,
            r#"<xsl:template match="emp"><e a="{empno}"/></xsl:template>"#,
            r#"<xsl:template match="dept">
                 <xsl:for-each select="employees/emp"><xsl:sort select="sal"/><s/></xsl:for-each>
               </xsl:template>"#,
        ] {
            let out = gen(body, &RewriteOptions::default());
            let printed = pretty_query(&out.query);
            xsltdb_xquery::parse_query(&printed)
                .unwrap_or_else(|e| panic!("generated query does not reparse:\n{printed}\n{e}"));
        }
    }

    #[test]
    fn straightforward_mode_reports() {
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dept"><d/></xsl:template>"#,
        ))
        .unwrap();
        let out = rewrite_straightforward(&sheet).unwrap();
        assert_eq!(out.mode, RewriteMode::Straightforward);
        assert!(out.query.functions.len() >= 2); // template + builtin
    }
}
