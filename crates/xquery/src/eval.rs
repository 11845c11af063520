//! Evaluator for the XQuery subset, run into an [`XmlSink`].
//!
//! [`evaluate_query_to_sink`] walks the query body with [`emit`]: whatever
//! flows straight to the output (sequences, conditional branches, FLWOR
//! returns, user-function bodies, constructor content) stays in emission
//! position, and its constructors push events into the caller's sink
//! without building a tree. Everything the query re-inspects (paths,
//! predicates, variables, arguments) is evaluated by [`eval`] to a
//! sequence of items over shared immutable documents, then replayed.
//!
//! A constructor is built in one place, [`construct`]. In emission
//! position it writes into the caller's sink; in [`eval`] it *spills*:
//! the same code runs into a fresh unguarded `TreeSink`, and the built
//! node is the item. Both paths share one user-function call frame, one
//! predicate filter and one FLWOR tuple loop.

// Guard-bearing hot path: a stray unwrap here is a latent panic the
// pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crate::ast::*;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use xsltdb_xml::{
    replay_subtree, DocRc, Document, FaultKind, FaultPoint, Guard, GuardExceeded, NodeId, NodeKind,
    QName, SinkError, TreeSink, XmlSink,
};
use xsltdb_xpath::axes::{axis_nodes, test_matches};
use xsltdb_xpath::value::{
    arith, compare, num_to_string, sort_rows, str_to_num, Operand, SortValue,
};

/// Evaluation error.
#[derive(Debug, Clone, PartialEq)]
pub struct XqError(pub String);

impl fmt::Display for XqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery error: {}", self.0)
    }
}

impl std::error::Error for XqError {}

/// A node in some document.
#[derive(Debug, Clone)]
pub struct NodeHandle {
    pub doc: DocRc,
    pub id: NodeId,
}

impl NodeHandle {
    pub fn new(doc: DocRc, id: NodeId) -> Self {
        NodeHandle { doc, id }
    }

    /// Wrap a document's root (document node).
    pub fn document(doc: Document) -> Self {
        NodeHandle { doc: Rc::new(doc), id: NodeId::DOCUMENT }
    }

    fn order_key(&self) -> (usize, NodeId) {
        (Rc::as_ptr(&self.doc) as *const () as usize, self.id)
    }

    pub fn string_value(&self) -> String {
        self.doc.string_value(self.id)
    }
}

impl PartialEq for NodeHandle {
    fn eq(&self, other: &Self) -> bool {
        self.order_key() == other.order_key()
    }
}

/// One XQuery item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Node(NodeHandle),
    Str(String),
    Num(f64),
    Bool(bool),
}

impl Item {
    /// Atomize: nodes become untyped (string) values.
    pub fn atomize(&self) -> Item {
        match self {
            Item::Node(n) => Item::Str(n.string_value()),
            other => other.clone(),
        }
    }

    pub fn to_string_value(&self) -> String {
        match self {
            Item::Node(n) => n.string_value(),
            Item::Str(s) => s.clone(),
            Item::Num(n) => num_to_string(*n),
            Item::Bool(b) => if *b { "true" } else { "false" }.to_string(),
        }
    }

    pub fn to_number(&self) -> f64 {
        match self {
            Item::Num(n) => *n,
            Item::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => str_to_num(&other.to_string_value()),
        }
    }
}

impl From<NodeHandle> for Item {
    fn from(n: NodeHandle) -> Item {
        Item::Node(n)
    }
}

/// A sequence of items.
pub type Sequence = Vec<Item>;

/// Effective boolean value.
pub(crate) fn ebv(seq: &[Item]) -> Result<bool, XqError> {
    match seq {
        [] => Ok(false),
        [Item::Node(_), ..] => Ok(true),
        [single] => Ok(match single {
            Item::Bool(b) => *b,
            Item::Num(n) => *n != 0.0 && !n.is_nan(),
            Item::Str(s) => !s.is_empty(),
            Item::Node(_) => true,
        }),
        _ => Err(XqError(
            "effective boolean value of a multi-item atomic sequence".into(),
        )),
    }
}

/// Build a single document from a result sequence (the `RETURNING CONTENT`
/// materialisation): nodes are deep-copied, atomics become text. The
/// reference the sink-mode evaluator is tested against.
#[cfg(test)]
fn sequence_to_document(seq: &[Item]) -> Document {
    let mut b = xsltdb_xml::TreeBuilder::new();
    let mut prev_atomic = false;
    for item in seq {
        match item {
            Item::Node(n) => {
                b.copy_subtree(&n.doc, n.id);
                prev_atomic = false;
            }
            other => {
                if prev_atomic {
                    b.text(" ");
                }
                b.text(&other.to_string_value());
                prev_atomic = true;
            }
        }
    }
    b.finish_lenient()
}

/// The materialising reference: evaluate the body to a sequence, build the
/// `RETURNING CONTENT` document and serialize it. Sink-mode output through
/// a `StreamWriter` must equal this byte for byte.
#[cfg(test)]
fn materialised_output(q: &XQuery, input: Option<NodeHandle>) -> Result<String, XqError> {
    let mut env = query_env(q, input, Vec::new(), Guard::unlimited())?;
    let seq = eval(&q.body, &mut env)?;
    Ok(xsltdb_xml::to_string(&sequence_to_document(&seq)))
}

/// The query prologue: fire the XQuery-tier fault point, set up the
/// environment (the input as context item, the external variables) and
/// bind the prolog variables. Prolog variables are re-inspection position
/// by definition: their values are bound, not emitted — fresh trees they
/// build spill later if a sink-mode body emits them.
fn query_env(
    q: &XQuery,
    input: Option<NodeHandle>,
    extra_vars: Vec<(String, Sequence)>,
    guard: Guard,
) -> Result<EvalEnv<'_>, XqError> {
    if let Some(kind) = guard.take_fault(FaultPoint::XQueryExec) {
        match kind {
            FaultKind::Error => return Err(XqError("injected fault at XQuery tier".into())),
            FaultKind::Panic => panic!("injected panic at XQuery tier"),
        }
    }
    let functions: HashMap<String, &FunctionDecl> =
        q.functions.iter().map(|f| (f.name.clone(), f)).collect();
    let mut env = EvalEnv {
        functions,
        vars: extra_vars,
        ctx: input.map(Item::Node),
        pos: 1,
        size: 1,
        depth: 0,
        guard,
    };
    for v in &q.variables {
        let val = eval(&v.value, &mut env)?;
        env.vars.push((v.name.clone(), val));
    }
    Ok(env)
}

pub(crate) struct EvalEnv<'q> {
    pub(crate) functions: HashMap<String, &'q FunctionDecl>,
    pub(crate) vars: Vec<(String, Sequence)>,
    pub(crate) ctx: Option<Item>,
    pub(crate) pos: usize,
    pub(crate) size: usize,
    pub(crate) depth: usize,
    pub(crate) guard: Guard,
}

const MAX_DEPTH: usize = 96;

fn guard_err(e: GuardExceeded) -> XqError {
    XqError(e.to_string())
}

impl<'q> EvalEnv<'q> {
    fn lookup(&self, name: &str) -> Result<Sequence, XqError> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone())
            .ok_or_else(|| XqError(format!("undefined variable ${name}")))
    }
}

pub(crate) fn eval(e: &XqExpr, env: &mut EvalEnv<'_>) -> Result<Sequence, XqError> {
    env.guard.charge(1).map_err(guard_err)?;
    match e {
        XqExpr::Empty => Ok(Vec::new()),
        XqExpr::StrLit(s) => Ok(vec![Item::Str(s.clone())]),
        XqExpr::TextContent(t) => Ok(vec![Item::Str(t.clone())]),
        XqExpr::NumLit(n) => Ok(vec![Item::Num(*n)]),
        XqExpr::VarRef(v) => env.lookup(v),
        XqExpr::ContextItem => env
            .ctx
            .clone()
            .map(|i| vec![i])
            .ok_or_else(|| XqError("no context item".into())),
        XqExpr::Annotated { expr, .. } => eval(expr, env),
        XqExpr::Seq(es) => {
            let mut out = Vec::new();
            for sub in es {
                out.extend(eval(sub, env)?);
            }
            Ok(out)
        }
        XqExpr::If { cond, then, els } => {
            let c = eval(cond, env)?;
            if ebv(&c)? {
                eval(then, env)
            } else {
                eval(els, env)
            }
        }
        XqExpr::Or(a, b) => {
            let l = ebv(&eval(a, env)?)?;
            if l {
                return Ok(vec![Item::Bool(true)]);
            }
            Ok(vec![Item::Bool(ebv(&eval(b, env)?)?)])
        }
        XqExpr::And(a, b) => {
            let l = ebv(&eval(a, env)?)?;
            if !l {
                return Ok(vec![Item::Bool(false)]);
            }
            Ok(vec![Item::Bool(ebv(&eval(b, env)?)?)])
        }
        XqExpr::Union(a, b) => {
            let l = eval(a, env)?;
            let r = eval(b, env)?;
            let mut handles = Vec::with_capacity(l.len() + r.len());
            for item in l.into_iter().chain(r) {
                match item {
                    Item::Node(n) => handles.push(n),
                    other => {
                        return Err(XqError(format!(
                            "union operand must be nodes, got {other:?}"
                        )))
                    }
                }
            }
            handles.sort_by_key(|n| n.order_key());
            handles.dedup_by_key(|n| n.order_key());
            Ok(handles.into_iter().map(Item::Node).collect())
        }
        XqExpr::Compare(op, a, b) => {
            let l = eval(a, env)?;
            let r = eval(b, env)?;
            Ok(vec![Item::Bool(compare(*op, operand(&l), operand(&r)))])
        }
        XqExpr::Arith(op, a, b) => {
            let x = number(&eval(a, env)?);
            let y = number(&eval(b, env)?);
            Ok(vec![Item::Num(arith(*op, x, y))])
        }
        XqExpr::Neg(a) => Ok(vec![Item::Num(-number(&eval(a, env)?))]),
        XqExpr::InstanceOf(a, t) => {
            let v = eval(a, env)?;
            let ok = v.len() == 1 && item_matches_type(&v[0], t);
            Ok(vec![Item::Bool(ok)])
        }
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            let mut out = Vec::new();
            flwor(clauses, where_clause.as_deref(), order_by, env, |env| {
                out.extend(eval(ret, env)?);
                Ok(())
            })?;
            Ok(out)
        }
        XqExpr::Path { start, steps } => {
            let start_seq: Sequence = match start {
                PathStart::Root => {
                    let ctx = env
                        .ctx
                        .clone()
                        .ok_or_else(|| XqError("no context item for `/`".into()))?;
                    match ctx {
                        Item::Node(n) => {
                            vec![Item::Node(NodeHandle::new(n.doc, NodeId::DOCUMENT))]
                        }
                        _ => return Err(XqError("`/` requires a node context".into())),
                    }
                }
                PathStart::Context => vec![env
                    .ctx
                    .clone()
                    .ok_or_else(|| XqError("no context item".into()))?],
                PathStart::Expr(e) => eval(e, env)?,
            };
            eval_steps(start_seq, steps, env)
        }
        XqExpr::Filter { base, predicates } => {
            let mut seq = eval(base, env)?;
            for p in predicates {
                seq = filter(seq, p, env)?;
            }
            Ok(seq)
        }
        XqExpr::Call { name, args } => match env.functions.get(name.as_str()) {
            // User-defined functions are looked up with their full prefixed name.
            Some(&decl) => call_frame(decl, args, env, eval),
            None => {
                let plain = name.strip_prefix("fn:").unwrap_or(name);
                crate::functions::call_builtin(plain, args, env)
            }
        },
        XqExpr::DirectElem { .. }
        | XqExpr::CompElem { .. }
        | XqExpr::CompAttr { .. }
        | XqExpr::CompText(_)
        | XqExpr::CompComment(_)
        | XqExpr::CompPi { .. } => spill(e, env),
    }
}

fn item_matches_type(item: &Item, t: &SeqType) -> bool {
    match (item, t) {
        (Item::Node(n), SeqType::Element(name)) => match n.doc.kind(n.id) {
            NodeKind::Element { name: en, .. } => {
                name.as_ref().is_none_or(|want| {
                    let (p, l) = QName::split(want);
                    en.matches_test(p, l)
                })
            }
            _ => false,
        },
        (Item::Node(n), SeqType::Attribute(name)) => match n.doc.kind(n.id) {
            NodeKind::Attribute { name: an, .. } => {
                name.as_ref().is_none_or(|want| {
                    let (p, l) = QName::split(want);
                    an.matches_test(p, l)
                })
            }
            _ => false,
        },
        (Item::Node(n), SeqType::Text) => n.doc.is_text(n.id),
        (Item::Node(_), SeqType::Node) => true,
        (_, SeqType::Item) => true,
        _ => false,
    }
}

/// A sequence as an XPath 1.0 comparison operand: one atomic item is that
/// atom; anything else (nodes, the empty sequence) is a node-set of the
/// items' string values.
fn operand(seq: &[Item]) -> Operand<'_, impl Iterator<Item = String> + Clone + '_> {
    match seq {
        [Item::Bool(b)] => Operand::Bool(*b),
        [Item::Num(n)] => Operand::Num(*n),
        [Item::Str(s)] => Operand::Str(s),
        items => Operand::Nodes(items.iter().map(Item::to_string_value)),
    }
}

/// XPath `number()` of a sequence: its first item's, NaN when empty.
pub(crate) fn number(seq: &[Item]) -> f64 {
    seq.first().map_or(f64::NAN, Item::to_number)
}

/// One FLWOR tuple: the variable bindings the `return` runs under.
type FlworTuple = Vec<(String, Sequence)>;

/// Run a FLWOR: expand the tuple stream (depth-first), apply `where`, sort
/// by `order by` keys, then run `ret` once per tuple with its bindings in
/// scope. `ret` runs *after* the sort, so a sink-mode `return` clause
/// stays in emission position.
fn flwor<'q>(
    clauses: &[Clause],
    where_clause: Option<&XqExpr>,
    order_by: &[OrderSpec],
    env: &mut EvalEnv<'q>,
    mut ret: impl FnMut(&mut EvalEnv<'q>) -> Result<(), XqError>,
) -> Result<(), XqError> {
    // Expand the tuple stream depth-first.
    fn expand(
        clauses: &[Clause],
        where_clause: Option<&XqExpr>,
        env: &mut EvalEnv<'_>,
        tuples: &mut Vec<FlworTuple>,
        current: &mut FlworTuple,
    ) -> Result<(), XqError> {
        match clauses.split_first() {
            None => {
                if let Some(w) = where_clause {
                    let keep = {
                        let v = eval(w, env)?;
                        ebv(&v)?
                    };
                    if !keep {
                        return Ok(());
                    }
                }
                tuples.push(current.clone());
                Ok(())
            }
            Some((Clause::Let { var, value }, rest)) => {
                let v = eval(value, env)?;
                env.vars.push((var.clone(), v.clone()));
                current.push((var.clone(), v));
                let r = expand(rest, where_clause, env, tuples, current);
                env.vars.pop();
                current.pop();
                r
            }
            Some((Clause::For { var, at, source }, rest)) => {
                let src = eval(source, env)?;
                for (i, item) in src.into_iter().enumerate() {
                    // One fuel unit per FLWOR tuple, so a cross-product of
                    // large sequences is bounded even when each inner eval
                    // is cheap.
                    env.guard.charge(1).map_err(guard_err)?;
                    let single = vec![item];
                    env.vars.push((var.clone(), single.clone()));
                    current.push((var.clone(), single));
                    if let Some(pos_var) = at {
                        // `at` binds the 1-based position in the *input*
                        // sequence (pre-`order by`, per spec).
                        let pos = vec![Item::Num((i + 1) as f64)];
                        env.vars.push((pos_var.clone(), pos.clone()));
                        current.push((pos_var.clone(), pos));
                    }
                    let r = expand(rest, where_clause, env, tuples, current);
                    if at.is_some() {
                        env.vars.pop();
                        current.pop();
                    }
                    env.vars.pop();
                    current.pop();
                    r?;
                }
                Ok(())
            }
        }
    }

    let mut tuples = Vec::new();
    expand(clauses, where_clause, env, &mut tuples, &mut Vec::new())?;

    if !order_by.is_empty() {
        // Decorate each tuple with its keys, atomised once: a number sorts
        // as a number, any other item as its string value.
        let mut decorated = Vec::with_capacity(tuples.len());
        for t in tuples {
            let depth = env.vars.len();
            env.vars.extend(t.iter().cloned());
            let keys: Result<Vec<Sequence>, _> =
                order_by.iter().map(|o| eval(&o.key, env)).collect();
            env.vars.truncate(depth);
            let keys = keys?.into_iter().map(|k| match k.first() {
                Some(Item::Num(n)) => SortValue::Num(*n),
                item => SortValue::Str(item.map_or(String::new(), Item::to_string_value)),
            });
            decorated.push((keys.collect(), t));
        }
        let descending: Vec<bool> = order_by.iter().map(|o| o.descending).collect();
        tuples = sort_rows(decorated, &descending);
    }
    for t in tuples {
        let depth = env.vars.len();
        env.vars.extend(t);
        let r = ret(env);
        env.vars.truncate(depth);
        r?;
    }
    Ok(())
}

fn eval_steps(
    start: Sequence,
    steps: &[XqStep],
    env: &mut EvalEnv<'_>,
) -> Result<Sequence, XqError> {
    let mut current: Vec<NodeHandle> = Vec::with_capacity(start.len());
    for item in start {
        match item {
            Item::Node(n) => current.push(n),
            other => {
                if steps.is_empty() {
                    // No steps: atomic passthrough handled by caller.
                    continue;
                }
                return Err(XqError(format!(
                    "path step applied to an atomic value {other:?}"
                )));
            }
        }
    }
    for step in steps {
        let mut next: Vec<NodeHandle> = Vec::new();
        for nh in &current {
            env.guard.charge(1).map_err(guard_err)?;
            let candidates: Vec<NodeId> = axis_nodes(&nh.doc, nh.id, step.axis)
                .into_iter()
                .filter(|&c| test_matches(&nh.doc, c, step.axis, &step.test))
                .collect();
            // Charge for every node the axis surfaced, so `//x//y` blowups
            // are billed even when predicates later discard them.
            env.guard.charge(candidates.len() as u64).map_err(guard_err)?;
            let mut kept: Vec<NodeHandle> = candidates
                .into_iter()
                .map(|c| NodeHandle::new(Rc::clone(&nh.doc), c))
                .collect();
            for p in &step.predicates {
                kept = filter(kept, p, env)?;
            }
            next.extend(kept);
        }
        next.sort_by_key(|n| n.order_key());
        next.dedup_by_key(|n| n.order_key());
        current = next;
    }
    Ok(current.into_iter().map(Item::Node).collect())
}

/// Keep the items (nodes of a step, or any sequence) that satisfy `pred`,
/// each evaluated with itself as the context item: a single number keeps
/// the item at that position, anything else by its effective boolean value.
fn filter<T: Clone + Into<Item>>(
    items: Vec<T>,
    pred: &XqExpr,
    env: &mut EvalEnv<'_>,
) -> Result<Vec<T>, XqError> {
    let size = items.len();
    let mut out = Vec::with_capacity(size);
    for (i, item) in items.into_iter().enumerate() {
        let saved_ctx = env.ctx.replace(item.clone().into());
        let (saved_pos, saved_size) = (env.pos, env.size);
        env.pos = i + 1;
        env.size = size;
        let v = eval(pred, env);
        env.ctx = saved_ctx;
        env.pos = saved_pos;
        env.size = saved_size;
        let keep = match v?.as_slice() {
            [Item::Num(x)] => (i + 1) as f64 == *x,
            other => ebv(other)?,
        };
        if keep {
            out.push(item);
        }
    }
    Ok(out)
}

/// Call user function `decl`: check arity and recursion depth, bind the
/// arguments (evaluated at the call site, where they are re-inspected) and
/// run `body` on the function body in a frame that sees only its
/// parameters, under one guard depth level.
fn call_frame<'q, T>(
    decl: &'q FunctionDecl,
    args: &[XqExpr],
    env: &mut EvalEnv<'q>,
    body: impl FnOnce(&'q XqExpr, &mut EvalEnv<'q>) -> Result<T, XqError>,
) -> Result<T, XqError> {
    if decl.params.len() != args.len() {
        return Err(XqError(format!(
            "{}() expects {} arguments, got {}",
            decl.name,
            decl.params.len(),
            args.len()
        )));
    }
    if env.depth + 1 > MAX_DEPTH {
        return Err(XqError(format!(
            "function recursion deeper than {MAX_DEPTH} (infinite recursion?)"
        )));
    }
    let mut bound = Vec::with_capacity(args.len());
    for (p, a) in decl.params.iter().zip(args) {
        bound.push((p.clone(), eval(a, env)?));
    }
    let saved_vars = std::mem::replace(&mut env.vars, bound);
    let saved_ctx = env.ctx.take();
    env.depth += 1;
    let r = match env.guard.enter() {
        Ok(()) => {
            let r = body(&decl.body, env);
            env.guard.leave();
            r
        }
        Err(e) => Err(guard_err(e)),
    };
    env.depth -= 1;
    env.vars = saved_vars;
    env.ctx = saved_ctx;
    r
}

// ---------------------------------------------------------------------------
// Sink-mode evaluation: constructors in emission position push events
// straight into an `XmlSink` instead of materialising item trees.
// ---------------------------------------------------------------------------

/// Evidence returned by a sink-mode evaluation: how much tree the spill
/// fallback actually built. Zero spills means the whole result left the
/// evaluator as events without a single arena node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkRun {
    /// Subtrees that had to be materialised (re-inspected constructors,
    /// function results, path results over fresh trees) and then replayed.
    pub spilled_subtrees: u64,
    /// Arena nodes in the largest single spilled subtree — the peak
    /// residency the streaming path could not avoid.
    pub peak_spilled_nodes: u64,
}

/// Sink-mode evaluation state threaded through the emitting recursion:
/// the sink itself, the space-join adjacency flag for constructor content,
/// and the spill accounting.
pub(crate) struct Emitter<'s> {
    sink: &'s mut dyn XmlSink,
    /// True when the last thing emitted at this position was an atomic
    /// value, so the next atomic needs a single space before it.
    prev_atomic: bool,
    /// Arena pointers of the documents the caller passed *in* (the bound
    /// input and external variables). Replaying nodes of these documents
    /// is a streamed copy-out, not a spill — no new tree was built.
    input_docs: Vec<usize>,
    spilled_subtrees: u64,
    peak_spilled_nodes: u64,
}

fn sink_err(e: SinkError) -> XqError {
    XqError(e.to_string())
}

impl<'s> Emitter<'s> {
    fn new(sink: &'s mut dyn XmlSink, input_docs: Vec<usize>) -> Emitter<'s> {
        Emitter { sink, prev_atomic: false, input_docs, spilled_subtrees: 0, peak_spilled_nodes: 0 }
    }

    fn run(&self) -> SinkRun {
        SinkRun {
            spilled_subtrees: self.spilled_subtrees,
            peak_spilled_nodes: self.peak_spilled_nodes,
        }
    }

    fn is_input_doc(&self, doc: &DocRc) -> bool {
        self.input_docs.contains(&(Rc::as_ptr(doc) as *const () as usize))
    }

    /// Emit one atomic value under the space-join rule.
    fn emit_atomic(&mut self, s: &str) -> Result<(), XqError> {
        if self.prev_atomic {
            self.sink.text(" ").map_err(sink_err)?;
        }
        self.sink.text(s).map_err(sink_err)?;
        self.prev_atomic = true;
        Ok(())
    }

    /// Emit a materialised sequence — the spill replay: attribute-node
    /// items become attribute events (misplaced if content already
    /// started), other nodes replay as subtree events, atomics space-join.
    fn emit_items(&mut self, items: Sequence) -> Result<(), XqError> {
        for item in items {
            match item {
                Item::Node(n) => {
                    let fresh = !self.is_input_doc(&n.doc);
                    let replayed = if n.doc.is_attribute(n.id) {
                        if let NodeKind::Attribute { name, value } = n.doc.kind(n.id) {
                            self.sink.attribute(name.clone(), value).map_err(sink_err)?;
                        }
                        1
                    } else {
                        replay_subtree(&n.doc, n.id, self.sink).map_err(sink_err)?
                    };
                    if fresh {
                        self.spilled_subtrees += 1;
                        self.peak_spilled_nodes = self.peak_spilled_nodes.max(replayed);
                    }
                    self.prev_atomic = false;
                }
                atomic => self.emit_atomic(&atomic.to_string_value())?,
            }
        }
        Ok(())
    }
}

/// The emitting recursion. Only expressions whose value flows *directly*
/// to the output stay in emission position (sequences, conditional
/// branches, FLWOR returns, constructor content); every other expression
/// is evaluated with [`eval`] — materialising whatever it must — and its
/// items are replayed as events.
fn emit(e: &XqExpr, env: &mut EvalEnv<'_>, em: &mut Emitter<'_>) -> Result<(), XqError> {
    match e {
        XqExpr::Seq(es) => {
            env.guard.charge(1).map_err(guard_err)?;
            for sub in es {
                emit(sub, env, em)?;
            }
            Ok(())
        }
        XqExpr::If { cond, then, els } => {
            env.guard.charge(1).map_err(guard_err)?;
            let c = eval(cond, env)?;
            if ebv(&c)? {
                emit(then, env, em)
            } else {
                emit(els, env, em)
            }
        }
        XqExpr::Annotated { expr, .. } => {
            env.guard.charge(1).map_err(guard_err)?;
            emit(expr, env, em)
        }
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            env.guard.charge(1).map_err(guard_err)?;
            flwor(clauses, where_clause.as_deref(), order_by, env, |env| emit(ret, env, em))
        }
        XqExpr::DirectElem { .. }
        | XqExpr::CompElem { .. }
        | XqExpr::CompAttr { .. }
        | XqExpr::CompText(_)
        | XqExpr::CompComment(_)
        | XqExpr::CompPi { .. } => {
            env.guard.charge(1).map_err(guard_err)?;
            construct(e, env, em)
        }
        // A call to a *user-declared* function whose result flows straight
        // to the output: run the body in emission position. The body's
        // value is never re-inspected here, so its constructors may stream
        // — this is what keeps the recursion-shaped XSLTMark cases (whose
        // every constructor lives inside a template function) spill-free.
        XqExpr::Call { name, args } if env.functions.contains_key(name.as_str()) => {
            env.guard.charge(1).map_err(guard_err)?;
            let decl = env.functions[name.as_str()];
            call_frame(decl, args, env, |body, env| emit(body, env, em))
        }
        // Everything else must be re-inspected (paths, predicates, builtin
        // calls, comparisons, variables…): evaluate it — `eval` charges the
        // guard — then replay the materialised items as events.
        other => {
            let items = eval(other, env)?;
            em.emit_items(items)
        }
    }
}

/// The atomized items of `e`, space-joined: an attribute value, or the
/// content of a computed text, comment or PI node.
fn joined(e: &XqExpr, env: &mut EvalEnv<'_>) -> Result<String, XqError> {
    let strs: Vec<String> = eval(e, env)?.iter().map(|i| i.atomize().to_string_value()).collect();
    Ok(strs.join(" "))
}

/// The name of a computed element or attribute constructor.
fn computed_name(name: &XqExpr, kind: &str, env: &mut EvalEnv<'_>) -> Result<QName, XqError> {
    let lexical = eval(name, env)?
        .first()
        .map(|i| i.to_string_value())
        .ok_or_else(|| XqError(format!("{kind} constructor with empty name")))?;
    let (prefix, local) = QName::split(&lexical);
    Ok(QName { prefix: prefix.map(Into::into), local: local.into(), ns_uri: None })
}

/// Run one constructor as events into `em` — the only code that builds a
/// constructed node, whether it streams ([`emit`]) or spills ([`spill`]).
/// The caller has charged the expression's fuel; element constructors
/// charge an output node here.
fn construct(e: &XqExpr, env: &mut EvalEnv<'_>, em: &mut Emitter<'_>) -> Result<(), XqError> {
    match e {
        XqExpr::DirectElem { name, attrs, content } => {
            env.guard.charge_output_nodes(1).map_err(guard_err)?;
            em.sink.start_element(name.clone()).map_err(sink_err)?;
            for (aname, parts) in attrs {
                let mut val = String::new();
                for p in parts {
                    match p {
                        AttrValuePart::Text(t) => val.push_str(t),
                        AttrValuePart::Expr(e) => val.push_str(&joined(e, env)?),
                    }
                }
                em.sink.attribute(aname.clone(), &val).map_err(sink_err)?;
            }
            em.prev_atomic = false;
            for c in content {
                match c {
                    // Literal element content is emitted verbatim and
                    // breaks atomic adjacency.
                    XqExpr::TextContent(t) => {
                        em.sink.text(t).map_err(sink_err)?;
                        em.prev_atomic = false;
                    }
                    other => emit(other, env, em)?,
                }
            }
            em.sink.end_element().map_err(sink_err)?;
        }
        XqExpr::CompElem { name, content } => {
            env.guard.charge_output_nodes(1).map_err(guard_err)?;
            let qname = computed_name(name, "element", env)?;
            em.sink.start_element(qname).map_err(sink_err)?;
            em.prev_atomic = false;
            // No TextContent special case: literal text in computed
            // content is an atomic string.
            emit(content, env, em)?;
            em.sink.end_element().map_err(sink_err)?;
        }
        XqExpr::CompAttr { name, value } => {
            let qname = computed_name(name, "attribute", env)?;
            let v = joined(value, env)?;
            em.sink.attribute(qname, &v).map_err(sink_err)?;
        }
        XqExpr::CompText(inner) => {
            let v = joined(inner, env)?;
            // An empty computed text node is no node at all: emit nothing
            // and leave atomic adjacency untouched.
            if v.is_empty() {
                return Ok(());
            }
            em.sink.text(&v).map_err(sink_err)?;
        }
        XqExpr::CompComment(inner) => em.sink.comment(&joined(inner, env)?).map_err(sink_err)?,
        XqExpr::CompPi { target, content } => {
            em.sink.pi(target, &joined(content, env)?).map_err(sink_err)?
        }
        other => return Err(XqError(format!("not a constructor: {other:?}"))),
    }
    em.prev_atomic = false;
    Ok(())
}

/// A constructor in spill position, where its value is re-inspected: run
/// it through [`construct`] into a fresh unguarded `TreeSink` and return
/// the node it built. Fuel and output nodes are charged to `env.guard`
/// exactly as when the constructor streams; bytes are charged only when
/// the node is replayed into the caller's sink, which also counts the
/// spill — the inner emitter's own counters are dropped. An element is
/// the root element of its own document; any other node sits on a holder
/// element. An empty text constructor builds no node.
fn spill(e: &XqExpr, env: &mut EvalEnv<'_>) -> Result<Sequence, XqError> {
    let holder = match e {
        XqExpr::CompAttr { .. } => Some("xq-attribute-holder"),
        XqExpr::CompText(_) => Some("xq-text-holder"),
        XqExpr::CompComment(_) => Some("xq-comment-holder"),
        XqExpr::CompPi { .. } => Some("xq-pi-holder"),
        _ => None,
    };
    let mut sink = TreeSink::unguarded();
    if let Some(h) = holder {
        sink.start_element(QName::local(h)).map_err(sink_err)?;
    }
    construct(e, env, &mut Emitter::new(&mut sink, Vec::new()))?;
    let doc = Rc::new(sink.into_documents().pop().unwrap_or_default());
    let node = doc.root_element().and_then(|root| match holder {
        None => Some(root),
        Some(_) => doc.attributes(root).first().copied().or_else(|| doc.children(root).next()),
    });
    Ok(node.map(|id| Item::Node(NodeHandle::new(Rc::clone(&doc), id))).into_iter().collect())
}

/// Evaluate a full query straight into an [`XmlSink`] — the one way to run
/// a query. `input` is bound as the initial context item (like
/// `XMLQuery(... PASSING doc)`), `extra_vars` as external variables, and
/// every hot loop charges `guard`: a trip surfaces as a stringly
/// [`XqError`], and the structured [`GuardExceeded`] is read back via
/// [`Guard::trip`]. The sink decides what the result is: a
/// `StreamWriter` for bytes, a `TreeSink` for a document, a `TextSink`
/// for its string value.
///
/// Constructors in emission position never materialise; spilled subtrees
/// are counted in the returned [`SinkRun`]. The event stream is
/// byte-identical (through a `StreamWriter`) to serializing the
/// materialised evaluation — property-tested in `eval::prop_stream`.
pub fn evaluate_query_to_sink(
    q: &XQuery,
    input: Option<NodeHandle>,
    extra_vars: Vec<(String, Sequence)>,
    guard: Guard,
    sink: &mut dyn XmlSink,
) -> Result<SinkRun, XqError> {
    let mut input_docs = Vec::new();
    if let Some(n) = &input {
        input_docs.push(Rc::as_ptr(&n.doc) as *const () as usize);
    }
    for (_, seq) in &extra_vars {
        for item in seq {
            if let Item::Node(n) = item {
                let key = Rc::as_ptr(&n.doc) as *const () as usize;
                if !input_docs.contains(&key) {
                    input_docs.push(key);
                }
            }
        }
    }
    let mut env = query_env(q, input, extra_vars, guard)?;
    let mut em = Emitter::new(sink, input_docs);
    emit(&q.body, &mut env, &mut em)?;
    Ok(em.run())
}

// The functions module needs access to the evaluator internals.
pub(crate) mod internal {
    pub(crate) use super::{ebv, eval, number, EvalEnv, Item, Sequence, XqError};
}

#[cfg(test)]
mod prop_stream;

/// Run `src` over `xml` through [`evaluate_query_to_sink`] into a
/// `StreamWriter`: the serialized result, or the evaluation error.
#[cfg(test)]
pub(crate) fn run_to_string(src: &str, xml: &str, guard: Guard) -> Result<String, XqError> {
    let q = crate::parser::parse_query(src).unwrap();
    let input = NodeHandle::document(xsltdb_xml::parse::parse(xml).unwrap());
    let mut sw = xsltdb_xml::StreamWriter::new(Vec::new(), guard.clone());
    evaluate_query_to_sink(&q, Some(input), Vec::new(), guard, &mut sw)?;
    Ok(String::from_utf8(sw.finish().unwrap()).unwrap())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn input(xml: &str) -> NodeHandle {
        NodeHandle::document(xsltdb_xml::parse::parse(xml).unwrap())
    }

    fn run(src: &str, xml: &str) -> String {
        run_to_string(src, xml, Guard::unlimited()).unwrap()
    }

    #[test]
    fn simple_path_and_constructor() {
        assert_eq!(
            run("<p>{fn:string(/dept/dname)}</p>", "<dept><dname>A</dname></dept>"),
            "<p>A</p>"
        );
    }

    #[test]
    fn flwor_over_emps() {
        let xml = "<dept><emp><sal>100</sal></emp><emp><sal>300</sal></emp></dept>";
        assert_eq!(
            run(
                "for $e in /dept/emp where $e/sal > 200 return <hi>{fn:string($e/sal)}</hi>",
                xml
            ),
            "<hi>300</hi>"
        );
    }

    #[test]
    fn let_binding_and_sequence() {
        assert_eq!(
            run("let $x := 2 return ($x, $x * 3)", "<r/>"),
            "2 6"
        );
    }

    #[test]
    fn prolog_variable_is_context() {
        assert_eq!(
            run(
                "declare variable $var000 := .; fn:string($var000/r/v)",
                "<r><v>9</v></r>"
            ),
            "9"
        );
    }

    #[test]
    fn user_function_call() {
        assert_eq!(
            run(
                "declare function local:wrap($n) { <w>{fn:string($n)}</w> }; local:wrap(/r/v)",
                "<r><v>q</v></r>"
            ),
            "<w>q</w>"
        );
    }

    #[test]
    fn recursive_function_detected() {
        let src = "declare function local:f($n) { local:f($n) }; local:f(1)";
        assert!(run_to_string(src, "<r/>", Guard::unlimited()).is_err());
    }

    #[test]
    fn predicates_positional_and_value() {
        let xml = "<r><i>a</i><i>b</i><i>c</i></r>";
        assert_eq!(run("fn:string(/r/i[2])", xml), "b");
        assert_eq!(run("fn:string(/r/i[. = 'c'])", xml), "c");
    }

    #[test]
    fn instance_of_checks() {
        let xml = "<r><a>1</a></r>";
        assert_eq!(run("for $n in /r/node() return ($n instance of element(a))", xml), "true");
        assert_eq!(run("(/r/a instance of element(b))", xml), "false");
        assert_eq!(run("(/r/a/text() instance of text())", xml), "true");
    }

    #[test]
    fn constructor_copies_nodes() {
        let xml = "<r><a k=\"1\">x</a></r>";
        assert_eq!(run("<out>{/r/a}</out>", xml), "<out><a k=\"1\">x</a></out>");
    }

    #[test]
    fn adjacent_atomics_get_space() {
        assert_eq!(run("<o>{1, 2, 'x'}</o>", "<r/>"), "<o>1 2 x</o>");
    }

    #[test]
    fn attribute_avt_in_constructor() {
        assert_eq!(
            run("<t border=\"{1 + 1}\"/>", "<r/>"),
            "<t border=\"2\"/>"
        );
    }

    #[test]
    fn computed_constructors_work() {
        assert_eq!(run("element {'e'} {attribute {'k'} {'v'}, 'body'}", "<r/>"), "<e k=\"v\">body</e>");
        assert_eq!(run("text {'plain'}", "<r/>"), "plain");
    }

    #[test]
    fn empty_and_arith_propagation() {
        assert_eq!(run("()", "<r/>"), "");
        assert_eq!(run("1 + 2 * 3", "<r/>"), "7");
        // XPath 1.0 arithmetic converts with number(): empty is NaN.
        assert_eq!(run("/r/nothing + 1", "<r/>"), "NaN");
    }

    #[test]
    fn general_comparison_existential() {
        let xml = "<r><s>100</s><s>300</s></r>";
        assert_eq!(run("/r/s > 200", xml), "true");
        assert_eq!(run("/r/s > 400", xml), "false");
    }

    #[test]
    fn order_by_sorts_tuples() {
        let xml = "<r><e><n>b</n></e><e><n>a</n></e></r>";
        assert_eq!(
            run("for $e in /r/e order by $e/n return fn:string($e/n)", xml),
            "a b"
        );
        assert_eq!(
            run("for $e in /r/e order by $e/n descending return fn:string($e/n)", xml),
            "b a"
        );
    }

    #[test]
    fn double_slash_descendants() {
        let xml = "<a><b><c>1</c></b><c>2</c></a>";
        assert_eq!(run("fn:count(//c)", xml), "2");
    }

    #[test]
    fn sequence_to_document_materialises() {
        let q = parse_query("(<a/>, 'x', <b/>)").unwrap();
        assert_eq!(materialised_output(&q, Some(input("<r/>"))).unwrap(), "<a/>x<b/>");
    }

    #[test]
    fn undefined_variable_is_error() {
        assert!(run_to_string("$nope", "<r/>", Guard::unlimited()).is_err());
    }

    #[test]
    fn guard_fuel_trips_on_flwor_cross_product() {
        use xsltdb_xml::{Limits, Resource};
        let guard = Guard::new(Limits::UNLIMITED.with_fuel(40));
        let xml = "<r><a/><a/><a/><a/><a/><a/><a/><a/></r>";
        let r = run_to_string(
            "for $x in /r/a for $y in /r/a return <p/>",
            xml,
            guard.clone(),
        );
        let err = r.unwrap_err();
        assert!(err.0.contains("fuel"), "unexpected error: {}", err.0);
        let trip = guard.trip().expect("guard recorded the trip");
        assert_eq!(trip.resource, Resource::Fuel);
        assert_eq!(trip.limit, 40);
    }

    #[test]
    fn guard_depth_trips_on_recursive_function() {
        use xsltdb_xml::{Limits, Resource};
        let guard = Guard::new(Limits::UNLIMITED.with_max_depth(8));
        let r = run_to_string(
            "declare function local:f($n) { local:f($n) }; local:f(1)",
            "<r/>",
            guard.clone(),
        );
        assert!(r.is_err());
        let trip = guard.trip().expect("guard recorded the trip");
        assert_eq!(trip.resource, Resource::Depth);
        assert_eq!(trip.limit, 8);
    }

    #[test]
    fn guard_expired_deadline_trips() {
        use std::time::Duration;
        use xsltdb_xml::{Limits, Resource};
        let guard = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_secs(0)));
        std::thread::sleep(Duration::from_millis(2));
        let r = run_to_string("for $x in /r/a return $x", "<r><a/></r>", guard.clone());
        assert!(r.is_err());
        let trip = guard.trip().expect("guard recorded the trip");
        assert_eq!(trip.resource, Resource::Deadline);
    }

    #[test]
    fn guard_output_nodes_cap_trips_on_constructors() {
        use xsltdb_xml::{Limits, Resource};
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_nodes(3));
        let xml = "<r><a/><a/><a/><a/><a/><a/></r>";
        let r = run_to_string("for $x in /r/a return <p/>", xml, guard.clone());
        assert!(r.is_err());
        let trip = guard.trip().expect("guard recorded the trip");
        assert_eq!(trip.resource, Resource::OutputNodes);
        assert_eq!(trip.limit, 3);
    }

    #[test]
    fn guard_unlimited_keeps_queries_working() {
        let out = run_to_string(
            "for $e in /d/e return <o>{fn:string($e)}</o>",
            "<d><e>1</e><e>2</e></d>",
            Guard::unlimited(),
        )
        .unwrap();
        assert_eq!(out, "<o>1</o><o>2</o>");
    }

    #[test]
    fn injected_xquery_fault_errors_once() {
        let guard = Guard::unlimited().with_fault(FaultPoint::XQueryExec, FaultKind::Error);
        let err = run_to_string("1", "<r/>", guard.clone()).unwrap_err();
        assert!(err.0.contains("injected fault"), "unexpected: {}", err.0);
        // One-shot: the same guard succeeds on retry.
        assert!(run_to_string("1", "<r/>", guard).is_ok());
    }

    /// Sink-mode evaluation through a StreamWriter, plus the materialised
    /// reference for the same query: the outputs must be byte-identical.
    fn run_sink(src: &str, xml: &str) -> (String, String, SinkRun) {
        let q = parse_query(src).unwrap();
        let in_doc = input(xml);
        let mut sw = xsltdb_xml::StreamWriter::new(Vec::new(), Guard::unlimited());
        let sink_run =
            evaluate_query_to_sink(&q, Some(in_doc.clone()), Vec::new(), Guard::unlimited(), &mut sw)
                .unwrap();
        let streamed = String::from_utf8(sw.finish().unwrap()).unwrap();
        let reference = materialised_output(&q, Some(in_doc)).unwrap();
        (streamed, reference, sink_run)
    }

    #[test]
    fn sink_mode_streams_top_level_constructors_without_spilling() {
        let xml = "<dept><emp><sal>100</sal></emp><emp><sal>300</sal></emp></dept>";
        let (streamed, reference, run) = run_sink(
            "for $e in /dept/emp return <hi s=\"{fn:string($e/sal)}\">{fn:string($e/sal)}</hi>",
            xml,
        );
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<hi s=\"100\">100</hi><hi s=\"300\">300</hi>");
        assert_eq!(run, SinkRun::default(), "no constructor should have spilled");
    }

    #[test]
    fn sink_mode_copies_input_subtrees_without_counting_spills() {
        let xml = "<r><a k=\"1\">x</a><a k=\"2\">y</a></r>";
        let (streamed, reference, run) = run_sink("<out>{/r/a}</out>", xml);
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<out><a k=\"1\">x</a><a k=\"2\">y</a></out>");
        // Input-document subtrees replay as a streamed copy-out, not a spill.
        assert_eq!(run.spilled_subtrees, 0);
    }

    #[test]
    fn sink_mode_spills_predicate_over_fresh_element() {
        let (streamed, reference, run) =
            run_sink("<out>{(<probe><v>1</v></probe>)[v = 1]}</out>", "<r/>");
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<out><probe><v>1</v></probe></out>");
        assert_eq!(run.spilled_subtrees, 1);
        // probe + v + text("1") = 3 arena nodes in the spilled subtree.
        assert_eq!(run.peak_spilled_nodes, 3);
    }

    #[test]
    fn sink_mode_inlines_emission_position_function_calls() {
        // The call is in emission position, so the body's constructor
        // streams: zero spills even though the constructor lives inside
        // a user function.
        let (streamed, reference, run) = run_sink(
            "declare function local:wrap($n) { <w>{fn:string($n)}</w> }; local:wrap(/r/v)",
            "<r><v>q</v></r>",
        );
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<w>q</w>");
        assert_eq!(run.spilled_subtrees, 0);
    }

    #[test]
    fn sink_mode_spills_function_results_that_are_reinspected() {
        // Same function, but the result is filtered: the call sits in
        // spill position, so the body materialises once and replays.
        let (streamed, reference, run) = run_sink(
            "declare function local:wrap($n) { <w>{fn:string($n)}</w> }; (local:wrap(/r/v))[1]",
            "<r><v>q</v></r>",
        );
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<w>q</w>");
        assert_eq!(run.spilled_subtrees, 1);
    }

    #[test]
    fn sink_mode_streams_recursive_template_functions() {
        let (streamed, reference, run) = run_sink(
            "declare function local:down($n) { \
               if ($n = 0) then <leaf/> else <node>{local:down($n - 1)}</node> \
             }; local:down(3)",
            "<r/>",
        );
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<node><node><node><leaf/></node></node></node>");
        assert_eq!(run.spilled_subtrees, 0);
    }

    #[test]
    fn sink_mode_space_joins_and_empty_text_match_materialised() {
        for src in [
            "<o>{1, 2, 'x'}</o>",
            "('x', text {''}, 'y')",
            "('x', text {'a'}, 'y')",
            "element {'e'} {attribute {'k'} {'v'}, 'body'}",
            "<o>lit{'a'}{'b'}</o>",
            "(<a/>, 'x', <b/>)",
            "if (/r) then <yes/> else <no/>",
            "comment {'c'}, processing-instruction tgt {'d'}",
        ] {
            let (streamed, reference, _) = run_sink(src, "<r/>");
            assert_eq!(streamed, reference, "diverged on {src}");
        }
    }

    /// Leaf constructors in spill position (a filter re-inspects them):
    /// the bytes written, the fuel spent and the spill evidence, per kind.
    /// Each freshly built node replays once; an empty text node is no node.
    #[test]
    fn spilled_leaf_constructors_are_pinned() {
        let spilled = SinkRun { spilled_subtrees: 1, peak_spilled_nodes: 1 };
        for (src, bytes, fuel, run) in [
            ("<o>{(attribute {'k'} {'v'})[1]}</o>", "<o k=\"v\"/>", 6, spilled),
            ("<o>{(text {'t'})[1]}</o>", "<o>t</o>", 5, spilled),
            ("<o>{(text {''})[1]}</o>", "<o/>", 4, SinkRun::default()),
            ("<o>{(comment {'c'})[1]}</o>", "<o><!--c--></o>", 5, spilled),
            ("<o>{(processing-instruction p {'d'})[1]}</o>", "<o><?p d?></o>", 5, spilled),
            (
                "let $t := text {'a', 'b'} return ($t, $t)",
                "a ba b",
                8,
                SinkRun { spilled_subtrees: 2, peak_spilled_nodes: 1 },
            ),
        ] {
            let q = parse_query(src).unwrap();
            let guard = Guard::unlimited();
            let mut sw = xsltdb_xml::StreamWriter::new(Vec::new(), guard.clone());
            let got =
                evaluate_query_to_sink(&q, Some(input("<r/>")), Vec::new(), guard.clone(), &mut sw)
                    .unwrap();
            let out = String::from_utf8(sw.finish().unwrap()).unwrap();
            assert_eq!((out.as_str(), guard.fuel_spent(), got), (bytes, fuel, run), "{src}");
        }
    }

    #[test]
    fn sink_mode_order_by_streams_sorted_returns() {
        let xml = "<r><e><n>b</n></e><e><n>a</n></e></r>";
        let (streamed, reference, run) =
            run_sink("for $e in /r/e order by $e/n return <o>{fn:string($e/n)}</o>", xml);
        assert_eq!(streamed, reference);
        assert_eq!(streamed, "<o>a</o><o>b</o>");
        assert_eq!(run.spilled_subtrees, 0, "sorting tuples must not spill the returns");
    }

    #[test]
    fn sink_mode_byte_cap_trips_mid_stream() {
        use xsltdb_xml::{Limits, Resource};
        let q = parse_query("for $e in /d/e return <o>{fn:string($e)}</o>").unwrap();
        let guard = Guard::new(Limits::UNLIMITED.with_max_output_bytes(12));
        let mut sw = xsltdb_xml::StreamWriter::new(Vec::new(), guard.clone());
        let err = evaluate_query_to_sink(
            &q,
            Some(input("<d><e>aaaa</e><e>bbbb</e><e>cccc</e></d>")),
            Vec::new(),
            guard.clone(),
            &mut sw,
        )
        .unwrap_err();
        assert!(err.0.contains("output bytes"), "unexpected error: {}", err.0);
        let trip = guard.trip().expect("guard recorded the trip");
        assert_eq!(trip.resource, Resource::OutputBytes);
        assert!(sw.bytes_written() <= 12, "bytes on the wire exceed the cap");
    }

    #[test]
    fn sink_mode_injected_fault_fires_before_any_event() {
        let guard = Guard::unlimited().with_fault(FaultPoint::XQueryExec, FaultKind::Error);
        let q = parse_query("<a/>").unwrap();
        let mut sw = xsltdb_xml::StreamWriter::new(Vec::new(), guard.clone());
        let err = evaluate_query_to_sink(&q, Some(input("<r/>")), Vec::new(), guard, &mut sw)
            .unwrap_err();
        assert!(err.0.contains("injected fault"));
        assert_eq!(sw.bytes_written(), 0);
    }
}
