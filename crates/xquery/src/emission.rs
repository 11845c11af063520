//! Static emission-position analysis: which constructor sites in a query
//! can stream events straight into an `XmlSink`, and which must spill to a
//! materialised tree first.
//!
//! An expression is in **emission position** when its value flows directly
//! to the serialized output without being re-inspected: the query body,
//! elements of a comma sequence in emission position, both branches of a
//! conditional in emission position, the `return` of a FLWOR in emission
//! position (the `return` runs *after* `order by`, so sorting does not
//! force materialisation of the returned constructors), and constructor
//! content. Everything else — FLWOR sources and `let` values, `where` and
//! `order by` keys, predicates, comparison/arithmetic operands, function
//! arguments, AVT attribute expressions and computed names — re-inspects
//! its value and is **spill position**.
//!
//! A *user-declared function's body* inherits the strongest position of
//! its call sites, propagated through the call graph to a fixpoint: a
//! function only ever called from emission positions streams its body
//! (the sink-mode evaluator inlines it), while a single spill-position
//! call site forces the whole body to spill — conservative, since the
//! analysis is static and the body is analyzed once.
//!
//! The analysis is the static twin of the per-expression decision the
//! sink-mode evaluator ([`crate::evaluate_query_to_sink`]) takes
//! dynamically: a query whose [`EmissionReport::spill_sites`] is zero is
//! *guaranteed* to build zero arena nodes while streaming, which
//! `tests/streaming.rs` asserts for every XSLTMark case.

use crate::ast::{AttrValuePart, Clause, PathStart, XQuery, XqExpr};

/// Constructor-site census of one query, split by emission position.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmissionReport {
    /// Constructor sites that stream as events (no tree built).
    pub emit_sites: usize,
    /// Constructor sites whose value is re-inspected, so the sink-mode
    /// evaluator spills them to a tree and replays.
    pub spill_sites: usize,
}

impl EmissionReport {
    /// True when sink-mode evaluation of this query cannot build a single
    /// arena node: every constructor streams.
    pub fn spill_free(&self) -> bool {
        self.spill_sites == 0
    }
}

/// How a function's body runs, as decided by its call sites. Strictly
/// ordered — a mode only ever strengthens `Unseen → Emit → Spill` during
/// the fixpoint, which is what bounds the iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum BodyMode {
    /// Never called: analyzed in spill position (nothing is known).
    Unseen,
    /// Only emission-position call sites: the body streams.
    Emit,
    /// At least one spill-position call site: the body spills.
    Spill,
}

/// Analyze a full query: the body starts in emission position; prolog
/// variable values are spill position (their values are bound and
/// re-inspected, never emitted directly); each function body runs in the
/// strongest position among its call sites (see module docs).
pub fn analyze_query(q: &XQuery) -> EmissionReport {
    use std::collections::HashMap;
    let bodies: HashMap<&str, &XqExpr> =
        q.functions.iter().map(|f| (f.name.as_str(), &f.body)).collect();

    // Pass 1 — call-graph fixpoint: propagate call-site positions into
    // function bodies. Re-scanning a body when its mode strengthens lets
    // the new position flow on to its callees; modes strengthen at most
    // twice per function, so the worklist terminates even on recursion.
    let mut modes: HashMap<&str, BodyMode> = HashMap::new();
    let mut work: Vec<(&XqExpr, bool)> = vec![(&q.body, true)];
    for v in &q.variables {
        work.push((&v.value, false));
    }
    while let Some((e, emitting)) = work.pop() {
        let mut calls: Vec<(&str, bool)> = Vec::new();
        let mut scratch = EmissionReport::default();
        visit(e, emitting, &mut scratch, &mut |name, pos| calls.push((name, pos)));
        for (name, pos) in calls {
            let Some((&key, &body)) = bodies.get_key_value(name) else { continue };
            let cur = modes.get(key).copied().unwrap_or(BodyMode::Unseen);
            let next = cur.max(if pos { BodyMode::Emit } else { BodyMode::Spill });
            if next != cur {
                modes.insert(key, next);
                work.push((body, next == BodyMode::Emit));
            }
        }
    }

    // Pass 2 — count constructor sites, each function body exactly once,
    // in the mode the fixpoint settled on.
    let mut report = EmissionReport::default();
    for v in &q.variables {
        visit(&v.value, false, &mut report, &mut |_, _| {});
    }
    for f in &q.functions {
        let emitting =
            modes.get(f.name.as_str()).copied().unwrap_or(BodyMode::Unseen) == BodyMode::Emit;
        visit(&f.body, emitting, &mut report, &mut |_, _| {});
    }
    visit(&q.body, true, &mut report, &mut |_, _| {});
    report
}

/// Walk `e`, counting constructor sites into `report` and reporting each
/// function-call site's `(name, emitting)` position to `on_call`.
fn visit<'e>(
    e: &'e XqExpr,
    emitting: bool,
    report: &mut EmissionReport,
    on_call: &mut dyn FnMut(&'e str, bool),
) {
    match e {
        // Emission position propagates through exactly the shapes the
        // sink-mode evaluator keeps streaming.
        XqExpr::Seq(es) => es.iter().for_each(|x| visit(x, emitting, report, on_call)),
        XqExpr::If { cond, then, els } => {
            visit(cond, false, report, on_call);
            visit(then, emitting, report, on_call);
            visit(els, emitting, report, on_call);
        }
        XqExpr::Flwor { clauses, where_clause, order_by, ret } => {
            for c in clauses {
                match c {
                    Clause::For { source, .. } => visit(source, false, report, on_call),
                    Clause::Let { value, .. } => visit(value, false, report, on_call),
                }
            }
            if let Some(w) = where_clause {
                visit(w, false, report, on_call);
            }
            for o in order_by {
                visit(&o.key, false, report, on_call);
            }
            visit(ret, emitting, report, on_call);
        }
        XqExpr::Annotated { expr, .. } => visit(expr, emitting, report, on_call),

        // Constructor sites: counted on the side their position decides.
        XqExpr::DirectElem { attrs, content, .. } => {
            count_site(emitting, report);
            for (_, parts) in attrs {
                for p in parts {
                    if let AttrValuePart::Expr(e) = p {
                        visit(e, false, report, on_call);
                    }
                }
            }
            // Direct content inherits the element's position: a nested
            // constructor streams iff its parent streams.
            content.iter().for_each(|c| visit(c, emitting, report, on_call));
        }
        XqExpr::CompElem { name, content } => {
            count_site(emitting, report);
            visit(name, false, report, on_call);
            visit(content, emitting, report, on_call);
        }
        XqExpr::CompAttr { name, value } => {
            count_site(emitting, report);
            visit(name, false, report, on_call);
            visit(value, false, report, on_call);
        }
        XqExpr::CompText(inner) | XqExpr::CompComment(inner) => {
            count_site(emitting, report);
            visit(inner, false, report, on_call);
        }
        XqExpr::CompPi { content, .. } => {
            count_site(emitting, report);
            visit(content, false, report, on_call);
        }

        // A call site: arguments are re-inspected (bound to parameters),
        // the call itself is reported so the caller can propagate its
        // position into the callee's body.
        XqExpr::Call { name, args } => {
            args.iter().for_each(|a| visit(a, false, report, on_call));
            on_call(name.as_str(), emitting);
        }

        // Everything else re-inspects its operands: recurse in spill
        // position.
        XqExpr::Or(a, b)
        | XqExpr::And(a, b)
        | XqExpr::Union(a, b)
        | XqExpr::Compare(_, a, b)
        | XqExpr::Arith(_, a, b) => {
            visit(a, false, report, on_call);
            visit(b, false, report, on_call);
        }
        XqExpr::Neg(a) | XqExpr::InstanceOf(a, _) => visit(a, false, report, on_call),
        XqExpr::Path { start, steps } => {
            if let PathStart::Expr(e) = start {
                visit(e, false, report, on_call);
            }
            for s in steps {
                s.predicates.iter().for_each(|p| visit(p, false, report, on_call));
            }
        }
        XqExpr::Filter { base, predicates } => {
            visit(base, false, report, on_call);
            predicates.iter().for_each(|p| visit(p, false, report, on_call));
        }

        XqExpr::StrLit(_)
        | XqExpr::NumLit(_)
        | XqExpr::VarRef(_)
        | XqExpr::ContextItem
        | XqExpr::TextContent(_)
        | XqExpr::Empty => {}
    }
}

fn count_site(emitting: bool, report: &mut EmissionReport) {
    if emitting {
        report.emit_sites += 1;
    } else {
        report.spill_sites += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn analyze(src: &str) -> EmissionReport {
        analyze_query(&parse_query(src).unwrap())
    }

    #[test]
    fn top_level_constructor_emits() {
        let r = analyze("<a><b/></a>");
        assert_eq!(r, EmissionReport { emit_sites: 2, spill_sites: 0 });
        assert!(r.spill_free());
    }

    #[test]
    fn flwor_return_emits_sources_spill() {
        // The constructor in the return streams; the one inside the
        // where-clause comparison must be re-inspected.
        let r = analyze("for $e in /r/e where $e = <probe/> return <out/>");
        assert_eq!(r, EmissionReport { emit_sites: 1, spill_sites: 1 });
    }

    #[test]
    fn predicate_over_fresh_element_spills() {
        let r = analyze("<out>{(<probe><v>1</v></probe>)[v = 1]}</out>");
        assert_eq!(r.emit_sites, 1);
        // <probe> and its nested <v> both sit under the filter base.
        assert_eq!(r.spill_sites, 2);
    }

    #[test]
    fn function_called_from_emission_position_streams_its_body() {
        let r = analyze("declare function local:w($n) { <w>{fn:string($n)}</w> }; local:w(/r)");
        assert_eq!(r, EmissionReport { emit_sites: 1, spill_sites: 0 });
        assert!(r.spill_free());
    }

    #[test]
    fn function_called_from_spill_position_spills_its_body() {
        // The only call site sits inside a where clause, so the body's
        // constructor must be materialised for re-inspection.
        let r = analyze(
            "declare function local:p($n) { <p>{fn:string($n)}</p> }; \
             for $e in /r/e where local:p($e) return <out/>",
        );
        assert_eq!(r, EmissionReport { emit_sites: 1, spill_sites: 1 });
        assert!(!r.spill_free());
    }

    #[test]
    fn one_spill_call_site_forces_the_whole_body_to_spill() {
        // Called from both positions: the spill site wins (conservative).
        let r = analyze(
            "declare function local:w($n) { <w/> }; \
             (local:w(/r), fn:count(local:w(/r)))",
        );
        assert_eq!(r, EmissionReport { emit_sites: 0, spill_sites: 1 });
    }

    #[test]
    fn recursive_function_reaches_fixpoint_as_emitting() {
        // Self-recursive template function, called only from emission
        // positions (body return + query body): the fixpoint must settle
        // on Emit without looping.
        let r = analyze(
            "declare function local:down($n) { \
               if ($n = 0) then <leaf/> else <node>{local:down($n - 1)}</node> \
             }; local:down(3)",
        );
        assert_eq!(r, EmissionReport { emit_sites: 2, spill_sites: 0 });
        assert!(r.spill_free());
    }

    #[test]
    fn conditional_branches_inherit_position() {
        let r = analyze("if (/r/a) then <yes/> else <no/>");
        assert_eq!(r, EmissionReport { emit_sites: 2, spill_sites: 0 });
    }

    #[test]
    fn order_by_keeps_return_in_emission_position() {
        let r = analyze("for $e in /r/e order by $e/n return <out>{fn:string($e/n)}</out>");
        assert_eq!(r, EmissionReport { emit_sites: 1, spill_sites: 0 });
    }

    #[test]
    fn computed_constructors_count_by_position() {
        let r = analyze("element {'e'} {attribute {'k'} {'v'}, text {'t'}}");
        // element + attribute + text all stream (attribute/text content
        // are string-built, not tree-built, on the sink path).
        assert_eq!(r, EmissionReport { emit_sites: 3, spill_sites: 0 });
    }
}
