//! Partial evaluation (paper §4): run the XSLTVM over the structure's
//! sample document with trace instructions and conservative predicate
//! handling, and build the *template execution graph* whose states are
//! `(template, structural position)` pairs and whose transitions record
//! which templates each `<xsl:apply-templates>` site instantiates.

use crate::error::RewriteError;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use xsltdb_structinfo::{SampleDoc, SampleNode, StructInfo};
use xsltdb_xml::NodeId;
use xsltdb_xslt::trace::{TraceSink, Via};
use xsltdb_xslt::{transform_with, SiteId, Stylesheet, TemplateId, TransformOptions};

/// Index of a state in the execution graph.
pub type StateId = usize;

/// A graph state: a template (or the built-in rule) instantiated at a
/// structural position.
#[derive(Debug, Clone)]
pub struct State {
    /// `None` is the built-in template rule.
    pub template: Option<TemplateId>,
    pub node: SampleNode,
    /// Per call-site, the ordered list of `(matched node, target state)`
    /// transitions — the paper's trace-call-list.
    pub transitions: BTreeMap<SiteId, Vec<Transition>>,
}

/// One traced template activation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transition {
    pub node: SampleNode,
    pub target: StateId,
}

/// The template execution graph (paper §4.3).
#[derive(Debug, Clone)]
pub struct ExecGraph {
    pub states: Vec<State>,
    /// The state entered at the document root.
    pub root: StateId,
    /// A state re-entered while still active — inline mode is impossible.
    pub recursive: bool,
    /// Every user template that was instantiated at least once; the
    /// complement is removed by §3.7.
    pub instantiated: BTreeSet<TemplateId>,
}

impl ExecGraph {
    pub fn state(&self, id: StateId) -> &State {
        &self.states[id]
    }

    /// True when no user template ever ran — the §3.6 built-in-only case.
    pub(crate) fn builtin_only(&self) -> bool {
        self.instantiated.is_empty()
    }
}

/// Result of partial evaluation.
pub struct PeResult {
    pub graph: ExecGraph,
    pub sample: SampleDoc,
}

/// Run partial evaluation of a stylesheet against structural information.
pub fn partial_evaluate(
    sheet: &Stylesheet,
    info: &StructInfo,
) -> Result<PeResult, RewriteError> {
    let sample = SampleDoc::generate(info);
    let mut builder = GraphBuilder {
        sample: &sample,
        states: Vec::new(),
        index: HashMap::new(),
        stack: Vec::new(),
        root: None,
        recursive: false,
        instantiated: BTreeSet::new(),
    };
    let opts = TransformOptions { assume_predicates: true, max_depth: 96, ..Default::default() };
    transform_with(sheet, &sample.doc, &opts, &mut builder).map_err(|e| {
        RewriteError::new(format!(
            "partial evaluation failed (falling back to straightforward translation): {e}"
        ))
    })?;
    let root = builder
        .root
        .ok_or_else(|| RewriteError::new("partial evaluation produced no root state"))?;
    Ok(PeResult {
        graph: ExecGraph {
            states: builder.states,
            root,
            recursive: builder.recursive,
            instantiated: builder.instantiated,
        },
        sample,
    })
}

struct GraphBuilder<'a> {
    sample: &'a SampleDoc,
    states: Vec<State>,
    index: HashMap<(Option<TemplateId>, SampleNode), StateId>,
    stack: Vec<StateId>,
    root: Option<StateId>,
    recursive: bool,
    instantiated: BTreeSet<TemplateId>,
}

impl GraphBuilder<'_> {
    fn state_for(&mut self, template: Option<TemplateId>, node: SampleNode) -> StateId {
        if let Some(&id) = self.index.get(&(template, node.clone())) {
            return id;
        }
        let id = self.states.len();
        self.states.push(State { template, node: node.clone(), transitions: BTreeMap::new() });
        self.index.insert((template, node), id);
        id
    }
}

impl TraceSink for GraphBuilder<'_> {
    fn enter_template(&mut self, template: Option<TemplateId>, node: NodeId, via: Via) {
        let sn = self
            .sample
            .locate(node)
            .cloned()
            .unwrap_or(SampleNode::Root);
        let sid = self.state_for(template, sn.clone());
        if self.stack.contains(&sid) {
            self.recursive = true;
        }
        if let Some(t) = template {
            self.instantiated.insert(t);
        }
        match via {
            Via::Root => self.root = Some(sid),
            Via::Apply(site) | Via::Call(site) => {
                if let Some(&top) = self.stack.last() {
                    let t = Transition { node: sn, target: sid };
                    let list = self.states[top].transitions.entry(site).or_default();
                    if !list.contains(&t) {
                        list.push(t);
                    }
                }
            }
        }
        self.stack.push(sid);
    }

    fn leave_template(&mut self) {
        self.stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_structinfo::{Cardinality, ChildDecl, ElemDecl};
    use xsltdb_xslt::compile_str;

    fn dept_info() -> StructInfo {
        StructInfo::manual(ElemDecl::parent(
            "dept",
            vec![
                ChildDecl { decl: ElemDecl::leaf("dname"), card: Cardinality::One },
                ChildDecl { decl: ElemDecl::leaf("loc"), card: Cardinality::One },
                ChildDecl {
                    decl: ElemDecl::parent(
                        "employees",
                        vec![ChildDecl {
                            decl: ElemDecl::parent(
                                "emp",
                                vec![
                                    ChildDecl {
                                        decl: ElemDecl::leaf("empno"),
                                        card: Cardinality::One,
                                    },
                                    ChildDecl {
                                        decl: ElemDecl::leaf("sal"),
                                        card: Cardinality::One,
                                    },
                                ],
                            ),
                            card: Cardinality::Many,
                        }],
                    ),
                    card: Cardinality::One,
                },
            ],
        ))
    }

    fn wrap(body: &str) -> String {
        format!(
            r#"<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">{body}</xsl:stylesheet>"#
        )
    }

    #[test]
    fn paper_stylesheet_graph_is_acyclic() {
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dept"><H1/><xsl:apply-templates/></xsl:template>
               <xsl:template match="dname"><H2><xsl:value-of select="."/></H2></xsl:template>
               <xsl:template match="loc"><H2><xsl:value-of select="."/></H2></xsl:template>
               <xsl:template match="employees">
                 <xsl:apply-templates select="emp[sal &gt; 2000]"/>
               </xsl:template>
               <xsl:template match="emp"><tr/></xsl:template>
               <xsl:template match="text()"><xsl:value-of select="."/></xsl:template>"#,
        ))
        .unwrap();
        let pe = partial_evaluate(&sheet, &dept_info()).unwrap();
        assert!(!pe.graph.recursive);
        // Root state is the built-in rule at the document node.
        let root = pe.graph.state(pe.graph.root);
        assert_eq!(root.template, None);
        assert_eq!(root.node, SampleNode::Root);
        // The dept template ran, and its single apply site saw dname, loc
        // and employees (plus nothing else — `emp` is below employees).
        let dept_state = pe
            .graph
            .states
            .iter()
            .find(|s| s.template.is_some() && s.node == SampleNode::Element(vec![]))
            .expect("dept template state");
        let (_, trans) = dept_state.transitions.iter().next().expect("one apply site");
        let names: Vec<_> = trans.iter().map(|t| t.node.clone()).collect();
        assert_eq!(
            names,
            vec![
                SampleNode::Element(vec![0]),
                SampleNode::Element(vec![1]),
                SampleNode::Element(vec![2])
            ]
        );
        // Five templates instantiated: the text() template is dead in this
        // structure (no apply-templates ever selects a text node — the leaf
        // elements are handled by their own templates, not recursed into).
        assert_eq!(pe.graph.instantiated.len(), 5);
    }

    #[test]
    fn empty_stylesheet_is_builtin_only() {
        let sheet = compile_str(&wrap("")).unwrap();
        let pe = partial_evaluate(&sheet, &dept_info()).unwrap();
        assert!(pe.graph.builtin_only());
        assert!(!pe.graph.recursive);
    }

    #[test]
    fn value_predicate_assumed_true_in_trace() {
        // Without assume_predicates the emp[sal > 9999] select would match
        // nothing on the sample (sal sentinel is "0"); the trace must still
        // instantiate the emp template.
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dept">
                 <xsl:apply-templates select="employees/emp[sal &gt; 9999]"/>
               </xsl:template>
               <xsl:template match="emp"><hit/></xsl:template>"#,
        ))
        .unwrap();
        let pe = partial_evaluate(&sheet, &dept_info()).unwrap();
        assert_eq!(pe.graph.instantiated.len(), 2);
    }

    #[test]
    fn recursion_detected() {
        // A template that re-applies itself on the same node.
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dname">
                 <xsl:apply-templates select="."/>
               </xsl:template>"#,
        ))
        .unwrap();
        // The VM itself diverges on this (depth error) — PE reports failure.
        let r = partial_evaluate(&sheet, &dept_info());
        assert!(r.is_err());
    }

    #[test]
    fn dead_templates_not_instantiated() {
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="dept"><d/></xsl:template>
               <xsl:template match="never-matches"><n/></xsl:template>"#,
        ))
        .unwrap();
        let pe = partial_evaluate(&sheet, &dept_info()).unwrap();
        assert_eq!(pe.graph.instantiated.len(), 1);
    }

    #[test]
    fn conditional_pattern_traces_all_candidates() {
        let sheet = compile_str(&wrap(
            r#"<xsl:template match="emp/empno[. = 3456]" priority="1"><special/></xsl:template>
               <xsl:template match="emp/empno"><normal/></xsl:template>"#,
        ))
        .unwrap();
        let pe = partial_evaluate(&sheet, &dept_info()).unwrap();
        // Both templates traced: the predicated one is residual.
        assert_eq!(pe.graph.instantiated.len(), 2);
    }
}
