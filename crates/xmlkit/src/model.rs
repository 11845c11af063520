//! Arena-based XML document model.
//!
//! Documents are built append-only (see [`crate::builder::TreeBuilder`]) and
//! are immutable afterwards, so `NodeId` order *is* document order and
//! document-order comparison is a single integer compare. This matters for
//! XPath, whose node-sets are kept sorted in document order.
//!
//! Attributes are arena nodes too (so the XPath attribute axis can return
//! them in ordinary node-sets), but they are *not* part of their element's
//! child list; they are reachable through [`Document::attributes`]. An
//! element's attribute nodes are allocated immediately after the element and
//! before its first child, which gives them the document-order position the
//! XPath data model requires.

use crate::qname::QName;
use std::rc::Rc;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The document (root) node of every arena.
    pub const DOCUMENT: NodeId = NodeId(0);

    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The payload of a node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The document root; exactly one per arena, always `NodeId(0)`.
    Document,
    Element { name: QName, attrs: Vec<NodeId> },
    /// An attribute node; `parent` links to the owning element, but the
    /// element's child list does not include it.
    Attribute { name: QName, value: String },
    Text(String),
    Comment(String),
    Pi { target: String, data: String },
}

/// One node in the arena, with structural links.
#[derive(Debug, Clone)]
pub struct Node {
    pub kind: NodeKind,
    pub parent: Option<NodeId>,
    pub prev_sibling: Option<NodeId>,
    pub next_sibling: Option<NodeId>,
    pub first_child: Option<NodeId>,
    pub last_child: Option<NodeId>,
}

impl Node {
    pub(crate) fn new(kind: NodeKind) -> Self {
        Node {
            kind,
            parent: None,
            prev_sibling: None,
            next_sibling: None,
            first_child: None,
            last_child: None,
        }
    }
}

/// An immutable XML document stored as a flat arena of nodes.
#[derive(Debug, Clone)]
pub struct Document {
    pub(crate) nodes: Vec<Node>,
}

/// A shared, immutable document. XQuery items and XSLT result-tree fragments
/// hold these so nodes from multiple documents can coexist in one sequence.
pub type DocRc = Rc<Document>;

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

impl Document {
    /// An empty document containing only the document node.
    pub fn new() -> Self {
        Document { nodes: vec![Node::new(NodeKind::Document)] }
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.nodes[id.index()].kind
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        // The document node is always present.
        self.nodes.len() <= 1
    }

    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.node(id).parent
    }

    pub fn is_attribute(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Attribute { .. })
    }

    pub fn is_text(&self, id: NodeId) -> bool {
        matches!(self.kind(id), NodeKind::Text(_))
    }

    /// The root element of the document, if any.
    pub fn root_element(&self) -> Option<NodeId> {
        self.children(NodeId::DOCUMENT)
            .find(|&c| matches!(self.kind(c), NodeKind::Element { .. }))
    }

    /// Element name, if `id` is an element.
    pub fn element_name(&self, id: NodeId) -> Option<&QName> {
        match self.kind(id) {
            NodeKind::Element { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Name of an element or attribute node.
    pub fn node_name(&self, id: NodeId) -> Option<&QName> {
        match self.kind(id) {
            NodeKind::Element { name, .. } | NodeKind::Attribute { name, .. } => Some(name),
            _ => None,
        }
    }

    /// Attribute node ids of an element (empty for other node kinds).
    pub fn attributes(&self, id: NodeId) -> &[NodeId] {
        match self.kind(id) {
            NodeKind::Element { attrs, .. } => attrs,
            _ => &[],
        }
    }

    /// Value of an attribute node.
    pub fn attr_value(&self, attr: NodeId) -> Option<&str> {
        match self.kind(attr) {
            NodeKind::Attribute { value, .. } => Some(value),
            _ => None,
        }
    }

    /// Attribute value of an element by local name.
    pub fn attribute(&self, id: NodeId, local: &str) -> Option<&str> {
        self.attributes(id).iter().find_map(|&a| match self.kind(a) {
            NodeKind::Attribute { name, value } if &*name.local == local => {
                Some(value.as_str())
            }
            _ => None,
        })
    }

    /// Iterator over the children of a node, in document order. Attribute
    /// nodes are not children.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children { doc: self, next: self.node(id).first_child }
    }

    /// Iterator over `id` and all its descendants, in document order.
    pub fn descendants_or_self(&self, id: NodeId) -> DescendantsOrSelf<'_> {
        DescendantsOrSelf { doc: self, root: id, next: Some(id) }
    }

    /// Iterator over the strict descendants of `id`, in document order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.descendants_or_self(id).skip(1)
    }

    /// Iterator over ancestors, nearest first.
    pub fn ancestors(&self, id: NodeId) -> Ancestors<'_> {
        Ancestors { doc: self, next: self.parent(id) }
    }

    /// The XPath string-value of a node: for elements and the document node,
    /// the concatenation of all descendant text; for attribute, text,
    /// comment and PI nodes, their own content.
    pub fn string_value(&self, id: NodeId) -> String {
        match self.kind(id) {
            NodeKind::Text(t) => t.clone(),
            NodeKind::Comment(t) => t.clone(),
            NodeKind::Attribute { value, .. } => value.clone(),
            NodeKind::Pi { data, .. } => data.clone(),
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                self.collect_text(id, &mut out);
                out
            }
        }
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        for c in self.children(id) {
            match self.kind(c) {
                NodeKind::Text(t) => out.push_str(t),
                NodeKind::Element { .. } => self.collect_text(c, out),
                _ => {}
            }
        }
    }

    /// First child element with the given local name.
    pub fn child_element(&self, id: NodeId, local: &str) -> Option<NodeId> {
        self.children(id)
            .find(|&c| self.element_name(c).is_some_and(|n| &*n.local == local))
    }

    /// All child elements with the given local name.
    pub fn child_elements<'a>(
        &'a self,
        id: NodeId,
        local: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id)
            .filter(move |&c| self.element_name(c).is_some_and(|n| &*n.local == local))
    }

    /// Count of all nodes of every kind (including the document node and
    /// attribute nodes).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// See [`Document::children`].
pub struct Children<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.node(cur).next_sibling;
        Some(cur)
    }
}

/// See [`Document::descendants_or_self`].
pub struct DescendantsOrSelf<'a> {
    doc: &'a Document,
    root: NodeId,
    next: Option<NodeId>,
}

impl Iterator for DescendantsOrSelf<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // Depth-first pre-order walk bounded by `root`.
        let node = self.doc.node(cur);
        self.next = if let Some(fc) = node.first_child {
            Some(fc)
        } else {
            let mut up = cur;
            loop {
                if up == self.root {
                    break None;
                }
                if let Some(ns) = self.doc.node(up).next_sibling {
                    break Some(ns);
                }
                match self.doc.node(up).parent {
                    Some(p) => up = p,
                    None => break None,
                }
            }
        };
        Some(cur)
    }
}

/// See [`Document::ancestors`].
pub struct Ancestors<'a> {
    doc: &'a Document,
    next: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.doc.node(cur).parent;
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TreeBuilder;

    fn sample() -> Document {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("dept"));
        b.attribute(QName::local("no"), "10");
        b.start_element(QName::local("dname"));
        b.text("ACCOUNTING");
        b.end_element();
        b.start_element(QName::local("loc"));
        b.text("NEW YORK");
        b.end_element();
        b.end_element();
        b.finish()
    }

    #[test]
    fn root_element_found() {
        let d = sample();
        let root = d.root_element().unwrap();
        assert_eq!(&*d.element_name(root).unwrap().local, "dept");
    }

    #[test]
    fn children_in_order_excluding_attrs() {
        let d = sample();
        let root = d.root_element().unwrap();
        let names: Vec<_> = d
            .children(root)
            .filter_map(|c| d.element_name(c).map(|n| n.local.to_string()))
            .collect();
        assert_eq!(names, ["dname", "loc"]);
        assert_eq!(d.children(root).count(), 2);
    }

    #[test]
    fn attribute_nodes_reachable() {
        let d = sample();
        let root = d.root_element().unwrap();
        let attrs = d.attributes(root);
        assert_eq!(attrs.len(), 1);
        assert_eq!(d.attr_value(attrs[0]), Some("10"));
        assert_eq!(d.parent(attrs[0]), Some(root));
        assert_eq!(d.string_value(attrs[0]), "10");
        assert_eq!(d.attribute(root, "no"), Some("10"));
    }

    #[test]
    fn attribute_precedes_children_in_doc_order() {
        let d = sample();
        let root = d.root_element().unwrap();
        let attr = d.attributes(root)[0];
        let first_child = d.children(root).next().unwrap();
        assert!(attr < first_child);
        assert!(root < attr);
    }

    #[test]
    fn string_value_concatenates() {
        let d = sample();
        let root = d.root_element().unwrap();
        assert_eq!(d.string_value(root), "ACCOUNTINGNEW YORK");
    }

    #[test]
    fn descendants_or_self_preorder() {
        let d = sample();
        let ids: Vec<_> = d.descendants_or_self(NodeId::DOCUMENT).collect();
        // Append-only build means document order == id order; attribute
        // nodes are not visited by the descendant walk.
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
        assert_eq!(ids.len(), d.node_count() - 1);
    }

    #[test]
    fn ancestors_nearest_first() {
        let d = sample();
        let dname = d.child_element(d.root_element().unwrap(), "dname").unwrap();
        let text = d.children(dname).next().unwrap();
        let anc: Vec<_> = d.ancestors(text).collect();
        assert_eq!(anc.len(), 3); // dname, dept, document
        assert_eq!(anc[2], NodeId::DOCUMENT);
    }

    #[test]
    fn child_element_lookup() {
        let d = sample();
        let root = d.root_element().unwrap();
        assert!(d.child_element(root, "loc").is_some());
        assert!(d.child_element(root, "nope").is_none());
    }

    #[test]
    fn empty_document() {
        let d = Document::new();
        assert!(d.is_empty());
        assert!(d.root_element().is_none());
        assert_eq!(d.string_value(NodeId::DOCUMENT), "");
    }
}
