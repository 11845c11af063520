//! Append-only construction of [`Document`] arenas.

use crate::model::{Document, Node, NodeId, NodeKind};
use crate::qname::QName;

/// Builds a [`Document`] in document order.
///
/// The builder is the only way to create non-empty documents; it guarantees
/// that node ids are assigned in document order (attribute nodes directly
/// after their element, before its children), which the rest of the system
/// relies on for O(1) document-order comparison.
pub struct TreeBuilder {
    doc: Document,
    stack: Vec<NodeId>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    pub fn new() -> Self {
        TreeBuilder { doc: Document::new(), stack: vec![NodeId::DOCUMENT] }
    }

    fn append_child(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.doc.nodes.len() as u32);
        let parent = *self.stack.last().expect("builder stack never empty");
        let mut node = Node::new(kind);
        node.parent = Some(parent);
        node.prev_sibling = self.doc.nodes[parent.index()].last_child;
        self.doc.nodes.push(node);
        let pnode = &mut self.doc.nodes[parent.index()];
        if pnode.first_child.is_none() {
            pnode.first_child = Some(id);
        }
        if let Some(prev) = pnode.last_child {
            self.doc.nodes[prev.index()].next_sibling = Some(id);
        }
        self.doc.nodes[parent.index()].last_child = Some(id);
        id
    }

    /// Open an element; subsequent nodes become its children until
    /// [`end_element`](Self::end_element).
    pub fn start_element(&mut self, name: QName) -> NodeId {
        let id = self.append_child(NodeKind::Element { name, attrs: Vec::new() });
        self.stack.push(id);
        id
    }

    /// Add an attribute to the currently open element.
    ///
    /// Panics if no element is open or if content has already been added to
    /// it — attributes must precede children, as in serialized XML. Setting
    /// an attribute that already exists replaces its value (last write wins,
    /// matching `xsl:attribute` semantics).
    pub fn attribute(&mut self, name: QName, value: impl Into<String>) {
        let cur = *self.stack.last().expect("builder stack never empty");
        assert_ne!(cur, NodeId::DOCUMENT, "attribute outside an element");
        assert!(
            self.doc.nodes[cur.index()].first_child.is_none(),
            "attributes must be added before child content"
        );
        // Last write wins when the name repeats.
        let existing = self.doc.attributes(cur).iter().copied().find(|&a| {
            matches!(self.doc.kind(a), NodeKind::Attribute { name: n, .. } if n == &name)
        });
        if let Some(a) = existing {
            if let NodeKind::Attribute { value: v, .. } = &mut self.doc.nodes[a.index()].kind {
                *v = value.into();
            }
            return;
        }
        let id = NodeId(self.doc.nodes.len() as u32);
        let mut node = Node::new(NodeKind::Attribute { name, value: value.into() });
        node.parent = Some(cur);
        self.doc.nodes.push(node);
        match &mut self.doc.nodes[cur.index()].kind {
            NodeKind::Element { attrs, .. } => attrs.push(id),
            _ => unreachable!("stack entries above the root are elements"),
        }
    }

    /// Fallible form of [`attribute`](Self::attribute) for callers (the XSLT
    /// engine) that must report, not panic, when an attribute arrives too
    /// late or outside an element.
    pub fn try_attribute(
        &mut self,
        name: QName,
        value: impl Into<String>,
    ) -> Result<(), &'static str> {
        let cur = *self.stack.last().expect("builder stack never empty");
        if cur == NodeId::DOCUMENT {
            return Err("attribute outside an element");
        }
        if self.doc.nodes[cur.index()].first_child.is_some() {
            return Err("attributes must be added before child content");
        }
        self.attribute(name, value);
        Ok(())
    }

    /// Close the currently open element.
    pub fn end_element(&mut self) {
        assert!(self.stack.len() > 1, "end_element without start_element");
        self.stack.pop();
    }

    /// Append a text node, merging with an immediately preceding text node
    /// (the XPath data model never has adjacent text siblings).
    pub fn text(&mut self, content: &str) {
        if content.is_empty() {
            return;
        }
        let parent = *self.stack.last().expect("builder stack never empty");
        if let Some(last) = self.doc.nodes[parent.index()].last_child {
            if let NodeKind::Text(t) = &mut self.doc.nodes[last.index()].kind {
                t.push_str(content);
                return;
            }
        }
        self.append_child(NodeKind::Text(content.to_string()));
    }

    pub fn comment(&mut self, content: impl Into<String>) {
        self.append_child(NodeKind::Comment(content.into()));
    }

    pub fn pi(&mut self, target: impl Into<String>, data: impl Into<String>) {
        self.append_child(NodeKind::Pi { target: target.into(), data: data.into() });
    }

    /// Deep-copy the subtree rooted at `node` of `src` into the current
    /// position. Copying an element copies its attributes and descendants;
    /// copying the document node copies its children; copying an attribute
    /// node sets the attribute on the currently open element.
    pub fn copy_subtree(&mut self, src: &Document, node: NodeId) {
        match src.kind(node) {
            NodeKind::Document => {
                for c in src.children(node) {
                    self.copy_subtree(src, c);
                }
            }
            NodeKind::Element { name, attrs } => {
                self.start_element(name.clone());
                for &a in attrs.clone().iter() {
                    if let NodeKind::Attribute { name, value } = src.kind(a) {
                        self.attribute(name.clone(), value.clone());
                    }
                }
                for c in src.children(node) {
                    self.copy_subtree(src, c);
                }
                self.end_element();
            }
            NodeKind::Attribute { name, value } => {
                self.attribute(name.clone(), value.clone());
            }
            NodeKind::Text(t) => self.text(t),
            NodeKind::Comment(t) => self.comment(t.clone()),
            NodeKind::Pi { target, data } => self.pi(target.clone(), data.clone()),
        }
    }

    /// Number of currently open elements (0 at the top level).
    pub fn depth(&self) -> usize {
        self.stack.len() - 1
    }

    /// True when nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.doc.is_empty()
    }

    /// Finish building. Panics if elements are still open.
    pub fn finish(self) -> Document {
        assert_eq!(self.stack.len(), 1, "unclosed elements at finish");
        self.doc
    }

    /// Finish building, closing any still-open elements first.
    pub fn finish_lenient(mut self) -> Document {
        while self.stack.len() > 1 {
            self.stack.pop();
        }
        self.doc
    }
}

/// Convenience: build a document with a single element containing text.
pub fn text_element(name: &str, text: &str) -> Document {
    let mut b = TreeBuilder::new();
    b.start_element(QName::local(name));
    b.text(text);
    b.end_element();
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_siblings_correctly() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.start_element(QName::local("a"));
        b.end_element();
        b.start_element(QName::local("b"));
        b.end_element();
        b.end_element();
        let d = b.finish();
        let r = d.root_element().unwrap();
        let kids: Vec<_> = d.children(r).collect();
        assert_eq!(kids.len(), 2);
        assert_eq!(d.node(kids[0]).next_sibling, Some(kids[1]));
        assert_eq!(d.node(kids[1]).prev_sibling, Some(kids[0]));
        assert_eq!(d.node(kids[1]).next_sibling, None);
    }

    #[test]
    fn adjacent_text_merges() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.text("foo");
        b.text("bar");
        b.end_element();
        let d = b.finish();
        let r = d.root_element().unwrap();
        assert_eq!(d.children(r).count(), 1);
        assert_eq!(d.string_value(r), "foobar");
    }

    #[test]
    fn empty_text_ignored() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.text("");
        b.end_element();
        let d = b.finish();
        assert_eq!(d.children(d.root_element().unwrap()).count(), 0);
    }

    #[test]
    fn duplicate_attribute_last_wins() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.attribute(QName::local("a"), "1");
        b.attribute(QName::local("a"), "2");
        b.end_element();
        let d = b.finish();
        let r = d.root_element().unwrap();
        assert_eq!(d.attributes(r).len(), 1);
        assert_eq!(d.attribute(r, "a"), Some("2"));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_with_open_element_panics() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        let _ = b.finish();
    }

    #[test]
    fn finish_lenient_closes() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        let d = b.finish_lenient();
        assert!(d.root_element().is_some());
    }

    #[test]
    fn copy_subtree_deep_with_attrs() {
        let mut b0 = TreeBuilder::new();
        b0.start_element(QName::local("x"));
        b0.attribute(QName::local("k"), "v");
        b0.text("hello");
        b0.end_element();
        let src = b0.finish();

        let mut b = TreeBuilder::new();
        b.start_element(QName::local("wrap"));
        b.copy_subtree(&src, src.root_element().unwrap());
        b.end_element();
        let d = b.finish();
        let wrap = d.root_element().unwrap();
        let x = d.child_element(wrap, "x").unwrap();
        assert_eq!(d.string_value(x), "hello");
        assert_eq!(d.attribute(x, "k"), Some("v"));
    }

    #[test]
    fn copy_attribute_node_sets_attribute() {
        let mut b0 = TreeBuilder::new();
        b0.start_element(QName::local("x"));
        b0.attribute(QName::local("k"), "v");
        b0.end_element();
        let src = b0.finish();
        let attr = src.attributes(src.root_element().unwrap())[0];

        let mut b = TreeBuilder::new();
        b.start_element(QName::local("y"));
        b.copy_subtree(&src, attr);
        b.end_element();
        let d = b.finish();
        assert_eq!(d.attribute(d.root_element().unwrap(), "k"), Some("v"));
    }

    #[test]
    #[should_panic(expected = "before child content")]
    fn attribute_after_content_panics() {
        let mut b = TreeBuilder::new();
        b.start_element(QName::local("r"));
        b.text("hi");
        b.attribute(QName::local("late"), "x");
    }
}
