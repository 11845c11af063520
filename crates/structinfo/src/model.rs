//! The XML structural-information model (paper §3.2): element declarations
//! with model groups, cardinalities, and — when the structure comes from a
//! SQL/XML publishing view — bindings back to relational columns and row
//! sources, which are what the XQuery→SQL/XML rewrite consumes.

use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{AggOrder, AggPredTerm, PubExpr};

/// Children model group (XML Schema terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelGroup {
    /// Children appear in declaration order.
    Sequence,
    /// Exactly one of the declared children appears.
    Choice,
    /// All children appear, in any order.
    All,
}

/// Cardinality of a child within its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cardinality {
    /// Exactly one (`LET`-bindable, no iteration).
    One,
    /// Zero or one.
    Optional,
    /// Zero or more / one or more (`FOR`-iterated).
    Many,
}

impl Cardinality {
    pub fn is_many(self) -> bool {
        matches!(self, Cardinality::Many)
    }

    pub fn from_occurs(min: u32, max: Option<u32>) -> Cardinality {
        match (min, max) {
            (_, None) => Cardinality::Many,
            (_, Some(m)) if m > 1 => Cardinality::Many,
            (0, _) => Cardinality::Optional,
            _ => Cardinality::One,
        }
    }
}

/// How the rows that produce repeated instances of an element are obtained
/// (view-derived structures only).
#[derive(Debug, Clone, PartialEq)]
pub struct RowSource {
    /// The table iterated by the `XMLAgg` subquery.
    pub table: String,
    /// The subquery's predicate terms (correlation + constants).
    pub predicate: Vec<AggPredTerm>,
    /// The subquery's `ORDER BY`: the view's document order of the rows.
    pub order_by: Vec<AggOrder>,
}

/// Where an element's text content comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentBinding {
    /// No known binding (schema/DTD-derived, or complex content).
    Unbound,
    /// The text is produced by this publishing expression (usually a plain
    /// column reference) — the handle the SQL rewrite uses.
    Pub(PubExpr),
}

/// Declaration of one element.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemDecl {
    pub name: String,
    pub group: ModelGroup,
    pub children: Vec<ChildDecl>,
    /// The element may contain character data.
    pub has_text: bool,
    pub attributes: Vec<String>,
    /// Binding of the text content to relational data, if known.
    pub content: ContentBinding,
    /// Set when instances of this element are produced per row of a table.
    pub row_source: Option<RowSource>,
}

/// A child declaration with its cardinality.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildDecl {
    pub decl: ElemDecl,
    pub card: Cardinality,
}

impl ElemDecl {
    /// A text-only element declaration.
    pub fn leaf(name: &str) -> ElemDecl {
        ElemDecl {
            name: name.to_string(),
            group: ModelGroup::Sequence,
            children: Vec::new(),
            has_text: true,
            attributes: Vec::new(),
            content: ContentBinding::Unbound,
            row_source: None,
        }
    }

    /// An element with children (sequence group, no text).
    pub fn parent(name: &str, children: Vec<ChildDecl>) -> ElemDecl {
        ElemDecl {
            name: name.to_string(),
            group: ModelGroup::Sequence,
            children,
            has_text: false,
            attributes: Vec::new(),
            content: ContentBinding::Unbound,
            row_source: None,
        }
    }

    /// Find a direct child declaration by element name.
    pub fn child(&self, name: &str) -> Option<&ChildDecl> {
        self.children.iter().find(|c| c.decl.name == name)
    }

    /// Navigate a path of child element names.
    pub fn descend(&self, path: &[&str]) -> Option<&ElemDecl> {
        let mut cur = self;
        for p in path {
            cur = &cur.child(p)?.decl;
        }
        Some(cur)
    }

    /// Total number of element declarations in this subtree.
    pub fn decl_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.decl.decl_count()).sum::<usize>()
    }
}

/// Where the structural information came from (§3.2's bullet list).
#[derive(Debug, Clone, PartialEq)]
pub enum Origin {
    /// XML Schema registered for the XMLType (bullet 1).
    Schema,
    /// DTD of the XMLType (bullet 1).
    Dtd,
    /// SQL/XML publishing view over relational data (bullet 2): the base
    /// table with the view's own row filter and row order, which decide
    /// which documents exist and in what order.
    View { base_table: String, where_clause: Conjunction, order_by: Vec<AggOrder> },
    /// Static typing of an upstream XQuery/XSLT (bullets 3–4).
    StaticTyping,
    /// Hand-constructed (tests, examples).
    Manual,
}

/// Structural information for one XMLType input.
#[derive(Debug, Clone, PartialEq)]
pub struct StructInfo {
    pub root: ElemDecl,
    pub origin: Origin,
}

impl StructInfo {
    pub fn manual(root: ElemDecl) -> StructInfo {
        StructInfo { root, origin: Origin::Manual }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept() -> ElemDecl {
        ElemDecl::parent(
            "dept",
            vec![
                ChildDecl { decl: ElemDecl::leaf("dname"), card: Cardinality::One },
                ChildDecl {
                    decl: ElemDecl::parent(
                        "employees",
                        vec![ChildDecl { decl: ElemDecl::leaf("emp"), card: Cardinality::Many }],
                    ),
                    card: Cardinality::One,
                },
            ],
        )
    }

    #[test]
    fn navigation() {
        let d = dept();
        assert!(d.child("dname").is_some());
        assert!(d.child("nope").is_none());
        assert_eq!(d.descend(&["employees", "emp"]).unwrap().name, "emp");
        assert!(d.descend(&["emp"]).is_none());
    }

    #[test]
    fn decl_count() {
        assert_eq!(dept().decl_count(), 4);
    }

    #[test]
    fn cardinality_from_occurs() {
        assert_eq!(Cardinality::from_occurs(1, Some(1)), Cardinality::One);
        assert_eq!(Cardinality::from_occurs(0, Some(1)), Cardinality::Optional);
        assert_eq!(Cardinality::from_occurs(0, None), Cardinality::Many);
        assert_eq!(Cardinality::from_occurs(1, Some(5)), Cardinality::Many);
    }
}
