//! Canonicalisation of view-derived structures (ROADMAP: cross-document
//! plan reuse): replace every concrete table name in a [`StructInfo`] with
//! a symbolic slot (`$t0`, `$t1`, …) so that two views publishing the same
//! *shape* from differently-named relations canonicalise to byte-identical
//! structures — and therefore to the same fingerprint, the same rewrite,
//! and ultimately the same cached plan. The [`BindingTemplate`] remembers
//! which concrete table each slot stood for, so the plan can be re-bound to
//! any member of the shape family at execute time.
//!
//! Only *table* names are canonicalised. Element tags, attribute names and
//! column names are part of the shape: two views that publish different
//! tags or draw different columns are different transforms and must not
//! share a plan.

use crate::from_view::struct_of_view;
use crate::model::{ContentBinding, ElemDecl, StructInfo};
use xsltdb_relstore::binding::{fnv64, slot_name, SlotBindings};
use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr};
use xsltdb_relstore::view::XmlView;

/// A [`StructInfo`] whose table names are all symbolic slots, plus the
/// fingerprint that identifies the shape family.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalStruct {
    pub info: StructInfo,
    /// `struct_fingerprint` of the canonicalised structure — equal for all
    /// same-shaped views regardless of their table names.
    pub fingerprint: u64,
}

/// The concrete table that each slot replaced, in slot order: `tables[i]`
/// is what `$ti` stood for in the view this template was derived from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BindingTemplate {
    pub tables: Vec<String>,
}

impl BindingTemplate {
    pub fn slot_count(&self) -> usize {
        self.tables.len()
    }

    /// The execute-time binding that maps each slot back to the table it
    /// replaced — binding a canonical plan to its *own* view.
    pub fn bindings(&self) -> SlotBindings {
        SlotBindings::from_tables(&self.tables)
    }
}

/// Fingerprint of a structure: FNV-1a over its `Debug` rendering, which is
/// a complete, deterministic serialisation of the model. Canonicalise
/// first when the fingerprint should identify a shape *family* rather than
/// one concrete view.
pub fn struct_fingerprint(info: &StructInfo) -> u64 {
    fnv64(format!("{info:?}").as_bytes())
}

/// Slot assignment: concrete table names in deterministic first-visit
/// order. Repeat references to the same table map to the same slot, so a
/// view joining a table to itself keeps a different shape from one joining
/// two distinct tables.
#[derive(Default)]
struct Slots {
    tables: Vec<String>,
}

impl Slots {
    fn slot_of(&mut self, table: &str) -> String {
        let i = match self.tables.iter().position(|t| t == table) {
            Some(i) => i,
            None => {
                self.tables.push(table.to_string());
                self.tables.len() - 1
            }
        };
        slot_name(i)
    }

    fn rename(&mut self, table: &mut String) {
        *table = self.slot_of(table);
    }
}

/// Canonicalise a structure: every table name (in the origin, row sources,
/// and content publishing expressions) becomes a symbolic slot. Returns
/// the canonical structure with its family fingerprint and the template
/// mapping slots back to this structure's concrete tables.
pub fn canonicalize(info: &StructInfo) -> (CanonicalStruct, BindingTemplate) {
    let mut slots = Slots::default();
    let mut canon = info.clone();
    if let crate::model::Origin::View { base_table, .. } = &mut canon.origin {
        slots.rename(base_table);
    }
    canon_elem(&mut canon.root, &mut slots);
    let template = BindingTemplate { tables: slots.tables };
    let fingerprint = struct_fingerprint(&canon);
    (CanonicalStruct { info: canon, fingerprint }, template)
}

fn canon_elem(decl: &mut ElemDecl, slots: &mut Slots) {
    if let Some(rs) = &mut decl.row_source {
        slots.rename(&mut rs.table);
        for term in &mut rs.predicate {
            canon_term(term, slots);
        }
    }
    if let ContentBinding::Pub(expr) = &mut decl.content {
        canon_pub(expr, slots);
    }
    for child in &mut decl.children {
        canon_elem(&mut child.decl, slots);
    }
}

fn canon_term(term: &mut AggPredTerm, slots: &mut Slots) {
    if let AggPredTerm::Correlate { outer_table, .. } = term {
        slots.rename(outer_table);
    }
}

fn canon_pub(expr: &mut PubExpr, slots: &mut Slots) {
    match expr {
        PubExpr::Literal(_) => {}
        PubExpr::ColumnRef { table, .. } => slots.rename(table),
        PubExpr::Element { attrs, children, .. } => {
            for (_, v) in attrs {
                canon_pub(v, slots);
            }
            for c in children {
                canon_pub(c, slots);
            }
        }
        PubExpr::Concat(parts) | PubExpr::StrConcat(parts) => {
            for p in parts {
                canon_pub(p, slots);
            }
        }
        PubExpr::Agg { table, predicate, body, .. } => {
            slots.rename(table);
            for t in predicate {
                canon_term(t, slots);
            }
            canon_pub(body, slots);
        }
        PubExpr::Arith { left, right, .. } => {
            canon_pub(left, slots);
            canon_pub(right, slots);
        }
        PubExpr::Case { table, then, els, .. } => {
            slots.rename(table);
            canon_pub(then, slots);
            canon_pub(els, slots);
        }
        PubExpr::ScalarAgg { table, predicate, .. } => {
            slots.rename(table);
            for t in predicate {
                canon_term(t, slots);
            }
        }
        PubExpr::Comment(content) => canon_pub(content, slots),
        PubExpr::Pi { content, .. } => canon_pub(content, slots),
        PubExpr::RowNumber { table } => slots.rename(table),
    }
}

/// Everything the plan path needs to know about one view's canonical form:
/// the family fingerprint, the slot count, the execute-time bindings for
/// *this* view, and (when derivable) the canonical structure itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewCanon {
    /// Family fingerprint: canonical-structure fingerprint for derivable
    /// views; a per-view "unstructured" digest otherwise (never shared).
    pub fingerprint: u64,
    pub slot_count: usize,
    /// Slot → this view's concrete tables.
    pub bindings: SlotBindings,
    /// The canonicalised structure, when the view is derivable.
    pub canonical: Option<StructInfo>,
    /// The derivation error text for underivable views.
    pub note: Option<String>,
}

/// Canonicalise a view end to end: derive its structure, canonicalise it,
/// and package fingerprint + bindings. Underivable views get a fingerprint
/// salted with the derivation error (which names the view), so they can
/// never share a plan — exactly the old per-view fingerprint behaviour.
pub fn canonicalize_view(view: &XmlView) -> ViewCanon {
    match struct_of_view(view) {
        Ok(info) => {
            let (canon, template) = canonicalize(&info);
            ViewCanon {
                fingerprint: canon.fingerprint,
                slot_count: template.slot_count(),
                bindings: template.bindings(),
                canonical: Some(canon.info),
                note: None,
            }
        }
        Err(e) => ViewCanon {
            fingerprint: fnv64(format!("unstructured:{e}").as_bytes()),
            slot_count: 0,
            bindings: SlotBindings::identity(),
            canonical: None,
            note: Some(e.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_relstore::pubexpr::{AggPredTerm, PubExpr, SqlXmlQuery};
    use xsltdb_relstore::{ColumnCmp, Conjunction};
    use xsltdb_xpath::CmpOp;

    /// A view shaped like the paper's dept/emp publishing view, over
    /// arbitrarily-named tables.
    fn family_view(view: &str, dept: &str, emp: &str) -> XmlView {
        let select = PubExpr::elem(
            "dept",
            vec![
                PubExpr::elem("dname", vec![PubExpr::col(dept, "dname")]),
                PubExpr::Agg {
                    table: emp.to_string(),
                    predicate: vec![AggPredTerm::Correlate {
                        inner_column: "deptno".into(),
                        outer_table: dept.to_string(),
                        outer_column: "deptno".into(),
                    }],
                    order_by: Vec::new(),
                    limit: None,
                    body: Box::new(PubExpr::elem(
                        "emp",
                        vec![PubExpr::elem("ename", vec![PubExpr::col(emp, "ename")])],
                    )),
                },
            ],
        );
        XmlView::new(
            view,
            SqlXmlQuery {
                base_table: dept.to_string(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select,
            },
        )
    }

    #[test]
    fn same_shape_different_tables_canonicalise_identically() {
        let a = canonicalize_view(&family_view("va", "dept", "emp"));
        let b = canonicalize_view(&family_view("vb", "division", "worker"));
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.canonical, b.canonical, "canonical structures byte-identical");
        assert_eq!(a.slot_count, 2);
        // ... but the bindings remember each view's own tables.
        assert_eq!(a.bindings.get("$t0"), Some("dept"));
        assert_eq!(b.bindings.get("$t0"), Some("division"));
        assert_eq!(b.bindings.get("$t1"), Some("worker"));
    }

    #[test]
    fn slots_are_assigned_in_first_visit_order_and_dedup() {
        let v = family_view("v", "dept", "emp");
        let info = struct_of_view(&v).unwrap();
        let (canon, template) = canonicalize(&info);
        // dept is visited first (origin base table), emp second; the
        // correlate back to dept reuses $t0 rather than minting $t2.
        assert_eq!(template.tables, vec!["dept".to_string(), "emp".to_string()]);
        assert!(matches!(
            &canon.info.origin,
            crate::model::Origin::View { base_table, .. } if base_table == "$t0"
        ));
        let rendered = format!("{:?}", canon.info);
        assert!(!rendered.contains("table: \"dept\""), "concrete table left: {rendered}");
        assert!(!rendered.contains("table: \"emp\""), "concrete table left: {rendered}");
        assert!(!rendered.contains("base_table: \"dept\""), "concrete base left: {rendered}");
    }

    #[test]
    fn different_shape_means_different_fingerprint() {
        // Same tags, but the inner element draws a different column —
        // a different transform, so a different family.
        let mut alt = family_view("v", "dept", "emp");
        if let PubExpr::Element { children, .. } = &mut alt.query.select {
            children[0] = PubExpr::elem("dname", vec![PubExpr::col("dept", "loc")]);
        }
        let a = canonicalize_view(&family_view("v", "dept", "emp"));
        let b = canonicalize_view(&alt);
        assert_ne!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn view_row_order_and_filter_are_part_of_the_shape() {
        use xsltdb_relstore::pubexpr::AggOrder;
        let plain = canonicalize_view(&family_view("v", "dept", "emp"));
        let mut filtered = family_view("v", "dept", "emp");
        filtered.query.where_clause =
            Conjunction::single("deptno", CmpOp::Eq, xsltdb_relstore::Datum::Int(-1));
        let mut ordered = family_view("v", "dept", "emp");
        if let PubExpr::Element { children, .. } = &mut ordered.query.select {
            if let PubExpr::Agg { order_by, .. } = &mut children[1] {
                order_by.push(AggOrder { column: "ename".into(), descending: false, numeric: false });
            }
        }
        let filtered = canonicalize_view(&filtered);
        let ordered = canonicalize_view(&ordered);
        assert_ne!(plain.fingerprint, filtered.fingerprint);
        assert_ne!(plain.fingerprint, ordered.fingerprint);
        assert_ne!(filtered.fingerprint, ordered.fingerprint);
    }

    #[test]
    fn self_join_shape_differs_from_two_table_shape() {
        // Publishing emp-from-dept's-own-table is a different shape than
        // publishing from a second relation.
        let joined = canonicalize_view(&family_view("v", "dept", "emp"));
        let selfed = canonicalize_view(&family_view("v", "dept", "dept"));
        assert_ne!(joined.fingerprint, selfed.fingerprint);
        assert_eq!(selfed.slot_count, 1);
    }

    #[test]
    fn underivable_views_never_share_a_fingerprint() {
        let bare = |name: &str| {
            XmlView::new(
                name,
                SqlXmlQuery {
                    base_table: "t".into(),
                    where_clause: Conjunction::single("v", CmpOp::Eq, xsltdb_relstore::Datum::Int(1)),
                    order_by: Vec::new(),
                    select: PubExpr::lit("no root element"),
                },
            )
        };
        let a = canonicalize_view(&bare("va"));
        let b = canonicalize_view(&bare("vb"));
        assert!(a.canonical.is_none() && a.note.is_some());
        assert_ne!(a.fingerprint, b.fingerprint, "error text names the view");
        let _ = ColumnCmp::new("v", CmpOp::Eq, xsltdb_relstore::Datum::Int(1));
    }
}
