//! XMLType views over relational data (paper Table 3): a view produces one
//! XML document per row of its base table via SQL/XML publishing functions.

use crate::catalog::Catalog;
use crate::pubexpr::SqlXmlQuery;
use crate::stats::ExecStats;
use crate::table::StoreError;
use xsltdb_xml::{Document, FaultKind, FaultPoint, Guard};

/// An XMLType view definition.
#[derive(Debug, Clone, PartialEq)]
pub struct XmlView {
    pub name: String,
    pub query: SqlXmlQuery,
}

impl XmlView {
    pub fn new(name: &str, query: SqlXmlQuery) -> Self {
        XmlView { name: name.to_string(), query }
    }

    /// The view's read-set: every table its query can touch. See
    /// [`SqlXmlQuery::referenced_tables`].
    pub fn referenced_tables(&self) -> Vec<String> {
        self.query.referenced_tables()
    }

    /// Materialise the view: one document per base row. This is the
    /// expensive step the paper's rewrite avoids — the no-rewrite baseline
    /// must call this before it can run XSLT functionally.
    pub fn materialize(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
    ) -> Result<Vec<Document>, StoreError> {
        self.query.execute(catalog, stats)
    }

    /// Guarded materialisation: the scan and publishing work are charged
    /// against `guard`, and an armed [`FaultPoint::Materialize`] fault
    /// fires at entry.
    pub fn materialize_guarded(
        &self,
        catalog: &Catalog,
        stats: &ExecStats,
        guard: &Guard,
    ) -> Result<Vec<Document>, StoreError> {
        if let Some(kind) = guard.take_fault(FaultPoint::Materialize) {
            match kind {
                FaultKind::Error => {
                    return Err(StoreError::new(format!(
                        "injected fault materialising view {}",
                        self.name
                    )))
                }
                FaultKind::Panic => panic!("injected panic materialising view"),
            }
        }
        self.query.materialize(catalog, stats, guard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Conjunction;
    use crate::pubexpr::PubExpr;
    use crate::{datum::ColType, datum::Datum, table::Table};

    #[test]
    fn view_materializes_per_row() {
        let mut t = Table::new("t", &[("v", ColType::Int)]);
        t.insert(vec![Datum::Int(1)]).unwrap();
        t.insert(vec![Datum::Int(2)]).unwrap();
        let mut c = Catalog::new();
        c.add_table(t);
        let view = XmlView::new(
            "vu",
            SqlXmlQuery {
                base_table: "t".into(),
                where_clause: Conjunction::default(),
                order_by: Vec::new(),
                select: PubExpr::elem("row", vec![PubExpr::col("t", "v")]),
            },
        );
        c.add_view(view.clone());
        let stats = ExecStats::new();
        let docs = view.materialize(&c, &stats).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(xsltdb_xml::to_string(&docs[0]), "<row>1</row>");
        assert!(c.view("vu").is_ok());
    }
}
