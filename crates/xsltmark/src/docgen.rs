//! Synthetic workload documents modelled on XSLTMark's `db` family: a flat
//! master table of address rows. Generated three ways, all with identical
//! content for a given `(rows, seed)`:
//!
//! * XML text (for the plain-document/DTD path),
//! * a relational catalog plus publishing view (for the SQL-tier path —
//!   the storage model of the paper's Figure 2 experiment),
//! * structural information (from the DTD).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xsltdb_relstore::exec::Conjunction;
use xsltdb_relstore::pubexpr::{PubExpr, SqlXmlQuery};
use xsltdb_relstore::{Catalog, ColType, Datum, Table, XmlView};
use xsltdb_structinfo::{struct_of_dtd, StructInfo};

/// The DTD of the db document family.
pub const DB_DTD: &str = r#"
    <!ELEMENT table (row*)>
    <!ELEMENT row (id, firstname, lastname, street, city, state, zip)>
    <!ELEMENT id (#PCDATA)>
    <!ELEMENT firstname (#PCDATA)>
    <!ELEMENT lastname (#PCDATA)>
    <!ELEMENT street (#PCDATA)>
    <!ELEMENT city (#PCDATA)>
    <!ELEMENT state (#PCDATA)>
    <!ELEMENT zip (#PCDATA)>
"#;

const FIRST: &[&str] = &[
    "Al", "Bea", "Carl", "Dana", "Ed", "Flo", "Gus", "Hana", "Ike", "Jo", "Kim", "Lou",
];
const LAST: &[&str] = &[
    "Aranow", "Barker", "Corman", "Dole", "Eng", "Farris", "Gomez", "Hart", "Irwin",
    "Jones", "Katz", "Lane",
];
const CITY: &[&str] = &["Anytown", "Big City", "Centerville", "Dover", "Easton"];
const STATE: &[&str] = &["AL", "CA", "FL", "NY", "TX", "WA"];

/// One generated row.
#[derive(Debug, Clone)]
pub struct DbRow {
    pub id: i64,
    pub firstname: &'static str,
    pub lastname: &'static str,
    pub street: String,
    pub city: &'static str,
    pub state: &'static str,
    pub zip: i64,
}

/// Generate the rows deterministically.
pub fn db_rows(rows: usize, seed: u64) -> Vec<DbRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows)
        .map(|i| DbRow {
            // Unique, shuffled-looking ids.
            id: (i as i64) * 7919 % (rows.max(1) as i64 * 8) + 1,
            firstname: FIRST[rng.gen_range(0..FIRST.len())],
            lastname: LAST[rng.gen_range(0..LAST.len())],
            street: format!("{} Any St.", rng.gen_range(1..999)),
            city: CITY[rng.gen_range(0..CITY.len())],
            state: STATE[rng.gen_range(0..STATE.len())],
            zip: rng.gen_range(10000..99999),
        })
        .collect()
}

/// The id of a row guaranteed to exist (used by `dbonerow`).
pub fn existing_id(rows: usize) -> i64 {
    let mid = rows / 2;
    (mid as i64) * 7919 % (rows.max(1) as i64 * 8) + 1
}

/// The db document as XML text.
pub fn db_xml(rows: usize, seed: u64) -> String {
    let data = db_rows(rows, seed);
    let mut s = String::with_capacity(rows * 160 + 32);
    s.push_str("<table>");
    for r in &data {
        s.push_str(&format!(
            "<row><id>{}</id><firstname>{}</firstname><lastname>{}</lastname>\
             <street>{}</street><city>{}</city><state>{}</state><zip>{}</zip></row>",
            r.id, r.firstname, r.lastname, r.street, r.city, r.state, r.zip
        ));
    }
    s.push_str("</table>");
    s
}

/// Structural information of the db document (from its DTD).
pub fn db_struct_info() -> StructInfo {
    struct_of_dtd(DB_DTD, "table").expect("static DTD parses")
}

/// Add the db backing under explicit table/view names: a one-row anchor
/// table (the document), a row table with B-tree indexes on `id`, `zip`
/// and `state` (unless `indexed` is off), and the publishing view over
/// them. The helper behind [`db_catalog`] and [`db_catalog_family`].
///
/// Tables are registered *empty* and loaded through
/// [`Catalog::table_mut`]: in a paged catalog the registration migrates
/// the (empty) table onto heap pages first, so the bulk load streams
/// straight into the buffer pool and never builds a transient in-memory
/// copy of the row set.
fn add_db_tables(
    catalog: &mut Catalog,
    doc_table: &str,
    rows_table: &str,
    view_name: &str,
    rows: usize,
    seed: u64,
    indexed: bool,
) -> XmlView {
    catalog.add_table(Table::new(doc_table, &[("docid", ColType::Int)]));
    catalog.add_table(Table::new(
        rows_table,
        &[
            ("id", ColType::Int),
            ("firstname", ColType::Text),
            ("lastname", ColType::Text),
            ("street", ColType::Text),
            ("city", ColType::Text),
            ("state", ColType::Text),
            ("zip", ColType::Int),
        ],
    ));
    catalog
        .table_mut(doc_table)
        .expect("just added")
        .insert(vec![Datum::Int(1)])
        .expect("schema matches");
    let data = db_rows(rows, seed);
    let t = catalog.table_mut(rows_table).expect("just added");
    for r in &data {
        t.insert(vec![
            Datum::Int(r.id),
            Datum::Text(r.firstname.into()),
            Datum::Text(r.lastname.into()),
            Datum::Text(r.street.clone()),
            Datum::Text(r.city.into()),
            Datum::Text(r.state.into()),
            Datum::Int(r.zip),
        ])
        .expect("schema matches");
    }
    if indexed {
        catalog.create_index(rows_table, "id").expect("column exists");
        catalog.create_index(rows_table, "zip").expect("column exists");
        catalog.create_index(rows_table, "state").expect("column exists");
    }

    let leaf = |n: &str| PubExpr::elem(n, vec![PubExpr::col(rows_table, n)]);
    let view = XmlView::new(
        view_name,
        SqlXmlQuery {
            base_table: doc_table.into(),
            where_clause: Conjunction::default(),
            order_by: Vec::new(),
            select: PubExpr::elem(
                "table",
                vec![PubExpr::Agg {
                    table: rows_table.into(),
                    predicate: Vec::new(),
                    order_by: Vec::new(),
                    limit: None,
                    body: Box::new(PubExpr::elem(
                        "row",
                        vec![
                            leaf("id"),
                            leaf("firstname"),
                            leaf("lastname"),
                            leaf("street"),
                            leaf("city"),
                            leaf("state"),
                            leaf("zip"),
                        ],
                    )),
                }],
            ),
        },
    );
    catalog.add_view(view.clone());
    view
}

/// The relational backing: a one-row anchor table (the document), a row
/// table with B-tree indexes on `id`, `zip` and `state`, and the publishing
/// view that constructs the same XML as [`db_xml`].
pub fn db_catalog(rows: usize, seed: u64) -> (Catalog, XmlView) {
    let mut catalog = Catalog::new();
    let view = add_db_tables(&mut catalog, "db_doc", "db_rows", "db_vu", rows, seed, true);
    (catalog, view)
}

/// [`db_catalog`] re-backed by disk pages: the same tables and view, but
/// the catalog owns a [`BufferPool`](xsltdb_relstore::BufferPool) of
/// `frames` page frames and the row tables (and their B-tree indexes)
/// live in temp heap files, resident only through the pool. Content is
/// byte-identical to the in-memory catalog for a given `(rows, seed)`.
pub fn db_catalog_paged(rows: usize, seed: u64, frames: usize) -> (Catalog, XmlView) {
    let mut catalog = Catalog::new_paged(frames);
    let view = add_db_tables(&mut catalog, "db_doc", "db_rows", "db_vu", rows, seed, true);
    (catalog, view)
}

/// [`db_catalog`] without the B-tree indexes: same tables, same view,
/// full-scan-only access paths. Used as a lean in-memory reference when
/// differencing large paged runs, where the index side tables would
/// dominate the memory bill without changing the output bytes.
pub fn db_catalog_unindexed(rows: usize, seed: u64) -> (Catalog, XmlView) {
    let mut catalog = Catalog::new();
    let view = add_db_tables(&mut catalog, "db_doc", "db_rows", "db_vu", rows, seed, false);
    (catalog, view)
}

/// A *family* of identically-shaped db views in one catalog: view `i` is
/// `db_vu_{i}` over its own `db_doc_{i}`/`db_rows_{i}` tables, populated
/// with **different** data (`seed + i`) — so any plan-reuse bug that mixes
/// one view's rows into another's output is visible in the bytes, not
/// hidden by identical content. All views canonicalise to one shape, so a
/// canonical-key plan cache serves the whole family from single entries.
pub fn db_catalog_family(views: usize, rows: usize, seed: u64) -> (Catalog, Vec<XmlView>) {
    let mut catalog = Catalog::new();
    let views = (0..views)
        .map(|i| {
            add_db_tables(
                &mut catalog,
                &format!("db_doc_{i}"),
                &format!("db_rows_{i}"),
                &format!("db_vu_{i}"),
                rows,
                seed + i as u64,
                true,
            )
        })
        .collect();
    (catalog, views)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_relstore::ExecStats;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(db_xml(10, 42), db_xml(10, 42));
        assert_ne!(db_xml(10, 42), db_xml(10, 43));
    }

    #[test]
    fn xml_parses_and_matches_row_count() {
        let doc = xsltdb_xml::parse::parse(&db_xml(25, 1)).unwrap();
        let table = doc.root_element().unwrap();
        assert_eq!(doc.child_elements(table, "row").count(), 25);
    }

    #[test]
    fn view_materialization_equals_xml_text() {
        let rows = 12;
        let seed = 7;
        let (catalog, view) = db_catalog(rows, seed);
        let stats = ExecStats::new();
        let docs = view.materialize(&catalog, &stats).unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(xsltdb_xml::to_string(&docs[0]), db_xml(rows, seed));
    }

    #[test]
    fn paged_catalog_materializes_identical_bytes() {
        let rows = 200;
        let seed = 7;
        // 4 frames is far below the working set at 200 rows, so the scan
        // must survive eviction and re-reads through the pool.
        let (catalog, view) = db_catalog_paged(rows, seed, 4);
        assert!(catalog.table("db_rows").unwrap().is_paged());
        let stats = ExecStats::new();
        let docs = view.materialize(&catalog, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), db_xml(rows, seed));
        let pool = catalog.pool_stats().unwrap();
        assert!(pool.peak_resident_frames <= 4, "pool overran its budget: {pool:?}");
    }

    #[test]
    fn unindexed_catalog_materializes_identical_bytes() {
        let rows = 30;
        let seed = 3;
        let (catalog, view) = db_catalog_unindexed(rows, seed);
        let stats = ExecStats::new();
        let docs = view.materialize(&catalog, &stats).unwrap();
        assert_eq!(xsltdb_xml::to_string(&docs[0]), db_xml(rows, seed));
    }

    #[test]
    fn existing_id_is_present() {
        let rows = 40;
        let id = existing_id(rows);
        assert!(db_rows(rows, 9).iter().any(|r| r.id == id));
    }

    #[test]
    fn struct_info_has_row_fields() {
        let info = db_struct_info();
        assert_eq!(info.root.name, "table");
        let row = info.root.child("row").unwrap();
        assert!(row.card.is_many());
        assert!(row.decl.child("zip").is_some());
    }
}
