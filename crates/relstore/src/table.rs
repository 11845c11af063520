//! Heap tables.
//!
//! A [`Table`] is a schema plus rows behind **one access seam**: callers
//! read through [`value`](Table::value) / [`value_by_name`](Table::value_by_name) /
//! [`row_ref`](Table::row_ref) / [`cursor`](Table::cursor) / [`for_each_row`](Table::for_each_row)
//! and write through [`insert`](Table::insert) — the row container itself is
//! private. Behind the seam live two backings:
//!
//! * `Mem` — the original `Vec<Vec<Datum>>`, still the default: tests, the
//!   serve path and small catalogs behave exactly as before.
//! * `Paged` — an append-only [`HeapFile`](crate::pool::HeapFile) of slotted
//!   pages resident only via a shared [`BufferPool`](crate::pool::BufferPool),
//!   so a table can be arbitrarily larger than memory.
//!
//! Every accessor is bounds-checked and returns a typed [`StoreError`] for a
//! stale or out-of-range `RowId` — the storage tier never panics on bad row
//! coordinates, whichever backing is live.

use crate::datum::{ColType, Datum};
use crate::pool::{BufferPool, HeapFile};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;
use xsltdb_xml::GuardExceeded;

/// Row identifier within a table (heap position).
pub type RowId = usize;

/// A column definition.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: String,
    pub ty: ColType,
}

/// An error from the storage layer.
///
/// A guard trip that surfaces through the store (a scan, a publishing
/// expression, or a streaming sink refusing to emit) keeps its structured
/// [`GuardExceeded`] evidence attached — callers above (the pipeline's
/// lattice in particular, which demotes a plan on an engine failure but
/// never on a trip) tell "budget exhausted" from "engine failure" by the
/// error value itself, without depending on the `Guard::trip` side channel
/// or parsing messages.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreError {
    message: String,
    trip: Option<GuardExceeded>,
}

impl StoreError {
    /// A plain (non-trip) store error.
    pub fn new(message: impl Into<String>) -> StoreError {
        StoreError { message: message.into(), trip: None }
    }

    /// A store error carrying the structured evidence of a guard trip.
    pub fn from_trip(trip: GuardExceeded) -> StoreError {
        StoreError { message: trip.to_string(), trip: Some(trip) }
    }

    /// The failure message (without the `store error:` prefix).
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The guard trip this error carries, when it is a budget trip.
    pub fn trip(&self) -> Option<GuardExceeded> {
        self.trip
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "store error: {}", self.message)
    }
}

impl std::error::Error for StoreError {}

/// The physical backing of a table's rows — the private half of the seam.
#[derive(Debug)]
enum TableStorage {
    /// Rows fully resident in memory (the default).
    Mem(Vec<Vec<Datum>>),
    /// Rows in slotted heap pages, resident only via the buffer pool.
    Paged(HeapFile),
}

/// A heap table: schema plus rows.
#[derive(Debug)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    storage: TableStorage,
}

impl Clone for Table {
    /// Cloning snapshots the rows. A paged table materialises into a `Mem`
    /// clone: catalog clones are consistency *snapshots* (sessions keep
    /// executing against the shape they planned for), so they must not
    /// share mutable pages with the original — and they are short-lived by
    /// contract, so memory residency is acceptable.
    fn clone(&self) -> Table {
        let storage = match &self.storage {
            TableStorage::Mem(rows) => TableStorage::Mem(rows.clone()),
            TableStorage::Paged(h) => {
                let mut rows = Vec::with_capacity(h.row_count());
                for p in 0..h.page_count() {
                    rows.extend(
                        h.read_page_rows(p)
                            .expect("paged table unreadable while snapshotting"),
                    );
                }
                TableStorage::Mem(rows)
            }
        };
        Table { name: self.name.clone(), columns: self.columns.clone(), storage }
    }
}

impl Table {
    pub fn new(name: &str, columns: &[(&str, ColType)]) -> Table {
        Table {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|(n, t)| Column { name: n.to_string(), ty: *t })
                .collect(),
            storage: TableStorage::Mem(Vec::new()),
        }
    }

    pub fn col_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub(crate) fn col_type(&self, name: &str) -> Option<ColType> {
        self.col_index(name).and_then(|c| self.columns.get(c)).map(|c| c.ty)
    }

    /// Insert a row; validates arity and (loosely) types.
    pub fn insert(&mut self, row: Vec<Datum>) -> Result<RowId, StoreError> {
        if row.len() != self.columns.len() {
            return Err(StoreError::new(format!(
                "table {}: expected {} columns, got {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (c, d) in self.columns.iter().zip(&row) {
            let ok = matches!(
                (c.ty, d),
                (_, Datum::Null)
                    | (ColType::Int, Datum::Int(_))
                    | (ColType::Num, Datum::Num(_))
                    | (ColType::Num, Datum::Int(_))
                    | (ColType::Text, Datum::Text(_))
            );
            if !ok {
                return Err(StoreError::new(format!(
                    "table {}: column {} has type {:?}, got {d:?}",
                    self.name, c.name, c.ty
                )));
            }
        }
        match &mut self.storage {
            TableStorage::Mem(rows) => {
                rows.push(row);
                Ok(rows.len() - 1)
            }
            TableStorage::Paged(heap) => heap.append(&row),
        }
    }

    fn row_range_err(&self, row: RowId) -> StoreError {
        StoreError::new(format!(
            "table {}: row {row} out of range ({} rows)",
            self.name,
            self.row_count()
        ))
    }

    /// Read one field by column position. Bounds-checked on both
    /// coordinates: a stale `RowId` (or a bad column) is a typed
    /// [`StoreError`], never a panic.
    pub fn value(&self, row: RowId, col: usize) -> Result<Datum, StoreError> {
        if col >= self.columns.len() {
            return Err(StoreError::new(format!(
                "table {}: column {col} out of range ({} columns)",
                self.name,
                self.columns.len()
            )));
        }
        match &self.storage {
            TableStorage::Mem(rows) => rows
                .get(row)
                .and_then(|r| r.get(col))
                .cloned()
                .ok_or_else(|| self.row_range_err(row)),
            TableStorage::Paged(heap) => {
                let mut r = heap.get(row).map_err(|_| self.row_range_err(row))?;
                if col < r.len() {
                    Ok(r.swap_remove(col))
                } else {
                    Err(self.row_range_err(row))
                }
            }
        }
    }

    /// Value by column name; errors on unknown column or stale row.
    pub fn value_by_name(&self, row: RowId, col: &str) -> Result<Datum, StoreError> {
        let i = self
            .col_index(col)
            .ok_or_else(|| StoreError::new(format!("table {} has no column {col}", self.name)))?;
        self.value(row, i)
    }

    /// Read one whole row (bounds-checked) without copying what is already
    /// resident: a `Mem` row is borrowed, a paged row is decoded once (one
    /// pool fetch for all of its columns).
    pub fn row_ref(&self, row: RowId) -> Result<Cow<'_, [Datum]>, StoreError> {
        match &self.storage {
            TableStorage::Mem(rows) => rows
                .get(row)
                .map(|r| Cow::Borrowed(r.as_slice()))
                .ok_or_else(|| self.row_range_err(row)),
            TableStorage::Paged(heap) => {
                heap.get(row).map(Cow::Owned).map_err(|_| self.row_range_err(row))
            }
        }
    }

    pub fn row_count(&self) -> usize {
        match &self.storage {
            TableStorage::Mem(rows) => rows.len(),
            TableStorage::Paged(heap) => heap.row_count(),
        }
    }

    /// Is this table backed by heap pages (vs fully memory-resident)?
    pub fn is_paged(&self) -> bool {
        matches!(self.storage, TableStorage::Paged(_))
    }

    /// The buffer pool backing this table, when paged.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        match &self.storage {
            TableStorage::Mem(_) => None,
            TableStorage::Paged(heap) => Some(heap.pool()),
        }
    }

    /// Iterate all rows in RowId order. For a paged table the cursor
    /// buffers one decoded page at a time and holds **no** pin while rows
    /// are yielded — a full scan's pool footprint is a single frame.
    pub fn cursor(&self) -> RowCursor<'_> {
        RowCursor { table: self, next: 0, page_buf: Vec::new().into_iter(), next_page: 0, failed: false }
    }

    /// Visit every row through the seam without per-row allocation for the
    /// `Mem` backing (index builds and scans use this).
    pub fn for_each_row(
        &self,
        mut f: impl FnMut(RowId, &[Datum]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        match &self.storage {
            TableStorage::Mem(rows) => {
                for (rid, row) in rows.iter().enumerate() {
                    f(rid, row)?;
                }
                Ok(())
            }
            TableStorage::Paged(heap) => {
                let mut rid: RowId = 0;
                for p in 0..heap.page_count() {
                    for row in heap.read_page_rows(p)? {
                        f(rid, &row)?;
                        rid += 1;
                    }
                }
                Ok(())
            }
        }
    }

    /// Move a `Mem` table's rows into heap pages drawn from `pool`. Called
    /// by the catalog when a table is registered into a paged catalog; a
    /// table that is already paged is left where it is.
    pub(crate) fn migrate_to_pool(&mut self, pool: &Arc<BufferPool>) -> Result<(), StoreError> {
        let rows = match &mut self.storage {
            TableStorage::Paged(_) => return Ok(()),
            TableStorage::Mem(rows) => std::mem::take(rows),
        };
        let mut heap = HeapFile::create(pool)?;
        for row in &rows {
            heap.append(row)?;
        }
        self.storage = TableStorage::Paged(heap);
        Ok(())
    }
}

/// Iterator over `(RowId, row)` pairs; see [`Table::cursor`].
pub struct RowCursor<'t> {
    table: &'t Table,
    next: RowId,
    /// Decoded rows of the current page (paged backing only).
    page_buf: std::vec::IntoIter<Vec<Datum>>,
    next_page: u32,
    failed: bool,
}

impl Iterator for RowCursor<'_> {
    type Item = Result<(RowId, Vec<Datum>), StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match &self.table.storage {
            TableStorage::Mem(rows) => {
                let row = rows.get(self.next)?.clone();
                let rid = self.next;
                self.next += 1;
                Some(Ok((rid, row)))
            }
            TableStorage::Paged(heap) => loop {
                if let Some(row) = self.page_buf.next() {
                    let rid = self.next;
                    self.next += 1;
                    return Some(Ok((rid, row)));
                }
                if self.next_page >= heap.page_count() {
                    return None;
                }
                match heap.read_page_rows(self.next_page) {
                    Ok(rows) => {
                        self.next_page += 1;
                        self.page_buf = rows.into_iter();
                    }
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(e));
                    }
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dept() -> Table {
        let mut t = Table::new("dept", &[("deptno", ColType::Int), ("dname", ColType::Text)]);
        t.insert(vec![Datum::Int(10), Datum::Text("ACCOUNTING".into())]).unwrap();
        t.insert(vec![Datum::Int(40), Datum::Text("OPERATIONS".into())]).unwrap();
        t
    }

    fn paged(mut t: Table) -> Table {
        let pool = Arc::new(BufferPool::new(4));
        t.migrate_to_pool(&pool).unwrap();
        t
    }

    #[test]
    fn insert_and_read() {
        let t = dept();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.value(0, 1).unwrap(), Datum::Text("ACCOUNTING".into()));
        assert_eq!(t.value_by_name(1, "deptno").unwrap(), Datum::Int(40));
    }

    #[test]
    fn col_index_case_insensitive() {
        let t = dept();
        assert_eq!(t.col_index("DNAME"), Some(1));
        assert_eq!(t.col_index("nope"), None);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = dept();
        assert!(t.insert(vec![Datum::Int(1)]).is_err());
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = dept();
        assert!(t.insert(vec![Datum::Text("x".into()), Datum::Text("y".into())]).is_err());
    }

    #[test]
    fn null_allowed_everywhere() {
        let mut t = dept();
        t.insert(vec![Datum::Null, Datum::Null]).unwrap();
        assert!(t.value(2, 0).unwrap().is_null());
    }

    #[test]
    fn int_into_num_column_allowed() {
        let mut t = Table::new("m", &[("v", ColType::Num)]);
        t.insert(vec![Datum::Int(3)]).unwrap();
        assert_eq!(t.value(0, 0).unwrap().as_f64(), Some(3.0));
    }

    /// Regression (satellite 1): an out-of-range / stale `RowId` used to
    /// panic via `self.rows[row]`; it must be a typed `StoreError` — on
    /// *both* backings, since paging is exactly when RowIds can go stale.
    #[test]
    fn stale_rowid_is_typed_error_not_panic() {
        for t in [dept(), paged(dept())] {
            let stale: RowId = t.row_count(); // one past the end
            let err = t.value(stale, 0).unwrap_err();
            assert!(err.message().contains("out of range"), "{err}");
            let err = t.value_by_name(stale, "deptno").unwrap_err();
            assert!(err.message().contains("out of range"), "{err}");
            assert!(t.row_ref(stale).is_err());
            assert!(t.row_ref(usize::MAX).is_err());
            // Column coordinate is checked too.
            assert!(t.value(0, 99).is_err());
        }
    }

    #[test]
    fn paged_backing_reads_identically() {
        let m = dept();
        let p = paged(dept());
        assert!(p.is_paged() && !m.is_paged());
        assert_eq!(m.row_count(), p.row_count());
        for r in 0..m.row_count() {
            let (mr, pr) = (m.row_ref(r).unwrap(), p.row_ref(r).unwrap());
            assert!(matches!(mr, Cow::Borrowed(_)), "a Mem row is lent, not copied");
            assert_eq!(mr, pr);
            for c in 0..m.columns.len() {
                assert_eq!(m.value(r, c).unwrap(), p.value(r, c).unwrap());
            }
        }
    }

    #[test]
    fn paged_insert_appends_through_heap() {
        let mut p = paged(dept());
        let rid = p.insert(vec![Datum::Int(50), Datum::Text("RESEARCH".into())]).unwrap();
        assert_eq!(rid, 2);
        assert_eq!(p.value_by_name(2, "dname").unwrap(), Datum::Text("RESEARCH".into()));
    }

    #[test]
    fn cursor_yields_all_rows_in_order_on_both_backings() {
        for t in [dept(), paged(dept())] {
            let got: Vec<(RowId, Vec<Datum>)> =
                t.cursor().collect::<Result<_, _>>().unwrap();
            assert_eq!(got.len(), 2);
            assert_eq!(got[0].0, 0);
            assert_eq!(got[1].1[1], Datum::Text("OPERATIONS".into()));
        }
    }

    #[test]
    fn clone_of_paged_table_is_independent_snapshot() {
        let mut p = paged(dept());
        let snap = p.clone();
        assert!(!snap.is_paged(), "clones materialise to Mem");
        p.insert(vec![Datum::Int(99), Datum::Null]).unwrap();
        assert_eq!(p.row_count(), 3);
        assert_eq!(snap.row_count(), 2, "snapshot saw the append");
        assert_eq!(snap.value(0, 1).unwrap(), Datum::Text("ACCOUNTING".into()));
    }

    #[test]
    fn for_each_row_matches_cursor() {
        for t in [dept(), paged(dept())] {
            let mut seen = Vec::new();
            t.for_each_row(|rid, row| {
                seen.push((rid, row.to_vec()));
                Ok(())
            })
            .unwrap();
            let cur: Vec<(RowId, Vec<Datum>)> =
                t.cursor().collect::<Result<_, _>>().unwrap();
            assert_eq!(seen, cur);
        }
    }
}
