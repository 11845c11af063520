//! The catalog: tables, indexes and XMLType views.

use crate::index::Index;
use crate::pool::BufferPool;
use crate::stats::PoolSnapshot;
use crate::table::{StoreError, Table};
use crate::view::XmlView;
use std::collections::HashMap;
use std::sync::Arc;

/// Per-table version coordinates, maintained by the catalog.
///
/// `ddl_stamp` is the value of the *global* DDL clock at the last DDL that
/// touched this table (creation, replacement, index add/rebuild) — stamps
/// from different tables are comparable because they come from one clock.
/// `data_gen` is a per-table DML counter: every mutable access to the
/// table's rows bumps it, and nothing else does. Together they say "this
/// exact shape, this exact data".
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableMeta {
    pub ddl_stamp: u64,
    pub data_gen: u64,
}

/// A named snapshot of one table's [`TableMeta`] — the unit of a cached
/// result's *read-set*: the entry is valid exactly while every read table
/// still reports the same coordinates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableVersion {
    pub table: String,
    pub ddl_stamp: u64,
    pub data_gen: u64,
}

/// An in-memory database: tables, secondary indexes, XMLType views.
///
/// Every DDL change (table/view registration, index creation) bumps a
/// monotonic [generation counter](Self::generation). Prepared-plan caches
/// key their entries to the generation observed at planning time: a plan
/// built against an older catalog shape is stale — the planner might now
/// choose a different tier or access path — and must be rebuilt.
///
/// On top of the global clock the catalog keeps *per-table* coordinates
/// ([`TableMeta`]): the stamp of the last DDL that touched each table and a
/// DML data generation bumped by [`table_mut`](Self::table_mut). Caches that
/// know their read-set can use [`max_ddl_stamp`](Self::max_ddl_stamp) and
/// [`versions_of`](Self::versions_of) to invalidate narrowly — a DDL on an
/// unrelated table no longer has to nuke them.
///
/// `Clone` takes a full snapshot (tables, indexes, views, generation): a
/// session that clones the catalog keeps executing against the shape it
/// planned for even while DDL reshapes the original underneath it.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    indexes: Vec<Index>,
    views: HashMap<String, XmlView>,
    /// Monotonic DDL counter; see [`Self::generation`].
    generation: u64,
    /// Per-table DDL stamp + DML data generation.
    meta: HashMap<String, TableMeta>,
    /// When set, this catalog is *paged*: tables registered into it are
    /// migrated to heap pages and every table and index draws frames from
    /// this one shared pool — the catalog-wide memory budget. `None` (the
    /// default) keeps the original fully-memory-resident behaviour.
    pool: Option<Arc<BufferPool>>,
}

impl Catalog {
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog whose tables live in heap pages behind a shared
    /// [`BufferPool`] of `frame_budget` frames. Everything else (DDL
    /// clocks, views, cloning semantics) is identical to [`Self::new`];
    /// clones still snapshot (paged tables materialise into memory-backed
    /// copies), so consistency contracts of the layers above are unchanged.
    pub fn new_paged(frame_budget: usize) -> Self {
        Catalog { pool: Some(Arc::new(BufferPool::new(frame_budget))), ..Self::default() }
    }

    /// The shared buffer pool, when this catalog is paged.
    pub fn pool(&self) -> Option<&Arc<BufferPool>> {
        self.pool.as_ref()
    }

    /// Buffer-pool counters, when this catalog is paged.
    pub fn pool_stats(&self) -> Option<PoolSnapshot> {
        self.pool.as_ref().map(|p| p.stats())
    }

    /// The current DDL generation. Starts at 0 and increases by one for
    /// every [`add_table`](Self::add_table), [`add_view`](Self::add_view)
    /// and [`create_index`](Self::create_index) (including the rebuilds a
    /// [`reindex`](Self::reindex) performs). Plain data loading through
    /// [`table_mut`](Self::table_mut) is DML, not DDL, and does not bump.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn add_table(&mut self, table: Table) {
        let mut table = table;
        if let Some(pool) = &self.pool {
            // Registration into a paged catalog moves the rows into heap
            // pages. Failure here means the temp heap file could not be
            // created — unrecoverable for a paged catalog, so surface it
            // loudly rather than silently keeping an unbounded Mem table.
            table
                .migrate_to_pool(pool)
                .expect("migrating table into the catalog buffer pool");
        }
        let name = table.name.clone();
        self.tables.insert(name.clone(), table);
        self.generation += 1;
        let m = self.meta.entry(name).or_default();
        m.ddl_stamp = self.generation;
        // Replacing a table replaces its rows: that is a data change too.
        m.data_gen += 1;
    }

    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::new(format!("unknown table {name}")))
    }

    /// Mutable access for loading data. After bulk changes call
    /// [`reindex`](Self::reindex) to rebuild that table's indexes.
    ///
    /// Handing out the mutable borrow counts as a write: the table's
    /// [data generation](Self::data_generation) is bumped even if the
    /// caller ends up not touching a row — conservative, never stale.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        if !self.tables.contains_key(name) {
            return Err(StoreError::new(format!("unknown table {name}")));
        }
        self.meta.entry(name.to_string()).or_default().data_gen += 1;
        Ok(self
            .tables
            .get_mut(name)
            .expect("presence checked above"))
    }

    /// Create (or rebuild) a B-tree index on `table.column`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<(), StoreError> {
        let t = self.table(table)?;
        let idx = Index::build(t, column)?;
        self.indexes
            .retain(|i| !(i.table == table && i.column.eq_ignore_ascii_case(column)));
        self.indexes.push(idx);
        self.generation += 1;
        self.meta.entry(table.to_string()).or_default().ddl_stamp = self.generation;
        Ok(())
    }

    /// Rebuild every index on `table` (after data loading).
    pub fn reindex(&mut self, table: &str) -> Result<(), StoreError> {
        let columns: Vec<String> = self
            .indexes
            .iter()
            .filter(|i| i.table == table)
            .map(|i| i.column.clone())
            .collect();
        for c in columns {
            self.create_index(table, &c)?;
        }
        Ok(())
    }

    pub fn index_on(&self, table: &str, column: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|i| i.table == table && i.column.eq_ignore_ascii_case(column))
    }

    pub fn add_view(&mut self, view: XmlView) {
        self.views.insert(view.name.clone(), view);
        self.generation += 1;
    }

    pub fn view(&self, name: &str) -> Result<&XmlView, StoreError> {
        self.views
            .get(name)
            .ok_or_else(|| StoreError::new(format!("unknown view {name}")))
    }

    /// The per-table DML data generation — bumped by every
    /// [`table_mut`](Self::table_mut) and by table replacement, never by
    /// DDL on *other* tables. Unknown tables report 0.
    #[cfg(test)]
    fn data_generation(&self, table: &str) -> u64 {
        self.meta.get(table).map_or(0, |m| m.data_gen)
    }

    /// The global-clock stamp of the last DDL that touched `table`
    /// (creation, replacement, index create/rebuild). Unknown tables
    /// report 0.
    fn table_ddl_stamp(&self, table: &str) -> u64 {
        self.meta.get(table).map_or(0, |m| m.ddl_stamp)
    }

    /// The newest [`table_ddl_stamp`](Self::table_ddl_stamp) over `tables`:
    /// the earliest planning instant a cached plan bound to exactly these
    /// tables could still be valid at. An empty set yields 0 (nothing the
    /// plan reads can have changed shape).
    pub fn max_ddl_stamp<'a, I>(&self, tables: I) -> u64
    where
        I: IntoIterator<Item = &'a str>,
    {
        tables
            .into_iter()
            .map(|t| self.table_ddl_stamp(t))
            .max()
            .unwrap_or(0)
    }

    /// Snapshot the version coordinates of one table.
    pub fn version_of(&self, table: &str) -> TableVersion {
        let m = self.meta.get(table).copied().unwrap_or_default();
        TableVersion { table: table.to_string(), ddl_stamp: m.ddl_stamp, data_gen: m.data_gen }
    }

    /// Snapshot the version coordinates of a read-set, in the given order.
    pub fn versions_of<'a, I>(&self, tables: I) -> Vec<TableVersion>
    where
        I: IntoIterator<Item = &'a str>,
    {
        tables.into_iter().map(|t| self.version_of(t)).collect()
    }

    /// Is every read-set coordinate still what this catalog reports?
    /// The freshness test of a result-cache entry: any DDL *or* DML on any
    /// read table since the snapshot makes this false.
    pub fn versions_current(&self, reads: &[TableVersion]) -> bool {
        reads.iter().all(|v| {
            let m = self.meta.get(&v.table).copied().unwrap_or_default();
            m.ddl_stamp == v.ddl_stamp && m.data_gen == v.data_gen
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::{ColType, Datum};

    #[test]
    fn catalog_roundtrip() {
        let mut c = Catalog::new();
        let mut t = Table::new("t", &[("a", ColType::Int)]);
        t.insert(vec![Datum::Int(1)]).unwrap();
        c.add_table(t);
        assert!(c.table("t").is_ok());
        assert!(c.table("missing").is_err());
        c.create_index("t", "a").unwrap();
        assert!(c.index_on("t", "a").is_some());
        assert!(c.index_on("t", "b").is_none());
    }

    #[test]
    fn reindex_after_load() {
        let mut c = Catalog::new();
        let t = Table::new("t", &[("a", ColType::Int)]);
        c.add_table(t);
        c.create_index("t", "a").unwrap();
        c.table_mut("t").unwrap().insert(vec![Datum::Int(5)]).unwrap();
        c.reindex("t").unwrap();
        assert_eq!(c.index_on("t", "a").unwrap().lookup_eq(&Datum::Int(5)).unwrap().len(), 1);
    }

    #[test]
    fn paged_catalog_migrates_tables_and_indexes_into_the_pool() {
        let mut c = Catalog::new_paged(8);
        let mut t = Table::new("t", &[("a", ColType::Int)]);
        t.insert(vec![Datum::Int(1)]).unwrap();
        c.add_table(t);
        assert!(c.table("t").unwrap().is_paged());
        c.create_index("t", "a").unwrap();
        assert!(c.index_on("t", "a").unwrap().is_paged());
        // DML goes through the heap, probes through pool pages.
        c.table_mut("t").unwrap().insert(vec![Datum::Int(5)]).unwrap();
        c.reindex("t").unwrap();
        assert_eq!(c.index_on("t", "a").unwrap().lookup_eq(&Datum::Int(5)).unwrap(), vec![1]);
        let s = c.pool_stats().unwrap();
        assert!(s.peak_resident_frames as usize <= c.pool().unwrap().frame_budget());
        // A clone is a memory snapshot: mutating the paged original does
        // not disturb it, and it carries no live pins.
        let snap = c.clone();
        assert!(!snap.table("t").unwrap().is_paged());
        c.table_mut("t").unwrap().insert(vec![Datum::Int(9)]).unwrap();
        assert_eq!(snap.table("t").unwrap().row_count(), 2);
        assert_eq!(c.pool().unwrap().pinned_frames(), 0);
    }

    #[test]
    fn create_index_on_missing_column_errors() {
        let mut c = Catalog::new();
        c.add_table(Table::new("t", &[("a", ColType::Int)]));
        assert!(c.create_index("t", "zz").is_err());
    }

    #[test]
    fn generation_tracks_ddl_not_dml() {
        let mut c = Catalog::new();
        assert_eq!(c.generation(), 0);
        c.add_table(Table::new("t", &[("a", ColType::Int)]));
        assert_eq!(c.generation(), 1);
        c.create_index("t", "a").unwrap();
        assert_eq!(c.generation(), 2);
        // Data loading is DML: no bump.
        c.table_mut("t").unwrap().insert(vec![Datum::Int(5)]).unwrap();
        assert_eq!(c.generation(), 2);
        // A failed DDL statement changes nothing.
        assert!(c.create_index("t", "zz").is_err());
        assert_eq!(c.generation(), 2);
        c.reindex("t").unwrap();
        assert_eq!(c.generation(), 3);
    }

    #[test]
    fn per_table_data_generation_tracks_only_the_touched_table() {
        let mut c = Catalog::new();
        c.add_table(Table::new("a", &[("x", ColType::Int)]));
        c.add_table(Table::new("b", &[("x", ColType::Int)]));
        let (a0, b0) = (c.data_generation("a"), c.data_generation("b"));
        c.table_mut("a").unwrap().insert(vec![Datum::Int(1)]).unwrap();
        assert_eq!(c.data_generation("a"), a0 + 1, "DML on a bumps a");
        assert_eq!(c.data_generation("b"), b0, "DML on a must not bump b");
        // DDL elsewhere does not move data generations at all.
        c.add_table(Table::new("zz", &[("x", ColType::Int)]));
        assert_eq!(c.data_generation("a"), a0 + 1);
        assert_eq!(c.data_generation("b"), b0);
        // Unknown tables read as 0 and failed DML bumps nothing.
        assert_eq!(c.data_generation("missing"), 0);
        assert!(c.table_mut("missing").is_err());
        assert_eq!(c.data_generation("missing"), 0);
    }

    #[test]
    fn ddl_stamps_come_from_the_global_clock_per_table() {
        let mut c = Catalog::new();
        c.add_table(Table::new("a", &[("x", ColType::Int)]));
        c.add_table(Table::new("b", &[("x", ColType::Int)]));
        assert_eq!(c.table_ddl_stamp("a"), 1);
        assert_eq!(c.table_ddl_stamp("b"), 2);
        c.create_index("a", "x").unwrap();
        assert_eq!(c.table_ddl_stamp("a"), 3, "index DDL restamps its table");
        assert_eq!(c.table_ddl_stamp("b"), 2, "…and only its table");
        assert_eq!(c.max_ddl_stamp(["a", "b"]), 3);
        assert_eq!(c.max_ddl_stamp(["b"]), 2);
        assert_eq!(c.max_ddl_stamp(std::iter::empty::<&str>()), 0);
        // Replacing a table restamps it and bumps its data generation.
        let gen_before = c.data_generation("b");
        c.add_table(Table::new("b", &[("y", ColType::Int)]));
        assert_eq!(c.table_ddl_stamp("b"), c.generation());
        assert_eq!(c.data_generation("b"), gen_before + 1);
    }

    #[test]
    fn versions_snapshot_and_currency() {
        let mut c = Catalog::new();
        c.add_table(Table::new("a", &[("x", ColType::Int)]));
        c.add_table(Table::new("b", &[("x", ColType::Int)]));
        let reads = c.versions_of(["a", "b"]);
        assert_eq!(reads.len(), 2);
        assert!(c.versions_current(&reads));
        // DML on a table outside the snapshot's read-set: still current.
        c.add_table(Table::new("other", &[("x", ColType::Int)]));
        c.table_mut("other").unwrap().insert(vec![Datum::Int(1)]).unwrap();
        assert!(c.versions_current(&reads));
        // DML on a read table: stale.
        c.table_mut("a").unwrap().insert(vec![Datum::Int(1)]).unwrap();
        assert!(!c.versions_current(&reads));
        let reads = c.versions_of(["a", "b"]);
        assert!(c.versions_current(&reads));
        // DDL on a read table: stale again.
        c.create_index("b", "x").unwrap();
        assert!(!c.versions_current(&reads));
    }
}
