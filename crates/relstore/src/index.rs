//! B-tree secondary indexes (one column each).
//!
//! Two backings behind one probe API:
//!
//! * `Mem` — the original `BTreeMap` over [`DatumKey`], used for
//!   memory-resident tables.
//! * `Paged` — a static B-tree bulk-loaded into slotted pages drawn from
//!   the table's [`BufferPool`](crate::pool::BufferPool), used when the
//!   table itself is paged. Tables here are append-only and indexes are
//!   only ever rebuilt wholesale (`create_index` / `reindex`), so the tree
//!   never splits after construction: sorted leaf pages first, then each
//!   internal level's `(first-key, child-page)` separators, root last. A
//!   probe descends `height` pages and scans forward through contiguous
//!   leaves — O(page reads), not O(rows), and those pages compete for the
//!   same frame budget as the heap they index.

use crate::datum::{Datum, DatumKey};
use crate::page;
use crate::pool::{BufferPool, FileHandle, PageGuard, PageId};
use crate::table::{RowId, StoreError, Table};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A secondary B-tree index over one column of a table.
#[derive(Debug, Clone)]
pub struct Index {
    pub table: String,
    pub column: String,
    backing: Backing,
}

#[derive(Debug, Clone)]
enum Backing {
    Mem(BTreeMap<DatumKey, Vec<RowId>>),
    Paged(PagedIndex),
}

impl Index {
    /// Build an index over `table.column`. NULLs are not indexed (matching
    /// the usual B-tree behaviour). A paged table gets a paged index in the
    /// same pool; a memory table keeps the `BTreeMap` backing.
    pub fn build(table: &Table, column: &str) -> Result<Index, StoreError> {
        let ci = table
            .col_index(column)
            .ok_or_else(|| StoreError::new(format!("no column {column} in {}", table.name)))?;
        let backing = match table.pool() {
            Some(pool) => {
                let pool = Arc::clone(pool);
                Backing::Paged(PagedIndex::build(table, ci, &pool)?)
            }
            None => {
                let mut map: BTreeMap<DatumKey, Vec<RowId>> = BTreeMap::new();
                table.for_each_row(|rid, row| {
                    let d = row.get(ci).ok_or_else(|| {
                        StoreError::new(format!("row {rid} short of column {ci}"))
                    })?;
                    if !d.is_null() {
                        map.entry(DatumKey(d.clone())).or_default().push(rid);
                    }
                    Ok(())
                })?;
                Backing::Mem(map)
            }
        };
        Ok(Index { table: table.name.clone(), column: column.to_string(), backing })
    }

    /// Equality probe.
    pub fn lookup_eq(&self, key: &Datum) -> Result<Vec<RowId>, StoreError> {
        match &self.backing {
            Backing::Mem(map) => Ok(map
                .get(&DatumKey(key.clone()))
                .cloned()
                .unwrap_or_default()),
            Backing::Paged(p) => p.lookup_eq(key),
        }
    }

    /// Range scan with explicit bounds.
    pub fn lookup_range(
        &self,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> Result<Vec<RowId>, StoreError> {
        match &self.backing {
            Backing::Mem(map) => {
                let lo = map_bound(lo);
                let hi = map_bound(hi);
                let mut out = Vec::new();
                for (_, rids) in map.range::<DatumKey, _>((lo, hi)) {
                    out.extend_from_slice(rids);
                }
                Ok(out)
            }
            Backing::Paged(p) => p.lookup_range(lo, hi),
        }
    }

    /// Number of distinct keys; a paged index counts them on its leaves.
    #[cfg(test)]
    fn key_count(&self) -> usize {
        match &self.backing {
            Backing::Mem(map) => map.len(),
            Backing::Paged(p) => {
                let mut last: Option<Datum> = None;
                let mut keys = 0;
                for pg in 0..p.leaf_count {
                    for (d, _) in p.read_page_cells(pg, decode_leaf_cell).expect("leaf reads") {
                        if last.as_ref().is_none_or(|l| l.cmp_total(&d) != Ordering::Equal) {
                            keys += 1;
                        }
                        last = Some(d);
                    }
                }
                keys
            }
        }
    }

    /// Is this index stored in pool pages?
    pub fn is_paged(&self) -> bool {
        matches!(self.backing, Backing::Paged(_))
    }
}

fn map_bound(b: Bound<&Datum>) -> Bound<DatumKey> {
    match b {
        Bound::Included(d) => Bound::Included(DatumKey(d.clone())),
        Bound::Excluded(d) => Bound::Excluded(DatumKey(d.clone())),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// A static bulk-loaded B-tree in pool pages. Pages `0..leaf_count` of the
/// index file are the sorted leaves; internal levels follow; the last page
/// written is the root. Clones share the (immutable) file through the
/// `Arc`ed handle, so a catalog snapshot costs nothing here.
#[derive(Debug, Clone)]
struct PagedIndex {
    handle: Arc<FileHandle>,
    leaf_count: u32,
    root: u32,
    /// Levels in the tree; 1 means the root is the single leaf. 0 = empty.
    height: u32,
    /// Total (non-null) entries.
    entries: u64,
}

fn leaf_cell(d: &Datum, rid: RowId) -> Vec<u8> {
    let mut v = Vec::with_capacity(16);
    page::encode_datum(d, &mut v);
    v.extend_from_slice(&(rid as u64).to_le_bytes());
    v
}

fn internal_cell(d: &Datum, child: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(12);
    page::encode_datum(d, &mut v);
    v.extend_from_slice(&child.to_le_bytes());
    v
}

fn corrupt(what: &str) -> StoreError {
    StoreError::new(format!("paged index corrupt: {what}"))
}

fn decode_leaf_cell(cell: &[u8]) -> Result<(Datum, RowId), StoreError> {
    let mut pos = 0usize;
    let d = page::decode_datum(cell, &mut pos)?;
    let b = cell.get(pos..pos + 8).ok_or_else(|| corrupt("leaf rid"))?;
    let arr: [u8; 8] = b.try_into().map_err(|_| corrupt("leaf rid slice"))?;
    Ok((d, u64::from_le_bytes(arr) as RowId))
}

fn decode_internal_cell(cell: &[u8]) -> Result<(Datum, u32), StoreError> {
    let mut pos = 0usize;
    let d = page::decode_datum(cell, &mut pos)?;
    let b = cell.get(pos..pos + 4).ok_or_else(|| corrupt("child page"))?;
    let arr: [u8; 4] = b.try_into().map_err(|_| corrupt("child page slice"))?;
    Ok((d, u32::from_le_bytes(arr)))
}

/// Sequentially append cells to a fresh run of pages, recording each page's
/// first key. Holds at most one pin at a time.
struct LevelWriter<'p> {
    pool: &'p Arc<BufferPool>,
    file: u32,
    next_page: u32,
    cur: Option<PageGuard<'p>>,
    /// `(first key, page)` of every page written — the next level up.
    separators: Vec<(Datum, u32)>,
}

impl<'p> LevelWriter<'p> {
    fn new(pool: &'p Arc<BufferPool>, file: u32, next_page: u32) -> LevelWriter<'p> {
        LevelWriter { pool, file, next_page, cur: None, separators: Vec::new() }
    }

    fn push(&mut self, key: &Datum, cell: &[u8]) -> Result<(), StoreError> {
        if let Some(g) = self.cur.as_mut() {
            if g.with_write(|b| page::append_cell(b, cell))?.is_some() {
                return Ok(());
            }
            self.cur = None; // page full: drop the pin before allocating
        }
        let mut g = self.pool.alloc(self.file, self.next_page)?;
        if g.with_write(|b| page::append_cell(b, cell))?.is_none() {
            return Err(StoreError::new(format!(
                "index cell of {} bytes does not fit an empty page",
                cell.len()
            )));
        }
        self.separators.push((key.clone(), self.next_page));
        self.next_page += 1;
        self.cur = Some(g);
        Ok(())
    }

    fn finish(self) -> (u32, Vec<(Datum, u32)>) {
        (self.next_page, self.separators)
    }
}

impl PagedIndex {
    fn build(table: &Table, ci: usize, pool: &Arc<BufferPool>) -> Result<PagedIndex, StoreError> {
        // Collect (key, rid) for non-null values; stable sort by key keeps
        // rids ascending within a key — identical ordering to the Mem
        // backing's per-key push order.
        let mut entries: Vec<(Datum, RowId)> = Vec::new();
        table.for_each_row(|rid, row| {
            let d = row
                .get(ci)
                .ok_or_else(|| StoreError::new(format!("row {rid} short of column {ci}")))?;
            if !d.is_null() {
                entries.push((d.clone(), rid));
            }
            Ok(())
        })?;
        entries.sort_by(|a, b| a.0.cmp_total(&b.0));
        let handle = Arc::new(pool.register_file()?);
        if entries.is_empty() {
            return Ok(PagedIndex { handle, leaf_count: 0, root: 0, height: 0, entries: 0 });
        }

        // Leaves.
        let mut w = LevelWriter::new(pool, handle.id(), 0);
        for (d, rid) in &entries {
            w.push(d, &leaf_cell(d, *rid))?;
        }
        let n_entries = entries.len() as u64;
        drop(entries);
        let (mut next_page, mut level) = w.finish();
        let leaf_count = next_page;

        // Internal levels until a single root remains.
        let mut height = 1u32;
        while level.len() > 1 {
            height += 1;
            let mut w = LevelWriter::new(pool, handle.id(), next_page);
            for (d, child) in &level {
                w.push(d, &internal_cell(d, *child))?;
            }
            (next_page, level) = w.finish();
        }
        let root = next_page - 1;
        Ok(PagedIndex { handle, leaf_count, root, height, entries: n_entries })
    }

    fn read_page_cells<T>(
        &self,
        pg: u32,
        decode: impl Fn(&[u8]) -> Result<T, StoreError>,
    ) -> Result<Vec<T>, StoreError> {
        let g = self
            .handle
            .pool()
            .fetch(PageId { file: self.handle.id(), page: pg })?;
        g.with_read(|buf| {
            let n = page::slot_count(buf)?;
            let mut out = Vec::with_capacity(n);
            for s in 0..n {
                out.push(decode(page::read_cell(buf, s as u16)?)?);
            }
            Ok(out)
        })
    }

    /// Descend from the root to the leftmost leaf that could contain `key`:
    /// at each internal level, take the rightmost child whose separator is
    /// strictly below `key` (child 0 when none is) — duplicates spanning a
    /// page boundary are then found by the forward leaf scan.
    fn descend(&self, key: &Datum) -> Result<u32, StoreError> {
        let mut pg = self.root;
        for _ in 1..self.height {
            let cells = self.read_page_cells(pg, decode_internal_cell)?;
            let below = cells
                .iter()
                .take_while(|(d, _)| d.cmp_total(key) == Ordering::Less)
                .count();
            let idx = below.saturating_sub(1);
            pg = cells
                .get(idx)
                .map(|(_, child)| *child)
                .ok_or_else(|| corrupt("empty internal page"))?;
        }
        if pg >= self.leaf_count {
            return Err(corrupt("descent ended on a non-leaf page"));
        }
        Ok(pg)
    }

    fn lookup_eq(&self, key: &Datum) -> Result<Vec<RowId>, StoreError> {
        if self.entries == 0 {
            return Ok(Vec::new());
        }
        let mut out = Vec::new();
        let mut pg = self.descend(key)?;
        'leaves: while pg < self.leaf_count {
            for (d, rid) in self.read_page_cells(pg, decode_leaf_cell)? {
                match d.cmp_total(key) {
                    Ordering::Less => continue,
                    Ordering::Equal => out.push(rid),
                    Ordering::Greater => break 'leaves,
                }
            }
            pg += 1;
        }
        Ok(out)
    }

    fn lookup_range(
        &self,
        lo: Bound<&Datum>,
        hi: Bound<&Datum>,
    ) -> Result<Vec<RowId>, StoreError> {
        if self.entries == 0 {
            return Ok(Vec::new());
        }
        let mut pg = match lo {
            Bound::Unbounded => 0,
            Bound::Included(d) | Bound::Excluded(d) => self.descend(d)?,
        };
        let above_lo = |d: &Datum| match lo {
            Bound::Unbounded => true,
            Bound::Included(l) => d.cmp_total(l) != Ordering::Less,
            Bound::Excluded(l) => d.cmp_total(l) == Ordering::Greater,
        };
        let below_hi = |d: &Datum| match hi {
            Bound::Unbounded => true,
            Bound::Included(h) => d.cmp_total(h) != Ordering::Greater,
            Bound::Excluded(h) => d.cmp_total(h) == Ordering::Less,
        };
        let mut out = Vec::new();
        'leaves: while pg < self.leaf_count {
            for (d, rid) in self.read_page_cells(pg, decode_leaf_cell)? {
                if !above_lo(&d) {
                    continue;
                }
                if !below_hi(&d) {
                    break 'leaves;
                }
                out.push(rid);
            }
            pg += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datum::ColType;

    fn emp() -> Table {
        let mut t = Table::new("emp", &[("empno", ColType::Int), ("sal", ColType::Int)]);
        for (no, sal) in [(7782, 2450), (7934, 1300), (7954, 4900), (8000, 2450)] {
            t.insert(vec![Datum::Int(no), Datum::Int(sal)]).unwrap();
        }
        t
    }

    fn paged(mut t: Table) -> Table {
        let pool = Arc::new(BufferPool::new(6));
        t.migrate_to_pool(&pool).unwrap();
        t
    }

    fn both() -> [Table; 2] {
        [emp(), paged(emp())]
    }

    #[test]
    fn eq_lookup() {
        for t in both() {
            let idx = Index::build(&t, "sal").unwrap();
            assert_eq!(idx.lookup_eq(&Datum::Int(2450)).unwrap(), vec![0, 3]);
            assert!(idx.lookup_eq(&Datum::Int(9)).unwrap().is_empty());
        }
    }

    #[test]
    fn range_lookup() {
        for t in both() {
            let idx = Index::build(&t, "sal").unwrap();
            let rows = idx
                .lookup_range(Bound::Excluded(&Datum::Int(2000)), Bound::Unbounded)
                .unwrap();
            assert_eq!(rows.len(), 3); // 2450, 2450, 4900
            let rows = idx
                .lookup_range(
                    Bound::Included(&Datum::Int(1300)),
                    Bound::Included(&Datum::Int(2450)),
                )
                .unwrap();
            assert_eq!(rows.len(), 3);
        }
    }

    #[test]
    fn nulls_not_indexed() {
        for mut t in both() {
            t.insert(vec![Datum::Int(9000), Datum::Null]).unwrap();
            let idx = Index::build(&t, "sal").unwrap();
            let all = idx.lookup_range(Bound::Unbounded, Bound::Unbounded).unwrap();
            assert_eq!(all.len(), 4);
        }
    }

    #[test]
    fn unknown_column_errors() {
        for t in both() {
            assert!(Index::build(&t, "nope").is_err());
        }
    }

    #[test]
    fn numeric_cross_type_probe() {
        for t in both() {
            let idx = Index::build(&t, "sal").unwrap();
            assert_eq!(idx.lookup_eq(&Datum::Num(2450.0)).unwrap().len(), 2);
        }
    }

    #[test]
    fn key_count_matches_on_both_backings() {
        let m = Index::build(&emp(), "sal").unwrap();
        let p = Index::build(&paged(emp()), "sal").unwrap();
        assert!(!m.is_paged() && p.is_paged());
        assert_eq!(m.key_count(), 3);
        assert_eq!(p.key_count(), 3);
    }

    /// A multi-level paged tree (thousands of keys, small pool) must agree
    /// with the Mem backing on every probe — including duplicate runs that
    /// span leaf-page boundaries.
    #[test]
    fn paged_tree_multilevel_agrees_with_mem() {
        let mut t = Table::new("big", &[("k", ColType::Int), ("pad", ColType::Text)]);
        // ~5000 entries, every key duplicated 5×, inserted scattered.
        for i in 0..5000i64 {
            let k = (i * 7919) % 1000; // deterministic shuffle of 0..1000, 5 copies each
            t.insert(vec![Datum::Int(k), Datum::Text(format!("pad-{i:04}"))]).unwrap();
        }
        let mem_idx = Index::build(&t, "k").unwrap();
        let t_paged = {
            let pool = Arc::new(BufferPool::new(8));
            let mut tp = t.clone();
            tp.migrate_to_pool(&pool).unwrap();
            tp
        };
        let paged_idx = Index::build(&t_paged, "k").unwrap();
        assert_eq!(mem_idx.key_count(), paged_idx.key_count());
        for k in [0i64, 1, 499, 500, 998, 999] {
            assert_eq!(
                mem_idx.lookup_eq(&Datum::Int(k)).unwrap(),
                paged_idx.lookup_eq(&Datum::Int(k)).unwrap(),
                "eq probe {k} diverged"
            );
        }
        for (lo, hi) in [(0i64, 10i64), (450, 550), (990, 999), (-5, 2000)] {
            assert_eq!(
                mem_idx
                    .lookup_range(Bound::Included(&Datum::Int(lo)), Bound::Excluded(&Datum::Int(hi)))
                    .unwrap(),
                paged_idx
                    .lookup_range(Bound::Included(&Datum::Int(lo)), Bound::Excluded(&Datum::Int(hi)))
                    .unwrap(),
                "range probe [{lo},{hi}) diverged"
            );
        }
        // Probe residency is bounded by the pool, and pins quiesce.
        let pool = t_paged.pool().unwrap();
        assert!(pool.stats().peak_resident_frames as usize <= pool.frame_budget());
        assert_eq!(pool.pinned_frames(), 0);
    }
}
