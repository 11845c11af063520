//! The buffer pool: a fixed budget of page frames shared by every paged
//! table and index in a catalog, plus the append-only [`HeapFile`] built
//! on top of it.
//!
//! Design:
//!
//! * **Fixed frame budget.** The pool owns at most `frame_budget` frames of
//!   [`PAGE_SIZE`] bytes each; frames are created on demand up to the
//!   budget and never beyond it, so peak pool residency is bounded no
//!   matter how many pages the backing files grow to.
//! * **Pin/unpin RAII.** [`fetch`](BufferPool::fetch) /
//!   [`alloc`](BufferPool::alloc) return a [`PageGuard`] that pins the
//!   frame; `Drop` unpins — including during a panic unwind, and with
//!   poison-tolerant locking, so a panicking reader can never strand a pin
//!   and leak a frame out of the budget.
//! * **Clock eviction.** Victim selection is second-chance over unpinned
//!   frames; pinned frames are never evicted (asserted by the property
//!   suite). When every frame is pinned, `fetch` blocks on a condvar until
//!   an unpin frees one (bounded by a generous timeout that surfaces as a
//!   typed [`StoreError`], not a deadlock).
//! * **Dirty write-back.** Frames dirtied through
//!   [`PageGuard::with_write`] are written back to their heap file at
//!   eviction; a freshly allocated page is born dirty, so any page that is
//!   not resident is guaranteed to be on disk — a miss can always be
//!   served by a read.
//! * **Temp-file backing.** Heap files live in the OS temp directory and
//!   are unlinked immediately after creation (the open handle keeps them
//!   alive), so a crashed process leaks no storage.
//!
//! Like [`page`](crate::page), this module denies `clippy::indexing_slicing`:
//! the paged hot path must fail typed, never panic on an index.

#![deny(clippy::indexing_slicing)]

use crate::datum::Datum;
use crate::page::{self, PAGE_SIZE};
use crate::stats::{PoolSnapshot, PoolStats};
use crate::table::{RowId, StoreError};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Identity of a page: which registered file, which page within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageId {
    pub file: u32,
    pub page: u32,
}

/// How long a `fetch` will wait for a pinned-out pool to free a frame
/// before failing typed. Readers pin at most one page at a time, so in
/// practice a wait ends at the next unpin; the timeout only fires if the
/// pool is genuinely wedged (e.g. a caller leaked guards).
const PIN_WAIT: Duration = Duration::from_secs(10);

struct Frame {
    /// Frame content. `Arc` so a [`PageGuard`] can read/write without
    /// holding the pool mutex; the pin count (not this lock) is what keeps
    /// the mapping stable while a guard is alive.
    buf: Arc<RwLock<Box<[u8]>>>,
    page: Option<PageId>,
    pin: u32,
    referenced: bool,
    dirty: bool,
}

impl Frame {
    fn empty() -> Frame {
        Frame {
            buf: Arc::new(RwLock::new(vec![0u8; PAGE_SIZE].into_boxed_slice())),
            page: None,
            pin: 0,
            referenced: false,
            dirty: false,
        }
    }
}

struct PoolInner {
    frames: Vec<Frame>,
    /// Resident pages → frame slot.
    map: HashMap<PageId, usize>,
    /// Clock hand for second-chance eviction.
    hand: usize,
    /// Registered backing files (temp heap files, already unlinked).
    files: HashMap<u32, File>,
    next_file: u32,
}

/// A shared pool of page frames. One pool per paged [`Catalog`]
/// (crate::catalog::Catalog); tables and B-tree indexes draw from the same
/// budget, which is exactly what makes "probe cost = page reads" a
/// meaningful, bounded quantity.
pub struct BufferPool {
    inner: Mutex<PoolInner>,
    /// Signalled by every pin release; `fetch` waits here when saturated.
    vacancy: Condvar,
    stats: PoolStats,
    frame_budget: usize,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("frame_budget", &self.frame_budget)
            .field("resident", &self.resident_frames())
            .field("pinned", &self.pinned_frames())
            .finish()
    }
}

fn io_err(what: &str, e: std::io::Error) -> StoreError {
    StoreError::new(format!("heap file {what}: {e}"))
}

impl BufferPool {
    /// A pool holding at most `frame_budget` pages resident. Budgets below
    /// 2 are raised to 2 (an append needs to hold its tail page while the
    /// next one is allocated).
    pub fn new(frame_budget: usize) -> BufferPool {
        BufferPool {
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                hand: 0,
                files: HashMap::new(),
                next_file: 0,
            }),
            vacancy: Condvar::new(),
            stats: PoolStats::new(),
            frame_budget: frame_budget.max(2),
        }
    }

    pub fn frame_budget(&self) -> usize {
        self.frame_budget
    }

    pub fn stats(&self) -> PoolSnapshot {
        self.stats.snapshot()
    }

    /// Pages currently resident in frames.
    pub fn resident_frames(&self) -> usize {
        self.lock_inner().map.len()
    }

    /// Frames with a non-zero pin count. Quiesces to zero when no guards
    /// are alive — the conservation invariant of the property suite.
    pub fn pinned_frames(&self) -> usize {
        self.lock_inner().frames.iter().filter(|f| f.pin > 0).count()
    }

    fn lock_inner(&self) -> MutexGuard<'_, PoolInner> {
        // Poison-tolerant: a panic in another thread must not wedge the
        // pool — the pin counts it left behind are released by that
        // thread's own guard Drops during unwind.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Create a fresh temp-backed heap file and register it with the pool.
    /// The file is unlinked right after creation; the handle owns it.
    pub(crate) fn register_file(self: &Arc<Self>) -> Result<FileHandle, StoreError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir();
        let file = loop {
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let path = dir.join(format!("xsltdb-pool-{}-{n}.heap", std::process::id()));
            match OpenOptions::new().read(true).write(true).create_new(true).open(&path) {
                Ok(f) => {
                    // Unlink immediately: the open descriptor keeps the
                    // storage alive, and nothing survives the process.
                    let _ = std::fs::remove_file(&path);
                    break f;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(io_err("create", e)),
            }
        };
        let mut inner = self.lock_inner();
        let id = inner.next_file;
        inner.next_file += 1;
        inner.files.insert(id, file);
        Ok(FileHandle { pool: Arc::clone(self), id })
    }

    /// Forget a backing file: drop its handle and free its unpinned
    /// resident frames. Called by [`FileHandle::drop`], i.e. when the last
    /// `HeapFile`/paged-index clone referencing the file goes away — at
    /// which point no pins on its pages can exist.
    fn release_file(&self, id: u32) {
        let mut inner = self.lock_inner();
        inner.files.remove(&id);
        let PoolInner { frames, map, .. } = &mut *inner;
        for frame in frames.iter_mut() {
            if let Some(pid) = frame.page {
                if pid.file == id && frame.pin == 0 {
                    map.remove(&pid);
                    frame.page = None;
                    frame.dirty = false;
                    frame.referenced = false;
                }
            }
        }
        self.stats.set_resident_frames(inner.map.len() as u64);
        // Frames freed: a saturated fetch may now proceed.
        self.vacancy.notify_all();
    }

    /// Pin the page, reading it from its file if not resident.
    pub fn fetch(&self, id: PageId) -> Result<PageGuard<'_>, StoreError> {
        self.pin_page(id, false)
    }

    /// Allocate-and-pin a brand-new page of `file`. The caller supplies the
    /// page number it is appending (files are append-only, so the caller —
    /// `HeapFile` or the index builder — is the allocator of record). The
    /// page is born dirty: eviction will materialise it on disk.
    pub fn alloc(&self, file: u32, pg: u32) -> Result<PageGuard<'_>, StoreError> {
        self.pin_page(PageId { file, page: pg }, true)
    }

    fn pin_page(&self, id: PageId, fresh: bool) -> Result<PageGuard<'_>, StoreError> {
        let mut inner = self.lock_inner();
        let deadline = Instant::now() + PIN_WAIT;
        loop {
            if let Some(&fi) = inner.map.get(&id) {
                if fresh {
                    return Err(StoreError::new(format!(
                        "page {}:{} allocated twice",
                        id.file, id.page
                    )));
                }
                let frame = inner
                    .frames
                    .get_mut(fi)
                    .ok_or_else(|| StoreError::new("pool map points past frame table"))?;
                frame.pin += 1;
                frame.referenced = true;
                self.stats.add_pool_hit();
                return Ok(PageGuard {
                    pool: self,
                    frame: fi,
                    buf: Arc::clone(&frame.buf),
                    dirty: false,
                });
            }
            match self.take_frame(&mut inner)? {
                Some(fi) => {
                    self.load_into(&mut inner, fi, id, fresh)?;
                    let frames = inner.map.len() as u64;
                    self.stats.set_resident_frames(frames);
                    let frame = inner
                        .frames
                        .get(fi)
                        .ok_or_else(|| StoreError::new("victim frame vanished"))?;
                    return Ok(PageGuard {
                        pool: self,
                        frame: fi,
                        buf: Arc::clone(&frame.buf),
                        dirty: false,
                    });
                }
                None => {
                    // Every frame is pinned. Wait for an unpin; guards pin
                    // one page at a time, so this resolves unless a caller
                    // is leaking guards — then fail typed, don't deadlock.
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(StoreError::new(format!(
                            "buffer pool exhausted: all {} frames pinned",
                            self.frame_budget
                        )));
                    }
                    let (g, _) = self
                        .vacancy
                        .wait_timeout(inner, deadline - now)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner = g;
                }
            }
        }
    }

    /// Claim a free frame: grow the pool while under budget, else run the
    /// clock over unpinned frames (evicting the victim's current page).
    /// `None` when every frame is pinned.
    fn take_frame(&self, inner: &mut PoolInner) -> Result<Option<usize>, StoreError> {
        if inner.frames.len() < self.frame_budget {
            inner.frames.push(Frame::empty());
            return Ok(Some(inner.frames.len() - 1));
        }
        let n = inner.frames.len();
        // Two sweeps: the first clears reference bits, the second must find
        // any unpinned frame.
        for _ in 0..2 * n {
            let i = inner.hand % n;
            inner.hand = (inner.hand + 1) % n;
            let Some(frame) = inner.frames.get_mut(i) else { continue };
            if frame.pin > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            self.evict_slot(inner, i)?;
            return Ok(Some(i));
        }
        Ok(None)
    }

    /// Evict whatever page occupies frame `i` (must be unpinned), writing
    /// it back first if dirty.
    fn evict_slot(&self, inner: &mut PoolInner, i: usize) -> Result<(), StoreError> {
        let PoolInner { frames, map, files, .. } = inner;
        let Some(frame) = frames.get_mut(i) else { return Ok(()) };
        debug_assert_eq!(frame.pin, 0, "evicting a pinned frame");
        let Some(pid) = frame.page.take() else { return Ok(()) };
        if frame.dirty {
            // A released file may still own evictable frames for a moment;
            // its pages are garbage, so skipping the write is correct.
            if let Some(file) = files.get(&pid.file) {
                let buf = frame.buf.read().unwrap_or_else(PoisonError::into_inner);
                file.write_all_at(&buf, pid.page as u64 * PAGE_SIZE as u64)
                    .map_err(|e| io_err("write-back", e))?;
                self.stats.add_dirty_writeback();
            }
            frame.dirty = false;
        }
        map.remove(&pid);
        self.stats.add_eviction();
        Ok(())
    }

    /// Fill frame `fi` with page `id` — from disk (`fresh == false`) or as
    /// a newly initialised empty page — and pin it.
    fn load_into(
        &self,
        inner: &mut PoolInner,
        fi: usize,
        id: PageId,
        fresh: bool,
    ) -> Result<(), StoreError> {
        let PoolInner { frames, map, files, .. } = inner;
        let frame = frames
            .get_mut(fi)
            .ok_or_else(|| StoreError::new("frame index out of range"))?;
        {
            let mut buf = frame.buf.write().unwrap_or_else(PoisonError::into_inner);
            if fresh {
                page::init_page(&mut buf)?;
            } else {
                let file = files.get(&id.file).ok_or_else(|| {
                    StoreError::new(format!("page {}:{} of unregistered file", id.file, id.page))
                })?;
                file.read_exact_at(&mut buf, id.page as u64 * PAGE_SIZE as u64)
                    .map_err(|e| io_err("read", e))?;
                self.stats.add_page_read();
            }
        }
        frame.page = Some(id);
        frame.pin = 1;
        frame.referenced = true;
        frame.dirty = fresh;
        map.insert(id, fi);
        Ok(())
    }

    fn unpin(&self, fi: usize, dirty: bool) {
        let mut inner = self.lock_inner();
        if let Some(frame) = inner.frames.get_mut(fi) {
            frame.pin = frame.pin.saturating_sub(1);
            frame.dirty |= dirty;
            frame.referenced = true;
            if frame.pin == 0 {
                self.vacancy.notify_all();
            }
        }
    }
}

/// RAII pin on one pool frame. Reading and writing go through closures so
/// the frame lock is never held across caller code; `Drop` unpins (and
/// records dirtiness) even during unwind.
pub struct PageGuard<'p> {
    pool: &'p BufferPool,
    frame: usize,
    buf: Arc<RwLock<Box<[u8]>>>,
    dirty: bool,
}

impl PageGuard<'_> {
    pub fn with_read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        let g = self.buf.read().unwrap_or_else(PoisonError::into_inner);
        f(&g)
    }

    pub fn with_write<R>(&mut self, f: impl FnOnce(&mut [u8]) -> R) -> R {
        self.dirty = true;
        let mut g = self.buf.write().unwrap_or_else(PoisonError::into_inner);
        f(&mut g)
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.frame, self.dirty);
    }
}

/// Owned registration of one backing file; dropping the last owner closes
/// the file and releases its frames.
#[derive(Debug)]
pub(crate) struct FileHandle {
    pool: Arc<BufferPool>,
    id: u32,
}

impl FileHandle {
    pub(crate) fn id(&self) -> u32 {
        self.id
    }

    pub(crate) fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }
}

impl Drop for FileHandle {
    fn drop(&mut self) {
        self.pool.release_file(self.id);
    }
}

/// An append-only heap of encoded rows in slotted pages, resident only via
/// the buffer pool. Row N's address is found by binary search over the
/// first-row-per-page directory (kept in memory: 8 bytes per page, i.e.
/// ~2MB per billion rows — the directory is metadata, not data).
#[derive(Debug)]
pub struct HeapFile {
    handle: FileHandle,
    pages: u32,
    /// `page_first_row[p]` = RowId of the first row stored in page `p`.
    page_first_row: Vec<u64>,
    rows: u64,
}

impl HeapFile {
    pub fn create(pool: &Arc<BufferPool>) -> Result<HeapFile, StoreError> {
        Ok(HeapFile {
            handle: pool.register_file()?,
            pages: 0,
            page_first_row: Vec::new(),
            rows: 0,
        })
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        self.handle.pool()
    }

    /// The pool file id backing this heap: paired with a page number it
    /// names this heap's pages for explicit [`BufferPool::fetch`] pinning.
    pub fn file_id(&self) -> u32 {
        self.handle.id()
    }

    pub fn row_count(&self) -> usize {
        self.rows as usize
    }

    pub fn page_count(&self) -> u32 {
        self.pages
    }

    /// Append one row; returns its RowId (dense, insertion-ordered — the
    /// same contract the Mem backing has).
    pub fn append(&mut self, row: &[Datum]) -> Result<RowId, StoreError> {
        let cell = page::encode_row(row)?;
        let file = self.handle.id();
        let pool = Arc::clone(self.handle.pool());
        if self.pages > 0 {
            let last = PageId { file, page: self.pages - 1 };
            let mut g = pool.fetch(last)?;
            let slot = g.with_write(|buf| page::append_cell(buf, &cell))?;
            if slot.is_some() {
                let rid = self.rows as RowId;
                self.rows += 1;
                return Ok(rid);
            }
            // Tail page full: drop the pin before allocating the next page
            // so a 2-frame pool cannot wedge on its own append.
        }
        let mut g = pool.alloc(file, self.pages)?;
        let slot = g.with_write(|buf| page::append_cell(buf, &cell))?;
        if slot.is_none() {
            return Err(StoreError::new(format!(
                "row of {} bytes does not fit an empty page",
                cell.len()
            )));
        }
        self.page_first_row.push(self.rows);
        self.pages += 1;
        let rid = self.rows as RowId;
        self.rows += 1;
        Ok(rid)
    }

    /// Locate `row`: (page, slot within page).
    fn locate(&self, row: RowId) -> Result<(u32, u16), StoreError> {
        if (row as u64) >= self.rows {
            return Err(StoreError::new(format!(
                "row {row} out of range ({} rows)",
                self.rows
            )));
        }
        let p = self
            .page_first_row
            .partition_point(|&first| first <= row as u64)
            .checked_sub(1)
            .ok_or_else(|| StoreError::new("heap page directory empty"))?;
        let first = self
            .page_first_row
            .get(p)
            .copied()
            .ok_or_else(|| StoreError::new("heap page directory hole"))?;
        Ok((p as u32, (row as u64 - first) as u16))
    }

    /// Read one row by id (a pin, a cell read, a decode).
    pub fn get(&self, row: RowId) -> Result<Vec<Datum>, StoreError> {
        let (p, slot) = self.locate(row)?;
        let g = self.pool().fetch(PageId { file: self.handle.id(), page: p })?;
        let cell = g.with_read(|buf| page::read_cell(buf, slot).map(<[u8]>::to_vec))?;
        page::decode_row(&cell)
    }

    /// Decode every row of page `p` (the unit a scanning cursor buffers:
    /// the pin is dropped before the rows are yielded, so a scan holds at
    /// most one frame at a time regardless of table size).
    pub fn read_page_rows(&self, p: u32) -> Result<Vec<Vec<Datum>>, StoreError> {
        if p >= self.pages {
            return Err(StoreError::new(format!(
                "page {p} out of range ({} pages)",
                self.pages
            )));
        }
        let g = self.pool().fetch(PageId { file: self.handle.id(), page: p })?;
        g.with_read(|buf| {
            let n = page::slot_count(buf)?;
            let mut rows = Vec::with_capacity(n);
            for s in 0..n {
                rows.push(page::decode_row(page::read_cell(buf, s as u16)?)?);
            }
            Ok(rows)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(frames))
    }

    fn row(i: i64) -> Vec<Datum> {
        vec![Datum::Int(i), Datum::Text(format!("name-{i}-padding-padding")), Datum::Num(i as f64)]
    }

    #[test]
    fn heap_roundtrip_within_budget() {
        let p = pool(8);
        let mut h = HeapFile::create(&p).unwrap();
        for i in 0..100 {
            assert_eq!(h.append(&row(i)).unwrap(), i as usize);
        }
        assert_eq!(h.row_count(), 100);
        for i in 0..100 {
            assert_eq!(h.get(i as usize).unwrap(), row(i));
        }
        assert_eq!(p.pinned_frames(), 0, "all pins released");
    }

    #[test]
    fn eviction_and_readback_beyond_budget() {
        // ~60-byte rows → ~65 per page; 2000 rows ≈ 31 pages through a
        // 4-frame pool: most reads must come back from disk.
        let p = pool(4);
        let mut h = HeapFile::create(&p).unwrap();
        for i in 0..2000 {
            h.append(&row(i)).unwrap();
        }
        assert!(h.page_count() > 8, "expected many pages, got {}", h.page_count());
        // Random-order readback so residency can't hide misses.
        for i in (0..2000).rev() {
            assert_eq!(h.get(i as usize).unwrap(), row(i), "row {i}");
        }
        let s = p.stats();
        assert!(s.evictions > 0, "pool never evicted: {s:?}");
        assert!(s.dirty_writebacks > 0, "dirty pages never written back: {s:?}");
        assert!(s.page_reads > 0, "reads never hit disk: {s:?}");
        assert!(
            s.peak_resident_frames as usize <= p.frame_budget(),
            "residency {} exceeded budget {}",
            s.peak_resident_frames,
            p.frame_budget()
        );
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn out_of_range_row_is_typed_error() {
        let p = pool(4);
        let mut h = HeapFile::create(&p).unwrap();
        h.append(&row(1)).unwrap();
        let err = h.get(1).unwrap_err();
        assert!(err.message().contains("out of range"), "{err}");
        assert!(h.get(usize::MAX).is_err());
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let p = pool(3);
        let mut h = HeapFile::create(&p).unwrap();
        for i in 0..500 {
            h.append(&row(i)).unwrap();
        }
        // Pin page 0 and hold the guard across heavy traffic.
        let g = p.fetch(PageId { file: 0, page: 0 }).unwrap();
        let before: Vec<u8> = g.with_read(<[u8]>::to_vec);
        for i in (0..500).step_by(7) {
            let _ = h.get(i as usize).unwrap();
        }
        let after: Vec<u8> = g.with_read(<[u8]>::to_vec);
        assert_eq!(before, after, "pinned frame content changed under pressure");
        drop(g);
        assert_eq!(p.pinned_frames(), 0);
    }

    #[test]
    fn guard_unpins_during_panic_unwind() {
        let p = pool(2);
        let mut h = HeapFile::create(&p).unwrap();
        h.append(&row(1)).unwrap();
        let p2 = Arc::clone(&p);
        let r = std::thread::spawn(move || {
            let _g = p2.fetch(PageId { file: 0, page: 0 }).unwrap();
            panic!("reader dies while holding a pin");
        })
        .join();
        assert!(r.is_err());
        assert_eq!(p.pinned_frames(), 0, "panic leaked a pin");
        // The pool is still serviceable after the poisoned unwind.
        assert_eq!(h.get(0).unwrap(), row(1));
    }

    #[test]
    fn release_file_frees_frames() {
        let p = pool(4);
        {
            let mut h = HeapFile::create(&p).unwrap();
            for i in 0..50 {
                h.append(&row(i)).unwrap();
            }
            assert!(p.resident_frames() > 0);
        }
        assert_eq!(p.resident_frames(), 0, "dropping the heap left frames resident");
    }

    #[test]
    fn oversized_row_refused() {
        let p = pool(2);
        let mut h = HeapFile::create(&p).unwrap();
        let huge = vec![Datum::Text("x".repeat(PAGE_SIZE))];
        assert!(h.append(&huge).is_err());
        assert_eq!(p.pinned_frames(), 0);
    }
}
