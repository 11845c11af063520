//! Slotted heap pages: the on-disk unit of the paged storage backend.
//!
//! A page is a fixed [`PAGE_SIZE`] byte array with a tiny header, cells
//! appended upward from the header, and a slot directory growing downward
//! from the end. Cells are opaque byte strings — the heap layer stores
//! encoded rows in them, the paged B-tree stores `(key, child-or-row)`
//! entries. Pages are append-only (tables here never delete or update in
//! place), which keeps the format free of tombstones and compaction.
//!
//! Layout:
//!
//! ```text
//! offset 0..2   slot count           (u16 LE)
//! offset 2..4   free-space offset    (u16 LE, first unused cell byte)
//! offset 4..    cells, packed upward
//! ...           free space
//! end           slot directory, one 4-byte entry per cell, growing DOWN:
//!               slot i at PAGE_SIZE - 4*(i+1) = (cell offset u16, len u16)
//! ```
//!
//! Every access is checked: this module (and `pool`) deny
//! `clippy::indexing_slicing`, so a corrupt page surfaces as a typed
//! [`StoreError`], never as an index panic in the storage tier.

#![deny(clippy::indexing_slicing)]

use crate::datum::Datum;
use crate::table::StoreError;

/// Fixed page size of the paged storage backend, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of per-page header (slot count + free offset).
const HEADER: usize = 4;

/// Bytes per slot-directory entry (cell offset + cell length).
const SLOT: usize = 4;

/// The largest cell a single page can hold (one cell, one slot).
pub const MAX_CELL: usize = PAGE_SIZE - HEADER - SLOT;

fn corrupt(what: &str) -> StoreError {
    StoreError::new(format!("page corrupt: {what}"))
}

fn read_u16(buf: &[u8], off: usize) -> Result<u16, StoreError> {
    let b = buf
        .get(off..off + 2)
        .ok_or_else(|| corrupt("u16 out of bounds"))?;
    let arr: [u8; 2] = b.try_into().map_err(|_| corrupt("u16 slice"))?;
    Ok(u16::from_le_bytes(arr))
}

fn write_u16(buf: &mut [u8], off: usize, v: u16) -> Result<(), StoreError> {
    let b = buf
        .get_mut(off..off + 2)
        .ok_or_else(|| corrupt("u16 write out of bounds"))?;
    b.copy_from_slice(&v.to_le_bytes());
    Ok(())
}

/// Initialise `buf` as an empty slotted page.
pub fn init_page(buf: &mut [u8]) -> Result<(), StoreError> {
    if buf.len() != PAGE_SIZE {
        return Err(corrupt("wrong buffer size"));
    }
    write_u16(buf, 0, 0)?;
    write_u16(buf, 2, HEADER as u16)
}

/// Number of cells stored in the page.
pub fn slot_count(buf: &[u8]) -> Result<usize, StoreError> {
    Ok(read_u16(buf, 0)? as usize)
}

/// Bytes still available for one more cell (cell bytes + its slot entry).
fn free_space(buf: &[u8]) -> Result<usize, StoreError> {
    let slots = slot_count(buf)?;
    let free_off = read_u16(buf, 2)? as usize;
    let dir_start = PAGE_SIZE
        .checked_sub(SLOT * slots)
        .ok_or_else(|| corrupt("slot directory overflow"))?;
    dir_start
        .checked_sub(free_off)
        .ok_or_else(|| corrupt("free offset past slot directory"))
        .map(|space| space.saturating_sub(SLOT))
}

/// Append a cell. Returns the new slot number, or `None` if the cell does
/// not fit in this page (the caller allocates a fresh page and retries).
pub fn append_cell(buf: &mut [u8], cell: &[u8]) -> Result<Option<u16>, StoreError> {
    if cell.len() > MAX_CELL {
        return Err(StoreError::new(format!(
            "cell of {} bytes exceeds page capacity of {MAX_CELL}",
            cell.len()
        )));
    }
    if free_space(buf)? < cell.len() {
        return Ok(None);
    }
    let slots = slot_count(buf)?;
    let free_off = read_u16(buf, 2)? as usize;
    let dst = buf
        .get_mut(free_off..free_off + cell.len())
        .ok_or_else(|| corrupt("cell area out of bounds"))?;
    dst.copy_from_slice(cell);
    let slot_off = PAGE_SIZE
        .checked_sub(SLOT * (slots + 1))
        .ok_or_else(|| corrupt("slot directory overflow"))?;
    write_u16(buf, slot_off, free_off as u16)?;
    write_u16(buf, slot_off + 2, cell.len() as u16)?;
    write_u16(buf, 2, (free_off + cell.len()) as u16)?;
    write_u16(buf, 0, (slots + 1) as u16)?;
    Ok(Some(slots as u16))
}

/// Read the cell stored in `slot`.
pub fn read_cell(buf: &[u8], slot: u16) -> Result<&[u8], StoreError> {
    let slots = slot_count(buf)?;
    if slot as usize >= slots {
        return Err(StoreError::new(format!(
            "slot {slot} out of range ({slots} cells in page)"
        )));
    }
    let slot_off = PAGE_SIZE
        .checked_sub(SLOT * (slot as usize + 1))
        .ok_or_else(|| corrupt("slot directory overflow"))?;
    let off = read_u16(buf, slot_off)? as usize;
    let len = read_u16(buf, slot_off + 2)? as usize;
    buf.get(off..off + len).ok_or_else(|| corrupt("cell extent"))
}

// ---------------------------------------------------------------------------
// Datum / row serialisation
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_NUM: u8 = 2;
const TAG_TEXT: u8 = 3;

/// Append the wire encoding of one datum to `out`.
pub fn encode_datum(d: &Datum, out: &mut Vec<u8>) {
    match d {
        Datum::Null => out.push(TAG_NULL),
        Datum::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Datum::Num(n) => {
            // Bit-exact: NaN payloads and signed zeros round-trip, so a
            // paged scan is byte-identical to the Mem scan it mirrors.
            out.push(TAG_NUM);
            out.extend_from_slice(&n.to_bits().to_le_bytes());
        }
        Datum::Text(s) => {
            out.push(TAG_TEXT);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
    }
}

/// Decode one datum starting at `*pos`, advancing `*pos` past it.
pub fn decode_datum(cell: &[u8], pos: &mut usize) -> Result<Datum, StoreError> {
    let tag = *cell.get(*pos).ok_or_else(|| corrupt("datum tag"))?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Datum::Null),
        TAG_INT => {
            let b = cell
                .get(*pos..*pos + 8)
                .ok_or_else(|| corrupt("int payload"))?;
            let arr: [u8; 8] = b.try_into().map_err(|_| corrupt("int slice"))?;
            *pos += 8;
            Ok(Datum::Int(i64::from_le_bytes(arr)))
        }
        TAG_NUM => {
            let b = cell
                .get(*pos..*pos + 8)
                .ok_or_else(|| corrupt("num payload"))?;
            let arr: [u8; 8] = b.try_into().map_err(|_| corrupt("num slice"))?;
            *pos += 8;
            Ok(Datum::Num(f64::from_bits(u64::from_le_bytes(arr))))
        }
        TAG_TEXT => {
            let b = cell
                .get(*pos..*pos + 4)
                .ok_or_else(|| corrupt("text length"))?;
            let arr: [u8; 4] = b.try_into().map_err(|_| corrupt("text length slice"))?;
            let len = u32::from_le_bytes(arr) as usize;
            *pos += 4;
            let s = cell
                .get(*pos..*pos + len)
                .ok_or_else(|| corrupt("text payload"))?;
            *pos += len;
            Ok(Datum::Text(
                std::str::from_utf8(s)
                    .map_err(|_| corrupt("text not utf-8"))?
                    .to_string(),
            ))
        }
        _ => Err(corrupt("unknown datum tag")),
    }
}

/// Encode a full row as one cell: `u16 LE` column count, then each datum.
pub fn encode_row(row: &[Datum]) -> Result<Vec<u8>, StoreError> {
    if row.len() > u16::MAX as usize {
        return Err(StoreError::new("row has too many columns to page"));
    }
    let mut out = Vec::with_capacity(16 + row.len() * 12);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for d in row {
        encode_datum(d, &mut out);
    }
    Ok(out)
}

/// Decode a row cell produced by [`encode_row`].
pub fn decode_row(cell: &[u8]) -> Result<Vec<Datum>, StoreError> {
    let b = cell.get(0..2).ok_or_else(|| corrupt("row column count"))?;
    let arr: [u8; 2] = b.try_into().map_err(|_| corrupt("row count slice"))?;
    let cols = u16::from_le_bytes(arr) as usize;
    let mut pos = 2usize;
    let mut row = Vec::with_capacity(cols);
    for _ in 0..cols {
        row.push(decode_datum(cell, &mut pos)?);
    }
    if pos != cell.len() {
        return Err(corrupt("trailing bytes after row"));
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        init_page(&mut buf).unwrap();
        buf
    }

    #[test]
    fn empty_page_shape() {
        let buf = fresh();
        assert_eq!(slot_count(&buf).unwrap(), 0);
        assert_eq!(free_space(&buf).unwrap(), MAX_CELL);
    }

    #[test]
    fn append_and_read_cells() {
        let mut buf = fresh();
        assert_eq!(append_cell(&mut buf, b"alpha").unwrap(), Some(0));
        assert_eq!(append_cell(&mut buf, b"").unwrap(), Some(1));
        assert_eq!(append_cell(&mut buf, b"gamma-longer").unwrap(), Some(2));
        assert_eq!(read_cell(&buf, 0).unwrap(), b"alpha");
        assert_eq!(read_cell(&buf, 1).unwrap(), b"");
        assert_eq!(read_cell(&buf, 2).unwrap(), b"gamma-longer");
        assert!(read_cell(&buf, 3).is_err());
    }

    #[test]
    fn page_fills_and_reports_full() {
        let mut buf = fresh();
        let cell = [7u8; 100];
        let mut n = 0usize;
        while append_cell(&mut buf, &cell).unwrap().is_some() {
            n += 1;
        }
        // 100-byte cell + 4-byte slot → at most (4096-4)/104 cells.
        assert!(n >= 38, "page held only {n} cells");
        assert!(free_space(&buf).unwrap() < 100 + SLOT);
        // Everything written is still readable.
        for s in 0..n {
            assert_eq!(read_cell(&buf, s as u16).unwrap(), &cell);
        }
    }

    #[test]
    fn oversized_cell_is_typed_error() {
        let mut buf = fresh();
        let big = vec![0u8; MAX_CELL + 1];
        let err = append_cell(&mut buf, &big).unwrap_err();
        assert!(err.message().contains("exceeds page capacity"), "{err}");
    }

    #[test]
    fn datum_roundtrip_bit_exact() {
        let data = vec![
            Datum::Null,
            Datum::Int(i64::MIN),
            Datum::Int(0),
            Datum::Int(i64::MAX),
            Datum::Num(0.0),
            Datum::Num(-0.0),
            Datum::Num(f64::NAN),
            Datum::Num(f64::INFINITY),
            Datum::Num(2450.5),
            Datum::Text(String::new()),
            Datum::Text("köln — xslt".into()),
        ];
        let cell = encode_row(&data).unwrap();
        let back = decode_row(&cell).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            match (a, b) {
                (Datum::Num(x), Datum::Num(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn corrupt_cells_are_typed_errors_not_panics() {
        assert!(decode_row(b"").is_err());
        assert!(decode_row(&[2, 0, TAG_INT, 1]).is_err()); // truncated int
        assert!(decode_row(&[1, 0, 9]).is_err()); // unknown tag
        assert!(decode_row(&[1, 0, TAG_NULL, 0xFF]).is_err()); // trailing bytes
        let mut truncated_text = vec![1, 0, TAG_TEXT];
        truncated_text.extend_from_slice(&100u32.to_le_bytes());
        truncated_text.extend_from_slice(b"short");
        assert!(decode_row(&truncated_text).is_err());
    }
}
