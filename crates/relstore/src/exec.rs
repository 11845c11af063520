//! Predicates and the iterator-based pull executor (Graefe-style \[10\]):
//! row sources are iterators; the access-path planner picks a B-tree index
//! probe when one applies and layers a residual filter on top.

// Guard-bearing hot path: a stray unwrap or expect here is a latent panic
// the pipeline would have to contain at a tier boundary. Keep it impossible.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::catalog::Catalog;
use crate::datum::{ColType, Datum};
use crate::stats::ExecStats;
use crate::table::{RowId, StoreError, Table};
use std::iter::{once, Once};
use std::ops::Bound;
use xsltdb_xml::{Guard, GuardExceeded};
use xsltdb_xpath::value::{compare, CmpOp, Operand};

pub(crate) fn guard_err(e: GuardExceeded) -> StoreError {
    StoreError::from_trip(e)
}

/// A single-column comparison with a constant: the column's published
/// value (a node whose string value is [`Datum::to_text`]) against an
/// XPath literal — a number for `Int`/`Num`, a string for `Text`, and `""`
/// for `Null`. It holds exactly when XPath 1.0's [`compare`] says so, so a
/// NULL compares as the empty string it publishes.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnCmp {
    pub column: String,
    pub op: CmpOp,
    pub value: Datum,
}

/// Keys outside the open range (−Infinity, +Infinity) publish as NaN or
/// `Infinity`, neither of which is an XPath number: a numeric range probe
/// stops short of them. (NULLs are never indexed.)
static NEG_INFINITY: Datum = Datum::Num(f64::NEG_INFINITY);
static POS_INFINITY: Datum = Datum::Num(f64::INFINITY);

impl ColumnCmp {
    pub fn new(column: &str, op: CmpOp, value: Datum) -> Self {
        ColumnCmp { column: column.to_string(), op, value }
    }

    /// Evaluate against a row.
    pub fn matches(&self, table: &Table, row: RowId) -> Result<bool, StoreError> {
        Ok(self.holds(&table.value_by_name(row, &self.column)?))
    }

    /// The constant as an XPath operand.
    fn literal(&self) -> Literal<'_> {
        match &self.value {
            Datum::Int(i) => Operand::Num(*i as f64),
            Datum::Num(n) => Operand::Num(*n),
            Datum::Text(s) => Operand::Str(s),
            Datum::Null => Operand::Str(""),
        }
    }

    /// Evaluate against an already-read column value `d`. Against a number
    /// the column's `number()` is read straight off the datum; otherwise
    /// the published text is compared, lent without a copy.
    pub(crate) fn holds(&self, d: &Datum) -> bool {
        match self.literal() {
            lit @ Operand::Num(_) => compare(self.op, Literal::Num(d.number()), lit),
            lit => d.with_text(|s| compare(self.op, Operand::Nodes(once(s)), lit)),
        }
    }

    /// The B-tree lookup this term can drive on a column of type `ty`:
    /// only where the index's key order agrees with XPath's comparison —
    /// a finite number on an `Int`/`Num` column, or `=` with a non-empty
    /// string on a `Text` column (an empty one also matches the unindexed
    /// NULLs). Every other term is a scan.
    fn probe(&self, ty: ColType) -> Option<Probe<'_>> {
        let v = &self.value;
        match self.literal() {
            Operand::Num(n) if n.is_finite() && ty != ColType::Text => {
                let (lo, hi) = (Bound::Excluded(&NEG_INFINITY), Bound::Excluded(&POS_INFINITY));
                Some(match self.op {
                    CmpOp::Eq => Probe::Eq(v),
                    CmpOp::Lt => Probe::Range(lo, Bound::Excluded(v)),
                    CmpOp::Le => Probe::Range(lo, Bound::Included(v)),
                    CmpOp::Gt => Probe::Range(Bound::Excluded(v), hi),
                    CmpOp::Ge => Probe::Range(Bound::Included(v), hi),
                    CmpOp::Ne => return None,
                })
            }
            Operand::Str(s) if ty == ColType::Text && self.op == CmpOp::Eq && !s.is_empty() => {
                Some(Probe::Eq(v))
            }
            _ => None,
        }
    }
}

/// A [`ColumnCmp`] constant: always atomic.
type Literal<'a> = Operand<'a, Once<&'a str>>;

/// An index lookup: an equality probe or a key range.
enum Probe<'p> {
    Eq(&'p Datum),
    Range(Bound<&'p Datum>, Bound<&'p Datum>),
}

/// A conjunction of column comparisons (the only predicate shape the
/// SQL/XML rewrite produces; `OR` never arises from residual XPath
/// predicates of the supported form).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Conjunction {
    pub terms: Vec<ColumnCmp>,
}

impl Conjunction {
    pub fn of(terms: Vec<ColumnCmp>) -> Self {
        Conjunction { terms }
    }

    pub fn single(column: &str, op: CmpOp, value: Datum) -> Self {
        Conjunction { terms: vec![ColumnCmp::new(column, op, value)] }
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    pub fn matches(&self, table: &Table, row: RowId) -> Result<bool, StoreError> {
        for t in &self.terms {
            if !t.matches(table, row)? {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The access path the planner chose — surfaced so tests and EXPLAIN-style
/// output can assert on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    FullScan,
    IndexEq { column: String },
    IndexRange { column: String },
    /// A full traversal in index-key order — chosen when the query's
    /// `ORDER BY` leads with an indexed column, so the B-tree delivers
    /// rows pre-sorted and no explicit sort is needed.
    IndexOrdered { column: String },
}

/// A full-table scan, counting rows as they are pulled.
pub struct FullScan<'a> {
    table: &'a Table,
    stats: &'a ExecStats,
    next: RowId,
}

impl Iterator for FullScan<'_> {
    type Item = RowId;
    fn next(&mut self) -> Option<RowId> {
        if self.next >= self.table.row_count() {
            return None;
        }
        let r = self.next;
        self.next += 1;
        self.stats.add_rows_scanned(1);
        Some(r)
    }
}

/// Rows produced by an index probe (probe accounted at construction).
pub struct IndexRows {
    rows: std::vec::IntoIter<RowId>,
}

impl Iterator for IndexRows {
    type Item = RowId;
    fn next(&mut self) -> Option<RowId> {
        self.rows.next()
    }
}

/// A residual filter over another row source. A predicate that cannot be
/// evaluated (an unknown column, a failed page read) yields its error
/// rather than dropping the row, as the full scan does.
pub struct FilterRows<'a, I> {
    input: I,
    table: &'a Table,
    pred: Conjunction,
}

impl<I: Iterator<Item = RowId>> Iterator for FilterRows<'_, I> {
    type Item = Result<RowId, StoreError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.input.by_ref().find_map(|r| {
            self.pred.matches(self.table, r).map(|keep| keep.then_some(r)).transpose()
        })
    }
}

/// Plan and run an access path for `table` under `pred`, returning matching
/// rows in heap order plus the chosen path.
pub fn scan(
    catalog: &Catalog,
    stats: &ExecStats,
    table_name: &str,
    pred: &Conjunction,
) -> Result<(Vec<RowId>, AccessPath), StoreError> {
    scan_guarded(catalog, stats, table_name, pred, &Guard::unlimited(), None)
}

/// Like [`scan`], but every row pulled (full scan) or surfaced by an index
/// probe is charged against `guard`, so a runaway scan trips the fuel
/// budget instead of running to completion.
///
/// `limit` keeps only the first `k` qualifying rows in heap order
/// (`FETCH FIRST k ROWS ONLY`): a full scan stops pulling once it has
/// them, and an index probe's residual filter stops at the `k`-th match.
pub fn scan_guarded(
    catalog: &Catalog,
    stats: &ExecStats,
    table_name: &str,
    pred: &Conjunction,
    guard: &Guard,
    limit: Option<usize>,
) -> Result<(Vec<RowId>, AccessPath), StoreError> {
    let limit = limit.unwrap_or(usize::MAX);
    let table = catalog.table(table_name)?;

    // Prefer an equality probe, then the first range probe, then a full scan.
    let mut chosen = None; // (term index, term, index, probe)
    for (i, t) in pred.terms.iter().enumerate() {
        let Some(index) = catalog.index_on(table_name, &t.column) else {
            continue;
        };
        let Some(probe) = table.col_type(&t.column).and_then(|ty| t.probe(ty)) else {
            continue;
        };
        let is_eq = matches!(probe, Probe::Eq(_));
        if is_eq || chosen.is_none() {
            chosen = Some((i, t, index, probe));
        }
        if is_eq {
            break;
        }
    }

    match chosen {
        Some((i, term, index, probe)) => {
            let column = term.column.clone();
            let (mut rows, path) = match probe {
                Probe::Eq(v) => (index.lookup_eq(v)?, AccessPath::IndexEq { column }),
                Probe::Range(lo, hi) => {
                    (index.lookup_range(lo, hi)?, AccessPath::IndexRange { column })
                }
            };
            stats.add_index_probe(rows.len() as u64);
            // Every row the probe surfaced is billed, even ones a residual
            // filter later discards.
            guard.charge(rows.len() as u64).map_err(guard_err)?;
            rows.sort_unstable();
            let residual = Conjunction {
                terms: pred
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, t)| t.clone())
                    .collect(),
            };
            if residual.is_empty() {
                rows.truncate(limit);
                Ok((rows, path))
            } else {
                // Residual filtering visits each candidate row.
                stats.add_rows_scanned(rows.len() as u64);
                let source = IndexRows { rows: rows.into_iter() };
                let filter = FilterRows { input: source, table, pred: residual };
                let out = filter.take(limit).collect::<Result<Vec<RowId>, _>>()?;
                Ok((out, path))
            }
        }
        None => {
            let mut source = FullScan { table, stats, next: 0 };
            let mut out = Vec::new();
            while out.len() < limit {
                let Some(r) = source.next() else { break };
                guard.charge(1).map_err(guard_err)?;
                if pred.is_empty() || pred.matches(table, r)? {
                    out.push(r);
                }
            }
            Ok((out, AccessPath::FullScan))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Catalog;
    use crate::datum::ColType;
    use crate::table::Table;
    use xsltdb_xpath::CmpOp;

    fn catalog() -> Catalog {
        let mut emp = Table::new(
            "emp",
            &[("empno", ColType::Int), ("sal", ColType::Int), ("deptno", ColType::Int)],
        );
        for (no, sal, d) in [
            (7782, 2450, 10),
            (7934, 1300, 10),
            (7954, 4900, 40),
            (8001, 2100, 40),
        ] {
            emp.insert(vec![Datum::Int(no), Datum::Int(sal), Datum::Int(d)]).unwrap();
        }
        let mut c = Catalog::new();
        c.add_table(emp);
        c.create_index("emp", "sal").unwrap();
        c.create_index("emp", "deptno").unwrap();
        c
    }

    #[test]
    fn full_scan_counts_rows() {
        let c = catalog();
        let stats = ExecStats::new();
        let (rows, path) =
            scan(&c, &stats, "emp", &Conjunction::single("empno", CmpOp::Eq, Datum::Int(7934)))
                .unwrap();
        // empno has no index → full scan.
        assert_eq!(path, AccessPath::FullScan);
        assert_eq!(rows, vec![1]);
        assert_eq!(stats.snapshot().rows_scanned, 4);
        assert_eq!(stats.snapshot().index_probes, 0);
    }

    #[test]
    fn index_range_used_for_sal() {
        let c = catalog();
        let stats = ExecStats::new();
        let (rows, path) =
            scan(&c, &stats, "emp", &Conjunction::single("sal", CmpOp::Gt, Datum::Int(2000)))
                .unwrap();
        assert_eq!(path, AccessPath::IndexRange { column: "sal".into() });
        assert_eq!(rows, vec![0, 2, 3]);
        let s = stats.snapshot();
        assert_eq!(s.index_probes, 1);
        assert_eq!(s.index_rows, 3);
        assert_eq!(s.rows_scanned, 0);
    }

    #[test]
    fn eq_probe_preferred_over_range() {
        let c = catalog();
        let stats = ExecStats::new();
        let pred = Conjunction::of(vec![
            ColumnCmp::new("sal", CmpOp::Gt, Datum::Int(2000)),
            ColumnCmp::new("deptno", CmpOp::Eq, Datum::Int(40)),
        ]);
        let (rows, path) = scan(&c, &stats, "emp", &pred).unwrap();
        assert_eq!(path, AccessPath::IndexEq { column: "deptno".into() });
        assert_eq!(rows, vec![2, 3]);
        let s = stats.snapshot();
        assert_eq!(s.index_probes, 1);
        // Residual sal filter visited both candidates.
        assert_eq!(s.rows_scanned, 2);
    }

    #[test]
    fn residual_error_after_index_probe_is_not_swallowed() {
        let c = catalog();
        let missing = ColumnCmp::new("bonus", CmpOp::Gt, Datum::Int(0));
        let scanned = scan(&c, &ExecStats::new(), "emp", &Conjunction::of(vec![missing.clone()]))
            .unwrap_err();
        assert!(scanned.message().contains("no column bonus"), "{scanned}");
        // deptno = 10 wins an index probe; the unknown column is then a
        // residual term and must fail the same way, not drop both rows.
        let probed =
            Conjunction::of(vec![ColumnCmp::new("deptno", CmpOp::Eq, Datum::Int(10)), missing]);
        let stats = ExecStats::new();
        assert_eq!(scan(&c, &stats, "emp", &probed).unwrap_err(), scanned);
        assert_eq!(stats.snapshot().index_probes, 1);
    }

    #[test]
    fn null_comparisons_filter_out() {
        let mut c = catalog();
        c.table_mut("emp")
            .unwrap()
            .insert(vec![Datum::Int(9999), Datum::Null, Datum::Int(10)])
            .unwrap();
        let stats = ExecStats::new();
        let (rows, _) =
            scan(&c, &stats, "emp", &Conjunction::single("sal", CmpOp::Ne, Datum::Int(0)))
                .unwrap();
        // A NULL publishes as "", whose number() is NaN, and NaN != 0 holds
        // in XPath 1.0: the NULL row is kept.
        assert_eq!(rows.len(), 5);
    }

    /// Every key that publishes as something other than a plain number
    /// (NULL, NaN, ±Infinity, −0), under every operator and literal shape:
    /// a probe returns what a scan returns, and both agree with the kernel
    /// on each row's published text.
    #[test]
    fn probes_and_scans_agree_with_the_kernel_on_edge_keys() {
        let nums = [1.0, f64::NAN, f64::NEG_INFINITY, f64::INFINITY, -0.0, 7.0, 7.5];
        let texts = ["7", "", "a", "NaN", "😀"];
        let columns: [(ColType, Vec<Datum>); 3] = [
            (ColType::Num, nums.iter().map(|&n| Datum::Num(n)).chain([Datum::Null]).collect()),
            (ColType::Int, vec![Datum::Int(-1), Datum::Int(0), Datum::Int(7), Datum::Null]),
            (
                ColType::Text,
                texts.iter().map(|&t| Datum::Text(t.into())).chain([Datum::Null]).collect(),
            ),
        ];
        let literals = [
            Datum::Int(0),
            Datum::Num(7.0),
            Datum::Num(-0.0),
            Datum::Num(f64::NAN),
            Datum::Num(f64::INFINITY),
            Datum::Text("7".into()),
            Datum::Text("".into()),
            Datum::Text("NaN".into()),
            Datum::Null,
        ];
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        for (ty, values) in columns {
            let catalog = |indexed: bool| {
                let mut t = Table::new("t", &[("v", ty)]);
                for v in &values {
                    t.insert(vec![v.clone()]).unwrap();
                }
                let mut c = Catalog::new();
                c.add_table(t);
                if indexed {
                    c.create_index("t", "v").unwrap();
                }
                c
            };
            let (indexed, plain) = (catalog(true), catalog(false));
            for op in ops {
                for lit in &literals {
                    let term = ColumnCmp::new("v", op, lit.clone());
                    let want: Vec<RowId> = (0..values.len())
                        .filter(|&r| {
                            let text = values[r].to_text();
                            compare(op, Operand::Nodes(once(text.as_str())), term.literal())
                        })
                        .collect();
                    let pred = Conjunction::of(vec![term]);
                    let (scanned, _) = scan(&plain, &ExecStats::new(), "t", &pred).unwrap();
                    let (probed, _) = scan(&indexed, &ExecStats::new(), "t", &pred).unwrap();
                    assert_eq!(scanned, want, "scan: {ty:?} v {} {lit:?}", op.symbol());
                    assert_eq!(probed, want, "probe: {ty:?} v {} {lit:?}", op.symbol());
                }
            }
        }
    }

    #[test]
    fn empty_predicate_returns_all() {
        let c = catalog();
        let stats = ExecStats::new();
        let (rows, path) = scan(&c, &stats, "emp", &Conjunction::default()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(path, AccessPath::FullScan);
    }

    #[test]
    fn limit_stops_the_scan_after_k_qualifying_rows() {
        let c = catalog();
        let g = Guard::unlimited();
        // Full scan: sal != 1300 qualifies rows 0, 2, 3; the scan stops
        // after pulling row 2, the second match.
        let stats = ExecStats::new();
        let ne = Conjunction::single("sal", CmpOp::Ne, Datum::Int(1300));
        let (rows, _) = scan_guarded(&c, &stats, "emp", &ne, &g, Some(2)).unwrap();
        assert_eq!(rows, vec![0, 2]);
        assert_eq!(stats.snapshot().rows_scanned, 3);
        // Index probe, with and without a residual filter.
        let gt = Conjunction::single("sal", CmpOp::Gt, Datum::Int(2000));
        let (rows, _) = scan_guarded(&c, &ExecStats::new(), "emp", &gt, &g, Some(1)).unwrap();
        assert_eq!(rows, vec![0]);
        let both = Conjunction::of(vec![
            ColumnCmp::new("deptno", CmpOp::Eq, Datum::Int(40)),
            ColumnCmp::new("sal", CmpOp::Gt, Datum::Int(2000)),
        ]);
        let (rows, _) = scan_guarded(&c, &ExecStats::new(), "emp", &both, &g, Some(1)).unwrap();
        assert_eq!(rows, vec![2]);
        let (rows, _) = scan_guarded(&c, &ExecStats::new(), "emp", &both, &g, Some(0)).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn guard_fuel_trips_full_scan() {
        use xsltdb_xml::{Limits, Resource};
        let c = catalog();
        let stats = ExecStats::new();
        let guard = Guard::new(Limits::UNLIMITED.with_fuel(2));
        let err = scan_guarded(&c, &stats, "emp", &Conjunction::default(), &guard, None).unwrap_err();
        assert!(err.message().contains("fuel"), "unexpected error: {}", err.message());
        let trip = guard.trip().expect("trip recorded");
        assert_eq!(trip.resource, Resource::Fuel);
        assert_eq!(trip.limit, 2);
    }

    #[test]
    fn guard_fuel_trips_index_probe() {
        use xsltdb_xml::{Limits, Resource};
        let c = catalog();
        let stats = ExecStats::new();
        let guard = Guard::new(Limits::UNLIMITED.with_fuel(1));
        // sal > 2000 surfaces three rows through the index in one probe.
        let err = scan_guarded(
            &c,
            &stats,
            "emp",
            &Conjunction::single("sal", CmpOp::Gt, Datum::Int(2000)),
            &guard,
            None,
        )
        .unwrap_err();
        assert!(err.message().contains("fuel"), "unexpected error: {}", err.message());
        assert_eq!(guard.trip().unwrap().resource, Resource::Fuel);
    }

    #[test]
    fn guard_expired_deadline_trips_scan() {
        use std::time::Duration;
        use xsltdb_xml::{Limits, Resource};
        let c = catalog();
        let stats = ExecStats::new();
        let guard = Guard::new(Limits::UNLIMITED.with_deadline(Duration::from_secs(0)));
        std::thread::sleep(Duration::from_millis(2));
        let err = scan_guarded(&c, &stats, "emp", &Conjunction::default(), &guard, None).unwrap_err();
        assert!(err.message().contains("deadline"), "unexpected error: {}", err.message());
        assert_eq!(guard.trip().unwrap().resource, Resource::Deadline);
    }
}
