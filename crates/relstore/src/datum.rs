//! Column values and their total order (for B-tree index keys).

use std::cmp::Ordering;
use std::fmt;
use xsltdb_xpath::functions::number_order;
use xsltdb_xpath::value::str_to_num;

/// Column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColType {
    Int,
    Num,
    Text,
}

/// A column value.
#[derive(Debug, Clone, PartialEq)]
pub enum Datum {
    Null,
    Int(i64),
    Num(f64),
    Text(String),
}

impl Datum {
    pub fn is_null(&self) -> bool {
        matches!(self, Datum::Null)
    }

    /// SQL-ish display: NULL renders empty (as in XML publishing).
    pub fn to_text(&self) -> String {
        match self {
            Datum::Null => String::new(),
            Datum::Int(i) => i.to_string(),
            Datum::Num(n) => xsltdb_xpath::value::num_to_string(*n),
            Datum::Text(s) => s.clone(),
        }
    }

    /// Lend [`to_text`](Self::to_text)'s rendering to `f` without
    /// allocating it: text is passed by reference and an `Int` is formatted
    /// into a stack buffer; only `Num` still builds its string.
    pub(crate) fn with_text<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        match self {
            Datum::Null => f(""),
            Datum::Int(i) => {
                // 20 bytes hold i64::MIN, sign included.
                let mut buf = [0u8; 20];
                let mut at = buf.len();
                let mut n = i.unsigned_abs();
                loop {
                    at -= 1;
                    buf[at] = b'0' + (n % 10) as u8;
                    n /= 10;
                    if n == 0 {
                        break;
                    }
                }
                if *i < 0 {
                    at -= 1;
                    buf[at] = b'-';
                }
                f(std::str::from_utf8(&buf[at..]).unwrap_or_default())
            }
            Datum::Num(n) => f(&xsltdb_xpath::value::num_to_string(*n)),
            Datum::Text(s) => f(s),
        }
    }

    /// XPath `number()` of the published value ([`to_text`](Self::to_text)),
    /// read without printing it: NULL publishes as `""` and ±Infinity as
    /// `Infinity`, which are not XPath numbers, so both are NaN.
    pub(crate) fn number(&self) -> f64 {
        match self {
            Datum::Int(i) => *i as f64,
            Datum::Num(n) if n.is_infinite() => f64::NAN,
            Datum::Num(n) => *n,
            Datum::Null => f64::NAN,
            Datum::Text(s) => str_to_num(s),
        }
    }

    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Datum::Int(i) => Some(*i as f64),
            Datum::Num(n) => Some(*n),
            Datum::Null | Datum::Text(_) => None,
        }
    }

    /// Total order used by indexes and comparisons: NULL < numbers < text.
    /// Ints and floats compare numerically; NaN sorts below all numbers.
    pub fn cmp_total(&self, other: &Datum) -> Ordering {
        use Datum::*;
        fn rank(d: &Datum) -> u8 {
            match d {
                Null => 0,
                Int(_) | Num(_) => 1,
                Text(_) => 2,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Text(a), Text(b)) => a.cmp(b),
            (a, b) if rank(a) == 1 && rank(b) == 1 => {
                number_order(a.as_f64().expect("numeric"), b.as_f64().expect("numeric"))
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(i) => write!(f, "{i}"),
            Datum::Num(n) => write!(f, "{n}"),
            Datum::Text(s) => write!(f, "'{s}'"),
        }
    }
}

/// A `Datum` wrapper with `Ord`, usable as a B-tree key.
#[derive(Debug, Clone, PartialEq)]
pub struct DatumKey(pub Datum);

impl Eq for DatumKey {}

impl PartialOrd for DatumKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DatumKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_total(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order() {
        assert_eq!(Datum::Int(1).cmp_total(&Datum::Int(2)), Ordering::Less);
        assert_eq!(Datum::Int(2).cmp_total(&Datum::Num(2.0)), Ordering::Equal);
        assert_eq!(Datum::Num(2.5).cmp_total(&Datum::Int(2)), Ordering::Greater);
        assert_eq!(Datum::Null.cmp_total(&Datum::Int(0)), Ordering::Less);
        assert_eq!(Datum::Text("a".into()).cmp_total(&Datum::Int(9)), Ordering::Greater);
        assert_eq!(
            Datum::Text("a".into()).cmp_total(&Datum::Text("b".into())),
            Ordering::Less
        );
    }

    #[test]
    fn nan_sorts_low_among_numbers() {
        assert_eq!(Datum::Num(f64::NAN).cmp_total(&Datum::Num(0.0)), Ordering::Less);
        assert_eq!(Datum::Num(f64::NAN).cmp_total(&Datum::Null), Ordering::Greater);
    }

    #[test]
    fn to_text_rules() {
        assert_eq!(Datum::Null.to_text(), "");
        assert_eq!(Datum::Int(42).to_text(), "42");
        assert_eq!(Datum::Num(2.5).to_text(), "2.5");
        assert_eq!(Datum::Num(2.0).to_text(), "2");
        assert_eq!(Datum::Text("x".into()).to_text(), "x");
    }

    #[test]
    fn with_text_lends_the_to_text_rendering() {
        let ints = [0, 7, -7, 10, -10, 42, i64::MAX, i64::MIN, i64::MIN + 1];
        let nums = [f64::NAN, -0.0, 1e21, 0.5, f64::INFINITY, -2.5];
        let data = ints
            .iter()
            .map(|&i| Datum::Int(i))
            .chain(nums.iter().map(|&n| Datum::Num(n)))
            .chain([Datum::Null, Datum::Text(String::new()), Datum::Text("<&>\"\r".into())]);
        for d in data {
            assert_eq!(d.with_text(str::to_owned), d.to_text(), "{d:?}");
        }
    }

    #[test]
    fn key_usable_in_btreemap() {
        use std::collections::BTreeMap;
        let mut m = BTreeMap::new();
        m.insert(DatumKey(Datum::Int(5)), "five");
        m.insert(DatumKey(Datum::Int(1)), "one");
        let keys: Vec<_> = m.keys().map(|k| k.0.clone()).collect();
        assert_eq!(keys, vec![Datum::Int(1), Datum::Int(5)]);
        // Float key matches int key when numerically equal.
        assert!(m.contains_key(&DatumKey(Datum::Num(5.0))));
    }
}
