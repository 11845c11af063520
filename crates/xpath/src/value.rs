//! XPath 1.0 value types, conversions, comparison, arithmetic and sort
//! order — the one owner of XPath value semantics. The VM evaluates
//! through it, and the XQuery and SQL tiers call [`compare`], [`arith`]
//! and [`sort_rows`] rather than carrying their own copies, so a
//! comparison, a sum or a sort means the same on every tier.

use crate::functions::number_order;
use std::cmp::Ordering;
use xsltdb_xml::{Document, NodeId};

/// An XPath 1.0 value. Node-sets reference nodes of the context document and
/// are kept sorted in document order with no duplicates.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    NodeSet(Vec<NodeId>),
    Bool(bool),
    Num(f64),
    Str(String),
}

impl Value {
    /// XPath `boolean()` conversion.
    pub fn boolean(&self) -> bool {
        match self {
            Value::NodeSet(ns) => !ns.is_empty(),
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
        }
    }

    /// XPath `string()` conversion (node-sets use the first node in
    /// document order).
    pub fn string(&self, doc: &Document) -> String {
        match self {
            Value::NodeSet(ns) => ns
                .first()
                .map(|&n| doc.string_value(n))
                .unwrap_or_default(),
            Value::Bool(b) => if *b { "true" } else { "false" }.to_string(),
            Value::Num(n) => num_to_string(*n),
            Value::Str(s) => s.clone(),
        }
    }

    /// XPath `number()` conversion.
    pub fn number(&self, doc: &Document) -> f64 {
        match self {
            Value::NodeSet(_) => str_to_num(&self.string(doc)),
            Value::Bool(b) => bool_num(*b),
            Value::Num(n) => *n,
            Value::Str(s) => str_to_num(s),
        }
    }

    /// This value as a [`compare`] operand: a node-set yields its nodes'
    /// string values lazily, as the comparison scans it.
    pub(crate) fn operand<'a>(
        &'a self,
        doc: &'a Document,
    ) -> Operand<'a, impl Iterator<Item = String> + Clone + 'a> {
        match self {
            Value::NodeSet(ns) => Operand::Nodes(ns.iter().map(move |&n| doc.string_value(n))),
            Value::Bool(b) => Operand::Bool(*b),
            Value::Num(n) => Operand::Num(*n),
            Value::Str(s) => Operand::Str(s),
        }
    }

    pub fn as_nodeset(&self) -> Option<&[NodeId]> {
        match self {
            Value::NodeSet(ns) => Some(ns),
            _ => None,
        }
    }

    /// Take the node-set out of the value, or error with `what` context.
    pub fn into_nodeset(self, what: &str) -> Result<Vec<NodeId>, String> {
        match self {
            Value::NodeSet(ns) => Ok(ns),
            other => Err(format!("{what}: expected a node-set, got {}", other.type_name())),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::NodeSet(_) => "node-set",
            Value::Bool(_) => "boolean",
            Value::Num(_) => "number",
            Value::Str(_) => "string",
        }
    }
}

/// The comparison operators (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// The operator that gives the same answer with the operands swapped.
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            eq_or_ne => eq_or_ne,
        }
    }

    /// Compare two numbers (IEEE: NaN is unequal to everything).
    fn numbers(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// The arithmetic operators (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "div",
            ArithOp::Mod => "mod",
        }
    }
}

/// XPath arithmetic (§3.5) on operands already converted with `number()`:
/// IEEE 754 doubles, with `mod` the truncating remainder, whose sign is the
/// dividend's.
pub fn arith(op: ArithOp, a: f64, b: f64) -> f64 {
    match op {
        ArithOp::Add => a + b,
        ArithOp::Sub => a - b,
        ArithOp::Mul => a * b,
        ArithOp::Div => a / b,
        ArithOp::Mod => a % b,
    }
}

/// One operand of [`compare`]: an atomic value, or a node-set given by the
/// string values of its nodes. The node iterator is cloned to scan the set
/// again, so a lazy one reads a node only when the comparison reaches it.
#[derive(Debug, Clone)]
pub enum Operand<'a, N> {
    Nodes(N),
    Bool(bool),
    Num(f64),
    Str(&'a str),
}

impl<N> Operand<'_, N>
where
    N: Iterator + Clone,
    N::Item: AsRef<str>,
{
    /// XPath `boolean()`.
    fn boolean(&self) -> bool {
        match self {
            Operand::Nodes(ns) => ns.clone().next().is_some(),
            Operand::Bool(b) => *b,
            Operand::Num(n) => *n != 0.0 && !n.is_nan(),
            Operand::Str(s) => !s.is_empty(),
        }
    }

    /// XPath `number()`.
    fn number(&self) -> f64 {
        match self {
            Operand::Nodes(ns) => ns.clone().next().map_or(f64::NAN, |s| str_to_num(s.as_ref())),
            Operand::Bool(b) => bool_num(*b),
            Operand::Num(n) => *n,
            Operand::Str(s) => str_to_num(s),
        }
    }
}

fn bool_num(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// The XPath 1.0 comparison (§3.4). A node-set compares existentially,
/// each node as its string value. Against a boolean, a node-set compares
/// as `boolean(node-set)` under every operator. Between atoms, `=` and
/// `!=` compare as booleans if either is one, else as numbers if either
/// is one, else as strings; `<`, `<=`, `>` and `>=` always compare as
/// numbers.
pub fn compare<A, B>(op: CmpOp, a: Operand<'_, A>, b: Operand<'_, B>) -> bool
where
    A: Iterator + Clone,
    A::Item: AsRef<str>,
    B: Iterator + Clone,
    B::Item: AsRef<str>,
{
    use Operand::{Bool, Nodes, Str};
    let equality = matches!(op, CmpOp::Eq | CmpOp::Ne);
    match (a, b) {
        (Nodes(mut x), Nodes(y)) if equality => {
            let ys: Vec<B::Item> = y.collect();
            x.any(|s| ys.iter().any(|t| (s.as_ref() == t.as_ref()) == (op == CmpOp::Eq)))
        }
        (Nodes(mut x), Nodes(y)) => {
            let ys: Vec<f64> = y.map(|t| str_to_num(t.as_ref())).collect();
            x.any(|s| {
                let n = str_to_num(s.as_ref());
                ys.iter().any(|&m| op.numbers(n, m))
            })
        }
        // Against a boolean, a node-set is boolean(node-set) under every
        // operator, and an atom is boolean(atom) under `=` and `!=`.
        (a @ (Bool(_) | Nodes(_)), b @ (Bool(_) | Nodes(_))) => {
            op.numbers(bool_num(a.boolean()), bool_num(b.boolean()))
        }
        (a @ Bool(_), b) | (a, b @ Bool(_)) if equality => {
            op.numbers(bool_num(a.boolean()), bool_num(b.boolean()))
        }
        (Nodes(mut x), b) => x.any(|s| compare::<A, B>(op, Str(s.as_ref()), b.clone())),
        (a, Nodes(mut y)) => y.any(|t| compare::<A, B>(op, a.clone(), Str(t.as_ref()))),
        (Str(x), Str(y)) if equality => (x == y) == (op == CmpOp::Eq),
        (a, b) => op.numbers(a.number(), b.number()),
    }
}

/// One sort key of one row, computed once before [`sort_rows`] runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SortValue {
    Num(f64),
    Str(String),
}

impl SortValue {
    /// Ascending order: two strings compare byte-wise (code point order);
    /// otherwise both compare as numbers under [`number_order`].
    fn order(&self, other: &SortValue) -> Ordering {
        match (self, other) {
            (SortValue::Str(a), SortValue::Str(b)) => a.cmp(b),
            (a, b) => number_order(a.number(), b.number()),
        }
    }

    fn number(&self) -> f64 {
        match self {
            SortValue::Num(n) => *n,
            SortValue::Str(s) => str_to_num(s),
        }
    }
}

/// The one multi-key sort, for `xsl:sort` on the VM, `order by` on the
/// XQuery tier and `ORDER BY` on the SQL tier. Each row carries its keys,
/// and `descending` gives each key's direction (a descending key puts NaN
/// last). Stable: rows whose keys all tie keep their input order. A key
/// that mixes numbers and strings across rows (only an XQuery key can)
/// sorts every row as a number, so the order stays total.
pub fn sort_rows<T>(mut rows: Vec<(Vec<SortValue>, T)>, descending: &[bool]) -> Vec<T> {
    for k in 0..descending.len() {
        let is_num = |r: &(Vec<SortValue>, T)| matches!(r.0.get(k), Some(SortValue::Num(_)));
        if rows.iter().any(is_num) && !rows.iter().all(is_num) {
            for (keys, _) in &mut rows {
                if let Some(v @ SortValue::Str(_)) = keys.get_mut(k) {
                    *v = SortValue::Num(v.number());
                }
            }
        }
    }
    rows.sort_by(|(a, _), (b, _)| {
        a.iter()
            .zip(b)
            .zip(descending)
            .map(|((x, y), &desc)| if desc { y.order(x) } else { x.order(y) })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows.into_iter().map(|(_, row)| row).collect()
}

/// XPath 1.0 number-to-string rules: integers print with no decimal point,
/// NaN prints as `NaN`, infinities as `Infinity`/`-Infinity`.
pub fn num_to_string(n: f64) -> String {
    if n.is_nan() {
        return "NaN".to_string();
    }
    if n.is_infinite() {
        return if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string();
    }
    if n == 0.0 {
        return "0".to_string(); // covers -0.0
    }
    if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        // Shortest representation that round-trips is what Rust's `{}`
        // produces for f64.
        format!("{n}")
    }
}

/// XPath 1.0 string-to-number: optional whitespace, optional minus, digits
/// with optional fraction; anything else is NaN. Whitespace is XML's four
/// characters only, not Unicode's.
pub fn str_to_num(s: &str) -> f64 {
    let t = s.trim_matches(|c| matches!(c, ' ' | '\t' | '\n' | '\r'));
    let core = t.strip_prefix('-').unwrap_or(t);
    let valid = !core.is_empty()
        && core.chars().all(|c| c.is_ascii_digit() || c == '.')
        && core.chars().filter(|&c| c == '.').count() <= 1
        && core != ".";
    if valid {
        t.parse().unwrap_or(f64::NAN)
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsltdb_xml::builder::text_element;

    #[test]
    fn boolean_rules() {
        assert!(!Value::NodeSet(Vec::new()).boolean());
        assert!(Value::NodeSet(vec![NodeId(1)]).boolean());
        assert!(!Value::Num(0.0).boolean());
        assert!(!Value::Num(f64::NAN).boolean());
        assert!(Value::Num(-1.0).boolean());
        assert!(!Value::Str(String::new()).boolean());
        assert!(Value::Str("false".into()).boolean()); // any non-empty string
    }

    #[test]
    fn string_of_nodeset_uses_first_node() {
        let d = text_element("x", "hello");
        let root = d.root_element().unwrap();
        let v = Value::NodeSet(vec![root]);
        assert_eq!(v.string(&d), "hello");
        assert_eq!(Value::NodeSet(Vec::new()).string(&d), "");
    }

    #[test]
    fn num_to_string_rules() {
        assert_eq!(num_to_string(2000.0), "2000");
        assert_eq!(num_to_string(-3.5), "-3.5");
        assert_eq!(num_to_string(0.0), "0");
        assert_eq!(num_to_string(-0.0), "0");
        assert_eq!(num_to_string(f64::NAN), "NaN");
        assert_eq!(num_to_string(f64::INFINITY), "Infinity");
        assert_eq!(num_to_string(f64::NEG_INFINITY), "-Infinity");
    }

    #[test]
    fn str_to_num_rules() {
        assert_eq!(str_to_num(" 42 "), 42.0);
        assert_eq!(str_to_num("-1.5"), -1.5);
        assert!(str_to_num("abc").is_nan());
        assert!(str_to_num("").is_nan());
        assert!(str_to_num("1e3").is_nan()); // exponents are not XPath numbers
        assert!(str_to_num("1.2.3").is_nan());
        assert!(str_to_num(".").is_nan());
        assert_eq!(str_to_num(".5"), 0.5);
    }

    #[test]
    fn str_to_num_edge_rows() {
        let nans = ["NaN", "Infinity", "-Infinity", "+1", "-", "--1", "- 1", "1 2", "\u{a0}1"];
        for nan in nans.into_iter().chain(["1\u{2003}", "１", "😀"]) {
            assert!(str_to_num(nan).is_nan(), "{nan:?}");
        }
        let neg_zero = str_to_num("-0");
        assert!(neg_zero == 0.0 && neg_zero.is_sign_negative());
        assert_eq!(str_to_num(" \t\r\n7\n"), 7.0);
        assert_eq!(str_to_num("1."), 1.0);
        assert_eq!(str_to_num("4503599627370497"), 4503599627370497.0);
        assert_eq!(str_to_num(&format!("1{}", "0".repeat(400))), f64::INFINITY);
    }

    #[test]
    fn num_to_string_edge_rows() {
        let rows: &[(f64, &str)] = &[
            (1e21, "1000000000000000000000"),
            (1e15, "1000000000000000"),
            (-1e15, "-1000000000000000"),
            (1e-7, "0.0000001"),
            (0.1 + 0.2, "0.30000000000000004"),
            (4503599627370497.0, "4503599627370497"),
            (-0.5, "-0.5"),
        ];
        for &(n, want) in rows {
            assert_eq!(num_to_string(n), want, "{n:e}");
            assert_eq!(str_to_num(want), n, "{want} does not read back");
        }
        assert!(num_to_string(f64::MIN_POSITIVE * f64::EPSILON).starts_with("0.000"));
    }

    /// A node-set given as its nodes' string values.
    type Strs<'a> = std::iter::Copied<std::slice::Iter<'a, &'a str>>;

    fn cmp(op: CmpOp, a: Operand<'_, Strs<'_>>, b: Operand<'_, Strs<'_>>) -> bool {
        compare(op, a, b)
    }

    fn nodes<'a>(ns: &'a [&'a str]) -> Operand<'a, Strs<'a>> {
        Operand::Nodes(ns.iter().copied())
    }

    #[test]
    fn compare_matrix_rows() {
        use CmpOp::*;
        use Operand::{Bool, Num, Str};
        let nan = f64::NAN;
        let inf = f64::INFINITY;
        // (op, a, b, expected)
        let rows = [
            // Strings: `=` by string, the rest as numbers.
            (Lt, Str("10"), Str("9"), false),
            (Lt, Str("a"), Str("b"), false),
            (Eq, Str("1.0"), Str("1"), false),
            (Eq, Str("😀"), Str("😀"), true),
            (Ne, Str("😀"), Str("😁"), true),
            (Lt, Str("😀"), Str("😁"), false),
            // Numbers: IEEE, NaN unequal to itself.
            (Eq, Num(nan), Num(nan), false),
            (Ne, Num(nan), Num(nan), true),
            (Le, Num(nan), Num(inf), false),
            (Eq, Num(-0.0), Num(0.0), true),
            (Lt, Num(-inf), Num(-1e308), true),
            (Eq, Num(inf), Str("Infinity"), false),
            (Eq, Num(nan), Str("NaN"), false),
            (Eq, Num(1.0), Str(" 1 "), true),
            // Booleans win over numbers and strings for `=`/`!=` only.
            (Eq, Bool(true), Str("x"), true),
            (Eq, Bool(false), Str(""), true),
            (Eq, Bool(true), Num(nan), false),
            (Eq, Num(2.0), Bool(true), true),
            (Gt, Bool(true), Bool(false), true),
            (Lt, Bool(true), Str("2"), true),
        ];
        for (op, a, b, want) in rows {
            let (da, db) = (format!("{a:?}"), format!("{b:?}"));
            assert_eq!(cmp(op, a, b), want, "{da} {} {db}", op.symbol());
        }
    }

    #[test]
    fn compare_node_set_rows() {
        use CmpOp::*;
        use Operand::{Bool, Num, Str};
        // Existential against atoms, each node as its string value.
        assert!(cmp(Eq, nodes(&["1", "2"]), Num(2.0)));
        assert!(cmp(Ne, nodes(&["1", "2"]), Num(2.0)));
        assert!(cmp(Gt, Num(2.0), nodes(&["1", "5"])));
        assert!(!cmp(Gt, nodes(&["NaN", "Infinity"]), Num(0.0)));
        assert!(cmp(Eq, nodes(&["😀"]), Str("😀")));
        assert!(!cmp(Lt, nodes(&["a"]), Str("b")));
        // The empty node-set satisfies nothing, except as a boolean.
        assert!(!cmp(Eq, nodes(&[]), Str("")));
        assert!(!cmp(Ne, nodes(&[]), Num(1.0)));
        assert!(cmp(Eq, nodes(&[]), Bool(false)));
        assert!(cmp(Eq, Bool(true), nodes(&["0"])));
        // Node-set against node-set.
        assert!(cmp(Ne, nodes(&["x"]), nodes(&["x", "y"])));
        assert!(!cmp(Eq, nodes(&["x"]), nodes(&[])));
        assert!(cmp(Lt, nodes(&["3", "10"]), nodes(&["9"])));
        assert!(!cmp(Eq, nodes(&["NaN"]), nodes(&["Infinity"])));
        assert!(cmp(Eq, nodes(&["NaN"]), nodes(&["NaN"])));
    }

    #[test]
    fn flip_swaps_operands() {
        let vals =
            [Operand::Num(1.0), Operand::Num(2.0), Operand::Num(f64::NAN), Operand::Str("1")];
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            for a in &vals {
                for b in &vals {
                    assert_eq!(cmp(op, a.clone(), b.clone()), cmp(op.flip(), b.clone(), a.clone()));
                }
            }
        }
    }

    #[test]
    fn arith_rows() {
        use ArithOp::*;
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let rows = [
            (Add, nan, 1.0, nan),
            (Sub, inf, inf, nan),
            (Add, -inf, 1e308, -inf),
            (Mul, -0.0, 1.0, -0.0),
            (Sub, 0.0, 0.0, 0.0),
            (Div, 1.0, 0.0, inf),
            (Div, 1.0, -0.0, -inf),
            (Div, -1.0, 0.0, -inf),
            (Div, 0.0, 0.0, nan),
            (Mod, 5.0, 2.0, 1.0),
            (Mod, 5.0, -2.0, 1.0),
            (Mod, -5.0, 2.0, -1.0),
            (Mod, -5.0, -2.0, -1.0),
            (Mod, 5.0, 0.0, nan),
            (Mod, inf, 2.0, nan),
            (Mod, 5.0, inf, 5.0),
            (Mod, -0.0, 2.0, -0.0),
        ];
        for (op, a, b, want) in rows {
            let got = arith(op, a, b);
            let same = (got.is_nan() && want.is_nan())
                || (got == want && got.is_sign_negative() == want.is_sign_negative());
            assert!(same, "{a} {} {b} = {got}, want {want}", op.symbol());
        }
    }

    /// Sort rows tagged with their input index under one key direction;
    /// return the tags in sorted order.
    fn sorted(keys: Vec<Vec<SortValue>>, descending: &[bool]) -> Vec<usize> {
        sort_rows(keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect(), descending)
    }

    #[test]
    fn sort_rows_edge_table() {
        use SortValue::{Num, Str};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        let text = |s: &str| Str(s.to_string());
        // (keys of each row, direction, expected order of the rows)
        let rows: Vec<(Vec<SortValue>, bool, Vec<usize>)> = vec![
            // NaN before -Infinity before numbers before +Infinity.
            (vec![Num(1.0), Num(inf), Num(nan), Num(-inf)], false, vec![2, 3, 0, 1]),
            // Descending puts NaN last.
            (vec![Num(1.0), Num(inf), Num(nan), Num(-inf)], true, vec![1, 0, 3, 2]),
            // -0 and 0 tie, so input order holds either way.
            (vec![Num(0.0), Num(-0.0)], false, vec![0, 1]),
            (vec![Num(-0.0), Num(0.0)], true, vec![0, 1]),
            // Under a numeric key, "" and non-numeric text are NaN: they tie
            // with NaN and come first.
            (
                vec![Num(3.0), Num(str_to_num("")), Num(str_to_num("x")), Num(nan)],
                false,
                vec![1, 2, 3, 0],
            ),
            // Text compares byte-wise: "10" < "9", upper case before lower.
            (vec![text("9"), text("10"), text("a"), text("B")], false, vec![1, 0, 3, 2]),
            // Non-BMP text: byte order (code points) puts U+FFFD before
            // U+1F600, where UTF-16 order would not.
            (vec![text("\u{1F600}"), text("\u{FFFD}"), text("\u{E000}")], false, vec![2, 1, 0]),
            // A key that mixes kinds compares every row as a number: "10"
            // is 10, and "x" and "" are NaN.
            (vec![Num(9.0), text("10"), text("x"), Num(2.0)], false, vec![2, 3, 0, 1]),
            (vec![text("9"), Num(10.0), Num(nan), text("")], false, vec![2, 3, 0, 1]),
        ];
        for (keys, desc, want) in rows {
            let shown = format!("{keys:?}");
            let got = sorted(keys.into_iter().map(|k| vec![k]).collect(), &[desc]);
            assert_eq!(got, want, "{shown} desc={desc}");
        }
    }

    #[test]
    fn sort_rows_breaks_ties_by_later_keys_then_input_order() {
        use SortValue::{Num, Str};
        let row = |a: &str, b: f64| vec![Str(a.to_string()), Num(b)];
        let keys = vec![row("b", 1.0), row("a", 2.0), row("a", 1.0), row("b", 1.0), row("a", 2.0)];
        // Primary ascending, secondary ascending: full ties keep input order.
        assert_eq!(sorted(keys.clone(), &[false, false]), vec![2, 1, 4, 0, 3]);
        // Secondary descending: still stable within full ties.
        assert_eq!(sorted(keys.clone(), &[false, true]), vec![1, 4, 2, 0, 3]);
        // Primary descending: descending reverses the key, not the ties.
        assert_eq!(sorted(keys, &[true, false]), vec![0, 3, 2, 1, 4]);
        // No keys at all: input order.
        assert_eq!(sorted(vec![vec![], vec![]], &[]), vec![0, 1]);
    }

    #[test]
    fn number_conversion() {
        let d = text_element("x", "7");
        let root = d.root_element().unwrap();
        assert_eq!(Value::NodeSet(vec![root]).number(&d), 7.0);
        assert_eq!(Value::Bool(true).number(&d), 1.0);
        assert_eq!(Value::Str("3.5".into()).number(&d), 3.5);
    }
}
