//! The XPath 1.0 core function library, plus the XSLT additions the engine
//! needs (`current()`, `generate-id()`).

use crate::ast::Expr;
use crate::eval::{evaluate, Ctx, XPathError};
use crate::value::{num_to_string, str_to_num, Value};
use std::cmp::Ordering;

pub(crate) fn call(name: &str, args: &[Expr], ctx: &Ctx<'_>) -> Result<Value, XPathError> {
    let arity = args.len();
    let err_arity = |want: &str| {
        Err(XPathError(format!("{name}() expects {want} argument(s), got {arity}")))
    };
    // Evaluate arguments eagerly; all XPath 1.0 functions are strict.
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        vals.push(evaluate(a, ctx)?);
    }
    let doc = ctx.doc;
    let str_arg = |i: usize| -> String { vals[i].string(doc) };
    let num_arg = |i: usize| -> f64 { vals[i].number(doc) };

    match name {
        // --- Node-set functions ---
        "position" => {
            if arity != 0 {
                return err_arity("no");
            }
            Ok(Value::Num(ctx.position as f64))
        }
        "last" => {
            if arity != 0 {
                return err_arity("no");
            }
            Ok(Value::Num(ctx.size as f64))
        }
        "count" => {
            if arity != 1 {
                return err_arity("1");
            }
            let ns = vals.remove(0).into_nodeset("count()").map_err(XPathError)?;
            Ok(Value::Num(ns.len() as f64))
        }
        "sum" => {
            if arity != 1 {
                return err_arity("1");
            }
            let ns = vals.remove(0).into_nodeset("sum()").map_err(XPathError)?;
            let total: f64 = ns.iter().map(|&n| str_to_num(&doc.string_value(n))).sum();
            Ok(Value::Num(total))
        }
        "local-name" | "name" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            let node = if arity == 1 {
                match &vals[0] {
                    Value::NodeSet(ns) => ns.first().copied(),
                    other => {
                        return Err(XPathError(format!(
                            "{name}(): expected a node-set, got {}",
                            other.type_name()
                        )))
                    }
                }
            } else {
                Some(ctx.node)
            };
            let s = node
                .and_then(|n| doc.node_name(n))
                .map(|q| {
                    if name == "name" {
                        q.lexical()
                    } else {
                        q.local.to_string()
                    }
                })
                .unwrap_or_default();
            Ok(Value::Str(s))
        }
        "namespace-uri" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            let node = if arity == 1 {
                vals[0].as_nodeset().and_then(|ns| ns.first().copied())
            } else {
                Some(ctx.node)
            };
            let s = node
                .and_then(|n| doc.node_name(n))
                .and_then(|q| q.ns_uri.as_deref())
                .unwrap_or_default();
            Ok(Value::Str(s.to_string()))
        }
        "generate-id" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            let node = if arity == 1 {
                vals[0].as_nodeset().and_then(|ns| ns.first().copied())
            } else {
                Some(ctx.node)
            };
            Ok(Value::Str(node.map(|n| format!("id{}", n.0)).unwrap_or_default()))
        }
        // --- String functions ---
        "string" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            if arity == 0 {
                Ok(Value::Str(doc.string_value(ctx.node)))
            } else {
                Ok(Value::Str(str_arg(0)))
            }
        }
        "concat" => {
            if arity < 2 {
                return err_arity("2 or more");
            }
            let mut s = String::new();
            for i in 0..arity {
                s.push_str(&str_arg(i));
            }
            Ok(Value::Str(s))
        }
        "starts-with" => {
            if arity != 2 {
                return err_arity("2");
            }
            Ok(Value::Bool(str_arg(0).starts_with(&str_arg(1))))
        }
        "contains" => {
            if arity != 2 {
                return err_arity("2");
            }
            Ok(Value::Bool(str_arg(0).contains(&str_arg(1))))
        }
        "substring-before" => {
            if arity != 2 {
                return err_arity("2");
            }
            Ok(Value::Str(substring_before(&str_arg(0), &str_arg(1))))
        }
        "substring-after" => {
            if arity != 2 {
                return err_arity("2");
            }
            Ok(Value::Str(substring_after(&str_arg(0), &str_arg(1))))
        }
        "substring" => {
            if arity != 2 && arity != 3 {
                return err_arity("2 or 3");
            }
            let len = if arity == 3 { Some(num_arg(2)) } else { None };
            Ok(Value::Str(substring(&str_arg(0), num_arg(1), len)))
        }
        "string-length" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            let s = if arity == 0 { doc.string_value(ctx.node) } else { str_arg(0) };
            Ok(Value::Num(s.chars().count() as f64))
        }
        "normalize-space" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            let s = if arity == 0 { doc.string_value(ctx.node) } else { str_arg(0) };
            Ok(Value::Str(normalize_space(&s)))
        }
        "translate" => {
            if arity != 3 {
                return err_arity("3");
            }
            Ok(Value::Str(translate(&str_arg(0), &str_arg(1), &str_arg(2))))
        }
        // --- Boolean functions ---
        "boolean" => {
            if arity != 1 {
                return err_arity("1");
            }
            Ok(Value::Bool(vals[0].boolean()))
        }
        "not" => {
            if arity != 1 {
                return err_arity("1");
            }
            Ok(Value::Bool(!vals[0].boolean()))
        }
        "true" => {
            if arity != 0 {
                return err_arity("no");
            }
            Ok(Value::Bool(true))
        }
        "false" => {
            if arity != 0 {
                return err_arity("no");
            }
            Ok(Value::Bool(false))
        }
        // --- Number functions ---
        "number" => {
            if arity > 1 {
                return err_arity("0 or 1");
            }
            if arity == 0 {
                Ok(Value::Num(str_to_num(&doc.string_value(ctx.node))))
            } else {
                Ok(Value::Num(num_arg(0)))
            }
        }
        "floor" => {
            if arity != 1 {
                return err_arity("1");
            }
            Ok(Value::Num(num_arg(0).floor()))
        }
        "ceiling" => {
            if arity != 1 {
                return err_arity("1");
            }
            Ok(Value::Num(num_arg(0).ceil()))
        }
        "round" => {
            if arity != 1 {
                return err_arity("1");
            }
            Ok(Value::Num(round(num_arg(0))))
        }
        // --- XSLT additions ---
        "current" => {
            if arity != 0 {
                return err_arity("no");
            }
            let cur = ctx.env.current.ok_or_else(|| {
                XPathError("current() is only available inside a stylesheet".into())
            })?;
            Ok(Value::NodeSet(vec![cur]))
        }
        "format-number" => {
            // Minimal: format the number with the XPath rules, ignoring the
            // picture string except for a `#.00`-style fraction count.
            if arity < 2 {
                return err_arity("2 or 3");
            }
            let n = num_arg(0);
            let picture = str_arg(1);
            let s = if let Some(frac) = picture.split('.').nth(1) {
                format!("{:.*}", frac.len(), n)
            } else {
                num_to_string(n)
            };
            Ok(Value::Str(s))
        }
        _ => Err(XPathError(format!("unknown function {name}()"))),
    }
}

/// XPath 1.0 `substring` semantics (§4.2), shared with XQuery's
/// `fn:substring`: the characters at 1-based positions `p` with
/// `round(start) <= p < round(start) + round(len)`; without `len`, to the
/// end. The sum follows IEEE arithmetic, so `-INF + INF` is NaN and, like
/// a NaN argument, selects nothing.
pub fn substring(s: &str, start: f64, len: Option<f64>) -> String {
    let start = round(start);
    let end = len.map_or(f64::INFINITY, |len| start + round(len));
    s.chars()
        .enumerate()
        .filter(|(i, _)| {
            let pos = (*i + 1) as f64;
            pos >= start && pos < end
        })
        .map(|(_, c)| c)
        .collect()
}

/// XPath 1.0 `substring-before` (§4.2): the part of `s` before the first
/// occurrence of `sub`; empty when `s` does not contain `sub`.
pub fn substring_before(s: &str, sub: &str) -> String {
    s.find(sub).map(|i| s[..i].to_string()).unwrap_or_default()
}

/// XPath 1.0 `substring-after` (§4.2): the part of `s` after the first
/// occurrence of `sub`; empty when `s` does not contain `sub`.
pub fn substring_after(s: &str, sub: &str) -> String {
    s.find(sub).map(|i| s[i + sub.len()..].to_string()).unwrap_or_default()
}

/// XPath 1.0 `normalize-space` (§4.2): strip leading and trailing
/// whitespace and collapse each inner run of it to one space.
pub fn normalize_space(s: &str) -> String {
    s.split_ascii_whitespace().collect::<Vec<_>>().join(" ")
}

/// XPath 1.0 `translate` (§4.2): each character of `s` found in `from` is
/// replaced by the character at the same position in `to`, or removed when
/// `to` is shorter; the first occurrence in `from` decides.
pub fn translate(s: &str, from: &str, to: &str) -> String {
    let from: Vec<char> = from.chars().collect();
    let to: Vec<char> = to.chars().collect();
    s.chars()
        .filter_map(|c| match from.iter().position(|&f| f == c) {
            Some(i) => to.get(i).copied(),
            None => Some(c),
        })
        .collect()
}

/// XPath 1.0 `round` (§4.4): the closest integer, with .5 rounded towards
/// positive infinity; NaN and the infinities stay as they are, and a
/// negative argument that rounds to zero gives −0. The fraction is taken
/// as `n - floor(n)`, which is exact; `floor(n + 0.5)` is not, and rounds
/// 0.49999999999999994 to 1 and 2^52 + 1 to 2^52 + 2.
pub fn round(n: f64) -> f64 {
    let floor = n.floor();
    let r = if n - floor >= 0.5 { floor + 1.0 } else { floor };
    if r == 0.0 && n.is_sign_negative() {
        -0.0
    } else {
        r
    }
}

/// The order of `xsl:sort data-type="number"` keys (XSLT 1.0 §10), which
/// every tier sorts by: ascending, with NaN before every number.
pub fn number_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::{evaluate_str, Ctx, Env};
    use crate::value::Value;
    use xsltdb_xml::parse::parse;
    use xsltdb_xml::NodeId;

    fn eval(src: &str) -> Value {
        let doc = parse("<r><a>one</a><a>two</a><n>5</n></r>").unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        evaluate_str(src, &ctx).unwrap()
    }

    fn eval_s(src: &str) -> String {
        match eval(src) {
            Value::Str(s) => s,
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn count_and_sum() {
        assert_eq!(eval("count(//a)"), Value::Num(2.0));
        assert_eq!(eval("sum(//n)"), Value::Num(5.0));
        assert!(eval("sum(//a)").number(&parse("<x/>").unwrap()).is_nan());
    }

    #[test]
    fn string_functions() {
        assert_eq!(eval_s("concat('a', 'b', 'c')"), "abc");
        assert_eq!(eval("starts-with('hello', 'he')"), Value::Bool(true));
        assert_eq!(eval("contains('hello', 'ell')"), Value::Bool(true));
        assert_eq!(eval_s("substring-before('1999/04/01', '/')"), "1999");
        assert_eq!(eval_s("substring-after('1999/04/01', '/')"), "04/01");
        assert_eq!(eval_s("normalize-space('  a   b  ')"), "a b");
        assert_eq!(eval_s("translate('bar', 'abc', 'ABC')"), "BAr");
        assert_eq!(eval_s("translate('--aaa--', 'abc-', 'ABC')"), "AAA");
    }

    #[test]
    fn substring_spec_examples() {
        assert_eq!(eval_s("substring('12345', 2, 3)"), "234");
        assert_eq!(eval_s("substring('12345', 2)"), "2345");
        assert_eq!(eval_s("substring('12345', 1.5, 2.6)"), "234");
        assert_eq!(eval_s("substring('12345', 0, 3)"), "12");
        assert_eq!(eval_s("substring('12345', 0 div 0, 3)"), "");
        assert_eq!(eval_s("substring('12345', -42, 1 div 0)"), "12345");
        assert_eq!(eval_s("substring('12345', -1 div 0, 1 div 0)"), "");
        assert_eq!(eval_s("substring('12345', 1, -1 div 0)"), "");
        assert_eq!(eval_s("substring('12345', -1 div 0)"), "12345");
    }

    #[test]
    fn substring_before_and_after_spec_examples() {
        use super::{substring_after, substring_before};
        assert_eq!(substring_before("1999/04/01", "/"), "1999");
        assert_eq!(substring_before("1999/04/01", "-"), "");
        assert_eq!(substring_after("1999/04/01", "/"), "04/01");
        assert_eq!(substring_after("1999/04/01", "19"), "99/04/01");
        assert_eq!(substring_after("1999/04/01", "-"), "");
    }

    #[test]
    fn normalize_space_spec_examples() {
        assert_eq!(super::normalize_space("  a \t b\n\n c  "), "a b c");
        assert_eq!(super::normalize_space(" \r\n "), "");
    }

    #[test]
    fn translate_spec_examples() {
        use super::translate;
        assert_eq!(translate("bar", "abc", "ABC"), "BAr");
        assert_eq!(translate("--aaa--", "abc-", "ABC"), "AAA");
        assert_eq!(translate("aba", "aa", "xy"), "xbx");
    }

    #[test]
    fn round_spec_examples() {
        use super::round;
        assert_eq!(round(2.5), 3.0);
        assert_eq!(round(-2.5), -2.0);
        assert_eq!(round(2.4999), 2.0);
        assert_eq!(round(f64::INFINITY), f64::INFINITY);
        assert!(round(f64::NAN).is_nan());
    }

    #[test]
    fn round_edge_rows() {
        use super::round;
        let rows = [
            (0.49999999999999994, 0.0),
            (4503599627370497.0, 4503599627370497.0),
            (-4503599627370497.0, -4503599627370497.0),
            (0.5, 1.0),
            (-1.5, -1.0),
            (-0.5000000000000001, -1.0),
            (-0.5, -0.0),
            (-0.25, -0.0),
            (-1e-300, -0.0),
            (-0.0, -0.0),
            (0.0, 0.0),
            (1e300, 1e300),
            (f64::NEG_INFINITY, f64::NEG_INFINITY),
        ];
        for (n, want) in rows {
            let got = round(n);
            assert!(
                got == want && got.is_sign_negative() == want.is_sign_negative(),
                "round({n:e}) = {got:e}, want {want:e}"
            );
        }
        // −0 is visible through division.
        assert_eq!(eval("1 div round(-0.25)"), Value::Num(f64::NEG_INFINITY));
        assert_eq!(eval_s("string(1 div round(-0))"), "-Infinity");
    }

    #[test]
    fn string_kernel_edge_rows() {
        use super::{normalize_space, substring, substring_after, substring_before, translate};
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // substring counts characters, not UTF-8 bytes or UTF-16 units.
        assert_eq!(substring("a😀b", 2.0, Some(1.0)), "😀");
        assert_eq!(substring("😀😁😂", 2.0, None), "😁😂");
        assert_eq!(substring("12345", -0.0, Some(2.0)), "1");
        assert_eq!(substring("12345", 2.0, Some(nan)), "");
        assert_eq!(substring("12345", inf, None), "");
        assert_eq!(substring("12345", -inf, Some(inf)), "");
        assert_eq!(substring("12345", 1.5, Some(-0.0)), "");
        assert_eq!(substring("12345", 0.49999999999999994, Some(2.0)), "1");
        assert_eq!(substring_before("a😀b", "😀"), "a");
        assert_eq!(substring_after("a😀b", "😀"), "b");
        assert_eq!(substring_before("abc", ""), "");
        assert_eq!(substring_after("abc", ""), "abc");
        assert_eq!(substring_after("😀", "😀"), "");
        assert_eq!(normalize_space(" 😀 \t 😁\r\n"), "😀 😁");
        // Only XML's four whitespace characters collapse.
        assert_eq!(normalize_space("\u{a0}a\u{2003}b "), "\u{a0}a\u{2003}b");
        assert_eq!(translate("a😀b", "😀", "x"), "axb");
        assert_eq!(translate("a😀b", "ab", "😁"), "😁😀");
        assert_eq!(translate("NaN", "N", ""), "a");
    }

    #[test]
    fn number_order_puts_nan_first() {
        use super::number_order;
        use std::cmp::Ordering::*;
        assert_eq!(number_order(f64::NAN, f64::NEG_INFINITY), Less);
        assert_eq!(number_order(1.0, f64::NAN), Greater);
        assert_eq!(number_order(f64::NAN, f64::NAN), Equal);
        assert_eq!(number_order(2.0, 10.0), Less);
        assert_eq!(number_order(-0.0, 0.0), Equal);
        assert_eq!(number_order(f64::NEG_INFINITY, -f64::MAX), Less);
        assert_eq!(number_order(f64::INFINITY, f64::MAX), Greater);
        assert_eq!(number_order(f64::NAN, f64::INFINITY), Less);
        let mut v = [3.0, f64::NAN, -1.0, 2.0];
        v.sort_by(|a, b| number_order(*a, *b));
        assert!(v[0].is_nan());
        assert_eq!(&v[1..], &[-1.0, 2.0, 3.0]);
    }

    #[test]
    fn number_functions() {
        assert_eq!(eval("floor(2.6)"), Value::Num(2.0));
        assert_eq!(eval("ceiling(2.1)"), Value::Num(3.0));
        assert_eq!(eval("round(2.5)"), Value::Num(3.0));
        assert_eq!(eval("round(-2.5)"), Value::Num(-2.0));
        assert_eq!(eval("number('7')"), Value::Num(7.0));
    }

    #[test]
    fn boolean_functions() {
        assert_eq!(eval("not(false())"), Value::Bool(true));
        assert_eq!(eval("boolean(//a)"), Value::Bool(true));
        assert_eq!(eval("boolean(//zzz)"), Value::Bool(false));
    }

    #[test]
    fn name_functions() {
        assert_eq!(eval_s("name(//a)"), "a");
        assert_eq!(eval_s("local-name(//a)"), "a");
        assert_eq!(eval_s("name(//zzz)"), "");
    }

    #[test]
    fn string_length_counts_chars() {
        assert_eq!(eval("string-length('héllo')"), Value::Num(5.0));
    }

    #[test]
    fn generate_id_unique_per_node() {
        let a = eval_s("generate-id(//a[1])");
        let b = eval_s("generate-id(//a[2])");
        assert_ne!(a, b);
        assert!(a.starts_with("id"));
    }

    #[test]
    fn unknown_function_errors() {
        let doc = parse("<x/>").unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        assert!(evaluate_str("bogus()", &ctx).is_err());
    }

    #[test]
    fn wrong_arity_errors() {
        let doc = parse("<x/>").unwrap();
        let env = Env::default();
        let ctx = Ctx::new(&doc, NodeId::DOCUMENT, &env);
        assert!(evaluate_str("count()", &ctx).is_err());
        assert!(evaluate_str("concat('a')", &ctx).is_err());
    }

    #[test]
    fn format_number_minimal() {
        assert_eq!(eval_s("format-number(2.345, '#.00')"), "2.35"); // rounded to 2 places
        assert_eq!(eval_s("format-number(2, '#')"), "2");
    }
}
