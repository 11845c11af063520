//! Built-in function library for the XQuery subset (the `fn:` namespace).

use crate::ast::XqExpr;
use crate::eval::internal::{ebv, eval, number, EvalEnv, Item, Sequence, XqError};
use xsltdb_xpath::functions::{
    normalize_space, round, substring, substring_after, substring_before, translate,
};
use xsltdb_xpath::value::str_to_num;

pub(crate) fn call_builtin(
    name: &str,
    args: &[XqExpr],
    env: &mut EvalEnv<'_>,
) -> Result<Sequence, XqError> {
    let arity = args.len();
    let mut vals: Vec<Sequence> = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval(a, env)?);
    }
    let str0 = |vals: &[Sequence], i: usize| -> String {
        vals[i]
            .first()
            .map(|it| it.atomize().to_string_value())
            .unwrap_or_default()
    };
    let num0 = |vals: &[Sequence], i: usize| -> f64 { number(&vals[i]) };
    // The optional argument of `string()` and its kin, else the context item.
    let str_or_context = |vals: &[Sequence]| {
        if arity == 0 {
            env_context_string(env)
        } else {
            Ok(str0(vals, 0))
        }
    };
    let wrong_arity = |want: &str| {
        Err(XqError(format!("fn:{name}() expects {want} argument(s), got {arity}")))
    };

    match name {
        "string" => {
            if arity > 1 {
                return wrong_arity("0 or 1");
            }
            Ok(vec![Item::Str(str_or_context(&vals)?)])
        }
        "data" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vals.remove_first().into_iter().map(|i| i.atomize()).collect())
        }
        "concat" => {
            if arity < 2 {
                return wrong_arity("2 or more");
            }
            let mut s = String::new();
            for i in 0..arity {
                s.push_str(&str0(&vals, i));
            }
            Ok(vec![Item::Str(s)])
        }
        "string-join" => {
            if arity != 2 {
                return wrong_arity("2");
            }
            let sep = str0(&vals, 1);
            let parts: Vec<String> = vals[0]
                .iter()
                .map(|i| i.atomize().to_string_value())
                .collect();
            Ok(vec![Item::Str(parts.join(&sep))])
        }
        "count" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Num(vals[0].len() as f64)])
        }
        "sum" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            let total: f64 = vals[0].iter().map(|i| i.to_number()).sum();
            // XQuery's sum(()) is 0.
            Ok(vec![Item::Num(if vals[0].is_empty() { 0.0 } else { total })])
        }
        "avg" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            if vals[0].is_empty() {
                return Ok(Vec::new());
            }
            let total: f64 = vals[0].iter().map(|i| i.to_number()).sum();
            Ok(vec![Item::Num(total / vals[0].len() as f64)])
        }
        "min" | "max" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            if vals[0].is_empty() {
                return Ok(Vec::new());
            }
            let mut nums: Vec<f64> = vals[0].iter().map(|i| i.to_number()).collect();
            nums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let v = if name == "min" { nums[0] } else { nums[nums.len() - 1] };
            Ok(vec![Item::Num(v)])
        }
        "exists" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Bool(!vals[0].is_empty())])
        }
        "empty" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Bool(vals[0].is_empty())])
        }
        "not" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Bool(!ebv(&vals[0])?)])
        }
        "boolean" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Bool(ebv(&vals[0])?)])
        }
        "true" | "false" => {
            if arity != 0 {
                return wrong_arity("no");
            }
            Ok(vec![Item::Bool(name == "true")])
        }
        "number" => {
            if arity > 1 {
                return wrong_arity("0 or 1");
            }
            let n = if arity == 0 {
                str_to_num(&env_context_string(env)?)
            } else {
                num0(&vals, 0)
            };
            Ok(vec![Item::Num(n)])
        }
        "floor" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Num(num0(&vals, 0).floor())])
        }
        "ceiling" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Num(num0(&vals, 0).ceil())])
        }
        "round" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Num(round(num0(&vals, 0)))])
        }
        "contains" => {
            if arity != 2 {
                return wrong_arity("2");
            }
            Ok(vec![Item::Bool(str0(&vals, 0).contains(&str0(&vals, 1)))])
        }
        "starts-with" => {
            if arity != 2 {
                return wrong_arity("2");
            }
            Ok(vec![Item::Bool(str0(&vals, 0).starts_with(&str0(&vals, 1)))])
        }
        "substring-before" => {
            if arity != 2 {
                return wrong_arity("2");
            }
            Ok(vec![Item::Str(substring_before(&str0(&vals, 0), &str0(&vals, 1)))])
        }
        "substring-after" => {
            if arity != 2 {
                return wrong_arity("2");
            }
            Ok(vec![Item::Str(substring_after(&str0(&vals, 0), &str0(&vals, 1)))])
        }
        "substring" => {
            if arity != 2 && arity != 3 {
                return wrong_arity("2 or 3");
            }
            let len = if arity == 3 { Some(num0(&vals, 2)) } else { None };
            Ok(vec![Item::Str(substring(&str0(&vals, 0), num0(&vals, 1), len))])
        }
        "string-length" => {
            if arity > 1 {
                return wrong_arity("0 or 1");
            }
            Ok(vec![Item::Num(str_or_context(&vals)?.chars().count() as f64)])
        }
        "normalize-space" => {
            if arity > 1 {
                return wrong_arity("0 or 1");
            }
            Ok(vec![Item::Str(normalize_space(&str_or_context(&vals)?))])
        }
        "translate" => {
            if arity != 3 {
                return wrong_arity("3");
            }
            Ok(vec![Item::Str(translate(&str0(&vals, 0), &str0(&vals, 1), &str0(&vals, 2)))])
        }
        "upper-case" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Str(str0(&vals, 0).to_uppercase())])
        }
        "lower-case" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            Ok(vec![Item::Str(str0(&vals, 0).to_lowercase())])
        }
        "distinct-values" => {
            if arity != 1 {
                return wrong_arity("1");
            }
            let mut seen = Vec::new();
            let mut out = Vec::new();
            for i in &vals[0] {
                let s = i.atomize().to_string_value();
                if !seen.contains(&s) {
                    seen.push(s.clone());
                    out.push(Item::Str(s));
                }
            }
            Ok(out)
        }
        "position" | "last" => {
            if arity != 0 {
                return wrong_arity("no");
            }
            let n = if name == "position" { env.pos } else { env.size };
            Ok(vec![Item::Num(n as f64)])
        }
        "name" | "local-name" => {
            if arity > 1 {
                return wrong_arity("0 or 1");
            }
            let node = if arity == 0 {
                match &env.ctx {
                    Some(Item::Node(n)) => Some(n.clone()),
                    _ => None,
                }
            } else {
                match vals[0].first() {
                    Some(Item::Node(n)) => Some(n.clone()),
                    _ => None,
                }
            };
            let s = node
                .and_then(|n| {
                    n.doc.node_name(n.id).map(|q| {
                        if name == "name" {
                            q.lexical()
                        } else {
                            q.local.to_string()
                        }
                    })
                })
                .unwrap_or_default();
            Ok(vec![Item::Str(s)])
        }
        other => Err(XqError(format!("unknown function fn:{other}()"))),
    }
}

fn env_context_string(env: &EvalEnv<'_>) -> Result<String, XqError> {
    env.ctx
        .as_ref()
        .map(|i| i.to_string_value())
        .ok_or_else(|| XqError("no context item".into()))
}

trait RemoveFirst {
    fn remove_first(self) -> Sequence;
}

impl RemoveFirst for Vec<Sequence> {
    fn remove_first(mut self) -> Sequence {
        if self.is_empty() {
            Vec::new()
        } else {
            self.remove(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::eval::run_to_string;
    use xsltdb_xml::Guard;

    fn run(src: &str, xml: &str) -> String {
        run_to_string(src, xml, Guard::unlimited()).unwrap()
    }

    #[test]
    fn aggregates() {
        let xml = "<r><n>1</n><n>2</n><n>3</n></r>";
        assert_eq!(run("fn:count(/r/n)", xml), "3");
        assert_eq!(run("fn:sum(/r/n)", xml), "6");
        assert_eq!(run("fn:avg(/r/n)", xml), "2");
        assert_eq!(run("fn:min(/r/n)", xml), "1");
        assert_eq!(run("fn:max(/r/n)", xml), "3");
        assert_eq!(run("fn:sum(())", xml), "0");
    }

    #[test]
    fn string_functions() {
        let xml = "<r/>";
        assert_eq!(run("fn:concat('a', 'b', 1)", xml), "ab1");
        assert_eq!(run("fn:string-join(('a','b','c'), '-')", xml), "a-b-c");
        assert_eq!(run("fn:contains('hello', 'ell')", xml), "true");
        assert_eq!(run("fn:substring('12345', 2, 3)", xml), "234");
        // XPath 1.0 §4.2: an infinite bound is rounded, then summed.
        assert_eq!(run("fn:substring('12345', -1 div 0, 1 div 0)", xml), "");
        assert_eq!(run("fn:substring('12345', 1, -1 div 0)", xml), "");
        assert_eq!(run("fn:substring('12345', -42, 1 div 0)", xml), "12345");
        assert_eq!(run("fn:substring('12345', 0 div 0, 3)", xml), "");
        assert_eq!(run("fn:normalize-space('  a   b ')", xml), "a b");
        assert_eq!(run("fn:upper-case('abc')", xml), "ABC");
        assert_eq!(run("fn:translate('bar', 'abc', 'ABC')", xml), "BAr");
    }

    #[test]
    fn existence_functions() {
        let xml = "<r><a/></r>";
        assert_eq!(run("fn:exists(/r/a)", xml), "true");
        assert_eq!(run("fn:empty(/r/a)", xml), "false");
        assert_eq!(run("fn:not(fn:exists(/r/zz))", xml), "true");
    }

    #[test]
    fn distinct_values() {
        let xml = "<r><n>a</n><n>b</n><n>a</n></r>";
        assert_eq!(run("fn:string-join(fn:distinct-values(/r/n), ',')", xml), "a,b");
    }

    #[test]
    fn fn_prefix_optional() {
        assert_eq!(run("count((1,2))", "<r/>"), "2");
        assert_eq!(run("string(5)", "<r/>"), "5");
    }

    #[test]
    fn name_functions() {
        let xml = "<r><a/></r>";
        assert_eq!(run("fn:name(/r/a)", xml), "a");
        assert_eq!(run("fn:local-name(/r/a)", xml), "a");
    }

    #[test]
    fn position_in_predicate() {
        let xml = "<r><i>x</i><i>y</i></r>";
        assert_eq!(run("fn:string(/r/i[fn:position() = 2])", xml), "y");
        assert_eq!(run("fn:string(/r/i[fn:last()])", xml), "y");
    }

    #[test]
    fn unknown_function_is_error() {
        assert!(run_to_string("fn:bogus(1)", "<r/>", Guard::unlimited()).is_err());
    }
}
