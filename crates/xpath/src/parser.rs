//! Recursive-descent parser for XPath 1.0.

use crate::ast::{Axis, BinOp, Expr, LocationPath, NodeTest, Step};
use crate::lexer::{tokenize, LexError, Tok};
use crate::value::{ArithOp, CmpOp};
use std::fmt;

/// Parse error for XPath expressions and patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct XPathParseError {
    pub message: String,
}

impl fmt::Display for XPathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath parse error: {}", self.message)
    }
}

impl std::error::Error for XPathParseError {}

impl From<LexError> for XPathParseError {
    fn from(e: LexError) -> Self {
        XPathParseError { message: e.to_string() }
    }
}

/// Parse an XPath 1.0 expression.
pub fn parse_expr(input: &str) -> Result<Expr, XPathParseError> {
    let toks = tokenize(input)?;
    let mut p = P { toks, pos: 0 };
    let e = p.or_expr()?;
    if p.pos != p.toks.len() {
        return Err(p.err(format!("unexpected trailing token `{}`", p.toks[p.pos])));
    }
    Ok(e)
}

pub(crate) struct P {
    pub(crate) toks: Vec<Tok>,
    pub(crate) pos: usize,
}

impl P {
    pub(crate) fn err(&self, message: impl Into<String>) -> XPathParseError {
        XPathParseError { message: message.into() }
    }

    pub(crate) fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1)
    }

    pub(crate) fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn expect(&mut self, t: &Tok) -> Result<(), XPathParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{t}`, found {}",
                self.peek().map_or("end of input".to_string(), |x| format!("`{x}`"))
            )))
        }
    }

    pub(crate) fn or_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::Or) {
            let r = self.and_expr()?;
            e = Expr::Binary(BinOp::Or, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.eq_expr()?;
        while self.eat(&Tok::And) {
            let r = self.eq_expr()?;
            e = Expr::Binary(BinOp::And, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn eq_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.rel_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Eq) => BinOp::Cmp(CmpOp::Eq),
                Some(Tok::Ne) => BinOp::Cmp(CmpOp::Ne),
                _ => break,
            };
            self.bump();
            let r = self.rel_expr()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn rel_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.add_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Lt) => BinOp::Cmp(CmpOp::Lt),
                Some(Tok::Le) => BinOp::Cmp(CmpOp::Le),
                Some(Tok::Gt) => BinOp::Cmp(CmpOp::Gt),
                Some(Tok::Ge) => BinOp::Cmp(CmpOp::Ge),
                _ => break,
            };
            self.bump();
            let r = self.add_expr()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn add_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Arith(ArithOp::Add),
                Some(Tok::Minus) => BinOp::Arith(ArithOp::Sub),
                _ => break,
            };
            self.bump();
            let r = self.mul_expr()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                // A `*` after a complete operand is multiplication.
                Some(Tok::Star) => BinOp::Arith(ArithOp::Mul),
                Some(Tok::Div) => BinOp::Arith(ArithOp::Div),
                Some(Tok::Mod) => BinOp::Arith(ArithOp::Mod),
                _ => break,
            };
            self.bump();
            let r = self.unary_expr()?;
            e = Expr::Binary(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn unary_expr(&mut self) -> Result<Expr, XPathParseError> {
        if self.eat(&Tok::Minus) {
            let e = self.unary_expr()?;
            return Ok(Expr::Neg(Box::new(e)));
        }
        self.union_expr()
    }

    fn union_expr(&mut self) -> Result<Expr, XPathParseError> {
        let mut e = self.path_expr()?;
        while self.eat(&Tok::Pipe) {
            let r = self.path_expr()?;
            e = Expr::Binary(BinOp::Union, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    /// Does the upcoming token sequence start a filter (primary) expression
    /// rather than a location path?
    fn starts_primary(&self) -> bool {
        match self.peek() {
            Some(Tok::Dollar | Tok::LParen | Tok::Literal(_) | Tok::Number(_)) => true,
            Some(Tok::Name(n)) => {
                // A name followed by `(` is a function call unless it is a
                // node-type test.
                if matches!(
                    n.as_str(),
                    "text" | "comment" | "node" | "processing-instruction"
                ) {
                    return false;
                }
                matches!(self.peek2(), Some(Tok::LParen))
            }
            _ => false,
        }
    }

    fn path_expr(&mut self) -> Result<Expr, XPathParseError> {
        if self.starts_primary() {
            let primary = self.primary_expr()?;
            let mut predicates = Vec::new();
            while self.eat(&Tok::LBracket) {
                predicates.push(self.or_expr()?);
                self.expect(&Tok::RBracket)?;
            }
            let mut steps = Vec::new();
            loop {
                if self.eat(&Tok::DSlash) {
                    steps.push(Step::descendant_or_self_node());
                    steps.push(self.step()?);
                } else if self.eat(&Tok::Slash) {
                    steps.push(self.step()?);
                } else {
                    break;
                }
            }
            if predicates.is_empty() && steps.is_empty() {
                return Ok(primary);
            }
            return Ok(Expr::Filter { primary: Box::new(primary), predicates, steps });
        }
        self.location_path().map(Expr::Path)
    }

    fn primary_expr(&mut self) -> Result<Expr, XPathParseError> {
        match self.bump() {
            Some(Tok::Dollar) => {
                let name = self.qname_string()?;
                Ok(Expr::Var(name))
            }
            Some(Tok::LParen) => {
                let e = self.or_expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Literal(s)) => Ok(Expr::Literal(s)),
            Some(Tok::Number(n)) => Ok(Expr::Number(n)),
            Some(Tok::Name(name)) => {
                let full = self.maybe_prefixed(name)?;
                self.expect(&Tok::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Some(&Tok::RParen) {
                    loop {
                        args.push(self.or_expr()?);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen)?;
                Ok(Expr::Call(full, args))
            }
            other => Err(self.err(format!(
                "expected a primary expression, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }

    /// After consuming a Name token, optionally consume `:name` to build a
    /// prefixed name string.
    fn maybe_prefixed(&mut self, first: String) -> Result<String, XPathParseError> {
        if self.peek() == Some(&Tok::Colon) {
            self.bump();
            match self.bump() {
                Some(Tok::Name(l)) => Ok(format!("{first}:{l}")),
                _ => Err(self.err("expected local name after `:`")),
            }
        } else {
            Ok(first)
        }
    }

    fn qname_string(&mut self) -> Result<String, XPathParseError> {
        match self.bump() {
            Some(Tok::Name(n)) => self.maybe_prefixed(n),
            _ => Err(self.err("expected a name")),
        }
    }

    fn location_path(&mut self) -> Result<LocationPath, XPathParseError> {
        let mut steps = Vec::new();
        let absolute;
        if self.eat(&Tok::DSlash) {
            absolute = true;
            steps.push(Step::descendant_or_self_node());
            steps.push(self.step()?);
        } else if self.eat(&Tok::Slash) {
            absolute = true;
            if self.starts_step() {
                steps.push(self.step()?);
            } else {
                return Ok(LocationPath { absolute, steps });
            }
        } else {
            absolute = false;
            steps.push(self.step()?);
        }
        loop {
            if self.eat(&Tok::DSlash) {
                steps.push(Step::descendant_or_self_node());
                steps.push(self.step()?);
            } else if self.eat(&Tok::Slash) {
                steps.push(self.step()?);
            } else {
                break;
            }
        }
        Ok(LocationPath { absolute, steps })
    }

    fn starts_step(&self) -> bool {
        matches!(
            self.peek(),
            Some(Tok::Name(_) | Tok::Star | Tok::At | Tok::Dot | Tok::DotDot)
        )
    }

    pub(crate) fn step(&mut self) -> Result<Step, XPathParseError> {
        if self.eat(&Tok::Dot) {
            return Ok(Step::self_node());
        }
        if self.eat(&Tok::DotDot) {
            return Ok(Step {
                axis: Axis::Parent,
                test: NodeTest::Node,
                predicates: Vec::new(),
            });
        }
        let mut axis = Axis::Child;
        if self.eat(&Tok::At) {
            axis = Axis::Attribute;
        } else if let (Some(Tok::Name(n)), Some(Tok::DColon)) = (self.peek(), self.peek2()) {
            let a = Axis::from_name(n)
                .ok_or_else(|| self.err(format!("unknown axis `{n}`")))?;
            axis = a;
            self.bump();
            self.bump();
        }
        let test = self.node_test(axis)?;
        let mut predicates = Vec::new();
        while self.eat(&Tok::LBracket) {
            predicates.push(self.or_expr()?);
            self.expect(&Tok::RBracket)?;
        }
        Ok(Step { axis, test, predicates })
    }

    fn node_test(&mut self, _axis: Axis) -> Result<NodeTest, XPathParseError> {
        match self.bump() {
            Some(Tok::Star) => Ok(NodeTest::Star),
            Some(Tok::Name(n)) => {
                // Node-type tests.
                if self.peek() == Some(&Tok::LParen)
                    && matches!(
                        n.as_str(),
                        "text" | "comment" | "node" | "processing-instruction"
                    )
                {
                    self.bump();
                    let test = match n.as_str() {
                        "text" => NodeTest::Text,
                        "comment" => NodeTest::Comment,
                        "node" => NodeTest::Node,
                        "processing-instruction" => {
                            if let Some(Tok::Literal(target)) = self.peek() {
                                let t = target.clone();
                                self.bump();
                                NodeTest::Pi(Some(t))
                            } else {
                                NodeTest::Pi(None)
                            }
                        }
                        _ => unreachable!(),
                    };
                    self.expect(&Tok::RParen)?;
                    return Ok(test);
                }
                if self.peek() == Some(&Tok::Colon) {
                    self.bump();
                    match self.bump() {
                        Some(Tok::Name(l)) => {
                            Ok(NodeTest::Name { prefix: Some(n), local: l })
                        }
                        Some(Tok::Star) => Ok(NodeTest::PrefixStar(n)),
                        _ => Err(self.err("expected local name or `*` after prefix")),
                    }
                } else {
                    Ok(NodeTest::Name { prefix: None, local: n })
                }
            }
            other => Err(self.err(format!(
                "expected a node test, found {}",
                other.map_or("end of input".to_string(), |t| format!("`{t}`"))
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Axis, BinOp, Expr, NodeTest};
    use crate::value::{ArithOp, CmpOp};

    #[test]
    fn parses_relative_path() {
        let e = parse_expr("dept/emp").unwrap();
        match e {
            Expr::Path(p) => {
                assert!(!p.absolute);
                assert_eq!(p.steps.len(), 2);
            }
            _ => panic!("expected path"),
        }
    }

    #[test]
    fn parses_absolute_root_only() {
        let e = parse_expr("/").unwrap();
        match e {
            Expr::Path(p) => {
                assert!(p.absolute);
                assert!(p.steps.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_predicate() {
        let e = parse_expr("emp[sal > 2000]").unwrap();
        match e {
            Expr::Path(p) => {
                assert_eq!(p.steps[0].predicates.len(), 1);
                assert!(matches!(
                    p.steps[0].predicates[0],
                    Expr::Binary(BinOp::Cmp(CmpOp::Gt), _, _)
                ));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_double_slash() {
        let e = parse_expr("//text()").unwrap();
        match e {
            Expr::Path(p) => {
                assert!(p.absolute);
                assert_eq!(p.steps.len(), 2);
                assert_eq!(p.steps[0].axis, Axis::DescendantOrSelf);
                assert_eq!(p.steps[1].test, NodeTest::Text);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_attribute_and_parent() {
        let e = parse_expr("../@border").unwrap();
        match e {
            Expr::Path(p) => {
                assert_eq!(p.steps[0].axis, Axis::Parent);
                assert_eq!(p.steps[1].axis, Axis::Attribute);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_explicit_axes() {
        let e = parse_expr("ancestor::dept/following-sibling::x").unwrap();
        match e {
            Expr::Path(p) => {
                assert_eq!(p.steps[0].axis, Axis::Ancestor);
                assert_eq!(p.steps[1].axis, Axis::FollowingSibling);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_function_call_and_filter_path() {
        let e = parse_expr("concat('a', name())").unwrap();
        assert!(matches!(e, Expr::Call(ref n, ref args) if n == "concat" && args.len() == 2));
        let e = parse_expr("$x/emp[1]").unwrap();
        assert!(matches!(e, Expr::Filter { .. }));
    }

    #[test]
    fn parses_operators_with_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 and true()").unwrap();
        // Top is `and`.
        match e {
            Expr::Binary(BinOp::And, l, _) => match *l {
                Expr::Binary(BinOp::Cmp(CmpOp::Eq), ll, _) => {
                    assert!(matches!(*ll, Expr::Binary(BinOp::Arith(ArithOp::Add), _, _)));
                }
                _ => panic!("expected `=` under `and`"),
            },
            _ => panic!("expected `and` at top"),
        }
    }

    #[test]
    fn parses_union() {
        let e = parse_expr("dname | loc").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Union, _, _)));
    }

    #[test]
    fn parses_variable() {
        let e = parse_expr("$var000").unwrap();
        assert_eq!(e, Expr::Var("var000".into()));
    }

    #[test]
    fn parses_unary_minus() {
        let e = parse_expr("-1").unwrap();
        assert!(matches!(e, Expr::Neg(_)));
    }

    #[test]
    fn parses_star_wildcard_vs_multiply() {
        let e = parse_expr("*").unwrap();
        assert!(matches!(e, Expr::Path(ref p) if p.steps[0].test == NodeTest::Star));
        let e = parse_expr("2 * 3").unwrap();
        assert!(matches!(e, Expr::Binary(BinOp::Arith(ArithOp::Mul), _, _)));
        let e = parse_expr("a/*").unwrap();
        assert!(matches!(e, Expr::Path(ref p) if p.steps[1].test == NodeTest::Star));
    }

    #[test]
    fn parses_prefixed_names() {
        let e = parse_expr("xsl:template/h:*").unwrap();
        match e {
            Expr::Path(p) => {
                assert_eq!(
                    p.steps[0].test,
                    NodeTest::Name { prefix: Some("xsl".into()), local: "template".into() }
                );
                assert_eq!(p.steps[1].test, NodeTest::PrefixStar("h".into()));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_pi_with_target() {
        let e = parse_expr("processing-instruction('php')").unwrap();
        assert!(
            matches!(e, Expr::Path(ref p) if p.steps[0].test == NodeTest::Pi(Some("php".into())))
        );
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_expr("a b").is_err());
        assert!(parse_expr("a[").is_err());
        assert!(parse_expr("").is_err());
    }

    #[test]
    fn display_roundtrip() {
        for src in [
            "dept/emp",
            "/dept",
            "//emp",
            "emp[sal > 2000]",
            "concat('a', 'b')",
            "$x/emp",
            "@border",
            "..",
            ".",
            "a | b",
            "ancestor::dept",
            "count(emp) + 1",
        ] {
            let e1 = parse_expr(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse_expr(&printed)
                .unwrap_or_else(|err| panic!("reparse of `{printed}` failed: {err}"));
            assert_eq!(e1, e2, "roundtrip mismatch for `{src}` → `{printed}`");
        }
    }
}
