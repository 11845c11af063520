//! A recursive-descent parser for the XQuery subset.
//!
//! Covers exactly the language the XSLT rewrite emits (plus what users need
//! for queries like Table 10's `for $tr in ./table/tr return $tr`): prolog
//! variable/function declarations, FLWOR, conditionals, comparisons and
//! arithmetic, `instance of`, paths, direct and computed constructors,
//! `(: comments :)`, and function calls.

use crate::ast::*;
use std::fmt;
use xsltdb_xml::escape::decode_entities;
use xsltdb_xml::QName;
use xsltdb_xpath::{ArithOp, Axis, CmpOp, NodeTest};

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq)]
pub struct XqParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for XqParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for XqParseError {}

/// Parse a complete query (prolog + body).
pub fn parse_query(src: &str) -> Result<XQuery, XqParseError> {
    let mut p = Qp { src, pos: 0 };
    let q = p.query()?;
    p.ws();
    if p.pos != src.len() {
        return Err(p.err("unexpected trailing content"));
    }
    Ok(q)
}

/// Parse a single expression (no prolog).
pub fn parse_expr(src: &str) -> Result<XqExpr, XqParseError> {
    let mut p = Qp { src, pos: 0 };
    let e = p.expr()?;
    p.ws();
    if p.pos != src.len() {
        return Err(p.err("unexpected trailing content"));
    }
    Ok(e)
}

struct Qp<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Qp<'a> {
    fn err(&self, msg: impl Into<String>) -> XqParseError {
        XqParseError { offset: self.pos, message: msg.into() }
    }

    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Skip whitespace and `(: ... :)` comments (which may nest).
    fn ws(&mut self) {
        loop {
            while matches!(self.peek(), Some(c) if c.is_ascii_whitespace()) {
                self.bump();
            }
            if self.rest().starts_with("(:") {
                self.pos += 2;
                let mut depth = 1;
                while depth > 0 {
                    if self.rest().starts_with("(:") {
                        depth += 1;
                        self.pos += 2;
                    } else if self.rest().starts_with(":)") {
                        depth -= 1;
                        self.pos += 2;
                    } else if self.bump().is_none() {
                        return; // unterminated comment: stop at EOF
                    }
                }
            } else {
                return;
            }
        }
    }

    fn eat(&mut self, s: &str) -> bool {
        self.ws();
        if self.rest().starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), XqParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Peek a keyword (identifier with word boundary) without consuming.
    fn peek_kw(&mut self, kw: &str) -> bool {
        self.ws();
        let r = self.rest();
        r.starts_with(kw)
            && !r[kw.len()..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == ':')
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_kw(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn ncname(&mut self) -> Result<String, XqParseError> {
        self.ws();
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | '.')) {
            self.bump();
        }
        Ok(self.src[start..self.pos].to_string())
    }

    /// QName as a string, keeping the prefix: `fn:string`, `local:t1`.
    fn qname_str(&mut self) -> Result<String, XqParseError> {
        let first = self.ncname()?;
        if self.peek() == Some(':') && !self.rest().starts_with("::") {
            self.pos += 1;
            let second = self.ncname_nows()?;
            Ok(format!("{first}:{second}"))
        } else {
            Ok(first)
        }
    }

    fn ncname_nows(&mut self) -> Result<String, XqParseError> {
        let start = self.pos;
        match self.peek() {
            Some(c) if c.is_alphabetic() || c == '_' => {
                self.bump();
            }
            _ => return Err(self.err("expected a name")),
        }
        while matches!(self.peek(), Some(c) if c.is_alphanumeric() || matches!(c, '_' | '-' | '.')) {
            self.bump();
        }
        Ok(self.src[start..self.pos].to_string())
    }

    // ----- query & prolog -----

    fn query(&mut self) -> Result<XQuery, XqParseError> {
        let mut variables = Vec::new();
        let mut functions = Vec::new();
        loop {
            self.ws();
            if self.peek_kw("declare") {
                let save = self.pos;
                self.eat_kw("declare");
                if self.eat_kw("variable") {
                    self.expect("$")?;
                    let name = self.qname_str()?;
                    self.expect(":=")?;
                    let value = self.expr_single()?;
                    self.expect(";")?;
                    variables.push(VarDecl { name, value });
                    continue;
                } else if self.eat_kw("function") {
                    let name = self.qname_str()?;
                    self.expect("(")?;
                    let mut params = Vec::new();
                    if !self.eat(")") {
                        loop {
                            self.expect("$")?;
                            params.push(self.qname_str()?);
                            if !self.eat(",") {
                                break;
                            }
                        }
                        self.expect(")")?;
                    }
                    self.expect("{")?;
                    let body = self.expr()?;
                    self.expect("}")?;
                    self.expect(";")?;
                    functions.push(FunctionDecl { name, params, body });
                    continue;
                } else {
                    self.pos = save;
                    break;
                }
            }
            break;
        }
        let body = self.expr()?;
        Ok(XQuery { variables, functions, body })
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut es = vec![self.expr_single()?];
        while self.eat(",") {
            es.push(self.expr_single()?);
        }
        Ok(if es.len() == 1 { es.pop().expect("one element") } else { XqExpr::Seq(es) })
    }

    fn expr_single(&mut self) -> Result<XqExpr, XqParseError> {
        self.ws();
        if self.peek_kw("for") || self.peek_kw("let") {
            // Lookahead: must be followed by `$`.
            let save = self.pos;
            let kw_for = self.peek_kw("for");
            self.pos += 3;
            self.ws();
            if self.peek() == Some('$') {
                self.pos = save;
                return self.flwor();
            }
            self.pos = save;
            let _ = kw_for;
        }
        if self.peek_kw("if") {
            let save = self.pos;
            self.pos += 2;
            self.ws();
            if self.peek() == Some('(') {
                self.pos = save;
                return self.if_expr();
            }
            self.pos = save;
        }
        self.or_expr()
    }

    fn flwor(&mut self) -> Result<XqExpr, XqParseError> {
        let mut clauses = Vec::new();
        loop {
            if self.eat_kw("for") {
                loop {
                    self.expect("$")?;
                    let var = self.qname_str()?;
                    let at = if self.eat_kw("at") {
                        self.expect("$")?;
                        Some(self.qname_str()?)
                    } else {
                        None
                    };
                    if !self.eat_kw("in") {
                        return Err(self.err("expected `in` in for clause"));
                    }
                    let source = self.expr_single()?;
                    clauses.push(Clause::For { var, at, source });
                    if !self.eat(",") {
                        break;
                    }
                }
            } else if self.eat_kw("let") {
                loop {
                    self.expect("$")?;
                    let var = self.qname_str()?;
                    self.expect(":=")?;
                    let value = self.expr_single()?;
                    clauses.push(Clause::Let { var, value });
                    if !self.eat(",") {
                        break;
                    }
                }
            } else {
                break;
            }
        }
        if clauses.is_empty() {
            return Err(self.err("expected for/let clause"));
        }
        let where_clause = if self.eat_kw("where") {
            Some(Box::new(self.expr_single()?))
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            if !self.eat_kw("by") {
                return Err(self.err("expected `by` after `order`"));
            }
            loop {
                let key = self.expr_single()?;
                let descending = if self.eat_kw("descending") {
                    true
                } else {
                    let _ = self.eat_kw("ascending");
                    false
                };
                order_by.push(OrderSpec { key, descending });
                if !self.eat(",") {
                    break;
                }
            }
        }
        if !self.eat_kw("return") {
            return Err(self.err("expected `return` in FLWOR"));
        }
        let ret = Box::new(self.expr_single()?);
        Ok(XqExpr::Flwor { clauses, where_clause, order_by, ret })
    }

    fn if_expr(&mut self) -> Result<XqExpr, XqParseError> {
        if !self.eat_kw("if") {
            return Err(self.err("expected `if`"));
        }
        self.expect("(")?;
        let cond = Box::new(self.expr()?);
        self.expect(")")?;
        if !self.eat_kw("then") {
            return Err(self.err("expected `then`"));
        }
        let then = Box::new(self.expr_single()?);
        if !self.eat_kw("else") {
            return Err(self.err("expected `else`"));
        }
        let els = Box::new(self.expr_single()?);
        Ok(XqExpr::If { cond, then, els })
    }

    fn or_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut e = self.and_expr()?;
        while self.eat_kw("or") {
            let r = self.and_expr()?;
            e = XqExpr::Or(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut e = self.comparison_expr()?;
        while self.eat_kw("and") {
            let r = self.comparison_expr()?;
            e = XqExpr::And(Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn comparison_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let e = self.additive_expr()?;
        self.ws();
        let op = if self.eat("!=") {
            CmpOp::Ne
        } else if self.eat("<=") {
            CmpOp::Le
        } else if self.eat(">=") {
            CmpOp::Ge
        } else if self.eat("=") {
            CmpOp::Eq
        } else if self.rest().starts_with('<') && !self.rest().starts_with("<<") {
            // `<` followed by a name char would be a constructor only in
            // primary position, never after a complete operand.
            self.pos += 1;
            CmpOp::Lt
        } else if self.rest().starts_with('>') {
            self.pos += 1;
            CmpOp::Gt
        } else {
            return Ok(e);
        };
        let r = self.additive_expr()?;
        Ok(XqExpr::Compare(op, Box::new(e), Box::new(r)))
    }

    fn additive_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut e = self.multiplicative_expr()?;
        loop {
            self.ws();
            let op = if self.eat("+") {
                ArithOp::Add
            } else if self.rest().starts_with('-') {
                self.pos += 1;
                ArithOp::Sub
            } else {
                break;
            };
            let r = self.multiplicative_expr()?;
            e = XqExpr::Arith(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn multiplicative_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut e = self.instanceof_expr()?;
        loop {
            self.ws();
            let op = if self.eat("*") {
                ArithOp::Mul
            } else if self.eat_kw("div") {
                ArithOp::Div
            } else if self.eat_kw("mod") {
                ArithOp::Mod
            } else {
                break;
            };
            let r = self.instanceof_expr()?;
            e = XqExpr::Arith(op, Box::new(e), Box::new(r));
        }
        Ok(e)
    }

    fn instanceof_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let e = self.unary_expr()?;
        if self.eat_kw("instance") {
            if !self.eat_kw("of") {
                return Err(self.err("expected `of` after `instance`"));
            }
            let t = self.sequence_type()?;
            return Ok(XqExpr::InstanceOf(Box::new(e), t));
        }
        Ok(e)
    }

    fn sequence_type(&mut self) -> Result<SeqType, XqParseError> {
        let name = self.ncname()?;
        self.expect("(")?;
        let t = match name.as_str() {
            "element" | "attribute" => {
                self.ws();
                let inner = if self.peek() == Some(')') {
                    None
                } else {
                    Some(self.qname_str()?)
                };
                if name == "element" {
                    SeqType::Element(inner)
                } else {
                    SeqType::Attribute(inner)
                }
            }
            "text" => SeqType::Text,
            "node" => SeqType::Node,
            "item" => SeqType::Item,
            other => return Err(self.err(format!("unsupported sequence type `{other}`"))),
        };
        self.expect(")")?;
        Ok(t)
    }

    fn unary_expr(&mut self) -> Result<XqExpr, XqParseError> {
        self.ws();
        if self.rest().starts_with('-') {
            self.pos += 1;
            let e = self.unary_expr()?;
            return Ok(XqExpr::Neg(Box::new(e)));
        }
        self.union_expr()
    }

    fn union_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let mut e = self.path_expr()?;
        loop {
            self.ws();
            if self.rest().starts_with('|') {
                self.pos += 1;
                let r = self.path_expr()?;
                e = XqExpr::Union(Box::new(e), Box::new(r));
            } else if self.eat_kw("union") {
                let r = self.path_expr()?;
                e = XqExpr::Union(Box::new(e), Box::new(r));
            } else {
                return Ok(e);
            }
        }
    }

    // ----- paths -----

    fn path_expr(&mut self) -> Result<XqExpr, XqParseError> {
        self.ws();
        if self.rest().starts_with("//") {
            self.pos += 2;
            let mut steps = vec![XqStep {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::Node,
                predicates: Vec::new(),
            }];
            steps.push(self.axis_step()?);
            self.trailing_steps(&mut steps)?;
            return Ok(XqExpr::Path { start: PathStart::Root, steps });
        }
        if self.rest().starts_with('/') {
            self.pos += 1;
            self.ws();
            let mut steps = Vec::new();
            if self.starts_step() {
                steps.push(self.axis_step()?);
                self.trailing_steps(&mut steps)?;
            }
            return Ok(XqExpr::Path { start: PathStart::Root, steps });
        }
        if self.starts_primary() {
            let base = self.postfix_expr()?;
            self.ws();
            if self.rest().starts_with('/') {
                let mut steps = Vec::new();
                self.trailing_steps(&mut steps)?;
                return Ok(XqExpr::Path { start: PathStart::Expr(Box::new(base)), steps });
            }
            return Ok(base);
        }
        // A relative axis path from the context item.
        let mut steps = vec![self.axis_step()?];
        self.trailing_steps(&mut steps)?;
        Ok(XqExpr::Path { start: PathStart::Context, steps })
    }

    fn trailing_steps(&mut self, steps: &mut Vec<XqStep>) -> Result<(), XqParseError> {
        loop {
            self.ws();
            if self.rest().starts_with("//") {
                self.pos += 2;
                steps.push(XqStep {
                    axis: Axis::DescendantOrSelf,
                    test: NodeTest::Node,
                    predicates: Vec::new(),
                });
                steps.push(self.axis_step()?);
            } else if self.rest().starts_with('/') {
                self.pos += 1;
                steps.push(self.axis_step()?);
            } else {
                return Ok(());
            }
        }
    }

    fn starts_step(&mut self) -> bool {
        self.ws();
        matches!(self.peek(), Some(c) if c.is_alphabetic() || matches!(c, '_' | '@' | '*' | '.'))
    }

    /// Can the next token start a primary expression (rather than an axis
    /// step)?
    fn starts_primary(&mut self) -> bool {
        self.ws();
        match self.peek() {
            Some('$' | '(' | '"' | '\'' | '<') => {
                // `(` could also be a parenthesized step-position? In our
                // subset, parens in step position don't occur.
                !self.rest().starts_with("(:")
            }
            Some(c) if c.is_ascii_digit() => true,
            Some('.') => {
                // `.` alone or `.` followed by `/` is the context item
                // (primary); `..` is a step.
                !self.rest().starts_with("..")
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                // A name: function call `name(` (unless node-test), or
                // computed constructor `element {`, `attribute {`, `text {`.
                let save = self.pos;
                let name = match self.qname_str() {
                    Ok(n) => n,
                    Err(_) => {
                        self.pos = save;
                        return false;
                    }
                };
                self.ws();
                let next = self.peek();
                self.pos = save;
                match next {
                    Some('(') => !matches!(
                        name.as_str(),
                        "text" | "node" | "comment" | "processing-instruction"
                    ),
                    Some('{') => matches!(
                        name.as_str(),
                        "element" | "attribute" | "text" | "document" | "comment"
                    ),
                    // `processing-instruction target {` — the constructor
                    // names its target before the enclosed content.
                    Some(c2) if c2.is_alphabetic() || c2 == '_' => {
                        name == "processing-instruction"
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }

    fn axis_step(&mut self) -> Result<XqStep, XqParseError> {
        self.ws();
        if self.rest().starts_with("..") {
            self.pos += 2;
            return self.with_predicates(XqStep {
                axis: Axis::Parent,
                test: NodeTest::Node,
                predicates: Vec::new(),
            });
        }
        if self.rest().starts_with('.') {
            self.pos += 1;
            return self.with_predicates(XqStep {
                axis: Axis::SelfAxis,
                test: NodeTest::Node,
                predicates: Vec::new(),
            });
        }
        let mut axis = Axis::Child;
        if self.rest().starts_with('@') {
            self.pos += 1;
            axis = Axis::Attribute;
        } else {
            // Explicit axis `name::`.
            let save = self.pos;
            if let Ok(n) = self.ncname() {
                if self.rest().starts_with("::") {
                    match Axis::from_name(&n) {
                        Some(a) => {
                            axis = a;
                            self.pos += 2;
                        }
                        None => return Err(self.err(format!("unknown axis `{n}`"))),
                    }
                } else {
                    self.pos = save;
                }
            } else {
                self.pos = save;
            }
        }
        let test = self.node_test()?;
        self.with_predicates(XqStep { axis, test, predicates: Vec::new() })
    }

    fn with_predicates(&mut self, mut step: XqStep) -> Result<XqStep, XqParseError> {
        loop {
            self.ws();
            if self.rest().starts_with('[') {
                self.pos += 1;
                step.predicates.push(self.expr()?);
                self.expect("]")?;
            } else {
                return Ok(step);
            }
        }
    }

    fn node_test(&mut self) -> Result<NodeTest, XqParseError> {
        self.ws();
        if self.rest().starts_with('*') {
            self.pos += 1;
            return Ok(NodeTest::Star);
        }
        let name = self.ncname()?;
        self.ws();
        if self.rest().starts_with('(') {
            match name.as_str() {
                "text" | "node" | "comment" => {
                    self.pos += 1;
                    self.expect(")")?;
                    return Ok(match name.as_str() {
                        "text" => NodeTest::Text,
                        "node" => NodeTest::Node,
                        _ => NodeTest::Comment,
                    });
                }
                _ => return Err(self.err(format!("`{name}(` is not a node test here"))),
            }
        }
        if self.rest().starts_with(':') && !self.rest().starts_with("::") {
            self.pos += 1;
            if self.rest().starts_with('*') {
                self.pos += 1;
                return Ok(NodeTest::PrefixStar(name));
            }
            let local = self.ncname_nows()?;
            return Ok(NodeTest::Name { prefix: Some(name), local });
        }
        Ok(NodeTest::Name { prefix: None, local: name })
    }

    // ----- primaries -----

    fn postfix_expr(&mut self) -> Result<XqExpr, XqParseError> {
        let base = self.primary_expr()?;
        let mut predicates = Vec::new();
        loop {
            self.ws();
            if self.rest().starts_with('[') {
                self.pos += 1;
                predicates.push(self.expr()?);
                self.expect("]")?;
            } else {
                break;
            }
        }
        if predicates.is_empty() {
            Ok(base)
        } else {
            Ok(XqExpr::Filter { base: Box::new(base), predicates })
        }
    }

    fn primary_expr(&mut self) -> Result<XqExpr, XqParseError> {
        self.ws();
        match self.peek() {
            Some('$') => {
                self.pos += 1;
                Ok(XqExpr::VarRef(self.qname_str()?))
            }
            Some('(') => {
                self.pos += 1;
                self.ws();
                if self.peek() == Some(')') {
                    self.pos += 1;
                    return Ok(XqExpr::Empty);
                }
                let e = self.expr()?;
                self.expect(")")?;
                Ok(e)
            }
            Some('"') | Some('\'') => {
                let quote = self.bump().expect("peeked");
                let mut s = String::new();
                loop {
                    match self.bump() {
                        Some(c) if c == quote => {
                            // Doubled quote is an escape.
                            if self.peek() == Some(quote) {
                                self.bump();
                                s.push(quote);
                            } else {
                                break;
                            }
                        }
                        Some(c) => s.push(c),
                        None => return Err(self.err("unterminated string literal")),
                    }
                }
                Ok(XqExpr::StrLit(s))
            }
            Some('.') => {
                self.pos += 1;
                Ok(XqExpr::ContextItem)
            }
            Some('<') => self.direct_constructor(),
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_digit() || c == '.') {
                    self.bump();
                }
                let text = &self.src[start..self.pos];
                let n: f64 = text
                    .parse()
                    .map_err(|_| self.err(format!("bad number `{text}`")))?;
                Ok(XqExpr::NumLit(n))
            }
            Some(c) if c.is_alphabetic() || c == '_' => {
                let name = self.qname_str()?;
                self.ws();
                if name == "processing-instruction"
                    && matches!(self.peek(), Some(c) if c.is_alphabetic() || c == '_')
                {
                    let target = self.ncname()?;
                    self.expect("{")?;
                    self.ws();
                    let content = if self.peek() == Some('}') {
                        Box::new(XqExpr::Empty)
                    } else {
                        Box::new(self.expr()?)
                    };
                    self.expect("}")?;
                    return Ok(XqExpr::CompPi { target, content });
                }
                if self.peek() == Some('{') {
                    return self.computed_constructor(&name);
                }
                self.expect("(")?;
                let mut args = Vec::new();
                self.ws();
                if self.peek() != Some(')') {
                    loop {
                        args.push(self.expr_single()?);
                        if !self.eat(",") {
                            break;
                        }
                    }
                }
                self.expect(")")?;
                Ok(XqExpr::Call { name, args })
            }
            _ => Err(self.err("expected a primary expression")),
        }
    }

    fn computed_constructor(&mut self, kind: &str) -> Result<XqExpr, XqParseError> {
        match kind {
            "element" | "attribute" => {
                // `element {nameExpr} {content}` form only (constant names
                // are emitted as direct constructors by the generator).
                self.expect("{")?;
                let name = Box::new(self.expr()?);
                self.expect("}")?;
                self.expect("{")?;
                self.ws();
                let content = if self.peek() == Some('}') {
                    Box::new(XqExpr::Empty)
                } else {
                    Box::new(self.expr()?)
                };
                self.expect("}")?;
                if kind == "element" {
                    Ok(XqExpr::CompElem { name, content })
                } else {
                    Ok(XqExpr::CompAttr { name, value: content })
                }
            }
            "text" => {
                self.expect("{")?;
                let e = Box::new(self.expr()?);
                self.expect("}")?;
                Ok(XqExpr::CompText(e))
            }
            "comment" => {
                self.expect("{")?;
                let e = Box::new(self.expr()?);
                self.expect("}")?;
                Ok(XqExpr::CompComment(e))
            }
            other => Err(self.err(format!("unsupported computed constructor `{other}`"))),
        }
    }

    fn direct_constructor(&mut self) -> Result<XqExpr, XqParseError> {
        self.expect("<")?;
        let name_str = self.qname_str()?;
        let name = qname_from_lexical(&name_str);
        let mut attrs = Vec::new();
        loop {
            self.ws();
            match self.peek() {
                Some('/') | Some('>') => break,
                Some(c) if c.is_alphabetic() || c == '_' => {
                    let aname_str = self.qname_str()?;
                    self.expect("=")?;
                    self.ws();
                    let quote = match self.bump() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let parts = self.attr_value_parts(quote)?;
                    attrs.push((qname_from_lexical(&aname_str), parts));
                }
                _ => return Err(self.err("malformed direct constructor")),
            }
        }
        if self.eat("/>") {
            return Ok(XqExpr::DirectElem { name, attrs, content: Vec::new() });
        }
        self.expect(">")?;
        let content = self.elem_content(&name_str)?;
        Ok(XqExpr::DirectElem { name, attrs, content })
    }

    fn attr_value_parts(&mut self, quote: char) -> Result<Vec<AttrValuePart>, XqParseError> {
        let mut parts = Vec::new();
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated attribute value")),
                Some(c) if c == quote => {
                    self.bump();
                    if self.peek() == Some(quote) {
                        self.bump();
                        text.push(quote);
                        continue;
                    }
                    break;
                }
                Some('{') => {
                    self.bump();
                    if self.peek() == Some('{') {
                        self.bump();
                        text.push('{');
                        continue;
                    }
                    if !text.is_empty() {
                        parts.push(AttrValuePart::Text(std::mem::take(&mut text)));
                    }
                    let e = self.expr()?;
                    self.expect("}")?;
                    parts.push(AttrValuePart::Expr(e));
                }
                Some('}') => {
                    self.bump();
                    if self.peek() == Some('}') {
                        self.bump();
                    }
                    text.push('}');
                }
                Some('&') => {
                    let decoded = self.entity()?;
                    text.push(decoded);
                }
                Some(c) => {
                    self.bump();
                    text.push(c);
                }
            }
        }
        if !text.is_empty() {
            parts.push(AttrValuePart::Text(text));
        }
        Ok(parts)
    }

    fn entity(&mut self) -> Result<char, XqParseError> {
        let start = self.pos;
        let semi = self
            .rest()
            .find(';')
            .ok_or_else(|| self.err("unterminated entity reference"))?;
        let raw = &self.src[start..start + semi + 1];
        let decoded =
            decode_entities(raw).map_err(|m| XqParseError { offset: start, message: m })?;
        self.pos += semi + 1;
        decoded
            .chars()
            .next()
            .ok_or_else(|| self.err("empty entity reference"))
    }

    fn elem_content(&mut self, open_name: &str) -> Result<Vec<XqExpr>, XqParseError> {
        let mut content = Vec::new();
        let mut text = String::new();
        macro_rules! flush_text {
            () => {
                if !text.is_empty() {
                    // Boundary-space strip: drop whitespace-only segments.
                    if !text.chars().all(|c| c.is_ascii_whitespace()) {
                        content.push(XqExpr::TextContent(std::mem::take(&mut text)));
                    } else {
                        text.clear();
                    }
                }
            };
        }
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unterminated <{open_name}> constructor"))),
                Some('<') => {
                    if self.rest().starts_with("</") {
                        flush_text!();
                        self.pos += 2;
                        let close = self.qname_str()?;
                        if close != open_name {
                            return Err(self.err(format!(
                                "mismatched constructor: <{open_name}> closed by </{close}>"
                            )));
                        }
                        self.ws();
                        self.expect(">")?;
                        return Ok(content);
                    }
                    flush_text!();
                    content.push(self.direct_constructor()?);
                }
                Some('{') => {
                    self.bump();
                    if self.peek() == Some('{') {
                        self.bump();
                        text.push('{');
                        continue;
                    }
                    flush_text!();
                    let e = self.expr()?;
                    self.expect("}")?;
                    content.push(e);
                }
                Some('}') => {
                    self.bump();
                    if self.peek() == Some('}') {
                        self.bump();
                    }
                    text.push('}');
                }
                Some('&') => {
                    let c = self.entity()?;
                    text.push(c);
                }
                Some(c) => {
                    self.bump();
                    text.push(c);
                }
            }
        }
    }
}

fn qname_from_lexical(s: &str) -> QName {
    let (prefix, local) = QName::split(s);
    QName { prefix: prefix.map(Into::into), local: local.into(), ns_uri: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_table10_query() {
        let e = parse_expr("for $tr in ./table/tr return $tr").unwrap();
        match e {
            XqExpr::Flwor { clauses, ret, .. } => {
                assert_eq!(clauses.len(), 1);
                assert!(matches!(*ret, XqExpr::VarRef(ref v) if v == "tr"));
            }
            other => panic!("expected FLWOR, got {other:?}"),
        }
    }

    #[test]
    fn parses_prolog_variable() {
        let q = parse_query("declare variable $var000 := .; $var000").unwrap();
        assert_eq!(q.variables.len(), 1);
        assert_eq!(q.variables[0].name, "var000");
    }

    #[test]
    fn parses_function_decl() {
        let q = parse_query(
            "declare function local:t1($n) { <r>{fn:string($n)}</r> }; local:t1(/x)",
        )
        .unwrap();
        assert_eq!(q.functions.len(), 1);
        assert_eq!(q.functions[0].params, vec!["n"]);
        assert!(matches!(q.body, XqExpr::Call { .. }));
    }

    #[test]
    fn parses_direct_constructor_with_attr_avt() {
        let e = parse_expr(r#"<table border="2"><td>{fn:string($x)}</td></table>"#).unwrap();
        match e {
            XqExpr::DirectElem { name, attrs, content } => {
                assert_eq!(&*name.local, "table");
                assert_eq!(attrs.len(), 1);
                assert_eq!(content.len(), 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boundary_whitespace_stripped() {
        let e = parse_expr("<a>\n  <b/>\n  {1}\n</a>").unwrap();
        match e {
            XqExpr::DirectElem { content, .. } => {
                assert_eq!(content.len(), 2);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn mixed_text_kept() {
        let e = parse_expr("<H2>Department name: {fn:string($v)}</H2>").unwrap();
        match e {
            XqExpr::DirectElem { content, .. } => {
                assert!(matches!(&content[0], XqExpr::TextContent(t) if t == "Department name: "));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_if_and_instance_of() {
        let e = parse_expr(
            "if ($v instance of element(dname)) then 1 else 2",
        )
        .unwrap();
        match e {
            XqExpr::If { cond, .. } => {
                assert!(matches!(*cond, XqExpr::InstanceOf(_, SeqType::Element(Some(ref n))) if n == "dname"));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_comments() {
        let e = parse_expr("(: builtin template :) ( (: inner (: nested :) :) 1, 2 )").unwrap();
        assert!(matches!(e, XqExpr::Seq(ref v) if v.len() == 2));
    }

    #[test]
    fn parses_path_with_predicate() {
        let e = parse_expr("$var003/emp[sal > 2000]").unwrap();
        match e {
            XqExpr::Path { steps, .. } => {
                assert_eq!(steps.len(), 1);
                assert_eq!(steps[0].predicates.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_let_nested() {
        let e = parse_expr(
            "let $a := /dept return (let $b := $a/dname return fn:string($b))",
        )
        .unwrap();
        assert!(matches!(e, XqExpr::Flwor { .. }));
    }

    #[test]
    fn parses_string_join_with_inner_flwor() {
        let e = parse_expr(
            r#"fn:string-join(for $t in $d//text() return fn:string($t), " ")"#,
        )
        .unwrap();
        match e {
            XqExpr::Call { name, args } => {
                assert_eq!(name, "fn:string-join");
                assert_eq!(args.len(), 2);
                assert!(matches!(args[0], XqExpr::Flwor { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parses_empty_sequence_and_seq() {
        assert_eq!(parse_expr("()").unwrap(), XqExpr::Empty);
        assert!(matches!(parse_expr("(1, 2, 3)").unwrap(), XqExpr::Seq(ref v) if v.len() == 3));
    }

    #[test]
    fn parses_arithmetic_precedence() {
        let e = parse_expr("1 + 2 * 3").unwrap();
        match e {
            XqExpr::Arith(ArithOp::Add, _, r) => {
                assert!(matches!(*r, XqExpr::Arith(ArithOp::Mul, _, _)));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn lt_after_operand_is_comparison() {
        let e = parse_expr("$a < 5").unwrap();
        assert!(matches!(e, XqExpr::Compare(CmpOp::Lt, _, _)));
    }

    #[test]
    fn computed_constructors() {
        let e = parse_expr("element {'x'} {1}").unwrap();
        assert!(matches!(e, XqExpr::CompElem { .. }));
        let e = parse_expr("attribute {'k'} {'v'}").unwrap();
        assert!(matches!(e, XqExpr::CompAttr { .. }));
        let e = parse_expr("text {'hi'}").unwrap();
        assert!(matches!(e, XqExpr::CompText(_)));
    }

    #[test]
    fn double_slash_path() {
        let e = parse_expr("$var000//text()").unwrap();
        match e {
            XqExpr::Path { steps, .. } => assert_eq!(steps.len(), 2),
            _ => panic!(),
        }
    }

    #[test]
    fn errors_on_garbage() {
        assert!(parse_expr("for $x re").is_err());
        assert!(parse_expr("<a><b></a></b>").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_expr("").is_err());
    }

    #[test]
    fn where_and_order_by() {
        let e = parse_expr(
            "for $e in $x/emp where $e/sal > 100 order by $e/ename descending return $e",
        )
        .unwrap();
        match e {
            XqExpr::Flwor { where_clause, order_by, .. } => {
                assert!(where_clause.is_some());
                assert_eq!(order_by.len(), 1);
                assert!(order_by[0].descending);
            }
            _ => panic!(),
        }
    }
}
