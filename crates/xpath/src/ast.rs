//! XPath 1.0 abstract syntax.

use crate::value::{ArithOp, CmpOp};
use std::fmt;

/// Binary operators. Comparison and arithmetic operators are the value
/// kernel's own types ([`crate::value`]), which every tier shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Cmp(CmpOp),
    Arith(ArithOp),
    Union,
}

impl BinOp {
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "or",
            BinOp::And => "and",
            BinOp::Cmp(op) => op.symbol(),
            BinOp::Arith(op) => op.symbol(),
            BinOp::Union => "|",
        }
    }
}

/// XPath axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    Child,
    Descendant,
    DescendantOrSelf,
    Parent,
    Ancestor,
    AncestorOrSelf,
    FollowingSibling,
    PrecedingSibling,
    Following,
    Preceding,
    SelfAxis,
    Attribute,
}

impl Axis {
    pub fn name(self) -> &'static str {
        match self {
            Axis::Child => "child",
            Axis::Descendant => "descendant",
            Axis::DescendantOrSelf => "descendant-or-self",
            Axis::Parent => "parent",
            Axis::Ancestor => "ancestor",
            Axis::AncestorOrSelf => "ancestor-or-self",
            Axis::FollowingSibling => "following-sibling",
            Axis::PrecedingSibling => "preceding-sibling",
            Axis::Following => "following",
            Axis::Preceding => "preceding",
            Axis::SelfAxis => "self",
            Axis::Attribute => "attribute",
        }
    }

    pub fn from_name(name: &str) -> Option<Axis> {
        Some(match name {
            "child" => Axis::Child,
            "descendant" => Axis::Descendant,
            "descendant-or-self" => Axis::DescendantOrSelf,
            "parent" => Axis::Parent,
            "ancestor" => Axis::Ancestor,
            "ancestor-or-self" => Axis::AncestorOrSelf,
            "following-sibling" => Axis::FollowingSibling,
            "preceding-sibling" => Axis::PrecedingSibling,
            "following" => Axis::Following,
            "preceding" => Axis::Preceding,
            "self" => Axis::SelfAxis,
            "attribute" => Axis::Attribute,
            _ => return None,
        })
    }
}

/// Node tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// `name` or `prefix:name`.
    Name { prefix: Option<String>, local: String },
    /// `*`
    Star,
    /// `prefix:*`
    PrefixStar(String),
    /// `text()`
    Text,
    /// `comment()`
    Comment,
    /// `node()`
    Node,
    /// `processing-instruction()` with optional target literal.
    Pi(Option<String>),
}

impl fmt::Display for NodeTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeTest::Name { prefix: Some(p), local } => write!(f, "{p}:{local}"),
            NodeTest::Name { prefix: None, local } => write!(f, "{local}"),
            NodeTest::Star => write!(f, "*"),
            NodeTest::PrefixStar(p) => write!(f, "{p}:*"),
            NodeTest::Text => write!(f, "text()"),
            NodeTest::Comment => write!(f, "comment()"),
            NodeTest::Node => write!(f, "node()"),
            NodeTest::Pi(Some(t)) => write!(f, "processing-instruction('{t}')"),
            NodeTest::Pi(None) => write!(f, "processing-instruction()"),
        }
    }
}

/// One location step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub axis: Axis,
    pub test: NodeTest,
    pub predicates: Vec<Expr>,
}

impl Step {
    pub fn child(local: &str) -> Step {
        Step {
            axis: Axis::Child,
            test: NodeTest::Name { prefix: None, local: local.to_string() },
            predicates: Vec::new(),
        }
    }

    pub fn self_node() -> Step {
        Step { axis: Axis::SelfAxis, test: NodeTest::Node, predicates: Vec::new() }
    }

    pub fn descendant_or_self_node() -> Step {
        Step { axis: Axis::DescendantOrSelf, test: NodeTest::Node, predicates: Vec::new() }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.axis, &self.test) {
            (Axis::SelfAxis, NodeTest::Node) if self.predicates.is_empty() => {
                return write!(f, ".")
            }
            (Axis::Parent, NodeTest::Node) if self.predicates.is_empty() => {
                return write!(f, "..")
            }
            _ => {}
        }
        match self.axis {
            Axis::Child => write!(f, "{}", self.test)?,
            Axis::Attribute => write!(f, "@{}", self.test)?,
            a => write!(f, "{}::{}", a.name(), self.test)?,
        }
        for p in &self.predicates {
            write!(f, "[{p}]")?;
        }
        Ok(())
    }
}

/// A location path.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationPath {
    /// Starts at the document root (`/...`).
    pub absolute: bool,
    pub steps: Vec<Step>,
}

impl LocationPath {
    /// Relative path of child steps from local names: `a/b/c`.
    pub fn relative(names: &[&str]) -> LocationPath {
        LocationPath {
            absolute: false,
            steps: names.iter().map(|n| Step::child(n)).collect(),
        }
    }
}

impl fmt::Display for LocationPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        if self.absolute {
            s.push('/');
        }
        let mut first = true;
        let mut i = 0;
        while i < self.steps.len() {
            let st = &self.steps[i];
            // Render descendant-or-self::node() followed by another step as
            // the `//` abbreviation when a separator position allows it.
            let collapsible = st.axis == Axis::DescendantOrSelf
                && st.test == NodeTest::Node
                && st.predicates.is_empty()
                && i + 1 < self.steps.len()
                && (!first || self.absolute);
            if collapsible {
                if first {
                    s.push('/'); // together with the absolute `/` this is `//`
                } else {
                    s.push_str("//");
                }
                i += 1;
                s.push_str(&self.steps[i].to_string());
                first = false;
                i += 1;
                continue;
            }
            if !first {
                s.push('/');
            }
            s.push_str(&st.to_string());
            first = false;
            i += 1;
        }
        write!(f, "{s}")
    }
}

/// XPath expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Binary(BinOp, Box<Expr>, Box<Expr>),
    Neg(Box<Expr>),
    Path(LocationPath),
    /// A primary expression filtered by predicates and optionally followed
    /// by further location steps: `$x[1]/emp`.
    Filter { primary: Box<Expr>, predicates: Vec<Expr>, steps: Vec<Step> },
    Literal(String),
    Number(f64),
    Var(String),
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Convenience: does this expression syntactically contain a comparison,
    /// arithmetic, literal, or value function anywhere? Used by the partial
    /// evaluator to classify predicates as value-dependent (residual) versus
    /// purely structural.
    pub fn is_value_dependent(&self) -> bool {
        match self {
            Expr::Binary(op, a, b) => {
                matches!(op, BinOp::Cmp(_) | BinOp::Arith(_))
                    || a.is_value_dependent()
                    || b.is_value_dependent()
            }
            Expr::Neg(_) | Expr::Literal(_) | Expr::Number(_) => true,
            Expr::Path(_) => false,
            Expr::Filter { primary, predicates, .. } => {
                primary.is_value_dependent()
                    || predicates.iter().any(|p| p.is_value_dependent())
            }
            Expr::Var(_) => false,
            Expr::Call(name, args) => {
                // position()/last() are positional, not value-dependent.
                !(name == "position" || name == "last")
                    || args.iter().any(|a| a.is_value_dependent())
            }
        }
    }

    /// If the expression is a simple relative child path (`a/b/c`), return
    /// the local names.
    #[cfg(test)]
    fn as_simple_child_path(&self) -> Option<Vec<&str>> {
        match self {
            Expr::Path(p) if !p.absolute => {
                let mut names = Vec::with_capacity(p.steps.len());
                for s in &p.steps {
                    if s.axis != Axis::Child || !s.predicates.is_empty() {
                        return None;
                    }
                    match &s.test {
                        NodeTest::Name { prefix: None, local } => names.push(local.as_str()),
                        _ => return None,
                    }
                }
                Some(names)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Binary(op, a, b) => write!(f, "{a} {} {b}", op.symbol()),
            Expr::Neg(e) => write!(f, "-{e}"),
            Expr::Path(p) => write!(f, "{p}"),
            Expr::Filter { primary, predicates, steps } => {
                // Parenthesize composite primaries.
                match **primary {
                    Expr::Var(_) | Expr::Literal(_) | Expr::Number(_) | Expr::Call(..) => {
                        write!(f, "{primary}")?
                    }
                    _ => write!(f, "({primary})")?,
                }
                for p in predicates {
                    write!(f, "[{p}]")?;
                }
                for s in steps {
                    write!(f, "/{s}")?;
                }
                Ok(())
            }
            Expr::Literal(s) => {
                if s.contains('\'') {
                    write!(f, "\"{s}\"")
                } else {
                    write!(f, "'{s}'")
                }
            }
            Expr::Number(n) => write!(f, "{}", crate::value::num_to_string(*n)),
            Expr::Var(v) => write!(f, "${v}"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_simple_path() {
        let p = LocationPath::relative(&["dept", "emp"]);
        assert_eq!(p.to_string(), "dept/emp");
    }

    #[test]
    fn display_absolute() {
        let p = LocationPath { absolute: true, steps: vec![Step::child("dept")] };
        assert_eq!(Expr::Path(p).to_string(), "/dept");
    }

    #[test]
    fn value_dependent_classification() {
        use crate::parser::parse_expr;
        assert!(parse_expr("sal > 2000").unwrap().is_value_dependent());
        assert!(parse_expr(". = 3456").unwrap().is_value_dependent());
        assert!(!parse_expr("dname").unwrap().is_value_dependent());
        assert!(!parse_expr("position()").unwrap().is_value_dependent());
        assert!(parse_expr("2").unwrap().is_value_dependent());
    }

    #[test]
    fn simple_child_path_extraction() {
        use crate::parser::parse_expr;
        let e = parse_expr("employees/emp").unwrap();
        assert_eq!(e.as_simple_child_path().unwrap(), vec!["employees", "emp"]);
        assert!(parse_expr("//emp").unwrap().as_simple_child_path().is_none());
        assert!(parse_expr("emp[1]").unwrap().as_simple_child_path().is_none());
    }
}
